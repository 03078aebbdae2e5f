//! Property test: the log manager's incremental accounting and its
//! truncated tail agree with a naive recompute over a shadow log that
//! keeps every record.

use proptest::prelude::*;
use wattdb_common::{Lsn, SegmentId, TxnId};
use wattdb_wal::{LogManager, LogPayload, LogRecord};

/// One step of an interleaving; the operands are reduced modulo the
/// state they apply to when the step runs.
#[derive(Debug, Clone)]
enum Step {
    /// Append a record with this many image bytes.
    Append(u32),
    /// Mark durable through `last_lsn * x / 100` — and beyond the end
    /// for `x > 100`, which must clamp.
    MarkDurable(u64),
    /// Truncate through `durable * x / 100`.
    Truncate(u64),
}

fn step() -> impl Strategy<Value = Step> {
    (0u8..4, 0u32..300, 0u64..130).prop_map(|(kind, bytes, pct)| match kind {
        0 | 1 => Step::Append(bytes),
        2 => Step::MarkDurable(pct),
        _ => Step::Truncate(pct.min(100)),
    })
}

fn shadow_bytes(shadow: &[LogRecord], from: Lsn, through: Lsn) -> u64 {
    shadow
        .iter()
        .filter(|r| r.lsn > from && r.lsn <= through)
        .map(|r| r.encoded_len() as u64)
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accounting_matches_an_untruncated_shadow_log(
        steps in proptest::collection::vec(step(), 1..120),
        probe in 0u64..140,
    ) {
        let mut log = LogManager::new();
        let mut shadow: Vec<LogRecord> = Vec::new();
        let mut durable = Lsn::ZERO;
        let mut truncated = Lsn::ZERO;
        let mut flushed = 0u64;
        let mut flushes = 0u64;
        for s in steps {
            match s {
                Step::Append(image_bytes) => {
                    let txn = TxnId(shadow.len() as u64);
                    let payload = LogPayload::Change { segment: SegmentId(1), image_bytes };
                    let lsn = log.append(txn, payload.clone());
                    prop_assert_eq!(lsn, Lsn(shadow.len() as u64 + 1), "dense LSNs");
                    shadow.push(LogRecord { lsn, txn, payload });
                }
                Step::MarkDurable(pct) => {
                    let last = shadow.len() as u64;
                    let target = Lsn(last * pct / 100);
                    log.mark_durable(target);
                    let clamped = target.min(Lsn(last));
                    if clamped > durable {
                        flushed += shadow_bytes(&shadow, durable, clamped);
                        flushes += 1;
                        durable = clamped;
                    }
                }
                Step::Truncate(pct) => {
                    let through = Lsn(durable.raw() * pct / 100);
                    log.truncate_through(through);
                    truncated = truncated.max(through);
                }
            }
            let last = Lsn(shadow.len() as u64);
            prop_assert_eq!(log.last_lsn(), last);
            prop_assert_eq!(log.durable_lsn(), durable);
            prop_assert_eq!(log.pending_bytes() as u64, shadow_bytes(&shadow, durable, last));
            prop_assert_eq!(log.flushed_bytes(), flushed);
            prop_assert_eq!(log.flush_count(), flushes);
            prop_assert_eq!(log.len() as u64, last.raw() - truncated.raw());
            // Anywhere at or past the truncation point the tail is the
            // shadow's; below it, whatever is still retained.
            let from = Lsn(last.raw() * probe / 100);
            let tail: Vec<&LogRecord> = log.records_after(from).collect();
            let expect: Vec<&LogRecord> = shadow
                .iter()
                .filter(|r| r.lsn > from.max(truncated))
                .collect();
            prop_assert_eq!(tail, expect);
        }
    }
}

#[test]
#[should_panic(expected = "undurable")]
fn truncating_past_the_durable_lsn_panics_after_earlier_truncations() {
    let mut log = LogManager::new();
    for t in 1..=6u64 {
        log.append(TxnId(t), LogPayload::Commit);
    }
    log.mark_durable(Lsn(4));
    log.truncate_through(Lsn(3));
    log.truncate_through(Lsn(5));
}
