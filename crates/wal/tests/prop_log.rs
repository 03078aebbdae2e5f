//! Property tests over the log as a byte ledger: a shadow log keeps every
//! record ever appended as an `(lsn, len)` pair, and the manager's
//! incremental accounting, its truncated tail and the shipping cursors
//! must agree with a naive recompute over it.

use proptest::prelude::*;
use wattdb_common::{Lsn, NodeId, SegmentId, TxnId};
use wattdb_wal::{LogManager, LogPayload, LogShipper};

/// Every record ever appended, as `(lsn, encoded length)`.
type Shadow = Vec<(Lsn, usize)>;

/// Bytes of the shadow records in `(from, through]`.
fn shadow_bytes(shadow: &Shadow, from: Lsn, through: Lsn) -> u64 {
    shadow
        .iter()
        .filter(|(lsn, _)| *lsn > from && *lsn <= through)
        .map(|&(_, len)| len as u64)
        .sum()
}

/// Append `payload` to both logs; the LSNs must stay dense.
fn append(log: &mut LogManager, shadow: &mut Shadow, payload: LogPayload) -> Lsn {
    let len = payload.encoded_len();
    let lsn = log.append(TxnId(shadow.len() as u64), payload);
    assert_eq!(lsn, Lsn(shadow.len() as u64 + 1), "dense LSNs");
    shadow.push((lsn, len));
    lsn
}

fn change(image_bytes: u32) -> LogPayload {
    LogPayload::Change {
        segment: SegmentId(1),
        image_bytes,
    }
}

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

/// One step of a shipping interleaving. Followers are `NodeId(1..=3)`.
#[derive(Debug, Clone)]
enum ShipStep {
    /// Append a `Change` with this many image bytes.
    Change(u32),
    /// Append a `Commit`.
    Commit,
    /// Mark durable through `last_lsn * x / 100`.
    MarkDurable(u64),
    Attach(u16),
    TakeBatch(u16),
    /// Acknowledge through `shipped * x / 100` of that follower's cursor.
    Acknowledge(u16, u64),
    Detach(u16),
    /// Truncate at the engine's horizon: `min(durable, every min_shipped)`.
    Truncate,
}

fn ship_step() -> impl Strategy<Value = ShipStep> {
    (0u8..10, 0u32..300, 1u16..4, 0u64..=100).prop_map(|(kind, bytes, f, pct)| match kind {
        0 | 1 => ShipStep::Change(bytes),
        2 => ShipStep::Commit,
        3 => ShipStep::MarkDurable(pct),
        4 => ShipStep::Attach(f),
        5 | 6 => ShipStep::TakeBatch(f),
        7 => ShipStep::Acknowledge(f, pct),
        8 => ShipStep::Detach(f),
        _ => ShipStep::Truncate,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn accounting_matches_an_untruncated_shadow_log(
        steps in proptest::collection::vec(step(), 1..120),
        probe in 0u64..140,
    ) {
        let mut log = LogManager::new();
        let mut shadow = Shadow::new();
        let mut durable = Lsn::ZERO;
        let mut truncated = Lsn::ZERO;
        let mut flushed = 0u64;
        let mut flushes = 0u64;
        for s in steps {
            match s {
                Step::Append(image_bytes) => {
                    append(&mut log, &mut shadow, change(image_bytes));
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
            let expect = (from.max(truncated) < last)
                .then(|| shadow_bytes(&shadow, from.max(truncated), last) as usize);
            prop_assert_eq!(log.bytes_after(from), expect);
        }
    }

    /// Every byte appended after a follower attaches is returned by
    /// exactly one of that follower's `take_batch` calls, however appends,
    /// flushes, acks, detaches and truncation at the engine's horizon
    /// interleave.
    #[test]
    fn every_logged_byte_is_shipped_exactly_once(
        steps in proptest::collection::vec(ship_step(), 1..160),
    ) {
        let mut log = LogManager::new();
        let mut shadow = Shadow::new();
        let mut shipper = LogShipper::new();
        // Per follower: the log's end when it attached and the bytes its
        // batches returned since.
        let mut attached: [Option<(Lsn, u64)>; 4] = [None; 4];
        let mut returned = 0u64;
        for s in steps {
            match s {
                ShipStep::Change(image_bytes) => {
                    append(&mut log, &mut shadow, change(image_bytes));
                }
                ShipStep::Commit => {
                    append(&mut log, &mut shadow, LogPayload::Commit);
                }
                ShipStep::MarkDurable(pct) => {
                    log.mark_durable(Lsn(log.last_lsn().raw() * pct / 100));
                }
                ShipStep::Attach(f) => {
                    shipper.attach(NodeId(f), &log);
                    attached[f as usize].get_or_insert((log.last_lsn(), 0));
                }
                ShipStep::TakeBatch(f) => {
                    let before = shipper.shipped_lsn(NodeId(f));
                    let got = shipper.take_batch(NodeId(f), &log);
                    match (before, attached[f as usize].as_mut()) {
                        (Some(from), Some((_, sum))) => {
                            let last = log.last_lsn();
                            let expect = (from < last)
                                .then(|| shadow_bytes(&shadow, from, last) as usize);
                            prop_assert_eq!(got, expect, "the batch is the unshipped tail");
                            prop_assert_eq!(shipper.shipped_lsn(NodeId(f)), Some(last));
                            *sum += got.unwrap_or(0) as u64;
                        }
                        _ => prop_assert_eq!(got, None, "no cursor, no batch"),
                    }
                    returned += got.unwrap_or(0) as u64;
                }
                ShipStep::Acknowledge(f, pct) => {
                    if let Some(shipped) = shipper.shipped_lsn(NodeId(f)) {
                        shipper.acknowledge(NodeId(f), Lsn(shipped.raw() * pct / 100));
                    }
                }
                ShipStep::Detach(f) => {
                    shipper.detach(NodeId(f));
                    attached[f as usize] = None;
                }
                ShipStep::Truncate => {
                    let horizon = shipper
                        .min_shipped()
                        .map_or(log.durable_lsn(), |m| m.min(log.durable_lsn()));
                    log.truncate_through(horizon);
                }
            }
            let last = log.last_lsn();
            prop_assert_eq!(shipper.shipped_bytes(), returned);
            for (f, shipped, acked) in shipper.cursors() {
                prop_assert!(acked <= shipped && shipped <= last, "{f:?}: {acked:?} {shipped:?} {last:?}");
                // Truncation never dropped a record this cursor has not
                // shipped: the whole unshipped tail is still retained.
                let expect = (shipped < last).then(|| shadow_bytes(&shadow, shipped, last) as usize);
                prop_assert_eq!(log.bytes_after(shipped), expect);
                // Ship-once so far: the batches returned exactly the bytes
                // between attach and the cursor.
                let (from, sum) = attached[f.raw() as usize].expect("cursor has a model");
                prop_assert_eq!(sum, shadow_bytes(&shadow, from, shipped));
            }
        }
        // Drain: one more batch per follower returns the rest, and then
        // every byte appended since each attach has been returned once.
        for f in shipper.followers() {
            let (from, sum) = attached[f.raw() as usize].expect("cursor has a model");
            let rest = shipper.take_batch(f, &log).unwrap_or(0) as u64;
            prop_assert_eq!(sum + rest, shadow_bytes(&shadow, from, log.last_lsn()));
            prop_assert!(shipper.take_batch(f, &log).is_none());
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
