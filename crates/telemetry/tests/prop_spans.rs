//! Property tests for the span collector invariants the exported
//! timeline relies on: ids are never reused, every span can be closed
//! (and then stays closed), child events always lie inside their
//! parent's bounds, and the ring bound holds under any interleaving.

use proptest::prelude::*;
use wattdb_common::SimTime;
use wattdb_telemetry::{parse_jsonl, DecisionRecord, SpanCollector, SpanId, Telemetry};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Drive the collector with an arbitrary interleaving of
    /// start/event/attr/end operations under a monotone clock, then
    /// close the stragglers: every span ends at or after its start,
    /// every event lies inside its span's bounds, ids are unique, and
    /// the ring never over-retains.
    #[test]
    fn span_invariants_hold_under_any_interleaving(
        ops in proptest::collection::vec(0u8..4, 1..120),
        capacity in 1usize..16,
    ) {
        let mut c = SpanCollector::new(capacity);
        let mut clock = 0u64;
        let mut live: Vec<SpanId> = Vec::new();
        let mut seen: Vec<SpanId> = Vec::new();
        for op in ops {
            clock += 1;
            let now = SimTime::from_secs(clock);
            match op {
                0 => {
                    let parent = live.last().copied();
                    let id = c.start_child("op", now, parent);
                    prop_assert!(!seen.contains(&id), "id {id} reused");
                    seen.push(id);
                    live.push(id);
                }
                1 => {
                    if let Some(&id) = live.last() {
                        c.add_event(id, now, "tick", vec![("clock".into(), clock.into())]);
                    }
                }
                2 => {
                    if let Some(&id) = live.last() {
                        c.set_attr(id, "latest", (clock as f64).into());
                    }
                }
                _ => {
                    if let Some(id) = live.pop() {
                        c.end(id, now);
                    }
                }
            }
        }
        // Close everything still open.
        for id in live.drain(..).rev() {
            clock += 1;
            c.end(id, SimTime::from_secs(clock));
        }
        prop_assert_eq!(c.open().count(), 0, "every span closes");
        prop_assert!(c.closed().count() <= capacity, "ring bound");
        prop_assert_eq!(
            c.closed().count() as u64 + c.dropped,
            c.started(),
            "closed + evicted covers every started span"
        );
        for span in c.closed() {
            let end = span.end.expect("closed span has an end");
            prop_assert!(span.start <= end, "span runs forward");
            for ev in &span.events {
                prop_assert!(
                    span.start <= ev.at && ev.at <= end,
                    "event at {:?} escapes span [{:?}, {:?}]",
                    ev.at,
                    span.start,
                    end
                );
            }
        }
    }

    /// Whatever ends up in the recorder, the JSONL export re-parses
    /// into the same spans (schema totality over arbitrary content).
    #[test]
    fn any_recorded_state_survives_the_jsonl_round_trip(
        names in proptest::collection::vec(0u8..4, 1..24),
        close_mask in proptest::collection::vec(0u8..2, 24),
    ) {
        let mut t = Telemetry::<DecisionRecord>::new();
        let labels = ["rebalance", "helpers", "failover", "power"];
        let mut ids = Vec::new();
        for (i, &n) in names.iter().enumerate() {
            let at = SimTime::from_secs(i as u64 + 1);
            let id = t.start_span(
                labels[n as usize],
                at,
                vec![
                    ("trigger".into(), "heat-skew".into()),
                    ("index".into(), (i as u64).into()),
                ],
            );
            ids.push(id);
        }
        for (i, &id) in ids.iter().enumerate() {
            if close_mask.get(i).copied().unwrap_or(0) == 1 {
                t.spans.end(id, SimTime::from_secs(100 + i as u64));
            }
        }
        let text = t.export_jsonl();
        let parsed = parse_jsonl(&text).unwrap();
        prop_assert_eq!(parsed.spans.len(), ids.len());
        let reopened: Vec<_> = parsed.spans.iter().filter(|s| s.end.is_none()).collect();
        prop_assert_eq!(reopened.len(), t.spans.open().count());
        for span in &parsed.spans {
            prop_assert_eq!(t.spans.get(span.id).unwrap(), span);
        }
    }
}
