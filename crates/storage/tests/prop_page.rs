//! Property tests: the slotted page against a model map.
//!
//! Random sequences of insert/update/delete/compact must keep the page's
//! live contents identical to a reference `HashMap<slot, payload>` and keep
//! the logical-space accounting consistent.

use proptest::prelude::*;
use std::collections::HashMap;
use wattdb_storage::page::{SlottedPage, PAGE_SIZE, SLOT_OVERHEAD};

#[derive(Debug, Clone)]
enum Op {
    Insert { payload: Vec<u8>, logical: usize },
    Update { victim: usize, payload: Vec<u8> },
    Delete { victim: usize },
    Compact,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (proptest::collection::vec(any::<u8>(), 0..64), 64usize..512).prop_map(
            |(payload, logical)| {
                let logical = logical.max(payload.len());
                Op::Insert { payload, logical }
            }
        ),
        2 => (any::<usize>(), proptest::collection::vec(any::<u8>(), 0..64))
            .prop_map(|(victim, payload)| Op::Update { victim, payload }),
        2 => any::<usize>().prop_map(|victim| Op::Delete { victim }),
        1 => Just(Op::Compact),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_matches_model(ops in proptest::collection::vec(op_strategy(), 1..200)) {
        let mut page = SlottedPage::new();
        let mut model: HashMap<u16, (Vec<u8>, usize)> = HashMap::new();
        // Length of the slot directory: an insert reuses the lowest dead
        // slot number in it, or extends it.
        let mut directory = 0u16;

        for op in ops {
            match op {
                Op::Insert { payload, logical } => {
                    let fits = page.fits(logical);
                    match page.insert(&payload, logical) {
                        Ok(slot) => {
                            prop_assert!(fits, "insert succeeded though fits() was false");
                            let lowest_dead = (0..directory).find(|s| !model.contains_key(s));
                            prop_assert_eq!(slot, lowest_dead.unwrap_or(directory));
                            directory = directory.max(slot + 1);
                            model.insert(slot, (payload, logical));
                        }
                        Err(_) => prop_assert!(!fits, "insert failed though fits() was true"),
                    }
                }
                Op::Update { victim, payload } => {
                    let slots: Vec<u16> = model.keys().copied().collect();
                    if slots.is_empty() { continue; }
                    let slot = slots[victim % slots.len()];
                    let logical = model[&slot].1.max(payload.len());
                    if page.update(slot, &payload, logical).is_ok() {
                        model.insert(slot, (payload, logical));
                    }
                }
                Op::Delete { victim } => {
                    let slots: Vec<u16> = model.keys().copied().collect();
                    if slots.is_empty() { continue; }
                    let slot = slots[victim % slots.len()];
                    page.delete(slot).unwrap();
                    model.remove(&slot);
                }
                Op::Compact => {
                    page.compact();
                    prop_assert_eq!(page.dead_bytes(), 0);
                    // Trailing dead slots leave the directory.
                    directory = model.keys().map(|s| s + 1).max().unwrap_or(0);
                }
            }

            // Invariants after every step.
            prop_assert_eq!(page.live_records(), model.len());
            prop_assert!(page.logical_used() <= PAGE_SIZE);
            let expected_logical: usize = model
                .values()
                .map(|(_, l)| l + SLOT_OVERHEAD)
                .sum();
            prop_assert_eq!(page.logical_used(), expected_logical);
            for (&slot, (payload, logical)) in &model {
                prop_assert_eq!(page.get(slot), Some(&payload[..]));
                prop_assert_eq!(page.logical_width(slot), Some(*logical));
            }
        }

        // Final compaction preserves everything.
        page.compact();
        prop_assert_eq!(page.live_records(), model.len());
        for (&slot, (payload, _)) in &model {
            prop_assert_eq!(page.get(slot), Some(&payload[..]));
        }
    }
}
