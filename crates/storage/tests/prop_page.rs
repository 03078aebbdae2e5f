//! Property tests: the slotted page against a model map.
//!
//! Random sequences of insert/update/delete/compact must keep the page's
//! live contents identical to a reference `HashMap<slot, payload>` and keep
//! the logical-space accounting consistent.
//!
//! A page sized when it is created ([`SlottedPage::sized_for`]) is the same
//! page as [`SlottedPage::new`] in everything but when it allocates: the
//! same sequences, now aimed at raw slot numbers and with updates longer
//! than their logical width, must give both the same slot numbers, bytes,
//! errors and accounting — and a page that gets the uniform records it was
//! sized for never changes either buffer's capacity. The 8-byte slot is
//! driven to the edges of its fields at the end.

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

/// Operations by raw slot number: dead and missing slots are hit too, and
/// an update's logical width is free to be shorter than its payload.
#[derive(Debug, Clone)]
enum RawOp {
    Insert {
        payload: Vec<u8>,
        logical: usize,
    },
    Update {
        slot: u16,
        payload: Vec<u8>,
        logical: usize,
    },
    Delete {
        slot: u16,
    },
    Compact,
}

fn raw_op_strategy() -> impl Strategy<Value = RawOp> {
    let payload = || proptest::collection::vec(any::<u8>(), 0..64);
    prop_oneof![
        4 => (payload(), 0usize..700).prop_map(|(payload, logical)| {
            let logical = logical.max(payload.len());
            RawOp::Insert { payload, logical }
        }),
        3 => (0u16..24, payload(), 0usize..700)
            .prop_map(|(slot, payload, logical)| RawOp::Update { slot, payload, logical }),
        2 => (0u16..24).prop_map(|slot| RawOp::Delete { slot }),
        1 => Just(RawOp::Compact),
    ]
}

fn apply(page: &mut SlottedPage, op: &RawOp) -> wattdb_common::Result<Option<u16>> {
    match op {
        RawOp::Insert { payload, logical } => page.insert(payload, *logical).map(Some),
        RawOp::Update {
            slot,
            payload,
            logical,
        } => page.update(*slot, payload, *logical).map(|()| None),
        RawOp::Delete { slot } => page.delete(*slot).map(|()| None),
        RawOp::Compact => {
            page.compact();
            Ok(None)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn sized_page_is_the_unsized_page(
        sized_for in (0usize..9_000, 0usize..200),
        ops in proptest::collection::vec(raw_op_strategy(), 1..300),
    ) {
        let mut sized = SlottedPage::sized_for(sized_for.0, sized_for.1);
        let mut plain = SlottedPage::new();
        for op in &ops {
            prop_assert_eq!(apply(&mut sized, op), apply(&mut plain, op), "{:?}", op);
            prop_assert_eq!(sized.logical_used(), plain.logical_used());
            prop_assert_eq!(sized.dead_bytes(), plain.dead_bytes());
            prop_assert_eq!(sized.physical_bytes(), plain.physical_bytes());
            prop_assert_eq!(sized.live_records(), plain.live_records());
            prop_assert!(sized.iter().eq(plain.iter()));
            for slot in 0..24 {
                prop_assert_eq!(sized.get(slot), plain.get(slot));
                prop_assert_eq!(sized.logical_width(slot), plain.logical_width(slot));
            }
        }
    }

    #[test]
    fn uniform_records_never_regrow_a_sized_page(
        logical in 47usize..2_000,
        physical in 0usize..200,
        deletes in proptest::collection::vec(any::<u16>(), 0..8),
    ) {
        let physical = physical.min(logical);
        let payload = vec![0xAB; physical];
        let mut page = SlottedPage::sized_for(logical, physical);
        let born_with = page.capacity();
        let fill = PAGE_SIZE / (logical + SLOT_OVERHEAD);
        prop_assert_eq!(born_with, (fill * physical, fill));

        for i in 0..fill {
            prop_assert_eq!(page.insert(&payload, logical).unwrap() as usize, i);
            prop_assert_eq!(page.capacity(), born_with);
        }
        prop_assert!(page.insert(&payload, logical).is_err(), "the page is full");
        prop_assert_eq!(page.physical_bytes(), born_with.0, "an exact fit");
        for victim in deletes {
            let _ = page.delete(victim % fill as u16);
        }
        prop_assert_eq!(page.capacity(), born_with);
    }
}

/// One record as wide as a page: `logical` at its maximum and `len` equal
/// to it, both at the top of what a slot's 16-bit fields must hold.
#[test]
fn slot_holds_a_page_wide_record() {
    let widest = PAGE_SIZE - SLOT_OVERHEAD;
    let payload: Vec<u8> = (0..widest).map(|i| i as u8).collect();
    for mut page in [SlottedPage::new(), SlottedPage::sized_for(widest, widest)] {
        assert!(
            page.insert(&payload, widest + 1).is_err(),
            "one byte too wide"
        );
        let slot = page.insert(&payload, widest).unwrap();
        assert_eq!(page.get(slot), Some(&payload[..]));
        assert_eq!(page.logical_width(slot), Some(widest));
        assert_eq!(page.logical_used(), PAGE_SIZE);
        assert!(!page.fits(0));
        // Replaced at full width, then shrunk: the accounting follows.
        page.update(slot, &payload, widest).unwrap();
        assert_eq!(page.dead_bytes(), widest);
        page.update(slot, b"small", 5).unwrap();
        assert_eq!(page.get(slot), Some(&b"small"[..]));
        assert_eq!(page.logical_used(), 5 + SLOT_OVERHEAD);
    }
}

/// Every update appends, so a body passes 64 KiB long before anything
/// compacts it: the offset is the one slot field 16 bits cannot hold.
#[test]
fn slot_offset_passes_64_kib_through_updates() {
    let mut page = SlottedPage::sized_for(64, 64);
    let slot = page.insert(&[0; 64], 64).unwrap();
    let neighbour = page.insert(b"neighbour", 64).unwrap();
    for round in 1..=1_100u32 {
        let mut image = [0u8; 64];
        image[..4].copy_from_slice(&round.to_le_bytes());
        page.update(slot, &image, 64).unwrap();
        assert_eq!(&page.get(slot).unwrap()[..4], &round.to_le_bytes());
    }
    assert!(page.physical_bytes() > 1 << 16);
    assert_eq!(page.dead_bytes(), 1_100 * 64);
    assert_eq!(page.get(neighbour), Some(&b"neighbour"[..]));
    // A record inserted now lies past 64 KiB from its first byte.
    let late = page.insert(b"late", 64).unwrap();
    assert_eq!(page.get(late), Some(&b"late"[..]));
    page.compact();
    assert_eq!(page.physical_bytes(), 64 + 9 + 4);
    assert_eq!(&page.get(slot).unwrap()[..4], &1_100u32.to_le_bytes());
    assert_eq!(page.get(late), Some(&b"late"[..]));
}
