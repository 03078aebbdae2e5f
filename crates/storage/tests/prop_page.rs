//! Property tests: the slotted page against a model.
//!
//! The model is a map slot → (bytes, logical width) plus the length of the
//! slot directory. Random insert, update and delete sequences on a page of
//! one record length — aimed at raw slot numbers, so dead and missing slots
//! are hit too — must give the model's slot numbers (an insert reuses the
//! lowest dead one), bytes, logical widths, logical use, `fits` answers,
//! live counts and errors.
//!
//! Beside it: a record of another length is refused and leaves the page
//! byte-for-byte unchanged; a page sized when it is created
//! ([`SlottedPage::sized_for`]) is the same page as [`SlottedPage::new`] in
//! everything but when it allocates, and one that only ever holds records
//! like its first never reallocates; and the 16-bit fields are driven to
//! their edges at the end.
//!
//! A page is one heap block, body and directory; it replaced a page of two
//! vectors (`reference/page_parent.rs`). `one_block_page_is_the_two_vector_page`
//! runs the two side by side, born empty or sized, through inserts of
//! mixed lengths and logical widths (so a sized page outgrows its room),
//! updates and deletes: the same outcomes and slot numbers (dead slots
//! reused lowest first), the same bytes and widths in every slot, the same
//! logical use, and the same `capacity()` after every step.

use proptest::prelude::*;
use std::collections::BTreeMap;
use wattdb_storage::page::{SlottedPage, PAGE_SIZE, SLOT_OVERHEAD};

#[path = "reference/page_parent.rs"]
mod reference;

/// Highest slot number the raw operations aim at.
const SLOTS: u16 = 24;

#[derive(Debug, Clone)]
enum Op {
    Insert { fill: u8, logical: usize },
    Update { slot: u16, fill: u8, logical: usize },
    Delete { slot: u16 },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (any::<u8>(), 0usize..700).prop_map(|(fill, logical)| Op::Insert { fill, logical }),
        3 => (0..SLOTS, any::<u8>(), 0usize..700)
            .prop_map(|(slot, fill, logical)| Op::Update { slot, fill, logical }),
        2 => (0..SLOTS).prop_map(|slot| Op::Delete { slot }),
    ]
}

/// What a page of one record length must hold.
#[derive(Debug, Default)]
struct Model {
    slots: BTreeMap<u16, (Vec<u8>, usize)>,
    /// Length of the slot directory: an insert reuses the lowest dead slot
    /// number in it, or extends it.
    directory: u16,
}

impl Model {
    fn logical_used(&self) -> usize {
        self.slots.values().map(|(_, l)| l + SLOT_OVERHEAD).sum()
    }

    fn fits(&self, logical: usize) -> bool {
        self.logical_used() + logical + SLOT_OVERHEAD <= PAGE_SIZE
    }

    /// The slot an insert of `bytes` at `logical` takes, or `None` when the
    /// page refuses it.
    fn insert(&mut self, bytes: Vec<u8>, logical: usize) -> Option<u16> {
        if !self.fits(logical) || bytes.len() > logical {
            return None;
        }
        let lowest_dead = (0..self.directory).find(|s| !self.slots.contains_key(s));
        let slot = lowest_dead.unwrap_or(self.directory);
        self.directory = self.directory.max(slot + 1);
        self.slots.insert(slot, (bytes, logical));
        Some(slot)
    }

    fn update(&mut self, slot: u16, bytes: Vec<u8>, logical: usize) -> bool {
        let Some((_, old)) = self.slots.get(&slot) else {
            return false;
        };
        let ok = self.logical_used() - old + logical <= PAGE_SIZE && bytes.len() <= logical;
        if ok {
            self.slots.insert(slot, (bytes, logical));
        }
        ok
    }

    fn delete(&mut self, slot: u16) -> bool {
        self.slots.remove(&slot).is_some()
    }
}

/// Apply `op` with records of `len` bytes to the page and the model; the
/// two must agree on the outcome.
fn step(page: &mut SlottedPage, model: &mut Model, len: usize, op: &Op) {
    match *op {
        Op::Insert { fill, logical } => {
            let bytes = vec![fill; len];
            let (fits, expected) = (model.fits(logical), model.insert(bytes.clone(), logical));
            prop_assert_eq!(page.fits(logical), fits);
            prop_assert_eq!(page.insert(&bytes, logical).ok(), expected, "{:?}", op);
        }
        Op::Update {
            slot,
            fill,
            logical,
        } => {
            let bytes = vec![fill; len];
            let expected = model.update(slot, bytes.clone(), logical);
            prop_assert_eq!(
                page.update(slot, &bytes, logical).is_ok(),
                expected,
                "{:?}",
                op
            );
        }
        Op::Delete { slot } => {
            prop_assert_eq!(page.delete(slot).is_ok(), model.delete(slot), "{:?}", op);
        }
    }
    prop_assert_eq!(page.live_records(), model.slots.len());
    prop_assert_eq!(page.logical_used(), model.logical_used());
    prop_assert!(page.logical_used() <= PAGE_SIZE);
    for probe in [0, 100, 700, 4_000] {
        prop_assert_eq!(page.fits(probe), model.fits(probe));
    }
    for slot in 0..SLOTS.max(model.directory + 1) {
        let held = model.slots.get(&slot);
        prop_assert_eq!(page.get(slot), held.map(|(b, _)| &b[..]), "slot {}", slot);
        prop_assert_eq!(
            page.logical_width(slot),
            held.map(|&(_, l)| l),
            "slot {}",
            slot
        );
    }
    let listed: Vec<(u16, &[u8])> = model.slots.iter().map(|(&s, (b, _))| (s, &b[..])).collect();
    prop_assert!(page.iter().eq(listed));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_matches_model(len in 0usize..48, ops in proptest::collection::vec(op_strategy(), 1..300)) {
        let mut page = SlottedPage::new();
        let mut model = Model::default();
        for op in &ops {
            step(&mut page, &mut model, len, op);
        }
        prop_assert_eq!(page.record_len(), (model.directory > 0).then_some(len));
    }

    #[test]
    fn a_record_of_another_length_leaves_the_page_unchanged(
        len in 0usize..48,
        other in 0usize..48,
        ops in proptest::collection::vec(op_strategy(), 1..200),
        logical in 48usize..700,
    ) {
        let mut page = SlottedPage::new();
        let mut model = Model::default();
        for op in &ops {
            step(&mut page, &mut model, len, op);
        }
        if other == len || page.record_len().is_none() {
            continue;
        }
        let before = page.clone();
        let record = vec![0xEE; other];
        prop_assert!(!page.takes(other, logical));
        prop_assert!(page.insert(&record, logical).is_err());
        prop_assert_eq!(&page, &before);
        for slot in 0..SLOTS {
            prop_assert!(page.update(slot, &record, logical).is_err());
            prop_assert_eq!(&page, &before);
        }
    }

    #[test]
    fn sized_page_is_the_unsized_page(
        sized_for in (0usize..9_000, 0usize..200),
        lens in proptest::collection::vec(0usize..6, 1..300),
        ops in proptest::collection::vec(op_strategy(), 1..300),
    ) {
        // Lengths drawn from a few, so that most records are refused as
        // being of another length and some are taken.
        let mut sized = SlottedPage::sized_for(sized_for.0, sized_for.1);
        let mut plain = SlottedPage::new();
        for (op, len) in ops.iter().zip(lens.iter().cycle()) {
            let (a, b) = match *op {
                Op::Insert { fill, logical } => {
                    let bytes = vec![fill; *len];
                    (sized.insert(&bytes, logical).map(Some), plain.insert(&bytes, logical).map(Some))
                }
                Op::Update { slot, fill, logical } => {
                    let bytes = vec![fill; *len];
                    (sized.update(slot, &bytes, logical).map(|()| None), plain.update(slot, &bytes, logical).map(|()| None))
                }
                Op::Delete { slot } => (sized.delete(slot).map(|()| None), plain.delete(slot).map(|()| None)),
            };
            prop_assert_eq!(a, b, "{:?}", op);
            prop_assert_eq!(&sized, &plain);
        }
    }

    #[test]
    fn uniform_records_never_regrow_a_sized_page(
        logical in 47usize..2_000,
        physical in 0usize..200,
        ops in proptest::collection::vec(op_strategy(), 0..200),
    ) {
        let physical = physical.min(logical);
        let mut page = SlottedPage::sized_for(logical, physical);
        let born_with = page.capacity();
        let fill = PAGE_SIZE / (logical + SLOT_OVERHEAD);
        prop_assert_eq!(born_with, (fill * physical, fill));

        for i in 0..fill {
            prop_assert_eq!(page.insert(&vec![0xAB; physical], logical).unwrap() as usize, i);
            prop_assert_eq!(page.capacity(), born_with);
        }
        prop_assert!(page.insert(&vec![0xAB; physical], logical).is_err(), "the page is full");
        prop_assert_eq!(page.physical_bytes(), born_with.0, "an exact fit");
        // Whatever follows, with records like the first, stays in the
        // buffers the page was born with.
        for op in ops {
            match op {
                Op::Insert { fill: b, .. } => drop(page.insert(&vec![b; physical], logical)),
                Op::Update { slot, fill: b, .. } => drop(page.update(slot, &vec![b; physical], logical)),
                Op::Delete { slot } => drop(page.delete(slot)),
            }
            prop_assert_eq!(page.capacity(), born_with);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_block_page_is_the_two_vector_page(
        born_sized in any::<bool>(),
        sized_for in (0usize..2_000, 0usize..40),
        lens in proptest::collection::vec(0usize..40, 1..3),
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        let sized = born_sized.then_some(sized_for);
        let (mut page, mut parent) = match sized {
            Some((logical, physical)) => (
                SlottedPage::sized_for(logical, physical),
                reference::SlottedPage::sized_for(logical, physical),
            ),
            None => (SlottedPage::new(), reference::SlottedPage::new()),
        };
        prop_assert_eq!(page.capacity(), parent.capacity());
        // Mostly one length, the page's own once `sized` fixed it.
        let len = |i: usize| match sized {
            Some((_, physical)) if !i.is_multiple_of(4) => physical,
            _ => lens[i % lens.len()],
        };
        for (i, op) in ops.iter().enumerate() {
            let bytes = |fill: u8| vec![fill; len(i)];
            match *op {
                Op::Insert { fill, logical } => prop_assert_eq!(
                    page.insert(&bytes(fill), logical).ok(),
                    parent.insert(&bytes(fill), logical).ok(),
                    "{:?}", op
                ),
                Op::Update { slot, fill, logical } => prop_assert_eq!(
                    page.update(slot, &bytes(fill), logical).is_ok(),
                    parent.update(slot, &bytes(fill), logical).is_ok(),
                    "{:?}", op
                ),
                Op::Delete { slot } => prop_assert_eq!(
                    page.delete(slot).is_ok(),
                    parent.delete(slot).is_ok(),
                    "{:?}", op
                ),
            }
            prop_assert!(page.iter().eq(parent.iter()));
            let directory = page.iter().last().map_or(0, |(s, _)| s + 1);
            for slot in 0..SLOTS.max(directory + 1) {
                prop_assert_eq!(page.get(slot), parent.get(slot), "slot {}", slot);
                prop_assert_eq!(page.logical_width(slot), parent.logical_width(slot));
            }
            prop_assert_eq!(page.logical_used(), parent.logical_used());
            prop_assert_eq!(page.live_records(), parent.live_records());
            prop_assert_eq!(page.physical_bytes(), parent.physical_bytes());
            prop_assert_eq!(page.record_len(), parent.record_len());
            prop_assert_eq!(page.fits(100), parent.fits(100));
            prop_assert_eq!(page.capacity(), parent.capacity(), "after {:?}", op);
        }
    }
}

/// One record as wide as a page: `logical` at its maximum and the record's
/// length equal to it, both at the top of what the page's 16-bit fields
/// must hold.
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
        // Replaced in place at full width: the page holds one image.
        let reversed: Vec<u8> = payload.iter().rev().copied().collect();
        page.update(slot, &reversed, widest).unwrap();
        assert_eq!(page.get(slot), Some(&reversed[..]));
        assert_eq!(page.physical_bytes(), widest);
        // Retired and reused, still in the same bytes.
        page.delete(slot).unwrap();
        assert_eq!(page.logical_used(), 0);
        assert_eq!(page.insert(&payload, widest).unwrap(), slot);
        assert_eq!(page.physical_bytes(), widest);
    }
}

/// The most slots a page can have: records of no bytes and no logical
/// width, each charged only its slot overhead.
#[test]
fn directory_holds_a_page_of_empty_records() {
    let most = PAGE_SIZE / SLOT_OVERHEAD;
    let mut page = SlottedPage::sized_for(0, 0);
    for i in 0..most {
        assert_eq!(page.insert(&[], 0).unwrap() as usize, i);
    }
    assert!(page.insert(&[], 0).is_err());
    assert_eq!(
        (page.live_records(), page.logical_used()),
        (most, PAGE_SIZE)
    );
    for slot in (0..most as u16).rev() {
        page.delete(slot).unwrap();
    }
    assert_eq!((page.live_records(), page.logical_used()), (0, 0));
    assert_eq!(page.insert(&[], 0).unwrap(), 0, "the lowest dead slot");
}
