//! A B+-tree node is one heap block, so growing the tree costs one heap
//! call per node it creates or regrows, and none otherwise.
//!
//! A counting `#[global_allocator]` wraps the system allocator and counts
//! `alloc` and `realloc` calls (`alloc_zeroed` goes through `alloc`), the
//! way the benchmark's `allocs_per_txn` does. Pinned: an empty tree is one
//! call (its root leaf); a leaf split, an internal split and a root split
//! are one call per node they add; a left-behind half that takes an entry
//! again regrows once, and then takes entries without a call until it
//! splits; replacing a value and a lookup cost nothing.
//!
//! Lives in its own test binary because a global allocator is
//! process-wide; the count is per thread, so the tests (one thread each)
//! do not see one another.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use wattdb_common::Key;
use wattdb_index::BPlusTree;

struct CountingAlloc;

thread_local! {
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocs() -> u64 {
    ALLOCS.with(Cell::get)
}

/// Heap calls `f` makes.
fn calls<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = allocs();
    let out = f();
    (allocs() - before, out)
}

/// `(entries, room)` of every node of `level` (1 = leaves), left to right.
fn level(tree: &BPlusTree<u64>, level: usize) -> Vec<(usize, usize)> {
    let fill = tree.node_fill();
    let nodes = fill.iter().filter(|&&(l, _, _)| l == level);
    nodes.map(|&(_, len, room)| (len, room)).collect()
}

/// Nodes per level, leaves first.
fn nodes(tree: &BPlusTree<u64>) -> Vec<usize> {
    (1..=tree.height()).map(|l| level(tree, l).len()).collect()
}

#[test]
fn an_empty_tree_is_one_block() {
    let (n, tree) = calls(BPlusTree::<u64>::new);
    assert_eq!(n, 1, "the root leaf");
    assert_eq!(level(&tree, 1), [(0, 33)]);
}

/// Appends split only full nodes, and the half they keep filling holds
/// the old block: every call is a node the insert added — a leaf, an
/// internal node, or a new root.
#[test]
fn each_split_is_one_heap_call() {
    let mut tree = BPlusTree::new();
    let (mut leaf_splits, mut internal_splits, mut root_splits) = (0, 0, 0);
    for k in 0..3_000u64 {
        let before = nodes(&tree);
        let (n, _) = calls(|| tree.insert(Key(k), k));
        let after = nodes(&tree);
        let added: usize = after.iter().sum::<usize>() - before.iter().sum::<usize>();
        assert_eq!(n, added as u64, "insert {k}: {before:?} -> {after:?}");
        leaf_splits += after[0] - before[0];
        internal_splits += (1..before.len())
            .map(|l| after[l] - before[l])
            .sum::<usize>();
        root_splits += after.len() - before.len();
    }
    tree.check_invariants();
    assert_eq!(tree.height(), 3);
    assert_eq!((leaf_splits, internal_splits, root_splits), (186, 10, 2));
    // A lookup and a replace touch no allocator.
    let (n, _) = calls(|| {
        for k in 0..3_000u64 {
            assert_eq!(tree.get(Key(k)).0, Some(&k));
            assert_eq!(tree.insert(Key(k), k + 1), Some(k));
        }
    });
    assert_eq!(n, 0);
}

/// After a sequential load every leaf but the last is a left-behind half
/// that fits its 16 entries exactly. A key inserted into one regrows it
/// once, to the full fan-out; the next 15 cost nothing, and the one that
/// overflows it splits it with one call.
#[test]
fn a_left_behind_half_regrows_once_then_splits_once() {
    let mut tree = BPlusTree::new();
    for k in 0..400u64 {
        tree.insert(Key(4 * k), k);
    }
    assert_eq!(level(&tree, 1)[0], (16, 16), "a left-behind half");
    let leaves = level(&tree, 1).len();

    let (n, _) = calls(|| tree.insert(Key(1), 1));
    assert_eq!(n, 1, "one regrow");
    assert_eq!(level(&tree, 1)[0], (17, 33));
    for i in 1..16u64 {
        let (n, _) = calls(|| tree.insert(Key(4 * i + 1), i));
        assert_eq!(n, 0, "room for {i} more");
    }
    assert_eq!(level(&tree, 1)[0], (32, 33));

    // Inserted into the lower half: the lower half keeps the block.
    let (n, _) = calls(|| tree.insert(Key(3), 3));
    assert_eq!(n, 1, "one split");
    assert_eq!(level(&tree, 1).len(), leaves + 1);
    assert_eq!(level(&tree, 1)[..2], [(16, 33), (17, 17)]);
    tree.check_invariants();
}
