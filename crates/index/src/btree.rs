//! A B+-tree: the index structure underlying WattDB partitions.
//!
//! "In WattDB, indexes are realized using B*-trees and span only one
//! partition at a time" (§4). This is a textbook main-memory B+-tree —
//! separator keys in internal nodes, all entries in leaves — with insert,
//! delete (borrow/merge rebalancing), point and range lookups. Lookup
//! methods report the number of node visits so the simulation can charge
//! index-traversal CPU and page accesses.
//!
//! **Height is kept, not walked.** The engine charges every record
//! operation `height()` node visits, so the tree counts its levels where
//! they change — a root split adds one, a root collapse removes one — and
//! [`BPlusTree::height`] is a field read.
//!
//! **One descent per write.** [`BPlusTree::upsert_with`] is the
//! insert-or-replace every writer goes through ([`BPlusTree::insert`] is
//! its infallible case): it descends once, shows the closure the entry the
//! key has now, and stores what the closure returns — or leaves the tree
//! untouched when the closure fails. A caller that must look before it
//! writes (MVCC's conflict check, then a new version whose address becomes
//! the value) pays one root-to-leaf walk, not a `get` and an `insert`.
//! [`BPlusTree::get_mut`] is the same for a key that must already exist.
//!
//! **A node is one heap block** (`crate::block`): its keys, then its
//! values — a leaf's entries, or an internal node's separators and its
//! children, held inline. A binary search walks keys packed eight to a
//! cache line, and what it lands on is in the same block, not behind a
//! second pointer. A split, a fresh root and a regrow each cost one heap
//! call.
//!
//! **A node's block holds `MAX + 1` entries at most** (a node overflows by
//! one entry before it splits) and is never allocated larger. A fresh root
//! reserves that room at once. A split hands the node's existing block to
//! the half the new entry landed in — the half that keeps filling: TPC-C's
//! inserts append per district, so it is nearly always the upper one — and
//! copies the half left behind into a block that fits it exactly: after a
//! sequential load every leaf but the last of each run is half full for
//! good, and keeps 16 entries in room for 16, not for 33. Split point,
//! separators and `height()` do not depend on which half got which block.
//! A left-behind half that does grow again (a random insert, a borrow, a
//! merge) regrows once, straight to `MAX + 1` (`grow`).

use std::convert::Infallible;

use wattdb_common::{Key, KeyRange};

use crate::block::Block;

/// Minimum number of entries in a non-root leaf, and minimum number of
/// children in a non-root internal node. Fanout is `2 * MIN_DEGREE`.
const MIN_DEGREE: usize = 16;
const MAX_LEAF: usize = 2 * MIN_DEGREE; // max entries per leaf
const MAX_CHILDREN: usize = 2 * MIN_DEGREE; // max children per internal

/// A node: a leaf's entries, or an internal node's children, each child
/// beside the separator in front of it — key `i` (for `i >= 1`) is the
/// smallest key reachable through child `i`; the first child has no
/// separator, and its key is never read.
#[derive(Debug, Clone)]
enum Node<V> {
    L(Block<V>),
    I(Block<Node<V>>),
}

// One per child of every internal node: a field added here is paid for in
// every node of every segment's index.
const _: () = assert!(std::mem::size_of::<Node<u64>>() == 24);

enum InsertOutcome<V> {
    /// Key existed; previous value returned.
    Replaced(V),
    /// Inserted without split.
    Done,
    /// Node split: push `(separator, right sibling)` up.
    Split(Key, Node<V>),
}

/// Room of a node's block: the fan-out and the one entry of overflow.
const ROOM: usize = MAX_LEAF + 1;

/// Make sure `extra` more entries fit `b`, a node's block: a block short
/// of room goes straight to [`ROOM`], where doubling would overshoot it
/// (17 → 34).
fn grow<T>(b: &mut Block<T>, extra: usize) {
    if b.room() - b.len() < extra {
        b.reserve_exact(ROOM - b.len());
    }
}

/// The child of an internal node whose subtree holds `key`.
#[inline]
fn child_index<V>(kids: &Block<Node<V>>, key: Key) -> usize {
    kids.keys()[1..].partition_point(|sep| *sep <= key)
}

impl<V> Node<V> {
    /// Entries of a leaf, children of an internal node.
    fn len(&self) -> usize {
        match self {
            Node::L(l) => l.len(),
            Node::I(kids) => kids.len(),
        }
    }
}

/// A main-memory B+-tree from [`Key`] to `V`.
#[derive(Debug, Clone)]
pub struct BPlusTree<V> {
    root: Node<V>,
    len: usize,
    /// Levels from the root to a leaf, both included.
    height: usize,
}

impl<V> Default for BPlusTree<V> {
    fn default() -> Self {
        Self::new()
    }
}

impl<V> BPlusTree<V> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::L(Block::with_room(ROOM)),
            len: 0,
            height: 1,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Height of the tree: 1 for a lone leaf. Lookups visit `height()`
    /// nodes; the engine charges that many index-node accesses.
    pub fn height(&self) -> usize {
        self.height
    }

    /// Point lookup. Returns the value and the number of nodes visited.
    pub fn get(&self, key: Key) -> (Option<&V>, usize) {
        let mut visits = 1;
        let mut n = &self.root;
        loop {
            match n {
                Node::L(l) => {
                    let found = l.keys().binary_search(&key).ok();
                    return (found.map(|i| &l.vals()[i]), visits);
                }
                Node::I(kids) => {
                    n = &kids.vals()[child_index(kids, key)];
                    visits += 1;
                }
            }
        }
    }

    /// Mutable point lookup.
    pub fn get_mut(&mut self, key: Key) -> Option<&mut V> {
        let mut n = &mut self.root;
        loop {
            match n {
                Node::L(l) => {
                    let found = l.keys().binary_search(&key).ok();
                    return found.map(|i| &mut l.vals_mut()[i]);
                }
                Node::I(kids) => {
                    let idx = child_index(kids, key);
                    n = &mut kids.vals_mut()[idx];
                }
            }
        }
    }

    /// Insert, returning the previous value if the key existed.
    pub fn insert(&mut self, key: Key, value: V) -> Option<V> {
        match self.upsert_with(key, |_| Ok::<V, Infallible>(value)) {
            Ok(previous) => previous,
            Err(never) => match never {},
        }
    }

    /// Insert-or-replace in one descent. `make` is shown the value `key`
    /// maps to now (`None`: the key is new) and returns the value to store;
    /// the previous value comes back. When `make` fails, its error is
    /// returned and the tree — entries, length, height — is untouched.
    pub fn upsert_with<E>(
        &mut self,
        key: Key,
        make: impl FnOnce(Option<&V>) -> Result<V, E>,
    ) -> Result<Option<V>, E> {
        match Self::upsert_rec(&mut self.root, key, make)? {
            InsertOutcome::Replaced(old) => return Ok(Some(old)),
            InsertOutcome::Done => {}
            InsertOutcome::Split(sep, right) => {
                let mut root = Block::with_room(ROOM);
                let old_root = std::mem::replace(&mut self.root, Node::L(Block::with_room(0)));
                root.push(Key::MIN, old_root);
                root.push(sep, right);
                self.root = Node::I(root);
                self.height += 1;
            }
        }
        self.len += 1;
        Ok(None)
    }

    fn upsert_rec<E>(
        node: &mut Node<V>,
        key: Key,
        make: impl FnOnce(Option<&V>) -> Result<V, E>,
    ) -> Result<InsertOutcome<V>, E> {
        Ok(match node {
            Node::L(l) => match l.keys().binary_search(&key) {
                Ok(i) => {
                    let value = make(Some(&l.vals()[i]))?;
                    InsertOutcome::Replaced(std::mem::replace(&mut l.vals_mut()[i], value))
                }
                Err(i) => {
                    let value = make(None)?;
                    grow(l, 1);
                    l.insert(i, key, value);
                    if l.len() > MAX_LEAF {
                        let mid = l.len() / 2;
                        let right = l.split(mid, i >= mid);
                        InsertOutcome::Split(right.keys()[0], Node::L(right))
                    } else {
                        InsertOutcome::Done
                    }
                }
            },
            Node::I(kids) => {
                let idx = child_index(kids, key);
                match Self::upsert_rec(&mut kids.vals_mut()[idx], key, make)? {
                    InsertOutcome::Split(sep, right) => {
                        grow(kids, 1);
                        kids.insert(idx + 1, sep, right);
                        if kids.len() > MAX_CHILDREN {
                            // Split internal node: the lower half keeps one
                            // child more, and the separator in front of the
                            // upper half's first child moves up.
                            let at = kids.len().div_ceil(2);
                            let right = kids.split(at, idx + 1 >= at);
                            InsertOutcome::Split(right.keys()[0], Node::I(right))
                        } else {
                            InsertOutcome::Done
                        }
                    }
                    other => other,
                }
            }
        })
    }

    /// Remove a key, returning its value if present.
    pub fn remove(&mut self, key: Key) -> Option<V> {
        let removed = Self::remove_rec(&mut self.root, key);
        if removed.is_some() {
            self.len -= 1;
        }
        // Shrink the root if it degenerated to a single child.
        if let Node::I(kids) = &mut self.root {
            if kids.len() == 1 {
                let (_, child) = kids.pop().expect("one child");
                self.root = child;
                self.height -= 1;
            }
        }
        removed
    }

    fn remove_rec(node: &mut Node<V>, key: Key) -> Option<V> {
        match node {
            Node::L(l) => {
                let found = l.keys().binary_search(&key).ok();
                found.map(|i| l.remove(i).1)
            }
            Node::I(kids) => {
                let idx = child_index(kids, key);
                let removed = Self::remove_rec(&mut kids.vals_mut()[idx], key)?;
                if kids.vals()[idx].len() < MIN_DEGREE {
                    Self::fix_underflow(kids, idx);
                }
                Some(removed)
            }
        }
    }

    /// Restore the invariant at child `idx` by borrowing from a sibling or
    /// merging with one.
    fn fix_underflow(kids: &mut Block<Node<V>>, idx: usize) {
        // Try borrowing from the left sibling.
        if idx > 0 && kids.vals()[idx - 1].len() > MIN_DEGREE {
            let down = kids.keys()[idx];
            let (left, cur) = kids.vals_mut().split_at_mut(idx);
            let sep = match (&mut left[idx - 1], &mut cur[0]) {
                (Node::L(l), Node::L(c)) => {
                    let (k, v) = l.pop().expect("lender non-empty");
                    grow(c, 1);
                    c.insert(0, k, v);
                    k
                }
                (Node::I(l), Node::I(c)) => {
                    // Rotate through the parent separator.
                    let (up, child) = l.pop().expect("lender non-empty");
                    c.keys_mut()[0] = down;
                    grow(c, 1);
                    c.insert(0, Key::MIN, child);
                    up
                }
                _ => unreachable!("siblings at same level share node kind"),
            };
            kids.keys_mut()[idx] = sep;
            return;
        }
        // Try borrowing from the right sibling.
        if idx + 1 < kids.len() && kids.vals()[idx + 1].len() > MIN_DEGREE {
            let down = kids.keys()[idx + 1];
            let (cur, right) = kids.vals_mut().split_at_mut(idx + 1);
            let sep = match (&mut cur[idx], &mut right[0]) {
                (Node::L(c), Node::L(r)) => {
                    let (k, v) = r.remove(0);
                    grow(c, 1);
                    c.push(k, v);
                    r.keys()[0]
                }
                (Node::I(c), Node::I(r)) => {
                    let (_, child) = r.remove(0);
                    grow(c, 1);
                    c.push(down, child);
                    r.keys()[0]
                }
                _ => unreachable!("siblings at same level share node kind"),
            };
            kids.keys_mut()[idx + 1] = sep;
            return;
        }
        // Merge with a sibling (prefer left).
        let merge_left_idx = if idx > 0 { idx - 1 } else { idx };
        let (sep, right) = kids.remove(merge_left_idx + 1);
        match (&mut kids.vals_mut()[merge_left_idx], right) {
            (Node::L(l), Node::L(mut r)) => {
                grow(l, r.len());
                l.append(&mut r);
            }
            (Node::I(l), Node::I(mut r)) => {
                r.keys_mut()[0] = sep;
                grow(l, r.len());
                l.append(&mut r);
            }
            _ => unreachable!("siblings at same level share node kind"),
        }
    }

    /// Smallest entry.
    pub fn first(&self) -> Option<(Key, &V)> {
        let mut n = &self.root;
        loop {
            match n {
                Node::L(l) => return l.keys().first().map(|k| (*k, &l.vals()[0])),
                Node::I(kids) => n = &kids.vals()[0],
            }
        }
    }

    /// Largest entry.
    pub fn last(&self) -> Option<(Key, &V)> {
        let mut n = &self.root;
        loop {
            match n {
                Node::L(l) => return l.keys().iter().zip(l.vals()).last().map(|(k, v)| (*k, v)),
                Node::I(kids) => n = kids.vals().last().expect("non-empty internal"),
            }
        }
    }

    /// Entries with keys in `range`, in ascending order.
    pub fn range(&self, range: KeyRange) -> Vec<(Key, &V)> {
        let mut out = Vec::new();
        self.visit_range(range, |k, v| out.push((k, v)));
        out
    }

    /// Show `visit` every entry with a key in `range`, in ascending order,
    /// where it lies: [`BPlusTree::range`] without the list.
    pub fn visit_range<'a>(&'a self, range: KeyRange, mut visit: impl FnMut(Key, &'a V)) {
        if !range.is_empty() {
            Self::visit_rec(&self.root, &range, &mut visit);
        }
    }

    fn visit_rec<'a>(node: &'a Node<V>, range: &KeyRange, visit: &mut impl FnMut(Key, &'a V)) {
        match node {
            Node::L(l) => {
                let keys = l.keys();
                let start = keys.partition_point(|k| *k < range.start);
                let end = keys.partition_point(|k| *k < range.end);
                for (k, v) in keys[start..end].iter().zip(&l.vals()[start..end]) {
                    visit(*k, v);
                }
            }
            Node::I(kids) => {
                // Children overlapping [start, end): from the child that
                // could contain `start` through the child containing the
                // last key < end.
                let lo = child_index(kids, range.start);
                let hi = kids.keys()[1..].partition_point(|sep| *sep < range.end);
                for c in &kids.vals()[lo..=hi] {
                    Self::visit_rec(c, range, visit);
                }
            }
        }
    }

    /// All entries in ascending key order.
    pub fn iter(&self) -> Vec<(Key, &V)> {
        self.range(KeyRange::all())
    }

    /// What every node holds and what it has room for, as `(level, entries,
    /// room)` in pre-order — so leaves (level 1) come out in key order. An
    /// internal node's entries are its children. Memory diagnostics: a
    /// node's block costs its room, not its entries.
    pub fn node_fill(&self) -> Vec<(usize, usize, usize)> {
        fn walk<V>(node: &Node<V>, level: usize, out: &mut Vec<(usize, usize, usize)>) {
            match node {
                Node::L(l) => out.push((level, l.len(), l.room())),
                Node::I(kids) => {
                    out.push((level, kids.len(), kids.room()));
                    for c in kids.vals() {
                        walk(c, level - 1, out);
                    }
                }
            }
        }
        let mut out = Vec::new();
        walk(&self.root, self.height, &mut out);
        out
    }

    /// Verify structural invariants (tests and debug assertions):
    /// key ordering, separator correctness, node fill, uniform depth, the
    /// kept height against the depth actually walked, and that no node's
    /// block was allocated beyond the fan-out.
    pub fn check_invariants(&self) {
        let depth = Self::check_rec(&self.root, None, None, true);
        assert_eq!(self.height, depth, "kept height");
    }

    fn check_rec(node: &Node<V>, lo: Option<Key>, hi: Option<Key>, is_root: bool) -> usize {
        match node {
            Node::L(l) => {
                let keys = l.keys();
                assert!(keys.windows(2).all(|w| w[0] < w[1]), "leaf keys sorted");
                if !is_root {
                    assert!(l.len() >= MIN_DEGREE, "leaf underfull");
                }
                assert!(l.len() <= MAX_LEAF, "leaf overfull");
                assert!(l.room() <= ROOM, "leaf over-allocated");
                for k in keys {
                    if let Some(lo) = lo {
                        assert!(*k >= lo, "key below subtree bound");
                    }
                    if let Some(hi) = hi {
                        assert!(*k < hi, "key above subtree bound");
                    }
                }
                1
            }
            Node::I(kids) => {
                let seps = &kids.keys()[1..];
                assert!(seps.windows(2).all(|w| w[0] < w[1]), "seps sorted");
                if !is_root {
                    assert!(kids.len() >= MIN_DEGREE, "internal underfull");
                } else {
                    assert!(kids.len() >= 2, "root internal needs 2 children");
                }
                assert!(kids.len() <= MAX_CHILDREN, "internal overfull");
                assert!(kids.room() <= ROOM, "internal over-allocated");
                let mut depth = None;
                for (ci, c) in kids.vals().iter().enumerate() {
                    let clo = if ci == 0 { lo } else { Some(seps[ci - 1]) };
                    let chi = seps.get(ci).copied().or(hi);
                    let d = Self::check_rec(c, clo, chi, false);
                    match depth {
                        None => depth = Some(d),
                        Some(prev) => assert_eq!(prev, d, "uniform depth"),
                    }
                }
                depth.expect("internal has children") + 1
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_small() {
        let mut t = BPlusTree::new();
        assert_eq!(t.insert(Key(5), "five"), None);
        assert_eq!(t.insert(Key(3), "three"), None);
        assert_eq!(t.insert(Key(9), "nine"), None);
        assert_eq!(t.get(Key(3)).0, Some(&"three"));
        assert_eq!(t.get(Key(4)).0, None);
        assert_eq!(t.len(), 3);
        assert_eq!(t.insert(Key(5), "FIVE"), Some("five"));
        assert_eq!(t.len(), 3);
        t.check_invariants();
    }

    #[test]
    fn grows_and_splits() {
        let mut t = BPlusTree::new();
        let n = 10_000u64;
        for i in 0..n {
            // Scatter the keys to exercise non-append insertion.
            let k = (i * 2_654_435_761) % 1_000_003;
            t.insert(Key(k), k);
        }
        t.check_invariants();
        assert!(t.height() >= 3, "10k entries should be a real tree");
        for i in 0..n {
            let k = (i * 2_654_435_761) % 1_000_003;
            assert_eq!(t.get(Key(k)).0, Some(&k));
        }
    }

    #[test]
    fn sequential_insert_then_full_scan_sorted() {
        let mut t = BPlusTree::new();
        for i in 0..2000u64 {
            t.insert(Key(i), i);
        }
        let all = t.iter();
        assert_eq!(all.len(), 2000);
        assert!(all.windows(2).all(|w| w[0].0 < w[1].0));
        t.check_invariants();
    }

    #[test]
    fn range_scan_bounds() {
        let mut t = BPlusTree::new();
        for i in (0..1000u64).step_by(10) {
            t.insert(Key(i), i);
        }
        let r = t.range(KeyRange::new(Key(95), Key(151)));
        let keys: Vec<u64> = r.iter().map(|(k, _)| k.raw()).collect();
        assert_eq!(keys, vec![100, 110, 120, 130, 140, 150]);
        assert!(t.range(KeyRange::new(Key(5), Key(5))).is_empty());
        assert_eq!(t.range(KeyRange::all()).len(), 100);
    }

    #[test]
    fn remove_simple() {
        let mut t = BPlusTree::new();
        for i in 0..10u64 {
            t.insert(Key(i), i);
        }
        assert_eq!(t.remove(Key(5)), Some(5));
        assert_eq!(t.remove(Key(5)), None);
        assert_eq!(t.get(Key(5)).0, None);
        assert_eq!(t.len(), 9);
        t.check_invariants();
    }

    #[test]
    fn remove_everything_both_directions() {
        let mut t = BPlusTree::new();
        let n = 5000u64;
        for i in 0..n {
            t.insert(Key(i), i);
        }
        // Remove ascending the first half, descending the second.
        for i in 0..n / 2 {
            assert_eq!(t.remove(Key(i)), Some(i));
            if i % 512 == 0 {
                t.check_invariants();
            }
        }
        for i in (n / 2..n).rev() {
            assert_eq!(t.remove(Key(i)), Some(i));
            if i % 512 == 0 {
                t.check_invariants();
            }
        }
        assert!(t.is_empty());
        assert_eq!(t.height(), 1);
        t.check_invariants();
    }

    #[test]
    fn interleaved_insert_remove() {
        let mut t = BPlusTree::new();
        for round in 0..5u64 {
            for i in 0..2000u64 {
                t.insert(Key(i * 7 + round), i);
            }
            for i in (0..2000u64).step_by(2) {
                t.remove(Key(i * 7 + round));
            }
            t.check_invariants();
        }
        assert!(!t.is_empty());
    }

    #[test]
    fn first_last() {
        let mut t = BPlusTree::new();
        assert!(t.first().is_none());
        assert!(t.last().is_none());
        for i in [50u64, 10, 90, 30] {
            t.insert(Key(i), i);
        }
        assert_eq!(t.first().unwrap().0, Key(10));
        assert_eq!(t.last().unwrap().0, Key(90));
    }

    #[test]
    fn visit_count_matches_height() {
        let mut t = BPlusTree::new();
        for i in 0..100_000u64 {
            t.insert(Key(i), ());
        }
        let h = t.height();
        let (_, visits) = t.get(Key(54_321));
        assert_eq!(visits, h);
        assert!(h >= 3);
    }

    #[test]
    fn every_value_is_dropped_once() {
        use std::rc::Rc;
        let value = Rc::new(());
        let mut t = BPlusTree::new();
        for i in 0..5_000u64 {
            t.insert(Key((i * 2_654_435_761) % 1_000_003), value.clone());
        }
        for i in (0..5_000u64).step_by(3) {
            assert!(t.remove(Key((i * 2_654_435_761) % 1_000_003)).is_some());
        }
        t.check_invariants();
        let copy = t.clone();
        copy.check_invariants();
        assert_eq!(Rc::strong_count(&value), 1 + 2 * t.len());
        drop((t, copy));
        assert_eq!(Rc::strong_count(&value), 1);
    }

    #[test]
    fn a_clone_fits_its_entries() {
        let mut t = BPlusTree::new();
        let empty = t.clone();
        assert_eq!(empty.node_fill(), [(1, 0, 0)]);
        for i in 0..40u64 {
            t.insert(Key(i), i);
        }
        let copy = t.clone();
        let fill: Vec<(usize, usize)> = copy
            .node_fill()
            .iter()
            .map(|&(_, n, room)| (n, room))
            .collect();
        assert_eq!(fill, [(2, 2), (16, 16), (24, 24)]);
        let mut grown = empty;
        grown.insert(Key(1), 1);
        assert_eq!(grown.node_fill(), [(1, 1, 33)]);
    }

    #[test]
    fn get_mut_updates_in_place() {
        let mut t = BPlusTree::new();
        t.insert(Key(1), 10);
        *t.get_mut(Key(1)).unwrap() = 99;
        assert_eq!(t.get(Key(1)).0, Some(&99));
        assert!(t.get_mut(Key(2)).is_none());
    }
}
