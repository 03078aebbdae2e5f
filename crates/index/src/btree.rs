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
//! **A node's vectors hold `MAX + 1` entries at most** (a node overflows
//! by one entry before it splits) and are never allocated larger. A fresh
//! root reserves that room at once. A split hands the node's existing
//! buffer to the half the new entry landed in — the half that keeps
//! filling: TPC-C's inserts append per district, so it is nearly always
//! the upper one — and copies the half left behind into a vector that fits
//! it exactly: after a sequential load every leaf but the last of each run
//! is half full for good, and keeps 16 entries in room for 16, not for 33.
//! Split point, separators and `height()` do not depend on which half got
//! which buffer. A left-behind half that does grow again (a random insert,
//! a borrow, a merge) regrows once, straight to `MAX + 1` (`grow`).

use std::convert::Infallible;

use wattdb_common::{Key, KeyRange};

/// Minimum number of entries in a non-root leaf, and minimum number of
/// children in a non-root internal node. Fanout is `2 * MIN_DEGREE`.
const MIN_DEGREE: usize = 16;
const MAX_LEAF: usize = 2 * MIN_DEGREE; // max entries per leaf
const MAX_CHILDREN: usize = 2 * MIN_DEGREE; // max children per internal

#[derive(Debug, Clone)]
struct Leaf<V> {
    keys: Vec<Key>,
    vals: Vec<V>,
}

#[derive(Debug, Clone)]
struct Internal<V> {
    /// `seps[i]` is the smallest key reachable through `children[i + 1]`.
    seps: Vec<Key>,
    children: Vec<Node<V>>,
}

#[derive(Debug, Clone)]
enum Node<V> {
    L(Leaf<V>),
    I(Internal<V>),
}

enum InsertOutcome<V> {
    /// Key existed; previous value returned.
    Replaced(V),
    /// Inserted without split.
    Done,
    /// Node split: push `(separator, right sibling)` up.
    Split(Key, Node<V>),
}

/// Room of a leaf's vectors and of an internal node's children: the
/// fan-out and the one entry of overflow. (`seps` is one shorter.)
const ROOM: usize = MAX_LEAF + 1;

/// Make sure `extra` more entries fit `v`, a node vector that holds at
/// most `room`: a vector short of room goes straight to `room`, where
/// `Vec`'s doubling would overshoot it (17 → 34).
fn grow<T>(v: &mut Vec<T>, extra: usize, room: usize) {
    if v.capacity() - v.len() < extra {
        v.reserve_exact(room - v.len());
    }
}

/// Split an overflowing node's vector: `v` keeps `v[..keep]`, `v[at..]`
/// is returned, and what lies between (the separator an internal split
/// sends up) is dropped. The half the new entry landed in — the upper one
/// if `upper_grows` — gets the existing buffer, the other one a vector of
/// exactly its length: one heap call either way.
fn split_halves<T>(v: &mut Vec<T>, keep: usize, at: usize, upper_grows: bool) -> Vec<T> {
    if upper_grows {
        let mut lower = Vec::with_capacity(keep);
        lower.extend(v.drain(..at).take(keep));
        std::mem::replace(v, lower)
    } else {
        let upper = v.split_off(at);
        v.truncate(keep);
        upper
    }
}

impl<V> Node<V> {
    fn new_leaf() -> Self {
        Node::L(Leaf {
            keys: Vec::with_capacity(ROOM),
            vals: Vec::with_capacity(ROOM),
        })
    }

    fn is_underflowed(&self) -> bool {
        match self {
            Node::L(l) => l.keys.len() < MIN_DEGREE,
            Node::I(i) => i.children.len() < MIN_DEGREE,
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
            root: Node::new_leaf(),
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
                    return match l.keys.binary_search(&key) {
                        Ok(i) => (Some(&l.vals[i]), visits),
                        Err(_) => (None, visits),
                    };
                }
                Node::I(i) => {
                    let idx = i.seps.partition_point(|s| *s <= key);
                    n = &i.children[idx];
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
                    return match l.keys.binary_search(&key) {
                        Ok(i) => Some(&mut l.vals[i]),
                        Err(_) => None,
                    };
                }
                Node::I(i) => {
                    let idx = i.seps.partition_point(|s| *s <= key);
                    n = &mut i.children[idx];
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
                let mut root = Internal {
                    seps: Vec::with_capacity(ROOM - 1),
                    children: Vec::with_capacity(ROOM),
                };
                root.seps.push(sep);
                root.children.push(right);
                let old_root = std::mem::replace(&mut self.root, Node::I(root));
                if let Node::I(root) = &mut self.root {
                    root.children.insert(0, old_root);
                }
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
            Node::L(l) => match l.keys.binary_search(&key) {
                Ok(i) => {
                    let value = make(Some(&l.vals[i]))?;
                    InsertOutcome::Replaced(std::mem::replace(&mut l.vals[i], value))
                }
                Err(i) => {
                    let value = make(None)?;
                    grow(&mut l.keys, 1, ROOM);
                    grow(&mut l.vals, 1, ROOM);
                    l.keys.insert(i, key);
                    l.vals.insert(i, value);
                    if l.keys.len() > MAX_LEAF {
                        let mid = l.keys.len() / 2;
                        let right = Leaf {
                            keys: split_halves(&mut l.keys, mid, mid, i >= mid),
                            vals: split_halves(&mut l.vals, mid, mid, i >= mid),
                        };
                        let sep = right.keys[0];
                        InsertOutcome::Split(sep, Node::L(right))
                    } else {
                        InsertOutcome::Done
                    }
                }
            },
            Node::I(internal) => {
                let idx = internal.seps.partition_point(|s| *s <= key);
                match Self::upsert_rec(&mut internal.children[idx], key, make)? {
                    InsertOutcome::Split(sep, right) => {
                        grow(&mut internal.seps, 1, ROOM - 1);
                        grow(&mut internal.children, 1, ROOM);
                        internal.seps.insert(idx, sep);
                        internal.children.insert(idx + 1, right);
                        if internal.children.len() > MAX_CHILDREN {
                            // Split internal node: middle separator moves up.
                            let mid = internal.seps.len() / 2;
                            let up = internal.seps[mid];
                            let upper_grows = idx >= mid;
                            let Internal { seps, children } = internal;
                            let right = Internal {
                                seps: split_halves(seps, mid, mid + 1, upper_grows),
                                children: split_halves(children, mid + 1, mid + 1, upper_grows),
                            };
                            InsertOutcome::Split(up, Node::I(right))
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
        if let Node::I(i) = &mut self.root {
            if i.children.len() == 1 {
                let child = i.children.pop().expect("one child");
                self.root = child;
                self.height -= 1;
            }
        }
        removed
    }

    fn remove_rec(node: &mut Node<V>, key: Key) -> Option<V> {
        match node {
            Node::L(l) => match l.keys.binary_search(&key) {
                Ok(i) => {
                    l.keys.remove(i);
                    Some(l.vals.remove(i))
                }
                Err(_) => None,
            },
            Node::I(internal) => {
                let idx = internal.seps.partition_point(|s| *s <= key);
                let removed = Self::remove_rec(&mut internal.children[idx], key)?;
                if internal.children[idx].is_underflowed() {
                    Self::fix_underflow(internal, idx);
                }
                Some(removed)
            }
        }
    }

    /// Restore the invariant at `children[idx]` by borrowing from a sibling
    /// or merging with one.
    fn fix_underflow(parent: &mut Internal<V>, idx: usize) {
        // Try borrowing from the left sibling.
        if idx > 0 && Self::can_lend(&parent.children[idx - 1]) {
            let (left, rest) = parent.children.split_at_mut(idx);
            let left = &mut left[idx - 1];
            let cur = &mut rest[0];
            match (left, cur) {
                (Node::L(l), Node::L(c)) => {
                    let k = l.keys.pop().expect("lender non-empty");
                    let v = l.vals.pop().expect("lender non-empty");
                    grow(&mut c.keys, 1, ROOM);
                    grow(&mut c.vals, 1, ROOM);
                    c.keys.insert(0, k);
                    c.vals.insert(0, v);
                    parent.seps[idx - 1] = c.keys[0];
                }
                (Node::I(l), Node::I(c)) => {
                    let child = l.children.pop().expect("lender non-empty");
                    let sep = l.seps.pop().expect("lender non-empty");
                    // Rotate through the parent separator.
                    let down = std::mem::replace(&mut parent.seps[idx - 1], sep);
                    grow(&mut c.seps, 1, ROOM - 1);
                    grow(&mut c.children, 1, ROOM);
                    c.seps.insert(0, down);
                    c.children.insert(0, child);
                }
                _ => unreachable!("siblings at same level share node kind"),
            }
            return;
        }
        // Try borrowing from the right sibling.
        if idx + 1 < parent.children.len() && Self::can_lend(&parent.children[idx + 1]) {
            let (cur_part, right_part) = parent.children.split_at_mut(idx + 1);
            let cur = &mut cur_part[idx];
            let right = &mut right_part[0];
            match (cur, right) {
                (Node::L(c), Node::L(r)) => {
                    let k = r.keys.remove(0);
                    let v = r.vals.remove(0);
                    grow(&mut c.keys, 1, ROOM);
                    grow(&mut c.vals, 1, ROOM);
                    c.keys.push(k);
                    c.vals.push(v);
                    parent.seps[idx] = r.keys[0];
                }
                (Node::I(c), Node::I(r)) => {
                    let child = r.children.remove(0);
                    let sep = r.seps.remove(0);
                    let down = std::mem::replace(&mut parent.seps[idx], sep);
                    grow(&mut c.seps, 1, ROOM - 1);
                    grow(&mut c.children, 1, ROOM);
                    c.seps.push(down);
                    c.children.push(child);
                }
                _ => unreachable!("siblings at same level share node kind"),
            }
            return;
        }
        // Merge with a sibling (prefer left).
        let merge_left_idx = if idx > 0 { idx - 1 } else { idx };
        let sep = parent.seps.remove(merge_left_idx);
        let right = parent.children.remove(merge_left_idx + 1);
        let left = &mut parent.children[merge_left_idx];
        match (left, right) {
            (Node::L(l), Node::L(mut r)) => {
                grow(&mut l.keys, r.keys.len(), ROOM);
                grow(&mut l.vals, r.vals.len(), ROOM);
                l.keys.append(&mut r.keys);
                l.vals.append(&mut r.vals);
            }
            (Node::I(l), Node::I(mut r)) => {
                grow(&mut l.seps, 1 + r.seps.len(), ROOM - 1);
                grow(&mut l.children, r.children.len(), ROOM);
                l.seps.push(sep);
                l.seps.append(&mut r.seps);
                l.children.append(&mut r.children);
            }
            _ => unreachable!("siblings at same level share node kind"),
        }
    }

    fn can_lend(n: &Node<V>) -> bool {
        match n {
            Node::L(l) => l.keys.len() > MIN_DEGREE,
            Node::I(i) => i.children.len() > MIN_DEGREE,
        }
    }

    /// Smallest entry.
    pub fn first(&self) -> Option<(Key, &V)> {
        let mut n = &self.root;
        loop {
            match n {
                Node::L(l) => return l.keys.first().map(|k| (*k, &l.vals[0])),
                Node::I(i) => n = &i.children[0],
            }
        }
    }

    /// Largest entry.
    pub fn last(&self) -> Option<(Key, &V)> {
        let mut n = &self.root;
        loop {
            match n {
                Node::L(l) => {
                    return l
                        .keys
                        .last()
                        .map(|k| (*k, l.vals.last().expect("parallel vecs")));
                }
                Node::I(i) => n = i.children.last().expect("non-empty internal"),
            }
        }
    }

    /// Entries with keys in `range`, in ascending order.
    pub fn range(&self, range: KeyRange) -> Vec<(Key, &V)> {
        let mut out = Vec::new();
        if !range.is_empty() {
            Self::range_rec(&self.root, &range, &mut out);
        }
        out
    }

    fn range_rec<'a>(node: &'a Node<V>, range: &KeyRange, out: &mut Vec<(Key, &'a V)>) {
        match node {
            Node::L(l) => {
                let start = l.keys.partition_point(|k| *k < range.start);
                for i in start..l.keys.len() {
                    if l.keys[i] >= range.end {
                        break;
                    }
                    out.push((l.keys[i], &l.vals[i]));
                }
            }
            Node::I(internal) => {
                // Children overlapping [start, end): from the child that
                // could contain `start` through the child containing the
                // last key < end.
                let lo = internal.seps.partition_point(|s| *s <= range.start);
                let hi = internal.seps.partition_point(|s| *s < range.end);
                for c in &internal.children[lo..=hi] {
                    Self::range_rec(c, range, out);
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
    /// internal node's entries are its children. Memory diagnostics: the
    /// tree's vectors cost their room, not their entries.
    pub fn node_fill(&self) -> Vec<(usize, usize, usize)> {
        fn walk<V>(node: &Node<V>, level: usize, out: &mut Vec<(usize, usize, usize)>) {
            match node {
                Node::L(l) => out.push((level, l.keys.len(), l.keys.capacity())),
                Node::I(i) => {
                    out.push((level, i.children.len(), i.children.capacity()));
                    for c in &i.children {
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
    /// kept height against the depth actually walked, and that no node
    /// vector was allocated beyond the fan-out.
    pub fn check_invariants(&self) {
        let depth = Self::check_rec(&self.root, None, None, true);
        assert_eq!(self.height, depth, "kept height");
    }

    fn check_rec(node: &Node<V>, lo: Option<Key>, hi: Option<Key>, is_root: bool) -> usize {
        match node {
            Node::L(l) => {
                assert_eq!(l.keys.len(), l.vals.len(), "parallel vec lengths");
                assert!(l.keys.windows(2).all(|w| w[0] < w[1]), "leaf keys sorted");
                if !is_root {
                    assert!(l.keys.len() >= MIN_DEGREE, "leaf underfull");
                }
                assert!(l.keys.len() <= MAX_LEAF, "leaf overfull");
                assert!(l.keys.capacity() <= ROOM, "leaf keys over-allocated");
                // A vector of zero-sized values allocates nothing.
                assert!(
                    std::mem::size_of::<V>() == 0 || l.vals.capacity() <= ROOM,
                    "leaf values over-allocated"
                );
                for k in &l.keys {
                    if let Some(lo) = lo {
                        assert!(*k >= lo, "key below subtree bound");
                    }
                    if let Some(hi) = hi {
                        assert!(*k < hi, "key above subtree bound");
                    }
                }
                1
            }
            Node::I(i) => {
                assert_eq!(i.children.len(), i.seps.len() + 1, "child/sep count");
                assert!(i.seps.windows(2).all(|w| w[0] < w[1]), "seps sorted");
                if !is_root {
                    assert!(i.children.len() >= MIN_DEGREE, "internal underfull");
                } else {
                    assert!(i.children.len() >= 2, "root internal needs 2 children");
                }
                assert!(i.children.len() <= MAX_CHILDREN, "internal overfull");
                assert!(i.seps.capacity() < ROOM, "separators over-allocated");
                assert!(i.children.capacity() <= ROOM, "children over-allocated");
                let mut depth = None;
                for (ci, c) in i.children.iter().enumerate() {
                    let clo = if ci == 0 { lo } else { Some(i.seps[ci - 1]) };
                    let chi = if ci == i.seps.len() {
                        hi
                    } else {
                        Some(i.seps[ci])
                    };
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
    fn get_mut_updates_in_place() {
        let mut t = BPlusTree::new();
        t.insert(Key(1), 10);
        *t.get_mut(Key(1)).unwrap() = 99;
        assert_eq!(t.get(Key(1)).0, Some(&99));
        assert!(t.get_mut(Key(2)).is_none());
    }
}
