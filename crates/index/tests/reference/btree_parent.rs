//! The B+-tree as it was before a node became one heap block: a leaf is
//! two vectors (`keys`, `vals`) and an internal node two more (`seps`,
//! `children`, the children held inline), so a split costs two heap calls.
//! Cut down to what `prop_btree` drives. Test-only reference: the tree in
//! `src/btree.rs` must keep this one's shape — same entries, the same
//! entries and room in every node of every level, same height — after
//! every operation, because the engine charges `height()` node visits per
//! record operation.

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

impl<V> BPlusTree<V> {
    /// An empty tree.
    pub fn new() -> Self {
        Self {
            root: Node::new_leaf(),
            len: 0,
            height: 1,
        }
    }

    /// Height of the tree: 1 for a lone leaf. Lookups visit `height()`
    /// nodes; the engine charges that many index-node accesses.
    pub fn height(&self) -> usize {
        self.height
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
                let start = l.keys.partition_point(|k| *k < range.start);
                let end = l.keys.partition_point(|k| *k < range.end);
                for i in start..end {
                    visit(l.keys[i], &l.vals[i]);
                }
            }
            Node::I(internal) => {
                // Children overlapping [start, end): from the child that
                // could contain `start` through the child containing the
                // last key < end.
                let lo = internal.seps.partition_point(|s| *s <= range.start);
                let hi = internal.seps.partition_point(|s| *s < range.end);
                for c in &internal.children[lo..=hi] {
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
}
