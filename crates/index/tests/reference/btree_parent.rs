//! The B+-tree as it was before a split learned which half keeps the
//! node's buffer (`split_upper`: the upper half always gets a fresh
//! full-fan-out vector, the lower half always keeps the old one), cut down
//! to what `prop_btree` drives. Test-only reference: the tree in
//! `src/btree.rs` must keep this one's shape — same leaves, same entries
//! in each, same height — after every operation, because the engine
//! charges `height()` node visits per record operation.

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

/// The upper half of an overflowing node's vector, in a vector with room
/// for a full node: `split_off` would size it to the half it holds and the
/// next inserts would regrow it.
fn split_upper<T>(v: &mut Vec<T>, at: usize, room: usize) -> Vec<T> {
    let mut upper = Vec::with_capacity(room);
    upper.extend(v.drain(at..));
    upper
}

impl<V> Node<V> {
    fn new_leaf() -> Self {
        Node::L(Leaf {
            keys: Vec::with_capacity(MAX_LEAF + 1),
            vals: Vec::with_capacity(MAX_LEAF + 1),
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
                    seps: Vec::with_capacity(MAX_CHILDREN),
                    children: Vec::with_capacity(MAX_CHILDREN + 1),
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
                    l.keys.insert(i, key);
                    l.vals.insert(i, value);
                    if l.keys.len() > MAX_LEAF {
                        let mid = l.keys.len() / 2;
                        let right = Leaf {
                            keys: split_upper(&mut l.keys, mid, MAX_LEAF + 1),
                            vals: split_upper(&mut l.vals, mid, MAX_LEAF + 1),
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
                        internal.seps.insert(idx, sep);
                        internal.children.insert(idx + 1, right);
                        if internal.children.len() > MAX_CHILDREN {
                            // Split internal node: middle separator moves up.
                            let mid = internal.seps.len() / 2;
                            let up = internal.seps[mid];
                            let right_seps = split_upper(&mut internal.seps, mid + 1, MAX_CHILDREN);
                            internal.seps.pop(); // `up` leaves this node
                            let right_children =
                                split_upper(&mut internal.children, mid + 1, MAX_CHILDREN + 1);
                            let right = Internal {
                                seps: right_seps,
                                children: right_children,
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
                    c.keys.insert(0, k);
                    c.vals.insert(0, v);
                    parent.seps[idx - 1] = c.keys[0];
                }
                (Node::I(l), Node::I(c)) => {
                    let child = l.children.pop().expect("lender non-empty");
                    let sep = l.seps.pop().expect("lender non-empty");
                    // Rotate through the parent separator.
                    let down = std::mem::replace(&mut parent.seps[idx - 1], sep);
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
                    c.keys.push(k);
                    c.vals.push(v);
                    parent.seps[idx] = r.keys[0];
                }
                (Node::I(c), Node::I(r)) => {
                    let child = r.children.remove(0);
                    let sep = r.seps.remove(0);
                    let down = std::mem::replace(&mut parent.seps[idx], sep);
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
                l.keys.append(&mut r.keys);
                l.vals.append(&mut r.vals);
            }
            (Node::I(l), Node::I(mut r)) => {
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

    /// Entries per leaf, in key order.
    pub fn leaf_lens(&self) -> Vec<usize> {
        fn walk<V>(node: &Node<V>, out: &mut Vec<usize>) {
            match node {
                Node::L(l) => out.push(l.keys.len()),
                Node::I(i) => i.children.iter().for_each(|c| walk(c, out)),
            }
        }
        let mut out = Vec::new();
        walk(&self.root, &mut out);
        out
    }
}
