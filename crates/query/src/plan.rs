//! Query plans and tuples.
//!
//! WattDB generates distributed plans on the master: "Almost every query
//! operator can be placed on remote nodes, excluding data access operators
//! which need local access to the DB records" (§3.3). A [`PlanNode`] tree
//! therefore carries an explicit node placement per operator; crossing a
//! placement boundary inserts record shipping, whose cost depends on the
//! operator mode (single-record vs. vectorized volcano) and on buffering
//! (prefetch) operators.

use wattdb_common::{Key, KeyRange, NodeId};

/// A tuple's column values, carried inline: no operator of this engine
/// produces more than [`Values::MAX`] columns, so a tuple owns no heap
/// memory and a pipelining operator passes rows on without allocating
/// any. Reads like a slice (`values[0]`, `values.first()`, `values.get(1)`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Values {
    len: u8,
    cols: [i64; Values::MAX],
}

impl Values {
    /// Most columns a tuple carries.
    pub const MAX: usize = 2;

    /// Keep the first `n` columns (a projection). Dropped columns are
    /// zeroed so equal prefixes compare equal.
    pub fn truncate(&mut self, n: usize) {
        let n = n.min(self.len as usize);
        self.cols[n..].fill(0);
        self.len = n as u8;
    }
}

impl<const N: usize> From<[i64; N]> for Values {
    fn from(given: [i64; N]) -> Self {
        const { assert!(N <= Values::MAX, "more columns than a tuple carries") };
        let mut cols = [0; Values::MAX];
        cols[..N].copy_from_slice(&given);
        Self { len: N as u8, cols }
    }
}

impl std::ops::Deref for Values {
    type Target = [i64];
    fn deref(&self) -> &[i64] {
        &self.cols[..self.len as usize]
    }
}

/// A tuple flowing between operators. `width` is the logical byte width
/// used for network/memory costing (columns are carried compactly).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Tuple {
    /// Primary key of the source record.
    pub key: Key,
    /// Column values (projected subsets keep a prefix).
    pub values: Values,
    /// Logical width in bytes after projections.
    pub width: u32,
}

/// A source of tuples for table scans, decoupled from the storage engine.
/// The cluster layer adapts segments to this; benches use
/// [`SyntheticTable`].
pub trait RowSource {
    /// Pages the scan will touch (drives buffer/disk costs).
    fn page_count(&self) -> u64;
    /// Push every tuple into `out`, in storage order.
    fn push_rows(&self, out: &mut dyn FnMut(Tuple));
}

/// A deterministic in-memory table for micro-benchmarks (Fig. 1/2).
#[derive(Debug, Clone)]
pub struct SyntheticTable {
    rows: u64,
    width: u32,
    rows_per_page: u64,
    /// Restrict to a key range (simulates segment pruning).
    range: Option<KeyRange>,
}

impl SyntheticTable {
    /// `rows` tuples of `width` logical bytes, `rows_per_page` per page.
    pub fn new(rows: u64, width: u32, rows_per_page: u64) -> Self {
        assert!(rows_per_page > 0);
        Self {
            rows,
            width,
            rows_per_page,
            range: None,
        }
    }

    /// Limit the scan to `range` (pruned scan).
    pub fn with_range(mut self, range: KeyRange) -> Self {
        self.range = Some(range);
        self
    }

    /// Total tuples the table yields.
    pub fn row_count(&self) -> u64 {
        match self.range {
            None => self.rows,
            Some(r) => {
                let lo = r.start.raw().min(self.rows);
                let hi = r.end.raw().min(self.rows);
                hi - lo
            }
        }
    }
}

impl RowSource for SyntheticTable {
    fn page_count(&self) -> u64 {
        self.row_count().div_ceil(self.rows_per_page)
    }

    fn push_rows(&self, out: &mut dyn FnMut(Tuple)) {
        let (lo, hi) = match self.range {
            None => (0, self.rows),
            Some(r) => (r.start.raw().min(self.rows), r.end.raw().min(self.rows)),
        };
        for i in lo..hi {
            out(Tuple {
                key: Key(i),
                // Deterministic pseudo-columns: value and a group column.
                values: Values::from([
                    (i as i64).wrapping_mul(2_654_435_761) % 1000,
                    (i % 16) as i64,
                ]),
                width: self.width,
            });
        }
    }
}

/// Aggregate function for group-by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// Count tuples per group.
    Count,
    /// Sum `values[0]` per group.
    Sum,
}

/// A physical plan node. `on` is the node executing the operator; a child
/// placed elsewhere implies record shipping at the boundary. `'a` is what
/// a scan's source borrows — a segment's index, read in place — and
/// `'static` for a source that owns its rows.
pub enum PlanNode<'a> {
    /// Leaf: scan a table/partition. Always placed on the data's node.
    Scan {
        /// The data.
        source: Box<dyn RowSource + 'a>,
        /// Node holding the data.
        on: NodeId,
    },
    /// Keep tuples whose `values[0] >= threshold` (simple comparable
    /// predicate; enough to model selectivity).
    Filter {
        /// Input operator.
        input: Box<PlanNode<'a>>,
        /// Predicate threshold.
        threshold: i64,
        /// Placement.
        on: NodeId,
    },
    /// Narrow tuples to `keep_width` bytes (pipelining operator).
    Project {
        /// Input operator.
        input: Box<PlanNode<'a>>,
        /// Output width.
        keep_width: u32,
        /// Placement.
        on: NodeId,
    },
    /// Sort by key (blocking operator; needs workspace memory).
    Sort {
        /// Input operator.
        input: Box<PlanNode<'a>>,
        /// Placement.
        on: NodeId,
    },
    /// Hash group-by on `values[1]` (blocking).
    GroupAgg {
        /// Input operator.
        input: Box<PlanNode<'a>>,
        /// Aggregate.
        func: AggFunc,
        /// Placement.
        on: NodeId,
    },
    /// Buffering operator: an asynchronous prefetch proxy placed on the
    /// *producer's* node that hides downstream shipping latency (§3.3).
    Buffer {
        /// Input operator.
        input: Box<PlanNode<'a>>,
    },
    /// Stop after `n` tuples.
    Limit {
        /// Input operator.
        input: Box<PlanNode<'a>>,
        /// Row cap.
        n: u64,
    },
}

impl PlanNode<'_> {
    /// The node this operator runs on (Buffer runs with its input; Limit
    /// with its input's consumer side).
    pub fn placement(&self) -> NodeId {
        match self {
            PlanNode::Scan { on, .. }
            | PlanNode::Filter { on, .. }
            | PlanNode::Project { on, .. }
            | PlanNode::Sort { on, .. }
            | PlanNode::GroupAgg { on, .. } => *on,
            PlanNode::Buffer { input } | PlanNode::Limit { input, .. } => input.placement(),
        }
    }

    /// True for operators that must materialize their input before emitting
    /// (candidates for offloading, §3.3).
    pub fn is_blocking(&self) -> bool {
        matches!(self, PlanNode::Sort { .. } | PlanNode::GroupAgg { .. })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows_of(source: &dyn RowSource) -> Vec<Tuple> {
        let mut rows = Vec::new();
        source.push_rows(&mut |t| rows.push(t));
        rows
    }

    #[test]
    fn synthetic_table_shape() {
        let t = SyntheticTable::new(100, 200, 10);
        assert_eq!(t.row_count(), 100);
        assert_eq!(t.page_count(), 10);
        let rows = rows_of(&t);
        assert_eq!(rows.len(), 100);
        assert_eq!(rows[5].key, Key(5));
        assert_eq!(rows[5].width, 200);
    }

    #[test]
    fn pruned_scan() {
        let t = SyntheticTable::new(100, 200, 10).with_range(KeyRange::new(Key(20), Key(50)));
        assert_eq!(t.row_count(), 30);
        assert_eq!(t.page_count(), 3);
        let rows = rows_of(&t);
        assert_eq!(rows.first().unwrap().key, Key(20));
        assert_eq!(rows.last().unwrap().key, Key(49));
    }

    #[test]
    fn placement_traverses_wrappers() {
        let scan = PlanNode::Scan {
            source: Box::new(SyntheticTable::new(10, 8, 10)),
            on: NodeId(3),
        };
        let buffered = PlanNode::Buffer {
            input: Box::new(scan),
        };
        assert_eq!(buffered.placement(), NodeId(3));
        let sort = PlanNode::Sort {
            input: Box::new(buffered),
            on: NodeId(4),
        };
        assert_eq!(sort.placement(), NodeId(4));
        assert!(sort.is_blocking());
    }

    #[test]
    fn rows_deterministic() {
        let a = rows_of(&SyntheticTable::new(50, 8, 10));
        let b = rows_of(&SyntheticTable::new(50, 8, 10));
        assert_eq!(a, b);
    }
}
