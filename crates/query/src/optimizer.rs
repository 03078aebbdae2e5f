//! Operator placement: the heart of §3.3's offloading policy.
//!
//! "The query optimizer tries to put pipelining operators on the same node
//! to minimize latencies. [...] In contrast, blocking operators may be
//! placed on remote nodes to equally distribute query processing. Blocking
//! operators generally consume more resources (CPU, main memory) and are
//! therefore good candidates for offloading."
//!
//! The placer walks a plan bottom-up: pipelining operators are pinned to
//! their child's node; each blocking operator is offloaded to the
//! least-utilized node when the data node is hot, and a buffering operator
//! is inserted at the shipping boundary to hide transfer latency.

use wattdb_common::NodeId;

use crate::plan::PlanNode;

/// Placement policy knobs.
#[derive(Debug, Clone, Copy)]
pub struct PlacementPolicy {
    /// Offload blocking operators when the data node's utilization exceeds
    /// this bound (§3.4 uses 80 % as the CPU ceiling).
    pub offload_threshold: f64,
    /// Insert buffering (prefetch) operators at remote boundaries.
    pub use_buffer_ops: bool,
}

impl Default for PlacementPolicy {
    fn default() -> Self {
        Self {
            offload_threshold: 0.8,
            use_buffer_ops: true,
        }
    }
}

/// Per-node utilization snapshot the placer consults.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NodeLoad {
    /// The node.
    pub node: NodeId,
    /// CPU utilization in \[0,1\].
    pub cpu: f64,
}

/// Re-place a plan in place. Pipelining operators stick with their child;
/// blocking operators are offloaded to the least-loaded *other* node when
/// the child's node is above the threshold and a meaningfully cooler node
/// exists.
pub fn place(plan: &mut PlanNode, loads: &[NodeLoad], policy: &PlacementPolicy) {
    walk(plan, loads, policy);
}

fn load_of(loads: &[NodeLoad], node: NodeId) -> f64 {
    loads
        .iter()
        .find(|l| l.node == node)
        .map(|l| l.cpu)
        .unwrap_or(0.0)
}

fn coolest_other(loads: &[NodeLoad], not: NodeId) -> Option<NodeLoad> {
    loads
        .iter()
        .filter(|l| l.node != not)
        .min_by(|a, b| a.cpu.partial_cmp(&b.cpu).expect("no NaN loads"))
        .copied()
}

fn walk(plan: &mut PlanNode, loads: &[NodeLoad], policy: &PlacementPolicy) {
    match plan {
        PlanNode::Scan { .. } => {}
        PlanNode::Filter { input, on, .. } | PlanNode::Project { input, on, .. } => {
            walk(input, loads, policy);
            // Pipelining: colocate with the child.
            *on = input.placement();
        }
        PlanNode::Sort { input, on } => {
            walk(input, loads, policy);
            *on = place_blocking(input, loads, policy);
        }
        PlanNode::GroupAgg { input, on, .. } => {
            walk(input, loads, policy);
            *on = place_blocking(input, loads, policy);
        }
        PlanNode::Buffer { input } | PlanNode::Limit { input, .. } => {
            walk(input, loads, policy);
        }
    }
}

fn place_blocking(
    input: &mut Box<PlanNode>,
    loads: &[NodeLoad],
    policy: &PlacementPolicy,
) -> NodeId {
    let data_node = input.placement();
    let data_load = load_of(loads, data_node);
    let target = match coolest_other(loads, data_node) {
        Some(c) if data_load > policy.offload_threshold && c.cpu < data_load - 0.1 => c.node,
        _ => data_node,
    };
    if target != data_node && policy.use_buffer_ops {
        insert_buffer(input);
    }
    target
}

/// Wrap `input` in a Buffer proxy unless one is already there.
fn insert_buffer(input: &mut Box<PlanNode>) {
    if matches!(**input, PlanNode::Buffer { .. }) {
        return;
    }
    let dummy = PlanNode::Scan {
        source: Box::new(crate::plan::SyntheticTable::new(0, 1, 1)),
        on: NodeId(0),
    };
    let inner = std::mem::replace(&mut **input, dummy);
    **input = PlanNode::Buffer {
        input: Box::new(inner),
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{AggFunc, SyntheticTable};

    fn scan_on(node: u16) -> PlanNode<'static> {
        PlanNode::Scan {
            source: Box::new(SyntheticTable::new(100, 100, 10)),
            on: NodeId(node),
        }
    }

    fn loads(pairs: &[(u16, f64)]) -> Vec<NodeLoad> {
        pairs
            .iter()
            .map(|&(n, cpu)| NodeLoad {
                node: NodeId(n),
                cpu,
            })
            .collect()
    }

    #[test]
    fn pipelining_ops_colocate_with_child() {
        let mut plan = PlanNode::Project {
            input: Box::new(scan_on(3)),
            keep_width: 10,
            on: NodeId(0), // wrong on purpose
        };
        place(
            &mut plan,
            &loads(&[(0, 0.0), (3, 0.95)]),
            &PlacementPolicy::default(),
        );
        assert_eq!(plan.placement(), NodeId(3), "projection follows the data");
    }

    #[test]
    fn blocking_op_offloaded_from_hot_node() {
        let mut plan = PlanNode::Sort {
            input: Box::new(scan_on(1)),
            on: NodeId(1),
        };
        place(
            &mut plan,
            &loads(&[(1, 0.95), (2, 0.10)]),
            &PlacementPolicy::default(),
        );
        assert_eq!(plan.placement(), NodeId(2), "sort offloaded to cool node");
        // And a buffering operator was inserted at the boundary.
        if let PlanNode::Sort { input, .. } = &plan {
            assert!(matches!(**input, PlanNode::Buffer { .. }));
        } else {
            panic!("sort expected");
        }
    }

    #[test]
    fn blocking_op_stays_local_when_cool() {
        let mut plan = PlanNode::Sort {
            input: Box::new(scan_on(1)),
            on: NodeId(9),
        };
        place(
            &mut plan,
            &loads(&[(1, 0.30), (2, 0.10)]),
            &PlacementPolicy::default(),
        );
        assert_eq!(
            plan.placement(),
            NodeId(1),
            "offloading at low utilization is inferior to local processing"
        );
    }

    #[test]
    fn no_offload_when_everyone_is_hot() {
        let mut plan = PlanNode::GroupAgg {
            input: Box::new(scan_on(1)),
            func: AggFunc::Count,
            on: NodeId(1),
        };
        place(
            &mut plan,
            &loads(&[(1, 0.95), (2, 0.93)]),
            &PlacementPolicy::default(),
        );
        assert_eq!(plan.placement(), NodeId(1), "no meaningfully cooler node");
    }

    #[test]
    fn buffer_insertion_respects_policy() {
        let mut plan = PlanNode::Sort {
            input: Box::new(scan_on(1)),
            on: NodeId(1),
        };
        let policy = PlacementPolicy {
            use_buffer_ops: false,
            ..Default::default()
        };
        place(&mut plan, &loads(&[(1, 0.95), (2, 0.05)]), &policy);
        if let PlanNode::Sort { input, .. } = &plan {
            assert!(!matches!(**input, PlanNode::Buffer { .. }));
        } else {
            panic!("sort expected");
        }
    }
}
