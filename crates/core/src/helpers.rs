//! Fig. 8 helper nodes, one owner: a helper is "used for log shipping and
//! provision of additional buffer space" while a rebalance runs, and
//! "after rebalancing, the additional nodes should be turned off again".
//! Helpers are scripted: a [`crate::migration::ControlPlan`] names them
//! next to the rebalance they serve ([`HelperAttach::manual`]), and the
//! rebalance's completion releases every one of them.
//! [`Helpers`] holds the source → helper wires (each with its shipping
//! cursor), the attached members, the bytes shipped to them, and the
//! response in progress — its `helpers` span and the relief baseline.
//! [`attach`] and [`detach`] are the only writers of the wiring and the
//! only callers of `set_remote_capacity`; [`crate::migration::run`], the
//! mover's completion and [`Cluster::fail_node`] all go through them.

use wattdb_common::{Lsn, NodeId, SimTime};
use wattdb_telemetry::SpanId;
use wattdb_wal::LogManager;

use crate::cluster::{Cluster, Lifecycle, NodeRuntime};
use crate::migration::{can_suspend, names};

/// Helpers to wire to their sources (Fig. 8): each source ships its log to
/// its helper and extends its buffer pool into the helper's DRAM.
#[derive(Debug, Clone)]
pub struct HelperAttach {
    /// Every node joining the deployment, paired or not: all of them power
    /// on and are tracked until detached.
    pub helpers: Vec<NodeId>,
    /// `(source, helper)` wirings.
    pub pairs: Vec<(NodeId, NodeId)>,
}

impl HelperAttach {
    /// A scripted Fig. 8 list: `sources[i]` pairs with
    /// `helpers[i % helpers.len()]`.
    pub fn manual(sources: &[NodeId], helpers: &[NodeId]) -> Self {
        HelperAttach {
            helpers: helpers.to_vec(),
            pairs: (sources.iter().copied())
                .zip(helpers.iter().copied().cycle())
                .collect(),
        }
    }
}

/// A source shipping its log flushes to `helper` and reading evicted pages
/// back from its DRAM.
#[derive(Debug, Clone, Copy)]
struct Wire {
    source: NodeId,
    helper: NodeId,
    /// The source's log is shipped through here: set to the log's end at
    /// attach and at every flush, so never below the durable LSN.
    shipped: Lsn,
}

/// The response in progress (first attach to last detach): its span,
/// which carries the attach time, and the counters realized relief is
/// measured against.
#[derive(Debug, Clone, Copy)]
struct Response {
    span: SpanId,
    shipped_bytes: u64,
    remote_hits: u64,
}

/// The helper deployment (see the module docs).
#[derive(Debug, Default)]
pub struct Helpers {
    /// At most one wire per source, by source id.
    wires: Vec<Wire>,
    /// Attached helpers in attachment order.
    members: Vec<NodeId>,
    /// Log bytes shipped to helpers (lifetime).
    shipped_bytes: u64,
    response: Option<Response>,
}

impl Helpers {
    /// The helper `source` is wired to.
    pub fn helper_of(&self, source: NodeId) -> Option<NodeId> {
        let wire = self.wires.iter().find(|w| w.source == source);
        wire.map(|w| w.helper)
    }

    /// A flush of `source`'s log is the shipment when it is wired: its
    /// cursor moves to the log's end, and the helper it goes to is
    /// returned. `None`: the flush goes to the local disk.
    pub fn ship(&mut self, source: NodeId, log: &LogManager) -> Option<NodeId> {
        let wire = self.wires.iter_mut().find(|w| w.source == source)?;
        self.shipped_bytes += log.bytes_after(wire.shipped).unwrap_or(0) as u64;
        wire.shipped = log.last_lsn();
        Some(wire.helper)
    }

    /// Attached helper nodes, in attachment order.
    pub fn nodes(&self) -> Vec<NodeId> {
        self.members.clone()
    }

    /// Is `node` attached as a helper?
    pub fn contains(&self, node: NodeId) -> bool {
        self.members.contains(&node)
    }

    /// No helper attached.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The `helpers` span of the response in progress.
    pub fn span(&self) -> Option<SpanId> {
        self.response.map(|r| r.span)
    }

    /// The first violated invariant, `None` when clean: every wired helper
    /// is another node, attached and up; each wire's source has `durable ≤
    /// shipped ≤ log end`; a node that is not wired has no remote tier; no
    /// member has failed; and a response is open exactly while a member is
    /// attached.
    pub fn check_invariants(&self, nodes: &[NodeRuntime]) -> Option<String> {
        let life = |n: NodeId| nodes[n.raw() as usize].life;
        for w in &self.wires {
            let (src, h, log) = (w.source, w.helper, &nodes[w.source.raw() as usize].log);
            if src == h || !self.contains(h) || !life(h).is_up() {
                return Some(format!("{src} ships to {h}, not an attached helper"));
            }
            if w.shipped < log.durable_lsn() || w.shipped > log.last_lsn() {
                let (durable, end) = (log.durable_lsn(), log.last_lsn());
                return Some(format!(
                    "{src} → {h}: {:?} of {durable:?}..{end:?}",
                    w.shipped
                ));
            }
        }
        let mut unwired = nodes.iter().filter(|n| self.helper_of(n.id).is_none());
        if let Some(n) = unwired.find(|n| n.buffer.remote_capacity() > 0) {
            return Some(format!("{} keeps a remote tier with no helper", n.id));
        }
        if let Some(h) = self.members.iter().find(|&&h| life(h) == Lifecycle::Failed) {
            return Some(format!("helper {h} failed but is still attached"));
        }
        (self.response.is_some() == self.members.is_empty())
            .then(|| "the response is open iff a helper is attached".into())
    }

    /// Panic on a [`Helpers::check_invariants`] violation, in every build
    /// profile (wherever the replica-map invariants are asserted).
    pub fn assert_invariants(&self, nodes: &[NodeRuntime]) {
        if let Some(violation) = self.check_invariants(nodes) {
            panic!("helper invariant violated: {violation}");
        }
    }
}

/// Reads served out of helper DRAM, over every node's buffer pool.
fn remote_hits(nodes: &[NodeRuntime]) -> u64 {
    nodes.iter().map(|n| n.buffer.stats().remote_hits).sum()
}

/// Wire `a`'s pairs. The first attach of a response opens its `helpers`
/// span and snapshots the shipped-bytes and remote-hit counters; a later
/// one while helpers remain attached joins the same span. A source whose
/// helper is reassigned gets a fresh cursor at its log's end; re-wiring
/// the same pair keeps the cursor it has.
pub fn attach(c: &mut Cluster, a: &HelperAttach, now: SimTime) {
    if a.helpers.is_empty() {
        return;
    }
    let (helpers, spans) = (&mut c.helpers, &mut c.telemetry.spans);
    let span = match helpers.response {
        None => {
            let span = spans.start("helpers", now);
            let (shipped_bytes, remote_hits) = (helpers.shipped_bytes, remote_hits(&c.nodes));
            let response = Response {
                span,
                shipped_bytes,
                remote_hits,
            };
            helpers.response = Some(response);
            span
        }
        Some(r) => r.span,
    };
    for &h in &a.helpers {
        if !helpers.members.contains(&h) {
            helpers.members.push(h);
        }
    }
    for &(source, helper) in &a.pairs {
        let (src, h) = (source.to_string().into(), helper.to_string().into());
        let attrs = vec![("source".into(), src), ("helper".into(), h)];
        spans.add_event(span, now, "attach", attrs);
        let node = &mut c.nodes[source.raw() as usize];
        let shipped = node.log.last_lsn();
        let fresh = Wire {
            source,
            helper,
            shipped,
        };
        match helpers.wires.binary_search_by_key(&source, |w| w.source) {
            Ok(i) if helpers.wires[i].helper == helper => {}
            Ok(i) => helpers.wires[i] = fresh,
            Err(i) => helpers.wires.insert(i, fresh),
        }
        node.buffer.set_remote_capacity(c.cfg.buffer_pages);
    }
}

/// Release the helpers in `set`, or the wires of a node in it. Each
/// released helper leaves with a `detach` event on the response's span;
/// every wire with an end in `set` goes, its source falling back to local
/// log flushes and a plain buffer pool; the last helper to leave closes
/// the response with its realized relief. A released helper with nothing
/// left to serve suspends to standby — one holding data stays up, and a
/// failed one stays failed.
pub fn detach(c: &mut Cluster, set: &[NodeId], now: SimTime) {
    let (helpers, spans) = (&mut c.helpers, &mut c.telemetry.spans);
    let members = std::mem::take(&mut helpers.members).into_iter();
    let (detached, kept): (Vec<NodeId>, _) = members.partition(|h| set.contains(h));
    helpers.members = kept;
    if let Some(r) = helpers.response {
        for &h in &detached {
            let attrs = vec![("helper".into(), h.to_string().into())];
            spans.add_event(r.span, now, "detach", attrs);
        }
    }
    if let Some(r) = helpers.response.take_if(|_| helpers.members.is_empty()) {
        // Realized relief: the log bytes the helpers persisted, in MB/s
        // over the time they were wired, plus the reads their DRAM
        // answered.
        let shipped = helpers.shipped_bytes.saturating_sub(r.shipped_bytes);
        let dt = (spans.get(r.span)).map_or(0.0, |s| now.since(s.start).as_secs_f64());
        let realized = if dt > 0.0 {
            shipped as f64 / dt / 1e6
        } else {
            0.0
        };
        let hits = remote_hits(&c.nodes).saturating_sub(r.remote_hits);
        spans.set_attr(r.span, "realized_relief_mbps", realized.into());
        spans.set_attr(r.span, "shipped_bytes", shipped.into());
        spans.set_attr(r.span, "remote_hits", hits.into());
        spans.set_attr(r.span, "helpers", names(&detached));
        spans.end(r.span, now);
    }
    let nodes = &mut c.nodes;
    helpers.wires.retain(|w| {
        let cut = set.contains(&w.helper) || set.contains(&w.source);
        if cut {
            nodes[w.source.raw() as usize].buffer.set_remote_capacity(0);
        }
        !cut
    });
    for &h in &detached {
        if can_suspend(c, h) {
            c.power_off(h);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::ClusterConfig;

    #[test]
    fn invariants_name_a_self_wire_and_a_stray_remote_tier() {
        let cl = Cluster::new(
            ClusterConfig {
                nodes: 3,
                ..Default::default()
            },
            &[NodeId(0), NodeId(1)],
        );
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        attach(
            c,
            &HelperAttach::manual(&[NodeId(0)], &[NodeId(1)]),
            SimTime::ZERO,
        );
        assert_eq!(c.helpers.check_invariants(&c.nodes), None);
        assert_eq!(c.helpers.helper_of(NodeId(0)), Some(NodeId(1)));
        c.nodes[2].buffer.set_remote_capacity(8);
        let stray = c.helpers.check_invariants(&c.nodes).expect("stray tier");
        assert!(stray.contains("n2 keeps a remote tier"), "{stray}");
        c.nodes[2].buffer.set_remote_capacity(0);
        attach(
            c,
            &HelperAttach::manual(&[NodeId(1)], &[NodeId(1)]),
            SimTime::ZERO,
        );
        let own = c.helpers.check_invariants(&c.nodes).expect("self wire");
        assert!(own.contains("n1 ships to n1"), "{own}");
        // Releasing the node cuts both of its wires, as helper and source.
        detach(c, &[NodeId(1)], SimTime::ZERO);
        assert_eq!(c.helpers.check_invariants(&c.nodes), None);
        assert!(c.helpers.is_empty() && c.helpers.span().is_none());
        assert_eq!(c.helpers.helper_of(NodeId(0)), None);
    }
}
