//! The facade's contract: one entry point per operation.
//!
//! * **Reads are pure** — every read the facade offers, called between
//!   the 1 Hz power sampler's ticks all run long, leaves the timeline
//!   export and the energy meter exactly as a run that never looked.
//! * **Plan, then run** — `db.plan(&d)` followed by `db.run(plan)` is
//!   `policy::apply`, the autopilot's own path, for every scripted
//!   decision.
//! * **Uniform is skew zero** — `start_oltp` is `start_tenant` with a
//!   zero hot fraction, wherever its hot range sits, per-client and
//!   pooled.

use wattdb_common::{CostParams, NodeId, SimDuration};
use wattdb_core::api::WattDb;
use wattdb_core::migration::ControlPlan;
use wattdb_core::policy::{self, Decision, PolicyConfig};
use wattdb_core::{ClientBatching, WattDbBuilder};
use wattdb_tpcc::TenantSpec;

fn builder() -> WattDbBuilder {
    WattDb::builder()
        .nodes(4)
        .warehouses(4)
        .density(0.02)
        .segment_pages(8)
        .seed(23)
        .initial_data_nodes(&[NodeId(0), NodeId(1)])
        .monitoring(SimDuration::from_secs(5))
}

/// Total metered energy, in joules.
fn energy(db: &WattDb) -> f64 {
    db.with_cluster(|c| c.meter.total_energy().0)
}

#[test]
fn reads_never_perturb_the_run() {
    // ×40 per-operation CPU on one data node: the autopilot scales out
    // inside the run, so there is a rebalance and a decision log to read.
    let costs = CostParams::scaled(40);
    let run = |looking: bool| {
        let mut db = builder()
            .costs(costs)
            .initial_data_nodes(&[NodeId(0)])
            .policy(PolicyConfig {
                patience: 2,
                ..Default::default()
            })
            .autopilot(true)
            .build();
        db.start_oltp(48, SimDuration::from_millis(30));
        // Half a second off the power sampler's ticks: a read that
        // sampled the meter's probe would cut its next window short.
        db.run_for(SimDuration::from_millis(500));
        let mut seen = 0;
        for _ in 0..90 {
            db.run_for(SimDuration::from_secs(1));
            if looking {
                seen += db.status().nodes.len() + db.events().len();
                seen += db.last_rebalance().map_or(0, |r| r.segments_moved as usize);
                seen += db.export_timeline_string().len();
                seen += db.with_cluster(|c| c.helpers.nodes().len());
            }
        }
        assert_eq!(seen > 0, looking);
        assert!(db.last_rebalance().is_some(), "the run scaled out");
        db
    };
    let (quiet, watched) = (run(false), run(true));
    assert_eq!(
        quiet.export_timeline_string(),
        watched.export_timeline_string()
    );
    assert_eq!(energy(&quiet), energy(&watched));
    assert_eq!(quiet.completed(), watched.completed());
}

/// A deployment with ten seconds of workload heat on it.
fn warmed() -> WattDb {
    let mut db = builder().telemetry(true).build();
    db.start_oltp(16, SimDuration::from_millis(50));
    db.run_for(SimDuration::from_secs(10));
    db
}

/// [`warmed`], with a helper already wired to node 0 — so that a detach
/// has something to release.
fn helped() -> WattDb {
    let mut db = warmed();
    let attach = Decision::AttachHelpers {
        sources: vec![NodeId(0)],
        targets: vec![],
    };
    let plan = db.plan(&attach).expect("a standby can help");
    db.run(plan);
    db
}

#[test]
fn scripted_plan_equals_policy_apply() {
    let attached = helped().with_cluster(|c| c.helpers.nodes());
    assert!(!attached.is_empty());
    let cases: [(Decision, fn() -> WattDb); 4] = [
        (
            Decision::ScaleOut {
                sources: vec![NodeId(0), NodeId(1)],
                targets: vec![NodeId(2)],
            },
            warmed,
        ),
        (
            Decision::ScaleIn {
                drain: vec![NodeId(1)],
            },
            warmed,
        ),
        (
            Decision::AttachHelpers {
                sources: vec![NodeId(0), NodeId(1)],
                targets: vec![],
            },
            warmed,
        ),
        (Decision::DetachHelpers { helpers: attached }, helped),
    ];
    for (decision, deployment) in cases {
        let (mut scripted, mut applied) = (deployment(), deployment());
        let plan: ControlPlan = scripted.plan(&decision).expect("plannable");
        let a = scripted.run(plan);
        let b = applied
            .with_runtime(|cl, sim| policy::apply(cl, sim, &decision, &PolicyConfig::default()))
            .expect("plannable");
        assert_eq!(a, b, "{decision:?}");
        for db in [&mut scripted, &mut applied] {
            db.run_for(SimDuration::from_secs(60));
        }
        assert_eq!(
            scripted.export_timeline_string(),
            applied.export_timeline_string(),
            "{decision:?}"
        );
    }
}

#[test]
fn uniform_is_skew_zero() {
    for batching in [ClientBatching::PerClient, ClientBatching::Pooled] {
        let run = |skewed: bool| {
            let mut db = builder().telemetry(true).client_batching(batching).build();
            let think = SimDuration::from_millis(60);
            if skewed {
                let tenant = TenantSpec {
                    hot_fraction: 0.0,
                    hot_first: 2,
                    hot_warehouses: 3,
                    ..TenantSpec::default()
                };
                db.start_tenant(40, think, tenant);
            } else {
                db.start_oltp(40, think);
            }
            db.run_for(SimDuration::from_secs(20));
            db
        };
        let (uniform, skew_zero) = (run(false), run(true));
        assert!(uniform.completed() > 0);
        assert_eq!(uniform.completed(), skew_zero.completed(), "{batching:?}");
        assert_eq!(
            uniform.export_timeline_string(),
            skew_zero.export_timeline_string(),
            "{batching:?}"
        );
    }
}
