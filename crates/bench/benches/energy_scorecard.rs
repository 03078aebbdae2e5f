//! Energy-proportionality scorecard — the paper's headline claim as a
//! gated experiment.
//!
//! Three trace-driven workloads ({diurnal sine, flash crowd, tenant
//! mix}) each run twice on the same 4-node deployment at the same seed:
//! once under the elasticity autopilot and once statically provisioned
//! (every node powered from t = 0, autopilot off). Each run's exported
//! telemetry timeline is graded by `wattdb_energy::scorecard` against
//! the rated peak of the deployment, and the full 3×2 matrix is written
//! to `BENCH_energy.json` for CI to validate and upload.
//!
//! Acceptance gates (checked after the artifact is written):
//!
//! * every cell commits transactions and samples windows;
//! * on the diurnal trace the autopilot's proportionality index
//!   (rated) strictly beats the static baseline's;
//! * the autopilot's worst-window p95 stays within [`P95_BOUND`]× the
//!   static baseline's on the diurnal trace. Elasticity is not free:
//!   while a scale-out rebalance is in flight the cluster runs
//!   saturated and transactions queue for seconds, so the worst-window
//!   p95 lands whole log₂ buckets above the static baseline's (the
//!   measured penalty is ~7 buckets, ≈128×). The bound is a regression
//!   backstop one bucket above that, not a latency SLO — tuning the
//!   policy to be eager enough to avoid the crunch was measured to
//!   erase most of the proportionality win without leaving the
//!   multi-second bucket.

use wattdb_common::{CostParams, NodeId, SimDuration, SimTime};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_energy::{score_jsonl, PhaseSpan, Scorecard};
use wattdb_tpcc::{DiurnalConfig, FlashCrowdConfig, LoadTrace, TenantLoad, TenantSpec};

/// Mean think time across every cell: the trace scales offered load by
/// resizing the modeled population, not by changing client tempo.
const THINK: SimDuration = SimDuration::from_secs(2);
/// Shared seed — autopilot and static cells of a trace differ only in
/// provisioning policy.
const SEED: u64 = 42;
/// Documented ceiling on the autopilot's p95 penalty vs. static on the
/// diurnal trace: eight log₂ response buckets (one bucket = 2×), one
/// above the measured ~7-bucket scale-out-crunch penalty. A regression
/// backstop, not a latency SLO.
const P95_BOUND: f64 = 256.0;
/// Post-trace drain before exporting, so in-flight work completes.
const DRAIN: SimDuration = SimDuration::from_secs(5);

struct Cell {
    trace: &'static str,
    policy: &'static str,
    card: Scorecard,
}

fn diurnal() -> LoadTrace {
    LoadTrace::diurnal(DiurnalConfig {
        min_clients: 40,
        max_clients: 800,
        period: SimDuration::from_secs(120),
        phase: 0.0,
        step: SimDuration::from_secs(5),
        horizon: SimDuration::from_secs(240),
        tenant: TenantSpec::default(),
    })
}

fn flash_crowd() -> LoadTrace {
    LoadTrace::flash_crowd(FlashCrowdConfig {
        baseline: 80,
        extra: 720,
        start: SimDuration::from_secs(60),
        ramp: SimDuration::from_secs(20),
        hold: SimDuration::from_secs(60),
        decay: SimDuration::from_secs(40),
        step: SimDuration::from_secs(5),
        horizon: SimDuration::from_secs(240),
        tenant: TenantSpec::default(),
    })
}

fn tenant_mix() -> LoadTrace {
    let third = 2.0 * std::f64::consts::PI / 3.0;
    let tenants: Vec<TenantLoad> = (0..3)
        .map(|i| TenantLoad {
            min_clients: 20,
            max_clients: 280,
            phase: i as f64 * third,
            spec: TenantSpec {
                hot_fraction: 0.7,
                hot_first: 2 * i,
                hot_warehouses: 2,
            },
        })
        .collect();
    LoadTrace::tenant_mix(
        SimDuration::from_secs(120),
        SimDuration::from_secs(5),
        SimDuration::from_secs(240),
        &tenants,
    )
}

fn run_cell(trace_name: &'static str, trace: &LoadTrace, autopilot: bool) -> Cell {
    let initial: &[NodeId] = if autopilot {
        &[NodeId(0), NodeId(1)]
    } else {
        &[NodeId(0), NodeId(1), NodeId(2), NodeId(3)]
    };
    let mut db = WattDb::builder()
        .nodes(4)
        .scheme(Scheme::Physiological)
        .warehouses(8)
        .density(0.02)
        .segment_pages(8)
        // ×40 per-operation CPU: the client load saturates nodes, so the
        // CPU-threshold policy has a signal to act on.
        .costs(CostParams::scaled(40))
        .seed(SEED)
        .initial_data_nodes(initial)
        .autopilot(autopilot)
        .telemetry(true)
        .build();
    db.start_traced_oltp(trace.clone(), THINK);
    db.run_for(trace.horizon());
    db.stop_clients();
    db.run_for(DRAIN);
    let rated = db.rated_peak_watts();
    let phases: Vec<PhaseSpan> = trace
        .phase_spans()
        .into_iter()
        .map(|(label, start, end)| {
            PhaseSpan::new(label, SimTime::ZERO + start, SimTime::ZERO + end)
        })
        .collect();
    let card = score_jsonl(&db.export_timeline_string(), &phases, rated)
        .expect("own timeline export scores");
    let policy = if autopilot { "autopilot" } else { "static" };
    println!(
        "{trace_name:>10} {policy:>9}: prop(rated)={:.3} prop(obs)={:.3} mean={:.1}W \
         peak={:.1}W committed={} wh/txn={:.5} p95_ceiling={:.0}ms nodes={:?}",
        card.proportionality_rated,
        card.proportionality_observed,
        card.mean_watts,
        card.peak_watts,
        card.committed,
        card.wh_per_txn,
        card.p95_ceiling_ms,
        card.nodes_powered,
    );
    Cell {
        trace: trace_name,
        policy,
        card,
    }
}

fn json(cells: &[Cell]) -> String {
    let mut out = String::from("{\n  \"bench\": \"energy_scorecard\",\n");
    out.push_str(&format!(
        "  \"seed\": {SEED},\n  \"p95_bound\": {P95_BOUND:.1},\n  \"cells\": [\n"
    ));
    for (i, cell) in cells.iter().enumerate() {
        let c = &cell.card;
        out.push_str(&format!(
            "    {{\"trace\": \"{}\", \"policy\": \"{}\", \"windows\": {}, \
             \"proportionality_rated\": {:.4}, \"proportionality_observed\": {:.4}, \
             \"mean_watts\": {:.2}, \"peak_watts\": {:.2}, \"rated_watts\": {:.2}, \
             \"committed_txns\": {}, \"wh_per_txn\": {:.6}, \"p95_ceiling_ms\": {:.1}, \
             \"nodes_powered\": [",
            cell.trace,
            cell.policy,
            c.windows,
            c.proportionality_rated,
            c.proportionality_observed,
            c.mean_watts,
            c.peak_watts,
            c.rated_watts,
            c.committed,
            c.wh_per_txn,
            c.p95_ceiling_ms,
        ));
        for (j, (nodes, windows)) in c.nodes_powered.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!("[{nodes}, {windows}]"));
        }
        out.push_str("], \"phases\": [");
        for (j, p) in c.phases.iter().enumerate() {
            if j > 0 {
                out.push_str(", ");
            }
            out.push_str(&format!(
                "{{\"label\": \"{}\", \"windows\": {}, \"mean_watts\": {:.2}, \
                 \"committed_txns\": {}, \"wh_per_txn\": {:.6}}}",
                p.label, p.windows, p.mean_watts, p.committed, p.wh_per_txn,
            ));
        }
        out.push_str(&format!(
            "]}}{}\n",
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

fn find<'a>(cells: &'a [Cell], trace: &str, policy: &str) -> &'a Cell {
    cells
        .iter()
        .find(|c| c.trace == trace && c.policy == policy)
        .expect("matrix cell present")
}

fn main() {
    println!("Energy scorecard — {{diurnal, flash-crowd, tenant-mix}} x {{autopilot, static}}");
    let traces: [(&'static str, LoadTrace); 3] = [
        ("diurnal", diurnal()),
        ("flash-crowd", flash_crowd()),
        ("tenant-mix", tenant_mix()),
    ];
    let mut cells = Vec::with_capacity(6);
    for (name, trace) in &traces {
        cells.push(run_cell(name, trace, true));
        cells.push(run_cell(name, trace, false));
    }

    // Write the artifact BEFORE the acceptance gates (CI uploads even a
    // failing run's numbers), at the repo root whatever CWD ran us.
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join("BENCH_energy.json");
    std::fs::write(&path, json(&cells)).expect("write BENCH_energy.json");
    println!("wrote {}", path.display());

    // Acceptance gates.
    assert_eq!(cells.len(), 6, "full 3x2 matrix present");
    for c in &cells {
        assert!(
            c.card.windows > 0 && c.card.committed > 0,
            "{} / {} cell did no work",
            c.trace,
            c.policy
        );
    }
    let auto = find(&cells, "diurnal", "autopilot");
    let stat = find(&cells, "diurnal", "static");
    assert!(
        auto.card.proportionality_rated > stat.card.proportionality_rated,
        "autopilot proportionality {:.4} must strictly beat static {:.4} on the diurnal trace",
        auto.card.proportionality_rated,
        stat.card.proportionality_rated
    );
    let p95_static = stat.card.p95_ceiling_ms.max(1.0);
    assert!(
        auto.card.p95_ceiling_ms <= P95_BOUND * p95_static,
        "autopilot p95 ceiling {:.0} ms exceeds {P95_BOUND}x the static baseline's {:.0} ms",
        auto.card.p95_ceiling_ms,
        stat.card.p95_ceiling_ms
    );
    println!(
        "gates: diurnal proportionality autopilot {:.3} > static {:.3}; \
         p95 {:.0} ms <= {P95_BOUND}x {:.0} ms",
        auto.card.proportionality_rated,
        stat.card.proportionality_rated,
        auto.card.p95_ceiling_ms,
        stat.card.p95_ceiling_ms
    );
}
