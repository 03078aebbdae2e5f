//! One run of one workload: reps, the two ledgers derived from them, and
//! the correctness checks. Engine calls go through `probe`; everything
//! here is arithmetic on what it returns.

use crate::catalogue::Catalogue;
use crate::host::{peak_rss_kb, thread_cpu_ns, HostSnap};
use crate::probe::{self, Counters, Deployment, EndState, Expect, Response, Spec, TimelineFacts};
use crate::results::{Check, Measured, RunResult};
use crate::stats::{
    decile_growth, fnv1a, highest_supported_percentile, median, per_slice_minimum_ns, percentile,
    Log2Hist,
};
use crate::trace::Tracer;

/// The engine retries an aborted attempt up to ten times before it gives
/// a transaction up, so `aborts / 11` bounds the transactions lost.
const ATTEMPTS_PER_GIVE_UP: u64 = 11;
/// Set-up readings an untraced run aims for, and the host seconds it may
/// spend on the ones the reps did not already provide.
const SETUP_READINGS: usize = 9;
const SETUP_EXTRA_BUDGET_S: f64 = 3.0;

/// What one rep leaves behind.
struct Rep {
    /// Host seconds of build, start and warm-up.
    setup_s: f64,
    /// Host (on-CPU) ns per measured slice, control calls included.
    slices_ns: Vec<u64>,
    before: Counters,
    after: Counters,
    host_before: HostSnap,
    host_after: HostSnap,
    response: Response,
    end: EndState,
    export: String,
    export_ms: f64,
    plan_scale_out_us: f64,
    /// Fewest live records seen (after warm-up, after the window).
    live_min: usize,
    loaded: usize,
    /// Host ns per `Sim::step` (stepped reps only).
    steps: Log2Hist,
    /// Σ over slices of events pending at the slice's end (stepped only).
    pending_sum: u64,
    /// Peak resident set of the process when the rep ended, in KiB.
    peak_rss_kb: u64,
}

impl Rep {
    fn committed(&self) -> u64 {
        self.after.completed - self.before.completed
    }
    fn events(&self) -> u64 {
        self.after.events - self.before.events
    }
    fn host_ns(&self) -> u64 {
        self.slices_ns.iter().sum()
    }
}

/// Run `f`; returns its result and the host (on-CPU) seconds it took.
fn timed<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = thread_cpu_ns();
    let r = f();
    (r, (thread_cpu_ns() - t) as f64 / 1e9)
}

/// Build, start and warm a deployment; returns it with the host seconds
/// the three steps took.
fn set_up(spec: &'static Spec, seed: u64, tracer: &mut Tracer) -> (Deployment, f64) {
    let (mut dep, build) = timed(|| tracer.span("setup.build", || Deployment::build(spec, seed)));
    let ((), start) = timed(|| tracer.span("setup.start", || dep.start()));
    let ((), warm) = timed(|| tracer.span("setup.warmup", || dep.warm_up()));
    (dep, build + start + warm)
}

/// One full rep. `stepped` drives the kernel event by event so every
/// `Sim::step` is timed; otherwise each slice is one `run_for`.
fn run_rep(spec: &'static Spec, seed: u64, tracer: &mut Tracer, stepped: bool) -> Rep {
    let rep_span = tracer.start(if stepped { "rep.stepped" } else { "rep.plain" });
    let (mut dep, setup_s) = set_up(spec, seed, tracer);
    let loaded = dep.loaded_records;
    let mut live_min = dep.live_records();
    let mut slices_ns = Vec::with_capacity(spec.slices());
    let mut steps = Log2Hist::default();
    let mut pending_sum = 0u64;

    let before = dep.counters();
    let host_before = HostSnap::take();
    for i in 0..spec.slices() {
        let span = tracer.start("slice");
        let t = thread_cpu_ns();
        dep.control(i, tracer);
        if stepped {
            pending_sum += dep.run_slice_stepped(&mut steps) as u64;
        } else {
            dep.run_slice();
        }
        slices_ns.push(thread_cpu_ns() - t);
        tracer.end(span);
    }
    let host_after = HostSnap::take();
    let after = dep.counters();

    live_min = live_min.min(dep.live_records());
    let (export, export_s) = timed(|| tracer.span("export.timeline", || dep.export()));
    let plan_scale_out_us = tracer.span("plan.scale_out", || dep.plan_scale_out_us());
    let rep = Rep {
        setup_s,
        slices_ns,
        before,
        after,
        host_before,
        host_after,
        response: dep.response(),
        end: dep.end_state(),
        export,
        export_ms: export_s * 1000.0,
        plan_scale_out_us,
        live_min,
        loaded,
        steps,
        pending_sum,
        peak_rss_kb: peak_rss_kb(),
    };
    tracer.end(rep_span);
    rep
}

fn m(name: &str, value: f64, samples: u64) -> Measured {
    Measured {
        name: name.to_string(),
        value,
        samples,
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

/// The end-to-end ledger: what a user of the simulator (host clock) and
/// of the simulated cluster (sim clock) would see.
fn end_to_end(
    spec: &Spec,
    reps: &[&Rep],
    setups: &[f64],
    first_rep_peak_rss_kb: u64,
    facts: &TimelineFacts,
) -> Vec<Measured> {
    let r = reps[0];
    let sim_s = spec.measure_sim_s as f64;
    let txns = r.committed();
    let slices: Vec<&[u64]> = reps.iter().map(|r| r.slices_ns.as_slice()).collect();
    let allocs = r.host_after.allocs - r.host_before.allocs;
    vec![
        m("setup_s", median(setups), setups.len() as u64),
        m(
            "host_ms_per_sim_s",
            per_slice_minimum_ns(&slices) as f64 / 1e6 / sim_s,
            (spec.slices() * reps.len()) as u64,
        ),
        m("peak_rss_mb", first_rep_peak_rss_kb as f64 / 1024.0, 1),
        m(
            "events_per_txn",
            ratio(r.events() as f64, txns as f64),
            txns,
        ),
        m("allocs_per_txn", ratio(allocs as f64, txns as f64), txns),
        m("sim_txn_per_s", txns as f64 / sim_s, txns),
        m("sim_resp_ms.mean", r.response.mean_ms, r.response.samples),
        m("sim_resp_ms.p95", r.response.p95_ms, r.response.samples),
        m(
            "sim_wh_per_ktxn",
            ratio(facts.joules / 3600.0, facts.committed as f64 / 1000.0),
            facts.committed,
        ),
    ]
}

/// The per-layer ledger. Sim-domain counters come from the plain rep
/// (the stepped rep carries one sentinel event per slice); step timings
/// from the stepped one.
fn per_layer(
    plain: &Rep,
    stepped: &Rep,
    facts: &TimelineFacts,
    score: &probe::Score,
    score_ms: f64,
    micros: &[(&'static str, f64)],
) -> Vec<Measured> {
    let (a, b) = (&plain.before, &plain.after);
    let d = |f: fn(&Counters) -> u64| (f(b) - f(a)) as f64;
    let commits = d(|k| k.commits);
    let per_commit = |x: f64| ratio(x, commits);
    let n_commits = commits as u64;
    let sim_us = d(|k| k.sim_us);
    let events = plain.events();
    let host_ns = plain.host_ns();
    let slices_ms: Vec<f64> = plain.slices_ns.iter().map(|&ns| ns as f64 / 1e6).collect();
    let n_slices = slices_ms.len() as u64;
    let n_steps = stepped.steps.count();
    let busiest_disk_us = b
        .disk_service_us
        .iter()
        .zip(&a.disk_service_us)
        .map(|(after, before)| after - before)
        .max()
        .unwrap_or(0);
    let fetches = d(|k| k.buf_hits) + d(|k| k.buf_misses) + d(|k| k.buf_remote_hits);
    let attempts = d(|k| k.completed) + d(|k| k.aborted);
    let e = &plain.end;
    let mig = e.migration;

    let mut out = vec![
        // sim.kernel
        m("kernel.events", events as f64, events),
        m(
            "kernel.ns_per_event",
            ratio(host_ns as f64, events as f64),
            events,
        ),
        m(
            "kernel.step_ns.p50",
            stepped.steps.percentile(50.0),
            n_steps,
        ),
        m(
            "kernel.step_ns.p99",
            stepped.steps.percentile(99.0),
            n_steps,
        ),
        m("kernel.step_ns.max", stepped.steps.max() as f64, n_steps),
        m(
            "kernel.pending.mean",
            ratio(stepped.pending_sum as f64, n_slices as f64),
            n_slices,
        ),
        // core.executor / host process
        m(
            "engine.host_growth",
            decile_growth(&plain.slices_ns),
            n_slices,
        ),
        m(
            "engine.slice_host_ms.p90",
            percentile(&slices_ms, 90.0),
            n_slices,
        ),
        m(
            "engine.rss_growth_mb",
            (plain.host_after.rss_kb as f64 - plain.host_before.rss_kb as f64) / 1024.0,
            1,
        ),
        m(
            "engine.cpu_share",
            plain.host_after.cpu_share_since(&plain.host_before),
            1,
        ),
        m(
            "engine.trace_overhead",
            ratio(stepped.host_ns() as f64, host_ns as f64),
            n_slices,
        ),
        // txn
        m(
            "locks.waits_per_commit",
            per_commit(d(|k| k.lock_waits)),
            n_commits,
        ),
        m("locks.deadlocks", d(|k| k.deadlocks), n_commits),
        m(
            "txn.abort_share",
            ratio(d(|k| k.aborted), attempts),
            attempts as u64,
        ),
        // index / storage
        m("buffer.fetches_per_commit", per_commit(fetches), n_commits),
        m(
            "buffer.hit_ratio",
            ratio(d(|k| k.buf_hits), fetches),
            fetches as u64,
        ),
        m(
            "buffer.evictions_per_commit",
            per_commit(d(|k| k.buf_evictions)),
            n_commits,
        ),
        m(
            "buffer.writebacks_per_commit",
            per_commit(d(|k| k.buf_writebacks)),
            n_commits,
        ),
        m(
            "disk.reads_per_commit",
            per_commit(d(|k| k.disk_reads)),
            n_commits,
        ),
        m(
            "disk.writes_per_commit",
            per_commit(d(|k| k.disk_writes)),
            n_commits,
        ),
        m("disk.busy_share", ratio(busiest_disk_us as f64, sim_us), 1),
        m(
            "disk.wait_ms_per_commit",
            per_commit(d(|k| k.disk_wait_us) / 1000.0),
            n_commits,
        ),
        // wal / replica / net
        m(
            "wal.flushed_bytes_per_commit",
            per_commit(d(|k| k.wal_flushed_bytes)),
            n_commits,
        ),
        m(
            "wal.commits_per_flush",
            ratio(commits, d(|k| k.wal_flushes)),
            n_commits,
        ),
        m("wal.records_retained", b.wal_records as f64, 1),
        m(
            "wal.shipped_bytes_per_commit",
            per_commit(facts.shipped_bytes as f64),
            n_commits,
        ),
        m("replica.lag_max", facts.lag_max, facts.windows),
        m(
            "net.tx_bytes_per_commit",
            per_commit(d(|k| k.net_tx_bytes)),
            n_commits,
        ),
        m(
            "net.tx_msgs_per_commit",
            per_commit(d(|k| k.net_tx_msgs)),
            n_commits,
        ),
        m(
            "net.wait_ms_per_commit",
            per_commit(d(|k| k.net_wait_us) / 1000.0),
            n_commits,
        ),
        // modeled CPU
        m(
            "cpu.service_ms_per_commit",
            per_commit(d(|k| k.cpu_service_us) / 1000.0),
            n_commits,
        ),
        m(
            "cpu.wait_ms_per_commit",
            per_commit(d(|k| k.cpu_wait_us) / 1000.0),
            n_commits,
        ),
        m("cpu.max_queue", b.cpu_max_queue as f64, 1),
        // core.migration
        m("migration.rebalance_sim_s", mig.map_or(0.0, |r| r.sim_s), 1),
        m(
            "migration.segments_moved",
            mig.map_or(0.0, |r| r.segments_moved as f64),
            1,
        ),
        m(
            "migration.bytes_moved",
            mig.map_or(0.0, |r| r.bytes_moved as f64),
            1,
        ),
        m(
            "migration.heat_moved_share",
            mig.map_or(0.0, |r| r.heat_moved_share),
            1,
        ),
        m("migration.resp_ratio", e.resp_ratio, plain.response.samples),
        // core.monitor / policy / autopilot, planner, energy
        m("autopilot.scale_out", facts.scale_out as f64, facts.windows),
        m("autopilot.scale_in", facts.scale_in as f64, facts.windows),
        m("autopilot.rebalance", facts.rebalance as f64, facts.windows),
        m("autopilot.hold", facts.hold as f64, facts.windows),
        m("autopilot.deferred", facts.deferred as f64, facts.windows),
        m(
            "autopilot.node_windows",
            facts.node_windows as f64,
            facts.windows,
        ),
        m("energy.mean_watts", score.mean_watts, facts.windows),
        m(
            "energy.proportionality_rated",
            score.proportionality_rated,
            facts.windows,
        ),
        m("energy.p95_ceiling_ms", score.p95_ceiling_ms, facts.windows),
        m("planner.plan_scale_out_us", plain.plan_scale_out_us, 5),
        m("energy.score_ms", score_ms, 1),
        // tpcc.pool, telemetry, query / core.scan
        m("pool.carriers", e.pool_carriers as f64, 1),
        m("pool.weight", e.pool_weight as f64, 1),
        m(
            "pool.modeled_per_event",
            ratio(d(|k| k.completed), events as f64),
            events,
        ),
        m("telemetry.windows", facts.windows as f64, facts.windows),
        m("telemetry.export_bytes", plain.export.len() as f64, 1),
        m("telemetry.export_ms", plain.export_ms, 1),
        m(
            "scan.rows_per_scan",
            ratio(e.scan_rows as f64, e.scans as f64),
            e.scans,
        ),
        m(
            "scan.dispatch_us",
            ratio(e.scan_dispatch_ns as f64 / 1000.0, e.scans as f64),
            e.scans,
        ),
    ];
    // The paper's Fig. 7 split of the mean response time.
    const CATEGORIES: [&str; 6] = ["logging", "latching", "locking", "network", "disk", "cpu"];
    for (phase, values) in [
        ("normal", e.fig7_normal),
        ("rebalancing", e.fig7_rebalancing),
    ] {
        for (cat, v) in CATEGORIES.iter().zip(values) {
            out.push(m(
                &format!("fig7.{phase}.{cat}_ms"),
                v,
                plain.response.samples,
            ));
        }
    }
    // Micro-drivers: best of five batches each.
    out.extend(micros.iter().map(|(name, ns)| m(name, *ns, 5)));
    out
}

/// Checks every run makes on the reps it ran.
fn common_checks(spec: &Spec, reps: &[&Rep], facts: &TimelineFacts) -> Vec<Check> {
    let r = reps[0];
    let attempts = r.committed() + (r.after.aborted - r.before.aborted);
    let abort_share = ratio((r.after.aborted - r.before.aborted) as f64, attempts as f64);
    let mut checks = vec![
        check(
            "check.commits",
            r.committed() > 0 && abort_share < 0.01,
            format!("{} committed, abort share {abort_share:.6}", r.committed()),
        ),
        check(
            "check.live_records",
            reps.iter().all(|r| r.live_min >= r.loaded),
            format!("loaded {}, fewest live {}", r.loaded, r.live_min),
        ),
        check(
            "check.timeline",
            facts.samples_dropped == 0 && facts.committed > 0,
            format!(
                "{} windows, {} dropped, {} committed in measured windows",
                facts.windows, facts.samples_dropped, facts.committed
            ),
        ),
    ];
    match spec.expects {
        Expect::Rebalance => {
            let moved = r.end.migration.map_or(0, |g| g.segments_moved);
            checks.push(check(
                "check.rebalance",
                moved > 0 && facts.shipped_bytes > 0,
                format!(
                    "{moved} segments moved, {} replica bytes shipped",
                    facts.shipped_bytes
                ),
            ));
        }
        Expect::Elasticity => checks.push(check(
            "check.elasticity",
            facts.scale_out >= 1 && facts.scale_in >= 1,
            format!(
                "{} scale-outs and {} scale-ins applied",
                facts.scale_out, facts.scale_in
            ),
        )),
        Expect::Nothing => {}
    }
    checks
}

/// What makes two reps the same run: commits, kernel events, and the
/// bytes of the flight recorder.
fn fingerprint(r: &Rep) -> (u64, u64, u64) {
    (
        r.after.completed,
        r.after.events,
        fnv1a(r.export.as_bytes()),
    )
}

/// The largest set of reps that ran the identical simulation (the
/// earliest such set on a tie). Only these are compared slice by slice
/// and only these supply sim-clock numbers.
fn agreeing(reps: &[Rep]) -> Vec<&Rep> {
    let prints: Vec<_> = reps.iter().map(fingerprint).collect();
    let count = |p| prints.iter().filter(|q| **q == p).count();
    let most = prints.iter().map(|p| count(*p)).max().unwrap_or(0);
    let modal = prints.iter().copied().find(|p| count(*p) == most);
    reps.iter()
        .zip(&prints)
        .filter(|(_, p)| Some(**p) == modal)
        .map(|(r, _)| r)
        .collect()
}

/// Reps of one seed must be the same run. Where the engine promises
/// that (`Spec::deterministic`) every rep must agree; on the elastic
/// workloads, whose control paths iterate hash maps, a pair must.
fn determinism_check(spec: &Spec, reps: &[Rep], same: &[&Rep]) -> Check {
    let (completed, events, fnv) = fingerprint(same[0]);
    let needed = if spec.deterministic {
        reps.len().max(2)
    } else {
        2
    };
    check(
        "check.determinism",
        same.len() >= needed,
        format!(
            "{} of {} reps identical: completed {completed}, events {events}, \
             timeline fnv {fnv:016x}",
            same.len(),
            reps.len()
        ),
    )
}

/// The metrics printed must be exactly the declared ones, finite, and
/// (end to end) non-zero.
fn declared_check(cat: &Catalogue, traced: bool, metrics: &[Measured]) -> Check {
    let declared: Vec<&str> = cat
        .metrics(traced)
        .iter()
        .map(|d| d.name.as_str())
        .collect();
    let mut problems = Vec::new();
    for name in &declared {
        if !metrics.iter().any(|m| m.name == *name) {
            problems.push(format!("{name} not measured"));
        }
    }
    for m in metrics {
        if !declared.contains(&m.name.as_str()) {
            problems.push(format!("{} not declared", m.name));
        } else if !m.value.is_finite() || (!traced && m.value <= 0.0) {
            problems.push(format!("{} = {}", m.name, m.value));
        }
    }
    check(
        "check.declared",
        problems.is_empty(),
        if problems.is_empty() {
            format!("{} metrics as declared in BENCHMARK.json", metrics.len())
        } else {
            problems.join("; ")
        },
    )
}

/// Order metrics as `BENCHMARK.json` lists them.
fn in_declared_order(cat: &Catalogue, traced: bool, mut metrics: Vec<Measured>) -> Vec<Measured> {
    let rank = |name: &str| {
        cat.metrics(traced)
            .iter()
            .position(|d| d.name == name)
            .unwrap_or(usize::MAX)
    };
    metrics.sort_by_key(|m| rank(&m.name));
    metrics
}

fn cpu_share(reps: &[Rep]) -> f64 {
    reps.iter()
        .map(|r| r.host_after.cpu_share_since(&r.host_before))
        .fold(f64::INFINITY, f64::min)
}

fn attempted_failed(reps: &[Rep]) -> (u64, u64) {
    let aborted: u64 = reps
        .iter()
        .map(|r| r.after.aborted - r.before.aborted)
        .sum();
    let committed: u64 = reps.iter().map(Rep::committed).sum();
    (committed + aborted, aborted / ATTEMPTS_PER_GIVE_UP)
}

/// An untraced run: as many identical reps as fit `seconds`, a few more
/// set-ups for the set-up median, end-to-end metrics only.
pub fn run_untraced(spec: &'static Spec, seed: u64, seconds: u64, cat: &Catalogue) -> RunResult {
    let mut tracer = Tracer::new(false);
    let reps: Vec<Rep> = (0..spec.reps(seconds))
        .map(|_| run_rep(spec, seed, &mut tracer, false))
        .collect();
    // Set-up is short and noisy: besides the one each rep made, set up
    // again until there are nine readings or the extra ones have cost
    // three host seconds, and report the median.
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    let mut extra_s = 0.0;
    while setups.len() < SETUP_READINGS && extra_s < SETUP_EXTRA_BUDGET_S {
        let (_, s) = set_up(spec, seed, &mut tracer);
        extra_s += s;
        setups.push(s);
    }

    let same = agreeing(&reps);
    let mut checks = Vec::new();
    let facts = probe::timeline_facts(&same[0].export, spec.warm_sim_s).unwrap_or_else(|e| {
        checks.push(check("check.timeline_parse", false, e));
        TimelineFacts::default()
    });
    let metrics = in_declared_order(
        cat,
        false,
        end_to_end(spec, &same, &setups, reps[0].peak_rss_kb, &facts),
    );
    checks.extend(common_checks(spec, &same, &facts));
    checks.push(determinism_check(spec, &reps, &same));
    checks.push(declared_check(cat, false, &metrics));
    let (attempted, failed) = attempted_failed(&reps);
    RunResult {
        workload: spec.name.to_string(),
        seed,
        seconds,
        traced: false,
        attempted,
        failed,
        cpu_share: cpu_share(&reps),
        metrics,
        checks,
    }
}

/// A traced run: one plain rep, one stepped rep under spans, the
/// micro-drivers, per-layer metrics only. Returns the spans as JSONL.
pub fn run_traced(
    spec: &'static Spec,
    seed: u64,
    seconds: u64,
    cat: &Catalogue,
) -> (RunResult, String) {
    let mut tracer = Tracer::new(true);
    let root = tracer.start(spec.name);
    let plain = run_rep(spec, seed, &mut tracer, false);
    let stepped = run_rep(spec, seed, &mut tracer, true);

    let mut checks = Vec::new();
    let facts = probe::timeline_facts(&plain.export, spec.warm_sim_s).unwrap_or_else(|e| {
        checks.push(check("check.timeline_parse", false, e));
        TimelineFacts::default()
    });
    let (score, score_s) = timed(|| {
        tracer.span("score.scorecard", || {
            probe::score(&plain.export, plain.end.rated_watts)
        })
    });
    let score = score.unwrap_or_else(|e| {
        checks.push(check("check.scorecard", false, e));
        probe::Score::default()
    });
    let micros = probe::micros(&mut tracer, seed);
    tracer.end(root);

    let metrics = in_declared_order(
        cat,
        true,
        per_layer(&plain, &stepped, &facts, &score, score_s * 1000.0, &micros),
    );
    let reps = [plain, stepped];
    checks.extend(common_checks(spec, &[&reps[0], &reps[1]], &facts));
    // Stepping adds one sentinel event per slice and changes nothing
    // else; on an elastic workload the two reps may also differ the way
    // any two reps may (see `determinism_check`), so there it is a note.
    let (p, s) = (&reps[0], &reps[1]);
    let same_run = s.after.completed == p.after.completed
        && s.after.events == p.after.events + spec.slices() as u64;
    checks.push(check(
        if spec.deterministic {
            "check.stepped_same_run"
        } else {
            "note.stepped_same_run"
        },
        same_run || !spec.deterministic,
        format!(
            "plain: completed {} events {}; stepped: completed {} events {} ({} sentinels)",
            p.after.completed,
            p.after.events,
            s.after.completed,
            s.after.events,
            spec.slices()
        ),
    ));
    // Every fixed percentile must have ten samples beyond it.
    let top = |n: u64| highest_supported_percentile(n).unwrap_or(0.0);
    let (steps, slices) = (s.steps.count(), spec.slices() as u64);
    checks.push(check(
        "check.percentiles",
        top(steps) >= 99.0 && top(slices) >= 90.0,
        format!(
            "{steps} steps support up to p{}, {slices} slices up to p{}",
            top(steps),
            top(slices)
        ),
    ));
    checks.push(declared_check(cat, true, &metrics));
    let (attempted, failed) = attempted_failed(&reps);
    let result = RunResult {
        workload: spec.name.to_string(),
        seed,
        seconds,
        traced: true,
        attempted,
        failed,
        cpu_share: cpu_share(&reps[..1]),
        metrics,
        checks,
    };
    (result, tracer.to_jsonl(spec.name))
}
