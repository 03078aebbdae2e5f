//! The benchmark's whole view of the engine.
//!
//! Every call into a `wattdb_*` crate is in this file, so the signatures
//! the benchmark compiles against are in one place (README.md lists
//! them). The other files see plain numbers only. Where the timeline
//! export and a struct field carry the same quantity, the export is read.

use std::cell::Cell;
use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use wattdb_common::{
    CostModel, CostParams, CostVector, DetRng, HeatConfig, Key, KeyRange, NodeId, PageId,
    SegmentId, SimDuration, SimTime, TableId, TxnId,
};
use wattdb_core::api::WattDb;
use wattdb_core::cluster::Scheme;
use wattdb_core::{AccessKind, ClientBatching, HeatTable, Phase};
use wattdb_index::{BPlusTree, SegmentIndex};
use wattdb_query::AggFunc;
use wattdb_sim::{CostCategory, Sim};
use wattdb_storage::{BufferPool, PageStore, Record, SlottedPage};
use wattdb_tpcc::{
    carrier_split, warehouse_range, ClientPool, DiurnalConfig, LoadTrace, TenantSpec, TpccTable,
};
use wattdb_txn::mvcc::{self, Snapshot};
use wattdb_txn::{LockManager, LockMode, LockTarget};
use wattdb_wal::{LogManager, LogPayload};

pub use wattdb_telemetry::json::{parse as parse_json, JsonValue};

use crate::stats::{interpolated_percentile, Log2Hist};
use crate::trace::Tracer;

/// One `WattDb::run_for` call of the measured window, in sim-ms.
pub const SLICE_SIM_MS: u64 = 500;
/// Flight-recorder window and monitoring cadence, in sim-s.
const WINDOW_SIM_S: u64 = 5;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Steady,
    Pooled,
    Diurnal,
    Rebalance,
}

/// The control action a workload exists to exercise; a run in which it
/// did not happen measured something else and fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Expect {
    /// A static cluster: nothing to wait for.
    Nothing,
    /// At least one scale-out and one scale-in applied by the autopilot.
    Elasticity,
    /// A completed rebalance with segments moved and replica bytes shipped.
    Rebalance,
}

/// A workload: one closed-loop TPC-C run per rep.
#[derive(Debug)]
pub struct Spec {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Simulated seconds of warm-up, charged to `setup_s`.
    pub warm_sim_s: u64,
    /// Simulated seconds measured per rep.
    pub measure_sim_s: u64,
    /// Host seconds one rep's measured window took on the machine the
    /// first baseline was taken on; `--seconds` divided by this gives the
    /// rep count, so a run of fixed length does a fixed amount of work.
    pub rep_host_s: f64,
    /// Are two runs of one seed always identical? They are in per-client
    /// mode on a static cluster, which `tests/determinism_pin.rs` pins.
    /// Pooled clients and the elastic control paths are not: now and then
    /// a rep parts ways with the others (the engine iterates `HashMap`s,
    /// `Cluster::partitions` among them).
    pub deterministic: bool,
    pub expects: Expect,
    kind: Kind,
}

/// The four workloads. Each horizon is sized so that four to six
/// identical reps fit the contract's run length: host time on a shared
/// machine comes in bursts of +30–40 % that last seconds, and the
/// per-slice minimum needs that many reps to find a quiet reading of
/// every slice. README.md says what each workload stresses.
pub const SPECS: [Spec; 4] = [
    Spec {
        name: "oltp-steady",
        warm_sim_s: 10,
        measure_sim_s: 150,
        rep_host_s: 3.3,
        deterministic: true,
        expects: Expect::Nothing,
        kind: Kind::Steady,
    },
    Spec {
        name: "oltp-pooled-100k",
        warm_sim_s: 10,
        measure_sim_s: 75,
        rep_host_s: 3.3,
        deterministic: false,
        expects: Expect::Nothing,
        kind: Kind::Pooled,
    },
    Spec {
        name: "elastic-diurnal",
        warm_sim_s: 0,
        // One period of the trace (trough, peak, back to the trough)
        // plus a 5 sim-s drain with the clients stopped.
        measure_sim_s: DIURNAL_TRACE_SIM_S + 5,
        rep_host_s: 5.0,
        deterministic: false,
        expects: Expect::Elasticity,
        kind: Kind::Diurnal,
    },
    Spec {
        name: "rebalance-replicated",
        warm_sim_s: 20,
        measure_sim_s: 50,
        rep_host_s: 5.0,
        deterministic: false,
        expects: Expect::Rebalance,
        kind: Kind::Rebalance,
    },
];

const DIURNAL_TRACE_SIM_S: u64 = 120;
const STEADY_CLIENTS: u32 = 1_000;
const POOLED_CLIENTS: u32 = 100_000;
/// Sim-seconds between analytic scans on `rebalance-replicated`.
const SCAN_EVERY_SIM_S: u64 = 5;

impl Spec {
    /// Look a workload up by name.
    pub fn find(name: &str) -> Option<&'static Spec> {
        SPECS.iter().find(|s| s.name == name)
    }

    /// Slices in the measured window.
    pub fn slices(&self) -> usize {
        (self.measure_sim_s * 1000 / SLICE_SIM_MS) as usize
    }

    /// Reps that fit `seconds` of measuring; never fewer than two, so
    /// the determinism check and the per-slice minimum have a pair.
    pub fn reps(&self, seconds: u64) -> usize {
        ((seconds as f64 / self.rep_host_s) as usize).max(2)
    }
}

/// ×40 per-operation CPU: the full SQL-layer work on wimpy cores, so the
/// client load saturates nodes (same calibration as `energy_scorecard`
/// and the Fig. 6 harness).
fn heavy_costs() -> CostParams {
    let mut c = CostParams::default();
    c.index_node_visit = c.index_node_visit * 40;
    c.record_read = c.record_read * 40;
    c.record_write = c.record_write * 40;
    c.log_append = c.log_append * 40;
    c.buffer_hit = c.buffer_hit * 40;
    c
}

fn diurnal_trace() -> LoadTrace {
    LoadTrace::diurnal(DiurnalConfig {
        min_clients: 40,
        max_clients: 800,
        period: SimDuration::from_secs(120),
        phase: 0.0,
        step: SimDuration::from_secs(WINDOW_SIM_S),
        horizon: SimDuration::from_secs(DIURNAL_TRACE_SIM_S),
        tenant: TenantSpec::default(),
    })
}

/// Cumulative engine counters at one instant, summed over nodes. The
/// per-layer metrics are differences of two of these.
#[derive(Debug, Clone, Default)]
pub struct Counters {
    pub sim_us: u64,
    pub completed: u64,
    pub aborted: u64,
    pub events: u64,
    pub commits: u64,
    pub lock_waits: u64,
    pub deadlocks: u64,
    pub buf_hits: u64,
    pub buf_misses: u64,
    pub buf_remote_hits: u64,
    pub buf_evictions: u64,
    pub buf_writebacks: u64,
    pub disk_reads: u64,
    pub disk_writes: u64,
    pub disk_wait_us: u64,
    /// Service time per drive, in node then drive order.
    pub disk_service_us: Vec<u64>,
    pub wal_flushed_bytes: u64,
    pub wal_flushes: u64,
    /// Log records currently held in memory.
    pub wal_records: u64,
    pub net_tx_bytes: u64,
    pub net_tx_msgs: u64,
    pub net_wait_us: u64,
    pub cpu_service_us: u64,
    pub cpu_wait_us: u64,
    pub cpu_max_queue: u64,
}

/// Whole-run response times from the engine's histogram.
#[derive(Debug, Clone, Copy)]
pub struct Response {
    pub mean_ms: f64,
    pub p95_ms: f64,
    pub samples: u64,
}

/// The last completed rebalance.
#[derive(Debug, Clone, Copy)]
pub struct Migration {
    pub sim_s: f64,
    pub segments_moved: u64,
    pub bytes_moved: u64,
    pub heat_moved_share: f64,
}

/// What is read once, after the measured window.
#[derive(Debug, Clone)]
pub struct EndState {
    /// Mean per-transaction milliseconds by Fig. 7 category (logging,
    /// latching, locking, network, disk, cpu) in the normal phase.
    pub fig7_normal: [f64; 6],
    /// The same while a rebalance was in flight (zeros when none was).
    pub fig7_rebalancing: [f64; 6],
    /// Rebalancing ÷ normal mean profile total (0 when either is absent).
    pub resp_ratio: f64,
    pub migration: Option<Migration>,
    pub pool_carriers: u64,
    pub pool_weight: u64,
    pub rated_watts: f64,
    pub scans: u64,
    pub scan_rows: u64,
    pub scan_dispatch_ns: u64,
}

/// A built deployment running one rep of a workload.
pub struct Deployment {
    db: WattDb,
    spec: &'static Spec,
    /// Live records right after the load.
    pub loaded_records: usize,
    scans: u64,
    scan_rows: u64,
    scan_dispatch_ns: u64,
}

impl Deployment {
    /// `setup.build`: configure the cluster and load TPC-C.
    pub fn build(spec: &'static Spec, seed: u64) -> Self {
        let b = WattDb::builder()
            .scheme(Scheme::Physiological)
            .warehouses(8)
            .seed(seed)
            .monitoring(SimDuration::from_secs(WINDOW_SIM_S))
            .telemetry(true);
        let db = match spec.kind {
            Kind::Steady | Kind::Pooled => b
                .nodes(6)
                .density(0.05)
                .segment_pages(16)
                .initial_data_nodes(&[NodeId(0), NodeId(1), NodeId(2)])
                .client_batching(if spec.kind == Kind::Pooled {
                    ClientBatching::Pooled
                } else {
                    ClientBatching::PerClient
                })
                .build(),
            Kind::Diurnal => b
                .nodes(4)
                .density(0.02)
                .segment_pages(8)
                .costs(heavy_costs())
                .initial_data_nodes(&[NodeId(0), NodeId(1)])
                .client_batching(ClientBatching::Pooled)
                .autopilot(true)
                .build(),
            Kind::Rebalance => b
                .nodes(10)
                .density(0.05)
                .segment_pages(16)
                .io_scale(400)
                .costs(heavy_costs())
                .bucket(SimDuration::from_secs(WINDOW_SIM_S))
                .initial_data_nodes(&[NodeId(0), NodeId(1)])
                .replication(1)
                .build(),
        };
        let loaded_records = db.live_records();
        Self {
            db,
            spec,
            loaded_records,
            scans: 0,
            scan_rows: 0,
            scan_dispatch_ns: 0,
        }
    }

    /// `setup.start`: spawn the closed-loop clients.
    pub fn start(&mut self) {
        match self.spec.kind {
            Kind::Steady => self
                .db
                .start_oltp(STEADY_CLIENTS, SimDuration::from_secs(10)),
            Kind::Pooled => self
                .db
                .start_oltp(POOLED_CLIENTS, SimDuration::from_secs(10)),
            Kind::Diurnal => self
                .db
                .start_traced_oltp(diurnal_trace(), SimDuration::from_secs(2)),
            Kind::Rebalance => self.db.start_oltp(80, SimDuration::from_millis(50)),
        }
    }

    /// `setup.warmup`: run the unmeasured lead-in.
    pub fn warm_up(&mut self) {
        self.db
            .run_for(SimDuration::from_secs(self.spec.warm_sim_s));
    }

    /// Control actions due at the start of measured slice `i`; their host
    /// time is part of that slice.
    pub fn control(&mut self, i: usize, tracer: &mut Tracer) {
        let sim_ms = i as u64 * SLICE_SIM_MS;
        match self.spec.kind {
            Kind::Rebalance => {
                if i == 0 {
                    let span = tracer.start("control.rebalance");
                    let (sources, targets) = ([NodeId(0), NodeId(1)], [NodeId(2), NodeId(3)]);
                    let plan = self.db.plan_scale_out(&sources, &targets);
                    self.db.rebalance_planned(&plan, &targets);
                    tracer.end(span);
                }
                if sim_ms.is_multiple_of(SCAN_EVERY_SIM_S * 1000) {
                    let span = tracer.start("control.scan");
                    let t = Instant::now();
                    let report = self.db.scan(
                        TpccTable::OrderLine.table_id(),
                        warehouse_range(0, 4),
                        Some(AggFunc::Sum),
                    );
                    self.scan_dispatch_ns += t.elapsed().as_nanos() as u64;
                    tracer.end(span);
                    self.scans += 1;
                    self.scan_rows += report.rows;
                }
            }
            Kind::Diurnal => {
                if sim_ms == DIURNAL_TRACE_SIM_S * 1000 {
                    self.db.stop_clients();
                }
            }
            Kind::Steady | Kind::Pooled => {}
        }
    }

    /// One measured slice.
    pub fn run_slice(&mut self) {
        self.db.run_for(SimDuration::from_millis(SLICE_SIM_MS));
    }

    /// One measured slice, driven event by event so each `Sim::step` can
    /// be timed: a sentinel event marks the slice boundary, and events
    /// already due at the boundary instant are drained after it so the
    /// slice ends in the state `run_for` would leave. The sentinel is one
    /// extra kernel event per slice. Returns events pending afterwards.
    pub fn run_slice_stepped(&mut self, steps: &mut Log2Hist) -> usize {
        self.db.with_runtime(|_, sim| {
            let fired = Rc::new(Cell::new(false));
            let flag = fired.clone();
            let boundary = sim.now() + SimDuration::from_millis(SLICE_SIM_MS);
            sim.schedule(boundary, move |_| flag.set(true));
            while !fired.get() {
                let t = Instant::now();
                let stepped = sim.step();
                steps.record(t.elapsed().as_nanos() as u64);
                assert!(stepped, "the sentinel is always pending");
            }
            sim.run_until(boundary);
            sim.pending()
        })
    }

    /// Counter snapshot.
    pub fn counters(&self) -> Counters {
        let mut k = Counters {
            sim_us: self.db.now().as_micros(),
            completed: self.db.completed(),
            aborted: self.db.aborted(),
            events: self.db.events_executed(),
            ..Counters::default()
        };
        self.db.with_cluster(|c| {
            k.commits = c.txn.commit_count();
            k.lock_waits = c.txn.locks.wait_count();
            k.deadlocks = c.txn.locks.deadlock_count();
            for n in &c.nodes {
                let b = n.buffer.stats();
                k.buf_hits += b.hits;
                k.buf_misses += b.misses;
                k.buf_remote_hits += b.remote_hits;
                k.buf_evictions += b.evictions;
                k.buf_writebacks += b.writebacks;
                for d in &n.disks {
                    k.disk_reads += d.read_count();
                    k.disk_writes += d.write_count();
                    let s = d.resource().borrow().stats();
                    k.disk_wait_us += s.wait_us;
                    k.disk_service_us.push(s.service_us);
                }
                k.wal_flushed_bytes += n.log.flushed_bytes();
                k.wal_flushes += n.log.flush_count();
                k.wal_records += n.log.len() as u64;
                let cpu = n.cpu.borrow().stats();
                k.cpu_service_us += cpu.service_us;
                k.cpu_wait_us += cpu.wait_us;
                k.cpu_max_queue = k.cpu_max_queue.max(cpu.max_queue as u64);
                let nic = c.net.stats(n.id);
                k.net_tx_bytes += nic.tx_bytes;
                k.net_tx_msgs += nic.tx_messages;
                k.net_wait_us += c.net.tx_resource(n.id).borrow().stats().wait_us;
            }
        });
        k
    }

    /// Live record keys across every segment index.
    pub fn live_records(&self) -> usize {
        self.db.live_records()
    }

    /// The flight recorder as JSONL.
    pub fn export(&self) -> String {
        self.db.export_timeline_string()
    }

    /// Whole-run response time. The engine's histogram only answers
    /// "upper bound of the log₂ bucket holding this percentile", so the
    /// p95 is interpolated inside that bucket from ranks recovered through
    /// the same call (see `stats::interpolated_percentile`).
    pub fn response(&self) -> Response {
        self.db.with_cluster(|c| {
            let h = &c.metrics.response_hist;
            let n = h.count();
            let bound_at_rank = |rank: u64| {
                h.percentile(100.0 * (rank as f64 - 0.5) / n as f64)
                    .as_micros()
            };
            Response {
                mean_ms: h.mean().as_millis_f64(),
                p95_ms: interpolated_percentile(n, 95.0, bound_at_rank) / 1000.0,
                samples: n,
            }
        })
    }

    /// Read-once state after the measured window.
    pub fn end_state(&self) -> EndState {
        let fig7 = |phase: Phase| {
            self.db
                .with_cluster(|c| c.metrics.mean_profile(phase))
                .map(|p| {
                    let ms = |cat| p.get(cat).as_millis_f64();
                    (
                        [
                            ms(CostCategory::Logging),
                            ms(CostCategory::Latching),
                            ms(CostCategory::Locking),
                            ms(CostCategory::NetworkIo),
                            ms(CostCategory::DiskIo),
                            ms(CostCategory::Cpu),
                        ],
                        p.total().as_millis_f64(),
                    )
                })
        };
        let normal = fig7(Phase::Normal);
        let rebalancing = fig7(Phase::Rebalancing);
        let resp_ratio = match (normal, rebalancing) {
            (Some((_, n)), Some((_, r))) if n > 0.0 => r / n,
            _ => 0.0,
        };
        let migration = self.db.last_rebalance().map(|r| Migration {
            sim_s: r.finished.since(r.started).as_secs_f64(),
            segments_moved: r.segments_moved,
            bytes_moved: r.bytes_moved,
            heat_moved_share: if r.heat_planned > 0.0 {
                r.heat_moved / r.heat_planned
            } else {
                0.0
            },
        });
        let (pool_carriers, pool_weight) = match self.spec.kind {
            Kind::Steady | Kind::Rebalance => (0, 0),
            Kind::Pooled | Kind::Diurnal => self.db.with_cluster(|c| {
                c.pool
                    .as_ref()
                    .map_or((0, 0), |p| (c.clients.len() as u64, p.weight()))
            }),
        };
        EndState {
            fig7_normal: normal.map_or([0.0; 6], |(v, _)| v),
            fig7_rebalancing: rebalancing.map_or([0.0; 6], |(v, _)| v),
            resp_ratio,
            migration,
            pool_carriers,
            pool_weight,
            rated_watts: self.db.rated_peak_watts().0,
            scans: self.scans,
            scan_rows: self.scan_rows,
            scan_dispatch_ns: self.scan_dispatch_ns,
        }
    }

    /// Host µs of one heat-aware scale-out plan over the live heat table
    /// (every powered node a source, the first standby the target).
    pub fn plan_scale_out_us(&self) -> f64 {
        let sources = self.db.active_nodes();
        let nodes = self.db.with_cluster(|c| c.nodes.len() as u16);
        let target = (0..nodes)
            .map(NodeId)
            .find(|n| !sources.contains(n))
            .unwrap_or(NodeId(nodes - 1));
        best_of(5, || {
            let t = Instant::now();
            black_box(self.db.plan_scale_out(&sources, &[target]));
            t.elapsed().as_nanos() as f64 / 1000.0
        })
    }
}

/// What the timeline export says about the measured window.
#[derive(Debug, Clone, Default)]
pub struct TimelineFacts {
    /// Window samples in the export.
    pub windows: u64,
    /// Samples the recorder's ring evicted (must be 0).
    pub samples_dropped: u64,
    /// `energy.joules` over the measured window.
    pub joules: f64,
    /// `txn.completed` over the same windows.
    pub committed: u64,
    /// `replica.shipped_bytes` over the same windows.
    pub shipped_bytes: u64,
    /// Largest `replica.lag_max` in a measured window.
    pub lag_max: f64,
    /// Σ over measured windows of nodes powered.
    pub node_windows: u64,
    pub scale_out: u64,
    pub scale_in: u64,
    pub rebalance: u64,
    pub hold: u64,
    pub deferred: u64,
}

/// Parse a timeline export and difference its cumulative gauges between
/// the window that closed at the end of the warm-up and the last one.
pub fn timeline_facts(export: &str, warm_sim_s: u64) -> Result<TimelineFacts, String> {
    let t = wattdb_telemetry::parse_jsonl(export).map_err(|e| format!("timeline: {e:?}"))?;
    let from = SimTime::from_secs(warm_sim_s);
    let zero = std::collections::BTreeMap::new();
    let start = t
        .samples
        .iter()
        .find(|s| s.at == from)
        .map_or(&zero, |s| &s.values);
    if warm_sim_s > 0 && start.is_empty() {
        return Err(format!("timeline: no window closed at {warm_sim_s} sim-s"));
    }
    let last = &t
        .samples
        .last()
        .ok_or("timeline: no window samples")?
        .values;
    let delta = |name: &str| {
        last.get(name).copied().unwrap_or(0.0) - start.get(name).copied().unwrap_or(0.0)
    };
    let mut f = TimelineFacts {
        windows: t.samples.len() as u64,
        samples_dropped: t.meta.samples_dropped,
        joules: delta("energy.joules"),
        committed: delta("txn.completed") as u64,
        shipped_bytes: delta("replica.shipped_bytes") as u64,
        ..TimelineFacts::default()
    };
    for s in t.samples.iter().filter(|s| s.at > from) {
        f.lag_max = f.lag_max.max(s.value("replica.lag_max").unwrap_or(0.0));
        f.node_windows += s
            .values
            .iter()
            .filter(|(k, v)| k.starts_with("node.") && k.ends_with(".active") && **v > 0.5)
            .count() as u64;
    }
    for d in t.decisions.iter().filter(|d| d.at > from) {
        let applied = d.outcome == "applied";
        if d.outcome.starts_with("deferred") {
            f.deferred += 1;
        } else if d.decision == "Hold" {
            f.hold += 1;
        } else if applied && d.decision.starts_with("ScaleOut") {
            f.scale_out += 1;
        } else if applied && d.decision.starts_with("ScaleIn") {
            f.scale_in += 1;
        } else if applied && d.decision.starts_with("Rebalance") {
            f.rebalance += 1;
        }
    }
    Ok(f)
}

/// The energy scorecard's verdict on an export.
#[derive(Debug, Clone, Copy, Default)]
pub struct Score {
    pub mean_watts: f64,
    pub proportionality_rated: f64,
    pub p95_ceiling_ms: f64,
}

/// Grade an export against the deployment's rated peak.
pub fn score(export: &str, rated_watts: f64) -> Result<Score, String> {
    let card = wattdb_energy::score_jsonl(export, &[], wattdb_common::Watts(rated_watts))
        .map_err(|e| format!("scorecard: {e:?}"))?;
    Ok(Score {
        mean_watts: card.mean_watts,
        proportionality_rated: card.proportionality_rated,
        p95_ceiling_ms: card.p95_ceiling_ms,
    })
}

// ------------------------------------------------------------ micro-drivers

/// Best (smallest) of `batches` readings.
fn best_of(batches: usize, mut reading: impl FnMut() -> f64) -> f64 {
    (0..batches)
        .map(|_| reading())
        .fold(f64::INFINITY, f64::min)
}

/// Time `ops` calls of `op` on state made fresh by `fresh` for each of
/// five batches; best batch, in ns per call.
fn micro<S>(
    tracer: &mut Tracer,
    name: &str,
    ops: u64,
    mut fresh: impl FnMut() -> S,
    mut op: impl FnMut(&mut S, u64),
) -> f64 {
    let span = tracer.start(name);
    let ns = best_of(5, || {
        let mut state = fresh();
        let t = Instant::now();
        for i in 0..ops {
            op(&mut state, i);
        }
        let ns = t.elapsed().as_nanos() as f64 / ops as f64;
        black_box(&state);
        ns
    });
    tracer.end(span);
    ns
}

/// Drive the layers' public functions directly: metric name → ns per
/// operation. These are the single-layer costs an optimisation of that
/// layer moves first; none of them touches a deployment.
pub fn micros(tracer: &mut Tracer, seed: u64) -> Vec<(&'static str, f64)> {
    let mut out = Vec::new();
    let seg = SegmentId(1);

    let full_tree = || {
        let mut t = BPlusTree::new();
        for i in 0..100_000u64 {
            t.insert(Key(i), i);
        }
        t
    };
    out.push((
        "btree.get_ns",
        micro(
            tracer,
            "micro.index.btree_get",
            200_000,
            full_tree,
            |t, i| {
                black_box(t.get(Key((i * 54_321) % 100_000)).0);
            },
        ),
    ));
    out.push((
        "btree.insert_ns",
        micro(
            tracer,
            "micro.index.btree_insert",
            20_000,
            BPlusTree::<u64>::new,
            |t, i| {
                t.insert(Key((i * 2_654_435_761) % 1_000_003), i);
            },
        ),
    ));

    let warm_pool = || {
        let mut bp = BufferPool::new(1024);
        for i in 0..1024u32 {
            bp.fetch_pin(PageId::new(seg, i));
            bp.unpin(PageId::new(seg, i), false);
        }
        bp
    };
    out.push((
        "buffer.fetch_hit_ns",
        micro(
            tracer,
            "micro.storage.buffer_hit",
            200_000,
            warm_pool,
            |bp, i| {
                let p = PageId::new(seg, ((i * 37) % 1024) as u32);
                black_box(bp.fetch_pin(p));
                bp.unpin(p, false);
            },
        ),
    ));
    out.push((
        "buffer.fetch_miss_ns",
        micro(
            tracer,
            "micro.storage.buffer_miss",
            50_000,
            || BufferPool::new(256),
            |bp, i| {
                let p = PageId::new(seg, i as u32);
                black_box(bp.fetch_pin(p));
                bp.unpin(p, false);
            },
        ),
    ));
    // A page holds ~100 such records; a fresh page every 64 inserts.
    out.push((
        "page.insert_ns",
        micro(
            tracer,
            "micro.storage.page_insert",
            64_000,
            SlottedPage::new,
            |p, i| {
                if i % 64 == 0 {
                    *p = SlottedPage::new();
                }
                p.insert(b"payload.", 64).expect("64 records fit a page");
            },
        ),
    ));

    out.push((
        "locks.acquire_release_ns",
        micro(
            tracer,
            "micro.txn.lock_cycle",
            50_000,
            LockManager::new,
            |lm, i| {
                let txn = TxnId(i + 1);
                lm.acquire(txn, LockTarget::Table(TableId(1)), LockMode::IX);
                lm.acquire(
                    txn,
                    LockTarget::Record(TableId(1), Key(i % 1000)),
                    LockMode::X,
                );
                black_box(lm.release_all(txn));
            },
        ),
    ));

    let versioned = || {
        let mut store = PageStore::new();
        store.add_segment(seg);
        let mut idx = SegmentIndex::new(seg, KeyRange::all());
        for i in 0..10_000u64 {
            let rec = Record::new(Key(i), 1, 64, vec![0; 8]);
            let (rid, _) = store
                .insert_record(seg, &rec, u32::MAX)
                .expect("unbounded segment takes the record");
            idx.insert(Key(i), rid);
        }
        (idx, store)
    };
    let snap = Snapshot {
        ts: 100,
        txn: TxnId(99),
    };
    out.push((
        "mvcc.read_ns",
        micro(tracer, "micro.txn.mvcc_read", 100_000, versioned, |s, i| {
            black_box(mvcc::read(&s.0, &s.1, Key((i * 7_919) % 10_000), snap).expect("key loaded"));
        }),
    ));

    out.push((
        "wal.append_ns",
        micro(
            tracer,
            "micro.wal.append",
            50_000,
            LogManager::new,
            |log, i| {
                black_box(log.append(
                    TxnId(i),
                    LogPayload::Update {
                        segment: seg,
                        before: vec![0; 64],
                        after: vec![1; 64],
                    },
                ));
            },
        ),
    ));

    // Schedule + dispatch of a no-op event with 10 000 timers pending.
    let busy_sim = || {
        let mut sim = Sim::new();
        for i in 0..10_000u64 {
            sim.schedule(SimTime::from_secs(3_600 + i), |_| {});
        }
        sim
    };
    out.push((
        "kernel.schedule_step_ns",
        micro(
            tracer,
            "micro.sim.schedule_step",
            200_000,
            busy_sim,
            |sim, _| {
                sim.after(SimDuration::from_micros(50), |_| {});
                sim.step();
            },
        ),
    ));

    let cost = CostVector {
        cpu: SimDuration::from_micros(12),
        pages: 1,
        net_bytes: 0,
    };
    out.push((
        "heat.record_access_ns",
        micro(
            tracer,
            "micro.core.heat_record",
            200_000,
            || HeatTable::with_cost_model(HeatConfig::default(), Some(CostModel::default())),
            |heat, i| {
                heat.record_access(
                    SegmentId(i % 256),
                    SimTime::from_micros(i * 100),
                    AccessKind::Read,
                    cost,
                    false,
                );
            },
        ),
    ));

    // One pool tick at the 100k-client split: a Bernoulli draw per
    // thinking carrier, arrivals parked again so the set stays full.
    let (carriers, weight) = carrier_split(POOLED_CLIENTS);
    out.push((
        "pool.arrivals_ns",
        micro(
            tracer,
            "micro.tpcc.pool_arrivals",
            2_000,
            || {
                ClientPool::new(
                    carriers,
                    weight,
                    POOLED_CLIENTS as u64,
                    SimDuration::from_secs(10),
                    DetRng::new(seed),
                )
            },
            |pool, _| {
                for (carrier, _) in pool.arrivals() {
                    pool.park(carrier);
                }
            },
        ),
    ));
    out
}
