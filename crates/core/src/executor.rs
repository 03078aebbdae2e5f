//! The transaction executor: closed-loop OLTP over the simulated cluster.
//!
//! Each client transaction is a [`TxnJob`] advancing through its record
//! operations as a small state machine. Everything that costs time becomes
//! a simulator action — CPU slices on the executing node's cores, page
//! fetches through the buffer pool (misses queue on the segment's disk),
//! network hops when an operation's owner is another node, lock waits, and
//! the group-commit log flush (at once when the node's log has no flush in
//! flight, after the [`GROUP_COMMIT`] window when it has) — and every wait
//! is attributed to a Fig. 7 cost category.
//!
//! A wait's continuation is data, not a closure: the job id, the category
//! and the time the wait began ride in a [`Signal`] through the kernel and
//! come back through the one handler [`install`] sets up, so a step
//! allocates nothing and captures nothing.
//!
//! ITEM is treated as a read-only replicated table (the standard
//! distributed-TPC-C arrangement): item lookups execute locally and never
//! route.
//!
//! Beyond simulator actions, every operation accumulates its **actual
//! operator cost** — a [`CostVector`] of core CPU, buffer-pool page
//! touches, and remote-fetch bytes, the same currency the query crate's
//! `CostTrace` collapses into — and charges it to the segment's heat
//! at apply time. With a cost model configured (the default) the heat
//! signal therefore measures the *work* each segment causes; with cost
//! tracing off the same one call (`HeatTable::record_access_n`) prices
//! the access at the flat per-access weights instead, the weighted-count
//! signal. All per-operation prices come from the shared
//! [`wattdb_query::CostParams`] calibration — the executor keeps no
//! constants of its own.

use wattdb_common::{
    ByteSize, CostVector, Error, Key, NodeId, PageId, PartitionId, Rank, SegmentId, SimDuration,
    SimTime, TxnId,
};
use wattdb_query::CostParams;
use wattdb_sim::Completion::{self, Detached};
use wattdb_sim::{CostCategory, CostProfile, Resource, Signal, Sim};
use wattdb_storage::{Fetch, PAGE_SIZE};
use wattdb_tpcc::{Op, OpKind, TpccTable, TxnProfile};
use wattdb_txn::{CcMode, Grant, LockAcquire, LockMode, LockTarget};
use wattdb_wal::LogPayload;

use crate::cluster::{Cluster, ClusterRc, FlushBatch};

/// Bytes a page costs the interconnect: the page plus its message header.
const PAGE_ON_WIRE: u64 = PAGE_SIZE as u64 + 64;

/// How long a commit behind a flush of its log in flight waits for company.
pub const GROUP_COMMIT: SimDuration = SimDuration::from_millis(2);

/// Who is waiting on a queued lock request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Waiter {
    /// An executor job.
    Job(u64),
    /// A migration step (resumed by the move controller).
    Mover(u64),
}

/// Per-operation progress.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum OpStage {
    /// Resolve routing, switch nodes, acquire locks.
    Start,
    /// Charge the operation's CPU.
    Cpu,
    /// Fetch the data page.
    Io,
    /// Apply the engine mutation and advance.
    Apply,
}

/// One in-flight transaction.
pub struct TxnJob {
    /// Job id.
    pub id: u64,
    /// Index into `cluster.clients`.
    pub client: usize,
    /// Profile (for reporting).
    pub profile: TxnProfile,
    ops: Vec<Op>,
    next_op: usize,
    stage: OpStage,
    /// Engine transaction.
    pub txn: TxnId,
    /// Submission time of the current attempt.
    pub started: SimTime,
    current_node: NodeId,
    routed: bool,
    locks_acquired: usize,
    /// Set while parked on a lock.
    pub lock_wait_started: Option<SimTime>,
    /// The current op's routed owner, serving node and segment.
    cur: Option<(NodeId, NodeId, SegmentId)>,
    /// Accumulated CPU not yet charged.
    cpu_accum: SimDuration,
    /// Hardware demand of the current operation attempt, charged to the
    /// segment's cost-heat at apply time.
    op_cost: CostVector,
    /// Did the current operation need a remote page fetch?
    op_remote: bool,
    /// Per-category time attribution.
    pub costs: CostProfile,
    write_nodes: Vec<NodeId>,
    /// Outstanding log-flush acknowledgements at commit.
    pub commit_pending: u32,
    /// When the commit wait began.
    pub commit_wait_started: SimTime,
    retries: u32,
    /// Modeled transactions this job stands in for: 1 in per-client mode,
    /// the pool's carrier weight in pooled mode. Metrics, heat, and
    /// resource occupancy scale by it; the executed control flow (and
    /// therefore per-client determinism) does not depend on it.
    pub weight: u64,
}

/// What the job must do next (computed under the cluster borrow, executed
/// by [`step`] outside it).
enum Action {
    /// Re-enter `advance` immediately.
    Loop,
    /// Occupy the node's CPU, then re-enter.
    Cpu(NodeId, SimDuration, CostCategory),
    /// Read one page from a disk, then re-enter.
    DiskRead(NodeId, u8),
    /// Remote page fetch: disk on the storage node plus a page-sized
    /// network transfer (physical partitioning's penalty).
    RemoteRead {
        /// Node executing the query.
        exec: NodeId,
        /// Node storing the segment.
        storage: NodeId,
        /// Disk index on the storage node.
        disk: u8,
    },
    /// Page served from the rDMA remote-buffer tier: one round trip.
    RemoteBufferFetch(NodeId),
    /// Forward the transaction to another node.
    Hop {
        /// Source.
        from: NodeId,
        /// Destination.
        to: NodeId,
    },
    /// Parked on a lock; a grant resumes the job.
    Parked,
    /// Waiting for the group-commit flush.
    CommitWait,
    /// Transaction finished (read-only or after flush).
    Finished,
    /// Abort: retry after backoff.
    Retry,
}

/// What [`Cluster::advance`] hands to [`step`]: the blocking action, and
/// what scheduling it needs of the job.
struct Blocked {
    action: Action,
    /// [`TxnJob::weight`].
    weight: u64,
    /// Residual CPU the cores must still be occupied with before an I/O
    /// action (zero otherwise).
    occupy: SimDuration,
}

impl Cluster {
    /// Create a job for `client`'s next transaction, its profile drawn
    /// from the client's tenant mix.
    pub fn new_job(&mut self, client: usize, now: SimTime) -> u64 {
        let weight = self.pool.as_ref().map_or(1, |p| p.weight_of(client as u32));
        let workload = self.workload.as_mut().expect("dataset loaded");
        let cl = &mut self.clients[client];
        let profile = cl.next_profile();
        // The slot's last tenant lends its box and its lists' capacity.
        let (id, mut recycled) = self.jobs.alloc();
        let (mut ops, mut write_nodes) = match &mut recycled {
            Some(old) => (
                std::mem::take(&mut old.ops),
                std::mem::take(&mut old.write_nodes),
            ),
            None => Default::default(),
        };
        write_nodes.clear();
        workload.generate_into(profile, cl.home_warehouse, cl.rng(), &mut ops);
        let job = TxnJob {
            id,
            client,
            profile,
            ops,
            next_op: 0,
            stage: OpStage::Start,
            txn: self.txn.begin(wattdb_txn::TxnKind::User),
            started: now,
            current_node: NodeId::MASTER,
            routed: false,
            locks_acquired: 0,
            lock_wait_started: None,
            cur: None,
            cpu_accum: SimDuration::ZERO,
            op_cost: CostVector::ZERO,
            op_remote: false,
            costs: CostProfile::default(),
            write_nodes,
            commit_pending: 0,
            commit_wait_started: SimTime::ZERO,
            retries: 0,
            weight,
        };
        self.jobs.check_in(match recycled {
            Some(mut slot) => {
                *slot = job;
                slot
            }
            None => Box::new(job),
        });
        id
    }

    /// Advance `job_id` until it blocks. The job is checked out of the slab
    /// for the whole step — every stage works on it directly instead of
    /// looking it up again — and is back before anything else can ask for
    /// it. `charge` is the wait that just ended, if the step resumes from
    /// one.
    fn advance(
        &mut self,
        reader: Rank,
        job_id: u64,
        charge: Option<(CostCategory, SimDuration)>,
    ) -> Blocked {
        let Some(mut job) = self.jobs.check_out(job_id) else {
            return Blocked {
                action: Action::Finished,
                weight: 1,
                occupy: SimDuration::ZERO,
            };
        };
        if let Some((cat, waited)) = charge {
            job.costs.record(cat, waited);
        }
        let mut action = Action::Loop;
        while matches!(action, Action::Loop) {
            action = self.advance_stage(reader, &mut job);
        }
        // CPU accumulates between genuine blocking points. A CPU action
        // carries it along; an I/O boundary puts it on the job's profile
        // and leaves `step` to occupy the cores with it (the job is about
        // to wait on I/O anyway, but the cycles must consume capacity or
        // utilization — and the monitor/power model — would undercount).
        // Pooled carriers occupy the cores with all `weight` modeled
        // shares; the profile records the one executed share.
        let mut occupy = SimDuration::ZERO;
        match &mut action {
            Action::Cpu(_, dur, _) => *dur += std::mem::take(&mut job.cpu_accum),
            Action::DiskRead(..) | Action::RemoteRead { .. } => {
                let dur = std::mem::take(&mut job.cpu_accum);
                if dur > SimDuration::ZERO {
                    job.costs.record(CostCategory::Cpu, dur);
                    occupy = SimDuration::from_micros(dur.as_micros() * job.weight);
                }
            }
            _ => {}
        }
        let weight = job.weight;
        self.jobs.check_in(job);
        Blocked {
            action,
            weight,
            occupy,
        }
    }

    /// One stage of `job`'s state machine.
    fn advance_stage(&mut self, reader: Rank, job: &mut TxnJob) -> Action {
        let now = reader.at;
        // One-time master routing work per transaction.
        if !job.routed {
            job.routed = true;
            let route = self.cfg.costs.txn_route;
            return Action::Cpu(NodeId::MASTER, route, CostCategory::Cpu);
        }
        if job.next_op >= job.ops.len() {
            return self.begin_commit(now, job);
        }
        let op = job.ops[job.next_op];
        match job.stage {
            OpStage::Start => self.op_start(reader, job, op),
            OpStage::Cpu => self.op_cpu(job, op),
            OpStage::Io => self.op_io(job, op),
            OpStage::Apply => self.op_apply(now, job, op),
        }
    }

    fn op_start(&mut self, reader: Rank, job: &mut TxnJob, op: Op) -> Action {
        // ITEM: replicated read-only table — serve locally.
        if op.table == TpccTable::Item {
            job.cur = None;
            job.stage = OpStage::Cpu;
            return Action::Loop;
        }
        let table = op.table.table_id();
        // Dual-pointer resolution (§4.3): prefer the location whose top
        // index currently covers the key; fall back to the second pointer.
        let Ok(home) = self.home_of(table, op.key) else {
            // Unroutable key (shouldn't happen): skip the op.
            job.next_op += 1;
            return Action::Loop;
        };
        let Some((pid, owner, seg)) = home else {
            // Moving window edge: retry shortly via a tiny CPU spin.
            return Action::Cpu(
                job.current_node,
                self.cfg.costs.route_retry_spin,
                CostCategory::Other,
            );
        };
        // A dead owner cannot serve: spin until failover re-points the
        // routing (promotion rewrites the dual pointers within one
        // monitoring window).
        if self.is_failed(owner) {
            let cur = job.current_node;
            let spin_on = if self.is_failed(cur) {
                NodeId::MASTER
            } else {
                cur
            };
            return Action::Cpu(
                spin_on,
                self.cfg.costs.route_retry_spin,
                CostCategory::Other,
            );
        }
        // Read fan-out: an MVCC read in a transaction that has written
        // nothing yet may be served by a caught-up follower instead of the
        // leader. Staleness is bounded by the follower's acknowledged
        // shipping LSN; a transaction that has written anything keeps
        // reading leaders (read-your-writes).
        let node = if op.kind == OpKind::Read
            && self.cfg.replication > 0
            && self.txn.mode() == CcMode::Mvcc
            && job.write_nodes.is_empty()
        {
            let (at, w) = (job.current_node, job.weight);
            self.replication
                .route_read(seg, owner, at, w, reader, &self.nodes)
                .unwrap_or(owner)
        } else {
            owner
        };
        job.cur = Some((owner, node, seg));
        // Ship the operation to its owner if we're elsewhere.
        if job.current_node != node {
            let from = job.current_node;
            job.current_node = node;
            return Action::Hop { from, to: node };
        }
        // Locks, coarse to fine.
        let write = op.kind != OpKind::Read;
        let needed = self.locks_for(table, pid, seg, op.key, write);
        for &(target, mode) in needed.iter().flatten().skip(job.locks_acquired) {
            let txn = job.txn;
            match self.txn.locks.acquire(txn, target, mode) {
                LockAcquire::Granted => {
                    job.locks_acquired += 1;
                }
                LockAcquire::Waiting => {
                    job.lock_wait_started = Some(reader.at);
                    self.lock_waiters.insert(txn, Waiter::Job(job.id));
                    return Action::Parked;
                }
                LockAcquire::Deadlock => {
                    return Action::Retry;
                }
            }
        }
        job.stage = OpStage::Cpu;
        Action::Loop
    }

    fn locks_for(
        &self,
        table: wattdb_common::TableId,
        pid: PartitionId,
        seg: SegmentId,
        key: Key,
        write: bool,
    ) -> Option<[(LockTarget, LockMode); 4]> {
        let (intent, record) = match (self.txn.mode(), write) {
            (CcMode::Mvcc, false) => return None, // snapshot readers don't lock
            (_, true) => (LockMode::IX, LockMode::X),
            (CcMode::LockingRx, false) => (LockMode::IS, LockMode::S),
        };
        Some([
            (LockTarget::Table(table), intent),
            (LockTarget::Partition(pid), intent),
            (LockTarget::Segment(seg), intent),
            (LockTarget::Record(table, key), record),
        ])
    }

    fn op_cpu(&mut self, job: &mut TxnJob, op: Op) -> Action {
        let costs = self.cfg.costs;
        let height = match job.cur {
            Some((_, _, seg)) => self.indexes[&seg].height() as u64,
            None => 2, // ITEM replica
        };
        let cpu = op_cpu_cost(&costs, op.kind, height);
        job.stage = OpStage::Io;
        job.cpu_accum += cpu;
        job.op_cost.cpu += cpu;
        Action::Loop
    }

    fn op_io(&mut self, job: &mut TxnJob, op: Op) -> Action {
        let Some((_, exec_node, seg)) = job.cur else {
            // ITEM replica read: always buffer-resident.
            job.cpu_accum += self.cfg.costs.buffer_hit;
            job.stage = OpStage::Apply;
            return Action::Loop;
        };
        // The page to touch: the record's page for reads/updates/deletes,
        // the segment's fill page for inserts.
        let page: Option<PageId> = match op.kind {
            OpKind::Insert => {
                let n = self.store.page_count(seg);
                (n > 0).then(|| PageId::new(seg, (n - 1) as u32))
            }
            _ => self.indexes[&seg].get(op.key).0.map(|rid| rid.page),
        };
        job.stage = OpStage::Apply;
        let Some(page) = page else {
            return Action::Loop; // nothing resident to touch (miss read)
        };
        // Storage location: under physical partitioning a segment may be
        // stored away from its owner. A follower serving a routed read
        // holds its own log-shipped copy, so the page comes off the
        // executing node's local disk — that locality is the whole point
        // of read fan-out.
        let meta = self.seg_dir.get(seg).expect("segment meta");
        let follows = |n| self.replication.followers_of(seg).contains(&n);
        let (storage_node, disk) = if meta.node != exec_node && follows(exec_node) {
            (exec_node, self.data_disk(exec_node, seg).index)
        } else {
            (meta.node, meta.disk.index)
        };
        let writeback_latch = self.cfg.costs.writeback_latch;
        let buffer_hit = self.cfg.costs.buffer_hit;
        // Nothing happens between the fetch and the release, so the pin is
        // never observable: touch the frame in one probe.
        let buf = &mut self.nodes[exec_node.raw() as usize].buffer;
        match buf.touch(page, op.kind != OpKind::Read) {
            Fetch::Hit => {
                job.cpu_accum += buffer_hit;
                job.op_cost.cpu += buffer_hit;
                job.op_cost.pages += 1;
                Action::Loop
            }
            Fetch::Miss { writeback } => {
                if writeback.is_some() {
                    // Asynchronous writeback occupies the disk but does not
                    // block the job; buffer churn shows up as latching.
                    job.costs.record(CostCategory::Latching, writeback_latch);
                }
                job.op_cost.pages += 1;
                if storage_node == exec_node {
                    Action::DiskRead(storage_node, disk)
                } else {
                    // Physical partitioning's penalty — and the strongest
                    // heat signal for moving the segment to its users: the
                    // wire bytes fold into the operation's vector and the
                    // remote flag, both charged at apply.
                    job.op_remote = true;
                    job.op_cost.net_bytes += PAGE_ON_WIRE;
                    Action::RemoteRead {
                        exec: exec_node,
                        storage: storage_node,
                        disk,
                    }
                }
            }
            Fetch::RemoteHit { writeback } => {
                if writeback.is_some() {
                    job.costs.record(CostCategory::Latching, writeback_latch);
                }
                job.op_cost.pages += 1;
                job.op_remote = true;
                job.op_cost.net_bytes += PAGE_ON_WIRE;
                Action::RemoteBufferFetch(exec_node)
            }
        }
    }

    fn op_apply(&mut self, now: SimTime, job: &mut TxnJob, op: Op) -> Action {
        // Feed the heat table here, not in `op_start`: the start stage
        // re-runs after every hop and lock-wait resume, while the apply
        // stage executes exactly once per operation attempt. (ITEM
        // replica reads carry no `cur` and stay heat-free.) The operation's
        // accumulated CostVector — its *actual* operator cost — and its
        // remote flag are what gets charged; a count-mode table reduces
        // them to the flat per-access weights.
        if let Some((owner, node, seg)) = job.cur {
            let w = job.weight;
            // An off-leader read is a replica-served read (apply runs once
            // per operation, so this counts each fan-out exactly once —
            // or `weight` modeled fan-outs for a pooled carrier).
            if op.kind == OpKind::Read {
                self.replication.record_read(node, owner, w);
            }
            let kind = match op.kind {
                OpKind::Read => crate::heat::AccessKind::Read,
                _ => crate::heat::AccessKind::Write,
            };
            let cost = std::mem::take(&mut job.op_cost);
            let remote = std::mem::take(&mut job.op_remote);
            self.heat.record_access_n(seg, now, kind, cost, remote, w);
        }
        let result: Result<(), Error> = match job.cur {
            None => Ok(()), // ITEM replica read
            Some((_, node, seg)) => {
                let max_pages = u32::MAX; // segments soft-cap under load
                let width = op.table.row_width();
                let txn = job.txn;
                let idx = self.indexes.get_mut(&seg).expect("segment index");
                let r = match op.kind {
                    OpKind::Read => self.txn.sees(txn, idx, &self.store, op.key).map(|_| ()),
                    OpKind::Update => {
                        match self
                            .txn
                            .update(txn, idx, &mut self.store, max_pages, op.key, width)
                        {
                            Err(Error::KeyNotFound(_)) => Ok(()), // racing delete
                            other => other,
                        }
                    }
                    OpKind::Insert => {
                        self.txn
                            .insert(txn, idx, &mut self.store, max_pages, op.key, width)
                    }
                    OpKind::Delete => {
                        match self
                            .txn
                            .delete(txn, idx, &mut self.store, max_pages, op.key)
                        {
                            Err(Error::KeyNotFound(_)) => Ok(()),
                            other => other,
                        }
                    }
                };
                if r.is_ok() && op.kind != OpKind::Read {
                    // WAL append on the owner node: one image of the row
                    // for an insert or delete, before and after for an
                    // update.
                    let image = width + 32;
                    let payload = LogPayload::Change {
                        segment: seg,
                        image_bytes: match op.kind {
                            OpKind::Update => 2 * image,
                            _ => image,
                        },
                    };
                    let lsn = self.nodes[node.raw() as usize].log.append(txn, payload);
                    self.replication.record_write(seg, lsn);
                    if !job.write_nodes.contains(&node) {
                        job.write_nodes.push(node);
                    }
                }
                r
            }
        };
        match result {
            Ok(()) => {
                job.next_op += 1;
                job.stage = OpStage::Start;
                job.locks_acquired = 0;
                job.cur = None;
                job.op_cost = CostVector::ZERO;
                job.op_remote = false;
                Action::Loop
            }
            // An abort, a duplicate key or an unexpected engine error:
            // abort the attempt and retry.
            Err(_) => Action::Retry,
        }
    }

    fn begin_commit(&mut self, now: SimTime, job: &mut TxnJob) -> Action {
        // Flush any residual CPU before committing.
        if job.cpu_accum > SimDuration::ZERO {
            let dur = std::mem::take(&mut job.cpu_accum);
            let node = job.current_node;
            return Action::Cpu(node, dur, CostCategory::Cpu);
        }
        if job.write_nodes.is_empty() {
            return Action::Finished;
        }
        job.commit_pending = job.write_nodes.len() as u32;
        job.commit_wait_started = now;
        for &node in &job.write_nodes {
            let n = &mut self.nodes[node.raw() as usize];
            n.log.append(job.txn, LogPayload::Commit);
            n.commit_queue.push(job.id);
        }
        Action::CommitWait
    }
}

/// The CPU price of one record operation on an index of the given height,
/// from the shared [`CostParams`] calibration: index descent, the latch
/// pair, and the record/log work of the operation kind. This is the value
/// charged to the node's cores *and* to the segment's cost-heat — one
/// model, two consumers.
pub fn op_cpu_cost(costs: &CostParams, kind: OpKind, index_height: u64) -> SimDuration {
    let mut cpu = costs.index_node_visit * index_height + costs.latch_pair;
    cpu += match kind {
        OpKind::Read => costs.record_read,
        OpKind::Update => costs.record_read + costs.record_write + costs.log_append,
        OpKind::Insert => costs.record_write + costs.log_append,
        OpKind::Delete => costs.record_read + costs.record_write + costs.log_append,
    };
    cpu
}

/// Deliver the kernel's data events to the executor. Called once per
/// deployment, before anything is scheduled; the kernel owns the handler
/// and the handler the cluster, which does not point back.
pub fn install(cl: &ClusterRc, sim: &mut Sim) {
    let cl = cl.clone();
    sim.set_handler(move |sim, signal| match signal {
        Signal::Resume {
            job,
            category,
            since,
        } => {
            let waited = sim.now().since(since);
            run(&cl, sim, job, Some((category, waited)));
        }
        Signal::PageOffDisk {
            job,
            since,
            storage,
            exec,
        } => {
            // The remote read's second wait: the page goes on the wire.
            let disk_done = sim.now();
            let mut c = cl.borrow_mut();
            if let Some(job) = c.jobs.get_mut(job) {
                job.costs
                    .record(CostCategory::DiskIo, disk_done.since(since));
            }
            let arrived = resume(CostCategory::NetworkIo, disk_done, job);
            c.net
                .send(sim, storage, exec, ByteSize::bytes(PAGE_ON_WIRE), arrived);
        }
        Signal::Retry { job } => step(&cl, sim, job),
        Signal::FlushLog { node } => flush_node_log(&cl, sim, node),
        Signal::FlushDone { node, batch } => flush_done(&cl, sim, node, batch as usize),
        Signal::ClientArrival { client } => {
            let job = {
                let mut c = cl.borrow_mut();
                (!c.stopped).then(|| c.new_job(client as usize, sim.now()))
            };
            if let Some(job_id) = job {
                step(&cl, sim, job_id);
            }
        }
        Signal::PoolArrival { carrier } => {
            let job = {
                let mut c = cl.borrow_mut();
                if c.stopped {
                    // Stopped since the draw: the arrival is moot, but park
                    // the carrier so the pool's books stay balanced.
                    if let Some(pool) = c.pool.as_mut() {
                        pool.park(carrier);
                    }
                    None
                } else {
                    Some(c.new_job(carrier as usize, sim.now()))
                }
            };
            if let Some(job_id) = job {
                step(&cl, sim, job_id);
            }
        }
        Signal::Stage { slot, leg } => crate::replay::advance(&cl, sim, slot, leg),
        Signal::Mover { chain } => crate::migration::proceed(&cl, sim, chain),
    });
}

/// Drive `job` until it blocks, scheduling the blocking action's
/// continuation.
pub fn step(cl: &ClusterRc, sim: &mut Sim, job_id: u64) {
    run(cl, sim, job_id, None);
}

/// Continuation of a wait that began at `since`: charge it to `category`
/// on the job's profile and drive the job on.
fn resume(category: CostCategory, since: SimTime, job: u64) -> Completion {
    Signal::Resume {
        job,
        category,
        since,
    }
    .into()
}

fn run(cl: &ClusterRc, sim: &mut Sim, job_id: u64, charge: Option<(CostCategory, SimDuration)>) {
    let Blocked {
        action,
        weight: w,
        occupy,
    } = cl.borrow_mut().advance(sim.rank(), job_id, charge);
    let now = sim.now();
    // `w − 1`: a pooled carrier executes once on behalf of `w` modeled
    // transactions; the remaining shares occupy the same resources
    // detached, without blocking the job, so utilization (and the
    // monitor/power model) sees the modeled population's demand.
    match action {
        Action::Loop => unreachable!("advance runs until the job blocks"),
        Action::Cpu(node, dur, cat) => {
            let cpu = cl.borrow().nodes[node.raw() as usize].cpu.clone();
            Resource::submit(&cpu, sim, dur, resume(cat, now, job_id));
            if w > 1 {
                let extra = SimDuration::from_micros(dur.as_micros() * (w - 1));
                Resource::submit(&cpu, sim, extra, Detached);
            }
        }
        Action::DiskRead(node, disk) => {
            let mut c = cl.borrow_mut();
            let n = &mut c.nodes[node.raw() as usize];
            if occupy > SimDuration::ZERO {
                Resource::submit(&n.cpu, sim, occupy, Detached);
            }
            let drive = &mut n.disks[disk as usize];
            drive.read_page(sim, resume(CostCategory::DiskIo, now, job_id));
            if w > 1 {
                // The other modeled fetches are one bulk transfer.
                let extra = ByteSize::bytes(PAGE_SIZE as u64 * (w - 1));
                drive.bulk_transfer(sim, extra, Detached);
            }
        }
        Action::RemoteRead {
            exec,
            storage,
            disk,
        } => {
            // Remote disk read + page over the wire (physical scheme).
            let mut c = cl.borrow_mut();
            if occupy > SimDuration::ZERO {
                Resource::submit(&c.nodes[exec.raw() as usize].cpu, sim, occupy, Detached);
            }
            if w > 1 {
                // Bulk disk occupancy on the storage node plus the pages
                // on the wire.
                let pages = ByteSize::bytes(PAGE_SIZE as u64 * (w - 1));
                c.nodes[storage.raw() as usize].disks[disk as usize]
                    .bulk_transfer(sim, pages, Detached);
                let wire = ByteSize::bytes(PAGE_ON_WIRE * (w - 1));
                c.net.send(sim, storage, exec, wire, Detached);
            }
            let off_disk = Signal::PageOffDisk {
                job: job_id,
                since: now,
                storage,
                exec,
            };
            c.nodes[storage.raw() as usize].disks[disk as usize].read_page(sim, off_disk.into());
        }
        Action::RemoteBufferFetch(exec) => {
            // rDMA fetch from a helper's memory: round trip + page.
            let c = cl.borrow();
            let helper = c.helpers.helper_of(exec).unwrap_or(exec);
            if w > 1 {
                let wire = ByteSize::bytes(PAGE_ON_WIRE * (w - 1));
                c.net.send(sim, helper, exec, wire, Detached);
            }
            wattdb_net::round_trip(
                &c.net,
                sim,
                exec,
                helper,
                ByteSize::bytes(64),
                ByteSize::bytes(PAGE_SIZE as u64),
                SimDuration::from_micros(10),
                resume(CostCategory::NetworkIo, now, job_id),
            );
        }
        Action::Hop { from, to } => {
            let c = cl.borrow();
            if w > 1 {
                c.net
                    .send(sim, from, to, ByteSize::bytes(256 * (w - 1)), Detached);
            }
            c.net.send(
                sim,
                from,
                to,
                ByteSize::bytes(256),
                resume(CostCategory::NetworkIo, now, job_id),
            );
        }
        Action::Parked | Action::CommitWait => schedule_pending_flushes(cl, sim),
        Action::Finished => finish_job(cl, sim, job_id),
        Action::Retry => abort_and_retry(cl, sim, job_id),
    }
}

/// Ensure every node with queued commits has a flush scheduled: at once
/// when every [`FlushBatch`] slot is free (log disk and helper wire alike),
/// after [`GROUP_COMMIT`] behind a flush in flight. "At once" is a posted
/// event, so an ack inside `flush_done` cannot claim the slot it drains.
pub fn schedule_pending_flushes(cl: &ClusterRc, sim: &mut Sim) {
    for n in &mut cl.borrow_mut().nodes {
        if n.commit_queue.is_empty() || n.flush_scheduled {
            continue;
        }
        n.flush_scheduled = true;
        let busy = n.flushes.iter().any(|b| !b.jobs.is_empty());
        let window = GROUP_COMMIT * u64::from(busy);
        sim.post_after(window, Signal::FlushLog { node: n.id }.into());
    }
}

fn flush_node_log(cl: &ClusterRc, sim: &mut Sim, node: NodeId) {
    let c = &mut *cl.borrow_mut();
    let n = &mut c.nodes[node.raw() as usize];
    n.flush_scheduled = false;
    if n.commit_queue.is_empty() {
        return;
    }
    // Bill past the newest in-flight flush's end (a finished one's is durable).
    let ends = n.flushes.iter().map(|b| b.last_lsn);
    let from = ends.fold(n.log.durable_lsn(), Ord::max);
    let bytes = ByteSize::bytes(n.log.bytes_after(from).unwrap_or(0) as u64);
    // Under log shipping the flush *is* the shipment: the helper's
    // cursor moves to the log's end with it.
    let helper = c.helpers.ship(node, &n.log);
    // The queue trades places with the emptied list of a finished flush.
    let free = n.flushes.iter().position(|b| b.jobs.is_empty());
    let batch = free.unwrap_or_else(|| {
        n.flushes.push(FlushBatch::default());
        n.flushes.len() - 1
    });
    let b = &mut n.flushes[batch];
    std::mem::swap(&mut b.jobs, &mut n.commit_queue);
    b.last_lsn = n.log.last_lsn();
    let done = Signal::FlushDone {
        node,
        batch: batch as u32,
    };
    match helper {
        // Log shipping: the flush travels the wire instead of the disk.
        Some(h) => _ = c.net.send(sim, node, h, bytes, done.into()),
        // WAL lives on disk 0 (the HDD).
        None => n.disks[0].bulk_transfer(sim, bytes, done.into()),
    }
}

fn flush_done(cl: &ClusterRc, sim: &mut Sim, node: NodeId, batch: usize) {
    let mut jobs = {
        let n = &mut cl.borrow_mut().nodes[node.raw() as usize];
        let b = &mut n.flushes[batch];
        n.log.mark_durable(b.last_lsn);
        std::mem::take(&mut b.jobs)
    };
    {
        // The durable tail ships to this node's followers in the
        // background (commits do not wait), then the log is cut where no
        // shipping cursor will read again.
        let c = &mut *cl.borrow_mut();
        c.replication.ship(node, &c.nodes, &c.net, sim);
        // (A helper's cursor is never below the durable LSN.)
        let log = &mut c.nodes[node.raw() as usize].log;
        let shipped = c.replication.shipper(node).min_shipped();
        let horizon = shipped.map_or(log.durable_lsn(), |s| s.min(log.durable_lsn()));
        log.truncate_through(horizon);
    }
    for &job_id in &jobs {
        commit_ack(cl, sim, job_id);
    }
    jobs.clear();
    cl.borrow_mut().nodes[node.raw() as usize].flushes[batch].jobs = jobs;
    // New commits may have queued while flushing.
    schedule_pending_flushes(cl, sim);
}

fn commit_ack(cl: &ClusterRc, sim: &mut Sim, job_id: u64) {
    let ready = {
        let mut c = cl.borrow_mut();
        let Some(job) = c.jobs.get_mut(job_id) else {
            return;
        };
        job.commit_pending -= 1;
        if job.commit_pending == 0 {
            let waited = sim.now().since(job.commit_wait_started);
            job.costs.record(CostCategory::Logging, waited);
            true
        } else {
            false
        }
    };
    if ready {
        finish_job(cl, sim, job_id);
    }
}

fn finish_job(cl: &ClusterRc, sim: &mut Sim, job_id: u64) {
    let (client, grants) = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let Some(job) = c.jobs.get(job_id) else {
            return;
        };
        let (_, grants) = c
            .txn
            .commit(job.txn, &mut c.store)
            .unwrap_or((0, Vec::new()));
        let phase = c.phase();
        let response = sim.now().since(job.started);
        c.metrics
            .record_completion_weighted(sim.now(), response, phase, job.costs, job.weight);
        *c.metrics.mix.entry(job.profile).or_insert(0) += job.weight;
        c.clients[job.client].complete_n(job.weight);
        let client = job.client;
        c.jobs.release(job_id);
        (client, grants)
    };
    resume_grants(cl, sim, grants);
    schedule_client(cl, sim, client);
}

fn abort_and_retry(cl: &ClusterRc, sim: &mut Sim, job_id: u64) {
    let (client, grants, backoff, resubmit) = {
        let mut c = cl.borrow_mut();
        let c = &mut *c;
        let Some(job) = c.jobs.get_mut(job_id) else {
            return;
        };
        job.retries += 1;
        // Undo engine state and release locks.
        let grants = c
            .txn
            .abort(job.txn, &mut c.indexes, &mut c.store)
            .unwrap_or_default();
        c.lock_waiters.remove(&job.txn);
        c.metrics.aborted += 1;
        let client = job.client;
        let backoff = c.clients[client].backoff();
        let resubmit = job.retries <= 10;
        if resubmit {
            // Fresh attempt: new engine txn, same ops.
            job.txn = c.txn.begin(wattdb_txn::TxnKind::User);
            job.next_op = 0;
            job.stage = OpStage::Start;
            job.locks_acquired = 0;
            job.cur = None;
            job.op_cost = CostVector::ZERO;
            job.op_remote = false;
            job.write_nodes.clear();
            job.routed = false;
            job.current_node = NodeId::MASTER;
        } else {
            c.jobs.release(job_id);
        }
        (client, grants, backoff, resubmit)
    };
    resume_grants(cl, sim, grants);
    if resubmit {
        sim.post_after(backoff, Signal::Retry { job: job_id }.into());
    } else {
        schedule_client(cl, sim, client);
    }
}

/// Resume lock waiters granted by a release, then hand the list back to
/// the transaction manager for the next release to fill. A resumed job
/// may commit, and so resume a list of its own, before this one is back.
pub fn resume_grants(cl: &ClusterRc, sim: &mut Sim, grants: Vec<Grant>) {
    for &(txn, _, _) in &grants {
        let waiter = {
            let mut c = cl.borrow_mut();
            c.lock_waiters.remove(&txn)
        };
        match waiter {
            Some(Waiter::Job(job_id)) => {
                {
                    let mut c = cl.borrow_mut();
                    if let Some(job) = c.jobs.get_mut(job_id) {
                        if let Some(started) = job.lock_wait_started.take() {
                            job.costs
                                .record(CostCategory::Locking, sim.now().since(started));
                        }
                        job.locks_acquired += 1;
                    }
                }
                step(cl, sim, job_id);
            }
            Some(Waiter::Mover(move_id)) => {
                crate::migration::lock_step(cl, sim, move_id);
            }
            None => {}
        }
    }
    cl.borrow_mut().txn.recycle_grants(grants);
}

/// Schedule a client's next submission after its think time. In pooled
/// mode the carrier is parked back into the pool instead — the aggregated
/// arrival process (not a per-client timer) decides when it next submits.
pub fn schedule_client(cl: &ClusterRc, sim: &mut Sim, client: usize) {
    let think = {
        let mut c = cl.borrow_mut();
        if c.stopped {
            return;
        }
        if let Some(pool) = c.pool.as_mut() {
            pool.park(client as u32);
            return;
        }
        c.clients[client].think()
    };
    let arrival = Signal::ClientArrival {
        client: client as u32,
    };
    sim.post_after(think, arrival.into());
}

/// The one spawn path of every `start_*`: spawn the deployment's client
/// population ([`Cluster::spawn_clients`]) and kick it off. Per-client
/// mode staggers each client by its first think time; pooled mode starts
/// the single arrival repeater that drives the whole carrier population
/// with one periodic event.
pub fn start_clients(
    cl: &ClusterRc,
    sim: &mut Sim,
    tenants: &[(wattdb_tpcc::TenantSpec, u64)],
    think: SimDuration,
    pooled: bool,
) {
    cl.borrow_mut().spawn_clients(tenants, think, pooled);
    let tick = cl.borrow().pool.as_ref().map(|p| p.tick());
    let Some(tick) = tick else {
        let n = cl.borrow().clients.len();
        for client in 0..n {
            schedule_client(cl, sim, client);
        }
        return;
    };
    let (handle, mut due) = (cl.clone(), Vec::new());
    sim.every(tick, move |sim| {
        {
            let mut c = handle.borrow_mut();
            let c = &mut *c;
            match c.pool.as_mut() {
                Some(pool) if !c.stopped => pool.arrivals_into(&mut due),
                _ => return false, // workload drained: the arrival loop ends
            }
        }
        for (carrier, jitter) in due.drain(..) {
            // Each arrival fires at its own offset inside the tick — the
            // pool's jitter — so carriers hit the lock manager and the
            // resource queues spread out like per-client arrivals do.
            sim.post_after(jitter, Signal::PoolArrival { carrier }.into());
        }
        true
    });
}

/// Schedule a [`wattdb_tpcc::LoadTrace`]'s breakpoints against the
/// pooled arrival process: the first retargets the pool's carrier groups
/// at once, each later one becomes one simulator event that retargets
/// them. Breakpoint offsets are relative to *now*, so call this when the
/// trace starts. O(points) events total — no spawn storms, no per-client
/// timers.
pub fn schedule_trace(cl: &ClusterRc, sim: &mut Sim, trace: &wattdb_tpcc::LoadTrace) {
    fn retarget(c: &mut Cluster, targets: &[u64]) {
        if let Some(pool) = c.pool.as_mut() {
            for (group, &target) in targets.iter().enumerate() {
                pool.set_target(group, target);
            }
        }
    }
    let mut points = trace.points().iter();
    if let Some(first) = points.next() {
        retarget(&mut cl.borrow_mut(), &first.targets);
    }
    for point in points {
        let targets = point.targets.clone();
        let handle = cl.clone();
        sim.after(point.at, move |_sim| {
            retarget(&mut handle.borrow_mut(), &targets)
        });
    }
}

#[cfg(test)]
mod tests {
    //! The commit rule: a log with no flush in flight flushes at once, a
    //! commit behind a flush in flight waits [`GROUP_COMMIT`], and every
    //! queued commit is acked exactly once.

    use super::*;
    use crate::cluster::ClusterConfig;
    use wattdb_common::DetRng;
    use wattdb_tpcc::{TenantSpec, TpccConfig};

    const US: SimDuration = SimDuration::from_micros(1);

    /// A loaded four-node cluster (data on n0 and n1) with `clients`
    /// clients, pooled when asked. It is stopped, so no client submits or
    /// resubmits by itself: the tests build each job by hand.
    fn harness(clients: u32, pooled: bool) -> (ClusterRc, Sim) {
        let data = [NodeId(0), NodeId(1)];
        let cfg = ClusterConfig {
            nodes: 4,
            segment_pages: 16,
            buffer_pages: 256,
            ..Default::default()
        };
        let cl = Cluster::new(cfg, &data);
        {
            let mut c = cl.borrow_mut();
            let tpcc = TpccConfig {
                warehouses: 2,
                density: 0.01,
                seed: 7,
            };
            c.load_tpcc(tpcc, &data).unwrap();
            c.stopped = true;
            let tenant = (TenantSpec::default(), clients as u64);
            c.spawn_clients(&[tenant], SimDuration::from_millis(100), pooled);
        }
        let mut sim = Sim::new();
        install(&cl, &mut sim);
        (cl, sim)
    }

    /// A job for `client` whose operations are done and whose writes sit
    /// on `nodes`: stepping it commits.
    fn committer(c: &mut Cluster, client: usize, nodes: &[NodeId], now: SimTime) -> u64 {
        let id = c.new_job(client, now);
        let job = c.jobs.get_mut(id).expect("fresh job");
        job.routed = true;
        job.next_op = job.ops.len();
        job.write_nodes.extend_from_slice(nodes);
        id
    }

    /// A committer for `client` parked on a record lock that `holder`
    /// holds. The holder's commit ack releases the lock, so this job's
    /// commit is queued from inside the `flush_done` that acks the holder.
    fn parked_behind(
        c: &mut Cluster,
        holder: u64,
        client: usize,
        nodes: &[NodeId],
        key: u64,
    ) -> u64 {
        let id = committer(c, client, nodes, SimTime::ZERO);
        let target = LockTarget::Record(TpccTable::History.table_id(), Key(key));
        let (held, waits) = (c.jobs.get(holder).unwrap().txn, c.jobs.get(id).unwrap().txn);
        let locks = &mut c.txn.locks;
        assert_eq!(
            locks.acquire(held, target, LockMode::X),
            LockAcquire::Granted
        );
        assert_eq!(
            locks.acquire(waits, target, LockMode::X),
            LockAcquire::Waiting
        );
        c.lock_waiters.insert(waits, Waiter::Job(id));
        id
    }

    /// The log-disk service time of everything `node` has not made
    /// durable yet: what a flush issued now writes.
    fn service(cl: &ClusterRc, node: usize) -> SimDuration {
        let c = cl.borrow();
        let n = &c.nodes[node];
        let pending = n.log.bytes_after(n.log.durable_lsn()).unwrap_or(0);
        n.disks[0].estimate(ByteSize::bytes(pending as u64))
    }

    fn completed(cl: &ClusterRc, client: usize) -> u64 {
        cl.borrow().clients[client].completed()
    }

    /// Flushes of `node`'s log in flight.
    fn in_flight(cl: &ClusterRc, node: usize) -> usize {
        let c = cl.borrow();
        c.nodes[node]
            .flushes
            .iter()
            .filter(|b| !b.jobs.is_empty())
            .count()
    }

    #[test]
    fn a_lone_commit_on_an_idle_log_waits_one_service_time() {
        let (cl, mut sim) = harness(1, false);
        let job = committer(&mut cl.borrow_mut(), 0, &[NodeId(0)], sim.now());
        step(&cl, &mut sim, job);
        let (t0, s) = (sim.now(), service(&cl, 0));
        sim.run_until(t0);
        assert_eq!(in_flight(&cl, 0), 1, "the flush is issued at once");
        sim.run_until(t0 + (s - US));
        assert_eq!(completed(&cl, 0), 0, "acked before its bytes were down");
        sim.run_until(t0 + s);
        assert_eq!(completed(&cl, 0), 1, "no window added to a lone commit");
    }

    #[test]
    fn a_commit_behind_a_flush_in_flight_waits_the_window() {
        let (cl, mut sim) = harness(2, false);
        // A's flush carries 100 kB of changes: billed twice, they would
        // add a millisecond to B's flush.
        let change = LogPayload::Change {
            segment: SegmentId(0),
            image_bytes: 100_000,
        };
        cl.borrow_mut().nodes[0].log.append(TxnId::NONE, change);
        let a = committer(&mut cl.borrow_mut(), 0, &[NodeId(0)], sim.now());
        step(&cl, &mut sim, a);
        let (t0, s_a) = (sim.now(), service(&cl, 0));
        let a_end = cl.borrow().nodes[0].log.last_lsn();
        // B commits 1 ms into A's flush.
        sim.run_until(t0 + SimDuration::from_millis(1));
        let b = committer(&mut cl.borrow_mut(), 1, &[NodeId(0)], sim.now());
        step(&cl, &mut sim, b);
        let t1 = sim.now();
        assert!(
            t1 + GROUP_COMMIT < t0 + s_a,
            "the window closes inside A's flush"
        );
        let queued = |cl: &ClusterRc| cl.borrow().nodes[0].commit_queue.len();
        sim.run_until(t1 + (GROUP_COMMIT - US));
        assert_eq!((in_flight(&cl, 0), queued(&cl)), (1, 1), "B collects");
        sim.run_until(t1 + GROUP_COMMIT);
        assert_eq!((in_flight(&cl, 0), queued(&cl)), (2, 0), "B flushes");
        // B's flush queues behind A's on the one log disk, and writes only
        // the bytes past A's: the tail A's is still writing is not billed
        // twice.
        let s_b = {
            let c = cl.borrow();
            let n = &c.nodes[0];
            let past_a = n.log.bytes_after(a_end).expect("B's commit record");
            n.disks[0].estimate(ByteSize::bytes(past_a as u64))
        };
        assert!(s_b < service(&cl, 0), "A's bytes billed again");
        sim.run_until(t0 + s_a);
        assert_eq!((completed(&cl, 0), completed(&cl, 1)), (1, 0));
        sim.run_until(t0 + s_a + (s_b - US));
        assert_eq!(completed(&cl, 1), 0);
        sim.run_until(t0 + s_a + s_b);
        assert_eq!(completed(&cl, 1), 1, "B acked after A's flush and its own");
    }

    #[test]
    fn a_commit_queued_inside_a_flush_done_ack_is_not_lost() {
        let (cl, mut sim) = harness(2, false);
        let holder = committer(&mut cl.borrow_mut(), 0, &[NodeId(0)], sim.now());
        let waiter = parked_behind(&mut cl.borrow_mut(), holder, 1, &[NodeId(0)], 1);
        step(&cl, &mut sim, holder);
        let (t0, s) = (sim.now(), service(&cl, 0));
        sim.run_until(t0 + s);
        // The holder's ack released the lock and the waiter committed
        // inside it, onto a log with no flush in flight: its flush went
        // out at once, into the slot the holder's flush had just freed.
        assert_eq!((completed(&cl, 0), completed(&cl, 1)), (1, 0));
        assert_eq!(cl.borrow().nodes[0].flushes[0].jobs, [waiter]);
        let s_w = service(&cl, 0);
        sim.run_until(t0 + s + (s_w - US));
        assert_eq!(completed(&cl, 1), 0);
        sim.run_until(t0 + s + s_w);
        assert_eq!(completed(&cl, 1), 1, "the waiter's commit was lost");
    }

    /// Seeded commit arrivals on n0 and n1 — one- and two-node commits,
    /// and commits parked behind another's lock so that they queue from
    /// inside a `flush_done` ack — run to quiescence: every commit is
    /// acked exactly once, and every log is durable to its end with
    /// nothing queued or in flight.
    fn random_schedule(seed: u64, pooled: bool, helper: bool) {
        const ARRIVALS: usize = 120;
        let (cl, mut sim) = harness(if pooled { 5_000 } else { ARRIVALS as u32 }, pooled);
        if helper {
            let mut c = cl.borrow_mut();
            c.power_on(NodeId(2));
            let wire = crate::helpers::HelperAttach::manual(&[NodeId(0)], &[NodeId(2)]);
            crate::helpers::attach(&mut c, &wire, SimTime::ZERO);
        }
        let mut rng = DetRng::new(seed);
        let mut client = 0;
        while client < ARRIVALS {
            let at = SimDuration::from_micros(rng.uniform(0, 200_000));
            let nodes = match rng.uniform(0, 2) {
                0 => vec![NodeId(0)],
                1 => vec![NodeId(1)],
                _ => vec![NodeId(0), NodeId(1)],
            };
            let parked = client + 1 < ARRIVALS && rng.chance(0.25);
            let (cl, first) = (cl.clone(), client);
            sim.after(at, move |sim| {
                let job = committer(&mut cl.borrow_mut(), first, &nodes, sim.now());
                if parked {
                    parked_behind(&mut cl.borrow_mut(), job, first + 1, &nodes, first as u64);
                }
                step(&cl, sim, job);
            });
            client += 1 + parked as usize;
        }
        sim.run_to_completion();
        let c = cl.borrow();
        for (i, cli) in c.clients[..ARRIVALS].iter().enumerate() {
            let weight = c.pool.as_ref().map_or(1, |p| p.weight_of(i as u32));
            let label = format!("seed {seed}, pooled {pooled}, helper {helper}, client {i}");
            assert_eq!(cli.completed(), weight, "{label}: acks × weight");
        }
        assert!(c.jobs.is_empty(), "seed {seed}: a job never finished");
        for n in &c.nodes {
            assert!(
                n.commit_queue.is_empty() && !n.flush_scheduled,
                "seed {seed}"
            );
            assert!(n.flushes.iter().all(|b| b.jobs.is_empty()), "seed {seed}");
            assert_eq!(n.log.durable_lsn(), n.log.last_lsn(), "seed {seed}");
        }
        // The wire shipped through each durable log end.
        assert_eq!(c.helpers.check_invariants(&c.nodes), None, "seed {seed}");
    }

    #[test]
    fn seeded_commit_schedules_ack_every_commit_once() {
        for seed in 0..6 {
            for pooled in [false, true] {
                for helper in [false, true] {
                    random_schedule(seed, pooled, helper);
                }
            }
        }
    }
}
