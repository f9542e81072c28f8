//! Sharded parallel execution of the simulation (conservative PDES).
//!
//! Nodes are partitioned across worker shards; each shard owns a complete
//! [`Machine`] replica but pops only events belonging to its own nodes.
//! Shards advance in lockstep windows of `W = min_cross_shard_latency`
//! cycles: within a window every event a shard can affect another shard
//! with arrives at least `W` cycles in the future, so shards run without
//! synchronization and exchange timestamped messages at window edges.
//!
//! Determinism is total, not statistical: the event queue orders same-cycle
//! events by a key derived from the scheduling node's private counter
//! ([`Machine::ev_key`]), which makes the event order a pure function of
//! the simulated history — independent of which engine (sequential or
//! sharded, at any thread count) executes it. The golden-fingerprint suite
//! pins this bit-for-bit.

use super::snapshot::{MachineSnapshot, SnapshotError};
use super::{Event, Machine, RunResult};
use crate::msg::Msg;
use lrc_sim::{Cycle, StallDiagnosis, StallReason, Workload};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// How nodes map onto shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Partition {
    /// Contiguous blocks of node ids per shard — neighbors share a shard,
    /// the layout that minimizes cross-shard traffic on the mesh.
    #[default]
    Contiguous,
    /// Round-robin striping — adjacent node ids land on *different* shards,
    /// so essentially all sharing crosses shard boundaries. The adversarial
    /// layout the boundary stress tests use.
    Strided,
}

/// Configuration for a sharded run.
#[derive(Debug, Clone, Copy)]
pub struct ParallelOptions {
    /// Worker threads (shards). `<= 1` runs the sequential kernel.
    pub threads: usize,
    /// Node-to-shard assignment.
    pub partition: Partition,
}

impl ParallelOptions {
    /// `threads` workers with the default contiguous partition.
    pub fn threads(threads: usize) -> Self {
        ParallelOptions { threads, partition: Partition::Contiguous }
    }
}

/// A cross-shard message captured at its send site: arrival time and tie
/// key are computed from sender-local state, so the receiving shard can
/// insert it exactly where the sequential kernel would have.
#[derive(Debug, Clone)]
pub(crate) struct OutMsg {
    pub at: Cycle,
    pub key: u64,
    pub msg: Msg,
}

/// Per-replica sharding context (present only during sharded runs).
pub(crate) struct ShardCtx {
    /// This replica's shard id.
    pub id: u32,
    /// Node → shard map, shared by all replicas.
    pub of_node: Arc<Vec<u32>>,
    /// Cross-shard sends accumulated during the current window.
    pub outbox: Vec<OutMsg>,
}

impl Machine {
    /// Install `workload` and the sharding context, seeding `ProcStep`s for
    /// the shard's own nodes only. The per-node key counters make the seed
    /// keys identical to the sequential kernel's.
    fn prepare_shard(&mut self, workload: Box<dyn Workload>, ctx: Box<ShardCtx>) {
        assert_eq!(
            workload.num_procs(),
            self.cfg.num_procs,
            "workload built for a different processor count"
        );
        self.workload.w = workload;
        for p in 0..self.cfg.num_procs {
            if ctx.of_node[p] == ctx.id {
                self.nodes[p].step_scheduled = true;
                self.push_ev(0, p, Event::ProcStep(p));
            }
        }
        self.shard = Some(ctx);
    }

    /// Pop and dispatch every pending event strictly before `limit`,
    /// counting handled events into `self.handled` (a machine field, so a
    /// shard restored from a checkpoint continues the count exactly).
    fn run_window(&mut self, limit: Cycle) {
        while self.queue.peek_time().is_some_and(|t| t < limit) {
            let (t, ev) = self.queue.pop().expect("peeked above");
            self.dispatch(t, ev);
            self.handled += 1;
        }
    }

    /// Insert a batch of cross-shard arrivals. Order within the batch is
    /// irrelevant: the queue's (time, key) order is insertion-independent.
    fn ingest(&mut self, batch: &mut Vec<OutMsg>) {
        for m in batch.drain(..) {
            self.queue.push(m.at, m.key, Event::Msg(m.msg));
        }
    }

    /// This shard's next relevant time: the earlier of the local event
    /// queue and any cross-shard send still waiting in the outbox.
    fn local_bound(&self) -> Cycle {
        let q = self.queue.peek_time().unwrap_or(Cycle::MAX);
        let ob = self
            .shard
            .as_deref()
            .and_then(|s| s.outbox.iter().map(|o| o.at).min())
            .unwrap_or(Cycle::MAX);
        q.min(ob)
    }

    /// Can this configuration run sharded and still promise bit-identical
    /// results? Everything that inspects global order mid-run (tracing,
    /// sampling, value/race tracking), mutates cross-node timing state
    /// (link layer, finite NI queues), or assigns homes dynamically
    /// (first-touch) falls back to the sequential kernel — which is always
    /// correct, just single-threaded.
    fn parallel_eligible(&self) -> bool {
        self.xmit.is_none()
            && self.crash.is_none()
            && !self.ni_limited
            && self.cfg.placement != lrc_sim::Placement::FirstTouch
            && self.classifier.is_none()
            && self.values.is_none()
            && self.race.is_none()
            && self.obs.is_none()
            && self.nack_nth.is_none()
            && self.check_every == 0
            && self.min_window() >= 1
    }

    /// Conservative lookahead: the minimum cycles between a cross-node send
    /// and its delivery, from the mesh's single-hop latency and the
    /// smallest message's wire occupancy.
    fn min_window(&self) -> Cycle {
        self.net.min_cross_latency(self.cfg.ctrl_msg_bytes)
    }
}

/// A sense-reversing spin barrier for the window lockstep. `wait` returns
/// only after all `n` participants arrive; the release of generation `g`
/// happens-before every participant's return from `wait(g)`, which is what
/// makes the unlocked publish/read of shard bounds sound.
struct SpinBarrier {
    n: usize,
    arrived: AtomicUsize,
    gen: AtomicUsize,
}

impl SpinBarrier {
    fn new(n: usize) -> Self {
        SpinBarrier { n, arrived: AtomicUsize::new(0), gen: AtomicUsize::new(0) }
    }

    fn wait(&self) {
        let gen = self.gen.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.n {
            self.arrived.store(0, Ordering::Relaxed);
            self.gen.store(gen.wrapping_add(1), Ordering::Release);
        } else {
            // Spin briefly for the common multi-core case, then yield: on an
            // oversubscribed (or single-core) host a pure spin would burn the
            // whole scheduler timeslice that the *laggard* shard needs.
            let mut spins = 0u32;
            while self.gen.load(Ordering::Acquire) == gen {
                spins += 1;
                if spins < 128 {
                    std::hint::spin_loop();
                } else {
                    std::thread::yield_now();
                }
            }
        }
    }
}

/// Outcome of one worker: its final replica, the diagnosis it raised (if
/// it was the one to detect a stall), and the window-edge snapshot it
/// captured (checkpointing runs only).
type WorkerOut = (Machine, Option<StallDiagnosis>, Option<Result<MachineSnapshot, SnapshotError>>);

/// A consistent cut of a sharded run: one snapshot per shard, captured at
/// the same window edge on every shard. At that point every cross-shard
/// channel (outboxes and both parity inboxes) is provably empty, so the
/// per-shard snapshots jointly capture the complete simulation state.
#[derive(Debug)]
pub struct ShardedCheckpoint {
    /// Shard count the checkpoint was taken with (1 = sequential kernel).
    pub threads: usize,
    /// Node-to-shard assignment used by the run.
    pub partition: Partition,
    /// One snapshot per shard, indexed by shard id.
    pub shards: Vec<MachineSnapshot>,
}

/// What a checkpointing run produced: either it finished before reaching
/// the checkpoint cycle, or it paused there with a consistent cut.
#[derive(Debug)]
pub enum ShardedRunOutcome {
    /// The run drained its queues before the checkpoint cycle.
    Completed(Box<RunResult>),
    /// The run paused at the first window edge at or past the checkpoint
    /// cycle.
    Checkpointed(ShardedCheckpoint),
}

/// Error from a checkpointing run or a resume: either the snapshot layer
/// refused (unsupported feature, corrupt input) or the simulation stalled.
#[derive(Debug)]
pub enum SnapshotRunError {
    /// Capturing or restoring a snapshot failed.
    Snapshot(SnapshotError),
    /// The simulation stalled; the diagnosis names the wedged processors.
    Stall(Box<StallDiagnosis>),
}

impl std::fmt::Display for SnapshotRunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SnapshotRunError::Snapshot(e) => write!(f, "{e}"),
            SnapshotRunError::Stall(d) => write!(f, "{d}"),
        }
    }
}

impl std::error::Error for SnapshotRunError {}

impl From<SnapshotError> for SnapshotRunError {
    fn from(e: SnapshotError) -> Self {
        SnapshotRunError::Snapshot(e)
    }
}

/// Everything the lockstep worker loop shares across shards.
struct ShardShared<'a> {
    barrier: &'a SpinBarrier,
    bounds: &'a [AtomicU64],
    finished: &'a [AtomicU64],
    stop: &'a AtomicBool,
    /// inboxes[dst][src][parity]: double-buffered by window parity so a
    /// shard writing window j+1's batch never touches the slot its peer is
    /// still draining for window j.
    inboxes: &'a [Vec<[Mutex<Vec<OutMsg>>; 2]>],
    of_node: &'a [u32],
    shards: usize,
    num_procs: usize,
    max_cycles: Cycle,
    window: Cycle,
    /// Pause at the first window edge whose consensus bound reaches this
    /// cycle and capture a snapshot (the consistent-cut checkpoint).
    checkpoint_at: Option<Cycle>,
}

/// The per-shard lockstep loop, shared by fresh runs, checkpointing runs,
/// and resumed runs (a resumed replica simply enters with a mid-run queue).
fn shard_worker(me: usize, mut m: Machine, sh: &ShardShared<'_>) -> WorkerOut {
    let mut diag: Option<StallDiagnosis> = None;
    let mut snap: Option<Result<MachineSnapshot, SnapshotError>> = None;
    let mut parity = 0usize;
    loop {
        // Publish this shard's bound and flush the outbox.
        sh.bounds[me].store(m.local_bound(), Ordering::Relaxed);
        sh.finished[me].store(m.finished as u64, Ordering::Relaxed);
        let mut outbox = std::mem::take(&mut m.shard.as_deref_mut().expect("sharded").outbox);
        for o in outbox.drain(..) {
            let d = sh.of_node[o.msg.dst] as usize;
            sh.inboxes[d][me][parity].lock().expect("poisoned inbox").push(o);
        }
        m.shard.as_deref_mut().expect("sharded").outbox = outbox;
        sh.barrier.wait();
        // Consensus read: every shard computes the same global lower bound
        // from the same published values.
        let lb = sh.bounds.iter().map(|b| b.load(Ordering::Relaxed)).min();
        let lb = lb.expect("at least one shard");
        let done: u64 = sh.finished.iter().map(|f| f.load(Ordering::Relaxed)).sum();
        let stopping = sh.stop.load(Ordering::Relaxed);
        // Second barrier: all reads complete before any shard loops around
        // and republishes.
        sh.barrier.wait();
        if stopping {
            break;
        }
        if lb == Cycle::MAX {
            if done != sh.num_procs as u64 {
                diag = Some(m.diagnose(StallReason::Deadlock, m.queue.now()));
            }
            break;
        }
        if lb > sh.max_cycles {
            // Deterministic: every shard sees the same lb and breaks in the
            // same window.
            if me == 0 {
                diag = Some(m.diagnose(StallReason::CycleHorizon(sh.max_cycles), lb));
            }
            break;
        }
        if m.watchdog.is_some() {
            if let Some(d) = m.scan_stalls(lb) {
                // Only the shard owning the wedged node trips; the flag
                // stops the rest at the next window edge.
                diag = Some(d);
                sh.stop.store(true, Ordering::Relaxed);
            }
        }
        // Ingest this window's cross-shard arrivals.
        for from_src in sh.inboxes[me].iter().take(sh.shards) {
            let mut batch =
                std::mem::take(&mut *from_src[parity].lock().expect("poisoned inbox"));
            m.ingest(&mut batch);
        }
        // Consistent cut: every shard sees the same lb, so all break here
        // in the same window. The outbox was flushed above, the current
        // parity's inboxes were just drained, and the other parity's were
        // drained last window — every channel is empty, and the union of
        // the per-shard snapshots is the complete simulation state.
        if sh.checkpoint_at.is_some_and(|at| lb >= at) {
            snap = Some(m.snapshot());
            break;
        }
        m.run_window(lb + sh.window);
        parity ^= 1;
    }
    (m, diag, snap)
}

/// Drive a set of prepared shard replicas to completion (or to the
/// checkpoint cut). Returns the per-shard outcomes, each shard's last
/// published bound, and the wall-clock seconds spent.
fn drive_shards(
    replicas: Vec<Machine>,
    of_node: &Arc<Vec<u32>>,
    num_procs: usize,
    max_cycles: Cycle,
    window: Cycle,
    checkpoint_at: Option<Cycle>,
) -> (Vec<WorkerOut>, Vec<u64>, f64) {
    let shards = replicas.len();
    let barrier = SpinBarrier::new(shards);
    let bounds: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let finished: Vec<AtomicU64> = (0..shards).map(|_| AtomicU64::new(0)).collect();
    let stop = AtomicBool::new(false);
    let inboxes: Vec<Vec<[Mutex<Vec<OutMsg>>; 2]>> = (0..shards)
        .map(|_| {
            (0..shards)
                .map(|_| [Mutex::new(Vec::new()), Mutex::new(Vec::new())])
                .collect()
        })
        .collect();
    let shared = ShardShared {
        barrier: &barrier,
        bounds: &bounds,
        finished: &finished,
        stop: &stop,
        inboxes: &inboxes,
        of_node,
        shards,
        num_procs,
        max_cycles,
        window,
        checkpoint_at,
    };

    let run_started = std::time::Instant::now();
    let outs: Vec<WorkerOut> = std::thread::scope(|sc| {
        let handles: Vec<_> = replicas
            .into_iter()
            .enumerate()
            .map(|(me, m)| {
                let shared = &shared;
                sc.spawn(move || shard_worker(me, m, shared))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("shard worker panicked")).collect()
    });
    let sim_wall_secs = run_started.elapsed().as_secs_f64();
    let bound_vals = bounds.iter().map(|b| b.load(Ordering::Relaxed)).collect();
    (outs, bound_vals, sim_wall_secs)
}

/// Build one prepared replica per shard, each with its own workload copy.
fn make_replicas(
    build: &(dyn Fn() -> Machine + Sync),
    workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    shards: usize,
    of_node: &Arc<Vec<u32>>,
) -> Vec<Machine> {
    (0..shards)
        .map(|s| {
            let mut m = build();
            m.prepare_shard(
                workload(),
                Box::new(ShardCtx { id: s as u32, of_node: of_node.clone(), outbox: Vec::new() }),
            );
            m
        })
        .collect()
}

/// Run one workload under a sharded parallel engine, falling back to the
/// sequential kernel when `opts.threads <= 1` or the configuration is not
/// shard-eligible (see `Machine::parallel_eligible`). `build` must produce
/// identically-configured machines and `workload` identically-behaving
/// workloads — each worker gets its own instance of both.
///
/// The returned [`RunResult`] is bit-identical to what the sequential
/// kernel produces for the same configuration, except for wall-clock
/// throughput fields (`sim_wall_secs`) and the per-shard queue-depth
/// vector.
pub fn try_run_sharded(
    build: &(dyn Fn() -> Machine + Sync),
    workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    opts: &ParallelOptions,
) -> Result<RunResult, Box<StallDiagnosis>> {
    let probe = build();
    let shards = opts.threads.min(probe.cfg.num_procs);
    if shards <= 1 || !probe.parallel_eligible() {
        return probe.try_run(workload());
    }
    let window = probe.min_window();
    let num_procs = probe.cfg.num_procs;
    let max_cycles = probe.max_cycles;
    let of_node = Arc::new(partition_map(num_procs, shards, opts.partition));
    drop(probe);

    let replicas = make_replicas(build, workload, shards, &of_node);
    let (outs, bounds, sim_wall_secs) =
        drive_shards(replicas, &of_node, num_procs, max_cycles, window, None);

    if outs.iter().any(|(_, d, _)| d.is_some()) {
        return Err(Box::new(merge_diagnoses(&outs, &bounds)));
    }
    Ok(merge_results(outs, &of_node, sim_wall_secs, window))
}

/// Like [`try_run_sharded`], but pause the run at the first quiescent
/// point at or past `at_cycle` and capture a [`ShardedCheckpoint`] there.
/// Sequential (fallback or `threads <= 1`) runs pause exactly before the
/// first event at or past `at_cycle`; sharded runs pause at the first
/// window edge whose consensus bound reaches it — either way the captured
/// cut, resumed via [`resume_sharded`], replays the uninterrupted run
/// bit-identically. Runs that drain before `at_cycle` complete normally.
pub fn try_run_sharded_until(
    build: &(dyn Fn() -> Machine + Sync),
    workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    opts: &ParallelOptions,
    at_cycle: Cycle,
) -> Result<ShardedRunOutcome, SnapshotRunError> {
    let probe = build();
    let shards = opts.threads.min(probe.cfg.num_procs);
    if shards <= 1 || !probe.parallel_eligible() {
        let mut m = probe;
        m.start_run(workload());
        let run_started = std::time::Instant::now();
        return match m.run_until(at_cycle) {
            Err(diag) => Err(SnapshotRunError::Stall(diag)),
            Ok(true) => {
                let snap = m.snapshot()?;
                Ok(ShardedRunOutcome::Checkpointed(ShardedCheckpoint {
                    threads: 1,
                    partition: opts.partition,
                    shards: vec![snap],
                }))
            }
            Ok(false) => match m.finish_run(run_started) {
                Ok((result, _)) => Ok(ShardedRunOutcome::Completed(Box::new(result))),
                Err((diag, _)) => Err(SnapshotRunError::Stall(diag)),
            },
        };
    }
    let window = probe.min_window();
    let num_procs = probe.cfg.num_procs;
    let max_cycles = probe.max_cycles;
    let of_node = Arc::new(partition_map(num_procs, shards, opts.partition));
    drop(probe);

    let replicas = make_replicas(build, workload, shards, &of_node);
    let (outs, bounds, sim_wall_secs) =
        drive_shards(replicas, &of_node, num_procs, max_cycles, window, Some(at_cycle));

    if outs.iter().any(|(_, d, _)| d.is_some()) {
        return Err(SnapshotRunError::Stall(Box::new(merge_diagnoses(&outs, &bounds))));
    }
    if outs.iter().any(|(_, _, s)| s.is_some()) {
        let mut snaps = Vec::with_capacity(outs.len());
        for (_, _, s) in outs {
            match s {
                Some(Ok(snap)) => snaps.push(snap),
                Some(Err(e)) => return Err(SnapshotRunError::Snapshot(e)),
                // The cut is a consensus decision — either every shard
                // captures in the same window or none does.
                None => unreachable!("checkpoint cut must be unanimous"),
            }
        }
        return Ok(ShardedRunOutcome::Checkpointed(ShardedCheckpoint {
            threads: shards,
            partition: opts.partition,
            shards: snaps,
        }));
    }
    Ok(ShardedRunOutcome::Completed(Box::new(merge_results(
        outs,
        &of_node,
        sim_wall_secs,
        window,
    ))))
}

/// Resume a [`ShardedCheckpoint`] and drive it to completion. `workload`
/// must construct the same deterministic workload the checkpointed run
/// used (each shard's restore fast-forwards its own copy). The merged
/// [`RunResult`] is bit-identical to the uninterrupted run's, except for
/// `sim_wall_secs` (which covers only the post-restore segment).
pub fn resume_sharded(
    workload: &(dyn Fn() -> Box<dyn Workload> + Sync),
    ckpt: &ShardedCheckpoint,
) -> Result<RunResult, SnapshotRunError> {
    assert_eq!(
        ckpt.threads.max(1),
        ckpt.shards.len(),
        "checkpoint shard count does not match its thread count"
    );
    if ckpt.threads <= 1 {
        let mut m = ckpt.shards[0].restore(workload())?;
        let run_started = std::time::Instant::now();
        if let Err(diag) = m.run_until(Cycle::MAX) {
            return Err(SnapshotRunError::Stall(diag));
        }
        return match m.finish_run(run_started) {
            Ok((result, _)) => Ok(result),
            Err((diag, _)) => Err(SnapshotRunError::Stall(diag)),
        };
    }
    let shards = ckpt.threads;
    let mut replicas: Vec<Machine> = Vec::with_capacity(shards);
    let mut of_node: Option<Arc<Vec<u32>>> = None;
    for (s, snap) in ckpt.shards.iter().enumerate() {
        let mut m = snap.restore(workload())?;
        let of = of_node
            .get_or_insert_with(|| {
                Arc::new(partition_map(m.cfg.num_procs, shards, ckpt.partition))
            })
            .clone();
        // Reattach the sharding context without re-seeding ProcSteps — the
        // restored queue already holds every pending event, and the cut
        // guarantees the outbox was empty.
        m.shard = Some(Box::new(ShardCtx { id: s as u32, of_node: of, outbox: Vec::new() }));
        replicas.push(m);
    }
    let of_node = of_node.expect("at least one shard");
    let num_procs = replicas[0].cfg.num_procs;
    let max_cycles = replicas[0].max_cycles;
    let window = replicas[0].min_window();

    let (outs, bounds, sim_wall_secs) =
        drive_shards(replicas, &of_node, num_procs, max_cycles, window, None);

    if outs.iter().any(|(_, d, _)| d.is_some()) {
        return Err(SnapshotRunError::Stall(Box::new(merge_diagnoses(&outs, &bounds))));
    }
    Ok(merge_results(outs, &of_node, sim_wall_secs, window))
}

/// Node → shard assignment for `n` nodes over `shards` shards.
fn partition_map(n: usize, shards: usize, p: Partition) -> Vec<u32> {
    match p {
        Partition::Contiguous => {
            let chunk = n.div_ceil(shards);
            (0..n).map(|i| (i / chunk) as u32).collect()
        }
        Partition::Strided => (0..n).map(|i| (i % shards) as u32).collect(),
    }
}

/// Fold per-shard replicas into the single result the sequential kernel
/// would have produced.
fn merge_results(
    outs: Vec<WorkerOut>,
    of_node: &[u32],
    sim_wall_secs: f64,
    _window: Cycle,
) -> RunResult {
    let mut outs = outs;
    let shard_peaks: Vec<usize> = outs.iter().map(|(m, _, _)| m.queue.peak_len()).collect();
    let events: u64 = outs.iter().map(|(m, _, _)| m.handled).sum();
    let (mut base, _, _) = outs.remove(0);
    base.finalize_own_stats(of_node);
    let mut stats = base.stats.clone();
    for (mut m, _, _) in outs {
        m.finalize_own_stats(of_node);
        stats.merge_shard(&m.stats);
    }
    stats.total_cycles = stats.procs.iter().map(|p| p.finish_time).max().unwrap_or(0);
    RunResult {
        protocol: base.protocol,
        workload: base.workload.w.name().to_string(),
        stats,
        events,
        peak_queue_depth: shard_peaks.iter().copied().max().unwrap_or(0),
        peak_queue_depths: shard_peaks,
        sim_wall_secs,
        ni_peak_ingress: 0,
        ni_peak_egress: 0,
    }
}

/// Combine per-shard stall diagnoses into one report: the triggering
/// shard's reason, the union of stalled (owned) processors, summed gauges,
/// and every shard's local clock so a wedged shard is visible at a glance.
fn merge_diagnoses(outs: &[WorkerOut], bounds: &[u64]) -> StallDiagnosis {
    let primary = outs
        .iter()
        .filter_map(|(_, d, _)| d.as_ref())
        .next()
        .expect("caller checked a diagnosis exists");
    let mut merged = primary.clone();
    merged.stalled.clear();
    merged.finished = 0;
    merged.pending_fences = 0;
    merged.pending_events = 0;
    for (m, d, _) in outs {
        if let Some(d) = d {
            merged.stalled.extend(d.stalled.iter().cloned());
        } else {
            // Shards that stopped on the flag still contribute their own
            // stalled owned nodes (status of non-owned replicas never
            // leaves Running, so there is no double count).
            let d = m.diagnose(StallReason::Deadlock, m.queue.now());
            merged.stalled.extend(d.stalled.iter().cloned());
        }
        merged.finished += m.finished;
        merged.pending_events += m.queue.len();
        merged.pending_fences += m
            .nodes
            .iter()
            .filter(|n| matches!(n.status, crate::node::ProcStatus::Releasing(_)))
            .count();
    }
    merged.stalled.sort_by_key(|s| s.proc);
    merged.stalled.dedup_by_key(|s| s.proc);
    merged.shard_clocks = bounds.to_vec();
    merged
}

impl Machine {
    /// Per-shard end-of-run bookkeeping mirroring the sequential kernel's:
    /// busy-cycle and finish-time attribution for *owned* nodes only, so
    /// the cross-shard additive merge never double counts.
    fn finalize_own_stats(&mut self, of_node: &[u32]) {
        let me = self.shard.as_deref().expect("sharded").id;
        for (i, n) in self.nodes.iter().enumerate() {
            if of_node[i] == me {
                self.stats.procs[i].pp_busy = n.pp.busy_cycles();
                self.stats.procs[i].mem_busy = n.mem.busy_cycles();
            }
        }
    }
}
