//! The traced run: per-layer metrics from spans recorded around each call
//! the benchmark makes into a workspace crate, from the machine's own
//! statistics, and from replays that feed one layer's public structure
//! with the call stream recorded from the workload.
//!
//! It is separate from the timed runs: it makes one untraced reference
//! pass, then one traced pass whose simulated statistics must equal the
//! reference's. Metrics of a layer the workload does not drive read 0.

use crate::metrics::Metric;
use crate::spans::{layer_self_s, self_times_ns, Tracer};
use crate::workloads::{self, Guards, Kind, SimOutcome};
use crate::Outcome;
use lrc_check::explore::{self, BuildOpts};
use lrc_check::scenario::Scenario;
use lrc_core::{Fault, Machine, MsgClass, RecData, TraceFilter, TraceRecord, TraceSink};
use lrc_exp::sha::sha256_hex;
use lrc_mem::{Cache, LineState};
use lrc_mesh::Network;
use lrc_sim::{EventQueue, LineAddr, MachineConfig, Op, Protocol, Workload};
use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Every per-layer metric the traced run prints, with its unit.
pub const PER_LAYER: [(&str, &str); 52] = [
    ("workloads.build_s", "s"),
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.cycles_per_s", "cycles/s"),
    ("sim.peak_queue_depth", "count"),
    ("sim.queue_replay_ns_per_op", "ns"),
    ("mesh.msgs", "count"),
    ("mesh.bytes", "bytes"),
    ("mesh.send_replay_ns", "ns"),
    ("mesh.faults_injected", "count"),
    ("mesh.retries", "count"),
    ("mem.refs", "count"),
    ("mem.misses", "count"),
    ("mem.miss_ratio", "ratio"),
    ("mem.mem_busy_cycles", "cycles"),
    ("mem.cache_replay_ns_per_ref", "ns"),
    ("core.ns_per_event.sc", "ns"),
    ("core.ns_per_event.eager", "ns"),
    ("core.ns_per_event.lazy", "ns"),
    ("core.ns_per_event.lazy-ext", "ns"),
    ("core.pp_busy_cycles", "cycles"),
    ("core.three_hop", "count"),
    ("core.write_notices", "count"),
    ("core.acquire_invalidations", "count"),
    ("core.eager_invalidations", "count"),
    ("core.stall_read_cycles", "cycles"),
    ("core.stall_write_cycles", "cycles"),
    ("core.stall_sync_cycles", "cycles"),
    ("core.msgs.request", "count"),
    ("core.msgs.response", "count"),
    ("core.msgs.notice", "count"),
    ("core.msgs.sync", "count"),
    ("core.msgs.link", "count"),
    ("core.shard_speedup", "ratio"),
    ("core.shard_queue_imbalance", "ratio"),
    ("core.clone_ns", "ns"),
    ("core.step_choice_ns", "ns"),
    ("core.fingerprint_ns", "ns"),
    ("core.check_violations_ns", "ns"),
    ("check.states", "count"),
    ("check.terminals", "count"),
    ("check.prune_ratio", "ratio"),
    ("check.states_per_s", "states/s"),
    ("check.self_s", "s"),
    ("race.self_s", "s"),
    ("race.fast_path_ratio", "ratio"),
    ("race.vector_promotions", "count"),
    ("race.words_monitored", "count"),
    ("classify.self_s", "s"),
    ("link.self_s", "s"),
    ("link.event_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// One recorded message send, as the mesh and the event queue saw it.
#[derive(Debug, Clone, Copy)]
struct SendRec {
    at: u64,
    src: u32,
    dst: u32,
    bytes: u32,
}

#[derive(Debug, Default)]
struct LogData {
    by_class: [u64; MsgClass::COUNT],
    sends: Vec<SendRec>,
}

/// A `TraceSink` that counts sends by message class and keeps a compact
/// copy of each for the mesh and queue replays.
#[derive(Debug, Clone, Default)]
struct SendLog(Arc<Mutex<LogData>>);

impl SendLog {
    fn take(&self) -> LogData {
        std::mem::take(&mut *self.0.lock().expect("send log lock"))
    }
}

impl TraceSink for SendLog {
    fn record(&mut self, rec: &TraceRecord) {
        if let RecData::Send { src, dst, msg } = rec.data {
            let mut d = self.0.lock().expect("send log lock");
            d.by_class[msg.class.index()] += 1;
            let narrow = |x: u64| u32::try_from(x).expect("node ids and message sizes fit in u32");
            d.sends.push(SendRec {
                at: rec.at,
                src: narrow(src as u64),
                dst: narrow(dst as u64),
                bytes: narrow(msg.bytes),
            });
        }
    }
    fn snapshot(&self) -> Vec<TraceRecord> {
        Vec::new()
    }
    fn len(&self) -> usize {
        self.0.lock().expect("send log lock").sends.len()
    }
    fn box_clone(&self) -> Box<dyn TraceSink> {
        Box::new(self.clone())
    }
}

/// Per-layer values accumulated over a traced pass.
#[derive(Default)]
struct Acc {
    v: BTreeMap<&'static str, f64>,
    per_proto_ns: [f64; 4],
    per_proto_events: [u64; 4],
    replay_sends: u64,
    replay_queue_ops: u64,
    replay_refs: u64,
    queue_peaks: Vec<usize>,
}

impl Acc {
    fn add(&mut self, name: &'static str, x: f64) {
        *self.v.entry(name).or_insert(0.0) += x;
    }
    fn set(&mut self, name: &'static str, x: f64) {
        self.v.insert(name, x);
    }
    fn get(&self, name: &str) -> f64 {
        self.v.get(name).copied().unwrap_or(0.0)
    }

    /// Fold one simulation's statistics in.
    fn stats(&mut self, p: Protocol, o: &SimOutcome, run_ns: f64) {
        let s = &o.stats;
        let i = Protocol::ALL
            .iter()
            .position(|&q| q == p)
            .expect("known protocol");
        self.per_proto_ns[i] += run_ns;
        self.per_proto_events[i] += o.events;
        self.add("sim.events", o.events as f64);
        self.add("sim_cycles_total", s.total_cycles as f64);
        self.queue_peaks.extend(&o.peak_queue_depths);
        let t = s.aggregate_traffic();
        self.add("mesh.msgs", t.total_msgs() as f64);
        self.add("mesh.bytes", t.bytes as f64);
        self.add("mesh.faults_injected", s.faults.injected() as f64);
        self.add("mesh.retries", s.faults.retries as f64);
        self.add("mem.refs", s.total_refs() as f64);
        self.add("mem.misses", s.total_miss_count() as f64);
        let sum = |f: fn(&lrc_sim::ProcStats) -> u64| s.procs.iter().map(f).sum::<u64>() as f64;
        self.add("mem.mem_busy_cycles", sum(|p| p.mem_busy));
        self.add("core.pp_busy_cycles", sum(|p| p.pp_busy));
        self.add("core.three_hop", sum(|p| p.three_hop));
        self.add("core.write_notices", sum(|p| p.notices_received));
        self.add(
            "core.acquire_invalidations",
            sum(|p| p.acquire_invalidations),
        );
        self.add("core.eager_invalidations", sum(|p| p.eager_invalidations));
        let b = s.aggregate_breakdown();
        self.add("core.stall_read_cycles", b.read as f64);
        self.add("core.stall_write_cycles", b.write as f64);
        self.add("core.stall_sync_cycles", b.sync as f64);
        self.add("race.epoch_fast_hits", s.races.epoch_fast_hits as f64);
        self.add("race.vector_promotions", s.races.vector_promotions as f64);
        self.add("race.words_monitored", s.races.words_monitored as f64);
    }
}

/// Replay the recorded sends through a fresh `Network` (arrival times out)
/// and then through an `EventQueue` (push at send, pop in time order).
fn replay_sends(
    tr: &mut Tracer,
    acc: &mut Acc,
    cfg: &MachineConfig,
    mut sends: Vec<SendRec>,
) -> Result<(), String> {
    sends.sort_by_key(|s| s.at);
    let arrivals = tr.span("mesh.send_replay", |_| {
        let mut net = Network::new(cfg);
        sends
            .iter()
            .map(|s| net.send(s.at, s.src as usize, s.dst as usize, u64::from(s.bytes)))
            .collect::<Result<Vec<u64>, _>>()
            .map_err(|e| format!("mesh replay: {e}"))
    })?;
    acc.replay_sends += sends.len() as u64;
    let ops = tr.span("sim.queue_replay", |_| {
        let mut q: EventQueue<u32> = EventQueue::new();
        let mut ops = 0u64;
        for (i, (s, &arrive)) in sends.iter().zip(&arrivals).enumerate() {
            while q.peek_time().is_some_and(|t| t <= s.at) {
                black_box(q.pop());
                ops += 1;
            }
            q.push(arrive, i as u64, i as u32);
            ops += 1;
        }
        while let Some(e) = q.pop() {
            black_box(e);
            ops += 1;
        }
        ops
    });
    acc.replay_queue_ops += ops;
    Ok(())
}

/// Replay each processor's operation stream through a fresh `Cache`: a
/// read probes and fills read-only on a miss, a write fills read-write
/// unless the line is already writable.
fn replay_cache(
    tr: &mut Tracer,
    acc: &mut Acc,
    cfg: &MachineConfig,
    mut stream: Box<dyn Workload>,
) {
    for p in 0..stream.num_procs() {
        let ops: Vec<Op> = tr.span("workloads.drain_ops", |_| {
            std::iter::from_fn(|| Some(stream.next_op(p)).filter(|op| *op != Op::Done)).collect()
        });
        let refs = tr.span("mem.cache_replay", |_| {
            let mut cache = Cache::new(cfg);
            let mut refs = 0u64;
            for op in &ops {
                match *op {
                    Op::Read(a) => {
                        let line = LineAddr::containing(a, cfg.line_size);
                        if !cache.touch_hit(line) {
                            black_box(cache.insert(line, LineState::ReadOnly));
                        }
                        refs += 1;
                    }
                    Op::Write(a) => {
                        let line = LineAddr::containing(a, cfg.line_size);
                        if cache.state(line) == LineState::ReadWrite {
                            cache.touch(line);
                        } else {
                            black_box(cache.insert(line, LineState::ReadWrite));
                        }
                        refs += 1;
                    }
                    _ => {}
                }
            }
            refs
        });
        acc.replay_refs += refs;
    }
}

/// One simulation of the traced pass: build under spans, run with the send
/// log installed, then replay its sends and its op streams.
fn traced_sim(
    tr: &mut Tracer,
    acc: &mut Acc,
    protocol: Protocol,
    cfg: &MachineConfig,
    machine: impl FnOnce() -> Machine,
    workload: &dyn Fn() -> Box<dyn Workload>,
) -> Result<SimOutcome, String> {
    let wl = tr.span("workloads.build", |_| workload());
    let m = tr.span("core.machine_new", |_| machine());
    let log = SendLog::default();
    let m = m.with_trace_sink(Box::new(log.clone()), TraceFilter::all().sends_only());
    let t = Instant::now();
    let r = tr.span("core.try_run", |_| workloads::simulate(m, wl));
    let run_ns = t.elapsed().as_nanos() as f64;
    let o = r?;
    acc.stats(protocol, &o, run_ns);
    let data = log.take();
    for c in MsgClass::ALL {
        acc.add(core_msgs_name(c), data.by_class[c.index()] as f64);
    }
    // Link-layer acks and nacks bypass the trace hook; the machine counts
    // them itself.
    acc.add(
        core_msgs_name(MsgClass::Link),
        o.stats.faults.link_msgs as f64,
    );
    replay_sends(tr, acc, cfg, data.sends)?;
    replay_cache(tr, acc, cfg, workload());
    Ok(o)
}

fn core_msgs_name(c: MsgClass) -> &'static str {
    match c {
        MsgClass::Request => "core.msgs.request",
        MsgClass::Response => "core.msgs.response",
        MsgClass::Notice => "core.msgs.notice",
        MsgClass::Sync => "core.msgs.sync",
        MsgClass::Link => "core.msgs.link",
    }
}

/// The traced run of one workload.
pub fn run(kind: Kind, seed: u64) -> Outcome {
    let mut tr = Tracer::new();
    let mut acc = Acc::default();
    let mut notes = Vec::new();
    acc.set("core.shard_queue_imbalance", 1.0);
    acc.set("link.event_ratio", 1.0);
    let tally = match kind {
        Kind::CheckLazy => traced_check(&mut tr, &mut acc, seed),
        _ => traced_sims(&mut tr, &mut acc, kind, seed),
    }
    .unwrap_or_else(|e| Tally {
        attempted: 1,
        errors: vec![e],
    });
    let (attempted, failed) = (tally.attempted, tally.errors.len() as u64);
    notes.extend(tally.errors.iter().map(|e| format!("FAILED {e}")));

    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    acc.set("workloads.build_s", tr.total_s("workloads.build"));
    let try_run_ns = tr.total_s("core.try_run") * 1e9;
    acc.set("sim.ns_per_event", div(try_run_ns, acc.get("sim.events")));
    acc.set(
        "sim.cycles_per_s",
        div(acc.get("sim_cycles_total"), try_run_ns / 1e9),
    );
    acc.set(
        "sim.peak_queue_depth",
        acc.queue_peaks.iter().copied().max().unwrap_or(0) as f64,
    );
    acc.set(
        "sim.queue_replay_ns_per_op",
        div(
            tr.total_s("sim.queue_replay") * 1e9,
            acc.replay_queue_ops as f64,
        ),
    );
    acc.set(
        "mesh.send_replay_ns",
        div(
            tr.total_s("mesh.send_replay") * 1e9,
            acc.replay_sends as f64,
        ),
    );
    acc.set(
        "mem.miss_ratio",
        div(acc.get("mem.misses"), acc.get("mem.refs")),
    );
    acc.set(
        "mem.cache_replay_ns_per_ref",
        div(tr.total_s("mem.cache_replay") * 1e9, acc.replay_refs as f64),
    );
    let ns_per_event = [
        "core.ns_per_event.sc",
        "core.ns_per_event.eager",
        "core.ns_per_event.lazy",
        "core.ns_per_event.lazy-ext",
    ];
    for (i, name) in ns_per_event.into_iter().enumerate() {
        acc.set(
            name,
            div(acc.per_proto_ns[i], acc.per_proto_events[i] as f64),
        );
    }
    acc.set(
        "race.fast_path_ratio",
        div(acc.get("race.epoch_fast_hits"), acc.get("mem.refs")),
    );
    let self_ns = self_times_ns(&tr.spans, &tr.aggregates);
    let check_self_ns: u64 = (tr.spans.iter().zip(&self_ns))
        .filter(|(s, _)| s.name == "check.explore")
        .map(|(_, &ns)| ns)
        .sum();
    acc.set("check.self_s", check_self_ns as f64 / 1e9);

    let layers = layer_self_s(&tr.spans, &tr.aggregates);
    notes.push(format!(
        "layer self time (s): {}",
        layers
            .iter()
            .map(|(l, s)| format!("{l}={s:.4}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));
    notes.push(format!(
        "trace.overhead_ratio {:.4}",
        acc.get("trace.overhead_ratio")
    ));
    if let Some(path) = write_trace(kind, seed, &tr) {
        notes.push(format!("trace written to {path}"));
    }

    let metrics = PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric::new(name, unit, acc.get(name)))
        .collect();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

/// Operations attempted and the failures found by a traced run.
struct Tally {
    attempted: u64,
    errors: Vec<String>,
}

fn traced_sims(tr: &mut Tracer, acc: &mut Acc, kind: Kind, seed: u64) -> Result<Tally, String> {
    let guards = Guards::of(kind);
    let combos = workloads::sim_combos(kind);
    let cfg = MachineConfig::paper_default(kind.procs());
    let mut errors = Vec::new();
    let mut attempted = 2 * combos.len() as u64;

    // The untraced reference. mesh256's is its sequential run, which also
    // checks the sharded engine and gives its speedup.
    let (ref_s, ref_events, ref_digest) = if kind == Kind::Mesh256 {
        let seq = workloads::mesh_sequential(seed);
        let prepared = workloads::prepare(kind, seed);
        let sharded = tr.span("core.execute_sharded", |_| workloads::run_pass(prepared));
        attempted += 1;
        errors.extend(sharded.ops.iter().filter_map(|o| o.error.clone()));
        errors.extend(workloads::mesh_reference_error(sharded.mesh.as_ref(), &seq));
        // Both times are the event loop alone (`sim_wall_secs`).
        let seq_s = seq.as_ref().map_or(0.0, |o| o.wall_s);
        acc.set("core.shard_speedup", seq_s / sharded.run_s);
        if let Some(o) = &sharded.mesh {
            let peaks = &o.peak_queue_depths;
            let mean = peaks.iter().sum::<usize>() as f64 / peaks.len() as f64;
            let max = peaks.iter().copied().max().unwrap_or(0) as f64;
            acc.set("core.shard_queue_imbalance", max / mean);
            acc.queue_peaks.extend(peaks);
        }
        let seq = seq?;
        let (w, p) = combos[0];
        let digest = sha256_hex(workloads::digest_entry(&format!("{w}/{p}"), &seq).as_bytes());
        (seq_s, seq.events, digest)
    } else {
        let reference = workloads::run_pass(workloads::prepare(kind, seed));
        errors.extend(reference.ops.iter().filter_map(|o| o.error.clone()));
        (reference.run_s, reference.events(), reference.digest)
    };

    let mut text = String::new();
    for (i, (w, p)) in combos.iter().copied().enumerate() {
        tr.set_group(i as u64);
        let label = format!("{w}/{p}");
        let o = tr
            .span("bench.sim", |tr| {
                traced_sim(
                    tr,
                    acc,
                    p,
                    &cfg,
                    || workloads::build_machine(kind.procs(), p, guards, seed),
                    &|| w.build_seeded(kind.procs(), kind.scale(), seed),
                )
            })
            .map_err(|e| format!("{label}: {e}"))?;
        text.push_str(&workloads::digest_entry(&label, &o));
    }
    if sha256_hex(text.as_bytes()) != ref_digest {
        errors.push("traced statistics differ from the untraced run".to_string());
    }
    acc.set("trace.overhead_ratio", tr.total_s("core.try_run") / ref_s);

    if kind == Kind::Guarded {
        // One guard at a time on the same inputs: a layer's self time is
        // its armed pass minus the plain pass.
        let plain = Guards::default();
        let toggles = [
            ("core.try_run_plain", plain),
            (
                "race.try_run",
                Guards {
                    race: true,
                    ..plain
                },
            ),
            (
                "classify.try_run",
                Guards {
                    classify: true,
                    ..plain
                },
            ),
            (
                "link.try_run",
                Guards {
                    faults: true,
                    ..plain
                },
            ),
        ];
        let mut secs = [0.0; 4];
        let mut plain_events = 0;
        for (i, (name, g)) in toggles.into_iter().enumerate() {
            let prepared = workloads::prepare_with(kind, seed, g);
            let pass = tr.span(name, |_| workloads::run_pass(prepared));
            attempted += pass.ops.len() as u64;
            errors.extend(pass.ops.iter().filter_map(|o| o.error.clone()));
            secs[i] = pass.run_s;
            if g == plain {
                plain_events = pass.events();
            }
        }
        acc.set("race.self_s", secs[1] - secs[0]);
        acc.set("classify.self_s", secs[2] - secs[0]);
        acc.set("link.self_s", secs[3] - secs[0]);
        acc.set("link.event_ratio", ref_events as f64 / plain_events as f64);
    }
    Ok(Tally { attempted, errors })
}

/// The checker's depth-first search, copied from `lrc_check::explore` so
/// each call into the machine can be timed: the same public `Machine`
/// functions in the same order, without the counterexample bookkeeping.
/// Returns (states, terminals, children generated, children pruned).
fn traced_dfs(
    tr: &mut Tracer,
    root: Machine,
    scenario: &Scenario,
) -> Result<(usize, usize, u64, u64), String> {
    let script = scenario.script();
    let limits = workloads::check_limits();
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(tr.call("core.fingerprint", || root.fingerprint()));
    let mut stack: Vec<(Machine, usize)> = vec![(root, 0)];
    let (mut states, mut terminals, mut generated, mut pruned) = (0usize, 0usize, 0u64, 0u64);
    while let Some((m, depth)) = stack.pop() {
        states += 1;
        if limits.max_states != 0 && states > limits.max_states {
            return Err(format!("{}: state limit reached", scenario.name));
        }
        if !tr
            .call("core.check_violations", || m.check_violations())
            .is_empty()
        {
            return Err(format!("{}: safety violation", scenario.name));
        }
        let pending = m.num_pending();
        if pending == 0 {
            terminals += 1;
            if tr
                .call("check.terminal_failure", || {
                    explore::terminal_failure(&m, &script)
                })
                .is_some()
            {
                return Err(format!("{}: terminal failure", scenario.name));
            }
            continue;
        }
        if depth >= limits.max_depth {
            return Err(format!("{}: depth limit reached", scenario.name));
        }
        for n in (0..pending).rev() {
            let mut child = tr.call("core.clone", || m.clone());
            let fired = tr.call("core.step_choice", || child.step_choice(n));
            debug_assert!(fired);
            generated += 1;
            if visited.insert(tr.call("core.fingerprint", || child.fingerprint())) {
                stack.push((child, depth + 1));
            } else {
                pruned += 1;
            }
        }
    }
    Ok((states, terminals, generated, pruned))
}

fn traced_check(tr: &mut Tracer, acc: &mut Acc, seed: u64) -> Result<Tally, String> {
    let mut errors = Vec::new();
    let reference = workloads::run_pass(workloads::prepare(Kind::CheckLazy, seed));
    errors.extend(reference.ops.iter().filter_map(|o| o.error.clone()));
    let cases = workloads::check_cases();
    let (mut states, mut terminals, mut generated, mut pruned) = (0usize, 0usize, 0u64, 0u64);
    for (i, ((s, p), op)) in cases.iter().zip(&reference.ops).enumerate() {
        tr.set_group(i as u64);
        let root = tr.span("bench.check", |tr| {
            black_box(tr.span("workloads.build", |_| s.script()));
            tr.span("core.build_machine", |_| {
                explore::build_machine_opts(s, *p, Fault::None, BuildOpts::default())
            })
        });
        let (st, te, ge, pr) = tr.span("check.explore", |tr| traced_dfs(tr, root, s))?;
        if st as u64 != op.events {
            errors.push(format!(
                "{}: traced search visited {st} states, check_opts {}",
                op.label, op.events
            ));
        }
        let expected = workloads::CHECK_EXPECTED
            .iter()
            .find(|(n, q, ..)| *n == s.name && *q == p.name());
        if expected.is_some_and(|e| e.3 != te) {
            errors.push(format!(
                "{}: traced search reached {te} terminals",
                op.label
            ));
        }
        states += st;
        terminals += te;
        generated += ge;
        pruned += pr;
    }
    let div = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let per_call = |name| {
        let (count, ns) = tr.aggregate(name);
        div(ns as f64, count as f64)
    };
    acc.set("core.clone_ns", per_call("core.clone"));
    acc.set("core.step_choice_ns", per_call("core.step_choice"));
    acc.set("core.fingerprint_ns", per_call("core.fingerprint"));
    acc.set(
        "core.check_violations_ns",
        per_call("core.check_violations"),
    );
    acc.set("check.states", states as f64);
    acc.set("check.terminals", terminals as f64);
    acc.set("check.prune_ratio", div(pruned as f64, generated as f64));
    acc.set(
        "check.states_per_s",
        div(reference.events() as f64, reference.run_s),
    );
    acc.set(
        "trace.overhead_ratio",
        div(tr.total_s("check.explore"), reference.run_s),
    );

    // The same machines run once in natural event order feed the
    // simulator-layer metrics and replays.
    for (i, (s, p)) in cases.iter().enumerate() {
        tr.set_group((cases.len() + i) as u64);
        let label = format!("{}/{} natural", s.name, p);
        let untraced = workloads::natural_run(s, *p).map_err(|e| format!("{label}: {e}"))?;
        let traced = tr
            .span("bench.sim", |tr| {
                traced_sim(
                    tr,
                    acc,
                    *p,
                    &s.config(),
                    || workloads::natural_machine(s, *p),
                    &|| Box::new(s.script()),
                )
            })
            .map_err(|e| format!("{label}: {e}"))?;
        if traced.stats != untraced.stats {
            errors.push(format!(
                "{label}: traced statistics differ from the untraced run"
            ));
        }
    }
    Ok(Tally {
        attempted: 3 * cases.len() as u64,
        errors,
    })
}

/// Write the spans next to the benchmark binary (inside the build
/// directory); returns the path, or `None` when it cannot be written.
fn write_trace(kind: Kind, seed: u64, tr: &Tracer) -> Option<String> {
    let dir = std::env::current_exe()
        .ok()?
        .parent()?
        .join("perfbench-traces");
    std::fs::create_dir_all(&dir).ok()?;
    let path = dir.join(format!("{}-seed{seed}.json", kind.name()));
    std::fs::write(&path, tr.to_json().dump()).ok()?;
    Some(path.display().to_string())
}
