//! The four benchmark workloads: inputs, one timed pass, output checks.
//!
//! Every workload is a fixed list of *operations* (one simulation, or one
//! scenario check). A pass sets each operation up, times the call into
//! the program, and checks its output. Each workload takes the benchmark
//! seed; seed 0 is the golden input.

use crate::probe::RefClock;
use lrc_check::explore::{self, BuildOpts, CheckReport, Limits};
use lrc_check::scenario::{self, Scenario};
use lrc_core::{Fault, FaultPlan, Machine, RunResult};
use lrc_exp::RunSpec;
use lrc_json::{json, Value};
use lrc_sim::{MachineConfig, MachineStats, Protocol};
use lrc_workloads::{Scale, WorkloadKind};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// 7 SPLASH generators × 4 protocols, small inputs, 16 processors,
    /// every opt-in subsystem off: the plain kernel hot path.
    Splash16,
    /// The same 28 runs with race detection, miss classification, a
    /// uniform fault plan and a watchdog armed.
    Guarded,
    /// mp3d under lazy at large scale on a 256-node mesh, on the sharded
    /// engine.
    Mesh256,
    /// The model checker over four scenarios under lazy and lazy-ext.
    CheckLazy,
}

impl Kind {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Kind; 4] = [
        Kind::Splash16,
        Kind::Guarded,
        Kind::Mesh256,
        Kind::CheckLazy,
    ];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Kind::Splash16 => "splash16",
            Kind::Guarded => "splash16-guarded",
            Kind::Mesh256 => "mesh256",
            Kind::CheckLazy => "check-lazy",
        }
    }

    /// Parse a `--workload` name.
    pub fn parse(s: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == s)
    }

    /// The parameters that, with the seed, determine the workload's
    /// inputs and outputs (hashed into the provenance record).
    pub fn params(self, seed: u64) -> Value {
        let combos: Vec<Value> = match self {
            Kind::CheckLazy => check_cases()
                .iter()
                .map(|(s, p)| Value::from(format!("{}/{}", s.name, p)))
                .collect(),
            _ => sim_combos(self)
                .iter()
                .map(|(w, p)| Value::from(format!("{w}/{p}")))
                .collect(),
        };
        json!({
            "workload": self.name(),
            "seed": seed,
            "ops": combos,
            "procs": self.procs(),
            "scale": self.scale().name(),
            "threads": self.threads(),
            "guards": self == Kind::Guarded,
            "fault_rate": FAULT_RATE,
            "watchdog": WATCHDOG_CYCLES,
        })
    }

    /// Simulated processors (nodes).
    pub fn procs(self) -> usize {
        match self {
            Kind::Mesh256 => 256,
            _ => 16,
        }
    }

    /// Input size of the SPLASH generators.
    pub fn scale(self) -> Scale {
        match self {
            Kind::Mesh256 => Scale::Large,
            _ => Scale::Small,
        }
    }

    /// Worker threads of the sharded engine (mesh256 only): two, or fewer
    /// on a host with fewer cores.
    pub fn threads(self) -> usize {
        match self {
            Kind::Mesh256 => std::thread::available_parallelism().map_or(1, |n| n.get().min(2)),
            _ => 1,
        }
    }
}

/// Per-message fault probability of the guarded workload.
pub const FAULT_RATE: f64 = 1e-4;

/// Watchdog horizon of the guarded workload, in cycles (as `lrc-soak`).
pub const WATCHDOG_CYCLES: u64 = 10_000_000;

/// Simulated-time ceiling for every simulation: far above any workload
/// here, so reaching it means the machine livelocked.
const MAX_CYCLES: u64 = 200_000_000_000;

/// The (generator, protocol) simulations of a simulator workload.
pub fn sim_combos(kind: Kind) -> Vec<(WorkloadKind, Protocol)> {
    match kind {
        Kind::Splash16 | Kind::Guarded => Protocol::ALL
            .iter()
            .flat_map(|&p| WorkloadKind::ALL.iter().map(move |&w| (w, p)))
            .collect(),
        Kind::Mesh256 => vec![(WorkloadKind::Mp3d, Protocol::Lrc)],
        Kind::CheckLazy => Vec::new(),
    }
}

/// Which opt-in subsystems a simulation arms. The guarded workload arms
/// all three; the traced run toggles them one at a time.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Guards {
    /// Happens-before race detector.
    pub race: bool,
    /// Miss classifier.
    pub classify: bool,
    /// Uniform fault plan (link layer) plus the watchdog.
    pub faults: bool,
}

impl Guards {
    /// Every guard armed.
    pub const ALL: Guards = Guards {
        race: true,
        classify: true,
        faults: true,
    };

    /// The guards a workload's timed runs use.
    pub fn of(kind: Kind) -> Guards {
        if kind == Kind::Guarded {
            Guards::ALL
        } else {
            Guards::default()
        }
    }
}

/// The Table-1 machine for one simulation, with `guards` armed.
pub fn build_machine(procs: usize, protocol: Protocol, guards: Guards, seed: u64) -> Machine {
    let mut m =
        Machine::new(MachineConfig::paper_default(procs), protocol).with_max_cycles(MAX_CYCLES);
    if guards.race {
        m = m.with_race_detection();
    }
    if guards.classify {
        m = m.with_classification();
    }
    if guards.faults {
        m = m
            .with_fault_plan(FaultPlan::uniform(FAULT_RATE, seed))
            .with_watchdog(WATCHDOG_CYCLES);
    }
    m
}

/// The four checker scenarios × {lazy, lazy-ext}. The scenario library is
/// fixed, so check-lazy's inputs do not depend on the seed.
pub fn check_cases() -> Vec<(Scenario, Protocol)> {
    CHECK_SCENARIOS
        .iter()
        .flat_map(|name| {
            let s = scenario::by_name(name).expect("scenario in the library");
            [Protocol::Lrc, Protocol::LrcExt].map(|p| (s.clone(), p))
        })
        .collect()
}

const CHECK_SCENARIOS: [&str; 4] = ["counter", "two-locks", "three-way", "barrier-phases"];

/// `check_opts` results recorded with the benchmark at the default limits:
/// (scenario, protocol, states, terminals). A change to the protocols or
/// to the checker that alters the explored state space shows here.
pub const CHECK_EXPECTED: [(&str, &str, usize, usize); 8] = [
    ("counter", "lazy", 123547, 4),
    ("counter", "lazy-ext", 3091, 4),
    ("two-locks", "lazy", 60944, 3),
    ("two-locks", "lazy-ext", 5636, 3),
    ("three-way", "lazy", 37367, 3),
    ("three-way", "lazy-ext", 2103, 3),
    ("barrier-phases", "lazy", 8847, 8),
    ("barrier-phases", "lazy-ext", 810, 8),
];

/// The checker's exploration bounds: the library defaults.
pub fn check_limits() -> Limits {
    Limits::default()
}

/// Compare one check report against [`CHECK_EXPECTED`].
pub fn check_report_error(s: &Scenario, p: Protocol, r: &CheckReport) -> Option<String> {
    if let Some(cx) = &r.counterexample {
        return Some(format!(
            "{}/{}: counterexample {:?}",
            s.name, p, cx.schedule
        ));
    }
    let (_, _, states, terminals) = *CHECK_EXPECTED
        .iter()
        .find(|(n, q, ..)| *n == s.name && *q == p.name())
        .expect("every case has recorded counts");
    (r.states != states || r.terminals != terminals).then(|| {
        format!(
            "{}/{}: {} states, {} terminals; recorded {states}, {terminals}",
            s.name, p, r.states, r.terminals
        )
    })
}

/// What one simulation left behind that the checks and metrics need.
#[derive(Debug, Clone)]
pub struct SimOutcome {
    /// The run's statistics.
    pub stats: MachineStats,
    /// Events the kernel handled.
    pub events: u64,
    /// Per-shard event-queue high-water marks.
    pub peak_queue_depths: Vec<usize>,
    /// Host seconds inside the event loop (`RunResult::sim_wall_secs`):
    /// the sharded engine's builds before its run are not in it.
    pub wall_s: f64,
}

impl SimOutcome {
    fn of(r: RunResult) -> SimOutcome {
        SimOutcome {
            stats: r.stats,
            events: r.events,
            peak_queue_depths: r.peak_queue_depths,
            wall_s: r.sim_wall_secs,
        }
    }
}

/// Run `f`, turning a panic into an error message.
pub fn guarded_call<R>(f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).unwrap_or_else(|e| {
        let msg = e
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| e.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".to_string());
        Err(format!("panicked: {msg}"))
    })
}

/// Run one prepared simulation, sequentially or on the sharded engine.
pub fn simulate(m: Machine, w: Box<dyn lrc_sim::Workload>) -> Result<SimOutcome, String> {
    guarded_call(|| {
        m.try_run(w)
            .map(SimOutcome::of)
            .map_err(|d| format!("watchdog: {d}"))
    })
}

/// Output checks on one simulation, for the guards it ran with.
pub fn sim_output_error(guards: Guards, w: WorkloadKind, o: &SimOutcome) -> Option<String> {
    let s = &o.stats;
    if guards.faults && s.faults.retries_exhausted != 0 {
        return Some(format!(
            "{} link retries exhausted",
            s.faults.retries_exhausted
        ));
    }
    let racy = matches!(w, WorkloadKind::Mp3d | WorkloadKind::Locusroute);
    if guards.race && s.races.race_free() == racy {
        let verdict = if racy { "race-free" } else { "racy" };
        return Some(format!("race verdict {verdict} for {w}"));
    }
    let classified = s.aggregate_misses().total();
    (guards.classify && classified != s.total_miss_count()).then(|| {
        format!(
            "{classified} classified misses vs {} total",
            s.total_miss_count()
        )
    })
}

/// One simulation's line in a pass digest: its event count and its full
/// statistics.
pub fn digest_entry(label: &str, o: &SimOutcome) -> String {
    format!("{label}: {} {:?}\n", o.events, o.stats)
}

/// One operation's result within a pass.
#[derive(Debug, Clone)]
pub struct OpResult {
    /// `generator/protocol` or `scenario/protocol`.
    pub label: String,
    /// The failure, if the operation panicked, wedged or failed a check.
    pub error: Option<String>,
    /// Simulated execution time (simulations; 0 for checks).
    pub sim_cycles: u64,
    /// Events handled (simulations) or states visited (checks).
    pub events: u64,
}

/// One timed pass over every operation of a workload.
#[derive(Debug, Clone)]
pub struct Pass {
    /// Host seconds inside the timed calls.
    pub run_s: f64,
    /// `run_s` scaled to the reference host speed, call by call
    /// ([`crate::probe`]).
    pub ref_run_s: f64,
    /// Host seconds of set-up done inside the timed call, scaled to the
    /// reference host speed: the sharded engine builds its machines and
    /// workloads itself (mesh256 only).
    pub ref_engine_setup_s: Option<f64>,
    /// Per-operation results, in order.
    pub ops: Vec<OpResult>,
    /// SHA-256 over the simulated outputs of every operation.
    pub digest: String,
    /// The sharded mesh256 run (compared with a sequential reference once
    /// per invocation).
    pub mesh: Option<SimOutcome>,
}

impl Pass {
    /// Events handled (or states visited) over the pass.
    pub fn events(&self) -> u64 {
        self.ops.iter().map(|o| o.events).sum()
    }
}

/// Inputs of one pass, built ahead of the timed calls.
pub enum Prepared {
    /// Machines built with these guards and generated workloads, one per
    /// simulation.
    Sims(
        Guards,
        Vec<(WorkloadKind, Protocol, Machine, Box<dyn lrc_sim::Workload>)>,
    ),
    /// The sharded run of this seed; the engine builds its machines and
    /// workloads itself, inside the timed call.
    Sharded(u64),
    /// Scenario cases, with the root machines `check_opts` builds from
    /// them (it builds its own inside the timed call, so these are the
    /// same construction timed standalone).
    Checks(Vec<(Scenario, Protocol, Machine)>),
}

impl Prepared {
    /// Threads the pass's timed calls run on.
    fn threads(&self) -> usize {
        match self {
            Prepared::Sharded(_) => Kind::Mesh256.threads(),
            Prepared::Sims(..) | Prepared::Checks(_) => 1,
        }
    }
}

/// mesh256's one simulation, as the sharded engine's runner takes it.
fn mesh_spec(seed: u64) -> RunSpec {
    let kind = Kind::Mesh256;
    RunSpec::new(
        Protocol::Lrc,
        WorkloadKind::Mp3d,
        kind.scale(),
        kind.procs(),
    )
    .with_seed(seed)
}

/// Generate the inputs and build the machines of one pass.
pub fn prepare(kind: Kind, seed: u64) -> Prepared {
    prepare_with(kind, seed, Guards::of(kind))
}

/// [`prepare`], with the simulator workloads' machines built with `guards`.
pub fn prepare_with(kind: Kind, seed: u64, guards: Guards) -> Prepared {
    match kind {
        Kind::Splash16 | Kind::Guarded => Prepared::Sims(
            guards,
            sim_combos(kind)
                .into_iter()
                .map(|(w, p)| {
                    let wl = w.build_seeded(kind.procs(), kind.scale(), seed);
                    (w, p, build_machine(kind.procs(), p, guards, seed), wl)
                })
                .collect(),
        ),
        Kind::Mesh256 => Prepared::Sharded(seed),
        Kind::CheckLazy => Prepared::Checks(
            check_cases()
                .into_iter()
                .map(|(s, p)| {
                    // What `check_opts` builds before its search: the root
                    // machine, which runs the script, and the script again.
                    let m = explore::build_machine_opts(&s, p, Fault::None, BuildOpts::default());
                    drop(s.script());
                    (s, p, m)
                })
                .collect(),
        ),
    }
}

/// The result of one simulation; its statistics are appended to `text`,
/// the pass digest's input.
fn sim_op(
    guards: Guards,
    w: WorkloadKind,
    p: Protocol,
    r: &Result<SimOutcome, String>,
    text: &mut String,
) -> OpResult {
    let label = format!("{w}/{p}");
    match r {
        Ok(o) => {
            text.push_str(&digest_entry(&label, o));
            OpResult {
                error: sim_output_error(guards, w, o).map(|e| format!("{label}: {e}")),
                label,
                sim_cycles: o.stats.total_cycles,
                events: o.events,
            }
        }
        Err(e) => OpResult {
            error: Some(format!("{label}: {e}")),
            label,
            sim_cycles: 0,
            events: 0,
        },
    }
}

/// Run one pass on `prepared` inputs; only the calls into the program are
/// timed, and a host-speed probe brackets each call.
pub fn run_pass(prepared: Prepared) -> Pass {
    let mut run_s = 0.0;
    let mut ref_run_s = 0.0;
    let mut ops = Vec::new();
    let mut mesh = None;
    let mut ref_engine_setup_s = None;
    let mut clock = RefClock::start(prepared.threads());
    let mut text = String::new();
    match prepared {
        Prepared::Sims(guards, sims) => {
            for (w, p, m, wl) in sims {
                let t = Instant::now();
                let r = simulate(m, wl);
                let secs = t.elapsed().as_secs_f64();
                run_s += secs;
                ref_run_s += secs * clock.factor();
                ops.push(sim_op(guards, w, p, &r, &mut text));
            }
        }
        Prepared::Sharded(seed) => {
            let spec = mesh_spec(seed);
            let threads = Kind::Mesh256.threads();
            let t = Instant::now();
            let r = guarded_call(|| Ok(lrc_exp::execute_sharded(&spec, threads)));
            let call_s = t.elapsed().as_secs_f64();
            let r = r.map(SimOutcome::of);
            // The run is the engine's event loop; the rest of the call
            // builds the probe machine and each shard's machine and
            // workload.
            run_s = r.as_ref().map_or(call_s, |o| o.wall_s);
            let k = clock.factor();
            ref_run_s = run_s * k;
            ref_engine_setup_s = Some((call_s - run_s) * k);
            ops.push(sim_op(
                Guards::default(),
                spec.workload,
                spec.protocol,
                &r,
                &mut text,
            ));
            mesh = r.ok();
        }
        Prepared::Checks(cases) => {
            for (s, p, _) in cases {
                let t = Instant::now();
                let r = guarded_call(|| {
                    Ok(explore::check_opts(
                        &s,
                        p,
                        Fault::None,
                        BuildOpts::default(),
                        check_limits(),
                    ))
                });
                let secs = t.elapsed().as_secs_f64();
                run_s += secs;
                ref_run_s += secs * clock.factor();
                let label = format!("{}/{}", s.name, p);
                ops.push(match r {
                    Ok(rep) => {
                        text.push_str(&format!(
                            "{label}: {} {} {}\n",
                            rep.states, rep.terminals, rep.max_depth_seen
                        ));
                        OpResult {
                            error: check_report_error(&s, p, &rep),
                            sim_cycles: 0,
                            events: rep.states as u64,
                            label,
                        }
                    }
                    Err(e) => OpResult {
                        error: Some(format!("{label}: {e}")),
                        label,
                        sim_cycles: 0,
                        events: 0,
                    },
                });
            }
        }
    }
    Pass {
        run_s,
        ref_run_s,
        ref_engine_setup_s,
        ops,
        digest: lrc_exp::sha::sha256_hex(text.as_bytes()),
        mesh,
    }
}

/// The simulated execution time of every operation, geomean'd: the
/// modelled machine's cycles. For check-lazy, each case's machine is run
/// once in natural event order (the checker's choice 0 everywhere).
pub fn sim_cycles_geomean(kind: Kind, pass: &Pass) -> Result<f64, String> {
    let cycles: Vec<u64> = match kind {
        Kind::CheckLazy => check_cases()
            .iter()
            .map(|(s, p)| natural_run(s, *p).map(|o| o.stats.total_cycles))
            .collect::<Result<_, _>>()?,
        _ => pass.ops.iter().map(|o| o.sim_cycles).collect(),
    };
    Ok(geomean(&cycles))
}

/// The machine a checker scenario runs on outside the checker.
pub fn natural_machine(s: &Scenario, p: Protocol) -> Machine {
    Machine::new(s.config(), p).with_max_cycles(MAX_CYCLES)
}

/// A checker scenario run to completion in natural event order.
pub fn natural_run(s: &Scenario, p: Protocol) -> Result<SimOutcome, String> {
    simulate(natural_machine(s, p), Box::new(s.script()))
}

/// Geometric mean (0 for an empty or zero-containing list).
pub fn geomean(xs: &[u64]) -> f64 {
    if xs.is_empty() || xs.contains(&0) {
        return 0.0;
    }
    (xs.iter().map(|&x| (x as f64).ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// mesh256's inputs run on the sequential kernel: the reference the
/// sharded statistics must equal.
pub fn mesh_sequential(seed: u64) -> Result<SimOutcome, String> {
    let spec = mesh_spec(seed);
    let wl = spec.workload.build_seeded(spec.procs, spec.scale, seed);
    simulate(
        build_machine(spec.procs, spec.protocol, Guards::default(), seed),
        wl,
    )
}

/// Compare the sharded run with the sequential reference.
pub fn mesh_reference_error(
    sharded: Option<&SimOutcome>,
    sequential: &Result<SimOutcome, String>,
) -> Option<String> {
    match (sharded, sequential) {
        (_, Err(e)) => Some(format!("sequential reference: {e}")),
        (Some(sh), Ok(seq)) if sh.stats == seq.stats => None,
        (Some(_), Ok(_)) => Some("sharded statistics differ from the sequential reference".into()),
        (None, Ok(_)) => Some("no sharded statistics to compare".into()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Digest of splash16's simulated statistics on seed 0, the golden
    /// (canonical) inputs, recorded with the benchmark.
    const SPLASH16_SEED0_DIGEST: &str =
        "405144cef401086cabadd93a33e1f69cd46e566eb9eb8d02f2ba1eaa1987ecb5";

    fn pass(seed: u64) -> Pass {
        run_pass(prepare(Kind::Splash16, seed))
    }

    #[test]
    fn seed_zero_is_golden_and_seed_one_differs_but_passes() {
        let golden = pass(0);
        assert!(golden.ops.iter().all(|o| o.error.is_none()));
        assert_eq!(golden.digest, SPLASH16_SEED0_DIGEST);
        assert_eq!(golden.events(), 3_603_439);
        let other = pass(1);
        assert!(
            other.ops.iter().all(|o| o.error.is_none()),
            "seed 1 passes its checks"
        );
        assert_ne!(other.digest, golden.digest);
    }

    #[test]
    fn seed_zero_inputs_are_the_canonical_builds() {
        for w in WorkloadKind::ALL {
            let (mut a, mut b) = (
                w.build_seeded(16, Scale::Small, 0),
                w.build(16, Scale::Small),
            );
            for p in 0..16 {
                for _ in 0..2000 {
                    assert_eq!(a.next_op(p), b.next_op(p), "{w} proc {p}");
                }
            }
        }
    }
}
