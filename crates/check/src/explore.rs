//! Exhaustive bounded exploration of protocol interleavings.
//!
//! The state space is a tree: at each state the pending events of the
//! machine's queue (`Machine::num_pending`) are the enabled transitions,
//! and firing the `n`-th (`Machine::step_choice`) yields a child state. A
//! *schedule* — the sequence of choice indices from the initial state —
//! identifies a path, and replaying a schedule on a fresh machine is fully
//! deterministic, which is what makes counterexamples reproducible and
//! minimizable.
//!
//! Exploration is depth-first with visited-state pruning on logical
//! fingerprints ([`Machine::fingerprint`] excludes times and statistics,
//! so two interleavings that converge to the same protocol state are
//! explored once). After every transition the safety oracle
//! ([`Machine::check_violations`]) runs; at every drained state the
//! liveness sweep ([`Machine::stuck_states`]) and the DRF ⇒ SC
//! final-memory comparison against `lrc_sim::refint` run.

use crate::scenario::Scenario;
use lrc_core::{CrashPlan, Fault, FaultPlan, Machine, StuckState, Violation};
use lrc_sim::refint::{self, RefError};
use lrc_sim::{Protocol, RaceReport, Script};
use std::collections::HashSet;

/// Machine-construction options shared by exploration, minimization
/// replays, and report rendering. A counterexample only reproduces on a
/// machine built with the same options it was found under.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct BuildOpts {
    /// Arm the happens-before race detector. Detector state is part of
    /// [`Machine::fingerprint`], so exploration never prunes a racy path
    /// into a clean one — at the cost of a larger state space (vector
    /// clocks depend on lock-grant order, so converging protocol states may
    /// carry diverging clocks).
    pub races: bool,
    /// Crash-timing choice point: kill node `.0` after exactly `.1`
    /// handled events, with instantaneous failure detection (see
    /// [`lrc_core::CrashPlan::kill_nth`]). Makes crash placement part of
    /// the explored schedule, so counterexamples pin the exact
    /// crash-vs-protocol interleaving. The crash rides [`BuildOpts::plan`],
    /// or a plan without link faults when there is none.
    pub crash_nth: Option<(usize, u64)>,
    /// BUSY-NACK choice point: the `n`-th busy-directory encounter answers
    /// with a retriable NACK instead of parking (see
    /// [`Machine::with_nack_nth`]), so exploration covers every
    /// interleaving of the NACK reply and its backoff retry. Only the
    /// eager protocols park at a busy home; under the lazy protocols this
    /// changes nothing.
    pub nack_nth: Option<u64>,
    /// A fault-injection plan on the interconnect, so the checker drives
    /// the protocol *and* the link-layer recovery machinery together.
    /// Deterministic plans ([`FaultPlan::drop_nth`]) are the natural fit:
    /// exactly one chosen message is lost, and stepping proves the retry
    /// layer recovers it — or yields the schedule on which it does not.
    pub plan: Option<FaultPlan>,
}

impl BuildOpts {
    /// A fresh machine for `scenario` with value tracking and every option
    /// armed, not yet prepared. The watchdog stays off: the checker bounds
    /// work by states, not cycles.
    pub(crate) fn machine(&self, scenario: &Scenario, protocol: Protocol, fault: Fault) -> Machine {
        let mut m =
            Machine::new(scenario.config(), protocol).with_fault(fault).with_value_tracking();
        if self.races {
            m = m.with_race_detection();
        }
        if let Some(n) = self.nack_nth {
            m = m.with_nack_nth(n);
        }
        let mut plan = self.plan.clone();
        if let Some((node, n)) = self.crash_nth {
            assert!(node < scenario.procs, "crash victim out of range");
            let base = plan.unwrap_or_else(|| FaultPlan::off(0));
            plan = Some(base.with_crash(CrashPlan::kill_nth(node, n)));
        }
        if let Some(plan) = plan {
            m = m.with_fault_plan(plan);
        }
        m
    }
}

/// Step budget for replaying one schedule (minimization, rendering, the
/// CLI's `--replay`). Bounded configurations drain in well under a
/// thousand events; the slack covers fault-injected runs that spin on
/// retries before deadlocking.
pub const REPLAY_STEPS: usize = 50_000;

/// Exploration bounds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Limits {
    /// Stop after visiting this many states (0 = unbounded / exhaustive).
    pub max_states: usize,
    /// Abandon paths longer than this many choices.
    pub max_depth: usize,
}

impl Default for Limits {
    fn default() -> Self {
        Limits { max_states: 200_000, max_depth: 4_000 }
    }
}

/// What went wrong on one path.
#[derive(Debug, Clone)]
pub enum Failure {
    /// A coherence invariant broke mid-path.
    Safety(Vec<Violation>),
    /// The machine drained with work left undone.
    Liveness(Vec<StuckState>),
    /// The drained machine's final memory disagrees with the reference
    /// sequentially consistent execution.
    ValueMismatch(Vec<String>),
    /// Two nodes held unflushed writes to the same word at quiescence
    /// (only possible for racy programs — scenarios are DRF, so this is a
    /// protocol bug).
    WriteRace(Vec<(u64, usize)>),
    /// The happens-before race detector found unsynchronized conflicting
    /// accesses (race-enabled machines only). This is a property of the
    /// *program*, not the protocol: it voids the DRF ⇒ SC obligation, so
    /// the value checks are skipped on paths carrying this failure.
    HbRace(Vec<RaceReport>),
    /// The reference interpreter could not follow the machine's observed
    /// synchronization order.
    Reference(String),
}

impl std::fmt::Display for Failure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Failure::Safety(vs) => {
                write!(f, "safety: ")?;
                for (i, v) in vs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{v}")?;
                }
                Ok(())
            }
            Failure::Liveness(ss) => {
                write!(f, "liveness: ")?;
                for (i, s) in ss.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{s}")?;
                }
                Ok(())
            }
            Failure::ValueMismatch(diffs) => {
                write!(f, "final memory differs from the reference SC execution: ")?;
                for (i, d) in diffs.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{d}")?;
                }
                Ok(())
            }
            Failure::WriteRace(words) => {
                write!(f, "conflicting unflushed writes at quiescence: {words:?}")
            }
            Failure::HbRace(reports) => {
                write!(f, "data race: ")?;
                for (i, r) in reports.iter().enumerate() {
                    if i > 0 {
                        write!(f, "; ")?;
                    }
                    write!(f, "{}", r.render())?;
                }
                Ok(())
            }
            Failure::Reference(e) => write!(f, "reference interpreter: {e}"),
        }
    }
}

/// A failing path: the schedule that reproduces it plus what it violates.
#[derive(Debug, Clone)]
pub struct Counterexample {
    /// Choice indices from the initial state (replay with
    /// [`replay_schedule_opts`]; choices past the end default to 0).
    pub schedule: Vec<usize>,
    /// The violated property.
    pub failure: Failure,
}

/// Outcome of checking one (scenario, protocol, fault) combination.
#[derive(Debug, Clone)]
pub struct CheckReport {
    /// States visited (after pruning).
    pub states: usize,
    /// Drained (terminal) states reached.
    pub terminals: usize,
    /// Length of the longest explored path.
    pub max_depth_seen: usize,
    /// False when a limit stopped exploration before exhausting the space.
    pub complete: bool,
    /// The first counterexample found, if any (already minimized by the
    /// caller if requested).
    pub counterexample: Option<Counterexample>,
}

/// Build and prepare the machine for one checking run of `scenario`
/// under `opts`.
pub fn build_machine_opts(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
) -> Machine {
    let mut m = opts.machine(scenario, protocol, fault);
    m.prepare(Box::new(scenario.script()));
    m
}

/// Check every property of a drained machine: liveness residue, write
/// races, and final memory against the reference SC interpreter. Public so
/// fault-recovery tests and harnesses can apply the same oracle to
/// machines they stepped themselves.
pub fn terminal_failure(m: &Machine, script: &Script) -> Option<Failure> {
    let stuck = m.stuck_states();
    if !stuck.is_empty() {
        return Some(Failure::Liveness(stuck));
    }
    // A crash-stop death loses the victim's remaining script and possibly
    // its dirty lines (typed data loss, by design), so the final memory
    // cannot be expected to match a full reference execution. Liveness
    // above is the crash run's oracle: survivors must still complete.
    if m.crash_occurred() {
        return None;
    }
    // The detector's verdict gates everything downstream: DRF ⇒ SC is an
    // implication, and a racy program voids its premise — write-overlay
    // conflicts and reference-memory divergence are then properties of the
    // program, not protocol bugs. Detector-off machines keep the historical
    // behavior of trusting the scenario library's DRF promise.
    if let Some(rs) = m.race_stats() {
        if !rs.race_free() {
            return Some(Failure::HbRace(rs.reports.clone()));
        }
    }
    let (mem, conflicts) = m.final_memory().expect("value tracking enabled");
    if !conflicts.is_empty() {
        return Some(Failure::WriteRace(conflicts));
    }
    let cfg = m.config();
    match refint::interpret(script, cfg.line_size, cfg.word_size, m.grant_log()) {
        Ok(ref_mem) => {
            if mem == ref_mem {
                None
            } else {
                let mut diffs = Vec::new();
                for (k, v) in &ref_mem {
                    match mem.get(k) {
                        Some(got) if got == v => {}
                        Some(got) => diffs.push(format!(
                            "line {} word {}: machine has P{}#{}, reference has P{}#{}",
                            k.0, k.1, got.proc, got.seq, v.proc, v.seq
                        )),
                        None => diffs.push(format!(
                            "line {} word {}: machine lost P{}#{}",
                            k.0, k.1, v.proc, v.seq
                        )),
                    }
                }
                for (k, got) in &mem {
                    if !ref_mem.contains_key(k) {
                        diffs.push(format!(
                            "line {} word {}: machine invented P{}#{}",
                            k.0, k.1, got.proc, got.seq
                        ));
                    }
                }
                Some(Failure::ValueMismatch(diffs))
            }
        }
        Err(e @ (RefError::GrantOrderMismatch { .. } | RefError::Stuck { .. })) => {
            Some(Failure::Reference(e.to_string()))
        }
    }
}

/// Exhaustively explore `scenario` under `protocol` (with `fault`
/// injected and `opts` armed), depth-first with fingerprint pruning,
/// stopping at the first counterexample or when `limits` cut the search
/// off. With `crash_nth` set, surviving processors must still drain to a
/// clean (crash-degraded) quiescent state on every interleaving.
pub fn check_opts(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
    limits: Limits,
) -> CheckReport {
    check_root(build_machine_opts(scenario, protocol, fault, opts), scenario, limits)
}

fn check_root(root: Machine, scenario: &Scenario, limits: Limits) -> CheckReport {
    let script = scenario.script();
    let mut visited: HashSet<u64> = HashSet::new();
    visited.insert(root.fingerprint());
    let mut stack: Vec<(Machine, Vec<usize>)> = vec![(root, Vec::new())];

    let mut report = CheckReport {
        states: 0,
        terminals: 0,
        max_depth_seen: 0,
        complete: true,
        counterexample: None,
    };

    while let Some((m, schedule)) = stack.pop() {
        report.states += 1;
        report.max_depth_seen = report.max_depth_seen.max(schedule.len());
        if limits.max_states != 0 && report.states > limits.max_states {
            report.complete = false;
            break;
        }

        let violations = m.check_violations();
        if !violations.is_empty() {
            report.counterexample =
                Some(Counterexample { schedule, failure: Failure::Safety(violations) });
            return report;
        }

        let pending = m.num_pending();
        if pending == 0 {
            report.terminals += 1;
            if let Some(failure) = terminal_failure(&m, &script) {
                report.counterexample = Some(Counterexample { schedule, failure });
                return report;
            }
            continue;
        }

        if schedule.len() >= limits.max_depth {
            report.complete = false;
            continue;
        }

        // Push children in reverse so choice 0 (the natural event order)
        // is explored first.
        for n in (0..pending).rev() {
            let mut child = m.clone();
            let fired = child.step_choice(n);
            debug_assert!(fired);
            if visited.insert(child.fingerprint()) {
                let mut s = schedule.clone();
                s.push(n);
                stack.push((child, s));
            }
        }
    }
    report
}

/// Deterministically replay a schedule from a fresh machine built with
/// `opts` (the options the counterexample was found under): choice `i`
/// fires event `schedule[i]` (clamped to the pending count); choices past
/// the end fire event 0, so a truncated schedule continues with the
/// natural event order until the machine drains. Returns the failure the
/// path exhibits, if any, and the machine in its end state.
pub fn replay_schedule_opts(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    opts: BuildOpts,
    schedule: &[usize],
    max_steps: usize,
) -> (Option<Failure>, Machine) {
    replay_on(build_machine_opts(scenario, protocol, fault, opts), scenario, schedule, max_steps)
}

/// [`replay_schedule_opts`] on an already prepared machine.
pub(crate) fn replay_on(
    mut m: Machine,
    scenario: &Scenario,
    schedule: &[usize],
    max_steps: usize,
) -> (Option<Failure>, Machine) {
    let script = scenario.script();
    let mut step = 0usize;
    while m.num_pending() > 0 && step < max_steps {
        let want = schedule.get(step).copied().unwrap_or(0);
        let n = want.min(m.num_pending() - 1);
        m.step_choice(n);
        step += 1;
        let violations = m.check_violations();
        if !violations.is_empty() {
            return (Some(Failure::Safety(violations)), m);
        }
    }
    if m.num_pending() > 0 {
        // Ran out of steps — not a verdict; the minimizer treats this as
        // "does not fail".
        return (None, m);
    }
    (terminal_failure(&m, &script), m)
}
