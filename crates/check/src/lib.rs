//! `lrc-check` — a bounded, exhaustive model checker for the four
//! coherence protocols in `lrc-core`.
//!
//! The checker treats the simulator itself as the transition relation: a
//! state is a cloned [`lrc_core::Machine`], the enabled transitions are
//! the events pending in its queue, and firing the `n`-th pending event
//! ([`lrc_core::Machine::step_choice`]) yields a successor. Depth-first
//! search with visited-state pruning on logical fingerprints explores
//! *every* interleaving of protocol messages, processor steps, and flush
//! timers for a small scripted scenario (2–4 processors, 1–2 cache
//! lines).
//!
//! Checked properties:
//!
//! * **Safety** — after every transition, the global coherence invariants
//!   (writers ⊆ sharers, notified ⊆ sharers, single writer, directory
//!   soundness) must hold ([`lrc_core::Machine::check_violations`]).
//! * **Liveness** — every drained state (empty event queue) must be a
//!   clean quiescent state: all processors finished, no outstanding
//!   transactions, no unacked flushes, no busy directory entries, no
//!   parked requests ([`lrc_core::Machine::stuck_states`]).
//! * **DRF ⇒ SC** — at every drained state the machine's symbolic final
//!   memory (last [`lrc_sim::refint::WriteId`] per word) must equal a
//!   reference sequentially consistent interpretation of the script under
//!   the lock-grant order the machine actually produced, and no two nodes
//!   may hold unflushed writes to the same word.
//!
//! On a violation the failing schedule is shrunk by delta debugging
//! ([`minimize::minimize_opts`]) and rendered as a protocol message timeline
//! ([`report::render_opts`]). Replays are deterministic: the printed schedule
//! reproduces the exact failing interleaving via `lrc-check --replay`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod explore;
pub mod minimize;
pub mod report;
pub mod scenario;

use explore::{BuildOpts, CheckReport, Limits};
use lrc_core::Fault;
use lrc_sim::Protocol;
use minimize::FailureClass;
use scenario::Scenario;

/// Parse a CLI fault name ("none", "skip-invalidate", "skip-write-notice",
/// "skip-lock-reclaim"), the inverse of [`report::fault_name`].
pub fn parse_fault(s: &str) -> Option<Fault> {
    [Fault::None, Fault::SkipInvalidate, Fault::SkipWriteNotice, Fault::SkipLockReclaim]
        .into_iter()
        .find(|&f| report::fault_name(f) == s)
}

/// Outcome of one fully processed (scenario, protocol, fault) run: the
/// exploration report plus, on failure, the minimized schedule and a
/// rendered human-readable counterexample.
pub struct CheckOutcome {
    /// Raw exploration statistics and the (unminimized) first failure.
    pub report: CheckReport,
    /// Minimized schedule, when a counterexample was found.
    pub minimized: Option<Vec<usize>>,
    /// Rendered report for the minimized counterexample.
    pub rendered: Option<String>,
}

impl CheckOutcome {
    /// True when no counterexample was found.
    pub fn passed(&self) -> bool {
        self.report.counterexample.is_none()
    }
}

/// Explore one combination under `opts` and, if it fails, minimize and
/// render the counterexample. Exploration, minimization replays, and the
/// rendering replay all run with the same options, so race, NACK and
/// crash-timing counterexamples shrink and reproduce exactly.
pub fn check_and_minimize_opts(
    scenario: &Scenario,
    protocol: Protocol,
    fault: Fault,
    limits: Limits,
    opts: BuildOpts,
) -> CheckOutcome {
    let report = explore::check_opts(scenario, protocol, fault, opts.clone(), limits);
    let (minimized, rendered) = match &report.counterexample {
        None => (None, None),
        Some(cex) => {
            let class = FailureClass::of(&cex.failure);
            let (schedule, failure) = minimize::minimize_opts(
                scenario,
                protocol,
                fault,
                &cex.schedule,
                class,
                opts.clone(),
            );
            let min_cex = explore::Counterexample { schedule: schedule.clone(), failure };
            let rendered = report::render_opts(scenario, protocol, fault, &min_cex, opts);
            (Some(schedule), Some(rendered))
        }
    };
    CheckOutcome { report, minimized, rendered }
}
