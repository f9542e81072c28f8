//! The checker's own test suite.
//!
//! Default tier: exhaustively verify the cheapest 2-processor scenarios
//! under all four protocols, boundedly verify the rest, and prove the
//! checker actually *catches* bugs by injecting two protocol mutations and
//! asserting a minimized counterexample of the right class comes back.
//! The full exhaustive sweep over every scenario is `#[ignore]`d — run it
//! with `cargo test -p lrc-check -- --ignored`.

use lrc_check::explore::{
    build_machine_opts, check_opts, replay_schedule_opts, terminal_failure, BuildOpts, Failure,
    Limits,
};
use lrc_check::minimize::FailureClass;
use lrc_check::{check_and_minimize_opts, scenario};
use lrc_core::Fault;
use lrc_sim::Protocol;

const EXHAUSTIVE: Limits = Limits { max_states: 0, max_depth: 4_000 };

fn bounded(max_states: usize) -> Limits {
    Limits { max_states, max_depth: 4_000 }
}

fn plain() -> BuildOpts {
    BuildOpts::default()
}

fn raced() -> BuildOpts {
    BuildOpts { races: true, ..BuildOpts::default() }
}

/// Exact `(states, terminals)` per labelled run, as the explorer reports
/// them. Pruning depends on which machine fields the state fingerprint
/// folds, so a change to that set shows up here as a count change.
type Counts = &'static [(&'static str, usize, usize)];

fn assert_counts(test: &str, got: &[(String, usize, usize)], want: Counts) {
    let want: Vec<(String, usize, usize)> =
        want.iter().map(|&(l, s, t)| (l.to_string(), s, t)).collect();
    assert!(got == want.as_slice(), "{test}: explored state counts changed; got {got:?}");
}

/// The cheap scenarios: small enough to exhaust under every protocol in
/// debug builds.
const CHEAP: &[&str] = &["handoff", "barrier-phases", "counter", "three-way"];

#[test]
fn cheap_scenarios_pass_exhaustively_under_all_protocols() {
    let mut counts = Vec::new();
    for name in CHEAP {
        let s = scenario::by_name(name).unwrap();
        for p in Protocol::ALL {
            // `counter` under plain lazy is the one cheap case with a six-
            // figure state space; bound it in the default tier (the ignored
            // sweep exhausts it).
            let limits = if *name == "counter" && p == Protocol::Lrc {
                bounded(30_000)
            } else {
                EXHAUSTIVE
            };
            let r = check_opts(&s, p, Fault::None, plain(), limits);
            assert!(
                r.counterexample.is_none(),
                "{name} under {} failed: {}",
                p.name(),
                r.counterexample.unwrap().failure
            );
            if limits.max_states == 0 {
                assert!(r.complete, "{name} under {} did not exhaust", p.name());
                assert!(r.terminals > 0, "{name} under {} reached no terminal", p.name());
            }
            counts.push((format!("{name}/{}", p.name()), r.states, r.terminals));
        }
    }
    assert_counts("cheap scenarios", &counts, CHEAP_COUNTS);
}

const CHEAP_COUNTS: Counts = &[
    ("handoff/sc", 156, 2), ("handoff/eager", 226, 2), ("handoff/lazy", 2377, 1),
    ("handoff/lazy-ext", 226, 1), ("barrier-phases/sc", 213, 1), ("barrier-phases/eager", 271, 1),
    ("barrier-phases/lazy", 8847, 8), ("barrier-phases/lazy-ext", 810, 8), ("counter/sc", 701, 2),
    ("counter/eager", 1007, 2), ("counter/lazy", 30001, 3), ("counter/lazy-ext", 3091, 4),
    ("three-way/sc", 2123, 6), ("three-way/eager", 3155, 6), ("three-way/lazy", 37367, 3),
    ("three-way/lazy-ext", 2103, 3),
];

#[test]
fn remaining_scenarios_pass_bounded_under_all_protocols() {
    for name in ["two-locks", "conflict-evict"] {
        let s = scenario::by_name(name).unwrap();
        for p in Protocol::ALL {
            let r = check_opts(&s, p, Fault::None, plain(), bounded(15_000));
            assert!(
                r.counterexample.is_none(),
                "{name} under {} failed: {}",
                p.name(),
                r.counterexample.unwrap().failure
            );
            assert!(r.terminals > 0 || !r.complete, "{name} under {} explored nothing", p.name());
        }
    }
}

#[test]
#[ignore = "full exhaustive sweep (~minutes in debug builds)"]
fn all_scenarios_pass_exhaustively_under_all_protocols() {
    for s in scenario::all() {
        for p in Protocol::ALL {
            let r = check_opts(&s, p, Fault::None, plain(), EXHAUSTIVE);
            assert!(
                r.counterexample.is_none(),
                "{} under {} failed: {}",
                s.name,
                p.name(),
                r.counterexample.unwrap().failure
            );
            assert!(r.complete, "{} under {} did not exhaust", s.name, p.name());
        }
    }
}

#[test]
fn skip_invalidate_fault_yields_minimized_safety_counterexample() {
    let s = scenario::by_name("counter").unwrap();
    let outcome =
        check_and_minimize_opts(&s, Protocol::Erc, Fault::SkipInvalidate, EXHAUSTIVE, plain());
    assert!(!outcome.passed(), "injected stale-copy bug went undetected");
    let cex = outcome.report.counterexample.as_ref().unwrap();
    assert_eq!(FailureClass::of(&cex.failure), FailureClass::Safety, "{}", cex.failure);

    let minimized = outcome.minimized.as_ref().unwrap();
    assert!(
        minimized.len() <= cex.schedule.len(),
        "minimizer grew the schedule: {} -> {}",
        cex.schedule.len(),
        minimized.len()
    );
    // The minimized schedule must still reproduce a safety violation.
    let (failure, _) =
        replay_schedule_opts(&s, Protocol::Erc, Fault::SkipInvalidate, plain(), minimized, 50_000);
    assert!(matches!(failure, Some(Failure::Safety(_))), "{failure:?}");

    let rendered = outcome.rendered.as_ref().unwrap();
    assert!(rendered.contains("safety:"), "{rendered}");
    assert!(rendered.contains("message timeline"), "{rendered}");
    assert!(rendered.contains("reproduce: lrc-check"), "{rendered}");
}

#[test]
fn skip_write_notice_fault_yields_minimized_liveness_counterexample() {
    let s = scenario::by_name("handoff").unwrap();
    let outcome =
        check_and_minimize_opts(&s, Protocol::Lrc, Fault::SkipWriteNotice, EXHAUSTIVE, plain());
    assert!(!outcome.passed(), "injected lost-write-notice bug went undetected");
    let cex = outcome.report.counterexample.as_ref().unwrap();
    assert_eq!(FailureClass::of(&cex.failure), FailureClass::Liveness, "{}", cex.failure);

    let minimized = outcome.minimized.as_ref().unwrap();
    let (failure, m) =
        replay_schedule_opts(&s, Protocol::Lrc, Fault::SkipWriteNotice, plain(), minimized, 50_000);
    assert!(matches!(failure, Some(Failure::Liveness(_))), "{failure:?}");
    assert_eq!(m.num_pending(), 0, "liveness counterexample must drain the queue");

    let rendered = outcome.rendered.as_ref().unwrap();
    assert!(rendered.contains("liveness:"), "{rendered}");
    assert!(rendered.contains("stuck"), "{rendered}");
}

#[test]
fn counterexample_schedules_replay_deterministically() {
    let s = scenario::by_name("handoff").unwrap();
    let outcome =
        check_and_minimize_opts(&s, Protocol::Lrc, Fault::SkipWriteNotice, EXHAUSTIVE, plain());
    let minimized = outcome.minimized.unwrap();
    let render = |sched: &[usize]| {
        let (f, _) =
            replay_schedule_opts(&s, Protocol::Lrc, Fault::SkipWriteNotice, plain(), sched, 50_000);
        format!("{}", f.unwrap())
    };
    assert_eq!(render(&minimized), render(&minimized), "replay is not deterministic");
}

#[test]
fn clean_protocols_have_no_failure_on_natural_order() {
    // The empty schedule (pure 0-padding) is the simulator's own event
    // order; it must drain cleanly for every scenario and protocol.
    for s in scenario::all() {
        for p in Protocol::ALL {
            let (failure, m) = replay_schedule_opts(&s, p, Fault::None, plain(), &[], 50_000);
            assert!(failure.is_none(), "{} under {}: {}", s.name, p.name(), failure.unwrap());
            assert_eq!(m.num_pending(), 0, "{} under {} did not drain", s.name, p.name());
        }
    }
}

#[test]
fn raced_checking_keeps_drf_scenarios_clean() {
    // With the detector armed, the DRF scenarios must still verify: no
    // HbRace counterexamples, and the value checks (now gated on the
    // detector's race-freedom verdict) still run and pass. Detector state
    // widens the state space, so the bigger scenarios get bounds.
    let mut counts = Vec::new();
    for name in ["handoff", "barrier-phases"] {
        let s = scenario::by_name(name).unwrap();
        for p in Protocol::ALL {
            let r = check_opts(&s, p, Fault::None, raced(), bounded(20_000));
            assert!(
                r.counterexample.is_none(),
                "{name} under {} failed with races armed: {}",
                p.name(),
                r.counterexample.unwrap().failure
            );
            assert!(r.terminals > 0 || !r.complete, "{name} under {} explored nothing", p.name());
            counts.push((format!("{name}/{}", p.name()), r.states, r.terminals));
        }
    }
    assert_counts("raced checking", &counts, RACED_COUNTS);
}

const RACED_COUNTS: Counts = &[
    ("handoff/sc", 156, 2), ("handoff/eager", 226, 2), ("handoff/lazy", 2384, 2),
    ("handoff/lazy-ext", 229, 2), ("barrier-phases/sc", 213, 1), ("barrier-phases/eager", 271, 1),
    ("barrier-phases/lazy", 8847, 8), ("barrier-phases/lazy-ext", 810, 8),
];

#[test]
fn racy_scenario_yields_minimized_race_counterexample() {
    // The positive control: the deliberately racy scenario must be flagged
    // as a first-class violation with a ddmin-minimized witness whose
    // replay reproduces a failure of the same class.
    let s = scenario::racy();
    for p in [Protocol::Sc, Protocol::Lrc] {
        let outcome = check_and_minimize_opts(&s, p, Fault::None, bounded(20_000), raced());
        assert!(!outcome.passed(), "racy scenario passed under {}", p.name());
        let cex = outcome.report.counterexample.as_ref().unwrap();
        assert_eq!(
            FailureClass::of(&cex.failure),
            FailureClass::HbRace,
            "wrong class under {}: {}",
            p.name(),
            cex.failure
        );

        let minimized = outcome.minimized.as_ref().unwrap();
        let (failure, m) = replay_schedule_opts(&s, p, Fault::None, raced(), minimized, 50_000);
        assert!(
            matches!(failure, Some(Failure::HbRace(_))),
            "minimized witness does not replay under {}: {failure:?}",
            p.name()
        );
        let rs = m.race_stats().expect("detector armed");
        assert!(rs.races_found > 0);
        // The race is on word 0 of line 0, planted by the scenario.
        assert!(rs.reports.iter().any(|r| r.addr == 0), "wrong word: {:?}", rs.reports);

        let rendered = outcome.rendered.as_ref().unwrap();
        assert!(rendered.contains("data race"), "{rendered}");
        assert!(rendered.contains("--races"), "reproduce line must arm the detector: {rendered}");
    }
}

#[test]
fn race_verdict_gates_value_checks_on_the_racy_scenario() {
    // Natural-order replay of the racy scenario with the detector armed:
    // the failure must be the race itself, never a ValueMismatch or
    // WriteRace — racy programs have no SC reference execution, so the
    // DRF => SC comparison is skipped once the premise is void.
    let s = scenario::racy();
    for p in Protocol::ALL {
        let (failure, _) = replay_schedule_opts(&s, p, Fault::None, raced(), &[], 50_000);
        match failure {
            Some(Failure::HbRace(reports)) => {
                assert!(!reports.is_empty(), "{}: race flagged without a report", p.name())
            }
            other => panic!("{}: expected HbRace, got {other:?}", p.name()),
        }
    }
}

#[test]
fn nack_choice_point_passes_on_every_scenario() {
    // Arm the deterministic BUSY-NACK choice point: the nth busy-directory
    // encounter is answered with a retriable NACK instead of parking. The
    // NACK round-trip and backoff retry must stay safe and live against
    // every explored interleaving. Only the eager protocols park at a busy
    // home, so they get several trigger points; the lazy protocols (where
    // the point can never fire) get one run each proving the machinery is
    // inert for them.
    let mut counts = Vec::new();
    for s in scenario::all() {
        for p in Protocol::ALL {
            let nths: &[u64] = if p.is_lazy() { &[0] } else { &[0, 1, 2] };
            for &nth in nths {
                let opts = BuildOpts { nack_nth: Some(nth), ..plain() };
                let r = check_opts(&s, p, Fault::None, opts, bounded(12_000));
                assert!(
                    r.counterexample.is_none(),
                    "{} under {} with nack_nth={nth} failed: {}",
                    s.name,
                    p.name(),
                    r.counterexample.unwrap().failure
                );
                assert!(
                    r.terminals > 0 || !r.complete,
                    "{} under {} with nack_nth={nth} explored nothing",
                    s.name,
                    p.name()
                );
                counts.push((format!("{}/{}/{nth}", s.name, p.name()), r.states, r.terminals));
            }
        }
    }
    assert_counts("nack choice point", &counts, NACK_COUNTS);
}

const NACK_COUNTS: Counts = &[
    ("handoff/sc/0", 192, 3), ("handoff/sc/1", 182, 3), ("handoff/sc/2", 182, 3),
    ("handoff/eager/0", 288, 3), ("handoff/eager/1", 268, 3), ("handoff/eager/2", 268, 3),
    ("handoff/lazy/0", 2377, 1), ("handoff/lazy-ext/0", 226, 1), ("counter/sc/0", 1243, 4),
    ("counter/sc/1", 1380, 6), ("counter/sc/2", 1397, 8), ("counter/eager/0", 1901, 4),
    ("counter/eager/1", 2110, 6), ("counter/eager/2", 2120, 8), ("counter/lazy/0", 12001, 2),
    ("counter/lazy-ext/0", 3091, 4), ("barrier-phases/sc/0", 325, 2),
    ("barrier-phases/sc/1", 279, 2), ("barrier-phases/sc/2", 279, 2),
    ("barrier-phases/eager/0", 383, 2), ("barrier-phases/eager/1", 337, 2),
    ("barrier-phases/eager/2", 337, 2), ("barrier-phases/lazy/0", 8847, 8),
    ("barrier-phases/lazy-ext/0", 810, 8), ("two-locks/sc/0", 1584, 3),
    ("two-locks/sc/1", 1584, 3), ("two-locks/sc/2", 1584, 3), ("two-locks/eager/0", 2371, 3),
    ("two-locks/eager/1", 2371, 3), ("two-locks/eager/2", 2371, 3), ("two-locks/lazy/0", 12001, 2),
    ("two-locks/lazy-ext/0", 5636, 3), ("conflict-evict/sc/0", 625, 2),
    ("conflict-evict/sc/1", 625, 2), ("conflict-evict/sc/2", 625, 2),
    ("conflict-evict/eager/0", 4384, 3), ("conflict-evict/eager/1", 4384, 3),
    ("conflict-evict/eager/2", 4384, 3), ("conflict-evict/lazy/0", 12001, 1),
    ("conflict-evict/lazy-ext/0", 7982, 3), ("three-way/sc/0", 3631, 12),
    ("three-way/sc/1", 3721, 18), ("three-way/sc/2", 3601, 18), ("three-way/eager/0", 5769, 12),
    ("three-way/eager/1", 5805, 18), ("three-way/eager/2", 5565, 18),
    ("three-way/lazy/0", 12001, 3), ("three-way/lazy-ext/0", 2103, 3),
];

#[test]
fn nacked_exploration_reaches_clean_terminals_on_natural_order() {
    // The natural event order with the very first busy encounter NACKed:
    // the run must drain clean and the final memory must still match the
    // reference SC execution (the NACK changes timing, never values).
    let mut nacks_fired = 0u64;
    for s in scenario::all() {
        for p in [Protocol::Sc, Protocol::Erc] {
            let script = s.script();
            let opts = BuildOpts { nack_nth: Some(0), ..plain() };
            let mut m = build_machine_opts(&s, p, Fault::None, opts);
            let mut steps = 0usize;
            while m.num_pending() > 0 && steps < 100_000 {
                m.step_choice(0);
                steps += 1;
            }
            assert_eq!(m.num_pending(), 0, "{} under {} did not drain", s.name, p.name());
            let f = terminal_failure(&m, &script);
            assert!(f.is_none(), "{} under {}: {}", s.name, p.name(), f.unwrap());
            nacks_fired += m.resource_stats().busy_nacks;
        }
    }
    assert!(nacks_fired > 0, "no scenario's natural order ever reached the choice point");
}

#[test]
fn dropped_messages_recover_under_every_protocol() {
    // Deterministic fault injection: kill exactly the n-th message of one
    // class and step the natural event order. The link layer's ACK/retry
    // machinery must recover the loss on every protocol — the terminal
    // state drains clean and final memory still matches the reference SC
    // execution.
    use lrc_core::{FaultPlan, MsgClass};
    let s = scenario::by_name("handoff").unwrap();
    let script = s.script();
    let mut counts = Vec::new();
    for p in Protocol::ALL {
        for class in [MsgClass::Request, MsgClass::Response, MsgClass::Notice, MsgClass::Sync] {
            for n in 0..4u64 {
                let plan = FaultPlan::drop_nth(class, n);
                let opts = BuildOpts { plan: Some(plan), ..plain() };
                let mut m = build_machine_opts(&s, p, Fault::None, opts);
                let mut steps = 0usize;
                while m.num_pending() > 0 && steps < 100_000 {
                    m.step_choice(0);
                    steps += 1;
                }
                assert_eq!(
                    m.num_pending(),
                    0,
                    "{} drop {}#{n}: did not drain within {steps} steps",
                    p.name(),
                    class.name(),
                );
                let f = terminal_failure(&m, &script);
                assert!(f.is_none(), "{} drop {}#{n}: {}", p.name(), class.name(), f.unwrap());
            }
        }
        // Explore (bounded) around one dropped response, so link-layer
        // state (sequence numbers, retransmit buffer, dedupe set) takes
        // part in fingerprint pruning.
        let plan = FaultPlan::drop_nth(MsgClass::Response, 1);
        let opts = BuildOpts { plan: Some(plan), ..plain() };
        let (distinct, terminals) =
            explore_counts(build_machine_opts(&s, p, Fault::None, opts), 2_000);
        counts.push((p.name().to_string(), distinct, terminals));
    }
    assert_counts("dropped messages", &counts, DROPPED_COUNTS);
}

const DROPPED_COUNTS: Counts = &[
    ("sc", 2150, 2), ("eager", 2157, 2), ("lazy", 2211, 2), ("lazy-ext", 2123, 2),
];

/// Depth-first exploration with fingerprint pruning, the same walk as
/// `lrc_check::explore::check_opts`, for machines built outside it. Stops after
/// `max_states` expanded states and returns `(distinct states generated,
/// terminals)`: the first counts every fingerprint pruning kept apart.
fn explore_counts(root: lrc_core::Machine, max_states: usize) -> (usize, usize) {
    let mut visited = std::collections::HashSet::from([root.fingerprint()]);
    let mut stack = vec![root];
    let (mut states, mut terminals) = (0, 0);
    while let Some(m) = stack.pop() {
        states += 1;
        if states > max_states {
            break;
        }
        let pending = m.num_pending();
        if pending == 0 {
            terminals += 1;
        }
        for n in (0..pending).rev() {
            let mut child = m.clone();
            child.step_choice(n);
            if visited.insert(child.fingerprint()) {
                stack.push(child);
            }
        }
    }
    (visited.len(), terminals)
}

#[test]
fn fault_recovery_stepping_is_deterministic() {
    // Same plan, same schedule: the recovered machine reaches the same
    // logical fingerprint both times (retry timers and all).
    use lrc_core::{FaultPlan, MsgClass};
    let s = scenario::by_name("handoff").unwrap();
    let run = || {
        let plan = FaultPlan::drop_nth(MsgClass::Response, 1);
        let opts = BuildOpts { plan: Some(plan), ..plain() };
        let mut m = build_machine_opts(&s, Protocol::LrcExt, Fault::None, opts);
        let mut steps = 0usize;
        while m.num_pending() > 0 && steps < 100_000 {
            m.step_choice(0);
            steps += 1;
        }
        (steps, m.fingerprint())
    };
    assert_eq!(run(), run());
}
