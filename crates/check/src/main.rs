//! `lrc-check` CLI: exhaustively model-check the protocols on bounded
//! scenarios, or replay a printed counterexample schedule.

#![forbid(unsafe_code)]

use lrc_check::explore::{replay_schedule_opts, BuildOpts, Counterexample, Limits, REPLAY_STEPS};
use lrc_check::scenario::{self, Scenario};
use lrc_check::{check_and_minimize_opts, parse_fault, report};
use lrc_core::Fault;
use lrc_sim::cli::{self, Args, CliError};
use lrc_sim::Protocol;
use std::process::ExitCode;

/// A checked command line: every value converted before any exploration.
struct Config {
    scenarios: Vec<Scenario>,
    protocols: Vec<Protocol>,
    fault: Fault,
    opts: BuildOpts,
    limits: Limits,
    replay: Option<Vec<usize>>,
    list: bool,
}

fn config(a: &Args) -> Result<Config, CliError> {
    let scenarios = a
        .get_with("--scenario", "a scenario name or 'all' (see --list)", |v| match v {
            "all" => Some(scenario::all()),
            _ => scenario::by_name(v).map(|s| vec![s]),
        })?
        .unwrap_or_else(scenario::all);
    let protocols = a
        .get_with("--protocol", "sc | eager | lazy | lazy-ext | all", |v| match v {
            "all" => Some(Protocol::ALL.to_vec()),
            _ => Protocol::parse(v).map(|p| vec![p]),
        })?
        .unwrap_or_else(|| Protocol::ALL.to_vec());
    let fault = a
        .get_with(
            "--fault",
            "none | skip-invalidate | skip-write-notice | skip-lock-reclaim",
            parse_fault,
        )?
        .unwrap_or(Fault::None);
    let crash_node: usize = a.get("--crash-node", "a node index")?.unwrap_or(0);
    if let Some(s) = scenarios.iter().find(|s| crash_node >= s.procs) {
        return Err(CliError::invalid(
            "--crash-node",
            crash_node.to_string(),
            format!("a node of scenario {} (0..{})", s.name, s.procs),
        ));
    }
    let crash_nth = a.get::<u64>("--crash-nth", "an event count")?;
    let opts = BuildOpts {
        races: a.switch("--races"),
        crash_nth: crash_nth.map(|n| (crash_node, n)),
        nack_nth: a.get("--nack-nth", "an encounter count")?,
        plan: None,
    };
    let mut limits = Limits::default();
    if let Some(n) = a.get("--max-states", "a state count")? {
        limits.max_states = n;
    }
    if a.switch("--exhaustive") {
        limits.max_states = 0;
    }
    if let Some(n) = a.get("--max-depth", "a path length")? {
        limits.max_depth = n;
    }
    let replay =
        a.get_with("--replay", "a comma-separated schedule or '-'", report::parse_schedule)?;
    if replay.is_some() && (scenarios.len() != 1 || protocols.len() != 1) {
        return Err(CliError::invalid(
            "--replay",
            a.value("--replay").unwrap_or_default(),
            "a single --scenario and --protocol to replay under",
        ));
    }
    Ok(Config { scenarios, protocols, fault, opts, limits, replay, list: a.switch("--list") })
}

fn main() -> ExitCode {
    let cfg = cli::CHECK.parse_or_exit(std::env::args().skip(1), config);

    if cfg.list {
        for s in scenario::all() {
            println!("{:<16} {} procs, {} line(s) — {}", s.name, s.procs, s.lines, s.about);
        }
        return ExitCode::SUCCESS;
    }

    if let Some(schedule) = cfg.replay {
        let (s, p) = (&cfg.scenarios[0], cfg.protocols[0]);
        let (failure, m) =
            replay_schedule_opts(s, p, cfg.fault, cfg.opts.clone(), &schedule, REPLAY_STEPS);
        return match failure {
            Some(f) => {
                let cex = Counterexample { schedule, failure: f };
                print!("{}", report::render_opts(s, p, cfg.fault, &cex, cfg.opts));
                ExitCode::FAILURE
            }
            None => {
                println!(
                    "replay of {} under {} completed cleanly ({} events pending)",
                    s.name,
                    p.name(),
                    m.num_pending()
                );
                ExitCode::SUCCESS
            }
        };
    }

    let mut failed = false;
    for s in &cfg.scenarios {
        for &p in &cfg.protocols {
            let outcome = check_and_minimize_opts(s, p, cfg.fault, cfg.limits, cfg.opts.clone());
            let r = &outcome.report;
            let coverage = if r.complete { "exhaustive" } else { "bounded" };
            if r.counterexample.is_none() {
                println!(
                    "PASS {:<16} {:<9} {} states, {} terminal(s), depth {} ({})",
                    s.name, p.name(), r.states, r.terminals, r.max_depth_seen, coverage
                );
            } else {
                failed = true;
                println!(
                    "FAIL {:<16} {:<9} after {} states ({})",
                    s.name,
                    p.name(),
                    r.states,
                    coverage
                );
                if let Some(rendered) = &outcome.rendered {
                    print!("{rendered}");
                }
            }
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_of(line: &str) -> Result<Config, CliError> {
        config(&cli::CHECK.parse(line.split_whitespace().map(str::to_string))?.expect("no --help"))
    }

    fn summary(line: &str) -> (Vec<&'static str>, Vec<Protocol>, Fault, BuildOpts, Limits) {
        let c = config_of(line).unwrap_or_else(|e| panic!("{line}: {e}"));
        (c.scenarios.iter().map(|s| s.name).collect(), c.protocols, c.fault, c.opts, c.limits)
    }

    /// The command lines `scripts/ci.sh` runs keep the values the
    /// hand-written parser gave them.
    #[test]
    fn ci_command_lines_keep_their_values() {
        let bounded = Limits { max_states: 20_000, max_depth: 4_000 };
        let races = BuildOpts { races: true, ..BuildOpts::default() };
        let crash = BuildOpts { crash_nth: Some((1, 7)), ..BuildOpts::default() };
        let lazy = vec![Protocol::Lrc];
        assert_eq!(
            summary("--races --scenario racy --protocol lazy --max-states 20000"),
            (vec!["racy"], lazy.clone(), Fault::None, races.clone(), bounded)
        );
        assert_eq!(
            summary("--races --scenario handoff --protocol lazy --max-states 20000"),
            (vec!["handoff"], lazy.clone(), Fault::None, races, bounded)
        );
        let crash_line = "--scenario counter --protocol lazy --fault skip-lock-reclaim \
                          --crash-nth 7 --crash-node 1";
        assert_eq!(
            summary(&format!("{crash_line} --max-states 20000")),
            (vec!["counter"], lazy.clone(), Fault::SkipLockReclaim, crash.clone(), bounded)
        );
        let replay = config_of(&format!("{crash_line} --replay 0,2,1")).unwrap();
        assert_eq!((replay.replay, replay.opts), (Some(vec![0, 2, 1]), crash.clone()));
        let clean = "--scenario counter --protocol lazy --crash-nth 7 --crash-node 1";
        assert_eq!(
            summary(&format!("{clean} --max-states 20000")),
            (vec!["counter"], lazy, Fault::None, crash, bounded)
        );
        let all = scenario::all().iter().map(|s| s.name).collect::<Vec<_>>();
        let exhaustive = Limits { max_states: 0, ..Limits::default() };
        assert_eq!(
            summary("--exhaustive"),
            (all, Protocol::ALL.to_vec(), Fault::None, BuildOpts::default(), exhaustive)
        );
        assert!(config_of("--list").unwrap().list);
    }
}
