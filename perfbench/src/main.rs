//! `lrc-perfbench` — the repository benchmark.
//!
//! ```text
//! lrc-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! lrc-perfbench ab --a <binary> --b <binary> [--workloads a,b]
//!                  [--bench BENCHMARK.json]
//! ```
//!
//! The first form runs one workload (`splash16`, `splash16-guarded`,
//! `mesh256`, `check-lazy`; see README.md). With `--trace 0` it repeats
//! timed passes for about `--seconds` and prints the end-to-end metrics;
//! with `--trace 1` it makes one traced pass and prints the per-layer
//! metrics. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. The second form runs two
//! builds of this binary interleaved and compares them.

#![forbid(unsafe_code)]

mod ab;
mod metrics;
mod probe;
mod spans;
mod traced;
mod workloads;

use metrics::{median, Metric, END_TO_END};
use probe::RefClock;
use std::time::{Duration, Instant};
use workloads::{Kind, Pass};

/// A set-up sample is the mean over a batch of set-ups at least this
/// long, so that one sample is well above the clock's and the heap's
/// jitter …
const SETUP_BATCH_SECS: f64 = 0.02;
/// … and this many are taken after each pass, so that they spread over
/// the run as the passes do. They are taken between passes, where the heap
/// is as each pass's own set-up finds it: while a pass's prepared machines
/// are alive, a set-up is several times slower. Host-speed probes bracket
/// each sample, as they bracket each timed call.
const SETUP_SAMPLES_PER_PASS: usize = 4;

/// One set-up sample: host seconds per set-up, over a batch of
/// [`SETUP_BATCH_SECS`].
fn setup_sample(kind: Kind, seed: u64) -> f64 {
    let t = Instant::now();
    for reps in 1u32.. {
        drop(workloads::prepare(kind, seed));
        let secs = t.elapsed().as_secs_f64();
        if secs >= SETUP_BATCH_SECS {
            return secs / f64::from(reps);
        }
    }
    unreachable!("the batch ends once its time is reached")
}

/// Parsed arguments of one benchmark run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunArgs {
    /// The workload.
    pub kind: Kind,
    /// Workload input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced (per-layer) run instead of the timed one.
    pub trace: bool,
}

/// Parse `--workload --seed --seconds --trace`; every flag is required.
pub fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {value:?} is not {what}");
        match flag.as_str() {
            "--workload" => {
                let names: Vec<&str> = Kind::ALL.iter().map(|k| k.name()).collect();
                kind = Some(
                    Kind::parse(value)
                        .ok_or_else(|| bad(&format!("one of {}", names.join(", "))))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("a whole number"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 3600.0) {
                    return Err(bad("in (0, 3600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let missing = |f: &str| format!("missing {f}");
    Ok(RunArgs {
        kind: kind.ok_or_else(|| missing("--workload"))?,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds: seconds.ok_or_else(|| missing("--seconds"))?,
        trace: trace.ok_or_else(|| missing("--trace"))?,
    })
}

/// What one benchmark run reports.
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Operations attempted (simulations or scenario checks).
    pub attempted: u64,
    /// Operations that panicked, wedged or failed a check.
    pub failed: u64,
    /// The printed metrics.
    pub metrics: Vec<Metric>,
    /// Lines printed before the result (digest, notes).
    pub notes: Vec<String>,
}

/// Run `--workload` timed passes for about `seconds` (at least two, so
/// their digests can be compared) and derive the end-to-end metrics.
pub fn measure(kind: Kind, seed: u64, seconds: f64) -> Outcome {
    let budget = Duration::from_secs_f64(seconds);
    let start = Instant::now();
    let mut setups = Vec::new();
    let mut passes: Vec<Pass> = Vec::new();
    let mut peak_rss_mb = 0.0;
    loop {
        let pass = workloads::run_pass(workloads::prepare(kind, seed));
        if passes.is_empty() {
            // Read before the set-up samples churn the heap; later passes
            // repeat the same work.
            peak_rss_mb = metrics::peak_rss_mb();
        }
        match pass.ref_engine_setup_s {
            // The sharded engine builds inside the timed call; that build
            // is mesh256's set-up.
            Some(s) => setups.push(s),
            None => {
                let mut clock = RefClock::start(1);
                for _ in 0..SETUP_SAMPLES_PER_PASS {
                    let s = setup_sample(kind, seed);
                    setups.push(s * clock.factor());
                }
            }
        }
        passes.push(pass);
        let per_pass = start.elapsed() / passes.len() as u32;
        if passes.len() >= 2 && start.elapsed() + per_pass > budget {
            break;
        }
    }

    let mut notes = Vec::new();
    let mut attempted: u64 = passes.iter().map(|p| p.ops.len() as u64).sum();
    let mut failed: u64 = 0;
    for pass in &passes {
        for op in &pass.ops {
            if let Some(e) = &op.error {
                failed += 1;
                notes.push(format!("FAILED {e}"));
            }
        }
    }
    let digest = passes[0].digest.clone();
    for (i, pass) in passes.iter().enumerate().skip(1) {
        if pass.digest != digest {
            failed += pass.ops.len() as u64;
            notes.push(format!(
                "FAILED pass {i} digest {} differs from pass 0 {digest}",
                pass.digest
            ));
        }
    }
    notes.push(format!(
        "digest {} seed={seed} passes={} {digest}",
        kind.name(),
        passes.len()
    ));
    let list = |f: fn(&Pass) -> f64| {
        passes
            .iter()
            .map(|p| format!("{:.4}", f(p)))
            .collect::<Vec<_>>()
            .join(" ")
    };
    notes.push(format!("pass host s: {}", list(|p| p.run_s)));
    notes.push(format!(
        "pass run_s (reference speed): {}",
        list(|p| p.ref_run_s)
    ));

    if kind == Kind::Mesh256 {
        attempted += 1;
        let err = workloads::mesh_reference_error(
            passes[0].mesh.as_ref(),
            &workloads::mesh_sequential(seed),
        );
        if let Some(e) = err {
            failed += 1;
            notes.push(format!("FAILED {e}"));
        }
    }
    if kind == Kind::CheckLazy {
        // Its simulated cycles come from one natural-order run per case.
        attempted += passes[0].ops.len() as u64;
    }
    let sim_cycles = match workloads::sim_cycles_geomean(kind, &passes[0]) {
        Ok(c) => c,
        Err(e) => {
            failed += 1;
            notes.push(format!("FAILED natural-order run: {e}"));
            0.0
        }
    };

    let run_s = median(&passes.iter().map(|p| p.ref_run_s).collect::<Vec<_>>());
    let values = [
        median(&setups),
        run_s,
        passes[0].events() as f64 / run_s,
        sim_cycles,
        peak_rss_mb,
    ];
    let metrics = END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| Metric::new(name, unit, v))
        .collect();
    Outcome {
        correct: failed == 0,
        attempted,
        failed,
        metrics,
        notes,
    }
}

fn real_main(args: &[String]) -> Result<i32, String> {
    if args.first().map(String::as_str) == Some("ab") {
        return ab::main(&args[1..]);
    }
    let a = parse_run_args(args)?;
    let outcome = if a.trace {
        traced::run(a.kind, a.seed)
    } else {
        measure(a.kind, a.seed, a.seconds)
    };
    println!(
        "provenance {}",
        metrics::provenance(a.kind, a.seed, a.trace).dump()
    );
    for n in &outcome.notes {
        println!("{n}");
    }
    println!(
        "{}",
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(0)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match real_main(&args) {
        Ok(code) => std::process::exit(code),
        Err(e) => {
            eprintln!("lrc-perfbench: {e}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn run_args_parse_and_reject() {
        let a = parse_run_args(&args(
            "--workload check-lazy --seed 3 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(
            a,
            RunArgs {
                kind: Kind::CheckLazy,
                seed: 3,
                seconds: 10.0,
                trace: true
            }
        );
        for bad in [
            "--workload nope --seed 0 --seconds 1 --trace 0",
            "--workload mesh256 --seed -1 --seconds 1 --trace 0",
            "--workload mesh256 --seed 0 --seconds 0 --trace 0",
            "--workload mesh256 --seed 0 --seconds 1 --trace 2",
            "--workload mesh256 --seed 0 --seconds 1",
            "--workload mesh256 --seed 0 --seconds 1 --trace 0 --extra 1",
            "--workload",
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
