//! `lrc-bench` — the simulator's kernel-throughput harness.
//!
//! Runs the fixed (protocol × workload) grid and records how fast the
//! simulation *kernel* executes it (simulated cycles per wall-clock second
//! spent inside the event loop, excluding workload construction).
//! `lrc-bench run` (flags: `lrc_sim::cli::BENCH`, `--help`) writes the
//! report (schema below) to `--out FILE`, or to stdout. Comparing two
//! builds is `lrc-perfbench ab`'s job (interleaved A/B runs with
//! confidence intervals), not this tool's.
//!
//! Schema (`"schema": "lrc-bench-v1"`): `commit`, `date`, `scale`, `procs`,
//! `reps`, `combos` (per-combination `total_cycles`, `median_wall_ms`,
//! `cycles_per_sec`), `geomean_cycles_per_sec`. Throughput per combination
//! is simulated cycles divided by the *median* wall time of `--reps`
//! repetitions (median, not mean, to shrug off scheduler noise).
//!
//! `--threads` takes a comma-separated sweep (e.g. `1,2,4,8`): the grid is
//! measured once per thread count on the sharded parallel engine, the
//! top-level numbers always come from the lowest thread count, and a
//! `thread_sweep` section records each count's geomean plus its speedup
//! over threads=1. Only the lowest count runs the full `--reps`
//! repetitions; the other sweep points run once each. Simulated
//! `total_cycles` must be bit-identical across every thread count — the
//! harness asserts it. `host_cpus` records the machine's available
//! parallelism so a sweep run on an oversubscribed host can be read
//! honestly. `--mesh256` appends a `mesh256` section: one mp3d/lazy run on
//! a 256-node (16×16) mesh at `large` scale with the sweep's highest
//! thread count.

#![forbid(unsafe_code)]

use lrc_exp::manifest::git_commit;
use lrc_exp::report::iso_utc;
use lrc_exp::{execute_sharded, procs_flag, resolve_timestamp, HostFacts, RunSpec};
use lrc_json::{json, ToJson, Value};
use lrc_sim::cli::{self, Args, CliError};
use lrc_sim::{MachineConfig, Protocol};
use lrc_workloads::{Scale, WorkloadKind};
use std::path::PathBuf;

struct ComboResult {
    protocol: Protocol,
    workload: WorkloadKind,
    total_cycles: u64,
    median_wall_ms: f64,
    cycles_per_sec: f64,
}

fn measure_grid(
    scale: Scale,
    procs: usize,
    reps: usize,
    threads: usize,
    verbose: bool,
) -> Vec<ComboResult> {
    let mut out = Vec::new();
    for &protocol in &Protocol::ALL {
        for workload in WorkloadKind::ALL {
            let spec = RunSpec::new(protocol, workload, scale, procs);
            let mut walls: Vec<f64> = Vec::with_capacity(reps);
            let mut total_cycles = 0u64;
            for rep in 0..reps {
                // The machine times its own event loop: this excludes
                // workload construction, which is not the kernel under test.
                let r = execute_sharded(&spec, threads);
                walls.push(r.sim_wall_secs);
                if rep == 0 {
                    total_cycles = r.stats.total_cycles;
                } else {
                    assert_eq!(
                        total_cycles, r.stats.total_cycles,
                        "nondeterministic run: {workload}/{protocol} @ {threads} threads"
                    );
                }
            }
            walls.sort_by(|a, b| a.partial_cmp(b).expect("finite wall times"));
            let median = walls[walls.len() / 2];
            let cps = total_cycles as f64 / median.max(1e-9);
            if verbose {
                eprintln!(
                    "  {workload:>10} / {protocol:<7} {total_cycles:>12} cycles  \
                     {:>8.1} ms  {:>6.1} Mcyc/s",
                    median * 1e3,
                    cps / 1e6
                );
            }
            out.push(ComboResult {
                protocol,
                workload,
                total_cycles,
                median_wall_ms: median * 1e3,
                cycles_per_sec: cps,
            });
        }
    }
    out
}

/// The 256-node (16×16 mesh) scaling run: one mp3d/lazy simulation at
/// `large` scale on the sharded engine. One repetition — this records that
/// the engine takes a 256-node machine end to end and how fast, it is not
/// a gated benchmark.
fn measure_mesh256(threads: usize, verbose: bool) -> Value {
    let spec = RunSpec::new(Protocol::Lrc, WorkloadKind::Mp3d, Scale::Large, 256);
    if verbose {
        eprintln!("-- mesh256: mp3d/{} @ scale=large procs=256 threads={threads}", spec.protocol);
    }
    let r = execute_sharded(&spec, threads);
    let cps = r.stats.total_cycles as f64 / r.sim_wall_secs.max(1e-9);
    if verbose {
        eprintln!(
            "   {} cycles, {} events in {:.1} ms ({:.1} Mcyc/s)",
            r.stats.total_cycles,
            r.events,
            r.sim_wall_secs * 1e3,
            cps / 1e6
        );
    }
    json!({
        "workload": spec.workload.name(),
        "protocol": spec.protocol.name(),
        "scale": "large",
        "procs": 256,
        "threads": threads,
        "total_cycles": r.stats.total_cycles,
        "events": r.events,
        "wall_ms": r.sim_wall_secs * 1e3,
        "cycles_per_sec": cps,
    })
}

fn geomean(combos: &[ComboResult]) -> f64 {
    let log_sum: f64 = combos.iter().map(|c| c.cycles_per_sec.max(1.0).ln()).sum();
    (log_sum / combos.len().max(1) as f64).exp()
}

fn report_json(
    scale: Scale,
    procs: usize,
    reps: usize,
    combos: &[ComboResult],
    sweep: Vec<Value>,
    mesh256: Option<Value>,
) -> Value {
    let rows: Vec<Value> = combos
        .iter()
        .map(|c| {
            json!({
                "protocol": c.protocol.name(),
                "workload": c.workload.name(),
                "total_cycles": c.total_cycles,
                "median_wall_ms": c.median_wall_ms,
                "cycles_per_sec": c.cycles_per_sec,
            })
        })
        .collect();
    let params = json!({ "scale": scale.name(), "procs": procs, "reps": reps });
    let machine = MachineConfig::paper_default(procs).to_json();
    let (commit, now) = (git_commit(), resolve_timestamp(None));
    let host_cpus = HostFacts::capture().host_cpus;
    let mut report = json!({
        "schema": "lrc-bench-v1",
        "commit": commit.clone(),
        "date": iso_utc(now).split(' ').next().unwrap_or_default(),
        "scale": scale.name(),
        "procs": procs,
        "reps": reps,
        "host_cpus": host_cpus,
        // Provenance of this measurement: which code, machine
        // configuration and host, and when the harness passed.
        "provenance": json!({
            "git_commit": commit,
            "config_hash": lrc_exp::config_hash("bench", &params, &machine),
            "host_cpus": host_cpus,
            "harness_passed_unix": now,
        }),
        "combos": rows,
        "geomean_cycles_per_sec": geomean(combos),
    });
    if !sweep.is_empty() {
        report.set("thread_sweep", sweep);
    }
    if let Some(m) = mesh256 {
        report.set("mesh256", m);
    }
    report
}

/// A checked `lrc-bench` command line.
#[derive(Debug, Clone, PartialEq)]
struct Config {
    scale: Scale,
    procs: usize,
    reps: usize,
    /// Sorted, deduplicated, all positive; the first is the headline grid.
    threads: Vec<usize>,
    mesh256: bool,
    out: Option<PathBuf>,
    verbose: bool,
}

fn config(a: &Args) -> Result<Config, CliError> {
    if let Some(w) = a.words().iter().find(|w| *w != "run") {
        return Err(CliError::Unknown(w.clone()));
    }
    if a.words().is_empty() {
        return Err(CliError::invalid("MODE", "", "run"));
    }
    let scale_names = "paper | large | medium | small | tiny";
    let procs = procs_flag(a, 16)?.num_procs;
    let reps = a.get("--reps", "a repetition count >= 1")?.unwrap_or(3);
    if reps == 0 {
        return Err(CliError::invalid("--reps", "0", "a repetition count >= 1"));
    }
    let list = "a comma-separated list of positive thread counts like 1,2,4,8";
    let mut threads: Vec<usize> = a.list("--threads", list)?.unwrap_or(vec![1]);
    if threads.contains(&0) {
        return Err(CliError::invalid("--threads", a.value("--threads").unwrap_or_default(), list));
    }
    threads.sort_unstable();
    threads.dedup();
    let out = a.value("--out").map(PathBuf::from);
    if let Some(path) = &out {
        let parent = path.parent().filter(|p| !p.as_os_str().is_empty());
        if path.is_dir() || parent.is_some_and(|p| !p.is_dir()) {
            let v = path.display().to_string();
            return Err(CliError::invalid("--out", v, "a file path in an existing directory"));
        }
    }
    Ok(Config {
        scale: a.get_with("--scale", scale_names, Scale::parse)?.unwrap_or(Scale::Small),
        procs,
        reps,
        threads,
        mesh256: a.switch("--mesh256"),
        out,
        verbose: !a.switch("--quiet"),
    })
}

fn main() {
    let Config { scale, procs, reps, threads, mesh256, out, verbose } =
        cli::BENCH.parse_or_exit(std::env::args().skip(1), config);

    if verbose {
        eprintln!(
            "lrc-bench run: {}×{} grid @ scale={} procs={procs} reps={reps} threads={threads:?}",
            Protocol::ALL.len(),
            WorkloadKind::ALL.len(),
            scale.name()
        );
    }
    // Measure the grid once per requested thread count. The lowest count
    // (normally 1) is the report's headline grid; higher counts only
    // contribute sweep points.
    let mut grids: Vec<(usize, Vec<ComboResult>)> = Vec::new();
    for (k, &t) in threads.iter().enumerate() {
        if verbose && threads.len() > 1 {
            eprintln!("-- threads={t}");
        }
        // Full repetitions only for the headline grid: the sweep points are
        // informational (and cycle-checked), so one repetition per extra
        // thread count keeps a 4-point sweep affordable.
        let grid_reps = if k == 0 { reps } else { 1 };
        grids.push((t, measure_grid(scale, procs, grid_reps, t, verbose)));
    }
    let combos = &grids[0].1;
    // Simulated time is the simulation's *output*: it must not depend on
    // how many worker threads the host happened to use.
    for (t, grid) in &grids[1..] {
        for (a, b) in combos.iter().zip(grid) {
            assert_eq!(
                a.total_cycles, b.total_cycles,
                "{}/{} simulated cycles diverged between threads={} and threads={t}",
                b.workload, b.protocol, threads[0]
            );
        }
    }
    // Each sweep point: the grid's geomean at that thread count, and its
    // speedup over the headline grid.
    let base_geo = geomean(combos);
    let mut sweep = Vec::new();
    for (t, grid) in grids.iter().filter(|_| grids.len() > 1) {
        let g = geomean(grid);
        let speedup = g / base_geo.max(1.0);
        if verbose {
            eprintln!(
                "  threads={t:<2} geomean {:.1} Mcyc/s ({speedup:.2}x vs threads={})",
                g / 1e6,
                threads[0]
            );
        }
        sweep.push(json!({
            "threads": *t,
            "geomean_cycles_per_sec": g,
            "speedup_vs_threads1": speedup,
        }));
    }
    let mesh = if mesh256 { Some(measure_mesh256(threads.iter().copied().max().unwrap_or(1), verbose)) } else { None };
    let report = report_json(scale, procs, reps, combos, sweep, mesh);
    if verbose {
        eprintln!("  geomean {:.1} Mcyc/s over {} combinations", base_geo / 1e6, combos.len());
    }

    match out {
        Some(path) => {
            if let Err(e) = std::fs::write(&path, report.pretty()) {
                eprintln!("lrc-bench: cannot write {}: {e}", path.display());
                std::process::exit(1);
            }
            eprintln!("wrote {}", path.display());
        }
        None => println!("{}", report.pretty()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn config_of(line: &str) -> Result<Config, CliError> {
        config(&cli::BENCH.parse(line.split_whitespace().map(str::to_string))?.expect("no --help"))
    }

    /// The command lines `scripts/ci.sh` and EXPERIMENTS.md run keep the
    /// values the hand-written parser gave them.
    #[test]
    fn documented_command_lines_keep_their_values() {
        let out = std::env::temp_dir().join("parallel_smoke.json");
        let smoke = Config {
            scale: Scale::Tiny,
            procs: 16,
            reps: 1,
            threads: vec![1, 2],
            mesh256: false,
            out: Some(out.clone()),
            verbose: false,
        };
        let line = "run --scale tiny --procs 16 --reps 1 --threads 1,2 --quiet --out";
        assert_eq!(config_of(&format!("{line} {}", out.display())), Ok(smoke.clone()));
        let line = "run --scale small --procs 16 --reps 3 --threads 1,2,4,8 --mesh256";
        let sweep = Config {
            scale: Scale::Small,
            reps: 3,
            threads: vec![1, 2, 4, 8],
            mesh256: true,
            out: None,
            verbose: true,
            ..smoke.clone()
        };
        assert_eq!(config_of(line), Ok(sweep));
        assert_eq!(config_of("run --threads 4,1,4").map(|c| c.threads), Ok(vec![1, 4]));
    }
}
