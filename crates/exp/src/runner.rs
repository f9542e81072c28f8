//! Run management: build-and-run of (protocol × workload) combinations,
//! with a thread pool for independent runs and a memo so `all` doesn't
//! repeat shared combinations across experiments.

use lrc_core::{Machine, RunResult};
use lrc_sim::cli::{Args, CliError};
use lrc_sim::{MachineConfig, Protocol};
use lrc_workloads::{Scale, WorkloadKind};
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// The Table-1 machine `--procs N` names (`default` when absent), checked
/// buildable by [`Machine::check_config`] before any work.
pub fn procs_flag(a: &Args, default: usize) -> Result<MachineConfig, CliError> {
    let procs = a.get("--procs", "a processor count")?.unwrap_or(default);
    let cfg = MachineConfig::paper_default(procs);
    let bad = |e| CliError::invalid("--procs", procs.to_string(), format!("a machine size: {e}"));
    Machine::check_config(&cfg).map_err(bad)?;
    Ok(cfg)
}

/// Everything identifying one simulation run.
#[derive(Debug, Clone, PartialEq)]
pub struct RunSpec {
    /// Coherence protocol.
    pub protocol: Protocol,
    /// Application.
    pub workload: WorkloadKind,
    /// Input size.
    pub scale: Scale,
    /// Processor count.
    pub procs: usize,
    /// Enable the miss classifier (Table 2 runs).
    pub classify: bool,
    /// Workload input seed (0 = canonical, the golden-fingerprint input).
    pub seed: u64,
    /// Machine configuration override (None = Table-1 defaults).
    pub config: Option<MachineConfig>,
}

impl RunSpec {
    /// Table-1 machine, no classification, canonical seed.
    pub fn new(protocol: Protocol, workload: WorkloadKind, scale: Scale, procs: usize) -> Self {
        RunSpec { protocol, workload, scale, procs, classify: false, seed: 0, config: None }
    }

    /// The same spec with a different workload input seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The effective machine configuration.
    pub fn machine_config(&self) -> MachineConfig {
        self.config.clone().unwrap_or_else(|| MachineConfig::paper_default(self.procs))
    }

    fn key(&self) -> String {
        format!(
            "{}|{}|{}|{}|{}|{}|{:?}",
            self.protocol,
            self.workload,
            self.scale.name(),
            self.procs,
            self.classify,
            self.seed,
            self.config
        )
    }
}

/// Execute one run synchronously.
pub fn execute(spec: &RunSpec) -> RunResult {
    let w = spec.workload.build_seeded(spec.procs, spec.scale, spec.seed);
    let mut m = Machine::new(spec.machine_config(), spec.protocol)
        .with_max_cycles(200_000_000_000);
    if spec.classify {
        m = m.with_classification();
    }
    m.run(w)
}

/// Execute one run on the sharded parallel engine with `threads` workers
/// (`threads <= 1` runs the sequential kernel directly). Results are
/// bit-identical to [`execute`] by construction; a configuration the
/// sharded engine cannot take (e.g. classification on) falls back to the
/// sequential kernel inside `try_run_sharded` itself.
///
/// # Panics
///
/// Panics with the structured diagnosis if the machine wedges — a benchmark
/// run has no business stalling.
pub fn execute_sharded(spec: &RunSpec, threads: usize) -> RunResult {
    if threads <= 1 {
        return execute(spec);
    }
    let spec = spec.clone();
    let build = {
        let spec = spec.clone();
        move || {
            let mut m = Machine::new(spec.machine_config(), spec.protocol)
                .with_max_cycles(200_000_000_000);
            if spec.classify {
                m = m.with_classification();
            }
            m
        }
    };
    let workload = {
        let spec = spec.clone();
        move || spec.workload.build_seeded(spec.procs, spec.scale, spec.seed)
    };
    lrc_core::try_run_sharded(&build, &workload, &lrc_core::ParallelOptions::threads(threads))
        .unwrap_or_else(|diag| {
            panic!("{} / {} stalled under {threads} threads: {diag}", spec.workload, spec.protocol)
        })
}

/// A memoizing parallel runner.
pub struct Runner {
    cache: Arc<Mutex<HashMap<String, Arc<RunResult>>>>,
    threads: usize,
    verbose: bool,
}

impl Runner {
    /// Runner using up to `threads` worker threads (0 = available
    /// parallelism).
    pub fn new(threads: usize, verbose: bool) -> Self {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map(|n| n.get()).unwrap_or(4)
        } else {
            threads
        };
        Runner { cache: Arc::new(Mutex::new(HashMap::new())), threads, verbose }
    }

    /// Lock the memo, recovering from poisoning: a cache entry is only
    /// inserted complete, so even a lock poisoned by a panicking worker
    /// holds nothing half-written and stays usable.
    fn lock_cache(cache: &Mutex<HashMap<String, Arc<RunResult>>>) -> MutexGuard<'_, HashMap<String, Arc<RunResult>>> {
        cache.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Run all `specs` (possibly in parallel), returning results in order.
    /// Previously executed specs are served from the memo.
    pub fn run_all(&self, specs: &[RunSpec]) -> Vec<Arc<RunResult>> {
        // Collect the specs that still need running.
        let todo: Vec<(usize, RunSpec)> = {
            let cache = Self::lock_cache(&self.cache);
            specs
                .iter()
                .enumerate()
                .filter(|(_, s)| !cache.contains_key(&s.key()))
                .map(|(i, s)| (i, s.clone()))
                .collect()
        };

        if !todo.is_empty() {
            let next = Arc::new(Mutex::new(0usize));
            let todo = Arc::new(todo);
            std::thread::scope(|scope| {
                for _ in 0..self.threads.min(todo.len()) {
                    let next = next.clone();
                    let todo = todo.clone();
                    let cache = self.cache.clone();
                    let verbose = self.verbose;
                    scope.spawn(move || loop {
                        let i = {
                            let mut n = next.lock().unwrap();
                            if *n >= todo.len() {
                                return;
                            }
                            let i = *n;
                            *n += 1;
                            i
                        };
                        let (_, spec) = &todo[i];
                        if verbose {
                            eprintln!(
                                "  running {} / {} ({}, {} procs)...",
                                spec.workload,
                                spec.protocol,
                                spec.scale.name(),
                                spec.procs
                            );
                        }
                        let started = std::time::Instant::now();
                        let result = Arc::new(execute(spec));
                        if verbose {
                            // Queue depth is tracked per shard: report the
                            // hottest shard's high-water mark and, for
                            // sharded runs, the total footprint across all
                            // shards (a single shard's sum equals its max).
                            let peaks = &result.peak_queue_depths;
                            let peak_sum: usize = peaks.iter().sum();
                            let peak_max = peaks.iter().copied().max().unwrap_or(0);
                            let depth = if peaks.len() > 1 {
                                format!(
                                    "peak queue depth {peak_max} (hottest of {} shards, {peak_sum} total)",
                                    peaks.len()
                                )
                            } else {
                                format!("peak queue depth {peak_max}")
                            };
                            eprintln!(
                                "  done    {} / {}: {} cycles in {:.1?} \
                                 ({:.2} Mevents/s, {depth})",
                                spec.workload,
                                spec.protocol,
                                result.stats.total_cycles,
                                started.elapsed(),
                                result.events as f64
                                    / result.sim_wall_secs.max(1e-9)
                                    / 1e6,
                            );
                        }
                        Self::lock_cache(&cache).insert(spec.key(), result);
                    });
                }
            });
        }

        // Serve results in request order. A spec can be absent only if a
        // worker died before memoizing it; rather than panicking on the
        // whole batch, fall back to running the stragglers synchronously.
        let mut out = Vec::with_capacity(specs.len());
        for s in specs {
            let cached = Self::lock_cache(&self.cache).get(&s.key()).cloned();
            out.push(cached.unwrap_or_else(|| {
                let r = Arc::new(execute(s));
                Self::lock_cache(&self.cache).insert(s.key(), r.clone());
                r
            }));
        }
        out
    }

    /// Run a single spec (memoized).
    pub fn run_one(&self, spec: &RunSpec) -> Arc<RunResult> {
        self.run_all(std::slice::from_ref(spec))
            .pop()
            .unwrap_or_else(|| Arc::new(execute(spec)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_returns_identical_results() {
        let r = Runner::new(2, false);
        let spec = RunSpec::new(Protocol::Erc, WorkloadKind::Fft, Scale::Tiny, 4);
        let a = r.run_one(&spec);
        let b = r.run_one(&spec);
        assert!(Arc::ptr_eq(&a, &b), "second run must come from the memo");
    }

    #[test]
    fn parallel_runs_preserve_order() {
        let r = Runner::new(4, false);
        let specs: Vec<RunSpec> = [Protocol::Sc, Protocol::Erc, Protocol::Lrc, Protocol::LrcExt]
            .iter()
            .map(|&p| RunSpec::new(p, WorkloadKind::Mp3d, Scale::Tiny, 4))
            .collect();
        let results = r.run_all(&specs);
        assert_eq!(results.len(), 4);
        for (res, spec) in results.iter().zip(&specs) {
            assert_eq!(res.protocol, spec.protocol);
            assert_eq!(res.workload, spec.workload.name());
        }
    }

    #[test]
    fn deterministic_across_runners() {
        let spec = RunSpec::new(Protocol::Lrc, WorkloadKind::Cholesky, Scale::Tiny, 4);
        let a = Runner::new(1, false).run_one(&spec);
        let b = Runner::new(3, false).run_one(&spec);
        assert_eq!(a.stats.total_cycles, b.stats.total_cycles);
    }
}
