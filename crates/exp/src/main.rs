//! Experiment CLI. `lrc-exp <experiment ...|all>` runs experiments
//! (optionally across seeds, into the artifact store); `lrc-exp report`
//! builds the paper report from a store, checks its staleness, or
//! regenerates the EXPERIMENTS.md index; `lrc-exp migrate` pulls pre-store
//! `results/{small,medium,paper}` JSON artifacts into a store. The flags of
//! each are `lrc_sim::cli::{EXP, EXP_REPORT, EXP_MIGRATE}` (`--help`).

#![forbid(unsafe_code)]

use lrc_exp::{
    config_hash, experiments, paper_stats, procs_flag, render_html, report_json,
    resolve_timestamp, splice_index_md, IndexEntry, Params, ReportMeta, RunManifest, Runner, Store,
};
use lrc_json::ToJson;
use lrc_sim::cli::{self, Args, CliError};
use lrc_sim::MachineConfig;
use lrc_workloads::Scale;
use std::path::{Path, PathBuf};
use std::process::exit;

fn main() {
    let mut argv: Vec<String> = std::env::args().skip(1).collect();
    let code = match argv.first().map(String::as_str) {
        Some("report") => {
            report_cmd(cli::EXP_REPORT.parse_or_exit(argv.split_off(1), report_config))
        }
        Some("migrate") => {
            migrate_cmd(cli::EXP_MIGRATE.parse_or_exit(argv.split_off(1), migrate_config))
        }
        _ => run_cmd(cli::EXP.parse_or_exit(argv, run_config)),
    };
    exit(code);
}

/// The store a run or a migration writes into, opened (and its objects
/// directory created) before any work.
fn open_store(dir: &Path) -> Result<Store, CliError> {
    let bad = |e| CliError::invalid("--store", dir.display().to_string(), format!("a store: {e}"));
    Store::open(dir).map_err(bad)
}

// ---------------------------------------------------------------------------
// `lrc-exp <ids...>` — run experiments.
// ---------------------------------------------------------------------------

/// A checked `lrc-exp <ids...>` command line.
#[derive(Debug, PartialEq)]
struct RunConfig {
    ids: Vec<&'static str>,
    params: Params,
    threads: usize,
    seeds: u64,
    json_dir: Option<PathBuf>,
    trace_dir: Option<PathBuf>,
    store: Option<Store>,
    timestamp: Option<u64>,
    verbose: bool,
}

fn run_config(a: &Args) -> Result<RunConfig, CliError> {
    let mut ids = Vec::new();
    for w in a.words() {
        match experiments::ALL_IDS.iter().find(|id| *id == w) {
            Some(id) => ids.push(*id),
            None if w == "all" => ids.extend(experiments::ALL_IDS),
            None => return Err(CliError::invalid("EXPERIMENT", w, "an experiment id or all")),
        }
    }
    if ids.is_empty() {
        return Err(CliError::invalid("EXPERIMENT", "", "an experiment id or all (see --help)"));
    }
    let mut params = Params::default();
    let scale_names = "paper | large | medium | small | tiny";
    params.scale = a.get_with("--scale", scale_names, Scale::parse)?.unwrap_or(params.scale);
    params.procs = procs_flag(a, params.procs)?.num_procs;
    let seeds = a.get("--seeds", "a seed count >= 1")?.unwrap_or(1);
    if seeds == 0 {
        return Err(CliError::invalid("--seeds", "0", "a seed count >= 1"));
    }
    Ok(RunConfig {
        ids,
        params,
        threads: a.get("--threads", "a thread count (0 = one per core)")?.unwrap_or(0),
        seeds,
        json_dir: a.out_dir("--json")?,
        trace_dir: a.out_dir("--trace-dir")?,
        store: a.out_dir("--store")?.map(|dir| open_store(&dir)).transpose()?,
        timestamp: a.get("--timestamp", "unix seconds")?,
        verbose: !a.switch("--quiet"),
    })
}

fn run_cmd(cfg: RunConfig) -> i32 {
    let ts = resolve_timestamp(cfg.timestamp);
    let RunConfig { ids, mut params, seeds, json_dir, trace_dir, store, verbose, .. } = cfg;

    let runner = Runner::new(cfg.threads, verbose);
    for seed in 0..seeds {
        params.seed = seed;
        if verbose && seeds > 1 {
            eprintln!("== seed {seed}");
        }
        for id in &ids {
            let report = experiments::run_by_id(id, &runner, params).expect("ids are checked");
            // The canonical seed keeps the legacy behavior: print the
            // paper-style tables and write the standalone JSON files.
            if seed == 0 {
                report.print();
                if let Some(dir) = &json_dir {
                    let path = dir.join(format!("{id}.json"));
                    std::fs::write(&path, report.to_json().pretty()).expect("write json");
                    eprintln!("wrote {}", path.display());
                }
                if *id == "observe" {
                    if let Some(dir) = &trace_dir {
                        write_trace_artifacts(dir, &report.json);
                    }
                }
            }
            if let Some(store) = &store {
                match store_run(store, id, &params, &report, ts) {
                    Ok(hash) => {
                        if verbose {
                            eprintln!("stored {id} seed {seed} -> {}", &hash[..12.min(hash.len())]);
                        }
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        return 1;
                    }
                }
            }
        }
    }
    0
}

/// Persist one run: artifact blob, fresh manifest, index row. Returns the
/// artifact hash.
fn store_run(
    store: &Store,
    id: &str,
    params: &Params,
    report: &lrc_exp::Report,
    timestamp: u64,
) -> Result<String, lrc_exp::StoreError> {
    let artifact = report.to_json();
    let artifact_hash = store.put(&artifact)?;
    let config = MachineConfig::paper_default(params.procs).to_json();
    let manifest = RunManifest::new(id, params.to_json(), config, &artifact_hash, timestamp);
    let manifest_hash = store.put(&manifest.to_json())?;
    store.record(IndexEntry {
        experiment: id.to_string(),
        scale: params.scale.name().to_string(),
        procs: params.procs as u64,
        seed: params.seed,
        config_hash: manifest.config_hash.clone(),
        artifact: artifact_hash.clone(),
        manifest: manifest_hash,
        migrated: false,
        timestamp,
    })?;
    Ok(artifact_hash)
}

fn write_trace_artifacts(dir: &Path, j: &lrc_json::Value) {
    let files = [
        ("observe.perfetto.json", j["perfetto"].dump()),
        ("observe.jsonl", j["jsonl"].as_str().unwrap_or_default().to_string()),
        ("observe.timeseries.csv", j["timeseries_csv"].as_str().unwrap_or_default().to_string()),
        ("observe.latency.json", j["latency"].dump()),
    ];
    for (name, contents) in files {
        let path = dir.join(name);
        std::fs::write(&path, contents).expect("write trace artifact");
        eprintln!("wrote {}", path.display());
    }
}

// ---------------------------------------------------------------------------
// `lrc-exp report` — HTML + JSON report, staleness check, index-md.
// ---------------------------------------------------------------------------

/// The configuration hash the *current* tool derives for a manifest's
/// parameters — the staleness oracle for `--check`.
fn current_config_hash(m: &RunManifest) -> Option<String> {
    let procs = m.params["procs"].as_u64()? as usize;
    Some(config_hash(&m.experiment, &m.params, &MachineConfig::paper_default(procs).to_json()))
}

/// A checked `lrc-exp report` command line.
struct ReportConfig {
    /// `None` for an index-only invocation, which reads no store.
    store: Option<Store>,
    store_label: String,
    out: PathBuf,
    baseline: String,
    check: bool,
    index_md: Option<PathBuf>,
}

fn report_config(a: &Args) -> Result<ReportConfig, CliError> {
    let check = a.switch("--check");
    let index_md = a.value("--index-md").map(PathBuf::from);
    let index_only = index_md.is_some()
        && !check
        && ["--store", "--out", "--baseline"].iter().all(|f| a.value(f).is_none());
    let store_label = a.value("--store").unwrap_or("results/store").to_string();
    let open = || Store::open_existing(&store_label);
    let store = (!index_only).then(open).transpose().map_err(|e| {
        CliError::invalid("--store", &store_label, format!("an experiment store: {e}"))
    })?;
    let out = PathBuf::from(a.value("--out").unwrap_or("results/report.html"));
    if !check {
        if let Some(parent) = out.parent().filter(|p| !p.as_os_str().is_empty()) {
            cli::out_dir("--out", parent)?;
        }
    }
    Ok(ReportConfig {
        store,
        store_label,
        out,
        baseline: a.value("--baseline").unwrap_or("eager").to_string(),
        check,
        index_md,
    })
}

fn report_cmd(cfg: ReportConfig) -> i32 {
    if let Some(path) = &cfg.index_md {
        let existing = std::fs::read_to_string(path).unwrap_or_default();
        if let Err(e) = std::fs::write(path, splice_index_md(&existing)) {
            eprintln!("--index-md {}: {e}", path.display());
            return 1;
        }
        eprintln!("wrote {}", path.display());
    }
    let Some(store) = cfg.store else {
        return 0; // index-only invocation
    };
    let store_dir = cfg.store_label;

    if cfg.check {
        let known: Vec<&str> = experiments::ALL_IDS.to_vec();
        match store.check(&known, &current_config_hash) {
            Ok(failures) if failures.is_empty() => {
                let n = store.entries().map(|e| e.len()).unwrap_or(0);
                eprintln!("store {store_dir}: {n} entries, all current");
                return 0;
            }
            Ok(failures) => {
                for f in &failures {
                    eprintln!("STALE {}: {}", f.entry, f.reason);
                }
                eprintln!("store {store_dir}: {} stale/corrupt entr(ies)", failures.len());
                return 1;
            }
            Err(e) => {
                eprintln!("{e}");
                return 1;
            }
        }
    }

    let stats = match paper_stats(&store, &experiments::ALL_IDS, &cfg.baseline) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            return 1;
        }
    };
    let meta = ReportMeta {
        tool_version: env!("CARGO_PKG_VERSION").to_string(),
        store_label: store_dir,
        baseline: cfg.baseline,
    };

    let out_path = cfg.out.as_path();
    // Provenance links are relative to the HTML file when the store sits
    // under its directory; otherwise they point at the store path as given.
    let store_prefix = match out_path.parent() {
        Some(parent) if !parent.as_os_str().is_empty() => match store.root().strip_prefix(parent) {
            Ok(rel) => format!("{}/", rel.display()),
            Err(_) => format!("{}/", store.root().display()),
        },
        _ => format!("{}/", store.root().display()),
    };

    let html = render_html(&stats, &meta, &store_prefix);
    if let Err(e) = std::fs::write(out_path, &html) {
        eprintln!("--out {}: {e}", out_path.display());
        return 1;
    }
    eprintln!("wrote {} ({} experiment groups)", out_path.display(), stats.len());

    let json_path = out_path.with_extension("json");
    let doc = report_json(&stats, &meta);
    if let Err(e) = std::fs::write(&json_path, doc.pretty()) {
        eprintln!("{}: {e}", json_path.display());
        return 1;
    }
    eprintln!("wrote {}", json_path.display());
    0
}

// ---------------------------------------------------------------------------
// `lrc-exp migrate` — pull legacy results/ JSONs into the store.
// ---------------------------------------------------------------------------

/// A checked `lrc-exp migrate` command line.
struct MigrateConfig {
    results: PathBuf,
    store: Store,
    store_dir: PathBuf,
}

fn migrate_config(a: &Args) -> Result<MigrateConfig, CliError> {
    let results = PathBuf::from(a.value("--results").unwrap_or("results"));
    let store_dir = match a.value("--store") {
        Some(dir) => PathBuf::from(dir),
        None => results.join("store"),
    };
    let store = open_store(&cli::out_dir("--store", &store_dir)?)?;
    Ok(MigrateConfig { results, store, store_dir })
}

fn migrate_cmd(cfg: MigrateConfig) -> i32 {
    let MigrateConfig { results, store, store_dir } = cfg;
    let mut migrated = 0usize;
    for scale in ["small", "medium", "paper"] {
        let dir = results.join(scale);
        let Ok(entries) = std::fs::read_dir(&dir) else { continue };
        let mut files: Vec<PathBuf> = entries
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.extension().is_some_and(|x| x == "json"))
            .collect();
        files.sort();
        for path in files {
            let Some(id) = path.file_stem().and_then(|s| s.to_str()).map(str::to_string) else {
                continue;
            };
            let text = match std::fs::read_to_string(&path) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("skip {}: {e}", path.display());
                    continue;
                }
            };
            let artifact = match lrc_json::parse(&text) {
                Ok(v) => v,
                Err(e) => {
                    eprintln!("skip {}: {e}", path.display());
                    continue;
                }
            };
            let result = store.put(&artifact).and_then(|artifact_hash| {
                let manifest = RunManifest::migrated(
                    &id,
                    lrc_json::json!({ "scale": scale, "source": path.display().to_string() }),
                    &artifact_hash,
                );
                let manifest_hash = store.put(&manifest.to_json())?;
                store.record(IndexEntry {
                    experiment: id.clone(),
                    scale: scale.to_string(),
                    procs: 0,
                    seed: 0,
                    config_hash: manifest.config_hash.clone(),
                    artifact: artifact_hash,
                    manifest: manifest_hash,
                    migrated: true,
                    timestamp: 0,
                })
            });
            match result {
                Ok(()) => {
                    migrated += 1;
                    eprintln!("migrated {}", path.display());
                }
                Err(e) => {
                    eprintln!("{e}");
                    return 1;
                }
            }
        }
    }
    eprintln!("migrated {migrated} artifact(s) into {}", store_dir.display());
    0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parsed<T>(spec: &cli::Spec, line: &str, conv: fn(&Args) -> Result<T, CliError>) -> T {
        let a = spec.parse(line.split_whitespace().map(str::to_string)).unwrap();
        conv(&a.expect("no --help")).unwrap_or_else(|e| panic!("{line}: {e}"))
    }

    /// The command lines `scripts/ci.sh` runs keep the values the
    /// hand-written parser gave them.
    #[test]
    fn ci_command_lines_keep_their_values() {
        let root = std::env::temp_dir().join(format!("lrc-exp-cli-{}", std::process::id()));
        let (obs, store, html) = (root.join("obs"), root.join("store"), root.join("report.html"));
        let observe = RunConfig {
            ids: vec!["observe"],
            params: Params { scale: Scale::Tiny, procs: 8, seed: 0 },
            threads: 0,
            seeds: 1,
            json_dir: None,
            trace_dir: Some(obs.clone()),
            store: None,
            timestamp: None,
            verbose: false,
        };
        let line = format!("observe --scale tiny --procs 8 --quiet --trace-dir {}", obs.display());
        assert_eq!(parsed(&cli::EXP, &line, run_config), observe);
        let line = format!(
            "table3 quality --scale tiny --procs 8 --seeds 2 --store {} --timestamp 1754700000 \
             --quiet",
            store.display()
        );
        assert_eq!(
            parsed(&cli::EXP, &line, run_config),
            RunConfig {
                ids: vec!["table3", "quality"],
                seeds: 2,
                trace_dir: None,
                store: Some(Store::open(&store).unwrap()),
                timestamp: Some(1_754_700_000),
                ..observe
            }
        );
        let all = parsed(&cli::EXP, "all --scale tiny --quiet", run_config);
        assert_eq!(all.ids, experiments::ALL_IDS.to_vec());

        std::fs::write(store.join("index.json"), "{}").unwrap();
        let line = format!("--store {} --out {}", store.display(), html.display());
        let r = parsed(&cli::EXP_REPORT, &line, report_config);
        assert_eq!(r.store.as_ref().map(|s| s.root()), Some(store.as_path()));
        assert_eq!((r.out, r.baseline.as_str(), r.check, r.index_md), (html, "eager", false, None));
        let line = format!("--store {} --check", store.display());
        let r = parsed(&cli::EXP_REPORT, &line, report_config);
        assert!(r.check && r.store.is_some());
        let r = parsed(&cli::EXP_REPORT, "--index-md EXPERIMENTS.md", report_config);
        assert!(r.store.is_none() && r.index_md == Some(PathBuf::from("EXPERIMENTS.md")));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn experiment_words_in_the_help_match_the_registry() {
        for id in experiments::ALL_IDS {
            let mut words = cli::EXP.words.split(|c: char| !c.is_ascii_alphanumeric());
            assert!(words.any(|w| w == id), "{id} not in --help");
        }
    }
}
