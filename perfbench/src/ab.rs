//! Interleaved A/B comparison of two builds of this benchmark.
//!
//! Each of [`PAIRS`] pairs runs both builds on the same seed for
//! `BENCHMARK.json`'s `run_seconds`, alternating which goes first, and
//! every workload is reported in its own rows: per metric, each side's
//! median and quartiles, the paired bootstrap CI and sign-flip permutation
//! p from `lrc_exp::stats`, and a verdict against the bound
//! `BENCHMARK.json` fixes for the metric. Exact metrics and the simulated
//! outputs' digest are compared pair by pair instead: any difference is a
//! change.

use crate::metrics::{quartiles, EXACT};
use crate::workloads::Kind;
use lrc_exp::{paired_permutation_p, summarize};
use lrc_json::{json, Value};
use std::collections::BTreeMap;
use std::process::Command;

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug, Clone, PartialEq)]
pub struct Declared {
    /// Metric name.
    pub name: String,
    /// `true` when higher is better.
    pub higher_better: bool,
    /// Share of the baseline median by which it may worsen.
    pub bound: f64,
}

/// The `end_to_end` metrics and `run_seconds` of a `BENCHMARK.json`.
pub fn read_bench(text: &str) -> Result<(Vec<Declared>, u64), String> {
    let v = lrc_json::parse(text).map_err(|e| format!("BENCHMARK.json: {e:?}"))?;
    let run_seconds = v["run_seconds"]
        .as_u64()
        .ok_or("BENCHMARK.json: run_seconds missing")?;
    let metrics = v["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json: end_to_end missing")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m["name"]
                    .as_str()
                    .ok_or("end_to_end entry without a name")?
                    .to_string(),
                higher_better: match m["better"].as_str() {
                    Some("higher") => true,
                    Some("lower") => false,
                    _ => {
                        return Err(format!(
                            "{}: better must be higher or lower",
                            m["name"].dump()
                        ))
                    }
                },
                bound: m["bound"]
                    .as_f64()
                    .ok_or("end_to_end entry without a bound")?,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok((metrics, run_seconds))
}

/// Pairs per workload.
pub const PAIRS: u64 = 10;

/// The seed of the first pair; pair `i` runs seed `FIRST_SEED + i`.
pub const FIRST_SEED: u64 = 1000;

/// The comparison of one metric on one workload.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// B is worse than A by more than the bound.
    Regressed,
    /// B won at least nine pairs in ten and the medians differ by more
    /// than A's own quartile spread.
    Improved,
    /// Within the bound, and no gain shown.
    Unchanged,
    /// A side's run-to-run spread exceeds the bound, so the bound cannot
    /// be resolved (unless every B run beats every A run).
    Unresolved,
    /// An exact metric differs between A and B on the same seed.
    Changed,
    /// An exact metric is equal on every pair.
    Identical,
}

/// Judge an exact metric: paired samples on the same seeds must be equal.
pub fn exact_verdict(a: &[f64], b: &[f64]) -> Verdict {
    if a == b {
        Verdict::Identical
    } else {
        Verdict::Changed
    }
}

/// Judge paired samples `a` (baseline) and `b` (candidate).
pub fn verdict(a: &[f64], b: &[f64], higher_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if higher_better { x > y } else { x < y };
    let (qa1, ma, qa3) = quartiles(a);
    let (qb1, mb, qb3) = quartiles(b);
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if (qa3 - qa1) / ma.abs() > bound || (qb3 - qb1) / mb.abs() > bound {
        return if all_better {
            Verdict::Improved
        } else {
            Verdict::Unresolved
        };
    }
    let worse_by = if higher_better {
        (ma - mb) / ma
    } else {
        (mb - ma) / ma
    };
    if worse_by > bound {
        return Verdict::Regressed;
    }
    let wins = a.iter().zip(b).filter(|(&x, &y)| better(y, x)).count();
    if wins * 10 >= a.len() * 9 && (mb - ma).abs() > qa3 - qa1 {
        Verdict::Improved
    } else {
        Verdict::Unchanged
    }
}

struct Args {
    a: String,
    b: String,
    kinds: Vec<Kind>,
    bench: String,
}

fn parse(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        a: String::new(),
        b: String::new(),
        kinds: Kind::ALL.to_vec(),
        bench: "BENCHMARK.json".to_string(),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--a" => out.a = value.clone(),
            "--b" => out.b = value.clone(),
            "--workloads" => {
                out.kinds = value
                    .split(',')
                    .map(|w| Kind::parse(w).ok_or_else(|| format!("unknown workload {w:?}")))
                    .collect::<Result<_, _>>()?
            }
            "--bench" => out.bench = value.clone(),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if out.a.is_empty() || out.b.is_empty() {
        return Err("ab needs --a <binary> and --b <binary>".to_string());
    }
    Ok(out)
}

/// What one run of one build reports.
struct RunReport {
    /// The `provenance` line.
    provenance: String,
    /// The digest of the simulated outputs.
    digest: String,
    /// Metric values by name.
    metrics: BTreeMap<String, f64>,
}

/// Run one build once.
fn run_once(bin: &str, kind: Kind, seed: u64, seconds: u64) -> Result<RunReport, String> {
    let out = Command::new(bin)
        .args([
            "--workload",
            kind.name(),
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
            "--trace",
            "0",
        ])
        .output()
        .map_err(|e| format!("{bin}: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().unwrap_or_default();
    let v = lrc_json::parse(last)
        .map_err(|_| format!("{bin} {} seed {seed}: no result line", kind.name()))?;
    if !out.status.success()
        || v["correct"].as_bool() != Some(true)
        || v["failed"].as_u64() != Some(0)
    {
        return Err(format!(
            "{bin} {} seed {seed}: run failed its checks",
            kind.name()
        ));
    }
    let line = |prefix: &str| {
        stdout
            .lines()
            .find(|l| l.starts_with(prefix))
            .unwrap_or_default()
            .to_string()
    };
    let provenance = line("provenance ");
    // `digest <workload> seed=<n> passes=<k> <hex>`: the hex is the last
    // word.
    let digest = line("digest ")
        .rsplit(' ')
        .next()
        .unwrap_or_default()
        .to_string();
    let metrics = v["metrics"]
        .as_object()
        .ok_or("result without metrics")?
        .iter()
        .filter_map(|(k, m)| Some((k.clone(), m["value"].as_f64()?)))
        .collect();
    Ok(RunReport {
        provenance,
        digest,
        metrics,
    })
}

/// `lrc-perfbench ab ...`: exit 0 when no metric regressed and the
/// simulated outputs are identical, 1 otherwise.
pub fn main(args: &[String]) -> Result<i32, String> {
    let args = parse(args)?;
    let text = std::fs::read_to_string(&args.bench).map_err(|e| format!("{}: {e}", args.bench))?;
    let (declared, seconds) = read_bench(&text)?;
    let mut failing = false;
    let mut rows = Vec::new();
    for &kind in &args.kinds {
        let mut samples: [BTreeMap<String, Vec<f64>>; 2] = Default::default();
        let mut digests_differ = 0;
        for i in 0..PAIRS {
            let seed = FIRST_SEED + i;
            let order = if i % 2 == 0 { [0, 1] } else { [1, 0] };
            let mut digests = [String::new(), String::new()];
            for side in order {
                let bin = if side == 0 { &args.a } else { &args.b };
                let run = run_once(bin, kind, seed, seconds)?;
                if i < 2 && side == order[0] {
                    println!("{} {}: {}", ["A", "B"][side], kind.name(), run.provenance);
                }
                for (k, x) in run.metrics {
                    samples[side].entry(k).or_default().push(x);
                }
                digests[side] = run.digest;
            }
            digests_differ += usize::from(digests[0] != digests[1]);
        }
        failing |= digests_differ > 0;
        println!(
            "{} simulated outputs: {}",
            kind.name(),
            if digests_differ == 0 {
                format!("identical in all {PAIRS} pairs")
            } else {
                format!("CHANGED in {digests_differ} of {PAIRS} pairs")
            }
        );
        println!(
            "{:<17} {:<13} {:>30} {:>30} {:>8} {:>26} {:>6}  verdict",
            "workload",
            "metric",
            "A median [Q1, Q3]",
            "B median [Q1, Q3]",
            "B/A",
            "B-A mean, 95% CI",
            "p"
        );
        for d in &declared {
            let (Some(a), Some(b)) = (samples[0].get(&d.name), samples[1].get(&d.name)) else {
                continue;
            };
            let (qa1, ma, qa3) = quartiles(a);
            let (qb1, mb, qb3) = quartiles(b);
            let diffs: Vec<f64> = b.iter().zip(a).map(|(y, x)| y - x).collect();
            let s = summarize(&diffs, 1);
            let p = paired_permutation_p(a, b, 1);
            let v = if EXACT.contains(&d.name.as_str()) {
                exact_verdict(a, b)
            } else {
                verdict(a, b, d.higher_better, d.bound)
            };
            failing |= matches!(v, Verdict::Regressed | Verdict::Changed);
            println!(
                "{:<17} {:<13} {:>30} {:>30} {:>8.4} {:>26} {:>6.3}  {v:?}",
                kind.name(),
                d.name,
                format!("{ma:.5} [{qa1:.5}, {qa3:.5}]"),
                format!("{mb:.5} [{qb1:.5}, {qb3:.5}]"),
                mb / ma,
                format!("{:.4} [{:.4}, {:.4}]", s.mean, s.ci_lo, s.ci_hi),
                p
            );
            rows.push(json!({
                "workload": kind.name(),
                "metric": d.name.clone(),
                "a": a.clone(),
                "b": b.clone(),
                "a_median": ma,
                "b_median": mb,
                "ci_lo": s.ci_lo,
                "ci_hi": s.ci_hi,
                "p": p,
                "verdict": format!("{v:?}"),
            }));
        }
    }
    println!(
        "{}",
        json!({ "pairs": PAIRS, "seconds": seconds, "rows": Value::Array(rows) }).dump()
    );
    Ok(if failing { 1 } else { 0 })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts() {
        let a = [10.0, 10.1, 9.9, 10.0, 10.2, 9.8, 10.0, 10.1, 9.9, 10.0];
        let same: Vec<f64> = a.iter().map(|x| x + 0.01).collect();
        assert_eq!(verdict(&a, &same, false, 0.1), Verdict::Unchanged);
        let slower: Vec<f64> = a.iter().map(|x| x * 1.3).collect();
        assert_eq!(verdict(&a, &slower, false, 0.1), Verdict::Regressed);
        assert_eq!(verdict(&a, &slower, true, 0.1), Verdict::Improved);
        let noisy = [5.0, 15.0, 8.0, 12.0, 6.0, 14.0, 9.0, 11.0, 7.0, 13.0];
        assert_eq!(verdict(&a, &noisy, false, 0.1), Verdict::Unresolved);
        let far_faster: Vec<f64> = noisy.iter().map(|x| x / 10.0).collect();
        assert_eq!(verdict(&a, &far_faster, false, 0.1), Verdict::Improved);
    }

    #[test]
    fn exact_metrics_must_match_on_every_pair() {
        let a = [120.0, 130.0, 125.0];
        assert_eq!(exact_verdict(&a, &a), Verdict::Identical);
        let one_off = [120.0, 130.0, 125.000001];
        assert_eq!(exact_verdict(&a, &one_off), Verdict::Changed);
    }

    #[test]
    fn bench_file_parses() {
        let text = r#"{"run_seconds": 7, "end_to_end": [
            {"name": "run_s", "unit": "s", "better": "lower", "bound": 0.2},
            {"name": "events_per_s", "unit": "events/s", "better": "higher", "bound": 0.2}]}"#;
        let (m, secs) = read_bench(text).expect("valid");
        assert_eq!(secs, 7);
        assert_eq!(
            m[1],
            Declared {
                name: "events_per_s".into(),
                higher_better: true,
                bound: 0.2
            }
        );
        assert!(read_bench(
            r#"{"run_seconds": 7, "end_to_end": [{"name": "x", "better": "up", "bound": 1}]}"#
        )
        .is_err());
    }
}
