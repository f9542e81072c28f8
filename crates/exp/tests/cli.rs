//! The command-line contract of the `lrc-exp`, `lrc-bench` and `lrc-soak`
//! binaries: `--help` exits 0, and bad input exits 2 with one error line
//! naming the flag, before any work starts.

use std::process::{Command, Output};

const EXP: &str = env!("CARGO_BIN_EXE_lrc-exp");
const BENCH: &str = env!("CARGO_BIN_EXE_lrc-bench");
const SOAK: &str = env!("CARGO_BIN_EXE_lrc-soak");

fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin).args(args).output().expect("spawn the binary")
}

#[test]
fn help_exits_zero() {
    let cases: &[(&str, &[&str])] =
        &[(EXP, &["--help"]), (EXP, &["report", "-h"]), (BENCH, &["-h"]), (SOAK, &["--help"])];
    for (bin, args) in cases {
        let out = run(bin, args);
        assert_eq!(out.status.code(), Some(0), "{bin} {args:?}");
        assert!(String::from_utf8_lossy(&out.stdout).contains("--help"), "{bin} {args:?}");
    }
}

#[test]
fn bad_input_is_a_usage_error_naming_the_flag() {
    let cases: &[(&str, &[&str], &str)] = &[
        (EXP, &["fig4", "--procs", "abc"], "--procs"),
        (EXP, &["table1", "--seeds", "abc"], "--seeds"),
        (EXP, &["table1", "--seeds", "0"], "--seeds"),
        (EXP, &["table1", "--threads", "x"], "--threads"),
        (EXP, &["table1", "--verbose"], "--verbose"),
        (EXP, &["fig4", "--procs", "0"], "--procs"),
        (EXP, &["fig4", "--procs", "300"], "--procs"),
        (EXP, &["table1", "fig10"], "EXPERIMENT"),
        (EXP, &["--quiet"], "EXPERIMENT"),
        (EXP, &["report", "--baseline"], "--baseline"),
        (SOAK, &["--smoke", "--procs", "0"], "--procs"),
        (SOAK, &["--smoke", "--procs", "300"], "--procs"),
        (SOAK, &["--smoke", "--seeds", "0"], "--seeds"),
        (SOAK, &["--smoke", "--rates", "2.0"], "--rates"),
        (SOAK, &["--smoke", "--rates", "0,-0.5"], "--rates"),
        (SOAK, &["--smoke", "--rates", "x"], "--rates"),
        (SOAK, &["--checkpoint-dir", "/tmp/a", "--resume", "/tmp/b"], "--resume"),
        (BENCH, &["run", "--threads", "0"], "--threads"),
        (BENCH, &["run", "--threads", "1,x"], "--threads"),
        (BENCH, &["run", "--procs", "0"], "--procs"),
        (BENCH, &["run", "--reps", "0"], "--reps"),
        (BENCH, &["run", "--scale", "huge"], "--scale"),
        (BENCH, &["run", "--out", "/nonexistent-dir/bench.json"], "--out"),
        (BENCH, &["compare"], "compare"),
        (BENCH, &[], "MODE"),
    ];
    for (bin, args, flag) in cases {
        let out = run(bin, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(flag) && !stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}

#[test]
fn report_reads_a_store_without_creating_it() {
    let missing = std::env::temp_dir().join(format!("lrc-exp-no-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    let store = missing.to_str().expect("utf-8 temp path");
    for args in [&["report", "--store", store, "--check"][..], &["report", "--store", store]] {
        let out = run(EXP, args);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.contains("--store"), "{stderr}");
        assert!(!missing.exists(), "{args:?} created the store directory");
    }
}
