//! The `lrc-check` command-line contract: `--help` exits 0, and bad input
//! exits 2 with one error line naming the flag, before any exploration.

use std::process::Command;

#[test]
fn bad_input_is_a_usage_error_naming_the_flag() {
    let help = Command::new(env!("CARGO_BIN_EXE_lrc-check")).arg("--help").output().unwrap();
    assert_eq!(help.status.code(), Some(0));
    for (args, flag) in [
        (&["--scenario", "counter", "--crash-nth", "3", "--crash-node", "99"][..], "--crash-node"),
        (&["--scenario", "nope"], "--scenario"),
        (&["--protocol", "tso"], "--protocol"),
        (&["--fault", "skip-everything"], "--fault"),
        (&["--replay", "0,1"], "--replay"),
        (&["--scenario", "counter", "--protocol", "lazy", "--replay", "0,x"], "--replay"),
        (&["--max-states", "x"], "--max-states"),
        (&["--nack-nth"], "--nack-nth"),
        (&["counter"], "counter"),
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_lrc-check")).args(args).output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} printed output");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(stderr.contains(flag) && !stderr.contains("panicked"), "{args:?}: {stderr}");
    }
}
