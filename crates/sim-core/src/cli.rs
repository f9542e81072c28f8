//! The one argument parser of the workspace's command-line binaries
//! (`lrc-check`, `lrc-exp`, `lrc-bench`, `lrc-soak`).
//!
//! Each binary's flags are declared once, in a static [`Spec`] below: name,
//! metavar and help line. The same table drives parsing, the
//! unknown-argument error and the generated `--help`. Parsing only splits
//! the command line into flags and positional words; each binary then
//! converts every value into its typed config with the [`Args`] accessors
//! before it starts any work, so a bad value is a [`CliError`] that names
//! the flag (exit status 2), never a panic or an error after a long run.
//!
//! Deliberately small: long flags with an optional following value,
//! positional words, `--help`/`-h`. No subcommand trees, no `--flag=value`,
//! no short-flag bundling, no environment fallbacks.

use std::fmt;
use std::path::{Path, PathBuf};
use std::str::FromStr;

/// One flag of a binary's table.
#[derive(Debug)]
pub struct Flag {
    /// The spelling on the command line (`--procs`).
    pub name: &'static str,
    /// The placeholder for the flag's value in the help (`N`), or `""` for
    /// a switch that takes no value.
    pub metavar: &'static str,
    /// Help text; `\n` starts a continuation line.
    pub help: &'static str,
}

const fn switch(name: &'static str, help: &'static str) -> Flag {
    Flag { name, metavar: "", help }
}

const fn value(name: &'static str, metavar: &'static str, help: &'static str) -> Flag {
    Flag { name, metavar, help }
}

/// The flag every table has implicitly.
const HELP: Flag = switch("--help", "print this help and exit");

/// A binary's (or an `lrc-exp` word's) command line.
#[derive(Debug)]
pub struct Spec {
    /// Program name, the prefix of every error line.
    pub bin: &'static str,
    /// One-line description heading the help.
    pub about: &'static str,
    /// The usage line.
    pub usage: &'static str,
    /// Positional words this command takes, for the help (`""` = none; a
    /// positional word is then an error).
    pub words: &'static str,
    /// The flag table.
    pub flags: &'static [Flag],
    /// Trailing help paragraph (exit status); may be empty.
    pub footer: &'static str,
}

/// A command line the binary cannot run. `main` prints it after the
/// binary's name and exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// An argument no flag of the table spells, or a positional word where
    /// the command takes none.
    Unknown(String),
    /// A value that does not convert: which flag, the value given (empty
    /// when the value or a required positional word is absent), and what
    /// the flag accepts.
    Invalid {
        /// The flag (or positional-word metavar) the value came from.
        flag: &'static str,
        /// The value as given.
        value: String,
        /// What would have been accepted.
        expected: String,
    },
}

impl CliError {
    /// A [`CliError::Invalid`] value.
    pub fn invalid(
        flag: &'static str,
        value: impl Into<String>,
        expected: impl Into<String>,
    ) -> Self {
        CliError::Invalid { flag, value: value.into(), expected: expected.into() }
    }
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Unknown(arg) => write!(f, "unknown argument '{arg}' (try --help)"),
            CliError::Invalid { flag, value, expected } if value.is_empty() => {
                write!(f, "{flag}: missing (expected {expected})")
            }
            CliError::Invalid { flag, value, expected } => {
                write!(f, "{flag}: invalid value '{value}' (expected {expected})")
            }
        }
    }
}

impl std::error::Error for CliError {}

/// Validate the output directory `path` of `flag` up front: create it (and
/// any missing parents) if absent, and reject a path that exists but is not
/// a directory — so an unusable output path fails before the work that
/// would write there, not after it.
pub fn out_dir(flag: &'static str, path: &Path) -> Result<PathBuf, CliError> {
    let bad = |why: String| CliError::invalid(flag, path.display().to_string(), why);
    if path.as_os_str().is_empty() {
        return Err(bad("a directory, not an empty path".to_string()));
    }
    if path.exists() && !path.is_dir() {
        return Err(bad("a directory; this exists but is not a directory".to_string()));
    }
    std::fs::create_dir_all(path)
        .map_err(|e| bad(format!("a directory; cannot create directory: {e}")))?;
    Ok(path.to_path_buf())
}

/// A parsed command line: the flags in the order given and the positional
/// words. Values are raw strings until an accessor converts them.
#[derive(Debug)]
pub struct Args<'s> {
    spec: &'s Spec,
    flags: Vec<(&'static str, Option<String>)>,
    words: Vec<String>,
}

impl Spec {
    /// Split `argv` (program name excluded) against the table. `Ok(None)`
    /// means `--help` was asked for.
    pub fn parse(
        &self,
        argv: impl IntoIterator<Item = String>,
    ) -> Result<Option<Args<'_>>, CliError> {
        let mut args = Args { spec: self, flags: Vec::new(), words: Vec::new() };
        let mut it = argv.into_iter();
        while let Some(arg) = it.next() {
            if arg == HELP.name || arg == "-h" {
                return Ok(None);
            } else if arg.starts_with('-') {
                let flag = self.flag(&arg).ok_or(CliError::Unknown(arg))?;
                let v = match flag.metavar {
                    "" => None,
                    _ => Some(it.next().ok_or(CliError::invalid(flag.name, "", flag.metavar))?),
                };
                args.flags.push((flag.name, v));
            } else if self.words.is_empty() {
                return Err(CliError::Unknown(arg));
            } else {
                args.words.push(arg);
            }
        }
        Ok(Some(args))
    }

    fn flag(&self, name: &str) -> Option<&'static Flag> {
        self.flags.iter().find(|f| f.name == name)
    }

    /// The generated `--help` text.
    pub fn help(&self) -> String {
        let label = |f: &Flag| format!("{} {}", f.name, f.metavar).trim_end().to_string();
        let flags = || self.flags.iter().chain([&HELP]);
        let width = flags().map(|f| label(f).len()).max().unwrap_or(0) + 2;
        let mut s = format!("{} — {}\n\nUSAGE:\n    {}\n", self.bin, self.about, self.usage);
        if !self.words.is_empty() {
            s += &format!("\n{}\n", self.words);
        }
        s += "\nOPTIONS:\n";
        for f in flags() {
            for (i, line) in f.help.lines().enumerate() {
                let l = if i == 0 { label(f) } else { String::new() };
                s += &format!("    {l:<width$}{line}\n");
            }
        }
        if !self.footer.is_empty() {
            s += &format!("\n{}\n", self.footer);
        }
        s
    }

    /// Parse `argv` and convert it with `convert`. Prints the help and
    /// exits 0 on `--help`; prints the error and exits 2 on a
    /// [`CliError`].
    pub fn parse_or_exit<T>(
        &self,
        argv: impl IntoIterator<Item = String>,
        convert: impl FnOnce(&Args) -> Result<T, CliError>,
    ) -> T {
        match self.parse(argv).and_then(|a| a.as_ref().map(convert).transpose()) {
            Ok(Some(t)) => t,
            Ok(None) => {
                print!("{}", self.help());
                std::process::exit(0)
            }
            Err(e) => {
                eprintln!("{}: {e}", self.bin);
                std::process::exit(2)
            }
        }
    }
}

impl Args<'_> {
    /// The positional words, in order.
    pub fn words(&self) -> &[String] {
        &self.words
    }

    /// Every occurrence of `flag`, in order (`None` for a switch).
    fn given(&self, flag: &'static str) -> impl Iterator<Item = Option<&str>> {
        debug_assert!(self.spec.flag(flag).is_some(), "{flag} is not in {}'s flags", self.spec.bin);
        self.flags.iter().filter(move |(n, _)| *n == flag).map(|(_, v)| v.as_deref())
    }

    /// Whether the switch `flag` was given.
    pub fn switch(&self, flag: &'static str) -> bool {
        self.given(flag).next().is_some()
    }

    /// The value of `flag` (the last one when it is repeated).
    pub fn value(&self, flag: &'static str) -> Option<&str> {
        self.given(flag).last().flatten()
    }

    /// The output directory `flag` names, checked by [`out_dir`].
    pub fn out_dir(&self, flag: &'static str) -> Result<Option<PathBuf>, CliError> {
        self.value(flag).map(|v| out_dir(flag, Path::new(v))).transpose()
    }

    /// The value of `flag` converted by `conv`; `expected` names what
    /// `conv` accepts, for the error.
    pub fn get_with<T>(
        &self,
        flag: &'static str,
        expected: &str,
        conv: impl Fn(&str) -> Option<T>,
    ) -> Result<Option<T>, CliError> {
        let bad = |v: &str| CliError::invalid(flag, v, expected);
        self.value(flag).map(|v| conv(v).ok_or_else(|| bad(v))).transpose()
    }

    /// The value of `flag` parsed as a `T`.
    pub fn get<T: FromStr>(
        &self,
        flag: &'static str,
        expected: &str,
    ) -> Result<Option<T>, CliError> {
        self.get_with(flag, expected, |v| v.parse().ok())
    }

    /// The value of `flag` as a comma-separated list of `T`.
    pub fn list<T: FromStr>(
        &self,
        flag: &'static str,
        expected: &str,
    ) -> Result<Option<Vec<T>>, CliError> {
        self.get_with(flag, expected, |v| v.split(',').map(|x| x.parse().ok()).collect())
    }
}

// The flag tables keep one flag per line; rustfmt would split every
// multi-line help text into a five-line call.

/// `lrc-check`, the bounded model checker.
#[rustfmt::skip]
pub static CHECK: Spec = Spec {
    bin: "lrc-check",
    about: "bounded model checker for the lazy-release-consistency protocols",
    usage: "lrc-check [OPTIONS]",
    words: "",
    flags: &[
        value("--scenario", "NAME", "scenario to check, or 'all' (default: all; see --list)"),
        value("--protocol", "NAME", "sc | eager | lazy | lazy-ext | all (default: all)"),
        value("--fault", "NAME", "none | skip-invalidate | skip-write-notice |\n\
                                  skip-lock-reclaim (default: none)"),
        value("--nack-nth", "N", "answer the N-th busy-directory encounter with a\nBUSY-NACK \
               instead of parking, and explore the retry\ninterleavings (eager protocols; no-op \
               under lazy)"),
        value("--crash-nth", "N", "crash-stop a node after exactly N handled events\n\
               (instantaneous detection) and explore the recovery\ninterleavings; \
               counterexamples are minimized and\nreplayable. Survivors must still drain cleanly."),
        value("--crash-node", "V", "which node --crash-nth kills (default: 0)"),
        switch("--races", "arm the happens-before race detector: a detected\ndata race is a \
                first-class counterexample with a\nminimized replayable witness, and the \
                DRF => SC\nvalue checks apply only to race-free paths (see\nthe deliberately \
                racy 'racy' scenario)"),
        value("--max-states", "N", "stop after visiting N states (default: 200000)"),
        value("--max-depth", "N", "abandon paths longer than N choices (default: 4000)"),
        switch("--exhaustive", "no state limit: explore until the space is exhausted"),
        value("--replay", "SCHEDULE", "replay one comma-separated schedule ('-' = natural\n\
               order) instead of exploring; requires a single\n--scenario and --protocol"),
        switch("--list", "list scenarios and exit"),
    ],
    footer: "Exit status: 0 if every checked combination passes, 1 on any counterexample,\n\
             2 on usage errors.",
};

/// `lrc-exp <experiment ...>`: run experiments.
#[rustfmt::skip]
pub static EXP: Spec = Spec {
    bin: "lrc-exp",
    about: "regenerate the paper's tables and figures",
    usage: "lrc-exp <EXPERIMENT ...|all> [OPTIONS]\n    \
            lrc-exp report [OPTIONS]    (lrc-exp report --help)\n    \
            lrc-exp migrate [OPTIONS]   (lrc-exp migrate --help)",
    words: "EXPERIMENT: table1 table2 table3 fig4 fig5 fig6 fig7 fig8 fig9 sweep quality\n    \
            traffic scaling ablate fences observe diverge avail, or all",
    flags: &[
        value("--scale", "NAME", "paper | large | medium | small | tiny (default: small)"),
        value("--procs", "N", "processor count (default: 64)"),
        value("--threads", "N", "worker threads (default: 0 = one per core)"),
        value("--seeds", "N", "run seeds 0..N (default: 1)"),
        value("--store", "DIR", "record every run in the artifact store at DIR"),
        value("--timestamp", "T", "manifest timestamp, unix seconds (default: now)"),
        value("--json", "DIR", "write each experiment's JSON artifact into DIR"),
        value("--trace-dir", "DIR", "write the observe experiment's trace artifacts into DIR:\n\
               observe.perfetto.json, observe.jsonl, observe.timeseries.csv,\n\
               observe.latency.json"),
        switch("--quiet", "no per-run progress on stderr"),
    ],
    footer: "",
};

/// `lrc-exp report`: the paper report, staleness check and index.
#[rustfmt::skip]
pub static EXP_REPORT: Spec = Spec {
    bin: "lrc-exp",
    about: "build the paper report from a store, check staleness, regenerate the index",
    usage: "lrc-exp report [OPTIONS]",
    words: "",
    flags: &[
        value("--store", "DIR", "the experiment store to read (default: results/store)"),
        value("--out", "FILE", "HTML report path; the JSON lands next to it\n\
                                (default: results/report.html)"),
        value("--baseline", "SERIES", "series the effects are measured against (default: eager)"),
        switch("--check", "verify every stored artifact against the current code;\n\
                           exit 1 if any is stale"),
        value("--index-md", "PATH", "regenerate the regeneration-index section of PATH"),
    ],
    footer: "",
};

/// `lrc-exp migrate`: pull legacy result JSONs into the store.
#[rustfmt::skip]
pub static EXP_MIGRATE: Spec = Spec {
    bin: "lrc-exp",
    about: "import legacy results/{small,medium,paper} JSON artifacts into the store",
    usage: "lrc-exp migrate [OPTIONS]",
    words: "",
    flags: &[
        value("--results", "DIR", "directory holding the legacy artifacts (default: results)"),
        value("--store", "DIR", "store to import into (default: RESULTS/store)"),
    ],
    footer: "",
};

/// `lrc-bench`, the kernel-throughput harness.
#[rustfmt::skip]
pub static BENCH: Spec = Spec {
    bin: "lrc-bench",
    about: "simulated cycles per second on the protocol x workload grid",
    usage: "lrc-bench run [OPTIONS]",
    words: "run: measure the grid and write the lrc-bench-v1 report",
    flags: &[
        value("--scale", "NAME", "paper | large | medium | small | tiny (default: small)"),
        value("--procs", "N", "processor count (default: 16)"),
        value("--reps", "N", "repetitions of the headline grid (default: 3)"),
        value("--threads", "LIST", "comma-separated thread counts to sweep (default: 1);\n\
                                    the lowest is the headline grid"),
        switch("--mesh256", "append one mp3d/lazy run on a 256-node mesh"),
        value("--out", "FILE", "write the report to FILE (default: stdout)"),
        switch("--quiet", "no per-combination progress on stderr"),
    ],
    footer: "",
};

/// `lrc-soak`, the chaos soak harness.
#[rustfmt::skip]
pub static SOAK: Spec = Spec {
    bin: "lrc-soak",
    about: "fault-injection soak sweeps with value verification",
    usage: "lrc-soak [OPTIONS]",
    words: "",
    flags: &[
        switch("--smoke", "the CI profile: tiny programs, one seed, fewer rates"),
        switch("--capacity-sweep", "NI queue depth x write-notice budget grid instead of faults"),
        switch("--races", "race-detection sweep over the application suite instead"),
        switch("--availability", "crash-stop grid: --rates are fractions of nodes killed"),
        value("--procs", "N", "processor count (default: 8; smoke: 4)"),
        value("--seeds", "N", "seeds 1..=N per cell (default: 3; smoke: 1)"),
        value("--phases", "N", "barrier phases per program (default: 6; smoke: 3)"),
        value("--rates", "LIST", "comma-separated rates in [0, 1]"),
        value("--watchdog", "CYCLES", "progress watchdog stall horizon (default: 10000000)"),
        value("--checkpoint-dir", "DIR", "journal each completed cell into DIR"),
        value("--resume", "DIR", "resume a journaled sweep from DIR"),
        value("--replay", "FILE", "restore a wedge dump and reproduce the stall"),
        switch("--quiet", "print only failures and the verdict"),
    ],
    footer: "Exit status: 0 when every cell verifies, 1 on any failure, 2 on usage errors.",
};

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn every_flag_appears_in_its_generated_help() {
        for spec in [&CHECK, &EXP, &EXP_REPORT, &EXP_MIGRATE, &BENCH, &SOAK] {
            let help = spec.help();
            for f in spec.flags.iter().chain([&HELP]) {
                let label = format!("\n    {} {}", f.name, f.metavar);
                assert!(help.contains(label.trim_end()), "{}: no {} in help", spec.bin, f.name);
                let copies = spec.flags.iter().filter(|g| g.name == f.name).count();
                assert!(copies <= 1, "{}: {} declared twice", spec.bin, f.name);
            }
        }
    }

    #[test]
    fn help_short_circuits_and_unknown_arguments_are_named() {
        assert!(CHECK.parse(argv("--races --help --bogus")).unwrap().is_none());
        assert!(SOAK.parse(argv("-h")).unwrap().is_none());
        let unknown = |s: &str| CliError::Unknown(s.to_string());
        assert_eq!(EXP.parse(argv("table1 --verbose")).unwrap_err(), unknown("--verbose"));
        assert_eq!(CHECK.parse(argv("counter")).unwrap_err(), unknown("counter"));
        let e = SOAK.parse(argv("--procs")).unwrap_err();
        assert_eq!(e.to_string(), "--procs: missing (expected N)");
    }

    #[test]
    fn accessors_convert_or_name_the_flag() {
        let a = BENCH.parse(argv("run --procs 8 --threads 1,2 --procs 16 --quiet")).unwrap();
        let a = a.expect("no --help");
        assert_eq!(a.words(), ["run"]);
        assert!(a.switch("--quiet") && !a.switch("--mesh256"));
        assert_eq!(a.get::<usize>("--procs", "N"), Ok(Some(16)));
        assert_eq!(a.list::<usize>("--threads", "LIST"), Ok(Some(vec![1, 2])));
        assert_eq!(a.get::<usize>("--reps", "N"), Ok(None));
        let a = EXP.parse(argv("fig4 --procs abc")).unwrap().expect("no --help");
        let e = a.get::<usize>("--procs", "a processor count").unwrap_err();
        assert_eq!(e.to_string(), "--procs: invalid value 'abc' (expected a processor count)");
    }

    #[test]
    fn out_dirs_are_created_or_rejected_naming_the_flag() {
        let root = std::env::temp_dir().join(format!("lrc-cli-out-{}", std::process::id()));
        let nested = root.join("a/b/c");
        assert_eq!(out_dir("--json", &nested), Ok(nested.clone()));
        assert!(nested.is_dir());
        assert_eq!(out_dir("--store", &nested), Ok(nested.clone()), "an existing dir is fine");
        let file = root.join("f");
        std::fs::write(&file, b"x").unwrap();
        for (flag, path, why) in [
            ("--trace-dir", file.clone(), "not a directory"),
            ("--out", file.join("sub"), "cannot create"),
            ("--json", PathBuf::new(), "empty path"),
        ] {
            let err = out_dir(flag, &path).unwrap_err();
            assert!(matches!(&err, CliError::Invalid { flag: f, .. } if *f == flag), "{err:?}");
            assert!(err.to_string().contains(why), "{err}");
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}
