//! Benchmark harnesses for the reproduction.
//!
//! The binaries (`src/bin/`) regenerate the paper's tables and figures:
//! `table1`, `fig2b`, `fig3`, `fig4`, `ablation`. Each accepts `--tasks N`,
//! `--train N`, `--test N` and `--seed N` to trade fidelity for runtime
//! (defaults reproduce the full 20-task suite). A flag a binary does not
//! know, a missing or malformed value, and `--tasks` outside 1–20 are
//! usage errors: the binary prints the message and exits with status 2.

#![forbid(unsafe_code)]

use mann_babi::TaskId;
use mann_core::SuiteConfig;

/// The flags [`HarnessArgs`] reads, as a usage line.
pub const HARNESS_FLAGS: &str =
    "--tasks <1-20> --train <n> --test <n> --seed <n> --reps <n> --story-sentences <n> --joint";

/// Prints a command-line usage error as `[bin] msg` and exits with
/// status 2.
pub fn usage_bail(bin: &str, msg: impl std::fmt::Display) -> ! {
    eprintln!("[{bin}] {msg}");
    std::process::exit(2);
}

/// `value` parsed as `T`, or a usage error naming `flag` and what it
/// takes.
///
/// # Errors
///
/// Returns the usage message when `value` does not parse.
pub fn parsed<T: std::str::FromStr>(flag: &str, value: String, takes: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("invalid {flag} {value:?}: expected {takes}"))
}

/// Parsed command-line options shared by the reproduction binaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarnessArgs {
    /// Number of tasks (1–20, taken from the front of the paper ordering).
    pub tasks: usize,
    /// Training samples per task.
    pub train: usize,
    /// Test samples per task.
    pub test: usize,
    /// Master seed.
    pub seed: u64,
    /// Timing repetitions (Table I uses 100).
    pub reps: u64,
    /// Train one joint model over all tasks (the paper's setting) instead
    /// of per-task models.
    pub joint: bool,
    /// Exact sentence count per generated story (0 = task defaults).
    /// Large values put the serve path in the regime the MEM candidate
    /// index targets (DESIGN.md §15).
    pub story_sentences: usize,
}

impl Default for HarnessArgs {
    /// Paper-scale defaults: all 20 tasks, 1000/100 splits, 100 reps. A
    /// binary that runs a reduced suite unless told otherwise parses over
    /// its own defaults instead ([`HarnessArgs::parse`]).
    fn default() -> Self {
        Self {
            tasks: 20,
            train: 1000,
            test: 100,
            seed: 0,
            reps: 100,
            joint: false,
            story_sentences: 0,
        }
    }
}

impl HarnessArgs {
    /// Parses `--key value` pairs from an iterator of arguments over the
    /// defaults `self`: a flag given replaces its default, whatever value
    /// it holds. A flag outside [`HARNESS_FLAGS`] is an error, never a
    /// silent no-op.
    ///
    /// # Errors
    ///
    /// Returns a usage message for an unknown flag, a missing or malformed
    /// value, or `--tasks` outside 1–20.
    pub fn parse<I: IntoIterator<Item = String>>(self, args: I) -> Result<Self, String> {
        let (out, rest) = self.parse_known(args)?;
        match rest.first() {
            None => Ok(out),
            Some(flag) => Err(format!("unknown flag {flag:?} (flags: {HARNESS_FLAGS})")),
        }
    }

    /// [`HarnessArgs::parse`], also returning, in order, every argument
    /// it does not know, for a binary that reads its own flags from them
    /// (and rejects what it does not know either).
    ///
    /// # Errors
    ///
    /// Returns a usage message for a missing or malformed value of a
    /// harness flag, or `--tasks` outside 1–20.
    pub fn parse_known<I: IntoIterator<Item = String>>(
        self,
        args: I,
    ) -> Result<(Self, Vec<String>), String> {
        let mut out = self;
        let mut rest = Vec::new();
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            let flag = key.as_str();
            let mut value = || it.next().ok_or_else(|| format!("usage: {flag} <value>"));
            match flag {
                "--tasks" => out.tasks = parsed(flag, value()?, "1-20")?,
                "--train" => out.train = parsed(flag, value()?, "a count")?,
                "--test" => out.test = parsed(flag, value()?, "a count")?,
                "--seed" => out.seed = parsed(flag, value()?, "a seed")?,
                "--reps" => out.reps = parsed(flag, value()?, "a count")?,
                "--story-sentences" => {
                    out.story_sentences = parsed(flag, value()?, "a sentence count")?;
                }
                "--joint" => out.joint = true,
                _ => rest.push(key),
            }
        }
        if !(1..=20).contains(&out.tasks) {
            return Err(format!("usage: --tasks <1-20>, got {}", out.tasks));
        }
        Ok((out, rest))
    }

    /// The process arguments through [`HarnessArgs::parse`] over the
    /// defaults `self`; a usage error exits with status 2
    /// ([`usage_bail`]), prefixed with `bin`.
    pub fn parse_cli(self, bin: &str) -> Self {
        self.parse(std::env::args().skip(1))
            .unwrap_or_else(|e| usage_bail(bin, e))
    }

    /// Converts the arguments into a suite configuration (quick model
    /// hyper-parameters, the requested data sizes).
    pub fn suite_config(&self) -> SuiteConfig {
        let mut cfg = SuiteConfig::quick();
        cfg.tasks = TaskId::all()[..self.tasks].to_vec();
        cfg.train_samples = self.train;
        cfg.test_samples = self.test;
        cfg.seed = self.seed;
        cfg.story_sentences = self.story_sentences;
        cfg
    }

    /// Builds the suite per the `--joint` flag, going through the shared
    /// disk cache: the first experiment binary to run a configuration
    /// trains it, the rest (`table1`, `fig3`, `fig4`, `ablation`, …) load
    /// the trained suite from `target/suite-cache/` in milliseconds. Set
    /// `MANN_SUITE_CACHE=<dir>` to relocate the cache or
    /// `MANN_SUITE_CACHE=off` to always retrain.
    pub fn build_suite(&self) -> mann_core::TaskSuite {
        let cfg = self.suite_config();
        let (variant, build): (_, fn(&SuiteConfig) -> mann_core::TaskSuite) = if self.joint {
            ("joint", mann_core::TaskSuite::build_joint)
        } else {
            ("per-task", mann_core::TaskSuite::build)
        };
        match mann_core::SuiteCache::from_env() {
            Some(cache) => {
                let hit = cache.load(&cfg, variant);
                if hit.is_some() {
                    eprintln!("[suite] loaded trained suite from cache");
                }
                hit.unwrap_or_else(|| {
                    let suite = build(&cfg);
                    if cache.store(&suite, variant).is_ok() {
                        eprintln!("[suite] cached trained suite for reuse");
                    }
                    suite
                })
            }
            None => build(&cfg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(a: &[&str]) -> Vec<String> {
        a.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parse_reads_known_flags_and_ignores_others() {
        let (a, rest) = HarnessArgs::default()
            .parse_known(args(&[
                "--tasks",
                "3",
                "--zzz",
                "--train",
                "50",
                "--reps",
                "7",
                "--story-sentences",
                "500",
                "--pool",
                "4",
                "--joint",
            ]))
            .unwrap();
        assert_eq!(rest, ["--zzz", "--pool", "4"]);
        assert_eq!(a.tasks, 3);
        assert_eq!(a.train, 50);
        assert_eq!(a.reps, 7);
        assert_eq!(a.story_sentences, 500);
        assert!(a.joint);
        assert_eq!(a.test, HarnessArgs::default().test);
    }

    #[test]
    fn parse_rejects_unknown_flags() {
        let parse = |a: &[&str]| HarnessArgs::default().parse(args(a));
        let err = parse(&["--taks", "1", "--train", "20"]).unwrap_err();
        assert!(err.starts_with("unknown flag \"--taks\""), "{err}");
        let ok = parse(&["--tasks", "1", "--train", "20", "--joint"]).unwrap();
        assert_eq!((ok.tasks, ok.train, ok.joint), (1, 20, true));
    }

    #[test]
    fn explicit_flags_override_reduced_defaults() {
        let reduced = HarnessArgs {
            tasks: 4,
            train: 300,
            test: 40,
            ..HarnessArgs::default()
        };
        let explicit = reduced
            .clone()
            .parse(args(&["--tasks", "20", "--train", "7", "--test", "2"]))
            .unwrap();
        assert_eq!((explicit.tasks, explicit.train, explicit.test), (20, 7, 2));
        let partial = reduced.clone().parse(args(&["--train", "7"])).unwrap();
        assert_eq!((partial.tasks, partial.train, partial.test), (4, 7, 40));
        assert_eq!(reduced.clone().parse(Vec::new()), Ok(reduced));
    }

    #[test]
    fn zero_tasks_are_rejected() {
        assert_eq!(
            HarnessArgs::default().parse(args(&["--tasks", "0"])),
            Err("usage: --tasks <1-20>, got 0".to_owned())
        );
    }

    #[test]
    fn more_than_twenty_tasks_are_rejected() {
        assert_eq!(
            HarnessArgs::default().parse(args(&["--tasks", "21"])),
            Err("usage: --tasks <1-20>, got 21".to_owned())
        );
    }

    #[test]
    fn malformed_and_missing_values_are_usage_errors() {
        assert_eq!(
            HarnessArgs::default().parse(args(&["--tasks", "abc"])),
            Err("invalid --tasks \"abc\": expected 1-20".to_owned())
        );
        assert_eq!(
            HarnessArgs::default().parse_known(args(&["--seed", "-1", "--pool", "2"])),
            Err("invalid --seed \"-1\": expected a seed".to_owned())
        );
        assert_eq!(
            HarnessArgs::default().parse(args(&["--train"])),
            Err("usage: --train <value>".to_owned())
        );
    }

    #[test]
    fn suite_config_reflects_args() {
        let a = HarnessArgs {
            tasks: 2,
            train: 10,
            test: 5,
            seed: 9,
            reps: 1,
            joint: false,
            story_sentences: 321,
        };
        let cfg = a.suite_config();
        assert_eq!(cfg.tasks.len(), 2);
        assert_eq!(cfg.train_samples, 10);
        assert_eq!(cfg.seed, 9);
        assert_eq!(cfg.story_sentences, 321);
    }
}
