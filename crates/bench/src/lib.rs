//! Benchmark harnesses for the reproduction.
//!
//! The binaries (`src/bin/`) regenerate the paper's tables and figures:
//! `table1`, `fig2b`, `fig3`, `fig4`, `ablation`. Each accepts `--tasks N`,
//! `--train N`, `--test N` and `--seed N` to trade fidelity for runtime
//! (defaults reproduce the full 20-task suite).

use mann_babi::TaskId;
use mann_core::SuiteConfig;

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
    /// Paper-scale defaults: all 20 tasks, 1000/100 splits, 100 reps.
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
    /// Parses `--key value` pairs from an iterator of arguments
    /// (unknown keys are ignored so binaries can add their own).
    ///
    /// # Panics
    ///
    /// Panics with a usage message when a value is missing or unparsable,
    /// or when `--tasks` is outside 1–20.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            let mut grab = |name: &str| -> u64 {
                it.next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| panic!("usage: {name} <number>"))
            };
            match key.as_str() {
                "--tasks" => out.tasks = grab("--tasks") as usize,
                "--train" => out.train = grab("--train") as usize,
                "--test" => out.test = grab("--test") as usize,
                "--seed" => out.seed = grab("--seed"),
                "--reps" => out.reps = grab("--reps"),
                "--story-sentences" => {
                    out.story_sentences = grab("--story-sentences") as usize;
                }
                "--joint" => out.joint = true,
                _ => {}
            }
        }
        assert!(
            (1..=20).contains(&out.tasks),
            "usage: --tasks <1-20>, got {}",
            out.tasks
        );
        out
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

    #[test]
    fn parse_reads_known_flags_and_ignores_others() {
        let a = HarnessArgs::parse(
            [
                "--tasks",
                "3",
                "--zzz",
                "--train",
                "50",
                "--reps",
                "7",
                "--story-sentences",
                "500",
                "--joint",
            ]
            .iter()
            .map(|s| (*s).to_owned()),
        );
        assert_eq!(a.tasks, 3);
        assert_eq!(a.train, 50);
        assert_eq!(a.reps, 7);
        assert_eq!(a.story_sentences, 500);
        assert!(a.joint);
        assert_eq!(a.test, HarnessArgs::default().test);
    }

    #[test]
    #[should_panic(expected = "usage: --tasks <1-20>, got 0")]
    fn zero_tasks_are_rejected() {
        HarnessArgs::parse(["--tasks", "0"].iter().map(|s| (*s).to_owned()));
    }

    #[test]
    #[should_panic(expected = "usage: --tasks <1-20>, got 21")]
    fn more_than_twenty_tasks_are_rejected() {
        HarnessArgs::parse(["--tasks", "21"].iter().map(|s| (*s).to_owned()));
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
