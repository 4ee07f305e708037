//! Trains one task's memory network, calibrates inference thresholding, and
//! saves the deployable model bundle (weights + vocabulary + thresholds) —
//! the "pre-trained model" artifact the accelerator consumes.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin train -- --task 1 --train 1000 --test 100 --out model.json
//! ```

use mann_babi::TaskId;
use mann_bench::{parsed, usage_bail, HarnessArgs, HARNESS_FLAGS};
use mann_core::{ModelBundle, SuiteConfig, TaskSuite};

/// The task to train and where to write its bundle.
#[derive(Debug, PartialEq)]
struct TrainArgs {
    task: TaskId,
    out: String,
}

/// Reads `--task` and `--out` from the arguments the shared harness left
/// over ([`HarnessArgs::parse_known`]); any other flag is an error.
fn parse_train_args<I: IntoIterator<Item = String>>(rest: I) -> Result<TrainArgs, String> {
    let mut out = TrainArgs {
        task: TaskId::SingleSupportingFact,
        out: "model.json".to_owned(),
    };
    let mut it = rest.into_iter();
    while let Some(key) = it.next() {
        let flag = key.as_str();
        let mut value = || it.next().ok_or_else(|| format!("usage: {flag} <value>"));
        match flag {
            "--task" => {
                let n: usize = parsed(flag, value()?, "a task number 1-20")?;
                out.task = TaskId::from_number(n)
                    .ok_or_else(|| format!("usage: --task <1-20>, got {n}"))?;
            }
            "--out" => out.out = value()?,
            _ => {
                return Err(format!(
                    "unknown flag {flag:?} (flags: --task <1-20> --out <path> {HARNESS_FLAGS})"
                ))
            }
        }
    }
    Ok(out)
}

fn main() {
    let (args, rest) = HarnessArgs::default()
        .parse_known(std::env::args().skip(1))
        .unwrap_or_else(|e| usage_bail("train", e));
    let TrainArgs { task, out } = parse_train_args(rest).unwrap_or_else(|e| usage_bail("train", e));
    let cfg = SuiteConfig {
        tasks: vec![task],
        ..args.suite_config()
    };
    eprintln!(
        "[train] {task}: {} train / {} test samples ...",
        cfg.train_samples, cfg.test_samples
    );
    let suite = TaskSuite::build(&cfg);
    let trained = &suite.tasks[0];
    eprintln!(
        "[train] test accuracy {:.1}%, {} of {} classes thresholdable",
        trained.test_accuracy * 100.0,
        trained.ith.active_classes(),
        trained.ith.classes()
    );
    let bundle = ModelBundle::from_trained_task(trained);
    bundle.save(&out).expect("write bundle");
    println!("model bundle written to {out}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<TrainArgs, String> {
        let (_, rest) = HarnessArgs::default().parse_known(args.iter().map(|a| (*a).to_owned()))?;
        parse_train_args(rest)
    }

    #[test]
    fn task_and_out_are_read_and_everything_else_is_rejected() {
        let ok = parse(&["--task", "3", "--train", "20", "--out", "m.json"]).unwrap();
        assert_eq!(ok.task, TaskId::from_number(3).unwrap());
        assert_eq!(ok.out, "m.json");
        assert_eq!(parse(&[]).unwrap().out, "model.json");
        let err = parse(&["--taks", "3"]).unwrap_err();
        assert!(err.starts_with("unknown flag \"--taks\""), "{err}");
        assert_eq!(
            parse(&["--task", "abc"]),
            Err("invalid --task \"abc\": expected a task number 1-20".to_owned())
        );
        assert_eq!(
            parse(&["--task", "21"]),
            Err("usage: --task <1-20>, got 21".to_owned())
        );
        assert_eq!(parse(&["--out"]), Err("usage: --out <value>".to_owned()));
    }
}
