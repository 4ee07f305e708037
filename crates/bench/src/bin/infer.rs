//! Loads a trained model bundle and answers freshly generated questions on
//! the simulated accelerator — the deployment half of the train/infer
//! workflow.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin train -- --task 1 --out model.json
//! cargo run -p mann-bench --release --bin infer -- --model model.json --questions 5 --mhz 100
//! ```

use mann_babi::DatasetBuilder;
use mann_bench::{parsed, usage_bail};
use mann_core::ModelBundle;
use mann_hw::{AccelConfig, Accelerator, ClockDomain};

/// The flags this binary reads, as a usage line.
const INFER_FLAGS: &str = "--model <path> --questions <n> --mhz <f> --no-ith";

/// The bundle to load, how many fresh questions to answer, the fabric
/// clock and whether inference thresholding is on.
#[derive(Debug, PartialEq)]
struct InferArgs {
    path: String,
    questions: usize,
    mhz: f64,
    ith: bool,
}

/// Parses the binary's flags; an unknown flag, a missing or malformed
/// value, or a clock that is not a positive finite MHz is an error.
fn parse_infer_args<I: IntoIterator<Item = String>>(args: I) -> Result<InferArgs, String> {
    let mut out = InferArgs {
        path: "model.json".to_owned(),
        questions: 5,
        mhz: 100.0,
        ith: true,
    };
    let mut it = args.into_iter();
    while let Some(key) = it.next() {
        let flag = key.as_str();
        let mut value = || it.next().ok_or_else(|| format!("usage: {flag} <value>"));
        match flag {
            "--model" => out.path = value()?,
            "--questions" => out.questions = parsed(flag, value()?, "a count")?,
            "--mhz" => {
                let (v, takes) = (value()?, "a positive frequency in MHz");
                out.mhz = parsed(flag, v.clone(), takes)?;
                if !(out.mhz.is_finite() && out.mhz > 0.0) {
                    return Err(format!("invalid --mhz {v:?}: expected {takes}"));
                }
            }
            "--no-ith" => out.ith = false,
            _ => return Err(format!("unknown flag {flag:?} (flags: {INFER_FLAGS})")),
        }
    }
    Ok(out)
}

fn main() {
    let InferArgs {
        path,
        questions,
        mhz,
        ith,
    } = parse_infer_args(std::env::args().skip(1)).unwrap_or_else(|e| usage_bail("infer", e));
    let bundle = ModelBundle::load(&path).expect("load bundle");
    let task = bundle.model.task;
    eprintln!(
        "[infer] loaded {task} model ({} classes, recorded accuracy {:.1}%)",
        bundle.ith.classes(),
        bundle.test_accuracy * 100.0
    );

    let config = if ith {
        AccelConfig::with_thresholding(ClockDomain::mhz(mhz), bundle.ith.clone())
    } else {
        AccelConfig {
            clock: ClockDomain::mhz(mhz),
            ..AccelConfig::default()
        }
    };
    let accel = Accelerator::new(bundle.model.clone(), config);

    // Fresh questions from the same generator (an unseen split).
    let data = DatasetBuilder::new()
        .train_samples(0)
        .test_samples(questions)
        .seed(0xFEED)
        .build_task(task);
    let vocab = bundle.model.encoder.vocab();
    let mut correct = 0usize;
    for (text, sample) in data.test.iter().zip(
        data.test
            .iter()
            .filter_map(|s| bundle.model.encoder.encode(s)),
    ) {
        let run = accel.run(&sample);
        let predicted = vocab.token(run.answer).unwrap_or("?");
        let ok = run.answer == sample.answer;
        if ok {
            correct += 1;
        }
        let verdict = if ok {
            "correct".to_owned()
        } else {
            format!("expected {}", text.answer)
        };
        println!(
            "Q: {} ? -> {predicted} ({verdict}; {} cycles, {:.1} us{})",
            text.question.join(" "),
            run.cycles.get(),
            run.total_s * 1e6,
            if run.speculated { ", speculated" } else { "" },
        );
    }
    println!("accuracy on fresh questions: {correct}/{questions}");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<InferArgs, String> {
        parse_infer_args(args.iter().map(|a| (*a).to_owned()))
    }

    #[test]
    fn unknown_flags_and_bad_values_are_usage_errors() {
        let ok = parse(&[
            "--model",
            "m.json",
            "--questions",
            "3",
            "--mhz",
            "25",
            "--no-ith",
        ]);
        assert_eq!(
            ok,
            Ok(InferArgs {
                path: "m.json".to_owned(),
                questions: 3,
                mhz: 25.0,
                ith: false,
            })
        );
        let err = parse(&["--mhx", "25"]).unwrap_err();
        assert!(err.starts_with("unknown flag \"--mhx\""), "{err}");
        for bad in ["fast", "0", "-5", "inf", "NaN"] {
            assert_eq!(
                parse(&["--mhz", bad]),
                Err(format!(
                    "invalid --mhz {bad:?}: expected a positive frequency in MHz"
                ))
            );
        }
        assert_eq!(
            parse(&["--questions", "many"]),
            Err("invalid --questions \"many\": expected a count".to_owned())
        );
        assert_eq!(
            parse(&["--model"]),
            Err("usage: --model <value>".to_owned())
        );
    }
}
