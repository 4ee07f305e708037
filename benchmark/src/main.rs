//! The serving benchmark of the MANN accelerator reproduction.
//!
//! ```sh
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//! ```
//!
//! Serves one of three seeded open-loop workloads through the public
//! `mann-serve` API and prints, as its last line, one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics,
//! or with `--trace` the per-layer ones (and a Chrome trace under
//! `target/benchmark/`). Each workload runs in a child process with a
//! pinned environment; without `--workload` every workload runs, one after
//! the other. A run whose outputs fail the correctness gate exits nonzero
//! and prints no metrics. README.md describes the
//! workloads, the two clocks and the metrics.

mod check;
mod layers;
mod metrics;
mod run;
mod speed;
mod stack;
mod stats;
mod workloads;

use std::process::{Command, ExitCode};

use serde::json::Value;
use serde::Serialize;

use crate::workloads::NAMES;

const USAGE: &str = "usage: benchmark [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]";

#[derive(Debug, PartialEq)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 25.0,
        trace: false,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                if !NAMES.contains(&name.as_str()) {
                    return Err(format!(
                        "unknown workload {name:?}: expected one of {}",
                        NAMES.join(", ")
                    ));
                }
                args.workload = Some(name.clone());
            }
            "--seed" => {
                let v = value()?;
                args.seed = v.parse().map_err(|_| format!("invalid --seed {v:?}"))?;
            }
            "--seconds" => {
                let v = value()?;
                args.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or(format!(
                        "invalid --seconds {v:?}: expected a positive number"
                    ))?;
            }
            // `--trace` alone, or with the value 0 or 1.
            "--trace" => {
                args.trace = it.peek().map(|s| s.as_str()) != Some("0");
                if matches!(it.peek().map(|s| s.as_str()), Some("0" | "1")) {
                    it.next();
                }
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

/// Set in the environment of the processes [`run_children`] starts.
const CHILD: &str = "BENCHMARK_CHILD";

/// Starts `cmd` in the environment every measurement runs in: no `MANN_*`
/// knob of the caller, one worker thread, and glibc's allocator told to
/// keep freed memory. By default glibc returns a serve's large buffers to
/// the kernel and faults them back in on the next serve; on a 2-vCPU KVM
/// guest that page-fault path took a quarter of `story_heavy`'s host time
/// and carried most of its run-to-run noise.
fn hermetic(cmd: &mut Command) -> &mut Command {
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("MANN_") {
            cmd.env_remove(key);
        }
    }
    cmd.env("MANN_THREADS", "1")
        .env("MALLOC_MMAP_THRESHOLD_", "33554432")
        .env("MALLOC_TRIM_THRESHOLD_", "1073741824")
        .env(CHILD, "1")
}

/// Runs one workload in this process and prints its lines.
fn run_one(name: &str, args: &Args) -> Result<(), String> {
    let w = workloads::workload(name, args.seed).expect("name checked at parse");
    let m = if args.trace {
        layers::traced(&w, args.seconds)?
    } else {
        run::timed(&w, args.seconds)?
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let threads = mann_core::parallel::worker_threads(usize::MAX);
    let mut detail = vec![
        ("workload".into(), name.to_value()),
        ("seed".into(), args.seed.to_value()),
        ("trace".into(), args.trace.to_value()),
        ("nproc".into(), nproc.to_value()),
        ("threads".into(), threads.to_value()),
        ("reps".into(), m.reps.to_value()),
        ("requests".into(), m.requests.to_value()),
        ("completed".into(), m.completed.to_value()),
        ("failed".into(), (m.failed / m.reps.max(1)).to_value()),
    ];
    detail.extend(m.measured.iter().map(|(k, v)| ((*k).into(), v.to_value())));
    println!("{}", Value::Object(detail).print());
    println!("{}", metrics::result_line(m.attempted, m.failed, m.metrics));
    Ok(())
}

/// Runs the requested workload, or every workload, each in a hermetic
/// child process of its own, so that `peak_rss_mb` is per workload.
fn run_children(args: &Args) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let names = match &args.workload {
        Some(name) => vec![name.as_str()],
        None => NAMES.to_vec(),
    };
    for name in names {
        let status = hermetic(&mut Command::new(&exe))
            .args(["--workload", name, "--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .status()
            .map_err(|e| format!("cannot start the {name} run: {e}"))?;
        if !status.success() {
            return Err(format!("the {name} run failed ({status})"));
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match (&args.workload, std::env::var_os(CHILD)) {
        (Some(name), Some(_)) => run_one(name, &args),
        _ => run_children(&args),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(&args.iter().map(|s| (*s).to_owned()).collect::<Vec<_>>())
    }

    #[test]
    fn valued_and_bare_flags_parse() {
        let a = parse(&[
            "--workload",
            "story_heavy",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "0",
        ]);
        assert_eq!(
            a,
            Ok(Args {
                workload: Some("story_heavy".into()),
                seed: 7,
                seconds: 3.0,
                trace: false,
            })
        );
        assert!(parse(&["--trace"]).expect("bare flag").trace);
        assert!(parse(&["--trace", "1"]).expect("valued flag").trace);
        assert!(
            parse(&["--trace", "--seed", "2"])
                .expect("flag then more")
                .trace
        );
    }

    #[test]
    fn bad_arguments_are_errors() {
        assert!(parse(&["--workload", "nope"]).is_err());
        assert!(parse(&["--seconds", "0"]).is_err());
        assert!(parse(&["--seed"]).is_err());
        assert!(parse(&["--bogus"]).is_err());
    }
}
