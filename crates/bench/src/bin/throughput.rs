//! Extension experiment: streaming (double-buffered) throughput.
//!
//! The paper's measured setup is strictly sequential — transfer, compute,
//! read back — which is why the host interface caps the speedup above
//! 50 MHz. This harness quantifies the obvious architectural fix: while
//! inference `i` computes, stream inference `i+1`'s input. In steady state
//! each inference costs `max(compute, interface)`, and the frequency
//! ladder's usefulness returns.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin throughput -- --tasks 4 --train 300 --test 40
//! ```

use mann_bench::HarnessArgs;
use mann_core::report::{fnum, ratio, TextTable};
use mann_hw::{double_buffered_time_s, AccelConfig, Accelerator, ClockDomain, InferenceRun};

fn main() {
    let args = HarnessArgs {
        tasks: 4,
        train: 300,
        test: 40,
        ..HarnessArgs::default()
    }
    .parse_cli("throughput");
    eprintln!("[throughput] training {} tasks ...", args.tasks);
    let suite = args.build_suite();

    let mut t = TextTable::new(vec![
        "clock".into(),
        "sequential (s)".into(),
        "double-buffered (s)".into(),
        "pipelining gain".into(),
        "seq. 25MHz ratio".into(),
        "pipe 25MHz ratio".into(),
    ]);
    let mut seq25 = None;
    let mut pipe25 = None;
    for mhz in [25.0f64, 50.0, 75.0, 100.0] {
        let mut sequential = 0.0f64;
        let mut pipelined = 0.0f64;
        for task in &suite.tasks {
            let accel = Accelerator::new(
                task.model.clone(),
                AccelConfig {
                    clock: ClockDomain::mhz(mhz),
                    ..AccelConfig::default()
                },
            );
            let runs: Vec<InferenceRun> = task.test_set.iter().map(|s| accel.run(s)).collect();
            sequential += runs.iter().map(|r| r.total_s).sum::<f64>();
            pipelined += double_buffered_time_s(&runs);
        }
        sequential *= args.reps as f64;
        pipelined *= args.reps as f64;
        seq25.get_or_insert(sequential);
        pipe25.get_or_insert(pipelined);
        t.row(vec![
            format!("{mhz:.0} MHz"),
            fnum(sequential, 2),
            fnum(pipelined, 2),
            ratio(sequential / pipelined),
            ratio(seq25.expect("set") / sequential),
            ratio(pipe25.expect("set") / pipelined),
        ]);
    }
    println!(
        "Streaming throughput — {} tasks x {} questions x {} reps\n",
        suite.tasks.len(),
        args.test,
        args.reps
    );
    println!("{}", t.render());
    println!(
        "reading: sequentially, 4x clock buys well under 2x (the paper's\n\
         sub-linear scaling). Double buffering hides compute behind the\n\
         transfer instead and is worth up to ~1.5x at 25 MHz — but it also\n\
         exposes the hard floor: once overlapped, the per-transfer driver\n\
         latency alone bounds throughput and the fabric clock stops\n\
         mattering entirely. Raising the clock buys nothing that the\n\
         interface hasn't already taken; reducing per-inference transfers\n\
         (batching stories) is the lever that remains."
    );
}
