//! Regenerates Table I: time, power, speedup, and FLOPS/kJ for CPU, GPU and
//! the FPGA accelerator at 25/50/75/100 MHz with and without inference
//! thresholding.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin table1                # full scale
//! cargo run -p mann-bench --release --bin table1 -- --tasks 4 --train 300 --test 40
//! ```

use mann_bench::HarnessArgs;
use mann_core::experiments::table1;

fn main() {
    let args = HarnessArgs::default().parse_cli("table1");
    eprintln!(
        "[table1] training {} tasks ({} train / {} test, seed {}) ...",
        args.tasks, args.train, args.test, args.seed
    );
    let start = std::time::Instant::now();
    let suite = args.build_suite();
    eprintln!(
        "[table1] suite trained in {:.1}s, mean test accuracy {:.1}%",
        start.elapsed().as_secs_f64(),
        suite.mean_accuracy() * 100.0
    );

    let table = table1::run(
        &suite,
        &table1::Table1Config {
            repetitions: args.reps,
            ..table1::Table1Config::default()
        },
    );
    println!(
        "Table I — {} tasks x {} test questions x {} repetitions",
        suite.tasks.len(),
        args.test,
        args.reps
    );
    println!("{}", table.render());

    println!(
        "\nPaper (full-scale reference): CPU 242.77s/23.28W (0.94x, 1.70x); \
         GPU 226.90s/45.36W (1.00x); FPGA 25 MHz 43.54s/14.71W (5.21x, 83.74x); \
         FPGA 100 MHz 30.28s/20.10W (7.49x, 126.72x); \
         FPGA+ITH 100 MHz 28.53s/20.53W (7.95x, 139.75x)."
    );
    if let Ok(json) = serde_json::to_string_pretty(&table) {
        let _ = std::fs::create_dir_all("target/experiments");
        let path = "target/experiments/table1.json";
        if std::fs::write(path, json).is_ok() {
            eprintln!("[table1] results written to {path}");
        }
    }
}
