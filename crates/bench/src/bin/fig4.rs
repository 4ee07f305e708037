//! Regenerates Fig 4: per-task energy efficiency of every configuration,
//! normalized to the GPU.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin fig4
//! cargo run -p mann-bench --release --bin fig4 -- --tasks 6 --train 300 --test 40
//! ```

use mann_bench::HarnessArgs;
use mann_core::experiments::fig4;

fn main() {
    let args = HarnessArgs::default().parse_cli("fig4");
    eprintln!(
        "[fig4] training {} tasks ({} train / {} test, seed {}) ...",
        args.tasks, args.train, args.test, args.seed
    );
    let suite = args.build_suite();
    eprintln!(
        "[fig4] mean test accuracy {:.1}%",
        suite.mean_accuracy() * 100.0
    );

    let fig = fig4::run(&suite);
    println!(
        "Fig 4 — per-task energy efficiency vs GPU ({} tasks)",
        suite.tasks.len()
    );
    println!("{}", fig.render());
    println!("Geometric means across tasks:");
    for (i, name) in fig4::FIG4_CONFIGS.iter().enumerate() {
        println!("  {name:<18} {:.2}x", fig.geomean(i));
    }
    println!(
        "\nPaper shape: the FPGA configurations dominate the GPU on every\n\
         task (tens to hundreds of times more efficient); ITH widens the\n\
         margin; the CPU sits near the GPU (≈1.7x)."
    );
    if let Ok(json) = serde_json::to_string_pretty(&fig) {
        let _ = std::fs::create_dir_all("target/experiments");
        let path = "target/experiments/fig4.json";
        if std::fs::write(path, json).is_ok() {
            eprintln!("[fig4] results written to {path}");
        }
    }
}
