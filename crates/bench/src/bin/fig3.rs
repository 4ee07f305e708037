//! Regenerates Fig 3: normalized accuracy and number of MIPS comparisons
//! against the thresholding constant ρ, with and without index ordering.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin fig3
//! cargo run -p mann-bench --release --bin fig3 -- --tasks 5 --train 300 --test 40
//! ```

use mann_bench::HarnessArgs;
use mann_core::experiments::fig3;

fn main() {
    let args = HarnessArgs::default().parse_cli("fig3");
    eprintln!(
        "[fig3] training {} tasks ({} train / {} test, seed {}) ...",
        args.tasks, args.train, args.test, args.seed
    );
    let suite = args.build_suite();
    eprintln!(
        "[fig3] mean test accuracy {:.1}%",
        suite.mean_accuracy() * 100.0
    );

    let fig = fig3::run(&suite, &fig3::Fig3Config::default());
    println!(
        "Fig 3 — accuracy and comparisons vs rho, {} tasks",
        suite.tasks.len()
    );
    println!("{}", fig.render());
    println!(
        "\nPaper shape: accuracy declines as rho falls (≈100% at 1.0 to ≈89%\n\
         at 0.9 normalized); comparisons fall from ≈95% to ≈62%; ordering\n\
         improves both accuracy and comparisons at every rho."
    );
    if let Ok(json) = serde_json::to_string_pretty(&fig) {
        let _ = std::fs::create_dir_all("target/experiments");
        let path = "target/experiments/fig3.json";
        if std::fs::write(path, json).is_ok() {
            eprintln!("[fig3] results written to {path}");
        }
    }
}
