//! Regenerates Fig 2(b): the per-class logit mixture distributions that
//! motivate inference thresholding.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin fig2b
//! cargo run -p mann-bench --release --bin fig2b -- --tasks 1 --train 400
//! ```

use mann_bench::HarnessArgs;
use mann_core::experiments::fig2b;
use mann_core::TaskSuite;

fn main() {
    let args = HarnessArgs::default().parse_cli("fig2b");
    let mut cfg = args.suite_config();
    cfg.tasks.truncate(1); // one task suffices for the distribution view
    eprintln!(
        "[fig2b] training task {} ({} train samples) ...",
        cfg.tasks[0], cfg.train_samples
    );
    let suite = TaskSuite::build(&cfg);
    let task = &suite.tasks[0];
    eprintln!("[fig2b] test accuracy {:.1}%", task.test_accuracy * 100.0);

    let fig = fig2b::run(task, 6, 48);
    println!("{}", fig.render());
    println!(
        "Paper shape: each class's on-answer logits form a mode clearly to\n\
         the right of the off-answer mass — the separation the thresholds\n\
         θ_i exploit (classes are probed in descending silhouette order)."
    );
    if let Ok(json) = serde_json::to_string_pretty(&fig) {
        let _ = std::fs::create_dir_all("target/experiments");
        let path = "target/experiments/fig2b.json";
        if std::fs::write(path, json).is_ok() {
            eprintln!("[fig2b] results written to {path}");
        }
    }
}
