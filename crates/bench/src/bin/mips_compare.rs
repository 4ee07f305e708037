//! Compares all maximum inner-product search strategies on trained models:
//! exhaustive, inference thresholding (± ordering), asymmetric LSH, and
//! clustering — quantifying the related-work claim (§VI-B) that hashing and
//! clustering approaches cost more per query than the paper's data-based
//! thresholding in this regime.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin mips_compare -- --tasks 3 --train 400 --test 50
//! ```

use mann_babi::TaskId;
use mann_bench::HarnessArgs;
use mann_core::report::{fnum, percent, TextTable};
use mann_core::TaskSuite;
use mann_ith::baselines::{AlshConfig, AlshMips, ClusterConfig, ClusterMips};
use mann_ith::search::{ExhaustiveMips, MipsStrategy, ThresholdedMips};
use memn2n::forward::forward_until_output;

struct Row {
    name: String,
    accuracy: f64,
    agreement: f64,
    comparisons_norm: f64,
    extra_probes: f64,
}

fn main() {
    let args = HarnessArgs {
        tasks: 3,
        train: 400,
        test: 50,
        ..HarnessArgs::default()
    }
    .parse_cli("mips_compare");
    let mut cfg = args.suite_config();
    cfg.tasks = vec![
        TaskId::SingleSupportingFact,
        TaskId::YesNoQuestions,
        TaskId::AgentMotivations,
    ]
    .into_iter()
    .take(args.tasks)
    .collect();
    eprintln!("[mips] training {} tasks ...", cfg.tasks.len());
    let suite = TaskSuite::build(&cfg);

    let mut rows: Vec<Row> = Vec::new();
    let strategies: Vec<&str> = vec!["exhaustive", "ith", "ith-unordered", "alsh", "cluster"];
    for name in strategies {
        let mut correct = 0usize;
        let mut agree = 0usize;
        let mut total = 0usize;
        let mut cmp_frac = 0.0f64;
        let mut probes = 0.0f64;
        for task in &suite.tasks {
            let params = &task.model.params;
            let v = params.vocab_size as f64;
            let alsh = AlshMips::build(params, AlshConfig::default(), 42);
            let cluster = ClusterMips::build(
                params,
                ClusterConfig {
                    clusters: params.vocab_size.min(8),
                    ..ClusterConfig::default()
                },
                42,
            );
            let strategy: Box<dyn MipsStrategy + '_> = match name {
                "exhaustive" => Box::new(ExhaustiveMips),
                "ith" => Box::new(ThresholdedMips::new(&task.ith)),
                "ith-unordered" => Box::new(ThresholdedMips::without_ordering(&task.ith)),
                "alsh" => Box::new(alsh.clone()),
                "cluster" => Box::new(cluster.clone()),
                _ => unreachable!(),
            };
            let per_query_probes = match name {
                // Hash probes are dot products in augmented space.
                "alsh" => alsh.hash_probes() as f64,
                _ => 0.0,
            };
            for s in &task.test_set {
                let h = forward_until_output(params, s);
                let exact = ExhaustiveMips.search(params, &h);
                let r = strategy.search(params, &h);
                if r.label == s.answer {
                    correct += 1;
                }
                if r.label == exact.label {
                    agree += 1;
                }
                cmp_frac += r.comparisons as f64 / v;
                probes += per_query_probes / v;
                total += 1;
            }
        }
        rows.push(Row {
            name: name.to_owned(),
            accuracy: correct as f64 / total as f64,
            agreement: agree as f64 / total as f64,
            comparisons_norm: cmp_frac / total as f64,
            extra_probes: probes / total as f64,
        });
    }

    let mut t = TextTable::new(vec![
        "strategy".into(),
        "accuracy".into(),
        "argmax recall".into(),
        "dot products (norm)".into(),
        "extra probes (norm)".into(),
    ]);
    for r in &rows {
        t.row(vec![
            r.name.clone(),
            percent(r.accuracy),
            percent(r.agreement),
            percent(r.comparisons_norm),
            fnum(r.extra_probes, 2),
        ]);
    }
    println!(
        "MIPS strategy comparison — {} tasks, {} test questions each\n",
        suite.tasks.len(),
        args.test
    );
    println!("{}", t.render());
    println!(
        "reading: 'dot products' counts exact output-row evaluations per\n\
         query normalized to |I|; ALSH additionally pays 'extra probes'\n\
         (hash-plane dot products in augmented space) per query, and\n\
         clustering's count includes its centroid scoring — the overheads\n\
         the paper argues against for resource-limited output layers."
    );
}
