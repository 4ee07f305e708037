//! Serves a seeded multi-tenant request trace across replicated
//! accelerator instances and reports simulated-time latency percentiles,
//! per-instance occupancy, link utilization and energy.
//!
//! ```sh
//! cargo run -p mann-bench --release --bin serve -- --tasks 2 --train 200 --test 25
//! cargo run -p mann-bench --release --bin serve -- \
//!     --tasks 2 --train 200 --test 25 \
//!     --instances 4 --policy rr --requests 512 --rate-us 80 --ith
//! cargo run -p mann-bench --release --bin serve -- \
//!     --tasks 2 --train 200 --test 25 \
//!     --instances 4 --policy affinity --pool 4 --story-cache 8
//! ```
//!
//! Every serve setting enters through these flags, each writing one field
//! of the library's [`TraceConfig`] or [`ClusterConfig`]; a flag left out
//! keeps that config's default. `MANN_THREADS` sizes the numeric phase's
//! worker pool and moves no byte.
//!
//! `--story-cache` (default 16, 0 disables) sizes each instance's
//! resident-story cache; `--pool N` concentrates the trace on each task's
//! first N stories.
//!
//! `--fault-plan <path|spec>` runs a deterministic fault campaign: either
//! a JSON file or an inline `key=value,...` spec such as
//! `corrupt=0.05,retries=4,crashes=2,cooldown-us=300,watchdog-us=400,seus=3,seed=7`.
//! The campaign is seeded and simulated-time deterministic: the same plan
//! prints byte-identical reports at any `MANN_THREADS`.
//!
//! `--numeric-policy ignore|flag|failover` (default ignore) selects the
//! numeric-health response: `flag` publishes the saturation/veto
//! accounting in the report, `failover` additionally re-answers stressed
//! completions on the `f32` reference datapath at accounted cycle/energy
//! cost. `--embed-scale <factor>` (finite)
//! multiplies the trained embedding matrices before quantization — a
//! stress campaign knob that drives the fixed-point datapath into
//! saturation.
//!
//! `--batch-window <n>` (default 0, off) fuses up to `n` queued requests
//! that share a resident story into one compute group per instance,
//! paying the shared memory/output streams once. `--hop-prune
//! <threshold|off>` (default off) skips remaining hops once the max
//! attention weight reaches the threshold, with a saturation veto on the
//! winning weight. Malformed values for either flag are hard errors.
//! `--link-gbps` (positive) and `--link-latency-us` (non-negative)
//! override the PCIe model (fusion needs the link to outrun the fabric,
//! which the default 65 us/transfer link never does).
//!
//! `--mem-index k,nprobe,band` (default off) arms the IVF candidate index
//! in front of every instance's MEM module: each addressing hop probes
//! the `nprobe` nearest of `k` centroids and exact-scores only the
//! surviving candidate slots, falling back to the full scan whenever the
//! best candidate is within `band` of the worst retained one.
//! `--mem-index off` disables it explicitly; malformed specs (k < 1,
//! nprobe outside 1..=k, negative or non-finite band) are hard errors.
//! Pair it with `--story-sentences <n>` (0 = task defaults), which pins
//! every generated story to exactly `n` sentences — the index pays off
//! only once stories are long enough that exact addressing dominates.
//!
//! `--wal-dir <dir|spec>` (default off) arms the durable story store:
//! every admitted story, eviction and completion is
//! journaled to a checksummed write-ahead log under the directory, with
//! `--snapshot-every <n>` (or `snap=n` in the spec) rotating segments
//! and compacting every n records. With `node-kills=1` in the fault
//! plan, one seeded shard is killed mid-journal (torn WAL tail and all)
//! and recovered by replay; the serve itself is untouched, so every
//! report section but `durability` matches the no-kill run (the recovery
//! tests pin this). A cluster journals each shard under
//! `<dir>/shard-<s>/`. Malformed specs are hard errors; so is
//! `node-kills` without a WAL or `--snapshot-every` without `--wal-dir`.
//! The WAL only adds a `durability` report section: all other bytes
//! match the non-durable run exactly.
//!
//! `--shards K` (default 1) serves the trace on a story-sharded cluster:
//! a rendezvous-hash router places each story on one of K shard nodes,
//! each running the full serve stack above, all on one simulated
//! timeline. `--replication R` (default 1) arms cross-shard failover —
//! with a fault plan active, a request stranded by an instance crash
//! arrives on its story's replica shard's own queue, paying the story
//! upload unless the replica has it resident. `--weights w0,w1,...` sets per-shard
//! routing weights (one positive integer < 65536 per shard; zero,
//! negative, fractional or non-finite weights are hard errors, never
//! silently clamped). At K>1 the report is the merged `ClusterReport`
//! (written to `serve_cluster_report.json`); at K=1/R=1 the cluster
//! layer is inert and output is byte-identical to the single-node path.
//!
//! `--membership-plan <path|spec>` runs a live-membership campaign on
//! the cluster: either a JSON file or an inline spec such as
//! `join=3@800,drain=1@2000,fail=2@3000,retune-threshold=0.05,hot-key=8`
//! (times in microseconds). Drained shards hand resident stories to the
//! next live replica as real re-uploads, failed shards strand their
//! in-flight work for `route_live` re-dispatch, joins arrive with a cold
//! cache, a shard's live queue depth reaching the retune threshold halves
//! its routing weight (a weight-1 shard keeps its keys), and the
//! hot-key splitter fans one pathological story across its replica set.
//! Plans that reference a shard index ≥ K, or any membership flag on a
//! 1-shard/1-replica run, are hard errors. The campaign adds a
//! `membership` report section; an empty plan leaves every report byte
//! unchanged.
//!
//! A flag that neither this binary nor the shared harness knows, such as
//! a misspelt `--fault-plna`, is a usage error (exit status 2), and so is
//! a value out of range, such as `--rate-us 0`, `--link-gbps 0`,
//! `--embed-scale nan`, `--instances 0` or a duration past the simulated
//! clock's 2^64 ps (`--rate-us 1e300`, `--link-latency-us 1e300`): each
//! is rejected with a one-line message before any training.
//!
//! The serve is a pure function of `(suite, trace, config)`: rerunning
//! with the same flags — at any `MANN_THREADS` — prints byte-identical
//! numbers, and the `answers digest` line is invariant across
//! `--instances` and `--policy` because scheduling never changes an
//! answer.

use mann_bench::{parsed, usage_bail, HarnessArgs};
use mann_core::write_json_report;
use mann_hw::{MemIndexConfig, SimTime};
use mann_serve::{
    serve_cluster_durable, serve_durable, ArrivalTrace, Cluster, ClusterConfig, FaultConfig,
    HopPrune, MembershipPlan, NumericPolicy, SchedulePolicy, Server, TraceConfig, WalConfig,
};

/// What the flags configure: the traffic, the serve stack (a single node
/// unless `--shards` asks for a cluster) and the numeric stress factor.
#[derive(Debug)]
struct ServeArgs {
    trace: TraceConfig,
    cluster: ClusterConfig,
    embed_scale: f32,
}

/// Parses a `--weights` list: one routing weight per shard, each a
/// positive integer below 2^16. Anything else — zero, negative,
/// fractional, non-finite, or out of range — is a hard error; weights
/// are never silently clamped into range.
fn parse_weights(spec: &str) -> Result<Vec<u32>, String> {
    spec.split(',')
        .map(str::trim)
        .map(|tok| {
            let v: f64 = tok
                .parse()
                .map_err(|_| format!("invalid shard weight {tok:?}: expected a number"))?;
            if !v.is_finite() {
                return Err(format!("invalid shard weight {tok:?}: must be finite"));
            }
            if v <= 0.0 {
                return Err(format!("invalid shard weight {tok:?}: must be positive"));
            }
            if v.fract() != 0.0 {
                return Err(format!("invalid shard weight {tok:?}: must be an integer"));
            }
            if v >= f64::from(1u32 << 16) {
                return Err(format!("invalid shard weight {tok:?}: must be below 65536"));
            }
            Ok(v as u32)
        })
        .collect()
}

impl ServeArgs {
    /// Parses the flags the shared harness left over
    /// ([`HarnessArgs::parse_known`]) and validates the configs they
    /// build; a flag this binary does not know either is an error, never
    /// a silent no-op.
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut trace = TraceConfig::default();
        let mut cluster = ClusterConfig::default();
        let mut embed_scale: f32 = 1.0;
        let mut snapshot_every: Option<u64> = None;
        let node = &mut cluster.base;
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            let flag = key.as_str();
            let mut value = || it.next().ok_or_else(|| format!("usage: {flag} <value>"));
            match flag {
                "--instances" => node.instances = parsed(flag, value()?, "a count")?,
                "--policy" => {
                    node.policy =
                        SchedulePolicy::parse(&value()?).ok_or("usage: --policy rr|sq|affinity")?;
                }
                "--requests" => trace.requests = parsed(flag, value()?, "a count")?,
                "--queue" => node.queue_capacity = parsed(flag, value()?, "a count")?,
                "--batch" => node.upload_batch = parsed(flag, value()?, "a count")?,
                "--inflight" => node.inflight_limit = parsed(flag, value()?, "a count")?,
                "--rate-us" => {
                    let us: f64 = parsed(flag, value()?, "microseconds")?;
                    if us <= 0.0 || SimTime::try_from_s(us * 1e-6).is_none() {
                        return Err(format!(
                            "invalid --rate-us {us}: the mean inter-arrival time must be \
                             positive and under 2^64 ps"
                        ));
                    }
                    trace.mean_interarrival_s = us * 1e-6;
                }
                "--trace-seed" => trace.seed = parsed(flag, value()?, "a seed")?,
                "--ith" => node.use_ith = true,
                "--story-cache" => node.story_cache = parsed(flag, value()?, "a count")?,
                "--pool" => trace.story_pool = parsed(flag, value()?, "a count")?,
                "--fault-plan" => {
                    node.faults = FaultConfig::from_arg(&value()?).map_err(|e| e.to_string())?;
                }
                "--numeric-policy" => {
                    node.numeric_policy =
                        NumericPolicy::parse(&value()?).map_err(|e| e.to_string())?;
                }
                "--embed-scale" => {
                    embed_scale = parsed(flag, value()?, "a factor")?;
                    if !embed_scale.is_finite() {
                        return Err(format!(
                            "invalid --embed-scale {embed_scale}: the factor must be finite"
                        ));
                    }
                }
                "--batch-window" => {
                    node.batch_window = parsed(flag, value()?, "a request count (0 disables)")?;
                }
                "--hop-prune" => {
                    node.hop_prune = HopPrune::parse(&value()?).map_err(|e| e.to_string())?;
                }
                "--mem-index" => {
                    node.mem_index = MemIndexConfig::parse(&value()?).map_err(|e| e.to_string())?;
                }
                "--link-gbps" => {
                    let gbps: f64 = parsed(flag, value()?, "GB/s")?;
                    node.pcie.bandwidth_bytes_per_s = gbps * 1e9;
                }
                "--link-latency-us" => {
                    let us: f64 = parsed(flag, value()?, "microseconds")?;
                    node.pcie.latency_per_transfer_s = us * 1e-6;
                }
                // A bare directory or a full spec (`dir,snap=N,...`).
                "--wal-dir" => {
                    node.wal = WalConfig::parse(&value()?).map_err(|e| e.to_string())?;
                }
                "--snapshot-every" => {
                    snapshot_every = Some(parsed(flag, value()?, "a record count (0 disables)")?);
                }
                "--shards" => cluster.shards = parsed(flag, value()?, "a count")?,
                "--replication" => cluster.replication = parsed(flag, value()?, "a count")?,
                "--weights" => cluster.weights = parse_weights(&value()?)?,
                "--membership-plan" => {
                    cluster.membership =
                        MembershipPlan::from_arg(&value()?).map_err(|e| e.to_string())?;
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if let Some(n) = snapshot_every {
            if !node.wal.enabled {
                return Err(
                    "--snapshot-every requires the write-ahead log (--wal-dir): there is \
                     no journal to compact"
                        .into(),
                );
            }
            node.wal.snapshot_every = n;
        }
        if cluster.shards <= 1 {
            // These knobs only exist at the cluster layer; accepting them
            // on a single-node run would silently serve without them.
            if !cluster.membership.is_empty() {
                return Err(
                    "--membership-plan needs a cluster (--shards > 1): a single \
                            node has no membership to change"
                        .into(),
                );
            }
            if !cluster.weights.is_empty() {
                return Err("--weights needs a cluster (--shards > 1)".into());
            }
        }
        cluster.validate()?;
        Ok(Self {
            trace,
            cluster,
            embed_scale,
        })
    }
}

fn main() {
    let (args, rest) = HarnessArgs::default()
        .parse_known(std::env::args().skip(1))
        .unwrap_or_else(|e| usage_bail("serve", e));
    let ServeArgs {
        trace: traffic,
        cluster: config,
        embed_scale,
    } = ServeArgs::parse(rest).unwrap_or_else(|e| usage_bail("serve", e));

    eprintln!(
        "[serve] training {} tasks ({} train / {} test, seed {}) ...",
        args.tasks, args.train, args.test, args.seed
    );
    let start = std::time::Instant::now();
    let mut suite = args.build_suite();
    if embed_scale != 1.0 {
        eprintln!("[serve] scaling embedding matrices by {embed_scale} (numeric stress campaign)");
        suite = suite.with_embedding_scale(embed_scale);
    }
    eprintln!(
        "[serve] suite trained in {:.1}s, mean test accuracy {:.1}%",
        start.elapsed().as_secs_f64(),
        suite.mean_accuracy() * 100.0
    );

    let trace = ArrivalTrace::generate(&traffic, &suite);
    let node = &config.base;
    eprintln!(
        "[serve] {} requests (mean inter-arrival {} s, trace seed {}, story pool {}) over \
         {} instance(s), policy {}, queue {}, upload batch {}, ith {}, story cache {}",
        trace.len(),
        traffic.mean_interarrival_s,
        traffic.seed,
        traffic.story_pool,
        node.instances,
        node.policy,
        node.queue_capacity,
        node.upload_batch,
        node.use_ith,
        node.story_cache,
    );
    if node.numeric_policy != NumericPolicy::Ignore {
        eprintln!("[serve] numeric policy {}", node.numeric_policy);
    }
    if node.batch_window > 1 {
        eprintln!(
            "[serve] same-story batch fusion on (window {})",
            node.batch_window
        );
    }
    if node.hop_prune.enabled {
        eprintln!("[serve] adaptive hop pruning on ({})", node.hop_prune);
    }
    if node.mem_index.enabled {
        eprintln!("[serve] candidate index armed ({})", node.mem_index);
    }
    if node.wal.enabled {
        // stderr only: stdout must stay byte-diffable across WAL dirs.
        eprintln!(
            "[serve] write-ahead log on (dir {}, snapshot every {}, fsync batch {}, \
             node kills {})",
            node.wal.dir, node.wal.snapshot_every, node.wal.fsync_batch, node.faults.node_kills,
        );
    }
    if node.faults.is_active() {
        eprintln!(
            "[serve] fault campaign active (seed {}): corrupt {} / retries {}, crashes {}, \
             watchdog {} us, seus {}, degrade depth {}",
            node.faults.seed,
            node.faults.link_corrupt_prob,
            node.faults.max_retries,
            node.faults.crashes,
            node.faults.watchdog_s * 1e6,
            node.faults.seus,
            node.faults.degrade_depth,
        );
    }

    // Validation holds replication to the shard count, so one shard is
    // the single-node path.
    if config.shards > 1 {
        eprintln!(
            "[serve] cluster of {} shard(s), replication {} (rendezvous story routing)",
            config.shards, config.replication
        );
        if !config.membership.is_empty() {
            let m = &config.membership;
            eprintln!(
                "[serve] membership campaign active: {} event(s), retune threshold {}, \
                 hot-key threshold {}",
                m.events.len(),
                m.retune_threshold,
                m.hot_key_threshold,
            );
        }
        let cluster = Cluster::new(&suite, config);
        let outcome =
            serve_cluster_durable(&cluster, &trace).unwrap_or_else(|e| usage_bail("serve", e));
        let node = cluster.server().config();
        println!(
            "Served {} requests across {} shard(s) x {} instance(s), replication {}, policy {}",
            trace.len(),
            outcome.report.shards,
            node.instances,
            outcome.report.replication,
            node.policy
        );
        println!("{}", outcome.report.render());
        let path = "target/experiments/serve_cluster_report.json";
        match write_json_report(path, &outcome.report) {
            Ok(()) => eprintln!("[serve] cluster report written to {path}"),
            Err(e) => eprintln!("[serve] could not write {path}: {e}"),
        }
        return;
    }

    let server = Server::new(&suite, config.base);
    let outcome = serve_durable(&server, &trace).unwrap_or_else(|e| usage_bail("serve", e));
    println!(
        "Served {} requests across {} instance(s), policy {}",
        trace.len(),
        server.config().instances,
        server.config().policy
    );
    println!("{}", outcome.report.render());

    let path = "target/experiments/serve_report.json";
    match write_json_report(path, &outcome.report) {
        Ok(()) => eprintln!("[serve] report written to {path}"),
        Err(e) => eprintln!("[serve] could not write {path}: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<ServeArgs, String> {
        let (_, rest) = HarnessArgs::default().parse_known(args.iter().map(|a| (*a).to_owned()))?;
        ServeArgs::parse(rest)
    }

    /// A flag neither parser knows is an error, not a silent no-op; the
    /// harness flags and their values pass through.
    #[test]
    fn unknown_flags_are_usage_errors() {
        let typo = parse(&[
            "--tasks",
            "1",
            "--train",
            "20",
            "--requests",
            "16",
            "--fault-plna",
            "seed=7,crashes=2,watchdog-us=300",
            "--shard",
            "4",
        ]);
        let err = typo.expect_err("a misspelt flag is an error");
        assert!(err.contains("--fault-plna"), "{err}");
        for removed in [
            "--watchdog",
            "--max-retries",
            "--hot-key-threshold",
            "--engine",
        ] {
            assert!(parse(&[removed, "300"]).is_err(), "{removed} is gone");
        }
        let ok = parse(&[
            "--tasks",
            "1",
            "--seed",
            "3",
            "--joint",
            "--requests",
            "16",
            "--fault-plan",
            "seed=7,crashes=2,watchdog-us=300",
            "--shards",
            "4",
            "--ith",
        ])
        .expect("known flags parse");
        assert_eq!(
            (
                ok.trace.requests,
                ok.cluster.shards,
                ok.cluster.base.faults.crashes
            ),
            (16, 4, 2)
        );
        assert!(ok.cluster.base.use_ith);
    }

    /// No flag leaves every setting at its library default: the CLI keeps
    /// no defaults of its own.
    #[test]
    fn no_flags_parse_to_the_library_defaults() {
        let args = parse(&[]).expect("no flags parse");
        assert_eq!(args.trace, TraceConfig::default());
        assert_eq!(args.cluster, ClusterConfig::default());
        assert_eq!(args.embed_scale, 1.0);
    }

    /// An out-of-range value is a one-line usage error at parse time, so
    /// the binary exits before it trains; the link flags write the link
    /// model in its own units.
    #[test]
    fn out_of_range_values_are_usage_errors() {
        for bad in [
            ["--rate-us", "0"],
            ["--rate-us", "-5"],
            ["--rate-us", "nan"],
            ["--rate-us", "1e300"],
            ["--link-gbps", "0"],
            ["--link-gbps", "-1"],
            ["--link-gbps", "1e-300"],
            ["--link-latency-us", "-1"],
            ["--link-latency-us", "nan"],
            ["--link-latency-us", "1e300"],
            ["--embed-scale", "nan"],
            ["--instances", "0"],
        ] {
            let err = parse(&bad).expect_err("an out-of-range value is an error");
            assert!(!err.is_empty() && !err.contains('\n'), "{bad:?}: {err:?}");
        }
        let ok = parse(&[
            "--rate-us",
            "40",
            "--link-gbps",
            "2",
            "--link-latency-us",
            "0",
        ])
        .expect("in-range values parse");
        assert_eq!(ok.trace.mean_interarrival_s, 40.0 * 1e-6);
        assert_eq!(ok.cluster.base.pcie.bandwidth_bytes_per_s, 2e9);
        assert_eq!(ok.cluster.base.pcie.latency_per_transfer_s, 0.0);
    }
}
