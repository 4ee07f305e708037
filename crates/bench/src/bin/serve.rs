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
//! `--story-cache` (default: `MANN_STORY_CACHE` or 16, 0 disables) sizes
//! each instance's resident-story cache; `--pool N` concentrates the trace
//! on each task's first N stories; `--engine serial|parallel` (default:
//! `MANN_SERVE_ENGINE` or parallel) picks the numeric-phase engine — both
//! produce byte-identical reports.
//!
//! `--fault-plan <path|spec>` runs a deterministic fault campaign: either
//! a JSON file or an inline `key=value,...` spec such as
//! `corrupt=0.05,retries=4,crashes=2,cooldown-us=300,watchdog-us=400,seus=3,seed=7`.
//! The campaign is seeded and simulated-time deterministic: the same plan
//! prints byte-identical reports at any `MANN_THREADS` and under either
//! engine.
//!
//! `--numeric-policy ignore|flag|failover` (default: `MANN_NUMERIC_POLICY`
//! or ignore) selects the numeric-health response: `flag` publishes the
//! saturation/veto accounting in the report, `failover` additionally
//! re-answers stressed completions on the `f32` reference datapath at
//! accounted cycle/energy cost. `--embed-scale <factor>` multiplies the
//! trained embedding matrices before quantization — a stress campaign
//! knob that drives the fixed-point datapath into saturation.
//!
//! `--batch-window <n>` (default 0, off) fuses up to `n` queued requests
//! that share a resident story into one compute group per instance,
//! paying the shared memory/output streams once. `--hop-prune
//! <threshold|off>` (default: `MANN_HOP_PRUNE` or off) skips remaining
//! hops once the max attention weight reaches the threshold, with a
//! saturation veto on the winning weight. Malformed values for either
//! flag — or for `MANN_HOP_PRUNE` — are hard errors. `--link-gbps` and
//! `--link-latency-us` override the PCIe model (fusion needs the link to
//! outrun the fabric, which the default 65 us/transfer link never does).
//!
//! `--mem-index k,nprobe,band` (default: `MANN_MEM_INDEX` or off) arms the
//! IVF candidate index in front of every instance's MEM module: each
//! addressing hop probes the `nprobe` nearest of `k` centroids and
//! exact-scores only the surviving candidate slots, falling back to the
//! full scan whenever the best candidate is within `band` of the worst
//! retained one. `--mem-index off` disables it explicitly; malformed specs
//! (k < 1, nprobe outside 1..=k, negative or non-finite band) are hard
//! errors, for the flag and the env var alike. Pair it with
//! `--story-sentences <n>` (0 = task defaults), which pins every
//! generated story to exactly `n` sentences — the index pays off only
//! once stories are long enough that exact addressing dominates.
//!
//! `--wal-dir <dir|spec>` (default: `MANN_WAL` or off) arms the durable
//! story store: every admitted story, eviction and completion is
//! journaled to a checksummed write-ahead log under the directory, with
//! `--snapshot-every <n>` (or `snap=n` in the spec) rotating segments
//! and compacting every n records. With `node-kills=1` in the fault
//! plan, one seeded shard is killed mid-journal (torn WAL tail and all)
//! and recovered by replay; the serve itself is untouched, so every
//! report section but `durability` matches the no-kill run (the recovery
//! tests pin this). A cluster journals each shard under
//! `<dir>/shard-<s>/`. Malformed specs, for the flag
//! and `MANN_WAL` alike, are hard errors; so is `node-kills` without a
//! WAL or `--snapshot-every` without `--wal-dir`. The WAL only adds a
//! `durability` report section: all other bytes match the non-durable
//! run exactly.
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
//! a misspelt `--fault-plna`, is a usage error (exit status 2).
//!
//! The serve is a pure function of `(suite, trace, config)`: rerunning
//! with the same flags — at any `MANN_THREADS` — prints byte-identical
//! numbers, and the `answers digest` line is invariant across
//! `--instances` and `--policy` because scheduling never changes an
//! answer.

use mann_bench::{parsed, usage_bail, HarnessArgs};
use mann_core::write_json_report;
use mann_hw::{story_cache_capacity_from_env, MemIndexConfig, DEFAULT_STORY_CACHE};
use mann_serve::{
    serve_cluster_durable, serve_durable, ArrivalTrace, Cluster, ClusterConfig, EngineMode,
    FaultConfig, HopPrune, MembershipPlan, NumericPolicy, SchedulePolicy, ServeConfig, Server,
    TraceConfig, WalConfig,
};

struct ServeArgs {
    instances: usize,
    policy: SchedulePolicy,
    requests: usize,
    queue: usize,
    batch: usize,
    inflight: usize,
    rate_us: f64,
    trace_seed: u64,
    ith: bool,
    story_cache: usize,
    story_pool: usize,
    engine: EngineMode,
    faults: FaultConfig,
    numeric_policy: NumericPolicy,
    embed_scale: f32,
    batch_window: usize,
    hop_prune: HopPrune,
    mem_index: MemIndexConfig,
    link_gbps: Option<f64>,
    link_latency_us: Option<f64>,
    shards: usize,
    replication: usize,
    weights: Vec<u32>,
    membership: MembershipPlan,
    wal: WalConfig,
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
    /// ([`HarnessArgs::parse_known`]); a flag this binary does not know
    /// either is an error, never a silent no-op.
    fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut out = Self {
            instances: 2,
            policy: SchedulePolicy::ShortestQueue,
            requests: 256,
            queue: 64,
            batch: 4,
            inflight: 2,
            rate_us: 200.0,
            trace_seed: 0,
            ith: false,
            // Env defaults so a whole experiment sweep can be reconfigured
            // without touching every invocation; flags still win. Invalid
            // env values are hard errors — a typo must not silently serve
            // with the default.
            story_cache: story_cache_capacity_from_env()
                .map_err(|e| e.to_string())?
                .unwrap_or(DEFAULT_STORY_CACHE),
            story_pool: 0,
            engine: EngineMode::from_env().map_err(|e| e.to_string())?,
            faults: FaultConfig::none(),
            numeric_policy: NumericPolicy::from_env().map_err(|e| e.to_string())?,
            embed_scale: 1.0,
            batch_window: 0,
            hop_prune: HopPrune::from_env().map_err(|e| e.to_string())?,
            mem_index: MemIndexConfig::from_env().map_err(|e| e.to_string())?,
            link_gbps: None,
            link_latency_us: None,
            shards: 1,
            replication: 1,
            weights: Vec::new(),
            membership: MembershipPlan::none(),
            wal: WalConfig::from_env().map_err(|e| e.to_string())?,
        };
        let mut snapshot_every: Option<u64> = None;
        let mut it = args.into_iter();
        while let Some(key) = it.next() {
            let flag = key.as_str();
            let mut value = || it.next().ok_or_else(|| format!("usage: {flag} <value>"));
            match flag {
                "--instances" => out.instances = parsed(flag, value()?, "a count")?,
                "--policy" => {
                    out.policy =
                        SchedulePolicy::parse(&value()?).ok_or("usage: --policy rr|sq|affinity")?;
                }
                "--requests" => out.requests = parsed(flag, value()?, "a count")?,
                "--queue" => out.queue = parsed(flag, value()?, "a count")?,
                "--batch" => out.batch = parsed(flag, value()?, "a count")?,
                "--inflight" => out.inflight = parsed(flag, value()?, "a count")?,
                "--rate-us" => out.rate_us = parsed(flag, value()?, "microseconds")?,
                "--trace-seed" => out.trace_seed = parsed(flag, value()?, "a seed")?,
                "--ith" => out.ith = true,
                "--story-cache" => out.story_cache = parsed(flag, value()?, "a count")?,
                "--pool" => out.story_pool = parsed(flag, value()?, "a count")?,
                "--engine" => {
                    out.engine = EngineMode::parse(&value()?).map_err(|e| e.to_string())?;
                }
                "--fault-plan" => {
                    out.faults = FaultConfig::from_arg(&value()?).map_err(|e| e.to_string())?;
                }
                "--numeric-policy" => {
                    out.numeric_policy =
                        NumericPolicy::parse(&value()?).map_err(|e| e.to_string())?;
                }
                "--embed-scale" => out.embed_scale = parsed(flag, value()?, "a factor")?,
                "--batch-window" => {
                    out.batch_window = parsed(flag, value()?, "a request count (0 disables)")?;
                }
                "--hop-prune" => {
                    out.hop_prune = HopPrune::parse(&value()?).map_err(|e| e.to_string())?;
                }
                "--mem-index" => {
                    out.mem_index = MemIndexConfig::parse(&value()?).map_err(|e| e.to_string())?;
                }
                "--link-gbps" => out.link_gbps = Some(parsed(flag, value()?, "GB/s")?),
                "--link-latency-us" => {
                    out.link_latency_us = Some(parsed(flag, value()?, "microseconds")?);
                }
                // The flag takes a bare directory or a full MANN_WAL spec
                // (`dir,snap=N,...`); either way it replaces the
                // env-derived config wholesale so flags win cleanly.
                "--wal-dir" => out.wal = WalConfig::parse(&value()?).map_err(|e| e.to_string())?,
                "--snapshot-every" => {
                    snapshot_every = Some(parsed(flag, value()?, "a record count (0 disables)")?);
                }
                "--shards" => out.shards = parsed(flag, value()?, "a count")?,
                "--replication" => out.replication = parsed(flag, value()?, "a count")?,
                "--weights" => out.weights = parse_weights(&value()?)?,
                "--membership-plan" => {
                    out.membership =
                        MembershipPlan::from_arg(&value()?).map_err(|e| e.to_string())?;
                }
                _ => return Err(format!("unknown flag {flag:?}")),
            }
        }
        if let Some(n) = snapshot_every {
            if !out.wal.enabled {
                return Err(
                    "--snapshot-every requires the write-ahead log (--wal-dir or \
                            MANN_WAL): there is no journal to compact"
                        .into(),
                );
            }
            out.wal.snapshot_every = n;
        }
        if out.shards <= 1 && out.replication <= 1 {
            // These knobs only exist at the cluster layer; accepting them
            // on a single-node run would silently serve without them.
            if !out.membership.is_empty() {
                return Err(
                    "--membership-plan needs a cluster (--shards > 1): a single \
                            node has no membership to change"
                        .into(),
                );
            }
            if !out.weights.is_empty() {
                return Err("--weights needs a cluster (--shards > 1)".into());
            }
        }
        Ok(out)
    }
}

fn main() {
    let (args, rest) = HarnessArgs::default()
        .parse_known(std::env::args().skip(1))
        .unwrap_or_else(|e| usage_bail("serve", e));
    let serve_args = ServeArgs::parse(rest).unwrap_or_else(|e| usage_bail("serve", e));

    eprintln!(
        "[serve] training {} tasks ({} train / {} test, seed {}) ...",
        args.tasks, args.train, args.test, args.seed
    );
    let start = std::time::Instant::now();
    let mut suite = args.build_suite();
    if serve_args.embed_scale != 1.0 {
        eprintln!(
            "[serve] scaling embedding matrices by {} (numeric stress campaign)",
            serve_args.embed_scale
        );
        suite = suite.with_embedding_scale(serve_args.embed_scale);
    }
    eprintln!(
        "[serve] suite trained in {:.1}s, mean test accuracy {:.1}%",
        start.elapsed().as_secs_f64(),
        suite.mean_accuracy() * 100.0
    );

    let trace = ArrivalTrace::generate(
        &TraceConfig {
            requests: serve_args.requests,
            seed: serve_args.trace_seed,
            mean_interarrival_s: serve_args.rate_us * 1e-6,
            story_pool: serve_args.story_pool,
        },
        &suite,
    );
    let mut pcie = ServeConfig::default().pcie;
    if let Some(g) = serve_args.link_gbps {
        pcie.bandwidth_bytes_per_s = g * 1e9;
    }
    if let Some(us) = serve_args.link_latency_us {
        pcie.latency_per_transfer_s = us * 1e-6;
    }
    let config = ServeConfig {
        pcie,
        instances: serve_args.instances,
        queue_capacity: serve_args.queue,
        inflight_limit: serve_args.inflight,
        upload_batch: serve_args.batch,
        policy: serve_args.policy,
        use_ith: serve_args.ith,
        story_cache: serve_args.story_cache,
        engine: serve_args.engine,
        faults: serve_args.faults,
        numeric_policy: serve_args.numeric_policy,
        batch_window: serve_args.batch_window,
        hop_prune: serve_args.hop_prune,
        mem_index: serve_args.mem_index,
        wal: serve_args.wal,
        ..ServeConfig::default()
    };
    if let Err(e) = config.validate() {
        usage_bail("serve", e);
    }
    eprintln!(
        "[serve] {} requests (mean inter-arrival {} us, trace seed {}, story pool {}) over \
         {} instance(s), policy {}, queue {}, upload batch {}, ith {}, story cache {}, \
         engine {}",
        trace.len(),
        serve_args.rate_us,
        serve_args.trace_seed,
        serve_args.story_pool,
        config.instances,
        config.policy,
        config.queue_capacity,
        config.upload_batch,
        config.use_ith,
        config.story_cache,
        config.engine,
    );
    if config.numeric_policy != NumericPolicy::Ignore {
        eprintln!("[serve] numeric policy {}", config.numeric_policy);
    }
    if config.batch_window > 1 {
        eprintln!(
            "[serve] same-story batch fusion on (window {})",
            config.batch_window
        );
    }
    if config.hop_prune.enabled {
        eprintln!("[serve] adaptive hop pruning on ({})", config.hop_prune);
    }
    if config.mem_index.enabled {
        eprintln!("[serve] candidate index armed ({})", config.mem_index);
    }
    if config.wal.enabled {
        // stderr only: stdout must stay byte-diffable across WAL dirs.
        eprintln!(
            "[serve] write-ahead log on (dir {}, snapshot every {}, fsync batch {}, \
             node kills {})",
            config.wal.dir,
            config.wal.snapshot_every,
            config.wal.fsync_batch,
            config.faults.node_kills,
        );
    }
    if config.faults.is_active() {
        eprintln!(
            "[serve] fault campaign active (seed {}): corrupt {} / retries {}, crashes {}, \
             watchdog {} us, seus {}, degrade depth {}",
            config.faults.seed,
            config.faults.link_corrupt_prob,
            config.faults.max_retries,
            config.faults.crashes,
            config.faults.watchdog_s * 1e6,
            config.faults.seus,
            config.faults.degrade_depth,
        );
    }

    if serve_args.shards > 1 || serve_args.replication > 1 {
        let cluster_config = ClusterConfig {
            shards: serve_args.shards,
            replication: serve_args.replication,
            weights: serve_args.weights,
            membership: serve_args.membership,
            base: config,
        };
        if let Err(e) = cluster_config.validate() {
            usage_bail("serve", e);
        }
        eprintln!(
            "[serve] cluster of {} shard(s), replication {} (rendezvous story routing)",
            cluster_config.shards, cluster_config.replication
        );
        if !cluster_config.membership.is_empty() {
            let m = &cluster_config.membership;
            eprintln!(
                "[serve] membership campaign active: {} event(s), retune threshold {}, \
                 hot-key threshold {}",
                m.events.len(),
                m.retune_threshold,
                m.hot_key_threshold,
            );
        }
        let cluster = Cluster::new(&suite, cluster_config);
        let outcome =
            serve_cluster_durable(&cluster, &trace).unwrap_or_else(|e| usage_bail("serve", e));
        println!(
            "Served {} requests across {} shard(s) x {} instance(s), replication {}, policy {}",
            trace.len(),
            outcome.report.shards,
            serve_args.instances,
            outcome.report.replication,
            serve_args.policy
        );
        println!("{}", outcome.report.render());
        let path = "target/experiments/serve_cluster_report.json";
        match write_json_report(path, &outcome.report) {
            Ok(()) => eprintln!("[serve] cluster report written to {path}"),
            Err(e) => eprintln!("[serve] could not write {path}: {e}"),
        }
        return;
    }

    let server = Server::new(&suite, config);
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
        let err = typo.err().expect("a misspelt flag is an error");
        assert!(err.contains("--fault-plna"), "{err}");
        for removed in ["--watchdog", "--max-retries", "--hot-key-threshold"] {
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
        assert_eq!((ok.requests, ok.shards, ok.faults.crashes), (16, 4, 2));
        assert!(ok.ith);
    }
}
