//! The durable story store driver: wires `mann-store`'s WAL/snapshot
//! mechanism into the serving layer.
//!
//! The event loop itself never touches the filesystem — [`crate::Server`]
//! stays a pure function of `(suite, trace, config)` and merely *collects*
//! the journal ([`crate::ServeOutcome::wal_records`]). This module is the
//! impure shell around it:
//!
//! * [`serve_durable`] / [`serve_cluster_durable`] run the pure serve,
//!   then persist its journal — appending every story admission, eviction
//!   and completion to a checksummed segmented WAL, rotating and
//!   snapshotting every [`WalConfig::snapshot_every`] records, and
//!   garbage-collecting segments a snapshot covers.
//! * With `node_kills` armed ([`crate::FaultConfig::node_kills`]), the
//!   victim shard and kill point the fault plan draws are applied to the
//!   finished journal: the append path is cut there and a torn half-frame
//!   is left on disk, exactly as a process death mid-`write` would.
//!   Recovery then proves the durability story end to end — the strict
//!   open must detect the tear, the lenient open truncates it, the
//!   replayed [`StoreState`] fold must equal an independent reference
//!   fold of the journal prefix, and every recovered completion must
//!   agree with the journal — before the remainder of the pure serve's
//!   own records lands in a fresh segment.
//!
//! Every step is accounted in a [`DurabilityReport`]; the `durability`
//! key is omitted from JSON whenever the WAL is off, so all pre-existing
//! golden reports stay byte-identical.
//!
//! A cluster keeps one journal per shard, under `<dir>/shard-<s>/`: the
//! pure cluster serve runs once, and each shard's collected journal holds
//! every request the shard served, hand-offs included.
//!
//! A membership-plan `fail` event ([`crate::MembershipPlan`]) composes
//! with the WAL for free: the fail-stopped shard's event loop halts at
//! the scheduled cut, so its collected journal simply *ends* there —
//! post-cut completions are never journaled, leaving a naturally
//! consistent prefix on disk with no torn frame to repair. Requests the
//! cut stranded are handed to a live replica, whose own journal records
//! them; nothing is recovered by replay because nothing past the cut was
//! ever promised durable.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use mann_core::persist::PersistError;
use mann_core::report::{fnum, TextTable};
use mann_store::{
    gc, recover_dir, replay_dir, write_snapshot, StoreError, StoreState, WalRecord, WalStats,
    WalWriter, KIND_COMPLETION, KIND_STORY,
};
use serde::{Deserialize, Serialize};

use crate::cluster::{Cluster, ClusterOutcome};
use crate::report::{mean, ReportSection};
use crate::server::{ServeOutcome, Server};
use crate::trace::ArrivalTrace;

/// Write-ahead-log configuration, carried inside
/// [`crate::ServeConfig::wal`]. Disabled by default; when disabled the
/// serve path is byte-identical to before the store layer existed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WalConfig {
    /// Whether the journal is armed.
    pub enabled: bool,
    /// WAL directory; the cluster driver keeps one journal per shard under
    /// its `shard-<s>` subdirectories.
    pub dir: String,
    /// Rotate the segment, cut a snapshot, and GC every this many
    /// records; 0 = never snapshot (one segment, sealed at the end).
    pub snapshot_every: u64,
    /// Records per fsync on the append path (1 = sync every record).
    pub fsync_batch: usize,
    /// Host-side cost charged per fsync, microseconds (reported as
    /// [`DurabilityReport::fsync_s`]; the simulated event loop is not
    /// perturbed, preserving byte-identity of every other section).
    pub fsync_us: f64,
    /// Host-side cost charged per replayed record during crash recovery,
    /// microseconds (feeds [`DurabilityReport::recovery_mttr_s`]).
    pub replay_us: f64,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            enabled: false,
            dir: String::new(),
            snapshot_every: 0,
            fsync_batch: 8,
            fsync_us: 50.0,
            replay_us: 2.0,
        }
    }
}

/// An unparseable write-ahead-log spec (the serve CLI's `--wal-dir`).
/// Invalid values are rejected at startup rather than silently serving
/// without durability — `--wal-dir /tmp/wal,snap=abc` must fail loudly.
#[derive(Debug, Clone, PartialEq, Eq, thiserror::Error)]
pub enum WalSpecError {
    /// The spec does not match `<dir>[,key=value]...`.
    #[error(
        "invalid --wal-dir spec {value:?}: expected `off` or `<dir>[,snap=N][,fsync-batch=N][,fsync-us=F][,replay-us=F]`"
    )]
    BadShape {
        /// The rejected input.
        value: String,
    },
    /// An option key that is not recognized.
    #[error(
        "unknown --wal-dir option {option:?}: expected one of `snap`, `fsync-batch`, `fsync-us`, `replay-us`"
    )]
    UnknownOption {
        /// The rejected key.
        option: String,
    },
    /// An option value that does not parse or is out of range.
    #[error("invalid --wal-dir value {value:?} for `{option}`: {reason}")]
    BadValue {
        /// The option the value belongs to.
        option: String,
        /// The rejected value.
        value: String,
        /// Why it was rejected.
        reason: String,
    },
}

impl WalConfig {
    /// Parses a CLI spec: `off` (or empty, or `0`) disables the
    /// journal; otherwise `<dir>[,snap=N][,fsync-batch=N][,fsync-us=F]
    /// [,replay-us=F]` enables it.
    ///
    /// # Errors
    ///
    /// Returns [`WalSpecError`] on malformed input — never a silent
    /// fallback.
    pub fn parse(spec: &str) -> Result<Self, WalSpecError> {
        let spec = spec.trim();
        if spec.is_empty() || spec == "off" || spec == "0" {
            return Ok(Self::default());
        }
        let mut parts = spec.split(',');
        let dir = parts.next().expect("split yields at least one part").trim();
        if dir.is_empty() || dir == "off" || dir.contains('=') {
            return Err(WalSpecError::BadShape {
                value: spec.to_owned(),
            });
        }
        let mut cfg = Self {
            enabled: true,
            dir: dir.to_owned(),
            ..Self::default()
        };
        for part in parts {
            let part = part.trim();
            let Some((key, value)) = part.split_once('=') else {
                return Err(WalSpecError::BadShape {
                    value: spec.to_owned(),
                });
            };
            let (key, value) = (key.trim(), value.trim());
            let bad = |reason: &str| WalSpecError::BadValue {
                option: key.to_owned(),
                value: value.to_owned(),
                reason: reason.to_owned(),
            };
            match key {
                "snap" => {
                    cfg.snapshot_every = value
                        .parse()
                        .map_err(|_| bad("expected a non-negative integer"))?;
                }
                "fsync-batch" => {
                    let n: usize = value
                        .parse()
                        .map_err(|_| bad("expected a positive integer"))?;
                    if n == 0 {
                        return Err(bad("fsync batch must be at least 1"));
                    }
                    cfg.fsync_batch = n;
                }
                "fsync-us" => {
                    let f: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !f.is_finite() || f < 0.0 {
                        return Err(bad("expected a finite non-negative number"));
                    }
                    cfg.fsync_us = f;
                }
                "replay-us" => {
                    let f: f64 = value.parse().map_err(|_| bad("expected a number"))?;
                    if !f.is_finite() || f < 0.0 {
                        return Err(bad("expected a finite non-negative number"));
                    }
                    cfg.replay_us = f;
                }
                _ => {
                    return Err(WalSpecError::UnknownOption {
                        option: key.to_owned(),
                    })
                }
            }
        }
        Ok(cfg)
    }

    /// Checks structural validity (called from
    /// [`crate::ServeConfig::validate`]).
    ///
    /// # Errors
    ///
    /// Returns a description of the first invalid field.
    pub fn validate(&self) -> Result<(), String> {
        if self.enabled && self.dir.trim().is_empty() {
            return Err("write-ahead log enabled without a directory".into());
        }
        if !self.enabled && self.snapshot_every > 0 {
            return Err("snapshot interval set but the write-ahead log is off".into());
        }
        if self.fsync_batch == 0 {
            return Err("wal fsync batch must be at least 1".into());
        }
        if !self.fsync_us.is_finite() || self.fsync_us < 0.0 {
            return Err(format!("wal fsync cost {} us is not a cost", self.fsync_us));
        }
        if !self.replay_us.is_finite() || self.replay_us < 0.0 {
            return Err(format!(
                "wal replay cost {} us is not a cost",
                self.replay_us
            ));
        }
        Ok(())
    }
}

/// Everything the durability layer did for one serve: journal volume,
/// fsync cost, snapshot/compaction activity, and — when a node-kill
/// campaign ran — the recovery accounting. `enabled == false` (and the
/// `durability` key absent from JSON) whenever the WAL is off, keeping
/// every pre-existing golden byte-identical. Deliberately free of
/// filesystem paths so reports are byte-comparable across WAL
/// directories.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct DurabilityReport {
    /// Whether the journal was armed.
    pub enabled: bool,
    /// Records appended (stories + completions + evictions).
    pub records: u64,
    /// Story-admission records journaled.
    pub story_records: u64,
    /// Completion records journaled.
    pub completion_records: u64,
    /// Eviction records journaled.
    pub evict_records: u64,
    /// Frame bytes appended to WAL segments.
    pub wal_bytes: u64,
    /// WAL segments opened.
    pub segments: u64,
    /// fsync calls issued on the append path.
    pub fsyncs: u64,
    /// Host-side fsync cost: `fsyncs × fsync_us`, seconds.
    pub fsync_s: f64,
    /// Snapshots cut.
    pub snapshots: u64,
    /// Bytes written into snapshot containers.
    pub snapshot_bytes: u64,
    /// WAL segments compaction deleted (fully covered by a snapshot).
    pub gc_segments: u64,
    /// Superseded snapshot files compaction deleted.
    pub gc_snapshots: u64,
    /// Bytes compaction reclaimed.
    pub gc_bytes: u64,
    /// Stories dropped from snapshot images after being evicted from
    /// every shard's residency.
    pub gc_stories: u64,
    /// Node kills injected (fail-stop mid-journal).
    pub node_kills: u64,
    /// Torn WAL tails the strict open detected after a kill.
    pub torn_tails: u64,
    /// Torn-tail bytes recovery truncated.
    pub dropped_bytes: u64,
    /// Records replayed (snapshot + WAL) to rebuild the store state.
    pub replayed_records: u64,
    /// Completions that were already durable at the kill point.
    pub recovered_completions: u64,
    /// In-flight completions re-dispatched after recovery (journaled but
    /// not yet durable when the node died).
    pub redispatched: u64,
    /// Mean recovery time per kill: `replayed_records × replay_us`,
    /// seconds.
    pub recovery_mttr_s: f64,
}

impl DurabilityReport {
    /// Folds per-shard sections: the enabled ones' counters add, and the
    /// recovery MTTR is re-weighted by kill count.
    pub(crate) fn merge<'a>(parts: impl IntoIterator<Item = &'a Self>) -> Self {
        let mut m = Self::default();
        let mut mttr = 0.0;
        for p in parts.into_iter().filter(|p| p.enabled) {
            m.enabled = true;
            m.records += p.records;
            m.story_records += p.story_records;
            m.completion_records += p.completion_records;
            m.evict_records += p.evict_records;
            m.wal_bytes += p.wal_bytes;
            m.segments += p.segments;
            m.fsyncs += p.fsyncs;
            m.fsync_s += p.fsync_s;
            m.snapshots += p.snapshots;
            m.snapshot_bytes += p.snapshot_bytes;
            m.gc_segments += p.gc_segments;
            m.gc_snapshots += p.gc_snapshots;
            m.gc_bytes += p.gc_bytes;
            m.gc_stories += p.gc_stories;
            m.node_kills += p.node_kills;
            m.torn_tails += p.torn_tails;
            m.dropped_bytes += p.dropped_bytes;
            m.replayed_records += p.replayed_records;
            m.recovered_completions += p.recovered_completions;
            m.redispatched += p.redispatched;
            mttr += p.recovery_mttr_s * p.node_kills as f64;
        }
        m.recovery_mttr_s = mean(mttr, m.node_kills);
        m
    }
}

impl ReportSection for DurabilityReport {
    fn key(&self) -> &'static str {
        "durability"
    }

    fn enabled(&self) -> bool {
        self.enabled
    }

    fn render(&self) -> String {
        let mut t = TextTable::new(vec!["durability metric".into(), "value".into()]);
        t.row(vec![
            "journal records (story/compl/evict)".into(),
            format!(
                "{} ({}/{}/{})",
                self.records, self.story_records, self.completion_records, self.evict_records
            ),
        ]);
        t.row(vec![
            "wal volume".into(),
            format!("{} B over {} segments", self.wal_bytes, self.segments),
        ]);
        t.row(vec![
            "fsyncs".into(),
            format!("{} ({} s)", self.fsyncs, fnum(self.fsync_s, 6)),
        ]);
        t.row(vec![
            "snapshots".into(),
            format!("{} ({} B)", self.snapshots, self.snapshot_bytes),
        ]);
        t.row(vec![
            "compaction".into(),
            format!(
                "{} segments, {} snapshots, {} stories, {} B",
                self.gc_segments, self.gc_snapshots, self.gc_stories, self.gc_bytes
            ),
        ]);
        t.row(vec![
            "node kills (torn tails)".into(),
            format!("{} ({})", self.node_kills, self.torn_tails),
        ]);
        t.row(vec![
            "replayed records".into(),
            format!(
                "{} ({} durable completions, {} B tail dropped)",
                self.replayed_records, self.recovered_completions, self.dropped_bytes
            ),
        ]);
        t.row(vec![
            "re-dispatched in-flight".into(),
            self.redispatched.to_string(),
        ]);
        t.row(vec![
            "recovery MTTR".into(),
            format!("{} s", fnum(self.recovery_mttr_s, 6)),
        ]);
        t.render()
    }
}

/// Appends `records` to a fresh segment under `dir`, rotating, cutting a
/// snapshot, and compacting every `snapshot_every` records. Returns the
/// writer unsealed so the caller decides between a clean seal
/// ([`WalWriter::finish`]) and a simulated crash
/// ([`WalWriter::abandon_torn`]).
fn append_stream(
    dir: &Path,
    cfg: &WalConfig,
    records: &[WalRecord],
    state: &mut StoreState,
    since_snap: &mut u64,
    dr: &mut DurabilityReport,
) -> Result<WalWriter, StoreError> {
    let mut w = WalWriter::open(dir, cfg.fsync_batch)?;
    for rec in records {
        w.append(rec)?;
        state.apply(rec);
        if cfg.snapshot_every > 0 {
            *since_snap += 1;
            if *since_snap >= cfg.snapshot_every {
                *since_snap = 0;
                let sealed = w.rotate()?;
                let (snap, dead) = state.to_snapshot(sealed);
                dr.snapshot_bytes += write_snapshot(dir, &snap)?;
                let gcs = gc(dir, sealed)?;
                dr.snapshots += 1;
                dr.gc_segments += gcs.segments;
                dr.gc_snapshots += gcs.snapshots;
                dr.gc_bytes += gcs.bytes;
                dr.gc_stories += dead;
            }
        }
    }
    Ok(w)
}

fn absorb_stats(dr: &mut DurabilityReport, stats: WalStats) {
    dr.records += stats.records;
    dr.wal_bytes += stats.bytes;
    dr.fsyncs += stats.fsyncs;
    dr.segments += stats.segments;
}

/// Persists one node's journal under `dir`, killing the node at journal
/// index `kill_at` and recovering it, if given.
fn persist(
    dir: &Path,
    cfg: &WalConfig,
    records: &[WalRecord],
    kill_at: Option<usize>,
) -> Result<DurabilityReport, StoreError> {
    let mut dr = DurabilityReport {
        enabled: true,
        ..DurabilityReport::default()
    };
    for rec in records {
        match rec.kind {
            KIND_STORY => dr.story_records += 1,
            KIND_COMPLETION => dr.completion_records += 1,
            _ => dr.evict_records += 1,
        }
    }
    let mut state = StoreState::default();
    let mut since_snap = 0u64;

    let Some(kp) = kill_at else {
        let w = append_stream(dir, cfg, records, &mut state, &mut since_snap, &mut dr)?;
        absorb_stats(&mut dr, w.finish()?);
        dr.fsync_s = dr.fsyncs as f64 * cfg.fsync_us * 1e-6;
        return Ok(dr);
    };

    // ----- fail-stop: cut the journal mid-append ------------------------
    let w = append_stream(
        dir,
        cfg,
        &records[..kp],
        &mut state,
        &mut since_snap,
        &mut dr,
    )?;
    // The frame the node was writing when it died: half of it reaches the
    // platter, exactly the torn tail a strict open must refuse.
    let frame = mann_store::frame_record(&records[kp]);
    absorb_stats(&mut dr, w.abandon_torn(&frame[..frame.len() / 2])?);
    dr.node_kills += 1;

    // ----- recovery -----------------------------------------------------
    match replay_dir(dir) {
        Err(StoreError::TornTail { .. }) => dr.torn_tails += 1,
        Err(other) => return Err(other),
        Ok(_) => {
            return Err(StoreError::Recovery(format!(
                "node kill at journal index {kp} left no torn tail in {}",
                dir.display()
            )))
        }
    }
    let rec = recover_dir(dir)?;
    dr.dropped_bytes += rec.dropped_bytes;
    dr.replayed_records += rec.replayed_records;
    dr.recovery_mttr_s += rec.replayed_records as f64 * cfg.replay_us * 1e-6;
    let mut recovered = StoreState::from_replay(rec.snapshot.as_ref(), &rec.records);
    dr.recovered_completions += recovered.completion_count() as u64;

    // Integrity: the replayed fold must equal an independent reference
    // fold of the journal prefix (both collapsed — mid-stream snapshots
    // drop dead stories the reference never materialized).
    let mut reference = StoreState::from_replay(None, &records[..kp]);
    recovered.collapse();
    reference.collapse();
    if recovered != reference {
        return Err(StoreError::Recovery(format!(
            "replayed state diverges from the journal prefix in {}: \
             {} vs {} live stories, {} vs {} completions",
            dir.display(),
            recovered.live_stories(),
            reference.live_stories(),
            recovered.completion_count(),
            reference.completion_count(),
        )));
    }

    // Consistency: every durable completion must agree with the journal
    // the pure serve collected, whose remainder is appended below.
    let full: HashMap<u64, u32> = records
        .iter()
        .filter(|r| r.kind == KIND_COMPLETION)
        .map(|r| (r.id, r.answer))
        .collect();
    for c in recovered.completions() {
        if full.get(&c.id) != Some(&c.answer) {
            return Err(StoreError::Recovery(format!(
                "recovered completion {} (answer {}) contradicts the served journal",
                c.id, c.answer
            )));
        }
    }
    dr.redispatched += records[kp..]
        .iter()
        .filter(|r| r.kind == KIND_COMPLETION)
        .count() as u64;

    // ----- resume: the remainder lands in a fresh segment ---------------
    let mut state = recovered;
    let w = append_stream(
        dir,
        cfg,
        &records[kp..],
        &mut state,
        &mut since_snap,
        &mut dr,
    )?;
    absorb_stats(&mut dr, w.finish()?);
    dr.fsync_s = dr.fsyncs as f64 * cfg.fsync_us * 1e-6;
    Ok(dr)
}

/// Serves a trace with the write-ahead log armed. With
/// [`WalConfig::enabled`] off this is exactly [`Server::serve`]; with it
/// on, the journal is persisted under [`WalConfig::dir`] and — when
/// `node_kills` is set — the node is fail-stopped mid-journal and
/// recovered, with the accounting in
/// [`crate::ServeReport::durability`].
///
/// # Errors
///
/// Returns [`PersistError`] on store I/O failure, undetected/unexpected
/// damage, or a recovery that contradicts the journal.
pub fn serve_durable(
    server: &Server<'_>,
    trace: &ArrivalTrace,
) -> Result<ServeOutcome, PersistError> {
    let cfg = server.config();
    let mut out = server.serve(trace);
    if !cfg.wal.enabled {
        return Ok(out);
    }
    let kill_at = cfg.faults.node_kill(&[out.wal_records.len()]);
    out.report.durability = persist(
        Path::new(&cfg.wal.dir),
        &cfg.wal,
        &out.wal_records,
        kill_at.map(|(_, at)| at),
    )?;
    Ok(out)
}

/// Serves a trace across a cluster with the write-ahead log armed: the
/// pure cluster serve runs once, then every shard's journal is persisted
/// into its own `shard-<s>` directory under the base [`WalConfig::dir`],
/// and the `node_kills` victim shard (drawn from the *base* fault seed,
/// so per-shard seed re-mixing never moves it) is killed mid-journal and
/// recovered.
///
/// # Errors
///
/// Returns [`PersistError`] on store I/O failure or a failed recovery.
pub fn serve_cluster_durable(
    cluster: &Cluster<'_>,
    trace: &ArrivalTrace,
) -> Result<ClusterOutcome, PersistError> {
    let config = cluster.server().config();
    let order: Vec<usize> = (0..cluster.router().shards()).collect();
    let (mut out, journals) = cluster.serve_journaled(trace, &order);
    let wal = &config.wal;
    if !wal.enabled {
        return Ok(out);
    }
    let lens: Vec<usize> = journals.iter().map(Vec::len).collect();
    let kill = config.faults.node_kill(&lens);
    let root = PathBuf::from(&wal.dir);
    for (shard, records) in journals.iter().enumerate() {
        let kill_at = kill
            .filter(|&(victim, _)| victim == shard)
            .map(|(_, at)| at);
        out.report.per_shard[shard].durability =
            persist(&root.join(format!("shard-{shard}")), wal, records, kill_at)?;
    }
    let r = &mut out.report;
    r.durability = DurabilityReport::merge(r.per_shard.iter().map(|s| &s.durability));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_parses_the_full_option_set() {
        let cfg = WalConfig::parse("/tmp/wal,snap=64,fsync-batch=4,fsync-us=10.5,replay-us=1")
            .expect("valid spec");
        assert!(cfg.enabled);
        assert_eq!(cfg.dir, "/tmp/wal");
        assert_eq!(cfg.snapshot_every, 64);
        assert_eq!(cfg.fsync_batch, 4);
        assert_eq!(cfg.fsync_us, 10.5);
        assert_eq!(cfg.replay_us, 1.0);
        assert!(cfg.validate().is_ok());
    }

    #[test]
    fn spec_off_and_empty_disable() {
        for s in ["", "off", "0", "  "] {
            let cfg = WalConfig::parse(s).expect("disabling spec");
            assert!(!cfg.enabled, "{s:?} should disable the WAL");
            assert_eq!(cfg, WalConfig::default());
        }
    }

    #[test]
    fn malformed_specs_are_hard_errors() {
        assert!(matches!(
            WalConfig::parse(",snap=4"),
            Err(WalSpecError::BadShape { .. })
        ));
        assert!(matches!(
            WalConfig::parse("snap=4"),
            Err(WalSpecError::BadShape { .. })
        ));
        assert!(matches!(
            WalConfig::parse("/tmp/w,snap"),
            Err(WalSpecError::BadShape { .. })
        ));
        assert!(matches!(
            WalConfig::parse("/tmp/w,snapshots=4"),
            Err(WalSpecError::UnknownOption { .. })
        ));
        assert!(matches!(
            WalConfig::parse("/tmp/w,snap=abc"),
            Err(WalSpecError::BadValue { .. })
        ));
        assert!(matches!(
            WalConfig::parse("/tmp/w,fsync-batch=0"),
            Err(WalSpecError::BadValue { .. })
        ));
        assert!(matches!(
            WalConfig::parse("/tmp/w,fsync-us=-1"),
            Err(WalSpecError::BadValue { .. })
        ));
        assert!(matches!(
            WalConfig::parse("/tmp/w,replay-us=NaN"),
            Err(WalSpecError::BadValue { .. })
        ));
    }

    #[test]
    fn validation_rejects_inconsistent_configs() {
        let mut cfg = WalConfig {
            enabled: true,
            ..WalConfig::default()
        };
        assert!(cfg.validate().is_err(), "enabled without a directory");
        cfg.dir = "/tmp/w".into();
        assert!(cfg.validate().is_ok());
        cfg.fsync_batch = 0;
        assert!(cfg.validate().is_err());
        let orphan_snap = WalConfig {
            snapshot_every: 8,
            ..WalConfig::default()
        };
        assert!(orphan_snap.validate().is_err(), "snapshots without a WAL");
    }

    #[test]
    fn durability_report_renders_every_counter() {
        let dr = DurabilityReport {
            enabled: true,
            records: 100,
            story_records: 40,
            completion_records: 50,
            evict_records: 10,
            wal_bytes: 4096,
            segments: 3,
            fsyncs: 13,
            fsync_s: 6.5e-4,
            snapshots: 2,
            snapshot_bytes: 2048,
            gc_segments: 2,
            gc_snapshots: 1,
            gc_bytes: 1024,
            gc_stories: 5,
            node_kills: 1,
            torn_tails: 1,
            dropped_bytes: 33,
            replayed_records: 77,
            recovered_completions: 25,
            redispatched: 25,
            recovery_mttr_s: 1.54e-4,
        };
        let r = dr.render();
        for needle in [
            "100 (40/50/10)",
            "4096 B over 3 segments",
            "13",
            "2 (2048 B)",
            "1 (1)",
            "77",
            "25",
            "33",
        ] {
            assert!(r.contains(needle), "missing {needle:?} in:\n{r}");
        }
    }
}
