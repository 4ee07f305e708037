//! Snapshots, compaction, and the replayable store state.
//!
//! A snapshot is a point-in-time image of the live story set plus every
//! completion so far, keyed by `(task, story_digest)`. It is written as a
//! `snap-<covered_seq:08>.snap` container reusing the WAL frame format:
//!
//! ```text
//! container := header-frame record-frame* seal-frame
//! header    := [0xFE] [covers_seq: u64] [stories: u64] [completions: u64]
//! ```
//!
//! where `covers_seq` is the highest *sealed* WAL segment the snapshot
//! includes. The container is written to a `.tmp` sibling, fsynced, and
//! renamed into place, so a snapshot either exists completely or not at
//! all — any damage found in one is [`StoreError::Corrupt`], never a
//! recoverable tear. Compaction ([`gc`]) then drops WAL segments fully
//! covered by the snapshot and superseded snapshots; stories with zero
//! residency (evicted from every shard) are dropped from the image at
//! snapshot time (the `wal3`-style garbage pass).

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};

use crate::record::{WalRecord, KIND_COMPLETION, KIND_EVICT, KIND_STORY};
use crate::wal::{
    decode_segment_bytes_raw, frame_payload, list_numbered, list_segments, KIND_SNAP_HEADER,
};
use crate::StoreError;

fn io_err(path: &Path, source: std::io::Error) -> StoreError {
    StoreError::Io {
        path: path.display().to_string(),
        source,
    }
}

/// The path of the snapshot covering WAL segment `seq` under `dir`.
#[must_use]
pub fn snapshot_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("snap-{seq:08}.snap"))
}

/// Lists `snap-*.snap` files under `dir`, sorted by covered sequence.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn list_snapshots(dir: &Path) -> Result<Vec<(u64, PathBuf)>, StoreError> {
    list_numbered(dir, "snap-", ".snap")
}

/// A point-in-time image of the store.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SnapshotState {
    /// Highest sealed WAL segment included in this image.
    pub covers_seq: u64,
    /// Live stories (one record per `(task, digest)`, `resident` count set),
    /// sorted by `(task, digest)`.
    pub stories: Vec<WalRecord>,
    /// Completions so far, sorted by request id.
    pub completions: Vec<WalRecord>,
}

impl SnapshotState {
    /// Records carried by this image.
    #[must_use]
    pub fn record_count(&self) -> u64 {
        (self.stories.len() + self.completions.len()) as u64
    }
}

fn header_payload(state: &SnapshotState) -> Vec<u8> {
    let mut out = Vec::with_capacity(25);
    out.push(KIND_SNAP_HEADER);
    out.extend_from_slice(&state.covers_seq.to_le_bytes());
    out.extend_from_slice(&(state.stories.len() as u64).to_le_bytes());
    out.extend_from_slice(&(state.completions.len() as u64).to_le_bytes());
    out
}

fn parse_header(payload: &[u8]) -> Result<(u64, u64, u64), String> {
    if payload.len() != 25 || payload[0] != KIND_SNAP_HEADER {
        return Err(format!("bad snapshot header ({} bytes)", payload.len()));
    }
    let u64_at = |at: usize| u64::from_le_bytes(payload[at..at + 8].try_into().expect("8 bytes"));
    Ok((u64_at(1), u64_at(9), u64_at(17)))
}

/// Writes `state` atomically (tmp + fsync + rename), returning the bytes
/// written.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn write_snapshot(dir: &Path, state: &SnapshotState) -> Result<u64, StoreError> {
    fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let mut bytes = Vec::new();
    let mut count = 0u64;
    let mut xor = 0u64;
    for payload in std::iter::once(header_payload(state)).chain(
        state
            .stories
            .iter()
            .chain(&state.completions)
            .map(WalRecord::to_bytes),
    ) {
        let frame = frame_payload(&payload);
        xor ^= u64::from(crate::crc32::crc32(&payload));
        count += 1;
        bytes.extend_from_slice(&frame);
    }
    bytes.extend_from_slice(&frame_payload(&crate::wal::seal_payload(count, xor)));

    let path = snapshot_path(dir, state.covers_seq);
    let tmp = path.with_extension("snap.tmp");
    fs::write(&tmp, &bytes).map_err(|e| io_err(&tmp, e))?;
    let file = fs::File::open(&tmp).map_err(|e| io_err(&tmp, e))?;
    file.sync_all().map_err(|e| io_err(&tmp, e))?;
    fs::rename(&tmp, &path).map_err(|e| io_err(&path, e))?;
    Ok(bytes.len() as u64)
}

/// Loads the newest snapshot under `dir`, if any. Snapshots are installed
/// atomically, so any structural damage is [`StoreError::Corrupt`].
///
/// # Errors
///
/// [`StoreError::Corrupt`] on damage, [`StoreError::Io`] on filesystem
/// failure.
pub fn load_latest(dir: &Path) -> Result<Option<SnapshotState>, StoreError> {
    let Some((seq, path)) = list_snapshots(dir)?.into_iter().next_back() else {
        return Ok(None);
    };
    let label = path.display().to_string();
    let bytes = fs::read(&path).map_err(|e| io_err(&path, e))?;
    let corrupt = |reason: String| StoreError::Corrupt {
        path: label.clone(),
        offset: 0,
        reason,
    };
    // A snapshot must be fully sealed; torn-tail shapes inside one are
    // corruption (rename is atomic, so partial images never get a name).
    let frames = decode_segment_bytes_raw(&bytes, &label).map_err(|e| match e {
        StoreError::TornTail {
            path,
            offset,
            reason,
        } => StoreError::Corrupt {
            path,
            offset,
            reason,
        },
        other => other,
    })?;
    let mut iter = frames.into_iter();
    let header = iter
        .next()
        .ok_or_else(|| corrupt("empty snapshot".to_string()))?;
    let (covers_seq, n_stories, n_completions) = parse_header(header).map_err(corrupt)?;
    if covers_seq != seq {
        return Err(corrupt(format!(
            "snapshot file named for segment {seq} but covers {covers_seq}"
        )));
    }
    let mut records = Vec::new();
    for payload in iter {
        records.push(WalRecord::from_bytes(payload).map_err(corrupt)?);
    }
    let (n_stories, n_completions) = (n_stories as usize, n_completions as usize);
    if records.len() != n_stories + n_completions {
        return Err(corrupt(format!(
            "snapshot header promises {n_stories}+{n_completions} records, found {}",
            records.len()
        )));
    }
    let completions = records.split_off(n_stories);
    Ok(Some(SnapshotState {
        covers_seq,
        stories: records,
        completions,
    }))
}

/// Compaction counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct GcStats {
    /// WAL segments deleted (fully covered by the snapshot).
    pub segments: u64,
    /// Superseded snapshot files deleted.
    pub snapshots: u64,
    /// Bytes reclaimed.
    pub bytes: u64,
}

/// Garbage-collects everything a snapshot covering `covers_seq` makes
/// redundant: WAL segments with sequence ≤ `covers_seq`, older snapshots,
/// and stray `.tmp` files from interrupted snapshot writes.
///
/// # Errors
///
/// Returns [`StoreError::Io`] on filesystem failure.
pub fn gc(dir: &Path, covers_seq: u64) -> Result<GcStats, StoreError> {
    let mut stats = GcStats::default();
    for (seq, path) in list_segments(dir)? {
        if seq <= covers_seq {
            stats.bytes += fs::metadata(&path).map_err(|e| io_err(&path, e))?.len();
            fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            stats.segments += 1;
        }
    }
    for (seq, path) in list_snapshots(dir)? {
        if seq < covers_seq {
            stats.bytes += fs::metadata(&path).map_err(|e| io_err(&path, e))?.len();
            fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            stats.snapshots += 1;
        }
    }
    if dir.exists() {
        for entry in fs::read_dir(dir).map_err(|e| io_err(dir, e))? {
            let entry = entry.map_err(|e| io_err(dir, e))?;
            let path = entry.path();
            if path.extension().is_some_and(|e| e == "tmp") {
                fs::remove_file(&path).map_err(|e| io_err(&path, e))?;
            }
        }
    }
    Ok(stats)
}

#[derive(Debug, Clone, PartialEq, Eq)]
struct StorySlot {
    /// Net residency across all instances (writes minus evictions).
    resident: i64,
    /// The latest write record (with `resident` normalised to 0).
    last: WalRecord,
}

/// The replayable store state: a deterministic fold over [`WalRecord`]s.
///
/// Both the journaling side (to decide what a snapshot keeps) and the
/// recovery side (to verify a replayed directory against a reference
/// fold) use this; equality of two folds is the recovery integrity check.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct StoreState {
    stories: BTreeMap<(u32, u64), StorySlot>,
    completions: BTreeMap<u64, WalRecord>,
}

impl StoreState {
    /// Applies one record.
    pub fn apply(&mut self, rec: &WalRecord) {
        match rec.kind {
            KIND_STORY => {
                let add = if rec.resident == 0 {
                    1
                } else {
                    i64::from(rec.resident)
                };
                let mut last = rec.clone();
                last.resident = 0;
                let slot = self
                    .stories
                    .entry((rec.task, rec.digest))
                    .or_insert_with(|| StorySlot {
                        resident: 0,
                        last: last.clone(),
                    });
                slot.resident += add;
                slot.last = last;
            }
            KIND_EVICT => {
                let mut ghost = rec.clone();
                ghost.resident = 0;
                let slot = self
                    .stories
                    .entry((rec.task, rec.digest))
                    .or_insert_with(|| StorySlot {
                        resident: 0,
                        last: ghost,
                    });
                slot.resident -= 1;
            }
            KIND_COMPLETION => {
                self.completions.insert(rec.id, rec.clone());
            }
            _ => unreachable!("decoded records always have a known kind"),
        }
    }

    /// Folds a snapshot image plus subsequent records.
    #[must_use]
    pub fn from_replay<'a>(
        snapshot: Option<&SnapshotState>,
        records: impl IntoIterator<Item = &'a WalRecord>,
    ) -> Self {
        let mut state = Self::default();
        if let Some(snap) = snapshot {
            for r in snap.stories.iter().chain(&snap.completions) {
                state.apply(r);
            }
        }
        for r in records {
            state.apply(r);
        }
        state
    }

    /// Number of stories with positive residency.
    #[must_use]
    pub fn live_stories(&self) -> usize {
        self.stories.values().filter(|s| s.resident > 0).count()
    }

    /// Completions recorded so far, in request-id order.
    pub fn completions(&self) -> impl Iterator<Item = &WalRecord> {
        self.completions.values()
    }

    /// Number of completions recorded.
    #[must_use]
    pub fn completion_count(&self) -> usize {
        self.completions.len()
    }

    /// Drops stories with zero (or negative) net residency, returning how
    /// many were dropped. Used both when cutting a snapshot and to bring a
    /// reference fold to the same collapsed form as a replayed one.
    pub fn collapse(&mut self) -> u64 {
        let before = self.stories.len();
        self.stories.retain(|_, slot| slot.resident > 0);
        (before - self.stories.len()) as u64
    }

    /// Cuts a snapshot image covering sealed segment `covers_seq`,
    /// dropping dead stories from the state. Returns the image and the
    /// number of dead stories garbage-collected out of it.
    pub fn to_snapshot(&mut self, covers_seq: u64) -> (SnapshotState, u64) {
        let dropped = self.collapse();
        let stories = self
            .stories
            .values()
            .map(|slot| {
                let mut rec = slot.last.clone();
                rec.resident = u32::try_from(slot.resident).expect("collapsed residency > 0");
                rec
            })
            .collect();
        let completions = self.completions.values().cloned().collect();
        (
            SnapshotState {
                covers_seq,
                stories,
                completions,
            },
            dropped,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{recover_dir, replay_dir, WalWriter};

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("mann_store_snap_{name}"));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn snapshot_round_trips_and_gc_drops_covered_segments() {
        let dir = tmp("round_trip");
        let mut w = WalWriter::open(&dir, 4).expect("open");
        let mut state = StoreState::default();
        let recs = vec![
            WalRecord::story(11, 0, 100, vec![1, 2]),
            WalRecord::story(22, 1, 200, vec![3]),
            WalRecord::completion(1, 4, 250),
            WalRecord::evict(11, 0, 300),
        ];
        for r in &recs {
            w.append(r).expect("append");
            state.apply(r);
        }
        let sealed = w.rotate().expect("rotate");
        let (snap, dropped) = state.to_snapshot(sealed);
        assert_eq!(dropped, 1, "story 11 was evicted everywhere");
        assert_eq!(snap.stories.len(), 1);
        assert_eq!(snap.completions.len(), 1);
        write_snapshot(&dir, &snap).expect("write snapshot");
        let gc_stats = gc(&dir, sealed).expect("gc");
        assert_eq!(gc_stats.segments, 1);

        // Post-snapshot records land in the new segment.
        let tail = WalRecord::story(33, 0, 400, vec![9]);
        w.append(&tail).expect("append");
        w.finish().expect("finish");

        let replay = replay_dir(&dir).expect("replay");
        let loaded = replay.snapshot.as_ref().expect("snapshot present");
        assert_eq!(loaded, &snap);
        assert_eq!(replay.records, vec![tail.clone()]);
        assert_eq!(replay.replayed_records, 3);

        // The replayed fold matches the reference fold, collapsed.
        let recovered = StoreState::from_replay(replay.snapshot.as_ref(), &replay.records);
        let mut reference = StoreState::default();
        for r in recs.iter().chain(std::iter::once(&tail)) {
            reference.apply(r);
        }
        reference.collapse();
        let mut recovered = recovered;
        recovered.collapse();
        assert_eq!(recovered, reference);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn snapshot_preserves_multi_instance_residency() {
        let mut state = StoreState::default();
        // The same story resident on two instances.
        state.apply(&WalRecord::story(7, 2, 10, vec![5]));
        state.apply(&WalRecord::story(7, 2, 20, vec![5]));
        let (snap, _) = state.clone().to_snapshot(0);
        assert_eq!(snap.stories[0].resident, 2);
        let mut replayed = StoreState::from_replay(Some(&snap), []);
        // One eviction leaves it live; a second kills it.
        replayed.apply(&WalRecord::evict(7, 2, 30));
        assert_eq!(replayed.live_stories(), 1);
        replayed.apply(&WalRecord::evict(7, 2, 40));
        assert_eq!(replayed.live_stories(), 0);
    }

    #[test]
    fn corrupt_snapshot_is_fatal_for_recovery_too() {
        let dir = tmp("corrupt");
        let mut state = StoreState::default();
        state.apply(&WalRecord::story(1, 0, 5, vec![1]));
        let (snap, _) = state.to_snapshot(0);
        write_snapshot(&dir, &snap).expect("write");
        let path = snapshot_path(&dir, 0);
        let mut bytes = fs::read(&path).expect("read");
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
        fs::write(&path, &bytes).expect("rewrite");
        assert!(matches!(load_latest(&dir), Err(StoreError::Corrupt { .. })));
        assert!(
            recover_dir(&dir).is_err(),
            "snapshot damage is never truncatable"
        );
        let _ = fs::remove_dir_all(&dir);
    }
}
