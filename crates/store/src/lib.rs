//! Durable story store for the MANN serving layer.
//!
//! The source paper splits story *write* (CONTROL + INPUT&WRITE phases)
//! from story *query*, which makes the write path a natural journaling
//! boundary: this crate persists every story admission, eviction, and
//! request completion as a checksummed, length-framed record in a
//! segmented write-ahead log, compacts the log with atomic snapshots of
//! the live story set, and recovers deterministically after a crash.
//!
//! The crate is deliberately *mechanism only*: it knows nothing about
//! servers, clusters, or simulated time beyond the picosecond stamps it
//! stores. The serving layer (`mann-serve`) decides what to journal,
//! when to snapshot, and how to charge fsync latency to its host-side
//! cost model; this crate guarantees the bytes on disk are either valid
//! or loudly detected as damaged.
//!
//! - [`wal`] — frame format, [`wal::WalWriter`], strict [`wal::replay_dir`]
//!   and lenient [`wal::recover_dir`].
//! - [`snapshot`] — snapshot containers, compaction ([`snapshot::gc`]),
//!   and the replayable [`snapshot::StoreState`] fold.
//! - [`crc32`] — the IEEE CRC-32 every frame is protected by.

#![forbid(unsafe_code)]

pub mod crc32;
pub mod record;
pub mod snapshot;
pub mod wal;

pub use crc32::crc32 as crc32_of;
pub use record::{WalRecord, KIND_COMPLETION, KIND_EVICT, KIND_STORY};
pub use snapshot::{
    gc, list_snapshots, load_latest, snapshot_path, write_snapshot, GcStats, SnapshotState,
    StoreState,
};
pub use wal::{
    decode_segment_bytes, frame_payload, frame_record, list_segments, recover_dir,
    recover_segment_bytes, replay_dir, seal_payload, segment_path, Recovery, Replay, SegmentRead,
    SegmentRecovery, WalStats, WalWriter, FRAME_HEADER, KIND_SEAL, MAX_FRAME,
};

/// Typed failures from every store I/O path — nothing in this crate
/// `unwrap`s a file operation.
#[derive(Debug, thiserror::Error)]
pub enum StoreError {
    /// Filesystem failure, with the path that failed.
    #[error("store io error at {path}: {source}")]
    Io {
        /// The file or directory involved.
        path: String,
        /// The underlying failure.
        source: std::io::Error,
    },
    /// Tail-truncation-shaped damage: the file ends mid-frame, with a
    /// checksum-failed final frame, or without its seal. A strict open
    /// refuses this; crash recovery truncates it (final segment only).
    #[error("torn WAL tail in {path} at byte {offset}: {reason}")]
    TornTail {
        /// The damaged file.
        path: String,
        /// Byte offset of the first bad frame.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// Damage that is not a recoverable tail: mid-file corruption, seal
    /// mismatches, or a damaged snapshot. Never silently absorbed.
    #[error("corrupt store file {path} at byte {offset}: {reason}")]
    Corrupt {
        /// The damaged file.
        path: String,
        /// Byte offset of the damage.
        offset: u64,
        /// What was wrong.
        reason: String,
    },
    /// Recovery produced a state that contradicts the journal.
    #[error("store recovery failed: {0}")]
    Recovery(String),
    /// Invalid durability configuration.
    #[error("invalid store configuration: {0}")]
    Config(String),
}
