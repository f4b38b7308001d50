//! The storage engine: an append-only event log over segment files,
//! with snapshot compaction and crash recovery.
//!
//! # On-disk layout
//!
//! A store directory holds three kinds of files:
//!
//! ```text
//! wal-00000000000000000001.log    segment: frames (see `frame`), first seq 1
//! wal-00000000000000000812.log    next segment after size-based rotation
//! snapshot-00000000000000000811.snap   base image covering seq ≤ 811
//! delta-00000000000000001323.snap      delta image covering 811 < seq ≤ 1323
//! ```
//!
//! Records carry monotonically increasing sequence numbers, starting
//! from one. A snapshot file named `snapshot-{N}` (the *base*) asserts
//! that its payload captures the effect of every record with seq ≤ N. A
//! `delta-{N}` file asserts that the base plus every delta before it
//! plus its own payload capture every record with seq ≤ N; what a delta
//! holds is the caller's business. Compaction writes either kind
//! atomically (temp sibling + fsync + rename + directory fsync — the
//! same pattern `RepositorySnapshot::save` uses) and then deletes the
//! segments it covers. A new base also deletes every delta.
//!
//! # Recovery
//!
//! [`EventStore::open`] replays the directory: it loads the newest
//! base and the deltas newer than it, scans every segment, skips
//! records the images already cover, and returns the tail records for
//! the caller to apply. A torn final record — the signature of a crash
//! mid-append — is truncated away with a warning; a damaged record
//! *inside* the committed history is an error, never silently dropped.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::StoreError;
use crate::fault::{DiskFault, FaultPlan};
use crate::frame::{self, ScanEnd, MAX_PAYLOAD_BYTES};

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every append: nothing acknowledged is ever
    /// lost, at the cost of one disk round-trip per record.
    Always,
    /// `fdatasync` at most once per interval: bounds data loss to the
    /// records appended within the window.
    Interval(Duration),
    /// Never sync explicitly; the OS flushes on its own schedule. A
    /// process crash loses nothing (the page cache survives), a power
    /// loss may lose the unfsynced tail.
    Never,
}

impl SyncPolicy {
    /// Parses the CLI spelling: `always`, `never`, or `interval[:ms]`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "always" => Ok(SyncPolicy::Always),
            "never" => Ok(SyncPolicy::Never),
            "interval" => Ok(SyncPolicy::Interval(Duration::from_millis(100))),
            other => match other.strip_prefix("interval:") {
                Some(ms) => ms
                    .parse::<u64>()
                    .map(|ms| SyncPolicy::Interval(Duration::from_millis(ms)))
                    .map_err(|_| format!("bad interval milliseconds {ms:?}")),
                None => Err(format!(
                    "unknown fsync policy {other:?} (expected always | interval[:ms] | never)"
                )),
            },
        }
    }
}

/// Tunables of the store.
#[derive(Debug, Clone)]
pub struct StoreOptions {
    /// Flush policy for appends.
    pub sync: SyncPolicy,
    /// Rotate to a new segment once the current one reaches this size.
    pub max_segment_bytes: u64,
    /// A seeded, replayable fault schedule (see [`FaultPlan`]) shared
    /// with the replication layer. `None` in production.
    pub fault_plan: Option<std::sync::Arc<FaultPlan>>,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            sync: SyncPolicy::Always,
            max_segment_bytes: 8 * 1024 * 1024,
            fault_plan: None,
        }
    }
}

/// One recovered record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// The record's sequence number.
    pub seq: u64,
    /// The payload exactly as appended.
    pub payload: Vec<u8>,
}

/// One image (a base snapshot or a delta) found during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Snapshot {
    /// The image covers every record with seq ≤ `last_seq`.
    pub last_seq: u64,
    /// The caller's payload, byte for byte.
    pub payload: Vec<u8>,
}

/// Everything [`EventStore::open`] found on disk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// The newest base snapshot, when one exists.
    pub snapshot: Option<Snapshot>,
    /// The deltas written on top of that base, in sequence order.
    pub deltas: Vec<Snapshot>,
    /// Tail records not covered by the base or its deltas, in sequence
    /// order.
    pub events: Vec<Record>,
    /// Repairs performed (torn tails truncated), human-readable.
    pub warnings: Vec<String>,
    /// Number of segment files scanned.
    pub segments: usize,
}

struct Inner {
    file: File,
    segment_path: PathBuf,
    segment_bytes: u64,
    segment_records: u64,
    next_seq: u64,
    since_snapshot: u64,
    /// Payload bytes of the current base and of its deltas; the
    /// caller's fold rule compares them.
    base_bytes: u64,
    delta_bytes: u64,
    last_sync: Instant,
    dirty: bool,
    /// Set when an append failed mid-write; holds the cause. A poisoned
    /// writer refuses every further append/sync/snapshot so a half-frame
    /// can never be followed by "valid" data.
    poisoned: Option<String>,
}

/// A durable append-only event log bound to one directory.
///
/// Thread-safe: appends serialize on an internal mutex, so any number
/// of threads can share one store behind an `Arc`.
pub struct EventStore {
    dir: PathBuf,
    options: StoreOptions,
    inner: Mutex<Inner>,
    /// Durable replication epoch, mirrored from the `epoch` file for
    /// lock-free reads. See [`EventStore::set_epoch`].
    epoch: AtomicU64,
}

impl std::fmt::Debug for EventStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventStore")
            .field("dir", &self.dir)
            .field("options", &self.options)
            .finish_non_exhaustive()
    }
}

pub(crate) fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.log")
}

pub(crate) fn snapshot_name(last_seq: u64) -> String {
    format!("snapshot-{last_seq:020}.snap")
}

pub(crate) fn delta_name(last_seq: u64) -> String {
    format!("delta-{last_seq:020}.snap")
}

fn parse_numbered(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// The sequence numbers a store directory's file names carry, by kind,
/// each list sorted ascending. Every reader of the directory lists it
/// through here.
#[derive(Debug, Default)]
pub(crate) struct StoreFiles {
    /// First seqs of the `wal-{N}.log` segments.
    pub(crate) segments: Vec<u64>,
    /// Last seqs of the `snapshot-{N}.snap` base images.
    pub(crate) bases: Vec<u64>,
    /// Last seqs of the `delta-{N}.snap` delta images.
    pub(crate) deltas: Vec<u64>,
}

impl StoreFiles {
    pub(crate) fn list(dir: &Path) -> std::io::Result<Self> {
        let mut files = Self::default();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if let Some(seq) = parse_numbered(&name, "wal-", ".log") {
                files.segments.push(seq);
            } else if let Some(seq) = parse_numbered(&name, "snapshot-", ".snap") {
                files.bases.push(seq);
            } else if let Some(seq) = parse_numbered(&name, "delta-", ".snap") {
                files.deltas.push(seq);
            }
        }
        files.segments.sort_unstable();
        files.bases.sort_unstable();
        files.deltas.sort_unstable();
        Ok(files)
    }
}

/// Flushes directory metadata (new/renamed/deleted entries) to disk.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Name of the durable epoch file inside a store directory.
const EPOCH_FILE: &str = "epoch";

/// The epoch a store starts at when no `epoch` file exists yet.
pub const INITIAL_EPOCH: u64 = 1;

fn read_epoch_file(dir: &Path) -> Result<u64, StoreError> {
    match std::fs::read_to_string(dir.join(EPOCH_FILE)) {
        Ok(text) => text.trim().parse().map_err(|_| StoreError::Corrupt {
            file: EPOCH_FILE.to_string(),
            offset: 0,
            reason: format!("unparseable epoch {:?}", text.trim()),
        }),
        Err(err) if err.kind() == std::io::ErrorKind::NotFound => Ok(INITIAL_EPOCH),
        Err(err) => Err(err.into()),
    }
}

fn write_epoch_file(dir: &Path, epoch: u64) -> Result<(), StoreError> {
    let final_path = dir.join(EPOCH_FILE);
    let tmp_path = dir.join(format!(".{EPOCH_FILE}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut file = File::create(&tmp_path)?;
        file.write_all(epoch.to_string().as_bytes())?;
        file.sync_all()?;
        std::fs::rename(&tmp_path, &final_path)?;
        sync_dir(dir)
    })();
    if result.is_err() {
        let _ = std::fs::remove_file(&tmp_path);
    }
    result.map_err(Into::into)
}

impl EventStore {
    /// Opens (or creates) the store at `dir`, recovering whatever a
    /// previous process left behind.
    ///
    /// Torn final records are truncated away and reported in
    /// [`Recovered::warnings`]; the returned store appends after the
    /// last intact record.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure and
    /// [`StoreError::Corrupt`] when the committed history is damaged
    /// (mid-stream CRC mismatch, missing sequence numbers).
    pub fn open(
        dir: impl Into<PathBuf>,
        options: StoreOptions,
    ) -> Result<(Self, Recovered), StoreError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;

        let StoreFiles {
            segments: segment_seqs,
            bases: snapshot_seqs,
            deltas: delta_seqs,
        } = StoreFiles::list(&dir)?;

        // Newest base wins; older bases, and deltas at or below it, are
        // leftovers of a crash between a base write and its cleanup.
        let snapshot = match snapshot_seqs.last() {
            Some(&last_seq) => {
                let payload = std::fs::read(dir.join(snapshot_name(last_seq)))?;
                for &stale in &snapshot_seqs[..snapshot_seqs.len() - 1] {
                    let _ = std::fs::remove_file(dir.join(snapshot_name(stale)));
                }
                Some(Snapshot { last_seq, payload })
            }
            None => None,
        };
        let base_seq = snapshot.as_ref().map_or(0, |s| s.last_seq);
        let mut deltas = Vec::new();
        for &seq in &delta_seqs {
            if seq <= base_seq {
                let _ = std::fs::remove_file(dir.join(delta_name(seq)));
                continue;
            }
            if snapshot.is_none() {
                return Err(StoreError::Corrupt {
                    file: delta_name(seq),
                    offset: 0,
                    reason: "delta image without a base snapshot".to_string(),
                });
            }
            let payload = std::fs::read(dir.join(delta_name(seq)))?;
            deltas.push(Snapshot {
                last_seq: seq,
                payload,
            });
        }
        let base_bytes = snapshot.as_ref().map_or(0, |s| s.payload.len() as u64);
        let delta_bytes = deltas.iter().map(|d| d.payload.len() as u64).sum();
        // The tail starts after the newest image.
        let snapshot_seq = deltas.last().map_or(base_seq, |d| d.last_seq);

        let mut events: Vec<Record> = Vec::new();
        let mut warnings = Vec::new();
        let mut expected = snapshot_seq + 1;
        let mut last_segment_state: Option<(PathBuf, u64, u64)> = None;
        for (index, &first_seq) in segment_seqs.iter().enumerate() {
            let path = dir.join(segment_name(first_seq));
            let bytes = std::fs::read(&path)?;
            let (frames, end) = frame::scan(&bytes);
            let frame_count = frames.len() as u64;
            let is_last = index == segment_seqs.len() - 1
                || segment_seqs[index + 1..].iter().all(|&seq| {
                    std::fs::metadata(dir.join(segment_name(seq)))
                        .map(|m| m.len() == 0)
                        .unwrap_or(true)
                });
            let file_name = path
                .file_name()
                .expect("segment has a name")
                .to_string_lossy()
                .into_owned();
            let valid_end = frames.last().map_or(0, |f| f.end_offset);
            match end {
                ScanEnd::Clean => {}
                ScanEnd::Torn { offset, reason } if is_last => {
                    let dropped = bytes.len() as u64 - valid_end;
                    warnings.push(format!(
                        "truncated torn tail of {file_name}: {reason} at offset {offset} ({dropped} bytes dropped)"
                    ));
                    let file = OpenOptions::new().write(true).open(&path)?;
                    file.set_len(valid_end)?;
                    file.sync_all()?;
                }
                ScanEnd::Torn { offset, reason } => {
                    return Err(StoreError::Corrupt {
                        file: file_name,
                        offset,
                        reason: format!("{reason}, with later segments present"),
                    });
                }
                ScanEnd::Corrupt { offset, reason } => {
                    return Err(StoreError::Corrupt {
                        file: file_name,
                        offset,
                        reason,
                    });
                }
            }
            for frame in frames {
                if frame.seq <= snapshot_seq {
                    continue; // covered by the snapshot; segment not yet cleaned up
                }
                if frame.seq != expected {
                    return Err(StoreError::Corrupt {
                        file: file_name,
                        offset: frame.end_offset,
                        reason: format!("sequence gap: expected {expected}, found {}", frame.seq),
                    });
                }
                expected += 1;
                events.push(Record {
                    seq: frame.seq,
                    payload: frame.payload,
                });
            }
            if is_last {
                last_segment_state = Some((path.clone(), valid_end, frame_count));
                break;
            }
        }

        let next_seq = expected;
        let segments = segment_seqs.len();

        // Position the writer: continue the last segment when it still
        // has room, otherwise start a fresh one.
        let (segment_path, segment_bytes, segment_records) = match last_segment_state {
            Some((path, bytes, records)) if bytes < options.max_segment_bytes => {
                (path, bytes, records)
            }
            _ => (dir.join(segment_name(next_seq)), 0, 0),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&segment_path)?;
        sync_dir(&dir)?;

        let epoch = read_epoch_file(&dir)?;
        let store = Self {
            dir,
            options,
            inner: Mutex::new(Inner {
                file,
                segment_path,
                segment_bytes,
                segment_records,
                next_seq,
                since_snapshot: events.len() as u64,
                base_bytes,
                delta_bytes,
                last_sync: Instant::now(),
                dirty: false,
                poisoned: None,
            }),
            epoch: AtomicU64::new(epoch),
        };
        Ok((
            store,
            Recovered {
                snapshot,
                deltas,
                events,
                warnings,
                segments,
            },
        ))
    }

    /// The directory this store lives in.
    #[must_use]
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configured fault schedule, if any (the scrubber's bit-rot
    /// injection seam consults it).
    #[must_use]
    pub fn fault_plan(&self) -> Option<std::sync::Arc<FaultPlan>> {
        self.options.fault_plan.clone()
    }

    /// Appends one record, returning its sequence number. Durability
    /// depends on the configured [`SyncPolicy`].
    ///
    /// A write failure (`ENOSPC`, `EIO`, …) truncates the segment back
    /// to the last intact frame and poisons the writer: the half-frame
    /// is never visible to recovery or replication, and no record is
    /// left behind for the failed sequence number. The poison is *not*
    /// permanent: the next append first re-runs the truncate-and-flush
    /// recovery (see [`EventStore::try_heal`]) and proceeds normally
    /// when the disk has healed, so a transient `ENOSPC` degrades the
    /// store instead of killing it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::RecordTooLarge`] for oversized payloads,
    /// [`StoreError::Io`] on write failure, and [`StoreError::Poisoned`]
    /// when an earlier failure could not be healed.
    pub fn append(&self, payload: &[u8]) -> Result<u64, StoreError> {
        if payload.len() > MAX_PAYLOAD_BYTES {
            return Err(StoreError::RecordTooLarge {
                size: payload.len(),
                limit: MAX_PAYLOAD_BYTES,
            });
        }
        let mut inner = self.inner.lock().expect("store mutex");
        self.heal_locked(&mut inner)?;
        let seq = inner.next_seq;
        let frame = frame::encode(seq, payload);
        if inner.segment_records > 0
            && inner.segment_bytes + frame.len() as u64 > self.options.max_segment_bytes
        {
            if let Err(err) = self.rotate(&mut inner, seq) {
                return Err(self.poison(&mut inner, err));
            }
        }
        if let Err(err) = self.write_frame(&mut inner, seq, &frame) {
            return Err(self.poison(&mut inner, err));
        }
        inner.segment_bytes += frame.len() as u64;
        inner.segment_records += 1;
        inner.next_seq += 1;
        inner.since_snapshot += 1;
        inner.dirty = true;
        match self.options.sync {
            SyncPolicy::Always => {
                if let Err(err) = self.segment_sync(&mut inner) {
                    Self::roll_back_append(&mut inner, frame.len());
                    return Err(self.poison(&mut inner, err));
                }
                inner.last_sync = Instant::now();
                inner.dirty = false;
            }
            SyncPolicy::Interval(window) => {
                if inner.last_sync.elapsed() >= window {
                    if let Err(err) = self.segment_sync(&mut inner) {
                        Self::roll_back_append(&mut inner, frame.len());
                        return Err(self.poison(&mut inner, err));
                    }
                    inner.last_sync = Instant::now();
                    inner.dirty = false;
                }
            }
            SyncPolicy::Never => {}
        }
        Ok(seq)
    }

    /// Undoes the bookkeeping of the append in flight after its flush
    /// failed, so a failed append uniformly leaves no record behind:
    /// the sequence number is reused by the next attempt and the
    /// frame's bytes fall inside the range [`Self::poison`] truncates
    /// away. Without this, a sync-failed append would strand an
    /// un-acked record on disk and open a gap between what the caller
    /// believes exists and what followers are shipped.
    fn roll_back_append(inner: &mut Inner, frame_len: usize) {
        inner.segment_bytes -= frame_len as u64;
        inner.segment_records -= 1;
        inner.next_seq -= 1;
        inner.since_snapshot -= 1;
    }

    /// Flushes the current segment's data, honouring any scheduled
    /// fsync fault. Every segment-data sync must go through here so a
    /// failure can poison the writer at its caller.
    fn segment_sync(&self, inner: &mut Inner) -> std::io::Result<()> {
        if let Some(plan) = &self.options.fault_plan {
            if plan.fsync_fails() {
                return Err(std::io::Error::other("injected fsync failure"));
            }
        }
        inner.file.sync_data()
    }

    /// Writes one encoded frame, honouring the fault plan.
    fn write_frame(&self, inner: &mut Inner, seq: u64, frame: &[u8]) -> std::io::Result<()> {
        if let Some(plan) = &self.options.fault_plan {
            match plan.disk_fault(seq) {
                Some(DiskFault::AppendError) => {
                    return Err(std::io::Error::other("injected append error (EIO)"));
                }
                Some(DiskFault::TornWrite { bytes }) => {
                    return Self::torn_write(inner, frame, bytes);
                }
                None => {}
            }
        }
        inner.file.write_all(frame)
    }

    /// Lands `partial_bytes` of the frame, makes the damage durable the
    /// way a real torn write would be, and fails as if the disk filled.
    fn torn_write(inner: &mut Inner, frame: &[u8], partial_bytes: usize) -> std::io::Result<()> {
        let cut = partial_bytes.min(frame.len());
        inner.file.write_all(&frame[..cut])?;
        let _ = inner.file.sync_data(); // make the half-frame durable, like a real torn write
        Err(std::io::Error::new(
            std::io::ErrorKind::StorageFull,
            "injected append fault (disk full)",
        ))
    }

    /// Rolls the segment back to its last intact frame and marks the
    /// writer poisoned. Returns the error to hand the caller.
    ///
    /// The poison is cleared again by [`Self::heal_locked`] once a
    /// truncate + flush of the segment succeeds — it marks "the disk is
    /// currently untrustworthy", not "this store is dead".
    fn poison(&self, inner: &mut Inner, err: std::io::Error) -> StoreError {
        // Cut away whatever fraction of the frame (or sync state) is in
        // doubt. If even the truncate fails, recovery's torn-tail repair
        // is the backstop — the poison flag keeps this process from
        // writing past the damage either way.
        let _ = (|| -> std::io::Result<()> {
            inner.file.set_len(inner.segment_bytes)?;
            inner.file.sync_data()
        })();
        inner.poisoned = Some(err.to_string());
        StoreError::Io(err)
    }

    /// Attempts to clear the poison: truncates the segment back to the
    /// last intact frame and flushes, proving the disk accepts writes
    /// again. A no-op when the writer is healthy. Because the segment
    /// file is open in append mode, the next write after a successful
    /// `set_len` lands at the new end of file — no repositioning needed.
    fn heal_locked(&self, inner: &mut Inner) -> Result<(), StoreError> {
        if inner.poisoned.is_none() {
            return Ok(());
        }
        let attempt = (|| -> std::io::Result<()> {
            inner.file.set_len(inner.segment_bytes)?;
            self.segment_sync(inner)
        })();
        match attempt {
            Ok(()) => {
                inner.poisoned = None;
                inner.last_sync = Instant::now();
                inner.dirty = false;
                Ok(())
            }
            Err(err) => {
                let cause = err.to_string();
                inner.poisoned = Some(cause.clone());
                Err(StoreError::Poisoned { cause })
            }
        }
    }

    /// Whether the writer is poisoned, and by what. `None` means
    /// appends are being accepted.
    #[must_use]
    pub fn poisoned(&self) -> Option<String> {
        self.inner.lock().expect("store mutex").poisoned.clone()
    }

    /// Tries to recover a poisoned writer without reopening the store:
    /// truncates the active segment back to the last intact frame and
    /// flushes it. Returns `Ok(false)` when the writer was not poisoned,
    /// `Ok(true)` when the poison was cleared.
    ///
    /// This is the self-recovery seam degraded-mode serving retries
    /// with backoff until the disk heals.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Poisoned`] when the disk still refuses the
    /// truncate or flush; the writer stays poisoned.
    pub fn try_heal(&self) -> Result<bool, StoreError> {
        let mut inner = self.inner.lock().expect("store mutex");
        if inner.poisoned.is_none() {
            return Ok(false);
        }
        self.heal_locked(&mut inner)?;
        Ok(true)
    }

    /// Path of the segment currently being appended to. Everything else
    /// matching `wal-*.log` in the directory is sealed — safe for the
    /// scrubber to read and, if damaged, quarantine.
    #[must_use]
    pub fn active_segment(&self) -> PathBuf {
        self.inner.lock().expect("store mutex").segment_path.clone()
    }

    /// Quarantines the sealed segment whose first record is `first_seq`:
    /// renames `wal-{first_seq}.log` to `wal-{first_seq}.log.quarantine`
    /// and flushes the directory. The quarantined file is invisible to
    /// recovery, compaction, and snapshot installs (all of which match
    /// the `.log` suffix exactly), so the evidence of what was on disk
    /// is never deleted — repair replaces the history *around* it.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] when the segment is the active one
    /// (quarantining the write head would corrupt the log) or the
    /// rename fails.
    pub fn quarantine_segment(&self, first_seq: u64) -> Result<PathBuf, StoreError> {
        let inner = self.inner.lock().expect("store mutex");
        let path = self.dir.join(segment_name(first_seq));
        if path == inner.segment_path {
            return Err(StoreError::Io(std::io::Error::other(format!(
                "refusing to quarantine the active segment {}",
                path.display()
            ))));
        }
        let quarantined = path.with_extension("log.quarantine");
        std::fs::rename(&path, &quarantined)?;
        sync_dir(&self.dir)?;
        Ok(quarantined)
    }

    /// Rotates to a fresh segment starting at `first_seq`.
    fn rotate(&self, inner: &mut Inner, first_seq: u64) -> std::io::Result<()> {
        // Seal the old segment: flush it unless the caller opted out of
        // durability entirely.
        if !matches!(self.options.sync, SyncPolicy::Never) {
            self.segment_sync(inner)?;
        }
        let path = self.dir.join(segment_name(first_seq));
        inner.file = OpenOptions::new().create(true).append(true).open(&path)?;
        inner.segment_path = path;
        inner.segment_bytes = 0;
        inner.segment_records = 0;
        sync_dir(&self.dir)?;
        Ok(())
    }

    /// Forces everything appended so far to stable storage.
    ///
    /// A failed fsync poisons the writer exactly as a failed append
    /// does, because records appended since the last successful flush
    /// are in doubt — an acked write must never be allowed to follow a
    /// silently-failed flush. The poison clears once a later append (or
    /// [`EventStore::try_heal`]) truncates and flushes successfully.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on sync failure (and poisons the
    /// writer) and [`StoreError::Poisoned`] after an earlier failure.
    pub fn sync(&self) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store mutex");
        Self::refuse_poisoned(&inner)?;
        if let Err(err) = self.segment_sync(&mut inner) {
            return Err(self.poison(&mut inner, err));
        }
        inner.last_sync = Instant::now();
        inner.dirty = false;
        Ok(())
    }

    /// The durable replication epoch, [`INITIAL_EPOCH`] when never set.
    ///
    /// The epoch fences failover: a promoted follower bumps it, and any
    /// record or leader claiming a lower epoch is stale and must be
    /// refused. Reads are lock-free.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Durably records a new replication epoch (atomic write: temp
    /// sibling + fsync + rename + directory fsync). The epoch survives
    /// crash and restart — a deposed primary that comes back finds the
    /// higher epoch on disk and must demote itself.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure; the previous
    /// epoch file survives a failed attempt.
    pub fn set_epoch(&self, epoch: u64) -> Result<(), StoreError> {
        // Serialize against other epoch writes and appends.
        let _inner = self.inner.lock().expect("store mutex");
        write_epoch_file(&self.dir, epoch)?;
        self.epoch.store(epoch, Ordering::SeqCst);
        Ok(())
    }

    /// The sequence number the next append will get.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.inner.lock().expect("store mutex").next_seq
    }

    /// Records appended since the last base or delta (or open).
    #[must_use]
    pub fn events_since_snapshot(&self) -> u64 {
        self.inner.lock().expect("store mutex").since_snapshot
    }

    /// Payload bytes of the current base image and the total of its
    /// deltas, `(base, deltas)`; `(0, 0)` before the first base. The
    /// caller's fold rule weighs a new delta against them.
    #[must_use]
    pub fn image_bytes(&self) -> (u64, u64) {
        let inner = self.inner.lock().expect("store mutex");
        (inner.base_bytes, inner.delta_bytes)
    }

    /// Writes a base snapshot covering every record appended so far,
    /// then compacts: every delta, every older base and every segment
    /// is deleted and the log restarts in a fresh segment.
    ///
    /// The caller owns the payload format and must guarantee it really
    /// captures the effect of every record with seq < [`EventStore::next_seq`];
    /// callers should quiesce appends for the duration (the store's own
    /// mutex is held, so concurrent `append`s block either way).
    ///
    /// The write is atomic — temp sibling, fsync, rename, directory
    /// fsync — so readers and recovery see either the old complete
    /// images or the new complete snapshot, never a prefix.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure; the previous
    /// images (if any) survive a failed attempt.
    pub fn snapshot(&self, payload: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store mutex");
        Self::refuse_poisoned(&inner)?;
        let last_seq = inner.next_seq - 1;
        self.write_image(&snapshot_name(last_seq), payload)?;
        // The base is durable: drop everything it covers. Deltas go
        // first, so a crash part-way leaves only deltas at or below the
        // base, which recovery discards.
        self.remove_covered(true, |seq| seq < last_seq)?;
        inner.base_bytes = payload.len() as u64;
        inner.delta_bytes = 0;
        let next_seq = inner.next_seq;
        self.restart_log(&mut inner, next_seq)
    }

    /// Writes a delta image covering every record appended so far, on
    /// top of the current base and earlier deltas, then deletes the
    /// segments it covers (all of them) and restarts the log in a fresh
    /// segment. The base and earlier deltas stay: recovery returns them
    /// all, in order.
    ///
    /// The same contract as [`EventStore::snapshot`] otherwise: the
    /// caller quiesces appends and owns the payload, and the write is
    /// atomic.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure (the images and
    /// log written so far survive) and [`StoreError::Poisoned`] after a
    /// failed append.
    pub fn snapshot_delta(&self, payload: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store mutex");
        Self::refuse_poisoned(&inner)?;
        let last_seq = inner.next_seq - 1;
        self.write_image(&delta_name(last_seq), payload)?;
        self.remove_covered(false, |_| false)?;
        inner.delta_bytes += payload.len() as u64;
        let next_seq = inner.next_seq;
        self.restart_log(&mut inner, next_seq)
    }

    /// Replaces the store's entire history with a snapshot received from
    /// elsewhere (a replication bootstrap), asserting it covers every
    /// record with seq ≤ `last_seq`. All local segments, deltas and
    /// older snapshots are discarded and the writer restarts at
    /// `last_seq + 1` — after this, local appends carry the *same*
    /// sequence numbers as the source's records, which is what lets a
    /// follower mirror its primary's WAL byte for byte.
    ///
    /// The snapshot write itself is atomic (temp sibling + fsync +
    /// rename + directory fsync), so a crash mid-install recovers to
    /// either the old history or the new snapshot, never a mix.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure and
    /// [`StoreError::Poisoned`] after a failed append.
    pub fn install_snapshot(&self, payload: &[u8], last_seq: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store mutex");
        Self::refuse_poisoned(&inner)?;
        self.write_image(&snapshot_name(last_seq), payload)?;
        // The installed snapshot supersedes every local artifact:
        // deltas, segments (whatever their seqs meant locally) and any
        // snapshot not named exactly `last_seq`.
        self.remove_covered(true, |seq| seq != last_seq)?;
        inner.base_bytes = payload.len() as u64;
        inner.delta_bytes = 0;
        self.restart_log(&mut inner, last_seq + 1)
    }

    fn refuse_poisoned(inner: &Inner) -> Result<(), StoreError> {
        match &inner.poisoned {
            Some(cause) => Err(StoreError::Poisoned {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Writes one image file atomically: temp sibling, fsync, rename,
    /// directory fsync. A scheduled `disk.snapshot_err` fails the write
    /// after the fsync and before the rename, so the temp file is what
    /// a failed write leaves to clean up.
    fn write_image(&self, name: &str, payload: &[u8]) -> Result<(), StoreError> {
        let final_path = self.dir.join(name);
        let tmp_path = self.dir.join(format!(".{name}.tmp.{}", std::process::id()));
        let result = (|| {
            let mut file = File::create(&tmp_path)?;
            file.write_all(payload)?;
            file.sync_all()?;
            if let Some(plan) = &self.options.fault_plan {
                if plan.snapshot_fails() {
                    return Err(std::io::Error::other("injected snapshot write failure"));
                }
            }
            std::fs::rename(&tmp_path, &final_path)?;
            sync_dir(&self.dir)
        })();
        if result.is_err() {
            let _ = std::fs::remove_file(&tmp_path);
        }
        result.map_err(Into::into)
    }

    /// Best-effort removal of the stale images — every delta when
    /// `stale_deltas`, every base `stale_base` selects — then of every
    /// segment: the image just written covers them all.
    fn remove_covered(
        &self,
        stale_deltas: bool,
        stale_base: impl Fn(u64) -> bool,
    ) -> Result<(), StoreError> {
        let files = StoreFiles::list(&self.dir)?;
        let mut stale = Vec::new();
        if stale_deltas {
            stale.extend(files.deltas.iter().map(|&seq| delta_name(seq)));
        }
        stale.extend(
            files
                .bases
                .into_iter()
                .filter(|&seq| stale_base(seq))
                .map(snapshot_name),
        );
        stale.extend(files.segments.into_iter().map(segment_name));
        for name in stale {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        Ok(())
    }

    /// Points the writer at a fresh segment starting at `next_seq`
    /// after an image write deleted the old ones.
    fn restart_log(&self, inner: &mut Inner, next_seq: u64) -> Result<(), StoreError> {
        let path = self.dir.join(segment_name(next_seq));
        inner.file = OpenOptions::new().create(true).append(true).open(&path)?;
        inner.segment_path = path;
        inner.segment_bytes = 0;
        inner.segment_records = 0;
        inner.next_seq = next_seq;
        inner.since_snapshot = 0;
        inner.dirty = false;
        sync_dir(&self.dir)?;
        Ok(())
    }
}

impl Drop for EventStore {
    fn drop(&mut self) {
        // Best-effort flush so a graceful shutdown never loses the tail
        // under the interval/never policies.
        if let Ok(inner) = self.inner.lock() {
            if inner.dirty {
                let _ = inner.file.sync_data();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mine-store-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn payloads(recovered: &Recovered) -> Vec<String> {
        recovered
            .events
            .iter()
            .map(|r| String::from_utf8(r.payload.clone()).unwrap())
            .collect()
    }

    #[test]
    fn append_reopen_round_trip() {
        let dir = temp_dir("roundtrip");
        {
            let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
            assert!(recovered.events.is_empty());
            assert!(recovered.snapshot.is_none());
            assert_eq!(store.append(b"one").unwrap(), 1);
            assert_eq!(store.append(b"two").unwrap(), 2);
            assert_eq!(store.append(b"three").unwrap(), 3);
        }
        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(payloads(&recovered), ["one", "two", "three"]);
        assert!(recovered.warnings.is_empty());
        assert_eq!(store.next_seq(), 4);
        assert_eq!(store.append(b"four").unwrap(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn rotation_splits_segments_and_recovery_reads_across_them() {
        let dir = temp_dir("rotate");
        let options = StoreOptions {
            max_segment_bytes: 64,
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options.clone()).unwrap();
        for i in 0..10 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
        drop(store);
        let segment_files = std::fs::read_dir(&dir)
            .unwrap()
            .filter(|e| {
                e.as_ref()
                    .unwrap()
                    .file_name()
                    .to_string_lossy()
                    .starts_with("wal-")
            })
            .count();
        assert!(segment_files > 1, "expected rotation, got one segment");
        let (_, recovered) = EventStore::open(&dir, options).unwrap();
        assert_eq!(recovered.events.len(), 10);
        assert_eq!(recovered.segments, segment_files);
        assert_eq!(
            payloads(&recovered),
            (0..10).map(|i| format!("record-{i}")).collect::<Vec<_>>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_segments_and_recovery_replays_snapshot_plus_tail() {
        let dir = temp_dir("snapshot");
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..5 {
            store.append(format!("pre-{i}").as_bytes()).unwrap();
        }
        store.snapshot(b"state-after-5").unwrap();
        assert_eq!(store.events_since_snapshot(), 0);
        store.append(b"tail-0").unwrap();
        store.append(b"tail-1").unwrap();
        drop(store);

        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        let snapshot = recovered.snapshot.as_ref().unwrap();
        assert_eq!(snapshot.last_seq, 5);
        assert_eq!(snapshot.payload, b"state-after-5");
        assert_eq!(payloads(&recovered), ["tail-0", "tail-1"]);
        assert_eq!(store.next_seq(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn image_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.ends_with(".snap"))
            .collect();
        names.sort();
        names
    }

    #[test]
    fn deltas_stack_on_the_base_and_a_new_base_deletes_them() {
        let dir = temp_dir("deltas");
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        store.append(b"e1").unwrap();
        store.snapshot(b"base-1").unwrap();
        store.append(b"e2").unwrap();
        store.snapshot_delta(b"d-2").unwrap();
        store.append(b"e3").unwrap();
        store.append(b"e4").unwrap();
        store.snapshot_delta(b"d-4").unwrap();
        assert_eq!(store.events_since_snapshot(), 0);
        assert_eq!(store.image_bytes(), (6, 6));
        store.append(b"tail-5").unwrap();
        drop(store);

        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().last_seq, 1);
        let deltas: Vec<(u64, &[u8])> = recovered
            .deltas
            .iter()
            .map(|d| (d.last_seq, d.payload.as_slice()))
            .collect();
        assert_eq!(deltas, [(2, &b"d-2"[..]), (4, &b"d-4"[..])]);
        assert_eq!(payloads(&recovered), ["tail-5"]);
        assert_eq!(store.image_bytes(), (6, 6), "totals are read back at open");
        assert_eq!(store.next_seq(), 6);

        store.snapshot(b"base-5").unwrap();
        assert_eq!(image_files(&dir), [snapshot_name(5)]);
        assert_eq!(store.image_bytes(), (6, 0));
        drop(store);
        let (_, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert!(recovered.deltas.is_empty());
        assert!(recovered.events.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn crash_leftovers_around_images_recover_to_the_newest_history() {
        let dir = temp_dir("delta-leftovers");
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        store.append(b"e1").unwrap();
        store.snapshot(b"base-1").unwrap();
        store.append(b"e2").unwrap();
        store.snapshot_delta(b"d-2").unwrap();
        store.append(b"e3").unwrap();
        drop(store);
        // A crash between a delta's rename and its segment deletion
        // leaves segments the delta covers.
        std::fs::write(dir.join(delta_name(3)), b"d-3").unwrap();
        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.deltas.len(), 2);
        assert!(recovered.events.is_empty(), "the segment is covered");
        assert_eq!(store.next_seq(), 4);
        drop(store);
        // A crash between a new base's rename and the delta cleanup
        // leaves deltas at or below the base: they are discarded.
        std::fs::write(dir.join(snapshot_name(3)), b"base-3").unwrap();
        let (_, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().payload, b"base-3");
        assert!(recovered.deltas.is_empty());
        assert!(recovered.events.is_empty());
        assert_eq!(image_files(&dir), [snapshot_name(3)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_delta_without_a_base_is_corruption() {
        let dir = temp_dir("orphan-delta");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(delta_name(4)), b"d-4").unwrap();
        assert!(matches!(
            EventStore::open(&dir, StoreOptions::default()),
            Err(StoreError::Corrupt { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_image_writes_keep_the_log_and_leave_no_temp_file() {
        let dir = temp_dir("snapshot-err");
        let options = StoreOptions {
            fault_plan: Some(std::sync::Arc::new(
                FaultPlan::parse("disk.snapshot_err@2;disk.snapshot_err@3").unwrap(),
            )),
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        store.append(b"e1").unwrap();
        store.snapshot(b"base-1").unwrap();
        store.append(b"e2").unwrap();
        assert!(matches!(
            store.snapshot_delta(b"d-2"),
            Err(StoreError::Io(_))
        ));
        assert!(matches!(store.snapshot(b"base-2"), Err(StoreError::Io(_))));
        assert_eq!(store.events_since_snapshot(), 1, "nothing was compacted");
        assert_eq!(store.image_bytes(), (6, 0));
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert!(
            names.iter().all(|name| !name.contains(".tmp.")),
            "{names:?}"
        );
        store.snapshot_delta(b"d-2").unwrap();
        drop(store);
        let (_, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.deltas.len(), 1);
        assert!(recovered.events.is_empty());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_snapshot_covering_no_events_is_valid() {
        let dir = temp_dir("empty-snap");
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        store.snapshot(b"empty-state").unwrap();
        drop(store);
        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().last_seq, 0);
        assert!(recovered.events.is_empty());
        assert_eq!(store.append(b"first").unwrap(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interval_policy_syncs_after_the_window() {
        let dir = temp_dir("interval");
        let options = StoreOptions {
            sync: SyncPolicy::Interval(Duration::from_millis(10)),
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        store.append(b"a").unwrap();
        std::thread::sleep(Duration::from_millis(15));
        store.append(b"b").unwrap(); // window elapsed → this append syncs
        store.sync().unwrap(); // and explicit sync always works
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn oversized_records_are_rejected() {
        let dir = temp_dir("oversize");
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        let huge = vec![0_u8; MAX_PAYLOAD_BYTES + 1];
        assert!(matches!(
            store.append(&huge),
            Err(StoreError::RecordTooLarge { .. })
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn epoch_defaults_and_survives_reopen() {
        let dir = temp_dir("epoch");
        {
            let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
            assert_eq!(store.epoch(), INITIAL_EPOCH);
            store.set_epoch(7).unwrap();
            assert_eq!(store.epoch(), 7);
        }
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_append_poisons_the_writer_and_leaves_no_half_frame() {
        let dir = temp_dir("poison");
        let options = StoreOptions {
            // Tear seq 3 mid-header: the worst-case torn write.
            fault_plan: Some(std::sync::Arc::new(
                FaultPlan::parse("disk.torn@3:9").unwrap(),
            )),
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        store.append(b"one").unwrap();
        store.append(b"two").unwrap();
        let err = store.append(b"doomed").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        // While poisoned, sync and snapshot refuse.
        assert!(store.poisoned().is_some());
        assert!(matches!(store.sync(), Err(StoreError::Poisoned { .. })));
        assert!(matches!(
            store.snapshot(b"img"),
            Err(StoreError::Poisoned { .. })
        ));
        // A retried append heals the writer first, then re-hits the
        // (persistent, seq-keyed) fault — the caller sees the fresh I/O
        // error each time, never a stale poison.
        assert!(matches!(store.append(b"after"), Err(StoreError::Io(_))));
        drop(store);
        // Recovery sees exactly the two intact records — the half-frame
        // was truncated away, so there is no torn-tail warning either.
        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(payloads(&recovered), ["one", "two"]);
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        assert_eq!(store.append(b"three").unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn install_snapshot_rebases_history_and_sequence_numbers() {
        let dir = temp_dir("install");
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        // Local history that the installed snapshot must wipe out.
        store.append(b"local-1").unwrap();
        store.snapshot(b"local-base").unwrap();
        store.append(b"local-2").unwrap();
        store.snapshot_delta(b"local-delta").unwrap();
        store.install_snapshot(b"primary-image", 41).unwrap();
        assert_eq!(image_files(&dir), [snapshot_name(41)]);
        // The next append continues the *primary's* numbering.
        assert_eq!(store.next_seq(), 42);
        assert_eq!(store.append(b"tail-42").unwrap(), 42);
        drop(store);

        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        let snapshot = recovered.snapshot.as_ref().unwrap();
        assert_eq!(snapshot.last_seq, 41);
        assert_eq!(snapshot.payload, b"primary-image");
        assert_eq!(payloads(&recovered), ["tail-42"]);
        assert_eq!(recovered.events[0].seq, 42);
        assert_eq!(store.next_seq(), 43);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn failed_fsync_poisons_the_writer_until_a_later_append_heals_it() {
        let dir = temp_dir("fsync-poison");
        let options = StoreOptions {
            sync: SyncPolicy::Never, // only the explicit sync() below counts
            fault_plan: Some(std::sync::Arc::new(
                FaultPlan::parse("disk.fsync_err@1").unwrap(),
            )),
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        store.append(b"acked-before-flush").unwrap();
        let err = store.sync().unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        // Poisoned: no acked write can follow the silently-failed
        // flush until the disk proves itself again.
        assert!(store.poisoned().is_some());
        assert!(matches!(
            store.snapshot(b"img"),
            Err(StoreError::Poisoned { .. })
        ));
        // The next append re-runs the truncate-and-flush recovery; only
        // fsync #1 was scheduled to fail, so the poison clears and the
        // append lands.
        assert_eq!(store.append(b"after-heal").unwrap(), 2);
        assert!(store.poisoned().is_none());
        store.sync().unwrap();
        drop(store);
        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(payloads(&recovered), ["acked-before-flush", "after-heal"]);
        assert_eq!(store.append(b"after-reopen").unwrap(), 3);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fsync_failure_under_always_rolls_back_the_append_and_self_heals() {
        // The regression for the permanent-poison bug: with
        // `SyncPolicy::Always`, an append whose *flush* fails must
        // (a) not ack, (b) leave no record behind for its sequence
        // number, and (c) not poison the store forever once the disk
        // heals.
        let dir = temp_dir("fsync-rollback");
        let options = StoreOptions {
            sync: SyncPolicy::Always,
            fault_plan: Some(std::sync::Arc::new(
                FaultPlan::parse("disk.fsync_err@1").unwrap(),
            )),
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        let err = store.append(b"doomed").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        assert!(store.poisoned().is_some());
        // Explicit heal (the degraded-mode retry seam): fsync #2
        // succeeds, so the poison clears.
        assert!(store.try_heal().unwrap());
        assert!(store.poisoned().is_none());
        assert!(!store.try_heal().unwrap(), "already healthy: no-op");
        // The failed append was rolled back — seq 1 is reused.
        assert_eq!(store.append(b"first").unwrap(), 1);
        drop(store);
        // No half-frame and no phantom record: recovery sees exactly
        // the one acked append, with nothing to repair.
        let (_, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(payloads(&recovered), ["first"]);
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_plan_append_error_poisons_without_a_half_frame() {
        let dir = temp_dir("plan-append-err");
        let options = StoreOptions {
            fault_plan: Some(std::sync::Arc::new(
                FaultPlan::parse("disk.append_err@2").unwrap(),
            )),
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        store.append(b"one").unwrap();
        let err = store.append(b"doomed").unwrap_err();
        assert!(matches!(err, StoreError::Io(_)), "{err}");
        // The retry heals, reuses seq 2, and re-hits the seq-keyed
        // fault: a fresh I/O error, not a stale poison.
        assert!(matches!(store.append(b"after"), Err(StoreError::Io(_))));
        drop(store);
        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(payloads(&recovered), ["one"]);
        assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
        assert_eq!(store.append(b"two").unwrap(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn quarantine_renames_sealed_segments_and_refuses_the_active_one() {
        let dir = temp_dir("quarantine");
        let options = StoreOptions {
            max_segment_bytes: 64,
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        for i in 0..10 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
        let active = store.active_segment();
        let active_first = parse_numbered(
            &active.file_name().unwrap().to_string_lossy(),
            "wal-",
            ".log",
        )
        .unwrap();
        assert!(active_first > 1, "rotation sealed at least one segment");
        // Sealed segment 1 quarantines by rename: evidence kept.
        let quarantined = store.quarantine_segment(1).unwrap();
        assert!(quarantined.exists());
        assert!(!dir.join(segment_name(1)).exists());
        // The active segment is refused.
        assert!(store.quarantine_segment(active_first).is_err());
        // A snapshot install (the repair path) wipes `.log` segments
        // but leaves the quarantined evidence alone.
        store.install_snapshot(b"repaired-image", 20).unwrap();
        assert!(quarantined.exists(), "quarantine survives repair");
        drop(store);
        let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(recovered.snapshot.as_ref().unwrap().last_seq, 20);
        assert_eq!(store.next_seq(), 21);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn sync_policy_parses_cli_spellings() {
        assert_eq!(SyncPolicy::parse("always").unwrap(), SyncPolicy::Always);
        assert_eq!(SyncPolicy::parse("never").unwrap(), SyncPolicy::Never);
        assert_eq!(
            SyncPolicy::parse("interval").unwrap(),
            SyncPolicy::Interval(Duration::from_millis(100))
        );
        assert_eq!(
            SyncPolicy::parse("interval:250").unwrap(),
            SyncPolicy::Interval(Duration::from_millis(250))
        );
        assert!(SyncPolicy::parse("sometimes").is_err());
        assert!(SyncPolicy::parse("interval:abc").is_err());
    }
}
