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
//! [`EventStore::open`] reads the directory with the store's one reader
//! (the `read` module) and performs the repairs it reports: a torn final
//! record — a crash mid-append — is truncated away with a warning, and
//! stale images are deleted. Damage *inside* committed history is an
//! error, never silently dropped.

use std::fs::{File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

use crate::error::StoreError;
use crate::fault::{DiskFault, FaultPlan};
use crate::frame::{self, MAX_PAYLOAD_BYTES};
use crate::read::{delta_name, segment_name, snapshot_name, DirScan, StoreFiles, EPOCH_FILE};

/// When appended records are flushed to stable storage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyncPolicy {
    /// `fdatasync` after every append: nothing acknowledged is ever
    /// lost, at the cost of one disk round-trip per record.
    Always,
    /// `fdatasync` from an append that finds the window elapsed since the
    /// last sync. Nothing syncs the last appends of a burst until the next
    /// append, [`EventStore::sync`] or drop: a power loss may take every
    /// record since the last sync, however long ago that was.
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

/// Everything [`EventStore::open`] or [`crate::read_store`] found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Recovered {
    /// The newest base snapshot, when one exists.
    pub snapshot: Option<Snapshot>,
    /// The deltas written on top of that base, in sequence order.
    pub deltas: Vec<Snapshot>,
    /// Tail records not covered by the base or its deltas, in sequence
    /// order.
    pub events: Vec<Record>,
    /// Repairs (torn tails truncated), done by [`EventStore::open`],
    /// pending after [`crate::read_store`].
    pub warnings: Vec<String>,
    /// Number of segment files scanned.
    pub segments: usize,
}

impl Recovered {
    /// The highest sequence number recovered: the last tail record's,
    /// else the newest image's, else 0.
    #[must_use]
    pub fn head_seq(&self) -> u64 {
        let newest = self.deltas.last().or(self.snapshot.as_ref());
        let covered = newest.map_or(0, |image| image.last_seq);
        self.events.last().map_or(covered, |record| record.seq)
    }
}

struct Inner {
    file: File,
    segment_path: PathBuf,
    /// Bytes of intact frames in the segment; 0 means it holds none.
    segment_bytes: u64,
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
    /// lock-free reads. See [`EventStore::raise_epoch`].
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

/// Flushes directory metadata (new/renamed/deleted entries) to disk.
fn sync_dir(dir: &Path) -> std::io::Result<()> {
    File::open(dir)?.sync_all()
}

/// Writes `dir/name` atomically: temp sibling, write, fsync, rename,
/// directory fsync. A `disk.snapshot_err` scheduled in `faults` fails
/// the write after the fsync and before the rename; only image writes
/// pass their plan, so an epoch write never uses up a scheduled
/// failure. A failed write removes its temp file.
fn write_atomic(
    dir: &Path,
    name: &str,
    bytes: &[u8],
    faults: Option<&FaultPlan>,
) -> Result<(), StoreError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!(".{name}.tmp.{}", std::process::id()));
    let result = (|| {
        let mut file = File::create(&tmp_path)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        if faults.is_some_and(FaultPlan::snapshot_fails) {
            return Err(std::io::Error::other("injected snapshot write failure"));
        }
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
    /// previous process left behind: [`crate::read_store`]'s reading,
    /// whose repairs (reported in [`Recovered::warnings`]) it performs.
    /// The returned store appends after the last intact record.
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
        let mut scan = DirScan::new(&dir)?;
        let (recovered, epoch) = scan.recover()?;
        for name in &scan.stale {
            let _ = std::fs::remove_file(dir.join(name));
        }
        if let Some(tail) = scan.tail.as_ref().filter(|tail| tail.torn) {
            let file = OpenOptions::new()
                .write(true)
                .open(dir.join(segment_name(tail.first_seq)))?;
            file.set_len(tail.bytes)?;
            file.sync_all()?;
        }
        let next_seq = recovered.head_seq() + 1;

        // Position the writer: continue the last segment when it still
        // has room, otherwise start a fresh one.
        let (segment_path, segment_bytes) = match scan.tail {
            Some(tail) if tail.bytes < options.max_segment_bytes => {
                (dir.join(segment_name(tail.first_seq)), tail.bytes)
            }
            _ => (dir.join(segment_name(next_seq)), 0),
        };
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&segment_path)?;
        sync_dir(&dir)?;

        let image_bytes = |image: &Snapshot| image.payload.len() as u64;
        let store = Self {
            dir,
            options,
            inner: Mutex::new(Inner {
                file,
                segment_path,
                segment_bytes,
                next_seq,
                since_snapshot: recovered.events.len() as u64,
                base_bytes: recovered.snapshot.as_ref().map_or(0, image_bytes),
                delta_bytes: recovered.deltas.iter().map(image_bytes).sum(),
                last_sync: Instant::now(),
                dirty: false,
                poisoned: None,
            }),
            epoch: AtomicU64::new(epoch),
        };
        Ok((store, recovered))
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
        if inner.segment_bytes > 0
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
        inner.next_seq += 1;
        inner.since_snapshot += 1;
        inner.dirty = true;
        // `Interval` syncs only here: the tail of a burst stays unsynced
        // until the next append, `sync` or drop.
        let due = match self.options.sync {
            SyncPolicy::Always => true,
            SyncPolicy::Interval(window) => inner.last_sync.elapsed() >= window,
            SyncPolicy::Never => false,
        };
        if due {
            if let Err(err) = self.segment_sync(&mut inner) {
                Self::roll_back_append(&mut inner, frame.len());
                return Err(self.poison(&mut inner, err));
            }
            inner.last_sync = Instant::now();
            inner.dirty = false;
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
        sync_dir(&self.dir)
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

    /// The durable replication epoch, [`crate::INITIAL_EPOCH`] when never set.
    ///
    /// The epoch fences failover: a promoted follower bumps it, and any
    /// record or leader claiming a lower epoch is stale and must be
    /// refused. Reads are lock-free.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Durably raises the replication epoch to `epoch` (an atomic
    /// write) when it is newer than the current one; returns whether it
    /// moved. The epoch only rises: the compare and the write happen
    /// under the store mutex, so no interleaving of callers can lower
    /// it. It survives crash and restart — a deposed primary that comes
    /// back finds the higher epoch on disk and must demote itself.
    ///
    /// # Errors
    ///
    /// Returns [`StoreError::Io`] on filesystem failure; the previous
    /// epoch file survives a failed attempt.
    pub fn raise_epoch(&self, epoch: u64) -> Result<bool, StoreError> {
        let _inner = self.inner.lock().expect("store mutex");
        if epoch <= self.epoch() {
            return Ok(false);
        }
        write_atomic(&self.dir, EPOCH_FILE, epoch.to_string().as_bytes(), None)?;
        self.epoch.store(epoch, Ordering::SeqCst);
        Ok(true)
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

    /// Writes a base image covering every record appended so far: an
    /// install at `next_seq - 1` (see [`EventStore::install_snapshot`]).
    /// The caller owns the payload and must guarantee it captures every
    /// record with seq < [`EventStore::next_seq`]; appends block on the
    /// store mutex meanwhile.
    ///
    /// # Errors
    ///
    /// As [`EventStore::install_snapshot`].
    pub fn snapshot(&self, payload: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store mutex");
        let head = inner.next_seq - 1;
        self.write_image(&mut inner, payload, Some(head))
    }

    /// Writes a delta image covering every record appended so far on
    /// top of the current base and earlier deltas, which stay: recovery
    /// returns them all, in order. Deletes every segment and restarts
    /// the log, under [`EventStore::snapshot`]'s contract.
    ///
    /// # Errors
    ///
    /// As [`EventStore::install_snapshot`].
    pub fn snapshot_delta(&self, payload: &[u8]) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store mutex");
        self.write_image(&mut inner, payload, None)
    }

    /// Replaces the whole history with a base image covering seq ≤
    /// `last_seq` (a replication bootstrap): every segment, delta and
    /// other base goes, and appends continue at `last_seq + 1`, so a
    /// follower's WAL mirrors its primary's byte for byte. The write is
    /// atomic (temp sibling, fsync, rename): a crash recovers to the old
    /// history or the new base, never a mix.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on filesystem failure (the images and log
    /// written so far survive) and [`StoreError::Poisoned`] after a
    /// failed append.
    pub fn install_snapshot(&self, payload: &[u8], last_seq: u64) -> Result<(), StoreError> {
        let mut inner = self.inner.lock().expect("store mutex");
        self.write_image(&mut inner, payload, Some(last_seq))
    }

    /// The one image writer, run with the store mutex held. Writes
    /// `payload` atomically as a base covering seq ≤ `base`, or, with
    /// `None`, as a delta covering every record appended so far. Then
    /// it deletes what the image covers — a delta every segment, a base
    /// also every delta and every other base, deltas first, so a crash
    /// part-way leaves only deltas at or below the base, which recovery
    /// discards — and restarts the log after the image.
    fn write_image(
        &self,
        inner: &mut Inner,
        payload: &[u8],
        base: Option<u64>,
    ) -> Result<(), StoreError> {
        Self::refuse_poisoned(inner)?;
        let last_seq = base.unwrap_or(inner.next_seq - 1);
        let name = base.map_or_else(|| delta_name(last_seq), snapshot_name);
        let faults = self.options.fault_plan.as_deref();
        write_atomic(&self.dir, &name, payload, faults)?;
        let files = StoreFiles::list(&self.dir)?;
        let mut stale = Vec::new();
        let bytes = payload.len() as u64;
        if base.is_some() {
            stale.extend(files.deltas.iter().map(|&seq| delta_name(seq)));
            let other_bases = files.bases.into_iter().filter(|&seq| seq != last_seq);
            stale.extend(other_bases.map(snapshot_name));
            inner.base_bytes = bytes;
            inner.delta_bytes = 0;
        } else {
            inner.delta_bytes += bytes;
        }
        stale.extend(files.segments.into_iter().map(segment_name));
        for name in stale {
            let _ = std::fs::remove_file(self.dir.join(name));
        }
        self.restart_log(inner, last_seq + 1)
    }

    fn refuse_poisoned(inner: &Inner) -> Result<(), StoreError> {
        match &inner.poisoned {
            Some(cause) => Err(StoreError::Poisoned {
                cause: cause.clone(),
            }),
            None => Ok(()),
        }
    }

    /// Points the writer at a fresh segment starting at `next_seq`
    /// after an image write deleted the old ones.
    fn restart_log(&self, inner: &mut Inner, next_seq: u64) -> Result<(), StoreError> {
        let path = self.dir.join(segment_name(next_seq));
        inner.file = OpenOptions::new().create(true).append(true).open(&path)?;
        inner.segment_path = path;
        inner.segment_bytes = 0;
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
    use crate::read::INITIAL_EPOCH;

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
            assert!(store.raise_epoch(7).unwrap());
            assert_eq!(store.epoch(), 7);
        }
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn the_epoch_only_rises() {
        let dir = temp_dir("epoch-raise");
        {
            let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
            assert!(store.raise_epoch(7).unwrap());
            assert!(!store.raise_epoch(5).unwrap(), "a lower epoch is refused");
            assert!(!store.raise_epoch(7).unwrap(), "an equal epoch is no move");
            assert_eq!(store.epoch(), 7);
        }
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), 7, "the refused raise never reached disk");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_raises_settle_on_their_maximum() {
        let dir = temp_dir("epoch-race");
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        let store = std::sync::Arc::new(store);
        // A seeded xorshift: each thread raises 25 epochs in 2..1000.
        let mut state: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            2 + state % 998
        };
        let epochs: Vec<Vec<u64>> = (0..4).map(|_| (0..25).map(|_| next()).collect()).collect();
        let highest = epochs.iter().flatten().copied().max().unwrap();
        let start = std::sync::Arc::new(std::sync::Barrier::new(epochs.len()));
        let threads: Vec<_> = epochs
            .into_iter()
            .map(|mine| {
                let store = std::sync::Arc::clone(&store);
                let start = std::sync::Arc::clone(&start);
                std::thread::spawn(move || {
                    start.wait();
                    for epoch in mine {
                        store.raise_epoch(epoch).unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }
        assert_eq!(store.epoch(), highest);
        drop(store);
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), highest, "the file holds the maximum too");
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
        let active_first = active
            .file_name()
            .unwrap()
            .to_string_lossy()
            .strip_prefix("wal-")
            .and_then(|name| name.strip_suffix(".log"))
            .unwrap()
            .parse::<u64>()
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
    fn a_quarantined_middle_segment_leaves_a_gap_open_refuses() {
        let dir = temp_dir("quarantine-gap");
        let options = StoreOptions {
            max_segment_bytes: 64,
            ..StoreOptions::default()
        };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        for i in 0..10 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
        let segments = StoreFiles::list(&dir).unwrap().segments;
        assert!(segments.len() >= 3, "{segments:?}");
        // A sealed segment above the newest image (there is none): the
        // scrubber's quarantine before its repair lands.
        store.quarantine_segment(segments[1]).unwrap();
        drop(store);
        match EventStore::open(&dir, StoreOptions::default()) {
            Err(StoreError::Corrupt { file, reason, .. }) => {
                assert_eq!(file, segment_name(segments[2]));
                let gap = format!(
                    "sequence gap: expected {}, found {}",
                    segments[1], segments[2]
                );
                assert_eq!(reason, gap);
            }
            other => panic!("expected the gap as Corrupt, got {other:?}"),
        }
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
