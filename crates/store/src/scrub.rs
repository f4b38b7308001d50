//! Integrity scrubbing: re-verifies the WAL segments, the newest images
//! and the epoch file with the store's one reader (the `read` module),
//! and condenses
//! intact history into comparable *range hashes*.
//!
//! A scrub pass never mutates the store. It folds each intact
//! `(seq, payload)` pair into a fixed-width window ([`RANGE_WINDOW`]
//! records, FNV-1a over `seq ‖ payload`). Two nodes whose windows cover
//! the same range with the same record count but hash differently have
//! byte-divergent history there — damage that frame CRCs alone cannot
//! place, because both sides' frames may be internally consistent.
//!
//! The pass runs online from the server's background scrubber and from
//! `GET /admin/ranges`, and offline from `mine scrub <dir>`, where it is
//! clean exactly when `EventStore::open` accepts the directory.

use std::collections::BTreeMap;
use std::io::{Seek, SeekFrom, Write};
use std::path::Path;

use crate::error::StoreError;
use crate::fault::FaultPlan;
use crate::read::{read_epoch_file, segment_name, DirScan, ImageScan, Verdict};

/// Records per range-hash window. Window `w` covers sequence numbers
/// `[w·WINDOW + 1, (w+1)·WINDOW]`, so windows computed independently on
/// two nodes line up without coordination.
pub const RANGE_WINDOW: u64 = 1024;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// First sequence number of the window containing `seq`.
#[must_use]
pub fn window_first(seq: u64) -> u64 {
    ((seq - 1) / RANGE_WINDOW) * RANGE_WINDOW + 1
}

/// The incremental hash of one sequence window's `(seq, payload)`
/// records, plus the exact range it covers so peers only compare
/// like with like.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RangeHash {
    /// First sequence number of the window (inclusive).
    pub first_seq: u64,
    /// Last sequence number actually folded in (inclusive).
    pub last_seq: u64,
    /// Records folded into the hash.
    pub count: u64,
    /// FNV-1a 64-bit over each record's `seq (LE) ‖ payload`, in
    /// sequence order.
    pub hash: u64,
}

/// The verdict on one sealed WAL segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentReport {
    /// File name (`wal-….log`).
    pub file: String,
    /// First sequence number encoded in the name.
    pub first_seq: u64,
    /// Intact records decoded.
    pub records: u64,
    /// Segment size in bytes.
    pub bytes: u64,
    /// `None` when every frame verified; otherwise what failed.
    pub corrupt: Option<String>,
}

/// The verdict on one image file: the newest base snapshot or a delta.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotReport {
    /// File name (`snapshot-….snap` or `delta-….snap`).
    pub file: String,
    /// The sequence number the snapshot claims to cover.
    pub last_seq: u64,
    /// Payload size in bytes.
    pub bytes: u64,
    /// `None` when the payload read back fully; otherwise the error.
    pub corrupt: Option<String>,
}

/// Everything one scrub pass found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ScrubReport {
    /// Per-segment verdicts, in sequence order.
    pub segments: Vec<SegmentReport>,
    /// Range hashes over every intact record seen, in window order.
    pub ranges: Vec<RangeHash>,
    /// The newest snapshot's verdict, when one exists.
    pub snapshot: Option<SnapshotReport>,
    /// Verdicts on the deltas newer than that snapshot, in sequence
    /// order.
    pub deltas: Vec<SnapshotReport>,
    /// Why the `epoch` file does not read as a number, when it does not
    /// (a missing file is the initial epoch, not damage).
    pub epoch_corrupt: Option<String>,
}

impl ScrubReport {
    /// True when no segment and no image failed verification.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.corrupt_segments().is_empty()
            && self.corrupt_images() == 0
            && self.epoch_corrupt.is_none()
    }

    /// How many image files (base or delta) failed verification.
    #[must_use]
    pub fn corrupt_images(&self) -> usize {
        self.snapshot
            .iter()
            .chain(&self.deltas)
            .filter(|image| image.corrupt.is_some())
            .count()
    }

    /// The segments that failed verification.
    #[must_use]
    pub fn corrupt_segments(&self) -> Vec<&SegmentReport> {
        self.segments
            .iter()
            .filter(|s| s.corrupt.is_some())
            .collect()
    }
}

/// Runs one scrub pass over the store directory at `dir`: online when
/// `active` names the segment being appended to, offline with `None`
/// (see the module docs).
///
/// # Errors
///
/// [`StoreError::Io`] for a directory-level failure; damage to a file
/// is reported in the result.
pub fn scrub_dir(dir: &Path, active: Option<&Path>) -> Result<ScrubReport, StoreError> {
    let scan = DirScan::new(dir)?;
    let mut report = ScrubReport::default();
    let mut windows: BTreeMap<u64, RangeHash> = BTreeMap::new();
    scan.scan_segments(active, |segment| {
        let corrupt = match segment.verdict {
            Verdict::Damaged { report, .. } => Some(report),
            Verdict::Clean | Verdict::TornTail(_) => None,
        };
        if corrupt.is_none() {
            for frame in &segment.frames {
                let first = window_first(frame.seq);
                let entry = windows.entry(first).or_insert(RangeHash {
                    first_seq: first,
                    last_seq: 0,
                    count: 0,
                    hash: FNV_OFFSET,
                });
                entry.hash = fnv1a(entry.hash, &frame.seq.to_le_bytes());
                entry.hash = fnv1a(entry.hash, &frame.payload);
                entry.last_seq = frame.seq;
                entry.count += 1;
            }
        }
        report.segments.push(SegmentReport {
            file: segment_name(segment.first_seq),
            first_seq: segment.first_seq,
            records: segment.frames.len() as u64,
            bytes: segment.bytes,
            corrupt,
        });
        Ok::<(), StoreError>(())
    })?;
    report.ranges = windows.into_values().collect();
    report.snapshot = scan.base.as_ref().map(image_report);
    report.deltas = scan.deltas.iter().map(image_report).collect();
    report.epoch_corrupt = read_epoch_file(dir).err().map(|err| err.to_string());
    Ok(report)
}

fn image_report(image: &ImageScan) -> SnapshotReport {
    SnapshotReport {
        file: image.file.clone(),
        last_seq: image.last_seq,
        bytes: image.payload.as_ref().map_or(0, Vec::len) as u64,
        corrupt: image.payload.as_ref().err().map(ToString::to_string),
    }
}

/// Window starts where `local` and `remote` disagree *inside the acked
/// prefix*: both sides cover the identical range (`first_seq`,
/// `last_seq`, `count` all equal, `last_seq ≤ acked`) yet hash
/// differently. Shape mismatches are never flagged — differing
/// compaction horizons legitimately leave one side with a partial
/// window — so a divergence verdict is always byte-level.
#[must_use]
pub fn diverging_windows(local: &[RangeHash], remote: &[RangeHash], acked: u64) -> Vec<u64> {
    let remote_by_first: BTreeMap<u64, &RangeHash> =
        remote.iter().map(|r| (r.first_seq, r)).collect();
    local
        .iter()
        .filter(|ours| {
            remote_by_first.get(&ours.first_seq).is_some_and(|theirs| {
                ours.last_seq <= acked
                    && theirs.last_seq == ours.last_seq
                    && theirs.count == ours.count
                    && theirs.hash != ours.hash
            })
        })
        .map(|ours| ours.first_seq)
        .collect()
}

/// The deterministic data-at-rest corruption seam: for every
/// `disk.bitrot@SEQ:BYTES` directive in `plan` whose record sits in a
/// *sealed* segment (never `active`), claims the fault and XOR-flips
/// `BYTES` payload bytes of that record in place. Returns the sequence
/// numbers struck.
///
/// # Errors
///
/// Returns the underlying I/O error when a flip fails mid-way; claimed
/// faults do not re-fire on retry, mirroring how real bit rot strikes
/// once.
pub fn inject_bitrot(
    dir: &Path,
    active: Option<&Path>,
    plan: &FaultPlan,
) -> std::io::Result<Vec<u64>> {
    if plan.bitrot_faults().is_empty() {
        return Ok(Vec::new());
    }
    let mut struck = Vec::new();
    DirScan::new(dir)?.scan_segments(active, |segment| {
        let path = dir.join(segment_name(segment.first_seq));
        for frame in &segment.frames {
            if frame.payload.is_empty() {
                continue; // nothing to flip without breaking framing
            }
            // `None` when nothing is scheduled, or it struck in an
            // earlier pass.
            let Some(flip) = plan.claim_bitrot(frame.seq) else {
                continue;
            };
            let payload_start = frame.end_offset - frame.payload.len() as u64;
            let span = flip.min(frame.payload.len());
            let mut flipped = frame.payload[..span].to_vec();
            for byte in &mut flipped {
                *byte ^= 0xFF;
            }
            let mut file = std::fs::OpenOptions::new().write(true).open(&path)?;
            file.seek(SeekFrom::Start(payload_start))?;
            file.write_all(&flipped)?;
            file.sync_data()?;
            struck.push(frame.seq);
        }
        Ok::<(), std::io::Error>(())
    })?;
    struck.sort_unstable();
    Ok(struck)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame;
    use crate::log::{EventStore, StoreOptions};
    use std::path::PathBuf;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "mine-scrub-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn small_segments() -> StoreOptions {
        StoreOptions {
            max_segment_bytes: 64,
            ..StoreOptions::default()
        }
    }

    #[test]
    fn clean_store_scrubs_clean_online_and_offline() {
        let dir = temp_dir("clean");
        let (store, _) = EventStore::open(&dir, small_segments()).unwrap();
        for i in 0..12 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
        let online = scrub_dir(&dir, Some(&store.active_segment())).unwrap();
        assert!(online.is_clean(), "{online:?}");
        assert!(online.segments.len() > 1, "rotation sealed segments");
        let total: u64 = online.ranges.iter().map(|r| r.count).sum();
        let sealed: u64 = online.segments.iter().map(|s| s.records).sum();
        assert_eq!(total, sealed);
        drop(store);
        let offline = scrub_dir(&dir, None).unwrap();
        assert!(offline.is_clean(), "{offline:?}");
        assert_eq!(
            offline.ranges.iter().map(|r| r.count).sum::<u64>(),
            12,
            "offline pass hashes every record"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bitrot_in_a_sealed_segment_is_detected_and_struck_once() {
        let dir = temp_dir("bitrot");
        let (store, _) = EventStore::open(&dir, small_segments()).unwrap();
        for i in 0..12 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
        let active = store.active_segment();
        let clean = scrub_dir(&dir, Some(&active)).unwrap();
        assert!(clean.is_clean());

        let plan = FaultPlan::parse("disk.bitrot@2:3").unwrap();
        let struck = inject_bitrot(&dir, Some(&active), &plan).unwrap();
        assert_eq!(struck, vec![2]);
        // Claimed: a second pass does not strike again.
        assert!(inject_bitrot(&dir, Some(&active), &plan)
            .unwrap()
            .is_empty());

        let dirty = scrub_dir(&dir, Some(&active)).unwrap();
        let corrupt = dirty.corrupt_segments();
        assert_eq!(corrupt.len(), 1, "{dirty:?}");
        assert_eq!(corrupt[0].first_seq, 1);
        // The corrupt segment contributes no range hashes.
        assert!(
            dirty.ranges.iter().map(|r| r.count).sum::<u64>()
                < clean.ranges.iter().map(|r| r.count).sum::<u64>()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn offline_scrub_tolerates_a_torn_tail_like_recovery_does() {
        let dir = temp_dir("torn-tail");
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        store.append(b"one").unwrap();
        store.append(b"two").unwrap();
        let active = store.active_segment();
        drop(store);
        // Chop the last frame mid-payload: the crash signature.
        let len = std::fs::metadata(&active).unwrap().len();
        let file = std::fs::OpenOptions::new()
            .write(true)
            .open(&active)
            .unwrap();
        file.set_len(len - 2).unwrap();
        drop(file);
        let offline = scrub_dir(&dir, None).unwrap();
        assert!(offline.is_clean(), "{offline:?}");
        // Online, the same segment (now sealed from the scrubber's view)
        // is damage.
        let online = scrub_dir(&dir, Some(Path::new("/nonexistent"))).unwrap();
        assert!(!online.is_clean());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn range_hashes_agree_iff_ranges_are_byte_equal() {
        let dir_a = temp_dir("ranges-a");
        let dir_b = temp_dir("ranges-b");
        for dir in [&dir_a, &dir_b] {
            let (store, _) = EventStore::open(dir, small_segments()).unwrap();
            for i in 0..10 {
                store.append(format!("record-{i}").as_bytes()).unwrap();
            }
        }
        let a = scrub_dir(&dir_a, None).unwrap();
        let b = scrub_dir(&dir_b, None).unwrap();
        assert_eq!(a.ranges, b.ranges);
        assert!(diverging_windows(&a.ranges, &b.ranges, 10).is_empty());

        // Re-encode record 5 with a different payload of equal length:
        // internally consistent frames, byte-divergent history — the
        // damage frame CRCs cannot see and range hashes exist to catch.
        let mut seg = None;
        for entry in std::fs::read_dir(&dir_b).unwrap() {
            let name = entry.unwrap().file_name().to_string_lossy().into_owned();
            if name.starts_with("wal-") && name.ends_with(".log") {
                let bytes = std::fs::read(dir_b.join(&name)).unwrap();
                let (frames, _) = frame::scan(&bytes);
                if frames.iter().any(|f| f.seq == 5) {
                    seg = Some((dir_b.join(&name), frames));
                }
            }
        }
        let (path, frames) = seg.expect("segment holding seq 5");
        let mut rebuilt = Vec::new();
        for f in &frames {
            let payload = if f.seq == 5 {
                b"recorD-4".to_vec() // same length, different bytes
            } else {
                f.payload.clone()
            };
            rebuilt.extend_from_slice(&frame::encode(f.seq, &payload));
        }
        std::fs::write(&path, &rebuilt).unwrap();
        let b = scrub_dir(&dir_b, None).unwrap();
        assert!(b.is_clean(), "valid CRCs: frame scan cannot see this");
        assert_ne!(a.ranges, b.ranges, "range hashes can");
        assert_eq!(diverging_windows(&b.ranges, &a.ranges, 10), vec![1]);
        // Outside the acked prefix nothing is flagged.
        assert!(diverging_windows(&b.ranges, &a.ranges, 0).is_empty());
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}
