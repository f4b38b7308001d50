//! The one reader of a store directory.
//!
//! A [`DirScan`] lists the directory once, reads the newest base and the
//! deltas above it, and scans every segment with [`frame::scan`], giving
//! each one [`Verdict`]. It never creates, truncates, deletes or renames
//! a file: [`crate::EventStore::open`] performs the repairs it reports.
//!
//! Offline (no writer) segments are judged by recovery's rule: a torn
//! frame followed only by empty segments is the crash shape recovery
//! truncates; any other torn or CRC-failing frame is damage, and so is a
//! record after the newest image that does not carry the next seq.
//! Online the writer's active segment is skipped and each sealed segment
//! must scan clean on its own, numbered on from the seq in its name: a
//! gap between sealed segments is the scrubber's own quarantine awaiting
//! repair, not fresh damage.

use std::path::{Path, PathBuf};

use crate::error::StoreError;
use crate::frame::{self, Frame, ScanEnd};
use crate::log::{Record, Recovered, Snapshot};

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

/// The seqs in a store directory's file names (`wal-{N}.log`,
/// `snapshot-{N}.snap`, `delta-{N}.snap`), by kind, each ascending.
#[derive(Debug, Default)]
pub(crate) struct StoreFiles {
    pub(crate) segments: Vec<u64>,
    pub(crate) bases: Vec<u64>,
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

/// Name of the durable epoch file inside a store directory.
pub(crate) const EPOCH_FILE: &str = "epoch";

/// The epoch a store starts at when no `epoch` file exists yet.
pub const INITIAL_EPOCH: u64 = 1;

pub(crate) fn read_epoch_file(dir: &Path) -> Result<u64, StoreError> {
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

/// What the reader decided about one segment.
#[derive(Debug)]
pub(crate) enum Verdict {
    Clean,
    /// A torn tail recovery truncates, with its warning.
    TornTail(String),
    /// Damage: `error` as [`crate::EventStore::open`] refuses it,
    /// `report` as a scrub report names it.
    Damaged {
        error: StoreError,
        report: String,
    },
}

/// One segment as the reader found it: the seq its name carries, its
/// size, and the intact frames before any damage.
#[derive(Debug)]
pub(crate) struct SegmentScan {
    pub(crate) first_seq: u64,
    pub(crate) bytes: u64,
    pub(crate) frames: Vec<Frame>,
    pub(crate) verdict: Verdict,
}

/// One image (the newest base or a delta) as the reader found it.
#[derive(Debug)]
pub(crate) struct ImageScan {
    pub(crate) file: String,
    pub(crate) last_seq: u64,
    /// The payload, or why recovery cannot use it: a failed read, or a
    /// delta with no base under it.
    pub(crate) payload: Result<Vec<u8>, StoreError>,
}

impl ImageScan {
    /// Reads one image; `None` when it vanished after the listing.
    fn read(dir: &Path, file: String, last_seq: u64) -> Option<Self> {
        let payload = match std::fs::read(dir.join(&file)) {
            Err(err) if err.kind() == std::io::ErrorKind::NotFound => return None,
            read => read.map_err(StoreError::Io),
        };
        Some(Self {
            file,
            last_seq,
            payload,
        })
    }

    fn into_snapshot(self) -> Result<Snapshot, StoreError> {
        Ok(Snapshot {
            last_seq: self.last_seq,
            payload: self.payload?,
        })
    }
}

/// A store directory, listed once, with its images read.
#[derive(Debug)]
pub(crate) struct DirScan {
    dir: PathBuf,
    segments: Vec<u64>,
    /// The seq the newest image covers, 0 without one.
    covered: u64,
    pub(crate) base: Option<ImageScan>,
    /// The deltas above the base (without a base, every delta, unusable).
    pub(crate) deltas: Vec<ImageScan>,
    /// Older bases and deltas at or below the base: crash leftovers.
    pub(crate) stale: Vec<String>,
    /// The segment the writer continues, found by [`DirScan::recover`].
    pub(crate) tail: Option<Tail>,
}

/// The last non-empty segment (the first when all are empty), its intact
/// bytes, and whether a torn tail past them is to be truncated.
#[derive(Debug)]
pub(crate) struct Tail {
    pub(crate) first_seq: u64,
    pub(crate) bytes: u64,
    pub(crate) torn: bool,
}

impl DirScan {
    /// Lists `dir` and reads its newest base and the deltas above it. An
    /// image that cannot be read is recorded in its [`ImageScan`]; only a
    /// failed listing is an error.
    pub(crate) fn new(dir: &Path) -> std::io::Result<Self> {
        let mut files = StoreFiles::list(dir)?;
        let base_seq = files.bases.pop();
        let base = base_seq.and_then(|seq| ImageScan::read(dir, snapshot_name(seq), seq));
        let mut stale: Vec<String> = files.bases.into_iter().map(snapshot_name).collect();
        let mut deltas = Vec::new();
        for seq in files.deltas {
            if seq <= base_seq.unwrap_or(0) {
                stale.push(delta_name(seq));
            } else if base.is_none() {
                deltas.push(ImageScan {
                    file: delta_name(seq),
                    last_seq: seq,
                    payload: Err(StoreError::Corrupt {
                        file: delta_name(seq),
                        offset: 0,
                        reason: "delta image without a base snapshot".to_string(),
                    }),
                });
            } else {
                deltas.extend(ImageScan::read(dir, delta_name(seq), seq));
            }
        }
        let newest = deltas.last().or(base.as_ref());
        let covered = newest.map_or(0, |image| image.last_seq);
        Ok(Self {
            dir: dir.to_path_buf(),
            segments: files.segments,
            covered,
            base,
            deltas,
            stale,
            tail: None,
        })
    }

    /// Whether every segment after the `index`th is empty or gone.
    fn empty_after(&self, index: usize) -> bool {
        self.segments[index + 1..].iter().all(|&seq| {
            std::fs::metadata(self.dir.join(segment_name(seq))).map_or(true, |m| m.len() == 0)
        })
    }

    /// Hands each segment, in order and with its verdict, to `visit`,
    /// which may stop the walk with an error. With `active` (a writer's
    /// segment) the walk is online and skips it. A segment a concurrent
    /// compaction deleted after the listing is skipped.
    pub(crate) fn scan_segments<E: From<std::io::Error>>(
        &self,
        active: Option<&Path>,
        mut visit: impl FnMut(SegmentScan) -> Result<(), E>,
    ) -> Result<(), E> {
        let (online, covered) = (active.is_some(), self.covered);
        // Offline, the seq the next record must carry; `None` after
        // damage, so the walk picks up afresh and reports a fault once.
        let mut expected = Some(covered + 1);
        for (index, &first_seq) in self.segments.iter().enumerate() {
            let path = self.dir.join(segment_name(first_seq));
            if active == Some(path.as_path()) {
                continue;
            }
            let bytes = match std::fs::read(&path) {
                Ok(bytes) => bytes,
                Err(err) if err.kind() == std::io::ErrorKind::NotFound => continue,
                Err(err) => return Err(err.into()),
            };
            let (frames, end) = frame::scan(&bytes);
            let mut next = if online { Some(first_seq) } else { expected };
            let mut gap = None;
            for frame in &frames {
                if !online && frame.seq <= covered {
                    continue; // an image holds it; the segment awaits cleanup
                }
                match next {
                    Some(want) if want != frame.seq => {
                        gap = Some((
                            frame.end_offset,
                            format!("expected {want}, found {}", frame.seq),
                        ));
                        break;
                    }
                    _ => next = Some(frame.seq + 1),
                }
            }
            let damaged = |offset, reason, report| Verdict::Damaged {
                error: StoreError::Corrupt {
                    file: segment_name(first_seq),
                    offset,
                    reason,
                },
                report,
            };
            let verdict = match (end, gap) {
                (ScanEnd::Corrupt { offset, reason }, _) => {
                    let report = format!("corrupt at offset {offset}: {reason}");
                    damaged(offset, reason, report)
                }
                (ScanEnd::Torn { offset, reason }, _) if online || !self.empty_after(index) => {
                    let report = format!("torn at offset {offset}: {reason}");
                    let reason = format!("{reason}, with later segments present");
                    damaged(offset, reason, report)
                }
                (_, Some((offset, gap))) => damaged(
                    offset,
                    format!("sequence gap: {gap}"),
                    format!("sequence gap at offset {offset}: {gap}"),
                ),
                (ScanEnd::Torn { offset, reason }, None) => {
                    let (file, dropped) = (segment_name(first_seq), bytes.len() as u64 - offset);
                    Verdict::TornTail(format!(
                        "truncated torn tail of {file}: {reason} at offset {offset} ({dropped} bytes dropped)"
                    ))
                }
                (ScanEnd::Clean, None) => Verdict::Clean,
            };
            expected = match verdict {
                Verdict::Damaged { .. } => None,
                _ => next,
            };
            visit(SegmentScan {
                first_seq,
                bytes: bytes.len() as u64,
                frames,
                verdict,
            })?;
        }
        Ok(())
    }

    /// Reads the history and the epoch as recovery does, failing on the
    /// first damage in order: an image's, then each segment's, then the
    /// epoch's. Finds [`DirScan::tail`] on the way.
    pub(crate) fn recover(&mut self) -> Result<(Recovered, u64), StoreError> {
        let snapshot = self.base.take().map(ImageScan::into_snapshot).transpose()?;
        let deltas = std::mem::take(&mut self.deltas)
            .into_iter()
            .map(ImageScan::into_snapshot)
            .collect::<Result<_, _>>()?;
        let (mut events, mut warnings, mut tail) = (Vec::new(), Vec::new(), None);
        self.scan_segments(None, |segment| {
            let torn = match segment.verdict {
                Verdict::Damaged { error, .. } => return Err(error),
                Verdict::TornTail(warning) => {
                    warnings.push(warning);
                    true
                }
                Verdict::Clean => false,
            };
            if tail.is_none() || segment.bytes > 0 {
                tail = Some(Tail {
                    first_seq: segment.first_seq,
                    bytes: segment.frames.last().map_or(0, |f| f.end_offset),
                    torn,
                });
            }
            for frame in segment.frames.into_iter().filter(|f| f.seq > self.covered) {
                let (seq, payload) = (frame.seq, frame.payload);
                events.push(Record { seq, payload });
            }
            Ok(())
        })?;
        self.tail = tail;
        let recovered = Recovered {
            snapshot,
            deltas,
            events,
            warnings,
            segments: self.segments.len(),
        };
        Ok((recovered, read_epoch_file(&self.dir)?))
    }
}

/// Reads the store at `dir` as [`crate::EventStore::open`] recovers it —
/// the same history, warnings and errors — and returns the history and
/// the durable epoch. Nothing is changed, so the warnings name repairs
/// the next `open` performs.
///
/// # Errors
///
/// Those of `open`, and [`StoreError::Io`] when `dir` does not exist.
pub fn read_store(dir: &Path) -> Result<(Recovered, u64), StoreError> {
    DirScan::new(dir)?.recover()
}
