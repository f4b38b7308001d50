//! Durability for the delivery service: every session mutation is
//! journaled as a [`SessionEvent`] in a [`mine_store::EventStore`]
//! write-ahead log, and a restarted server rebuilds byte-identical
//! registry state by replaying snapshot + tail.
//!
//! # Write path
//!
//! Handlers journal WAL-first: the event is appended *before* the
//! in-memory mutation, inside the same per-session lock, so the log
//! order of any one session's events always matches the order its
//! mutations were applied in. A journaled event whose mutation then
//! fails (a duplicate start, an answer after expiry) is harmless —
//! replay drives the same code path and fails the same deterministic
//! way.
//!
//! # Snapshot path
//!
//! Periodically the router compacts the log under the journal's write
//! gate (which excludes all mutating handlers). A compaction writes a
//! [`ServerImage`]: either a full *base* — every live session as a
//! [`SessionImage`] plus every finished record — or, while the deltas'
//! total stays below the base's size, a *delta* of the same shape that
//! holds every live session but only the records filed since the last
//! durable image (DESIGN.md §15).
//!
//! # Recovery
//!
//! [`open_journaled_state`] opens the journal, then rebuilds the state
//! from what it recovered — touching no store, so `mine audit` runs the
//! same rebuild in memory: it restores the base, files each delta's
//! records on top, takes the live sittings from the newest image, and
//! replays the tail through `ServerState::apply`, the very method the
//! live handlers mutate through. Determinism comes from the sessions'
//! logical clock: no wall time is ever consulted.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use serde::{Deserialize, Serialize};

use mine_adaptive::AdaptiveOptions;
use mine_analysis::AnalysisConfig;
use mine_core::{Answer, ExamId, StudentId, StudentRecord};
use mine_delivery::{DeliveryOptions, ExamSession, SessionCheckpoint, SessionImage};
use mine_itembank::Repository;
use mine_store::{EventStore, Recovered, ReplError, Snapshot, StoreError, StoreOptions};
use mine_streamstats::StreamEngine;

use crate::adaptive::{AdaptiveImage, AdaptiveSitting};
use crate::metrics::Metrics;
use crate::registry::{FinishedStore, Registry, SessionRegistry, SessionSlot};
use crate::router::ServerState;

/// One journaled mutation of the session registry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionEvent {
    /// `POST /sessions` — a sitting was started. The session id is
    /// derived deterministically from `exam`, `student`, and the seed,
    /// so it is not stored.
    Created {
        /// The exam sat.
        exam: ExamId,
        /// The learner.
        student: StudentId,
        /// Options (seed, resumability, accommodation).
        options: DeliveryOptions,
    },
    /// `POST /sessions/{id}/answers` — an answer attempt reached the
    /// session (journaled even when the session rejects it, because a
    /// rejection can still move the logical clock: time expiry clamps
    /// `elapsed` to the limit).
    Answered {
        /// The session answered.
        session: String,
        /// The answer given.
        answer: Answer,
        /// Logical time spent, in whole microseconds.
        time_spent: std::time::Duration,
    },
    /// `POST /sessions/{id}/pause`.
    Paused {
        /// The session paused.
        session: String,
    },
    /// `POST /sessions/{id}/resume`.
    Resumed {
        /// The session resumed.
        session: String,
    },
    /// `POST /sessions/{id}/finish` — the sitting was graded, filed,
    /// and evicted. Later requests for it answer 404, and a re-sit with
    /// the same seed starts afresh.
    Finished {
        /// The session finished.
        session: String,
    },
    /// `POST /sessions` with `"mode": "adaptive"` — a CAT sitting was
    /// started. Like `Created`, the session id derives from exam,
    /// student, and seed.
    AdaptiveCreated {
        /// The exam sat.
        exam: ExamId,
        /// The learner.
        student: StudentId,
        /// Stop-rule parameters and seed.
        options: AdaptiveOptions,
    },
    /// One adaptive step: the answer submitted for the pending item.
    /// The estimator state delta is *implied* — replaying the answer
    /// through the deterministic grade → record → EAP → max-information
    /// pipeline reproduces the posterior and the next item bit-for-bit.
    AdaptiveStep {
        /// The sitting stepped.
        session: String,
        /// The submitted answer.
        answer: Answer,
        /// Reported time on the item.
        time_spent: std::time::Duration,
    },
    /// `POST /sessions/{id}/finish` on an adaptive sitting.
    AdaptiveFinished {
        /// The sitting finished.
        session: String,
    },
}

impl SessionEvent {
    /// Short label for inspection tooling (`mine recover`) and replay
    /// notes.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            SessionEvent::Created { .. } => "created",
            SessionEvent::Answered { .. } => "answered",
            SessionEvent::Paused { .. } => "paused",
            SessionEvent::Resumed { .. } => "resumed",
            SessionEvent::Finished { .. } => "finished",
            SessionEvent::AdaptiveCreated { .. } => "adaptive-created",
            SessionEvent::AdaptiveStep { .. } => "adaptive-step",
            SessionEvent::AdaptiveFinished { .. } => "adaptive-finished",
        }
    }
}

/// One live session inside a [`ServerImage`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SlotImage {
    /// The full session state.
    pub session: SessionImage,
    /// The server-side copy of the latest pause checkpoint.
    pub checkpoint: Option<SessionCheckpoint>,
}

/// Finished records of one exam inside a [`ServerImage`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExamRecords {
    /// The exam id.
    pub exam: String,
    /// Finished records in student-id order, shared with the finished
    /// store they were captured from.
    pub records: Vec<Arc<StudentRecord>>,
}

/// Everything the registry and finished store hold, in deterministic
/// order — the payload of a store snapshot. A delta image has the same
/// shape but carries only the finished records filed since the previous
/// image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ServerImage {
    /// Live sessions, ordered by session id.
    pub sessions: Vec<SlotImage>,
    /// Finished records, ordered by exam id.
    pub finished: Vec<ExamRecords>,
    /// Live adaptive sittings, ordered by session id. `Option` so
    /// snapshots written before adaptive serving existed still decode.
    pub adaptive: Option<Vec<AdaptiveImage>>,
}

impl ServerImage {
    /// Captures the current registries and finished store.
    #[must_use]
    pub fn capture(
        registry: &SessionRegistry,
        finished: &FinishedStore,
        adaptive: &Registry<AdaptiveSitting>,
    ) -> Self {
        Self::capture_since(registry, finished, adaptive, 0)
    }

    /// Captures every live sitting but only the finished records filed
    /// after `tick` (see [`FinishedStore::filed_since`]): a delta image.
    #[must_use]
    pub fn capture_since(
        registry: &SessionRegistry,
        finished: &FinishedStore,
        adaptive: &Registry<AdaptiveSitting>,
        tick: u64,
    ) -> Self {
        Self {
            sessions: registry.capture(|slot| SlotImage {
                session: slot.session.image(),
                checkpoint: slot.checkpoint.clone(),
            }),
            finished: finished
                .filed_since(tick)
                .into_iter()
                .map(|(exam, records)| ExamRecords { exam, records })
                .collect(),
            adaptive: Some(adaptive.capture(AdaptiveSitting::image)),
        }
    }

    /// Encodes the image as the JSON payload a base, delta or bootstrap
    /// carries: the one encoder of images.
    pub(crate) fn encode(&self) -> Result<String, StoreError> {
        to_payload(self, "image")
    }
}

/// Captures and encodes an image of `state`: every live sitting and the
/// records filed after `since` (0 for a full base). Also returns the
/// [`FinishedStore`] tick it covers. The one place an image is captured.
pub(crate) fn capture_image(state: &ServerState, since: u64) -> Result<(String, u64), StoreError> {
    let tick = state.finished.tick();
    let image =
        ServerImage::capture_since(&state.registry, &state.finished, &state.adaptive, since);
    Ok((image.encode()?, tick))
}

/// Live structures restored from images, fresh so a bootstrap can swap
/// them in whole.
struct LiveState {
    registry: SessionRegistry,
    finished: FinishedStore,
    stream: StreamEngine,
    adaptive: Registry<AdaptiveSitting>,
}

/// Decodes a base and the deltas above it in seq order (a bootstrap is
/// a lone base) into fresh structures: the one image decoder, serving
/// recovery, `mine audit` and the follower bootstrap. Every image's
/// records are filed like live finishes (push, then the stream's
/// `apply`); the live sittings come from the newest image alone. Adds
/// what it restored to `report`.
///
/// # Errors
///
/// A decode failure, or the first sitting that failed to rebuild.
fn restore_images(
    images: &[&Snapshot],
    config: AnalysisConfig,
    report: &mut RecoveryReport,
) -> Result<LiveState, String> {
    let live = LiveState {
        registry: SessionRegistry::default(),
        finished: FinishedStore::new(),
        stream: StreamEngine::new(config),
        adaptive: Registry::default(),
    };
    for (index, snapshot) in images.iter().enumerate() {
        let image: ServerImage = decode_payload(
            &snapshot.payload,
            format_args!("image through seq {}", snapshot.last_seq),
        )?;
        report.snapshot_records += file_records(image.finished, &live.finished, &live.stream);
        if index + 1 < images.len() {
            continue;
        }
        let adaptive = image.adaptive.unwrap_or_default();
        report.snapshot_sessions = image.sessions.len() + adaptive.len();
        for slot in image.sessions {
            let id = slot.session.id.as_str().to_string();
            let session = ExamSession::from_image(slot.session)
                .map_err(|err| format!("session {id} failed to rebuild: {err}"))?;
            live.registry
                .insert(SessionSlot {
                    session,
                    checkpoint: slot.checkpoint,
                })
                .map_err(|err| format!("session {id} failed to re-register: {err}"))?;
        }
        for image in adaptive {
            let sitting = image.restore()?;
            let id = sitting.id().to_string();
            live.adaptive
                .insert(sitting)
                .map_err(|err| format!("adaptive sitting {id} failed to re-register: {err}"))?;
        }
    }
    Ok(live)
}

/// Files an image's records the way a live finish does: push, then
/// fold into the stream, so a record for a student already filed (a
/// resit in a later delta) replaces the earlier one in both. Returns
/// how many it filed.
fn file_records(exams: Vec<ExamRecords>, finished: &FinishedStore, stream: &StreamEngine) -> usize {
    let mut filed = 0;
    for exam in exams {
        filed += exam.records.len();
        for record in exam.records {
            stream.apply(&exam.exam, &record);
            finished.push(&exam.exam, record);
        }
    }
    filed
}

pub(crate) fn to_payload<T: Serialize>(value: &T, what: &str) -> Result<String, StoreError> {
    serde_json::to_string(value).map_err(|err| {
        StoreError::Io(std::io::Error::other(format!(
            "{what} failed to serialize: {err}"
        )))
    })
}

/// The server's handle on its write-ahead log: the event store plus the
/// snapshot gate handlers and the compactor coordinate through.
#[derive(Debug)]
pub struct Journal {
    store: EventStore,
    /// Mutating handlers hold `read`; the compactor holds `write` while
    /// capturing a [`ServerImage`], so a snapshot never interleaves
    /// with a half-applied mutation. Lock order is always gate →
    /// registry shard/slot → store mutex, so no cycle exists.
    gate: RwLock<()>,
    /// Snapshot after this many journaled events (0 = never).
    snapshot_every: u64,
    /// The [`FinishedStore`] tick the durable images cover: every record
    /// filed at or below it is in the base or a delta. Only
    /// [`Journal::write_image`] moves it, once the image is durable.
    covered_tick: AtomicU64,
    /// Set while the last image write failed: the journal stays due for
    /// compaction until an image lands (a failed scrub repair included).
    image_due: AtomicBool,
    /// Quarantined segments no image has covered yet. The next image
    /// that lands — a self-repair base, a retried compaction or a
    /// bootstrap install — covers their gap and credits them to
    /// `mine_repair_segments_total`.
    repair_pending: AtomicU64,
    /// The highest sequence number whose effects are in memory — what
    /// `/healthz` reports as `last_applied_seq`. Published only after
    /// the mutation, replayed record or bootstrap restore it names.
    applied_seq: AtomicU64,
}

impl Journal {
    /// Opens the journal at `dir`, recovering prior state.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from [`EventStore::open`].
    pub fn open(
        dir: impl AsRef<Path>,
        options: StoreOptions,
        snapshot_every: u64,
    ) -> Result<(Self, Recovered), StoreError> {
        let (store, recovered) = EventStore::open(dir.as_ref().to_path_buf(), options)?;
        let head = store.next_seq() - 1;
        Ok((
            Self {
                store,
                gate: RwLock::new(()),
                snapshot_every,
                covered_tick: AtomicU64::new(0),
                image_due: AtomicBool::new(false),
                repair_pending: AtomicU64::new(0),
                applied_seq: AtomicU64::new(head),
            },
            recovered,
        ))
    }

    /// The underlying event store (epoch reads, head inspection).
    #[must_use]
    pub fn store(&self) -> &EventStore {
        &self.store
    }

    /// Shared gate for mutating handlers.
    pub fn gate_read(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read()
    }

    /// Exclusive gate for the compactor.
    pub fn gate_write(&self) -> RwLockWriteGuard<'_, ()> {
        self.gate.write()
    }

    /// The highest sequence number whose effects are in memory.
    #[must_use]
    pub fn applied_seq(&self) -> u64 {
        self.applied_seq.load(Ordering::Acquire)
    }

    /// Publishes `seq` as applied once its mutation is in memory.
    pub(crate) fn mark_applied(&self, seq: u64) {
        self.applied_seq.fetch_max(seq, Ordering::AcqRel);
    }

    /// Whether enough events have accumulated to warrant a snapshot, or
    /// the last image write failed and must be retried.
    #[must_use]
    pub fn due_for_snapshot(&self) -> bool {
        self.image_due.load(Ordering::Acquire)
            || (self.snapshot_every > 0
                && self.store.events_since_snapshot() >= self.snapshot_every)
    }

    /// Counts `segments` freshly quarantined segments as awaiting the
    /// image that repairs them.
    pub(crate) fn await_repair(&self, segments: u64) {
        self.repair_pending.fetch_add(segments, Ordering::AcqRel);
    }

    /// The journal's one image writer: runs `write` (one of the store's
    /// image writes), then records that the images cover every record
    /// filed at or below `covers`, and credits to `metrics` the repairs
    /// the image completes. A failure leaves the journal due for
    /// compaction. Call with the write gate held.
    fn write_image(
        &self,
        metrics: Option<&Metrics>,
        covers: u64,
        write: impl FnOnce(&EventStore) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let written = write(&self.store);
        self.image_due.store(written.is_err(), Ordering::Release);
        written?;
        self.covered_tick.store(covers, Ordering::Release);
        if let Some(metrics) = metrics {
            let repaired = self.repair_pending.swap(0, Ordering::AcqRel);
            if repaired > 0 {
                metrics.repair_segments_total.add(repaired);
                eprintln!(
                    "[mine-journal] image written: {repaired} quarantined segment(s) repaired"
                );
            }
        }
        Ok(())
    }

    /// Writes a compacting full base snapshot of `image`. Call with the
    /// write gate held. The covered tick stays where it was, because the
    /// journal cannot tell when `image` was captured: the next delta may
    /// repeat records the base already holds, which recovery files
    /// idempotently. With no server's metrics at hand, any pending
    /// repairs wait for the next image to be credited.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`]; the log remains intact on failure.
    pub fn write_snapshot(&self, image: &ServerImage) -> Result<(), StoreError> {
        let payload = image.encode()?;
        let covered = self.covered_tick.load(Ordering::Acquire);
        self.write_image(None, covered, |store| store.snapshot(payload.as_bytes()))
    }

    /// Captures `state` and writes it as a full base. Call with the
    /// write gate held.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`]; the log remains intact on failure.
    pub(crate) fn write_base(&self, state: &ServerState) -> Result<(), StoreError> {
        let (payload, tick) = capture_image(state, 0)?;
        self.write_image(Some(&state.metrics), tick, |store| {
            store.snapshot(payload.as_bytes())
        })
    }

    /// Periodic compaction: writes a delta when a base exists and the
    /// deltas, this one included, stay smaller than it; otherwise folds
    /// everything into a fresh base. Call with the write gate held.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`]; the log and the covered tick stay as
    /// they were on failure.
    pub(crate) fn compact(&self, state: &ServerState) -> Result<(), StoreError> {
        let (base_bytes, delta_bytes) = self.store.image_bytes();
        let (delta, tick) = capture_image(state, self.covered_tick.load(Ordering::Acquire))?;
        if delta_bytes + (delta.len() as u64) < base_bytes {
            return self.write_image(Some(&state.metrics), tick, |store| {
                store.snapshot_delta(delta.as_bytes())
            });
        }
        self.write_base(state)
    }

    /// Installs a bootstrap image from a primary: restores it into fresh
    /// structures off the gate (readers keep the old state meanwhile),
    /// then under the write gate rebases the log onto it and swaps each
    /// structure in whole, so a reader never sees an empty one. Only then
    /// does `last_applied_seq` move to the image, possibly backwards (a
    /// deposed primary rebasing onto its successor's history).
    ///
    /// # Errors
    ///
    /// [`ReplError::Frame`] when the image does not restore, the store's
    /// error when it refuses the image; memory is then unchanged.
    pub(crate) fn install_image(
        &self,
        state: &ServerState,
        image: &Snapshot,
    ) -> Result<(), ReplError> {
        let config = *state.stream.config();
        let live = restore_images(&[image], config, &mut RecoveryReport::default())
            .map_err(|reason| ReplError::Frame { reason })?;
        let _gate = self.gate_write();
        self.write_image(Some(&state.metrics), live.finished.tick(), |store| {
            store.install_snapshot(&image.payload, image.last_seq)
        })?;
        state.registry.replace_with(live.registry);
        state.finished.replace_with(live.finished);
        state.stream.replace_with(live.stream);
        state.adaptive.replace_with(live.adaptive);
        self.applied_seq.store(image.last_seq, Ordering::Release);
        Ok(())
    }
}

/// What [`open_journaled_state`] found and rebuilt.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Live sessions restored from the newest image.
    pub snapshot_sessions: usize,
    /// Finished records restored from the base and its deltas.
    pub snapshot_records: usize,
    /// Delta images restored on top of the base.
    pub snapshot_deltas: usize,
    /// Tail events replayed after the snapshot.
    pub events_replayed: usize,
    /// Store-level repairs (torn tails truncated).
    pub warnings: Vec<String>,
    /// Events that did not apply cleanly (deterministic rejections are
    /// expected here — e.g. an answer the live server also rejected).
    pub notes: Vec<String>,
}

/// Opens the journal at `dir`, rebuilds the full [`ServerState`] from
/// base + deltas + tail, and attaches the journal so subsequent mutations
/// keep being logged.
///
/// # Errors
///
/// The store error, a decode error or a restore failure, as a message
/// (`mine serve` exits with it).
pub fn open_journaled_state(
    repository: Repository,
    dir: impl AsRef<Path>,
    options: StoreOptions,
    snapshot_every: u64,
) -> Result<(ServerState, RecoveryReport), String> {
    let (journal, recovered) =
        Journal::open(dir, options, snapshot_every).map_err(|err| err.to_string())?;
    let (mut state, report, covered_tick) = rebuild_state(repository, recovered)?;
    // The restored images cover every record filed before the tail.
    let covered_tick = covered_tick.into();
    state.journal = Some(Journal {
        covered_tick,
        ..journal
    });
    Ok((state, report))
}

/// Rebuilds a [`ServerState`] from a recovered history, touching no
/// store: restores the images, then replays the tail through
/// `ServerState::replay`. Also returns the [`FinishedStore`] tick the
/// images cover, read before the tail replay: a journal attached to the
/// state starts its next delta there.
///
/// # Errors
///
/// A snapshot-decode, event-decode or restore failure, as a message.
pub(crate) fn rebuild_state(
    repository: Repository,
    recovered: Recovered,
) -> Result<(ServerState, RecoveryReport, u64), String> {
    let mut state = ServerState::new(repository);
    let mut report = RecoveryReport {
        warnings: recovered.warnings,
        snapshot_deltas: recovered.deltas.len(),
        ..RecoveryReport::default()
    };
    let images: Vec<&Snapshot> = recovered.snapshot.iter().chain(&recovered.deltas).collect();
    let live = restore_images(&images, *state.stream.config(), &mut report)?;
    state.registry = live.registry;
    state.finished = live.finished;
    state.stream = Arc::new(live.stream);
    state.adaptive = live.adaptive;
    let covered_tick = state.finished.tick();

    for record in recovered.events {
        let event: SessionEvent =
            decode_payload(&record.payload, format_args!("event seq {}", record.seq))?;
        if let Err(note) = state.replay(&event) {
            report.notes.push(format!("seq {}: {note}", record.seq));
        }
        report.events_replayed += 1;
    }
    Ok((state, report, covered_tick))
}

/// Decodes a journaled payload (an event or an image) from its JSON.
/// An error names the payload by `what`, as in "event seq 7 is not
/// UTF-8" or "event seq 7 failed to decode: …".
pub(crate) fn decode_payload<T: Deserialize>(
    payload: &[u8],
    what: impl std::fmt::Display,
) -> Result<T, String> {
    let text = std::str::from_utf8(payload).map_err(|_| format!("{what} is not UTF-8"))?;
    serde_json::from_str(text).map_err(|err| format!("{what} failed to decode: {err}"))
}

/// Decodes every event in a recovered log for offline inspection
/// (`mine recover`). Returns `(seq, event)` pairs.
///
/// # Errors
///
/// Returns a message for the first undecodable event.
pub fn decode_events(recovered: &Recovered) -> Result<Vec<(u64, SessionEvent)>, String> {
    recovered
        .events
        .iter()
        .map(|record| {
            let event = decode_payload(&record.payload, format_args!("event seq {}", record.seq))?;
            Ok((record.seq, event))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn payload_errors_name_what_failed() {
        let err = decode_payload::<SessionEvent>(&[0xff, 0xfe], format_args!("event seq {}", 7))
            .unwrap_err();
        assert_eq!(err, "event seq 7 is not UTF-8");
        let err = decode_payload::<ServerImage>(b"{", "bootstrap image").unwrap_err();
        assert!(
            err.starts_with("bootstrap image failed to decode: "),
            "{err}"
        );
    }

    #[test]
    fn replay_notes_name_the_event_and_the_reason() {
        let dir = std::env::temp_dir().join(format!("mine-journal-notes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let open =
            || open_journaled_state(Repository::new(), &dir, StoreOptions::default(), 0).unwrap();
        {
            let (state, _) = open();
            state
                .journal_event(&SessionEvent::AdaptiveStep {
                    session: "cat~s1@0".to_string(),
                    answer: Answer::TrueFalse(true),
                    time_spent: Duration::from_secs(1),
                })
                .unwrap();
            state
                .journal_event(&SessionEvent::Created {
                    exam: "quiz".parse().unwrap(),
                    student: "s1".parse().unwrap(),
                    options: DeliveryOptions::default(),
                })
                .unwrap();
        }
        let (_, report) = open();
        assert_eq!(
            report.notes,
            [
                "seq 1: adaptive-step: no session cat~s1@0",
                "seq 2: created: exam \"quiz\" not found",
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn session_events_round_trip_through_json() {
        let events = vec![
            SessionEvent::Created {
                exam: "quiz".parse().unwrap(),
                student: "s1".parse().unwrap(),
                options: DeliveryOptions {
                    seed: 7,
                    resumable: false,
                    time_accommodation: 1.5,
                },
            },
            SessionEvent::Answered {
                session: "quiz#s1@7".to_string(),
                answer: Answer::TrueFalse(true),
                time_spent: Duration::from_millis(1500),
            },
            SessionEvent::Paused {
                session: "quiz#s1@7".to_string(),
            },
            SessionEvent::Resumed {
                session: "quiz#s1@7".to_string(),
            },
            SessionEvent::Finished {
                session: "quiz#s1@7".to_string(),
            },
            SessionEvent::AdaptiveCreated {
                exam: "quiz".parse().unwrap(),
                student: "s1".parse().unwrap(),
                options: AdaptiveOptions {
                    seed: 3,
                    min_items: 1,
                    max_items: 8,
                    se_threshold: 0.3,
                },
            },
            SessionEvent::AdaptiveStep {
                session: "quiz~s1@3".to_string(),
                answer: Answer::TrueFalse(false),
                time_spent: Duration::from_secs(4),
            },
            SessionEvent::AdaptiveFinished {
                session: "quiz~s1@3".to_string(),
            },
        ];
        for event in events {
            let json = serde_json::to_string(&event).unwrap();
            let back: SessionEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(back, event, "{json}");
        }
    }
}
