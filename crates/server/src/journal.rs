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
//! [`open_journaled_state`] restores the base, files each delta's
//! records on top, takes the live sittings from the newest image,
//! replays the tail through `ServerState::apply` — the very method
//! the live handlers mutate through — and returns the ready
//! [`ServerState`].
//! Determinism comes from the sessions' logical clock: no wall time is
//! ever consulted.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::{RwLock, RwLockReadGuard, RwLockWriteGuard};

use serde::{Deserialize, Serialize};

use mine_adaptive::AdaptiveOptions;
use mine_core::{Answer, ExamId, StudentId, StudentRecord};
use mine_delivery::{DeliveryOptions, ExamSession, SessionCheckpoint, SessionImage};
use mine_itembank::Repository;
use mine_store::{EventStore, Recovered, Snapshot, StoreError, StoreOptions};
use mine_streamstats::StreamEngine;

use crate::adaptive::{AdaptiveImage, AdaptiveSitting};
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
    /// Finished records in student-id order.
    pub records: Vec<StudentRecord>,
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
                .map(|(exam, records)| ExamRecords {
                    exam,
                    records: records.iter().map(|record| (**record).clone()).collect(),
                })
                .collect(),
            adaptive: Some(adaptive.capture(AdaptiveSitting::image)),
        }
    }

    /// Restores this image into an (empty) registry, finished store,
    /// and streaming engine. Every restored record is folded into the
    /// engine through the same `apply` the live finish path uses, so a
    /// restarted (or bootstrapped) node's streaming report converges on
    /// the origin's.
    ///
    /// # Errors
    ///
    /// Returns a message naming the first session that failed to
    /// rebuild.
    pub fn restore(
        self,
        registry: &SessionRegistry,
        finished: &FinishedStore,
        stream: &StreamEngine,
        adaptive: &Registry<AdaptiveSitting>,
    ) -> Result<(), String> {
        for slot in self.sessions {
            let id = slot.session.id.as_str().to_string();
            let session = ExamSession::from_image(slot.session)
                .map_err(|err| format!("session {id} failed to rebuild: {err}"))?;
            registry
                .insert(SessionSlot {
                    session,
                    checkpoint: slot.checkpoint,
                })
                .map_err(|err| format!("session {id} failed to re-register: {err}"))?;
        }
        file_records(self.finished, finished, stream);
        for image in self.adaptive.unwrap_or_default() {
            let sitting = image.restore()?;
            let id = sitting.id().to_string();
            adaptive
                .insert(sitting)
                .map_err(|err| format!("adaptive sitting {id} failed to re-register: {err}"))?;
        }
        Ok(())
    }
}

/// Files an image's records the way a live finish does: push, then
/// fold into the stream, so a record for a student already filed (a
/// resit in a later delta) replaces the earlier one in both.
fn file_records(exams: Vec<ExamRecords>, finished: &FinishedStore, stream: &StreamEngine) {
    for exam in exams {
        for record in exam.records {
            stream.apply(&exam.exam, &record);
            finished.push(&exam.exam, record);
        }
    }
}

fn to_payload<T: Serialize>(value: &T, what: &str) -> Result<String, StoreError> {
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
    /// filed at or below it is in the base or a delta. It advances only
    /// after an image write succeeds, so a failed write's records go
    /// into the next image.
    covered_tick: AtomicU64,
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

    /// Appends one event (WAL-first: call before applying the
    /// mutation).
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the underlying append.
    pub fn append(&self, event: &SessionEvent) -> Result<u64, StoreError> {
        self.append_raw(to_payload(event, "event")?.as_bytes())
    }

    /// Appends pre-serialized event bytes. The replication follower uses
    /// this to journal the primary's records byte for byte, so its log —
    /// and therefore anything replayed from it — is identical to the
    /// primary's.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`] from the underlying append.
    pub fn append_raw(&self, payload: &[u8]) -> Result<u64, StoreError> {
        self.store.append(payload)
    }

    /// Installs a bootstrap snapshot received from a primary, rebasing
    /// the local log to its sequence numbering. Call with the write gate
    /// held, then `mark_installed` once memory holds the image.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`].
    pub fn install_snapshot(&self, payload: &[u8], last_seq: u64) -> Result<(), StoreError> {
        self.store.install_snapshot(payload, last_seq)
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

    /// Records that the durable images cover every record `finished`
    /// holds — true right after restoring them, before any tail replay.
    pub(crate) fn mark_covered(&self, finished: &FinishedStore) {
        self.covered_tick.store(finished.tick(), Ordering::Release);
    }

    /// Records that memory now holds exactly the bootstrap image
    /// installed through `seq`. The head may move backwards here (a
    /// deposed primary rebasing onto its successor's history).
    pub(crate) fn mark_installed(&self, finished: &FinishedStore, seq: u64) {
        self.mark_covered(finished);
        self.applied_seq.store(seq, Ordering::Release);
    }

    /// Whether enough events have accumulated to warrant a snapshot.
    #[must_use]
    pub fn due_for_snapshot(&self) -> bool {
        self.snapshot_every > 0 && self.store.events_since_snapshot() >= self.snapshot_every
    }

    /// Writes a compacting full base snapshot of `image`. Call with the
    /// write gate held. The covered tick stays where it was, because the
    /// journal cannot tell when `image` was captured: the next delta may
    /// repeat records the base already holds, which recovery files
    /// idempotently.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`]; the log remains intact on failure.
    pub fn write_snapshot(&self, image: &ServerImage) -> Result<(), StoreError> {
        self.store.snapshot(to_payload(image, "image")?.as_bytes())
    }

    /// Captures `state` and writes it as a full base. Call with the
    /// write gate held.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`]; the log remains intact on failure.
    pub(crate) fn write_base(&self, state: &ServerState) -> Result<(), StoreError> {
        let tick = state.finished.tick();
        let image = ServerImage::capture(&state.registry, &state.finished, &state.adaptive);
        self.write_snapshot(&image)?;
        self.covered_tick.store(tick, Ordering::Release);
        Ok(())
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
        let tick = state.finished.tick();
        let (base_bytes, delta_bytes) = self.store.image_bytes();
        let delta = ServerImage::capture_since(
            &state.registry,
            &state.finished,
            &state.adaptive,
            self.covered_tick.load(Ordering::Acquire),
        );
        let payload = to_payload(&delta, "image")?;
        if delta_bytes + (payload.len() as u64) < base_bytes {
            self.store.snapshot_delta(payload.as_bytes())?;
            self.covered_tick.store(tick, Ordering::Release);
            return Ok(());
        }
        self.write_base(state)
    }

    /// Flushes the log to stable storage.
    ///
    /// # Errors
    ///
    /// Propagates [`StoreError`].
    pub fn sync(&self) -> Result<(), StoreError> {
        self.store.sync()
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
/// Returns the store error, a snapshot-decode error, or a restore
/// failure as a human-readable message (the caller is `mine serve`,
/// which exits with it).
pub fn open_journaled_state(
    repository: Repository,
    dir: impl AsRef<Path>,
    options: StoreOptions,
    snapshot_every: u64,
) -> Result<(ServerState, RecoveryReport), String> {
    let (journal, recovered) =
        Journal::open(dir, options, snapshot_every).map_err(|err| err.to_string())?;
    let mut state = ServerState::new(repository);
    let mut report = RecoveryReport {
        warnings: recovered.warnings,
        ..RecoveryReport::default()
    };

    // The base, then each delta in seq order: every image's records
    // are filed like live finishes, and the live sittings come from the
    // newest image alone (older images' sittings have since finished or
    // moved on).
    report.snapshot_deltas = recovered.deltas.len();
    let images: Vec<Snapshot> = recovered
        .snapshot
        .into_iter()
        .chain(recovered.deltas)
        .collect();
    let newest = images.len().saturating_sub(1);
    for (index, snapshot) in images.into_iter().enumerate() {
        let image: ServerImage = decode_payload(
            &snapshot.payload,
            format_args!("image through seq {}", snapshot.last_seq),
        )?;
        report.snapshot_records += image
            .finished
            .iter()
            .map(|e| e.records.len())
            .sum::<usize>();
        if index < newest {
            file_records(image.finished, &state.finished, &state.stream);
            continue;
        }
        report.snapshot_sessions =
            image.sessions.len() + image.adaptive.as_ref().map_or(0, Vec::len);
        image.restore(
            &state.registry,
            &state.finished,
            &state.stream,
            &state.adaptive,
        )?;
    }
    journal.mark_covered(&state.finished);

    for record in recovered.events {
        let event: SessionEvent =
            decode_payload(&record.payload, format_args!("event seq {}", record.seq))?;
        if let Err(note) = state.replay(&event) {
            report.notes.push(format!("seq {}: {note}", record.seq));
        }
        report.events_replayed += 1;
    }

    state.journal = Some(journal);
    Ok((state, report))
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
            let journal = state.journal.as_ref().unwrap();
            journal
                .append(&SessionEvent::AdaptiveStep {
                    session: "cat~s1@0".to_string(),
                    answer: Answer::TrueFalse(true),
                    time_spent: Duration::from_secs(1),
                })
                .unwrap();
            journal
                .append(&SessionEvent::Created {
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
