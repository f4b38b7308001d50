//! Transport-agnostic request routing: `Request → Response` over shared
//! service state, no sockets anywhere.
//!
//! [`Router::handle`] is the whole service: the TCP serve loop feeds it
//! parsed [`Request`]s, unit tests construct [`Request`]s directly.
//! Every handler is a pure function of (state, request), so the full
//! endpoint surface is testable in-process.

use std::convert::Infallible;
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, JsonWriter, Number, ObjectWriter, Serialize, Value};

use mine_adaptive::AdaptiveOptions;
use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{Answer, ExamId, ExamRecord, StudentRecord};
use mine_delivery::{DeliveryError, DeliveryOptions, ExamSession, SessionCheckpoint, SessionState};
use mine_itembank::{BankError, Problem, ProblemBody, Repository};
use mine_store::StoreError;
use mine_streamstats::StreamEngine;

use crate::adaptive::{AdaptiveAnswerError, AdaptiveSitting, AdaptiveStartError};
use crate::analysis_bodies::AnalysisBodies;
use crate::drain::Lifecycle;
use crate::http::{object_body, Request, Response};
use crate::journal::{to_payload, Journal, SessionEvent};
use crate::metrics::{Metrics, Route};
use crate::registry::{
    FinishedStore, Keyed, Registry, RegistryError, SessionRegistry, SessionSlot,
};
use crate::repl::{ReplState, Role};
use crate::scrub::write_range_hashes;

/// Retry-After advertised on writes shed while storage is degraded:
/// long enough that clients back off, short enough that a healed node
/// picks traffic back up promptly.
const DEGRADED_RETRY_SECS: u64 = 2;

/// Retry-After advertised on requests shed while the server drains.
const DRAIN_RETRY_SECS: u64 = 5;

/// Retry-After advertised on connections shed at a full accept queue.
pub(crate) const SHED_RETRY_SECS: u64 = 2;

/// Storage health shared by the handlers, the replication shipper, and
/// the background healer. Degraded means the WAL refused a write
/// (ENOSPC, fsync failure): the node keeps serving reads but sheds
/// writes with `503 + Retry-After` until [`mine_store::EventStore::try_heal`]
/// succeeds. Deliberately separate from [`Lifecycle`]: draining sheds
/// *everything* and never comes back; degraded sheds only writes and
/// self-recovers.
#[derive(Debug, Default)]
pub struct StorageHealth {
    /// Lock-free flag for the hot paths (dispatch gate, ship loop).
    degraded: std::sync::atomic::AtomicBool,
    /// Why the storage is degraded (the store error text), for
    /// `/healthz` and shed bodies.
    reason: parking_lot::Mutex<Option<String>>,
    /// Guards the single background healer thread.
    healer: std::sync::atomic::AtomicBool,
}

impl StorageHealth {
    /// Whether the WAL is currently refusing writes.
    #[must_use]
    pub fn is_degraded(&self) -> bool {
        self.degraded.load(std::sync::atomic::Ordering::Acquire)
    }

    /// The degradation cause, when degraded.
    #[must_use]
    pub fn reason(&self) -> Option<String> {
        self.reason.lock().clone()
    }

    /// Flags the storage degraded with `reason`. Returns whether this
    /// call flipped the flag (first observer spawns the healer).
    pub fn degrade(&self, reason: String) -> bool {
        *self.reason.lock() = Some(reason);
        !self
            .degraded
            .swap(true, std::sync::atomic::Ordering::AcqRel)
    }

    /// Clears the degraded flag after a successful heal.
    pub fn clear(&self) {
        *self.reason.lock() = None;
        self.degraded
            .store(false, std::sync::atomic::Ordering::Release);
    }

    fn claim_healer(&self) -> bool {
        !self.healer.swap(true, std::sync::atomic::Ordering::AcqRel)
    }

    fn release_healer(&self) {
        self.healer
            .store(false, std::sync::atomic::Ordering::Release);
    }
}

/// Everything the handlers share.
#[derive(Debug)]
pub struct ServerState {
    /// The item/exam database sittings are started from.
    pub repository: Repository,
    /// Live sessions.
    pub registry: SessionRegistry,
    /// Live adaptive (CAT) sittings: a second instance of the same
    /// registry. Session-id formats are disjoint (`~` vs `#`), so shared
    /// `/sessions/{id}` routes dispatch by whether this one holds the id.
    pub adaptive: Registry<AdaptiveSitting>,
    /// Finished records, grouped per exam for live analysis.
    pub finished: FinishedStore,
    /// The §4 pipeline (the `?mode=batch` escape hatch and the fallback
    /// for unstreamable inputs). It runs inline on the request's worker:
    /// the server already runs one worker per CPU, so fanning one read
    /// out over the pool would only take CPU from other connections.
    pub analyzer: BatchAnalyzer,
    /// Running sufficient statistics per exam: finish-time updates in
    /// O(1 + re-assignments), analysis reads assembled from counters.
    /// Must share the analyzer's [`AnalysisConfig`] so both modes
    /// compute the same report.
    pub stream: Arc<StreamEngine>,
    /// Streaming analysis bodies keyed by the stream stamp and bank
    /// revision they were built at (DESIGN.md §14).
    analysis_bodies: AnalysisBodies,
    /// Service counters.
    pub metrics: Metrics,
    /// The write-ahead log, when `--data-dir` durability is on.
    pub journal: Option<Journal>,
    /// Replication role and plumbing, when `--repl-addr` /
    /// `--replica-of` is on. Requires a journal.
    pub repl: Option<Arc<ReplState>>,
    /// Where the server is in its lifecycle; while draining, every
    /// route except `/healthz` and `/metrics` is shed with
    /// `503 + Retry-After`.
    pub lifecycle: Lifecycle,
    /// Whether the WAL currently accepts writes; degraded sheds writes
    /// (read-only) until the healer clears it.
    pub storage: StorageHealth,
    /// Serializes starts: the duplicate check, the commit of the start
    /// event and the registry insert happen as one step, so a start is
    /// logged only if it applies and always precedes its sitting's
    /// other events (see `ServerState::start`).
    create_lock: parking_lot::Mutex<()>,
}

impl ServerState {
    /// Builds service state around a repository (memory-only: no
    /// journal).
    #[must_use]
    pub fn new(repository: Repository) -> Self {
        let config = AnalysisConfig::default();
        Self {
            repository,
            registry: SessionRegistry::default(),
            adaptive: Registry::default(),
            finished: FinishedStore::new(),
            analyzer: BatchAnalyzer::new(config).with_threads(1),
            stream: Arc::new(StreamEngine::new(config)),
            analysis_bodies: AnalysisBodies::default(),
            metrics: Metrics::new(),
            journal: None,
            repl: None,
            lifecycle: Lifecycle::new(),
            storage: StorageHealth::default(),
            create_lock: parking_lot::Mutex::new(()),
        }
    }

    /// Journals one event, ships it to connected followers and marks it
    /// applied — the commit of every event this node originates, from
    /// the router's handlers and from the drain pass alike. Under
    /// `ack=quorum` this blocks (bounded) until a follower confirms
    /// durability; the record is already in the local WAL either way.
    /// Without a journal there is nothing to commit.
    ///
    /// # Errors
    ///
    /// The [`StoreError`] of a failed append; nothing was journaled or
    /// shipped.
    pub(crate) fn journal_event(&self, event: &SessionEvent) -> Result<(), StoreError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let payload = to_payload(event, "event")?;
        let seq = match &self.repl {
            Some(repl) => repl.append_and_publish(journal, payload.as_bytes(), &self.metrics)?,
            None => journal.store().append(payload.as_bytes())?,
        };
        // `apply` mutates next, still holding the session and the write
        // gate (read or exclusive); a request's reply goes out only
        // after it.
        journal.mark_applied(seq);
        Ok(())
    }

    /// Applies one [`SessionEvent`]. This is the only code that changes
    /// sittings: the router's handlers, crash recovery, the replication
    /// follower and the drain pass all come through here, which is what
    /// keeps live, WAL-replayed and promoted-replica state identical.
    ///
    /// `commit` runs WAL-first: after the event is validated as far as
    /// it can be without mutating anything (a fixed start's options, an
    /// adaptive answer on a complete sitting) and before any mutation,
    /// under the sitting's own lock (a start's under the create lock).
    /// If it fails, memory is untouched.
    /// Once it has run, the mutation is attempted and a rejection (an
    /// answer after expiry, say) is returned as one — replay meets the
    /// same rejection deterministically. The router and the drain pass
    /// commit through [`Self::journal_event`]; recovery and the
    /// follower, replaying an event already in the log, commit nothing.
    ///
    /// `render` sees what the mutation left behind and builds the
    /// caller's response; replay renders nothing.
    ///
    /// A finish files the record into [`FinishedStore`], folds it into
    /// the [`StreamEngine`] under the engine's per-exam lock (so the two
    /// always agree on the row set), then frees the slot, all before the
    /// sitting's lock is released: a finished sitting leaves nothing
    /// behind, and a re-sit with the same seed starts afresh.
    ///
    /// # Errors
    ///
    /// [`Rejected`] says why the event did not apply.
    pub(crate) fn apply<R, E>(
        &self,
        event: &SessionEvent,
        commit: impl FnOnce(&SessionEvent) -> Result<(), E>,
        render: impl FnOnce(Applied<'_>) -> R,
    ) -> Result<R, Rejected<E>> {
        let commit = |event| commit(event).map_err(Rejected::Commit);
        match event {
            SessionEvent::Created {
                exam,
                student,
                options,
            } => {
                let (exam, problems) =
                    self.repository.resolve_exam(exam).map_err(Rejected::Exam)?;
                let session = ExamSession::start(&exam, problems, student.clone(), options.clone())
                    .map_err(Rejected::Delivery)?;
                let rendered = render(Applied::Started(&session));
                self.start(&self.registry, SessionSlot::new(session), || commit(event))?;
                Ok(rendered)
            }
            SessionEvent::AdaptiveCreated {
                exam,
                student,
                options,
            } => {
                let (exam, problems) =
                    self.repository.resolve_exam(exam).map_err(Rejected::Exam)?;
                let mut sitting =
                    AdaptiveSitting::start(exam.id().clone(), problems, student.clone(), *options)
                        .map_err(Rejected::AdaptiveStart)?;
                let rendered = render(Applied::AdaptiveStarted(&mut sitting));
                self.start(&self.adaptive, sitting, || commit(event))?;
                Ok(rendered)
            }
            SessionEvent::Answered {
                session,
                answer,
                time_spent,
            } => self
                .registry
                .with(session, |slot| {
                    // Committed even if the session then rejects it: a
                    // rejection can still move the logical clock (expiry
                    // clamps it).
                    commit(event)?;
                    slot.session
                        .answer(answer.clone(), *time_spent)
                        .map_err(Rejected::Delivery)?;
                    Ok(render(Applied::Session(&slot.session)))
                })
                .map_err(Rejected::Registry)?,
            SessionEvent::Paused { session } => self
                .registry
                .with(session, |slot| {
                    commit(event)?;
                    let checkpoint = slot.session.pause().map_err(Rejected::Delivery)?;
                    let rendered = render(Applied::Paused(&checkpoint));
                    slot.checkpoint = Some(checkpoint);
                    Ok(rendered)
                })
                .map_err(Rejected::Registry)?,
            SessionEvent::Resumed { session } => self
                .registry
                .with(session, |slot| {
                    commit(event)?;
                    slot.session.reactivate().map_err(Rejected::Delivery)?;
                    Ok(render(Applied::Session(&slot.session)))
                })
                .map_err(Rejected::Registry)?,
            SessionEvent::AdaptiveStep {
                session,
                answer,
                time_spent,
            } => self
                .adaptive
                .with(session, |sitting| {
                    // Refused before the commit: a complete sitting's log
                    // must end at its last accepted step.
                    if sitting.is_done() {
                        return Err(Rejected::AdaptiveAnswer(AdaptiveAnswerError::Complete));
                    }
                    commit(event)?;
                    sitting
                        .answer(answer.clone(), *time_spent)
                        .map_err(Rejected::AdaptiveAnswer)?;
                    Ok(render(Applied::Stepped(sitting)))
                })
                .map_err(Rejected::Registry)?,
            SessionEvent::Finished { session } => {
                self.finish(&self.registry, session, render, |slot| {
                    commit(event)?;
                    let record = slot.session.finish().map_err(Rejected::Delivery)?;
                    Ok((slot.session.exam_id().as_str().to_string(), record))
                })
            }
            SessionEvent::AdaptiveFinished { session } => {
                self.finish(&self.adaptive, session, render, |sitting| {
                    commit(event)?;
                    let record = sitting.finish().map_err(Rejected::Record)?;
                    Ok((sitting.exam().as_str().to_string(), record))
                })
            }
        }
    }

    /// The start of either kind. The create lock serializes starts, so
    /// an id found free here is still free at the insert: a start event
    /// is committed only if it applies, and always before its sitting's
    /// other events.
    fn start<T: Keyed, E>(
        &self,
        registry: &Registry<T>,
        value: T,
        commit: impl FnOnce() -> Result<(), Rejected<E>>,
    ) -> Result<(), Rejected<E>> {
        let _create = self.create_lock.lock();
        if registry.contains(value.key()) {
            let id = value.key().to_string();
            return Err(Rejected::Registry(RegistryError::Duplicate(id)));
        }
        commit()?;
        registry.insert(value).map_err(Rejected::Registry)
    }

    /// The finish of either kind: `close` commits and grades the sitting,
    /// then the record is filed and folded and the slot freed, all under
    /// the sitting's lock. A request that found the slot before it was
    /// freed gets `Missing`, and a re-sit with the same id can only
    /// start after the record is filed, as replay sees it.
    fn finish<T: Keyed, R, E>(
        &self,
        registry: &Registry<T>,
        id: &str,
        render: impl FnOnce(Applied<'_>) -> R,
        close: impl FnOnce(&mut T) -> Result<(String, StudentRecord), Rejected<E>>,
    ) -> Result<R, Rejected<E>> {
        let mut fold = Duration::ZERO;
        let record = registry
            .take_if(id, |value| {
                let (exam, record) = close(value)?;
                let record = Arc::new(record);
                self.stream.with_exam(&exam, |stream| {
                    self.finished.push(&exam, Arc::clone(&record));
                    let started = Instant::now();
                    stream.apply(&record);
                    fold = started.elapsed();
                });
                Ok(record)
            })
            .map_err(Rejected::Registry)??;
        Ok(render(Applied::Finished {
            record: &record,
            fold,
        }))
    }

    /// Applies an event already in the log, committing and rendering
    /// nothing — crash recovery and the replication follower. A
    /// rejection comes back as a note, `"{label}: {reason}"`; the live
    /// server met the same rejection, so it is not a divergence.
    pub(crate) fn replay(&self, event: &SessionEvent) -> Result<(), String> {
        self.apply(event, |_| Ok::<(), Infallible>(()), |_| ())
            .map_err(|err| format!("{}: {err}", event.label()))
    }
}

/// What an applied event left behind, as [`ServerState::apply`] hands
/// it to the render closure.
#[derive(Debug)]
pub(crate) enum Applied<'a> {
    /// A fixed-form sitting started.
    Started(&'a ExamSession),
    /// An adaptive sitting started.
    AdaptiveStarted(&'a mut AdaptiveSitting),
    /// A fixed-form sitting answered or resumed.
    Session(&'a ExamSession),
    /// A fixed-form sitting paused with this checkpoint.
    Paused(&'a SessionCheckpoint),
    /// An adaptive sitting took a step.
    Stepped(&'a mut AdaptiveSitting),
    /// A sitting of either kind finished and was filed.
    Finished {
        /// The filed record.
        record: &'a StudentRecord,
        /// Time spent folding it into the streaming engine.
        fold: Duration,
    },
}

/// Why [`ServerState::apply`] did not apply an event. Apart from
/// [`Rejected::Commit`], a rejection comes either from validation before
/// the commit (an unknown exam or sitting, bad start options, an answer
/// on a complete adaptive sitting) or from the mutation after it, which
/// replay then refuses the same way.
#[derive(Debug)]
pub(crate) enum Rejected<E> {
    /// The caller's commit hook failed; memory is untouched.
    Commit(E),
    /// The exam (or one of its problems) is not in the bank.
    Exam(BankError),
    /// The sitting is unknown, or its id is already live.
    Registry(RegistryError),
    /// The fixed-form sitting refused the operation.
    Delivery(DeliveryError),
    /// The adaptive sitting could not start.
    AdaptiveStart(AdaptiveStartError),
    /// The adaptive sitting refused the answer.
    AdaptiveAnswer(AdaptiveAnswerError),
    /// The adaptive record failed to grade at finish.
    Record(String),
}

impl<E: std::fmt::Display> std::fmt::Display for Rejected<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Rejected::Commit(err) => err.fmt(f),
            Rejected::Exam(err) => err.fmt(f),
            Rejected::Registry(err) => err.fmt(f),
            Rejected::Delivery(err) => err.fmt(f),
            Rejected::AdaptiveStart(err) => err.fmt(f),
            Rejected::AdaptiveAnswer(err) => err.fmt(f),
            Rejected::Record(message) => f.write_str(message),
        }
    }
}

/// Maps requests to handlers over shared [`ServerState`].
#[derive(Debug, Clone)]
pub struct Router {
    state: Arc<ServerState>,
}

/// A handler failure carrying the HTTP status to answer with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ApiError {
    /// HTTP status code.
    pub status: u16,
    /// Human-readable message, returned as `{"error": …}`.
    pub message: String,
}

impl ApiError {
    fn new(status: u16, message: impl Into<String>) -> Self {
        Self {
            status,
            message: message.into(),
        }
    }

    fn bad_request(message: impl Into<String>) -> Self {
        Self::new(400, message)
    }

    fn not_found(message: impl Into<String>) -> Self {
        Self::new(404, message)
    }

    fn conflict(message: impl Into<String>) -> Self {
        Self::new(409, message)
    }
}

impl From<DeliveryError> for ApiError {
    fn from(err: DeliveryError) -> Self {
        let status = match &err {
            DeliveryError::InvalidOptions { .. } => 400,
            DeliveryError::WrongState { .. }
            | DeliveryError::TimeExpired
            | DeliveryError::NotResumable
            | DeliveryError::OutOfBounds => 409,
            DeliveryError::Grading(_) => 422,
            _ => 500,
        };
        Self::new(status, err.to_string())
    }
}

impl From<RegistryError> for ApiError {
    fn from(err: RegistryError) -> Self {
        match &err {
            RegistryError::Duplicate(_) => Self::conflict(err.to_string()),
            RegistryError::Missing(_) => Self::not_found(err.to_string()),
        }
    }
}

impl From<Rejected<ApiError>> for ApiError {
    fn from(rejected: Rejected<ApiError>) -> Self {
        match rejected {
            Rejected::Commit(err) => err,
            Rejected::Exam(err) => Self::not_found(err.to_string()),
            Rejected::Registry(err) => err.into(),
            Rejected::Delivery(err) => err.into(),
            Rejected::AdaptiveStart(err) => Self::new(422, err.to_string()),
            Rejected::AdaptiveAnswer(AdaptiveAnswerError::Complete) => {
                Self::conflict(AdaptiveAnswerError::Complete.to_string())
            }
            Rejected::AdaptiveAnswer(AdaptiveAnswerError::Grading(message)) => {
                Self::new(422, message)
            }
            Rejected::Record(message) => Self::new(500, message),
        }
    }
}

type ApiResult = Result<Response, ApiError>;

impl Router {
    /// A router over fresh state for the given repository.
    #[must_use]
    pub fn new(repository: Repository) -> Self {
        Self::with_state(ServerState::new(repository))
    }

    /// A router over pre-built state (e.g. recovered from a journal by
    /// [`crate::journal::open_journaled_state`]).
    #[must_use]
    pub fn with_state(state: ServerState) -> Self {
        Self {
            state: Arc::new(state),
        }
    }

    /// The shared state (for metrics rendering and tests).
    #[must_use]
    pub fn state(&self) -> &ServerState {
        &self.state
    }

    /// Dispatches one request, recording metrics (route counter, status
    /// class, latency).
    #[must_use]
    pub fn handle(&self, request: &Request) -> Response {
        let started = Instant::now();
        let (route, result) = self.dispatch(request);
        let response = result.unwrap_or_else(|err| {
            // The very request whose journal append degraded the store
            // gets the same `Retry-After` contract as every later
            // write shed at dispatch.
            let retry_after = (err.status == 503 && self.state.storage.is_degraded())
                .then_some(DEGRADED_RETRY_SECS);
            let mut response = Response::error(err.status, &err.message);
            if let Some(secs) = retry_after {
                response = response.with_retry_after(secs);
            }
            response
        });
        self.state
            .metrics
            .record(route, response.status, started.elapsed());
        // Only writes move the log toward a snapshot; a read (or a
        // `/healthz` probe) must never wait behind one.
        if request.method != "GET" {
            self.maybe_compact();
        }
        response
    }

    /// Compacts the log when enough events have accumulated: a delta
    /// image while the deltas stay smaller than the base, else a fresh
    /// base (see [`Journal::compact`]). The write gate excludes every
    /// mutating handler, so the captured image is consistent with the
    /// log. The replication follower calls this too — it journals every
    /// applied record, so its log compacts on the same cadence.
    pub(crate) fn maybe_compact(&self) {
        let Some(journal) = &self.state.journal else {
            return;
        };
        if !journal.due_for_snapshot() {
            return;
        }
        let _gate = journal.gate_write();
        // Double-check: another worker may have compacted while this
        // one waited for the gate.
        if !journal.due_for_snapshot() {
            return;
        }
        if let Err(err) = journal.compact(&self.state) {
            // A failed snapshot is not fatal: the log is intact and
            // compaction will be retried after the next mutation.
            eprintln!("[mine-serve] snapshot failed (log kept): {err}");
        }
    }

    /// Maps a journal append failure to a `503` and flips the node into
    /// degraded (read-only) serving: the mutation is not applied —
    /// WAL-first means memory never runs ahead of the log — and
    /// subsequent writes are shed at the dispatch gate until the
    /// background healer gets the WAL to accept a truncate + flush
    /// again. A disk that fills up no longer takes the node down with
    /// it; reads, `/metrics`, and `/healthz` stay live throughout.
    fn journal_failed(&self, err: &StoreError) -> ApiError {
        let reason = format!("journal append failed: {err}");
        if self.state.storage.degrade(reason.clone()) {
            self.state.metrics.storage_degraded.set(1);
            eprintln!("[mine-serve] storage degraded (read-only): {reason}");
            self.spawn_healer();
        }
        ApiError::new(503, format!("storage degraded: {reason}"))
    }

    /// Starts the self-recovery loop: retry the append seam
    /// ([`mine_store::EventStore::try_heal`]) with exponential backoff
    /// until the disk accepts writes again, then clear the degraded
    /// flag so the dispatch gate resumes admitting writes. At most one
    /// healer runs at a time.
    fn spawn_healer(&self) {
        if !self.state.storage.claim_healer() {
            return;
        }
        let router = self.clone();
        std::thread::spawn(move || loop {
            let mut backoff = Duration::from_millis(50);
            while router.state.storage.is_degraded() {
                std::thread::sleep(backoff);
                backoff = (backoff * 2).min(Duration::from_secs(1));
                let Some(journal) = &router.state.journal else {
                    break;
                };
                if journal.store().try_heal().is_ok() {
                    break;
                }
            }
            router.state.storage.clear();
            router.state.metrics.storage_degraded.set(0);
            eprintln!("[mine-serve] storage healed: resuming writes");
            router.state.storage.release_healer();
            // A failure between the clear and the release could have
            // lost the claim race; re-claim and keep healing.
            if router.state.storage.is_degraded() && router.state.storage.claim_healer() {
                continue;
            }
            break;
        });
    }

    /// Whether this node must redirect writes elsewhere.
    fn not_leader(&self) -> bool {
        self.state
            .repl
            .as_ref()
            .is_some_and(|repl| repl.role() != Role::Primary)
    }

    fn dispatch(&self, request: &Request) -> (Route, ApiResult) {
        let segments: Vec<&str> = request.path.split('/').filter(|s| !s.is_empty()).collect();
        let method = request.method.as_str();
        match (method, segments.as_slice()) {
            ("GET", ["healthz"]) => (Route::Healthz, self.healthz()),
            ("GET", ["metrics"]) => (Route::Metrics, self.metrics(request)),
            // While draining, everything but the two observability
            // routes above is shed; requests already past this gate run
            // to completion (never mid-session).
            _ if self.state.lifecycle.is_draining() => {
                self.state.metrics.shed(DRAIN_RETRY_SECS);
                let shed = Response::shed("server is draining", DRAIN_RETRY_SECS);
                (Route::Shed, Ok(shed))
            }
            ("POST", ["admin", "promote"]) => (Route::Promote, self.promote()),
            ("POST", ["admin", "demote"]) => (Route::Demote, self.demote(request)),
            ("GET", ["admin", "ranges"]) => (Route::AdminRanges, self.admin_ranges()),
            // While storage is degraded the node serves read-only:
            // writes are shed with `503 + Retry-After` naming the
            // cause, reads and observability stay live, and the
            // background healer lifts the gate once the WAL accepts
            // writes again.
            ("POST", ["sessions", ..]) if self.state.storage.is_degraded() => {
                let reason = self
                    .state
                    .storage
                    .reason()
                    .unwrap_or_else(|| "storage degraded".to_string());
                self.state.metrics.shed(DEGRADED_RETRY_SECS);
                (
                    Route::Shed,
                    Ok(Response::shed(
                        &format!("storage degraded (read-only): {reason}"),
                        DEGRADED_RETRY_SECS,
                    )),
                )
            }
            // A follower is a read replica: every write is answered
            // with 421 naming the leader. Reads fall through.
            ("POST", ["sessions", ..]) if self.not_leader() => {
                self.state.metrics.redirected_total.inc();
                (Route::Redirected, self.redirect_to_leader())
            }
            ("POST", ["sessions"]) => (Route::SessionStart, self.start_session(request)),
            ("GET", ["sessions", id]) => (Route::SessionStatus, self.session_status(id)),
            ("POST", ["sessions", id, "answers"]) => (Route::Answer, self.answer(id, request)),
            ("POST", ["sessions", id, "pause"]) => (Route::Pause, self.pause(id)),
            ("POST", ["sessions", id, "resume"]) => (Route::Resume, self.resume(id)),
            ("POST", ["sessions", id, "finish"]) => (Route::Finish, self.finish(id)),
            ("GET", ["exams", id, "analysis"]) => (Route::Analysis, self.analysis(id, request)),
            (_, ["healthz" | "metrics"])
            | (_, ["admin", ..])
            | (_, ["sessions", ..])
            | (_, ["exams", ..]) => (
                Route::Unmatched,
                Err(ApiError::new(405, format!("method {method} not allowed"))),
            ),
            _ => (
                Route::Unmatched,
                Err(ApiError::not_found(format!(
                    "no route for {} {}",
                    method, request.path
                ))),
            ),
        }
    }

    /// `GET /healthz`: `200` while running, `503` once drain begins —
    /// the flip a load balancer watches to rotate traffic away. The
    /// body also carries the replication coordinates (`role`, `epoch`,
    /// `last_applied_seq`) a failover supervisor needs to pick the most
    /// caught-up follower to promote.
    fn healthz(&self) -> ApiResult {
        let state = self.state.lifecycle.state();
        let status = if self.state.lifecycle.is_draining() {
            503
        } else {
            200
        };
        let role = self
            .state
            .repl
            .as_ref()
            .map_or(Role::Primary, |repl| repl.role());
        let (epoch, last_applied) = match &self.state.journal {
            Some(journal) => (journal.store().epoch(), journal.applied_seq()),
            None => (mine_store::INITIAL_EPOCH, 0),
        };
        let storage = if self.state.storage.is_degraded() {
            "degraded"
        } else {
            "ok"
        };
        Ok(json_object(status, |body| {
            body.field("status", state.label());
            body.field("role", role.label());
            body.field("epoch", &epoch);
            body.field("last_applied_seq", &last_applied);
            body.field("storage", storage);
        }))
    }

    /// `GET /metrics` serves the Prometheus text exposition format;
    /// `GET /metrics?format=json` keeps the original JSON payload.
    fn metrics(&self, request: &Request) -> ApiResult {
        self.refresh_repl_gauges();
        let pool = mine_pool::stats();
        let metrics = &self.state.metrics;
        metrics.pool_workers.set(pool.workers as u64);
        metrics.pool_steals_total.set(pool.steals);
        let snapshot = metrics.snapshot(self.state.registry.len(), self.state.adaptive.len());
        let wants_json = request
            .query
            .as_deref()
            .is_some_and(|query| query.split('&').any(|pair| pair == "format=json"));
        if wants_json {
            return Ok(ok_json(200, &snapshot));
        }
        Ok(Response::prometheus(200, snapshot.to_prometheus()))
    }

    /// Folds the live replication position into the metrics gauges so
    /// a scrape sees current values. On the primary, lag is how far the
    /// slowest connected follower trails the local head; on a follower,
    /// how far the local head trails the leader's last advertised one.
    fn refresh_repl_gauges(&self) {
        let (Some(repl), Some(journal)) = (&self.state.repl, &self.state.journal) else {
            return;
        };
        let head = journal.applied_seq();
        let role = repl.role();
        let (lag, followers) = if role == Role::Primary {
            let lag = repl
                .hub()
                .min_acked()
                .map_or(0, |min| head.saturating_sub(min));
            (lag, repl.hub().count() as u64)
        } else {
            (repl.leader_head().saturating_sub(head), 0)
        };
        let metrics = &self.state.metrics;
        metrics.repl_role.set(role.gauge());
        metrics.repl_epoch.set(journal.store().epoch());
        metrics.repl_last_applied_seq.set(head);
        metrics.repl_lag.set(lag);
        metrics.repl_followers.set(followers);
        // Heartbeat age: 0 on the primary (it is its own leader), time
        // since the last leader frame on a follower.
        let age_us = if role == Role::Primary {
            0
        } else {
            repl.leader_contact_age()
                .map_or(0, |age| u64::try_from(age.as_micros()).unwrap_or(u64::MAX))
        };
        metrics.repl_heartbeat_age_us.set(age_us);
    }

    /// `POST /admin/promote`: supervised failover through
    /// [`ReplState::promote`]. Stops following, bumps the durable epoch
    /// past the old leader's, and starts serving writes. The epoch bump
    /// is what fences the deposed primary — its records and its
    /// `Welcome` now carry a lower epoch and are refused everywhere.
    fn promote(&self) -> ApiResult {
        let (repl, journal) = self.repl_and_journal()?;
        let epoch = repl
            .promote(journal)
            .map_err(|err| ApiError::new(500, format!("epoch bump failed: {err}")))?
            .ok_or_else(|| ApiError::conflict("already the primary"))?;
        Ok(json_object(200, |body| {
            body.field("role", "primary");
            body.field("epoch", &epoch);
            body.field("last_applied_seq", &journal.applied_seq());
        }))
    }

    /// `POST /admin/demote`: stand down behind a newer epoch through
    /// [`ReplState::follow`]. Sent by a freshly auto-promoted primary to
    /// its peers (best-effort); also usable by a supervisor. The body
    /// names the fencing epoch and the new leader:
    /// `{"epoch": N, "leader": "host:port"}`. A demote that does not
    /// raise the local epoch is refused with `409` — only genuinely
    /// newer leadership can depose a node, so a delayed or replayed
    /// demote from an older failover is harmless.
    fn demote(&self, request: &Request) -> ApiResult {
        let (repl, journal) = self.repl_and_journal()?;
        let body = parse_body(request)?;
        let epoch = match body.get("epoch") {
            Some(Value::Number(Number::PosInt(n))) => *n,
            _ => return Err(ApiError::bad_request("field `epoch` must be a number")),
        };
        let leader = body
            .get("leader")
            .and_then(Value::as_str)
            .filter(|leader| !leader.is_empty())
            .map(str::to_string);
        // Refused before `follow`, which re-points a follower at an
        // equal epoch: a refused demote changes nothing. An adoption
        // racing in between can only make the epoch equal by adopting
        // this same epoch, whose leader the demote names too.
        let moved = epoch > journal.store().epoch()
            && repl
                .follow(journal, epoch, leader)
                .map_err(|err| ApiError::new(500, format!("epoch adopt failed: {err}")))?;
        if !moved {
            let local = journal.store().epoch();
            return Err(ApiError::conflict(format!(
                "refusing demote: epoch {epoch} is not ahead of local {local}"
            )));
        }
        Ok(json_object(200, |body| {
            body.field("role", "follower");
            body.field("epoch", &epoch);
        }))
    }

    /// The replication state and journal the admin transitions act on:
    /// `409` without replication, `500` without a journal.
    fn repl_and_journal(&self) -> Result<(&ReplState, &Journal), ApiError> {
        let Some(repl) = &self.state.repl else {
            return Err(ApiError::conflict("replication is not enabled"));
        };
        let Some(journal) = &self.state.journal else {
            return Err(ApiError::new(500, "replication requires a journal"));
        };
        Ok((repl, journal))
    }

    /// `GET /admin/ranges`: the anti-entropy integrity table — the
    /// node's per-window range hashes over its sealed WAL segments,
    /// plus the coordinates a peer needs to compare safely (`epoch` for
    /// fencing, `head_seq` to bound the comparison to the acked
    /// prefix). A follower whose hashes disagree with its leader's
    /// inside the shared prefix quarantines the divergent segment and
    /// re-syncs through the bootstrap snapshot path.
    fn admin_ranges(&self) -> ApiResult {
        let Some(journal) = &self.state.journal else {
            return Err(ApiError::conflict(
                "durability is not enabled (no --data-dir)",
            ));
        };
        let store = journal.store();
        // The read gate admits concurrent handlers but excludes the
        // compactor, so segments cannot be deleted mid-scan; the active
        // segment is excluded from hashing by construction.
        let _gate = journal.gate_read();
        let report = mine_store::scrub_dir(store.dir(), Some(&store.active_segment()))
            .map_err(|err| ApiError::new(500, format!("scrub failed: {err}")))?;
        let role = self
            .state
            .repl
            .as_ref()
            .map_or(Role::Primary, |repl| repl.role());
        Ok(json_object(200, |body| {
            body.field("role", role.label());
            body.field("epoch", &store.epoch());
            body.field("head_seq", &(store.next_seq() - 1));
            body.field("corrupt_segments", &report.corrupt_segments().len());
            write_range_hashes(body.key("ranges"), &report.ranges);
        }))
    }

    /// The 421 answer a follower gives every write: the client should
    /// retry at `leader` (empty when the leader is not yet known).
    fn redirect_to_leader(&self) -> ApiResult {
        let leader = self
            .state
            .repl
            .as_ref()
            .and_then(|repl| repl.leader_addr())
            .unwrap_or_default();
        Ok(json_object(421, |body| {
            body.field(
                "error",
                "this node is a read replica; writes go to the leader",
            );
            body.field("leader", &leader);
        }))
    }

    /// `POST /sessions` — dispatches on the optional `"mode"` field:
    /// absent or `"fixed"` starts a fixed-form sitting, `"adaptive"` a
    /// CAT sitting.
    fn start_session(&self, request: &Request) -> ApiResult {
        let body = parse_body(request)?;
        match body.get("mode") {
            None | Some(Value::Null) => self.start_fixed(&body),
            Some(Value::String(mode)) if mode == "fixed" => self.start_fixed(&body),
            Some(Value::String(mode)) if mode == "adaptive" => self.start_adaptive(&body),
            Some(Value::String(mode)) => Err(ApiError::bad_request(format!(
                "unknown session mode {mode:?} (expected \"fixed\" or \"adaptive\")"
            ))),
            Some(other) => Err(ApiError::bad_request(format!(
                "field `mode` must be a string, found {}",
                other.kind()
            ))),
        }
    }

    fn start_fixed(&self, body: &Value) -> ApiResult {
        let exam = parse_exam_id(require_str(body, "exam")?)?;
        let student = require_str(body, "student")?;
        let options = DeliveryOptions {
            seed: optional_u64(body, "seed")?.unwrap_or(0),
            resumable: optional_bool(body, "resumable")?.unwrap_or(true),
            time_accommodation: optional_f64(body, "time_accommodation")?.unwrap_or(1.0),
        };
        let student = parse_student_id(student)?;
        let response = self.apply(&SessionEvent::Created {
            exam,
            student,
            options,
        })?;
        self.state.metrics.sessions_started.inc();
        Ok(response)
    }

    /// `POST /sessions` with `"mode": "adaptive"`: starts a CAT sitting
    /// serving one item at a time. Parameter or calibration problems
    /// answer `422` with the offending field named in the body.
    fn start_adaptive(&self, body: &Value) -> ApiResult {
        let exam = parse_exam_id(require_str(body, "exam")?)?;
        let student = require_str(body, "student")?;
        let bank = self
            .state
            .repository
            .exam(&exam)
            .map_err(|err| ApiError::not_found(err.to_string()))?
            .len();
        let defaults = AdaptiveOptions::for_bank(bank);
        let as_count = |value: u64| usize::try_from(value).unwrap_or(usize::MAX);
        let options = AdaptiveOptions {
            seed: optional_u64(body, "seed")?.unwrap_or(defaults.seed),
            min_items: optional_u64(body, "min_items")?.map_or(defaults.min_items, as_count),
            max_items: optional_u64(body, "max_items")?.map_or(defaults.max_items, as_count),
            se_threshold: optional_f64(body, "se_threshold")?.unwrap_or(defaults.se_threshold),
        };
        let student = parse_student_id(student)?;
        let response = match self.apply(&SessionEvent::AdaptiveCreated {
            exam,
            student,
            options,
        }) {
            Err(Rejected::AdaptiveStart(err)) => return Ok(adaptive_rejection(&err)),
            applied => applied?,
        };
        self.state.metrics.adaptive_sessions_started.inc();
        Ok(response)
    }

    fn session_status(&self, id: &str) -> ApiResult {
        let status = if self.state.adaptive.contains(id) {
            self.state.adaptive.with(id, adaptive_status_body)?
        } else {
            self.state
                .registry
                .with(id, |slot| session_status_body(&slot.session))?
        };
        Ok(Response::json(200, status))
    }

    /// `POST /sessions/{id}/answers`: a fixed-form answer, or one
    /// adaptive step (grade, re-estimate, select the next item).
    fn answer(&self, id: &str, request: &Request) -> ApiResult {
        let body = parse_body(request)?;
        let answer_value = body
            .get("answer")
            .ok_or_else(|| ApiError::bad_request("missing field `answer`"))?;
        let answer = Answer::from_value(answer_value)
            .map_err(|err| ApiError::bad_request(format!("bad answer: {err}")))?;
        let secs = optional_f64(&body, "time_spent_secs")?.unwrap_or(0.0);
        if !secs.is_finite() || secs < 0.0 {
            return Err(ApiError::bad_request(format!(
                "time_spent_secs must be a non-negative finite number, got {secs}"
            )));
        }
        let time_spent = Duration::try_from_secs_f64(secs)
            .map_err(|err| ApiError::bad_request(format!("bad time_spent_secs: {err}")))?;
        let session = id.to_string();
        if !self.state.adaptive.contains(id) {
            return Ok(self.apply(&SessionEvent::Answered {
                session,
                answer,
                time_spent,
            })?);
        }
        let step_started = Instant::now();
        let response = self.apply(&SessionEvent::AdaptiveStep {
            session,
            answer,
            time_spent,
        })?;
        self.state
            .metrics
            .adaptive_step_us
            .observe(step_started.elapsed());
        Ok(response)
    }

    fn pause(&self, id: &str) -> ApiResult {
        if self.state.adaptive.contains(id) {
            return Err(ApiError::conflict(
                "adaptive sittings cannot pause; answer the pending item or finish",
            ));
        }
        Ok(self.apply(&SessionEvent::Paused {
            session: id.to_string(),
        })?)
    }

    fn resume(&self, id: &str) -> ApiResult {
        if self.state.adaptive.contains(id) {
            return Err(ApiError::conflict(
                "adaptive sittings cannot pause or resume; they are always live",
            ));
        }
        Ok(self.apply(&SessionEvent::Resumed {
            session: id.to_string(),
        })?)
    }

    /// `POST /sessions/{id}/finish`: grades the record (an adaptive one
    /// over the full exam problem set, unadministered items padded as
    /// skipped) and files it for analysis.
    fn finish(&self, id: &str) -> ApiResult {
        let session = id.to_string();
        if self.state.adaptive.contains(id) {
            let response = self.apply(&SessionEvent::AdaptiveFinished { session })?;
            self.state.metrics.adaptive_sessions_finished.inc();
            return Ok(response);
        }
        let response = self.apply(&SessionEvent::Finished { session })?;
        self.state.metrics.sessions_finished.inc();
        Ok(response)
    }

    /// Applies `event` for a request: under the journal's read gate,
    /// committed by [`ServerState::journal_event`] (a failed append
    /// degrades the node, see [`Self::journal_failed`]), rendered by
    /// [`Self::respond`].
    fn apply(&self, event: &SessionEvent) -> Result<Response, Rejected<ApiError>> {
        let _gate = self.state.journal.as_ref().map(Journal::gate_read);
        self.state.apply(
            event,
            |event| {
                self.state
                    .journal_event(event)
                    .map_err(|err| self.journal_failed(&err))
            },
            |applied| self.respond(applied),
        )
    }

    /// The response body for each kind of applied event; a finish also
    /// records how long its streaming fold took.
    fn respond(&self, applied: Applied<'_>) -> Response {
        match applied {
            Applied::Started(session) => Response::json(201, session_started_body(session)),
            Applied::AdaptiveStarted(sitting) => {
                Response::json(201, adaptive_started_body(sitting))
            }
            Applied::Session(session) => Response::json(200, session_status_body(session)),
            Applied::Paused(checkpoint) => ok_json(200, checkpoint),
            Applied::Stepped(sitting) => Response::json(200, adaptive_status_body(sitting)),
            Applied::Finished { record, fold } => {
                self.state.metrics.streaming_update_us.observe(fold);
                ok_json(200, record)
            }
        }
    }

    /// `GET /exams/{id}/analysis`: the full §4 report. Served from the
    /// streaming engine's counters by default; `?mode=batch` forces the
    /// batch pipeline, and inputs the engine cannot reproduce exactly
    /// fall back to batch silently (both produce identical bytes when
    /// both succeed). `?indices=alt` answers with the option-wise
    /// alternative discrimination view instead of the full report.
    ///
    /// A streaming body is stored with the stream stamp and bank
    /// revision it was built at and served again, unrebuilt, while both
    /// still match (DESIGN.md §14).
    fn analysis(&self, exam_id: &str, request: &Request) -> ApiResult {
        let query = request.query.as_deref().unwrap_or("");
        let force_batch = query.split('&').any(|pair| pair == "mode=batch");
        let wants_alt = query.split('&').any(|pair| pair == "indices=alt");
        if self.state.finished.count(exam_id) == 0 {
            return Err(ApiError::conflict(format!(
                "no finished sittings for exam {exam_id}"
            )));
        }
        let parsed = parse_exam_id(exam_id)?;
        let started = Instant::now();
        // Read before the bank is resolved: an edit racing this read can
        // only make the stored body look older than it is.
        let revision = self.state.repository.revision();
        if !force_batch {
            let cached = self.state.stream.generation(exam_id).and_then(|stamp| {
                self.state
                    .analysis_bodies
                    .get(exam_id, wants_alt, stamp, revision)
            });
            if let Some(body) = cached {
                self.observe_streaming(started);
                return Ok(Response::json(200, body));
            }
        }
        let (_, problems) = self
            .state
            .repository
            .resolve_exam(&parsed)
            .map_err(|err| ApiError::not_found(err.to_string()))?;
        if !force_batch {
            if let Ok((stamp, report)) = self.state.stream.stamped_report(exam_id, &problems) {
                self.observe_streaming(started);
                let response = respond_with_report(&report, wants_alt)?;
                self.state.analysis_bodies.offer(
                    exam_id,
                    wants_alt,
                    stamp,
                    revision,
                    &response.body,
                );
                return Ok(response);
            }
            // Unstreamable (mixed problem sets, duplicate in-row
            // problems, non-finite scores, class too small): the batch
            // pipeline below reproduces the exact report or error.
        }
        let records = self.state.finished.shared(exam_id);
        if records.is_empty() {
            return Err(ApiError::conflict(format!(
                "no finished sittings for exam {exam_id}"
            )));
        }
        let class = ExamRecord::shared(parsed, records);
        let started = std::time::Instant::now();
        let report = self
            .state
            .analyzer
            .analyze_records(std::slice::from_ref(&class), &problems)
            .map_err(|err| ApiError::new(500, format!("analysis failed: {err}")))?;
        self.state
            .metrics
            .analysis_duration_us
            .batch
            .observe(started.elapsed());
        respond_with_report(&report, wants_alt)
    }

    fn observe_streaming(&self, started: Instant) {
        self.state
            .metrics
            .analysis_duration_us
            .streaming
            .observe(started.elapsed());
    }
}

/// Serializes an assembled report (or its alternative-indices view —
/// a pure function of the report, so both modes answer identically).
fn respond_with_report(report: &mine_analysis::BatchReport, wants_alt: bool) -> ApiResult {
    let body = if wants_alt {
        let analysis = report
            .analyses
            .first()
            .ok_or_else(|| ApiError::new(500, "analysis produced no report".to_string()))?;
        serde_json::to_string(&mine_streamstats::alt_indices(analysis))
    } else {
        serde_json::to_string(report)
    };
    body.map(|text| Response::json(200, text))
        .map_err(|err| ApiError::new(500, format!("serialization failed: {err}")))
}

/// Serializes a typed value straight into a JSON response body.
fn ok_json<T: Serialize + ?Sized>(status: u16, value: &T) -> Response {
    Response::json(
        status,
        serde_json::to_string(value).expect("bodies serialize"),
    )
}

/// A JSON response whose one object gets its fields from `fields`.
fn json_object(status: u16, fields: impl FnOnce(&mut ObjectWriter<'_>)) -> Response {
    Response::json(status, object_body(fields))
}

fn parse_body(request: &Request) -> Result<Value, ApiError> {
    let text = request
        .body_str()
        .ok_or_else(|| ApiError::bad_request("body is not UTF-8"))?;
    let text = if text.trim().is_empty() { "{}" } else { text };
    serde_json::from_str(text).map_err(|err| ApiError::bad_request(format!("bad JSON body: {err}")))
}

fn parse_exam_id(exam: &str) -> Result<ExamId, ApiError> {
    exam.parse()
        .map_err(|err| ApiError::bad_request(format!("bad exam id: {err}")))
}

fn parse_student_id(student: &str) -> Result<mine_core::StudentId, ApiError> {
    student
        .parse()
        .map_err(|err| ApiError::bad_request(format!("bad student id: {err}")))
}

fn require_str<'a>(body: &'a Value, field: &str) -> Result<&'a str, ApiError> {
    body.get(field)
        .and_then(Value::as_str)
        .ok_or_else(|| ApiError::bad_request(format!("missing string field `{field}`")))
}

fn optional_u64(body: &Value, field: &str) -> Result<Option<u64>, ApiError> {
    match body.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(Number::PosInt(n))) => Ok(Some(*n)),
        Some(other) => Err(ApiError::bad_request(format!(
            "field `{field}` must be a non-negative integer, found {}",
            other.kind()
        ))),
    }
}

fn optional_f64(body: &Value, field: &str) -> Result<Option<f64>, ApiError> {
    match body.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Number(number)) => Ok(Some(match number {
            Number::PosInt(n) => *n as f64,
            Number::NegInt(n) => *n as f64,
            Number::Float(f) => *f,
        })),
        Some(other) => Err(ApiError::bad_request(format!(
            "field `{field}` must be a number, found {}",
            other.kind()
        ))),
    }
}

fn optional_bool(body: &Value, field: &str) -> Result<Option<bool>, ApiError> {
    match body.get(field) {
        None | Some(Value::Null) => Ok(None),
        Some(Value::Bool(b)) => Ok(Some(*b)),
        Some(other) => Err(ApiError::bad_request(format!(
            "field `{field}` must be a boolean, found {}",
            other.kind()
        ))),
    }
}

/// The `POST /sessions` response: identity, presentation order, and a
/// problem summary rich enough for a client to form valid answers.
fn session_started_body(session: &ExamSession) -> String {
    let summaries: Vec<ProblemSummary<'_>> = session
        .order()
        .iter()
        .filter_map(|id| session.problem(id))
        .map(ProblemSummary)
        .collect();
    object_body(|body| {
        body.field("session", session.id());
        body.field("exam", session.exam_id());
        body.field("student", session.student());
        body.field("state", state_label(session.state()));
        body.field("questions", &session.order().len());
        body.field("problems", &summaries);
        body.field("remaining_secs", &remaining_secs(session));
    })
}

/// What a client needs to know to answer a problem with the right
/// answer *kind* (option counts, blank counts, pair counts).
struct ProblemSummary<'a>(&'a Problem);

impl Serialize for ProblemSummary<'_> {
    fn serialize_into(&self, out: &mut JsonWriter) {
        let problem = self.0;
        let mut summary = out.object();
        summary.field("id", problem.id());
        summary.field("style", problem.style().keyword());
        match problem.body() {
            ProblemBody::MultipleChoice { options, .. }
            | ProblemBody::Questionnaire { options, .. } => {
                summary.field("options", &options.len());
            }
            ProblemBody::Completion { blanks, .. } => summary.field("blanks", &blanks.len()),
            ProblemBody::Match(pairs) => {
                summary.field("pairs", &pairs.correct.len());
                summary.field("right", &pairs.right.len());
            }
            ProblemBody::TrueFalse { .. } | ProblemBody::Essay { .. } => {}
        }
        summary.end();
    }
}

fn state_label(state: SessionState) -> &'static str {
    match state {
        SessionState::Active => "active",
        SessionState::Paused => "paused",
        SessionState::Finished => "finished",
    }
}

fn remaining_secs(session: &ExamSession) -> Option<f64> {
    session
        .remaining_time()
        .map(|remaining| remaining.as_secs_f64())
}

/// The common session status body (`GET /sessions/{id}` and answer
/// responses).
fn session_status_body(session: &ExamSession) -> String {
    object_body(|body| {
        body.field("session", session.id());
        body.field("state", state_label(session.state()));
        body.field("answered", &session.answered_count());
        body.field("elapsed_secs", &session.elapsed().as_secs_f64());
        body.field("remaining_secs", &remaining_secs(session));
        body.field("current", &session.current().map(Problem::id));
    })
}

/// The `422` response for a rejected adaptive start, naming the
/// offending field (mirrors `DeliveryOptions::validate` semantics).
fn adaptive_rejection(err: &AdaptiveStartError) -> Response {
    let field = match err {
        AdaptiveStartError::InvalidOptions(inner) => inner.field,
        AdaptiveStartError::Uncalibrated { .. } => "item_bank",
    };
    json_object(422, |body| {
        body.field("error", &err.to_string());
        body.field("field", field);
    })
}

/// The shared tail of every adaptive response body: ability estimate,
/// SE, step count, stop state, and the pending item's summary.
fn adaptive_progress_fields(body: &mut ObjectWriter<'_>, sitting: &mut AdaptiveSitting) {
    let estimate = sitting.estimate();
    let done = sitting.is_done();
    body.field("state", if done { "complete" } else { "active" });
    body.field("steps", &sitting.step_count());
    body.field("theta", &estimate.theta);
    body.field("se", &estimate.se);
    body.field("elapsed_secs", &sitting.elapsed().as_secs_f64());
    body.field("done", &done);
    body.field("current", &sitting.current_problem().map(ProblemSummary));
}

/// The adaptive `GET /sessions/{id}` / answer-response body.
fn adaptive_status_body(sitting: &mut AdaptiveSitting) -> String {
    object_body(|body| {
        body.field("session", sitting.id());
        body.field("mode", "adaptive");
        adaptive_progress_fields(body, sitting);
    })
}

/// The adaptive `POST /sessions` response: identity, stop rule, and
/// the first item.
fn adaptive_started_body(sitting: &mut AdaptiveSitting) -> String {
    let options = sitting.options();
    object_body(|body| {
        body.field("session", sitting.id());
        body.field("exam", sitting.exam());
        body.field("student", sitting.student());
        body.field("mode", "adaptive");
        body.field("min_items", &options.min_items);
        body.field("max_items", &options.max_items);
        body.field("se_threshold", &options.se_threshold);
        adaptive_progress_fields(body, sitting);
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_core::OptionKey;
    use mine_itembank::{ChoiceOption, Exam};

    fn repository() -> Repository {
        let repo = Repository::new();
        repo.insert_problem(
            Problem::multiple_choice(
                "q1",
                "Pick B.",
                [
                    ChoiceOption::new(OptionKey::A, "a"),
                    ChoiceOption::new(OptionKey::B, "b"),
                    ChoiceOption::new(OptionKey::C, "c"),
                ],
                OptionKey::B,
            )
            .unwrap(),
        )
        .unwrap();
        repo.insert_problem(Problem::true_false("q2", "Yes?", true).unwrap())
            .unwrap();
        repo.insert_exam(
            Exam::builder("quiz")
                .unwrap()
                .entry("q1".parse().unwrap())
                .entry("q2".parse().unwrap())
                .test_time(std::time::Duration::from_secs(600))
                .build()
                .unwrap(),
        )
        .unwrap();
        repo
    }

    fn start(router: &Router) -> String {
        let response = router.handle(&Request::new(
            "POST",
            "/sessions",
            r#"{"exam":"quiz","student":"s1","seed":3}"#,
        ));
        assert_eq!(response.status, 201, "{}", response.body);
        let value: Value = serde_json::from_str(&response.body).unwrap();
        value.get("session").unwrap().as_str().unwrap().to_string()
    }

    #[test]
    fn healthz_reports_ok_with_replication_coordinates() {
        let router = Router::new(repository());
        let response = router.handle(&Request::new("GET", "/healthz", ""));
        assert_eq!(response.status, 200);
        let value: Value = serde_json::from_str(&response.body).unwrap();
        assert_eq!(value.get("status").unwrap().as_str(), Some("ok"));
        // Without replication configured, a node reports itself as the
        // primary at the initial epoch.
        assert_eq!(value.get("role").unwrap().as_str(), Some("primary"));
        let number = |field: &str| u64::from_value(value.get(field).unwrap());
        assert_eq!(number("epoch"), Ok(mine_store::INITIAL_EPOCH));
        assert_eq!(number("last_applied_seq"), Ok(0));
    }

    /// Sits one student through the whole lifecycle in-process; student
    /// `index` answers q1 correctly only when `index` is even and q2
    /// only when divisible by 3, giving the class a score spread.
    fn sit_student(router: &Router, index: usize) {
        let response = router.handle(&Request::new(
            "POST",
            "/sessions",
            format!("{{\"exam\":\"quiz\",\"student\":\"s{index}\",\"seed\":{index}}}"),
        ));
        assert_eq!(response.status, 201, "{}", response.body);
        let started: Value = serde_json::from_str(&response.body).unwrap();
        let session = started
            .get("session")
            .unwrap()
            .as_str()
            .unwrap()
            .to_string();
        let order: Vec<String> = started
            .get("problems")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .map(|p| p.get("id").unwrap().as_str().unwrap().to_string())
            .collect();
        for problem in &order {
            let answer = if problem == "q1" {
                let key = if index.is_multiple_of(2) { "B" } else { "A" };
                format!("{{\"Choice\":\"{key}\"}}")
            } else {
                format!("{{\"TrueFalse\":{}}}", index.is_multiple_of(3))
            };
            let body = format!("{{\"answer\":{answer},\"time_spent_secs\":30}}");
            let response = router.handle(&Request::new(
                "POST",
                &format!("/sessions/{session}/answers"),
                body,
            ));
            assert_eq!(response.status, 200, "{}", response.body);
        }
        let finished = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/finish"),
            "",
        ));
        assert_eq!(finished.status, 200, "{}", finished.body);
        let record: Value = serde_json::from_str(&finished.body).unwrap();
        assert_eq!(
            record.get("student").unwrap().as_str(),
            Some(format!("s{index}").as_str())
        );
    }

    #[test]
    fn full_lifecycle_without_sockets() {
        let router = Router::new(repository());
        let session = start(&router);
        assert_eq!(router.state().registry.len(), 1);

        // Status shows the first problem of the shuffled order.
        let status = router.handle(&Request::new("GET", &format!("/sessions/{session}"), ""));
        assert_eq!(status.status, 200);
        let status: Value = serde_json::from_str(&status.body).unwrap();
        let first = status.get("current").unwrap().as_str().unwrap().to_string();

        // Answer both questions with the right kinds, in served order.
        for problem in [
            first.clone(),
            if first == "q1" {
                "q2".into()
            } else {
                "q1".into()
            },
        ] {
            let answer = if problem == "q1" {
                r#"{"Choice":"B"}"#.to_string()
            } else {
                r#"{"TrueFalse":true}"#.to_string()
            };
            let body = format!("{{\"answer\":{answer},\"time_spent_secs\":30}}");
            let response = router.handle(&Request::new(
                "POST",
                &format!("/sessions/{session}/answers"),
                body,
            ));
            assert_eq!(response.status, 200, "{}", response.body);
        }

        // Pause produces a checkpoint; resume reactivates.
        let paused = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/pause"),
            "",
        ));
        assert_eq!(paused.status, 200, "{}", paused.body);
        let checkpoint: Value = serde_json::from_str(&paused.body).unwrap();
        assert_eq!(checkpoint.get("exam").unwrap().as_str(), Some("quiz"));
        let resumed = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/resume"),
            "",
        ));
        assert_eq!(resumed.status, 200, "{}", resumed.body);

        // Finish grades and evicts the session.
        let finished = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/finish"),
            "",
        ));
        assert_eq!(finished.status, 200, "{}", finished.body);
        let record: Value = serde_json::from_str(&finished.body).unwrap();
        assert_eq!(record.get("student").unwrap().as_str(), Some("s1"));
        assert_eq!(router.state().registry.len(), 0);
        assert_eq!(router.state().finished.count("quiz"), 1);

        // The §4 pipeline needs a real class to form score groups: sit
        // seven more students, then ask for the live report.
        for index in 2..=8 {
            sit_student(&router, index);
        }
        assert_eq!(router.state().finished.count("quiz"), 8);
        // Every finish updated the streaming engine.
        assert_eq!(router.state().stream.sittings("quiz"), 8);
        let analysis = router.handle(&Request::new("GET", "/exams/quiz/analysis", ""));
        assert_eq!(analysis.status, 200, "{}", analysis.body);
        let report: Value = serde_json::from_str(&analysis.body).unwrap();
        assert!(report.get("analyses").is_some());
        assert!(report.get("summary").is_some());

        let again = router.handle(&Request::new("GET", "/exams/quiz/analysis", ""));
        assert_eq!(again.body, analysis.body);
        // The default mode streams from counters — the batch pipeline
        // was never invoked.
        let analysis_duration = &router.state().metrics.analysis_duration_us;
        assert_eq!(analysis_duration.batch.get().count, 0);

        // `?mode=batch` forces the full pipeline and produces the very
        // same bytes, and so does a second batch read.
        let batch = router.handle(&Request::new("GET", "/exams/quiz/analysis?mode=batch", ""));
        assert_eq!(batch.status, 200, "{}", batch.body);
        assert_eq!(batch.body, analysis.body);
        let batch_again =
            router.handle(&Request::new("GET", "/exams/quiz/analysis?mode=batch", ""));
        assert_eq!(batch_again.body, analysis.body);

        // All four analyses were timed and labeled by mode, the
        // finish-time updates were counted, and the scrape refreshes the
        // pool gauges.
        let snapshot = router.state().metrics.snapshot(0, 0);
        assert_eq!(snapshot.analysis_duration_us.streaming.count, 2);
        assert_eq!(snapshot.analysis_duration_us.batch.count, 2);
        assert_eq!(snapshot.streaming_update_us.count, 8);
        let scrape = router.handle(&Request::new("GET", "/metrics", ""));
        assert!(scrape
            .body
            .contains("mine_analysis_duration_seconds_count{mode=\"streaming\"} 2"));
        assert!(scrape
            .body
            .contains("mine_analysis_duration_seconds_count{mode=\"batch\"} 2"));
        assert!(scrape.body.contains("mine_streaming_updates_total 8"));
        assert!(scrape
            .body
            .contains("mine_streaming_update_seconds_count 8"));
        assert!(scrape.body.contains("mine_pool_workers"));
        assert!(scrape.body.contains("mine_pool_steals_total"));
    }

    #[test]
    fn a_finished_sitting_is_gone_and_its_seed_starts_afresh() {
        let router = Router::new(repository());
        let session = start(&router);
        let finish = Request::new("POST", &format!("/sessions/{session}/finish"), "");
        assert_eq!(router.handle(&finish).status, 200);
        for request in [
            Request::new("GET", &format!("/sessions/{session}"), ""),
            finish.clone(),
        ] {
            let response = router.handle(&request);
            assert_eq!(response.status, 404, "{}", response.body);
        }
        assert_eq!(start(&router), session, "same seed, same id");
        assert_eq!(router.state().registry.len(), 1);
    }

    #[test]
    fn start_validates_input() {
        let router = Router::new(repository());
        // Unknown exam.
        let response = router.handle(&Request::new(
            "POST",
            "/sessions",
            r#"{"exam":"nope","student":"s1"}"#,
        ));
        assert_eq!(response.status, 404);
        // Missing student.
        let response = router.handle(&Request::new("POST", "/sessions", r#"{"exam":"quiz"}"#));
        assert_eq!(response.status, 400);
        // Bad JSON.
        let response = router.handle(&Request::new("POST", "/sessions", "{oops"));
        assert_eq!(response.status, 400);
        // Nonsense accommodation is rejected by the delivery layer.
        let response = router.handle(&Request::new(
            "POST",
            "/sessions",
            r#"{"exam":"quiz","student":"s1","time_accommodation":-2.0}"#,
        ));
        assert_eq!(response.status, 400);
        assert!(response.body.contains("time_accommodation"));
    }

    #[test]
    fn duplicate_session_start_conflicts() {
        let router = Router::new(repository());
        start(&router);
        let response = router.handle(&Request::new(
            "POST",
            "/sessions",
            r#"{"exam":"quiz","student":"s1","seed":3}"#,
        ));
        assert_eq!(response.status, 409);
    }

    #[test]
    fn answer_errors_map_to_statuses() {
        let router = Router::new(repository());
        let session = start(&router);
        // Wrong answer kind → 422.
        let response = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/answers"),
            r#"{"answer":{"Completion":["x"]},"time_spent_secs":5}"#,
        ));
        assert_eq!(response.status, 422, "{}", response.body);
        // Unparseable answer → 400.
        let response = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/answers"),
            r#"{"answer":{"Nonsense":1},"time_spent_secs":5}"#,
        ));
        assert_eq!(response.status, 400);
        // Negative time → 400.
        let response = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/answers"),
            r#"{"answer":"Skipped","time_spent_secs":-1}"#,
        ));
        assert_eq!(response.status, 400);
        // Time past the limit → 409.
        let response = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/answers"),
            r#"{"answer":"Skipped","time_spent_secs":1e6}"#,
        ));
        assert_eq!(response.status, 409, "{}", response.body);
        // Unknown session → 404.
        let response = router.handle(&Request::new(
            "POST",
            "/sessions/ghost/answers",
            r#"{"answer":"Skipped","time_spent_secs":1}"#,
        ));
        assert_eq!(response.status, 404);
    }

    #[test]
    fn analysis_without_sittings_conflicts() {
        let router = Router::new(repository());
        let response = router.handle(&Request::new("GET", "/exams/quiz/analysis", ""));
        assert_eq!(response.status, 409);
    }

    #[test]
    fn unmatched_routes_and_methods() {
        let router = Router::new(repository());
        assert_eq!(router.handle(&Request::new("GET", "/nope", "")).status, 404);
        assert_eq!(
            router
                .handle(&Request::new("DELETE", "/healthz", ""))
                .status,
            405
        );
        assert_eq!(
            router
                .handle(&Request::new("GET", "/sessions/x/answers", ""))
                .status,
            405
        );
    }

    #[test]
    fn draining_sheds_everything_but_observability() {
        let router = Router::new(repository());
        let session = start(&router);
        router.state().lifecycle.begin_drain();

        // `/healthz` flips so load balancers rotate away.
        let health = router.handle(&Request::new("GET", "/healthz", ""));
        assert_eq!(health.status, 503);
        let health: Value = serde_json::from_str(&health.body).unwrap();
        assert_eq!(health.get("status").unwrap().as_str(), Some("draining"));
        // `/metrics` stays observable.
        let metrics = router.handle(&Request::new("GET", "/metrics", ""));
        assert_eq!(metrics.status, 200);
        // Everything else is shed with the advertised Retry-After.
        let shed = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/finish"),
            "",
        ));
        assert_eq!(shed.status, 503);
        assert_eq!(shed.retry_after, Some(5));
        assert!(shed.body.contains("draining"));
        let snapshot = router.state().metrics.snapshot(0, 0);
        assert_eq!(snapshot.shed_total, 1);
        assert_eq!(snapshot.retry_after_secs, 5);
        // The session itself was left untouched mid-flight.
        assert_eq!(router.state().registry.len(), 1);
    }

    #[test]
    fn metrics_track_the_lifecycle() {
        let router = Router::new(repository());
        let session = start(&router);
        let _ = router.handle(&Request::new("GET", &format!("/sessions/{session}"), "")); // status
        let _ = router.handle(&Request::new("GET", "/nope", "")); // 404
                                                                  // The default rendering is Prometheus text exposition format.
        let prom = router.handle(&Request::new("GET", "/metrics", ""));
        assert_eq!(prom.status, 200);
        assert!(prom.content_type.starts_with("text/plain"));
        assert!(prom.body.contains("# TYPE mine_requests_total counter"));
        assert!(prom
            .body
            .contains("mine_requests_total{route=\"session_start\"} 1"));
        // The original JSON payload lives under ?format=json.
        let response = router.handle(&Request::new("GET", "/metrics?format=json", ""));
        assert_eq!(response.status, 200);
        assert_eq!(response.content_type, "application/json");
        let value: Value = serde_json::from_str(&response.body).unwrap();
        let requests = value.get("requests").unwrap();
        let count = |label: &str| match requests.get(label) {
            Some(Value::Number(Number::PosInt(n))) => *n,
            other => panic!("bad counter {other:?}"),
        };
        assert_eq!(count("session_start"), 1);
        assert_eq!(count("session_status"), 1);
        assert_eq!(count("unmatched"), 1);
        // The snapshot is taken before the in-flight /metrics request is
        // recorded, so only the earlier Prometheus request is counted.
        assert_eq!(count("metrics"), 1);
        assert_eq!(value.get("active_sessions").unwrap().kind(), "number");
        assert_eq!(value.get("sessions_started").unwrap().kind(), "number");
    }

    /// A journaled router starting in `role`, in a fresh directory
    /// named by `tag`.
    fn replicated(tag: &str, role: Role) -> (Router, std::path::PathBuf) {
        use crate::repl::AckMode;
        let dir = std::env::temp_dir().join(format!("mine-router-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut state, _) = crate::journal::open_journaled_state(
            repository(),
            &dir,
            mine_store::StoreOptions::default(),
            64,
        )
        .unwrap();
        state.repl = Some(Arc::new(ReplState::new(role, AckMode::Leader)));
        (Router::with_state(state), dir)
    }

    #[test]
    fn follower_redirects_writes_and_serves_reads() {
        let (router, dir) = replicated("redirect", Role::Follower);
        let journal = router.state().journal.as_ref().unwrap();
        let repl = router.state().repl.as_ref().unwrap();
        let local = journal.store().epoch();
        repl.follow(journal, local, Some("127.0.0.1:7400".to_string()))
            .unwrap();

        // Every write answers 421 naming the leader.
        for path in [
            "/sessions",
            "/sessions/ghost/answers",
            "/sessions/ghost/finish",
        ] {
            let response = router.handle(&Request::new("POST", path, ""));
            assert_eq!(response.status, 421, "{}", response.body);
            let body: Value = serde_json::from_str(&response.body).unwrap();
            assert_eq!(body.get("leader").unwrap().as_str(), Some("127.0.0.1:7400"));
        }
        // Reads are served locally (a 404 proves the handler ran).
        let read = router.handle(&Request::new("GET", "/sessions/ghost", ""));
        assert_eq!(read.status, 404);
        // The role is visible to supervisors and scrapes.
        let health = router.handle(&Request::new("GET", "/healthz", ""));
        let health: Value = serde_json::from_str(&health.body).unwrap();
        assert_eq!(health.get("role").unwrap().as_str(), Some("follower"));
        let snapshot = router.state().metrics.snapshot(0, 0);
        assert_eq!(snapshot.redirected_total, 3);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_bumps_epoch_and_starts_serving_writes() {
        let (router, dir) = replicated("promote", Role::Follower);

        let refused = router.handle(&Request::new(
            "POST",
            "/sessions",
            r#"{"exam":"quiz","student":"s1"}"#,
        ));
        assert_eq!(refused.status, 421);

        let promoted = router.handle(&Request::new("POST", "/admin/promote", ""));
        assert_eq!(promoted.status, 200, "{}", promoted.body);
        let body: Value = serde_json::from_str(&promoted.body).unwrap();
        assert_eq!(body.get("role").unwrap().as_str(), Some("primary"));
        assert_eq!(
            u64::from_value(body.get("epoch").unwrap()),
            Ok(mine_store::INITIAL_EPOCH + 1)
        );
        // The bump is durable, not just in-memory.
        assert_eq!(
            router.state().journal.as_ref().unwrap().store().epoch(),
            mine_store::INITIAL_EPOCH + 1
        );
        // A second promotion is a conflict; writes now succeed.
        let again = router.handle(&Request::new("POST", "/admin/promote", ""));
        assert_eq!(again.status, 409);
        let started = router.handle(&Request::new(
            "POST",
            "/sessions",
            r#"{"exam":"quiz","student":"s1"}"#,
        ));
        assert_eq!(started.status, 201, "{}", started.body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reads_never_write_snapshots_writes_do() {
        let dir = std::env::temp_dir().join(format!("mine-router-compact-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (state, _) = crate::journal::open_journaled_state(
            repository(),
            &dir,
            mine_store::StoreOptions::default(),
            3,
        )
        .unwrap();
        let router = Router::with_state(state);
        let journal = router.state().journal.as_ref().unwrap();
        let session = start(&router);
        assert_eq!(journal.store().events_since_snapshot(), 1);
        // Cross the threshold outside `handle`, as a concurrent writer
        // does between its append and its own compaction check.
        for _ in 0..2 {
            router
                .state()
                .journal_event(&SessionEvent::Paused {
                    session: "elsewhere".to_string(),
                })
                .unwrap();
        }
        assert!(journal.due_for_snapshot());

        for path in ["/healthz".to_string(), format!("/sessions/{session}")] {
            let response = router.handle(&Request::new("GET", &path, ""));
            assert_eq!(response.status, 200, "{}", response.body);
            assert_eq!(
                journal.store().events_since_snapshot(),
                3,
                "GET {path} wrote a snapshot"
            );
        }

        let response = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/pause"),
            "",
        ));
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(journal.store().events_since_snapshot(), 0);
        assert!(!journal.due_for_snapshot());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn promote_without_replication_conflicts() {
        let router = Router::new(repository());
        let response = router.handle(&Request::new("POST", "/admin/promote", ""));
        assert_eq!(response.status, 409);
        assert!(response.body.contains("not enabled"));
        // Non-POST methods on admin routes are 405, not 404.
        let response = router.handle(&Request::new("GET", "/admin/promote", ""));
        assert_eq!(response.status, 405);
    }

    #[test]
    fn demote_fences_behind_newer_epochs_only() {
        let (router, dir) = replicated("demote", Role::Primary);
        let local = router.state().journal.as_ref().unwrap().store().epoch();

        // A stale (or equal) epoch cannot depose: replayed demotes from
        // an older failover are harmless.
        let stale = router.handle(&Request::new(
            "POST",
            "/admin/demote",
            format!(r#"{{"epoch":{local},"leader":"127.0.0.1:7500"}}"#),
        ));
        assert_eq!(stale.status, 409, "{}", stale.body);
        assert_eq!(router.state().repl.as_ref().unwrap().role(), Role::Primary);

        // A genuinely newer epoch demotes, durably adopts it, and
        // records the new leader for redirects.
        let newer = local + 3;
        let demoted = router.handle(&Request::new(
            "POST",
            "/admin/demote",
            format!(r#"{{"epoch":{newer},"leader":"127.0.0.1:7500"}}"#),
        ));
        assert_eq!(demoted.status, 200, "{}", demoted.body);
        let repl = router.state().repl.as_ref().unwrap();
        assert_eq!(repl.role(), Role::Follower);
        assert_eq!(repl.leader_addr().as_deref(), Some("127.0.0.1:7500"));
        assert_eq!(
            router.state().journal.as_ref().unwrap().store().epoch(),
            newer
        );
        // Writes now redirect to the named leader.
        let refused = router.handle(&Request::new(
            "POST",
            "/sessions",
            r#"{"exam":"quiz","student":"s1"}"#,
        ));
        assert_eq!(refused.status, 421, "{}", refused.body);

        // A replayed demote at the now-current epoch is refused on the
        // follower too, and leaves its leader where it was.
        let replayed = router.handle(&Request::new(
            "POST",
            "/admin/demote",
            format!(r#"{{"epoch":{newer},"leader":"127.0.0.1:7600"}}"#),
        ));
        assert_eq!(replayed.status, 409, "{}", replayed.body);
        assert_eq!(repl.leader_addr().as_deref(), Some("127.0.0.1:7500"));

        // Malformed bodies are a 400, not a silent no-op.
        let bad = router.handle(&Request::new("POST", "/admin/demote", r#"{"epoch":"x"}"#));
        assert_eq!(bad.status, 400, "{}", bad.body);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_late_older_follow_never_lowers_the_epoch() {
        // Two adoptions race: the newer one lands first, the older one
        // after it. Forced in that order, the older one changes nothing.
        let (router, dir) = replicated("follow-race", Role::Primary);
        let journal = router.state().journal.as_ref().unwrap();
        let repl = router.state().repl.as_ref().unwrap();
        let local = journal.store().epoch();
        let newer = Some("127.0.0.1:7500".to_string());
        assert!(repl.follow(journal, local + 3, newer).unwrap());
        let older = Some("127.0.0.1:7400".to_string());
        assert!(!repl.follow(journal, local + 1, older).unwrap());
        assert_eq!(journal.store().epoch(), local + 3);
        assert_eq!(repl.role(), Role::Follower);
        assert_eq!(repl.leader_addr().as_deref(), Some("127.0.0.1:7500"));
        drop(router);
        let (store, _) =
            mine_store::EventStore::open(&dir, mine_store::StoreOptions::default()).unwrap();
        assert_eq!(store.epoch(), local + 3, "the file holds the newer epoch");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
