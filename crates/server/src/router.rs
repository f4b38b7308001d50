//! Transport-agnostic request routing: `Request → Response` over shared
//! service state, no sockets anywhere.
//!
//! [`Router::handle`] is the whole service: the TCP serve loop feeds it
//! parsed [`Request`]s, unit tests construct [`Request`]s directly.
//! Every handler is a pure function of (state, request), so the full
//! endpoint surface is testable in-process.

use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Deserialize, Number, Serialize, Value};

use mine_adaptive::AdaptiveOptions;
use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{Answer, ExamRecord};
use mine_delivery::{DeliveryError, DeliveryOptions, ExamSession, SessionState};
use mine_itembank::{Problem, ProblemBody, Repository};
use mine_streamstats::StreamEngine;

use crate::adaptive::{
    AdaptiveAnswerError, AdaptiveLookup, AdaptiveRegistry, AdaptiveSitting, AdaptiveStartError,
};
use crate::analysis_bodies::AnalysisBodies;
use crate::drain::Lifecycle;
use crate::http::{Request, Response};
use crate::journal::{Journal, SessionEvent};
use crate::metrics::{Metrics, Route};
use crate::registry::{FinishedStore, RegistryError, SessionRegistry};
use crate::repl::{ReplState, Role};

/// Retry-After advertised on writes shed while storage is degraded:
/// long enough that clients back off, short enough that a healed node
/// picks traffic back up promptly.
const DEGRADED_RETRY_SECS: u64 = 2;

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
    /// Live adaptive (CAT) sittings — a separate registry because the
    /// lifecycle (one item at a time, no pause, estimator on the hot
    /// path) shares nothing with `ExamSession` slots. Session-id
    /// formats are disjoint (`~` vs `#`), so shared `/sessions/{id}`
    /// routes dispatch by which registry claims the id.
    pub adaptive: AdaptiveRegistry,
    /// Finished records, grouped per exam for live analysis.
    pub finished: FinishedStore,
    /// The §4 pipeline (the `?mode=batch` escape hatch and the fallback
    /// for unstreamable inputs). It runs inline on the request's worker:
    /// the server already runs one worker per CPU, so fanning one read
    /// out over the pool would only take CPU from other connections. Its
    /// cache is off: fingerprinting a class and cloning a cached
    /// analysis cost more than the rare hit saved.
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
    /// The scrubber's most recent pass (per-window range hashes and
    /// segment verdicts).
    pub integrity: crate::scrub::IntegrityTable,
    /// Serializes `Created` journaling with registry insertion so a
    /// session's `Created` event always precedes its other events in
    /// the log (two racing starts of the same id would otherwise be
    /// able to interleave append and insert).
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
            adaptive: AdaptiveRegistry::new(),
            finished: FinishedStore::new(),
            analyzer: BatchAnalyzer::new(config)
                .with_threads(1)
                .with_cache_capacity(0),
            stream: Arc::new(StreamEngine::new(config)),
            analysis_bodies: AnalysisBodies::default(),
            metrics: Metrics::new(),
            journal: None,
            repl: None,
            lifecycle: Lifecycle::new(),
            storage: StorageHealth::default(),
            integrity: crate::scrub::IntegrityTable::default(),
            create_lock: parking_lot::Mutex::new(()),
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
            // The session existed but is gone — 410, not 404.
            RegistryError::AlreadyRemoved(_) => Self::new(410, err.to_string()),
        }
    }
}

impl From<AdaptiveLookup> for ApiError {
    fn from(err: AdaptiveLookup) -> Self {
        match err {
            AdaptiveLookup::Missing => Self::not_found("no adaptive sitting with that id"),
            AdaptiveLookup::Gone => Self::new(410, "adaptive sitting already finished"),
            AdaptiveLookup::Duplicate => {
                Self::conflict("an adaptive sitting with that id already exists")
            }
        }
    }
}

impl From<AdaptiveAnswerError> for ApiError {
    fn from(err: AdaptiveAnswerError) -> Self {
        match err {
            AdaptiveAnswerError::Complete => Self::conflict(
                "the stop rule has fired; the sitting only accepts POST /sessions/{id}/finish",
            ),
            AdaptiveAnswerError::Grading(message) => Self::new(422, message),
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
            let mut response = ok_json(err.status, &ErrorBody { error: err.message });
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
    fn journal_failed(&self, err: &mine_store::StoreError) -> ApiError {
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

    /// Journals one event and ships it to connected followers. Under
    /// `ack=quorum` this blocks (bounded) until a follower confirms
    /// durability; the record is already in the local WAL either way.
    fn journal_event(&self, journal: &Journal, event: &SessionEvent) -> Result<(), ApiError> {
        let payload = serde_json::to_string(event)
            .map_err(|err| ApiError::new(500, format!("event failed to serialize: {err}")))?;
        let seq = match &self.state.repl {
            Some(repl) => repl.append_and_publish(journal, payload.as_bytes(), &self.state.metrics),
            None => journal.append_raw(payload.as_bytes()),
        }
        .map_err(|err| self.journal_failed(&err))?;
        // The caller applies the mutation next, still holding the
        // session and the read gate, and replies only after it.
        journal.mark_applied(seq);
        Ok(())
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
                let secs = self.state.lifecycle.retry_after_secs();
                self.state.metrics.shed(secs);
                (Route::Shed, Ok(Response::shed("server is draining", secs)))
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
        Ok(ok_json(
            status,
            &Value::Object(vec![
                (
                    "status".to_string(),
                    Value::String(state.label().to_string()),
                ),
                ("role".to_string(), Value::String(role.label().to_string())),
                ("epoch".to_string(), epoch.to_value()),
                ("last_applied_seq".to_string(), last_applied.to_value()),
                ("storage".to_string(), Value::String(storage.to_string())),
            ]),
        ))
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

    /// The epoch-fenced promotion sequence shared by `POST
    /// /admin/promote` (supervised) and the auto-failover detector
    /// (unsupervised): stop following, bump the durable epoch past the
    /// old leader's, start serving writes. Returns the new epoch.
    ///
    /// # Errors
    ///
    /// Returns a message when replication/journaling is not configured,
    /// this node is already the primary, or the epoch bump fails to
    /// persist (the role is restored to follower in that last case, so
    /// a node that cannot fence itself never serves writes).
    pub fn promote_follower(&self) -> Result<u64, String> {
        let Some(repl) = &self.state.repl else {
            return Err("replication is not enabled".to_string());
        };
        let Some(journal) = &self.state.journal else {
            return Err("replication requires a journal".to_string());
        };
        if repl.role() == Role::Primary {
            return Err("already the primary".to_string());
        }
        // Candidate first: the write guard starts refusing writes as
        // "not yet the leader" rather than racing the epoch bump.
        repl.set_role(Role::Candidate);
        repl.stop_puller();
        // The puller applies records under the read gate; taking the
        // write gate waits out any in-flight apply, so nothing from the
        // old stream lands after the bump.
        let _gate = journal.gate_write();
        let epoch = journal.store().epoch() + 1;
        if let Err(err) = journal.store().set_epoch(epoch) {
            repl.set_role(Role::Follower);
            return Err(format!("epoch bump failed: {err}"));
        }
        repl.set_role(Role::Primary);
        Ok(epoch)
    }

    /// `POST /admin/promote`: supervised failover. Stops following,
    /// bumps the durable epoch past the old leader's, and starts
    /// serving writes. The epoch bump is what fences the deposed
    /// primary — its records and its `Welcome` now carry a lower epoch
    /// and are refused everywhere.
    fn promote(&self) -> ApiResult {
        if self.state.repl.is_none() {
            return Err(ApiError::conflict("replication is not enabled"));
        }
        if self.state.journal.is_none() {
            return Err(ApiError::new(500, "replication requires a journal"));
        }
        let epoch = self.promote_follower().map_err(|reason| {
            if reason == "already the primary" {
                ApiError::conflict(reason)
            } else {
                ApiError::new(500, reason)
            }
        })?;
        let journal = self.state.journal.as_ref().expect("checked above");
        Ok(ok_json(
            200,
            &Value::Object(vec![
                ("role".to_string(), Value::String("primary".to_string())),
                ("epoch".to_string(), epoch.to_value()),
                (
                    "last_applied_seq".to_string(),
                    journal.applied_seq().to_value(),
                ),
            ]),
        ))
    }

    /// `POST /admin/demote`: stand down behind a newer epoch. Sent by a
    /// freshly auto-promoted primary to its peers (best-effort); also
    /// usable by a supervisor. The body names the fencing epoch and the
    /// new leader: `{"epoch": N, "leader": "host:port"}`. A demote
    /// carrying an epoch at or below the local one is refused with
    /// `409` — only genuinely newer leadership can depose a node, so a
    /// delayed or replayed demote from an older failover is harmless.
    fn demote(&self, request: &Request) -> ApiResult {
        let Some(repl) = &self.state.repl else {
            return Err(ApiError::conflict("replication is not enabled"));
        };
        let Some(journal) = &self.state.journal else {
            return Err(ApiError::new(500, "replication requires a journal"));
        };
        let body = parse_body(request)?;
        let epoch = match body.get("epoch") {
            Some(Value::Number(Number::PosInt(n))) => *n,
            _ => return Err(ApiError::bad_request("field `epoch` must be a number")),
        };
        let leader = body
            .get("leader")
            .and_then(Value::as_str)
            .unwrap_or_default()
            .to_string();
        // Same fencing discipline as promotion: the write gate waits
        // out in-flight appends, so no write straddles the epoch flip.
        let _gate = journal.gate_write();
        let local = journal.store().epoch();
        if epoch <= local {
            return Err(ApiError::conflict(format!(
                "refusing demote: epoch {epoch} is not ahead of local {local}"
            )));
        }
        journal
            .store()
            .set_epoch(epoch)
            .map_err(|err| ApiError::new(500, format!("epoch adopt failed: {err}")))?;
        repl.set_role(Role::Follower);
        if !leader.is_empty() {
            repl.set_leader_addr(leader);
        }
        // The new leader just spoke to us; re-arm the failure detector.
        repl.note_leader_contact();
        Ok(ok_json(
            200,
            &Value::Object(vec![
                ("role".to_string(), Value::String("follower".to_string())),
                ("epoch".to_string(), epoch.to_value()),
            ]),
        ))
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
        Ok(ok_json(200, &ranges_body(&report, store, role)))
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
        Ok(ok_json(
            421,
            &Value::Object(vec![
                (
                    "error".to_string(),
                    Value::String(
                        "this node is a read replica; writes go to the leader".to_string(),
                    ),
                ),
                ("leader".to_string(), Value::String(leader)),
            ]),
        ))
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
        let exam_id = require_str(body, "exam")?;
        let student = require_str(body, "student")?;
        let options = DeliveryOptions {
            seed: optional_u64(body, "seed")?.unwrap_or(0),
            resumable: optional_bool(body, "resumable")?.unwrap_or(true),
            time_accommodation: optional_f64(body, "time_accommodation")?.unwrap_or(1.0),
        };
        let (exam, problems) = self
            .state
            .repository
            .resolve_exam(
                &exam_id
                    .parse()
                    .map_err(|err| ApiError::bad_request(format!("bad exam id: {err}")))?,
            )
            .map_err(|err| ApiError::not_found(err.to_string()))?;
        let student = student
            .parse()
            .map_err(|err| ApiError::bad_request(format!("bad student id: {err}")))?;
        let session = ExamSession::start(&exam, problems.clone(), student, options)?;
        let body = session_started_body(&session, &problems);
        match &self.state.journal {
            Some(journal) => {
                let _gate = journal.gate_read();
                // The create lock makes append+insert atomic with
                // respect to other creators, so a `Created` event can
                // never land in the log *after* one of its session's
                // other events.
                let _create = self.state.create_lock.lock();
                self.journal_event(
                    journal,
                    &SessionEvent::Created {
                        exam: exam.id().clone(),
                        student: session.student().clone(),
                        options: session.options().clone(),
                    },
                )?;
                self.state.registry.insert(session)?;
            }
            None => {
                self.state.registry.insert(session)?;
            }
        }
        self.state.metrics.sessions_started.inc();
        Ok(ok_json(201, &body))
    }

    /// `POST /sessions` with `"mode": "adaptive"`: starts a CAT sitting
    /// serving one item at a time. Parameter or calibration problems
    /// answer `422` with the offending field named in the body.
    fn start_adaptive(&self, body: &Value) -> ApiResult {
        let exam_id = require_str(body, "exam")?;
        let student = require_str(body, "student")?;
        let (exam, problems) = self
            .state
            .repository
            .resolve_exam(
                &exam_id
                    .parse()
                    .map_err(|err| ApiError::bad_request(format!("bad exam id: {err}")))?,
            )
            .map_err(|err| ApiError::not_found(err.to_string()))?;
        let defaults = AdaptiveOptions::for_bank(problems.len());
        let as_count = |value: u64| usize::try_from(value).unwrap_or(usize::MAX);
        let options = AdaptiveOptions {
            seed: optional_u64(body, "seed")?.unwrap_or(defaults.seed),
            min_items: optional_u64(body, "min_items")?.map_or(defaults.min_items, as_count),
            max_items: optional_u64(body, "max_items")?.map_or(defaults.max_items, as_count),
            se_threshold: optional_f64(body, "se_threshold")?.unwrap_or(defaults.se_threshold),
        };
        let student = student
            .parse()
            .map_err(|err| ApiError::bad_request(format!("bad student id: {err}")))?;
        let mut sitting =
            match AdaptiveSitting::start(exam.id().clone(), problems, student, options) {
                Ok(sitting) => sitting,
                Err(err) => return Ok(adaptive_rejection(&err)),
            };
        let started_body = adaptive_started_body(&mut sitting);
        match &self.state.journal {
            Some(journal) => {
                let _gate = journal.gate_read();
                // Same ordering guarantee as fixed-form Created events.
                let _create = self.state.create_lock.lock();
                self.journal_event(
                    journal,
                    &SessionEvent::AdaptiveCreated {
                        exam: exam.id().clone(),
                        student: sitting.student().clone(),
                        options,
                    },
                )?;
                self.state.adaptive.insert(sitting)?;
            }
            None => {
                self.state.adaptive.insert(sitting)?;
            }
        }
        self.state.metrics.adaptive_sessions_started.inc();
        Ok(ok_json(201, &started_body))
    }

    fn session_status(&self, id: &str) -> ApiResult {
        if self.state.adaptive.routes(id) {
            let status = self.state.adaptive.with(id, adaptive_status_body)?;
            return Ok(ok_json(200, &status));
        }
        let status = self
            .state
            .registry
            .with(id, |slot| session_status_body(&slot.session))?;
        Ok(ok_json(200, &status))
    }

    /// `POST /sessions/{id}/answers` on an adaptive sitting: journal
    /// the step WAL-first, grade, re-estimate, select the next item.
    fn adaptive_answer(&self, id: &str, request: &Request) -> ApiResult {
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
        let journal = self.state.journal.as_ref();
        let _gate = journal.map(Journal::gate_read);
        let step_started = Instant::now();
        let status = self.state.adaptive.with(id, |sitting| {
            if sitting.is_done() {
                // Rejected before journaling: a complete sitting's log
                // must end at its last accepted step.
                return Err(ApiError::from(AdaptiveAnswerError::Complete));
            }
            if let Some(journal) = journal {
                self.journal_event(
                    journal,
                    &SessionEvent::AdaptiveStep {
                        session: id.to_string(),
                        answer: answer.clone(),
                        time_spent,
                    },
                )?;
            }
            sitting
                .answer(answer.clone(), time_spent)
                .map_err(ApiError::from)?;
            Ok::<_, ApiError>(adaptive_status_body(sitting))
        })??;
        self.state
            .metrics
            .adaptive_step_us
            .observe(step_started.elapsed());
        Ok(ok_json(200, &status))
    }

    /// `POST /sessions/{id}/finish` on an adaptive sitting: grades the
    /// record over the full exam problem set (skipped padding), files
    /// it into the same store/stream path fixed-form sittings use.
    fn adaptive_finish(&self, id: &str) -> ApiResult {
        let journal = self.state.journal.as_ref();
        let _gate = journal.map(Journal::gate_read);
        let (exam_id, record) = self.state.adaptive.with(id, |sitting| {
            if let Some(journal) = journal {
                self.journal_event(
                    journal,
                    &SessionEvent::AdaptiveFinished {
                        session: id.to_string(),
                    },
                )?;
            }
            let record = sitting.finish().map_err(|err| ApiError::new(500, err))?;
            Ok::<_, ApiError>((sitting.exam().as_str().to_string(), record))
        })??;
        self.state.stream.with_exam(&exam_id, |stream| {
            self.state.finished.push(&exam_id, record.clone());
            let update_started = Instant::now();
            stream.apply(&record);
            self.state
                .metrics
                .streaming_update_us
                .observe(update_started.elapsed());
        });
        self.state.adaptive.remove(id);
        self.state.metrics.adaptive_sessions_finished.inc();
        Ok(ok_json(200, &record))
    }

    fn answer(&self, id: &str, request: &Request) -> ApiResult {
        if self.state.adaptive.routes(id) {
            return self.adaptive_answer(id, request);
        }
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
        let journal = self.state.journal.as_ref();
        let _gate = journal.map(Journal::gate_read);
        let outcome = self.state.registry.with(id, |slot| {
            if let Some(journal) = journal {
                // Journaled even if the session rejects it: a rejection
                // can still move the logical clock (expiry clamps it).
                self.journal_event(
                    journal,
                    &SessionEvent::Answered {
                        session: id.to_string(),
                        answer: answer.clone(),
                        time_spent,
                    },
                )?;
            }
            slot.session
                .answer(answer.clone(), time_spent)
                .map(|()| session_status_body(&slot.session))
                .map_err(ApiError::from)
        })?;
        Ok(ok_json(200, &outcome?))
    }

    fn pause(&self, id: &str) -> ApiResult {
        if self.state.adaptive.routes(id) {
            return Err(ApiError::conflict(
                "adaptive sittings cannot pause; answer the pending item or finish",
            ));
        }
        let journal = self.state.journal.as_ref();
        let _gate = journal.map(Journal::gate_read);
        let checkpoint = self.state.registry.with(id, |slot| {
            if let Some(journal) = journal {
                self.journal_event(
                    journal,
                    &SessionEvent::Paused {
                        session: id.to_string(),
                    },
                )?;
            }
            let checkpoint = slot.session.pause().map_err(ApiError::from)?;
            slot.checkpoint = Some(checkpoint.clone());
            Ok::<_, ApiError>(checkpoint)
        })??;
        Ok(ok_json(200, &checkpoint))
    }

    fn resume(&self, id: &str) -> ApiResult {
        if self.state.adaptive.routes(id) {
            return Err(ApiError::conflict(
                "adaptive sittings cannot pause or resume; they are always live",
            ));
        }
        let journal = self.state.journal.as_ref();
        let _gate = journal.map(Journal::gate_read);
        let status = self.state.registry.with(id, |slot| {
            if let Some(journal) = journal {
                self.journal_event(
                    journal,
                    &SessionEvent::Resumed {
                        session: id.to_string(),
                    },
                )?;
            }
            slot.session.reactivate().map_err(ApiError::from)?;
            Ok::<_, ApiError>(session_status_body(&slot.session))
        })??;
        Ok(ok_json(200, &status))
    }

    fn finish(&self, id: &str) -> ApiResult {
        if self.state.adaptive.routes(id) {
            return self.adaptive_finish(id);
        }
        let journal = self.state.journal.as_ref();
        let _gate = journal.map(Journal::gate_read);
        let (exam_id, record) = self.state.registry.with(id, |slot| {
            if let Some(journal) = journal {
                self.journal_event(
                    journal,
                    &SessionEvent::Finished {
                        session: id.to_string(),
                    },
                )?;
            }
            let record = slot.session.finish().map_err(ApiError::from)?;
            Ok::<_, ApiError>((slot.session.exam_id().as_str().to_string(), record))
        })??;
        // The sitting is over: file the record, fold it into the
        // streaming statistics, and free the slot. Filing and folding
        // happen under the engine's per-exam lock so the finished store
        // and the engine always agree on the row set (two racing
        // finishes of the same student cannot land in opposite orders).
        self.state.stream.with_exam(&exam_id, |stream| {
            self.state.finished.push(&exam_id, record.clone());
            let update_started = Instant::now();
            stream.apply(&record);
            self.state
                .metrics
                .streaming_update_us
                .observe(update_started.elapsed());
        });
        let _ = self.state.registry.remove(id);
        self.state.metrics.sessions_finished.inc();
        Ok(ok_json(200, &record))
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
        let parsed = exam_id
            .parse()
            .map_err(|err| ApiError::bad_request(format!("bad exam id: {err}")))?;
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
        let records = self.state.finished.records(exam_id);
        if records.is_empty() {
            return Err(ApiError::conflict(format!(
                "no finished sittings for exam {exam_id}"
            )));
        }
        let class = ExamRecord::new(parsed, records);
        let hits_before = self.state.analyzer.cache_stats().hits;
        let started = std::time::Instant::now();
        let report = self
            .state
            .analyzer
            .analyze_records(std::slice::from_ref(&class), &problems)
            .map_err(|err| ApiError::new(500, format!("analysis failed: {err}")))?;
        let cache_hit = self.state.analyzer.cache_stats().hits > hits_before;
        let by_cache = &self.state.metrics.analysis_duration_us;
        let histogram = if cache_hit {
            &by_cache.hit
        } else {
            &by_cache.cold
        };
        histogram.observe(started.elapsed());
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

/// The `GET /admin/ranges` body: fencing coordinates plus the range
/// hashes a peer compares against its own.
fn ranges_body(
    report: &mine_store::ScrubReport,
    store: &mine_store::EventStore,
    role: Role,
) -> Value {
    let ranges = report
        .ranges
        .iter()
        .map(|range| {
            Value::Object(vec![
                ("first_seq".to_string(), range.first_seq.to_value()),
                ("last_seq".to_string(), range.last_seq.to_value()),
                ("count".to_string(), range.count.to_value()),
                ("hash".to_string(), range.hash.to_value()),
            ])
        })
        .collect();
    Value::Object(vec![
        ("role".to_string(), Value::String(role.label().to_string())),
        ("epoch".to_string(), store.epoch().to_value()),
        ("head_seq".to_string(), (store.next_seq() - 1).to_value()),
        (
            "corrupt_segments".to_string(),
            (report.corrupt_segments().len() as u64).to_value(),
        ),
        ("ranges".to_string(), Value::Array(ranges)),
    ])
}

/// The body of every error response: `{"error":"…"}`.
#[derive(Serialize)]
struct ErrorBody {
    error: String,
}

/// Serializes a typed value (or a hand-built [`Value`] tree) straight
/// into a JSON response body.
fn ok_json<T: Serialize + ?Sized>(status: u16, value: &T) -> Response {
    Response::json(
        status,
        serde_json::to_string(value).expect("bodies serialize"),
    )
}

fn parse_body(request: &Request) -> Result<Value, ApiError> {
    let text = request
        .body_str()
        .ok_or_else(|| ApiError::bad_request("body is not UTF-8"))?;
    if text.trim().is_empty() {
        return Ok(Value::Object(Vec::new()));
    }
    serde_json::from_str(text).map_err(|err| ApiError::bad_request(format!("bad JSON body: {err}")))
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
fn session_started_body(session: &ExamSession, problems: &[Problem]) -> Value {
    let by_id: std::collections::BTreeMap<&str, &Problem> =
        problems.iter().map(|p| (p.id().as_str(), p)).collect();
    let summaries = session
        .order()
        .iter()
        .filter_map(|id| by_id.get(id.as_str()))
        .map(|problem| problem_summary(problem))
        .collect();
    Value::Object(vec![
        (
            "session".to_string(),
            Value::String(session.id().as_str().to_string()),
        ),
        (
            "exam".to_string(),
            Value::String(session.exam_id().as_str().to_string()),
        ),
        (
            "student".to_string(),
            Value::String(session.student().as_str().to_string()),
        ),
        ("state".to_string(), state_value(session.state())),
        (
            "questions".to_string(),
            (session.order().len() as u64).to_value(),
        ),
        ("problems".to_string(), Value::Array(summaries)),
        ("remaining_secs".to_string(), remaining_value(session)),
    ])
}

/// What a client needs to know to answer a problem with the right
/// answer *kind* (option counts, blank counts, pair counts).
fn problem_summary(problem: &Problem) -> Value {
    let mut fields = vec![
        (
            "id".to_string(),
            Value::String(problem.id().as_str().to_string()),
        ),
        (
            "style".to_string(),
            Value::String(problem.style().keyword().to_string()),
        ),
    ];
    match problem.body() {
        ProblemBody::MultipleChoice { options, .. }
        | ProblemBody::Questionnaire { options, .. } => {
            fields.push(("options".to_string(), (options.len() as u64).to_value()));
        }
        ProblemBody::Completion { blanks, .. } => {
            fields.push(("blanks".to_string(), (blanks.len() as u64).to_value()));
        }
        ProblemBody::Match(pairs) => {
            fields.push(("pairs".to_string(), (pairs.correct.len() as u64).to_value()));
            fields.push(("right".to_string(), (pairs.right.len() as u64).to_value()));
        }
        ProblemBody::TrueFalse { .. } | ProblemBody::Essay { .. } => {}
    }
    Value::Object(fields)
}

fn state_value(state: SessionState) -> Value {
    Value::String(
        match state {
            SessionState::Active => "active",
            SessionState::Paused => "paused",
            SessionState::Finished => "finished",
        }
        .to_string(),
    )
}

fn remaining_value(session: &ExamSession) -> Value {
    session
        .remaining_time()
        .map_or(Value::Null, |remaining| remaining.as_secs_f64().to_value())
}

/// The common session status body (`GET /sessions/{id}` and answer
/// responses).
fn session_status_body(session: &ExamSession) -> Value {
    Value::Object(vec![
        (
            "session".to_string(),
            Value::String(session.id().as_str().to_string()),
        ),
        ("state".to_string(), state_value(session.state())),
        (
            "answered".to_string(),
            (session.answered_count() as u64).to_value(),
        ),
        (
            "elapsed_secs".to_string(),
            session.elapsed().as_secs_f64().to_value(),
        ),
        ("remaining_secs".to_string(), remaining_value(session)),
        (
            "current".to_string(),
            session.current().map_or(Value::Null, |problem| {
                Value::String(problem.id().as_str().to_string())
            }),
        ),
    ])
}

/// The `422` response for a rejected adaptive start, naming the
/// offending field (mirrors `DeliveryOptions::validate` semantics).
fn adaptive_rejection(err: &AdaptiveStartError) -> Response {
    let field = match err {
        AdaptiveStartError::InvalidOptions(inner) => inner.field,
        AdaptiveStartError::Uncalibrated { .. } => "item_bank",
    };
    ok_json(
        422,
        &Value::Object(vec![
            ("error".to_string(), Value::String(err.to_string())),
            ("field".to_string(), Value::String(field.to_string())),
        ]),
    )
}

/// The shared tail of every adaptive response body: ability estimate,
/// SE, step count, stop state, and the pending item's summary.
fn adaptive_progress_fields(sitting: &mut AdaptiveSitting) -> Vec<(String, Value)> {
    let estimate = sitting.estimate();
    let done = sitting.is_done();
    vec![
        (
            "state".to_string(),
            Value::String(if done { "complete" } else { "active" }.to_string()),
        ),
        (
            "steps".to_string(),
            (sitting.step_count() as u64).to_value(),
        ),
        ("theta".to_string(), estimate.theta.to_value()),
        ("se".to_string(), estimate.se.to_value()),
        (
            "elapsed_secs".to_string(),
            sitting.elapsed().as_secs_f64().to_value(),
        ),
        ("done".to_string(), Value::Bool(done)),
        (
            "current".to_string(),
            sitting
                .current_problem()
                .map_or(Value::Null, problem_summary),
        ),
    ]
}

/// The adaptive `GET /sessions/{id}` / answer-response body.
fn adaptive_status_body(sitting: &mut AdaptiveSitting) -> Value {
    let mut fields = vec![
        (
            "session".to_string(),
            Value::String(sitting.id().to_string()),
        ),
        ("mode".to_string(), Value::String("adaptive".to_string())),
    ];
    fields.extend(adaptive_progress_fields(sitting));
    Value::Object(fields)
}

/// The adaptive `POST /sessions` response: identity, stop rule, and
/// the first item.
fn adaptive_started_body(sitting: &mut AdaptiveSitting) -> Value {
    let options = sitting.options();
    let mut fields = vec![
        (
            "session".to_string(),
            Value::String(sitting.id().to_string()),
        ),
        (
            "exam".to_string(),
            Value::String(sitting.exam().as_str().to_string()),
        ),
        (
            "student".to_string(),
            Value::String(sitting.student().as_str().to_string()),
        ),
        ("mode".to_string(), Value::String("adaptive".to_string())),
        (
            "min_items".to_string(),
            (options.min_items as u64).to_value(),
        ),
        (
            "max_items".to_string(),
            (options.max_items as u64).to_value(),
        ),
        ("se_threshold".to_string(), options.se_threshold.to_value()),
    ];
    fields.extend(adaptive_progress_fields(sitting));
    Value::Object(fields)
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
        assert_eq!(
            value.get("epoch"),
            Some(&mine_store::INITIAL_EPOCH.to_value())
        );
        assert_eq!(value.get("last_applied_seq"), Some(&0u64.to_value()));
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

        // The default mode streams from counters — the batch pipeline
        // was never invoked.
        assert_eq!(router.state().analyzer.cache_stats().hits, 0);
        let again = router.handle(&Request::new("GET", "/exams/quiz/analysis", ""));
        assert_eq!(again.body, analysis.body);

        // `?mode=batch` forces the full pipeline and produces the very
        // same bytes; the server's analyzer keeps no cache, so a second
        // batch read is cold again and byte-identical.
        let batch = router.handle(&Request::new("GET", "/exams/quiz/analysis?mode=batch", ""));
        assert_eq!(batch.status, 200, "{}", batch.body);
        assert_eq!(batch.body, analysis.body);
        let batch_again =
            router.handle(&Request::new("GET", "/exams/quiz/analysis?mode=batch", ""));
        assert_eq!(batch_again.body, analysis.body);
        assert_eq!(router.state().analyzer.cache_stats().hits, 0);

        // All four analyses were timed, labeled by mode (and cache
        // outcome for batch), the finish-time updates were counted, and
        // the scrape refreshes the pool gauges.
        let snapshot = router.state().metrics.snapshot(0, 0);
        assert_eq!(snapshot.analysis_duration_us.streaming.count, 2);
        assert_eq!(snapshot.analysis_duration_us.cold.count, 2);
        assert_eq!(snapshot.analysis_duration_us.hit.count, 0);
        assert_eq!(snapshot.streaming_update_us.count, 8);
        let scrape = router.handle(&Request::new("GET", "/metrics", ""));
        assert!(scrape
            .body
            .contains("mine_analysis_duration_seconds_count{mode=\"streaming\"} 2"));
        assert!(scrape
            .body
            .contains("mine_analysis_duration_seconds_count{mode=\"batch\",cache=\"cold\"} 2"));
        assert!(scrape
            .body
            .contains("mine_analysis_duration_seconds_count{mode=\"batch\",cache=\"hit\"} 0"));
        assert!(scrape.body.contains("mine_streaming_updates_total 8"));
        assert!(scrape
            .body
            .contains("mine_streaming_update_seconds_count 8"));
        assert!(scrape.body.contains("mine_pool_workers"));
        assert!(scrape.body.contains("mine_pool_steals_total"));
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

    #[test]
    fn follower_redirects_writes_and_serves_reads() {
        use crate::repl::AckMode;
        let mut state = ServerState::new(repository());
        let repl = Arc::new(ReplState::new(Role::Follower, AckMode::Leader));
        repl.set_leader_addr("127.0.0.1:7400".to_string());
        state.repl = Some(repl);
        let router = Router::with_state(state);

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
    }

    #[test]
    fn promote_bumps_epoch_and_starts_serving_writes() {
        use crate::repl::AckMode;
        let dir = std::env::temp_dir().join(format!("mine-router-promote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut state, _) = crate::journal::open_journaled_state(
            repository(),
            &dir,
            mine_store::StoreOptions::default(),
            64,
        )
        .unwrap();
        state.repl = Some(Arc::new(ReplState::new(Role::Follower, AckMode::Leader)));
        let router = Router::with_state(state);

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
            body.get("epoch"),
            Some(&(mine_store::INITIAL_EPOCH + 1).to_value())
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
            journal
                .append(&SessionEvent::Paused {
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
        use crate::repl::AckMode;
        let dir = std::env::temp_dir().join(format!("mine-router-demote-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let (mut state, _) = crate::journal::open_journaled_state(
            repository(),
            &dir,
            mine_store::StoreOptions::default(),
            64,
        )
        .unwrap();
        state.repl = Some(Arc::new(ReplState::new(Role::Primary, AckMode::Leader)));
        let router = Router::with_state(state);
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

        // Malformed bodies are a 400, not a silent no-op.
        let bad = router.handle(&Request::new("POST", "/admin/demote", r#"{"epoch":"x"}"#));
        assert_eq!(bad.status, 400, "{}", bad.body);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
