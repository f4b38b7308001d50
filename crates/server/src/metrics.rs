//! Lock-free service metrics: request counters, a latency histogram,
//! and session gauges, all plain atomics so the hot path never blocks.
//!
//! `GET /metrics` renders a [`MetricsSnapshot`] as JSON — request
//! counts per route, response counts per status class, a fixed-bucket
//! latency histogram in microseconds, and active/started/finished
//! session gauges.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{JsonWriter, Serialize, Value};

/// The routes the service distinguishes in its counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `GET /healthz`.
    Healthz,
    /// `GET /metrics`.
    Metrics,
    /// `POST /sessions`.
    SessionStart,
    /// `GET /sessions/{id}`.
    SessionStatus,
    /// `POST /sessions/{id}/answers`.
    Answer,
    /// `POST /sessions/{id}/pause`.
    Pause,
    /// `POST /sessions/{id}/resume`.
    Resume,
    /// `POST /sessions/{id}/finish`.
    Finish,
    /// `GET /exams/{id}/analysis`.
    Analysis,
    /// `POST /admin/promote`.
    Promote,
    /// `POST /admin/demote`.
    Demote,
    /// `GET /admin/ranges`.
    AdminRanges,
    /// A write redirected away from a follower with `421`.
    Redirected,
    /// A request shed at the routing layer (server draining).
    Shed,
    /// Anything that did not match a route.
    Unmatched,
}

impl Route {
    /// All distinguishable routes, in render order.
    pub const ALL: [Route; 15] = [
        Route::Healthz,
        Route::Metrics,
        Route::SessionStart,
        Route::SessionStatus,
        Route::Answer,
        Route::Pause,
        Route::Resume,
        Route::Finish,
        Route::Analysis,
        Route::Promote,
        Route::Demote,
        Route::AdminRanges,
        Route::Redirected,
        Route::Shed,
        Route::Unmatched,
    ];

    /// Stable metric label.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Route::Healthz => "healthz",
            Route::Metrics => "metrics",
            Route::SessionStart => "session_start",
            Route::SessionStatus => "session_status",
            Route::Answer => "answer",
            Route::Pause => "pause",
            Route::Resume => "resume",
            Route::Finish => "finish",
            Route::Analysis => "analysis",
            Route::Promote => "promote",
            Route::Demote => "demote",
            Route::AdminRanges => "admin_ranges",
            Route::Redirected => "redirected",
            Route::Shed => "shed",
            Route::Unmatched => "unmatched",
        }
    }

    fn index(self) -> usize {
        Route::ALL.iter().position(|r| *r == self).expect("listed")
    }
}

/// Upper bounds (inclusive, microseconds) of the latency buckets; the
/// final bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 8] = [100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// Index of the histogram bucket a `us`-microsecond observation lands
/// in (the last index is the overflow bucket).
fn bucket_index(us: u64) -> usize {
    LATENCY_BUCKETS_US
        .iter()
        .position(|&bound| us <= bound)
        .unwrap_or(LATENCY_BUCKETS_US.len())
}

/// Shared metric counters. Cheap to update from any worker thread.
#[derive(Debug, Default)]
pub struct Metrics {
    requests: [AtomicU64; Route::ALL.len()],
    /// Responses by status class: 2xx, 4xx, 5xx.
    status_2xx: AtomicU64,
    status_4xx: AtomicU64,
    status_5xx: AtomicU64,
    latency_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    latency_sum_us: AtomicU64,
    latency_count: AtomicU64,
    sessions_started: AtomicU64,
    sessions_finished: AtomicU64,
    /// Connections/requests shed because the accept queue was full or
    /// the server was draining.
    shed_total: AtomicU64,
    /// Connections shed by the per-peer token bucket.
    rate_limited_total: AtomicU64,
    /// Connections accepted and waiting for a worker, right now.
    queue_depth: AtomicU64,
    /// Requests currently being handled (parsed → response written).
    inflight_requests: AtomicU64,
    /// Drain state gauge: 0 running, 1 draining, 2 stopped.
    drain_state: AtomicU64,
    /// The `Retry-After` seconds most recently advertised on a shed
    /// response (0 = nothing shed yet).
    retry_after_secs: AtomicU64,
    /// Replication role gauge: 0 primary, 1 follower, 2 candidate.
    repl_role: AtomicU64,
    /// Durable replication epoch.
    repl_epoch: AtomicU64,
    /// Highest journal sequence applied locally.
    repl_last_applied_seq: AtomicU64,
    /// Replication lag in records: a primary reports its head minus its
    /// slowest follower's ack, a follower its leader's advertised head
    /// minus its own applied seq.
    repl_lag: AtomicU64,
    /// Followers currently streaming from this node.
    repl_followers: AtomicU64,
    /// Quorum-ack waits that timed out (the write proceeded leader-only).
    repl_quorum_timeouts_total: AtomicU64,
    /// Writes refused with `421` and redirected to the leader.
    redirected_total: AtomicU64,
    /// Unsupervised promotions performed by the failure detector.
    repl_failovers_total: AtomicU64,
    /// Times the failure detector suspected the leader (missed
    /// heartbeats past the timeout); a suspicion may or may not end in
    /// a promotion.
    repl_suspicions_total: AtomicU64,
    /// Follower reconnection attempts after a broken stream.
    repl_reconnects_total: AtomicU64,
    /// Microseconds since the follower last heard from its leader
    /// (refreshed by the metrics handler; 0 on a primary).
    repl_heartbeat_age_us: AtomicU64,
    /// Batch-mode analysis wall time, cold (cache miss → full
    /// pipeline) vs hit.
    analysis_cold_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    analysis_cold_sum_us: AtomicU64,
    analysis_cold_count: AtomicU64,
    analysis_hit_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    analysis_hit_sum_us: AtomicU64,
    analysis_hit_count: AtomicU64,
    /// Streaming-mode analysis wall time (report assembled from the
    /// engine's running counters, no record replay).
    analysis_streaming_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    analysis_streaming_sum_us: AtomicU64,
    analysis_streaming_count: AtomicU64,
    /// Per-finish streaming engine updates (counter doubles as the
    /// histogram count).
    streaming_update_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    streaming_update_sum_us: AtomicU64,
    streaming_update_count: AtomicU64,
    /// Work-stealing pool gauges, refreshed from [`mine_pool::stats`]
    /// by the metrics handler like the replication gauges.
    pool_workers: AtomicU64,
    pool_steals_total: AtomicU64,
    /// Adaptive (CAT) sitting lifecycle counters.
    adaptive_sessions_started: AtomicU64,
    adaptive_sessions_finished: AtomicU64,
    /// Adaptive steps (answer → re-estimate → next-item selection); the
    /// counter doubles as the histogram count.
    adaptive_steps_total: AtomicU64,
    adaptive_step_buckets: [AtomicU64; LATENCY_BUCKETS_US.len() + 1],
    adaptive_step_sum_us: AtomicU64,
    /// Completed anti-entropy scrub passes.
    scrub_passes_total: AtomicU64,
    /// Sealed segments a scrub pass found corrupt (CRC/framing/sequence
    /// damage or range-hash divergence from the leader).
    scrub_corrupt_segments_total: AtomicU64,
    /// Segments quarantined and re-fetched from a healthy peer.
    repair_segments_total: AtomicU64,
    /// Storage health gauge: 1 while the local WAL refuses writes
    /// (degraded read-only serving), 0 while healthy.
    storage_degraded: AtomicU64,
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request.
    pub fn record(&self, route: Route, status: u16, latency: Duration) {
        self.requests[route.index()].fetch_add(1, Ordering::Relaxed);
        match status {
            200..=299 => self.status_2xx.fetch_add(1, Ordering::Relaxed),
            500..=599 => self.status_5xx.fetch_add(1, Ordering::Relaxed),
            _ => self.status_4xx.fetch_add(1, Ordering::Relaxed),
        };
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.latency_buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.latency_sum_us.fetch_add(us, Ordering::Relaxed);
        self.latency_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a session start.
    pub fn session_started(&self) {
        self.sessions_started.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts a session finish.
    pub fn session_finished(&self) {
        self.sessions_finished.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one shed connection/request, recording the `Retry-After`
    /// it was sent away with.
    pub fn shed(&self, retry_after_secs: u64) {
        self.shed_total.fetch_add(1, Ordering::Relaxed);
        self.retry_after_secs
            .store(retry_after_secs, Ordering::Relaxed);
    }

    /// Counts one rate-limited connection, recording its `Retry-After`.
    pub fn rate_limited(&self, retry_after_secs: u64) {
        self.rate_limited_total.fetch_add(1, Ordering::Relaxed);
        self.retry_after_secs
            .store(retry_after_secs, Ordering::Relaxed);
    }

    /// A connection entered the accept queue.
    pub fn queue_enter(&self) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// A worker took a connection off the accept queue.
    pub fn queue_exit(&self) {
        self.queue_depth.fetch_sub(1, Ordering::Relaxed);
    }

    /// Current accept-queue depth.
    #[must_use]
    pub fn queue_depth(&self) -> u64 {
        self.queue_depth.load(Ordering::Relaxed)
    }

    /// A request started being handled.
    pub fn inflight_enter(&self) {
        self.inflight_requests.fetch_add(1, Ordering::Relaxed);
    }

    /// A request finished (response written or connection gone).
    pub fn inflight_exit(&self) {
        self.inflight_requests.fetch_sub(1, Ordering::Relaxed);
    }

    /// Requests currently being handled.
    #[must_use]
    pub fn inflight(&self) -> u64 {
        self.inflight_requests.load(Ordering::Relaxed)
    }

    /// Publishes the drain-state gauge (see
    /// [`crate::drain::DrainState::as_gauge`]).
    pub fn set_drain_state(&self, gauge: u64) {
        self.drain_state.store(gauge, Ordering::Relaxed);
    }

    /// Publishes the replication gauges in one call (refreshed by the
    /// metrics handler from the live replication state).
    pub fn set_repl(&self, role: u64, epoch: u64, last_applied: u64, lag: u64, followers: u64) {
        self.repl_role.store(role, Ordering::Relaxed);
        self.repl_epoch.store(epoch, Ordering::Relaxed);
        self.repl_last_applied_seq
            .store(last_applied, Ordering::Relaxed);
        self.repl_lag.store(lag, Ordering::Relaxed);
        self.repl_followers.store(followers, Ordering::Relaxed);
    }

    /// Counts one quorum-ack wait that timed out.
    pub fn quorum_timeout(&self) {
        self.repl_quorum_timeouts_total
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one write redirected to the leader with `421`.
    pub fn redirected(&self) {
        self.redirected_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one unsupervised promotion by the failure detector.
    pub fn failover(&self) {
        self.repl_failovers_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one leader suspicion (heartbeat silence past the
    /// detection timeout).
    pub fn suspicion(&self) {
        self.repl_suspicions_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one follower reconnection attempt.
    pub fn repl_reconnect(&self) {
        self.repl_reconnects_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes how long ago the follower last heard from its leader
    /// (microseconds; 0 on a primary).
    pub fn set_repl_heartbeat_age(&self, age_us: u64) {
        self.repl_heartbeat_age_us.store(age_us, Ordering::Relaxed);
    }

    /// Records one batch-mode analysis: `cache_hit` distinguishes a
    /// cached report from a cold run of the full pipeline.
    pub fn record_analysis(&self, cache_hit: bool, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        let bucket = bucket_index(us);
        let (buckets, sum, count) = if cache_hit {
            (
                &self.analysis_hit_buckets,
                &self.analysis_hit_sum_us,
                &self.analysis_hit_count,
            )
        } else {
            (
                &self.analysis_cold_buckets,
                &self.analysis_cold_sum_us,
                &self.analysis_cold_count,
            )
        };
        buckets[bucket].fetch_add(1, Ordering::Relaxed);
        sum.fetch_add(us, Ordering::Relaxed);
        count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one streaming-mode analysis read (report assembled from
    /// the engine's counters).
    pub fn record_streaming_analysis(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.analysis_streaming_buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.analysis_streaming_sum_us
            .fetch_add(us, Ordering::Relaxed);
        self.analysis_streaming_count
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one finish-time streaming engine update.
    pub fn record_streaming_update(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.streaming_update_buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.streaming_update_sum_us
            .fetch_add(us, Ordering::Relaxed);
        self.streaming_update_count.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an adaptive sitting start.
    pub fn adaptive_session_started(&self) {
        self.adaptive_sessions_started
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Counts an adaptive sitting finish.
    pub fn adaptive_session_closed(&self) {
        self.adaptive_sessions_finished
            .fetch_add(1, Ordering::Relaxed);
    }

    /// Records one adaptive step: grade, ability re-estimate, and
    /// next-item selection for a single answer.
    pub fn record_adaptive_step(&self, latency: Duration) {
        let us = u64::try_from(latency.as_micros()).unwrap_or(u64::MAX);
        self.adaptive_step_buckets[bucket_index(us)].fetch_add(1, Ordering::Relaxed);
        self.adaptive_step_sum_us.fetch_add(us, Ordering::Relaxed);
        self.adaptive_steps_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one completed scrub pass.
    pub fn scrub_pass(&self) {
        self.scrub_passes_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts `segments` sealed segments found corrupt by a scrub pass.
    pub fn scrub_corruption(&self, segments: u64) {
        self.scrub_corrupt_segments_total
            .fetch_add(segments, Ordering::Relaxed);
    }

    /// Counts one segment quarantined and repaired from a peer.
    pub fn repair_segment(&self) {
        self.repair_segments_total.fetch_add(1, Ordering::Relaxed);
    }

    /// Publishes the storage health gauge: `true` while the WAL is
    /// refusing writes and the node serves degraded (read-only).
    pub fn set_storage_degraded(&self, degraded: bool) {
        self.storage_degraded
            .store(u64::from(degraded), Ordering::Relaxed);
    }

    /// Publishes the work-stealing pool gauges (refreshed by the
    /// metrics handler from [`mine_pool::stats`]).
    pub fn set_pool(&self, workers: u64, steals: u64) {
        self.pool_workers.store(workers, Ordering::Relaxed);
        self.pool_steals_total.store(steals, Ordering::Relaxed);
    }

    /// Takes a consistent-enough snapshot for rendering.
    #[must_use]
    pub fn snapshot(&self, active_sessions: usize, adaptive_active: usize) -> MetricsSnapshot {
        MetricsSnapshot {
            requests: Route::ALL
                .iter()
                .map(|route| {
                    (
                        route.label(),
                        self.requests[route.index()].load(Ordering::Relaxed),
                    )
                })
                .collect(),
            status_2xx: self.status_2xx.load(Ordering::Relaxed),
            status_4xx: self.status_4xx.load(Ordering::Relaxed),
            status_5xx: self.status_5xx.load(Ordering::Relaxed),
            latency_buckets: self
                .latency_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            latency_sum_us: self.latency_sum_us.load(Ordering::Relaxed),
            latency_count: self.latency_count.load(Ordering::Relaxed),
            sessions_started: self.sessions_started.load(Ordering::Relaxed),
            sessions_finished: self.sessions_finished.load(Ordering::Relaxed),
            active_sessions,
            shed_total: self.shed_total.load(Ordering::Relaxed),
            rate_limited_total: self.rate_limited_total.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            inflight_requests: self.inflight_requests.load(Ordering::Relaxed),
            drain_state: self.drain_state.load(Ordering::Relaxed),
            retry_after_secs: self.retry_after_secs.load(Ordering::Relaxed),
            repl_role: self.repl_role.load(Ordering::Relaxed),
            repl_epoch: self.repl_epoch.load(Ordering::Relaxed),
            repl_last_applied_seq: self.repl_last_applied_seq.load(Ordering::Relaxed),
            repl_lag: self.repl_lag.load(Ordering::Relaxed),
            repl_followers: self.repl_followers.load(Ordering::Relaxed),
            repl_quorum_timeouts_total: self.repl_quorum_timeouts_total.load(Ordering::Relaxed),
            redirected_total: self.redirected_total.load(Ordering::Relaxed),
            repl_failovers_total: self.repl_failovers_total.load(Ordering::Relaxed),
            repl_suspicions_total: self.repl_suspicions_total.load(Ordering::Relaxed),
            repl_reconnects_total: self.repl_reconnects_total.load(Ordering::Relaxed),
            repl_heartbeat_age_us: self.repl_heartbeat_age_us.load(Ordering::Relaxed),
            analysis_cold_buckets: self
                .analysis_cold_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            analysis_cold_sum_us: self.analysis_cold_sum_us.load(Ordering::Relaxed),
            analysis_cold_count: self.analysis_cold_count.load(Ordering::Relaxed),
            analysis_hit_buckets: self
                .analysis_hit_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            analysis_hit_sum_us: self.analysis_hit_sum_us.load(Ordering::Relaxed),
            analysis_hit_count: self.analysis_hit_count.load(Ordering::Relaxed),
            analysis_streaming_buckets: self
                .analysis_streaming_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            analysis_streaming_sum_us: self.analysis_streaming_sum_us.load(Ordering::Relaxed),
            analysis_streaming_count: self.analysis_streaming_count.load(Ordering::Relaxed),
            streaming_update_buckets: self
                .streaming_update_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            streaming_update_sum_us: self.streaming_update_sum_us.load(Ordering::Relaxed),
            streaming_updates_total: self.streaming_update_count.load(Ordering::Relaxed),
            pool_workers: self.pool_workers.load(Ordering::Relaxed),
            pool_steals_total: self.pool_steals_total.load(Ordering::Relaxed),
            adaptive_sessions_started: self.adaptive_sessions_started.load(Ordering::Relaxed),
            adaptive_sessions_finished: self.adaptive_sessions_finished.load(Ordering::Relaxed),
            adaptive_sessions_active: adaptive_active,
            adaptive_steps_total: self.adaptive_steps_total.load(Ordering::Relaxed),
            adaptive_step_buckets: self
                .adaptive_step_buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            adaptive_step_sum_us: self.adaptive_step_sum_us.load(Ordering::Relaxed),
            scrub_passes_total: self.scrub_passes_total.load(Ordering::Relaxed),
            scrub_corrupt_segments_total: self.scrub_corrupt_segments_total.load(Ordering::Relaxed),
            repair_segments_total: self.repair_segments_total.load(Ordering::Relaxed),
            storage_degraded: self.storage_degraded.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of every counter, renderable as JSON.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricsSnapshot {
    /// Requests served per route label.
    pub requests: Vec<(&'static str, u64)>,
    /// 2xx responses.
    pub status_2xx: u64,
    /// 4xx responses.
    pub status_4xx: u64,
    /// 5xx responses.
    pub status_5xx: u64,
    /// Latency histogram counts; index i ≤ `LATENCY_BUCKETS_US[i]` µs,
    /// last entry is the overflow bucket.
    pub latency_buckets: Vec<u64>,
    /// Sum of request latencies in microseconds.
    pub latency_sum_us: u64,
    /// Number of latency observations.
    pub latency_count: u64,
    /// Sessions ever started.
    pub sessions_started: u64,
    /// Sessions ever finished.
    pub sessions_finished: u64,
    /// Sessions currently resident in the registry.
    pub active_sessions: usize,
    /// Connections/requests shed (full queue or draining).
    pub shed_total: u64,
    /// Connections shed by per-peer rate limiting.
    pub rate_limited_total: u64,
    /// Accept-queue depth at snapshot time.
    pub queue_depth: u64,
    /// Requests being handled at snapshot time.
    pub inflight_requests: u64,
    /// Drain state: 0 running, 1 draining, 2 stopped.
    pub drain_state: u64,
    /// Last advertised `Retry-After` seconds (0 = never shed).
    pub retry_after_secs: u64,
    /// Replication role: 0 primary, 1 follower, 2 candidate.
    pub repl_role: u64,
    /// Durable replication epoch.
    pub repl_epoch: u64,
    /// Highest journal sequence applied locally.
    pub repl_last_applied_seq: u64,
    /// Replication lag in records (see [`Metrics::set_repl`]).
    pub repl_lag: u64,
    /// Followers currently streaming from this node.
    pub repl_followers: u64,
    /// Quorum-ack waits that timed out.
    pub repl_quorum_timeouts_total: u64,
    /// Writes refused with `421` and pointed at the leader.
    pub redirected_total: u64,
    /// Unsupervised promotions performed by the failure detector.
    pub repl_failovers_total: u64,
    /// Leader suspicions raised by the failure detector.
    pub repl_suspicions_total: u64,
    /// Follower reconnection attempts after a broken stream.
    pub repl_reconnects_total: u64,
    /// Microseconds since the follower last heard from its leader
    /// (0 on a primary).
    pub repl_heartbeat_age_us: u64,
    /// Cold-analysis duration histogram (same bucket bounds as
    /// [`LATENCY_BUCKETS_US`], last entry is the overflow bucket).
    pub analysis_cold_buckets: Vec<u64>,
    /// Sum of cold-analysis durations in microseconds.
    pub analysis_cold_sum_us: u64,
    /// Number of cold analyses.
    pub analysis_cold_count: u64,
    /// Cache-hit analysis duration histogram.
    pub analysis_hit_buckets: Vec<u64>,
    /// Sum of cache-hit analysis durations in microseconds.
    pub analysis_hit_sum_us: u64,
    /// Number of cache-hit analyses.
    pub analysis_hit_count: u64,
    /// Streaming-mode analysis duration histogram.
    pub analysis_streaming_buckets: Vec<u64>,
    /// Sum of streaming-mode analysis durations in microseconds.
    pub analysis_streaming_sum_us: u64,
    /// Number of streaming-mode analyses.
    pub analysis_streaming_count: u64,
    /// Finish-time streaming update duration histogram.
    pub streaming_update_buckets: Vec<u64>,
    /// Sum of streaming update durations in microseconds.
    pub streaming_update_sum_us: u64,
    /// Finish-time streaming engine updates ever applied.
    pub streaming_updates_total: u64,
    /// Worker threads spawned by the work-stealing pool.
    pub pool_workers: u64,
    /// Tasks executed by a worker other than the one that queued them.
    pub pool_steals_total: u64,
    /// Adaptive (CAT) sittings ever started.
    pub adaptive_sessions_started: u64,
    /// Adaptive sittings ever finished.
    pub adaptive_sessions_finished: u64,
    /// Adaptive sittings currently resident in the registry.
    pub adaptive_sessions_active: usize,
    /// Adaptive steps ever served (doubles as the histogram count).
    pub adaptive_steps_total: u64,
    /// Adaptive step duration histogram (same bucket bounds as
    /// [`LATENCY_BUCKETS_US`], last entry is the overflow bucket).
    pub adaptive_step_buckets: Vec<u64>,
    /// Sum of adaptive step durations in microseconds.
    pub adaptive_step_sum_us: u64,
    /// Completed anti-entropy scrub passes.
    pub scrub_passes_total: u64,
    /// Sealed segments found corrupt by scrub passes.
    pub scrub_corrupt_segments_total: u64,
    /// Segments quarantined and repaired from a healthy peer.
    pub repair_segments_total: u64,
    /// Storage health: 1 degraded (read-only), 0 healthy.
    pub storage_degraded: u64,
}

impl Serialize for MetricsSnapshot {
    /// The tree is parsed back from [`Serialize::serialize_into`]'s
    /// bytes, so the two forms cannot disagree; `/metrics` never asks
    /// for it.
    fn to_value(&self) -> Value {
        serde_json::from_str(&serde_json::to_string(self).expect("metrics serialize"))
            .expect("metrics JSON parses")
    }

    fn serialize_into(&self, out: &mut JsonWriter) {
        let mut body = out.object();
        let mut requests = body.key("requests").object();
        for (label, count) in &self.requests {
            requests.field(label, count);
        }
        requests.end();
        body.field("status_2xx", &self.status_2xx);
        body.field("status_4xx", &self.status_4xx);
        body.field("status_5xx", &self.status_5xx);
        write_histogram(
            body.key("latency_us"),
            &self.latency_buckets,
            self.latency_sum_us,
            self.latency_count,
        );
        let mut analysis = body.key("analysis_duration_us").object();
        write_histogram(
            analysis.key("cold"),
            &self.analysis_cold_buckets,
            self.analysis_cold_sum_us,
            self.analysis_cold_count,
        );
        write_histogram(
            analysis.key("hit"),
            &self.analysis_hit_buckets,
            self.analysis_hit_sum_us,
            self.analysis_hit_count,
        );
        write_histogram(
            analysis.key("streaming"),
            &self.analysis_streaming_buckets,
            self.analysis_streaming_sum_us,
            self.analysis_streaming_count,
        );
        analysis.end();
        write_histogram(
            body.key("streaming_update_us"),
            &self.streaming_update_buckets,
            self.streaming_update_sum_us,
            self.streaming_updates_total,
        );
        body.field("streaming_updates_total", &self.streaming_updates_total);
        body.field("pool_workers", &self.pool_workers);
        body.field("pool_steals_total", &self.pool_steals_total);
        write_histogram(
            body.key("adaptive_step_us"),
            &self.adaptive_step_buckets,
            self.adaptive_step_sum_us,
            self.adaptive_steps_total,
        );
        body.field("adaptive_steps_total", &self.adaptive_steps_total);
        body.field("adaptive_sessions_started", &self.adaptive_sessions_started);
        body.field(
            "adaptive_sessions_finished",
            &self.adaptive_sessions_finished,
        );
        body.field("adaptive_sessions_active", &self.adaptive_sessions_active);
        body.field("sessions_started", &self.sessions_started);
        body.field("sessions_finished", &self.sessions_finished);
        body.field("active_sessions", &self.active_sessions);
        body.field("shed_total", &self.shed_total);
        body.field("rate_limited_total", &self.rate_limited_total);
        body.field("queue_depth", &self.queue_depth);
        body.field("inflight_requests", &self.inflight_requests);
        body.field("drain_state", &self.drain_state);
        body.field("retry_after_secs", &self.retry_after_secs);
        body.field("repl_role", &self.repl_role);
        body.field("repl_epoch", &self.repl_epoch);
        body.field("repl_last_applied_seq", &self.repl_last_applied_seq);
        body.field("repl_lag", &self.repl_lag);
        body.field("repl_followers", &self.repl_followers);
        body.field(
            "repl_quorum_timeouts_total",
            &self.repl_quorum_timeouts_total,
        );
        body.field("redirected_total", &self.redirected_total);
        body.field("repl_failovers_total", &self.repl_failovers_total);
        body.field("repl_suspicions_total", &self.repl_suspicions_total);
        body.field("repl_reconnects_total", &self.repl_reconnects_total);
        body.field("repl_heartbeat_age_us", &self.repl_heartbeat_age_us);
        body.field("scrub_passes_total", &self.scrub_passes_total);
        body.field(
            "scrub_corrupt_segments_total",
            &self.scrub_corrupt_segments_total,
        );
        body.field("repair_segments_total", &self.repair_segments_total);
        body.field("storage_degraded", &self.storage_degraded);
        body.end();
    }
}

/// `{"buckets":[{"le_us":"100","count":n},…,{"le_us":"+inf",…}],
/// "sum":…,"count":…}` — one histogram of the JSON snapshot.
fn write_histogram(out: &mut JsonWriter, bucket_counts: &[u64], sum_us: u64, count: u64) {
    let mut histogram = out.object();
    let buckets = histogram.key("buckets");
    buckets.raw("[");
    for (i, bucket_count) in bucket_counts.iter().enumerate() {
        if i > 0 {
            buckets.raw(",");
        }
        let mut bucket = buckets.object();
        let le = bucket.key("le_us");
        match LATENCY_BUCKETS_US.get(i) {
            Some(bound) => {
                le.raw("\"");
                le.u64(*bound);
                le.raw("\"");
            }
            None => le.str("+inf"),
        }
        bucket.field("count", bucket_count);
        bucket.end();
    }
    buckets.raw("]");
    histogram.field("sum", &sum_us);
    histogram.field("count", &count);
    histogram.end();
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# TYPE` lines, one sample per line, histogram
    /// buckets with *cumulative* counts and `le` bounds in seconds.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(2048);

        out.push_str("# HELP mine_requests_total Requests served, by route.\n");
        out.push_str("# TYPE mine_requests_total counter\n");
        for (label, count) in &self.requests {
            out.push_str(&format!(
                "mine_requests_total{{route=\"{label}\"}} {count}\n"
            ));
        }

        out.push_str("# HELP mine_responses_total Responses sent, by status class.\n");
        out.push_str("# TYPE mine_responses_total counter\n");
        for (class, count) in [
            ("2xx", self.status_2xx),
            ("4xx", self.status_4xx),
            ("5xx", self.status_5xx),
        ] {
            out.push_str(&format!(
                "mine_responses_total{{class=\"{class}\"}} {count}\n"
            ));
        }

        out.push_str("# HELP mine_request_duration_seconds Request latency.\n");
        out.push_str("# TYPE mine_request_duration_seconds histogram\n");
        // The internal buckets hold per-bucket counts; Prometheus
        // histogram buckets are cumulative.
        let mut cumulative = 0_u64;
        for (i, count) in self.latency_buckets.iter().enumerate() {
            cumulative += count;
            let le = LATENCY_BUCKETS_US.get(i).map_or_else(
                || "+Inf".to_string(),
                |&us| format!("{}", us as f64 / 1_000_000.0),
            );
            out.push_str(&format!(
                "mine_request_duration_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "mine_request_duration_seconds_sum {}\n",
            self.latency_sum_us as f64 / 1_000_000.0
        ));
        out.push_str(&format!(
            "mine_request_duration_seconds_count {}\n",
            self.latency_count
        ));

        out.push_str(
            "# HELP mine_analysis_duration_seconds Analysis wall time by mode (batch runs carry the cache outcome).\n",
        );
        out.push_str("# TYPE mine_analysis_duration_seconds histogram\n");
        for (labels, buckets, sum_us, count) in [
            (
                "mode=\"batch\",cache=\"cold\"",
                &self.analysis_cold_buckets,
                self.analysis_cold_sum_us,
                self.analysis_cold_count,
            ),
            (
                "mode=\"batch\",cache=\"hit\"",
                &self.analysis_hit_buckets,
                self.analysis_hit_sum_us,
                self.analysis_hit_count,
            ),
            (
                "mode=\"streaming\"",
                &self.analysis_streaming_buckets,
                self.analysis_streaming_sum_us,
                self.analysis_streaming_count,
            ),
        ] {
            let mut cumulative = 0_u64;
            for (i, bucket_count) in buckets.iter().enumerate() {
                cumulative += bucket_count;
                let le = LATENCY_BUCKETS_US.get(i).map_or_else(
                    || "+Inf".to_string(),
                    |&us| format!("{}", us as f64 / 1_000_000.0),
                );
                out.push_str(&format!(
                    "mine_analysis_duration_seconds_bucket{{{labels},le=\"{le}\"}} {cumulative}\n"
                ));
            }
            out.push_str(&format!(
                "mine_analysis_duration_seconds_sum{{{labels}}} {}\n",
                sum_us as f64 / 1_000_000.0
            ));
            out.push_str(&format!(
                "mine_analysis_duration_seconds_count{{{labels}}} {count}\n"
            ));
        }

        out.push_str(
            "# HELP mine_streaming_update_seconds Finish-time streaming statistics update.\n",
        );
        out.push_str("# TYPE mine_streaming_update_seconds histogram\n");
        let mut cumulative = 0_u64;
        for (i, bucket_count) in self.streaming_update_buckets.iter().enumerate() {
            cumulative += bucket_count;
            let le = LATENCY_BUCKETS_US.get(i).map_or_else(
                || "+Inf".to_string(),
                |&us| format!("{}", us as f64 / 1_000_000.0),
            );
            out.push_str(&format!(
                "mine_streaming_update_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "mine_streaming_update_seconds_sum {}\n",
            self.streaming_update_sum_us as f64 / 1_000_000.0
        ));
        out.push_str(&format!(
            "mine_streaming_update_seconds_count {}\n",
            self.streaming_updates_total
        ));
        out.push_str(
            "# HELP mine_streaming_updates_total Finish-time streaming engine updates applied.\n",
        );
        out.push_str("# TYPE mine_streaming_updates_total counter\n");
        out.push_str(&format!(
            "mine_streaming_updates_total {}\n",
            self.streaming_updates_total
        ));

        out.push_str(
            "# HELP mine_adaptive_step_seconds Adaptive step: grade, re-estimate, next item.\n",
        );
        out.push_str("# TYPE mine_adaptive_step_seconds histogram\n");
        let mut cumulative = 0_u64;
        for (i, bucket_count) in self.adaptive_step_buckets.iter().enumerate() {
            cumulative += bucket_count;
            let le = LATENCY_BUCKETS_US.get(i).map_or_else(
                || "+Inf".to_string(),
                |&us| format!("{}", us as f64 / 1_000_000.0),
            );
            out.push_str(&format!(
                "mine_adaptive_step_seconds_bucket{{le=\"{le}\"}} {cumulative}\n"
            ));
        }
        out.push_str(&format!(
            "mine_adaptive_step_seconds_sum {}\n",
            self.adaptive_step_sum_us as f64 / 1_000_000.0
        ));
        out.push_str(&format!(
            "mine_adaptive_step_seconds_count {}\n",
            self.adaptive_steps_total
        ));
        out.push_str("# HELP mine_adaptive_steps_total Adaptive steps ever served.\n");
        out.push_str("# TYPE mine_adaptive_steps_total counter\n");
        out.push_str(&format!(
            "mine_adaptive_steps_total {}\n",
            self.adaptive_steps_total
        ));

        for (name, help, value) in [
            (
                "mine_sessions_started_total",
                "Sessions ever started.",
                self.sessions_started,
            ),
            (
                "mine_sessions_finished_total",
                "Sessions ever finished.",
                self.sessions_finished,
            ),
            (
                "mine_adaptive_sessions_started_total",
                "Adaptive (CAT) sittings ever started.",
                self.adaptive_sessions_started,
            ),
            (
                "mine_adaptive_sessions_finished_total",
                "Adaptive (CAT) sittings ever finished.",
                self.adaptive_sessions_finished,
            ),
            (
                "mine_shed_total",
                "Connections and requests shed with 503 (full queue or draining).",
                self.shed_total,
            ),
            (
                "mine_rate_limited_total",
                "Connections shed by per-peer token-bucket rate limiting.",
                self.rate_limited_total,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
        for (name, help, value) in [
            (
                "mine_active_sessions",
                "Sessions currently resident in the registry.",
                self.active_sessions as u64,
            ),
            (
                "mine_adaptive_sessions_active",
                "Adaptive (CAT) sittings currently resident in the registry.",
                self.adaptive_sessions_active as u64,
            ),
            (
                "mine_queue_depth",
                "Accepted connections waiting for a worker.",
                self.queue_depth,
            ),
            (
                "mine_inflight_requests",
                "Requests currently being handled.",
                self.inflight_requests,
            ),
            (
                "mine_drain_state",
                "Lifecycle: 0 running, 1 draining, 2 stopped.",
                self.drain_state,
            ),
            (
                "mine_retry_after_seconds",
                "Retry-After seconds most recently advertised on a shed response.",
                self.retry_after_secs,
            ),
            (
                "mine_pool_workers",
                "Worker threads spawned by the work-stealing analysis pool.",
                self.pool_workers,
            ),
            (
                "mine_storage_degraded",
                "Storage health: 1 while the WAL refuses writes (degraded read-only), 0 healthy.",
                self.storage_degraded,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {value}\n"));
        }

        out.push_str("# HELP mine_repl_role Replication role (one-hot).\n");
        out.push_str("# TYPE mine_repl_role gauge\n");
        for (index, role) in ["primary", "follower", "candidate"].iter().enumerate() {
            let hot = u64::from(self.repl_role == index as u64);
            out.push_str(&format!("mine_repl_role{{role=\"{role}\"}} {hot}\n"));
        }
        for (name, help, value) in [
            (
                "mine_repl_epoch",
                "Durable replication epoch (bumped by promotion).",
                self.repl_epoch,
            ),
            (
                "mine_repl_last_applied_seq",
                "Highest journal sequence applied locally.",
                self.repl_last_applied_seq,
            ),
            (
                "mine_repl_lag",
                "Replication lag in records (primary: head minus slowest ack; follower: leader head minus applied).",
                self.repl_lag,
            ),
            (
                "mine_repl_followers",
                "Followers currently streaming from this node.",
                self.repl_followers,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} gauge\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
        out.push_str(
            "# HELP mine_repl_heartbeat_age_seconds Time since the follower last heard from its leader (0 on a primary).\n",
        );
        out.push_str("# TYPE mine_repl_heartbeat_age_seconds gauge\n");
        out.push_str(&format!(
            "mine_repl_heartbeat_age_seconds {}\n",
            self.repl_heartbeat_age_us as f64 / 1_000_000.0
        ));
        for (name, help, value) in [
            (
                "mine_repl_quorum_timeouts_total",
                "Quorum-ack waits that timed out (write proceeded leader-only).",
                self.repl_quorum_timeouts_total,
            ),
            (
                "mine_redirected_total",
                "Writes refused with 421 and pointed at the leader.",
                self.redirected_total,
            ),
            (
                "mine_pool_steals_total",
                "Pool tasks executed by a worker other than the one that queued them.",
                self.pool_steals_total,
            ),
            (
                "mine_repl_failovers_total",
                "Unsupervised promotions performed by the failure detector.",
                self.repl_failovers_total,
            ),
            (
                "mine_repl_suspicions_total",
                "Leader suspicions raised by the failure detector.",
                self.repl_suspicions_total,
            ),
            (
                "mine_repl_reconnects_total",
                "Follower reconnection attempts after a broken stream.",
                self.repl_reconnects_total,
            ),
            (
                "mine_scrub_passes_total",
                "Completed anti-entropy scrub passes.",
                self.scrub_passes_total,
            ),
            (
                "mine_scrub_corrupt_segments_total",
                "Sealed segments a scrub pass found corrupt.",
                self.scrub_corrupt_segments_total,
            ),
            (
                "mine_repair_segments_total",
                "Segments quarantined and repaired from a healthy peer.",
                self.repair_segments_total,
            ),
        ] {
            out.push_str(&format!("# HELP {name} {help}\n# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {value}\n"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_fills_counters_and_buckets() {
        let metrics = Metrics::new();
        metrics.record(Route::Healthz, 200, Duration::from_micros(50));
        metrics.record(Route::Answer, 422, Duration::from_micros(300));
        metrics.record(Route::Analysis, 500, Duration::from_secs(2));
        metrics.session_started();
        metrics.session_finished();

        let snapshot = metrics.snapshot(3, 0);
        let by_label: std::collections::HashMap<_, _> = snapshot.requests.iter().copied().collect();
        assert_eq!(by_label["healthz"], 1);
        assert_eq!(by_label["answer"], 1);
        assert_eq!(by_label["analysis"], 1);
        assert_eq!(by_label["session_start"], 0);
        assert_eq!(snapshot.status_2xx, 1);
        assert_eq!(snapshot.status_4xx, 1);
        assert_eq!(snapshot.status_5xx, 1);
        assert_eq!(snapshot.latency_count, 3);
        // 50 µs lands in the first bucket, 300 µs in the ≤500 bucket,
        // 2 s in the overflow bucket.
        assert_eq!(snapshot.latency_buckets[0], 1);
        assert_eq!(snapshot.latency_buckets[2], 1);
        assert_eq!(*snapshot.latency_buckets.last().unwrap(), 1);
        assert_eq!(snapshot.sessions_started, 1);
        assert_eq!(snapshot.sessions_finished, 1);
        assert_eq!(snapshot.active_sessions, 3);
    }

    #[test]
    fn prometheus_rendering_has_type_lines_and_cumulative_buckets() {
        let metrics = Metrics::new();
        metrics.record(Route::Healthz, 200, Duration::from_micros(50));
        metrics.record(Route::Answer, 200, Duration::from_micros(80));
        metrics.record(Route::Answer, 422, Duration::from_micros(300));
        metrics.record(Route::Analysis, 500, Duration::from_secs(2));
        let text = metrics.snapshot(2, 0).to_prometheus();

        assert!(text.contains("# TYPE mine_requests_total counter"));
        assert!(text.contains("mine_requests_total{route=\"answer\"} 2"));
        assert!(text.contains("# TYPE mine_request_duration_seconds histogram"));
        // Two 50/80 µs observations land in the first (≤100 µs = 1e-4 s)
        // bucket; cumulative counts keep growing monotonically.
        assert!(text.contains("mine_request_duration_seconds_bucket{le=\"0.0001\"} 2"));
        assert!(text.contains("mine_request_duration_seconds_bucket{le=\"0.0005\"} 3"));
        assert!(text.contains("mine_request_duration_seconds_bucket{le=\"1\"} 3"));
        assert!(text.contains("mine_request_duration_seconds_bucket{le=\"+Inf\"} 4"));
        assert!(text.contains("mine_request_duration_seconds_count 4"));
        assert!(text.contains("mine_responses_total{class=\"5xx\"} 1"));
        assert!(text.contains("# TYPE mine_active_sessions gauge"));
        assert!(text.contains("mine_active_sessions 2"));
        assert!(text.ends_with('\n'));
    }

    #[test]
    fn overload_gauges_and_counters_render_everywhere() {
        let metrics = Metrics::new();
        metrics.shed(2);
        metrics.shed(3);
        metrics.rate_limited(1);
        metrics.queue_enter();
        metrics.queue_enter();
        metrics.queue_exit();
        metrics.inflight_enter();
        metrics.set_drain_state(1);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.shed_total, 2);
        assert_eq!(snapshot.rate_limited_total, 1);
        assert_eq!(snapshot.queue_depth, 1);
        assert_eq!(snapshot.inflight_requests, 1);
        assert_eq!(snapshot.drain_state, 1);
        // The gauge remembers the most recent advertisement.
        assert_eq!(snapshot.retry_after_secs, 1);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_shed_total counter"));
        assert!(text.contains("mine_shed_total 2"));
        assert!(text.contains("mine_rate_limited_total 1"));
        assert!(text.contains("# TYPE mine_queue_depth gauge"));
        assert!(text.contains("mine_queue_depth 1"));
        assert!(text.contains("mine_drain_state 1"));
        assert!(text.contains("mine_inflight_requests 1"));
        assert!(text.contains("mine_retry_after_seconds 1"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("shed_total").unwrap().kind(), "number");
        assert_eq!(value.get("drain_state").unwrap().kind(), "number");
        assert_eq!(value.get("queue_depth").unwrap().kind(), "number");
    }

    #[test]
    fn repl_gauges_render_one_hot_role_and_counters() {
        let metrics = Metrics::new();
        metrics.set_repl(1, 3, 41, 2, 0);
        metrics.quorum_timeout();
        metrics.redirected();
        metrics.redirected();
        metrics.suspicion();
        metrics.suspicion();
        metrics.failover();
        metrics.repl_reconnect();
        metrics.repl_reconnect();
        metrics.repl_reconnect();
        metrics.set_repl_heartbeat_age(2_500_000);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.repl_role, 1);
        assert_eq!(snapshot.repl_epoch, 3);
        assert_eq!(snapshot.repl_last_applied_seq, 41);
        assert_eq!(snapshot.repl_lag, 2);
        assert_eq!(snapshot.repl_quorum_timeouts_total, 1);
        assert_eq!(snapshot.redirected_total, 2);
        assert_eq!(snapshot.repl_suspicions_total, 2);
        assert_eq!(snapshot.repl_failovers_total, 1);
        assert_eq!(snapshot.repl_reconnects_total, 3);
        assert_eq!(snapshot.repl_heartbeat_age_us, 2_500_000);

        let text = snapshot.to_prometheus();
        assert!(text.contains("mine_repl_role{role=\"primary\"} 0"));
        assert!(text.contains("mine_repl_role{role=\"follower\"} 1"));
        assert!(text.contains("mine_repl_role{role=\"candidate\"} 0"));
        assert!(text.contains("mine_repl_epoch 3"));
        assert!(text.contains("mine_repl_last_applied_seq 41"));
        assert!(text.contains("mine_repl_lag 2"));
        assert!(text.contains("mine_repl_quorum_timeouts_total 1"));
        assert!(text.contains("mine_redirected_total 2"));
        assert!(text.contains("# TYPE mine_repl_failovers_total counter"));
        assert!(text.contains("mine_repl_failovers_total 1"));
        assert!(text.contains("mine_repl_suspicions_total 2"));
        assert!(text.contains("mine_repl_reconnects_total 3"));
        assert!(text.contains("# TYPE mine_repl_heartbeat_age_seconds gauge"));
        assert!(text.contains("mine_repl_heartbeat_age_seconds 2.5"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("repl_epoch").unwrap().kind(), "number");
        assert_eq!(value.get("redirected_total").unwrap().kind(), "number");
        assert_eq!(value.get("repl_failovers_total").unwrap().kind(), "number");
        assert_eq!(value.get("repl_heartbeat_age_us").unwrap().kind(), "number");
    }

    #[test]
    fn scrub_and_degraded_metrics_render_everywhere() {
        let metrics = Metrics::new();
        metrics.scrub_pass();
        metrics.scrub_pass();
        metrics.scrub_corruption(3);
        metrics.repair_segment();
        metrics.set_storage_degraded(true);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.scrub_passes_total, 2);
        assert_eq!(snapshot.scrub_corrupt_segments_total, 3);
        assert_eq!(snapshot.repair_segments_total, 1);
        assert_eq!(snapshot.storage_degraded, 1);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_scrub_passes_total counter"));
        assert!(text.contains("mine_scrub_passes_total 2"));
        assert!(text.contains("mine_scrub_corrupt_segments_total 3"));
        assert!(text.contains("# TYPE mine_repair_segments_total counter"));
        assert!(text.contains("mine_repair_segments_total 1"));
        assert!(text.contains("# TYPE mine_storage_degraded gauge"));
        assert!(text.contains("mine_storage_degraded 1"));

        metrics.set_storage_degraded(false);
        let text = metrics.snapshot(0, 0).to_prometheus();
        assert!(text.contains("mine_storage_degraded 0"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("scrub_passes_total").unwrap().kind(), "number");
        assert_eq!(
            value.get("scrub_corrupt_segments_total").unwrap().kind(),
            "number"
        );
        assert_eq!(value.get("repair_segments_total").unwrap().kind(), "number");
        assert_eq!(value.get("storage_degraded").unwrap().kind(), "number");
    }

    #[test]
    fn analysis_histogram_is_labeled_by_mode_and_cache_outcome() {
        let metrics = Metrics::new();
        metrics.record_analysis(false, Duration::from_millis(20));
        metrics.record_analysis(false, Duration::from_millis(90));
        metrics.record_analysis(true, Duration::from_micros(40));
        metrics.record_streaming_analysis(Duration::from_micros(60));
        metrics.set_pool(4, 17);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.analysis_cold_count, 2);
        assert_eq!(snapshot.analysis_hit_count, 1);
        assert_eq!(snapshot.analysis_streaming_count, 1);
        // 40 µs lands in the first hit bucket; cold times stay separate.
        assert_eq!(snapshot.analysis_hit_buckets[0], 1);
        assert_eq!(snapshot.analysis_cold_buckets[0], 0);
        assert_eq!(snapshot.analysis_streaming_buckets[0], 1);
        assert_eq!(snapshot.pool_workers, 4);
        assert_eq!(snapshot.pool_steals_total, 17);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_analysis_duration_seconds histogram"));
        assert!(
            text.contains("mine_analysis_duration_seconds_count{mode=\"batch\",cache=\"cold\"} 2")
        );
        assert!(
            text.contains("mine_analysis_duration_seconds_count{mode=\"batch\",cache=\"hit\"} 1")
        );
        assert!(text.contains("mine_analysis_duration_seconds_count{mode=\"streaming\"} 1"));
        // Cumulative buckets per label: both cold observations are ≤ 0.1 s.
        assert!(text.contains(
            "mine_analysis_duration_seconds_bucket{mode=\"batch\",cache=\"cold\",le=\"0.1\"} 2"
        ));
        assert!(text.contains(
            "mine_analysis_duration_seconds_bucket{mode=\"batch\",cache=\"hit\",le=\"0.0001\"} 1"
        ));
        assert!(text
            .contains("mine_analysis_duration_seconds_bucket{mode=\"streaming\",le=\"0.0001\"} 1"));
        assert!(text.contains("# TYPE mine_pool_workers gauge"));
        assert!(text.contains("mine_pool_workers 4"));
        assert!(text.contains("# TYPE mine_pool_steals_total counter"));
        assert!(text.contains("mine_pool_steals_total 17"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        let analysis = value.get("analysis_duration_us").unwrap();
        assert!(analysis.get("cold").is_some());
        assert!(analysis.get("hit").is_some());
        assert!(analysis.get("streaming").is_some());
        assert_eq!(value.get("pool_workers").unwrap().kind(), "number");
        assert_eq!(value.get("pool_steals_total").unwrap().kind(), "number");
    }

    #[test]
    fn streaming_updates_fill_counter_and_histogram() {
        let metrics = Metrics::new();
        metrics.record_streaming_update(Duration::from_micros(80));
        metrics.record_streaming_update(Duration::from_micros(400));
        metrics.record_streaming_update(Duration::from_millis(30));

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.streaming_updates_total, 3);
        assert_eq!(snapshot.streaming_update_buckets[0], 1);
        assert_eq!(snapshot.streaming_update_buckets[2], 1);
        assert_eq!(snapshot.streaming_update_sum_us, 80 + 400 + 30_000);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_streaming_update_seconds histogram"));
        assert!(text.contains("mine_streaming_update_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("mine_streaming_update_seconds_bucket{le=\"+Inf\"} 3"));
        assert!(text.contains("mine_streaming_update_seconds_count 3"));
        assert!(text.contains("# TYPE mine_streaming_updates_total counter"));
        assert!(text.contains("mine_streaming_updates_total 3"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(
            value.get("streaming_updates_total").unwrap().kind(),
            "number"
        );
        assert!(value
            .get("streaming_update_us")
            .unwrap()
            .get("buckets")
            .is_some());
    }

    #[test]
    fn adaptive_counters_and_histogram_render_everywhere() {
        let metrics = Metrics::new();
        metrics.adaptive_session_started();
        metrics.adaptive_session_started();
        metrics.adaptive_session_closed();
        metrics.record_adaptive_step(Duration::from_micros(90));
        metrics.record_adaptive_step(Duration::from_millis(40));

        let snapshot = metrics.snapshot(0, 1);
        assert_eq!(snapshot.adaptive_sessions_started, 2);
        assert_eq!(snapshot.adaptive_sessions_finished, 1);
        assert_eq!(snapshot.adaptive_sessions_active, 1);
        assert_eq!(snapshot.adaptive_steps_total, 2);
        assert_eq!(snapshot.adaptive_step_buckets[0], 1);
        assert_eq!(snapshot.adaptive_step_sum_us, 90 + 40_000);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_adaptive_step_seconds histogram"));
        assert!(text.contains("mine_adaptive_step_seconds_bucket{le=\"0.0001\"} 1"));
        assert!(text.contains("mine_adaptive_step_seconds_bucket{le=\"+Inf\"} 2"));
        assert!(text.contains("mine_adaptive_steps_total 2"));
        assert!(text.contains("# TYPE mine_adaptive_sessions_active gauge"));
        assert!(text.contains("mine_adaptive_sessions_active 1"));
        assert!(text.contains("mine_adaptive_sessions_started_total 2"));
        assert!(text.contains("mine_adaptive_sessions_finished_total 1"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value.get("adaptive_steps_total").unwrap().kind(), "number");
        assert!(value
            .get("adaptive_step_us")
            .unwrap()
            .get("buckets")
            .is_some());
    }

    #[test]
    fn snapshot_renders_as_json() {
        let metrics = Metrics::new();
        metrics.record(Route::Metrics, 200, Duration::from_micros(10));
        let json = serde_json::to_string(&metrics.snapshot(0, 0)).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert!(value.get("requests").is_some());
        assert!(value.get("latency_us").is_some());
        assert!(value.get("active_sessions").is_some());
    }

    /// The JSON layout scrapers depend on: top-level keys in this exact
    /// order, each histogram as `buckets`/`sum`/`count` with string
    /// `le_us` bounds ending in `+inf`.
    #[test]
    fn snapshot_json_keeps_its_layout() {
        let metrics = Metrics::new();
        metrics.record(Route::Answer, 200, Duration::from_micros(300));
        let snapshot = metrics.snapshot(0, 0);
        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        assert_eq!(snapshot.to_value(), value);
        let keys: Vec<&str> = value
            .as_object()
            .unwrap()
            .iter()
            .map(|(key, _)| key.as_str())
            .collect();
        assert_eq!(
            keys,
            [
                "requests",
                "status_2xx",
                "status_4xx",
                "status_5xx",
                "latency_us",
                "analysis_duration_us",
                "streaming_update_us",
                "streaming_updates_total",
                "pool_workers",
                "pool_steals_total",
                "adaptive_step_us",
                "adaptive_steps_total",
                "adaptive_sessions_started",
                "adaptive_sessions_finished",
                "adaptive_sessions_active",
                "sessions_started",
                "sessions_finished",
                "active_sessions",
                "shed_total",
                "rate_limited_total",
                "queue_depth",
                "inflight_requests",
                "drain_state",
                "retry_after_secs",
                "repl_role",
                "repl_epoch",
                "repl_last_applied_seq",
                "repl_lag",
                "repl_followers",
                "repl_quorum_timeouts_total",
                "redirected_total",
                "repl_failovers_total",
                "repl_suspicions_total",
                "repl_reconnects_total",
                "repl_heartbeat_age_us",
                "scrub_passes_total",
                "scrub_corrupt_segments_total",
                "repair_segments_total",
                "storage_degraded",
            ]
        );
        assert!(json.contains(
            r#""latency_us":{"buckets":[{"le_us":"100","count":0},{"le_us":"250","count":0},{"le_us":"500","count":1},"#
        ));
        assert!(json.contains(r#"{"le_us":"+inf","count":0}],"sum":300,"count":1}"#));
        assert!(json.contains(r#""analysis_duration_us":{"cold":{"buckets":["#));
    }
}
