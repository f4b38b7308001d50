//! Lock-free service metrics: plain atomics so the hot path never
//! blocks.
//!
//! Every metric is one entry in the list at the bottom of this module:
//! its field name (which is also its JSON key), its kind — a
//! [`Counter`], [`Gauge`] or [`Histogram`] — and its Prometheus name and
//! help text. `GET /metrics` renders a [`MetricsSnapshot`] of that list
//! in the Prometheus text exposition format, `GET /metrics?format=json`
//! as JSON; both renderers walk the same list. The few series whose
//! Prometheus form differs from their JSON form (status classes, the
//! one-hot role, the heartbeat age in seconds) are written by hand in
//! [`MetricsSnapshot::to_prometheus`].

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::time::Duration;

use serde::{JsonWriter, Serialize};

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
    /// All distinguishable routes, in render order, which is also
    /// declaration order: a route's discriminant indexes its counter.
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
        self as usize
    }
}

/// Upper bounds (inclusive, microseconds) of the latency buckets; the
/// final bucket is unbounded.
pub const LATENCY_BUCKETS_US: [u64; 8] = [100, 250, 500, 1_000, 5_000, 25_000, 100_000, 1_000_000];

/// Histogram buckets: one per bound plus the overflow bucket.
const BUCKETS: usize = LATENCY_BUCKETS_US.len() + 1;

/// A count that only goes up.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Relaxed);
    }

    /// Mirrors a total counted elsewhere (the pool's steal count).
    pub fn set(&self, total: u64) {
        self.0.store(total, Relaxed);
    }

    /// The current count.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A value that goes up and down.
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    /// Publishes `value`.
    pub fn set(&self, value: u64) {
        self.0.store(value, Relaxed);
    }

    /// Adds one.
    pub fn inc(&self) {
        self.0.fetch_add(1, Relaxed);
    }

    /// Subtracts one.
    pub fn dec(&self) {
        self.0.fetch_sub(1, Relaxed);
    }

    /// The current value.
    #[must_use]
    pub fn get(&self) -> u64 {
        self.0.load(Relaxed)
    }
}

/// A fixed-bucket duration histogram in microseconds (bounds in
/// [`LATENCY_BUCKETS_US`]).
#[derive(Debug, Default)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Histogram {
    /// Records one observation.
    pub fn observe(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = LATENCY_BUCKETS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(LATENCY_BUCKETS_US.len());
        self.buckets[bucket].fetch_add(1, Relaxed);
        self.sum_us.fetch_add(us, Relaxed);
        self.count.fetch_add(1, Relaxed);
    }

    /// The current buckets, sum and count.
    #[must_use]
    pub fn get(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self.buckets.each_ref().map(|bucket| bucket.load(Relaxed)),
            sum_us: self.sum_us.load(Relaxed),
            count: self.count.load(Relaxed),
        }
    }
}

/// A point-in-time copy of a [`Histogram`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (not cumulative) counts; index i ≤
    /// `LATENCY_BUCKETS_US[i]` µs, the last entry is the overflow bucket.
    pub buckets: [u64; BUCKETS],
    /// Sum of the observations in microseconds.
    pub sum_us: u64,
    /// Number of observations.
    pub count: u64,
}

impl HistogramSnapshot {
    /// The `_bucket` (cumulative, `le` in seconds), `_sum` and `_count`
    /// samples of one series; `labels` is empty or `k="v",…`.
    fn write_samples(&self, name: &str, labels: &str, out: &mut String) {
        let sep = if labels.is_empty() { "" } else { "," };
        let mut cumulative = 0;
        for (i, count) in self.buckets.iter().enumerate() {
            cumulative += count;
            let _ = match LATENCY_BUCKETS_US.get(i) {
                Some(&us) => writeln!(
                    out,
                    "{name}_bucket{{{labels}{sep}le=\"{}\"}} {cumulative}",
                    seconds(us)
                ),
                None => writeln!(
                    out,
                    "{name}_bucket{{{labels}{sep}le=\"+Inf\"}} {cumulative}"
                ),
            };
        }
        let braced = format!("{{{labels}}}");
        let braced = if labels.is_empty() { "" } else { &braced };
        let _ = writeln!(out, "{name}_sum{braced} {}", seconds(self.sum_us));
        let _ = writeln!(out, "{name}_count{braced} {}", self.count);
    }
}

/// Microseconds as (fractional) seconds, the Prometheus base unit.
fn seconds(us: u64) -> f64 {
    us as f64 / 1_000_000.0
}

/// What the metric list needs from each kind: a point-in-time read and
/// the read value's JSON and Prometheus sample lines.
pub trait Metric {
    /// The Prometheus `# TYPE` of the family.
    const TYPE: &'static str;
    /// What a snapshot holds.
    type Value;
    /// Reads the current value.
    fn read(&self) -> Self::Value;
    /// Writes `value` as the JSON value under the metric's key.
    fn write_json(value: &Self::Value, out: &mut JsonWriter);
    /// Appends the family's sample lines.
    fn write_samples(value: &Self::Value, name: &str, out: &mut String);
}

/// Counters and gauges read as one number and render as one sample.
macro_rules! scalar_metric {
    ($($kind:ty => $type:literal),*) => {$(
        impl Metric for $kind {
            const TYPE: &'static str = $type;
            type Value = u64;

            fn read(&self) -> u64 {
                self.get()
            }

            fn write_json(value: &u64, out: &mut JsonWriter) {
                out.u64(*value);
            }

            fn write_samples(value: &u64, name: &str, out: &mut String) {
                let _ = writeln!(out, "{name} {value}");
            }
        }
    )*};
}

scalar_metric!(Counter => "counter", Gauge => "gauge");

impl Metric for Histogram {
    const TYPE: &'static str = "histogram";
    type Value = HistogramSnapshot;

    fn read(&self) -> HistogramSnapshot {
        self.get()
    }

    /// `{"buckets":[{"le_us":"100","count":n},…,{"le_us":"+inf",…}],
    /// "sum":…,"count":…}`.
    fn write_json(value: &HistogramSnapshot, out: &mut JsonWriter) {
        let mut histogram = out.object();
        let buckets = histogram.key("buckets");
        buckets.raw("[");
        for (i, count) in value.buckets.iter().enumerate() {
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
            bucket.field("count", count);
            bucket.end();
        }
        buckets.raw("]");
        histogram.field("sum", &value.sum_us);
        histogram.field("count", &value.count);
        histogram.end();
    }

    fn write_samples(value: &HistogramSnapshot, name: &str, out: &mut String) {
        value.write_samples(name, "", out);
    }
}

/// One counter per [`Route`], labelled `route` in Prometheus and keyed
/// by route label in JSON.
#[derive(Debug, Default)]
pub struct PerRoute([Counter; Route::ALL.len()]);

impl PerRoute {
    /// Counts one request on `route`.
    pub fn inc(&self, route: Route) {
        self.0[route.index()].inc();
    }
}

impl Metric for PerRoute {
    const TYPE: &'static str = "counter";
    type Value = Vec<(&'static str, u64)>;

    fn read(&self) -> Self::Value {
        Route::ALL
            .iter()
            .map(|route| (route.label(), self.0[route.index()].get()))
            .collect()
    }

    fn write_json(value: &Self::Value, out: &mut JsonWriter) {
        let mut requests = out.object();
        for (label, count) in value {
            requests.field(label, count);
        }
        requests.end();
    }

    fn write_samples(value: &Self::Value, name: &str, out: &mut String) {
        for (label, count) in value {
            let _ = writeln!(out, "{name}{{route=\"{label}\"}} {count}");
        }
    }
}

/// Analysis wall time by mode: batch (a run of the full pipeline over
/// the filed records) and streaming (a report assembled from the
/// engine's running counters, or its stored body).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AnalysisModes<T> {
    /// Batch mode.
    pub batch: T,
    /// Streaming mode.
    pub streaming: T,
}

impl Metric for AnalysisModes<Histogram> {
    const TYPE: &'static str = "histogram";
    type Value = AnalysisModes<HistogramSnapshot>;

    fn read(&self) -> Self::Value {
        AnalysisModes {
            batch: self.batch.get(),
            streaming: self.streaming.get(),
        }
    }

    fn write_json(value: &Self::Value, out: &mut JsonWriter) {
        let mut modes = out.object();
        Histogram::write_json(&value.batch, modes.key("batch"));
        Histogram::write_json(&value.streaming, modes.key("streaming"));
        modes.end();
    }

    fn write_samples(value: &Self::Value, name: &str, out: &mut String) {
        value.batch.write_samples(name, "mode=\"batch\"", out);
        value
            .streaming
            .write_samples(name, "mode=\"streaming\"", out);
    }
}

/// Appends a family's `# HELP` and `# TYPE` lines.
fn write_family(out: &mut String, name: &str, help: &str, kind: &str) {
    let _ = writeln!(out, "# HELP {name} {help}\n# TYPE {name} {kind}");
}

/// Generates [`Metrics`], [`MetricsSnapshot`], the snapshot read and
/// both renderings from one list. Each entry is
/// `field: Kind => "prometheus_name", "help";` and the field name is the
/// JSON key. An entry without a Prometheus part is rendered by hand in
/// [`MetricsSnapshot::to_prometheus`]. A histogram entry may end in
/// `, total_key => "name", "help"`: a counter of its observations that
/// both formats show next to it.
macro_rules! metrics {
    ($(
        $(#[$attr:meta])*
        $field:ident: $kind:ty $(=> $name:literal, $help:literal
            $(, $total:ident => $total_name:literal, $total_help:literal)?)?;
    )*) => {
        /// Shared metric state, cheap to update from any worker thread.
        #[derive(Debug, Default)]
        pub struct Metrics {
            $($(#[$attr])* $(#[doc = $help])? pub $field: $kind,)*
        }

        /// A point-in-time copy of every metric, renderable as JSON and
        /// as Prometheus text.
        #[derive(Debug, Clone, PartialEq)]
        pub struct MetricsSnapshot {
            $($(#[$attr])* $(#[doc = $help])? pub $field: <$kind as Metric>::Value,)*
        }

        impl Metrics {
            fn read(&self) -> MetricsSnapshot {
                MetricsSnapshot { $($field: self.$field.read(),)* }
            }
        }

        impl MetricsSnapshot {
            /// The JSON object, keys in list order.
            fn write_json(&self, out: &mut JsonWriter) {
                let mut body = out.object();
                $(
                    <$kind as Metric>::write_json(&self.$field, body.key(stringify!($field)));
                    $($(body.field(stringify!($total), &self.$field.count);)?)?
                )*
                body.end();
            }

            /// Every family the list names, in list order.
            fn write_listed_families(&self, out: &mut String) {
                $($(
                    write_family(out, $name, $help, <$kind as Metric>::TYPE);
                    <$kind as Metric>::write_samples(&self.$field, $name, out);
                    $(
                        write_family(out, $total_name, $total_help, "counter");
                        Counter::write_samples(&self.$field.count, $total_name, out);
                    )?
                )?)*
            }
        }
    };
}

metrics! {
    requests: PerRoute => "mine_requests_total", "Requests served, by route.";
    /// 2xx responses.
    status_2xx: Counter;
    /// 4xx responses.
    status_4xx: Counter;
    /// 5xx responses.
    status_5xx: Counter;
    latency_us: Histogram => "mine_request_duration_seconds", "Request latency.";
    analysis_duration_us: AnalysisModes<Histogram> => "mine_analysis_duration_seconds",
        "Analysis wall time by mode.";
    streaming_update_us: Histogram => "mine_streaming_update_seconds",
        "Finish-time streaming statistics update.",
        streaming_updates_total => "mine_streaming_updates_total",
        "Finish-time streaming engine updates applied.";
    pool_workers: Gauge => "mine_pool_workers",
        "Worker threads spawned by the work-stealing analysis pool.";
    pool_steals_total: Counter => "mine_pool_steals_total",
        "Pool tasks executed by a worker other than the one that queued them.";
    adaptive_step_us: Histogram => "mine_adaptive_step_seconds",
        "Adaptive step: grade, re-estimate, next item.",
        adaptive_steps_total => "mine_adaptive_steps_total", "Adaptive steps ever served.";
    adaptive_sessions_started: Counter => "mine_adaptive_sessions_started_total",
        "Adaptive (CAT) sittings ever started.";
    adaptive_sessions_finished: Counter => "mine_adaptive_sessions_finished_total",
        "Adaptive (CAT) sittings ever finished.";
    adaptive_sessions_active: Gauge => "mine_adaptive_sessions_active",
        "Adaptive (CAT) sittings currently resident in the registry.";
    sessions_started: Counter => "mine_sessions_started_total", "Sessions ever started.";
    sessions_finished: Counter => "mine_sessions_finished_total", "Sessions ever finished.";
    active_sessions: Gauge => "mine_active_sessions",
        "Sessions currently resident in the registry.";
    shed_total: Counter => "mine_shed_total",
        "Connections and requests shed with 503 (full queue or draining).";
    rate_limited_total: Counter => "mine_rate_limited_total",
        "Connections shed by per-peer token-bucket rate limiting.";
    queue_depth: Gauge => "mine_queue_depth", "Accepted connections waiting for a worker.";
    inflight_requests: Gauge => "mine_inflight_requests", "Requests currently being handled.";
    drain_state: Gauge => "mine_drain_state", "Lifecycle: 0 running, 1 draining, 2 stopped.";
    retry_after_secs: Gauge => "mine_retry_after_seconds",
        "Retry-After seconds most recently advertised on a shed response.";
    /// Replication role: 0 primary, 1 follower, 2 candidate.
    repl_role: Gauge;
    repl_epoch: Gauge => "mine_repl_epoch", "Durable replication epoch (bumped by promotion).";
    repl_last_applied_seq: Gauge => "mine_repl_last_applied_seq",
        "Highest journal sequence applied locally.";
    repl_lag: Gauge => "mine_repl_lag",
        "Replication lag in records (primary: head minus slowest ack; follower: leader head minus applied).";
    repl_followers: Gauge => "mine_repl_followers",
        "Followers currently streaming from this node.";
    repl_quorum_timeouts_total: Counter => "mine_repl_quorum_timeouts_total",
        "Quorum-ack waits that timed out (write proceeded leader-only).";
    redirected_total: Counter => "mine_redirected_total",
        "Writes refused with 421 and pointed at the leader.";
    repl_failovers_total: Counter => "mine_repl_failovers_total",
        "Unsupervised promotions performed by the failure detector.";
    repl_suspicions_total: Counter => "mine_repl_suspicions_total",
        "Leader suspicions raised by the failure detector.";
    repl_reconnects_total: Counter => "mine_repl_reconnects_total",
        "Follower reconnection attempts after a broken stream.";
    /// Microseconds since the follower last heard from its leader (0
    /// on a primary).
    repl_heartbeat_age_us: Gauge;
    scrub_passes_total: Counter => "mine_scrub_passes_total",
        "Completed anti-entropy scrub passes.";
    scrub_corrupt_segments_total: Counter => "mine_scrub_corrupt_segments_total",
        "Sealed segments a scrub pass found corrupt.";
    repair_segments_total: Counter => "mine_repair_segments_total",
        "Segments quarantined and repaired from a healthy peer.";
    storage_degraded: Gauge => "mine_storage_degraded",
        "Storage health: 1 while the WAL refuses writes (degraded read-only), 0 healthy.";
}

impl Metrics {
    /// Fresh zeroed metrics.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one served request.
    pub fn record(&self, route: Route, status: u16, latency: Duration) {
        self.requests.inc(route);
        match status {
            200..=299 => &self.status_2xx,
            500..=599 => &self.status_5xx,
            _ => &self.status_4xx,
        }
        .inc();
        self.latency_us.observe(latency);
    }

    /// Counts one connection or request shed with `503`, recording the
    /// `Retry-After` it was sent away with.
    pub fn shed(&self, retry_after_secs: u64) {
        self.shed_total.inc();
        self.retry_after_secs.set(retry_after_secs);
    }

    /// Counts one rate-limited connection, recording its `Retry-After`.
    pub fn rate_limited(&self, retry_after_secs: u64) {
        self.rate_limited_total.inc();
        self.retry_after_secs.set(retry_after_secs);
    }

    /// Publishes the registry sizes the caller passes as the
    /// `active_sessions` and `adaptive_sessions_active` gauges, then
    /// copies every metric.
    #[must_use]
    pub fn snapshot(&self, active_sessions: usize, adaptive_active: usize) -> MetricsSnapshot {
        self.active_sessions.set(active_sessions as u64);
        self.adaptive_sessions_active.set(adaptive_active as u64);
        self.read()
    }
}

impl Serialize for MetricsSnapshot {
    fn serialize_into(&self, out: &mut JsonWriter) {
        self.write_json(out);
    }
}

impl MetricsSnapshot {
    /// Renders the snapshot in the Prometheus text exposition format
    /// (version 0.0.4): `# HELP`/`# TYPE` lines, one sample per line,
    /// histogram buckets with *cumulative* counts and `le` bounds in
    /// seconds.
    #[must_use]
    pub fn to_prometheus(&self) -> String {
        let mut out = String::with_capacity(8192);
        self.write_listed_families(&mut out);

        let name = "mine_responses_total";
        write_family(
            &mut out,
            name,
            "Responses sent, by status class.",
            "counter",
        );
        for (class, count) in [
            ("2xx", self.status_2xx),
            ("4xx", self.status_4xx),
            ("5xx", self.status_5xx),
        ] {
            let _ = writeln!(out, "{name}{{class=\"{class}\"}} {count}");
        }

        let name = "mine_repl_role";
        write_family(&mut out, name, "Replication role (one-hot).", "gauge");
        for (index, role) in ["primary", "follower", "candidate"].iter().enumerate() {
            let hot = u64::from(self.repl_role == index as u64);
            let _ = writeln!(out, "{name}{{role=\"{role}\"}} {hot}");
        }

        let name = "mine_repl_heartbeat_age_seconds";
        let help = "Time since the follower last heard from its leader (0 on a primary).";
        write_family(&mut out, name, help, "gauge");
        let _ = writeln!(out, "{name} {}", seconds(self.repl_heartbeat_age_us));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde::Value;

    #[test]
    fn route_index_is_its_position_in_all() {
        for (i, route) in Route::ALL.iter().enumerate() {
            assert_eq!(route.index(), i, "{route:?}");
        }
    }

    #[test]
    fn record_fills_counters_and_buckets() {
        let metrics = Metrics::new();
        metrics.record(Route::Healthz, 200, Duration::from_micros(50));
        metrics.record(Route::Answer, 422, Duration::from_micros(300));
        metrics.record(Route::Analysis, 500, Duration::from_secs(2));
        metrics.sessions_started.inc();
        metrics.sessions_finished.inc();

        let snapshot = metrics.snapshot(3, 0);
        let by_label: std::collections::HashMap<_, _> = snapshot.requests.iter().copied().collect();
        assert_eq!(by_label["healthz"], 1);
        assert_eq!(by_label["answer"], 1);
        assert_eq!(by_label["analysis"], 1);
        assert_eq!(by_label["session_start"], 0);
        assert_eq!(snapshot.status_2xx, 1);
        assert_eq!(snapshot.status_4xx, 1);
        assert_eq!(snapshot.status_5xx, 1);
        assert_eq!(snapshot.latency_us.count, 3);
        // 50 µs lands in the first bucket, 300 µs in the ≤500 bucket,
        // 2 s in the overflow bucket.
        assert_eq!(snapshot.latency_us.buckets[0], 1);
        assert_eq!(snapshot.latency_us.buckets[2], 1);
        assert_eq!(*snapshot.latency_us.buckets.last().unwrap(), 1);
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
        metrics.queue_depth.inc();
        metrics.queue_depth.inc();
        metrics.queue_depth.dec();
        metrics.inflight_requests.inc();
        metrics.drain_state.set(1);

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
        metrics.repl_role.set(1);
        metrics.repl_epoch.set(3);
        metrics.repl_last_applied_seq.set(41);
        metrics.repl_lag.set(2);
        metrics.repl_followers.set(0);
        metrics.repl_quorum_timeouts_total.inc();
        metrics.redirected_total.inc();
        metrics.redirected_total.inc();
        metrics.repl_suspicions_total.inc();
        metrics.repl_suspicions_total.inc();
        metrics.repl_failovers_total.inc();
        metrics.repl_reconnects_total.inc();
        metrics.repl_reconnects_total.inc();
        metrics.repl_reconnects_total.inc();
        metrics.repl_heartbeat_age_us.set(2_500_000);

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
        metrics.scrub_passes_total.inc();
        metrics.scrub_passes_total.inc();
        metrics.scrub_corrupt_segments_total.add(3);
        metrics.repair_segments_total.inc();
        metrics.storage_degraded.set(1);

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

        metrics.storage_degraded.set(0);
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
    fn analysis_histogram_is_labeled_by_mode() {
        let metrics = Metrics::new();
        let analysis = &metrics.analysis_duration_us;
        analysis.batch.observe(Duration::from_millis(20));
        analysis.batch.observe(Duration::from_millis(90));
        analysis.streaming.observe(Duration::from_micros(60));
        metrics.pool_workers.set(4);
        metrics.pool_steals_total.set(17);

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.analysis_duration_us.batch.count, 2);
        assert_eq!(snapshot.analysis_duration_us.streaming.count, 1);
        // 60 µs lands in the first streaming bucket; batch times stay
        // separate.
        assert_eq!(snapshot.analysis_duration_us.streaming.buckets[0], 1);
        assert_eq!(snapshot.analysis_duration_us.batch.buckets[0], 0);
        assert_eq!(snapshot.pool_workers, 4);
        assert_eq!(snapshot.pool_steals_total, 17);

        let text = snapshot.to_prometheus();
        assert!(text.contains("# TYPE mine_analysis_duration_seconds histogram"));
        assert!(text.contains("mine_analysis_duration_seconds_count{mode=\"batch\"} 2"));
        assert!(text.contains("mine_analysis_duration_seconds_count{mode=\"streaming\"} 1"));
        // Cumulative buckets per label: both batch observations are ≤ 0.1 s.
        assert!(
            text.contains("mine_analysis_duration_seconds_bucket{mode=\"batch\",le=\"0.025\"} 1")
        );
        assert!(text.contains("mine_analysis_duration_seconds_bucket{mode=\"batch\",le=\"0.1\"} 2"));
        assert!(text
            .contains("mine_analysis_duration_seconds_bucket{mode=\"streaming\",le=\"0.0001\"} 1"));
        assert!(text.contains("# TYPE mine_pool_workers gauge"));
        assert!(text.contains("mine_pool_workers 4"));
        assert!(text.contains("# TYPE mine_pool_steals_total counter"));
        assert!(text.contains("mine_pool_steals_total 17"));

        let json = serde_json::to_string(&snapshot).unwrap();
        let value: Value = serde_json::from_str(&json).unwrap();
        let analysis = value.get("analysis_duration_us").unwrap();
        assert!(analysis.get("batch").is_some());
        assert!(analysis.get("streaming").is_some());
        assert_eq!(value.get("pool_workers").unwrap().kind(), "number");
        assert_eq!(value.get("pool_steals_total").unwrap().kind(), "number");
    }

    #[test]
    fn streaming_updates_fill_counter_and_histogram() {
        let metrics = Metrics::new();
        let updates = &metrics.streaming_update_us;
        updates.observe(Duration::from_micros(80));
        updates.observe(Duration::from_micros(400));
        updates.observe(Duration::from_millis(30));

        let snapshot = metrics.snapshot(0, 0);
        assert_eq!(snapshot.streaming_update_us.count, 3);
        assert_eq!(snapshot.streaming_update_us.buckets[0], 1);
        assert_eq!(snapshot.streaming_update_us.buckets[2], 1);
        assert_eq!(snapshot.streaming_update_us.sum_us, 80 + 400 + 30_000);

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
        metrics.adaptive_sessions_started.inc();
        metrics.adaptive_sessions_started.inc();
        metrics.adaptive_sessions_finished.inc();
        metrics.adaptive_step_us.observe(Duration::from_micros(90));
        metrics.adaptive_step_us.observe(Duration::from_millis(40));

        let snapshot = metrics.snapshot(0, 1);
        assert_eq!(snapshot.adaptive_sessions_started, 2);
        assert_eq!(snapshot.adaptive_sessions_finished, 1);
        assert_eq!(snapshot.adaptive_sessions_active, 1);
        assert_eq!(snapshot.adaptive_step_us.count, 2);
        assert_eq!(snapshot.adaptive_step_us.buckets[0], 1);
        assert_eq!(snapshot.adaptive_step_us.sum_us, 90 + 40_000);

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
        assert_eq!(serde_json::to_string(&value).unwrap(), json);
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
        assert!(json.contains(r#""analysis_duration_us":{"batch":{"buckets":["#));
    }
}
