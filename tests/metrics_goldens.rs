//! Literal goldens for the `/metrics` exposition.
//!
//! Scrapers parse both renderings of the metrics snapshot: the JSON
//! body under `?format=json` and the Prometheus text served by default.
//! Every metric here holds a distinct non-zero value, the JSON body is
//! compared byte for byte, and the Prometheus text is compared family
//! by family (a family is its `# HELP` line, its `# TYPE` line and its
//! samples), so families may move but no byte inside one may change.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;

use mine_assessment::server::metrics::Histogram;
use mine_assessment::server::{Metrics, MetricsSnapshot, Route};

/// Latencies spread over every bucket, both bucket edges included.
const LATENCIES_US: [u64; 11] = [
    40, 100, 180, 250, 400, 900, 3_000, 20_000, 90_000, 700_000, 2_000_000,
];

/// Puts a distinct non-zero value into every metric.
fn filled() -> MetricsSnapshot {
    let metrics = Metrics::new();
    let mut k = 0_usize;
    for (i, route) in Route::ALL.iter().enumerate() {
        for _ in 0..=i {
            let status = match k % 6 {
                0..=2 => 200,
                3 | 4 => 404,
                _ => 503,
            };
            let latency = Duration::from_micros(LATENCIES_US[k % LATENCIES_US.len()]);
            metrics.record(*route, status, latency);
            k += 1;
        }
    }
    let observe = |histogram: &Histogram, latencies_us: &[u64]| {
        for &us in latencies_us {
            histogram.observe(Duration::from_micros(us));
        }
    };
    let analysis = &metrics.analysis_duration_us;
    observe(&analysis.cold, &[20_000, 90_000, 3_000_000]);
    observe(&analysis.hit, &[40, 300]);
    observe(&analysis.streaming, &[60, 150, 600, 4_000]);
    observe(
        &metrics.streaming_update_us,
        &[80, 90, 400, 30_000, 1_200_000],
    );
    observe(
        &metrics.adaptive_step_us,
        &[90, 200, 250, 900, 5_000, 40_000],
    );
    let times = |n: usize, f: &dyn Fn()| (0..n).for_each(|_| f());
    metrics.sessions_started.add(31);
    metrics.sessions_finished.add(32);
    metrics.adaptive_sessions_started.add(33);
    metrics.adaptive_sessions_finished.add(34);
    times(34, &|| metrics.shed(2));
    times(36, &|| metrics.rate_limited(3));
    times(37, &|| metrics.queue_depth.inc());
    times(40, &|| metrics.inflight_requests.inc());
    times(2, &|| metrics.inflight_requests.dec());
    metrics.shed(59);
    metrics.drain_state.set(2);
    metrics.repl_role.set(1);
    metrics.repl_epoch.set(44);
    metrics.repl_last_applied_seq.set(4_321);
    metrics.repl_lag.set(45);
    metrics.repl_followers.set(46);
    metrics.repl_quorum_timeouts_total.add(47);
    metrics.redirected_total.add(48);
    metrics.repl_failovers_total.add(49);
    metrics.repl_suspicions_total.add(50);
    metrics.repl_reconnects_total.add(51);
    metrics.repl_heartbeat_age_us.set(2_500_000);
    metrics.scrub_passes_total.add(52);
    metrics.scrub_corrupt_segments_total.add(53);
    metrics.repair_segments_total.add(54);
    metrics.storage_degraded.set(1);
    metrics.pool_workers.set(55);
    metrics.pool_steals_total.set(56);
    metrics.snapshot(57, 58)
}

const JSON_GOLDEN: &str = concat!(
    r#"{"requests":{"healthz":1,"metrics":2,"session_start":3,"session_status":4,"answer":5"#,
    r#","pause":6,"resume":7,"finish":8,"analysis":9,"promote":10,"demote":11,"admin_ranges":12"#,
    r#","redirected":13,"shed":14,"unmatched":15},"status_2xx":60,"status_4xx":40"#,
    r#","status_5xx":20,"latency_us":{"buckets":[{"le_us":"100","count":22},{"le_us":"250""#,
    r#","count":22},{"le_us":"500","count":11},{"le_us":"1000","count":11},{"le_us":"5000""#,
    r#","count":11},{"le_us":"25000","count":11},{"le_us":"100000""#,
    r#","count":11},{"le_us":"1000000","count":11},{"le_us":"+inf","count":10}],"sum":28963570"#,
    r#","count":120},"analysis_duration_us":{"cold":{"buckets":[{"le_us":"100""#,
    r#","count":0},{"le_us":"250","count":0},{"le_us":"500","count":0},{"le_us":"1000""#,
    r#","count":0},{"le_us":"5000","count":0},{"le_us":"25000","count":1},{"le_us":"100000""#,
    r#","count":1},{"le_us":"1000000","count":0},{"le_us":"+inf","count":1}],"sum":3110000"#,
    r#","count":3},"hit":{"buckets":[{"le_us":"100","count":1},{"le_us":"250""#,
    r#","count":0},{"le_us":"500","count":1},{"le_us":"1000","count":0},{"le_us":"5000""#,
    r#","count":0},{"le_us":"25000","count":0},{"le_us":"100000","count":0},{"le_us":"1000000""#,
    r#","count":0},{"le_us":"+inf","count":0}],"sum":340,"count":2}"#,
    r#","streaming":{"buckets":[{"le_us":"100","count":1},{"le_us":"250""#,
    r#","count":1},{"le_us":"500","count":0},{"le_us":"1000","count":1},{"le_us":"5000""#,
    r#","count":1},{"le_us":"25000","count":0},{"le_us":"100000","count":0},{"le_us":"1000000""#,
    r#","count":0},{"le_us":"+inf","count":0}],"sum":4810,"count":4}}"#,
    r#","streaming_update_us":{"buckets":[{"le_us":"100","count":2},{"le_us":"250""#,
    r#","count":0},{"le_us":"500","count":1},{"le_us":"1000","count":0},{"le_us":"5000""#,
    r#","count":0},{"le_us":"25000","count":0},{"le_us":"100000","count":1},{"le_us":"1000000""#,
    r#","count":0},{"le_us":"+inf","count":1}],"sum":1230570,"count":5}"#,
    r#","streaming_updates_total":5,"pool_workers":55,"pool_steals_total":56"#,
    r#","adaptive_step_us":{"buckets":[{"le_us":"100","count":1},{"le_us":"250""#,
    r#","count":2},{"le_us":"500","count":0},{"le_us":"1000","count":1},{"le_us":"5000""#,
    r#","count":1},{"le_us":"25000","count":0},{"le_us":"100000","count":1},{"le_us":"1000000""#,
    r#","count":0},{"le_us":"+inf","count":0}],"sum":46440,"count":6},"adaptive_steps_total":6"#,
    r#","adaptive_sessions_started":33,"adaptive_sessions_finished":34"#,
    r#","adaptive_sessions_active":58,"sessions_started":31,"sessions_finished":32"#,
    r#","active_sessions":57,"shed_total":35,"rate_limited_total":36,"queue_depth":37"#,
    r#","inflight_requests":38,"drain_state":2,"retry_after_secs":59,"repl_role":1"#,
    r#","repl_epoch":44,"repl_last_applied_seq":4321,"repl_lag":45,"repl_followers":46"#,
    r#","repl_quorum_timeouts_total":47,"redirected_total":48,"repl_failovers_total":49"#,
    r#","repl_suspicions_total":50,"repl_reconnects_total":51,"repl_heartbeat_age_us":2500000"#,
    r#","scrub_passes_total":52,"scrub_corrupt_segments_total":53,"repair_segments_total":54"#,
    r#","storage_degraded":1}"#,
);

const PROMETHEUS_GOLDEN: &[&str] = &[
    r#"# HELP mine_requests_total Requests served, by route.
# TYPE mine_requests_total counter
mine_requests_total{route="healthz"} 1
mine_requests_total{route="metrics"} 2
mine_requests_total{route="session_start"} 3
mine_requests_total{route="session_status"} 4
mine_requests_total{route="answer"} 5
mine_requests_total{route="pause"} 6
mine_requests_total{route="resume"} 7
mine_requests_total{route="finish"} 8
mine_requests_total{route="analysis"} 9
mine_requests_total{route="promote"} 10
mine_requests_total{route="demote"} 11
mine_requests_total{route="admin_ranges"} 12
mine_requests_total{route="redirected"} 13
mine_requests_total{route="shed"} 14
mine_requests_total{route="unmatched"} 15
"#,
    r#"# HELP mine_responses_total Responses sent, by status class.
# TYPE mine_responses_total counter
mine_responses_total{class="2xx"} 60
mine_responses_total{class="4xx"} 40
mine_responses_total{class="5xx"} 20
"#,
    r#"# HELP mine_request_duration_seconds Request latency.
# TYPE mine_request_duration_seconds histogram
mine_request_duration_seconds_bucket{le="0.0001"} 22
mine_request_duration_seconds_bucket{le="0.00025"} 44
mine_request_duration_seconds_bucket{le="0.0005"} 55
mine_request_duration_seconds_bucket{le="0.001"} 66
mine_request_duration_seconds_bucket{le="0.005"} 77
mine_request_duration_seconds_bucket{le="0.025"} 88
mine_request_duration_seconds_bucket{le="0.1"} 99
mine_request_duration_seconds_bucket{le="1"} 110
mine_request_duration_seconds_bucket{le="+Inf"} 120
mine_request_duration_seconds_sum 28.96357
mine_request_duration_seconds_count 120
"#,
    r#"# HELP mine_analysis_duration_seconds Analysis wall time by mode (batch runs carry the cache outcome).
# TYPE mine_analysis_duration_seconds histogram
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="0.0001"} 0
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="0.00025"} 0
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="0.0005"} 0
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="0.001"} 0
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="0.005"} 0
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="0.025"} 1
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="0.1"} 2
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="1"} 2
mine_analysis_duration_seconds_bucket{mode="batch",cache="cold",le="+Inf"} 3
mine_analysis_duration_seconds_sum{mode="batch",cache="cold"} 3.11
mine_analysis_duration_seconds_count{mode="batch",cache="cold"} 3
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="0.0001"} 1
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="0.00025"} 1
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="0.0005"} 2
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="0.001"} 2
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="0.005"} 2
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="0.025"} 2
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="0.1"} 2
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="1"} 2
mine_analysis_duration_seconds_bucket{mode="batch",cache="hit",le="+Inf"} 2
mine_analysis_duration_seconds_sum{mode="batch",cache="hit"} 0.00034
mine_analysis_duration_seconds_count{mode="batch",cache="hit"} 2
mine_analysis_duration_seconds_bucket{mode="streaming",le="0.0001"} 1
mine_analysis_duration_seconds_bucket{mode="streaming",le="0.00025"} 2
mine_analysis_duration_seconds_bucket{mode="streaming",le="0.0005"} 2
mine_analysis_duration_seconds_bucket{mode="streaming",le="0.001"} 3
mine_analysis_duration_seconds_bucket{mode="streaming",le="0.005"} 4
mine_analysis_duration_seconds_bucket{mode="streaming",le="0.025"} 4
mine_analysis_duration_seconds_bucket{mode="streaming",le="0.1"} 4
mine_analysis_duration_seconds_bucket{mode="streaming",le="1"} 4
mine_analysis_duration_seconds_bucket{mode="streaming",le="+Inf"} 4
mine_analysis_duration_seconds_sum{mode="streaming"} 0.00481
mine_analysis_duration_seconds_count{mode="streaming"} 4
"#,
    r#"# HELP mine_streaming_update_seconds Finish-time streaming statistics update.
# TYPE mine_streaming_update_seconds histogram
mine_streaming_update_seconds_bucket{le="0.0001"} 2
mine_streaming_update_seconds_bucket{le="0.00025"} 2
mine_streaming_update_seconds_bucket{le="0.0005"} 3
mine_streaming_update_seconds_bucket{le="0.001"} 3
mine_streaming_update_seconds_bucket{le="0.005"} 3
mine_streaming_update_seconds_bucket{le="0.025"} 3
mine_streaming_update_seconds_bucket{le="0.1"} 4
mine_streaming_update_seconds_bucket{le="1"} 4
mine_streaming_update_seconds_bucket{le="+Inf"} 5
mine_streaming_update_seconds_sum 1.23057
mine_streaming_update_seconds_count 5
"#,
    r#"# HELP mine_streaming_updates_total Finish-time streaming engine updates applied.
# TYPE mine_streaming_updates_total counter
mine_streaming_updates_total 5
"#,
    r#"# HELP mine_adaptive_step_seconds Adaptive step: grade, re-estimate, next item.
# TYPE mine_adaptive_step_seconds histogram
mine_adaptive_step_seconds_bucket{le="0.0001"} 1
mine_adaptive_step_seconds_bucket{le="0.00025"} 3
mine_adaptive_step_seconds_bucket{le="0.0005"} 3
mine_adaptive_step_seconds_bucket{le="0.001"} 4
mine_adaptive_step_seconds_bucket{le="0.005"} 5
mine_adaptive_step_seconds_bucket{le="0.025"} 5
mine_adaptive_step_seconds_bucket{le="0.1"} 6
mine_adaptive_step_seconds_bucket{le="1"} 6
mine_adaptive_step_seconds_bucket{le="+Inf"} 6
mine_adaptive_step_seconds_sum 0.04644
mine_adaptive_step_seconds_count 6
"#,
    r#"# HELP mine_adaptive_steps_total Adaptive steps ever served.
# TYPE mine_adaptive_steps_total counter
mine_adaptive_steps_total 6
"#,
    r#"# HELP mine_sessions_started_total Sessions ever started.
# TYPE mine_sessions_started_total counter
mine_sessions_started_total 31
"#,
    r#"# HELP mine_sessions_finished_total Sessions ever finished.
# TYPE mine_sessions_finished_total counter
mine_sessions_finished_total 32
"#,
    r#"# HELP mine_adaptive_sessions_started_total Adaptive (CAT) sittings ever started.
# TYPE mine_adaptive_sessions_started_total counter
mine_adaptive_sessions_started_total 33
"#,
    r#"# HELP mine_adaptive_sessions_finished_total Adaptive (CAT) sittings ever finished.
# TYPE mine_adaptive_sessions_finished_total counter
mine_adaptive_sessions_finished_total 34
"#,
    r#"# HELP mine_shed_total Connections and requests shed with 503 (full queue or draining).
# TYPE mine_shed_total counter
mine_shed_total 35
"#,
    r#"# HELP mine_rate_limited_total Connections shed by per-peer token-bucket rate limiting.
# TYPE mine_rate_limited_total counter
mine_rate_limited_total 36
"#,
    r#"# HELP mine_active_sessions Sessions currently resident in the registry.
# TYPE mine_active_sessions gauge
mine_active_sessions 57
"#,
    r#"# HELP mine_adaptive_sessions_active Adaptive (CAT) sittings currently resident in the registry.
# TYPE mine_adaptive_sessions_active gauge
mine_adaptive_sessions_active 58
"#,
    r#"# HELP mine_queue_depth Accepted connections waiting for a worker.
# TYPE mine_queue_depth gauge
mine_queue_depth 37
"#,
    r#"# HELP mine_inflight_requests Requests currently being handled.
# TYPE mine_inflight_requests gauge
mine_inflight_requests 38
"#,
    r#"# HELP mine_drain_state Lifecycle: 0 running, 1 draining, 2 stopped.
# TYPE mine_drain_state gauge
mine_drain_state 2
"#,
    r#"# HELP mine_retry_after_seconds Retry-After seconds most recently advertised on a shed response.
# TYPE mine_retry_after_seconds gauge
mine_retry_after_seconds 59
"#,
    r#"# HELP mine_pool_workers Worker threads spawned by the work-stealing analysis pool.
# TYPE mine_pool_workers gauge
mine_pool_workers 55
"#,
    r#"# HELP mine_storage_degraded Storage health: 1 while the WAL refuses writes (degraded read-only), 0 healthy.
# TYPE mine_storage_degraded gauge
mine_storage_degraded 1
"#,
    r#"# HELP mine_repl_role Replication role (one-hot).
# TYPE mine_repl_role gauge
mine_repl_role{role="primary"} 0
mine_repl_role{role="follower"} 1
mine_repl_role{role="candidate"} 0
"#,
    r#"# HELP mine_repl_epoch Durable replication epoch (bumped by promotion).
# TYPE mine_repl_epoch gauge
mine_repl_epoch 44
"#,
    r#"# HELP mine_repl_last_applied_seq Highest journal sequence applied locally.
# TYPE mine_repl_last_applied_seq gauge
mine_repl_last_applied_seq 4321
"#,
    r#"# HELP mine_repl_lag Replication lag in records (primary: head minus slowest ack; follower: leader head minus applied).
# TYPE mine_repl_lag gauge
mine_repl_lag 45
"#,
    r#"# HELP mine_repl_followers Followers currently streaming from this node.
# TYPE mine_repl_followers gauge
mine_repl_followers 46
"#,
    r#"# HELP mine_repl_heartbeat_age_seconds Time since the follower last heard from its leader (0 on a primary).
# TYPE mine_repl_heartbeat_age_seconds gauge
mine_repl_heartbeat_age_seconds 2.5
"#,
    r#"# HELP mine_repl_quorum_timeouts_total Quorum-ack waits that timed out (write proceeded leader-only).
# TYPE mine_repl_quorum_timeouts_total counter
mine_repl_quorum_timeouts_total 47
"#,
    r#"# HELP mine_redirected_total Writes refused with 421 and pointed at the leader.
# TYPE mine_redirected_total counter
mine_redirected_total 48
"#,
    r#"# HELP mine_pool_steals_total Pool tasks executed by a worker other than the one that queued them.
# TYPE mine_pool_steals_total counter
mine_pool_steals_total 56
"#,
    r#"# HELP mine_repl_failovers_total Unsupervised promotions performed by the failure detector.
# TYPE mine_repl_failovers_total counter
mine_repl_failovers_total 49
"#,
    r#"# HELP mine_repl_suspicions_total Leader suspicions raised by the failure detector.
# TYPE mine_repl_suspicions_total counter
mine_repl_suspicions_total 50
"#,
    r#"# HELP mine_repl_reconnects_total Follower reconnection attempts after a broken stream.
# TYPE mine_repl_reconnects_total counter
mine_repl_reconnects_total 51
"#,
    r#"# HELP mine_scrub_passes_total Completed anti-entropy scrub passes.
# TYPE mine_scrub_passes_total counter
mine_scrub_passes_total 52
"#,
    r#"# HELP mine_scrub_corrupt_segments_total Sealed segments a scrub pass found corrupt.
# TYPE mine_scrub_corrupt_segments_total counter
mine_scrub_corrupt_segments_total 53
"#,
    r#"# HELP mine_repair_segments_total Segments quarantined and repaired from a healthy peer.
# TYPE mine_repair_segments_total counter
mine_repair_segments_total 54
"#,
];

/// Splits the exposition into family blocks, each starting at its
/// `# HELP` line.
fn families(text: &str) -> Vec<String> {
    let mut blocks: Vec<String> = Vec::new();
    for line in text.lines() {
        if line.starts_with("# HELP ") || blocks.is_empty() {
            blocks.push(String::new());
        }
        let block = blocks.last_mut().unwrap();
        block.push_str(line);
        block.push('\n');
    }
    blocks
}

#[test]
fn json_body_matches_the_golden() {
    let json = serde_json::to_string(&filled()).unwrap();
    assert_eq!(json, JSON_GOLDEN);
}

#[test]
fn prometheus_families_match_the_goldens() {
    let text = filled().to_prometheus();
    let actual: BTreeSet<String> = families(&text).into_iter().collect();
    let expected: BTreeSet<String> = PROMETHEUS_GOLDEN.iter().map(|b| b.to_string()).collect();
    assert_eq!(
        actual.len(),
        families(&text).len(),
        "a family block repeats"
    );
    if let Some(block) = expected.difference(&actual).next() {
        panic!("missing or changed family:\n{block}");
    }
    if let Some(block) = actual.difference(&expected).next() {
        panic!("unexpected family:\n{block}");
    }
}

/// The sample name a line's family owns: `x_bucket`, `x_sum` and
/// `x_count` belong to histogram `x`.
fn family_of<'a>(sample: &'a str, kind: &str) -> &'a str {
    let name = sample.split(['{', ' ']).next().unwrap();
    if kind == "histogram" {
        for suffix in ["_bucket", "_sum", "_count"] {
            if let Some(base) = name.strip_suffix(suffix) {
                return base;
            }
        }
    }
    name
}

#[test]
fn prometheus_exposition_is_well_formed() {
    let text = filled().to_prometheus();
    assert!(text.ends_with('\n'));
    let mut seen = BTreeSet::new();
    for block in families(&text) {
        let mut lines = block.lines();
        let help = lines.next().unwrap();
        let name = help
            .strip_prefix("# HELP ")
            .and_then(|rest| rest.split(' ').next())
            .unwrap_or_else(|| panic!("family does not open with HELP: {help}"));
        assert!(seen.insert(name.to_string()), "{name} repeats");
        let type_line = lines.next().unwrap();
        let kind = type_line
            .strip_prefix(&format!("# TYPE {name} "))
            .unwrap_or_else(|| panic!("{name}: second line is not its TYPE: {type_line}"));
        assert!(["counter", "gauge", "histogram"].contains(&kind), "{kind}");

        // Histogram series keyed by their non-`le` labels.
        let mut cumulative: BTreeMap<String, u64> = BTreeMap::new();
        let mut inf: BTreeMap<String, u64> = BTreeMap::new();
        let mut count: BTreeMap<String, u64> = BTreeMap::new();
        let mut samples = 0;
        for sample in lines {
            assert!(!sample.starts_with('#'), "{name}: extra comment {sample}");
            assert_eq!(family_of(sample, kind), name, "{sample}");
            samples += 1;
            if kind != "histogram" {
                continue;
            }
            let (series, value) = sample.rsplit_once(' ').unwrap();
            let labels = series
                .split_once('{')
                .map_or("", |(_, rest)| rest.trim_end_matches('}'));
            let series_key: String = labels
                .split(',')
                .filter(|label| !label.starts_with("le=") && !label.is_empty())
                .collect::<Vec<_>>()
                .join(",");
            if series.contains("_bucket{") {
                let value: u64 = value.parse().unwrap();
                let previous = cumulative.insert(series_key.clone(), value).unwrap_or(0);
                assert!(value >= previous, "{name}: bucket decreases at {sample}");
                if labels.contains("le=\"+Inf\"") {
                    inf.insert(series_key, value);
                }
            } else if series.contains("_count") {
                count.insert(series_key, value.parse().unwrap());
            }
        }
        assert!(samples > 0, "{name} has no samples");
        assert_eq!(inf, count, "{name}: +Inf bucket differs from _count");
    }
}
