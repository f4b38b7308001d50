//! Anti-entropy acceptance tests: a three-node cluster detects
//! scheduled bit rot online, quarantines the damaged segment (the
//! evidence file survives), repairs from a healthy peer through the
//! existing snapshot-shipping path, and loses **zero acked events** —
//! the repaired follower serves a byte-identical analysis. Separately,
//! a primary whose WAL starts refusing fsyncs flips to degraded
//! read-only serving instead of dying: writes get `503 + Retry-After`
//! naming storage, reads and `/metrics` stay live, the follower's
//! failure detector treats the degraded primary as failed and promotes
//! past it, and the wounded node heals itself once the disk recovers.
//! Both scenarios end with the offline auditor finding every journal
//! coherent.

mod support;

use std::path::Path;
use std::time::{Duration, Instant};

use serde::Value;

use mine_server::{audit_dirs, HttpClient};
use support::{
    healthz, healthz_u64, repository, reserve_addr, run_full_sitting, spawn_node, temp_dir,
    wait_for, ChildNode, REPLICATED,
};

/// A node as this suite runs it: replicating, every acked write on
/// disk before the ack (the degraded-mode scenario injects fsync
/// failures and the ack must never race them), and no compaction
/// cadence (the bit-rot scenario needs its sealed segments to stay on
/// disk until the scrubber reaches them). `envs` add to that.
fn spawn_ae_node(dir: &Path, envs: &[(&str, &str)]) -> ChildNode {
    let base = [
        REPLICATED,
        ("MINE_NODE_FSYNC", "always"),
        ("MINE_NODE_SNAPSHOT_EVERY", "1000000"),
    ];
    spawn_node(dir, &[&base[..], envs].concat())
}

/// Scrapes `/metrics` and returns the value of one unlabeled series.
fn metric_value(addr: &str, name: &str) -> u64 {
    let mut client = HttpClient::connect(addr).expect("connect metrics");
    let response = client.get("/metrics").expect("metrics");
    let prefix = format!("{name} ");
    response
        .body
        .lines()
        .find_map(|line| line.strip_prefix(&prefix))
        .unwrap_or_else(|| panic!("metric {name} missing from:\n{}", response.body))
        .trim()
        .parse()
        .expect("metric value")
}

/// Polls `/metrics` until `check` passes on `name`, returning the last
/// value either way.
fn wait_metric(addr: &str, name: &str, what: &str, check: impl Fn(u64) -> bool) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let value = metric_value(addr, name);
        if check(value) {
            return value;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last {name} = {value}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Whether the directory holds a quarantined segment: the renamed-not-
/// deleted evidence of a repair.
fn has_quarantine_file(dir: &Path) -> bool {
    std::fs::read_dir(dir).unwrap().any(|entry| {
        entry
            .unwrap()
            .file_name()
            .to_string_lossy()
            .ends_with(".quarantine")
    })
}

/// Scenario A: scheduled bit rot strikes a sealed segment on a
/// follower. Its scrubber must detect the damage online, quarantine the
/// segment (evidence preserved), re-bootstrap from the primary, and
/// come back serving the identical analysis — with the whole story told
/// in the new metrics, and the auditor finding all three journals
/// coherent afterwards.
#[test]
fn bitrot_on_follower_is_quarantined_and_repaired_online() {
    let a_dir = temp_dir("antientropy-bitrot-a");
    let b_dir = temp_dir("antientropy-bitrot-b");
    let c_dir = temp_dir("antientropy-bitrot-c");

    // Tiny segments so record 3 lands in a sealed segment within the
    // first sittings; a fast scrub cadence so detection is prompt.
    let mut node_a = spawn_ae_node(
        &a_dir,
        &[
            ("MINE_NODE_SEGMENT_BYTES", "256"),
            ("MINE_NODE_SCRUB_MS", "200"),
        ],
    );
    let mut node_b = spawn_ae_node(
        &b_dir,
        &[
            ("MINE_NODE_REPLICA_OF", node_a.repl.as_str()),
            ("MINE_NODE_SEGMENT_BYTES", "256"),
            ("MINE_NODE_SCRUB_MS", "200"),
            ("MINE_FAULT_PLAN", "disk.bitrot@3:4"),
        ],
    );
    let mut node_c = spawn_ae_node(
        &c_dir,
        &[
            ("MINE_NODE_REPLICA_OF", node_a.repl.as_str()),
            ("MINE_NODE_SEGMENT_BYTES", "256"),
            ("MINE_NODE_SCRUB_MS", "200"),
        ],
    );
    wait_for(&node_b.http, "b bootstraps as follower", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
    });
    wait_for(&node_c.http, "c bootstraps as follower", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
    });

    // Enough acked history to seal several 256-byte segments on every
    // node — including the one record 3 lives in on b.
    for index in 0..4 {
        run_full_sitting(&node_a.http, index);
    }
    let mut client = HttpClient::connect(&node_a.http).expect("connect a");
    let control = client
        .get("/exams/final/analysis")
        .expect("control analysis");
    assert_eq!(control.status, 200, "{}", control.body);
    let head = healthz_u64(&healthz(&node_a.http), "last_applied_seq");
    assert!(head > 0);
    wait_for(&node_b.http, "b catches up", |health| {
        healthz_u64(health, "last_applied_seq") >= head
    });
    wait_for(&node_c.http, "c catches up", |health| {
        healthz_u64(health, "last_applied_seq") >= head
    });

    // The primary's integrity table is served to peers.
    let ranges = client.get("/admin/ranges").expect("admin ranges");
    assert_eq!(ranges.status, 200, "{}", ranges.body);
    let ranges: Value = ranges.json().expect("ranges json");
    assert_eq!(healthz_u64(&ranges, "head_seq"), head);
    assert!(
        healthz_u64(&ranges, "epoch") >= mine_store::INITIAL_EPOCH,
        "{ranges:?}"
    );

    // The scrubber on b strikes the scheduled rot, must detect it in
    // the same pass, quarantine the segment, and repair through a
    // re-bootstrap — all visible in the metrics.
    wait_metric(
        &node_b.http,
        "mine_scrub_corrupt_segments_total",
        "b detects the injected bit rot",
        |corrupt| corrupt >= 1,
    );
    wait_metric(
        &node_b.http,
        "mine_repair_segments_total",
        "b repairs the quarantined segment",
        |repaired| repaired >= 1,
    );
    assert!(
        has_quarantine_file(&b_dir),
        "quarantine must preserve the damaged segment as evidence"
    );

    // Zero acked loss: after the repair b is caught back up and serves
    // the primary's analysis byte for byte; the clean sibling agrees.
    wait_for(&node_b.http, "b recovers to the acked head", |health| {
        healthz_u64(health, "last_applied_seq") >= head
    });
    for node in [&node_b, &node_c] {
        let mut reader = HttpClient::connect(&node.http).expect("connect follower");
        let served = reader
            .get("/exams/final/analysis")
            .expect("follower analysis");
        assert_eq!(served.status, 200, "{}", served.body);
        assert_eq!(
            served.body, control.body,
            "analysis must be byte-identical after repair"
        );
    }

    // The repaired follower is a live replica again: fresh acked work
    // reaches it through the re-established stream.
    run_full_sitting(&node_a.http, 4);
    let new_head = healthz_u64(&healthz(&node_a.http), "last_applied_seq");
    assert!(new_head > head);
    wait_for(&node_b.http, "b applies post-repair work", |health| {
        healthz_u64(health, "last_applied_seq") >= new_head
    });

    // Every node scrubs; nobody is degraded.
    for node in [&node_a, &node_b, &node_c] {
        assert!(metric_value(&node.http, "mine_scrub_passes_total") >= 1);
        assert_eq!(metric_value(&node.http, "mine_storage_degraded"), 0);
        let health = healthz(&node.http);
        assert_eq!(
            health.get("storage").and_then(Value::as_str),
            Some("ok"),
            "{health:?}"
        );
    }

    node_a.kill();
    node_b.kill();
    node_c.kill();

    // The auditor must find all three journals internally sound, the
    // acked prefixes byte-identical, and replay deterministic — the
    // quarantine file is evidence, not part of the log.
    let dirs = [a_dir.clone(), b_dir.clone(), c_dir.clone()];
    let loader = || Ok(repository());
    let report = audit_dirs(&dirs, Some(&loader)).expect("audit runs");
    assert!(
        report.is_clean(),
        "audit must be clean after online repair:\n{}",
        report.render()
    );
    assert_eq!(
        serde_json::from_str::<Value>(&serde_json::to_string(&report).unwrap())
            .unwrap()
            .get("clean"),
        Some(&Value::Bool(true)),
        "the JSON report must carry the same verdict"
    );

    std::fs::remove_dir_all(&a_dir).unwrap();
    std::fs::remove_dir_all(&b_dir).unwrap();
    std::fs::remove_dir_all(&c_dir).unwrap();
}

/// Scenario B: the primary's disk starts refusing fsyncs mid-service.
/// Instead of poisoning the store forever, the node flips to degraded
/// read-only serving — writes shed with `503 + Retry-After` naming
/// storage, reads and metrics stay live — the follower's detector
/// treats the degraded primary as failed and promotes past it, and the
/// wounded node heals itself once the disk recovers.
#[test]
fn degraded_primary_sheds_writes_serves_reads_and_is_promoted_past() {
    let p_dir = temp_dir("antientropy-degraded-p");
    let f_dir = temp_dir("antientropy-degraded-f");

    // Four full sittings consume fsync calls 1..=16 (one synced append
    // per event); the failure window starts a little later so the
    // degrade trigger below is an ordinary client write. Ten
    // consecutive failing calls keep the healer's retries failing long
    // enough to observe the degraded plateau, then the disk "recovers".
    let plan = (18..=27)
        .map(|call| format!("disk.fsync_err@{call}"))
        .collect::<Vec<_>>()
        .join(";");
    let p_http = reserve_addr();
    let mut node_p = spawn_ae_node(
        &p_dir,
        &[
            ("MINE_NODE_HTTP", p_http.as_str()),
            ("MINE_FAULT_PLAN", plan.as_str()),
        ],
    );
    assert_eq!(node_p.http, p_http, "primary must bind its reserved port");
    let mut node_f = spawn_ae_node(
        &f_dir,
        &[
            ("MINE_NODE_REPLICA_OF", node_p.repl.as_str()),
            ("MINE_NODE_FAILOVER_MS", "800"),
            // The detector surveys the primary itself: a live but
            // degraded primary must not veto the succession.
            ("MINE_NODE_PEERS", p_http.as_str()),
        ],
    );
    wait_for(&node_f.http, "f bootstraps as follower", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
    });

    for index in 0..4 {
        run_full_sitting(&node_p.http, index);
    }
    let mut client = HttpClient::connect(&node_p.http).expect("connect p");
    let control = client
        .get("/exams/final/analysis")
        .expect("control analysis");
    assert_eq!(control.status, 200, "{}", control.body);
    let head = healthz_u64(&healthz(&node_p.http), "last_applied_seq");
    wait_for(&node_f.http, "f catches up", |health| {
        healthz_u64(health, "last_applied_seq") >= head
    });

    // Write until the fsync window opens. The failing append must NOT
    // poison the node: it answers 503 with Retry-After naming storage,
    // exactly like every later write shed at the dispatch gate.
    let mut degraded = None;
    for attempt in 0..6 {
        let response = client
            .post(
                "/sessions",
                &format!("{{\"exam\":\"final\",\"student\":\"t{attempt:02}\"}}"),
            )
            .expect("trigger write");
        if response.status == 503 {
            degraded = Some(response);
            break;
        }
        assert_eq!(response.status, 201, "{}", response.body);
    }
    let first = degraded.expect("the fsync window never opened");
    assert!(first.body.contains("storage degraded"), "{}", first.body);
    assert_eq!(
        first.retry_after,
        Some(2),
        "the degrading request itself must carry Retry-After"
    );

    // Degraded, not dead: writes shed, reads and observability live.
    let shed = client
        .post("/sessions", "{\"exam\":\"final\",\"student\":\"t99\"}")
        .expect("shed write");
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert!(shed.body.contains("storage degraded"), "{}", shed.body);
    assert_eq!(shed.retry_after, Some(2));
    let read = client.get("/exams/final/analysis").expect("degraded read");
    assert_eq!(read.status, 200, "{}", read.body);
    assert_eq!(read.body, control.body, "reads serve the acked state");
    let health = healthz(&node_p.http);
    assert_eq!(
        health.get("storage").and_then(Value::as_str),
        Some("degraded"),
        "{health:?}"
    );
    assert_eq!(metric_value(&node_p.http, "mine_storage_degraded"), 1);

    // The follower's detector probes the silent leader, sees a live but
    // degraded primary, and promotes past it instead of re-arming.
    wait_for(&node_f.http, "f promotes past the degraded primary", |h| {
        h.get("role").and_then(Value::as_str) == Some("primary")
    });
    assert_eq!(
        healthz_u64(&healthz(&node_f.http), "epoch"),
        mine_store::INITIAL_EPOCH + 1,
        "promotion must fence exactly one epoch ahead"
    );

    // Zero acked loss across the failover, and the new primary accepts
    // fresh work.
    let mut winner = HttpClient::connect(&node_f.http).expect("connect f");
    let served = winner
        .get("/exams/final/analysis")
        .expect("promoted analysis");
    assert_eq!(served.status, 200, "{}", served.body);
    assert_eq!(served.body, control.body);
    run_full_sitting(&node_f.http, 4);

    // The deposed node is fenced behind the new epoch (the winner
    // demotes it; demotion is an admin write and must not be shed)…
    wait_for(&node_p.http, "p adopts the winner's epoch", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
            && healthz_u64(health, "epoch") == mine_store::INITIAL_EPOCH + 1
    });

    // …and once the fsync window closes, the healer un-degrades it:
    // no restart, no operator.
    wait_for(&node_p.http, "p heals itself", |health| {
        health.get("storage").and_then(Value::as_str) == Some("ok")
    });
    assert_eq!(metric_value(&node_p.http, "mine_storage_degraded"), 0);

    node_p.kill();
    node_f.kill();

    // Nothing acked was lost and nothing unacked leaked into either
    // journal: the histories are coherent and replay deterministically.
    let dirs = [p_dir.clone(), f_dir.clone()];
    let loader = || Ok(repository());
    let report = audit_dirs(&dirs, Some(&loader)).expect("audit runs");
    assert!(
        report.is_clean(),
        "audit must be clean after degraded-mode failover:\n{}",
        report.render()
    );

    std::fs::remove_dir_all(&p_dir).unwrap();
    std::fs::remove_dir_all(&f_dir).unwrap();
}
