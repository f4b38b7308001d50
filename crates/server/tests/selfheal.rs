//! The self-healing acceptance test: a three-node cluster runs under a
//! seeded fault schedule (`MINE_FAULT_PLAN=seed=42` on the primary's
//! replication transport), the primary is SIGKILLed mid-sitting, and
//! with **no operator action** exactly one follower suspects the
//! silence, surveys its peer, wins the deterministic succession, and
//! promotes itself through the epoch-fenced path. Every acked event
//! must survive: the new primary serves a byte-identical analysis,
//! finishes the sitting that was mid-flight at the crash, and accepts
//! fresh work. Afterwards `audit_dirs` over all three data directories
//! must come back clean, and the same seed must reproduce the same
//! canonical fault schedule.

mod support;

use std::time::{Duration, Instant};

use serde::{Number, Value};

use mine_server::{audit_dirs, HttpClient};
use mine_store::FaultPlan;
use support::{
    answer_json, healthz, healthz_u64, repository, reserve_addr, role_of, run_full_sitting,
    spawn_node, start_sitting, temp_dir, wait_for, REPLICATED,
};

#[test]
fn seeded_chaos_kill_nine_auto_failover_audits_clean() {
    let a_dir = temp_dir("selfheal-a");
    let b_dir = temp_dir("selfheal-b");
    let c_dir = temp_dir("selfheal-c");

    // The primary ships every replication frame through a seeded fault
    // schedule: drops, duplicates, delays, and partition windows, all
    // derived from seed 42. Followers must absorb all of it.
    let mut node_a = spawn_node(&a_dir, &[REPLICATED, ("MINE_FAULT_PLAN", "seed=42")]);
    let b_http = reserve_addr();
    let c_http = reserve_addr();
    let mut node_b = spawn_node(
        &b_dir,
        &[
            REPLICATED,
            ("MINE_NODE_REPLICA_OF", node_a.repl.as_str()),
            ("MINE_NODE_HTTP", b_http.as_str()),
            ("MINE_NODE_FAILOVER_MS", "1500"),
            ("MINE_NODE_PEERS", c_http.as_str()),
        ],
    );
    let mut node_c = spawn_node(
        &c_dir,
        &[
            REPLICATED,
            ("MINE_NODE_REPLICA_OF", node_a.repl.as_str()),
            ("MINE_NODE_HTTP", c_http.as_str()),
            ("MINE_NODE_FAILOVER_MS", "1500"),
            ("MINE_NODE_PEERS", b_http.as_str()),
        ],
    );
    assert_eq!(node_b.http, b_http, "follower must bind its reserved port");
    assert_eq!(node_c.http, c_http, "follower must bind its reserved port");

    wait_for(&node_b.http, "b bootstraps as follower", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
    });
    wait_for(&node_c.http, "c bootstraps as follower", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
    });

    // Four complete sittings through the chaotic stream, then a fifth
    // left mid-flight: one of two problems answered at the crash.
    for index in 0..4 {
        run_full_sitting(&node_a.http, index);
    }
    let mut client = HttpClient::connect(&node_a.http).expect("connect");
    let (mid_session, mid_order) = start_sitting(&mut client, 4);
    let first_answer = format!(
        "{{\"answer\":{},\"time_spent_secs\":12}}",
        answer_json(&mid_order[0], 4)
    );
    let answered = client
        .post(&format!("/sessions/{mid_session}/answers"), &first_answer)
        .expect("mid answer");
    assert_eq!(answered.status, 200, "{}", answered.body);

    // Control: the analysis the primary serves right now, and its
    // applied position. Both followers must fully absorb the faulty
    // stream before the power goes out.
    let control = client
        .get("/exams/final/analysis")
        .expect("control analysis");
    assert_eq!(control.status, 200, "{}", control.body);
    let head = healthz_u64(&healthz(&node_a.http), "last_applied_seq");
    assert!(head > 0);
    wait_for(&node_b.http, "b catch-up through faults", |health| {
        healthz_u64(health, "last_applied_seq") >= head
    });
    wait_for(&node_c.http, "c catch-up through faults", |health| {
        healthz_u64(health, "last_applied_seq") >= head
    });

    node_a.kill();

    // Unsupervised failover: exactly one follower must promote itself.
    // The succession is deterministic — both are caught up, so the
    // higher advertise address wins the (seq, addr) comparison and the
    // other re-arms its detector.
    let deadline = Instant::now() + Duration::from_secs(20);
    let (winner, loser) = loop {
        let b_role = role_of(&node_b.http);
        let c_role = role_of(&node_c.http);
        match (b_role.as_deref(), c_role.as_deref()) {
            (Some("primary"), Some("primary")) => {
                panic!("split brain: both followers promoted themselves")
            }
            (Some("primary"), _) => break (&node_b, &node_c),
            (_, Some("primary")) => break (&node_c, &node_b),
            _ => {}
        }
        assert!(
            Instant::now() < deadline,
            "no follower promoted itself; roles {b_role:?} / {c_role:?}"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    let winner_health = healthz(&winner.http);
    assert_eq!(
        healthz_u64(&winner_health, "epoch"),
        mine_store::INITIAL_EPOCH + 1,
        "promotion must fence exactly one epoch ahead"
    );

    // The winner demotes its peer by epoch: the loser adopts the new
    // epoch and stays a follower — at most one primary per epoch.
    wait_for(&loser.http, "loser adopts the winner's epoch", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
            && healthz_u64(health, "epoch") == mine_store::INITIAL_EPOCH + 1
    });

    // Zero acked loss: the promoted node serves the dead primary's
    // analysis byte for byte…
    let mut winner_client = HttpClient::connect(&winner.http).expect("connect winner");
    let served = winner_client
        .get("/exams/final/analysis")
        .expect("promoted analysis");
    assert_eq!(served.status, 200, "{}", served.body);
    assert_eq!(
        served.body, control.body,
        "analysis must be byte-identical after auto-failover"
    );

    // …the mid-flight sitting survived with its acked answer and
    // finishes on the new primary…
    let status = winner_client
        .get(&format!("/sessions/{mid_session}"))
        .expect("mid status");
    assert_eq!(status.status, 200, "{}", status.body);
    let status: Value = status.json().unwrap();
    assert!(
        matches!(
            status.get("answered"),
            Some(Value::Number(Number::PosInt(1)))
        ),
        "{status:?}"
    );
    let second_answer = format!(
        "{{\"answer\":{},\"time_spent_secs\":9}}",
        answer_json(&mid_order[1], 4)
    );
    let answered = winner_client
        .post(&format!("/sessions/{mid_session}/answers"), &second_answer)
        .expect("answer on new primary");
    assert_eq!(answered.status, 200, "{}", answered.body);
    let finished = winner_client
        .post(&format!("/sessions/{mid_session}/finish"), "")
        .expect("finish on new primary");
    assert_eq!(finished.status, 200, "{}", finished.body);

    // …and fresh work is accepted.
    run_full_sitting(&winner.http, 5);

    // The detector's work is visible in the metrics.
    let mut scrape = HttpClient::connect(&winner.http).expect("scrape winner");
    let metrics = scrape.get("/metrics").expect("winner metrics");
    assert!(
        metrics.body.contains("mine_repl_role{role=\"primary\"} 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("mine_repl_failovers_total 1"),
        "{}",
        metrics.body
    );
    assert!(
        !metrics.body.contains("mine_repl_suspicions_total 0\n"),
        "at least one suspicion must precede the failover: {}",
        metrics.body
    );

    node_b.kill();
    node_c.kill();

    // The auditor must find the three journals internally sound, every
    // overlapping acked prefix byte-identical, and the replayed state
    // deterministic — even after seeded chaos and two SIGKILLs.
    let dirs = [a_dir.clone(), b_dir.clone(), c_dir.clone()];
    let loader = || Ok(repository());
    let report = audit_dirs(&dirs, Some(&loader)).expect("audit runs");
    assert!(
        report.is_clean(),
        "audit must be clean after the chaos run:\n{}",
        report.render()
    );

    // The same seed reproduces the same canonical fault schedule: the
    // chaos run is replayable from `seed=42` alone.
    let plan_a = FaultPlan::parse("seed=42").expect("parse seed");
    let plan_b = FaultPlan::parse("seed=42").expect("parse seed again");
    assert!(!plan_a.is_empty(), "a bare seed must derive a schedule");
    assert_eq!(plan_a.to_string(), plan_b.to_string());
    assert_eq!(
        FaultPlan::parse(&plan_a.to_string())
            .expect("round trip")
            .to_string(),
        plan_a.to_string(),
        "the canonical rendering must round-trip"
    );

    std::fs::remove_dir_all(&a_dir).unwrap();
    std::fs::remove_dir_all(&b_dir).unwrap();
    std::fs::remove_dir_all(&c_dir).unwrap();
}
