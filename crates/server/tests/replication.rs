//! The failover acceptance test: a primary ships its WAL to a live
//! follower, is SIGKILLed mid-sitting, the follower is promoted via
//! `POST /admin/promote`, and every acked event must be present — the
//! promoted node serves a byte-identical analysis and finishes the
//! sitting that was mid-flight at the crash. The deposed primary,
//! restarted as a replica of the new leader, must adopt the higher
//! epoch (demote) and answer writes with `421` naming the new leader.

mod support;

use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Number, Value};

use mine_server::drain::pause_and_snapshot;
use mine_server::http::Request;
use mine_server::{
    open_journaled_state, start_follower, AckMode, HttpClient, ReplListener, ReplState, Role,
    Router,
};
use mine_store::{StoreOptions, SyncPolicy};
use support::{
    answer_json, correct_answer_json, healthz, healthz_u64, repository, run_full_sitting,
    spawn_node, start_sitting, temp_dir, wait_for, REPLICATED,
};

#[test]
fn kill_nine_primary_promote_follower_loses_no_acked_event() {
    let primary_dir = temp_dir("repl-primary");
    let follower_dir = temp_dir("repl-follower");
    let mut primary = spawn_node(&primary_dir, &[REPLICATED]);
    let mut follower = spawn_node(
        &follower_dir,
        &[REPLICATED, ("MINE_NODE_REPLICA_OF", primary.repl.as_str())],
    );

    // The follower must bootstrap and report itself as a follower.
    wait_for(&follower.http, "follower role", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
    });

    // Six complete sittings against the primary, then a seventh left
    // mid-flight: one of two problems answered when the power goes out.
    for index in 0..6 {
        run_full_sitting(&primary.http, index);
    }
    let mut client = HttpClient::connect(&primary.http).expect("connect");
    let (mid_session, mid_order) = start_sitting(&mut client, 6);
    let first_answer = format!(
        "{{\"answer\":{},\"time_spent_secs\":12}}",
        answer_json(&mid_order[0], 6)
    );
    let answered = client
        .post(&format!("/sessions/{mid_session}/answers"), &first_answer)
        .expect("mid answer");
    assert_eq!(answered.status, 200, "{}", answered.body);

    // An adaptive (CAT) sitting is also mid-flight on the primary: one
    // step acked and shipped when the power goes out.
    let cat_started = client
        .post(
            "/sessions",
            "{\"exam\":\"final\",\"student\":\"cat1\",\"seed\":7,\"mode\":\"adaptive\",\
             \"max_items\":2,\"se_threshold\":0.001}",
        )
        .expect("start adaptive");
    assert_eq!(cat_started.status, 201, "{}", cat_started.body);
    let cat_status: Value = cat_started.json().expect("adaptive start body");
    let cat_session = cat_status
        .get("session")
        .and_then(Value::as_str)
        .expect("adaptive session id")
        .to_string();
    let cat_first = cat_status
        .get("current")
        .and_then(|c| c.get("id"))
        .and_then(Value::as_str)
        .expect("adaptive current item")
        .to_string();
    let cat_answered = client
        .post(
            &format!("/sessions/{cat_session}/answers"),
            &format!(
                "{{\"answer\":{},\"time_spent_secs\":11}}",
                correct_answer_json(&cat_first)
            ),
        )
        .expect("adaptive answer");
    assert_eq!(cat_answered.status, 200, "{}", cat_answered.body);
    let cat_control = client
        .get(&format!("/sessions/{cat_session}"))
        .expect("control adaptive status");
    assert_eq!(cat_control.status, 200, "{}", cat_control.body);

    // Control: the analysis the primary serves right now — streamed
    // from its live counters by default, and cross-checked against the
    // batch pipeline — and its applied position. Wait until the
    // follower has applied everything.
    let control = client
        .get("/exams/final/analysis")
        .expect("control analysis");
    assert_eq!(control.status, 200, "{}", control.body);
    let control_batch = client
        .get("/exams/final/analysis?mode=batch")
        .expect("control batch analysis");
    assert_eq!(control_batch.status, 200, "{}", control_batch.body);
    assert_eq!(
        control_batch.body, control.body,
        "streaming and batch reports must agree on the primary"
    );
    let primary_health = healthz(&primary.http);
    let head = healthz_u64(&primary_health, "last_applied_seq");
    assert!(head > 0);
    wait_for(&follower.http, "follower catch-up", |health| {
        healthz_u64(health, "last_applied_seq") >= head
    });

    // Both sides expose replication gauges in the Prometheus text.
    let mut scrape = HttpClient::connect(&primary.http).expect("scrape primary");
    let metrics = scrape.get("/metrics").expect("primary metrics");
    assert!(
        metrics.body.contains("mine_repl_role{role=\"primary\"} 1"),
        "{}",
        metrics.body
    );
    assert!(
        metrics.body.contains("mine_repl_followers 1"),
        "{}",
        metrics.body
    );
    let mut scrape = HttpClient::connect(&follower.http).expect("scrape follower");
    let metrics = scrape.get("/metrics").expect("follower metrics");
    assert!(
        metrics.body.contains("mine_repl_role{role=\"follower\"} 1"),
        "{}",
        metrics.body
    );

    // A write against the follower is refused with 421 naming the
    // leader — it is a read replica, not a second writer.
    let mut follower_client = HttpClient::connect(&follower.http).expect("connect follower");
    let refused = follower_client
        .post("/sessions", "{\"exam\":\"final\",\"student\":\"rogue\"}")
        .expect("refused write");
    assert_eq!(refused.status, 421, "{}", refused.body);
    let refused: Value = refused.json().unwrap();
    assert_eq!(
        refused.get("leader").and_then(Value::as_str),
        Some(primary.http.as_str())
    );

    primary.kill();

    // Supervised failover: promote the follower.
    let promoted = follower_client.post("/admin/promote", "").expect("promote");
    assert_eq!(promoted.status, 200, "{}", promoted.body);
    let promoted: Value = promoted.json().unwrap();
    assert_eq!(
        promoted.get("role").and_then(Value::as_str),
        Some("primary")
    );
    let new_epoch = healthz_u64(&promoted, "epoch");
    assert_eq!(new_epoch, mine_store::INITIAL_EPOCH + 1);
    let health = healthz(&follower.http);
    assert_eq!(health.get("role").and_then(Value::as_str), Some("primary"));
    assert_eq!(healthz_u64(&health, "epoch"), new_epoch);

    // The acceptance bar: every acked event is present. The promoted
    // node serves the same six-student analysis byte for byte — its
    // streaming engine was rebuilt through the same apply path
    // (bootstrap snapshot + shipped records), so the default streaming
    // report reproduces the dead primary's exactly…
    let mut follower_client = HttpClient::connect(&follower.http).expect("reconnect");
    let served = follower_client
        .get("/exams/final/analysis")
        .expect("promoted analysis");
    assert_eq!(served.status, 200, "{}", served.body);
    assert_eq!(
        served.body, control.body,
        "streaming analysis must be byte-identical"
    );
    // …and so does its batch pipeline over the replicated records.
    let served_batch = follower_client
        .get("/exams/final/analysis?mode=batch")
        .expect("promoted batch analysis");
    assert_eq!(served_batch.status, 200, "{}", served_batch.body);
    assert_eq!(
        served_batch.body, control.body,
        "batch analysis must be byte-identical"
    );

    // …and the mid-flight sitting survived with its acked answer and
    // can be driven to completion on the new primary.
    let status = follower_client
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
        answer_json(&mid_order[1], 6)
    );
    let answered = follower_client
        .post(&format!("/sessions/{mid_session}/answers"), &second_answer)
        .expect("answer on new primary");
    assert_eq!(answered.status, 200, "{}", answered.body);
    let finished = follower_client
        .post(&format!("/sessions/{mid_session}/finish"), "")
        .expect("finish on new primary");
    assert_eq!(finished.status, 200, "{}", finished.body);

    // The adaptive sitting replicated to the exact acked state: the
    // promoted node serves a byte-identical status — same ability
    // estimate, SE, step count, and next-item choice — and the sitting
    // finishes there.
    let cat_promoted = follower_client
        .get(&format!("/sessions/{cat_session}"))
        .expect("promoted adaptive status");
    assert_eq!(cat_promoted.status, 200, "{}", cat_promoted.body);
    assert_eq!(
        cat_promoted.body, cat_control.body,
        "replicated adaptive status must be byte-identical"
    );
    let cat_promoted: Value = serde_json::from_str(&cat_promoted.body).unwrap();
    let cat_next = cat_promoted
        .get("current")
        .and_then(|c| c.get("id"))
        .and_then(Value::as_str)
        .expect("next adaptive item")
        .to_string();
    let cat_answered = follower_client
        .post(
            &format!("/sessions/{cat_session}/answers"),
            &format!(
                "{{\"answer\":{},\"time_spent_secs\":8}}",
                correct_answer_json(&cat_next)
            ),
        )
        .expect("adaptive answer on new primary");
    assert_eq!(cat_answered.status, 200, "{}", cat_answered.body);
    let cat_finished = follower_client
        .post(&format!("/sessions/{cat_session}/finish"), "")
        .expect("adaptive finish on new primary");
    assert_eq!(cat_finished.status, 200, "{}", cat_finished.body);

    // Epoch fencing: restart the deposed primary from its own data
    // directory as a replica of the new leader. It must adopt the
    // higher epoch (demote), resync, and redirect writes to the new
    // leader — its stale epoch never wins anything.
    let mut deposed = spawn_node(
        &primary_dir,
        &[REPLICATED, ("MINE_NODE_REPLICA_OF", follower.repl.as_str())],
    );
    wait_for(&deposed.http, "deposed primary to demote", |health| {
        health.get("role").and_then(Value::as_str) == Some("follower")
            && healthz_u64(health, "epoch") == new_epoch
    });
    // It resyncs to the new leader's history, including the seventh
    // sitting it was killed in the middle of.
    let follower_head = healthz_u64(&healthz(&follower.http), "last_applied_seq");
    wait_for(&deposed.http, "deposed primary catch-up", |health| {
        healthz_u64(health, "last_applied_seq") >= follower_head
    });
    let mut deposed_client = HttpClient::connect(&deposed.http).expect("connect deposed");
    let resynced = deposed_client
        .get("/exams/final/analysis")
        .expect("resynced analysis");
    assert_eq!(resynced.status, 200, "{}", resynced.body);
    assert!(
        resynced.body.contains("\"class_size\":8"),
        "{}",
        resynced.body
    );
    let stale_write = deposed_client
        .post("/sessions", "{\"exam\":\"final\",\"student\":\"stale\"}")
        .expect("stale write");
    assert_eq!(stale_write.status, 421, "{}", stale_write.body);
    let stale_write: Value = stale_write.json().unwrap();
    assert_eq!(
        stale_write.get("leader").and_then(Value::as_str),
        Some(follower.http.as_str())
    );

    deposed.kill();
    follower.kill();
    std::fs::remove_dir_all(&primary_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

/// An in-process journaled node with a replication role.
fn in_process_node(dir: &PathBuf, role: Role) -> (Router, Arc<ReplState>) {
    let options = StoreOptions {
        sync: SyncPolicy::Never,
        ..StoreOptions::default()
    };
    let (mut state, _) = open_journaled_state(repository(), dir, options, 0).expect("open");
    let repl = Arc::new(ReplState::new(role, AckMode::Leader));
    state.repl = Some(Arc::clone(&repl));
    (Router::with_state(state), repl)
}

fn handle_ok(router: &Router, method: &str, path: &str, body: &str) -> Value {
    let response = router.handle(&Request::new(method, path, body));
    assert!(response.status < 300, "{method} {path}: {}", response.body);
    serde_json::from_str(&response.body).unwrap()
}

/// Regression: a bootstrap install used to move the follower's
/// `last_applied_seq` to the image's seq before the registries were
/// restored, and restored them by clearing first. A client that waited
/// for the head and then read could get `409 no finished sittings`.
/// The head must reach the image seq only once the image is readable,
/// and a re-bootstrap must never expose an emptied state.
#[test]
fn healthz_head_never_runs_ahead_of_a_bootstrap_restore() {
    let primary_dir = temp_dir("repl-boot-primary");
    let follower_dir = temp_dir("repl-boot-follower");
    let (primary, _) = in_process_node(&primary_dir, Role::Primary);
    // A large image makes each restore take a while.
    for index in 0..300 {
        let started = handle_ok(
            &primary,
            "POST",
            "/sessions",
            &format!("{{\"exam\":\"final\",\"student\":\"b{index:03}\",\"seed\":{index}}}"),
        );
        let session = started.get("session").and_then(Value::as_str).unwrap();
        for problem in started.get("problems").and_then(Value::as_array).unwrap() {
            let problem = problem.get("id").and_then(Value::as_str).unwrap();
            let body = format!(
                "{{\"answer\":{},\"time_spent_secs\":9}}",
                answer_json(problem, index)
            );
            handle_ok(
                &primary,
                "POST",
                &format!("/sessions/{session}/answers"),
                &body,
            );
        }
        handle_ok(&primary, "POST", &format!("/sessions/{session}/finish"), "");
    }
    let image_seq = primary.state().journal.as_ref().unwrap().applied_seq();
    let listener = ReplListener::start("127.0.0.1:0", primary.clone()).expect("bind repl");
    let (follower, follower_repl) = in_process_node(&follower_dir, Role::Follower);
    let puller = start_follower(listener.local_addr().to_string(), follower.clone());

    // A reader that trusts the head: once `/healthz` reports the image
    // seq, an analysis read must find the class.
    let stop = Arc::new(AtomicBool::new(false));
    let checked = Arc::new(AtomicUsize::new(0));
    let reader = {
        let (follower, stop, checked) = (follower.clone(), Arc::clone(&stop), Arc::clone(&checked));
        std::thread::spawn(move || {
            let mut conflicts = Vec::new();
            while !stop.load(Ordering::Acquire) {
                let health = handle_ok(&follower, "GET", "/healthz", "");
                if healthz_u64(&health, "last_applied_seq") < image_seq {
                    continue;
                }
                let read = follower.handle(&Request::new("GET", "/exams/final/analysis", ""));
                checked.fetch_add(1, Ordering::Relaxed);
                if read.status == 409 {
                    conflicts.push(read.body);
                }
            }
            conflicts
        })
    };

    let deadline = Instant::now() + Duration::from_secs(30);
    for round in 0..6 {
        if round > 0 {
            follower_repl.request_resync();
        }
        while follower_repl.resync_requested()
            || follower.state().journal.as_ref().unwrap().applied_seq() < image_seq
        {
            assert!(
                Instant::now() < deadline,
                "bootstrap round {round} never finished"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }
    stop.store(true, Ordering::Release);
    let conflicts = reader.join().unwrap();
    follower_repl.stop_puller();
    puller.join();
    listener.shutdown();
    assert!(
        checked.load(Ordering::Relaxed) > 0,
        "the reader never saw the head"
    );
    assert!(
        conflicts.is_empty(),
        "{} read(s) at the image head answered 409: {:?}",
        conflicts.len(),
        conflicts.first()
    );
    drop((primary, follower));
    std::fs::remove_dir_all(&primary_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}

/// Regression: the drain pass journaled its `Paused` events without
/// shipping them or advancing the primary's head, so a follower
/// promoted after a planned drain still served those sittings as
/// active.
#[test]
fn drain_pauses_reach_the_follower() {
    let primary_dir = temp_dir("repl-drain-primary");
    let follower_dir = temp_dir("repl-drain-follower");
    let (primary, _) = in_process_node(&primary_dir, Role::Primary);
    let listener = ReplListener::start("127.0.0.1:0", primary.clone()).expect("bind repl");
    let (follower, follower_repl) = in_process_node(&follower_dir, Role::Follower);
    let puller = start_follower(listener.local_addr().to_string(), follower.clone());
    let head = |router: &Router| router.state().journal.as_ref().unwrap().applied_seq();
    let catch_up = |what: &str| {
        let deadline = Instant::now() + Duration::from_secs(30);
        while head(&follower) < head(&primary) {
            assert!(Instant::now() < deadline, "follower never caught up {what}");
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(head(&follower), head(&primary), "{what}");
    };

    let started = handle_ok(
        &primary,
        "POST",
        "/sessions",
        "{\"exam\":\"final\",\"student\":\"d01\",\"seed\":1}",
    );
    let session = started.get("session").and_then(Value::as_str).unwrap();
    catch_up("with the start");
    let before = head(&primary);

    let report = pause_and_snapshot(primary.state());
    assert_eq!(report.sessions_paused, 1, "{:?}", report.notes);
    assert!(report.notes.is_empty(), "{:?}", report.notes);
    assert!(
        head(&primary) > before,
        "the drain's pause left the primary's head at {before}"
    );
    catch_up("with the drain");
    let read = handle_ok(&follower, "GET", &format!("/sessions/{session}"), "");
    assert_eq!(
        read.get("state").and_then(Value::as_str),
        Some("paused"),
        "{read:?}"
    );

    follower_repl.stop_puller();
    puller.join();
    listener.shutdown();
    drop((primary, follower));
    std::fs::remove_dir_all(&primary_dir).unwrap();
    std::fs::remove_dir_all(&follower_dir).unwrap();
}
