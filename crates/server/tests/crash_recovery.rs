//! The durability acceptance test (§5 + the store layer): a journaled
//! server is killed with SIGKILL mid-service, restarted from its data
//! directory, and must serve a byte-identical `/exams/{id}/analysis`
//! report — plus keep the sitting that was mid-flight at the crash
//! alive and finishable.

mod support;

use serde::{Number, Value};

use mine_server::http::Request;
use mine_server::{open_journaled_state, HttpClient, Router};
use mine_store::StoreOptions;
use support::{
    answer_json, correct_answer_json, repository, run_full_sitting, spawn_node, start_sitting,
    temp_dir,
};

#[test]
fn kill_nine_mid_sitting_then_restart_serves_byte_identical_analysis() {
    let dir = temp_dir("crash-recovery");
    // A journaled node without replication; its `never` fsync policy
    // maximizes the unflushed window, and a SIGKILL must still lose
    // nothing because every append hit the page cache before the
    // handler acknowledged the request.
    let mut node = spawn_node(&dir, &[]);
    let addr = node.http.clone();

    // Six complete sittings, then a seventh left mid-flight: one of two
    // problems answered when the power goes out.
    for index in 0..6 {
        run_full_sitting(&addr, index);
    }
    let mut client = HttpClient::connect(&addr).expect("connect");
    let (mid_session, mid_order) = start_sitting(&mut client, 6);
    let first_answer = format!(
        "{{\"answer\":{},\"time_spent_secs\":12}}",
        answer_json(&mid_order[0], 6)
    );
    let answered = client
        .post(&format!("/sessions/{mid_session}/answers"), &first_answer)
        .expect("mid answer");
    assert_eq!(answered.status, 200, "{}", answered.body);

    // An adaptive (CAT) sitting is also mid-flight: one step journaled,
    // the estimator state live only in memory when the power goes out.
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

    // Controls: the analysis and the adaptive status (θ̂, SE, next item)
    // the uncrashed server serves right now.
    let control = client
        .get("/exams/final/analysis")
        .expect("control analysis");
    assert_eq!(control.status, 200, "{}", control.body);
    let cat_control = client
        .get(&format!("/sessions/{cat_session}"))
        .expect("control adaptive status");
    assert_eq!(cat_control.status, 200, "{}", cat_control.body);

    node.kill();

    // Restart from the same directory, in-process this time.
    let (state, report) =
        open_journaled_state(repository(), &dir, StoreOptions::default(), 8).expect("recover");
    assert!(
        report.notes.is_empty(),
        "every journaled event must replay cleanly: {:?}",
        report.notes
    );
    let router = Router::with_state(state);

    // The acceptance bar: byte-identical analysis after the crash.
    // The default mode is streaming, so this also proves the engine
    // rebuilt from WAL replay matches the dead server's live counters.
    let served = router.handle(&Request::new("GET", "/exams/final/analysis", ""));
    assert_eq!(served.status, 200, "{}", served.body);
    assert_eq!(served.body, control.body, "analysis must be byte-identical");
    let served_batch = router.handle(&Request::new("GET", "/exams/final/analysis?mode=batch", ""));
    assert_eq!(served_batch.status, 200, "{}", served_batch.body);
    assert_eq!(
        served_batch.body, control.body,
        "batch recomputation must agree with the replayed streaming report"
    );

    // The mid-flight sitting survived with its answer intact and can be
    // driven to completion on the restarted server.
    let status = router.handle(&Request::new(
        "GET",
        &format!("/sessions/{mid_session}"),
        "",
    ));
    assert_eq!(status.status, 200, "{}", status.body);
    let status: Value = serde_json::from_str(&status.body).expect("status body");
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
    let answered = router.handle(&Request::new(
        "POST",
        &format!("/sessions/{mid_session}/answers"),
        second_answer.as_str(),
    ));
    assert_eq!(answered.status, 200, "{}", answered.body);
    let finished = router.handle(&Request::new(
        "POST",
        &format!("/sessions/{mid_session}/finish"),
        "",
    ));
    assert_eq!(finished.status, 200, "{}", finished.body);

    // The adaptive sitting replayed to the exact pre-crash state: the
    // status body — ability estimate, SE, step count, next item — is
    // byte-identical to what the dead server was serving.
    let cat_replayed = router.handle(&Request::new(
        "GET",
        &format!("/sessions/{cat_session}"),
        "",
    ));
    assert_eq!(cat_replayed.status, 200, "{}", cat_replayed.body);
    assert_eq!(
        cat_replayed.body, cat_control.body,
        "replayed adaptive status must be byte-identical"
    );

    // …and it is still live: the second step and the finish succeed.
    let cat_replayed: Value = serde_json::from_str(&cat_replayed.body).expect("status body");
    let cat_next = cat_replayed
        .get("current")
        .and_then(|c| c.get("id"))
        .and_then(Value::as_str)
        .expect("next adaptive item")
        .to_string();
    let cat_answered = router.handle(&Request::new(
        "POST",
        &format!("/sessions/{cat_session}/answers"),
        format!(
            "{{\"answer\":{},\"time_spent_secs\":8}}",
            correct_answer_json(&cat_next)
        ),
    ));
    assert_eq!(cat_answered.status, 200, "{}", cat_answered.body);
    let cat_finished = router.handle(&Request::new(
        "POST",
        &format!("/sessions/{cat_session}/finish"),
        "",
    ));
    assert_eq!(cat_finished.status, 200, "{}", cat_finished.body);

    // With both mid-flight records filed the report covers them all.
    let after = router.handle(&Request::new("GET", "/exams/final/analysis", ""));
    assert_eq!(after.status, 200);
    assert!(after.body.contains("\"class_size\":8"), "{}", after.body);
    std::fs::remove_dir_all(&dir).unwrap();
}
