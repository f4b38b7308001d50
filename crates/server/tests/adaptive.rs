//! Adaptive (CAT) delivery end-to-end: sittings served one item at a
//! time over HTTP, journaled per step, validated with named fields,
//! and filed into the same analysis pipeline fixed-form sittings use.
//! The proptest at the bottom is the durability acceptance bar: WAL
//! replay must reproduce the live estimator state and next-item choice
//! byte for byte over random answer sequences.

use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use serde::{Number, Value};

use mine_core::OptionKey;
use mine_itembank::{Calibration, ChoiceOption, Exam, Problem, Repository};
use mine_server::http::Request;
use mine_server::{open_journaled_state, HttpClient, Router, ServeOptions, Server, ServerImage};
use mine_store::{StoreOptions, SyncPolicy};

/// A bank of `n` calibrated two-option problems ("answer A is right")
/// with difficulties spread over [-2, 2], collected into exam `cat`.
fn calibrated_repository(n: usize) -> Repository {
    let repo = Repository::new();
    let mut builder = Exam::builder("cat").unwrap();
    for i in 0..n {
        let id = format!("a{i:02}");
        let difficulty = -2.0 + 4.0 * i as f64 / (n - 1).max(1) as f64;
        repo.insert_problem(
            Problem::multiple_choice(
                id.as_str(),
                format!("Item {i}: pick A."),
                [
                    ChoiceOption::new(OptionKey::A, "yes"),
                    ChoiceOption::new(OptionKey::B, "no"),
                ],
                OptionKey::A,
            )
            .unwrap()
            .with_calibration(Calibration::new(1.2, difficulty, 0.1)),
        )
        .unwrap();
        builder = builder.entry(id.parse().unwrap());
    }
    repo.insert_exam(builder.build().unwrap()).unwrap();
    repo
}

fn as_str<'v>(value: &'v Value, field: &str) -> &'v str {
    value
        .get(field)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("missing string field {field}: {value:?}"))
}

fn as_u64(value: &Value, field: &str) -> u64 {
    match value.get(field) {
        Some(Value::Number(Number::PosInt(n))) => *n,
        other => panic!("missing numeric field {field}: {other:?}"),
    }
}

/// The id of the item the sitting is currently serving, if any.
fn current_item(status: &Value) -> Option<String> {
    status
        .get("current")
        .and_then(|current| current.get("id"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

fn answer_body(correct: bool) -> String {
    format!(
        "{{\"answer\":{{\"Choice\":\"{}\"}},\"time_spent_secs\":7}}",
        if correct { "A" } else { "B" }
    )
}

#[test]
fn adaptive_sitting_runs_over_http_and_files_into_analysis() {
    let repo = calibrated_repository(8);
    let router = Router::new(repo);
    let server = Server::start(router.clone(), &ServeOptions::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();
    let mut client = HttpClient::connect(&addr).expect("connect");

    // A tiny SE threshold never fires, so the stop rule is max_items.
    let started = client
        .post(
            "/sessions",
            "{\"exam\":\"cat\",\"student\":\"s1\",\"seed\":5,\"mode\":\"adaptive\",\
             \"min_items\":2,\"max_items\":5,\"se_threshold\":0.001}",
        )
        .expect("start");
    assert_eq!(started.status, 201, "{}", started.body);
    let status: Value = started.json().expect("start body");
    assert_eq!(as_str(&status, "mode"), "adaptive");
    assert_eq!(as_str(&status, "state"), "active");
    assert_eq!(as_u64(&status, "steps"), 0);
    assert_eq!(as_u64(&status, "max_items"), 5);
    let session = as_str(&status, "session").to_string();
    assert!(session.contains('~'), "adaptive ids use ~: {session}");

    // Drive to the stop rule, checking each served item is fresh.
    let mut administered = Vec::new();
    let mut status = status;
    let mut last_answer_body = String::new();
    while !matches!(status.get("done"), Some(Value::Bool(true))) {
        let item = current_item(&status).expect("active sitting serves an item");
        assert!(
            !administered.contains(&item),
            "item {item} served twice: {administered:?}"
        );
        administered.push(item);
        let answered = client
            .post(
                &format!("/sessions/{session}/answers"),
                &answer_body(administered.len() % 2 == 1),
            )
            .expect("answer");
        assert_eq!(answered.status, 200, "{}", answered.body);
        last_answer_body = answered.body.clone();
        status = answered.json().expect("answer body");
    }
    assert_eq!(administered.len(), 5, "stop rule is max_items=5");
    assert_eq!(as_str(&status, "state"), "complete");
    assert!(current_item(&status).is_none(), "{status:?}");

    // GET renders the same body the final answer response carried.
    let polled = client.get(&format!("/sessions/{session}")).expect("status");
    assert_eq!(polled.status, 200, "{}", polled.body);
    assert_eq!(polled.body, last_answer_body);

    // A sixth answer is refused before anything is journaled.
    let overflow = client
        .post(&format!("/sessions/{session}/answers"), &answer_body(true))
        .expect("overflow answer");
    assert_eq!(overflow.status, 409, "{}", overflow.body);

    let finished = client
        .post(&format!("/sessions/{session}/finish"), "")
        .expect("finish");
    assert_eq!(finished.status, 200, "{}", finished.body);
    let record: Value = finished.json().expect("record");
    assert_eq!(as_str(&record, "student"), "s1");
    // The record covers the full exam problem set: administered items
    // graded, the rest padded as skipped.
    assert_eq!(
        record
            .get("responses")
            .and_then(Value::as_array)
            .expect("responses")
            .len(),
        8
    );

    // A finished sitting leaves nothing behind: status and answers
    // answer 404, like any unknown id.
    let gone = client
        .get(&format!("/sessions/{session}"))
        .expect("status after finish");
    assert_eq!(gone.status, 404, "{}", gone.body);
    let dead_answer = client
        .post(&format!("/sessions/{session}/answers"), &answer_body(true))
        .expect("answer after finish");
    assert_eq!(dead_answer.status, 404, "{}", dead_answer.body);

    // File a fixed-form sitting alongside (the §4 analysis needs more
    // than one student to form high/low score groups), then check the
    // adaptive record reached the same pipeline.
    let fixed = client
        .post(
            "/sessions",
            "{\"exam\":\"cat\",\"student\":\"s2\",\"seed\":1}",
        )
        .expect("start fixed");
    assert_eq!(fixed.status, 201, "{}", fixed.body);
    let fixed_status: Value = fixed.json().expect("fixed body");
    let fixed_session = as_str(&fixed_status, "session").to_string();
    let fixed_count = fixed_status
        .get("problems")
        .and_then(Value::as_array)
        .expect("problems")
        .len();
    for _ in 0..fixed_count {
        let answered = client
            .post(
                &format!("/sessions/{fixed_session}/answers"),
                &answer_body(true),
            )
            .expect("fixed answer");
        assert_eq!(answered.status, 200, "{}", answered.body);
    }
    let fixed_finished = client
        .post(&format!("/sessions/{fixed_session}/finish"), "")
        .expect("fixed finish");
    assert_eq!(fixed_finished.status, 200, "{}", fixed_finished.body);

    let analysis = client.get("/exams/cat/analysis").expect("analysis");
    assert_eq!(analysis.status, 200, "{}", analysis.body);
    assert!(analysis.body.contains("s1"), "{}", analysis.body);
    assert!(
        analysis.body.contains("\"class_size\":2"),
        "{}",
        analysis.body
    );

    // Metrics: lifecycle counters, step histogram, and the gauge.
    let metrics = client.get("/metrics?format=json").expect("metrics json");
    let metrics: Value = metrics.json().expect("metrics body");
    assert_eq!(as_u64(&metrics, "adaptive_sessions_started"), 1);
    assert_eq!(as_u64(&metrics, "adaptive_sessions_finished"), 1);
    assert_eq!(as_u64(&metrics, "adaptive_sessions_active"), 0);
    assert_eq!(as_u64(&metrics, "adaptive_steps_total"), 5);
    let text = client.get("/metrics").expect("metrics text");
    assert!(
        text.body.contains("mine_adaptive_steps_total 5"),
        "{}",
        text.body
    );
    assert!(
        text.body.contains("mine_adaptive_sessions_active 0"),
        "{}",
        text.body
    );
    assert!(
        text.body
            .contains("# TYPE mine_adaptive_step_seconds histogram"),
        "{}",
        text.body
    );

    server.shutdown();
}

#[test]
fn adaptive_validation_names_the_offending_field() {
    let router = Router::new(calibrated_repository(4));
    let start = |body: &str| router.handle(&Request::new("POST", "/sessions", body));

    let cases = [
        (
            "{\"exam\":\"cat\",\"student\":\"v1\",\"mode\":\"adaptive\",\"se_threshold\":-0.5}",
            "se_threshold",
        ),
        (
            "{\"exam\":\"cat\",\"student\":\"v1\",\"mode\":\"adaptive\",\"max_items\":0}",
            "max_items",
        ),
        (
            "{\"exam\":\"cat\",\"student\":\"v1\",\"mode\":\"adaptive\",\"max_items\":99}",
            "max_items",
        ),
        (
            "{\"exam\":\"cat\",\"student\":\"v1\",\"mode\":\"adaptive\",\
             \"min_items\":4,\"max_items\":2}",
            "min_items",
        ),
    ];
    for (body, field) in cases {
        let response = start(body);
        assert_eq!(response.status, 422, "{body} → {}", response.body);
        let rejection: Value = serde_json::from_str(&response.body).expect("rejection body");
        assert_eq!(as_str(&rejection, "field"), field, "{body}");
        assert!(
            as_str(&rejection, "error").contains(field),
            "{}",
            response.body
        );
    }

    // An unknown mode is a 400, not a silent fixed-form sitting.
    let unknown = start("{\"exam\":\"cat\",\"student\":\"v1\",\"mode\":\"teleport\"}");
    assert_eq!(unknown.status, 400, "{}", unknown.body);

    // A bank with an uncalibrated item cannot be served adaptively, and
    // the rejection names the offending problem.
    let uncalibrated = Repository::new();
    uncalibrated
        .insert_problem(Problem::true_false("raw", "Uncalibrated?", true).unwrap())
        .unwrap();
    uncalibrated
        .insert_exam(
            Exam::builder("cat")
                .unwrap()
                .entry("raw".parse().unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
    let router = Router::new(uncalibrated);
    let response = router.handle(&Request::new(
        "POST",
        "/sessions",
        "{\"exam\":\"cat\",\"student\":\"v1\",\"mode\":\"adaptive\"}",
    ));
    assert_eq!(response.status, 422, "{}", response.body);
    let rejection: Value = serde_json::from_str(&response.body).expect("rejection body");
    assert_eq!(as_str(&rejection, "field"), "item_bank");
    assert!(
        as_str(&rejection, "error").contains("raw"),
        "{}",
        response.body
    );
}

#[test]
fn adaptive_sittings_refuse_pause_and_duplicate_starts() {
    let router = Router::new(calibrated_repository(4));
    let start_body = "{\"exam\":\"cat\",\"student\":\"p1\",\"seed\":3,\"mode\":\"adaptive\"}";
    let started = router.handle(&Request::new("POST", "/sessions", start_body));
    assert_eq!(started.status, 201, "{}", started.body);
    let status: Value = serde_json::from_str(&started.body).unwrap();
    let session = as_str(&status, "session").to_string();

    // CAT has no pause checkpoint: one item is pending, answer or quit.
    let paused = router.handle(&Request::new(
        "POST",
        &format!("/sessions/{session}/pause"),
        "",
    ));
    assert_eq!(paused.status, 409, "{}", paused.body);
    let resumed = router.handle(&Request::new(
        "POST",
        &format!("/sessions/{session}/resume"),
        "",
    ));
    assert_eq!(resumed.status, 409, "{}", resumed.body);

    // The same (exam, student, seed) cannot sit twice.
    let duplicate = router.handle(&Request::new("POST", "/sessions", start_body));
    assert_eq!(duplicate.status, 409, "{}", duplicate.body);
}

/// Two racing finishes of one adaptive sitting, a racing answer and a
/// same-seed re-sit started right behind them: whichever order they land
/// in, the journal replays to the sittings and records the live node
/// holds, with no replay note. A request that found the sitting before a
/// finish freed it must not touch the re-sit.
#[test]
fn racing_finishes_and_a_same_seed_resit_replay_identically() {
    let dir = std::env::temp_dir().join(format!("mine-adaptive-race-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let options = || StoreOptions {
        sync: SyncPolicy::Never,
        ..StoreOptions::default()
    };
    let (state, _) =
        open_journaled_state(calibrated_repository(8), &dir, options(), 1_000_000).expect("open");
    let router = Router::with_state(state);
    let start_body = "{\"exam\":\"cat\",\"student\":\"rr\",\"seed\":3,\"mode\":\"adaptive\"}";
    let start = || router.handle(&Request::new("POST", "/sessions", start_body));
    let started = start();
    assert_eq!(started.status, 201, "{}", started.body);
    let status: Value = serde_json::from_str(&started.body).unwrap();
    let session = as_str(&status, "session").to_string();
    let finish = format!("/sessions/{session}/finish");
    let answer = format!("/sessions/{session}/answers");

    for _ in 0..150 {
        let barrier = std::sync::Barrier::new(4);
        let statuses: Vec<u16> = std::thread::scope(|scope| {
            let racers = [
                scope.spawn(|| {
                    barrier.wait();
                    router.handle(&Request::new("POST", &finish, "")).status
                }),
                scope.spawn(|| {
                    barrier.wait();
                    router.handle(&Request::new("POST", &finish, "")).status
                }),
                scope.spawn(|| {
                    barrier.wait();
                    router
                        .handle(&Request::new("POST", &answer, answer_body(true).as_str()))
                        .status
                }),
                scope.spawn(|| {
                    barrier.wait();
                    start().status
                }),
            ];
            racers.into_iter().map(|r| r.join().unwrap()).collect()
        });
        assert!(
            statuses.iter().all(|s| [200, 201, 404, 409].contains(s)),
            "{statuses:?}"
        );
        // Leave a live sitting for the next round.
        let again = start();
        assert!([201, 409].contains(&again.status), "{}", again.body);
    }
    let live = serde_json::to_string(&ServerImage::capture(
        &router.state().registry,
        &router.state().finished,
        &router.state().adaptive,
    ))
    .unwrap();
    drop(router);

    let (state, report) =
        open_journaled_state(calibrated_repository(8), &dir, options(), 1_000_000)
            .expect("recover");
    assert!(report.notes.is_empty(), "replay notes: {:?}", report.notes);
    let replayed = serde_json::to_string(&ServerImage::capture(
        &state.registry,
        &state.finished,
        &state.adaptive,
    ))
    .unwrap();
    assert_eq!(replayed, live, "replay must reproduce the live image");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn mixed_adaptive_and_fixed_population_streams_identical_to_batch() {
    let router = Router::new(calibrated_repository(6));

    // Six fixed-form sittings with a spread of answers…
    for index in 0..6_usize {
        let started = router.handle(&Request::new(
            "POST",
            "/sessions",
            format!("{{\"exam\":\"cat\",\"student\":\"f{index:02}\",\"seed\":{index}}}"),
        ));
        assert_eq!(started.status, 201, "{}", started.body);
        let status: Value = serde_json::from_str(&started.body).unwrap();
        let session = as_str(&status, "session").to_string();
        let order: Vec<String> = status
            .get("problems")
            .and_then(Value::as_array)
            .expect("problems")
            .iter()
            .map(|p| as_str(p, "id").to_string())
            .collect();
        for (position, _) in order.iter().enumerate() {
            let answered = router.handle(&Request::new(
                "POST",
                &format!("/sessions/{session}/answers"),
                answer_body((index + position) % 2 == 0).as_str(),
            ));
            assert_eq!(answered.status, 200, "{}", answered.body);
        }
        let finished = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/finish"),
            "",
        ));
        assert_eq!(finished.status, 200, "{}", finished.body);
    }

    // …and six adaptive sittings of varying ability over the same exam.
    for index in 0..6_usize {
        let started = router.handle(&Request::new(
            "POST",
            "/sessions",
            format!(
                "{{\"exam\":\"cat\",\"student\":\"c{index:02}\",\"seed\":{index},\
                 \"mode\":\"adaptive\",\"max_items\":4,\"se_threshold\":0.001}}"
            ),
        ));
        assert_eq!(started.status, 201, "{}", started.body);
        let mut status: Value = serde_json::from_str(&started.body).unwrap();
        let session = as_str(&status, "session").to_string();
        let mut step = 0_usize;
        while !matches!(status.get("done"), Some(Value::Bool(true))) {
            let answered = router.handle(&Request::new(
                "POST",
                &format!("/sessions/{session}/answers"),
                answer_body(!(index + step).is_multiple_of(3)).as_str(),
            ));
            assert_eq!(answered.status, 200, "{}", answered.body);
            status = serde_json::from_str(&answered.body).unwrap();
            step += 1;
        }
        let finished = router.handle(&Request::new(
            "POST",
            &format!("/sessions/{session}/finish"),
            "",
        ));
        assert_eq!(finished.status, 200, "{}", finished.body);
    }

    assert_eq!(router.state().finished.records("cat").len(), 12);
    assert!(router.state().adaptive.is_empty());

    // The acceptance bar: the streaming report over the mixed
    // population is byte-identical to the batch recomputation.
    let streaming = router.handle(&Request::new("GET", "/exams/cat/analysis", ""));
    assert_eq!(streaming.status, 200, "{}", streaming.body);
    assert!(
        streaming.body.contains("\"class_size\":12"),
        "{}",
        streaming.body
    );
    let batch = router.handle(&Request::new("GET", "/exams/cat/analysis?mode=batch", ""));
    assert_eq!(batch.status, 200, "{}", batch.body);
    assert_eq!(
        streaming.body, batch.body,
        "streaming and batch must agree over a mixed population"
    );
}

static REPLAY_CASE: AtomicUsize = AtomicUsize::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replaying `AdaptiveStep` events through the journal's apply path
    /// reproduces the live sitting byte for byte: identical θ̂/SE
    /// rendering and the identical next-item choice, whatever the
    /// answer sequence was.
    #[test]
    fn journal_replay_reproduces_live_adaptive_state(
        pattern in proptest::collection::vec(any::<bool>(), 1..10),
        seed in 0_u64..64,
    ) {
        let case = REPLAY_CASE.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "mine-adaptive-replay-{}-{case}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);

        let (state, _) = open_journaled_state(
            calibrated_repository(8),
            &dir,
            StoreOptions::default(),
            4, // snapshot often: replay exercises image restore too
        )
        .expect("open journal");
        let router = Router::with_state(state);
        let started = router.handle(&Request::new(
            "POST",
            "/sessions",
            format!(
                "{{\"exam\":\"cat\",\"student\":\"pp\",\"seed\":{seed},\
                 \"mode\":\"adaptive\",\"se_threshold\":0.001}}"
            ),
        ));
        prop_assert_eq!(started.status, 201, "{}", started.body);
        let status: Value = serde_json::from_str(&started.body).unwrap();
        let session = as_str(&status, "session").to_string();
        let mut status = status;
        for &correct in &pattern {
            if matches!(status.get("done"), Some(Value::Bool(true))) {
                break;
            }
            let answered = router.handle(&Request::new(
                "POST",
                &format!("/sessions/{session}/answers"),
                answer_body(correct).as_str(),
            ));
            prop_assert_eq!(answered.status, 200, "{}", answered.body);
            status = serde_json::from_str(&answered.body).unwrap();
        }
        let live = router.handle(&Request::new("GET", &format!("/sessions/{session}"), ""));
        prop_assert_eq!(live.status, 200, "{}", live.body);
        drop(router);

        let (state, report) = open_journaled_state(
            calibrated_repository(8),
            &dir,
            StoreOptions::default(),
            4,
        )
        .expect("recover");
        prop_assert!(report.notes.is_empty(), "replay notes: {:?}", report.notes);
        let recovered = Router::with_state(state);
        let replayed = recovered.handle(&Request::new("GET", &format!("/sessions/{session}"), ""));
        prop_assert_eq!(replayed.status, 200, "{}", replayed.body);
        prop_assert_eq!(
            &replayed.body, &live.body,
            "estimator state and next item must replay byte-identically"
        );
        std::fs::remove_dir_all(&dir).ok();
    }
}
