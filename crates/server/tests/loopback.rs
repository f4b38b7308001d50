//! End-to-end tests over real loopback TCP: many concurrent clients
//! drive full sittings against a running [`Server`], and the live
//! analysis endpoint must agree byte-for-byte with running the §4
//! pipeline directly on the same records.

use std::thread;

use serde::{Number, Value};

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{ExamRecord, OptionKey};
use mine_itembank::{ChoiceOption, Exam, Problem, Repository};
use mine_server::{HttpClient, Router, ServeOptions, Server};

const CLIENTS: usize = 32;

/// An exam with enough spread potential that 32 deterministic clients
/// produce distinct high/low score groups.
fn repository() -> Repository {
    let repo = Repository::new();
    repo.insert_problem(
        Problem::multiple_choice(
            "q1",
            "Pick C.",
            [
                ChoiceOption::new(OptionKey::A, "alpha"),
                ChoiceOption::new(OptionKey::B, "beta"),
                ChoiceOption::new(OptionKey::C, "gamma"),
                ChoiceOption::new(OptionKey::D, "delta"),
            ],
            OptionKey::C,
        )
        .unwrap(),
    )
    .unwrap();
    repo.insert_problem(Problem::true_false("q2", "Is the sky blue?", true).unwrap())
        .unwrap();
    repo.insert_problem(
        Problem::multiple_choice(
            "q3",
            "Pick A.",
            [
                ChoiceOption::new(OptionKey::A, "yes"),
                ChoiceOption::new(OptionKey::B, "no"),
            ],
            OptionKey::A,
        )
        .unwrap(),
    )
    .unwrap();
    repo.insert_exam(
        Exam::builder("final")
            .unwrap()
            .entry("q1".parse().unwrap())
            .entry("q2".parse().unwrap())
            .entry("q3".parse().unwrap())
            .test_time(std::time::Duration::from_secs(1800))
            .build()
            .unwrap(),
    )
    .unwrap();
    repo
}

/// The answer client `index` gives to a problem — deterministic, so the
/// test knows the exact class record without trusting the server.
fn answer_json(problem: &str, index: usize) -> String {
    match problem {
        "q1" => {
            let letter = char::from(b'A' + (index % 4) as u8);
            format!("{{\"Choice\":\"{letter}\"}}")
        }
        "q2" => format!("{{\"TrueFalse\":{}}}", index.is_multiple_of(3)),
        "q3" => format!(
            "{{\"Choice\":\"{}\"}}",
            if index.is_multiple_of(2) { "A" } else { "B" }
        ),
        other => panic!("unexpected problem {other}"),
    }
}

/// Drives one full sitting over its own TCP connection.
fn run_sitting(addr: &str, index: usize) {
    let mut client = HttpClient::connect(addr).expect("connect");
    let started = client
        .post(
            "/sessions",
            &format!("{{\"exam\":\"final\",\"student\":\"c{index:02}\",\"seed\":{index}}}"),
        )
        .expect("start");
    assert_eq!(started.status, 201, "{}", started.body);
    let started: Value = started.json().expect("start body");
    let session = started
        .get("session")
        .and_then(Value::as_str)
        .expect("session id")
        .to_string();
    let order: Vec<String> = started
        .get("problems")
        .and_then(Value::as_array)
        .expect("problems")
        .iter()
        .map(|p| p.get("id").and_then(Value::as_str).unwrap().to_string())
        .collect();
    assert_eq!(order.len(), 3);

    for (step, problem) in order.iter().enumerate() {
        // A third of the clients suspend and come back mid-sitting.
        if step == 1 && index.is_multiple_of(3) {
            let paused = client
                .post(&format!("/sessions/{session}/pause"), "")
                .expect("pause");
            assert_eq!(paused.status, 200, "{}", paused.body);
            let resumed = client
                .post(&format!("/sessions/{session}/resume"), "")
                .expect("resume");
            assert_eq!(resumed.status, 200, "{}", resumed.body);
        }
        let body = format!(
            "{{\"answer\":{},\"time_spent_secs\":{}}}",
            answer_json(problem, index),
            10 + index % 7
        );
        let answered = client
            .post(&format!("/sessions/{session}/answers"), &body)
            .expect("answer");
        assert_eq!(answered.status, 200, "{}", answered.body);
    }

    let finished = client
        .post(&format!("/sessions/{session}/finish"), "")
        .expect("finish");
    assert_eq!(finished.status, 200, "{}", finished.body);
    let record: Value = finished.json().expect("record body");
    assert_eq!(
        record.get("student").and_then(Value::as_str),
        Some(format!("c{index:02}").as_str())
    );

    // The slot is gone once the sitting is filed.
    let gone = client
        .get(&format!("/sessions/{session}"))
        .expect("status after finish");
    assert_eq!(gone.status, 404, "{}", gone.body);
}

#[test]
fn concurrent_clients_complete_sittings_and_analysis_matches_direct_run() {
    let repo = repository();
    let router = Router::new(repo.clone());
    let server = Server::start(
        router.clone(),
        &ServeOptions {
            threads: 8,
            ..ServeOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let handles: Vec<_> = (0..CLIENTS)
        .map(|index| {
            let addr = addr.clone();
            thread::spawn(move || run_sitting(&addr, index))
        })
        .collect();
    for handle in handles {
        handle.join().expect("client thread");
    }

    // Every sitting was filed; none is still live.
    let mut client = HttpClient::connect(&addr).expect("connect");
    let metrics = client.get("/metrics?format=json").expect("metrics");
    assert_eq!(metrics.status, 200);
    let metrics: Value = metrics.json().expect("metrics body");
    let counter = |name: &str| match metrics.get(name) {
        Some(Value::Number(Number::PosInt(n))) => *n,
        other => panic!("bad counter {name}: {other:?}"),
    };
    assert_eq!(counter("sessions_started"), CLIENTS as u64);
    assert_eq!(counter("sessions_finished"), CLIENTS as u64);
    assert_eq!(counter("active_sessions"), 0);
    assert!(router.state().registry.is_empty());

    // The acceptance bar: the live endpoint's report is byte-identical
    // to running the batch analyzer directly on the same records.
    let served = client.get("/exams/final/analysis").expect("analysis");
    assert_eq!(served.status, 200, "{}", served.body);

    let records = router.state().finished.records("final");
    assert_eq!(records.len(), CLIENTS);
    let exam_id = "final".parse().expect("exam id");
    let (_, problems) = repo.resolve_exam(&exam_id).expect("resolve");
    let class = ExamRecord::new(exam_id, records);
    let direct = BatchAnalyzer::new(AnalysisConfig::default())
        .analyze_records(std::slice::from_ref(&class), &problems)
        .expect("direct analysis");
    let direct = serde_json::to_string(&direct).expect("serialize report");
    assert_eq!(served.body, direct);

    // Asking again is answered from the streaming engine — same bytes.
    let again = client.get("/exams/final/analysis").expect("analysis again");
    assert_eq!(again.body, served.body);

    // Forcing batch recomputes the identical bytes, and so does a
    // second batch read.
    let batch = client
        .get("/exams/final/analysis?mode=batch")
        .expect("batch analysis");
    assert_eq!(batch.body, served.body);
    let batch_again = client
        .get("/exams/final/analysis?mode=batch")
        .expect("batch analysis again");
    assert_eq!(batch_again.body, served.body);
    // Only the two forced reads ran the batch pipeline.
    let scrape = client.get("/metrics").expect("metrics text");
    assert!(
        scrape
            .body
            .contains("mine_analysis_duration_seconds_count{mode=\"batch\"} 2\n"),
        "{}",
        scrape.body
    );

    server.shutdown();
}

#[test]
fn keep_alive_connection_serves_many_requests_and_rejects_garbage() {
    let server =
        Server::start(Router::new(repository()), &ServeOptions::default()).expect("bind loopback");
    let addr = server.local_addr().to_string();

    // Dozens of requests down one keep-alive connection.
    let mut client = HttpClient::connect(&addr).expect("connect");
    for _ in 0..40 {
        let health = client.get("/healthz").expect("healthz");
        assert_eq!(health.status, 200);
        assert!(health.body.contains("\"status\":\"ok\""), "{}", health.body);
    }
    let missing = client.get("/sessions/nope").expect("missing session");
    assert_eq!(missing.status, 404);

    // A malformed request line is answered 400 and the connection drops.
    {
        use std::io::{Read, Write};
        let mut raw = std::net::TcpStream::connect(&addr).expect("raw connect");
        raw.write_all(b"NOT-HTTP\r\n\r\n").expect("write garbage");
        let mut reply = String::new();
        raw.read_to_string(&mut reply).expect("read reply");
        assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    }

    // The earlier keep-alive connection is unaffected.
    let health = client.get("/healthz").expect("healthz after garbage");
    assert_eq!(health.status, 200);

    server.shutdown();
}

#[test]
fn a_control_byte_in_the_request_line_gets_a_json_400_body() {
    use std::io::{Read, Write};
    let server =
        Server::start(Router::new(repository()), &ServeOptions::default()).expect("bind loopback");
    let mut raw = std::net::TcpStream::connect(server.local_addr()).expect("raw connect");
    raw.write_all(b"GET / HTTQ\x01\r\n\r\n")
        .expect("write request");
    let mut reply = String::new();
    raw.read_to_string(&mut reply).expect("read reply");
    assert!(reply.starts_with("HTTP/1.1 400 "), "{reply}");
    let (_, body) = reply.split_once("\r\n\r\n").expect("head and body");
    let body: Value = serde_json::from_str(body).expect("the 400 body is JSON");
    assert_eq!(
        body.get("error").and_then(Value::as_str),
        Some("unsupported version HTTQ\u{1}"),
        "{body:?}"
    );
    server.shutdown();
}
