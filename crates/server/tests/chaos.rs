//! The overload/chaos acceptance tests: load past capacity, stalled
//! and byte-dribbling clients, and drain mid-storm.
//!
//! What must hold (ISSUE 4 acceptance bar):
//! * every shed request is answered `503 + Retry-After` at the edge —
//!   never mid-session;
//! * a stalled or dribbling client is cut off deterministically with a
//!   real `408`/`413` response, not a silent drop;
//! * drain mid-storm loses **zero** acknowledged finished sittings and
//!   the restarted server serves byte-identical analysis;
//! * the drain deadline bounds the wait, not the consistency: expiry
//!   still pauses active sessions and writes the final snapshot.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use serde::Value;

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{ExamRecord, OptionKey};
use mine_itembank::{ChoiceOption, Exam, Problem, Repository};
use mine_server::http::Request;
use mine_server::{
    open_journaled_state, run_loadgen, HttpClient, LoadGenOptions, OverloadOptions, ParseLimits,
    RateLimit, RetryPolicy, Router, ServeOptions, Server,
};
use mine_store::{StoreOptions, SyncPolicy};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mine-chaos-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

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
    repo.insert_exam(
        Exam::builder("final")
            .unwrap()
            .entry("q1".parse().unwrap())
            .entry("q2".parse().unwrap())
            .test_time(Duration::from_secs(1800))
            .build()
            .unwrap(),
    )
    .unwrap();
    repo
}

/// Polls `predicate` until it holds or `deadline` passes.
fn wait_until(deadline: Duration, mut predicate: impl FnMut() -> bool) -> bool {
    let started = Instant::now();
    while started.elapsed() < deadline {
        if predicate() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    predicate()
}

/// Reads everything the server sends until it closes the connection.
fn read_all(stream: &mut TcpStream) -> String {
    let mut reply = String::new();
    let _ = stream.read_to_string(&mut reply);
    reply
}

#[test]
fn overload_sheds_at_the_edge_with_retry_after() {
    let router = Router::new(repository());
    let server = Server::start(
        router,
        &ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(30),
            overload: OverloadOptions {
                queue_depth: 1,
                rate_limit: None,
                shed_retry_after_secs: 2,
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();
    let metrics = || server.router().state().metrics.snapshot(0, 0);

    // Two stalled clients pin both workers. Each completes one real
    // keep-alive exchange first, which proves a worker is committed to
    // its connection (blocked reading the next request that never
    // comes) before the next connection arrives.
    let mut stall_a = HttpClient::connect(&addr).expect("stall a");
    assert_eq!(stall_a.get("/healthz").expect("pin a").status, 200);
    let mut stall_b = HttpClient::connect(&addr).expect("stall b");
    assert_eq!(stall_b.get("/healthz").expect("pin b").status, 200);
    // A third connection fills the accept queue (depth 1); no worker
    // will ever take it while the stalls hold.
    let queued = TcpStream::connect(&addr).expect("filler");
    assert!(
        wait_until(Duration::from_secs(5), || metrics().queue_depth == 1),
        "filler connection never queued"
    );

    // Past capacity: the next connections are shed at accept time with
    // a proper 503 + Retry-After, before any request byte is read.
    for _ in 0..3 {
        let mut victim = TcpStream::connect(&addr).expect("victim");
        let reply = read_all(&mut victim);
        assert!(
            reply.starts_with("HTTP/1.1 503 "),
            "expected edge shed, got {reply:?}"
        );
        assert!(reply.contains("retry-after: 2\r\n"), "{reply:?}");
        assert!(reply.contains("connection: close"), "{reply:?}");
    }
    let snapshot = metrics();
    assert!(snapshot.shed_total >= 3, "{}", snapshot.shed_total);
    assert_eq!(snapshot.retry_after_secs, 2);

    // Releasing the stalled clients frees the workers; service resumes
    // without a restart.
    drop(stall_a);
    drop(stall_b);
    let mut client = HttpClient::connect(&addr).expect("connect after storm");
    assert!(
        wait_until(Duration::from_secs(5), || {
            client.get("/healthz").is_ok_and(|r| r.status == 200)
        }),
        "service never recovered after the stalls were released"
    );

    // Bounded latency: the histogram shows the overload never dragged a
    // served request past the 1-second bucket.
    let prom = client.get("/metrics").expect("metrics").body;
    let bucket_le_1s: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("mine_request_duration_seconds_bucket{le=\"1\"} "))
        .expect("le=1 bucket")
        .parse()
        .unwrap();
    let count: u64 = prom
        .lines()
        .find_map(|l| l.strip_prefix("mine_request_duration_seconds_count "))
        .expect("histogram count")
        .parse()
        .unwrap();
    assert_eq!(bucket_le_1s, count, "a request exceeded 1s under overload");

    // Close every held connection before shutdown so no worker sits in
    // an idle read waiting for the 30s timeout.
    drop(queued);
    drop(client);
    server.shutdown();
}

#[test]
fn rate_limit_sheds_bursty_peer_with_wait_hint() {
    let server = Server::start(
        Router::new(repository()),
        &ServeOptions {
            threads: 2,
            overload: OverloadOptions {
                queue_depth: 64,
                rate_limit: Some(RateLimit {
                    per_second: 2,
                    burst: 2,
                }),
                shed_retry_after_secs: 2,
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // The burst admits two connections; the third is rate-limited with
    // a Retry-After telling the peer when a token will exist.
    let first = TcpStream::connect(&addr).expect("first");
    let second = TcpStream::connect(&addr).expect("second");
    assert!(
        wait_until(Duration::from_secs(5), || {
            server
                .router()
                .state()
                .metrics
                .snapshot(0, 0)
                .rate_limited_total
                > 0
                || {
                    let mut third = TcpStream::connect(&addr).expect("third");
                    !read_all(&mut third).is_empty()
                }
        }),
        "limiter never engaged"
    );
    let mut third = TcpStream::connect(&addr).expect("third");
    let reply = read_all(&mut third);
    assert!(reply.starts_with("HTTP/1.1 503 "), "{reply:?}");
    assert!(reply.contains("retry-after: 1\r\n"), "{reply:?}");
    drop(first);
    drop(second);
    let snapshot = server.router().state().metrics.snapshot(0, 0);
    assert!(snapshot.rate_limited_total >= 1);

    // Honoring the advertised wait admits the peer again.
    std::thread::sleep(Duration::from_millis(1100));
    let mut client = HttpClient::connect(&addr).expect("reconnect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);

    drop(client);
    server.shutdown();
}

#[test]
fn dribbling_and_oversized_clients_get_real_responses() {
    let server = Server::start(
        Router::new(repository()),
        &ServeOptions {
            threads: 2,
            read_timeout: Duration::from_secs(2),
            request_budget: Duration::from_millis(300),
            limits: ParseLimits {
                max_head_bytes: 16 * 1024,
                max_body_bytes: 1024,
            },
            ..ServeOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // A byte-dribbler: a few head bytes, then silence. The per-request
    // budget (armed at the first byte) cuts it off with a real 408.
    let mut dribbler = TcpStream::connect(&addr).expect("dribbler");
    for byte in b"GET /h" {
        dribbler.write_all(&[*byte]).expect("dribble");
        std::thread::sleep(Duration::from_millis(30));
    }
    let reply = read_all(&mut dribbler);
    assert!(
        reply.starts_with("HTTP/1.1 408 "),
        "expected request-timeout, got {reply:?}"
    );
    assert!(reply.contains("read deadline expired"), "{reply:?}");

    // An oversized declared body is refused up front with 413.
    let mut oversized = TcpStream::connect(&addr).expect("oversized");
    oversized
        .write_all(b"POST /sessions HTTP/1.1\r\ncontent-length: 2048\r\n\r\n")
        .expect("write oversized head");
    let reply = read_all(&mut oversized);
    assert!(
        reply.starts_with("HTTP/1.1 413 "),
        "expected payload-too-large, got {reply:?}"
    );

    // Neither pathological client degraded the service.
    let mut client = HttpClient::connect(&addr).expect("connect");
    assert_eq!(client.get("/healthz").expect("healthz").status, 200);

    drop(client);
    server.shutdown();
}

#[test]
fn drain_mid_storm_loses_no_finished_sitting_and_analysis_survives_restart() {
    let dir = temp_dir("drain-storm");
    let (state, _) = open_journaled_state(
        repository(),
        &dir,
        StoreOptions {
            sync: SyncPolicy::Never,
            ..StoreOptions::default()
        },
        64,
    )
    .expect("open journal");
    let router = Router::with_state(state);
    let server = Server::start(
        router.clone(),
        &ServeOptions {
            threads: 4,
            read_timeout: Duration::from_secs(2),
            ..ServeOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // The storm: 2× the worker count, retrying clients, full sittings.
    let storm = {
        let addr = addr.clone();
        std::thread::spawn(move || {
            run_loadgen(&LoadGenOptions {
                addr,
                exam: "final".to_string(),
                clients: 8,
                seed: 11,
                ramp: Some(Duration::from_millis(120)),
                retry: RetryPolicy {
                    max_attempts: 2,
                    base: Duration::from_millis(30),
                    cap: Duration::from_millis(120),
                },
                ..LoadGenOptions::default()
            })
        })
    };

    // Mid-storm: drain. First flip the lifecycle and observe the
    // contract, then run the full drain to completion.
    std::thread::sleep(Duration::from_millis(60));
    server.begin_drain();
    // Every drain-mode response closes the connection (workers free up
    // after each exchange), so each observation uses a fresh one.
    let mut observer = HttpClient::connect(&addr).expect("observer");
    let health = observer.get("/healthz").expect("healthz while draining");
    assert_eq!(health.status, 503);
    assert!(
        health.body.contains(r#""status":"draining""#),
        "{}",
        health.body
    );
    let mut observer = HttpClient::connect(&addr).expect("observer 2");
    let shed = observer
        .post("/sessions", r#"{"exam":"final","student":"late"}"#)
        .expect("shed response");
    assert_eq!(shed.status, 503, "{}", shed.body);
    assert!(
        shed.retry_after.is_some(),
        "shed response must carry Retry-After"
    );

    let report = server.drain(Duration::from_secs(5));
    assert!(report.snapshot_written, "{report:?}");
    assert!(report.notes.is_empty(), "{report:?}");
    let _ = storm.join().expect("storm thread");

    // Ground truth: what the drained server itself acknowledged.
    let acked: Vec<Value> = router
        .state()
        .finished
        .records("final")
        .iter()
        .map(serde::Serialize::to_value)
        .collect();
    let live_sessions = router.state().registry.len();

    // Restart from the journal directory.
    let (recovered, recovery) =
        open_journaled_state(repository(), &dir, StoreOptions::default(), 64).expect("recover");
    assert!(recovery.notes.is_empty(), "{:?}", recovery.notes);
    let recovered = Router::with_state(recovered);

    // Zero lost finished sittings: the recovered records are exactly
    // the acknowledged ones, byte for byte.
    let replayed: Vec<Value> = recovered
        .state()
        .finished
        .records("final")
        .iter()
        .map(serde::Serialize::to_value)
        .collect();
    assert_eq!(
        serde_json::to_string(&Value::Array(replayed)).unwrap(),
        serde_json::to_string(&Value::Array(acked)).unwrap(),
        "finished sittings diverged across drain + restart"
    );

    // Every sitting that was mid-flight at the drain came back paused
    // (the journaled `Paused` event), ready to resume.
    assert_eq!(recovered.state().registry.len(), live_sessions);
    for (id, state) in recovered
        .state()
        .registry
        .capture(|slot| (slot.session.id().clone(), slot.session.state()))
    {
        assert_eq!(
            state,
            mine_delivery::SessionState::Paused,
            "session {} not paused",
            id.as_str()
        );
    }

    // Byte-identical analysis after restart (when enough sittings
    // finished before the drain hit — the storm timing guarantees that
    // only probabilistically, so gate on it; a class of one cannot form
    // the high/low score groups the analysis needs).
    let records = recovered.state().finished.records("final");
    if records.len() >= 2 {
        let served = recovered.handle(&Request::new("GET", "/exams/final/analysis", ""));
        assert_eq!(served.status, 200, "{}", served.body);
        let exam_id = "final".parse().expect("exam id");
        let (_, problems) = repository().resolve_exam(&exam_id).expect("resolve");
        let class = ExamRecord::new(exam_id, records);
        let direct = BatchAnalyzer::new(AnalysisConfig::default())
            .analyze_records(std::slice::from_ref(&class), &problems)
            .expect("direct analysis");
        assert_eq!(served.body, serde_json::to_string(&direct).unwrap());
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn drain_deadline_expiry_still_pauses_and_snapshots() {
    let dir = temp_dir("drain-deadline");
    let (state, _) = open_journaled_state(repository(), &dir, StoreOptions::default(), 64)
        .expect("open journal");
    let router = Router::with_state(state);
    let server = Server::start(
        router.clone(),
        &ServeOptions {
            threads: 1,
            read_timeout: Duration::from_millis(600),
            ..ServeOptions::default()
        },
    )
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    // One active session, started through the real handler so its
    // `Created` event is journaled.
    let started = router.handle(&Request::new(
        "POST",
        "/sessions",
        r#"{"exam":"final","student":"s1","seed":7}"#,
    ));
    assert_eq!(started.status, 201, "{}", started.body);
    let started: Value = serde_json::from_str(&started.body).unwrap();
    let session = started
        .get("session")
        .and_then(Value::as_str)
        .unwrap()
        .to_string();

    // A stalled client pins the only worker; a second connection sits
    // in the accept queue, so the drain can never run dry before the
    // deadline.
    let _stall = TcpStream::connect(&addr).expect("stall");
    assert!(
        wait_until(Duration::from_secs(5), || {
            server.router().state().metrics.snapshot(0, 0).queue_depth == 0
        }),
        "worker never picked up the stall"
    );
    let _queued = TcpStream::connect(&addr).expect("queued");
    assert!(
        wait_until(Duration::from_secs(5), || {
            server.router().state().metrics.snapshot(0, 0).queue_depth == 1
        }),
        "second connection never queued"
    );

    let report = server.drain(Duration::from_millis(100));
    assert!(
        !report.drained_cleanly,
        "the pinned worker should have forced deadline expiry: {report:?}"
    );
    // Expiry bounds the wait, not the consistency: the active session
    // was paused through the journal and the final snapshot written.
    assert_eq!(report.sessions_paused, 1, "{report:?}");
    assert!(report.snapshot_written, "{report:?}");
    assert!(report.notes.is_empty(), "{report:?}");

    // The restarted server sees the paused session and can resume it.
    let (recovered, _) =
        open_journaled_state(repository(), &dir, StoreOptions::default(), 64).expect("recover");
    let recovered = Router::with_state(recovered);
    let status = recovered.handle(&Request::new("GET", &format!("/sessions/{session}"), ""));
    assert_eq!(status.status, 200, "{}", status.body);
    assert!(
        status.body.contains(r#""state":"paused""#),
        "{}",
        status.body
    );
    let resumed = recovered.handle(&Request::new(
        "POST",
        &format!("/sessions/{session}/resume"),
        "",
    ));
    assert_eq!(resumed.status, 200, "{}", resumed.body);
    std::fs::remove_dir_all(&dir).unwrap();
}
