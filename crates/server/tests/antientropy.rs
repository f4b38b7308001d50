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

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Number, Value};

use mine_itembank::{Calibration, ChoiceOption, Exam, Problem, Repository};
use mine_server::{
    audit_dirs, open_journaled_state, AckMode, FailoverConfig, HttpClient, ReplListener, ReplState,
    Role, Router, Scrubber, ServeOptions, Server,
};
use mine_store::{FaultPlan, StoreOptions, SyncPolicy};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mine-antientropy-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The same exam everywhere: replication replays events against the
/// repository, so every node and the parent must agree.
fn repository() -> Repository {
    let repo = Repository::new();
    repo.insert_problem(
        Problem::multiple_choice(
            "q1",
            "Pick C.",
            [
                ChoiceOption::new(mine_core::OptionKey::A, "alpha"),
                ChoiceOption::new(mine_core::OptionKey::B, "beta"),
                ChoiceOption::new(mine_core::OptionKey::C, "gamma"),
                ChoiceOption::new(mine_core::OptionKey::D, "delta"),
            ],
            mine_core::OptionKey::C,
        )
        .unwrap()
        .with_calibration(Calibration::new(1.1, -0.4, 0.2)),
    )
    .unwrap();
    repo.insert_problem(
        Problem::true_false("q2", "Is the sky blue?", true)
            .unwrap()
            .with_calibration(Calibration::new(0.9, 0.6, 0.25)),
    )
    .unwrap();
    repo.insert_exam(
        Exam::builder("final")
            .unwrap()
            .entry("q1".parse().unwrap())
            .entry("q2".parse().unwrap())
            .build()
            .unwrap(),
    )
    .unwrap();
    repo
}

fn answer_json(problem: &str, index: usize) -> String {
    match problem {
        "q1" => format!(
            "{{\"Choice\":\"{}\"}}",
            char::from(b'A' + (index % 4) as u8)
        ),
        "q2" => format!("{{\"TrueFalse\":{}}}", index.is_multiple_of(3)),
        other => panic!("unexpected problem {other}"),
    }
}

fn start_sitting(client: &mut HttpClient, index: usize) -> (String, Vec<String>) {
    let started = client
        .post(
            "/sessions",
            &format!("{{\"exam\":\"final\",\"student\":\"h{index:02}\",\"seed\":{index}}}"),
        )
        .expect("start");
    assert_eq!(started.status, 201, "{}", started.body);
    let started: Value = started.json().expect("start body");
    let session = started
        .get("session")
        .and_then(Value::as_str)
        .expect("session id")
        .to_string();
    let order = started
        .get("problems")
        .and_then(Value::as_array)
        .expect("problems")
        .iter()
        .map(|p| p.get("id").and_then(Value::as_str).unwrap().to_string())
        .collect();
    (session, order)
}

fn run_full_sitting(addr: &str, index: usize) {
    let mut client = HttpClient::connect(addr).expect("connect");
    let (session, order) = start_sitting(&mut client, index);
    for problem in &order {
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
}

fn healthz(addr: &str) -> Value {
    let mut client = HttpClient::connect(addr).expect("connect healthz");
    let response = client.get("/healthz").expect("healthz");
    response.json().expect("healthz json")
}

fn healthz_u64(value: &Value, field: &str) -> u64 {
    match value.get(field) {
        Some(Value::Number(Number::PosInt(n))) => *n,
        other => panic!("healthz field {field} missing or not a number: {other:?}"),
    }
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

/// Polls until `check` passes or the deadline expires, returning the
/// last healthz body either way.
fn wait_for(addr: &str, what: &str, check: impl Fn(&Value) -> bool) -> Value {
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let health = healthz(addr);
        if check(&health) {
            return health;
        }
        assert!(
            Instant::now() < deadline,
            "timed out waiting for {what}; last healthz: {health:?}"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Re-exec helper: with `MINE_AE_DIR` set this "test" becomes a
/// replicating server wired exactly as `mine serve` wires one —
/// `MINE_FAULT_PLAN` arms the seeded fault schedule on the store,
/// `MINE_AE_PRIMARY` makes it a follower, `MINE_AE_SCRUB_MS` starts the
/// background anti-entropy scrubber, `MINE_AE_SEGMENT_BYTES` shrinks
/// segments so early records seal quickly, and `MINE_AE_FAILOVER_MS` +
/// `MINE_AE_PEERS` arm the unsupervised failure detector. It publishes
/// `"<http addr>\n<repl addr>"` at `<dir>/addr.txt` atomically via
/// rename and runs until SIGKILLed.
#[test]
fn antientropy_child() {
    let Some(dir) = std::env::var_os("MINE_AE_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let primary = std::env::var("MINE_AE_PRIMARY").ok();
    let http_addr = std::env::var("MINE_AE_HTTP").unwrap_or_else(|_| "127.0.0.1:0".to_string());
    let fault_plan = FaultPlan::from_env()
        .expect("MINE_FAULT_PLAN")
        .map(Arc::new);
    let max_segment_bytes = std::env::var("MINE_AE_SEGMENT_BYTES")
        .ok()
        .map(|bytes| bytes.parse().expect("segment bytes"))
        .unwrap_or(8 * 1024 * 1024);
    let options = StoreOptions {
        // Every acked write is on disk before the ack: the degraded-mode
        // scenario injects fsync failures and the ack must never race
        // them.
        sync: SyncPolicy::Always,
        max_segment_bytes,
        fault_plan: fault_plan.clone(),
    };
    // No compaction cadence: the bit-rot scenario needs its sealed
    // segments to stay on disk until the scrubber reaches them.
    let (mut state, _) =
        open_journaled_state(repository(), &dir, options, 1_000_000).expect("open");
    let role = if primary.is_some() {
        Role::Follower
    } else {
        Role::Primary
    };
    let repl = Arc::new(ReplState::new(role, AckMode::Leader));
    state.repl = Some(Arc::clone(&repl));
    let router = Router::with_state(state);
    let serve_options = ServeOptions {
        addr: http_addr,
        ..ServeOptions::default()
    };
    let server = Server::start(router.clone(), &serve_options).expect("bind http");
    repl.set_advertise(server.local_addr().to_string());
    if let Some(plan) = &fault_plan {
        repl.set_fault_plan(Arc::clone(plan));
    }
    if let Ok(ms) = std::env::var("MINE_AE_FAILOVER_MS") {
        let timeout = Duration::from_millis(ms.parse().expect("failover ms"));
        let peers: Vec<String> = std::env::var("MINE_AE_PEERS")
            .unwrap_or_default()
            .split(',')
            .map(str::trim)
            .filter(|peer| !peer.is_empty())
            .map(str::to_string)
            .collect();
        repl.set_auto_failover(FailoverConfig { timeout, peers });
    }
    let listener = ReplListener::start("127.0.0.1:0", router.clone()).expect("bind repl");
    let _puller = primary.map(|addr| mine_server::start_follower(addr, router.clone()));
    let _scrubber = std::env::var("MINE_AE_SCRUB_MS").ok().map(|ms| {
        let interval = Duration::from_millis(ms.parse().expect("scrub ms"));
        Scrubber::start(router.clone(), interval)
    });
    let tmp = dir.join(".addr.tmp");
    std::fs::write(
        &tmp,
        format!("{}\n{}", server.local_addr(), listener.local_addr()),
    )
    .expect("write addr");
    std::fs::rename(&tmp, dir.join("addr.txt")).expect("publish addr");
    server.join();
}

struct ChildNode {
    child: Child,
    http: String,
}

fn spawn_node(dir: &PathBuf, envs: &[(&str, &str)]) -> (ChildNode, String) {
    let exe = std::env::current_exe().unwrap();
    let mut command = Command::new(exe);
    command
        .args(["antientropy_child", "--exact", "--nocapture"])
        .env("MINE_AE_DIR", dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null());
    for (key, value) in envs {
        command.env(key, value);
    }
    let addr_path = dir.join("addr.txt");
    let _ = std::fs::remove_file(&addr_path);
    let child = command.spawn().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !addr_path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let published = std::fs::read_to_string(&addr_path).expect("child never came up");
    let (http, repl) = published.split_once('\n').expect("two addresses");
    (
        ChildNode {
            child,
            http: http.to_string(),
        },
        repl.to_string(),
    )
}

/// Reserves a loopback port by binding and immediately releasing it, so
/// peers can know each other's HTTP addresses before launch.
fn reserve_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

/// Whether the directory holds a quarantined segment: the renamed-not-
/// deleted evidence of a repair.
fn has_quarantine_file(dir: &PathBuf) -> bool {
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
    let a_dir = temp_dir("bitrot-a");
    let b_dir = temp_dir("bitrot-b");
    let c_dir = temp_dir("bitrot-c");

    // Tiny segments so record 3 lands in a sealed segment within the
    // first sittings; a fast scrub cadence so detection is prompt.
    let (mut node_a, a_repl) = spawn_node(
        &a_dir,
        &[
            ("MINE_AE_SEGMENT_BYTES", "256"),
            ("MINE_AE_SCRUB_MS", "200"),
        ],
    );
    let (mut node_b, _) = spawn_node(
        &b_dir,
        &[
            ("MINE_AE_PRIMARY", a_repl.as_str()),
            ("MINE_AE_SEGMENT_BYTES", "256"),
            ("MINE_AE_SCRUB_MS", "200"),
            ("MINE_FAULT_PLAN", "disk.bitrot@3:4"),
        ],
    );
    let (mut node_c, _) = spawn_node(
        &c_dir,
        &[
            ("MINE_AE_PRIMARY", a_repl.as_str()),
            ("MINE_AE_SEGMENT_BYTES", "256"),
            ("MINE_AE_SCRUB_MS", "200"),
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

    node_a.child.kill().unwrap();
    node_a.child.wait().unwrap();
    node_b.child.kill().unwrap();
    node_b.child.wait().unwrap();
    node_c.child.kill().unwrap();
    node_c.child.wait().unwrap();

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
    let p_dir = temp_dir("degraded-p");
    let f_dir = temp_dir("degraded-f");

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
    let (mut node_p, p_repl) = spawn_node(
        &p_dir,
        &[
            ("MINE_AE_HTTP", p_http.as_str()),
            ("MINE_FAULT_PLAN", plan.as_str()),
        ],
    );
    assert_eq!(node_p.http, p_http, "primary must bind its reserved port");
    let (mut node_f, _) = spawn_node(
        &f_dir,
        &[
            ("MINE_AE_PRIMARY", p_repl.as_str()),
            ("MINE_AE_FAILOVER_MS", "800"),
            // The detector surveys the primary itself: a live but
            // degraded primary must not veto the succession.
            ("MINE_AE_PEERS", p_http.as_str()),
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

    node_p.child.kill().unwrap();
    node_p.child.wait().unwrap();
    node_f.child.kill().unwrap();
    node_f.child.wait().unwrap();

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
