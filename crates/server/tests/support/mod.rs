//! What the multi-process suites share: the exam every node serves, the
//! sitting drivers, `/healthz` polling, and `node_child`, the one
//! re-exec helper that turns a test binary into a node started exactly
//! as `mine serve` starts one.
//!
//! Each suite compiles this module on its own and uses a different part
//! of it, so unused items are expected.
#![allow(dead_code)]

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use serde::{Number, Value};

use mine_itembank::{Calibration, ChoiceOption, Exam, Problem, Repository};
use mine_server::{AckMode, FailoverConfig, HttpClient, Node, NodeOptions, ServeOptions};
use mine_store::{FaultPlan, StoreOptions, SyncPolicy};

/// Env for [`spawn_node`]: run a replication listener on a free port.
pub const REPLICATED: (&str, &str) = ("MINE_NODE_REPL_ADDR", "127.0.0.1:0");

/// A fresh, empty directory under the temp dir, unique to this process.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mine-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The same exam everywhere: recovery and replication replay events
/// against the repository, so every node and the parent must agree.
pub fn repository() -> Repository {
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

/// The right answer for each bank item, for adaptive steps.
pub fn correct_answer_json(problem: &str) -> &'static str {
    match problem {
        "q1" => "{\"Choice\":\"C\"}",
        "q2" => "{\"TrueFalse\":true}",
        other => panic!("unexpected problem {other}"),
    }
}

/// Student `index`'s answer to `problem`: varied, so the class has
/// both right and wrong answers to analyse.
pub fn answer_json(problem: &str, index: usize) -> String {
    match problem {
        "q1" => format!(
            "{{\"Choice\":\"{}\"}}",
            char::from(b'A' + (index % 4) as u8)
        ),
        "q2" => format!("{{\"TrueFalse\":{}}}", index.is_multiple_of(3)),
        other => panic!("unexpected problem {other}"),
    }
}

/// Starts a sitting over TCP and returns `(session id, problem order)`.
pub fn start_sitting(client: &mut HttpClient, index: usize) -> (String, Vec<String>) {
    let started = client
        .post(
            "/sessions",
            &format!("{{\"exam\":\"final\",\"student\":\"s{index:02}\",\"seed\":{index}}}"),
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

/// Starts, answers and finishes one sitting for student `index`.
pub fn run_full_sitting(addr: &str, index: usize) {
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

pub fn healthz(addr: &str) -> Value {
    let mut client = HttpClient::connect(addr).expect("connect healthz");
    let response = client.get("/healthz").expect("healthz");
    response.json().expect("healthz json")
}

pub fn healthz_u64(value: &Value, field: &str) -> u64 {
    match value.get(field) {
        Some(Value::Number(Number::PosInt(n))) => *n,
        other => panic!("healthz field {field} missing or not a number: {other:?}"),
    }
}

pub fn role_of(addr: &str) -> Option<String> {
    let health = healthz(addr);
    health
        .get("role")
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Polls until `check` passes or the deadline expires, returning the
/// last healthz body either way.
pub fn wait_for(addr: &str, what: &str, check: impl Fn(&Value) -> bool) -> Value {
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

/// Reserves a loopback port by binding and immediately releasing it, so
/// peers can know each other's HTTP addresses before launch.
pub fn reserve_addr() -> String {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap().to_string();
    drop(listener);
    addr
}

/// A node running in a child process.
pub struct ChildNode {
    child: Child,
    /// Its HTTP address.
    pub http: String,
    /// Its replication listener address; empty when it runs none.
    pub repl: String,
}

impl ChildNode {
    /// SIGKILL: no destructors, no flushes, no goodbyes.
    pub fn kill(&mut self) {
        self.child.kill().unwrap();
        self.child.wait().unwrap();
    }
}

/// A test that fails before its explicit kill must not leave the node
/// running. A child already reaped by [`ChildNode::kill`] is not
/// signalled again.
impl Drop for ChildNode {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Re-execs this test binary as [`node_child`] over `dir`, with `envs`
/// on top of the child's defaults, and waits for it to publish its
/// addresses.
pub fn spawn_node(dir: &Path, envs: &[(&str, &str)]) -> ChildNode {
    // A restarted node must publish fresh addresses, not be read
    // through the previous incarnation's file.
    let addr_path = dir.join("addr.txt");
    let _ = std::fs::remove_file(&addr_path);
    let child = Command::new(std::env::current_exe().unwrap())
        .args(["support::node_child", "--exact", "--nocapture"])
        .env("MINE_NODE_DIR", dir)
        .envs(envs.iter().copied())
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !addr_path.exists() && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    let published = std::fs::read_to_string(&addr_path).expect("child never came up");
    let (http, repl) = published.split_once('\n').expect("two addresses");
    ChildNode {
        child,
        http: http.to_string(),
        repl: repl.to_string(),
    }
}

fn env_or(name: &str, default: &str) -> String {
    std::env::var(name).unwrap_or_else(|_| default.to_string())
}

fn env_millis(name: &str) -> Option<Duration> {
    let ms = std::env::var(name).ok()?;
    Some(Duration::from_millis(ms.parse().expect(name)))
}

/// Re-exec helper: with `MINE_NODE_DIR` set this "test" becomes a
/// journaled node started through [`Node::start`]. It publishes
/// `"<http addr>\n<repl addr>"` at `<dir>/addr.txt`, atomically via
/// rename, and runs until SIGKILLed. Without the variable it is a
/// no-op. Settings, all optional:
///
/// * `MINE_NODE_HTTP`: HTTP bind address (default `127.0.0.1:0`);
/// * `MINE_NODE_FSYNC`: fsync policy (default `never`, which maximizes
///   the unflushed window a SIGKILL must still lose no acked event in);
/// * `MINE_NODE_SNAPSHOT_EVERY`: compaction cadence (default 8);
/// * `MINE_NODE_SEGMENT_BYTES`: WAL segment size;
/// * `MINE_NODE_REPL_ADDR`: replication listener bind address;
/// * `MINE_NODE_REPLICA_OF`: the primary's replication address;
/// * `MINE_NODE_FAILOVER_MS` + `MINE_NODE_PEERS`: arm the unsupervised
///   failure detector;
/// * `MINE_NODE_SCRUB_MS`: anti-entropy scrub cadence (default off);
/// * `MINE_FAULT_PLAN`: the seeded fault schedule, as for `mine serve`.
#[test]
fn node_child() {
    let Some(dir) = std::env::var_os("MINE_NODE_DIR") else {
        return;
    };
    let dir = PathBuf::from(dir);
    let defaults = StoreOptions::default();
    let store = StoreOptions {
        sync: SyncPolicy::parse(&env_or("MINE_NODE_FSYNC", "never")).expect("fsync policy"),
        max_segment_bytes: std::env::var("MINE_NODE_SEGMENT_BYTES")
            .map_or(defaults.max_segment_bytes, |bytes| {
                bytes.parse().expect("segment bytes")
            }),
        fault_plan: FaultPlan::from_env()
            .expect("MINE_FAULT_PLAN")
            .map(Arc::new),
    };
    let failover = env_millis("MINE_NODE_FAILOVER_MS").map(|timeout| FailoverConfig {
        timeout,
        peers: env_or("MINE_NODE_PEERS", "")
            .split(',')
            .map(str::trim)
            .filter(|peer| !peer.is_empty())
            .map(str::to_string)
            .collect(),
    });
    let options = NodeOptions {
        serve: ServeOptions {
            addr: env_or("MINE_NODE_HTTP", "127.0.0.1:0"),
            ..ServeOptions::default()
        },
        data_dir: Some(dir.clone()),
        store,
        snapshot_every: env_or("MINE_NODE_SNAPSHOT_EVERY", "8")
            .parse()
            .expect("snapshot cadence"),
        repl_addr: std::env::var("MINE_NODE_REPL_ADDR").ok(),
        replica_of: std::env::var("MINE_NODE_REPLICA_OF").ok(),
        ack_mode: AckMode::Leader,
        failover,
        scrub_interval: env_millis("MINE_NODE_SCRUB_MS").unwrap_or(Duration::ZERO),
    };
    let (node, _) = Node::start(repository(), options).expect("start node");
    let repl = node.repl_addr().map(|addr| addr.to_string());
    let tmp = dir.join(".addr.tmp");
    std::fs::write(
        &tmp,
        format!("{}\n{}", node.local_addr(), repl.unwrap_or_default()),
    )
    .expect("write addr");
    std::fs::rename(&tmp, dir.join("addr.txt")).expect("publish addr");
    node.join();
}
