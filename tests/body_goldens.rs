//! Literal goldens for the JSON bodies written field by field rather
//! than derived from a type.
//!
//! The served bodies are driven through an in-process [`Router`] (no
//! socket): `/healthz`, the fixed-form start, status and answer
//! replies, the adaptive start, status, step and `422` replies, the
//! follower's `421`, `/admin/ranges`, promote and demote. The CLI's
//! `mine scrub --json` and `mine audit --json` run over a journal the
//! same router wrote. Only wall-clock fields (`elapsed_secs`,
//! `remaining_secs`) and temp-dir paths are masked; every other byte,
//! key order and number format included, is compared exactly.

use std::path::{Path, PathBuf};
use std::process::Command;
use std::sync::Arc;

use mine_assessment::core::OptionKey;
use mine_assessment::itembank::{Calibration, ChoiceOption, Exam, MatchPairs, Problem, Repository};
use mine_assessment::server::http::Request;
use mine_assessment::server::{open_journaled_state, AckMode, ReplState, Role, Router};
use mine_assessment::store::StoreOptions;

/// One fixed exam covering every summary shape (options, blanks,
/// pairs, none) and one calibrated adaptive exam.
fn repository() -> Repository {
    let repo = Repository::new();
    let three = [
        ChoiceOption::new(OptionKey::A, "alpha"),
        ChoiceOption::new(OptionKey::B, "beta"),
        ChoiceOption::new(OptionKey::C, "gamma"),
    ];
    repo.insert_problem(Problem::multiple_choice("q1", "Pick B.", three, OptionKey::B).unwrap())
        .unwrap();
    repo.insert_problem(Problem::true_false("q2", "Is \"TCP\" reliable?", true).unwrap())
        .unwrap();
    repo.insert_problem(
        Problem::completion(
            "q3",
            "Fill ___ and ___.",
            ["x".to_string(), "y".to_string()],
        )
        .unwrap(),
    )
    .unwrap();
    let pairs = MatchPairs {
        left: vec!["one".to_string(), "two".to_string()],
        right: vec!["1".to_string(), "2".to_string(), "3".to_string()],
        correct: vec![0, 1],
    };
    repo.insert_problem(Problem::match_items("q4", pairs).unwrap())
        .unwrap();
    let mut quiz = Exam::builder("quiz").unwrap();
    for id in ["q1", "q2", "q3", "q4"] {
        quiz = quiz.entry(id.parse().unwrap());
    }
    repo.insert_exam(
        quiz.test_time(std::time::Duration::from_secs(600))
            .build()
            .unwrap(),
    )
    .unwrap();

    let mut cat = Exam::builder("cat").unwrap();
    for i in 0..6 {
        let id = format!("a{i}");
        let difficulty = -1.5 + 0.6 * f64::from(i);
        let two = [
            ChoiceOption::new(OptionKey::A, "yes"),
            ChoiceOption::new(OptionKey::B, "no"),
        ];
        repo.insert_problem(
            Problem::multiple_choice(id.as_str(), "Pick A.", two, OptionKey::A)
                .unwrap()
                .with_calibration(Calibration::new(1.2, difficulty, 0.1)),
        )
        .unwrap();
        cat = cat.entry(id.parse().unwrap());
    }
    repo.insert_exam(cat.build().unwrap()).unwrap();
    repo
}

/// Replaces the number after every `"field":` with `#`.
fn mask_number(body: &str, field: &str) -> String {
    let needle = format!("\"{field}\":");
    let mut out = String::with_capacity(body.len());
    let mut rest = body;
    while let Some(at) = rest.find(&needle) {
        let value_start = at + needle.len();
        out.push_str(&rest[..value_start]);
        rest = &rest[value_start..];
        let end = rest.find([',', '}']).unwrap_or(rest.len());
        out.push('#');
        rest = &rest[end..];
    }
    out.push_str(rest);
    out
}

fn mask_clock(body: &str) -> String {
    mask_number(&mask_number(body, "elapsed_secs"), "remaining_secs")
}

/// Collects every mismatch so one run reports all of them.
#[derive(Default)]
struct Goldens {
    mismatches: Vec<String>,
}

impl Goldens {
    fn check(&mut self, name: &str, actual: &str, golden: &str) {
        if actual != golden {
            self.mismatches
                .push(format!("{name}:\n  actual: {actual}\n  golden: {golden}"));
        }
    }

    /// Sends one request and checks the status and the masked body.
    fn request(
        &mut self,
        router: &Router,
        (method, path, body): (&str, &str, &str),
        status: u16,
        golden: &str,
    ) -> String {
        let response = router.handle(&Request::new(method, path, body));
        let name = format!("{method} {path}");
        if response.status != status {
            self.mismatches.push(format!(
                "{name}: status {} (want {status}): {}",
                response.status, response.body
            ));
        }
        self.check(&name, &mask_clock(&response.body), golden);
        response.body
    }

    /// Runs `mine <command> <dir> --json`, checking the exit status and
    /// stdout with `dir` masked.
    fn cli(&mut self, dir: &Path, command: &str, success: bool, golden: &str) {
        let dir_text = dir.display().to_string();
        let output = Command::new(env!("CARGO_BIN_EXE_mine"))
            .args([command, &dir_text, "--json"])
            .output()
            .unwrap();
        let name = format!("mine {command} --json");
        if output.status.success() != success {
            self.mismatches
                .push(format!("{name}: exit {:?}", output.status));
        }
        let stdout = String::from_utf8(output.stdout)
            .unwrap()
            .replace(&dir_text, "<DIR>");
        self.check(&name, &stdout, golden);
    }

    fn finish(self) {
        assert!(
            self.mismatches.is_empty(),
            "{} golden(s) differ:\n{}",
            self.mismatches.len(),
            self.mismatches.join("\n")
        );
    }
}

/// A fresh scratch directory for one test.
fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mine-body-goldens-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A router over a journal in `dir` whose segments seal after a few
/// records and whose images compact every four events, replicating in
/// `role` when one is given.
fn journaled_router(dir: &Path, role: Option<Role>) -> Router {
    let options = StoreOptions {
        max_segment_bytes: 256,
        ..StoreOptions::default()
    };
    let (mut state, _) = open_journaled_state(repository(), dir, options, 12).unwrap();
    state.repl = role.map(|role| Arc::new(ReplState::new(role, AckMode::Leader)));
    Router::with_state(state)
}

const HEALTHZ: &str =
    r#"{"status":"ok","role":"primary","epoch":1,"last_applied_seq":0,"storage":"ok"}"#;

const FIXED_START: &str = r#"{"session":"quiz#s1@3","exam":"quiz","student":"s1","state":"active","questions":4,"problems":[{"id":"q1","style":"multiple-choice","options":3},{"id":"q2","style":"true-false"},{"id":"q3","style":"completion","blanks":2},{"id":"q4","style":"match","pairs":2,"right":3}],"remaining_secs":#}"#;

const FIXED_STATUS: &str = r#"{"session":"quiz#s1@3","state":"active","answered":0,"elapsed_secs":#,"remaining_secs":#,"current":"q1"}"#;

const FIXED_ANSWER: &str = r#"{"session":"quiz#s1@3","state":"active","answered":1,"elapsed_secs":#,"remaining_secs":#,"current":"q2"}"#;

#[test]
fn fixed_sitting_bodies_match_the_goldens() {
    let router = Router::new(repository());
    let mut goldens = Goldens::default();
    goldens.request(&router, ("GET", "/healthz", ""), 200, HEALTHZ);
    let start = r#"{"exam":"quiz","student":"s1","seed":3}"#;
    let started = goldens.request(&router, ("POST", "/sessions", start), 201, FIXED_START);
    let session = session_id(&started);
    let status = format!("/sessions/{session}");
    goldens.request(&router, ("GET", &status, ""), 200, FIXED_STATUS);
    let answers = format!("/sessions/{session}/answers");
    let answer = r#"{"answer":{"Choice":"B"},"time_spent_secs":4.5}"#;
    goldens.request(&router, ("POST", &answers, answer), 200, FIXED_ANSWER);
    goldens.finish();
}

const ADAPTIVE_START: &str = r#"{"session":"cat~s2@9","exam":"cat","student":"s2","mode":"adaptive","min_items":2,"max_items":4,"se_threshold":0.25,"state":"active","steps":0,"theta":0.0,"se":1.0,"elapsed_secs":#,"done":false,"current":{"id":"a2","style":"multiple-choice","options":2}}"#;

const ADAPTIVE_STATUS: &str = r#"{"session":"cat~s2@9","mode":"adaptive","state":"active","steps":0,"theta":0.0,"se":1.0,"elapsed_secs":#,"done":false,"current":{"id":"a2","style":"multiple-choice","options":2}}"#;

const ADAPTIVE_STEP: &str = r#"{"session":"cat~s2@9","mode":"adaptive","state":"active","steps":1,"theta":0.33661029591521596,"se":0.9208765331795921,"elapsed_secs":#,"done":false,"current":{"id":"a3","style":"multiple-choice","options":2}}"#;

const ADAPTIVE_REJECTED: &str = r#"{"error":"invalid adaptive option min_items: min_items (5) must not exceed max_items (2)","field":"min_items"}"#;

#[test]
fn adaptive_sitting_bodies_match_the_goldens() {
    let router = Router::new(repository());
    let mut goldens = Goldens::default();
    let start = r#"{"exam":"cat","student":"s2","seed":9,"mode":"adaptive","min_items":2,"max_items":4,"se_threshold":0.25}"#;
    let started = goldens.request(&router, ("POST", "/sessions", start), 201, ADAPTIVE_START);
    let session = session_id(&started);
    let status = format!("/sessions/{session}");
    goldens.request(&router, ("GET", &status, ""), 200, ADAPTIVE_STATUS);
    let answers = format!("/sessions/{session}/answers");
    let answer = r#"{"answer":{"Choice":"A"},"time_spent_secs":3}"#;
    goldens.request(&router, ("POST", &answers, answer), 200, ADAPTIVE_STEP);
    let bad = r#"{"exam":"cat","student":"s3","mode":"adaptive","min_items":5,"max_items":2}"#;
    goldens.request(&router, ("POST", "/sessions", bad), 422, ADAPTIVE_REJECTED);
    goldens.finish();
}

const RANGES: &str = r#"{"role":"primary","epoch":1,"head_seq":42,"corrupt_segments":0,"ranges":[{"first_seq":1,"last_seq":40,"count":4,"hash":12180306858761335132}]}"#;

const REDIRECT_NO_LEADER: &str =
    r#"{"error":"this node is a read replica; writes go to the leader","leader":""}"#;

const PROMOTED: &str = r#"{"role":"primary","epoch":2,"last_applied_seq":42}"#;

const DEMOTED: &str = r#"{"role":"follower","epoch":7}"#;

const REDIRECT: &str =
    r#"{"error":"this node is a read replica; writes go to the leader","leader":"127.0.0.1:7400"}"#;

const SCRUB: &str = concat!(
    r#"{"clean":true,"segments":[{"file":"wal-00000000000000000037.log","first_seq":37,"records":2,"bytes":231,"corrupt":null},{"file":"wal-00000000000000000039.log","first_seq":39,"records":2,"bytes":234,"corrupt":null},{"file":"wal-00000000000000000041.log","first_seq":41,"records":2,"bytes":163,"corrupt":null}],"ranges":[{"first_seq":1,"last_seq":42,"count":6,"hash":17188286473387972094}],"snapshot":{"file":"snapshot-00000000000000000024.snap","last_seq":24,"bytes":3134,"corrupt":null},"deltas":[{"file":"delta-00000000000000000036.snap","last_seq":36,"bytes":1602,"corrupt":null}]}"#,
    "\n"
);

const AUDIT: &str = concat!(
    r#"{"clean":true,"nodes":[{"dir":"<DIR>","epoch":7,"snapshot_seq":36,"head_seq":42,"events":6,"repairs":[],"violations":[]}],"cross_violations":[],"replay_violations":[],"violations":[]}"#,
    "\n"
);

const SCRUB_CORRUPT: &str = concat!(
    r#"{"clean":false,"segments":[{"file":"wal-00000000000000000037.log","first_seq":37,"records":0,"bytes":231,"corrupt":"corrupt at offset 0: frame seq 37 failed CRC verification"},{"file":"wal-00000000000000000039.log","first_seq":39,"records":2,"bytes":234,"corrupt":null},{"file":"wal-00000000000000000041.log","first_seq":41,"records":2,"bytes":163,"corrupt":null}],"ranges":[{"first_seq":1,"last_seq":42,"count":4,"hash":17944342353978451005}],"snapshot":{"file":"snapshot-00000000000000000024.snap","last_seq":24,"bytes":3134,"corrupt":null},"deltas":[{"file":"delta-00000000000000000036.snap","last_seq":36,"bytes":1602,"corrupt":null}]}"#,
    "\n"
);

const AUDIT_CORRUPT: &str = concat!(
    r#"{"clean":false,"nodes":[{"dir":"<DIR>","epoch":0,"snapshot_seq":0,"head_seq":0,"events":0,"repairs":[],"violations":["history failed to open: corrupt log: frame seq 37 failed CRC verification (wal-00000000000000000037.log at offset 0)"]}],"cross_violations":[],"replay_violations":[],"violations":["<DIR>: history failed to open: corrupt log: frame seq 37 failed CRC verification (wal-00000000000000000037.log at offset 0)"]}"#,
    "\n"
);

#[test]
fn admin_and_cli_bodies_match_the_goldens() {
    let dir = temp_dir("admin");
    let mut goldens = Goldens::default();
    {
        let router = journaled_router(&dir, None);
        for (student, seed) in [
            ("s1", 1),
            ("s2", 2),
            ("s3", 3),
            ("s4", 4),
            ("s5", 5),
            ("s6", 6),
            ("s1", 7),
        ] {
            sit(&router, student, seed);
        }
        goldens.request(&router, ("GET", "/admin/ranges", ""), 200, RANGES);
    }
    {
        // Reopened as a follower that knows no leader yet.
        let router = journaled_router(&dir, Some(Role::Follower));
        let write = ("POST", "/sessions", r#"{"exam":"quiz","student":"s9"}"#);
        goldens.request(&router, write, 421, REDIRECT_NO_LEADER);
        goldens.request(&router, ("POST", "/admin/promote", ""), 200, PROMOTED);
        let demote = r#"{"epoch":7,"leader":"127.0.0.1:7400"}"#;
        goldens.request(&router, ("POST", "/admin/demote", demote), 200, DEMOTED);
        goldens.request(&router, write, 421, REDIRECT);
    }
    goldens.cli(&dir, "scrub", true, SCRUB);
    goldens.cli(&dir, "audit", true, AUDIT);
    // Flip one payload byte of the oldest sealed segment: both verdicts
    // turn red and name the damage.
    let segment = dir.join("wal-00000000000000000037.log");
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes[40] ^= 0x20;
    std::fs::write(&segment, bytes).unwrap();
    goldens.cli(&dir, "scrub", false, SCRUB_CORRUPT);
    goldens.cli(&dir, "audit", false, AUDIT_CORRUPT);
    let _ = std::fs::remove_dir_all(&dir);
    goldens.finish();
}

/// Starts, answers and finishes one fixed sitting.
fn sit(router: &Router, student: &str, seed: u64) {
    let start = format!(r#"{{"exam":"quiz","student":"{student}","seed":{seed}}}"#);
    let started = router.handle(&Request::new("POST", "/sessions", start));
    assert_eq!(started.status, 201, "{}", started.body);
    let session = session_id(&started.body);
    for answer in [
        r#"{"Choice":"B"}"#,
        r#"{"TrueFalse":true}"#,
        r#"{"Completion":["x","z"]}"#,
        r#"{"Match":[0,2]}"#,
    ] {
        let body = format!(r#"{{"answer":{answer},"time_spent_secs":2}}"#);
        let path = format!("/sessions/{session}/answers");
        let response = router.handle(&Request::new("POST", &path, body));
        assert_eq!(response.status, 200, "{}", response.body);
    }
    let path = format!("/sessions/{session}/finish");
    let finished = router.handle(&Request::new("POST", &path, ""));
    assert_eq!(finished.status, 200, "{}", finished.body);
}

/// The `"session"` id of a start reply.
fn session_id(body: &str) -> String {
    let value: serde_json::Value = serde_json::from_str(body).unwrap();
    value.get("session").unwrap().as_str().unwrap().to_string()
}
