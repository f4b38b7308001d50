//! Incremental snapshots (DESIGN.md §15): compaction writes delta
//! images on top of a base, and a node that crashes anywhere — between
//! images, after a failed image write, between a delta's rename and its
//! segment cleanup — must recover the state a full replay of its
//! requests builds.
//!
//! A seeded script sends the same request stream to a journaled
//! *subject* that compacts every few events and to a *reference* that
//! never compacts. At many cut points the subject's data directory is
//! copied without draining (a simulated kill -9) and reopened; the
//! reopened node must hold a byte-identical server image and serve
//! byte-identical analysis bodies (streaming, `?indices=alt`,
//! `?mode=batch`) and live-session bodies.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use serde::Value;

use mine_assessment::core::OptionKey;
use mine_assessment::itembank::{Calibration, ChoiceOption, Exam, Problem, Repository};
use mine_assessment::server::http::Request;
use mine_assessment::server::{open_journaled_state, Router, ServerImage};
use mine_assessment::store::{FaultPlan, StoreOptions, SyncPolicy};

const STUDENTS: usize = 24;
const STEPS: usize = 700;
const CUT_EVERY: usize = 6;
const MAX_LIVE: usize = 3;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mine-incr-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Four calibrated choice items and two true/false items, so fixed and
/// adaptive sittings share one exam.
fn repository() -> Repository {
    let repo = Repository::new();
    let mut exam = Exam::builder("final").unwrap();
    for i in 0..4 {
        let id = format!("c{i}");
        repo.insert_problem(
            Problem::multiple_choice(
                id.as_str(),
                format!("Choice item {i}"),
                OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("{k}"))),
                OptionKey::first(4).nth(i % 4).unwrap(),
            )
            .unwrap()
            .with_calibration(Calibration::new(
                0.8 + 0.2 * i as f64,
                -1.0 + 0.6 * i as f64,
                0.2,
            )),
        )
        .unwrap();
        exam = exam.entry(id.parse().unwrap());
    }
    for i in 0..2 {
        let id = format!("t{i}");
        repo.insert_problem(
            Problem::true_false(id.as_str(), format!("Statement {i}"), i == 0)
                .unwrap()
                .with_calibration(Calibration::new(1.0, 0.3 * i as f64, 0.25)),
        )
        .unwrap();
        exam = exam.entry(id.parse().unwrap());
    }
    repo.insert_exam(exam.build().unwrap()).unwrap();
    repo
}

/// SplitMix64: the script's only source of choices.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn answer_json(problem: &str, pick: usize) -> String {
    if problem.starts_with('c') {
        format!("{{\"Choice\":\"{}\"}}", char::from(b'A' + (pick % 4) as u8))
    } else {
        format!("{{\"TrueFalse\":{}}}", pick.is_multiple_of(2))
    }
}

/// One live sitting as the script tracks it.
enum Sitting {
    Fixed {
        id: String,
        order: Vec<String>,
        answered: usize,
        paused: bool,
    },
    Adaptive {
        id: String,
        current: Option<String>,
    },
}

impl Sitting {
    fn id(&self) -> &str {
        match self {
            Sitting::Fixed { id, .. } | Sitting::Adaptive { id, .. } => id,
        }
    }
}

fn parse(body: &str) -> Value {
    serde_json::from_str(body).unwrap_or_else(|err| panic!("bad body {body}: {err}"))
}

fn current_item(body: &Value) -> Option<String> {
    body.get("current")
        .and_then(|current| current.get("id"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// Picks the next request from the live sittings, updating them from
/// the reference's reply through [`Script::observe`].
struct Script {
    rng: Rng,
    live: Vec<(usize, Sitting)>,
    attempts: [u64; STUDENTS],
}

/// What the script is waiting to learn from the reply to its request.
enum Pending {
    Started { student: usize, adaptive: bool },
    Answered { slot: usize },
    Paused { slot: usize },
    Resumed { slot: usize },
    Finished { slot: usize },
}

impl Script {
    fn new(seed: u64) -> Self {
        Self {
            rng: Rng(seed),
            live: Vec::new(),
            attempts: [0; STUDENTS],
        }
    }

    fn next(&mut self) -> (Request, Pending) {
        let start = self.live.len() < MAX_LIVE && (self.live.is_empty() || self.rng.below(3) == 0);
        if start {
            let student = loop {
                let student = self.rng.below(STUDENTS);
                if self.live.iter().all(|(s, _)| *s != student) {
                    break student;
                }
            };
            self.attempts[student] += 1;
            let adaptive = self.rng.below(10) < 3;
            let mode = if adaptive {
                r#","mode":"adaptive","max_items":4"#
            } else {
                ""
            };
            let body = format!(
                r#"{{"exam":"final","student":"s{student}","seed":{}{mode}}}"#,
                self.attempts[student]
            );
            return (
                Request::new("POST", "/sessions", body),
                Pending::Started { student, adaptive },
            );
        }
        let slot = self.rng.below(self.live.len());
        let roll = self.rng.below(10);
        let pick = self.rng.below(4);
        let secs = 3 + self.rng.below(40);
        let (_, sitting) = &self.live[slot];
        let path = |action: &str| format!("/sessions/{}/{action}", sitting.id());
        match sitting {
            Sitting::Fixed { paused: true, .. } => (
                Request::new("POST", &path("resume"), ""),
                Pending::Resumed { slot },
            ),
            Sitting::Fixed {
                order, answered, ..
            } => {
                if *answered == order.len() || (*answered >= 2 && roll == 0) {
                    (
                        Request::new("POST", &path("finish"), ""),
                        Pending::Finished { slot },
                    )
                } else if roll == 1 {
                    (
                        Request::new("POST", &path("pause"), ""),
                        Pending::Paused { slot },
                    )
                } else {
                    let body = format!(
                        r#"{{"answer":{},"time_spent_secs":{secs}}}"#,
                        answer_json(&order[*answered], pick)
                    );
                    (
                        Request::new("POST", &path("answers"), body),
                        Pending::Answered { slot },
                    )
                }
            }
            Sitting::Adaptive { current: None, .. } => (
                Request::new("POST", &path("finish"), ""),
                Pending::Finished { slot },
            ),
            Sitting::Adaptive {
                current: Some(item),
                ..
            } => {
                let body = format!(
                    r#"{{"answer":{},"time_spent_secs":{secs}}}"#,
                    answer_json(item, pick)
                );
                (
                    Request::new("POST", &path("answers"), body),
                    Pending::Answered { slot },
                )
            }
        }
    }

    fn observe(&mut self, pending: Pending, status: u16, body: &str) {
        match pending {
            Pending::Started { student, adaptive } => {
                assert_eq!(status, 201, "{body}");
                let body = parse(body);
                let id = body.get("session").and_then(Value::as_str).unwrap();
                let sitting = if adaptive {
                    Sitting::Adaptive {
                        id: id.to_string(),
                        current: current_item(&body),
                    }
                } else {
                    let order = match body.get("problems") {
                        Some(Value::Array(problems)) => problems
                            .iter()
                            .map(|p| p.get("id").and_then(Value::as_str).unwrap().to_string())
                            .collect(),
                        other => panic!("no problems in start body: {other:?}"),
                    };
                    Sitting::Fixed {
                        id: id.to_string(),
                        order,
                        answered: 0,
                        paused: false,
                    }
                };
                self.live.push((student, sitting));
            }
            Pending::Answered { slot } => {
                assert_eq!(status, 200, "{body}");
                match &mut self.live[slot].1 {
                    Sitting::Fixed { answered, .. } => *answered += 1,
                    Sitting::Adaptive { current, .. } => *current = current_item(&parse(body)),
                }
            }
            Pending::Paused { slot } | Pending::Resumed { slot } => {
                assert_eq!(status, 200, "{body}");
                if let Sitting::Fixed { paused, .. } = &mut self.live[slot].1 {
                    *paused = !*paused;
                }
            }
            Pending::Finished { slot } => {
                assert_eq!(status, 200, "{body}");
                self.live.remove(slot);
            }
        }
    }

    fn live_ids(&self) -> Vec<String> {
        self.live.iter().map(|(_, s)| s.id().to_string()).collect()
    }
}

fn open(dir: &Path, snapshot_every: u64, fault_plan: Option<Arc<FaultPlan>>) -> Router {
    let options = StoreOptions {
        sync: SyncPolicy::Never,
        fault_plan,
        ..StoreOptions::default()
    };
    let (state, _) = open_journaled_state(repository(), dir, options, snapshot_every)
        .unwrap_or_else(|err| panic!("open {}: {err}", dir.display()));
    Router::with_state(state)
}

fn image_json(router: &Router) -> String {
    let state = router.state();
    let image = ServerImage::capture(&state.registry, &state.finished, &state.adaptive);
    serde_json::to_string(&image).unwrap()
}

/// Copies the regular files of a journal directory, as a kill -9 would
/// leave them (the page cache survives a process crash).
fn copy_dir(from: &Path, to: &Path) {
    let _ = std::fs::remove_dir_all(to);
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let entry = entry.unwrap();
        if entry.path().is_file() {
            std::fs::copy(entry.path(), to.join(entry.file_name())).unwrap();
        }
    }
}

fn files(dir: &Path, prefix: &str) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|name| name.starts_with(prefix))
        .collect();
    names.sort();
    names
}

/// The reads every comparison makes, in order. They go to the
/// reference, the subject and the reopened copy alike, so all three see
/// the same request stream.
fn probes(script: &Script) -> Vec<Request> {
    let mut reads: Vec<Request> = [
        "/exams/final/analysis",
        "/exams/final/analysis?indices=alt",
        "/exams/final/analysis?mode=batch",
    ]
    .into_iter()
    .map(|path| Request::new("GET", path, ""))
    .collect();
    for id in script.live_ids() {
        reads.push(Request::new("GET", &format!("/sessions/{id}"), ""));
    }
    reads
}

/// Reopens `copy` and asserts it matches `reference`; `subject` gets
/// the same reads.
fn assert_recovers(
    label: &str,
    copy: &Path,
    script: &Script,
    reference: &Router,
    subject: &Router,
) {
    let reopened = open(copy, 0, None);
    let (got, expected) = (image_json(&reopened), image_json(reference));
    if got != expected {
        let at = got
            .bytes()
            .zip(expected.bytes())
            .position(|(a, b)| a != b)
            .unwrap_or(got.len().min(expected.len()));
        let from = at.saturating_sub(200);
        panic!(
            "{label}: recovered image differs from a full replay at byte {at}\n  \
             recovered: …{}\n  replayed:  …{}",
            &got[from..(at + 200).min(got.len())],
            &expected[from..(at + 200).min(expected.len())]
        );
    }
    for probe in probes(script) {
        let expected = reference.handle(&probe);
        let got = reopened.handle(&probe);
        assert_eq!(
            (got.status, &got.body),
            (expected.status, &expected.body),
            "{label}: GET {} differs after recovery",
            probe.path
        );
        let live = subject.handle(&probe);
        assert_eq!((live.status, &live.body), (expected.status, &expected.body));
    }
}

/// What one subject run saw on disk along the way.
#[derive(Default)]
struct Seen {
    cuts: usize,
    max_deltas: usize,
    folds_over_deltas: usize,
    failed_writes: usize,
    failed_writes_over_deltas: usize,
    mid_delta_crashes: usize,
}

/// Drives one subject against a fresh reference, cutting often.
fn run(tag: &str, seed: u64, snapshot_every: u64, faults: Option<&str>) -> Seen {
    let base = temp_dir(tag);
    let (subject_dir, reference_dir, copy) = (
        base.join("subject"),
        base.join("reference"),
        base.join("copy"),
    );
    let plan = faults.map(|spec| Arc::new(FaultPlan::parse(spec).unwrap()));
    let subject = open(&subject_dir, snapshot_every, plan);
    let reference = open(&reference_dir, 0, None);
    let mut script = Script::new(seed);
    let mut seen = Seen::default();

    for step in 1..=STEPS {
        let journal = subject.state().journal.as_ref().unwrap();
        let deltas_before = files(&subject_dir, "delta-");
        let bases_before = files(&subject_dir, "snapshot-");
        let segments_before = files(&subject_dir, "wal-");
        let pre = base.join("pre");
        copy_dir(&subject_dir, &pre);

        let (request, pending) = script.next();
        let expected = reference.handle(&request);
        let got = subject.handle(&request);
        assert_eq!(
            (got.status, &got.body),
            (expected.status, &expected.body),
            "{tag} step {step}: {} {}",
            request.method,
            request.path
        );
        script.observe(pending, expected.status, &expected.body);

        let deltas_after = files(&subject_dir, "delta-");
        seen.max_deltas = seen.max_deltas.max(deltas_after.len());
        if !deltas_before.is_empty() && deltas_after.is_empty() {
            seen.folds_over_deltas += 1;
        }
        if journal.due_for_snapshot() {
            // This request's compaction failed: the log is kept and the
            // next mutation retries.
            seen.failed_writes += 1;
            if !deltas_before.is_empty() {
                seen.failed_writes_over_deltas += 1;
            }
        }
        let bases_after = files(&subject_dir, "snapshot-");
        if !deltas_before.is_empty() && !bases_before.contains(&bases_after[0]) {
            // A crash between a new base's rename and the cleanup of the
            // deltas it folds in.
            std::fs::copy(subject_dir.join(&bases_after[0]), pre.join(&bases_after[0])).unwrap();
            assert_recovers(
                &format!("{tag} step {step} (base renamed, deltas kept)"),
                &pre,
                &script,
                &reference,
                &subject,
            );
            copy_dir(&subject_dir, &pre);
        }
        if let Some(new_delta) = deltas_after.iter().find(|d| !deltas_before.contains(d)) {
            // A crash between the delta's rename and its segment
            // deletion: the new delta beside the segments it covers.
            std::fs::copy(subject_dir.join(new_delta), pre.join(new_delta)).unwrap();
            for name in files(&subject_dir, "wal-") {
                std::fs::copy(subject_dir.join(&name), pre.join(&name)).unwrap();
            }
            assert!(!segments_before.is_empty());
            assert_recovers(
                &format!("{tag} step {step} (delta renamed, segments kept)"),
                &pre,
                &script,
                &reference,
                &subject,
            );
            seen.mid_delta_crashes += 1;
        }
        if step % CUT_EVERY == 0 || step == STEPS {
            copy_dir(&subject_dir, &copy);
            assert_recovers(
                &format!("{tag} step {step}"),
                &copy,
                &script,
                &reference,
                &subject,
            );
            seen.cuts += 1;
        }
    }
    drop(subject);
    let _ = std::fs::remove_dir_all(&base);
    seen
}

#[test]
fn crashes_between_compactions_recover_to_a_full_replay() {
    for (tag, seed, every) in [("every4", 11, 4), ("every16", 29, 16)] {
        let seen = run(tag, seed, every, None);
        assert!(seen.cuts >= STEPS / CUT_EVERY);
        assert!(seen.max_deltas >= 2, "{tag}: deltas never stacked");
        assert!(
            seen.folds_over_deltas >= 1,
            "{tag}: never folded into a base"
        );
        assert!(seen.mid_delta_crashes >= 5, "{tag}: too few delta writes");
    }
}

#[test]
fn a_failed_image_write_loses_nothing() {
    // Every third image write from the fifth on fails before its
    // rename; the records it would have held must reach a later image.
    let faults: Vec<String> = (5..120)
        .step_by(3)
        .map(|call| format!("disk.snapshot_err@{call}"))
        .collect();
    let seen = run("faults", 7, 5, Some(&faults.join(";")));
    assert!(
        seen.failed_writes >= 5,
        "only {} failed writes",
        seen.failed_writes
    );
    assert!(
        seen.failed_writes_over_deltas >= 3,
        "only {} failures hit a delta chain",
        seen.failed_writes_over_deltas
    );
    assert!(seen.max_deltas >= 2);
}
