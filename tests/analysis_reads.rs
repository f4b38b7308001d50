//! Served analysis reads stay byte-identical to a fresh computation.
//!
//! A streaming `GET /exams/{id}/analysis` may answer with a body built
//! by an earlier read, as long as neither the class nor the item bank
//! changed since. This suite drives an in-process router through
//! finishes, resits, repeated reads and a bank edit, and after every
//! step checks both the full report and the `?indices=alt` view
//! against the `?mode=batch` body (which never reuses a body) and
//! against a report assembled by a freshly built `StreamEngine` over
//! the same rows.

use mine_assessment::analysis::AnalysisConfig;
use mine_assessment::core::OptionKey;
use mine_assessment::itembank::{ChoiceOption, Exam, Problem, ProblemBody, Repository};
use mine_assessment::server::http::Request;
use mine_assessment::server::Router;
use mine_streamstats::{alt_indices, StreamEngine};

const FULL: &str = "/exams/quiz/analysis";
const ALT: &str = "/exams/quiz/analysis?indices=alt";

fn options(keys: &[(OptionKey, &str)]) -> Vec<ChoiceOption> {
    keys.iter()
        .map(|&(key, text)| ChoiceOption::new(key, text))
        .collect()
}

fn repository() -> Repository {
    let repo = Repository::new();
    let four = [
        (OptionKey::A, "alpha"),
        (OptionKey::B, "beta"),
        (OptionKey::C, "gamma"),
        (OptionKey::D, "delta"),
    ];
    repo.insert_problem(
        Problem::multiple_choice("q1", "Pick C.", options(&four), OptionKey::C).unwrap(),
    )
    .unwrap();
    repo.insert_problem(Problem::true_false("q2", "Is the sky blue?", true).unwrap())
        .unwrap();
    repo.insert_problem(
        Problem::multiple_choice("q3", "Pick A.", options(&four[..3]), OptionKey::A).unwrap(),
    )
    .unwrap();
    repo.insert_problem(Problem::true_false("q4", "Is water dry?", false).unwrap())
        .unwrap();
    let mut exam = Exam::builder("quiz").unwrap();
    for id in ["q1", "q2", "q3", "q4"] {
        exam = exam.entry(id.parse().unwrap());
    }
    repo.insert_exam(exam.build().unwrap()).unwrap();
    repo
}

fn get(router: &Router, path: &str) -> String {
    let response = router.handle(&Request::new("GET", path, ""));
    assert_eq!(response.status, 200, "GET {path}: {}", response.body);
    response.body
}

fn post(router: &Router, path: &str, body: &str) -> String {
    let response = router.handle(&Request::new("POST", path, body));
    assert!(
        (200..300).contains(&response.status),
        "POST {path}: {} {}",
        response.status,
        response.body
    );
    response.body
}

/// An answer to `problem` that depends on the student and the sitting,
/// so a resit changes the student's row.
fn answer(problem: &str, student: usize, sitting: usize) -> String {
    let salt = student * 7 + sitting * 3;
    match problem {
        "q1" => format!("{{\"Choice\":\"{}\"}}", char::from(b'A' + (salt % 4) as u8)),
        "q3" => format!("{{\"Choice\":\"{}\"}}", char::from(b'A' + (salt % 3) as u8)),
        "q2" => format!("{{\"TrueFalse\":{}}}", salt % 3 != 1),
        "q4" => format!("{{\"TrueFalse\":{}}}", salt.is_multiple_of(5)),
        other => panic!("unexpected problem {other}"),
    }
}

/// Starts, answers and finishes one sitting of `student`.
fn sit(router: &Router, student: usize, sitting: usize) {
    let body = format!(
        "{{\"exam\":\"quiz\",\"student\":\"s{student:03}\",\"seed\":{}}}",
        student * 10 + sitting
    );
    let started: serde::Value = serde_json::from_str(&post(router, "/sessions", &body)).unwrap();
    let session = started
        .get("session")
        .and_then(serde::Value::as_str)
        .unwrap();
    let problems = started
        .get("problems")
        .and_then(serde::Value::as_array)
        .unwrap();
    for (i, problem) in problems.iter().enumerate() {
        let id = problem.get("id").and_then(serde::Value::as_str).unwrap();
        let body = format!(
            "{{\"answer\":{},\"time_spent_secs\":{}}}",
            answer(id, student, sitting),
            3 + (student + i) % 11
        );
        post(router, &format!("/sessions/{session}/answers"), &body);
    }
    post(router, &format!("/sessions/{session}/finish"), "");
}

/// The full and alt bodies a freshly built engine assembles over the
/// router's current rows and bank.
fn fresh_bodies(router: &Router) -> (String, String) {
    let state = router.state();
    let engine = StreamEngine::new(AnalysisConfig::default());
    for record in state.finished.records("quiz") {
        engine.apply("quiz", &record);
    }
    let (_, problems) = state
        .repository
        .resolve_exam(&"quiz".parse().unwrap())
        .unwrap();
    let report = engine.report("quiz", &problems).expect("streamable class");
    let alt = alt_indices(report.analyses.first().unwrap());
    (
        serde_json::to_string(&report).unwrap(),
        serde_json::to_string(&alt).unwrap(),
    )
}

/// Reads both views twice (the second read of each may reuse the
/// first's body) and checks every body against both references.
/// Returns the (full, alt) bodies.
fn check(router: &Router, step: &str) -> (String, String) {
    let batch_full = get(router, "/exams/quiz/analysis?mode=batch");
    let batch_alt = get(router, "/exams/quiz/analysis?mode=batch&indices=alt");
    let (fresh_full, fresh_alt) = fresh_bodies(router);
    assert_eq!(batch_full, fresh_full, "{step}: batch vs fresh engine");
    assert_eq!(batch_alt, fresh_alt, "{step}: batch alt vs fresh engine");
    for read in 0..2 {
        assert_eq!(get(router, FULL), batch_full, "{step}: full read {read}");
        assert_eq!(get(router, ALT), batch_alt, "{step}: alt read {read}");
    }
    (batch_full, batch_alt)
}

#[test]
fn every_read_matches_a_fresh_report() {
    let router = Router::new(repository());
    for student in 0..12 {
        sit(&router, student, 0);
    }
    let (first_full, first_alt) = check(&router, "seeded class");

    // Reads with nothing in between serve the same bytes.
    assert_eq!(
        check(&router, "repeat"),
        (first_full.clone(), first_alt.clone())
    );

    // Each finish moves the report; the next read must see it.
    let mut previous = first_full;
    for student in 12..16 {
        sit(&router, student, 0);
        let (full, _) = check(&router, &format!("finish s{student:03}"));
        assert_ne!(
            full, previous,
            "finish s{student:03} should change the report"
        );
        previous = full;
    }

    // Resits replace rows without changing the class size.
    for student in [0, 5, 13] {
        sit(&router, student, 1);
        let (full, _) = check(&router, &format!("resit s{student:03}"));
        assert_ne!(
            full, previous,
            "resit s{student:03} should change the report"
        );
        previous = full;
    }
    assert_eq!(router.state().finished.count("quiz"), 16);

    // A bank edit the report prints (q1's key moves from C to B)
    // changes both views with no change to the class.
    let (before_full, before_alt) = check(&router, "before edit");
    router
        .state()
        .repository
        .update_problem(&"q1".parse().unwrap(), |problem| {
            let ProblemBody::MultipleChoice { options, stem, .. } = problem.body().clone() else {
                unreachable!("q1 is multiple choice");
            };
            problem.set_body(ProblemBody::MultipleChoice {
                stem,
                options,
                correct: OptionKey::B,
            })
        })
        .unwrap();
    let (after_full, after_alt) = check(&router, "after edit");
    assert_ne!(after_full, before_full, "the edit should change the report");
    assert_ne!(after_alt, before_alt, "the edit should change the alt view");
}
