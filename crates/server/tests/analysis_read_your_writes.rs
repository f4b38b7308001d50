//! Read-your-writes for analysis reads under concurrency.
//!
//! Finisher threads file sittings while reader threads poll
//! `GET /exams/{id}/analysis`. A streaming read may reuse a body built
//! by an earlier read, so this checks that reuse never hides a finish
//! that has already returned: every read reports a class at least as
//! large as the number of finishes completed before the read began.
//! Once everything stops, the streaming bodies must equal the batch
//! bodies.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

use mine_core::OptionKey;
use mine_itembank::{ChoiceOption, Exam, Problem, Repository};
use mine_server::http::Request;
use mine_server::Router;
use serde::Value;

const FINISHERS: usize = 2;
const READERS: usize = 2;
const SITTINGS_PER_FINISHER: usize = 40;
const SEEDED: usize = 8;

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
            ],
            OptionKey::C,
        )
        .unwrap(),
    )
    .unwrap();
    repo.insert_problem(Problem::true_false("q2", "Is the sky blue?", true).unwrap())
        .unwrap();
    repo.insert_problem(Problem::true_false("q3", "Is water dry?", false).unwrap())
        .unwrap();
    repo.insert_exam(
        Exam::builder("quiz")
            .unwrap()
            .entry("q1".parse().unwrap())
            .entry("q2".parse().unwrap())
            .entry("q3".parse().unwrap())
            .build()
            .unwrap(),
    )
    .unwrap();
    repo
}

fn call(router: &Router, method: &str, path: &str, body: &str) -> String {
    let response = router.handle(&Request::new(method, path, body));
    assert!(
        (200..300).contains(&response.status),
        "{method} {path}: {} {}",
        response.status,
        response.body
    );
    response.body
}

fn answer(problem: &str, salt: usize) -> String {
    match problem {
        "q1" => format!("{{\"Choice\":\"{}\"}}", char::from(b'A' + (salt % 3) as u8)),
        "q2" => format!("{{\"TrueFalse\":{}}}", salt % 3 != 1),
        "q3" => format!("{{\"TrueFalse\":{}}}", salt.is_multiple_of(4)),
        other => panic!("unexpected problem {other}"),
    }
}

/// Starts, answers and finishes one sitting; returns once the finish
/// has been answered.
fn sit(router: &Router, student: &str, salt: usize) {
    let body = format!("{{\"exam\":\"quiz\",\"student\":\"{student}\",\"seed\":{salt}}}");
    let started: Value = serde_json::from_str(&call(router, "POST", "/sessions", &body)).unwrap();
    let session = started.get("session").and_then(Value::as_str).unwrap();
    let problems = started.get("problems").and_then(Value::as_array).unwrap();
    for (i, problem) in problems.iter().enumerate() {
        let id = problem.get("id").and_then(Value::as_str).unwrap();
        let body = format!(
            "{{\"answer\":{},\"time_spent_secs\":{}}}",
            answer(id, salt + i),
            2 + (salt + i) % 7
        );
        call(
            router,
            "POST",
            &format!("/sessions/{session}/answers"),
            &body,
        );
    }
    call(router, "POST", &format!("/sessions/{session}/finish"), "");
}

fn class_size(body: &str) -> usize {
    let report: Value = serde_json::from_str(body).unwrap();
    match report
        .get("summary")
        .and_then(|summary| summary.get("students"))
    {
        Some(Value::Number(serde::Number::PosInt(students))) => usize::try_from(*students).unwrap(),
        other => panic!("summary.students is {other:?}"),
    }
}

#[test]
fn a_read_after_a_finish_includes_it() {
    let router = Router::new(repository());
    for s in 0..SEEDED {
        sit(&router, &format!("seed{s}"), s);
    }
    let completed = AtomicUsize::new(SEEDED);
    let finishing = AtomicBool::new(true);
    let reads = AtomicUsize::new(0);

    std::thread::scope(|scope| {
        let finishers: Vec<_> = (0..FINISHERS)
            .map(|t| {
                let (router, completed) = (&router, &completed);
                scope.spawn(move || {
                    for i in 0..SITTINGS_PER_FINISHER {
                        sit(router, &format!("f{t}n{i}"), t * 1000 + i);
                        completed.fetch_add(1, Ordering::SeqCst);
                        // A resit replaces a row; the class size stays.
                        if i % 5 == 4 {
                            sit(router, &format!("f{t}n{}", i / 2), t * 1000 + i + 500);
                        }
                    }
                })
            })
            .collect();
        for r in 0..READERS {
            let (router, completed, finishing, reads) = (&router, &completed, &finishing, &reads);
            scope.spawn(move || {
                let mut n = 0_usize;
                while finishing.load(Ordering::SeqCst) {
                    let floor = completed.load(Ordering::SeqCst);
                    let path = if (n + r) % 4 == 3 {
                        "/exams/quiz/analysis?indices=alt"
                    } else {
                        "/exams/quiz/analysis"
                    };
                    let body = call(router, "GET", path, "");
                    if !path.ends_with("alt") {
                        let seen = class_size(&body);
                        assert!(
                            seen >= floor,
                            "read began after {floor} finishes but saw a class of {seen}"
                        );
                    }
                    n += 1;
                }
                reads.fetch_add(n, Ordering::SeqCst);
            });
        }
        for finisher in finishers {
            finisher.join().unwrap();
        }
        finishing.store(false, Ordering::SeqCst);
    });
    assert!(reads.load(Ordering::SeqCst) > 0, "readers never ran");

    let total = SEEDED + FINISHERS * SITTINGS_PER_FINISHER;
    let streaming = call(&router, "GET", "/exams/quiz/analysis", "");
    assert_eq!(class_size(&streaming), total);
    let batch = call(&router, "GET", "/exams/quiz/analysis?mode=batch", "");
    assert_eq!(streaming, batch, "streaming must match batch at quiescence");
    let alt = call(&router, "GET", "/exams/quiz/analysis?indices=alt", "");
    let batch_alt = call(
        &router,
        "GET",
        "/exams/quiz/analysis?mode=batch&indices=alt",
        "",
    );
    assert_eq!(alt, batch_alt, "alt view must match batch at quiescence");
}
