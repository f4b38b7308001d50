//! The parsed tree renders back to the writer's bytes.
//!
//! `serde_json::to_string` writes typed values straight into the output
//! buffer through `Serialize::serialize_into`, the one serializer every
//! type has. What comes back out of the parser is a `Value` tree, and
//! that tree renders through the same leaf writers: the pretty printer
//! lays one out, and re-emitted parsed bodies go through it. For every
//! persisted or served type, the written bytes must parse and render
//! back unchanged: WAL payloads, snapshots and response bodies are
//! compared byte-wise across streaming, batch, replay and promotion.

use std::time::Duration;

use proptest::prelude::*;
use serde::{Serialize, Value};

use mine_assessment::adaptive::AdaptiveOptions;
use mine_assessment::analysis::{AnalysisConfig, BatchAnalyzer};
use mine_assessment::core::{Answer, CognitionLevel, OptionKey, StudentId};
use mine_assessment::delivery::{DeliveryOptions, ExamSession};
use mine_assessment::itembank::{Calibration, ChoiceOption, Exam, Problem, Repository};
use mine_assessment::server::http::Request;
use mine_assessment::server::{Router, ServerImage, SessionEvent};
use mine_assessment::simulator::{CohortSpec, Simulation};
use mine_streamstats::{alt_indices, ExamStream};

/// Characters that exercise every escape class plus multi-byte text.
const ALPHABET: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', '\u{7f}', 'é', '中',
];

fn text() -> impl Strategy<Value = String> {
    proptest::collection::vec(0usize..ALPHABET.len(), 0..10)
        .prop_map(|picks| picks.into_iter().map(|i| ALPHABET[i]).collect())
}

/// Asserts the written bytes parse to a tree that renders back to the
/// same bytes.
fn assert_identical<T: Serialize + ?Sized>(what: &str, value: &T) {
    let written = serde_json::to_string(value).unwrap();
    let parsed: Value = serde_json::from_str(&written).unwrap();
    assert_eq!(serde_json::to_string(&parsed).unwrap(), written, "{what}");
}

fn choice_problems(n_questions: usize, n_options: usize, subject: &str) -> Vec<Problem> {
    (0..n_questions)
        .map(|i| {
            Problem::multiple_choice(
                format!("q{i}"),
                format!("Question {i}: {subject}"),
                OptionKey::first(n_options).map(|k| ChoiceOption::new(k, format!("{k}"))),
                OptionKey::A,
            )
            .unwrap()
            .with_subject(format!("{subject}{}", i % 3))
            .with_cognition_level(CognitionLevel::ALL[i % 6])
        })
        .collect()
}

fn exam(n_questions: usize) -> Exam {
    let mut builder = Exam::builder("prop-exam").unwrap();
    for i in 0..n_questions {
        builder = builder.entry(format!("q{i}").parse().unwrap());
    }
    builder.build().unwrap()
}

fn answer(kind: usize, pick: usize, words: &str) -> Answer {
    match kind % 7 {
        0 => Answer::Choice(OptionKey::from_index(pick % 26).unwrap()),
        1 => Answer::MultiChoice(vec![
            OptionKey::from_index(pick % 26).unwrap(),
            OptionKey::A,
        ]),
        2 => Answer::TrueFalse(pick.is_multiple_of(2)),
        3 => Answer::Text(words.to_string()),
        4 => Answer::Completion(vec![words.to_string(), String::new()]),
        5 => Answer::Match(vec![pick, 0, usize::MAX]),
        _ => Answer::Skipped,
    }
}

/// A fixed-form exam (`quiz`, three choice items) and an adaptive one
/// (`cat`, eight calibrated items) in one bank.
fn mixed_repository() -> Repository {
    let repo = Repository::new();
    let mut quiz = Exam::builder("quiz").unwrap();
    for i in 0..3 {
        let id = format!("f{i}");
        repo.insert_problem(
            Problem::multiple_choice(
                id.as_str(),
                format!("Fixed {i}"),
                OptionKey::first(3).map(|k| ChoiceOption::new(k, format!("{k}"))),
                OptionKey::B,
            )
            .unwrap(),
        )
        .unwrap();
        quiz = quiz.entry(id.parse().unwrap());
    }
    repo.insert_exam(quiz.build().unwrap()).unwrap();
    let mut cat = Exam::builder("cat").unwrap();
    for i in 0..8 {
        let id = format!("a{i}");
        repo.insert_problem(
            Problem::multiple_choice(
                id.as_str(),
                format!("Adaptive {i}"),
                [
                    ChoiceOption::new(OptionKey::A, "yes"),
                    ChoiceOption::new(OptionKey::B, "no"),
                ],
                OptionKey::A,
            )
            .unwrap()
            .with_calibration(Calibration::new(1.2, -2.0 + 0.5 * f64::from(i), 0.1)),
        )
        .unwrap();
        cat = cat.entry(id.parse().unwrap());
    }
    repo.insert_exam(cat.build().unwrap()).unwrap();
    repo
}

fn post(router: &Router, path: &str, body: &str) -> Value {
    let response = router.handle(&Request::new("POST", path, body));
    assert!(response.status < 300, "{path}: {}", response.body);
    serde_json::from_str(&response.body).unwrap()
}

fn session_of(body: &Value) -> String {
    body.get("session")
        .and_then(Value::as_str)
        .unwrap()
        .to_string()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Streaming and batch reports, the alternative-indices view, and
    /// every sitting's record.
    #[test]
    fn reports_and_records_render_identically(
        class in 4usize..80,
        n_questions in 2usize..9,
        n_options in 2usize..6,
        seed in 0u64..1_000,
        subject in text(),
    ) {
        let problems = choice_problems(n_questions, n_options, &subject);
        let mut record = Simulation::new(exam(n_questions), problems.clone())
            .cohort(CohortSpec::new(class).seed(seed))
            .run()
            .unwrap();
        record.students.sort_by(|a, b| a.student.cmp(&b.student));
        let config = AnalysisConfig::default();
        let batch = BatchAnalyzer::new(config)
            .analyze_records(std::slice::from_ref(&record), &problems)
            .unwrap();
        assert_identical("BatchReport", &batch);
        assert_identical("alt_indices", &alt_indices(&batch.analyses[0]));
        let mut stream = ExamStream::new(config);
        for student in &record.students {
            stream.apply(student);
        }
        if let Ok(streamed) = stream.report(&problems) {
            assert_identical("streamed BatchReport", &streamed);
        }
        for student in &record.students {
            assert_identical("StudentRecord", student);
        }
    }

    /// Every WAL event variant, with arbitrary ids, answers and times.
    #[test]
    fn every_session_event_renders_identically(
        session in text(),
        words in text(),
        kind in 0usize..7,
        pick in 0usize..1_000,
        seed in any::<u64>(),
        secs in any::<u64>(),
        nanos in 0u32..1_000_000_000,
        accommodation in 0.0f64..100.0,
        se_threshold in 0.0f64..1.0,
    ) {
        let exam_id = "prop-exam".parse().unwrap();
        let student: StudentId = "s1".parse().unwrap();
        let time_spent = Duration::new(secs, nanos);
        let events = [
            SessionEvent::Created {
                exam: exam_id,
                student: student.clone(),
                options: DeliveryOptions {
                    seed,
                    resumable: pick.is_multiple_of(2),
                    time_accommodation: accommodation,
                },
            },
            SessionEvent::Answered {
                session: session.clone(),
                answer: answer(kind, pick, &words),
                time_spent,
            },
            SessionEvent::Paused { session: session.clone() },
            SessionEvent::Resumed { session: session.clone() },
            SessionEvent::Finished { session: session.clone() },
            SessionEvent::AdaptiveCreated {
                exam: "cat".parse().unwrap(),
                student,
                options: AdaptiveOptions {
                    seed,
                    min_items: pick,
                    max_items: pick + 3,
                    se_threshold,
                },
            },
            SessionEvent::AdaptiveStep {
                session: session.clone(),
                answer: answer(kind + 1, pick, &words),
                time_spent,
            },
            SessionEvent::AdaptiveFinished { session },
        ];
        for event in &events {
            assert_identical(event.label(), event);
        }
    }

    /// Checkpoints of paused sittings and the full snapshot image:
    /// live fixed-form sessions, finished records, and live adaptive
    /// sittings mid-estimate.
    #[test]
    fn checkpoints_and_server_images_render_identically(
        fixed in 1usize..5,
        adaptive in 1usize..4,
        steps in 0usize..4,
        seed in 0u64..1_000,
        picks in proptest::collection::vec(0usize..3, 3),
    ) {
        let problems = choice_problems(4, 4, "s");
        let mut session = ExamSession::start(
            &exam(4),
            problems,
            "learner".parse().unwrap(),
            DeliveryOptions { seed, resumable: true, time_accommodation: 1.5 },
        )
        .unwrap();
        for &pick in &picks {
            session
                .answer(
                    Answer::Choice(OptionKey::from_index(pick).unwrap()),
                    Duration::from_millis(1_234 + pick as u64),
                )
                .unwrap();
        }
        assert_identical("SessionCheckpoint", &session.pause().unwrap());

        let router = Router::new(mixed_repository());
        for i in 0..fixed {
            let body = format!(r#"{{"exam":"quiz","student":"f{i}","seed":{seed}}}"#);
            let id = session_of(&post(&router, "/sessions", &body));
            for &pick in picks.iter().take(i % 4) {
                let key = ["A", "B", "C"][pick];
                post(
                    &router,
                    &format!("/sessions/{id}/answers"),
                    &format!(r#"{{"answer":{{"Choice":"{key}"}},"time_spent_secs":{pick}.25}}"#),
                );
            }
            match i % 3 {
                0 => {
                    post(&router, &format!("/sessions/{id}/finish"), "");
                }
                1 => {
                    post(&router, &format!("/sessions/{id}/pause"), "");
                }
                _ => {}
            }
        }
        for i in 0..adaptive {
            let body = format!(
                r#"{{"exam":"cat","student":"a{i}","seed":{seed},"mode":"adaptive","min_items":2,"max_items":6,"se_threshold":0.001}}"#
            );
            let id = session_of(&post(&router, "/sessions", &body));
            for step in 0..steps {
                let key = if (step + i) % 2 == 0 { "A" } else { "B" };
                post(
                    &router,
                    &format!("/sessions/{id}/answers"),
                    &format!(r#"{{"answer":{{"Choice":"{key}"}},"time_spent_secs":3}}"#),
                );
            }
        }
        let state = router.state();
        let image = ServerImage::capture(&state.registry, &state.finished, &state.adaptive);
        assert!(image.adaptive.as_ref().is_some_and(|live| live.len() == adaptive));
        assert_identical("ServerImage", &image);
    }
}
