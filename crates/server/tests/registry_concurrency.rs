//! Concurrency properties of the sharded [`SessionRegistry`]:
//! threads driving disjoint sessions must produce records
//! byte-identical to a sequential run, and a single session must stay
//! coherent under pause/resume contention.

use std::sync::{Arc, Mutex};
use std::thread;
use std::time::Duration;

use proptest::prelude::*;

use mine_core::{Answer, OptionKey, StudentRecord};
use mine_delivery::{DeliveryOptions, ExamSession, SessionState};
use mine_itembank::{ChoiceOption, Exam, Problem, Repository};
use mine_server::{SessionRegistry, SessionSlot};

/// One student's scripted sitting: what they answer and how long each
/// item takes.
#[derive(Debug, Clone)]
struct Script {
    choice_q1: usize,
    tf_q2: bool,
    choice_q3: usize,
    item_secs: u64,
}

fn script_strategy() -> impl Strategy<Value = Script> {
    (0usize..4, any::<bool>(), 0usize..2, 1u64..120).prop_map(
        |(choice_q1, tf_q2, choice_q3, item_secs)| Script {
            choice_q1,
            tf_q2,
            choice_q3,
            item_secs,
        },
    )
}

fn repository() -> Repository {
    let repo = Repository::new();
    repo.insert_problem(
        Problem::multiple_choice(
            "q1",
            "Pick C.",
            [
                ChoiceOption::new(OptionKey::A, "a"),
                ChoiceOption::new(OptionKey::B, "b"),
                ChoiceOption::new(OptionKey::C, "c"),
                ChoiceOption::new(OptionKey::D, "d"),
            ],
            OptionKey::C,
        )
        .unwrap(),
    )
    .unwrap();
    repo.insert_problem(Problem::true_false("q2", "Yes?", true).unwrap())
        .unwrap();
    repo.insert_problem(
        Problem::multiple_choice(
            "q3",
            "Pick A.",
            [
                ChoiceOption::new(OptionKey::A, "a"),
                ChoiceOption::new(OptionKey::B, "b"),
            ],
            OptionKey::A,
        )
        .unwrap(),
    )
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

fn start_session(repo: &Repository, index: usize) -> ExamSession {
    let (exam, problems) = repo.resolve_exam(&"quiz".parse().unwrap()).unwrap();
    ExamSession::start(
        &exam,
        problems,
        format!("p{index:02}").parse().unwrap(),
        DeliveryOptions {
            seed: index as u64,
            ..DeliveryOptions::default()
        },
    )
    .unwrap()
}

/// Registers a session, returning its id.
fn register(registry: &SessionRegistry, session: ExamSession) -> String {
    let id = session.id().as_str().to_string();
    registry.insert(SessionSlot::new(session)).unwrap();
    id
}

/// The scripted answer for a problem id.
fn scripted_answer(problem: &str, script: &Script) -> Answer {
    match problem {
        "q1" => Answer::Choice(OptionKey::from_index(script.choice_q1).unwrap()),
        "q2" => Answer::TrueFalse(script.tf_q2),
        "q3" => Answer::Choice(OptionKey::from_index(script.choice_q3).unwrap()),
        other => panic!("unexpected problem {other}"),
    }
}

/// Runs one scripted sitting to completion on a bare session.
fn run_sequential(repo: &Repository, index: usize, script: &Script) -> StudentRecord {
    let mut session = start_session(repo, index);
    while let Some(problem) = session.current() {
        let answer = scripted_answer(problem.id().as_str(), script);
        session
            .answer(answer, Duration::from_secs(script.item_secs))
            .unwrap();
    }
    session.finish().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// N threads answering disjoint sessions through the registry file
    /// records byte-identical to running the same scripts one at a time
    /// on bare sessions.
    #[test]
    fn disjoint_concurrent_sittings_match_sequential(
        scripts in proptest::collection::vec(script_strategy(), 2..10),
    ) {
        let repo = repository();

        // Sequential ground truth.
        let expected: Vec<StudentRecord> = scripts
            .iter()
            .enumerate()
            .map(|(index, script)| run_sequential(&repo, index, script))
            .collect();

        // Concurrent run: one thread per student, same seeds/scripts,
        // all traffic through a shared registry.
        let registry = Arc::new(SessionRegistry::new(4));
        let ids: Vec<String> = scripts
            .iter()
            .enumerate()
            .map(|(index, _)| {
                register(&registry, start_session(&repo, index))
            })
            .collect();
        let results = Arc::new(Mutex::new(vec![None; scripts.len()]));
        let handles: Vec<_> = scripts
            .iter()
            .cloned()
            .enumerate()
            .map(|(index, script)| {
                let registry = Arc::clone(&registry);
                let results = Arc::clone(&results);
                let id = ids[index].clone();
                thread::spawn(move || {
                    loop {
                        let done = registry
                            .with(&id, |slot| {
                                match slot.session.current() {
                                    Some(problem) => {
                                        let answer =
                                            scripted_answer(problem.id().as_str(), &script);
                                        slot.session
                                            .answer(answer, Duration::from_secs(script.item_secs))
                                            .unwrap();
                                        false
                                    }
                                    None => true,
                                }
                            })
                            .unwrap();
                        if done {
                            break;
                        }
                    }
                    let record = registry
                        .with(&id, |slot| slot.session.finish().unwrap())
                        .unwrap();
                    registry.remove(&id).unwrap();
                    results.lock().unwrap()[index] = Some(record);
                })
            })
            .collect();
        for handle in handles {
            handle.join().unwrap();
        }

        prop_assert!(registry.is_empty());
        let results = results.lock().unwrap();
        for (index, expected_record) in expected.iter().enumerate() {
            let actual = results[index].as_ref().expect("record produced");
            prop_assert_eq!(actual, expected_record, "student {} diverged", index);
            // Byte-identical, not merely equal: the serialized forms
            // (what the wire and the analysis cache see) must match.
            prop_assert_eq!(
                serde_json::to_string(&actual).unwrap(),
                serde_json::to_string(&expected_record).unwrap()
            );
        }
    }
}

/// Many threads fighting over one session's pause/resume never corrupt
/// its state: transitions serialize, successes pair up, and the sitting
/// still completes correctly afterwards.
#[test]
fn pause_resume_under_contention_stays_coherent() {
    const THREADS: usize = 8;
    const ITERATIONS: usize = 200;

    let repo = repository();
    let registry = Arc::new(SessionRegistry::new(2));
    let id = register(&registry, start_session(&repo, 0));

    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let registry = Arc::clone(&registry);
            let id = id.clone();
            thread::spawn(move || {
                let mut pauses = 0_usize;
                let mut resumes = 0_usize;
                for _ in 0..ITERATIONS {
                    registry
                        .with(&id, |slot| match slot.session.state() {
                            SessionState::Active => {
                                if slot.session.pause().is_ok() {
                                    pauses += 1;
                                }
                            }
                            SessionState::Paused => {
                                if slot.session.reactivate().is_ok() {
                                    resumes += 1;
                                }
                            }
                            SessionState::Finished => unreachable!("nobody finishes"),
                        })
                        .unwrap();
                }
                (pauses, resumes)
            })
        })
        .collect();

    let mut pauses = 0;
    let mut resumes = 0;
    for handle in handles {
        let (p, r) = handle.join().unwrap();
        pauses += p;
        resumes += r;
    }

    // Every resume follows a pause; the difference is exactly the final
    // state (each `with` observed the state under the slot lock, so no
    // transition could be lost or doubled).
    let final_state = registry.with(&id, |slot| slot.session.state()).unwrap();
    match final_state {
        SessionState::Active => assert_eq!(pauses, resumes),
        SessionState::Paused => assert_eq!(pauses, resumes + 1),
        SessionState::Finished => unreachable!(),
    }
    assert!(pauses > 0, "contention never managed a single pause");

    // The session survived the fight: resume if needed, answer all
    // three problems, and the record comes out complete.
    registry
        .with(&id, |slot| {
            if slot.session.state() == SessionState::Paused {
                slot.session.reactivate().unwrap();
            }
            while let Some(problem) = slot.session.current() {
                let answer = match problem.id().as_str() {
                    "q1" => Answer::Choice(OptionKey::C),
                    "q2" => Answer::TrueFalse(true),
                    _ => Answer::Choice(OptionKey::A),
                };
                slot.session.answer(answer, Duration::from_secs(5)).unwrap();
            }
            let record = slot.session.finish().unwrap();
            assert_eq!(record.responses.len(), 3);
        })
        .unwrap();
    registry.remove(&id).unwrap();
    assert!(registry.is_empty());
}
