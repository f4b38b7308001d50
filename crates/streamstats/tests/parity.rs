//! Acceptance: the streaming report is byte-identical (serialized) to
//! the batch pipeline over the same rows, whatever order sittings
//! finish in, including resits; inputs the counters cannot reproduce
//! exactly refuse to stream instead of approximating.

use std::sync::Arc;

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{ExamId, ExamRecord, OptionKey, StudentRecord};
use mine_itembank::{ChoiceOption, Exam, Problem};
use mine_simulator::{CohortSpec, Simulation};
use mine_streamstats::{alt_indices, ExamStream};
use proptest::prelude::*;

fn problems(questions: usize) -> Vec<Problem> {
    let mut problems: Vec<Problem> = (0..questions)
        .map(|i| {
            let id = format!("q{i}");
            let problem = if i % 3 == 2 {
                Problem::true_false(id, format!("Statement {i}"), i % 2 == 0).unwrap()
            } else {
                Problem::multiple_choice(
                    id,
                    format!("Question {i}"),
                    OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("{k}"))),
                    OptionKey::first(4).nth(i % 4).unwrap(),
                )
                .unwrap()
            };
            problem
                .with_subject(if i % 2 == 0 { "tcp" } else { "routing" })
                .with_cognition_level(if i % 4 == 0 {
                    mine_core::CognitionLevel::Knowledge
                } else {
                    mine_core::CognitionLevel::Comprehension
                })
        })
        .collect();
    problems.push(
        Problem::questionnaire(
            "survey",
            "rate the course",
            OptionKey::first(5).map(|k| ChoiceOption::new(k, format!("{k}"))),
        )
        .unwrap(),
    );
    problems
}

fn simulated(questions: usize, class: usize, seed: u64) -> (Vec<Problem>, ExamRecord) {
    let problems = problems(questions);
    let mut builder = Exam::builder("quiz").unwrap();
    for i in 0..questions {
        builder = builder.entry(format!("q{i}").parse().unwrap());
    }
    let exam = builder.entry("survey".parse().unwrap()).build().unwrap();
    let record = Simulation::new(exam, problems.clone())
        .cohort(CohortSpec::new(class).ability(0.0, 1.2).seed(seed))
        .run()
        .unwrap();
    (problems, record)
}

/// The batch answer over the final row set: last record per student,
/// rows in ascending student order (the finished store's ordering).
fn batch_json(applied: &[Arc<StudentRecord>], problems: &[Problem]) -> String {
    let mut rows: std::collections::BTreeMap<String, Arc<StudentRecord>> =
        std::collections::BTreeMap::new();
    for record in applied {
        rows.insert(record.student.to_string(), record.clone());
    }
    let class = ExamRecord::shared(ExamId::new("quiz").unwrap(), rows.into_values().collect());
    let analyzer = BatchAnalyzer::new(AnalysisConfig::default());
    let report = analyzer
        .analyze_records(std::slice::from_ref(&class), problems)
        .expect("batch analysis succeeds on simulated data");
    serde_json::to_string(&report).unwrap()
}

fn stream_json(applied: &[Arc<StudentRecord>], problems: &[Problem]) -> String {
    let mut stream = ExamStream::new(AnalysisConfig::default());
    for record in applied {
        stream.apply(record);
    }
    let report = stream.report(problems).expect("streamable input");
    serde_json::to_string(&report).unwrap()
}

#[test]
fn streaming_matches_batch_in_finish_order() {
    let (problems, record) = simulated(8, 44, 7);
    let stream = stream_json(&record.students, &problems);
    let batch = batch_json(&record.students, &problems);
    assert_eq!(stream, batch);
}

#[test]
fn streaming_matches_batch_in_reverse_order() {
    let (problems, record) = simulated(8, 44, 7);
    let reversed: Vec<Arc<StudentRecord>> = record.students.iter().rev().cloned().collect();
    assert_eq!(
        stream_json(&reversed, &problems),
        batch_json(&record.students, &problems)
    );
}

#[test]
fn resits_replace_prior_rows() {
    let (problems, record) = simulated(6, 20, 3);
    let (problems2, retaken) = simulated(6, 20, 4);
    assert_eq!(problems, problems2);
    // Everyone finishes once, then half the class resits with the
    // seed-4 outcomes; the final row per student is their last finish.
    let mut applied = record.students.clone();
    applied.extend(retaken.students.iter().take(10).cloned());
    let mut finals: Vec<Arc<StudentRecord>> = retaken.students[..10].to_vec();
    finals.extend(record.students[10..].iter().cloned());
    assert_eq!(
        stream_json(&applied, &problems),
        batch_json(&finals, &problems)
    );
}

#[test]
fn single_sitting_is_unstreamable_like_batch_errors() {
    let (problems, record) = simulated(4, 10, 5);
    let mut stream = ExamStream::new(AnalysisConfig::default());
    stream.apply(&record.students[0]);
    // Batch rejects a class of one (`ClassTooSmall`); streaming refuses
    // so the caller reaches that exact batch error.
    assert!(stream.report(&problems).is_err());
}

#[test]
fn mixed_problem_sets_are_unstreamable() {
    let (problems, record_a) = simulated(4, 10, 5);
    let (_, record_b) = simulated(6, 10, 5);
    let mut stream = ExamStream::new(AnalysisConfig::default());
    for record in record_a.students.iter().take(5) {
        stream.apply(record);
    }
    for record in record_b.students.iter().skip(5) {
        stream.apply(record);
    }
    assert!(stream.report(&problems).is_err());
}

#[test]
fn missing_problem_definition_is_unstreamable() {
    let (problems, record) = simulated(4, 10, 5);
    let mut stream = ExamStream::new(AnalysisConfig::default());
    for student in &record.students {
        stream.apply(student);
    }
    assert!(stream.report(&problems[..2]).is_err());
    assert!(stream.report(&problems).is_ok());
}

#[test]
fn alt_indices_are_identical_across_modes() {
    let (problems, record) = simulated(8, 44, 9);
    let mut stream = ExamStream::new(AnalysisConfig::default());
    for student in &record.students {
        stream.apply(student);
    }
    let streamed = stream.report(&problems).unwrap();
    let analyzer = BatchAnalyzer::new(AnalysisConfig::default());
    let batch = analyzer
        .analyze_records(std::slice::from_ref(&record), &problems)
        .unwrap();
    let a = serde_json::to_string(&alt_indices(&streamed.analyses[0])).unwrap();
    let b = serde_json::to_string(&alt_indices(&batch.analyses[0])).unwrap();
    assert_eq!(a, b);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Random interleavings of finishes and resits over a simulated
    /// class: streaming output is byte-identical to batch over the
    /// final rows, and replaying the applied sequence from scratch (a
    /// WAL replay) reproduces the same bytes again.
    #[test]
    fn random_finish_orders_match_batch(
        seed in 0u64..500,
        order_keys in proptest::collection::vec(any::<u64>(), 24),
        resits in proptest::collection::vec(0usize..24, 0..8),
    ) {
        let (problems, first) = simulated(6, 24, seed);
        let (_, second) = simulated(6, 24, seed + 1000);

        // Shuffle the first-finish order with the random keys.
        let mut order: Vec<usize> = (0..24).collect();
        order.sort_by_key(|&i| (order_keys[i], i));
        let mut applied: Vec<Arc<StudentRecord>> =
            order.iter().map(|&i| first.students[i].clone()).collect();
        // Then some students resit with their seed+1000 outcome.
        for &i in &resits {
            applied.push(second.students[i].clone());
        }

        // Final row per student: the last applied record.
        let mut finals: std::collections::BTreeMap<String, Arc<StudentRecord>> =
            std::collections::BTreeMap::new();
        for record in &applied {
            finals.insert(record.student.to_string(), record.clone());
        }
        let finals: Vec<Arc<StudentRecord>> = finals.into_values().collect();

        let streamed = stream_json(&applied, &problems);
        let batch = batch_json(&finals, &problems);
        prop_assert_eq!(&streamed, &batch);

        // Replay determinism: a fresh engine fed the same event
        // sequence (what WAL replay does) converges to the same bytes.
        let replayed = stream_json(&applied, &problems);
        prop_assert_eq!(&replayed, &batch);
    }
}
