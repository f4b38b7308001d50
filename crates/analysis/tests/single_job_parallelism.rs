//! Regression test for the nested-pool serialization bug: a batch with
//! a *single* exam must still spread its per-question work across the
//! pool's workers.
//!
//! The old `analyze_batch` special-cased `jobs.len() <= 1` into a
//! sequential loop and, on the parallel path, pinned each job's inner
//! per-question map to an `install(1)` pool — so the common "one big
//! sitting" case never used more than one thread. Since the rework both
//! layers feed the pool's one run queue, so idle workers take the
//! invitations a lone job's per-question map queues and claim its
//! questions.

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{CognitionLevel, OptionKey};
use mine_itembank::{ChoiceOption, Exam, Problem};
use mine_simulator::{CohortSpec, Simulation};

#[test]
fn single_job_batch_spreads_questions_over_workers() {
    // A heavy sitting: enough students and questions that per-question
    // chunks are still queued while the submitting thread works.
    let n_questions = 64;
    let problems: Vec<Problem> = (0..n_questions)
        .map(|i| {
            Problem::multiple_choice(
                format!("q{i}"),
                format!("Question {i}"),
                OptionKey::first(6).map(|k| ChoiceOption::new(k, format!("{k}"))),
                OptionKey::A,
            )
            .unwrap()
            .with_cognition_level(CognitionLevel::ALL[i % 6])
        })
        .collect();
    let mut builder = Exam::builder("single-job").unwrap();
    for i in 0..n_questions {
        builder = builder.entry(format!("q{i}").parse().unwrap());
    }
    let record = Simulation::new(builder.build().unwrap(), problems.clone())
        .cohort(CohortSpec::new(1200).ability(0.0, 1.2).seed(11))
        .run()
        .unwrap();
    let records = vec![record];

    let analyzer = BatchAnalyzer::new(AnalysisConfig::default()).with_threads(8);

    // Workers race the submitting thread for chunks, so on a loaded or
    // single-core machine any one round may be swallowed whole by the
    // creator. Accumulate over rounds: the bug under test is *structural*
    // (pool workers never see single-job work at all), so with the fix
    // two distinct workers execute chunks almost immediately, while the
    // bugged code never passes no matter how long it retries.
    let mut busy_workers = std::collections::HashSet::new();
    for _round in 0..50 {
        let before = mine_pool::stats().executed_per_worker;
        let report = analyzer.analyze_records(&records, &problems).unwrap();
        assert_eq!(report.analyses.len(), 1);
        let after = mine_pool::stats().executed_per_worker;
        for (worker, &count) in after.iter().enumerate() {
            if count > before.get(worker).copied().unwrap_or(0) {
                busy_workers.insert(worker);
            }
        }
        if busy_workers.len() >= 2 {
            break;
        }
    }
    assert!(
        busy_workers.len() >= 2,
        "an 8-thread single-job batch must parallelize per-question; \
         workers that executed chunks: {busy_workers:?}"
    );
}
