//! The frozen pre-pool analysis pipeline, kept as the benchmark's
//! speedup baseline.
//!
//! [`analyze_naive`] reproduces `ExamAnalysis::analyze` exactly as it
//! worked before the work-stealing pool and the per-question hot-path
//! rework: one thread, and every lookup a linear scan — each question
//! resolved against the problem slice with `find`, each group member
//! located in the roster by string comparison, each response by
//! scanning the member's response list (that is what the reference
//! implementations [`QuestionIndices::compute`] and
//! [`OptionMatrix::from_record`] still do), and the score–difficulty
//! scatter re-searching the indices per correct response.
//!
//! The output is byte-identical to the optimized pipeline — pinned by
//! the oracle test below and measured by `benches/batch_analysis.rs`,
//! where this baseline is the `sequential` arm the `batch/Nt` numbers
//! are compared against.

use mine_analysis::{
    analyze_distractors, cronbach_alpha, AnalysisConfig, AnalysisError, ExamAnalysis,
    ExamStatistics, FigurePoint, Figures, OptionMatrix, QuestionAnalysis, QuestionIndices,
    ScoreGroups, StatusFlags, TwoWayTable,
};
use mine_analysis::{figures, rules};
use mine_core::{ExamRecord, ProblemId};
use mine_itembank::{Problem, ProblemBody};
use mine_metadata::QuestionStyle;

/// The naive §4 pipeline: sequential, scan-everything, one exam.
///
/// # Errors
///
/// The same errors as [`ExamAnalysis::analyze`], in the same order.
pub fn analyze_naive(
    record: &ExamRecord,
    problems: &[Problem],
    config: &AnalysisConfig,
) -> Result<ExamAnalysis, AnalysisError> {
    let groups = ScoreGroups::split(record, config.group_fraction)?;

    // Number the questions sequentially, resolving every problem id by
    // scanning the supplied slice (first match wins).
    let mut tasks: Vec<(usize, ProblemId, &Problem)> = Vec::new();
    let mut surveys = Vec::new();
    let mut number = 0usize;
    for id in record.problems() {
        let problem = problems.iter().find(|p| p.id() == &id).ok_or_else(|| {
            AnalysisError::UnknownProblem {
                problem: id.to_string(),
            }
        })?;
        if problem.style() == QuestionStyle::Questionnaire {
            surveys.push(id);
            continue;
        }
        number += 1;
        tasks.push((number, id, problem));
    }

    let questions = tasks
        .iter()
        .map(|(number, id, problem)| {
            analyze_question_naive(record, &groups, config, *number, id, problem)
        })
        .collect::<Result<Vec<_>, _>>()?;

    let statistics = statistics(record, config);
    let indices_only: Vec<QuestionIndices> = questions.iter().map(|q| q.indices.clone()).collect();
    // The figure/two-way problem list covers every exam position,
    // questionnaires included — resolved by the same linear scan.
    let exam_problems: Vec<Problem> = record
        .problems()
        .iter()
        .map(|id| {
            problems
                .iter()
                .find(|p| p.id() == id)
                .expect("every id resolved above")
                .clone()
        })
        .collect();
    let figures = Figures {
        time_answered: figures::time_answered_series(record, 20),
        score_difficulty: score_difficulty_scatter_naive(record, &indices_only),
        cognition_subject: figures::cognition_subject_matrix(&exam_problems),
        score_histogram: figures::score_histogram(record, 10),
    };
    let two_way = TwoWayTable::from_problems(&exam_problems);
    let reliability = cronbach_alpha(record)?;

    Ok(ExamAnalysis {
        groups,
        questions,
        statistics,
        figures,
        two_way,
        reliability,
        surveys,
    })
}

/// The per-question pipeline through the reference implementations:
/// [`QuestionIndices::compute`] and [`OptionMatrix::from_record`] each
/// rescan roster and response lists per group member.
fn analyze_question_naive(
    record: &ExamRecord,
    groups: &ScoreGroups,
    config: &AnalysisConfig,
    number: usize,
    id: &ProblemId,
    problem: &Problem,
) -> Result<QuestionAnalysis, AnalysisError> {
    let indices = QuestionIndices::compute(record, groups, number, id)?;
    let matrix = match problem.body() {
        ProblemBody::MultipleChoice {
            options, correct, ..
        } => Some(OptionMatrix::from_record(
            record,
            groups,
            id,
            options.len(),
            *correct,
        )?),
        _ => None,
    };
    let findings = matrix
        .as_ref()
        .map(|m| rules::evaluate_rules(m, config.flatness))
        .unwrap_or_default();
    let status = StatusFlags::from_rules(&findings);
    let distractors = matrix.as_ref().map(analyze_distractors).unwrap_or_default();
    let signal = config.signal.classify(indices.discrimination);
    let advice = config.signal.advice(indices.discrimination, &findings);
    Ok(QuestionAnalysis {
        indices,
        matrix,
        findings,
        status,
        distractors,
        signal,
        advice,
    })
}

/// The pre-optimization Figure 2 scatter: every correct response
/// re-searches the index list linearly.
fn score_difficulty_scatter_naive(
    record: &ExamRecord,
    indices: &[QuestionIndices],
) -> Vec<FigurePoint> {
    record
        .students
        .iter()
        .filter_map(|student| {
            let correct_ps: Vec<f64> = student
                .responses
                .iter()
                .filter(|r| r.is_correct)
                .filter_map(|r| {
                    indices
                        .iter()
                        .find(|i| i.problem == r.problem)
                        .map(|i| i.difficulty.value())
                })
                .collect();
            if correct_ps.is_empty() {
                return None;
            }
            Some(FigurePoint {
                x: student.score(),
                y: correct_ps.iter().sum::<f64>() / correct_ps.len() as f64,
            })
        })
        .collect()
}

/// Replicates `ExamAnalysis::statistics` (private in the crate) so the
/// assembled baseline report is complete.
fn statistics(record: &ExamRecord, config: &AnalysisConfig) -> ExamStatistics {
    use std::time::Duration;
    let n = record.students.len();
    let mut scores: Vec<f64> = record.students.iter().map(|s| s.score()).collect();
    scores.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    let mean = scores.iter().sum::<f64>() / n as f64;
    let median = if n % 2 == 1 {
        scores[n / 2]
    } else {
        (scores[n / 2 - 1] + scores[n / 2]) / 2.0
    };
    // Moment form, matching the live `ExamAnalysis::statistics`.
    let variance = (scores.iter().map(|s| s * s).sum::<f64>() / n as f64 - mean * mean).max(0.0);
    let max_score = record
        .students
        .first()
        .map(|s| s.max_score())
        .unwrap_or(0.0);
    let pass_line = max_score * config.pass_mark;
    let pass_rate = scores.iter().filter(|&&s| s >= pass_line).count() as f64 / n as f64;
    let total_time: Duration = record.students.iter().map(|s| s.total_time).sum();
    let mean_attempted = record
        .students
        .iter()
        .map(|s| s.attempted_count())
        .sum::<usize>() as f64
        / n as f64;
    ExamStatistics {
        class_size: n,
        mean_score: mean,
        median_score: median,
        std_dev: variance.sqrt(),
        max_score,
        pass_rate,
        average_time: total_time / n as u32,
        mean_attempted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{standard_problems, standard_record};

    /// The oracle: the frozen baseline and the optimized pipeline agree
    /// byte for byte, so benchmarking one against the other measures
    /// speed, not semantic drift.
    #[test]
    fn baseline_matches_the_optimized_pipeline_byte_for_byte() {
        let problems = standard_problems(30);
        let config = AnalysisConfig::default();
        for seed in [1u64, 7, 42] {
            let record = standard_record(30, 60, seed);
            let naive = serde_json::to_string(&analyze_naive(&record, &problems, &config).unwrap())
                .unwrap();
            let optimized =
                serde_json::to_string(&ExamAnalysis::analyze(&record, &problems, &config).unwrap())
                    .unwrap();
            assert_eq!(naive, optimized, "seed {seed} diverged");
        }
    }

    /// Both report the first unknown problem in exam order.
    #[test]
    fn baseline_matches_error_behaviour() {
        let problems = standard_problems(10);
        let record = standard_record(10, 30, 5);
        let config = AnalysisConfig::default();
        let naive = analyze_naive(&record, &problems[..4], &config);
        let optimized = ExamAnalysis::analyze(&record, &problems[..4], &config);
        assert!(matches!(
            naive,
            Err(AnalysisError::UnknownProblem { ref problem }) if problem == "q004"
        ));
        assert!(matches!(
            optimized,
            Err(AnalysisError::UnknownProblem { ref problem }) if problem == "q004"
        ));
    }
}
