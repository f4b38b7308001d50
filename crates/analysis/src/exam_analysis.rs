//! The assembled analysis: everything §4 produces for one sitting.

use std::cell::RefCell;
use std::time::Duration;

use rayon::prelude::*;
use serde::{Deserialize, Serialize};

use mine_core::{ExamRecord, ProblemId};
use mine_itembank::{Problem, ProblemBody};
use mine_metadata::ExamMeta;
use mine_metadata::QuestionStyle;
use mine_metadata::{DifficultyIndex, DiscriminationIndex};

use crate::config::AnalysisConfig;
use crate::distraction::{analyze_distractors, DistractorReport};
use crate::error::AnalysisError;
use crate::figures::Figures;
use crate::groups::ScoreGroups;
use crate::indices::QuestionIndices;
use crate::option_matrix::OptionMatrix;
use crate::record_index::RecordIndex;
use crate::reliability::{cronbach_alpha_indexed, Reliability};
use crate::rules::{evaluate_rules, RuleFindings};
use crate::signal::Signal;
use crate::status::StatusFlags;
use crate::two_way::TwoWayTable;

thread_local! {
    /// Reusable per-option tally buffers (high group, low group). The
    /// counts themselves must be owned by the returned [`OptionMatrix`],
    /// but the working buffers the fused pass accumulates into are
    /// reused across every question a thread analyzes instead of being
    /// allocated per question.
    static TALLY_SCRATCH: RefCell<(Vec<usize>, Vec<usize>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// The full single-question analysis of §4.1.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuestionAnalysis {
    /// The §4.1.1 numbers (PH, PL, D, P).
    pub indices: QuestionIndices,
    /// Table 1, for choice questions (None for other styles — the
    /// option-level rules need options).
    pub matrix: Option<OptionMatrix>,
    /// Rules 1–4 (empty findings for non-choice styles).
    pub findings: RuleFindings,
    /// Table 2 status columns.
    pub status: StatusFlags,
    /// §3.3-V distractor analysis (empty for non-choice styles).
    pub distractors: Vec<DistractorReport>,
    /// Table 3 light.
    pub signal: Signal,
    /// Teacher-facing advice line.
    pub advice: String,
}

/// Whole-test descriptive statistics (§4.2 context, §3.4 metadata).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExamStatistics {
    /// Students analyzed.
    pub class_size: usize,
    /// Mean total score.
    pub mean_score: f64,
    /// Median total score.
    pub median_score: f64,
    /// Population standard deviation of scores.
    pub std_dev: f64,
    /// Maximum attainable score.
    pub max_score: f64,
    /// Fraction of students at or above the pass mark.
    pub pass_rate: f64,
    /// "Average Time" of §3.4-I: mean total sitting time.
    pub average_time: Duration,
    /// Mean number of attempted questions.
    pub mean_attempted: f64,
}

/// Everything the analysis model produces for one exam sitting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExamAnalysis {
    /// The high/low group split used throughout.
    pub groups: ScoreGroups,
    /// Per-question analyses in exam order.
    pub questions: Vec<QuestionAnalysis>,
    /// Whole-test statistics.
    pub statistics: ExamStatistics,
    /// The §4.2.1 figures.
    pub figures: Figures,
    /// The Table 4 two-way specification table.
    pub two_way: TwoWayTable,
    /// Test-level reliability (Cronbach's alpha).
    pub reliability: Reliability,
    /// Questionnaire prompts excluded from item analysis (no correct
    /// answer to analyze) — summarize them with
    /// [`crate::questionnaire::summarize_questionnaire`].
    pub surveys: Vec<ProblemId>,
}

impl ExamAnalysis {
    /// Runs the complete §4 pipeline.
    ///
    /// `problems` must cover every problem in the record.
    ///
    /// # Errors
    ///
    /// * [`AnalysisError::EmptyRecord`] / [`AnalysisError::ClassTooSmall`]
    ///   from the group split,
    /// * [`AnalysisError::UnknownProblem`] when the record references a
    ///   problem not supplied,
    /// * [`AnalysisError::MissingResponse`] for incomplete records.
    pub fn analyze(
        record: &ExamRecord,
        problems: &[Problem],
        config: &AnalysisConfig,
    ) -> Result<Self, AnalysisError> {
        let groups = ScoreGroups::split(record, config.group_fraction)?;
        // Every repeated lookup of the per-question loop — member → row,
        // (row, problem) → response, id → problem definition — is
        // precomputed once here and shared (immutably) by all question
        // tasks.
        let index = RecordIndex::build(record, problems, &groups)?;

        // Number the questions sequentially (questionnaires don't count,
        // §3.2-VI vs §3.3), then analyze each against the shared,
        // immutable group split in parallel. Results land in exam-order
        // slots, so output is identical to the old sequential loop.
        let mut tasks: Vec<(usize, usize)> = Vec::with_capacity(index.len());
        let mut surveys = Vec::new();
        let mut number = 0usize;
        for pos in 0..index.len() {
            if index.problems[pos].style() == QuestionStyle::Questionnaire {
                surveys.push(index.problem_ids[pos].clone());
                continue;
            }
            number += 1;
            tasks.push((number, pos));
        }
        let questions = tasks
            .par_iter()
            .map(|&(number, pos)| {
                Self::analyze_question_indexed(&index, &groups, config, number, pos)
            })
            .collect::<Vec<Result<QuestionAnalysis, AnalysisError>>>()
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;

        let statistics = Self::statistics(record, config);
        let indices_only: Vec<QuestionIndices> =
            questions.iter().map(|q| q.indices.clone()).collect();
        let exam_problems: Vec<Problem> = index.problems.iter().map(|&p| p.clone()).collect();
        let figures = Figures::build(record, &exam_problems, &indices_only, 20);
        let two_way = TwoWayTable::from_problems(&exam_problems);
        let reliability = cronbach_alpha_indexed(record, &index);

        Ok(Self {
            groups,
            questions,
            statistics,
            figures,
            two_way,
            reliability,
            surveys,
        })
    }

    /// The per-question §4.1 pipeline: indices, option matrix, rules,
    /// statuses, distractors, signal, advice. Reads the index and the
    /// group split immutably, so questions can run concurrently.
    ///
    /// One fused pass per group resolves each member's response exactly
    /// once (via the precomputed index — no roster or response-list
    /// scans) and accumulates both the correct count for `PH`/`PL` and,
    /// for choice questions, the per-option tallies of Table 1 into
    /// thread-local scratch. The arithmetic and the error order (first
    /// missing response in high-group order, then low) are exactly those
    /// of [`QuestionIndices::compute`] + [`OptionMatrix::from_record`],
    /// which remain the reference implementations.
    fn analyze_question_indexed(
        index: &RecordIndex<'_>,
        groups: &ScoreGroups,
        config: &AnalysisConfig,
        number: usize,
        pos: usize,
    ) -> Result<QuestionAnalysis, AnalysisError> {
        let problem = index.problems[pos];
        let problem_id = &index.problem_ids[pos];
        let choice = match problem.body() {
            ProblemBody::MultipleChoice {
                options, correct, ..
            } => Some((options.len(), *correct)),
            _ => None,
        };

        let tally = |rows: &[usize], counts: &mut [usize]| -> Result<usize, AnalysisError> {
            let mut correct = 0usize;
            for &row in rows {
                let response =
                    index
                        .response(row, pos)
                        .ok_or_else(|| AnalysisError::MissingResponse {
                            student: index.student_id(row).to_string(),
                            problem: problem_id.to_string(),
                        })?;
                if response.is_correct {
                    correct += 1;
                }
                if !counts.is_empty() {
                    // Skipped/other answers and out-of-range keys are
                    // not counted, exactly like `from_record`.
                    if let Some(key) = response.answer.chosen_option() {
                        if key.index() < counts.len() {
                            counts[key.index()] += 1;
                        }
                    }
                }
            }
            Ok(correct)
        };

        let (high_correct, low_correct, matrix) = TALLY_SCRATCH.with(|scratch| {
            let (high_counts, low_counts) = &mut *scratch.borrow_mut();
            high_counts.clear();
            low_counts.clear();
            let option_count = choice.map_or(0, |(count, _)| count);
            high_counts.resize(option_count, 0);
            low_counts.resize(option_count, 0);
            let high_correct = tally(&index.high_rows, high_counts)?;
            let low_correct = tally(&index.low_rows, low_counts)?;
            let matrix = choice.map(|(_, correct)| OptionMatrix {
                problem: problem_id.clone(),
                correct,
                high: high_counts.clone(),
                low: low_counts.clone(),
            });
            Ok::<_, AnalysisError>((high_correct, low_correct, matrix))
        })?;

        let group_size = groups.group_size() as f64;
        let ph = high_correct as f64 / group_size;
        let pl = low_correct as f64 / group_size;
        let indices = QuestionIndices {
            number,
            problem: problem_id.clone(),
            ph,
            pl,
            discrimination: DiscriminationIndex::new(ph - pl)
                .expect("difference of fractions is in [-1, 1]"),
            difficulty: DifficultyIndex::new((ph + pl) / 2.0)
                .expect("mean of fractions is in [0, 1]"),
        };

        let findings = matrix
            .as_ref()
            .map(|m| evaluate_rules(m, config.flatness))
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

    fn statistics(record: &ExamRecord, config: &AnalysisConfig) -> ExamStatistics {
        let n = record.students.len();
        let mut scores: Vec<f64> = record.students.iter().map(|s| s.score()).collect();
        scores.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let mean = scores.iter().sum::<f64>() / n as f64;
        let median = if n % 2 == 1 {
            scores[n / 2]
        } else {
            (scores[n / 2 - 1] + scores[n / 2]) / 2.0
        };
        // Moment form rather than the two-pass fold: computable from
        // running sums (Σs, Σs²), which is what lets the streaming
        // engine reproduce this value bit-for-bit without touching the
        // rows. Exact-integer scores make both forms exact; the clamp
        // absorbs the one-ulp negative a constant class can round to.
        let variance =
            (scores.iter().map(|s| s * s).sum::<f64>() / n as f64 - mean * mean).max(0.0);
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

    /// Builds the §3.4 exam metadata update: the measured average time
    /// (and leaves test time / ISI untouched for the caller to merge).
    #[must_use]
    pub fn exam_meta_update(&self) -> ExamMeta {
        ExamMeta {
            average_time: Some(self.statistics.average_time),
            test_time: None,
            instructional_sensitivity: None,
        }
    }

    /// Questions whose signal is not green — the teacher's worklist.
    pub fn problematic_questions(&self) -> impl Iterator<Item = &QuestionAnalysis> {
        self.questions.iter().filter(|q| q.signal != Signal::Green)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_core::OptionKey;
    use mine_itembank::{ChoiceOption, Exam};
    use mine_simulator::{CohortSpec, DistractorWeights, ItemParams, Simulation};

    fn problems() -> Vec<Problem> {
        let mut out: Vec<Problem> = (0..5)
            .map(|i| {
                Problem::multiple_choice(
                    format!("q{i}"),
                    format!("Question {i}"),
                    OptionKey::first(5).map(|k| ChoiceOption::new(k, format!("{k}"))),
                    OptionKey::A,
                )
                .unwrap()
                .with_subject(if i < 3 { "tcp" } else { "routing" })
                .with_cognition_level(if i < 2 {
                    mine_core::CognitionLevel::Knowledge
                } else {
                    mine_core::CognitionLevel::Comprehension
                })
            })
            .collect();
        out.push(Problem::true_false("tf", "True?", true).unwrap());
        out
    }

    fn exam() -> Exam {
        let mut builder = Exam::builder("analyzed").unwrap();
        for i in 0..5 {
            builder = builder.entry(format!("q{i}").parse().unwrap());
        }
        builder.entry("tf".parse().unwrap()).build().unwrap()
    }

    fn simulated() -> ExamRecord {
        Simulation::new(exam(), problems())
            .cohort(CohortSpec::new(44).seed(3))
            // q4 discriminates badly: nearly flat ability response.
            .item_params("q4".parse().unwrap(), ItemParams::new(0.05, 0.0, 0.2))
            // q1 has a dead distractor (E never chosen) for rule 1.
            .distractors(
                "q1".parse().unwrap(),
                DistractorWeights::new(vec![0.0, 1.0, 1.0, 1.0, 0.0]),
            )
            .run()
            .unwrap()
    }

    #[test]
    fn full_pipeline_runs() {
        let record = simulated();
        let analysis =
            ExamAnalysis::analyze(&record, &problems(), &AnalysisConfig::default()).unwrap();
        assert_eq!(analysis.questions.len(), 6);
        assert_eq!(analysis.statistics.class_size, 44);
        assert_eq!(analysis.groups.group_size(), 11);
        // Choice questions carry matrices, the true/false one does not.
        assert!(analysis.questions[0].matrix.is_some());
        assert!(analysis.questions[5].matrix.is_none());
        // Figures and two-way table exist.
        assert!(!analysis.figures.time_answered.is_empty());
        assert_eq!(analysis.two_way.sum_concept("tcp"), 3);
    }

    #[test]
    fn dead_distractor_triggers_rule_1() {
        let record = simulated();
        let analysis =
            ExamAnalysis::analyze(&record, &problems(), &AnalysisConfig::default()).unwrap();
        let q1 = &analysis.questions[1];
        assert!(
            q1.findings.low_allure.contains(&OptionKey::E),
            "E was weighted 0: {:?}",
            q1.findings
        );
        assert!(q1.status.option_allure_low);
        assert!(q1.advice.contains("allure"));
    }

    #[test]
    fn flat_item_signals_red() {
        // A non-discriminating item (a ≈ 0) should go red. To keep the
        // test sharp we weight the noise item 0 in the exam so it cannot
        // inflate its own D through the total-score ranking (part-whole
        // correlation), and use a large cohort to shrink sampling noise.
        let mut problems = problems();
        problems[4].set_points(0.0);
        let mut builder = Exam::builder("flat").unwrap();
        for i in 0..5 {
            builder = builder.entry(format!("q{i}").parse().unwrap());
        }
        let exam = builder.entry("tf".parse().unwrap()).build().unwrap();
        let record = Simulation::new(exam, problems.clone())
            .cohort(CohortSpec::new(400).seed(3))
            .item_params("q4".parse().unwrap(), ItemParams::new(0.05, 0.0, 0.2))
            .run()
            .unwrap();
        let analysis =
            ExamAnalysis::analyze(&record, &problems, &AnalysisConfig::default()).unwrap();
        let q4 = &analysis.questions[4];
        assert_eq!(
            q4.signal,
            Signal::Red,
            "a = 0.05 item cannot discriminate: D = {:.2}",
            q4.indices.discrimination.value()
        );
        assert!(analysis.problematic_questions().count() >= 1);
    }

    #[test]
    fn statistics_are_sane() {
        let record = simulated();
        let analysis =
            ExamAnalysis::analyze(&record, &problems(), &AnalysisConfig::default()).unwrap();
        let stats = &analysis.statistics;
        assert!(stats.mean_score >= 0.0 && stats.mean_score <= stats.max_score);
        assert!(stats.median_score >= 0.0 && stats.median_score <= stats.max_score);
        assert!(stats.std_dev >= 0.0);
        assert!((0.0..=1.0).contains(&stats.pass_rate));
        assert!(stats.average_time > Duration::ZERO);
        assert!(stats.mean_attempted > 0.0 && stats.mean_attempted <= 6.0);
        assert_eq!(stats.max_score, 6.0);
    }

    #[test]
    fn exam_meta_update_carries_average_time() {
        let record = simulated();
        let analysis =
            ExamAnalysis::analyze(&record, &problems(), &AnalysisConfig::default()).unwrap();
        let meta = analysis.exam_meta_update();
        assert_eq!(meta.average_time, Some(analysis.statistics.average_time));
        assert!(meta.test_time.is_none());
    }

    #[test]
    fn unknown_problem_is_reported() {
        let record = simulated();
        let err = ExamAnalysis::analyze(&record, &problems()[..3], &AnalysisConfig::default())
            .unwrap_err();
        assert!(matches!(err, AnalysisError::UnknownProblem { .. }));
    }

    #[test]
    fn questionnaires_are_excluded_from_item_analysis() {
        use mine_itembank::ChoiceOption;
        let mut problems = problems();
        problems.push(
            Problem::questionnaire(
                "survey",
                "rate the course",
                OptionKey::first(5).map(|k| ChoiceOption::new(k, format!("{k}"))),
            )
            .unwrap(),
        );
        let mut builder = Exam::builder("with-survey").unwrap();
        for i in 0..5 {
            builder = builder.entry(format!("q{i}").parse().unwrap());
        }
        let exam = builder
            .entry("tf".parse().unwrap())
            .entry("survey".parse().unwrap())
            .build()
            .unwrap();
        let record = Simulation::new(exam, problems.clone())
            .cohort(CohortSpec::new(44).seed(3))
            .run()
            .unwrap();
        let analysis =
            ExamAnalysis::analyze(&record, &problems, &AnalysisConfig::default()).unwrap();
        assert_eq!(analysis.questions.len(), 6, "survey skipped");
        assert_eq!(analysis.surveys, vec!["survey".parse().unwrap()]);
        // Numbers stay consecutive despite the skip.
        let numbers: Vec<usize> = analysis
            .questions
            .iter()
            .map(|q| q.indices.number)
            .collect();
        assert_eq!(numbers, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn kelly_fraction_changes_group_size_not_question_count() {
        let record = simulated();
        let analysis =
            ExamAnalysis::analyze(&record, &problems(), &AnalysisConfig::kelly()).unwrap();
        assert_eq!(analysis.groups.group_size(), 12, "27 % of 44 ≈ 12");
        assert_eq!(analysis.questions.len(), 6);
    }
}
