//! Per-question difficulty and discrimination (§4.1.1, steps 3–5).
//!
//! "3rd step: calculate the people answer correct and his percentage in
//! higher group and lower group in each question. 4th step: Calculate
//! each question Item Difficulty Index P=(PH+PL)/2. 5th step: Calculate
//! each question Item Discrimination Index D=PH−PL."

use serde::{Deserialize, Serialize};

use mine_core::{ExamRecord, ProblemId};
use mine_metadata::{DifficultyIndex, DiscriminationIndex};

use crate::error::AnalysisError;
use crate::groups::ScoreGroups;

/// The §4.1.1 numbers for one question: one row of the "number
/// representation" table (`No | PH | PL | D=PH−PL | P=(PH+PL)/2`).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QuestionIndices {
    /// 1-based question number in exam order.
    pub number: usize,
    /// The problem.
    pub problem: ProblemId,
    /// Fraction of the high group answering correctly.
    pub ph: f64,
    /// Fraction of the low group answering correctly.
    pub pl: f64,
    /// Item Discrimination Index `D = PH − PL`.
    pub discrimination: DiscriminationIndex,
    /// Item Difficulty Index `P = (PH + PL) / 2`.
    pub difficulty: DifficultyIndex,
}

impl QuestionIndices {
    /// Computes the indices of one question from the group split.
    ///
    /// # Errors
    ///
    /// Returns [`AnalysisError::MissingResponse`] when a group member has
    /// no response to the problem.
    pub fn compute(
        record: &ExamRecord,
        groups: &ScoreGroups,
        number: usize,
        problem: &ProblemId,
    ) -> Result<Self, AnalysisError> {
        let correct_in = |members: &[mine_core::StudentId]| -> Result<usize, AnalysisError> {
            let mut count = 0;
            for member in members {
                let student = record
                    .students
                    .iter()
                    .find(|s| &s.student == member)
                    .expect("group members come from the record");
                let response =
                    student
                        .response_to(problem)
                        .ok_or_else(|| AnalysisError::MissingResponse {
                            student: member.to_string(),
                            problem: problem.to_string(),
                        })?;
                if response.is_correct {
                    count += 1;
                }
            }
            Ok(count)
        };
        let group_size = groups.group_size() as f64;
        let ph = correct_in(groups.high())? as f64 / group_size;
        let pl = correct_in(groups.low())? as f64 / group_size;
        Ok(Self {
            number,
            problem: problem.clone(),
            ph,
            pl,
            discrimination: DiscriminationIndex::new(ph - pl)
                .expect("difference of fractions is in [-1, 1]"),
            difficulty: DifficultyIndex::new((ph + pl) / 2.0)
                .expect("mean of fractions is in [0, 1]"),
        })
    }

    /// Computes the whole table: one row per exam problem, in order.
    ///
    /// # Errors
    ///
    /// Same conditions as [`QuestionIndices::compute`].
    pub fn table(
        record: &ExamRecord,
        groups: &ScoreGroups,
        problems: &[ProblemId],
    ) -> Result<Vec<Self>, AnalysisError> {
        problems
            .iter()
            .enumerate()
            .map(|(i, problem)| Self::compute(record, groups, i + 1, problem))
            .collect()
    }

    /// Renders the §4.1.1 number-representation table as text.
    #[must_use]
    pub fn render_table(rows: &[Self]) -> String {
        let mut out = String::from("No  PH    PL    D=PH-PL  P=(PH+PL)/2\n");
        for row in rows {
            out.push_str(&format!(
                "{:<3} {:<5.2} {:<5.2} {:<8.2} {:.3}\n",
                row.number,
                row.ph,
                row.pl,
                row.discrimination.value(),
                row.difficulty.value(),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mine_core::{Answer, ExamId, GroupFraction, ItemResponse, OptionKey, StudentRecord};

    /// Builds the §4.1.2 worked example: 44 students, question no. 2 with
    /// high group [0,0,10,1] and low group [3,2,4,2] over options A–D
    /// (correct C), plus filler responses that fix total scores.
    ///
    /// Students are built so the top 11 scorers are exactly the intended
    /// high group and the bottom 11 the intended low group.
    fn paper_record() -> (ExamRecord, ProblemId) {
        let problem: ProblemId = "no2".parse().unwrap();
        let filler: ProblemId = "filler".parse().unwrap();
        let mut students = Vec::new();
        let mut add = |name: String, correct_q2: bool, option: OptionKey, filler_points: f64| {
            let q2 = if correct_q2 {
                ItemResponse::correct(problem.clone(), Answer::Choice(option), 1.0)
            } else {
                ItemResponse::incorrect(problem.clone(), Answer::Choice(option), 1.0)
            };
            let mut pad =
                ItemResponse::correct(filler.clone(), Answer::TrueFalse(true), filler_points);
            pad.points_awarded = filler_points;
            pad.points_possible = 100.0;
            students.push(StudentRecord::new(name.parse().unwrap(), vec![q2, pad]));
        };
        // High group: 10 pick C (correct), 1 picks D. Scores 90+.
        for i in 0..10 {
            add(format!("h{i:02}"), true, OptionKey::C, 90.0 + i as f64);
        }
        add("h10".to_string(), false, OptionKey::D, 99.5);
        // Middle 22 students, scores 50-ish.
        for i in 0..22 {
            add(
                format!("m{i:02}"),
                i % 2 == 0,
                OptionKey::C,
                50.0 + i as f64 / 10.0,
            );
        }
        // Low group: 3 A, 2 B, 4 C (correct), 2 D. Scores < 20.
        let mut low = 0;
        for _ in 0..3 {
            add(
                format!("l{low:02}"),
                false,
                OptionKey::A,
                10.0 + low as f64 / 10.0,
            );
            low += 1;
        }
        for _ in 0..2 {
            add(
                format!("l{low:02}"),
                false,
                OptionKey::B,
                10.0 + low as f64 / 10.0,
            );
            low += 1;
        }
        for _ in 0..4 {
            add(
                format!("l{low:02}"),
                true,
                OptionKey::C,
                10.0 + low as f64 / 10.0,
            );
            low += 1;
        }
        for _ in 0..2 {
            add(
                format!("l{low:02}"),
                false,
                OptionKey::D,
                10.0 + low as f64 / 10.0,
            );
            low += 1;
        }
        (
            ExamRecord::new(ExamId::new("e").unwrap(), students),
            problem,
        )
    }

    #[test]
    fn paper_question_no2_numbers() {
        let (record, problem) = paper_record();
        assert_eq!(record.class_size(), 44);
        let groups = ScoreGroups::split(&record, GroupFraction::PAPER).unwrap();
        assert_eq!(groups.group_size(), 11);
        let indices = QuestionIndices::compute(&record, &groups, 2, &problem).unwrap();
        // PH = 10/11 ≈ 0.909 ≈ 0.91, PL = 4/11 ≈ 0.36 (paper's rounding).
        assert!((indices.ph - 10.0 / 11.0).abs() < 1e-12);
        assert!((indices.pl - 4.0 / 11.0).abs() < 1e-12);
        // D = PH − PL = 6/11 ≈ 0.55 — the paper's D = 0.55 after rounding.
        assert!((indices.discrimination.value() - 6.0 / 11.0).abs() < 1e-12);
        assert_eq!(
            (indices.discrimination.value() * 100.0).round() / 100.0,
            0.55
        );
        // P = (PH + PL)/2 = 7/11 ≈ 0.636 — the paper's 0.635 after its
        // two-step rounding ((0.91 + 0.36)/2).
        assert!((indices.difficulty.value() - 7.0 / 11.0).abs() < 1e-12);
        assert_eq!((indices.difficulty.value() * 100.0).round() / 100.0, 0.64);
    }

    #[test]
    fn all_correct_question_has_zero_discrimination() {
        let (mut record, problem) = paper_record();
        for student in &mut record.students {
            for response in &mut Arc::make_mut(student).responses {
                if response.problem == problem {
                    response.is_correct = true;
                }
            }
        }
        let groups = ScoreGroups::split(&record, GroupFraction::PAPER).unwrap();
        let indices = QuestionIndices::compute(&record, &groups, 1, &problem).unwrap();
        assert_eq!(indices.discrimination.value(), 0.0);
        assert_eq!(indices.difficulty.value(), 1.0);
    }

    #[test]
    fn table_numbers_questions_in_order() {
        let (record, problem) = paper_record();
        let groups = ScoreGroups::split(&record, GroupFraction::PAPER).unwrap();
        let filler: ProblemId = "filler".parse().unwrap();
        let rows = QuestionIndices::table(&record, &groups, &[problem.clone(), filler]).unwrap();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].number, 1);
        assert_eq!(rows[1].number, 2);
        let rendered = QuestionIndices::render_table(&rows);
        assert!(rendered.contains("D=PH-PL"));
        assert!(rendered.lines().count() == 3);
    }

    #[test]
    fn missing_response_is_reported() {
        let (mut record, _) = paper_record();
        // Drop one low-group student's response to no2.
        let victim = record
            .students
            .iter_mut()
            .find(|s| s.student.as_str() == "l00")
            .unwrap();
        Arc::make_mut(victim)
            .responses
            .retain(|r| r.problem.as_str() != "no2");
        // Record is now inconsistent, which the split itself reports.
        let err = ScoreGroups::split(&record, GroupFraction::PAPER).unwrap_err();
        assert!(matches!(err, AnalysisError::Core(_)));
    }
}
