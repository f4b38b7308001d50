//! The per-analysis lookup index that makes the per-question hot path
//! allocation-lean.
//!
//! The naive §4.1 pipeline resolves everything by linear scan: each
//! group member is found in the class roster by string comparison, each
//! response by scanning the member's response list, each problem by
//! scanning the supplied problem slice — per question, so an analysis
//! costs O(questions × class × questions) string compares. This module
//! builds every map exactly once per [`ExamAnalysis::analyze`] call and
//! the per-question pass becomes O(group size) array indexing.
//!
//! All lookups replicate the first-match semantics of the scans they
//! replace (`Iterator::find`, [`StudentRecord::response_to`]), so the
//! analysis output stays byte-identical.
//!
//! [`ExamAnalysis::analyze`]: crate::exam_analysis::ExamAnalysis::analyze
//! [`StudentRecord::response_to`]: mine_core::StudentRecord::response_to

use std::collections::HashMap;

use mine_core::{ExamRecord, ItemResponse, ProblemId, StudentId};
use mine_itembank::Problem;

use crate::error::AnalysisError;
use crate::groups::ScoreGroups;

/// How one student's responses map to exam positions.
///
/// Almost every record stores responses in the exam's canonical order
/// (delivery writes them that way), so the common case is a zero-cost
/// direct index; a student whose response order deviates gets an
/// individual position map.
enum Layout<'a> {
    /// `responses[pos]` is the response to exam position `pos`.
    Canonical,
    /// Position of the first response per problem id.
    Mapped(HashMap<&'a str, usize>),
}

/// Lookup structures shared by every per-question task of one analysis.
pub(crate) struct RecordIndex<'a> {
    record: &'a ExamRecord,
    /// Exam problem ids in record order (`record.problems()`).
    pub(crate) problem_ids: Vec<ProblemId>,
    /// The resolved problem definition per exam position.
    pub(crate) problems: Vec<&'a Problem>,
    /// Per-student response layout, indexed like `record.students`.
    layouts: Vec<Layout<'a>>,
    /// Row (index into `record.students`) of each high-group member, in
    /// group order.
    pub(crate) high_rows: Vec<usize>,
    /// Row of each low-group member, in group order.
    pub(crate) low_rows: Vec<usize>,
}

impl<'a> RecordIndex<'a> {
    /// Builds the index: resolves every exam position against
    /// `problems` (erroring on the first unknown id, in exam order,
    /// like the scan it replaces), maps group members to class rows and
    /// classifies each student's response layout.
    ///
    /// # Errors
    ///
    /// [`AnalysisError::UnknownProblem`] when the record references a
    /// problem not supplied.
    pub(crate) fn build(
        record: &'a ExamRecord,
        problems: &'a [Problem],
        groups: &ScoreGroups,
    ) -> Result<Self, AnalysisError> {
        let problem_ids = record.problems();

        // First-wins, like `problems.iter().find(..)` did per question.
        let mut by_id: HashMap<&str, &Problem> = HashMap::with_capacity(problems.len());
        for problem in problems {
            by_id.entry(problem.id().as_str()).or_insert(problem);
        }
        let resolved: Vec<&Problem> = problem_ids
            .iter()
            .map(|id| {
                by_id
                    .get(id.as_str())
                    .copied()
                    .ok_or_else(|| AnalysisError::UnknownProblem {
                        problem: id.to_string(),
                    })
            })
            .collect::<Result<_, _>>()?;

        let layouts = record
            .students
            .iter()
            .map(|student| {
                let canonical = student.responses.len() == problem_ids.len()
                    && student
                        .responses
                        .iter()
                        .zip(&problem_ids)
                        .all(|(response, id)| &response.problem == id);
                if canonical {
                    Layout::Canonical
                } else {
                    let mut map = HashMap::with_capacity(student.responses.len());
                    for (i, response) in student.responses.iter().enumerate() {
                        // First response wins, like `response_to`.
                        map.entry(response.problem.as_str()).or_insert(i);
                    }
                    Layout::Mapped(map)
                }
            })
            .collect();

        let mut row_of: HashMap<&str, usize> = HashMap::with_capacity(record.students.len());
        for (row, student) in record.students.iter().enumerate() {
            row_of.entry(student.student.as_str()).or_insert(row);
        }
        let rows = |members: &[StudentId]| -> Vec<usize> {
            members
                .iter()
                .map(|member| {
                    *row_of
                        .get(member.as_str())
                        .expect("group members come from the record")
                })
                .collect()
        };

        Ok(Self {
            record,
            high_rows: rows(groups.high()),
            low_rows: rows(groups.low()),
            problem_ids,
            problems: resolved,
            layouts,
        })
    }

    /// Number of exam positions.
    pub(crate) fn len(&self) -> usize {
        self.problem_ids.len()
    }

    /// The student at `row`.
    pub(crate) fn student_id(&self, row: usize) -> &'a StudentId {
        &self.record.students[row].student
    }

    /// Row `row`'s response to exam position `pos` — equivalent to
    /// `record.students[row].response_to(&problem_ids[pos])` without
    /// the scan.
    pub(crate) fn response(&self, row: usize, pos: usize) -> Option<&'a ItemResponse> {
        let student = &self.record.students[row];
        match &self.layouts[row] {
            Layout::Canonical => student.responses.get(pos),
            Layout::Mapped(map) => map
                .get(self.problem_ids[pos].as_str())
                .map(|&i| &student.responses[i]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    use mine_core::{Answer, ExamId, GroupFraction, ItemResponse, StudentRecord};

    fn pid(s: &str) -> ProblemId {
        s.parse().unwrap()
    }

    fn problem(id: &str) -> Problem {
        Problem::true_false(id, "stmt", true).unwrap()
    }

    /// Four students over q0/q1; s3's responses are stored in reverse
    /// order to exercise the mapped layout.
    fn record() -> ExamRecord {
        let response =
            |id: &str, points: f64| ItemResponse::correct(pid(id), Answer::TrueFalse(true), points);
        let students = vec![
            StudentRecord::new(
                "s0".parse().unwrap(),
                vec![response("q0", 4.0), response("q1", 4.0)],
            ),
            StudentRecord::new(
                "s1".parse().unwrap(),
                vec![response("q0", 3.0), response("q1", 3.0)],
            ),
            StudentRecord::new(
                "s2".parse().unwrap(),
                vec![response("q0", 2.0), response("q1", 2.0)],
            ),
            StudentRecord::new(
                "s3".parse().unwrap(),
                vec![response("q1", 1.0), response("q0", 1.0)],
            ),
        ];
        ExamRecord::new(ExamId::new("e").unwrap(), students)
    }

    #[test]
    fn lookups_match_the_scans_they_replace() {
        let record = record();
        let problems = vec![problem("q0"), problem("q1")];
        let groups = ScoreGroups::split(&record, GroupFraction::PAPER).unwrap();
        let index = RecordIndex::build(&record, &problems, &groups).unwrap();

        assert_eq!(index.len(), 2);
        assert_eq!(index.problems[0].id(), &pid("q0"));
        // Group rows point at the ranked students: s0 best, s3 worst.
        assert_eq!(index.high_rows, vec![0]);
        assert_eq!(index.low_rows, vec![3]);

        for (row, student) in record.students.iter().enumerate() {
            for (pos, id) in index.problem_ids.iter().enumerate() {
                assert_eq!(
                    index.response(row, pos).map(|r| &r.problem),
                    student.response_to(id).map(|r| &r.problem),
                    "row {row} pos {pos}"
                );
                assert!(std::ptr::eq(
                    index.response(row, pos).unwrap(),
                    student.response_to(id).unwrap()
                ));
            }
        }
    }

    #[test]
    fn unknown_problem_errors_in_exam_order() {
        let record = record();
        let problems = vec![problem("q1")];
        let groups = ScoreGroups::split(&record, GroupFraction::PAPER).unwrap();
        let Err(err) = RecordIndex::build(&record, &problems, &groups) else {
            panic!("q0 is not in the supplied problems");
        };
        assert!(
            matches!(err, AnalysisError::UnknownProblem { ref problem } if problem == "q0"),
            "first unknown id in exam order is reported: {err:?}"
        );
    }

    #[test]
    fn missing_response_is_none() {
        let mut record = record();
        Arc::make_mut(&mut record.students[3]).responses.pop();
        let problems = vec![problem("q0"), problem("q1")];
        // The record is now inconsistent, so bypass split validation by
        // building groups from the valid prefix record.
        let valid = {
            let mut r = record.clone();
            r.students.truncate(3);
            r
        };
        let groups = ScoreGroups::split(&valid, GroupFraction::PAPER).unwrap();
        let index = RecordIndex::build(&record, &problems, &groups).unwrap();
        assert!(index.response(3, 0).is_none(), "q0 response was dropped");
        assert!(index.response(3, 1).is_some());
    }
}
