//! Answer and response records flowing from delivery into analysis.
//!
//! A completed exam produces one [`StudentRecord`] per learner; the set of
//! records for a class is an [`ExamRecord`], the input to the paper's
//! analysis model (§4).

use std::fmt;
use std::str::FromStr;
use std::sync::Arc;
use std::time::Duration;

use serde::{Deserialize, JsonWriter, Serialize};

use crate::error::CoreError;
use crate::id::{ExamId, ProblemId, StudentId};

/// A choice-option key: `A`, `B`, `C`, …
///
/// The paper's option matrices (Table 1) use five options `A`–`E`; the
/// type supports up to `Z` so larger multiple-choice items still work.
///
/// # Examples
///
/// ```
/// use mine_core::OptionKey;
///
/// assert_eq!(OptionKey::from_index(2).unwrap(), OptionKey::C);
/// assert_eq!(OptionKey::E.index(), 4);
/// assert_eq!("D".parse::<OptionKey>().unwrap(), OptionKey::D);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Deserialize)]
#[serde(try_from = "String")]
pub struct OptionKey(u8);

// Serializes as its letter (`"B"`), written without allocating.
impl Serialize for OptionKey {
    fn serialize_into(&self, out: &mut JsonWriter) {
        self.letter().serialize_into(out);
    }
}

impl OptionKey {
    /// Option `A` (index 0).
    pub const A: OptionKey = OptionKey(0);
    /// Option `B` (index 1).
    pub const B: OptionKey = OptionKey(1);
    /// Option `C` (index 2).
    pub const C: OptionKey = OptionKey(2);
    /// Option `D` (index 3).
    pub const D: OptionKey = OptionKey(3);
    /// Option `E` (index 4).
    pub const E: OptionKey = OptionKey(4);

    /// Highest supported zero-based index (`Z` = 25).
    pub const MAX_INDEX: usize = 25;

    /// Builds a key from a zero-based index.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptionKey`] when `index > 25`.
    pub fn from_index(index: usize) -> Result<Self, CoreError> {
        if index <= Self::MAX_INDEX {
            Ok(Self(index as u8))
        } else {
            Err(CoreError::InvalidOptionKey(index.to_string()))
        }
    }

    /// Builds a key from its letter (`'A'`–`'Z'`, case-insensitive).
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidOptionKey`] for non-letters.
    pub fn from_letter(letter: char) -> Result<Self, CoreError> {
        let upper = letter.to_ascii_uppercase();
        if upper.is_ascii_uppercase() {
            Ok(Self(upper as u8 - b'A'))
        } else {
            Err(CoreError::InvalidOptionKey(letter.to_string()))
        }
    }

    /// Zero-based index of the option.
    #[must_use]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Letter of the option (`'A'`…).
    #[must_use]
    pub fn letter(self) -> char {
        (b'A' + self.0) as char
    }

    /// Iterates over the first `count` option keys (`A`, `B`, …).
    ///
    /// # Panics
    ///
    /// Panics if `count > 26`.
    pub fn first(count: usize) -> impl Iterator<Item = OptionKey> {
        assert!(count <= Self::MAX_INDEX + 1, "at most 26 options supported");
        (0..count).map(|i| OptionKey(i as u8))
    }
}

impl fmt::Display for OptionKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.letter())
    }
}

impl FromStr for OptionKey {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let mut chars = s.trim().chars();
        match (chars.next(), chars.next()) {
            (Some(c), None) => Self::from_letter(c),
            _ => Err(CoreError::InvalidOptionKey(s.to_string())),
        }
    }
}

impl TryFrom<String> for OptionKey {
    type Error = CoreError;

    fn try_from(value: String) -> Result<Self, Self::Error> {
        value.parse()
    }
}

impl From<OptionKey> for String {
    fn from(key: OptionKey) -> String {
        key.letter().to_string()
    }
}

/// A learner's answer to one problem.
///
/// Variants mirror the paper's question styles (§3.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Answer {
    /// A selected option of a multiple-choice problem.
    Choice(OptionKey),
    /// Several selected options (multiple-response problems).
    MultiChoice(Vec<OptionKey>),
    /// A true/false judgement.
    TrueFalse(bool),
    /// Free text for essay or short-answer problems.
    Text(String),
    /// Blank values for completion (fill-in / cloze) problems, in blank order.
    Completion(Vec<String>),
    /// Pairings for match problems: `matches[i]` is the chosen right-hand
    /// index for left-hand entry `i`.
    Match(Vec<usize>),
    /// The learner skipped the problem.
    Skipped,
}

impl Answer {
    /// Whether the learner actually attempted the problem.
    #[must_use]
    pub fn is_attempted(&self) -> bool {
        !matches!(self, Answer::Skipped)
    }

    /// The chosen option, when the answer is a single choice.
    #[must_use]
    pub fn chosen_option(&self) -> Option<OptionKey> {
        match self {
            Answer::Choice(key) => Some(*key),
            _ => None,
        }
    }
}

impl fmt::Display for Answer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Answer::Choice(key) => write!(f, "choice {key}"),
            Answer::MultiChoice(keys) => {
                write!(f, "choices ")?;
                for (i, key) in keys.iter().enumerate() {
                    if i > 0 {
                        write!(f, ",")?;
                    }
                    write!(f, "{key}")?;
                }
                Ok(())
            }
            Answer::TrueFalse(value) => write!(f, "{value}"),
            Answer::Text(text) => write!(f, "text {text:?}"),
            Answer::Completion(blanks) => write!(f, "completion {blanks:?}"),
            Answer::Match(pairs) => write!(f, "match {pairs:?}"),
            Answer::Skipped => write!(f, "skipped"),
        }
    }
}

/// One graded response to one problem.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ItemResponse {
    /// The problem answered.
    pub problem: ProblemId,
    /// What the learner answered.
    pub answer: Answer,
    /// Whether the grader judged the answer correct.
    pub is_correct: bool,
    /// Points awarded by the grader.
    pub points_awarded: f64,
    /// Maximum points the problem is worth.
    pub points_possible: f64,
    /// Time the learner spent on this problem.
    pub time_spent: Duration,
    /// Offset from exam start at which the answer was committed, if known.
    pub answered_at: Option<Duration>,
}

impl ItemResponse {
    /// Builds a correct full-credit response (test/simulation helper).
    #[must_use]
    pub fn correct(problem: ProblemId, answer: Answer, points: f64) -> Self {
        Self {
            problem,
            answer,
            is_correct: true,
            points_awarded: points,
            points_possible: points,
            time_spent: Duration::ZERO,
            answered_at: None,
        }
    }

    /// Builds an incorrect zero-credit response (test/simulation helper).
    #[must_use]
    pub fn incorrect(problem: ProblemId, answer: Answer, points_possible: f64) -> Self {
        Self {
            problem,
            answer,
            is_correct: false,
            points_awarded: 0.0,
            points_possible,
            time_spent: Duration::ZERO,
            answered_at: None,
        }
    }
}

/// All of one student's graded responses for one exam sitting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudentRecord {
    /// The learner.
    pub student: StudentId,
    /// Graded responses in presentation order.
    pub responses: Vec<ItemResponse>,
    /// Total wall-clock time of the sitting.
    pub total_time: Duration,
}

impl StudentRecord {
    /// Creates a record; `total_time` defaults to the sum of per-item times.
    #[must_use]
    pub fn new(student: StudentId, responses: Vec<ItemResponse>) -> Self {
        let total_time = responses.iter().map(|r| r.time_spent).sum();
        Self {
            student,
            responses,
            total_time,
        }
    }

    /// Total points awarded across all responses.
    #[must_use]
    pub fn score(&self) -> f64 {
        self.responses.iter().map(|r| r.points_awarded).sum()
    }

    /// Total points possible across all responses.
    #[must_use]
    pub fn max_score(&self) -> f64 {
        self.responses.iter().map(|r| r.points_possible).sum()
    }

    /// Number of responses judged correct.
    #[must_use]
    pub fn correct_count(&self) -> usize {
        self.responses.iter().filter(|r| r.is_correct).count()
    }

    /// Number of attempted (non-skipped) responses.
    #[must_use]
    pub fn attempted_count(&self) -> usize {
        self.responses
            .iter()
            .filter(|r| r.answer.is_attempted())
            .count()
    }

    /// Looks up the response to a particular problem.
    #[must_use]
    pub fn response_to(&self, problem: &ProblemId) -> Option<&ItemResponse> {
        self.responses.iter().find(|r| &r.problem == problem)
    }
}

/// The whole class's records for one exam — the unit the analysis model
/// consumes.
///
/// Rows are shared (`Arc`), so a class assembled from records another
/// owner keeps — the server's finished store — copies pointers, not
/// responses. A row serializes exactly like the record it points to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExamRecord {
    /// Which exam was sat.
    pub exam: ExamId,
    /// One record per learner.
    pub students: Vec<Arc<StudentRecord>>,
}

impl ExamRecord {
    /// Creates an exam record from owned rows.
    #[must_use]
    pub fn new(exam: ExamId, students: Vec<StudentRecord>) -> Self {
        Self::shared(exam, students.into_iter().map(Arc::new).collect())
    }

    /// Creates an exam record over rows shared with another owner.
    #[must_use]
    pub fn shared(exam: ExamId, students: Vec<Arc<StudentRecord>>) -> Self {
        Self { exam, students }
    }

    /// Number of learners in the record.
    #[must_use]
    pub fn class_size(&self) -> usize {
        self.students.len()
    }

    /// Validates internal consistency: every student answered the same set
    /// of problems, no duplicate students.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InconsistentRecord`] describing the first
    /// violation found.
    pub fn validate(&self) -> Result<(), CoreError> {
        let mut seen = std::collections::HashSet::new();
        for record in &self.students {
            if !seen.insert(&record.student) {
                return Err(CoreError::InconsistentRecord(format!(
                    "duplicate student {}",
                    record.student
                )));
            }
        }
        if let Some(first) = self.students.first() {
            let reference: Vec<_> = first.responses.iter().map(|r| &r.problem).collect();
            let mut sorted_reference = reference.clone();
            sorted_reference.sort();
            for record in &self.students[1..] {
                let in_order = record.responses.len() == reference.len()
                    && record
                        .responses
                        .iter()
                        .zip(&reference)
                        .all(|(r, &expect)| &r.problem == expect);
                if in_order {
                    continue;
                }
                let mut problems: Vec<_> = record.responses.iter().map(|r| &r.problem).collect();
                problems.sort();
                if problems != sorted_reference {
                    return Err(CoreError::InconsistentRecord(format!(
                        "student {} answered a different problem set",
                        record.student
                    )));
                }
            }
        }
        Ok(())
    }

    /// The distinct problems of the exam, in the first student's order.
    #[must_use]
    pub fn problems(&self) -> Vec<ProblemId> {
        self.students
            .first()
            .map(|s| s.responses.iter().map(|r| r.problem.clone()).collect())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(s: &str) -> ProblemId {
        ProblemId::new(s).unwrap()
    }

    fn sid(s: &str) -> StudentId {
        StudentId::new(s).unwrap()
    }

    #[test]
    fn option_key_letters_and_indices() {
        assert_eq!(OptionKey::A.letter(), 'A');
        assert_eq!(OptionKey::E.index(), 4);
        assert_eq!(OptionKey::from_letter('z').unwrap().index(), 25);
        assert!(OptionKey::from_index(26).is_err());
        assert!(OptionKey::from_letter('3').is_err());
    }

    #[test]
    fn option_key_first_yields_prefix() {
        let keys: Vec<_> = OptionKey::first(5).collect();
        assert_eq!(
            keys,
            vec![
                OptionKey::A,
                OptionKey::B,
                OptionKey::C,
                OptionKey::D,
                OptionKey::E
            ]
        );
    }

    #[test]
    #[should_panic(expected = "at most 26")]
    fn option_key_first_panics_past_alphabet() {
        let _ = OptionKey::first(27).count();
    }

    #[test]
    fn option_key_parse_round_trip() {
        for key in OptionKey::first(26) {
            let s = key.to_string();
            assert_eq!(s.parse::<OptionKey>().unwrap(), key);
        }
        assert!("AB".parse::<OptionKey>().is_err());
        assert!("".parse::<OptionKey>().is_err());
    }

    #[test]
    fn answer_attempted_and_chosen() {
        assert!(Answer::Choice(OptionKey::B).is_attempted());
        assert!(!Answer::Skipped.is_attempted());
        assert_eq!(
            Answer::Choice(OptionKey::B).chosen_option(),
            Some(OptionKey::B)
        );
        assert_eq!(Answer::TrueFalse(true).chosen_option(), None);
    }

    #[test]
    fn answer_display_is_never_empty() {
        let answers = [
            Answer::Choice(OptionKey::A),
            Answer::MultiChoice(vec![OptionKey::A, OptionKey::C]),
            Answer::TrueFalse(false),
            Answer::Text("essay".into()),
            Answer::Completion(vec!["tcp".into()]),
            Answer::Match(vec![1, 0]),
            Answer::Skipped,
        ];
        for answer in answers {
            assert!(!answer.to_string().is_empty());
        }
    }

    #[test]
    fn student_record_scores() {
        let record = StudentRecord::new(
            sid("s1"),
            vec![
                ItemResponse::correct(pid("q1"), Answer::Choice(OptionKey::A), 2.0),
                ItemResponse::incorrect(pid("q2"), Answer::Choice(OptionKey::B), 3.0),
                ItemResponse::incorrect(pid("q3"), Answer::Skipped, 1.0),
            ],
        );
        assert_eq!(record.score(), 2.0);
        assert_eq!(record.max_score(), 6.0);
        assert_eq!(record.correct_count(), 1);
        assert_eq!(record.attempted_count(), 2);
        assert!(record.response_to(&pid("q2")).is_some());
        assert!(record.response_to(&pid("q9")).is_none());
    }

    #[test]
    fn total_time_defaults_to_sum_of_item_times() {
        let mut r1 = ItemResponse::correct(pid("q1"), Answer::TrueFalse(true), 1.0);
        r1.time_spent = Duration::from_secs(30);
        let mut r2 = ItemResponse::incorrect(pid("q2"), Answer::TrueFalse(false), 1.0);
        r2.time_spent = Duration::from_secs(45);
        let record = StudentRecord::new(sid("s"), vec![r1, r2]);
        assert_eq!(record.total_time, Duration::from_secs(75));
    }

    #[test]
    fn exam_record_validate_catches_duplicates() {
        let mk = |name: &str| {
            StudentRecord::new(
                sid(name),
                vec![ItemResponse::correct(
                    pid("q1"),
                    Answer::TrueFalse(true),
                    1.0,
                )],
            )
        };
        let good = ExamRecord::new(ExamId::new("e").unwrap(), vec![mk("a"), mk("b")]);
        assert!(good.validate().is_ok());
        let bad = ExamRecord::new(ExamId::new("e").unwrap(), vec![mk("a"), mk("a")]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn exam_record_validate_catches_mismatched_problem_sets() {
        let a = StudentRecord::new(
            sid("a"),
            vec![ItemResponse::correct(
                pid("q1"),
                Answer::TrueFalse(true),
                1.0,
            )],
        );
        let b = StudentRecord::new(
            sid("b"),
            vec![ItemResponse::correct(
                pid("q2"),
                Answer::TrueFalse(true),
                1.0,
            )],
        );
        let record = ExamRecord::new(ExamId::new("e").unwrap(), vec![a, b]);
        assert!(record.validate().is_err());
    }

    #[test]
    fn exam_record_same_problems_different_order_is_consistent() {
        let a = StudentRecord::new(
            sid("a"),
            vec![
                ItemResponse::correct(pid("q1"), Answer::TrueFalse(true), 1.0),
                ItemResponse::correct(pid("q2"), Answer::TrueFalse(true), 1.0),
            ],
        );
        let b = StudentRecord::new(
            sid("b"),
            vec![
                ItemResponse::correct(pid("q2"), Answer::TrueFalse(true), 1.0),
                ItemResponse::correct(pid("q1"), Answer::TrueFalse(true), 1.0),
            ],
        );
        let record = ExamRecord::new(ExamId::new("e").unwrap(), vec![a, b]);
        assert!(record.validate().is_ok());
        assert_eq!(record.problems(), vec![pid("q1"), pid("q2")]);
        assert_eq!(record.class_size(), 2);
    }

    fn answering(name: &str, problems: &[&str]) -> StudentRecord {
        StudentRecord::new(
            sid(name),
            problems
                .iter()
                .map(|p| ItemResponse::correct(pid(p), Answer::TrueFalse(true), 1.0))
                .collect(),
        )
    }

    fn inconsistency(record: &ExamRecord) -> String {
        match record.validate() {
            Err(CoreError::InconsistentRecord(message)) => message,
            other => panic!("expected an inconsistent record, got {other:?}"),
        }
    }

    #[test]
    fn validate_accepts_rows_in_order_and_reordered() {
        let record = ExamRecord::new(
            ExamId::new("e").unwrap(),
            vec![
                answering("a", &["q1", "q2", "q3"]),
                answering("b", &["q1", "q2", "q3"]),
                answering("c", &["q3", "q1", "q2"]),
                answering("d", &["q1", "q2", "q3"]),
            ],
        );
        assert!(record.validate().is_ok());
    }

    #[test]
    fn validate_rejects_a_same_length_row_with_other_problems() {
        for row in [
            &["q1", "q2", "q4"][..],
            &["q2", "q4", "q1"],
            &["q1", "q1", "q2"],
        ] {
            let record = ExamRecord::new(
                ExamId::new("e").unwrap(),
                vec![
                    answering("a", &["q1", "q2", "q3"]),
                    answering("b", &["q3", "q2", "q1"]),
                    answering("c", row),
                ],
            );
            assert_eq!(
                inconsistency(&record),
                "student c answered a different problem set"
            );
        }
        let shorter = ExamRecord::new(
            ExamId::new("e").unwrap(),
            vec![answering("a", &["q1", "q2"]), answering("b", &["q1"])],
        );
        assert_eq!(
            inconsistency(&shorter),
            "student b answered a different problem set"
        );
    }

    #[test]
    fn validate_reports_a_duplicate_student_before_a_mismatched_row() {
        let record = ExamRecord::new(
            ExamId::new("e").unwrap(),
            vec![
                answering("a", &["q1", "q2"]),
                answering("b", &["q3"]),
                answering("a", &["q1", "q2"]),
            ],
        );
        assert_eq!(inconsistency(&record), "duplicate student a");
    }

    #[test]
    fn empty_exam_record_is_valid_with_no_problems() {
        let record = ExamRecord::new(ExamId::new("e").unwrap(), vec![]);
        assert!(record.validate().is_ok());
        assert!(record.problems().is_empty());
    }
}
