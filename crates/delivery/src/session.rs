//! One learner's exam sitting (§3.2-VI, §3.4-II).
//!
//! The session runs on a *logical clock*: every answer reports how long
//! the learner spent, and the session accumulates it. This keeps runs
//! deterministic — the simulator decides pacing, the tests replay it —
//! while still enforcing the exam's `test_time` limit exactly.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use mine_core::{Answer, ExamId, ItemResponse, ProblemId, SessionId, StudentId, StudentRecord};
use mine_itembank::{Exam, Problem};

use crate::error::DeliveryError;
use crate::order::presentation_order;

/// Options controlling a sitting.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeliveryOptions {
    /// Seed for the presentation-order shuffle.
    pub seed: u64,
    /// Whether the learner may pause and resume ("Resumable: true means
    /// resumed and false means paused at a later time", §3.2-VI-B).
    pub resumable: bool,
    /// Accessibility accommodation: the exam's time limit is multiplied
    /// by this factor for the learner (1.0 = none; 1.5 = time-and-a-half).
    pub time_accommodation: f64,
}

impl DeliveryOptions {
    /// Largest accepted accommodation multiplier. Anything above this is
    /// surely a bug (and would overflow `Duration` arithmetic anyway).
    pub const MAX_TIME_ACCOMMODATION: f64 = 100.0;

    /// Checks the options for nonsense values.
    ///
    /// A non-finite or non-positive `time_accommodation` would silently
    /// produce a meaningless deadline (NaN-propagating or zero), so it is
    /// rejected up front.
    ///
    /// # Errors
    ///
    /// Returns [`DeliveryError::InvalidOptions`] when
    /// `time_accommodation` is NaN, infinite, zero or negative, or above
    /// [`DeliveryOptions::MAX_TIME_ACCOMMODATION`].
    pub fn validate(&self) -> Result<(), DeliveryError> {
        let factor = self.time_accommodation;
        if !factor.is_finite() {
            return Err(DeliveryError::InvalidOptions {
                reason: format!("time_accommodation must be finite, got {factor}"),
            });
        }
        if factor <= 0.0 {
            return Err(DeliveryError::InvalidOptions {
                reason: format!("time_accommodation must be positive, got {factor}"),
            });
        }
        if factor > Self::MAX_TIME_ACCOMMODATION {
            return Err(DeliveryError::InvalidOptions {
                reason: format!(
                    "time_accommodation {factor} exceeds the maximum {}",
                    Self::MAX_TIME_ACCOMMODATION
                ),
            });
        }
        Ok(())
    }
}

impl Default for DeliveryOptions {
    fn default() -> Self {
        Self {
            seed: 0,
            resumable: true,
            time_accommodation: 1.0,
        }
    }
}

/// Lifecycle state of a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionState {
    /// Accepting answers.
    Active,
    /// Paused via checkpoint; a new session must be resumed from it.
    Paused,
    /// Finished; the record has been produced.
    Finished,
}

/// A pause checkpoint — everything needed to resume the sitting, small
/// enough to live in `cmi.suspend_data`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionCheckpoint {
    /// The session identity.
    pub session: SessionId,
    /// The exam being sat.
    pub exam: ExamId,
    /// The learner.
    pub student: StudentId,
    /// The shuffle seed (restores the same presentation order).
    pub seed: u64,
    /// The accommodation multiplier in force when paused.
    pub time_accommodation: f64,
    /// Elapsed logical time at pause.
    pub elapsed: Duration,
    /// Index of the next unanswered position.
    pub cursor: usize,
    /// Answers recorded so far, by problem.
    pub answers: BTreeMap<ProblemId, RecordedAnswer>,
}

/// A recorded answer inside a checkpoint.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedAnswer {
    /// What the learner answered.
    pub answer: Answer,
    /// Time spent on the problem.
    pub time_spent: Duration,
    /// Logical offset from session start when committed.
    pub answered_at: Duration,
}

/// A complete serializable image of an [`ExamSession`] — every field,
/// including the problem set with its graders — used by the server's
/// durability layer to snapshot live sittings and rebuild them
/// byte-identically after a restart.
///
/// Unlike [`SessionCheckpoint`] (which is deliberately small and
/// rebuilt against the repository on resume), an image is
/// self-contained: restoring it needs nothing but the image itself.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionImage {
    /// The session identity.
    pub id: SessionId,
    /// The exam being sat.
    pub exam_id: ExamId,
    /// The learner.
    pub student: StudentId,
    /// The options the sitting was started with.
    pub options: DeliveryOptions,
    /// Problems keyed by id, graders included.
    pub problems: BTreeMap<ProblemId, Problem>,
    /// Exam-local point overrides.
    pub point_overrides: BTreeMap<ProblemId, f64>,
    /// Presentation order.
    pub order: Vec<ProblemId>,
    /// Answers recorded so far.
    pub answers: BTreeMap<ProblemId, RecordedAnswer>,
    /// Index of the next unanswered position.
    pub cursor: usize,
    /// Elapsed logical time.
    pub elapsed: Duration,
    /// Effective time limit (accommodation already applied), if any.
    pub time_limit: Option<Duration>,
    /// Lifecycle state.
    pub state: SessionState,
}

/// One learner sitting one exam.
#[derive(Debug, Clone)]
pub struct ExamSession {
    id: SessionId,
    exam_id: ExamId,
    student: StudentId,
    options: DeliveryOptions,
    /// Problems keyed by id (graders).
    problems: BTreeMap<ProblemId, Problem>,
    /// Exam-local point overrides.
    point_overrides: BTreeMap<ProblemId, f64>,
    /// Presentation order.
    order: Vec<ProblemId>,
    /// Answers so far.
    answers: BTreeMap<ProblemId, RecordedAnswer>,
    cursor: usize,
    elapsed: Duration,
    time_limit: Option<Duration>,
    state: SessionState,
}

impl ExamSession {
    /// Starts a fresh sitting.
    ///
    /// # Errors
    ///
    /// Returns [`DeliveryError::InvalidOptions`] when the options fail
    /// [`DeliveryOptions::validate`] and
    /// [`DeliveryError::ProblemSetMismatch`] when `problems` does
    /// not cover the exam's entries exactly.
    pub fn start(
        exam: &Exam,
        problems: Vec<Problem>,
        student: StudentId,
        options: DeliveryOptions,
    ) -> Result<Self, DeliveryError> {
        options.validate()?;
        let by_id: BTreeMap<ProblemId, Problem> =
            problems.into_iter().map(|p| (p.id().clone(), p)).collect();
        for entry in exam.entries() {
            if !by_id.contains_key(&entry.problem) {
                return Err(DeliveryError::ProblemSetMismatch {
                    reason: format!("exam entry {} has no problem", entry.problem),
                });
            }
        }
        let point_overrides = exam
            .entries()
            .iter()
            .filter_map(|e| e.points.map(|p| (e.problem.clone(), p)))
            .collect();
        let order = presentation_order(exam, options.seed);
        let id = SessionId::new(format!("{}#{}@{}", exam.id(), student, options.seed))
            .expect("constructed from valid ids");
        let time_limit = exam
            .meta()
            .test_time
            .map(|limit| limit.mul_f64(options.time_accommodation));
        Ok(Self {
            id,
            exam_id: exam.id().clone(),
            student,
            options,
            problems: by_id,
            point_overrides,
            order,
            answers: BTreeMap::new(),
            cursor: 0,
            elapsed: Duration::ZERO,
            time_limit,
            state: SessionState::Active,
        })
    }

    /// The session identifier.
    #[must_use]
    pub fn id(&self) -> &SessionId {
        &self.id
    }

    /// The sitting's copy of problem `id`, if the exam includes it.
    #[must_use]
    pub fn problem(&self, id: &ProblemId) -> Option<&Problem> {
        self.problems.get(id)
    }

    /// The exam being sat.
    #[must_use]
    pub fn exam_id(&self) -> &ExamId {
        &self.exam_id
    }

    /// The learner sitting the exam.
    #[must_use]
    pub fn student(&self) -> &StudentId {
        &self.student
    }

    /// The options the sitting was started with.
    #[must_use]
    pub fn options(&self) -> &DeliveryOptions {
        &self.options
    }

    /// Current lifecycle state.
    #[must_use]
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The presentation order for this sitting.
    #[must_use]
    pub fn order(&self) -> &[ProblemId] {
        &self.order
    }

    /// Logical time elapsed.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Time remaining before the limit, `None` when the exam is
    /// unlimited.
    #[must_use]
    pub fn remaining_time(&self) -> Option<Duration> {
        self.time_limit
            .map(|limit| limit.saturating_sub(self.elapsed))
    }

    /// Number of answered questions so far.
    #[must_use]
    pub fn answered_count(&self) -> usize {
        self.answers.len()
    }

    /// The problem currently presented, or `None` when past the end.
    #[must_use]
    pub fn current(&self) -> Option<&Problem> {
        self.order.get(self.cursor).map(|id| &self.problems[id])
    }

    /// Moves to a specific position (review navigation).
    ///
    /// # Errors
    ///
    /// Returns [`DeliveryError::OutOfBounds`] past the exam length and
    /// [`DeliveryError::WrongState`] when not active.
    pub fn seek(&mut self, position: usize) -> Result<(), DeliveryError> {
        self.ensure_active("seek")?;
        if position >= self.order.len() {
            return Err(DeliveryError::OutOfBounds);
        }
        self.cursor = position;
        Ok(())
    }

    fn ensure_active(&self, operation: &'static str) -> Result<(), DeliveryError> {
        match self.state {
            SessionState::Active => Ok(()),
            SessionState::Paused => Err(DeliveryError::WrongState {
                operation,
                state: "paused",
            }),
            SessionState::Finished => Err(DeliveryError::WrongState {
                operation,
                state: "finished",
            }),
        }
    }

    /// Answers the current problem and advances the cursor.
    ///
    /// Re-answering a previously seen problem (after [`ExamSession::seek`])
    /// replaces the earlier answer; the time spent accumulates either way.
    ///
    /// # Errors
    ///
    /// * [`DeliveryError::WrongState`] when not active,
    /// * [`DeliveryError::OutOfBounds`] when past the last question,
    /// * [`DeliveryError::TimeExpired`] when the limit has run out (the
    ///   answer is *not* recorded),
    /// * [`DeliveryError::Grading`] when the answer kind mismatches.
    pub fn answer(&mut self, answer: Answer, time_spent: Duration) -> Result<(), DeliveryError> {
        self.ensure_active("answer")?;
        let problem_id = self
            .order
            .get(self.cursor)
            .cloned()
            .ok_or(DeliveryError::OutOfBounds)?;
        if let Some(limit) = self.time_limit {
            if self.elapsed + time_spent > limit {
                // The clock still ran out; the session is now expired.
                self.elapsed = limit;
                return Err(DeliveryError::TimeExpired);
            }
        }
        // Validate gradability before recording.
        let problem = &self.problems[&problem_id];
        problem.grade(&answer)?;
        self.elapsed += time_spent;
        self.answers.insert(
            problem_id,
            RecordedAnswer {
                answer,
                time_spent,
                answered_at: self.elapsed,
            },
        );
        self.cursor += 1;
        Ok(())
    }

    /// Skips the current problem (recorded as [`Answer::Skipped`]).
    ///
    /// # Errors
    ///
    /// Same conditions as [`ExamSession::answer`].
    pub fn skip(&mut self, time_spent: Duration) -> Result<(), DeliveryError> {
        self.answer(Answer::Skipped, time_spent)
    }

    /// Pauses the session into a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`DeliveryError::NotResumable`] when the options forbid it
    /// and [`DeliveryError::WrongState`] when not active.
    pub fn pause(&mut self) -> Result<SessionCheckpoint, DeliveryError> {
        self.ensure_active("pause")?;
        if !self.options.resumable {
            return Err(DeliveryError::NotResumable);
        }
        self.state = SessionState::Paused;
        Ok(SessionCheckpoint {
            session: self.id.clone(),
            exam: self.exam_id.clone(),
            student: self.student.clone(),
            seed: self.options.seed,
            time_accommodation: self.options.time_accommodation,
            elapsed: self.elapsed,
            cursor: self.cursor,
            answers: self.answers.clone(),
        })
    }

    /// Reactivates a paused session in place.
    ///
    /// When a session registry keeps the paused [`ExamSession`] itself in
    /// memory (rather than only its [`SessionCheckpoint`]), resuming does
    /// not need to rebuild the session from the exam and problems —
    /// everything is still there. This flips `Paused` back to `Active`;
    /// the logical clock, cursor, and answers are untouched.
    ///
    /// # Errors
    ///
    /// Returns [`DeliveryError::WrongState`] unless the session is
    /// paused.
    pub fn reactivate(&mut self) -> Result<(), DeliveryError> {
        match self.state {
            SessionState::Paused => {
                self.state = SessionState::Active;
                Ok(())
            }
            SessionState::Active => Err(DeliveryError::WrongState {
                operation: "reactivate",
                state: "active",
            }),
            SessionState::Finished => Err(DeliveryError::WrongState {
                operation: "reactivate",
                state: "finished",
            }),
        }
    }

    /// Resumes a sitting from a checkpoint.
    ///
    /// # Errors
    ///
    /// Returns [`DeliveryError::CheckpointMismatch`] when the checkpoint
    /// does not belong to this exam or references unknown problems.
    pub fn resume(
        exam: &Exam,
        problems: Vec<Problem>,
        checkpoint: SessionCheckpoint,
    ) -> Result<Self, DeliveryError> {
        if checkpoint.exam != *exam.id() {
            return Err(DeliveryError::CheckpointMismatch {
                reason: format!(
                    "checkpoint is for exam {}, not {}",
                    checkpoint.exam,
                    exam.id()
                ),
            });
        }
        let mut session = Self::start(
            exam,
            problems,
            checkpoint.student,
            DeliveryOptions {
                seed: checkpoint.seed,
                resumable: true,
                time_accommodation: checkpoint.time_accommodation,
            },
        )?;
        for problem in checkpoint.answers.keys() {
            if !session.problems.contains_key(problem) {
                return Err(DeliveryError::CheckpointMismatch {
                    reason: format!("checkpoint answers unknown problem {problem}"),
                });
            }
        }
        if checkpoint.cursor > session.order.len() {
            return Err(DeliveryError::CheckpointMismatch {
                reason: "checkpoint cursor past the exam".into(),
            });
        }
        session.answers = checkpoint.answers;
        session.cursor = checkpoint.cursor;
        session.elapsed = checkpoint.elapsed;
        Ok(session)
    }

    /// Captures a complete [`SessionImage`] of this sitting.
    #[must_use]
    pub fn image(&self) -> SessionImage {
        SessionImage {
            id: self.id.clone(),
            exam_id: self.exam_id.clone(),
            student: self.student.clone(),
            options: self.options.clone(),
            problems: self.problems.clone(),
            point_overrides: self.point_overrides.clone(),
            order: self.order.clone(),
            answers: self.answers.clone(),
            cursor: self.cursor,
            elapsed: self.elapsed,
            time_limit: self.time_limit,
            state: self.state,
        }
    }

    /// Rebuilds a sitting from a [`SessionImage`], byte-identical to the
    /// session the image was captured from.
    ///
    /// # Errors
    ///
    /// Returns [`DeliveryError::CheckpointMismatch`] when the image is
    /// internally inconsistent (order references unknown problems, or
    /// the cursor points past the exam).
    pub fn from_image(image: SessionImage) -> Result<Self, DeliveryError> {
        for problem in image.order.iter().chain(image.answers.keys()) {
            if !image.problems.contains_key(problem) {
                return Err(DeliveryError::CheckpointMismatch {
                    reason: format!("image references unknown problem {problem}"),
                });
            }
        }
        if image.cursor > image.order.len() {
            return Err(DeliveryError::CheckpointMismatch {
                reason: "image cursor past the exam".into(),
            });
        }
        Ok(Self {
            id: image.id,
            exam_id: image.exam_id,
            student: image.student,
            options: image.options,
            problems: image.problems,
            point_overrides: image.point_overrides,
            order: image.order,
            answers: image.answers,
            cursor: image.cursor,
            elapsed: image.elapsed,
            time_limit: image.time_limit,
            state: image.state,
        })
    }

    /// Finishes the sitting, producing the graded [`StudentRecord`].
    ///
    /// Unanswered problems are recorded as skipped. The record lists
    /// responses in presentation order.
    ///
    /// # Errors
    ///
    /// Returns [`DeliveryError::WrongState`] when already finished.
    pub fn finish(&mut self) -> Result<StudentRecord, DeliveryError> {
        if self.state == SessionState::Finished {
            return Err(DeliveryError::WrongState {
                operation: "finish",
                state: "finished",
            });
        }
        self.state = SessionState::Finished;
        let mut responses = Vec::with_capacity(self.order.len());
        for problem_id in &self.order {
            let problem = &self.problems[problem_id];
            let points = self
                .point_overrides
                .get(problem_id)
                .copied()
                .unwrap_or(problem.points());
            let graded_problem = {
                let mut p = problem.clone();
                p.set_points(points);
                p
            };
            let (answer, time_spent, answered_at) = match self.answers.get(problem_id) {
                Some(recorded) => (
                    recorded.answer.clone(),
                    recorded.time_spent,
                    Some(recorded.answered_at),
                ),
                None => (Answer::Skipped, Duration::ZERO, None),
            };
            let grade = graded_problem.grade(&answer)?;
            responses.push(ItemResponse {
                problem: problem_id.clone(),
                answer,
                is_correct: grade.is_correct,
                points_awarded: grade.points_awarded,
                points_possible: grade.points_possible,
                time_spent,
                answered_at,
            });
        }
        let mut record = StudentRecord::new(self.student.clone(), responses);
        record.total_time = self.elapsed;
        Ok(record)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_core::OptionKey;
    use mine_itembank::{ChoiceOption, ExamEntry};

    fn problems() -> Vec<Problem> {
        vec![
            Problem::multiple_choice(
                "q1",
                "Pick B.",
                [
                    ChoiceOption::new(OptionKey::A, "a"),
                    ChoiceOption::new(OptionKey::B, "b"),
                ],
                OptionKey::B,
            )
            .unwrap(),
            Problem::true_false("q2", "Yes?", true).unwrap(),
            Problem::true_false("q3", "No?", false).unwrap(),
        ]
    }

    fn exam() -> Exam {
        Exam::builder("quiz")
            .unwrap()
            .entry("q1".parse().unwrap())
            .entry_with(ExamEntry::new("q2".parse().unwrap()).worth(3.0))
            .entry("q3".parse().unwrap())
            .test_time(Duration::from_secs(600))
            .build()
            .unwrap()
    }

    fn start() -> ExamSession {
        ExamSession::start(
            &exam(),
            problems(),
            "s1".parse().unwrap(),
            DeliveryOptions::default(),
        )
        .unwrap()
    }

    #[test]
    fn happy_path_full_sitting() {
        let mut session = start();
        assert_eq!(session.state(), SessionState::Active);
        assert_eq!(session.current().unwrap().id().as_str(), "q1");
        session
            .answer(Answer::Choice(OptionKey::B), Duration::from_secs(30))
            .unwrap();
        session
            .answer(Answer::TrueFalse(true), Duration::from_secs(20))
            .unwrap();
        session
            .answer(Answer::TrueFalse(true), Duration::from_secs(10))
            .unwrap();
        assert_eq!(session.answered_count(), 3);
        let record = session.finish().unwrap();
        assert_eq!(record.correct_count(), 2);
        // q2 carries the 3-point exam override.
        assert_eq!(record.score(), 1.0 + 3.0);
        assert_eq!(record.max_score(), 1.0 + 3.0 + 1.0);
        assert_eq!(record.total_time, Duration::from_secs(60));
        // answered_at offsets are cumulative.
        assert_eq!(
            record.responses[0].answered_at,
            Some(Duration::from_secs(30))
        );
        assert_eq!(
            record.responses[2].answered_at,
            Some(Duration::from_secs(60))
        );
    }

    #[test]
    fn missing_problem_is_a_mismatch() {
        let err = ExamSession::start(
            &exam(),
            problems()[..2].to_vec(),
            "s".parse().unwrap(),
            DeliveryOptions::default(),
        )
        .unwrap_err();
        assert!(matches!(err, DeliveryError::ProblemSetMismatch { .. }));
    }

    #[test]
    fn time_limit_enforced() {
        let mut session = start();
        session
            .answer(Answer::Choice(OptionKey::B), Duration::from_secs(590))
            .unwrap();
        let err = session
            .answer(Answer::TrueFalse(true), Duration::from_secs(30))
            .unwrap_err();
        assert_eq!(err, DeliveryError::TimeExpired);
        assert_eq!(session.remaining_time(), Some(Duration::ZERO));
        // Can still finish; unanswered become skipped.
        let record = session.finish().unwrap();
        assert_eq!(record.correct_count(), 1);
        assert_eq!(record.attempted_count(), 1);
    }

    #[test]
    fn skip_and_unanswered_are_recorded_as_skipped() {
        let mut session = start();
        session.skip(Duration::from_secs(5)).unwrap();
        session
            .answer(Answer::TrueFalse(true), Duration::from_secs(5))
            .unwrap();
        let record = session.finish().unwrap();
        assert!(matches!(record.responses[0].answer, Answer::Skipped));
        assert!(matches!(record.responses[2].answer, Answer::Skipped));
        assert_eq!(record.responses[2].answered_at, None);
    }

    #[test]
    fn wrong_answer_kind_is_rejected_and_not_recorded() {
        let mut session = start();
        let err = session
            .answer(Answer::TrueFalse(true), Duration::from_secs(5))
            .unwrap_err();
        assert!(matches!(err, DeliveryError::Grading(_)));
        assert_eq!(session.answered_count(), 0);
        assert_eq!(session.current().unwrap().id().as_str(), "q1");
    }

    #[test]
    fn seek_allows_revision_and_replaces_answer() {
        let mut session = start();
        session
            .answer(Answer::Choice(OptionKey::A), Duration::from_secs(10))
            .unwrap();
        session.seek(0).unwrap();
        session
            .answer(Answer::Choice(OptionKey::B), Duration::from_secs(5))
            .unwrap();
        // Revisit recorded once, with the latest answer.
        assert_eq!(session.answered_count(), 1);
        session.seek(2).unwrap();
        assert!(session.seek(3).is_err());
        let record = {
            session
                .answer(Answer::TrueFalse(false), Duration::from_secs(1))
                .unwrap();
            session.finish().unwrap()
        };
        assert!(record.responses[0].is_correct);
        // Time accumulated across both visits.
        assert_eq!(record.total_time, Duration::from_secs(16));
    }

    #[test]
    fn time_accommodation_extends_the_limit() {
        // Exam limit 600 s; time-and-a-half gives 900 s.
        let mut session = ExamSession::start(
            &exam(),
            problems(),
            "s".parse().unwrap(),
            DeliveryOptions {
                seed: 0,
                resumable: true,
                time_accommodation: 1.5,
            },
        )
        .unwrap();
        assert_eq!(session.remaining_time(), Some(Duration::from_secs(900)));
        session
            .answer(Answer::Choice(OptionKey::B), Duration::from_secs(850))
            .unwrap();
        // Would have expired without the accommodation.
        assert_eq!(session.remaining_time(), Some(Duration::from_secs(50)));
        let err = session
            .answer(Answer::TrueFalse(true), Duration::from_secs(60))
            .unwrap_err();
        assert_eq!(err, DeliveryError::TimeExpired);
    }

    #[test]
    fn accommodation_survives_pause_and_resume() {
        let mut session = ExamSession::start(
            &exam(),
            problems(),
            "s".parse().unwrap(),
            DeliveryOptions {
                seed: 0,
                resumable: true,
                time_accommodation: 2.0,
            },
        )
        .unwrap();
        let checkpoint = session.pause().unwrap();
        let resumed = ExamSession::resume(&exam(), problems(), checkpoint).unwrap();
        assert_eq!(resumed.remaining_time(), Some(Duration::from_secs(1200)));
    }

    #[test]
    fn pause_and_resume_restores_everything() {
        let mut session = start();
        session
            .answer(Answer::Choice(OptionKey::B), Duration::from_secs(30))
            .unwrap();
        let checkpoint = session.pause().unwrap();
        assert_eq!(session.state(), SessionState::Paused);
        assert!(session
            .answer(Answer::TrueFalse(true), Duration::ZERO)
            .is_err());

        // Checkpoint survives serialization (suspend_data style).
        let json = serde_json::to_string(&checkpoint).unwrap();
        let restored: SessionCheckpoint = serde_json::from_str(&json).unwrap();

        let mut resumed = ExamSession::resume(&exam(), problems(), restored).unwrap();
        assert_eq!(resumed.elapsed(), Duration::from_secs(30));
        assert_eq!(resumed.answered_count(), 1);
        assert_eq!(resumed.current().unwrap().id().as_str(), "q2");
        resumed
            .answer(Answer::TrueFalse(true), Duration::from_secs(10))
            .unwrap();
        resumed
            .answer(Answer::TrueFalse(false), Duration::from_secs(10))
            .unwrap();
        let record = resumed.finish().unwrap();
        assert_eq!(record.correct_count(), 3);
    }

    #[test]
    fn nonsense_time_accommodation_is_rejected() {
        for bad in [0.0, -1.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 101.0] {
            let err = ExamSession::start(
                &exam(),
                problems(),
                "s".parse().unwrap(),
                DeliveryOptions {
                    seed: 0,
                    resumable: true,
                    time_accommodation: bad,
                },
            )
            .unwrap_err();
            assert!(
                matches!(err, DeliveryError::InvalidOptions { .. }),
                "accommodation {bad} should be invalid, got {err:?}"
            );
        }
    }

    #[test]
    fn reactivate_resumes_a_paused_session_in_place() {
        let mut session = start();
        session
            .answer(Answer::Choice(OptionKey::B), Duration::from_secs(30))
            .unwrap();
        session.pause().unwrap();
        assert_eq!(session.state(), SessionState::Paused);
        session.reactivate().unwrap();
        assert_eq!(session.state(), SessionState::Active);
        // Clock and answers survived.
        assert_eq!(session.elapsed(), Duration::from_secs(30));
        assert_eq!(session.answered_count(), 1);
        session
            .answer(Answer::TrueFalse(true), Duration::from_secs(10))
            .unwrap();
        // Reactivating an active or finished session is a state error.
        assert!(matches!(
            session.reactivate(),
            Err(DeliveryError::WrongState { .. })
        ));
        session
            .answer(Answer::TrueFalse(false), Duration::ZERO)
            .unwrap();
        session.finish().unwrap();
        assert!(matches!(
            session.reactivate(),
            Err(DeliveryError::WrongState { .. })
        ));
    }

    #[test]
    fn image_round_trip_rebuilds_the_session_byte_identically() {
        let mut session = start();
        session
            .answer(Answer::Choice(OptionKey::B), Duration::from_secs(30))
            .unwrap();
        let image = session.image();
        // The image survives serialization (the durability layer stores
        // it as JSON inside snapshots).
        let json = serde_json::to_string(&image).unwrap();
        let restored: SessionImage = serde_json::from_str(&json).unwrap();
        assert_eq!(restored, image);
        let mut rebuilt = ExamSession::from_image(restored).unwrap();
        assert_eq!(rebuilt.id(), session.id());
        assert_eq!(rebuilt.elapsed(), session.elapsed());
        assert_eq!(rebuilt.answered_count(), 1);
        // Both copies finish to the identical graded record.
        let a = session.finish().unwrap();
        let b = rebuilt.finish().unwrap();
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn from_image_rejects_inconsistent_images() {
        let session = start();
        let mut image = session.image();
        image.cursor = 99;
        assert!(matches!(
            ExamSession::from_image(image),
            Err(DeliveryError::CheckpointMismatch { .. })
        ));
        let mut image = session.image();
        image.problems.clear();
        assert!(matches!(
            ExamSession::from_image(image),
            Err(DeliveryError::CheckpointMismatch { .. })
        ));
    }

    #[test]
    fn accessors_expose_exam_and_options() {
        let session = start();
        assert_eq!(session.exam_id().as_str(), "quiz");
        assert_eq!(session.options(), &DeliveryOptions::default());
    }

    #[test]
    fn non_resumable_sessions_cannot_pause() {
        let mut session = ExamSession::start(
            &exam(),
            problems(),
            "s".parse().unwrap(),
            DeliveryOptions {
                seed: 0,
                resumable: false,
                time_accommodation: 1.0,
            },
        )
        .unwrap();
        assert_eq!(session.pause().unwrap_err(), DeliveryError::NotResumable);
        assert_eq!(session.state(), SessionState::Active);
    }

    #[test]
    fn resume_rejects_foreign_checkpoints() {
        let mut session = start();
        let mut checkpoint = session.pause().unwrap();
        checkpoint.exam = "other-exam".parse().unwrap();
        let err = ExamSession::resume(&exam(), problems(), checkpoint).unwrap_err();
        assert!(matches!(err, DeliveryError::CheckpointMismatch { .. }));
    }

    #[test]
    fn double_finish_is_an_error() {
        let mut session = start();
        session.finish().unwrap();
        assert!(session.finish().is_err());
    }

    #[test]
    fn answering_past_the_end_is_out_of_bounds() {
        let mut session = start();
        for _ in 0..3 {
            session.skip(Duration::from_secs(1)).unwrap();
        }
        assert_eq!(
            session
                .answer(Answer::TrueFalse(true), Duration::from_secs(1))
                .unwrap_err(),
            DeliveryError::OutOfBounds
        );
    }
}
