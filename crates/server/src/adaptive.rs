//! Served computerized adaptive testing (CAT) sittings.
//!
//! A fixed-form sitting walks a predetermined problem order; an
//! adaptive sitting serves **one item at a time**, re-estimating the
//! student's ability after every answer and picking the next item by
//! maximum Fisher information at the current estimate. The server keeps
//! these sittings in a second instance of the same generic
//! [`Registry`](crate::registry::Registry) that holds fixed-form
//! sessions, and mutates both kinds through the one event-apply path
//! (`ServerState::apply`): every
//! step is journaled WAL-first, the sitting is captured into snapshots,
//! and crash recovery / replication replay the steps through this
//! module's own `answer` path, so a rebuilt sitting reports a
//! byte-identical ability estimate and — the estimator and the
//! tie-break rule being deterministic — the identical next item. A
//! finished sitting leaves no trace in the registry, exactly like a
//! fixed-form one.
//!
//! The journaled state "delta" is deliberately the *input* (the graded
//! answer), not the *output* (the posterior): replaying inputs through
//! the deterministic estimator reproduces every float bit-for-bit and
//! keeps the events small and schema-stable.

use std::collections::BTreeMap;
use std::time::Duration;

use serde::{Deserialize, Serialize};

use mine_adaptive::{
    AbilityEstimate, AdaptiveOptions, AdaptiveTest, InvalidAdaptiveOptions, ItemPool,
};
use mine_core::{Answer, ExamId, ItemResponse, ProblemId, StudentId, StudentRecord};
use mine_itembank::Problem;
use mine_simulator::ItemParams;

/// Why an adaptive sitting could not start.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptiveStartError {
    /// A stop-rule parameter was rejected (maps to HTTP 422).
    InvalidOptions(InvalidAdaptiveOptions),
    /// An exam problem has no usable 3PL calibration (maps to 422).
    Uncalibrated {
        /// The uncalibrated problem.
        problem: String,
    },
}

impl std::fmt::Display for AdaptiveStartError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveStartError::InvalidOptions(inner) => inner.fmt(f),
            AdaptiveStartError::Uncalibrated { problem } => write!(
                f,
                "invalid adaptive option item_bank: problem {problem:?} has no usable 3PL \
                 calibration; calibrate it before serving the exam adaptively"
            ),
        }
    }
}

impl std::error::Error for AdaptiveStartError {}

/// Why an adaptive answer was rejected.
#[derive(Debug, Clone, PartialEq)]
pub enum AdaptiveAnswerError {
    /// The stop rule already fired; the sitting only accepts `finish`.
    Complete,
    /// The answer could not be graded against the current item.
    Grading(String),
}

impl std::fmt::Display for AdaptiveAnswerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdaptiveAnswerError::Complete => f.write_str(
                "the stop rule has fired; the sitting only accepts POST /sessions/{id}/finish",
            ),
            AdaptiveAnswerError::Grading(message) => f.write_str(message),
        }
    }
}

impl std::error::Error for AdaptiveAnswerError {}

/// One step of an adaptive sitting, exactly as journaled: the submitted
/// answer and the time it took. Grading and re-estimation are *derived*
/// by replaying the step, never stored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveStep {
    /// The item the answer was for.
    pub problem: ProblemId,
    /// The submitted answer.
    pub answer: Answer,
    /// Reported time on the item.
    pub time_spent: Duration,
}

/// Serializable image of an adaptive sitting, self-contained like
/// `SessionImage`: the embedded problems carry their calibrations, so a
/// snapshot restores without consulting the repository.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveImage {
    /// Exam the sitting draws from.
    pub exam: ExamId,
    /// The student sitting it.
    pub student: StudentId,
    /// Stop-rule parameters.
    pub options: AdaptiveOptions,
    /// The full exam problem set in exam order.
    pub problems: Vec<Problem>,
    /// Every administered step in order.
    pub steps: Vec<AdaptiveStep>,
}

impl AdaptiveImage {
    /// Rebuilds the live sitting by replaying the steps through the
    /// same `answer` path the live server used.
    ///
    /// # Errors
    ///
    /// Returns a description when the image is internally inconsistent
    /// (it validated when captured, so this indicates corruption).
    pub fn restore(self) -> Result<AdaptiveSitting, String> {
        let mut sitting =
            AdaptiveSitting::start(self.exam, self.problems, self.student, self.options)
                .map_err(|e| format!("adaptive image failed validation: {e}"))?;
        for step in self.steps {
            let expected = step.problem.clone();
            let current = sitting.current().map(|(id, _)| id);
            if current.as_ref() != Some(&expected) {
                return Err(format!(
                    "adaptive image step expected item {expected} but replay selected {current:?}"
                ));
            }
            sitting
                .answer(step.answer, step.time_spent)
                .map_err(|e| format!("adaptive image step failed to replay: {e}"))?;
        }
        Ok(sitting)
    }
}

/// A live adaptive sitting: the deterministic driver plus the journaled
/// step log and the full exam problem set (for grading and for padding
/// the finished record).
#[derive(Debug, Clone)]
pub struct AdaptiveSitting {
    id: String,
    exam: ExamId,
    student: StudentId,
    options: AdaptiveOptions,
    problems: Vec<Problem>,
    by_id: BTreeMap<ProblemId, usize>,
    test: AdaptiveTest,
    steps: Vec<AdaptiveStep>,
    elapsed: Duration,
}

impl AdaptiveSitting {
    /// Starts a sitting over the exam's problems.
    ///
    /// # Errors
    ///
    /// [`AdaptiveStartError::Uncalibrated`] when any problem lacks a
    /// usable 3PL calibration, [`AdaptiveStartError::InvalidOptions`]
    /// when the stop-rule parameters fail validation against the bank.
    pub fn start(
        exam: ExamId,
        problems: Vec<Problem>,
        student: StudentId,
        options: AdaptiveOptions,
    ) -> Result<Self, AdaptiveStartError> {
        let mut pool = ItemPool::new();
        for problem in &problems {
            let calibration = problem
                .calibration()
                .filter(mine_itembank::Calibration::is_usable)
                .ok_or_else(|| AdaptiveStartError::Uncalibrated {
                    problem: problem.id().to_string(),
                })?;
            pool.add(
                problem.id().clone(),
                ItemParams::new(
                    calibration.discrimination,
                    calibration.difficulty,
                    calibration.guessing,
                ),
            );
        }
        options
            .validate(pool.len())
            .map_err(AdaptiveStartError::InvalidOptions)?;
        let by_id = problems
            .iter()
            .enumerate()
            .map(|(index, problem)| (problem.id().clone(), index))
            .collect();
        let id = Self::session_id(&exam, &student, options.seed);
        Ok(Self {
            id,
            exam,
            student,
            options,
            problems,
            by_id,
            test: AdaptiveTest::new(pool, options.stop_rule()),
            steps: Vec::new(),
            elapsed: Duration::ZERO,
        })
    }

    /// The deterministic session identifier. The `~` separator keeps
    /// adaptive ids disjoint from fixed-form `{exam}#{student}@{seed}`.
    #[must_use]
    pub fn session_id(exam: &ExamId, student: &StudentId, seed: u64) -> String {
        format!("{exam}~{student}@{seed}")
    }

    /// The session identifier.
    #[must_use]
    pub fn id(&self) -> &str {
        &self.id
    }

    /// The exam identifier.
    #[must_use]
    pub fn exam(&self) -> &ExamId {
        &self.exam
    }

    /// The student.
    #[must_use]
    pub fn student(&self) -> &StudentId {
        &self.student
    }

    /// Stop-rule parameters.
    #[must_use]
    pub fn options(&self) -> AdaptiveOptions {
        self.options
    }

    /// The current ability estimate.
    #[must_use]
    pub fn estimate(&self) -> AbilityEstimate {
        self.test.estimate()
    }

    /// Number of administered items.
    #[must_use]
    pub fn step_count(&self) -> usize {
        self.steps.len()
    }

    /// Total reported time across steps.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Whether the stop rule has fired.
    #[must_use]
    pub fn is_done(&self) -> bool {
        self.test.is_done()
    }

    /// The pending item (selected by maximum Fisher information at the
    /// current estimate), or `None` once the stop rule fires.
    /// Idempotent until the item is answered.
    pub fn current(&mut self) -> Option<(ProblemId, ItemParams)> {
        self.test.next_item()
    }

    /// The pending item's full problem, for presentation.
    pub fn current_problem(&mut self) -> Option<&Problem> {
        let (id, _) = self.test.next_item()?;
        self.by_id.get(&id).map(|&index| &self.problems[index])
    }

    /// Grades `answer` against the pending item, records the outcome,
    /// re-estimates ability, and advances the sitting. This is the
    /// single mutation path: live traffic, WAL replay, and snapshot
    /// restore all go through here, which is what makes the journaled
    /// estimator invariant hold bit-for-bit.
    ///
    /// # Errors
    ///
    /// [`AdaptiveAnswerError::Complete`] once the stop rule has fired,
    /// [`AdaptiveAnswerError::Grading`] when the item rejects the
    /// answer shape.
    pub fn answer(
        &mut self,
        answer: Answer,
        time_spent: Duration,
    ) -> Result<(), AdaptiveAnswerError> {
        let Some((item, _)) = self.test.next_item() else {
            return Err(AdaptiveAnswerError::Complete);
        };
        let index = self.by_id[&item];
        let grade = self.problems[index]
            .grade(&answer)
            .map_err(|e| AdaptiveAnswerError::Grading(e.to_string()))?;
        self.test
            .record(item.clone(), grade.is_correct)
            .expect("next_item is pending");
        self.steps.push(AdaptiveStep {
            problem: item,
            answer,
            time_spent,
        });
        self.elapsed += time_spent;
        Ok(())
    }

    /// Produces the graded [`StudentRecord`] covering the **full** exam
    /// problem set: administered items keep their graded answers,
    /// everything else is recorded as skipped — the same shape
    /// `ExamSession::finish` produces, so mixed adaptive/fixed
    /// populations share one `ExamRecord` and stream identically.
    ///
    /// # Errors
    ///
    /// Returns a description when grading fails (cannot happen for
    /// answers that were accepted by [`AdaptiveSitting::answer`]).
    pub fn finish(&self) -> Result<StudentRecord, String> {
        let mut administered: BTreeMap<&ProblemId, (&Answer, Duration, Duration)> = BTreeMap::new();
        let mut at = Duration::ZERO;
        for step in &self.steps {
            at += step.time_spent;
            administered.insert(&step.problem, (&step.answer, step.time_spent, at));
        }
        let mut responses = Vec::with_capacity(self.problems.len());
        for problem in &self.problems {
            let (answer, time_spent, answered_at) = match administered.get(problem.id()) {
                Some(&(answer, time_spent, at)) => (answer.clone(), time_spent, Some(at)),
                None => (Answer::Skipped, Duration::ZERO, None),
            };
            let grade = problem
                .grade(&answer)
                .map_err(|e| format!("grading {} at finish: {e}", problem.id()))?;
            responses.push(ItemResponse {
                problem: problem.id().clone(),
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

    /// Captures the sitting into a self-contained snapshot image.
    #[must_use]
    pub fn image(&self) -> AdaptiveImage {
        AdaptiveImage {
            exam: self.exam.clone(),
            student: self.student.clone(),
            options: self.options,
            problems: self.problems.clone(),
            steps: self.steps.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_core::OptionKey;
    use mine_itembank::{Calibration, ChoiceOption, Exam, Problem, Repository};

    fn calibrated_repo(n: usize) -> Repository {
        let repo = Repository::new();
        let mut builder = Exam::builder("cat").unwrap();
        for i in 0..n {
            let id = format!("a{i:02}");
            let problem = Problem::multiple_choice(
                id.as_str(),
                format!("Question {i}"),
                [
                    ChoiceOption::new(OptionKey::A, "yes"),
                    ChoiceOption::new(OptionKey::B, "no"),
                ],
                OptionKey::A,
            )
            .unwrap()
            .with_calibration(Calibration::new(
                1.2,
                (i as f64 / n as f64) * 4.0 - 2.0,
                0.1,
            ));
            repo.insert_problem(problem).unwrap();
            builder = builder.entry(id.parse().unwrap());
        }
        repo.insert_exam(builder.build().unwrap()).unwrap();
        repo
    }

    fn start(n: usize, options: AdaptiveOptions) -> AdaptiveSitting {
        let repo = calibrated_repo(n);
        let (exam, problems) = repo.resolve_exam(&"cat".parse().unwrap()).unwrap();
        AdaptiveSitting::start(exam.id().clone(), problems, "s1".parse().unwrap(), options).unwrap()
    }

    #[test]
    fn uncalibrated_bank_is_rejected_naming_the_problem() {
        let repo = calibrated_repo(4);
        repo.update_problem(&"a02".parse().unwrap(), |p| {
            p.set_calibration(None);
            Ok(())
        })
        .unwrap();
        let (exam, problems) = repo.resolve_exam(&"cat".parse().unwrap()).unwrap();
        let err = AdaptiveSitting::start(
            exam.id().clone(),
            problems,
            "s1".parse().unwrap(),
            AdaptiveOptions::for_bank(4),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            AdaptiveStartError::Uncalibrated { ref problem } if problem == "a02"
        ));
    }

    #[test]
    fn sitting_runs_to_the_stop_rule_and_pads_the_record() {
        let mut sitting = start(
            8,
            AdaptiveOptions {
                seed: 1,
                min_items: 2,
                max_items: 3,
                se_threshold: 0.05,
            },
        );
        let mut seen = Vec::new();
        while let Some((item, _)) = sitting.current() {
            seen.push(item.clone());
            sitting
                .answer(Answer::Choice(OptionKey::A), Duration::from_secs(7))
                .unwrap();
        }
        assert_eq!(seen.len(), 3, "max_items governs");
        assert!(sitting.is_done());
        assert_eq!(
            sitting.answer(Answer::Choice(OptionKey::A), Duration::ZERO),
            Err(AdaptiveAnswerError::Complete)
        );
        let record = sitting.finish().unwrap();
        assert_eq!(record.responses.len(), 8, "full exam problem set");
        let attempted = record
            .responses
            .iter()
            .filter(|r| r.answer.is_attempted())
            .count();
        assert_eq!(attempted, 3);
        assert_eq!(record.total_time, Duration::from_secs(21));
    }

    #[test]
    fn image_restore_replays_to_identical_state() {
        let mut sitting = start(10, AdaptiveOptions::for_bank(10));
        for flag in [true, false, true] {
            let answer = if flag {
                Answer::Choice(OptionKey::A)
            } else {
                Answer::Choice(OptionKey::B)
            };
            sitting.answer(answer, Duration::from_secs(5)).unwrap();
        }
        let mut restored = sitting.image().restore().unwrap();
        assert_eq!(restored.estimate(), sitting.estimate());
        assert_eq!(restored.step_count(), sitting.step_count());
        assert_eq!(restored.current(), sitting.current());
        assert_eq!(
            serde_json::to_string(&restored.finish().unwrap()).unwrap(),
            serde_json::to_string(&sitting.finish().unwrap()).unwrap()
        );
    }
}
