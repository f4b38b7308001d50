//! The simulation orchestrator: cohorts sit real delivery sessions.

use std::collections::BTreeMap;
use std::error::Error as StdError;
use std::fmt;

use rand::Rng;
use rand::SeedableRng;
use rayon::prelude::*;

use mine_core::{Answer, ExamRecord, OptionKey, ProblemId};
use mine_delivery::{DeliveryError, DeliveryOptions, ExamSession, MonitorHub, SnapshotPolicy};
use mine_itembank::{Exam, Problem, ProblemBody};

use crate::cohort::{CohortSpec, SimStudent};
use crate::irt::ItemParams;
use crate::respond::{generate_answer, DistractorWeights, PacingModel};

/// Errors raised while running a simulation.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimulationError {
    /// The underlying delivery session failed.
    Delivery(DeliveryError),
    /// No students were configured.
    EmptyCohort,
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::Delivery(err) => write!(f, "delivery failed: {err}"),
            SimulationError::EmptyCohort => write!(f, "simulation has no students"),
        }
    }
}

impl StdError for SimulationError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SimulationError::Delivery(err) => Some(err),
            SimulationError::EmptyCohort => None,
        }
    }
}

impl From<DeliveryError> for SimulationError {
    fn from(err: DeliveryError) -> Self {
        SimulationError::Delivery(err)
    }
}

/// A configurable classroom simulation (consuming builder).
#[derive(Debug, Clone)]
pub struct Simulation {
    exam: Exam,
    problems: Vec<Problem>,
    students: Vec<SimStudent>,
    item_params: BTreeMap<ProblemId, ItemParams>,
    distractors: BTreeMap<ProblemId, DistractorWeights>,
    /// Ambiguous wording: with the given probability a student who
    /// *knows* the answer still picks this option (miskeyed or unclear
    /// questions — the Rule 2 pathology).
    ambiguity: BTreeMap<ProblemId, (OptionKey, f64)>,
    pacing: PacingModel,
    skip_rate: f64,
    seed: u64,
}

impl Simulation {
    /// Creates a simulation of one exam; add students with
    /// [`Simulation::cohort`] or [`Simulation::students`].
    #[must_use]
    pub fn new(exam: Exam, problems: Vec<Problem>) -> Self {
        Self {
            exam,
            problems,
            students: Vec::new(),
            item_params: BTreeMap::new(),
            distractors: BTreeMap::new(),
            ambiguity: BTreeMap::new(),
            pacing: PacingModel::default(),
            skip_rate: 0.0,
            seed: 0,
        }
    }

    /// Generates students from a cohort spec.
    #[must_use]
    pub fn cohort(mut self, spec: CohortSpec) -> Self {
        self.students = spec.generate();
        self.seed = spec.seed;
        self
    }

    /// Uses an explicit student list.
    #[must_use]
    pub fn students(mut self, students: Vec<SimStudent>) -> Self {
        self.students = students;
        self
    }

    /// Overrides the IRT parameters of one item.
    #[must_use]
    pub fn item_params(mut self, problem: ProblemId, params: ItemParams) -> Self {
        self.item_params.insert(problem, params);
        self
    }

    /// Overrides the distractor weights of one choice item.
    #[must_use]
    pub fn distractors(mut self, problem: ProblemId, weights: DistractorWeights) -> Self {
        self.distractors.insert(problem, weights);
        self
    }

    /// Marks a choice problem as ambiguously worded: with probability
    /// `rate`, a student who knows the material picks `lure` instead of
    /// the correct option. This manufactures the §4.1.2 Rule 2
    /// pathology ("the option meaning is not clear") in simulation.
    #[must_use]
    pub fn ambiguous(mut self, problem: ProblemId, lure: OptionKey, rate: f64) -> Self {
        self.ambiguity.insert(problem, (lure, rate.clamp(0.0, 1.0)));
        self
    }

    /// Sets the pacing model.
    #[must_use]
    pub fn pacing(mut self, pacing: PacingModel) -> Self {
        self.pacing = pacing;
        self
    }

    /// Probability a student skips any given question.
    #[must_use]
    pub fn skip_rate(mut self, rate: f64) -> Self {
        self.skip_rate = rate.clamp(0.0, 1.0);
        self
    }

    /// Sets the RNG seed (also used for per-student shuffles).
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Default IRT parameters for a problem without an override: the
    /// metadata Item Difficulty Index (when present) fixes `b` via the
    /// logistic inverse at the population mean, and the guessing floor
    /// follows the style.
    fn default_params(problem: &Problem) -> ItemParams {
        let guessing = match problem.body() {
            ProblemBody::MultipleChoice { options, .. } => 1.0 / options.len().max(1) as f64,
            ProblemBody::TrueFalse { .. } => 0.5,
            _ => 0.0,
        };
        let b = problem
            .metadata()
            .individual_test
            .as_ref()
            .and_then(|t| t.difficulty)
            .map(|p| {
                // Invert P = c + (1-c) σ(-b) at θ = 0 → b = ln((1-p̃)/p̃)
                // with p̃ the de-guessed probability.
                let p = p.value().clamp(0.02, 0.98);
                let de_guessed = ((p - guessing) / (1.0 - guessing)).clamp(0.02, 0.98);
                ((1.0 - de_guessed) / de_guessed).ln()
            })
            .unwrap_or(0.0);
        ItemParams::new(1.0, b, guessing)
    }

    /// Precomputes the per-problem IRT parameters and lookup table every
    /// student sitting shares.
    fn tables(
        &self,
    ) -> (
        BTreeMap<ProblemId, ItemParams>,
        BTreeMap<ProblemId, &Problem>,
    ) {
        let params = self
            .problems
            .iter()
            .map(|p| {
                let id = p.id().clone();
                let params = self
                    .item_params
                    .get(&id)
                    .copied()
                    .unwrap_or_else(|| Self::default_params(p));
                (id, params)
            })
            .collect();
        let by_id = self.problems.iter().map(|p| (p.id().clone(), p)).collect();
        (params, by_id)
    }

    /// Sits one student through the exam. All randomness derives from
    /// the student's `index` (never from shared state), so sittings are
    /// independent and can run in any order — or concurrently — and
    /// still produce identical records.
    fn simulate_student(
        &self,
        index: usize,
        student: &SimStudent,
        params: &BTreeMap<ProblemId, ItemParams>,
        by_id: &BTreeMap<ProblemId, &Problem>,
        hub: Option<&MonitorHub>,
    ) -> Result<mine_core::StudentRecord, SimulationError> {
        let mut rng = rand::rngs::StdRng::seed_from_u64(
            self.seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15),
        );
        let mut session = ExamSession::start(
            &self.exam,
            self.problems.clone(),
            student.id.clone(),
            DeliveryOptions {
                seed: self.seed.wrapping_add(index as u64),
                resumable: true,
                time_accommodation: 1.0,
            },
        )?;
        let mut monitor = hub.map(|h| {
            h.monitor(
                session.id().clone(),
                student.id.clone(),
                SnapshotPolicy::default(),
            )
        });
        let order: Vec<ProblemId> = session.order().to_vec();
        for problem_id in &order {
            let problem = by_id[problem_id];
            let time = self.pacing.sample(&mut rng, student.pace);
            if self.skip_rate > 0.0 && rng.gen_bool(self.skip_rate) {
                match session.skip(time) {
                    Ok(()) | Err(DeliveryError::TimeExpired) => {}
                    Err(err) => return Err(err.into()),
                }
                continue;
            }
            let p_know = params[problem_id].p_correct(student.ability);
            let p_effective = p_know * (1.0 - student.slip);
            let is_correct = rng.gen_bool(p_effective.clamp(0.0, 1.0));
            let mut answer = generate_answer(
                &mut rng,
                problem,
                is_correct,
                self.distractors.get(problem_id),
            );
            // Ambiguous wording lures even knowing students away.
            if let Some(&(lure, rate)) = self.ambiguity.get(problem_id) {
                if is_correct && rate > 0.0 && rng.gen_bool(rate) {
                    if let Answer::Choice(_) = answer {
                        answer = Answer::Choice(lure);
                    }
                }
            }
            match session.answer(answer, time) {
                Ok(()) => {
                    if let Some(monitor) = monitor.as_mut() {
                        monitor.on_answer(session.elapsed());
                    }
                }
                // Out of time: remaining questions stay unanswered.
                Err(DeliveryError::TimeExpired) => break,
                Err(err) => return Err(err.into()),
            }
        }
        let record = session.finish()?;
        if let Some(monitor) = monitor.as_ref() {
            monitor.on_finish(record.attempted_count(), record.total_time);
        }
        Ok(record)
    }

    fn run_inner(&self, hub: Option<&MonitorHub>) -> Result<ExamRecord, SimulationError> {
        if self.students.is_empty() {
            return Err(SimulationError::EmptyCohort);
        }
        let (params, by_id) = self.tables();
        let mut records = Vec::with_capacity(self.students.len());
        for (index, student) in self.students.iter().enumerate() {
            records.push(self.simulate_student(index, student, &params, &by_id, hub)?);
        }
        Ok(ExamRecord::new(self.exam.id().clone(), records))
    }

    /// Runs the simulation, producing the class's [`ExamRecord`].
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::EmptyCohort`] without students, or a
    /// wrapped delivery error.
    pub fn run(&self) -> Result<ExamRecord, SimulationError> {
        self.run_inner(None)
    }

    /// Runs the simulation with students sitting concurrently.
    ///
    /// Each student's randomness is derived from their cohort index, so
    /// the record is identical to [`Simulation::run`]'s — only
    /// wall-clock time changes. `threads` of `0` auto-detects.
    /// Monitoring is not available on this path; use
    /// [`Simulation::run_monitored`] when proctor events matter.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_parallel(&self, threads: usize) -> Result<ExamRecord, SimulationError> {
        if self.students.is_empty() {
            return Err(SimulationError::EmptyCohort);
        }
        let (params, by_id) = self.tables();
        let tasks: Vec<(usize, &SimStudent)> = self.students.iter().enumerate().collect();
        let pool = rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build()
            .expect("thread pool");
        let records = pool
            .install(|| {
                tasks
                    .par_iter()
                    .map(|&(index, student)| {
                        self.simulate_student(index, student, &params, &by_id, None)
                    })
                    .collect::<Vec<Result<mine_core::StudentRecord, SimulationError>>>()
            })
            .into_iter()
            .collect::<Result<Vec<_>, _>>()?;
        Ok(ExamRecord::new(self.exam.id().clone(), records))
    }

    /// Runs with every session attached to a [`MonitorHub`] so proctor
    /// events (snapshots, finishes) are observable.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_monitored(&self, hub: &MonitorHub) -> Result<ExamRecord, SimulationError> {
        self.run_inner(Some(hub))
    }

    /// Runs the pre-instruction and post-instruction sittings used for
    /// the Instructional Sensitivity Index (§3.4-III): the same cohort
    /// sits the exam before teaching and again after its abilities rose
    /// by `gain`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`Simulation::run`].
    pub fn run_pre_post(
        &self,
        spec: CohortSpec,
        gain: f64,
    ) -> Result<(ExamRecord, ExamRecord), SimulationError> {
        let mut pre_sim = self.clone();
        pre_sim.students = spec.generate();
        let mut post_sim = self.clone();
        post_sim.students = spec.generate_instructed(gain);
        // Different response noise between the sittings.
        post_sim.seed = self.seed.wrapping_add(0x5eed);
        Ok((pre_sim.run()?, post_sim.run()?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_core::OptionKey;
    use mine_delivery::MonitorEvent;
    use mine_itembank::ChoiceOption;

    fn problems() -> Vec<Problem> {
        (0..6)
            .map(|i| {
                Problem::multiple_choice(
                    format!("q{i}"),
                    format!("Question {i}"),
                    OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("{k}"))),
                    OptionKey::A,
                )
                .unwrap()
            })
            .collect()
    }

    fn exam() -> Exam {
        let mut builder = Exam::builder("sim-exam").unwrap().title("Sim");
        for i in 0..6 {
            builder = builder.entry(format!("q{i}").parse().unwrap());
        }
        builder.build().unwrap()
    }

    fn base() -> Simulation {
        Simulation::new(exam(), problems()).cohort(CohortSpec::new(44).seed(7))
    }

    #[test]
    fn runs_are_deterministic_per_seed() {
        let a = base().run().unwrap();
        let b = base().run().unwrap();
        assert_eq!(a, b);
        let c = base().seed(8).run().unwrap();
        assert_ne!(a, c);
    }

    #[test]
    fn parallel_run_matches_sequential_exactly() {
        let sequential = base().run().unwrap();
        for threads in [0usize, 1, 2, 4] {
            let parallel = base().run_parallel(threads).unwrap();
            assert_eq!(parallel, sequential, "threads={threads}");
        }
    }

    #[test]
    fn record_is_consistent_and_covers_cohort() {
        let record = base().run().unwrap();
        assert_eq!(record.class_size(), 44);
        record.validate().unwrap();
        assert_eq!(record.problems().len(), 6);
    }

    #[test]
    fn empty_cohort_is_an_error() {
        let err = Simulation::new(exam(), problems()).run().unwrap_err();
        assert_eq!(err, SimulationError::EmptyCohort);
    }

    #[test]
    fn stronger_cohorts_score_higher() {
        let weak = base()
            .students(CohortSpec::new(60).ability(-1.0, 0.3).seed(1).generate())
            .run()
            .unwrap();
        let strong = base()
            .students(CohortSpec::new(60).ability(1.5, 0.3).seed(1).generate())
            .run()
            .unwrap();
        let mean = |r: &ExamRecord| {
            r.students.iter().map(|s| s.score()).sum::<f64>() / r.class_size() as f64
        };
        assert!(
            mean(&strong) > mean(&weak) + 0.5,
            "strong {} vs weak {}",
            mean(&strong),
            mean(&weak)
        );
    }

    #[test]
    fn harder_items_are_missed_more() {
        let easy_exam = base()
            .item_params(
                "q0".parse().unwrap(),
                ItemParams::multiple_choice(1.2, -2.0, 4),
            )
            .item_params(
                "q1".parse().unwrap(),
                ItemParams::multiple_choice(1.2, 2.0, 4),
            )
            .students(CohortSpec::new(300).seed(3).generate())
            .run()
            .unwrap();
        let rate = |pid: &str| {
            let id: ProblemId = pid.parse().unwrap();
            easy_exam
                .students
                .iter()
                .filter(|s| s.response_to(&id).is_some_and(|r| r.is_correct))
                .count() as f64
                / easy_exam.class_size() as f64
        };
        assert!(
            rate("q0") > rate("q1") + 0.2,
            "{} vs {}",
            rate("q0"),
            rate("q1")
        );
    }

    #[test]
    fn skip_rate_produces_skips() {
        let record = base().skip_rate(0.5).run().unwrap();
        let skipped: usize = record
            .students
            .iter()
            .map(|s| s.responses.len() - s.attempted_count())
            .sum();
        assert!(skipped > 0);
    }

    #[test]
    fn time_limit_truncates_slow_students() {
        let mut exam = exam();
        exam.meta_mut().test_time = Some(std::time::Duration::from_secs(60));
        let record = Simulation::new(exam, problems())
            .cohort(CohortSpec::new(30).seed(2))
            .run()
            .unwrap();
        // With 45s/question and a 60s limit, nobody finishes all 6.
        assert!(record.students.iter().all(|s| s.attempted_count() < 6));
        // But records still cover all problems (as skips).
        record.validate().unwrap();
    }

    #[test]
    fn monitored_run_emits_events() {
        let hub = MonitorHub::new();
        let record = base()
            .students(CohortSpec::new(5).seed(4).generate())
            .run_monitored(&hub)
            .unwrap();
        assert_eq!(record.class_size(), 5);
        let events = hub.drain();
        let starts = events
            .iter()
            .filter(|e| matches!(e, MonitorEvent::SessionStarted { .. }))
            .count();
        let finishes = events
            .iter()
            .filter(|e| matches!(e, MonitorEvent::SessionFinished { .. }))
            .count();
        let snapshots = events
            .iter()
            .filter(|e| matches!(e, MonitorEvent::Snapshot { .. }))
            .count();
        assert_eq!(starts, 5);
        assert_eq!(finishes, 5);
        assert!(snapshots > 0, "default policy captures every 3 answers");
    }

    #[test]
    fn pre_post_shows_instruction_gain() {
        let (pre, post) = base()
            .run_pre_post(CohortSpec::new(80).seed(11), 1.2)
            .unwrap();
        let mean = |r: &ExamRecord| {
            r.students.iter().map(|s| s.score()).sum::<f64>() / r.class_size() as f64
        };
        assert!(
            mean(&post) > mean(&pre),
            "post {} should beat pre {}",
            mean(&post),
            mean(&pre)
        );
    }

    #[test]
    fn ambiguous_items_lure_knowing_students() {
        // q0 is easy (everyone knows it) but half the knowers are lured
        // to option C. The wrong answers should pile up on C, and even
        // strong students get it wrong — the Rule 2 signature.
        let record = base()
            .students(CohortSpec::new(300).ability(2.0, 0.2).seed(6).generate())
            .item_params(
                "q0".parse().unwrap(),
                ItemParams::multiple_choice(1.5, -3.0, 4),
            )
            .ambiguous("q0".parse().unwrap(), OptionKey::C, 0.5)
            .run()
            .unwrap();
        let q0: ProblemId = "q0".parse().unwrap();
        let mut c_count = 0usize;
        let mut wrong = 0usize;
        for student in &record.students {
            let response = student.response_to(&q0).unwrap();
            if !response.is_correct {
                wrong += 1;
                if response.answer.chosen_option() == Some(OptionKey::C) {
                    c_count += 1;
                }
            }
        }
        assert!(wrong > 100, "about half should be lured: {wrong}");
        // Nearly all wrong answers are the lure (strong cohort rarely
        // errs organically).
        assert!(
            c_count * 10 >= wrong * 9,
            "lure dominates wrong answers: {c_count}/{wrong}"
        );
    }

    #[test]
    fn ambiguity_triggers_rule_2_downstream() {
        // End-to-end: the lured item should be flagged by Rule 2 when
        // analyzed (wrong option C attracts the high group).
        // An easy item with a strong lure inside a LONG exam: the exam
        // must be long enough that being lured on this one item does not
        // knock a strong student out of the top quartile (otherwise the
        // lured-but-strong students vanish from the high group and the
        // signal inverts).
        let mut problems = problems();
        for i in 6..24 {
            problems.push(
                Problem::multiple_choice(
                    format!("q{i}"),
                    format!("Filler {i}"),
                    OptionKey::first(4).map(|k| ChoiceOption::new(k, format!("{k}"))),
                    OptionKey::A,
                )
                .unwrap(),
            );
        }
        // The probe item is piloted UNSCORED (points 0) — standard
        // psychometric practice — so group membership is independent of
        // it and the option-preference comparison is unconfounded.
        let mut builder = Exam::builder("long").unwrap();
        for i in 0..24 {
            let entry = mine_itembank::ExamEntry::new(format!("q{i}").parse().unwrap());
            builder = builder.entry_with(if i == 1 { entry.worth(0.0) } else { entry });
        }
        let record = Simulation::new(builder.build().unwrap(), problems)
            .students(CohortSpec::new(400).ability(0.0, 1.5).seed(9).generate())
            // b sits near the low group's ability so the knowledge gap
            // (and hence the lure-exposure gap) between groups is widest.
            .item_params(
                "q1".parse().unwrap(),
                ItemParams::multiple_choice(1.5, -1.5, 4),
            )
            .ambiguous("q1".parse().unwrap(), OptionKey::C, 0.7)
            .run()
            .unwrap();
        // Count high-vs-low preference for option C manually using the
        // top/bottom quartiles by score.
        let mut ranked: Vec<&mine_core::StudentRecord> =
            record.students.iter().map(std::sync::Arc::as_ref).collect();
        ranked.sort_by(|a, b| b.score().partial_cmp(&a.score()).unwrap());
        let q1: ProblemId = "q1".parse().unwrap();
        let count_c = |group: &[&mine_core::StudentRecord]| {
            group
                .iter()
                .filter(|s| {
                    s.response_to(&q1).and_then(|r| r.answer.chosen_option()) == Some(OptionKey::C)
                })
                .count()
        };
        let high_c = count_c(&ranked[..100]);
        let low_c = count_c(&ranked[300..]);
        assert!(
            high_c > low_c,
            "ambiguity lures the high group more: {high_c} vs {low_c}"
        );
    }

    #[test]
    fn difficulty_metadata_drives_default_params() {
        let mut hard = problems();
        {
            use mine_metadata::{DifficultyIndex, IndividualTestMeta};
            let test = hard[0]
                .metadata_mut()
                .individual_test
                .get_or_insert_with(IndividualTestMeta::default);
            test.difficulty = Some(DifficultyIndex::new(0.3).unwrap());
        }
        let params = Simulation::default_params(&hard[0]);
        assert!(
            params.b > 0.0,
            "P=0.3 is hard → positive b, got {}",
            params.b
        );
        let easy_params = Simulation::default_params(&problems()[0]);
        assert_eq!(easy_params.b, 0.0);
    }
}
