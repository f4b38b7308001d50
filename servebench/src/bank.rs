//! The seeded item bank and the simulated students who answer it.
//!
//! Following QG-SMS, traffic comes from seeded simulated students: each
//! student has a latent ability θ, and answers an item correctly with
//! its 3PL probability. The same respondents sit fixed forms and CAT.

use std::collections::BTreeMap;
use std::path::Path;

use mine_core::{Answer, CognitionLevel, OptionKey};
use mine_itembank::{ChoiceOption, Exam, Problem, ProblemBody, Repository, RepositorySnapshot};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::mix;

/// The exam every workload sits.
pub const EXAM: &str = "midterm";
/// Questions in the bank and on the exam.
pub const QUESTIONS: usize = 50;

const SUBJECTS: [&str; 5] = [
    "networking",
    "databases",
    "algorithms",
    "security",
    "systems",
];

/// Builds the seeded 50-question bank: four-option multiple choice with
/// every fifth item true/false, random keys, subjects and cognition
/// levels, all on one exam. Calibration is left to `mine calibrate`.
///
/// # Errors
///
/// Reports a bank the item model rejects.
pub fn generate(seed: u64) -> Result<Repository, String> {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ 0x6261_6e6b));
    let repository = Repository::new();
    let mut exam = Exam::builder(EXAM)
        .map_err(|err| err.to_string())?
        .title("Served-path benchmark midterm");
    for i in 0..QUESTIONS {
        let id = format!("q{i:02}");
        let subject = SUBJECTS[rng.gen_range(0..SUBJECTS.len())];
        let level =
            CognitionLevel::from_index(rng.gen_range(0..6)).map_err(|err| err.to_string())?;
        // A fixed shape (every fifth item true/false) keeps the cost of
        // a report the same across seeds; only content varies.
        let problem = if i % 5 == 4 {
            Problem::true_false(
                id.clone(),
                format!("Statement {i} about {subject}"),
                rng.gen_bool(0.5),
            )
        } else {
            let correct =
                OptionKey::from_index(rng.gen_range(0..4)).map_err(|err| err.to_string())?;
            let options = (0..4).map(|k| {
                ChoiceOption::new(
                    OptionKey::from_index(k).expect("four options"),
                    format!("option {k} of question {i}"),
                )
            });
            Problem::multiple_choice(
                id.clone(),
                format!("Question {i} on {subject}"),
                options,
                correct,
            )
        }
        .map_err(|err| err.to_string())?
        .with_subject(subject)
        .with_cognition_level(level);
        repository
            .insert_problem(problem)
            .map_err(|err| err.to_string())?;
        exam = exam.entry(id.parse().map_err(|err| format!("{err}"))?);
    }
    repository
        .insert_exam(exam.build().map_err(|err| err.to_string())?)
        .map_err(|err| err.to_string())?;
    Ok(repository)
}

/// Writes a bank file the server can load.
///
/// # Errors
///
/// The I/O error, as text.
pub fn save(repository: &Repository, path: &Path) -> Result<(), String> {
    RepositorySnapshot::capture(repository)
        .save(path)
        .map_err(|err| format!("writing {}: {err}", path.display()))
}

/// Loads a bank file.
///
/// # Errors
///
/// The I/O or decode error, as text.
pub fn load(path: &Path) -> Result<Repository, String> {
    RepositorySnapshot::load(path)
        .map_err(|err| format!("reading {}: {err}", path.display()))?
        .restore()
        .map_err(|err| format!("restoring {}: {err}", path.display()))
}

#[derive(Debug, Clone)]
struct Item {
    correct: Answer,
    wrong: Answer,
    a: f64,
    b: f64,
    c: f64,
}

/// Right and wrong answers plus 3PL parameters for every item of a
/// calibrated bank: what a simulated student needs to answer.
#[derive(Debug, Clone)]
pub struct Key {
    items: BTreeMap<String, Item>,
}

impl Key {
    /// Builds the key from a bank that `mine calibrate --auto` has
    /// calibrated.
    ///
    /// # Errors
    ///
    /// Names an item without a usable calibration or a known answer.
    pub fn from_repository(repository: &Repository) -> Result<Self, String> {
        let mut items = BTreeMap::new();
        for id in repository.problem_ids() {
            let problem = repository.problem(&id).map_err(|err| err.to_string())?;
            let calibration = problem
                .calibration()
                .filter(|c| c.is_usable())
                .ok_or_else(|| format!("item {id} is not calibrated"))?;
            let correct = problem
                .body()
                .correct_answer()
                .ok_or_else(|| format!("item {id} has no correct answer"))?;
            let wrong = match problem.body() {
                ProblemBody::MultipleChoice {
                    options, correct, ..
                } => Answer::Choice(
                    OptionKey::from_index((correct.index() + 1) % options.len())
                        .map_err(|err| err.to_string())?,
                ),
                ProblemBody::TrueFalse { correct, .. } => Answer::TrueFalse(!correct),
                _ => return Err(format!("item {id} has an unsupported style")),
            };
            items.insert(
                id.as_str().to_string(),
                Item {
                    correct,
                    wrong,
                    a: calibration.discrimination,
                    b: calibration.difficulty,
                    c: calibration.guessing,
                },
            );
        }
        Ok(Self { items })
    }

    /// The answer a student of ability `theta` gives to `problem`:
    /// correct with the item's 3PL probability.
    ///
    /// # Errors
    ///
    /// Names an item the key does not know.
    pub fn respond(&self, problem: &str, theta: f64, rng: &mut StdRng) -> Result<Answer, String> {
        let item = self
            .items
            .get(problem)
            .ok_or_else(|| format!("served item {problem:?} is not in the bank"))?;
        let p = item.c + (1.0 - item.c) / (1.0 + (-item.a * (theta - item.b)).exp());
        Ok(if rng.gen_range(0.0..1.0) < p {
            item.correct.clone()
        } else {
            item.wrong.clone()
        })
    }
}

/// The roster name of student `index`.
#[must_use]
pub fn student(index: usize) -> String {
    format!("s{index:04}")
}

/// Student `index`'s latent ability θ ~ N(0, 1), fixed for the run.
#[must_use]
pub fn ability(seed: u64, index: usize) -> f64 {
    let mut rng = StdRng::seed_from_u64(mix(seed ^ mix(index as u64 ^ 0x7468_6574)));
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// The delivery seed of student `index`'s sittings. Fixed per student,
/// so a resit reuses the session id and the registry does not grow.
#[must_use]
pub fn delivery_seed(seed: u64, index: usize) -> u64 {
    mix(seed ^ mix(index as u64)) % 1_000_000
}
