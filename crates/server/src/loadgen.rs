//! A deterministic HTTP load generator: many concurrent clients each
//! driving a full sitting lifecycle against a running server.
//!
//! Every client derives its behaviour from `seed + client index`, so a
//! load run is reproducible: the same invocation sends the same
//! requests. Fixed-form clients start a session, answer every question
//! with an answer of the correct *kind* (sampled from the problem
//! summaries the server returns), occasionally pause and resume, and
//! finish. Adaptive clients ([`LoadMode::Adaptive`]) simulate IRT
//! respondents instead: each draws a latent ability θ from a standard
//! normal and answers the served item correctly with probability
//! `p_correct(θ)` from the item's 3PL parameters, which requires an
//! [`AnswerKey`] built from the item bank.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{JsonWriter, Number, Value};

use mine_core::{Answer, OptionKey};
use mine_itembank::{ProblemBody, Repository};
use mine_simulator::irt::ItemParams;

use crate::client::{ResilientClient, RetryPolicy};
use crate::http::object_body;

/// Which sitting style the load drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LoadMode {
    /// Every client sits the fixed form.
    #[default]
    Fixed,
    /// Every client sits adaptively (CAT).
    Adaptive,
    /// Clients alternate: even indexes fixed, odd indexes adaptive.
    Mixed,
}

impl LoadMode {
    /// Parses the CLI spelling.
    ///
    /// # Errors
    ///
    /// Returns an error naming the unknown spelling.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text {
            "fixed" => Ok(Self::Fixed),
            "adaptive" => Ok(Self::Adaptive),
            "mixed" => Ok(Self::Mixed),
            other => Err(format!(
                "unknown loadgen mode {other:?} (expected fixed, adaptive, or mixed)"
            )),
        }
    }

    /// Whether the client at `index` sits adaptively under this mode.
    #[must_use]
    pub fn is_adaptive(self, index: usize) -> bool {
        match self {
            Self::Fixed => false,
            Self::Adaptive => true,
            Self::Mixed => index % 2 == 1,
        }
    }
}

/// Per-problem correct/wrong answers plus 3PL parameters, keyed by
/// problem id. Adaptive clients need this to behave like simulated
/// respondents: the server never reveals the right answer, so the key
/// is built offline from the item bank the server was loaded with.
#[derive(Debug, Clone, Default)]
pub struct AnswerKey {
    correct: BTreeMap<String, Answer>,
    wrong: BTreeMap<String, Answer>,
    params: BTreeMap<String, ItemParams>,
}

impl AnswerKey {
    /// Builds the key from every problem in the repository. Problems
    /// without a canonical correct answer (essay, questionnaire) or
    /// without a usable calibration are simply absent from the
    /// respective maps.
    #[must_use]
    pub fn from_repository(repository: &Repository) -> Self {
        let mut key = Self::default();
        for id in repository.problem_ids() {
            let Ok(problem) = repository.problem(&id) else {
                continue;
            };
            let name = id.as_str().to_string();
            if let Some(correct) = problem.body().correct_answer() {
                key.wrong.insert(name.clone(), wrong_answer(problem.body()));
                key.correct.insert(name.clone(), correct);
            }
            if let Some(calibration) = problem.calibration().filter(|c| c.is_usable()) {
                key.params.insert(
                    name,
                    ItemParams::new(
                        calibration.discrimination,
                        calibration.difficulty,
                        calibration.guessing,
                    ),
                );
            }
        }
        key
    }

    /// 3PL probability that a respondent of ability `theta` answers
    /// `problem` correctly, when the item is calibrated.
    #[must_use]
    pub fn p_correct(&self, problem: &str, theta: f64) -> Option<f64> {
        self.params.get(problem).map(|p| p.p_correct(theta))
    }

    /// A correct (or deliberately wrong) answer for `problem`. Wrong
    /// answers fall back to [`Answer::Skipped`], which always grades
    /// incorrect.
    #[must_use]
    pub fn answer_for(&self, problem: &str, correct: bool) -> Option<Answer> {
        if correct {
            self.correct.get(problem).cloned()
        } else {
            Some(self.wrong.get(problem).cloned().unwrap_or(Answer::Skipped))
        }
    }

    /// Calibrated problems in the key.
    #[must_use]
    pub fn calibrated(&self) -> usize {
        self.params.len()
    }
}

/// A deterministic wrong answer for a body with a known right one.
fn wrong_answer(body: &ProblemBody) -> Answer {
    match body {
        ProblemBody::MultipleChoice {
            options, correct, ..
        } => {
            let next = (correct.index() + 1) % options.len().max(1);
            OptionKey::from_index(next).map_or(Answer::Skipped, Answer::Choice)
        }
        ProblemBody::TrueFalse { correct, .. } => Answer::TrueFalse(!correct),
        _ => Answer::Skipped,
    }
}

/// What a load run should do.
#[derive(Debug, Clone)]
pub struct LoadGenOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Exam to sit.
    pub exam: String,
    /// Number of concurrent clients.
    pub clients: usize,
    /// Base seed; client `i` uses `seed + i`.
    pub seed: u64,
    /// When set, client starts ramp linearly over this window instead
    /// of arriving all at once: client `i` delays `i · ramp / clients`.
    pub ramp: Option<Duration>,
    /// Retry policy for every client (backoff with full jitter,
    /// `Retry-After`-aware).
    pub retry: RetryPolicy,
    /// Which sitting style each client drives.
    pub mode: LoadMode,
    /// Answer key + item parameters; required for any adaptive client.
    pub key: Option<Arc<AnswerKey>>,
}

impl Default for LoadGenOptions {
    fn default() -> Self {
        Self {
            addr: String::new(),
            exam: String::new(),
            clients: 1,
            seed: 0,
            ramp: None,
            retry: RetryPolicy::default(),
            mode: LoadMode::Fixed,
            key: None,
        }
    }
}

/// Aggregate outcome of a load run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LoadGenReport {
    /// Sittings that completed through `finish`.
    pub completed: u64,
    /// Requests sent.
    pub requests: u64,
    /// Responses with an unexpected status, plus transport errors.
    pub failures: u64,
    /// Answers submitted.
    pub answers: u64,
    /// Shed responses (`503 + Retry-After`) observed across clients.
    pub shed: u64,
    /// Retry attempts performed across clients.
    pub retries: u64,
}

/// Runs the load, blocking until every client is done.
///
/// # Errors
///
/// Returns an error string when no client could run at all (e.g. the
/// server is unreachable); individual request failures are counted in
/// the report instead.
pub fn run_loadgen(options: &LoadGenOptions) -> Result<LoadGenReport, String> {
    if options.clients == 0 {
        return Err("loadgen needs at least one client".to_string());
    }
    if options.mode != LoadMode::Fixed && options.key.is_none() {
        return Err(format!(
            "loadgen mode {:?} needs an answer key built from the item bank",
            options.mode
        ));
    }
    let completed = Arc::new(AtomicU64::new(0));
    let requests = Arc::new(AtomicU64::new(0));
    let failures = Arc::new(AtomicU64::new(0));
    let answers = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let retries = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..options.clients)
        .map(|index| {
            let options = options.clone();
            let completed = Arc::clone(&completed);
            let requests = Arc::clone(&requests);
            let failures = Arc::clone(&failures);
            let answers = Arc::clone(&answers);
            let shed = Arc::clone(&shed);
            let retries = Arc::clone(&retries);
            std::thread::spawn(move || {
                if let Some(ramp) = options.ramp {
                    // Linear ramp: client i arrives i/clients into the
                    // window, so arrival rate is constant end to end.
                    std::thread::sleep(ramp.mul_f64(index as f64 / options.clients as f64));
                }
                let mut client = ResilientClient::new(
                    &options.addr,
                    options.retry,
                    options.seed.wrapping_add(index as u64) ^ 0x6c6f_6164,
                );
                let outcome = if options.mode.is_adaptive(index) {
                    run_adaptive_client(&mut client, &options, index, &requests, &answers)
                } else {
                    run_client(&mut client, &options, index, &requests, &answers)
                };
                match outcome {
                    Ok(()) => {
                        completed.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(_) => {
                        failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
                shed.fetch_add(client.shed_seen(), Ordering::Relaxed);
                retries.fetch_add(client.retries(), Ordering::Relaxed);
            })
        })
        .collect();
    for handle in handles {
        let _ = handle.join();
    }

    let report = LoadGenReport {
        completed: completed.load(Ordering::Relaxed),
        requests: requests.load(Ordering::Relaxed),
        failures: failures.load(Ordering::Relaxed),
        answers: answers.load(Ordering::Relaxed),
        shed: shed.load(Ordering::Relaxed),
        retries: retries.load(Ordering::Relaxed),
    };
    if report.completed == 0 {
        return Err(format!(
            "no sitting completed against {} (is the server up?)",
            options.addr
        ));
    }
    Ok(report)
}

/// Drives one client through a complete sitting.
fn run_client(
    client: &mut ResilientClient,
    options: &LoadGenOptions,
    index: usize,
    requests: &AtomicU64,
    answers: &AtomicU64,
) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(options.seed.wrapping_add(index as u64));
    let seed = options.seed.wrapping_add(index as u64);

    let start_body = object_body(|body| {
        body.field("exam", &options.exam);
        body.field("student", &format!("load-{index:04}"));
        body.field("seed", &seed);
    });
    requests.fetch_add(1, Ordering::Relaxed);
    let started = client
        .post("/sessions", &start_body)
        .map_err(|err| err.to_string())?;
    if started.status != 201 {
        return Err(format!("session start failed: {}", started.body));
    }
    let started = started.json().map_err(|err| err.to_string())?;
    let session = started
        .get("session")
        .and_then(Value::as_str)
        .ok_or("start response missing session id")?
        .to_string();
    let problems = started
        .get("problems")
        .and_then(Value::as_array)
        .ok_or("start response missing problems")?
        .to_vec();

    // Pause/resume mid-sitting on a third of the clients to exercise
    // the full lifecycle under load.
    let pause_at = if index.is_multiple_of(3) {
        Some(problems.len() / 2)
    } else {
        None
    };

    for (position, summary) in problems.iter().enumerate() {
        if pause_at == Some(position) {
            requests.fetch_add(2, Ordering::Relaxed);
            let paused = client
                .post(&format!("/sessions/{session}/pause"), "")
                .map_err(|err| err.to_string())?;
            if paused.status != 200 {
                return Err(format!("pause failed: {}", paused.body));
            }
            let resumed = client
                .post(&format!("/sessions/{session}/resume"), "")
                .map_err(|err| err.to_string())?;
            if resumed.status != 200 {
                return Err(format!("resume failed: {}", resumed.body));
            }
        }
        let answer = sample_answer(&mut rng, summary)?;
        let time_spent = rng.gen_range(2.0_f64..20.0);
        let body = answer_body(&answer, time_spent);
        requests.fetch_add(1, Ordering::Relaxed);
        let answered = client
            .post(&format!("/sessions/{session}/answers"), &body)
            .map_err(|err| err.to_string())?;
        if answered.status != 200 {
            return Err(format!("answer failed: {}", answered.body));
        }
        answers.fetch_add(1, Ordering::Relaxed);
    }

    requests.fetch_add(1, Ordering::Relaxed);
    let finished = client
        .post(&format!("/sessions/{session}/finish"), "")
        .map_err(|err| err.to_string())?;
    if finished.status != 200 {
        return Err(format!("finish failed: {}", finished.body));
    }
    Ok(())
}

/// Drives one simulated IRT respondent through an adaptive sitting:
/// draws ability θ ~ N(0, 1), then answers whatever item the server
/// serves next correctly with probability `p_correct(θ)`.
fn run_adaptive_client(
    client: &mut ResilientClient,
    options: &LoadGenOptions,
    index: usize,
    requests: &AtomicU64,
    answers: &AtomicU64,
) -> Result<(), String> {
    let key = options
        .key
        .as_deref()
        .ok_or("adaptive loadgen needs an answer key")?;
    let seed = options.seed.wrapping_add(index as u64);
    let mut rng = StdRng::seed_from_u64(seed ^ 0x7468_6574);
    // Box-Muller: two uniforms → one standard normal ability draw.
    let u1: f64 = rng.gen_range(f64::EPSILON..1.0);
    let u2: f64 = rng.gen_range(0.0..1.0);
    let theta = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();

    let start_body = object_body(|body| {
        body.field("exam", &options.exam);
        body.field("student", &format!("cat-{index:04}"));
        body.field("seed", &seed);
        body.field("mode", "adaptive");
    });
    requests.fetch_add(1, Ordering::Relaxed);
    let started = client
        .post("/sessions", &start_body)
        .map_err(|err| err.to_string())?;
    if started.status != 201 {
        return Err(format!("adaptive start failed: {}", started.body));
    }
    let mut status = started.json().map_err(|err| err.to_string())?;
    let session = status
        .get("session")
        .and_then(Value::as_str)
        .ok_or("adaptive start response missing session id")?
        .to_string();

    loop {
        if matches!(status.get("done"), Some(Value::Bool(true))) {
            break;
        }
        let Some(current) = status.get("current") else {
            break;
        };
        let item = match current.get("id").and_then(Value::as_str) {
            Some(id) => id.to_string(),
            None => break, // current is null: nothing left to serve
        };
        let p = key
            .p_correct(&item, theta)
            .ok_or_else(|| format!("no 3PL parameters for served item {item:?}"))?;
        let is_correct = rng.gen_range(0.0_f64..1.0) < p;
        let answer = key
            .answer_for(&item, is_correct)
            .ok_or_else(|| format!("no answer key entry for served item {item:?}"))?;
        let time_spent = rng.gen_range(2.0_f64..20.0);
        let body = answer_body(&answer, time_spent);
        requests.fetch_add(1, Ordering::Relaxed);
        let answered = client
            .post(&format!("/sessions/{session}/answers"), &body)
            .map_err(|err| err.to_string())?;
        if answered.status != 200 {
            return Err(format!("adaptive answer failed: {}", answered.body));
        }
        answers.fetch_add(1, Ordering::Relaxed);
        status = answered.json().map_err(|err| err.to_string())?;
    }

    requests.fetch_add(1, Ordering::Relaxed);
    let finished = client
        .post(&format!("/sessions/{session}/finish"), "")
        .map_err(|err| err.to_string())?;
    if finished.status != 200 {
        return Err(format!("adaptive finish failed: {}", finished.body));
    }
    Ok(())
}

/// The `POST /sessions/{id}/answers` body.
fn answer_body(answer: &Answer, time_spent_secs: f64) -> String {
    let mut out = JsonWriter::new();
    let mut body = out.object();
    body.field("answer", answer);
    body.field("time_spent_secs", &time_spent_secs);
    body.end();
    out.into_string()
}

/// Builds an answer of the right kind for one problem summary.
fn sample_answer<R: Rng>(rng: &mut R, summary: &Value) -> Result<Answer, String> {
    let style = summary
        .get("style")
        .and_then(Value::as_str)
        .ok_or("problem summary missing style")?;
    let count = |field: &str| -> usize {
        match summary.get(field) {
            Some(Value::Number(Number::PosInt(n))) => *n as usize,
            _ => 0,
        }
    };
    Ok(match style {
        "multiple-choice" | "questionnaire" => {
            let options = count("options").max(1);
            Answer::Choice(
                OptionKey::from_index(rng.gen_range(0..options)).map_err(|err| err.to_string())?,
            )
        }
        "true-false" => Answer::TrueFalse(rng.gen_bool(0.5)),
        "essay" => Answer::Text("load-generated response".to_string()),
        "completion" => {
            let blanks = count("blanks");
            Answer::Completion(vec!["answer".to_string(); blanks])
        }
        "match" => {
            let pairs = count("pairs");
            let right = count("right").max(1);
            Answer::Match((0..pairs).map(|_| rng.gen_range(0..right)).collect())
        }
        other => return Err(format!("unknown problem style {other:?}")),
    })
}
