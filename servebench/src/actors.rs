//! Deterministic request streams: one actor per client connection.
//!
//! An actor produces its next request and then observes the reply, so
//! the same code drives the real server over HTTP and the in-process
//! replay of the traced run. Everything a sitting sends derives from
//! the run seed, the client index and the sitting number; adaptive
//! sittings also follow the items the server selects.

use std::collections::BTreeMap;
use std::sync::Arc;

use mine_core::Answer;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::bank::{ability, delivery_seed, student, Key, EXAM};
use crate::mix;

/// One request of a stream, with the structured inputs behind it.
#[derive(Debug, Clone)]
pub enum Op {
    /// `POST /sessions`.
    Start {
        /// Roster index of the student.
        index: usize,
        /// Delivery seed: fixed per student for fixed forms, unique per
        /// sitting for adaptive ones.
        seed: u64,
        /// Whether the sitting is adaptive.
        adaptive: bool,
    },
    /// `POST /sessions/{id}/answers`.
    Answer {
        /// Session id.
        session: String,
        /// The answer given.
        answer: Answer,
        /// Reported time on the item.
        secs: f64,
    },
    /// `POST /sessions/{id}/pause`.
    Pause {
        /// Session id.
        session: String,
    },
    /// `POST /sessions/{id}/resume`.
    Resume {
        /// Session id.
        session: String,
    },
    /// `POST /sessions/{id}/finish`.
    Finish {
        /// Session id.
        session: String,
        /// Roster index of the student.
        index: usize,
    },
    /// `GET /exams/{id}/analysis`, streaming or `?mode=batch`.
    Analysis {
        /// Whether the batch pipeline is forced.
        batch: bool,
    },
    /// `GET /metrics`, as a Prometheus agent scrapes it.
    Scrape,
}

/// Request classes that get their own latency series.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Session start.
    Start,
    /// Answer submission (fixed or adaptive).
    Answer,
    /// Pause or resume.
    PauseResume,
    /// Finish.
    Finish,
    /// Streaming analysis read.
    Analysis,
    /// `?mode=batch` analysis read.
    Batch,
    /// Metrics scrape.
    Scrape,
}

impl Op {
    /// The latency series this request belongs to.
    #[must_use]
    pub fn kind(&self) -> Kind {
        match self {
            Op::Start { .. } => Kind::Start,
            Op::Answer { .. } => Kind::Answer,
            Op::Pause { .. } | Op::Resume { .. } => Kind::PauseResume,
            Op::Finish { .. } => Kind::Finish,
            Op::Analysis { batch: false } => Kind::Analysis,
            Op::Analysis { batch: true } => Kind::Batch,
            Op::Scrape => Kind::Scrape,
        }
    }

    /// The status a correct server answers with.
    #[must_use]
    pub fn expected_status(&self) -> u16 {
        match self {
            Op::Start { .. } => 201,
            _ => 200,
        }
    }

    /// Method and request target.
    #[must_use]
    pub fn target(&self) -> (&'static str, String) {
        match self {
            Op::Start { .. } => ("POST", "/sessions".to_string()),
            Op::Answer { session, .. } => ("POST", format!("/sessions/{session}/answers")),
            Op::Pause { session } => ("POST", format!("/sessions/{session}/pause")),
            Op::Resume { session } => ("POST", format!("/sessions/{session}/resume")),
            Op::Finish { session, .. } => ("POST", format!("/sessions/{session}/finish")),
            Op::Analysis { batch: false } => ("GET", format!("/exams/{EXAM}/analysis")),
            Op::Analysis { batch: true } => ("GET", format!("/exams/{EXAM}/analysis?mode=batch")),
            Op::Scrape => ("GET", "/metrics".to_string()),
        }
    }

    /// The JSON request body (empty for bodiless requests).
    #[must_use]
    pub fn body(&self) -> String {
        match self {
            Op::Start {
                index,
                seed,
                adaptive,
            } => {
                let mode = if *adaptive {
                    ",\"mode\":\"adaptive\""
                } else {
                    ""
                };
                format!(
                    "{{\"exam\":\"{EXAM}\",\"student\":\"{}\",\"seed\":{seed}{mode}}}",
                    student(*index)
                )
            }
            Op::Answer { answer, secs, .. } => format!(
                "{{\"answer\":{},\"time_spent_secs\":{secs}}}",
                serde_json::to_string(answer).expect("answers serialize")
            ),
            _ => String::new(),
        }
    }

    /// The full HTTP/1.1 request as sent on the wire.
    #[must_use]
    pub fn encode(&self) -> Vec<u8> {
        let (method, target) = self.target();
        let body = self.body();
        format!(
            "{method} {target} HTTP/1.1\r\nhost: mine\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        )
        .into_bytes()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pause {
    Never,
    Pending,
    Paused,
    Done,
}

#[derive(Debug)]
struct Sitting {
    index: usize,
    theta: f64,
    rng: StdRng,
    adaptive: bool,
    session: String,
    /// Fixed form: presentation order from the start reply.
    items: Vec<String>,
    position: usize,
    pause: Pause,
    /// Adaptive: the pending item, `None` once the stop rule fired.
    current: Option<String>,
}

/// A student at a keyboard: back-to-back sittings over a roster, each
/// start → answers (pause/resume midway on one fixed sitting in three)
/// → finish.
#[derive(Debug)]
pub struct Sitter {
    key: Arc<Key>,
    seed: u64,
    client: u64,
    roster: Vec<usize>,
    adaptive_odd: bool,
    sittings: u64,
    current: Option<Sitting>,
    /// Sittings finished so far.
    pub finished: u64,
    /// The latest finish reply per student (the records the analysis
    /// check recomputes from).
    pub filed: BTreeMap<usize, String>,
}

impl Sitter {
    /// A sitter for client `client`, cycling through `roster` (student
    /// indexes) in order. With `adaptive_odd`, odd sittings are
    /// adaptive.
    #[must_use]
    pub fn new(
        key: Arc<Key>,
        seed: u64,
        client: u64,
        roster: Vec<usize>,
        adaptive_odd: bool,
    ) -> Self {
        Self {
            key,
            seed,
            client,
            roster,
            adaptive_odd,
            sittings: 0,
            current: None,
            finished: 0,
            filed: BTreeMap::new(),
        }
    }

    /// Whether no sitting is in progress.
    #[must_use]
    pub fn idle(&self) -> bool {
        self.current.is_none()
    }

    /// Students this sitter cycles through.
    #[must_use]
    pub fn roster_len(&self) -> usize {
        self.roster.len()
    }

    /// The next request.
    ///
    /// # Errors
    ///
    /// Reports a served item the bank does not know.
    pub fn next_op(&mut self) -> Result<Op, String> {
        let Some(s) = self.current.as_mut() else {
            let index = self.roster[(self.sittings % self.roster.len() as u64) as usize];
            let adaptive = self.adaptive_odd && self.sittings % 2 == 1;
            let sitting_seed = mix(self.seed ^ mix(self.client << 40 ^ self.sittings));
            let pause = if !adaptive && self.sittings.is_multiple_of(3) {
                Pause::Pending
            } else {
                Pause::Never
            };
            self.current = Some(Sitting {
                index,
                theta: ability(self.seed, index),
                rng: StdRng::seed_from_u64(sitting_seed),
                adaptive,
                session: String::new(),
                items: Vec::new(),
                position: 0,
                pause,
                current: None,
            });
            // An adaptive session id stays taken after its finish, so
            // each adaptive sitting gets a seed of its own.
            let seed = if adaptive {
                self.client << 32 | self.sittings
            } else {
                delivery_seed(self.seed, index)
            };
            return Ok(Op::Start {
                index,
                seed,
                adaptive,
            });
        };
        let session = s.session.clone();
        let item = if s.adaptive {
            s.current.clone()
        } else {
            if s.pause == Pause::Pending && s.position == s.items.len() / 2 {
                return Ok(Op::Pause { session });
            }
            if s.pause == Pause::Paused {
                return Ok(Op::Resume { session });
            }
            s.items.get(s.position).cloned()
        };
        match item {
            Some(item) => Ok(Op::Answer {
                session,
                answer: self.key.respond(&item, s.theta, &mut s.rng)?,
                secs: s.rng.gen_range(2.0..20.0),
            }),
            None => Ok(Op::Finish {
                session,
                index: s.index,
            }),
        }
    }

    /// Folds in the reply to `op` (already checked for its status).
    ///
    /// # Errors
    ///
    /// Describes a reply the sitting cannot continue from.
    pub fn observe(&mut self, op: &Op, body: &str) -> Result<(), String> {
        let s = self.current.as_mut().ok_or("reply without a sitting")?;
        match op {
            Op::Start { .. } => {
                let reply = parse(body)?;
                s.session = reply
                    .get("session")
                    .and_then(Value::as_str)
                    .ok_or("start reply has no session id")?
                    .to_string();
                if s.adaptive {
                    s.current = pending_item(&reply);
                } else {
                    s.items = reply
                        .get("problems")
                        .and_then(Value::as_array)
                        .ok_or("start reply has no problems")?
                        .iter()
                        .map(|p| p.get("id").and_then(Value::as_str).map(str::to_string))
                        .collect::<Option<Vec<_>>>()
                        .ok_or("a problem summary has no id")?;
                }
            }
            Op::Answer { .. } if s.adaptive => s.current = pending_item(&parse(body)?),
            Op::Answer { .. } => s.position += 1,
            Op::Pause { .. } => s.pause = Pause::Paused,
            Op::Resume { .. } => s.pause = Pause::Done,
            Op::Finish { index, .. } => {
                self.filed.insert(*index, body.to_string());
                self.current = None;
                self.sittings += 1;
                self.finished += 1;
            }
            Op::Analysis { .. } | Op::Scrape => return Err("a sitter sent a read".into()),
        }
        Ok(())
    }
}

fn parse(body: &str) -> Result<Value, String> {
    serde_json::from_str(body).map_err(|err| format!("reply is not JSON: {err}"))
}

/// The adaptive reply's pending item; `None` once the stop rule fired.
fn pending_item(reply: &Value) -> Option<String> {
    if matches!(reply.get("done"), Some(Value::Bool(true))) {
        return None;
    }
    reply
        .get("current")
        .and_then(|c| c.get("id"))
        .and_then(Value::as_str)
        .map(str::to_string)
}

/// A teacher's dashboard: analysis reads in a loop, one in 50 forcing
/// the batch pipeline.
#[derive(Debug, Default)]
pub struct Reader {
    reads: u64,
}

impl Reader {
    /// The next read.
    pub fn next_op(&mut self) -> Op {
        self.reads += 1;
        Op::Analysis {
            batch: self.reads.is_multiple_of(50),
        }
    }
}

/// Checks that `op` got the status a correct server answers with.
///
/// # Errors
///
/// Names the request, the status and the start of the body.
pub fn check_status(op: &Op, status: u16, body: &str) -> Result<(), String> {
    if status == op.expected_status() {
        return Ok(());
    }
    let (method, target) = op.target();
    let excerpt: String = body.chars().take(200).collect();
    Err(format!("{method} {target} answered {status}: {excerpt}"))
}

/// What one client connection does. Only two exist per run, so the
/// size gap between the variants does not matter.
#[derive(Debug)]
#[allow(clippy::large_enum_variant)]
pub enum Actor {
    /// Sits exams.
    Sitter(Sitter),
    /// Reads the analysis.
    Reader(Reader),
}

impl Actor {
    /// The next request.
    ///
    /// # Errors
    ///
    /// See [`Sitter::next`].
    pub fn next_op(&mut self) -> Result<Op, String> {
        match self {
            Actor::Sitter(sitter) => sitter.next_op(),
            Actor::Reader(reader) => Ok(reader.next_op()),
        }
    }

    /// Checks the reply's status and folds it in.
    ///
    /// # Errors
    ///
    /// Describes an unexpected status or an unusable reply.
    pub fn observe(&mut self, op: &Op, status: u16, body: &str) -> Result<(), String> {
        check_status(op, status, body)?;
        match self {
            Actor::Sitter(sitter) => sitter.observe(op, body),
            Actor::Reader(_) => Ok(()),
        }
    }

    /// Whether the actor can stop without leaving a sitting open.
    #[must_use]
    pub fn idle(&self) -> bool {
        match self {
            Actor::Sitter(sitter) => sitter.idle(),
            Actor::Reader(_) => true,
        }
    }
}

/// The two client actors of a workload's timed phase. Sitting workloads
/// split the roster between two sitters; the dashboard pairs a reader
/// (client 0) with one sitter re-sitting the whole class.
#[must_use]
pub fn clients(workload: crate::Workload, key: &Arc<Key>, seed: u64, roster: usize) -> Vec<Actor> {
    if workload.dashboard() {
        let offset = (mix(seed ^ 0x6461_7368) % roster as u64) as usize;
        let order = (0..roster).map(|i| (offset + i) % roster).collect();
        vec![
            Actor::Reader(Reader::default()),
            Actor::Sitter(Sitter::new(Arc::clone(key), seed, 1, order, false)),
        ]
    } else {
        (0..2)
            .map(|c| {
                let half: Vec<usize> = (0..roster).filter(|i| i % 2 == c).collect();
                Actor::Sitter(Sitter::new(
                    Arc::clone(key),
                    seed,
                    c as u64,
                    half,
                    workload.adaptive(),
                ))
            })
            .collect()
    }
}

/// The sitters that fill the dashboard class before timing: every
/// roster student sits once, split between two clients.
#[must_use]
pub fn prefill(key: &Arc<Key>, seed: u64, roster: usize) -> Vec<Sitter> {
    (0..2)
        .map(|c| {
            let half: Vec<usize> = (0..roster).filter(|i| i % 2 == c).collect();
            Sitter::new(Arc::clone(key), seed, 2 + c as u64, half, false)
        })
        .collect()
}
