//! `servebench-trace`: the per-layer traced run.
//!
//! It first runs a quarter of the time on the served path (untraced),
//! for the end-to-end p50s the layer sums reconcile against. It then
//! replays the workload's request streams in process against the same
//! server components `mine serve` wires up, and times, from this file,
//! every call into a layer's public function: one span per call, keyed
//! by request id. Calls the router makes internally are replayed on
//! shadow copies of each layer (same inputs, same order), so a request's
//! router self time is its `Router::handle` span minus its children.
//! Counts over the first requests of the traced pass are deterministic
//! and repeat exactly for a seed.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::{Duration, Instant};

use mine_adaptive::AdaptiveOptions;
use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{ExamId, ExamRecord, StudentRecord};
use mine_delivery::{DeliveryOptions, ExamSession};
use mine_itembank::Exam;
use mine_server::http::{parse_request, Request};
use mine_server::{
    open_journaled_state, start_follower, AckMode, AdaptiveSitting, FollowerPuller, Journal,
    Metrics, ReplListener, ReplState, Role, Route, Router, ServerImage, SessionEvent,
};
use mine_store::{StoreOptions, SyncPolicy};
use mine_streamstats::StreamEngine;

use servebench::actors::{self, check_status, Actor, Kind, Op, Reader, Sitter};
use servebench::bank::{student, EXAM};
use servebench::report::{self, median, percentile, Metric};
use servebench::served::{self, Context, Served};
use servebench::Args;

/// `--fsync` default of `mine serve`.
const DEFAULT_SYNC: SyncPolicy = SyncPolicy::Interval(Duration::from_millis(100));
/// Share of the run spent on the served path.
const SERVED_SHARE: f64 = 0.25;
/// Sitting workloads: share of each replay round spent sitting; the
/// rest is the review phase of analysis reads, as on the served path.
const SITTING_SHARE: f64 = 0.8;

/// Per-layer metrics every workload prints (`BENCHMARK.json`
/// `per_layer`), with units.
const PER_LAYER: [(&str, &str); 32] = [
    ("http.parse_ns.p50", "ns"),
    ("http.write_ns.p50", "ns"),
    ("http.response_bytes.p50", "bytes"),
    ("router.handle_ns.answer.p50", "ns"),
    ("router.handle_ns.finish.p50", "ns"),
    ("router.handle_ns.analysis.p50", "ns"),
    ("router.self_ns.p50", "ns"),
    ("metrics.record_ns.p50", "ns"),
    ("metrics.render_ns.p50", "ns"),
    ("journal.event_serialize_ns.p50", "ns"),
    ("journal.snapshot_ns.p50", "ns"),
    ("journal.recover_ns", "ns"),
    ("journal.event_bytes.mean", "bytes"),
    ("journal.snapshot_bytes", "bytes"),
    ("journal.snapshots_per_1k_events", "count"),
    ("store.append_ns.p50", "ns"),
    ("store.append_ns.p99", "ns"),
    ("store.wal_bytes_per_payload_byte", "ratio"),
    ("repl.append_publish_ns.p50", "ns"),
    ("repl.append_publish_ns.p99", "ns"),
    ("delivery.answer_ns.p50", "ns"),
    ("delivery.finish_ns.p50", "ns"),
    ("streamstats.apply_ns.p50", "ns"),
    ("streamstats.apply_ns.p99", "ns"),
    ("streamstats.report_ns.p50", "ns"),
    ("analysis.batch_ns.p50", "ns"),
    ("analysis.batch_cache_hit_ratio", "ratio"),
    ("serialize.report_ns.p50", "ns"),
    ("serialize.record_ns.p50", "ns"),
    ("serialize.report_bytes", "bytes"),
    ("requests_per_sitting", "count"),
    ("trace.overhead_pct", "%"),
];

/// What each layer metric should move, and where (printed with it).
const PREDICTIONS: [(&str, &str); 18] = [
    ("http.parse_ns", "answer_p50_ms on sitting_mixed"),
    (
        "http.write_ns",
        "answer_p50_ms on sitting_mixed; analysis_p50_ms on analysis_dashboard",
    ),
    (
        "router.handle_ns",
        "the matching route's p50 on every workload",
    ),
    ("router.self_ns", "requests_per_s on sitting_mixed"),
    ("metrics.record_ns", "requests_per_s on sitting_mixed"),
    ("metrics.render_ns", "no end-to-end metric"),
    (
        "journal.event_serialize_ns",
        "answer_p50_ms on sitting_mixed",
    ),
    (
        "journal.snapshot_ns",
        "answer_p90_ms/finish_p90_ms on analysis_dashboard",
    ),
    ("journal.recover_ns", "setup_s on analysis_dashboard"),
    (
        "store.append_ns",
        "answer_p50_ms on sitting_mixed; answer_p90_ms, sittings_per_s on sitting_durable",
    ),
    (
        "repl.append_publish_ns",
        "sittings_per_s, answer_p50_ms on sitting_durable; flat elsewhere",
    ),
    ("delivery.", "finish_p50_ms on sitting_mixed"),
    (
        "adaptive.step_ns",
        "answer_p50_ms on sitting_mixed; absent elsewhere",
    ),
    ("streamstats.apply_ns", "finish_p90_ms"),
    (
        "streamstats.report_ns",
        "analysis_p50_ms on analysis_dashboard",
    ),
    ("analysis.batch", "batch_read_p50_ms on analysis_dashboard"),
    (
        "serialize.report_ns",
        "analysis_p50_ms on analysis_dashboard",
    ),
    ("serialize.record_ns", "finish_p50_ms on sitting_mixed"),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Layer {
    HttpParse,
    RouterHandle,
    HttpWrite,
    MetricsRecord,
    MetricsRender,
    JournalSerialize,
    JournalSnapshot,
    StoreAppend,
    ReplAppendPublish,
    DeliveryAnswer,
    DeliveryFinish,
    AdaptiveStep,
    StreamApply,
    StreamReport,
    AnalysisBatch,
    SerializeReport,
    SerializeRecord,
}

impl Layer {
    /// Calls the router makes internally (replayed on shadows).
    fn is_router_child(self) -> bool {
        !matches!(
            self,
            Layer::HttpParse | Layer::RouterHandle | Layer::HttpWrite
        )
    }
}

/// One timed call.
#[derive(Debug, Clone, Copy)]
struct Span {
    request: u32,
    /// The request's class, for per-route series.
    kind: Kind,
    layer: Layer,
    duration_ns: u64,
}

fn ns(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// A node as `mine serve --data-dir` builds it: journaled state, plus a
/// replication role when given.
fn open_node(
    ctx: &Context,
    dir: &Path,
    sync: SyncPolicy,
    role: Option<(Role, AckMode)>,
) -> Result<Router, String> {
    let options = StoreOptions {
        sync,
        ..StoreOptions::default()
    };
    let (mut state, _) = open_journaled_state(
        ctx.repository.clone(),
        dir,
        options,
        ctx.scale.snapshot_every,
    )?;
    if let Some((role, ack)) = role {
        state.repl = Some(Arc::new(ReplState::new(role, ack)));
    }
    Ok(Router::with_state(state))
}

/// A primary shipping to a quorum follower in this process, both
/// fsyncing every write, as `sitting_durable` deploys them.
struct Pair {
    primary: Router,
    follower: Router,
    listener: Option<ReplListener>,
    puller: Option<FollowerPuller>,
}

impl Pair {
    fn start(ctx: &Context, name: &str, sync: SyncPolicy) -> Result<Self, String> {
        let primary_dir = ctx.run.fresh(&format!("{name}-primary"))?;
        let follower_dir = ctx.run.fresh(&format!("{name}-follower"))?;
        let primary = open_node(
            ctx,
            &primary_dir,
            sync,
            Some((Role::Primary, AckMode::Quorum)),
        )?;
        let listener = ReplListener::start("127.0.0.1:0", primary.clone())
            .map_err(|e| format!("repl listener: {e}"))?;
        let follower = open_node(
            ctx,
            &follower_dir,
            sync,
            Some((Role::Follower, AckMode::Leader)),
        )?;
        let puller = start_follower(listener.local_addr().to_string(), follower.clone());
        let pair = Self {
            primary,
            follower,
            listener: Some(listener),
            puller: Some(puller),
        };
        let deadline = Instant::now() + Duration::from_secs(30);
        while pair.repl().hub().count() == 0 {
            if Instant::now() > deadline {
                return Err("in-process follower never attached".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(pair)
    }

    fn repl(&self) -> &ReplState {
        self.primary
            .state()
            .repl
            .as_deref()
            .expect("primary has a replication role")
    }

    fn quorum_timeouts(&self) -> u64 {
        self.primary
            .state()
            .metrics
            .snapshot(0, 0)
            .repl_quorum_timeouts_total
    }
}

impl Drop for Pair {
    fn drop(&mut self) {
        if let Some(repl) = self.follower.state().repl.as_deref() {
            repl.stop_puller();
        }
        if let Some(puller) = self.puller.take() {
            puller.join();
        }
        if let Some(listener) = self.listener.take() {
            listener.shutdown();
        }
    }
}

/// The in-process stand-ins for the calls `Router::handle` makes: the
/// same inputs in the same order, timed one call at a time.
struct Shadow {
    exam: Exam,
    exam_id: ExamId,
    problems: Vec<mine_itembank::Problem>,
    sessions: HashMap<String, ExamSession>,
    adaptive: HashMap<String, AdaptiveSitting>,
    engine: StreamEngine,
    records: BTreeMap<String, StudentRecord>,
    analyzer: BatchAnalyzer,
    journal: Journal,
    /// A quorum pair fed the same event payloads: what replicating this
    /// workload's events costs (on `sitting_durable`, what it does).
    pair: Pair,
    metrics: Metrics,
}

/// Deterministic counts over the first requests of the traced pass.
#[derive(Debug, Default, Clone, PartialEq)]
struct Counts {
    events: u64,
    event_bytes: u64,
    wal_bytes: u64,
    snapshots: u64,
    snapshot_bytes: u64,
    reports: u64,
    report_bytes: u64,
    sitting_requests: u64,
    sittings: u64,
}

impl Shadow {
    fn new(ctx: &Context, router: &Router, sync: SyncPolicy) -> Result<Self, String> {
        let exam_id: ExamId = EXAM.parse().map_err(|e| format!("{e}"))?;
        let (exam, problems) = ctx
            .repository
            .resolve_exam(&exam_id)
            .map_err(|e| e.to_string())?;
        let config = AnalysisConfig::default();
        let options = StoreOptions {
            sync,
            ..StoreOptions::default()
        };
        let (journal, _) = Journal::open(
            ctx.run.fresh("shadow-journal")?,
            options,
            ctx.scale.snapshot_every,
        )
        .map_err(|e| e.to_string())?;
        let shadow = Self {
            exam,
            exam_id,
            problems,
            sessions: HashMap::new(),
            adaptive: HashMap::new(),
            engine: StreamEngine::new(config),
            records: BTreeMap::new(),
            analyzer: BatchAnalyzer::new(config),
            journal,
            pair: Pair::start(ctx, "shadow", sync)?,
            metrics: Metrics::new(),
        };
        Ok(shadow.resync(router))
    }

    /// Catches up with sittings the router filed while untraced.
    fn resync(mut self, router: &Router) -> Self {
        self.engine = StreamEngine::new(AnalysisConfig::default());
        self.records.clear();
        for record in router.state().finished.records(EXAM) {
            self.engine.apply(EXAM, &record);
            self.records
                .insert(record.student.as_str().to_string(), record);
        }
        self
    }

    fn event(&self, op: &Op) -> Result<Option<SessionEvent>, String> {
        let is_adaptive = |session: &str| self.adaptive.contains_key(session);
        Ok(Some(match op {
            Op::Start {
                index,
                seed,
                adaptive: false,
            } => SessionEvent::Created {
                exam: self.exam_id.clone(),
                student: student(*index).parse().map_err(|e| format!("{e}"))?,
                options: DeliveryOptions {
                    seed: *seed,
                    resumable: true,
                    time_accommodation: 1.0,
                },
            },
            Op::Start {
                index,
                seed,
                adaptive: true,
            } => SessionEvent::AdaptiveCreated {
                exam: self.exam_id.clone(),
                student: student(*index).parse().map_err(|e| format!("{e}"))?,
                options: AdaptiveOptions {
                    seed: *seed,
                    ..AdaptiveOptions::for_bank(self.problems.len())
                },
            },
            Op::Answer {
                session,
                answer,
                secs,
            } => {
                let time_spent = Duration::try_from_secs_f64(*secs).map_err(|e| e.to_string())?;
                if is_adaptive(session) {
                    SessionEvent::AdaptiveStep {
                        session: session.clone(),
                        answer: answer.clone(),
                        time_spent,
                    }
                } else {
                    SessionEvent::Answered {
                        session: session.clone(),
                        answer: answer.clone(),
                        time_spent,
                    }
                }
            }
            Op::Pause { session } => SessionEvent::Paused {
                session: session.clone(),
            },
            Op::Resume { session } => SessionEvent::Resumed {
                session: session.clone(),
            },
            Op::Finish { session, .. } if is_adaptive(session) => SessionEvent::AdaptiveFinished {
                session: session.clone(),
            },
            Op::Finish { session, .. } => SessionEvent::Finished {
                session: session.clone(),
            },
            Op::Analysis { .. } | Op::Scrape => return Ok(None),
        }))
    }
}

fn route(op: &Op) -> Route {
    match op {
        Op::Start { .. } => Route::SessionStart,
        Op::Answer { .. } => Route::Answer,
        Op::Pause { .. } => Route::Pause,
        Op::Resume { .. } => Route::Resume,
        Op::Finish { .. } => Route::Finish,
        Op::Analysis { .. } => Route::Analysis,
        Op::Scrape => Route::Metrics,
    }
}

fn request_of(op: &Op) -> Result<Request, String> {
    parse_request(&mut &op.encode()[..])
        .map_err(|e| e.message)?
        .ok_or_else(|| "empty request".to_string())
}

/// The store's active segment and its length.
fn segment_len(store: &mine_store::EventStore) -> (std::path::PathBuf, u64) {
    let path = store.active_segment();
    let len = std::fs::metadata(&path).map_or(0, |m| m.len());
    (path, len)
}

/// Replays the workload's streams against in-process components.
struct Replay<'a> {
    ctx: &'a Context,
    router: Router,
    /// Keeps the replicated node's follower running.
    _pair: Option<Pair>,
    sitters: Vec<Sitter>,
    reader: Reader,
    shadow: Option<Shadow>,
    spans: Vec<Span>,
    response_bytes: Vec<u64>,
    out: Vec<u8>,
    /// Requests sent, scrapes included (the span key).
    requests: u64,
    /// Requests the clients sent; rounds count these, so the time-based
    /// scrapes cannot shift what a round contains.
    driven: u64,
    next_scrape: Instant,
    counting: bool,
    counts: Counts,
    /// Real-path (parse + handle + write) time and requests, untraced
    /// and traced, for the tracing overhead.
    path: [(u64, u64); 2],
}

impl<'a> Replay<'a> {
    fn new(ctx: &'a Context) -> Result<Self, String> {
        let workload = ctx.args.workload;
        let (router, pair) = if workload.replicated() {
            let pair = Pair::start(ctx, "node", SyncPolicy::Always)?;
            (pair.primary.clone(), Some(pair))
        } else {
            (
                open_node(ctx, &ctx.run.fresh("node")?, DEFAULT_SYNC, None)?,
                None,
            )
        };
        let sitters = actors::clients(workload, &ctx.key, ctx.args.seed, ctx.scale.roster)
            .into_iter()
            .filter_map(|actor| match actor {
                Actor::Sitter(sitter) => Some(sitter),
                Actor::Reader(_) => None,
            })
            .collect();
        Ok(Self {
            ctx,
            router,
            _pair: pair,
            sitters,
            reader: Reader::default(),
            shadow: None,
            spans: Vec::new(),
            response_bytes: Vec::new(),
            out: Vec::with_capacity(1 << 20),
            requests: 0,
            driven: 0,
            next_scrape: Instant::now(),
            counting: false,
            counts: Counts::default(),
            path: [(0, 0); 2],
        })
    }

    /// The dashboard fills its class in process and restarts on it, as
    /// a drain and relaunch would; the sitting workloads open a fresh
    /// journal. Returns the median time of `times` opens.
    fn recover(&mut self, times: usize) -> Result<u64, String> {
        let ctx = self.ctx;
        if !ctx.args.workload.dashboard() {
            let mut opens = Vec::with_capacity(times);
            for _ in 0..times.max(1) {
                let dir = ctx.run.fresh("recover")?;
                let started = Instant::now();
                let node = open_node(ctx, &dir, DEFAULT_SYNC, None)?;
                opens.push(ns(started.elapsed()) as f64);
                drop(node);
            }
            return Ok(median(&opens) as u64);
        }
        for mut sitter in actors::prefill(&ctx.key, ctx.args.seed, ctx.scale.roster) {
            let target = sitter.roster_len() as u64;
            while !(sitter.idle() && sitter.finished >= target) {
                let op = sitter.next_op()?;
                let response = self.router.handle(&request_of(&op)?);
                check_status(&op, response.status, &response.body)?;
                sitter.observe(&op, &response.body)?;
            }
        }
        let dir = ctx.run.path().join("node");
        let mut opens = Vec::with_capacity(times);
        for _ in 0..times.max(1) {
            {
                let state = self.router.state();
                let journal = state.journal.as_ref().expect("journaled node");
                let _gate = journal.gate_write();
                let image = ServerImage::capture(&state.registry, &state.finished, &state.adaptive);
                journal.write_snapshot(&image).map_err(|e| e.to_string())?;
            }
            // Close the journal before reopening it.
            self.router = Router::new(ctx.repository.clone());
            let started = Instant::now();
            self.router = open_node(ctx, &dir, DEFAULT_SYNC, None)?;
            opens.push(ns(started.elapsed()) as f64);
        }
        Ok(median(&opens) as u64)
    }

    fn span(&mut self, request: u32, kind: Kind, layer: Layer, started: Instant, ended: Instant) {
        self.spans.push(Span {
            request,
            kind,
            layer,
            duration_ns: ns(ended - started),
        });
    }

    /// One request through the real path (and, traced, its shadow
    /// calls). Returns the reply body.
    fn step(&mut self, op: &Op) -> Result<String, String> {
        let id = u32::try_from(self.requests).unwrap_or(u32::MAX);
        self.requests += 1;
        self.driven += u64::from(!matches!(op, Op::Scrape));
        let bytes = op.encode();
        let t0 = Instant::now();
        let request = parse_request(&mut &bytes[..])
            .map_err(|e| e.message)?
            .ok_or("empty request")?;
        let t1 = Instant::now();
        let response = self.router.handle(&request);
        let t2 = Instant::now();
        self.out.clear();
        response
            .write_to(&mut self.out, true)
            .map_err(|e| e.to_string())?;
        let t3 = Instant::now();
        let traced = self.shadow.is_some();
        if traced {
            let kind = op.kind();
            self.span(id, kind, Layer::HttpParse, t0, t1);
            self.span(id, kind, Layer::RouterHandle, t1, t2);
            self.span(id, kind, Layer::HttpWrite, t2, t3);
            self.response_bytes.push(self.out.len() as u64);
        }
        self.path[usize::from(traced)].0 += ns(t0.elapsed());
        self.path[usize::from(traced)].1 += 1;
        check_status(op, response.status, &response.body)?;
        if traced {
            let t = Instant::now();
            self.shadow.as_ref().expect("traced").metrics.record(
                route(op),
                response.status,
                t2 - t1,
            );
            self.span(id, op.kind(), Layer::MetricsRecord, t, Instant::now());
            self.shadow_calls(id, op)?;
        }
        if self.counting && !matches!(op, Op::Analysis { .. } | Op::Scrape) {
            self.counts.sitting_requests += 1;
            self.counts.sittings += u64::from(matches!(op, Op::Finish { .. }));
        }
        Ok(response.body)
    }

    /// Replays, on the shadows, the calls `Router::handle` made for `op`.
    fn shadow_calls(&mut self, id: u32, op: &Op) -> Result<(), String> {
        let counting = self.counting;
        let mut spans: Vec<(Layer, Instant, Instant)> = Vec::new();
        let mut time =
            |layer: Layer, started: Instant| spans.push((layer, started, Instant::now()));
        let shadow = self.shadow.as_mut().expect("traced pass");
        let state = self.router.state();
        let event = shadow.event(op)?;
        if let Some(event) = &event {
            let t = Instant::now();
            let payload = serde_json::to_string(event).map_err(|e| e.to_string())?;
            time(Layer::JournalSerialize, t);
            let store = shadow.journal.store();
            let (segment, before) = if counting {
                segment_len(store)
            } else {
                Default::default()
            };
            let t = Instant::now();
            store
                .append(payload.as_bytes())
                .map_err(|e| e.to_string())?;
            time(Layer::StoreAppend, t);
            if counting {
                let (after_segment, after) = segment_len(store);
                self.counts.events += 1;
                self.counts.event_bytes += payload.len() as u64;
                self.counts.wal_bytes += if after_segment == segment {
                    after - before
                } else {
                    after
                };
            }
            {
                let pair = &shadow.pair;
                let primary = pair.primary.state();
                let journal = primary.journal.as_ref().expect("journaled primary");
                let t = Instant::now();
                pair.repl()
                    .append_and_publish(journal, payload.as_bytes(), &primary.metrics)
                    .map_err(|e| e.to_string())?;
                time(Layer::ReplAppendPublish, t);
            }
            if shadow.journal.due_for_snapshot() {
                let t = Instant::now();
                let image = ServerImage::capture(&state.registry, &state.finished, &state.adaptive);
                shadow
                    .journal
                    .write_snapshot(&image)
                    .map_err(|e| e.to_string())?;
                time(Layer::JournalSnapshot, t);
                if counting {
                    self.counts.snapshots += 1;
                    self.counts.snapshot_bytes += serde_json::to_string(&image)
                        .map_err(|e| e.to_string())?
                        .len() as u64;
                }
            }
        }
        let record = match (op, event) {
            (Op::Start { index, .. }, Some(SessionEvent::Created { options, .. })) => {
                let student = student(*index).parse().map_err(|e| format!("{e}"))?;
                let session =
                    ExamSession::start(&shadow.exam, shadow.problems.clone(), student, options)
                        .map_err(|e| e.to_string())?;
                shadow
                    .sessions
                    .insert(session.id().as_str().to_string(), session);
                None
            }
            (Op::Start { index, .. }, Some(SessionEvent::AdaptiveCreated { options, .. })) => {
                let student = student(*index).parse().map_err(|e| format!("{e}"))?;
                let sitting = AdaptiveSitting::start(
                    shadow.exam_id.clone(),
                    shadow.problems.clone(),
                    student,
                    options,
                )
                .map_err(|e| e.to_string())?;
                shadow.adaptive.insert(sitting.id().to_string(), sitting);
                None
            }
            (
                Op::Answer {
                    session,
                    answer,
                    secs,
                },
                _,
            ) => {
                let spent = Duration::try_from_secs_f64(*secs).map_err(|e| e.to_string())?;
                if let Some(sitting) = shadow.adaptive.get_mut(session) {
                    let t = Instant::now();
                    sitting
                        .answer(answer.clone(), spent)
                        .map_err(|e| format!("{e:?}"))?;
                    time(Layer::AdaptiveStep, t);
                } else {
                    let s = shadow
                        .sessions
                        .get_mut(session)
                        .ok_or("shadow session missing")?;
                    let t = Instant::now();
                    s.answer(answer.clone(), spent).map_err(|e| e.to_string())?;
                    time(Layer::DeliveryAnswer, t);
                }
                None
            }
            (Op::Pause { session }, _) => {
                let s = shadow
                    .sessions
                    .get_mut(session)
                    .ok_or("shadow session missing")?;
                s.pause().map_err(|e| e.to_string())?;
                None
            }
            (Op::Resume { session }, _) => {
                let s = shadow
                    .sessions
                    .get_mut(session)
                    .ok_or("shadow session missing")?;
                s.reactivate().map_err(|e| e.to_string())?;
                None
            }
            (Op::Finish { session, .. }, _) => {
                if let Some(sitting) = shadow.adaptive.remove(session) {
                    Some(sitting.finish()?)
                } else {
                    let mut s = shadow
                        .sessions
                        .remove(session)
                        .ok_or("shadow session missing")?;
                    let t = Instant::now();
                    let record = s.finish().map_err(|e| e.to_string())?;
                    time(Layer::DeliveryFinish, t);
                    Some(record)
                }
            }
            (Op::Analysis { batch }, _) => {
                let mut report = None;
                if !batch {
                    let t = Instant::now();
                    report = shadow.engine.report(EXAM, &shadow.problems).ok();
                    time(Layer::StreamReport, t);
                }
                let report = match report {
                    Some(report) => report,
                    // `?mode=batch`, or a class the engine cannot stream:
                    // the server runs the batch pipeline.
                    None => {
                        let class = ExamRecord::new(
                            shadow.exam_id.clone(),
                            shadow.records.values().cloned().collect(),
                        );
                        let t = Instant::now();
                        let report = shadow
                            .analyzer
                            .analyze_records(std::slice::from_ref(&class), &shadow.problems)
                            .map_err(|e| e.to_string())?;
                        time(Layer::AnalysisBatch, t);
                        report
                    }
                };
                let t = Instant::now();
                let body = serde_json::to_string(&report).map_err(|e| e.to_string())?;
                time(Layer::SerializeReport, t);
                if counting {
                    self.counts.reports += 1;
                    self.counts.report_bytes += body.len() as u64;
                }
                None
            }
            (Op::Scrape, _) => {
                let t = Instant::now();
                let text = state
                    .metrics
                    .snapshot(state.registry.len(), state.adaptive.len())
                    .to_prometheus();
                time(Layer::MetricsRender, t);
                std::hint::black_box(text);
                None
            }
            (Op::Start { .. }, _) => unreachable!("a start always journals an event"),
        };
        if let Some(record) = record {
            let t = Instant::now();
            let text = serde_json::to_string(&record).map_err(|e| e.to_string())?;
            time(Layer::SerializeRecord, t);
            std::hint::black_box(text);
            let (started, ended) = shadow.engine.with_exam(EXAM, |stream| {
                let t = Instant::now();
                stream.apply(&record);
                (t, Instant::now())
            });
            spans.push((Layer::StreamApply, started, ended));
            shadow
                .records
                .insert(record.student.as_str().to_string(), record);
        }
        for (layer, started, ended) in spans {
            self.span(id, op.kind(), layer, started, ended);
        }
        Ok(())
    }

    fn scrape_if_due(&mut self) -> Result<(), String> {
        if Instant::now() >= self.next_scrape {
            self.next_scrape = Instant::now() + Duration::from_secs(1);
            self.step(&Op::Scrape)?;
        }
        Ok(())
    }

    fn sit(&mut self, client: usize) -> Result<(), String> {
        let op = self.sitters[client].next_op()?;
        let body = self.step(&op)?;
        self.sitters[client].observe(&op, &body)
    }

    /// One round of `requests` requests in the workload's pattern,
    /// ending with no sitting open. Sitting workloads sit, then review;
    /// the dashboard alternates its reader and its sitter.
    fn round(&mut self, requests: u64) -> Result<(), String> {
        let start = self.driven;
        if self.ctx.args.workload.dashboard() {
            let mut turn = 0_u64;
            while self.driven - start < requests || !self.sitters[0].idle() {
                self.scrape_if_due()?;
                turn += 1;
                if turn.is_multiple_of(2) {
                    let op = self.reader.next_op();
                    self.step(&op)?;
                } else {
                    self.sit(0)?;
                }
            }
            return Ok(());
        }
        let sitting = (requests as f64 * SITTING_SHARE) as u64;
        let mut turn = 0_usize;
        while self.driven - start < sitting || !self.sitters.iter().all(Sitter::idle) {
            self.scrape_if_due()?;
            turn += 1;
            let mut client = turn % 2;
            if self.driven - start >= sitting && self.sitters[client].idle() {
                client = 1 - client;
            }
            self.sit(client)?;
        }
        for _ in sitting..requests {
            self.scrape_if_due()?;
            let op = self.reader.next_op();
            self.step(&op)?;
        }
        Ok(())
    }
}

/// Results of the two in-process passes.
struct Traced {
    spans: Vec<Span>,
    response_bytes: Vec<u64>,
    counts: Counts,
    recover_ns: u64,
    /// Mean real-path ns per request, untraced and traced.
    path_ns: [f64; 2],
    cache_hit_ratio: Option<f64>,
    quorum_timeouts: u64,
    requests: u64,
}

fn trace(ctx: &Context, budget: Duration) -> Result<Traced, String> {
    let started = Instant::now();
    let det = ctx.scale.det_requests as u64;
    let mut replay = Replay::new(ctx)?;
    let recover_ns = replay.recover(ctx.scale.setups)?;
    // Warm-up round, untraced.
    replay.round(det)?;

    // The first traced round's counts are the deterministic ones.
    let sync = if ctx.args.workload.replicated() {
        SyncPolicy::Always
    } else {
        DEFAULT_SYNC
    };
    replay.shadow = Some(Shadow::new(ctx, &replay.router, sync)?);
    // The traced pass opens with a scrape, so even a short one renders.
    replay.next_scrape = Instant::now();
    replay.counting = true;
    replay.round(det)?;
    replay.counting = false;
    let counts = replay.counts.clone();

    // Then untraced and traced rounds alternate, so the overhead
    // compares like with like.
    let deadline = started + budget;
    let mut alternating = false;
    while Instant::now() < deadline {
        if !alternating {
            replay.path = [(0, 0); 2];
            alternating = true;
        }
        let shadow = replay.shadow.take();
        replay.round(det)?;
        replay.shadow = shadow.map(|s| s.resync(&replay.router));
        replay.round(det)?;
    }
    let path_ns = replay.path.map(|(total, n)| total as f64 / n.max(1) as f64);
    let traced_requests = replay
        .spans
        .iter()
        .filter(|s| s.layer == Layer::RouterHandle)
        .count() as u64;
    let shadow = replay.shadow.as_ref().expect("traced pass");
    let cache = shadow.analyzer.cache_stats();
    let lookups = cache.hits + cache.misses;
    Ok(Traced {
        spans: std::mem::take(&mut replay.spans),
        response_bytes: std::mem::take(&mut replay.response_bytes),
        counts,
        recover_ns,
        path_ns,
        cache_hit_ratio: (lookups > 0).then(|| cache.hits as f64 / lookups as f64),
        quorum_timeouts: shadow.pair.quorum_timeouts(),
        requests: traced_requests,
    })
}

fn durations(traced: &Traced, layer: Layer, kind: Option<Kind>) -> Vec<u64> {
    let mut out: Vec<u64> = traced
        .spans
        .iter()
        .filter(|s| s.layer == layer && kind.is_none_or(|k| s.kind == k))
        .map(|s| s.duration_ns)
        .collect();
    out.sort_unstable();
    out
}

/// Router self time per request: the `Router::handle` span minus the
/// request's shadowed child calls. Signed: shadows are separate calls.
/// The router appends through replication only on a replicated workload
/// (that append includes the local store append), so exactly one of the
/// two shadowed appends is subtracted.
fn self_times(traced: &Traced, replicated: bool) -> Vec<i64> {
    #[derive(Default)]
    struct Parts {
        handle: i64,
        children: i64,
        store: i64,
        repl: i64,
    }
    let mut requests: BTreeMap<u32, Parts> = BTreeMap::new();
    for span in &traced.spans {
        let d = i64::try_from(span.duration_ns).unwrap_or(i64::MAX);
        let parts = requests.entry(span.request).or_default();
        match span.layer {
            Layer::RouterHandle => parts.handle += d,
            Layer::StoreAppend => parts.store += d,
            Layer::ReplAppendPublish => parts.repl += d,
            layer if layer.is_router_child() => parts.children += d,
            _ => {}
        }
    }
    let mut out: Vec<i64> = requests
        .into_values()
        .map(|p| p.handle - p.children - if replicated { p.repl } else { p.store })
        .collect();
    out.sort_unstable();
    out
}

fn run(args: &Args) -> Result<bool, String> {
    let ctx = Context::prepare(args)?;
    let served: Served = served::run(&ctx, args.seconds * SERVED_SHARE, 1)?;
    let traced = trace(
        &ctx,
        Duration::from_secs_f64(args.seconds * (1.0 - SERVED_SHARE)),
    )?;

    let mut metrics = Vec::new();
    let mut absent = Vec::new();
    let mut pct =
        |name: &str, samples: &[u64], q: f64, unit: &'static str| match percentile(samples, q) {
            Some(v) => metrics.push(Metric::new(name, v as f64, unit, samples.len())),
            None => absent.push(name.to_string()),
        };
    pct(
        "http.parse_ns.p50",
        &durations(&traced, Layer::HttpParse, None),
        0.5,
        "ns",
    );
    pct(
        "http.write_ns.p50",
        &durations(&traced, Layer::HttpWrite, None),
        0.5,
        "ns",
    );
    let mut bytes = traced.response_bytes.clone();
    bytes.sort_unstable();
    pct("http.response_bytes.p50", &bytes, 0.5, "bytes");
    for (kind, name) in [
        (Kind::Answer, "answer"),
        (Kind::Finish, "finish"),
        (Kind::Analysis, "analysis"),
    ] {
        pct(
            &format!("router.handle_ns.{name}.p50"),
            &durations(&traced, Layer::RouterHandle, Some(kind)),
            0.5,
            "ns",
        );
    }
    pct(
        "metrics.record_ns.p50",
        &durations(&traced, Layer::MetricsRecord, None),
        0.5,
        "ns",
    );
    pct(
        "metrics.render_ns.p50",
        &durations(&traced, Layer::MetricsRender, None),
        0.5,
        "ns",
    );
    pct(
        "journal.event_serialize_ns.p50",
        &durations(&traced, Layer::JournalSerialize, None),
        0.5,
        "ns",
    );
    pct(
        "journal.snapshot_ns.p50",
        &durations(&traced, Layer::JournalSnapshot, None),
        0.5,
        "ns",
    );
    let appends = durations(&traced, Layer::StoreAppend, None);
    pct("store.append_ns.p50", &appends, 0.5, "ns");
    pct("store.append_ns.p99", &appends, 0.99, "ns");
    let repl = durations(&traced, Layer::ReplAppendPublish, None);
    pct("repl.append_publish_ns.p50", &repl, 0.5, "ns");
    pct("repl.append_publish_ns.p99", &repl, 0.99, "ns");
    pct(
        "delivery.answer_ns.p50",
        &durations(&traced, Layer::DeliveryAnswer, None),
        0.5,
        "ns",
    );
    pct(
        "delivery.finish_ns.p50",
        &durations(&traced, Layer::DeliveryFinish, None),
        0.5,
        "ns",
    );
    let steps = durations(&traced, Layer::AdaptiveStep, None);
    pct("adaptive.step_ns.p50", &steps, 0.5, "ns");
    pct("adaptive.step_ns.p99", &steps, 0.99, "ns");
    let applies = durations(&traced, Layer::StreamApply, None);
    pct("streamstats.apply_ns.p50", &applies, 0.5, "ns");
    pct("streamstats.apply_ns.p99", &applies, 0.99, "ns");
    pct(
        "streamstats.report_ns.p50",
        &durations(&traced, Layer::StreamReport, None),
        0.5,
        "ns",
    );
    pct(
        "analysis.batch_ns.p50",
        &durations(&traced, Layer::AnalysisBatch, None),
        0.5,
        "ns",
    );
    pct(
        "serialize.report_ns.p50",
        &durations(&traced, Layer::SerializeReport, None),
        0.5,
        "ns",
    );
    pct(
        "serialize.record_ns.p50",
        &durations(&traced, Layer::SerializeRecord, None),
        0.5,
        "ns",
    );

    let selfs = self_times(&traced, args.workload.replicated());
    if let Some(&v) = selfs.get(selfs.len().saturating_sub(1) / 2) {
        metrics.push(Metric::new(
            "router.self_ns.p50",
            v as f64,
            "ns",
            selfs.len(),
        ));
    }
    let c = &traced.counts;
    let ratio = |num: u64, den: u64| {
        if den == 0 {
            0.0
        } else {
            num as f64 / den as f64
        }
    };
    metrics.push(Metric::new(
        "journal.recover_ns",
        traced.recover_ns as f64,
        "ns",
        ctx.scale.setups,
    ));
    metrics.push(Metric::new(
        "journal.event_bytes.mean",
        ratio(c.event_bytes, c.events),
        "bytes",
        c.events as usize,
    ));
    metrics.push(Metric::new(
        "journal.snapshot_bytes",
        ratio(c.snapshot_bytes, c.snapshots),
        "bytes",
        c.snapshots as usize,
    ));
    metrics.push(Metric::new(
        "journal.snapshots_per_1k_events",
        ratio(c.snapshots * 1000, c.events),
        "count",
        c.events as usize,
    ));
    metrics.push(Metric::new(
        "store.wal_bytes_per_payload_byte",
        ratio(c.wal_bytes, c.event_bytes),
        "ratio",
        c.events as usize,
    ));
    metrics.push(Metric::new(
        "serialize.report_bytes",
        ratio(c.report_bytes, c.reports),
        "bytes",
        c.reports as usize,
    ));
    metrics.push(Metric::new(
        "requests_per_sitting",
        ratio(c.sitting_requests, c.sittings),
        "count",
        c.sittings as usize,
    ));
    match traced.cache_hit_ratio {
        Some(r) => metrics.push(Metric::new("analysis.batch_cache_hit_ratio", r, "ratio", 1)),
        None => absent.push("analysis.batch_cache_hit_ratio".into()),
    }
    metrics.push(Metric::new(
        "repl.quorum_timeouts",
        traced.quorum_timeouts as f64,
        "count",
        1,
    ));
    let overhead = (traced.path_ns[1] / traced.path_ns[0] - 1.0) * 100.0;
    metrics.push(Metric::new(
        "trace.overhead_pct",
        overhead,
        "%",
        traced.requests as usize,
    ));

    // Reconciliation: the blocking layers' p50s against the untraced
    // end-to-end p50 of the same route.
    let mut notes = served.notes.clone();
    for (kind, name) in [
        (Kind::Answer, "answer"),
        (Kind::Finish, "finish"),
        (Kind::Analysis, "analysis"),
    ] {
        let p50 = |layer| {
            percentile(&durations(&traced, layer, Some(kind)), 0.5).unwrap_or(0) as f64 / 1e6
        };
        let (parse, handle, write) = (
            p50(Layer::HttpParse),
            p50(Layer::RouterHandle),
            p50(Layer::HttpWrite),
        );
        let sum = parse + handle + write;
        if let Some(e2e) = served.metric(&format!("{name}_p50_ms")) {
            notes.push(format!(
                "reconcile {name}: parse {parse:.4} + router.handle {handle:.4} + write {write:.4} = {sum:.4} ms \
                 in process vs {:.4} ms end to end untraced ({:.0}% in the blocking layers; the rest is socket, \
                 scheduling and client)",
                e2e.value,
                100.0 * sum / e2e.value
            ));
        }
    }
    notes.push(format!(
        "tracing overhead: real path (parse + handle + write) {:.2} us/request traced vs {:.2} us untraced \
         in alternating rounds ({overhead:+.1}%)",
        traced.path_ns[1] / 1e3,
        traced.path_ns[0] / 1e3,
    ));
    notes.push(format!(
        "counts (first {} traced requests, repeat exactly per seed): {:?}",
        ctx.scale.det_requests, traced.counts
    ));
    notes.push(format!(
        "traced pass: {} requests, {} spans",
        traced.requests,
        traced.spans.len()
    ));
    for name in &absent {
        notes.push(format!(
            "layer {name}: absent (the workload does not exercise it)"
        ));
    }
    for (layer, moves) in PREDICTIONS {
        notes.push(format!("layer {layer}* should move {moves}"));
    }

    // The JSON carries the layers every workload exercises; the others
    // are printed as notes.
    let mut listed = Vec::new();
    for (name, unit) in PER_LAYER {
        let metric = metrics
            .iter()
            .find(|m| m.name == name)
            .ok_or_else(|| format!("per-layer metric {name} was not measured"))?;
        if metric.unit != unit {
            return Err(format!(
                "per-layer metric {name} has unit {} not {unit}",
                metric.unit
            ));
        }
        listed.push(metric.clone());
    }
    for failure in &served.failures {
        eprintln!("servebench-trace: check failed: {failure}");
    }
    let extra: Vec<String> = metrics
        .iter()
        .filter(|m| !PER_LAYER.iter().any(|(n, _)| *n == m.name))
        .map(|m| {
            format!(
                "metric {:<40} {:>16} {:<6} n={} (not in the JSON)",
                m.name, m.value, m.unit, m.samples
            )
        })
        .collect();
    notes.extend(extra);
    let correct = served.failures.is_empty() && served.failed == 0;
    report::print(
        &report::header(args),
        &notes,
        correct,
        served.attempted + traced.requests,
        served.failed,
        &listed,
    );
    Ok(correct)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&raw) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("servebench-trace: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("servebench-trace: {e}");
            ExitCode::FAILURE
        }
    }
}
