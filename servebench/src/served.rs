//! The served path: boot real `mine serve` nodes, drive them from two
//! closed-loop client connections plus a once-a-second `/metrics`
//! scraper, check the outputs, and compute the end-to-end metrics.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

use mine_analysis::{AnalysisConfig, BatchAnalyzer};
use mine_core::{ExamRecord, StudentRecord};
use mine_itembank::{Problem, Repository};
use mine_streamstats::StreamEngine;

use crate::actors::{self, Actor, Kind, Op, Reader, Sitter};
use crate::bank::{self, Key, EXAM};
use crate::procs::{self, build_mine, run_tool, Node, RunDir};
use crate::report::{median, percentile, Metric, END_TO_END};
use crate::wire::Conn;
use crate::{Args, Scale};

const WARMUP: u8 = 0;
const MEASURE: u8 = 1;
/// Sitting workloads: sitters finish their sitting and turn readers.
const REVIEW: u8 = 2;
const STOP: u8 = 3;

/// Share of each cycle of a sitting workload spent sitting; the rest is
/// the teacher's review of the class.
const SITTING_SHARE: f64 = 0.8;

/// How long a drained node may take to exit.
const STOP_TIMEOUT: Duration = Duration::from_secs(30);

/// Everything a run shares: the built server, the scratch directory,
/// the seeded bank and the respondents' key.
#[derive(Debug)]
pub struct Context {
    /// Parsed arguments.
    pub args: Args,
    /// Run sizes.
    pub scale: Scale,
    /// The `mine` binary.
    pub mine: PathBuf,
    /// Scratch directory (removed on drop).
    pub run: RunDir,
    /// The calibrated bank file the server loads.
    pub bank_path: PathBuf,
    /// The same bank, in process.
    pub repository: Repository,
    /// The exam's problems.
    pub problems: Vec<Problem>,
    /// What simulated students answer.
    pub key: Arc<Key>,
}

impl Context {
    /// Builds `mine`, writes the seeded bank and calibrates it with
    /// `mine calibrate --auto`.
    ///
    /// # Errors
    ///
    /// Any build, I/O or bank failure.
    pub fn prepare(args: &Args) -> Result<Self, String> {
        let mine = build_mine()?;
        let run = RunDir::create()?;
        let bank_path = run.path().join("bank.json");
        bank::save(&bank::generate(args.seed)?, &bank_path)?;
        run_tool(&mine, &["calibrate", path_str(&bank_path)?, "--auto"])?;
        let repository = bank::load(&bank_path)?;
        let key = Arc::new(Key::from_repository(&repository)?);
        let (_, problems) = repository
            .resolve_exam(&EXAM.parse().map_err(|err| format!("{err}"))?)
            .map_err(|err| err.to_string())?;
        Ok(Self {
            args: args.clone(),
            scale: args.scale(),
            mine,
            run,
            bank_path,
            repository,
            problems,
            key,
        })
    }
}

fn path_str(path: &Path) -> Result<&str, String> {
    path.to_str()
        .ok_or_else(|| format!("{} is not UTF-8", path.display()))
}

/// The outcome of a served run.
#[derive(Debug, Default)]
pub struct Served {
    /// The end-to-end metrics.
    pub metrics: Vec<Metric>,
    /// Header lines: node command lines and check results.
    pub notes: Vec<String>,
    /// Requests attempted (clients, scrapes and checks).
    pub attempted: u64,
    /// Requests that failed, errored in transport or got an
    /// unexpected status.
    pub failed: u64,
    /// Correctness checks that did not hold.
    pub failures: Vec<String>,
}

impl Served {
    /// The metric called `name`, if measured.
    #[must_use]
    pub fn metric(&self, name: &str) -> Option<&Metric> {
        self.metrics.iter().find(|m| m.name == name)
    }
}

struct Cluster {
    primary: Node,
    follower: Option<Node>,
}

/// Launches the workload's node(s) on `dirs` (primary first) and times
/// launch → first successful request. `extra` flags go to the primary.
fn launch(ctx: &Context, dirs: &[PathBuf], extra: &[&str]) -> Result<(Cluster, f64), String> {
    let workload = ctx.args.workload;
    let bank = path_str(&ctx.bank_path)?.to_string();
    let mut args = vec![
        bank.clone(),
        "--addr".into(),
        "127.0.0.1:0".into(),
        "--data-dir".into(),
        path_str(&dirs[0])?.to_string(),
    ];
    args.extend(
        workload
            .primary_flags()
            .iter()
            .chain(extra)
            .map(|s| (*s).to_string()),
    );
    let started = Instant::now();
    let primary = Node::launch(&ctx.mine, &args, &ctx.run.path().join("primary.log"))?;
    let follower = match (&primary.repl_addr, dirs.get(1)) {
        (Some(repl), Some(dir)) => {
            let args = vec![
                bank,
                "--addr".into(),
                "127.0.0.1:0".into(),
                "--data-dir".into(),
                path_str(dir)?.to_string(),
                "--fsync".into(),
                "always".into(),
                "--replica-of".into(),
                repl.clone(),
            ];
            Some(Node::launch(
                &ctx.mine,
                &args,
                &ctx.run.path().join("follower.log"),
            )?)
        }
        _ => None,
    };
    let mut conn = Conn::connect(&primary.addr)
        .map_err(|err| format!("connecting {}: {err}", primary.addr))?;
    if follower.is_some() {
        // Quorum acks need the follower attached before any write.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let (_, text) = conn
                .get("/metrics")
                .map_err(|err| format!("scraping: {err}"))?;
            if prom_value(&text, "mine_repl_followers").is_some_and(|n| n >= 1.0) {
                break;
            }
            if Instant::now() > deadline {
                return Err("the follower never attached to the primary".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }
    let (status, _) = conn
        .get("/healthz")
        .map_err(|err| format!("healthz: {err}"))?;
    if status != 200 {
        return Err(format!("healthz answered {status}"));
    }
    Ok((
        Cluster { primary, follower },
        started.elapsed().as_secs_f64(),
    ))
}

/// Parses an unlabelled sample from Prometheus text.
#[must_use]
pub fn prom_value(text: &str, name: &str) -> Option<f64> {
    text.lines().find_map(|line| {
        line.strip_prefix(name)?
            .strip_prefix(' ')?
            .trim()
            .parse()
            .ok()
    })
}

/// One measured request.
#[derive(Debug, Clone, Copy)]
struct Sample {
    kind: Kind,
    /// Start, in ns since the timed phase began.
    at_ns: u64,
    latency_ns: u64,
}

#[derive(Debug)]
struct ClientLog {
    samples: Vec<Sample>,
    attempted: u64,
    failed: u64,
    error: Option<String>,
    /// Finishes since the node started (warm-up included).
    finished_total: u64,
    sitter: Option<Sitter>,
}

fn nanos(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Shared state of the timed phase, set by the main thread.
struct Clock {
    phase: AtomicU8,
    /// Bumped at every window start: clients reconnect when they next
    /// sit idle, so each window draws its own server worker thread and
    /// CPU placement instead of one placement deciding the whole run.
    window: AtomicUsize,
    start: OnceLock<Instant>,
}

/// Drives one client until `STOP`. During a sitting workload's review
/// phases client `reads_in_review` finishes its sitting and reads the analysis as
/// the teacher would; the other client waits, so one read runs at a time.
fn client_loop(addr: &str, mut actor: Actor, reads_in_review: bool, clock: &Clock) -> ClientLog {
    let mut log = ClientLog {
        samples: Vec::new(),
        attempted: 0,
        failed: 0,
        error: None,
        finished_total: 0,
        sitter: None,
    };
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(err) => {
            log.attempted = 1;
            log.failed = 1;
            log.error = Some(format!("connecting {addr}: {err}"));
            return log;
        }
    };
    let mut teacher = Reader::default();
    let mut window = clock.window.load(Ordering::Acquire);
    loop {
        let now_phase = clock.phase.load(Ordering::Acquire);
        if now_phase == STOP && actor.idle() {
            break;
        }
        let reviewing = now_phase == REVIEW && actor.idle() && matches!(actor, Actor::Sitter(_));
        if reviewing && !reads_in_review {
            std::thread::sleep(Duration::from_millis(1));
            continue;
        }
        if actor.idle() && clock.window.load(Ordering::Acquire) != window {
            window = clock.window.load(Ordering::Acquire);
            match Conn::connect(addr) {
                Ok(fresh) => conn = fresh,
                Err(err) => {
                    log.attempted += 1;
                    log.failed += 1;
                    log.error = Some(format!("reconnecting {addr}: {err}"));
                    break;
                }
            }
        }
        let op = if reviewing {
            Ok(teacher.next_op())
        } else {
            actor.next_op()
        };
        let op = match op {
            Ok(op) => op,
            Err(err) => {
                log.error = Some(err);
                break;
            }
        };
        let request = op.encode();
        let started = Instant::now();
        let reply = conn.exchange(&request);
        let elapsed = started.elapsed();
        log.attempted += 1;
        let outcome = reply
            .map_err(|err| format!("{} {}: {err}", op.target().0, op.target().1))
            .and_then(|(status, body)| {
                if reviewing {
                    actors::check_status(&op, status, &body)
                } else {
                    actor.observe(&op, status, &body)
                }
            });
        if let Err(err) = outcome {
            log.failed += 1;
            log.error = Some(err);
            break;
        }
        if op.kind() == Kind::Finish {
            log.finished_total += 1;
        }
        if let Some(&start) = clock
            .start
            .get()
            .filter(|_| now_phase != WARMUP && now_phase != STOP)
        {
            log.samples.push(Sample {
                kind: op.kind(),
                at_ns: nanos(started.saturating_duration_since(start)),
                latency_ns: nanos(elapsed),
            });
        }
    }
    if let Actor::Sitter(sitter) = actor {
        log.sitter = Some(sitter);
    }
    log
}

/// What the once-a-second scraper saw.
#[derive(Debug, Default)]
struct Scrapes {
    attempted: u64,
    failed: u64,
    error: Option<String>,
    /// The primary's resident set (MiB), sampled with each timed scrape.
    rss_mb: Vec<f64>,
}

/// Scrapes `/metrics` once a second until `STOP`, sampling the
/// primary's resident set alongside during the timed phase.
fn scrape_loop(addr: &str, pid: u32, clock: &Clock) -> Scrapes {
    let mut seen = Scrapes::default();
    let mut conn = match Conn::connect(addr) {
        Ok(conn) => conn,
        Err(err) => {
            seen.attempted = 1;
            seen.failed = 1;
            seen.error = Some(format!("scraper connecting: {err}"));
            return seen;
        }
    };
    let request = Op::Scrape.encode();
    loop {
        let phase = clock.phase.load(Ordering::Acquire);
        if phase == STOP {
            return seen;
        }
        seen.attempted += 1;
        match conn.exchange(&request) {
            Ok((200, _)) => {}
            Ok((status, _)) => {
                seen.failed = 1;
                seen.error = Some(format!("/metrics answered {status}"));
                return seen;
            }
            Err(err) => {
                seen.failed = 1;
                seen.error = Some(format!("/metrics: {err}"));
                return seen;
            }
        }
        if phase != WARMUP {
            match procs::memory_mb(pid, "VmRSS") {
                Ok(mb) => seen.rss_mb.push(mb),
                Err(err) => seen.error = Some(err),
            }
        }
        let next = Instant::now() + Duration::from_secs(1);
        while Instant::now() < next && clock.phase.load(Ordering::Acquire) != STOP {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// Runs sitters until each has sat its whole roster once (the
/// dashboard's class), returning them with their filed records.
fn fill_class(addr: &str, sitters: Vec<Sitter>) -> Result<Vec<Sitter>, String> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = sitters
            .into_iter()
            .map(|sitter| {
                scope.spawn(move || -> Result<Sitter, String> {
                    let mut conn = Conn::connect(addr).map_err(|err| format!("prefill connecting: {err}"))?;
                    let mut actor = Actor::Sitter(sitter);
                    while !matches!(&actor, Actor::Sitter(s) if s.idle() && s.finished >= s.roster_len() as u64) {
                        let op = actor.next_op()?;
                        let (status, body) = conn.exchange(&op.encode()).map_err(|err| format!("prefill: {err}"))?;
                        actor.observe(&op, status, &body)?;
                    }
                    match actor {
                        Actor::Sitter(sitter) => Ok(sitter),
                        Actor::Reader(_) => unreachable!("prefill drives sitters only"),
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|handle| handle.join().expect("prefill client panicked"))
            .collect()
    })
}

/// Runs the workload's served path for `seconds` of timed load, with
/// `setups` launches behind `setup_s`.
///
/// # Errors
///
/// A failure that leaves nothing to measure (a node that does not come
/// up, a failed prefill). Failed requests and checks are reported in
/// [`Served`] instead.
pub fn run(ctx: &Context, seconds: f64, setups: usize) -> Result<Served, String> {
    let workload = ctx.args.workload;
    let mut served = Served::default();
    let names: &[&str] = if workload.replicated() {
        &["primary", "follower"]
    } else {
        &["primary"]
    };
    // Emptied data directories, primary first.
    let fresh = || -> Result<Vec<PathBuf>, String> {
        names.iter().map(|name| ctx.run.fresh(name)).collect()
    };
    let mut dirs = Vec::new();

    // Set-up: launch → first successful request, several times. The
    // dashboard restarts on its pre-filled journal, so there it is
    // restart-recovery time.
    let mut setup_times = Vec::with_capacity(setups);
    let mut rest_rss = Vec::with_capacity(setups);
    let mut prefilled: Vec<Sitter> = Vec::new();
    let mut cluster = None;
    if workload.dashboard() {
        dirs = fresh()?;
        // Snapshots are off while filling: the drain before the first
        // timed launch writes the one snapshot recovery starts from.
        let (first, _) = launch(ctx, &dirs, &["--snapshot-every", "0"])?;
        prefilled = fill_class(
            &first.primary.addr,
            actors::prefill(&ctx.key, ctx.args.seed, ctx.scale.roster),
        )?;
        cluster = Some(first);
    }
    for _ in 0..setups.max(1) {
        if let Some(previous) = cluster.take() {
            stop(previous)?;
        }
        if !workload.dashboard() {
            dirs = fresh()?;
        }
        let (next, secs) = launch(ctx, &dirs, &[])?;
        setup_times.push(secs);
        rest_rss.push(procs::memory_mb(next.primary.pid(), "VmRSS")?);
        cluster = Some(next);
    }
    let cluster = cluster.expect("at least one launch");
    served
        .notes
        .push(format!("primary: {}", cluster.primary.argv));
    if let Some(follower) = &cluster.follower {
        served.notes.push(format!("follower: {}", follower.argv));
    }

    // The timed phase: sitting workloads alternate sitting and review
    // in cycles, so both phases sample the whole run; the dashboard is
    // cut into equal windows. Metrics are medians over windows.
    let addr = cluster.primary.addr.clone();
    let clock = Clock {
        phase: AtomicU8::new(WARMUP),
        window: AtomicUsize::new(0),
        start: OnceLock::new(),
    };
    let windows = windows(workload.dashboard(), seconds, ctx.scale.cycles);
    let actors = actors::clients(workload, &ctx.key, ctx.args.seed, ctx.scale.roster);
    let (addr, clock) = (&addr, &clock);
    let (logs, scrape) = std::thread::scope(|scope| {
        let clients: Vec<_> = actors
            .into_iter()
            .enumerate()
            .map(|(index, actor)| scope.spawn(move || client_loop(addr, actor, index == 0, clock)))
            .collect();
        let pid = cluster.primary.pid();
        let scraper = scope.spawn(move || scrape_loop(addr, pid, clock));
        std::thread::sleep(ctx.scale.warmup);
        let began = *clock.start.get_or_init(Instant::now);
        for (k, window) in windows.iter().enumerate() {
            sleep_until(began + Duration::from_nanos(window.start_ns));
            clock.phase.store(
                if window.sitting { MEASURE } else { REVIEW },
                Ordering::Release,
            );
            clock.window.store(k + 1, Ordering::Release);
        }
        sleep_until(began + Duration::from_secs_f64(seconds));
        clock.phase.store(STOP, Ordering::Release);
        let logs: Vec<ClientLog> = clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect();
        (logs, scraper.join().expect("scraper panicked"))
    });
    let peak = procs::memory_mb(cluster.primary.pid(), "VmHWM")?;
    served
        .notes
        .push(format!("primary peak RSS (VmHWM) {peak:.1} MiB"));

    served.attempted = scrape.attempted + logs.iter().map(|l| l.attempted).sum::<u64>();
    served.failed = scrape.failed + logs.iter().map(|l| l.failed).sum::<u64>();
    served.failures.extend(scrape.error);
    if !scrape.rss_mb.is_empty() {
        served.notes.push(format!(
            "primary resident set under load {:.1} MiB (median of {} samples)",
            median(&scrape.rss_mb),
            scrape.rss_mb.len()
        ));
    }
    served
        .failures
        .extend(logs.iter().filter_map(|l| l.error.clone()));

    // Memory at rest after set-up repeats to the page; under load it
    // swings with allocator timing, so that is a note, not the metric.
    let rss = Metric::new("server_rss_mb", median(&rest_rss), "MiB", rest_rss.len());
    let measured = end_to_end(
        &logs,
        &windows,
        median(&setup_times),
        setup_times.len(),
        rss,
    )
    .map_err(|err| format!("{err}; {}", served.failures.join("; ")))?;
    // The analysis tail is printed but not bounded: reads that overlap a
    // snapshot or a batch read set it, and it varied by over a quarter
    // between seeds.
    for m in measured {
        if END_TO_END.iter().any(|(name, _)| *name == m.name) {
            served.metrics.push(m);
        } else {
            served.notes.push(format!(
                "metric {} {} {} n={} (not bounded)",
                m.name, m.value, m.unit, m.samples
            ));
        }
    }

    // Correctness.
    let mut filed: BTreeMap<usize, String> = BTreeMap::new();
    for sitter in prefilled
        .iter()
        .chain(logs.iter().filter_map(|l| l.sitter.as_ref()))
    {
        filed.extend(sitter.filed.iter().map(|(k, v)| (*k, v.clone())));
    }
    let finished: u64 = logs.iter().map(|l| l.finished_total).sum();
    let mut conn = Conn::connect(addr).map_err(|err| format!("connecting for checks: {err}"))?;
    let check = |served: &mut Served, result: Result<String, String>| {
        served.attempted += 2;
        match result {
            Ok(note) => served.notes.push(format!("check ok: {note}")),
            Err(failure) => served.failures.push(failure),
        }
    };
    check(&mut served, check_sessions(&mut conn, finished));
    check(&mut served, check_analysis(&mut conn, ctx, &filed));
    if let Some(follower) = cluster.follower.as_ref() {
        check(&mut served, check_follower(&mut conn, &follower.addr));
    }
    drop(conn);
    if workload.replicated() {
        let audit = stop(cluster).and_then(|()| {
            let mut args = vec!["audit"];
            for dir in &dirs {
                args.push(path_str(dir)?);
            }
            args.extend(["--db", path_str(&ctx.bank_path)?]);
            run_tool(&ctx.mine, &args)
                .map(|_| "mine audit passed on the primary and follower journals".to_string())
        });
        check(&mut served, audit);
    }
    Ok(served)
}

fn sleep_until(deadline: Instant) {
    let now = Instant::now();
    if deadline > now {
        std::thread::sleep(deadline - now);
    }
}

fn stop(cluster: Cluster) -> Result<(), String> {
    if let Some(follower) = cluster.follower {
        follower.stop(STOP_TIMEOUT)?;
    }
    cluster.primary.stop(STOP_TIMEOUT)
}

/// A window needs this many samples of a series to contribute its own
/// percentile; with fewer than three such windows the percentile is
/// taken over the whole phase.
const MIN_WINDOW_SAMPLES: usize = 10;

/// A slice of the timed phase.
#[derive(Debug, Clone, Copy)]
struct Window {
    start_ns: u64,
    end_ns: u64,
    /// Sittings run in it.
    sitting: bool,
    /// Analysis reads run in it.
    reading: bool,
    cycle: usize,
}

fn windows(dashboard: bool, seconds: f64, cycles: usize) -> Vec<Window> {
    let total = seconds * 1e9;
    if dashboard {
        let n = cycles;
        return (0..n)
            .map(|k| Window {
                start_ns: (total * k as f64 / n as f64) as u64,
                end_ns: (total * (k + 1) as f64 / n as f64) as u64,
                sitting: true,
                reading: true,
                cycle: k,
            })
            .collect();
    }
    (0..cycles)
        .flat_map(|c| {
            let from = total * c as f64 / cycles as f64;
            let to = total * (c + 1) as f64 / cycles as f64;
            let review = from + (to - from) * SITTING_SHARE;
            [
                Window {
                    start_ns: from as u64,
                    end_ns: review as u64,
                    sitting: true,
                    reading: false,
                    cycle: c,
                },
                Window {
                    start_ns: review as u64,
                    end_ns: to as u64,
                    sitting: false,
                    reading: true,
                    cycle: c,
                },
            ]
        })
        .collect()
}

fn end_to_end(
    logs: &[ClientLog],
    windows: &[Window],
    setup_s: f64,
    setups: usize,
    rss: Metric,
) -> Result<Vec<Metric>, String> {
    let samples: Vec<Sample> = logs
        .iter()
        .flat_map(|l| l.samples.iter().copied())
        .collect();
    let within = |from: u64, to: u64| {
        samples
            .iter()
            .filter(move |s| (from..to).contains(&s.at_ns))
    };
    let count = |kinds: &[Kind]| samples.iter().filter(|s| kinds.contains(&s.kind)).count();
    // Median over windows of the per-window percentile; the whole phase
    // when too few windows have enough samples.
    let pct = |name: &str, kind: Kind, q: f64, reading: bool| -> Result<Metric, String> {
        let mut per_window = Vec::new();
        for w in windows
            .iter()
            .filter(|w| if reading { w.reading } else { w.sitting })
        {
            let mut lat: Vec<u64> = within(w.start_ns, w.end_ns)
                .filter(|s| s.kind == kind)
                .map(|s| s.latency_ns)
                .collect();
            if lat.len() >= MIN_WINDOW_SAMPLES {
                lat.sort_unstable();
                per_window.extend(percentile(&lat, q).map(|ns| ns as f64 / 1e6));
            }
        }
        let n = count(&[kind]);
        if per_window.len() >= 3 {
            return Ok(Metric::new(name, median(&per_window), "ms", n));
        }
        let mut all: Vec<u64> = samples
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.latency_ns)
            .collect();
        all.sort_unstable();
        percentile(&all, q)
            .map(|ns| Metric::new(name, ns as f64 / 1e6, "ms", n))
            .ok_or_else(|| format!("timed phase too short: no samples for {name}"))
    };
    // Median over windows of a per-second rate.
    let rate = |name: &str, kinds: &[Kind], spans: Vec<(u64, u64)>| -> Result<Metric, String> {
        let rates: Vec<f64> = spans
            .iter()
            .map(|&(from, to)| {
                within(from, to).filter(|s| kinds.contains(&s.kind)).count() as f64
                    / ((to - from) as f64 / 1e9)
            })
            .collect();
        let n = count(kinds);
        if n == 0 || rates.is_empty() {
            return Err(format!("timed phase too short: no samples for {name}"));
        }
        Ok(Metric::new(name, median(&rates), "1/s", n))
    };
    let span = |w: &Window| (w.start_ns, w.end_ns);
    let cycles: Vec<(u64, u64)> = (0..=windows.iter().map(|w| w.cycle).max().unwrap_or(0))
        .filter_map(|c| {
            let mut of = windows.iter().filter(|w| w.cycle == c);
            let first = of.next()?;
            Some((first.start_ns, of.next_back().unwrap_or(first).end_ns))
        })
        .collect();
    let all_kinds = [
        Kind::Start,
        Kind::Answer,
        Kind::PauseResume,
        Kind::Finish,
        Kind::Analysis,
        Kind::Batch,
    ];
    Ok(vec![
        Metric::new("setup_s", setup_s, "s", setups),
        rate(
            "sittings_per_s",
            &[Kind::Finish],
            windows.iter().filter(|w| w.sitting).map(span).collect(),
        )?,
        rate("requests_per_s", &all_kinds, cycles)?,
        pct("answer_p50_ms", Kind::Answer, 0.50, false)?,
        pct("answer_p90_ms", Kind::Answer, 0.90, false)?,
        pct("finish_p50_ms", Kind::Finish, 0.50, false)?,
        pct("finish_p90_ms", Kind::Finish, 0.90, false)?,
        pct("analysis_p50_ms", Kind::Analysis, 0.50, true)?,
        pct("analysis_p90_ms", Kind::Analysis, 0.90, true)?,
        pct("batch_read_p50_ms", Kind::Batch, 0.50, true)?,
        rate(
            "analysis_reads_per_s",
            &[Kind::Analysis, Kind::Batch],
            windows.iter().filter(|w| w.reading).map(span).collect(),
        )?,
        rss,
    ])
}

/// Every session started has finished and none is left resident.
fn check_sessions(conn: &mut Conn, client_finishes: u64) -> Result<String, String> {
    let (status, text) = conn
        .get("/metrics")
        .map_err(|err| format!("/metrics: {err}"))?;
    if status != 200 {
        return Err(format!("/metrics answered {status}"));
    }
    let value =
        |name: &str| prom_value(&text, name).ok_or_else(|| format!("/metrics has no {name}"));
    let started =
        value("mine_sessions_started_total")? + value("mine_adaptive_sessions_started_total")?;
    let finished =
        value("mine_sessions_finished_total")? + value("mine_adaptive_sessions_finished_total")?;
    let active = value("mine_active_sessions")? + value("mine_adaptive_sessions_active")?;
    if started != finished || active != 0.0 || finished != client_finishes as f64 {
        return Err(format!(
            "sessions: {started} started, {finished} finished, {active} active; clients finished {client_finishes}"
        ));
    }
    Ok(format!("{started} sessions started = finished, 0 active"))
}

/// The served analysis, streaming and batch, is byte-identical to a
/// report computed in process over the records the clients filed.
fn check_analysis(
    conn: &mut Conn,
    ctx: &Context,
    filed: &BTreeMap<usize, String>,
) -> Result<String, String> {
    let records = filed
        .values()
        .map(|body| {
            serde_json::from_str::<StudentRecord>(body)
                .map_err(|err| format!("finish reply: {err}"))
        })
        .collect::<Result<Vec<_>, _>>()?;
    let config = AnalysisConfig::default();
    let engine = StreamEngine::new(config);
    for record in &records {
        engine.apply(EXAM, record);
    }
    let class = ExamRecord::new(EXAM.parse().map_err(|err| format!("{err}"))?, records);
    let batch = BatchAnalyzer::new(config)
        .analyze_records(std::slice::from_ref(&class), &ctx.problems)
        .map_err(|err| format!("in-process analysis: {err}"))?;
    let expected = serde_json::to_string(&batch).map_err(|err| err.to_string())?;
    if let Ok(streamed) = engine.report(EXAM, &ctx.problems) {
        if serde_json::to_string(&streamed).map_err(|err| err.to_string())? != expected {
            return Err("in-process streaming and batch reports differ".into());
        }
    }
    for query in ["", "?mode=batch"] {
        let (status, body) = conn
            .get(&format!("/exams/{EXAM}/analysis{query}"))
            .map_err(|err| format!("analysis{query}: {err}"))?;
        if status != 200 || body != expected {
            return Err(format!(
                "served analysis{query} ({status}, {} bytes) differs from the in-process report ({} bytes)",
                body.len(),
                expected.len()
            ));
        }
    }
    Ok(format!(
        "served analysis (streaming and batch) equals the in-process report over {} records",
        class.students.len()
    ))
}

fn healthz_seq(conn: &mut Conn) -> Result<u64, String> {
    let (status, body) = conn
        .get("/healthz")
        .map_err(|err| format!("/healthz: {err}"))?;
    let value: serde::Value =
        serde_json::from_str(&body).map_err(|err| format!("/healthz: {err}"))?;
    match value.get("last_applied_seq") {
        Some(serde::Value::Number(serde::Number::PosInt(seq))) if status == 200 => Ok(*seq),
        _ => Err(format!(
            "/healthz answered {status} without last_applied_seq"
        )),
    }
}

/// The follower has applied everything the primary journaled.
fn check_follower(primary: &mut Conn, follower_addr: &str) -> Result<String, String> {
    let head = healthz_seq(primary)?;
    let mut follower =
        Conn::connect(follower_addr).map_err(|err| format!("connecting follower: {err}"))?;
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let applied = healthz_seq(&mut follower)?;
        if applied == head {
            return Ok(format!(
                "follower last_applied_seq {applied} = primary head"
            ));
        }
        if Instant::now() > deadline {
            return Err(format!(
                "follower last_applied_seq {applied}, primary head {head}"
            ));
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}
