//! `mine` — the command-line face of the assessment authoring system.
//!
//! A hand-rolled CLI (the sanctioned dependency set has no argument
//! parser) exposing the §5 workflows over a JSON database file:
//!
//! ```text
//! mine init <db.json>                          create an empty database
//! mine add-tf <db> <id> <subject> <level> <true|false> <stem…>
//! mine add-choice <db> <id> <subject> <level> <correct> <stem> <opt>…
//! mine add-exam <db> <exam-id> <title> <problem-id>…
//! mine list <db>                               list problems and exams
//! mine search <db> <terms…>                    free-text search
//! mine export-scorm <db> <exam-id> <out-dir>   write a SCORM package tree
//! mine simulate <db> <exam-id> <class> <seed>  simulate a sitting, print the report
//! mine batch-analyze <db> <exam-id> <cohorts> <class> <seed> [--threads N]
//!                                              simulate many sittings, analyze them
//!                                              concurrently, print the batch summary
//! mine tree <db> <problem-id>                  print the Figure 1 metadata tree
//! mine serve <db> [--addr H:P] [--threads N] [--data-dir DIR]
//!            [--fsync POLICY] [--snapshot-every N] [--queue-depth N]
//!            [--rate-limit RPS[:BURST]] [--drain-deadline SECS]
//!            [--repl-addr H:P] [--replica-of H:P] [--replicate ack=leader|quorum]
//!            [--scrub-interval MS]
//!                                              serve the sitting lifecycle over HTTP;
//!                                              with --data-dir every session event is
//!                                              journaled to a durable WAL and replayed
//!                                              on restart. --repl-addr ships the WAL to
//!                                              followers; --replica-of mirrors a primary
//!                                              (reads served locally, writes answered
//!                                              421 naming the leader). SIGTERM/SIGINT
//!                                              drains: in-flight requests finish, active
//!                                              sessions pause through the journal, a
//!                                              final snapshot is written, exit 0
//! mine promote <addr>                          supervised failover: tell the follower at
//!                                              <addr> to stop following, bump its durable
//!                                              epoch, and start serving writes
//! mine recover <dir>                           inspect a journal directory offline:
//!                                              replay the log, repair torn tails,
//!                                              print the event summary
//! mine audit <dir>... [--db DB] [--json]       offline invariant check over one or more
//!                                              journal directories: per-node CRC/sequence/
//!                                              epoch integrity, cross-node acked-prefix
//!                                              containment, and (with --db) replay
//!                                              equality; non-zero exit on any violation;
//!                                              --json prints the machine-readable report
//! mine scrub <dir> [--json]                    offline anti-entropy pass: re-verify the
//!                                              CRC and framing of every WAL segment and
//!                                              the newest snapshot, print per-segment
//!                                              verdicts and the per-window range hashes;
//!                                              non-zero exit on corruption (same contract
//!                                              as audit)
//! mine calibrate <db> <problem-id> <a> <b> <c> attach 3PL item parameters to a problem
//! mine calibrate <db> --auto                   calibrate the whole bank with a spread
//!                                              of difficulties (adaptive delivery needs
//!                                              every served item calibrated)
//! mine loadgen <addr> <exam-id> [--clients N] [--seed S] [--ramp SECS]
//!              [--mode fixed|adaptive|mixed] [--db DB]
//!                                              drive a running server with concurrent
//!                                              deterministic clients; adaptive/mixed
//!                                              modes simulate IRT respondents and need
//!                                              --db to build the answer key
//! ```

use std::process::ExitCode;

use mine_assessment::analysis::{render_full_report, AnalysisConfig, BatchAnalyzer, ExamAnalysis};
use mine_assessment::core::{CognitionLevel, OptionKey};
use mine_assessment::itembank::{
    Calibration, ChoiceOption, Exam, Problem, Query, Repository, RepositorySnapshot,
};
use mine_assessment::scorm::ContentPackage;
use mine_assessment::server::{
    audit_dirs, decode_events, open_journaled_state, run_loadgen, start_follower, AckMode,
    AnswerKey, FailoverConfig, HttpClient, LoadGenOptions, LoadMode, RateLimit, ReplListener,
    ReplState, Role, Router, Scrubber, ServeOptions, Server, DEFAULT_FAILOVER_TIMEOUT,
    DEFAULT_SCRUB_INTERVAL,
};
use mine_assessment::simulator::{CohortSpec, Simulation};
use mine_assessment::store::{
    scrub_dir, EventStore, FaultPlan, ScrubReport, SnapshotReport, StoreOptions, SyncPolicy,
};
use serde::{Serialize, Value};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}");
            eprintln!("{USAGE}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
usage:
  mine init <db.json>
  mine add-tf <db> <id> <subject> <level A-F> <true|false> <stem...>
  mine add-choice <db> <id> <subject> <level A-F> <correct A-Z> <stem> <option>...
  mine add-exam <db> <exam-id> <title> <problem-id>...
  mine list <db>
  mine search <db> <terms>...
  mine export-scorm <db> <exam-id> <out-dir>
  mine simulate <db> <exam-id> <class-size> <seed>
  mine batch-analyze <db> <exam-id> <cohorts> <class-size> <seed> [--threads N]
  mine tree <db> <problem-id>
  mine serve <db> [--addr HOST:PORT] [--threads N] [--data-dir DIR]
             [--fsync always|never|interval[:ms]] [--snapshot-every N]
             [--queue-depth N] [--rate-limit RPS[:BURST]] [--drain-deadline SECS]
             [--repl-addr HOST:PORT] [--replica-of HOST:PORT]
             [--replicate ack=leader|ack=quorum]
             [--auto-failover[=TIMEOUT_MS]] [--peers HOST:PORT,...]
             [--scrub-interval MS]
  mine promote <addr>
  mine recover <dir>
  mine audit <dir>... [--db DB] [--json]
  mine scrub <dir> [--json]
  mine calibrate <db> <problem-id> <a> <b> <c>
  mine calibrate <db> --auto
  mine loadgen <addr> <exam-id> [--clients N] [--seed S] [--ramp SECS]
               [--mode fixed|adaptive|mixed] [--db DB]

--threads takes 1..=1024 (omit for auto); MINE_THREADS sets the same
default for every command when the flag is absent.";

type CliResult = Result<(), String>;

/// Writes a large block to stdout, ignoring broken pipes (so
/// `mine simulate … | head` exits cleanly).
fn print_block(text: &str) {
    use std::io::Write;
    let _ = std::io::stdout().write_all(text.as_bytes());
}

fn run(args: &[String]) -> CliResult {
    let (command, rest) = args.split_first().ok_or("missing command")?;
    match command.as_str() {
        "init" => init(rest),
        "add-tf" => add_tf(rest),
        "add-choice" => add_choice(rest),
        "add-exam" => add_exam(rest),
        "list" => list(rest),
        "search" => search(rest),
        "export-scorm" => export_scorm(rest),
        "simulate" => simulate(rest),
        "batch-analyze" => batch_analyze(rest),
        "tree" => tree(rest),
        "serve" => serve(rest),
        "promote" => promote(rest),
        "recover" => recover(rest),
        "audit" => audit(rest),
        "scrub" => scrub(rest),
        "calibrate" => calibrate(rest),
        "loadgen" => loadgen(rest),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn load(path: &str) -> Result<Repository, String> {
    let snapshot =
        RepositorySnapshot::load(path).map_err(|err| format!("loading {path}: {err}"))?;
    snapshot
        .restore()
        .map_err(|err| format!("restoring {path}: {err}"))
}

fn save(repository: &Repository, path: &str) -> CliResult {
    RepositorySnapshot::capture(repository)
        .save(path)
        .map_err(|err| format!("saving {path}: {err}"))
}

fn parse_level(letter: &str) -> Result<CognitionLevel, String> {
    letter
        .parse::<CognitionLevel>()
        .map_err(|err| err.to_string())
}

fn init(args: &[String]) -> CliResult {
    let [path] = args else {
        return Err("init needs <db.json>".into());
    };
    save(&Repository::new(), path)?;
    println!("created empty database at {path}");
    Ok(())
}

fn add_tf(args: &[String]) -> CliResult {
    let [path, id, subject, level, correct, stem @ ..] = args else {
        return Err("add-tf needs <db> <id> <subject> <level> <true|false> <stem...>".into());
    };
    if stem.is_empty() {
        return Err("add-tf needs a stem".into());
    }
    let correct = match correct.as_str() {
        "true" => true,
        "false" => false,
        other => return Err(format!("expected true|false, got {other:?}")),
    };
    let repository = load(path)?;
    let problem = Problem::true_false(id.clone(), stem.join(" "), correct)
        .map_err(|err| err.to_string())?
        .with_subject(subject.as_str())
        .with_cognition_level(parse_level(level)?);
    repository
        .insert_problem(problem)
        .map_err(|err| err.to_string())?;
    save(&repository, path)?;
    println!("added true/false problem {id}");
    Ok(())
}

fn add_choice(args: &[String]) -> CliResult {
    let [path, id, subject, level, correct, stem, options @ ..] = args else {
        return Err(
            "add-choice needs <db> <id> <subject> <level> <correct> <stem> <option>...".into(),
        );
    };
    if options.len() < 2 {
        return Err("add-choice needs at least two options".into());
    }
    let correct = correct
        .parse::<OptionKey>()
        .map_err(|err| err.to_string())?;
    let repository = load(path)?;
    let problem = Problem::multiple_choice(
        id.clone(),
        stem.clone(),
        options
            .iter()
            .enumerate()
            .map(|(i, text)| ChoiceOption::new(OptionKey::from_index(i).expect("<26"), text)),
        correct,
    )
    .map_err(|err| err.to_string())?
    .with_subject(subject.as_str())
    .with_cognition_level(parse_level(level)?);
    repository
        .insert_problem(problem)
        .map_err(|err| err.to_string())?;
    save(&repository, path)?;
    println!("added choice problem {id} with {} options", options.len());
    Ok(())
}

fn add_exam(args: &[String]) -> CliResult {
    let [path, exam_id, title, problems @ ..] = args else {
        return Err("add-exam needs <db> <exam-id> <title> <problem-id>...".into());
    };
    if problems.is_empty() {
        return Err("add-exam needs at least one problem".into());
    }
    let repository = load(path)?;
    let mut builder = Exam::builder(exam_id.clone())
        .map_err(|err| err.to_string())?
        .title(title.clone());
    for problem in problems {
        builder = builder.entry(problem.parse().map_err(|err| format!("{err}"))?);
    }
    let exam = builder.build().map_err(|err| err.to_string())?;
    repository
        .insert_exam(exam)
        .map_err(|err| err.to_string())?;
    save(&repository, path)?;
    println!("added exam {exam_id} with {} entries", problems.len());
    Ok(())
}

fn list(args: &[String]) -> CliResult {
    let [path] = args else {
        return Err("list needs <db>".into());
    };
    let repository = load(path)?;
    println!("problems ({}):", repository.problem_count());
    for id in repository.problem_ids() {
        let problem = repository.problem(&id).map_err(|err| err.to_string())?;
        println!(
            "  {:<16} {:<16} {:<14} {}",
            id.as_str(),
            problem.style().keyword(),
            problem.subject().as_str(),
            problem
                .cognition_level()
                .map_or("-".to_string(), |l| l.name().to_string()),
        );
    }
    println!("exams ({}):", repository.exam_count());
    for id in repository.exam_ids() {
        let exam = repository.exam(&id).map_err(|err| err.to_string())?;
        println!(
            "  {:<16} \"{}\" ({} entries)",
            id.as_str(),
            exam.title(),
            exam.len()
        );
    }
    Ok(())
}

fn search(args: &[String]) -> CliResult {
    let [path, terms @ ..] = args else {
        return Err("search needs <db> <terms>...".into());
    };
    if terms.is_empty() {
        return Err("search needs at least one term".into());
    }
    let repository = load(path)?;
    let hits = repository.search(&Query::text(&terms.join(" ")));
    println!("{} hit(s):", hits.len());
    for hit in hits {
        println!("  {:<16} score {}", hit.problem.as_str(), hit.score);
    }
    Ok(())
}

fn export_scorm(args: &[String]) -> CliResult {
    let [path, exam_id, out_dir] = args else {
        return Err("export-scorm needs <db> <exam-id> <out-dir>".into());
    };
    let repository = load(path)?;
    let (exam, problems) = repository
        .resolve_exam(&exam_id.parse().map_err(|err| format!("{err}"))?)
        .map_err(|err| err.to_string())?;
    let package = ContentPackage::builder(format!("PKG-{exam_id}"))
        .exam(exam)
        .problems(problems)
        .build()
        .map_err(|err| err.to_string())?;
    package
        .write_to_dir(out_dir)
        .map_err(|err| format!("writing {out_dir}: {err}"))?;
    println!(
        "wrote {} files ({} bytes) under {out_dir}",
        package.files.len(),
        package.total_size(),
    );
    Ok(())
}

fn simulate(args: &[String]) -> CliResult {
    let [path, exam_id, class, seed] = args else {
        return Err("simulate needs <db> <exam-id> <class-size> <seed>".into());
    };
    let class: usize = class.parse().map_err(|_| "class-size must be a number")?;
    let seed: u64 = seed.parse().map_err(|_| "seed must be a number")?;
    let repository = load(path)?;
    let (exam, problems) = repository
        .resolve_exam(&exam_id.parse().map_err(|err| format!("{err}"))?)
        .map_err(|err| err.to_string())?;
    let record = Simulation::new(exam, problems.clone())
        .cohort(CohortSpec::new(class).seed(seed))
        .run()
        .map_err(|err| err.to_string())?;
    let analysis = ExamAnalysis::analyze(&record, &problems, &AnalysisConfig::default())
        .map_err(|err| err.to_string())?;
    print_block(&render_full_report(&analysis));
    Ok(())
}

fn batch_analyze(args: &[String]) -> CliResult {
    // Split off a trailing `--threads N`. The flag wins over the
    // `MINE_THREADS` environment override; both are validated (1..=1024,
    // no zero), and absent both the pool auto-detects.
    let (threads_flag, args) = match args {
        [rest @ .., flag, n] if flag == "--threads" => (Some(n.as_str()), rest),
        _ => (None, args),
    };
    let threads = mine_pool::resolve_thread_count(threads_flag).map_err(|err| err.to_string())?;
    let [path, exam_id, cohorts, class, seed] = args else {
        return Err(
            "batch-analyze needs <db> <exam-id> <cohorts> <class-size> <seed> [--threads N]".into(),
        );
    };
    let cohorts: usize = cohorts.parse().map_err(|_| "cohorts must be a number")?;
    if cohorts == 0 {
        return Err("batch-analyze needs at least one cohort".into());
    }
    let class: usize = class.parse().map_err(|_| "class-size must be a number")?;
    let seed: u64 = seed.parse().map_err(|_| "seed must be a number")?;
    let repository = load(path)?;
    let (exam, problems) = repository
        .resolve_exam(&exam_id.parse().map_err(|err| format!("{err}"))?)
        .map_err(|err| err.to_string())?;

    // One sitting per cohort, each a different section of the class
    // (consecutive seeds), simulated concurrently.
    let records = (0..cohorts)
        .map(|i| {
            Simulation::new(exam.clone(), problems.clone())
                .cohort(CohortSpec::new(class).seed(seed.wrapping_add(i as u64)))
                .run_parallel(threads)
                .map_err(|err| err.to_string())
        })
        .collect::<Result<Vec<_>, _>>()?;

    let analyzer = BatchAnalyzer::new(AnalysisConfig::default()).with_threads(threads);
    let report = analyzer
        .analyze_records(&records, &problems)
        .map_err(|err| err.to_string())?;

    let mut out = String::new();
    out.push_str(&format!(
        "batch: {} sittings of {exam_id} ({} students each)\n\n",
        report.summary.exams, class
    ));
    for (i, analysis) in report.analyses.iter().enumerate() {
        out.push_str(&format!(
            "  sitting {:<3} seed {:<6} mean {:>6.2}  pass {:>5.1}%  alpha {}\n",
            i,
            seed.wrapping_add(i as u64),
            analysis.statistics.mean_score,
            analysis.statistics.pass_rate * 100.0,
            analysis
                .reliability
                .alpha
                .map_or("  n/a".to_string(), |a| format!("{a:>5.2}")),
        ));
    }
    let s = &report.summary;
    out.push_str(&format!(
        "\nquestions analyzed: {} (green {}, yellow {}, red {})\n",
        s.questions, s.green, s.yellow, s.red
    ));
    if let (Some(min), Some(mean), Some(max)) = (s.min_alpha, s.mean_alpha, s.max_alpha) {
        out.push_str(&format!(
            "reliability alpha:  min {min:.2}  mean {mean:.2}  max {max:.2}\n"
        ));
    }
    print_block(&out);
    Ok(())
}

/// SIGTERM/SIGINT handling for `mine serve`, without libc: a minimal
/// `signal(2)` binding installing an async-signal-safe handler that
/// only flips an atomic. The serve loop polls the flag and runs the
/// drain sequence in ordinary (non-handler) context.
mod signals {
    use std::sync::atomic::{AtomicBool, Ordering};

    /// Set by the handler when SIGTERM or SIGINT arrives.
    pub static REQUESTED: AtomicBool = AtomicBool::new(false);

    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;

    extern "C" fn on_signal(_signum: i32) {
        // A store to an atomic is async-signal-safe; everything else
        // (drain, snapshot, I/O) happens on the polling thread.
        REQUESTED.store(true, Ordering::SeqCst);
    }

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }

    /// Installs the handler for SIGTERM and SIGINT.
    pub fn install() {
        // SAFETY: `signal` with a handler that only stores to a static
        // atomic; no allocation, locking, or I/O in handler context.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }
}

/// Pulls a `--name value` pair out of `args`, returning the value and
/// the remaining arguments.
fn take_flag(args: &[String], name: &str) -> Result<(Option<String>, Vec<String>), String> {
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        if arg == name {
            let v = iter.next().ok_or_else(|| format!("{name} needs a value"))?;
            value = Some(v.clone());
        } else {
            rest.push(arg.clone());
        }
    }
    Ok((value, rest))
}

/// Pulls a `--name` / `--name=value` flag out of `args`. The outer
/// `Option` is presence; the inner one is whether a value was attached.
fn take_optional_value_flag(args: &[String], name: &str) -> (Option<Option<String>>, Vec<String>) {
    let mut rest = Vec::with_capacity(args.len());
    let mut value = None;
    let prefix = format!("{name}=");
    for arg in args {
        if arg == name {
            value = Some(None);
        } else if let Some(attached) = arg.strip_prefix(&prefix) {
            value = Some(Some(attached.to_string()));
        } else {
            rest.push(arg.clone());
        }
    }
    (value, rest)
}

fn serve(args: &[String]) -> CliResult {
    let (addr, args) = take_flag(args, "--addr")?;
    let (threads, args) = take_flag(&args, "--threads")?;
    let (data_dir, args) = take_flag(&args, "--data-dir")?;
    let (fsync, args) = take_flag(&args, "--fsync")?;
    let (snapshot_every, args) = take_flag(&args, "--snapshot-every")?;
    let (queue_depth, args) = take_flag(&args, "--queue-depth")?;
    let (rate_limit, args) = take_flag(&args, "--rate-limit")?;
    let (drain_deadline, args) = take_flag(&args, "--drain-deadline")?;
    let (repl_addr, args) = take_flag(&args, "--repl-addr")?;
    let (replica_of, args) = take_flag(&args, "--replica-of")?;
    let (replicate, args) = take_flag(&args, "--replicate")?;
    let (auto_failover, args) = take_optional_value_flag(&args, "--auto-failover");
    let (peers, args) = take_flag(&args, "--peers")?;
    let (scrub_interval, args) = take_flag(&args, "--scrub-interval")?;
    let [path] = args.as_slice() else {
        return Err(
            "serve needs <db> [--addr HOST:PORT] [--threads N] [--data-dir DIR] \
             [--fsync POLICY] [--snapshot-every N] [--queue-depth N] \
             [--rate-limit RPS[:BURST]] [--drain-deadline SECS] \
             [--repl-addr HOST:PORT] [--replica-of HOST:PORT] \
             [--replicate ack=leader|ack=quorum] \
             [--auto-failover[=TIMEOUT_MS]] [--peers HOST:PORT,...] \
             [--scrub-interval MS]"
                .into(),
        );
    };
    if data_dir.is_none() && (fsync.is_some() || snapshot_every.is_some()) {
        return Err("--fsync and --snapshot-every require --data-dir".into());
    }
    // The scrubber re-reads sealed WAL segments; without a journal there
    // is nothing to scrub.
    if scrub_interval.is_some() && data_dir.is_none() {
        return Err("--scrub-interval requires --data-dir".into());
    }
    let scrub_interval = scrub_interval
        .map(|ms| {
            ms.parse::<u64>()
                .map(std::time::Duration::from_millis)
                .map_err(|_| "--scrub-interval takes whole milliseconds (0 disables)".to_string())
        })
        .transpose()?
        .unwrap_or(DEFAULT_SCRUB_INTERVAL);
    // Replication rides on the journal: a follower must journal what it
    // applies, a primary must have a log to ship.
    if data_dir.is_none() && (repl_addr.is_some() || replica_of.is_some()) {
        return Err("--repl-addr and --replica-of require --data-dir".into());
    }
    if replicate.is_some() && repl_addr.is_none() {
        return Err("--replicate requires --repl-addr".into());
    }
    if auto_failover.is_some() && replica_of.is_none() {
        return Err(
            "--auto-failover requires --replica-of (only followers run the detector)".into(),
        );
    }
    if peers.is_some() && auto_failover.is_none() {
        return Err("--peers requires --auto-failover".into());
    }
    let failover_timeout = auto_failover
        .map(|value| match value {
            None => Ok(DEFAULT_FAILOVER_TIMEOUT),
            Some(ms) => ms
                .parse::<u64>()
                .map(std::time::Duration::from_millis)
                .map_err(|_| "--auto-failover takes whole milliseconds".to_string()),
        })
        .transpose()?;
    let peer_list: Vec<String> = peers
        .map(|list| {
            list.split(',')
                .map(str::trim)
                .filter(|peer| !peer.is_empty())
                .map(str::to_string)
                .collect()
        })
        .unwrap_or_default();
    let ack_mode = replicate
        .as_deref()
        .map(AckMode::parse)
        .transpose()?
        .unwrap_or(AckMode::Leader);
    let drain_deadline = std::time::Duration::from_secs(
        drain_deadline
            .map(|n| {
                n.parse::<u64>()
                    .map_err(|_| "--drain-deadline needs whole seconds")
            })
            .transpose()?
            .unwrap_or(10),
    );
    let mut overload = mine_assessment::server::OverloadOptions::default();
    if let Some(depth) = queue_depth {
        overload.queue_depth = depth
            .parse::<usize>()
            .ok()
            .filter(|&d| d > 0)
            .ok_or("--queue-depth needs a positive number")?;
    }
    if let Some(limit) = rate_limit {
        overload.rate_limit = Some(RateLimit::parse(&limit)?);
    }
    let options = ServeOptions {
        addr: addr.unwrap_or_else(|| "127.0.0.1:7400".to_string()),
        threads: mine_pool::resolve_thread_count(threads.as_deref())
            .map_err(|err| err.to_string())?,
        overload,
        ..ServeOptions::default()
    };
    let repository = load(path)?;
    println!(
        "serving {} problem(s), {} exam(s) from {path}",
        repository.problem_count(),
        repository.exam_count()
    );
    // A seeded chaos schedule (tests, smoke scripts): one spec drives
    // both the disk seam and the replication-shipping seam. Echo the
    // canonical form so any run can be reproduced from its log.
    let fault_plan = FaultPlan::from_env()?.map(std::sync::Arc::new);
    if let Some(plan) = &fault_plan {
        eprintln!("fault injection armed from MINE_FAULT_PLAN: {plan}");
    }
    let journaled = data_dir.is_some();
    let router = match data_dir {
        None => Router::new(repository),
        Some(dir) => {
            let store_options = StoreOptions {
                sync: fsync
                    .as_deref()
                    .map(SyncPolicy::parse)
                    .transpose()?
                    .unwrap_or(SyncPolicy::Interval(std::time::Duration::from_millis(100))),
                fault_plan: fault_plan.clone(),
                ..StoreOptions::default()
            };
            let snapshot_every = snapshot_every
                .map(|n| {
                    n.parse::<u64>()
                        .map_err(|_| "--snapshot-every needs a number")
                })
                .transpose()?
                .unwrap_or(512);
            let (mut state, report) =
                open_journaled_state(repository, &dir, store_options, snapshot_every)?;
            for warning in &report.warnings {
                eprintln!("journal: warning: {warning}");
            }
            for note in &report.notes {
                eprintln!("journal: note: {note}");
            }
            println!(
                "journal at {dir}: {} session(s) + {} record(s) from snapshot and {} delta(s), \
                 {} event(s) replayed",
                report.snapshot_sessions,
                report.snapshot_records,
                report.snapshot_deltas,
                report.events_replayed
            );
            if repl_addr.is_some() || replica_of.is_some() {
                let role = if replica_of.is_some() {
                    Role::Follower
                } else {
                    Role::Primary
                };
                state.repl = Some(std::sync::Arc::new(ReplState::new(role, ack_mode)));
            }
            Router::with_state(state)
        }
    };
    let server = Server::start(router.clone(), &options)
        .map_err(|err| format!("binding {}: {err}", options.addr))?;
    signals::install();
    println!(
        "listening on http://{} (SIGTERM/ctrl-c drains, deadline {}s)",
        server.local_addr(),
        drain_deadline.as_secs()
    );
    let mut repl_listener = None;
    let mut puller = None;
    if router.state().repl.is_some() {
        let repl = router.state().repl.as_ref().expect("just checked");
        // What follower redirects will name as the leader.
        repl.set_advertise(server.local_addr().to_string());
        if let Some(plan) = &fault_plan {
            repl.set_fault_plan(std::sync::Arc::clone(plan));
        }
        if let Some(timeout) = failover_timeout {
            repl.set_auto_failover(FailoverConfig {
                timeout,
                peers: peer_list.clone(),
            });
            println!(
                "auto-failover armed: leader-silence timeout {}ms (+ up to 25% jitter), {} peer(s)",
                timeout.as_millis(),
                peer_list.len()
            );
        }
        if let Some(bind) = &repl_addr {
            let listener = ReplListener::start(bind, router.clone())
                .map_err(|err| format!("binding replication listener {bind}: {err}"))?;
            println!("replication listener on {}", listener.local_addr());
            repl_listener = Some(listener);
        }
        if let Some(primary) = replica_of {
            println!("replica of {primary} (writes answered 421 naming the leader)");
            puller = Some(start_follower(primary, router.clone()));
        }
    }
    let scrubber = (journaled && !scrub_interval.is_zero()).then(|| {
        println!(
            "anti-entropy scrubber armed: pass every {}ms",
            scrub_interval.as_millis()
        );
        Scrubber::start(router.clone(), scrub_interval)
    });
    // Poll the signal flag; everything non-trivial happens here, not in
    // handler context.
    while !signals::REQUESTED.load(std::sync::atomic::Ordering::SeqCst) {
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    eprintln!("signal received: draining");
    // Stop the scrubber first: a repair snapshot mid-drain would race
    // the drain's own final snapshot.
    if let Some(scrubber) = scrubber {
        scrubber.shutdown();
    }
    // Wind replication down before the drain writes its final events:
    // the puller stops applying, the listener stops accepting.
    if let Some(repl) = router.state().repl.as_ref() {
        repl.stop_puller();
    }
    if let Some(puller) = puller {
        puller.join();
    }
    if let Some(listener) = repl_listener {
        listener.shutdown();
    }
    let report = server.drain(drain_deadline);
    println!(
        "drained: cleanly={} paused={} already-paused={} snapshot={}",
        report.drained_cleanly,
        report.sessions_paused,
        report.sessions_already_paused,
        report.snapshot_written
    );
    for note in &report.notes {
        eprintln!("drain: note: {note}");
    }
    Ok(())
}

fn promote(args: &[String]) -> CliResult {
    let [addr] = args else {
        return Err("promote needs <addr> (the follower's client-facing HOST:PORT)".into());
    };
    let mut client =
        HttpClient::connect(addr).map_err(|err| format!("connecting {addr}: {err}"))?;
    let response = client
        .post("/admin/promote", "")
        .map_err(|err| format!("promoting {addr}: {err}"))?;
    if response.status != 200 {
        return Err(format!(
            "promotion refused ({}): {}",
            response.status, response.body
        ));
    }
    println!("promoted {addr}: {}", response.body);
    Ok(())
}

fn recover(args: &[String]) -> CliResult {
    let [dir] = args else {
        return Err("recover needs <dir>".into());
    };
    let (_, recovered) = EventStore::open(std::path::PathBuf::from(dir), StoreOptions::default())
        .map_err(|err| format!("opening journal at {dir}: {err}"))?;
    let mut out = String::new();
    for warning in &recovered.warnings {
        out.push_str(&format!("warning: {warning} (repaired)\n"));
    }
    match &recovered.snapshot {
        Some(snapshot) => out.push_str(&format!(
            "snapshot: through seq {}, {} byte(s)\n",
            snapshot.last_seq,
            snapshot.payload.len()
        )),
        None => out.push_str("snapshot: none\n"),
    }
    for delta in &recovered.deltas {
        out.push_str(&format!(
            "delta: through seq {}, {} byte(s)\n",
            delta.last_seq,
            delta.payload.len()
        ));
    }
    let events = decode_events(&recovered)?;
    out.push_str(&format!(
        "segments: {}\nevents after snapshot: {}\n",
        recovered.segments,
        events.len()
    ));
    let mut counts = std::collections::BTreeMap::new();
    for (_, event) in &events {
        *counts.entry(event.label()).or_insert(0_u64) += 1;
    }
    for (label, count) in &counts {
        out.push_str(&format!("  {label}: {count}\n"));
    }
    if let Some((seq, event)) = events.last() {
        out.push_str(&format!("last event: seq {seq} {}\n", event.label()));
    }
    print_block(&out);
    Ok(())
}

/// Offline invariant check over journal directories: per-node
/// CRC/sequence/epoch integrity, cross-node acked-prefix containment,
/// and (with `--db`) replay equality. Exits non-zero on any violation,
/// so chaos and smoke scenarios can end with `mine audit` as their
/// verdict.
fn audit(args: &[String]) -> CliResult {
    let (json, args) = take_optional_value_flag(args, "--json");
    if json.as_ref().is_some_and(|value| value.is_some()) {
        return Err("--json takes no value".into());
    }
    let (db, args) = take_flag(&args, "--db")?;
    if args.is_empty() {
        return Err("audit needs <dir>... [--db DB] [--json]".into());
    }
    let dirs: Vec<std::path::PathBuf> = args.iter().map(std::path::PathBuf::from).collect();
    for dir in &dirs {
        if !dir.is_dir() {
            return Err(format!("audit: {} is not a directory", dir.display()));
        }
    }
    let report = match db {
        Some(path) => {
            let loader = move || load(&path);
            audit_dirs(&dirs, Some(&loader))?
        }
        None => audit_dirs(&dirs, None)?,
    };
    if json.is_some() {
        let rendered = serde_json::to_string(&report.to_value()).map_err(|err| err.to_string())?;
        print_block(&format!("{rendered}\n"));
    } else {
        print_block(&report.render());
    }
    if report.is_clean() {
        Ok(())
    } else {
        // The violations are already in the rendered report; the error
        // line is the machine-checkable verdict.
        Err(format!(
            "audit found {} violation(s)",
            report.violations().len()
        ))
    }
}

/// Offline anti-entropy pass over one journal directory: re-verify the
/// CRC and framing of every WAL segment and the newest snapshot, and
/// print per-segment verdicts plus the per-window range hashes. The
/// exit-code contract matches `mine audit`: non-zero when corruption is
/// found, so scripts can end with `mine scrub` as their verdict.
fn scrub(args: &[String]) -> CliResult {
    let (json, args) = take_optional_value_flag(args, "--json");
    if json.as_ref().is_some_and(|value| value.is_some()) {
        return Err("--json takes no value".into());
    }
    let [dir] = args.as_slice() else {
        return Err("scrub needs <dir> [--json]".into());
    };
    let path = std::path::Path::new(dir);
    if !path.is_dir() {
        return Err(format!("scrub: {dir} is not a directory"));
    }
    // Offline: no active segment to skip — the torn-tail tolerance for
    // the newest segment lives inside `scrub_dir`.
    let report = scrub_dir(path, None).map_err(|err| format!("scrubbing {dir}: {err}"))?;
    if json.is_some() {
        let rendered =
            serde_json::to_string(&scrub_value(&report)).map_err(|err| err.to_string())?;
        print_block(&format!("{rendered}\n"));
    } else {
        print_block(&render_scrub(&report));
    }
    if report.is_clean() {
        Ok(())
    } else {
        let corrupt = report.corrupt_segments().len() + report.corrupt_images();
        Err(format!("scrub found {corrupt} corrupt file(s)"))
    }
}

/// Human-readable `mine scrub` output: one line per file, then the
/// range-hash summary and the verdict.
fn render_scrub(report: &ScrubReport) -> String {
    let mut out = String::new();
    for segment in &report.segments {
        match &segment.corrupt {
            None => out.push_str(&format!(
                "segment {}: {} record(s) from seq {}, {} byte(s), clean\n",
                segment.file, segment.records, segment.first_seq, segment.bytes
            )),
            Some(reason) => out.push_str(&format!("segment {}: CORRUPT: {reason}\n", segment.file)),
        }
    }
    match &report.snapshot {
        Some(snapshot) => match &snapshot.corrupt {
            None => out.push_str(&format!(
                "snapshot {}: through seq {}, {} byte(s), clean\n",
                snapshot.file, snapshot.last_seq, snapshot.bytes
            )),
            Some(reason) => {
                out.push_str(&format!("snapshot {}: CORRUPT: {reason}\n", snapshot.file));
            }
        },
        None => out.push_str("snapshot: none\n"),
    }
    for delta in &report.deltas {
        match &delta.corrupt {
            None => out.push_str(&format!(
                "delta {}: through seq {}, {} byte(s), clean\n",
                delta.file, delta.last_seq, delta.bytes
            )),
            Some(reason) => out.push_str(&format!("delta {}: CORRUPT: {reason}\n", delta.file)),
        }
    }
    out.push_str(&format!(
        "range hashes: {} window(s)\n",
        report.ranges.len()
    ));
    if report.is_clean() {
        out.push_str("scrub: clean\n");
    } else {
        out.push_str("scrub: corruption found\n");
    }
    out
}

/// The machine-readable form of a scrub report (`mine scrub --json`).
fn scrub_value(report: &ScrubReport) -> Value {
    let optional_reason = |reason: &Option<String>| {
        reason
            .as_ref()
            .map_or(Value::Null, |reason| Value::String(reason.clone()))
    };
    let segments = Value::Array(
        report
            .segments
            .iter()
            .map(|segment| {
                Value::Object(vec![
                    ("file".to_string(), Value::String(segment.file.clone())),
                    ("first_seq".to_string(), segment.first_seq.to_value()),
                    ("records".to_string(), segment.records.to_value()),
                    ("bytes".to_string(), segment.bytes.to_value()),
                    ("corrupt".to_string(), optional_reason(&segment.corrupt)),
                ])
            })
            .collect(),
    );
    let ranges = Value::Array(
        report
            .ranges
            .iter()
            .map(|range| {
                Value::Object(vec![
                    ("first_seq".to_string(), range.first_seq.to_value()),
                    ("last_seq".to_string(), range.last_seq.to_value()),
                    ("count".to_string(), range.count.to_value()),
                    ("hash".to_string(), range.hash.to_value()),
                ])
            })
            .collect(),
    );
    let image = |image: &SnapshotReport| {
        Value::Object(vec![
            ("file".to_string(), Value::String(image.file.clone())),
            ("last_seq".to_string(), image.last_seq.to_value()),
            ("bytes".to_string(), image.bytes.to_value()),
            ("corrupt".to_string(), optional_reason(&image.corrupt)),
        ])
    };
    let snapshot = report.snapshot.as_ref().map_or(Value::Null, image);
    let deltas = Value::Array(report.deltas.iter().map(image).collect());
    Value::Object(vec![
        ("clean".to_string(), Value::Bool(report.is_clean())),
        ("segments".to_string(), segments),
        ("ranges".to_string(), ranges),
        ("snapshot".to_string(), snapshot),
        ("deltas".to_string(), deltas),
    ])
}

/// Attaches 3PL item parameters to one problem, or (`--auto`) sweeps
/// the whole bank with a spread of difficulties so an exam can be
/// served adaptively without hand-calibrating every item.
fn calibrate(args: &[String]) -> CliResult {
    match args {
        [path, auto] if auto == "--auto" => {
            let repository = load(path)?;
            let ids = repository.problem_ids();
            let n = ids.len();
            if n == 0 {
                return Err("calibrate --auto needs a non-empty bank".into());
            }
            for (i, id) in ids.iter().enumerate() {
                // Constant discrimination and guessing, difficulties
                // spread evenly over [-2, 2]: a usable default sweep.
                let difficulty = if n == 1 {
                    0.0
                } else {
                    -2.0 + 4.0 * i as f64 / (n - 1) as f64
                };
                repository
                    .update_problem(id, |problem| {
                        problem.set_calibration(Some(Calibration::new(1.2, difficulty, 0.15)));
                        Ok(())
                    })
                    .map_err(|err| err.to_string())?;
            }
            save(&repository, path)?;
            println!("calibrated {n} problem(s): a=1.2, b spread over [-2, 2], c=0.15");
            Ok(())
        }
        [path, id, a, b, c] => {
            let parse = |name: &str, text: &str| -> Result<f64, String> {
                text.parse::<f64>()
                    .map_err(|_| format!("{name} must be a number, got {text:?}"))
            };
            let calibration = Calibration::new(
                parse("a (discrimination)", a)?,
                parse("b (difficulty)", b)?,
                parse("c (guessing)", c)?,
            );
            if !calibration.is_usable() {
                return Err("calibration must have finite a > 0, finite b, and c in [0, 1)".into());
            }
            let repository = load(path)?;
            repository
                .update_problem(&id.parse().map_err(|err| format!("{err}"))?, |problem| {
                    problem.set_calibration(Some(calibration));
                    Ok(())
                })
                .map_err(|err| err.to_string())?;
            save(&repository, path)?;
            println!(
                "calibrated {id}: a={}, b={}, c={}",
                calibration.discrimination, calibration.difficulty, calibration.guessing
            );
            Ok(())
        }
        _ => Err("calibrate needs <db> <problem-id> <a> <b> <c> or <db> --auto".into()),
    }
}

fn loadgen(args: &[String]) -> CliResult {
    let (clients, args) = take_flag(args, "--clients")?;
    let (seed, args) = take_flag(&args, "--seed")?;
    let (ramp, args) = take_flag(&args, "--ramp")?;
    let (mode, args) = take_flag(&args, "--mode")?;
    let (db, args) = take_flag(&args, "--db")?;
    let [addr, exam] = args.as_slice() else {
        return Err(
            "loadgen needs <addr> <exam-id> [--clients N] [--seed S] [--ramp SECS] \
             [--mode fixed|adaptive|mixed] [--db DB]"
                .into(),
        );
    };
    let mode = mode
        .as_deref()
        .map(LoadMode::parse)
        .transpose()?
        .unwrap_or_default();
    let key = match (mode, db) {
        (LoadMode::Fixed, _) => None,
        (_, Some(path)) => {
            let key = AnswerKey::from_repository(&load(&path)?);
            if key.calibrated() == 0 {
                return Err(format!(
                    "{path} has no calibrated problems; run `mine calibrate {path} --auto` first"
                ));
            }
            Some(std::sync::Arc::new(key))
        }
        (_, None) => {
            return Err(
                "loadgen --mode adaptive|mixed needs --db DB to build the answer key".into(),
            )
        }
    };
    let options = LoadGenOptions {
        addr: addr.clone(),
        exam: exam.clone(),
        clients: clients
            .map(|n| n.parse::<usize>().map_err(|_| "--clients needs a number"))
            .transpose()?
            .unwrap_or(16),
        seed: seed
            .map(|n| n.parse::<u64>().map_err(|_| "--seed needs a number"))
            .transpose()?
            .unwrap_or(0),
        ramp: ramp
            .map(|n| {
                n.parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .map(std::time::Duration::from_secs_f64)
                    .ok_or("--ramp needs a non-negative number of seconds")
            })
            .transpose()?,
        mode,
        key,
        ..LoadGenOptions::default()
    };
    let report = run_loadgen(&options)?;
    println!(
        "loadgen: {} sitting(s) completed, {} request(s), {} answer(s), {} failure(s), \
         {} shed response(s), {} retry(ies)",
        report.completed,
        report.requests,
        report.answers,
        report.failures,
        report.shed,
        report.retries
    );
    if report.failures > 0 {
        return Err(format!("{} client(s) failed", report.failures));
    }
    Ok(())
}

fn tree(args: &[String]) -> CliResult {
    let [path, problem_id] = args else {
        return Err("tree needs <db> <problem-id>".into());
    };
    let repository = load(path)?;
    let problem = repository
        .problem(&problem_id.parse().map_err(|err| format!("{err}"))?)
        .map_err(|err| err.to_string())?;
    print_block(&problem.metadata().render_tree());
    Ok(())
}
