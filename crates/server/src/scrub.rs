//! Online anti-entropy: the background scrubber and the peer repair
//! path.
//!
//! Every [`Scrubber`] pass re-verifies the sealed WAL segments and the
//! latest images ([`mine_store::scrub_dir`]) and acts on what it finds:
//!
//! - **Local rot** (a sealed segment whose CRCs or sequence run no
//!   longer verify): the segment is quarantined — renamed to
//!   `*.log.quarantine`, never deleted, so the evidence survives — and
//!   repaired. A follower re-bootstraps from its leader's snapshot (the
//!   install wipes `wal-*.log` but not quarantine files); a primary
//!   writes a fresh base from its live state, which every acked write
//!   already reached. Until an image lands, recovery refuses the
//!   sequence gap the quarantine leaves; a failed repair write leaves
//!   the journal due for compaction, so the next write or pass retries.
//! - **Silent divergence** (every CRC intact, but a follower's range
//!   hashes disagree with its leader's inside the acked prefix): the
//!   overlapping segments are quarantined and the same re-bootstrap
//!   repair runs. The comparison is epoch-fenced — a leader whose
//!   `/admin/ranges` carries an older epoch is a deposed primary, and
//!   its hashes are ignored so repair can never resurrect a divergent
//!   suffix.
//!
//! A pass keeps nothing once it is done: peers read a node's range
//! hashes from `GET /admin/ranges`, which rescans the directory itself.
//!
//! The scrubber is also the **injection seam** for scheduled bit rot
//! (`MINE_FAULT_PLAN=disk.bitrot@SEQ:BYTES`): scheduled flips are
//! struck before the scan, modelling damage that happened at rest.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use serde::{JsonWriter, Number, Value};

use mine_store::{
    diverging_windows, inject_bitrot, scrub_dir, RangeHash, ScrubReport, RANGE_WINDOW,
};

use crate::client::HttpClient;
use crate::journal::Journal;
use crate::repl::Role;
use crate::router::Router;

/// Default pass cadence for `mine serve` (override with
/// `--scrub-interval <ms>`; `0` disables the scrubber).
pub const DEFAULT_SCRUB_INTERVAL: Duration = Duration::from_secs(5);

/// I/O timeout for one `/admin/ranges` fetch from the leader.
const RANGES_TIMEOUT: Duration = Duration::from_millis(500);

/// A running background scrubber.
#[derive(Debug)]
pub struct Scrubber {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl Scrubber {
    /// Starts a scrub pass every `interval` in a background thread.
    /// The interval is the pass *cadence*, which doubles as the IO
    /// budget: one directory scan per interval, nothing in between.
    #[must_use]
    pub fn start(router: Router, interval: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Acquire) {
                // Sleep in slices so shutdown is prompt even with a
                // long cadence.
                let deadline = Instant::now() + interval;
                loop {
                    if flag.load(Ordering::Acquire) {
                        return;
                    }
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    if remaining.is_zero() {
                        break;
                    }
                    std::thread::sleep(remaining.min(Duration::from_millis(50)));
                }
                scrub_pass(&router);
            }
        });
        Self {
            stop,
            handle: Some(handle),
        }
    }

    /// Stops the scrubber and joins its thread.
    pub fn shutdown(mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// One full scrub pass over the node's journal directory. Public so
/// tests can drive a pass synchronously instead of waiting out the
/// cadence.
pub fn scrub_pass(router: &Router) {
    let state = router.state();
    let Some(journal) = &state.journal else {
        return; // memory-only node: nothing durable to scrub
    };
    let store = journal.store();

    // A failed image write (a self-repair's included) left the journal
    // due: retry it first, so an idle primary re-seals its history too.
    router.maybe_compact();

    // Injection seam: strike any scheduled bit rot before scanning, so
    // the very pass that "caused" the damage is the one that must
    // detect it.
    if let Some(plan) = store.fault_plan() {
        let _gate = journal.gate_read();
        match inject_bitrot(store.dir(), Some(&store.active_segment()), &plan) {
            Ok(struck) if !struck.is_empty() => {
                eprintln!("[mine-scrub] injected bit rot into records {struck:?}");
            }
            Ok(_) => {}
            Err(err) => eprintln!("[mine-scrub] bit-rot injection failed: {err}"),
        }
    }

    let report = {
        // The read gate admits handlers but excludes the compactor, so
        // segments cannot vanish mid-scan; the active segment is
        // excluded from verification by construction.
        let _gate = journal.gate_read();
        match scrub_dir(store.dir(), Some(&store.active_segment())) {
            Ok(report) => report,
            Err(err) => {
                eprintln!("[mine-scrub] pass failed: {err}");
                return;
            }
        }
    };
    state.metrics.scrub_passes_total.inc();

    let mut damaged = BTreeSet::new();
    for segment in report.corrupt_segments() {
        eprintln!(
            "[mine-scrub] corrupt sealed segment {}: {}",
            segment.file,
            segment.corrupt.as_deref().unwrap_or("unknown damage")
        );
        damaged.insert(segment.first_seq);
    }
    if let Some(snapshot) = &report.snapshot {
        if let Some(reason) = &snapshot.corrupt {
            eprintln!(
                "[mine-scrub] snapshot {} failed verification: {reason}",
                snapshot.file
            );
        }
    }

    // Silent divergence: a follower compares its range hashes against
    // its leader's, bounded to the acked prefix and epoch-fenced.
    if let Some(repl) = &state.repl {
        if repl.role() == Role::Follower && !report.ranges.is_empty() {
            if let Some(leader) = repl.leader_addr() {
                if let Some(remote) = fetch_ranges(&leader) {
                    let local_epoch = store.epoch();
                    if remote.epoch < local_epoch {
                        // A deposed primary is still answering: its
                        // hashes describe a fenced-off history and must
                        // never drive a repair.
                        eprintln!(
                            "[mine-scrub] ignoring ranges from {leader}: epoch {} behind local {}",
                            remote.epoch, local_epoch
                        );
                    } else {
                        let acked = (store.next_seq() - 1).min(remote.head_seq);
                        let windows = diverging_windows(&report.ranges, &remote.ranges, acked);
                        if !windows.is_empty() {
                            damaged.extend(segments_for_windows(&report, &windows));
                            eprintln!(
                                "[mine-scrub] range hashes diverge from {leader} in windows \
                                 {windows:?} (acked prefix {acked})"
                            );
                        }
                    }
                }
            }
        }
    }

    if !damaged.is_empty() {
        state
            .metrics
            .scrub_corrupt_segments_total
            .add(damaged.len() as u64);
        let mut quarantined: u64 = 0;
        {
            let _gate = journal.gate_read();
            for first_seq in &damaged {
                match store.quarantine_segment(*first_seq) {
                    Ok(path) => {
                        quarantined += 1;
                        eprintln!("[mine-scrub] quarantined {}", path.display());
                    }
                    Err(err) => {
                        eprintln!("[mine-scrub] quarantine of segment {first_seq} failed: {err}");
                    }
                }
            }
        }
        if quarantined > 0 {
            repair(router, journal, quarantined);
        }
    }
}

/// Repairs `quarantined` segments with an image that covers their gap;
/// the journal credits the repair when that image lands. A follower
/// asks its puller to break the live stream and re-bootstrap from the
/// leader's snapshot (the install replaces every `wal-*.log`, leaving
/// the quarantine files as evidence); a primary re-seals its history
/// from its own live state — the state every acked write already
/// reached — by writing a fresh compacting snapshot.
fn repair(router: &Router, journal: &Journal, quarantined: u64) {
    let state = router.state();
    journal.await_repair(quarantined);
    if let Some(repl) = &state.repl {
        if repl.role() == Role::Follower {
            repl.request_resync();
            eprintln!("[mine-scrub] requested re-bootstrap from the leader to repair");
            return;
        }
    }
    // Primary (or standalone): self-repair by compaction.
    let _gate = journal.gate_write();
    if let Err(err) = journal.write_base(state) {
        // A reopen refuses the gap the quarantine leaves until an image
        // covers it. The failed write left the journal due, so the next
        // write or scrub pass compacts, which covers it.
        eprintln!(
            "[mine-scrub] self-repair snapshot failed (retried by the next compaction): {err}"
        );
    }
}

/// What a peer's `/admin/ranges` reported.
#[derive(Debug)]
struct RemoteRanges {
    epoch: u64,
    head_seq: u64,
    ranges: Vec<RangeHash>,
}

/// Writes range hashes as `/admin/ranges` and `mine scrub --json`
/// carry them: `[{"first_seq":…,"last_seq":…,"count":…,"hash":…},…]`.
/// The scrubber reads the same shape back from a peer (`fetch_ranges`).
pub fn write_range_hashes(out: &mut JsonWriter, ranges: &[RangeHash]) {
    out.raw("[");
    for (i, range) in ranges.iter().enumerate() {
        if i > 0 {
            out.raw(",");
        }
        let mut entry = out.object();
        entry.field("first_seq", &range.first_seq);
        entry.field("last_seq", &range.last_seq);
        entry.field("count", &range.count);
        entry.field("hash", &range.hash);
        entry.end();
    }
    out.raw("]");
}

/// Fetches and decodes a peer's integrity table. `None` when the peer
/// is unreachable or answers nonsense (both mean "skip this pass").
fn fetch_ranges(addr: &str) -> Option<RemoteRanges> {
    let mut client = HttpClient::with_timeout(addr, RANGES_TIMEOUT).ok()?;
    let response = client.get("/admin/ranges").ok()?;
    let body: Value = response.json().ok()?;
    let epoch = as_u64(body.get("epoch")?)?;
    let head_seq = as_u64(body.get("head_seq")?)?;
    let Value::Array(entries) = body.get("ranges")? else {
        return None;
    };
    let mut ranges = Vec::with_capacity(entries.len());
    for entry in entries {
        ranges.push(RangeHash {
            first_seq: as_u64(entry.get("first_seq")?)?,
            last_seq: as_u64(entry.get("last_seq")?)?,
            count: as_u64(entry.get("count")?)?,
            hash: as_u64(entry.get("hash")?)?,
        });
    }
    Some(RemoteRanges {
        epoch,
        head_seq,
        ranges,
    })
}

fn as_u64(value: &Value) -> Option<u64> {
    match value {
        Value::Number(Number::PosInt(n)) => Some(*n),
        _ => None,
    }
}

/// Maps diverging windows, given by their first sequence numbers as
/// [`diverging_windows`] returns them, back to the sealed segments
/// whose records fall inside them (a window can span segments and vice
/// versa). Returns the segments' first sequence numbers.
fn segments_for_windows(report: &ScrubReport, windows: &[u64]) -> Vec<u64> {
    let mut hits = BTreeSet::new();
    for &window_first in windows {
        let window_last = window_first + RANGE_WINDOW - 1;
        for segment in &report.segments {
            if segment.records == 0 {
                continue;
            }
            let last = segment.first_seq + segment.records - 1;
            if segment.first_seq <= window_last && last >= window_first {
                hits.insert(segment.first_seq);
            }
        }
    }
    hits.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::Request;
    use crate::journal::open_journaled_state;
    use mine_itembank::{Exam, Problem, Repository};
    use mine_store::{read_store, FaultPlan, StoreOptions};

    fn repository() -> Repository {
        let repo = Repository::new();
        let mut exam = Exam::builder("quiz").unwrap();
        for id in ["q1", "q2"] {
            repo.insert_problem(Problem::true_false(id, "Yes?", true).unwrap())
                .unwrap();
            exam = exam.entry(id.parse().unwrap());
        }
        repo.insert_exam(exam.build().unwrap()).unwrap();
        repo
    }

    #[test]
    fn a_failed_self_repair_is_retried_by_the_next_pass() {
        let dir = std::env::temp_dir().join(format!("mine-scrub-retry-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // Rot record 2 at rest and fail the first image write: the
        // primary's self-repair of the quarantined segment.
        let plan = FaultPlan::parse("disk.bitrot@2:4;disk.snapshot_err@1").unwrap();
        let options = StoreOptions {
            max_segment_bytes: 256,
            fault_plan: Some(Arc::new(plan)),
            ..StoreOptions::default()
        };
        let (state, _) = open_journaled_state(repository(), &dir, options, 1_000).unwrap();
        let router = Router::with_state(state);
        for student in 0..12 {
            let body = format!(r#"{{"exam":"quiz","student":"s{student}"}}"#);
            let response = router.handle(&Request::new("POST", "/sessions", body));
            assert_eq!(response.status, 201, "{}", response.body);
        }
        let repaired = || router.state().metrics.snapshot(0, 0).repair_segments_total;
        scrub_pass(&router);
        assert!(
            read_store(&dir).is_err(),
            "the quarantine leaves a gap the failed repair did not cover"
        );
        assert_eq!(repaired(), 0, "nothing is repaired yet");
        scrub_pass(&router);
        read_store(&dir).expect("the next pass retried the repair");
        assert_eq!(repaired(), 1, "the retried compaction credits the repair");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn windows_map_back_to_overlapping_segments() {
        let segment = |first_seq: u64, records: u64| mine_store::SegmentReport {
            file: format!("wal-{first_seq:020}.log"),
            first_seq,
            records,
            bytes: 0,
            corrupt: None,
        };
        let report = ScrubReport {
            // Window 1 covers seqs 1..=1024; window 1025 covers 1025..=2048.
            segments: vec![segment(1, 1000), segment(1001, 500), segment(1501, 1000)],
            ..ScrubReport::default()
        };
        // Window 1 overlaps the first two segments.
        assert_eq!(segments_for_windows(&report, &[1]), vec![1, 1001]);
        // Window 1025 overlaps the last two.
        assert_eq!(segments_for_windows(&report, &[1025]), vec![1001, 1501]);
        // Both windows: all three, deduplicated.
        assert_eq!(
            segments_for_windows(&report, &[1, 1025]),
            vec![1, 1001, 1501]
        );
    }

    #[test]
    fn a_diverging_payload_maps_to_the_segment_that_holds_it() {
        // Two journals, small segments, byte-equal except the payload at
        // seq 5 (same length, so every frame and CRC stays valid).
        let open = |tag: &str, divergent: bool| {
            let dir = std::env::temp_dir()
                .join(format!("mine-scrub-windows-{tag}-{}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            let options = mine_store::StoreOptions {
                max_segment_bytes: 64,
                ..mine_store::StoreOptions::default()
            };
            let (store, _) = mine_store::EventStore::open(&dir, options).unwrap();
            for i in 0..10 {
                let payload = if divergent && i == 4 {
                    "recorD-4".to_string()
                } else {
                    format!("record-{i}")
                };
                store.append(payload.as_bytes()).unwrap();
            }
            drop(store);
            let report = scrub_dir(&dir, None).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            report
        };
        let leader = open("leader", false);
        let follower = open("follower", true);
        let windows = diverging_windows(&follower.ranges, &leader.ranges, 10);
        let holding_seq_5 = follower
            .segments
            .iter()
            .find(|s| s.first_seq <= 5 && 5 < s.first_seq + s.records)
            .expect("a sealed segment holds seq 5")
            .first_seq;
        let hits = segments_for_windows(&follower, &windows);
        assert!(hits.contains(&holding_seq_5), "{windows:?} -> {hits:?}");
    }

    #[test]
    fn as_u64_rejects_non_numbers() {
        assert_eq!(as_u64(&Value::String("7".to_string())), None);
        assert_eq!(as_u64(&Value::Number(Number::PosInt(7))), Some(7));
    }
}
