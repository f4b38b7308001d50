//! The streaming engine: per-exam running sufficient statistics,
//! updated once per finished sitting.
//!
//! # What is maintained incrementally
//!
//! * the ranked set: one `BTreeSet` of every rankable row's key in the
//!   analysis total order (score descending, id ascending),
//! * the high/low group membership sets, repaired after every change so
//!   `high` is always exactly the first `k` ranked students and `low`
//!   the last `k` (`k = fraction.group_size(n)`). Each group moves one
//!   neighbour at a time — the successor of `high`'s last key, the
//!   predecessor of `low`'s first — an O(log n) range query on the
//!   ranked set, and each membership transition applies ±1 to that
//!   student's per-question per-option counters — the "O(1 +
//!   re-assignments)" work per finish,
//! * per-question correct counts and option tallies for both groups,
//! * order-independent whole-class aggregates: total sitting time,
//!   attempted-response count, and the `answered_at` / `total_time`
//!   multisets backing the §4.2.1 time figure.
//!
//! # Why this converges everywhere
//!
//! Every piece of engine state is a *pure function of the current set of
//! finished rows*: counters always equal "sum over current members",
//! membership always equals "first/last k of the ranked set", multisets are
//! order-independent. A resit replaces its previous row (remove then
//! insert), matching the server's `FinishedStore` semantics. So the
//! live finish path, a WAL replay after kill -9, and a promoted
//! follower's apply stream — which see the same rows in different
//! orders — all land on identical engine state, and
//! [`ExamStream::report`] is deterministic on top of it.
//!
//! # How floating-point folds stay byte-identical
//!
//! The batch pipeline computes its variances in moment form (Σv, Σv²).
//! When every awarded-points value is an exact small integer (see
//! `exactly_summable`) those sums are exact in both the batch f64
//! folds and the engine's running i64 accumulators, so the assembler
//! reproduces every statistic bit-for-bit from counters alone. The only
//! read-time row iteration left is the per-student scatter figure,
//! whose *output* is itself one point per row. Rows outside the
//! exact-integer envelope mark the stream unstreamable and callers
//! fall back to the batch path, which reproduces the exact report (or
//! its exact error) from the raw rows.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Bound::{Excluded, Unbounded};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Mutex, RwLock};

use mine_analysis::{AnalysisConfig, BatchReport};
use mine_core::{ProblemId, StudentId, StudentRecord};
use mine_itembank::Problem;

use crate::assemble;
use crate::ranking::RankKey;
use crate::Unstreamable;

/// Options per question the engine tallies: `OptionKey` indices are
/// `0..=25`, so 26 slots always suffice; the report truncates to each
/// question's real option count.
pub(crate) const OPTION_SLOTS: usize = 26;

/// Largest magnitude a points value (or row total) may have while its
/// square still sums exactly in an f64 fold over two million rows
/// (`v² ≤ 2³², n ≤ 2²¹ ⇒ partial sums < 2⁵³`). Values beyond this are
/// unstreamable and fall back to batch.
const EXACT_LIMIT: f64 = 65_536.0;

/// Rows beyond which the batch pipeline's f64 moment folds are no
/// longer guaranteed exact against the engine's integer sums.
const EXACT_ROWS: usize = 2_000_000;

/// Whether `v` participates exactly in integer moment sums.
fn exactly_summable(v: f64) -> bool {
    v.is_finite() && v.fract() == 0.0 && v.abs() <= EXACT_LIMIT
}

/// Cap on [`ExamStream::answered_times`] (one bucket per second, ~12
/// days): a pathological `answered_at` cannot balloon the vec. Times at
/// or past the cap all share the last bucket, which rank queries never
/// treat as wholly below a threshold — they search it instead.
pub(crate) const TIME_BUCKET_CAP: usize = 1 << 20;

/// Bucket index of `at` in [`ExamStream::answered_times`].
pub(crate) fn time_bucket(at: Duration) -> usize {
    usize::try_from(at.as_secs())
        .unwrap_or(usize::MAX)
        .min(TIME_BUCKET_CAP - 1)
}

/// One response of one finished row, in presentation order.
#[derive(Debug, Clone)]
pub(crate) struct Cell {
    /// Interned problem id.
    pub problem: u32,
    /// Graded correct?
    pub correct: bool,
    /// Chosen option index for choice answers.
    pub option: Option<u8>,
    /// Points awarded.
    pub points: f64,
    /// When the answer was committed, relative to the sitting start.
    pub answered_at: Option<Duration>,
}

/// A finished sitting, reduced to what the report needs.
#[derive(Debug, Clone)]
pub(crate) struct StudentRow {
    /// Total score (same left-to-right fold as `StudentRecord::score`).
    pub score: f64,
    /// Total attainable points.
    pub max_score: f64,
    /// Total sitting time.
    pub total_time: Duration,
    /// Non-skipped responses.
    pub attempted: usize,
    /// Responses in presentation order.
    pub cells: Vec<Cell>,
    /// `(problem, cell index)` sorted by problem, first occurrence
    /// first — O(log q) response lookup for the Cronbach fold.
    pub by_problem: Vec<(u32, u32)>,
    /// Whether the row answers the same problem twice.
    pub duplicate_problems: bool,
    /// Whether every awarded-points value (and the total) is an exact
    /// small integer, so the row participates in the engine's integer
    /// moment sums. A `false` row makes the stream unstreamable.
    pub exact_sums: bool,
    /// Rank key; `None` for non-finite scores (unstreamable).
    pub rank: Option<RankKey>,
}

/// One row's slice of the scatter working set: total score plus the
/// span of its correctly answered interned problems (presentation
/// order) inside [`ExamStream::scatter_arena`]. Kept in a flat vec
/// sorted by student so the score–difficulty figure is one
/// gather-friendly pass instead of a pointer-chasing tree walk.
#[derive(Debug, Clone)]
pub(crate) struct ScatterRow {
    pub student: StudentId,
    pub score: f64,
    pub offset: u32,
    pub len: u32,
}

/// Per-question per-group tallies.
#[derive(Debug, Clone)]
pub(crate) struct QStat {
    pub high_correct: u64,
    pub low_correct: u64,
    pub high_options: [u64; OPTION_SLOTS],
    pub low_options: [u64; OPTION_SLOTS],
}

impl Default for QStat {
    fn default() -> Self {
        Self {
            high_correct: 0,
            low_correct: 0,
            high_options: [0; OPTION_SLOTS],
            low_options: [0; OPTION_SLOTS],
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    High,
    Low,
}

/// The running statistics of one exam.
#[derive(Debug)]
pub struct ExamStream {
    pub(crate) config: AnalysisConfig,
    /// Problem id → intern index (stable across the stream's lifetime).
    intern: HashMap<ProblemId, u32>,
    /// Intern index → problem id.
    pub(crate) problem_ids: Vec<ProblemId>,
    /// Finished rows by student — same ordering as the server's
    /// `FinishedStore`, which the order-sensitive read-time folds rely
    /// on.
    pub(crate) rows: BTreeMap<StudentId, StudentRow>,
    /// Every rankable row's key, in the analysis total order.
    pub(crate) ranked: BTreeSet<RankKey>,
    /// Current high group = first `k` of `ranked`.
    pub(crate) high: BTreeSet<RankKey>,
    /// Current low group = last `k` of `ranked`.
    pub(crate) low: BTreeSet<RankKey>,
    /// Per-question group tallies, indexed by intern index.
    pub(crate) qstats: Vec<QStat>,
    /// Sorted problem-multiset shape → number of rows with it. More
    /// than one shape means the batch pipeline would reject the record.
    shapes: HashMap<Vec<u32>, usize>,
    /// Rows answering some problem twice (invisible to
    /// `ExamRecord::validate` when uniform, but they break the
    /// first-occurrence index the assembler uses — unstreamable).
    dup_rows: usize,
    /// Rows with non-finite scores (no defined rank — unstreamable).
    unrankable: usize,
    /// Rows whose points are not exact small integers (unstreamable —
    /// their float folds cannot be reproduced order-independently).
    inexact_rows: usize,
    /// Σ score over exact rows, exact integer arithmetic.
    pub(crate) score_sum: i64,
    /// Σ score² over exact rows.
    pub(crate) score_sq_sum: i64,
    /// Score multiset over exact rows — order statistics (median,
    /// pass counts, histogram buckets) in O(distinct values).
    pub(crate) scores: BTreeMap<i64, u64>,
    /// Σ points per interned problem over exact rows.
    pub(crate) item_sums: Vec<i64>,
    /// Σ points² per interned problem over exact rows.
    pub(crate) item_sq_sums: Vec<i64>,
    /// Σ total_time over rows (integer Duration math, order-free).
    pub(crate) total_time_sum: Duration,
    /// Σ attempted over rows.
    pub(crate) attempted_sum: u64,
    /// Multiset of every response's `answered_at`, bucketed per second
    /// ([`time_bucket`]) with each bucket sorted — a `<= t` rank query
    /// (the time-answered figure asks 20 per read) sums whole buckets
    /// and binary-searches only the boundary second.
    pub(crate) answered_times: Vec<Vec<Duration>>,
    /// `answered_times[b].len()` densely, so whole-bucket prefix sums
    /// vectorize instead of hopping across bucket headers.
    pub(crate) answered_counts: Vec<u32>,
    /// Multiset of per-row total sitting times.
    pub(crate) total_times: BTreeMap<Duration, u64>,
    /// Scatter rows in student order, mirroring `rows` (see
    /// [`ScatterRow`]).
    pub(crate) scatter_rows: Vec<ScatterRow>,
    /// Flat storage for every scatter row's correct interns. Resits
    /// orphan their old span; compaction reclaims once orphans dominate.
    pub(crate) scatter_arena: Vec<u32>,
    /// Orphaned entries in `scatter_arena`.
    scatter_garbage: usize,
}

impl ExamStream {
    /// An empty stream under `config`.
    #[must_use]
    pub fn new(config: AnalysisConfig) -> Self {
        Self {
            config,
            intern: HashMap::new(),
            problem_ids: Vec::new(),
            rows: BTreeMap::new(),
            ranked: BTreeSet::new(),
            high: BTreeSet::new(),
            low: BTreeSet::new(),
            qstats: Vec::new(),
            shapes: HashMap::new(),
            dup_rows: 0,
            unrankable: 0,
            inexact_rows: 0,
            score_sum: 0,
            score_sq_sum: 0,
            scores: BTreeMap::new(),
            item_sums: Vec::new(),
            item_sq_sums: Vec::new(),
            total_time_sum: Duration::ZERO,
            attempted_sum: 0,
            answered_times: Vec::new(),
            answered_counts: Vec::new(),
            total_times: BTreeMap::new(),
            scatter_rows: Vec::new(),
            scatter_arena: Vec::new(),
            scatter_garbage: 0,
        }
    }

    /// Finished sittings currently folded in.
    #[must_use]
    pub fn sittings(&self) -> usize {
        self.rows.len()
    }

    pub(crate) fn anomaly(&self) -> Option<&'static str> {
        if self.rows.is_empty() {
            return Some("no finished sittings streamed");
        }
        if self.dup_rows > 0 {
            return Some("a sitting answers the same problem twice");
        }
        if self.shapes.len() > 1 {
            return Some("sittings answered different problem sets");
        }
        if self.unrankable > 0 {
            return Some("a sitting has a non-finite score");
        }
        if self.inexact_rows > 0 {
            return Some("a sitting has non-integer or oversized points");
        }
        if self.rows.len() > EXACT_ROWS {
            return Some("class too large for exact moment folds");
        }
        let n = self.ranked.len();
        let k = self.config.group_fraction.group_size(n);
        if 2 * k > n {
            return Some("class too small for disjoint high/low groups");
        }
        None
    }

    /// Folds one finished sitting in. A record for a student already
    /// streamed replaces the previous row (resit semantics, matching
    /// the server's finished store).
    pub fn apply(&mut self, record: &StudentRecord) {
        self.remove(&record.student);

        let mut cells = Vec::with_capacity(record.responses.len());
        let mut by_problem: Vec<(u32, u32)> = Vec::with_capacity(record.responses.len());
        for (i, response) in record.responses.iter().enumerate() {
            let problem = self.intern_problem(&response.problem);
            cells.push(Cell {
                problem,
                correct: response.is_correct,
                option: response.answer.chosen_option().map(|key| key.index() as u8),
                points: response.points_awarded,
                answered_at: response.answered_at,
            });
            by_problem.push((problem, i as u32));
        }
        by_problem.sort_unstable();
        let duplicate_problems = by_problem.windows(2).any(|w| w[0].0 == w[1].0);

        let score = record.score();
        let exact_sums =
            exactly_summable(score) && cells.iter().all(|cell| exactly_summable(cell.points));
        let row = StudentRow {
            score,
            max_score: record.max_score(),
            total_time: record.total_time,
            attempted: record.attempted_count(),
            cells,
            by_problem,
            duplicate_problems,
            exact_sums,
            rank: RankKey::new(score, record.student.clone()),
        };

        let shape: Vec<u32> = row.by_problem.iter().map(|&(p, _)| p).collect();
        *self.shapes.entry(shape).or_insert(0) += 1;
        if row.duplicate_problems {
            self.dup_rows += 1;
        }
        self.total_time_sum += row.total_time;
        self.attempted_sum += row.attempted as u64;
        multiset_add(&mut self.total_times, row.total_time);
        for cell in &row.cells {
            if let Some(at) = cell.answered_at {
                let bucket = time_bucket(at);
                if bucket >= self.answered_times.len() {
                    self.answered_times.resize(bucket + 1, Vec::new());
                    self.answered_counts.resize(bucket + 1, 0);
                }
                let times = &mut self.answered_times[bucket];
                let pos = times.partition_point(|&existing| existing < at);
                times.insert(pos, at);
                self.answered_counts[bucket] += 1;
            }
        }
        self.qstats
            .resize_with(self.problem_ids.len(), QStat::default);
        self.item_sums.resize(self.problem_ids.len(), 0);
        self.item_sq_sums.resize(self.problem_ids.len(), 0);
        if row.exact_sums {
            let s = row.score as i64;
            self.score_sum += s;
            self.score_sq_sum += s * s;
            *self.scores.entry(s).or_insert(0) += 1;
            for cell in &row.cells {
                let p = cell.points as i64;
                self.item_sums[cell.problem as usize] += p;
                self.item_sq_sums[cell.problem as usize] += p * p;
            }
        } else {
            self.inexact_rows += 1;
        }

        let offset = u32::try_from(self.scatter_arena.len()).expect("arena under 2^32 entries");
        self.scatter_arena.extend(
            row.cells
                .iter()
                .filter(|cell| cell.correct)
                .map(|cell| cell.problem),
        );
        let scatter = ScatterRow {
            student: record.student.clone(),
            score: row.score,
            offset,
            len: u32::try_from(self.scatter_arena.len()).expect("arena under 2^32 entries")
                - offset,
        };
        let at = self
            .scatter_rows
            .partition_point(|existing| existing.student < scatter.student);
        self.scatter_rows.insert(at, scatter);

        let rank = row.rank.clone();
        self.rows.insert(record.student.clone(), row);
        match rank {
            Some(key) => {
                self.ranked.insert(key.clone());
                // A newcomer landing inside the current high prefix (or
                // low suffix) joins it immediately, keeping the
                // prefix/suffix invariant; `repair` then restores the
                // size.
                let inside_high = self.high.last().is_some_and(|last| key < *last);
                if inside_high {
                    self.member_add(Side::High, key.clone());
                }
                let inside_low = self.low.first().is_some_and(|first| key > *first);
                if inside_low {
                    self.member_add(Side::Low, key);
                }
            }
            None => self.unrankable += 1,
        }
        self.repair();
    }

    /// Removes a student's row (no-op when absent). Public so resit
    /// revocation flows can be wired later; `apply` uses it for
    /// replacement semantics.
    pub fn remove(&mut self, student: &StudentId) {
        let Some(row) = self.rows.remove(student) else {
            return;
        };
        let at = self
            .scatter_rows
            .partition_point(|existing| existing.student < *student);
        debug_assert!(
            self.scatter_rows[at].student == *student,
            "scatter mirrors rows"
        );
        let orphan = self.scatter_rows.remove(at);
        self.scatter_garbage += orphan.len as usize;
        if self.scatter_garbage > self.scatter_arena.len() / 2 && self.scatter_arena.len() > 1024 {
            self.compact_scatter_arena();
        }
        match &row.rank {
            Some(key) => {
                if self.high.remove(key) {
                    self.tally(&row, Side::High, false);
                }
                if self.low.remove(key) {
                    self.tally(&row, Side::Low, false);
                }
                self.ranked.remove(key);
            }
            None => self.unrankable -= 1,
        }

        let shape: Vec<u32> = row.by_problem.iter().map(|&(p, _)| p).collect();
        if let Some(count) = self.shapes.get_mut(&shape) {
            *count -= 1;
            if *count == 0 {
                self.shapes.remove(&shape);
            }
        }
        if row.duplicate_problems {
            self.dup_rows -= 1;
        }
        self.total_time_sum -= row.total_time;
        self.attempted_sum -= row.attempted as u64;
        multiset_remove(&mut self.total_times, row.total_time);
        for cell in &row.cells {
            if let Some(at) = cell.answered_at {
                let bucket = time_bucket(at);
                let times = &mut self.answered_times[bucket];
                let pos = times.partition_point(|&existing| existing < at);
                debug_assert!(times.get(pos) == Some(&at), "time multiset mirrors rows");
                times.remove(pos);
                self.answered_counts[bucket] -= 1;
            }
        }
        if row.exact_sums {
            let s = row.score as i64;
            self.score_sum -= s;
            self.score_sq_sum -= s * s;
            match self.scores.get_mut(&s) {
                Some(count) if *count > 1 => *count -= 1,
                Some(_) => {
                    self.scores.remove(&s);
                }
                None => debug_assert!(false, "removing score {s} not in multiset"),
            }
            for cell in &row.cells {
                let p = cell.points as i64;
                self.item_sums[cell.problem as usize] -= p;
                self.item_sq_sums[cell.problem as usize] -= p * p;
            }
        } else {
            self.inexact_rows -= 1;
        }
        self.repair();
    }

    /// Rewrites `scatter_arena` with only the live spans (in row
    /// order), dropping the entries orphaned by resits. Amortized O(1)
    /// per removal: runs only once orphans outnumber live entries.
    fn compact_scatter_arena(&mut self) {
        let live = self.scatter_arena.len() - self.scatter_garbage;
        let mut arena = Vec::with_capacity(live.next_power_of_two());
        for row in &mut self.scatter_rows {
            let offset = u32::try_from(arena.len()).expect("arena shrinks during compaction");
            let span = row.offset as usize..(row.offset + row.len) as usize;
            arena.extend_from_slice(&self.scatter_arena[span]);
            row.offset = offset;
        }
        self.scatter_arena = arena;
        self.scatter_garbage = 0;
    }

    /// Assembles the full §4 report from the running statistics,
    /// byte-identical (under `serde_json`) to the batch pipeline over
    /// the same rows.
    ///
    /// # Errors
    ///
    /// [`Unstreamable`] when the streamed rows are outside what the
    /// incremental counters can reproduce exactly (mixed problem sets,
    /// in-row duplicates, non-finite scores, a class too small to split,
    /// or a problem missing from `problems`) — callers fall back to the
    /// batch path, which reproduces the batch pipeline's exact error.
    pub fn report(&self, problems: &[Problem]) -> Result<BatchReport, Unstreamable> {
        assemble::assemble(self, problems)
    }

    /// The interned id of `problem`, allocating on first sight.
    fn intern_problem(&mut self, problem: &ProblemId) -> u32 {
        if let Some(&index) = self.intern.get(problem) {
            return index;
        }
        let index = u32::try_from(self.problem_ids.len()).expect("fewer than 2^32 problems");
        self.intern.insert(problem.clone(), index);
        self.problem_ids.push(problem.clone());
        index
    }

    /// Canonical problem order: the minimum-id row's cells, presentation
    /// order — exactly `ExamRecord::problems()` over the `BTreeMap`
    /// iteration the batch path sees.
    pub(crate) fn canonical_cells(&self) -> Option<&StudentRow> {
        self.rows.values().next()
    }

    /// Restores `high` = first `k` and `low` = last `k` of `ranked`
    /// after any insertion/removal, applying counter deltas for every
    /// membership change. Each group grows by its neighbour in `ranked`:
    /// `high` by the successor of its last key, `low` by the predecessor
    /// of its first.
    fn repair(&mut self) {
        let n = self.ranked.len();
        let k = if n == 0 {
            0
        } else {
            self.config.group_fraction.group_size(n)
        };
        while self.high.len() > k {
            let worst = self.high.last().expect("len > k >= 0").clone();
            self.member_drop(Side::High, &worst);
        }
        while self.high.len() < k {
            let next = match self.high.last() {
                Some(last) => self.ranked.range((Excluded(last), Unbounded)).next(),
                None => self.ranked.first(),
            };
            let next = next.expect("k <= n").clone();
            self.member_add(Side::High, next);
        }
        while self.low.len() > k {
            let best = self.low.first().expect("len > k >= 0").clone();
            self.member_drop(Side::Low, &best);
        }
        while self.low.len() < k {
            let next = match self.low.first() {
                Some(first) => self.ranked.range(..first).next_back(),
                None => self.ranked.last(),
            };
            let next = next.expect("k <= n").clone();
            self.member_add(Side::Low, next);
        }
    }

    fn member_add(&mut self, side: Side, key: RankKey) {
        let row = self
            .rows
            .get(key.student())
            .expect("ranked students have rows");
        let qstats = &mut self.qstats;
        Self::tally_into(qstats, row, side, true);
        match side {
            Side::High => self.high.insert(key),
            Side::Low => self.low.insert(key),
        };
    }

    fn member_drop(&mut self, side: Side, key: &RankKey) {
        match side {
            Side::High => self.high.remove(key),
            Side::Low => self.low.remove(key),
        };
        let row = self
            .rows
            .get(key.student())
            .expect("ranked students have rows");
        Self::tally_into(&mut self.qstats, row, side, false);
    }

    fn tally(&mut self, row: &StudentRow, side: Side, add: bool) {
        Self::tally_into(&mut self.qstats, row, side, add);
    }

    /// Applies one row's responses to one group's counters.
    fn tally_into(qstats: &mut [QStat], row: &StudentRow, side: Side, add: bool) {
        for cell in &row.cells {
            let stat = &mut qstats[cell.problem as usize];
            let (correct, options) = match side {
                Side::High => (&mut stat.high_correct, &mut stat.high_options),
                Side::Low => (&mut stat.low_correct, &mut stat.low_options),
            };
            if cell.correct {
                if add {
                    *correct += 1;
                } else {
                    *correct -= 1;
                }
            }
            if let Some(option) = cell.option {
                let slot = &mut options[option as usize];
                if add {
                    *slot += 1;
                } else {
                    *slot -= 1;
                }
            }
        }
    }
}

fn multiset_add(map: &mut BTreeMap<Duration, u64>, key: Duration) {
    *map.entry(key).or_insert(0) += 1;
}

fn multiset_remove(map: &mut BTreeMap<Duration, u64>, key: Duration) {
    match map.get_mut(&key) {
        Some(count) if *count > 1 => *count -= 1,
        Some(_) => {
            map.remove(&key);
        }
        None => debug_assert!(false, "removing {key:?} not in multiset"),
    }
}

/// The process-wide engine: one [`ExamStream`] per exam behind a
/// per-exam mutex, so the server can fold a finish into the store and
/// the stream under one critical section.
///
/// Every exam slot also carries a *generation stamp*: a value from one
/// engine-wide counter, replaced after every mutation while the exam's
/// mutex is still held. A stamp therefore names exactly one stream
/// state, stamps only ever grow, and no stamp is ever issued twice —
/// not even across [`StreamEngine::replace_with`]. Readers compare stamps
/// ([`StreamEngine::generation`]) without taking the exam mutex to tell
/// whether anything they derived from an earlier state is still
/// current.
#[derive(Debug)]
pub struct StreamEngine {
    config: AnalysisConfig,
    exams: RwLock<HashMap<String, Arc<Slot>>>,
    /// The last stamp issued to any slot.
    clock: AtomicU64,
}

/// One exam's stream and the stamp of its current state.
#[derive(Debug)]
struct Slot {
    stamp: AtomicU64,
    stream: Mutex<ExamStream>,
}

fn next_stamp(clock: &AtomicU64) -> u64 {
    clock.fetch_add(1, Ordering::Relaxed) + 1
}

impl StreamEngine {
    /// An empty engine analyzing under `config`.
    #[must_use]
    pub fn new(config: AnalysisConfig) -> Self {
        Self {
            config,
            exams: RwLock::new(HashMap::new()),
            clock: AtomicU64::new(0),
        }
    }

    /// The analysis configuration every stream runs under.
    #[must_use]
    pub fn config(&self) -> &AnalysisConfig {
        &self.config
    }

    /// The exam's slot, if it has ever streamed (the map guard is
    /// released before the caller touches the slot's mutex).
    fn slot(&self, exam: &str) -> Option<Arc<Slot>> {
        self.exams.read().get(exam).map(Arc::clone)
    }

    /// Runs `f` under the exam's stream lock, creating an empty stream
    /// on first use. The lock is the ingestion critical section: callers
    /// that must keep the stream aligned with another store update both
    /// inside one `with_exam` call. `f` may mutate, so the exam gets a
    /// fresh generation stamp before the lock is released.
    pub fn with_exam<R>(&self, exam: &str, f: impl FnOnce(&mut ExamStream) -> R) -> R {
        // `slot` drops the map's read guard before returning, so the
        // write guard below cannot self-deadlock against it.
        let slot = self.slot(exam).unwrap_or_else(|| {
            Arc::clone(
                self.exams
                    .write()
                    .entry(exam.to_string())
                    .or_insert_with(|| {
                        Arc::new(Slot {
                            stamp: AtomicU64::new(next_stamp(&self.clock)),
                            stream: Mutex::new(ExamStream::new(self.config)),
                        })
                    }),
            )
        });
        let mut stream = slot.stream.lock();
        let result = f(&mut stream);
        // Published while `stream` still holds the lock.
        slot.stamp.store(next_stamp(&self.clock), Ordering::Release);
        result
    }

    /// Folds one finished sitting into `exam`'s stream.
    pub fn apply(&self, exam: &str, record: &StudentRecord) {
        self.with_exam(exam, |stream| stream.apply(record));
    }

    /// Sittings currently folded into `exam`'s stream (0 when the exam
    /// has never streamed).
    #[must_use]
    pub fn sittings(&self, exam: &str) -> usize {
        self.slot(exam)
            .map_or(0, |slot| slot.stream.lock().sittings())
    }

    /// The generation stamp of `exam`'s current stream state (`None`
    /// when the exam has never streamed). Reads the stamp without
    /// taking the exam's mutex: a mutation in progress still shows the
    /// previous stamp until it completes.
    #[must_use]
    pub fn generation(&self, exam: &str) -> Option<u64> {
        self.exams
            .read()
            .get(exam)
            .map(|slot| slot.stamp.load(Ordering::Acquire))
    }

    /// Assembles `exam`'s report from the running statistics.
    ///
    /// # Errors
    ///
    /// [`Unstreamable`] when the exam never streamed or its stream
    /// cannot reproduce the batch output exactly.
    pub fn report(&self, exam: &str, problems: &[Problem]) -> Result<BatchReport, Unstreamable> {
        self.stamped_report(exam, problems)
            .map(|(_, report)| report)
    }

    /// [`StreamEngine::report`] together with the generation stamp of
    /// the state it was assembled from (read under the same lock).
    ///
    /// # Errors
    ///
    /// As [`StreamEngine::report`].
    pub fn stamped_report(
        &self,
        exam: &str,
        problems: &[Problem],
    ) -> Result<(u64, BatchReport), Unstreamable> {
        let slot = self
            .slot(exam)
            .ok_or_else(|| Unstreamable::new("no finished sittings streamed"))?;
        let stream = slot.stream.lock();
        let stamp = slot.stamp.load(Ordering::Acquire);
        stream.report(problems).map(|report| (stamp, report))
    }

    /// Takes over every stream of `fresh` in one swap — used when a
    /// follower re-bootstraps: it restores the leader's image into a
    /// fresh engine, then swaps it in, so a reader sees the old streams
    /// or the new ones, never an empty engine. Each taken-over stream is
    /// re-stamped from this engine's clock, so no stamp is ever issued
    /// twice.
    pub fn replace_with(&self, fresh: StreamEngine) {
        let exams = fresh.exams.into_inner();
        for slot in exams.values() {
            slot.stamp.store(next_stamp(&self.clock), Ordering::Release);
        }
        *self.exams.write() = exams;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_core::{Answer, GroupFraction, ItemResponse};
    use proptest::prelude::*;

    fn record(student: &str, points: &[f64]) -> StudentRecord {
        let responses = points
            .iter()
            .enumerate()
            .map(|(q, &p)| {
                let pid: ProblemId = format!("q{q}").parse().unwrap();
                if p > 0.0 {
                    ItemResponse::correct(pid, Answer::TrueFalse(true), p)
                } else {
                    ItemResponse::incorrect(pid, Answer::TrueFalse(false), 1.0)
                }
            })
            .collect();
        let mut rec = StudentRecord::new(student.parse().unwrap(), responses);
        rec.total_time = Duration::from_secs(60);
        rec
    }

    proptest! {
        /// After every finish or re-sit, `ranked` is the rows sorted by
        /// score descending then id ascending, `high`/`low` are its first
        /// and last `k`, and the group counters sum over exactly those
        /// members. Scores 0..=4 over a pool of 12 students make ties
        /// and re-sits common.
        #[test]
        fn groups_track_the_first_and_last_k(
            fraction in prop_oneof![
                Just(GroupFraction::PAPER),
                Just(GroupFraction::KELLY_OPTIMAL),
                Just(GroupFraction::ACCEPTABLE_MAX),
            ],
            finishes in proptest::collection::vec((0..12usize, 0..=4u8), 1..60),
        ) {
            let config = AnalysisConfig::default().with_group_fraction(fraction);
            let mut stream = ExamStream::new(config);
            for (student, score) in finishes {
                stream.apply(&record(&format!("s{student:02}"), &[f64::from(score)]));

                let mut oracle: Vec<(&StudentId, f64)> =
                    stream.rows.iter().map(|(id, row)| (id, row.score)).collect();
                oracle.sort_by(|a, b| b.1.total_cmp(&a.1).then_with(|| a.0.cmp(b.0)));
                let ranked: Vec<&StudentId> = stream.ranked.iter().map(RankKey::student).collect();
                let sorted: Vec<&StudentId> = oracle.iter().map(|&(id, _)| id).collect();
                prop_assert_eq!(ranked, sorted);

                let k = fraction.group_size(stream.ranked.len());
                let first: BTreeSet<RankKey> = stream.ranked.iter().take(k).cloned().collect();
                let last: BTreeSet<RankKey> = stream.ranked.iter().rev().take(k).cloned().collect();
                prop_assert_eq!(&stream.high, &first);
                prop_assert_eq!(&stream.low, &last);

                let correct = |group: &BTreeSet<RankKey>| {
                    group.iter().filter(|key| stream.rows[key.student()].score > 0.0).count() as u64
                };
                prop_assert_eq!(stream.qstats[0].high_correct, correct(&stream.high));
                prop_assert_eq!(stream.qstats[0].low_correct, correct(&stream.low));
            }
        }
    }

    #[test]
    fn resit_replaces_the_previous_row() {
        let mut stream = ExamStream::new(AnalysisConfig::default());
        stream.apply(&record("s1", &[1.0, 1.0]));
        stream.apply(&record("s2", &[0.0, 0.0]));
        stream.apply(&record("s1", &[0.0, 1.0]));
        assert_eq!(stream.sittings(), 2);
        let s1: StudentId = "s1".parse().unwrap();
        assert_eq!(stream.rows.get(&s1).unwrap().score, 1.0);
    }

    #[test]
    fn order_independence_of_final_state_counters() {
        let records: Vec<StudentRecord> = (0..9)
            .map(|i| {
                let points: Vec<f64> = (0..3)
                    .map(|q| if (i + q) % 3 == 0 { 1.0 } else { 0.0 })
                    .collect();
                record(&format!("s{i}"), &points)
            })
            .collect();
        let mut forward = ExamStream::new(AnalysisConfig::default());
        for r in &records {
            forward.apply(r);
        }
        let mut backward = ExamStream::new(AnalysisConfig::default());
        for r in records.iter().rev() {
            backward.apply(r);
        }
        assert_eq!(forward.high, backward.high);
        assert_eq!(forward.low, backward.low);
        for (a, b) in forward.qstats.iter().zip(&backward.qstats) {
            assert_eq!(a.high_correct, b.high_correct);
            assert_eq!(a.low_correct, b.low_correct);
            assert_eq!(a.high_options, b.high_options);
            assert_eq!(a.low_options, b.low_options);
        }
    }

    // Regression: the first `with_exam` for an exam takes the map's
    // write lock after a failed read — a scrutinee-temporary read
    // guard held across that write deadlocked the whole server once.
    #[test]
    fn engine_with_exam_creates_streams_and_replace_swaps_them() {
        let engine = StreamEngine::new(AnalysisConfig::default());
        assert_eq!(engine.with_exam("quiz", |stream| stream.sittings()), 0);
        engine.apply("quiz", &record("s1", &[1.0, 0.0]));
        engine.apply("quiz", &record("s2", &[0.0, 0.0]));
        engine.apply("other", &record("s1", &[1.0, 1.0]));
        assert_eq!(engine.sittings("quiz"), 2);
        assert_eq!(engine.sittings("other"), 1);
        assert_eq!(engine.sittings("absent"), 0);
        let fresh = StreamEngine::new(AnalysisConfig::default());
        fresh.apply("other", &record("s9", &[0.0, 1.0]));
        engine.replace_with(fresh);
        assert_eq!(engine.sittings("quiz"), 0);
        assert_eq!(engine.sittings("other"), 1);
    }

    #[test]
    fn stamps_strictly_increase_across_every_mutation() {
        let engine = StreamEngine::new(AnalysisConfig::default());
        assert_eq!(engine.generation("quiz"), None);
        let mut seen = Vec::new();
        engine.apply("quiz", &record("s1", &[1.0, 0.0]));
        seen.push(engine.generation("quiz").unwrap());
        engine.apply("other", &record("s1", &[1.0, 1.0]));
        engine.apply("quiz", &record("s2", &[0.0, 0.0]));
        seen.push(engine.generation("quiz").unwrap());
        let s1: StudentId = "s1".parse().unwrap();
        engine.with_exam("quiz", |stream| stream.remove(&s1));
        seen.push(engine.generation("quiz").unwrap());
        // A read-only closure still counts: `with_exam` cannot tell.
        engine.with_exam("quiz", |stream| stream.sittings());
        seen.push(engine.generation("quiz").unwrap());
        assert!(seen.windows(2).all(|pair| pair[0] < pair[1]), "{seen:?}");
        // Assembly reads the published stamp and does not move it.
        engine.apply("quiz", &record("s3", &[1.0, 1.0]));
        let before = engine.generation("quiz");
        let _ = engine.stamped_report("quiz", &[]);
        assert_eq!(engine.generation("quiz"), before);
    }

    #[test]
    fn replace_and_reapply_never_reuse_a_stamp() {
        let engine = StreamEngine::new(AnalysisConfig::default());
        let rows = [record("s1", &[1.0, 0.0]), record("s2", &[0.0, 1.0])];
        let mut issued = Vec::new();
        for row in &rows {
            engine.apply("quiz", row);
            issued.push(engine.generation("quiz").unwrap());
        }
        // The fresh engine's own clock starts over; the swap re-stamps.
        let fresh = StreamEngine::new(AnalysisConfig::default());
        fresh.apply("quiz", &rows[0]);
        engine.replace_with(fresh);
        issued.push(engine.generation("quiz").unwrap());
        assert!(
            issued.windows(2).all(|pair| pair[0] < pair[1]),
            "{issued:?}"
        );
        engine.replace_with(StreamEngine::new(AnalysisConfig::default()));
        assert_eq!(engine.generation("quiz"), None);
        for row in &rows {
            engine.apply("quiz", row);
        }
        let after = engine.generation("quiz").unwrap();
        assert!(
            issued.iter().all(|&stamp| stamp < after),
            "{issued:?} vs {after}"
        );
    }

    // Regression: `sittings` used to wait on an exam's mutex while
    // holding the map's read guard, so the first `with_exam` on any new
    // exam (which needs the write guard) stalled behind a busy exam.
    #[test]
    fn sittings_does_not_block_new_exams_behind_a_busy_one() {
        use std::sync::mpsc;
        use std::sync::Barrier;

        let engine = Arc::new(StreamEngine::new(AnalysisConfig::default()));
        engine.apply("busy", &record("s1", &[1.0]));
        let held = Arc::new(Barrier::new(2));
        let (release, wait) = mpsc::channel::<()>();
        let holder = {
            let (engine, held) = (Arc::clone(&engine), Arc::clone(&held));
            std::thread::spawn(move || {
                engine.with_exam("busy", |_| {
                    held.wait();
                    let _ = wait.recv();
                });
            })
        };
        held.wait();
        let counter = {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || engine.sittings("busy"))
        };
        // Give the counter time to park on the busy exam's mutex.
        std::thread::sleep(Duration::from_millis(50));
        let (done, created) = mpsc::channel();
        {
            let engine = Arc::clone(&engine);
            std::thread::spawn(move || {
                engine.apply("fresh", &record("s1", &[1.0]));
                let _ = done.send(());
            });
        }
        let outcome = created.recv_timeout(Duration::from_secs(5));
        release.send(()).unwrap();
        holder.join().unwrap();
        assert_eq!(counter.join().unwrap(), 1);
        assert!(outcome.is_ok(), "a new exam waited on another exam's mutex");
    }
}
