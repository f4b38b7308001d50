//! `mine-pool` — the persistent work-stealing thread pool behind every
//! parallel operation in the workspace.
//!
//! # Architecture
//!
//! One process-wide registry holds a fixed array of worker slots. Each
//! slot owns a fixed-capacity Chase–Lev deque (`deque`): the worker
//! pushes and pops its own deque LIFO, every other worker steals from
//! it FIFO. Threads are spawned lazily — the first operation that asks
//! for `n`-way parallelism spawns up to `n − 1` long-lived workers, and
//! later operations reuse them. External (non-worker) threads submit
//! through a shared injector queue.
//!
//! A parallel map is represented by one heap-allocated *operation*
//! descriptor holding an atomic chunk cursor over the input. The thread
//! that starts the operation (the *creator*) claims and executes chunks
//! until the cursor is exhausted; the participation tokens it publishes
//! to the deques/injector merely invite other workers to claim chunks
//! from the same cursor. Because the creator can always finish the
//! operation alone, no operation ever waits on a thread that might not
//! exist — there is no deadlock, whatever the nesting.
//!
//! Results are written into pre-sized slots by input index, so output
//! order — and therefore every byte the analysis pipeline serializes —
//! is independent of which thread ran which chunk.
//!
//! # Thread budgets
//!
//! [`install`] scopes a *budget* (a thread count plus `n − 1` helper
//! permits) without spawning or blocking anything. Operations created
//! under the budget share its permits: a worker joins an operation only
//! if it can take a permit, so concurrency never exceeds the installed
//! count even across nested parallel maps. Nested `install`s simply
//! shadow the outer budget, which is why the analysis pipeline needs no
//! "inner single-thread pool" workaround: an operation started inside a
//! pooled task inherits the budget and feeds the same deques.

#![warn(missing_docs)]

use std::any::Any;
use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Duration;

mod deque;

use deque::{Deque, Steal};

/// Hard ceiling on an explicitly requested thread count; guards the CLI
/// against `--threads 0`-style underflow typos turning into
/// `usize::MAX` worker requests.
pub const MAX_THREADS: usize = 1024;

/// Worker slots pre-allocated in the global registry. Requests beyond
/// this still run correctly — extra parallelism degrades to the
/// available workers plus the creator.
const MAX_WORKERS: usize = 64;

/// Per-worker deque capacity; overflow diverts to the injector.
const DEQUE_CAPACITY: usize = 256;

/// How long a worker sleeps before re-scanning on its own, as a
/// backstop against a lost wake-up.
const PARK_TIMEOUT: Duration = Duration::from_millis(50);

/// Fruitless scan rounds (with `yield_now`) before a worker parks.
const SPIN_ROUNDS: u32 = 3;

// ---------------------------------------------------------------------
// Thread-count resolution
// ---------------------------------------------------------------------

/// A rejected thread-count request, carrying where the value came from
/// (`--threads` flag or `MINE_THREADS` env) so the message points at
/// the right knob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThreadCountError {
    /// The value did not parse as an unsigned integer.
    NotANumber {
        /// The flag or variable the value came from.
        source: &'static str,
        /// The raw text supplied.
        value: String,
    },
    /// An explicit zero — the caller almost certainly wanted
    /// auto-detection, which is spelled by omitting the flag.
    Zero {
        /// The flag or variable the value came from.
        source: &'static str,
    },
    /// Beyond [`MAX_THREADS`].
    TooLarge {
        /// The flag or variable the value came from.
        source: &'static str,
        /// The parsed value.
        value: usize,
    },
}

impl fmt::Display for ThreadCountError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::NotANumber { source, value } => {
                write!(f, "{source}: {value:?} is not a thread count")
            }
            Self::Zero { source } => write!(
                f,
                "{source}: thread count must be at least 1 (omit it for auto-detection)"
            ),
            Self::TooLarge { source, value } => {
                write!(
                    f,
                    "{source}: {value} exceeds the maximum of {MAX_THREADS} threads"
                )
            }
        }
    }
}

impl Error for ThreadCountError {}

/// Validates an explicit thread count from `source`: an integer in
/// `1..=MAX_THREADS`.
///
/// # Errors
///
/// [`ThreadCountError`] when the text is not a number, is zero, or
/// exceeds [`MAX_THREADS`].
pub fn validate_thread_count(raw: &str, source: &'static str) -> Result<usize, ThreadCountError> {
    let value: usize = raw
        .trim()
        .parse()
        .map_err(|_| ThreadCountError::NotANumber {
            source,
            value: raw.to_string(),
        })?;
    if value == 0 {
        return Err(ThreadCountError::Zero { source });
    }
    if value > MAX_THREADS {
        return Err(ThreadCountError::TooLarge { source, value });
    }
    Ok(value)
}

/// Resolves a thread-count request: an explicit `--threads` value wins,
/// otherwise the `MINE_THREADS` environment variable, otherwise `0`
/// (auto-detect). Both explicit sources are validated — nonsense is a
/// typed error, never a silent clamp.
///
/// # Errors
///
/// [`ThreadCountError`] from whichever source supplied the value.
pub fn resolve_thread_count(flag: Option<&str>) -> Result<usize, ThreadCountError> {
    if let Some(raw) = flag {
        return validate_thread_count(raw, "--threads");
    }
    match std::env::var("MINE_THREADS") {
        Ok(raw) if !raw.trim().is_empty() => validate_thread_count(&raw, "MINE_THREADS"),
        _ => Ok(0),
    }
}

/// The auto-detected thread count: a *valid* `MINE_THREADS` override,
/// else [`std::thread::available_parallelism`]. An invalid
/// `MINE_THREADS` is ignored here (library code cannot error); the CLI
/// surfaces it as a [`ThreadCountError`] via [`resolve_thread_count`].
#[must_use]
pub fn default_threads() -> usize {
    if let Ok(raw) = std::env::var("MINE_THREADS") {
        if let Ok(value) = validate_thread_count(&raw, "MINE_THREADS") {
            return value;
        }
    }
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

// ---------------------------------------------------------------------
// Budgets
// ---------------------------------------------------------------------

/// A scoped thread budget: the installed count plus the helper permits
/// still available. The creator of an operation participates for free;
/// each helper must take a permit, so at most `threads` threads ever
/// execute chunks of operations sharing one budget.
struct Budget {
    threads: usize,
    helper_permits: AtomicUsize,
}

impl Budget {
    fn new(threads: usize) -> Arc<Self> {
        Arc::new(Self {
            threads,
            helper_permits: AtomicUsize::new(threads.saturating_sub(1)),
        })
    }

    fn try_acquire(&self) -> bool {
        self.helper_permits
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |p| p.checked_sub(1))
            .is_ok()
    }

    fn release(&self) {
        self.helper_permits.fetch_add(1, Ordering::AcqRel);
    }
}

thread_local! {
    /// The budget parallel operations started from this thread run
    /// under; `None` means "auto" ([`default_threads`]).
    static CURRENT_BUDGET: RefCell<Option<Arc<Budget>>> = const { RefCell::new(None) };
    /// This thread's worker slot in the global registry, if it is one
    /// of the pool's workers.
    static WORKER_INDEX: Cell<Option<usize>> = const { Cell::new(None) };
}

fn current_budget() -> Option<Arc<Budget>> {
    CURRENT_BUDGET.with(|b| b.borrow().clone())
}

fn with_budget<R>(budget: Arc<Budget>, f: impl FnOnce() -> R) -> R {
    // Restore on unwind too: a panicking chunk must not leak its
    // operation's budget into the worker's next task.
    struct Restore(Option<Arc<Budget>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            let previous = self.0.take();
            CURRENT_BUDGET.with(|b| *b.borrow_mut() = previous);
        }
    }
    let previous = CURRENT_BUDGET.with(|b| b.replace(Some(budget)));
    let _restore = Restore(previous);
    f()
}

/// The number of threads a parallel operation started from this thread
/// will use: the innermost [`install`] budget, else [`default_threads`].
#[must_use]
pub fn current_num_threads() -> usize {
    current_budget().map_or_else(default_threads, |b| b.threads)
}

/// Runs `f` under a thread budget of `threads` (`0` = auto). Purely a
/// scope: nothing is spawned or blocked here — parallel operations
/// inside `f` share the budget's helper permits, and nested `install`s
/// shadow it.
pub fn install<R>(threads: usize, f: impl FnOnce() -> R) -> R {
    let threads = if threads == 0 {
        default_threads()
    } else {
        threads
    };
    with_budget(Budget::new(threads), f)
}

// ---------------------------------------------------------------------
// The operation descriptor
// ---------------------------------------------------------------------

/// Type-erased view of one parallel map: the chunk cursor everyone
/// claims from, the completion latch, and a raw pointer to the
/// creator's stack-held [`MapData`].
///
/// # Safety invariants
///
/// * `data` is only dereferenced between claiming a chunk index
///   `< chunks` and incrementing `done` for it; the creator blocks
///   until `done == chunks`, so `data` outlives every dereference.
/// * Stale participation tokens (delivered after the operation
///   finished) observe `next >= chunks` and return without touching
///   `data`.
struct OpShared {
    budget: Arc<Budget>,
    data: *const (),
    run_chunk: unsafe fn(*const (), usize, usize),
    len: usize,
    chunk_size: usize,
    chunks: usize,
    next: AtomicUsize,
    done: AtomicUsize,
    panicked: AtomicBool,
    panic: Mutex<Option<Box<dyn Any + Send + 'static>>>,
    latch: Mutex<bool>,
    finished: Condvar,
}

// Safety: `data`/`run_chunk` describe a `MapData` whose fields are
// `Sync` (`&[T]`, `&F`) or written at disjoint indices (`slots`, one
// writer per index via the `next` cursor). Interior synchronization is
// atomics + mutexes.
unsafe impl Send for OpShared {}
unsafe impl Sync for OpShared {}

struct MapData<'a, T, R, F> {
    items: &'a [T],
    f: *const F,
    slots: *mut Option<R>,
}

/// Monomorphic chunk executor the descriptor's function pointer refers
/// to. The lifetime is early-bound so the instantiated function pointer
/// is lifetime-erased while the body still type-checks against the
/// caller's `F: Fn(&'a T) -> R` bound.
///
/// # Safety
///
/// `data` must point at a live `MapData<'a, T, R, F>` and `start..end`
/// must be a chunk handed out exactly once by the `next` cursor — each
/// slot index is written by exactly one thread.
unsafe fn run_map_chunk<'a, T, R, F>(data: *const (), start: usize, end: usize)
where
    T: 'a,
    F: Fn(&'a T) -> R,
{
    let data = &*data.cast::<MapData<'a, T, R, F>>();
    let f = &*data.f;
    for index in start..end {
        let value = f(&data.items[index]);
        data.slots.add(index).write(Some(value));
    }
}

impl OpShared {
    /// Claims and executes chunks until the cursor is exhausted.
    /// Helpers take a budget permit first (and simply decline when none
    /// is free); the creator participates unconditionally.
    fn participate(self: &Arc<Self>, is_helper: bool) {
        if is_helper && !self.budget.try_acquire() {
            return;
        }
        with_budget(Arc::clone(&self.budget), || loop {
            let chunk = self.next.fetch_add(1, Ordering::AcqRel);
            if chunk >= self.chunks {
                break;
            }
            let start = chunk * self.chunk_size;
            let end = (start + self.chunk_size).min(self.len);
            if !self.panicked.load(Ordering::Acquire) {
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    // Safety: the cursor handed this chunk to us alone,
                    // and the creator keeps `data` alive until `done`
                    // reaches `chunks` (which this chunk's increment
                    // below contributes to only after this call).
                    unsafe { (self.run_chunk)(self.data, start, end) }
                }));
                if let Err(payload) = outcome {
                    // First panic wins; the flag makes the remaining
                    // chunks drain without executing so the latch still
                    // closes and the creator can rethrow.
                    let mut slot = self.panic.lock().expect("panic slot");
                    if slot.is_none() {
                        *slot = Some(payload);
                    }
                    drop(slot);
                    self.panicked.store(true, Ordering::Release);
                }
                if let Some(index) = WORKER_INDEX.with(Cell::get) {
                    registry().slots[index]
                        .executed
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
            if self.done.fetch_add(1, Ordering::AcqRel) + 1 == self.chunks {
                let mut finished = self.latch.lock().expect("latch");
                *finished = true;
                drop(finished);
                self.finished.notify_all();
            }
        });
        if is_helper {
            self.budget.release();
        }
    }

    /// Blocks until every chunk is accounted for.
    fn wait(&self) {
        let mut finished = self.latch.lock().expect("latch");
        while !*finished {
            finished = self.finished.wait(finished).expect("latch");
        }
    }
}

// ---------------------------------------------------------------------
// The registry and its workers
// ---------------------------------------------------------------------

struct WorkerSlot {
    deque: Deque,
    executed: AtomicU64,
}

struct Registry {
    slots: Box<[WorkerSlot]>,
    /// Workers actually spawned so far; grows monotonically.
    spawned: AtomicUsize,
    injector: Mutex<VecDeque<usize>>,
    /// Lock-free emptiness hint for the injector.
    injector_len: AtomicUsize,
    sleep_lock: Mutex<()>,
    wake: Condvar,
    steals: AtomicU64,
    ops: AtomicU64,
    spawn_lock: Mutex<()>,
}

fn registry() -> &'static Arc<Registry> {
    static GLOBAL: OnceLock<Arc<Registry>> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        let slots = (0..MAX_WORKERS)
            .map(|_| WorkerSlot {
                deque: Deque::new(DEQUE_CAPACITY),
                executed: AtomicU64::new(0),
            })
            .collect();
        Arc::new(Registry {
            slots,
            spawned: AtomicUsize::new(0),
            injector: Mutex::new(VecDeque::new()),
            injector_len: AtomicUsize::new(0),
            sleep_lock: Mutex::new(()),
            wake: Condvar::new(),
            steals: AtomicU64::new(0),
            ops: AtomicU64::new(0),
            spawn_lock: Mutex::new(()),
        })
    })
}

impl Registry {
    /// Spawns workers until at least `target` exist (capped at
    /// [`MAX_WORKERS`]). Workers are never torn down; the analysis
    /// server and CLI both want a warm pool for their whole lifetime.
    fn ensure_workers(self: &Arc<Self>, target: usize) {
        let target = target.min(self.slots.len());
        if self.spawned.load(Ordering::Acquire) >= target {
            return;
        }
        let _guard = self.spawn_lock.lock().expect("spawn lock");
        let current = self.spawned.load(Ordering::Acquire);
        for index in current..target {
            let registry = Arc::clone(self);
            let spawned = std::thread::Builder::new()
                .name(format!("mine-pool-{index}"))
                .spawn(move || worker_main(&registry, index));
            if spawned.is_err() {
                // Out of threads: the pool still works, just narrower —
                // creators always complete their own operations.
                break;
            }
            self.spawned.store(index + 1, Ordering::Release);
        }
    }

    /// Publishes one participation token. Worker threads push their own
    /// deque (LIFO); external threads go through the injector.
    fn submit(&self, op: &Arc<OpShared>) {
        let token = Arc::into_raw(Arc::clone(op)) as usize;
        let local = WORKER_INDEX.with(Cell::get);
        let token = match local {
            Some(index) => self.slots[index].deque.push(token).err(),
            None => Some(token),
        };
        if let Some(token) = token {
            let mut injector = self.injector.lock().expect("injector");
            injector.push_back(token);
            self.injector_len.store(injector.len(), Ordering::Release);
        }
        // Pair with the sleeper's re-check under `sleep_lock`: once we
        // hold the lock, any parked worker either saw the token above
        // or is waiting on the condvar and gets the notification.
        drop(self.sleep_lock.lock().expect("sleep lock"));
        self.wake.notify_all();
    }

    /// A worker's hunt for one token: own deque first (LIFO), then the
    /// injector, then stealing FIFO from siblings.
    fn find_token(&self, index: usize) -> Option<usize> {
        if let Some(token) = self.slots[index].deque.pop() {
            return Some(token);
        }
        if self.injector_len.load(Ordering::Acquire) > 0 {
            let mut injector = self.injector.lock().expect("injector");
            if let Some(token) = injector.pop_front() {
                self.injector_len.store(injector.len(), Ordering::Release);
                return Some(token);
            }
        }
        let spawned = self.spawned.load(Ordering::Acquire);
        for offset in 1..spawned {
            let victim = (index + offset) % spawned;
            loop {
                match self.slots[victim].deque.steal() {
                    Steal::Success(token) => {
                        self.steals.fetch_add(1, Ordering::Relaxed);
                        return Some(token);
                    }
                    Steal::Retry => continue,
                    Steal::Empty => break,
                }
            }
        }
        None
    }

    fn has_visible_work(&self) -> bool {
        if self.injector_len.load(Ordering::Acquire) > 0 {
            return true;
        }
        let spawned = self.spawned.load(Ordering::Acquire);
        self.slots[..spawned]
            .iter()
            .any(|slot| slot.deque.has_work())
    }
}

fn worker_main(registry: &Arc<Registry>, index: usize) {
    WORKER_INDEX.with(|cell| cell.set(Some(index)));
    let mut idle_rounds = 0u32;
    loop {
        match registry.find_token(index) {
            Some(token) => {
                idle_rounds = 0;
                // Safety: the token is an `Arc<OpShared>` published by
                // `submit` via `into_raw`; each token is consumed
                // exactly once (deque/injector semantics).
                let op = unsafe { Arc::from_raw(token as *const OpShared) };
                op.participate(true);
            }
            None if idle_rounds < SPIN_ROUNDS => {
                idle_rounds += 1;
                std::thread::yield_now();
            }
            None => {
                idle_rounds = 0;
                let guard = registry.sleep_lock.lock().expect("sleep lock");
                if registry.has_visible_work() {
                    continue;
                }
                // Timeout is a lost-wakeup backstop only; `submit`
                // holds `sleep_lock` before notifying, closing the
                // check-then-sleep race.
                let _ = registry
                    .wake
                    .wait_timeout(guard, PARK_TIMEOUT)
                    .expect("sleep lock");
            }
        }
    }
}

// ---------------------------------------------------------------------
// The parallel map
// ---------------------------------------------------------------------

/// Maps `f` over `items` on the pool under the current thread budget,
/// returning results in input order.
///
/// The input is split into contiguous chunks claimed dynamically from a
/// shared cursor, so skewed per-item costs balance; results land in
/// pre-sized slots by index, so the output is byte-identical to the
/// sequential map regardless of scheduling.
///
/// # Panics
///
/// Rethrows the first panic raised inside `f` (by input order of
/// claiming, not deterministically) after every in-flight chunk has
/// retired; the pool's workers survive.
pub fn map_slice<'a, T, R, F>(items: &'a [T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&'a T) -> R + Sync,
{
    let budget = current_budget().unwrap_or_else(|| Budget::new(default_threads()));
    let threads = budget.threads.max(1);
    if threads == 1 || items.len() <= 1 {
        // Keep the budget visible to nested operations even on the
        // inline path.
        return with_budget(budget, || items.iter().map(&f).collect());
    }

    let registry = registry();
    registry.ops.fetch_add(1, Ordering::Relaxed);

    let mut slots: Vec<Option<R>> = Vec::new();
    slots.resize_with(items.len(), || None);

    // Several chunks per thread so dynamic claiming can rebalance skew;
    // chunk granularity only affects scheduling, never output.
    let chunk_size = items.len().div_ceil(threads * 4).max(1);
    let chunks = items.len().div_ceil(chunk_size);

    let data = MapData::<'a, T, R, F> {
        items,
        f: &raw const f,
        slots: slots.as_mut_ptr(),
    };
    let op = Arc::new(OpShared {
        budget: Arc::clone(&budget),
        data: std::ptr::from_ref(&data).cast(),
        run_chunk: run_map_chunk::<T, R, F>,
        len: items.len(),
        chunk_size,
        chunks,
        next: AtomicUsize::new(0),
        done: AtomicUsize::new(0),
        panicked: AtomicBool::new(false),
        panic: Mutex::new(None),
        latch: Mutex::new(false),
        finished: Condvar::new(),
    });

    // Invite helpers: at most budget−1 of them, never more than the
    // chunks the creator is not going to need, spawning workers on
    // first demand.
    let helpers = (threads - 1).min(chunks.saturating_sub(1));
    registry.ensure_workers(helpers);
    for _ in 0..helpers {
        registry.submit(&op);
    }

    op.participate(false);
    op.wait();

    if let Some(payload) = op.panic.lock().expect("panic slot").take() {
        resume_unwind(payload);
    }
    slots
        .into_iter()
        .map(|slot| slot.expect("every chunk was executed"))
        .collect()
}

// ---------------------------------------------------------------------
// Introspection
// ---------------------------------------------------------------------

/// A point-in-time view of the pool, for `/metrics` and tests.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads spawned so far (excludes creators).
    pub workers: usize,
    /// Tokens taken from a sibling's deque since process start.
    pub steals: u64,
    /// Parallel operations dispatched to the pool.
    pub ops: u64,
    /// Chunks executed per worker slot, indexed by worker.
    pub executed_per_worker: Vec<u64>,
}

impl PoolStats {
    /// Total chunks executed on worker threads (creators excluded).
    #[must_use]
    pub fn executed_total(&self) -> u64 {
        self.executed_per_worker.iter().sum()
    }

    /// How many distinct workers have executed at least one chunk.
    #[must_use]
    pub fn active_workers(&self) -> usize {
        self.executed_per_worker.iter().filter(|&&n| n > 0).count()
    }
}

/// Snapshots the pool counters.
#[must_use]
pub fn stats() -> PoolStats {
    let registry = registry();
    let workers = registry.spawned.load(Ordering::Acquire);
    PoolStats {
        workers,
        steals: registry.steals.load(Ordering::Relaxed),
        ops: registry.ops.load(Ordering::Relaxed),
        executed_per_worker: registry.slots[..workers]
            .iter()
            .map(|slot| slot.executed.load(Ordering::Relaxed))
            .collect(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_when_budget_is_one() {
        let items: Vec<u32> = (0..100).collect();
        let out: Vec<u32> = install(1, || map_slice(&items, |&x| x * 3));
        assert_eq!(out, (0..100).map(|x| x * 3).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..10_000).collect();
        let out = install(4, || map_slice(&items, |&x| x * x));
        assert_eq!(out, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn budget_is_scoped_and_restored() {
        let outside = current_num_threads();
        let inside = install(3, current_num_threads);
        assert_eq!(inside, 3);
        assert_eq!(current_num_threads(), outside);
    }

    #[test]
    fn nested_installs_shadow() {
        let (outer, inner, after) = install(4, || {
            let outer = current_num_threads();
            let inner = install(2, current_num_threads);
            (outer, inner, current_num_threads())
        });
        assert_eq!(outer, 4);
        assert_eq!(inner, 2);
        assert_eq!(after, 4);
    }

    #[test]
    fn zero_means_auto() {
        let auto = install(0, current_num_threads);
        assert!(auto >= 1);
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u8> = Vec::new();
        assert!(install(8, || map_slice(&empty, |&x| x)).is_empty());
        let one = [41u8];
        assert_eq!(install(8, || map_slice(&one, |&x| x + 1)), vec![42]);
    }

    #[test]
    fn validate_thread_count_accepts_range() {
        assert_eq!(validate_thread_count("1", "--threads"), Ok(1));
        assert_eq!(validate_thread_count(" 8 ", "--threads"), Ok(8));
        assert_eq!(validate_thread_count("1024", "--threads"), Ok(1024));
    }

    #[test]
    fn validate_thread_count_rejects_nonsense() {
        assert_eq!(
            validate_thread_count("0", "--threads"),
            Err(ThreadCountError::Zero {
                source: "--threads"
            })
        );
        assert!(matches!(
            validate_thread_count("many", "MINE_THREADS"),
            Err(ThreadCountError::NotANumber {
                source: "MINE_THREADS",
                ..
            })
        ));
        assert!(matches!(
            validate_thread_count("-3", "--threads"),
            Err(ThreadCountError::NotANumber { .. })
        ));
        assert_eq!(
            validate_thread_count("4096", "--threads"),
            Err(ThreadCountError::TooLarge {
                source: "--threads",
                value: 4096
            })
        );
    }

    #[test]
    fn thread_count_errors_render_the_source() {
        let msg = ThreadCountError::Zero {
            source: "--threads",
        }
        .to_string();
        assert!(msg.contains("--threads"), "{msg}");
        let msg = ThreadCountError::TooLarge {
            source: "MINE_THREADS",
            value: 9999,
        }
        .to_string();
        assert!(
            msg.contains("MINE_THREADS") && msg.contains("9999"),
            "{msg}"
        );
    }
}
