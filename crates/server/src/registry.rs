//! Concurrent session state: a sharded [`Registry`] of live sittings
//! and a store of finished [`StudentRecord`]s.
//!
//! One generic registry holds both kinds of sitting: the server keeps
//! a `Registry<SessionSlot>` of fixed-form sittings and a
//! `Registry<AdaptiveSitting>` of CAT sittings. Values spread over a
//! fixed set of shards, each a `parking_lot::RwLock<HashMap<..>>`; a
//! value's shard is chosen by hashing its id, so operations on
//! different sittings contend only when they land on the same shard,
//! and operations on the *same* sitting serialize on that sitting's
//! own mutex — never on a global lock. Callers get at a sitting
//! through [`Registry::with`], which holds the shard read lock just
//! long enough to clone the per-sitting `Arc`.
//!
//! A removed sitting leaves nothing behind: later lookups answer
//! [`RegistryError::Missing`], and a sitting with the same id (a re-sit
//! with the same seed) can be inserted afresh. Removal empties the slot
//! under the sitting's own lock, so a request that found the slot just
//! before also gets `Missing` and can never touch the re-sit. The
//! registry holds only what a snapshot image captures, and reads no
//! clock.
//!
//! [`AdaptiveSitting`]: crate::adaptive::AdaptiveSitting

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::convert::Infallible;
use std::hash::{Hash, Hasher};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use mine_core::StudentRecord;
use mine_delivery::{ExamSession, SessionCheckpoint, SessionState};

use crate::adaptive::AdaptiveSitting;

/// Default shard count — enough to keep 32+ concurrent clients off each
/// other's locks without wasting memory.
pub const DEFAULT_SHARDS: usize = 16;

/// A value a [`Registry`] can hold: it knows its own id.
pub trait Keyed {
    /// The id the value is registered under.
    fn key(&self) -> &str;
}

/// A live fixed-form session plus the server-side copy of its latest
/// pause checkpoint (the paper's `cmi.suspend_data`).
#[derive(Debug)]
pub struct SessionSlot {
    /// The in-memory sitting.
    pub session: ExamSession,
    /// Checkpoint captured at the last pause, if any.
    pub checkpoint: Option<SessionCheckpoint>,
}

impl SessionSlot {
    /// A freshly started session with no checkpoint.
    #[must_use]
    pub fn new(session: ExamSession) -> Self {
        Self {
            session,
            checkpoint: None,
        }
    }
}

impl Keyed for SessionSlot {
    fn key(&self) -> &str {
        self.session.id().as_str()
    }
}

impl Keyed for AdaptiveSitting {
    fn key(&self) -> &str {
        self.id()
    }
}

/// The registry of live fixed-form sessions.
pub type SessionRegistry = Registry<SessionSlot>;

/// Failure modes of registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A sitting with the same id is already registered.
    Duplicate(String),
    /// No sitting with the given id.
    Missing(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(id) => write!(f, "session {id} already exists"),
            RegistryError::Missing(id) => write!(f, "no session {id}"),
        }
    }
}

impl std::error::Error for RegistryError {}

fn missing(id: &str) -> RegistryError {
    RegistryError::Missing(id.to_string())
}

/// A sitting's slot; `None` once the sitting is removed.
type Slot<T> = Arc<Mutex<Option<T>>>;
type Shard<T> = RwLock<HashMap<String, Slot<T>>>;

/// A sharded, thread-safe map of live sittings keyed by id.
#[derive(Debug)]
pub struct Registry<T> {
    shards: Vec<Shard<T>>,
}

impl<T: Keyed> Default for Registry<T> {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl<T: Keyed> Registry<T> {
    /// Creates a registry with the given shard count (minimum 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
        }
    }

    fn shard_index(&self, id: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        id.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    fn shard(&self, id: &str) -> &Shard<T> {
        &self.shards[self.shard_index(id)]
    }

    /// The slot registered under `id`; the shard lock is released on
    /// return, before the caller locks the slot.
    fn slot(&self, id: &str) -> Result<Slot<T>, RegistryError> {
        self.shard(id)
            .read()
            .get(id)
            .cloned()
            .ok_or_else(|| missing(id))
    }

    /// Registers a freshly started sitting under its own id.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Duplicate`] when the id is taken.
    pub fn insert(&self, value: T) -> Result<(), RegistryError> {
        let id = value.key();
        let mut shard = self.shard(id).write();
        if shard.contains_key(id) {
            return Err(RegistryError::Duplicate(id.to_string()));
        }
        shard.insert(id.to_string(), Arc::new(Mutex::new(Some(value))));
        Ok(())
    }

    /// Runs `f` with exclusive access to a sitting.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Missing`] for unknown ids.
    pub fn with<R>(&self, id: &str, f: impl FnOnce(&mut T) -> R) -> Result<R, RegistryError> {
        let slot = self.slot(id)?;
        let mut guard = slot.lock();
        Ok(f(guard.as_mut().ok_or_else(|| missing(id))?))
    }

    /// Runs `f` with exclusive access to a sitting and, if it returns
    /// `Ok`, removes the sitting before its lock is released.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Missing`] for unknown ids, including a
    /// sitting removed while the caller waited for its lock.
    pub fn take_if<R, E>(
        &self,
        id: &str,
        f: impl FnOnce(&mut T) -> Result<R, E>,
    ) -> Result<Result<R, E>, RegistryError> {
        let slot = self.slot(id)?;
        let mut guard = slot.lock();
        let outcome = f(guard.as_mut().ok_or_else(|| missing(id))?);
        if outcome.is_ok() {
            *guard = None;
            self.shard(id).write().remove(id);
        }
        Ok(outcome)
    }

    /// Whether a sitting with this id is live.
    #[must_use]
    pub fn contains(&self, id: &str) -> bool {
        self.shard(id).read().contains_key(id)
    }

    /// Removes a sitting. When callers race to remove the same sitting,
    /// exactly one succeeds.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Missing`] when no sitting has the id.
    pub fn remove(&self, id: &str) -> Result<(), RegistryError> {
        self.take_if(id, |_| Ok::<(), Infallible>(())).map(|_| ())
    }

    /// Number of live sittings.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards.iter().map(|shard| shard.read().len()).sum()
    }

    /// Whether no sitting is live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Maps `image` over every live sitting in id order — the
    /// deterministic basis of a durability snapshot. Callers needing a
    /// *consistent* capture must exclude concurrent mutators first (the
    /// server does so via its journal gate).
    #[must_use]
    pub fn capture<C>(&self, mut image: impl FnMut(&T) -> C) -> Vec<C> {
        // Clone the Arcs out so slot locks are not taken while a shard
        // lock is held (lock-ordering hygiene).
        let mut slots: Vec<(String, Slot<T>)> = Vec::new();
        for shard in &self.shards {
            slots.extend(
                shard
                    .read()
                    .iter()
                    .map(|(id, slot)| (id.clone(), Arc::clone(slot))),
            );
        }
        slots.sort_by(|a, b| a.0.cmp(&b.0));
        slots
            .iter()
            .filter_map(|(_, slot)| slot.lock().as_ref().map(&mut image))
            .collect()
    }

    /// Replaces every live sitting with `fresh`'s, one shard at a time:
    /// a reader of any one sitting sees the old slot or the new one,
    /// never a gap. Used when a replication follower restores a
    /// bootstrap image into a fresh registry; callers must exclude
    /// concurrent mutators (the follower holds the journal write gate).
    pub fn replace_with(&self, fresh: Self) {
        let mut incoming: Vec<HashMap<String, Slot<T>>> =
            self.shards.iter().map(|_| HashMap::new()).collect();
        for shard in fresh.shards {
            for (id, slot) in shard.into_inner() {
                incoming[self.shard_index(&id)].insert(id, slot);
            }
        }
        for (shard, live) in self.shards.iter().zip(incoming) {
            *shard.write() = live;
        }
    }
}

impl Registry<SessionSlot> {
    /// Counts sessions by lifecycle state `(active, paused)`.
    #[must_use]
    pub fn state_counts(&self) -> (usize, usize) {
        let states = self.capture(|slot| slot.session.state());
        let count = |state| states.iter().filter(|s| **s == state).count();
        (count(SessionState::Active), count(SessionState::Paused))
    }
}

/// Finished sittings grouped by exam, ordered by student id.
///
/// The per-exam `BTreeMap` keys records by student, which makes the
/// assembled class record — and therefore the live analysis report —
/// deterministic no matter which order concurrent clients finished in.
///
/// Records are held behind `Arc`s, and readers ([`Self::shared`],
/// [`Self::filed_since`]) copy only those pointers under the read lock:
/// a finish's [`Self::push`] never waits behind a whole class being
/// cloned, and the batch analysis and snapshots read the filed records
/// in place.
///
/// Every filed record carries a *tick* from a counter bumped under the
/// write lock, so [`Self::filed_since`] can hand the journal exactly
/// the records a delta snapshot must add.
#[derive(Debug, Default)]
pub struct FinishedStore {
    shelves: RwLock<Shelves>,
}

#[derive(Debug, Default)]
struct Shelves {
    by_exam: HashMap<String, BTreeMap<String, Filed>>,
    /// The tick of the most recent push; never reset.
    tick: u64,
}

#[derive(Debug)]
struct Filed {
    tick: u64,
    record: Arc<StudentRecord>,
}

impl FinishedStore {
    /// Empty store.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Files a finished record (owned or already shared) under its exam.
    /// A student re-sitting the same exam replaces their earlier record.
    pub fn push(&self, exam: &str, record: impl Into<Arc<StudentRecord>>) {
        let record = record.into();
        let key = record.student.as_str().to_string();
        let mut shelves = self.shelves.write();
        shelves.tick += 1;
        let tick = shelves.tick;
        shelves
            .by_exam
            .entry(exam.to_string())
            .or_default()
            .insert(key, Filed { tick, record });
    }

    /// All records for an exam, in student-id order, shared with the
    /// store.
    #[must_use]
    pub fn shared(&self, exam: &str) -> Vec<Arc<StudentRecord>> {
        self.shelves
            .read()
            .by_exam
            .get(exam)
            .map(|records| records.values().map(|f| Arc::clone(&f.record)).collect())
            .unwrap_or_default()
    }

    /// Owned copies of [`Self::shared`], cloned after the lock is
    /// released.
    #[must_use]
    pub fn records(&self, exam: &str) -> Vec<StudentRecord> {
        self.shared(exam)
            .iter()
            .map(|record| StudentRecord::clone(record))
            .collect()
    }

    /// Number of finished sittings filed for an exam.
    #[must_use]
    pub fn count(&self, exam: &str) -> usize {
        self.shelves
            .read()
            .by_exam
            .get(exam)
            .map_or(0, BTreeMap::len)
    }

    /// The tick of the most recent push (0 before the first). Every
    /// record [`Self::filed_since`] returns for this tick or a later one
    /// was filed after the call.
    #[must_use]
    pub fn tick(&self) -> u64 {
        self.shelves.read().tick
    }

    /// The records filed after `tick` and still current (a resit since
    /// then counts, a record it replaced does not), grouped by exam in
    /// exam-id order, each group in student-id order. Exams with no such
    /// record are left out; `filed_since(0)` is every filed record, the
    /// deterministic basis of a durability snapshot.
    #[must_use]
    pub fn filed_since(&self, tick: u64) -> Vec<(String, Vec<Arc<StudentRecord>>)> {
        let mut shared: Vec<(String, Vec<Arc<StudentRecord>>)> = self
            .shelves
            .read()
            .by_exam
            .iter()
            .map(|(exam, records)| {
                let fresh = records
                    .values()
                    .filter(|filed| filed.tick > tick)
                    .map(|filed| Arc::clone(&filed.record))
                    .collect();
                (exam.clone(), fresh)
            })
            .collect();
        shared.retain(|(_, records)| !records.is_empty());
        shared.sort_by(|a, b| a.0.cmp(&b.0));
        shared
    }

    /// Takes over `fresh`'s records in one step, so a reader sees either
    /// the old records or the new ones, never an empty store in between
    /// (a replication bootstrap restores into a fresh store, then swaps
    /// it in). The tick never moves backwards.
    pub fn replace_with(&self, fresh: FinishedStore) {
        let fresh = fresh.shelves.into_inner();
        let mut shelves = self.shelves.write();
        shelves.by_exam = fresh.by_exam;
        shelves.tick = shelves.tick.max(fresh.tick);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_adaptive::AdaptiveOptions;
    use mine_core::Answer;
    use mine_delivery::DeliveryOptions;
    use mine_itembank::{Calibration, Exam, Problem};
    use std::time::Duration;

    fn session(student: &str, seed: u64) -> SessionSlot {
        let problems = vec![Problem::true_false("q1", "Yes?", true).unwrap()];
        let exam = Exam::builder("quiz")
            .unwrap()
            .entry("q1".parse().unwrap())
            .build()
            .unwrap();
        SessionSlot::new(
            ExamSession::start(
                &exam,
                problems,
                student.parse().unwrap(),
                DeliveryOptions {
                    seed,
                    ..DeliveryOptions::default()
                },
            )
            .unwrap(),
        )
    }

    fn adaptive(student: &str, seed: u64) -> AdaptiveSitting {
        let problems = vec![Problem::true_false("q1", "Yes?", true)
            .unwrap()
            .with_calibration(Calibration::new(1.0, 0.0, 0.2))];
        AdaptiveSitting::start(
            "cat".parse().unwrap(),
            problems,
            student.parse().unwrap(),
            AdaptiveOptions {
                seed,
                ..AdaptiveOptions::for_bank(1)
            },
        )
        .unwrap()
    }

    #[test]
    fn insert_with_remove_round_trip() {
        let registry = SessionRegistry::new(4);
        let slot = session("s1", 0);
        let id = slot.key().to_string();
        registry.insert(slot).unwrap();
        assert_eq!(registry.len(), 1);
        assert!(registry.contains(&id));
        let answered = registry
            .with(&id, |slot| {
                slot.session
                    .answer(Answer::TrueFalse(true), Duration::from_secs(5))
                    .unwrap();
                slot.session.answered_count()
            })
            .unwrap();
        assert_eq!(answered, 1);
        registry.remove(&id).unwrap();
        assert!(registry.is_empty());
        assert!(!registry.contains(&id));
        // A removed sitting leaves nothing behind: every later lookup or
        // removal is plain Missing, like an id that never existed.
        assert_eq!(
            registry.with(&id, |_| ()),
            Err(RegistryError::Missing(id.clone()))
        );
        assert_eq!(registry.remove(&id), Err(RegistryError::Missing(id)));
        assert!(matches!(
            registry.remove("ghost"),
            Err(RegistryError::Missing(_))
        ));
    }

    #[test]
    fn racing_removals_leave_exactly_one_winner() {
        let registry = Arc::new(SessionRegistry::new(4));
        let slot = session("s1", 0);
        let id = slot.key().to_string();
        registry.insert(slot).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let id = id.clone();
                std::thread::spawn(move || registry.remove(&id))
            })
            .collect();
        let outcomes: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let wins = outcomes.iter().filter(|o| o.is_ok()).count();
        let missing = outcomes
            .iter()
            .filter(|o| matches!(o, Err(RegistryError::Missing(_))))
            .count();
        assert_eq!(wins, 1, "exactly one remover gets the slot");
        assert_eq!(missing, 7, "every loser sees Missing");
    }

    #[test]
    fn adaptive_sittings_share_the_lifecycle_and_resit_afresh() {
        let registry: Registry<AdaptiveSitting> = Registry::default();
        let sitting = adaptive("s1", 4);
        let id = sitting.id().to_string();
        registry.insert(sitting.clone()).unwrap();
        assert_eq!(
            registry.insert(sitting.clone()),
            Err(RegistryError::Duplicate(id.clone()))
        );
        assert!(registry.contains(&id));
        assert_eq!(registry.len(), 1);
        registry
            .with(&id, |s| assert_eq!(s.step_count(), 0))
            .unwrap();
        registry.remove(&id).unwrap();
        assert!(!registry.contains(&id));
        assert_eq!(
            registry.with(&id, |_| ()),
            Err(RegistryError::Missing(id.clone()))
        );
        // A re-sit with the same seed starts afresh.
        registry.insert(sitting).unwrap();
        assert_eq!(registry.len(), 1);
    }

    #[test]
    fn capture_is_sorted_and_complete() {
        let registry = SessionRegistry::new(4);
        registry.insert(session("zed", 1)).unwrap();
        let paused = session("amy", 2);
        let paused_id = paused.key().to_string();
        registry.insert(paused).unwrap();
        registry
            .with(&paused_id, |slot| {
                let checkpoint = slot.session.pause().unwrap();
                slot.checkpoint = Some(checkpoint);
            })
            .unwrap();
        let captured = registry.capture(|slot| {
            (
                slot.key().to_string(),
                slot.session.state(),
                slot.checkpoint.is_some(),
            )
        });
        // Sorted by session id, checkpoints carried along.
        assert_eq!(
            captured,
            [
                (paused_id, SessionState::Paused, true),
                ("quiz#zed@1".to_string(), SessionState::Active, false),
            ]
        );
    }

    #[test]
    fn duplicate_ids_are_rejected() {
        let registry = SessionRegistry::new(4);
        registry.insert(session("s1", 0)).unwrap();
        assert!(matches!(
            registry.insert(session("s1", 0)),
            Err(RegistryError::Duplicate(_))
        ));
        // Same student, different seed → different id → fine.
        registry.insert(session("s1", 1)).unwrap();
        assert_eq!(registry.len(), 2);
    }

    #[test]
    fn state_counts_track_pause() {
        let registry = SessionRegistry::new(2);
        let a = session("a", 0).key().to_string();
        registry.insert(session("a", 0)).unwrap();
        registry.insert(session("b", 0)).unwrap();
        registry
            .with(a.as_str(), |slot| slot.session.pause().map(|_| ()))
            .unwrap()
            .unwrap();
        assert_eq!(registry.state_counts(), (1, 1));
    }

    #[test]
    fn finished_store_orders_by_student_and_replaces_resits() {
        let store = FinishedStore::new();
        let make = |student: &str| StudentRecord::new(student.parse().unwrap(), Vec::new());
        store.push("quiz", make("zed"));
        store.push("quiz", make("amy"));
        store.push("quiz", make("zed"));
        let records = store.records("quiz");
        assert_eq!(records.len(), 2);
        assert_eq!(records[0].student.as_str(), "amy");
        assert_eq!(records[1].student.as_str(), "zed");
        assert_eq!(store.count("quiz"), 2);
        assert_eq!(store.count("other"), 0);
        assert!(store.records("other").is_empty());
        store.push("alpha", make("bob"));
        let captured = store.filed_since(0);
        assert_eq!(captured.len(), 2);
        assert_eq!(captured[0].0, "alpha");
        assert_eq!(captured[1].0, "quiz");
        assert_eq!(captured[1].1.len(), 2);
    }

    #[test]
    fn filed_since_returns_only_current_records_filed_after_the_tick() {
        let store = FinishedStore::new();
        let make = |student: &str| StudentRecord::new(student.parse().unwrap(), Vec::new());
        store.push("quiz", make("amy"));
        store.push("quiz", make("bob"));
        store.push("alpha", make("cat"));
        let tick = store.tick();
        assert_eq!(tick, 3);
        assert!(store.filed_since(tick).is_empty());
        // A resit since the tick counts; the record it replaced does not
        // come back, and untouched exams are left out.
        store.push("quiz", make("bob"));
        store.push("quiz", make("dan"));
        let fresh = store.filed_since(tick);
        assert_eq!(fresh.len(), 1);
        assert_eq!(fresh[0].0, "quiz");
        let students: Vec<&str> = fresh[0].1.iter().map(|r| r.student.as_str()).collect();
        assert_eq!(students, ["bob", "dan"]);
        assert_eq!(store.filed_since(0).len(), 2, "tick 0 is a full capture");
        // Swapping in a fresh store never moves the tick backwards.
        let fresh_store = FinishedStore::new();
        fresh_store.push("quiz", make("eve"));
        store.replace_with(fresh_store);
        assert_eq!(store.tick(), 5);
        assert_eq!(store.count("quiz"), 1);
        assert_eq!(store.count("alpha"), 0);
    }
}
