//! Concurrent session state: a sharded registry of live
//! [`ExamSession`]s and a store of finished [`StudentRecord`]s.
//!
//! The registry spreads sessions over a fixed set of shards, each a
//! `parking_lot::RwLock<HashMap<..>>`; a session's shard is chosen by
//! hashing its id, so operations on different sessions contend only
//! when they land on the same shard, and operations on the *same*
//! session serialize on that session's own mutex — never on a global
//! lock. Handlers get at a session through [`SessionRegistry::with`],
//! which holds the shard read lock just long enough to clone the
//! per-session `Arc`.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, RwLock};

use mine_core::{SessionId, StudentRecord};
use mine_delivery::{ExamSession, SessionCheckpoint, SessionState};

/// Default shard count — enough to keep 32+ concurrent clients off each
/// other's locks without wasting memory.
pub const DEFAULT_SHARDS: usize = 16;

/// How long a removed session's tombstone distinguishes "already
/// removed" from "never existed".
pub const DEFAULT_TOMBSTONE_TTL: Duration = Duration::from_secs(300);

/// A live session plus the server-side copy of its latest pause
/// checkpoint (the paper's `cmi.suspend_data`).
#[derive(Debug)]
pub struct SessionSlot {
    /// The in-memory sitting.
    pub session: ExamSession,
    /// Checkpoint captured at the last pause, if any.
    pub checkpoint: Option<SessionCheckpoint>,
}

/// Failure modes of registry operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RegistryError {
    /// A session with the same id is already registered.
    Duplicate(SessionId),
    /// No session with the given id.
    Missing(String),
    /// The session existed and was removed recently (its tombstone has
    /// not expired) — a repeated removal, not an unknown id, so a
    /// caller retrying a finish can treat it as success.
    AlreadyRemoved(String),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(id) => write!(f, "session {id} already exists"),
            RegistryError::Missing(id) => write!(f, "no session {id}"),
            RegistryError::AlreadyRemoved(id) => write!(f, "session {id} was already removed"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// One shard: live slots plus tombstones of recently removed sessions,
/// behind a single lock so remove-vs-remove races resolve atomically.
#[derive(Debug, Default)]
struct ShardMap {
    live: HashMap<String, Arc<Mutex<SessionSlot>>>,
    tombstones: HashMap<String, Instant>,
}

type Shard = RwLock<ShardMap>;

/// A sharded, thread-safe map of live exam sessions.
#[derive(Debug)]
pub struct SessionRegistry {
    shards: Vec<Shard>,
    tombstone_ttl: Duration,
}

impl Default for SessionRegistry {
    fn default() -> Self {
        Self::new(DEFAULT_SHARDS)
    }
}

impl SessionRegistry {
    /// Creates a registry with the given shard count (minimum 1).
    #[must_use]
    pub fn new(shards: usize) -> Self {
        Self::with_tombstone_ttl(shards, DEFAULT_TOMBSTONE_TTL)
    }

    /// Creates a registry with an explicit tombstone lifetime (how long
    /// [`SessionRegistry::remove`] can tell a repeated removal apart
    /// from an unknown session).
    #[must_use]
    pub fn with_tombstone_ttl(shards: usize, tombstone_ttl: Duration) -> Self {
        Self {
            shards: (0..shards.max(1)).map(|_| Shard::default()).collect(),
            tombstone_ttl,
        }
    }

    fn shard_index(&self, id: &str) -> usize {
        let mut hasher = DefaultHasher::new();
        id.hash(&mut hasher);
        (hasher.finish() % self.shards.len() as u64) as usize
    }

    fn shard(&self, id: &str) -> &Shard {
        &self.shards[self.shard_index(id)]
    }

    /// Registers a freshly started session.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Duplicate`] when the id is taken.
    pub fn insert(&self, session: ExamSession) -> Result<SessionId, RegistryError> {
        let id = session.id().clone();
        let mut shard = self.shard(id.as_str()).write();
        if shard.live.contains_key(id.as_str()) {
            return Err(RegistryError::Duplicate(id));
        }
        // A fresh session supersedes any tombstone of its predecessor
        // (a re-sit with the same seed after a finish).
        shard.tombstones.remove(id.as_str());
        shard.live.insert(
            id.as_str().to_string(),
            Arc::new(Mutex::new(SessionSlot {
                session,
                checkpoint: None,
            })),
        );
        Ok(id)
    }

    /// Runs `f` with exclusive access to a session's slot.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Missing`] for unknown ids.
    pub fn with<R>(
        &self,
        id: &str,
        f: impl FnOnce(&mut SessionSlot) -> R,
    ) -> Result<R, RegistryError> {
        let slot = {
            let shard = self.shard(id).read();
            shard
                .live
                .get(id)
                .cloned()
                .ok_or_else(|| RegistryError::Missing(id.to_string()))?
        };
        let mut guard = slot.lock();
        Ok(f(&mut guard))
    }

    /// Removes a session (after finish), returning its slot.
    ///
    /// Removal is idempotent in the face of races: when two callers
    /// race to remove the same finished session, exactly one gets the
    /// slot and the other gets [`RegistryError::AlreadyRemoved`] (for
    /// as long as the tombstone lives), not a misleading `Missing`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::AlreadyRemoved`] when the session was
    /// removed within the tombstone TTL and [`RegistryError::Missing`]
    /// for ids never (or no longer memorably) registered.
    pub fn remove(&self, id: &str) -> Result<Arc<Mutex<SessionSlot>>, RegistryError> {
        let mut shard = self.shard(id).write();
        let ttl = self.tombstone_ttl;
        shard
            .tombstones
            .retain(|_, removed_at| removed_at.elapsed() < ttl);
        if let Some(slot) = shard.live.remove(id) {
            shard.tombstones.insert(id.to_string(), Instant::now());
            return Ok(slot);
        }
        if shard.tombstones.contains_key(id) {
            return Err(RegistryError::AlreadyRemoved(id.to_string()));
        }
        Err(RegistryError::Missing(id.to_string()))
    }

    /// Number of sessions currently registered.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|shard| shard.read().live.len())
            .sum()
    }

    /// Whether no session is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counts sessions by lifecycle state `(active, paused)`.
    #[must_use]
    pub fn state_counts(&self) -> (usize, usize) {
        let mut active = 0;
        let mut paused = 0;
        for shard in &self.shards {
            // Clone the Arcs out so slot locks are not taken while the
            // shard lock is held (lock-ordering hygiene).
            let slots: Vec<_> = shard.read().live.values().cloned().collect();
            for slot in slots {
                match slot.lock().session.state() {
                    SessionState::Active => active += 1,
                    SessionState::Paused => paused += 1,
                    SessionState::Finished => {}
                }
            }
        }
        (active, paused)
    }

    /// Clones out every live session (with its checkpoint), sorted by
    /// session id — the deterministic basis of a durability snapshot.
    /// Callers needing a *consistent* capture must exclude concurrent
    /// mutators first (the server does so via its journal gate).
    #[must_use]
    pub fn capture(&self) -> Vec<(ExamSession, Option<SessionCheckpoint>)> {
        let mut captured = Vec::new();
        for shard in &self.shards {
            let slots: Vec<_> = shard.read().live.values().cloned().collect();
            for slot in slots {
                let guard = slot.lock();
                captured.push((guard.session.clone(), guard.checkpoint.clone()));
            }
        }
        captured.sort_by(|a, b| a.0.id().as_str().cmp(b.0.id().as_str()));
        captured
    }

    /// Replaces every live session and tombstone with `fresh`'s live
    /// sessions, one shard at a time: a reader of any one session sees
    /// the old slot or the new one, never a gap. Used when a replication
    /// follower restores a bootstrap image into a fresh registry;
    /// callers must exclude concurrent mutators (the follower holds the
    /// journal write gate).
    pub fn replace_with(&self, fresh: SessionRegistry) {
        let mut incoming: Vec<HashMap<String, Arc<Mutex<SessionSlot>>>> =
            self.shards.iter().map(|_| HashMap::new()).collect();
        for shard in fresh.shards {
            for (id, slot) in shard.into_inner().live {
                incoming[self.shard_index(&id)].insert(id, slot);
            }
        }
        for (shard, live) in self.shards.iter().zip(incoming) {
            let mut shard = shard.write();
            shard.live = live;
            shard.tombstones.clear();
        }
    }
}

/// Finished sittings grouped by exam, ordered by student id.
///
/// The per-exam `BTreeMap` keys records by student, which makes the
/// assembled class record — and therefore the live analysis report —
/// deterministic no matter which order concurrent clients finished in.
///
/// Records are held behind `Arc`s so that readers ([`Self::records`],
/// [`Self::capture`]) copy only pointers under the read lock and
/// deep-clone after releasing it: a finish's [`Self::push`] then never
/// waits behind a whole class being cloned.
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

    /// Files a finished record under its exam. A student re-sitting the
    /// same exam replaces their earlier record.
    pub fn push(&self, exam: &str, record: StudentRecord) {
        let key = record.student.as_str().to_string();
        let record = Arc::new(record);
        let mut shelves = self.shelves.write();
        shelves.tick += 1;
        let tick = shelves.tick;
        shelves
            .by_exam
            .entry(exam.to_string())
            .or_default()
            .insert(key, Filed { tick, record });
    }

    /// All records for an exam, in student-id order.
    #[must_use]
    pub fn records(&self, exam: &str) -> Vec<StudentRecord> {
        let shared: Vec<Arc<StudentRecord>> = self
            .shelves
            .read()
            .by_exam
            .get(exam)
            .map(|records| records.values().map(|f| Arc::clone(&f.record)).collect())
            .unwrap_or_default();
        deep_clone(&shared)
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
    /// then counts, a record it replaced does not), grouped and sorted
    /// like [`Self::capture`]. Exams with no such record are left out.
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

    /// Clones out every exam's records, sorted by exam id (records are
    /// already in student order) — the deterministic basis of a
    /// durability snapshot.
    #[must_use]
    pub fn capture(&self) -> Vec<(String, Vec<StudentRecord>)> {
        self.filed_since(0)
            .into_iter()
            .map(|(exam, records)| (exam, deep_clone(&records)))
            .collect()
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

fn deep_clone(records: &[Arc<StudentRecord>]) -> Vec<StudentRecord> {
    records.iter().map(|record| (**record).clone()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mine_core::Answer;
    use mine_delivery::DeliveryOptions;
    use mine_itembank::{Exam, Problem};
    use std::time::Duration;

    fn session(student: &str, seed: u64) -> ExamSession {
        let problems = vec![Problem::true_false("q1", "Yes?", true).unwrap()];
        let exam = Exam::builder("quiz")
            .unwrap()
            .entry("q1".parse().unwrap())
            .build()
            .unwrap();
        ExamSession::start(
            &exam,
            problems,
            student.parse().unwrap(),
            DeliveryOptions {
                seed,
                ..DeliveryOptions::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn insert_with_remove_round_trip() {
        let registry = SessionRegistry::new(4);
        let id = registry.insert(session("s1", 0)).unwrap();
        assert_eq!(registry.len(), 1);
        let answered = registry
            .with(id.as_str(), |slot| {
                slot.session
                    .answer(Answer::TrueFalse(true), Duration::from_secs(5))
                    .unwrap();
                slot.session.answered_count()
            })
            .unwrap();
        assert_eq!(answered, 1);
        registry.remove(id.as_str()).unwrap();
        assert!(registry.is_empty());
        assert!(matches!(
            registry.with(id.as_str(), |_| ()),
            Err(RegistryError::Missing(_))
        ));
        // A second removal within the tombstone TTL is recognizably a
        // repeat, not an unknown id.
        assert!(matches!(
            registry.remove(id.as_str()),
            Err(RegistryError::AlreadyRemoved(_))
        ));
        // But an id that never existed is Missing.
        assert!(matches!(
            registry.remove("ghost"),
            Err(RegistryError::Missing(_))
        ));
    }

    #[test]
    fn racing_removals_resolve_to_one_winner_and_typed_repeats() {
        let registry = Arc::new(SessionRegistry::new(4));
        let id = registry.insert(session("s1", 0)).unwrap();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let registry = Arc::clone(&registry);
                let id = id.as_str().to_string();
                std::thread::spawn(move || registry.remove(&id))
            })
            .collect();
        let outcomes: Vec<_> = threads.into_iter().map(|t| t.join().unwrap()).collect();
        let wins = outcomes.iter().filter(|o| o.is_ok()).count();
        let repeats = outcomes
            .iter()
            .filter(|o| matches!(o, Err(RegistryError::AlreadyRemoved(_))))
            .count();
        assert_eq!(wins, 1, "exactly one remover gets the slot");
        assert_eq!(repeats, 7, "every loser sees AlreadyRemoved, never Missing");
    }

    #[test]
    fn tombstones_expire_and_are_superseded_by_reinsertion() {
        let registry = SessionRegistry::with_tombstone_ttl(2, Duration::from_millis(20));
        let id = registry.insert(session("s1", 0)).unwrap();
        registry.remove(id.as_str()).unwrap();
        assert!(matches!(
            registry.remove(id.as_str()),
            Err(RegistryError::AlreadyRemoved(_))
        ));
        std::thread::sleep(Duration::from_millis(40));
        // The tombstone has expired: the id is plain Missing again.
        assert!(matches!(
            registry.remove(id.as_str()),
            Err(RegistryError::Missing(_))
        ));
        // A re-sit with the same id clears any tombstone.
        let id = registry.insert(session("s1", 0)).unwrap();
        registry.remove(id.as_str()).unwrap();
        registry.insert(session("s1", 0)).unwrap();
        assert_eq!(registry.len(), 1);
        registry.with(id.as_str(), |_| ()).unwrap();
    }

    #[test]
    fn capture_is_sorted_and_complete() {
        let registry = SessionRegistry::new(4);
        registry.insert(session("zed", 1)).unwrap();
        let paused_id = registry.insert(session("amy", 2)).unwrap();
        registry
            .with(paused_id.as_str(), |slot| {
                let checkpoint = slot.session.pause().unwrap();
                slot.checkpoint = Some(checkpoint);
            })
            .unwrap();
        let captured = registry.capture();
        assert_eq!(captured.len(), 2);
        // Sorted by session id, checkpoints carried along.
        assert!(captured[0].0.id().as_str() < captured[1].0.id().as_str());
        let amy = captured
            .iter()
            .find(|(s, _)| s.id().as_str() == paused_id.as_str())
            .unwrap();
        assert!(amy.1.is_some());
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
        let a = registry.insert(session("a", 0)).unwrap();
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
        let captured = store.capture();
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
