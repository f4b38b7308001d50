//! Deterministic fault injection: a seeded, replayable schedule of
//! disk and network failures.
//!
//! A [`FaultPlan`] is the single source of chaos for a node. It is
//! injected behind two seams:
//!
//! - **disk** — [`crate::EventStore`] consults it on every append,
//!   segment fsync and image write (`disk.append_err`, `disk.torn`,
//!   `disk.fsync_err`, `disk.snapshot_err`), and the scrubber's injection seam consults it for data-at-rest
//!   corruption (`disk.bitrot`);
//! - **network** — the replication shipper consults it before every
//!   outgoing frame (`net.drop`, `net.dup`, `net.delay`,
//!   `net.partition`, `net.half_open`).
//!
//! Plans are either written out directive by directive, or derived
//! entirely from a seed (`seed=N` alone) via a splitmix64 hash — so a
//! chaos run is replayed exactly by re-running the same spec string,
//! which smoke scripts pass through the `MINE_FAULT_PLAN` environment
//! variable.
//!
//! ```
//! use mine_store::FaultPlan;
//!
//! let plan = FaultPlan::parse("seed=7;net.drop@3;disk.torn@5:9").unwrap();
//! assert_eq!(plan.seed(), 7);
//! // Round-trips through its canonical rendering.
//! let again = FaultPlan::parse(&plan.to_string()).unwrap();
//! assert_eq!(plan.to_string(), again.to_string());
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One scheduled disk failure, keyed by the sequence number of the
/// append it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiskFault {
    /// The whole append fails (`EIO`-style): no frame bytes land.
    AppendError,
    /// A torn write: `bytes` of the frame land on disk, then the
    /// append fails as if the disk filled mid-frame.
    TornWrite {
        /// Frame bytes written before the failure.
        bytes: usize,
    },
}

/// One scheduled network failure, keyed by the global outgoing frame
/// number it strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFault {
    /// The frame silently vanishes.
    Drop,
    /// The frame is delivered twice back to back.
    Duplicate,
    /// The frame is delivered after sleeping this long.
    Delay(Duration),
    /// From this frame on, every send fails with an I/O error until
    /// the window elapses — a hard partition.
    Partition(Duration),
    /// From this frame on, every send silently vanishes until the
    /// window elapses — a half-open peer that looks alive but hears
    /// nothing.
    HalfOpen(Duration),
}

/// What the shipper should do with one outgoing frame, after the plan
/// has been consulted (and any blackout window accounted for).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetAction {
    /// Send normally.
    Deliver,
    /// Pretend to send; the frame vanishes.
    Drop,
    /// Send the frame twice.
    DeliverTwice,
    /// Sleep, then send.
    DelayThenDeliver(Duration),
    /// Fail the send with an I/O error.
    Fail,
}

/// An active partition/half-open window: until `until`, sends either
/// fail (`fail = true`, partition) or vanish (`fail = false`,
/// half-open).
#[derive(Debug, Clone, Copy)]
struct Blackout {
    until: Instant,
    fail: bool,
}

/// A deterministic, replayable schedule of disk and network faults.
///
/// Shared behind an `Arc` between the store (disk seam) and the
/// replication layer (network seam) of one node. Frame and fsync
/// counters are process-global so a fault fires exactly once per run
/// regardless of reconnects.
#[derive(Debug)]
pub struct FaultPlan {
    seed: u64,
    disk: BTreeMap<u64, DiskFault>,
    /// Bit-rot schedule: flip `bytes` payload bytes of record `seq`
    /// once it sits in an *already-sealed* segment. Applied lazily by
    /// the scrubber's injection seam, not by the append path, because
    /// real bit rot strikes data at rest. The schedule is immutable so
    /// [`fmt::Display`] stays canonical; claims are tracked separately.
    bitrot: BTreeMap<u64, usize>,
    fsync_err_calls: BTreeMap<u64, ()>,
    snapshot_err_calls: BTreeSet<u64>,
    net: BTreeMap<u64, NetFault>,
    fsync_calls: AtomicU64,
    snapshot_calls: AtomicU64,
    frames: AtomicU64,
    blackout: Mutex<Option<Blackout>>,
    /// Sequence numbers whose bit-rot injection has already fired, so
    /// each scheduled flip strikes exactly once per process.
    bitrot_claimed: Mutex<BTreeSet<u64>>,
}

/// SplitMix64: a tiny, high-quality mixing step. Used to derive the
/// pseudo-random schedule from a seed without pulling in an RNG crate.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// How many outgoing frames the seeded schedule covers; past this the
/// network runs clean so a chaos run always converges.
const SEEDED_FRAME_HORIZON: u64 = 64;

impl FaultPlan {
    /// An empty plan (no faults) recording only its seed.
    #[must_use]
    fn empty(seed: u64) -> Self {
        Self {
            seed,
            disk: BTreeMap::new(),
            bitrot: BTreeMap::new(),
            fsync_err_calls: BTreeMap::new(),
            snapshot_err_calls: BTreeSet::new(),
            net: BTreeMap::new(),
            fsync_calls: AtomicU64::new(0),
            snapshot_calls: AtomicU64::new(0),
            frames: AtomicU64::new(0),
            blackout: Mutex::new(None),
            bitrot_claimed: Mutex::new(BTreeSet::new()),
        }
    }

    /// Derives a pseudo-random *network* schedule from `seed`: over the
    /// first `SEEDED_FRAME_HORIZON` outgoing frames, roughly one in
    /// eight is dropped, one in sixteen duplicated, one in eight
    /// delayed 10–50 ms. Disk faults are never generated (they poison
    /// the writer, which a recover-and-converge chaos run cannot come
    /// back from) — schedule those explicitly.
    ///
    /// The same seed always yields the identical schedule.
    #[must_use]
    pub fn seeded(seed: u64) -> Self {
        let mut plan = Self::empty(seed);
        let mut state = seed ^ 0x6D69_6E65_2D66_706C; // "mine-fpl"
        for frame in 1..=SEEDED_FRAME_HORIZON {
            let draw = splitmix64(&mut state);
            let fault = match draw % 16 {
                0 | 1 => Some(NetFault::Drop),
                2 => Some(NetFault::Duplicate),
                3 | 4 => {
                    let ms = 10 + (splitmix64(&mut state) % 41);
                    Some(NetFault::Delay(Duration::from_millis(ms)))
                }
                _ => None,
            };
            if let Some(fault) = fault {
                plan.net.insert(frame, fault);
            }
        }
        plan
    }

    /// Parses a plan spec: directives separated by `;` (or `,`).
    ///
    /// | Directive | Meaning |
    /// |---|---|
    /// | `seed=N` | record the seed; alone, derive the seeded schedule |
    /// | `disk.append_err@SEQ` | append of seq `SEQ` fails, no bytes land |
    /// | `disk.torn@SEQ:BYTES` | append of seq `SEQ` tears after `BYTES` bytes |
    /// | `disk.bitrot@SEQ:BYTES` | flip `BYTES` payload bytes of sealed record `SEQ` at rest |
    /// | `disk.fsync_err@CALL` | the `CALL`-th segment fsync fails |
    /// | `disk.snapshot_err@CALL` | the `CALL`-th image write (base, delta or install) fails before its rename |
    /// | `net.drop@FRAME` | outgoing frame `FRAME` vanishes |
    /// | `net.dup@FRAME` | outgoing frame `FRAME` is sent twice |
    /// | `net.delay@FRAME:MS` | outgoing frame `FRAME` is delayed `MS` ms |
    /// | `net.partition@FRAME:MS` | sends fail for `MS` ms starting at frame `FRAME` |
    /// | `net.half_open@FRAME:MS` | sends vanish for `MS` ms starting at frame `FRAME` |
    ///
    /// `seed=N` with no other directive expands to
    /// [`FaultPlan::seeded`]`(N)` — the replayable random schedule.
    ///
    /// # Errors
    ///
    /// Returns a message naming the directive that failed to parse.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let mut seed = 0_u64;
        let mut saw_seed = false;
        let mut explicit = Vec::new();
        for raw in spec.split([';', ',']) {
            let directive = raw.trim();
            if directive.is_empty() {
                continue;
            }
            if let Some(value) = directive.strip_prefix("seed=") {
                seed = value
                    .parse()
                    .map_err(|_| format!("bad seed in fault plan: {directive:?}"))?;
                saw_seed = true;
            } else {
                explicit.push(directive.to_string());
            }
        }
        if explicit.is_empty() {
            if saw_seed {
                return Ok(Self::seeded(seed));
            }
            return Ok(Self::empty(0));
        }
        let mut plan = Self::empty(seed);
        for directive in &explicit {
            plan.apply_directive(directive)?;
        }
        Ok(plan)
    }

    /// Reads and parses `MINE_FAULT_PLAN`. `Ok(None)` when unset or
    /// empty.
    ///
    /// # Errors
    ///
    /// Propagates [`FaultPlan::parse`] errors, prefixed with the
    /// variable name.
    pub fn from_env() -> Result<Option<Self>, String> {
        match std::env::var("MINE_FAULT_PLAN") {
            Ok(spec) if !spec.trim().is_empty() => Self::parse(&spec)
                .map(Some)
                .map_err(|err| format!("MINE_FAULT_PLAN: {err}")),
            _ => Ok(None),
        }
    }

    fn apply_directive(&mut self, directive: &str) -> Result<(), String> {
        let bad = || format!("bad fault directive: {directive:?}");
        let (kind, at) = directive.split_once('@').ok_or_else(bad)?;
        let (at, arg) = match at.split_once(':') {
            Some((at, arg)) => (at, Some(arg)),
            None => (at, None),
        };
        let at: u64 = at.parse().map_err(|_| bad())?;
        let num = |value: Option<&str>| -> Result<u64, String> {
            value.ok_or_else(bad)?.parse().map_err(|_| bad())
        };
        match kind {
            "disk.append_err" => {
                self.disk.insert(at, DiskFault::AppendError);
            }
            "disk.torn" => {
                let bytes = usize::try_from(num(arg)?).map_err(|_| bad())?;
                self.disk.insert(at, DiskFault::TornWrite { bytes });
            }
            "disk.bitrot" => {
                let bytes = usize::try_from(num(arg)?).map_err(|_| bad())?;
                if bytes == 0 {
                    return Err(bad());
                }
                self.bitrot.insert(at, bytes);
            }
            "disk.fsync_err" => {
                self.fsync_err_calls.insert(at, ());
            }
            "disk.snapshot_err" => {
                self.snapshot_err_calls.insert(at);
            }
            "net.drop" => {
                self.net.insert(at, NetFault::Drop);
            }
            "net.dup" => {
                self.net.insert(at, NetFault::Duplicate);
            }
            "net.delay" => {
                self.net
                    .insert(at, NetFault::Delay(Duration::from_millis(num(arg)?)));
            }
            "net.partition" => {
                self.net
                    .insert(at, NetFault::Partition(Duration::from_millis(num(arg)?)));
            }
            "net.half_open" => {
                self.net
                    .insert(at, NetFault::HalfOpen(Duration::from_millis(num(arg)?)));
            }
            _ => return Err(bad()),
        }
        Ok(())
    }

    /// The seed the plan was built from (0 when none was given).
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// True when the plan schedules no fault at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.disk.is_empty()
            && self.bitrot.is_empty()
            && self.fsync_err_calls.is_empty()
            && self.snapshot_err_calls.is_empty()
            && self.net.is_empty()
    }

    /// The disk fault scheduled for the append of `seq`, if any.
    #[must_use]
    pub fn disk_fault(&self, seq: u64) -> Option<DiskFault> {
        self.disk.get(&seq).copied()
    }

    /// The full bit-rot schedule: `(seq, bytes)` pairs, including ones
    /// already claimed. The injection seam iterates this to find
    /// records it can strike.
    #[must_use]
    pub fn bitrot_faults(&self) -> Vec<(u64, usize)> {
        self.bitrot
            .iter()
            .map(|(&seq, &bytes)| (seq, bytes))
            .collect()
    }

    /// Claims the bit-rot fault scheduled for `seq`: returns the byte
    /// count the first time, `None` on every later call (or when none
    /// is scheduled), so each scheduled flip fires exactly once.
    pub fn claim_bitrot(&self, seq: u64) -> Option<usize> {
        let bytes = *self.bitrot.get(&seq)?;
        let mut claimed = self.bitrot_claimed.lock().expect("fault plan mutex");
        if !claimed.insert(seq) {
            return None;
        }
        Some(bytes)
    }

    /// Counts one segment fsync and reports whether this one is
    /// scheduled to fail. Calls are numbered from 1.
    pub fn fsync_fails(&self) -> bool {
        let call = self.fsync_calls.fetch_add(1, Ordering::SeqCst) + 1;
        self.fsync_err_calls.contains_key(&call)
    }

    /// Counts one image write (base, delta or installed bootstrap) and
    /// reports whether this one is scheduled to fail. Calls are
    /// numbered from 1.
    pub fn snapshot_fails(&self) -> bool {
        let call = self.snapshot_calls.fetch_add(1, Ordering::SeqCst) + 1;
        self.snapshot_err_calls.contains(&call)
    }

    /// Counts one outgoing replication frame and returns what to do
    /// with it. Frames are numbered from 1 across the whole process, so
    /// a reconnect does not replay earlier faults.
    pub fn net_action(&self) -> NetAction {
        let frame = self.frames.fetch_add(1, Ordering::SeqCst) + 1;
        let mut blackout = self.blackout.lock().expect("fault plan mutex");
        if let Some(active) = *blackout {
            if Instant::now() < active.until {
                return if active.fail {
                    NetAction::Fail
                } else {
                    NetAction::Drop
                };
            }
            *blackout = None;
        }
        match self.net.get(&frame).copied() {
            None => NetAction::Deliver,
            Some(NetFault::Drop) => NetAction::Drop,
            Some(NetFault::Duplicate) => NetAction::DeliverTwice,
            Some(NetFault::Delay(by)) => NetAction::DelayThenDeliver(by),
            Some(NetFault::Partition(window)) => {
                *blackout = Some(Blackout {
                    until: Instant::now() + window,
                    fail: true,
                });
                NetAction::Fail
            }
            Some(NetFault::HalfOpen(window)) => {
                *blackout = Some(Blackout {
                    until: Instant::now() + window,
                    fail: false,
                });
                NetAction::Drop
            }
        }
    }
}

impl fmt::Display for FaultPlan {
    /// Canonical spec rendering: parseable by [`FaultPlan::parse`] and
    /// stable for a given schedule, so two plans built from the same
    /// seed render identically.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = vec![format!("seed={}", self.seed)];
        for (seq, fault) in &self.disk {
            match fault {
                DiskFault::AppendError => parts.push(format!("disk.append_err@{seq}")),
                DiskFault::TornWrite { bytes } => parts.push(format!("disk.torn@{seq}:{bytes}")),
            }
        }
        for (seq, bytes) in &self.bitrot {
            parts.push(format!("disk.bitrot@{seq}:{bytes}"));
        }
        for call in self.fsync_err_calls.keys() {
            parts.push(format!("disk.fsync_err@{call}"));
        }
        for call in &self.snapshot_err_calls {
            parts.push(format!("disk.snapshot_err@{call}"));
        }
        for (frame, fault) in &self.net {
            match fault {
                NetFault::Drop => parts.push(format!("net.drop@{frame}")),
                NetFault::Duplicate => parts.push(format!("net.dup@{frame}")),
                NetFault::Delay(by) => parts.push(format!("net.delay@{frame}:{}", by.as_millis())),
                NetFault::Partition(window) => {
                    parts.push(format!("net.partition@{frame}:{}", window.as_millis()));
                }
                NetFault::HalfOpen(window) => {
                    parts.push(format!("net.half_open@{frame}:{}", window.as_millis()));
                }
            }
        }
        write!(f, "{}", parts.join(";"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_directives_parse_and_round_trip() {
        let plan = FaultPlan::parse(
            "seed=9;disk.append_err@4;disk.torn@7:9;disk.fsync_err@2;disk.snapshot_err@3;\
             net.drop@3;net.dup@5;net.delay@6:25;net.partition@8:100;net.half_open@9:50",
        )
        .unwrap();
        assert_eq!(plan.seed(), 9);
        assert_eq!(plan.disk_fault(4), Some(DiskFault::AppendError));
        assert_eq!(plan.disk_fault(7), Some(DiskFault::TornWrite { bytes: 9 }));
        assert_eq!(plan.disk_fault(5), None);
        let rendered = plan.to_string();
        let reparsed = FaultPlan::parse(&rendered).unwrap();
        assert_eq!(rendered, reparsed.to_string());
    }

    #[test]
    fn seeded_schedules_are_reproducible_and_seed_sensitive() {
        let a = FaultPlan::seeded(42);
        let b = FaultPlan::seeded(42);
        let c = FaultPlan::seeded(43);
        assert_eq!(a.to_string(), b.to_string());
        assert_ne!(a.to_string(), c.to_string());
        assert!(!a.is_empty(), "a seeded plan schedules some faults");
        // `seed=N` alone means the seeded schedule.
        let via_spec = FaultPlan::parse("seed=42").unwrap();
        assert_eq!(via_spec.to_string(), a.to_string());
    }

    #[test]
    fn bad_directives_are_rejected_with_a_message() {
        assert!(FaultPlan::parse("seed=x").is_err());
        assert!(FaultPlan::parse("disk.torn@5").is_err());
        assert!(FaultPlan::parse("disk.bitrot@5").is_err());
        assert!(FaultPlan::parse("disk.bitrot@5:0").is_err());
        assert!(FaultPlan::parse("net.warp@3").is_err());
        assert!(FaultPlan::parse("net.delay@3:abc").is_err());
    }

    #[test]
    fn bitrot_round_trips_and_is_claimed_exactly_once() {
        let plan = FaultPlan::parse("seed=3;disk.bitrot@7:2;disk.bitrot@4:1;net.drop@2").unwrap();
        assert_eq!(plan.bitrot_faults(), vec![(4, 1), (7, 2)]);
        let rendered = plan.to_string();
        assert_eq!(
            rendered,
            "seed=3;disk.bitrot@4:1;disk.bitrot@7:2;net.drop@2"
        );
        let reparsed = FaultPlan::parse(&rendered).unwrap();
        assert_eq!(rendered, reparsed.to_string());
        // Each scheduled flip fires exactly once.
        assert_eq!(plan.claim_bitrot(7), Some(2));
        assert_eq!(plan.claim_bitrot(7), None);
        assert_eq!(plan.claim_bitrot(5), None, "nothing scheduled for seq 5");
        // Claiming does not change the canonical rendering.
        assert_eq!(plan.to_string(), rendered);
    }

    #[test]
    fn fsync_calls_are_counted_from_one() {
        let plan = FaultPlan::parse("disk.fsync_err@2").unwrap();
        assert!(!plan.fsync_fails());
        assert!(plan.fsync_fails());
        assert!(!plan.fsync_fails());
    }

    #[test]
    fn snapshot_writes_are_counted_from_one() {
        let plan = FaultPlan::parse("disk.snapshot_err@2").unwrap();
        assert!(!plan.snapshot_fails());
        assert!(plan.snapshot_fails());
        assert!(!plan.snapshot_fails());
        assert_eq!(plan.to_string(), "seed=0;disk.snapshot_err@2");
    }

    #[test]
    fn net_actions_fire_once_per_global_frame() {
        let plan = FaultPlan::parse("net.drop@1;net.dup@2;net.delay@3:5").unwrap();
        assert_eq!(plan.net_action(), NetAction::Drop);
        assert_eq!(plan.net_action(), NetAction::DeliverTwice);
        assert_eq!(
            plan.net_action(),
            NetAction::DelayThenDeliver(Duration::from_millis(5))
        );
        assert_eq!(plan.net_action(), NetAction::Deliver);
    }

    #[test]
    fn partition_fails_sends_until_the_window_elapses() {
        let plan = FaultPlan::parse("net.partition@1:30").unwrap();
        assert_eq!(plan.net_action(), NetAction::Fail);
        assert_eq!(plan.net_action(), NetAction::Fail, "window still open");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(plan.net_action(), NetAction::Deliver, "window healed");
    }

    #[test]
    fn half_open_swallows_sends_until_the_window_elapses() {
        let plan = FaultPlan::parse("net.half_open@1:30").unwrap();
        assert_eq!(plan.net_action(), NetAction::Drop);
        assert_eq!(plan.net_action(), NetAction::Drop, "window still open");
        std::thread::sleep(Duration::from_millis(40));
        assert_eq!(plan.net_action(), NetAction::Deliver, "window healed");
    }
}
