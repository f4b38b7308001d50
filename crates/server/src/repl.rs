//! Primary/follower replication: WAL shipping, read replicas, and
//! epoch-fenced failover over the [`mine_store::replicate`] protocol.
//!
//! # Topology
//!
//! One **primary** owns all writes. It exposes a replication listener
//! ([`ReplListener`]); each **follower** connects to it
//! ([`start_follower`]), bootstraps from a full
//! [`ServerImage`](crate::journal::ServerImage) snapshot, and then
//! applies the primary's WAL records in strict sequence order — through
//! `ServerState::apply`, the method the primary's handlers and crash
//! recovery mutate through, so a replica's registry is byte-identical
//! to what the primary would rebuild from the same log.
//! Followers serve every read route and refuse writes with
//! `421 Misdirected Request` naming the leader.
//!
//! # Durability modes
//!
//! With `AckMode::Leader` a write is acknowledged once the primary's
//! own WAL accepts it. With `AckMode::Quorum` the handler additionally
//! waits (bounded) for at least one follower to confirm the record is
//! locally durable; a timed-out wait proceeds anyway — the event is
//! already journaled, and failing the request *after* journaling would
//! make live behavior diverge from replay — but is counted in
//! `mine_repl_quorum_timeouts_total`.
//!
//! # Epoch fencing
//!
//! Every change of role, epoch or leader goes through one of two
//! [`ReplState`] transitions, each under the journal's write gate:
//! [`ReplState::promote`] (`mine promote` and the follower-side failure
//! detector, [`FailoverConfig`] / `--auto-failover`) raises the durable
//! epoch one past the current and starts serving writes;
//! [`ReplState::follow`] adopts a newer epoch and stands down — the
//! `/admin/demote` route, a primary that sees a higher-epoch `Hello`, a
//! follower's `Welcome` and `Heartbeat`, and the detector finding a live
//! primary. The durable epoch only rises
//! ([`mine_store::EventStore::raise_epoch`]), so no interleaving of
//! transitions moves it back. The epoch fences every path a deposed
//! primary could sneak stale state through: a follower refuses a
//! `Welcome` from a lower-epoch leader and stops applying a stream the
//! moment its own durable epoch moves past the stream's. A deposed
//! primary restarted with `--replica-of` adopts the higher epoch from
//! the new leader's `Welcome` the same way.
//!
//! # Fault injection
//!
//! When a [`FaultPlan`] is configured (`MINE_FAULT_PLAN`), the
//! primary's shipping loop consults it before every streamed frame —
//! bootstrap snapshot, records, heartbeats — so a seeded chaos schedule
//! can drop, duplicate, delay, or fail sends deterministically. The
//! follower's integrity rules ([`StreamCursor`], CRC framing) turn
//! every injected fault into a typed error and a clean re-sync.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::io::{BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel;
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Number, Value};

use mine_store::replicate::{read_message, write_message, FrameReader, Message};
use mine_store::{FaultPlan, NetAction, ReplError, Snapshot, StoreError, StreamCursor};

use crate::client::{backoff_delay, connect_timeout, HttpClient, RetryPolicy};
use crate::http::object_body;
use crate::journal::{capture_image, decode_payload, Journal, SessionEvent};
use crate::metrics::Metrics;
use crate::router::Router;

/// Socket read timeout on both sides of the stream: long enough for
/// heartbeats (sent every [`HEARTBEAT_INTERVAL`]) to keep the
/// connection warm, short enough that stop flags are observed promptly.
const SOCKET_TIMEOUT: Duration = Duration::from_secs(2);

/// How often an idle primary sends `Heartbeat` to each follower.
const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(500);

/// First ceiling of the follower's reconnect backoff; doubles per
/// consecutive failure with full jitter (see [`backoff_delay`]).
const RECONNECT_BASE: Duration = Duration::from_millis(250);

/// Hard cap on one reconnect pause: a follower never sits out longer
/// than this once its primary is back.
const RECONNECT_CAP: Duration = Duration::from_secs(2);

/// I/O timeout for one failure-detector probe of a peer's `/healthz`.
const PROBE_TIMEOUT: Duration = Duration::from_millis(500);

/// Default leader-silence timeout for `--auto-failover` without an
/// explicit value (six missed heartbeats).
pub const DEFAULT_FAILOVER_TIMEOUT: Duration = Duration::from_millis(3_000);

/// Configuration of the follower-side failure detector
/// (`--auto-failover`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FailoverConfig {
    /// Leader silence after which the follower suspects a dead primary.
    /// The *effective* timeout adds a deterministic per-node jitter of
    /// up to 25% (derived from the node's advertised address), so two
    /// followers never run the succession survey in lockstep.
    pub timeout: Duration,
    /// Client-facing (HTTP) addresses of the *other* nodes, surveyed
    /// before promoting. List each peer exactly as it advertises itself
    /// (its `--addr`): the address doubles as the node id in the
    /// deterministic succession tie-break.
    pub peers: Vec<String>,
}

/// Where this node stands in the replication topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Owns writes, ships its WAL to followers.
    Primary,
    /// Mirrors a primary; serves reads, redirects writes.
    Follower,
    /// Mid-promotion: no longer following, not yet serving writes.
    Candidate,
}

impl Role {
    /// Stable label (`/healthz`, metrics).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Role::Primary => "primary",
            Role::Follower => "follower",
            Role::Candidate => "candidate",
        }
    }

    /// Gauge encoding: 0 primary, 1 follower, 2 candidate.
    #[must_use]
    pub fn gauge(self) -> u64 {
        match self {
            Role::Primary => 0,
            Role::Follower => 1,
            Role::Candidate => 2,
        }
    }

    fn from_gauge(gauge: u64) -> Self {
        match gauge {
            0 => Role::Primary,
            1 => Role::Follower,
            _ => Role::Candidate,
        }
    }
}

/// When a write is acknowledged to the client.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AckMode {
    /// Once the primary's own WAL accepts the record.
    Leader,
    /// Additionally wait (bounded) for one follower's durable ack.
    Quorum,
}

impl AckMode {
    /// Parses the CLI spelling: `leader`, `quorum`, or the
    /// `ack=`-prefixed forms used by `--replicate`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted forms.
    pub fn parse(text: &str) -> Result<Self, String> {
        match text.strip_prefix("ack=").unwrap_or(text) {
            "leader" => Ok(AckMode::Leader),
            "quorum" => Ok(AckMode::Quorum),
            other => Err(format!(
                "unknown ack mode {other:?} (expected ack=leader | ack=quorum)"
            )),
        }
    }
}

/// One connected follower, as the primary's hub sees it.
#[derive(Debug)]
struct FollowerConn {
    id: u64,
    /// Pre-encoded wire frames queued for this follower's writer.
    sender: channel::Sender<Vec<u8>>,
    /// Highest sequence this follower has confirmed durable.
    acked: u64,
}

/// The primary's fan-out point: every connected follower's frame queue
/// and acked sequence, under the one mutex quorum waits sleep on.
#[derive(Debug, Default)]
pub struct Hub {
    conns: Mutex<Vec<FollowerConn>>,
    next_id: AtomicU64,
    /// Signalled whenever a follower acks or leaves. A waiter holds
    /// `conns` from its check to its sleep, so an ack cannot land in
    /// between and leave the writer asleep until timeout.
    ack_signal: Condvar,
}

impl Hub {
    fn register(&self, sender: channel::Sender<Vec<u8>>, acked: u64) -> u64 {
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        self.conns
            .lock()
            .expect("hub mutex")
            .push(FollowerConn { id, sender, acked });
        id
    }

    fn deregister(&self, id: u64) {
        self.conns
            .lock()
            .expect("hub mutex")
            .retain(|conn| conn.id != id);
        // A quorum waiter counting on this follower must re-evaluate.
        self.ack_signal.notify_all();
    }

    /// Queues one encoded frame for every follower. Dead senders (their
    /// connection thread has exited) are pruned.
    fn publish(&self, frame: &[u8]) {
        self.conns
            .lock()
            .expect("hub mutex")
            .retain(|conn| conn.sender.send(frame.to_vec()).is_ok());
    }

    /// Followers currently connected.
    #[must_use]
    pub fn count(&self) -> usize {
        self.conns.lock().expect("hub mutex").len()
    }

    /// The slowest connected follower's acked sequence (`None` with no
    /// followers).
    #[must_use]
    pub fn min_acked(&self) -> Option<u64> {
        self.conns
            .lock()
            .expect("hub mutex")
            .iter()
            .map(|conn| conn.acked)
            .min()
    }

    /// Folds follower `id`'s cumulative ack in and wakes quorum waiters.
    fn ack(&self, id: u64, seq: u64) {
        let mut conns = self.conns.lock().expect("hub mutex");
        if let Some(conn) = conns.iter_mut().find(|conn| conn.id == id) {
            conn.acked = conn.acked.max(seq);
        }
        self.ack_signal.notify_all();
    }

    /// Blocks until some follower has acked `seq` or `timeout` passes.
    /// Returns whether the quorum was reached.
    fn wait_for_ack(&self, seq: u64, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut conns = self.conns.lock().expect("hub mutex");
        loop {
            if conns.iter().any(|conn| conn.acked >= seq) {
                return true;
            }
            if conns.is_empty() {
                // Every follower disconnected mid-wait; nothing left to
                // wait for.
                return false;
            }
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return false;
            }
            conns = self
                .ack_signal
                .wait_timeout(conns, remaining)
                .expect("hub mutex")
                .0;
        }
    }
}

/// Shared replication state, owned by [`crate::router::ServerState`].
///
/// The durable truth — epoch and applied position — lives in the
/// journal's [`mine_store::EventStore`]; this struct holds the volatile
/// side: role, leader coordinates, the ack mode, and the primary's
/// fan-out hub. Role, epoch and leader change only through
/// [`ReplState::promote`] and [`ReplState::follow`], under the journal's
/// write gate (lock order: gate, then store mutex).
#[derive(Debug)]
pub struct ReplState {
    /// Role as a gauge (see [`Role::gauge`]) so reads are lock-free.
    role: AtomicU64,
    /// The leader's client-facing address (follower-side; from
    /// `Welcome::advertise`). Handed to redirected writers.
    leader_addr: Mutex<Option<String>>,
    /// The leader's last advertised head sequence (follower-side).
    leader_head: AtomicU64,
    /// Our own client-facing address, advertised to followers.
    advertise: Mutex<String>,
    /// When writes are acknowledged.
    ack_mode: AckMode,
    /// Ceiling on one quorum wait.
    quorum_timeout: Duration,
    hub: Hub,
    /// Serializes seq assignment with hub enqueue so followers receive
    /// records in exactly WAL order (see [`Self::append_and_publish`]).
    order: Mutex<()>,
    /// Tells the follower puller to exit (promotion, shutdown).
    stop: AtomicBool,
    /// When the follower last heard anything from its leader (any
    /// frame counts: snapshot, record, heartbeat). The failure detector
    /// measures leader silence from here.
    leader_contact: Mutex<Option<Instant>>,
    /// The failure detector's configuration; `None` keeps failover
    /// supervised (`mine promote` only).
    failover: Mutex<Option<FailoverConfig>>,
    /// Set by the scrubber after quarantining corrupt sealed segments:
    /// tells the puller to break its live stream and re-bootstrap from
    /// the leader's snapshot (the repair path).
    resync: AtomicBool,
}

impl ReplState {
    /// Fresh state for a node starting in `role`.
    #[must_use]
    pub fn new(role: Role, ack_mode: AckMode) -> Self {
        Self {
            role: AtomicU64::new(role.gauge()),
            leader_addr: Mutex::new(None),
            leader_head: AtomicU64::new(0),
            advertise: Mutex::new(String::new()),
            ack_mode,
            quorum_timeout: Duration::from_secs(2),
            hub: Hub::default(),
            order: Mutex::new(()),
            stop: AtomicBool::new(false),
            leader_contact: Mutex::new(None),
            failover: Mutex::new(None),
            resync: AtomicBool::new(false),
        }
    }

    /// Asks the puller to abandon its live stream and re-bootstrap from
    /// the leader (called by the scrubber after quarantining corrupt
    /// sealed segments). The bootstrap snapshot replaces the whole local
    /// log — quarantined evidence files survive, the divergent or
    /// rotted history does not.
    pub fn request_resync(&self) {
        self.resync.store(true, Ordering::Release);
    }

    /// Whether a resync has been requested and not yet completed.
    #[must_use]
    pub fn resync_requested(&self) -> bool {
        self.resync.load(Ordering::Acquire)
    }

    /// Marks the requested resync complete (a bootstrap snapshot was
    /// installed).
    fn resync_complete(&self) {
        self.resync.store(false, Ordering::Release);
    }

    /// Records that the leader was just heard from (resets the failure
    /// detector's silence clock).
    pub fn note_leader_contact(&self) {
        *self.leader_contact.lock().expect("leader contact") = Some(Instant::now());
    }

    /// How long the leader has been silent (`None` before any contact).
    #[must_use]
    pub fn leader_contact_age(&self) -> Option<Duration> {
        self.leader_contact
            .lock()
            .expect("leader contact")
            .map(|at| at.elapsed())
    }

    /// Arms the failure detector.
    pub fn set_auto_failover(&self, config: FailoverConfig) {
        *self.failover.lock().expect("failover config") = Some(config);
    }

    /// The failure detector's configuration, when armed.
    #[must_use]
    pub fn failover(&self) -> Option<FailoverConfig> {
        self.failover.lock().expect("failover config").clone()
    }

    /// The jittered detection timeout this node actually applies:
    /// `timeout` plus up to 25% more, derived deterministically from
    /// the advertised address so each node waits a different — but
    /// replayable — amount.
    #[must_use]
    pub fn effective_failover_timeout(&self, config: &FailoverConfig) -> Duration {
        let mut hasher = DefaultHasher::new();
        self.advertise().hash(&mut hasher);
        let quarter = u64::try_from(config.timeout.as_millis()).unwrap_or(u64::MAX) / 4;
        let jitter = if quarter == 0 {
            0
        } else {
            hasher.finish() % (quarter + 1)
        };
        config.timeout + Duration::from_millis(jitter)
    }

    /// Current role.
    #[must_use]
    pub fn role(&self) -> Role {
        Role::from_gauge(self.role.load(Ordering::Acquire))
    }

    fn set_role(&self, role: Role) {
        self.role.store(role.gauge(), Ordering::Release);
    }

    /// The leader's client-facing address, when known.
    #[must_use]
    pub fn leader_addr(&self) -> Option<String> {
        self.leader_addr.lock().expect("leader addr").clone()
    }

    fn set_leader_addr(&self, addr: String) {
        *self.leader_addr.lock().expect("leader addr") = Some(addr);
    }

    /// The leader's last advertised head sequence.
    #[must_use]
    pub fn leader_head(&self) -> u64 {
        self.leader_head.load(Ordering::Acquire)
    }

    fn set_leader_head(&self, head: u64) {
        self.leader_head.store(head, Ordering::Release);
    }

    /// Publishes our client-facing address (what followers' redirects
    /// will name).
    pub fn set_advertise(&self, addr: String) {
        *self.advertise.lock().expect("advertise") = addr;
    }

    fn advertise(&self) -> String {
        self.advertise.lock().expect("advertise").clone()
    }

    /// The primary's follower hub.
    #[must_use]
    pub fn hub(&self) -> &Hub {
        &self.hub
    }

    /// Signals the follower puller to exit at its next poll.
    pub fn stop_puller(&self) {
        self.stop.store(true, Ordering::Release);
    }

    fn stopped(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Takes over as primary: stops following, raises the durable epoch
    /// one past the current, starts serving writes. Returns the new
    /// epoch, or `None` when this node already is the primary. The
    /// write gate waits out any in-flight apply of the puller (it
    /// applies under the read gate), so nothing from the old stream
    /// lands after the raise.
    ///
    /// # Errors
    ///
    /// The store's error when the raise does not persist; the node then
    /// stays a follower, so a node that cannot fence itself never
    /// serves writes.
    pub fn promote(&self, journal: &Journal) -> Result<Option<u64>, StoreError> {
        let _gate = journal.gate_write();
        if self.role() == Role::Primary {
            return Ok(None);
        }
        self.set_role(Role::Candidate);
        self.stop_puller();
        let epoch = journal.store().epoch() + 1;
        if let Err(err) = journal.store().raise_epoch(epoch) {
            self.set_role(Role::Follower);
            return Err(err);
        }
        self.set_role(Role::Primary);
        Ok(Some(epoch))
    }

    /// Follows the leader of `epoch`: raises the durable epoch when
    /// `epoch` is newer and then stands down to follower, whatever the
    /// role was. An equal epoch changes no role, but a follower takes
    /// it as word from its leader; an older one changes nothing. When
    /// it follows, it records `leader` (the client-facing address that
    /// redirects name), when given, and resets the silence clock.
    /// Returns whether the epoch moved.
    ///
    /// # Errors
    ///
    /// The store's error when the raise does not persist; nothing
    /// changes then.
    pub fn follow(
        &self,
        journal: &Journal,
        epoch: u64,
        leader: Option<String>,
    ) -> Result<bool, StoreError> {
        let _gate = journal.gate_write();
        let moved = journal.store().raise_epoch(epoch)?;
        if moved {
            self.set_role(Role::Follower);
        } else if epoch < journal.store().epoch() || self.role() != Role::Follower {
            return Ok(false);
        }
        if let Some(leader) = leader {
            self.set_leader_addr(leader);
        }
        self.note_leader_contact();
        Ok(moved)
    }

    /// Journals `payload` and ships the record to every follower as one
    /// atomic step, then — under `AckMode::Quorum` — waits (bounded) for
    /// one durable ack. The `order` lock makes seq assignment and hub
    /// enqueue a single critical section: without it two concurrent
    /// handlers could append seqs N and N+1 but enqueue them reversed,
    /// and followers would see a gap and force a full re-bootstrap. The
    /// quorum wait happens *outside* the lock (it can block for up to
    /// the `quorum_timeout`). The record is already durable before
    /// the wait, so a timeout degrades to leader-ack (counted) rather
    /// than failing the request — failing *after* journaling would make
    /// live behavior diverge from replay.
    ///
    /// # Errors
    ///
    /// Returns [`mine_store::StoreError`] when the local append fails;
    /// nothing is shipped in that case.
    pub fn append_and_publish(
        &self,
        journal: &Journal,
        payload: &[u8],
        metrics: &Metrics,
    ) -> Result<u64, mine_store::StoreError> {
        let seq = {
            let _order = self.order.lock().expect("publish order");
            let seq = journal.store().append(payload)?;
            let frame = Message::Record {
                seq,
                payload: payload.to_vec(),
            }
            .encode()
            .expect("the store bounds a record far below MAX_BODY_BYTES");
            self.hub.publish(&frame);
            seq
        };
        if self.ack_mode == AckMode::Quorum
            && self.hub.count() > 0
            && !self.hub.wait_for_ack(seq, self.quorum_timeout)
        {
            metrics.repl_quorum_timeouts_total.inc();
        }
        Ok(seq)
    }
}

/// A running replication listener (the primary's shipping side).
#[derive(Debug)]
pub struct ReplListener {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl ReplListener {
    /// Binds `addr` and starts accepting follower connections in a
    /// background thread. Each connection is served on its own thread:
    /// handshake, bootstrap snapshot, then the live record stream.
    ///
    /// The listener also runs on followers — it rejects every `Hello`
    /// with "not a primary" until a promotion flips the role, at which
    /// point the same listener starts shipping.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the address cannot be bound.
    pub fn start(addr: &str, router: Router) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let router = router.clone();
                    std::thread::spawn(move || {
                        if let Err(err) = serve_follower(stream, &router) {
                            eprintln!("[mine-repl] follower connection ended: {err}");
                        }
                    });
                }
            })
        };
        Ok(Self {
            local_addr,
            shutdown,
            acceptor: Some(acceptor),
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Stops accepting and joins the acceptor. Connections already
    /// being served wind down on their own socket errors.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Serves one follower connection on the primary: handshake, bootstrap
/// snapshot captured under the journal's write gate, then the live
/// stream (records from the hub, heartbeats when idle), with a
/// companion thread draining the follower's acks.
fn serve_follower(stream: TcpStream, router: &Router) -> Result<(), ReplError> {
    let state = router.state();
    let (Some(repl), Some(journal)) = (state.repl.as_deref(), state.journal.as_ref()) else {
        return Ok(()); // replication not configured; drop the connection
    };
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut writer = BufWriter::new(stream.try_clone()?);

    let follower_epoch = match read_message(&mut &stream)? {
        Message::Hello { epoch, .. } => epoch,
        other => {
            return Err(ReplError::Frame {
                reason: format!("expected Hello, got {other:?}"),
            })
        }
    };
    let local_epoch = journal.store().epoch();
    if repl.role() != Role::Primary {
        write_message(
            &mut writer,
            &Message::Reject {
                reason: format!("not a primary (role is {})", repl.role().label()),
            },
        )?;
        writer.flush()?;
        return Ok(());
    }
    if state.storage.is_degraded() {
        // A degraded primary cannot journal new writes, so it must not
        // keep followers warm either: refusing the stream silences its
        // heartbeats and lets the followers' failure detector promote
        // past it.
        write_message(
            &mut writer,
            &Message::Reject {
                reason: "storage degraded: not shipping".to_string(),
            },
        )?;
        writer.flush()?;
        return Ok(());
    }
    if follower_epoch > local_epoch {
        // The connecting node has seen a newer epoch than ours: *we*
        // are the deposed primary. Adopt the higher epoch durably and
        // demote — a fenced leader must not keep taking writes — then
        // refuse to ship anything.
        if let Ok(true) = repl.follow(journal, follower_epoch, None) {
            eprintln!(
                "[mine-repl] observed epoch {follower_epoch} ahead of local \
                 {local_epoch}: demoted to follower"
            );
        }
        write_message(
            &mut writer,
            &Message::Reject {
                reason: format!(
                    "stale leader: your epoch {follower_epoch} is ahead of our {local_epoch}"
                ),
            },
        )?;
        writer.flush()?;
        return Ok(());
    }
    write_message(
        &mut writer,
        &Message::Welcome {
            epoch: local_epoch,
            advertise: repl.advertise(),
        },
    )?;
    writer.flush()?;

    // Bootstrap: the image capture and the hub registration happen
    // under the same exclusive gate, so no record journaled after the
    // capture can miss this follower's queue — the stream continues at
    // exactly `last_seq + 1`.
    let (image, receiver, id) = {
        let _gate = journal.gate_write();
        let payload = capture_image(state, 0)?.0.into_bytes();
        let last_seq = journal.store().next_seq() - 1;
        let (sender, receiver) = channel::unbounded::<Vec<u8>>();
        let id = repl.hub().register(sender, last_seq);
        (Message::Snapshot { last_seq, payload }, receiver, id)
    };
    let outcome = ship(router, &stream, &mut writer, &receiver, id, image);
    repl.hub().deregister(id);
    outcome
}

/// The shipping loop body of one follower connection: writes the
/// bootstrap image, then drains the hub queue (heartbeating when idle)
/// while a companion thread folds in the follower's acks. An image too
/// large to encode ends the connection before anything is sent.
fn ship(
    router: &Router,
    stream: &TcpStream,
    writer: &mut BufWriter<TcpStream>,
    receiver: &channel::Receiver<Vec<u8>>,
    id: u64,
    image: Message,
) -> Result<(), ReplError> {
    let state = router.state();
    let repl = state.repl.as_ref().expect("checked by caller");
    let journal = state.journal.as_ref().expect("checked by caller");
    // The store's fault plan drives the network seam too: one seeded
    // spec, one holder.
    let plan = journal.store().fault_plan();
    let plan = plan.as_deref();
    faulty_write(plan, writer, &image.encode()?)?;
    drop(image); // shipped: not held for the life of the connection

    // Ack reader: folds the follower's cumulative acks into the hub's
    // bookkeeping so quorum waits can observe them.
    let ack_thread = {
        let mut reader = FrameReader::new(BufReader::new(stream.try_clone()?));
        let repl = Arc::clone(repl);
        let done = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&done);
        let handle = std::thread::spawn(move || loop {
            match reader.poll() {
                Ok(Some(Message::Ack { seq })) => repl.hub().ack(id, seq),
                Ok(Some(_)) => {} // followers only send acks; ignore noise
                Ok(None) if flag.load(Ordering::Acquire) => break,
                Ok(None) => {}
                Err(_) => break, // socket gone; writer will notice too
            }
        });
        (handle, done)
    };

    let result = loop {
        if repl.role() != Role::Primary {
            break Ok(()); // deposed mid-stream: stop shipping
        }
        if state.storage.is_degraded() {
            // Stop heartbeating the moment the WAL refuses writes: to
            // the followers' failure detector a degraded primary is a
            // failed primary, and silence is what makes them promote.
            break Ok(());
        }
        let frame = match receiver.recv_timeout(HEARTBEAT_INTERVAL) {
            Ok(frame) => frame,
            Err(channel::RecvTimeoutError::Timeout) => Message::Heartbeat {
                epoch: journal.store().epoch(),
                head_seq: journal.store().next_seq() - 1,
            }
            .encode()
            .expect("a heartbeat has a fixed size"),
            Err(channel::RecvTimeoutError::Disconnected) => break Ok(()),
        };
        if let Err(err) = faulty_write(plan, writer, &frame) {
            break Err(ReplError::Io(err));
        }
    };
    ack_thread.1.store(true, Ordering::Release);
    let _ = stream.shutdown(std::net::Shutdown::Both);
    let _ = ack_thread.0.join();
    result
}

/// Sends one pre-encoded frame through the fault plan's network seam.
/// With no plan this is a plain write+flush; with one, the frame can be
/// silently dropped, duplicated, delayed, or turned into an I/O error —
/// always deterministically for a given seed and frame count.
fn faulty_write(
    plan: Option<&FaultPlan>,
    writer: &mut BufWriter<TcpStream>,
    frame: &[u8],
) -> std::io::Result<()> {
    let Some(plan) = plan else {
        writer.write_all(frame)?;
        return writer.flush();
    };
    match plan.net_action() {
        NetAction::Deliver => {}
        NetAction::Drop => return Ok(()),
        NetAction::DeliverTwice => writer.write_all(frame)?,
        NetAction::DelayThenDeliver(by) => std::thread::sleep(by),
        NetAction::Fail => {
            return Err(std::io::Error::other(
                "injected network fault (partition window)",
            ))
        }
    }
    writer.write_all(frame)?;
    writer.flush()
}

/// A running follower puller.
#[derive(Debug)]
pub struct FollowerPuller {
    handle: Option<JoinHandle<()>>,
}

impl FollowerPuller {
    /// Waits for the puller thread to exit (call
    /// [`ReplState::stop_puller`] first; the thread polls the flag at
    /// least every `SOCKET_TIMEOUT`).
    pub fn join(mut self) {
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Starts the follower side: a background thread that connects to the
/// primary's replication listener at `primary_addr`, bootstraps, and
/// applies the live stream, reconnecting with exponential backoff and
/// full jitter until stopped. Each reconnect pause is sliced so the
/// failure detector (when armed) keeps running even while the leader's
/// socket refuses connections outright.
#[must_use]
pub fn start_follower(primary_addr: String, router: Router) -> FollowerPuller {
    let handle = std::thread::spawn(move || {
        let policy = RetryPolicy {
            max_attempts: u32::MAX,
            base: RECONNECT_BASE,
            cap: RECONNECT_CAP,
        };
        let mut rng = StdRng::seed_from_u64(u64::from(std::process::id()));
        let mut attempt: u32 = 0;
        {
            // Arm the silence clock: a follower that never reaches its
            // leader at all must still be able to suspect it.
            let repl = router.state().repl.as_deref().expect("repl configured");
            repl.note_leader_contact();
        }
        loop {
            {
                let repl = router.state().repl.as_deref().expect("repl configured");
                if repl.stopped() || repl.role() != Role::Follower {
                    return;
                }
            }
            let session_start = Instant::now();
            match follow_once(&primary_addr, &router) {
                Ok(()) => return, // deliberate stop
                Err(err) => {
                    let state = router.state();
                    let repl = state.repl.as_deref().expect("repl configured");
                    if repl.stopped() || repl.role() != Role::Follower {
                        return;
                    }
                    state.metrics.repl_reconnects_total.inc();
                    eprintln!("[mine-repl] follower: {err}; reconnecting");
                    if session_start.elapsed() > SOCKET_TIMEOUT {
                        // The session lived long enough to have streamed:
                        // this is a fresh outage, not the same one — start
                        // the backoff ladder over.
                        attempt = 0;
                    }
                }
            }
            let delay = backoff_delay(&policy, attempt, &mut rng);
            attempt = attempt.saturating_add(1);
            // Sleep in slices so suspicion (and stop flags) are checked
            // even while the leader's address is unreachable.
            let deadline = Instant::now() + delay;
            loop {
                maybe_auto_promote(&router);
                {
                    let repl = router.state().repl.as_deref().expect("repl configured");
                    if repl.stopped() || repl.role() != Role::Follower {
                        return;
                    }
                }
                let remaining = deadline.saturating_duration_since(Instant::now());
                if remaining.is_zero() {
                    break;
                }
                std::thread::sleep(remaining.min(Duration::from_millis(100)));
            }
        }
    });
    FollowerPuller {
        handle: Some(handle),
    }
}

/// One full follower session: handshake, bootstrap, live stream. An
/// `Ok` return means the puller was told to stop; any error means
/// "reconnect after backoff".
fn follow_once(primary_addr: &str, router: &Router) -> Result<(), ReplError> {
    let state = router.state();
    let repl = state.repl.as_deref().expect("repl configured");
    let journal = state.journal.as_ref().expect("follower has a journal");
    let store = journal.store();

    let stream = connect_timeout(primary_addr, SOCKET_TIMEOUT)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(SOCKET_TIMEOUT))?;
    stream.set_write_timeout(Some(SOCKET_TIMEOUT))?;
    let mut reader = FrameReader::new(BufReader::new(stream.try_clone()?));
    let mut writer = BufWriter::new(stream);

    write_message(
        &mut writer,
        &Message::Hello {
            epoch: store.epoch(),
            last_applied: store.next_seq() - 1,
        },
    )?;
    writer.flush()?;

    let leader_epoch = match read_and_poll(&mut reader, router, false)? {
        Some(Message::Welcome { epoch, advertise }) => {
            let local = store.epoch();
            if epoch < local {
                // A deposed primary is still answering its old port.
                return Err(ReplError::StaleEpoch {
                    remote: epoch,
                    local,
                });
            }
            // A newer epoch means a legitimate failover happened while
            // we were away: adopt it durably. This is also how a
            // deposed primary restarted with `--replica-of` demotes
            // itself.
            repl.follow(journal, epoch, Some(advertise).filter(|a| !a.is_empty()))?;
            epoch
        }
        Some(Message::Reject { reason }) => return Err(ReplError::Rejected { reason }),
        Some(other) => {
            return Err(ReplError::Frame {
                reason: format!("expected Welcome, got {other:?}"),
            })
        }
        None => return Ok(()), // stopped while waiting
    };

    let Some(Message::Snapshot { last_seq, payload }) = read_and_poll(&mut reader, router, false)?
    else {
        return Err(ReplError::Frame {
            reason: "expected a bootstrap Snapshot".to_string(),
        });
    };
    journal.install_image(state, &Snapshot { last_seq, payload })?;
    write_message(&mut writer, &Message::Ack { seq: last_seq })?;
    writer.flush()?;
    repl.set_leader_head(last_seq.max(repl.leader_head()));
    // The bootstrap replaced the whole local log with the leader's
    // authoritative image, and the install credited the repair.
    repl.resync_complete();

    let mut cursor = StreamCursor::new(leader_epoch, last_seq + 1);
    loop {
        let Some(message) = read_and_poll(&mut reader, router, true)? else {
            return Ok(()); // stopped
        };
        match message {
            Message::Record { seq, payload } => {
                // Promotion fencing: the instant our durable epoch moves
                // past the stream's, this stream is a deposed leader's.
                let local = store.epoch();
                if local > cursor.epoch() {
                    return Err(ReplError::StaleEpoch {
                        remote: cursor.epoch(),
                        local,
                    });
                }
                cursor.admit(seq)?;
                {
                    let _gate = journal.gate_read();
                    // The primary's bytes as they are: this log, and any
                    // replay of it, is identical to the primary's.
                    let local_seq = store.append(&payload)?;
                    if local_seq != seq {
                        return Err(ReplError::Frame {
                            reason: format!(
                                "local log diverged: appended seq {local_seq}, stream said {seq}"
                            ),
                        });
                    }
                    let event: SessionEvent =
                        decode_payload(&payload, format_args!("record seq {seq}"))
                            .map_err(|reason| ReplError::Frame { reason })?;
                    // Deterministic rejections replay identically on
                    // every replica; nothing to do with the note.
                    let _note = state.replay(&event);
                    journal.mark_applied(seq);
                }
                write_message(&mut writer, &Message::Ack { seq })?;
                writer.flush()?;
                repl.set_leader_head(seq.max(repl.leader_head()));
                router.maybe_compact();
            }
            Message::Heartbeat { epoch, head_seq } => {
                cursor.accept_epoch(epoch)?;
                repl.follow(journal, epoch, None)?;
                repl.set_leader_head(head_seq);
            }
            other => {
                return Err(ReplError::Frame {
                    reason: format!("unexpected message mid-stream: {other:?}"),
                })
            }
        }
    }
}

/// Reads one message, treating socket timeouts as stop-flag polls and
/// failure-detector ticks. Every received frame — snapshot, record,
/// heartbeat — counts as leader contact; every timeout lets the
/// detector decide whether the leader has been silent too long (which
/// covers the half-open case: a connection that stays up but carries
/// nothing). Returns `None` when the puller was told to stop.
///
/// When `interruptible` (the live record loop, not the handshake), a
/// pending resync request breaks the stream with an error so the
/// reconnect path re-bootstraps from the leader's snapshot.
fn read_and_poll(
    reader: &mut FrameReader<BufReader<TcpStream>>,
    router: &Router,
    interruptible: bool,
) -> Result<Option<Message>, ReplError> {
    let state = router.state();
    let repl = state.repl.as_deref().expect("repl configured");
    loop {
        if repl.stopped() || repl.role() != Role::Follower {
            return Ok(None);
        }
        if interruptible && repl.resync_requested() {
            return Err(ReplError::Frame {
                reason: "resync requested: re-bootstrapping to repair quarantined segments"
                    .to_string(),
            });
        }
        // A timeout mid-frame keeps the bytes read so far: the next
        // poll continues the same frame.
        if let Some(message) = reader.poll()? {
            repl.note_leader_contact();
            return Ok(Some(message));
        }
        maybe_auto_promote(router);
    }
}

/// One failure-detector tick: when the detector is armed and the leader
/// has been silent past the jittered timeout, survey the peers and —
/// if no live primary exists and no better-positioned follower does
/// either — promote through the same epoch-fenced path as
/// `mine promote`, then ask the peers to stand down behind the new
/// epoch.
///
/// Succession is deterministic: the candidate with the highest
/// `last_applied_seq` wins, ties broken by the lexicographically
/// greatest advertised address. A peer that cannot be reached cannot
/// veto the promotion — it is assumed dead, exactly like the leader.
fn maybe_auto_promote(router: &Router) {
    let state = router.state();
    let (Some(repl), Some(journal)) = (state.repl.as_deref(), state.journal.as_ref()) else {
        return;
    };
    if repl.stopped() || repl.role() != Role::Follower {
        return;
    }
    let Some(config) = repl.failover() else {
        return;
    };
    let Some(age) = repl.leader_contact_age() else {
        return;
    };
    if age < repl.effective_failover_timeout(&config) {
        return;
    }
    if state.storage.is_degraded() {
        // A node whose own WAL refuses writes must never promote
        // itself: it could not journal a single write as leader.
        return;
    }
    state.metrics.repl_suspicions_total.inc();
    let our_seq = journal.store().next_seq() - 1;
    let our_id = repl.advertise();
    for peer in &config.peers {
        let Some(probe) = probe_peer(peer) else {
            continue; // unreachable peers cannot veto
        };
        if probe.role == "primary" {
            if probe.storage_degraded || probe.epoch < journal.store().epoch() {
                // A degraded primary is a failed primary to the
                // detector: it is shedding writes and not shipping, so
                // it neither counts as live leadership nor vetoes the
                // succession — promote past it. One behind our epoch
                // was deposed and is passed over the same way.
                continue;
            }
            // A live primary exists (we were partitioned from it, or a
            // sibling already won): adopt it and its epoch, which
            // re-arms the detector.
            if let Err(err) = repl.follow(journal, probe.epoch, Some(peer.clone())) {
                eprintln!(
                    "[mine-repl] adopting {peer} at epoch {}: {err}",
                    probe.epoch
                );
            }
            return;
        }
        if (probe.last_applied_seq, peer.as_str()) > (our_seq, our_id.as_str()) {
            // A better-positioned candidate will get there; give the
            // detector another full timeout before re-surveying.
            repl.note_leader_contact();
            return;
        }
    }
    match repl.promote(journal) {
        Ok(Some(epoch)) => {
            state.metrics.repl_failovers_total.inc();
            eprintln!(
                "[mine-repl] leader silent for {}ms: promoted to primary at epoch {epoch}",
                age.as_millis()
            );
            for peer in &config.peers {
                demote_peer(peer, epoch, &our_id);
            }
        }
        Ok(None) => {}
        Err(err) => {
            eprintln!("[mine-repl] auto-failover promotion failed: epoch bump failed: {err}");
        }
    }
}

/// What one `/healthz` probe of a peer reported.
#[derive(Debug, Clone, PartialEq, Eq)]
struct PeerProbe {
    role: String,
    epoch: u64,
    last_applied_seq: u64,
    /// Whether the peer's WAL is refusing writes (serving degraded
    /// read-only). Absent in the body — old peers — reads as healthy.
    storage_degraded: bool,
}

/// Asks a peer's `/healthz` for its role, epoch, applied position, and
/// storage health. `None` when the peer is unreachable or answers
/// nonsense.
fn probe_peer(addr: &str) -> Option<PeerProbe> {
    let mut client = HttpClient::with_timeout(addr, PROBE_TIMEOUT).ok()?;
    let response = client.get("/healthz").ok()?;
    let body: Value = response.json().ok()?;
    let role = body.get("role").and_then(Value::as_str)?.to_string();
    let number = |field: &str| match body.get(field) {
        Some(Value::Number(Number::PosInt(n))) => Some(*n),
        _ => None,
    };
    let epoch = number("epoch")?;
    let last_applied_seq = number("last_applied_seq")?;
    let storage_degraded = body
        .get("storage")
        .and_then(Value::as_str)
        .is_some_and(|storage| storage == "degraded");
    Some(PeerProbe {
        role,
        epoch,
        last_applied_seq,
        storage_degraded,
    })
}

/// Best-effort notification that a new epoch has a leader: tells `peer`
/// to fence itself behind `epoch` and redirect writers to `leader`.
/// Failures are fine — a dead or partitioned peer learns the same thing
/// from the `Hello`/`Welcome` epoch exchange when it comes back.
fn demote_peer(peer: &str, epoch: u64, leader: &str) {
    let Ok(mut client) = HttpClient::with_timeout(peer, PROBE_TIMEOUT) else {
        return;
    };
    let body = object_body(|body| {
        body.field("epoch", &epoch);
        body.field("leader", leader);
    });
    let _ = client.post("/admin/demote", &body);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn role_gauges_round_trip() {
        for role in [Role::Primary, Role::Follower, Role::Candidate] {
            assert_eq!(Role::from_gauge(role.gauge()), role);
        }
        assert_eq!(Role::Primary.label(), "primary");
        assert_eq!(Role::Follower.label(), "follower");
        assert_eq!(Role::Candidate.label(), "candidate");
    }

    #[test]
    fn ack_mode_parses_cli_spellings() {
        assert_eq!(AckMode::parse("leader").unwrap(), AckMode::Leader);
        assert_eq!(AckMode::parse("quorum").unwrap(), AckMode::Quorum);
        assert_eq!(AckMode::parse("ack=quorum").unwrap(), AckMode::Quorum);
        assert_eq!(AckMode::parse("ack=leader").unwrap(), AckMode::Leader);
        assert!(AckMode::parse("ack=all").is_err());
    }

    #[test]
    fn hub_tracks_registration_acks_and_quorum() {
        let hub = Hub::default();
        assert_eq!(hub.count(), 0);
        assert_eq!(hub.min_acked(), None);
        // A quorum wait with no followers returns immediately.
        assert!(!hub.wait_for_ack(5, Duration::from_secs(5)));

        let (sender, receiver) = channel::unbounded();
        let id = hub.register(sender, 10);
        assert_eq!(hub.count(), 1);
        assert_eq!(hub.min_acked(), Some(10));
        assert!(hub.wait_for_ack(10, Duration::from_millis(10)));
        assert!(!hub.wait_for_ack(11, Duration::from_millis(10)));

        hub.publish(b"frame");
        assert_eq!(receiver.try_recv().unwrap(), b"frame".to_vec());

        hub.ack(id, 11);
        hub.ack(id, 3); // acks are cumulative: a stale one moves nothing
        assert!(hub.wait_for_ack(11, Duration::from_millis(10)));

        hub.deregister(id);
        assert_eq!(hub.count(), 0);
        // A dropped receiver prunes its sender on the next publish.
        let (sender, receiver) = channel::unbounded();
        hub.register(sender, 0);
        drop(receiver);
        hub.publish(b"gone");
        assert_eq!(hub.count(), 0);
    }

    #[test]
    fn an_ack_racing_the_quorum_wait_wakes_the_waiter() {
        const ROUNDS: u64 = 2_000;
        const TIMEOUT: Duration = Duration::from_millis(500);
        const DONE: u64 = u64::MAX;
        let hub = Arc::new(Hub::default());
        let (sender, _receiver) = channel::unbounded();
        let id = hub.register(sender, 0);
        // The acker spins on the round number and acks each round after
        // a delay that sweeps a few microseconds, so across the rounds
        // its ack lands before, inside and after the waiter's
        // check-then-sleep.
        let round = Arc::new(AtomicU64::new(0));
        let acker = {
            let hub = Arc::clone(&hub);
            let round = Arc::clone(&round);
            std::thread::spawn(move || {
                let mut last = 0;
                loop {
                    let seq = round.load(Ordering::Acquire);
                    if seq == DONE {
                        return;
                    }
                    if seq > last {
                        for _ in 0..seq % 512 {
                            std::hint::spin_loop();
                        }
                        hub.ack(id, seq);
                        last = seq;
                    }
                    std::hint::spin_loop();
                }
            })
        };
        let mut stalls = 0;
        for seq in 1..=ROUNDS {
            round.store(seq, Ordering::Release);
            let started = Instant::now();
            assert!(hub.wait_for_ack(seq, TIMEOUT), "round {seq} timed out");
            if started.elapsed() >= TIMEOUT / 2 {
                stalls += 1;
            }
        }
        round.store(DONE, Ordering::Release);
        acker.join().unwrap();
        assert_eq!(
            stalls, 0,
            "{stalls} of {ROUNDS} waits slept through their ack"
        );
    }

    #[test]
    fn repl_state_defaults_and_transitions() {
        let repl = ReplState::new(Role::Follower, AckMode::Leader);
        assert_eq!(repl.role(), Role::Follower);
        assert_eq!(repl.leader_addr(), None);
        assert!(!repl.stopped());
        repl.set_leader_addr("127.0.0.1:7400".to_string());
        assert_eq!(repl.leader_addr().as_deref(), Some("127.0.0.1:7400"));
        repl.set_role(Role::Candidate);
        assert_eq!(repl.role(), Role::Candidate);
        repl.stop_puller();
        assert!(repl.stopped());
        repl.set_leader_head(42);
        assert_eq!(repl.leader_head(), 42);
    }

    #[test]
    fn leader_contact_clock_starts_unset_and_measures_silence() {
        let repl = ReplState::new(Role::Follower, AckMode::Leader);
        assert_eq!(repl.leader_contact_age(), None);
        repl.note_leader_contact();
        let age = repl.leader_contact_age().expect("contact noted");
        assert!(age < Duration::from_secs(5), "{age:?}");
    }

    #[test]
    fn failover_config_is_stored_and_cloned_out() {
        let repl = ReplState::new(Role::Follower, AckMode::Leader);
        assert_eq!(repl.failover(), None);
        let config = FailoverConfig {
            timeout: Duration::from_millis(1_500),
            peers: vec!["127.0.0.1:7400".to_string(), "127.0.0.1:7401".to_string()],
        };
        repl.set_auto_failover(config.clone());
        assert_eq!(repl.failover(), Some(config));
    }

    #[test]
    fn effective_failover_timeout_is_jittered_deterministically_per_node() {
        let config = FailoverConfig {
            timeout: Duration::from_millis(2_000),
            peers: Vec::new(),
        };
        let node = |addr: &str| {
            let repl = ReplState::new(Role::Follower, AckMode::Leader);
            repl.set_advertise(addr.to_string());
            repl
        };
        let a1 = node("127.0.0.1:7400").effective_failover_timeout(&config);
        let a2 = node("127.0.0.1:7400").effective_failover_timeout(&config);
        // Deterministic per node id: the same address always draws the
        // same jitter, so a seeded scenario replays identically.
        assert_eq!(a1, a2);
        // Bounded: base ≤ effective ≤ base + 25%.
        assert!(a1 >= config.timeout, "{a1:?}");
        assert!(a1 <= config.timeout + Duration::from_millis(500), "{a1:?}");
        // Different nodes (usually) draw different jitter; at minimum
        // the jitter never exceeds its window for any of them.
        for port in 7400..7420 {
            let t = node(&format!("127.0.0.1:{port}")).effective_failover_timeout(&config);
            assert!(t >= config.timeout && t <= config.timeout + Duration::from_millis(500));
        }
    }

    #[test]
    fn probe_peer_returns_none_for_unreachable_or_non_json_peers() {
        // Unreachable: nothing listens on this freshly-released port.
        let released = {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.local_addr().unwrap().to_string()
        };
        assert_eq!(probe_peer(&released), None);
    }
}
