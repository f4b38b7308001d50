//! The TCP face of the service: a loopback `std::net::TcpListener`, an
//! acceptor thread, and a fixed pool of worker threads.
//!
//! No async runtime is available in the sanctioned dependency set, so
//! concurrency is plain threads: the acceptor pushes accepted
//! connections into a crossbeam channel and each worker drains it,
//! serving one keep-alive connection at a time.
//!
//! The acceptor is also the admission-control edge (see
//! [`crate::overload`]): connections past the configured queue depth,
//! or past a peer's token bucket, are turned away immediately with
//! `503 + Retry-After` — before any request byte is read, so nothing is
//! ever shed mid-session. Admitted connections run under deadlines: an
//! idle timeout between requests, a header+body read budget per request
//! (which defeats slow-loris and byte-dribbling clients), and a write
//! timeout, so no client can pin a worker forever.

use std::io::{BufReader, BufWriter, Read};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crossbeam::channel;

use crate::drain::{pause_and_snapshot, DrainReport, DrainState};
use crate::http::{parse_request_with, ParseLimits, Response};
use crate::overload::{self, OverloadOptions, PeerLimiter};
use crate::router::{Router, SHED_RETRY_SECS};

/// How the server is run.
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Bind address, e.g. `127.0.0.1:7400` (port 0 picks a free port).
    pub addr: String,
    /// Worker threads; `0` auto-detects from the CPU count.
    pub threads: usize,
    /// Idle timeout between requests on a keep-alive connection.
    pub read_timeout: Duration,
    /// Per-connection write timeout.
    pub write_timeout: Duration,
    /// Wall-clock budget for reading one full request (head + body),
    /// armed at its first byte. A client dribbling bytes slower than
    /// this is answered `408` and disconnected.
    pub request_budget: Duration,
    /// Size caps on the request head and body.
    pub limits: ParseLimits,
    /// Admission control: accept-queue depth, per-peer rate limit, shed
    /// `Retry-After`.
    pub overload: OverloadOptions,
}

impl Default for ServeOptions {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            threads: 0,
            read_timeout: Duration::from_secs(5),
            write_timeout: Duration::from_secs(5),
            request_budget: Duration::from_secs(10),
            limits: ParseLimits::default(),
            overload: OverloadOptions::default(),
        }
    }
}

/// Per-connection knobs, copied out of [`ServeOptions`] for the
/// workers.
#[derive(Debug, Clone, Copy)]
struct ConnOptions {
    idle_timeout: Duration,
    write_timeout: Duration,
    request_budget: Duration,
    limits: ParseLimits,
}

/// A running server: worker pool + acceptor, stoppable from any thread.
#[derive(Debug)]
pub struct Server {
    local_addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    router: Router,
    acceptor: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Binds and starts serving in background threads, returning
    /// immediately.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the address cannot be bound.
    pub fn start(router: Router, options: &ServeOptions) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&options.addr)?;
        let local_addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let threads = if options.threads == 0 {
            std::thread::available_parallelism().map_or(4, |n| n.get().max(4))
        } else {
            options.threads
        };
        let conn_options = ConnOptions {
            idle_timeout: options.read_timeout,
            write_timeout: options.write_timeout,
            request_budget: options.request_budget,
            limits: options.limits,
        };

        let (sender, receiver) = channel::unbounded::<TcpStream>();
        let workers = (0..threads)
            .map(|_| {
                let receiver = receiver.clone();
                let router = router.clone();
                let shutdown = Arc::clone(&shutdown);
                std::thread::spawn(move || {
                    while !shutdown.load(Ordering::Acquire) {
                        match receiver.recv_timeout(Duration::from_millis(50)) {
                            Ok(stream) => {
                                router.state().metrics.queue_depth.dec();
                                serve_connection(&router, stream, &conn_options);
                            }
                            Err(_) => continue,
                        }
                    }
                })
            })
            .collect();

        let acceptor = {
            let shutdown = Arc::clone(&shutdown);
            let router = router.clone();
            // The queue bound and the rate limiter live in the single
            // acceptor thread: one clock reading per accept drives every
            // bucket, and single-producer depth accounting cannot
            // overshoot the cap.
            let mut limiter = options.overload.rate_limit.map(PeerLimiter::new);
            let queue_cap = options.overload.queue_depth.max(1) as u64;
            let write_timeout = options.write_timeout;
            let epoch = Instant::now();
            std::thread::spawn(move || {
                for stream in listener.incoming() {
                    if shutdown.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    let metrics = &router.state().metrics;
                    if let Some(limiter) = limiter.as_mut() {
                        let now = u64::try_from(epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
                        if let Ok(peer) = stream.peer_addr() {
                            if let Err(wait) = limiter.admit(peer.ip(), now) {
                                let secs = overload::retry_after_secs(wait);
                                metrics.rate_limited(secs);
                                shed_connection(stream, "rate limited", secs, write_timeout);
                                continue;
                            }
                        }
                    }
                    if metrics.queue_depth.get() >= queue_cap {
                        metrics.shed(SHED_RETRY_SECS);
                        shed_connection(stream, "over capacity", SHED_RETRY_SECS, write_timeout);
                        continue;
                    }
                    metrics.queue_depth.inc();
                    // A send only fails when every worker has gone,
                    // which only happens at shutdown.
                    if sender.send(stream).is_err() {
                        metrics.queue_depth.dec();
                        break;
                    }
                }
            })
        };

        Ok(Self {
            local_addr,
            shutdown,
            router,
            acceptor: Some(acceptor),
            workers,
        })
    }

    /// The bound address (useful with port 0).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// The router this server serves (state access for drain and
    /// tests).
    #[must_use]
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// Flips the service into drain mode: `/healthz` answers
    /// `503 {"status":"draining"}`, every other route is shed with
    /// `503 + Retry-After`, in-flight requests run to completion, and
    /// workers close keep-alive connections after their current
    /// exchange. The listener keeps accepting so load balancers can
    /// still observe `/healthz` and `/metrics`.
    ///
    /// Idempotent; called from a signal handler's watcher thread or a
    /// test.
    pub fn begin_drain(&self) {
        let state = self.router.state();
        state.lifecycle.begin_drain();
        state
            .metrics
            .drain_state
            .set(DrainState::Draining.as_gauge());
    }

    /// Drains and stops the server: begins drain, waits up to
    /// `deadline` for in-flight requests and queued connections to
    /// finish, pauses every still-active session through the journaled
    /// `Paused` event, writes a final snapshot, and joins every thread.
    ///
    /// `drained_cleanly` in the report says whether the deadline was
    /// met; the pause + snapshot are consistent either way (they run
    /// under the journal's exclusive write gate — see [`crate::drain`]).
    #[must_use]
    pub fn drain(self, deadline: Duration) -> DrainReport {
        self.begin_drain();
        let state = self.router.state();
        let started = Instant::now();
        let drained_cleanly = loop {
            if state.metrics.inflight_requests.get() == 0 && state.metrics.queue_depth.get() == 0 {
                break true;
            }
            if started.elapsed() >= deadline {
                break false;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        let mut report = pause_and_snapshot(state);
        report.drained_cleanly = drained_cleanly;
        state.lifecycle.mark_stopped();
        state
            .metrics
            .drain_state
            .set(DrainState::Stopped.as_gauge());
        self.shutdown();
        report
    }

    /// Signals shutdown and joins every thread.
    pub fn shutdown(mut self) {
        self.shutdown.store(true, Ordering::Release);
        // Unblock the acceptor's blocking accept with a throwaway
        // connection to ourselves.
        let _ = TcpStream::connect(self.local_addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }

    /// Blocks until the acceptor exits (i.e. until shutdown or a fatal
    /// listener error). Used by `mine serve`.
    pub fn join(mut self) {
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Answers a connection the acceptor refused to admit: `503 +
/// Retry-After`, then close. No request byte is read, upholding the
/// shed-at-the-edge invariant.
fn shed_connection(
    stream: TcpStream,
    reason: &str,
    retry_after_secs: u64,
    write_timeout: Duration,
) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(write_timeout));
    let _ = Response::shed(reason, retry_after_secs).write_to(&stream, false);
    let _ = stream.shutdown(std::net::Shutdown::Both);
}

/// A [`Read`] over a [`TcpStream`] that enforces the per-request read
/// budget: the deadline arms at the first byte of a request and every
/// subsequent socket read gets `min(remaining budget, idle timeout)` as
/// its timeout, so a byte-dribbling client is cut off deterministically
/// instead of resetting the idle timer with each byte.
#[derive(Debug)]
struct BudgetReader {
    stream: TcpStream,
    idle_timeout: Duration,
    budget: Duration,
    /// Armed at the first byte of the request being read; `None` while
    /// idle between requests.
    deadline: Option<Instant>,
}

impl BudgetReader {
    fn new(stream: TcpStream, idle_timeout: Duration, budget: Duration) -> Self {
        let _ = stream.set_read_timeout(Some(idle_timeout));
        Self {
            stream,
            idle_timeout,
            budget,
            deadline: None,
        }
    }

    /// Resets for the next request on the keep-alive connection: fresh
    /// budget, idle timeout back on the socket.
    fn rearm(&mut self) {
        if self.deadline.take().is_some() {
            let _ = self.stream.set_read_timeout(Some(self.idle_timeout));
        }
    }
}

impl Read for BudgetReader {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        if let Some(deadline) = self.deadline {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Err(std::io::ErrorKind::TimedOut.into());
            }
            let _ = self
                .stream
                .set_read_timeout(Some(remaining.min(self.idle_timeout)));
        }
        let n = self.stream.read(buf)?;
        if self.deadline.is_none() && n > 0 {
            self.deadline = Some(Instant::now() + self.budget);
        }
        Ok(n)
    }
}

/// Serves one keep-alive connection until close, error, or timeout.
fn serve_connection(router: &Router, stream: TcpStream, options: &ConnOptions) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_write_timeout(Some(options.write_timeout));
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(BudgetReader::new(
        stream,
        options.idle_timeout,
        options.request_budget,
    ));
    let mut writer = BufWriter::new(write_half);
    let state = router.state();
    loop {
        reader.get_mut().rearm();
        match parse_request_with(&mut reader, &options.limits) {
            Ok(Some(request)) => {
                // Draining closes the connection after this exchange so
                // the worker frees up; the in-flight request itself
                // always completes.
                let keep_alive = !request.wants_close() && !state.lifecycle.is_draining();
                state.metrics.inflight_requests.inc();
                let response = router.handle(&request);
                let written = response.write_to(&mut writer, keep_alive);
                state.metrics.inflight_requests.dec();
                if written.is_err() || !keep_alive {
                    return;
                }
            }
            Ok(None) => return, // clean close
            Err(parse_error) => {
                // 400/408/413 are answered properly before closing —
                // never a silent drop.
                let _ = Response::error(parse_error.status, &parse_error.message)
                    .write_to(&mut writer, false);
                return;
            }
        }
    }
}
