//! A tiny blocking HTTP/1.1 client over one keep-alive connection,
//! plus a resilient wrapper that retries with exponential backoff.
//!
//! Powers the load generator and the loopback integration tests; not a
//! general-purpose client (no redirects, no TLS, no chunked encoding —
//! none of which the service emits).
//!
//! [`ResilientClient`] is the overload-aware face: it reconnects after
//! transport failures, honors the `Retry-After` of shed `503`
//! responses, and backs off with full jitter between attempts. Retries
//! are safe-only: connects and `GET`s retry on anything, but a `POST`
//! retries **only** after a `503` — the server sheds exclusively before
//! request processing (at accept, at the rate limiter, or at the
//! routing gate while draining), so a `503` proves the request had no
//! effect. A `POST` that failed in transport may have been applied and
//! is surfaced as an error instead.

use std::io::{BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::Value;

use crate::http::{read_head_line, MAX_HEAD_BYTES};

/// A simple status + body pair.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClientResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// The `Retry-After` header (seconds), present on shed responses.
    pub retry_after: Option<u64>,
}

impl ClientResponse {
    /// Parses the body as a JSON value tree.
    ///
    /// # Errors
    ///
    /// Returns the `serde_json` error for non-JSON bodies.
    pub fn json(&self) -> Result<Value, serde_json::Error> {
        serde_json::from_str(&self.body)
    }
}

/// One keep-alive connection to the service.
#[derive(Debug)]
pub struct HttpClient {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

/// Default I/O timeout for [`HttpClient::connect`].
pub const DEFAULT_CLIENT_TIMEOUT: Duration = Duration::from_secs(30);

impl HttpClient {
    /// Connects to `addr` (e.g. `127.0.0.1:7400`) with the default
    /// 30-second I/O timeout.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the connection fails.
    pub fn connect(addr: &str) -> std::io::Result<Self> {
        Self::with_timeout(addr, DEFAULT_CLIENT_TIMEOUT)
    }

    /// Connects with an explicit timeout, applied to connection
    /// establishment and to both reads and writes — a host that
    /// blackholes SYNs (or a listener that never accepts) can stall the
    /// caller no longer than `timeout`, where a plain
    /// [`TcpStream::connect`] would sit in the OS default for minutes.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the connection fails or the
    /// timeout is rejected (zero is invalid).
    pub fn with_timeout(addr: &str, timeout: Duration) -> std::io::Result<Self> {
        let stream = connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let writer = stream.try_clone()?;
        Ok(Self {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends `GET path`.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] on transport failure or a response the
    /// client cannot parse.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.request("GET", path, None)
    }

    /// Sends `POST path` with a JSON body.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] on transport failure or a response the
    /// client cannot parse.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.request("POST", path, Some(body))
    }

    fn request(
        &mut self,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<ClientResponse> {
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: mine\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.writer.write_all(head.as_bytes())?;
        self.writer.write_all(body.as_bytes())?;
        self.writer.flush()?;
        self.read_response()
    }

    /// Reads one response. The head is capped at [`MAX_HEAD_BYTES`] like
    /// a request head, and the body buffer grows only with the bytes
    /// that actually arrive, so a peer's `content-length` alone cannot
    /// make the caller allocate.
    fn read_response(&mut self) -> std::io::Result<ClientResponse> {
        let status_line = self.head_line(0)?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|code| code.parse::<u16>().ok())
            .ok_or_else(|| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("bad status line {status_line:?}"),
                )
            })?;
        let mut head_bytes = status_line.len();
        let mut content_length = 0_u64;
        let mut retry_after = None;
        loop {
            let line = self.head_line(head_bytes)?;
            if line.is_empty() {
                break;
            }
            head_bytes += line.len();
            if let Some((name, value)) = line.split_once(':') {
                if name.trim().eq_ignore_ascii_case("content-length") {
                    content_length = value.trim().parse().map_err(|_| {
                        std::io::Error::new(std::io::ErrorKind::InvalidData, "bad content-length")
                    })?;
                } else if name.trim().eq_ignore_ascii_case("retry-after") {
                    retry_after = value.trim().parse().ok();
                }
            }
        }
        let mut body = Vec::new();
        (&mut self.reader)
            .take(content_length)
            .read_to_end(&mut body)?;
        if (body.len() as u64) < content_length {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-body",
            ));
        }
        let body = String::from_utf8(body)
            .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body"))?;
        Ok(ClientResponse {
            status,
            body,
            retry_after,
        })
    }

    /// One response head line, `already_read` head bytes in.
    fn head_line(&mut self, already_read: usize) -> std::io::Result<String> {
        match read_head_line(&mut self.reader, already_read, MAX_HEAD_BYTES) {
            Ok(Some(line)) => Ok(line),
            Ok(None) => Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            )),
            Err(err) => Err(err.into()),
        }
    }
}

/// Resolves `addr` and connects to the first address that answers
/// within `timeout` — a host that blackholes SYNs costs `timeout` per
/// address, not the OS default of minutes.
///
/// # Errors
///
/// Returns the last connect error, or `InvalidInput` when `addr`
/// resolves to nothing.
pub(crate) fn connect_timeout(addr: &str, timeout: Duration) -> std::io::Result<TcpStream> {
    let mut last = std::io::Error::new(
        std::io::ErrorKind::InvalidInput,
        format!("no addresses resolved for {addr}"),
    );
    for resolved in addr.to_socket_addrs()? {
        match TcpStream::connect_timeout(&resolved, timeout) {
            Ok(stream) => return Ok(stream),
            Err(err) => last = err,
        }
    }
    Err(last)
}

/// How [`ResilientClient`] retries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts, the first included (so `1` means no retries).
    pub max_attempts: u32,
    /// First backoff ceiling; doubles each attempt.
    pub base: Duration,
    /// Hard ceiling on any single sleep, backoff or `Retry-After`.
    pub cap: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base: Duration::from_millis(100),
            cap: Duration::from_secs(2),
        }
    }
}

/// Ceiling on leader moves (distinct `421` redirects) within one
/// logical request. During a failover two nodes can briefly *each*
/// believe the other is the leader; a client following every referral
/// would bounce between them burning its whole retry budget. Past this
/// many moves the chain is declared a loop and surfaced as a typed
/// error.
pub const MAX_LEADER_MOVES: u32 = 4;

/// The exponential-backoff-with-full-jitter delay before retry number
/// `attempt` (0-based): uniform over `[0, min(cap, base · 2^attempt)]`.
///
/// Full jitter decorrelates a thundering herd of shed clients: after a
/// mass 503, their retries spread over the whole window instead of
/// arriving in another synchronized wave.
#[must_use]
pub fn backoff_delay<R: Rng>(policy: &RetryPolicy, attempt: u32, rng: &mut R) -> Duration {
    let ceiling = policy
        .base
        .saturating_mul(2_u32.saturating_pow(attempt))
        .min(policy.cap);
    let micros = u64::try_from(ceiling.as_micros()).unwrap_or(u64::MAX);
    Duration::from_micros(rng.gen_range(0..=micros))
}

/// An [`HttpClient`] wrapper that reconnects and retries under the
/// safe-retry semantics described in the module docs, counting what it
/// saw so load reports can surface shed/retry totals.
#[derive(Debug)]
pub struct ResilientClient {
    addr: String,
    timeout: Duration,
    policy: RetryPolicy,
    rng: StdRng,
    conn: Option<HttpClient>,
    retries: u64,
    shed_seen: u64,
}

impl ResilientClient {
    /// A resilient client for `addr`; `seed` makes its jitter
    /// deterministic.
    #[must_use]
    pub fn new(addr: &str, policy: RetryPolicy, seed: u64) -> Self {
        Self::with_timeout(addr, DEFAULT_CLIENT_TIMEOUT, policy, seed)
    }

    /// [`ResilientClient::new`] with an explicit per-attempt I/O
    /// timeout.
    #[must_use]
    pub fn with_timeout(addr: &str, timeout: Duration, policy: RetryPolicy, seed: u64) -> Self {
        Self {
            addr: addr.to_string(),
            timeout,
            policy: RetryPolicy {
                max_attempts: policy.max_attempts.max(1),
                ..policy
            },
            rng: StdRng::seed_from_u64(seed),
            conn: None,
            retries: 0,
            shed_seen: 0,
        }
    }

    /// Retries performed so far (attempts beyond each request's first).
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// `503` responses observed so far (each one carried `Retry-After`).
    #[must_use]
    pub fn shed_seen(&self) -> u64 {
        self.shed_seen
    }

    /// The address requests currently go to. Starts at the constructor
    /// argument and moves when a `421` names a new leader.
    #[must_use]
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// `GET path`, retrying on transport failure or shed.
    ///
    /// # Errors
    ///
    /// Returns the final [`std::io::Error`] once attempts are
    /// exhausted.
    pub fn get(&mut self, path: &str) -> std::io::Result<ClientResponse> {
        self.send(path, None)
    }

    /// `POST path`, retrying only on shed (`503`) — a transport failure
    /// mid-`POST` may have been applied and is returned as an error.
    ///
    /// # Errors
    ///
    /// Returns the final [`std::io::Error`] once attempts are
    /// exhausted or a `POST` fails in transport.
    pub fn post(&mut self, path: &str, body: &str) -> std::io::Result<ClientResponse> {
        self.send(path, Some(body))
    }

    fn send(&mut self, path: &str, body: Option<&str>) -> std::io::Result<ClientResponse> {
        let mut outcome = Err(std::io::ErrorKind::NotConnected.into());
        let mut leader_moves: u32 = 0;
        for attempt in 0..self.policy.max_attempts {
            if attempt > 0 {
                self.retries += 1;
            }
            let client = match self.connected() {
                Ok(client) => client,
                Err(err) => {
                    // Nothing was sent; connecting again is always safe.
                    outcome = Err(err);
                    self.sleep_before_retry(attempt, None);
                    continue;
                }
            };
            match match body {
                Some(body) => client.post(path, body),
                None => client.get(path),
            } {
                Ok(response) if response.status == 503 => {
                    self.shed_seen += 1;
                    // Shed responses close the connection server-side.
                    self.conn = None;
                    let retry_after = response.retry_after;
                    outcome = Ok(response);
                    self.sleep_before_retry(attempt, retry_after);
                }
                Ok(response) if response.status == 421 => {
                    // Misdirected: a read replica named the leader. A
                    // 421 is sent *instead of* processing, so following
                    // it and resending is safe even for a POST.
                    self.conn = None;
                    let leader = response
                        .json()
                        .ok()
                        .and_then(|value| {
                            value
                                .get("leader")
                                .and_then(Value::as_str)
                                .map(str::to_string)
                        })
                        .filter(|leader| !leader.is_empty());
                    outcome = Ok(response);
                    match leader {
                        // The leader is known: go straight there, no
                        // backoff needed — unless the referrals have
                        // started to loop.
                        Some(leader) if leader != self.addr => {
                            leader_moves += 1;
                            if leader_moves > MAX_LEADER_MOVES {
                                return Err(std::io::Error::other(format!(
                                    "421 redirect loop: followed {MAX_LEADER_MOVES} leader \
                                     referrals and {leader} still redirects elsewhere"
                                )));
                            }
                            self.addr = leader;
                        }
                        // Pointed at ourselves or no leader yet
                        // (failover in progress): wait it out.
                        _ => self.sleep_before_retry(attempt, None),
                    }
                }
                Ok(response) => return Ok(response),
                Err(err) => {
                    self.conn = None;
                    if body.is_some() {
                        // A POST that died in transport may have been
                        // applied; retrying could double-submit.
                        return Err(err);
                    }
                    outcome = Err(err);
                    self.sleep_before_retry(attempt, None);
                }
            }
        }
        // Attempts exhausted: surface the last shed response (its 503
        // still tells the caller what happened) or the last error.
        outcome
    }

    fn connected(&mut self) -> std::io::Result<&mut HttpClient> {
        if self.conn.is_none() {
            self.conn = Some(HttpClient::with_timeout(&self.addr, self.timeout)?);
        }
        Ok(self.conn.as_mut().expect("just connected"))
    }

    /// Sleeps `Retry-After` (capped by the policy) when the server
    /// named a wait, a jittered backoff otherwise. No sleep after the
    /// final attempt.
    fn sleep_before_retry(&mut self, attempt: u32, retry_after_secs: Option<u64>) {
        if attempt + 1 >= self.policy.max_attempts {
            return;
        }
        let delay = match retry_after_secs {
            Some(secs) => Duration::from_secs(secs).min(self.policy.cap),
            None => backoff_delay(&self.policy, attempt, &mut self.rng),
        };
        std::thread::sleep(delay);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn backoff_ceiling_doubles_then_caps() {
        let policy = RetryPolicy {
            max_attempts: 10,
            base: Duration::from_millis(100),
            cap: Duration::from_millis(350),
        };
        let mut rng = StdRng::seed_from_u64(7);
        // Ceilings: 100ms, 200ms, then capped at 350ms forever.
        for _ in 0..200 {
            assert!(backoff_delay(&policy, 0, &mut rng) <= Duration::from_millis(100));
            assert!(backoff_delay(&policy, 1, &mut rng) <= Duration::from_millis(200));
            assert!(backoff_delay(&policy, 2, &mut rng) <= Duration::from_millis(350));
            assert!(backoff_delay(&policy, 31, &mut rng) <= Duration::from_millis(350));
        }
    }

    #[test]
    fn backoff_is_deterministic_per_seed() {
        let policy = RetryPolicy::default();
        let mut a = StdRng::seed_from_u64(42);
        let mut b = StdRng::seed_from_u64(42);
        for attempt in 0..8 {
            assert_eq!(
                backoff_delay(&policy, attempt, &mut a),
                backoff_delay(&policy, attempt, &mut b)
            );
        }
    }

    #[test]
    fn connect_timeout_bounds_a_non_accepting_listener() {
        // A listener that never accepts: once its kernel backlog is
        // full, further SYNs are dropped and only a timeout can end a
        // connect attempt. Before `connect_timeout` this sat in the OS
        // default (minutes); now it must return within the bound.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut parked = Vec::new();
        let mut saturated = false;
        for _ in 0..8192 {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(100)) {
                Ok(stream) => parked.push(stream),
                Err(_) => {
                    saturated = true;
                    break;
                }
            }
        }
        // (An exotic kernel backlog larger than the cap would leave
        // nothing to saturate; there is no timeout to regress then.)
        if !saturated {
            return;
        }
        let started = std::time::Instant::now();
        let result = HttpClient::with_timeout(&addr.to_string(), Duration::from_millis(250));
        assert!(result.is_err(), "connect into a full backlog succeeded");
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "connect attempt was not bounded: {:?}",
            started.elapsed()
        );
    }

    /// One canned exchange: accept a connection, read the request,
    /// write `response` verbatim, close.
    fn raw_one_shot_server(listener: std::net::TcpListener, response: Vec<u8>) {
        std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut buf = [0_u8; 4096];
            let _ = stream.read(&mut buf);
            let _ = stream.write_all(&response);
        });
    }

    /// One canned HTTP exchange answering with `status` and `body`.
    fn one_shot_server(listener: std::net::TcpListener, status_line: &'static str, body: String) {
        let response = format!(
            "HTTP/1.1 {status_line}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
            body.len()
        );
        raw_one_shot_server(listener, response.into_bytes());
    }

    /// The client's answer from a fake peer that sends `response`.
    fn get_from_fake_peer(response: Vec<u8>) -> std::io::Result<ClientResponse> {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        raw_one_shot_server(listener, response);
        HttpClient::with_timeout(&addr, Duration::from_secs(5))?.get("/healthz")
    }

    #[test]
    fn a_peers_content_length_does_not_size_the_allocation() {
        // A terabyte claimed, three bytes sent. Allocating the claimed
        // length up front aborts the whole process; the client must
        // instead read what arrives and report the short body.
        let err = get_from_fake_peer(
            b"HTTP/1.1 200 OK\r\ncontent-length: 1099511627776\r\n\r\nabc".to_vec(),
        )
        .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
    }

    #[test]
    fn an_over_long_response_head_line_is_refused() {
        let mut response = b"HTTP/1.1 200 OK\r\nx-filler: ".to_vec();
        response.resize(response.len() + 2 * MAX_HEAD_BYTES, b'a');
        response.extend_from_slice(b"\r\ncontent-length: 0\r\n\r\n");
        let err = get_from_fake_peer(response).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        assert!(err.to_string().contains("too large"), "{err}");
    }

    #[test]
    fn resilient_client_follows_421_to_the_leader() {
        let leader = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let leader_addr = leader.local_addr().unwrap().to_string();
        let follower = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let follower_addr = follower.local_addr().unwrap().to_string();
        one_shot_server(
            follower,
            "421 Misdirected Request",
            format!("{{\"error\":\"follower\",\"leader\":\"{leader_addr}\"}}"),
        );
        one_shot_server(leader, "200 OK", r#"{"ok":true}"#.to_string());

        let mut client = ResilientClient::with_timeout(
            &follower_addr,
            Duration::from_secs(5),
            RetryPolicy::default(),
            1,
        );
        // Safe even for a POST: the 421 was sent instead of processing.
        let response = client.post("/sessions", "{}").unwrap();
        assert_eq!(response.status, 200, "{}", response.body);
        assert_eq!(client.addr(), leader_addr);
    }

    /// A server that answers every connection with the same canned
    /// exchange until its listener is dropped.
    fn repeating_server(listener: std::net::TcpListener, status_line: &'static str, body: String) {
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                let mut buf = [0_u8; 4096];
                let _ = stream.read(&mut buf);
                let response = format!(
                    "HTTP/1.1 {status_line}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
                    body.len()
                );
                let _ = stream.write_all(response.as_bytes());
            }
        });
    }

    #[test]
    fn resilient_client_caps_a_421_redirect_loop() {
        // Two nodes, mid-failover, each convinced the *other* is the
        // leader: a client following every referral would ping-pong
        // forever (or burn its whole retry budget). The chain cap turns
        // that into a typed error after MAX_LEADER_MOVES hops.
        let a = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let a_addr = a.local_addr().unwrap().to_string();
        let b = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let b_addr = b.local_addr().unwrap().to_string();
        repeating_server(
            a,
            "421 Misdirected Request",
            format!("{{\"error\":\"not leader\",\"leader\":\"{b_addr}\"}}"),
        );
        repeating_server(
            b,
            "421 Misdirected Request",
            format!("{{\"error\":\"not leader\",\"leader\":\"{a_addr}\"}}"),
        );

        let mut client = ResilientClient::with_timeout(
            &a_addr,
            Duration::from_secs(5),
            RetryPolicy {
                // More attempts than the chain cap: the cap must fire
                // first, not attempt exhaustion.
                max_attempts: MAX_LEADER_MOVES + 8,
                base: Duration::from_millis(1),
                cap: Duration::from_millis(2),
            },
            1,
        );
        let err = client.post("/sessions", "{}").unwrap_err();
        assert!(
            err.to_string().contains("redirect loop"),
            "expected the typed loop error, got: {err}"
        );
    }

    proptest! {
        /// The backoff delay never exceeds the configured cap, for any
        /// attempt number (including ones whose 2^attempt overflows)
        /// and any jitter draw.
        #[test]
        fn backoff_never_exceeds_cap(
            attempt in any::<u32>(),
            seed in any::<u64>(),
            base_ms in 1_u64..5_000,
            cap_ms in 1_u64..10_000,
        ) {
            let policy = RetryPolicy {
                max_attempts: 4,
                base: Duration::from_millis(base_ms),
                cap: Duration::from_millis(cap_ms),
            };
            let mut rng = StdRng::seed_from_u64(seed);
            let delay = backoff_delay(&policy, attempt, &mut rng);
            prop_assert!(delay <= policy.cap);
        }
    }
}
