//! A minimal HTTP/1.1 message layer over `std::io`.
//!
//! The sanctioned dependency set has no HTTP stack (and no async
//! runtime), so this module implements the small slice of RFC 9112 the
//! delivery service needs: request parsing with `Content-Length`
//! bodies, response serialization, and keep-alive semantics. It is
//! deliberately transport-agnostic — [`parse_request`] reads from any
//! [`BufRead`] and [`Response::write_to`] writes to any [`Write`] — so
//! the router's unit tests never open a socket.

use std::io::{BufRead, Write};

use serde::{JsonWriter, ObjectWriter};

/// Upper bound on the request head (request line + headers).
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body.
pub const MAX_BODY_BYTES: usize = 1024 * 1024;

/// Size caps applied while reading one request. The defaults are the
/// crate constants; `ServeOptions` lets a deployment tighten the body
/// cap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseLimits {
    /// Cap on the request line + headers, in bytes.
    pub max_head_bytes: usize,
    /// Cap on the declared `Content-Length`, in bytes.
    pub max_body_bytes: usize,
}

impl Default for ParseLimits {
    fn default() -> Self {
        Self {
            max_head_bytes: MAX_HEAD_BYTES,
            max_body_bytes: MAX_BODY_BYTES,
        }
    }
}

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercased (`GET`, `POST`, …).
    pub method: String,
    /// Path component of the request target (query string stripped).
    pub path: String,
    /// Raw query string, when present (without the `?`).
    pub query: Option<String>,
    /// Header fields, names lowercased, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body.
    pub body: Vec<u8>,
}

impl Request {
    /// Convenience constructor for in-process handler tests.
    #[must_use]
    pub fn new(method: &str, path: &str, body: impl Into<Vec<u8>>) -> Self {
        let (path, query) = split_target(path);
        Self {
            method: method.to_ascii_uppercase(),
            path,
            query,
            headers: Vec::new(),
            body: body.into(),
        }
    }

    /// The first value of a header, by lowercase name.
    #[must_use]
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Whether the client asked to close the connection after this
    /// exchange (HTTP/1.1 defaults to keep-alive).
    #[must_use]
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }

    /// The body as UTF-8, when valid.
    #[must_use]
    pub fn body_str(&self) -> Option<&str> {
        std::str::from_utf8(&self.body).ok()
    }
}

/// An HTTP response ready to serialize.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code (200, 404, …).
    pub status: u16,
    /// Body text (JSON everywhere except the Prometheus `/metrics`
    /// rendering).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// When set, a `Retry-After` header (in seconds) is emitted — the
    /// contract of every shed response (503 under overload or drain).
    pub retry_after: Option<u64>,
}

impl Response {
    /// A JSON response with the given status.
    #[must_use]
    pub fn json(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "application/json",
            retry_after: None,
        }
    }

    /// A Prometheus text-exposition-format response (`GET /metrics`).
    #[must_use]
    pub fn prometheus(status: u16, body: String) -> Self {
        Self {
            status,
            body,
            content_type: "text/plain; version=0.0.4; charset=utf-8",
            retry_after: None,
        }
    }

    /// Attaches a `Retry-After` header (seconds).
    #[must_use]
    pub fn with_retry_after(mut self, secs: u64) -> Self {
        self.retry_after = Some(secs);
        self
    }

    /// The body of every error response: `{"error":"…"}`.
    #[must_use]
    pub fn error(status: u16, message: &str) -> Self {
        Self::json(status, object_body(|body| body.field("error", message)))
    }

    /// The standard shed response: `503 + Retry-After`, connection to
    /// be closed by the caller.
    #[must_use]
    pub fn shed(reason: &str, retry_after_secs: u64) -> Self {
        Self::error(503, reason).with_retry_after(retry_after_secs)
    }

    /// The standard reason phrase for the status code.
    #[must_use]
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            201 => "Created",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            408 => "Request Timeout",
            409 => "Conflict",
            410 => "Gone",
            413 => "Payload Too Large",
            421 => "Misdirected Request",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            503 => "Service Unavailable",
            _ => "Unknown",
        }
    }

    /// Serializes the response, honouring the connection disposition.
    ///
    /// # Errors
    ///
    /// Returns [`std::io::Error`] when the transport write fails.
    pub fn write_to<W: Write>(&self, mut writer: W, keep_alive: bool) -> std::io::Result<()> {
        let retry_after = self
            .retry_after
            .map(|secs| format!("retry-after: {secs}\r\n"))
            .unwrap_or_default();
        let head = format!(
            "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}connection: {}\r\n\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len(),
            retry_after,
            if keep_alive { "keep-alive" } else { "close" },
        );
        writer.write_all(head.as_bytes())?;
        writer.write_all(self.body.as_bytes())?;
        writer.flush()
    }
}

/// A request-parsing failure, mapped to the status the server should
/// answer with before closing the connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// Status to answer with (400, 408 or 413).
    pub status: u16,
    /// Human-readable cause.
    pub message: String,
}

impl ParseError {
    fn bad(message: impl Into<String>) -> Self {
        Self {
            status: 400,
            message: message.into(),
        }
    }

    fn too_large(message: impl Into<String>) -> Self {
        Self {
            status: 413,
            message: message.into(),
        }
    }

    fn timeout(message: impl Into<String>) -> Self {
        Self {
            status: 408,
            message: message.into(),
        }
    }

    /// Maps a transport read failure: deadline expiry (the socket's
    /// read timeout, or the per-request budget) becomes `408 Request
    /// Timeout`; anything else is a plain `400`.
    fn from_read(context: &str, err: &std::io::Error) -> Self {
        match err.kind() {
            std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut => {
                Self::timeout(format!("{context}: read deadline expired"))
            }
            _ => Self::bad(format!("{context}: {err}")),
        }
    }
}

/// For the client side, which reads response heads with the same
/// bounded line reader: a `408` (read deadline) keeps its timeout kind.
impl From<ParseError> for std::io::Error {
    fn from(err: ParseError) -> Self {
        let kind = if err.status == 408 {
            std::io::ErrorKind::TimedOut
        } else {
            std::io::ErrorKind::InvalidData
        };
        Self::new(kind, err.message)
    }
}

/// Reads one request from the transport.
///
/// Returns `Ok(None)` on clean end-of-stream before any request byte
/// (the keep-alive connection simply closed).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed requests or ones exceeding the
/// size limits; the connection should be answered and closed.
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, ParseError> {
    parse_request_with(reader, &ParseLimits::default())
}

/// [`parse_request`] with explicit size caps (the serving layer passes
/// the deployment's configured limits).
///
/// # Errors
///
/// Returns [`ParseError`] on malformed requests, size-limit violations
/// (`413`), or a read deadline expiring mid-request (`408`).
pub fn parse_request_with<R: BufRead>(
    reader: &mut R,
    limits: &ParseLimits,
) -> Result<Option<Request>, ParseError> {
    let request_line = match read_head_line(reader, 0, limits.max_head_bytes)? {
        Some(line) if !line.is_empty() => line,
        // EOF or a bare CRLF before a request line: treat as closed.
        _ => return Ok(None),
    };
    let mut parts = request_line.split(' ');
    let method = parts
        .next()
        .filter(|m| !m.is_empty())
        .ok_or_else(|| ParseError::bad("missing method"))?
        .to_ascii_uppercase();
    let target = parts
        .next()
        .ok_or_else(|| ParseError::bad("missing request target"))?;
    let version = parts
        .next()
        .ok_or_else(|| ParseError::bad("missing HTTP version"))?;
    if !version.starts_with("HTTP/1.") {
        return Err(ParseError::bad(format!("unsupported version {version}")));
    }

    let mut headers = Vec::new();
    let mut head_bytes = request_line.len();
    loop {
        let line = read_head_line(reader, head_bytes, limits.max_head_bytes)?
            .ok_or_else(|| ParseError::bad("connection closed inside headers"))?;
        if line.is_empty() {
            break;
        }
        head_bytes += line.len();
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| ParseError::bad(format!("malformed header line {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| ParseError::bad(format!("bad content-length {v:?}")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > limits.max_body_bytes {
        return Err(ParseError::too_large(format!(
            "body of {content_length} bytes exceeds the {}-byte limit",
            limits.max_body_bytes
        )));
    }
    let mut body = vec![0_u8; content_length];
    reader
        .read_exact(&mut body)
        .map_err(|err| ParseError::from_read("truncated body", &err))?;

    let (path, query) = split_target(target);
    Ok(Some(Request {
        method,
        path,
        query,
        headers,
        body,
    }))
}

/// Splits a request target into its percent-decoded path and raw query
/// string. Session ids contain `#`, which real HTTP clients must send
/// as `%23`, so path decoding is required for interoperability.
fn split_target(target: &str) -> (String, Option<String>) {
    match target.split_once('?') {
        Some((p, q)) => (percent_decode(p), Some(q.to_string())),
        None => (percent_decode(target), None),
    }
}

/// Decodes `%XX` escapes; malformed escapes and non-UTF-8 results are
/// left verbatim rather than rejected.
fn percent_decode(raw: &str) -> String {
    if !raw.contains('%') {
        return raw.to_string();
    }
    let bytes = raw.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        let decoded = (bytes[i] == b'%' && i + 2 < bytes.len())
            .then(|| {
                let high = (bytes[i + 1] as char).to_digit(16)?;
                let low = (bytes[i + 2] as char).to_digit(16)?;
                Some((high * 16 + low) as u8)
            })
            .flatten();
        match decoded {
            Some(byte) => {
                out.push(byte);
                i += 3;
            }
            None => {
                out.push(bytes[i]);
                i += 1;
            }
        }
    }
    String::from_utf8(out).unwrap_or_else(|_| raw.to_string())
}

/// Reads one CRLF- (or LF-) terminated head line, enforcing the head
/// size limit. `Ok(None)` means end-of-stream before any byte.
pub(crate) fn read_head_line<R: BufRead>(
    reader: &mut R,
    already_read: usize,
    max_head_bytes: usize,
) -> Result<Option<String>, ParseError> {
    let mut line = Vec::new();
    let budget = max_head_bytes.saturating_sub(already_read);
    loop {
        let mut byte = [0_u8; 1];
        match reader.read(&mut byte) {
            Ok(0) => {
                if line.is_empty() {
                    return Ok(None);
                }
                return Err(ParseError::bad("connection closed mid-line"));
            }
            Ok(_) => {
                if byte[0] == b'\n' {
                    if line.last() == Some(&b'\r') {
                        line.pop();
                    }
                    let text = String::from_utf8(line)
                        .map_err(|_| ParseError::bad("non-UTF-8 request head"))?;
                    return Ok(Some(text));
                }
                line.push(byte[0]);
                if line.len() > budget {
                    return Err(ParseError::too_large("request head too large"));
                }
            }
            Err(err) => return Err(ParseError::from_read("read failed", &err)),
        }
    }
}

/// One JSON object, its fields written by `fields` in order.
pub(crate) fn object_body(fields: impl FnOnce(&mut ObjectWriter<'_>)) -> String {
    let mut out = JsonWriter::new();
    let mut object = out.object();
    fields(&mut object);
    object.end();
    out.into_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(text: &str) -> Result<Option<Request>, ParseError> {
        parse_request(&mut text.as_bytes())
    }

    #[test]
    fn parses_a_get_request() {
        let request = parse("GET /healthz HTTP/1.1\r\nhost: x\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.method, "GET");
        assert_eq!(request.path, "/healthz");
        assert_eq!(request.query, None);
        assert_eq!(request.header("host"), Some("x"));
        assert!(request.body.is_empty());
        assert!(!request.wants_close());
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let request = parse(
            "POST /sessions?dry=1 HTTP/1.1\r\nContent-Length: 4\r\nConnection: close\r\n\r\nabcd",
        )
        .unwrap()
        .unwrap();
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/sessions");
        assert_eq!(request.query.as_deref(), Some("dry=1"));
        assert_eq!(request.body, b"abcd");
        assert!(request.wants_close());
    }

    #[test]
    fn percent_escapes_in_the_path_decode() {
        // `#` in a session id must travel as %23 through real clients.
        let request = parse("GET /sessions/quiz%23ada@7 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.path, "/sessions/quiz#ada@7");
        // Malformed escapes are kept verbatim, and queries stay raw.
        let request = parse("GET /a%2/b%2Fc?x=%23 HTTP/1.1\r\n\r\n")
            .unwrap()
            .unwrap();
        assert_eq!(request.path, "/a%2/b/c");
        assert_eq!(request.query.as_deref(), Some("x=%23"));
        // The test constructor decodes the same way.
        assert_eq!(
            Request::new("GET", "/sessions/quiz%23ada@7", "").path,
            "/sessions/quiz#ada@7"
        );
    }

    #[test]
    fn eof_before_a_request_is_none() {
        assert_eq!(parse("").unwrap(), None);
    }

    #[test]
    fn malformed_requests_are_rejected() {
        assert_eq!(parse("GET /x\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(parse("GET /x SPDY/3\r\n\r\n").unwrap_err().status, 400);
        assert_eq!(
            parse("GET /x HTTP/1.1\r\nbroken header\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        assert_eq!(
            parse("POST /x HTTP/1.1\r\ncontent-length: nope\r\n\r\n")
                .unwrap_err()
                .status,
            400
        );
        // Truncated body.
        assert_eq!(
            parse("POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nabc")
                .unwrap_err()
                .status,
            400
        );
    }

    #[test]
    fn oversized_requests_are_413() {
        let huge = format!(
            "POST /x HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(&huge).unwrap_err().status, 413);
        let long_header = format!(
            "GET /x HTTP/1.1\r\nh: {}\r\n\r\n",
            "a".repeat(MAX_HEAD_BYTES)
        );
        assert_eq!(parse(&long_header).unwrap_err().status, 413);
    }

    /// A reader that yields some bytes, then fails with a timeout —
    /// what a `TcpStream` under `set_read_timeout` looks like when the
    /// peer stalls mid-request.
    struct StallingReader {
        bytes: Vec<u8>,
        at: usize,
        kind: std::io::ErrorKind,
    }

    impl std::io::Read for StallingReader {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            if self.at >= self.bytes.len() {
                return Err(std::io::Error::from(self.kind));
            }
            buf[0] = self.bytes[self.at];
            self.at += 1;
            Ok(1)
        }
    }

    #[test]
    fn stalled_reads_map_to_408_not_400() {
        for kind in [std::io::ErrorKind::WouldBlock, std::io::ErrorKind::TimedOut] {
            // Stall mid-head (slow-loris).
            let mut reader = std::io::BufReader::new(StallingReader {
                bytes: b"GET /healthz HT".to_vec(),
                at: 0,
                kind,
            });
            assert_eq!(parse_request(&mut reader).unwrap_err().status, 408);
            // Stall mid-body (byte dribbler).
            let mut reader = std::io::BufReader::new(StallingReader {
                bytes: b"POST /x HTTP/1.1\r\ncontent-length: 10\r\n\r\nab".to_vec(),
                at: 0,
                kind,
            });
            assert_eq!(parse_request(&mut reader).unwrap_err().status, 408);
        }
        // A non-timeout failure stays a plain 400.
        let mut reader = std::io::BufReader::new(StallingReader {
            bytes: b"GET /healthz HT".to_vec(),
            at: 0,
            kind: std::io::ErrorKind::ConnectionReset,
        });
        assert_eq!(parse_request(&mut reader).unwrap_err().status, 400);
    }

    #[test]
    fn custom_limits_tighten_the_caps() {
        let limits = ParseLimits {
            max_head_bytes: 64,
            max_body_bytes: 8,
        };
        let mut wire: &[u8] = b"POST /x HTTP/1.1\r\ncontent-length: 9\r\n\r\n123456789";
        assert_eq!(
            parse_request_with(&mut wire, &limits).unwrap_err().status,
            413
        );
        let long_head = format!("GET /x HTTP/1.1\r\nh: {}\r\n\r\n", "a".repeat(64));
        assert_eq!(
            parse_request_with(&mut long_head.as_bytes(), &limits)
                .unwrap_err()
                .status,
            413
        );
        // Within the caps still parses.
        let mut wire: &[u8] = b"POST /x HTTP/1.1\r\ncontent-length: 8\r\n\r\n12345678";
        let request = parse_request_with(&mut wire, &limits).unwrap().unwrap();
        assert_eq!(request.body, b"12345678");
    }

    #[test]
    fn shed_response_carries_retry_after() {
        let mut out = Vec::new();
        Response::shed("over capacity", 2)
            .write_to(&mut out, false)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 503 Service Unavailable\r\n"));
        assert!(text.contains("retry-after: 2\r\n"));
        assert!(text.contains("connection: close\r\n"));
        assert!(text.ends_with("{\"error\":\"over capacity\"}"));
        // Ordinary responses never emit the header.
        let mut out = Vec::new();
        Response::json(200, "{}".into())
            .write_to(&mut out, true)
            .unwrap();
        assert!(!String::from_utf8(out).unwrap().contains("retry-after"));
    }

    #[test]
    fn response_serializes_with_length_and_disposition() {
        let mut out = Vec::new();
        Response::json(200, "{\"ok\":true}".into())
            .write_to(&mut out, true)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 200 OK\r\n"));
        assert!(text.contains("content-length: 11\r\n"));
        assert!(text.contains("connection: keep-alive\r\n"));
        assert!(text.ends_with("{\"ok\":true}"));
    }

    #[test]
    fn two_pipelined_requests_parse_in_sequence() {
        let wire = "GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n";
        let mut reader = wire.as_bytes();
        assert_eq!(parse_request(&mut reader).unwrap().unwrap().path, "/a");
        assert_eq!(parse_request(&mut reader).unwrap().unwrap().path, "/b");
        assert_eq!(parse_request(&mut reader).unwrap(), None);
    }
}
