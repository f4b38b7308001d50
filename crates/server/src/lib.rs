//! The delivery micro-service (§5): the sitting lifecycle over HTTP.
//!
//! "Learners take the exam or the problems with Internet browser" — the
//! paper's system is a networked service, not a library. This crate is
//! that serving layer: a std-only HTTP/1.1 service (no async runtime —
//! loopback `std::net::TcpListener` plus a worker thread pool) exposing
//! the full [`mine_delivery::ExamSession`] lifecycle and the live §4
//! analysis pipeline as JSON endpoints:
//!
//! | Endpoint | Purpose |
//! |---|---|
//! | `POST /sessions` | start a sitting (`"mode": "adaptive"` for CAT) |
//! | `GET /sessions/{id}` | session status (adaptive: current item, θ̂, SE, steps) |
//! | `POST /sessions/{id}/answers` | answer the current question |
//! | `POST /sessions/{id}/pause` | pause, returning a checkpoint |
//! | `POST /sessions/{id}/resume` | reactivate a paused sitting |
//! | `POST /sessions/{id}/finish` | grade and file the [`mine_core::StudentRecord`] |
//! | `GET /exams/{id}/analysis` | live §4 report over finished sittings |
//! | `GET /healthz` | liveness |
//! | `GET /metrics` | request counts, latency histogram, session gauges |
//!
//! The architecture is transport-agnostic: [`Router::handle`] maps a
//! parsed [`http::Request`] to an [`http::Response`] over sharded
//! [`Registry`] instances, changing them only through
//! `ServerState::apply`, so handler unit tests run with zero sockets
//! while [`Server::start`] serves the same router over real loopback
//! TCP. [`loadgen`] drives a running server with many deterministic
//! concurrent clients.
//!
//! # Examples
//!
//! ```
//! use mine_itembank::{Exam, Problem, Repository};
//! use mine_server::http::Request;
//! use mine_server::Router;
//!
//! let repo = Repository::new();
//! repo.insert_problem(Problem::true_false("q1", "1 + 1 = 2", true)?)?;
//! repo.insert_exam(Exam::builder("quiz")?.entry("q1".parse()?).build()?)?;
//! let router = Router::new(repo);
//!
//! // Drive the whole lifecycle in-process, no sockets.
//! let started = router.handle(&Request::new(
//!     "POST",
//!     "/sessions",
//!     r#"{"exam":"quiz","student":"s1"}"#,
//! ));
//! assert_eq!(started.status, 201);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
mod analysis_bodies;
pub mod audit;
pub mod client;
pub mod drain;
pub mod http;
pub mod journal;
pub mod loadgen;
pub mod metrics;
pub mod node;
pub mod overload;
pub mod registry;
pub mod repl;
pub mod router;
pub mod scrub;
pub mod serve;

pub use adaptive::{AdaptiveImage, AdaptiveSitting, AdaptiveStep};
pub use audit::{audit_dirs, AuditReport, NodeAudit};
pub use client::{
    backoff_delay, ClientResponse, HttpClient, ResilientClient, RetryPolicy,
    DEFAULT_CLIENT_TIMEOUT, MAX_LEADER_MOVES,
};
pub use drain::{DrainReport, DrainState, Lifecycle};
pub use http::ParseLimits;
pub use journal::{
    decode_events, open_journaled_state, Journal, RecoveryReport, ServerImage, SessionEvent,
    SlotImage,
};
pub use loadgen::{run_loadgen, AnswerKey, LoadGenOptions, LoadGenReport, LoadMode};
pub use metrics::{Metrics, MetricsSnapshot, Route};
pub use node::{Node, NodeOptions};
pub use overload::{OverloadOptions, PeerLimiter, RateLimit, TokenBucket};
pub use registry::{FinishedStore, Registry, RegistryError, SessionRegistry, SessionSlot};
pub use repl::{
    start_follower, AckMode, FailoverConfig, FollowerPuller, ReplListener, ReplState, Role,
    DEFAULT_FAILOVER_TIMEOUT,
};
pub use router::{ApiError, Router, ServerState, StorageHealth};
pub use scrub::{scrub_pass, write_range_hashes, Scrubber, DEFAULT_SCRUB_INTERVAL};
pub use serve::{ServeOptions, Server};
