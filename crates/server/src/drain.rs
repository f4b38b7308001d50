//! Graceful shutdown for the delivery service: the drain state machine
//! and the final pause-and-snapshot pass.
//!
//! # The drain state machine
//!
//! ```text
//! Running ──begin_drain()──▶ Draining ──finish_drain()──▶ Stopped
//! ```
//!
//! * **Running** — normal service.
//! * **Draining** — `/healthz` answers `503 {"status":"draining"}` so
//!   load balancers rotate traffic away; every request except
//!   `/healthz` and `/metrics` is shed with `503 + Retry-After`;
//!   requests already being handled run to completion; workers close
//!   keep-alive connections after the in-flight exchange.
//! * **Stopped** — in-flight work has ended (or the drain deadline
//!   expired), every still-active session has been paused through the
//!   journaled `Paused` event, a final snapshot has been written, and
//!   the listener threads are joining.
//!
//! Correctness does not depend on the deadline: the pause pass and the
//! final snapshot run under the journal's exclusive write gate, so even
//! a straggling request that outlives the deadline either lands wholly
//! before the pass or wholly after the snapshot in the WAL — a
//! restarted server replays it either way. The deadline only bounds how
//! long shutdown *waits* for stragglers before moving on.

use std::sync::atomic::{AtomicU64, AtomicU8, Ordering};
use std::sync::Arc;

use mine_delivery::{DeliveryError, SessionState};

use crate::journal::{Journal, SessionEvent};
use crate::registry::Keyed;
use crate::router::{Rejected, ServerState};

/// Where the server is in its lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DrainState {
    /// Serving normally.
    Running,
    /// Shedding new work, finishing in-flight requests.
    Draining,
    /// Drained (or deadline-expired), final snapshot written.
    Stopped,
}

impl DrainState {
    /// Stable label (`/healthz` body and the `mine_drain_state` gauge
    /// legend).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DrainState::Running => "ok",
            DrainState::Draining => "draining",
            DrainState::Stopped => "stopped",
        }
    }

    /// Numeric encoding for the Prometheus gauge (0 = running,
    /// 1 = draining, 2 = stopped).
    #[must_use]
    pub fn as_gauge(self) -> u64 {
        match self {
            DrainState::Running => 0,
            DrainState::Draining => 1,
            DrainState::Stopped => 2,
        }
    }
}

/// The shared lifecycle flag: handlers read it on every request, the
/// drain coordinator (signal handler, test, or `Server::drain`)
/// advances it. Cloning shares the same state.
#[derive(Debug, Clone, Default)]
pub struct Lifecycle {
    state: Arc<AtomicU8>,
    /// `Retry-After` seconds advertised on drain-shed responses.
    retry_after_secs: Arc<AtomicU64>,
}

impl Lifecycle {
    /// A fresh lifecycle in [`DrainState::Running`].
    #[must_use]
    pub fn new() -> Self {
        let lifecycle = Self::default();
        lifecycle.retry_after_secs.store(5, Ordering::Relaxed);
        lifecycle
    }

    /// The current state.
    #[must_use]
    pub fn state(&self) -> DrainState {
        match self.state.load(Ordering::Acquire) {
            0 => DrainState::Running,
            1 => DrainState::Draining,
            _ => DrainState::Stopped,
        }
    }

    /// Whether new work should be shed.
    #[must_use]
    pub fn is_draining(&self) -> bool {
        self.state.load(Ordering::Acquire) != 0
    }

    /// Enters [`DrainState::Draining`] (idempotent; never goes
    /// backwards).
    pub fn begin_drain(&self) {
        let _ = self
            .state
            .compare_exchange(0, 1, Ordering::AcqRel, Ordering::Acquire);
    }

    /// Enters [`DrainState::Stopped`].
    pub fn mark_stopped(&self) {
        self.state.store(2, Ordering::Release);
    }

    /// The `Retry-After` to advertise while draining.
    #[must_use]
    pub fn retry_after_secs(&self) -> u64 {
        self.retry_after_secs.load(Ordering::Relaxed)
    }

    /// Configures the drain `Retry-After` (e.g. from `ServeOptions`).
    pub fn set_retry_after_secs(&self, secs: u64) {
        self.retry_after_secs.store(secs.max(1), Ordering::Relaxed);
    }
}

/// What the final drain pass did.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Whether every in-flight request finished before the deadline
    /// (`false` means the deadline expired with work still running —
    /// the pause/snapshot below are still consistent, see module docs).
    pub drained_cleanly: bool,
    /// Active sessions paused (and journaled `Paused`) by the pass.
    pub sessions_paused: usize,
    /// Sessions that were already paused and just carried into the
    /// snapshot.
    pub sessions_already_paused: usize,
    /// Whether a final compacting snapshot was written (always `false`
    /// for a journal-less server, which has nothing to persist).
    pub snapshot_written: bool,
    /// Non-fatal problems encountered (a session that refused to pause,
    /// a snapshot write failure). Empty on a clean drain.
    pub notes: Vec<String>,
}

/// Pauses every still-active session through the journaled `Paused`
/// event and writes a final compacting snapshot.
///
/// Pausing goes through `ServerState::apply`, the method the `POST
/// /sessions/{id}/pause` handler uses — WAL-first append, then the
/// in-memory mutation under the session's own lock — so a recovered
/// server cannot tell a drain-pause from a learner-pause. Non-resumable
/// sessions refuse to pause; that is recorded as a note and the session
/// is still captured live in the snapshot (recovery restores it
/// mid-flight, exactly like a crash).
pub fn pause_and_snapshot(state: &ServerState) -> DrainReport {
    let mut report = DrainReport {
        drained_cleanly: true,
        ..DrainReport::default()
    };
    let journal = state.journal.as_ref();
    // The exclusive gate waits out any mutating handler that is
    // mid-request and holds later ones off until the final image is
    // written: the sessions stay as captured, and the image is
    // consistent with the log even when the drain deadline expired with
    // work running.
    let _gate = journal.map(Journal::gate_write);
    let commit = |event: &SessionEvent| match journal {
        Some(journal) => journal
            .append(event)
            .map(drop)
            .map_err(|err| format!("journal append failed: {err}")),
        None => Ok(()),
    };

    for (id, session_state) in state
        .registry
        .capture(|slot| (slot.key().to_string(), slot.session.state()))
    {
        match session_state {
            SessionState::Paused => {
                report.sessions_already_paused += 1;
                continue;
            }
            SessionState::Finished => continue,
            SessionState::Active => {}
        }
        let pause = SessionEvent::Paused {
            session: id.clone(),
        };
        match state.apply(&pause, commit, |_| ()) {
            Ok(()) => report.sessions_paused += 1,
            // Without a journal there is no gate: a straggling handler
            // paused or finished the session since the capture.
            Err(Rejected::Delivery(DeliveryError::WrongState { .. })) => {}
            Err(Rejected::Delivery(err)) => report
                .notes
                .push(format!("session {id}: refused to pause: {err}")),
            Err(err) => report.notes.push(format!("session {id}: {err}")),
        }
    }

    if let Some(journal) = journal {
        // A full base, not a delta: a clean shutdown leaves one image.
        match journal.write_base(state) {
            Ok(()) => {
                report.snapshot_written = true;
                if let Err(err) = journal.sync() {
                    report.notes.push(format!("final sync failed: {err}"));
                }
            }
            Err(err) => report.notes.push(format!("final snapshot failed: {err}")),
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lifecycle_advances_and_never_retreats() {
        let lifecycle = Lifecycle::new();
        assert_eq!(lifecycle.state(), DrainState::Running);
        assert!(!lifecycle.is_draining());
        lifecycle.begin_drain();
        assert_eq!(lifecycle.state(), DrainState::Draining);
        assert!(lifecycle.is_draining());
        // Idempotent.
        lifecycle.begin_drain();
        assert_eq!(lifecycle.state(), DrainState::Draining);
        lifecycle.mark_stopped();
        assert_eq!(lifecycle.state(), DrainState::Stopped);
        // begin_drain cannot resurrect a stopped server.
        lifecycle.begin_drain();
        assert_eq!(lifecycle.state(), DrainState::Stopped);
    }

    #[test]
    fn lifecycle_clones_share_state() {
        let lifecycle = Lifecycle::new();
        let observer = lifecycle.clone();
        lifecycle.begin_drain();
        assert!(observer.is_draining());
        assert_eq!(observer.retry_after_secs(), 5);
        lifecycle.set_retry_after_secs(0);
        // Zero would invite an immediate hammering retry; clamped to 1.
        assert_eq!(observer.retry_after_secs(), 1);
    }

    #[test]
    fn gauge_encoding_is_stable() {
        assert_eq!(DrainState::Running.as_gauge(), 0);
        assert_eq!(DrainState::Draining.as_gauge(), 1);
        assert_eq!(DrainState::Stopped.as_gauge(), 2);
        assert_eq!(DrainState::Draining.label(), "draining");
    }
}
