//! One node: the single assembly of a journaled, replicated server.
//!
//! `mine serve` and the multi-process test suites start every node
//! through [`Node::start`] and stop it through [`Node::drain`] or
//! [`Node::join`], so there is one definition of how the pieces are
//! wired and in which order they start and stop:
//!
//! 1. open the journal (snapshot + deltas + tail replay) and attach the
//!    [`ReplState`] when the node replicates;
//! 2. bind the HTTP [`Server`];
//! 3. advertise the bound address and arm the failure detector;
//! 4. start the replication listener, the follower puller, and the
//!    anti-entropy scrubber.
//!
//! Shutdown runs the other way: the scrubber stops first (a repair
//! snapshot mid-drain would race the drain's own final snapshot), then
//! the puller is stopped and joined, then the listener, and only then
//! does the server drain — so the drain's final events are written with
//! replication already wound down.

use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

use mine_itembank::Repository;
use mine_store::StoreOptions;

use crate::drain::DrainReport;
use crate::journal::{open_journaled_state, RecoveryReport};
use crate::repl::{
    start_follower, AckMode, FailoverConfig, FollowerPuller, ReplListener, ReplState, Role,
};
use crate::router::Router;
use crate::scrub::Scrubber;
use crate::serve::{ServeOptions, Server};

/// Everything [`Node::start`] needs. No defaults of its own: `mine
/// serve` fills it from its flags, tests from their environment.
#[derive(Debug, Clone)]
pub struct NodeOptions {
    /// The HTTP face: bind address, workers, timeouts, admission.
    pub serve: ServeOptions,
    /// The journal directory; `None` serves from memory only (no
    /// replication, no scrubber).
    pub data_dir: Option<PathBuf>,
    /// Store tunables: fsync policy, segment size, fault plan.
    pub store: StoreOptions,
    /// Journaled events between compaction snapshots.
    pub snapshot_every: u64,
    /// Where the replication listener binds. A follower runs one too,
    /// refusing every follower until a promotion flips it to primary.
    pub repl_addr: Option<String>,
    /// The primary's replication address; makes this node a follower.
    pub replica_of: Option<String>,
    /// When writes are acknowledged.
    pub ack_mode: AckMode,
    /// Arms the unsupervised failure detector (followers only).
    pub failover: Option<FailoverConfig>,
    /// Anti-entropy scrub cadence; zero disables the scrubber.
    pub scrub_interval: Duration,
}

/// A running node. Dropping it leaves its threads running; stop it
/// with [`Node::drain`] or wait on it with [`Node::join`].
#[derive(Debug)]
pub struct Node {
    server: Server,
    background: Background,
}

/// The threads that run beside the server, in start order.
#[derive(Debug)]
struct Background {
    listener: Option<ReplListener>,
    puller: Option<FollowerPuller>,
    scrubber: Option<Scrubber>,
}

impl Background {
    /// Stops everything in shutdown order: scrubber, puller, listener.
    fn stop(self, router: &Router) {
        if let Some(scrubber) = self.scrubber {
            scrubber.shutdown();
        }
        if let Some(repl) = router.state().repl.as_deref() {
            repl.stop_puller();
        }
        if let Some(puller) = self.puller {
            puller.join();
        }
        if let Some(listener) = self.listener {
            listener.shutdown();
        }
    }
}

impl Node {
    /// Recovers the journal (when `data_dir` is set), binds the server,
    /// and starts replication and the scrubber, in that order. The
    /// report is empty for a node without a journal.
    ///
    /// # Errors
    ///
    /// Returns a human-readable message when the journal cannot be
    /// recovered or an address cannot be bound; nothing is left running
    /// in that case.
    pub fn start(
        repository: Repository,
        options: NodeOptions,
    ) -> Result<(Self, RecoveryReport), String> {
        let (router, report) = match &options.data_dir {
            None => (Router::new(repository), RecoveryReport::default()),
            Some(dir) => {
                let (mut state, report) =
                    open_journaled_state(repository, dir, options.store, options.snapshot_every)?;
                if options.repl_addr.is_some() || options.replica_of.is_some() {
                    let role = if options.replica_of.is_some() {
                        Role::Follower
                    } else {
                        Role::Primary
                    };
                    state.repl = Some(Arc::new(ReplState::new(role, options.ack_mode)));
                }
                (Router::with_state(state), report)
            }
        };
        let server = Server::start(router.clone(), &options.serve)
            .map_err(|err| format!("binding {}: {err}", options.serve.addr))?;
        let mut background = Background {
            listener: None,
            puller: None,
            scrubber: None,
        };
        if let Some(repl) = router.state().repl.as_deref() {
            // What follower redirects will name as the leader.
            repl.set_advertise(server.local_addr().to_string());
            if let Some(config) = options.failover {
                repl.set_auto_failover(config);
            }
            if let Some(bind) = &options.repl_addr {
                match ReplListener::start(bind, router.clone()) {
                    Ok(listener) => background.listener = Some(listener),
                    Err(err) => {
                        server.shutdown();
                        return Err(format!("binding replication listener {bind}: {err}"));
                    }
                }
            }
            if let Some(primary) = options.replica_of {
                background.puller = Some(start_follower(primary, router.clone()));
            }
        }
        if options.data_dir.is_some() && !options.scrub_interval.is_zero() {
            background.scrubber = Some(Scrubber::start(router.clone(), options.scrub_interval));
        }
        Ok((Self { server, background }, report))
    }

    /// The bound HTTP address.
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.server.local_addr()
    }

    /// The bound replication listener address, when one runs.
    #[must_use]
    pub fn repl_addr(&self) -> Option<SocketAddr> {
        self.background
            .listener
            .as_ref()
            .map(ReplListener::local_addr)
    }

    /// Stops the scrubber, the puller and the listener, then drains the
    /// server (see [`Server::drain`]).
    #[must_use]
    pub fn drain(self, deadline: Duration) -> DrainReport {
        self.background.stop(self.server.router());
        self.server.drain(deadline)
    }

    /// Blocks until the server's threads exit (a fatal listener error;
    /// in practice, until the process is killed), then stops the
    /// scrubber, the puller and the listener.
    pub fn join(self) {
        let router = self.server.router().clone();
        self.server.join();
        self.background.stop(&router);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_failed_replication_bind_leaves_nothing_running() {
        let dir = std::env::temp_dir().join(format!("mine-node-bind-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let taken = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let http_addr = std::net::TcpListener::bind("127.0.0.1:0")
            .unwrap()
            .local_addr()
            .unwrap()
            .to_string();
        let options = NodeOptions {
            serve: ServeOptions {
                addr: http_addr.clone(),
                ..ServeOptions::default()
            },
            data_dir: Some(dir.clone()),
            store: StoreOptions::default(),
            snapshot_every: 0,
            repl_addr: Some(taken.local_addr().unwrap().to_string()),
            replica_of: None,
            ack_mode: AckMode::Leader,
            failover: None,
            scrub_interval: Duration::ZERO,
        };
        let err = Node::start(Repository::new(), options).unwrap_err();
        assert!(err.contains("binding replication listener"), "{err}");
        // The HTTP server bound before the listener failed; it must
        // have been shut down again, releasing its port.
        std::net::TcpListener::bind(&http_addr).expect("HTTP port still held");
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
