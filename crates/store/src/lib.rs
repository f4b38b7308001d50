//! `mine-store`: a durable append-only event-log storage engine.
//!
//! This crate gives the delivery service a crash-safe persistence
//! layer: every mutation is journaled as a CRC-framed record in a
//! write-ahead log, segments rotate by size, base and delta snapshots
//! compact the history, and [`EventStore::open`] rebuilds everything a previous
//! process wrote — repairing the torn final record a kill -9 leaves
//! behind and refusing to paper over corruption anywhere else;
//! [`read_store`] reads a directory the same way without changing it.
//!
//! The crate is storage only: payloads are opaque bytes, and the
//! caller owns both the event serialization (the server journals its
//! `SessionEvent`s as JSON) and the snapshot format.
//!
//! ```
//! use mine_store::{EventStore, StoreOptions};
//!
//! let dir = std::env::temp_dir().join(format!("store-doc-{}", std::process::id()));
//! let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
//! assert!(recovered.events.is_empty());
//! let seq = store.append(b"session created").unwrap();
//! assert_eq!(seq, 1);
//! drop(store);
//!
//! let (_store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
//! assert_eq!(recovered.events[0].payload, b"session created");
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod fault;
pub mod frame;
pub mod log;
mod read;
pub mod replicate;
pub mod scrub;

pub use error::StoreError;
pub use fault::{DiskFault, FaultPlan, NetAction, NetFault};
pub use log::{EventStore, Record, Recovered, Snapshot, StoreOptions, SyncPolicy};
pub use read::{read_store, INITIAL_EPOCH};
pub use replicate::{Message, ReplError, StreamCursor};
pub use scrub::{
    diverging_windows, inject_bitrot, scrub_dir, RangeHash, ScrubReport, SegmentReport,
    SnapshotReport, RANGE_WINDOW,
};
