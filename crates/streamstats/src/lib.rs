//! Streaming sufficient statistics for live item analysis.
//!
//! The batch pipeline (`mine-analysis`) recomputes the full §4 report
//! from every finished sitting on each read — O(students × questions)
//! per request, paid again whenever one more student finishes. This
//! crate maintains *running sufficient statistics* per exam instead:
//!
//! * one ordered set of every student under the analysis total order
//!   (score descending, id ascending); the moving 25 %-group boundary
//!   moves by neighbour queries on it,
//! * per-question per-option counters for the current high/low groups,
//!   incrementally re-assigned as the boundary shifts,
//! * order-independent whole-class accumulators (time multisets,
//!   attempted counts) feeding the statistics and figures.
//!
//! A finish updates the engine in O(questions + re-assignments); a read
//! assembles the complete report — groups, Tables 1–4, rules, signals,
//! figures, Cronbach's alpha — from the counters without touching the
//! raw records, byte-identical (under `serde_json`) to the batch
//! pipeline over the same rows. Inputs outside the counters' exact
//! domain (mixed problem sets, duplicate in-row problems, non-finite
//! scores, classes too small to split) report as [`Unstreamable`] and
//! callers fall back to the batch path, which reproduces the batch
//! pipeline's exact output or error.
//!
//! [`alt`] derives the option-wise alternative discrimination view of
//! Joshi et al. (arXiv:1906.07941) from the same counters — a pure
//! read-side assembly, no extra state.

#![warn(missing_docs)]

use std::fmt;

pub mod alt;
mod assemble;
pub mod engine;
mod ranking;

pub use alt::{alt_indices, AltIndices, AltOption, AltQuestion};
pub use engine::{ExamStream, StreamEngine};

/// Why a stream cannot currently reproduce the batch report exactly.
///
/// Not an analysis failure: the caller is expected to fall back to the
/// batch pipeline, which either succeeds (and defines the answer) or
/// fails with the authoritative analysis error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Unstreamable {
    reason: &'static str,
}

impl Unstreamable {
    pub(crate) fn new(reason: &'static str) -> Self {
        Self { reason }
    }

    /// Human-readable reason for the fallback.
    #[must_use]
    pub fn reason(&self) -> &str {
        self.reason
    }
}

impl fmt::Display for Unstreamable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "streaming statistics unavailable: {}", self.reason)
    }
}

impl std::error::Error for Unstreamable {}
