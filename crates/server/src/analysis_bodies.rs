//! Serialized streaming analysis bodies, stamped with the state they
//! were built from (DESIGN.md §14).
//!
//! A streaming `GET /exams/{id}/analysis` body is a pure function of the
//! exam's stream state and the item bank. The engine names each stream
//! state with a generation stamp ([`mine_streamstats::StreamEngine::generation`])
//! and the bank names each of its states with a revision
//! ([`mine_itembank::Repository::revision`]), so a body stored with the
//! pair it was built at can be served again for as long as both still
//! match. Only streaming bodies are stored here: `?mode=batch` and the
//! unstreamable fallback never read or write this cache.

use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::RwLock;

/// One stored body and the state it was built from.
#[derive(Debug)]
struct Entry {
    stamp: u64,
    revision: u64,
    body: String,
}

/// The newest body per exam and view (full report, `?indices=alt`).
#[derive(Debug, Default)]
pub(crate) struct AnalysisBodies {
    by_exam: RwLock<HashMap<String, [Option<Arc<Entry>>; 2]>>,
}

impl AnalysisBodies {
    /// A copy of the body stored for `exam`'s view if it was built at
    /// exactly `stamp` and `revision`.
    pub(crate) fn get(&self, exam: &str, alt: bool, stamp: u64, revision: u64) -> Option<String> {
        let entry = self.by_exam.read().get(exam)?[usize::from(alt)].clone()?;
        // The copy happens after the map guard is gone.
        (entry.stamp == stamp && entry.revision == revision).then(|| entry.body.clone())
    }

    /// Stores `body`, built at `stamp` and `revision`, unless the entry
    /// already there was built from a newer state (a slower reader that
    /// assembled earlier must not overwrite a faster one's newer body).
    pub(crate) fn offer(&self, exam: &str, alt: bool, stamp: u64, revision: u64, body: &str) {
        let fresh = Arc::new(Entry {
            stamp,
            revision,
            body: body.to_string(),
        });
        let mut by_exam = self.by_exam.write();
        let slot = &mut by_exam.entry(exam.to_string()).or_default()[usize::from(alt)];
        if slot
            .as_ref()
            .is_none_or(|held| (held.stamp, held.revision) < (stamp, revision))
        {
            *slot = Some(fresh);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hits_only_on_the_exact_stamp_and_revision() {
        let bodies = AnalysisBodies::default();
        assert_eq!(bodies.get("quiz", false, 1, 0), None);
        bodies.offer("quiz", false, 3, 7, "full");
        assert_eq!(bodies.get("quiz", false, 3, 7).as_deref(), Some("full"));
        assert_eq!(bodies.get("quiz", false, 4, 7), None);
        assert_eq!(bodies.get("quiz", false, 3, 8), None);
        assert_eq!(bodies.get("quiz", true, 3, 7), None);
        assert_eq!(bodies.get("other", false, 3, 7), None);
    }

    #[test]
    fn an_older_body_never_replaces_a_newer_one() {
        let bodies = AnalysisBodies::default();
        bodies.offer("quiz", true, 5, 2, "new");
        bodies.offer("quiz", true, 4, 2, "old");
        bodies.offer("quiz", true, 5, 1, "older bank");
        assert_eq!(bodies.get("quiz", true, 5, 2).as_deref(), Some("new"));
        bodies.offer("quiz", true, 6, 2, "newer");
        assert_eq!(bodies.get("quiz", true, 6, 2).as_deref(), Some("newer"));
    }
}
