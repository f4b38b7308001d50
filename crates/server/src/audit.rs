//! Offline invariant checking over journal directories (`mine audit`).
//!
//! After a chaos run — injected disk faults, killed primaries,
//! automatic failovers — this module answers the question the scenario
//! scripts need answered mechanically: *is the surviving history
//! actually coherent?* It checks three invariant families:
//!
//! 1. **Per-node integrity.** Each directory must read as a valid store
//!    ([`read_store`]): CRC-clean frames, contiguous sequence numbers
//!    after the newest snapshot, a parseable durable epoch ≥
//!    [`mine_store::INITIAL_EPOCH`], and every record payload decoding
//!    as a [`SessionEvent`]. A torn *final* record is a repair, not a
//!    violation — it is the expected artifact of a crash mid-append,
//!    and an un-synced tail record was never acknowledged under quorum.
//!
//! 2. **Cross-node acked-prefix containment.** Any sequence number
//!    present on two nodes must carry byte-identical payloads. Together
//!    with per-node contiguity this is exactly the replication
//!    guarantee: one node's log is a prefix of the other's (modulo
//!    snapshot-covered prefixes), so no acknowledged write can exist in
//!    two divergent versions.
//!
//! 3. **Replay equality.** Given the item database, each node's state
//!    is rebuilt in memory, as crash recovery rebuilds it, and captured
//!    as a canonical [`ServerImage`]. Nodes at the same head sequence
//!    must produce byte-identical images; a single node is replayed
//!    twice to prove replay itself is deterministic.
//!
//! The audit only reads the directories it is pointed at.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mine_itembank::Repository;
use mine_store::{read_store, Recovered, INITIAL_EPOCH};
use serde::{JsonWriter, Serialize};

use crate::journal::{capture_image, decode_payload, rebuild_state, ServerImage, SessionEvent};

/// What the audit found in one journal directory.
#[derive(Debug, Default)]
pub struct NodeAudit {
    /// The directory audited.
    pub dir: PathBuf,
    /// The node's durable epoch.
    pub epoch: u64,
    /// Highest sequence the newest image (base or delta) covers (0
    /// without one).
    pub snapshot_seq: u64,
    /// Highest sequence on the node (snapshot or tail record).
    pub head_seq: u64,
    /// Tail records recovered after the snapshot.
    pub events: usize,
    /// Repairs the next open performs (torn tails truncated). These
    /// are expected crash artifacts, not violations.
    pub repairs: Vec<String>,
    /// Invariant violations found on this node alone.
    pub violations: Vec<String>,
}

/// The full audit outcome across every directory.
#[derive(Debug)]
pub struct AuditReport {
    /// Per-node findings, in the order the directories were given.
    pub nodes: Vec<NodeAudit>,
    /// Violations of cross-node invariants (acked-prefix containment).
    pub cross_violations: Vec<String>,
    /// Violations of replay equality (divergent rebuilt state).
    pub replay_violations: Vec<String>,
}

impl AuditReport {
    /// Whether every invariant held.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.cross_violations.is_empty()
            && self.replay_violations.is_empty()
            && self.nodes.iter().all(|node| node.violations.is_empty())
    }

    /// Every violation message, prefixed with where it was found.
    #[must_use]
    pub fn violations(&self) -> Vec<String> {
        let mut all = Vec::new();
        for node in &self.nodes {
            for violation in &node.violations {
                all.push(format!("{}: {violation}", node.dir.display()));
            }
        }
        for violation in &self.cross_violations {
            all.push(format!("cross-node: {violation}"));
        }
        for violation in &self.replay_violations {
            all.push(format!("replay: {violation}"));
        }
        all
    }

    /// Human-readable report: one block per node, then the verdict.
    #[must_use]
    pub fn render(&self) -> String {
        let mut out = String::new();
        for node in &self.nodes {
            out.push_str(&format!(
                "node {}: epoch {}, snapshot through {}, head {}, {} tail event(s)\n",
                node.dir.display(),
                node.epoch,
                node.snapshot_seq,
                node.head_seq,
                node.events,
            ));
            for repair in &node.repairs {
                out.push_str(&format!("  repaired: {repair}\n"));
            }
            for violation in &node.violations {
                out.push_str(&format!("  VIOLATION: {violation}\n"));
            }
        }
        for violation in &self.cross_violations {
            out.push_str(&format!("VIOLATION (cross-node): {violation}\n"));
        }
        for violation in &self.replay_violations {
            out.push_str(&format!("VIOLATION (replay): {violation}\n"));
        }
        if self.is_clean() {
            out.push_str("audit: clean\n");
        } else {
            out.push_str(&format!(
                "audit: {} violation(s)\n",
                self.violations().len()
            ));
        }
        out
    }
}

/// The machine-readable form of the report (`mine audit --json`): the
/// overall verdict, per-node head positions and repairs, and every
/// violation family.
impl Serialize for AuditReport {
    fn serialize_into(&self, out: &mut JsonWriter) {
        let mut report = out.object();
        report.field("clean", &self.is_clean());
        report.field("nodes", &self.nodes);
        report.field("cross_violations", &self.cross_violations);
        report.field("replay_violations", &self.replay_violations);
        report.field("violations", &self.violations());
        report.end();
    }
}

impl Serialize for NodeAudit {
    fn serialize_into(&self, out: &mut JsonWriter) {
        let mut node = out.object();
        node.field("dir", &self.dir.display().to_string());
        node.field("epoch", &self.epoch);
        node.field("snapshot_seq", &self.snapshot_seq);
        node.field("head_seq", &self.head_seq);
        node.field("events", &self.events);
        node.field("repairs", &self.repairs);
        node.field("violations", &self.violations);
        node.end();
    }
}

/// Audits one directory, returning the findings plus the history the
/// later passes need (`None` when it would not even open).
fn audit_node(dir: &Path) -> (NodeAudit, Option<Recovered>) {
    let mut node = NodeAudit {
        dir: dir.to_path_buf(),
        ..NodeAudit::default()
    };
    let (recovered, epoch) = match read_store(dir) {
        Ok(read) => read,
        Err(err) => {
            node.violations
                .push(format!("history failed to open: {err}"));
            return (node, None);
        }
    };
    node.repairs = recovered.warnings.clone();
    node.epoch = epoch;
    if node.epoch < INITIAL_EPOCH {
        node.violations.push(format!(
            "epoch {} is below the initial epoch {INITIAL_EPOCH}",
            node.epoch
        ));
    }
    // The images cover the prefix through the newest delta (or the
    // base when there is none); every one of them must decode.
    let images: Vec<_> = recovered.snapshot.iter().chain(&recovered.deltas).collect();
    node.snapshot_seq = images.last().map_or(0, |s| s.last_seq);
    node.head_seq = recovered.head_seq();
    node.events = recovered.events.len();
    for image in images {
        if let Err(err) = decode_payload::<ServerImage>(&image.payload, "payload") {
            node.violations
                .push(format!("snapshot through {}: {err}", image.last_seq));
        }
    }
    for record in &recovered.events {
        if let Err(err) = decode_payload::<SessionEvent>(&record.payload, "payload") {
            node.violations
                .push(format!("record seq {}: {err}", record.seq));
        }
    }
    (node, Some(recovered))
}

/// Checks acked-prefix containment between every node pair: a seq both
/// hold as tail records must carry byte-identical payloads. (The reader
/// enforces per-node contiguity, so the shorter log is then a literal
/// prefix of the longer.)
fn cross_check(histories: &[(&Path, Recovered)]) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, (dir_a, a)) in histories.iter().enumerate() {
        for (dir_b, b) in &histories[i + 1..] {
            // Both tails are contiguous: `b`'s record for a seq is found
            // by position.
            let b_first = b.events.first().map_or(0, |record| record.seq);
            for record in &a.events {
                let other = usize::try_from(record.seq.wrapping_sub(b_first))
                    .ok()
                    .and_then(|index| b.events.get(index));
                if other.is_some_and(|other| other.payload != record.payload) {
                    violations.push(format!(
                        "seq {} diverges between {} and {}",
                        record.seq,
                        dir_a.display(),
                        dir_b.display()
                    ));
                }
            }
        }
    }
    violations
}

/// Rebuilds one node's state in memory and captures its image JSON.
fn replay_image(repository: Repository, recovered: &Recovered) -> Result<String, String> {
    let (state, _, _) = rebuild_state(repository, recovered.clone())?;
    let (image, _) = capture_image(&state, 0).map_err(|err| err.to_string())?;
    Ok(image)
}

/// Audits `dirs` against the three invariant families (see the module
/// docs). `repository` supplies a fresh item database per replay; pass
/// `None` to skip the replay-equality pass (the CLI's `--db` flag).
///
/// # Errors
///
/// Only when no directory is given or the repository fails to load;
/// invariant breaches, an unreadable directory included, are reported
/// inside the returned [`AuditReport`].
pub fn audit_dirs(
    dirs: &[PathBuf],
    repository: Option<&dyn Fn() -> Result<Repository, String>>,
) -> Result<AuditReport, String> {
    if dirs.is_empty() {
        return Err("audit needs at least one directory".to_string());
    }
    let mut nodes = Vec::new();
    let mut histories = Vec::new();
    for dir in dirs {
        let (node, recovered) = audit_node(dir);
        histories.extend(recovered.map(|recovered| (dir.as_path(), recovered)));
        nodes.push(node);
    }
    let cross_violations = cross_check(&histories);

    let mut replay_violations = Vec::new();
    if let Some(repository) = repository {
        // Replay every readable node; nodes at the same head must agree
        // byte-for-byte. A lone node is replayed twice so determinism
        // of replay itself is still exercised.
        let mut by_head: BTreeMap<u64, Vec<(&Path, &Recovered, String)>> = BTreeMap::new();
        for (dir, recovered) in &histories {
            match replay_image(repository()?, recovered) {
                Ok(image) => by_head
                    .entry(recovered.head_seq())
                    .or_default()
                    .push((dir, recovered, image)),
                Err(err) => {
                    replay_violations.push(format!("{} failed to replay: {err}", dir.display()));
                }
            }
        }
        for (head, images) in &by_head {
            let (first_dir, recovered, first) = &images[0];
            if images.len() == 1 {
                match replay_image(repository()?, recovered) {
                    Ok(second) if &second == first => {}
                    Ok(_) => replay_violations.push(format!(
                        "{} replays non-deterministically at head {head}",
                        first_dir.display()
                    )),
                    Err(err) => replay_violations.push(format!(
                        "{} failed second replay: {err}",
                        first_dir.display()
                    )),
                }
                continue;
            }
            for (dir, _, image) in &images[1..] {
                if image != first {
                    replay_violations.push(format!(
                        "state diverges at head {head}: {} and {} rebuild different images",
                        first_dir.display(),
                        dir.display()
                    ));
                }
            }
        }
    }

    Ok(AuditReport {
        nodes,
        cross_violations,
        replay_violations,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::Journal;
    use mine_itembank::{Exam, Problem};
    use mine_store::StoreOptions;
    use serde::{Deserialize, Value};
    use std::io::Write;

    fn repository() -> Repository {
        let repo = Repository::new();
        repo.insert_problem(Problem::true_false("q1", "1 + 1 = 2", true).unwrap())
            .unwrap();
        repo.insert_exam(
            Exam::builder("quiz")
                .unwrap()
                .entry("q1".parse().unwrap())
                .build()
                .unwrap(),
        )
        .unwrap();
        repo
    }

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("mine-audit-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn journal_events(dir: &Path, payloads: &[&str]) {
        let (journal, _) = Journal::open(dir, StoreOptions::default(), u64::MAX).unwrap();
        for payload in payloads {
            journal.store().append(payload.as_bytes()).unwrap();
        }
        journal.store().sync().unwrap();
    }

    /// A real, replayable `Created` payload (hand-written JSON would
    /// guess at the serde enum encoding).
    fn created_event(student: &str, seed: u64) -> String {
        serde_json::to_string(&SessionEvent::Created {
            exam: "quiz".parse().unwrap(),
            student: student.parse().unwrap(),
            options: mine_delivery::DeliveryOptions {
                seed,
                resumable: true,
                time_accommodation: 1.0,
            },
        })
        .unwrap()
    }

    #[test]
    fn clean_identical_nodes_audit_clean() {
        let a = temp_dir("clean-a");
        let b = temp_dir("clean-b");
        journal_events(&a, &[&created_event("s1", 7), &created_event("s2", 8)]);
        journal_events(&b, &[&created_event("s1", 7), &created_event("s2", 8)]);
        let repo: &dyn Fn() -> Result<Repository, String> = &|| Ok(repository());
        let report = audit_dirs(&[a.clone(), b.clone()], Some(repo)).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.nodes.len(), 2);
        assert_eq!(report.nodes[0].head_seq, 2);
        assert!(report.render().contains("audit: clean"));
        let value: Value = serde_json::from_str(&serde_json::to_string(&report).unwrap()).unwrap();
        assert_eq!(value.get("clean"), Some(&Value::Bool(true)));
        assert_eq!(
            value.get("nodes").and_then(Value::as_array).map(<[_]>::len),
            Some(2)
        );
        let first = &value.get("nodes").and_then(Value::as_array).unwrap()[0];
        assert_eq!(u64::from_value(first.get("head_seq").unwrap()), Ok(2));
        let _ = std::fs::remove_dir_all(&a);
        let _ = std::fs::remove_dir_all(&b);
    }

    #[test]
    fn a_lagging_prefix_is_contained_but_divergence_is_not() {
        // b holds a strict prefix of a: clean.
        let a = temp_dir("prefix-a");
        let b = temp_dir("prefix-b");
        journal_events(&a, &[&created_event("s1", 7), &created_event("s2", 8)]);
        journal_events(&b, &[&created_event("s1", 7)]);
        let report = audit_dirs(&[a.clone(), b.clone()], None).unwrap();
        assert!(report.is_clean(), "{}", report.render());

        // c diverges from a at seq 1: a violation naming the seq.
        let c = temp_dir("prefix-c");
        journal_events(&c, &[&created_event("s2", 8)]);
        let report = audit_dirs(&[a.clone(), c.clone()], None).unwrap();
        assert!(!report.is_clean());
        assert!(
            report.cross_violations[0].contains("seq 1 diverges"),
            "{:?}",
            report.cross_violations
        );
        for dir in [a, b, c] {
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn torn_tails_are_repairs_and_the_original_is_untouched() {
        let dir = temp_dir("torn");
        journal_events(&dir, &[&created_event("s1", 7)]);
        // Tear the tail: append half a frame to the newest segment.
        let segment = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok().map(|e| e.path()))
            .find(|p| p.extension().is_some_and(|ext| ext == "log"))
            .unwrap();
        let before = std::fs::metadata(&segment).unwrap().len();
        let mut file = std::fs::OpenOptions::new()
            .append(true)
            .open(&segment)
            .unwrap();
        file.write_all(&[0x55; 7]).unwrap();
        drop(file);

        let report = audit_dirs(std::slice::from_ref(&dir), None).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        assert_eq!(report.nodes[0].repairs.len(), 1, "{}", report.render());
        // The audit reports the repair but leaves the original as it is.
        assert_eq!(std::fs::metadata(&segment).unwrap().len(), before + 7);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn undecodable_payloads_and_corrupt_epochs_are_violations() {
        let dir = temp_dir("garbage");
        journal_events(&dir, &["this is not a session event"]);
        std::fs::write(dir.join("epoch"), "0").unwrap();
        let report = audit_dirs(std::slice::from_ref(&dir), None).unwrap();
        assert!(!report.is_clean());
        let rendered = report.render();
        assert!(rendered.contains("record seq 1"), "{rendered}");
        assert!(rendered.contains("below the initial epoch"), "{rendered}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn replay_equality_detects_matching_and_single_node_determinism() {
        let dir = temp_dir("replay");
        journal_events(&dir, &[&created_event("s1", 7)]);
        let repo: &dyn Fn() -> Result<Repository, String> = &|| Ok(repository());
        let report = audit_dirs(std::slice::from_ref(&dir), Some(repo)).unwrap();
        assert!(report.is_clean(), "{}", report.render());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
