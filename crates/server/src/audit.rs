//! Offline invariant checking over journal directories (`mine audit`).
//!
//! After a chaos run — injected disk faults, killed primaries,
//! automatic failovers — this module answers the question the scenario
//! scripts need answered mechanically: *is the surviving history
//! actually coherent?* It checks three invariant families:
//!
//! 1. **Per-node integrity.** Each directory must open as a valid
//!    [`EventStore`]: CRC-clean frames, contiguous sequence numbers
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
//!    is rebuilt through [`open_journaled_state`] — the same code path
//!    crash recovery and replica bootstrap use — and captured as a
//!    canonical [`ServerImage`]. Nodes at the same head sequence must
//!    produce byte-identical images; a single node is replayed twice to
//!    prove replay itself is deterministic.
//!
//! The audit never mutates the directories it is pointed at: each one
//! is copied to a scratch directory first, because opening a store
//! repairs (truncates) torn tails in place.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

use mine_itembank::Repository;
use mine_store::{EventStore, StoreOptions, INITIAL_EPOCH};
use serde::{Serialize, Value};

use crate::journal::{decode_payload, open_journaled_state, ServerImage, SessionEvent};

/// What the audit found in one journal directory.
#[derive(Debug)]
pub struct NodeAudit {
    /// The directory audited (the original, not the scratch copy).
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
    /// Repairs a recovery would perform (torn tails truncated). These
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

    /// The machine-readable form of the report (`mine audit --json`):
    /// the overall verdict, per-node head positions and repairs, and
    /// every violation family.
    #[must_use]
    pub fn to_value(&self) -> Value {
        let nodes = Value::Array(
            self.nodes
                .iter()
                .map(|node| {
                    Value::Object(vec![
                        (
                            "dir".to_string(),
                            Value::String(node.dir.display().to_string()),
                        ),
                        ("epoch".to_string(), node.epoch.to_value()),
                        ("snapshot_seq".to_string(), node.snapshot_seq.to_value()),
                        ("head_seq".to_string(), node.head_seq.to_value()),
                        ("events".to_string(), (node.events as u64).to_value()),
                        ("repairs".to_string(), string_array(&node.repairs)),
                        ("violations".to_string(), string_array(&node.violations)),
                    ])
                })
                .collect(),
        );
        Value::Object(vec![
            ("clean".to_string(), Value::Bool(self.is_clean())),
            ("nodes".to_string(), nodes),
            (
                "cross_violations".to_string(),
                string_array(&self.cross_violations),
            ),
            (
                "replay_violations".to_string(),
                string_array(&self.replay_violations),
            ),
            ("violations".to_string(), string_array(&self.violations())),
        ])
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

/// Renders a list of messages as a JSON string array.
fn string_array(items: &[String]) -> Value {
    Value::Array(
        items
            .iter()
            .map(|item| Value::String(item.clone()))
            .collect(),
    )
}

/// Copies the regular files of a flat journal directory into `scratch`
/// so the audit can open (and thereby repair) a throwaway copy.
fn copy_dir(from: &Path, scratch: &Path) -> Result<(), String> {
    std::fs::create_dir_all(scratch)
        .map_err(|err| format!("creating scratch {}: {err}", scratch.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|err| format!("reading {}: {err}", from.display()))?;
    for entry in entries {
        let entry = entry.map_err(|err| format!("reading {}: {err}", from.display()))?;
        let path = entry.path();
        if path.is_file() {
            let to = scratch.join(entry.file_name());
            std::fs::copy(&path, &to)
                .map_err(|err| format!("copying {}: {err}", path.display()))?;
        }
    }
    Ok(())
}

/// The per-record payloads of one node, keyed by sequence number,
/// gathered for the cross-node comparison.
struct NodeRecords {
    snapshot_seq: u64,
    head_seq: u64,
    payloads: BTreeMap<u64, Vec<u8>>,
}

/// Audits one copied directory, returning the findings plus the record
/// map the cross-node pass needs (`None` when the history would not
/// even open).
fn audit_node(original: &Path, scratch: &Path) -> (NodeAudit, Option<NodeRecords>) {
    let mut node = NodeAudit {
        dir: original.to_path_buf(),
        epoch: 0,
        snapshot_seq: 0,
        head_seq: 0,
        events: 0,
        repairs: Vec::new(),
        violations: Vec::new(),
    };
    let (store, recovered) = match EventStore::open(scratch, StoreOptions::default()) {
        Ok(opened) => opened,
        Err(err) => {
            node.violations
                .push(format!("history failed to open: {err}"));
            return (node, None);
        }
    };
    node.repairs = recovered.warnings.clone();
    node.epoch = store.epoch();
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
    node.head_seq = store.next_seq() - 1;
    node.events = recovered.events.len();
    for image in images {
        if let Err(err) = decode_payload::<ServerImage>(&image.payload, "payload") {
            node.violations
                .push(format!("snapshot through {}: {err}", image.last_seq));
        }
    }
    let mut payloads = BTreeMap::new();
    for record in &recovered.events {
        if let Err(err) = decode_payload::<SessionEvent>(&record.payload, "payload") {
            node.violations
                .push(format!("record seq {}: {err}", record.seq));
        }
        payloads.insert(record.seq, record.payload.clone());
    }
    let records = NodeRecords {
        snapshot_seq: node.snapshot_seq,
        head_seq: node.head_seq,
        payloads,
    };
    (node, Some(records))
}

/// Checks acked-prefix containment between every node pair: over the
/// range both nodes hold as tail records, payloads must be
/// byte-identical. (Per-node contiguity is already enforced by
/// [`EventStore::open`], so overlap equality makes the shorter log a
/// literal prefix of the longer.)
fn cross_check(nodes: &[(usize, &Path, NodeRecords)]) -> Vec<String> {
    let mut violations = Vec::new();
    for (i, (_, dir_a, a)) in nodes.iter().enumerate() {
        for (_, dir_b, b) in nodes.iter().skip(i + 1) {
            let lo = (a.snapshot_seq + 1).max(b.snapshot_seq + 1);
            let hi = a.head_seq.min(b.head_seq);
            for seq in lo..=hi {
                match (a.payloads.get(&seq), b.payloads.get(&seq)) {
                    (Some(pa), Some(pb)) if pa != pb => violations.push(format!(
                        "seq {seq} diverges between {} and {}",
                        dir_a.display(),
                        dir_b.display()
                    )),
                    (Some(_), Some(_)) => {}
                    // One side holds the seq only inside its snapshot:
                    // nothing record-wise to compare.
                    _ => {}
                }
            }
        }
    }
    violations
}

/// Rebuilds one node's state from its (scratch) journal and captures
/// the canonical image JSON.
fn replay_image(repository: Repository, scratch: &Path) -> Result<String, String> {
    let (state, _report) =
        open_journaled_state(repository, scratch, StoreOptions::default(), u64::MAX)?;
    let image = ServerImage::capture(&state.registry, &state.finished, &state.adaptive);
    serde_json::to_string(&image).map_err(|err| format!("image failed to serialize: {err}"))
}

/// Audits `dirs` against the three invariant families (see the module
/// docs). `repository` supplies a fresh item database per replay; pass
/// `None` to skip the replay-equality pass (the CLI's `--db` flag).
///
/// # Errors
///
/// Returns a message only for *audit-infrastructure* failures (scratch
/// copies, repository loading); invariant breaches are reported inside
/// the returned [`AuditReport`], never as an `Err`.
pub fn audit_dirs(
    dirs: &[PathBuf],
    repository: Option<&dyn Fn() -> Result<Repository, String>>,
) -> Result<AuditReport, String> {
    if dirs.is_empty() {
        return Err("audit needs at least one directory".to_string());
    }
    // Unique per call, not just per process: audits may run
    // concurrently (the server's own tests do).
    static AUDITS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let call = AUDITS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    let scratch_base =
        std::env::temp_dir().join(format!("mine-audit-{}-{call}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch_base);
    let result = audit_dirs_in(dirs, repository, &scratch_base);
    let _ = std::fs::remove_dir_all(&scratch_base);
    result
}

fn audit_dirs_in(
    dirs: &[PathBuf],
    repository: Option<&dyn Fn() -> Result<Repository, String>>,
    scratch_base: &Path,
) -> Result<AuditReport, String> {
    let mut nodes = Vec::new();
    let mut records = Vec::new();
    let mut scratches = Vec::new();
    for (index, dir) in dirs.iter().enumerate() {
        let scratch = scratch_base.join(format!("node-{index}"));
        copy_dir(dir, &scratch)?;
        let (node, node_records) = audit_node(dir, &scratch);
        if let Some(node_records) = node_records {
            records.push((index, dir.as_path(), node_records));
        }
        nodes.push(node);
        scratches.push(scratch);
    }
    let cross_violations = cross_check(&records);

    let mut replay_violations = Vec::new();
    if let Some(repository) = repository {
        // Replay every openable node; nodes at the same head must agree
        // byte-for-byte. A lone node is replayed twice so determinism
        // of replay itself is still exercised.
        let mut by_head: BTreeMap<u64, Vec<(usize, String)>> = BTreeMap::new();
        for (index, _, node_records) in &records {
            match replay_image(repository()?, &scratches[*index]) {
                Ok(image) => by_head
                    .entry(node_records.head_seq)
                    .or_default()
                    .push((*index, image)),
                Err(err) => replay_violations.push(format!(
                    "{} failed to replay: {err}",
                    dirs[*index].display()
                )),
            }
        }
        for (head, images) in &by_head {
            if images.len() == 1 {
                let (index, first) = &images[0];
                match replay_image(repository()?, &scratches[*index]) {
                    Ok(second) if &second == first => {}
                    Ok(_) => replay_violations.push(format!(
                        "{} replays non-deterministically at head {head}",
                        dirs[*index].display()
                    )),
                    Err(err) => replay_violations.push(format!(
                        "{} failed second replay: {err}",
                        dirs[*index].display()
                    )),
                }
                continue;
            }
            let (first_index, first) = &images[0];
            for (index, image) in &images[1..] {
                if image != first {
                    replay_violations.push(format!(
                        "state diverges at head {head}: {} and {} rebuild different images",
                        dirs[*first_index].display(),
                        dirs[*index].display()
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
            journal.append_raw(payload.as_bytes()).unwrap();
        }
        journal.sync().unwrap();
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
        let value = report.to_value();
        assert_eq!(value.get("clean"), Some(&Value::Bool(true)));
        assert_eq!(
            value.get("nodes").and_then(Value::as_array).map(<[_]>::len),
            Some(2)
        );
        let first = &value.get("nodes").and_then(Value::as_array).unwrap()[0];
        assert_eq!(first.get("head_seq"), Some(&2u64.to_value()));
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
        // The audit repaired its scratch copy, not the original.
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
