//! Property tests for the scrub pass.
//!
//! Three guarantees anti-entropy leans on:
//!
//! 1. **No false positives** — a scrub over any journal produced purely
//!    by clean appends (whatever the payloads, segment size, or
//!    snapshot cadence) never reports corruption, online or offline. A
//!    scrubber that cried wolf would quarantine healthy history.
//! 2. **Range hashes are content hashes** — two journals hash equal iff
//!    their `(seq, payload)` ranges are byte-equal, independent of how
//!    the records happen to be cut into segments.
//! 3. **One verdict** — after any one damage to a clean journal, the
//!    offline scrub is clean exactly when `EventStore::open` accepts the
//!    directory. The three named tests at the end pin the cases where
//!    the two once disagreed.

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use mine_store::frame::encode;
use mine_store::{scrub_dir, EventStore, StoreError, StoreOptions};

fn temp_dir(tag: &str, case: u64) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "mine-scrub-prop-{tag}-{case}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn build(dir: &std::path::Path, payloads: &[Vec<u8>], max_segment_bytes: u64, snapshot_at: usize) {
    let options = StoreOptions {
        max_segment_bytes,
        ..StoreOptions::default()
    };
    let (store, _) = EventStore::open(dir, options).unwrap();
    for (index, payload) in payloads.iter().enumerate() {
        store.append(payload).unwrap();
        if index + 1 == snapshot_at {
            store.snapshot(b"mid-run snapshot image").unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A journal written only by successful appends scrubs clean, both
    /// online (active segment excluded) and offline.
    #[test]
    fn clean_journals_never_report_corruption(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..40),
        max_segment_bytes in 48_u64..512,
        snapshot_at in 0_usize..40,
        case in any::<u64>(),
    ) {
        let dir = temp_dir("clean", case);
        let options = StoreOptions { max_segment_bytes, ..StoreOptions::default() };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        for (index, payload) in payloads.iter().enumerate() {
            store.append(payload).unwrap();
            if index + 1 == snapshot_at {
                store.snapshot(b"mid-run snapshot image").unwrap();
            }
        }
        let online = scrub_dir(&dir, Some(&store.active_segment())).unwrap();
        prop_assert!(online.is_clean(), "online: {online:?}");
        drop(store);
        let offline = scrub_dir(&dir, None).unwrap();
        prop_assert!(offline.is_clean(), "offline: {offline:?}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Range hashes are equal iff the `(seq, payload)` history is
    /// byte-equal — even when the two journals cut that history into
    /// differently sized segments.
    #[test]
    fn range_hashes_equal_iff_ranges_byte_equal(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 1..32), 1..24),
        seg_a in 48_u64..512,
        seg_b in 48_u64..512,
        mutate in proptest::option::of((any::<u64>(), any::<u64>(), any::<u8>())),
        case in any::<u64>(),
    ) {
        let dir_a = temp_dir("eq-a", case);
        let dir_b = temp_dir("eq-b", case);
        build(&dir_a, &payloads, seg_a, 0);
        let mut altered = payloads.clone();
        let mut expect_equal = true;
        if let Some((record_pick, byte_pick, xor)) = mutate {
            let record = usize::try_from(record_pick).unwrap_or(usize::MAX) % altered.len();
            let byte = usize::try_from(byte_pick).unwrap_or(usize::MAX) % altered[record].len();
            if xor != 0 {
                altered[record][byte] ^= xor;
                expect_equal = false;
            }
        }
        build(&dir_b, &altered, seg_b, 0);
        let a = scrub_dir(&dir_a, None).unwrap();
        let b = scrub_dir(&dir_b, None).unwrap();
        prop_assert!(a.is_clean() && b.is_clean());
        prop_assert_eq!(a.ranges == b.ranges, expect_equal);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }
}

/// The damages the one-verdict property applies to a clean journal.
#[derive(Debug, Clone, Copy)]
enum Damage {
    /// Cut a store file at an offset inside it.
    Truncate,
    /// XOR one byte of a store file.
    FlipByte,
    /// Delete one segment.
    RemoveSegment,
    /// Add an empty segment named after every existing one.
    EmptyTrailingSegment,
    /// Delete the base image.
    RemoveBase,
    /// Overwrite the `epoch` file with text that is not a number.
    GarbageEpoch,
}

/// The store's files in `dir` (segments and images), sorted by name.
fn store_files(dir: &Path, prefixes: &[&str]) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .filter(|path| {
            let name = path.file_name().unwrap().to_string_lossy();
            prefixes.iter().any(|prefix| name.starts_with(prefix))
        })
        .collect();
    paths.sort();
    paths
}

/// Applies `damage` to the directory; `pick` chooses the file and the
/// offset. A damage with nothing to act on leaves the journal clean.
fn apply(dir: &Path, damage: Damage, pick: u64) {
    let choose = |paths: Vec<PathBuf>| {
        let index = usize::try_from(pick % 97).unwrap() % paths.len().max(1);
        paths.into_iter().nth(index)
    };
    let non_empty = |paths: Vec<PathBuf>| -> Vec<PathBuf> {
        paths
            .into_iter()
            .filter(|path| std::fs::metadata(path).unwrap().len() > 0)
            .collect()
    };
    match damage {
        Damage::Truncate | Damage::FlipByte => {
            let files = non_empty(store_files(dir, &["wal-", "snapshot-", "delta-"]));
            let Some(path) = choose(files) else { return };
            let mut bytes = std::fs::read(&path).unwrap();
            let at = usize::try_from(pick / 97).unwrap_or(usize::MAX) % bytes.len();
            if matches!(damage, Damage::Truncate) {
                bytes.truncate(at);
            } else {
                bytes[at] ^= 0x5A;
            }
            std::fs::write(&path, bytes).unwrap();
        }
        Damage::RemoveSegment => {
            if let Some(path) = choose(store_files(dir, &["wal-"])) {
                std::fs::remove_file(path).unwrap();
            }
        }
        Damage::EmptyTrailingSegment => {
            let last = store_files(dir, &["wal-"]).pop().map_or(0, |path| {
                let name = path.file_name().unwrap().to_string_lossy().into_owned();
                name["wal-".len()..name.len() - ".log".len()]
                    .parse::<u64>()
                    .unwrap()
            });
            let name = format!("wal-{:020}.log", last + 1 + pick % 8);
            std::fs::write(dir.join(name), b"").unwrap();
        }
        Damage::RemoveBase => {
            if let Some(path) = store_files(dir, &["snapshot-"]).pop() {
                std::fs::remove_file(path).unwrap();
            }
        }
        Damage::GarbageEpoch => std::fs::write(dir.join("epoch"), b"seven").unwrap(),
    }
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::create_dir_all(to).unwrap();
    for entry in std::fs::read_dir(from).unwrap() {
        let path = entry.unwrap().path();
        std::fs::copy(&path, to.join(path.file_name().unwrap())).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// One damage to a clean journal (with or without a base and a
    /// delta): the offline scrub is clean iff `open` succeeds on a copy.
    #[test]
    fn offline_scrub_is_clean_iff_open_accepts(
        payloads in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..40), 1..30),
        max_segment_bytes in 48_u64..256,
        base_at in 0_usize..30,
        delta_at in 0_usize..30,
        damage in prop_oneof![
            Just(Damage::Truncate),
            Just(Damage::FlipByte),
            Just(Damage::RemoveSegment),
            Just(Damage::EmptyTrailingSegment),
            Just(Damage::RemoveBase),
            Just(Damage::GarbageEpoch),
        ],
        pick in any::<u64>(),
        case in any::<u64>(),
    ) {
        let dir = temp_dir("verdict", case);
        let options = StoreOptions { max_segment_bytes, ..StoreOptions::default() };
        let (store, _) = EventStore::open(&dir, options).unwrap();
        for (index, payload) in payloads.iter().enumerate() {
            store.append(payload).unwrap();
            if index + 1 == base_at {
                store.snapshot(b"base image").unwrap();
            } else if index + 1 == delta_at && base_at > 0 && delta_at > base_at {
                store.snapshot_delta(b"delta image").unwrap();
            }
        }
        drop(store);
        apply(&dir, damage, pick);

        let report = scrub_dir(&dir, None).unwrap();
        let copy = temp_dir("verdict-copy", case);
        copy_dir(&dir, &copy);
        let opened = EventStore::open(&copy, StoreOptions::default()).map(|_| ());
        prop_assert_eq!(
            report.is_clean(),
            opened.is_ok(),
            "{:?}: open {:?}, scrub {:?}",
            damage,
            opened,
            report
        );
        std::fs::remove_dir_all(&dir).unwrap();
        std::fs::remove_dir_all(&copy).unwrap();
    }
}

/// Writes `seqs` as one segment named after its first seq, with
/// `extra` bytes appended.
fn write_segment(dir: &Path, seqs: std::ops::RangeInclusive<u64>, extra: &[u8]) {
    let first = *seqs.start();
    let mut bytes: Vec<u8> = seqs.flat_map(|seq| encode(seq, b"record")).collect();
    bytes.extend_from_slice(extra);
    std::fs::write(dir.join(format!("wal-{first:020}.log")), bytes).unwrap();
}

fn fresh(tag: &str) -> PathBuf {
    let dir = temp_dir(tag, 0);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn a_missing_middle_segment_is_damage_to_both() {
    let dir = fresh("missing-middle");
    write_segment(&dir, 1..=2, b"");
    write_segment(&dir, 5..=6, b"");
    let report = scrub_dir(&dir, None).unwrap();
    assert!(!report.is_clean(), "{report:?}");
    let corrupt = report.corrupt_segments();
    assert_eq!(corrupt.len(), 1, "{report:?}");
    assert_eq!(corrupt[0].first_seq, 5);
    assert!(
        corrupt[0]
            .corrupt
            .as_deref()
            .unwrap()
            .contains("expected 3, found 5"),
        "{report:?}"
    );
    match EventStore::open(&dir, StoreOptions::default()) {
        Err(StoreError::Corrupt { reason, .. }) => {
            assert_eq!(reason, "sequence gap: expected 3, found 5");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_torn_tail_before_an_empty_segment_is_repairable_to_both() {
    let dir = fresh("torn-then-empty");
    write_segment(&dir, 1..=2, &encode(3, b"record")[..7]);
    std::fs::write(dir.join(format!("wal-{:020}.log", 3)), b"").unwrap();
    let report = scrub_dir(&dir, None).unwrap();
    assert!(report.is_clean(), "{report:?}");
    let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(recovered.events.len(), 2);
    assert_eq!(recovered.warnings.len(), 1, "{:?}", recovered.warnings);
    assert_eq!(store.next_seq(), 3);
    drop(store);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_delta_without_a_base_is_damage_to_both() {
    let dir = fresh("orphan-delta");
    std::fs::write(dir.join(format!("delta-{:020}.snap", 4)), b"d-4").unwrap();
    write_segment(&dir, 5..=6, b"");
    let report = scrub_dir(&dir, None).unwrap();
    assert!(!report.is_clean(), "{report:?}");
    assert_eq!(report.corrupt_images(), 1, "{report:?}");
    assert!(matches!(
        EventStore::open(&dir, StoreOptions::default()),
        Err(StoreError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}
