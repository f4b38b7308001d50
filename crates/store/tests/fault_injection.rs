//! Fault-injection tests: the store must survive exactly the failures
//! a production crash produces — torn tails, kill -9 mid-append,
//! compaction interrupted halfway — and must refuse to silently accept
//! the one failure a crash cannot produce: corruption in the middle of
//! committed history.

use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

use mine_store::{EventStore, FaultPlan, StoreError, StoreOptions, SyncPolicy};

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("mine-store-fault-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Paths of every WAL segment in `dir`, sorted by first sequence.
fn segment_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            let name = p.file_name().unwrap().to_string_lossy();
            name.starts_with("wal-") && name.ends_with(".log")
        })
        .collect();
    paths.sort();
    paths
}

fn total_segment_bytes(dir: &Path) -> u64 {
    segment_paths(dir)
        .iter()
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum()
}

#[test]
fn torn_tail_is_truncated_with_warning_and_the_log_stays_appendable() {
    let dir = temp_dir("torn-tail");
    {
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..3 {
            store.append(format!("intact-{i}").as_bytes()).unwrap();
        }
    }
    // Simulate a crash mid-append: a partial frame at the end.
    let segment = segment_paths(&dir).pop().unwrap();
    let intact_len = std::fs::metadata(&segment).unwrap().len();
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes.extend_from_slice(&[0x2A; 7]); // half a header
    std::fs::write(&segment, &bytes).unwrap();

    let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(recovered.events.len(), 3);
    assert_eq!(recovered.warnings.len(), 1, "{:?}", recovered.warnings);
    assert!(
        recovered.warnings[0].contains("torn tail"),
        "{:?}",
        recovered.warnings
    );
    assert_eq!(
        std::fs::metadata(&segment).unwrap().len(),
        intact_len,
        "torn bytes must be physically truncated"
    );
    assert_eq!(store.append(b"after-repair").unwrap(), 4);
    drop(store);

    // A second recovery is clean: the repair left no scar.
    let (_, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(recovered.events.len(), 4);
    assert!(recovered.warnings.is_empty(), "{:?}", recovered.warnings);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_record_mid_stream_is_a_hard_corruption_error() {
    let dir = temp_dir("bit-flip-mid");
    {
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..4 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
    }
    let segment = segment_paths(&dir).pop().unwrap();
    let mut bytes = std::fs::read(&segment).unwrap();
    bytes[20] ^= 0x40; // inside the first record's payload
    std::fs::write(&segment, &bytes).unwrap();

    match EventStore::open(&dir, StoreOptions::default()) {
        Err(StoreError::Corrupt { offset, reason, .. }) => {
            assert_eq!(offset, 0);
            assert!(reason.contains("CRC"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn bit_flipped_final_record_is_repaired_like_a_torn_write() {
    let dir = temp_dir("bit-flip-tail");
    {
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..4 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
    }
    let segment = segment_paths(&dir).pop().unwrap();
    let mut bytes = std::fs::read(&segment).unwrap();
    let last = bytes.len() - 1;
    bytes[last] ^= 0x01;
    std::fs::write(&segment, &bytes).unwrap();

    let (_, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(
        recovered.events.len(),
        3,
        "the damaged final record is dropped"
    );
    assert_eq!(recovered.warnings.len(), 1);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corruption_in_an_earlier_segment_is_never_repaired() {
    let dir = temp_dir("early-segment");
    let options = StoreOptions {
        max_segment_bytes: 64,
        ..StoreOptions::default()
    };
    {
        let (store, _) = EventStore::open(&dir, options.clone()).unwrap();
        for i in 0..10 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
    }
    let segments = segment_paths(&dir);
    assert!(segments.len() > 1, "need rotation for this test");
    // Truncate the FIRST segment: this is mid-history damage even
    // though within its own file it looks like a torn tail.
    let first = &segments[0];
    let len = std::fs::metadata(first).unwrap().len();
    std::fs::OpenOptions::new()
        .write(true)
        .open(first)
        .unwrap()
        .set_len(len - 3)
        .unwrap();
    assert!(matches!(
        EventStore::open(&dir, options),
        Err(StoreError::Corrupt { .. })
    ));
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn stale_segments_left_by_interrupted_compaction_are_skipped() {
    let dir = temp_dir("stale-compaction");
    {
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..5 {
            store.append(format!("old-{i}").as_bytes()).unwrap();
        }
        // Keep a copy of the pre-compaction segment, snapshot (which
        // deletes it), then put it back — exactly the directory a crash
        // between snapshot rename and segment cleanup leaves behind.
        let old_segment = segment_paths(&dir).pop().unwrap();
        let old_bytes = std::fs::read(&old_segment).unwrap();
        store.snapshot(b"compacted-state").unwrap();
        std::fs::write(&old_segment, &old_bytes).unwrap();
        store.append(b"new-after-snapshot").unwrap();
    }

    let (_, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(
        recovered.snapshot.as_ref().unwrap().payload,
        b"compacted-state"
    );
    let payloads: Vec<&[u8]> = recovered
        .events
        .iter()
        .map(|r| r.payload.as_slice())
        .collect();
    assert_eq!(payloads, [b"new-after-snapshot".as_slice()]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sequence_gaps_in_committed_history_are_corruption() {
    let dir = temp_dir("seq-gap");
    {
        let (store, _) = EventStore::open(&dir, StoreOptions::default()).unwrap();
        for i in 0..3 {
            store.append(format!("record-{i}").as_bytes()).unwrap();
        }
    }
    // Delete the middle record by splicing the segment image: frames
    // stay individually valid but seq 2 vanishes.
    let segment = segment_paths(&dir).pop().unwrap();
    let bytes = std::fs::read(&segment).unwrap();
    let frame_len = bytes.len() / 3;
    let mut spliced = bytes[..frame_len].to_vec();
    spliced.extend_from_slice(&bytes[2 * frame_len..]);
    std::fs::write(&segment, &spliced).unwrap();

    match EventStore::open(&dir, StoreOptions::default()) {
        Err(StoreError::Corrupt { reason, .. }) => {
            assert!(reason.contains("sequence gap"), "{reason}");
        }
        other => panic!("expected Corrupt, got {other:?}"),
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn disk_full_mid_append_never_exposes_a_half_frame() {
    let dir = temp_dir("disk-full");
    // Fail the 4th append after 9 bytes — mid-header, the nastiest
    // possible torn write — under the *interval* policy so the failed
    // frame was never individually fsynced either.
    let options = StoreOptions {
        sync: SyncPolicy::Interval(Duration::from_millis(50)),
        fault_plan: Some(std::sync::Arc::new(
            FaultPlan::parse("disk.torn@4:9").unwrap(),
        )),
        ..StoreOptions::default()
    };
    let (store, _) = EventStore::open(&dir, options).unwrap();
    for i in 0..3 {
        store
            .append(format!("durable-{i}").as_bytes())
            .expect("appends before the fault succeed");
    }
    let err = store.append(b"lost-to-enospc").unwrap_err();
    assert!(matches!(err, StoreError::Io(_)), "typed I/O error: {err}");
    // The retried append heals the truncated tail first, then re-hits
    // the persistent seq-keyed fault: a fresh I/O error each time, and
    // still no half-frame sneaks past the damage.
    assert!(matches!(
        store.append(b"after-the-fault"),
        Err(StoreError::Io(_))
    ));
    drop(store);

    // What recovery sees is exactly what replication would stream: the
    // three intact records, contiguous from seq 1, no repair needed.
    let (store, recovered) = EventStore::open(&dir, StoreOptions::default()).unwrap();
    assert_eq!(
        recovered.events.iter().map(|r| r.seq).collect::<Vec<_>>(),
        [1, 2, 3]
    );
    assert!(
        recovered.warnings.is_empty(),
        "half-frame should have been truncated at fault time, not repaired at recovery: {:?}",
        recovered.warnings
    );
    // The segment file itself holds no trace of the failed append.
    let on_disk: u64 = total_segment_bytes(&dir);
    let intact: u64 = recovered
        .events
        .iter()
        .map(|r| (mine_store::frame::HEADER_BYTES + r.payload.len()) as u64)
        .sum();
    assert_eq!(on_disk, intact, "no partial bytes beyond the intact frames");
    // And the reopened store resumes the sequence with no gap.
    assert_eq!(store.append(b"resumed").unwrap(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Re-exec helper: when `MINE_STORE_CRASH_DIR` is set this "test" is a
/// child process that appends records as fast as it can until its
/// parent kills it with SIGKILL. Without the variable it is a no-op.
#[test]
fn crash_child_appender() {
    let Some(dir) = std::env::var_os("MINE_STORE_CRASH_DIR") else {
        return;
    };
    let options = StoreOptions {
        // Small segments so the crash run exercises rotation too; the
        // OS page cache survives a process kill, so `Never` still
        // persists every completed write() while maximizing the chance
        // the kill lands mid-frame.
        sync: SyncPolicy::Never,
        max_segment_bytes: 4096,
        ..StoreOptions::default()
    };
    let (store, _) = EventStore::open(PathBuf::from(dir), options).unwrap();
    loop {
        let seq = store.next_seq();
        store.append(format!("event-{seq}").as_bytes()).unwrap();
    }
}

#[test]
fn kill_nine_mid_append_recovers_an_intact_contiguous_prefix() {
    let dir = temp_dir("kill-nine");
    std::fs::create_dir_all(&dir).unwrap();
    let exe = std::env::current_exe().unwrap();
    let mut child = Command::new(exe)
        .args(["crash_child_appender", "--exact", "--nocapture"])
        .env("MINE_STORE_CRASH_DIR", &dir)
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .unwrap();

    // Let the child write a meaningful amount of log, then kill -9 it
    // mid-flight.
    let deadline = Instant::now() + Duration::from_secs(10);
    while total_segment_bytes(&dir) < 64 * 1024 && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(10));
    }
    assert!(
        total_segment_bytes(&dir) > 0,
        "child never wrote anything before the deadline"
    );
    child.kill().unwrap(); // SIGKILL on unix: no destructors, no flushes
    child.wait().unwrap();

    let options = StoreOptions {
        max_segment_bytes: 4096,
        ..StoreOptions::default()
    };
    let (store, recovered) = EventStore::open(&dir, options.clone()).unwrap();
    assert!(
        !recovered.events.is_empty(),
        "expected a recoverable prefix of the child's appends"
    );
    for (index, record) in recovered.events.iter().enumerate() {
        let seq = index as u64 + 1;
        assert_eq!(
            record.seq, seq,
            "sequence numbers must be contiguous from 1"
        );
        assert_eq!(
            record.payload,
            format!("event-{seq}").as_bytes(),
            "payload of seq {seq} must match what the child wrote"
        );
    }
    // The repaired log accepts new appends exactly where the child
    // stopped.
    let next = store.next_seq();
    assert_eq!(next, recovered.events.len() as u64 + 1);
    assert_eq!(store.append(b"post-crash").unwrap(), next);
    drop(store);

    // And a second recovery agrees with the first plus the new record.
    let (_, again) = EventStore::open(&dir, options).unwrap();
    assert!(again.warnings.is_empty(), "{:?}", again.warnings);
    assert_eq!(again.events.len(), recovered.events.len() + 1);
    assert_eq!(again.events[..recovered.events.len()], recovered.events[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}
