//! Property tests for the replication stream's integrity rules: any
//! dropped, duplicated, or reordered WAL record is rejected with a
//! typed error *before* it is applied — a follower either mirrors the
//! primary's history exactly or stops.

use proptest::prelude::*;

use mine_store::replicate::{read_message, write_message, Message, MAX_BODY_BYTES};
use mine_store::{ReplError, StreamCursor};

/// An arbitrary message of every protocol variant, with bounded
/// payloads and ASCII text fields.
fn arb_message() -> impl Strategy<Value = Message> {
    let bytes = || proptest::collection::vec(any::<u8>(), 0..256);
    let text = || {
        proptest::collection::vec(0_u8..26, 0..32).prop_map(|letters| {
            letters
                .into_iter()
                .map(|l| char::from(b'a' + l))
                .collect::<String>()
        })
    };
    prop_oneof![
        (0_u64..u64::MAX, 0_u64..u64::MAX).prop_map(|(epoch, last_applied)| Message::Hello {
            epoch,
            last_applied
        }),
        (0_u64..u64::MAX, text())
            .prop_map(|(epoch, advertise)| Message::Welcome { epoch, advertise }),
        text().prop_map(|reason| Message::Reject { reason }),
        (0_u64..u64::MAX, bytes())
            .prop_map(|(last_seq, payload)| Message::Snapshot { last_seq, payload }),
        (0_u64..u64::MAX, bytes()).prop_map(|(seq, payload)| Message::Record { seq, payload }),
        (0_u64..u64::MAX, 0_u64..u64::MAX)
            .prop_map(|(epoch, head_seq)| Message::Heartbeat { epoch, head_seq }),
        (0_u64..u64::MAX).prop_map(|seq| Message::Ack { seq }),
    ]
}

/// Drives a cursor over a stream of sequence numbers the way the
/// follower does: admit each in order, apply only on success.
fn apply_stream(start: u64, seqs: &[u64]) -> (Vec<u64>, Option<ReplError>) {
    let mut cursor = StreamCursor::new(1, start);
    let mut applied = Vec::new();
    for &seq in seqs {
        match cursor.admit(seq) {
            Ok(()) => applied.push(seq),
            Err(err) => return (applied, Some(err)),
        }
    }
    (applied, None)
}

/// A mutation a faulty network (or buggy primary) could inflict on an
/// otherwise perfect stream.
#[derive(Debug, Clone)]
enum Corruption {
    /// Remove the record at this index.
    Drop(usize),
    /// Repeat the record at this index immediately.
    Duplicate(usize),
    /// Swap the records at this index and the next.
    Swap(usize),
}

fn arb_corruption(len: usize) -> impl Strategy<Value = Corruption> {
    // Swapping needs a successor; clamp indices into range.
    prop_oneof![
        (0..len).prop_map(Corruption::Drop),
        (0..len).prop_map(Corruption::Duplicate),
        (0..len.saturating_sub(1).max(1)).prop_map(Corruption::Swap),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// An intact contiguous stream is fully applied.
    #[test]
    fn intact_streams_apply_completely(start in 1_u64..1_000, len in 0_usize..64) {
        let seqs: Vec<u64> = (start..start + len as u64).collect();
        let (applied, err) = apply_stream(start, &seqs);
        prop_assert!(err.is_none(), "{err:?}");
        prop_assert_eq!(applied, seqs);
    }

    /// Every single-fault corruption of a contiguous stream is caught
    /// with the matching typed error, and nothing at or past the fault
    /// is ever applied.
    #[test]
    fn corrupted_streams_are_rejected_before_application(
        start in 1_u64..1_000,
        len in 2_usize..64,
        corruption in (2_usize..64).prop_flat_map(arb_corruption),
    ) {
        let seqs: Vec<u64> = (start..start + len as u64).collect();
        let mut stream = seqs.clone();
        let fault_index = match corruption {
            Corruption::Drop(i) => {
                // Dropping the *final* record leaves a shorter but still
                // contiguous stream — the gap only becomes observable
                // when a later record arrives — so drop a non-final one.
                let i = i % (len - 1);
                stream.remove(i);
                i
            }
            Corruption::Duplicate(i) => {
                let i = i % len;
                stream.insert(i + 1, stream[i]);
                i + 1
            }
            Corruption::Swap(i) => {
                let i = i % (len - 1);
                stream.swap(i, i + 1);
                i
            }
        };
        let (applied, err) = apply_stream(start, &stream);
        // The error is typed by the direction of the violation.
        match corruption {
            Corruption::Drop(_) => {
                prop_assert!(matches!(err, Some(ReplError::SequenceGap { .. })), "{err:?}");
            }
            Corruption::Duplicate(_) => {
                prop_assert!(matches!(err, Some(ReplError::DuplicateRecord { .. })), "{err:?}");
            }
            Corruption::Swap(_) => {
                // The first out-of-order record jumps ahead: a gap.
                prop_assert!(matches!(err, Some(ReplError::SequenceGap { .. })), "{err:?}");
            }
        }
        // Everything before the fault applied; the fault and everything
        // after it did not.
        prop_assert_eq!(applied.as_slice(), &stream[..fault_index]);
        prop_assert_eq!(applied.as_slice(), &seqs[..fault_index]);
    }

    /// Wire frames round-trip for arbitrary record payloads, and any
    /// single flipped bit is caught by the CRC before decoding.
    #[test]
    fn record_frames_round_trip_and_detect_bit_flips(
        seq in 0_u64..u64::MAX,
        payload in proptest::collection::vec(any::<u8>(), 0..512),
        flip_bit in 0_usize..128,
    ) {
        let message = Message::Record { seq, payload };
        let frame = message.encode().unwrap();
        let decoded = read_message(&mut &frame[..]).unwrap();
        prop_assert_eq!(&decoded, &message);

        let mut damaged = frame.clone();
        let bit = flip_bit % (damaged.len() * 8);
        damaged[bit / 8] ^= 1 << (bit % 8);
        match read_message(&mut &damaged[..]) {
            // Flips in the length field may manifest as a short read /
            // oversize refusal; anywhere else the CRC catches it. A
            // flip must never decode into a *different* valid message.
            Ok(same) => prop_assert_eq!(same, message, "damaged frame decoded differently"),
            Err(ReplError::Frame { .. } | ReplError::Io(_)) => {}
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// Every protocol variant round-trips through the public
    /// `write_message`/`read_message` pair.
    #[test]
    fn every_message_variant_round_trips(message in arb_message()) {
        let mut wire = Vec::new();
        write_message(&mut wire, &message).unwrap();
        let decoded = read_message(&mut &wire[..]).unwrap();
        prop_assert_eq!(decoded, message);
    }

    /// A frame truncated at any point — mid-header, mid-body, anywhere —
    /// fails with a clean typed error, never a panic, and a reader fed
    /// only a finite prefix cannot hang.
    #[test]
    fn truncated_tails_fail_with_typed_errors(
        message in arb_message(),
        cut_fraction in 0.0_f64..1.0,
    ) {
        let mut wire = Vec::new();
        write_message(&mut wire, &message).unwrap();
        let cut = (((wire.len() as f64) * cut_fraction) as usize).min(wire.len() - 1);
        match read_message(&mut &wire[..cut]) {
            Err(ReplError::Io(err)) => {
                prop_assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{err}");
            }
            Err(ReplError::Frame { .. }) => {}
            Ok(decoded) => prop_assert!(false, "truncated frame decoded: {decoded:?}"),
            Err(other) => prop_assert!(false, "unexpected error class: {other:?}"),
        }
    }

    /// A length prefix beyond `MAX_BODY_BYTES` is refused from the
    /// header alone — before any body allocation or read — whatever
    /// junk follows it.
    #[test]
    fn oversized_length_prefixes_are_refused_from_the_header(
        excess in 1_u64..u32::MAX as u64 - MAX_BODY_BYTES as u64,
        crc in 0_u32..u32::MAX,
        junk in proptest::collection::vec(any::<u8>(), 0..64),
    ) {
        let len = (MAX_BODY_BYTES as u64 + excess) as u32;
        let mut wire = Vec::new();
        wire.extend_from_slice(&len.to_le_bytes());
        wire.extend_from_slice(&crc.to_le_bytes());
        wire.extend_from_slice(&junk);
        match read_message(&mut &wire[..]) {
            Err(ReplError::Frame { reason }) => {
                prop_assert!(reason.contains("exceeds"), "{reason}");
            }
            other => prop_assert!(false, "expected Frame refusal, got {other:?}"),
        }
    }
}
