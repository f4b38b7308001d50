//! The replication wire protocol and stream-integrity checks.
//!
//! A primary ships its WAL to followers over a length-prefixed,
//! CRC-protected TCP stream. This module owns the *format* and the
//! *integrity rules*; the server crate owns the sockets and threads.
//!
//! # Wire format
//!
//! Every message travels in one frame:
//!
//! ```text
//! offset  size  field
//!      0     4  body length (u32 LE)
//!      4     4  CRC-32/IEEE over the body (u32 LE)
//!      8     n  body: tag byte followed by the message fields
//! ```
//!
//! Integers are u64 LE; byte strings are `[len u32 LE][bytes]`. The CRC
//! reuses the WAL's [`crate::frame::crc32`], so a flipped bit anywhere
//! in transit is caught before a follower applies anything.
//!
//! # Session shape
//!
//! ```text
//! follower                          primary
//!    │ ── Hello{epoch, last_applied} ──▶ │
//!    │ ◀── Welcome{epoch, advertise} ─── │   (or Reject)
//!    │ ◀── Snapshot{last_seq, payload} ─ │   full bootstrap image
//!    │ ◀── Record{seq, payload} ──────── │   live tail, strictly ordered
//!    │ ─── Ack{seq} ───────────────────▶ │   after local flush
//!    │ ◀── Heartbeat{epoch, head_seq} ── │   idle keep-alive + lag probe
//! ```
//!
//! # Integrity rules
//!
//! [`StreamCursor`] enforces the two invariants a follower must never
//! relax: records arrive in *exactly* contiguous sequence order (a gap
//! means an acked write would be silently missing; a duplicate or
//! reordering means double-apply), and every record belongs to an epoch
//! at least as new as the follower's — a lower epoch is a deposed
//! primary still talking, and applying its records is split-brain.

use std::io::{Read, Write};

use crate::frame::crc32;

/// Largest accepted message body. A bootstrap [`Message::Snapshot`]
/// carries the primary's whole image, about 9.7 MB at 1,000 sittings,
/// so the bound sits far above the WAL's 16 MiB record limit: 1 GiB
/// (some 100,000 sittings) is more than any node holds in memory, and
/// below the 4 GiB the u32 length field can express.
pub const MAX_BODY_BYTES: usize = 1 << 30;

/// Everything that can go wrong on the replication stream.
#[derive(Debug)]
pub enum ReplError {
    /// The underlying socket or file operation failed.
    Io(std::io::Error),
    /// A frame failed to decode: bad CRC, unknown tag, truncated or
    /// oversized body. The stream cannot be trusted past this point.
    Frame {
        /// What failed to check out.
        reason: String,
    },
    /// A record arrived with a sequence number *beyond* the next
    /// expected one: records were dropped in between. Applying it would
    /// silently lose acknowledged writes.
    SequenceGap {
        /// The sequence number the follower expected next.
        expected: u64,
        /// The sequence number that actually arrived.
        found: u64,
    },
    /// A record arrived with a sequence number *behind* the next
    /// expected one: a duplicate or a reordering. Applying it would
    /// double-apply history.
    DuplicateRecord {
        /// The sequence number the follower expected next.
        expected: u64,
        /// The sequence number that actually arrived.
        found: u64,
    },
    /// The remote claims an epoch older than ours: a deposed primary.
    /// Nothing it sends may be applied.
    StaleEpoch {
        /// The epoch the remote claimed.
        remote: u64,
        /// Our own durable epoch.
        local: u64,
    },
    /// The peer rejected the handshake, with its stated reason.
    Rejected {
        /// The reason carried in the [`Message::Reject`] frame.
        reason: String,
    },
}

impl std::fmt::Display for ReplError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplError::Io(err) => write!(f, "replication I/O error: {err}"),
            ReplError::Frame { reason } => write!(f, "bad replication frame: {reason}"),
            ReplError::SequenceGap { expected, found } => write!(
                f,
                "replication gap: expected seq {expected}, stream jumped to {found}"
            ),
            ReplError::DuplicateRecord { expected, found } => write!(
                f,
                "replication replay: expected seq {expected}, stream repeated {found}"
            ),
            ReplError::StaleEpoch { remote, local } => write!(
                f,
                "stale epoch {remote} (local epoch is {local}): refusing a deposed primary"
            ),
            ReplError::Rejected { reason } => write!(f, "peer rejected replication: {reason}"),
        }
    }
}

impl std::error::Error for ReplError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ReplError::Io(err) => Some(err),
            _ => None,
        }
    }
}

impl From<std::io::Error> for ReplError {
    fn from(err: std::io::Error) -> Self {
        ReplError::Io(err)
    }
}

/// A local store failure ends the stream like a socket failure does.
impl From<crate::StoreError> for ReplError {
    fn from(err: crate::StoreError) -> Self {
        ReplError::Io(std::io::Error::other(err.to_string()))
    }
}

/// One replication protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Message {
    /// Follower → primary: who I am and how far I have applied.
    Hello {
        /// The follower's durable epoch.
        epoch: u64,
        /// Highest sequence number the follower has applied.
        last_applied: u64,
    },
    /// Primary → follower: handshake accepted; adopt this epoch.
    Welcome {
        /// The primary's durable epoch.
        epoch: u64,
        /// The primary's client-facing address, opaque to the protocol.
        /// Followers hand it to redirected writers so clients can find
        /// the leader without out-of-band configuration.
        advertise: String,
    },
    /// Either direction: handshake refused (stale epoch, wrong role).
    Reject {
        /// Human-readable refusal reason.
        reason: String,
    },
    /// Primary → follower: full bootstrap image covering seq ≤ `last_seq`.
    Snapshot {
        /// Every record with seq ≤ this is captured by the payload.
        last_seq: u64,
        /// The caller's snapshot bytes ([`crate::Snapshot::payload`] format).
        payload: Vec<u8>,
    },
    /// Primary → follower: one WAL record, in strict sequence order.
    Record {
        /// The record's sequence number.
        seq: u64,
        /// The payload exactly as appended on the primary.
        payload: Vec<u8>,
    },
    /// Primary → follower: keep-alive carrying the primary's head.
    Heartbeat {
        /// The primary's durable epoch.
        epoch: u64,
        /// Highest sequence number the primary has appended.
        head_seq: u64,
    },
    /// Follower → primary: everything through `seq` is locally durable.
    Ack {
        /// Highest sequence number flushed on the follower.
        seq: u64,
    },
}

const TAG_HELLO: u8 = 1;
const TAG_WELCOME: u8 = 2;
const TAG_REJECT: u8 = 3;
const TAG_SNAPSHOT: u8 = 4;
const TAG_RECORD: u8 = 5;
const TAG_HEARTBEAT: u8 = 6;
const TAG_ACK: u8 = 7;

/// Bytes of a frame before its body: length and CRC.
const HEADER_BYTES: usize = 8;

/// Capacity a [`FrameReader`] keeps between frames: records and acks
/// fit, a bootstrap image's buffer is given back.
const RETAINED_FRAME_BYTES: usize = 64 * 1024;

/// Checks a body length against [`MAX_BODY_BYTES`], on either end of
/// the wire: the encoder refuses to build such a frame, the reader to
/// accept one. Below the bound every length fits the u32 fields.
fn checked_body_len(len: usize) -> Result<u32, ReplError> {
    match u32::try_from(len) {
        Ok(wire) if len <= MAX_BODY_BYTES => Ok(wire),
        _ => Err(ReplError::Frame {
            reason: format!("message body of {len} bytes exceeds the {MAX_BODY_BYTES}-byte limit"),
        }),
    }
}

/// Appends a byte string. A length past the u32 field saturates: such a
/// body exceeds [`MAX_BODY_BYTES`] and [`Message::encode`] refuses it.
fn put_bytes(body: &mut Vec<u8>, bytes: &[u8]) {
    let len = u32::try_from(bytes.len()).unwrap_or(u32::MAX);
    body.extend_from_slice(&len.to_le_bytes());
    body.extend_from_slice(bytes);
}

struct BodyReader<'a> {
    bytes: &'a [u8],
    offset: usize,
}

impl<'a> BodyReader<'a> {
    fn u64(&mut self) -> Result<u64, ReplError> {
        let end = self.offset + 8;
        let slice = self.bytes.get(self.offset..end).ok_or(ReplError::Frame {
            reason: "truncated integer field".to_string(),
        })?;
        self.offset = end;
        Ok(u64::from_le_bytes(slice.try_into().expect("8 bytes")))
    }

    fn bytes(&mut self) -> Result<Vec<u8>, ReplError> {
        let end = self.offset + 4;
        let len_slice = self.bytes.get(self.offset..end).ok_or(ReplError::Frame {
            reason: "truncated byte-string length".to_string(),
        })?;
        let len = u32::from_le_bytes(len_slice.try_into().expect("4 bytes")) as usize;
        self.offset = end;
        let end = self.offset + len;
        let slice = self.bytes.get(self.offset..end).ok_or(ReplError::Frame {
            reason: "truncated byte-string body".to_string(),
        })?;
        self.offset = end;
        Ok(slice.to_vec())
    }

    fn finish(self) -> Result<(), ReplError> {
        if self.offset == self.bytes.len() {
            Ok(())
        } else {
            Err(ReplError::Frame {
                reason: format!(
                    "{} trailing bytes after message body",
                    self.bytes.len() - self.offset
                ),
            })
        }
    }
}

impl Message {
    /// Serializes the message into one wire frame (header + body).
    ///
    /// # Errors
    ///
    /// Returns [`ReplError::Frame`] when the body exceeds
    /// [`MAX_BODY_BYTES`]: every reader would refuse the frame.
    pub fn encode(&self) -> Result<Vec<u8>, ReplError> {
        let mut body = Vec::new();
        match self {
            Message::Hello {
                epoch,
                last_applied,
            } => {
                body.push(TAG_HELLO);
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&last_applied.to_le_bytes());
            }
            Message::Welcome { epoch, advertise } => {
                body.push(TAG_WELCOME);
                body.extend_from_slice(&epoch.to_le_bytes());
                put_bytes(&mut body, advertise.as_bytes());
            }
            Message::Reject { reason } => {
                body.push(TAG_REJECT);
                put_bytes(&mut body, reason.as_bytes());
            }
            Message::Snapshot { last_seq, payload } => {
                body.push(TAG_SNAPSHOT);
                body.extend_from_slice(&last_seq.to_le_bytes());
                put_bytes(&mut body, payload);
            }
            Message::Record { seq, payload } => {
                body.push(TAG_RECORD);
                body.extend_from_slice(&seq.to_le_bytes());
                put_bytes(&mut body, payload);
            }
            Message::Heartbeat { epoch, head_seq } => {
                body.push(TAG_HEARTBEAT);
                body.extend_from_slice(&epoch.to_le_bytes());
                body.extend_from_slice(&head_seq.to_le_bytes());
            }
            Message::Ack { seq } => {
                body.push(TAG_ACK);
                body.extend_from_slice(&seq.to_le_bytes());
            }
        }
        let len = checked_body_len(body.len())?;
        let mut frame = Vec::with_capacity(HEADER_BYTES + body.len());
        frame.extend_from_slice(&len.to_le_bytes());
        frame.extend_from_slice(&crc32(&body).to_le_bytes());
        frame.extend_from_slice(&body);
        Ok(frame)
    }

    /// Decodes one message body (the bytes after the 8-byte header,
    /// already CRC-verified).
    ///
    /// # Errors
    ///
    /// Returns [`ReplError::Frame`] for unknown tags and malformed
    /// field encodings.
    pub fn decode_body(body: &[u8]) -> Result<Self, ReplError> {
        let (&tag, rest) = body.split_first().ok_or(ReplError::Frame {
            reason: "empty message body".to_string(),
        })?;
        let mut reader = BodyReader {
            bytes: rest,
            offset: 0,
        };
        let message = match tag {
            TAG_HELLO => Message::Hello {
                epoch: reader.u64()?,
                last_applied: reader.u64()?,
            },
            TAG_WELCOME => Message::Welcome {
                epoch: reader.u64()?,
                advertise: String::from_utf8_lossy(&reader.bytes()?).into_owned(),
            },
            TAG_REJECT => Message::Reject {
                reason: String::from_utf8_lossy(&reader.bytes()?).into_owned(),
            },
            TAG_SNAPSHOT => Message::Snapshot {
                last_seq: reader.u64()?,
                payload: reader.bytes()?,
            },
            TAG_RECORD => Message::Record {
                seq: reader.u64()?,
                payload: reader.bytes()?,
            },
            TAG_HEARTBEAT => Message::Heartbeat {
                epoch: reader.u64()?,
                head_seq: reader.u64()?,
            },
            TAG_ACK => Message::Ack { seq: reader.u64()? },
            other => {
                return Err(ReplError::Frame {
                    reason: format!("unknown message tag {other}"),
                })
            }
        };
        reader.finish()?;
        Ok(message)
    }
}

/// Writes one message to a stream (no explicit flush; callers flush or
/// rely on the socket).
///
/// # Errors
///
/// Returns [`ReplError::Io`] on write failure and [`ReplError::Frame`]
/// when the message is too large to encode.
pub fn write_message(writer: &mut impl Write, message: &Message) -> Result<(), ReplError> {
    writer.write_all(&message.encode()?)?;
    Ok(())
}

/// Reads exactly one message from a stream, verifying length bounds and
/// the body CRC before decoding. A read timeout is an error here; a
/// reader that polls across timeouts uses a [`FrameReader`].
///
/// # Errors
///
/// Returns [`ReplError::Io`] on read failure (including clean EOF,
/// surfaced as `UnexpectedEof`) and [`ReplError::Frame`] when the frame
/// is oversized, fails its CRC, or decodes to no known message.
pub fn read_message(reader: &mut impl Read) -> Result<Message, ReplError> {
    FrameReader::new(reader)
        .poll()?
        .ok_or_else(|| std::io::Error::from(std::io::ErrorKind::TimedOut).into())
}

/// Reads messages off a stream with a read timeout, keeping a partly
/// read frame across timeouts: the bytes that arrived before a timeout
/// stay buffered, and the next [`FrameReader::poll`] continues the same
/// frame instead of starting a new one mid-body.
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
    /// The frame read so far: header first, then body.
    partial: Vec<u8>,
}

impl<R: Read> FrameReader<R> {
    /// A reader with no partial frame.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            partial: Vec::new(),
        }
    }

    /// Reads until one whole frame is in, then verifies and decodes it.
    /// Returns `Ok(None)` when the stream timed out first (`WouldBlock`
    /// or `TimedOut`); what arrived so far is kept for the next call.
    ///
    /// # Errors
    ///
    /// As [`read_message`]; the stream cannot be trusted after one.
    pub fn poll(&mut self) -> Result<Option<Message>, ReplError> {
        if !self.fill(HEADER_BYTES)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.partial[0..4].try_into().expect("4 bytes"));
        if !self.fill(HEADER_BYTES + checked_body_len(len as usize)? as usize)? {
            return Ok(None);
        }
        let (header, body) = self.partial.split_at(HEADER_BYTES);
        let stored_crc = u32::from_le_bytes(header[4..8].try_into().expect("4 bytes"));
        let message = if crc32(body) == stored_crc {
            Message::decode_body(body).map(Some)
        } else {
            Err(ReplError::Frame {
                reason: "message body failed CRC verification".to_string(),
            })
        };
        // The buffer is reused for the next frame; a bootstrap image's
        // worth of capacity is not held for the life of the stream.
        self.partial.clear();
        self.partial.shrink_to(RETAINED_FRAME_BYTES);
        message
    }

    /// Reads until the partial frame holds `need` bytes; `false` when
    /// the stream timed out first. Grown as bytes arrive, so a huge
    /// length claim costs nothing until it is sent; on an error
    /// `read_to_end` keeps what it read.
    fn fill(&mut self, need: usize) -> Result<bool, ReplError> {
        let have = self.partial.len();
        if have >= need {
            return Ok(true);
        }
        match (&mut self.inner)
            .take((need - have) as u64)
            .read_to_end(&mut self.partial)
        {
            Ok(_) if self.partial.len() < need => {
                Err(std::io::Error::from(std::io::ErrorKind::UnexpectedEof).into())
            }
            Ok(_) => Ok(true),
            Err(err)
                if matches!(
                    err.kind(),
                    std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                ) =>
            {
                Ok(false)
            }
            Err(err) => Err(err.into()),
        }
    }
}

/// A follower's view of where the replication stream must continue.
///
/// The cursor admits records only in exactly contiguous sequence order
/// and only from the current (or a newer) epoch. Both checks happen
/// *before* anything is applied, so a violating record never touches
/// the local journal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamCursor {
    epoch: u64,
    next_seq: u64,
}

impl StreamCursor {
    /// A cursor expecting records from `epoch` starting at `next_seq`.
    #[must_use]
    pub fn new(epoch: u64, next_seq: u64) -> Self {
        Self { epoch, next_seq }
    }

    /// The epoch this cursor currently trusts.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The sequence number the next record must carry.
    #[must_use]
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Checks a leader's claimed epoch. A newer epoch is adopted (a
    /// legitimate failover happened); an older one is refused — that
    /// leader was deposed and must not be followed.
    ///
    /// # Errors
    ///
    /// Returns [`ReplError::StaleEpoch`] when `remote` is behind.
    pub fn accept_epoch(&mut self, remote: u64) -> Result<(), ReplError> {
        if remote < self.epoch {
            return Err(ReplError::StaleEpoch {
                remote,
                local: self.epoch,
            });
        }
        self.epoch = remote;
        Ok(())
    }

    /// Admits one record sequence number, advancing the cursor.
    ///
    /// # Errors
    ///
    /// Returns [`ReplError::SequenceGap`] when records were skipped and
    /// [`ReplError::DuplicateRecord`] for duplicates or reordering. The
    /// cursor does not advance on error.
    pub fn admit(&mut self, seq: u64) -> Result<(), ReplError> {
        match seq.cmp(&self.next_seq) {
            std::cmp::Ordering::Equal => {
                self.next_seq += 1;
                Ok(())
            }
            std::cmp::Ordering::Greater => Err(ReplError::SequenceGap {
                expected: self.next_seq,
                found: seq,
            }),
            std::cmp::Ordering::Less => Err(ReplError::DuplicateRecord {
                expected: self.next_seq,
                found: seq,
            }),
        }
    }

    /// Fast-forwards the cursor past a snapshot covering seq ≤ `last_seq`.
    pub fn skip_to(&mut self, last_seq: u64) {
        self.next_seq = last_seq + 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(message: Message) {
        let frame = message.encode().unwrap();
        let mut cursor = &frame[..];
        let decoded = read_message(&mut cursor).unwrap();
        assert_eq!(decoded, message);
        assert!(cursor.is_empty(), "frame fully consumed");
    }

    #[test]
    fn every_message_round_trips() {
        round_trip(Message::Hello {
            epoch: 3,
            last_applied: 812,
        });
        round_trip(Message::Welcome {
            epoch: 4,
            advertise: "127.0.0.1:7400".to_string(),
        });
        round_trip(Message::Reject {
            reason: "stale epoch".to_string(),
        });
        round_trip(Message::Snapshot {
            last_seq: 100,
            payload: b"image bytes".to_vec(),
        });
        // An image above the WAL's 16 MiB record limit still ships.
        round_trip(Message::Snapshot {
            last_seq: 1_700_000,
            payload: vec![0x5A; 17 * 1024 * 1024],
        });
        round_trip(Message::Record {
            seq: 101,
            payload: vec![0xAB; 300],
        });
        round_trip(Message::Heartbeat {
            epoch: 4,
            head_seq: 105,
        });
        round_trip(Message::Ack { seq: 104 });
    }

    #[test]
    fn bit_flip_fails_crc() {
        let mut frame = Message::Record {
            seq: 7,
            payload: b"payload".to_vec(),
        }
        .encode()
        .unwrap();
        let last = frame.len() - 1;
        frame[last] ^= 0x01;
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(matches!(err, ReplError::Frame { .. }), "{err}");
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_are_rejected() {
        assert!(matches!(
            Message::decode_body(&[99]),
            Err(ReplError::Frame { .. })
        ));
        let mut body = vec![TAG_ACK];
        body.extend_from_slice(&5_u64.to_le_bytes());
        body.push(0); // trailing garbage
        assert!(matches!(
            Message::decode_body(&body),
            Err(ReplError::Frame { .. })
        ));
    }

    #[test]
    fn oversized_frame_is_refused_before_allocation() {
        let mut frame = Vec::new();
        frame.extend_from_slice(&(u32::MAX).to_le_bytes());
        frame.extend_from_slice(&[0_u8; 4]);
        let err = read_message(&mut &frame[..]).unwrap_err();
        assert!(matches!(err, ReplError::Frame { .. }));
    }

    #[test]
    fn truncated_stream_is_an_io_error() {
        let frame = Message::Ack { seq: 1 }.encode().unwrap();
        let err = read_message(&mut &frame[..frame.len() - 2]).unwrap_err();
        assert!(matches!(err, ReplError::Io(_)));
    }

    #[test]
    fn the_encoder_refuses_bodies_over_the_bound() {
        // `encode` checks the built body with `checked_body_len`, so
        // the bound is tested on lengths alone, without a GiB body.
        assert_eq!(
            checked_body_len(MAX_BODY_BYTES).unwrap() as usize,
            MAX_BODY_BYTES
        );
        for len in [MAX_BODY_BYTES + 1, u32::MAX as usize, (1 << 32) + 9] {
            match checked_body_len(len) {
                Err(ReplError::Frame { reason }) => assert!(reason.contains("exceeds"), "{reason}"),
                other => panic!("{len} bytes: expected a refusal, got {other:?}"),
            }
        }
    }

    /// Serves scripted reads: each step is some bytes or a timeout.
    struct Scripted(std::collections::VecDeque<Option<Vec<u8>>>);

    impl Read for Scripted {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.pop_front() {
                None => Ok(0),
                Some(None) => Err(std::io::ErrorKind::TimedOut.into()),
                Some(Some(mut bytes)) => {
                    let n = bytes.len().min(buf.len());
                    buf[..n].copy_from_slice(&bytes[..n]);
                    if n < bytes.len() {
                        self.0.push_front(Some(bytes.split_off(n)));
                    }
                    Ok(n)
                }
            }
        }
    }

    #[test]
    fn a_timeout_mid_frame_keeps_the_bytes_already_read() {
        let message = Message::Record {
            seq: 9,
            payload: vec![0x5A; 300],
        };
        let frame = message.encode().unwrap();
        let (head, tail) = frame.split_at(frame.len() / 2);
        let mut reader = FrameReader::new(Scripted(
            [Some(head.to_vec()), None, Some(tail.to_vec())].into(),
        ));
        assert_eq!(reader.poll().unwrap(), None, "the timeout is a poll");
        assert_eq!(reader.poll().unwrap(), Some(message));
        match reader.poll() {
            Err(ReplError::Io(err)) => assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof),
            other => panic!("expected end of stream, got {other:?}"),
        }
    }

    #[test]
    fn cursor_enforces_contiguity_and_epoch() {
        let mut cursor = StreamCursor::new(2, 10);
        cursor.admit(10).unwrap();
        cursor.admit(11).unwrap();
        assert!(matches!(
            cursor.admit(13),
            Err(ReplError::SequenceGap {
                expected: 12,
                found: 13
            })
        ));
        assert!(matches!(
            cursor.admit(11),
            Err(ReplError::DuplicateRecord {
                expected: 12,
                found: 11
            })
        ));
        // Failed admits never advance the cursor.
        cursor.admit(12).unwrap();

        assert!(matches!(
            cursor.accept_epoch(1),
            Err(ReplError::StaleEpoch {
                remote: 1,
                local: 2
            })
        ));
        cursor.accept_epoch(3).unwrap();
        assert_eq!(cursor.epoch(), 3);

        cursor.skip_to(100);
        assert_eq!(cursor.next_seq(), 101);
    }
}
