//! The event payloads of the `jgre serve` stream.
//!
//! The stream is a [`jgre_sim::framed`] record stream with magic
//! `JGRESTR1`; this module owns only what its payloads mean. Payloads are
//! tagged: `1` is a Binder-log record
//! (`at: u64 | uid: u32 | type_len: u16 | type bytes`), `2` a JGR add
//! (`at: u64`). All integers little-endian.
//!
//! Decoding is *incremental*: [`FrameDecoder::feed`] accepts arbitrary
//! byte slices (short reads, chunk boundaries inside a frame) and
//! [`FrameDecoder::next_event`] yields an event only once its frame is
//! complete and its checksum verifies. Corruption is a typed [`Reject`],
//! never a panic: a torn tail simply stays pending, which is what lets
//! crash recovery replay a journal truncated mid-frame.

use jgre_sim::framed::{push_frame, Decoder, Format, Reject, Salvaged};
use jgre_sim::{SimTime, Uid};

/// Stream header magic (version baked into the trailing digit's schema
/// constant, like `JGREWAL1`).
pub const STREAM_MAGIC: [u8; 8] = *b"JGRESTR1";

/// Schema version of the frame payloads.
pub const STREAM_SCHEMA_VERSION: u32 = 1;

/// Upper bound on a frame payload; anything larger is corruption (the
/// length field itself may be garbage, so this caps the allocation).
pub const MAX_FRAME_LEN: u32 = 4_096;

const STREAM: Format = Format {
    magic: STREAM_MAGIC,
    version: STREAM_SCHEMA_VERSION,
    max_frame_len: MAX_FRAME_LEN,
};

/// One event of the telemetry stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StreamEvent {
    /// A Binder-log record: `uid` invoked `ipc_type` at `at`.
    Ipc {
        /// Virtual arrival time.
        at: SimTime,
        /// The calling app.
        uid: Uid,
        /// Interface.method label, the scorer's IPC-type key.
        ipc_type: String,
    },
    /// A JGR add observed on the victim at `at`.
    JgrAdd {
        /// Virtual arrival time.
        at: SimTime,
    },
}

impl StreamEvent {
    /// The event's virtual time.
    pub fn at(&self) -> SimTime {
        match self {
            StreamEvent::Ipc { at, .. } | StreamEvent::JgrAdd { at } => *at,
        }
    }
}

const TAG_IPC: u8 = 1;
const TAG_ADD: u8 = 2;

/// The 12-byte stream header.
pub fn stream_header() -> Vec<u8> {
    STREAM.header().to_vec()
}

/// Appends one framed event to `out`.
pub fn encode_event(event: &StreamEvent, out: &mut Vec<u8>) {
    push_frame(out, |payload| match event {
        StreamEvent::Ipc { at, uid, ipc_type } => {
            payload.push(TAG_IPC);
            payload.extend_from_slice(&at.as_micros().to_le_bytes());
            payload.extend_from_slice(&uid.raw().to_le_bytes());
            let bytes = ipc_type.as_bytes();
            assert!(
                bytes.len() <= u16::MAX as usize,
                "ipc type label too long to frame"
            );
            payload.extend_from_slice(&(bytes.len() as u16).to_le_bytes());
            payload.extend_from_slice(bytes);
        }
        StreamEvent::JgrAdd { at } => {
            payload.push(TAG_ADD);
            payload.extend_from_slice(&at.as_micros().to_le_bytes());
        }
    });
}

/// Encodes a whole stream: header plus one frame per event.
pub fn encode_stream<'a>(events: impl IntoIterator<Item = &'a StreamEvent>) -> Vec<u8> {
    let mut out = stream_header();
    for event in events {
        encode_event(event, &mut out);
    }
    out
}

/// Incremental decoder tolerating arbitrary chunking and short reads.
///
/// # Example
///
/// ```
/// use jgre_defense::stream::{encode_stream, FrameDecoder, StreamEvent};
/// use jgre_sim::SimTime;
///
/// let events = vec![StreamEvent::JgrAdd { at: SimTime::from_micros(7) }];
/// let bytes = encode_stream(&events);
/// let mut decoder = FrameDecoder::new();
/// // Feed one byte at a time — frames assemble across feeds.
/// let mut seen = Vec::new();
/// for &b in &bytes {
///     decoder.feed(&[b]);
///     while let Some(e) = decoder.next_event().unwrap() {
///         seen.push(e);
///     }
/// }
/// assert_eq!(seen, events);
/// assert_eq!(decoder.pending_bytes(), 0);
/// ```
#[derive(Debug)]
pub struct FrameDecoder {
    frames: Decoder,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        Self::new()
    }
}

impl FrameDecoder {
    /// Creates a decoder expecting a stream header first.
    pub fn new() -> Self {
        Self {
            frames: Decoder::new(STREAM),
        }
    }

    /// Appends raw bytes received from the wire.
    pub fn feed(&mut self, bytes: &[u8]) {
        self.frames.feed(bytes);
    }

    /// Bytes received but not yet decoded — a torn tail if the stream
    /// has ended.
    pub fn pending_bytes(&self) -> usize {
        self.frames.pending_bytes()
    }

    /// Decodes the next complete frame, `Ok(None)` when more bytes are
    /// needed, a typed [`Reject`] on corruption (the decoder stays at the
    /// rejected frame; a rejected stream is fail-stop).
    pub fn next_event(&mut self) -> Result<Option<StreamEvent>, Reject> {
        self.frames.next(decode_payload)
    }
}

fn decode_payload(payload: &[u8]) -> Result<StreamEvent, Reject> {
    if payload.len() < 9 {
        return Err(Reject::BadPayload);
    }
    let at = u64::from_le_bytes(payload[1..9].try_into().expect("8 time bytes"));
    let at = SimTime::from_micros(at);
    match payload[0] {
        TAG_ADD if payload.len() == 9 => Ok(StreamEvent::JgrAdd { at }),
        TAG_IPC if payload.len() >= 15 => {
            let uid = u32::from_le_bytes(payload[9..13].try_into().expect("4 uid bytes"));
            let type_len = u16::from_le_bytes(payload[13..15].try_into().expect("2 length bytes"));
            let label = &payload[15..];
            if label.len() != usize::from(type_len) {
                return Err(Reject::BadPayload);
            }
            let ipc_type = std::str::from_utf8(label).map_err(|_| Reject::BadPayload)?;
            Ok(StreamEvent::Ipc {
                at,
                uid: Uid::new(uid),
                ipc_type: ipc_type.to_owned(),
            })
        }
        TAG_ADD | TAG_IPC => Err(Reject::BadPayload),
        found => Err(Reject::BadTag { found }),
    }
}

/// Decodes every whole event of a stream buffer, stopping at the first
/// rejection or at a torn tail; see [`Format::salvage`].
pub(super) fn salvage_stream(bytes: &[u8]) -> Salvaged<StreamEvent> {
    STREAM.salvage(bytes, decode_payload)
}

/// Decodes a complete byte buffer, returning the events plus the number
/// of trailing bytes that did not form a whole frame (the torn tail a
/// crash mid-append leaves behind).
pub fn decode_stream(bytes: &[u8]) -> Result<(Vec<StreamEvent>, usize), Reject> {
    let salvaged = salvage_stream(bytes);
    match salvaged.reject {
        Some(reject) => Err(reject),
        None => Ok((salvaged.frames, bytes.len() - salvaged.clean_len)),
    }
}

#[cfg(test)]
mod tests {
    use jgre_sim::framed::HEADER_LEN;

    use super::*;

    fn sample_events() -> Vec<StreamEvent> {
        vec![
            StreamEvent::Ipc {
                at: SimTime::from_micros(100),
                uid: Uid::new(10_061),
                ipc_type: "IClipboard.addPrimaryClipChangedListener".into(),
            },
            StreamEvent::JgrAdd {
                at: SimTime::from_micros(600),
            },
            StreamEvent::Ipc {
                at: SimTime::from_micros(700),
                uid: Uid::new(10_065),
                ipc_type: "IAudioService.getState".into(),
            },
        ]
    }

    #[test]
    fn round_trip() {
        let events = sample_events();
        let bytes = encode_stream(&events);
        let (decoded, torn) = decode_stream(&bytes).unwrap();
        assert_eq!(decoded, events);
        assert_eq!(torn, 0);
    }

    #[test]
    fn stale_version_is_typed() {
        let mut bytes = encode_stream(&sample_events());
        bytes[STREAM_MAGIC.len()] = 9; // version 9 in LE
        assert_eq!(
            decode_stream(&bytes).unwrap_err(),
            Reject::StaleVersion { found: 9 }
        );
    }

    #[test]
    fn bad_magic_is_typed() {
        let mut bytes = encode_stream(&sample_events());
        bytes[0] = b'X';
        assert_eq!(decode_stream(&bytes).unwrap_err(), Reject::BadMagic);
    }

    #[test]
    fn short_header_is_pending() {
        let bytes = stream_header();
        let (events, torn) = decode_stream(&bytes[..HEADER_LEN - 3]).unwrap();
        assert!(events.is_empty());
        assert_eq!(torn, HEADER_LEN - 3);
    }

    #[test]
    fn unknown_tag_with_valid_checksum_is_typed() {
        let mut bytes = stream_header();
        push_frame(&mut bytes, |payload| {
            payload.push(7); // no such tag
            payload.extend_from_slice(&42u64.to_le_bytes());
        });
        assert_eq!(
            decode_stream(&bytes).unwrap_err(),
            Reject::BadTag { found: 7 }
        );
    }
}
