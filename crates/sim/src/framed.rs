//! The one framed-record codec, shared by the defender's write-ahead
//! journal, its checkpoints and the `jgre serve` event stream.
//!
//! ```text
//! header:  magic [u8; 8] | schema version u32
//! frame:   payload length u32 | payload | FNV-1a-64 of the payload
//! ```
//!
//! Integers are little-endian. A [`Format`] is the three constants that
//! tell one file type from another; what a payload means is the caller's
//! business. Decoding never panics on untrusted bytes: a bad header, an
//! oversized length or a checksum mismatch is a typed [`Reject`] that
//! leaves the frame unconsumed, while an incomplete header or frame (a
//! torn tail, a short read) is pending, not an error. Verified payloads
//! reach the caller's parser as borrowed slices.

use std::fmt;

/// Bytes in a format header: 8 magic bytes and a `u32` version.
pub const HEADER_LEN: usize = 8 + 4;

/// Bytes a frame adds around its payload: the length and the checksum.
pub const FRAME_OVERHEAD: usize = 4 + 8;

/// FNV-1a, 64-bit: the frame checksum, and the workspace's stable hash
/// of short names.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Why framed bytes were rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Reject {
    /// The input ended inside the one record it had to hold.
    Truncated,
    /// The header's magic is not the format's.
    BadMagic,
    /// The header's schema version is not the one this build speaks.
    StaleVersion {
        /// The version found in the header.
        found: u32,
    },
    /// A length field above the format's cap, refused before buffering.
    OversizedFrame {
        /// The length the field claimed.
        len: u32,
    },
    /// The payload's checksum does not match the frame trailer.
    ChecksumMismatch {
        /// Checksum computed over the received payload.
        computed: u64,
        /// Checksum the frame trailer carried.
        stored: u64,
    },
    /// A clean payload whose leading tag byte names no record kind.
    BadTag {
        /// The tag byte found.
        found: u8,
    },
    /// A clean payload that does not parse as its record.
    BadPayload,
}

impl fmt::Display for Reject {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Reject::Truncated => write!(f, "record truncated"),
            Reject::BadMagic => write!(f, "header magic mismatch"),
            Reject::StaleVersion { found } => write!(f, "unknown schema version {found}"),
            Reject::OversizedFrame { len } => write!(f, "frame length {len} exceeds the cap"),
            Reject::ChecksumMismatch { computed, stored } => write!(
                f,
                "frame checksum mismatch (computed {computed:#018x}, stored {stored:#018x})"
            ),
            Reject::BadTag { found } => write!(f, "unknown frame tag {found}"),
            Reject::BadPayload => write!(f, "frame payload undecodable"),
        }
    }
}

impl std::error::Error for Reject {}

/// One framed file type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Format {
    /// Magic prefix of the header.
    pub magic: [u8; 8],
    /// Schema version in the header.
    pub version: u32,
    /// Largest payload length accepted; caps what a garbage length
    /// field can make a decoder wait for.
    pub max_frame_len: u32,
}

impl Format {
    /// The header that starts every file of this format.
    pub fn header(&self) -> [u8; HEADER_LEN] {
        let mut header = [0; HEADER_LEN];
        header[..8].copy_from_slice(&self.magic);
        header[8..].copy_from_slice(&self.version.to_le_bytes());
        header
    }

    /// Decodes the whole frames of `bytes` with `parse`, up to the first
    /// rejection or torn tail.
    pub fn salvage<T>(
        &self,
        bytes: &[u8],
        mut parse: impl FnMut(&[u8]) -> Result<T, Reject>,
    ) -> Salvaged<T> {
        let mut cursor = Cursor::default();
        let mut frames = Vec::new();
        let reject = loop {
            match cursor.next(self, bytes, &mut parse) {
                Ok(Some(frame)) => frames.push(frame),
                Ok(None) => break None,
                Err(reject) => break Some(reject),
            }
        };
        Salvaged {
            frames,
            clean_len: cursor.pos,
            reject,
        }
    }
}

/// Appends one frame to `out`; `write_payload` appends the payload.
pub fn push_frame(out: &mut Vec<u8>, write_payload: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    write_payload(out);
    let len = u32::try_from(out.len() - start - 4).expect("frame payload fits a u32 length");
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    let sum = fnv1a64(&out[start + 4..]);
    out.extend_from_slice(&sum.to_le_bytes());
}

/// What [`Format::salvage`] recovered.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Salvaged<T> {
    /// The parsed payloads of the whole frames before the stop.
    pub frames: Vec<T>,
    /// The header (once whole and valid) plus those frames, in bytes.
    pub clean_len: usize,
    /// The rejection that stopped decoding; `None` at a torn tail or the
    /// end.
    pub reject: Option<Reject>,
}

/// A read position in framed bytes, shared by [`Decoder`] and
/// [`Format::salvage`].
#[derive(Debug, Default)]
struct Cursor {
    pos: usize,
    header_seen: bool,
}

impl Cursor {
    /// The next frame at the cursor, `Ok(None)` while it is incomplete.
    /// Only a parsed frame moves the cursor.
    fn next<T>(
        &mut self,
        format: &Format,
        bytes: &[u8],
        parse: impl FnOnce(&[u8]) -> Result<T, Reject>,
    ) -> Result<Option<T>, Reject> {
        if !self.header_seen {
            let Some(header) = bytes.get(self.pos..self.pos + HEADER_LEN) else {
                return Ok(None);
            };
            if header[..8] != format.magic {
                return Err(Reject::BadMagic);
            }
            let found = u32::from_le_bytes(header[8..].try_into().expect("4 version bytes"));
            if found != format.version {
                return Err(Reject::StaleVersion { found });
            }
            self.pos += HEADER_LEN;
            self.header_seen = true;
        }
        let rest = &bytes[self.pos..];
        let Some(len) = rest.get(..4) else {
            return Ok(None);
        };
        let len = u32::from_le_bytes(len.try_into().expect("4 length bytes"));
        if len > format.max_frame_len {
            return Err(Reject::OversizedFrame { len });
        }
        let end = 4 + len as usize;
        let Some(trailer) = rest.get(end..end + 8) else {
            return Ok(None);
        };
        let payload = &rest[4..end];
        let stored = u64::from_le_bytes(trailer.try_into().expect("8 checksum bytes"));
        let computed = fnv1a64(payload);
        if computed != stored {
            return Err(Reject::ChecksumMismatch { computed, stored });
        }
        let frame = parse(payload)?;
        self.pos += end + 8;
        Ok(Some(frame))
    }
}

/// Incremental decoder over bytes arriving in any chunking.
#[derive(Debug)]
pub struct Decoder {
    format: Format,
    buf: Vec<u8>,
    cursor: Cursor,
}

impl Decoder {
    /// A decoder expecting `format`'s header first.
    pub fn new(format: Format) -> Self {
        Self {
            format,
            buf: Vec::new(),
            cursor: Cursor::default(),
        }
    }

    /// Appends received bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Drop the decoded prefix once it is the whole buffer or longer
        // than two largest frames, so the buffer stays bounded by the
        // pending bytes plus one chunk rather than the whole stream.
        let pos = self.cursor.pos;
        if pos == self.buf.len() || pos > self.format.max_frame_len as usize * 2 {
            self.buf.drain(..pos);
            self.cursor.pos = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// Bytes received but not yet decoded: a torn tail once input ends.
    pub fn pending_bytes(&self) -> usize {
        self.buf.len() - self.cursor.pos
    }

    /// Decodes the next whole frame with `parse`: `Ok(None)` when more
    /// bytes are needed. A rejected frame stays pending (fail-stop).
    pub fn next<T>(
        &mut self,
        parse: impl FnOnce(&[u8]) -> Result<T, Reject>,
    ) -> Result<Option<T>, Reject> {
        self.cursor.next(&self.format, &self.buf, parse)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The stream codec's format, so these inputs are its bytes.
    const TEST: Format = Format {
        magic: *b"JGRESTR1",
        version: 1,
        max_frame_len: 4_096,
    };

    /// The stream codec's sample payloads: an IPC record, a JGR add and
    /// another IPC record (`tag | at u64 | uid u32 | len u16 | label`
    /// and `tag | at u64`).
    fn payloads() -> Vec<Vec<u8>> {
        fn ipc(at: u64, uid: u32, label: &str) -> Vec<u8> {
            let mut p = vec![1];
            p.extend_from_slice(&at.to_le_bytes());
            p.extend_from_slice(&uid.to_le_bytes());
            p.extend_from_slice(&(label.len() as u16).to_le_bytes());
            p.extend_from_slice(label.as_bytes());
            p
        }
        let mut add = vec![2];
        add.extend_from_slice(&600u64.to_le_bytes());
        vec![
            ipc(100, 10_061, "IClipboard.addPrimaryClipChangedListener"),
            add,
            ipc(700, 10_065, "IAudioService.getState"),
        ]
    }

    fn encode(payloads: &[Vec<u8>]) -> Vec<u8> {
        let mut out = TEST.header().to_vec();
        for p in payloads {
            push_frame(&mut out, |o| o.extend_from_slice(p));
        }
        out
    }

    fn decode(bytes: &[u8]) -> Result<(Vec<Vec<u8>>, usize), Reject> {
        let s = TEST.salvage(bytes, |p| Ok(p.to_vec()));
        match s.reject {
            Some(reject) => Err(reject),
            None => Ok((s.frames, bytes.len() - s.clean_len)),
        }
    }

    #[test]
    fn fnv_matches_the_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn bit_flip_anywhere_is_rejected_or_torn_never_panics() {
        let frames = payloads();
        let clean = encode(&frames);
        for i in 0..clean.len() {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x40;
            // A flip in a length field can shift framing; whatever
            // happens must be a typed outcome, not a panic, and must not
            // silently yield *different* frames than some prefix of the
            // originals.
            if let Ok((decoded, _)) = decode(&corrupt) {
                assert!(
                    decoded.iter().zip(&frames).all(|(d, e)| d == e),
                    "byte {i}: decoded frames diverged silently"
                );
            }
        }
    }

    #[test]
    fn truncation_at_every_boundary_is_torn_not_error() {
        let frames = payloads();
        let clean = encode(&frames);
        for cut in HEADER_LEN..clean.len() {
            let (decoded, torn) = decode(&clean[..cut]).expect("truncation is not corruption");
            assert_eq!(torn, cut - HEADER_LEN - consumed_len(&frames, &decoded));
            assert!(decoded.len() <= frames.len());
            assert_eq!(decoded[..], frames[..decoded.len()]);
        }
    }

    fn consumed_len(all: &[Vec<u8>], decoded: &[Vec<u8>]) -> usize {
        encode(&all[..decoded.len()]).len() - HEADER_LEN
    }

    #[test]
    fn oversized_length_field_is_refused() {
        let mut bytes = TEST.header().to_vec();
        bytes.extend_from_slice(&(TEST.max_frame_len + 1).to_le_bytes());
        bytes.extend_from_slice(&[0; 64]);
        assert_eq!(
            decode(&bytes).unwrap_err(),
            Reject::OversizedFrame {
                len: TEST.max_frame_len + 1
            }
        );
    }

    #[test]
    fn a_rejected_frame_stays_pending() {
        let bytes = encode(&payloads());
        let s = TEST.salvage(&bytes, |p| {
            if p[0] == 2 {
                Err(Reject::BadTag { found: 2 })
            } else {
                Ok(())
            }
        });
        assert_eq!(s.frames.len(), 1);
        assert_eq!(s.reject, Some(Reject::BadTag { found: 2 }));
        assert_eq!(s.clean_len, encode(&payloads()[..1]).len());
    }

    #[test]
    fn garbage_never_panics() {
        let mut state = 0xdead_beefu64;
        for round in 0..200 {
            let mut bytes = Vec::with_capacity(round * 3);
            for _ in 0..round * 3 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                bytes.push((state >> 56) as u8);
            }
            let _ = decode(&bytes);
        }
    }
}
