//! Properties of the shared framed-record decoder, over arbitrary
//! payloads:
//!
//! * **Chunking** — any split of a valid stream into feeds decodes to
//!   exactly the frames a one-shot salvage finds.
//! * **Truncation** — every strict prefix decodes to a prefix of the
//!   frames plus pending bytes, never to a rejection: a torn tail is not
//!   corruption.
//! * **Bit flips** — every single-bit flip anywhere is either a typed
//!   rejection or a strict prefix of the original frames; a flip never
//!   yields a frame that was not written.

use jgre_sim::framed::{push_frame, Decoder, Format, Reject, HEADER_LEN};
use proptest::prelude::*;

const LOG: Format = Format {
    magic: *b"JGRETST1",
    version: 3,
    max_frame_len: 64,
};

fn encode(payloads: &[Vec<u8>]) -> Vec<u8> {
    let mut out = LOG.header().to_vec();
    for p in payloads {
        push_frame(&mut out, |o| o.extend_from_slice(p));
    }
    out
}

fn copy(payload: &[u8]) -> Result<Vec<u8>, Reject> {
    Ok(payload.to_vec())
}

fn payloads_strategy() -> impl Strategy<Value = Vec<Vec<u8>>> {
    proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..48), 0..8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_chunking_decodes_like_one_shot(
        payloads in payloads_strategy(),
        chunk_sizes in proptest::collection::vec(1usize..40, 1..16),
    ) {
        let bytes = encode(&payloads);
        let one_shot = LOG.salvage(&bytes, copy);
        prop_assert_eq!(&one_shot.frames, &payloads);
        prop_assert_eq!(one_shot.clean_len, bytes.len());
        prop_assert_eq!(one_shot.reject, None);

        let mut decoder = Decoder::new(LOG);
        let mut frames = Vec::new();
        let mut rest = &bytes[..];
        for &size in chunk_sizes.iter().cycle() {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(size.min(rest.len()));
            rest = tail;
            decoder.feed(chunk);
            while let Some(frame) = decoder.next(copy).unwrap() {
                frames.push(frame);
            }
        }
        prop_assert_eq!(frames, one_shot.frames);
        prop_assert_eq!(decoder.pending_bytes(), 0);
    }

    #[test]
    fn every_strict_prefix_is_pending_never_rejected(payloads in payloads_strategy()) {
        let bytes = encode(&payloads);
        for cut in 0..bytes.len() {
            let s = LOG.salvage(&bytes[..cut], copy);
            prop_assert_eq!(s.reject, None, "cut at {}", cut);
            prop_assert!(s.frames.len() < payloads.len() || payloads.is_empty());
            prop_assert_eq!(&s.frames[..], &payloads[..s.frames.len()]);
            // The header counts as clean once whole; the rest is pending.
            let clean = if cut < HEADER_LEN { 0 } else { encode(&s.frames).len() };
            prop_assert_eq!(s.clean_len, clean, "cut at {}", cut);
        }
    }

    #[test]
    fn every_bit_flip_rejects_or_truncates(payloads in payloads_strategy()) {
        let bytes = encode(&payloads);
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut corrupt = bytes.clone();
                corrupt[i] ^= 1 << bit;
                let s = LOG.salvage(&corrupt, copy);
                if s.reject.is_none() {
                    prop_assert!(
                        s.frames.len() < payloads.len(),
                        "byte {} bit {}: a flip went unnoticed", i, bit
                    );
                }
                prop_assert_eq!(
                    &s.frames[..],
                    &payloads[..s.frames.len()],
                    "byte {} bit {}: a decoded frame differs from the one written", i, bit
                );
            }
        }
    }
}
