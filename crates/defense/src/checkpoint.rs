//! Versioned checkpoints of the defender's in-memory state.
//!
//! A checkpoint is a serialized snapshot of the [`JgrMonitor`] watches
//! plus the defender's cooldown stamps, tagged with the journal sequence
//! number it covers. Recovery restores the latest valid checkpoint and
//! replays only the journal records after it, which bounds replay work
//! by the checkpoint interval.
//!
//! A checkpoint blob is a [`jgre_sim::framed`] record file with magic
//! `JGRECKP1` holding exactly one frame, whose payload is the
//! checkpoint's serde_json encoding.
//!
//! Decoding never panics: every malformed input maps to a typed
//! [`Reject`], and the caller falls back to journal-only
//! recovery. Losing a checkpoint is survivable by design — the monitor's
//! table-size tracking self-heals because every journaled event carries
//! the absolute table size.
//!
//! [`JgrMonitor`]: crate::JgrMonitor

use jgre_sim::framed::{fnv1a64, push_frame, Format, Reject, Salvaged, FRAME_OVERHEAD, HEADER_LEN};
use jgre_sim::{Pid, SimTime};
use serde::{Deserialize, Serialize};

use crate::DefenderConfig;

/// Magic prefix of a checkpoint blob.
pub const CHECKPOINT_MAGIC: [u8; 8] = *b"JGRECKP1";
/// Checkpoint schema version; bump on any layout change.
pub const CHECKPOINT_SCHEMA_VERSION: u32 = 1;

const CHECKPOINT: Format = Format {
    magic: CHECKPOINT_MAGIC,
    version: CHECKPOINT_SCHEMA_VERSION,
    // A loaded monitor snapshot runs to hundreds of kilobytes.
    max_frame_len: 1 << 26,
};

/// One watch entry: the monitor's live per-process state, and its
/// serialized form.
///
/// Timestamp maps are flattened to `Vec`s of tuples: the vendored
/// `serde_json` only supports string map keys.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct WatchSnapshot {
    /// The watched process.
    pub pid: Pid,
    /// Current JGR table size.
    pub current: usize,
    /// When recording started, if recording.
    pub recording_since: Option<SimTime>,
    /// Recorded add timestamps.
    pub add_times: Vec<SimTime>,
    /// Recorded remove timestamps.
    pub remove_times: Vec<SimTime>,
    /// Whether the trigger threshold was crossed.
    pub alarmed: bool,
}

/// Serialized form of the whole monitor.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// Every watch, in pid order.
    pub watches: Vec<WatchSnapshot>,
}

/// One versioned checkpoint of defender + monitor state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenderCheckpoint {
    /// Journal records with sequence `>= journal_seq` are NOT covered by
    /// this checkpoint and must be replayed on top of it.
    pub journal_seq: u64,
    /// Virtual time the checkpoint was taken.
    pub taken_at: SimTime,
    /// Fingerprint of the [`DefenderConfig`] the state was built under; a
    /// mismatch (config changed across the restart) rejects the
    /// checkpoint rather than resuming with incompatible thresholds.
    pub config_fingerprint: u64,
    /// The monitor's watches.
    pub monitor: MonitorSnapshot,
    /// The defender's per-victim cooldown stamps.
    pub last_pass: Vec<(Pid, SimTime)>,
}

/// Fingerprint of a configuration (FNV over its canonical JSON), stored
/// in the checkpoint so recovery can detect a config change.
pub fn config_fingerprint(config: &DefenderConfig) -> u64 {
    let json = serde_json::to_vec(config).expect("DefenderConfig always serializes");
    fnv1a64(&json)
}

/// Encodes a checkpoint into its framed, checksummed byte form.
pub fn encode_checkpoint(cp: &DefenderCheckpoint) -> Vec<u8> {
    let payload = serde_json::to_vec(cp).expect("checkpoints always serialize");
    let mut out = Vec::with_capacity(HEADER_LEN + FRAME_OVERHEAD + payload.len());
    out.extend_from_slice(&CHECKPOINT.header());
    push_frame(&mut out, |out| out.extend_from_slice(&payload));
    out
}

/// Decodes a checkpoint blob, rejecting (never panicking on) malformed
/// input.
///
/// # Errors
///
/// A [`Reject`] naming the first problem found; [`Reject::Truncated`]
/// when the blob ends before its frame does.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<DefenderCheckpoint, Reject> {
    let Salvaged { frames, reject, .. } = CHECKPOINT.salvage(bytes, |payload| {
        serde_json::from_slice(payload).map_err(|_| Reject::BadPayload)
    });
    frames
        .into_iter()
        .next()
        .ok_or(reject.unwrap_or(Reject::Truncated))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Header + payload length.
    const PREFIX_LEN: usize = HEADER_LEN + 4;

    fn sample() -> DefenderCheckpoint {
        DefenderCheckpoint {
            journal_seq: 91,
            taken_at: SimTime::from_micros(5_000),
            config_fingerprint: config_fingerprint(&DefenderConfig::default()),
            monitor: MonitorSnapshot {
                watches: vec![WatchSnapshot {
                    pid: Pid::new(612),
                    current: 4_321,
                    recording_since: Some(SimTime::from_micros(1_000)),
                    add_times: vec![SimTime::from_micros(1_000), SimTime::from_micros(1_010)],
                    remove_times: vec![],
                    alarmed: false,
                }],
            },
            last_pass: vec![(Pid::new(612), SimTime::from_micros(4_000))],
        }
    }

    #[test]
    fn encode_decode_round_trips() {
        let cp = sample();
        assert_eq!(decode_checkpoint(&encode_checkpoint(&cp)), Ok(cp));
    }

    #[test]
    fn every_corruption_is_a_typed_rejection() {
        let good = encode_checkpoint(&sample());
        assert_eq!(decode_checkpoint(&[]), Err(Reject::Truncated));
        assert_eq!(
            decode_checkpoint(&good[..good.len() - 3]),
            Err(Reject::Truncated)
        );
        let mut bad = good.clone();
        bad[0] = b'Z';
        assert_eq!(decode_checkpoint(&bad), Err(Reject::BadMagic));
        let mut bad = good.clone();
        bad[8] = 99;
        assert_eq!(
            decode_checkpoint(&bad),
            Err(Reject::StaleVersion { found: 99 })
        );
        let mut bad = good.clone();
        bad[PREFIX_LEN + 5] ^= 0x08;
        assert!(matches!(
            decode_checkpoint(&bad),
            Err(Reject::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn config_change_changes_the_fingerprint() {
        let a = config_fingerprint(&DefenderConfig::default());
        let b = config_fingerprint(&DefenderConfig {
            normal_level: 2_999,
            ..DefenderConfig::default()
        });
        assert_ne!(a, b);
    }
}
