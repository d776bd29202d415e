//! Golden-bytes pin of the stream and checkpoint wire formats.
//!
//! Both formats are persisted (a serve journal, a defender checkpoint)
//! and must stay readable across builds, so their encoders are pinned
//! byte for byte: a fixed event list and a fixed checkpoint must encode
//! to exactly the bytes below. A change here is a format change and
//! needs a schema-version bump, not a new pin.

use jgre_defense::stream::{encode_stream, StreamEvent};
use jgre_defense::{encode_checkpoint, DefenderCheckpoint, MonitorSnapshot, WatchSnapshot};
use jgre_sim::{Pid, SimTime, Uid};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn events() -> Vec<StreamEvent> {
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
            at: SimTime::from_micros(u64::MAX),
            uid: Uid::new(0),
            ipc_type: String::new(),
        },
    ]
}

fn checkpoint() -> DefenderCheckpoint {
    DefenderCheckpoint {
        journal_seq: 91,
        taken_at: SimTime::from_micros(5_000),
        config_fingerprint: 0x0123_4567_89ab_cdef,
        monitor: MonitorSnapshot {
            watches: vec![WatchSnapshot {
                pid: Pid::new(612),
                current: 4_321,
                recording_since: Some(SimTime::from_micros(1_000)),
                add_times: vec![SimTime::from_micros(1_000), SimTime::from_micros(1_010)],
                remove_times: vec![],
                alarmed: true,
            }],
        },
        last_pass: vec![(Pid::new(612), SimTime::from_micros(4_000))],
    }
}

/// `JGRESTR1` v1, then per frame `len u32 | payload | FNV-1a-64`.
const STREAM_HEX: &str = concat!(
    "4a4752455354523101000000",
    // Ipc: tag 1 | at u64 | uid u32 | type_len u16 | type bytes.
    "37000000",
    "01",
    "6400000000000000",
    "4d270000",
    "2800",
    "49436c6970626f6172642e6164645072696d617279436c69704368616e6765644c697374656e6572",
    "8a42d3fa42ebfbd7",
    // JgrAdd: tag 2 | at u64.
    "09000000",
    "025802000000000000",
    "07dbbaf4761c05ab",
    // Ipc with the extreme time and an empty label.
    "0f000000",
    "01ffffffffffffffff000000000000",
    "0474f69f9e6c0d33",
);

/// `JGRECKP1` v1 | payload length 229.
const CHECKPOINT_PREFIX_HEX: &str = "4a475245434b503101000000e5000000";
const CHECKPOINT_PAYLOAD: &str = concat!(
    r#"{"journal_seq":91,"taken_at":5000,"config_fingerprint":81985529216486895,"#,
    r#""monitor":{"watches":[{"pid":612,"current":4321,"recording_since":1000,"#,
    r#""add_times":[1000,1010],"remove_times":[],"alarmed":true}]},"#,
    r#""last_pass":[[612,4000]]}"#,
);
const CHECKPOINT_CHECKSUM_HEX: &str = "1bf5bed36965c67e";

#[test]
fn stream_bytes_are_pinned() {
    assert_eq!(hex(&encode_stream(&events())), STREAM_HEX);
}

#[test]
fn checkpoint_bytes_are_pinned() {
    let expected = format!(
        "{CHECKPOINT_PREFIX_HEX}{}{CHECKPOINT_CHECKSUM_HEX}",
        hex(CHECKPOINT_PAYLOAD.as_bytes())
    );
    assert_eq!(hex(&encode_checkpoint(&checkpoint())), expected);
}
