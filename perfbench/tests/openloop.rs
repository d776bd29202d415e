//! The open-loop generator against a sink that stalls: the stall must be
//! charged to every chunk due while it lasted, and the lateness report
//! must show the generator running behind.

use std::time::{Duration, Instant};

use jgre_perfbench::openloop::{replay, Lateness, LATE_THRESHOLD_NS};

const PERIOD_NS: u64 = 2_000_000;
const CHUNKS: u64 = 30;
const STALL_AT: usize = 5;
const STALL: Duration = Duration::from_millis(30);

#[test]
fn a_stall_is_charged_to_every_later_chunk() {
    let due: Vec<u64> = (0..CHUNKS).map(|k| k * PERIOD_NS).collect();
    let start = Instant::now();
    let mut stall_end_ns = 0u64;
    let timings = replay(&due, |k| {
        if k == STALL_AT {
            std::thread::sleep(STALL);
            stall_end_ns = start.elapsed().as_nanos() as u64;
        }
    });
    assert_eq!(timings.len(), CHUNKS as usize);
    for (k, t) in timings.iter().enumerate() {
        assert!(t.sent_ns >= t.due_ns, "chunk {k} sent before it was due");
        assert!(t.done_ns >= t.sent_ns);
    }
    assert!(timings[STALL_AT].lag_ns() >= STALL.as_nanos() as u64);

    // Every chunk due before the stall ended waited for it: its lag runs
    // from its own due time, not from when it finally went out.
    let behind: Vec<_> = timings[STALL_AT + 1..]
        .iter()
        .filter(|t| t.due_ns + LATE_THRESHOLD_NS < stall_end_ns.saturating_sub(1_000_000))
        .collect();
    assert!(behind.len() >= 10, "the stall should cover ~14 periods");
    for t in &behind {
        assert!(t.late_ns() > LATE_THRESHOLD_NS);
        assert!(t.lag_ns() >= t.late_ns());
    }

    let lateness = Lateness::of(&timings);
    assert!(lateness.late_chunks >= behind.len() as u64);
    assert!(lateness.max_late_ns >= STALL.as_nanos() as u64 - 2 * PERIOD_NS);
}

#[test]
fn lateness_merges_across_replays() {
    let mut total = Lateness {
        late_chunks: 2,
        max_late_ns: 500,
    };
    total.merge(Lateness {
        late_chunks: 3,
        max_late_ns: 200,
    });
    assert_eq!(
        total,
        Lateness {
            late_chunks: 5,
            max_late_ns: 500
        }
    );
}
