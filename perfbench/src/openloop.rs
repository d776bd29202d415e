//! Open-loop replay: chunks are sent on a fixed wall-clock schedule,
//! whether or not the sink has kept up.
//!
//! Each chunk's latency is measured from the time it was *due*, not the
//! time it was sent, so a stall in the sink is charged to every chunk
//! queued behind it (no coordinated omission). The generator's own
//! lateness — how long after its due time a chunk actually went out — is
//! reported separately.

use std::time::Instant;

/// A chunk sent this long after its due time counts as late.
pub const LATE_THRESHOLD_NS: u64 = 100_000;

/// Timing of one chunk, ns since the replay started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChunkTiming {
    /// When the schedule said the chunk should be sent.
    pub due_ns: u64,
    /// When the generator sent it.
    pub sent_ns: u64,
    /// When the sink returned.
    pub done_ns: u64,
}

impl ChunkTiming {
    /// Due → done: the latency the chunk's producer observed.
    pub fn lag_ns(&self) -> u64 {
        self.done_ns.saturating_sub(self.due_ns)
    }

    /// Due → sent: how late the generator ran.
    pub fn late_ns(&self) -> u64 {
        self.sent_ns.saturating_sub(self.due_ns)
    }
}

/// How late the generator ran over a replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Lateness {
    /// Chunks sent more than [`LATE_THRESHOLD_NS`] after their due time.
    pub late_chunks: u64,
    /// Largest due → sent gap, ns.
    pub max_late_ns: u64,
}

impl Lateness {
    /// Lateness over `timings`.
    pub fn of(timings: &[ChunkTiming]) -> Self {
        timings.iter().fold(Self::default(), |acc, t| Self {
            late_chunks: acc.late_chunks + u64::from(t.late_ns() > LATE_THRESHOLD_NS),
            max_late_ns: acc.max_late_ns.max(t.late_ns()),
        })
    }

    /// Adds another replay's lateness.
    pub fn merge(&mut self, other: Self) {
        self.late_chunks += other.late_chunks;
        self.max_late_ns = self.max_late_ns.max(other.max_late_ns);
    }
}

/// Sends chunk `k` to `sink` at `due_ns[k]` after the start (or at once,
/// when the sink is still busy past that time) and times each one.
///
/// `due_ns` must be non-decreasing.
pub fn replay(due_ns: &[u64], mut sink: impl FnMut(usize)) -> Vec<ChunkTiming> {
    let start = Instant::now();
    let now_ns = || u64::try_from(start.elapsed().as_nanos()).expect("replay lasts < 584 years");
    let mut timings = Vec::with_capacity(due_ns.len());
    for (k, &due) in due_ns.iter().enumerate() {
        // Spin rather than sleep: a sleeping generator wakes up late by
        // the scheduler's latency, which would be charged to the sink.
        while now_ns() < due {
            std::hint::spin_loop();
        }
        let sent_ns = now_ns();
        sink(k);
        timings.push(ChunkTiming {
            due_ns: due,
            sent_ns,
            done_ns: now_ns(),
        });
    }
    timings
}
