//! The one round-robin worker scheduler, shared by the analysis waves,
//! fleet campaigns and fuzz shards.

use std::iter::StepBy;
use std::ops::Range;

/// Deals item indices `0..n` round-robin to `W = workers.min(n)` scoped
/// threads and returns each worker's result in worker order.
///
/// Worker `t` runs `worker` on the indices `t, t + W, t + 2W, …` inside
/// its own thread, so per-worker state that is not `Send` (a device
/// arena, say) is built by `worker` itself. When `W <= 1` no thread is
/// spawned: `worker` runs inline over every index and the result holds
/// exactly one entry.
pub fn round_robin<R, F>(n: usize, workers: usize, worker: F) -> Vec<R>
where
    R: Send,
    F: Fn(StepBy<Range<usize>>) -> R + Sync,
{
    let workers = workers.min(n);
    if workers <= 1 {
        return vec![worker((0..n).step_by(1))];
    }
    let worker = &worker;
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|t| scope.spawn(move || worker((t..n).step_by(workers))))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("round-robin worker panicked"))
            .collect()
    })
}
