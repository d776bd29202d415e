//! The shared worker scheduler: every item index is dealt to exactly one
//! worker, worker `t` of `W` walks `t, t+W, …` in order, results come back
//! in worker order, and a single worker never leaves the caller's thread.

use std::thread;

use jgre_sim::round_robin;

#[test]
fn every_index_is_dealt_once_in_round_robin_order() {
    let caller = thread::current().id();
    for n in [0usize, 1, 5, 57] {
        for threads in [0usize, 1, 2, 3, 8] {
            let shards = round_robin(n, threads, |shard| {
                (thread::current().id(), shard.collect::<Vec<_>>())
            });
            let workers = threads.min(n).max(1);
            assert_eq!(shards.len(), workers, "n={n} threads={threads}");
            for (t, (_, indices)) in shards.iter().enumerate() {
                let expected: Vec<usize> = (t..n).step_by(workers).collect();
                assert_eq!(indices, &expected, "n={n} threads={threads} worker {t}");
            }
            let mut seen: Vec<usize> = shards.iter().flat_map(|(_, i)| i.clone()).collect();
            seen.sort_unstable();
            assert_eq!(seen, (0..n).collect::<Vec<_>>(), "n={n} threads={threads}");
            let on_caller = shards.iter().filter(|(id, _)| *id == caller).count();
            if workers <= 1 {
                assert_eq!(on_caller, 1, "n={n} threads={threads} spawned a thread");
            } else {
                assert_eq!(on_caller, 0, "n={n} threads={threads} ran a shard inline");
            }
        }
    }
}

#[test]
fn per_worker_state_is_built_inside_the_worker() {
    // A non-Send value (an `Rc`) built by each worker, as a device arena
    // is in the fleet and fuzz drivers.
    let sums = round_robin(10, 3, |shard| {
        let state = std::rc::Rc::new(std::cell::Cell::new(0usize));
        for i in shard {
            state.set(state.get() + i);
        }
        state.get()
    });
    assert_eq!(sums, vec![3 + 6 + 9, 1 + 4 + 7, 2 + 5 + 8]);
}
