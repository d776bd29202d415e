//! The repository benchmark: four workloads, each driving one part of the
//! system through its public API and checking every output.
//!
//! * `fleet` — the device-execution loop (`run_campaign_observed`).
//! * `serve` — the streaming defender (`StreamDefender`).
//! * `lint` — the static pipeline and its summary cache
//!   (`LintReport::generate_with`).
//! * `fuzz` — the Parcel fuzzer (`run_fuzz`) plus its lint differential.
//!
//! `README.md` beside this crate explains the workloads, the metrics and
//! how to run them.

pub mod fleet;
pub mod fuzz;
pub mod lint;
pub mod openloop;
pub mod report;
pub mod serve;
pub mod stats;
pub mod trace;

/// How much work a run does: the measured size, or the small size the
/// smoke tests use.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    /// The benchmark's measured configuration.
    Full,
    /// A few seconds per workload, every correctness check intact.
    Tiny,
}

/// Set-ups measured per run; `setup_s` is their median.
pub const SETUPS: usize = 15;

/// Runs the set-up `f` [`SETUPS`] times; returns its last result and the
/// median time in seconds.
pub fn set_up<T>(mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let start = std::time::Instant::now();
        last = Some(f());
        times.push(start.elapsed().as_secs_f64());
    }
    (last.expect("SETUPS > 0"), stats::median(&times))
}

/// The smoke tests' seeds: the default one, and one held out while the
/// benchmark was written.
pub const SMOKE_SEEDS: [u64; 2] = [1, 9_001];

/// The workloads, in the order the documentation lists them.
pub const WORKLOADS: [&str; 4] = ["fleet", "serve", "lint", "fuzz"];

/// Runs workload `name`; `None` for an unknown name.
pub fn run_workload(
    name: &str,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
) -> Option<report::RunResult> {
    Some(match name {
        "fleet" => fleet::run(seed, seconds, trace, size),
        "serve" => serve::run(seed, seconds, trace, size),
        "lint" => lint::run(seed, seconds, trace, size),
        "fuzz" => fuzz::run(seed, seconds, trace, size),
        _ => return None,
    })
}
