//! T-FUZZ: throughput and determinism of the coverage-guided Parcel
//! fuzzer.
//!
//! Pins three properties of `jgre_fuzz`:
//!
//! 1. **Determinism** — the 1-thread and 2-thread campaign reports are
//!    equal down to the serialized bytes (the invariance the CI smoke
//!    job checks on a tiny budget, re-asserted at benchmark scale).
//! 2. **Sustained throughput** — the full loop (plan → boot → parcel
//!    build → raw dispatch → coverage fold) clears at least 10k
//!    execs/sec of wall-clock; the measured rate goes into the artifact
//!    so regressions show up as numbers.
//! 3. **Discovery** — the benchmark-scale budget already rediscovers
//!    leaking interfaces, so the artifact pins execs-to-first-leak.

use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use jgre_bench::write_artifact;
use jgre_core::ExperimentScale;
use jgre_fuzz::{run_fuzz, FuzzConfig};
use serde::Serialize;

/// The default campaign: a full probe sweep over the ~2430-method
/// surface plus a mutation tail — a few seconds of wall-clock per run.
fn pin_config() -> FuzzConfig {
    let mut config = FuzzConfig::new(ExperimentScale::quick());
    config.seed = 7;
    config
}

#[derive(Debug, Serialize)]
struct FuzzThroughputArtifact {
    iters: u64,
    execs: u64,
    minimize_execs: u64,
    wall_execs_per_sec_1t: f64,
    wall_execs_per_sec_2t: f64,
    coverage_edges: usize,
    completed_pairs: usize,
    surface_pairs: usize,
    findings: usize,
    execs_to_first_leak: Option<u64>,
}

fn bench_fuzz(c: &mut Criterion) {
    let mut group = c.benchmark_group("fuzz");
    group.sample_size(10);
    group.bench_function("campaign_2k_execs", |b| {
        let mut config = FuzzConfig::new(ExperimentScale::quick());
        config.seed = 7;
        config.iters = 2_000;
        b.iter(|| run_fuzz(black_box(&config)));
    });
    group.finish();

    // --- sustained throughput + thread-count invariance --------------
    let config = pin_config();
    let start = Instant::now();
    let report_1t = run_fuzz(&config);
    let fuzz_1t_s = start.elapsed().as_secs_f64();
    let mut threaded = config.clone();
    threaded.threads = 2;
    let start = Instant::now();
    let report_2t = run_fuzz(&threaded);
    let fuzz_2t_s = start.elapsed().as_secs_f64();

    assert_eq!(
        report_1t, report_2t,
        "1-thread and 2-thread campaigns must produce identical reports"
    );
    assert_eq!(
        report_1t.to_json(),
        report_2t.to_json(),
        "fuzz report serialization must be byte-identical across thread counts"
    );

    let total_1t = report_1t.execs + report_1t.minimize_execs;
    let total_2t = report_2t.execs + report_2t.minimize_execs;
    let wall_execs_per_sec_1t = total_1t as f64 / fuzz_1t_s;
    let wall_execs_per_sec_2t = total_2t as f64 / fuzz_2t_s;
    assert!(
        wall_execs_per_sec_1t >= 10_000.0,
        "fuzz throughput collapsed: {wall_execs_per_sec_1t:.0} execs/sec"
    );

    // The budget reaches leaking interfaces and the hardened dispatch
    // keeps every malformed input on a typed rejection.
    assert!(
        !report_1t.findings.is_empty(),
        "benchmark-scale campaign found no leaks"
    );
    assert_eq!(report_1t.host_aborts, 0, "a fuzz input crashed a host");

    let artifact = FuzzThroughputArtifact {
        iters: config.iters,
        execs: report_1t.execs,
        minimize_execs: report_1t.minimize_execs,
        wall_execs_per_sec_1t,
        wall_execs_per_sec_2t,
        coverage_edges: report_1t.coverage.edges,
        completed_pairs: report_1t.coverage.completed_pairs,
        surface_pairs: report_1t.coverage.pairs,
        findings: report_1t.findings.len(),
        execs_to_first_leak: report_1t.execs_to_first_leak,
    };
    let rendered = format!(
        "fuzz throughput ({} budgeted execs, seed {})\n\
         execs:     {} budgeted + {} minimizing\n\
         wall rate: {wall_execs_per_sec_1t:>9.0} execs/sec (1t), \
         {wall_execs_per_sec_2t:>9.0} execs/sec (2t)\n\
         coverage:  {} edges, {}/{} pairs completed\n\
         findings:  {}  (first at exec {})\n",
        config.iters,
        config.seed,
        report_1t.execs,
        report_1t.minimize_execs,
        report_1t.coverage.edges,
        report_1t.coverage.completed_pairs,
        report_1t.coverage.pairs,
        report_1t.findings.len(),
        report_1t
            .execs_to_first_leak
            .map_or_else(|| "-".to_owned(), |e| e.to_string()),
    );
    println!("{rendered}");
    write_artifact("fuzz_throughput", &artifact, &rendered);
}

criterion_group!(benches, bench_fuzz);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
