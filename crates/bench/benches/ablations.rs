//! Segment tree vs naive array in Algorithm 1 (§V-D.2's optimisation)
//! across Δ widths, on the ablation studies' scoring fixture. The
//! studies themselves are `jgre ablations`.

use criterion::{criterion_group, BenchmarkId, Criterion};
use jgre_core::experiments::scoring_fixture;
use jgre_defense::{naive_scores, segment_tree_scores, ScoreParams};
use jgre_sim::SimDuration;

fn bench_histograms(c: &mut Criterion) {
    let (ipc, jgr) = scoring_fixture(8_000);
    let mut group = c.benchmark_group("algorithm1_histogram");
    group.sample_size(20);
    for delta_us in [79u64, 1_800, 3_583] {
        let params = ScoreParams {
            delta: SimDuration::from_micros(delta_us),
            ..ScoreParams::default()
        };
        group.bench_with_input(
            BenchmarkId::new("segment_tree", delta_us),
            &params,
            |b, p| b.iter(|| segment_tree_scores(std::hint::black_box(&ipc), &jgr, *p)),
        );
        group.bench_with_input(BenchmarkId::new("naive", delta_us), &params, |b, p| {
            b.iter(|| naive_scores(std::hint::black_box(&ipc), &jgr, *p));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_histograms);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
