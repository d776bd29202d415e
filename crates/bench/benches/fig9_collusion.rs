//! Figure 9 kernel: the four-colluder scenario end to end at quick
//! scale.

use criterion::{criterion_group, Criterion};
use jgre_core::{experiments, ExperimentScale};

fn bench_collusion_round(c: &mut Criterion) {
    let mut group = c.benchmark_group("collusion");
    group.sample_size(10);
    group.bench_function("fig9_quick_scale_end_to_end", |b| {
        b.iter(|| experiments::fig9(ExperimentScale::quick()));
    });
    group.finish();
}

criterion_group!(benches, bench_collusion_round);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
