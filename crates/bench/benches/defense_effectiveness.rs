//! §V-C kernel: all 57 defended attacks at quick scale.

use criterion::{criterion_group, Criterion};
use jgre_core::{experiments, ExperimentScale};

fn bench_effectiveness_quick(c: &mut Criterion) {
    let mut group = c.benchmark_group("defense");
    group.sample_size(10);
    group.bench_function("all_57_vectors_quick_scale", |b| {
        b.iter(|| experiments::defense_effectiveness(ExperimentScale::quick()));
    });
    group.finish();
}

criterion_group!(benches, bench_effectiveness_quick);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
