//! §V-D.1 kernel: one defended clipboard attack from boot to recovery
//! at quick scale.

use criterion::{criterion_group, Criterion};
use jgre_attack::AttackVector;
use jgre_core::{DefendedDevice, ExperimentScale};
use jgre_corpus::spec::AospSpec;

fn bench_defended_attack(c: &mut Criterion) {
    let spec = AospSpec::android_6_0_1();
    let vector = AttackVector::service_vectors(&spec)
        .into_iter()
        .find(|v| v.service == "clipboard")
        .expect("clipboard is vulnerable");
    let mut group = c.benchmark_group("defense");
    group.sample_size(10);
    group.bench_function("detect_and_recover_quick_scale", |b| {
        b.iter(|| {
            DefendedDevice::boot(ExperimentScale::quick().with_seed(5)).grind(&vector, 10_000)
        });
    });
    group.finish();
}

criterion_group!(benches, bench_defended_attack);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
