//! Figure 3 kernel: one exhaustion attack on a 3200-entry table.

use criterion::{criterion_group, Criterion};
use jgre_attack::{run_exhaustion_attack, AttackVector};
use jgre_corpus::spec::AospSpec;
use jgre_framework::{System, SystemConfig};

fn bench_exhaustion(c: &mut Criterion) {
    let spec = AospSpec::android_6_0_1();
    let vector = AttackVector::service_vectors(&spec)
        .into_iter()
        .find(|v| v.service == "clipboard")
        .expect("clipboard is vulnerable");
    c.bench_function("exhaust_3200_entry_table", |b| {
        b.iter(|| {
            let mut system = System::boot_with(SystemConfig {
                jgr_capacity: Some(3_200),
                ..SystemConfig::default()
            });
            run_exhaustion_attack(&mut system, &vector, 10_000, 400)
        });
    });
}

criterion_group!(benches, bench_exhaustion);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
