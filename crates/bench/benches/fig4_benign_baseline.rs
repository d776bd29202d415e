//! Figure 4 kernel: one benign session of 20 apps (Observation 1).

use criterion::{criterion_group, Criterion};
use jgre_attack::{BenignWorkload, BenignWorkloadConfig};
use jgre_framework::System;
use jgre_sim::SimDuration;

fn bench_benign_session(c: &mut Criterion) {
    c.bench_function("benign_workload_20_apps", |b| {
        b.iter(|| {
            let mut system = System::boot(7);
            system.driver_mut().set_log_enabled(false);
            let mut workload = BenignWorkload::new(
                BenignWorkloadConfig {
                    apps: 20,
                    apps_per_round: 20,
                    session: SimDuration::from_secs(15),
                    calls_per_session: 15,
                    sample_every: SimDuration::from_secs(30),
                },
                7,
            );
            workload.run(&mut system)
        });
    });
}

criterion_group!(benches, bench_benign_session);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
