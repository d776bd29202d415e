//! Robustness kernel: one degraded detection (severe IPC-record loss →
//! call-count fallback), so fault-layer overhead regressions show up.
//! The matrix itself is `jgre chaos`.

use criterion::{criterion_group, Criterion};
use jgre_core::ExperimentScale;
use jgre_defense::{DefenderConfig, JgreDefender, ScoringKind};
use jgre_framework::{CallOptions, System, SystemConfig};
use jgre_sim::{FaultIntensity, FaultKind, FaultPlan};

fn bench_degraded_detection(c: &mut Criterion) {
    let mut group = c.benchmark_group("chaos");
    group.sample_size(10);
    group.bench_function("degraded_detection_severe_ipc_drop", |b| {
        b.iter(|| {
            let scale = ExperimentScale::quick();
            let mut system = System::boot_with(SystemConfig {
                seed: 5,
                jgr_capacity: Some(scale.jgr_capacity),
                faults: FaultPlan::single(FaultKind::IpcDrop, FaultIntensity::Severe),
                ..SystemConfig::default()
            });
            let defender = JgreDefender::install(
                &mut system,
                DefenderConfig {
                    ..scale.defender_config()
                },
            )
            .expect("bench defender config is valid");
            let mal = system.install_app("com.evil", []);
            for _ in 0..10_000u32 {
                system
                    .call_service(
                        mal,
                        "clipboard",
                        "addPrimaryClipChangedListener",
                        CallOptions::default(),
                    )
                    .expect("clipboard registered");
                if let Some(d) = defender.poll(&mut system) {
                    assert_eq!(d.scoring, ScoringKind::CallCount);
                    break;
                }
            }
        });
    });
    group.finish();
}

criterion_group!(benches, bench_degraded_detection);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
