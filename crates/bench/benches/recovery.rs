//! Crash-consistency costs: the two real-time kernels of the durable
//! defender — writing one checkpoint of a loaded monitor, and a full
//! resume (reopen + restore + replay) whose replay is bounded by the
//! checkpoint interval. The recovery bill in virtual time is the
//! `defender-crash` rows of `jgre chaos`.

use std::rc::Rc;

use criterion::{criterion_group, Criterion};
use jgre_core::ExperimentScale;
use jgre_defense::{DefenderConfig, DurableConfig, JgreDefender, MemoryStore};
use jgre_framework::{CallOptions, System, SystemConfig};
use jgre_sim::FaultPlan;

/// A defended system whose journal and watch tables carry real load:
/// returns the system, the defender, its configs, and a handle on the
/// shared store (for freezing its bytes).
fn loaded_defender() -> (
    System,
    JgreDefender,
    DefenderConfig,
    DurableConfig,
    Rc<MemoryStore>,
) {
    let scale = ExperimentScale::quick();
    let mut system = System::boot_with(SystemConfig {
        seed: 5,
        jgr_capacity: Some(scale.jgr_capacity),
        faults: FaultPlan::none(),
        ..SystemConfig::default()
    });
    let config = scale.defender_config();
    let durable = DurableConfig::default();
    let store = Rc::new(MemoryStore::new());
    let defender =
        JgreDefender::install_durable(&mut system, config.clone(), durable.clone(), store.clone())
            .unwrap();
    let mal = system.install_app("com.evil", []);
    // Enough traffic to fill the watch tables, not enough to alarm.
    for _ in 0..200u32 {
        system
            .call_service(
                mal,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .expect("clipboard registered");
        defender.poll(&mut system);
    }
    (system, defender, config, durable, store)
}

fn bench_recovery(c: &mut Criterion) {
    let mut group = c.benchmark_group("recovery");
    group.sample_size(20);

    let (system, defender, _, _, _) = loaded_defender();
    group.bench_function("checkpoint_write", |b| {
        b.iter(|| defender.checkpoint_now(&system));
    });
    drop((system, defender));

    // Freeze the store as a crashed process would leave it, then time a
    // full resume from those bytes.
    let (mut system, defender, config, durable, store) = loaded_defender();
    drop(defender);
    let interval = durable.checkpoint_interval;
    let journal_bytes = store.journal_bytes();
    let checkpoint_bytes = store.checkpoint_bytes();
    group.bench_function("resume_replay_from_checkpoint", |b| {
        b.iter(|| {
            let s = MemoryStore::new();
            s.set_journal_bytes(journal_bytes.clone());
            s.set_checkpoint_bytes(checkpoint_bytes.clone());
            system.clear_jgr_observers();
            let resumed =
                JgreDefender::resume(&mut system, config.clone(), durable.clone(), Rc::new(s))
                    .unwrap();
            assert!(
                resumed.stats().replayed_records <= interval,
                "replay must be bounded by the checkpoint interval"
            );
        });
    });
    group.finish();
}

criterion_group!(benches, bench_recovery);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
