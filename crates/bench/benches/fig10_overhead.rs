//! Figure 10 kernel: one 64 KiB transaction, stock driver vs the
//! defense's recording driver.

use criterion::{criterion_group, Criterion};
use jgre_binder::{BinderDriver, Parcel};
use jgre_sim::{Pid, SimClock, TraceSink, Uid};

fn bench_transactions(c: &mut Criterion) {
    let mut group = c.benchmark_group("binder");
    for defense in [false, true] {
        group.bench_function(
            if defense {
                "transaction_with_recording"
            } else {
                "transaction_stock"
            },
            |b| {
                let clock = SimClock::new();
                let mut driver = BinderDriver::new(clock, TraceSink::disabled());
                driver.set_defense_recording(defense);
                driver.set_log_enabled(false);
                let node = driver.create_node(Pid::new(412), "echo");
                let mut parcel = Parcel::new();
                parcel.write_string("payload").write_blob(64 * 1024);
                b.iter(|| {
                    driver
                        .record_transaction(
                            Pid::new(9_000),
                            Uid::new(10_000),
                            node,
                            "IEcho",
                            "deliver",
                            std::hint::black_box(&parcel),
                        )
                        .expect("node is alive")
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_transactions);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
