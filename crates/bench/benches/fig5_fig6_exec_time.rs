//! Figures 5 and 6 kernel: one IPC call into a vulnerable and an
//! innocent handler.

use criterion::{criterion_group, Criterion};
use jgre_framework::{CallOptions, System};

fn bench_ipc_call(c: &mut Criterion) {
    let mut group = c.benchmark_group("ipc_call");
    group.bench_function("vulnerable_handler", |b| {
        let mut system = System::boot(3);
        let app = system.install_app("com.bench", []);
        b.iter(|| {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .expect("clipboard registered")
        });
    });
    group.bench_function("innocent_handler", |b| {
        let mut system = System::boot(3);
        let app = system.install_app("com.bench", []);
        b.iter(|| {
            system
                .call_service(app, "clipboard", "getState", CallOptions::default())
                .expect("innocent method exists")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ipc_call);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
