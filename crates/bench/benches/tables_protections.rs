//! Tables II and III kernels: a helper-checked call and a server-limited
//! call.

use criterion::{criterion_group, Criterion};
use jgre_framework::{CallOptions, System};

fn bench_protection_paths(c: &mut Criterion) {
    let mut group = c.benchmark_group("protections");
    group.bench_function("helper_checked_call", |b| {
        let mut system = System::boot(9);
        let app = system.install_app("com.bench", [jgre_corpus::spec::Permission::WakeLock]);
        b.iter(|| {
            // The helper path includes the client-side bookkeeping; the
            // call keeps succeeding because each iteration uses the same
            // app and the helper releases above its cap via errors we
            // ignore here.
            let _ = system.call_service(app, "wifi", "acquireWifiLock", CallOptions::benign());
        });
    });
    group.bench_function("server_limited_call", |b| {
        let mut system = System::boot(9);
        let app = system.install_app("com.bench", []);
        b.iter(|| {
            system
                .call_service(app, "display", "registerCallback", CallOptions::default())
                .expect("display registered")
        });
    });
    group.finish();
}

criterion_group!(benches, bench_protection_paths);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
