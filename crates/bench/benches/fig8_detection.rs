//! Figure 8 kernel: Algorithm 1 scoring one attacker against ten sparse
//! benign apps, segment tree vs naive array.

use criterion::{criterion_group, Criterion};
use jgre_core::experiments::IpcByUid;
use jgre_defense::{naive_scores, segment_tree_scores, ScoreParams};
use jgre_sim::{SimTime, Uid};

/// Synthetic scoring workload: one attacker stream + `n_benign` sparse
/// benign streams over `adds` JGR events.
fn scoring_fixture(adds: usize, n_benign: usize) -> (IpcByUid, Vec<SimTime>) {
    let mut ipc: IpcByUid = Default::default();
    let mut jgr = Vec::with_capacity(adds);
    for k in 0..adds as u64 {
        let call = 10_000 + k * 2_000;
        ipc.entry(Uid::new(10_061))
            .or_default()
            .entry("IClipboard.addPrimaryClipChangedListener".into())
            .or_default()
            .push(SimTime::from_micros(call));
        jgr.push(SimTime::from_micros(call + 700));
    }
    for b in 0..n_benign as u64 {
        for k in 0..(adds as u64 / 4) {
            let call = 10_311 + b * 97 + k * 8_111 + (k * k * 31) % 1_999;
            ipc.entry(Uid::new(10_100 + b as u32))
                .or_default()
                .entry(format!("IAudioService.method{b}"))
                .or_default()
                .push(SimTime::from_micros(call));
        }
    }
    (ipc, jgr)
}

fn bench_scoring(c: &mut Criterion) {
    let (ipc, jgr) = scoring_fixture(8_000, 10);
    let params = ScoreParams::default();
    let mut group = c.benchmark_group("algorithm1");
    group.sample_size(20);
    group.bench_function("segment_tree_8000_adds", |b| {
        b.iter(|| segment_tree_scores(std::hint::black_box(&ipc), &jgr, params));
    });
    group.bench_function("naive_8000_adds", |b| {
        b.iter(|| naive_scores(std::hint::black_box(&ipc), &jgr, params));
    });
    group.finish();
}

criterion_group!(benches, bench_scoring);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
