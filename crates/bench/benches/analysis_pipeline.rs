//! T-ANALYSIS: times the static pipeline stages behind the §IV headline
//! numbers and Tables I/IV/V.

use criterion::{criterion_group, Criterion};
use jgre_analysis::{IpcMethodExtractor, JgrEntryExtractor, Pipeline, VulnerableIpcDetector};
use jgre_corpus::{spec::AospSpec, CodeModel};

fn bench_pipeline(c: &mut Criterion) {
    let spec = AospSpec::android_6_0_1();
    let model = CodeModel::synthesize(&spec);
    let mut group = c.benchmark_group("analysis");
    group.bench_function("corpus_synthesis", |b| {
        b.iter(|| CodeModel::synthesize(std::hint::black_box(&spec)));
    });
    group.bench_function("ipc_method_extractor", |b| {
        b.iter(|| IpcMethodExtractor::new(std::hint::black_box(&model)).extract());
    });
    group.bench_function("jgr_entry_extractor", |b| {
        b.iter(|| JgrEntryExtractor::new(std::hint::black_box(&model)).extract());
    });
    let ipc = IpcMethodExtractor::new(&model).extract();
    let entries = JgrEntryExtractor::new(&model).extract();
    group.bench_function("vulnerable_ipc_detector", |b| {
        b.iter(|| VulnerableIpcDetector::new(std::hint::black_box(&model), &entries).detect(&ipc));
    });
    group.bench_function("static_pipeline_full", |b| {
        let pipeline = Pipeline::new(CodeModel::synthesize(&spec));
        b.iter(|| pipeline.run_static());
    });
    group.finish();
}

criterion_group!(benches, bench_pipeline);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
