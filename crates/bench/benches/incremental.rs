//! The summary cache's headline numbers: cold (first run with a cache
//! dir — computes everything and populates the file) vs warm (second
//! run, a pure Tier A hit) vs a one-method edit (a Tier A miss: the
//! edited corpus is re-solved whole and the table rewritten), plus the
//! uncached baseline, which the artifact's `*_over_uncached` time ratios
//! divide by. The acceptance bar from DESIGN.md §7 is warm ≥ 10x faster
//! than cold on an unchanged corpus, asserted here on manually timed
//! runs so the artifact records the actual ratio, not just criterion's
//! per-bench medians.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use criterion::{criterion_group, BatchSize, Criterion};
use jgre_analysis::{AnalysisOptions, LeakChecker, CACHE_FILE};
use jgre_bench::write_artifact;
use jgre_corpus::{spec::AospSpec, CodeModel, MethodId, ParamUsage};
use serde::Serialize;

/// Replicates every method `copies` times with suffixed class names and
/// offset call ids, so the summary engine sees a corpus several times
/// the AOSP seed while every fact fingerprint stays distinct. The
/// replicas are plain Java methods (the `(class, name)` specials in
/// body synthesis no longer match), but their binder params still drive
/// real allocation-site dataflow.
fn amplify(base: &CodeModel, copies: usize) -> CodeModel {
    let n = base.methods.len();
    let mut model = base.clone();
    for j in 1..copies {
        for def in &base.methods {
            let mut copy = def.clone();
            copy.id = MethodId((def.id.0 as usize + j * n) as u32);
            copy.class = format!("{}__copy{j}", def.class);
            for callee in copy.calls.iter_mut().chain(copy.handler_posts.iter_mut()) {
                *callee = MethodId((callee.0 as usize + j * n) as u32);
            }
            model.methods.push(copy);
        }
    }
    model
}

/// Flip the first binder param of one replica: the smallest edit that
/// actually changes a fact fingerprint and a summary.
fn edit_one_method(model: &CodeModel) -> CodeModel {
    let mut edited = model.clone();
    let target = edited
        .methods
        .iter()
        .position(|d| d.class.ends_with("__copy1") && !d.binder_params.is_empty())
        .expect("amplified corpus has a replica with binder params");
    let usage = &mut edited.methods[target].binder_params[0];
    *usage = if matches!(usage, ParamUsage::StoredInCollection) {
        ParamUsage::LocalOnly
    } else {
        ParamUsage::StoredInCollection
    };
    edited
}

fn min_time_ms(runs: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..runs {
        let start = Instant::now();
        f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
    }
    best
}

#[derive(Debug, Serialize)]
struct IncrementalArtifact {
    methods: usize,
    cold_ms: f64,
    warm_ms: f64,
    one_method_edit_ms: f64,
    uncached_ms: f64,
    warm_speedup: f64,
    edit_speedup: f64,
    warm_over_uncached: f64,
    edit_over_uncached: f64,
}

fn bench_incremental(c: &mut Criterion) {
    let base = CodeModel::synthesize(&AospSpec::android_6_0_1());
    let model = amplify(&base, 4);
    let edited = edit_one_method(&model);

    let dir: PathBuf = std::env::temp_dir().join(format!("jgre-bench-inc-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    let cached = AnalysisOptions::with_cache_dir(&dir);
    let cold_options = AnalysisOptions::default();

    let checker = LeakChecker::new(&model);
    let from_scratch = checker.analyze_with(&cold_options);
    checker.analyze_with(&cached);
    let pristine = std::fs::read(dir.join(CACHE_FILE)).expect("cache populated");
    let warm = checker.analyze_with(&cached);
    assert_eq!(
        warm.summaries, from_scratch.summaries,
        "warm summaries must equal from-scratch"
    );
    assert_eq!(warm.stats.cache_misses, 0, "second run must be a pure hit");

    let mut group = c.benchmark_group("incremental");
    group.sample_size(10);
    // Cold = the first run against an empty cache dir: computes every
    // summary and writes the file.
    group.bench_function("cold", |b| {
        b.iter_batched(
            || std::fs::remove_file(dir.join(CACHE_FILE)).unwrap(),
            |()| black_box(&checker).analyze_with(&cached),
            BatchSize::PerIteration,
        );
    });
    group.bench_function("warm", |b| {
        b.iter(|| black_box(&checker).analyze_with(&cached));
    });
    // Each edited run rewrites the cache file for the edited corpus, so
    // the pristine bytes are restored outside the timed region.
    group.bench_function("one_method_edit", |b| {
        b.iter_batched(
            || std::fs::write(dir.join(CACHE_FILE), &pristine).unwrap(),
            |()| LeakChecker::new(black_box(&edited)).analyze_with(&cached),
            BatchSize::PerIteration,
        );
    });
    group.bench_function("uncached", |b| {
        b.iter(|| black_box(&checker).analyze_with(&cold_options));
    });
    group.finish();

    // The acceptance ratio, measured directly (the vendored criterion
    // exposes no estimates): best-of-k to shave scheduler noise.
    let cold_ms = min_time_ms(3, || {
        std::fs::remove_file(dir.join(CACHE_FILE)).unwrap();
        black_box(checker.analyze_with(&cached));
    });
    let warm_ms = min_time_ms(5, || {
        black_box(checker.analyze_with(&cached));
    });
    let edit_ms = min_time_ms(3, || {
        std::fs::write(dir.join(CACHE_FILE), &pristine).unwrap();
        black_box(LeakChecker::new(&edited).analyze_with(&cached));
    });
    let uncached_ms = min_time_ms(3, || {
        black_box(checker.analyze_with(&cold_options));
    });
    std::fs::remove_dir_all(&dir).ok();

    let artifact = IncrementalArtifact {
        methods: model.methods.len(),
        cold_ms,
        warm_ms,
        one_method_edit_ms: edit_ms,
        uncached_ms,
        warm_speedup: cold_ms / warm_ms,
        edit_speedup: cold_ms / edit_ms,
        warm_over_uncached: warm_ms / uncached_ms,
        edit_over_uncached: edit_ms / uncached_ms,
    };
    let rendered = format!(
        "incremental summary cache ({} methods)\n\
         cold (populate):  {cold_ms:>8.3} ms\n\
         warm (pure hit):  {warm_ms:>8.3} ms  ({:.1}x)\n\
         one-method edit:  {edit_ms:>8.3} ms  ({:.1}x)\n\
         uncached:         {uncached_ms:>8.3} ms\n\
         warm / uncached:  {:>8.3}\n\
         edit / uncached:  {:>8.3}\n",
        artifact.methods,
        artifact.warm_speedup,
        artifact.edit_speedup,
        artifact.warm_over_uncached,
        artifact.edit_over_uncached
    );
    println!("{rendered}");
    assert!(
        artifact.warm_speedup >= 10.0,
        "warm re-analysis must be >= 10x faster than cold, got {:.1}x",
        artifact.warm_speedup
    );
    write_artifact("incremental_cache", &artifact, &rendered);
}

criterion_group!(benches, bench_incremental);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
