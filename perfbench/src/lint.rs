//! `lint`: the static pipeline and its summary cache on an amplified
//! corpus.
//!
//! The synthesized AOSP code model is replicated ×4 (≈15k methods); a
//! single lint of the 3.7k-method base corpus is too short to time. A
//! lint is `LintReport::generate_with` plus SARIF serialisation. Phases:
//! uncached lints, cold cached lints into an empty cache directory, warm
//! re-lints, then a seeded sequence of single-method edits, each followed
//! by a cached re-lint — so the cache's writes are measured beside its
//! reads.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use jgre_core::analysis::{
    cache, AnalysisOptions, IpcMethodExtractor, JgrEntryExtractor, LeakChecker, LintReport,
    CACHE_FILE,
};
use jgre_core::corpus::spec::AospSpec;
use jgre_core::corpus::{CodeModel, MethodId, ParamUsage};
use jgre_core::sim::{stream_seed, SimRng};

use crate::report::{EndToEnd, RunResult};
use crate::stats::{median, sustained, tail};
use crate::trace::Tracer;
use crate::{set_up, Size};

/// Corpus replication factor.
const COPIES: usize = 4;
/// Edit rounds per run at least: enough for a p95 tail (200 samples),
/// and the run keeps going until its time is up.
const MIN_EDITS: usize = 200;
/// Edit rounds of the traced run.
const TRACED_EDITS: usize = 20;

/// Replicates every method `copies` times with suffixed class names and
/// offset call ids, so the summary engine sees a corpus several times the
/// AOSP seed while every fact fingerprint stays distinct.
pub fn amplify(base: &CodeModel, copies: usize) -> CodeModel {
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

/// The seeded edit sequence: each edit flips the first binder parameter
/// of one method between retained and local-only — the smallest edit that
/// changes a fact fingerprint and a summary.
struct Editor {
    rng: SimRng,
    candidates: Vec<usize>,
}

impl Editor {
    fn new(seed: u64, model: &CodeModel) -> Self {
        Self {
            rng: SimRng::seed(stream_seed(seed, 1)),
            candidates: model
                .methods
                .iter()
                .enumerate()
                .filter(|(_, d)| !d.binder_params.is_empty())
                .map(|(i, _)| i)
                .collect(),
        }
    }

    fn edit(&mut self, model: &mut CodeModel) {
        let target = *self
            .rng
            .choose(&self.candidates)
            .expect("the corpus has methods with binder params");
        let usage = &mut model.methods[target].binder_params[0];
        *usage = if matches!(usage, ParamUsage::StoredInCollection) {
            ParamUsage::LocalOnly
        } else {
            ParamUsage::StoredInCollection
        };
    }
}

/// The SARIF document a lint emits, serialised.
fn sarif(report: &LintReport, model: &CodeModel) -> String {
    serde_json::to_string(&report.to_sarif(model)).expect("SARIF serialises")
}

/// A work directory under the current directory, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new(tag: &str) -> Self {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let n = NEXT.fetch_add(1, Ordering::Relaxed);
        let dir = PathBuf::from(".perfbench-out").join(format!("{tag}-{}-{n}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("the working directory is writable");
        Self(dir)
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Succeeds only when nothing else (such as a span file) is left.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

struct Corpus {
    spec: AospSpec,
    base: CodeModel,
    model: CodeModel,
}

fn corpus(copies: usize) -> Corpus {
    let spec = AospSpec::android_6_0_1();
    let base = CodeModel::synthesize(&spec);
    let model = amplify(&base, copies);
    Corpus { spec, base, model }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> RunResult {
    let started = Instant::now();
    let (copies, edits) = match size {
        Size::Full => (COPIES, if trace { TRACED_EDITS } else { MIN_EDITS }),
        Size::Tiny => (1, 10),
    };
    let mut result = RunResult::new();
    let (Corpus { spec, base, model }, setup_s) = set_up(|| corpus(copies));

    let accuracy = LintReport::generate(&base, &spec).accuracy;
    result.tally.check(
        accuracy.true_positives == 54
            && accuracy.false_positives == 0
            && accuracy.false_negatives == 0,
        || format!("base corpus accuracy {accuracy:?}, expected tp=54 fp=0 fn=0"),
    );

    if trace {
        traced(seed, &spec, &model, edits, &mut result);
        return result;
    }

    let deadline = started + Duration::from_secs_f64(seconds);
    let samples = rounds(seed, &spec, &model, edits, deadline, None, &mut result);
    let methods = model.methods.len() as f64;
    let rates: Vec<f64> = samples
        .uncached
        .iter()
        .map(|ms| methods / (ms / 1e3))
        .collect();
    let throughput = sustained(&rates);
    let p50 = median(&samples.edit);
    let tail = tail(&samples.edit);
    result.end_to_end = Some(EndToEnd {
        setup_s,
        throughput_per_s: throughput,
        latency_p50_ms: p50,
        latency_tail: tail,
    });
    result.name("lint.methods", methods, "count");
    result.name("lint.uncached_ms", median(&samples.uncached), "ms");
    result.name("lint.cold_ms", median(&samples.cold), "ms");
    result.name("lint.warm_ms", median(&samples.warm), "ms");
    result.name("lint.edit_p50_ms", p50, "ms");
    result.name(&format!("lint.edit_{}_ms", tail.label()), tail.value, "ms");
    result.name("lint.edits", samples.edit.len() as f64, "count");
    result
}

/// Lint times of one run, ms, by phase.
#[derive(Debug, Default)]
struct Samples {
    edit: Vec<f64>,
    uncached: Vec<f64>,
    warm: Vec<f64>,
    cold: Vec<f64>,
}

/// One timed lint, inside a span named `phase` when tracing.
fn step(
    tracer: &mut Option<&mut Tracer>,
    phase: &'static str,
    unit: u64,
    model: &CodeModel,
    spec: &AospSpec,
    options: &AnalysisOptions,
) -> (LintReport, f64) {
    let Some(t) = tracer.as_deref_mut() else {
        let start = Instant::now();
        let report = LintReport::generate_with(model, spec, options);
        std::hint::black_box(sarif(&report, model));
        return (report, start.elapsed().as_secs_f64() * 1e3);
    };
    let span = t.open(phase, unit);
    let report = t.time("analysis.generate", unit, || {
        LintReport::generate_with(model, spec, options)
    });
    t.time("analysis.sarif", unit, || sarif(&report, model));
    let ns = t.close(span);
    (report, ns as f64 / 1e6)
}

/// The measured loop. Phases are interleaved round by round, so every
/// phase samples the whole run rather than one stretch of it: edit one
/// method and re-lint with the cache, lint the edited corpus uncached,
/// re-lint it warm, and every fourth round lint it cold into an emptied
/// cache. Runs `min_rounds` rounds, and more until `deadline`.
fn rounds(
    seed: u64,
    spec: &AospSpec,
    model: &CodeModel,
    min_rounds: usize,
    deadline: Instant,
    mut tracer: Option<&mut Tracer>,
    result: &mut RunResult,
) -> Samples {
    let work = WorkDir::new("lint");
    let cached = AnalysisOptions::with_cache_dir(&work.0);
    let uncached = AnalysisOptions::default();
    let mut samples = Samples::default();
    // Populate the cache, so the first edit is an edit.
    LintReport::generate_with(model, spec, &cached);
    let mut editor = Editor::new(seed, model);
    let mut edited = model.clone();
    while samples.edit.len() < min_rounds || Instant::now() < deadline {
        let i = samples.edit.len();
        let unit = i as u64;
        editor.edit(&mut edited);
        let (after_edit, ms) = step(&mut tracer, "lint.edit", unit, &edited, spec, &cached);
        samples.edit.push(ms);
        let (truth, ms) = step(&mut tracer, "lint.uncached", unit, &edited, spec, &uncached);
        samples.uncached.push(ms);
        result
            .tally
            .check(after_edit.diagnostics == truth.diagnostics, || {
                format!("edit {i}: cached diagnostics differ from the uncached lint")
            });
        let (warm, ms) = step(&mut tracer, "lint.warm", unit, &edited, spec, &cached);
        samples.warm.push(ms);
        result.tally.check(
            warm.diagnostics == truth.diagnostics && warm.stats.cache_misses == 0,
            || {
                format!(
                    "warm lint {i}: diagnostics differ, or {} cache misses",
                    warm.stats.cache_misses
                )
            },
        );
        if i % 4 == 0 {
            let _ = fs::remove_file(work.0.join(CACHE_FILE));
            let (cold, ms) = step(&mut tracer, "lint.cold", unit, &edited, spec, &cached);
            samples.cold.push(ms);
            result
                .tally
                .check(cold.diagnostics == truth.diagnostics, || {
                    format!("cold lint {i}: diagnostics differ from the uncached lint")
                });
        }
    }
    samples
}

/// The fixed per-lint cost before the solver: IPC and JGR extraction and
/// the checker's construction, as `generate_with` performs them.
fn checker_new(model: &CodeModel) -> usize {
    let ipc = IpcMethodExtractor::new(model).extract();
    let entries = JgrEntryExtractor::new(model).extract();
    let checker = LeakChecker::new(model).with_entries(&entries);
    std::hint::black_box(&checker);
    ipc.len()
}

/// Runs the analysis stage alone, exactly as `generate_with` invokes it.
fn analyze(
    model: &CodeModel,
    options: &AnalysisOptions,
) -> jgre_core::analysis::leakcheck::LeakAnalysis {
    let entries = JgrEntryExtractor::new(model).extract();
    LeakChecker::new(model)
        .with_entries(&entries)
        .analyze_with(options)
}

/// The corpus fingerprint a cache file was written for (header bytes
/// 12..20: after the 8-byte magic and the 4-byte schema version).
fn cache_fingerprint(bytes: &[u8]) -> Option<u64> {
    Some(u64::from_le_bytes(bytes.get(12..20)?.try_into().ok()?))
}

/// Times `cache::load` and `cache::store` on the file a phase wrote, and
/// checks that storing what was loaded reproduces the file.
fn cache_round_trip(
    tracer: &mut Tracer,
    unit: u64,
    path: &Path,
    methods: usize,
    restored: &Path,
    result: &mut RunResult,
) -> u64 {
    let bytes = fs::read(path).expect("the phase wrote its cache file");
    let fp = cache_fingerprint(&bytes).expect("cache header present");
    let span = tracer.open("analysis.cache.load", unit);
    let loaded = cache::load(path, fp, methods);
    tracer.close(span);
    let Some(tier_a) = loaded.tier_a.filter(|_| loaded.invalidated == 0) else {
        result.tally.check(false, || {
            format!("unit {unit}: cache file did not load clean")
        });
        return bytes.len() as u64;
    };
    // A fingerprint mismatch makes `load` verify and return the Tier B
    // records instead of Tier A.
    let records = cache::load(path, !fp, methods).tier_b;
    let encoded = cache::encode_tier_a(&tier_a);
    let span = tracer.open("analysis.cache.store", unit);
    let stored = cache::store(restored, fp, loaded.scc_count, &encoded, &records);
    tracer.close(span);
    result.tally.check(
        stored.is_ok() && fs::read(restored).ok().as_deref() == Some(&bytes[..]),
        || format!("unit {unit}: storing the loaded cache does not reproduce the file"),
    );
    bytes.len() as u64
}

/// The traced run: the lint phases once untraced and once with a span per
/// lint, then the same sequence decomposed into its layers.
fn traced(seed: u64, spec: &AospSpec, model: &CodeModel, edits: usize, result: &mut RunResult) {
    let mut tracer = Tracer::new();
    let span = tracer.open("corpus.synthesize", 0);
    std::hint::black_box(CodeModel::synthesize(spec));
    tracer.close(span);

    // Untraced passes on both sides of the traced one, so warm-up does
    // not count as tracing overhead.
    let pass = |tracer: Option<&mut Tracer>, result: &mut RunResult| {
        let start = Instant::now();
        rounds(seed, spec, model, edits, start, tracer, result);
        start.elapsed().as_secs_f64()
    };
    let before_s = pass(None, result);
    let from_ns = tracer.clock_ns();
    let traced_s = pass(Some(&mut tracer), result);
    let coverage = tracer.top_level_ns(from_ns) as f64 / (traced_s * 1e9);
    let after_s = pass(None, result);
    let untraced_s = (before_s + after_s) / 2.0;

    // The same rounds decomposed into layers: `analyze_with` per phase,
    // and the cache file each cached phase wrote loaded and re-stored.
    let work = WorkDir::new("lint-layers");
    let cached = AnalysisOptions::with_cache_dir(&work.0);
    let uncached = AnalysisOptions::default();
    let path = work.0.join(CACHE_FILE);
    let restored = work.0.join("restored.bin");
    let n = model.methods.len();
    let span = tracer.open("analysis.checker_new", 0);
    checker_new(model);
    tracer.close(span);
    analyze(model, &cached);
    let mut editor = Editor::new(seed, model);
    let mut edited = model.clone();
    let mut stats = Vec::new();
    let mut cache_bytes = 0;
    let mut solver = None;
    for i in 0..edits {
        let unit = i as u64;
        editor.edit(&mut edited);
        let edit = tracer.time("analysis.analyze.edit", unit, || analyze(&edited, &cached));
        cache_round_trip(&mut tracer, unit, &path, n, &restored, result);
        let truth = tracer.time("analysis.analyze.uncached", unit, || {
            analyze(&edited, &uncached)
        });
        let warm = tracer.time("analysis.analyze.warm", unit, || analyze(&edited, &cached));
        cache_bytes = cache_round_trip(&mut tracer, unit, &path, n, &restored, result);
        result.tally.check(
            edit.summaries == truth.summaries && warm.summaries == truth.summaries,
            || format!("edit {i}: cached summaries differ from uncached"),
        );
        stats.extend([edit.stats, warm.stats]);
        if i % 4 == 0 {
            let _ = fs::remove_file(&path);
            let cold = tracer.time("analysis.analyze.cold", unit, || analyze(&edited, &cached));
            cache_round_trip(&mut tracer, unit, &path, n, &restored, result);
            stats.push(cold.stats);
        }
        solver.get_or_insert(truth.stats);
    }
    let solver = solver.expect("at least one round");
    let hits: u64 = stats.iter().map(|s| s.cache_hits).sum();
    let misses: u64 = stats.iter().map(|s| s.cache_misses).sum();

    result.layer_ns(&tracer, "corpus.synthesize");
    result.layer_ns(&tracer, "analysis.checker_new");
    for phase in ["uncached", "cold", "warm", "edit"] {
        result.layer_ns(&tracer, &format!("analysis.analyze.{phase}"));
    }
    result.layer_ns(&tracer, "analysis.cache.load");
    result.layer_ns(&tracer, "analysis.cache.store");
    result.layer_ns(&tracer, "analysis.sarif");
    result.layer("analysis.methods", solver.methods as f64);
    result.layer("analysis.sccs", solver.sccs as f64);
    result.layer(
        "analysis.solver_iterations",
        solver.solver_iterations as f64,
    );
    result.layer("analysis.cache.hits", hits as f64);
    result.layer("analysis.cache.misses", misses as f64);
    result.layer(
        "analysis.cache.invalidated",
        stats.iter().map(|s| s.cache_invalidated).sum::<u64>() as f64,
    );
    result.layer(
        "analysis.cache.hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );
    result.layer("analysis.cache.bytes", cache_bytes as f64);
    result.layer(
        "analysis.diagnostics",
        LintReport::generate(model, spec).diagnostics.len() as f64,
    );
    result.layer("bench.trace.coverage", coverage);
    result.layer("bench.trace.overhead_ratio", traced_s / untraced_s);
    result.layer("bench.trace.spans", tracer.spans().len() as f64);
    result.tracer = Some(tracer);
}
