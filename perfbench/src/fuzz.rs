//! `fuzz`: the coverage-guided Parcel fuzzer, then its lint differential.
//!
//! A session is what `jgre fuzz` runs: `run_fuzz` at the default 320k
//! budget over the whole surface on two worker threads, the uncached
//! lint, and `differential`. Two threads, because shard imbalance is the
//! fuzzer's known scaling problem and one thread would hide it.
//!
//! The traced run also replays every service shard alone (via
//! `FuzzConfig::services`, at the budget the full campaign gives it) to
//! price each shard and the imbalance of the round-robin dealing.

use std::collections::BTreeMap;
use std::time::Instant;

use jgre_core::analysis::{AnalysisOptions, LintReport};
use jgre_core::corpus::spec::AospSpec;
use jgre_core::corpus::CodeModel;
use jgre_core::sim::stream_seed;
use jgre_core::ExperimentScale;
use jgre_fuzz::{
    differential, run_fuzz, DifferentialReport, FuzzConfig, FuzzReport, LeakSignature,
};

use crate::report::{EndToEnd, RunResult};
use crate::stats::{median, sustained, tail};
use crate::trace::{timed, Tracer};
use crate::{set_up, Size};

/// Worker threads for the campaign.
const THREADS: usize = 2;

/// One session's outputs.
struct Session {
    report: FuzzReport,
    diff: DifferentialReport,
    fuzz_s: f64,
    total_s: f64,
}

fn session(
    config: &FuzzConfig,
    spec: &AospSpec,
    model: &CodeModel,
    mut tracer: Option<&mut Tracer>,
) -> Session {
    let start = Instant::now();
    let report = timed(&mut tracer, "fuzz.campaign", 0, || run_fuzz(config));
    let fuzz_s = start.elapsed().as_secs_f64();
    let lint = timed(&mut tracer, "analysis.generate", 0, || {
        LintReport::generate_with(model, spec, &AnalysisOptions::default())
    });
    let diff = timed(&mut tracer, "fuzz.differential", 0, || {
        differential(&report, &lint.diagnostics, config.scale, config.seed)
    });
    Session {
        report,
        diff,
        fuzz_s,
        total_s: start.elapsed().as_secs_f64(),
    }
}

/// The paper's ground truth, rediscovered black-box: 54 system-service
/// interfaces plus 3 prebuilt-app leaks, the `enqueueToast` spoof among
/// them, and a differential of 54 agreed, 3 fuzz-only, 0 lint-only.
fn check_session(result: &mut RunResult, s: &Session, what: &str) {
    let findings = &s.report.findings;
    let app_hosted = findings.iter().filter(|f| f.host == "app").count();
    let spoof = findings.iter().any(|f| {
        f.service == "notification"
            && f.method == "enqueueToast"
            && f.signature == LeakSignature::SpoofBypass
    });
    result
        .tally
        .check(findings.len() == 57 && app_hosted == 3 && spoof, || {
            format!(
                "{what}: {} findings, {app_hosted} app-hosted, enqueueToast spoof found: {spoof}",
                findings.len()
            )
        });
    result.tally.check(
        s.diff.agreed.len() == 54 && s.diff.fuzz_only.len() == 3 && s.diff.lint_only.is_empty(),
        || {
            format!(
                "{what}: differential {} agreed, {} fuzz-only, {} lint-only",
                s.diff.agreed.len(),
                s.diff.fuzz_only.len(),
                s.diff.lint_only.len()
            )
        },
    );
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> RunResult {
    let _ = size; // the ground-truth checks need the full default budget
    let mut result = RunResult::new();
    let ((spec, model), setup_s) = set_up(|| {
        let spec = AospSpec::android_6_0_1();
        let model = CodeModel::synthesize(&spec);
        (spec, model)
    });
    let config = FuzzConfig {
        seed: stream_seed(seed, 0),
        threads: THREADS,
        ..FuzzConfig::new(ExperimentScale::quick())
    };

    if trace {
        traced(&config, &spec, &model, &mut result);
        return result;
    }

    let started = Instant::now();
    let mut rates = Vec::new();
    let mut session_ms = Vec::new();
    let mut first: Option<FuzzReport> = None;
    while session_ms.is_empty() || started.elapsed().as_secs_f64() < seconds {
        let s = session(&config, &spec, &model, None);
        let i = session_ms.len();
        check_session(&mut result, &s, &format!("session {i}"));
        rates.push((s.report.execs + s.report.minimize_execs) as f64 / s.fuzz_s);
        session_ms.push(s.total_s * 1e3);
        match &first {
            Some(report) => result.tally.check(*report == s.report, || {
                format!("session {i}: report differs from session 0")
            }),
            None => first = Some(s.report),
        }
    }

    let execs_per_s = sustained(&rates);
    let p50 = median(&session_ms);
    let tail = tail(&session_ms);
    result.end_to_end = Some(EndToEnd {
        setup_s,
        throughput_per_s: execs_per_s,
        latency_p50_ms: p50,
        latency_tail: tail,
    });
    result.name("fuzz.execs_per_s", execs_per_s, "1/s");
    result.name("fuzz.session_p50_ms", p50, "ms");
    result.name(
        &format!("fuzz.session_{}_ms", tail.label()),
        tail.value,
        "ms",
    );
    result.name("fuzz.sessions", session_ms.len() as f64, "count");
    result.name("fuzz.threads", THREADS as f64, "count");
    result
}

/// The campaign's service shards in dealing order, each with the exec
/// budget the full campaign gives it: proportional to its method count,
/// the remainder topping up the first shards (as `run_fuzz` plans it).
fn shard_budgets(config: &FuzzConfig, spec: &AospSpec) -> Vec<(String, u64)> {
    let mut surface: Vec<(&str, usize)> = spec
        .services
        .iter()
        .chain(spec.prebuilt_apps.iter().flat_map(|a| a.services.iter()))
        .filter(|s| !s.methods.is_empty())
        .map(|s| (s.name.as_str(), s.methods.len()))
        .collect();
    surface.sort_by(|a, b| a.0.cmp(b.0));
    let total: u64 = surface.iter().map(|(_, m)| *m as u64).sum();
    let mut budgets: Vec<(String, u64)> = surface
        .iter()
        .map(|(name, m)| ((*name).to_owned(), config.iters * *m as u64 / total))
        .collect();
    let mut leftover = config.iters - budgets.iter().map(|(_, b)| b).sum::<u64>();
    for (_, budget) in &mut budgets {
        if leftover == 0 {
            break;
        }
        *budget += 1;
        leftover -= 1;
    }
    budgets
}

/// The traced run: a traced session between two untraced ones, then
/// every shard alone.
fn traced(config: &FuzzConfig, spec: &AospSpec, model: &CodeModel, result: &mut RunResult) {
    let untraced = session(config, spec, model, None);
    check_session(result, &untraced, "untraced session");

    let mut tracer = Tracer::new();
    let from_ns = tracer.clock_ns();
    let traced = session(config, spec, model, Some(&mut tracer));
    let coverage = tracer.top_level_ns(from_ns) as f64 / (traced.total_s * 1e9);
    check_session(result, &traced, "traced session");
    result.tally.check(traced.report == untraced.report, || {
        "traced campaign report differs from the untraced one".to_owned()
    });
    // A second untraced session after the traced one, so warm-up does not
    // count as tracing overhead.
    let again = session(config, spec, model, None);
    let untraced_s = (untraced.total_s + again.total_s) / 2.0;

    // Every shard alone. Each `run_fuzz` call also plans the campaign and
    // synthesizes its image; a zero-budget run prices that fixed cost,
    // which is taken off each shard's time.
    let shards = shard_budgets(config, spec);
    let alone = |service: &str, iters: u64| FuzzConfig {
        iters,
        threads: 1,
        services: Some(vec![service.to_owned()]),
        ..config.clone()
    };
    let fixed_ns = {
        let mut samples: Vec<f64> = (0..3)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(run_fuzz(&alone(&shards[0].0, 0)));
                start.elapsed().as_nanos() as f64
            })
            .collect();
        samples.sort_by(f64::total_cmp);
        samples[1] as u64
    };
    let mut shard_ns = Vec::new();
    let mut shard_execs = 0u64;
    for (shard, (service, budget)) in shards.iter().enumerate() {
        let span = tracer.open("fuzz.shard", shard as u64);
        let report = run_fuzz(&alone(service, *budget));
        shard_ns.push(tracer.close(span).saturating_sub(fixed_ns));
        shard_execs += report.execs;
    }
    result.tally.check(shard_execs == traced.report.execs, || {
        format!(
            "shard execs sum to {shard_execs}, the campaign ran {}",
            traced.report.execs
        )
    });
    let sum_ns: u64 = shard_ns.iter().sum();
    let mut workers = [0u64; THREADS];
    for (shard, ns) in shard_ns.iter().enumerate() {
        workers[shard % THREADS] += ns;
    }
    let busiest = workers.iter().copied().max().unwrap_or(0);

    let report = &traced.report;
    result.layer(
        "fuzz.shard.max_ns",
        shard_ns.iter().copied().max().unwrap_or(0) as f64,
    );
    result.layer("fuzz.shard.sum_ns", sum_ns as f64);
    result.layer(
        "fuzz.worker_imbalance",
        busiest as f64 / (sum_ns as f64 / THREADS as f64),
    );
    result.layer_ns(&tracer, "fuzz.differential");
    result.layer("fuzz.execs", report.execs as f64);
    result.layer("fuzz.minimize_execs", report.minimize_execs as f64);
    result.layer("fuzz.coverage.edges", report.coverage.edges as f64);
    result.layer(
        "fuzz.execs_to_first_leak",
        report.execs_to_first_leak.unwrap_or(0) as f64,
    );
    result.layer(
        "fuzz.completed_pair_ratio",
        report.coverage.completed_pairs as f64 / report.coverage.pairs.max(1) as f64,
    );
    let rejects: BTreeMap<&str, u64> = report
        .rejects
        .iter()
        .map(|(reason, count)| (reason.as_str(), *count))
        .collect();
    for (metric, _) in crate::report::LAYER_METRICS {
        if let Some(reason) = metric.strip_prefix("binder.rejects.") {
            result.layer(metric, rejects.get(reason).copied().unwrap_or(0) as f64);
        }
    }
    result.tally.check(
        rejects.keys().all(|reason| {
            crate::report::LAYER_METRICS
                .iter()
                .any(|(metric, _)| metric.strip_prefix("binder.rejects.") == Some(reason))
        }),
        || format!("an unknown reject reason among {:?}", rejects.keys()),
    );
    result.layer("bench.trace.coverage", coverage);
    result.layer("bench.trace.overhead_ratio", traced.total_s / untraced_s);
    result.layer("bench.trace.spans", tracer.spans().len() as f64);
    result.tracer = Some(tracer);
}
