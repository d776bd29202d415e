//! What a workload run hands back: its correctness tally, its end-to-end
//! figures, the workload's own named figures, and (traced runs) its
//! per-layer metrics.

use std::collections::BTreeMap;

use crate::stats::Tail;
use crate::trace::Tracer;

/// Every per-layer metric the traced run reports, with its unit, in
/// report order. A workload that never enters a layer reports `0` for it.
pub const LAYER_METRICS: &[(&str, &str)] = &[
    // fleet: the device-execution loop.
    ("core.boot.ns", "ns"),
    ("core.boot.calls", "count"),
    ("framework.install_app.ns", "ns"),
    ("framework.call_service.ns", "ns"),
    ("framework.call_service.calls", "count"),
    ("defense.poll.ns", "ns"),
    ("defense.poll.calls", "count"),
    ("defense.poll.hit_ratio", "ratio"),
    ("binder.transactions", "count"),
    ("art.jgr_peak", "count"),
    ("defense.scorer.pairs_processed", "count"),
    ("defense.scorer.records_scanned", "count"),
    ("defense.kills", "count"),
    // serve: the streaming defender.
    ("defense.frame.decode.ns", "ns"),
    ("defense.ingest.ns", "ns"),
    ("defense.scorer.push.ns", "ns"),
    ("defense.scorer.report.ns", "ns"),
    ("defense.scorer.passes", "count"),
    ("defense.scorer.verdict_ratio", "ratio"),
    ("defense.verdicts.not_attacker", "count"),
    ("defense.journal.bytes", "bytes"),
    ("defense.journal.compactions", "count"),
    ("defense.recover.ns", "ns"),
    ("defense.ring.accepted", "count"),
    ("defense.ring.dropped", "count"),
    ("defense.frame.rejected", "count"),
    ("bench.serve.late_chunks", "count"),
    ("bench.serve.late_max_us", "us"),
    // lint: the static pipeline and its summary cache.
    ("corpus.synthesize.ns", "ns"),
    ("analysis.checker_new.ns", "ns"),
    ("analysis.analyze.uncached.ns", "ns"),
    ("analysis.analyze.cold.ns", "ns"),
    ("analysis.analyze.warm.ns", "ns"),
    ("analysis.analyze.edit.ns", "ns"),
    ("analysis.cache.load.ns", "ns"),
    ("analysis.cache.store.ns", "ns"),
    ("analysis.sarif.ns", "ns"),
    ("analysis.methods", "count"),
    ("analysis.sccs", "count"),
    ("analysis.solver_iterations", "count"),
    ("analysis.cache.hits", "count"),
    ("analysis.cache.misses", "count"),
    ("analysis.cache.invalidated", "count"),
    ("analysis.cache.hit_ratio", "ratio"),
    ("analysis.cache.bytes", "bytes"),
    ("analysis.diagnostics", "count"),
    // fuzz: raw dispatch under malformed traffic, shard scheduling.
    ("fuzz.shard.max_ns", "ns"),
    ("fuzz.shard.sum_ns", "ns"),
    ("fuzz.worker_imbalance", "ratio"),
    ("fuzz.differential.ns", "ns"),
    ("fuzz.execs", "count"),
    ("fuzz.minimize_execs", "count"),
    ("fuzz.coverage.edges", "count"),
    ("fuzz.execs_to_first_leak", "count"),
    ("fuzz.completed_pair_ratio", "ratio"),
    ("binder.rejects.unknown-code", "count"),
    ("binder.rejects.parcel-underflow", "count"),
    ("binder.rejects.parcel-type-mismatch", "count"),
    ("binder.rejects.stale-binder", "count"),
    ("binder.rejects.missing-binder", "count"),
    ("binder.rejects.oversized-payload", "count"),
    // The trace itself.
    ("bench.trace.coverage", "ratio"),
    ("bench.trace.overhead_ratio", "ratio"),
    ("bench.trace.spans", "count"),
];

/// Correctness bookkeeping: every operation a workload performs is
/// attempted once and either passes its checks or counts as failed.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a check.
    pub failed: u64,
    /// The first failure messages.
    pub problems: Vec<String>,
}

impl Tally {
    /// Records one operation; `what` describes it when `ok` is false.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(what());
            }
        }
    }

    /// Whether every check passed.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// Failed operations ÷ attempted.
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            1.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }
}

/// The end-to-end figures every workload reports under the same names.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Median set-up time over the run's repeated set-ups, s.
    pub setup_s: f64,
    /// Work completed per second in the workload's closed-loop phase.
    pub throughput_per_s: f64,
    /// Median per-operation latency, ms.
    pub latency_p50_ms: f64,
    /// Tail per-operation latency, ms.
    pub latency_tail: Tail,
}

/// One workload run.
#[derive(Debug)]
pub struct RunResult {
    /// Correctness tally.
    pub tally: Tally,
    /// End-to-end figures (untraced runs).
    pub end_to_end: Option<EndToEnd>,
    /// The workload's own figures, under the names the workload uses for
    /// them (`fleet.devices_per_s`, `lint.warm_ms`, …), with units.
    pub named: Vec<(String, f64, &'static str)>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The spans of a traced run.
    pub tracer: Option<Tracer>,
}

impl RunResult {
    /// An empty result to fill in.
    pub fn new() -> Self {
        Self {
            tally: Tally::default(),
            end_to_end: None,
            named: Vec::new(),
            layers: BTreeMap::new(),
            tracer: None,
        }
    }

    /// Adds a workload-named figure.
    pub fn name(&mut self, name: &str, value: f64, unit: &'static str) {
        self.named.push((name.to_owned(), value, unit));
    }

    /// Sets a per-layer metric.
    ///
    /// # Panics
    ///
    /// Panics when `name` is not in [`LAYER_METRICS`].
    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            LAYER_METRICS.iter().any(|(n, _)| *n == name),
            "unknown layer metric {name}"
        );
        self.layers.insert(name, value);
    }
}

impl RunResult {
    /// Sets the layer metric `<span>.ns` to the summed duration of the
    /// spans called `span`.
    ///
    /// # Panics
    ///
    /// Panics when [`LAYER_METRICS`] has no `<span>.ns`.
    pub fn layer_ns(&mut self, tracer: &Tracer, span: &str) {
        let metric = LAYER_METRICS
            .iter()
            .map(|(name, _)| *name)
            .find(|name| name.strip_suffix(".ns") == Some(span))
            .unwrap_or_else(|| panic!("no layer metric {span}.ns"));
        self.layers.insert(metric, tracer.total_ns(span) as f64);
    }
}

impl Default for RunResult {
    fn default() -> Self {
        Self::new()
    }
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))?
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb / 1024.0)
}

/// Where and with what a result was measured.
#[derive(Debug, Clone)]
pub struct Host {
    /// Hardware threads available to this process.
    pub nproc: usize,
    /// CPU model string.
    pub cpu: String,
    /// Build profile of this binary.
    pub profile: &'static str,
    /// `rustc -V` of the toolchain that built it.
    pub rustc: &'static str,
    /// Source revision, when built from a git checkout.
    pub commit: &'static str,
}

impl Host {
    /// Fingerprints the running host and build.
    pub fn detect() -> Self {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|rest| rest.trim_start_matches([' ', '\t', ':']).trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            cpu,
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            rustc: env!("PERFBENCH_RUSTC_VERSION"),
            commit: env!("PERFBENCH_GIT_COMMIT"),
        }
    }

    /// One-line JSON rendering.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"profile\":{},\"rustc\":{},\"commit\":{}}}",
            self.nproc,
            json_string(&self.cpu),
            json_string(self.profile),
            json_string(self.rustc),
            json_string(self.commit)
        )
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
