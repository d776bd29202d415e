//! The coverage-guided campaign: probe sweep, spoof escalation, mutation
//! storm, and delta-debug minimization — all deterministic per seed.
//!
//! # Determinism contract
//!
//! Work is sharded **per service**: shard *s* draws its mutation decisions
//! from `SimRng::stream(seed, STREAM_BASE + s)` and boots every trial
//! device at `stream_seed(seed, trial_stream(s, seq))`, so a shard's
//! results depend only on `(seed, s)`. Worker threads deal shards
//! round-robin ([`jgre_sim::round_robin`]), every merged counter adds
//! commutatively, and findings are sorted by `(service, method,
//! signature)`, so the report is byte-identical for every `--threads`
//! value.
//!
//! # The leak oracle
//!
//! A probe sends [`PROBE_CALLS`] well-formed transactions from a fresh
//! app, forces a GC on the host, and reads the surviving JGR growth —
//! the paper's dynamic verification (§IV-C). Growth beyond
//! [`LEAK_THRESHOLD`] cannot be explained by any sound per-process cap
//! in the image (the largest is `MAX_ACTIVE_LOCKS = 50`), so the method
//! retains per call without bound. A probe that instead observes the
//! server-limit rejection edge earns a **spoof re-probe** with the
//! `"android"` package — the coverage-guided escalation that rediscovers
//! `enqueueToast`'s Code-Snippet 3 flaw without static hints.

use std::collections::{BTreeMap, BTreeSet};

use jgre_binder::{NodeId, Parcel};
use jgre_core::fleet::DeviceArena;
use jgre_core::{DefendedDevice, ExperimentScale};
use jgre_corpus::spec::{
    AospSpec, MethodSpec, Permission, Protection, ProtectionLevel, ServiceSpec,
};
use jgre_framework::{CallOutcome, CallStatus, FrameworkError};
use jgre_sim::{stream_seed, SimRng, Uid};

use crate::input::{FuzzInput, ParcelOp};
use crate::report::{CoverageSummary, Finding, FuzzReport, LeakSignature, MinimizedRepro};

/// Well-formed calls per leak probe: enough to overshoot every sound
/// per-process cap with margin, small enough to stay far below the
/// defender's quick-scale kill trigger.
pub const PROBE_CALLS: u32 = 64;

/// The largest sound per-process cap on the image (`MAX_ACTIVE_LOCKS`
/// = 50 in `WifiManager.java`). GC-surviving growth beyond it cannot be
/// a capped interface.
pub const SOUND_CAP_MAX: usize = 50;

/// Probe growth at or above this is reported as a leak: strictly above
/// [`SOUND_CAP_MAX`] with margin for paired-release noise.
pub const LEAK_THRESHOLD: usize = SOUND_CAP_MAX + 6;

/// Offset separating shard RNG streams from trial-device seed streams.
const STREAM_BASE: u64 = 0x8000_0000;

/// Which slice of the IPC surface the fuzzer sweeps.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttackSurface {
    /// Every exported method.
    All,
    /// SDK-mediated methods: permission-gated or protection-wrapped.
    Sdk,
    /// Hidden methods: no permission, no protection — reachable only via
    /// raw transactions.
    Hidden,
}

impl AttackSurface {
    /// Parses the CLI selector.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "all" => Some(Self::All),
            "sdk" => Some(Self::Sdk),
            "hidden" => Some(Self::Hidden),
            _ => None,
        }
    }

    /// Stable label echoed into the report.
    pub fn label(self) -> &'static str {
        match self {
            Self::All => "all",
            Self::Sdk => "sdk",
            Self::Hidden => "hidden",
        }
    }

    fn admits(self, m: &MethodSpec) -> bool {
        let mediated = m.permission.is_some() || !matches!(m.protection, Protection::None);
        match self {
            Self::All => true,
            Self::Sdk => mediated,
            Self::Hidden => !mediated,
        }
    }
}

/// Fuzzer configuration. The report depends on every field except
/// `threads`.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Campaign seed.
    pub seed: u64,
    /// Budgeted fuzz execs (transactions) across the whole surface,
    /// split across services proportionally to their method counts.
    pub iters: u64,
    /// Worker threads (shards deal round-robin; no effect on output).
    pub threads: usize,
    /// Surface selector.
    pub attack_surface: AttackSurface,
    /// Device scale for every trial boot.
    pub scale: ExperimentScale,
    /// Restrict the sweep to these services (tests pin single-service
    /// campaigns this way); `None` sweeps everything.
    pub services: Option<Vec<String>>,
}

impl FuzzConfig {
    /// Defaults: the scale's seed, a budget sized for a full probe sweep
    /// over the ~2430-method surface (64 calls each) plus spoof re-probes
    /// and a mutation tail, one thread, the whole surface.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            seed: scale.seed,
            iters: 320_000,
            threads: 1,
            attack_surface: AttackSurface::All,
            scale,
            services: None,
        }
    }
}

/// One method the plan targets.
struct MethodPlan {
    name: String,
    code: u32,
}

/// One service shard: its admitted methods, the permissions a fuzz app
/// requests up front, and its fixed exec budget.
struct ServicePlan {
    name: String,
    host: &'static str,
    methods: Vec<MethodPlan>,
    grantable: Vec<Permission>,
    budget: u64,
    /// Global exec index where this shard's budget window starts — what
    /// makes `discovered_at_exec` thread-count independent.
    exec_offset: u64,
}

/// Every exported service on the image with its host kind: system
/// services, then prebuilt-app services.
fn surface(spec: &AospSpec) -> impl Iterator<Item = (&'static str, &ServiceSpec)> {
    let system = spec.services.iter().map(|svc| ("system", svc));
    let apps = spec
        .prebuilt_apps
        .iter()
        .flat_map(|app| app.services.iter());
    system.chain(apps.map(|svc| ("app", svc)))
}

/// The permissions a fuzz app requests up front for `svc`: every
/// manifest-level requirement a third-party app can be granted.
fn grantable(svc: &ServiceSpec) -> Vec<Permission> {
    let grantable: BTreeSet<Permission> = svc
        .methods
        .iter()
        .filter_map(|m| m.permission)
        .filter(|p| p.level() != ProtectionLevel::Signature)
        .collect();
    grantable.into_iter().collect()
}

/// Builds the shard plan from the public surface of the image: service
/// names, method tables in transaction-code order, and manifest-level
/// permission requirements. No retention behaviour, protection
/// soundness, or flaw information flows in — discovery stays dynamic.
fn build_plan(config: &FuzzConfig) -> Vec<ServicePlan> {
    let spec = AospSpec::android_6_0_1();
    let mut surface: Vec<(&'static str, &ServiceSpec)> = surface(&spec).collect();
    surface.sort_by(|a, b| a.1.name.cmp(&b.1.name));
    let mut plans: Vec<ServicePlan> = surface
        .into_iter()
        .filter(|(_, svc)| match &config.services {
            Some(keep) => keep.iter().any(|k| k == &svc.name),
            None => true,
        })
        .filter_map(|(host, svc)| {
            let methods: Vec<MethodPlan> = svc
                .methods
                .iter()
                .enumerate()
                .filter(|(_, m)| config.attack_surface.admits(m))
                .map(|(i, m)| MethodPlan {
                    name: m.name.clone(),
                    code: i as u32 + jgre_framework::FIRST_CALL_TRANSACTION,
                })
                .collect();
            if methods.is_empty() {
                return None;
            }
            Some(ServicePlan {
                name: svc.name.clone(),
                host,
                methods,
                grantable: grantable(svc),
                budget: 0,
                exec_offset: 0,
            })
        })
        .collect();
    // Budget proportional to method count; the remainder tops up the
    // first shards. Fixed a priori, so it is identical for every thread
    // count.
    let total_methods: u64 = plans.iter().map(|p| p.methods.len() as u64).sum();
    let mut assigned = 0u64;
    for plan in &mut plans {
        plan.budget = (config.iters * plan.methods.len() as u64)
            .checked_div(total_methods)
            .unwrap_or(0);
        assigned += plan.budget;
    }
    let mut leftover = config.iters.saturating_sub(assigned);
    for plan in &mut plans {
        if leftover == 0 {
            break;
        }
        plan.budget += 1;
        leftover -= 1;
    }
    let mut offset = 0u64;
    for plan in &mut plans {
        plan.exec_offset = offset;
        offset += plan.budget;
    }
    plans
}

/// Everything one shard (or one worker's run of shards) produced.
#[derive(Default)]
struct ShardOutcome {
    edges: BTreeSet<(String, String, String)>,
    completed: BTreeSet<(String, String)>,
    outcomes: BTreeMap<String, u64>,
    rejects: BTreeMap<String, u64>,
    findings: Vec<Finding>,
    execs: u64,
    minimize_execs: u64,
    host_aborts: u64,
    detections: u64,
}

impl ShardOutcome {
    /// Counts one exec that ended in `label` on `(service, method)`;
    /// returns whether that outcome edge is new coverage.
    fn record(&mut self, service: &str, method: &str, label: &str) -> bool {
        self.execs += 1;
        *self.outcomes.entry(label.to_owned()).or_insert(0) += 1;
        if label == "completed" || label == "completed-abort" {
            self.completed
                .insert((service.to_owned(), method.to_owned()));
        }
        self.edges
            .insert((service.to_owned(), method.to_owned(), label.to_owned()))
    }

    /// Adds `other` into `self`. Counters and coverage sets add
    /// commutatively; findings append, and the report sorts them.
    fn merge(&mut self, other: ShardOutcome) {
        self.edges.extend(other.edges);
        self.completed.extend(other.completed);
        for (label, count) in other.outcomes {
            *self.outcomes.entry(label).or_insert(0) += count;
        }
        for (reason, count) in other.rejects {
            *self.rejects.entry(reason).or_insert(0) += count;
        }
        self.findings.extend(other.findings);
        self.execs += other.execs;
        self.minimize_execs += other.minimize_execs;
        self.host_aborts += other.host_aborts;
        self.detections += other.detections;
    }
}

/// One probe/minimization trial on a freshly booted device.
struct Trial {
    growth: usize,
    outcomes: Vec<String>,
    aborts: u64,
    detections: u64,
    rejects: BTreeMap<String, u64>,
}

/// Seed stream of trial `seq` within shard `shard` (disjoint from the
/// shard decision streams at [`STREAM_BASE`]).
const fn trial_stream(shard: usize, seq: u64) -> u64 {
    (shard as u64) << 24 | (seq & 0xFF_FFFF)
}

fn error_label(e: &FrameworkError) -> &'static str {
    match e {
        FrameworkError::UnknownApp => "unknown-app",
        FrameworkError::UnknownService(_) => "unknown-service",
        FrameworkError::UnknownMethod { .. } => "unknown-method",
        FrameworkError::PermissionDenied { .. } => "permission-denied",
        FrameworkError::HelperLimitExceeded { .. } => "helper-limit",
        FrameworkError::ServiceDead => "service-dead",
        FrameworkError::Binder(_) => "binder",
        FrameworkError::Art(_) => "art",
        _ => "other",
    }
}

fn outcome_label(result: &Result<CallOutcome, FrameworkError>) -> String {
    match result {
        Ok(o) => match o.status {
            CallStatus::Completed if o.host_aborted => "completed-abort".to_owned(),
            CallStatus::Completed => "completed".to_owned(),
            CallStatus::RejectedByServerLimit => "server-limit".to_owned(),
            CallStatus::Rejected(r) => format!("rejected:{}", r.reason()),
        },
        Err(e) => format!("err:{}", error_label(e)),
    }
}

/// Builds the parcel from the input's recipe and sends the transaction.
fn exec_once(
    device: &mut DefendedDevice,
    app: Uid,
    service: &str,
    input: &FuzzInput,
) -> Result<CallOutcome, FrameworkError> {
    let mut parcel = Parcel::new();
    for op in &input.ops {
        match op {
            ParcelOp::Package => {
                let pkg = device
                    .system()
                    .package_of(app)
                    .unwrap_or("com.fuzz")
                    .to_owned();
                parcel.write_string(pkg);
            }
            ParcelOp::SpoofedPackage => {
                parcel.write_string("android");
            }
            ParcelOp::CallbackBinder => {
                let node = device.system_mut().create_callback_node(app)?;
                parcel.write_strong_binder(node);
            }
            ParcelOp::StaleBinder => {
                // The driver hands out node ids from a counter; u64::MAX
                // was never and will never be issued.
                parcel.write_strong_binder(NodeId::new(u64::MAX));
            }
            ParcelOp::JunkI32 => {
                parcel.write_i32(0x7F7F_7F7F);
            }
            ParcelOp::JunkI64 => {
                parcel.write_i64(0x7F7F_7F7F_7F7F_7F7F);
            }
            ParcelOp::Blob(size) => {
                parcel.write_blob(*size);
            }
        }
    }
    device.transact_raw(app, service, input.code, &mut parcel)
}

/// The leak probe (§IV-C): boots a device from `arena` at `scale`,
/// installs a fresh fuzz app, replays `input`, and reads the GC-surviving
/// JGR growth of the service host.
fn probe(
    arena: &mut DeviceArena,
    scale: ExperimentScale,
    service: &str,
    grantable: &[Permission],
    input: &FuzzInput,
) -> Trial {
    let device = arena.boot(scale);
    let app = device
        .system_mut()
        .install_app(format!("com.fuzz.{service}"), grantable.iter().copied());
    let host = device
        .system()
        .service_info(service)
        .expect("surface services exist on the booted image")
        .host;
    device.system_mut().gc_process(host);
    let before = device.system().jgr_count(host).unwrap_or(0);
    let mut outcomes = Vec::with_capacity(input.calls as usize);
    let mut aborts = 0u64;
    for _ in 0..input.calls {
        let result = exec_once(device, app, service, input);
        if matches!(&result, Ok(o) if o.host_aborted) {
            aborts += 1;
        }
        outcomes.push(outcome_label(&result));
    }
    // Re-resolve the host: an abort mid-trial soft-reboots the image and
    // the service re-registers under a new pid.
    let host = device
        .system()
        .service_info(service)
        .map_or(host, |info| info.host);
    device.system_mut().gc_process(host);
    let after = device.system().jgr_count(host).unwrap_or(0);
    Trial {
        growth: after.saturating_sub(before),
        outcomes,
        aborts,
        detections: device.detections().len() as u64,
        rejects: device
            .system()
            .reject_counts()
            .iter()
            .map(|(k, v)| ((*k).to_owned(), *v))
            .collect(),
    }
}

/// Runs `input` as the next trial of shard `shard` through [`probe`], on
/// a device seeded from the shard's trial stream.
fn run_trial(
    arena: &mut DeviceArena,
    config: &FuzzConfig,
    plan: &ServicePlan,
    input: &FuzzInput,
    shard: usize,
    trial_seq: &mut u64,
) -> Trial {
    let seed = stream_seed(config.seed, trial_stream(shard, *trial_seq));
    *trial_seq += 1;
    probe(
        arena,
        config.scale.with_seed(seed),
        &plan.name,
        &plan.grantable,
        input,
    )
}

fn absorb_trial(out: &mut ShardOutcome, service: &str, method: &str, trial: &Trial) {
    for label in &trial.outcomes {
        out.record(service, method, label);
    }
    for (reason, count) in &trial.rejects {
        *out.rejects.entry(reason.clone()).or_insert(0) += count;
    }
    out.host_aborts += trial.aborts;
    out.detections += trial.detections;
}

/// Delta-debugs a leaking input to its shortest reproducer: greedy op
/// removal (each surviving op is load-bearing), then a binary search for
/// the fewest calls whose growth still exceeds [`SOUND_CAP_MAX`].
fn minimize(
    arena: &mut DeviceArena,
    config: &FuzzConfig,
    plan: &ServicePlan,
    base: &FuzzInput,
    shard: usize,
    trial_seq: &mut u64,
    out: &mut ShardOutcome,
) -> MinimizedRepro {
    let mut leaks = |input: &FuzzInput, seq: &mut u64, out: &mut ShardOutcome| {
        let trial = run_trial(arena, config, plan, input, shard, seq);
        out.minimize_execs += input.calls as u64;
        trial.growth > SOUND_CAP_MAX
    };
    let mut ops = base.ops.clone();
    let mut idx = 0;
    while idx < ops.len() {
        let mut candidate = ops.clone();
        candidate.remove(idx);
        let input = FuzzInput {
            code: base.code,
            ops: candidate.clone(),
            calls: base.calls,
        };
        if leaks(&input, trial_seq, out) {
            ops = candidate;
        } else {
            idx += 1;
        }
    }
    // Growth can never exceed the call count, so fewer than
    // SOUND_CAP_MAX + 1 calls cannot prove unboundedness.
    let mut lo = SOUND_CAP_MAX as u32 + 1;
    let mut hi = base.calls.max(lo);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let input = FuzzInput {
            code: base.code,
            ops: ops.clone(),
            calls: mid,
        };
        if leaks(&input, trial_seq, out) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    MinimizedRepro {
        code: base.code,
        ops: ops.iter().map(|op| op.label()).collect(),
        calls: hi,
    }
}

/// Runs one service shard end to end: probe sweep, spoof re-probes,
/// mutation storm.
fn fuzz_service(
    arena: &mut DeviceArena,
    config: &FuzzConfig,
    plan: &ServicePlan,
    shard: usize,
) -> ShardOutcome {
    let mut out = ShardOutcome::default();
    let mut rng = SimRng::stream(config.seed, STREAM_BASE + shard as u64);
    let mut trial_seq = 0u64;
    let mut budget = plan.budget;

    // Phase 1 — probe sweep: the GC-verified leak oracle per method.
    let mut spoof_candidates: Vec<&MethodPlan> = Vec::new();
    let mut leak_findings: Vec<(usize, &MethodPlan, Trial, FuzzInput, LeakSignature)> = Vec::new();
    for m in &plan.methods {
        if budget < u64::from(PROBE_CALLS) {
            break;
        }
        budget -= u64::from(PROBE_CALLS);
        let mut input = FuzzInput::well_formed(m.code);
        input.calls = PROBE_CALLS;
        let trial = run_trial(arena, config, plan, &input, shard, &mut trial_seq);
        let spent = plan.budget - budget;
        if trial.growth >= LEAK_THRESHOLD {
            leak_findings.push((
                spent as usize,
                m,
                trial,
                input,
                LeakSignature::RetainPerCall,
            ));
        } else {
            if trial.outcomes.iter().any(|l| l == "server-limit") {
                // Coverage feedback: a capped interface earns a spoofed
                // re-probe — the Code-Snippet 3 escalation.
                spoof_candidates.push(m);
            }
            absorb_trial(&mut out, &plan.name, &m.name, &trial);
        }
    }
    for (spent, m, trial, input, signature) in leak_findings {
        absorb_trial(&mut out, &plan.name, &m.name, &trial);
        let minimized = minimize(arena, config, plan, &input, shard, &mut trial_seq, &mut out);
        out.findings.push(Finding {
            service: plan.name.clone(),
            method: m.name.clone(),
            host: plan.host.to_owned(),
            signature,
            growth: trial.growth,
            probe_calls: input.calls,
            minimized,
            discovered_at_exec: plan.exec_offset + spent as u64,
        });
    }

    // Phase 1b — spoofed re-probes of server-capped methods.
    for m in spoof_candidates {
        if budget < u64::from(PROBE_CALLS) {
            break;
        }
        budget -= u64::from(PROBE_CALLS);
        let mut input = FuzzInput::spoofed(m.code);
        input.calls = PROBE_CALLS;
        let trial = run_trial(arena, config, plan, &input, shard, &mut trial_seq);
        let spent = plan.budget - budget;
        absorb_trial(&mut out, &plan.name, &m.name, &trial);
        if trial.growth >= LEAK_THRESHOLD {
            let minimized = minimize(arena, config, plan, &input, shard, &mut trial_seq, &mut out);
            out.findings.push(Finding {
                service: plan.name.clone(),
                method: m.name.clone(),
                host: plan.host.to_owned(),
                signature: LeakSignature::SpoofBypass,
                growth: trial.growth,
                probe_calls: input.calls,
                minimized,
                discovered_at_exec: plan.exec_offset + spent,
            });
        }
    }

    // Phase 2 — mutation storm: spend the leftover budget on malformed
    // shapes, steered by edge novelty and JGR-growth feedback.
    if budget > 0 {
        let seed = stream_seed(config.seed, trial_stream(shard, trial_seq));
        let device = arena.boot(config.scale.with_seed(seed));
        let app = device.system_mut().install_app(
            format!("com.fuzz.{}", plan.name),
            plan.grantable.iter().copied(),
        );
        let method_count = device
            .system()
            .method_count(&plan.name)
            .unwrap_or(plan.methods.len()) as u32;
        let mut corpus: Vec<FuzzInput> = plan
            .methods
            .iter()
            .map(|m| FuzzInput::well_formed(m.code))
            .collect();
        let mut prev_jgr = 0usize;
        while budget > 0 {
            budget -= 1;
            let mut input = match corpus.is_empty() {
                false if rng.chance(0.7) => {
                    let idx: usize = rng.range(0..corpus.len());
                    corpus[idx].clone()
                }
                _ => FuzzInput::well_formed(rng.range(1..=method_count.max(1))),
            };
            let mutations = 1 + rng.range(0..=2u32);
            for _ in 0..mutations {
                input.mutate(&mut rng, method_count);
            }
            let result = exec_once(device, app, &plan.name, &input);
            let method_label = device
                .system()
                .method_for_code(&plan.name, input.code)
                .map_or_else(|| format!("#{}", input.code), str::to_owned);
            let mut interesting = out.record(&plan.name, &method_label, &outcome_label(&result));
            if let Ok(o) = &result {
                if o.host_aborted {
                    out.host_aborts += 1;
                }
                if o.host_jgr_count > prev_jgr {
                    interesting = true;
                }
                prev_jgr = o.host_jgr_count;
            }
            if interesting && corpus.len() < 256 {
                corpus.push(input);
            }
        }
        out.detections += device.detections().len() as u64;
        for (reason, count) in device.system().reject_counts() {
            *out.rejects.entry((*reason).to_owned()).or_insert(0) += count;
        }
    }
    out
}

/// Replays a single well-formed leak probe against one
/// `(service, method)` pair on a device booted from `arena` at `scale`
/// and returns the GC-surviving JGR growth, or `None` if the pair does
/// not exist on the arena's image. The differential stage uses this to
/// dynamically confirm or refute lint-only predictions.
pub(crate) fn replay_probe(
    arena: &mut DeviceArena,
    service: &str,
    method: &str,
    scale: ExperimentScale,
) -> Option<usize> {
    let (_, svc) = surface(arena.spec()).find(|(_, s)| s.name == service)?;
    let idx = svc.methods.iter().position(|m| m.name == method)?;
    let grantable = grantable(svc);
    let mut input = FuzzInput::well_formed(idx as u32 + jgre_framework::FIRST_CALL_TRANSACTION);
    input.calls = PROBE_CALLS;
    Some(probe(arena, scale, service, &grantable, &input).growth)
}

/// Runs the whole campaign and folds the shards into a deterministic
/// [`FuzzReport`] — byte-identical for every `threads` value.
pub fn run_fuzz(config: &FuzzConfig) -> FuzzReport {
    let plans = build_plan(config);
    // Worker t folds shards t, t+W, …; every counter adds and the
    // findings are sorted below, so the report is the same for every W.
    let mut total = ShardOutcome::default();
    for partial in jgre_sim::round_robin(plans.len(), config.threads, |shards| {
        let mut arena = DeviceArena::new();
        let mut partial = ShardOutcome::default();
        for s in shards {
            partial.merge(fuzz_service(&mut arena, config, &plans[s], s));
        }
        partial
    }) {
        total.merge(partial);
    }
    let mut findings = total.findings;
    findings.sort_by(|a, b| {
        (&a.service, &a.method, a.signature).cmp(&(&b.service, &b.method, b.signature))
    });
    let execs_to_first_leak = findings.iter().map(|f| f.discovered_at_exec).min();
    let pairs: usize = plans.iter().map(|p| p.methods.len()).sum();
    FuzzReport {
        seed: config.seed,
        iters: config.iters,
        attack_surface: config.attack_surface.label().to_owned(),
        services: plans.len(),
        methods: pairs,
        execs: total.execs,
        minimize_execs: total.minimize_execs,
        coverage: CoverageSummary {
            edges: total.edges.len(),
            completed_pairs: total.completed.len(),
            pairs,
            outcomes: total.outcomes,
        },
        rejects: total.rejects,
        host_aborts: total.host_aborts,
        detections: total.detections,
        execs_to_first_leak,
        findings,
    }
}
