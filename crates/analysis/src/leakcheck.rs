//! The dataflow leak-check pass: tracks every JGR allocation site to its
//! release (or escape) along all paths, interprocedurally, and derives
//! the paper's four sift rules as verdicts instead of heuristics.
//!
//! Per activation, each reference lives in a small ordered lattice
//! (released < live < escaped-scalar < escaped-bounded <
//! escaped-unbounded); the forward solver joins path states at CFG
//! merges. Method summaries are computed bottom-up over the call graph's
//! SCC condensation (recursive cliques iterate to their own fixpoint),
//! so a caller sees the allocation fates of everything it can reach.
//!
//! The pass is *path-sensitive*: every tracked reference, callee edge,
//! and path carries a [`PredSet`] — a small must-predicate vector
//! (bound-checked, permission-checked, null-checked, error-path) picked
//! up from labeled branch edges. A check therefore clears or caps the
//! individual sites stored under it instead of muting the whole method,
//! and a release skipped by an early error return surfaces as its own
//! leak class ([`LeakVerdict::ErrorPathLeak`], SARIF rule `JGRE004`).
//!
//! [`DataflowDetector`] adapts the verdicts to the legacy
//! [`VulnerableIpcDetector`](crate::VulnerableIpcDetector) output shape;
//! the heuristic detector is kept as a cross-check oracle (see
//! [`DataflowOutput::cross_check`]).

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

use jgre_corpus::body::{AllocSite, BranchKind, FieldKind, Place, Var};
use jgre_corpus::spec::ProtectionLevel;
use jgre_corpus::{CodeModel, MethodId};
use serde::{Deserialize, Serialize};

use crate::cache;
use crate::dataflow::{
    condense_call_graph, run_wave, solve_forward, ForwardAnalysis, JoinSemiLattice,
};
use crate::ir::{corpus_fingerprint, method_fact_fingerprints, Cfg, Stmt, Terminator};
use crate::{DetectorOutput, IpcMethod, JgrEntrySets, RiskyInterface, SiftReason};

/// A small set of branch predicates, as *must*-information: a bit is set
/// when every path reaching the program point (or retaining the site)
/// passed that check. Joins at CFG merges intersect, so a predicate
/// survives only when it holds on all paths.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub struct PredSet(u8);

impl PredSet {
    /// The empty set: unconditional.
    pub const NONE: PredSet = PredSet(0);
    /// The path passed a per-process bound admission — retention behind
    /// it is capped by the same bound.
    pub const BOUND_CHECKED: PredSet = PredSet(1);
    /// The path passed an `enforceCallingPermission`-style check.
    pub const PERMISSION_CHECKED: PredSet = PredSet(1 << 1);
    /// The path passed a null check on the binder argument.
    pub const NULL_CHECKED: PredSet = PredSet(1 << 2);
    /// The path is an error path: a failed validation or a denied
    /// permission check — where a skipped release becomes `JGRE004`.
    pub const ERROR_PATH: PredSet = PredSet(1 << 3);

    const ALL_BITS: u8 = 0b1111;

    /// Union with `other`.
    #[must_use]
    pub fn with(self, other: PredSet) -> PredSet {
        PredSet(self.0 | other.0)
    }

    /// Intersection with `other` — the join of must-information.
    #[must_use]
    pub fn meet(self, other: PredSet) -> PredSet {
        PredSet(self.0 & other.0)
    }

    /// Whether every predicate in `other` also holds in `self`.
    pub fn contains(self, other: PredSet) -> bool {
        self.0 & other.0 == other.0
    }

    /// Whether no predicate holds.
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// The raw bits, for the on-disk cache encoding.
    pub fn bits(self) -> u8 {
        self.0
    }

    /// Rebuilds from raw bits; `None` when unknown bits are set — the
    /// typed rejection the cache decoder relies on for stale lattices.
    pub fn from_bits(bits: u8) -> Option<PredSet> {
        (bits & !Self::ALL_BITS == 0).then_some(PredSet(bits))
    }

    /// Human-readable predicate labels, for diagnostics.
    pub fn labels(self) -> Vec<&'static str> {
        let mut out = Vec::new();
        if self.contains(Self::BOUND_CHECKED) {
            out.push("bound-checked");
        }
        if self.contains(Self::PERMISSION_CHECKED) {
            out.push("permission-checked");
        }
        if self.contains(Self::NULL_CHECKED) {
            out.push("null-checked");
        }
        if self.contains(Self::ERROR_PATH) {
            out.push("error-path");
        }
        out
    }
}

/// Net effect of one allocation site on the process's JGR footprint.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum Retention {
    /// Released (or GC-revoked) on every path.
    Released,
    /// Escapes, but the footprint is bounded (scalar replacement or a
    /// bound-checked collection).
    Bounded,
    /// Retained without bound — grows on every call.
    Unbounded,
}

/// How a reference escaped, when it did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum EscapeKind {
    /// Stored to a scalar member field after the previous value was
    /// released — net retention of one (the paper's rule 4).
    ScalarReplace,
    /// Stored into a collection behind a visible per-process bound check
    /// (Table III); statically still risky.
    BoundedCollection,
    /// Stored into an unbounded member collection.
    UnboundedCollection,
}

/// The fate of one allocation site, with provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteSummary {
    /// Method whose body contains the allocation.
    pub method: MethodId,
    /// The allocation site.
    pub site: AllocSite,
    /// Net per-call retention.
    pub fate: Retention,
    /// Escape route, when the reference escaped.
    pub escape: Option<EscapeKind>,
    /// Whether the reference was (also) used as a read-only map key —
    /// relevant to the member-replacement proof (rule 4 excludes it).
    pub read_only_key: bool,
    /// Must-predicates guarding the retention: every path on which this
    /// site retains its reference passed these checks. `BOUND_CHECKED`
    /// proves the retention capped; `ERROR_PATH` means the reference
    /// only survives along an error path that skipped its release.
    pub preds: PredSet,
}

/// Bottom-up summary of one method: every allocation site reachable from
/// it (own body plus callees), with fates.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MethodSummary {
    /// Reachable allocation sites, deduplicated, sorted by provenance.
    pub sites: Vec<SiteSummary>,
    /// Whether any reachable call edge is a Handler post.
    pub saw_handler: bool,
}

impl MethodSummary {
    /// Worst per-call retention over all reachable sites.
    pub fn retention(&self) -> Option<Retention> {
        self.sites.iter().map(|s| s.fate).max()
    }
}

/// Size and work statistics of one whole-corpus analysis run.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct SolverStats {
    /// Methods analysed (one CFG each).
    pub methods: usize,
    /// Total basic blocks across all CFGs *lowered this run* — a cache
    /// hit skips lowering entirely, so a warm run reports none.
    pub cfg_blocks: usize,
    /// SCCs of the call graph.
    pub sccs: usize,
    /// Total block transfers executed by the fixpoint solver.
    pub solver_iterations: u64,
    /// SCC summaries served from the cache.
    pub cache_hits: u64,
    /// SCC summaries computed from scratch (every SCC, when no cache
    /// directory is configured).
    pub cache_misses: u64,
    /// Cache regions rejected as corrupt or stale-schema and
    /// recomputed.
    pub cache_invalidated: u64,
}

/// Knobs for one analysis run; the default is serial, uncached, and
/// path-sensitive.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnalysisOptions {
    /// Directory holding the persistent summary cache
    /// ([`cache::CACHE_FILE`] inside it). `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Worker threads for the per-wave SCC fan-out; `None` or `Some(1)`
    /// runs serial. Results are identical for every thread count.
    pub threads: Option<usize>,
    /// Derive predicate-aware verdicts: error-path leaks get their own
    /// class (`JGRE004`) and bound-checked sites count as proven. `false`
    /// reproduces the boolean-era derivation — summaries (and therefore
    /// the cache) are identical either way; only the verdict and
    /// diagnostic layers read the flag.
    pub path_sensitive: bool,
}

impl Default for AnalysisOptions {
    fn default() -> Self {
        Self {
            cache_dir: None,
            threads: None,
            path_sensitive: true,
        }
    }
}

impl AnalysisOptions {
    /// Options with a cache directory set.
    pub fn with_cache_dir(dir: impl Into<PathBuf>) -> Self {
        Self {
            cache_dir: Some(dir.into()),
            ..Self::default()
        }
    }

    /// Sets the wave worker-thread count.
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Turns off predicate-aware verdict derivation (the boolean-era
    /// behavior) — the baseline the subset property tests compare
    /// against.
    pub fn path_insensitive(mut self) -> Self {
        self.path_sensitive = false;
        self
    }
}

/// The dataflow verdict for one IPC method — the paper's sift rules
/// derived from reference fates instead of pattern-matched heuristics.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub enum LeakVerdict {
    /// No JGR allocation is reachable at all.
    NoJgr,
    /// Every reachable allocation is the thread peer, released on all
    /// paths when the thread exits (rule 1).
    ThreadCreateRelease,
    /// Every binder argument is released on all paths — local use or
    /// read-only key, GC revokes after the call (rules 2-3).
    TransientParams,
    /// Binder arguments land in scalar member fields whose previous
    /// value is released first — net retention of one (rule 4).
    MemberReplacement,
    /// Retention is real but provably bounded by a per-process limit;
    /// statically risky, dynamic verification decides (Table III).
    BoundedRetention,
    /// Every unbounded site leaks only along an error path that skipped
    /// its release (early return / denied permission) — the
    /// conditional-release class, SARIF rule `JGRE004`.
    ErrorPathLeak,
    /// At least one allocation site is retained without bound.
    UnboundedLeak,
}

impl LeakVerdict {
    /// Whether the verdict keeps the interface in the risky set.
    pub fn is_risky(self) -> bool {
        matches!(
            self,
            LeakVerdict::BoundedRetention | LeakVerdict::ErrorPathLeak | LeakVerdict::UnboundedLeak
        )
    }

    /// The legacy sift reason this verdict corresponds to, for verdicts
    /// that clear the candidate.
    pub fn sift_reason(self) -> Option<SiftReason> {
        match self {
            LeakVerdict::NoJgr => Some(SiftReason::NoJgrReach),
            LeakVerdict::ThreadCreateRelease => Some(SiftReason::ThreadCreateOnly),
            LeakVerdict::TransientParams => Some(SiftReason::TransientUsage),
            LeakVerdict::MemberReplacement => Some(SiftReason::ReplacedMember),
            LeakVerdict::BoundedRetention
            | LeakVerdict::ErrorPathLeak
            | LeakVerdict::UnboundedLeak => None,
        }
    }
}

// ------------------------------------------------------------------
// Intraprocedural abstract state
// ------------------------------------------------------------------

/// Per-reference lattice value; join is max.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum VarState {
    /// Released (or GC-revoked) on this path.
    Released,
    /// Allocated and still held by a register only.
    Live,
    /// Stored to a scalar field whose previous value was released.
    EscapedScalar,
    /// Stored into a bound-checked collection.
    EscapedBounded,
    /// Stored into an unbounded collection (or scalar without release).
    EscapedUnbounded,
}

/// Abstract state at one program point.
///
/// Predicates are tracked at three granularities, which is what fixes
/// the old over-wide boolean `guard`: `path` is the must-predicate set
/// of the current path, each var carries the predicates under which it
/// reached its current lattice value, and each callee edge carries the
/// predicates that guarded the call. Joining two paths intersects each
/// of those *independently*, so losing a predicate on one path no longer
/// strips it from sites and calls that were individually guarded.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct LeakState {
    /// Lattice value per register, with the must-predicates under which
    /// the register reached that value.
    vars: BTreeMap<Var, (VarState, PredSet)>,
    /// Fields whose previous value was released and not yet overwritten
    /// (must-information: intersected at joins).
    cleared: BTreeSet<String>,
    /// Registers used as read-only map keys.
    key_use: BTreeSet<Var>,
    /// Callees invoked on some path, with the must-predicates that
    /// guarded every call — a callee only reached under `BOUND_CHECKED`
    /// has its retention capped by that same bound.
    called: BTreeMap<MethodId, PredSet>,
    /// Must-predicates of the current path (intersected at joins).
    path: PredSet,
    /// Whether a Handler-post edge was taken.
    handler: bool,
}

impl JoinSemiLattice for LeakState {
    fn join(&mut self, other: &Self) -> bool {
        let mut changed = false;
        for (v, (s, p)) in &other.vars {
            match self.vars.get_mut(v) {
                None => {
                    self.vars.insert(*v, (*s, *p));
                    changed = true;
                }
                Some((cur, cp)) => {
                    if *cur < *s {
                        *cur = *s;
                        *cp = *p;
                        changed = true;
                    } else if *cur == *s {
                        let met = cp.meet(*p);
                        if met != *cp {
                            *cp = met;
                            changed = true;
                        }
                    }
                }
            }
        }
        let before = self.cleared.len();
        self.cleared.retain(|f| other.cleared.contains(f));
        changed |= self.cleared.len() != before;
        for k in &other.key_use {
            changed |= self.key_use.insert(*k);
        }
        for (c, p) in &other.called {
            match self.called.get_mut(c) {
                None => {
                    self.called.insert(*c, *p);
                    changed = true;
                }
                Some(cur) => {
                    let met = cur.meet(*p);
                    if met != *cur {
                        *cur = met;
                        changed = true;
                    }
                }
            }
        }
        let met = self.path.meet(other.path);
        if met != self.path {
            self.path = met;
            changed = true;
        }
        if other.handler && !self.handler {
            self.handler = true;
            changed = true;
        }
        changed
    }
}

struct LeakBodyAnalysis;

impl ForwardAnalysis for LeakBodyAnalysis {
    type State = LeakState;

    fn boundary(&self) -> LeakState {
        LeakState::default()
    }

    fn transfer(&self, stmt: &Stmt, state: &mut LeakState) {
        match stmt {
            Stmt::AllocJgr { dst, .. } => {
                state.vars.insert(*dst, (VarState::Live, state.path));
            }
            Stmt::ReleaseJgr { src: Place::Var(v) } => {
                state.vars.insert(*v, (VarState::Released, state.path));
            }
            Stmt::ReleaseJgr {
                src: Place::Field(f),
            } => {
                state.cleared.insert(f.clone());
            }
            Stmt::StoreField { src, field, kind } => {
                // Escalation stamps the *current* path predicates onto the
                // var when it climbs; re-reaching the same value only keeps
                // the predicates both occurrences agree on.
                let escalate = |state: &mut LeakState, v: Var, to: VarState| {
                    let path = state.path;
                    let entry = state.vars.entry(v).or_insert((VarState::Live, path));
                    if to > entry.0 {
                        *entry = (to, path);
                    } else if to == entry.0 {
                        entry.1 = entry.1.meet(path);
                    }
                };
                match kind {
                    FieldKind::Collection { bounded: false } => {
                        escalate(state, *src, VarState::EscapedUnbounded);
                    }
                    FieldKind::Collection { bounded: true } => {
                        escalate(state, *src, VarState::EscapedBounded);
                        // The path passed the bound admission: whatever
                        // runs after it on this path is capped too.
                        state.path = state.path.with(PredSet::BOUND_CHECKED);
                    }
                    FieldKind::MapKeyReadOnly => {
                        // A key lookup does not retain the reference.
                        state.key_use.insert(*src);
                    }
                    FieldKind::Scalar => {
                        // Bounded only when the previous value was
                        // provably released before this store.
                        let replaced = state.cleared.remove(field);
                        let to = if replaced {
                            VarState::EscapedScalar
                        } else {
                            VarState::EscapedUnbounded
                        };
                        escalate(state, *src, to);
                    }
                }
            }
            Stmt::StoreLocal { .. } => {}
            Stmt::Call {
                callee,
                via_handler,
            } => {
                let path = state.path;
                match state.called.get_mut(callee) {
                    None => {
                        state.called.insert(*callee, path);
                    }
                    Some(cur) => *cur = cur.meet(path),
                }
                state.handler |= *via_handler;
            }
        }
    }

    fn transfer_edge(&self, term: &Terminator, succ_index: usize, state: &mut LeakState) {
        let Terminator::Branch { kind, .. } = *term else {
            return;
        };
        // Successor 0 is the then-edge, successor 1 the else-edge (the
        // lowering order in `Cfg::lower`). Each labeled branch establishes
        // its predicate on exactly one side.
        let pred = match (kind, succ_index) {
            (BranchKind::BoundCheck, 0) => PredSet::BOUND_CHECKED,
            (BranchKind::PermissionCheck, 0) => PredSet::PERMISSION_CHECKED,
            (BranchKind::PermissionCheck, _) => PredSet::ERROR_PATH,
            (BranchKind::NullCheck, 0) => PredSet::NULL_CHECKED,
            (BranchKind::ErrorCheck, 1) => PredSet::ERROR_PATH,
            _ => PredSet::NONE,
        };
        state.path = state.path.with(pred);
    }
}

// ------------------------------------------------------------------
// Whole-corpus analysis
// ------------------------------------------------------------------

/// One method's solved intraprocedural result.
struct IntraResult {
    /// Join of the exit states of all return blocks.
    final_state: LeakState,
    /// Allocation sites in this body, by register.
    var_sites: BTreeMap<Var, AllocSite>,
}

/// Runs the leak-check pass over a whole code model.
#[derive(Debug)]
pub struct LeakChecker<'m> {
    model: &'m CodeModel,
    /// Step-2 entry sets; when present, entry-set membership is part of
    /// each method's fact fingerprint (the native side is not otherwise
    /// visible in Java facts).
    entries: Option<&'m JgrEntrySets>,
}

/// What one wave worker produced for one SCC.
struct SccOutcome {
    /// Final summaries of the SCC's members.
    members: Vec<(MethodId, MethodSummary)>,
    /// Basic blocks lowered.
    cfg_blocks: usize,
    /// Solver block transfers.
    iterations: u64,
}

/// The completed whole-corpus analysis: per-method summaries plus
/// solver statistics.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LeakAnalysis {
    /// Bottom-up summary per method, indexed by `MethodId`.
    pub summaries: Vec<MethodSummary>,
    /// Work statistics.
    pub stats: SolverStats,
}

impl<'m> LeakChecker<'m> {
    /// Wraps a code model.
    pub fn new(model: &'m CodeModel) -> Self {
        Self {
            model,
            entries: None,
        }
    }

    /// Folds the step-2 JGR entry sets into the fact fingerprints, so a
    /// native-side change that flips a method's entry membership also
    /// invalidates its cached summaries.
    pub fn with_entries(mut self, entries: &'m JgrEntrySets) -> Self {
        self.entries = Some(entries);
        self
    }

    /// Lowers every method, solves each CFG to a fixpoint, and folds
    /// callee summaries bottom-up over the SCC condensation.
    ///
    /// # Example
    ///
    /// ```
    /// use jgre_analysis::leakcheck::{LeakChecker, LeakVerdict};
    /// use jgre_corpus::{spec::AospSpec, CodeModel};
    ///
    /// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
    /// let analysis = LeakChecker::new(&model).analyze();
    /// let link = model.find_method("android.os.Binder", "linkToDeathNative").unwrap();
    /// assert_eq!(analysis.verdict_for(link), LeakVerdict::UnboundedLeak);
    /// ```
    pub fn analyze(&self) -> LeakAnalysis {
        self.analyze_with(&AnalysisOptions::default())
    }

    /// [`LeakChecker::analyze`] with caching and parallelism knobs.
    ///
    /// With a cache directory, an unchanged corpus is served whole from
    /// the cached table; any other corpus (an edit included) is solved
    /// from scratch, exactly as without a cache, and the table is
    /// rewritten. Verdicts are structurally identical in every mode —
    /// hits and misses only show up in [`SolverStats`]. Cache writes are
    /// best-effort: an unwritable directory degrades to a cold run,
    /// never an error.
    pub fn analyze_with(&self, options: &AnalysisOptions) -> LeakAnalysis {
        let n = self.model.methods.len();
        let mut stats = SolverStats {
            methods: n,
            ..SolverStats::default()
        };

        let cache = options
            .cache_dir
            .as_ref()
            .map(|dir| (dir.join(cache::CACHE_FILE), self.corpus_fingerprint()));
        let loaded = match &cache {
            Some((path, corpus_fp)) => cache::load(path, *corpus_fp, n),
            None => cache::LoadedCache::default(),
        };
        stats.cache_invalidated = loaded.invalidated;
        let (summaries, rewrite) = match loaded.tier_a {
            // The corpus is byte-identical to the cached one, so every
            // SCC's summaries are served without lowering a single CFG
            // or even condensing the call graph. A file with a rejected
            // region (e.g. a truncated record tail) is rewritten so the
            // next run loads clean.
            Some(tier_a) => {
                stats.sccs = loaded.scc_count as usize;
                stats.cache_hits = u64::from(loaded.scc_count);
                (tier_a, loaded.invalidated > 0)
            }
            // Absent or stale: solve from scratch and rewrite it whole.
            None => (self.solve(options.threads.unwrap_or(1), &mut stats), true),
        };
        if let Some((path, corpus_fp)) = cache.as_ref().filter(|_| rewrite) {
            let tier_a = cache::encode_tier_a(&summaries);
            let _ = cache::store(
                path,
                *corpus_fp,
                stats.sccs as u32,
                &tier_a,
                &BTreeMap::new(),
            );
        }
        LeakAnalysis { summaries, stats }
    }

    /// Solves every SCC bottom-up, one parallel wave per condensation
    /// level; returns the summaries in `MethodId` order.
    fn solve(&self, threads: usize, stats: &mut SolverStats) -> Vec<MethodSummary> {
        let model = self.model;
        let cond = condense_call_graph(model);
        stats.sccs = cond.sccs.len();
        stats.cache_misses = stats.sccs as u64;
        let mut summaries: Vec<Option<MethodSummary>> = vec![None; model.methods.len()];
        for wave in cond.levels(model) {
            let outcomes = run_wave(&wave, threads, |i| {
                self.process_scc(&cond.sccs[i], &summaries)
            });
            for (_, outcome) in outcomes {
                stats.cfg_blocks += outcome.cfg_blocks;
                stats.solver_iterations += outcome.iterations;
                for (m, s) in outcome.members {
                    summaries[m.0 as usize] = Some(s);
                }
            }
        }
        summaries
            .into_iter()
            .map(|s| s.expect("every SCC processed"))
            .collect()
    }

    /// The cache key: a fingerprint of every method's facts, with step-2
    /// entry-set membership folded in.
    fn corpus_fingerprint(&self) -> u64 {
        let mut is_jgr_entry = vec![false; self.model.methods.len()];
        if let Some(entries) = self.entries {
            for id in &entries.java_entries {
                if let Some(slot) = is_jgr_entry.get_mut(id.0 as usize) {
                    *slot = true;
                }
            }
        }
        corpus_fingerprint(&method_fact_fingerprints(self.model, &is_jgr_entry)).0
    }

    /// Computes one SCC: intra solve per member plus the SCC-local
    /// fixpoint over callee summaries.
    fn process_scc(&self, scc: &[MethodId], global: &[Option<MethodSummary>]) -> SccOutcome {
        let model = self.model;
        let mut cfg_blocks = 0usize;
        let mut iterations = 0u64;
        let intras: Vec<IntraResult> = scc
            .iter()
            .map(|m| {
                let (intra, blocks, iters) = solve_intra(model, *m);
                cfg_blocks += blocks;
                iterations += iters;
                intra
            })
            .collect();
        // The SCC-local fixpoint: summaries only grow, so it terminates.
        let mut local: BTreeMap<MethodId, MethodSummary> =
            scc.iter().map(|m| (*m, MethodSummary::default())).collect();
        loop {
            let mut changed = false;
            for (i, m) in scc.iter().enumerate() {
                let folded = fold_summary(*m, &intras[i], &local, global);
                if local[m] != folded {
                    local.insert(*m, folded);
                    changed = true;
                }
            }
            if !changed {
                break;
            }
        }
        SccOutcome {
            members: local.into_iter().collect(),
            cfg_blocks,
            iterations,
        }
    }
}

/// Lowers and solves every method body intraprocedurally and returns the
/// total number of solver block transfers — a deterministic cost probe
/// for benchmarking the predicate lattice against simpler baselines on
/// equal terms (same lowering, same worklist, same corpus).
pub fn intra_solver_cost(model: &CodeModel) -> u64 {
    let mut iterations = 0u64;
    for def in &model.methods {
        let (_, _, iters) = solve_intra(model, def.id);
        iterations += iters;
    }
    iterations
}

/// Lowers and solves one method's body.
fn solve_intra(model: &CodeModel, id: MethodId) -> (IntraResult, usize, u64) {
    let cfg = Cfg::lower(&model.method_body(id));
    let blocks = cfg.blocks.len();
    let solution = solve_forward(&cfg, &LeakBodyAnalysis);
    let mut final_state: Option<LeakState> = None;
    for (i, block) in cfg.blocks.iter().enumerate() {
        if !matches!(block.term, Terminator::Return) {
            continue;
        }
        let Some(exit) = &solution.exit[i] else {
            continue;
        };
        let mut exit = exit.clone();
        // A var still Live at this return leaks *at this exit*: stamp the
        // exit path's predicates onto it so an early error return that
        // bypasses the release is distinguishable from the normal exit.
        // Escaped vars keep their store-time predicates — the exit path
        // may have acquired predicates after the store that never guarded
        // it.
        let exit_path = exit.path;
        for (st, preds) in exit.vars.values_mut() {
            if *st == VarState::Live {
                *preds = preds.with(exit_path);
            }
        }
        match &mut final_state {
            None => final_state = Some(exit),
            Some(acc) => {
                acc.join(&exit);
            }
        }
    }
    let mut var_sites = BTreeMap::new();
    for block in &cfg.blocks {
        for stmt in &block.stmts {
            if let Stmt::AllocJgr { dst, site } = stmt {
                var_sites.insert(*dst, *site);
            }
        }
    }
    (
        IntraResult {
            final_state: final_state.unwrap_or_default(),
            var_sites,
        },
        blocks,
        solution.iterations,
    )
}

/// Folds a method's intraprocedural result with its callees' summaries,
/// read from the SCC-local fixpoint map first, then the global table of
/// already-finished SCCs.
fn fold_summary(
    own: MethodId,
    intra: &IntraResult,
    local: &BTreeMap<MethodId, MethodSummary>,
    global: &[Option<MethodSummary>],
) -> MethodSummary {
    let mut sites: BTreeMap<(MethodId, AllocSite), SiteSummary> = BTreeMap::new();
    let mut merge = |s: SiteSummary| match sites.get_mut(&(s.method, s.site)) {
        None => {
            sites.insert((s.method, s.site), s);
        }
        Some(old) => {
            let key = old.read_only_key || s.read_only_key;
            if s.fate > old.fate {
                *old = s;
            } else if s.fate == old.fate {
                // Same worst fate reached along two routes: keep only the
                // predicates every route agrees on.
                old.preds = old.preds.meet(s.preds);
            }
            old.read_only_key = key;
        }
    };
    for (var, site) in &intra.var_sites {
        let (state, preds) = intra
            .final_state
            .vars
            .get(var)
            .copied()
            .unwrap_or((VarState::Live, PredSet::NONE));
        let (fate, escape) = match state {
            VarState::Released => (Retention::Released, None),
            // Still live at exit: the reference outlives the activation
            // (handed to the caller) — conservatively unbounded.
            VarState::Live => (Retention::Unbounded, None),
            VarState::EscapedScalar => (Retention::Bounded, Some(EscapeKind::ScalarReplace)),
            VarState::EscapedBounded => (Retention::Bounded, Some(EscapeKind::BoundedCollection)),
            VarState::EscapedUnbounded => {
                (Retention::Unbounded, Some(EscapeKind::UnboundedCollection))
            }
        };
        merge(SiteSummary {
            method: own,
            site: *site,
            fate,
            escape,
            read_only_key: intra.final_state.key_use.contains(var),
            preds,
        });
    }
    let mut saw_handler = intra.final_state.handler;
    for (callee, call_preds) in &intra.final_state.called {
        let Some(cs) = local
            .get(callee)
            .or_else(|| global[callee.0 as usize].as_ref())
        else {
            continue;
        };
        saw_handler |= cs.saw_handler;
        for s in &cs.sites {
            let mut s = s.clone();
            // The caller's call-site predicates guard everything the
            // callee does: a callee only ever reached through a bound
            // admission inherits the bound — its retention cannot exceed
            // the per-process limit.
            s.preds = s.preds.with(*call_preds);
            if s.preds.contains(PredSet::BOUND_CHECKED) && s.fate == Retention::Unbounded {
                s.fate = Retention::Bounded;
            }
            merge(s);
        }
    }
    MethodSummary {
        sites: sites.into_values().collect(),
        saw_handler,
    }
}

impl LeakAnalysis {
    /// The summary of one method.
    ///
    /// # Panics
    ///
    /// Panics when `id` was not part of the analysed model.
    pub fn summary(&self, id: MethodId) -> &MethodSummary {
        &self.summaries[id.0 as usize]
    }

    /// Derives the sift verdict for an IPC root from reference fates,
    /// reading the per-site predicates ([`LeakAnalysis::verdict_for`]
    /// with path sensitivity on).
    pub fn verdict_for(&self, root: MethodId) -> LeakVerdict {
        self.verdict_for_with(root, true)
    }

    /// [`LeakAnalysis::verdict_for`] with path sensitivity as a knob.
    ///
    /// Summaries always carry predicates; the knob only controls whether
    /// the verdict *reads* them. With `path_sensitive` off, every
    /// unbounded site is a plain [`LeakVerdict::UnboundedLeak`] — the
    /// pre-predicate behaviour, kept as the soundness baseline the
    /// path-sensitive findings must be a subset of.
    pub fn verdict_for_with(&self, root: MethodId, path_sensitive: bool) -> LeakVerdict {
        let Some(summary) = self.summaries.get(root.0 as usize) else {
            return LeakVerdict::NoJgr;
        };
        let sites = &summary.sites;
        if sites.is_empty() {
            return LeakVerdict::NoJgr;
        }
        if sites.iter().any(|s| s.fate == Retention::Unbounded) {
            let unbounded = sites.iter().filter(|s| s.fate == Retention::Unbounded);
            if path_sensitive
                && unbounded
                    .clone()
                    .all(|s| s.preds.contains(PredSet::ERROR_PATH))
            {
                // Every unbounded site leaks only on an error return that
                // skipped the release: still a leak, but a distinct class
                // (JGRE004) — the normal path releases correctly.
                return LeakVerdict::ErrorPathLeak;
            }
            return LeakVerdict::UnboundedLeak;
        }
        if sites.iter().any(|s| {
            matches!(
                s.escape,
                Some(EscapeKind::BoundedCollection | EscapeKind::UnboundedCollection)
            )
        }) {
            // No unbounded fate remains, so every collection escape is
            // behind a bound admission: real but capped retention.
            return LeakVerdict::BoundedRetention;
        }
        // All fates are Released or scalar-bounded from here on.
        let non_thread: Vec<&SiteSummary> = sites
            .iter()
            .filter(|s| s.site != AllocSite::ThreadPeer)
            .collect();
        if non_thread.is_empty() {
            return LeakVerdict::ThreadCreateRelease;
        }
        if non_thread
            .iter()
            .all(|s| matches!(s.site, AllocSite::BinderParam(_)))
        {
            if non_thread.iter().all(|s| s.fate == Retention::Released) {
                return LeakVerdict::TransientParams;
            }
            // Rule 4 is only sound when every argument either replaces a
            // scalar member or stays local; a read-only-key use alongside
            // defeats the proof, matching the paper's rule application.
            if non_thread.iter().all(|s| {
                s.escape == Some(EscapeKind::ScalarReplace)
                    || (s.fate == Retention::Released && !s.read_only_key)
            }) {
                return LeakVerdict::MemberReplacement;
            }
        }
        LeakVerdict::UnboundedLeak
    }
}

// ------------------------------------------------------------------
// Detector front-end
// ------------------------------------------------------------------

/// One IPC method's dataflow verdict with provenance.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct VerdictRow {
    /// The IPC method.
    pub ipc: IpcMethod,
    /// Derived verdict.
    pub verdict: LeakVerdict,
    /// Allocation sites backing the verdict.
    pub sites: Vec<SiteSummary>,
    /// Whether a signature-level permission gates the method (sifted by
    /// the permission filter regardless of the verdict).
    pub signature_gated: bool,
}

impl VerdictRow {
    /// Whether every retained site of a [`LeakVerdict::BoundedRetention`]
    /// verdict was *proven* bounded by a branch predicate — each
    /// retaining site sits behind a `BOUND_CHECKED` admission. Such rows
    /// are capped by construction, so a path-sensitive report can drop
    /// them from the predicted-leak set instead of counting them as
    /// findings.
    pub fn proven_bounded(&self) -> bool {
        if self.verdict != LeakVerdict::BoundedRetention {
            return false;
        }
        let retained: Vec<&SiteSummary> = self
            .sites
            .iter()
            .filter(|s| s.fate != Retention::Released)
            .collect();
        !retained.is_empty()
            && retained
                .iter()
                .all(|s| s.preds.contains(PredSet::BOUND_CHECKED))
    }
}

/// Output of the dataflow-backed detector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DataflowOutput {
    /// Legacy-shaped risky/sifted split, for the pipeline.
    pub detector: DetectorOutput,
    /// Per-IPC-method verdict rows (diagnostics input).
    pub verdicts: Vec<VerdictRow>,
    /// Solver statistics.
    pub stats: SolverStats,
}

/// Divergence between the dataflow detector and the legacy oracle.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CrossCheck {
    /// `(service, method)` risky for the oracle but sifted by dataflow —
    /// a false release; must be empty.
    pub legacy_only: Vec<(String, String)>,
    /// Risky for dataflow but sifted by the oracle — acceptable
    /// (leak-side) conservatism.
    pub dataflow_only: Vec<(String, String)>,
}

impl DataflowOutput {
    /// Compares the risky sets against the legacy heuristic detector.
    pub fn cross_check(&self, oracle: &DetectorOutput) -> CrossCheck {
        let key = |r: &RiskyInterface| (r.ipc.service.clone(), r.ipc.method.clone());
        let ours: BTreeSet<_> = self.detector.risky.iter().map(key).collect();
        let theirs: BTreeSet<_> = oracle.risky.iter().map(key).collect();
        CrossCheck {
            legacy_only: theirs.difference(&ours).cloned().collect(),
            dataflow_only: ours.difference(&theirs).cloned().collect(),
        }
    }
}

/// Step-3 detector backed by the dataflow leak-check pass.
///
/// # Example
///
/// ```
/// use jgre_analysis::{DataflowDetector, IpcMethodExtractor, JgrEntryExtractor};
/// use jgre_corpus::{spec::AospSpec, CodeModel};
///
/// let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
/// let ipc = IpcMethodExtractor::new(&model).extract();
/// let entries = JgrEntryExtractor::new(&model).extract();
/// let output = DataflowDetector::new(&model, &entries).detect(&ipc);
/// assert_eq!(output.detector.risky.len(), 63);
/// ```
#[derive(Debug)]
pub struct DataflowDetector<'m> {
    model: &'m CodeModel,
    entries: &'m JgrEntrySets,
}

impl<'m> DataflowDetector<'m> {
    /// Wraps the model and the step-2 output.
    pub fn new(model: &'m CodeModel, entries: &'m JgrEntrySets) -> Self {
        Self { model, entries }
    }

    /// Classifies every IPC method from dataflow verdicts.
    pub fn detect(&self, ipc_methods: &[IpcMethod]) -> DataflowOutput {
        self.detect_with(ipc_methods, &AnalysisOptions::default())
    }

    /// [`DataflowDetector::detect`] with caching and parallelism knobs;
    /// verdicts are structurally identical in every mode.
    pub fn detect_with(
        &self,
        ipc_methods: &[IpcMethod],
        options: &AnalysisOptions,
    ) -> DataflowOutput {
        let analysis = LeakChecker::new(self.model)
            .with_entries(self.entries)
            .analyze_with(options);
        let mut risky = Vec::new();
        let mut sifted = Vec::new();
        let mut verdicts = Vec::new();
        for ipc in ipc_methods {
            let Some(root) = ipc.java else {
                // Native-service entry points: bodies live in the native
                // world; none of the exploitable JNI paths start there.
                sifted.push((ipc.clone(), SiftReason::NoJgrReach));
                verdicts.push(VerdictRow {
                    ipc: ipc.clone(),
                    verdict: LeakVerdict::NoJgr,
                    sites: Vec::new(),
                    signature_gated: false,
                });
                continue;
            };
            let def = self.model.method(root);
            let summary = analysis.summary(root);
            let verdict = analysis.verdict_for_with(root, options.path_sensitive);
            let signature_gated = def
                .permission_checks
                .iter()
                .any(|p| p.level() == ProtectionLevel::Signature);
            if signature_gated {
                sifted.push((ipc.clone(), SiftReason::SignaturePermission));
            } else if let Some(reason) = verdict.sift_reason() {
                sifted.push((ipc.clone(), reason));
            } else {
                let reached_entries: Vec<MethodId> = summary
                    .sites
                    .iter()
                    .map(|s| s.method)
                    .filter(|m| self.entries.java_entries.contains(m))
                    .collect::<BTreeSet<_>>()
                    .into_iter()
                    .collect();
                risky.push(RiskyInterface {
                    ipc: ipc.clone(),
                    reached_entries,
                    via_binder_params: !def.binder_params.is_empty(),
                    via_handler_edge: summary.saw_handler,
                });
            }
            verdicts.push(VerdictRow {
                ipc: ipc.clone(),
                verdict,
                sites: summary.sites.clone(),
                signature_gated,
            });
        }
        DataflowOutput {
            detector: DetectorOutput { risky, sifted },
            verdicts,
            stats: analysis.stats,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{IpcMethodExtractor, JgrEntryExtractor, ServiceKind, VulnerableIpcDetector};
    use jgre_corpus::spec::AospSpec;

    fn detect() -> DataflowOutput {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        DataflowDetector::new(&model, &entries).detect(&ipc)
    }

    #[test]
    fn verdicts_reproduce_the_static_counts() {
        let out = detect();
        let system_risky = out
            .detector
            .risky
            .iter()
            .filter(|r| r.ipc.kind == ServiceKind::SystemService)
            .count();
        assert_eq!(system_risky, 57, "54 vulnerable + 3 bounded");
        assert_eq!(out.detector.risky.len(), 63);
        // The three bounded collections get the BoundedRetention verdict.
        let bounded = out
            .verdicts
            .iter()
            .filter(|v| v.verdict == LeakVerdict::BoundedRetention)
            .count();
        assert_eq!(bounded, 3, "Table III's sound per-process limits");
    }

    #[test]
    fn every_sift_rule_is_derived() {
        let out = detect();
        let seen: BTreeSet<LeakVerdict> = out.verdicts.iter().map(|v| v.verdict).collect();
        for expected in [
            LeakVerdict::NoJgr,
            LeakVerdict::ThreadCreateRelease,
            LeakVerdict::TransientParams,
            LeakVerdict::MemberReplacement,
            LeakVerdict::BoundedRetention,
            LeakVerdict::UnboundedLeak,
        ] {
            assert!(
                seen.contains(&expected),
                "verdict {expected:?} never derived"
            );
        }
    }

    #[test]
    fn agrees_exactly_with_the_legacy_oracle() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let dataflow = DataflowDetector::new(&model, &entries).detect(&ipc);
        let legacy = VulnerableIpcDetector::new(&model, &entries).detect(&ipc);
        let diff = dataflow.cross_check(&legacy);
        assert_eq!(diff, CrossCheck::default(), "detectors diverge");
        // Stronger: the full risky rows (provenance included) coincide.
        assert_eq!(dataflow.detector, legacy);
    }

    #[test]
    fn thread_peer_is_released_and_death_recipient_retained() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = LeakChecker::new(&model).analyze();
        let thread = model
            .find_method("java.lang.Thread", "nativeCreate")
            .unwrap();
        assert_eq!(
            analysis.summary(thread).retention(),
            Some(Retention::Released)
        );
        let link = model
            .find_method("android.os.Binder", "linkToDeathNative")
            .unwrap();
        assert_eq!(
            analysis.summary(link).retention(),
            Some(Retention::Unbounded)
        );
        // The retention propagates up the plumbing chain.
        let rcl = model
            .find_method("android.os.RemoteCallbackList", "register")
            .unwrap();
        assert_eq!(
            analysis.summary(rcl).retention(),
            Some(Retention::Unbounded)
        );
    }

    #[test]
    fn bounded_branch_join_yields_bounded_fate() {
        let model = CodeModel::synthesize(&AospSpec::android_6_0_1());
        let analysis = LeakChecker::new(&model).analyze();
        let display = model
            .find_method("com.android.server.DisplayService", "registerCallback")
            .unwrap();
        assert_eq!(analysis.verdict_for(display), LeakVerdict::BoundedRetention);
        let sites = &analysis.summary(display).sites;
        let param = sites
            .iter()
            .find(|s| matches!(s.site, AllocSite::BinderParam(_)))
            .expect("the callback argument is an allocation site");
        assert_eq!(param.fate, Retention::Bounded);
        assert_eq!(param.escape, Some(EscapeKind::BoundedCollection));
        assert!(
            param.preds.contains(PredSet::BOUND_CHECKED),
            "the bounded store records its admission predicate"
        );
        // The death recipient pinned by the guarded registration chain is
        // capped by the same admission bound.
        let recipient = sites
            .iter()
            .find(|s| s.site == AllocSite::DeathRecipient)
            .expect("the registration chain pins a death recipient");
        assert_eq!(recipient.fate, Retention::Bounded);
        assert_eq!(recipient.escape, Some(EscapeKind::UnboundedCollection));
        assert!(
            recipient.preds.contains(PredSet::BOUND_CHECKED),
            "callee sites inherit the call-site admission predicate"
        );
    }

    #[test]
    fn predset_is_a_meet_semilattice_on_bits() {
        let a = PredSet::BOUND_CHECKED.with(PredSet::NULL_CHECKED);
        let b = PredSet::BOUND_CHECKED.with(PredSet::ERROR_PATH);
        assert_eq!(a.meet(b), PredSet::BOUND_CHECKED);
        assert!(a.contains(PredSet::BOUND_CHECKED));
        assert!(!a.contains(PredSet::ERROR_PATH));
        assert!(PredSet::NONE.is_empty());
        assert_eq!(PredSet::from_bits(a.bits()), Some(a));
        assert_eq!(PredSet::from_bits(0b1_0000), None, "unknown bit rejected");
        assert_eq!(a.labels(), vec!["bound-checked", "null-checked"]);
    }

    #[test]
    fn join_keeps_predicates_per_site_not_per_state() {
        // Regression for the boolean-guard era: joining an unguarded path
        // used to clear the guard for the *whole* state, muting predicates
        // on sites and callees the unguarded path never touched.
        let mut guarded = LeakState {
            path: PredSet::BOUND_CHECKED,
            ..LeakState::default()
        };
        guarded
            .vars
            .insert(0, (VarState::EscapedBounded, PredSet::BOUND_CHECKED));
        guarded.called.insert(MethodId(7), PredSet::BOUND_CHECKED);

        let mut plain = LeakState::default();
        plain.vars.insert(1, (VarState::Live, PredSet::NONE));

        let changed = guarded.join(&plain);
        assert!(changed);
        // The merged *path* predicate is must-information and drops...
        assert_eq!(guarded.path, PredSet::NONE);
        // ...but the per-site and per-callee predicates survive: the
        // unguarded path never reached them.
        assert_eq!(
            guarded.vars[&0],
            (VarState::EscapedBounded, PredSet::BOUND_CHECKED)
        );
        assert_eq!(guarded.called[&MethodId(7)], PredSet::BOUND_CHECKED);
    }

    #[test]
    fn error_path_shapes_get_error_path_verdicts() {
        use jgre_corpus::{error_path_cases, ERROR_PATH_CLASS};
        let model = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
        let analysis = LeakChecker::new(&model).analyze();
        for (class, name) in error_path_cases() {
            let id = model.find_method(class, name).unwrap();
            assert_eq!(
                analysis.verdict_for(id),
                LeakVerdict::ErrorPathLeak,
                "{name} leaks only on its error path"
            );
            let sites = &analysis.summary(id).sites;
            assert!(sites
                .iter()
                .filter(|s| s.fate == Retention::Unbounded)
                .all(|s| s.preds.contains(PredSet::ERROR_PATH)));
            // Path-insensitive reading degrades to the plain leak class.
            assert_eq!(
                analysis.verdict_for_with(id, false),
                LeakVerdict::UnboundedLeak
            );
        }
        // Controls: the null-check-gated store is a genuine unconditional
        // leak (the check does not guard the retention)...
        let null_gated = model
            .find_method(ERROR_PATH_CLASS, "addNonNullObserver")
            .unwrap();
        assert_eq!(analysis.verdict_for(null_gated), LeakVerdict::UnboundedLeak);
        let site = analysis.summary(null_gated).sites[analysis
            .summary(null_gated)
            .sites
            .iter()
            .position(|s| s.fate == Retention::Unbounded)
            .unwrap()]
        .clone();
        assert!(site.preds.contains(PredSet::NULL_CHECKED));
        // ...and the bounded registration stays BoundedRetention.
        let bounded = model
            .find_method(ERROR_PATH_CLASS, "boundedRegister")
            .unwrap();
        assert_eq!(analysis.verdict_for(bounded), LeakVerdict::BoundedRetention);
        // The transient control releases on every path.
        let transient = model
            .find_method(ERROR_PATH_CLASS, "transientPing")
            .unwrap();
        assert_eq!(
            analysis.verdict_for(transient),
            LeakVerdict::TransientParams
        );
    }

    #[test]
    fn error_path_fixture_does_not_disturb_the_base_verdicts() {
        let model = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
        let ipc = IpcMethodExtractor::new(&model).extract();
        let entries = JgrEntryExtractor::new(&model).extract();
        let out = DataflowDetector::new(&model, &entries).detect(&ipc);
        let system_risky = out
            .detector
            .risky
            .iter()
            .filter(|r| r.ipc.kind == ServiceKind::SystemService)
            .count();
        assert_eq!(system_risky, 57, "base system-service counts unchanged");
        let error_class = out
            .verdicts
            .iter()
            .filter(|v| v.verdict == LeakVerdict::ErrorPathLeak)
            .count();
        assert!(error_class >= 3, "the fixture's JGRE004 cases surface");
    }
}
