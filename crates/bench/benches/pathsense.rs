//! T-PATHSENSE: the cost of the per-branch predicate lattice. The
//! intraprocedural solver is timed against a bench-local boolean-guard
//! baseline — the pre-predicate era's state shape — over the amplified
//! corpus (same lowering, same worklist). The acceptance bar from
//! DESIGN.md §10 is predicate lattice < 2x the boolean solver.

use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::time::Instant;

use criterion::{criterion_group, Criterion};
use jgre_analysis::dataflow::JoinSemiLattice;
use jgre_analysis::{intra_solver_cost, solve_forward, Cfg, ForwardAnalysis, Stmt};
use jgre_bench::write_artifact;
use jgre_corpus::body::{FieldKind, Place, Var};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodId};
use serde::Serialize;

/// Replicates every method `copies` times with suffixed class names and
/// offset call ids — the same amplification as the incremental bench, so
/// both solver benchmarks report over the same ~15k-method corpus.
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

/// The boolean-era abstract state: one `guard` bit where the production
/// lattice tracks a `PredSet` per path and per site. Var states are the
/// production ordering collapsed to a rank byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct BoolState {
    vars: BTreeMap<Var, (u8, bool)>,
    cleared: BTreeSet<String>,
    key_use: BTreeSet<Var>,
    called: BTreeMap<MethodId, bool>,
    guard: bool,
    handler: bool,
}

impl JoinSemiLattice for BoolState {
    fn join(&mut self, other: &Self) -> bool {
        let before = self.clone();
        for (v, (state, guard)) in &other.vars {
            match self.vars.get_mut(v) {
                None => {
                    self.vars.insert(*v, (*state, *guard));
                }
                Some(cur) => {
                    if *state > cur.0 {
                        *cur = (*state, *guard);
                    } else if *state == cur.0 {
                        cur.1 &= *guard;
                    }
                }
            }
        }
        self.cleared = self.cleared.intersection(&other.cleared).cloned().collect();
        self.key_use.extend(other.key_use.iter().copied());
        for (callee, guard) in &other.called {
            match self.called.get_mut(callee) {
                None => {
                    self.called.insert(*callee, *guard);
                }
                Some(cur) => *cur &= *guard,
            }
        }
        self.guard &= other.guard;
        self.handler |= other.handler;
        *self != before
    }
}

// Rank bytes mirroring the production VarState order.
const RELEASED: u8 = 0;
const LIVE: u8 = 1;
const ESCAPED_SCALAR: u8 = 2;
const ESCAPED_BOUNDED: u8 = 3;
const ESCAPED_UNBOUNDED: u8 = 4;

struct BoolAnalysis;

impl ForwardAnalysis for BoolAnalysis {
    type State = BoolState;

    fn boundary(&self) -> BoolState {
        BoolState::default()
    }

    fn transfer(&self, stmt: &Stmt, state: &mut BoolState) {
        let escalate = |state: &mut BoolState, v: Var, to: u8| {
            let guard = state.guard;
            let entry = state.vars.entry(v).or_insert((LIVE, guard));
            if to > entry.0 {
                *entry = (to, guard);
            } else if to == entry.0 {
                entry.1 &= guard;
            }
        };
        match stmt {
            Stmt::AllocJgr { dst, .. } => {
                state.vars.insert(*dst, (LIVE, state.guard));
            }
            Stmt::ReleaseJgr { src: Place::Var(v) } => {
                state.vars.insert(*v, (RELEASED, state.guard));
            }
            Stmt::ReleaseJgr {
                src: Place::Field(f),
            } => {
                state.cleared.insert(f.clone());
            }
            Stmt::StoreField { src, field, kind } => match kind {
                FieldKind::Collection { bounded: false } => {
                    escalate(state, *src, ESCAPED_UNBOUNDED);
                }
                FieldKind::Collection { bounded: true } => {
                    escalate(state, *src, ESCAPED_BOUNDED);
                    state.guard = true;
                }
                FieldKind::MapKeyReadOnly => {
                    state.key_use.insert(*src);
                }
                FieldKind::Scalar => {
                    let replaced = state.cleared.remove(field);
                    let to = if replaced {
                        ESCAPED_SCALAR
                    } else {
                        ESCAPED_UNBOUNDED
                    };
                    escalate(state, *src, to);
                }
            },
            Stmt::StoreLocal { .. } => {}
            Stmt::Call {
                callee,
                via_handler,
            } => {
                let guard = state.guard;
                match state.called.get_mut(callee) {
                    None => {
                        state.called.insert(*callee, guard);
                    }
                    Some(cur) => *cur &= guard,
                }
                state.handler |= *via_handler;
            }
        }
    }
    // No transfer_edge: the boolean era was edge-insensitive.
}

/// Lowers and solves every body with the boolean baseline; returns the
/// total reachable-block count as a cheap checksum to defeat DCE.
fn bool_solver_cost(model: &CodeModel) -> u64 {
    let mut reached = 0u64;
    for def in &model.methods {
        let cfg = Cfg::lower(&model.method_body(def.id));
        let solution = solve_forward(&cfg, &BoolAnalysis);
        reached += solution.exit.iter().flatten().count() as u64;
    }
    reached
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
struct PathsenseArtifact {
    methods: usize,
    predicate_ms: f64,
    boolean_ms: f64,
    overhead: f64,
}

fn bench_pathsense(c: &mut Criterion) {
    let base = CodeModel::synthesize_with_error_paths(&AospSpec::android_6_0_1());
    let model = amplify(&base, 4);

    let mut group = c.benchmark_group("pathsense");
    group.sample_size(10);
    group.bench_function("predicate_lattice", |b| {
        b.iter(|| intra_solver_cost(black_box(&model)));
    });
    group.bench_function("boolean_guard_baseline", |b| {
        b.iter(|| bool_solver_cost(black_box(&model)));
    });
    group.finish();

    let predicate_ms = min_time_ms(3, || {
        black_box(intra_solver_cost(&model));
    });
    let boolean_ms = min_time_ms(3, || {
        black_box(bool_solver_cost(&model));
    });
    let artifact = PathsenseArtifact {
        methods: model.methods.len(),
        predicate_ms,
        boolean_ms,
        overhead: predicate_ms / boolean_ms,
    };
    let rendered = format!(
        "path-sensitive solver cost ({} methods)\n\
         predicate lattice: {predicate_ms:>8.3} ms\n\
         boolean baseline:  {boolean_ms:>8.3} ms\n\
         overhead:          {:>8.2}x\n",
        artifact.methods, artifact.overhead
    );
    println!("{rendered}");
    assert!(
        artifact.overhead < 2.0,
        "predicate lattice must stay under 2x the boolean solver, got {:.2}x",
        artifact.overhead
    );
    write_artifact("pathsense_overhead", &artifact, &rendered);
}

criterion_group!(benches, bench_pathsense);

fn main() {
    benches();
    criterion::Criterion::default()
        .configure_from_args()
        .final_summary();
}
