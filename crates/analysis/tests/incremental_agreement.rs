//! Differential harness for the cached summary engine: a random
//! corpus mutation sequence is replayed twice — once against a
//! persistent cache directory that survives every step, once cold from
//! scratch per step — and the `DataflowOutput` verdicts must be
//! structurally equal at *every* step. The vendored proptest has no
//! shrinking, so a divergence triggers a manual delta-debugging pass
//! that reports the minimal divergent edit script.

use std::path::PathBuf;

use jgre_analysis::{
    AnalysisOptions, DataflowDetector, DataflowOutput, IpcMethodExtractor, JgrEntryExtractor,
};
use jgre_corpus::{spec::AospSpec, CodeModel, MethodId, ParamUsage};
use proptest::prelude::*;

/// One corpus edit: `(kind, a, b)` with the operand indices taken modulo
/// whatever they select. Kinds: 0 add call edge, 1 remove last call
/// edge, 2 retarget first call edge, 3 toggle the first binder param
/// between released and retained, 4 rename the method, 5 cycle the first
/// binder param through the path-sensitive error-path usages.
type EditOp = (u8, usize, usize);

fn apply(model: &mut CodeModel, op: &EditOp, step: usize) {
    let n = model.methods.len();
    let (kind, a, b) = *op;
    match kind % 6 {
        0 => {
            let callee = MethodId((b % n) as u32);
            let def = &mut model.methods[a % n];
            if !def.calls.contains(&callee) {
                def.calls.push(callee);
            }
        }
        1 => {
            model.methods[a % n].calls.pop();
        }
        2 => {
            let callee = MethodId((b % n) as u32);
            if let Some(first) = model.methods[a % n].calls.first_mut() {
                *first = callee;
            }
        }
        3 => {
            let def = &mut model.methods[a % n];
            match def.binder_params.first_mut() {
                Some(usage) => {
                    *usage = if matches!(usage, ParamUsage::StoredInCollection) {
                        ParamUsage::LocalOnly
                    } else {
                        ParamUsage::StoredInCollection
                    };
                }
                None => def.binder_params.push(ParamUsage::LocalOnly),
            }
        }
        4 => {
            let def = &mut model.methods[a % n];
            // The step index keeps mutated names unique.
            def.name = format!("mut{step}_{}", def.name);
        }
        5 => {
            // Exercise the predicate lattice in the cache: branch-labeled
            // bodies whose summaries carry non-empty PredSets.
            let shapes = [
                ParamUsage::ReleaseSkippedOnError,
                ParamUsage::PermissionGatedRelease,
                ParamUsage::NullCheckGatedStore,
            ];
            let usage = shapes[b % shapes.len()];
            let def = &mut model.methods[a % n];
            match def.binder_params.first_mut() {
                Some(slot) => *slot = usage,
                None => def.binder_params.push(usage),
            }
        }
        _ => unreachable!(),
    }
}

fn detect(model: &CodeModel, options: &AnalysisOptions) -> DataflowOutput {
    let ipc = IpcMethodExtractor::new(model).extract();
    let entries = JgrEntryExtractor::new(model).extract();
    DataflowDetector::new(model, &entries).detect_with(&ipc, options)
}

/// A warm hit skips lowering, so work counters legitimately differ;
/// verdict structure must not.
fn verdicts_equal(a: &DataflowOutput, b: &DataflowOutput) -> bool {
    a.detector == b.detector && a.verdicts == b.verdicts
}

fn fresh_cache_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("jgre-inc-{}-{tag}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

/// Replays `ops` with a persistent cache vs cold per step; returns the
/// index of the first step whose verdicts diverge.
fn first_divergence(ops: &[EditOp]) -> Option<usize> {
    let spec = AospSpec::android_6_0_1();
    let mut model = CodeModel::synthesize(&spec);
    let dir = fresh_cache_dir("replay");
    let cached_options = AnalysisOptions::with_cache_dir(&dir);
    let cold_options = AnalysisOptions::default();
    let mut divergent = None;
    for (step, op) in ops.iter().enumerate() {
        apply(&mut model, op, step);
        let cached = detect(&model, &cached_options);
        let cold = detect(&model, &cold_options);
        if !verdicts_equal(&cached, &cold) {
            divergent = Some(step);
            break;
        }
    }
    std::fs::remove_dir_all(&dir).ok();
    divergent
}

/// Greedy delta debugging: drop ops one at a time as long as the replay
/// still diverges somewhere.
fn minimize(ops: &[EditOp], step: usize) -> Vec<EditOp> {
    let mut minimal = ops[..=step].to_vec();
    loop {
        let mut reduced = false;
        for i in 0..minimal.len() {
            let mut candidate = minimal.clone();
            candidate.remove(i);
            if first_divergence(&candidate).is_some() {
                minimal = candidate;
                reduced = true;
                break;
            }
        }
        if !reduced {
            return minimal;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Incremental ≡ from-scratch under arbitrary mutation sequences.
    #[test]
    fn cached_replay_agrees_with_cold_at_every_step(
        ops in proptest::collection::vec((0u8..6, 0usize..4096, 0usize..4096), 1..8)
    ) {
        if let Some(step) = first_divergence(&ops) {
            let minimal = minimize(&ops, step);
            prop_assert!(
                false,
                "cache diverged from cold run at step {step}; \
                 minimal divergent edit script: {minimal:?}"
            );
        }
    }
}

/// A hand-picked sequence covering all six edit kinds, replayed with
/// warm-hit verification: after an edit, re-running unchanged must be a
/// pure Tier A hit again.
#[test]
fn scripted_edits_agree_and_rewarm() {
    let ops: Vec<EditOp> = vec![
        (0, 17, 4242), // add edge
        (3, 901, 0),   // toggle release
        (5, 901, 0),   // error-path shape (predicate lattice in cache)
        (4, 55, 0),    // rename
        (5, 120, 1),   // permission-gated shape
        (2, 17, 11),   // retarget
        (1, 17, 0),    // remove edge
    ];
    let spec = AospSpec::android_6_0_1();
    let mut model = CodeModel::synthesize(&spec);
    let dir = fresh_cache_dir("scripted");
    let cached_options = AnalysisOptions::with_cache_dir(&dir);
    // Prime the cache with the unmutated corpus so every step runs
    // against a stale file rather than an empty directory.
    detect(&model, &cached_options);
    for (step, op) in ops.iter().enumerate() {
        apply(&mut model, op, step);
        let cached = detect(&model, &cached_options);
        let cold = detect(&model, &AnalysisOptions::default());
        assert!(
            verdicts_equal(&cached, &cold),
            "verdicts diverged after step {step} ({op:?})"
        );
        // An edit misses the one table and re-solves every SCC.
        assert_eq!(cached.stats.cache_hits, 0, "step {step}");
        assert_eq!(
            cached.stats.cache_misses, cached.stats.sccs as u64,
            "step {step}"
        );
        // Unchanged re-run: pure Tier A hit.
        let warm = detect(&model, &cached_options);
        assert_eq!(warm.stats.cache_misses, 0, "step {step} did not rewarm");
        assert!(verdicts_equal(&warm, &cold));
    }
    std::fs::remove_dir_all(&dir).ok();
}
