//! Every workload at its small size, untraced and traced, on the default
//! and the held-out seed: all correctness checks must pass. Run with
//! `cargo test --release`; the fuzz workload keeps its full 320k budget,
//! which its ground-truth checks need.

use jgre_perfbench::report::LAYER_METRICS;
use jgre_perfbench::{run_workload, Size, SMOKE_SEEDS};

fn smoke(workload: &str) {
    for seed in SMOKE_SEEDS {
        for trace in [false, true] {
            let result =
                run_workload(workload, seed, 0.5, trace, Size::Tiny).expect("known workload");
            assert!(
                result.tally.correct(),
                "{workload} seed {seed} trace {trace}: {:?}",
                result.tally.problems
            );
            if trace {
                assert!(!result.layers.is_empty());
                assert!(result
                    .layers
                    .keys()
                    .all(|k| LAYER_METRICS.iter().any(|(n, _)| n == k)));
                let tracer = result.tracer.expect("traced runs keep their spans");
                assert!(!tracer.spans().is_empty());
                assert!(result.layers["bench.trace.coverage"] > 0.5);
            } else {
                let e2e = result
                    .end_to_end
                    .expect("untraced runs report end-to-end figures");
                for value in [
                    e2e.setup_s,
                    e2e.throughput_per_s,
                    e2e.latency_p50_ms,
                    e2e.latency_tail.value,
                ] {
                    assert!(value.is_finite() && value > 0.0, "{workload}: {e2e:?}");
                }
            }
        }
    }
}

#[test]
fn fleet() {
    smoke("fleet");
}

#[test]
fn serve() {
    smoke("serve");
}

#[test]
fn lint() {
    smoke("lint");
}

#[test]
fn fuzz() {
    smoke("fuzz");
}
