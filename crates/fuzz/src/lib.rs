//! Coverage-guided Parcel fuzzer over the simulated Binder surface.
//!
//! `jgre fuzz` exercises every registered service through the hardened
//! raw-transaction dispatch ([`jgre_framework::System::transact_raw`]),
//! mutating transaction codes and parcel payloads — wrong arity,
//! type-confused reads, oversized blobs, stale and foreign binder
//! handles, truncated parcels, spoofed package strings — and steering
//! its corpus by per-`(service, method, outcome)` edge coverage plus
//! JGR-growth feedback.
//!
//! The pipeline is:
//!
//! 1. **Probe sweep** ([`engine`]): a GC-verified leak oracle per
//!    method, rediscovering the paper's leaking interfaces black-box.
//! 2. **Spoof escalation**: server-limit edges earn a spoofed re-probe
//!    (the Code-Snippet 3 `enqueueToast` bypass).
//! 3. **Mutation storm** ([`input`]): malformed shapes that must all
//!    land on typed fail-stop rejections, never a panic.
//! 4. **Minimization** ([`report`]): delta-debugged shortest
//!    reproducers, deduplicated by `(service, method, signature)`.
//! 5. **Differential check** ([`differential`]): cross-validation
//!    against the static lint — fuzz-only findings become sift-rule
//!    regression fixtures, lint-only predictions are replayed
//!    dynamically.
//!
//! Everything is deterministic per `(seed, iters, surface, scale)`:
//! the JSON report is byte-identical across `--threads` values, which
//! the CI smoke job enforces with a literal byte diff.

pub mod differential;
pub mod engine;
pub mod input;
pub mod report;

pub use differential::{
    differential, AgreedFinding, DifferentialReport, FuzzArtifact, FuzzOnlyFinding, LintOnlyFinding,
};
pub use engine::{run_fuzz, AttackSurface, FuzzConfig, LEAK_THRESHOLD, PROBE_CALLS, SOUND_CAP_MAX};
pub use input::{FuzzInput, ParcelOp};
pub use report::{CoverageSummary, Finding, FuzzReport, LeakSignature, MinimizedRepro};
