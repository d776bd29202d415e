//! Facade crate of the JGRE reproduction: experiment runners for every
//! table and figure of *"JGRE: An Analysis of JNI Global Reference
//! Exhaustion Vulnerabilities in Android"* (Gu et al., DSN 2017).
//!
//! The heavy lifting lives in the substrate crates
//! ([`jgre_art`], [`jgre_binder`], [`jgre_framework`]), the corpus +
//! pipeline ([`jgre_corpus`], [`jgre_analysis`]), the workloads
//! ([`jgre_attack`]) and the defense ([`jgre_defense`]). This crate wires
//! them into the paper's evaluation:
//!
//! | Runner | Paper artifact |
//! |---|---|
//! | [`experiments::analysis_headline`] | §IV counts + Tables I/IV/V |
//! | [`experiments::table1`] | Table I (44 unprotected interfaces) |
//! | [`experiments::table2`] | Table II (9 helper bypasses) |
//! | [`experiments::table3`] | Table III (per-process limits) |
//! | [`experiments::table4`], [`experiments::table5`] | Tables IV/V |
//! | [`experiments::fig3`] | Figure 3 (JGR growth of the 54 attacks) |
//! | [`experiments::fig4`] | Figure 4 (benign baseline) |
//! | [`experiments::fig5`] | Figure 5 (execution-time growth) |
//! | [`experiments::fig6`] | Figure 6 (execution-time CDF) |
//! | [`experiments::fig8`] | Figure 8 (malicious vs benign scores) |
//! | [`experiments::fig9`] | Figure 9 (colluding apps, Δ sweep) |
//! | [`experiments::fig10`] | Figure 10 (defense IPC overhead) |
//! | [`experiments::response_delay`] | §V-D.1 (detection delays) |
//! | [`experiments::defense_effectiveness`] | §V-C (all 57 defended) |
//! | [`experiments::threshold_sensitivity`] and the other ablations | DESIGN.md ablations |
//!
//! Beyond the per-device runners, the [`fleet`] module scales the
//! simulator to campaigns: [`run_campaign`] shards N independent
//! [`DefendedDevice`]s across worker threads and streams their outcomes
//! into a thread-count-invariant [`FleetSummary`] (the `jgre fleet`
//! subcommand).
//!
//! Every runner takes an [`ExperimentScale`]: [`ExperimentScale::paper`]
//! uses the real constants (51200-entry tables, 4000/12000 thresholds)
//! and reproduces the published magnitudes; [`ExperimentScale::quick`]
//! shrinks the resource bounds proportionally so the whole suite runs in
//! CI seconds while preserving every qualitative shape.
//!
//! # Example
//!
//! ```
//! use jgre_core::{experiments, ExperimentScale};
//!
//! let table2 = experiments::table2(ExperimentScale::quick());
//! assert_eq!(table2.rows.len(), 9);
//! assert!(table2.rows.iter().all(|r| r.direct_binder_bypasses));
//! println!("{}", table2.render());
//! ```

mod device;
pub mod experiments;
pub mod fleet;
mod scale;
pub mod tap;

pub use device::{DefendedDevice, Grind};
pub use fleet::{run_campaign, run_campaign_observed, FleetConfig, FleetSummary};
pub use scale::ExperimentScale;
pub use tap::{tap_attack_events, TappedStream};

// Re-export the layer crates so downstream users need one dependency.
pub use jgre_analysis as analysis;
pub use jgre_art as art;
pub use jgre_attack as attack;
pub use jgre_binder as binder;
pub use jgre_corpus as corpus;
pub use jgre_defense as defense;
pub use jgre_framework as framework;
pub use jgre_sim as sim;
