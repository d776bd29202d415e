//! Fleet-scale campaigns: N independent defended devices, sharded across
//! worker threads, streamed into one fixed-size summary.
//!
//! A *campaign* boots [`DefendedDevice`]s by the thousand, drives one
//! catalog attack on each, and folds every run into a [`FleetSummary`]
//! the moment it finishes — no per-device artifact is ever materialised,
//! so a million-device sweep costs the same memory as a ten-device one.
//!
//! Three properties make campaign numbers auditable at a scale nobody can
//! eyeball:
//!
//! 1. **Per-device determinism** — device `i` seeds its whole simulation
//!    from [`stream_seed`]`(campaign_seed, i)`, so its run depends only on
//!    the campaign seed and its id, never on the worker that executed it.
//! 2. **Shard-count invariance** — devices are dealt round-robin to
//!    workers ([`jgre_sim::round_robin`], the scheduler the analysis
//!    waves and the fuzzer share) and shard partials merge by
//!    commutative, associative addition, so the summary is
//!    byte-identical for every `--threads` value.
//! 3. **Arena reuse without state leaks** — each worker re-boots one
//!    device slot in place between runs ([`DefendedDevice::reset`]),
//!    sharing the immutable Android image across boots; the determinism
//!    harness pins that a reused slot behaves exactly like a fresh boot.
//!
//! # Example
//!
//! ```
//! use jgre_core::{fleet, ExperimentScale};
//!
//! let config = fleet::FleetConfig {
//!     devices: 60,
//!     ..fleet::FleetConfig::new(ExperimentScale::quick())
//! };
//! let summary = fleet::run_campaign(&config);
//! assert_eq!(summary.devices, 60);
//! // Every device ends in exactly one terminal state.
//! assert_eq!(summary.detected + summary.undetected + summary.exhausted, 60);
//! ```

use std::fmt::Write as _;
use std::rc::Rc;

use jgre_attack::AttackVector;
use jgre_corpus::spec::AospSpec;
use jgre_defense::{DetectionOutcome, DetectionStats};
use jgre_sim::{stream_seed, Histogram};
use serde::{Deserialize, Serialize};

use crate::{DefendedDevice, ExperimentScale};

/// Campaign parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FleetConfig {
    /// Devices to simulate.
    pub devices: u64,
    /// Worker threads (values ≤ 1 run inline; the summary is identical
    /// for every value).
    pub threads: usize,
    /// Per-device experiment scale. The scale's own seed is ignored —
    /// device `i` runs at `scale.with_seed(stream_seed(campaign_seed, i))`.
    pub scale: ExperimentScale,
    /// Campaign seed deriving every device's RNG stream.
    pub campaign_seed: u64,
    /// `None` sweeps the full attack catalog (device `i` drives vector
    /// `i mod catalog_len`); `Some(index)` drives one catalog vector on
    /// every device.
    pub attack: Option<usize>,
    /// Per-device IPC call budget; `None` defaults to
    /// `4 × scale.jgr_capacity`, enough for several exhaustion cycles.
    pub max_calls: Option<u64>,
}

impl FleetConfig {
    /// A 1000-device, single-thread, full-catalog campaign at `scale`,
    /// seeded by the scale's seed.
    pub fn new(scale: ExperimentScale) -> Self {
        Self {
            devices: 1_000,
            threads: 1,
            scale,
            campaign_seed: scale.seed,
            attack: None,
            max_calls: None,
        }
    }

    fn budget(&self) -> u64 {
        self.max_calls.unwrap_or(self.scale.jgr_capacity as u64 * 4)
    }

    /// Human label of the scale preset ("quick", "paper", or "custom"),
    /// recorded in the summary for provenance.
    pub fn scale_label(&self) -> &'static str {
        if self.scale.jgr_capacity == ExperimentScale::paper().jgr_capacity {
            "paper"
        } else if self.scale.jgr_capacity == ExperimentScale::quick().jgr_capacity {
            "quick"
        } else {
            "custom"
        }
    }
}

/// Everything one device run produced, handed to campaign observers
/// before being folded into the summary and dropped.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeviceRun {
    /// Device id within the campaign.
    pub device: u64,
    /// The derived per-device seed (`stream_seed(campaign_seed, device)`).
    pub seed: u64,
    /// Catalog index of the vector driven.
    pub attack: usize,
    /// `service.method` label of the vector driven.
    pub interface: String,
    /// IPC calls issued.
    pub calls: u64,
    /// Whether the victim survived (no abort).
    pub victim_survived: bool,
    /// Whether the attacker was among the killed apps.
    pub attacker_killed: bool,
    /// Detection passes, in order — exactly the sequence a direct
    /// [`DefendedDevice`] run with the same seed accumulates.
    pub detections: Vec<DetectionOutcome>,
    /// Virtual µs from attack start to the first alarm pickup.
    pub detection_time_us: Option<u64>,
    /// Virtual µs from attack start to victim abort.
    pub exhaustion_time_us: Option<u64>,
}

/// Per-vector slice of a campaign.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AttackAggregate {
    /// `service.method` label.
    pub interface: String,
    /// Devices that drove this vector.
    pub devices: u64,
    /// Devices with at least one detection.
    pub detected: u64,
    /// Devices with at least one degraded detection.
    pub degraded: u64,
    /// Devices whose victim aborted.
    pub exhausted: u64,
    /// Apps killed across this vector's devices.
    pub kills: u64,
}

/// Fixed-size aggregate of a whole campaign.
///
/// Merging two summaries adds their counters bin-by-bin; the operation is
/// commutative and associative, which is why a campaign's result does not
/// depend on how devices were sharded across workers (the shard-count
/// invariance test serialises summaries from 1/2/7 workers and compares
/// the bytes).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct FleetSummary {
    /// Campaign seed the device streams derive from.
    pub campaign_seed: u64,
    /// Scale preset label ("quick" / "paper" / "custom").
    pub scale: String,
    /// Devices simulated.
    pub devices: u64,
    /// IPC calls driven across the fleet.
    pub calls: u64,
    /// Devices whose attack was detected (≥ 1 detection pass).
    pub detected: u64,
    /// Devices whose budget ran out with no detection and no abort.
    pub undetected: u64,
    /// Devices whose victim aborted before any detection.
    pub exhausted: u64,
    /// Devices where the attacker was among the killed apps.
    pub attacker_killed: u64,
    /// Devices with at least one degraded detection pass.
    pub degraded_runs: u64,
    /// Streamed [`DetectionOutcome`] counters across the fleet.
    pub detections: DetectionStats,
    /// Virtual time from attack start to first alarm pickup, µs.
    pub detection_time_us: Histogram,
    /// Modeled defender response delay per pass, µs.
    pub response_delay_us: Histogram,
    /// Virtual time from attack start to victim abort, µs (populated only
    /// by runs the defense failed to stop).
    pub exhaustion_time_us: Histogram,
    /// Per-vector breakdown, in catalog order.
    pub per_attack: Vec<AttackAggregate>,
}

impl FleetSummary {
    fn empty(config: &FleetConfig, catalog: &[AttackVector]) -> Self {
        Self {
            campaign_seed: config.campaign_seed,
            scale: config.scale_label().to_owned(),
            devices: 0,
            calls: 0,
            detected: 0,
            undetected: 0,
            exhausted: 0,
            attacker_killed: 0,
            degraded_runs: 0,
            detections: DetectionStats::new(),
            detection_time_us: Histogram::new(),
            response_delay_us: Histogram::new(),
            exhaustion_time_us: Histogram::new(),
            per_attack: catalog
                .iter()
                .map(|v| AttackAggregate {
                    interface: v.label(),
                    devices: 0,
                    detected: 0,
                    degraded: 0,
                    exhausted: 0,
                    kills: 0,
                })
                .collect(),
        }
    }

    /// Folds one finished device run into the counters.
    pub fn absorb(&mut self, run: &DeviceRun) {
        self.devices += 1;
        self.calls += run.calls;
        let detected = !run.detections.is_empty();
        if detected {
            self.detected += 1;
        } else if run.victim_survived {
            self.undetected += 1;
        }
        if !run.victim_survived {
            self.exhausted += 1;
        }
        if run.attacker_killed {
            self.attacker_killed += 1;
        }
        let mut degraded = false;
        for outcome in &run.detections {
            self.detections.absorb(outcome);
            self.response_delay_us
                .record(outcome.report().response_delay.as_micros());
            degraded |= outcome.is_degraded();
        }
        if degraded {
            self.degraded_runs += 1;
        }
        if let Some(us) = run.detection_time_us {
            self.detection_time_us.record(us);
        }
        if let Some(us) = run.exhaustion_time_us {
            self.exhaustion_time_us.record(us);
        }
        let slot = &mut self.per_attack[run.attack];
        slot.devices += 1;
        slot.detected += u64::from(detected);
        slot.degraded += u64::from(degraded);
        slot.exhausted += u64::from(!run.victim_survived);
        slot.kills += run
            .detections
            .iter()
            .map(|o| o.report().killed.len() as u64)
            .sum::<u64>();
    }

    /// Adds `other`'s counters into `self` (commutative and associative).
    ///
    /// # Panics
    ///
    /// Panics when the summaries come from differently-shaped campaigns
    /// (different seed, scale, or catalog).
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.campaign_seed, other.campaign_seed, "seed mismatch");
        assert_eq!(self.scale, other.scale, "scale mismatch");
        assert_eq!(
            self.per_attack.len(),
            other.per_attack.len(),
            "catalog mismatch"
        );
        self.devices += other.devices;
        self.calls += other.calls;
        self.detected += other.detected;
        self.undetected += other.undetected;
        self.exhausted += other.exhausted;
        self.attacker_killed += other.attacker_killed;
        self.degraded_runs += other.degraded_runs;
        self.detections.merge(&other.detections);
        self.detection_time_us.merge(&other.detection_time_us);
        self.response_delay_us.merge(&other.response_delay_us);
        self.exhaustion_time_us.merge(&other.exhaustion_time_us);
        for (mine, theirs) in self.per_attack.iter_mut().zip(&other.per_attack) {
            debug_assert_eq!(mine.interface, theirs.interface);
            mine.devices += theirs.devices;
            mine.detected += theirs.detected;
            mine.degraded += theirs.degraded;
            mine.exhausted += theirs.exhausted;
            mine.kills += theirs.kills;
        }
    }

    /// Plain-text summary table.
    pub fn render(&self) -> String {
        let mut out = format!(
            "Fleet campaign — {} devices, {} vector(s), scale {}, seed {}\n\
             detected {}  undetected {}  exhausted {}  attacker killed {}  degraded runs {}\n\
             {} IPC calls; {} detection passes ({} full, {} degraded); {} kills\n",
            self.devices,
            self.per_attack.len(),
            self.scale,
            self.campaign_seed,
            self.detected,
            self.undetected,
            self.exhausted,
            self.attacker_killed,
            self.degraded_runs,
            self.calls,
            self.detections.outcomes,
            self.detections.full,
            self.detections.degraded,
            self.detections.kills,
        );
        if let (Some(mean), Some(p99)) = (
            self.detection_time_us.mean(),
            self.detection_time_us.percentile_bound(99),
        ) {
            let _ = writeln!(
                out,
                "time-to-detection: mean {:.1} ms, p99 ≤ {:.1} ms, max {:.1} ms",
                mean / 1e3,
                p99 as f64 / 1e3,
                self.detection_time_us.max().unwrap_or(0) as f64 / 1e3,
            );
        }
        if !self.exhaustion_time_us.is_empty() {
            let _ = writeln!(
                out,
                "exhaustion times (defense failures): {} devices, mean {:.1} ms",
                self.exhaustion_time_us.count(),
                self.exhaustion_time_us.mean().unwrap_or(0.0) / 1e3,
            );
        }
        for row in &self.per_attack {
            let _ = writeln!(
                out,
                "{:>7} dev  {:>7} det  {:>5} degr  {:>5} exh  {:>6} kills  {}",
                row.devices, row.detected, row.degraded, row.exhausted, row.kills, row.interface
            );
        }
        out
    }
}

/// One worker's reusable device slot plus the shared Android image.
///
/// Booting a device from the arena reuses the previous slot's allocations
/// and the spec; a reused slot is observationally identical to a fresh
/// boot (pinned by `crates/core/tests/device_reset.rs`).
#[derive(Debug)]
pub struct DeviceArena {
    spec: Rc<AospSpec>,
    slot: Option<DefendedDevice>,
}

impl DeviceArena {
    /// Creates an arena around a freshly synthesized Android image.
    pub fn new() -> Self {
        Self {
            spec: Rc::new(AospSpec::android_6_0_1()),
            slot: None,
        }
    }

    /// The shared Android image every boot from this arena runs.
    pub fn spec(&self) -> &AospSpec {
        &self.spec
    }

    /// Boots (or re-boots) the slot at `scale` and hands it out.
    pub fn boot(&mut self, scale: ExperimentScale) -> &mut DefendedDevice {
        match &mut self.slot {
            Some(device) => device.reset(scale),
            None => {
                self.slot = Some(DefendedDevice::boot_with_spec(scale, Rc::clone(&self.spec)));
            }
        }
        self.slot.as_mut().expect("slot was just filled")
    }
}

impl Default for DeviceArena {
    fn default() -> Self {
        Self::new()
    }
}

/// Runs one device of a campaign on an arena slot.
///
/// This is the exact per-device semantics of the fleet: boot at the
/// derived seed, then [`DefendedDevice::grind`] the vector for the call
/// budget. The N=1 equivalence test replays this against a hand-driven
/// [`DefendedDevice`] to pin that the fleet adds nothing on top.
pub fn run_device(
    arena: &mut DeviceArena,
    config: &FleetConfig,
    catalog: &[AttackVector],
    device_id: u64,
) -> DeviceRun {
    let attack = (device_id % catalog.len() as u64) as usize;
    let vector = &catalog[attack];
    let seed = stream_seed(config.campaign_seed, device_id);
    let device = arena.boot(config.scale.with_seed(seed));
    let grind = device.grind(vector, config.budget());
    DeviceRun {
        device: device_id,
        seed,
        attack,
        interface: vector.label(),
        calls: grind.calls,
        victim_survived: grind.victim_survived,
        attacker_killed: grind.attacker_killed,
        detections: device.detections().to_vec(),
        detection_time_us: grind.detection_time_us,
        exhaustion_time_us: grind.exhaustion_time_us,
    }
}

/// The catalog a campaign sweeps: the full 57-vector catalog, or the one
/// vector selected by [`FleetConfig::attack`].
///
/// # Panics
///
/// Panics when the selected index is outside the catalog (the CLI
/// validates selectors before building a config).
pub fn campaign_catalog(config: &FleetConfig) -> Vec<AttackVector> {
    let spec = AospSpec::android_6_0_1();
    let catalog = AttackVector::all_vectors(&spec);
    match config.attack {
        None => catalog,
        Some(index) => {
            assert!(
                index < catalog.len(),
                "attack index {index} outside the {}-vector catalog",
                catalog.len()
            );
            vec![catalog[index].clone()]
        }
    }
}

/// Runs a campaign and returns its summary.
pub fn run_campaign(config: &FleetConfig) -> FleetSummary {
    run_campaign_observed(config, |_| {})
}

/// [`run_campaign`], invoking `observer` with every finished device run
/// before it is folded away — the audit hook the determinism harness uses
/// to compare fleet runs against direct device runs.
///
/// Observer calls happen on worker threads, in each shard's device order;
/// the summary itself never depends on observation.
pub fn run_campaign_observed<F>(config: &FleetConfig, observer: F) -> FleetSummary
where
    F: Fn(&DeviceRun) + Sync,
{
    let catalog = campaign_catalog(config);
    let devices = usize::try_from(config.devices).expect("device count fits in usize");
    // Worker t owns devices t, t+W, t+2W, … and folds its shard locally;
    // partials merge at the end. Because per-device results depend only
    // on (campaign_seed, id) and the merge is commutative, the summary is
    // identical for every W.
    let partials = jgre_sim::round_robin(devices, config.threads, |shard| {
        let mut arena = DeviceArena::new();
        let mut partial = FleetSummary::empty(config, &catalog);
        for device_id in shard {
            let run = run_device(&mut arena, config, &catalog, device_id as u64);
            observer(&run);
            partial.absorb(&run);
        }
        partial
    });
    partials
        .into_iter()
        .reduce(|mut summary, partial| {
            summary.merge(&partial);
            summary
        })
        .expect("the scheduler runs at least one worker")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_defends_every_device() {
        let config = FleetConfig {
            devices: 57,
            ..FleetConfig::new(ExperimentScale::quick())
        };
        let summary = run_campaign(&config);
        assert_eq!(summary.devices, 57);
        assert_eq!(summary.detected, 57, "\n{}", summary.render());
        assert_eq!(summary.exhausted, 0);
        assert_eq!(summary.attacker_killed, 57);
        // Every catalog vector saw exactly one device.
        assert!(summary.per_attack.iter().all(|a| a.devices == 1));
        assert_eq!(summary.detection_time_us.count(), 57);
    }

    #[test]
    fn single_vector_campaign_only_touches_that_row() {
        let config = FleetConfig {
            devices: 5,
            attack: Some(3),
            ..FleetConfig::new(ExperimentScale::quick())
        };
        let summary = run_campaign(&config);
        assert_eq!(summary.per_attack.len(), 1);
        assert_eq!(summary.per_attack[0].devices, 5);
        assert_eq!(summary.detected, 5);
    }

    #[test]
    fn zero_devices_is_an_empty_summary() {
        let config = FleetConfig {
            devices: 0,
            ..FleetConfig::new(ExperimentScale::quick())
        };
        let summary = run_campaign(&config);
        assert_eq!(summary.devices, 0);
        assert_eq!(summary.per_attack.len(), 57);
        assert!(summary.detection_time_us.is_empty());
    }

    #[test]
    fn observer_sees_every_device_once() {
        use std::sync::Mutex;
        let config = FleetConfig {
            devices: 12,
            threads: 3,
            ..FleetConfig::new(ExperimentScale::quick())
        };
        let seen = Mutex::new(Vec::new());
        run_campaign_observed(&config, |run| seen.lock().unwrap().push(run.device));
        let mut ids = seen.into_inner().unwrap();
        ids.sort_unstable();
        assert_eq!(ids, (0..12).collect::<Vec<_>>());
    }
}
