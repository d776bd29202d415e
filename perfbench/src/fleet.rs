//! `fleet`: the device-execution loop, closed-loop on one worker.
//!
//! Repeated `run_campaign_observed` campaigns sweep the 57-vector catalog
//! at quick scale (device *i* drives vector *i* mod 57). A device's
//! latency is the gap between consecutive observer callbacks. One worker,
//! because two workers on a shared 2-core host scatter devices/s too
//! widely between runs to bound.
//!
//! The traced run replays devices through `System` and `JgreDefender`
//! directly, so boot, app install, dispatch and defender polls are timed
//! apart, and checks that the replica reproduces every `DeviceRun`.

use std::rc::Rc;
use std::sync::Mutex;
use std::time::Instant;

use jgre_core::attack::AttackVector;
use jgre_core::corpus::spec::AospSpec;
use jgre_core::defense::JgreDefender;
use jgre_core::fleet::{campaign_catalog, DeviceRun, FleetConfig};
use jgre_core::framework::{FrameworkError, System};
use jgre_core::sim::stream_seed;
use jgre_core::{run_campaign_observed, ExperimentScale};

use crate::report::{EndToEnd, RunResult};
use crate::stats::{median, sustained, sustained_median, tail, typical_tail};
use crate::trace::{timed, Tracer};
use crate::{set_up, Size};

/// Devices per timed campaign: two sweeps of the catalog. A run holds
/// dozens of campaigns, the rounds its sustained rate, median and tail
/// are taken over.
const CAMPAIGN_DEVICES: u64 = 2 * 57;
/// Devices replayed through the replica (untraced runs check these
/// against the first campaign; traced runs time them).
const REPLICA_DEVICES: u64 = 57;

fn config(seed: u64, campaign: u64, devices: u64) -> FleetConfig {
    FleetConfig {
        devices,
        threads: 1,
        campaign_seed: stream_seed(seed, campaign),
        attack: None,
        ..FleetConfig::new(ExperimentScale::quick())
    }
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> RunResult {
    let (campaign_devices, replica_devices) = match size {
        Size::Full => (CAMPAIGN_DEVICES, REPLICA_DEVICES),
        Size::Tiny => (57, 57),
    };
    let mut result = RunResult::new();

    // Set-up: synthesize the Android image and derive the catalog, the
    // work each campaign starts with.
    let (_, setup_s) = set_up(|| campaign_catalog(&config(seed, 0, 1)));

    if trace {
        traced(seed, replica_devices, &mut result);
        return result;
    }

    let mut rates = Vec::new();
    let mut gaps_ms = Vec::new();
    let mut campaigns = Vec::new();
    let mut first_runs: Vec<DeviceRun> = Vec::new();
    let started = Instant::now();
    let mut campaign = 0u64;
    while campaign == 0 || started.elapsed().as_secs_f64() < seconds {
        let config = config(seed, campaign, campaign_devices);
        let seen = Mutex::new(Vec::with_capacity(campaign_devices as usize));
        let keep = campaign == 0;
        let wall = Instant::now();
        let summary = run_campaign_observed(&config, |run| {
            let at = Instant::now();
            let kept = (keep && run.device < replica_devices).then(|| run.clone());
            let ok = !run.detections.is_empty() && run.victim_survived;
            seen.lock()
                .expect("observer lock is never poisoned")
                .push((at, run.device, ok, kept));
        });
        let wall_s = wall.elapsed().as_secs_f64();
        rates.push(summary.devices as f64 / wall_s);
        let seen = seen.into_inner().expect("observer lock is never poisoned");
        let gaps: Vec<f64> = seen
            .windows(2)
            .map(|pair| pair[1].0.duration_since(pair[0].0).as_secs_f64() * 1e3)
            .collect();
        gaps_ms.extend_from_slice(&gaps);
        campaigns.push(gaps);
        for (_, device, ok, kept) in seen {
            result.tally.check(ok, || {
                format!("campaign {campaign} device {device}: not detected, or its victim was exhausted")
            });
            first_runs.extend(kept);
        }
        result.tally.check(
            summary.devices == campaign_devices
                && summary.detected == campaign_devices
                && summary.exhausted == 0,
            || format!("campaign {campaign}: summary {}", summary.render()),
        );
        campaign += 1;
    }

    // The replica must reproduce what the campaign's observer saw.
    let spec = Rc::new(AospSpec::android_6_0_1());
    let first = config(seed, 0, campaign_devices);
    let catalog = campaign_catalog(&first);
    let mut counters = Counters::default();
    for run in &first_runs {
        let replica = replica_device(&spec, &first, &catalog, run.device, None, &mut counters);
        result.tally.check(replica == *run, || {
            format!(
                "device {}: replica DeviceRun differs from the campaign's",
                run.device
            )
        });
    }

    let devices_per_s = sustained(&rates);
    let p50 = sustained_median(&campaigns);
    let typical_tail = typical_tail(&campaigns);
    let pooled = tail(&gaps_ms);
    result.end_to_end = Some(EndToEnd {
        setup_s,
        throughput_per_s: devices_per_s,
        latency_p50_ms: p50,
        latency_tail: typical_tail,
    });
    result.name("fleet.devices_per_s", devices_per_s, "1/s");
    result.name("fleet.device_p50_ms (p90 over campaigns)", p50, "ms");
    result.name("fleet.device_p50_ms (pooled)", median(&gaps_ms), "ms");
    result.name(
        &format!(
            "fleet.device_{}_ms (median over campaigns)",
            typical_tail.label()
        ),
        typical_tail.value,
        "ms",
    );
    result.name(
        &format!("fleet.device_{}_ms (pooled)", pooled.label()),
        pooled.value,
        "ms",
    );
    result.name(
        "fleet.devices",
        gaps_ms.len() as f64 + campaign as f64,
        "count",
    );
    result.name("fleet.campaigns", campaign as f64, "count");
    result
}

/// Layer counters the replica accumulates.
#[derive(Debug, Default)]
struct Counters {
    calls: u64,
    polls: u64,
    poll_hits: u64,
    transactions: u64,
    jgr_peak: u64,
    pairs_processed: u64,
    records_scanned: u64,
    kills: u64,
}

/// One fleet device, driven through `System` and `JgreDefender` directly
/// with the exact semantics of `jgre_core::fleet::run_device`: boot at the
/// derived seed, install the attacker, call the vector until the first
/// detection pass, a victim abort, or the call budget, polling the
/// defender after every dispatched call.
fn replica_device(
    spec: &Rc<AospSpec>,
    config: &FleetConfig,
    catalog: &[AttackVector],
    device_id: u64,
    mut tracer: Option<&mut Tracer>,
    counters: &mut Counters,
) -> DeviceRun {
    let attack = (device_id % catalog.len() as u64) as usize;
    let vector = &catalog[attack];
    let seed = stream_seed(config.campaign_seed, device_id);
    let scale = config.scale.with_seed(seed);
    let (mut system, defender) = timed(&mut tracer, "core.boot", device_id, || {
        let mut system = System::boot_with_spec(scale.system_config(), Rc::clone(spec));
        let defender = JgreDefender::install(&mut system, scale.defender_config())
            .expect("scale presets produce a valid defender config");
        (system, defender)
    });
    let mal = timed(&mut tracer, "framework.install_app", device_id, || {
        system.install_app(
            format!("com.malware.{}.{}", vector.service, vector.method),
            vector.permissions.iter().copied(),
        )
    });
    let host = system.service_info(&vector.service).map(|info| info.host);
    let started = system.now();
    let budget = config
        .max_calls
        .unwrap_or(config.scale.jgr_capacity as u64 * 4);
    let mut detections = Vec::new();
    let mut calls = 0u64;
    let mut victim_survived = true;
    let mut exhaustion_time_us = None;
    for _ in 0..budget {
        let result = timed(&mut tracer, "framework.call_service", device_id, || {
            system.call_service(mal, &vector.service, &vector.method, vector.call_options())
        });
        counters.calls += 1;
        match result {
            Ok(outcome) => {
                calls += 1;
                if outcome.host_aborted {
                    victim_survived = false;
                }
                loop {
                    counters.polls += 1;
                    let polled = timed(&mut tracer, "defense.poll", device_id, || {
                        defender.poll(&mut system)
                    });
                    let Some(detection) = polled else { break };
                    counters.poll_hits += 1;
                    detections.push(detection);
                }
            }
            Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => {
                victim_survived = false;
            }
            Err(e) => panic!("fleet device {device_id} on {}: {e}", vector.label()),
        }
        if let Some(count) = host.and_then(|pid| system.jgr_count(pid)) {
            counters.jgr_peak = counters.jgr_peak.max(count as u64);
        }
        if !victim_survived {
            exhaustion_time_us = Some(system.now().saturating_since(started).as_micros());
            break;
        }
        if !detections.is_empty() {
            break;
        }
    }
    counters.transactions += system.call_count(&vector.service, &vector.method);
    for detection in &detections {
        let report = detection.report();
        counters.pairs_processed += report.pairs_processed;
        counters.records_scanned += report.records_scanned;
        counters.kills += report.killed.len() as u64;
    }
    let detection_time_us = detections
        .first()
        .map(|d| d.report().detected_at.saturating_since(started).as_micros());
    let attacker_killed = detections.iter().any(|d| d.report().killed.contains(&mal));
    DeviceRun {
        device: device_id,
        seed,
        attack,
        interface: vector.label(),
        calls,
        victim_survived,
        attacker_killed,
        detections,
        detection_time_us,
        exhaustion_time_us,
    }
}

/// The traced run: the same devices through the traced replica, between
/// two untraced runs of the campaign engine.
fn traced(seed: u64, devices: u64, result: &mut RunResult) {
    let config = config(seed, 0, devices);
    let campaign = || {
        let runs = Mutex::new(Vec::new());
        let start = Instant::now();
        run_campaign_observed(&config, |run| {
            runs.lock()
                .expect("observer lock is never poisoned")
                .push(run.clone());
        });
        let wall_s = start.elapsed().as_secs_f64();
        (
            runs.into_inner().expect("observer lock is never poisoned"),
            wall_s,
        )
    };
    let (reference, before_s) = campaign();

    // Timed like the campaign, which also synthesizes its own image.
    let start = Instant::now();
    let mut tracer = Tracer::new();
    let spec = Rc::new(AospSpec::android_6_0_1());
    let catalog = campaign_catalog(&config);
    let mut counters = Counters::default();
    let from_ns = tracer.clock_ns();
    for (device_id, expected) in (0..devices).zip(&reference) {
        let span = tracer.open("fleet.device", device_id);
        let run = replica_device(
            &spec,
            &config,
            &catalog,
            device_id,
            Some(&mut tracer),
            &mut counters,
        );
        tracer.close(span);
        result.tally.check(run == *expected, || {
            format!("device {device_id}: traced replica DeviceRun differs from the campaign's")
        });
        result
            .tally
            .check(!run.detections.is_empty() && run.victim_survived, || {
                format!("device {device_id}: not detected, or its victim was exhausted")
            });
    }
    let traced_s = start.elapsed().as_secs_f64();
    // Untraced runs on both sides of the traced one, so warm-up does not
    // count as tracing overhead.
    let (again, after_s) = campaign();
    let untraced_s = (before_s + after_s) / 2.0;
    result.tally.check(again == reference, || {
        "repeated campaign differs".to_owned()
    });
    result.tally.check(reference.len() as u64 == devices, || {
        "campaign skipped devices".to_owned()
    });

    result.layer_ns(&tracer, "core.boot");
    result.layer("core.boot.calls", tracer.count("core.boot") as f64);
    result.layer_ns(&tracer, "framework.install_app");
    result.layer_ns(&tracer, "framework.call_service");
    result.layer("framework.call_service.calls", counters.calls as f64);
    result.layer_ns(&tracer, "defense.poll");
    result.layer("defense.poll.calls", counters.polls as f64);
    result.layer(
        "defense.poll.hit_ratio",
        counters.poll_hits as f64 / counters.polls.max(1) as f64,
    );
    result.layer("binder.transactions", counters.transactions as f64);
    result.layer("art.jgr_peak", counters.jgr_peak as f64);
    result.layer(
        "defense.scorer.pairs_processed",
        counters.pairs_processed as f64,
    );
    result.layer(
        "defense.scorer.records_scanned",
        counters.records_scanned as f64,
    );
    result.layer("defense.kills", counters.kills as f64);
    result.layer(
        "bench.trace.coverage",
        tracer.top_level_ns(from_ns) as f64 / (traced_s * 1e9),
    );
    result.layer("bench.trace.overhead_ratio", traced_s / untraced_s);
    result.layer("bench.trace.spans", tracer.spans().len() as f64);
    result.name("fleet.traced_devices", devices as f64, "count");
    result.tracer = Some(tracer);
}
