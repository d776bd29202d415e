//! Crash recovery checked at every crash boundary, not at sampled ones.
//!
//! For each catalog vector, the durable defender is killed exactly once
//! at each [`CrashPoint`] in turn (`crash: 1.0`, `crash_budget: 1`) and
//! the run is compared with an uncrashed plain defender on the same
//! seed. The attacker dies in both; a delivered outcome names the same
//! victim and kill set; the crash fired once and the supervisor
//! restarted the defender once; and the recovery delay is exactly the
//! supervisor's backoff plus the replay cost.

use std::rc::Rc;

use jgre_repro::core::attack::AttackVector;
use jgre_repro::core::corpus::spec::AospSpec;
use jgre_repro::core::defense::{DetectionOutcome, DurableConfig, JgreDefender, MemoryStore};
use jgre_repro::core::framework::{FrameworkError, System, SystemConfig};
use jgre_repro::core::ExperimentScale;
use jgre_repro::sim::{CrashPoint, FaultPlan};

struct Run {
    outcome: Option<DetectionOutcome>,
    attacker_dead: bool,
}

/// Drives one attacker until an outcome is delivered or its pid is gone
/// (a crash can swallow the outcome of the pass that killed it).
fn drive(system: &mut System, defender: &JgreDefender, vector: &AttackVector) -> Run {
    let scale = ExperimentScale::quick();
    let mal = system.install_app(
        format!("com.malware.{}", vector.label()),
        vector.permissions.iter().copied(),
    );
    for _ in 0..(scale.jgr_capacity as u64 * 4) {
        match system.call_service(mal, &vector.service, &vector.method, vector.call_options()) {
            Ok(o) if o.host_aborted => break,
            Ok(_) => {}
            Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => break,
            Err(e) => panic!("{}: {e}", vector.label()),
        }
        if let Some(d) = defender.poll(system) {
            return Run {
                attacker_dead: system.pid_of(mal).is_none(),
                outcome: Some(d),
            };
        }
        if system.pid_of(mal).is_none() {
            break;
        }
    }
    Run {
        outcome: None,
        attacker_dead: system.pid_of(mal).is_none(),
    }
}

fn boot(plan: FaultPlan) -> System {
    System::boot_with(SystemConfig {
        faults: plan,
        ..ExperimentScale::quick().system_config()
    })
}

/// Checks every crash boundary for one vector; returns one line per
/// mismatch.
fn check_vector(vector: &AttackVector) -> Vec<String> {
    let scale = ExperimentScale::quick();
    let mut clean_sys = boot(FaultPlan::none());
    let clean_def = JgreDefender::install(&mut clean_sys, scale.defender_config())
        .expect("quick scale config is valid");
    let clean = drive(&mut clean_sys, &clean_def, vector);
    let mut failures = Vec::new();
    if !clean.attacker_dead {
        failures.push(format!(
            "{}: uncrashed run left the attacker alive",
            vector.label()
        ));
    }
    let durable = DurableConfig::default();
    let mut compared = 0;
    for point in CrashPoint::ALL {
        let mut sys = boot(FaultPlan {
            crash: 1.0,
            crash_budget: 1,
            crash_point: Some(point),
            ..FaultPlan::none()
        });
        let def = JgreDefender::install_durable(
            &mut sys,
            scale.defender_config(),
            durable.clone(),
            Rc::new(MemoryStore::new()),
        )
        .expect("quick scale config is valid");
        let crashed = drive(&mut sys, &def, vector);
        let stats = def.stats();
        let backoff = def
            .supervisor()
            .expect("durable defender")
            .total_backoff()
            .as_micros();
        let replay = stats.replayed_records * durable.replay_cost.as_micros();
        let mut problems = Vec::new();
        if !crashed.attacker_dead {
            problems.push("attacker survived".to_owned());
        }
        if (stats.crashes, stats.restarts, stats.gave_up) != (1, 1, false) {
            problems.push(format!(
                "crashes {} restarts {} gave_up {}",
                stats.crashes, stats.restarts, stats.gave_up
            ));
        }
        if stats.recovery_delay_us != backoff + replay {
            problems.push(format!(
                "recovery delay {} != backoff {backoff} + replay {replay}",
                stats.recovery_delay_us
            ));
        }
        if let (Some(c), Some(k)) = (&clean.outcome, &crashed.outcome) {
            compared += 1;
            if (c.victim, &c.killed) != (k.victim, &k.killed) {
                problems.push(format!(
                    "outcome {} {:?} != uncrashed {} {:?}",
                    k.victim, k.killed, c.victim, c.killed
                ));
            }
        }
        if !problems.is_empty() {
            failures.push(format!(
                "{} at {}: {}",
                vector.label(),
                point.name(),
                problems.join("; ")
            ));
        }
    }
    if compared == 0 {
        failures.push(format!("{}: no outcome was compared", vector.label()));
    }
    failures
}

#[test]
fn every_crash_boundary_converges_for_every_vector() {
    let spec = AospSpec::android_6_0_1();
    let vectors = AttackVector::all_vectors(&spec);
    assert_eq!(vectors.len(), 57);
    let failures: Vec<String> = vectors.iter().flat_map(check_vector).collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}
