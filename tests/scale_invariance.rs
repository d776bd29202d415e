//! The scaling claim of DESIGN.md/README: shrinking the table capacity
//! (with proportional thresholds) preserves every qualitative result —
//! who exhausts, who is fastest/slowest, what the defense kills.

use jgre_repro::core::attack::{run_exhaustion_attack, AttackVector};
use jgre_repro::core::corpus::spec::AospSpec;
use jgre_repro::core::framework::{System, SystemConfig};
use jgre_repro::core::{experiments, DefendedDevice, ExperimentScale};

fn scale(capacity: usize) -> ExperimentScale {
    ExperimentScale {
        jgr_capacity: capacity,
        record_threshold: capacity / 13,
        trigger_threshold: capacity / 4,
        normal_level: capacity / 17,
        stock_jgr: capacity / 43,
        seed: 2_017,
    }
}

#[test]
fn exhaustion_extremes_hold_across_scales() {
    let spec = AospSpec::android_6_0_1();
    let audio = AttackVector::service_vectors(&spec)
        .into_iter()
        .find(|v| v.method == "startWatchingRoutes")
        .unwrap();
    let toast = AttackVector::service_vectors(&spec)
        .into_iter()
        .find(|v| v.method == "enqueueToast")
        .unwrap();
    for capacity in [800usize, 2_000, 6_400] {
        let run = |vector: &AttackVector| {
            let mut system = System::boot_with(SystemConfig {
                seed: 2_017,
                jgr_capacity: Some(capacity),
                ..SystemConfig::default()
            });
            let r = run_exhaustion_attack(&mut system, vector, capacity as u64 * 4, 1_000);
            assert!(
                r.aborted,
                "cap {capacity}: {} did not exhaust",
                vector.service
            );
            r.time_to_exhaustion.unwrap()
        };
        let fast = run(&audio);
        let slow = run(&toast);
        assert!(
            fast < slow,
            "cap {capacity}: audio ({fast}) must beat toast ({slow})"
        );
    }
}

#[test]
fn defense_works_at_multiple_scales() {
    for capacity in [1_600usize, 6_400] {
        let s = scale(capacity);
        // A representative sample of vectors (zero-perm, dangerous-perm,
        // spoofed, multi-ref, prebuilt).
        let spec = AospSpec::android_6_0_1();
        let picks = [
            "clipboard",
            "telephony.registry",
            "notification",
            "midi",
            "pico_tts",
        ];
        for pick in picks {
            let vector = AttackVector::all_vectors(&spec)
                .into_iter()
                .find(|v| v.service == pick)
                .unwrap_or_else(|| panic!("{pick} has a vector"));
            let run = DefendedDevice::boot(s).grind(&vector, capacity as u64 * 4);
            assert!(
                run.victim_survived && run.attacker_killed,
                "cap {capacity}: {} not defended",
                vector.label()
            );
        }
    }
}

#[test]
fn analysis_is_scale_independent() {
    // The static pipeline does not depend on runtime capacities at all;
    // the dynamic verifier works at any scale big enough for its probe
    // burst.
    let a = experiments::analysis_headline(scale(2_000));
    let b = experiments::analysis_headline(ExperimentScale::quick());
    assert_eq!(a, b);
}
