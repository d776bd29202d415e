//! Ablations of the defense's design choices (DESIGN.md): the alarm
//! thresholds, the correlation window Δ, where a per-process limit is
//! enforced, and path classification against a multi-path attacker
//! (§VI). Each study runs a fixed small-table setup, so none takes an
//! [`crate::ExperimentScale`].

use std::collections::BTreeMap;

use jgre_attack::{run_interleaved, Actor, ActorKind, AttackVector};
use jgre_corpus::spec::{AospSpec, Permission};
use jgre_defense::{segment_tree_scores, DefenderConfig, JgreDefender, ScoreParams};
use jgre_framework::{CallOptions, CallStatus, System, SystemConfig};
use jgre_sim::{SimDuration, SimTime, Uid};
use serde::{Deserialize, Serialize};

/// IPC call times per caller uid and interface, as the scorers read them.
pub type IpcByUid = BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>;

/// Uid of the fixture's attacker stream.
const ATTACKER: u32 = 10_061;
/// Uid of the fixture's benign stream.
const BENIGN: u32 = 10_065;

/// Synthetic scoring workload: one attacker whose every call adds a JGR
/// 900 µs later, plus one sparse benign stream, over `adds` JGR adds.
pub fn scoring_fixture(adds: usize) -> (IpcByUid, Vec<SimTime>) {
    let mut ipc: IpcByUid = BTreeMap::new();
    let mut jgr = Vec::new();
    for k in 0..adds as u64 {
        let call = 5_000 + k * 2_100;
        ipc.entry(Uid::new(ATTACKER))
            .or_default()
            .entry("I.attack".into())
            .or_default()
            .push(SimTime::from_micros(call));
        jgr.push(SimTime::from_micros(call + 900));
        let b = 5_137 + k * 6_733 + (k * k * 17) % 1_811;
        ipc.entry(Uid::new(BENIGN))
            .or_default()
            .entry("I.benign".into())
            .or_default()
            .push(SimTime::from_micros(b));
    }
    (ipc, jgr)
}

/// One alarm-threshold setting and when it fired.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdRow {
    /// JGR size that starts recording.
    pub record_threshold: usize,
    /// JGR size that raises the alarm.
    pub trigger_threshold: usize,
    /// Attack calls made before the defender acted.
    pub detected_at_calls: u64,
    /// Top suspect's score at detection.
    pub victim_jgr_at_detection: usize,
}

/// Alarm-threshold sensitivity: the detection point per setting.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ThresholdSensitivity(pub Vec<ThresholdRow>);

impl ThresholdSensitivity {
    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut text = String::from("Ablation — alarm threshold sensitivity\n");
        for r in &self.0 {
            text.push_str(&format!(
                "record {:>5} / trigger {:>5}: detected after {:>5} calls\n",
                r.record_threshold, r.trigger_threshold, r.detected_at_calls
            ));
        }
        text
    }
}

/// Sweeps the record/trigger thresholds against a clipboard attacker on
/// a 3200-entry table and reports when detection fires.
pub fn threshold_sensitivity() -> ThresholdSensitivity {
    let mut rows = Vec::new();
    for (record, trigger) in [
        (100usize, 300usize),
        (250, 750),
        (500, 1_500),
        (1_000, 2_400),
    ] {
        let mut system = System::boot_with(SystemConfig {
            seed: 5,
            jgr_capacity: Some(3_200),
            ..SystemConfig::default()
        });
        let defender = JgreDefender::install(
            &mut system,
            DefenderConfig {
                record_threshold: record,
                trigger_threshold: trigger,
                normal_level: record / 2,
                ..DefenderConfig::default()
            },
        )
        .expect("ablation defender config is valid");
        let mal = system.install_app("com.evil", []);
        let mut calls = 0u64;
        let detected = loop {
            let o = system
                .call_service(
                    mal,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .expect("clipboard registered");
            calls += 1;
            assert!(!o.host_aborted, "defense must fire before exhaustion");
            if let Some(d) = defender.poll(&mut system) {
                break d;
            }
        };
        rows.push(ThresholdRow {
            record_threshold: record,
            trigger_threshold: trigger,
            detected_at_calls: calls,
            victim_jgr_at_detection: detected
                .scores
                .first()
                .map(|s| s.score as usize)
                .unwrap_or(0),
        });
    }
    ThresholdSensitivity(rows)
}

/// Attacker and benign scores at one Δ.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaRow {
    /// Correlation window, µs.
    pub delta_us: u64,
    /// Attacker's score.
    pub attacker_score: u64,
    /// Benign app's score.
    pub benign_score: u64,
}

/// Δ sensitivity of the attacker/benign separation (the Figure 9 axis).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct DeltaSensitivity(pub Vec<DeltaRow>);

impl DeltaSensitivity {
    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut text = String::from("Ablation — Δ sensitivity (attacker vs benign score)\n");
        for r in &self.0 {
            text.push_str(&format!(
                "Δ={:>5}µs: attacker {:>6}, benign {:>6}\n",
                r.delta_us, r.attacker_score, r.benign_score
            ));
        }
        text
    }
}

/// Scores the 4000-add [`scoring_fixture`] across seven Δ widths.
pub fn delta_sensitivity() -> DeltaSensitivity {
    let (ipc, jgr) = scoring_fixture(4_000);
    let rows = [40u64, 79, 400, 1_000, 1_900, 3_583, 6_000]
        .into_iter()
        .map(|delta_us| {
            let report = segment_tree_scores(
                &ipc,
                &jgr,
                ScoreParams {
                    delta: SimDuration::from_micros(delta_us),
                    ..ScoreParams::default()
                },
            );
            let score_of = |uid: u32| {
                report
                    .scores
                    .iter()
                    .find(|s| s.uid == Uid::new(uid))
                    .map(|s| s.score)
                    .unwrap_or(0)
            };
            DeltaRow {
                delta_us,
                attacker_score: score_of(ATTACKER),
                benign_score: score_of(BENIGN),
            }
        })
        .collect();
    DeltaSensitivity(rows)
}

/// What a direct-Binder attacker keeps under one limit placement.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementRow {
    /// Where the per-process limit is enforced.
    pub placement: String,
    /// Entries the attacker holds after 300 calls.
    pub attacker_retained_after_300_calls: usize,
}

/// Protection placement: client-side helper vs server-side limit.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PlacementComparison(pub Vec<PlacementRow>);

impl PlacementComparison {
    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut text = String::from("Ablation — protection placement under direct-Binder attack\n");
        for r in &self.0 {
            text.push_str(&format!(
                "{}: attacker retained {}\n",
                r.placement, r.attacker_retained_after_300_calls
            ));
        }
        text
    }
}

/// Runs 300 direct-Binder calls against a helper-side limit (wifi lock,
/// 50) and a server-side one (display callback, 1).
pub fn placement_comparison() -> PlacementComparison {
    let boot = || {
        System::boot_with(SystemConfig {
            seed: 6,
            jgr_capacity: Some(5_000),
            ..SystemConfig::default()
        })
    };
    // The attacker skips the helper, so its limit never applies.
    let mut system = boot();
    let mal = system.install_app("com.evil", [Permission::WakeLock]);
    for _ in 0..300 {
        system
            .call_service(mal, "wifi", "acquireWifiLock", CallOptions::default())
            .expect("wifi registered");
    }
    let helper_side = system.retained_entries("wifi", "acquireWifiLock");

    let mut system = boot();
    let mal = system.install_app("com.evil", []);
    let mut completed = 0usize;
    for _ in 0..300 {
        if system
            .call_service(mal, "display", "registerCallback", CallOptions::default())
            .expect("display registered")
            .status
            == CallStatus::Completed
        {
            completed += 1;
        }
    }
    let server_side = system.retained_entries("display", "registerCallback");
    assert_eq!(completed, server_side);
    PlacementComparison(vec![
        PlacementRow {
            placement: "helper (client-side) threshold, direct-Binder attacker".into(),
            attacker_retained_after_300_calls: helper_side,
        },
        PlacementRow {
            placement: "server-side per-process threshold".into(),
            attacker_retained_after_300_calls: server_side,
        },
    ])
}

/// Attacker score for one path count and scoring mode.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiPathRow {
    /// Execution paths the attacker rotates through.
    pub paths: u8,
    /// Whether the defender classifies calls by path.
    pub classify: bool,
    /// Attacker's score at the alarm.
    pub attacker_score: u64,
}

/// Multi-path evasion vs path-classified scoring (§VI).
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MultiPathComparison(pub Vec<MultiPathRow>);

impl MultiPathComparison {
    /// Plain-text summary.
    pub fn render(&self) -> String {
        let mut text = String::from("Ablation — multi-path evasion vs path classification (§VI)\n");
        for r in &self.0 {
            text.push_str(&format!(
                "paths={} classify={}: attacker score {}\n",
                r.paths, r.classify, r.attacker_score
            ));
        }
        text
    }
}

/// Scores a `mount` attacker on one path, rotating four paths, and
/// rotating four paths against a path-classifying defender.
pub fn multipath_comparison() -> MultiPathComparison {
    let spec = AospSpec::android_6_0_1();
    let vector = AttackVector::service_vectors(&spec)
        .into_iter()
        .find(|v| v.service == "mount")
        .expect("mount is vulnerable");
    let mut rows = Vec::new();
    for (paths, classify) in [(1u8, false), (4, false), (4, true)] {
        let mut system = System::boot_with(SystemConfig {
            seed: 31,
            jgr_capacity: Some(3_200),
            ..SystemConfig::default()
        });
        let defender = JgreDefender::install(
            &mut system,
            DefenderConfig {
                record_threshold: 250,
                trigger_threshold: 750,
                normal_level: 150,
                classify_paths: classify,
                ..DefenderConfig::default()
            },
        )
        .expect("ablation defender config is valid");
        let mal = system.install_app("com.evil", vector.permissions.clone());
        let actors = vec![Actor {
            uid: mal,
            kind: ActorKind::MultiPathAttacker {
                vector: vector.clone(),
                paths,
            },
        }];
        for _ in 0..10_000 {
            run_interleaved(
                &mut system,
                actors.clone(),
                SimDuration::from_millis(500),
                31,
                true,
            );
            if !defender.monitor().alarmed_pids().is_empty() {
                break;
            }
        }
        let victim = system.system_server_pid();
        let report = defender
            .score_only(&system, victim, SimDuration::from_micros(1_800))
            .expect("alarm implies recording");
        rows.push(MultiPathRow {
            paths,
            classify,
            attacker_score: report.scores.first().map(|s| s.score).unwrap_or(0),
        });
    }
    MultiPathComparison(rows)
}
