//! Phase 3: the JGRE Defender service.
//!
//! A defender is either plain ([`JgreDefender::install`]) or durable
//! ([`JgreDefender::install_durable`], [`JgreDefender::resume`]). A
//! durable defender may die at any [`CrashPoint`] the fault layer's
//! `defender-crash` channel selects, and comes back with its detection
//! state intact:
//!
//! 1. every monitor event and completed decision is appended to the
//!    write-ahead [`Journal`] before the in-memory state depending on it
//!    is considered durable;
//! 2. every `checkpoint_interval` records (and after every completed
//!    pass) the full state is checkpointed and the journal compacted, so
//!    replay is bounded;
//! 3. on a crash, a [`Supervisor`] (Android-`init` style: bounded
//!    consecutive restarts, exponential backoff) decides whether to
//!    restart; recovery reopens the journal (truncating the torn tail
//!    the dying process left), restores the newest valid checkpoint, and
//!    replays the suffix.
//!
//! Bookkeeping (journal appends, checkpoint writes) costs zero virtual
//! time; only the crash itself — supervisor backoff plus replay —
//! advances the clock. A durable run whose crash channel never fires is
//! therefore byte-identical to a plain one.

use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

use jgre_framework::{KillOutcome, Supervisor, SupervisorConfig, System};
use jgre_sim::{CrashPoint, Pid, SimDuration, SimTime, Uid};
use serde::{Deserialize, Serialize};

use crate::checkpoint::{
    config_fingerprint, decode_checkpoint, encode_checkpoint, DefenderCheckpoint,
};
use crate::journal::{Journal, JournalRecord, PersistError, StateStore};
use crate::{segment_tree_scores, DefenseError, JgrMonitor, ScoreParams, ScoreReport, UidScore};

/// Defender tuning. The defaults are the paper's deployed parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DefenderConfig {
    /// Runtime starts recording JGR event times at this table size.
    pub record_threshold: usize,
    /// Runtime alerts the defender at this table size.
    pub trigger_threshold: usize,
    /// Recovery target: kill until the victim's table is back below this
    /// (Observation 1 puts the benign band under ~3000).
    pub normal_level: usize,
    /// The Δ uncertainty band for Algorithm 1 (system-wide average
    /// 1.8 ms).
    pub delta: SimDuration,
    /// Escalating correlation windows. Detection retries with the next
    /// window when the best score is not confident — the mechanism behind
    /// §V-D.1's three slow (>1 s) detections.
    pub windows: Vec<SimDuration>,
    /// Histogram bin width.
    pub bin: SimDuration,
    /// Minimum fraction of observed adds the top score must explain to
    /// stop escalating windows.
    pub confidence: f64,
    /// Safety valve on kills per detection.
    pub max_kills: usize,
    /// §VI extension: classify IPC calls by code-execution path before
    /// scoring. A multi-path attacker splits its timing signature across
    /// paths; per-path buckets restore the concentration.
    pub classify_paths: bool,
    /// Correlation watchdog: when the fraction of IPC log records that
    /// survived in the scored horizon (estimated from driver sequence-
    /// number gaps) falls below this floor, Algorithm 1's timing
    /// correlation is no longer trustworthy and the defender falls back
    /// to coarse per-UID call-count scoring, reporting
    /// [`DegradationCause::LowIpcCoverage`].
    pub coverage_floor: f64,
    /// Retries per victim when `am force-stop` fails (fault injection);
    /// each retry backs off exponentially from
    /// [`kill_backoff`](Self::kill_backoff).
    pub kill_retries: u32,
    /// Initial backoff after a failed kill; doubles per retry.
    pub kill_backoff: SimDuration,
    /// Alarm hysteresis: after finishing a pass for a victim, further
    /// alarms on the same pid are ignored for this long, so a flapping
    /// table (e.g. kills that keep failing or respawning) cannot trigger
    /// a kill storm. Zero disables hysteresis (the paper's behaviour).
    pub cooldown: SimDuration,
}

impl Default for DefenderConfig {
    fn default() -> Self {
        Self {
            record_threshold: crate::RECORD_THRESHOLD,
            trigger_threshold: crate::TRIGGER_THRESHOLD,
            normal_level: 3_000,
            delta: SimDuration::from_micros(1_800),
            windows: vec![
                SimDuration::from_millis(8),
                SimDuration::from_millis(16),
                SimDuration::from_millis(32),
            ],
            bin: SimDuration::from_micros(50),
            confidence: 0.35,
            max_kills: 8,
            classify_paths: false,
            coverage_floor: 0.95,
            kill_retries: 3,
            kill_backoff: SimDuration::from_millis(10),
            cooldown: SimDuration::ZERO,
        }
    }
}

impl DefenderConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// The first [`DefenseError`] found, checking thresholds, windows,
    /// bin width, and the confidence / coverage fractions.
    pub fn validate(&self) -> Result<(), DefenseError> {
        if self.record_threshold >= self.trigger_threshold {
            return Err(DefenseError::InvalidThresholds {
                record: self.record_threshold,
                trigger: self.trigger_threshold,
            });
        }
        if self.windows.is_empty() {
            return Err(DefenseError::NoWindows);
        }
        if self.bin.as_micros() == 0 {
            return Err(DefenseError::ZeroBin);
        }
        if !(0.0..=1.0).contains(&self.confidence) || self.confidence.is_nan() {
            return Err(DefenseError::InvalidConfidence(self.confidence));
        }
        if !(0.0..=1.0).contains(&self.coverage_floor) || self.coverage_floor.is_nan() {
            return Err(DefenseError::InvalidCoverageFloor(self.coverage_floor));
        }
        Ok(())
    }
}

/// Which ranking produced a detection's scores.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScoringKind {
    /// Algorithm 1 timing correlation over the segment-tree histogram —
    /// full confidence.
    SegmentTree,
    /// Coarse per-UID call-count ranking — the degraded fallback when the
    /// IPC log cannot support timing correlation.
    CallCount,
}

/// Why a detection's confidence was reduced.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum DegradationCause {
    /// Sequence-number gaps show the scored horizon is missing too many
    /// IPC records for timing correlation; the defender fell back to
    /// call-count scoring.
    LowIpcCoverage {
        /// Estimated surviving fraction of records in the horizon.
        observed: f64,
        /// The configured [`DefenderConfig::coverage_floor`].
        floor: f64,
    },
    /// The monitor's JGR timestamps arrived out of order (corrupted
    /// journal); they were sorted before scoring, but the original order
    /// was lost.
    UnsortedJgrTimestamps,
    /// `am force-stop` kept failing for this app even after retries; its
    /// entries were not reclaimed.
    KillFailed {
        /// The app that would not die.
        uid: Uid,
        /// Kill attempts made (1 + retries).
        attempts: u32,
    },
    /// Recovery ended (kill budget or candidates exhausted) with the
    /// victim's table still above the normal level.
    RecoveryIncomplete {
        /// Victim table size when the pass gave up.
        remaining: usize,
    },
}

impl fmt::Display for DegradationCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationCause::LowIpcCoverage { observed, floor } => write!(
                f,
                "ipc log coverage {observed:.2} below floor {floor:.2}; fell back to call-count scoring"
            ),
            DegradationCause::UnsortedJgrTimestamps => {
                write!(f, "jgr timestamps unsorted; sorted before scoring")
            }
            DegradationCause::KillFailed { uid, attempts } => {
                write!(f, "kill of {uid} failed after {attempts} attempt(s)")
            }
            DegradationCause::RecoveryIncomplete { remaining } => {
                write!(f, "recovery incomplete: {remaining} entries remain")
            }
        }
    }
}

/// The facts of one completed detection + recovery pass (shared between
/// full-confidence and degraded outcomes).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetectionReport {
    /// The process whose alarm fired.
    pub victim: Pid,
    /// When the defender picked the alarm up.
    pub detected_at: SimTime,
    /// Which ranking produced [`scores`](Self::scores).
    pub scoring: ScoringKind,
    /// Estimated fraction of IPC log records that survived in the scored
    /// horizon (1.0 on a pristine log).
    pub coverage: f64,
    /// Final scoring round, highest first.
    pub scores: Vec<UidScore>,
    /// Apps killed, in order.
    pub killed: Vec<Uid>,
    /// Correlation rounds run (1 = first window sufficed).
    pub rounds: usize,
    /// Total `(IPC, JGR)` pairs examined across rounds.
    pub pairs_processed: u64,
    /// IPC log records scanned across rounds.
    pub records_scanned: u64,
    /// Modeled on-device time for the whole pass — the §V-D.1 response
    /// delay. Also applied to the virtual clock. Includes kill-retry
    /// backoff under fault injection.
    pub response_delay: SimDuration,
    /// Victim table size after recovery (`None` when the victim died
    /// before recovery finished).
    pub victim_jgr_after: Option<usize>,
}

/// One completed detection + recovery pass.
///
/// [`Full`](Self::Full) is the paper's outcome: a pristine log, Algorithm 1
/// scoring, a drained table. [`Degraded`](Self::Degraded) carries the same
/// report plus the explicit reasons confidence was reduced — the defender
/// states *why* instead of guessing. Both variants [`Deref`](std::ops::Deref)
/// to [`DetectionReport`], so field access works uniformly.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DetectionOutcome {
    /// Detection and recovery completed with full confidence.
    Full(DetectionReport),
    /// Detection completed, but confidence was reduced for the listed
    /// causes (degraded scoring, failed kills, incomplete recovery).
    Degraded {
        /// The facts of the pass.
        report: DetectionReport,
        /// Every reason confidence was reduced, in the order encountered.
        causes: Vec<DegradationCause>,
    },
}

impl DetectionOutcome {
    /// The underlying report, whichever variant this is.
    pub fn report(&self) -> &DetectionReport {
        match self {
            DetectionOutcome::Full(report) => report,
            DetectionOutcome::Degraded { report, .. } => report,
        }
    }

    /// The degradation causes (empty for [`Full`](Self::Full)).
    pub fn causes(&self) -> &[DegradationCause] {
        match self {
            DetectionOutcome::Full(_) => &[],
            DetectionOutcome::Degraded { causes, .. } => causes,
        }
    }

    /// Whether confidence was reduced.
    pub fn is_degraded(&self) -> bool {
        matches!(self, DetectionOutcome::Degraded { .. })
    }

    /// One-paragraph human summary of the pass (examples and the CLI use
    /// it; all fields remain available for structured consumers).
    pub fn render(&self) -> String {
        let r = self.report();
        let top = r
            .scores
            .iter()
            .take(3)
            .map(|s| format!("{}={}", s.uid, s.score))
            .collect::<Vec<_>>()
            .join(", ");
        let mut text = format!(
            "victim {} alarmed at {}; {} correlation round(s) over {} IPC records / {} pairs in {}; top scores [{}]; killed {:?}; victim table now {:?}",
            r.victim,
            r.detected_at,
            r.rounds,
            r.records_scanned,
            r.pairs_processed,
            r.response_delay,
            top,
            r.killed,
            r.victim_jgr_after,
        );
        if let DetectionOutcome::Degraded { causes, .. } = self {
            let listed = causes
                .iter()
                .map(|c| c.to_string())
                .collect::<Vec<_>>()
                .join("; ");
            text.push_str(&format!("; DEGRADED: {listed}"));
        }
        text
    }
}

impl std::ops::Deref for DetectionOutcome {
    type Target = DetectionReport;

    fn deref(&self) -> &DetectionReport {
        self.report()
    }
}

/// Durability settings for [`JgreDefender::install_durable`] and
/// [`JgreDefender::resume`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DurableConfig {
    /// Restart policy.
    pub supervisor: SupervisorConfig,
    /// Journal records between periodic checkpoints — the replay bound.
    pub checkpoint_interval: u64,
    /// Modeled on-device cost of re-applying one journal record during
    /// recovery (the paper measures ~1 µs per monitored event; replay is
    /// a touch heavier for deserialize + apply).
    pub replay_cost: SimDuration,
}

impl Default for DurableConfig {
    fn default() -> Self {
        Self {
            supervisor: SupervisorConfig::default(),
            checkpoint_interval: 512,
            replay_cost: SimDuration::from_micros(2),
        }
    }
}

/// Counters describing how rough a durable defender's life has been
/// (all zero for a plain one).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct RecoveryStats {
    /// Times the defender process died.
    pub crashes: u64,
    /// Times the supervisor restarted it.
    pub restarts: u64,
    /// Whether the supervisor hit its restart budget and stopped trying.
    pub gave_up: bool,
    /// Journal records re-applied across all recoveries.
    pub replayed_records: u64,
    /// Torn/corrupt journal bytes dropped on reopen.
    pub truncated_bytes: u64,
    /// Checkpoints successfully written.
    pub checkpoints_written: u64,
    /// Checkpoints rejected on recovery (bad checksum, stale schema,
    /// config mismatch) — recovery fell back to journal-only replay.
    pub checkpoints_rejected: u64,
    /// Virtual time spent crashed: supervisor backoff plus replay cost.
    pub recovery_delay_us: u64,
    /// Backing-store failures survived (loads and checkpoint writes).
    pub store_errors: u64,
}

/// What a durable defender keeps beside the detection state: the
/// journal, the store its checkpoints go to, and its supervisor.
#[derive(Debug)]
struct Durable {
    config: DurableConfig,
    store: Rc<dyn StateStore>,
    /// Shared with the monitor, which appends every event to it.
    journal: Rc<RefCell<Journal>>,
    supervisor: Supervisor,
    stats: RecoveryStats,
}

/// The defender service: owns the monitor, reads the driver log, scores,
/// kills — and, when durable, journals, checkpoints and recovers.
#[derive(Debug)]
pub struct JgreDefender {
    monitor: Rc<JgrMonitor>,
    config: DefenderConfig,
    /// Per-victim end time of the last completed pass, for alarm
    /// hysteresis.
    last_pass: RefCell<BTreeMap<Pid, SimTime>>,
    /// `None` for a plain defender, which cannot crash and never draws
    /// from the fault layer's crash channel.
    durable: Option<RefCell<Durable>>,
}

impl JgreDefender {
    /// Installs the defense on a device: validates the configuration,
    /// registers the runtime monitor on every current and future process,
    /// shares the device's fault layer with the monitor, and turns on the
    /// Binder driver's IPC recording (the Figure 10 overhead).
    ///
    /// # Errors
    ///
    /// Any [`DefenseError`] from [`DefenderConfig::validate`].
    pub fn install(system: &mut System, config: DefenderConfig) -> Result<Self, DefenseError> {
        let defender = Self::new(config, None)?;
        defender.monitor.attach(system);
        Ok(defender)
    }

    /// Installs a durable defense (see the module docs) with a fresh
    /// journal on `store`: a first boot, so any previous journal on the
    /// store is discarded.
    ///
    /// # Errors
    ///
    /// [`PersistError::Config`] for an invalid defender configuration,
    /// [`PersistError::Io`] if the store cannot be initialised.
    pub fn install_durable(
        system: &mut System,
        config: DefenderConfig,
        durable: DurableConfig,
        store: Rc<dyn StateStore>,
    ) -> Result<Self, PersistError> {
        let defender = Self::new(config, Some((durable, store.clone())))?;
        if let Some(d) = &defender.durable {
            *d.borrow().journal.borrow_mut() = Journal::create(store)?;
        }
        defender.monitor.attach(system);
        Ok(defender)
    }

    /// Resumes a durable defense from whatever state `store` holds (the
    /// host process restarted): reopen the journal, restore the newest
    /// valid checkpoint, replay the suffix.
    ///
    /// # Errors
    ///
    /// [`PersistError::Config`] for an invalid defender configuration,
    /// [`PersistError::Io`] if the store cannot be read.
    pub fn resume(
        system: &mut System,
        config: DefenderConfig,
        durable: DurableConfig,
        store: Rc<dyn StateStore>,
    ) -> Result<Self, PersistError> {
        let defender = Self::new(config, Some((durable, store)))?;
        if let Some(d) = &defender.durable {
            defender.recover(&mut d.borrow_mut(), system)?;
        }
        Ok(defender)
    }

    /// A defender whose monitor is not yet attached to a device. A
    /// durable one journals into a placeholder until its constructor
    /// creates or reopens the real journal.
    fn new(
        config: DefenderConfig,
        durable: Option<(DurableConfig, Rc<dyn StateStore>)>,
    ) -> Result<Self, DefenseError> {
        config.validate()?;
        let monitor = Rc::new(JgrMonitor::new(
            config.record_threshold,
            config.trigger_threshold,
        )?);
        let durable = durable.map(|(config, store)| {
            let journal = Rc::new(RefCell::new(Journal::detached(store.clone())));
            monitor.attach_journal(journal.clone());
            RefCell::new(Durable {
                supervisor: Supervisor::new(config.supervisor),
                config,
                store,
                journal,
                stats: RecoveryStats::default(),
            })
        });
        Ok(Self {
            monitor,
            config,
            last_pass: RefCell::default(),
            durable,
        })
    }

    /// Returns `Err(point)` when a durable defender's process dies at
    /// `point`; a plain defender never draws from the crash channel.
    fn crash_if(&self, system: &System, point: CrashPoint) -> Result<(), CrashPoint> {
        if self.durable.is_some() && system.faults().crash_at(point) {
            return Err(point);
        }
        Ok(())
    }

    /// The shared monitor.
    pub fn monitor(&self) -> &Rc<JgrMonitor> {
        &self.monitor
    }

    /// The active configuration.
    pub fn config(&self) -> &DefenderConfig {
        &self.config
    }

    /// Forces a checkpoint now (benchmarks); a no-op for a plain
    /// defender.
    pub fn checkpoint_now(&self, system: &System) {
        if let Some(d) = &self.durable {
            self.write_checkpoint(&mut d.borrow_mut(), system, 0);
        }
    }

    /// Lifetime crash and recovery counters.
    pub fn stats(&self) -> RecoveryStats {
        self.durable
            .as_ref()
            .map(|d| d.borrow().stats)
            .unwrap_or_default()
    }

    /// The restart policy's state, for a durable defender.
    pub fn supervisor(&self) -> Option<Supervisor> {
        self.durable.as_ref().map(|d| d.borrow().supervisor.clone())
    }

    /// Whether the defender process is alive: false once a durable
    /// defender's supervisor has given up.
    pub fn is_running(&self) -> bool {
        !self.stats().gave_up
    }

    /// Runs one scoring pass against the victim's current recording
    /// without killing anything (used by the Figure 8/9 experiments).
    /// Returns `None` when nothing is recorded for the victim.
    pub fn score_only(
        &self,
        system: &System,
        victim: Pid,
        delta: SimDuration,
    ) -> Option<ScoreReport> {
        let mut adds = self.monitor.add_times(victim);
        if adds.is_empty() {
            return None;
        }
        adds.sort_unstable();
        let since = self.monitor.recording_since(victim)?;
        let window = *self.config.windows.last()?;
        let (ipc, _coverage) = self.collect_ipc(system, victim, since);
        let params = ScoreParams {
            delta,
            window,
            bin: self.config.bin,
        };
        Some(segment_tree_scores(&ipc, &adds, params))
    }

    /// Checks for alarms and, when one is raised, runs detection and
    /// recovery: score apps by Algorithm 1 over escalating windows, then
    /// kill top-ranked apps until the victim's JGR table is back to
    /// normal. Advances the virtual clock by the modeled computation
    /// time.
    ///
    /// Under fault injection the pass degrades instead of failing:
    ///
    /// 1. low IPC-log coverage (sequence-number gaps) switches scoring to
    ///    the coarse per-UID call-count ranking;
    /// 2. unsorted JGR timestamps are sorted before scoring;
    /// 3. failed kills are retried with exponential backoff;
    /// 4. a victim that finished a pass is left alone for
    ///    [`DefenderConfig::cooldown`] (alarm hysteresis);
    /// 5. whatever reduced confidence is reported in
    ///    [`DetectionOutcome::Degraded`].
    ///
    /// A durable defender also journals the decision and checkpoints. If
    /// the crash channel kills it mid-pass, the poll returns `None` (the
    /// outcome died with the process) after the supervised restart and
    /// recovery; once the supervisor gives up, every poll returns `None`.
    pub fn poll(&self, system: &mut System) -> Option<DetectionOutcome> {
        let Some(durable) = &self.durable else {
            return self.pass(system).ok().flatten();
        };
        let d = &mut *durable.borrow_mut();
        if d.stats.gave_up {
            return None;
        }
        self.commit(d, system).unwrap_or_else(|_| {
            self.crash(d, system);
            None
        })
    }

    /// Runs a pass, journals its decision and checkpoints when due. Each
    /// step is a crash boundary; a tick that passes them all is healthy.
    fn commit(
        &self,
        d: &mut Durable,
        system: &mut System,
    ) -> Result<Option<DetectionOutcome>, CrashPoint> {
        let outcome = self.pass(system)?;
        if let Some(outcome) = &outcome {
            // The decision append is itself a kill boundary: the process
            // can die with this very write in flight.
            self.crash_if(system, CrashPoint::JournalAppend)?;
            d.journal.borrow_mut().append(&JournalRecord::Decision {
                victim: outcome.victim,
                completed_at: system.now(),
                killed: outcome.killed.clone(),
            });
        }
        if outcome.is_some()
            || d.journal.borrow().records_since_compaction() >= d.config.checkpoint_interval
        {
            self.crash_if(system, CrashPoint::Checkpoint)?;
            self.write_checkpoint(d, system, 0);
        }
        d.supervisor.on_healthy();
        Ok(outcome)
    }

    /// One detection + recovery pass. When the crash channel fires, the
    /// pass stops dead at that [`CrashPoint`]: whatever kills and clock
    /// advances already happened stay happened, the monitor is *not*
    /// reset, the driver log is *not* pruned, and no outcome is produced
    /// — exactly the state a real process leaves behind when it is
    /// SIGKILLed mid-pass.
    fn pass(&self, system: &mut System) -> Result<Option<DetectionOutcome>, CrashPoint> {
        let now = system.now();
        let Some(victim) = self.monitor.alarmed_pids().into_iter().find(|pid| {
            self.last_pass
                .borrow()
                .get(pid)
                .is_none_or(|&last| now.saturating_since(last) >= self.config.cooldown)
        }) else {
            return Ok(None);
        };
        self.crash_if(system, CrashPoint::PollStart)?;
        let detected_at = now;
        let mut causes: Vec<DegradationCause> = Vec::new();

        let mut adds = self.monitor.add_times(victim);
        // Nothing recorded, or (the ground-truth cross-check) a dead
        // victim: nothing to recover.
        let since = match self.monitor.recording_since(victim) {
            Some(t) if !adds.is_empty() && system.jgr_count(victim).is_some() => t,
            _ => {
                self.monitor.reset(victim);
                return Ok(None);
            }
        };
        if !adds.windows(2).all(|w| w[0] <= w[1]) {
            adds.sort_unstable();
            causes.push(DegradationCause::UnsortedJgrTimestamps);
        }
        let (ipc, coverage) = self.collect_ipc(system, victim, since);

        let mut rounds = 0usize;
        let mut pairs_processed = 0u64;
        let mut records_scanned = 0u64;
        let mut response_us = 0u64;
        let scoring;
        let report;
        if coverage < self.config.coverage_floor {
            // Correlation watchdog: too many records are missing for the
            // timing histogram to mean anything — Algorithm 1 would score
            // whichever app happened to keep its records. Fall back to
            // volume ranking (the §V-A strawman: crude, but it degrades
            // predictably and we *say so*).
            causes.push(DegradationCause::LowIpcCoverage {
                observed: coverage,
                floor: self.config.coverage_floor,
            });
            scoring = ScoringKind::CallCount;
            rounds = 1;
            let r = call_count_scores(&ipc);
            records_scanned = r.records_scanned;
            // One linear pass over the log; no pair matching, no
            // histogram.
            response_us += r.records_scanned;
            report = r;
        } else {
            scoring = ScoringKind::SegmentTree;
            // Escalating-window correlation.
            let mut last = None;
            for window in &self.config.windows {
                rounds += 1;
                let r = segment_tree_scores(
                    &ipc,
                    &adds,
                    ScoreParams {
                        delta: self.config.delta,
                        window: *window,
                        bin: self.config.bin,
                    },
                );
                pairs_processed += r.pairs_processed;
                records_scanned += r.records_scanned;
                // Modeled on-device cost of this round. The dominant term is
                // the per-add candidate scan, linear in the correlation window
                // (each JGR add searches `window` worth of the IPC log), with
                // smaller terms for log parsing and histogram updates. With
                // the paper's 8000-add recording span, the first window costs
                // ≈0.5 s; escalation doubles the window each round, which is
                // how the midi/sip/print trio lands above one second and
                // `registerDeviceServer` near 3.6 s (§V-D.1).
                let window_factor = (window.as_micros()).max(1) as f64
                    / self.config.windows[0].as_micros().max(1) as f64;
                response_us += (adds.len() as f64 * 62.0 * window_factor) as u64
                    + r.records_scanned * 3
                    + r.pairs_processed * 2;
                let confident = r
                    .top()
                    .is_some_and(|t| t.score as f64 >= self.config.confidence * adds.len() as f64);
                last = Some(r);
                if confident {
                    break;
                }
            }
            let Some(last) = last else {
                return Ok(None);
            };
            report = last;
        }
        // The scoring cost lands on the clock before recovery begins, so
        // kill timestamps (and any respawns) happen after the analysis
        // delay — same ordering the paper's on-device defender has.
        system
            .clock()
            .advance(SimDuration::from_micros(response_us));
        self.crash_if(system, CrashPoint::PostScoring)?;

        // Recovery: kill by rank until the table is back to normal, with
        // bounded retry-with-backoff when a kill fails.
        let mut killed = Vec::new();
        'candidates: for s in &report.scores {
            if killed.len() >= self.config.max_kills || s.score == 0 || !s.uid.is_app() {
                continue;
            }
            match system.jgr_count(victim) {
                Some(count) if count >= self.config.normal_level => {
                    self.crash_if(system, CrashPoint::Kill)?;
                    let mut attempts = 0u32;
                    loop {
                        attempts += 1;
                        match system.kill_app(s.uid) {
                            KillOutcome::Killed | KillOutcome::Respawned => {
                                // am force-stop costs a few tens of ms.
                                let cost = SimDuration::from_millis(30);
                                system.clock().advance(cost);
                                response_us += cost.as_micros();
                                killed.push(s.uid);
                                break;
                            }
                            KillOutcome::NotRunning => break,
                            KillOutcome::Failed => {
                                if attempts > self.config.kill_retries {
                                    causes.push(DegradationCause::KillFailed {
                                        uid: s.uid,
                                        attempts,
                                    });
                                    continue 'candidates;
                                }
                                // Exponential backoff before the retry.
                                let backoff =
                                    self.config.kill_backoff * (1u64 << (attempts - 1).min(16));
                                system.clock().advance(backoff);
                                response_us += backoff.as_micros();
                            }
                        }
                    }
                }
                _ => break,
            }
        }
        let victim_jgr_after = system.jgr_count(victim);
        if let Some(remaining) = victim_jgr_after {
            if remaining >= self.config.normal_level {
                causes.push(DegradationCause::RecoveryIncomplete { remaining });
            }
        }
        let response_delay = SimDuration::from_micros(response_us);
        self.close_pass(victim, system.now());
        // Bound the proc-file log: records older than the recovered
        // window are useless now.
        system.driver_mut().prune_log(since);
        let report = DetectionReport {
            victim,
            detected_at,
            scoring,
            coverage,
            scores: report.scores,
            killed,
            rounds,
            pairs_processed,
            records_scanned,
            response_delay,
            victim_jgr_after,
        };
        Ok(Some(if causes.is_empty() {
            DetectionOutcome::Full(report)
        } else {
            DetectionOutcome::Degraded { report, causes }
        }))
    }

    /// The state transition of a completed pass, live or replayed from a
    /// journaled decision: clear the victim's watch and stamp its
    /// cooldown.
    fn close_pass(&self, victim: Pid, completed_at: SimTime) {
        self.monitor.reset(victim);
        self.last_pass.borrow_mut().insert(victim, completed_at);
    }

    /// The defender process dies; the supervisor decides what happens
    /// next.
    fn crash(&self, d: &mut Durable, system: &mut System) {
        d.stats.crashes += 1;
        // The write in flight when the process died: a torn tail that
        // reopen must truncate. Every crash exercises that path.
        d.journal.borrow_mut().append_torn_frame();
        // The dead process's observer registrations die with it.
        system.clear_jgr_observers();
        let Some(backoff) = d.supervisor.on_crash() else {
            d.stats.gave_up = true;
            return;
        };
        system.clock().advance(backoff);
        d.stats.recovery_delay_us += backoff.as_micros();
        d.stats.restarts += 1;
        if self.recover(d, system).is_err() {
            d.stats.store_errors += 1;
            d.stats.gave_up = true;
        }
    }

    /// Rebuilds the monitor and cooldown state from the store: newest
    /// valid checkpoint (if any) plus a replay of the journal suffix.
    fn recover(&self, d: &mut Durable, system: &mut System) -> Result<(), PersistError> {
        let fingerprint = config_fingerprint(&self.config);
        let cp = match d.store.load_checkpoint() {
            Ok(Some(bytes)) => match decode_checkpoint(&bytes) {
                Ok(cp) if cp.config_fingerprint == fingerprint => Some(cp),
                Ok(_) | Err(_) => {
                    // Stale schema, bit rot, or a config change: the
                    // checkpoint is untrustworthy. Journal-only recovery.
                    d.stats.checkpoints_rejected += 1;
                    None
                }
            },
            Ok(None) => None,
            Err(_) => {
                d.stats.store_errors += 1;
                None
            }
        };
        let (journal, report) = Journal::reopen(d.store.clone())?;
        d.stats.truncated_bytes += report.truncated_bytes;
        let (snapshot, last_pass, start_seq) = cp
            .map(|cp| (cp.monitor, cp.last_pass, cp.journal_seq))
            .unwrap_or_default();
        self.monitor.restore(&snapshot);
        *self.last_pass.borrow_mut() = last_pass.into_iter().collect();
        let mut replayed = 0u64;
        for (_, record) in report.records.iter().filter(|(seq, _)| *seq >= start_seq) {
            replayed += 1;
            match record {
                JournalRecord::Event {
                    pid,
                    kind,
                    at,
                    logged_at,
                    table_size,
                } => self
                    .monitor
                    .replay_event(*pid, *kind, *at, *logged_at, *table_size),
                JournalRecord::Decision {
                    victim,
                    completed_at,
                    ..
                } => self.close_pass(*victim, *completed_at),
            }
        }
        d.stats.replayed_records += replayed;
        let replay_cost = d.config.replay_cost * replayed;
        system.clock().advance(replay_cost);
        d.stats.recovery_delay_us += replay_cost.as_micros();
        self.monitor.attach(system);
        *d.journal.borrow_mut() = journal;
        // Checkpoint the rebuilt state and rebase the journal past
        // everything applied, so the *next* crash replays from here.
        self.write_checkpoint(d, system, start_seq);
        Ok(())
    }

    /// Writes a checkpoint of the current state and compacts the journal
    /// behind it. `seq_floor` keeps the sequence monotone when the
    /// journal itself had to be reset (bad header) while a checkpoint
    /// from a later epoch survived.
    fn write_checkpoint(&self, d: &mut Durable, system: &System, seq_floor: u64) {
        let journal_seq = d.journal.borrow().next_seq().max(seq_floor);
        let cp = DefenderCheckpoint {
            journal_seq,
            taken_at: system.now(),
            config_fingerprint: config_fingerprint(&self.config),
            monitor: self.monitor.snapshot(),
            last_pass: self
                .last_pass
                .borrow()
                .iter()
                .map(|(&p, &t)| (p, t))
                .collect(),
        };
        match d.store.store_checkpoint(&encode_checkpoint(&cp)) {
            Ok(()) => {
                d.stats.checkpoints_written += 1;
                d.journal.borrow_mut().compact(journal_seq);
            }
            // Without a durable checkpoint the journal stays the only
            // truth: do NOT compact.
            Err(_) => d.stats.store_errors += 1,
        }
    }

    /// Groups the driver's transaction log into the per-app, per-IPC-type
    /// time series Algorithm 1 consumes, deduplicating records by driver
    /// sequence number (duplicate faults must not double-vote). Only
    /// app-uid traffic addressed to the victim within the recording
    /// horizon is scored; coverage is estimated over *all* horizon
    /// records, because drops do not discriminate by target.
    fn collect_ipc(
        &self,
        system: &System,
        victim: Pid,
        since: SimTime,
    ) -> (BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>, f64) {
        let window = self
            .config
            .windows
            .last()
            .copied()
            .unwrap_or(SimDuration::ZERO);
        let horizon = SimTime::from_micros(since.as_micros().saturating_sub(window.as_micros()));
        let mut out: BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>> = BTreeMap::new();
        let mut seen = BTreeSet::new();
        let mut seq_lo = u64::MAX;
        let mut seq_hi = 0u64;
        for record in system.driver().log_since(horizon) {
            seq_lo = seq_lo.min(record.seq);
            seq_hi = seq_hi.max(record.seq);
            if !seen.insert(record.seq) {
                continue;
            }
            if record.to_pid != victim || !record.from_uid.is_app() {
                continue;
            }
            let key = if self.config.classify_paths {
                record.ipc_type_with_path()
            } else {
                record.ipc_type()
            };
            out.entry(record.from_uid)
                .or_default()
                .entry(key)
                .or_default()
                .push(record.at);
        }
        // Delay/reorder faults can hand the series back out of order;
        // the scorer's pairing assumes sorted times.
        for types in out.values_mut() {
            for series in types.values_mut() {
                if !series.windows(2).all(|w| w[0] <= w[1]) {
                    series.sort_unstable();
                }
            }
        }
        let coverage = if seen.is_empty() {
            1.0
        } else {
            seen.len() as f64 / (seq_hi - seq_lo + 1) as f64
        };
        (out, coverage)
    }
}

/// The degraded ranking: raw per-UID call volume toward the victim (the
/// §V-A strawman, reused deliberately — when timing data is untrustworthy
/// the honest coarse signal beats a precise hallucination).
fn call_count_scores(ipc: &BTreeMap<Uid, BTreeMap<String, Vec<SimTime>>>) -> ScoreReport {
    let mut records_scanned = 0u64;
    let mut scores: Vec<UidScore> = ipc
        .iter()
        .map(|(&uid, types)| {
            let per_type: Vec<(String, u64)> = types
                .iter()
                .map(|(t, calls)| (t.clone(), calls.len() as u64))
                .collect();
            let score: u64 = per_type.iter().map(|(_, n)| n).sum();
            records_scanned += score;
            UidScore {
                uid,
                score,
                per_type,
            }
        })
        .collect();
    scores.sort_by(|a, b| b.score.cmp(&a.score).then(a.uid.cmp(&b.uid)));
    ScoreReport {
        scores,
        pairs_processed: 0,
        records_scanned,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::MemoryStore;
    use jgre_framework::{CallOptions, SystemConfig};
    use jgre_sim::{FaultIntensity, FaultKind, FaultPlan};

    fn defended_system(cap: usize) -> (System, JgreDefender) {
        defended_system_with(cap, FaultPlan::none(), DefenderConfig::default())
    }

    fn defended_system_with(
        cap: usize,
        faults: FaultPlan,
        base: DefenderConfig,
    ) -> (System, JgreDefender) {
        let mut system = System::boot_with(SystemConfig {
            seed: 7,
            jgr_capacity: Some(cap),
            faults,
            ..SystemConfig::default()
        });
        let config = DefenderConfig {
            record_threshold: cap / 12,
            trigger_threshold: cap / 4,
            normal_level: cap / 10,
            ..base
        };
        let defender =
            JgreDefender::install(&mut system, config).expect("defender config is valid");
        (system, defender)
    }

    fn attack_until_detection(
        system: &mut System,
        defender: &JgreDefender,
        evil: Uid,
        budget: usize,
    ) -> DetectionOutcome {
        for _ in 0..budget {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            if let Some(d) = defender.poll(system) {
                return d;
            }
        }
        panic!("attack must trip the alarm within {budget} calls");
    }

    #[test]
    fn config_validation_rejects_nonsense() {
        let mut system = System::boot(7);
        let bad = DefenderConfig {
            windows: vec![],
            ..DefenderConfig::default()
        };
        assert_eq!(
            JgreDefender::install(&mut system, bad).err(),
            Some(DefenseError::NoWindows)
        );
        let bad = DefenderConfig {
            coverage_floor: 1.5,
            ..DefenderConfig::default()
        };
        assert!(matches!(
            JgreDefender::install(&mut system, bad).err(),
            Some(DefenseError::InvalidCoverageFloor(_))
        ));
    }

    #[test]
    fn detection_render_is_informative() {
        let (mut system, defender) = defended_system(4_000);
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000);
        let text = d.render();
        assert!(text.contains("correlation round"), "{text}");
        assert!(text.contains("killed [Uid(10000)]"), "{text}");
        assert!(!text.contains("DEGRADED"), "{text}");
        assert!(!text.contains("  "), "no double space: {text}");
    }

    #[test]
    fn quiet_system_never_alarms() {
        let (mut system, defender) = defended_system(4_000);
        let app = system.install_app("com.quiet", []);
        for _ in 0..20 {
            system
                .call_service(
                    app,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
        }
        assert!(defender.poll(&mut system).is_none());
    }

    #[test]
    fn single_attacker_detected_and_killed_before_exhaustion() {
        let (mut system, defender) = defended_system(4_000);
        let evil = system.install_app("com.evil", []);
        let mut detection = None;
        for _ in 0..4_000 {
            let o = system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            assert!(!o.host_aborted, "defense must fire before exhaustion");
            if let Some(d) = defender.poll(&mut system) {
                detection = Some(d);
                break;
            }
        }
        let d = detection.expect("attack must trip the alarm");
        assert!(!d.is_degraded(), "pristine run must be full confidence");
        assert_eq!(d.scoring, ScoringKind::SegmentTree);
        assert!((d.coverage - 1.0).abs() < 1e-9, "pristine log is complete");
        assert_eq!(d.killed, vec![evil]);
        assert_eq!(system.soft_reboots(), 0);
        assert!(d.victim_jgr_after.unwrap() < defender.config().normal_level);
        assert_eq!(d.rounds, 1, "typical interface resolves in one window");
        assert!(d.scores[0].uid == evil);
        // The attacker's process is gone; calling again relaunches it
        // from scratch (fresh process).
        assert!(system.pid_of(evil).is_none());
    }

    #[test]
    fn benign_heavy_user_not_killed() {
        let (mut system, defender) = defended_system(4_000);
        let evil = system.install_app("com.evil", []);
        let benign = system.install_app("com.busy", []);
        // The benign app hammers an innocent interface (more calls than
        // the attacker!), while the attacker leaks.
        let spec = system.spec().clone();
        let innocent = spec
            .service("audio")
            .unwrap()
            .methods
            .iter()
            .find(|m| {
                matches!(m.jgr, jgre_corpus::spec::JgrBehavior::NoJgr) && m.permission.is_none()
            })
            .unwrap()
            .name
            .clone();
        let mut detection = None;
        let mut think = 0x9E37_79B9u64;
        for i in 0..6_000 {
            system
                .call_service(benign, "audio", &innocent, CallOptions::default())
                .unwrap();
            // User think time decorrelates the benign stream from the
            // attacker's JGR adds (real apps do not run in lockstep with
            // the Binder loop).
            think = think.wrapping_mul(6364136223846793005).wrapping_add(1);
            let gap_ms = 3 + (think >> 33) % 12;
            system
                .clock()
                .advance(jgre_sim::SimDuration::from_millis(gap_ms));
            if i % 2 == 0 {
                system
                    .call_service(evil, "audio", "startWatchingRoutes", CallOptions::default())
                    .unwrap();
            }
            if let Some(d) = defender.poll(&mut system) {
                detection = Some(d);
                break;
            }
        }
        let d = detection.expect("attack must trip the alarm");
        assert_eq!(d.killed, vec![evil], "only the attacker dies");
    }

    #[test]
    fn slow_delay_interface_needs_more_windows() {
        // Real capacity and the paper's thresholds: the 4000→12000
        // recording window sits where registerDeviceServer's observed
        // IPC→JGR latency (≈9.5–15.4 ms) exceeds the first correlation
        // window, forcing escalation — the §V-D.1 slow case.
        let mut system = System::boot_with(SystemConfig {
            seed: 7,
            ..SystemConfig::default()
        });
        let defender = JgreDefender::install(&mut system, DefenderConfig::default())
            .expect("defender config is valid");
        let evil = system.install_app("com.evil", []);
        let mut detection = None;
        for _ in 0..6_000 {
            let o = system
                .call_service(evil, "midi", "registerDeviceServer", CallOptions::default())
                .unwrap();
            assert!(!o.host_aborted);
            if let Some(d) = defender.poll(&mut system) {
                detection = Some(d);
                break;
            }
        }
        let d = detection.expect("alarm");
        assert!(
            d.rounds > 1,
            "12 ms Delay exceeds the first window, got {} round(s)",
            d.rounds
        );
        assert_eq!(d.killed, vec![evil]);
        // A fast interface on the same configuration resolves in round 1
        // and therefore faster.
        let evil2 = system.install_app("com.evil2", []);
        let mut fast = None;
        for _ in 0..16_000 {
            system
                .call_service(
                    evil2,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            if let Some(d) = defender.poll(&mut system) {
                fast = Some(d);
                break;
            }
        }
        let fast = fast.expect("second alarm");
        assert_eq!(fast.rounds, 1);
        assert!(fast.response_delay < d.response_delay);
    }

    #[test]
    fn severe_record_loss_falls_back_to_call_counts() {
        let (mut system, defender) = defended_system_with(
            4_000,
            FaultPlan::single(FaultKind::IpcDrop, FaultIntensity::Severe),
            DefenderConfig::default(),
        );
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000);
        assert!(d.is_degraded());
        assert_eq!(d.scoring, ScoringKind::CallCount);
        assert!(
            d.coverage < defender.config().coverage_floor,
            "{}",
            d.coverage
        );
        assert!(d
            .causes()
            .iter()
            .any(|c| matches!(c, DegradationCause::LowIpcCoverage { .. })));
        // The sole heavy caller still tops the coarse ranking.
        assert_eq!(d.killed, vec![evil]);
        assert!(d.render().contains("DEGRADED"), "{}", d.render());
    }

    #[test]
    fn unkillable_app_reported_not_looped_forever() {
        let plan = FaultPlan {
            kill_fail: 1.0,
            ..FaultPlan::none()
        };
        let (mut system, defender) = defended_system_with(4_000, plan, DefenderConfig::default());
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000);
        assert!(d.is_degraded());
        assert!(d.killed.is_empty(), "nothing actually died");
        let retries = defender.config().kill_retries;
        assert!(d.causes().iter().any(|c| matches!(
            c,
            DegradationCause::KillFailed { uid, attempts }
                if *uid == evil && *attempts == retries + 1
        )));
        assert!(d
            .causes()
            .iter()
            .any(|c| matches!(c, DegradationCause::RecoveryIncomplete { .. })));
        // Retry backoff is part of the modeled response time.
        assert!(d.response_delay >= SimDuration::from_millis(70));
    }

    #[test]
    fn one_transient_kill_failure_recovers_cleanly() {
        // The issue's headline moderate case: the first force-stop fails,
        // the retry lands, recovery completes.
        let plan = FaultPlan {
            kill_fail: 1.0,
            kill_fail_budget: 1,
            ..FaultPlan::none()
        };
        let (mut system, defender) = defended_system_with(4_000, plan, DefenderConfig::default());
        let evil = system.install_app("com.evil", []);
        let d = attack_until_detection(&mut system, &defender, evil, 8_000);
        assert_eq!(d.killed, vec![evil]);
        assert!(
            d.victim_jgr_after.unwrap() < defender.config().normal_level,
            "table drains once the retry lands"
        );
        assert!(!d.is_degraded(), "a recovered retry is not a degradation");
    }

    #[test]
    fn cooldown_suppresses_back_to_back_passes() {
        let plan = FaultPlan {
            kill_fail: 1.0,
            ..FaultPlan::none()
        };
        let config = DefenderConfig {
            cooldown: SimDuration::from_secs(3_600),
            ..DefenderConfig::default()
        };
        let (mut system, defender) = defended_system_with(4_000, plan, config);
        let evil = system.install_app("com.evil", []);
        let first = attack_until_detection(&mut system, &defender, evil, 8_000);
        assert!(first.killed.is_empty(), "the app is unkillable");
        // The table is still saturated; the very next event re-raises the
        // alarm, but the victim is in cooldown: no second kill storm.
        for _ in 0..50 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            assert!(
                defender.poll(&mut system).is_none(),
                "cooldown must suppress an immediate second pass"
            );
        }
    }

    const CAP: usize = 4_000;

    fn scaled_config() -> DefenderConfig {
        DefenderConfig {
            record_threshold: CAP / 12,
            trigger_threshold: CAP / 4,
            normal_level: CAP / 10,
            ..DefenderConfig::default()
        }
    }

    fn durable_config() -> DurableConfig {
        DurableConfig {
            checkpoint_interval: 64,
            ..DurableConfig::default()
        }
    }

    fn boot_capped(faults: FaultPlan) -> System {
        System::boot_with(SystemConfig {
            seed: 7,
            jgr_capacity: Some(CAP),
            faults,
            ..SystemConfig::default()
        })
    }

    fn attack_until_durable_detection(
        system: &mut System,
        defender: &JgreDefender,
        evil: Uid,
        budget: usize,
    ) -> Option<DetectionOutcome> {
        for _ in 0..budget {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            if let Some(d) = defender.poll(system) {
                return Some(d);
            }
            // A missing pid means the kill landed but the outcome died
            // with the process.
            system.pid_of(evil)?;
        }
        panic!("attack must trip the alarm within {budget} calls");
    }

    #[test]
    fn no_crash_channel_means_no_crashes_and_a_clean_detection() {
        let mut system = boot_capped(FaultPlan::none());
        let store = Rc::new(MemoryStore::new());
        let defender =
            JgreDefender::install_durable(&mut system, scaled_config(), durable_config(), store)
                .unwrap();
        let evil = system.install_app("com.evil", []);
        let d = attack_until_durable_detection(&mut system, &defender, evil, 8_000)
            .expect("no crash channel: the outcome is delivered");
        assert_eq!(d.killed, vec![evil]);
        let stats = defender.stats();
        assert_eq!(stats.crashes, 0);
        assert!(!stats.gave_up);
        assert!(stats.checkpoints_written >= 1, "decision checkpoint");
    }

    #[test]
    fn crash_at_poll_start_recovers_and_still_kills_the_attacker() {
        let plan = FaultPlan {
            crash: 1.0,
            crash_budget: 1,
            crash_point: Some(CrashPoint::PollStart),
            ..FaultPlan::none()
        };
        let mut system = boot_capped(plan);
        let store = Rc::new(MemoryStore::new());
        let defender =
            JgreDefender::install_durable(&mut system, scaled_config(), durable_config(), store)
                .unwrap();
        let evil = system.install_app("com.evil", []);
        attack_until_durable_detection(&mut system, &defender, evil, 8_000);
        assert!(system.pid_of(evil).is_none(), "attacker still dies");
        let stats = defender.stats();
        assert_eq!(stats.crashes, 1);
        assert_eq!(stats.restarts, 1);
        assert!(!stats.gave_up);
        assert!(stats.truncated_bytes > 0, "every crash leaves a torn tail");
        assert!(stats.recovery_delay_us > 0);
        assert!(defender.is_running());
    }

    #[test]
    fn zero_restart_budget_gives_up_permanently() {
        let plan = FaultPlan {
            crash: 1.0,
            crash_budget: 1,
            crash_point: Some(CrashPoint::PollStart),
            ..FaultPlan::none()
        };
        let mut system = boot_capped(plan);
        let store = Rc::new(MemoryStore::new());
        let durable = DurableConfig {
            supervisor: SupervisorConfig {
                max_restarts: 0,
                ..SupervisorConfig::default()
            },
            ..durable_config()
        };
        let defender =
            JgreDefender::install_durable(&mut system, scaled_config(), durable, store).unwrap();
        let evil = system.install_app("com.evil", []);
        for _ in 0..6_000 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            assert!(defender.poll(&mut system).is_none());
        }
        let stats = defender.stats();
        assert!(stats.gave_up);
        assert_eq!(stats.crashes, 1, "a dead defender cannot crash again");
        assert_eq!(stats.restarts, 0);
        assert!(!defender.is_running());
        assert!(system.pid_of(evil).is_some(), "nobody left to kill it");
    }

    #[test]
    fn resume_restores_monitor_state_across_a_host_restart() {
        let mut system = boot_capped(FaultPlan::none());
        let store = Rc::new(MemoryStore::new());
        let defender = JgreDefender::install_durable(
            &mut system,
            scaled_config(),
            durable_config(),
            store.clone(),
        )
        .unwrap();
        let evil = system.install_app("com.evil", []);
        // Push past the record threshold but stay below the trigger.
        for _ in 0..600 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            assert!(defender.poll(&mut system).is_none());
        }
        let live = defender.monitor().current_count(system.system_server_pid());
        assert!(live > 0);
        drop(defender);
        system.clear_jgr_observers();
        let resumed =
            JgreDefender::resume(&mut system, scaled_config(), durable_config(), store).unwrap();
        let recovered = resumed.monitor().current_count(system.system_server_pid());
        assert_eq!(recovered, live, "replay rebuilds the table size");
        // And the resumed defender still finishes the job.
        let d = attack_until_durable_detection(&mut system, &resumed, evil, 8_000);
        assert!(d.is_some() || system.pid_of(evil).is_none());
    }

    /// Journal records since the last compaction: the next crash's
    /// replay bound.
    fn journal_records(defender: &JgreDefender) -> u64 {
        let d = defender
            .durable
            .as_ref()
            .expect("durable defender")
            .borrow();
        let records = d.journal.borrow().records_since_compaction();
        records
    }

    #[test]
    fn periodic_checkpoints_bound_replay() {
        let mut system = boot_capped(FaultPlan::none());
        let store = Rc::new(MemoryStore::new());
        let interval = durable_config().checkpoint_interval;
        let defender = JgreDefender::install_durable(
            &mut system,
            scaled_config(),
            durable_config(),
            store.clone(),
        )
        .unwrap();
        let evil = system.install_app("com.evil", []);
        for _ in 0..600 {
            system
                .call_service(
                    evil,
                    "clipboard",
                    "addPrimaryClipChangedListener",
                    CallOptions::default(),
                )
                .unwrap();
            defender.poll(&mut system);
            assert!(
                journal_records(&defender) < interval + 8,
                "compaction keeps the journal near the interval"
            );
        }
        assert!(defender.stats().checkpoints_written > 1);
        drop(defender);
        system.clear_jgr_observers();
        let resumed =
            JgreDefender::resume(&mut system, scaled_config(), durable_config(), store).unwrap();
        assert!(
            resumed.stats().replayed_records <= interval + 8,
            "replay is bounded by the checkpoint interval, got {}",
            resumed.stats().replayed_records
        );
    }
}
