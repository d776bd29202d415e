//! A batteries-included device: framework + defense, with automatic
//! polling.
//!
//! The experiment runners poll the defender explicitly to measure it;
//! downstream users usually just want a device that defends itself. A
//! [`DefendedDevice`] polls after every dispatched call and accumulates
//! the detections.

use std::rc::Rc;

use jgre_attack::AttackVector;
use jgre_corpus::spec::AospSpec;
use jgre_defense::{DetectionOutcome, JgreDefender};
use jgre_framework::{CallOptions, CallOutcome, FrameworkError, System};
use jgre_sim::Uid;

use crate::ExperimentScale;

/// What one [`DefendedDevice::grind`] run produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grind {
    /// IPC calls that reached the victim.
    pub calls: u64,
    /// Whether the victim survived (no abort).
    pub victim_survived: bool,
    /// Whether the attacker was among the apps this run's detections
    /// killed.
    pub attacker_killed: bool,
    /// Virtual µs from attack start to the first alarm pickup.
    pub detection_time_us: Option<u64>,
    /// Virtual µs from attack start to victim abort.
    pub exhaustion_time_us: Option<u64>,
}

/// A [`System`] with the JGRE Defender installed and auto-polled.
///
/// # Example
///
/// ```
/// use jgre_core::{DefendedDevice, ExperimentScale};
/// use jgre_framework::CallOptions;
///
/// let mut device = DefendedDevice::boot(ExperimentScale::quick());
/// let mal = device.system_mut().install_app("com.evil", []);
/// // Grind a vulnerable interface; the device defends itself.
/// for _ in 0..10_000 {
///     let outcome = device
///         .call_service(mal, "clipboard", "addPrimaryClipChangedListener", CallOptions::default())
///         .unwrap();
///     assert!(!outcome.host_aborted);
///     if !device.detections().is_empty() {
///         break;
///     }
/// }
/// assert_eq!(device.detections().len(), 1);
/// assert_eq!(device.system().soft_reboots(), 0);
/// ```
#[derive(Debug)]
pub struct DefendedDevice {
    system: System,
    defender: JgreDefender,
    detections: Vec<DetectionOutcome>,
}

impl DefendedDevice {
    /// Boots a device at the given scale with the defense installed.
    pub fn boot(scale: ExperimentScale) -> Self {
        Self::boot_with_spec(scale, Rc::new(AospSpec::android_6_0_1()))
    }

    /// Boots a device from an already-synthesized (possibly shared) spec —
    /// the fleet engine's boot path, where thousands of devices per worker
    /// share one immutable Android image.
    pub fn boot_with_spec(scale: ExperimentScale, spec: Rc<AospSpec>) -> Self {
        let mut system = System::boot_with_spec(scale.system_config(), spec);
        let defender = JgreDefender::install(&mut system, scale.defender_config())
            .expect("scale presets produce a valid defender config");
        Self {
            system,
            defender,
            detections: Vec::new(),
        }
    }

    /// Re-boots this device in place for the next fleet run, reusing the
    /// shared spec and the detections allocation.
    ///
    /// After a reset the device is observationally identical to a fresh
    /// [`boot`](Self::boot) at the same scale: new system, new defender,
    /// empty detections, virtual clock back at the boot epoch. Nothing
    /// from the previous run — defender monitor state, driver log, JGR
    /// tables, installed apps — survives; the arena-reuse test in
    /// `crates/core/tests/device_reset.rs` pins that equivalence.
    pub fn reset(&mut self, scale: ExperimentScale) {
        let mut detections = std::mem::take(&mut self.detections);
        detections.clear();
        *self = Self {
            detections,
            ..Self::boot_with_spec(scale, self.system.spec_shared())
        };
    }

    /// Installs an attacker app for `vector` and grinds the vector until
    /// the first new detection, a victim abort, or `budget` calls — the
    /// defended-attack run behind §V-C, §V-D.1 and every fleet device.
    /// Its detections are the tail of [`detections`](Self::detections).
    ///
    /// # Panics
    ///
    /// Panics when a call fails for any reason other than the victim
    /// service being dead or gone (catalog vectors are always callable).
    pub fn grind(&mut self, vector: &AttackVector, budget: u64) -> Grind {
        let attacker = self.system.install_app(
            format!("com.malware.{}.{}", vector.service, vector.method),
            vector.permissions.iter().copied(),
        );
        let started = self.system.now();
        let seen = self.detections.len();
        let mut calls = 0u64;
        let mut exhaustion_time_us = None;
        for _ in 0..budget {
            let aborted = match self.call_service(
                attacker,
                &vector.service,
                &vector.method,
                vector.call_options(),
            ) {
                Ok(outcome) => {
                    calls += 1;
                    outcome.host_aborted
                }
                Err(FrameworkError::ServiceDead | FrameworkError::UnknownService(_)) => true,
                Err(e) => panic!("defended attack on {}: {e}", vector.label()),
            };
            if aborted {
                exhaustion_time_us = Some(self.system.now().saturating_since(started).as_micros());
                break;
            }
            if self.detections.len() > seen {
                break;
            }
        }
        let raised = &self.detections[seen..];
        Grind {
            calls,
            victim_survived: exhaustion_time_us.is_none(),
            attacker_killed: raised.iter().any(|d| d.killed.contains(&attacker)),
            detection_time_us: raised
                .first()
                .map(|d| d.detected_at.saturating_since(started).as_micros()),
            exhaustion_time_us,
        }
    }

    /// The underlying system.
    pub fn system(&self) -> &System {
        &self.system
    }

    /// Mutable access to the underlying system (app management, GC, …).
    pub fn system_mut(&mut self) -> &mut System {
        &mut self.system
    }

    /// The installed defender.
    pub fn defender(&self) -> &JgreDefender {
        &self.defender
    }

    /// Detections accumulated so far, in order.
    pub fn detections(&self) -> &[DetectionOutcome] {
        &self.detections
    }

    /// Dispatches one IPC call and lets the defender react to any alarm it
    /// raised.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameworkError`] from the dispatch; note that the
    /// caller itself may have been killed by an earlier detection, in
    /// which case the framework restarts its process transparently.
    pub fn call_service(
        &mut self,
        caller: Uid,
        service: &str,
        method: &str,
        options: CallOptions,
    ) -> Result<CallOutcome, FrameworkError> {
        let outcome = self.system.call_service(caller, service, method, options)?;
        self.poll();
        Ok(outcome)
    }

    /// Dispatches one raw Binder transaction (see
    /// [`System::transact_raw`]) and polls the defender, exactly as
    /// [`call_service`](Self::call_service) does — the entry point the
    /// fuzzer drives so detections accumulate under malformed traffic too.
    ///
    /// # Errors
    ///
    /// Propagates [`FrameworkError`] for bad addressing or permission
    /// denials; malformed parcels come back as typed rejected outcomes,
    /// not errors.
    pub fn transact_raw(
        &mut self,
        caller: Uid,
        service: &str,
        code: u32,
        parcel: &mut jgre_binder::Parcel,
    ) -> Result<CallOutcome, FrameworkError> {
        let outcome = self.system.transact_raw(caller, service, code, parcel)?;
        self.poll();
        Ok(outcome)
    }

    /// Lets the defender react to every alarm raised so far.
    fn poll(&mut self) {
        while let Some(detection) = self.defender.poll(&mut self.system) {
            self.detections.push(detection);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn device_survives_and_records_detections() {
        let mut device = DefendedDevice::boot(ExperimentScale::quick());
        let mal = device.system_mut().install_app("com.evil", []);
        let mut calls = 0u64;
        while device.detections().is_empty() {
            device
                .call_service(mal, "audio", "startWatchingRoutes", CallOptions::default())
                .expect("audio registered");
            calls += 1;
            assert!(calls < 50_000, "defense never fired");
        }
        let d = &device.detections()[0];
        assert_eq!(d.killed, vec![mal]);
        assert_eq!(device.system().soft_reboots(), 0);
        // The device keeps serving (the attacker's process restarts on the
        // next call, table near the floor).
        let benign = device.system_mut().install_app("com.fine", []);
        let o = device
            .call_service(
                benign,
                "clipboard",
                "addPrimaryClipChangedListener",
                CallOptions::default(),
            )
            .expect("still serving");
        assert!(o.status.is_completed());
    }

    #[test]
    fn quiet_device_accumulates_nothing() {
        let mut device = DefendedDevice::boot(ExperimentScale::quick());
        let app = device.system_mut().install_app("com.quiet", []);
        for _ in 0..50 {
            device
                .call_service(app, "clipboard", "getState", CallOptions::default())
                .expect("innocent method");
        }
        assert!(device.detections().is_empty());
    }
}
