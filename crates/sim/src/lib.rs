//! Deterministic discrete-event simulation kernel for the JGRE reproduction.
//!
//! Everything in this workspace that needs a notion of *time*, *randomness*,
//! or *identity* goes through this crate so that whole-system runs are
//! reproducible from a single seed.
//!
//! The kernel is deliberately small:
//!
//! * [`SimTime`] / [`SimDuration`] — microsecond-resolution virtual time.
//! * [`SimClock`] — a monotonically advancing clock shared by reference.
//! * [`EventQueue`] — a stable (FIFO-on-tie) priority queue of timed events.
//! * [`SimRng`] — a seeded RNG with convenience samplers.
//! * [`Pid`], [`Uid`], [`Tid`] — process / user / thread identities used by
//!   the Binder, framework, and defense crates.
//! * [`TraceSink`] — an in-memory, bounded trace of labelled events used by
//!   experiments for post-hoc analysis.
//! * [`FaultLayer`] — a seeded, deterministic fault injector used by the
//!   chaos experiments to break the defender's assumptions on purpose.
//! * [`framed`] — the one framed-record codec (magic + version header,
//!   length-prefixed FNV-1a-checksummed frames) behind the defender's
//!   journal, its checkpoints and the serve stream.
//! * [`round_robin`] — the one worker scheduler: item indices dealt
//!   round-robin to scoped threads, inline when one worker suffices.
//!
//! # Example
//!
//! ```
//! use jgre_sim::{EventQueue, SimDuration, SimTime};
//!
//! let mut queue = EventQueue::new();
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(5), "b");
//! queue.schedule(SimTime::ZERO + SimDuration::from_millis(1), "a");
//! let (t, e) = queue.pop().unwrap();
//! assert_eq!(e, "a");
//! assert_eq!(t.as_micros(), 1_000);
//! ```

#![deny(missing_docs)]

mod clock;
mod event;
mod fault;
pub mod framed;
mod ids;
mod rng;
mod sched;
pub mod source;
mod stats;
mod trace;

pub use clock::{SimClock, SimDuration, SimTime};
pub use event::EventQueue;
pub use fault::{
    apply_skew, CrashPoint, FaultIntensity, FaultKind, FaultLayer, FaultPlan, FaultStats,
    IpcLogAction, JgrLogAction,
};
pub use ids::{Pid, Tid, Uid};
pub use rng::{stream_seed, SimRng};
pub use sched::round_robin;
pub use stats::{Histogram, Samples, Summary, HISTOGRAM_BINS};
pub use trace::{TraceEvent, TraceSink};
