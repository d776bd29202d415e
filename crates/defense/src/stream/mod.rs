//! The streaming defender: framed event protocol, bounded ingestion,
//! and the incremental sliding-window correlation service.
//!
//! Batch detection rebuilds Algorithm 1's histogram from the whole IPC
//! log on every poll; this module runs the same algorithm *online*. The
//! pipeline is three layers, each independently testable:
//!
//! 1. **Protocol** — Binder-log and JGR-add events carried in
//!    [`jgre_sim::framed`] frames (length-prefixed, FNV-checksummed,
//!    versioned), with an incremental decoder that treats torn tails as
//!    pending and corruption as typed [`Reject`](jgre_sim::framed::Reject)s.
//! 2. **Ingestion** — a bounded ring between producer and scorer whose
//!    backpressure is computed in virtual time, making overload drops a
//!    deterministic, per-reason-accounted measurement.
//! 3. **Service** — [`StreamDefender`] feeds accepted events into the
//!    [`IncrementalScorer`](crate::IncrementalScorer), emits
//!    [`StreamVerdict`]s at trigger boundaries, journals the window
//!    through a [`StateStore`](crate::StateStore), and renders a
//!    byte-reproducible [`ServeReport`].
//!
//! The differential guarantee — streaming verdicts equal batch
//! [`segment_tree_scores`](crate::segment_tree_scores) verdicts on the
//! same event sequence — holds by construction: both paths execute the
//! identical incremental correlator.

mod frame;
mod ring;
mod service;

pub use frame::{
    decode_stream, encode_event, encode_stream, stream_header, FrameDecoder, StreamEvent,
    MAX_FRAME_LEN, STREAM_MAGIC, STREAM_SCHEMA_VERSION,
};
pub use ring::{BoundedRing, IngestStats};
pub use service::{
    recover_events, run_serve, run_serve_with_store, LatencySummary, RecoveredStream, ServeConfig,
    ServeReport, StreamDefender, StreamVerdict,
};
