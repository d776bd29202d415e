//! `serve`: the streaming defender, fed by the benchmark.
//!
//! Set-up encodes the seeded `EventSource` stream into framed chunks. Its
//! virtual rate stays below the ring's modelled capacity, so no event is
//! dropped: dropped events cost almost nothing, and a stream that
//! overruns the ring would report a flattering rate.
//!
//! * Phase A drains the chunks closed-loop through
//!   `StreamDefender::ingest_bytes`; it gives the events/s figure.
//! * Phase B replays them open-loop at [`OPEN_LOOP_EVENTS_PER_S`], about a
//!   third of the drain rate; each chunk's lag runs from its due time.
//!
//! The two phases alternate for the whole run. Every pass ends with
//! `finish()`, and the journal is read back with `recover_events`.

use std::cell::Cell;
use std::time::Instant;

use jgre_core::defense::stream::{
    encode_event, recover_events, run_serve, stream_header, FrameDecoder, ServeConfig, ServeReport,
    StreamDefender, StreamEvent,
};
use jgre_core::defense::{IncrementalScorer, MemoryStore, StateStore};
use jgre_core::sim::source::{EventSource, SourceConfig, SourceEventKind};
use jgre_core::sim::{stream_seed, SimDuration};

use crate::openloop::{replay, Lateness};
use crate::report::{EndToEnd, RunResult};
use crate::stats::{median, sustained, sustained_median, tail, typical_tail};
use crate::trace::{timed, Tracer};
use crate::{set_up, Size};

/// Wall-clock rate of the open-loop replay (phase B), events/s.
pub const OPEN_LOOP_EVENTS_PER_S: u64 = 100_000;
/// Virtual Binder-call rate of the synthesized stream, calls/s; with the
/// adds they trigger, about 64k events/s against the ring's 125k/s.
const SOURCE_CALLS_PER_S: u64 = 50_000;
/// Frames per chunk handed to the decoder.
const CHUNK_FRAMES: usize = 256;

/// The encoded stream.
struct Stream {
    config: ServeConfig,
    events: Vec<StreamEvent>,
    /// Chunks of [`CHUNK_FRAMES`] frames; the first starts with the header.
    chunks: Vec<Vec<u8>>,
}

fn synthesize(seed: u64, virtual_ms: u64) -> Stream {
    let config = ServeConfig {
        source: SourceConfig {
            seed: stream_seed(seed, 0),
            events_per_sec: SOURCE_CALLS_PER_S,
            duration: SimDuration::from_millis(virtual_ms),
            ..SourceConfig::default()
        },
        chunk_frames: CHUNK_FRAMES,
        ..ServeConfig::default()
    };
    let mut source = EventSource::new(config.source);
    let mut events = Vec::new();
    while let Some(event) = source.next() {
        events.push(match event.kind {
            SourceEventKind::Call { uid, interface } => StreamEvent::Ipc {
                at: event.at,
                uid,
                ipc_type: source.interface_label(interface),
            },
            SourceEventKind::Add => StreamEvent::JgrAdd { at: event.at },
        });
    }
    let chunks = events
        .chunks(CHUNK_FRAMES)
        .enumerate()
        .map(|(k, group)| {
            let mut chunk = if k == 0 { stream_header() } else { Vec::new() };
            for event in group {
                encode_event(event, &mut chunk);
            }
            chunk
        })
        .collect();
    Stream {
        config,
        events,
        chunks,
    }
}

/// A journal store that counts what the defender writes to it.
#[derive(Debug, Default)]
struct CountingStore {
    inner: MemoryStore,
    bytes: Cell<u64>,
    replaces: Cell<u64>,
}

impl StateStore for CountingStore {
    fn load_journal(&self) -> std::io::Result<Vec<u8>> {
        self.inner.load_journal()
    }
    fn append_journal(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.set(self.bytes.get() + bytes.len() as u64);
        self.inner.append_journal(bytes)
    }
    fn replace_journal(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.bytes.set(self.bytes.get() + bytes.len() as u64);
        self.replaces.set(self.replaces.get() + 1);
        self.inner.replace_journal(bytes)
    }
    fn load_checkpoint(&self) -> std::io::Result<Option<Vec<u8>>> {
        self.inner.load_checkpoint()
    }
    fn store_checkpoint(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.store_checkpoint(bytes)
    }
}

/// One closed-loop drain; returns the report and its wall time.
fn drain(
    stream: &Stream,
    store: &dyn StateStore,
    mut tracer: Option<&mut Tracer>,
) -> (ServeReport, f64) {
    let start = Instant::now();
    let mut defender = StreamDefender::with_store(stream.config, store);
    for (k, chunk) in stream.chunks.iter().enumerate() {
        timed(&mut tracer, "serve.chunk", k as u64, || {
            defender.ingest_bytes(chunk);
        });
    }
    let report = defender.finish().expect("an in-memory journal cannot fail");
    (report, start.elapsed().as_secs_f64())
}

/// One open-loop replay; returns the report, per-chunk lags in ms and the
/// generator's lateness.
fn open_loop(stream: &Stream) -> (ServeReport, Vec<f64>, Lateness) {
    // Chunk k is due when the k × CHUNK_FRAMES events before it have
    // been sent at the open-loop rate.
    let due: Vec<u64> = (0..stream.chunks.len() as u64)
        .map(|k| k * CHUNK_FRAMES as u64 * 1_000_000_000 / OPEN_LOOP_EVENTS_PER_S)
        .collect();
    let store = MemoryStore::new();
    let mut defender = StreamDefender::with_store(stream.config, &store);
    let timings = replay(&due, |k| defender.ingest_bytes(&stream.chunks[k]));
    let report = defender.finish().expect("an in-memory journal cannot fail");
    let lags = timings.iter().map(|t| t.lag_ns() as f64 / 1e6).collect();
    (report, lags, Lateness::of(&timings))
}

/// The events the journal must still hold: everything after the add
/// that triggered the last verdict (a verdict compacts the journal).
fn expected_suffix<'a>(stream: &'a Stream, report: &ServeReport) -> &'a [StreamEvent] {
    let Some(last) = report.verdicts.last() else {
        return &stream.events;
    };
    let mut adds = 0u64;
    for (i, event) in stream.events.iter().enumerate() {
        if matches!(event, StreamEvent::JgrAdd { .. }) {
            adds += 1;
            if adds == last.adds_seen {
                return &stream.events[i + 1..];
            }
        }
    }
    &[]
}

/// Checks the reference report: every event accepted, and the attacker
/// caught. Verdicts that name a benign app are Algorithm 1's own
/// behaviour on this stream, not a fault of the service; they are
/// counted by [`misattributed`] and reported, not failed.
fn check_report(result: &mut RunResult, stream: &Stream, report: &ServeReport) {
    result.tally.check(
        report.ingest.offered == stream.events.len() as u64
            && report.ingest.accepted == report.ingest.offered
            && report.ingest.rejected() == 0,
        || format!("run_serve: events dropped or rejected: {:?}", report.ingest),
    );
    let attacker = stream.config.source.attacker_uid();
    result.tally.check(
        report.verdicts.iter().any(|v| v.suspect == attacker),
        || "run_serve: no verdict names the attacker".to_owned(),
    );
}

/// Verdicts whose suspect is not the stream's attacker.
fn misattributed(stream: &Stream, report: &ServeReport) -> usize {
    let attacker = stream.config.source.attacker_uid();
    report
        .verdicts
        .iter()
        .filter(|v| v.suspect != attacker)
        .count()
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, trace: bool, size: Size) -> RunResult {
    let virtual_ms = match size {
        Size::Full => 1_000,
        Size::Tiny => 200,
    };
    let mut result = RunResult::new();
    let (stream, setup_s) = set_up(|| synthesize(seed, virtual_ms));

    let reference = run_serve(&stream.config).expect("an in-memory journal cannot fail");
    check_report(&mut result, &stream, &reference);

    if trace {
        traced(&stream, &reference, &mut result);
        return result;
    }

    // Drains (phase A) and open-loop replays (phase B) alternate, so both
    // phases sample the whole run rather than one stretch of it.
    let started = Instant::now();
    let mut rates = Vec::new();
    let mut replays = Vec::new();
    let mut lateness = Lateness::default();
    while rates.len() < 3 || started.elapsed().as_secs_f64() < seconds {
        let i = rates.len();
        let store = MemoryStore::new();
        let (report, wall_s) = drain(&stream, &store, None);
        rates.push(stream.events.len() as f64 / wall_s);
        result.tally.check(report == reference, || {
            format!("drain {i}: report differs from run_serve")
        });
        let recovered = recover_events(&store).expect("an in-memory journal cannot fail");
        result.tally.check(
            recovered.reject.is_none()
                && recovered.torn_bytes == 0
                && recovered.events == expected_suffix(&stream, &report),
            || format!("drain {i}: recovered journal is not the suffix after the last verdict"),
        );
        let (report, replay_lags, late) = open_loop(&stream);
        result.tally.check(report == reference, || {
            format!("replay {i}: report differs from run_serve")
        });
        replays.push(replay_lags);
        lateness.merge(late);
    }

    let events_per_s = sustained(&rates);
    let p50 = sustained_median(&replays);
    let typical_tail = typical_tail(&replays);
    let lags = replays.concat();
    let pooled = tail(&lags);
    result.end_to_end = Some(EndToEnd {
        setup_s,
        throughput_per_s: events_per_s,
        latency_p50_ms: p50,
        latency_tail: typical_tail,
    });
    result.name("serve.events_per_s", events_per_s, "1/s");
    result.name("serve.lag_p50_us (p90 over replays)", p50 * 1e3, "us");
    result.name("serve.lag_p50_us (pooled)", median(&lags) * 1e3, "us");
    result.name(
        &format!(
            "serve.lag_{}_us (median over replays)",
            typical_tail.label()
        ),
        typical_tail.value * 1e3,
        "us",
    );
    result.name(
        &format!("serve.lag_{}_us (pooled)", pooled.label()),
        pooled.value * 1e3,
        "us",
    );
    result.name("serve.events", stream.events.len() as f64, "count");
    result.name("serve.verdicts", reference.verdicts.len() as f64, "count");
    result.name(
        "serve.verdicts_not_attacker",
        misattributed(&stream, &reference) as f64,
        "count",
    );
    result.name("serve.rounds", rates.len() as f64, "count");
    result.name(
        "serve.open_loop_events_per_s",
        OPEN_LOOP_EVENTS_PER_S as f64,
        "1/s",
    );
    result.name(
        "bench.serve.late_chunks",
        lateness.late_chunks as f64,
        "count",
    );
    result.name(
        "bench.serve.late_max_us",
        lateness.max_late_ns as f64 / 1e3,
        "us",
    );
    result
}

/// The traced run: a traced drain between two untraced ones, then each
/// layer driven alone over the same stream.
fn traced(stream: &Stream, reference: &ServeReport, result: &mut RunResult) {
    let (_, before_s) = drain(stream, &MemoryStore::new(), None);

    let mut tracer = Tracer::new();
    let from_ns = tracer.clock_ns();
    let store = CountingStore::default();
    let (report, traced_s) = drain(stream, &store, Some(&mut tracer));
    let coverage = tracer.top_level_ns(from_ns) as f64 / (traced_s * 1e9);
    result.tally.check(report == *reference, || {
        "traced drain differs from run_serve".to_owned()
    });
    // Untraced drains on both sides of the traced one, so warm-up does
    // not count as tracing overhead.
    let (_, after_s) = drain(stream, &MemoryStore::new(), None);
    let untraced_s = (before_s + after_s) / 2.0;
    let span = tracer.open("defense.recover", 0);
    let recovered = recover_events(&store).expect("an in-memory journal cannot fail");
    tracer.close(span);
    result.tally.check(
        recovered.reject.is_none() && recovered.events == expected_suffix(stream, &report),
        || "recovered journal is not the suffix after the last verdict".to_owned(),
    );

    // The frame decoder alone over the same bytes.
    let mut decoder = FrameDecoder::new();
    let mut decoded = 0usize;
    for (k, chunk) in stream.chunks.iter().enumerate() {
        let span = tracer.open("defense.frame.decode", k as u64);
        decoder.feed(chunk);
        while let Ok(Some(event)) = decoder.next_event() {
            std::hint::black_box(event);
            decoded += 1;
        }
        tracer.close(span);
    }
    result.tally.check(decoded == stream.events.len(), || {
        format!(
            "decoder alone yielded {decoded} of {} events",
            stream.events.len()
        )
    });

    // StreamDefender::ingest on pre-decoded events.
    let mut defender = StreamDefender::new(stream.config);
    for (k, group) in stream.events.chunks(CHUNK_FRAMES).enumerate() {
        let group = group.to_vec();
        let span = tracer.open("defense.ingest", k as u64);
        for event in group {
            defender.ingest(event);
        }
        tracer.close(span);
    }
    let ingested = defender.finish().expect("no journal to fail");
    result
        .tally
        .check(ingested.verdicts == reference.verdicts, || {
            "ingest on decoded events gives different verdicts".to_owned()
        });

    // The incremental scorer alone, with the service's trigger cadence
    // and reset-on-verdict rule.
    let config = stream.config;
    let mut scorer = match config.horizon {
        Some(h) => IncrementalScorer::with_horizon(config.params, h),
        None => IncrementalScorer::new(config.params),
    };
    let mut verdicts = Vec::new();
    let (mut passes, mut adds, mut since_pass, mut segment) = (0u64, 0u64, 0u64, 0u64);
    let mut span = tracer.open("defense.scorer.push", segment);
    for event in &stream.events {
        match event {
            StreamEvent::Ipc { at, uid, ipc_type } => scorer.push_ipc(*uid, ipc_type, *at),
            StreamEvent::JgrAdd { at } => {
                scorer.push_add(*at);
                adds += 1;
                since_pass += 1;
                if since_pass >= config.trigger_adds {
                    tracer.close(span);
                    since_pass = 0;
                    passes += 1;
                    let report = tracer.time("defense.scorer.report", segment, || scorer.report());
                    if let Some(top) = report.top().filter(|t| t.score > 0) {
                        verdicts.push((at.as_micros(), top.uid, top.score, adds));
                        scorer.reset();
                    }
                    segment += 1;
                    span = tracer.open("defense.scorer.push", segment);
                }
            }
        }
    }
    tracer.close(span);
    let served: Vec<_> = reference
        .verdicts
        .iter()
        .map(|v| (v.at_us, v.suspect, v.score, v.adds_seen))
        .collect();
    result.tally.check(verdicts == served, || {
        format!(
            "scorer replay found {} verdicts, the service {}",
            verdicts.len(),
            served.len()
        )
    });

    let (_, _, lateness) = open_loop(stream);

    result.layer_ns(&tracer, "defense.frame.decode");
    result.layer_ns(&tracer, "defense.ingest");
    result.layer_ns(&tracer, "defense.scorer.push");
    result.layer_ns(&tracer, "defense.scorer.report");
    result.layer("defense.scorer.passes", passes as f64);
    result.layer(
        "defense.verdicts.not_attacker",
        misattributed(stream, reference) as f64,
    );
    result.layer(
        "defense.scorer.verdict_ratio",
        verdicts.len() as f64 / passes.max(1) as f64,
    );
    result.layer(
        "defense.scorer.pairs_processed",
        reference.stats.pairs_processed as f64,
    );
    result.layer(
        "defense.scorer.records_scanned",
        reference.stats.records_scanned as f64,
    );
    result.layer("defense.journal.bytes", store.bytes.get() as f64);
    result.layer("defense.journal.compactions", store.replaces.get() as f64);
    result.layer_ns(&tracer, "defense.recover");
    result.layer("defense.ring.accepted", report.ingest.accepted as f64);
    result.layer(
        "defense.ring.dropped",
        report.ingest.dropped_backpressure as f64,
    );
    result.layer("defense.frame.rejected", report.ingest.rejected() as f64);
    result.layer("bench.serve.late_chunks", lateness.late_chunks as f64);
    result.layer("bench.serve.late_max_us", lateness.max_late_ns as f64 / 1e3);
    result.layer("bench.trace.coverage", coverage);
    result.layer("bench.trace.overhead_ratio", traced_s / untraced_s);
    result.layer("bench.trace.spans", tracer.spans().len() as f64);
    result.tracer = Some(tracer);
}
