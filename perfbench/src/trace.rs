//! In-memory span recorder for the traced run.
//!
//! Spans wrap the benchmark's own calls into each layer's public API —
//! nothing inside the program is instrumented. Each span records its
//! name, start, end and parent, plus the id of the unit of work it
//! belongs to (a device, a chunk, an edit or a shard), so all spans of
//! one unit can be grouped. Spans stay in memory until
//! [`Tracer::write_jsonl`] writes them out when the run ends.

use std::fmt::Write as _;
use std::io::{self, Write as _};
use std::path::Path;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary the span wraps, e.g. `framework.call_service`.
    pub name: &'static str,
    /// Unit of work the span belongs to.
    pub unit: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Start, ns since the tracer was created.
    pub start_ns: u64,
    /// End, ns since the tracer was created (`0` while still open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in ns.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle of an open span.
#[derive(Debug)]
#[must_use = "an open span must be closed"]
pub struct Open(usize);

/// Collects spans; nesting follows open/close order.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::new()
    }
}

impl Tracer {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).expect("a run lasts < 584 years")
    }

    /// Opens a span nested in the innermost open one.
    pub fn open(&mut self, name: &'static str, unit: u64) -> Open {
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            unit,
            parent: self.stack.last().copied(),
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `span` and returns its duration in ns.
    ///
    /// # Panics
    ///
    /// Panics when `span` is not the innermost open span.
    pub fn close(&mut self, span: Open) -> u64 {
        assert_eq!(
            self.stack.pop(),
            Some(span.0),
            "spans must close innermost first"
        );
        let end = self.now_ns();
        let slot = &mut self.spans[span.0];
        slot.end_ns = end;
        slot.duration_ns()
    }

    /// Runs `f` inside a span.
    pub fn time<T>(&mut self, name: &'static str, unit: u64, f: impl FnOnce() -> T) -> T {
        let span = self.open(name, unit);
        let out = f();
        self.close(span);
        out
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Summed duration of every span called `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_ns)
            .sum()
    }

    /// Spans called `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.spans.iter().filter(|s| s.name == name).count() as u64
    }

    /// Summed duration of the top-level spans (no parent) that started at
    /// or after `since_ns` — the wall time the trace accounts for.
    pub fn top_level_ns(&self, since_ns: u64) -> u64 {
        self.spans
            .iter()
            .filter(|s| s.parent.is_none() && s.start_ns >= since_ns)
            .map(Span::duration_ns)
            .sum()
    }

    /// The tracer clock, ns.
    pub fn clock_ns(&self) -> u64 {
        self.now_ns()
    }

    /// Writes a header line, then one JSON object per span.
    ///
    /// # Errors
    ///
    /// Any I/O error creating or writing the file.
    pub fn write_jsonl(&self, path: &Path, header: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = String::with_capacity(64 * (self.spans.len() + 1));
        out.push_str(header);
        out.push('\n');
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_owned(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"name\":\"{}\",\"unit\":{},\"start_ns\":{},\"end_ns\":{}}}",
                span.name, span.unit, span.start_ns, span.end_ns
            );
        }
        let mut file = io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(out.as_bytes())?;
        file.flush()
    }
}

/// Runs `f` inside a span when there is a tracer, and plainly otherwise,
/// so untraced and traced runs share one code path.
pub fn timed<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    unit: u64,
    f: impl FnOnce() -> T,
) -> T {
    match tracer {
        Some(t) => t.time(name, unit, f),
        None => f(),
    }
}
