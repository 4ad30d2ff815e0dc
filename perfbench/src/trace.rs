//! Spans recorded at layer boundaries from the benchmark's own code.
//!
//! Every span has a name, start, end, parent and op id; spans stay in
//! memory and are written out when the run ends. A layer's self time is
//! its span minus its children. Where a layer runs inside one public
//! call (the ILP stages inside `allocate_solved_with`, the compile phases
//! inside a server request), its spans are rebuilt from the telemetry
//! events that call already emits into a recorder the benchmark passes
//! in; nothing inside the program is instrumented for the benchmark.

use crate::meter::alloc_calls;
use nova_obs::{Event, EventKind, Recorder};
use std::io::Write as _;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub parent: Option<usize>,
    pub op: u64,
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    /// Allocation calls made while the span was open (for rebuilt spans:
    /// see [`allocs_within`]).
    pub allocs: u64,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end.saturating_duration_since(self.start).as_nanos() as u64
    }
}

/// In-memory span store.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// Open a span; close it with [`end`](Self::end). Until then its
    /// `allocs` holds the process's allocation count at opening.
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, op: u64) -> usize {
        let now = Instant::now();
        self.spans.push(Span {
            parent,
            op,
            name,
            start: now,
            end: now,
            allocs: alloc_calls(),
        });
        self.spans.len() - 1
    }

    pub fn end(&mut self, id: usize) {
        let s = &mut self.spans[id];
        s.end = Instant::now();
        s.allocs = alloc_calls() - s.allocs;
    }

    /// Record a span whose bounds were observed elsewhere, clipped into
    /// its parent so self times never go negative.
    pub fn record(
        &mut self,
        name: &'static str,
        parent: usize,
        start: Instant,
        end: Instant,
        allocs: u64,
    ) -> usize {
        let p = &self.spans[parent];
        let start = start.clamp(p.start, p.end);
        let end = end.clamp(start, p.end);
        let op = p.op;
        self.spans.push(Span {
            parent: Some(parent),
            op,
            name,
            start,
            end,
            allocs,
        });
        self.spans.len() - 1
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span in nanoseconds: its duration minus the
    /// durations of its children (children of one span never overlap).
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<u64> = self.spans.iter().map(Span::ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] = own[p].saturating_sub(s.ns());
            }
        }
        own
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"allocs\":{}}}",
                s.op,
                s.name,
                s.start.saturating_duration_since(self.epoch).as_nanos(),
                s.end.saturating_duration_since(self.epoch).as_nanos(),
                s.allocs
            )?;
        }
        out.flush()
    }
}

/// One telemetry event as the benchmark received it.
#[derive(Debug, Clone)]
pub struct Seen {
    pub name: String,
    /// Receipt time: spans are emitted as they close, so this is the end.
    pub at: Instant,
    pub kind: EventKind,
    /// Process allocation calls at receipt.
    pub allocs: u64,
}

impl Seen {
    /// Start of a span event (`at` minus its duration).
    pub fn start(&self) -> Instant {
        match self.kind {
            EventKind::Span { dur_ns } => self
                .at
                .checked_sub(std::time::Duration::from_nanos(dur_ns))
                .unwrap_or(self.at),
            _ => self.at,
        }
    }

    pub fn is_span(&self, name: &str) -> bool {
        matches!(self.kind, EventKind::Span { .. }) && self.name == name
    }
}

/// A `nova_obs` recorder that keeps every event with its receipt time.
#[derive(Clone, Default)]
pub struct Collect(Arc<Mutex<Vec<Seen>>>);

impl Collect {
    /// Take every event received since the last call.
    pub fn drain(&self) -> Vec<Seen> {
        std::mem::take(&mut *self.0.lock().expect("event log poisoned"))
    }

    /// Sum of a counter over `events`.
    pub fn counter(events: &[Seen], name: &str) -> u64 {
        events
            .iter()
            .filter(|e| e.name == name)
            .map(|e| match e.kind {
                EventKind::Counter { delta } => delta,
                _ => 0,
            })
            .sum()
    }
}

impl Recorder for Collect {
    fn record(&self, event: Event) {
        let seen = Seen {
            at: Instant::now(),
            allocs: alloc_calls(),
            name: event.name,
            kind: event.kind,
        };
        self.0.lock().expect("event log poisoned").push(seen);
    }
}

/// Allocation calls made inside `e`: the count at its end minus the
/// count at the last event that ended before it started (or `base`, the
/// count when the enclosing call began). Nested events therefore do not
/// hide their parent's allocations.
pub fn allocs_within(events: &[Seen], e: &Seen, base: u64) -> u64 {
    let start = e.start();
    let before = events
        .iter()
        .filter(|x| x.at <= start)
        .map(|x| x.allocs)
        .max()
        .unwrap_or(base)
        .max(base);
    e.allocs.saturating_sub(before)
}

/// Rebuild the allocator's layers under `parent` from the events one
/// allocation emitted: `ilp.model` and `ilp.presolve` from their spans,
/// `ilp.root` and `ilp.tree` by splitting the solve span at the root
/// relaxation's reported duration. Whatever else the allocation did
/// stays in `parent`'s self time.
pub fn rebuild_ilp(tr: &mut Tracer, parent: usize, events: &[Seen], base: u64) {
    let root_ns = events
        .iter()
        .find(|e| e.is_span("ilp.root"))
        .map_or(0, |e| match e.kind {
            EventKind::Span { dur_ns } => dur_ns,
            _ => 0,
        });
    for e in events {
        let EventKind::Span { .. } = e.kind else {
            continue;
        };
        let allocs = allocs_within(events, e, base);
        match e.name.as_str() {
            "phase.ilp.model" => {
                tr.record("ilp.model", parent, e.start(), e.at, allocs);
            }
            "phase.ilp.presolve" => {
                tr.record("ilp.presolve", parent, e.start(), e.at, allocs);
            }
            "phase.ilp.solve" => {
                let split = e.start() + std::time::Duration::from_nanos(root_ns);
                let split = split.min(e.at);
                tr.record("ilp.root", parent, e.start(), split, 0);
                tr.record("ilp.tree", parent, split, e.at, allocs);
            }
            _ => {}
        }
    }
}
