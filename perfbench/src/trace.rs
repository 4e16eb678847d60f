//! In-memory spans around the benchmark's calls into the program.
//!
//! A span records its name, start, end, parent span and request id.
//! Spans are kept in memory, written as JSON lines when the run ends,
//! and a layer's self time is its span's duration minus the time its
//! child spans cover.

use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

static NEXT_SPAN: AtomicU64 = AtomicU64::new(1);

#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Per-thread span recorder. When disabled it only measures the
/// wrapped call's duration, which every request needs anyway.
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    request: u64,
    stack: Vec<u64>,
    pub spans: Vec<Span>,
}

impl Tracer {
    /// A recorder timing spans from `epoch`, initially off.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            enabled: false,
            request: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Turns recording on or off (on for the whole traced run).
    pub fn set_enabled(&mut self, on: bool) {
        self.enabled = on;
    }

    /// Tags the spans that follow with request id `id`.
    pub fn set_request(&mut self, id: u64) {
        self.request = id;
    }

    /// Opens a span named `name` (nested under the innermost open one).
    pub fn start(&mut self, name: &'static str) -> Open {
        let id = if self.enabled {
            let id = NEXT_SPAN.fetch_add(1, Ordering::Relaxed);
            self.stack.push(id);
            id
        } else {
            0
        };
        Open {
            id,
            name,
            start: Instant::now(),
        }
    }

    /// Closes `open`; returns its duration in milliseconds.
    pub fn end(&mut self, open: Open) -> f64 {
        let end = Instant::now();
        if open.id != 0 {
            self.stack.pop();
            self.spans.push(Span {
                id: open.id,
                parent: self.stack.last().copied(),
                request: self.request,
                name: open.name,
                start_ns: (open.start - self.epoch).as_nanos() as u64,
                end_ns: (end - self.epoch).as_nanos() as u64,
            });
        }
        (end - open.start).as_secs_f64() * 1e3
    }

    /// Runs `f` inside a span named `name`; returns its result and its
    /// duration in milliseconds.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let open = self.start(name);
        let out = f();
        (out, self.end(open))
    }
}

/// A span that has been started but not ended.
pub struct Open {
    id: u64,
    name: &'static str,
    start: Instant,
}

/// Self time of every span: its duration minus its children's.
fn self_times(spans: &[Span]) -> Vec<(u64, &'static str, f64)> {
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.dur_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            let own = s.dur_ns() - child_ns.get(&s.id).copied().unwrap_or(0).min(s.dur_ns());
            (s.request, s.name, own as f64 / 1e6)
        })
        .collect()
}

/// Per-request self time of each span name: `name -> request -> ms`.
pub fn layer_times(spans: &[Span]) -> HashMap<&'static str, HashMap<u64, f64>> {
    let mut out: HashMap<&'static str, HashMap<u64, f64>> = HashMap::new();
    for (req, name, ms) in self_times(spans) {
        *out.entry(name).or_default().entry(req).or_default() += ms;
    }
    out
}

/// Writes the spans as JSON lines.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id, parent, s.request, s.name, s.start_ns, s.end_ns
        )?;
    }
    w.flush()
}
