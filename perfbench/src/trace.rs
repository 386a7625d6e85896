//! In-memory spans for the traced run.
//!
//! Each span records a name, start, end, parent and the emitting thread.
//! Spans are kept in memory and written out (JSON lines) when the run
//! ends. The library's progress events arrive on the batch worker that
//! runs the layer, so an open-span stack per thread nests stage spans
//! under their layer span.

use std::cell::Cell;
use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use sunstone::prelude::*;

/// One finished span; times are microseconds since the tracer started.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: u64,
    /// Enclosing span, 0 for a root.
    pub parent: u64,
    pub name: String,
    pub thread: u64,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_us - self.start_us) / 1e3
    }
}

static NEXT_THREAD: AtomicU64 = AtomicU64::new(1);
thread_local! {
    static THREAD: Cell<u64> = const { Cell::new(0) };
}

/// A small stable id for the calling thread.
fn thread_key() -> u64 {
    THREAD.with(|t| {
        if t.get() == 0 {
            t.set(NEXT_THREAD.fetch_add(1, Ordering::Relaxed));
        }
        t.get()
    })
}

/// Locks a span list, recovering from poisoning: every update is a single
/// push or pop, so the data is valid at every unwind point.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// A span still open on some thread: (id, parent, name, start).
type OpenSpan = (u64, u64, String, f64);

/// The span recorder.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
    /// Open spans per thread, innermost last.
    open: Mutex<HashMap<u64, Vec<OpenSpan>>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            open: Mutex::new(HashMap::new()),
        }
    }
}

impl Tracer {
    /// Microseconds since the tracer started.
    pub fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    /// `instant` in the tracer's clock.
    pub fn at_us(&self, instant: Instant) -> f64 {
        instant.saturating_duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Opens a span on the calling thread. Its parent is the innermost
    /// span open on this thread, else `fallback` (0 for a root).
    pub fn begin(&self, name: impl Into<String>, fallback: u64) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now_us();
        let mut open = lock(&self.open);
        let stack = open.entry(thread_key()).or_default();
        let parent = stack.last().map_or(fallback, |s| s.0);
        stack.push((id, parent, name.into(), start));
        id
    }

    /// Closes the innermost span open on the calling thread.
    pub fn end(&self) {
        let end = self.now_us();
        let thread = thread_key();
        let popped = lock(&self.open).get_mut(&thread).and_then(Vec::pop);
        if let Some((id, parent, name, start)) = popped {
            lock(&self.spans).push(Span { id, parent, name, thread, start_us: start, end_us: end });
        }
    }

    /// Records an already finished span; returns its id.
    pub fn record(&self, name: impl Into<String>, parent: u64, start_us: f64, end_us: f64) -> u64 {
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let span = Span { id, parent, name: name.into(), thread: thread_key(), start_us, end_us };
        lock(&self.spans).push(span);
        id
    }

    /// Every finished span, in finishing order.
    pub fn spans(&self) -> Vec<Span> {
        lock(&self.spans).clone()
    }

    /// Writes every finished span as one JSON object per line.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in lock(&self.spans).iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"thread\":{},\"start_us\":{:.3},\"end_us\":{:.3}}}",
                s.id,
                s.parent,
                s.name.replace('\\', "\\\\").replace('"', "\\\""),
                s.thread,
                s.start_us,
                s.end_us
            );
        }
        std::fs::write(path, out)
    }
}

/// A [`ProgressSink`] turning the library's layer and level events into
/// spans: `layer:<name>` under `root`, `stage<k>` under the layer open
/// on the same thread.
pub struct SpanSink {
    tracer: Arc<Tracer>,
    root: u64,
    /// `LayerFinished.elapsed` of every unique shape, in finishing order.
    layer_elapsed: Mutex<Vec<Duration>>,
}

impl SpanSink {
    pub fn new(tracer: Arc<Tracer>, root: u64) -> Self {
        SpanSink { tracer, root, layer_elapsed: Mutex::new(Vec::new()) }
    }

    /// `LayerFinished.elapsed` of every unique shape, in milliseconds.
    pub fn layer_ms(&self) -> Vec<f64> {
        lock(&self.layer_elapsed).iter().map(|d| d.as_secs_f64() * 1e3).collect()
    }
}

impl ProgressSink for SpanSink {
    fn on_event(&self, event: &ProgressEvent) {
        match event {
            ProgressEvent::LayerStarted { name, .. } => {
                self.tracer.begin(format!("layer:{name}"), self.root);
            }
            ProgressEvent::LayerFinished { elapsed, .. } => {
                self.tracer.end();
                lock(&self.layer_elapsed).push(*elapsed);
            }
            ProgressEvent::LevelStarted { stage, .. } => {
                self.tracer.begin(format!("stage{stage}"), self.root);
            }
            ProgressEvent::LevelFinished { .. } => self.tracer.end(),
            _ => {}
        }
    }
}
