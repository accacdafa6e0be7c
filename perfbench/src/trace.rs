//! Spans recorded from the benchmark's own code around its calls into each
//! layer of the program. They stay in memory and are written once, when
//! the run ends.
//!
//! A disabled tracer (the plain run) records nothing: the closure runs and
//! no clock is read on its behalf.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Identifies a span; `0` means "no parent".
pub type SpanId = u64;

/// Bound on kept spans, so a long traced run cannot exhaust memory.
const SPAN_CAP: usize = 1 << 21;

struct Span {
    id: SpanId,
    parent: SpanId,
    request: u64,
    name: &'static str,
    start: Instant,
    end: Instant,
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id to
    /// parent its own children.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        if !self.enabled {
            return f(0);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let r = f(id);
        self.push(Span { id, parent, request, name, start, end: Instant::now() });
        r
    }

    /// Records a span the caller already timed.
    pub fn record(
        &self,
        name: &'static str,
        parent: SpanId,
        request: u64,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            let id = self.next.fetch_add(1, Ordering::Relaxed);
            self.push(Span { id, parent, request, name, start, end });
        }
    }

    fn push(&self, span: Span) {
        let mut spans = self.spans.lock().expect("span buffer poisoned by a panicking thread");
        if spans.len() < SPAN_CAP {
            spans.push(span);
        }
    }

    pub fn len(&self) -> usize {
        self.spans.lock().expect("span buffer poisoned by a panicking thread").len()
    }

    /// Writes every span as one JSON object per line (`id`, `name`,
    /// `start_us`, `end_us`, `parent`, `request`), times relative to the
    /// tracer's creation.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned by a panicking thread");
        let us = |t: Instant| t.duration_since(self.origin).as_secs_f64() * 1e6;
        let mut out = String::with_capacity(spans.len() * 96);
        for s in spans.iter() {
            let _ = writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{},\"request\":{}}}",
                s.id,
                s.name,
                us(s.start),
                us(s.end),
                s.parent,
                s.request
            );
        }
        std::fs::write(path, out)
    }

    /// Per span name: `(count, total ms, self ms)`, where self time is the
    /// span's duration minus the time its direct children cover.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, f64, f64)> {
        let spans = self.spans.lock().expect("span buffer poisoned by a panicking thread");
        let mut child_ms: BTreeMap<SpanId, f64> = BTreeMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            *child_ms.entry(s.parent).or_default() +=
                s.end.duration_since(s.start).as_secs_f64() * 1e3;
        }
        let mut by_name: BTreeMap<&'static str, (u64, f64, f64)> = BTreeMap::new();
        for s in spans.iter() {
            let ms = s.end.duration_since(s.start).as_secs_f64() * 1e3;
            let own = ms - child_ms.get(&s.id).copied().unwrap_or(0.0);
            let e = by_name.entry(s.name).or_default();
            e.0 += 1;
            e.1 += ms;
            e.2 += own.max(0.0);
        }
        by_name
    }
}
