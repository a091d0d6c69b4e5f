//! In-memory span recorder for the traced run.
//!
//! A span is `(name, start, end, parent, request)`, timed on one
//! monotonic origin. Spans sit around the benchmark's own calls into
//! each crate's public functions; nothing inside the program is
//! instrumented. When tracing is off every call is a no-op apart from
//! running the closure, so untraced runs pay nothing measurable.

use std::sync::Mutex;
use std::time::Instant;
use zbp_support::json::Json;

/// Index of a recorded span (`NONE` when tracing is off).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(usize);

impl SpanId {
    /// The id handed out by a disabled tracer.
    pub const NONE: SpanId = SpanId(usize::MAX);
}

#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: Option<u64>,
}

impl Span {
    pub fn ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self { enabled, origin: Instant::now(), spans: Mutex::new(Vec::new()) }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn ns_at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Opens a span now; close it with [`Self::end`].
    pub fn begin(&self, name: &str, parent: SpanId) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let start_ns = self.ns_at(Instant::now());
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: (parent != SpanId::NONE).then_some(parent.0),
            request: None,
        });
        SpanId(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        if id == SpanId::NONE {
            return;
        }
        let end_ns = self.ns_at(Instant::now());
        self.spans.lock().expect("span log poisoned")[id.0].end_ns = end_ns;
    }

    /// Runs `f` inside a span named `name`; `f` receives the span id so
    /// it can parent child spans.
    pub fn span<R>(&self, name: &str, parent: SpanId, f: impl FnOnce(SpanId) -> R) -> R {
        let id = self.begin(name, parent);
        let out = f(id);
        self.end(id);
        out
    }

    /// Records a span from timestamps taken elsewhere (client-side
    /// NDJSON event arrival times).
    pub fn record(
        &self,
        name: &str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        if !self.enabled {
            return SpanId::NONE;
        }
        let span = Span {
            name: name.to_string(),
            start_ns: self.ns_at(start),
            end_ns: self.ns_at(end),
            parent: (parent != SpanId::NONE).then_some(parent.0),
            request,
        };
        let mut spans = self.spans.lock().expect("span log poisoned");
        spans.push(span);
        SpanId(spans.len() - 1)
    }

    pub fn snapshot(&self) -> Vec<Span> {
        self.spans.lock().expect("span log poisoned").clone()
    }

    /// Spans named `name`.
    pub fn named(&self, name: &str) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.name == name)
            .cloned()
            .collect()
    }

    /// Total nanoseconds over every span named `name`.
    pub fn total_ns(&self, name: &str) -> u64 {
        self.named(name).iter().map(Span::ns).sum()
    }

    /// Total milliseconds over every span named `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.total_ns(name) as f64 / 1e6
    }

    /// Mean span length in milliseconds (0 with no spans).
    pub fn mean_ms(&self, name: &str) -> f64 {
        let spans = self.named(name);
        if spans.is_empty() {
            return 0.0;
        }
        spans.iter().map(Span::ns).sum::<u64>() as f64 / spans.len() as f64 / 1e6
    }

    /// Durations in milliseconds of every span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.named(name).iter().map(|s| s.ns() as f64 / 1e6).collect()
    }

    /// Top-level (parentless) span time as a share of the time since
    /// the tracer was created, %: how much of the run the spans explain.
    pub fn coverage_pct(&self) -> f64 {
        let elapsed = self.ns_at(Instant::now()).max(1);
        let top: u64 = self
            .spans
            .lock()
            .expect("span log poisoned")
            .iter()
            .filter(|s| s.parent.is_none())
            .map(Span::ns)
            .sum();
        100.0 * top as f64 / elapsed as f64
    }

    /// The whole log as JSON, for writing out when the run ends.
    pub fn to_json(&self) -> Json {
        let spans = self.snapshot();
        Json::Arr(
            spans
                .iter()
                .map(|s| {
                    let opt = |v: Option<u64>| v.map_or(Json::Null, |v| Json::Num(v as f64));
                    Json::Obj(vec![
                        ("name".into(), Json::Str(s.name.clone())),
                        ("start_ns".into(), Json::Num(s.start_ns as f64)),
                        ("end_ns".into(), Json::Num(s.end_ns as f64)),
                        ("parent".into(), opt(s.parent.map(|p| p as u64))),
                        ("request".into(), opt(s.request)),
                    ])
                })
                .collect(),
        )
    }
}
