//! Spans recorded by the benchmark's own timers around each public call.
//!
//! Nothing inside the program is instrumented: a span is the host
//! wall-clock interval of one call into a module's public API, as the
//! benchmark saw it. Spans stay in memory and are written out as JSON when
//! the run ends.

use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::report::Json;

/// Index of a recorded span (`None` when tracing is off).
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: SpanId,
    request: Option<u64>,
}

/// A span recorder; every span is kept as offsets from one time origin.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Option<Vec<Span>>,
}

impl Tracer {
    /// A recorder that keeps spans only when `enabled`.
    pub fn new(enabled: bool, origin: Instant) -> Tracer {
        Tracer {
            origin,
            spans: enabled.then(Vec::new),
        }
    }

    /// A recorder that keeps nothing (timing still works).
    pub fn disabled() -> Tracer {
        Tracer::new(false, Instant::now())
    }

    fn ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished interval and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: SpanId,
        request: Option<u64>,
    ) -> SpanId {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        let spans = self.spans.as_mut()?;
        spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            request,
        });
        Some(spans.len() - 1)
    }

    /// Opens a span whose end is filled in by [`Tracer::close`] — for a
    /// parent whose children are recorded before it ends.
    pub fn open(&mut self, name: &'static str, parent: SpanId) -> SpanId {
        let now = Instant::now();
        self.record(name, now, now, parent, None)
    }

    /// Closes a span opened with [`Tracer::open`].
    pub fn close(&mut self, id: SpanId) {
        let end_ns = self.ns(Instant::now());
        if let (Some(spans), Some(id)) = (self.spans.as_mut(), id) {
            spans[id].end_ns = end_ns;
        }
    }

    /// Times `f`, records it as a span, and returns its result with the
    /// elapsed time (measured whether or not spans are kept).
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: SpanId,
        f: impl FnOnce() -> R,
    ) -> (R, Duration) {
        let start = Instant::now();
        let out = f();
        let end = Instant::now();
        self.record(name, start, end, parent, None);
        (out, end - start)
    }

    /// Number of spans kept.
    pub fn len(&self) -> usize {
        self.spans.as_ref().map_or(0, Vec::len)
    }

    /// Writes the spans as JSON to `path` (creating its directory).
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn write_json(&self, path: &Path, header: Vec<(&str, Json)>) -> std::io::Result<()> {
        let spans = self.spans.as_deref().unwrap_or_default();
        let opt = |v: Option<u64>| v.map_or(Json::Null, |n| Json::Num(n as f64));
        let list = spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                Json::object(vec![
                    ("id", Json::Num(id as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                    ("parent", opt(s.parent.map(|p| p as u64))),
                    ("request", opt(s.request)),
                ])
            })
            .collect();
        let mut fields = header;
        fields.push(("clock", Json::str("host")));
        fields.push(("spans", Json::Arr(list)));
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut file = std::io::BufWriter::new(std::fs::File::create(path)?);
        file.write_all(Json::object(fields).render().as_bytes())?;
        file.write_all(b"\n")?;
        file.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_keeps_nothing_but_still_times() {
        let mut t = Tracer::new(false, Instant::now());
        let (v, d) = t.time("x", None, || 7);
        assert_eq!(v, 7);
        assert!(d <= Duration::from_secs(1));
        assert_eq!(t.open("p", None), None);
        assert_eq!(t.len(), 0);
    }
}
