//! In-memory span recorder for the traced run.
//!
//! A span is recorded around each call into a layer, from the benchmark's
//! side of the call: name, start, end, the span that caused it and the
//! request it belongs to. Spans stay in memory until the run ends and are
//! then written out as JSON lines. With tracing off, [`Tracer::span`] only
//! calls its closure, so the untraced run reads no extra clocks.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<u64>,
    pub request: Option<u64>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            origin: Instant::now(),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn offset_ns(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.origin).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name`. `f` receives the span's id (to
    /// parent child spans on), or `None` when tracing is off.
    pub fn span<T>(
        &self,
        name: &str,
        parent: Option<u64>,
        request: Option<u64>,
        f: impl FnOnce(Option<u64>) -> T,
    ) -> T {
        if !self.enabled {
            return f(None);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start = Instant::now();
        let out = f(Some(id));
        let end = Instant::now();
        self.push(id, name, start, end, parent, request);
        out
    }

    /// Allocates a span id ahead of recording it with [`Tracer::record_as`],
    /// so children can name a parent that has not ended yet (0 when tracing
    /// is off).
    pub fn reserve(&self) -> u64 {
        if self.enabled {
            self.next_id.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records an interval under an id from [`Tracer::reserve`].
    pub fn record_as(
        &self,
        id: u64,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) {
        if self.enabled {
            self.push(id, name, start, end, parent, request);
        }
    }

    fn push(
        &self,
        id: u64,
        name: &str,
        start: Instant,
        end: Instant,
        parent: Option<u64>,
        request: Option<u64>,
    ) {
        let span = Span {
            id,
            name: name.to_string(),
            start_ns: self.offset_ns(start),
            end_ns: self.offset_ns(end),
            parent,
            request,
        };
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .push(span);
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans
            .lock()
            .expect("span list lock poisoned by a panicking recorder")
            .clone()
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in self.spans() {
            let opt = |v: Option<u64>| v.map_or_else(|| "null".to_string(), |v| v.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
                s.id,
                s.name,
                s.start_ns,
                s.end_ns,
                opt(s.parent),
                opt(s.request)
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals` clipped to `[lo, hi)`.
pub fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(lo), e.min(hi)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = lo;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of its interval
/// that its child spans cover. Keyed by span id.
pub fn self_times(spans: &[Span]) -> BTreeMap<u64, u64> {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Self times in milliseconds, grouped by span name.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let selfs = self_times(spans);
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name.clone())
            .or_default()
            .push(selfs[&s.id] as f64 / 1e6);
    }
    by_name
}

/// Total durations in milliseconds, grouped by span name.
pub fn total_ms_by_name(spans: &[Span]) -> BTreeMap<String, Vec<f64>> {
    let mut by_name: BTreeMap<String, Vec<f64>> = BTreeMap::new();
    for s in spans {
        by_name
            .entry(s.name.clone())
            .or_default()
            .push(s.duration_ns() as f64 / 1e6);
    }
    by_name
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, name: &str, start_ns: u64, end_ns: u64, parent: Option<u64>) -> Span {
        Span {
            id,
            name: name.to_string(),
            start_ns,
            end_ns,
            parent,
            request: None,
        }
    }

    #[test]
    fn covered_merges_overlaps_and_clips_to_the_parent() {
        assert_eq!(covered_ns(&[], 0, 100), 0);
        assert_eq!(covered_ns(&[(10, 20), (30, 40)], 0, 100), 20);
        // Overlapping and nested children count once.
        assert_eq!(covered_ns(&[(10, 30), (20, 40), (25, 26)], 0, 100), 30);
        // A child sticking out of its parent is clipped.
        assert_eq!(covered_ns(&[(90, 150), (0, 5)], 10, 100), 10);
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span(1, "forward", 0, 100, None),
            span(2, "spmm", 10, 40, Some(1)),
            span(3, "gemm", 30, 70, Some(1)),
            span(4, "inner", 35, 45, Some(3)),
            span(5, "other", 0, 1000, None),
        ];
        let selfs = self_times(&spans);
        assert_eq!(selfs[&1], 100 - 60); // children cover 10..70
        assert_eq!(selfs[&2], 30);
        assert_eq!(selfs[&3], 40 - 10);
        assert_eq!(selfs[&4], 10);
        assert_eq!(selfs[&5], 1000, "unrelated spans are not children");
        let by_name = self_ms_by_name(&spans);
        assert_eq!(by_name["forward"], vec![40.0 / 1e6]);
    }

    #[test]
    fn tracer_off_records_nothing() {
        let tracer = Tracer::new(false);
        let got = tracer.span("x", None, None, |id| {
            assert_eq!(id, None);
            7
        });
        assert_eq!(got, 7);
        assert!(tracer.spans().is_empty());
    }

    #[test]
    fn tracer_on_links_children_to_parents() {
        let tracer = Tracer::new(true);
        tracer.span("outer", None, Some(9), |id| {
            tracer.span("inner", id, Some(9), |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        let outer = spans.iter().find(|s| s.name == "outer").expect("outer");
        let inner = spans.iter().find(|s| s.name == "inner").expect("inner");
        assert_eq!(inner.parent, Some(outer.id));
        assert_eq!(inner.request, Some(9));
        assert!(outer.start_ns <= inner.start_ns && inner.end_ns <= outer.end_ns);
    }
}
