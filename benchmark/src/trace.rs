//! In-memory spans around the calls the benchmark makes into each layer.
//!
//! `run > cycle > slice > job > layer-call`: every span has a name, start,
//! end, the span that caused it and the job it belongs to. Spans are kept
//! in memory and written as a Chrome-trace file when the run ends; with
//! tracing off every call here is a branch on a bool. Spans *inside* the
//! crates are a later change (ROADMAP item 4) — these are recorded from
//! the benchmark's side of each public call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

use crate::json::quote;

/// Handle of an open span; `None` while tracing is off.
pub type SpanId = Option<usize>;

#[derive(Debug, Clone)]
struct Span {
    name: &'static str,
    parent: SpanId,
    /// Job the span belongs to (`0` = none): spans of one job share it.
    job: u64,
    tid: u32,
    start_us: f64,
    /// `None` until the span is closed.
    end_us: Option<f64>,
}

/// Per-name totals derived from the recorded spans.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_us: f64,
    /// Total minus the part of each span its child spans cover.
    pub self_us: f64,
}

pub struct Tracer {
    /// Whether this is a traced run at all (recording may still be paused
    /// for a cycle, see [`Tracer::set_on`]).
    traced_run: bool,
    on: AtomicBool,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

static NEXT_TID: AtomicU32 = AtomicU32::new(1);
thread_local! {
    static TID: u32 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Self {
            traced_run: on,
            on: AtomicBool::new(on),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Switch recording on or off (the traced run alternates cycles to
    /// price the tracing itself).
    pub fn set_on(&self, on: bool) {
        self.on.store(on, Ordering::Relaxed);
    }

    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// True in a traced run, whether or not this cycle records spans:
    /// workloads keep per-job records for the per-layer metrics then.
    pub fn traced_run(&self) -> bool {
        self.traced_run
    }

    fn now_us(&self) -> f64 {
        self.origin.elapsed().as_secs_f64() * 1e6
    }

    pub fn begin(&self, name: &'static str, parent: SpanId, job: u64) -> SpanId {
        if !self.is_on() {
            return None;
        }
        let span = Span {
            name,
            parent,
            job,
            tid: TID.with(|t| *t),
            start_us: self.now_us(),
            end_us: None,
        };
        let mut spans = self.spans.lock().expect("tracer poisoned");
        spans.push(span);
        Some(spans.len() - 1)
    }

    pub fn end(&self, id: SpanId) {
        if let Some(i) = id {
            let t = self.now_us();
            self.spans.lock().expect("tracer poisoned")[i].end_us = Some(t);
        }
    }

    /// Run `f` inside a span.
    pub fn scope<R>(
        &self,
        name: &'static str,
        parent: SpanId,
        job: u64,
        f: impl FnOnce(SpanId) -> R,
    ) -> R {
        let id = self.begin(name, parent, job);
        let r = f(id);
        self.end(id);
        r
    }

    /// Number of closed spans recorded.
    pub fn span_count(&self) -> usize {
        let spans = self.spans.lock().expect("tracer poisoned");
        spans.iter().filter(|s| s.end_us.is_some()).count()
    }

    /// Totals and self times per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, NameTotals> {
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut children: Vec<Vec<(f64, f64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let (Some(p), Some(end)) = (s.parent, s.end_us) {
                children[p].push((s.start_us, end));
            }
        }
        let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
        for (s, kids) in spans.iter().zip(children.iter_mut()) {
            let Some(end) = s.end_us else { continue };
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_us += end - s.start_us;
            t.self_us += (end - s.start_us) - covered(kids, s.start_us, end);
        }
        out
    }

    /// Write the spans as Chrome-trace "complete" events (open the file in
    /// `chrome://tracing` or <https://ui.perfetto.dev>).
    pub fn write_chrome(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let spans = self.spans.lock().expect("tracer poisoned");
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"displayTimeUnit\": \"ms\", \"traceEvents\": [")?;
        let mut first = true;
        for (i, s) in spans.iter().enumerate() {
            let Some(end) = s.end_us else { continue };
            if !first {
                writeln!(w, ",")?;
            }
            first = false;
            let parent = s.parent.map_or(-1, |p| p as i64);
            write!(
                w,
                "{{\"name\": {}, \"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"ts\": {:.3}, \
                 \"dur\": {:.3}, \"args\": {{\"id\": {}, \"parent\": {}, \"job\": {}}}}}",
                quote(s.name),
                s.tid,
                s.start_us,
                end - s.start_us,
                i,
                parent,
                s.job
            )?;
        }
        writeln!(w, "\n]}}")?;
        w.flush()
    }
}

/// Length of `[lo, hi]` covered by the union of `intervals`.
fn covered(intervals: &mut [(f64, f64)], lo: f64, hi: f64) -> f64 {
    intervals.sort_by(|a, b| a.partial_cmp(b).expect("NaN span time"));
    let (mut total, mut reach) = (0.0, lo);
    for &(a, b) in intervals.iter() {
        let (a, b) = (a.max(reach), b.min(hi));
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        assert!(id.is_none());
        t.end(id);
        assert_eq!(t.span_count(), 0);
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut kids = vec![(2.0, 5.0), (4.0, 6.0), (8.0, 20.0)];
        // [2,6] ∪ [8,10] inside [0,10] covers 6.
        assert_eq!(covered(&mut kids, 0.0, 10.0), 6.0);
    }

    #[test]
    fn spans_nest_and_total_by_name() {
        let t = Tracer::new(true);
        t.scope("outer", None, 0, |outer| {
            t.scope("inner", outer, 7, |_| std::hint::black_box(1 + 1));
            t.scope("inner", outer, 7, |_| std::hint::black_box(1 + 1));
        });
        let totals = t.totals();
        assert_eq!(totals["outer"].count, 1);
        assert_eq!(totals["inner"].count, 2);
        assert!(totals["outer"].self_us <= totals["outer"].total_us);
        assert!(totals["outer"].total_us >= totals["inner"].total_us);
    }

    #[test]
    fn chrome_trace_is_loadable_json() {
        let t = Tracer::new(true);
        t.scope("run", None, 0, |run| {
            t.scope("job \"quoted\"", run, 3, |_| ())
        });
        let path = crate::out_dir().join(format!("trace-test-{}.json", std::process::id()));
        t.write_chrome(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let doc = crate::json::parse(&text).unwrap();
        let events = doc.get("traceEvents").unwrap().as_array().unwrap();
        assert_eq!(events.len(), 2);
        assert_eq!(
            events[1]
                .get("args")
                .unwrap()
                .get("parent")
                .unwrap()
                .as_f64(),
            Some(0.0)
        );
    }
}
