//! Spans recorded by the harness around its calls into each layer.
//!
//! Everything is timed from outside: a span brackets a public function
//! call, server-reported numbers ride along as counts on the span that
//! received them. Spans stay in memory and are written out when the run
//! ends.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

pub type SpanId = usize;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: SpanId,
    pub parent: Option<SpanId>,
    /// Spans of one request (and of its replay) share this.
    pub request: Option<u64>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Counts observed at this boundary (server-reported queue wait,
    /// micro-batch size, bytes on the wire).
    pub counts: Vec<(&'static str, f64)>,
}

impl Span {
    pub fn duration_us(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e3
    }
}

#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch`; tracers that are
    /// to be merged share one.
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Appends another tracer's spans (one generator thread's), keeping
    /// their parent links.
    pub fn absorb(&mut self, other: Tracer) {
        let offset = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut span| {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            span
        }));
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span now; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &str, parent: Option<SpanId>, request: Option<u64>) -> SpanId {
        let id = self.spans.len();
        let now = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            request,
            name: name.to_owned(),
            start_ns: now,
            end_ns: now,
            counts: Vec::new(),
        });
        id
    }

    pub fn close(&mut self, id: SpanId) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Times `f` as a span.
    pub fn time<T>(
        &mut self,
        name: &str,
        parent: Option<SpanId>,
        request: Option<u64>,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = f();
        self.close(id);
        out
    }

    pub fn count(&mut self, id: SpanId, key: &'static str, value: f64) {
        self.spans[id].counts.push((key, value));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations of every span with this name, µs.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration_us)
            .collect()
    }

    /// A count of every span with this name that carries it.
    pub fn counts(&self, name: &str, key: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .filter_map(|s| s.counts.iter().find(|(k, _)| *k == key).map(|(_, v)| *v))
            .collect()
    }

    /// Writes one JSON object per span.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let self_ns = self_times_ns(&self.spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for span in &self.spans {
            let mut line = String::new();
            let opt = |v: Option<u64>| v.map_or("null".to_owned(), |v| v.to_string());
            let _ = write!(
                line,
                "{{\"id\": {}, \"parent\": {}, \"request\": {}, \"name\": \"{}\", \
                 \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}",
                span.id,
                opt(span.parent.map(|p| p as u64)),
                opt(span.request),
                span.name,
                span.start_ns,
                span.end_ns,
                self_ns[span.id],
            );
            for (key, value) in &span.counts {
                let _ = write!(line, ", \"{key}\": {value}");
            }
            line.push('}');
            writeln!(out, "{line}")?;
        }
        out.flush()
    }
}

/// Self time per span: its duration minus the part of that interval its
/// child spans cover (children clipped to the parent, overlapping
/// children counted once).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            let p = &spans[parent];
            let start = span.start_ns.clamp(p.start_ns, p.end_ns);
            let end = span.end_ns.clamp(p.start_ns, p.end_ns);
            children[parent].push((start, end));
        }
    }
    spans
        .iter()
        .zip(&mut children)
        .map(|(span, intervals)| {
            intervals.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for &(start, end) in intervals.iter() {
                if end > reach {
                    covered += end - start.max(reach);
                    reach = end;
                }
            }
            (span.end_ns - span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: SpanId, parent: Option<SpanId>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            request: Some(0),
            name: format!("s{id}"),
            start_ns,
            end_ns,
            counts: Vec::new(),
        }
    }

    #[test]
    fn self_time_is_duration_minus_what_children_cover() {
        let spans = [
            span(0, None, 0, 100),    // root
            span(1, Some(0), 10, 30), // child
            span(2, Some(0), 50, 90), // child
            span(3, Some(2), 60, 70), // grandchild: charged to span 2 only
        ];
        assert_eq!(self_times_ns(&spans), [40, 20, 30, 10]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_counted_once_and_clipped() {
        let spans = [
            span(0, None, 100, 200),
            span(1, Some(0), 110, 150),
            span(2, Some(0), 140, 160), // overlaps span 1 by 10
            span(3, Some(0), 190, 250), // overhangs the parent by 50
            span(4, Some(0), 120, 130), // nested inside span 1's interval
        ];
        // Covered: [110,160) = 50 and [190,200) = 10.
        assert_eq!(self_times_ns(&spans)[0], 40);
    }

    #[test]
    fn tracer_records_nesting_counts_and_writes_jsonl() {
        let mut tracer = Tracer::new(Instant::now());
        let root = tracer.open("request", None, Some(4));
        let inner = tracer.time("inner", Some(root), Some(4), || 7);
        assert_eq!(inner, 7);
        tracer.count(root, "coalesced", 3.0);
        tracer.close(root);
        let spans = tracer.spans();
        assert_eq!(spans[1].parent, Some(root));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
        assert_eq!(tracer.counts("request", "coalesced"), [3.0]);
        assert_eq!(tracer.durations_us("inner").len(), 1);
        let self_ns = self_times_ns(tracer.spans());
        assert_eq!(
            self_ns[0] + (spans[1].end_ns - spans[1].start_ns),
            spans[0].end_ns - spans[0].start_ns
        );

        let mut other = Tracer::new(tracer.epoch);
        let other_root = other.open("request", None, Some(5));
        other.time("inner", Some(other_root), Some(5), || ());
        other.close(other_root);
        tracer.absorb(other);
        assert_eq!(tracer.spans()[3].id, 3);
        assert_eq!(tracer.spans()[3].parent, Some(2));
        assert_eq!(tracer.durations_us("inner").len(), 2);

        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("test-spans-{}", std::process::id()));
        let path = dir.join("trace.jsonl");
        tracer.write_jsonl(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        let first = crate::json::parse(lines[0]).unwrap();
        assert_eq!(first.get("name").and_then(|v| v.as_str()), Some("request"));
        assert_eq!(first.get("request").and_then(|v| v.as_f64()), Some(4.0));
        assert_eq!(first.get("coalesced").and_then(|v| v.as_f64()), Some(3.0));
        assert!(first.get("parent").is_some_and(|v| v.is_null()));
    }
}
