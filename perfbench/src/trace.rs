//! Spans recorded by the benchmark around its calls into the program.
//! Each thread keeps its own [`SpanLog`]; logs are merged and written out
//! only when the run ends, so tracing adds no I/O to a timed phase.

use std::collections::{BTreeMap, HashMap};
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Request the span belongs to (0 when it belongs to no request).
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A tag no other caller in this process has been given: span logs and
/// load phases draw theirs from here, so span and request ids never
/// collide across logs or repeated phases.
pub fn fresh_tag() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// One thread's span buffer. Disabled logs record nothing.
pub struct SpanLog {
    enabled: bool,
    origin: Instant,
    next: u64,
    spans: Vec<Span>,
}

impl SpanLog {
    pub fn new(enabled: bool, origin: Instant) -> Self {
        SpanLog {
            enabled,
            origin,
            next: fresh_tag() << 40,
            spans: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Reserves an id, so children can name a parent recorded after them.
    pub fn id(&mut self) -> u64 {
        self.next += 1;
        self.next
    }

    pub fn record(
        &mut self,
        id: u64,
        parent: Option<u64>,
        req: u64,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) {
        if self.enabled {
            self.spans.push(Span {
                id,
                parent,
                req,
                name,
                start_ns: start.duration_since(self.origin).as_nanos() as u64,
                end_ns: end.duration_since(self.origin).as_nanos() as u64,
            });
        }
    }

    /// Runs `f` inside a new span and returns its result.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<u64>,
        req: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        if !self.enabled {
            return f();
        }
        let id = self.id();
        let start = Instant::now();
        let out = f();
        self.record(id, parent, req, name, start, Instant::now());
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Durations (ns) of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Per span name: (span count, summed self time in ns). A span's self
/// time is its duration minus the part of it its children cover.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for s in spans {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let (a, b) = (a.max(cursor), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        let entry = out.entry(s.name).or_insert((0, 0));
        entry.0 += 1;
        entry.1 += s.duration_ns() - covered.min(s.duration_ns());
    }
    out
}

/// Writes spans as tab-separated rows: id, parent, req, name, start, end.
pub fn write_tsv(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "id\tparent\treq\tname\tstart_ns\tend_ns")?;
    for s in spans {
        let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
        writeln!(
            out,
            "{}\t{parent}\t{}\t{}\t{}\t{}",
            s.id, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns: start,
            end_ns: end,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // request [0, 100): encode [10, 30), submit [20, 50) overlaps it,
        // decode [90, 120) sticks out past the parent's end.
        // submit has a child wait [25, 45).
        let spans = vec![
            span(1, None, "request", 0, 100),
            span(2, Some(1), "encode", 10, 30),
            span(3, Some(1), "submit", 20, 50),
            span(4, Some(3), "wait", 25, 45),
            span(5, Some(1), "decode", 90, 120),
            span(6, None, "request", 200, 210),
        ];
        let selfs = self_times(&spans);
        // Children cover [10, 50) and [90, 100): 50 ns of the first
        // request; the second request has no children.
        assert_eq!(selfs["request"], (2, 50 + 10));
        assert_eq!(selfs["encode"], (1, 20));
        assert_eq!(selfs["submit"], (1, 30 - 20));
        assert_eq!(selfs["wait"], (1, 20));
        assert_eq!(selfs["decode"], (1, 30));
    }

    #[test]
    fn disabled_logs_record_nothing() {
        let mut log = SpanLog::new(false, Instant::now());
        assert_eq!(log.time("x", None, 0, || 5), 5);
        assert!(log.into_spans().is_empty());
    }

    #[test]
    fn ids_of_different_logs_are_disjoint() {
        let origin = Instant::now();
        let mut a = SpanLog::new(true, origin);
        let mut b = SpanLog::new(true, origin);
        assert_ne!(a.id(), b.id());
    }
}
