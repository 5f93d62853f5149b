//! Spans recorded in the benchmark's own code, around its calls into each
//! layer. Spans stay in memory until the run ends, then are written out
//! as JSON lines; self time per layer is computed from them.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use crate::util::json_str;

pub struct Span {
    pub id: u32,
    /// 0 for a root span.
    pub parent: u32,
    pub name: &'static str,
    /// The request the span belongs to (the job id for queries, the batch
    /// index for update batches).
    pub request: usize,
    pub start_ns: u64,
    pub end_ns: u64,
}

pub struct Recorder {
    base: Instant,
    pub spans: Vec<Span>,
    /// Time spent recording spans on the load generator's request path,
    /// and the summed latency of the requests it recorded.
    pub overhead: Duration,
    pub traced: Duration,
    /// The root span children attach to, per request.
    roots: BTreeMap<usize, u32>,
}

impl Recorder {
    pub fn new(base: Instant) -> Recorder {
        Recorder {
            base,
            spans: Vec::new(),
            overhead: Duration::ZERO,
            traced: Duration::ZERO,
            roots: BTreeMap::new(),
        }
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.base).as_nanos() as u64
    }

    fn push(&mut self, name: &'static str, parent: u32, request: usize, a: Instant, b: Instant) {
        let id = self.spans.len() as u32 + 1;
        let (start_ns, end_ns) = (self.ns(a), self.ns(b));
        self.spans.push(Span {
            id,
            parent,
            name,
            request,
            start_ns,
            end_ns,
        });
    }

    /// A root span for `request`; later children of the request attach
    /// to it.
    pub fn record(&mut self, name: &'static str, request: usize, a: Instant, b: Instant) {
        self.push(name, 0, request, a, b);
        self.roots.insert(request, self.spans.len() as u32);
    }

    /// Open a root span for `request` now; close it with [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, request: usize, a: Instant) -> usize {
        self.record(name, request, a, a);
        self.spans.len() - 1
    }

    pub fn end(&mut self, span: usize, b: Instant) {
        self.spans[span].end_ns = self.ns(b);
    }

    /// Time `f` as a root span of `request`.
    pub fn time_root<T>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> T) -> T {
        let a = Instant::now();
        let out = f();
        self.record(name, request, a, Instant::now());
        out
    }

    /// A child of `request`'s root span (a root itself if there is none).
    pub fn record_child(&mut self, name: &'static str, request: usize, a: Instant, b: Instant) {
        let parent = self.roots.get(&request).copied().unwrap_or(0);
        self.push(name, parent, request, a, b);
    }

    /// Time `f` as a child span of `request`.
    pub fn time<T>(&mut self, name: &'static str, request: usize, f: impl FnOnce() -> T) -> T {
        let a = Instant::now();
        let out = f();
        self.record_child(name, request, a, Instant::now());
        out
    }

    /// Self time per span name, in seconds: each span's duration minus
    /// the part of it its children cover.
    pub fn self_times(&self) -> BTreeMap<&'static str, (u64, f64)> {
        let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &self.spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, (u64, f64)> = BTreeMap::new();
        for s in &self.spans {
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
            let own = s.end_ns.saturating_sub(s.start_ns).saturating_sub(covered);
            let entry = out.entry(s.name).or_default();
            entry.0 += 1;
            entry.1 += own as f64 / 1e9;
        }
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":{},\"request\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id,
                s.parent,
                json_str(s.name),
                s.request,
                s.start_ns,
                s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_covered_children() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let mut rec = Recorder::new(t0);
        rec.record("root", 1, at(0), at(10));
        rec.record_child("a", 1, at(1), at(4));
        rec.record_child("b", 1, at(3), at(6));
        let st = rec.self_times();
        assert!((st["root"].1 - 0.005).abs() < 1e-9);
        assert!((st["a"].1 - 0.003).abs() < 1e-9);
    }
}
