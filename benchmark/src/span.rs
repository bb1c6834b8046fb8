//! In-memory spans recorded by the harness around its calls into a
//! layer's public functions (the program itself is not instrumented).
//!
//! A span is `(name, start, end, parent, rep)` plus the number of calls
//! it covers: a call that takes tens of nanoseconds is timed as a chunk
//! of many calls under one span, so the clock reads do not drown the
//! work, and the per-call figure is `duration ÷ calls`. Spans stay in
//! memory and are written out once, when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = u32;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: u16,
    parent: u32,
    rep: u32,
    start: u64,
    end: u64,
    calls: u64,
}

/// The span store of one traced run.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    names: Vec<&'static str>,
    spans: Vec<Span>,
    counts: BTreeMap<&'static str, u64>,
}

impl Tracer {
    pub fn new() -> Self {
        Self {
            epoch: Instant::now(),
            names: Vec::new(),
            spans: Vec::new(),
            counts: BTreeMap::new(),
        }
    }

    /// The instant every span offset counts from; threads that time
    /// their own work share it and hand the offsets to
    /// [`Tracer::push`] after they are joined.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Nanoseconds since [`Tracer::epoch`].
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn name_id(&mut self, name: &'static str) -> u16 {
        match self.names.iter().position(|n| *n == name) {
            Some(i) => i as u16,
            None => {
                self.names.push(name);
                (self.names.len() - 1) as u16
            }
        }
    }

    /// Records a finished span from offsets already taken.
    pub fn push(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: u32,
        start: u64,
        end: u64,
        calls: u64,
    ) -> SpanId {
        let name = self.name_id(name);
        self.spans.push(Span {
            name,
            parent: parent.unwrap_or(NO_PARENT),
            rep,
            start,
            end: end.max(start),
            calls,
        });
        (self.spans.len() - 1) as SpanId
    }

    /// Opens a span now; [`Tracer::close`] ends it.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, rep: u32) -> SpanId {
        let now = self.now();
        self.push(name, parent, rep, now, now, 1)
    }

    /// Ends an open span now, covering `calls` calls.
    pub fn close(&mut self, id: SpanId, calls: u64) {
        let now = self.now();
        let span = &mut self.spans[id as usize];
        span.end = now.max(span.start);
        span.calls = calls;
    }

    /// Times `f` as one span covering `calls` calls.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        rep: u32,
        calls: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let start = self.now();
        let out = f();
        let end = self.now();
        self.push(name, parent, rep, start, end, calls);
        out
    }

    /// Adds to a named count taken at a layer boundary.
    pub fn count(&mut self, name: &'static str, n: u64) {
        *self.counts.entry(name).or_insert(0) += n;
    }

    /// A named count (0 when never counted).
    pub fn counted(&self, name: &str) -> u64 {
        self.counts.get(name).copied().unwrap_or(0)
    }

    fn named(&self, name: &str) -> impl Iterator<Item = &Span> + '_ {
        let id = self.names.iter().position(|n| *n == name);
        self.spans
            .iter()
            .filter(move |s| Some(s.name as usize) == id)
    }

    /// Nanoseconds per call of every span called `name`.
    pub fn per_call(&self, name: &str) -> Vec<f64> {
        self.named(name)
            .filter(|s| s.calls > 0)
            .map(|s| (s.end - s.start) as f64 / s.calls as f64)
            .collect()
    }

    /// Nanoseconds of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.named(name).map(|s| (s.end - s.start) as f64).collect()
    }

    /// Total nanoseconds and calls under `name`.
    pub fn total(&self, name: &str) -> (u64, u64) {
        self.named(name).fold((0, 0), |(ns, calls), s| {
            (ns + (s.end - s.start), calls + s.calls)
        })
    }

    /// Each span's self time: its duration minus the part of its
    /// interval that its child spans cover. Children may overlap one
    /// another (two threads under one parent), so the covered part is
    /// the union of their intervals clipped to the parent.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children[s.parent as usize].push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let a = a.clamp(cursor, s.end);
                    let b = b.clamp(cursor, s.end);
                    covered += b - a;
                    cursor = cursor.max(b);
                }
                (s.end - s.start) - covered
            })
            .collect()
    }

    /// Total self time per span name, in nanoseconds.
    pub fn self_by_name(&self) -> BTreeMap<&'static str, u64> {
        let mut out = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self.self_ns()) {
            *out.entry(self.names[s.name as usize]).or_insert(0) += own;
        }
        out
    }

    /// Number of spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span and count as one JSON document:
    /// `spans` rows are `[name index, parent (-1: none), rep, start ns,
    /// end ns, calls]`.
    pub fn write(&self, path: &Path, workload: &str) -> io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        write!(out, "{{\"workload\": \"{workload}\", \"names\": [")?;
        for (i, n) in self.names.iter().enumerate() {
            write!(out, "{}\"{n}\"", if i > 0 { ", " } else { "" })?;
        }
        write!(out, "],\n\"counts\": {{")?;
        for (i, (k, v)) in self.counts.iter().enumerate() {
            write!(out, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" })?;
        }
        write!(out, "}},\n\"self_ns\": {{")?;
        for (i, (k, v)) in self.self_by_name().iter().enumerate() {
            write!(out, "{}\"{k}\": {v}", if i > 0 { ", " } else { "" })?;
        }
        writeln!(
            out,
            "}},\n\"columns\": [\"name\", \"parent\", \"rep\", \"start_ns\", \"end_ns\", \"calls\"],\n\"spans\": ["
        )?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            writeln!(
                out,
                "[{}, {parent}, {}, {}, {}, {}]{}",
                s.name,
                s.rep,
                s.start,
                s.end,
                s.calls,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let mut t = Tracer::new();
        let root = t.push("rep", None, 0, 0, 100, 1);
        let mid = t.push("pipeline", Some(root), 0, 10, 70, 1);
        t.push("cluster", Some(mid), 0, 20, 50, 1);
        let own = t.self_ns();
        // The grandchild is inside the child: the root loses only the
        // child's 60, the child loses the grandchild's 30.
        assert_eq!(own, vec![40, 30, 30]);
    }

    #[test]
    fn self_time_subtracts_sibling_children_by_union() {
        let mut t = Tracer::new();
        let root = t.push("rep", None, 0, 0, 100, 1);
        t.push("send", Some(root), 0, 10, 40, 1);
        t.push("serve", Some(root), 0, 30, 60, 1); // overlaps `send` by 10
        t.push("finish", Some(root), 0, 80, 90, 1);
        assert_eq!(t.self_ns()[0], 100 - 50 - 10);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let mut t = Tracer::new();
        let root = t.push("rep", None, 0, 50, 100, 1);
        t.push("early", Some(root), 0, 0, 60, 1);
        t.push("late", Some(root), 0, 90, 150, 1);
        assert_eq!(t.self_ns()[0], 30);
    }

    #[test]
    fn per_call_divides_a_chunk_by_its_calls() {
        let mut t = Tracer::new();
        t.push("hmm.observe", None, 0, 0, 1_000, 100);
        t.push("hmm.observe", None, 1, 0, 3_000, 100);
        t.push("other", None, 0, 0, 7, 1);
        assert_eq!(t.per_call("hmm.observe"), vec![10.0, 30.0]);
        assert_eq!(t.total("hmm.observe"), (4_000, 200));
        assert!(t.per_call("absent").is_empty());
    }

    #[test]
    fn self_time_by_name_sums_over_spans() {
        let mut t = Tracer::new();
        let a = t.push("rep", None, 0, 0, 10, 1);
        t.push("leaf", Some(a), 0, 2, 4, 1);
        let b = t.push("rep", None, 1, 10, 30, 1);
        t.push("leaf", Some(b), 1, 12, 20, 1);
        let by = t.self_by_name();
        assert_eq!(by["rep"], 8 + 12);
        assert_eq!(by["leaf"], 2 + 8);
        t.count("wal.syncs", 3);
        t.count("wal.syncs", 2);
        assert_eq!(t.counted("wal.syncs"), 5);
    }
}
