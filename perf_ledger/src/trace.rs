//! In-memory spans recorded by the benchmark around its calls into the
//! program, written out at exit as Chrome-trace JSON with a per-name
//! self-time summary. Nothing here reaches inside the program: a span
//! covers one public call (or one step of the benchmark's own loop).

use crate::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    /// Spans of one request share this id.
    pub req: u64,
    pub name: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start: u64,
    pub end: u64,
    pub args: Vec<(&'static str, f64)>,
}

/// A span recorder; span ids are indices into its list.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(origin: Instant) -> Self {
        Tracer {
            origin,
            spans: Vec::new(),
        }
    }

    /// Nanoseconds since the origin.
    fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Records a span with explicit bounds and returns its id.
    pub fn record(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.spans.len() as u64;
        self.spans.push(Span {
            id,
            parent,
            req,
            name,
            start: self.at(start),
            end: self.at(end),
            args: Vec::new(),
        });
        id
    }

    /// Runs `f` inside a span; returns the span id and `f`'s result.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> (u64, R) {
        let start = Instant::now();
        let out = f();
        (self.record(name, req, parent, start, Instant::now()), out)
    }

    /// Attaches numeric arguments (e.g. the `RunStats` of a runner call).
    pub fn args(&mut self, id: u64, args: &[(&'static str, f64)]) {
        self.spans[id as usize].args.extend_from_slice(args);
    }

    /// Moves the end of a span — a parent recorded before its children —
    /// to `end`.
    pub fn finish(&mut self, id: u64, end: Instant) {
        let at = self.at(end);
        self.spans[id as usize].end = at;
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Per-name totals: `(count, total_ns, self_ns)`.
pub type Summary = BTreeMap<&'static str, (u64, u64, u64)>;

/// A span's self time is its duration minus the part of its interval that
/// the union of its children covers (children may overlap each other and
/// may stick out of the parent; only the covered part inside counts).
pub fn self_times(spans: &[Span]) -> Summary {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    let mut out = Summary::new();
    for s in spans {
        let dur = s.end.saturating_sub(s.start);
        let covered = children
            .get(&s.id)
            .map_or(0, |kids| covered(s.start, s.end, kids));
        let e = out.entry(s.name).or_insert((0, 0, 0));
        e.0 += 1;
        e.1 += dur;
        e.2 += dur - covered;
    }
    out
}

/// Length of `[lo, hi)` covered by the union of `intervals`.
fn covered(lo: u64, hi: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut iv: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|(a, b)| a < b)
        .collect();
    iv.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in iv {
        match cur {
            Some((ca, cb)) if a <= cb => cur = Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                cur = Some((a, b));
            }
            None => cur = Some((a, b)),
        }
    }
    total + cur.map_or(0, |(a, b)| b - a)
}

/// The Chrome-trace document (`chrome://tracing` / Perfetto "JSON trace
/// event format"), with the self-time summary under an extra top-level key
/// that trace viewers ignore. Each request gets its own track (`tid`), so
/// concurrent requests do not overlap on one.
pub fn chrome_trace(workload: &str, spans: &[Span]) -> Json {
    let us = |ns: u64| Json::Num(ns as f64 / 1e3);
    let events = spans
        .iter()
        .map(|s| {
            let mut args: BTreeMap<String, Json> = s
                .args
                .iter()
                .map(|(k, v)| ((*k).to_owned(), Json::Num(*v)))
                .collect();
            args.insert("id".into(), Json::Num(s.id as f64));
            args.insert("req".into(), Json::Num(s.req as f64));
            if let Some(p) = s.parent {
                args.insert("parent".into(), Json::Num(p as f64));
            }
            Json::obj([
                ("name", s.name.into()),
                ("ph", "X".into()),
                ("pid", 1.0.into()),
                ("tid", s.req.into()),
                ("ts", us(s.start)),
                ("dur", us(s.end.saturating_sub(s.start))),
                ("args", Json::Obj(args)),
            ])
        })
        .collect();
    let summary = self_times(spans)
        .into_iter()
        .map(|(name, (count, total, own))| {
            Json::obj([
                ("name", name.into()),
                ("count", count.into()),
                ("total_ms", (total as f64 / 1e6).into()),
                ("self_ms", (own as f64 / 1e6).into()),
            ])
        })
        .collect();
    Json::obj([
        ("workload", workload.into()),
        ("displayTimeUnit", "ms".into()),
        ("traceEvents", Json::Arr(events)),
        ("selfTimeSummary", Json::Arr(summary)),
    ])
}
