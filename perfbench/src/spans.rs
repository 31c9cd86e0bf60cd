//! In-memory spans for the traced run.
//!
//! A span is a named interval with an optional parent; every span of one
//! request (a trace rep, a serve session) carries the same request id.
//! Calls too frequent to record one by one — the engine's per-block
//! callbacks — are folded into one [`Aggregate`] per call site under the
//! span that made them. Nothing is written until [`Tracer::write`], after
//! measuring ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::io;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its tracer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct SpanId(usize);

/// One recorded interval, in nanoseconds since the tracer was created.
#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// What the interval covers (a layer call).
    pub name: &'static str,
    /// The span that caused this one.
    pub parent: Option<usize>,
    /// Shared by every span of one request.
    pub request: u64,
    /// Start time.
    pub start_ns: u64,
    /// End time (equal to start until the span is closed).
    pub end_ns: u64,
}

/// Calls from one call site under one span, folded into a count and a
/// total time.
#[derive(Clone, Debug, PartialEq)]
pub struct Aggregate {
    /// The span the calls were made under.
    pub parent: usize,
    /// The call site.
    pub name: &'static str,
    /// Calls made.
    pub calls: u64,
    /// Total time inside the calls.
    pub ns: u64,
}

/// Records spans when enabled; every method is a no-op otherwise.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    aggregates: Vec<Aggregate>,
}

impl Tracer {
    /// A tracer that records only when `enabled`.
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
        }
    }

    /// True when spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span now.
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, request: u64) -> SpanId {
        if !self.enabled {
            return SpanId(usize::MAX);
        }
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            parent: parent.map(|p| p.0),
            request,
            start_ns: now,
            end_ns: now,
        });
        SpanId(self.spans.len() - 1)
    }

    /// Closes a span now.
    pub fn end(&mut self, id: SpanId) {
        if self.enabled {
            let now = self.now_ns();
            self.spans[id.0].end_ns = now;
        }
    }

    /// Records `calls` calls totalling `ns` from call site `name` under
    /// `parent`.
    pub fn aggregate(&mut self, parent: SpanId, name: &'static str, calls: u64, ns: u64) {
        if self.enabled {
            self.aggregates.push(Aggregate {
                parent: parent.0,
                name,
                calls,
                ns,
            });
        }
    }

    /// Spans recorded so far.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time of every span; see [`self_times`].
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans, &self.aggregates)
    }

    /// Per span name: (count, total ns, self ns), in name order.
    pub fn summary(&self) -> BTreeMap<&'static str, (u64, u64, u64)> {
        let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            let e = out.entry(span.name).or_default();
            e.0 += 1;
            e.1 += span.end_ns - span.start_ns;
            e.2 += self_ns;
        }
        out
    }

    /// Writes every span and aggregate as JSON lines, then one summary
    /// line per span name.
    pub fn write(&self, path: &Path) -> io::Result<()> {
        let mut out = String::new();
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"kind\":\"span\",\"id\":{i},\"parent\":{parent},\"request\":{},\
                 \"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.request, s.name, s.start_ns, s.end_ns
            );
        }
        for a in &self.aggregates {
            let _ = writeln!(
                out,
                "{{\"kind\":\"aggregate\",\"parent\":{},\"name\":\"{}\",\"calls\":{},\"ns\":{}}}",
                a.parent, a.name, a.calls, a.ns
            );
        }
        for (name, (count, total, self_ns)) in self.summary() {
            let _ = writeln!(
                out,
                "{{\"kind\":\"summary\",\"name\":\"{name}\",\"count\":{count},\
                 \"total_ns\":{total},\"self_ns\":{self_ns}}}"
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, out)
    }
}

/// Self time of each span: its duration minus the part of its interval
/// that its child spans cover (overlapping children count once), minus
/// the time of the aggregated calls made under it.
pub fn self_times(spans: &[Span], aggregates: &[Aggregate]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p];
            let start = s.start_ns.max(parent.start_ns);
            let end = s.end_ns.min(parent.end_ns);
            if start < end {
                children[p].push((start, end));
            }
        }
    }
    let mut out: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for (i, mut intervals) in children.into_iter().enumerate() {
        intervals.sort_unstable();
        let mut covered = 0;
        let mut reach = 0;
        for (start, end) in intervals {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        out[i] = out[i].saturating_sub(covered);
    }
    for a in aggregates {
        out[a.parent] = out[a.parent].saturating_sub(a.ns);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            parent,
            request: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_disjoint_children() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 30),
            span(Some(0), 50, 60),
        ];
        assert_eq!(self_times(&spans, &[]), vec![70, 20, 10]);
    }

    #[test]
    fn overlapping_children_count_once() {
        // Children cover [10,40) and [30,70): together [10,70).
        let spans = [
            span(None, 0, 100),
            span(Some(0), 10, 40),
            span(Some(0), 30, 70),
        ];
        assert_eq!(self_times(&spans, &[])[0], 40);
        // A child nested inside another covers nothing new.
        let nested = [
            span(None, 0, 100),
            span(Some(0), 10, 90),
            span(Some(0), 20, 30),
        ];
        assert_eq!(self_times(&nested, &[])[0], 20);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        let spans = [
            span(None, 50, 100),
            span(Some(0), 0, 60),
            span(Some(0), 90, 200),
        ];
        assert_eq!(self_times(&spans, &[])[0], 30);
    }

    #[test]
    fn grandchildren_only_reduce_their_own_parent() {
        let spans = [
            span(None, 0, 100),
            span(Some(0), 0, 50),
            span(Some(1), 0, 20),
        ];
        assert_eq!(self_times(&spans, &[]), vec![50, 30, 20]);
    }

    #[test]
    fn aggregates_reduce_their_parent() {
        let spans = [span(None, 0, 100), span(Some(0), 0, 40)];
        let aggs = [
            Aggregate {
                parent: 1,
                name: "cb",
                calls: 3,
                ns: 15,
            },
            Aggregate {
                parent: 0,
                name: "cb",
                calls: 1,
                ns: 500,
            },
        ];
        assert_eq!(self_times(&spans, &aggs), vec![0, 25]);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 1);
        t.aggregate(id, "cb", 1, 1);
        t.end(id);
        assert!(t.spans().is_empty());
        assert!(t.summary().is_empty());
    }

    #[test]
    fn enabled_tracer_links_parents_and_requests() {
        let mut t = Tracer::new(true);
        let root = t.begin("root", None, 7);
        let child = t.begin("child", Some(root), 7);
        t.end(child);
        t.end(root);
        let spans = t.spans();
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans.iter().all(|s| s.request == 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert_eq!(t.summary().len(), 2);
    }
}
