//! Benchmark-owned spans around the calls into each layer.
//!
//! A [`Tracer`] keeps `{id, parent, name, start_ns, end_ns}` records in
//! memory; the parent process merges every child's spans under its own
//! and writes them out once, at exit. Self time is a span's duration
//! minus what its direct children cover.

use std::time::Instant;

use crate::json::Value;

/// One closed (or still open: `end_ns == start_ns`) span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u64,
    /// 0 = root.
    pub parent: u64,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }

    pub fn to_value(&self) -> Value {
        Value::obj([
            ("id", Value::from(self.id)),
            ("parent", Value::from(self.parent)),
            ("name", Value::from(self.name.as_str())),
            ("start_ns", Value::from(self.start_ns)),
            ("end_ns", Value::from(self.end_ns)),
        ])
    }

    pub fn from_value(v: &Value) -> Option<Span> {
        Some(Span {
            id: v.get("id")?.as_f64()? as u64,
            parent: v.get("parent")?.as_f64()? as u64,
            name: v.get("name")?.as_str()?.to_string(),
            start_ns: v.get("start_ns")?.as_f64()? as u64,
            end_ns: v.get("end_ns")?.as_f64()? as u64,
        })
    }
}

/// The `spans` array of a child's sample record.
pub fn spans_of(sample: &Value) -> Vec<Span> {
    sample
        .arr("spans")
        .iter()
        .filter_map(Span::from_value)
        .collect()
}

/// In-memory span recorder with a stack of open spans (single-threaded,
/// like everything it brackets).
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span as a child of the innermost open one.
    pub fn enter(&mut self, name: &str) {
        let id = self.spans.len() as u64 + 1;
        let parent = self.open.last().map_or(0, |&i| self.spans[i].id);
        let t = self.now_ns();
        self.open.push(self.spans.len());
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns: t,
            end_ns: t,
        });
    }

    /// Close the innermost open span; returns its duration in ns.
    pub fn exit(&mut self) -> u64 {
        let i = self.open.pop().expect("exit without enter");
        self.spans[i].end_ns = self.now_ns();
        self.spans[i].dur_ns()
    }

    /// Bracket `f` in a span; returns its result and the span's duration.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Tracer) -> T) -> (T, u64) {
        self.enter(name);
        let out = f(self);
        let ns = self.exit();
        (out, ns)
    }

    /// Record a pre-aggregated child of the innermost open span: a
    /// subsystem's summed time inside it (the harness's `CycleScope`
    /// totals), laid out as `[parent.start, parent.start + nanos]`.
    pub fn add_aggregate(&mut self, name: &str, nanos: u64) {
        let p = &self.spans[*self.open.last().expect("aggregate needs an open span")];
        let (parent, start_ns) = (p.id, p.start_ns);
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            parent,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns + nanos,
        });
    }

    /// Graft another tracer's spans (a child process's) under the
    /// innermost open span, re-numbering ids and shifting times so the
    /// grafted tree ends where the enclosing span currently is.
    pub fn adopt(&mut self, foreign: &[Span]) {
        let base = self.spans.len() as u64;
        let host = self.open.last().map_or(0, |&i| self.spans[i].id);
        let last_end = foreign.iter().map(|s| s.end_ns).max().unwrap_or(0);
        let shift = self.now_ns().saturating_sub(last_end);
        for s in foreign {
            self.spans.push(Span {
                id: s.id + base,
                parent: if s.parent == 0 { host } else { s.parent + base },
                name: s.name.clone(),
                start_ns: s.start_ns + shift,
                end_ns: s.end_ns + shift,
            });
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of span `id`: its duration minus the summed durations of
/// its direct children (clamped at zero — aggregates are measured with
/// a different clock read than their parent).
pub fn self_ns(spans: &[Span], id: u64) -> u64 {
    let own = spans.iter().find(|s| s.id == id).map_or(0, Span::dur_ns);
    let children: u64 = spans
        .iter()
        .filter(|s| s.parent == id)
        .map(Span::dur_ns)
        .sum();
    own.saturating_sub(children)
}

/// First span called `name`.
pub fn find<'a>(spans: &'a [Span], name: &str) -> Option<&'a Span> {
    spans.iter().find(|s| s.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sp(id: u64, parent: u64, name: &str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: name.into(),
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_direct_children() {
        let spans = vec![
            sp(1, 0, "child", 0, 1000),
            sp(2, 1, "world_new", 0, 100),
            sp(3, 1, "run", 100, 900),
            sp(4, 3, "harness.gnb", 100, 400),
            sp(5, 3, "harness.transport", 100, 350),
            sp(6, 1, "summarise", 900, 990),
        ];
        assert_eq!(self_ns(&spans, 1), 1000 - 100 - 800 - 90);
        assert_eq!(self_ns(&spans, 3), 800 - 300 - 250); // grandchildren not double-counted
        assert_eq!(self_ns(&spans, 2), 100);
        // Children that over-cover their parent clamp to zero.
        let over = vec![
            sp(1, 0, "run", 0, 10),
            sp(2, 1, "a", 0, 8),
            sp(3, 1, "b", 0, 8),
        ];
        assert_eq!(self_ns(&over, 1), 0);
        assert_eq!(self_ns(&over, 99), 0);
    }

    #[test]
    fn tracer_nests_aggregates_and_adopts_with_parent_links() {
        let mut t = Tracer::new();
        let ((), _) = t.span("outer", |t| {
            t.span("inner", |t| t.add_aggregate("agg", 5));
        });
        let s = t.spans().to_vec();
        assert_eq!(
            s.iter()
                .map(|s| (s.id, s.parent, s.name.as_str()))
                .collect::<Vec<_>>(),
            [(1, 0, "outer"), (2, 1, "inner"), (3, 2, "agg")]
        );
        assert_eq!(s[2].dur_ns(), 5);
        assert!(s[0].end_ns >= s[1].end_ns && s[1].start_ns >= s[0].start_ns);

        let mut host = Tracer::new();
        host.enter("sample");
        host.adopt(&s);
        host.exit();
        let h = host.spans();
        assert_eq!(h.len(), 4);
        assert_eq!((h[1].id, h[1].parent), (2, 1)); // foreign root hangs off "sample"
        assert_eq!((h[2].id, h[2].parent), (3, 2));
        assert_eq!((h[3].id, h[3].parent), (4, 3));
        assert_eq!(h[3].dur_ns(), 5);
        assert_eq!(find(h, "agg").unwrap().id, 4);

        for s in h {
            assert_eq!(
                Span::from_value(&Value::parse(&s.to_value().to_json()).unwrap()).unwrap(),
                *s
            );
        }
    }
}
