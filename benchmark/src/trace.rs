//! The traced run's spans: recorded from the benchmark's own call sites,
//! around every call into a layer, kept in memory and written out when
//! the run ends.

use std::collections::HashMap;
use std::io::{BufWriter, Write};
use std::path::Path;

use crate::sys;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Id of the span that caused this one; `0` for a root.
    pub parent: u32,
    /// Spans of one op share this.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// One thread's span recorder. Ids are `lane << 24 | index + 1`, so
/// recorders of different threads merge without renumbering.
pub struct Tracer {
    enabled: bool,
    lane: u32,
    spans: Vec<Span>,
    stack: Vec<u32>,
}

/// Handle returned by [`Tracer::enter`]; pass it back to [`Tracer::exit`].
#[derive(Debug, Clone, Copy)]
pub struct Open(usize);

impl Tracer {
    pub fn new(enabled: bool, lane: u32) -> Self {
        Tracer {
            enabled,
            lane,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn off() -> Self {
        Tracer::new(false, 0)
    }

    /// Opens a span as a child of the innermost open span.
    pub fn enter(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(usize::MAX);
        }
        let idx = self.spans.len();
        assert!(idx < (1 << 24) - 1, "span lane overflow");
        let id = (self.lane << 24) | (idx as u32 + 1);
        let start_ns = sys::now_ns();
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.stack.last().copied().unwrap_or(0),
            request,
        });
        self.stack.push(id);
        Open(idx)
    }

    pub fn exit(&mut self, open: Open) {
        if !self.enabled {
            return;
        }
        let end = sys::now_ns();
        let span = &mut self.spans[open.0];
        span.end_ns = end.max(span.start_ns);
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(span.id), "spans close innermost first");
    }

    /// A closed span under an explicit parent, for intervals that were
    /// timed anyway (a request's submit and wait, which interleave with
    /// other requests' and so cannot use the stack).
    pub fn record(
        &mut self,
        name: &'static str,
        request: u64,
        parent: u32,
        start_ns: u64,
        end_ns: u64,
    ) -> u32 {
        if !self.enabled {
            return 0;
        }
        let idx = self.spans.len();
        assert!(idx < (1 << 24) - 1, "span lane overflow");
        let id = (self.lane << 24) | (idx as u32 + 1);
        self.spans.push(Span {
            id,
            name,
            start_ns,
            end_ns: end_ns.max(start_ns),
            parent,
            request,
        });
        id
    }

    /// Times `f` as a span.
    pub fn scoped<T>(&mut self, name: &'static str, request: u64, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name, request);
        let out = f();
        self.exit(open);
        out
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self time per span id: duration minus the part of the interval its
/// children cover (children clipped to the parent, overlaps counted once).
pub fn self_times(spans: &[Span]) -> HashMap<u32, u64> {
    let mut children: HashMap<u32, Vec<(u64, u64)>> = HashMap::new();
    let bounds: HashMap<u32, (u64, u64)> = spans
        .iter()
        .map(|s| (s.id, (s.start_ns, s.end_ns)))
        .collect();
    for s in spans {
        if let Some(&(p0, p1)) = bounds.get(&s.parent) {
            let (a, b) = (s.start_ns.max(p0), s.end_ns.min(p1));
            if a < b {
                children.entry(s.parent).or_default().push((a, b));
            }
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = children.get_mut(&s.id).map_or(0, |iv| {
                iv.sort_unstable();
                let mut total = 0;
                let mut reach = 0;
                for &(a, b) in iv.iter() {
                    let a = a.max(reach);
                    if b > a {
                        total += b - a;
                        reach = b;
                    }
                }
                total
            });
            (s.id, s.duration_ns() - covered)
        })
        .collect()
}

/// Sum of self times per span name, and per root span the sum over its
/// whole tree (which equals the root's duration when children neither
/// overlap nor stick out; the caller asserts that for its ops).
pub struct SelfTimeSums {
    pub by_name: HashMap<&'static str, u64>,
    pub by_root: HashMap<u32, u64>,
}

pub fn self_time_sums(spans: &[Span]) -> SelfTimeSums {
    let selfs = self_times(spans);
    let parent: HashMap<u32, u32> = spans.iter().map(|s| (s.id, s.parent)).collect();
    let mut by_name: HashMap<&'static str, u64> = HashMap::new();
    let mut by_root: HashMap<u32, u64> = HashMap::new();
    for s in spans {
        let own = selfs[&s.id];
        *by_name.entry(s.name).or_default() += own;
        let mut root = s.id;
        while let Some(&p) = parent.get(&root) {
            if p == 0 || !parent.contains_key(&p) {
                break;
            }
            root = p;
        }
        *by_root.entry(root).or_default() += own;
    }
    SelfTimeSums { by_name, by_root }
}

pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            w,
            "{{\"id\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"request\":{}}}",
            s.id, s.name, s.start_ns, s.end_ns, s.parent, s.request
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            name: "x",
            start_ns,
            end_ns,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_with_nested_children() {
        // op 0..100, child a 10..40 with grandchild 20..30, child b 50..90.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 40),
            span(3, 2, 20, 30),
            span(4, 1, 50, 90),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 30);
        assert_eq!(st[&2], 20);
        assert_eq!(st[&3], 10);
        assert_eq!(st[&4], 40);
        let sums = self_time_sums(&spans);
        assert_eq!(sums.by_root[&1], 100, "tree self times add up to the op");
        assert_eq!(sums.by_name["x"], 100);
    }

    #[test]
    fn overlapping_and_protruding_children_are_counted_once_and_clipped() {
        // children 10..60 and 40..80 overlap by 20; child 90..130 sticks out.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 60),
            span(3, 1, 40, 80),
            span(4, 1, 90, 130),
        ];
        let st = self_times(&spans);
        assert_eq!(st[&1], 100 - 70 - 10);
        // A child fully inside a sibling adds nothing.
        let spans = [span(1, 0, 0, 100), span(2, 1, 10, 90), span(3, 1, 20, 30)];
        assert_eq!(self_times(&spans)[&1], 20);
    }

    #[test]
    fn recorder_nests_by_stack_and_can_be_switched_off() {
        let mut t = Tracer::new(true, 3);
        let op = t.enter("op", 7);
        let inner = t.enter("inner", 7);
        t.exit(inner);
        let id = t.record("late", 7, 0, 5, 9);
        t.exit(op);
        let spans = t.into_spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].parent, 0);
        assert_eq!(spans[1].parent, spans[0].id);
        assert_eq!(spans[0].id >> 24, 3);
        assert_eq!(id, spans[2].id);
        assert!(spans[0].end_ns >= spans[1].end_ns);
        assert!(spans.iter().all(|s| s.request == 7));

        let mut off = Tracer::off();
        let o = off.enter("op", 1);
        off.exit(o);
        assert_eq!(off.scoped("x", 1, || 5), 5);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn jsonl_has_one_object_per_span() {
        let dir = std::env::temp_dir().join(format!("pathrank-bench-trace-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.jsonl");
        write_jsonl(&path, &[span(1, 0, 2, 3), span(2, 1, 2, 3)]).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text.lines().count(), 2);
        assert!(text.starts_with(
            "{\"id\":1,\"name\":\"x\",\"start_ns\":2,\"end_ns\":3,\"parent\":0,\"request\":0}"
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
