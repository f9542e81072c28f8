//! In-memory span recorder for the traced run.
//!
//! Spans are recorded by the benchmark around each call it makes into a
//! workspace crate; the program itself is not instrumented. A span is named
//! `layer.call`, has a start, an end and the span that caused it, and all
//! spans of one simulation or scenario share a `group` id. Calls made
//! hundreds of thousands of times (the checker's `clone` / `step_choice` /
//! `fingerprint`) are folded into per-parent aggregates instead of one span
//! each, so the trace stays small; an aggregate counts as a child of its
//! parent when self time is computed.

use lrc_json::{json, Value};
use std::collections::BTreeMap;
use std::time::Instant;

/// Index of a span in [`Tracer::spans`].
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// `layer.call`.
    pub name: &'static str,
    /// Nanoseconds since the tracer was created.
    pub start_ns: u64,
    /// Nanoseconds since the tracer was created (`start_ns` while open).
    pub end_ns: u64,
    /// The enclosing span, if any.
    pub parent: Option<SpanId>,
    /// Shared by every span of one simulation or scenario.
    pub group: u64,
}

/// Many short calls of one name under one parent, folded together. The
/// calls are sequential and nested inside the parent, so their summed
/// duration is the part of the parent they cover.
#[derive(Debug, Clone, PartialEq)]
pub struct Aggregate {
    /// `layer.call`.
    pub name: &'static str,
    /// The span the calls ran inside.
    pub parent: SpanId,
    /// Number of calls.
    pub count: u64,
    /// Summed duration of the calls.
    pub total_ns: u64,
}

/// Records spans and aggregates; written out once, at the end of the run.
pub struct Tracer {
    origin: Instant,
    /// Every span, in the order they were opened.
    pub spans: Vec<Span>,
    /// Folded short calls.
    pub aggregates: Vec<Aggregate>,
    open: Vec<SpanId>,
    group: u64,
}

impl Tracer {
    /// An empty trace whose clock starts now.
    pub fn new() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            aggregates: Vec::new(),
            open: Vec::new(),
            group: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Set the group id given to spans opened from now on.
    pub fn set_group(&mut self, group: u64) {
        self.group = group;
    }

    /// Run `f` inside a span named `name`, child of the innermost open span.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            group: self.group,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Run `f` and fold its duration into the aggregate `name` under the
    /// innermost open span.
    pub fn call<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let t = Instant::now();
        let out = f();
        let ns = t.elapsed().as_nanos() as u64;
        let parent = *self
            .open
            .last()
            .expect("aggregated calls run inside a span");
        match self
            .aggregates
            .iter_mut()
            .rev()
            .find(|a| a.parent == parent && a.name == name)
        {
            Some(a) => {
                a.count += 1;
                a.total_ns += ns;
            }
            None => self.aggregates.push(Aggregate {
                name,
                parent,
                count: 1,
                total_ns: ns,
            }),
        }
        out
    }

    /// Summed duration of every span named `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64)
            .sum::<f64>()
            / 1e9
    }

    /// Summed (count, nanoseconds) of every aggregate named `name`.
    pub fn aggregate(&self, name: &str) -> (u64, u64) {
        self.aggregates
            .iter()
            .filter(|a| a.name == name)
            .fold((0, 0), |(c, t), a| (c + a.count, t + a.total_ns))
    }

    /// The trace as JSON, for writing out at exit.
    pub fn to_json(&self) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "start_ns": s.start_ns,
                    "end_ns": s.end_ns,
                    "parent": s.parent.map_or(Value::Null, Value::from),
                    "group": s.group,
                })
            })
            .collect();
        let aggregates: Vec<Value> = self
            .aggregates
            .iter()
            .map(|a| json!({ "name": a.name, "parent": a.parent, "count": a.count, "total_ns": a.total_ns }))
            .collect();
        json!({ "spans": spans, "aggregates": aggregates })
    }
}

/// Self time of each span: its duration minus the part of its interval
/// covered by its child spans (overlapping children count once) and by
/// the aggregates folded under it.
pub fn self_times_ns(spans: &[Span], aggregates: &[Aggregate]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    let mut folded = vec![0u64; spans.len()];
    for a in aggregates {
        folded[a.parent] += a.total_ns;
    }
    spans
        .iter()
        .enumerate()
        .map(|(i, s)| {
            let kids = &mut children[i];
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let (lo, hi) = (lo.max(reach), hi.min(s.end_ns));
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered + folded[i])
        })
        .collect()
}

/// Self time summed per layer (the span name up to its first `.`), in
/// seconds, with aggregates credited to their own layer.
pub fn layer_self_s(spans: &[Span], aggregates: &[Aggregate]) -> BTreeMap<String, f64> {
    let layer = |name: &str| name.split('.').next().unwrap_or(name).to_string();
    let mut ns: BTreeMap<String, u64> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times_ns(spans, aggregates)) {
        *ns.entry(layer(s.name)).or_default() += self_ns;
    }
    for a in aggregates {
        *ns.entry(layer(a.name)).or_default() += a.total_ns;
    }
    ns.into_iter().map(|(l, t)| (l, t as f64 / 1e9)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            group: 0,
        }
    }

    /// A hand-built tree:
    ///
    /// ```text
    /// 0 core.run      [0, 100)
    /// 1   mesh.send   [10, 30)
    /// 2   mesh.send   [20, 50)   overlaps 1: [10, 50) counts once
    /// 3   mem.probe   [60, 70)
    /// 4     sim.push  [62, 65)
    ///     + 5 ns of aggregated core.clone calls under 3
    /// 5 check.dfs     [200, 260)  a second root
    /// ```
    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        let spans = vec![
            span("core.run", 0, 100, None),
            span("mesh.send", 10, 30, Some(0)),
            span("mesh.send", 20, 50, Some(0)),
            span("mem.probe", 60, 70, Some(0)),
            span("sim.push", 62, 65, Some(3)),
            span("check.dfs", 200, 260, None),
        ];
        let aggs = vec![Aggregate {
            name: "core.clone",
            parent: 3,
            count: 2,
            total_ns: 5,
        }];
        assert_eq!(
            self_times_ns(&spans, &aggs),
            vec![100 - 40 - 10, 20, 30, 10 - 3 - 5, 3, 60]
        );
        let by_layer = layer_self_s(&spans, &aggs);
        assert_eq!(by_layer["core"], (50.0 + 5.0) / 1e9);
        assert_eq!(by_layer["mesh"], 50.0 / 1e9);
        assert_eq!(by_layer["mem"], 2.0 / 1e9);
        assert_eq!(by_layer["check"], 60.0 / 1e9);
    }

    #[test]
    fn children_clipped_to_parent_interval() {
        let spans = vec![
            span("core.run", 10, 20, None),
            span("sim.pop", 5, 15, Some(0)),
        ];
        assert_eq!(self_times_ns(&spans, &[]), vec![5, 10]);
    }

    #[test]
    fn tracer_nests_and_aggregates() {
        let mut t = Tracer::new();
        t.set_group(7);
        let v = t.span("core.run", |t| {
            t.span("mesh.send", |_| ());
            t.call("core.clone", || 1) + t.call("core.clone", || 2)
        });
        assert_eq!(v, 3);
        assert_eq!(t.spans.len(), 2);
        assert_eq!(t.spans[1].parent, Some(0));
        assert!(t
            .spans
            .iter()
            .all(|s| s.group == 7 && s.end_ns >= s.start_ns));
        assert_eq!(t.aggregate("core.clone").0, 2);
        assert_eq!(t.aggregates.len(), 1);
    }
}
