//! In-memory span recorder for the traced run.
//!
//! Every call the benchmark makes into a layer can be wrapped in a span:
//! a name, start and end on one monotonic clock, the enclosing span,
//! and the trial or request id that all spans of one trial or request
//! share. Spans stay in memory and are written out once, when the run
//! ends. With tracing off, [`Tracer::span`] only runs the closure.

use crate::stats::median;
use gapbs_telemetry::json::Json;
use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded layer call.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer call, e.g. `kernel` or `snapshot.open`.
    pub name: String,
    /// Free-form qualifier (framework, kernel, graph, ...).
    pub label: String,
    /// Nanoseconds since the recorder's epoch.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's epoch.
    pub end_ns: u64,
    /// Index of the enclosing span in the same recorder.
    pub parent: Option<usize>,
    /// Trial or request id shared by the spans of one trial or request.
    pub group: u64,
}

impl Span {
    /// Wall duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Records spans on one thread; recorders of other threads are merged
/// with [`Tracer::absorb`] at the end of a run.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recorder; `enabled = false` makes every span a plain call.
    pub fn new(enabled: bool, epoch: Instant) -> Tracer {
        Tracer {
            enabled,
            epoch,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Whether spans are being recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// The instant span times are measured from.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; spans opened inside `f`
    /// become its children.
    pub fn span<T>(
        &mut self,
        name: &str,
        label: &str,
        group: u64,
        f: impl FnOnce(&mut Self) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let index = self.spans.len();
        self.spans.push(Span {
            name: name.to_string(),
            label: label.to_string(),
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            group,
        });
        self.open.push(index);
        let out = f(self);
        self.open.pop();
        self.spans[index].end_ns = self.now_ns();
        out
    }

    /// Appends another recorder's spans (re-basing their parent links).
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Wall durations (seconds) of spans named `name`, optionally with
    /// label `label`, in record order.
    pub fn durations(&self, name: &str, label: Option<&str>) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && label.is_none_or(|l| s.label == l))
            .map(|s| s.duration_ns() as f64 * 1e-9)
            .collect()
    }

    /// Median over trace groups of the total duration (seconds) of the
    /// spans named `name` in each group; 0 when there are none. With one
    /// group per repetition of a phase, this is the phase's median cost.
    pub fn median_group_total(&self, name: &str) -> f64 {
        let mut totals: BTreeMap<u64, f64> = BTreeMap::new();
        for s in self.spans.iter().filter(|s| s.name == name) {
            *totals.entry(s.group).or_default() += s.duration_ns() as f64 * 1e-9;
        }
        median(&totals.into_values().collect::<Vec<_>>()).unwrap_or(0.0)
    }

    fn children(&self) -> Vec<Vec<usize>> {
        let mut children = vec![Vec::new(); self.spans.len()];
        for (i, s) in self.spans.iter().enumerate() {
            if let Some(p) = s.parent {
                children[p].push(i);
            }
        }
        children
    }

    /// The spans as a JSON array (one object per span, with its self
    /// time), for the trace file written at the end of a traced run.
    pub fn to_json(&self) -> Json {
        let children = self.children();
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(i, s)| {
                    let own = self_time_ns(s, children[i].iter().map(|&c| &self.spans[c]));
                    Json::obj([
                        ("name".to_string(), Json::Str(s.name.clone())),
                        ("label".to_string(), Json::Str(s.label.clone())),
                        ("start_ns".to_string(), Json::Num(s.start_ns as f64)),
                        ("end_ns".to_string(), Json::Num(s.end_ns as f64)),
                        (
                            "parent".to_string(),
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("group".to_string(), Json::Num(s.group as f64)),
                        ("self_ns".to_string(), Json::Num(own as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of `span`: its duration minus the part of its interval
/// that the union of its children's intervals covers. Children may
/// overlap each other (concurrent calls) or stick out of the parent;
/// only the covered part of the parent's own interval is subtracted.
pub fn self_time_ns<'a>(span: &Span, children: impl Iterator<Item = &'a Span>) -> u64 {
    let mut intervals: Vec<(u64, u64)> = children
        .map(|c| (c.start_ns.max(span.start_ns), c.end_ns.min(span.end_ns)))
        .filter(|(lo, hi)| lo < hi)
        .collect();
    intervals.sort_unstable();
    let mut covered = 0;
    let mut current: Option<(u64, u64)> = None;
    for (lo, hi) in intervals {
        match current {
            Some((clo, chi)) if lo <= chi => current = Some((clo, chi.max(hi))),
            Some((clo, chi)) => {
                covered += chi - clo;
                current = Some((lo, hi));
            }
            None => current = Some((lo, hi)),
        }
    }
    if let Some((clo, chi)) = current {
        covered += chi - clo;
    }
    span.duration_ns().saturating_sub(covered)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s".into(),
            label: String::new(),
            start_ns,
            end_ns,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_overlapping_children() {
        let parent = span(0, 100, None);
        // [10,40) and [30,60) overlap: together they cover [10,60) = 50.
        // [90,130) sticks out of the parent: only [90,100) counts.
        let children = [
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(90, 130, Some(0)),
        ];
        assert_eq!(self_time_ns(&parent, children.iter()), 100 - 50 - 10);
    }

    #[test]
    fn self_time_of_leaf_and_nested_or_disjoint_children() {
        let parent = span(0, 100, None);
        assert_eq!(self_time_ns(&parent, [].iter()), 100);
        // A child inside another child: covered once.
        let nested = [span(10, 50, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_time_ns(&parent, nested.iter()), 60);
        let disjoint = [span(0, 10, Some(0)), span(20, 30, Some(0))];
        assert_eq!(self_time_ns(&parent, disjoint.iter()), 80);
        let outside = [span(200, 300, Some(0))];
        assert_eq!(self_time_ns(&parent, outside.iter()), 100);
    }

    #[test]
    fn tracer_links_children_and_sums_self_time() {
        let mut t = Tracer::new(true, Instant::now());
        t.span("outer", "", 7, |t| {
            t.span("inner", "a", 7, |_| {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
        });
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].group, 7);
        let outer = t.durations("outer", None)[0];
        let inner = t.durations("inner", Some("a"))[0];
        assert!(inner >= 0.002 && outer >= inner);
        let Json::Arr(spans) = t.to_json() else {
            panic!("spans encode as an array")
        };
        let self_s = spans[0].get("self_ns").and_then(Json::as_f64).unwrap() * 1e-9;
        assert!((self_s - (outer - inner)).abs() < 1e-6);

        let mut off = Tracer::new(false, Instant::now());
        assert_eq!(off.span("x", "", 0, |_| 5), 5);
        assert!(off.spans().is_empty());
    }

    #[test]
    fn absorb_rebases_parents() {
        let epoch = Instant::now();
        let mut a = Tracer::new(true, epoch);
        a.span("a", "", 0, |_| {});
        let mut b = Tracer::new(true, epoch);
        b.span("b", "", 1, |t| t.span("c", "", 1, |_| {}));
        a.absorb(b);
        assert_eq!(a.spans()[2].parent, Some(1));
    }
}
