//! In-memory spans recorded around the benchmark's calls into each layer.
//!
//! A span has a name, an optional tag (an algorithm name, say), start and
//! end times, its parent span and the id of the run or request it belongs
//! to. Spans stay in memory and are folded into per-layer self times when
//! the run ends. A disabled [`Tracer`] records nothing and never reads the
//! clock, so untraced runs pay one branch per call site.

use std::collections::BTreeMap;

use crate::clock::Clock;

/// One recorded span.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the run (tracers on different threads use disjoint
    /// id ranges).
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// The run or request this span belongs to; shared by all its spans.
    pub run: u64,
    /// Layer call name, e.g. `mst_core.run`.
    pub name: &'static str,
    /// Refinement of the name (an algorithm), or `""`.
    pub tag: &'static str,
    /// Start, nanoseconds since the clock epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the clock epoch.
    pub end_ns: u64,
}

/// Handle returned by [`Tracer::begin`] and consumed by [`Tracer::end`].
#[derive(Debug)]
#[must_use = "a begun span must be ended"]
pub struct Open(Option<usize>);

/// A per-thread span recorder.
#[derive(Debug)]
pub struct Tracer {
    clock: Clock,
    enabled: bool,
    next_id: u64,
    spans: Vec<Span>,
    stack: Vec<u64>,
}

impl Tracer {
    /// A recorder whose span ids start at `id_base` (give each thread its
    /// own base so merged spans keep unique ids).
    pub fn new(clock: Clock, enabled: bool, id_base: u64) -> Tracer {
        Tracer {
            clock,
            enabled,
            next_id: id_base,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Opens a span nested in the innermost open one.
    pub fn begin(&mut self, name: &'static str, tag: &'static str, run: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.next_id;
        self.next_id += 1;
        let start_ns = self.clock.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied(),
            run,
            name,
            tag,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        Open(Some(self.spans.len() - 1))
    }

    /// Closes a span opened by [`Tracer::begin`].
    pub fn end(&mut self, open: Open) {
        if let Some(index) = open.0 {
            self.spans[index].end_ns = self.clock.now_ns();
            self.stack.pop();
        }
    }

    /// Runs `f` inside a span.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        tag: &'static str,
        run: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let open = self.begin(name, tag, run);
        let out = f();
        self.end(open);
        out
    }

    /// The recorded spans, consuming the tracer.
    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// Self times in nanoseconds, summed per `(name, tag)`.
pub type SelfTimes = BTreeMap<(&'static str, &'static str), u64>;

/// Self time per `(name, tag)`: each span's duration minus the part of
/// its interval that its child spans cover (overlapping children count
/// once).
pub fn self_times(spans: &[Span]) -> SelfTimes {
    let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    let mut out = SelfTimes::new();
    for s in spans {
        let mut covered = 0;
        if let Some(kids) = children.get_mut(&s.id) {
            kids.sort_unstable();
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
        }
        *out.entry((s.name, s.tag)).or_default() += (s.end_ns - s.start_ns).saturating_sub(covered);
    }
    out
}

/// Self time of `name` summed over every tag, in nanoseconds.
pub fn name_total(times: &SelfTimes, name: &str) -> u64 {
    times
        .iter()
        .filter(|((n, _), _)| *n == name)
        .map(|(_, ns)| ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            run: 7,
            name,
            tag: "",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_covered_child_intervals() {
        // root [0,100) ⊃ a [10,40) ⊃ c [20,25); root ⊃ b [50,90).
        // A second root child d [30,60) overlaps a and b: covered once.
        let spans = vec![
            span(1, None, "root", 0, 100),
            span(2, Some(1), "a", 10, 40),
            span(3, Some(2), "c", 20, 25),
            span(4, Some(1), "b", 50, 90),
            span(5, Some(1), "d", 30, 60),
        ];
        let t = self_times(&spans);
        // root covered by [10,90) = 80 → self 20.
        assert_eq!(t[&("root", "")], 20);
        assert_eq!(t[&("a", "")], 25);
        assert_eq!(t[&("c", "")], 5);
        assert_eq!(t[&("b", "")], 40);
        assert_eq!(t[&("d", "")], 30);
        // Self times of a properly nested tree sum to the root's duration.
        let nested: Vec<Span> = spans.into_iter().filter(|s| s.name != "d").collect();
        let total: u64 = self_times(&nested).values().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn children_outside_the_parent_are_clipped() {
        let spans = vec![span(1, None, "p", 10, 20), span(2, Some(1), "k", 15, 30)];
        let t = self_times(&spans);
        assert_eq!(t[&("p", "")], 5);
        assert_eq!(t[&("k", "")], 15);
    }

    #[test]
    fn tracer_nests_and_shares_run_ids() {
        let mut tr = Tracer::new(Clock::new(), true, 100);
        let outer = tr.begin("outer", "", 3);
        let v = tr.span("inner", "tag", 3, || 41 + 1);
        tr.end(outer);
        assert_eq!(v, 42);
        let spans = tr.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].id, 100);
        assert_eq!(spans[1].parent, Some(100));
        assert!(spans.iter().all(|s| s.run == 3 && s.end_ns >= s.start_ns));
        let off = Tracer::new(Clock::new(), false, 0);
        assert!(off.into_spans().is_empty());
    }

    #[test]
    fn name_total_sums_tags() {
        let mut a = span(1, None, "run", 0, 10);
        a.tag = "x";
        let mut b = span(2, None, "run", 0, 5);
        b.tag = "y";
        let t = self_times(&[a, b]);
        assert_eq!(name_total(&t, "run"), 15);
    }
}
