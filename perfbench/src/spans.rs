//! In-memory span recording for the traced run.
//!
//! The benchmark wraps each call into a layer's public function in a
//! span: a name, a start and end on one monotonic clock, the span that
//! caused it, and the period or batch id it belongs to. Spans stay in a
//! `Vec` until the run ends. A layer's *self time* is a span's duration
//! minus the part of its interval that its children cover; children
//! may overlap each other, so the covered part is the length of their
//! union, clipped to the parent.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer name, e.g. `"parallel"` or `"wire.export"`.
    pub name: &'static str,
    /// Nanoseconds since the recorder's origin.
    pub start_ns: u64,
    /// Nanoseconds since the recorder's origin (`>= start_ns`).
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Period or batch id the call belongs to.
    pub id: u64,
}

impl Span {
    /// Wall-clock duration in nanoseconds.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Records spans against one clock origin.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    /// An empty recorder whose clock starts now.
    pub fn new() -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span and returns its index for [`Recorder::end`].
    pub fn begin(&mut self, name: &'static str, parent: Option<usize>, id: u64) -> usize {
        let t = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: t,
            end_ns: t,
            parent,
            id,
        });
        self.spans.len() - 1
    }

    /// Closes span `idx`.
    pub fn end(&mut self, idx: usize) {
        let t = self.now_ns();
        self.spans[idx].end_ns = t;
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        id: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let s = self.begin(name, parent, id);
        let r = f();
        self.end(s);
        r
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, index-aligned with `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(s, kids)| {
            let covered = union_len(
                kids.iter()
                    .map(|&c| (spans[c].start_ns, spans[c].end_ns))
                    .collect(),
                s.start_ns,
                s.end_ns,
            );
            s.duration_ns() - covered
        })
        .collect()
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn union_len(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in intervals {
        let (a, b) = (a.max(lo), b.min(hi));
        if a >= b {
            continue;
        }
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

/// Summed self time per layer name, in nanoseconds.
pub fn self_time_by_layer(spans: &[Span]) -> BTreeMap<&'static str, u64> {
    let mut out = BTreeMap::new();
    for (s, t) in spans.iter().zip(self_times(spans)) {
        *out.entry(s.name).or_insert(0) += t;
    }
    out
}

/// Wall-clock durations of every span named `name`, in nanoseconds.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(|s| s.duration_ns() as f64)
        .collect()
}

/// Summed wall-clock duration of every span named `name`.
pub fn total_ns(spans: &[Span], name: &str) -> u64 {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            id: 0,
        }
    }

    #[test]
    fn leaf_self_time_is_its_duration() {
        assert_eq!(self_times(&[span("a", 5, 17, None)]), vec![12]);
    }

    #[test]
    fn nested_children_are_subtracted_once() {
        // root [0,100) > mid [10,60) > leaf [20,30)
        let spans = vec![
            span("root", 0, 100, None),
            span("mid", 10, 60, Some(0)),
            span("leaf", 20, 30, Some(1)),
        ];
        // The grandchild is inside mid, so root only loses mid's 50.
        assert_eq!(self_times(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn overlapping_children_count_their_union() {
        // Children [10,40) and [30,70) overlap by 10; union is 60.
        let spans = vec![
            span("root", 0, 100, None),
            span("a", 10, 40, Some(0)),
            span("b", 30, 70, Some(0)),
            span("c", 80, 90, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 60 - 10);
    }

    #[test]
    fn children_are_clipped_to_the_parent() {
        // A child that outlives its parent (e.g. a worker still
        // draining) only covers the parent's part of it.
        let spans = vec![span("root", 0, 50, None), span("late", 40, 90, Some(0))];
        assert_eq!(self_times(&spans), vec![40, 50]);
    }

    #[test]
    fn layer_sums_and_durations() {
        let spans = vec![
            span("pass", 0, 100, None),
            span("x", 0, 30, Some(0)),
            span("x", 50, 60, Some(0)),
            span("y", 55, 70, Some(0)),
        ];
        let by = self_time_by_layer(&spans);
        // Union of children = [0,30) + [50,70) = 50.
        assert_eq!(by["pass"], 50);
        assert_eq!(by["x"], 40);
        assert_eq!(by["y"], 15);
        assert_eq!(durations(&spans, "x"), vec![30.0, 10.0]);
        assert_eq!(total_ns(&spans, "x"), 40);
    }

    #[test]
    fn recorder_nests_spans() {
        let mut rec = Recorder::new();
        let root = rec.begin("pass", None, 0);
        let v = rec.time("leaf", Some(root), 3, || 42);
        rec.end(root);
        assert_eq!(v, 42);
        let s = rec.spans();
        assert_eq!(s.len(), 2);
        assert_eq!(s[1].parent, Some(0));
        assert_eq!(s[1].id, 3);
        assert!(s[0].start_ns <= s[1].start_ns && s[1].end_ns <= s[0].end_ns);
    }
}
