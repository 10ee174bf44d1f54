//! In-memory spans recorded by the benchmark around its own calls into
//! each layer's public functions. Nothing is traced inside the program.
//!
//! A span has a name, start, end, parent span and request id; spans are
//! kept in memory and written out once, when the run ends. A layer's
//! self time is its span's duration minus the part of that interval its
//! child spans cover.

use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Layer boundary name, e.g. `compile.optimize`.
    pub name: &'static str,
    /// Start, ns since the epoch.
    pub start_ns: u64,
    /// End, ns since the epoch.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// The request (frame) the span belongs to.
    pub request: u64,
}

impl Span {
    /// Wall duration in ns.
    #[must_use]
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A span recorder for one thread. A disabled tracer runs the wrapped
/// calls and records nothing, so traced and untraced phases share code.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    enabled: bool,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// A recording tracer whose clock starts at `epoch`.
    #[must_use]
    pub fn new(epoch: Instant) -> Self {
        Tracer {
            epoch,
            enabled: true,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// A tracer that records nothing.
    #[must_use]
    pub fn disabled() -> Self {
        Tracer {
            enabled: false,
            ..Tracer::new(Instant::now())
        }
    }

    /// The instant span times count from (helper threads' tracers share
    /// it, so [`Tracer::absorb`] keeps one timeline).
    #[must_use]
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    /// Whether spans are being recorded.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name` for `request`; spans opened
    /// inside `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        request: u64,
        f: impl FnOnce(&mut Tracer) -> T,
    ) -> T {
        if !self.enabled {
            return f(self);
        }
        let id = self.spans.len();
        let parent = self.open.last().copied();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent,
            request,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Records an already-timed span (for intervals measured on another
    /// clock reading, e.g. a request's due time).
    pub fn record(&mut self, name: &'static str, request: u64, start: Instant, end: Instant) {
        if !self.enabled {
            return;
        }
        let at = |t: Instant| t.saturating_duration_since(self.epoch).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: at(start),
            end_ns: at(end),
            parent: self.open.last().copied(),
            request,
        });
    }

    /// Moves another tracer's spans (same epoch) into this one.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len();
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    /// Every recorded span, in start order per thread.
    #[must_use]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span named `name`.
    #[must_use]
    pub fn durations_ns(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.duration_ns() as f64)
            .collect()
    }

    /// Summed duration (ns) of every span named `name`.
    #[must_use]
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations_ns(name).iter().sum()
    }

    /// Serializes the spans plus a per-name total/self summary as JSON.
    #[must_use]
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let selfs = self_times_ns(&self.spans);
        let mut names: Vec<&'static str> = self.spans.iter().map(|s| s.name).collect();
        names.sort_unstable();
        names.dedup();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"summary\":{{"
        );
        for (i, name) in names.iter().enumerate() {
            let (mut count, mut total, mut own) = (0u64, 0u64, 0u64);
            for (s, t) in self.spans.iter().zip(&selfs) {
                if s.name == *name {
                    count += 1;
                    total += s.duration_ns();
                    own += t;
                }
            }
            let sep = if i == 0 { "" } else { "," };
            let _ = write!(
                out,
                "{sep}\"{name}\":{{\"count\":{count},\"total_ns\":{total},\"self_ns\":{own}}}"
            );
        }
        out.push_str("},\"spans\":[");
        for (i, s) in self.spans.iter().enumerate() {
            let sep = if i == 0 { "" } else { "," };
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = write!(
                out,
                "{sep}\n{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"request\":{}}}",
                s.name, s.start_ns, s.end_ns, s.request
            );
        }
        out.push_str("\n]}\n");
        out
    }
}

/// Self time of every span: its duration minus the union of its direct
/// children's intervals (clipped to the span).
#[must_use]
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            request: 7,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span("root", 0, 100, None),
            // Overlapping children cover [10, 50) once, not twice.
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A grandchild counts against its parent only.
            span("d", 62, 66, Some(3)),
            // A child sticking out of its parent is clipped.
            span("e", 95, 120, Some(0)),
        ];
        let selfs = self_times_ns(&spans);
        assert_eq!(selfs, vec![100 - 40 - 10 - 5, 20, 30, 6, 4, 25]);
    }

    #[test]
    fn nested_spans_record_parents_and_absorb_rebases_them() {
        let epoch = Instant::now();
        let mut t = Tracer::new(epoch);
        let v = t.span("outer", 1, |t| t.span("inner", 1, |_| 5));
        assert_eq!(v, 5);
        assert_eq!(t.spans()[0].parent, None);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert!(t.spans()[0].start_ns <= t.spans()[1].start_ns);
        assert!(t.spans()[1].end_ns <= t.spans()[0].end_ns);

        let mut other = Tracer::new(epoch);
        other.span("x", 2, |t| t.span("y", 2, |_| ()));
        t.absorb(other);
        assert_eq!(t.spans()[3].parent, Some(2));
        assert_eq!(t.durations_ns("y").len(), 1);
    }

    #[test]
    fn disabled_tracer_runs_the_call_and_records_nothing() {
        let mut t = Tracer::disabled();
        assert_eq!(t.span("outer", 1, |t| t.span("inner", 1, |_| 3)), 3);
        t.record("late", 1, Instant::now(), Instant::now());
        assert!(t.spans().is_empty());
        assert_eq!(t.total_ns("outer"), 0.0);
    }
}
