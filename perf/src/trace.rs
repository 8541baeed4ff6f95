//! The harness's span recorder.
//!
//! Spans are opened by the benchmark's own code around calls into each
//! crate's public functions — nothing inside the measured program is
//! instrumented. A [`Recorder`] belongs to one thread, keeps its spans
//! in memory, and is a single branch per call when off; the untraced
//! run therefore measures the program alone, and the traced run's
//! distance from it is reported as `trace_overhead_pct`.

use std::fmt::Write as _;
use std::time::Instant;

/// One closed span. Times are nanoseconds since the recorder's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Index of the span in its recorder, in opening order.
    pub id: u32,
    /// The span that was open on this thread when this one opened.
    pub parent: Option<u32>,
    /// The op (request) the span belongs to: spans of one op share it.
    pub op: u32,
    /// Which client thread recorded it.
    pub thread: u8,
    /// Layer boundary crossed, e.g. `alu16.extract`.
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn ms(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 / 1e6
    }
}

/// Per-thread span store; see the module docs.
pub struct Recorder {
    origin: Instant,
    thread: u8,
    /// Whether [`span`](Recorder::span) records at all.
    pub on: bool,
    /// Stamped on every span opened from now on.
    pub op: u32,
    open: Vec<u32>,
    spans: Vec<Span>,
}

impl Recorder {
    /// A recorder measuring from `origin` (shared by all threads of a
    /// run so their spans line up), initially off.
    pub fn new(origin: Instant, thread: u8) -> Recorder {
        Recorder {
            origin,
            thread,
            on: false,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` under a span named `name` (or just runs it when off).
    /// `f` receives the recorder back so it can open child spans.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Recorder) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            id,
            parent: self.open.last().copied(),
            op: self.op,
            thread: self.thread,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_ns = self.now_ns();
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations, in milliseconds, of every span called `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::ms)
            .collect()
    }
}

/// Self time of every span of one recorder: its duration minus the part
/// of its interval that its direct children cover (overlapping children
/// are counted once, children are clipped to the parent).
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let parent = &spans[p as usize];
            let lo = s.start_ns.max(parent.start_ns);
            let hi = s.end_ns.min(parent.end_ns);
            if hi > lo {
                children[p as usize].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                if hi > reach {
                    covered += hi - lo.max(reach);
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Renders recorders as JSON lines, one span each, ids unique per thread.
pub fn to_jsonl(recorders: &[&Recorder]) -> String {
    let mut out = String::new();
    for rec in recorders {
        let selfs = self_times_ns(rec.spans());
        for (s, self_ns) in rec.spans().iter().zip(selfs) {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            // Span names are identifiers from this crate: no escaping needed.
            let _ = writeln!(
                out,
                "{{\"thread\":{},\"span\":{},\"parent\":{parent},\"op\":{},\"name\":\"{}\",\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.thread, s.id, s.op, s.name, s.start_ns, s.end_ns
            );
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            op: 0,
            thread: 0,
            name: "t",
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_child_interval() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover [10, 50) once, not twice.
            span(1, Some(0), 10, 40),
            span(2, Some(0), 30, 50),
            // A child overrunning its parent is clipped to it.
            span(3, Some(0), 90, 130),
            // A grandchild reduces its parent's self time, not the root's.
            span(4, Some(1), 15, 25),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 20, 20, 40, 10]);
    }

    #[test]
    fn recorder_nests_and_is_inert_when_off() {
        let mut rec = Recorder::new(Instant::now(), 3);
        assert_eq!(rec.span("a", |_| 1), 1);
        assert!(rec.spans().is_empty());
        rec.on = true;
        rec.op = 7;
        rec.span("outer", |r| {
            r.span("inner", |_| ());
            r.span("inner", |_| ());
        });
        let s = rec.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[0].name, s[0].parent), ("outer", None));
        assert_eq!((s[1].parent, s[2].parent), (Some(0), Some(0)));
        assert!(s.iter().all(|x| x.op == 7 && x.thread == 3));
        assert!(s[0].start_ns <= s[1].start_ns && s[2].end_ns <= s[0].end_ns);
        assert_eq!(rec.durations_ms("inner").len(), 2);
        assert_eq!(to_jsonl(&[&rec]).lines().count(), 3);
    }
}
