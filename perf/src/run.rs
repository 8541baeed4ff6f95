//! What every workload shares: how long a section runs, the measured
//! window's wall and CPU clocks, and the shape of a section's result.

use std::sync::Mutex;
use std::time::{Duration, Instant};

use cbv_core::signoff::Signoff;

use crate::host;
use crate::metrics::Values;

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The signoff's wire bytes — what every correctness check compares.
pub fn signoff_json(signoff: &Signoff) -> String {
    serde_json::to_string(signoff).expect("signoff serialization is infallible")
}

/// How a section is paced and whether it records spans.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    /// Stop starting new ops once this much measured time has passed…
    pub seconds: f64,
    /// …but never before this many ops (warm-ups, count sections).
    pub min_ops: usize,
    /// Record spans on every second op (odd ones), so traced and
    /// untraced ops share the window and host drift hits both alike.
    pub traced: bool,
    /// Counts are taken over exactly the first `count_ops` ops, so they
    /// depend on `--seed` alone and not on how fast the host is.
    pub count_ops: usize,
}

impl Plan {
    /// Exactly `ops` untraced ops: warm-ups.
    pub fn ops(ops: usize) -> Plan {
        Plan {
            seconds: 0.0,
            min_ops: ops,
            traced: false,
            count_ops: 0,
        }
    }

    /// An untraced measured window.
    pub fn window(seconds: f64) -> Plan {
        Plan {
            seconds,
            min_ops: 1,
            traced: false,
            count_ops: 0,
        }
    }

    /// A traced section: at least the count ops, then until `seconds`.
    pub fn traced(seconds: f64, count_ops: usize) -> Plan {
        Plan {
            seconds,
            min_ops: count_ops,
            traced: true,
            count_ops,
        }
    }

    /// Whether op number `done` (0-based) records spans.
    pub fn traces(&self, done: usize) -> bool {
        self.traced && done % 2 == 1
    }
}

struct Clock {
    wall: Duration,
    cpu_s: f64,
    running: Option<(Instant, f64)>,
    /// `(wall ms, traced)` of every completed op, in completion order.
    ops: Vec<(f64, bool)>,
}

impl Clock {
    fn wall_s(&self) -> f64 {
        let live = self.running.map_or(Duration::ZERO, |(t0, _)| t0.elapsed());
        (self.wall + live).as_secs_f64()
    }
}

/// The measured window's clocks, shared by every client thread of a
/// section. Untimed work inside a section (the periodic reference
/// checks) runs between `pause` and `resume` and is charged to neither
/// wall nor CPU time.
pub struct Window(Mutex<Clock>);

impl Window {
    /// Starts the clocks of a section.
    pub fn start() -> Window {
        Window(Mutex::new(Clock {
            wall: Duration::ZERO,
            cpu_s: 0.0,
            running: Some((Instant::now(), host::cpu_seconds())),
            ops: Vec::new(),
        }))
    }

    fn clock(&self) -> std::sync::MutexGuard<'_, Clock> {
        self.0.lock().expect("no thread panics holding the clock")
    }

    pub fn pause(&self) {
        let mut c = self.clock();
        if let Some((t0, c0)) = c.running.take() {
            c.wall += t0.elapsed();
            c.cpu_s += host::cpu_seconds() - c0;
        }
    }

    pub fn resume(&self) {
        let mut c = self.clock();
        if c.running.is_none() {
            c.running = Some((Instant::now(), host::cpu_seconds()));
        }
    }

    /// Whether a client that has done `done` ops should start another.
    pub fn more(&self, plan: &Plan, done: usize) -> bool {
        done < plan.min_ops || self.clock().wall_s() < plan.seconds
    }

    /// Records one completed op.
    pub fn complete(&self, op_ms: f64, traced: bool) {
        self.clock().ops.push((op_ms, traced));
    }

    /// Stops the clocks and hands the section's timing to `out`.
    pub fn finish(self, out: &mut Outcome) {
        self.pause();
        let c = self
            .0
            .into_inner()
            .expect("no thread panics holding the clock");
        out.wall_s = c.wall.as_secs_f64();
        out.cpu_s = c.cpu_s;
        for (ms, traced) in c.ops {
            if traced {
                out.traced_ms.push(ms);
            } else {
                out.plain_ms.push(ms);
            }
        }
    }
}

/// What one section of one workload measured.
#[derive(Default)]
pub struct Outcome {
    /// Wall milliseconds of every untraced op, in completion order.
    pub plain_ms: Vec<f64>,
    /// Wall milliseconds of every traced op.
    pub traced_ms: Vec<f64>,
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Ops whose signoff bytes differed from the reference, or whose
    /// request errored or was refused after retries.
    pub failed: u64,
    /// Per-layer metrics (traced sections only).
    pub layers: Values,
    /// The section's spans as JSON lines (traced sections only).
    pub jsonl: String,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        (self.plain_ms.len() + self.traced_ms.len()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pacing_honours_the_op_floor_and_the_clock() {
        let w = Window::start();
        assert!(w.more(&Plan::ops(3), 2));
        assert!(!w.more(&Plan::ops(3), 3));
        assert!(w.more(&Plan::window(60.0), 1_000_000));
        let traced = Plan::traced(0.0, 4);
        assert!(w.more(&traced, 3) && !w.more(&traced, 4));
        assert!(!traced.traces(0) && traced.traces(1) && !Plan::window(1.0).traces(1));
    }

    #[test]
    fn paused_time_is_not_charged() {
        let w = Window::start();
        w.pause();
        std::thread::sleep(Duration::from_millis(30));
        w.resume();
        let mut out = Outcome::default();
        w.finish(&mut out);
        assert!(out.wall_s < 0.025, "paused sleep leaked: {}", out.wall_s);
        assert!(out.cpu_s >= 0.0);
    }
}
