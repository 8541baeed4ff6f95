//! E15 — flow observability: the trace waterfall and its overhead.
//!
//! The paper's flow (Fig 2) is a pipeline the designer iterates around
//! all day; knowing *where* a slow signoff spent its time is what makes
//! the iteration loop tunable. This experiment runs the full flow over
//! a 16-bit ALU slice with a collecting [`Tracer`] attached, renders the
//! span waterfall (one span per stage, child spans per §4.2 check, per
//! CCC chunk of the timing-graph build, per cached unit), and then
//! measures the cost of observability itself: the E13 workload (32-bit
//! manchester domino adder) timed with tracing off versus on.
//!
//! Two invariants ride along, proven in tests/obs.rs: the signoff JSON
//! is byte-identical with tracing on or off at any worker count, and
//! the trace's counters and span tree are themselves deterministic
//! across worker counts (only timestamps and thread ids move).

use cbv_core::flow::{run_flow, FlowConfig, FlowReport};
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::gen::datapath::alu_slice;
use cbv_core::obs::{render::waterfall, Trace, Tracer};
use cbv_core::tech::Process;
use std::time::Instant;

/// Traced-versus-untraced wall-clock of one workload.
pub struct Overhead {
    /// Seconds per flow with the disabled tracer (the default).
    pub off_wall: f64,
    /// Seconds per flow with a collecting tracer attached.
    pub on_wall: f64,
}

impl Overhead {
    /// Overhead of tracing as a percentage of the untraced wall-clock.
    pub fn percent(&self) -> f64 {
        (self.on_wall - self.off_wall) / self.off_wall * 100.0
    }
}

/// Runs the flow over a `width`-bit ALU slice with a collecting tracer
/// and returns the flow report plus the finished trace.
fn trace_alu(width: u32, threads: usize) -> (FlowReport, Trace) {
    let process = Process::strongarm_035();
    let design = alu_slice(width, &process);
    let (tracer, collector) = Tracer::collecting();
    let config = FlowConfig {
        parallelism: threads,
        tracer,
        ..FlowConfig::default()
    };
    let report = run_flow(design.netlist, &process, &config);
    (report, collector.trace())
}

/// Times `reps` flows over the E13 workload with tracing off and on.
///
/// Each reading is the *best* of `reps` runs — minimum wall-clock is the
/// standard estimator for "the cost of the work itself" on a machine
/// with background noise, and the quantity the <5% overhead budget in
/// EXPERIMENTS.md is defined over. Off/on runs are *interleaved* so a
/// system-load drift during the measurement hits both modes equally
/// instead of biasing whichever block ran second.
fn measure_overhead(width: u32, reps: usize) -> Overhead {
    let process = Process::strongarm_035();
    let run_one = |traced: bool| -> f64 {
        let netlist = manchester_domino_adder(width, &process).netlist;
        let config = FlowConfig {
            tracer: if traced {
                Tracer::collecting().0
            } else {
                Tracer::disabled()
            },
            ..FlowConfig::default()
        };
        let t0 = Instant::now();
        std::hint::black_box(run_flow(netlist, &process, &config));
        t0.elapsed().as_secs_f64()
    };
    let mut off_wall = f64::INFINITY;
    let mut on_wall = f64::INFINITY;
    for _ in 0..reps {
        off_wall = off_wall.min(run_one(false));
        on_wall = on_wall.min(run_one(true));
    }
    Overhead { off_wall, on_wall }
}

/// Prints the waterfall for `alu_slice(16)` and the measured overhead.
pub fn print() {
    crate::banner("E15", "flow observability: trace waterfall + overhead");
    let (report, trace) = trace_alu(16, 0);
    println!("{}", waterfall(&trace, 8));
    println!(
        "flow: {} stages, signoff {}",
        report.stages.len(),
        if report.signoff.clean() {
            "CLEAN"
        } else {
            "VIOLATIONS PRESENT"
        }
    );
    let o = measure_overhead(32, 15);
    println!(
        "\ntracing overhead on the E13 workload (32-bit domino adder):\n\
         untraced {:.1} ms, traced {:.1} ms — {:+.2}% (budget: <5%)",
        o.off_wall * 1e3,
        o.on_wall * 1e3,
        o.percent()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traced_flow_yields_stage_spans_and_counters() {
        let (report, trace) = trace_alu(4, 2);
        // Every stage's span id resolves to a recorded span whose name
        // matches the stage.
        for s in &report.stages {
            let id = s.span_id.expect("traced flow fills span ids");
            let span = trace
                .spans
                .iter()
                .find(|sp| sp.id == id)
                .unwrap_or_else(|| panic!("span {id} for stage {} recorded", s.stage));
            assert_eq!(span.name, s.stage);
        }
        // The battery emitted per-check child spans and counters.
        assert!(trace.spans.iter().any(|s| s.name.starts_with("check:")));
        assert!(trace.counters.iter().any(|(n, _)| n == "everify.checked"));
        assert!(trace.counters.iter().any(|(n, _)| n == "timing.arcs"));
        // And the waterfall renders them.
        let text = waterfall(&trace, 5);
        assert!(text.contains("flow"), "{text}");
        assert!(text.contains("everify"), "{text}");
    }

    #[test]
    fn overhead_measures_both_modes() {
        let o = measure_overhead(4, 1);
        assert!(o.off_wall > 0.0 && o.on_wall > 0.0);
        assert!(o.percent().is_finite());
    }
}
