//! E13 — parallel verification scaling.
//!
//! §4.1: logic verification at DEC ran "on a network of 100 high
//! performance workstations" — throughput is what makes
//! Correct-by-Verification viable, because every check must rerun over
//! every transistor on every design iteration. This experiment is the
//! single-machine analogue: the flow's parallel stages (the §4.2 battery
//! and the §4.3 timing-graph build) are swept over worker counts on a
//! 32-bit manchester domino adder, reporting per-stage wall-clock,
//! aggregate worker-CPU time, and speedup over the serial run.
//!
//! Determinism is part of the claim: tests/parallel.rs proves the
//! reports are byte-identical at every point of this sweep, so the
//! speedup is free — no reproducibility is traded for it.

use cbv_core::flow::{run_flow, FlowConfig, FlowReport};
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::tech::Process;

/// Worker counts swept.
pub const SWEEP: [usize; 4] = [1, 2, 4, 8];

/// Scaling measurements for one worker count.
pub struct ScalingPoint {
    /// Worker threads used for the parallel stages.
    pub threads: usize,
    /// Wall-clock of the §4.2 battery stage, seconds.
    pub everify_wall: f64,
    /// Aggregate worker-CPU of the battery stage, seconds.
    pub everify_cpu: f64,
    /// Wall-clock of the timing stage, seconds.
    pub timing_wall: f64,
    /// Aggregate worker-CPU of the timing stage, seconds.
    pub timing_cpu: f64,
    /// Wall-clock of the whole flow, seconds.
    pub total_wall: f64,
}

impl ScalingPoint {
    /// Combined wall-clock of the two parallel stages.
    fn parallel_wall(&self) -> f64 {
        self.everify_wall + self.timing_wall
    }
}

fn stage_times(report: &FlowReport, stage: &str) -> (f64, f64) {
    let s = report
        .stages
        .iter()
        .find(|s| s.stage == stage)
        .unwrap_or_else(|| panic!("flow has a `{stage}` stage"));
    (s.runtime.seconds(), s.cpu_time.seconds())
}

/// Runs the full flow over a `width`-bit manchester domino adder at one
/// worker count and pulls out the parallel stages' timings.
pub fn measure(width: u32, threads: usize) -> ScalingPoint {
    let process = Process::strongarm_035();
    let design = manchester_domino_adder(width, &process);
    let config = FlowConfig {
        parallelism: threads,
        ..FlowConfig::default()
    };
    let report = run_flow(design.netlist, &process, &config);
    let (everify_wall, everify_cpu) = stage_times(&report, "everify");
    let (timing_wall, timing_cpu) = stage_times(&report, "timing");
    ScalingPoint {
        threads,
        everify_wall,
        everify_cpu,
        timing_wall,
        timing_cpu,
        total_wall: report.total_runtime().seconds(),
    }
}

/// Sweeps [`SWEEP`] over a `width`-bit adder.
fn run_width(width: u32) -> Vec<ScalingPoint> {
    SWEEP.iter().map(|&t| measure(width, t)).collect()
}

/// The headline sweep: 1/2/4/8 workers over a 32-bit adder.
pub fn run() -> Vec<ScalingPoint> {
    run_width(32)
}

/// Prints the scaling table.
pub fn print() {
    crate::banner("E13", "parallel verification scaling (32-bit domino adder)");
    let points = run();
    let base = points[0].parallel_wall();
    println!(
        "{:>8}{:>14}{:>14}{:>14}{:>14}{:>10}",
        "threads", "everify wall", "everify cpu", "timing wall", "timing cpu", "speedup"
    );
    for pt in &points {
        println!(
            "{:>8}{:>12.1}ms{:>12.1}ms{:>12.1}ms{:>12.1}ms{:>9.2}x",
            pt.threads,
            pt.everify_wall * 1e3,
            pt.everify_cpu * 1e3,
            pt.timing_wall * 1e3,
            pt.timing_cpu * 1e3,
            base / pt.parallel_wall()
        );
    }
    println!("\n(speedup = serial wall / parallel wall over the two parallel");
    println!(" stages; cpu ≈ wall × threads when scaling is ideal. Reports are");
    println!(" byte-identical at every worker count — see tests/parallel.rs)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_measures_every_thread_count() {
        // A small width keeps this test cheap; the headline numbers use 32.
        let pts = run_width(4);
        assert_eq!(pts.len(), SWEEP.len());
        for (pt, threads) in pts.iter().zip(SWEEP) {
            assert_eq!(pt.threads, threads);
            assert!(pt.everify_wall > 0.0 && pt.timing_wall > 0.0);
            assert!(pt.everify_cpu > 0.0 && pt.timing_cpu > 0.0);
            assert!(pt.total_wall >= pt.parallel_wall());
        }
    }
}
