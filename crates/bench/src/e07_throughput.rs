//! E7 — §4.1 simulation throughput.
//!
//! The paper: phase-accurate RTL runs at ">200 cycles per second per
//! simulation CPU", and the logic verification goal of 2×10⁹ aggregated
//! cycles/day needs ~100 CPUs. We measure our engines' cycles/sec on a
//! generated design and on the CAM (native primitive vs gate expansion),
//! then project the farm size for the paper's daily budget.
//!
//! The rates are printed, never asserted: they swing with the host. The
//! tests hold the interpreter's work per cycle instead — a count that is
//! a pure function of the elaborated design.

use std::time::Instant;

use cbv_core::csim::{compile as csim_compile, CSim};
use cbv_core::gen::cam::{cam_rtl_expanded, cam_rtl_source};
use cbv_core::rtl::design::{RtlDesign, WordOp};
use cbv_core::rtl::{blast::blast, compile, interp::Interp};
use cbv_core::sim::{Logic, SwitchSim};
use cbv_core::tech::Process;

/// One engine's throughput measurement.
pub struct ThroughputPoint {
    /// Engine / workload label.
    pub engine: String,
    /// Measured cycles per second.
    pub cycles_per_sec: f64,
}

/// A small CPU-ish RTL design: 16-bit datapath with an accumulator, ALU
/// ops and a flag — a stand-in for "phase accurate Behavioral/RTL".
const CPU_RTL: &str = "module mini(clock ck, in op[2], in d[16], out acc[16], out z) {\n\
    reg r[16];\n\
    at posedge(ck) {\n\
        if (op == 0) { r <= r + d; }\n\
        else if (op == 1) { r <= r ^ d; }\n\
        else if (op == 2) { r <= r & d; }\n\
        else { r <= d; }\n\
    }\n\
    assign acc = r;\n\
    assign z = r == 0;\n\
}";

/// The interpreter's work per cycle on `design`: the nodes one settle
/// evaluates, a CAM lookup counting one per entry it compares. Every
/// E7 design commits on one edge, so one cycle is one settle.
fn work_per_cycle(design: &RtlDesign) -> u64 {
    design
        .nodes
        .iter()
        .map(|n| match n.op {
            WordOp::CamHit { cam, .. } | WordOp::CamIndex { cam, .. } => {
                u64::from(design.cams[cam as usize].entries)
            }
            _ => 1,
        })
        .sum()
}

fn time_cycles(mut step: impl FnMut(u64), cycles: u64) -> f64 {
    let t0 = Instant::now();
    for i in 0..cycles {
        step(i);
    }
    cycles as f64 / t0.elapsed().as_secs_f64()
}

/// Measures every engine.
pub fn run() -> Vec<ThroughputPoint> {
    let mut out = Vec::new();

    // RTL interpreter on the mini CPU.
    let cpu = compile(CPU_RTL, "mini").expect("compiles");
    let mut sim = Interp::new(&cpu);
    let rate = time_cycles(
        |i| {
            sim.set_input("op", i & 3);
            sim.set_input("d", (i * 2654435761) & 0xFFFF);
            sim.step("ck");
        },
        200_000,
    );
    out.push(ThroughputPoint {
        engine: "rtl interpreter (mini cpu)".into(),
        cycles_per_sec: rate,
    });

    // Compiled gate-level sim on the blasted mini CPU, driven on lane 0:
    // the rate is per step, not per lane-cycle.
    let net = blast(&cpu).expect("blasts");
    let mut csim = CSim::new(csim_compile(&net).expect("acyclic"));
    let rate = time_cycles(
        |i| {
            csim.set_input(0, "op", i & 3);
            csim.set_input(0, "d", (i * 2654435761) & 0xFFFF);
            csim.step("ck");
        },
        200_000,
    );
    out.push(ThroughputPoint {
        engine: "compiled gate sim (lane 0)".into(),
        cycles_per_sec: rate,
    });

    // Switch-level transistor sim on a generated 8-bit adder.
    let p = Process::strongarm_035();
    let g = cbv_core::gen::adders::static_ripple_adder(8, &p);
    let mut ssim = SwitchSim::new(&g.netlist);
    let rate = time_cycles(
        |i| {
            let a = i & 0xFF;
            let b = (i >> 8) & 0xFF;
            for bit in 0..8 {
                ssim.set(g.inputs[bit], Logic::from_bool((a >> bit) & 1 == 1));
                ssim.set(g.inputs[8 + bit], Logic::from_bool((b >> bit) & 1 == 1));
            }
            ssim.set(g.inputs[16], Logic::Zero);
            let _ = ssim.settle();
        },
        300,
    );
    out.push(ThroughputPoint {
        engine: "switch-level sim (8b adder)".into(),
        cycles_per_sec: rate,
    });

    // CAM: native primitive vs gate expansion (256 x 16).
    for (label, src) in [
        ("cam native primitive (64x16)", cam_rtl_source(64, 16)),
        ("cam gate-expanded (64x16)", cam_rtl_expanded(64, 16)),
    ] {
        let design = compile(&src, "camq").expect("compiles");
        let mut sim = Interp::new(&design);
        let rate = time_cycles(
            |i| {
                sim.set_input("we", i & 1);
                sim.set_input("wi", i % 64);
                sim.set_input("wv", (i * 7) & 0xFFFF);
                sim.set_input("k", (i * 13) & 0xFFFF);
                sim.step("ck");
            },
            20_000,
        );
        out.push(ThroughputPoint {
            engine: label.into(),
            cycles_per_sec: rate,
        });
    }
    out
}

/// Prints the throughput table and the farm projection.
pub fn print() {
    crate::banner("E7", "§4.1 — simulation throughput and the farm projection");
    let points = run();
    println!("{:<34}{:>16}", "engine", "cycles/sec");
    for p in &points {
        println!("{:<34}{:>16.0}", p.engine, p.cycles_per_sec);
    }
    let rtl = points[0].cycles_per_sec;
    // The paper's chip model is vastly bigger than our mini CPU; what
    // matters is the *ratio* math: 2e9 cycles/day at the paper's >200
    // cycles/sec/CPU needs ~115 CPUs; at ours:
    let per_day = rtl * 86_400.0;
    println!("\npaper: >200 cycles/sec/CPU, 2e9 cycles/day -> ~100 CPUs");
    println!(
        "ours:  {:.0} cycles/sec/CPU on the mini design -> {:.4} CPUs for 2e9/day",
        rtl,
        2e9 / per_day
    );
    let native = points[3].cycles_per_sec;
    let expanded = points[4].cycles_per_sec;
    println!(
        "\ncam primitive speedup over gate expansion: {:.1}x  (\"standard languages\n\
         ... result in highly inefficient run-times, e.g. a 2000 port CAM\")",
        native / expanded
    );
    let [cpu, native, expanded] = work_counts();
    println!(
        "work per cycle: mini cpu {cpu}; cam native {native} vs expanded {expanded} ({:.1}x)",
        expanded as f64 / native as f64
    );
}

/// Work per cycle of the mini CPU, the native CAM and the expanded CAM.
fn work_counts() -> [u64; 3] {
    [
        compile(CPU_RTL, "mini").expect("compiles"),
        compile(&cam_rtl_source(64, 16), "camq").expect("compiles"),
        compile(&cam_rtl_expanded(64, 16), "camq").expect("compiles"),
    ]
    .map(|d| work_per_cycle(&d))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ceiling on the mini CPU's work per cycle: a change to elaboration
    /// or to the interpreter's node set must not grow it.
    const MINI_CPU_WORK: u64 = 27;

    #[test]
    fn rtl_beats_the_paper_per_cpu_target() {
        // The paper's target is a rate (>200 cycles/sec/CPU), printed by
        // `cbv-bench e7_throughput`; what holds on any host is the work
        // each of those cycles costs.
        let [cpu, ..] = work_counts();
        assert!(cpu <= MINI_CPU_WORK, "{cpu} > {MINI_CPU_WORK}");
    }

    #[test]
    fn native_cam_is_much_faster_than_expansion() {
        let [_, native, expanded] = work_counts();
        assert!(native * 3 < expanded, "{native} vs {expanded}");
    }
}
