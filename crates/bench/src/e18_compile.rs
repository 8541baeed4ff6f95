//! E18 — compiled 64-lane bit-parallel simulation throughput.
//!
//! The paper's logic-verification budget (§4.1) is 2×10⁹ cycles/day at
//! ">200 cycles per second per simulation CPU" — a farm of ~100 machines.
//! E7 showed the word-level interpreter clears the 1997 per-CPU bar by
//! orders of magnitude; this experiment measures how much further the
//! compiled backend (`cbv-csim`) goes: blast the RTL to a `BoolNet`,
//! levelize once, compile to a flat threaded-bytecode program, and
//! execute it over `u64` planes so every pass advances 64 independent
//! stimulus vectors.
//!
//! Three columns per registry design, same stimulus discipline:
//!
//! * **interp** — the word-level RTL interpreter (`cbv_rtl::interp`),
//!   cycles/sec;
//! * **scalar net** — one-lane bit-level simulation of the same blasted
//!   `BoolNet` via the buffer-reusing `eval_into` /
//!   `next_states_edge_into` loop — the honest apples-to-apples
//!   baseline (same netlist, lane count 1);
//! * **compiled** — `CSim`, reported as lane-cycles/sec (word passes ×
//!   64) because that is what a verification campaign consumes: 64
//!   vectors really do advance per pass.
//!
//! The headline row is `mda32_two_phase` (the Manchester-class pipelined
//! adder). The speedup column is printed, never asserted; the unit test
//! gates the op count against the blasted net's gate count instead.

use std::hint::black_box;
use std::time::Instant;

use cbv_core::csim::{compile as csim_compile, CSim, LANES};
use cbv_core::gen::rtl_designs::{rtl_design_registry, RtlDesignSpec};
use cbv_core::rtl::ast::Edge;
use cbv_core::rtl::boolnet::BoolNet;
use cbv_core::rtl::{blast::blast, compile, interp::Interp};

/// One design's compile + throughput measurements.
pub struct CompilePoint {
    /// Registry design name.
    pub design: String,
    /// Ops in the compiled program (dead branches already dropped).
    pub ops: usize,
    /// Combinational depth of the compiled schedule.
    pub levels: u32,
    /// One-time compile cost (blast excluded; blast is shared by every
    /// bit-level engine), milliseconds.
    pub compile_ms: f64,
    /// Word-level interpreter, cycles/sec.
    pub interp_cps: f64,
    /// Scalar (one-lane) `BoolNet` evaluation, cycles/sec.
    pub scalar_cps: f64,
    /// Compiled engine, *lane*-cycles/sec (passes × 64).
    pub lane_cps: f64,
    /// `lane_cps / interp_cps` — the campaign-throughput multiplier.
    pub speedup: f64,
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e3779b97f4a7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
    z ^ (z >> 31)
}

fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Word-level interpreter throughput on one registry design.
fn interp_rate(spec: &RtlDesignSpec, cycles: u64) -> f64 {
    let design = compile(&spec.source, spec.top).expect("registry design compiles");
    let mut sim = Interp::new(&design);
    let inputs = design.inputs.clone();
    let out_names: Vec<String> = design.outputs.iter().map(|(n, _)| n.clone()).collect();
    let mut rng = 0x1234_5678u64;
    let t0 = Instant::now();
    for _ in 0..cycles {
        for (name, w) in &inputs {
            sim.set_input(name, splitmix(&mut rng) & mask(*w));
        }
        match spec.clock {
            Some(ck) => sim.step(ck),
            None => {
                for name in &out_names {
                    black_box(sim.output(name));
                }
            }
        }
    }
    cycles as f64 / t0.elapsed().as_secs_f64()
}

/// One-lane bit-level throughput: the buffer-reusing `BoolNet` loop.
fn scalar_rate(net: &BoolNet, has_clock: bool, cycles: u64) -> f64 {
    let mut states = net.initial_states();
    let mut next = Vec::new();
    let mut values = Vec::new();
    let mut inputs = vec![false; net.inputs.len()];
    let negedge = has_clock && net.has_negedge(0);
    let out_bits: Vec<_> = net.outputs.iter().flat_map(|(_, b)| b.clone()).collect();
    let mut rng = 0x1234_5678u64;
    let t0 = Instant::now();
    for _ in 0..cycles {
        let mut r = splitmix(&mut rng);
        for (i, v) in inputs.iter_mut().enumerate() {
            if i % 64 == 0 && i > 0 {
                r = splitmix(&mut rng);
            }
            *v = (r >> (i % 64)) & 1 == 1;
        }
        net.eval_into(&inputs, &states, &mut values);
        if has_clock {
            net.next_states_edge_into(&values, &states, 0, Edge::Pos, &mut next);
            std::mem::swap(&mut states, &mut next);
            if negedge {
                net.eval_into(&inputs, &states, &mut values);
                net.next_states_edge_into(&values, &states, 0, Edge::Neg, &mut next);
                std::mem::swap(&mut states, &mut next);
            }
        } else {
            for &b in &out_bits {
                black_box(values[b.index()]);
            }
        }
    }
    cycles as f64 / t0.elapsed().as_secs_f64()
}

/// Compiled-engine throughput in *word passes* per second; multiply by
/// [`LANES`] for lane-cycles/sec. Stimulus planes are pre-generated so
/// the timed region is exactly the engine.
fn csim_rate(sim: &mut CSim, clock: Option<&str>, passes: u64) -> f64 {
    let n_inputs = sim.program().n_inputs as usize;
    let mut rng = 0x9abc_def0u64;
    match clock {
        Some(ck) => {
            let stimulus: Vec<u64> = (0..passes as usize * n_inputs)
                .map(|_| splitmix(&mut rng))
                .collect();
            let mut outputs = Vec::new();
            let t0 = Instant::now();
            sim.run_vectors(ck, passes as usize, &stimulus, &mut outputs);
            black_box(&outputs);
            passes as f64 / t0.elapsed().as_secs_f64()
        }
        None => {
            let out_words: Vec<String> = sim
                .program()
                .outputs
                .iter()
                .map(|(n, _)| n.clone())
                .collect();
            let t0 = Instant::now();
            for _ in 0..passes {
                for bit in 0..n_inputs {
                    sim.set_input_plane(bit, splitmix(&mut rng));
                }
                for name in &out_words {
                    black_box(sim.output_plane(name, 0));
                }
            }
            passes as f64 / t0.elapsed().as_secs_f64()
        }
    }
}

/// Measures every registry design at a cycle-count scale (`1.0` = the
/// full counts used by the binary; tests pass a fraction).
fn run_scaled(scale: f64) -> Vec<CompilePoint> {
    let n = |base: u64| ((base as f64 * scale) as u64).max(64);
    rtl_design_registry()
        .iter()
        .map(|spec| {
            let design = compile(&spec.source, spec.top).expect("registry design compiles");
            let net = blast(&design).expect("registry design blasts");
            let t0 = Instant::now();
            let prog = csim_compile(&net).expect("registry design is acyclic");
            let compile_ms = t0.elapsed().as_secs_f64() * 1e3;
            let ops = prog.ops.len();
            let levels = prog.levels;
            let mut sim = CSim::new(prog);

            let interp_cps = interp_rate(spec, n(50_000));
            let scalar_cps = scalar_rate(&net, spec.clock.is_some(), n(5_000));
            let word_cps = csim_rate(&mut sim, spec.clock, n(10_000));
            let lane_cps = word_cps * LANES as f64;
            CompilePoint {
                design: spec.name.to_owned(),
                ops,
                levels,
                compile_ms,
                interp_cps,
                scalar_cps,
                lane_cps,
                speedup: lane_cps / interp_cps,
            }
        })
        .collect()
}

/// Full-count measurement (the binary's table).
pub fn run() -> Vec<CompilePoint> {
    run_scaled(1.0)
}

/// Prints the compile/throughput table and the farm projection.
pub fn print() {
    crate::banner(
        "E18",
        "compiled 64-lane simulation — §4.1 farm throughput, revisited",
    );
    let points = run();
    println!(
        "{:<20}{:>7}{:>7}{:>9}{:>14}{:>14}{:>14}{:>9}",
        "design", "ops", "levels", "comp ms", "interp c/s", "scalar c/s", "lane c/s", "speedup"
    );
    for p in &points {
        println!(
            "{:<20}{:>7}{:>7}{:>9.2}{:>14.0}{:>14.0}{:>14.0}{:>8.1}x",
            p.design,
            p.ops,
            p.levels,
            p.compile_ms,
            p.interp_cps,
            p.scalar_cps,
            p.lane_cps,
            p.speedup
        );
    }
    let mda = points
        .iter()
        .find(|p| p.design == "mda32_two_phase")
        .expect("headline design present");
    let per_day = mda.lane_cps * 86_400.0;
    println!(
        "\nheadline (mda32_two_phase): {:.2}M lane-cycles/sec on one core ({:.1}x the\n\
         word-level interpreter; {:.1}x the one-lane bit-level loop)",
        mda.lane_cps / 1e6,
        mda.speedup,
        mda.lane_cps / mda.scalar_cps
    );
    println!(
        "paper: 2e9 cycles/day needed ~100 CPUs at >200 cycles/sec each;\n\
         ours:  one core delivers {:.1}e9 lane-cycles/day -> {:.5} CPUs for the\n\
         paper's daily budget (the farm collapses into a fraction of a core)",
        per_day / 1e9,
        2e9 / per_day
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_registry_design_measures() {
        let points = run_scaled(0.02);
        assert_eq!(points.len(), rtl_design_registry().len());
        for p in &points {
            assert!(p.ops > 0, "{}: empty program", p.design);
            assert!(p.interp_cps > 0.0 && p.scalar_cps > 0.0 && p.lane_cps > 0.0);
        }
    }

    #[test]
    fn compiled_program_does_less_word_work_than_the_one_lane_loop() {
        // Each op advances LANES vectors; each gate evaluation of the
        // one-lane loop advances one. Fewer ops than gates on every
        // design means the compiled pass also does less word work.
        for spec in rtl_design_registry() {
            let design = compile(&spec.source, spec.top).expect("registry design compiles");
            let net = blast(&design).expect("registry design blasts");
            let prog = csim_compile(&net).expect("registry design is acyclic");
            assert!(
                prog.ops.len() < net.gate_count(),
                "{}: {} ops vs {} gates",
                spec.name,
                prog.ops.len(),
                net.gate_count()
            );
        }
    }
}
