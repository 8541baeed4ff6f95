//! `cbv-bench` — the experiment harness.
//!
//! One module per experiment in DESIGN.md's index (E1–E22), each covering
//! one table, figure or quantitative claim of the paper. Every module
//! exposes a pure `run()`-style function returning the experiment's data
//! and a `print()` that renders the paper-style table; the `cbv-bench`
//! binary (`src/main.rs`) runs one `print()` by name. Timing of the
//! underlying kernels lives in the `cbv-perf` benchmark under `perf/`.

pub mod e01_waterfall;
pub mod e02_hierarchy;
pub mod e03_flow;
pub mod e04_noise;
pub mod e05_timing;
pub mod e06_rcgrid;
pub mod e07_throughput;
pub mod e08_equiv;
pub mod e09_leakage;
pub mod e10_pessimism;
pub mod e11_sizing;
pub mod e12_coverage;
pub mod e13_parallel;
pub mod e14_eco;
pub mod e15_trace;
pub mod e16_mutation;
pub mod e17_serve;
pub mod e18_compile;
pub mod e19_farm;
pub mod e22_repair;

/// Prints a uniform experiment header.
pub fn banner(id: &str, what: &str) {
    println!("==================================================================");
    println!("{id}: {what}");
    println!("==================================================================");
}
