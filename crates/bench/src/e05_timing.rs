//! E5 — **Fig 4**: critical paths and races under two-phase clocking,
//! with correlated vs uncorrelated min/max analysis.
//!
//! Part A sweeps the cycle time on an 8-bit two-phase accumulator and
//! counts critical-path (setup) violations. Part B builds the classic
//! race structure — same-phase latch-to-latch min paths — and shows how
//! uncorrelated min/max skew analysis manufactures false races that the
//! paper's correlated analysis removes.

use cbv_core::extract::extract;
use cbv_core::gen::datapath::alu_slice;
use cbv_core::gen::gates::{add_inverter, Sizing};
use cbv_core::layout::synthesize;
use cbv_core::netlist::{Device, FlatNetlist, NetKind};
use cbv_core::recognize::recognize;
use cbv_core::tech::units::nanoseconds;
use cbv_core::tech::{MosKind, Process, Seconds, Tolerance};
use cbv_core::timing::{
    analyze, graph::build_graph, infer_constraints, ClockSchedule, ClockSkew, DelayCalc, Pessimism,
    ViolationKind,
};

/// One row of the setup sweep.
pub struct SetupPoint {
    /// Cycle time in ns.
    pub period_ns: f64,
    /// Setup (critical-path) violations.
    pub setups: usize,
    /// Worst setup slack, seconds.
    pub worst_slack: Seconds,
}

/// Part A: cycle-time sweep on the two-phase ALU.
fn setup_sweep() -> Vec<SetupPoint> {
    let p = Process::strongarm_035();
    let g = alu_slice(8, &p);
    let netlist = g.netlist;
    let rec = recognize(&netlist);
    let layout = synthesize(&netlist, &p);
    let ex = extract(&layout, &netlist, &p);
    let pess = Pessimism::signoff();
    let calc = DelayCalc::new(&p, Tolerance::conservative(), pess);
    let graph = build_graph(&netlist, &rec, &ex, &calc);
    let constraints = infer_constraints(&netlist, &rec, &p, &pess);

    [250.0, 120.0, 60.0, 25.0]
        .into_iter()
        .map(|period_ns| {
            let schedule = ClockSchedule::two_phase(
                "phi1",
                "phi2",
                nanoseconds(period_ns),
                nanoseconds(period_ns * 0.04),
            );
            let report = analyze(&netlist, &graph, &constraints, &schedule, &pess, &[]);
            SetupPoint {
                period_ns,
                setups: report.of_kind(ViolationKind::Setup).count(),
                worst_slack: report.worst_setup_slack().unwrap_or(Seconds::ZERO),
            }
        })
        .collect()
}

/// One row of the race study.
pub struct RacePoint {
    /// Buffers between the same-phase latches.
    pub buffers: usize,
    /// Races under correlated min/max analysis.
    pub races_correlated: usize,
    /// Races under uncorrelated analysis.
    pub races_uncorrelated: usize,
}

/// Builds a same-phase latch-to-latch path with `k` buffering inverters —
/// the Fig 4 race structure — and analyzes it both ways under a skewed
/// clock.
fn race_chain(k: usize) -> (FlatNetlist, Vec<cbv_core::netlist::NetId>) {
    let p = Process::strongarm_035();
    let s = Sizing::standard(&p, 1.0);
    let mut f = FlatNetlist::new(format!("race{k}"));
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let ck = f.add_net("ck", NetKind::Clock);
    let ckb = f.add_net("ckb", NetKind::Clock);
    let d = f.add_net("d", NetKind::Input);
    // Launch latch.
    let add_latch = |f: &mut FlatNetlist, name: &str, din, qout| {
        let x = f.add_net(&format!("{name}_x"), NetKind::Signal);
        let qb = f.add_net(&format!("{name}_qb"), NetKind::Signal);
        f.add_device(Device::mos(
            MosKind::Nmos,
            format!("{name}_pass"),
            ck,
            din,
            x,
            gnd,
            4.0 * s.wn,
            s.l,
        ));
        add_inverter(f, &format!("{name}_fwd"), x, qb, vdd, gnd, s);
        add_inverter(f, &format!("{name}_out"), qb, qout, vdd, gnd, s);
        f.add_device(Device::mos(
            MosKind::Nmos,
            format!("{name}_fbk"),
            ckb,
            qout,
            x,
            gnd,
            0.5 * s.wn,
            2.0 * s.l,
        ));
    };
    let q1 = f.add_net("q1", NetKind::Signal);
    add_latch(&mut f, "la", d, q1);
    let mut prev = q1;
    for i in 0..k {
        let n = f.add_net(&format!("b{i}"), NetKind::Signal);
        add_inverter(&mut f, &format!("buf{i}"), prev, n, vdd, gnd, s);
        prev = n;
    }
    let q2 = f.add_net("q2", NetKind::Output);
    add_latch(&mut f, "lb", prev, q2);
    let clocks = vec![ck, ckb];
    (f, clocks)
}

/// Part B: same-phase race counts vs buffering depth, correlated vs
/// uncorrelated skew analysis.
fn race_study() -> Vec<RacePoint> {
    let p = Process::strongarm_035();
    [2usize, 4, 8, 16, 40]
        .into_iter()
        .map(|k| {
            let (netlist, clocks) = race_chain(k);
            let rec = recognize(&netlist);
            let layout = synthesize(&netlist, &p);
            let ex = extract(&layout, &netlist, &p);
            let skews: Vec<ClockSkew> = clocks
                .iter()
                .map(|&c| ClockSkew {
                    net: c,
                    min: Seconds::new(5e-12),
                    max: Seconds::new(250e-12),
                })
                .collect();
            let schedule = ClockSchedule::single("ck", nanoseconds(20.0));
            let mut races = [0usize; 2];
            for (slot, correlated) in [(0usize, true), (1, false)] {
                let mut pess = Pessimism::signoff();
                pess.correlated = correlated;
                let calc = DelayCalc::new(&p, Tolerance::conservative(), pess);
                let graph = build_graph(&netlist, &rec, &ex, &calc);
                let constraints = infer_constraints(&netlist, &rec, &p, &pess);
                let report = analyze(&netlist, &graph, &constraints, &schedule, &pess, &skews);
                races[slot] = report.of_kind(ViolationKind::Race).count();
            }
            RacePoint {
                buffers: k,
                races_correlated: races[0],
                races_uncorrelated: races[1],
            }
        })
        .collect()
}

/// Prints both tables.
pub fn print() {
    crate::banner("E5", "Fig 4 — critical paths and races");
    println!("critical paths: cycle-time sweep on the two-phase accumulator");
    println!(
        "{:>12}{:>10}{:>18}",
        "period ns", "setups", "worst slack ps"
    );
    for pt in setup_sweep() {
        println!(
            "{:>12.0}{:>10}{:>18.0}",
            pt.period_ns,
            pt.setups,
            pt.worst_slack.seconds() * 1e12
        );
    }
    println!("\nraces: same-phase latch-to-latch min paths, 250 ps clock spread");
    println!(
        "{:>10}{:>16}{:>18}",
        "buffers", "races (corr)", "races (uncorr)"
    );
    for pt in race_study() {
        println!(
            "{:>10}{:>16}{:>18}",
            pt.buffers, pt.races_correlated, pt.races_uncorrelated
        );
    }
    println!("\n(\"Critical paths will limit the clock frequency ... race paths");
    println!(" will prevent the chip from working at any frequency\"; uncorrelated");
    println!(" min/max charges the skew window everywhere and cries wolf)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shorter_cycles_create_setup_violations() {
        let pts = setup_sweep();
        assert_eq!(
            pts[0].setups, 0,
            "250 ns must close: {:?}",
            pts[0].worst_slack
        );
        assert!(pts.last().unwrap().setups > 0, "25 ns must fail");
    }

    #[test]
    fn uncorrelated_analysis_cries_wolf() {
        let pts = race_study();
        let corr: usize = pts.iter().map(|p| p.races_correlated).sum();
        let uncorr: usize = pts.iter().map(|p| p.races_uncorrelated).sum();
        assert!(
            uncorr > corr,
            "uncorrelated must flag more: {uncorr} vs {corr}"
        );
        assert_eq!(corr, 0, "these paths are safe on a real (correlated) die");
        // Deep buffering protects even the pessimistic analysis.
        assert_eq!(pts.last().unwrap().races_uncorrelated, 0);
    }
}
