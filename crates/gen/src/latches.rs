//! The latch zoo: state elements "invented on-the-fly" (§2), in the
//! styles the recognition and writability checks must handle.

use cbv_netlist::{Device, FlatNetlist, NetKind};
use cbv_tech::{MosKind, Process};

use crate::gates::{add_inverter, Sizing};
use crate::Generated;

/// A transparent pass-gate latch with weak clocked feedback (jam latch):
/// `d` flows to `q` while `ck` is high; feedback holds when low via the
/// complementary-clocked feedback device.
///
/// Nets: `ck`, `ckb`, `d` → `q` (and internal `x`, `qb`).
pub fn jam_latch(process: &Process, w_pass: f64, w_feedback: f64) -> Generated {
    let mut f = FlatNetlist::new("jam_latch");
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let s = Sizing::standard(process, 1.0);
    let ck = f.add_net("ck", NetKind::Clock);
    let ckb = f.add_net("ckb", NetKind::Clock);
    let d = f.add_net("d", NetKind::Input);
    let x = f.add_net("x", NetKind::Signal);
    let q = f.add_net("q", NetKind::Output);
    let qb = f.add_net("qb", NetKind::Signal);
    // Write pass gate.
    f.add_device(Device::mos(
        MosKind::Nmos,
        "pass",
        ck,
        d,
        x,
        gnd,
        w_pass,
        s.l,
    ));
    // Forward inverter pair.
    add_inverter(&mut f, "fwd", x, qb, vdd, gnd, s);
    add_inverter(&mut f, "out", qb, q, vdd, gnd, s);
    // Feedback: q back onto x through a ckb-gated weak pass.
    f.add_device(Device::mos(
        MosKind::Nmos,
        "fbk",
        ckb,
        q,
        x,
        gnd,
        w_feedback,
        2.0 * s.l,
    ));
    Generated {
        netlist: f,
        inputs: vec![d],
        outputs: vec![q],
        clocks: vec![ck, ckb],
    }
}

/// Cross-coupled SR pair with NMOS set/reset pulldowns.
///
/// Nets: `set`, `rst` → `q`, `qb`.
pub fn sr_latch(process: &Process) -> Generated {
    let mut f = FlatNetlist::new("sr_latch");
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let s = Sizing::standard(process, 1.0);
    let set = f.add_net("set", NetKind::Input);
    let rst = f.add_net("rst", NetKind::Input);
    let q = f.add_net("q", NetKind::Output);
    let qb = f.add_net("qb", NetKind::Output);
    add_inverter(&mut f, "i1", q, qb, vdd, gnd, s);
    add_inverter(&mut f, "i2", qb, q, vdd, gnd, s);
    // Strong set/reset overpower the loop.
    f.add_device(Device::mos(
        MosKind::Nmos,
        "mset",
        set,
        qb,
        gnd,
        gnd,
        4.0 * s.wn,
        s.l,
    ));
    f.add_device(Device::mos(
        MosKind::Nmos,
        "mrst",
        rst,
        q,
        gnd,
        gnd,
        4.0 * s.wn,
        s.l,
    ));
    Generated {
        netlist: f,
        inputs: vec![set, rst],
        outputs: vec![q, qb],
        clocks: Vec::new(),
    }
}

/// A domino stage with keeper — dynamic state held by a weak PMOS
/// half-latch (the recognition test case for `StateKind::Keeper`).
///
/// Nets: `clk`, `a` → `out` (dynamic node `dyn`).
pub fn keeper_domino(process: &Process, w_keeper: f64) -> Generated {
    let mut f = FlatNetlist::new("keeper_domino");
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let s = Sizing::standard(process, 1.0);
    let clk = f.add_net("clk", NetKind::Clock);
    let a = f.add_net("a", NetKind::Input);
    let dyn_n = f.add_net("dyn", NetKind::Signal);
    let out = f.add_net("out", NetKind::Output);
    let x = f.add_net("x", NetKind::Signal);
    f.add_device(Device::mos(
        MosKind::Pmos,
        "pre",
        clk,
        dyn_n,
        vdd,
        vdd,
        s.wp,
        s.l,
    ));
    f.add_device(Device::mos(
        MosKind::Nmos,
        "eval",
        a,
        dyn_n,
        x,
        gnd,
        2.0 * s.wn,
        s.l,
    ));
    f.add_device(Device::mos(
        MosKind::Nmos,
        "foot",
        clk,
        x,
        gnd,
        gnd,
        2.0 * s.wn,
        s.l,
    ));
    add_inverter(&mut f, "oinv", dyn_n, out, vdd, gnd, s);
    f.add_device(Device::mos(
        MosKind::Pmos,
        "keep",
        out,
        dyn_n,
        vdd,
        vdd,
        w_keeper,
        2.0 * s.l,
    ));
    Generated {
        netlist: f,
        inputs: vec![a],
        outputs: vec![out],
        clocks: vec![clk],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_recognize::{recognize, StateKind};
    use cbv_sim::{Logic, SwitchSim};

    #[test]
    fn jam_latch_is_transparent_then_holds() {
        let p = Process::strongarm_035();
        let g = jam_latch(&p, 8e-6, 1e-6);
        let mut sim = SwitchSim::new(&g.netlist);
        let (ck, ckb) = (g.clocks[0], g.clocks[1]);
        let d = g.inputs[0];
        let q = g.outputs[0];
        // Transparent: ck high.
        sim.set(ck, Logic::One);
        sim.set(ckb, Logic::Zero);
        sim.set(d, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Logic::One);
        // Close the latch, flip d: q must hold.
        sim.set(ck, Logic::Zero);
        sim.set(ckb, Logic::One);
        sim.settle().unwrap();
        sim.set(d, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Logic::One, "latched value held");
        // Reopen: q follows d.
        sim.set(ck, Logic::One);
        sim.set(ckb, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Logic::Zero);
    }

    #[test]
    fn jam_latch_recognized_as_level_latch() {
        let p = Process::strongarm_035();
        let g = jam_latch(&p, 8e-6, 1e-6);
        let rec = recognize(&g.netlist);
        assert!(rec
            .state_elements
            .iter()
            .any(|se| se.kind == StateKind::LevelLatch));
    }

    #[test]
    fn sr_latch_sets_and_resets() {
        let p = Process::strongarm_035();
        let g = sr_latch(&p);
        let mut sim = SwitchSim::new(&g.netlist);
        let (set, rst) = (g.inputs[0], g.inputs[1]);
        let (q, qb) = (g.outputs[0], g.outputs[1]);
        sim.set(set, Logic::One);
        sim.set(rst, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Logic::One);
        assert_eq!(sim.value(qb), Logic::Zero);
        sim.set(set, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Logic::One, "holds after set released");
        sim.set(rst, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Logic::Zero);
        assert_eq!(sim.value(qb), Logic::One);
    }

    #[test]
    fn keeper_holds_dynamic_node_against_release() {
        let p = Process::strongarm_035();
        let g = keeper_domino(&p, 1e-6);
        let mut sim = SwitchSim::new(&g.netlist);
        let clk = g.clocks[0];
        let a = g.inputs[0];
        let dyn_n = g.netlist.find_net("dyn").unwrap();
        sim.set(clk, Logic::Zero);
        sim.set(a, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(dyn_n), Logic::One, "precharged");
        sim.set(clk, Logic::One);
        sim.settle().unwrap();
        // With the keeper, the floating node is actively held high (not
        // merely stored charge).
        assert_eq!(sim.value(dyn_n), Logic::One);
        let rec = recognize(&g.netlist);
        assert!(rec
            .state_elements
            .iter()
            .any(|se| se.kind == StateKind::Keeper));
    }
}
