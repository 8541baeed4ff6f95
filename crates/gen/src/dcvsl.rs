//! Differential cascode voltage switch logic (DCVSL) generators.
//!
//! One of the paper's §2 logic families: complementary NMOS trees under
//! cross-coupled PMOS loads, producing true and complement rails with no
//! static current.

use cbv_netlist::{Device, FlatNetlist, NetKind};
use cbv_tech::{MosKind, Process};

use crate::gates::Sizing;
use crate::Generated;

/// Generates a DCVSL AND/NAND stage: outputs `q = a·b`, `qb = !(a·b)`.
/// Requires complement inputs `an`, `bn` (DCVSL is a dual-rail family).
pub fn dcvsl_and2(process: &Process) -> Generated {
    let mut f = FlatNetlist::new("dcvsl_and2");
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let s = Sizing::standard(process, 1.0);
    let a = f.add_net("a", NetKind::Input);
    let b = f.add_net("b", NetKind::Input);
    let an = f.add_net("an", NetKind::Input);
    let bn = f.add_net("bn", NetKind::Input);
    let q = f.add_net("q", NetKind::Output);
    let qb = f.add_net("qb", NetKind::Output);
    // Cross-coupled loads.
    // Loads are deliberately weak: the NMOS trees must overpower them
    // to flip the stage (the DCVSL ratio rule).
    f.add_device(Device::mos(
        MosKind::Pmos,
        "lq",
        qb,
        q,
        vdd,
        vdd,
        0.5 * s.wp,
        s.l,
    ));
    f.add_device(Device::mos(
        MosKind::Pmos,
        "lqb",
        q,
        qb,
        vdd,
        vdd,
        0.5 * s.wp,
        s.l,
    ));
    // Shared tail keeps both trees in one channel-connected component.
    let tail = f.add_net("tail", NetKind::Signal);
    f.add_device(Device::mos(
        MosKind::Nmos,
        "tail_on",
        vdd,
        tail,
        gnd,
        gnd,
        8.0 * s.wn,
        s.l,
    ));
    // True tree pulls qb low when a·b (so q rises): qb -a- x -b- tail.
    let x = f.add_net("x", NetKind::Signal);
    f.add_device(Device::mos(
        MosKind::Nmos,
        "ta",
        a,
        qb,
        x,
        gnd,
        4.0 * s.wn,
        s.l,
    ));
    f.add_device(Device::mos(
        MosKind::Nmos,
        "tb",
        b,
        x,
        tail,
        gnd,
        4.0 * s.wn,
        s.l,
    ));
    // Complement tree pulls q low when !(a·b) = an + bn.
    f.add_device(Device::mos(
        MosKind::Nmos,
        "ca",
        an,
        q,
        tail,
        gnd,
        4.0 * s.wn,
        s.l,
    ));
    f.add_device(Device::mos(
        MosKind::Nmos,
        "cb",
        bn,
        q,
        tail,
        gnd,
        4.0 * s.wn,
        s.l,
    ));
    Generated {
        netlist: f,
        inputs: vec![a, b, an, bn],
        outputs: vec![q, qb],
        clocks: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_recognize::{recognize, LogicFamily};
    use cbv_sim::{Logic, SwitchSim};

    #[test]
    fn truth_table_dual_rail() {
        let g = dcvsl_and2(&Process::strongarm_035());
        let mut sim = SwitchSim::new(&g.netlist);
        for m in 0u32..4 {
            let (va, vb) = (m & 1 == 1, m & 2 == 2);
            sim.set(g.inputs[0], Logic::from_bool(va));
            sim.set(g.inputs[1], Logic::from_bool(vb));
            sim.set(g.inputs[2], Logic::from_bool(!va));
            sim.set(g.inputs[3], Logic::from_bool(!vb));
            sim.settle().unwrap();
            assert_eq!(
                sim.value(g.outputs[0]),
                Logic::from_bool(va && vb),
                "q at {m:02b}"
            );
            assert_eq!(
                sim.value(g.outputs[1]),
                Logic::from_bool(!(va && vb)),
                "qb at {m:02b}"
            );
        }
    }

    #[test]
    fn recognized_as_dcvsl() {
        let g = dcvsl_and2(&Process::strongarm_035());
        let rec = recognize(&g.netlist);
        assert!(
            rec.classes.iter().any(|c| c.family == LogicFamily::Dcvsl),
            "{:?}",
            rec.classes.iter().map(|c| c.family).collect::<Vec<_>>()
        );
    }
}
