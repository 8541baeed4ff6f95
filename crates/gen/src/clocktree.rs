//! Clock distribution generators: buffered fanout chains whose RC
//! behavior feeds the §4.2 clock-RC and skew analyses.

use cbv_netlist::{Device, FlatNetlist, NetKind};
use cbv_tech::{MosKind, Process};

use crate::gates::{add_inverter, Sizing};
use crate::Generated;

/// Generates a buffered clock trunk: `levels` of inverter pairs, each
/// level `taper`× stronger, the final level driving `leaves` latch-load
/// devices. All derived phases keep clock polarity (buffer pairs).
///
/// Nets: `clk_in` (root), `clk_leaf` (the distributed phase), loads on
/// `clk_leaf`.
pub fn clock_trunk(levels: u32, taper: f64, leaves: u32, process: &Process) -> Generated {
    let mut f = FlatNetlist::new(format!("ck_trunk{levels}"));
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let root = f.add_net("clk_in", NetKind::Clock);
    let mut prev = root;
    for lvl in 0..levels {
        let strength = taper.powi(lvl as i32);
        let s = Sizing::standard(process, strength);
        let mid = f.add_net(&format!("ckb{lvl}"), NetKind::Signal);
        let out = if lvl + 1 == levels {
            f.add_net("clk_leaf", NetKind::Signal)
        } else {
            f.add_net(&format!("ck{}", lvl + 1), NetKind::Signal)
        };
        add_inverter(&mut f, &format!("b{lvl}a"), prev, mid, vdd, gnd, s);
        add_inverter(&mut f, &format!("b{lvl}b"), mid, out, vdd, gnd, s);
        prev = out;
    }
    // Latch-like loads on the leaf.
    let dummy = f.add_net("load_node", NetKind::Signal);
    let s = Sizing::standard(process, 1.0);
    for i in 0..leaves {
        f.add_device(Device::mos(
            MosKind::Nmos,
            format!("load{i}"),
            prev,
            dummy,
            gnd,
            gnd,
            s.wn,
            s.l,
        ));
    }
    Generated {
        netlist: f,
        inputs: Vec::new(),
        outputs: vec![prev],
        clocks: vec![root],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_recognize::recognize;
    use cbv_sim::{Logic, SwitchSim};

    #[test]
    fn trunk_preserves_polarity() {
        let p = Process::strongarm_035();
        let g = clock_trunk(3, 3.0, 16, &p);
        let mut sim = SwitchSim::new(&g.netlist);
        let root = g.clocks[0];
        for v in [Logic::Zero, Logic::One, Logic::Zero] {
            sim.set(root, v);
            sim.settle().unwrap();
            assert_eq!(sim.value(g.outputs[0]), v);
        }
    }

    #[test]
    fn every_stage_is_a_derived_clock_phase() {
        let p = Process::strongarm_035();
        let g = clock_trunk(2, 3.0, 8, &p);
        let rec = recognize(&g.netlist);
        let leaf = g.netlist.find_net("clk_leaf").unwrap();
        assert!(
            rec.clock_nets.contains(&leaf),
            "leaf must be recognized as a clock phase"
        );
    }

    #[test]
    fn taper_grows_device_widths() {
        let p = Process::strongarm_035();
        let g = clock_trunk(3, 3.0, 4, &p);
        let w0 = g
            .netlist
            .devices()
            .iter()
            .find(|d| d.name == "b0a_n")
            .unwrap()
            .w;
        let w2 = g
            .netlist
            .devices()
            .iter()
            .find(|d| d.name == "b2a_n")
            .unwrap()
            .w;
        assert!((w2 / w0 - 9.0).abs() < 1e-6, "3^2 taper");
    }
}
