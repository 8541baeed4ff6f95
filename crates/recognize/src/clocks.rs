//! Clock-net inference.
//!
//! §4.3: "The automatic recognition of state-elements, clocking nodes,
//! glitch sensitive nodes, and data nodes is essential." Declared clocks
//! are trusted; additional clocks are inferred from precharge topology
//! (a net that gates both a precharging PMOS and a footing NMOS on
//! *different* nodes of one component), and clock phases are derived by
//! propagation through inverters and buffers.

use cbv_netlist::{Ccc, FlatNetlist, NetId, NetKind};
use cbv_tech::MosKind;

/// Infers the set of clock nets: declared ∪ inferred ∪ derived phases.
pub fn infer_clocks(netlist: &FlatNetlist, cccs: &[Ccc]) -> Vec<NetId> {
    let mut clocks: Vec<NetId> = (0..netlist.net_count() as u32)
        .map(NetId)
        .filter(|&n| netlist.net_kind(n) == NetKind::Clock)
        .collect();

    // Inference: precharge + foot pattern.
    for ccc in cccs {
        for &candidate in &ccc.inputs {
            if clocks.contains(&candidate) {
                continue;
            }
            let mut precharges: Vec<(NetId, f64)> = Vec::new();
            let mut foots: Vec<NetId> = Vec::new();
            for &did in &ccc.devices {
                let d = netlist.device(did);
                if d.gate != candidate {
                    continue;
                }
                let (s, dr) = d.channel();
                match d.kind {
                    MosKind::Pmos => {
                        // vdd -> signal: precharge candidate.
                        for (rail, other) in [(s, dr), (dr, s)] {
                            if netlist.net_kind(rail) == NetKind::Power
                                && !netlist.net_kind(other).is_rail()
                            {
                                precharges.push((other, d.aspect()));
                            }
                        }
                    }
                    MosKind::Nmos => {
                        for (rail, other) in [(s, dr), (dr, s)] {
                            if netlist.net_kind(rail) == NetKind::Ground
                                && !netlist.net_kind(other).is_rail()
                            {
                                foots.push(other);
                            }
                        }
                    }
                }
            }
            // Clock-like: precharges one node, foots a *different* node
            // (an inverter input precharges and pulls the same node), and
            // is the node's dominant pull-up — any other PMOS on the
            // precharged node must be a weak keeper, not parallel logic
            // (which is what distinguishes a domino precharge from a
            // NAND input).
            let clock_like = precharges.iter().any(|&(p, pre_aspect)| {
                if !foots.iter().any(|&f| f != p) {
                    return false;
                }
                ccc.devices.iter().all(|&did| {
                    let d = netlist.device(did);
                    d.kind != MosKind::Pmos
                        || d.gate == candidate
                        || !d.channel_touches(p)
                        || d.aspect() < 0.5 * pre_aspect
                })
            });
            if clock_like {
                clocks.push(candidate);
            }
        }
    }

    // Phase derivation: propagate through inverter/buffer CCCs (exactly
    // one input, which is a known clock, and a complementary 2-device
    // structure).
    let mut changed = true;
    while changed {
        changed = false;
        for ccc in cccs {
            if ccc.inputs.len() != 1 || !clocks.contains(&ccc.inputs[0]) {
                continue;
            }
            // Structural inverter check: one PMOS + one NMOS sharing the
            // output.
            if ccc.devices.len() != 2 {
                continue;
            }
            let d0 = netlist.device(ccc.devices[0]);
            let d1 = netlist.device(ccc.devices[1]);
            if d0.kind == d1.kind {
                continue;
            }
            for &out in &ccc.outputs {
                if !clocks.contains(&out) {
                    clocks.push(out);
                    changed = true;
                }
            }
        }
    }
    clocks.sort();
    clocks.dedup();
    clocks
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{partition_cccs, Device};

    #[test]
    fn declared_clock_found() {
        let mut f = FlatNetlist::new("t");
        let ck = f.add_net("ck", NetKind::Clock);
        let (cccs, _) = partition_cccs(&f);
        assert_eq!(infer_clocks(&f, &cccs), vec![ck]);
    }

    #[test]
    fn undeclared_precharge_clock_inferred() {
        // Same domino stage but the clock arrives as a plain signal.
        let mut f = FlatNetlist::new("dom");
        let clk = f.add_net("clk", NetKind::Signal);
        let a = f.add_net("a", NetKind::Input);
        let d = f.add_net("d", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pre",
            clk,
            d,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            d,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "foot",
            clk,
            x,
            gnd,
            gnd,
            6e-6,
            0.35e-6,
        ));
        let (cccs, _) = partition_cccs(&f);
        let clocks = infer_clocks(&f, &cccs);
        assert!(
            clocks.contains(&clk),
            "precharge+foot net must be inferred as clock"
        );
    }

    #[test]
    fn inverter_input_not_inferred_as_clock() {
        let mut f = FlatNetlist::new("inv");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p",
            a,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let (cccs, _) = partition_cccs(&f);
        assert!(infer_clocks(&f, &cccs).is_empty());
    }

    #[test]
    fn phases_derived_through_inverter_chain() {
        let mut f = FlatNetlist::new("phases");
        let ck = f.add_net("ck", NetKind::Clock);
        let ckb = f.add_net("ckb", NetKind::Signal);
        let ck2 = f.add_net("ck2", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // Two inverters: ck -> ckb -> ck2. ckb/ck2 must be read somewhere
        // to count as CCC outputs; add dummy loads.
        let dummy1 = f.add_net("d1", NetKind::Signal);
        let dummy2 = f.add_net("d2", NetKind::Output);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p1",
            ck,
            ckb,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n1",
            ck,
            ckb,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p2",
            ckb,
            ck2,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n2",
            ckb,
            ck2,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p3",
            ck2,
            dummy1,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n3",
            ck2,
            dummy1,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let _ = dummy2;
        let (cccs, _) = partition_cccs(&f);
        let clocks = infer_clocks(&f, &cccs);
        assert!(clocks.contains(&ck));
        assert!(clocks.contains(&ckb), "first derived phase");
        assert!(clocks.contains(&ck2), "second derived phase");
        // dummy1 is never read by any gate, so it is not a CCC output and
        // cannot be derived as a phase.
        assert!(!clocks.contains(&dummy1));
    }
}
