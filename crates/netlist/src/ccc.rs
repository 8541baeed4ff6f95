//! Channel-connected-component (CCC) partitioning.
//!
//! A CCC is a maximal set of devices connected through source/drain
//! terminals, cut at the supply rails and at gate terminals. It is the
//! natural unit of full-custom circuit recognition: the paper's tools must
//! "automatically and conservatively deduce" logic and timing meaning
//! "from the topology and context of the actual transistors", and every
//! such deduction starts from the CCC — a CCC is one "gate" in the loose,
//! full-custom sense (a complementary gate, a domino stage, a latch, a
//! pass-gate network...).

use std::collections::HashMap;

use crate::flat::FlatNetlist;
use crate::{DeviceId, NetId};

/// Index of a CCC within a [`partition_cccs`] result.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CccId(pub u32);

impl CccId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One channel-connected component.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Ccc {
    /// Devices in this component.
    pub devices: Vec<DeviceId>,
    /// Non-rail nets internal to or on the boundary of the channel graph
    /// (every source/drain net of the member devices, rails excluded).
    pub channel_nets: Vec<NetId>,
    /// Nets that are *inputs* to this component: gates of member devices.
    /// A net can appear in both `inputs` and `channel_nets` (e.g. pass
    /// gates driven by a net they also conduct to).
    pub inputs: Vec<NetId>,
    /// Channel nets that leave the component: they are read by gates of
    /// other components, are ports, or touch passives — the component's
    /// observable outputs.
    pub outputs: Vec<NetId>,
}

/// Union–find over net indices.
struct UnionFind {
    parent: Vec<u32>,
}

impl UnionFind {
    fn new(n: usize) -> UnionFind {
        UnionFind {
            parent: (0..n as u32).collect(),
        }
    }

    fn find(&mut self, mut x: u32) -> u32 {
        while self.parent[x as usize] != x {
            let gp = self.parent[self.parent[x as usize] as usize];
            self.parent[x as usize] = gp;
            x = gp;
        }
        x
    }

    fn union(&mut self, a: u32, b: u32) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra as usize] = rb;
        }
    }
}

/// Partitions a flat netlist into channel-connected components.
///
/// Rails never merge components (they are cut points); devices whose both
/// channel ends are rails (e.g. decoupling caps built from transistors)
/// form singleton components keyed by the device itself.
///
/// Returns the components plus a device→component map.
pub fn partition_cccs(netlist: &FlatNetlist) -> (Vec<Ccc>, Vec<CccId>) {
    let n_nets = netlist.net_count();
    let n_devs = netlist.devices().len();
    let mut uf = UnionFind::new(n_nets + n_devs);
    // Each device is a union-find node (offset by n_nets) so that devices
    // merge through shared non-rail channel nets.
    for (i, d) in netlist.devices().iter().enumerate() {
        let dev_node = (n_nets + i) as u32;
        for net in [d.source, d.drain] {
            if !netlist.net_kind(net).is_rail() {
                uf.union(dev_node, net.0);
            }
        }
    }

    // Group devices by root.
    let mut groups: HashMap<u32, Vec<DeviceId>> = HashMap::new();
    for i in 0..n_devs {
        let root = uf.find((n_nets + i) as u32);
        groups.entry(root).or_default().push(DeviceId(i as u32));
    }

    // Deterministic order: by smallest device id in the group.
    let mut ordered: Vec<Vec<DeviceId>> = groups.into_values().collect();
    ordered.sort_by_key(|g| g.iter().min().copied());

    // Precompute which nets are read as gates anywhere, are ports, or
    // touch passives — those make a channel net an "output".
    let mut gate_read = vec![false; n_nets];
    for d in netlist.devices() {
        gate_read[d.gate.index()] = true;
    }
    let mut passive_touched = vec![false; n_nets];
    for p in netlist.passives() {
        passive_touched[p.a.index()] = true;
        passive_touched[p.b.index()] = true;
    }

    let mut dev_to_ccc = vec![CccId(0); n_devs];
    let mut cccs = Vec::with_capacity(ordered.len());
    for (ci, devices) in ordered.into_iter().enumerate() {
        let id = CccId(ci as u32);
        let mut channel_nets = Vec::new();
        let mut inputs = Vec::new();
        for &d in &devices {
            dev_to_ccc[d.index()] = id;
            let dev = netlist.device(d);
            for net in [dev.source, dev.drain] {
                if !netlist.net_kind(net).is_rail() && !channel_nets.contains(&net) {
                    channel_nets.push(net);
                }
            }
            if !inputs.contains(&dev.gate) {
                inputs.push(dev.gate);
            }
        }
        channel_nets.sort();
        inputs.sort();
        // A channel net is an output if something outside the channel
        // graph observes it: a gate (of any device — self-loading domino
        // keepers count), a port, or a passive.
        let outputs: Vec<NetId> = channel_nets
            .iter()
            .copied()
            .filter(|&n| {
                gate_read[n.index()] || netlist.net_kind(n).is_port() || passive_touched[n.index()]
            })
            .collect();
        cccs.push(Ccc {
            devices,
            channel_nets,
            inputs,
            outputs,
        });
    }
    (cccs, dev_to_ccc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::Device;
    use crate::NetKind;
    use cbv_tech::MosKind;

    /// Two back-to-back inverters: each is its own CCC; the middle net is
    /// output of the first and input of the second.
    fn two_inverters() -> FlatNetlist {
        let mut f = FlatNetlist::new("buf");
        let a = f.add_net("a", NetKind::Input);
        let m = f.add_net("m", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p0",
            a,
            m,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n0",
            a,
            m,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p1",
            m,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n1",
            m,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f
    }

    #[test]
    fn inverter_chain_splits_at_gates() {
        let f = two_inverters();
        let (cccs, dev_map) = partition_cccs(&f);
        assert_eq!(cccs.len(), 2);
        assert_ne!(dev_map[0], dev_map[2]);
        assert_eq!(dev_map[0], dev_map[1]);
        let m = f.find_net("m").unwrap();
        // m is output of ccc 0 (read by gates of ccc 1) and input of ccc 1.
        assert!(cccs[0].outputs.contains(&m));
        assert!(cccs[1].inputs.contains(&m));
    }

    #[test]
    fn stack_is_single_ccc() {
        // nand2: the nmos stack shares internal net x with the output.
        let mut f = FlatNetlist::new("nand2");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pa",
            a,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pb",
            b,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            y,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b,
            x,
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let (cccs, _) = partition_cccs(&f);
        assert_eq!(cccs.len(), 1);
        let y_id = f.find_net("y").unwrap();
        let x_id = f.find_net("x").unwrap();
        assert!(cccs[0].outputs.contains(&y_id), "y is a port");
        assert!(!cccs[0].outputs.contains(&x_id), "x is purely internal");
        assert_eq!(cccs[0].inputs.len(), 2);
    }

    #[test]
    fn pass_gate_bridges_components() {
        // in -> passgate -> out: the pass device's channel joins both
        // sides into one CCC.
        let mut f = FlatNetlist::new("pass");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Output);
        let en = f.add_net("en", NetKind::Input);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Nmos,
            "mp",
            en,
            a,
            b,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let (cccs, _) = partition_cccs(&f);
        assert_eq!(cccs.len(), 1);
        assert!(cccs[0].channel_nets.contains(&a));
        assert!(cccs[0].channel_nets.contains(&b));
        assert_eq!(cccs[0].inputs, vec![en]);
    }

    #[test]
    fn rail_to_rail_device_is_singleton() {
        // A mos cap from vdd to gnd channel-wise.
        let mut f = FlatNetlist::new("decap");
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Nmos,
            "mc",
            vdd,
            gnd,
            gnd,
            gnd,
            10e-6,
            1e-6,
        ));
        let (cccs, _) = partition_cccs(&f);
        assert_eq!(cccs.len(), 1);
        assert!(cccs[0].channel_nets.is_empty());
    }

    #[test]
    fn empty_netlist_has_no_cccs() {
        let mut f = FlatNetlist::new("empty");
        f.add_net("a", NetKind::Input);
        let (cccs, map) = partition_cccs(&f);
        assert!(cccs.is_empty());
        assert!(map.is_empty());
    }

    #[test]
    fn deterministic_ordering() {
        let f1 = two_inverters();
        let f2 = two_inverters();
        let (c1, _) = partition_cccs(&f1);
        let (c2, _) = partition_cccs(&f2);
        assert_eq!(c1, c2);
    }
}
