//! Switch-level simulation of transistor netlists.
//!
//! The value system is three-valued (0 / 1 / X) with implicit charge
//! storage: a node whose conducting group touches no rail and no driven
//! input *retains* its previous value — which is precisely what makes
//! dynamic logic simulate correctly. Rail fights resolve by conductance
//! ratio (a 3× stronger side wins, else X), which models ratioed logic
//! and keepers without a full strength lattice.

use cbv_netlist::{FlatNetlist, NetId};
use cbv_rtl::lookup::LookupError;
use cbv_tech::MosKind;

/// Three-valued signal level.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Logic {
    /// Driven or stored low.
    Zero,
    /// Driven or stored high.
    One,
    /// Unknown / conflict.
    X,
}

impl Logic {
    /// Logical complement (X stays X). Not `std::ops::Not`: that trait
    /// cannot express the X fixpoint without implying total negation.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> Logic {
        match self {
            Logic::Zero => Logic::One,
            Logic::One => Logic::Zero,
            Logic::X => Logic::X,
        }
    }

    /// From a bool.
    pub fn from_bool(b: bool) -> Logic {
        if b {
            Logic::One
        } else {
            Logic::Zero
        }
    }
}

/// Is a device's channel conducting for a given gate level?
/// Returns `Some(true/false)` when definite, `None` for X.
fn conducts(kind: MosKind, gate: Logic) -> Option<bool> {
    match (kind, gate) {
        (MosKind::Nmos, Logic::One) | (MosKind::Pmos, Logic::Zero) => Some(true),
        (MosKind::Nmos, Logic::Zero) | (MosKind::Pmos, Logic::One) => Some(false),
        (_, Logic::X) => None,
    }
}

/// The switch-level simulator.
#[derive(Debug, Clone)]
pub struct SwitchSim<'n> {
    netlist: &'n FlatNetlist,
    values: Vec<Logic>,
    driven: Vec<bool>,
    /// Per-net charge weight: total channel width attached (diffusion
    /// capacitance proxy), used to resolve charge sharing.
    charge_weight: Vec<f64>,
    /// Per-net list of devices whose channel touches the net, in device
    /// id order — the same order a full device scan visits them. The
    /// conducting-group BFS walks this index instead of rescanning every
    /// device per node, taking group exploration from O(nets × devices)
    /// to O(touching devices).
    channel_adj: Vec<Vec<cbv_netlist::DeviceId>>,
    /// Rail-fight win threshold: the stronger side must exceed the weaker
    /// by this conductance factor to win cleanly.
    pub fight_ratio: f64,
}

impl<'n> SwitchSim<'n> {
    /// Creates a simulator; every non-rail node starts at X, rails at
    /// their levels.
    pub fn new(netlist: &'n FlatNetlist) -> SwitchSim<'n> {
        let mut values = vec![Logic::X; netlist.net_count()];
        let mut driven = vec![false; netlist.net_count()];
        for id in netlist.net_ids() {
            match netlist.net_kind(id) {
                cbv_netlist::NetKind::Power => {
                    values[id.index()] = Logic::One;
                    driven[id.index()] = true;
                }
                cbv_netlist::NetKind::Ground => {
                    values[id.index()] = Logic::Zero;
                    driven[id.index()] = true;
                }
                _ => {}
            }
        }
        let mut charge_weight = vec![0.0f64; netlist.net_count()];
        let mut channel_adj = vec![Vec::new(); netlist.net_count()];
        for (i, d) in netlist.devices().iter().enumerate() {
            charge_weight[d.source.index()] += d.w;
            channel_adj[d.source.index()].push(cbv_netlist::DeviceId(i as u32));
            if d.drain != d.source {
                charge_weight[d.drain.index()] += d.w;
                channel_adj[d.drain.index()].push(cbv_netlist::DeviceId(i as u32));
            }
        }
        SwitchSim {
            netlist,
            values,
            driven,
            charge_weight,
            channel_adj,
            fight_ratio: 3.0,
        }
    }

    /// Drives an external node (input, clock, or test override).
    pub fn set(&mut self, net: NetId, value: Logic) {
        self.values[net.index()] = value;
        self.driven[net.index()] = true;
    }

    /// Releases an externally driven node (it will float / be driven by
    /// the circuit again).
    pub fn release(&mut self, net: NetId) {
        self.driven[net.index()] = false;
    }

    /// Convenience: set by net name.
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    pub fn set_by_name(&mut self, name: &str, value: Logic) {
        self.try_set_by_name(name, value)
            .unwrap_or_else(|e| panic!("{e}"));
    }

    /// Set by net name, reporting an unknown name as a [`LookupError`]
    /// with a near-miss suggestion.
    ///
    /// # Errors
    ///
    /// Returns [`LookupError`] when the net does not exist.
    pub fn try_set_by_name(&mut self, name: &str, value: Logic) -> Result<(), LookupError> {
        let net = self.find_net(name)?;
        self.set(net, value);
        Ok(())
    }

    fn find_net(&self, name: &str) -> Result<NetId, LookupError> {
        self.netlist.find_net(name).ok_or_else(|| {
            LookupError::new(
                "net",
                name,
                self.netlist.net_ids().map(|id| self.netlist.net_name(id)),
            )
        })
    }

    /// Current value of a net.
    pub fn value(&self, net: NetId) -> Logic {
        self.values[net.index()]
    }

    /// Value by name.
    ///
    /// # Panics
    ///
    /// Panics if the net does not exist.
    pub fn value_by_name(&self, name: &str) -> Logic {
        self.try_value_by_name(name)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Value by net name, reporting an unknown name as a
    /// [`LookupError`] with a near-miss suggestion.
    ///
    /// # Errors
    ///
    /// Returns [`LookupError`] when the net does not exist.
    pub fn try_value_by_name(&self, name: &str) -> Result<Logic, LookupError> {
        Ok(self.value(self.find_net(name)?))
    }

    /// Relaxes the network to a fixpoint. Returns the number of sweeps,
    /// or `None` if it failed to stabilize (oscillation — e.g. an
    /// enabled ring oscillator).
    ///
    /// Two phases: an *optimistic bootstrap* (X-gated devices treated
    /// off) lets bistable structures like cross-coupled pairs and DCVSL
    /// loads resolve out of the initial all-X state; a *pessimistic
    /// verify* then re-evaluates every node with X-gated devices on both
    /// ways, demoting genuinely ambiguous nodes back to X.
    pub fn settle(&mut self) -> Option<usize> {
        let max_sweeps = 4 * self.netlist.net_count().max(8);
        let mut total = 0;
        for phase_pessimistic in [false, true] {
            let mut stable = false;
            for _ in 0..max_sweeps {
                total += 1;
                if !self.sweep_once(phase_pessimistic) {
                    stable = true;
                    break;
                }
            }
            if !stable {
                return None;
            }
        }
        Some(total)
    }

    /// One relaxation sweep; true if anything changed.
    fn sweep_once(&mut self, pessimistic: bool) -> bool {
        let mut changed = false;
        let n = self.netlist.net_count();
        let mut new_values = self.values.clone();
        for (net_idx, slot) in new_values.iter_mut().enumerate().take(n) {
            let net = NetId(net_idx as u32);
            if self.driven[net_idx] {
                continue;
            }
            let v = self.evaluate_node(net, pessimistic);
            if v != self.values[net_idx] {
                *slot = v;
                changed = true;
            }
        }
        self.values = new_values;
        changed
    }

    /// Evaluates one node. In pessimistic mode the conducting group is
    /// explored twice — optimistic (X-gated devices off) and pessimistic
    /// (on); disagreement means X. The bootstrap phase uses only the
    /// optimistic exploration.
    fn evaluate_node(&self, net: NetId, pessimistic: bool) -> Logic {
        let a = self.group_value(net, false);
        if !pessimistic {
            return a;
        }
        let b = self.group_value(net, true);
        if a == b {
            a
        } else {
            Logic::X
        }
    }

    /// Value of the conducting group containing `net`, treating X-gated
    /// devices as on (`x_on`) or off.
    fn group_value(&self, start: NetId, x_on: bool) -> Logic {
        // BFS the conducting channel graph, tracking the bottleneck
        // (weakest series device) conductance from `start` to each node —
        // a cheap proxy for the series path resistance that decides
        // ratioed fights.
        let mut group = vec![start];
        let mut bottleneck = vec![f64::INFINITY];
        let mut head = 0;
        let mut g_one: f64 = 0.0;
        let mut g_zero: f64 = 0.0;
        let mut driven_vals: Vec<Logic> = Vec::new();
        while head < group.len() {
            let cur = group[head];
            let cur_bn = bottleneck[head];
            head += 1;
            for &did in &self.channel_adj[cur.index()] {
                let d = self.netlist.device(did);
                let on = match conducts(d.kind, self.values[d.gate.index()]) {
                    Some(on) => on,
                    None => x_on,
                };
                if !on {
                    continue;
                }
                let other = d.other_channel_end(cur);
                // Electron mobility advantage: an NMOS square conducts
                // ~2.5x a PMOS square.
                let mobility = match d.kind {
                    MosKind::Nmos => 1.0,
                    MosKind::Pmos => 0.4,
                };
                let g_path = cur_bn.min(mobility * d.w / d.l);
                let v = self.values[other.index()];
                let is_rail = self.netlist.net_kind(other).is_rail();
                let is_driven = self.driven[other.index()];
                if is_rail || is_driven {
                    match v {
                        Logic::One => g_one = g_one.max(g_path),
                        Logic::Zero => g_zero = g_zero.max(g_path),
                        Logic::X => driven_vals.push(Logic::X),
                    }
                    if is_driven && !is_rail {
                        driven_vals.push(v);
                    }
                    continue;
                }
                match group.iter().position(|&g| g == other) {
                    Some(i) => {
                        // Found a stronger route into an already-seen
                        // node: revisit it so terminals get the better
                        // bottleneck.
                        if g_path > bottleneck[i] {
                            bottleneck[i] = g_path;
                            if i < head {
                                group.push(other);
                                bottleneck.push(g_path);
                            }
                        }
                    }
                    None => {
                        group.push(other);
                        bottleneck.push(g_path);
                    }
                }
            }
        }
        // Deduplicate revisited nodes for the charge computation below.
        let mut seen = std::collections::HashSet::new();
        let group: Vec<NetId> = group.into_iter().filter(|&g| seen.insert(g)).collect();
        if driven_vals.contains(&Logic::X) {
            return Logic::X;
        }
        match (g_one > 0.0, g_zero > 0.0) {
            (true, true) => {
                if g_one >= self.fight_ratio * g_zero {
                    Logic::One
                } else if g_zero >= self.fight_ratio * g_one {
                    Logic::Zero
                } else {
                    Logic::X
                }
            }
            (true, false) => Logic::One,
            (false, true) => Logic::Zero,
            (false, false) => {
                // Isolated: charge storage / charge sharing. The group
                // settles to the charge-weighted majority; nodes still at
                // X carry no known charge and are ignored (they are the
                // tiny never-initialized stack internals). A near-tie is
                // X — that is exactly the hazard the charge-share checker
                // flags.
                let mut w_one = 0.0f64;
                let mut w_zero = 0.0f64;
                for &g in &group {
                    let w = self.charge_weight[g.index()].max(1e-9);
                    match self.values[g.index()] {
                        Logic::One => w_one += w,
                        Logic::Zero => w_zero += w,
                        Logic::X => {}
                    }
                }
                match (w_one > 0.0, w_zero > 0.0) {
                    (true, false) => Logic::One,
                    (false, true) => Logic::Zero,
                    (false, false) => Logic::X,
                    (true, true) => {
                        if w_one >= 2.0 * w_zero {
                            Logic::One
                        } else if w_zero >= 2.0 * w_one {
                            Logic::Zero
                        } else {
                            Logic::X
                        }
                    }
                }
            }
        }
    }

    /// Reads a bus of nets as an integer, MSB-first names like `a[3]`.
    /// Returns `None` if any bit is X.
    pub fn read_bus(&self, base: &str, width: u32) -> Option<u64> {
        let mut out = 0u64;
        for i in 0..width {
            let net = self.netlist.find_net(&format!("{base}[{i}]"))?;
            match self.value(net) {
                Logic::One => out |= 1 << i,
                Logic::Zero => {}
                Logic::X => return None,
            }
        }
        Some(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, DeviceId, NetKind};

    fn add_inverter(f: &mut FlatNetlist, name: &str, a: NetId, y: NetId, vdd: NetId, gnd: NetId) {
        f.add_device(Device::mos(
            MosKind::Pmos,
            format!("{name}p"),
            a,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            format!("{name}n"),
            a,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
    }

    #[test]
    fn unknown_net_yields_typed_error_with_suggestion() {
        let mut f = FlatNetlist::new("inv");
        let a = f.add_net("data_in", NetKind::Input);
        let y = f.add_net("data_out", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        add_inverter(&mut f, "i", a, y, vdd, gnd);
        let mut sim = SwitchSim::new(&f);
        let e = sim.try_set_by_name("data_inn", Logic::One).unwrap_err();
        assert_eq!(
            e.to_string(),
            "no net named `data_inn`; did you mean `data_in`?"
        );
        let e = sim.try_value_by_name("dataout").unwrap_err();
        assert_eq!(e.suggestion.as_deref(), Some("data_out"));
        sim.try_set_by_name("data_in", Logic::Zero).unwrap();
        sim.settle().unwrap();
        assert_eq!(sim.try_value_by_name("data_out").unwrap(), Logic::One);
    }

    #[test]
    fn adjacency_index_matches_brute_force_scan() {
        // Build a mixed topology: inverter chain + a pass-gate mux +
        // a device with source == drain (degenerate channel).
        let mut f = FlatNetlist::new("mix");
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let a = f.add_net("a", NetKind::Input);
        let s = f.add_net("s", NetKind::Input);
        let n0 = f.add_net("n0", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        add_inverter(&mut f, "i0", a, n0, vdd, gnd);
        add_inverter(&mut f, "i1", n0, y, vdd, gnd);
        f.add_device(Device::mos(
            MosKind::Nmos,
            "pass",
            s,
            y,
            n0,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "degen",
            s,
            n0,
            n0,
            gnd,
            2e-6,
            0.35e-6,
        ));

        let sim = SwitchSim::new(&f);
        // The index must list, per net, exactly the devices a full scan
        // in id order finds touching that net — including them in the
        // same order. The BFS previously iterated `devices()` and
        // skipped non-touching ones, so ordered equality of the
        // filtered list proves the fast path visits identical devices
        // in identical order, hence settles identically.
        for net in f.net_ids() {
            let brute: Vec<DeviceId> = f
                .devices()
                .iter()
                .enumerate()
                .filter(|(_, d)| d.channel_touches(net))
                .map(|(i, _)| DeviceId(i as u32))
                .collect();
            assert_eq!(sim.channel_adj[net.index()], brute, "net {net:?}");
        }
    }

    #[test]
    fn indexed_settle_matches_expected_mux_values() {
        let mut f = FlatNetlist::new("mux");
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let a = f.add_net("a", NetKind::Input);
        let s = f.add_net("s", NetKind::Input);
        let sb = f.add_net("sb", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        add_inverter(&mut f, "si", s, sb, vdd, gnd);
        // Transmission-gate mux: y = s ? a : vdd-side constant one.
        f.add_device(Device::mos(
            MosKind::Nmos,
            "tn",
            s,
            y,
            a,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "tp",
            sb,
            y,
            a,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pu",
            s,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        let mut sim = SwitchSim::new(&f);
        sim.set(s, Logic::One);
        for v in [Logic::Zero, Logic::One] {
            sim.set(a, v);
            sim.settle().unwrap();
            assert_eq!(sim.value(y), v, "selected input passes through");
        }
        sim.set(s, Logic::Zero);
        sim.set(a, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::One, "deselected: pull-up wins");
    }

    #[test]
    fn inverter_truth_table() {
        let mut f = FlatNetlist::new("inv");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        add_inverter(&mut f, "i", a, y, vdd, gnd);
        let mut sim = SwitchSim::new(&f);
        sim.set(a, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::One);
        sim.set(a, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::Zero);
        sim.set(a, Logic::X);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::X);
    }

    #[test]
    fn nand_gate() {
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
        let mut sim = SwitchSim::new(&f);
        for (va, vb, expect) in [
            (Logic::Zero, Logic::Zero, Logic::One),
            (Logic::Zero, Logic::One, Logic::One),
            (Logic::One, Logic::Zero, Logic::One),
            (Logic::One, Logic::One, Logic::Zero),
        ] {
            sim.set(a, va);
            sim.set(b, vb);
            sim.settle().unwrap();
            assert_eq!(sim.value(y), expect, "a={va:?} b={vb:?}");
        }
    }

    #[test]
    fn domino_precharge_evaluate() {
        let mut f = FlatNetlist::new("dom");
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a", NetKind::Input);
        let d = f.add_net("d", NetKind::Signal);
        let out = f.add_net("out", NetKind::Output);
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
            "ft",
            clk,
            x,
            gnd,
            gnd,
            6e-6,
            0.35e-6,
        ));
        add_inverter(&mut f, "o", d, out, vdd, gnd);
        let mut sim = SwitchSim::new(&f);
        // Precharge phase: clk low.
        sim.set(clk, Logic::Zero);
        sim.set(a, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(d), Logic::One, "precharged high");
        assert_eq!(sim.value(out), Logic::Zero);
        // Evaluate with a=0: node floats, retains charge.
        sim.set(clk, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(d), Logic::One, "charge retained");
        // Evaluate with a=1: discharges.
        sim.set(a, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(d), Logic::Zero);
        assert_eq!(sim.value(out), Logic::One);
        // Back to precharge.
        sim.set(clk, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(d), Logic::One);
    }

    #[test]
    fn pass_gate_mux_and_charge_retention() {
        let mut f = FlatNetlist::new("pass");
        let s = f.add_net("s", NetKind::Input);
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(MosKind::Nmos, "m", s, a, y, gnd, 2e-6, 0.35e-6));
        let mut sim = SwitchSim::new(&f);
        sim.set(s, Logic::One);
        sim.set(a, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::One, "pass gate conducts");
        // Turn the pass gate off: y floats, retaining One.
        sim.set(s, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::One, "charge retained on floating node");
        // Change a: y must NOT follow.
        sim.set(a, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::One);
    }

    #[test]
    fn ratioed_fight_resolves_by_strength() {
        // Pseudo-NMOS: weak always-on pullup vs strong pulldown.
        let mut f = FlatNetlist::new("ratioed");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "load",
            gnd,
            y,
            vdd,
            vdd,
            1.0e-6,
            1.4e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            8e-6,
            0.35e-6,
        ));
        let mut sim = SwitchSim::new(&f);
        sim.set(a, Logic::Zero);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::One, "load pulls high when n off");
        sim.set(a, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::Zero, "strong pulldown wins the fight");
    }

    #[test]
    fn balanced_fight_is_x() {
        let mut f = FlatNetlist::new("fight");
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // Two equal always-on devices fighting.
        f.add_device(Device::mos(
            MosKind::Pmos,
            "up",
            gnd,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "dn",
            vdd,
            y,
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let mut sim = SwitchSim::new(&f);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::X);
    }

    #[test]
    fn cross_coupled_latch_holds_either_state() {
        let mut f = FlatNetlist::new("sr");
        let q = f.add_net("q", NetKind::Output);
        let qb = f.add_net("qb", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        add_inverter(&mut f, "i1", q, qb, vdd, gnd);
        add_inverter(&mut f, "i2", qb, q, vdd, gnd);
        let mut sim = SwitchSim::new(&f);
        // Force a state, then release.
        sim.set(q, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(qb), Logic::Zero);
        sim.release(q);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Logic::One, "latch holds");
        assert_eq!(sim.value(qb), Logic::Zero);
        // Flip it.
        sim.set(q, Logic::Zero);
        sim.settle().unwrap();
        sim.release(q);
        sim.settle().unwrap();
        assert_eq!(sim.value(q), Logic::Zero);
        assert_eq!(sim.value(qb), Logic::One);
    }

    #[test]
    fn x_gate_pessimism() {
        // NMOS with X gate between driven 1 and output: output X only if
        // it matters.
        let mut f = FlatNetlist::new("xg");
        let g = f.add_net("g", NetKind::Input);
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(MosKind::Nmos, "m", g, a, y, gnd, 2e-6, 0.35e-6));
        let mut sim = SwitchSim::new(&f);
        sim.set(g, Logic::X);
        sim.set(a, Logic::One);
        // y previous value X -> on: 1, off: retains X -> X overall.
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::X);
        // But if y already held One, X gate cannot change it to anything
        // else (both branches give One).
        sim.set(g, Logic::One);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::One);
        sim.set(g, Logic::X);
        sim.settle().unwrap();
        assert_eq!(sim.value(y), Logic::One, "agreeing optimistic/pessimistic");
    }
}
