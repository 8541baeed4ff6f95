//! `cbv-recognize` — automatic circuit recognition.
//!
//! The core CAD challenge of the paper (§2.3): "A large challenge caused
//! by our methodology is the automatic recognition of groups of full
//! custom transistors in their logical and electrical meanings. The
//! logical behavior or intent of a collection of transistors has no
//! inherent pre-defined meaning as normally provided by traditional cell
//! library approaches. Subsequently, all logic and timing constraints
//! along with electrical requirements have to be automatically and
//! conservatively deduced from the topology and context of the actual
//! transistors."
//!
//! Given a flat transistor netlist, this crate deduces:
//!
//! * the **logic family** of every channel-connected component —
//!   static complementary, ratioed, dynamic (domino, with or without a
//!   clocked foot), dual-rail dynamic / DCVSL, or pass-transistor
//!   ([`family`]);
//! * the **pull paths** of every output: one depth-first walk per
//!   (output, rail) through the channel graph enumerates the simple
//!   paths as device lists, kept on the output's [`OutputFunction`] for
//!   the electrical checks and timing ([`expr::conduction_paths`]);
//! * the **boolean function** each output computes, read off those same
//!   paths ([`expr::paths_function`]) — there is no second walk;
//! * **clock nets**, both declared and inferred from precharge topology,
//!   propagated through buffer chains ([`clocks`]);
//! * **state elements** invented on the fly by designers, found as
//!   feedback loops in the component graph ([`state`]);
//! * per-net electrical **roles** (static, dynamic, clock, latch node),
//!   which every downstream checker in `cbv-everify` and `cbv-timing`
//!   consumes.
//!
//! The entry point is [`recognize`].

pub mod clocks;
pub mod expr;
pub mod family;
pub mod state;

use cbv_netlist::{partition_cccs, Ccc, CccId, FlatNetlist, NetId};

pub use expr::BoolExpr;
pub use family::{classify_ccc, CccClass, LogicFamily, OutputFunction};
pub use state::{StateElement, StateKind};

/// Electrical role deduced for a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetRole {
    /// Power or ground.
    Rail,
    /// A clock (declared or inferred).
    Clock,
    /// Driven by a static (fully restored, always-driven) structure.
    Static,
    /// A precharged dynamic node: undriven during evaluation until the
    /// pull-down conducts — the noise-sensitive class of Fig 3.
    Dynamic,
    /// Internal node of a transistor stack (charge-sharing hazard source).
    StackInternal,
    /// Node inside a pass-transistor network.
    PassInternal,
    /// Storage node of a recognized state element.
    State,
    /// Primary input.
    Input,
    /// Nothing drives it and nothing was deduced.
    Floating,
}

/// The complete recognition result for one netlist.
#[derive(Debug, Clone)]
pub struct Recognition {
    /// The channel-connected components.
    pub cccs: Vec<Ccc>,
    /// Device index → owning CCC.
    pub device_ccc: Vec<CccId>,
    /// Per-CCC classification, parallel to `cccs`.
    pub classes: Vec<CccClass>,
    /// Per-net role, indexed by net id.
    pub roles: Vec<NetRole>,
    /// All clock nets (declared + inferred + derived phases).
    pub clock_nets: Vec<NetId>,
    /// Recognized state elements.
    pub state_elements: Vec<StateElement>,
}

impl Recognition {
    /// Role of a net.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn role(&self, net: NetId) -> NetRole {
        self.roles[net.index()]
    }

    /// The class of the CCC that drives `net`, if any CCC lists it as an
    /// output.
    pub fn driver_class(&self, net: NetId) -> Option<&CccClass> {
        self.cccs
            .iter()
            .position(|c| c.outputs.contains(&net))
            .map(|i| &self.classes[i])
    }

    /// Whether a net was classified as dynamic.
    pub fn is_dynamic(&self, net: NetId) -> bool {
        self.role(net) == NetRole::Dynamic
    }

    /// All dynamic nets.
    pub fn dynamic_nets(&self) -> Vec<NetId> {
        (0..self.roles.len() as u32)
            .map(NetId)
            .filter(|&n| self.roles[n.index()] == NetRole::Dynamic)
            .collect()
    }
}

/// Runs the full recognition pipeline on a netlist.
pub fn recognize(netlist: &FlatNetlist) -> Recognition {
    let (cccs, device_ccc) = partition_cccs(netlist);
    // Clocks first: the family classifier needs to know which gate inputs
    // are clocks to tell a domino stage from a NAND with a clock input.
    let clock_nets = clocks::infer_clocks(netlist, &cccs);
    let classes: Vec<CccClass> = cccs
        .iter()
        .map(|c| classify_ccc(netlist, c, &clock_nets))
        .collect();
    let state_elements = state::find_state_elements(netlist, &cccs, &classes, &clock_nets);

    // Net roles, most specific wins.
    let mut roles = vec![NetRole::Floating; netlist.net_count()];
    for n in 0..netlist.net_count() as u32 {
        let id = NetId(n);
        if netlist.net_kind(id).is_rail() {
            roles[id.index()] = NetRole::Rail;
        } else if netlist.net_kind(id).is_driven_externally() {
            roles[id.index()] = NetRole::Input;
        }
    }
    for (ccc, class) in cccs.iter().zip(&classes) {
        for &net in &ccc.channel_nets {
            if roles[net.index()] != NetRole::Floating {
                continue;
            }
            roles[net.index()] = if class.dynamic_outputs.contains(&net) {
                NetRole::Dynamic
            } else if ccc.outputs.contains(&net) {
                match class.family {
                    LogicFamily::PassTransistor => NetRole::PassInternal,
                    _ => NetRole::Static,
                }
            } else {
                match class.family {
                    LogicFamily::PassTransistor => NetRole::PassInternal,
                    _ => NetRole::StackInternal,
                }
            };
        }
    }
    for &ck in &clock_nets {
        roles[ck.index()] = NetRole::Clock;
    }
    for se in &state_elements {
        for &net in &se.storage_nets {
            roles[net.index()] = NetRole::State;
        }
    }

    Recognition {
        cccs,
        device_ccc,
        classes,
        roles,
        clock_nets,
        state_elements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_tech::MosKind;

    /// Builds: clk-precharged domino AND2 followed by its static output
    /// inverter, plus a cross-coupled keeper pair elsewhere.
    fn domino_and2() -> FlatNetlist {
        let mut f = FlatNetlist::new("domino");
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let dyn_n = f.add_net("dyn", NetKind::Signal);
        let x = f.add_net("x", NetKind::Signal);
        let out = f.add_net("out", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // Precharge.
        f.add_device(Device::mos(
            MosKind::Pmos,
            "mpre",
            clk,
            dyn_n,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        // Eval stack: a, b in series then clocked foot.
        f.add_device(Device::mos(
            MosKind::Nmos,
            "ma",
            a,
            dyn_n,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let y = f.add_net("y", NetKind::Signal);
        f.add_device(Device::mos(
            MosKind::Nmos,
            "mb",
            b,
            x,
            y,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "mfoot",
            clk,
            y,
            gnd,
            gnd,
            6e-6,
            0.35e-6,
        ));
        // Output inverter (static).
        f.add_device(Device::mos(
            MosKind::Pmos,
            "mp1",
            dyn_n,
            out,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "mn1",
            dyn_n,
            out,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f
    }

    #[test]
    fn domino_pipeline_roles() {
        let f = domino_and2();
        let r = recognize(&f);
        let dyn_n = f.find_net("dyn").unwrap();
        let out = f.find_net("out").unwrap();
        let clk = f.find_net("clk").unwrap();
        let x = f.find_net("x").unwrap();
        assert_eq!(r.role(dyn_n), NetRole::Dynamic, "precharged node");
        assert_eq!(r.role(out), NetRole::Static, "inverter output");
        assert_eq!(r.role(clk), NetRole::Clock);
        assert_eq!(r.role(x), NetRole::StackInternal);
        assert_eq!(r.dynamic_nets(), vec![dyn_n]);
    }

    #[test]
    fn driver_class_lookup() {
        let f = domino_and2();
        let r = recognize(&f);
        let dyn_n = f.find_net("dyn").unwrap();
        let class = r.driver_class(dyn_n).unwrap();
        assert!(matches!(class.family, LogicFamily::Dynamic { .. }));
        let out = f.find_net("out").unwrap();
        let class = r.driver_class(out).unwrap();
        assert_eq!(class.family, LogicFamily::StaticComplementary);
    }

    #[test]
    fn inputs_and_rails_classified() {
        let f = domino_and2();
        let r = recognize(&f);
        assert_eq!(r.role(f.find_net("a").unwrap()), NetRole::Input);
        assert_eq!(r.role(f.find_net("vdd").unwrap()), NetRole::Rail);
        assert_eq!(r.role(f.find_net("gnd").unwrap()), NetRole::Rail);
    }
}
