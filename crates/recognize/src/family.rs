//! Logic-family classification of channel-connected components.
//!
//! §2 lists the families the methodology admits: "dynamic, single or
//! dual-rail circuits, differential cascode voltage swing logic (DCVSL),
//! pass transistor logic, and of course, complementary logic gates." Each
//! CCC is classified into one of these by inspecting which rails its
//! outputs can reach, under which gate conditions, and whether precharge
//! devices are clock-gated.

use cbv_netlist::{Ccc, DeviceId, FlatNetlist, NetId, NetKind};
use cbv_tech::MosKind;

use crate::expr::{any_of, conduction_paths, paths_function, BoolExpr};

/// The logic family of one channel-connected component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LogicFamily {
    /// Fully complementary static CMOS: dual pull networks.
    StaticComplementary,
    /// Ratioed logic: an always-on load fights the pull-down
    /// (pseudo-NMOS).
    Ratioed,
    /// Precharge/evaluate dynamic logic.
    Dynamic {
        /// Whether a clocked foot device gates the evaluate network.
        footed: bool,
        /// Whether the component produces complementary rail outputs
        /// (dual-rail domino).
        dual_rail: bool,
    },
    /// Differential cascode voltage swing logic: cross-coupled PMOS over
    /// complementary NMOS trees.
    Dcvsl,
    /// Pass-transistor network (conducts between signal nets).
    PassTransistor,
    /// Nothing matched — reported for designer inspection, per the
    /// paper's filter philosophy.
    Unknown,
}

/// The pull networks of one output net: their enumerated paths, and the
/// drive functions read off them.
#[derive(Debug, Clone, PartialEq)]
pub struct OutputFunction {
    /// The output net.
    pub net: NetId,
    /// Conduction condition of the PMOS network to power, read off
    /// `pull_up_paths` (clocks treated as data), one OR term per power
    /// rail. `Const(false)` when there is no pull-up; a rail past
    /// [`MAX_PATHS`](crate::expr::MAX_PATHS) contributes `Const(true)`.
    pub pull_up: BoolExpr,
    /// Conduction condition of the NMOS network to ground, read off
    /// `pull_down_paths` the same way.
    pub pull_down: BoolExpr,
    /// The logic value this output settles to when driven, if the
    /// networks are complementary (or dynamic-evaluate): `!pull_down`.
    pub function: Option<BoolExpr>,
    /// Every simple PMOS channel path from the output to a power rail,
    /// rail by rail, each path a device list from the output outward —
    /// rail-tied and clock gates included. A rail past `MAX_PATHS`
    /// keeps none.
    pub pull_up_paths: Vec<Vec<DeviceId>>,
    /// The NMOS paths from the output to the ground rails, likewise.
    pub pull_down_paths: Vec<Vec<DeviceId>>,
}

/// Classification result for one CCC.
#[derive(Debug, Clone, PartialEq)]
pub struct CccClass {
    /// The family.
    pub family: LogicFamily,
    /// Per-output drive functions.
    pub outputs: Vec<OutputFunction>,
    /// Outputs that are precharged dynamic nodes.
    pub dynamic_outputs: Vec<NetId>,
    /// Clock nets among the inputs.
    pub clock_inputs: Vec<NetId>,
}

impl CccClass {
    /// True if the family uses a precharged node.
    pub fn is_dynamic(&self) -> bool {
        matches!(self.family, LogicFamily::Dynamic { .. })
    }
}

/// Exhaustively (≤ `2^EXHAUSTIVE_VARS` assignments) or by sampling checks
/// whether two expressions are complementary over their joint support.
fn complementary(a: &BoolExpr, b: &BoolExpr) -> bool {
    const EXHAUSTIVE_VARS: usize = 12;
    let mut support = a.support();
    for n in b.support() {
        if !support.contains(&n) {
            support.push(n);
        }
    }
    if support.len() <= EXHAUSTIVE_VARS {
        for m in 0u64..(1u64 << support.len()) {
            let assign = |n: NetId| {
                support
                    .iter()
                    .position(|&x| x == n)
                    .map(|i| (m >> i) & 1 == 1)
                    .unwrap_or(false)
            };
            if a.eval(&assign) == b.eval(&assign) {
                return false;
            }
        }
        true
    } else {
        // Deterministic LCG sampling for big supports; conservative: a
        // false positive here only relaxes classification, and the
        // equivalence checker re-verifies functions exactly.
        let mut state = 0x9E3779B97F4A7C15u64;
        for _ in 0..4096 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let m = state;
            let assign = |n: NetId| {
                support
                    .iter()
                    .position(|&x| x == n)
                    .map(|i| (m >> (i % 64)) & 1 == 1)
                    .unwrap_or(false)
            };
            if a.eval(&assign) == b.eval(&assign) {
                return false;
            }
        }
        true
    }
}

/// Classifies one channel-connected component.
pub fn classify_ccc(netlist: &FlatNetlist, ccc: &Ccc, clock_nets: &[NetId]) -> CccClass {
    let rails: Vec<(NetId, NetKind)> = {
        let mut v = Vec::new();
        for &did in &ccc.devices {
            let d = netlist.device(did);
            for net in [d.source, d.drain] {
                let k = netlist.net_kind(net);
                if k.is_rail() && !v.contains(&(net, k)) {
                    v.push((net, k));
                }
            }
        }
        v
    };
    let powers: Vec<NetId> = rails
        .iter()
        .filter(|(_, k)| *k == NetKind::Power)
        .map(|&(n, _)| n)
        .collect();
    let grounds: Vec<NetId> = rails
        .iter()
        .filter(|(_, k)| *k == NetKind::Ground)
        .map(|&(n, _)| n)
        .collect();

    let clock_inputs: Vec<NetId> = ccc
        .inputs
        .iter()
        .copied()
        .filter(|n| clock_nets.contains(n))
        .collect();

    // One walk per (output, rail): the paths are kept, and the rail's
    // term is read off them. Past the cap a rail keeps no path and its
    // term is a constant-true pull, so downstream checks stay
    // pessimistic.
    let pull = |from: NetId, targets: &[NetId], kind: MosKind| {
        let mut terms = Vec::new();
        let mut all = Vec::new();
        for &t in targets {
            match conduction_paths(netlist, &ccc.devices, from, t, kind) {
                Some(paths) => {
                    match paths_function(netlist, &paths, &[]) {
                        BoolExpr::Const(false) => {}
                        e => terms.push(e),
                    }
                    all.extend(paths);
                }
                None => terms.push(BoolExpr::Const(true)),
            }
        }
        (any_of(terms), all)
    };

    let mut outputs = Vec::new();
    for &out in &ccc.outputs {
        let (pull_up, pull_up_paths) = pull(out, &powers, MosKind::Pmos);
        let (pull_down, pull_down_paths) = pull(out, &grounds, MosKind::Nmos);
        let function = complementary(&pull_up, &pull_down).then(|| pull_down.clone().negate());
        outputs.push(OutputFunction {
            net: out,
            pull_up,
            pull_down,
            function,
            pull_up_paths,
            pull_down_paths,
        });
    }

    // --- Family deduction ---
    // Precharge: a single PMOS straight from power, gated by a clock.
    // Keepers may add extra pull-up paths in parallel; what makes the
    // node dynamic is that its pull networks are NOT complementary (it
    // floats during part of the cycle) while a clocked precharger exists.
    let has_precharge = |o: &OutputFunction| {
        o.pull_up_paths
            .iter()
            .any(|p| p.len() == 1 && clock_nets.contains(&netlist.device(p[0]).gate))
    };
    let has_foot = ccc.devices.iter().any(|&did| {
        let d = netlist.device(did);
        d.kind == MosKind::Nmos
            && clock_nets.contains(&d.gate)
            && (grounds.contains(&d.source) || grounds.contains(&d.drain))
    });

    let dynamic: Vec<&OutputFunction> = outputs
        .iter()
        .filter(|o| {
            has_precharge(o) && o.function.is_none() && o.pull_down != BoolExpr::Const(false)
        })
        .collect();
    let dynamic_outputs: Vec<NetId> = dynamic.iter().map(|o| o.net).collect();

    let family = if !dynamic.is_empty() {
        // The evaluate functions to the first ground, clocks closed. A
        // dynamic output has a pull-down, so `grounds` is not empty, and
        // a path ends at the rail its last device touches.
        let evaluate = |o: &OutputFunction| {
            let to_first = o.pull_down_paths.iter().filter(|p| {
                p.last()
                    .is_some_and(|&d| netlist.device(d).channel_touches(grounds[0]))
            });
            paths_function(netlist, to_first, clock_nets)
        };
        let dual_rail =
            dynamic.len() == 2 && complementary(&evaluate(dynamic[0]), &evaluate(dynamic[1]));
        LogicFamily::Dynamic {
            footed: has_foot,
            dual_rail,
        }
    } else if outputs.len() == 2 && is_dcvsl(netlist, ccc, &outputs) {
        LogicFamily::Dcvsl
    } else if !outputs.is_empty()
        && outputs
            .iter()
            .all(|o| o.function.is_some() && o.pull_up != BoolExpr::Const(false))
    {
        LogicFamily::StaticComplementary
    } else if outputs
        .iter()
        .any(|o| o.pull_up == BoolExpr::Const(true) && o.pull_down != BoolExpr::Const(false))
    {
        LogicFamily::Ratioed
    } else if is_pass_network(netlist, ccc) {
        LogicFamily::PassTransistor
    } else {
        LogicFamily::Unknown
    };

    CccClass {
        family,
        outputs,
        dynamic_outputs,
        clock_inputs,
    }
}

/// DCVSL: each output's pull-up is a single PMOS gated by the *other*
/// output (cross-coupled), with NMOS trees underneath.
fn is_dcvsl(netlist: &FlatNetlist, ccc: &Ccc, outputs: &[OutputFunction]) -> bool {
    let (a, b) = (outputs[0].net, outputs[1].net);
    let cross = |out: NetId, other: NetId| -> bool {
        matches!(&outputs[if out == a { 0 } else { 1 }].pull_up,
            BoolExpr::Not(inner) if **inner == BoolExpr::Var(other))
    };
    let has_nmos_tree = |out: NetId| {
        ccc.devices.iter().any(|&did| {
            let d = netlist.device(did);
            d.kind == MosKind::Nmos && d.channel_touches(out)
        })
    };
    cross(a, b) && cross(b, a) && has_nmos_tree(a) && has_nmos_tree(b)
}

/// A pass network: at least one device conducts between two non-rail
/// boundary nets (signals travel through channels rather than being
/// regenerated from rails).
fn is_pass_network(netlist: &FlatNetlist, ccc: &Ccc) -> bool {
    ccc.devices.iter().any(|&did| {
        let d = netlist.device(did);
        !netlist.net_kind(d.source).is_rail() && !netlist.net_kind(d.drain).is_rail()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{partition_cccs, Device, FlatNetlist, NetKind};

    fn classify_single(f: &mut FlatNetlist, clocks: &[&str]) -> Vec<CccClass> {
        let clock_ids: Vec<NetId> = clocks.iter().map(|c| f.find_net(c).unwrap()).collect();
        let (cccs, _) = partition_cccs(f);
        cccs.iter()
            .map(|c| classify_ccc(f, c, &clock_ids))
            .collect()
    }

    #[test]
    fn inverter_is_static_complementary() {
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
        let classes = classify_single(&mut f, &[]);
        assert_eq!(classes.len(), 1);
        assert_eq!(classes[0].family, LogicFamily::StaticComplementary);
        // Function is !a.
        let of = &classes[0].outputs[0];
        assert_eq!(
            of.function.as_ref().unwrap(),
            &BoolExpr::Not(Box::new(BoolExpr::Var(a)))
        );
    }

    #[test]
    fn aoi_gate_is_static_complementary() {
        // y = !(a&b | c): NMOS a-b series parallel c; PMOS (a||b) series c... build it.
        let mut f = FlatNetlist::new("aoi21");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let c = f.add_net("c", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let p1 = f.add_net("p1", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // NMOS: y -a- x -b- gnd ; y -c- gnd
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            y,
            x,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b,
            x,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nc",
            c,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        // PMOS: vdd -a- p1, vdd -b- p1, p1 -c- y
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pa",
            a,
            p1,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pb",
            b,
            p1,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pc",
            c,
            y,
            p1,
            vdd,
            4e-6,
            0.35e-6,
        ));
        let classes = classify_single(&mut f, &[]);
        assert_eq!(classes[0].family, LogicFamily::StaticComplementary);
    }

    #[test]
    fn pseudo_nmos_is_ratioed() {
        let mut f = FlatNetlist::new("pseudo");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // PMOS load with gate tied to ground: always on.
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pl",
            gnd,
            y,
            vdd,
            vdd,
            2e-6,
            0.7e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let classes = classify_single(&mut f, &[]);
        assert_eq!(classes[0].family, LogicFamily::Ratioed);
    }

    #[test]
    fn footed_domino_recognized() {
        let mut f = FlatNetlist::new("dom");
        let clk = f.add_net("clk", NetKind::Clock);
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
        let classes = classify_single(&mut f, &["clk"]);
        assert_eq!(
            classes[0].family,
            LogicFamily::Dynamic {
                footed: true,
                dual_rail: false
            }
        );
        assert_eq!(classes[0].dynamic_outputs, vec![d]);
    }

    #[test]
    fn footless_domino_recognized() {
        let mut f = FlatNetlist::new("dom_nofoot");
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a", NetKind::Input);
        let d = f.add_net("d", NetKind::Output);
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
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let classes = classify_single(&mut f, &["clk"]);
        assert_eq!(
            classes[0].family,
            LogicFamily::Dynamic {
                footed: false,
                dual_rail: false
            }
        );
    }

    #[test]
    fn dual_rail_domino_recognized() {
        // Two precharged outputs with complementary eval trees (a / !a).
        let mut f = FlatNetlist::new("dr");
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a", NetKind::Input);
        let an = f.add_net("an", NetKind::Input); // complement rail in
        let t = f.add_net("t", NetKind::Output);
        let c = f.add_net("c", NetKind::Output);
        let foot = f.add_net("footn", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pre_t",
            clk,
            t,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pre_c",
            clk,
            c,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nt",
            a,
            t,
            foot,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nc",
            an,
            c,
            foot,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nf",
            clk,
            foot,
            gnd,
            gnd,
            8e-6,
            0.35e-6,
        ));
        let classes = classify_single(&mut f, &["clk"]);
        match classes[0].family {
            LogicFamily::Dynamic { footed, dual_rail } => {
                assert!(footed);
                // t pulls down on a, c pulls down on an: complementary only
                // if an == !a, which recognition can't know — it sees two
                // independent variables, so dual_rail is judged on function
                // complementarity over (a, an): NOT complementary.
                assert!(!dual_rail);
            }
            other => panic!("unexpected family {other:?}"),
        }
    }

    #[test]
    fn dcvsl_recognized() {
        // Cross-coupled PMOS over complementary NMOS trees that share a
        // tail node (which is what makes both halves one channel-connected
        // component — two fully separate trees are legitimately two CCCs).
        let mut f = FlatNetlist::new("dcvsl");
        let a = f.add_net("a", NetKind::Input);
        let ab = f.add_net("ab", NetKind::Input);
        let q = f.add_net("q", NetKind::Output);
        let qb = f.add_net("qb", NetKind::Output);
        let tail = f.add_net("tail", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p1",
            qb,
            q,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p2",
            q,
            qb,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n1",
            a,
            q,
            tail,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n2",
            ab,
            qb,
            tail,
            gnd,
            4e-6,
            0.35e-6,
        ));
        // Always-on tail device (gate tied to power).
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nt",
            vdd,
            tail,
            gnd,
            gnd,
            8e-6,
            0.35e-6,
        ));
        let classes = classify_single(&mut f, &[]);
        assert_eq!(classes.len(), 1, "shared tail joins both halves");
        assert_eq!(classes[0].family, LogicFamily::Dcvsl);
    }

    #[test]
    fn pass_gate_network_recognized() {
        let mut f = FlatNetlist::new("mux");
        let s = f.add_net("s", NetKind::Input);
        let sn = f.add_net("sn", NetKind::Input);
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Nmos,
            "m1",
            s,
            a,
            y,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "m2",
            sn,
            b,
            y,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let classes = classify_single(&mut f, &[]);
        assert_eq!(classes[0].family, LogicFamily::PassTransistor);
    }

    #[test]
    fn beta_paths_available() {
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
        let classes = classify_single(&mut f, &[]);
        let c = &classes[0];
        assert_eq!(c.outputs[0].pull_up_paths.len(), 1);
        assert_eq!(c.outputs[0].pull_down_paths.len(), 1);
        assert_eq!(c.outputs[0].pull_up_paths[0].len(), 1);
    }
}
