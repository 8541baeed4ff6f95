//! Boolean expressions extracted from transistor topology.
//!
//! A conduction function over gate-input nets: an NMOS conducts when its
//! gate is 1 (positive literal), a PMOS when its gate is 0 (negative
//! literal). The function of a pull network is the OR over all simple
//! channel paths of the AND of the path's literals.

use std::collections::HashSet;
use std::fmt;

use cbv_netlist::{DeviceId, FlatNetlist, NetId, NetKind};
use cbv_tech::MosKind;

/// A boolean expression over nets.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum BoolExpr {
    /// Constant.
    Const(bool),
    /// The value of a net.
    Var(NetId),
    /// Negation.
    Not(Box<BoolExpr>),
    /// Conjunction (empty = true).
    And(Vec<BoolExpr>),
    /// Disjunction (empty = false).
    Or(Vec<BoolExpr>),
}

impl BoolExpr {
    /// A literal for a device gate: positive for NMOS, negative for PMOS.
    pub fn literal(net: NetId, kind: MosKind) -> BoolExpr {
        match kind {
            MosKind::Nmos => BoolExpr::Var(net),
            MosKind::Pmos => BoolExpr::Not(Box::new(BoolExpr::Var(net))),
        }
    }

    /// Negates, flattening double negations.
    pub fn negate(self) -> BoolExpr {
        match self {
            BoolExpr::Const(b) => BoolExpr::Const(!b),
            BoolExpr::Not(inner) => *inner,
            other => BoolExpr::Not(Box::new(other)),
        }
    }

    /// The nets this expression mentions, sorted and deduplicated.
    pub fn support(&self) -> Vec<NetId> {
        let mut set = HashSet::new();
        self.collect_support(&mut set);
        let mut v: Vec<NetId> = set.into_iter().collect();
        v.sort();
        v
    }

    fn collect_support(&self, out: &mut HashSet<NetId>) {
        match self {
            BoolExpr::Const(_) => {}
            BoolExpr::Var(n) => {
                out.insert(*n);
            }
            BoolExpr::Not(e) => e.collect_support(out),
            BoolExpr::And(es) | BoolExpr::Or(es) => {
                for e in es {
                    e.collect_support(out);
                }
            }
        }
    }

    /// Evaluates under an assignment function.
    pub fn eval(&self, assign: &dyn Fn(NetId) -> bool) -> bool {
        match self {
            BoolExpr::Const(b) => *b,
            BoolExpr::Var(n) => assign(*n),
            BoolExpr::Not(e) => !e.eval(assign),
            BoolExpr::And(es) => es.iter().all(|e| e.eval(assign)),
            BoolExpr::Or(es) => es.iter().any(|e| e.eval(assign)),
        }
    }
}

impl fmt::Display for BoolExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BoolExpr::Const(b) => write!(f, "{}", if *b { "1" } else { "0" }),
            BoolExpr::Var(n) => write!(f, "n{}", n.0),
            BoolExpr::Not(e) => write!(f, "!{e}"),
            BoolExpr::And(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " & ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            BoolExpr::Or(es) => {
                write!(f, "(")?;
                for (i, e) in es.iter().enumerate() {
                    if i > 0 {
                        write!(f, " | ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
        }
    }
}

/// Maximum number of simple paths enumerated per (output, rail) before
/// the extractor gives up. Past it [`conduction_paths`] returns `None`:
/// the classifier keeps no path for that rail and gives the rail the
/// function `Const(true)`, and no finding says so (ROADMAP item 21).
pub const MAX_PATHS: usize = 4096;

/// Enumerates the simple channel paths (as device lists) from `from` to
/// `to` through devices of polarity `kind`, in depth-first device order.
/// Every device is kept, clocks and rail-tied gates included: electrical
/// checks care about the physical devices on each path, and
/// [`paths_function`] reads the logic off the same list.
///
/// Returns `None` if the path count explodes past [`MAX_PATHS`].
pub fn conduction_paths(
    netlist: &FlatNetlist,
    devices: &[DeviceId],
    from: NetId,
    to: NetId,
    kind: MosKind,
) -> Option<Vec<Vec<DeviceId>>> {
    #[allow(clippy::too_many_arguments)]
    fn walk(
        netlist: &FlatNetlist,
        devices: &[DeviceId],
        at: NetId,
        target: NetId,
        kind: MosKind,
        visited: &mut HashSet<NetId>,
        stack: &mut Vec<DeviceId>,
        paths: &mut Vec<Vec<DeviceId>>,
    ) -> Option<()> {
        if at == target {
            if paths.len() >= MAX_PATHS {
                return None;
            }
            paths.push(stack.clone());
            return Some(());
        }
        for &did in devices {
            let d = netlist.device(did);
            if d.kind != kind || !d.channel_touches(at) {
                continue;
            }
            let other = d.other_channel_end(at);
            // Paths may only pass *through* non-rail nets; they terminate
            // at the target rail and never route through the opposite rail.
            if other != target && netlist.net_kind(other).is_rail() {
                continue;
            }
            if other != target && visited.contains(&other) {
                continue;
            }
            stack.push(did);
            if other != target {
                visited.insert(other);
            }
            let r = walk(netlist, devices, other, target, kind, visited, stack, paths);
            if other != target {
                visited.remove(&other);
            }
            stack.pop();
            r?;
        }
        Some(())
    }
    let mut paths = Vec::new();
    let mut visited = HashSet::new();
    visited.insert(from);
    let mut stack = Vec::new();
    walk(
        netlist,
        devices,
        from,
        to,
        kind,
        &mut visited,
        &mut stack,
        &mut paths,
    )?;
    Some(paths)
}

/// The conduction function of one rail's enumerated paths: the OR over
/// paths of the AND of their gate literals. Gates tied to rails fold to
/// constants: a path through a never-on device (an NMOS gated by ground,
/// a PMOS gated by power) is dropped, and an always-on device (the
/// opposite tie) adds no literal — nor does a gate on `skip_gates` (e.g.
/// clocks). A path with no literal is `Const(true)`, no path at all
/// `Const(false)`.
pub fn paths_function<'p>(
    netlist: &FlatNetlist,
    paths: impl IntoIterator<Item = &'p Vec<DeviceId>>,
    skip_gates: &[NetId],
) -> BoolExpr {
    let terms = paths.into_iter().filter_map(|path| {
        let mut lits = Vec::new();
        for &did in path {
            let d = netlist.device(did);
            let (never, always) = match d.kind {
                MosKind::Nmos => (NetKind::Ground, NetKind::Power),
                MosKind::Pmos => (NetKind::Power, NetKind::Ground),
            };
            let gate_kind = netlist.net_kind(d.gate);
            if gate_kind == never {
                return None;
            }
            if gate_kind != always && !skip_gates.contains(&d.gate) {
                lits.push(BoolExpr::literal(d.gate, d.kind));
            }
        }
        Some(match lits.len() {
            0 => BoolExpr::Const(true),
            1 => lits.pop().expect("len checked"),
            _ => BoolExpr::And(lits),
        })
    });
    any_of(terms.collect())
}

/// The OR of `terms`, unwrapped when there is one and `Const(false)`
/// when there is none.
pub(crate) fn any_of(mut terms: Vec<BoolExpr>) -> BoolExpr {
    match terms.len() {
        0 => BoolExpr::Const(false),
        1 => terms.pop().expect("len checked"),
        _ => BoolExpr::Or(terms),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::Device;

    /// The conduction function of `from`'s paths to `to`.
    fn function(
        f: &FlatNetlist,
        devices: &[DeviceId],
        from: NetId,
        to: NetId,
        kind: MosKind,
        skip_gates: &[NetId],
    ) -> BoolExpr {
        let paths = conduction_paths(f, devices, from, to, kind).expect("under the cap");
        paths_function(f, &paths, skip_gates)
    }

    fn nand2() -> (FlatNetlist, Vec<DeviceId>) {
        let mut f = FlatNetlist::new("nand2");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let ids = vec![
            f.add_device(Device::mos(
                MosKind::Pmos,
                "pa",
                a,
                y,
                vdd,
                vdd,
                4e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Pmos,
                "pb",
                b,
                y,
                vdd,
                vdd,
                4e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Nmos,
                "na",
                a,
                y,
                x,
                gnd,
                4e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Nmos,
                "nb",
                b,
                x,
                gnd,
                gnd,
                4e-6,
                0.35e-6,
            )),
        ];
        (f, ids)
    }

    #[test]
    fn nand_pulldown_is_series_and() {
        let (f, ids) = nand2();
        let y = f.find_net("y").unwrap();
        let gnd = f.find_net("gnd").unwrap();
        let a = f.find_net("a").unwrap();
        let b = f.find_net("b").unwrap();
        let pd = function(&f, &ids, y, gnd, MosKind::Nmos, &[]);
        // PD conducts iff a & b.
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let assign = |n: NetId| {
                if n == a {
                    va
                } else if n == b {
                    vb
                } else {
                    false
                }
            };
            assert_eq!(pd.eval(&assign), va && vb, "a={va} b={vb}");
        }
    }

    #[test]
    fn nand_pullup_is_parallel_or_of_negations() {
        let (f, ids) = nand2();
        let y = f.find_net("y").unwrap();
        let vdd = f.find_net("vdd").unwrap();
        let a = f.find_net("a").unwrap();
        let b = f.find_net("b").unwrap();
        let pu = function(&f, &ids, y, vdd, MosKind::Pmos, &[]);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let assign = |n: NetId| {
                if n == a {
                    va
                } else if n == b {
                    vb
                } else {
                    false
                }
            };
            assert_eq!(pu.eval(&assign), !(va && vb), "a={va} b={vb}");
        }
        // PU and PD must be complementary: checked by the family classifier.
        let gnd = f.find_net("gnd").unwrap();
        let pd = function(&f, &ids, y, gnd, MosKind::Nmos, &[]);
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let assign = |n: NetId| {
                if n == a {
                    va
                } else if n == b {
                    vb
                } else {
                    false
                }
            };
            assert_ne!(pu.eval(&assign), pd.eval(&assign));
        }
    }

    #[test]
    fn skip_gates_treats_clock_as_closed() {
        // Single clocked foot: skip the clock → constant true.
        let mut f = FlatNetlist::new("foot");
        let clk = f.add_net("clk", NetKind::Clock);
        let y = f.add_net("y", NetKind::Signal);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let id = f.add_device(Device::mos(
            MosKind::Nmos,
            "mf",
            clk,
            y,
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let e = function(&f, &[id], y, gnd, MosKind::Nmos, &[clk]);
        assert_eq!(e, BoolExpr::Const(true));
        let e2 = function(&f, &[id], y, gnd, MosKind::Nmos, &[]);
        assert_eq!(e2, BoolExpr::Var(clk));
    }

    #[test]
    fn rail_tied_gates_fold_to_constants_but_keep_their_paths() {
        // y -[gate gnd]- gnd (never on) in parallel with
        // y -[gate vdd]- m -[gate a]- gnd (always on, then a).
        let mut f = FlatNetlist::new("ties");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let m = f.add_net("m", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let ids = vec![
            f.add_device(Device::mos(
                MosKind::Nmos,
                "off",
                gnd,
                y,
                gnd,
                gnd,
                1e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Nmos,
                "on",
                vdd,
                y,
                m,
                gnd,
                1e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Nmos,
                "na",
                a,
                m,
                gnd,
                gnd,
                1e-6,
                0.35e-6,
            )),
        ];
        let paths = conduction_paths(&f, &ids, y, gnd, MosKind::Nmos).unwrap();
        assert_eq!(paths, vec![vec![ids[0]], vec![ids[1], ids[2]]]);
        assert_eq!(paths_function(&f, &paths, &[]), BoolExpr::Var(a));
    }

    #[test]
    fn no_path_is_constant_false() {
        let (f, ids) = nand2();
        let x = f.find_net("x").unwrap();
        let vdd = f.find_net("vdd").unwrap();
        // x has no PMOS path to vdd.
        let e = function(&f, &ids, x, vdd, MosKind::Pmos, &[]);
        assert_eq!(e, BoolExpr::Const(false));
    }

    #[test]
    fn bridge_network_enumerates_all_paths() {
        // Classic bridge: two parallel branches with a cross device.
        //   y - m1 - n1 - m2 - gnd
        //   y - m3 - n2 - m4 - gnd
        //   n1 - m5 - n2 (bridge)
        let mut f = FlatNetlist::new("bridge");
        let g: Vec<NetId> = (0..5)
            .map(|i| f.add_net(&format!("g{i}"), NetKind::Input))
            .collect();
        let y = f.add_net("y", NetKind::Output);
        let n1 = f.add_net("n1", NetKind::Signal);
        let n2 = f.add_net("n2", NetKind::Signal);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let ids = vec![
            f.add_device(Device::mos(
                MosKind::Nmos,
                "m1",
                g[0],
                y,
                n1,
                gnd,
                1e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Nmos,
                "m2",
                g[1],
                n1,
                gnd,
                gnd,
                1e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Nmos,
                "m3",
                g[2],
                y,
                n2,
                gnd,
                1e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Nmos,
                "m4",
                g[3],
                n2,
                gnd,
                gnd,
                1e-6,
                0.35e-6,
            )),
            f.add_device(Device::mos(
                MosKind::Nmos,
                "m5",
                g[4],
                n1,
                n2,
                gnd,
                1e-6,
                0.35e-6,
            )),
        ];
        let e = function(&f, &ids, y, gnd, MosKind::Nmos, &[]);
        // Exhaustive compare against direct graph reachability.
        for m in 0u32..32 {
            let assign = |n: NetId| {
                g.iter()
                    .position(|&x| x == n)
                    .map(|i| (m >> i) & 1 == 1)
                    .unwrap_or(false)
            };
            // Reference: conducting edges, BFS y->gnd.
            let edges = [
                (y, n1, 0),
                (n1, gnd, 1),
                (y, n2, 2),
                (n2, gnd, 3),
                (n1, n2, 4),
            ];
            let mut reach = vec![y];
            let mut frontier = vec![y];
            while let Some(cur) = frontier.pop() {
                for &(p, q, gi) in &edges {
                    if (m >> gi) & 1 == 1 {
                        for (from, to) in [(p, q), (q, p)] {
                            if from == cur && !reach.contains(&to) {
                                reach.push(to);
                                frontier.push(to);
                            }
                        }
                    }
                }
            }
            assert_eq!(e.eval(&assign), reach.contains(&gnd), "mask {m:05b}");
        }
    }

    #[test]
    fn display_is_readable() {
        let e = BoolExpr::Or(vec![
            BoolExpr::And(vec![BoolExpr::Var(NetId(1)), BoolExpr::Var(NetId(2))]),
            BoolExpr::Not(Box::new(BoolExpr::Var(NetId(3)))),
        ]);
        assert_eq!(e.to_string(), "((n1 & n2) | !n3)");
    }

    #[test]
    fn negate_flattens() {
        let v = BoolExpr::Var(NetId(1));
        assert_eq!(v.clone().negate().negate(), v);
        assert_eq!(BoolExpr::Const(true).negate(), BoolExpr::Const(false));
    }

    #[test]
    fn support_sorted_unique() {
        let e = BoolExpr::And(vec![
            BoolExpr::Var(NetId(5)),
            BoolExpr::Or(vec![BoolExpr::Var(NetId(2)), BoolExpr::Var(NetId(5))]),
        ]);
        assert_eq!(e.support(), vec![NetId(2), NetId(5)]);
    }
}
