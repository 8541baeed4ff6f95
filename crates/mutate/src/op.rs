//! The mutation-operator taxonomy: parametric, site-enumerable edits.
//!
//! Every operator is a *single-site* edit with an explicit magnitude
//! knob where one applies, a deterministic site enumerator ([`sites`]),
//! an applier that records an undo ([`apply`]), and an exact inverse
//! ([`Mutation::revert`]). A seeded fault is one of these operators at
//! a fixed magnitude and site, written as an [`Edit::Op`](crate::Edit).

use std::fmt;

use cbv_everify::CheckKind;
use cbv_netlist::{Device, DeviceId, FlatNetlist, NetId, NetKind, Term};
use cbv_recognize::{NetRole, Recognition, StateKind};
use cbv_tech::MosKind;

/// One parametric mutation operator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MutationOp {
    /// Scale a device's drawn width by `factor` (over- or under-size).
    WidthScale {
        /// Multiplier on `w`; > 1 widens, < 1 weakens.
        factor: f64,
    },
    /// Scale a device's drawn length by `factor` (sub-min length, or a
    /// slow over-length device).
    LengthScale {
        /// Multiplier on `l`; < 1 shortens toward/below process minimum.
        factor: f64,
    },
    /// Skew a complementary stage's beta ratio by widening one pull-up.
    BetaSkew {
        /// Multiplier on the victim PMOS width.
        factor: f64,
    },
    /// Resize a keeper against its write path (the "monster keeper").
    KeeperResize {
        /// Multiplier on the keeper's width.
        w_factor: f64,
        /// Multiplier on the keeper's length.
        l_factor: f64,
    },
    /// Delete a keeper: detach it so its dynamic node floats unrestored.
    KeeperDelete,
    /// Swap a device's polarity (NMOS ↔ PMOS) — a functional bug.
    PolaritySwap,
    /// Bridge two component outputs with an always-on transistor.
    NetBridge,
    /// Open one terminal: rewire it onto a fresh floating net.
    NetOpen,
    /// Delete a precharge device: its dynamic node is never restored.
    PrechargeDrop,
    /// Move a clocked gate onto a different clock phase.
    ClockPhaseSwap,
}

impl MutationOp {
    /// The number of operators (see `campaign::default_ops`).
    pub const COUNT: usize = 10;

    /// Short kebab-case operator name (stable across magnitudes).
    pub fn name(&self) -> &'static str {
        match self {
            MutationOp::WidthScale { .. } => "width-scale",
            MutationOp::LengthScale { .. } => "length-scale",
            MutationOp::BetaSkew { .. } => "beta-skew",
            MutationOp::KeeperResize { .. } => "keeper-resize",
            MutationOp::KeeperDelete => "keeper-delete",
            MutationOp::PolaritySwap => "polarity-swap",
            MutationOp::NetBridge => "net-bridge",
            MutationOp::NetOpen => "net-open",
            MutationOp::PrechargeDrop => "precharge-drop",
            MutationOp::ClockPhaseSwap => "clock-phase-swap",
        }
    }

    /// The magnitude knob (ε), for parametric operators.
    pub fn magnitude(&self) -> Option<f64> {
        match self {
            MutationOp::WidthScale { factor }
            | MutationOp::LengthScale { factor }
            | MutationOp::BetaSkew { factor } => Some(*factor),
            MutationOp::KeeperResize { w_factor, .. } => Some(*w_factor),
            _ => None,
        }
    }

    /// The same operator at magnitude `eps` — the knob a sensitivity
    /// sweep turns. Structural operators (no knob) are returned as-is.
    pub fn with_magnitude(&self, eps: f64) -> MutationOp {
        match self {
            MutationOp::WidthScale { .. } => MutationOp::WidthScale { factor: eps },
            MutationOp::LengthScale { .. } => MutationOp::LengthScale { factor: eps },
            MutationOp::BetaSkew { .. } => MutationOp::BetaSkew { factor: eps },
            MutationOp::KeeperResize { l_factor, .. } => MutationOp::KeeperResize {
                w_factor: eps,
                l_factor: *l_factor,
            },
            other => *other,
        }
    }

    /// Candidate *repair* operators for one §4.2 finding class, at unit
    /// magnitude (the repair search owns the magnitude ladder). The map
    /// follows the physics of each check: writability fights the keeper,
    /// charge sharing fights internal stack width, wear-out checks fight
    /// device stress, and `Tool` findings have no parametric cure.
    pub fn repair_ops_for_check(check: CheckKind) -> &'static [MutationOp] {
        const W: MutationOp = MutationOp::WidthScale { factor: 1.0 };
        const L: MutationOp = MutationOp::LengthScale { factor: 1.0 };
        const B: MutationOp = MutationOp::BetaSkew { factor: 1.0 };
        const K: MutationOp = MutationOp::KeeperResize {
            w_factor: 1.0,
            l_factor: 1.0,
        };
        match check {
            CheckKind::Writability => &[K, W],
            CheckKind::ChargeShare => &[W, K],
            CheckKind::Leakage => &[K, W, L],
            // Beta is W/L in both legs: a skewed ratio may be a width
            // *or* a channel-length edit, so both ladders must probe.
            CheckKind::BetaRatio => &[B, W, L],
            CheckKind::EdgeRate | CheckKind::Coupling => &[W],
            CheckKind::Electromigration => &[W],
            CheckKind::HotCarrier | CheckKind::Tddb => &[L, W],
            CheckKind::Antenna => &[W, L],
            CheckKind::Tool => &[],
        }
    }
}

impl fmt::Display for MutationOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.magnitude() {
            Some(m) => write!(f, "{}(x{:.3})", self.name(), m),
            None => f.write_str(self.name()),
        }
    }
}

/// One concrete place an operator applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// A device (geometry / polarity / detach operators).
    Device(DeviceId),
    /// One terminal of a device, rewired to the given existing net.
    Rewire(DeviceId, Term, NetId),
    /// Two nets, shorted by an appended always-on device.
    Bridge(NetId, NetId),
    /// One terminal of a device, opened onto a fresh floating net.
    Open(DeviceId, Term),
}

impl Site {
    /// Human-readable site description using design names.
    pub fn describe(&self, netlist: &FlatNetlist) -> String {
        match *self {
            Site::Device(d) => format!("device `{}`", netlist.device(d).name),
            Site::Rewire(d, term, net) => format!(
                "{:?} of `{}` -> `{}`",
                term,
                netlist.device(d).name,
                netlist.net_name(net)
            ),
            Site::Bridge(a, b) => {
                format!("nets `{}` + `{}`", netlist.net_name(a), netlist.net_name(b))
            }
            Site::Open(d, term) => format!("{:?} of `{}` opened", term, netlist.device(d).name),
        }
    }
}

/// NMOS devices whose channel lies entirely between non-rail nets — the
/// internal stack positions where widening provokes charge sharing.
fn stack_internal_nmos(netlist: &FlatNetlist) -> Vec<DeviceId> {
    netlist
        .device_ids()
        .filter(|&id| {
            let d = netlist.device(id);
            d.kind == MosKind::Nmos
                && !netlist.net_kind(d.source).is_rail()
                && !netlist.net_kind(d.drain).is_rail()
        })
        .collect()
}

/// Devices acting as keepers: a channel from a rail onto a storage net
/// of a recognized [`StateKind::Keeper`] element, gated not by a clock
/// but by a net fed back from that storage net's fan-out (the keeper's
/// half-latch loop).
pub fn keeper_devices(netlist: &FlatNetlist, recognition: &Recognition) -> Vec<DeviceId> {
    let mut found = Vec::new();
    for se in &recognition.state_elements {
        if se.kind != StateKind::Keeper {
            continue;
        }
        for &storage in &se.storage_nets {
            for &dev in &netlist.channel_devices(storage) {
                let d = netlist.device(dev);
                let other = d.other_channel_end(storage);
                if !netlist.net_kind(other).is_rail() {
                    continue;
                }
                if recognition.clock_nets.contains(&d.gate) {
                    continue; // that's a precharge, not a keeper
                }
                // Feedback test: the gate net is produced by a component
                // that reads the storage net.
                let feedback = recognition
                    .cccs
                    .iter()
                    .any(|c| c.outputs.contains(&d.gate) && c.inputs.contains(&storage));
                if feedback && !found.contains(&dev) {
                    found.push(dev);
                }
            }
        }
    }
    found.sort_unstable();
    found
}

/// Precharge devices: a PMOS gated by a clock whose channel restores a
/// recognized dynamic node from the power rail.
fn precharge_devices(netlist: &FlatNetlist, recognition: &Recognition) -> Vec<DeviceId> {
    netlist
        .device_ids()
        .filter(|&id| {
            let d = netlist.device(id);
            if d.kind != MosKind::Pmos || !recognition.clock_nets.contains(&d.gate) {
                return false;
            }
            let (s, dr) = d.channel();
            let dynamic = |n: NetId| {
                recognition.is_dynamic(n) || recognition.role(n) == cbv_recognize::NetRole::State
            };
            (netlist.net_kind(s) == NetKind::Power && dynamic(dr))
                || (netlist.net_kind(dr) == NetKind::Power && dynamic(s))
        })
        .collect()
}

/// The per-finding-class site filter: every device that is a plausible
/// *repair* site for one §4.2 check class, in ascending id order. A
/// repair engine intersects this with the devices implicated by one
/// concrete finding (`cbv_core::oracle::finding_site`) so the class
/// knowledge lives here, next to the operators, instead of being
/// re-derived by every consumer.
pub fn check_site_devices(
    check: CheckKind,
    netlist: &FlatNetlist,
    recognition: &Recognition,
) -> Vec<DeviceId> {
    let mut devs = match check {
        // Writability fights the keeper half-latch.
        CheckKind::Writability => keeper_devices(netlist, recognition),
        // Charge sharing: internal stack devices dump charge onto the
        // dynamic node; the keeper is the restoring side of the fight.
        CheckKind::ChargeShare => {
            let mut d = stack_internal_nmos(netlist);
            d.extend(keeper_devices(netlist, recognition));
            d
        }
        // Leakage drains a dynamic/storage node through its eval stack;
        // the keeper (and the stack devices touching the node) set the
        // balance.
        CheckKind::Leakage => {
            let mut d = keeper_devices(netlist, recognition);
            d.extend(netlist.device_ids().filter(|&id| {
                let dev = netlist.device(id);
                let (s, dr) = dev.channel();
                let hot =
                    |n: NetId| matches!(recognition.role(n), NetRole::Dynamic | NetRole::State);
                hot(s) || hot(dr)
            }));
            d
        }
        // Beta ratio is a pull-up vs pull-down fight: any device of a
        // complementary stage qualifies; the enumeration stays ascending
        // and the finding intersection narrows it to the flagged stage.
        CheckKind::BetaRatio
        | CheckKind::EdgeRate
        | CheckKind::Coupling
        | CheckKind::Electromigration
        | CheckKind::Antenna
        | CheckKind::HotCarrier
        | CheckKind::Tddb => netlist.device_ids().collect(),
        // A tool failure has no parametric repair site.
        CheckKind::Tool => Vec::new(),
    };
    devs.sort_unstable();
    devs.dedup();
    devs
}

/// Enumerates every site `op` applies to, deterministically (ascending
/// device/net id, one pass). The recognition must describe `netlist`.
pub fn sites(op: &MutationOp, netlist: &FlatNetlist, recognition: &Recognition) -> Vec<Site> {
    match op {
        MutationOp::WidthScale { .. }
        | MutationOp::LengthScale { .. }
        | MutationOp::PolaritySwap => netlist.device_ids().map(Site::Device).collect(),
        MutationOp::BetaSkew { .. } => netlist
            .device_ids()
            .filter(|&d| netlist.device(d).kind == MosKind::Pmos)
            .map(Site::Device)
            .collect(),
        MutationOp::KeeperResize { .. } | MutationOp::KeeperDelete => {
            keeper_devices(netlist, recognition)
                .into_iter()
                .map(Site::Device)
                .collect()
        }
        MutationOp::PrechargeDrop => precharge_devices(netlist, recognition)
            .into_iter()
            .map(Site::Device)
            .collect(),
        MutationOp::NetBridge => {
            // Short the first output of each adjacent component pair:
            // every bridge spans two distinct gate cones.
            let outs: Vec<NetId> = recognition
                .cccs
                .iter()
                .filter_map(|c| c.outputs.first().copied())
                .collect();
            outs.windows(2)
                .filter(|w| w[0] != w[1])
                .map(|w| Site::Bridge(w[0], w[1]))
                .collect()
        }
        MutationOp::NetOpen => netlist
            .device_ids()
            .map(|d| Site::Open(d, Term::Gate))
            .collect(),
        MutationOp::ClockPhaseSwap => {
            let clocks = &recognition.clock_nets;
            if clocks.len() < 2 {
                return Vec::new();
            }
            netlist
                .device_ids()
                .filter_map(|id| {
                    let gate = netlist.device(id).gate;
                    let pos = clocks.iter().position(|&c| c == gate)?;
                    let target = clocks[(pos + 1) % clocks.len()];
                    (target != gate).then_some(Site::Rewire(id, Term::Gate, target))
                })
                .collect()
        }
    }
}

/// The undo record of one applied edit.
#[derive(Debug, Clone)]
pub(crate) enum Undo {
    /// Restore a device's geometry/polarity.
    Geometry {
        device: DeviceId,
        w: f64,
        l: f64,
        kind: MosKind,
    },
    /// Re-attach a detached (deleted) device's signal terminals.
    Detach {
        device: DeviceId,
        gate: NetId,
        source: NetId,
        drain: NetId,
    },
    /// Rewire one terminal back.
    Rewire {
        device: DeviceId,
        term: Term,
        old: NetId,
    },
    /// Rewire the opened terminal back, then drop the scratch net.
    Open {
        device: DeviceId,
        term: Term,
        old: NetId,
    },
    /// Pop the appended device (a bridge, or an added device).
    PopDevice,
    /// Pop the appended net.
    PopNet,
}

/// One applied mutation, holding everything needed to undo it exactly.
#[derive(Debug, Clone)]
pub struct Mutation {
    /// The operator applied.
    pub op: MutationOp,
    /// Where.
    pub site: Site,
    /// Human-readable description of the edit.
    pub description: String,
    undo: Undo,
}

impl Mutation {
    /// Un-applies the mutation, restoring the netlist to its exact
    /// pre-mutation content (fingerprint-identical; see the property
    /// tests).
    pub fn revert(self, netlist: &mut FlatNetlist) {
        self.undo.revert(netlist);
    }

    /// Keeps only the undo record, dropping the report-facing fields.
    pub(crate) fn into_undo(self) -> UndoRecord {
        UndoRecord(self.undo)
    }
}

/// The slim undo of one applied edit: exactly what reverting reads, so
/// a long edit history (a daemon session's undo stack) can keep one per
/// edit without the operator, site and description. Only
/// [`Edit::apply`](crate::Edit::apply) hands one out, so a record always
/// matches an edit that was really applied.
#[derive(Debug, Clone)]
pub struct UndoRecord(pub(crate) Undo);

impl UndoRecord {
    /// Un-applies the edit this record was taken from, restoring the
    /// netlist exactly (see [`Mutation::revert`]).
    pub fn revert(self, netlist: &mut FlatNetlist) {
        self.0.revert(netlist);
    }
}

impl Undo {
    fn revert(self, netlist: &mut FlatNetlist) {
        match self {
            Undo::Geometry { device, w, l, kind } => {
                let d = netlist.device_mut(device);
                d.w = w;
                d.l = l;
                d.kind = kind;
            }
            Undo::Detach {
                device,
                gate,
                source,
                drain,
            } => {
                netlist.rewire(device, Term::Gate, gate);
                netlist.rewire(device, Term::Source, source);
                netlist.rewire(device, Term::Drain, drain);
            }
            Undo::Rewire { device, term, old } => {
                netlist.rewire(device, term, old);
            }
            Undo::Open { device, term, old } => {
                netlist.rewire(device, term, old);
                let name = netlist.pop_net();
                debug_assert!(name.starts_with("mutopen"), "unexpected scratch net {name}");
            }
            Undo::PopDevice => {
                netlist.pop_device();
            }
            Undo::PopNet => {
                netlist.pop_net();
            }
        }
    }
}

/// Detaches a device in place: every signal terminal is rewired onto the
/// bulk rail, leaving the device electrically inert without disturbing
/// any id (deletion by detachment keeps cached bindings of *other* units
/// valid — the whole point of running mutants as ECOs).
fn detach(netlist: &mut FlatNetlist, id: DeviceId) -> Undo {
    let d = netlist.device(id);
    let (gate, source, drain, bulk) = (d.gate, d.source, d.drain, d.bulk);
    netlist.rewire(id, Term::Gate, bulk);
    netlist.rewire(id, Term::Source, bulk);
    netlist.rewire(id, Term::Drain, bulk);
    Undo::Detach {
        device: id,
        gate,
        source,
        drain,
    }
}

/// Applies `op` at `site`. Returns `None` when the pairing is invalid
/// (wrong site shape for the operator, or no rail available for a
/// bridge); otherwise the netlist is mutated and the undo record
/// returned.
pub fn apply(netlist: &mut FlatNetlist, op: &MutationOp, site: Site) -> Option<Mutation> {
    let mutation = |description: String, undo: Undo| Mutation {
        op: *op,
        site,
        description,
        undo,
    };
    match (*op, site) {
        (MutationOp::WidthScale { factor }, Site::Device(id)) => {
            let geom = geometry_undo(netlist, id);
            let d = netlist.device_mut(id);
            d.w *= factor;
            Some(mutation(
                format!("width of `{}` x{factor:.3}", d.name),
                geom,
            ))
        }
        (MutationOp::LengthScale { factor }, Site::Device(id)) => {
            let geom = geometry_undo(netlist, id);
            let d = netlist.device_mut(id);
            d.l *= factor;
            Some(mutation(
                format!("length of `{}` x{factor:.3}", d.name),
                geom,
            ))
        }
        (MutationOp::BetaSkew { factor }, Site::Device(id)) => {
            let geom = geometry_undo(netlist, id);
            let d = netlist.device_mut(id);
            d.w *= factor;
            Some(mutation(
                format!("beta skew: pull-up `{}` x{factor:.3}", d.name),
                geom,
            ))
        }
        (MutationOp::KeeperResize { w_factor, l_factor }, Site::Device(id)) => {
            let geom = geometry_undo(netlist, id);
            let d = netlist.device_mut(id);
            d.w *= w_factor;
            d.l *= l_factor;
            Some(mutation(
                format!("keeper `{}` x{w_factor:.3} wide", d.name),
                geom,
            ))
        }
        (MutationOp::PolaritySwap, Site::Device(id)) => {
            let geom = geometry_undo(netlist, id);
            let d = netlist.device_mut(id);
            d.kind = match d.kind {
                MosKind::Nmos => MosKind::Pmos,
                MosKind::Pmos => MosKind::Nmos,
            };
            Some(mutation(format!("polarity of `{}` swapped", d.name), geom))
        }
        (MutationOp::KeeperDelete, Site::Device(id)) => {
            let undo = detach(netlist, id);
            Some(mutation(
                format!("keeper `{}` deleted", netlist.device(id).name),
                undo,
            ))
        }
        (MutationOp::PrechargeDrop, Site::Device(id)) => {
            let undo = detach(netlist, id);
            Some(mutation(
                format!("precharge `{}` dropped", netlist.device(id).name),
                undo,
            ))
        }
        (MutationOp::NetBridge, Site::Bridge(a, b)) => {
            if a == b {
                return None;
            }
            let vdd = netlist
                .net_ids()
                .find(|&n| netlist.net_kind(n) == NetKind::Power)?;
            let gnd = netlist
                .net_ids()
                .find(|&n| netlist.net_kind(n) == NetKind::Ground)?;
            let desc = format!(
                "bridge `{}` <-> `{}`",
                netlist.net_name(a),
                netlist.net_name(b)
            );
            netlist.add_device(Device::mos(
                MosKind::Nmos,
                "mutbridge",
                vdd, // gate tied high: always conducting
                a,
                b,
                gnd,
                2e-6,
                0.35e-6,
            ));
            Some(mutation(desc, Undo::PopDevice))
        }
        (MutationOp::NetOpen, Site::Open(id, term)) => {
            let scratch = netlist.add_net("mutopen", NetKind::Signal);
            let old = netlist.rewire(id, term, scratch);
            Some(mutation(
                format!("{:?} of `{}` opened", term, netlist.device(id).name),
                Undo::Open {
                    device: id,
                    term,
                    old,
                },
            ))
        }
        (MutationOp::ClockPhaseSwap, Site::Rewire(id, term, target)) => {
            if netlist.device(id).gate == target {
                return None;
            }
            let old = netlist.rewire(id, term, target);
            Some(mutation(
                format!(
                    "clock of `{}` -> `{}`",
                    netlist.device(id).name,
                    netlist.net_name(target)
                ),
                Undo::Rewire {
                    device: id,
                    term,
                    old,
                },
            ))
        }
        _ => None,
    }
}

pub(crate) fn geometry_undo(netlist: &FlatNetlist, id: DeviceId) -> Undo {
    let d = netlist.device(id);
    Undo::Geometry {
        device: id,
        w: d.w,
        l: d.l,
        kind: d.kind,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_gen::latches::keeper_domino;
    use cbv_recognize::recognize;
    use cbv_tech::Process;

    fn recognized_domino() -> (FlatNetlist, Recognition) {
        let p = Process::strongarm_035();
        let nl = keeper_domino(&p, 1e-6).netlist;
        let rec = recognize(&nl);
        (nl, rec)
    }

    #[test]
    fn keeper_and_precharge_enumerators_find_the_named_devices() {
        let (nl, rec) = recognized_domino();
        let keepers = keeper_devices(&nl, &rec);
        assert!(!keepers.is_empty(), "domino cell has a keeper");
        for &k in &keepers {
            assert!(
                nl.device(k).name.contains("keep"),
                "topological keeper is the named keeper, got `{}`",
                nl.device(k).name
            );
        }
        let pres = precharge_devices(&nl, &rec);
        assert!(!pres.is_empty(), "domino cell has a precharge");
        for &pd in &pres {
            assert!(
                nl.device(pd).name.contains("pre"),
                "topological precharge is the named precharge, got `{}`",
                nl.device(pd).name
            );
        }
    }

    #[test]
    fn every_op_enumerates_and_round_trips_on_the_domino_cell() {
        let (base, rec) = recognized_domino();
        for op in crate::campaign::default_ops() {
            let ss = sites(&op, &base, &rec);
            if matches!(op, MutationOp::ClockPhaseSwap) && rec.clock_nets.len() < 2 {
                assert!(ss.is_empty());
                continue;
            }
            assert!(!ss.is_empty(), "{op} found no site");
            let mut nl = base.clone();
            let m = apply(&mut nl, &op, ss[0]).expect("applies");
            assert!(!m.description.is_empty());
            m.revert(&mut nl);
            // Exact structural restoration: device fields and net tables.
            assert_eq!(nl.devices(), base.devices(), "{op} revert restores devices");
            assert_eq!(nl.net_count(), base.net_count());
            for n in nl.net_ids() {
                assert_eq!(nl.net_name(n), base.net_name(n));
                assert_eq!(nl.net_kind(n), base.net_kind(n));
            }
        }
    }

    #[test]
    fn bridge_appends_and_revert_pops() {
        let (base, rec) = recognized_domino();
        let ss = sites(&MutationOp::NetBridge, &base, &rec);
        assert!(!ss.is_empty());
        let mut nl = base.clone();
        let m = apply(&mut nl, &MutationOp::NetBridge, ss[0]).expect("applies");
        assert_eq!(nl.devices().len(), base.devices().len() + 1);
        let Site::Bridge(a, b) = ss[0] else {
            panic!("bridge site")
        };
        // The bridge genuinely conducts between the two nets.
        let bridged = nl.channel_devices(a);
        assert!(bridged
            .iter()
            .any(|&d| nl.device(d).name == "mutbridge" && nl.device(d).channel_touches(b)));
        m.revert(&mut nl);
        assert_eq!(nl.devices().len(), base.devices().len());
    }

    #[test]
    fn open_creates_then_removes_the_scratch_net() {
        let (base, rec) = recognized_domino();
        let ss = sites(&MutationOp::NetOpen, &base, &rec);
        let mut nl = base.clone();
        let m = apply(&mut nl, &MutationOp::NetOpen, ss[0]).expect("applies");
        assert_eq!(nl.net_count(), base.net_count() + 1);
        let Site::Open(d, Term::Gate) = ss[0] else {
            panic!("open site")
        };
        assert_eq!(nl.net_name(nl.device(d).gate), "mutopen");
        m.revert(&mut nl);
        assert_eq!(nl.net_count(), base.net_count());
        assert_eq!(nl.device(d).gate, base.device(d).gate);
    }

    #[test]
    fn detach_makes_the_device_inert_but_keeps_ids() {
        let (base, rec) = recognized_domino();
        let ss = sites(&MutationOp::KeeperDelete, &base, &rec);
        let Site::Device(keeper) = ss[0] else {
            panic!("device site")
        };
        let mut nl = base.clone();
        let storage_uses_before = base
            .net_uses(base.device(keeper).drain)
            .iter()
            .filter(|u| u.device() == keeper)
            .count()
            + base
                .net_uses(base.device(keeper).source)
                .iter()
                .filter(|u| u.device() == keeper)
                .count();
        assert!(storage_uses_before > 0);
        let m = apply(&mut nl, &MutationOp::KeeperDelete, ss[0]).expect("applies");
        let d = nl.device(keeper);
        assert_eq!(d.gate, d.bulk);
        assert_eq!(d.source, d.bulk);
        assert_eq!(d.drain, d.bulk);
        assert_eq!(nl.devices().len(), base.devices().len(), "ids stable");
        m.revert(&mut nl);
        assert_eq!(nl.devices(), base.devices());
    }

    #[test]
    fn check_site_filters_follow_the_physics() {
        let (nl, rec) = recognized_domino();
        let keepers = keeper_devices(&nl, &rec);
        assert_eq!(
            check_site_devices(CheckKind::Writability, &nl, &rec),
            keepers,
            "writability repairs fight the keeper"
        );
        let cs = check_site_devices(CheckKind::ChargeShare, &nl, &rec);
        for d in stack_internal_nmos(&nl) {
            assert!(cs.contains(&d), "charge-share filter has stack internals");
        }
        for &k in &keepers {
            assert!(cs.contains(&k), "charge-share filter has the keeper");
        }
        let leak = check_site_devices(CheckKind::Leakage, &nl, &rec);
        for &k in &keepers {
            assert!(leak.contains(&k));
        }
        assert!(check_site_devices(CheckKind::Tool, &nl, &rec).is_empty());
        // Ascending, deduplicated.
        for w in cs.windows(2) {
            assert!(w[0] < w[1]);
        }
        // Every class maps to at least one repair operator except Tool.
        for k in CheckKind::ALL {
            let ops = MutationOp::repair_ops_for_check(k);
            if k == CheckKind::Tool {
                assert!(ops.is_empty());
            } else {
                assert!(!ops.is_empty(), "{k} has repair operators");
            }
        }
    }

    #[test]
    fn magnitude_knob_round_trips() {
        let op = MutationOp::WidthScale { factor: 12.0 };
        assert_eq!(op.magnitude(), Some(12.0));
        assert_eq!(
            op.with_magnitude(3.0),
            MutationOp::WidthScale { factor: 3.0 }
        );
        assert_eq!(MutationOp::KeeperDelete.magnitude(), None);
        assert_eq!(format!("{op}"), "width-scale(x12.000)");
        assert_eq!(format!("{}", MutationOp::KeeperDelete), "keeper-delete");
    }
}
