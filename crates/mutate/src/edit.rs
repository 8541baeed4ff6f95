//! The edit vocabulary: every change the toolkit makes to a netlist is
//! one [`Edit`].
//!
//! A daemon session's ECO batch, a repair plan's step and a seeded
//! fault are all edits; [`Edit::apply`] is the one validated, exactly
//! reversible way to apply them. Every id is checked against the
//! netlist before any panicking netlist API runs, and a geometry the
//! device models would reject ([`valid_geometry`]) is refused, so an
//! edit read off the wire gets an error, never a panic. The wire form
//! is [`edit_to_json`](crate::edit_to_json) /
//! [`edit_from_json`](crate::edit_from_json).

use cbv_netlist::{valid_geometry, Device, DeviceId, FlatNetlist, NetId, NetKind, Term};
use cbv_tech::MosKind;

use crate::op::{apply, geometry_undo, MutationOp, Site, Undo, UndoRecord};

/// One reversible netlist edit. A session keeps every accepted edit for
/// its lifetime, so the rare string-carrying payloads are boxed: the
/// common one-device edits stay at 40 bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// A mutation operator applied at an explicit site — the same
    /// single-site vocabulary the mutation campaign enumerates.
    Op {
        /// The operator.
        op: MutationOp,
        /// Where to apply it.
        site: Site,
    },
    /// Appends a fresh net.
    AddNet(Box<NewNet>),
    /// Appends a fresh MOS device.
    AddDevice(Box<NewDevice>),
    /// Sets a device's drawn geometry to exact absolute values.
    Resize {
        /// Target device.
        device: DeviceId,
        /// New width, meters.
        w: f64,
        /// New length, meters.
        l: f64,
    },
    /// Moves one device terminal to another net.
    Rewire {
        /// Target device.
        device: DeviceId,
        /// Which terminal.
        term: Term,
        /// Destination net.
        net: NetId,
    },
}

/// The net an [`Edit::AddNet`] appends.
#[derive(Debug, Clone, PartialEq)]
pub struct NewNet {
    /// Net name.
    pub name: String,
    /// Net kind (wire name, e.g. `"signal"`).
    pub kind: NetKind,
}

/// The MOS device an [`Edit::AddDevice`] appends.
#[derive(Debug, Clone, PartialEq)]
pub struct NewDevice {
    /// Instance name.
    pub name: String,
    /// Polarity.
    pub kind: MosKind,
    /// Gate net.
    pub gate: NetId,
    /// Drain net.
    pub drain: NetId,
    /// Source net.
    pub source: NetId,
    /// Bulk net.
    pub bulk: NetId,
    /// Drawn width, meters.
    pub w: f64,
    /// Drawn length, meters.
    pub l: f64,
}

impl Edit {
    /// Applies the edit and returns the record that reverts it exactly.
    /// On error the netlist is exactly as before.
    pub fn apply(&self, netlist: &mut FlatNetlist) -> Result<UndoRecord, String> {
        let undo = match self {
            Edit::Op { op, site } => {
                check_site(netlist, *site)?;
                let m = apply(netlist, op, *site)
                    .ok_or_else(|| format!("operator {} not applicable at site", op.name()))?;
                // Only device-site operators rescale geometry, and only
                // the site's device: a factor of 0, a negative one or an
                // overflow to infinity is undone and rejected here.
                if let Site::Device(d) = *site {
                    let d = netlist.device(d);
                    if let Err(e) = check_geometry(d.w, d.l) {
                        m.revert(netlist);
                        return Err(e);
                    }
                }
                return Ok(m.into_undo());
            }
            Edit::AddNet(net) => {
                netlist.add_net(&net.name, net.kind);
                Undo::PopNet
            }
            Edit::AddDevice(d) => {
                for n in [d.gate, d.drain, d.source, d.bulk] {
                    check_net(netlist, n)?;
                }
                check_geometry(d.w, d.l)?;
                netlist.add_device(Device::mos(
                    d.kind,
                    d.name.clone(),
                    d.gate,
                    d.drain,
                    d.source,
                    d.bulk,
                    d.w,
                    d.l,
                ));
                Undo::PopDevice
            }
            Edit::Resize { device, w, l } => {
                check_device(netlist, *device)?;
                check_geometry(*w, *l)?;
                let undo = geometry_undo(netlist, *device);
                let d = netlist.device_mut(*device);
                d.w = *w;
                d.l = *l;
                undo
            }
            Edit::Rewire { device, term, net } => {
                check_device(netlist, *device)?;
                check_net(netlist, *net)?;
                let old = netlist.rewire(*device, *term, *net);
                Undo::Rewire {
                    device: *device,
                    term: *term,
                    old,
                }
            }
        };
        Ok(UndoRecord(undo))
    }

    /// Plants a seeded fault: `op` at device `id`, which must be named
    /// `name`. The id keeps the fault's site fixed; the name check makes
    /// a generator change that moves the device fail loudly instead of
    /// silently moving the fault.
    pub fn plant(
        netlist: &mut FlatNetlist,
        op: MutationOp,
        id: u32,
        name: &str,
    ) -> Result<UndoRecord, String> {
        let device = DeviceId(id);
        check_device(netlist, device)?;
        let found = &netlist.device(device).name;
        if found != name {
            return Err(format!("device {id} is `{found}`, not `{name}`"));
        }
        let site = Site::Device(device);
        Edit::Op { op, site }.apply(netlist)
    }
}

fn check_device(netlist: &FlatNetlist, d: DeviceId) -> Result<(), String> {
    if d.index() < netlist.devices().len() {
        Ok(())
    } else {
        Err(format!("device {} out of range", d.index()))
    }
}

fn check_net(netlist: &FlatNetlist, n: NetId) -> Result<(), String> {
    if n.index() < netlist.net_count() {
        Ok(())
    } else {
        Err(format!("net {} out of range", n.index()))
    }
}

fn check_site(netlist: &FlatNetlist, site: Site) -> Result<(), String> {
    match site {
        Site::Device(d) | Site::Open(d, _) => check_device(netlist, d),
        Site::Rewire(d, _, n) => check_device(netlist, d).and_then(|()| check_net(netlist, n)),
        Site::Bridge(a, b) => check_net(netlist, a).and_then(|()| check_net(netlist, b)),
    }
}

/// The geometry gate: the [`valid_geometry`] rule every loader and
/// `ir::validate` apply, as an edit error.
fn check_geometry(w: f64, l: f64) -> Result<(), String> {
    if valid_geometry(w, l) {
        Ok(())
    } else {
        Err(format!(
            "device geometry must be positive and finite, got w={w:?} l={l:?}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_gen::dcvsl::dcvsl_and2;
    use cbv_tech::Process;

    #[test]
    fn plant_checks_the_device_name() {
        let base = dcvsl_and2(&Process::strongarm_035()).netlist;
        let mut nl = base.clone();
        let op = MutationOp::PolaritySwap;
        assert!(Edit::plant(&mut nl, op, 0, "lqb").is_err());
        assert!(Edit::plant(&mut nl, op, u32::MAX, "lq").is_err());
        assert_eq!(nl, base);
        Edit::plant(&mut nl, op, 0, "lq").unwrap();
        assert_eq!(nl.device(DeviceId(0)).kind, MosKind::Nmos);
    }

    #[test]
    fn rejected_edits_leave_the_netlist_unchanged() {
        let base = dcvsl_and2(&Process::strongarm_035()).netlist;
        let rejects = |before: &FlatNetlist, edit: Edit| {
            let mut nl = before.clone();
            assert!(edit.apply(&mut nl).is_err(), "{edit:?}");
            assert_eq!(&nl, before, "{edit:?} left the netlist unchanged");
        };
        let (device, l) = (DeviceId(0), 3.5e-7);
        for w in [0.0, -1.0, f64::NAN, f64::INFINITY] {
            rejects(&base, Edit::Resize { device, w, l });
        }
        // Out-of-range ids, operators that leave bad geometry, and a
        // bridge between one net and itself, as they arrive off the wire.
        for json in [
            r#"{"edit":"resize","device":4294967295,"w":1e-6,"l":3.5e-7}"#,
            r#"{"edit":"rewire","device":0,"term":"gate","net":4294967295}"#,
            r#"{"edit":"add-device","name":"m","kind":"nmos","gate":4294967295,"drain":0,"source":0,"bulk":0,"w":1e-6,"l":1e-7}"#,
            r#"{"edit":"op","op":{"op":"keeper-delete"},"site":{"site":"device","device":4294967295}}"#,
            r#"{"edit":"op","op":{"op":"width-scale","factor":0.0},"site":{"site":"device","device":0}}"#,
            r#"{"edit":"op","op":{"op":"width-scale","factor":-1.0},"site":{"site":"device","device":0}}"#,
            r#"{"edit":"op","op":{"op":"keeper-resize","w_factor":1.0,"l_factor":-2.0},"site":{"site":"device","device":0}}"#,
            r#"{"edit":"op","op":{"op":"net-bridge"},"site":{"site":"bridge","a":0,"b":0}}"#,
        ] {
            let edit = crate::edit_from_json(&serde_json::from_str(json).unwrap()).unwrap();
            rejects(&base, edit);
        }
        // A first x1e300 stays finite; a second overflows to infinity.
        let site = Site::Device(device);
        let huge = Edit::Op {
            op: MutationOp::WidthScale { factor: 1e300 },
            site,
        };
        let mut wide = base.clone();
        huge.apply(&mut wide).unwrap();
        rejects(&wide, huge);
    }
}
