//! The flattened transistor network — the substrate every verifier runs on.

use std::collections::HashMap;

use crate::device::{Device, Passive};
use crate::error::NetlistError;
use crate::{DeviceId, NetId, NetKind};

/// How a device touches a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetUse {
    /// The net drives the device's gate.
    Gate(DeviceId),
    /// The net is a channel terminal (source or drain) of the device.
    Channel(DeviceId),
    /// The net ties the device's bulk.
    Bulk(DeviceId),
}

impl NetUse {
    /// The device involved, whatever the terminal.
    pub fn device(self) -> DeviceId {
        match self {
            NetUse::Gate(d) | NetUse::Channel(d) | NetUse::Bulk(d) => d,
        }
    }
}

/// Names one terminal of a MOS device — the address a rewire edit needs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Term {
    /// The gate terminal.
    Gate,
    /// The source terminal.
    Source,
    /// The drain terminal.
    Drain,
    /// The bulk/well tie.
    Bulk,
}

impl Term {
    /// All four terminals in declaration order.
    pub const ALL: [Term; 4] = [Term::Gate, Term::Source, Term::Drain, Term::Bulk];
}

/// A flattened design: plain vectors of nets and devices plus connectivity
/// indices. Construction is append-only; the connectivity index is
/// maintained incrementally on every append, so all connectivity queries
/// take `&self` — verifiers can share one netlist read-only across
/// worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct FlatNetlist {
    name: String,
    net_names: Vec<String>,
    net_kinds: Vec<NetKind>,
    by_name: HashMap<String, NetId>,
    devices: Vec<Device>,
    passives: Vec<Passive>,
    /// net -> uses; updated as devices are appended.
    uses: Vec<Vec<NetUse>>,
}

impl FlatNetlist {
    /// Creates an empty flat netlist named after its top cell.
    pub fn new(name: impl Into<String>) -> FlatNetlist {
        FlatNetlist {
            name: name.into(),
            net_names: Vec::new(),
            net_kinds: Vec::new(),
            by_name: HashMap::new(),
            devices: Vec::new(),
            passives: Vec::new(),
            uses: Vec::new(),
        }
    }

    /// Name of the design (top cell).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Appends a net. Duplicate names are allowed (hierarchical paths make
    /// them unique in practice); `find_net` returns the first match.
    pub fn add_net(&mut self, name: &str, kind: NetKind) -> NetId {
        let id = NetId(self.net_names.len() as u32);
        self.net_names.push(name.to_owned());
        self.by_name.entry(name.to_owned()).or_insert(id);
        self.net_kinds.push(kind);
        self.uses.push(Vec::new());
        id
    }

    /// Appends a device.
    ///
    /// # Panics
    ///
    /// Panics if any terminal references a net that does not exist.
    pub fn add_device(&mut self, device: Device) -> DeviceId {
        let n = self.net_names.len() as u32;
        assert!(
            device.gate.0 < n && device.source.0 < n && device.drain.0 < n && device.bulk.0 < n,
            "device `{}` references an out-of-range net",
            device.name
        );
        let id = DeviceId(self.devices.len() as u32);
        self.uses[device.gate.index()].push(NetUse::Gate(id));
        self.uses[device.source.index()].push(NetUse::Channel(id));
        if device.drain != device.source {
            self.uses[device.drain.index()].push(NetUse::Channel(id));
        }
        self.uses[device.bulk.index()].push(NetUse::Bulk(id));
        self.devices.push(device);
        id
    }

    /// Fallible [`FlatNetlist::add_device`] for untrusted input:
    /// out-of-range terminals, non-positive or non-finite geometry, and
    /// zero fingers become structured errors instead of panics.
    pub fn try_add_device(&mut self, device: Device) -> Result<DeviceId, NetlistError> {
        let n = self.net_names.len() as u32;
        for (term, net) in [
            ("gate", device.gate),
            ("drain", device.drain),
            ("source", device.source),
            ("bulk", device.bulk),
        ] {
            if net.0 >= n {
                return Err(NetlistError::InvalidDevice {
                    name: device.name,
                    message: format!("{term} references unknown net {} (only {n} nets)", net.0),
                });
            }
        }
        if !crate::valid_geometry(device.w, device.l) {
            return Err(NetlistError::InvalidDevice {
                name: device.name,
                message: format!(
                    "geometry must be positive and finite, got w={:?} l={:?}",
                    device.w, device.l
                ),
            });
        }
        if device.fingers == 0 {
            return Err(NetlistError::InvalidDevice {
                name: device.name,
                message: "finger count must be at least 1".to_string(),
            });
        }
        Ok(self.add_device(device))
    }

    /// Fallible [`FlatNetlist::add_passive`] for untrusted input.
    pub fn try_add_passive(&mut self, passive: Passive) -> Result<(), NetlistError> {
        let n = self.net_names.len() as u32;
        for net in [passive.a, passive.b] {
            if net.0 >= n {
                return Err(NetlistError::InvalidDevice {
                    name: passive.name,
                    message: format!("terminal references unknown net {} (only {n} nets)", net.0),
                });
            }
        }
        if !(passive.value.is_finite() && passive.value >= 0.0) {
            return Err(NetlistError::InvalidDevice {
                name: passive.name,
                message: format!(
                    "value must be non-negative and finite, got {:?}",
                    passive.value
                ),
            });
        }
        self.add_passive(passive);
        Ok(())
    }

    /// Appends a passive element.
    ///
    /// # Panics
    ///
    /// Panics if a terminal references a net that does not exist.
    pub fn add_passive(&mut self, passive: Passive) {
        let n = self.net_names.len() as u32;
        assert!(
            passive.a.0 < n && passive.b.0 < n,
            "passive `{}` references an out-of-range net",
            passive.name
        );
        self.passives.push(passive);
    }

    /// Number of nets.
    pub fn net_count(&self) -> usize {
        self.net_names.len()
    }

    /// Name of a net.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn net_name(&self, id: NetId) -> &str {
        &self.net_names[id.index()]
    }

    /// Kind of a net.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn net_kind(&self, id: NetId) -> NetKind {
        self.net_kinds[id.index()]
    }

    /// Reclassifies a net (e.g. recognition promoting a signal to clock).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn set_net_kind(&mut self, id: NetId, kind: NetKind) {
        self.net_kinds[id.index()] = kind;
    }

    /// First net with the given name.
    pub fn find_net(&self, name: &str) -> Option<NetId> {
        self.by_name.get(name).copied()
    }

    /// All net ids.
    pub fn net_ids(&self) -> impl Iterator<Item = NetId> + '_ {
        (0..self.net_names.len() as u32).map(NetId)
    }

    /// The devices.
    pub fn devices(&self) -> &[Device] {
        &self.devices
    }

    /// Borrow one device.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn device(&self, id: DeviceId) -> &Device {
        &self.devices[id.index()]
    }

    /// Mutable access to one device (used by sizing optimizers).
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn device_mut(&mut self, id: DeviceId) -> &mut Device {
        &mut self.devices[id.index()]
    }

    /// The devices whose drawn `w` or `l` differ from `base`'s, ascending,
    /// when this netlist is a *sizing edit* of `base`: equal to it in
    /// everything else — name, nets, every device's name, kind,
    /// terminals and fingers, the connectivity index and the passives.
    /// `None` when anything else differs. Sizes compare by bit pattern.
    pub fn resized_devices(&self, base: &FlatNetlist) -> Option<Vec<DeviceId>> {
        let same_shape = self.name == base.name
            && self.net_names == base.net_names
            && self.net_kinds == base.net_kinds
            && self.devices.len() == base.devices.len()
            && self.uses == base.uses
            && self.passives == base.passives;
        if !same_shape {
            return None;
        }
        let mut resized = Vec::new();
        for (i, (d, b)) in self.devices.iter().zip(&base.devices).enumerate() {
            let Device {
                name,
                kind,
                gate,
                source,
                drain,
                bulk,
                w,
                l,
                fingers,
            } = d;
            let same_but_size = *name == b.name
                && *kind == b.kind
                && (*gate, *source, *drain, *bulk) == (b.gate, b.source, b.drain, b.bulk)
                && *fingers == b.fingers;
            if !same_but_size {
                return None;
            }
            if w.to_bits() != b.w.to_bits() || l.to_bits() != b.l.to_bits() {
                resized.push(DeviceId(i as u32));
            }
        }
        Some(resized)
    }

    /// Moves one terminal of a device to another net, keeping the
    /// connectivity index current. Returns the net the terminal was on.
    ///
    /// This is the connectivity edit a mutation/ECO needs: unlike
    /// [`FlatNetlist::device_mut`] (which only the geometry fields may be
    /// edited through), rewiring updates the `uses` index so every
    /// `net_uses`-based query stays correct afterwards.
    ///
    /// # Panics
    ///
    /// Panics if the device or the target net is out of range.
    pub fn rewire(&mut self, id: DeviceId, term: Term, net: NetId) -> NetId {
        assert!(
            net.0 < self.net_names.len() as u32,
            "rewire target net out of range"
        );
        let d = &self.devices[id.index()];
        let (gate, source, drain, bulk) = (d.gate, d.source, d.drain, d.bulk);
        let old = match term {
            Term::Gate => gate,
            Term::Source => source,
            Term::Drain => drain,
            Term::Bulk => bulk,
        };
        if old == net {
            return old;
        }
        // Detach every index entry of this device, update the terminal,
        // then re-attach using the same dedup rule as `add_device` (one
        // Channel entry when source == drain).
        for n in [gate, source, drain, bulk] {
            self.uses[n.index()].retain(|u| u.device() != id);
        }
        {
            let d = &mut self.devices[id.index()];
            match term {
                Term::Gate => d.gate = net,
                Term::Source => d.source = net,
                Term::Drain => d.drain = net,
                Term::Bulk => d.bulk = net,
            }
        }
        let d = &self.devices[id.index()];
        let (gate, source, drain, bulk) = (d.gate, d.source, d.drain, d.bulk);
        self.uses[gate.index()].push(NetUse::Gate(id));
        self.uses[source.index()].push(NetUse::Channel(id));
        if drain != source {
            self.uses[drain.index()].push(NetUse::Channel(id));
        }
        self.uses[bulk.index()].push(NetUse::Bulk(id));
        old
    }

    /// Removes the most recently appended device, unwinding its index
    /// entries — the undo for a mutation that added a device.
    ///
    /// # Panics
    ///
    /// Panics if there are no devices.
    pub fn pop_device(&mut self) -> Device {
        let d = self.devices.pop().expect("pop_device on empty netlist");
        let id = DeviceId(self.devices.len() as u32);
        for n in [d.gate, d.source, d.drain, d.bulk] {
            self.uses[n.index()].retain(|u| u.device() != id);
        }
        d
    }

    /// Removes the most recently appended net — the undo for a mutation
    /// that introduced a scratch net (e.g. the floating net of an "open"
    /// fault).
    ///
    /// # Panics
    ///
    /// Panics if there are no nets, if anything still uses the net, or if
    /// a passive terminal references it.
    pub fn pop_net(&mut self) -> String {
        let id = NetId(self.net_names.len() as u32 - 1);
        assert!(
            self.uses[id.index()].is_empty(),
            "pop_net: net `{}` still has attached devices",
            self.net_names[id.index()]
        );
        assert!(
            self.passives.iter().all(|p| p.a != id && p.b != id),
            "pop_net: net `{}` still has attached passives",
            self.net_names[id.index()]
        );
        self.uses.pop();
        self.net_kinds.pop();
        let name = self.net_names.pop().expect("pop_net on empty netlist");
        if self.by_name.get(&name) == Some(&id) {
            self.by_name.remove(&name);
            // An earlier net may share the name; restore the first match
            // so `find_net` keeps its "first declaration wins" contract.
            if let Some(first) = self.net_names.iter().position(|n| n == &name) {
                self.by_name.insert(name.clone(), NetId(first as u32));
            }
        }
        name
    }

    /// The passive elements.
    pub fn passives(&self) -> &[Passive] {
        &self.passives
    }

    /// All device ids.
    pub fn device_ids(&self) -> impl Iterator<Item = DeviceId> + '_ {
        (0..self.devices.len() as u32).map(DeviceId)
    }

    /// The uses (terminal attachments) of a net. The index is maintained
    /// incrementally, so this is always current and read-only.
    ///
    /// # Panics
    ///
    /// Panics if out of range.
    pub fn net_uses(&self, id: NetId) -> &[NetUse] {
        &self.uses[id.index()]
    }

    /// The full net→uses table (index = net id): connectivity for
    /// analyses that sweep every net.
    pub fn uses_table(&self) -> &[Vec<NetUse>] {
        &self.uses
    }

    /// Devices whose gate is on `net`.
    fn gate_loads(&self, net: NetId) -> Vec<DeviceId> {
        self.net_uses(net)
            .iter()
            .filter_map(|u| match u {
                NetUse::Gate(d) => Some(*d),
                _ => None,
            })
            .collect()
    }

    /// Devices with a channel terminal on `net`.
    pub fn channel_devices(&self, net: NetId) -> Vec<DeviceId> {
        self.net_uses(net)
            .iter()
            .filter_map(|u| match u {
                NetUse::Channel(d) => Some(*d),
                _ => None,
            })
            .collect()
    }

    /// All rail nets (power and ground).
    pub fn rails(&self) -> Vec<NetId> {
        self.net_ids()
            .filter(|&n| self.net_kind(n).is_rail())
            .collect()
    }

    /// Total transistor width attached by gate to the net — the gate load
    /// used everywhere in delay and power estimation.
    pub fn gate_width_on(&self, net: NetId) -> f64 {
        self.gate_loads(net)
            .into_iter()
            .map(|d| self.device(d).w)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_tech::MosKind;

    fn nand2() -> FlatNetlist {
        let mut f = FlatNetlist::new("nand2");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "mpa",
            a,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "mpb",
            b,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "mna",
            a,
            y,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "mnb",
            b,
            x,
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f
    }

    #[test]
    fn resized_devices_names_a_sizing_edit_and_nothing_else() {
        let base = nand2();
        assert_eq!(base.resized_devices(&base), Some(vec![]));

        let mut sized = base.clone();
        sized.device_mut(DeviceId(2)).w *= 1.5;
        sized.device_mut(DeviceId(0)).l *= 2.0;
        assert_eq!(
            sized.resized_devices(&base),
            Some(vec![DeviceId(0), DeviceId(2)])
        );

        let mut rewired = base.clone();
        rewired.rewire(DeviceId(1), Term::Gate, NetId(0));
        assert_eq!(rewired.resized_devices(&base), None);
        let mut fingered = base.clone();
        fingered.device_mut(DeviceId(1)).fingers = 2;
        assert_eq!(fingered.resized_devices(&base), None);
        let mut grown = base.clone();
        grown.add_net("spare", NetKind::Signal);
        assert_eq!(grown.resized_devices(&base), None);
        let mut retyped = base.clone();
        retyped.set_net_kind(NetId(3), NetKind::Output);
        assert_eq!(retyped.resized_devices(&base), None);
    }

    #[test]
    fn uses_index_tracks_terminals() {
        let f = nand2();
        let a = f.find_net("a").unwrap();
        let gates = f.gate_loads(a);
        assert_eq!(gates.len(), 2);
        let y = f.find_net("y").unwrap();
        let ch = f.channel_devices(y);
        assert_eq!(ch.len(), 3, "y touches both pullups and the top nmos");
    }

    #[test]
    fn gate_width_accumulates() {
        let f = nand2();
        let a = f.find_net("a").unwrap();
        assert!((f.gate_width_on(a) - 8e-6).abs() < 1e-12);
    }

    #[test]
    fn rails_and_externals() {
        let f = nand2();
        assert_eq!(f.rails().len(), 2);
    }

    #[test]
    fn index_rebuilds_after_mutation() {
        let mut f = nand2();
        let a = f.find_net("a").unwrap();
        assert_eq!(f.gate_loads(a).len(), 2);
        let gnd = f.find_net("gnd").unwrap();
        let y = f.find_net("y").unwrap();
        f.add_device(Device::mos(
            MosKind::Nmos,
            "extra",
            a,
            y,
            gnd,
            gnd,
            1e-6,
            0.35e-6,
        ));
        assert_eq!(f.gate_loads(a).len(), 3);
    }

    #[test]
    fn set_net_kind_reclassifies() {
        let mut f = nand2();
        let a = f.find_net("a").unwrap();
        f.set_net_kind(a, NetKind::Clock);
        assert_eq!(f.net_kind(a), NetKind::Clock);
    }

    #[test]
    #[should_panic(expected = "out-of-range")]
    fn device_with_bad_net_panics() {
        let mut f = FlatNetlist::new("bad");
        let a = f.add_net("a", NetKind::Input);
        f.add_device(Device::mos(
            MosKind::Nmos,
            "m",
            a,
            NetId(9),
            a,
            a,
            1e-6,
            1e-6,
        ));
    }

    #[test]
    fn rewire_moves_one_terminal_and_updates_index() {
        let mut f = nand2();
        let a = f.find_net("a").unwrap();
        let b = f.find_net("b").unwrap();
        let mna = f.device_ids().find(|&d| f.device(d).name == "mna").unwrap();
        let old = f.rewire(mna, Term::Gate, b);
        assert_eq!(old, a);
        assert_eq!(f.device(mna).gate, b);
        assert_eq!(f.gate_loads(a).len(), 1, "a keeps only mpa's gate");
        assert_eq!(f.gate_loads(b).len(), 3, "b gains mna's gate");
        // Channel attachments were re-added untouched.
        let y = f.find_net("y").unwrap();
        assert!(f.channel_devices(y).contains(&mna));
        // Rewiring back restores the original attachment sets.
        f.rewire(mna, Term::Gate, a);
        assert_eq!(f.gate_loads(a).len(), 2);
        assert_eq!(f.gate_loads(b).len(), 2);
    }

    #[test]
    fn rewire_handles_merged_channel_terminals() {
        let mut f = nand2();
        let y = f.find_net("y").unwrap();
        let x = f.find_net("x").unwrap();
        let mna = f.device_ids().find(|&d| f.device(d).name == "mna").unwrap();
        // Collapse mna's channel onto one net: exactly one Channel entry.
        f.rewire(mna, Term::Drain, x);
        assert_eq!(f.device(mna).source, x);
        assert_eq!(f.device(mna).drain, x);
        let entries = f
            .net_uses(x)
            .iter()
            .filter(|u| matches!(u, NetUse::Channel(d) if *d == mna))
            .count();
        assert_eq!(entries, 1, "merged channel indexes once, like add_device");
        assert!(!f.channel_devices(y).contains(&mna));
        // Split it back out.
        f.rewire(mna, Term::Drain, y);
        assert!(f.channel_devices(y).contains(&mna));
        assert_eq!(
            f.net_uses(x)
                .iter()
                .filter(|u| matches!(u, NetUse::Channel(d) if *d == mna))
                .count(),
            1
        );
    }

    #[test]
    fn pop_device_unwinds_the_index() {
        let mut f = nand2();
        let a = f.find_net("a").unwrap();
        let y = f.find_net("y").unwrap();
        let gnd = f.find_net("gnd").unwrap();
        let before_gates = f.gate_loads(a).len();
        f.add_device(Device::mos(
            MosKind::Nmos,
            "extra",
            a,
            y,
            gnd,
            gnd,
            1e-6,
            0.35e-6,
        ));
        assert_eq!(f.gate_loads(a).len(), before_gates + 1);
        let d = f.pop_device();
        assert_eq!(d.name, "extra");
        assert_eq!(f.gate_loads(a).len(), before_gates);
        assert_eq!(f.devices().len(), 4);
    }

    #[test]
    fn pop_net_removes_an_unused_scratch_net() {
        let mut f = nand2();
        let n = f.net_count();
        let scratch = f.add_net("scratch", NetKind::Signal);
        assert_eq!(f.find_net("scratch"), Some(scratch));
        let name = f.pop_net();
        assert_eq!(name, "scratch");
        assert_eq!(f.net_count(), n);
        assert_eq!(f.find_net("scratch"), None);
    }

    #[test]
    fn pop_net_restores_earlier_duplicate_name() {
        let mut f = FlatNetlist::new("dup");
        let first = f.add_net("n", NetKind::Signal);
        let _second = f.add_net("n", NetKind::Signal);
        f.pop_net();
        assert_eq!(f.find_net("n"), Some(first));
    }

    #[test]
    #[should_panic(expected = "still has attached devices")]
    fn pop_net_refuses_a_used_net() {
        let mut f = nand2();
        f.pop_net(); // "gnd" is a bulk/channel net of mna/mnb
    }

    #[test]
    fn netuse_device_accessor() {
        assert_eq!(NetUse::Gate(DeviceId(4)).device(), DeviceId(4));
        assert_eq!(NetUse::Channel(DeviceId(1)).device(), DeviceId(1));
        assert_eq!(NetUse::Bulk(DeviceId(2)).device(), DeviceId(2));
    }
}
