//! `cbv-netlist` — transistor-level design database.
//!
//! In the paper's methodology "transistors are the building elements"
//! (§2): there is no mandatory cell library, every device is individually
//! sized, and hierarchy is used only "when it makes appropriate electrical
//! sense". This crate is the design database that makes that workable:
//!
//! * [`Cell`] / [`Library`] — hierarchical schematics: MOS devices, passive
//!   parasitics, and instances of other cells, with free-form hierarchy
//!   (the schematic hierarchy deliberately does **not** have to match the
//!   RTL hierarchy — see `cbv-core`'s multi-view database).
//! * [`FlatNetlist`] — the flattened, analysis-ready view: all verification
//!   tools in the toolkit (recognition, timing, electrical checks, power)
//!   run on the flat transistor network, exactly as the paper's tools
//!   "conservatively deduce \[meaning\] from the topology and context of the
//!   actual transistors".
//! * [`ccc`] — channel-connected-component partitioning, the universal
//!   first step of automatic circuit recognition.
//! * [`spice`] — a SPICE-subset reader/writer so designs can round-trip
//!   through text.
//!
//! # Example
//!
//! ```
//! use cbv_netlist::{Cell, Device, Library, NetKind};
//! use cbv_tech::MosKind;
//!
//! let mut inv = Cell::new("inv");
//! let vdd = inv.add_net("vdd", NetKind::Power);
//! let gnd = inv.add_net("gnd", NetKind::Ground);
//! let a = inv.add_net("a", NetKind::Input);
//! let y = inv.add_net("y", NetKind::Output);
//! inv.add_device(Device::mos(cbv_tech::MosKind::Pmos, "mp", a, y, vdd, vdd, 4.0e-6, 0.35e-6));
//! inv.add_device(Device::mos(MosKind::Nmos, "mn", a, y, gnd, gnd, 2.0e-6, 0.35e-6));
//!
//! let mut lib = Library::new();
//! let id = lib.add_cell(inv).unwrap();
//! let flat = lib.flatten(id).unwrap();
//! assert_eq!(flat.devices().len(), 2);
//! ```

pub mod canon;
pub mod ccc;
pub mod cell;
pub mod device;
pub mod error;
pub mod flat;
pub mod spice;

pub use canon::CanonicalKeys;
pub use ccc::{partition_cccs, Ccc, CccId};
pub use cell::{Cell, CellId, Instance, Library};
pub use device::{valid_geometry, Device, Passive, PassiveKind};
pub use error::NetlistError;
pub use flat::{FlatNetlist, NetUse, Term};

/// Index of a net within one [`Cell`] or one [`FlatNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NetId(pub u32);

/// Index of a device within one [`Cell`] or one [`FlatNetlist`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DeviceId(pub u32);

impl NetId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl DeviceId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Electrical role of a net.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NetKind {
    /// Ordinary internal signal.
    Signal,
    /// Power supply rail (logic 1, infinite strength).
    Power,
    /// Ground rail (logic 0, infinite strength).
    Ground,
    /// Primary input port.
    Input,
    /// Primary output port.
    Output,
    /// Bidirectional port.
    Inout,
    /// A net the designer has declared to be a clock. Recognition will
    /// also *infer* clocks; a declared kind is a methodology assertion.
    Clock,
}

impl NetKind {
    /// True for the supply rails.
    pub fn is_rail(self) -> bool {
        matches!(self, NetKind::Power | NetKind::Ground)
    }

    /// True for cell ports (externally visible nets, clocks included).
    pub fn is_port(self) -> bool {
        matches!(
            self,
            NetKind::Input | NetKind::Output | NetKind::Inout | NetKind::Clock
        )
    }

    /// True for nets that drive into the cell from outside (inputs,
    /// bidirectionals and clocks).
    pub fn is_driven_externally(self) -> bool {
        matches!(self, NetKind::Input | NetKind::Inout | NetKind::Clock)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn net_kind_classification() {
        assert!(NetKind::Power.is_rail());
        assert!(NetKind::Ground.is_rail());
        assert!(!NetKind::Clock.is_rail());
        assert!(NetKind::Clock.is_port());
        assert!(NetKind::Input.is_driven_externally());
        assert!(!NetKind::Output.is_driven_externally());
        assert!(!NetKind::Signal.is_port());
    }

    #[test]
    fn ids_expose_indices() {
        assert_eq!(NetId(7).index(), 7);
        assert_eq!(DeviceId(3).index(), 3);
    }
}
