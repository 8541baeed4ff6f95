//! Circuit elements: MOS devices and passive parasitics.

use crate::error::NetlistError;
use crate::NetId;
use cbv_tech::MosKind;

/// A MOS transistor instance with per-instance sizing — the paper's
/// fundamental building element ("Every transistor in the design can be
/// (and often is) individually sized, regardless of its functional
/// context").
#[derive(Debug, Clone, PartialEq)]
pub struct Device {
    /// Instance name (unique within its cell by convention, not enforced).
    pub name: String,
    /// Polarity.
    pub kind: MosKind,
    /// Gate net.
    pub gate: NetId,
    /// Source net. For recognition purposes source/drain are symmetric;
    /// the names only record schematic orientation.
    pub source: NetId,
    /// Drain net.
    pub drain: NetId,
    /// Bulk/well net.
    pub bulk: NetId,
    /// Drawn width in meters.
    pub w: f64,
    /// Drawn length in meters. Individual devices may be drawn longer than
    /// process minimum — the §3 leakage fix.
    pub l: f64,
    /// Number of parallel fingers this device is drawn with. Electrically
    /// the total width is `w` regardless; fingers matter to layout and to
    /// the distributed-gate timing model of Fig 5.
    pub fingers: u32,
}

/// Whether a drawn width and length are usable geometry: both finite
/// and strictly positive. The one rule every path that accepts untrusted
/// geometry checks (SPICE and IR loading, `cbv_ir::validate`, the
/// daemon's ECO edits), so none of them can admit a device the device
/// models would reject.
pub fn valid_geometry(w: f64, l: f64) -> bool {
    w.is_finite() && l.is_finite() && w > 0.0 && l > 0.0
}

impl Device {
    /// Creates a MOS device. `w` and `l` are meters.
    ///
    /// # Panics
    ///
    /// Panics if `w` or `l` is not strictly positive.
    #[allow(clippy::too_many_arguments)]
    pub fn mos(
        kind: MosKind,
        name: impl Into<String>,
        gate: NetId,
        drain: NetId,
        source: NetId,
        bulk: NetId,
        w: f64,
        l: f64,
    ) -> Device {
        assert!(w > 0.0 && l > 0.0, "device geometry must be positive");
        Device {
            name: name.into(),
            kind,
            gate,
            source,
            drain,
            bulk,
            w,
            l,
            fingers: 1,
        }
    }

    /// Fallible [`Device::mos`] for untrusted input (SPICE decks, IR
    /// files): non-positive or non-finite geometry becomes a structured
    /// [`NetlistError::InvalidDevice`] instead of a panic.
    #[allow(clippy::too_many_arguments)]
    pub fn try_mos(
        kind: MosKind,
        name: impl Into<String>,
        gate: NetId,
        drain: NetId,
        source: NetId,
        bulk: NetId,
        w: f64,
        l: f64,
    ) -> Result<Device, NetlistError> {
        let name = name.into();
        if !valid_geometry(w, l) {
            return Err(NetlistError::InvalidDevice {
                name,
                message: format!("geometry must be positive and finite, got w={w:?} l={l:?}"),
            });
        }
        Ok(Device::mos(kind, name, gate, drain, source, bulk, w, l))
    }

    /// Sets the finger count (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `fingers` is zero.
    pub fn with_fingers(mut self, fingers: u32) -> Device {
        assert!(fingers > 0, "finger count must be at least 1");
        self.fingers = fingers;
        self
    }

    /// The two channel terminals, in (source, drain) order.
    pub fn channel(&self) -> (NetId, NetId) {
        (self.source, self.drain)
    }

    /// Given one channel terminal, returns the other.
    ///
    /// # Panics
    ///
    /// Panics if `net` is neither channel terminal.
    pub fn other_channel_end(&self, net: NetId) -> NetId {
        if net == self.source {
            self.drain
        } else if net == self.drain {
            self.source
        } else {
            panic!("net {net:?} is not a channel terminal of {}", self.name)
        }
    }

    /// True if `net` touches the channel (source or drain).
    pub fn channel_touches(&self, net: NetId) -> bool {
        self.source == net || self.drain == net
    }

    /// Width-to-length ratio (drive strength proxy).
    pub fn aspect(&self) -> f64 {
        self.w / self.l
    }
}

/// Kind of a passive element.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PassiveKind {
    /// Resistor (ohms).
    Resistor,
    /// Capacitor (farads).
    Capacitor,
}

/// A two-terminal passive element — used for extracted parasitics and for
/// explicit design capacitors (e.g. boost capacitors in sense amps).
#[derive(Debug, Clone, PartialEq)]
pub struct Passive {
    /// Instance name.
    pub name: String,
    /// Resistor or capacitor.
    pub kind: PassiveKind,
    /// First terminal.
    pub a: NetId,
    /// Second terminal.
    pub b: NetId,
    /// Value in SI units (ohms or farads).
    pub value: f64,
}

impl Passive {
    /// Creates a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is negative.
    pub fn resistor(name: impl Into<String>, a: NetId, b: NetId, ohms: f64) -> Passive {
        assert!(ohms >= 0.0, "resistance must be non-negative");
        Passive {
            name: name.into(),
            kind: PassiveKind::Resistor,
            a,
            b,
            value: ohms,
        }
    }

    /// Fallible [`Passive::resistor`] for untrusted input: a negative
    /// or non-finite value becomes a structured error, not a panic.
    pub fn try_resistor(
        name: impl Into<String>,
        a: NetId,
        b: NetId,
        ohms: f64,
    ) -> Result<Passive, NetlistError> {
        let name = name.into();
        if !(ohms.is_finite() && ohms >= 0.0) {
            return Err(NetlistError::InvalidDevice {
                name,
                message: format!("resistance must be non-negative and finite, got {ohms:?}"),
            });
        }
        Ok(Passive::resistor(name, a, b, ohms))
    }

    /// Fallible [`Passive::capacitor`] for untrusted input: a negative
    /// or non-finite value becomes a structured error, not a panic.
    pub fn try_capacitor(
        name: impl Into<String>,
        a: NetId,
        b: NetId,
        farads: f64,
    ) -> Result<Passive, NetlistError> {
        let name = name.into();
        if !(farads.is_finite() && farads >= 0.0) {
            return Err(NetlistError::InvalidDevice {
                name,
                message: format!("capacitance must be non-negative and finite, got {farads:?}"),
            });
        }
        Ok(Passive::capacitor(name, a, b, farads))
    }

    /// Creates a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is negative.
    pub fn capacitor(name: impl Into<String>, a: NetId, b: NetId, farads: f64) -> Passive {
        assert!(farads >= 0.0, "capacitance must be non-negative");
        Passive {
            name: name.into(),
            kind: PassiveKind::Capacitor,
            a,
            b,
            value: farads,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn other_channel_end_round_trip() {
        let d = Device::mos(
            MosKind::Nmos,
            "m1",
            NetId(0),
            NetId(1),
            NetId(2),
            NetId(3),
            1e-6,
            0.35e-6,
        );
        assert_eq!(d.other_channel_end(NetId(1)), NetId(2));
        assert_eq!(d.other_channel_end(NetId(2)), NetId(1));
        assert!(d.channel_touches(NetId(1)));
        assert!(!d.channel_touches(NetId(0)));
    }

    #[test]
    #[should_panic(expected = "not a channel terminal")]
    fn other_channel_end_rejects_gate() {
        let d = Device::mos(
            MosKind::Nmos,
            "m1",
            NetId(0),
            NetId(1),
            NetId(2),
            NetId(3),
            1e-6,
            0.35e-6,
        );
        let _ = d.other_channel_end(NetId(0));
    }

    #[test]
    fn aspect_ratio() {
        let d = Device::mos(
            MosKind::Pmos,
            "m",
            NetId(0),
            NetId(1),
            NetId(2),
            NetId(3),
            7e-6,
            0.35e-6,
        );
        assert!((d.aspect() - 20.0).abs() < 1e-9);
    }

    #[test]
    fn fingers_builder() {
        let d = Device::mos(
            MosKind::Nmos,
            "m",
            NetId(0),
            NetId(1),
            NetId(2),
            NetId(3),
            8e-6,
            0.35e-6,
        )
        .with_fingers(4);
        assert_eq!(d.fingers, 4);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_length_panics() {
        let _ = Device::mos(
            MosKind::Nmos,
            "m",
            NetId(0),
            NetId(1),
            NetId(2),
            NetId(3),
            1e-6,
            0.0,
        );
    }

    #[test]
    fn passive_constructors() {
        let r = Passive::resistor("r1", NetId(0), NetId(1), 100.0);
        assert_eq!(r.kind, PassiveKind::Resistor);
        let c = Passive::capacitor("c1", NetId(0), NetId(1), 1e-15);
        assert_eq!(c.kind, PassiveKind::Capacitor);
    }
}
