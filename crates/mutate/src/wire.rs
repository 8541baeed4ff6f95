//! Wire (de)serialization for the operator taxonomy.
//!
//! The verification daemon (`cbv-serve`) streams ECO requests whose edit
//! vocabulary *is* [`MutationOp`] × [`Site`]: a remote designer names the
//! same single-site edits the campaign enumerates locally. This module
//! gives both halves one stable JSON encoding:
//!
//! ```text
//! {"op":"width-scale","factor":1.5}
//! {"op":"keeper-resize","w_factor":2.0,"l_factor":1.0}
//! {"op":"keeper-delete"}
//!
//! {"site":"device","device":3}
//! {"site":"rewire","device":3,"term":"gate","net":7}
//! {"site":"bridge","a":1,"b":2}
//! {"site":"open","device":3,"term":"gate"}
//! ```
//!
//! Magnitudes are plain JSON decimals; Rust's shortest-round-trip float
//! formatting guarantees `parse(format(x)) == x` bit-exactly, so an edit
//! applied remotely and the same edit applied in-process produce
//! fingerprint-identical netlists — the daemon's byte-identity contract
//! rests on this. Parsing rejects non-finite and missing magnitudes.

use std::error::Error;
use std::fmt;

use cbv_netlist::{DeviceId, NetId, Term};
use serde::{JsonWriter, Serialize};
use serde_json::{FieldError, Value};

use crate::op::{MutationOp, Site};

/// A structurally invalid wire encoding of an op or site.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    message: String,
}

impl WireError {
    fn new(message: impl Into<String>) -> WireError {
        WireError {
            message: message.into(),
        }
    }
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "wire format error: {}", self.message)
    }
}

impl Error for WireError {}

impl From<FieldError> for WireError {
    fn from(e: FieldError) -> WireError {
        WireError::new(e.to_string())
    }
}

impl Serialize for MutationOp {
    fn serialize_json(&self, out: &mut String) {
        let mut w = JsonWriter::object(out);
        w.field("op", &self.name());
        match *self {
            MutationOp::WidthScale { factor }
            | MutationOp::LengthScale { factor }
            | MutationOp::BetaSkew { factor } => {
                w.field("factor", &factor);
            }
            MutationOp::KeeperResize { w_factor, l_factor } => {
                w.field("w_factor", &w_factor);
                w.field("l_factor", &l_factor);
            }
            MutationOp::KeeperDelete
            | MutationOp::PolaritySwap
            | MutationOp::NetBridge
            | MutationOp::NetOpen
            | MutationOp::PrechargeDrop
            | MutationOp::ClockPhaseSwap => {}
        }
        w.end();
    }
}

impl Serialize for Site {
    fn serialize_json(&self, out: &mut String) {
        let mut w = JsonWriter::object(out);
        match *self {
            Site::Device(d) => {
                w.field("site", &"device");
                w.field("device", &d.index());
            }
            Site::Rewire(d, term, net) => {
                w.field("site", &"rewire");
                w.field("device", &d.index());
                w.field("term", &term_name(term));
                w.field("net", &net.index());
            }
            Site::Bridge(a, b) => {
                w.field("site", &"bridge");
                w.field("a", &a.index());
                w.field("b", &b.index());
            }
            Site::Open(d, term) => {
                w.field("site", &"open");
                w.field("device", &d.index());
                w.field("term", &term_name(term));
            }
        }
        w.end();
    }
}

/// Stable wire name of a terminal.
pub fn term_name(term: Term) -> &'static str {
    match term {
        Term::Gate => "gate",
        Term::Source => "source",
        Term::Drain => "drain",
        Term::Bulk => "bulk",
    }
}

/// Parses a terminal name emitted by [`term_name`].
pub fn parse_term(name: &str) -> Result<Term, WireError> {
    match name {
        "gate" => Ok(Term::Gate),
        "source" => Ok(Term::Source),
        "drain" => Ok(Term::Drain),
        "bulk" => Ok(Term::Bulk),
        other => Err(WireError::new(format!("unknown terminal {other:?}"))),
    }
}

/// Parses a [`MutationOp`] from its wire object.
pub fn op_from_json(v: &Value) -> Result<MutationOp, WireError> {
    match v.req_str("op")? {
        "width-scale" => Ok(MutationOp::WidthScale {
            factor: v.req_f64("factor")?,
        }),
        "length-scale" => Ok(MutationOp::LengthScale {
            factor: v.req_f64("factor")?,
        }),
        "beta-skew" => Ok(MutationOp::BetaSkew {
            factor: v.req_f64("factor")?,
        }),
        "keeper-resize" => Ok(MutationOp::KeeperResize {
            w_factor: v.req_f64("w_factor")?,
            l_factor: v.req_f64("l_factor")?,
        }),
        "keeper-delete" => Ok(MutationOp::KeeperDelete),
        "polarity-swap" => Ok(MutationOp::PolaritySwap),
        "net-bridge" => Ok(MutationOp::NetBridge),
        "net-open" => Ok(MutationOp::NetOpen),
        "precharge-drop" => Ok(MutationOp::PrechargeDrop),
        "clock-phase-swap" => Ok(MutationOp::ClockPhaseSwap),
        other => Err(WireError::new(format!("unknown operator {other:?}"))),
    }
}

/// Parses a [`Site`] from its wire object. Ids are *not* validated
/// against any netlist here — the applier rejects out-of-range ids.
pub fn site_from_json(v: &Value) -> Result<Site, WireError> {
    match v.req_str("site")? {
        "device" => Ok(Site::Device(DeviceId(v.req_u32("device")?))),
        "rewire" => Ok(Site::Rewire(
            DeviceId(v.req_u32("device")?),
            parse_term(v.req_str("term")?)?,
            NetId(v.req_u32("net")?),
        )),
        "bridge" => Ok(Site::Bridge(NetId(v.req_u32("a")?), NetId(v.req_u32("b")?))),
        "open" => Ok(Site::Open(
            DeviceId(v.req_u32("device")?),
            parse_term(v.req_str("term")?)?,
        )),
        other => Err(WireError::new(format!("unknown site kind {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip_op(op: MutationOp) {
        let json = serde_json::to_string(&op).unwrap();
        let back = op_from_json(&serde_json::from_str(&json).unwrap()).unwrap();
        assert_eq!(back, op, "{json}");
        // Bit-exact magnitude survival.
        match (op.magnitude(), back.magnitude()) {
            (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits()),
            (a, b) => assert_eq!(a, b),
        }
    }

    #[test]
    fn every_op_round_trips() {
        for op in [
            MutationOp::WidthScale { factor: 1.05 },
            MutationOp::LengthScale {
                factor: 0.123_456_789_012_345_67,
            },
            MutationOp::BetaSkew { factor: 25.0 },
            MutationOp::KeeperResize {
                w_factor: 3.5,
                l_factor: 0.9,
            },
            MutationOp::KeeperDelete,
            MutationOp::PolaritySwap,
            MutationOp::NetBridge,
            MutationOp::NetOpen,
            MutationOp::PrechargeDrop,
            MutationOp::ClockPhaseSwap,
        ] {
            round_trip_op(op);
        }
    }

    #[test]
    fn every_site_round_trips() {
        for site in [
            Site::Device(DeviceId(7)),
            Site::Rewire(DeviceId(3), Term::Gate, NetId(9)),
            Site::Bridge(NetId(1), NetId(2)),
            Site::Open(DeviceId(0), Term::Drain),
        ] {
            let json = serde_json::to_string(&site).unwrap();
            let back = site_from_json(&serde_json::from_str(&json).unwrap()).unwrap();
            assert_eq!(back, site, "{json}");
        }
    }

    #[test]
    fn stable_wire_shapes() {
        assert_eq!(
            serde_json::to_string(&MutationOp::WidthScale { factor: 1.5 }).unwrap(),
            "{\"op\":\"width-scale\",\"factor\":1.5}"
        );
        assert_eq!(
            serde_json::to_string(&Site::Rewire(DeviceId(3), Term::Gate, NetId(7))).unwrap(),
            "{\"site\":\"rewire\",\"device\":3,\"term\":\"gate\",\"net\":7}"
        );
    }

    #[test]
    fn rejects_malformed_objects() {
        let bad = [
            "{\"op\":\"width-scale\"}",                  // missing factor
            "{\"op\":\"width-scale\",\"factor\":\"x\"}", // non-numeric
            "{\"op\":\"no-such-op\"}",                   // unknown op
            "{\"site\":\"rewire\",\"device\":1}",        // missing term/net
            "{\"site\":\"rewire\",\"device\":1,\"term\":\"fin\",\"net\":0}", // bad term
            "{\"site\":\"elsewhere\"}",                  // unknown site
            "{}",                                        // no discriminant
        ];
        for text in bad {
            let v = serde_json::from_str(text).unwrap();
            assert!(
                op_from_json(&v).is_err() && site_from_json(&v).is_err(),
                "{text} should not parse"
            );
        }
    }
}
