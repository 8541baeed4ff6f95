//! Wire (de)serialization for the edit vocabulary.
//!
//! The verification daemon (`cbv-serve`) streams ECO requests, its state
//! file keeps session histories, and a repair plan lists its steps, all
//! as [`Edit`] objects: a remote designer names the same single-site
//! edits the campaign enumerates locally. This module gives them one
//! stable JSON encoding; the `"edit"` field discriminates, and `"op"`
//! edits nest an operator and a site:
//!
//! ```text
//! {"edit":"op","op":{"op":"width-scale","factor":1.5},"site":{"site":"device","device":3}}
//! {"edit":"add-net","name":"n","kind":"signal"}
//! {"edit":"add-device","name":"m","kind":"nmos","gate":0,"drain":1,"source":2,"bulk":3,"w":1e-6,"l":3.5e-7}
//! {"edit":"resize","device":1,"w":1e-6,"l":3.5e-7}
//! {"edit":"rewire","device":0,"term":"gate","net":1}
//!
//! {"op":"keeper-resize","w_factor":2.0,"l_factor":1.0}
//! {"op":"keeper-delete"}
//! {"site":"rewire","device":3,"term":"gate","net":7}
//! {"site":"bridge","a":1,"b":2}
//! {"site":"open","device":3,"term":"gate"}
//! ```
//!
//! Magnitudes and geometry are plain JSON decimals; Rust's
//! shortest-round-trip float formatting guarantees `parse(format(x)) ==
//! x` bit-exactly, so an edit applied remotely and the same edit applied
//! in-process produce fingerprint-identical netlists — the daemon's
//! byte-identity contract rests on this, and so does its
//! `save`/`restore`. Parsing rejects non-finite and missing magnitudes;
//! ids are checked against a netlist only by
//! [`Edit::apply`](crate::Edit::apply).

use cbv_netlist::{DeviceId, NetId, NetKind, Term};
use cbv_tech::MosKind;
use serde::{write_json_string, JsonWriter, Serialize};
use serde_json::Value;

use crate::edit::{Edit, NewDevice, NewNet};
use crate::op::{MutationOp, Site};

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
fn term_name(term: Term) -> &'static str {
    match term {
        Term::Gate => "gate",
        Term::Source => "source",
        Term::Drain => "drain",
        Term::Bulk => "bulk",
    }
}

/// Parses a terminal name emitted by [`term_name`].
fn parse_term(name: &str) -> Result<Term, String> {
    match name {
        "gate" => Ok(Term::Gate),
        "source" => Ok(Term::Source),
        "drain" => Ok(Term::Drain),
        "bulk" => Ok(Term::Bulk),
        other => Err(format!("unknown terminal {other:?}")),
    }
}

/// Parses a [`MutationOp`] from its wire object.
fn op_from_json(v: &Value) -> Result<MutationOp, String> {
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
        other => Err(format!("unknown operator {other:?}")),
    }
}

/// Parses a [`Site`] from its wire object.
fn site_from_json(v: &Value) -> Result<Site, String> {
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
        other => Err(format!("unknown site kind {other:?}")),
    }
}

/// Wire names of net and device kinds; each table serves both directions.
const NET_KINDS: [(NetKind, &str); 7] = [
    (NetKind::Signal, "signal"),
    (NetKind::Power, "power"),
    (NetKind::Ground, "ground"),
    (NetKind::Input, "input"),
    (NetKind::Output, "output"),
    (NetKind::Inout, "inout"),
    (NetKind::Clock, "clock"),
];
const MOS_KINDS: [(MosKind, &str); 2] = [(MosKind::Nmos, "nmos"), (MosKind::Pmos, "pmos")];

fn kind_name<K: PartialEq>(table: &[(K, &'static str)], kind: &K) -> &'static str {
    table
        .iter()
        .find(|(k, _)| k == kind)
        .expect("every kind has a name")
        .1
}

fn parse_kind<K: Copy>(table: &[(K, &str)], name: &str, what: &str) -> Result<K, String> {
    match table.iter().find(|(_, n)| *n == name) {
        Some(&(k, _)) => Ok(k),
        None => Err(format!("unknown {what} kind {name:?}")),
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    write_json_string(s, &mut out);
    out
}

/// Serializes one edit to the exact wire form [`edit_from_json`]
/// parses. Floats use shortest-round-trip formatting, so a serialized
/// history replays with bit-identical geometry — the `save`/`restore`
/// byte-identity contract rests on this inverse pair.
pub fn edit_to_json(edit: &Edit) -> String {
    match edit {
        Edit::Op { op, site } => format!(
            "{{\"edit\":\"op\",\"op\":{},\"site\":{}}}",
            serde_json::to_string(op).expect("op serialization is infallible"),
            serde_json::to_string(site).expect("site serialization is infallible"),
        ),
        Edit::AddNet(net) => format!(
            "{{\"edit\":\"add-net\",\"name\":{},\"kind\":\"{}\"}}",
            quoted(&net.name),
            kind_name(&NET_KINDS, &net.kind)
        ),
        Edit::AddDevice(d) => format!(
            "{{\"edit\":\"add-device\",\"name\":{},\"kind\":\"{}\",\
             \"gate\":{},\"drain\":{},\"source\":{},\"bulk\":{},\"w\":{:?},\"l\":{:?}}}",
            quoted(&d.name),
            kind_name(&MOS_KINDS, &d.kind),
            d.gate.index(),
            d.drain.index(),
            d.source.index(),
            d.bulk.index(),
            d.w,
            d.l,
        ),
        Edit::Resize { device, w, l } => format!(
            "{{\"edit\":\"resize\",\"device\":{},\"w\":{w:?},\"l\":{l:?}}}",
            device.index()
        ),
        Edit::Rewire { device, term, net } => format!(
            "{{\"edit\":\"rewire\",\"device\":{},\"term\":\"{}\",\"net\":{}}}",
            device.index(),
            term_name(*term),
            net.index()
        ),
    }
}

/// Parses one edit object off the wire. The `"edit"` field
/// discriminates; `"op"` edits nest the operator and site encodings.
pub fn edit_from_json(v: &Value) -> Result<Edit, String> {
    match v.req_str("edit")? {
        "op" => Ok(Edit::Op {
            op: op_from_json(v.req("op")?)?,
            site: site_from_json(v.req("site")?)?,
        }),
        "add-net" => Ok(Edit::AddNet(Box::new(NewNet {
            name: v.req_str("name")?.to_owned(),
            kind: parse_kind(&NET_KINDS, v.req_str("kind")?, "net")?,
        }))),
        "add-device" => Ok(Edit::AddDevice(Box::new(NewDevice {
            name: v.req_str("name")?.to_owned(),
            kind: parse_kind(&MOS_KINDS, v.req_str("kind")?, "device")?,
            gate: NetId(v.req_u32("gate")?),
            drain: NetId(v.req_u32("drain")?),
            source: NetId(v.req_u32("source")?),
            bulk: NetId(v.req_u32("bulk")?),
            w: v.req_f64("w")?,
            l: v.req_f64("l")?,
        }))),
        "resize" => Ok(Edit::Resize {
            device: DeviceId(v.req_u32("device")?),
            w: v.req_f64("w")?,
            l: v.req_f64("l")?,
        }),
        "rewire" => Ok(Edit::Rewire {
            device: DeviceId(v.req_u32("device")?),
            term: parse_term(v.req_str("term")?)?,
            net: NetId(v.req_u32("net")?),
        }),
        other => Err(format!("unknown edit kind {other:?}")),
    }
}

/// Parses an ECO payload: a single edit object or an array of them
/// (one batch either way).
pub fn edits_from_json(v: &Value) -> Result<Vec<Edit>, String> {
    match v.as_array() {
        Some(items) => items.iter().map(edit_from_json).collect(),
        None => Ok(vec![edit_from_json(v)?]),
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
