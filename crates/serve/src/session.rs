//! Sessions: named design seeds, the ECO edit vocabulary, and an
//! exactly-reversible revision history.
//!
//! A session is one client's private working copy of a design. It is
//! seeded either from the **registry** of `cbv-gen` generators
//! ([`design_from_name`]) or from an uploaded SPICE deck
//! ([`Session::from_spice`]), and then advances one **revision** per
//! accepted ECO batch. Every edit records its exact inverse
//! ([`UndoAction`]), so [`Session::rollback_to`] reproduces any earlier
//! revision's netlist *exactly* — same device order, same net table —
//! which makes a rollback-then-reverify hit the verification cache the
//! original revision primed (the PR 4 reversibility property, now a
//! service feature).
//!
//! Batches are atomic: if edit *k* of a batch fails validation, edits
//! `0..k` are reverted and the revision counter does not move. All ids
//! arriving off the wire are validated against the current netlist
//! before any panicking netlist API is called — a malformed ECO gets an
//! error reply, never a daemon panic.

use cbv_core::gen;
use cbv_core::mutate::{self, MutationOp, Site, UndoRecord};
use cbv_core::netlist::{
    spice, valid_geometry, Device, DeviceId, FlatNetlist, NetId, NetKind, Term,
};
use cbv_core::tech::{MosKind, Process};
use serde_json::Value;

use crate::protocol::json_escaped;

/// One reversible edit, as parsed off the wire. A session keeps every
/// accepted edit for its lifetime, so the rare string-carrying payloads
/// are boxed: the common one-device edits stay at 40 bytes.
#[derive(Debug, Clone, PartialEq)]
pub enum Edit {
    /// A `cbv-mutate` operator applied at an explicit site — the same
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
    /// Sets a device's drawn geometry.
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

/// The exact inverse of one applied edit — only what reverting reads
/// (a `cbv-mutate` operator keeps its slim [`UndoRecord`], not the
/// whole `Mutation` with its description string).
enum UndoAction {
    Mutation(UndoRecord),
    PopNet,
    PopDevice,
    Resize {
        device: DeviceId,
        w: f64,
        l: f64,
    },
    Rewire {
        device: DeviceId,
        term: Term,
        net: NetId,
    },
}

impl UndoAction {
    fn revert(self, netlist: &mut FlatNetlist) {
        match self {
            UndoAction::Mutation(m) => m.revert(netlist),
            UndoAction::PopNet => {
                netlist.pop_net();
            }
            UndoAction::PopDevice => {
                netlist.pop_device();
            }
            UndoAction::Resize { device, w, l } => {
                let d = netlist.device_mut(device);
                d.w = w;
                d.l = l;
            }
            UndoAction::Rewire { device, term, net } => {
                netlist.rewire(device, term, net);
            }
        }
    }
}

/// Seeds a netlist from the registry of generator designs. Names are
/// stable protocol vocabulary: a client and an in-process replay that
/// name the same design get identical netlists.
pub fn design_from_name(name: &str, process: &Process) -> Option<FlatNetlist> {
    let g = match name {
        "ripple2" => gen::adders::static_ripple_adder(2, process),
        "ripple4" => gen::adders::static_ripple_adder(4, process),
        "ripple8" => gen::adders::static_ripple_adder(8, process),
        "domino4" => gen::adders::manchester_domino_adder(4, process),
        "alu4" => gen::datapath::alu_slice(4, process),
        "cam8" => gen::cam::cam_match_line(8, process),
        "dcvsl" => gen::dcvsl::dcvsl_and2(process),
        "sr-latch" => gen::latches::sr_latch(process),
        _ => return None,
    };
    Some(g.netlist)
}

/// Names accepted by [`design_from_name`], for error messages and docs.
pub const DESIGN_NAMES: &[&str] = &[
    "ripple2", "ripple4", "ripple8", "domino4", "alu4", "cam8", "dcvsl", "sr-latch",
];

/// How a session's revision-0 netlist was produced. A seed plus the
/// accepted edit history replays the session bit-identically — the
/// basis of the daemon's `save`/`restore` persistence and of the farm
/// `load` vocabulary.
#[derive(Debug, Clone, PartialEq)]
pub enum SessionSeed {
    /// Seeded from the generator registry by design name.
    Registry,
    /// Seeded from an uploaded SPICE deck, flattened at `top`.
    Spice {
        /// The full deck text.
        text: String,
        /// The subcircuit flattened as the design top.
        top: String,
    },
}

/// One client's working copy: the current netlist plus the undo stack
/// that can walk it back to any earlier revision, plus the forward
/// history (seed + accepted batches) that can replay it from scratch.
///
/// A long-running session commits thousands of one-edit steps, so the
/// history is flat: every accepted edit in one vector, its inverse at
/// the same index in a second, and one `u32` end offset per revision —
/// three allocations however many steps, under 100 bytes per one-edit
/// step ([`Session::history_bytes`]).
pub struct Session {
    design: String,
    seed: SessionSeed,
    netlist: FlatNetlist,
    /// Accepted edits of every revision, in application order.
    edits: Vec<Edit>,
    /// `undo[i]` inverts `edits[i]`.
    undo: Vec<UndoAction>,
    /// `ends[k]` is where revision `k + 1`'s batch ends in `edits`.
    ends: Vec<u32>,
}

impl Session {
    /// Opens a session on a registry design.
    pub fn open(design: &str, process: &Process) -> Result<Session, String> {
        let netlist = design_from_name(design, process).ok_or_else(|| {
            format!(
                "unknown design {design:?} (have: {})",
                DESIGN_NAMES.join(", ")
            )
        })?;
        Ok(Session {
            design: design.to_owned(),
            seed: SessionSeed::Registry,
            netlist,
            edits: Vec::new(),
            undo: Vec::new(),
            ends: Vec::new(),
        })
    }

    /// Opens a session on an uploaded SPICE deck, flattened at `top`.
    pub fn from_spice(name: &str, text: &str, top: &str) -> Result<Session, String> {
        let lib = spice::parse(text).map_err(|e| format!("spice parse: {e}"))?;
        let top_id = lib
            .find_cell(top)
            .ok_or_else(|| format!("no subcircuit named {top:?} in upload"))?;
        let netlist = lib.flatten(top_id).map_err(|e| format!("flatten: {e}"))?;
        Ok(Session {
            design: name.to_owned(),
            seed: SessionSeed::Spice {
                text: text.to_owned(),
                top: top.to_owned(),
            },
            netlist,
            edits: Vec::new(),
            undo: Vec::new(),
            ends: Vec::new(),
        })
    }

    /// Rebuilds a session from a seed plus an accepted edit history —
    /// the `restore` path. Replay is deterministic, so the rebuilt
    /// netlist is bit-identical to the one that was saved.
    pub fn replay(
        design: &str,
        seed: &SessionSeed,
        steps: &[Vec<Edit>],
        process: &Process,
    ) -> Result<Session, String> {
        let mut session = match seed {
            SessionSeed::Registry => Session::open(design, process)?,
            SessionSeed::Spice { text, top } => Session::from_spice(design, text, top)?,
        };
        for (k, batch) in steps.iter().enumerate() {
            session
                .apply_batch(batch)
                .map_err(|e| format!("replay step {k}: {e}"))?;
        }
        Ok(session)
    }

    /// The design name this session was opened on.
    pub fn design(&self) -> &str {
        &self.design
    }

    /// How the revision-0 netlist was produced.
    pub fn seed(&self) -> &SessionSeed {
        &self.seed
    }

    /// The accepted edit batches, one per revision, in application
    /// order. `seed` + `history` replays the current netlist exactly.
    pub fn history(&self) -> impl Iterator<Item = &[Edit]> {
        let starts = std::iter::once(0).chain(self.ends.iter().map(|&e| e as usize));
        starts
            .zip(&self.ends)
            .map(|(start, &end)| &self.edits[start..end as usize])
    }

    /// Heap bytes the revision history holds (edits, their inverses and
    /// the step boundaries, at their allocated capacity; the boxed
    /// payloads of add-net/add-device edits are not followed).
    pub fn history_bytes(&self) -> usize {
        self.edits.capacity() * std::mem::size_of::<Edit>()
            + self.undo.capacity() * std::mem::size_of::<UndoAction>()
            + self.ends.capacity() * std::mem::size_of::<u32>()
    }

    /// Current revision: 0 is the seed, +1 per accepted ECO batch.
    pub fn revision(&self) -> u64 {
        self.ends.len() as u64
    }

    /// The current netlist (cloned by the caller for verification).
    pub fn netlist(&self) -> &FlatNetlist {
        &self.netlist
    }

    /// Applies one ECO batch atomically and returns the new revision.
    /// On error the netlist is exactly as before and the revision does
    /// not advance.
    pub fn apply_batch(&mut self, edits: &[Edit]) -> Result<u64, String> {
        let start = self.edits.len();
        let end =
            u32::try_from(start + edits.len()).map_err(|_| "session history is full".to_owned())?;
        for (k, edit) in edits.iter().enumerate() {
            match self.apply_one(edit) {
                Ok(undo) => self.undo.push(undo),
                Err(e) => {
                    self.revert_to(start);
                    return Err(format!("edit {k}: {e}"));
                }
            }
        }
        self.edits.extend_from_slice(edits);
        self.ends.push(end);
        Ok(self.revision())
    }

    /// Reverts, newest first, every applied edit from index `start` on.
    fn revert_to(&mut self, start: usize) {
        for u in self.undo.drain(start..).rev() {
            u.revert(&mut self.netlist);
        }
        self.edits.truncate(start);
    }

    /// Rolls the netlist back to an earlier (or the current) revision.
    pub fn rollback_to(&mut self, revision: u64) -> Result<u64, String> {
        if revision > self.revision() {
            return Err(format!(
                "cannot roll forward to revision {revision} (current is {})",
                self.revision()
            ));
        }
        self.ends.truncate(revision as usize);
        self.revert_to(self.ends.last().map_or(0, |&e| e as usize));
        Ok(self.revision())
    }

    fn check_device(&self, d: DeviceId) -> Result<(), String> {
        if d.index() < self.netlist.devices().len() {
            Ok(())
        } else {
            Err(format!("device {} out of range", d.index()))
        }
    }

    fn check_net(&self, n: NetId) -> Result<(), String> {
        if n.index() < self.netlist.net_count() {
            Ok(())
        } else {
            Err(format!("net {} out of range", n.index()))
        }
    }

    fn check_site(&self, site: Site) -> Result<(), String> {
        match site {
            Site::Device(d) => self.check_device(d),
            Site::Rewire(d, _, n) => self.check_device(d).and_then(|()| self.check_net(n)),
            Site::Bridge(a, b) => self.check_net(a).and_then(|()| self.check_net(b)),
            Site::Open(d, _) => self.check_device(d),
        }
    }

    fn apply_one(&mut self, edit: &Edit) -> Result<UndoAction, String> {
        match edit {
            Edit::Op { op, site } => {
                self.check_site(*site)?;
                let m = mutate::apply(&mut self.netlist, op, *site)
                    .ok_or_else(|| format!("operator {} not applicable at site", op.name()))?;
                // Only device-site operators rescale geometry, and only
                // the site's device: a factor of 0, a negative one or an
                // overflow to infinity is undone and rejected here.
                if let Site::Device(d) = *site {
                    let d = self.netlist.device(d);
                    if let Err(e) = check_geometry(d.w, d.l) {
                        m.revert(&mut self.netlist);
                        return Err(e);
                    }
                }
                Ok(UndoAction::Mutation(m.into_undo()))
            }
            Edit::AddNet(net) => {
                self.netlist.add_net(&net.name, net.kind);
                Ok(UndoAction::PopNet)
            }
            Edit::AddDevice(d) => {
                for n in [d.gate, d.drain, d.source, d.bulk] {
                    self.check_net(n)?;
                }
                check_geometry(d.w, d.l)?;
                self.netlist.add_device(Device::mos(
                    d.kind,
                    d.name.clone(),
                    d.gate,
                    d.drain,
                    d.source,
                    d.bulk,
                    d.w,
                    d.l,
                ));
                Ok(UndoAction::PopDevice)
            }
            Edit::Resize { device, w, l } => {
                self.check_device(*device)?;
                check_geometry(*w, *l)?;
                let d = self.netlist.device_mut(*device);
                let undo = UndoAction::Resize {
                    device: *device,
                    w: d.w,
                    l: d.l,
                };
                d.w = *w;
                d.l = *l;
                Ok(undo)
            }
            Edit::Rewire { device, term, net } => {
                self.check_device(*device)?;
                self.check_net(*net)?;
                let old = self.netlist.rewire(*device, *term, *net);
                Ok(UndoAction::Rewire {
                    device: *device,
                    term: *term,
                    net: old,
                })
            }
        }
    }
}

/// The session's geometry gate: the [`valid_geometry`] rule every
/// loader and `ir::validate` apply, as an edit error.
fn check_geometry(w: f64, l: f64) -> Result<(), String> {
    if valid_geometry(w, l) {
        Ok(())
    } else {
        Err(format!(
            "device geometry must be positive and finite, got w={w:?} l={l:?}"
        ))
    }
}

fn parse_net_kind(name: &str) -> Result<NetKind, String> {
    Ok(match name {
        "signal" => NetKind::Signal,
        "power" => NetKind::Power,
        "ground" => NetKind::Ground,
        "input" => NetKind::Input,
        "output" => NetKind::Output,
        "inout" => NetKind::Inout,
        "clock" => NetKind::Clock,
        other => return Err(format!("unknown net kind {other:?}")),
    })
}

fn parse_mos_kind(name: &str) -> Result<MosKind, String> {
    Ok(match name {
        "nmos" => MosKind::Nmos,
        "pmos" => MosKind::Pmos,
        other => return Err(format!("unknown device kind {other:?}")),
    })
}

fn net_kind_name(kind: NetKind) -> &'static str {
    match kind {
        NetKind::Signal => "signal",
        NetKind::Power => "power",
        NetKind::Ground => "ground",
        NetKind::Input => "input",
        NetKind::Output => "output",
        NetKind::Inout => "inout",
        NetKind::Clock => "clock",
    }
}

fn mos_kind_name(kind: MosKind) -> &'static str {
    match kind {
        MosKind::Nmos => "nmos",
        MosKind::Pmos => "pmos",
    }
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
            json_escaped(&net.name),
            net_kind_name(net.kind)
        ),
        Edit::AddDevice(d) => format!(
            "{{\"edit\":\"add-device\",\"name\":{},\"kind\":\"{}\",\
             \"gate\":{},\"drain\":{},\"source\":{},\"bulk\":{},\"w\":{:?},\"l\":{:?}}}",
            json_escaped(&d.name),
            mos_kind_name(d.kind),
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
            mutate::term_name(*term),
            net.index()
        ),
    }
}

/// Parses one edit object off the wire. The `"edit"` field
/// discriminates; `"op"` edits nest the `cbv-mutate` wire encodings.
pub fn edit_from_json(v: &Value) -> Result<Edit, String> {
    match v.req_str("edit")? {
        "op" => Ok(Edit::Op {
            op: mutate::op_from_json(v.req("op")?).map_err(|e| e.to_string())?,
            site: mutate::site_from_json(v.req("site")?).map_err(|e| e.to_string())?,
        }),
        "add-net" => Ok(Edit::AddNet(Box::new(NewNet {
            name: v.req_str("name")?.to_owned(),
            kind: parse_net_kind(v.req_str("kind")?)?,
        }))),
        "add-device" => Ok(Edit::AddDevice(Box::new(NewDevice {
            name: v.req_str("name")?.to_owned(),
            kind: parse_mos_kind(v.req_str("kind")?)?,
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
            term: mutate::parse_term(v.req_str("term")?).map_err(|e| e.to_string())?,
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

    fn process() -> Process {
        Process::strongarm_035()
    }

    /// Structural equality (FlatNetlist has no PartialEq): same device
    /// table and same net table, which is exactly what "exactly
    /// reversible" must restore.
    fn same_netlist(a: &FlatNetlist, b: &FlatNetlist) -> bool {
        a.devices() == b.devices()
            && a.net_count() == b.net_count()
            && a.net_ids()
                .all(|n| a.net_name(n) == b.net_name(n) && a.net_kind(n) == b.net_kind(n))
    }

    #[test]
    fn registry_designs_open_and_unknown_names_fail() {
        for &name in DESIGN_NAMES {
            let s = Session::open(name, &process()).unwrap();
            assert_eq!(s.design(), name);
            assert_eq!(s.revision(), 0);
            assert!(!s.netlist().devices().is_empty(), "{name} is non-trivial");
        }
        assert!(Session::open("no-such-design", &process()).is_err());
    }

    #[test]
    fn batches_are_atomic_and_exactly_reversible() {
        let mut s = Session::open("ripple4", &process()).unwrap();
        let seed = s.netlist().clone();

        let r1 = s
            .apply_batch(&[
                Edit::Op {
                    op: MutationOp::WidthScale { factor: 1.5 },
                    site: Site::Device(DeviceId(0)),
                },
                Edit::Resize {
                    device: DeviceId(1),
                    w: 2e-6,
                    l: 4e-7,
                },
            ])
            .unwrap();
        assert_eq!(r1, 1);
        let rev1 = s.netlist().clone();

        let r2 = s
            .apply_batch(&[Edit::AddNet(Box::new(NewNet {
                name: "scratch".into(),
                kind: NetKind::Signal,
            }))])
            .unwrap();
        assert_eq!(r2, 2);

        // A failing batch leaves the netlist untouched mid-way: the
        // second edit names an out-of-range device, so the first must
        // be reverted.
        let before = s.netlist().clone();
        let err = s
            .apply_batch(&[
                Edit::Resize {
                    device: DeviceId(0),
                    w: 9e-6,
                    l: 9e-7,
                },
                Edit::Rewire {
                    device: DeviceId(10_000),
                    term: Term::Gate,
                    net: NetId(0),
                },
            ])
            .unwrap_err();
        assert!(err.starts_with("edit 1:"), "{err}");
        assert!(
            same_netlist(s.netlist(), &before),
            "failed batch fully reverted"
        );
        assert_eq!(s.revision(), 2);

        assert_eq!(s.rollback_to(1).unwrap(), 1);
        assert!(same_netlist(s.netlist(), &rev1));
        assert_eq!(s.rollback_to(0).unwrap(), 0);
        assert!(
            same_netlist(s.netlist(), &seed),
            "rollback reproduces the seed exactly"
        );
        assert!(s.rollback_to(5).is_err(), "cannot roll forward");
    }

    #[test]
    fn history_is_flat_and_small() {
        assert!(std::mem::size_of::<Edit>() <= 40);
        assert!(std::mem::size_of::<UndoAction>() <= 32);

        // 1,000 one-edit steps: one record per step in each of the two
        // flat vectors plus one boundary, whatever the step count.
        let p = process();
        let mut s = Session::open("ripple2", &p).unwrap();
        let seed = s.netlist().clone();
        let devices = seed.devices().len() as u32;
        let step = |k: u32| Edit::Op {
            op: MutationOp::WidthScale {
                factor: if k.is_multiple_of(2) { 1.02 } else { 0.98 },
            },
            site: Site::Device(DeviceId(k % devices)),
        };
        for k in 0..1000 {
            assert_eq!(s.apply_batch(&[step(k)]).unwrap(), u64::from(k) + 1);
        }
        assert_eq!(
            (s.edits.len(), s.undo.len(), s.ends.len()),
            (1000, 1000, 1000)
        );
        assert!(s.history().zip(0..).all(|(batch, k)| batch == [step(k)]));
        assert!(
            s.history_bytes() <= 100 * 1000,
            "{} bytes for 1,000 one-edit steps",
            s.history_bytes()
        );

        // The flat layout replays and rolls back like the nested one.
        let steps: Vec<Vec<Edit>> = s.history().map(<[Edit]>::to_vec).collect();
        let replayed = Session::replay("ripple2", &SessionSeed::Registry, &steps, &p).unwrap();
        assert!(same_netlist(replayed.netlist(), s.netlist()));
        assert_eq!(s.rollback_to(400).unwrap(), 400);
        assert_eq!((s.edits.len(), s.undo.len()), (400, 400));
        let partial = Session::replay("ripple2", &SessionSeed::Registry, &steps[..400], &p);
        assert!(same_netlist(partial.unwrap().netlist(), s.netlist()));
        assert_eq!(s.rollback_to(0).unwrap(), 0);
        assert!(same_netlist(s.netlist(), &seed));
        assert_eq!(s.history().count(), 0);
    }

    #[test]
    fn wire_edits_parse_and_validate() {
        let op = serde_json::from_str(
            "{\"edit\":\"op\",\"op\":{\"op\":\"width-scale\",\"factor\":1.5},\
             \"site\":{\"site\":\"device\",\"device\":0}}",
        )
        .unwrap();
        assert_eq!(
            edit_from_json(&op).unwrap(),
            Edit::Op {
                op: MutationOp::WidthScale { factor: 1.5 },
                site: Site::Device(DeviceId(0)),
            }
        );
        let batch = serde_json::from_str(
            "[{\"edit\":\"add-net\",\"name\":\"n\",\"kind\":\"signal\"},\
              {\"edit\":\"resize\",\"device\":1,\"w\":1e-6,\"l\":3.5e-7}]",
        )
        .unwrap();
        assert_eq!(edits_from_json(&batch).unwrap().len(), 2);
        for bad in [
            "{\"edit\":\"resize\",\"device\":1,\"w\":\"wide\"}",
            "{\"edit\":\"add-device\",\"name\":\"m\",\"kind\":\"npn\"}",
            "{\"edit\":\"teleport\"}",
            "{}",
        ] {
            let v = serde_json::from_str(bad).unwrap();
            assert!(edit_from_json(&v).is_err(), "{bad} must not parse");
        }
    }

    #[test]
    fn ops_that_leave_bad_geometry_are_rejected_and_reverted() {
        let mut s = Session::open("dcvsl", &process()).unwrap();
        let before = s.netlist().clone();
        let at0 = |op| Edit::Op {
            op,
            site: Site::Device(DeviceId(0)),
        };
        let huge = at0(MutationOp::WidthScale { factor: 1e300 });
        let batches = [
            vec![at0(MutationOp::WidthScale { factor: -1.0 })],
            vec![at0(MutationOp::WidthScale { factor: 0.0 })],
            vec![at0(MutationOp::KeeperResize {
                w_factor: 1.0,
                l_factor: -2.0,
            })],
            // The first edit is still finite; the second overflows.
            vec![huge.clone(), huge],
        ];
        for batch in batches {
            let err = s.apply_batch(&batch).unwrap_err();
            assert!(
                err.contains("geometry must be positive and finite"),
                "{err}"
            );
            assert_eq!(s.revision(), 0, "{batch:?}");
            assert!(same_netlist(s.netlist(), &before), "{batch:?} reverted");
        }
        // A valid op at the same site still applies.
        let ok = at0(MutationOp::WidthScale { factor: 1.25 });
        assert_eq!(s.apply_batch(&[ok]).unwrap(), 1);
    }

    #[test]
    fn hostile_ids_and_geometry_get_errors_not_panics() {
        let mut s = Session::open("dcvsl", &process()).unwrap();
        let cases = vec![
            Edit::Resize {
                device: DeviceId(u32::MAX),
                w: 1e-6,
                l: 1e-7,
            },
            Edit::Resize {
                device: DeviceId(0),
                w: -1.0,
                l: 1e-7,
            },
            Edit::Rewire {
                device: DeviceId(0),
                term: Term::Gate,
                net: NetId(u32::MAX),
            },
            Edit::AddDevice(Box::new(NewDevice {
                name: "m".into(),
                kind: MosKind::Nmos,
                gate: NetId(u32::MAX),
                drain: NetId(0),
                source: NetId(0),
                bulk: NetId(0),
                w: 1e-6,
                l: 1e-7,
            })),
            Edit::Op {
                op: MutationOp::KeeperDelete,
                site: Site::Device(DeviceId(u32::MAX)),
            },
            Edit::Op {
                // Valid nets, inapplicable op (a bridge needs two
                // distinct endpoints).
                op: MutationOp::NetBridge,
                site: Site::Bridge(NetId(0), NetId(0)),
            },
        ];
        let before = s.netlist().clone();
        for edit in cases {
            assert!(
                s.apply_batch(std::slice::from_ref(&edit)).is_err(),
                "{edit:?}"
            );
        }
        assert!(same_netlist(s.netlist(), &before));
        assert_eq!(s.revision(), 0);
    }

    #[test]
    fn spice_upload_round_trips_through_session() {
        let deck = "\
* tiny inverter
.SUBCKT INV IN OUT VDD VSS
MP OUT IN VDD VDD PMOS W=2u L=0.35u
MN OUT IN VSS VSS NMOS W=1u L=0.35u
.ENDS
";
        let s = Session::from_spice("mine", deck, "INV").unwrap();
        assert_eq!(s.design(), "mine");
        assert_eq!(s.netlist().devices().len(), 2);
        assert!(Session::from_spice("mine", deck, "MISSING").is_err());
        assert!(Session::from_spice("mine", "not spice .ends", "X").is_err());
    }
}
