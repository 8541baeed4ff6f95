//! Sessions: named design seeds and an exactly-reversible revision
//! history.
//!
//! A session is one client's private working copy of a design. It is
//! seeded either from the **registry** of `cbv-gen` generators
//! ([`design_from_name`]) or from an uploaded SPICE deck
//! ([`Session::from_spice`]), and then advances one **revision** per
//! accepted ECO batch of [`Edit`]s. Every edit keeps the exact inverse
//! [`Edit::apply`] returns, so [`Session::rollback_to`] reproduces any
//! earlier revision's netlist *exactly* — same device order, same net
//! table — which makes a rollback-then-reverify hit the verification
//! cache the original revision primed.
//!
//! Batches are atomic: if edit *k* of a batch fails validation, edits
//! `0..k` are reverted and the revision counter does not move.

use cbv_core::gen;
use cbv_core::mutate::{Edit, UndoRecord};
use cbv_core::netlist::{spice, FlatNetlist};
use cbv_core::tech::Process;

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
    undo: Vec<UndoRecord>,
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
            + self.undo.capacity() * std::mem::size_of::<UndoRecord>()
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
            match edit.apply(&mut self.netlist) {
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_core::mutate::{edit_from_json, edits_from_json, MutationOp, NewDevice, NewNet, Site};
    use cbv_core::netlist::{DeviceId, NetId, NetKind, Term};
    use cbv_core::tech::MosKind;

    fn process() -> Process {
        Process::strongarm_035()
    }

    /// Structural equality: same device table and same net table, which
    /// is exactly what "exactly reversible" must restore (a reverted
    /// rewire re-appends its net use, so use-list order may differ).
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

        let scratch = NetId(seed.net_count() as u32);
        let r2 = s
            .apply_batch(&[
                Edit::AddNet(Box::new(NewNet {
                    name: "scratch".into(),
                    kind: NetKind::Signal,
                })),
                Edit::AddDevice(Box::new(NewDevice {
                    name: "mscratch".into(),
                    kind: MosKind::Nmos,
                    gate: scratch,
                    drain: NetId(1),
                    source: NetId(2),
                    bulk: NetId(3),
                    w: 1e-6,
                    l: 3.5e-7,
                })),
                Edit::Rewire {
                    device: DeviceId(2),
                    term: Term::Gate,
                    net: scratch,
                },
            ])
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
        assert!(std::mem::size_of::<UndoRecord>() <= 32);

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
        // `Edit::apply` owns the per-edit geometry gate; here a batch
        // whose second edit overflows to infinity is reverted whole.
        let mut s = Session::open("dcvsl", &process()).unwrap();
        let before = s.netlist().clone();
        let at0 = |factor| Edit::Op {
            op: MutationOp::WidthScale { factor },
            site: Site::Device(DeviceId(0)),
        };
        let err = s.apply_batch(&[at0(1e300), at0(1e300)]).unwrap_err();
        assert!(err.starts_with("edit 1:"), "{err}");
        assert!(err.contains("geometry must be positive and finite"));
        assert_eq!(s.revision(), 0);
        assert!(same_netlist(s.netlist(), &before));
        // A valid op at the same site still applies.
        assert_eq!(s.apply_batch(&[at0(1.25)]).unwrap(), 1);
    }

    #[test]
    fn hostile_ids_and_geometry_get_errors_not_panics() {
        // `Edit::apply` rejects every hostile id and geometry; at the
        // session each is an error, and the revision stays put.
        let mut s = Session::open("dcvsl", &process()).unwrap();
        let before = s.netlist().clone();
        for edit in [
            Edit::Resize {
                device: DeviceId(u32::MAX),
                w: 1e-6,
                l: 1e-7,
            },
            Edit::Rewire {
                device: DeviceId(0),
                term: Term::Gate,
                net: NetId(u32::MAX),
            },
        ] {
            let err = s.apply_batch(std::slice::from_ref(&edit));
            assert!(err.is_err(), "{edit:?}");
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
