//! Content and environment fingerprints for verification units.
//!
//! The incremental CBV flow skips re-verifying a unit when its
//! fingerprint matches a cached result. Two hashes guard each unit:
//!
//! * **content** — an id-invariant FNV-1a digest of everything the
//!   unit's checks and timing arcs can read: member devices (key, kind,
//!   size, canonically-keyed connectivity), boundary nets with their
//!   kinds and recognized roles, the recognized logic family, which of
//!   its nets are clocks, the sizes of the gates its dynamic outputs
//!   drive, touching state elements, touching passives, and the
//!   extracted parasitics of the nets the unit owns. Per-element digests
//!   are sorted before folding, so reordering devices or nets of an
//!   unchanged design leaves the content hash untouched (a reorder among
//!   a dynamic output's receivers excepted: their sum is taken in device
//!   order).
//! * **binding** — an id-*sensitive* digest of the raw ids and names the
//!   cached payload mentions. Cached findings and arcs store concrete
//!   [`NetId`]s/[`DeviceId`]s; replaying them is only valid when those
//!   ids still mean the same elements, so a hit requires both hashes to
//!   match. An id shift (e.g. a device inserted elsewhere) flips the
//!   binding hash and degrades to a conservative miss — never a false
//!   hit.
//!
//! The environment fingerprint folds in everything results depend on
//! besides the design itself: process, corner tolerances, pessimism,
//! the electrical-check configuration, and the tool version. Any knob
//! change invalidates the whole cache, exactly like a compiler flag
//! change invalidating an object cache.

use std::fmt::Debug;
use std::sync::Arc;

use cbv_everify::EverifyConfig;
use cbv_extract::Extracted;
use cbv_netlist::canon::{fnv1a, FNV_OFFSET};
use cbv_netlist::{CanonicalKeys, DeviceId, FlatNetlist, NetId, NetUse};
use cbv_recognize::Recognition;
use cbv_tech::{Process, Tolerance};
use cbv_timing::Pessimism;

/// Folds one `u64` into an FNV accumulator.
#[inline]
fn fold_u64(hash: u64, v: u64) -> u64 {
    fnv1a(hash, &v.to_le_bytes())
}

/// Folds one `f64` into an FNV accumulator, bit-exactly.
#[inline]
fn fold_f64(hash: u64, v: f64) -> u64 {
    fold_u64(hash, v.to_bits())
}

/// Folds a value's `Debug` rendering (used for plain enums and config
/// structs whose derived format is stable and id-free).
fn fold_debug(hash: u64, v: &impl Debug) -> u64 {
    fnv1a(hash, format!("{v:?}").as_bytes())
}

/// Sorts element digests and folds them, making the combination
/// invariant under element enumeration order.
fn fold_sorted(hash: u64, mut parts: Vec<u64>) -> u64 {
    parts.sort_unstable();
    parts.iter().fold(hash, |h, &p| fold_u64(h, p))
}

/// Fingerprint pair guarding one verification unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct UnitFingerprint {
    /// Id-invariant content digest.
    pub content: u64,
    /// Id-sensitive binding digest (payload replay validity).
    pub binding: u64,
}

/// Fingerprints for every verification unit of one design: one per CCC
/// in CCC order, then the whole-design residue unit last (mirroring
/// `cbv_everify::CheckScope::partition`).
#[derive(Debug, Clone)]
pub struct DesignFingerprints {
    /// Per-unit fingerprints; `units.len() == cccs + 1`.
    pub units: Vec<UnitFingerprint>,
    /// The canonical keys the units were folded under. A sizing splice
    /// keeps every name and id, so it folds under the same keys.
    keys: Arc<CanonicalKeys>,
    /// The residue's digest of each net no CCC owns, in net order. A
    /// splice re-digests only the nets extraction redid.
    unowned: Vec<u64>,
}

impl DesignFingerprints {
    /// Number of CCC units (excludes the residue unit).
    pub fn ccc_count(&self) -> usize {
        self.units.len() - 1
    }

    /// The residue (whole-design) unit's fingerprint.
    pub fn residue(&self) -> UnitFingerprint {
        *self.units.last().expect("at least the residue unit")
    }
}

/// Digest of one extracted net as the checks and delay model read it:
/// ground/gate/diffusion capacitance, the coupling list (aggressors by
/// canonical key), and the wire RC term the Elmore model uses.
fn parasitic_digest(extracted: &Extracted, keys: &CanonicalKeys, net: NetId) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"par");
    h = fold_u64(h, keys.net(net));
    let Some(en) = extracted.net(net) else {
        return fold_u64(h, 0);
    };
    h = fold_f64(h, en.wire_cap.farads());
    h = fold_f64(h, en.gate_cap.farads());
    h = fold_f64(h, en.gate_cap_bounds.0.farads());
    h = fold_f64(h, en.gate_cap_bounds.1.farads());
    h = fold_f64(h, en.diff_cap.farads());
    let couplings: Vec<u64> = en
        .couplings
        .iter()
        .map(|&(other, c)| {
            let mut ch = fold_u64(FNV_OFFSET, keys.net(other));
            ch = fold_f64(ch, c.farads());
            ch
        })
        .collect();
    h = fold_sorted(h, couplings);
    h = fold_u64(h, en.rc.node_count() as u64);
    if en.rc.node_count() > 1 {
        if let Some(t) = en
            .rc
            .elmore(en.rc.first_node(), en.rc.last_node(), cbv_tech::Ohms::ZERO)
        {
            h = fold_f64(h, t.seconds());
        }
    }
    h
}

/// Digest of one net's identity-independent facts: canonical key,
/// declared kind, recognized role.
fn net_digest(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    keys: &CanonicalKeys,
    net: NetId,
) -> u64 {
    let mut h = fold_u64(FNV_OFFSET, keys.net(net));
    h = fold_debug(h, &netlist.net_kind(net));
    fold_debug(h, &recognition.role(net))
}

/// Digest of one device: its canonical key, polarity, drawn geometry,
/// finger count, and the canonical identity plus kind/role of each
/// terminal net. The key keeps two devices on the same nets apart, so
/// swapping their sizes misses: device findings name the device.
fn device_digest(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    keys: &CanonicalKeys,
    id: DeviceId,
) -> u64 {
    let d = netlist.device(id);
    let mut h = fold_u64(fnv1a(FNV_OFFSET, b"dev"), keys.device(id));
    h = fold_debug(h, &d.kind);
    h = fold_f64(h, d.w);
    h = fold_f64(h, d.l);
    h = fold_u64(h, d.fingers as u64);
    for net in [d.gate, d.source, d.drain, d.bulk] {
        h = fold_u64(h, net_digest(netlist, recognition, keys, net));
    }
    h
}

/// Digest of one state element: kind, storage and clock nets by
/// canonical key, and per member CCC a representative key and its
/// outputs (so loop membership changes register even when the storage
/// nets survive; the arcs' same-element test reads the outputs).
fn state_element_digest(
    recognition: &Recognition,
    keys: &CanonicalKeys,
    se: &cbv_recognize::StateElement,
) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"se");
    h = fold_debug(h, &se.kind);
    h = fold_sorted(h, se.storage_nets.iter().map(|&n| keys.net(n)).collect());
    h = fold_sorted(h, se.clocks.iter().map(|&n| keys.net(n)).collect());
    let members: Vec<u64> = se
        .cccs
        .iter()
        .map(|&ci| {
            let ccc = &recognition.cccs[ci.index()];
            let rep = ccc.devices.iter().map(|&d| keys.device(d)).min();
            let outputs = ccc.outputs.iter().map(|&n| keys.net(n)).collect();
            fold_sorted(fold_u64(FNV_OFFSET, rep.unwrap_or(0)), outputs)
        })
        .collect();
    fold_sorted(h, members)
}

/// Digest of one passive: kind, value, canonically-keyed terminals.
fn passive_digest(keys: &CanonicalKeys, p: &cbv_netlist::Passive) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, b"pas");
    h = fold_debug(h, &p.kind);
    h = fold_f64(h, p.value);
    fold_sorted(h, vec![keys.net(p.a), keys.net(p.b)])
}

/// Computes the fingerprint of every verification unit.
///
/// Unit `i < cccs` guards CCC `i`; the last unit guards the residue
/// scope. The residue content hash folds every CCC's content hash (plus
/// the unowned nets, state elements and stray passives), so *any*
/// design change dirties it — correct, because its checks (latch
/// writability, antenna) read global structure.
pub fn fingerprint_design(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
) -> DesignFingerprints {
    fold_units(netlist, recognition, extracted, None)
}

impl DesignFingerprints {
    /// The fingerprints of a design after a sizing edit, spliced from
    /// `self`, the design's fingerprints before it. The edit changed
    /// only the `w`/`l` of the `resized` devices, `recognition` is the
    /// one `self` was folded over, and `extracted` differs from the
    /// extraction before the edit only on the `reextracted` nets.
    ///
    /// Names, ids, topology, passives and recognition are then all
    /// unchanged, so no binding moves, and a CCC unit's content reads
    /// something new only when the CCC holds a resized device (the
    /// device digest folds `w` and `l`), drives a resized device's gate
    /// (a dynamic output folds its receivers' sizes) or one of its
    /// channel nets was re-extracted (their parasitics are folded in).
    /// Those units are re-folded, every other one is copied, and the
    /// residue's content is re-folded from the unit contents and the
    /// unowned nets, of which only those re-extracted (or on a resized
    /// gate) are digested again. The canonical keys are `self`'s. Equal
    /// to [`fingerprint_design`] over the edited design; returns the
    /// fingerprints and the number of CCC units re-folded.
    pub fn spliced(
        &self,
        netlist: &FlatNetlist,
        recognition: &Recognition,
        extracted: &Extracted,
        resized: &[DeviceId],
        reextracted: &[NetId],
    ) -> (DesignFingerprints, usize) {
        debug_assert_eq!(self.ccc_count(), recognition.cccs.len());
        let mut touched_device = vec![false; netlist.devices().len()];
        let mut touched_net = vec![false; netlist.net_count()];
        for &d in resized {
            touched_device[d.index()] = true;
            // A dynamic output folds the sizes of the gates it drives.
            touched_net[netlist.device(d).gate.index()] = true;
        }
        for &n in reextracted {
            touched_net[n.index()] = true;
        }
        let stale: Vec<bool> = recognition
            .cccs
            .iter()
            .map(|ccc| {
                ccc.devices.iter().any(|d| touched_device[d.index()])
                    || ccc.channel_nets.iter().any(|n| touched_net[n.index()])
            })
            .collect();
        let refolded = stale.iter().filter(|&&s| s).count();
        let base = Base {
            fps: self,
            stale,
            redone: touched_net,
        };
        let fps = fold_units(netlist, recognition, extracted, Some(base));
        (fps, refolded)
    }
}

/// What a spliced fold reuses: the fingerprints before the edit, the
/// CCC units to re-fold, and the nets extraction redid.
struct Base<'a> {
    fps: &'a DesignFingerprints,
    stale: Vec<bool>,
    redone: Vec<bool>,
}

/// The one fold behind [`fingerprint_design`] and
/// [`DesignFingerprints::spliced`]. Without a base every unit is folded.
/// With one, CCC unit `i` is folded only when `stale[i]` and copied
/// from the base otherwise, under the base's canonical keys; the
/// residue's content is folded either way, over the base's digests of
/// the unowned nets extraction did not redo, and its binding copied
/// from the base.
fn fold_units(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    base: Option<Base>,
) -> DesignFingerprints {
    let keys = base.as_ref().map_or_else(
        || Arc::new(CanonicalKeys::new(netlist)),
        |base| Arc::clone(&base.fps.keys),
    );
    let se_digests: Vec<u64> = recognition
        .state_elements
        .iter()
        .map(|se| state_element_digest(recognition, &keys, se))
        .collect();
    let mut clocks = vec![false; netlist.net_count()];
    for &n in &recognition.clock_nets {
        clocks[n.index()] = true;
    }
    let mut units: Vec<UnitFingerprint> = (0..recognition.cccs.len())
        .map(|i| match &base {
            Some(base) if !base.stale[i] => base.fps.units[i],
            _ => UnitFingerprint {
                content: ccc_content(
                    netlist,
                    recognition,
                    extracted,
                    &keys,
                    &se_digests,
                    &clocks,
                    i,
                ),
                binding: base.as_ref().map_or_else(
                    || ccc_binding(netlist, recognition, i),
                    |base| base.fps.units[i].binding,
                ),
            },
        })
        .collect();
    let reuse = base
        .as_ref()
        .map(|base| (&base.fps.unowned[..], &base.redone[..]));
    let (content, unowned) = residue_content(
        netlist,
        recognition,
        extracted,
        &keys,
        se_digests,
        &units,
        reuse,
    );
    let binding = match &base {
        Some(base) => base.fps.residue().binding,
        None => residue_binding(netlist),
    };
    units.push(UnitFingerprint { content, binding });
    DesignFingerprints {
        units,
        keys,
        unowned,
    }
}

/// Content digest of CCC unit `i`: its devices, boundary nets, class,
/// touching state elements and passives, and its owned nets'
/// parasitics. `se_digests` holds every state element's digest, and
/// `clocks` marks every clock net.
fn ccc_content(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    keys: &CanonicalKeys,
    se_digests: &[u64],
    clocks: &[bool],
    i: usize,
) -> u64 {
    let ccc = &recognition.cccs[i];
    let class = &recognition.classes[i];
    let mut content = fnv1a(FNV_OFFSET, b"ccc");
    content = fold_sorted(
        content,
        ccc.devices
            .iter()
            .map(|&d| device_digest(netlist, recognition, keys, d))
            .collect(),
    );
    content = fold_sorted(
        content,
        ccc.channel_nets
            .iter()
            .chain(&ccc.inputs)
            .map(|&n| net_digest(netlist, recognition, keys, n))
            .collect(),
    );
    content = fold_sorted(content, ccc.outputs.iter().map(|&n| keys.net(n)).collect());
    // Recognized class: family plus which outputs are dynamic. Then
    // which of the unit's nets are clocks: its inputs (the class's
    // clock inputs) and its channel nets (the arcs skip an output that
    // is a clock, and a storage net's role hides that it is one).
    content = fold_debug(content, &class.family);
    content = fold_sorted(
        content,
        class.dynamic_outputs.iter().map(|&n| keys.net(n)).collect(),
    );
    content = fold_sorted(
        content,
        ccc.inputs
            .iter()
            .chain(&ccc.channel_nets)
            .filter(|n| clocks[n.index()])
            .map(|&n| keys.net(n))
            .collect(),
    );
    // The gates each dynamic output drives — devices of other CCCs —
    // in device order, the order charge sharing sums their capacitance
    // in: a reorder among them misses rather than replay a sum rounded
    // differently.
    content = fold_sorted(
        content,
        class
            .dynamic_outputs
            .iter()
            .map(|&n| receivers_digest(netlist, keys, n))
            .collect(),
    );
    // State elements storing on a net this unit touches (keeper
    // detection, same-element arc suppression).
    let touching: Vec<u64> = recognition
        .state_elements
        .iter()
        .zip(se_digests)
        .filter(|(se, _)| {
            se.cccs.iter().any(|&ci| ci.index() == i)
                || se
                    .storage_nets
                    .iter()
                    .any(|&sn| ccc.channel_nets.contains(&sn) || ccc.inputs.contains(&sn))
        })
        .map(|(_, &d)| d)
        .collect();
    content = fold_sorted(content, touching);
    // Passives on owned nets (they shape CCC outputs and loading).
    let passives: Vec<u64> = netlist
        .passives()
        .iter()
        .filter(|p| ccc.channel_nets.contains(&p.a) || ccc.channel_nets.contains(&p.b))
        .map(|p| passive_digest(keys, p))
        .collect();
    content = fold_sorted(content, passives);
    // Parasitics of the owned nets — the only extraction data the
    // unit's checks and arcs read.
    fold_sorted(
        content,
        ccc.channel_nets
            .iter()
            .map(|&net| parasitic_digest(extracted, keys, net))
            .collect(),
    )
}

/// Digest of the gates on `net`: the kind, `w` and `l` of each device
/// whose gate it is, in device order.
fn receivers_digest(netlist: &FlatNetlist, keys: &CanonicalKeys, net: NetId) -> u64 {
    let mut gates: Vec<DeviceId> = netlist
        .net_uses(net)
        .iter()
        .filter_map(|u| match u {
            NetUse::Gate(d) => Some(*d),
            _ => None,
        })
        .collect();
    gates.sort_unstable();
    gates
        .iter()
        .fold(fold_u64(FNV_OFFSET, keys.net(net)), |h, &d| {
            let d = netlist.device(d);
            fold_f64(fold_f64(fold_debug(h, &d.kind), d.w), d.l)
        })
}

/// Binding digest of CCC unit `i`: raw ids and names, in order, plus
/// the unit's own CCC index (cached arcs carry it).
fn ccc_binding(netlist: &FlatNetlist, recognition: &Recognition, i: usize) -> u64 {
    let ccc = &recognition.cccs[i];
    let mut binding = fold_u64(fnv1a(FNV_OFFSET, b"bind"), i as u64);
    for &d in &ccc.devices {
        binding = fold_u64(binding, d.index() as u64);
        binding = fnv1a(binding, netlist.device(d).name.as_bytes());
    }
    for &net in ccc
        .channel_nets
        .iter()
        .chain(&ccc.inputs)
        .chain(&ccc.outputs)
    {
        binding = fold_u64(binding, net.index() as u64);
        binding = fnv1a(binding, netlist.net_name(net).as_bytes());
    }
    binding
}

/// Content digest of the residue unit: every CCC unit's content hash,
/// the unowned nets with their parasitics, every state element and the
/// passives on no owned net. Returns it with the unowned nets' digests,
/// in net order. With `reuse`, the digests of a splice's base and the
/// nets its extraction redid, an unowned net that was not redone takes
/// its digest from the base's.
fn residue_content(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    keys: &CanonicalKeys,
    se_digests: Vec<u64>,
    units: &[UnitFingerprint],
    reuse: Option<(&[u64], &[bool])>,
) -> (u64, Vec<u64>) {
    let mut owned = vec![false; netlist.net_count()];
    for ccc in &recognition.cccs {
        for &net in &ccc.channel_nets {
            owned[net.index()] = true;
        }
    }
    let unowned: Vec<u64> = netlist
        .net_ids()
        .filter(|n| !owned[n.index()])
        .enumerate()
        .map(|(k, n)| match reuse {
            Some((digests, redone)) if !redone[n.index()] => digests[k],
            _ => fold_u64(
                net_digest(netlist, recognition, keys, n),
                parasitic_digest(extracted, keys, n),
            ),
        })
        .collect();
    let mut content = fnv1a(FNV_OFFSET, b"residue");
    content = fold_sorted(content, units.iter().map(|u| u.content).collect());
    content = fold_sorted(content, unowned.clone());
    content = fold_sorted(content, se_digests);
    let content = fold_sorted(
        content,
        netlist
            .passives()
            .iter()
            .filter(|p| !owned[p.a.index()] && !owned[p.b.index()])
            .map(|p| passive_digest(keys, p))
            .collect(),
    );
    (content, unowned)
}

/// Binding digest of the residue unit: the whole netlist's ids, names
/// and net kinds (its payload may reference any id).
fn residue_binding(netlist: &FlatNetlist) -> u64 {
    let mut binding = fnv1a(FNV_OFFSET, b"bind-all");
    for net in netlist.net_ids() {
        binding = fold_u64(binding, net.index() as u64);
        binding = fnv1a(binding, netlist.net_name(net).as_bytes());
        binding = fold_debug(binding, &netlist.net_kind(net));
    }
    for (i, d) in netlist.devices().iter().enumerate() {
        binding = fold_u64(binding, i as u64);
        binding = fnv1a(binding, d.name.as_bytes());
    }
    binding
}

/// Exact digest of a raw (pre-recognition) netlist: the content
/// address for sharing serial-prep artifacts across coordinator
/// streams.
///
/// Unlike the unit fingerprints (id-invariant, computed *after*
/// recognition and extraction), this digest must be available before
/// any prep runs, so it is deliberately id- and order-sensitive: it
/// folds every net, device and passive in element order, names and
/// lengths included. Identically-constructed revisions collide (the
/// point); everything else — including reorderings — degrades to a
/// miss, never a false hit beyond the 64-bit collision floor the unit
/// fingerprints already accept.
pub fn raw_netlist_digest(netlist: &FlatNetlist) -> u64 {
    let fold_str = |h: u64, s: &str| fnv1a(fold_u64(h, s.len() as u64), s.as_bytes());
    let mut h = fnv1a(FNV_OFFSET, b"rawnl");
    h = fold_str(h, netlist.name());
    h = fold_u64(h, netlist.net_count() as u64);
    for i in 0..netlist.net_count() {
        let id = NetId(i as u32);
        h = fold_str(h, netlist.net_name(id));
        h = fold_debug(h, &netlist.net_kind(id));
    }
    h = fold_u64(h, netlist.devices().len() as u64);
    for d in netlist.devices() {
        h = fold_str(h, &d.name);
        h = fold_debug(h, &d.kind);
        for t in [d.gate, d.source, d.drain, d.bulk] {
            h = fold_u64(h, t.0 as u64);
        }
        h = fold_f64(h, d.w);
        h = fold_f64(h, d.l);
        h = fold_u64(h, d.fingers as u64);
    }
    h = fold_u64(h, netlist.passives().len() as u64);
    for p in netlist.passives() {
        h = fold_str(h, &p.name);
        h = fold_debug(h, &p.kind);
        h = fold_u64(h, p.a.0 as u64);
        h = fold_u64(h, p.b.0 as u64);
        h = fold_f64(h, p.value);
    }
    h
}

/// Fingerprints the verification environment: everything a cached
/// result depends on besides the design. Includes the crate version so
/// model changes across tool releases invalidate stale caches.
pub fn env_fingerprint(
    process: &Process,
    tolerance: &Tolerance,
    pessimism: &Pessimism,
    config: &EverifyConfig,
) -> u64 {
    let mut h = fnv1a(FNV_OFFSET, env!("CARGO_PKG_VERSION").as_bytes());
    h = fold_debug(h, process);
    h = fold_debug(h, tolerance);
    h = fold_debug(h, pessimism);
    fold_debug(h, config)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::MosKind;

    fn chain(order: &[usize]) -> FlatNetlist {
        // Three inverters appended in `order` permutation.
        let mut f = FlatNetlist::new("chain");
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let a = f.add_net("a", NetKind::Input);
        let n0 = f.add_net("n0", NetKind::Signal);
        let n1 = f.add_net("n1", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        let stages = [(a, n0), (n0, n1), (n1, y)];
        for &i in order {
            let (inp, out) = stages[i];
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("p{i}"),
                inp,
                out,
                vdd,
                vdd,
                5.6e-6,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("n{i}"),
                inp,
                out,
                gnd,
                gnd,
                2.4e-6,
                0.35e-6,
            ));
        }
        f
    }

    fn prints(f: &mut FlatNetlist) -> DesignFingerprints {
        let rec = recognize(f);
        fingerprint_design(f, &rec, &Extracted::default())
    }

    #[test]
    fn raw_digest_is_exact_and_order_sensitive() {
        let a = chain(&[0, 1, 2]);
        let b = chain(&[0, 1, 2]);
        assert_eq!(
            raw_netlist_digest(&a),
            raw_netlist_digest(&b),
            "identical construction must collide"
        );
        // Unlike the unit fingerprints, element order matters here: a
        // reorder is a different construction and must degrade to a
        // prep-cache miss, never a false hit.
        let c = chain(&[2, 0, 1]);
        assert_ne!(raw_netlist_digest(&a), raw_netlist_digest(&c));
        // Any geometry change misses.
        let mut d = chain(&[0, 1, 2]);
        d.device_mut(cbv_netlist::DeviceId(0)).w *= 1.25;
        assert_ne!(raw_netlist_digest(&a), raw_netlist_digest(&d));
        // So does a net-kind change with identical structure.
        let mut e = chain(&[0, 1, 2]);
        e.set_net_kind(cbv_netlist::NetId(3), NetKind::Clock);
        assert_ne!(raw_netlist_digest(&a), raw_netlist_digest(&e));
    }

    #[test]
    fn content_invariant_under_device_reorder() {
        let mut a = chain(&[0, 1, 2]);
        let mut b = chain(&[2, 0, 1]);
        let fa = prints(&mut a);
        let fb = prints(&mut b);
        let sorted = |f: &DesignFingerprints| {
            let mut v: Vec<u64> = f.units.iter().map(|u| u.content).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(sorted(&fa), sorted(&fb), "content hashes are id-free");
        assert_eq!(fa.residue().content, fb.residue().content);
        // Bindings are id-sensitive by design: the reordered build MUST
        // differ (conservative miss).
        let ba: Vec<u64> = fa.units.iter().map(|u| u.binding).collect();
        let bb: Vec<u64> = fb.units.iter().map(|u| u.binding).collect();
        assert_ne!(ba, bb);
    }

    #[test]
    fn size_edit_dirties_owner_and_residue_only() {
        let mut a = chain(&[0, 1, 2]);
        let fa = prints(&mut a);
        let mut b = chain(&[0, 1, 2]);
        // Widen one device of the middle inverter.
        let id = b
            .devices()
            .iter()
            .position(|d| d.name == "p1")
            .map(|i| cbv_netlist::DeviceId(i as u32))
            .unwrap();
        b.device_mut(id).w *= 2.0;
        let fb = prints(&mut b);
        assert_eq!(fa.units.len(), fb.units.len());
        let changed: Vec<usize> = (0..fa.units.len())
            .filter(|&i| fa.units[i].content != fb.units[i].content)
            .collect();
        // Exactly the owning CCC and the residue change.
        assert_eq!(changed.len(), 2);
        assert_eq!(changed[1], fa.units.len() - 1, "residue always dirties");
    }

    #[test]
    fn swapping_the_sizes_of_parallel_devices_rekeys_their_unit() {
        // A second NMOS beside `n0`, on the same four nets: swapping the
        // two lengths leaves the multiset of kinds, sizes and terminals
        // as it was, but device findings name the device.
        let build = |l_n0: f64, l_twin: f64| {
            let mut f = chain(&[0, 1, 2]);
            let n0 = f.devices()[1].clone();
            f.device_mut(DeviceId(1)).l = l_n0;
            f.add_device(Device::mos(
                n0.kind, "n0_twin", n0.gate, n0.drain, n0.source, n0.bulk, n0.w, l_twin,
            ));
            f
        };
        let (short, long) = (0.3e-6, 0.35e-6);
        let mut a = build(short, long);
        let mut b = build(long, short);
        let owner = recognize(&a).device_ccc[1].index();
        assert_ne!(prints(&mut a).units[owner], prints(&mut b).units[owner]);
    }

    #[test]
    fn parasitics_enter_the_fingerprint() {
        let process = cbv_tech::Process::strongarm_035();
        let a = chain(&[0, 1, 2]);
        let layout = synthesize(&a, &process);
        let ex = cbv_extract::extract(&layout, &a, &process);
        let rec = recognize(&a);
        let with = fingerprint_design(&a, &rec, &ex);
        let without = fingerprint_design(&a, &rec, &Extracted::default());
        assert_ne!(
            with.units[0].content, without.units[0].content,
            "extraction data must be part of the content hash"
        );
    }

    /// Seeded resizes of alu8, man8 and ripple8, each design's
    /// fingerprints spliced from the ones before the edit: equal to a
    /// full fingerprint of the edited design on every step. Every third
    /// resize hits a device on a rail and every third one a device in a
    /// state element's (keeper or latch) CCC; half scale `w`, half `l`.
    /// Each step splices three times: over the nets the spliced
    /// extraction redid, over only those whose extraction actually
    /// changed, and over no extraction at all — the last two are the
    /// least the contract allows, and in the last a resized device's CCC
    /// is reached through the device alone.
    #[test]
    fn spliced_fingerprints_equal_full_ones_over_seeded_resizes() {
        use cbv_extract::{extract, extract_spliced, ShapeIndex};
        use cbv_gen::adders::{manchester_domino_adder, static_ripple_adder};
        use cbv_gen::datapath::alu_slice;

        let p = Process::strongarm_035();
        let (mut on_rail, mut in_state) = (0, 0);
        for design in [
            alu_slice(8, &p),
            manchester_domino_adder(8, &p),
            static_ripple_adder(8, &p),
        ] {
            let mut netlist = design.netlist;
            let rec = recognize(&netlist);
            let rails: Vec<DeviceId> = (0..netlist.devices().len() as u32)
                .map(DeviceId)
                .filter(|&d| {
                    let dev = netlist.device(d);
                    [dev.source, dev.drain]
                        .iter()
                        .any(|&n| netlist.net_kind(n).is_rail())
                })
                .collect();
            let stateful: Vec<DeviceId> = rec
                .state_elements
                .iter()
                .flat_map(|se| &se.cccs)
                .flat_map(|ci| &rec.cccs[ci.index()].devices)
                .copied()
                .collect();
            let mut layout = synthesize(&netlist, &p);
            let mut index = ShapeIndex::new(&layout, netlist.net_count(), &p);
            let mut extracted = index.extract(&layout, &netlist, &p);
            let mut fps = fingerprint_design(&netlist, &rec, &extracted);
            let bare = Extracted::default();
            let mut bare_fps = fingerprint_design(&netlist, &rec, &bare);
            let (mut refolded, mut splices) = (0, 0);
            let mut seed = 0x9E37_79B9_7F4A_7C15u64;
            for step in 0..24 {
                seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
                let pick = (seed >> 33) as usize;
                let d = match step % 3 {
                    0 => rails[pick % rails.len()],
                    1 if !stateful.is_empty() => stateful[pick % stateful.len()],
                    _ => DeviceId((pick % netlist.devices().len()) as u32),
                };
                on_rail += usize::from(rails.contains(&d));
                in_state += usize::from(stateful.contains(&d));
                let factor = if step % 4 < 2 { 0.97 } else { 1.02 };
                if step % 2 == 0 {
                    netlist.device_mut(d).w *= factor;
                } else {
                    netlist.device_mut(d).l *= factor;
                }

                let patched = layout.resized(&netlist, &p);
                let next = synthesize(&netlist, &p);
                let full = extract(&next, &netlist, &p);
                let rec_full = recognize(&netlist);
                let want = fingerprint_design(&netlist, &rec_full, &full);
                let bare_want = fingerprint_design(&netlist, &rec_full, &bare);
                let (got, _) = bare_fps.spliced(&netlist, &rec, &bare, &[d], &[]);
                assert_eq!(
                    got.units,
                    bare_want.units,
                    "{} step {step}: fingerprints spliced over no extraction differ",
                    netlist.name()
                );
                bare_fps = bare_want;
                let before = extracted.clone();
                let spliced = patched.and_then(|(_, diff)| {
                    extract_spliced(extracted, index, &diff, &next, &netlist, &p, &[d])
                });
                let Some(spliced) = spliced else {
                    index = ShapeIndex::new(&next, netlist.net_count(), &p);
                    (layout, extracted, fps) = (next, full, want);
                    continue;
                };
                let (redone, spliced_index, spliced) =
                    (spliced.redone, spliced.index, spliced.extracted);
                let changed: Vec<NetId> = netlist
                    .net_ids()
                    .filter(|&n| format!("{:?}", before.net(n)) != format!("{:?}", full.net(n)))
                    .collect();
                for (how, nets) in [("redone", &redone), ("changed", &changed)] {
                    let (got, n) = fps.spliced(&netlist, &rec, &spliced, &[d], nets);
                    assert_eq!(
                        got.units,
                        want.units,
                        "{} step {step}: fingerprints spliced over the {how} nets differ",
                        netlist.name()
                    );
                    refolded += n;
                }
                splices += 1;
                (layout, index, extracted, fps) = (next, spliced_index, spliced, want);
            }
            assert!(
                splices >= 20,
                "{}: {splices} of 24 steps spliced",
                netlist.name()
            );
            assert!(
                refolded <= 2 * splices * fps.ccc_count() / 4,
                "{}: {refolded} CCC units re-folded over {splices} splices of {}",
                netlist.name(),
                fps.ccc_count()
            );
        }
        assert!(on_rail >= 24, "{on_rail} resizes on a rail");
        assert!(
            in_state >= 16,
            "{in_state} resizes in a state element's CCC"
        );
    }

    #[test]
    fn env_fingerprint_tracks_knobs() {
        let p = Process::strongarm_035();
        let cfg = EverifyConfig::for_process(&p);
        let base = env_fingerprint(&p, &Tolerance::conservative(), &Pessimism::signoff(), &cfg);
        assert_eq!(
            base,
            env_fingerprint(&p, &Tolerance::conservative(), &Pessimism::signoff(), &cfg),
            "stable for identical inputs"
        );
        assert_ne!(
            base,
            env_fingerprint(&p, &Tolerance::nominal(), &Pessimism::signoff(), &cfg)
        );
        assert_ne!(
            base,
            env_fingerprint(&p, &Tolerance::conservative(), &Pessimism::none(), &cfg)
        );
        let mut loose = cfg.clone();
        loose.filter_threshold = 0.9;
        assert_ne!(
            base,
            env_fingerprint(
                &p,
                &Tolerance::conservative(),
                &Pessimism::signoff(),
                &loose
            )
        );
    }
}
