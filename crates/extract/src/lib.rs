//! `cbv-extract` — parasitic extraction and RC networks.
//!
//! §4.3 of the paper puts extraction accuracy at the center of timing
//! verification: "Accuracy of minimum and maximum capacitance calculation
//! (fixed, coupling, and transistor input); accuracy of RC interconnect
//! models ... Internodal capacitance values (coupling capacitance) have
//! significant variation from both manufacturing tolerances and miller
//! coupling capacitance multiplicative effects. Bounding the min/max
//! coupling along with manufacturing tolerances is essential in
//! accurately computing nodal capacitance."
//!
//! This crate provides:
//!
//! * [`RcNet`] — a per-net RC network with Elmore delay evaluation and an
//!   explicit distributed-line constructor (the Fig 5 "real gates have
//!   multiple inputs/outputs" analysis drives multi-tap lines directly);
//! * [`extract`] — geometric extraction from a [`cbv_layout::Layout`]:
//!   sheet resistance along each shape, area/fringe capacitance to
//!   ground, and coupling capacitance between parallel same-layer shapes
//!   of different nets;
//! * [`extract_spliced`] — the same extraction after a sizing edit,
//!   re-extracting only the nets the edit reaches and moving the rest
//!   over from the extraction before it ([`PackedExtraction`] is the
//!   one-block form an extraction waits in between runs);
//! * [`Extracted`] — the queryable result, including **min/max bounded**
//!   total net capacitance under a [`Tolerance`] (manufacturing spread ×
//!   Miller factor), and device loading (gate + diffusion) computed from
//!   the netlist and process models.

pub mod rc;

pub use rc::{RcNet, RcNodeId};

use std::collections::HashMap;

use cbv_layout::{Layout, Rect, Shape, ShapeDiff};
use cbv_netlist::{DeviceId, FlatNetlist, NetId, NetUse};
use cbv_tech::{Farads, Layer, Ohms, Process, Tolerance};

/// Extraction result for one net.
#[derive(Debug, Clone)]
pub struct ExtractedNet {
    /// The net.
    pub net: NetId,
    /// Wire capacitance to ground (area + fringe), nominal.
    pub wire_cap: Farads,
    /// Coupling capacitances to specific aggressor nets, nominal values.
    pub couplings: Vec<(NetId, Farads)>,
    /// Device gate capacitance hanging on this net (nominal).
    pub gate_cap: Farads,
    /// Device gate capacitance bounds reflecting logical context.
    pub gate_cap_bounds: (Farads, Farads),
    /// Device diffusion capacitance on this net.
    pub diff_cap: Farads,
    /// Distributed RC network of the wire.
    pub rc: RcNet,
}

impl ExtractedNet {
    /// Total nominal capacitance: wire + coupling (Miller = 1) + devices.
    pub fn total_cap(&self) -> Farads {
        let couple: Farads = self.couplings.iter().map(|&(_, c)| c).sum();
        self.wire_cap + couple + self.gate_cap + self.diff_cap
    }

    /// Min/max total capacitance under a tolerance: ground and device
    /// capacitance scaled by manufacturing spread, coupling scaled by the
    /// Miller window. This is the §4.3 bounded-capacitance calculation.
    pub fn cap_bounds(&self, tol: &Tolerance) -> (Farads, Farads) {
        let couple: Farads = self.couplings.iter().map(|&(_, c)| c).sum();
        let fixed = self.wire_cap + self.diff_cap;
        let min =
            fixed * tol.cap_min + couple * (tol.miller_min * tol.cap_min) + self.gate_cap_bounds.0;
        let max =
            fixed * tol.cap_max + couple * (tol.miller_max * tol.cap_max) + self.gate_cap_bounds.1;
        (min, max)
    }
}

/// The full extraction result.
#[derive(Debug, Clone, Default)]
pub struct Extracted {
    nets: Vec<Option<ExtractedNet>>,
}

impl Extracted {
    /// The extraction for a net, if the net had any geometry or devices.
    pub fn net(&self, net: NetId) -> Option<&ExtractedNet> {
        self.nets.get(net.index()).and_then(|o| o.as_ref())
    }

    /// Mutable access to one net's extraction — the seam fault-injection
    /// harnesses use to corrupt parasitics *after* extraction (e.g. a
    /// NaN resistor on a clock tree) and prove the flow reports the
    /// damage instead of signing off.
    pub fn net_mut(&mut self, net: NetId) -> Option<&mut ExtractedNet> {
        self.nets.get_mut(net.index()).and_then(|o| o.as_mut())
    }

    /// Iterate over all extracted nets.
    pub fn iter(&self) -> impl Iterator<Item = &ExtractedNet> {
        self.nets.iter().filter_map(|o| o.as_ref())
    }

    /// Nominal total capacitance of a net (zero if unextracted).
    pub fn total_cap(&self, net: NetId) -> Farads {
        self.net(net).map(|n| n.total_cap()).unwrap_or(Farads::ZERO)
    }

    /// Bounded total capacitance of a net.
    pub fn cap_bounds(&self, net: NetId, tol: &Tolerance) -> (Farads, Farads) {
        self.net(net)
            .map(|n| n.cap_bounds(tol))
            .unwrap_or((Farads::ZERO, Farads::ZERO))
    }
}

/// An [`Extracted`] packed into one block of bytes, floats as their bit
/// patterns: the form an extraction takes while it waits between runs.
/// Unpacked, an extraction is a few allocations per net; held across
/// runs while the nets around them come and go, those scatter through
/// the heap, and one block does not.
#[derive(Debug, Clone)]
pub struct PackedExtraction(Box<[u8]>);

impl Extracted {
    /// Packs the extraction; [`PackedExtraction::unpack`] restores it bit
    /// for bit.
    pub fn pack(&self) -> PackedExtraction {
        let size = 4 + self
            .nets
            .iter()
            .map(|slot| {
                slot.as_ref().map_or(1, |n| {
                    let (resistors, caps) = n.rc.parts();
                    let lists = 12 * n.couplings.len() + 16 * resistors.len() + 8 * caps.len();
                    1 + 8 + 5 * 8 + 12 + lists
                })
            })
            .sum::<usize>();
        let mut out = Vec::with_capacity(size);
        put_word(&mut out, self.nets.len());
        for slot in &self.nets {
            let Some(n) = slot else {
                out.push(0);
                continue;
            };
            out.push(1);
            put_word(&mut out, n.net.index());
            put_word(&mut out, n.rc.net.index());
            let (lo, hi) = n.gate_cap_bounds;
            for c in [n.wire_cap, n.gate_cap, lo, hi, n.diff_cap] {
                put_float(&mut out, c.farads());
            }
            put_word(&mut out, n.couplings.len());
            for &(other, c) in &n.couplings {
                put_word(&mut out, other.index());
                put_float(&mut out, c.farads());
            }
            let (resistors, caps) = n.rc.parts();
            put_word(&mut out, resistors.len());
            for &(a, b, r) in resistors {
                put_word(&mut out, a.index());
                put_word(&mut out, b.index());
                put_float(&mut out, r.ohms());
            }
            put_word(&mut out, caps.len());
            for c in caps {
                put_float(&mut out, c.farads());
            }
        }
        debug_assert_eq!(out.len(), size);
        PackedExtraction(out.into())
    }
}

impl PackedExtraction {
    /// The extraction [`Extracted::pack`] packed.
    pub fn unpack(&self) -> Extracted {
        let mut r = Reader(&self.0);
        let nets = (0..r.word())
            .map(|_| {
                if r.take::<1>() == [0] {
                    return None;
                }
                let (net, rc_net) = (NetId(r.word()), NetId(r.word()));
                let [wire_cap, gate_cap, lo, hi, diff_cap] =
                    [(); 5].map(|_| Farads::new(r.float()));
                let couplings = (0..r.word())
                    .map(|_| (NetId(r.word()), Farads::new(r.float())))
                    .collect();
                let resistors = (0..r.word())
                    .map(|_| (RcNodeId(r.word()), RcNodeId(r.word()), Ohms::new(r.float())))
                    .collect();
                let caps = (0..r.word()).map(|_| Farads::new(r.float())).collect();
                Some(ExtractedNet {
                    net,
                    wire_cap,
                    couplings,
                    gate_cap,
                    gate_cap_bounds: (lo, hi),
                    diff_cap,
                    rc: RcNet::from_parts(rc_net, resistors, caps),
                })
            })
            .collect();
        Extracted { nets }
    }
}

fn put_word(out: &mut Vec<u8>, n: usize) {
    let n = u32::try_from(n).expect("fewer than 2^32 items");
    out.extend_from_slice(&n.to_le_bytes());
}

fn put_float(out: &mut Vec<u8>, v: f64) {
    out.extend_from_slice(&v.to_bits().to_le_bytes());
}

/// Reads what [`Extracted::pack`] wrote. The bytes only ever come
/// from it, so a short block is a bug, not bad input.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn take<const N: usize>(&mut self) -> [u8; N] {
        let (head, rest) = self.0.split_at(N);
        self.0 = rest;
        head.try_into().expect("split at N")
    }

    fn word(&mut self) -> u32 {
        u32::from_le_bytes(self.take())
    }

    fn float(&mut self) -> f64 {
        f64::from_bits(u64::from_le_bytes(self.take()))
    }
}

/// Runs geometric + device extraction over a layout and its netlist.
///
/// Every geometric question is answered from an index ([`ShapeIndex`]),
/// so the cost grows with the shapes and the pairs that can actually
/// couple, not with their product. The answers list shapes in ascending
/// index, the order an all-pairs scan meets them, so every
/// floating-point sum is taken in the scan's order and the result is
/// the scan's, bit for bit (the test oracle holds this).
pub fn extract(layout: &Layout, netlist: &FlatNetlist, process: &Process) -> Extracted {
    ShapeIndex::new(layout, netlist.net_count(), process).extract(layout, netlist, process)
}

/// What [`extract_spliced`] hands back.
pub struct SplicedExtraction {
    /// The extraction of the new layout.
    pub extracted: Extracted,
    /// The index over the new layout, for the next splice to patch.
    pub index: ShapeIndex,
    /// The nets re-extracted, ascending.
    pub redone: Vec<NetId>,
    /// Whether the index was rebuilt rather than patched: a changed
    /// shape landed in one of its indexes that held no shape before.
    pub index_rebuilt: bool,
}

/// Extraction of `layout` spliced from `base`, the extraction of the
/// layout before a sizing edit through `base_index`, where `diff` is how
/// [`Layout::resized`] patched that layout into `layout` (the layout of
/// `netlist`, whose devices only changed `w`/`l`, on the `resized`
/// devices).
///
/// A shape the diff removed or added is *changed*. A net is
/// re-extracted when a changed shape carries it, when a resized device's
/// gate, source or drain is on it, or when one of its shapes lies within
/// its layer's coupling reach of a changed shape on both axes. Every
/// other net reads the same shapes, the same neighbours and shields (in
/// the same order: the diff's renumbering is monotone) and the same
/// device sizes as before, so its `base` entry is moved over unchanged.
///
/// `base_index` must index the old layout. It becomes the index over
/// `layout`, patched in place: the removed shapes dropped, the kept ones
/// renumbered, the added ones merged into the bands they sit in. It is
/// rebuilt only when an added shape lands in an index without bands.
///
/// `None` when `base` covers another net count.
pub fn extract_spliced(
    base: Extracted,
    base_index: ShapeIndex,
    diff: &ShapeDiff,
    layout: &Layout,
    netlist: &FlatNetlist,
    process: &Process,
    resized: &[DeviceId],
) -> Option<SplicedExtraction> {
    let n_nets = netlist.net_count();
    if base.nets.len() != n_nets {
        return None;
    }
    assert_eq!(
        base_index.shape_count,
        diff.renumber.len(),
        "the base index indexes the old layout"
    );
    let patched = base_index.patched(&layout.shapes, &diff.renumber, &diff.added, n_nets);
    let index_rebuilt = patched.is_none();
    let index = patched.unwrap_or_else(|| ShapeIndex::new(layout, n_nets, process));

    let mut dirty = vec![false; n_nets];
    let mut mark = |net: Option<NetId>| {
        if let Some(n) = net.filter(|n| n.index() < n_nets) {
            dirty[n.index()] = true;
        }
    };
    for &d in resized {
        let dev = netlist.device(d);
        for net in [dev.gate, dev.source, dev.drain] {
            mark(Some(net));
        }
    }
    let view = Indexed::new(&index, &layout.shapes);
    let added = diff.added.iter().map(|&j| &layout.shapes[j as usize]);
    for s in diff.removed.iter().chain(added) {
        mark(s.net);
        view.near(s.layer, s.rect, |i| mark(layout.shapes[i as usize].net));
    }

    let mut nets = base.nets;
    let mut scratch = Scratch::new(dirty);
    let mut redone = Vec::new();
    for (id, slot) in nets.iter_mut().enumerate() {
        if scratch.todo[id] {
            let net = NetId(id as u32);
            *slot = extract_net(&view, layout, netlist, process, net, &mut scratch);
            redone.push(net);
        }
    }
    Some(SplicedExtraction {
        extracted: Extracted { nets },
        index,
        redone,
        index_rebuilt,
    })
}

/// The geometric queries extraction asks of a layout: [`ShapeIndex`]
/// answers them from sorted indexes, the test oracle by scanning every
/// shape. Each answer lists shape indices in ascending order.
trait ShapeQueries {
    /// The shapes carrying `net`.
    fn net_shapes(&self, net: NetId, out: &mut Vec<u32>);
    /// Every pair `(a, b)`, `a < b`, of positions in `shapes` whose
    /// rectangles intersect, sorted.
    fn ties(&self, shapes: &[u32], out: &mut Vec<(u32, u32)>);
    /// Shapes that may couple to `victim`: a superset of those
    /// [`parallel_run`] and the reach cut accept.
    fn aggressors(&self, victim: u32, out: &mut Vec<u32>);
    /// Whether some third shape [`screens`] `victim` from `aggressor`,
    /// the two running parallel for `run` > 0.
    fn shielded(&self, victim: u32, aggressor: u32, run: i64) -> bool;
}

fn extract_with(
    q: &impl ShapeQueries,
    layout: &Layout,
    netlist: &FlatNetlist,
    process: &Process,
) -> Extracted {
    let mut scratch = Scratch::new(vec![true; netlist.net_count()]);
    let nets = (0..netlist.net_count() as u32)
        .map(|id| extract_net(q, layout, netlist, process, NetId(id), &mut scratch))
        .collect();
    Extracted { nets }
}

/// What one extraction pass carries from net to net: buffers one net's
/// extraction reuses for the next, and the coupling pairs judged ahead.
struct Scratch {
    shapes: Vec<u32>,
    ties: Vec<(u32, u32)>,
    candidates: Vec<u32>,
    nodes: HashMap<(i64, i64), RcNodeId>,
    /// Which nets the pass extracts; it takes them in ascending order.
    todo: Vec<bool>,
    /// Per net, the coupling pairs a lower net of the pass judged for
    /// it: its own shape, the lower net's shape, and the coupling, `None`
    /// when a third shape screens the two. Both directions of a pair
    /// read the same run, gap and shields, so the answer is the same.
    ahead: Vec<Vec<(u32, u32, Option<Farads>)>>,
}

impl Scratch {
    fn new(todo: Vec<bool>) -> Scratch {
        Scratch {
            shapes: Vec::new(),
            ties: Vec::new(),
            candidates: Vec::new(),
            nodes: HashMap::new(),
            ahead: vec![Vec::new(); todo.len()],
            todo,
        }
    }
}

/// One net's extraction: a function of the net's own shapes, the shapes
/// within coupling reach of them and the sizes of the devices on its
/// gate and channel terminals. `None` for a net with neither shapes nor
/// devices.
fn extract_net(
    q: &impl ShapeQueries,
    layout: &Layout,
    netlist: &FlatNetlist,
    process: &Process,
    net: NetId,
    scratch: &mut Scratch,
) -> Option<ExtractedNet> {
    q.net_shapes(net, &mut scratch.shapes);
    let uses = netlist.net_uses(net);
    if scratch.shapes.is_empty() && uses.is_empty() {
        return None;
    }
    let Scratch {
        shapes,
        ties,
        nodes,
        ..
    } = scratch;

    // --- Wire ground capacitance and RC network ---
    let mut wire_cap = Farads::ZERO;
    let mut rc = RcNet::new(net);
    nodes.clear();
    for &i in shapes.iter() {
        let s = &layout.shapes[i as usize];
        let p = process.wires().params(s.layer);
        let len = s.rect.width().max(s.rect.height()) as f64 * 1e-9;
        let wid = (s.rect.width().min(s.rect.height()) as f64 * 1e-9).max(p.width_min);
        wire_cap += p.ground_capacitance(len, wid);
        // One RC segment per shape between its two far corners.
        let (a, b) = if s.rect.is_vertical() {
            (
                (s.rect.center().x, s.rect.y0),
                (s.rect.center().x, s.rect.y1),
            )
        } else {
            (
                (s.rect.x0, s.rect.center().y),
                (s.rect.x1, s.rect.center().y),
            )
        };
        let na = rc.node_at(nodes, a.0, a.1);
        let nb = rc.node_at(nodes, b.0, b.1);
        let r = p.resistance(len, wid);
        let c = p.ground_capacitance(len, wid);
        rc.add_resistor(na, nb, r);
        rc.add_cap(na, c / 2.0);
        rc.add_cap(nb, c / 2.0);
    }
    // Merge nodes of touching shapes: node_at dedups exact points;
    // additionally tie together shapes that intersect.
    q.ties(shapes, ties);
    for &(a, b) in ties.iter() {
        let c1 = layout.shapes[shapes[a as usize] as usize].rect.center();
        let c2 = layout.shapes[shapes[b as usize] as usize].rect.center();
        let n1 = rc.node_at(nodes, c1.x, c1.y);
        let n2 = rc.node_at(nodes, c2.x, c2.y);
        // Zero-ohm tie approximated by a tiny resistor.
        rc.add_resistor(n1, n2, cbv_tech::Ohms::new(1e-3));
    }
    rc.shrink_to_fit();

    // --- Coupling to parallel neighbors ---
    let couplings = coupling_pass(q, layout, process, net, scratch);

    // --- Device loading ---
    let mut gate_cap = Farads::ZERO;
    let mut gate_min = Farads::ZERO;
    let mut gate_max = Farads::ZERO;
    let mut diff_cap = Farads::ZERO;
    for u in uses {
        let d = netlist.device(u.device());
        let model = process.mos(d.kind);
        match u {
            NetUse::Gate(_) => {
                gate_cap += model.gate_capacitance(d.w, d.l);
                let (lo, hi) = model.gate_capacitance_bounds(d.w, d.l);
                gate_min += lo;
                gate_max += hi;
            }
            NetUse::Channel(_) => {
                diff_cap += model.diffusion_capacitance(d.w, d.l);
            }
            NetUse::Bulk(_) => {}
        }
    }

    Some(ExtractedNet {
        net,
        wire_cap,
        couplings,
        gate_cap,
        gate_cap_bounds: (gate_min, gate_max),
        diff_cap,
        rc,
    })
}

/// A net's couplings: every same-layer shape of another net running
/// parallel to one of the net's shapes (`scratch.shapes`) within a few
/// pitches, unless a third shape screens it, summed per aggressor net in
/// the order the victims and their candidates come. A pair whose other
/// net the pass extracts too is judged once: the lower net judges it and
/// leaves the answer for the higher one.
fn coupling_pass(
    q: &impl ShapeQueries,
    layout: &Layout,
    process: &Process,
    net: NetId,
    scratch: &mut Scratch,
) -> Vec<(NetId, Farads)> {
    let mut ahead = std::mem::take(&mut scratch.ahead[net.index()]);
    ahead.sort_unstable_by_key(|&(v, o, _)| (v, o));
    let mut couplings: Vec<(NetId, Farads)> = Vec::new();
    for &vi in &scratch.shapes {
        let s = &layout.shapes[vi as usize];
        let p = process.wires().params(s.layer);
        q.aggressors(vi, &mut scratch.candidates);
        for &oi in &scratch.candidates {
            let other = &layout.shapes[oi as usize];
            let Some(onet) = other.net else { continue };
            if onet == net || other.layer != s.layer {
                continue;
            }
            let Some((run, gap)) = parallel_run(s.rect, other.rect) else {
                continue;
            };
            let gap_m = gap as f64 * 1e-9;
            // Beyond a few pitches coupling is negligible.
            if gap_m > 5.0 * p.spacing_min {
                continue;
            }
            let judged = ahead
                .binary_search_by_key(&(vi, oi), |&(v, o, _)| (v, o))
                .ok()
                .map(|at| ahead[at].2);
            let cc = judged.unwrap_or_else(|| {
                // Sub-minimum gaps are DRC errors, not infinite
                // capacitors: clamp at the minimum-spacing coupling.
                let cc = (!q.shielded(vi, oi, run))
                    .then(|| p.coupling_capacitance(run as f64 * 1e-9, gap_m.max(p.spacing_min)));
                if onet > net && scratch.todo.get(onet.index()) == Some(&true) {
                    scratch.ahead[onet.index()].push((oi, vi, cc));
                }
                cc
            });
            let Some(cc) = cc else { continue };
            match couplings.iter_mut().find(|(n, _)| *n == onet) {
                Some((_, acc)) => *acc += cc,
                None => couplings.push((onet, cc)),
            }
        }
    }
    couplings.shrink_to_fit();
    couplings
}

/// Parallel run length and gap of two same-orientation rectangles —
/// along Y with the gap in X for vertical wires, the other way round
/// for horizontal ones — when both are positive.
fn parallel_run(s: Rect, other: Rect) -> Option<(i64, i64)> {
    if s.is_vertical() != other.is_vertical() {
        return None;
    }
    let (run, gap) = if s.is_vertical() {
        (s.y_overlap(other), s.x_gap(other))
    } else {
        (s.x_overlap(other), s.y_gap(other))
    };
    (run > 0 && gap > 0).then_some((run, gap))
}

/// Shielding: a third wire sitting between victim and aggressor (same
/// layer, spanning most of the parallel run) screens the field — only
/// nearest neighbors couple. The layer and identity tests are the
/// caller's.
fn screens(mid: Rect, s: Rect, other: Rect, run: i64) -> bool {
    if s.is_vertical() {
        let (lo, hi) = between(s.x0, s.x1, other.x0, other.x1);
        mid.x0 >= lo && mid.x1 <= hi && mid.y_overlap(s).min(mid.y_overlap(other)) * 2 >= run
    } else {
        let (lo, hi) = between(s.y0, s.y1, other.y0, other.y1);
        mid.y0 >= lo && mid.y1 <= hi && mid.x_overlap(s).min(mid.x_overlap(other)) * 2 >= run
    }
}

/// The open interval between a victim spanning `[s0, s1]` and an
/// aggressor spanning `[o0, o1]` on one axis.
fn between(s0: i64, s1: i64, o0: i64, o1: i64) -> (i64, i64) {
    if s1 <= o0 {
        (s1, o0)
    } else {
        (o1, s0)
    }
}

/// The extraction indexes over one layout. They hold shape ids, not
/// shapes: every query reads the layout they index alongside. Built by
/// [`ShapeIndex::new`], and carried from one sizing edit to the next by
/// [`extract_spliced`], which patches them.
///
/// * Net → shapes as CSR: `net_ids[net_start[n]..net_start[n + 1]]`
///   are net `n`'s shapes, ascending.
/// * Per layer, four `BandedIndex`es: the net-carrying vertical wires
///   by `x0` and horizontal ones by `y0` (coupling aggressors run
///   parallel, so their cross-axis edge bounds the gap), and every shape
///   on the layer by `x0` and by `y0` (any shape, net-less fill
///   included, can shield).
#[derive(Clone)]
pub struct ShapeIndex {
    /// The shapes in the layout indexed.
    shape_count: usize,
    net_start: Vec<u32>,
    net_ids: Vec<u32>,
    layers: Vec<LayerIndex>,
}

#[derive(Clone)]
struct LayerIndex {
    /// Gaps beyond this many nm never couple on this layer.
    reach: i64,
    vertical: BandedIndex,
    horizontal: BandedIndex,
    by_x0: BandedIndex,
    by_y0: BandedIndex,
}

/// Whether a shape on a layer sits in one of its indexes.
type Member = fn(&Shape) -> bool;

/// Whether a shape on a layer is in its `vertical` index.
fn vertical_wire(s: &Shape) -> bool {
    s.net.is_some() && s.rect.is_vertical()
}

/// Whether a shape on a layer is in its `horizontal` index.
fn horizontal_wire(s: &Shape) -> bool {
    s.net.is_some() && !s.rect.is_vertical()
}

impl LayerIndex {
    /// The layer's four indexes, each with the test a shape on the
    /// layer passes to sit in it.
    fn banded_mut(&mut self) -> [(&mut BandedIndex, Member); 4] {
        [
            (&mut self.vertical, vertical_wire),
            (&mut self.horizontal, horizontal_wire),
            (&mut self.by_x0, |_| true),
            (&mut self.by_y0, |_| true),
        ]
    }
}

/// Band width at the lowest level, in median run lengths of the indexed
/// shapes.
const BAND_MEDIANS: i64 = 8;
/// A shape whose run extent touches this many bands of a level sits a
/// level up, whose bands are this many times wider.
const LEVEL_RATIO: i64 = 4;

/// Shape indices split into bands along one axis, the *run* axis, and
/// sorted within each band by their low edge on the other, the *gap*
/// axis (ties by index). The bands come in levels, each [`LEVEL_RATIO`]
/// times wider than the one below, up to a level of fewer than
/// [`LEVEL_RATIO`] bands. A shape sits at the lowest level where its
/// run extent touches fewer than [`LEVEL_RATIO`] bands, in every band
/// it touches there; so a rail across the layout sits in the few top
/// bands, which most queries scan, and a short wire in one or two
/// narrow ones.
///
/// One CSR: band `k`'s entries are `start[k]..start[k + 1]` of `lows`
/// and `ids`, level by level, each band with the widest gap-axis extent
/// among its shapes. The lowest bands are [`BAND_MEDIANS`] median run
/// lengths wide, and never so narrow that there are more of them than
/// shapes.
#[derive(Clone)]
struct BandedIndex {
    /// The gap axis: a rectangle's `(low, high)` edges on it.
    gap: fn(&Rect) -> (i64, i64),
    /// The run axis.
    run: fn(&Rect) -> (i64, i64),
    /// The run extent the bands cover, from the first band's low edge:
    /// a run coordinate past either end counts as the edge band's.
    origin: i64,
    end: i64,
    /// The run extent of the indexed shapes. A query outside it meets
    /// none; a patch may grow it past the bands'.
    span: (i64, i64),
    /// Each level's band width and first band, lowest level first.
    levels: Vec<(i64, u32)>,
    start: Vec<u32>,
    /// Each entry's low gap edge and shape index.
    lows: Vec<i64>,
    ids: Vec<u32>,
    max_extent: Vec<i64>,
}

impl BandedIndex {
    fn new(
        shapes: &[Shape],
        members: impl Iterator<Item = u32>,
        gap: fn(&Rect) -> (i64, i64),
        run: fn(&Rect) -> (i64, i64),
    ) -> BandedIndex {
        let rect = |i: u32| &shapes[i as usize].rect;
        let mut sorted: Vec<(i64, u32)> = members.map(|i| (gap(rect(i)).0, i)).collect();
        sorted.sort_unstable();
        let (origin, end) = sorted.iter().fold((i64::MAX, i64::MIN), |(o, e), &(_, i)| {
            let (lo, hi) = run(rect(i));
            (o.min(lo), e.max(hi))
        });
        let mut index = BandedIndex {
            gap,
            run,
            origin,
            end,
            span: (origin, end),
            levels: Vec::new(),
            start: vec![0],
            lows: Vec::new(),
            ids: Vec::new(),
            max_extent: Vec::new(),
        };
        let n = sorted.len();
        if n == 0 {
            return index;
        }
        let mut lengths: Vec<i64> = sorted
            .iter()
            .map(|&(_, i)| {
                let (lo, hi) = run(rect(i));
                hi.saturating_sub(lo)
            })
            .collect();
        let median = *lengths.select_nth_unstable(n / 2).1;
        drop(lengths);
        let mut width = median
            .saturating_mul(BAND_MEDIANS)
            .max(end.saturating_sub(origin) / n as i64 + 1);
        let mut bands = 0;
        loop {
            index.levels.push((width, bands as u32));
            let level_bands = index.band(index.levels.len() - 1, end) + 1;
            bands += level_bands;
            if level_bands < LEVEL_RATIO as usize {
                break;
            }
            width = width.saturating_mul(LEVEL_RATIO);
        }

        // Count each band's entries, prefix-sum, then fill in sorted
        // order, which keeps every band sorted.
        let mut start = vec![0u32; bands + 1];
        for &(_, i) in &sorted {
            for k in index.home(run(rect(i))) {
                start[k + 1] += 1;
            }
        }
        for k in 0..bands {
            start[k + 1] += start[k];
        }
        let mut fill = start.clone();
        let mut lows = vec![0; start[bands] as usize];
        let mut ids = vec![0; start[bands] as usize];
        let mut max_extent = vec![0i64; bands];
        for &(lo, i) in &sorted {
            let (g0, g1) = gap(rect(i));
            for k in index.home(run(rect(i))) {
                let at = fill[k] as usize;
                (lows[at], ids[at]) = (lo, i);
                fill[k] += 1;
                max_extent[k] = max_extent[k].max(g1 - g0);
            }
        }
        index.start = start;
        index.lows = lows;
        index.ids = ids;
        index.max_extent = max_extent;
        index
    }

    /// Patches this index in place to index `shapes`: every entry
    /// `renumber` maps to `u32::MAX` dropped, every other one renumbered
    /// through it, and the `added` shapes merged in at their sorted
    /// place in the bands they sit in, widening those bands' extents and
    /// the indexed span. The band geometry is inherited: a shape reaching
    /// past the bands sits in the edge bands, as a query reaching past
    /// them scans them, and a window only has to hand out a superset of
    /// the shapes a query accepts, so answers do not depend on where the
    /// bands lie. The entries of a band stay sorted when `renumber` is
    /// monotone. An index without bands takes no shape: the caller
    /// rebuilds it.
    fn patch(&mut self, shapes: &[Shape], renumber: &[u32], added: impl Iterator<Item = u32>) {
        let rect = |i: u32| &shapes[i as usize].rect;
        let bands = self.max_extent.len();
        // Drop and renumber, band by band, leaving each band's kept
        // entries at `start[k]..start[k + 1]`.
        let (mut read, mut kept) = (0, 0);
        for k in 0..bands {
            let end = self.start[k + 1] as usize;
            self.start[k] = kept as u32;
            for r in read..end {
                let i = renumber[self.ids[r] as usize];
                if i != u32::MAX {
                    (self.lows[kept], self.ids[kept]) = (self.lows[r], i);
                    kept += 1;
                }
            }
            read = end;
        }
        self.start[bands] = kept as u32;

        let mut inserts: Vec<(usize, i64, u32)> = Vec::new();
        for i in added {
            assert!(bands > 0, "an index without bands takes no shape");
            let (run, (g0, g1)) = ((self.run)(rect(i)), (self.gap)(rect(i)));
            self.span = (self.span.0.min(run.0), self.span.1.max(run.1));
            for k in self.home(run) {
                self.max_extent[k] = self.max_extent[k].max(g1 - g0);
                inserts.push((k, g0, i));
            }
        }
        inserts.sort_unstable();

        // Merge from the back: band k's entries end where its kept ones
        // and every insert into a band up to k end, so no write lands on
        // a kept entry not yet moved.
        let total = kept + inserts.len();
        self.lows
            .reserve_exact(total.saturating_sub(self.lows.len()));
        self.ids.reserve_exact(total.saturating_sub(self.ids.len()));
        self.lows.resize(total, 0);
        self.ids.resize(total, 0);
        let mut at = total;
        for k in (0..bands).rev() {
            let (from, mut r) = (self.start[k] as usize, self.start[k + 1] as usize);
            self.start[k + 1] = at as u32;
            while r > from || inserts.last().is_some_and(|e| e.0 == k) {
                at -= 1;
                match inserts.last() {
                    Some(&(band, low, i))
                        if band == k
                            && (r == from || (low, i) > (self.lows[r - 1], self.ids[r - 1])) =>
                    {
                        (self.lows[at], self.ids[at]) = (low, i);
                        inserts.pop();
                    }
                    _ => {
                        r -= 1;
                        (self.lows[at], self.ids[at]) = (self.lows[r], self.ids[r]);
                    }
                }
            }
        }
        debug_assert_eq!(at, 0);
    }

    /// The band of `level` holding run coordinate `v`, counted from the
    /// level's first; `v` is clamped to the covered extent, so the
    /// offset divided is never negative.
    fn band(&self, level: usize, v: i64) -> usize {
        let width = self.levels[level].0;
        (v.clamp(self.origin, self.end).saturating_sub(self.origin) / width) as usize
    }

    /// The bands of `level` the closed run extent `[lo, hi]` touches.
    fn touched(&self, level: usize, (lo, hi): (i64, i64)) -> std::ops::Range<usize> {
        let first = self.levels[level].1 as usize;
        first + self.band(level, lo)..first + self.band(level, hi) + 1
    }

    /// The bands a shape with run extent `run` sits in: those it
    /// touches on the lowest level where it touches few enough.
    fn home(&self, run: (i64, i64)) -> std::ops::Range<usize> {
        (0..self.levels.len())
            .map(|level| self.touched(level, run))
            .find(|bands| bands.len() < LEVEL_RATIO as usize)
            .expect("the top level has fewer bands")
    }

    /// The entries of every band the closed run extent `run` touches,
    /// on every level, whose low gap edge lies in `[from, to]` — or,
    /// with `overlapping`, whose gap extent may reach into it, i.e.
    /// whose low edge lies up to the band's widest extent before
    /// `from`. A shape sitting in several of the bands comes once per
    /// band.
    fn windows(
        &self,
        run: (i64, i64),
        from: i64,
        to: i64,
        overlapping: bool,
    ) -> impl Iterator<Item = &[u32]> {
        let levels = if run.0 <= self.span.1 && run.1 >= self.span.0 {
            0..self.levels.len()
        } else {
            0..0
        };
        levels
            .flat_map(move |level| self.touched(level, run))
            .map(move |k| {
                let (a, b) = (self.start[k] as usize, self.start[k + 1] as usize);
                let from = if overlapping {
                    from.saturating_sub(self.max_extent[k])
                } else {
                    from
                };
                let a = a + self.lows[a..b].partition_point(|&lo| lo < from);
                let len = self.lows[a..b].iter().take_while(|&&lo| lo <= to).count();
                &self.ids[a..a + len]
            })
    }
}

fn x_edges(r: &Rect) -> (i64, i64) {
    (r.x0, r.x1)
}

fn y_edges(r: &Rect) -> (i64, i64) {
    (r.y0, r.y1)
}

fn layer_slot(layer: Layer) -> usize {
    Layer::ALL
        .iter()
        .position(|&l| l == layer)
        .expect("Layer::ALL lists every layer")
}

/// Net → shapes as CSR over `shapes`, in index order. Shapes on nets
/// past `net_count` are never victims and are left out.
fn net_csr(shapes: &[Shape], net_count: usize) -> (Vec<u32>, Vec<u32>) {
    let mut net_start = vec![0u32; net_count + 1];
    for n in shapes.iter().filter_map(|s| s.net) {
        if n.index() < net_count {
            net_start[n.index() + 1] += 1;
        }
    }
    for n in 0..net_count {
        net_start[n + 1] += net_start[n];
    }
    let mut fill = net_start.clone();
    let mut net_ids = vec![0u32; net_start[net_count] as usize];
    for (i, s) in shapes.iter().enumerate() {
        if let Some(n) = s.net.filter(|n| n.index() < net_count) {
            net_ids[fill[n.index()] as usize] = i as u32;
            fill[n.index()] += 1;
        }
    }
    (net_start, net_ids)
}

impl ShapeIndex {
    /// Indexes `layout`, the layout of a netlist of `net_count` nets,
    /// under `process`'s coupling reach.
    pub fn new(layout: &Layout, net_count: usize, process: &Process) -> ShapeIndex {
        let shapes = &layout.shapes;
        let (net_start, net_ids) = net_csr(shapes, net_count);
        let layers = Layer::ALL
            .iter()
            .map(|&layer| {
                let on: Vec<u32> = (0..shapes.len() as u32)
                    .filter(|&i| shapes[i as usize].layer == layer)
                    .collect();
                let members = |member: Member| {
                    on.iter()
                        .copied()
                        .filter(move |&i| member(&shapes[i as usize]))
                };
                // One nm past the `5 · spacing_min` cut, so rounding can
                // only widen the window; a non-finite cut (no such
                // process ships) leaves it unbounded.
                let cut = (5.0 * process.wires().params(layer).spacing_min * 1e9).ceil();
                let reach = if cut.is_finite() && cut.abs() < 1e15 {
                    cut as i64 + 1
                } else {
                    i64::MAX / 4
                };
                let all = || on.iter().copied();
                LayerIndex {
                    reach,
                    vertical: BandedIndex::new(shapes, members(vertical_wire), x_edges, y_edges),
                    horizontal: BandedIndex::new(
                        shapes,
                        members(horizontal_wire),
                        y_edges,
                        x_edges,
                    ),
                    by_x0: BandedIndex::new(shapes, all(), x_edges, y_edges),
                    by_y0: BandedIndex::new(shapes, all(), y_edges, x_edges),
                }
            })
            .collect();
        ShapeIndex {
            shape_count: shapes.len(),
            net_start,
            net_ids,
            layers,
        }
    }

    /// Extracts every net of `netlist` through this index, which must
    /// index `layout`: equal to [`extract`]`(layout, netlist, process)`.
    pub fn extract(&self, layout: &Layout, netlist: &FlatNetlist, process: &Process) -> Extracted {
        extract_with(
            &Indexed::new(self, &layout.shapes),
            layout,
            netlist,
            process,
        )
    }

    /// This index, over an old layout, patched to index `shapes`, the
    /// new one of a netlist of `net_count` nets: `renumber` maps each
    /// old shape id to its new one, monotonically, or to `u32::MAX` for
    /// a changed shape, and `added` lists the changed new shapes. Every
    /// banded index is [patched](BandedIndex::patch) in place and the
    /// net CSR rebuilt. `None` when an added shape would sit in a banded
    /// index that has no bands.
    fn patched(
        mut self,
        shapes: &[Shape],
        renumber: &[u32],
        added: &[u32],
        net_count: usize,
    ) -> Option<ShapeIndex> {
        for (&layer, index) in Layer::ALL.iter().zip(&mut self.layers) {
            for (banded, member) in index.banded_mut() {
                let mut on = added.iter().copied().filter(|&i| {
                    let s = &shapes[i as usize];
                    s.layer == layer && member(s)
                });
                if banded.max_extent.is_empty() && on.clone().next().is_some() {
                    return None;
                }
                banded.patch(shapes, renumber, &mut on);
            }
        }
        (self.net_start, self.net_ids) = net_csr(shapes, net_count);
        self.shape_count = shapes.len();
        Some(self)
    }
}

/// A [`ShapeIndex`] with the shapes it indexes: what answers
/// extraction's geometric queries.
struct Indexed<'a> {
    index: &'a ShapeIndex,
    shapes: &'a [Shape],
    /// Ids the windows have handed out.
    #[cfg(test)]
    scanned: std::cell::Cell<usize>,
    /// Shield queries asked.
    #[cfg(test)]
    shield_queries: std::cell::Cell<usize>,
}

impl<'a> Indexed<'a> {
    fn new(index: &'a ShapeIndex, shapes: &'a [Shape]) -> Indexed<'a> {
        debug_assert_eq!(index.shape_count, shapes.len());
        Indexed {
            index,
            shapes,
            #[cfg(test)]
            scanned: Default::default(),
            #[cfg(test)]
            shield_queries: Default::default(),
        }
    }

    /// `window`, counted into the ids scanned.
    fn scan<'w>(&self, window: &'w [u32]) -> &'w [u32] {
        #[cfg(test)]
        self.scanned.set(self.scanned.get() + window.len());
        window
    }

    /// Calls `f` with every net-carrying shape on `layer` within the
    /// layer's coupling reach of `rect` along both axes: a superset of
    /// the shapes of nets that can couple to `rect` or be screened by
    /// it. A shape may come more than once.
    ///
    /// It asks the two wire indexes, where a shape's run axis is its
    /// long one: a rail across the layout sits in the few top bands,
    /// with its short side as the band's extent, so no window starts
    /// a band from its first entry on its account.
    fn near(&self, layer: Layer, rect: Rect, mut f: impl FnMut(u32)) {
        let layer = &self.index.layers[layer_slot(layer)];
        let reach = layer.reach;
        for index in [&layer.vertical, &layer.horizontal] {
            let ((r0, r1), (g0, g1)) = ((index.run)(&rect), (index.gap)(&rect));
            let run = (r0.saturating_sub(reach), r1.saturating_add(reach));
            let (from, to) = (g0.saturating_sub(reach), g1.saturating_add(reach));
            for window in index.windows(run, from, to, true) {
                for &i in self.scan(window) {
                    let r = self.shapes[i as usize].rect;
                    if r.x_gap(rect) <= reach && r.y_gap(rect) <= reach {
                        f(i);
                    }
                }
            }
        }
    }
}

impl ShapeQueries for Indexed<'_> {
    fn net_shapes(&self, net: NetId, out: &mut Vec<u32>) {
        let ShapeIndex {
            net_start, net_ids, ..
        } = self.index;
        out.clear();
        if net.index() + 1 < net_start.len() {
            let (from, to) = (net_start[net.index()], net_start[net.index() + 1]);
            out.extend_from_slice(&net_ids[from as usize..to as usize]);
        }
    }

    /// A sweep in `x0` order: a shape can only intersect the ones whose
    /// `x0` lies before its own `x1`.
    fn ties(&self, shapes: &[u32], out: &mut Vec<(u32, u32)>) {
        out.clear();
        let rect = |pos: u32| self.shapes[shapes[pos as usize] as usize].rect;
        let mut order: Vec<u32> = (0..shapes.len() as u32).collect();
        order.sort_unstable_by_key(|&pos| (rect(pos).x0, pos));
        for (k, &a) in order.iter().enumerate() {
            let ra = rect(a);
            for &b in order[k + 1..].iter().take_while(|&&b| rect(b).x0 < ra.x1) {
                if ra.intersects(rect(b)) {
                    out.push((a.min(b), a.max(b)));
                }
            }
        }
        out.sort_unstable();
    }

    /// Aggressors run parallel to the victim on its layer: they overlap
    /// its run extent, and their cross-axis extent reaches within
    /// `reach` of its own.
    fn aggressors(&self, victim: u32, out: &mut Vec<u32>) {
        out.clear();
        let shapes = self.shapes;
        let s = &shapes[victim as usize];
        let layer = &self.index.layers[layer_slot(s.layer)];
        let index = if s.rect.is_vertical() {
            &layer.vertical
        } else {
            &layer.horizontal
        };
        let (lo, hi) = (index.gap)(&s.rect);
        let (from, to) = (
            lo.saturating_sub(layer.reach),
            hi.saturating_add(layer.reach),
        );
        for window in index.windows((index.run)(&s.rect), from, to, true) {
            out.extend(
                self.scan(window)
                    .iter()
                    .copied()
                    .filter(|&i| parallel_run(s.rect, shapes[i as usize].rect).is_some()),
            );
        }
        out.sort_unstable();
        out.dedup();
    }

    /// A shield lies wholly inside the gap, so its low edge does too,
    /// and it overlaps the run the victim and aggressor share.
    fn shielded(&self, victim: u32, aggressor: u32, run: i64) -> bool {
        #[cfg(test)]
        self.shield_queries.set(self.shield_queries.get() + 1);
        let shapes = self.shapes;
        let (s, other) = (
            shapes[victim as usize].rect,
            shapes[aggressor as usize].rect,
        );
        let layer = &self.index.layers[layer_slot(shapes[victim as usize].layer)];
        let (index, (lo, hi)) = if s.is_vertical() {
            (&layer.by_x0, between(s.x0, s.x1, other.x0, other.x1))
        } else {
            (&layer.by_y0, between(s.y0, s.y1, other.y0, other.y1))
        };
        let ((s0, s1), (o0, o1)) = ((index.run)(&s), (index.run)(&other));
        let shared = (s0.max(o0), s1.min(o1));
        index.windows(shared, lo, hi, false).any(|window| {
            self.scan(window).iter().any(|&m| {
                m != victim && m != aggressor && screens(shapes[m as usize].rect, s, other, run)
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, DeviceId, NetKind};
    use cbv_tech::{MosKind, Process};
    use proptest::prelude::*;

    /// The all-pairs scan the indexes replaced, kept as their oracle:
    /// every query looks at every shape.
    struct AllPairs<'a>(&'a Layout);

    impl ShapeQueries for AllPairs<'_> {
        fn net_shapes(&self, net: NetId, out: &mut Vec<u32>) {
            out.clear();
            out.extend(
                (0..self.0.shapes.len() as u32)
                    .filter(|&i| self.0.shapes[i as usize].net == Some(net)),
            );
        }

        fn ties(&self, shapes: &[u32], out: &mut Vec<(u32, u32)>) {
            out.clear();
            let rect = |pos: u32| self.0.shapes[shapes[pos as usize] as usize].rect;
            for a in 0..shapes.len() as u32 {
                for b in a + 1..shapes.len() as u32 {
                    if rect(a).intersects(rect(b)) {
                        out.push((a, b));
                    }
                }
            }
        }

        fn aggressors(&self, _victim: u32, out: &mut Vec<u32>) {
            out.clear();
            out.extend(0..self.0.shapes.len() as u32);
        }

        fn shielded(&self, victim: u32, aggressor: u32, run: i64) -> bool {
            let shapes = &self.0.shapes;
            let (s, other) = (&shapes[victim as usize], &shapes[aggressor as usize]);
            shapes.iter().enumerate().any(|(m, mid)| {
                mid.layer == s.layer
                    && m != victim as usize
                    && m != aggressor as usize
                    && screens(mid.rect, s.rect, other.rect, run)
            })
        }
    }

    /// Asserts the indexed extraction `Debug`-equal to the all-pairs
    /// scan: every node, resistor, capacitor and coupling, in order and
    /// bit for bit. The scan judges every pair from both sides (no net
    /// is marked as still to come, so none leaves an answer for
    /// another), so it also holds judging a pair once to the bits.
    fn assert_matches_all_pairs(layout: &Layout, netlist: &FlatNetlist, process: &Process) {
        let indexed = extract(layout, netlist, process);
        let mut scratch = Scratch::new(vec![false; netlist.net_count()]);
        let scanned = Extracted {
            nets: (0..netlist.net_count() as u32)
                .map(|id| {
                    let q = AllPairs(layout);
                    extract_net(&q, layout, netlist, process, NetId(id), &mut scratch)
                })
                .collect(),
        };
        assert_eq!(
            format!("{indexed:?}"),
            format!("{scanned:?}"),
            "{}: indexed extraction differs from the all-pairs scan",
            layout.name
        );
    }

    /// Entries the index's bands hold, and the distinct
    /// shapes they index (a shape in two indexes counts twice).
    fn entries_and_shapes(index: &ShapeIndex) -> (usize, usize) {
        let (mut entries, mut shapes) = (0, 0);
        for layer in &index.layers {
            for banded in [
                &layer.vertical,
                &layer.horizontal,
                &layer.by_x0,
                &layer.by_y0,
            ] {
                let mut ids = banded.ids.clone();
                ids.sort_unstable();
                ids.dedup();
                entries += banded.ids.len();
                shapes += ids.len();
            }
        }
        (entries, shapes)
    }

    /// The ids `near` scans per call, asked once about every shape of
    /// `layout`, the layout `view` indexes.
    fn near_scanned_per_call(view: &Indexed, layout: &Layout) -> f64 {
        let before = view.scanned.get();
        for s in &layout.shapes {
            view.near(s.layer, s.rect, |_| {});
        }
        let scanned = view.scanned.get() - before;
        scanned as f64 / layout.shapes.len().max(1) as f64
    }

    /// The oracle on ten generated designs, and the work gate on them
    /// and on alu64, the top of the ladder (too big for the quadratic
    /// oracle): the aggressor and shield windows hand out at most 30 ids
    /// per shape, flat from alu8 to alu32 (a strip across the datapath
    /// grows with the bit count), from at most two index entries per
    /// indexed shape, and `near`, asked about every shape, at most 30
    /// ids per call (about 12–14).
    #[test]
    fn indexed_extraction_equals_the_all_pairs_scan_on_generated_designs() {
        use cbv_gen::adders::{manchester_domino_adder, static_ripple_adder};
        use cbv_gen::{cam::cam_match_line, datapath::alu_slice, regfile::register_file};
        let p = Process::strongarm_035();
        let designs = [
            (alu_slice(4, &p), true),
            (alu_slice(8, &p), true),
            (alu_slice(16, &p), true),
            (alu_slice(32, &p), true),
            (alu_slice(64, &p), false),
            (manchester_domino_adder(4, &p), true),
            (manchester_domino_adder(32, &p), true),
            (manchester_domino_adder(64, &p), true),
            (static_ripple_adder(8, &p), true),
            (register_file(8, 8, &p), true),
            (cam_match_line(16, &p), true),
        ];
        let mut per_shape = HashMap::new();
        for (design, oracle) in designs {
            let netlist = design.netlist;
            let layout = synthesize(&netlist, &p);
            if oracle {
                assert_matches_all_pairs(&layout, &netlist, &p);
            }
            let index = ShapeIndex::new(&layout, netlist.net_count(), &p);
            let view = Indexed::new(&index, &layout.shapes);
            extract_with(&view, &layout, &netlist, &p);
            let scanned = view.scanned.get() as f64 / layout.shapes.len() as f64;
            let (entries, shapes) = entries_and_shapes(&index);
            assert!(
                scanned <= 30.0,
                "{}: {scanned:.1} ids scanned per shape",
                netlist.name()
            );
            let near = near_scanned_per_call(&view, &layout);
            assert!(
                near <= 30.0,
                "{}: {near:.1} ids scanned per near call",
                netlist.name()
            );
            assert!(
                entries <= 2 * shapes,
                "{}: {entries} index entries for {shapes} indexed shapes",
                netlist.name()
            );
            per_shape.insert(netlist.name().to_string(), scanned);
        }
        let growth = per_shape["alu32"] / per_shape["alu8"];
        assert!(
            growth <= 1.25,
            "ids scanned per shape grew {growth:.2}x from alu8 to alu32"
        );
    }

    /// Each coupling pair is judged once: the shield queries a full
    /// extraction of alu8 asks are as many as the distinct pairs of
    /// shapes on other nets, one of them a victim, running parallel
    /// within the coupling cut — 4,477, where judging each direction
    /// of a pair asked 8,954.
    #[test]
    fn each_coupling_pair_is_judged_once() {
        let p = Process::strongarm_035();
        let netlist = cbv_gen::datapath::alu_slice(8, &p).netlist;
        let layout = synthesize(&netlist, &p);
        let index = ShapeIndex::new(&layout, netlist.net_count(), &p);
        let view = Indexed::new(&index, &layout.shapes);
        extract_with(&view, &layout, &netlist, &p);

        let shapes = &layout.shapes;
        let victim = |s: &Shape| s.net.is_some_and(|n| n.index() < netlist.net_count());
        let mut pairs = 0;
        for (a, sa) in shapes.iter().enumerate() {
            for sb in &shapes[a + 1..] {
                if sa.layer != sb.layer
                    || sa.net.is_none()
                    || sb.net.is_none()
                    || sa.net == sb.net
                    || !(victim(sa) || victim(sb))
                {
                    continue;
                }
                let cut = 5.0 * p.wires().params(sa.layer).spacing_min;
                if parallel_run(sa.rect, sb.rect).is_some_and(|(_, gap)| gap as f64 * 1e-9 <= cut) {
                    pairs += 1;
                }
            }
        }
        assert_eq!(view.shield_queries.get(), pairs, "shield queries");
        assert_eq!(pairs, 4_477, "alu8's coupling pairs");
    }

    /// One shape of a random layout: layer, position, long and short
    /// side, and kind.
    type Draw = (usize, u32, u32, u32, u32, u8);

    /// A random layout on all five layers from `draws`: dense and sparse
    /// (`scale` spreads the same draw out past the coupling reach), thin
    /// wires both ways, wires across the whole drawn extent (as a power
    /// rail runs across a datapath), duplicated rectangles, zero-extent
    /// ones, net-less shapes (which shield but never couple) and shapes
    /// on net 5, which a five-net netlist lacks (an aggressor, never a
    /// victim). Every shape is moved by `shift` on both axes.
    fn random_layout(scale: u32, shift: i64, draws: &[Draw]) -> Layout {
        let extent = drawn_extent(scale, draws);
        let mut shapes: Vec<Shape> = Vec::new();
        for &draw in draws {
            shapes.push(random_shape(scale, shift, extent, shapes.last(), draw));
        }
        Layout {
            name: "random".into(),
            shapes,
            sites: Vec::new(),
        }
    }

    /// The box the draws cover before the shift.
    fn drawn_extent(scale: u32, draws: &[Draw]) -> Rect {
        draws
            .iter()
            .map(|&(_, x, y, long, _, _)| {
                let (x, y) = (i64::from(x * scale), i64::from(y * scale));
                Rect::new(x, y, x + i64::from(long), y + i64::from(long))
            })
            .reduce(|a, b| a.union(b))
            .unwrap_or_default()
    }

    /// The shape one draw makes; kind 8 copies `prev`'s rectangle onto
    /// another net, kind 11 spans `extent`.
    fn random_shape(
        scale: u32,
        shift: i64,
        extent: Rect,
        prev: Option<&Shape>,
        (layer, x, y, long, short, kind): Draw,
    ) -> Shape {
        let (x, y) = (i64::from(x * scale), i64::from(y * scale));
        let (long, thin) = (i64::from(long), i64::from(short / 4));
        let rect = match (kind, prev) {
            (8, Some(prev)) => prev.rect,
            _ => match kind {
                9 => Rect::new(x, y, x, y + long),
                10 => Rect::new(x, y, x, y),
                11 if short % 2 == 0 => Rect::new(extent.x0, y, extent.x1, y + thin),
                11 => Rect::new(x, extent.y0, x + thin, extent.y1),
                _ if short % 2 == 0 => Rect::new(x, y, x + long, y + thin),
                _ => Rect::new(x, y, x + thin, y + long),
            }
            .translate(shift, shift),
        };
        let net = match kind {
            0..=5 => Some(NetId(u32::from(kind))),
            6 => None,
            11 => Some(NetId(short % 6)),
            _ => Some(NetId(u32::from(kind) % 5)),
        };
        Shape {
            layer: Layer::ALL[layer],
            rect,
            net,
        }
    }

    /// The draw strategy of the random-layout properties.
    fn draws() -> impl Strategy<Value = Vec<Draw>> {
        proptest::collection::vec(
            (
                0usize..5,
                0u32..900,
                0u32..900,
                0u32..700,
                0u32..160,
                0u8..12,
            ),
            0..140,
        )
    }

    /// No shift in half the cases; in the other half one of up to the
    /// drawn extent below zero, so coordinates fall on both sides of it
    /// and so do band edges.
    fn shift(scale: u32, (moved, by): (u8, u32)) -> i64 {
        if moved == 0 {
            0
        } else {
            -i64::from(by % (1000 * scale))
        }
    }

    /// Five signal nets and three devices wired across them, so nets
    /// carry gate and diffusion load as well as geometry.
    fn random_netlist() -> FlatNetlist {
        let mut netlist = FlatNetlist::new("random");
        for n in 0..5 {
            netlist.add_net(&format!("n{n}"), NetKind::Signal);
        }
        for (i, (g, d, s)) in [(0, 1, 2), (3, 2, 4), (1, 4, 0)].into_iter().enumerate() {
            netlist.add_device(Device::mos(
                MosKind::Nmos,
                format!("m{i}"),
                NetId(g),
                NetId(d),
                NetId(s),
                NetId(4),
                1e-6,
                0.35e-6,
            ));
        }
        netlist
    }

    proptest! {
        #[test]
        fn indexed_extraction_equals_the_all_pairs_scan_on_random_layouts(
            scale in 1u32..40,
            moved in (0u8..2, 0u32..40_000),
            draws in draws(),
        ) {
            let process = Process::strongarm_035();
            let layout = random_layout(scale, shift(scale, moved), &draws);
            assert_matches_all_pairs(&layout, &random_netlist(), &process);
        }

        /// Perturbs shapes of a random layout (moved, stretched, dropped,
        /// inserted) and resizes devices: a splice from the old layout's
        /// extraction, told which shapes the edits touched, equals a full
        /// extraction of the new one, bit for bit.
        #[test]
        fn spliced_extraction_equals_a_full_one_on_perturbed_layouts(
            scale in 1u32..40,
            moved in (0u8..2, 0u32..40_000),
            draws in draws(),
            edits in proptest::collection::vec(
                (0usize..1000, 0u8..4, 0u32..400, 0u32..400, 0u8..12),
                1..6,
            ),
            resize in 0u8..8,
        ) {
            let process = Process::strongarm_035();
            let old_netlist = random_netlist();
            let shift = shift(scale, moved);
            let old = random_layout(scale, shift, &draws);
            let base_index = ShapeIndex::new(&old, old_netlist.net_count(), &process);
            let base = base_index.extract(&old, &old_netlist, &process);

            // Each shape with the old id it keeps, or none when an edit
            // moved, stretched or inserted it.
            let mut shapes: Vec<(Shape, Option<u32>)> =
                old.shapes.iter().cloned().zip((0..).map(Some)).collect();
            for &(at, action, dx, dy, kind) in &edits {
                let n = shapes.len();
                let (dx, dy) = (i64::from(dx) - 200, i64::from(dy) - 200);
                match action {
                    0 if n > 0 => {
                        let (s, from) = &mut shapes[at % n];
                        s.rect = s.rect.translate(dx, dy);
                        *from = None;
                    }
                    1 if n > 0 => {
                        let (s, from) = &mut shapes[at % n];
                        s.rect = Rect::new(s.rect.x0, s.rect.y0, s.rect.x1, s.rect.y1 + dy.abs());
                        *from = None;
                    }
                    2 if n > 0 => {
                        shapes.remove(at % n);
                    }
                    _ => {
                        let draw = (at % 5, dx.unsigned_abs() as u32, dy.unsigned_abs() as u32,
                            300, 40, kind);
                        let extent = drawn_extent(scale, &draws);
                        let fresh = random_shape(scale, shift, extent, None, draw);
                        shapes.insert(at % (n + 1), (fresh, None));
                    }
                }
            }
            let mut diff = ShapeDiff {
                renumber: vec![u32::MAX; old.shapes.len()],
                ..ShapeDiff::default()
            };
            for (j, (_, from)) in shapes.iter().enumerate() {
                match from {
                    Some(i) => diff.renumber[*i as usize] = j as u32,
                    None => diff.added.push(j as u32),
                }
            }
            let gone = old.shapes.iter().zip(&diff.renumber);
            diff.removed = gone.filter(|(_, &j)| j == u32::MAX).map(|(s, _)| s.clone()).collect();
            let layout = Layout {
                shapes: shapes.into_iter().map(|(s, _)| s).collect(),
                ..old.clone()
            };
            let mut netlist = old_netlist.clone();
            let resized: Vec<DeviceId> = (0..3u32)
                .filter(|d| resize & (1 << d) != 0)
                .map(DeviceId)
                .collect();
            for &d in &resized {
                netlist.device_mut(d).w *= 1.5;
            }

            let full = format!("{:?}", extract(&layout, &netlist, &process));
            let s = extract_spliced(base, base_index, &diff, &layout, &netlist, &process, &resized)
                .expect("the net count stays");
            prop_assert!(s.redone.len() <= netlist.net_count());
            prop_assert_eq!(format!("{:?}", s.extracted), full.clone());
            // The patched (or rebuilt) index answers every net.
            let through = s.index.extract(&layout, &netlist, &process);
            prop_assert_eq!(format!("{through:?}"), full);
        }
    }

    /// Packing is exact: every net, coupling, resistor and capacitance
    /// comes back bit for bit, a NaN resistor and an absent net too.
    #[test]
    fn a_packed_extraction_unpacks_bit_for_bit() {
        let p = Process::strongarm_035();
        let netlist = cbv_gen::datapath::alu_slice(8, &p).netlist;
        let layout = synthesize(&netlist, &p);
        let mut extracted = extract(&layout, &netlist, &p);
        let en = extracted.net_mut(NetId(3)).expect("net 3 is extracted");
        let tip = en.rc.fresh_node();
        en.rc
            .add_resistor(en.rc.first_node(), tip, Ohms::new(f64::NAN));
        extracted.nets.push(None);
        let unpacked = extracted.pack().unpack();
        assert_eq!(format!("{unpacked:?}"), format!("{extracted:?}"));
        let bits = |e: &Extracted| -> Vec<u64> {
            e.iter()
                .flat_map(|n| n.rc.parts().0.iter().map(|r| r.2.ohms().to_bits()))
                .collect()
        };
        assert_eq!(bits(&unpacked), bits(&extracted), "NaN payloads too");
    }

    /// Resizes devices of generated designs one at a time and patches
    /// the layout: every edit splices, re-extracts a small share of the
    /// nets and equals a full extraction bit for bit. The index each
    /// splice patches from the last one's is never rebuilt, re-extracts
    /// every net equal to a full extraction too, and its windows still
    /// hand out at most 30 ids per shape.
    #[test]
    fn spliced_extraction_equals_a_full_one_after_each_resize() {
        use cbv_gen::adders::manchester_domino_adder;
        use cbv_gen::datapath::alu_slice;
        let p = Process::strongarm_035();
        for design in [alu_slice(8, &p), manchester_domino_adder(8, &p)] {
            let mut netlist = design.netlist;
            let mut layout = synthesize(&netlist, &p);
            let mut index = ShapeIndex::new(&layout, netlist.net_count(), &p);
            let mut extracted = index.extract(&layout, &netlist, &p);
            let n_devices = netlist.devices().len() as u32;
            let (mut redone_total, mut rebuilds) = (0, 0);
            for step in 0..24u32 {
                let d = DeviceId(step * 7919 % n_devices);
                let factor = if step % 2 == 0 { 0.97 } else { 1.02 };
                netlist.device_mut(d).w *= factor;
                let (next, diff) = layout
                    .resized(&netlist, &p)
                    .expect("no resize moves the NMOS row");
                let s = extract_spliced(extracted, index, &diff, &next, &netlist, &p, &[d])
                    .expect("the net count stays");
                let full = format!("{:?}", extract(&next, &netlist, &p));
                let view = Indexed::new(&s.index, &next.shapes);
                let through = format!("{:?}", extract_with(&view, &next, &netlist, &p));
                for (what, got) in [
                    ("spliced", format!("{:?}", s.extracted)),
                    ("re-extracted", through),
                ] {
                    assert!(
                        got == full,
                        "{} step {step}: the {what} extraction differs",
                        netlist.name()
                    );
                }
                let scanned = view.scanned.get() as f64 / next.shapes.len() as f64;
                let near = near_scanned_per_call(&view, &next);
                for (what, per) in [("per shape", scanned), ("per near call", near)] {
                    assert!(
                        per <= 30.0,
                        "{} step {step}: the patched windows scan {per:.1} ids {what}",
                        netlist.name()
                    );
                }
                redone_total += s.redone.len();
                rebuilds += usize::from(s.index_rebuilt);
                (layout, index, extracted) = (next, s.index, s.extracted);
            }
            assert_eq!(rebuilds, 0, "{}: index rebuilds", netlist.name());
            assert!(
                redone_total < 24 * netlist.net_count() / 4,
                "{}: {redone_total} nets re-extracted over 24 resizes of {} nets",
                netlist.name(),
                netlist.net_count()
            );
        }
    }

    fn extracted_nand() -> (FlatNetlist, Extracted) {
        let mut f = FlatNetlist::new("nand2");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pa",
            a,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pb",
            b,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            y,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b,
            x,
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let process = Process::strongarm_035();
        let layout = synthesize(&f, &process);
        let ex = extract(&layout, &f, &process);
        (f, ex)
    }

    #[test]
    fn signal_nets_have_positive_caps() {
        let (f, ex) = extracted_nand();
        for name in ["a", "b", "y"] {
            let n = f.find_net(name).unwrap();
            let e = ex.net(n).unwrap();
            assert!(e.wire_cap.farads() > 0.0, "{name} wire cap");
            assert!(e.total_cap().farads() > e.wire_cap.farads());
        }
    }

    #[test]
    fn input_nets_carry_gate_cap_output_carries_diffusion() {
        let (f, ex) = extracted_nand();
        let a = ex.net(f.find_net("a").unwrap()).unwrap();
        assert!(a.gate_cap.farads() > 0.0, "a drives two gates");
        let y = ex.net(f.find_net("y").unwrap()).unwrap();
        assert!(y.diff_cap.farads() > 0.0, "y touches three channels");
        assert!(y.gate_cap.farads() == 0.0, "nothing gates on y here");
    }

    #[test]
    fn bounds_bracket_nominal() {
        let (f, ex) = extracted_nand();
        let y = f.find_net("y").unwrap();
        let tol = Tolerance::conservative();
        let (lo, hi) = ex.cap_bounds(y, &tol);
        let nom = ex.total_cap(y);
        assert!(lo.farads() < nom.farads());
        assert!(hi.farads() > nom.farads());
        // Nominal tolerance collapses the window (gate-context bounds
        // remain, so equality only holds for the wire/coupling part).
        let (lo2, hi2) = ex.cap_bounds(y, &Tolerance::nominal());
        assert!(lo2.farads() <= hi2.farads());
        assert!(hi2.farads() <= hi.farads());
    }

    #[test]
    fn coupling_exists_between_adjacent_tracks() {
        let (f, ex) = extracted_nand();
        // At least one signal net must see a coupling neighbor in the
        // routing channel.
        let coupled = ["a", "b", "y"].iter().any(|name| {
            let n = f.find_net(name).unwrap();
            ex.net(n).map(|e| !e.couplings.is_empty()).unwrap_or(false)
        });
        assert!(coupled, "routed channel must produce coupling");
    }

    #[test]
    fn coupling_is_roughly_symmetric() {
        let (f, ex) = extracted_nand();
        for e in ex.iter() {
            for &(other, c) in &e.couplings {
                if let Some(oe) = ex.net(other) {
                    if let Some(&(_, back)) = oe.couplings.iter().find(|(n, _)| *n == e.net) {
                        let ratio = c.farads() / back.farads();
                        assert!(
                            (0.5..=2.0).contains(&ratio),
                            "asymmetric coupling {} <-> {}: {} vs {}",
                            f.net_name(e.net),
                            f.net_name(other),
                            c,
                            back
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn unplaced_net_without_devices_is_unextracted() {
        let mut f = FlatNetlist::new("lonely");
        let n = f.add_net("n", NetKind::Signal);
        let process = Process::strongarm_035();
        let layout = synthesize(&f, &process);
        let ex = extract(&layout, &f, &process);
        assert!(ex.net(n).is_none());
        assert_eq!(ex.total_cap(n), Farads::ZERO);
    }
}
