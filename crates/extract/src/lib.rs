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
//! * [`Extracted`] — the queryable result, including **min/max bounded**
//!   total net capacitance under a [`Tolerance`] (manufacturing spread ×
//!   Miller factor), and device loading (gate + diffusion) computed from
//!   the netlist and process models.

pub mod rc;

pub use rc::{RcNet, RcNodeId};

use std::collections::HashMap;

use cbv_layout::{Layout, Rect, Shape};
use cbv_netlist::{FlatNetlist, NetId, NetUse};
use cbv_tech::{Farads, Layer, Process, Tolerance};

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

/// Runs geometric + device extraction over a layout and its netlist.
///
/// Every geometric question is answered from an index (`ShapeIndex`),
/// so the cost grows with the shapes and the pairs that can actually
/// couple, not with their product. The answers list shapes in ascending
/// index, the order an all-pairs scan meets them, so every
/// floating-point sum is taken in the scan's order and the result is
/// the scan's, bit for bit (the test oracle holds this).
pub fn extract(layout: &Layout, netlist: &FlatNetlist, process: &Process) -> Extracted {
    extract_with(
        &ShapeIndex::new(layout, netlist.net_count(), process),
        layout,
        netlist,
        process,
    )
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
    /// Whether some third shape [`screens`] `victim` from `aggressor`.
    fn shielded(&self, victim: u32, aggressor: u32, run: i64) -> bool;
}

fn extract_with(
    q: &impl ShapeQueries,
    layout: &Layout,
    netlist: &FlatNetlist,
    process: &Process,
) -> Extracted {
    let mut nets: Vec<Option<ExtractedNet>> = (0..netlist.net_count()).map(|_| None).collect();
    let uses = netlist.uses_table();
    let (mut shapes, mut ties, mut candidates) = (Vec::new(), Vec::new(), Vec::new());
    let mut nodes = HashMap::new();

    for id in 0..netlist.net_count() as u32 {
        let net = NetId(id);
        q.net_shapes(net, &mut shapes);
        let has_devices = !uses[net.index()].is_empty();
        if shapes.is_empty() && !has_devices {
            continue;
        }

        // --- Wire ground capacitance and RC network ---
        let mut wire_cap = Farads::ZERO;
        let mut rc = RcNet::new(net);
        nodes.clear();
        for &i in &shapes {
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
            let na = rc.node_at(&mut nodes, a.0, a.1);
            let nb = rc.node_at(&mut nodes, b.0, b.1);
            let r = p.resistance(len, wid);
            let c = p.ground_capacitance(len, wid);
            rc.add_resistor(na, nb, r);
            rc.add_cap(na, c / 2.0);
            rc.add_cap(nb, c / 2.0);
        }
        // Merge nodes of touching shapes: node_at dedups exact points;
        // additionally tie together shapes that intersect.
        q.ties(&shapes, &mut ties);
        for &(a, b) in &ties {
            let c1 = layout.shapes[shapes[a as usize] as usize].rect.center();
            let c2 = layout.shapes[shapes[b as usize] as usize].rect.center();
            let n1 = rc.node_at(&mut nodes, c1.x, c1.y);
            let n2 = rc.node_at(&mut nodes, c2.x, c2.y);
            // Zero-ohm tie approximated by a tiny resistor.
            rc.add_resistor(n1, n2, cbv_tech::Ohms::new(1e-3));
        }
        rc.shrink_to_fit();

        // --- Coupling to parallel neighbors ---
        let mut couplings: Vec<(NetId, Farads)> = Vec::new();
        for &vi in &shapes {
            let s = &layout.shapes[vi as usize];
            let p = process.wires().params(s.layer);
            q.aggressors(vi, &mut candidates);
            for &oi in &candidates {
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
                if q.shielded(vi, oi, run) {
                    continue;
                }
                // Sub-minimum gaps are DRC errors, not infinite
                // capacitors: clamp at the minimum-spacing coupling.
                let cc = p.coupling_capacitance(run as f64 * 1e-9, gap_m.max(p.spacing_min));
                match couplings.iter_mut().find(|(n, _)| *n == onet) {
                    Some((_, acc)) => *acc += cc,
                    None => couplings.push((onet, cc)),
                }
            }
        }
        couplings.shrink_to_fit();

        // --- Device loading ---
        let mut gate_cap = Farads::ZERO;
        let mut gate_min = Farads::ZERO;
        let mut gate_max = Farads::ZERO;
        let mut diff_cap = Farads::ZERO;
        for u in &uses[net.index()] {
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

        nets[net.index()] = Some(ExtractedNet {
            net,
            wire_cap,
            couplings,
            gate_cap,
            gate_cap_bounds: (gate_min, gate_max),
            diff_cap,
            rc,
        });
    }
    Extracted { nets }
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

/// The extraction indexes over one layout.
///
/// * Net → shapes as CSR: `net_ids[net_start[n]..net_start[n + 1]]`
///   are net `n`'s shapes, ascending.
/// * Per layer, four `u32` arrays of shape indices sorted by one edge:
///   the net-carrying vertical wires by `x0` and horizontal ones by
///   `y0` (coupling aggressors run parallel, so their cross-axis edge
///   bounds the gap), and every shape on the layer by `x0` and by `y0`
///   (any shape, net-less fill included, can shield).
struct ShapeIndex<'a> {
    layout: &'a Layout,
    net_start: Vec<u32>,
    net_ids: Vec<u32>,
    layers: Vec<LayerIndex>,
}

struct LayerIndex {
    /// Gaps beyond this many nm never couple on this layer.
    reach: i64,
    vertical: EdgeIndex,
    horizontal: EdgeIndex,
    by_x0: EdgeIndex,
    by_y0: EdgeIndex,
}

/// Shape indices sorted by the low end of one axis (ties by index),
/// with the widest extent along that axis among them.
struct EdgeIndex {
    ids: Vec<u32>,
    /// The axis: a rectangle's `(low, high)` edges on it.
    edges: fn(&Rect) -> (i64, i64),
    max_extent: i64,
}

impl EdgeIndex {
    fn new(shapes: &[Shape], mut ids: Vec<u32>, edges: fn(&Rect) -> (i64, i64)) -> EdgeIndex {
        ids.sort_unstable_by_key(|&i| (edges(&shapes[i as usize].rect).0, i));
        ids.shrink_to_fit();
        let max_extent = ids
            .iter()
            .map(|&i| {
                let (lo, hi) = edges(&shapes[i as usize].rect);
                hi - lo
            })
            .max()
            .unwrap_or(0);
        EdgeIndex {
            ids,
            edges,
            max_extent,
        }
    }

    /// The indexed shapes whose low edge lies in `[lo, hi]`.
    fn window(&self, shapes: &[Shape], lo: i64, hi: i64) -> &[u32] {
        let key = |&i: &u32| (self.edges)(&shapes[i as usize].rect).0;
        let from = self.ids.partition_point(|i| key(i) < lo);
        let to = self.ids.partition_point(|i| key(i) <= hi);
        &self.ids[from..to.max(from)]
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

impl<'a> ShapeIndex<'a> {
    fn new(layout: &'a Layout, net_count: usize, process: &Process) -> ShapeIndex<'a> {
        let shapes = &layout.shapes;
        // Net → shapes: count, prefix-sum, fill in index order. Shapes
        // on nets the netlist does not have are never victims.
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

        let layers = Layer::ALL
            .iter()
            .map(|&layer| {
                let on: Vec<u32> = (0..shapes.len() as u32)
                    .filter(|&i| shapes[i as usize].layer == layer)
                    .collect();
                let wires = |vertical: bool| -> Vec<u32> {
                    on.iter()
                        .copied()
                        .filter(|&i| {
                            let s = &shapes[i as usize];
                            s.net.is_some() && s.rect.is_vertical() == vertical
                        })
                        .collect()
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
                LayerIndex {
                    reach,
                    vertical: EdgeIndex::new(shapes, wires(true), x_edges),
                    horizontal: EdgeIndex::new(shapes, wires(false), y_edges),
                    by_x0: EdgeIndex::new(shapes, on.clone(), x_edges),
                    by_y0: EdgeIndex::new(shapes, on, y_edges),
                }
            })
            .collect();
        ShapeIndex {
            layout,
            net_start,
            net_ids,
            layers,
        }
    }
}

impl ShapeQueries for ShapeIndex<'_> {
    fn net_shapes(&self, net: NetId, out: &mut Vec<u32>) {
        out.clear();
        if net.index() + 1 < self.net_start.len() {
            let (from, to) = (self.net_start[net.index()], self.net_start[net.index() + 1]);
            out.extend_from_slice(&self.net_ids[from as usize..to as usize]);
        }
    }

    /// A sweep in `x0` order: a shape can only intersect the ones whose
    /// `x0` lies before its own `x1`.
    fn ties(&self, shapes: &[u32], out: &mut Vec<(u32, u32)>) {
        out.clear();
        let rect = |pos: u32| self.layout.shapes[shapes[pos as usize] as usize].rect;
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

    /// Aggressors run parallel to the victim on its layer, so their low
    /// cross-axis edge lies within `reach` past the victim's far edge,
    /// or within `reach` plus the widest indexed extent before its near
    /// edge.
    fn aggressors(&self, victim: u32, out: &mut Vec<u32>) {
        out.clear();
        let shapes = &self.layout.shapes;
        let s = &shapes[victim as usize];
        let layer = &self.layers[layer_slot(s.layer)];
        let index = if s.rect.is_vertical() {
            &layer.vertical
        } else {
            &layer.horizontal
        };
        let (lo, hi) = (index.edges)(&s.rect);
        let from = lo
            .saturating_sub(layer.reach)
            .saturating_sub(index.max_extent);
        let to = hi.saturating_add(layer.reach);
        out.extend(
            index
                .window(shapes, from, to)
                .iter()
                .copied()
                .filter(|&i| parallel_run(s.rect, shapes[i as usize].rect).is_some()),
        );
        out.sort_unstable();
    }

    /// A shield lies wholly inside the gap, so its low edge does too.
    fn shielded(&self, victim: u32, aggressor: u32, run: i64) -> bool {
        let shapes = &self.layout.shapes;
        let (s, other) = (
            shapes[victim as usize].rect,
            shapes[aggressor as usize].rect,
        );
        let layer = &self.layers[layer_slot(shapes[victim as usize].layer)];
        let (index, (lo, hi)) = if s.is_vertical() {
            (&layer.by_x0, between(s.x0, s.x1, other.x0, other.x1))
        } else {
            (&layer.by_y0, between(s.y0, s.y1, other.y0, other.y1))
        };
        index.window(shapes, lo, hi).iter().any(|&m| {
            m != victim && m != aggressor && screens(shapes[m as usize].rect, s, other, run)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, NetKind};
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
    /// bit for bit.
    fn assert_matches_all_pairs(layout: &Layout, netlist: &FlatNetlist, process: &Process) {
        let indexed = extract(layout, netlist, process);
        let scanned = extract_with(&AllPairs(layout), layout, netlist, process);
        assert_eq!(
            format!("{indexed:?}"),
            format!("{scanned:?}"),
            "{}: indexed extraction differs from the all-pairs scan",
            layout.name
        );
    }

    #[test]
    fn indexed_extraction_equals_the_all_pairs_scan_on_generated_designs() {
        use cbv_gen::adders::{manchester_domino_adder, static_ripple_adder};
        use cbv_gen::{cam::cam_match_line, datapath::alu_slice, regfile::register_file};
        let p = Process::strongarm_035();
        let designs = [
            alu_slice(4, &p),
            alu_slice(8, &p),
            alu_slice(16, &p),
            alu_slice(32, &p),
            manchester_domino_adder(4, &p),
            manchester_domino_adder(32, &p),
            manchester_domino_adder(64, &p),
            static_ripple_adder(8, &p),
            register_file(8, 8, &p),
            cam_match_line(16, &p),
        ];
        for design in designs {
            let mut netlist = design.netlist;
            let layout = synthesize(&mut netlist, &p);
            assert_matches_all_pairs(&layout, &netlist, &p);
        }
    }

    proptest! {
        /// Random layouts on all five layers: dense and sparse (`scale`
        /// spreads the same draw out past the coupling reach), thin
        /// wires both ways, duplicated rectangles, zero-extent ones,
        /// net-less shapes (which shield but never couple) and shapes
        /// on a net the netlist lacks (an aggressor, never a victim).
        #[test]
        fn indexed_extraction_equals_the_all_pairs_scan_on_random_layouts(
            scale in 1u32..40,
            draws in proptest::collection::vec(
                (0usize..5, 0u32..900, 0u32..900, 0u32..700, 0u32..160, 0u8..11),
                0..140,
            ),
        ) {
            let process = Process::strongarm_035();
            let mut netlist = FlatNetlist::new("random");
            for n in 0..5 {
                netlist.add_net(&format!("n{n}"), NetKind::Signal);
            }
            let mut shapes: Vec<cbv_layout::Shape> = Vec::new();
            for &(layer, x, y, long, short, kind) in &draws {
                let (x, y) = (i64::from(x * scale), i64::from(y * scale));
                let (long, short) = (i64::from(long), i64::from(short));
                let rect = match kind {
                    // A copy of the previous rectangle on another net.
                    8 if !shapes.is_empty() => shapes[shapes.len() - 1].rect,
                    9 => Rect::new(x, y, x, y + long),
                    10 => Rect::new(x, y, x, y),
                    _ if short % 2 == 0 => Rect::new(x, y, x + long, y + short / 4),
                    _ => Rect::new(x, y, x + short / 4, y + long),
                };
                let net = match kind {
                    0..=5 => Some(NetId(u32::from(kind))),
                    6 => None,
                    _ => Some(NetId(u32::from(kind) % 5)),
                };
                shapes.push(cbv_layout::Shape { layer: Layer::ALL[layer], rect, net });
            }
            let layout = Layout { name: "random".into(), shapes, sites: Vec::new() };
            assert_matches_all_pairs(&layout, &netlist, &process);
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
        let layout = synthesize(&mut f, &process);
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
        let layout = synthesize(&mut f, &process);
        let ex = extract(&layout, &f, &process);
        assert!(ex.net(n).is_none());
        assert_eq!(ex.total_cap(n), Farads::ZERO);
    }
}
