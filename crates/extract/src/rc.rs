//! Distributed RC networks with Elmore delay evaluation.
//!
//! The paper replaces SPICE with conservative closed-form models (§4.3);
//! the workhorse is the Elmore delay through an RC tree. [`RcNet`] stores
//! an arbitrary resistor/capacitor graph; delay evaluation runs on a
//! spanning tree from the driver (extracted wire networks are trees up to
//! deliberate zero-ohm ties, which the traversal handles).

use std::collections::HashMap;

use cbv_netlist::NetId;
use cbv_tech::{Farads, Ohms, Seconds};

/// Index of an electrical node within one [`RcNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RcNodeId(pub u32);

/// Per-node `(parent, edge resistance)` rows of a BFS spanning tree.
type ParentTable = Vec<Option<(RcNodeId, Ohms)>>;

impl RcNodeId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A per-net RC network.
#[derive(Debug, Clone)]
pub struct RcNet {
    /// The net this network models.
    pub net: NetId,
    resistors: Vec<(RcNodeId, RcNodeId, Ohms)>,
    /// Grounded capacitance per node; its length is the node count.
    caps: Vec<Farads>,
}

impl RcNet {
    /// An empty network for a net.
    pub fn new(net: NetId) -> RcNet {
        RcNet {
            net,
            resistors: Vec::new(),
            caps: Vec::new(),
        }
    }

    /// A uniform distributed line of `segments` sections, total
    /// resistance `r_total` and total capacitance `c_total`. Node 0 is
    /// the near end; the last node is the far end. This is the classic
    /// π-ladder used in the Fig 5 distributed-driver study and the clock
    /// RC analyses.
    ///
    /// # Panics
    ///
    /// Panics if `segments` is zero.
    pub fn line(net: NetId, segments: usize, r_total: Ohms, c_total: Farads) -> RcNet {
        assert!(segments > 0, "a line needs at least one segment");
        let mut rc = RcNet::new(net);
        let r_seg = r_total / segments as f64;
        let c_seg = c_total / segments as f64;
        let mut prev = rc.fresh_node();
        rc.add_cap(prev, c_seg / 2.0);
        for _ in 0..segments {
            let next = rc.fresh_node();
            rc.add_resistor(prev, next, r_seg);
            rc.add_cap(next, c_seg);
            prev = next;
        }
        // Correct the far-end half cap (π model bookkeeping).
        let last = rc.caps.len() - 1;
        rc.caps[last] = c_seg / 2.0;
        rc
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.caps.len()
    }

    /// Node at an exact coordinate, creating it on first use. `index`
    /// maps every coordinate this network has placed a node at to that
    /// node — the network itself keeps no coordinates — so the lookup is
    /// O(1) however many nodes the net has.
    pub(crate) fn node_at(
        &mut self,
        index: &mut HashMap<(i64, i64), RcNodeId>,
        x: i64,
        y: i64,
    ) -> RcNodeId {
        *index.entry((x, y)).or_insert_with(|| self.fresh_node())
    }

    /// The resistors and the per-node capacitances.
    pub(crate) fn parts(&self) -> (&[(RcNodeId, RcNodeId, Ohms)], &[Farads]) {
        (&self.resistors, &self.caps)
    }

    /// The network with exactly these resistors and node capacitances.
    pub(crate) fn from_parts(
        net: NetId,
        resistors: Vec<(RcNodeId, RcNodeId, Ohms)>,
        caps: Vec<Farads>,
    ) -> RcNet {
        RcNet {
            net,
            resistors,
            caps,
        }
    }

    /// Drops the spare capacity the network grew while being built.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.resistors.shrink_to_fit();
        self.caps.shrink_to_fit();
    }

    /// A new node.
    pub fn fresh_node(&mut self) -> RcNodeId {
        let id = RcNodeId(self.caps.len() as u32);
        self.caps.push(Farads::ZERO);
        id
    }

    /// Adds a resistor between two nodes.
    ///
    /// # Panics
    ///
    /// Panics if either node is out of range or the resistance negative.
    /// NaN is allowed through: a NaN parasitic must reach the timing
    /// checks (which report it as a failed signoff), not crash the
    /// extractor mid-flow.
    pub fn add_resistor(&mut self, a: RcNodeId, b: RcNodeId, r: Ohms) {
        assert!(a.index() < self.caps.len() && b.index() < self.caps.len());
        assert!(r.ohms() >= 0.0 || r.ohms().is_nan(), "negative resistance");
        self.resistors.push((a, b, r));
    }

    /// Adds grounded capacitance at a node.
    ///
    /// # Panics
    ///
    /// Panics if the node is out of range or the capacitance negative
    /// (NaN passes through, as with [`RcNet::add_resistor`]).
    pub fn add_cap(&mut self, node: RcNodeId, c: Farads) {
        assert!(
            c.farads() >= 0.0 || c.farads().is_nan(),
            "negative capacitance"
        );
        self.caps[node.index()] += c;
    }

    /// Total grounded capacitance in the network.
    pub fn total_cap(&self) -> Farads {
        self.caps.iter().copied().sum()
    }

    /// Total resistance along the spanning-tree path between two nodes.
    pub fn path_resistance(&self, from: RcNodeId, to: RcNodeId) -> Option<Ohms> {
        let (parent, _) = self.spanning_tree(from)?;
        let mut r = Ohms::ZERO;
        let mut cur = to;
        while cur != from {
            let (p, pr) = parent[cur.index()]?;
            r += pr;
            cur = p;
        }
        Some(r)
    }

    /// Elmore delay from `driver` (with source resistance `r_drive`) to
    /// `sink`: `Σ_k R_shared(driver→k) · C_k + r_drive · C_total`.
    ///
    /// Returns `None` when the sink is not reachable from the driver.
    pub fn elmore(&self, driver: RcNodeId, sink: RcNodeId, r_drive: Ohms) -> Option<Seconds> {
        let (parent, order) = self.spanning_tree(driver)?;
        if parent[sink.index()].is_none() && sink != driver {
            return None;
        }
        // Path from driver to sink as a set of (node, edge R).
        let mut on_path = vec![false; self.caps.len()];
        {
            let mut cur = sink;
            on_path[cur.index()] = true;
            while cur != driver {
                let (p, _) = parent[cur.index()].expect("checked reachable");
                cur = p;
                on_path[cur.index()] = true;
            }
        }
        // Downstream capacitance of each tree node (children sum), in
        // reverse BFS order.
        let mut down_cap: Vec<Farads> = self.caps.clone();
        for &node in order.iter().rev() {
            if let Some((p, _)) = parent[node.index()] {
                let c = down_cap[node.index()];
                down_cap[p.index()] += c;
            }
        }
        // Elmore: sum over path edges of R_edge * C_downstream(child),
        // plus driver resistance times everything.
        let mut t = Seconds::new(r_drive.ohms() * down_cap[driver.index()].farads());
        let mut cur = sink;
        while cur != driver {
            let (p, r) = parent[cur.index()].expect("checked reachable");
            t += Seconds::new(r.ohms() * down_cap[cur.index()].farads());
            cur = p;
        }
        Some(t)
    }

    /// Elmore delay from `driver` to *every* node in one pass:
    /// `result[k]` is the delay to node `k`, or `None` when `k` is
    /// unreachable from the driver. Equivalent to calling
    /// [`RcNet::elmore`] per node, but builds the spanning tree and the
    /// downstream-capacitance table once — O(nodes) total instead of
    /// O(nodes²) — which is what makes per-node sweeps (clock skew
    /// bounds, insertion-delay reports) cheap on large RC networks.
    ///
    /// Returns `None` for an empty network or out-of-range driver.
    pub fn elmore_all(&self, driver: RcNodeId, r_drive: Ohms) -> Option<Vec<Option<Seconds>>> {
        let (parent, order) = self.spanning_tree(driver)?;
        let mut down_cap: Vec<Farads> = self.caps.clone();
        for &node in order.iter().rev() {
            if let Some((p, _)) = parent[node.index()] {
                let c = down_cap[node.index()];
                down_cap[p.index()] += c;
            }
        }
        // Walking the tree in BFS order, each node's delay is its
        // parent's plus the edge term — the shared-resistance sum of the
        // classic formula unrolls into this prefix recurrence.
        let mut delays: Vec<Option<Seconds>> = vec![None; self.caps.len()];
        delays[driver.index()] = Some(Seconds::new(
            r_drive.ohms() * down_cap[driver.index()].farads(),
        ));
        for &node in &order {
            if node == driver {
                continue;
            }
            if let Some((p, r)) = parent[node.index()] {
                let base = delays[p.index()].expect("BFS order visits parents first");
                delays[node.index()] =
                    Some(base + Seconds::new(r.ohms() * down_cap[node.index()].farads()));
            }
        }
        Some(delays)
    }

    /// BFS spanning tree from a root: per-node `(parent, edge R)` plus
    /// visitation order. Returns `None` for an empty network.
    fn spanning_tree(&self, root: RcNodeId) -> Option<(ParentTable, Vec<RcNodeId>)> {
        if root.index() >= self.caps.len() {
            return None;
        }
        let n = self.caps.len();
        let mut adj: Vec<Vec<(RcNodeId, Ohms)>> = vec![Vec::new(); n];
        for &(a, b, r) in &self.resistors {
            adj[a.index()].push((b, r));
            adj[b.index()].push((a, r));
        }
        let mut parent: Vec<Option<(RcNodeId, Ohms)>> = vec![None; n];
        let mut seen = vec![false; n];
        seen[root.index()] = true;
        let mut order = vec![root];
        let mut head = 0;
        while head < order.len() {
            let u = order[head];
            head += 1;
            for &(v, r) in &adj[u.index()] {
                if !seen[v.index()] {
                    seen[v.index()] = true;
                    parent[v.index()] = Some((u, r));
                    order.push(v);
                }
            }
        }
        Some((parent, order))
    }

    /// The far-end node of a network built with [`RcNet::line`].
    pub fn last_node(&self) -> RcNodeId {
        RcNodeId((self.caps.len() - 1) as u32)
    }

    /// The near-end node of a network built with [`RcNet::line`].
    pub fn first_node(&self) -> RcNodeId {
        RcNodeId(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const NET: NetId = NetId(0);

    #[test]
    fn lumped_delay_matches_rc() {
        // Single segment: Elmore = r_drive*C + R*C_far.
        let rc = RcNet::line(NET, 1, Ohms::new(100.0), Farads::new(1e-12));
        let t = rc
            .elmore(rc.first_node(), rc.last_node(), Ohms::new(1000.0))
            .unwrap();
        // r_drive sees full 1pF; wire R sees far half (0.5pF).
        let expect = 1000.0 * 1e-12 + 100.0 * 0.5e-12;
        assert!((t.seconds() - expect).abs() < 1e-18, "{t}");
    }

    #[test]
    fn distributed_line_approaches_half_rc() {
        // Classic result: distributed RC line delay → 0.5·R·C as segments
        // grow (vs 1.0·R·C lumped).
        let r = Ohms::new(1000.0);
        let c = Farads::new(1e-12);
        let fine = RcNet::line(NET, 64, r, c);
        let t = fine
            .elmore(fine.first_node(), fine.last_node(), Ohms::ZERO)
            .unwrap();
        let rc_product = 1e-9;
        assert!(
            (t.seconds() / rc_product - 0.5).abs() < 0.02,
            "64-segment line: {} of RC",
            t.seconds() / rc_product
        );
        let coarse = RcNet::line(NET, 1, r, c);
        let t1 = coarse
            .elmore(coarse.first_node(), coarse.last_node(), Ohms::ZERO)
            .unwrap();
        assert!(
            t1.seconds() < t.seconds() * 1.2,
            "coarse model is not wildly off"
        );
    }

    #[test]
    fn elmore_monotone_along_line() {
        let rc = RcNet::line(NET, 8, Ohms::new(500.0), Farads::new(2e-13));
        let mut prev = Seconds::ZERO;
        for i in 1..=8u32 {
            let t = rc
                .elmore(rc.first_node(), RcNodeId(i), Ohms::new(100.0))
                .unwrap();
            assert!(t.seconds() > prev.seconds());
            prev = t;
        }
    }

    #[test]
    fn branching_tree_delays() {
        // Star: driver -R1-> a, driver -R2-> b. Sink a's delay includes
        // b's cap only through r_drive.
        let mut rc = RcNet::new(NET);
        let d = rc.fresh_node();
        let a = rc.fresh_node();
        let b = rc.fresh_node();
        rc.add_resistor(d, a, Ohms::new(100.0));
        rc.add_resistor(d, b, Ohms::new(200.0));
        rc.add_cap(a, Farads::new(1e-12));
        rc.add_cap(b, Farads::new(2e-12));
        let ta = rc.elmore(d, a, Ohms::new(50.0)).unwrap();
        // 50 * 3pF (everything) + 100 * 1pF (a branch).
        let expect = 50.0 * 3e-12 + 100.0 * 1e-12;
        assert!((ta.seconds() - expect).abs() < 1e-18);
        let tb = rc.elmore(d, b, Ohms::new(50.0)).unwrap();
        let expect_b = 50.0 * 3e-12 + 200.0 * 2e-12;
        assert!((tb.seconds() - expect_b).abs() < 1e-18);
    }

    #[test]
    fn elmore_all_matches_per_node_solve() {
        // A branching tree: line with a stub off node 2, plus an
        // isolated island node that must come back unreachable.
        let mut rc = RcNet::line(NET, 6, Ohms::new(500.0), Farads::new(2e-13));
        let stub = rc.fresh_node();
        rc.add_resistor(RcNodeId(2), stub, Ohms::new(900.0));
        rc.add_cap(stub, Farads::new(5e-13));
        let island = rc.fresh_node();
        rc.add_cap(island, Farads::new(1e-13));

        let root = rc.first_node();
        let all = rc.elmore_all(root, Ohms::new(120.0)).unwrap();
        assert_eq!(all.len(), rc.node_count());
        for i in 0..rc.node_count() as u32 {
            let node = RcNodeId(i);
            match (all[node.index()], rc.elmore(root, node, Ohms::new(120.0))) {
                (Some(fast), Some(slow)) => {
                    // Same terms summed in a different order: equal to
                    // rounding.
                    assert!(
                        (fast.seconds() - slow.seconds()).abs() <= 1e-12 * slow.seconds().abs(),
                        "node {i}: {} vs {}",
                        fast.seconds(),
                        slow.seconds()
                    );
                }
                (None, None) => assert_eq!(node, island, "only the island is unreachable"),
                (a, b) => panic!("node {i}: reachability disagrees ({a:?} vs {b:?})"),
            }
        }
    }

    #[test]
    fn unreachable_sink_is_none() {
        let mut rc = RcNet::new(NET);
        let a = rc.fresh_node();
        let b = rc.fresh_node();
        rc.add_cap(b, Farads::new(1e-15));
        assert!(rc.elmore(a, b, Ohms::ZERO).is_none());
    }

    #[test]
    fn path_resistance_sums_edges() {
        let rc = RcNet::line(NET, 4, Ohms::new(400.0), Farads::new(1e-13));
        let r = rc.path_resistance(rc.first_node(), rc.last_node()).unwrap();
        assert!((r.ohms() - 400.0).abs() < 1e-9);
        let half = rc.path_resistance(rc.first_node(), RcNodeId(2)).unwrap();
        assert!((half.ohms() - 200.0).abs() < 1e-9);
    }

    #[test]
    fn node_at_dedups_positions() {
        let mut rc = RcNet::new(NET);
        let mut index = HashMap::new();
        let a = rc.node_at(&mut index, 10, 20);
        let b = rc.node_at(&mut index, 10, 20);
        assert_eq!(a, b);
        let c = rc.node_at(&mut index, 10, 21);
        assert_ne!(a, c);
        assert_eq!(rc.node_count(), 2);
    }

    #[test]
    fn total_cap_sums() {
        let rc = RcNet::line(NET, 10, Ohms::new(1.0), Farads::new(5e-12));
        assert!((rc.total_cap().farads() - 5e-12).abs() < 1e-20);
    }
}
