//! Gate-level boolean network.
//!
//! The bit-blasted form of a design: a DAG of 2-input gates over input
//! bits and state bits, with per-state next functions. This is the shared
//! representation consumed by the equivalence checker (`cbv-equiv`, which
//! builds BDDs from it) and the compiled gate-level simulator `cbv-csim`.

use std::collections::HashMap;

use crate::ast::Edge;

/// Index of a gate within one [`BoolNet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BoolId(pub u32);

impl BoolId {
    /// The underlying index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Gate types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Gate {
    /// Constant.
    Const(bool),
    /// Primary input bit (index into [`BoolNet::inputs`]).
    Input(u32),
    /// Current value of a state bit (index into [`BoolNet::states`]).
    State(u32),
    /// Inverter.
    Not(BoolId),
    /// 2-input AND.
    And(BoolId, BoolId),
    /// 2-input OR.
    Or(BoolId, BoolId),
    /// 2-input XOR.
    Xor(BoolId, BoolId),
    /// 2:1 mux `s ? a : b`.
    Mux(BoolId, BoolId, BoolId),
}

/// One state (register) bit.
#[derive(Debug, Clone, PartialEq)]
pub struct StateBit {
    /// Hierarchical name, e.g. `f0/r[3]`.
    pub name: String,
    /// Initial value.
    pub init: bool,
    /// Next-state function (set after construction; starts as self-hold).
    pub next: BoolId,
    /// Clock index (matches [`crate::RtlDesign::clocks`]).
    pub clock: u32,
    /// Active edge of the clock.
    pub edge: Edge,
}

/// A bit-blasted network.
#[derive(Debug, Clone, Default)]
pub struct BoolNet {
    /// Gates in topological (creation) order.
    gates: Vec<Gate>,
    cons: HashMap<Gate, BoolId>,
    /// Primary input bit names.
    pub inputs: Vec<String>,
    /// State bits.
    pub states: Vec<StateBit>,
    /// Named word outputs, LSB first.
    pub outputs: Vec<(String, Vec<BoolId>)>,
    /// Clock names carried over from the source design.
    pub clocks: Vec<String>,
}

impl BoolNet {
    /// Creates an empty network.
    pub fn new() -> BoolNet {
        BoolNet::default()
    }

    /// The gates in topological order.
    pub fn gates(&self) -> &[Gate] {
        &self.gates
    }

    /// Gate count (network size).
    pub fn gate_count(&self) -> usize {
        self.gates.len()
    }

    /// Interns a gate with structural hashing and local simplification.
    pub fn mk(&mut self, gate: Gate) -> BoolId {
        // Constant folding / algebraic simplification.
        let gate = self.simplify(gate);
        if let Some(&id) = self.cons.get(&gate) {
            return id;
        }
        let id = BoolId(self.gates.len() as u32);
        self.gates.push(gate);
        self.cons.insert(gate, id);
        id
    }

    fn as_const(&self, id: BoolId) -> Option<bool> {
        match self.gates.get(id.index()) {
            Some(Gate::Const(b)) => Some(*b),
            _ => None,
        }
    }

    fn simplify(&mut self, gate: Gate) -> Gate {
        match gate {
            Gate::Not(a) => match self.as_const(a) {
                Some(b) => Gate::Const(!b),
                None => match self.gates[a.index()] {
                    Gate::Not(inner) => self.gates[inner.index()],
                    _ => gate,
                },
            },
            Gate::And(a, b) => match (self.as_const(a), self.as_const(b)) {
                (Some(false), _) | (_, Some(false)) => Gate::Const(false),
                (Some(true), _) => self.gates[b.index()],
                (_, Some(true)) => self.gates[a.index()],
                _ if a == b => self.gates[a.index()],
                // Canonical operand order for better sharing.
                _ if a > b => Gate::And(b, a),
                _ => gate,
            },
            Gate::Or(a, b) => match (self.as_const(a), self.as_const(b)) {
                (Some(true), _) | (_, Some(true)) => Gate::Const(true),
                (Some(false), _) => self.gates[b.index()],
                (_, Some(false)) => self.gates[a.index()],
                _ if a == b => self.gates[a.index()],
                _ if a > b => Gate::Or(b, a),
                _ => gate,
            },
            Gate::Xor(a, b) => match (self.as_const(a), self.as_const(b)) {
                (Some(false), _) => self.gates[b.index()],
                (_, Some(false)) => self.gates[a.index()],
                (Some(true), Some(true)) => Gate::Const(false),
                _ if a == b => Gate::Const(false),
                _ if a > b => Gate::Xor(b, a),
                _ => gate,
            },
            Gate::Mux(s, a, b) => match self.as_const(s) {
                Some(true) => self.gates[a.index()],
                Some(false) => self.gates[b.index()],
                None if a == b => self.gates[a.index()],
                None => gate,
            },
            other => other,
        }
    }

    /// Convenience: constant gate.
    pub fn constant(&mut self, b: bool) -> BoolId {
        self.mk(Gate::Const(b))
    }

    /// Convenience: fresh input bit.
    pub fn input(&mut self, name: impl Into<String>) -> BoolId {
        let idx = self.inputs.len() as u32;
        self.inputs.push(name.into());
        self.mk(Gate::Input(idx))
    }

    /// Convenience: fresh posedge state bit (next defaults to hold).
    pub fn state(&mut self, name: impl Into<String>, init: bool, clock: u32) -> BoolId {
        self.state_on_edge(name, init, clock, Edge::Pos)
    }

    /// Fresh state bit committing on the given edge of `clock` (next
    /// defaults to hold).
    pub fn state_on_edge(
        &mut self,
        name: impl Into<String>,
        init: bool,
        clock: u32,
        edge: Edge,
    ) -> BoolId {
        let idx = self.states.len() as u32;
        let id = self.mk(Gate::State(idx));
        self.states.push(StateBit {
            name: name.into(),
            init,
            next: id,
            clock,
            edge,
        });
        id
    }

    /// True when any state bit commits on the falling edge of `clock`
    /// — a full cycle of that clock needs a second commit phase (with
    /// re-evaluated gate values) after the rising edge.
    pub fn has_negedge(&self, clock: u32) -> bool {
        self.states
            .iter()
            .any(|s| s.clock == clock && s.edge == Edge::Neg)
    }

    /// Replaces the gate stored at `id` in place — a low-level mutator
    /// for fault studies and levelization tests. Bypasses structural
    /// hashing and simplification entirely: the old gate's intern entry
    /// is dropped and the new gate is **not** interned, so later
    /// [`BoolNet::mk`] calls may create a structural duplicate. The
    /// caller is responsible for keeping the network acyclic (use
    /// [`crate::level::levelize_cone`] to check).
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn replace_gate(&mut self, id: BoolId, gate: Gate) {
        let old = self.gates[id.index()];
        if self.cons.get(&old) == Some(&id) {
            self.cons.remove(&old);
        }
        self.gates[id.index()] = gate;
    }

    /// Evaluates all gates given input and state bit values; returns the
    /// full value vector indexed by [`BoolId`].
    ///
    /// # Panics
    ///
    /// Panics if the slices are shorter than the declared inputs/states.
    pub fn eval(&self, inputs: &[bool], states: &[bool]) -> Vec<bool> {
        let mut v = Vec::new();
        self.eval_into(inputs, states, &mut v);
        v
    }

    /// [`BoolNet::eval`] into a caller-owned buffer, so per-cycle loops
    /// (simulator settle loops, cross-engine sweeps) do not allocate.
    /// The buffer is resized to the gate count and fully overwritten.
    ///
    /// # Panics
    ///
    /// Panics if the slices are shorter than the declared inputs/states.
    pub fn eval_into(&self, inputs: &[bool], states: &[bool], v: &mut Vec<bool>) {
        assert!(inputs.len() >= self.inputs.len(), "missing input values");
        assert!(states.len() >= self.states.len(), "missing state values");
        v.clear();
        v.resize(self.gates.len(), false);
        for (i, g) in self.gates.iter().enumerate() {
            v[i] = match *g {
                Gate::Const(b) => b,
                Gate::Input(k) => inputs[k as usize],
                Gate::State(k) => states[k as usize],
                Gate::Not(a) => !v[a.index()],
                Gate::And(a, b) => v[a.index()] && v[b.index()],
                Gate::Or(a, b) => v[a.index()] || v[b.index()],
                Gate::Xor(a, b) => v[a.index()] ^ v[b.index()],
                Gate::Mux(s, a, b) => {
                    if v[s.index()] {
                        v[a.index()]
                    } else {
                        v[b.index()]
                    }
                }
            };
        }
    }

    /// Next-state vector for the *rising* edge of one clock from a value
    /// vector produced by [`BoolNet::eval`]. State bits on other clocks
    /// or on the falling edge hold — use [`BoolNet::next_states_edge`]
    /// with re-evaluated values for the second phase of a full cycle.
    pub fn next_states(&self, values: &[bool], states: &[bool], clock: u32) -> Vec<bool> {
        self.next_states_edge(values, states, clock, Edge::Pos)
    }

    /// Next-state vector for one `(clock, edge)` domain from a value
    /// vector produced by [`BoolNet::eval`]. All other state bits hold.
    pub fn next_states_edge(
        &self,
        values: &[bool],
        states: &[bool],
        clock: u32,
        edge: Edge,
    ) -> Vec<bool> {
        let mut out = Vec::new();
        self.next_states_edge_into(values, states, clock, edge, &mut out);
        out
    }

    /// [`BoolNet::next_states_edge`] into a caller-owned buffer (which
    /// may not alias `states`); resized and fully overwritten.
    pub fn next_states_edge_into(
        &self,
        values: &[bool],
        states: &[bool],
        clock: u32,
        edge: Edge,
        out: &mut Vec<bool>,
    ) {
        out.clear();
        out.extend(self.states.iter().enumerate().map(|(i, s)| {
            if s.clock == clock && s.edge == edge {
                values[s.next.index()]
            } else {
                states[i]
            }
        }));
    }

    /// Initial state vector.
    pub fn initial_states(&self) -> Vec<bool> {
        self.states.iter().map(|s| s.init).collect()
    }

    /// Finds a named output.
    pub fn output(&self, name: &str) -> Option<&[BoolId]> {
        self.outputs
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, bits)| bits.as_slice())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn structural_hashing_shares() {
        let mut n = BoolNet::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.mk(Gate::And(a, b));
        let y = n.mk(Gate::And(b, a)); // canonicalized
        assert_eq!(x, y);
    }

    #[test]
    fn constant_folding() {
        let mut n = BoolNet::new();
        let a = n.input("a");
        let t = n.constant(true);
        let f = n.constant(false);
        assert_eq!(n.mk(Gate::And(a, t)), a);
        assert_eq!(n.mk(Gate::And(a, f)), f);
        assert_eq!(n.mk(Gate::Or(a, f)), a);
        assert_eq!(n.mk(Gate::Or(a, t)), t);
        assert_eq!(n.mk(Gate::Xor(a, f)), a);
        let na = n.mk(Gate::Not(a));
        assert_eq!(n.mk(Gate::Not(na)), a, "double negation");
        assert_eq!(n.mk(Gate::Mux(t, a, na)), a);
        assert_eq!(n.mk(Gate::Mux(f, a, na)), na);
    }

    #[test]
    fn idempotence() {
        let mut n = BoolNet::new();
        let a = n.input("a");
        assert_eq!(n.mk(Gate::And(a, a)), a);
        assert_eq!(n.mk(Gate::Or(a, a)), a);
        let x = n.mk(Gate::Xor(a, a));
        assert_eq!(n.as_const(x), Some(false));
    }

    #[test]
    fn eval_small_circuit() {
        let mut n = BoolNet::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.mk(Gate::Xor(a, b));
        let y = n.mk(Gate::And(a, b));
        for (va, vb) in [(false, false), (false, true), (true, false), (true, true)] {
            let v = n.eval(&[va, vb], &[]);
            assert_eq!(v[x.index()], va ^ vb);
            assert_eq!(v[y.index()], va && vb);
        }
    }

    #[test]
    fn buffer_variants_match_allocating_forms() {
        let mut n = BoolNet::new();
        n.clocks.push("ck".into());
        let d = n.input("d");
        let q = n.state("r", true, 0);
        let x = n.mk(Gate::Xor(d, q));
        let idx = match n.gates()[q.index()] {
            Gate::State(k) => k as usize,
            _ => unreachable!(),
        };
        n.states[idx].next = x;
        let states = n.initial_states();
        let mut vbuf = vec![true; 64]; // deliberately stale and oversized
        for din in [false, true] {
            let fresh = n.eval(&[din], &states);
            n.eval_into(&[din], &states, &mut vbuf);
            assert_eq!(fresh, vbuf);
            let mut sbuf = Vec::new();
            n.next_states_edge_into(&fresh, &states, 0, Edge::Pos, &mut sbuf);
            assert_eq!(n.next_states(&fresh, &states, 0), sbuf);
            n.next_states_edge_into(&fresh, &states, 1, Edge::Pos, &mut sbuf);
            assert_eq!(sbuf, states, "wrong clock holds");
        }
    }

    #[test]
    fn replace_gate_swaps_function_and_uninterns() {
        let mut n = BoolNet::new();
        let a = n.input("a");
        let b = n.input("b");
        let x = n.mk(Gate::And(a, b));
        n.replace_gate(x, Gate::Or(a, b));
        let v = n.eval(&[true, false], &[]);
        assert!(v[x.index()], "now an OR");
        // The AND mapping is gone: a fresh AND interns as a new gate.
        let y = n.mk(Gate::And(a, b));
        assert_ne!(x, y);
    }

    #[test]
    fn state_stepping() {
        let mut n = BoolNet::new();
        n.clocks.push("ck".into());
        let d = n.input("d");
        let q = n.state("r", false, 0);
        // r <= d
        let idx = match n.gates()[q.index()] {
            Gate::State(k) => k as usize,
            _ => unreachable!(),
        };
        n.states[idx].next = d;
        let st = n.initial_states();
        assert_eq!(st, vec![false]);
        let v = n.eval(&[true], &st);
        let st2 = n.next_states(&v, &st, 0);
        assert_eq!(st2, vec![true]);
        // Wrong clock: holds.
        let st3 = n.next_states(&v, &st, 1);
        assert_eq!(st3, vec![false]);
    }
}
