//! Compilation of a [`BoolNet`] into a flat threaded-bytecode program.
//!
//! The compiler runs once per network: levelize ([`cbv_rtl::level`],
//! live cone only), assign slots, emit one [`Op`] per computed gate in
//! schedule order. Everything the executor touches per cycle afterwards
//! is a contiguous array — no `HashMap`, no enum-tree recursion, no
//! allocation.

use cbv_obs::Tracer;
use cbv_rtl::ast::Edge;
use cbv_rtl::boolnet::{BoolNet, Gate};
use cbv_rtl::level::{levelize_cone, LevelError};

/// Slot index of the all-zeros constant.
pub const SLOT_ZERO: u32 = 0;
/// Slot index of the all-ones constant.
pub const SLOT_ONES: u32 = 1;

/// Opcode of one program step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum OpKind {
    /// `dst = !a`
    Not = 0,
    /// `dst = a & b`
    And = 1,
    /// `dst = a | b`
    Or = 2,
    /// `dst = a ^ b`
    Xor = 3,
    /// `dst = (s & a) | (!s & b)` — per-lane 2:1 mux.
    Mux = 4,
}

/// One flat program step: opcode plus slot operands. Unused operands
/// are canonically zero so [`Program::encode`] is deterministic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// What to compute.
    pub kind: OpKind,
    /// Select slot (mux only).
    pub s: u32,
    /// First input slot.
    pub a: u32,
    /// Second input slot (binary ops and mux).
    pub b: u32,
    /// Destination slot.
    pub dst: u32,
}

/// Register moves for one `(clock, edge)` commit domain: `(dst, src)`
/// slot pairs, gathered then written so simultaneous reg-to-reg
/// transfers (swaps) see pre-edge values. Pure self-holds are omitted
/// at compile time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommitList {
    /// Clock index (into [`Program::clocks`]).
    pub clock: u32,
    /// Which edge of the clock commits these moves.
    pub edge: Edge,
    /// `(state slot, source slot)` pairs in state declaration order.
    pub moves: Vec<(u32, u32)>,
}

/// A compiled network: the threaded bytecode plus the interface tables
/// the executor and its callers need. Slot layout is fixed:
///
/// | slots                  | contents                         |
/// |------------------------|----------------------------------|
/// | 0                      | constant all-zeros                |
/// | 1                      | constant all-ones                 |
/// | 2 .. 2+I               | input bits, declaration order     |
/// | 2+I .. 2+I+S           | state bits, declaration order     |
/// | 2+I+S .. `n_slots`     | computed gates, schedule order    |
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    /// Total slot count.
    pub n_slots: u32,
    /// Input bit count `I`.
    pub n_inputs: u32,
    /// State bit count `S`.
    pub n_states: u32,
    /// Combinational depth (level count) of the live cone.
    pub levels: u32,
    /// The straight-line combinational program, schedule order.
    pub ops: Vec<Op>,
    /// Commit domains, sorted by `(clock, edge)` (Pos before Neg).
    pub commits: Vec<CommitList>,
    /// Input bit names, declaration order (bit `i` lives in slot `2+i`).
    pub inputs: Vec<String>,
    /// Inputs regrouped into words: `(word name, bit slots LSB-first)`,
    /// recovered from `blast`'s `name[i]` bit-naming convention.
    pub input_words: Vec<(String, Vec<u32>)>,
    /// Named output words: `(name, bit slots LSB-first)`.
    pub outputs: Vec<(String, Vec<u32>)>,
    /// Clock names, same indices as the source design.
    pub clocks: Vec<String>,
    /// Initial value per state bit.
    pub init_states: Vec<bool>,
    /// Per clock index: whether any commit runs on the falling edge
    /// (drives the two-phase full-cycle semantics of `CSim::step`).
    pub negedge_clocks: Vec<bool>,
}

impl Program {
    /// Slot of input bit `i`.
    #[inline]
    pub fn input_slot(&self, i: u32) -> u32 {
        2 + i
    }

    /// Slot of state bit `s`.
    #[inline]
    pub fn state_slot(&self, s: u32) -> u32 {
        2 + self.n_inputs + s
    }

    /// Deterministic byte serialization of the whole program. Two
    /// compilations of the same network produce identical bytes — the
    /// regression the property suite locks in.
    pub fn encode(&self) -> Vec<u8> {
        fn put_u32(out: &mut Vec<u8>, v: u32) {
            out.extend_from_slice(&v.to_le_bytes());
        }
        fn put_str(out: &mut Vec<u8>, s: &str) {
            put_u32(out, s.len() as u32);
            out.extend_from_slice(s.as_bytes());
        }
        fn put_slots(out: &mut Vec<u8>, slots: &[u32]) {
            put_u32(out, slots.len() as u32);
            for &s in slots {
                put_u32(out, s);
            }
        }
        let mut out = Vec::new();
        out.extend_from_slice(b"CBVCSIM1");
        put_u32(&mut out, self.n_slots);
        put_u32(&mut out, self.n_inputs);
        put_u32(&mut out, self.n_states);
        put_u32(&mut out, self.levels);
        put_u32(&mut out, self.ops.len() as u32);
        for op in &self.ops {
            out.push(op.kind as u8);
            put_u32(&mut out, op.s);
            put_u32(&mut out, op.a);
            put_u32(&mut out, op.b);
            put_u32(&mut out, op.dst);
        }
        put_u32(&mut out, self.commits.len() as u32);
        for c in &self.commits {
            put_u32(&mut out, c.clock);
            out.push(matches!(c.edge, Edge::Neg) as u8);
            put_u32(&mut out, c.moves.len() as u32);
            for &(dst, src) in &c.moves {
                put_u32(&mut out, dst);
                put_u32(&mut out, src);
            }
        }
        put_u32(&mut out, self.inputs.len() as u32);
        for name in &self.inputs {
            put_str(&mut out, name);
        }
        put_u32(&mut out, self.input_words.len() as u32);
        for (name, slots) in &self.input_words {
            put_str(&mut out, name);
            put_slots(&mut out, slots);
        }
        put_u32(&mut out, self.outputs.len() as u32);
        for (name, slots) in &self.outputs {
            put_str(&mut out, name);
            put_slots(&mut out, slots);
        }
        put_u32(&mut out, self.clocks.len() as u32);
        for name in &self.clocks {
            put_str(&mut out, name);
        }
        put_u32(&mut out, self.init_states.len() as u32);
        let mut byte = 0u8;
        for (i, &b) in self.init_states.iter().enumerate() {
            byte |= (b as u8) << (i % 8);
            if i % 8 == 7 {
                out.push(byte);
                byte = 0;
            }
        }
        if !self.init_states.len().is_multiple_of(8) {
            out.push(byte);
        }
        for &n in &self.negedge_clocks {
            out.push(n as u8);
        }
        out
    }
}

/// Groups bit names produced by `blast` (`a[0]`, `a[1]`, …, bare `b`)
/// back into declaration-order words. Consecutive bits sharing a
/// `name[index]` base form one word, LSB first; anything else is a
/// 1-bit word under its own name.
fn group_words(names: &[String], slot_of: impl Fn(u32) -> u32) -> Vec<(String, Vec<u32>)> {
    let mut words: Vec<(String, Vec<u32>)> = Vec::new();
    for (i, name) in names.iter().enumerate() {
        let base = name
            .rfind('[')
            .filter(|_| name.ends_with(']'))
            .map(|p| &name[..p]);
        let slot = slot_of(i as u32);
        match (base, words.last_mut()) {
            (Some(base), Some((last, slots))) if last == base => slots.push(slot),
            (Some(base), _) => words.push((base.to_owned(), vec![slot])),
            (None, _) => words.push((name.clone(), vec![slot])),
        }
    }
    words
}

/// Compiles a network (untraced). See [`compile_traced`].
///
/// # Errors
///
/// Returns [`LevelError`] if the network contains a combinational cycle
/// or a dangling gate reference.
pub fn compile(net: &BoolNet) -> Result<Program, LevelError> {
    compile_traced(net, &Tracer::disabled())
}

/// Compiles a network into a flat bit-parallel [`Program`], tracing the
/// work: a `csim.compile` span plus `csim.program.ops`,
/// `csim.program.levels` and `csim.program.slots` counters.
///
/// Only the **live cone** is compiled: gates that feed neither an
/// output bit nor a state's next function never cost a per-cycle op.
///
/// # Errors
///
/// Returns [`LevelError`] if the network contains a combinational cycle
/// or a dangling gate reference.
pub fn compile_traced(net: &BoolNet, tracer: &Tracer) -> Result<Program, LevelError> {
    let _span = tracer.span("csim.compile");
    let n_inputs = net.inputs.len() as u32;
    let n_states = net.states.len() as u32;

    // Everything observable is a root: output bits plus every state's
    // next function (states feed each other across cycles, so all next
    // cones stay live even when a state is not directly visible).
    let mut roots: Vec<_> = net
        .outputs
        .iter()
        .flat_map(|(_, bits)| bits.iter().copied())
        .collect();
    roots.extend(net.states.iter().map(|s| s.next));
    let lv = levelize_cone(net, &roots)?;

    // Slot assignment: leaves get their fixed slots, computed live
    // gates get fresh slots in schedule order.
    const UNMAPPED: u32 = u32::MAX;
    let mut slot_of = vec![UNMAPPED; net.gate_count()];
    let mut next_slot = 2 + n_inputs + n_states;
    let mut ops = Vec::new();
    let gates = net.gates();
    for &id in &lv.order {
        let slot = |m: &[u32], x: cbv_rtl::boolnet::BoolId| -> u32 {
            debug_assert_ne!(m[x.index()], UNMAPPED, "operand scheduled before use");
            m[x.index()]
        };
        slot_of[id.index()] = match gates[id.index()] {
            Gate::Const(b) => {
                if b {
                    SLOT_ONES
                } else {
                    SLOT_ZERO
                }
            }
            Gate::Input(k) => 2 + k,
            Gate::State(k) => 2 + n_inputs + k,
            Gate::Not(a) => {
                let dst = next_slot;
                next_slot += 1;
                ops.push(Op {
                    kind: OpKind::Not,
                    s: 0,
                    a: slot(&slot_of, a),
                    b: 0,
                    dst,
                });
                dst
            }
            Gate::And(a, b) | Gate::Or(a, b) | Gate::Xor(a, b) => {
                let kind = match gates[id.index()] {
                    Gate::And(..) => OpKind::And,
                    Gate::Or(..) => OpKind::Or,
                    _ => OpKind::Xor,
                };
                let dst = next_slot;
                next_slot += 1;
                ops.push(Op {
                    kind,
                    s: 0,
                    a: slot(&slot_of, a),
                    b: slot(&slot_of, b),
                    dst,
                });
                dst
            }
            Gate::Mux(s, a, b) => {
                let dst = next_slot;
                next_slot += 1;
                ops.push(Op {
                    kind: OpKind::Mux,
                    s: slot(&slot_of, s),
                    a: slot(&slot_of, a),
                    b: slot(&slot_of, b),
                    dst,
                });
                dst
            }
        };
    }

    // Commit lists per (clock, edge), self-holds dropped.
    let n_clocks = net.clocks.len().max(
        net.states
            .iter()
            .map(|s| s.clock as usize + 1)
            .max()
            .unwrap_or(0),
    );
    let mut commits = Vec::new();
    for ck in 0..n_clocks as u32 {
        for edge in [Edge::Pos, Edge::Neg] {
            let moves: Vec<(u32, u32)> = net
                .states
                .iter()
                .enumerate()
                .filter(|(_, s)| s.clock == ck && s.edge == edge)
                .filter_map(|(i, s)| {
                    let dst = 2 + n_inputs + i as u32;
                    let src = slot_of[s.next.index()];
                    debug_assert_ne!(src, UNMAPPED, "state next cone is a root");
                    (src != dst).then_some((dst, src))
                })
                .collect();
            if !moves.is_empty() {
                commits.push(CommitList {
                    clock: ck,
                    edge,
                    moves,
                });
            }
        }
    }
    let negedge_clocks = (0..n_clocks as u32)
        .map(|ck| commits.iter().any(|c| c.clock == ck && c.edge == Edge::Neg))
        .collect();

    let outputs = net
        .outputs
        .iter()
        .map(|(name, bits)| {
            (
                name.clone(),
                bits.iter().map(|b| slot_of[b.index()]).collect(),
            )
        })
        .collect();
    let mut clocks = net.clocks.clone();
    while clocks.len() < n_clocks {
        clocks.push(format!("<clock{}>", clocks.len()));
    }
    let prog = Program {
        n_slots: next_slot,
        n_inputs,
        n_states,
        levels: lv.levels,
        ops,
        commits,
        inputs: net.inputs.clone(),
        input_words: group_words(&net.inputs, |i| 2 + i),
        outputs,
        clocks,
        init_states: net.initial_states(),
        negedge_clocks,
    };
    tracer.add("csim.program.ops", prog.ops.len() as u64);
    tracer.add("csim.program.levels", prog.levels as u64);
    tracer.add("csim.program.slots", prog.n_slots as u64);
    Ok(prog)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_obs::Tracer;
    use cbv_rtl::{blast::blast, compile as rtl_compile};

    fn adder_net() -> BoolNet {
        let d = rtl_compile(
            "module m(in a[8], in b[8], out s[9]) { assign s = {1'b0, a} + b; }",
            "m",
        )
        .unwrap();
        blast(&d).unwrap()
    }

    #[test]
    fn slot_layout_and_words() {
        let net = adder_net();
        let p = compile(&net).unwrap();
        assert_eq!(p.n_inputs, 16);
        assert_eq!(p.n_states, 0);
        assert_eq!(p.input_slot(0), 2);
        assert_eq!(
            p.input_words,
            vec![
                ("a".to_owned(), (2..10).collect::<Vec<u32>>()),
                ("b".to_owned(), (10..18).collect::<Vec<u32>>()),
            ]
        );
        assert_eq!(p.outputs.len(), 1);
        assert_eq!(p.outputs[0].1.len(), 9);
        assert!(p.levels > 2, "a ripple adder is deep");
        assert!(!p.ops.is_empty());
    }

    #[test]
    fn dead_branches_cost_no_ops() {
        let mut net = BoolNet::new();
        let a = net.input("a");
        let b = net.input("b");
        let live = net.mk(Gate::And(a, b));
        let _dead = net.mk(Gate::Xor(a, b));
        net.outputs.push(("y".into(), vec![live]));
        let p = compile(&net).unwrap();
        assert_eq!(p.ops.len(), 1, "only the AND compiles");
    }

    #[test]
    fn self_hold_states_commit_nothing() {
        let mut net = BoolNet::new();
        net.clocks.push("ck".into());
        let _q = net.state("r", false, 0); // next defaults to hold
        let p = compile(&net).unwrap();
        assert!(p.commits.is_empty(), "pure hold needs no commit move");
        assert_eq!(p.negedge_clocks, vec![false]);
    }

    #[test]
    fn encode_is_deterministic_and_tagged() {
        let net = adder_net();
        let e1 = compile(&net).unwrap().encode();
        let e2 = compile(&net).unwrap().encode();
        assert_eq!(e1, e2);
        assert_eq!(&e1[..8], b"CBVCSIM1");
    }

    #[test]
    fn cycle_is_an_error_not_a_panic() {
        let mut net = BoolNet::new();
        let a = net.input("a");
        let x = net.mk(Gate::Not(a));
        let y = net.mk(Gate::And(a, x));
        net.replace_gate(x, Gate::And(y, a));
        net.outputs.push(("y".into(), vec![y]));
        assert!(compile(&net).is_err());
    }

    #[test]
    fn compile_traced_emits_span_and_counters() {
        let (tracer, collector) = Tracer::collecting();
        let net = adder_net();
        let p = compile_traced(&net, &tracer).unwrap();
        tracer.flush();
        let trace = collector.trace();
        assert_eq!(trace.spans_named("csim.compile").count(), 1);
        assert_eq!(trace.counters["csim.program.ops"], p.ops.len() as u64);
        assert_eq!(trace.counters["csim.program.levels"], p.levels as u64);
        assert_eq!(trace.counters["csim.program.slots"], p.n_slots as u64);
    }
}
