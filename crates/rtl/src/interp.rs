//! Cycle-accurate interpreter over the word-level IR.
//!
//! This is the "compiles into very efficient code" simulator of §4.1:
//! straight-line evaluation of the topologically ordered node vector, one
//! `u64` per node, with CAM lookups executed as native word scans instead
//! of gate networks. Throughput is measured in experiment E7 against the
//! paper's >200 cycles/sec/CPU figure.

use crate::ast::Edge;
use crate::design::{NodeId, RtlDesign, WordOp};
use crate::lookup::missing;

#[inline]
fn mask(width: u32) -> u64 {
    if width >= 64 {
        u64::MAX
    } else {
        (1u64 << width) - 1
    }
}

/// Interpreter state for one design.
#[derive(Debug, Clone)]
pub struct Interp<'d> {
    design: &'d RtlDesign,
    inputs: Vec<u64>,
    regs: Vec<u64>,
    /// Commit-phase double buffer: reused every edge so stepping never
    /// allocates (the settle loop is the E18 baseline; see `cbv-bench`).
    regs_next: Vec<u64>,
    cams: Vec<Vec<u64>>,
    values: Vec<u64>,
    dirty: bool,
}

impl<'d> Interp<'d> {
    /// Creates an interpreter with registers at their init values, CAM
    /// entries zeroed and inputs zeroed.
    pub fn new(design: &'d RtlDesign) -> Interp<'d> {
        Interp {
            design,
            inputs: vec![0; design.inputs.len()],
            regs: design.regs.iter().map(|r| r.init).collect(),
            regs_next: vec![0; design.regs.len()],
            cams: design
                .cams
                .iter()
                .map(|c| vec![0u64; c.entries as usize])
                .collect(),
            values: vec![0; design.nodes.len()],
            dirty: true,
        }
    }

    /// Resets registers and CAMs to initial state.
    pub fn reset(&mut self) {
        for (v, r) in self.regs.iter_mut().zip(&self.design.regs) {
            *v = r.init;
        }
        for c in &mut self.cams {
            c.iter_mut().for_each(|e| *e = 0);
        }
        self.dirty = true;
    }

    /// Sets a primary input by name.
    ///
    /// # Panics
    ///
    /// Panics if the input does not exist (the message is a
    /// [`LookupError`](crate::lookup::LookupError) with a near-miss
    /// suggestion) or the value does not fit.
    pub fn set_input(&mut self, name: &str, value: u64) {
        let idx = self.design.input_index(name).unwrap_or_else(|| {
            missing("input", name, self.design.inputs.iter().map(|(n, _)| &**n))
        });
        let width = self.design.inputs[idx].1;
        assert!(
            value <= mask(width),
            "value {value:#x} does not fit input `{name}` of width {width}"
        );
        self.inputs[idx] = value;
        self.dirty = true;
    }

    /// Evaluates the combinational network if inputs or state changed.
    pub fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        for i in 0..self.design.nodes.len() {
            let node = self.design.nodes[i];
            let m = mask(node.width);
            let v = |id: NodeId| self.values[id.index()];
            let val = match node.op {
                WordOp::Input(k) => self.inputs[k as usize],
                WordOp::Reg(k) => self.regs[k as usize],
                WordOp::Lit(x) => x,
                WordOp::Not(a) => !v(a),
                WordOp::And(a, b) => v(a) & v(b),
                WordOp::Or(a, b) => v(a) | v(b),
                WordOp::Xor(a, b) => v(a) ^ v(b),
                WordOp::RedAnd(a) => {
                    let aw = self.design.width(a);
                    (v(a) == mask(aw)) as u64
                }
                WordOp::RedOr(a) => (v(a) != 0) as u64,
                WordOp::RedXor(a) => (v(a).count_ones() & 1) as u64,
                WordOp::Neg(a) => v(a).wrapping_neg(),
                WordOp::Add(a, b) => v(a).wrapping_add(v(b)),
                WordOp::Sub(a, b) => v(a).wrapping_sub(v(b)),
                WordOp::Shl(a, b) => {
                    let s = v(b);
                    if s >= 64 {
                        0
                    } else {
                        v(a) << s
                    }
                }
                WordOp::Shr(a, b) => {
                    let s = v(b);
                    if s >= 64 {
                        0
                    } else {
                        v(a) >> s
                    }
                }
                WordOp::Eq(a, b) => (v(a) == v(b)) as u64,
                WordOp::Lt(a, b) => (v(a) < v(b)) as u64,
                WordOp::Le(a, b) => (v(a) <= v(b)) as u64,
                WordOp::Mux(s, a, b) => {
                    if v(s) & 1 == 1 {
                        v(a)
                    } else {
                        v(b)
                    }
                }
                WordOp::Slice { a, lo } => v(a) >> lo,
                WordOp::Concat { hi, lo } => {
                    let low_w = self.design.width(lo);
                    (v(hi) << low_w) | v(lo)
                }
                WordOp::ZExt(a) => v(a),
                WordOp::CamHit { cam, key } => {
                    let k = v(key);
                    self.cams[cam as usize].contains(&k) as u64
                }
                WordOp::CamIndex { cam, key } => {
                    let k = v(key);
                    self.cams[cam as usize]
                        .iter()
                        .position(|&e| e == k)
                        .unwrap_or(0) as u64
                }
                WordOp::CamRead { cam, index } => {
                    let arr = &self.cams[cam as usize];
                    arr.get(v(index) as usize).copied().unwrap_or(0)
                }
            };
            self.values[i] = val & m;
        }
        self.dirty = false;
    }

    /// One full cycle of the named clock: the rising edge commits every
    /// `at posedge` register and CAM write, then — if the design has any
    /// `at negedge` sinks on this clock — the falling edge commits those
    /// with the post-posedge combinational values. This is the natural
    /// model for the paper's two-phase designs expressed on one clock
    /// (φ1 work on the rising edge, φ2 work on the falling edge).
    ///
    /// Use [`Interp::step_edge`] to drive half-cycles individually.
    ///
    /// # Panics
    ///
    /// Panics if the clock does not exist.
    pub fn step(&mut self, clock: &str) {
        let ck = self.clock_of(clock);
        self.commit_edge(ck, Edge::Pos);
        if self.design.has_negedge(ck) {
            self.commit_edge(ck, Edge::Neg);
        }
    }

    /// One half-cycle: commits only the registers and CAM writes on the
    /// given edge of the named clock. Lets a testbench observe the state
    /// between the rising and falling edges of a two-phase cycle.
    ///
    /// # Panics
    ///
    /// Panics if the clock does not exist.
    pub fn step_edge(&mut self, clock: &str, edge: Edge) {
        let ck = self.clock_of(clock);
        self.commit_edge(ck, edge);
    }

    fn clock_of(&self, clock: &str) -> u32 {
        self.design
            .clock_index(clock)
            .unwrap_or_else(|| missing("clock", clock, self.design.clocks.iter().map(|c| &**c)))
            as u32
    }

    /// Evaluates the combinational network with pre-edge state, then
    /// commits register and CAM updates on one `(clock, edge)` domain.
    fn commit_edge(&mut self, ck: u32, edge: Edge) {
        self.settle();
        // Registers, into the reused double buffer (no per-edge Vec).
        for (i, r) in self.design.regs.iter().enumerate() {
            self.regs_next[i] = if r.clock == ck && r.edge == edge {
                self.values[r.next.index()]
            } else {
                self.regs[i]
            };
        }
        // CAM writes (later writes win on collision — program order).
        for (ci, c) in self.design.cams.iter().enumerate() {
            if c.clock != ck || c.edge != edge {
                continue;
            }
            for w in &c.writes {
                if self.values[w.enable.index()] & 1 == 1 {
                    let idx = self.values[w.index.index()] as usize;
                    if idx < c.entries as usize {
                        self.cams[ci][idx] = self.values[w.value.index()];
                    }
                }
            }
        }
        std::mem::swap(&mut self.regs, &mut self.regs_next);
        self.dirty = true;
    }

    /// Reads a primary output.
    ///
    /// # Panics
    ///
    /// Panics if the output does not exist.
    pub fn output(&mut self, name: &str) -> u64 {
        let id = self.design.output(name).unwrap_or_else(|| {
            missing(
                "output",
                name,
                self.design.outputs.iter().map(|(n, _)| &**n),
            )
        });
        self.settle();
        self.values[id.index()]
    }

    /// Reads a register by its hierarchical name.
    ///
    /// # Panics
    ///
    /// Panics if the register does not exist.
    pub fn reg(&self, name: &str) -> u64 {
        let idx = self
            .design
            .regs
            .iter()
            .position(|r| r.name == name)
            .unwrap_or_else(|| {
                missing("register", name, self.design.regs.iter().map(|r| &*r.name))
            });
        self.regs[idx]
    }

    /// Snapshot of all register values in declaration order (used by the
    /// sequential equivalence checker's product-machine exploration).
    pub fn reg_state(&self) -> Vec<u64> {
        self.regs.clone()
    }

    /// Restores a register snapshot.
    ///
    /// # Panics
    ///
    /// Panics if the snapshot length does not match the design.
    pub fn set_reg_state(&mut self, state: &[u64]) {
        assert_eq!(state.len(), self.regs.len(), "state length mismatch");
        self.regs.copy_from_slice(state);
        self.dirty = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compile;

    #[test]
    fn adder_is_correct() {
        let d = compile(
            "module add(in a[8], in b[8], out s[9]) { assign s = {1'b0, a} + b; }",
            "add",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        for (a, b) in [(0u64, 0u64), (255, 255), (17, 42), (128, 200)] {
            sim.set_input("a", a);
            sim.set_input("b", b);
            assert_eq!(sim.output("s"), a + b, "a={a} b={b}");
        }
    }

    #[test]
    fn counter_wraps_at_five() {
        let d = compile(
            "module c5(clock ck, in rst, out v[3], out tick) {\n\
               reg cnt[3];\n\
               at posedge(ck) { if (rst) { cnt <= 0; } else if (cnt == 4) { cnt <= 0; } else { cnt <= cnt + 1; } }\n\
               assign v = cnt; assign tick = cnt == 4;\n\
             }",
            "c5",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("rst", 0);
        let mut seen = Vec::new();
        for _ in 0..12 {
            seen.push(sim.output("v"));
            sim.step("ck");
        }
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 0, 1, 2, 3, 4, 0, 1]);
    }

    #[test]
    fn reset_restores_init() {
        let d = compile(
            "module m(clock ck, out q[4]) { reg r[4] = 9; at posedge(ck) { r <= r + 1; } assign q = r; }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        assert_eq!(sim.output("q"), 9);
        sim.step("ck");
        assert_eq!(sim.output("q"), 10);
        sim.reset();
        assert_eq!(sim.output("q"), 9);
    }

    #[test]
    fn cam_write_then_match() {
        let d = compile(
            "module tcam(clock ck, in we, in wi[4], in wv[16], in k[16], out hit, out idx[4], out rd[16]) {\n\
               cam t[16][16];\n\
               at posedge(ck) { if (we) { t[wi] <= wv; } }\n\
               assign hit = t.hit(k); assign idx = t.index(k); assign rd = t.read(k[3:0]);\n\
             }",
            "tcam",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        // Write 0xBEEF at entry 7.
        sim.set_input("we", 1);
        sim.set_input("wi", 7);
        sim.set_input("wv", 0xBEEF);
        sim.step("ck");
        sim.set_input("we", 0);
        sim.set_input("k", 0xBEEF);
        assert_eq!(sim.output("hit"), 1);
        assert_eq!(sim.output("idx"), 7);
        sim.set_input("k", 0xDEAD & 0xFFFF);
        assert_eq!(sim.output("hit"), 0);
        // read(k[3:0]) with k low nibble = 7 returns the stored word.
        sim.set_input("k", 7);
        assert_eq!(sim.output("rd"), 0xBEEF);
        assert_eq!(sim.cams[0][7], 0xBEEF);
    }

    #[test]
    fn cam_zero_matches_initial_entries() {
        let d = compile(
            "module m(in k[8], out hit) { cam t[4][8]; assign hit = t.hit(k); }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("k", 0);
        assert_eq!(sim.output("hit"), 1, "entries initialize to zero");
        sim.set_input("k", 1);
        assert_eq!(sim.output("hit"), 0);
    }

    #[test]
    fn two_phase_clocks_are_independent() {
        let d = compile(
            "module m(clock phi1, clock phi2, in d, out q1, out q2) {\n\
               reg a; reg b;\n\
               at posedge(phi1) { a <= d; }\n\
               at posedge(phi2) { b <= a; }\n\
               assign q1 = a; assign q2 = b;\n\
             }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("d", 1);
        sim.step("phi1");
        assert_eq!(sim.output("q1"), 1);
        assert_eq!(sim.output("q2"), 0, "phi2 has not fired");
        sim.step("phi2");
        assert_eq!(sim.output("q2"), 1);
    }

    #[test]
    fn nonblocking_swap() {
        let d = compile(
            "module m(clock ck, out x, out y) {\n\
               reg a = 1; reg b = 0;\n\
               at posedge(ck) { a <= b; b <= a; }\n\
               assign x = a; assign y = b;\n\
             }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.step("ck");
        assert_eq!((sim.output("x"), sim.output("y")), (0, 1));
        sim.step("ck");
        assert_eq!((sim.output("x"), sim.output("y")), (1, 0));
    }

    #[test]
    fn shifts_and_dynamic_index() {
        let d = compile(
            "module m(in a[8], in i[3], out bit, out sh[8]) { assign bit = a[i]; assign sh = a << i; }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("a", 0b1010_0001);
        sim.set_input("i", 5);
        assert_eq!(sim.output("bit"), 1);
        assert_eq!(sim.output("sh"), (0b1010_0001u64 << 5) & 0xFF);
    }

    #[test]
    fn later_write_wins() {
        let d = compile(
            "module m(clock ck, in v[4], out q[4]) { reg r[4]; at posedge(ck) { r <= 1; r <= v; } assign q = r; }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("v", 9);
        sim.step("ck");
        assert_eq!(sim.output("q"), 9);
    }

    #[test]
    fn unknown_names_yield_typed_errors_with_suggestions() {
        let d = compile(
            "module c5(clock ck, in reset, out tick) {\n\
               reg cnt[3];\n\
               at posedge(ck) { if (reset) { cnt <= 0; } else { cnt <= cnt + 1; } }\n\
               assign tick = cnt == 4;\n\
             }",
            "c5",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        let mut panics_with = |expected: &str, case: &dyn Fn(&mut Interp)| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut sim)))
                .expect_err(expected);
            assert_eq!(payload.downcast_ref::<String>().unwrap(), expected);
        };
        panics_with("no input named `rest`; did you mean `reset`?", &|s| {
            s.set_input("rest", 1)
        });
        panics_with("no clock named `clk`; did you mean `ck`?", &|s| {
            s.step("clk")
        });
        panics_with("no clock named `kc`", &|s| s.step_edge("kc", Edge::Pos));
        panics_with("no output named `tck`; did you mean `tick`?", &|s| {
            s.output("tck");
        });
        panics_with("no register named `cnt2`; did you mean `cnt`?", &|s| {
            s.reg("cnt2");
        });
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_input_panics() {
        let d = compile("module m(in a[4], out y) { assign y = a == 0; }", "m").unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("a", 16);
    }

    /// Two-phase pipeline on one clock: the negedge stage samples the
    /// value the posedge stage committed *earlier in the same cycle*.
    #[test]
    fn negedge_stage_sees_posedge_result() {
        let d = compile(
            "module m(clock ck, in d[4], out qa[4], out qb[4]) {\n\
               reg a[4]; reg b[4];\n\
               at posedge(ck) { a <= d; }\n\
               at negedge(ck) { b <= a; }\n\
               assign qa = a; assign qb = b;\n\
             }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("d", 7);
        sim.step("ck");
        // One full cycle: a captured d on the rising edge, then b
        // captured the *new* a on the falling edge.
        assert_eq!(sim.output("qa"), 7);
        assert_eq!(sim.output("qb"), 7);
        sim.set_input("d", 3);
        sim.step("ck");
        assert_eq!(sim.output("qa"), 3);
        assert_eq!(sim.output("qb"), 3);
    }

    /// `step_edge` exposes the mid-cycle state between the two edges.
    #[test]
    fn step_edge_observes_half_cycles() {
        let d = compile(
            "module m(clock ck, in d[4], out qa[4], out qb[4]) {\n\
               reg a[4]; reg b[4];\n\
               at posedge(ck) { a <= d; }\n\
               at negedge(ck) { b <= a; }\n\
               assign qa = a; assign qb = b;\n\
             }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("d", 9);
        sim.step_edge("ck", Edge::Pos);
        // Mid-cycle: the posedge stage has fired, the negedge stage has not.
        assert_eq!(sim.output("qa"), 9);
        assert_eq!(sim.output("qb"), 0);
        sim.step_edge("ck", Edge::Neg);
        assert_eq!(sim.output("qb"), 9);
    }

    /// A posedge-only design is unaffected by the full-cycle semantics:
    /// `step` fires the rising edge exactly once.
    #[test]
    fn posedge_only_design_steps_once_per_cycle() {
        let d = compile(
            "module m(clock ck, out q[4]) { reg r[4]; at posedge(ck) { r <= r + 1; } assign q = r; }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        for expect in 1..=5u64 {
            sim.step("ck");
            assert_eq!(sim.output("q"), expect);
        }
    }

    /// A counter clocked on the falling edge only advances on the Neg
    /// half-cycle (and once per full `step`).
    #[test]
    fn negedge_only_counter() {
        let d = compile(
            "module m(clock ck, out q[4]) { reg r[4]; at negedge(ck) { r <= r + 1; } assign q = r; }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.step_edge("ck", Edge::Pos);
        assert_eq!(
            sim.output("q"),
            0,
            "rising edge must not fire a negedge reg"
        );
        sim.step_edge("ck", Edge::Neg);
        assert_eq!(sim.output("q"), 1);
        sim.step("ck"); // full cycle = exactly one more increment
        assert_eq!(sim.output("q"), 2);
    }

    /// CAM writes respect the edge of their `at` block.
    #[test]
    fn negedge_cam_write() {
        let d = compile(
            "module m(clock ck, in we, in wi[2], in wv[8], in k[8], out h) {\n\
               cam t[4][8];\n\
               at negedge(ck) { if (we) { t[wi] <= wv; } }\n\
               assign h = t.hit(k);\n\
             }",
            "m",
        )
        .unwrap();
        let mut sim = Interp::new(&d);
        sim.set_input("we", 1);
        sim.set_input("wi", 2);
        sim.set_input("wv", 0xAB);
        sim.set_input("k", 0xAB);
        sim.step_edge("ck", Edge::Pos);
        assert_eq!(
            sim.output("h"),
            0,
            "posedge must not commit a negedge cam write"
        );
        sim.step_edge("ck", Edge::Neg);
        assert_eq!(sim.output("h"), 1);
    }
}
