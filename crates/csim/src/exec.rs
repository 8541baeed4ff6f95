//! Execution of a compiled [`Program`] over 64 packed lanes.
//!
//! Every slot is one `u64`; bit `l` of every slot belongs to lane `l`,
//! an independent simulation. A single pass over the flat op array
//! advances all 64 lanes — per-lane cost is the op loop divided by 64.

use cbv_obs::Tracer;
use cbv_rtl::ast::Edge;
use cbv_rtl::lookup::missing;

use crate::program::{OpKind, Program, SLOT_ONES};

/// Lanes per machine word: one simulation per bit of a `u64`.
pub const LANES: usize = 64;

/// Packs up to 64 per-lane booleans into one bit-plane word (lane `l`
/// at bit `l`; missing lanes are zero).
pub fn pack_lanes(bits: &[bool]) -> u64 {
    assert!(bits.len() <= LANES, "at most {LANES} lanes per word");
    bits.iter()
        .enumerate()
        .fold(0u64, |w, (l, &b)| w | ((b as u64) << l))
}

/// Extracts lane `l` from a bit-plane word.
#[inline]
pub fn lane_bit(plane: u64, lane: usize) -> bool {
    (plane >> lane) & 1 == 1
}

/// Bit-parallel executor for one compiled [`Program`].
///
/// Mirrors the [`cbv_rtl::interp::Interp`] surface per lane — same
/// `set_input` / `output` / `step` / `step_edge` verbs, same two-phase
/// full-cycle semantics — plus the packed batch entry point
/// [`CSim::run_vectors`].
#[derive(Debug, Clone)]
pub struct CSim {
    prog: Program,
    slots: Vec<u64>,
    /// Commit gather buffer: sources are read out before any state slot
    /// is written, so simultaneous reg-to-reg transfers stay atomic.
    gather: Vec<u64>,
    dirty: bool,
    tracer: Tracer,
}

impl CSim {
    /// Wraps a compiled program with all lanes at the initial state
    /// (inputs zero, states at their init values in every lane).
    pub fn new(prog: Program) -> CSim {
        let mut slots = vec![0u64; prog.n_slots as usize];
        slots[SLOT_ONES as usize] = u64::MAX;
        for (i, &init) in prog.init_states.iter().enumerate() {
            slots[prog.state_slot(i as u32) as usize] = if init { u64::MAX } else { 0 };
        }
        let gather = Vec::with_capacity(prog.n_states as usize);
        CSim {
            prog,
            slots,
            gather,
            dirty: true,
            tracer: Tracer::disabled(),
        }
    }

    /// Attaches a tracer: [`CSim::run_vectors`] then accounts
    /// `csim.run.cycles` / `csim.run.lane_cycles` counters and the
    /// `csim.lanes_used` gauge.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// The compiled program this executor runs.
    pub fn program(&self) -> &Program {
        &self.prog
    }

    /// Resets every lane: inputs to zero, states to their init values.
    pub fn reset(&mut self) {
        self.slots.iter_mut().for_each(|s| *s = 0);
        self.slots[SLOT_ONES as usize] = u64::MAX;
        for i in 0..self.prog.init_states.len() {
            let slot = self.prog.state_slot(i as u32) as usize;
            self.slots[slot] = if self.prog.init_states[i] {
                u64::MAX
            } else {
                0
            };
        }
        self.dirty = true;
    }

    /// Sets a word input on one lane (mirrors `Interp::set_input` for
    /// that lane; other lanes keep their values).
    ///
    /// # Panics
    ///
    /// Panics if the input does not exist, the lane is out of range or
    /// the value does not fit the input's width.
    pub fn set_input(&mut self, lane: usize, name: &str, value: u64) {
        assert!(lane < LANES, "lane {lane} out of range (LANES = {LANES})");
        let word = self
            .prog
            .input_words
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| {
                missing(
                    "input",
                    name,
                    self.prog.input_words.iter().map(|(n, _)| &**n),
                )
            });
        let slots = &self.prog.input_words[word].1;
        let width = slots.len() as u32;
        let fits = width >= 64 || value < (1u64 << width);
        assert!(
            fits,
            "value {value:#x} does not fit input `{name}` of width {width}"
        );
        let lane_mask = 1u64 << lane;
        for (i, &slot) in slots.iter().enumerate() {
            if (value >> i) & 1 == 1 {
                self.slots[slot as usize] |= lane_mask;
            } else {
                self.slots[slot as usize] &= !lane_mask;
            }
        }
        self.dirty = true;
    }

    /// Sets one input bit-plane across all 64 lanes at once (packed
    /// form of [`CSim::set_input`]; `bit` indexes [`Program::inputs`]).
    pub fn set_input_plane(&mut self, bit: usize, plane: u64) {
        assert!(bit < self.prog.n_inputs as usize, "input bit out of range");
        let slot = self.prog.input_slot(bit as u32) as usize;
        self.slots[slot] = plane;
        self.dirty = true;
    }

    /// Reads a word output on one lane (mirrors `Interp::output`).
    ///
    /// # Panics
    ///
    /// Panics if the output does not exist or the lane is out of range.
    pub fn output(&mut self, lane: usize, name: &str) -> u64 {
        assert!(lane < LANES, "lane {lane} out of range (LANES = {LANES})");
        let word = self.output_word(name);
        self.settle();
        let slots = &self.prog.outputs[word].1;
        slots.iter().enumerate().fold(0u64, |v, (i, &s)| {
            v | ((lane_bit(self.slots[s as usize], lane) as u64) << i)
        })
    }

    /// Reads one output bit-plane across all lanes (packed form of
    /// [`CSim::output`]); `name` plus bit index within the word.
    pub fn output_plane(&mut self, name: &str, bit: usize) -> u64 {
        let word = self.output_word(name);
        self.settle();
        self.slots[self.prog.outputs[word].1[bit] as usize]
    }

    fn output_word(&self, name: &str) -> usize {
        let outputs = &self.prog.outputs;
        outputs
            .iter()
            .position(|(n, _)| n == name)
            .unwrap_or_else(|| missing("output", name, outputs.iter().map(|(n, _)| &**n)))
    }

    /// One full cycle of the named clock on **every lane**: the rising
    /// edge commits, then — if the design has falling-edge state on
    /// this clock — the falling edge commits with re-settled values
    /// (same two-phase semantics as `Interp::step`).
    ///
    /// # Panics
    ///
    /// Panics if the clock does not exist.
    pub fn step(&mut self, clock: &str) {
        let ck = self.clock_of(clock);
        self.commit_edge(ck, Edge::Pos);
        if self.prog.negedge_clocks[ck as usize] {
            self.commit_edge(ck, Edge::Neg);
        }
    }

    /// One half-cycle: commits only the given edge of the named clock
    /// (mirrors `Interp::step_edge`).
    ///
    /// # Panics
    ///
    /// Panics if the clock does not exist.
    pub fn step_edge(&mut self, clock: &str, edge: Edge) {
        let ck = self.clock_of(clock);
        self.commit_edge(ck, edge);
    }

    fn clock_of(&self, clock: &str) -> u32 {
        let clocks = &self.prog.clocks;
        clocks
            .iter()
            .position(|c| c == clock)
            .unwrap_or_else(|| missing("clock", clock, clocks.iter().map(|c| &**c))) as u32
    }

    /// Runs the straight-line program once if any input or state plane
    /// changed since the last settle. This is the entire per-phase
    /// cost: one contiguous pass, no allocation, no graph walk.
    pub fn settle(&mut self) {
        if !self.dirty {
            return;
        }
        let ops = &self.prog.ops;
        let slots = &mut self.slots;
        for op in ops {
            let v = match op.kind {
                OpKind::Not => !slots[op.a as usize],
                OpKind::And => slots[op.a as usize] & slots[op.b as usize],
                OpKind::Or => slots[op.a as usize] | slots[op.b as usize],
                OpKind::Xor => slots[op.a as usize] ^ slots[op.b as usize],
                OpKind::Mux => {
                    let s = slots[op.s as usize];
                    (s & slots[op.a as usize]) | (!s & slots[op.b as usize])
                }
            };
            slots[op.dst as usize] = v;
        }
        self.dirty = false;
    }

    fn commit_edge(&mut self, ck: u32, edge: Edge) {
        self.settle();
        let Some(pos) = self
            .prog
            .commits
            .iter()
            .position(|c| c.clock == ck && c.edge == edge)
        else {
            return;
        };
        let moves = &self.prog.commits[pos].moves;
        self.gather.clear();
        self.gather
            .extend(moves.iter().map(|&(_, src)| self.slots[src as usize]));
        for (k, &(dst, _)) in moves.iter().enumerate() {
            self.slots[dst as usize] = self.gather[k];
        }
        self.dirty = true;
    }

    /// Batch entry point: runs `cycles` full cycles of `clock` over all
    /// 64 lanes. `stimulus` holds one bit-plane per input bit per cycle
    /// (cycle-major, [`Program::inputs`] order); `outputs` is filled
    /// with one bit-plane per output bit per cycle (cycle-major,
    /// [`Program::outputs`] order, each word LSB-first), sampled after
    /// settling and **before** the clock edge — the same observe-then-
    /// step protocol as the cross-engine suites.
    ///
    /// # Panics
    ///
    /// Panics if `stimulus` is not `cycles × n_inputs` planes or the
    /// clock does not exist.
    pub fn run_vectors(
        &mut self,
        clock: &str,
        cycles: usize,
        stimulus: &[u64],
        outputs: &mut Vec<u64>,
    ) {
        let n_in = self.prog.n_inputs as usize;
        assert_eq!(
            stimulus.len(),
            cycles * n_in,
            "stimulus must hold one plane per input bit per cycle"
        );
        let ck = self.clock_of(clock);
        let n_out: usize = self.prog.outputs.iter().map(|(_, b)| b.len()).sum();
        outputs.clear();
        outputs.reserve(cycles * n_out);
        let negedge = self.prog.negedge_clocks[ck as usize];
        for cycle in 0..cycles {
            let planes = &stimulus[cycle * n_in..(cycle + 1) * n_in];
            for (bit, &plane) in planes.iter().enumerate() {
                let slot = self.prog.input_slot(bit as u32) as usize;
                self.slots[slot] = plane;
            }
            self.dirty = true;
            self.settle();
            for w in 0..self.prog.outputs.len() {
                for b in 0..self.prog.outputs[w].1.len() {
                    outputs.push(self.slots[self.prog.outputs[w].1[b] as usize]);
                }
            }
            self.commit_edge(ck, Edge::Pos);
            if negedge {
                self.commit_edge(ck, Edge::Neg);
            }
        }
        self.tracer.add("csim.run.cycles", cycles as u64);
        self.tracer
            .add("csim.run.lane_cycles", (cycles * LANES) as u64);
        self.tracer.gauge("csim.lanes_used", LANES as f64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::program::compile;
    use cbv_rtl::blast::blast;
    use cbv_rtl::compile as rtl_compile;
    use cbv_rtl::interp::Interp;

    fn build(src: &str) -> (cbv_rtl::RtlDesign, CSim) {
        let d = rtl_compile(src, "m").unwrap();
        let net = blast(&d).unwrap();
        let sim = CSim::new(compile(&net).unwrap());
        (d, sim)
    }

    #[test]
    fn adder_matches_interp_on_every_lane() {
        let (d, mut sim) =
            build("module m(in a[8], in b[8], out s[9]) { assign s = {1'b0, a} + b; }");
        let mut interp = Interp::new(&d);
        for lane in 0..LANES {
            let a = (lane as u64 * 37) & 0xFF;
            let b = (lane as u64 * 91 + 5) & 0xFF;
            sim.set_input(lane, "a", a);
            sim.set_input(lane, "b", b);
        }
        for lane in 0..LANES {
            let a = (lane as u64 * 37) & 0xFF;
            let b = (lane as u64 * 91 + 5) & 0xFF;
            interp.set_input("a", a);
            interp.set_input("b", b);
            assert_eq!(sim.output(lane, "s"), interp.output("s"), "lane {lane}");
        }
    }

    #[test]
    fn counter_steps_independently_per_lane() {
        let (_, mut sim) = build(
            "module m(clock ck, in rst, out v[3]) {\n\
               reg cnt[3];\n\
               at posedge(ck) { if (rst) { cnt <= 0; } else { cnt <= cnt + 1; } }\n\
               assign v = cnt;\n\
             }",
        );
        // Lane 7 held in reset, everyone else counting.
        for lane in 0..LANES {
            sim.set_input(lane, "rst", (lane == 7) as u64);
        }
        for _ in 0..5 {
            sim.step("ck");
        }
        for lane in 0..LANES {
            let expect = if lane == 7 { 0 } else { 5 };
            assert_eq!(sim.output(lane, "v"), expect, "lane {lane}");
        }
    }

    #[test]
    fn two_phase_negedge_matches_interp() {
        let src = "module m(clock ck, in d[4], out qa[4], out qb[4]) {\n\
                     reg a[4]; reg b[4];\n\
                     at posedge(ck) { a <= d; }\n\
                     at negedge(ck) { b <= a + 1; }\n\
                     assign qa = a; assign qb = b;\n\
                   }";
        let (d, mut sim) = build(src);
        let mut interp = Interp::new(&d);
        for (cycle, din) in [3u64, 9, 0, 15, 7].into_iter().enumerate() {
            sim.set_input(0, "d", din);
            interp.set_input("d", din);
            assert_eq!(sim.output(0, "qa"), interp.output("qa"), "cycle {cycle}");
            assert_eq!(sim.output(0, "qb"), interp.output("qb"), "cycle {cycle}");
            sim.step("ck");
            interp.step("ck");
        }
        // Half-cycle observation parity.
        sim.set_input(0, "d", 11);
        interp.set_input("d", 11);
        sim.step_edge("ck", Edge::Pos);
        interp.step_edge("ck", Edge::Pos);
        assert_eq!(sim.output(0, "qa"), interp.output("qa"));
        assert_eq!(sim.output(0, "qb"), interp.output("qb"));
        sim.step_edge("ck", Edge::Neg);
        interp.step_edge("ck", Edge::Neg);
        assert_eq!(sim.output(0, "qb"), interp.output("qb"));
    }

    #[test]
    fn nonblocking_swap_is_atomic() {
        let (_, mut sim) = build(
            "module m(clock ck, out x, out y) {\n\
               reg a = 1; reg b = 0;\n\
               at posedge(ck) { a <= b; b <= a; }\n\
               assign x = a; assign y = b;\n\
             }",
        );
        sim.step("ck");
        assert_eq!((sim.output(0, "x"), sim.output(0, "y")), (0, 1));
        sim.step("ck");
        assert_eq!((sim.output(0, "x"), sim.output(0, "y")), (1, 0));
    }

    #[test]
    fn reset_restores_init_on_all_lanes() {
        let (_, mut sim) = build(
            "module m(clock ck, out q[4]) { reg r[4] = 9; at posedge(ck) { r <= r + 1; } assign q = r; }",
        );
        assert_eq!(sim.output(13, "q"), 9);
        sim.step("ck");
        assert_eq!(sim.output(13, "q"), 10);
        sim.reset();
        for lane in [0, 13, 63] {
            assert_eq!(sim.output(lane, "q"), 9, "lane {lane}");
        }
    }

    #[test]
    fn run_vectors_matches_scalar_stepping() {
        let src = "module m(clock ck, in d[4], in en, out q[4]) {\n\
                     reg r[4] = 5; at posedge(ck) { if (en) { r <= d + r; } } assign q = r;\n\
                   }";
        let (_, mut batch) = build(src);
        let (_, mut scalar) = build(src);
        let n_in = batch.program().n_inputs as usize;
        let cycles = 20;
        // Deterministic pseudo-random planes.
        let mut x = 0x9e3779b97f4a7c15u64;
        let stimulus: Vec<u64> = (0..cycles * n_in)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        let mut outputs = Vec::new();
        batch.run_vectors("ck", cycles, &stimulus, &mut outputs);
        let n_out: usize = batch.program().outputs.iter().map(|(_, b)| b.len()).sum();
        for cycle in 0..cycles {
            for (bit, &plane) in stimulus[cycle * n_in..(cycle + 1) * n_in]
                .iter()
                .enumerate()
            {
                scalar.set_input_plane(bit, plane);
            }
            let mut k = 0;
            for w in 0..scalar.program().outputs.len() {
                let (name, bits) = scalar.program().outputs[w].clone();
                for b in 0..bits.len() {
                    let plane = scalar.output_plane(&name, b);
                    assert_eq!(
                        plane,
                        outputs[cycle * n_out + k],
                        "cycle {cycle} output {name}[{b}]"
                    );
                    k += 1;
                }
            }
            scalar.step("ck");
        }
    }

    #[test]
    fn run_vectors_accounts_lane_cycles() {
        let (_, mut sim) = build(
            "module m(clock ck, in d, out q) { reg r; at posedge(ck) { r <= d; } assign q = r; }",
        );
        let (tracer, collector) = Tracer::collecting();
        sim.set_tracer(tracer.clone());
        let stimulus = vec![0u64; 10];
        let mut out = Vec::new();
        sim.run_vectors("ck", 10, &stimulus, &mut out);
        tracer.flush();
        let trace = collector.trace();
        assert_eq!(trace.counters["csim.run.cycles"], 10);
        assert_eq!(trace.counters["csim.run.lane_cycles"], 640);
        assert_eq!(trace.gauges["csim.lanes_used"], 64.0);
    }

    #[test]
    fn lookup_errors_suggest_near_misses() {
        let (_, mut sim) = build("module m(in abc[4], out y[4]) { assign y = abc; }");
        let mut panics_with = |expected: &str, case: &dyn Fn(&mut CSim)| {
            let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| case(&mut sim)))
                .expect_err(expected);
            assert_eq!(payload.downcast_ref::<String>().unwrap(), expected);
        };
        panics_with("no input named `abd`; did you mean `abc`?", &|s| {
            s.set_input(0, "abd", 1)
        });
        panics_with("no output named `z`; did you mean `y`?", &|s| {
            s.output(0, "z");
        });
        panics_with("no output named `yy`; did you mean `y`?", &|s| {
            s.output_plane("yy", 0);
        });
        panics_with("no clock named `ck`", &|s| s.step("ck"));
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn oversized_input_panics() {
        let (_, mut sim) = build("module m(in a[4], out y) { assign y = a == 0; }");
        sim.set_input(0, "a", 16);
    }
}
