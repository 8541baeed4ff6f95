//! Shadow-mode co-simulation.
//!
//! §4.1: "This latter simulator is a mixed mode simulation of full design
//! Behavioral/RTL with a part of the circuit logic shadowing (not
//! replacing) the corresponding RTL description."
//!
//! The golden RTL interpreter runs the whole design; a transistor-level
//! block *shadows* one piece of it: the block's inputs are driven from
//! the golden simulation's values every cycle, the block settles at
//! switch level, and its outputs are compared against the golden values.
//! Divergence means the circuit implementation does not realize the
//! designer's intent.

use cbv_netlist::{FlatNetlist, NetId};
use cbv_rtl::{interp::Interp, lookup::missing, RtlDesign};

use crate::switch::{Logic, SwitchSim};

/// Binds one bit of an RTL signal to one netlist net.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitBinding {
    /// RTL signal name (an input, output or register of the design).
    pub signal: String,
    /// Which bit of the signal.
    pub bit: u32,
    /// The netlist net name carrying that bit.
    pub net: String,
}

impl BitBinding {
    /// Convenience constructor.
    pub fn new(signal: impl Into<String>, bit: u32, net: impl Into<String>) -> BitBinding {
        BitBinding {
            signal: signal.into(),
            bit,
            net: net.into(),
        }
    }
}

/// One recorded divergence.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// Cycle number (0-based).
    pub cycle: usize,
    /// The RTL signal.
    pub signal: String,
    /// The bit.
    pub bit: u32,
    /// What the golden model said.
    pub golden: bool,
    /// What the circuit produced.
    pub circuit: Logic,
}

/// A [`BitBinding`] with its net name resolved to a [`NetId`] and the
/// RTL-input test hoisted out of the per-cycle loops.
#[derive(Debug, Clone)]
struct ResolvedBinding {
    signal: String,
    bit: u32,
    net: NetId,
    /// Whether `signal` is an RTL primary input (driven by the
    /// testbench, not readable back from the golden model).
    is_input: bool,
}

/// The shadow-mode co-simulator.
pub struct ShadowSim<'d, 'n> {
    /// The golden RTL model.
    pub golden: Interp<'d>,
    /// The shadowing transistor block.
    pub circuit: SwitchSim<'n>,
    design: &'d RtlDesign,
    inputs: Vec<ResolvedBinding>,
    outputs: Vec<ResolvedBinding>,
    clock_nets: Vec<NetId>,
    mismatches: Vec<Mismatch>,
    cycle: usize,
}

/// Reads bit `bit` of RTL signal `signal` from the golden model
/// (outputs and registers work; inputs are testbench-driven).
fn golden_bit(golden: &mut Interp<'_>, design: &RtlDesign, signal: &str, bit: u32) -> bool {
    let word = if design.output(signal).is_some() {
        golden.output(signal)
    } else {
        golden.reg(signal)
    };
    (word >> bit) & 1 == 1
}

impl<'d, 'n> ShadowSim<'d, 'n> {
    /// Creates a shadow setup.
    ///
    /// `inputs` bind RTL values → circuit input nets; `outputs` bind
    /// circuit output nets → RTL values for comparison; `clock_nets` are
    /// the circuit's clock nets, toggled around each golden step. Every
    /// binding is validated up front: each net name must exist in the
    /// netlist and each signal must be an RTL output, input or register.
    /// Names resolve to ids *once* here, so the per-cycle loops in
    /// [`ShadowSim::step`] do no string lookups (or clones) at all.
    ///
    /// # Panics
    ///
    /// Panics with a [`LookupError`](cbv_rtl::lookup::LookupError) (with a
    /// near-miss suggestion) naming the first binding that does not
    /// resolve.
    pub fn new(
        design: &'d RtlDesign,
        netlist: &'n FlatNetlist,
        inputs: Vec<BitBinding>,
        outputs: Vec<BitBinding>,
        clock_nets: Vec<String>,
    ) -> ShadowSim<'d, 'n> {
        let find_net = |name: &str| {
            netlist.find_net(name).unwrap_or_else(|| {
                missing(
                    "net",
                    name,
                    netlist.net_ids().map(|id| netlist.net_name(id)),
                )
            })
        };
        // `allow_input`: input bindings may name an RTL primary input
        // (the testbench drives it); output bindings must name something
        // readable back from the golden model — an output or a register.
        let resolve = |b: &BitBinding, allow_input: bool| -> ResolvedBinding {
            let is_input = design.input_index(&b.signal).is_some();
            let readable = design.output(&b.signal).is_some()
                || design.regs.iter().any(|r| r.name == b.signal);
            let accepted = readable || (allow_input && is_input);
            if !accepted {
                let (kind, inputs_too) = if allow_input {
                    ("rtl signal", &design.inputs[..])
                } else {
                    ("rtl output or register", &[][..])
                };
                let candidates = design
                    .outputs
                    .iter()
                    .map(|(n, _)| &**n)
                    .chain(design.regs.iter().map(|r| &*r.name))
                    .chain(inputs_too.iter().map(|(n, _)| &**n));
                missing(kind, &b.signal, candidates);
            }
            ResolvedBinding {
                signal: b.signal.clone(),
                bit: b.bit,
                net: find_net(&b.net),
                is_input,
            }
        };
        ShadowSim {
            golden: Interp::new(design),
            circuit: SwitchSim::new(netlist),
            design,
            inputs: inputs.iter().map(|b| resolve(b, true)).collect(),
            outputs: outputs.iter().map(|b| resolve(b, false)).collect(),
            clock_nets: clock_nets.iter().map(|n| find_net(n)).collect(),
            mismatches: Vec::new(),
            cycle: 0,
        }
    }

    /// Sets an RTL primary input (propagated to bound circuit inputs on
    /// the next [`ShadowSim::step`]).
    pub fn set_input(&mut self, name: &str, value: u64) {
        self.golden.set_input(name, value);
        // Mirror onto circuit nets bound to this signal immediately.
        for b in &self.inputs {
            if b.signal == name {
                let bit = (value >> b.bit) & 1 == 1;
                self.circuit.set(b.net, Logic::from_bool(bit));
            }
        }
    }

    /// Runs one cycle: drive bound inputs from golden, pulse the circuit
    /// clocks around the golden clock step, settle and compare outputs.
    ///
    /// Returns the number of new mismatches this cycle.
    pub fn step(&mut self, rtl_clock: &str) -> usize {
        // Drive circuit inputs from golden pre-edge values where bound to
        // outputs/registers.
        for b in &self.inputs {
            if !b.is_input {
                let v = golden_bit(&mut self.golden, self.design, &b.signal, b.bit);
                self.circuit.set(b.net, Logic::from_bool(v));
            }
        }
        // Clock low phase.
        for &ck in &self.clock_nets {
            self.circuit.set(ck, Logic::Zero);
        }
        let _ = self.circuit.settle();
        // Clock high phase (active edge).
        for &ck in &self.clock_nets {
            self.circuit.set(ck, Logic::One);
        }
        let _ = self.circuit.settle();
        // Golden takes its edge.
        self.golden.step(rtl_clock);
        // Re-drive bound inputs with post-edge values so purely
        // combinational shadow cones compare against the same cycle the
        // golden model now shows (sequential shadows already captured
        // the pre-edge data at the clock pulse above, matching golden).
        for b in &self.inputs {
            if !b.is_input {
                let v = golden_bit(&mut self.golden, self.design, &b.signal, b.bit);
                self.circuit.set(b.net, Logic::from_bool(v));
            }
        }
        let _ = self.circuit.settle();
        // Compare outputs post-edge.
        let mut new = 0;
        for b in &self.outputs {
            let golden = golden_bit(&mut self.golden, self.design, &b.signal, b.bit);
            let circuit = self.circuit.value(b.net);
            if circuit != Logic::from_bool(golden) {
                self.mismatches.push(Mismatch {
                    cycle: self.cycle,
                    signal: b.signal.clone(),
                    bit: b.bit,
                    golden,
                    circuit,
                });
                new += 1;
            }
        }
        self.cycle += 1;
        new
    }

    /// All mismatches so far.
    pub fn mismatches(&self) -> &[Mismatch] {
        &self.mismatches
    }

    /// Cycles run.
    pub fn cycles(&self) -> usize {
        self.cycle
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_rtl::compile;
    use cbv_tech::MosKind;

    /// Transistor-level dynamic-logic XOR-ish block shadowing an RTL xor:
    /// here a static CMOS inverter shadowing `q = ~d` registered.
    fn rtl() -> cbv_rtl::RtlDesign {
        compile(
            "module m(clock ck, in d, out q, out qn) { reg r; at posedge(ck) { r <= d; } assign q = r; assign qn = ~r; }",
            "m",
        )
        .unwrap()
    }

    /// Circuit: an inverter computing qn from q (combinational shadow of
    /// the `qn = ~r` cone).
    fn inverter_netlist() -> FlatNetlist {
        let mut f = FlatNetlist::new("shadow_inv");
        let a = f.add_net("q_in", NetKind::Input);
        let y = f.add_net("qn_out", NetKind::Output);
        let ck = f.add_net("ck", NetKind::Clock);
        let _ = ck;
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p",
            a,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        f
    }

    #[test]
    fn correct_shadow_never_mismatches() {
        let d = rtl();
        let n = inverter_netlist();
        let mut shadow = ShadowSim::new(
            &d,
            &n,
            vec![BitBinding::new("q", 0, "q_in")],
            vec![BitBinding::new("qn", 0, "qn_out")],
            vec!["ck".into()],
        );
        let pattern = [1u64, 0, 1, 1, 0, 0, 1, 0];
        for &p in &pattern {
            shadow.set_input("d", p);
            shadow.step("ck");
        }
        assert_eq!(shadow.mismatches().len(), 0, "{:?}", shadow.mismatches());
        assert_eq!(shadow.cycles(), 8);
    }

    #[test]
    fn new_rejects_bad_bindings_with_suggestions() {
        let d = rtl();
        let n = inverter_netlist();
        let bit = |signal: &str, net: &str| vec![BitBinding::new(signal, 0, net)];
        let cases = [
            // Misspelled circuit net.
            (
                "no net named `q_inn`; did you mean `q_in`?",
                bit("q", "q_inn"),
                vec![],
                vec![],
            ),
            // Misspelled RTL signal.
            (
                "no rtl output or register named `qm`; did you mean `q`?",
                vec![],
                bit("qm", "qn_out"),
                vec![],
            ),
            // Output bindings may not name a primary input (nothing to
            // read back from the golden model).
            (
                "no rtl output or register named `d`; did you mean `q`?",
                vec![],
                bit("d", "qn_out"),
                vec![],
            ),
            // Misspelled clock net.
            (
                "no net named `cck`; did you mean `ck`?",
                vec![],
                vec![],
                vec!["cck".to_string()],
            ),
        ];
        for (expected, inputs, outputs, clocks) in cases {
            let payload = std::panic::catch_unwind(|| {
                ShadowSim::new(&d, &n, inputs, outputs, clocks);
            })
            .expect_err(expected);
            assert_eq!(payload.downcast_ref::<String>().unwrap(), expected);
        }
        // And the valid setup still constructs.
        ShadowSim::new(
            &d,
            &n,
            bit("q", "q_in"),
            bit("qn", "qn_out"),
            vec!["ck".into()],
        );
    }

    #[test]
    fn broken_shadow_is_caught() {
        let d = rtl();
        // Bug: the "inverter" is a buffer (swapped device types).
        let mut f = FlatNetlist::new("buggy");
        let a = f.add_net("q_in", NetKind::Input);
        let y = f.add_net("qn_out", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // Source-follower style pass from input: y follows q.
        f.add_device(Device::mos(
            MosKind::Nmos,
            "m1",
            vdd,
            a,
            y,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let mut shadow = ShadowSim::new(
            &d,
            &f,
            vec![BitBinding::new("q", 0, "q_in")],
            vec![BitBinding::new("qn", 0, "qn_out")],
            vec![],
        );
        shadow.set_input("d", 1);
        shadow.step("ck"); // r becomes 1, qn = 0, circuit outputs 1
        shadow.step("ck");
        assert!(
            !shadow.mismatches().is_empty(),
            "the buffer-instead-of-inverter bug must be caught"
        );
        let m = &shadow.mismatches()[0];
        assert_eq!(m.signal, "qn");
    }
}
