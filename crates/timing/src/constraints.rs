//! Constraint inference for on-the-fly state elements and dynamic nodes.
//!
//! §4.3: "The reliability of recognizing circuit constraints is a big
//! problem due to the freedom the designers have in creating
//! state-elements on-the-fly. ... algorithms are needed, which when given
//! this information, will automatically identify the constraint and
//! calculate the correct constraint time (setup time and hold time) for
//! any full custom circuit. The constraint generation algorithms must be
//! accurate but error on the side of being pessimistic."

use cbv_netlist::{FlatNetlist, NetId};
use cbv_recognize::{Recognition, StateKind};
use cbv_tech::{Corner, MosKind, Process, Seconds};

use crate::delay::Pessimism;

/// What kind of timing capture a constraint models.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CaptureKind {
    /// A level-sensitive latch: data must set up before its phase falls
    /// and hold after the phase rises.
    Latch,
    /// Cross-coupled storage written through its loop.
    CrossCoupled,
    /// A dynamic node: inputs must be stable (monotonic) through the
    /// evaluate window; a late-arriving falling input that already pulled
    /// the node low cannot give the charge back.
    DynamicEval,
}

/// One inferred constraint at a capture net.
#[derive(Debug, Clone, PartialEq)]
pub struct Constraint {
    /// The capture net (storage node or dynamic node).
    pub net: NetId,
    /// The kind of capture.
    pub kind: CaptureKind,
    /// The governing clock net, when one gates the element.
    pub clock: Option<NetId>,
    /// Required setup time before the capturing edge.
    pub setup: Seconds,
    /// Required hold time after the launching edge.
    pub hold: Seconds,
}

/// The characteristic time constant of a minimum inverter in this
/// process at a corner — the physical basis for inferred constraint
/// magnitudes.
fn characteristic_tau(process: &Process, corner: &Corner) -> Seconds {
    let l = process.l_min().meters();
    let w = 4.0 * l;
    let n = process.mos(MosKind::Nmos);
    let r = n.effective_resistance(w, l, corner);
    let c = n.gate_capacitance(w, l) + n.diffusion_capacitance(w, l);
    r * c
}

/// Infers capture constraints from recognition results.
///
/// Setup/hold magnitudes are pessimistic multiples of the process
/// characteristic tau, inflated by the pessimism margin; experiment E10
/// sweeps that margin.
pub fn infer_constraints(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    process: &Process,
    pessimism: &Pessimism,
) -> Vec<Constraint> {
    let tau_slow = characteristic_tau(process, &Corner::slow(process));
    let tau_fast = characteristic_tau(process, &Corner::fast(process));
    let margin = pessimism.constraint_margin;
    let _ = netlist;

    let mut out = Vec::new();
    for se in &recognition.state_elements {
        let kind = match se.kind {
            StateKind::LevelLatch => CaptureKind::Latch,
            StateKind::CrossCoupled => CaptureKind::CrossCoupled,
            StateKind::Keeper => continue, // handled as dynamic nodes below
        };
        // Pessimistic but physical: a latch needs ~3 loop time constants
        // to regenerate before the pass gate closes; it holds for ~1.
        let setup = tau_slow * 3.0 + margin;
        let hold = tau_fast * 1.0 + margin;
        for &net in &se.storage_nets {
            out.push(Constraint {
                net,
                kind,
                clock: se.clocks.first().copied(),
                setup,
                hold,
            });
        }
    }
    for (ccc, class) in recognition.cccs.iter().zip(&recognition.classes) {
        let _ = ccc;
        for &dyn_net in &class.dynamic_outputs {
            out.push(Constraint {
                net: dyn_net,
                kind: CaptureKind::DynamicEval,
                clock: class.clock_inputs.first().copied(),
                // Dynamic inputs must settle before evaluate ends...
                setup: tau_slow * 2.0 + margin,
                // ...and must not glitch right after precharge releases.
                hold: tau_fast * 2.0 + margin,
            });
        }
    }
    out.sort_by_key(|c| c.net);
    out.dedup_by_key(|c| (c.net, c.kind as u8));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;

    #[test]
    fn tau_is_positive_and_corner_ordered() {
        let p = Process::strongarm_035();
        let slow = characteristic_tau(&p, &Corner::slow(&p));
        let fast = characteristic_tau(&p, &Corner::fast(&p));
        assert!(fast.seconds() > 0.0);
        assert!(slow.seconds() > fast.seconds());
    }

    #[test]
    fn domino_produces_dynamic_constraint() {
        let mut f = FlatNetlist::new("dom");
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a", NetKind::Input);
        let d = f.add_net("d", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pre",
            clk,
            d,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            d,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "foot",
            clk,
            x,
            gnd,
            gnd,
            6e-6,
            0.35e-6,
        ));
        let rec = recognize(&f);
        let p = Process::strongarm_035();
        let cons = infer_constraints(&f, &rec, &p, &Pessimism::signoff());
        let c = cons
            .iter()
            .find(|c| c.net == d)
            .expect("dynamic constraint");
        assert_eq!(c.kind, CaptureKind::DynamicEval);
        assert_eq!(c.clock, Some(clk));
        assert!(c.setup.seconds() > 0.0 && c.hold.seconds() > 0.0);
    }

    #[test]
    fn latch_produces_latch_constraint_with_margin() {
        let mut f = FlatNetlist::new("latch");
        let dta = f.add_net("d", NetKind::Input);
        let ck = f.add_net("ck", NetKind::Clock);
        let x = f.add_net("x", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        let fb = f.add_net("fb", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Nmos,
            "pass",
            ck,
            dta,
            x,
            gnd,
            2e-6,
            0.35e-6,
        ));
        for (n, i, o) in [("fwd", x, y), ("bck", y, fb)] {
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("{n}p"),
                i,
                o,
                vdd,
                vdd,
                4e-6,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{n}n"),
                i,
                o,
                gnd,
                gnd,
                2e-6,
                0.35e-6,
            ));
        }
        f.add_device(Device::mos(
            MosKind::Nmos,
            "fbk",
            ck,
            fb,
            x,
            gnd,
            1e-6,
            0.7e-6,
        ));
        let rec = recognize(&f);
        let p = Process::strongarm_035();
        let base = infer_constraints(&f, &rec, &p, &Pessimism::none());
        let padded = infer_constraints(&f, &rec, &p, &Pessimism::signoff());
        assert!(!base.is_empty());
        assert!(base.iter().all(|c| c.kind == CaptureKind::Latch));
        let s0: f64 = base.iter().map(|c| c.setup.seconds()).sum();
        let s1: f64 = padded.iter().map(|c| c.setup.seconds()).sum();
        assert!(s1 > s0, "margin must inflate setup");
    }
}
