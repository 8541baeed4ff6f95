//! E6 — **Fig 5**: "Real gates have multiple inputs/outputs".
//!
//! A large driver distributed as fingers along an RC line is not a single
//! lumped port. Two measurements:
//!
//! * the *lumped single-port* delay model (`R_drive · C_total`) vs the
//!   distributed line's true far-end Elmore delay, as wire length grows;
//! * the gate-input-capacitance *context window* (§4.3: input cap depends
//!   on the state of everything around it) as device size grows.

use cbv_core::extract::RcNet;
use cbv_core::netlist::NetId;
use cbv_core::tech::{Corner, Layer, MosKind, Process};

/// One row of the Fig 5 delay comparison.
pub struct RcPoint {
    /// Wire length in µm.
    pub length_um: f64,
    /// Lumped single-port model delay, ps.
    pub lumped_ps: f64,
    /// Distributed multi-tap reality, ps: worst sink with the driver's
    /// fingers spread along the line.
    pub distributed_ps: f64,
    /// Relative error of the lumped model.
    pub error: f64,
}

/// Compares the lumped model against a 64-segment distributed line for a
/// 16-finger driver of total width `w_total`.
pub fn run() -> Vec<RcPoint> {
    let p = Process::strongarm_035();
    let corner = Corner::typical(&p);
    let nmos = p.mos(MosKind::Nmos);
    let w_total = 48e-6;
    let l = p.l_min().meters();
    let r_drive = nmos.effective_resistance(w_total, l, &corner);
    let wire = p.wires().params(Layer::Metal2);

    [50.0, 200.0, 500.0, 1000.0, 2000.0]
        .into_iter()
        .map(|length_um| {
            let len = length_um * 1e-6;
            let r_wire = wire.resistance(len, wire.width_min);
            let c_wire = wire.ground_capacitance(len, wire.width_min);
            // Lumped single-port model: all wire C at the driver pin.
            let lumped = r_drive.ohms() * c_wire.farads();

            // Distributed reality: 16 fingers tapped evenly along the
            // first quarter of the line (a wide driver is physically
            // long), load at the far end.
            let segments = 64;
            let rc = RcNet::line(NetId(0), segments, r_wire, c_wire);
            let fingers = 16;
            // Each finger is 1/16 of the drive spread over taps; the
            // effective source is approximated by the tap at the driver
            // centroid with the full drive strength, plus the wire
            // resistance *within* the driver footprint that the lumped
            // model ignores.
            let centroid_tap = segments / 8; // middle of the first quarter
            let t_far = rc
                .elmore(
                    cbv_core::extract::RcNodeId(centroid_tap as u32),
                    rc.last_node(),
                    r_drive,
                )
                .expect("line is connected");
            // The near end also matters: signal must fill the driver's own
            // extent backwards.
            let t_near = rc
                .elmore(
                    cbv_core::extract::RcNodeId(centroid_tap as u32),
                    rc.first_node(),
                    r_drive,
                )
                .expect("line is connected");
            let distributed = t_far.seconds().max(t_near.seconds());
            let _ = fingers;
            RcPoint {
                length_um,
                lumped_ps: lumped * 1e12,
                distributed_ps: distributed * 1e12,
                error: (distributed - lumped).abs() / distributed,
            }
        })
        .collect()
}

/// Gate-capacitance context window (min/max over logical context) vs
/// device width — the other half of Fig 5.
fn gate_context_window() -> Vec<(f64, f64, f64)> {
    let p = Process::strongarm_035();
    let nmos = p.mos(MosKind::Nmos);
    let l = p.l_min().meters();
    [2.0, 8.0, 32.0]
        .into_iter()
        .map(|w_um| {
            let (lo, hi) = nmos.gate_capacitance_bounds(w_um * 1e-6, l);
            (w_um, lo.farads() * 1e15, hi.farads() * 1e15)
        })
        .collect()
}

/// Prints the Fig 5 tables.
pub fn print() {
    crate::banner(
        "E6",
        "Fig 5 — distributed drivers vs the lumped single-port model",
    );
    println!(
        "{:>12}{:>14}{:>16}{:>12}",
        "length um", "lumped ps", "distributed ps", "error %"
    );
    for pt in run() {
        println!(
            "{:>12.0}{:>14.1}{:>16.1}{:>12.1}",
            pt.length_um,
            pt.lumped_ps,
            pt.distributed_ps,
            pt.error * 100.0
        );
    }
    println!("\ngate input capacitance context window (fF):");
    println!("{:>10}{:>10}{:>10}{:>10}", "W um", "min", "max", "ratio");
    for (w, lo, hi) in gate_context_window() {
        println!("{:>10.0}{:>10.2}{:>10.2}{:>10.2}", w, lo, hi, hi / lo);
    }
    println!("\n(the lumped model's error grows with wire RC — \"the traditional");
    println!(" gate modeled with a single output port no longer works\")");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lumped_error_grows_with_length() {
        let pts = run();
        assert!(
            pts.last().unwrap().error > pts[0].error,
            "{} -> {}",
            pts[0].error,
            pts.last().unwrap().error
        );
        assert!(
            pts.last().unwrap().error > 0.10,
            "long-wire error is material"
        );
    }

    #[test]
    fn capacitance_context_window_is_wide() {
        for (_, lo, hi) in gate_context_window() {
            assert!(hi / lo > 1.5, "context window must be wide: {lo}..{hi}");
        }
    }

    #[test]
    fn one_known_point_for_farads_units() {
        use cbv_core::tech::{Farads, Ohms};
        // Keep the unit plumbing honest: 1 kΩ driving 1 pF is 1 ns.
        let t = Ohms::new(1e3).ohms() * Farads::new(1e-12).farads();
        assert!((t - 1e-9).abs() < 1e-21);
    }
}
