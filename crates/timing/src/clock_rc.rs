//! Clock distribution RC analysis.
//!
//! §4.2 lists "Clock distribution RC analysis — node-by-node clock RC
//! analysis, correlated minimum/maximum RC analysis, edge rate and delay
//! analysis for clocks and signals". Given the extracted RC network of a
//! clock net, this module computes bounded insertion delays to every
//! node and the resulting skew window.

use cbv_extract::Extracted;
use cbv_netlist::NetId;
use cbv_tech::{Ohms, Seconds, Tolerance};

/// Bounded insertion-delay spread of one clock net.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSkew {
    /// The clock net.
    pub net: NetId,
    /// Earliest node arrival relative to the driver (fast excursion of
    /// the nearest node).
    pub min: Seconds,
    /// Latest node arrival (slow excursion of the farthest node).
    pub max: Seconds,
}

impl ClockSkew {
    /// The skew window width.
    pub fn spread(&self) -> Seconds {
        self.max - self.min
    }
}

/// Node-by-node clock RC analysis for one clock net.
///
/// `r_driver` is the clock driver's effective output resistance. Returns
/// `None` when the net has no extracted RC network.
pub fn clock_skew_bounds(
    extracted: &Extracted,
    net: NetId,
    r_driver: Ohms,
    tolerance: &Tolerance,
) -> Option<ClockSkew> {
    let en = extracted.net(net)?;
    if en.rc.node_count() < 2 {
        return None;
    }
    let root = en.rc.first_node();
    let mut nominal_min: Option<Seconds> = None;
    let mut nominal_max: Option<Seconds> = None;
    // One O(nodes) sweep instead of a per-node Elmore solve: clock nets
    // are the largest RC networks in a design, and skew bounds are
    // recomputed by every flow run.
    let delays = en.rc.elmore_all(root, r_driver)?;
    for (i, t) in delays.into_iter().enumerate() {
        if i == root.index() {
            continue;
        }
        let Some(t) = t else { continue };
        // `f64::min`/`max` swallow NaN (they return the other operand),
        // so a NaN insertion delay — a NaN parasitic on the clock tree —
        // would silently vanish from the window and the broken clock
        // would sign off. Propagate it instead; the NaN skew reaches the
        // STA capture checks, which report it (total_cmp discipline).
        let nan = t.seconds().is_nan();
        nominal_min = Some(match nominal_min {
            Some(m) if nan || m.seconds().is_nan() => Seconds::new(f64::NAN),
            Some(m) => m.min(t),
            None => t,
        });
        nominal_max = Some(match nominal_max {
            Some(m) if nan || m.seconds().is_nan() => Seconds::new(f64::NAN),
            Some(m) => m.max(t),
            None => t,
        });
    }
    let (lo, hi) = (nominal_min?, nominal_max?);
    Some(ClockSkew {
        net,
        min: lo * (tolerance.res_min * tolerance.cap_min),
        max: hi * (tolerance.res_max * tolerance.cap_max),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_extract::RcNet;
    use cbv_tech::Farads;

    /// Builds an `Extracted` with one synthetic clock line by abusing the
    /// public extraction path is impossible, so test the math directly on
    /// RcNet plus the wrapper over a real extraction in the integration
    /// tests.
    #[test]
    fn line_skew_math() {
        let net = NetId(0);
        let rc = RcNet::line(net, 16, Ohms::new(800.0), Farads::new(2e-12));
        let root = rc.first_node();
        let near = cbv_extract::RcNodeId(1);
        let far = rc.last_node();
        let t_near = rc.elmore(root, near, Ohms::new(100.0)).unwrap();
        let t_far = rc.elmore(root, far, Ohms::new(100.0)).unwrap();
        assert!(t_far.seconds() > t_near.seconds());
        // Driver resistance dominates the common term; spread comes from
        // the wire.
        let spread = t_far - t_near;
        assert!(spread.seconds() > 0.2 * t_far.seconds() - 100.0 * 2e-12);
    }

    /// A NaN resistor anywhere in the clock tree must poison both skew
    /// bounds — `f64::min`/`max` would silently drop it and the skew
    /// window would look healthy.
    #[test]
    fn nan_parasitic_poisons_skew_bounds() {
        let net = NetId(0);
        let mut rc = RcNet::line(net, 8, Ohms::new(800.0), Farads::new(2e-12));
        // Poison a stub branch: its node gets a NaN delay while the main
        // line stays finite — the merge must still come out NaN. (A NaN
        // resistor in parallel with a finite one would be shadowed by the
        // BFS spanning tree; a stub is always a tree edge.)
        let a = cbv_extract::RcNodeId(4);
        let tip = rc.fresh_node();
        rc.add_resistor(a, tip, Ohms::new(f64::NAN));
        rc.add_cap(tip, Farads::new(1e-15));
        let root = rc.first_node();
        let delays = rc.elmore_all(root, Ohms::new(100.0)).unwrap();
        assert!(delays.iter().flatten().any(|t| t.seconds().is_nan()));
        assert!(delays.iter().flatten().any(|t| !t.seconds().is_nan()));
        // Reproduce the clock_skew_bounds merge on the raw delays (the
        // Extracted wrapper is exercised by the flow-level regression).
        let mut lo: Option<Seconds> = None;
        let mut hi: Option<Seconds> = None;
        for (i, t) in delays.into_iter().enumerate() {
            if i == root.index() {
                continue;
            }
            let Some(t) = t else { continue };
            let nan = t.seconds().is_nan();
            lo = Some(match lo {
                Some(m) if nan || m.seconds().is_nan() => Seconds::new(f64::NAN),
                Some(m) => m.min(t),
                None => t,
            });
            hi = Some(match hi {
                Some(m) if nan || m.seconds().is_nan() => Seconds::new(f64::NAN),
                Some(m) => m.max(t),
                None => t,
            });
        }
        assert!(lo.unwrap().seconds().is_nan(), "min bound must be NaN");
        assert!(hi.unwrap().seconds().is_nan(), "max bound must be NaN");
    }

    #[test]
    fn tolerance_widens_window() {
        // Construct Extracted via the real extractor on a long routed net.
        use cbv_layout::synthesize;
        use cbv_netlist::{Device, FlatNetlist, NetKind};
        use cbv_tech::{MosKind, Process};
        let mut f = FlatNetlist::new("ckbuf");
        let ck = f.add_net("ck", NetKind::Clock);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let out = f.add_net("q", NetKind::Output);
        // A string of loads on the clock to stretch its route.
        for i in 0..6 {
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("load{i}"),
                ck,
                out,
                gnd,
                gnd,
                6e-6,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("pload{i}"),
                ck,
                out,
                vdd,
                vdd,
                6e-6,
                0.35e-6,
            ));
        }
        let p = Process::strongarm_035();
        let layout = synthesize(&f, &p);
        let ex = cbv_extract::extract(&layout, &f, &p);
        let tight = clock_skew_bounds(&ex, ck, Ohms::new(200.0), &Tolerance::nominal())
            .expect("clock net extracted");
        let wide = clock_skew_bounds(&ex, ck, Ohms::new(200.0), &Tolerance::conservative())
            .expect("clock net extracted");
        assert!(wide.spread().seconds() > tight.spread().seconds());
        assert!(wide.max.seconds() > tight.max.seconds());
    }
}
