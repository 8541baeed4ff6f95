//! Bounded stage-delay calculation.
//!
//! §4.3: "timing models for individual transistors and clumps of
//! transistors are derived that sacrifice accuracy for simulation
//! efficiency. ... timing models must also be smart enough to setup the
//! delay calculation for the worst case min (fastest delay time) and max
//! (slowest delay time)."
//!
//! The model: a switching arc through a CCC charges the output net's
//! bounded capacitance through the series resistance of the conducting
//! pull path.
//!
//! * max delay: slowest corner, weakest relevant pull path, maximum
//!   capacitance (max Miller + manufacturing high + full gate context);
//! * min delay: fastest corner, strongest pull path, minimum capacitance.
//!
//! [`Pessimism`] scales both ends — experiment E10 sweeps it to trace
//! the missed-vs-false violation frontier the paper describes.

use cbv_extract::Extracted;
use cbv_netlist::{DeviceId, FlatNetlist, NetId};
use cbv_recognize::CccClass;
use cbv_tech::{Corner, Ohms, Process, Seconds, Tolerance};

/// Pessimism configuration for the timing verifier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pessimism {
    /// Multiplier on every max (late) delay, ≥ 1 for conservative signoff.
    pub late_derate: f64,
    /// Multiplier on every min (early) delay, ≤ 1 for conservative
    /// race analysis.
    pub early_derate: f64,
    /// Extra margin added to inferred setup/hold constraints, seconds.
    pub constraint_margin: Seconds,
    /// Whether min and max excursions are assumed correlated on one die
    /// (true reduces race-analysis pessimism — §4.3's "correlated
    /// minimum/maximum RC analysis").
    pub correlated: bool,
}

impl Pessimism {
    /// The signoff default: 15 % late guardband, 15 % early guardband,
    /// 20 ps constraint margin, correlated analysis on.
    pub fn signoff() -> Pessimism {
        Pessimism {
            late_derate: 1.15,
            early_derate: 0.85,
            constraint_margin: Seconds::new(20e-12),
            correlated: true,
        }
    }

    /// No added pessimism (for model studies).
    pub fn none() -> Pessimism {
        Pessimism {
            late_derate: 1.0,
            early_derate: 1.0,
            constraint_margin: Seconds::ZERO,
            correlated: true,
        }
    }

    /// Scales both guardbands: `amount` = 0 gives [`Pessimism::none`],
    /// 1 gives [`Pessimism::signoff`], larger values overshoot.
    pub fn scaled(amount: f64) -> Pessimism {
        Pessimism {
            late_derate: 1.0 + 0.15 * amount,
            early_derate: (1.0 - 0.15 * amount).max(0.05),
            constraint_margin: Seconds::new(20e-12 * amount),
            correlated: true,
        }
    }
}

impl Default for Pessimism {
    fn default() -> Self {
        Pessimism::signoff()
    }
}

/// Min/max stage-delay calculator.
#[derive(Debug, Clone)]
pub struct DelayCalc<'a> {
    process: &'a Process,
    corner_slow: Corner,
    corner_fast: Corner,
    tolerance: Tolerance,
    /// The pessimism configuration in force.
    pub pessimism: Pessimism,
}

impl<'a> DelayCalc<'a> {
    /// A calculator spanning the slow and fast corners of a process.
    pub fn new(process: &'a Process, tolerance: Tolerance, pessimism: Pessimism) -> DelayCalc<'a> {
        DelayCalc {
            process,
            corner_slow: Corner::slow(process),
            corner_fast: Corner::fast(process),
            tolerance,
            pessimism,
        }
    }

    /// Bounded drive resistance of an output: `(strongest, weakest)` over
    /// the pull paths that involve `through_input` (all paths when the
    /// input participates in none, e.g. a precharge arc evaluated for
    /// the clock). The strongest is taken at the fast corner, the weakest
    /// by [`weakest_drive`] at the slow one.
    fn drive_bounds(
        &self,
        netlist: &FlatNetlist,
        class: &CccClass,
        output: NetId,
        through_input: NetId,
    ) -> Option<(Ohms, Ohms)> {
        let o = class.outputs.iter().find(|o| o.net == output)?;
        let all = || o.pull_up_paths.iter().chain(&o.pull_down_paths);
        let relevant: Vec<&Vec<DeviceId>> = all()
            .filter(|p| p.iter().any(|&d| netlist.device(d).gate == through_input))
            .collect();
        let paths = if relevant.is_empty() {
            all().collect()
        } else {
            relevant
        };
        let strongest = paths
            .iter()
            .filter_map(|p| path_resistance(netlist, self.process, p, &self.corner_fast))
            .fold(None, |acc, r| nan_merge(acc, r, Ohms::min));
        let weakest = weakest_drive(netlist, self.process, &self.corner_slow, paths);
        Some((strongest?, weakest?))
    }

    /// Bounded arc delay from `input` switching to `output` settling:
    /// `(min, max)` including wire RC (Elmore through the extracted
    /// network when present) and derates.
    pub fn arc_delay(
        &self,
        netlist: &FlatNetlist,
        extracted: &Extracted,
        class: &CccClass,
        input: NetId,
        output: NetId,
    ) -> Option<(Seconds, Seconds)> {
        let (r_strong, r_weak) = self.drive_bounds(netlist, class, output, input)?;
        let (c_min, c_max) = extracted.cap_bounds(output, &self.tolerance);
        // Floor the load at a gate-sized parasitic so undriven/unloaded
        // outputs still cost time.
        let c_floor = cbv_tech::Farads::new(0.1e-15);
        let c_min = c_min.max(c_floor);
        let c_max = c_max.max(c_floor);
        let mut t_min = Seconds::new(r_strong.ohms() * c_min.farads());
        let mut t_max = Seconds::new(r_weak.ohms() * c_max.farads());
        // Wire RC: add the worst sink Elmore if the extraction carries a
        // distributed network (driver node unknown → first node).
        if let Some(en) = extracted.net(output) {
            if en.rc.node_count() > 1 {
                let first = en.rc.first_node();
                let last = en.rc.last_node();
                if let Some(t_wire) = en.rc.elmore(first, last, Ohms::ZERO) {
                    t_max += t_wire * self.tolerance.cap_max * self.tolerance.res_max;
                    t_min += t_wire * self.tolerance.cap_min * self.tolerance.res_min;
                }
            }
        }
        t_max = t_max * self.pessimism.late_derate;
        t_min = t_min * self.pessimism.early_derate;
        Some((t_min, t_max))
    }
}

/// Series resistance `Σ Vdd / 2·Isat` of one pull path at a corner;
/// `None` when a device on it cannot conduct there.
fn path_resistance(
    netlist: &FlatNetlist,
    process: &Process,
    path: &[DeviceId],
    corner: &Corner,
) -> Option<Ohms> {
    let mut total = Ohms::ZERO;
    for &did in path {
        let d = netlist.device(did);
        let i = process.mos(d.kind).saturation_current(d.w, d.l, corner);
        if i.amps() <= 0.0 {
            return None;
        }
        total += Ohms::new(corner.vdd.volts() / (2.0 * i.amps()));
    }
    Some(total)
}

/// Folds `r` into a running bound with `pick`. `f64::min`/`max` return
/// the non-NaN operand, so a NaN path resistance (a NaN device geometry)
/// would silently fall out of a bound and the drive would look healthy:
/// here a NaN on either side makes the bound NaN.
fn nan_merge(acc: Option<Ohms>, r: Ohms, pick: fn(Ohms, Ohms) -> Ohms) -> Option<Ohms> {
    Some(match acc {
        Some(a) if a.ohms().is_nan() || r.ohms().is_nan() => Ohms::new(f64::NAN),
        Some(a) => pick(a, r),
        None => r,
    })
}

/// The weak drive bound of parallel pull paths at `corner`: the largest
/// series resistance (`Σ Vdd / 2·Isat`) among the paths that can set
/// the transition. Deliberately weak holders (jam feedback, keepers) in
/// parallel with real drive never do, so paths more than 4x the
/// strongest are dropped first. `None` when no path conducts; NaN when
/// any path resistance is NaN. Timing's late arc bound and the edge-rate
/// check both read a node's weak drive here.
pub fn weakest_drive<'p>(
    netlist: &FlatNetlist,
    process: &Process,
    corner: &Corner,
    paths: impl IntoIterator<Item = &'p Vec<DeviceId>>,
) -> Option<Ohms> {
    let rs: Vec<Ohms> = paths
        .into_iter()
        .filter_map(|p| path_resistance(netlist, process, p, corner))
        .collect();
    let best = rs
        .iter()
        .fold(None, |acc, &r| nan_merge(acc, r, Ohms::min))
        .unwrap_or(Ohms::new(f64::INFINITY));
    rs.into_iter()
        .filter(|r| r.ohms().is_nan() || best.ohms().is_nan() || r.ohms() <= 4.0 * best.ohms())
        .fold(None, |acc, r| nan_merge(acc, r, Ohms::max))
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, FlatNetlist, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::MosKind;

    fn inv_chain(w_scale: f64) -> (FlatNetlist, Extracted, Vec<CccClass>) {
        let mut f = FlatNetlist::new("chain");
        let a = f.add_net("a", NetKind::Input);
        let m = f.add_net("m", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p0",
            a,
            m,
            vdd,
            vdd,
            w_scale * 4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n0",
            a,
            m,
            gnd,
            gnd,
            w_scale * 2e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p1",
            m,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n1",
            m,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let process = Process::strongarm_035();
        let layout = synthesize(&f, &process);
        let ex = cbv_extract::extract(&layout, &f, &process);
        let rec = recognize(&f);
        (f, ex, rec.classes)
    }

    fn process() -> Process {
        Process::strongarm_035()
    }

    #[test]
    fn min_below_max() {
        let (f, ex, classes) = inv_chain(1.0);
        let p = process();
        let dc = DelayCalc::new(&p, Tolerance::conservative(), Pessimism::signoff());
        let a = f.find_net("a").unwrap();
        let m = f.find_net("m").unwrap();
        let class = classes
            .iter()
            .find(|c| c.outputs.iter().any(|o| o.net == m))
            .unwrap();
        let (lo, hi) = dc.arc_delay(&f, &ex, class, a, m).unwrap();
        assert!(lo.seconds() > 0.0);
        assert!(
            hi.seconds() > lo.seconds() * 1.5,
            "window must be wide: {lo} vs {hi}"
        );
    }

    #[test]
    fn stronger_driver_is_faster() {
        let p = process();
        let dc = DelayCalc::new(&p, Tolerance::nominal(), Pessimism::none());
        let (f1, ex1, c1) = inv_chain(1.0);
        let (f4, ex4, c4) = inv_chain(4.0);
        let d1 = {
            let a = f1.find_net("a").unwrap();
            let m = f1.find_net("m").unwrap();
            let class = c1
                .iter()
                .find(|c| c.outputs.iter().any(|o| o.net == m))
                .unwrap();
            dc.arc_delay(&f1, &ex1, class, a, m).unwrap().1
        };
        let d4 = {
            let a = f4.find_net("a").unwrap();
            let m = f4.find_net("m").unwrap();
            let class = c4
                .iter()
                .find(|c| c.outputs.iter().any(|o| o.net == m))
                .unwrap();
            dc.arc_delay(&f4, &ex4, class, a, m).unwrap().1
        };
        assert!(
            d4.seconds() < d1.seconds(),
            "4x driver must beat 1x: {d4} vs {d1}"
        );
    }

    #[test]
    fn pessimism_widens_window() {
        let (f, ex, classes) = inv_chain(1.0);
        let p = process();
        let a = f.find_net("a").unwrap();
        let m = f.find_net("m").unwrap();
        let class = classes
            .iter()
            .find(|c| c.outputs.iter().any(|o| o.net == m))
            .unwrap();
        let lo_hi = |pess: Pessimism| {
            let dc = DelayCalc::new(&p, Tolerance::conservative(), pess);
            dc.arc_delay(&f, &ex, class, a, m).unwrap()
        };
        let (lo0, hi0) = lo_hi(Pessimism::none());
        let (lo1, hi1) = lo_hi(Pessimism::signoff());
        assert!(hi1.seconds() > hi0.seconds());
        assert!(lo1.seconds() < lo0.seconds());
    }

    /// A NaN device width must poison both arc-delay bounds instead of
    /// being swallowed by the min/max folds in `drive_bounds` (the
    /// keeper filter would otherwise drop the NaN path silently).
    #[test]
    fn nan_geometry_poisons_arc_bounds() {
        let (mut f, ex, classes) = inv_chain(1.0);
        let p = process();
        let a = f.find_net("a").unwrap();
        let m = f.find_net("m").unwrap();
        f.device_mut(cbv_netlist::DeviceId(0)).w = f64::NAN;
        let dc = DelayCalc::new(&p, Tolerance::conservative(), Pessimism::signoff());
        let class = classes
            .iter()
            .find(|c| c.outputs.iter().any(|o| o.net == m))
            .unwrap();
        let (lo, hi) = dc.arc_delay(&f, &ex, class, a, m).unwrap();
        assert!(lo.seconds().is_nan(), "min bound must carry the NaN: {lo}");
        assert!(hi.seconds().is_nan(), "max bound must carry the NaN: {hi}");
    }

    #[test]
    fn scaled_pessimism_interpolates() {
        let p0 = Pessimism::scaled(0.0);
        assert!((p0.late_derate - 1.0).abs() < 1e-12);
        let p1 = Pessimism::scaled(1.0);
        assert!((p1.late_derate - 1.15).abs() < 1e-12);
        let p3 = Pessimism::scaled(3.0);
        assert!(p3.early_derate > 0.0);
    }
}
