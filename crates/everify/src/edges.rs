//! Edge rate and delay analysis for clocks and signals (§4.2).
//!
//! Slow edges burn short-circuit current, amplify coupling noise and
//! break the delay models' assumptions. Each driven net's worst-case
//! 10–90 % edge (≈ 2.2·R·C) is checked against the configured limit.

use cbv_extract::Extracted;
use cbv_netlist::FlatNetlist;
use cbv_recognize::Recognition;
use cbv_tech::{Corner, Process};
use cbv_timing::delay::weakest_drive;

use crate::report::{CheckKind, Report, Subject};
use crate::{CheckScope, EverifyConfig};

/// Runs the edge-rate check on one ownership scope.
pub fn check(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    process: &Process,
    config: &EverifyConfig,
    scope: &CheckScope,
    report: &mut Report,
) {
    let slow = Corner::slow(process);
    for &ci in &scope.cccs {
        let class = &recognition.classes[ci];
        for o in &class.outputs {
            let out = o.net;
            // Dynamic nodes rise through their clocked precharger; a weak
            // keeper in parallel is a holder, not an edge driver.
            let dynamic = class.dynamic_outputs.contains(&out);
            let up_paths = o.pull_up_paths.iter().filter(|p| {
                !dynamic
                    || p.iter()
                        .any(|&d| recognition.clock_nets.contains(&netlist.device(d).gate))
            });
            let r_up = weakest_drive(netlist, process, &slow, up_paths);
            let r_down = weakest_drive(netlist, process, &slow, &o.pull_down_paths);
            // The slower side sets the edge; a NaN on either side is a
            // broken calculation and must stay NaN, not lose to `max`.
            let Some(r) = r_up.into_iter().chain(r_down).reduce(|a, b| {
                if b.ohms().is_nan() || b > a {
                    b
                } else {
                    a
                }
            }) else {
                continue;
            };
            let (_, c_max) = extracted.cap_bounds(out, &config.tolerance);
            let edge = 2.2 * r.ohms() * c_max.farads();
            let stress = edge / config.max_edge.seconds();
            report.record(CheckKind::EdgeRate, Subject::Net(out), stress, || {
                format!(
                    "net `{}` worst edge {:.0} ps exceeds limit {:.0} ps",
                    netlist.net_name(out),
                    edge * 1e12,
                    config.max_edge.seconds() * 1e12
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, NetKind, Passive};
    use cbv_recognize::recognize;
    use cbv_tech::MosKind;

    fn run_with_load(c_load_f: f64) -> Report {
        let mut f = FlatNetlist::new("drv");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
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
        if c_load_f > 0.0 {
            f.add_passive(Passive::capacitor("cl", y, gnd, c_load_f));
        }
        let process = Process::strongarm_035();
        let layout = synthesize(&f, &process);
        let mut ex = cbv_extract::extract(&layout, &f, &process);
        // Fold the explicit load into the extraction by adding it as
        // coupling-free ground cap; the extractor does not read passives,
        // so emulate a heavy fanout instead when c_load_f is big:
        if c_load_f > 0.0 {
            // Reach into nothing: instead attach many receiver gates.
            let _ = &mut ex;
        }
        let rec = recognize(&f);
        let cfg = EverifyConfig::for_process(&process);
        let mut report = Report::new(cfg.filter_threshold);
        check(
            &f,
            &rec,
            &ex,
            &process,
            &cfg,
            &CheckScope::full(&f, &rec),
            &mut report,
        );
        report
    }

    #[test]
    fn small_load_passes() {
        let r = run_with_load(0.0);
        assert_eq!(r.violations().count(), 0, "{:?}", r.findings());
        assert!(r.checked_count() > 0);
    }

    #[test]
    fn nan_pull_up_width_is_a_tool_error_not_a_finite_edge() {
        // NAND2 extracted at sane sizes, then one pull-up PMOS's width
        // turns NaN: its parallel partner must not hide the broken path.
        let mut f = FlatNetlist::new("nand2");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let pa = f.add_device(Device::mos(
            MosKind::Pmos,
            "pa",
            a,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pb",
            b,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            y,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b,
            x,
            gnd,
            gnd,
            4e-6,
            0.35e-6,
        ));
        let process = Process::strongarm_035();
        let ex = cbv_extract::extract(&synthesize(&f, &process), &f, &process);
        f.device_mut(pa).w = f64::NAN;
        let rec = recognize(&f);
        let cfg = EverifyConfig::for_process(&process);
        let mut report = Report::new(cfg.filter_threshold);
        let scope = CheckScope::full(&f, &rec);
        check(&f, &rec, &ex, &process, &cfg, &scope, &mut report);
        assert!(
            report.tool_errors().any(|t| t.check == CheckKind::EdgeRate
                && t.subject == Subject::Net(y)
                && t.stress.is_nan()),
            "{:?}",
            report.findings()
        );
    }

    #[test]
    fn huge_fanout_violates() {
        // A minimum driver into 600 receiver gates.
        let mut f = FlatNetlist::new("fan");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let z = f.add_net("z", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p",
            a,
            y,
            vdd,
            vdd,
            1.0e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            0.8e-6,
            0.35e-6,
        ));
        for i in 0..600 {
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("l{i}"),
                y,
                z,
                gnd,
                gnd,
                4e-6,
                0.35e-6,
            ));
        }
        let process = Process::strongarm_035();
        let layout = synthesize(&f, &process);
        let ex = cbv_extract::extract(&layout, &f, &process);
        let rec = recognize(&f);
        let cfg = EverifyConfig::for_process(&process);
        let mut report = Report::new(cfg.filter_threshold);
        check(
            &f,
            &rec,
            &ex,
            &process,
            &cfg,
            &CheckScope::full(&f, &rec),
            &mut report,
        );
        assert!(
            report.violations().any(|v| v.check == CheckKind::EdgeRate),
            "600x fanout on a minimum driver must fail edge rate"
        );
    }
}
