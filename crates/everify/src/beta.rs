//! Transistor configuration analysis: beta ratio and device size checks
//! of all complementary and ratioed structures (§4.2, first bullet).

use cbv_netlist::{DeviceId, FlatNetlist};
use cbv_recognize::{LogicFamily, Recognition};
use cbv_tech::Process;

use crate::report::{CheckKind, Report, Subject};
use crate::{CheckScope, EverifyConfig};

/// Conductance of one device (S): k'·W/L.
pub(crate) fn conductance(netlist: &FlatNetlist, process: &Process, did: DeviceId) -> f64 {
    let d = netlist.device(did);
    process.mos(d.kind).k_prime * d.w / d.l
}

/// Conductance of one series path (S), from [`conductance`] per device;
/// 0 for an empty path or one with a non-conducting device.
pub(crate) fn path_conductance(netlist: &FlatNetlist, process: &Process, path: &[DeviceId]) -> f64 {
    if path.is_empty() {
        return 0.0;
    }
    let mut inv_g = 0.0;
    for &did in path {
        let g = conductance(netlist, process, did);
        if g <= 0.0 {
            return 0.0;
        }
        inv_g += 1.0 / g;
    }
    1.0 / inv_g
}

/// Strongest path conductance on one side of an output.
fn best_conductance(netlist: &FlatNetlist, process: &Process, paths: &[Vec<DeviceId>]) -> f64 {
    paths
        .iter()
        .map(|p| path_conductance(netlist, process, p))
        .fold(0.0, f64::max)
}

/// Runs the beta-ratio and size checks on one ownership scope.
pub fn check(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    process: &Process,
    config: &EverifyConfig,
    scope: &CheckScope,
    report: &mut Report,
) {
    // Device size sanity: drawn geometry below manufacturable minimum.
    let l_min = process.l_min().meters();
    for &id in &scope.devices {
        let d = netlist.device(id);
        // Exactly-at-minimum geometry is legal and filtered; shrinking
        // below minimum escalates steeply to a violation.
        let stress = (l_min / d.l.max(1e-12)).powi(8) * 0.55;
        report.record(CheckKind::BetaRatio, Subject::Device(id), stress, || {
            format!(
                "device `{}` drawn length {:.0} nm below process minimum {:.0} nm",
                d.name,
                d.l * 1e9,
                l_min * 1e9
            )
        });
        let w_min = 2.0 * l_min;
        let wstress = (w_min / d.w.max(1e-12)).powi(8) * 0.55; // exactly-min filters
        report.record(CheckKind::BetaRatio, Subject::Device(id), wstress, || {
            format!(
                "device `{}` width {:.0} nm below minimum {:.0} nm",
                d.name,
                d.w * 1e9,
                w_min * 1e9
            )
        });
    }

    for &ci in &scope.cccs {
        let class = &recognition.classes[ci];
        match class.family {
            LogicFamily::StaticComplementary => {
                for o in &class.outputs {
                    let g_up = best_conductance(netlist, process, &o.pull_up_paths);
                    let g_down = best_conductance(netlist, process, &o.pull_down_paths);
                    if g_up <= 0.0 || g_down <= 0.0 {
                        continue;
                    }
                    let ratio = g_up / g_down;
                    let (lo, hi) = config.beta_window;
                    // Stress: how far outside the acceptance window,
                    // normalized so sitting exactly at the edge is 1.0.
                    let stress = if ratio < 1.0 {
                        lo / ratio * 0.999
                    } else {
                        ratio / hi * 0.999
                    };
                    report.record(CheckKind::BetaRatio, Subject::Net(o.net), stress, || {
                        format!(
                            "complementary output `{}` beta ratio {ratio:.2} outside window {lo:.2}..{hi:.2}",
                            netlist.net_name(o.net)
                        )
                    });
                }
            }
            LogicFamily::Ratioed => {
                // The pull-down must overpower the always-on load by 3x
                // to reach a solid low level.
                for o in &class.outputs {
                    let g_load = best_conductance(netlist, process, &o.pull_up_paths);
                    let g_down = best_conductance(netlist, process, &o.pull_down_paths);
                    if g_load <= 0.0 || g_down <= 0.0 {
                        continue;
                    }
                    let stress = 3.0 * g_load / g_down;
                    report.record(CheckKind::BetaRatio, Subject::Net(o.net), stress, || {
                        format!(
                            "ratioed output `{}`: pull-down only {:.1}x the load (need 3x)",
                            netlist.net_name(o.net),
                            g_down / g_load
                        )
                    });
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::MosKind;

    fn run(f: &mut FlatNetlist) -> Report {
        let process = Process::strongarm_035();
        let rec = recognize(f);
        let cfg = EverifyConfig::for_process(&process);
        let mut report = Report::new(cfg.filter_threshold);
        check(
            f,
            &rec,
            &process,
            &cfg,
            &CheckScope::full(f, &rec),
            &mut report,
        );
        report
    }

    fn inverter(wp: f64, wn: f64) -> FlatNetlist {
        let mut f = FlatNetlist::new("inv");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(MosKind::Pmos, "p", a, y, vdd, vdd, wp, 0.35e-6));
        f.add_device(Device::mos(MosKind::Nmos, "n", a, y, gnd, gnd, wn, 0.35e-6));
        f
    }

    #[test]
    fn balanced_inverter_passes() {
        let mut f = inverter(5.6e-6, 2.4e-6);
        let r = run(&mut f);
        assert_eq!(r.violations().count(), 0, "{:?}", r.findings());
    }

    #[test]
    fn grossly_skewed_inverter_flagged() {
        // Giant PMOS over a minimum NMOS: rise/fall hopelessly unbalanced.
        let mut f = inverter(60e-6, 0.8e-6);
        let r = run(&mut f);
        assert!(
            r.of_check(CheckKind::BetaRatio).count() > 0,
            "skewed gate must surface"
        );
    }

    #[test]
    fn sub_minimum_length_violates() {
        let mut f = FlatNetlist::new("short");
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
            0.2e-6,
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
        let r = run(&mut f);
        assert!(r.violations().any(|v| v.message.contains("length")));
    }

    #[test]
    fn weak_ratioed_pulldown_flagged() {
        let mut f = FlatNetlist::new("pseudo");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // Strong always-on load vs puny pull-down.
        f.add_device(Device::mos(
            MosKind::Pmos,
            "load",
            gnd,
            y,
            vdd,
            vdd,
            10e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            1e-6,
            0.35e-6,
        ));
        let r = run(&mut f);
        assert!(
            r.violations().any(|v| v.check == CheckKind::BetaRatio),
            "{:?}",
            r.findings()
        );
    }

    #[test]
    fn healthy_ratioed_passes() {
        let mut f = FlatNetlist::new("pseudo");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "load",
            gnd,
            y,
            vdd,
            vdd,
            1.2e-6,
            0.7e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            8e-6,
            0.35e-6,
        ));
        let r = run(&mut f);
        assert_eq!(r.violations().count(), 0, "{:?}", r.findings());
    }
}
