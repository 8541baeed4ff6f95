//! Electromigration checks: "statistical and absolute failures" (§4.2).
//!
//! * **statistical**: activity-weighted average current (`C·V·f·α`)
//!   against the layer's sustained-current limit — the long-term wearout
//!   budget;
//! * **absolute**: the driver's peak saturation current against a 10×
//!   peak allowance — instantaneous damage.
//!
//! Wire width is taken as the layer minimum (conservative) unless the
//! layout gives better information via wire length heuristics.

use cbv_extract::Extracted;
use cbv_netlist::FlatNetlist;
use cbv_recognize::{NetRole, Recognition};
use cbv_tech::{Corner, Layer, Process};

use crate::report::{CheckKind, Report, Subject};
use crate::{channel_devices, CheckScope, EverifyConfig};

/// Runs both EM checks on the nets one scope owns.
pub fn check(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    process: &Process,
    config: &EverifyConfig,
    scope: &CheckScope,
    report: &mut Report,
) {
    let m1 = process.wires().params(Layer::Metal1);
    let i_limit = m1.em_current_limit(m1.width_min);
    let fast = Corner::fast(process);
    for &net in &scope.nets {
        let Some(en) = extracted.net(net) else {
            continue;
        };
        let role = recognition.role(en.net);
        if matches!(role, NetRole::Rail) {
            continue;
        }
        // Clocks switch every cycle; data switches at the activity factor.
        let activity = if matches!(role, NetRole::Clock) {
            1.0
        } else {
            config.activity
        };
        let c = en.total_cap().farads();
        let i_avg = c * process.vdd_nominal().volts() * config.frequency.hertz() * activity;
        let stress = i_avg / i_limit;
        report.record(
            CheckKind::Electromigration,
            Subject::Net(en.net),
            stress,
            || {
                format!(
                    "net `{}` average current {:.2} mA exceeds min-width M1 EM limit {:.2} mA",
                    netlist.net_name(en.net),
                    i_avg * 1e3,
                    i_limit * 1e3
                )
            },
        );
        // Absolute: strongest driver peak current vs 10x the limit.
        // Peak current leaves through the device's contact strap, which
        // the layout draws as wide as the device (capped at 4 squares of
        // minimum width — beyond that the feeding wire necks down).
        let mut i_peak = 0.0f64;
        let mut w_drv = 0.0f64;
        for id in channel_devices(netlist, en.net) {
            let d = netlist.device(id);
            if !netlist.net_kind(d.gate).is_rail() {
                let i = process
                    .mos(d.kind)
                    .saturation_current(d.w, d.l, &fast)
                    .amps();
                if i > i_peak {
                    i_peak = i;
                    w_drv = d.w;
                }
            }
        }
        if i_peak > 0.0 {
            let strap = w_drv.min(4.0 * m1.width_min).max(m1.width_min);
            let i_limit_peak = m1.em_current_limit(strap);
            let stress = i_peak / (10.0 * i_limit_peak);
            report.record(
                CheckKind::Electromigration,
                Subject::Net(en.net),
                stress,
                || {
                    format!(
                        "net `{}` peak drive {:.2} mA exceeds absolute EM allowance {:.2} mA",
                        netlist.net_name(en.net),
                        i_peak * 1e3,
                        10.0 * i_limit_peak * 1e3
                    )
                },
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::MosKind;

    #[test]
    fn ordinary_gate_passes() {
        let mut f = FlatNetlist::new("inv");
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
            5.6e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            2.4e-6,
            0.35e-6,
        ));
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
        assert_eq!(report.violations().count(), 0, "{:?}", report.findings());
    }

    #[test]
    fn colossal_driver_trips_absolute_em() {
        let mut f = FlatNetlist::new("big");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // A 2 mm wide output driver on a min-width wire.
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p",
            a,
            y,
            vdd,
            vdd,
            2000e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            1000e-6,
            0.35e-6,
        ));
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
            report
                .violations()
                .any(|v| v.check == CheckKind::Electromigration),
            "{:?}",
            report.findings()
        );
    }

    #[test]
    fn clock_nets_use_full_activity() {
        // The same capacitance on a clock stresses EM ~1/activity times
        // harder than on data; verify via the recorded stress values.
        let build = |as_clock: bool| -> f64 {
            let mut f = FlatNetlist::new("net");
            let kind = if as_clock {
                NetKind::Clock
            } else {
                NetKind::Input
            };
            let drv = f.add_net("drv", kind);
            let y = f.add_net("y", NetKind::Output);
            let vdd = f.add_net("vdd", NetKind::Power);
            let gnd = f.add_net("gnd", NetKind::Ground);
            for i in 0..40 {
                f.add_device(Device::mos(
                    MosKind::Nmos,
                    format!("l{i}"),
                    drv,
                    y,
                    gnd,
                    gnd,
                    8e-6,
                    0.35e-6,
                ));
                f.add_device(Device::mos(
                    MosKind::Pmos,
                    format!("pl{i}"),
                    drv,
                    y,
                    vdd,
                    vdd,
                    8e-6,
                    0.35e-6,
                ));
            }
            let process = Process::strongarm_035();
            let layout = synthesize(&f, &process);
            let ex = cbv_extract::extract(&layout, &f, &process);
            let rec = recognize(&f);
            let cfg = EverifyConfig::for_process(&process);
            let mut report = Report::new(1e-6);
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
                .of_check(CheckKind::Electromigration)
                .filter(|fi| matches!(fi.subject, Subject::Net(n) if n == drv))
                .map(|fi| fi.stress)
                .fold(0.0, f64::max)
        };
        let clock_stress = build(true);
        let data_stress = build(false);
        assert!(
            clock_stress > 3.0 * data_stress,
            "clock {clock_stress} vs data {data_stress}"
        );
    }
}
