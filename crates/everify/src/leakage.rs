//! Dynamic-node leakage checks (§4.2) — Fig 3's "sub-threshold leakage
//! through the N-device network".
//!
//! A floating precharged node loses charge through the off evaluate
//! stack; the droop over the configured hold window must stay inside the
//! margin. Checked at the fast (leaky) corner, exactly as the paper's
//! standby spec was.

use cbv_extract::Extracted;
use cbv_netlist::FlatNetlist;
use cbv_recognize::Recognition;
use cbv_tech::{Corner, Process};

use crate::report::{CheckKind, Report, Subject};
use crate::{CheckScope, EverifyConfig};

/// Runs the dynamic-leakage check on one ownership scope.
pub fn check(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    process: &Process,
    config: &EverifyConfig,
    scope: &CheckScope,
    report: &mut Report,
) {
    let fast = Corner::fast(process);
    for &ci in &scope.cccs {
        let class = &recognition.classes[ci];
        for &dyn_net in &class.dynamic_outputs {
            // Leakage through every off device whose channel touches the
            // node and leads (eventually) to ground: conservatively, every
            // NMOS on the node.
            let mut i_leak = 0.0;
            for d in netlist.devices() {
                if d.kind == cbv_tech::MosKind::Nmos && d.channel_touches(dyn_net) {
                    i_leak += process
                        .mos(d.kind)
                        .subthreshold_leakage(d.w, d.l, &fast)
                        .amps();
                }
            }
            if i_leak <= 0.0 {
                continue;
            }
            let (c_min, _) = extracted.cap_bounds(dyn_net, &config.tolerance);
            let c = c_min.farads().max(1e-18);
            let droop_v = i_leak * config.dynamic_hold.seconds() / c;
            let margin_v = config.leakage_margin * fast.vdd.volts();
            let stress = droop_v / margin_v;
            report.record(CheckKind::Leakage, Subject::Net(dyn_net), stress, || {
                format!(
                    "dynamic node `{}` leaks {:.1} mV over {:.1} ns hold (margin {:.1} mV)",
                    netlist.net_name(dyn_net),
                    (droop_v * 1e3).min(99999.0),
                    config.dynamic_hold.seconds() * 1e9,
                    margin_v * 1e3
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::{MosKind, Seconds};

    fn domino(l_eval: f64, hold_ns: f64) -> Report {
        let mut f = FlatNetlist::new("dom");
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a", NetKind::Input);
        let d = f.add_net("d", NetKind::Signal);
        let out = f.add_net("out", NetKind::Output);
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
        f.add_device(Device::mos(MosKind::Nmos, "na", a, d, x, gnd, 8e-6, l_eval));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "ft",
            clk,
            x,
            gnd,
            gnd,
            8e-6,
            l_eval,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "op",
            d,
            out,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "on",
            d,
            out,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let process = Process::strongarm_035();
        let layout = synthesize(&f, &process);
        let ex = cbv_extract::extract(&layout, &f, &process);
        let rec = recognize(&f);
        let mut cfg = EverifyConfig::for_process(&process);
        cfg.dynamic_hold = Seconds::new(hold_ns * 1e-9);
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
    fn short_hold_passes() {
        let r = domino(0.35e-6, 2.0);
        assert_eq!(r.violations().count(), 0, "{:?}", r.findings());
    }

    #[test]
    fn long_hold_on_min_length_violates() {
        // Holding a dynamic node for 100 µs on low-Vt devices is hopeless.
        let r = domino(0.35e-6, 100_000.0);
        assert!(
            r.violations().any(|v| v.check == CheckKind::Leakage),
            "{:?}",
            r.findings()
        );
    }

    #[test]
    fn channel_lengthening_rescues_long_hold() {
        // The §3 trick: +0.09 µm on the eval devices cuts leakage
        // enough to pass a hold the minimum-length version fails.
        let stress_of = |l: f64| -> f64 {
            let r = domino(l, 3000.0);
            r.findings().first().map(|f| f.stress).unwrap_or(0.0)
        };
        let s_min = stress_of(0.35e-6);
        let s_long = stress_of(0.44e-6);
        assert!(
            s_long < s_min / 3.0,
            "lengthening must slash leakage stress: {s_min} -> {s_long}"
        );
    }
}
