//! Edge rate and delay analysis for clocks and signals (§4.2).
//!
//! Slow edges burn short-circuit current, amplify coupling noise and
//! break the delay models' assumptions. Each driven net's worst-case
//! 10–90 % edge (≈ 2.2·R·C) is checked against the configured limit.

use cbv_extract::Extracted;
use cbv_netlist::{DeviceId, FlatNetlist};
use cbv_recognize::Recognition;
use cbv_tech::{Corner, Process};

use crate::report::{CheckKind, Report, Subject};
use crate::{CheckScope, EverifyConfig};

fn weakest_path_resistance(
    netlist: &FlatNetlist,
    process: &Process,
    corner: &Corner,
    paths: &[Vec<DeviceId>],
) -> Option<f64> {
    let mut rs = Vec::new();
    for p in paths {
        let mut r = 0.0;
        let mut ok = true;
        for &did in p {
            let d = netlist.device(did);
            let i = process.mos(d.kind).saturation_current(d.w, d.l, corner);
            if i.amps() <= 0.0 {
                ok = false;
                break;
            }
            r += corner.vdd.volts() / (2.0 * i.amps());
        }
        if ok {
            rs.push(r);
        }
    }
    // Deliberately weak parallel paths (feedback keepers, jam devices)
    // hold the node, they do not set its edges: a path more than 4x the
    // strongest parallel path never dominates the transition.
    let best = rs.iter().copied().fold(f64::INFINITY, f64::min);
    rs.retain(|&r| r <= 4.0 * best);
    rs.into_iter().fold(None, |acc, r| {
        Some(match acc {
            Some(w) => r.max(w),
            None => r,
        })
    })
}

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
        for (out, up_paths) in &class.pullup_paths {
            let down_paths = class
                .pulldown_paths
                .iter()
                .find(|(n, _)| n == out)
                .map(|(_, p)| p.as_slice())
                .unwrap_or(&[]);
            // Dynamic nodes rise through their clocked precharger; a weak
            // keeper in parallel is a holder, not an edge driver.
            let up_filtered: Vec<Vec<DeviceId>>;
            let up_paths: &[Vec<DeviceId>] = if class.dynamic_outputs.contains(out) {
                up_filtered = up_paths
                    .iter()
                    .filter(|p| {
                        p.iter()
                            .any(|&d| recognition.clock_nets.contains(&netlist.device(d).gate))
                    })
                    .cloned()
                    .collect();
                &up_filtered
            } else {
                up_paths
            };
            let r_up = weakest_path_resistance(netlist, process, &slow, up_paths);
            let r_down = weakest_path_resistance(netlist, process, &slow, down_paths);
            let r = match (r_up, r_down) {
                (Some(a), Some(b)) => a.max(b),
                (Some(a), None) => a,
                (None, Some(b)) => b,
                (None, None) => continue,
            };
            let (_, c_max) = extracted.cap_bounds(*out, &config.tolerance);
            let edge = 2.2 * r * c_max.farads();
            let stress = edge / config.max_edge.seconds();
            report.record(CheckKind::EdgeRate, Subject::Net(*out), stress, || {
                format!(
                    "net `{}` worst edge {:.0} ps exceeds limit {:.0} ps",
                    netlist.net_name(*out),
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
