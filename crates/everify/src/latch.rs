//! State-element writability and noise-margin analysis (§4.2).
//!
//! Two failure modes for hand-built storage:
//!
//! * **not writable** — the write path (pass devices) cannot overpower
//!   the feedback keeper holding the old value;
//! * **too writable** — a keeper so weak that noise flips it (checked as
//!   keeper-vs-leakage strength on dynamic nodes).

use cbv_netlist::FlatNetlist;
use cbv_recognize::{Recognition, StateKind};
use cbv_tech::{MosKind, Process};

use crate::beta::{conductance, path_conductance};
use crate::report::{CheckKind, Report, Subject};
use crate::EverifyConfig;

/// Runs writability checks on every recognized state element.
pub fn check(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    process: &Process,
    config: &EverifyConfig,
    report: &mut Report,
) {
    // Channel-net ownership is a partition (every non-rail channel net
    // belongs to exactly one CCC, and a CCC's outputs are a subset of
    // its channel nets), so "some non-loop component touches this net"
    // reduces to one owner lookup instead of a scan over every CCC.
    let mut owner: Vec<Option<usize>> = vec![None; netlist.net_count()];
    for (i, ccc) in recognition.cccs.iter().enumerate() {
        for &n in &ccc.channel_nets {
            owner[n.index()] = Some(i);
        }
    }
    for se in &recognition.state_elements {
        match se.kind {
            StateKind::LevelLatch => {
                // Write path: devices whose channel connects a storage
                // net to a net *outside* the loop (new data coming in).
                // Feedback: loop devices that drive storage from rails or
                // from other loop nets (the regeneration that must be
                // overpowered).
                // A net is "outside" the loop when something other than
                // the loop itself drives it: it is a primary input, or a
                // non-loop component touches it. Those are where new data
                // comes from.
                let is_outside = |net: cbv_netlist::NetId| -> bool {
                    if netlist.net_kind(net).is_driven_externally() {
                        return true;
                    }
                    match owner[net.index()] {
                        Some(i) => !se.cccs.iter().any(|c| c.index() == i),
                        None => false,
                    }
                };
                let mut g_write = 0.0;
                let mut g_feedback = 0.0;
                for &ci in &se.cccs {
                    for &did in &recognition.cccs[ci.index()].devices {
                        let d = netlist.device(did);
                        let Some(&storage) =
                            se.storage_nets.iter().find(|&&n| d.channel_touches(n))
                        else {
                            continue;
                        };
                        let other = d.other_channel_end(storage);
                        if !netlist.net_kind(other).is_rail() && is_outside(other) {
                            g_write += conductance(netlist, process, did);
                        } else {
                            g_feedback += conductance(netlist, process, did);
                        }
                    }
                }
                if g_write <= 0.0 || g_feedback <= 0.0 {
                    continue;
                }
                // Feedback half fights the write (one polarity at a time).
                let ratio = g_write / (g_feedback / 2.0);
                let stress = config.writability_ratio / ratio;
                let net = se.storage_nets.first().copied();
                if let Some(net) = net {
                    report.record(CheckKind::Writability, Subject::Net(net), stress, || {
                        format!(
                            "latch at `{}`: write path only {ratio:.2}x the feedback (need {:.1}x)",
                            netlist.net_name(net),
                            config.writability_ratio
                        )
                    });
                }
            }
            StateKind::Keeper => {
                // The keeper must be overpowered by the evaluate path:
                // keeper conductance ≤ 1/3 of the weakest eval pull-down.
                for &ci in &se.cccs {
                    let class = &recognition.classes[ci.index()];
                    let dynamic = class
                        .outputs
                        .iter()
                        .filter(|o| class.dynamic_outputs.contains(&o.net));
                    for o in dynamic {
                        let dyn_net = o.net;
                        let mut g_keeper = 0.0;
                        for &did in &recognition.cccs[ci.index()].devices {
                            let d = netlist.device(did);
                            if d.kind == MosKind::Pmos
                                && d.channel_touches(dyn_net)
                                && !recognition.clock_nets.contains(&d.gate)
                            {
                                g_keeper += conductance(netlist, process, did);
                            }
                        }
                        if g_keeper <= 0.0 {
                            continue;
                        }
                        let g_eval = o
                            .pull_down_paths
                            .iter()
                            .map(|p| path_conductance(netlist, process, p))
                            .fold(f64::INFINITY, f64::min);
                        if !g_eval.is_finite() {
                            continue;
                        }
                        let stress = 3.0 * g_keeper / g_eval;
                        report.record(
                            CheckKind::Writability,
                            Subject::Net(dyn_net),
                            stress,
                            || {
                                format!(
                                    "keeper on `{}` is {:.2}x the weakest eval path (must stay under 1/3)",
                                    netlist.net_name(dyn_net),
                                    g_keeper / g_eval
                                )
                            },
                        );
                    }
                }
            }
            StateKind::CrossCoupled => {
                // Cross-coupled pairs with no external write path at all
                // are a design smell but not checkable without more
                // context; skip quietly.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;

    fn latch(w_pass: f64, w_feedback: f64) -> FlatNetlist {
        let mut f = FlatNetlist::new("latch");
        let d = f.add_net("d", NetKind::Input);
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
            d,
            x,
            gnd,
            w_pass,
            0.35e-6,
        ));
        for (n, i, o, w) in [("fwd", x, y, 2e-6), ("bck", y, fb, w_feedback)] {
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("{n}p"),
                i,
                o,
                vdd,
                vdd,
                2.0 * w,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{n}n"),
                i,
                o,
                gnd,
                gnd,
                w,
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
            w_feedback,
            0.7e-6,
        ));
        f
    }

    fn run(f: &mut FlatNetlist) -> Report {
        let process = Process::strongarm_035();
        let rec = recognize(f);
        let cfg = EverifyConfig::for_process(&process);
        let mut report = Report::new(cfg.filter_threshold);
        check(f, &rec, &process, &cfg, &mut report);
        report
    }

    #[test]
    fn strong_pass_weak_feedback_passes() {
        let mut f = latch(8e-6, 0.8e-6);
        let r = run(&mut f);
        assert_eq!(r.violations().count(), 0, "{:?}", r.findings());
    }

    #[test]
    fn weak_pass_strong_feedback_violates() {
        let mut f = latch(0.8e-6, 12e-6);
        let r = run(&mut f);
        assert!(
            r.violations().any(|v| v.check == CheckKind::Writability),
            "{:?}",
            r.findings()
        );
    }

    fn keeper_domino(w_keeper: f64, w_eval: f64) -> FlatNetlist {
        let mut f = FlatNetlist::new("keep");
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
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            d,
            x,
            gnd,
            w_eval,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "ft",
            clk,
            x,
            gnd,
            gnd,
            w_eval,
            0.35e-6,
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
        f.add_device(Device::mos(
            MosKind::Pmos,
            "keep",
            out,
            d,
            vdd,
            vdd,
            w_keeper,
            0.7e-6,
        ));
        f
    }

    #[test]
    fn weak_keeper_passes() {
        let mut f = keeper_domino(0.8e-6, 10e-6);
        let r = run(&mut f);
        assert_eq!(r.violations().count(), 0, "{:?}", r.findings());
    }

    #[test]
    fn monster_keeper_violates() {
        let mut f = keeper_domino(20e-6, 3e-6);
        let r = run(&mut f);
        assert!(
            r.violations().any(|v| v.check == CheckKind::Writability),
            "{:?}",
            r.findings()
        );
    }
}
