//! Dynamic charge-share analysis.
//!
//! Fig 3's second noise source: "charge sharing between the dynamic
//! output node and the internal transistor stack nodes". When the top of
//! an evaluate stack turns on before the path to ground completes, the
//! precharged output redistributes its charge onto the (possibly
//! discharged) internal nodes: `ΔV = Vdd · C_int / (C_int + C_out)`.

use cbv_netlist::{DeviceId, FlatNetlist, NetId, NetUse};
use cbv_recognize::Recognition;
use cbv_tech::Process;

use crate::report::{CheckKind, Report, Subject};
use crate::{channel_devices, CheckScope, EverifyConfig};

/// The devices whose gate is on `net`, in device order.
fn gate_devices(netlist: &FlatNetlist, net: NetId) -> Vec<DeviceId> {
    let mut ids: Vec<DeviceId> = netlist
        .net_uses(net)
        .iter()
        .filter_map(|u| match u {
            NetUse::Gate(d) => Some(*d),
            _ => None,
        })
        .collect();
    ids.sort_unstable();
    ids
}

/// Runs the charge-share check on one ownership scope.
pub fn check(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    process: &Process,
    config: &EverifyConfig,
    scope: &CheckScope,
    report: &mut Report,
) {
    for &ci in &scope.cccs {
        let ccc = &recognition.cccs[ci];
        let class = &recognition.classes[ci];
        let dynamic = class
            .outputs
            .iter()
            .filter(|o| class.dynamic_outputs.contains(&o.net));
        for o in dynamic {
            let dyn_net = o.net;
            // Internal stack nodes: channel nets of this CCC reachable in
            // the pull-down network, excluding the output itself.
            let mut internal: Vec<NetId> = Vec::new();
            // Walk each path outward from the dynamic node. Nodes
            // that are themselves precharged (e.g. the neighbors in a
            // Manchester chain) sit at the same potential and cannot
            // steal charge — and the stack hanging off *them* is their
            // own gate's problem, so collection truncates there.
            // Every net the walk meets is a channel net of this CCC,
            // so it is no other class's dynamic output.
            let precharged = |net: NetId| {
                class.dynamic_outputs.contains(&net)
                    // Secondary prechargers on internal stack nodes
                    // (clock-gated PMOS from power) count too.
                    || channel_devices(netlist, net).into_iter().any(|id| {
                        let d = netlist.device(id);
                        d.kind == cbv_tech::MosKind::Pmos
                            && recognition.clock_nets.contains(&d.gate)
                            && (netlist.net_kind(d.source)
                                == cbv_netlist::NetKind::Power
                                || netlist.net_kind(d.drain)
                                    == cbv_netlist::NetKind::Power)
                    })
            };
            for path in &o.pull_down_paths {
                let mut cur = dyn_net;
                for &did in path {
                    let d = netlist.device(did);
                    if !d.channel_touches(cur) {
                        break;
                    }
                    let other = d.other_channel_end(cur);
                    if netlist.net_kind(other).is_rail() || precharged(other) {
                        break;
                    }
                    if ccc.channel_nets.contains(&other) && !internal.contains(&other) {
                        internal.push(other);
                    }
                    cur = other;
                }
            }
            if internal.is_empty() {
                continue;
            }
            // Capacitances from device geometry (diffusion on each node).
            let diff_cap_of = |net: NetId| -> f64 {
                channel_devices(netlist, net)
                    .into_iter()
                    .map(|id| netlist.device(id))
                    .map(|d| process.mos(d.kind).diffusion_capacitance(d.w, d.l).farads())
                    .sum()
            };
            let c_int: f64 = internal.iter().map(|&n| diff_cap_of(n)).sum();
            // Output node: diffusion plus the receiving gates.
            let mut c_out = diff_cap_of(dyn_net);
            for id in gate_devices(netlist, dyn_net) {
                let d = netlist.device(id);
                c_out += process.mos(d.kind).gate_capacitance(d.w, d.l).farads();
            }
            let droop = c_int / (c_int + c_out).max(1e-21);
            // A keeper on the node replenishes shared charge; its margin
            // doubles (a standard keeper'd-domino budget).
            let has_keeper = recognition.state_elements.iter().any(|se| {
                se.kind == cbv_recognize::StateKind::Keeper && se.storage_nets.contains(&dyn_net)
            });
            // A keeper'd node recovers as long as the droop stays below
            // the follower's switching threshold, so its budget is
            // threshold-based (3x the floating-node margin).
            let margin = if has_keeper {
                3.0 * config.charge_share_margin
            } else {
                config.charge_share_margin
            };
            let stress = droop / margin;
            report.record(CheckKind::ChargeShare, Subject::Net(dyn_net), stress, || {
                format!(
                    "dynamic node `{}` charge-share droop {:.0}% of VDD exceeds {:.0}% margin ({} internal nodes)",
                    netlist.net_name(dyn_net),
                    droop * 100.0,
                    margin * 100.0,
                    internal.len()
                )
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::MosKind;

    /// Domino stage with `stack` series devices of width `w_stack` under a
    /// dynamic node loaded by an output inverter of width `w_inv`.
    fn domino(stack: usize, w_stack: f64, w_inv: f64) -> FlatNetlist {
        let mut f = FlatNetlist::new("dom");
        let clk = f.add_net("clk", NetKind::Clock);
        let d = f.add_net("d", NetKind::Signal);
        let out = f.add_net("out", NetKind::Output);
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
        let mut prev = d;
        for i in 0..stack {
            let a = f.add_net(&format!("in{i}"), NetKind::Input);
            let nxt = f.add_net(&format!("s{i}"), NetKind::Signal);
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("m{i}"),
                a,
                prev,
                nxt,
                gnd,
                w_stack,
                0.35e-6,
            ));
            prev = nxt;
        }
        f.add_device(Device::mos(
            MosKind::Nmos,
            "foot",
            clk,
            prev,
            gnd,
            gnd,
            w_stack,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "op",
            d,
            out,
            vdd,
            vdd,
            w_inv,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "on",
            d,
            out,
            gnd,
            gnd,
            w_inv / 2.0,
            0.35e-6,
        ));
        f
    }

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

    #[test]
    fn shallow_stack_with_big_output_cap_passes() {
        let mut f = domino(1, 2e-6, 20e-6);
        let r = run(&mut f);
        assert_eq!(r.violations().count(), 0, "{:?}", r.findings());
    }

    #[test]
    fn deep_wide_stack_with_tiny_output_violates() {
        // 4 wide internal nodes vs a minuscule output load.
        let mut f = domino(5, 12e-6, 0.8e-6);
        let r = run(&mut f);
        assert!(
            r.violations().any(|v| v.check == CheckKind::ChargeShare),
            "{:?}",
            r.findings()
        );
    }

    #[test]
    fn droop_grows_with_stack_depth() {
        let stresses: Vec<f64> = [1usize, 3, 5]
            .iter()
            .map(|&depth| {
                let f = domino(depth, 6e-6, 4e-6);
                let process = Process::strongarm_035();
                let rec = recognize(&f);
                let cfg = EverifyConfig::for_process(&process);
                let mut report = Report::new(1e-6);
                check(
                    &f,
                    &rec,
                    &process,
                    &cfg,
                    &CheckScope::full(&f, &rec),
                    &mut report,
                );
                report.findings().first().map(|fi| fi.stress).unwrap_or(0.0)
            })
            .collect();
        assert!(
            stresses[0] < stresses[1] && stresses[1] < stresses[2],
            "deeper stacks share more charge: {stresses:?}"
        );
    }
}
