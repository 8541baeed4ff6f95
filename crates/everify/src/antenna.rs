//! Antenna checks (§4.2): process-induced charge collection on floating
//! conductors during fabrication damages the thin gate oxide they
//! connect to. The classic rule limits the ratio of collector (metal +
//! poly) area to connected gate area.

use cbv_layout::Layout;
use cbv_netlist::{FlatNetlist, NetId, NetUse};
use cbv_tech::Layer;

use crate::report::{CheckKind, Report, Subject};
use crate::EverifyConfig;

/// Runs the antenna check for every net with gate connections.
pub fn check(netlist: &FlatNetlist, layout: &Layout, config: &EverifyConfig, report: &mut Report) {
    let uses = netlist.uses_table();
    // Collector area per net in one pass over the shape list — a
    // per-net filter of the whole layout made this check
    // O(nets × shapes) on full designs.
    let mut collector = vec![0.0f64; netlist.net_count()];
    for s in &layout.shapes {
        if let Some(net) = s.net {
            if s.layer == Layer::Poly || s.layer.is_metal() {
                collector[net.index()] += s.rect.area() as f64 * 1e-18;
            }
        }
    }
    for id in 0..netlist.net_count() as u32 {
        let net = NetId(id);
        // Gate area hanging on the net.
        let gate_area: f64 = uses[net.index()]
            .iter()
            .filter_map(|u| match u {
                NetUse::Gate(d) => {
                    let dev = netlist.device(*d);
                    Some(dev.w * dev.l)
                }
                _ => None,
            })
            .sum();
        if gate_area <= 0.0 {
            continue;
        }
        // Collector area: conductor shapes on the net (poly + metals).
        let collector_area = collector[net.index()];
        if collector_area <= 0.0 {
            continue;
        }
        let ratio = collector_area / gate_area;
        let stress = ratio / config.antenna_ratio;
        report.record(CheckKind::Antenna, Subject::Net(net), stress, || {
            format!(
                "net `{}` antenna ratio {ratio:.0} exceeds limit {:.0}",
                netlist.net_name(net),
                config.antenna_ratio
            )
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::{synthesize, Shape};
    use cbv_netlist::{Device, NetKind};
    use cbv_tech::{MosKind, Process};

    #[test]
    fn normal_cell_passes() {
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
        let process = Process::strongarm_035();
        let layout = synthesize(&f, &process);
        let cfg = EverifyConfig::for_process(&process);
        let mut report = Report::new(cfg.filter_threshold);
        check(&f, &layout, &cfg, &mut report);
        assert_eq!(report.violations().count(), 0, "{:?}", report.findings());
    }

    #[test]
    fn huge_plate_on_tiny_gate_violates() {
        let mut f = FlatNetlist::new("plate");
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let gnd = f.add_net("gnd", NetKind::Ground);
        // Minimum gate.
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            0.7e-6,
            0.35e-6,
        ));
        let process = Process::strongarm_035();
        let mut layout = synthesize(&f, &process);
        // Weld a 1 mm x 1 mm metal plate onto the gate net.
        layout.shapes.push(Shape {
            layer: Layer::Metal2,
            rect: cbv_layout::Rect::new(0, 0, 1_000_000, 1_000_000),
            net: Some(a),
        });
        let cfg = EverifyConfig::for_process(&process);
        let mut report = Report::new(cfg.filter_threshold);
        check(&f, &layout, &cfg, &mut report);
        assert!(
            report.violations().any(|v| v.check == CheckKind::Antenna),
            "{:?}",
            report.findings()
        );
    }
}
