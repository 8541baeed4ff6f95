//! Row-based transistor placement.
//!
//! Datapath style: one PMOS row above one NMOS row with a routing channel
//! between them. Devices are ordered greedily to share diffusion between
//! neighbors that have a common channel net — the dominant area lever in
//! hand layout, automated here.

use cbv_netlist::{DeviceId, FlatNetlist, NetId};
use cbv_tech::{Layer, MosKind};

use crate::geom::{Point, Rect};
use crate::rules::Rules;
use crate::Shape;

/// Where one device landed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeviceSite {
    /// The device.
    pub device: DeviceId,
    /// X of the gate strip center (nm).
    pub gate_x: i64,
    /// Y of the diffusion bottom (nm).
    pub row_y: i64,
    /// Polarity (selects the row).
    pub kind: MosKind,
}

/// A routing terminal: a point where a net must be picked up.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Terminal {
    /// The net.
    pub net: NetId,
    /// Pickup location at the channel edge.
    pub at: Point,
}

/// Placement result.
#[derive(Debug, Clone, Default)]
pub struct Placement {
    /// Device geometry (diffusion, poly, contacts).
    pub shapes: Vec<Shape>,
    /// Placement sites.
    pub sites: Vec<DeviceSite>,
    /// Routing terminals on the channel edges.
    pub terminals: Vec<Terminal>,
    /// Vertical extent of the routing channel: (bottom, top) in nm.
    pub channel: (i64, i64),
}

/// Orders a row's devices for diffusion sharing: greedy chaining on
/// shared channel nets.
fn order_row(netlist: &FlatNetlist, devices: &[DeviceId]) -> Vec<DeviceId> {
    let mut remaining: Vec<DeviceId> = devices.to_vec();
    let mut out = Vec::with_capacity(remaining.len());
    let mut tail_net: Option<NetId> = None;
    while !remaining.is_empty() {
        let pick = match tail_net {
            Some(t) => remaining
                .iter()
                .position(|&d| netlist.device(d).channel_touches(t)),
            None => None,
        }
        .unwrap_or(0);
        let d = remaining.remove(pick);
        let dev = netlist.device(d);
        tail_net = Some(match tail_net {
            Some(t) if dev.channel_touches(t) => dev.other_channel_end(t),
            _ => dev.drain,
        });
        out.push(d);
    }
    out
}

/// Places all devices of a netlist into two rows.
pub fn place_rows(netlist: &FlatNetlist, rules: &Rules) -> Placement {
    let nmos: Vec<DeviceId> = netlist
        .device_ids()
        .filter(|&d| netlist.device(d).kind == MosKind::Nmos)
        .collect();
    let pmos: Vec<DeviceId> = netlist
        .device_ids()
        .filter(|&d| netlist.device(d).kind == MosKind::Pmos)
        .collect();

    let row_height = |devs: &[DeviceId]| -> i64 {
        devs.iter()
            .map(|&d| (netlist.device(d).w * 1e9).round() as i64)
            .max()
            .unwrap_or(rules.lambda * 10)
    };
    let n_height = row_height(&nmos);
    let p_height = row_height(&pmos);

    let n_y = 0i64;
    let channel_bottom = n_y + n_height + rules.poly_extension;
    let channel_top = channel_bottom + rules.row_gap;
    let p_y = channel_top + rules.poly_extension;

    let mut placement = Placement {
        shapes: Vec::new(),
        sites: Vec::new(),
        terminals: Vec::new(),
        channel: (channel_bottom, channel_top),
    };

    let n_order = order_row(netlist, &nmos);
    let p_order = order_row(netlist, &pmos);

    for (row_devices, row_y, row_h, is_pmos) in [
        (n_order, n_y, n_height, false),
        (p_order, p_y, p_height, true),
    ] {
        // Stagger the rows by half a finger pitch so vertical channel
        // stubs from opposite rows never share an x column.
        let mut x = if is_pmos { rules.finger_pitch() / 2 } else { 0 };
        let mut prev_right: Option<NetId> = None;
        for d in row_devices {
            let dev = netlist.device(d);
            let w_nm = (dev.w * 1e9).round() as i64;
            let shared = prev_right == Some(dev.source) || prev_right == Some(dev.drain);
            if !shared && prev_right.is_some() {
                x += rules.diff_space + rules.contact;
            }
            // Orient the device so a shared net sits on the left.
            let (left_net, right_net) = if prev_right == Some(dev.drain) {
                (dev.drain, dev.source)
            } else {
                (dev.source, dev.drain)
            };
            let left_x = x;
            let gate_x = left_x + rules.contact + rules.diff_extension / 2;
            let right_x = gate_x + rules.gate_length + rules.diff_extension / 2;
            // Diffusion strip (left contact .. right contact).
            placement.shapes.push(Shape {
                layer: Layer::Diffusion,
                rect: Rect::new(left_x, row_y, right_x + rules.contact, row_y + w_nm),
                net: None,
            });
            // Source/drain contacts in metal1. A shared diffusion keeps
            // the neighbor's existing contact; re-emitting it would
            // double-count its capacitance.
            let contacts: &[(i64, NetId)] = if shared {
                &[(right_x, right_net)]
            } else {
                &[(left_x, left_net), (right_x, right_net)]
            };
            for &(cx, net) in contacts {
                placement.shapes.push(Shape {
                    layer: Layer::Metal1,
                    rect: Rect::new(cx, row_y, cx + rules.contact, row_y + w_nm),
                    net: Some(net),
                });
                let term_y = if is_pmos { row_y } else { row_y + w_nm };
                placement.terminals.push(Terminal {
                    net,
                    at: Point::new(cx + rules.contact / 2, term_y),
                });
            }
            // Poly gate strip, extended toward the channel.
            let (poly_y0, poly_y1, term_y) = if is_pmos {
                (
                    channel_top,
                    row_y + w_nm + rules.poly_extension,
                    channel_top,
                )
            } else {
                (row_y - rules.poly_extension, channel_bottom, channel_bottom)
            };
            placement.shapes.push(Shape {
                layer: Layer::Poly,
                rect: Rect::new(
                    gate_x,
                    poly_y0.min(poly_y1),
                    gate_x + rules.gate_length,
                    poly_y0.max(poly_y1),
                ),
                net: Some(dev.gate),
            });
            placement.terminals.push(Terminal {
                net: dev.gate,
                at: Point::new(gate_x + rules.gate_length / 2, term_y),
            });
            placement.sites.push(DeviceSite {
                device: d,
                gate_x,
                row_y,
                kind: dev.kind,
            });
            prev_right = Some(right_net);
            x = right_x;
        }
        let _ = row_h;
    }
    placement
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_tech::Process;

    fn rules() -> Rules {
        Rules::for_process(&Process::strongarm_035())
    }

    #[test]
    fn series_stack_shares_diffusion() {
        // Two series NMOS sharing net x must abut: total extent smaller
        // than two isolated devices.
        let mut f = FlatNetlist::new("stack");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let gnd = f.add_net("gnd", NetKind::Ground);
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
        let p = place_rows(&f, &rules());
        assert_eq!(p.sites.len(), 2);
        // Shared: second gate is one finger pitch away, no diff_space gap.
        let dx = (p.sites[1].gate_x - p.sites[0].gate_x).abs();

        let mut f2 = FlatNetlist::new("nostack");
        let a2 = f2.add_net("a", NetKind::Input);
        let b2 = f2.add_net("b", NetKind::Input);
        let y2 = f2.add_net("y", NetKind::Output);
        let z2 = f2.add_net("z", NetKind::Output);
        let gnd2 = f2.add_net("gnd", NetKind::Ground);
        f2.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a2,
            y2,
            gnd2,
            gnd2,
            4e-6,
            0.35e-6,
        ));
        f2.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b2,
            z2,
            gnd2,
            gnd2,
            4e-6,
            0.35e-6,
        ));
        let p2 = place_rows(&f2, &rules());
        let dx2 = (p2.sites[1].gate_x - p2.sites[0].gate_x).abs();
        // Both share gnd so ordering may still chain them; ensure layout
        // never gets *smaller* for the unshared-signal case.
        assert!(dx2 >= dx);
    }

    #[test]
    fn rows_are_separated_by_channel() {
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
        let p = place_rows(&f, &rules());
        let (cb, ct) = p.channel;
        assert!(ct > cb);
        let psite = p.sites.iter().find(|s| s.kind == MosKind::Pmos).unwrap();
        let nsite = p.sites.iter().find(|s| s.kind == MosKind::Nmos).unwrap();
        assert!(psite.row_y >= ct);
        assert!(nsite.row_y < cb);
    }

    #[test]
    fn terminals_cover_all_connected_nets() {
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
        let p = place_rows(&f, &rules());
        for net in [a, y, vdd, gnd] {
            assert!(
                p.terminals.iter().any(|t| t.net == net),
                "net {net:?} has no terminal"
            );
        }
        // y must have two terminals (one per row) so routing can join them.
        assert!(p.terminals.iter().filter(|t| t.net == y).count() >= 2);
    }
}
