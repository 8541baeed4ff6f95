//! Row-based transistor placement.
//!
//! Datapath style: one PMOS row above one NMOS row with a routing channel
//! between them. Devices are ordered greedily to share diffusion between
//! neighbors that have a common channel net — the dominant area lever in
//! hand layout, automated here.
//!
//! Placement decides where each device goes ([`DeviceSite`]); drawing
//! the devices at their sites is a step of its own, which a resized
//! layout ([`crate::Layout::resized`]) repeats over the sites it kept: a
//! site does not depend on any device's width.

use cbv_netlist::{Device, DeviceId, FlatNetlist, NetId};
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

/// The rows' vertical geometry: the NMOS row at y = 0, the routing
/// channel above it, the PMOS row above the channel. Only the widest
/// NMOS device moves it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Rows {
    /// Y of the PMOS row's diffusion bottom.
    p_y: i64,
    /// The channel: (bottom, top).
    pub(crate) channel: (i64, i64),
}

impl Rows {
    pub(crate) fn of(netlist: &FlatNetlist, rules: &Rules) -> Rows {
        let n_height = netlist
            .devices()
            .iter()
            .filter(|d| d.kind == MosKind::Nmos)
            .map(|d| (d.w * 1e9).round() as i64)
            .max()
            .unwrap_or(rules.lambda * 10);
        let channel_bottom = n_height + rules.poly_extension;
        let channel_top = channel_bottom + rules.row_gap;
        Rows {
            p_y: channel_top + rules.poly_extension,
            channel: (channel_bottom, channel_top),
        }
    }

    /// The diffusion bottom of a `kind` device's row.
    pub(crate) fn row_y(&self, kind: MosKind) -> i64 {
        match kind {
            MosKind::Nmos => 0,
            MosKind::Pmos => self.p_y,
        }
    }
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

/// How a device sits after the net on its left neighbour's right,
/// `prev_right`: whether it shares that diffusion, and its left and right
/// nets (a shared net goes on the left).
fn orient(dev: &Device, prev_right: Option<NetId>) -> (bool, NetId, NetId) {
    let shared = prev_right == Some(dev.source) || prev_right == Some(dev.drain);
    if prev_right == Some(dev.drain) {
        (shared, dev.drain, dev.source)
    } else {
        (shared, dev.source, dev.drain)
    }
}

/// Places all devices of a netlist into two rows.
pub fn place_rows(netlist: &FlatNetlist, rules: &Rules) -> Placement {
    let rows = Rows::of(netlist, rules);
    let mut sites = Vec::with_capacity(netlist.devices().len());
    // Stagger the rows by half a finger pitch so vertical channel stubs
    // from opposite rows never share an x column.
    for (kind, mut x) in [
        (MosKind::Nmos, 0),
        (MosKind::Pmos, rules.finger_pitch() / 2),
    ] {
        let row: Vec<DeviceId> = netlist
            .device_ids()
            .filter(|&d| netlist.device(d).kind == kind)
            .collect();
        let mut prev_right: Option<NetId> = None;
        for d in order_row(netlist, &row) {
            let (shared, _, right_net) = orient(netlist.device(d), prev_right);
            if !shared && prev_right.is_some() {
                x += rules.diff_space + rules.contact;
            }
            let gate_x = x + rules.contact + rules.diff_extension / 2;
            sites.push(DeviceSite {
                device: d,
                gate_x,
                row_y: rows.row_y(kind),
                kind,
            });
            prev_right = Some(right_net);
            x = gate_x + rules.gate_length + rules.diff_extension / 2;
        }
    }
    draw(netlist, sites, rows.channel, rules)
}

/// Draws every device at its site, in site order (a row's sites left to
/// right, the NMOS row first): its diffusion, its source/drain contacts
/// in metal1 and its poly gate strip, extended toward the channel, with
/// a routing terminal on each contact and gate.
pub(crate) fn draw(
    netlist: &FlatNetlist,
    sites: Vec<DeviceSite>,
    channel: (i64, i64),
    rules: &Rules,
) -> Placement {
    let (channel_bottom, channel_top) = channel;
    let mut shapes = Vec::with_capacity(4 * sites.len());
    let mut terminals = Vec::with_capacity(3 * sites.len());
    // The row and right net of the device drawn last.
    let mut prev: Option<(MosKind, NetId)> = None;
    for site in &sites {
        let dev = netlist.device(site.device);
        let is_pmos = site.kind == MosKind::Pmos;
        let row_y = site.row_y;
        let w_nm = (dev.w * 1e9).round() as i64;
        let prev_right = prev.filter(|&(kind, _)| kind == site.kind).map(|p| p.1);
        let (shared, left_net, right_net) = orient(dev, prev_right);
        let gate_x = site.gate_x;
        let left_x = gate_x - rules.contact - rules.diff_extension / 2;
        let right_x = gate_x + rules.gate_length + rules.diff_extension / 2;
        // Diffusion strip (left contact .. right contact).
        shapes.push(Shape {
            layer: Layer::Diffusion,
            rect: Rect::new(left_x, row_y, right_x + rules.contact, row_y + w_nm),
            net: None,
        });
        // Source/drain contacts in metal1. A shared diffusion keeps the
        // neighbor's existing contact; re-emitting it would double-count
        // its capacitance.
        let contacts: &[(i64, NetId)] = if shared {
            &[(right_x, right_net)]
        } else {
            &[(left_x, left_net), (right_x, right_net)]
        };
        for &(cx, net) in contacts {
            shapes.push(Shape {
                layer: Layer::Metal1,
                rect: Rect::new(cx, row_y, cx + rules.contact, row_y + w_nm),
                net: Some(net),
            });
            let term_y = if is_pmos { row_y } else { row_y + w_nm };
            terminals.push(Terminal {
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
        shapes.push(Shape {
            layer: Layer::Poly,
            rect: Rect::new(
                gate_x,
                poly_y0.min(poly_y1),
                gate_x + rules.gate_length,
                poly_y0.max(poly_y1),
            ),
            net: Some(dev.gate),
        });
        terminals.push(Terminal {
            net: dev.gate,
            at: Point::new(gate_x + rules.gate_length / 2, term_y),
        });
        prev = Some((site.kind, right_net));
    }
    Placement {
        shapes,
        sites,
        terminals,
        channel,
    }
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
