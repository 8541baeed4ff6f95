//! `cbv-layout` — macrocell layout assistance.
//!
//! §2.2: "CAD layout synthesis and assistance tools have had a greater
//! impact in our layout creation. The emphasis of these layout generation
//! tools is to assist in the creation of macrocells, at the level of
//! transistor place and route."
//!
//! This crate provides exactly that level of automation:
//!
//! * [`geom`] — integer (nanometer) rectangles and points;
//! * [`rules`] — lambda-style design rules derived from a process;
//! * [`place`] — row-based transistor placement (PMOS row over NMOS row,
//!   greedy diffusion sharing), with per-finger gate strips;
//! * [`route`] — a left-edge channel router assigning one horizontal
//!   track per net with vertical connection stubs;
//! * [`drc`] — lambda-rule width/spacing checking over the result
//!   (correct-by-verification applies to the assist tools' own output);
//! * [`Layout`] — the resulting geometry, each shape tagged with its net,
//!   ready for parasitic extraction by `cbv-extract`;
//! * [`PackedLayout`] — a layout packed into one block, the form a cache
//!   keeps it in between runs.
//!
//! # Example
//!
//! ```
//! use cbv_layout::synthesize;
//! use cbv_netlist::{Device, FlatNetlist, NetKind};
//! use cbv_tech::{MosKind, Process};
//!
//! let mut f = FlatNetlist::new("inv");
//! let a = f.add_net("a", NetKind::Input);
//! let y = f.add_net("y", NetKind::Output);
//! let vdd = f.add_net("vdd", NetKind::Power);
//! let gnd = f.add_net("gnd", NetKind::Ground);
//! f.add_device(Device::mos(MosKind::Pmos, "p", a, y, vdd, vdd, 4e-6, 0.35e-6));
//! f.add_device(Device::mos(MosKind::Nmos, "n", a, y, gnd, gnd, 2e-6, 0.35e-6));
//!
//! let layout = synthesize(&f, &Process::strongarm_035());
//! assert!(layout.area() > 0.0);
//! ```

pub mod drc;
pub mod geom;
mod pack;
pub mod place;
pub mod route;
pub mod rules;

pub use drc::{check_drc, DrcViolation};
pub use geom::{Point, Rect};
pub use pack::PackedLayout;
pub use place::{place_rows, DeviceSite, Placement};
pub use route::route_channel;
pub use rules::Rules;

use cbv_netlist::{FlatNetlist, NetId};
use cbv_tech::{Layer, Process};

use place::Rows;

/// One rectangle of geometry on a layer, tagged with the net it carries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Shape {
    /// The layer.
    pub layer: Layer,
    /// The rectangle (nanometers).
    pub rect: Rect,
    /// The electrical net, when known (wells and dummy fill carry none).
    pub net: Option<NetId>,
}

/// A synthesized macrocell layout.
#[derive(Debug, Clone, Default)]
pub struct Layout {
    /// Cell name.
    pub name: String,
    /// All geometry.
    pub shapes: Vec<Shape>,
    /// Where each device's gate landed (for back-annotation and the
    /// distributed-driver analyses of Fig 5).
    pub sites: Vec<DeviceSite>,
}

impl Layout {
    /// Bounding box of all shapes; zero rect when empty.
    pub fn bbox(&self) -> Rect {
        let mut it = self.shapes.iter();
        let first = match it.next() {
            Some(s) => s.rect,
            None => return Rect::new(0, 0, 0, 0),
        };
        it.fold(first, |acc, s| acc.union(s.rect))
    }

    /// Cell area in square meters.
    pub fn area(&self) -> f64 {
        let b = self.bbox();
        (b.width() as f64 * 1e-9) * (b.height() as f64 * 1e-9)
    }

    /// The layout [`synthesize`] draws for `netlist`, patched from this
    /// one, the layout of a netlist that differs from `netlist` in device
    /// widths and lengths only; and what the patch changed.
    ///
    /// A device's site does not depend on any width, so the patch keeps
    /// every site, redraws the devices at them and replays this layout's
    /// route ([`route`] names what a replay keeps and what it searches
    /// again): it draws what `synthesize` draws, byte for byte, without
    /// ordering the rows or searching most stubs' columns again. `None`
    /// when a site moved — the widest NMOS device changed, which moves
    /// the PMOS row — or this layout does not read as one of `netlist`'s.
    pub fn resized(&self, netlist: &FlatNetlist, process: &Process) -> Option<(Layout, ShapeDiff)> {
        let rules = Rules::for_process(process);
        let rows = Rows::of(netlist, &rules);
        let devices = netlist.devices();
        let stays = |s: &DeviceSite| {
            let kind = devices.get(s.device.index()).map(|d| d.kind);
            kind == Some(s.kind) && s.row_y == rows.row_y(s.kind)
        };
        if self.sites.len() != devices.len() || !self.sites.iter().all(stays) {
            return None;
        }
        let Placement {
            mut shapes,
            sites,
            terminals,
            channel,
        } = place::draw(netlist, self.sites.clone(), rows.channel, &rules);
        let searched = route::route(
            netlist,
            &terminals,
            channel,
            &rules,
            Some(&self.shapes),
            &mut shapes,
        )?;
        let diff = ShapeDiff::between(&self.shapes, &shapes, searched);
        let layout = Layout {
            name: netlist.name().to_owned(),
            shapes,
            sites,
        };
        Some((layout, diff))
    }
}

/// What a [`Layout::resized`] patch changed, from its base's shapes to
/// the patched layout's: what extraction needs to splice its own result
/// without comparing the two layouts.
#[derive(Debug, Clone, Default)]
pub struct ShapeDiff {
    /// Each base shape's id in the patched layout, ascending over the
    /// kept shapes; `u32::MAX` for a removed one.
    pub renumber: Vec<u32>,
    /// The patched layout's shapes that are new, ascending.
    pub added: Vec<u32>,
    /// The base's shapes the patch removed, in base order.
    pub removed: Vec<Shape>,
    /// How many stubs searched for a column (a route without a base
    /// searches for every one).
    pub stubs_searched: usize,
}

impl ShapeDiff {
    /// Pairs the patched layout's shapes `new` with its base's `old`, in
    /// order. A patch draws the same shapes in the same order except the
    /// metal3 jogs a stub gains or drops, so a metal3 shape facing a
    /// shape of another layer has no partner. A shape equal to its
    /// partner is kept; every other one is removed or added.
    fn between(old: &[Shape], new: &[Shape], stubs_searched: usize) -> ShapeDiff {
        let mut diff = ShapeDiff {
            renumber: vec![u32::MAX; old.len()],
            stubs_searched,
            ..ShapeDiff::default()
        };
        let (mut i, mut j) = (0, 0);
        loop {
            match (old.get(i), new.get(j)) {
                (None, None) => return diff,
                (Some(a), Some(b)) if a.layer == b.layer => {
                    if a == b {
                        diff.renumber[i] = j as u32;
                    } else {
                        diff.removed.push(a.clone());
                        diff.added.push(j as u32);
                    }
                    (i, j) = (i + 1, j + 1);
                }
                (Some(a), b) if b.is_none_or(|b| b.layer != Layer::Metal3) => {
                    diff.removed.push(a.clone());
                    i += 1;
                }
                _ => {
                    diff.added.push(j as u32);
                    j += 1;
                }
            }
        }
    }
}

/// Synthesizes a macrocell layout for a flat netlist: row placement then
/// channel routing.
pub fn synthesize(netlist: &FlatNetlist, process: &Process) -> Layout {
    let rules = Rules::for_process(process);
    let Placement {
        mut shapes,
        sites,
        terminals,
        channel,
    } = place_rows(netlist, &rules);
    route::route(netlist, &terminals, channel, &rules, None, &mut shapes)
        .expect("a route without a base completes");
    Layout {
        name: netlist.name().to_owned(),
        shapes,
        sites,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_tech::MosKind;

    fn nand2() -> FlatNetlist {
        let mut f = FlatNetlist::new("nand2");
        let a = f.add_net("a", NetKind::Input);
        let b = f.add_net("b", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
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
        f
    }

    #[test]
    fn synthesized_layout_has_positive_area() {
        let f = nand2();
        let l = synthesize(&f, &Process::strongarm_035());
        assert!(l.area() > 0.0);
        assert_eq!(l.sites.len(), 4, "all four devices placed");
    }

    #[test]
    fn every_signal_net_gets_geometry() {
        let f = nand2();
        let l = synthesize(&f, &Process::strongarm_035());
        for name in ["a", "b", "y"] {
            let n = f.find_net(name).unwrap();
            assert!(
                l.shapes.iter().any(|s| s.net == Some(n)),
                "net `{name}` has no geometry"
            );
        }
    }

    #[test]
    fn wider_devices_make_bigger_cells() {
        let small = nand2();
        let l1 = synthesize(&small, &Process::strongarm_035());
        let mut big = FlatNetlist::new("nand2w");
        let a = big.add_net("a", NetKind::Input);
        let b = big.add_net("b", NetKind::Input);
        let y = big.add_net("y", NetKind::Output);
        let x = big.add_net("x", NetKind::Signal);
        let vdd = big.add_net("vdd", NetKind::Power);
        let gnd = big.add_net("gnd", NetKind::Ground);
        big.add_device(Device::mos(
            MosKind::Pmos,
            "pa",
            a,
            y,
            vdd,
            vdd,
            20e-6,
            0.35e-6,
        ));
        big.add_device(Device::mos(
            MosKind::Pmos,
            "pb",
            b,
            y,
            vdd,
            vdd,
            20e-6,
            0.35e-6,
        ));
        big.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            y,
            x,
            gnd,
            20e-6,
            0.35e-6,
        ));
        big.add_device(Device::mos(
            MosKind::Nmos,
            "nb",
            b,
            x,
            gnd,
            gnd,
            20e-6,
            0.35e-6,
        ));
        let l2 = synthesize(&big, &Process::strongarm_035());
        assert!(l2.area() > l1.area());
    }
}
