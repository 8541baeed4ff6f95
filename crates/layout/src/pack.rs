//! A [`Layout`] packed into one block of bytes.
//!
//! A layout's coordinates are nanometres inside one cell, so most fit
//! in two or three bytes: each integer is written as a variable-length
//! (LEB128) number, signed ones zigzag-mapped first, and a rectangle as
//! its low corner and its extent. A few thousand 48-byte shapes become
//! a block a quarter of their size, which is what a layout should cost
//! while it waits between runs.

use cbv_netlist::{DeviceId, NetId};
use cbv_tech::{Layer, MosKind};

use crate::geom::Rect;
use crate::place::DeviceSite;
use crate::{Layout, Shape};

/// A [`Layout`] packed by [`Layout::pack`]; [`PackedLayout::unpack`]
/// restores it exactly.
#[derive(Debug, Clone)]
pub struct PackedLayout {
    name: String,
    bytes: Box<[u8]>,
}

impl Layout {
    /// Packs the layout.
    pub fn pack(&self) -> PackedLayout {
        let mut out = Vec::new();
        put(&mut out, self.sites.len() as u64);
        for site in &self.sites {
            put(&mut out, u64::from(site.device.0));
            put(&mut out, zigzag(site.gate_x));
            put(&mut out, zigzag(site.row_y));
            out.push(u8::from(site.kind == MosKind::Pmos));
        }
        put(&mut out, self.shapes.len() as u64);
        for s in &self.shapes {
            let layer = Layer::ALL.iter().position(|&l| l == s.layer);
            out.push(layer.expect("Layer::ALL lists every layer") as u8);
            put(&mut out, s.net.map_or(0, |n| u64::from(n.0) + 1));
            let r = s.rect;
            put(&mut out, zigzag(r.x0));
            put(&mut out, zigzag(r.y0));
            put(&mut out, r.x1.wrapping_sub(r.x0) as u64);
            put(&mut out, r.y1.wrapping_sub(r.y0) as u64);
        }
        PackedLayout {
            name: self.name.clone(),
            bytes: out.into(),
        }
    }
}

impl PackedLayout {
    /// The layout [`Layout::pack`] packed.
    pub fn unpack(&self) -> Layout {
        let mut r = Reader(&self.bytes);
        let sites = (0..r.next()).map(|_| r.site()).collect();
        let shapes = (0..r.next()).map(|_| r.shape()).collect();
        Layout {
            name: self.name.clone(),
            shapes,
            sites,
        }
    }
}

fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
}

/// Appends `v` as LEB128: seven bits a byte, low first, the high bit
/// set on every byte but the last.
fn put(out: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        out.push(v as u8 | 0x80);
        v >>= 7;
    }
    out.push(v as u8);
}

/// Reads what [`Layout::pack`] wrote. The bytes only ever come from
/// it, so a short block is a bug, not bad input.
struct Reader<'a>(&'a [u8]);

impl Reader<'_> {
    fn byte(&mut self) -> u8 {
        let (&b, rest) = self.0.split_first().expect("a packed layout is whole");
        self.0 = rest;
        b
    }

    fn next(&mut self) -> u64 {
        let mut v = 0;
        for shift in (0..64).step_by(7) {
            let b = self.byte();
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                break;
            }
        }
        v
    }

    fn site(&mut self) -> DeviceSite {
        DeviceSite {
            device: DeviceId(self.next() as u32),
            gate_x: unzigzag(self.next()),
            row_y: unzigzag(self.next()),
            kind: if self.byte() == 1 {
                MosKind::Pmos
            } else {
                MosKind::Nmos
            },
        }
    }

    fn shape(&mut self) -> Shape {
        let layer = Layer::ALL[usize::from(self.byte())];
        let net = self.next().checked_sub(1).map(|n| NetId(n as u32));
        let (x0, y0) = (unzigzag(self.next()), unzigzag(self.next()));
        let (w, h) = (self.next() as i64, self.next() as i64);
        let rect = Rect {
            x0,
            y0,
            x1: x0.wrapping_add(w),
            y1: y0.wrapping_add(h),
        };
        Shape { layer, rect, net }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_packed_layout_unpacks_exactly() {
        let extremes = [i64::MIN, -1, 0, 1, 127, 128, i64::MAX];
        let mut shapes = Vec::new();
        for (i, &a) in extremes.iter().enumerate() {
            for &b in &extremes {
                shapes.push(Shape {
                    layer: Layer::ALL[i % Layer::ALL.len()],
                    rect: Rect::new(a, b, b, a),
                    net: (i % 3 != 0).then_some(NetId(i as u32 * 1000)),
                });
            }
        }
        let layout = Layout {
            name: "extremes".into(),
            shapes,
            sites: vec![
                DeviceSite {
                    device: DeviceId(u32::MAX),
                    gate_x: i64::MIN,
                    row_y: i64::MAX,
                    kind: MosKind::Pmos,
                },
                DeviceSite {
                    device: DeviceId(0),
                    gate_x: -5,
                    row_y: 0,
                    kind: MosKind::Nmos,
                },
            ],
        };
        let back = layout.pack().unpack();
        assert_eq!(back.shapes, layout.shapes);
        assert_eq!(back.sites, layout.sites);
        assert_eq!(back.name, layout.name);
    }
}
