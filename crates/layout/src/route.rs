//! Left-edge channel routing.
//!
//! Each net with terminals on the channel edges gets one horizontal
//! metal2 track; vertical metal1 stubs drop from each terminal to the
//! track. Track assignment is the classic left-edge algorithm: sort nets
//! by left extent, pack each into the lowest track whose occupied
//! intervals it does not overlap.

use cbv_netlist::{FlatNetlist, NetId};
use cbv_tech::Layer;

use crate::geom::Rect;
use crate::place::Placement;
use crate::rules::Rules;
use crate::Shape;

/// Routes the channel of a placement; returns the wiring shapes.
pub fn route_channel(netlist: &FlatNetlist, placement: &Placement, rules: &Rules) -> Vec<Shape> {
    // Gather net extents.
    struct Span {
        net: NetId,
        x_min: i64,
        x_max: i64,
        terminals: Vec<(i64, i64)>, // (x, y) pickup points
    }
    let mut spans: Vec<Span> = Vec::new();
    // Each net's span by net id; the spans are sorted by a total order
    // below, so the order they are first met in does not matter.
    let mut span_of: Vec<Option<usize>> = vec![None; netlist.net_count()];
    for t in &placement.terminals {
        match span_of[t.net.index()] {
            Some(si) => {
                let s = &mut spans[si];
                s.x_min = s.x_min.min(t.at.x);
                s.x_max = s.x_max.max(t.at.x);
                s.terminals.push((t.at.x, t.at.y));
            }
            None => {
                span_of[t.net.index()] = Some(spans.len());
                spans.push(Span {
                    net: t.net,
                    x_min: t.at.x,
                    x_max: t.at.x,
                    terminals: vec![(t.at.x, t.at.y)],
                });
            }
        }
    }
    // Rails route on dedicated rails outside the channel; skip them here.
    spans.retain(|s| !netlist.net_kind(s.net).is_rail());

    // Two-layer channel discipline: every horizontal segment is metal2
    // (tracks), every vertical segment is metal1 (stubs) — same-layer
    // crossings cannot happen. The left-edge packer naturally puts short
    // local spans into the low tracks, keeping their stubs short.
    let mut shapes = Vec::new();
    // Left-edge: sort by left extent.
    spans.sort_by_key(|s| (s.x_min, s.x_max, s.net));
    // tracks[i] = the last (x_min, x_max) interval packed into track i.
    // Spans come in x_min order, and a track takes a span only when it
    // starts a margin (positive) past the track's intervals, so its last
    // interval reaches furthest right and is the only one a later span
    // can collide with.
    let mut tracks: Vec<(i64, i64)> = Vec::new();
    let mut assignment: Vec<(usize, usize)> = Vec::new(); // span -> track
    let margin = rules.m2_space;
    for (si, s) in spans.iter().enumerate() {
        let clear = |&(a, b): &(i64, i64)| !(s.x_min - margin < b && a < s.x_max + margin);
        let ti = match tracks.iter().position(clear) {
            Some(ti) => {
                tracks[ti] = (s.x_min, s.x_max);
                ti
            }
            None => {
                tracks.push((s.x_min, s.x_max));
                tracks.len() - 1
            }
        };
        assignment.push((si, ti));
    }

    let (channel_bottom, _channel_top) = placement.channel;
    // Tracks stack upward at double pitch (relaxed spacing keeps long
    // parallel-run coupling inside the noise margins); an overfull
    // channel simply spills above the nominal top — metal2 rides over
    // the device rows, as it does on a real chip. The lowest track sits
    // one jog band above the channel edge.
    let pitch = 2 * rules.m2_pitch();
    let track_base = channel_bottom + rules.m2_width + rules.m2_space;
    // Vertical column grid for the m1 stubs: stubs claim columns (not
    // raw terminal x) so different nets never share a vertical lane;
    // short m2 jogs connect terminals to their columns.
    let col_pitch = rules.m1_width + rules.m1_space;
    // The placement's own metal1 (device contacts): stubs must keep
    // their distance from those too. Each blocks exactly the columns
    // strictly inside `a..b`, those whose stub rect would come within m1
    // spacing of it (the availability check below adds the vertical
    // margin; adding it here too would double-count); `c_lo..=c_hi`
    // holds them.
    let contacts = placement
        .shapes
        .iter()
        .filter(|ps| ps.layer == Layer::Metal1)
        .filter_map(|ps| {
            let a = ps.rect.x0 - rules.m1_space - rules.m1_width;
            let b = ps.rect.x1 + rules.m1_space;
            let (c_lo, c_hi) = (a.div_euclid(col_pitch), b.div_euclid(col_pitch) + 1);
            Some((ps.net?, ps.rect, a, b, c_lo, c_hi))
        });
    // A stub's column search starts at its terminal's home column and
    // probes within `REACH` columns of it.
    const REACH: i64 = 32;
    let home_of = |tx: i64| (tx - rules.m1_width / 2).div_euclid(col_pitch);
    // The column occupancy is one array, from the leftmost column a
    // contact blocks or a stub probes to the rightmost.
    let (c_min, c_max) = contacts
        .clone()
        .map(|(.., c_lo, c_hi)| (c_lo, c_hi))
        .chain(
            spans
                .iter()
                .flat_map(|s| &s.terminals)
                .map(|&(tx, _)| (home_of(tx) - REACH, home_of(tx) + REACH)),
        )
        .reduce(|(lo, hi), (c_lo, c_hi)| (lo.min(c_lo), hi.max(c_hi)))
        .unwrap_or((0, -1));
    let mut columns: Vec<Vec<(NetId, i64, i64)>> = vec![Vec::new(); (c_max - c_min + 1) as usize];
    let slot = |c: i64| (c - c_min) as usize;
    for (net, rect, a, b, c_lo, c_hi) in contacts {
        for c in c_lo..=c_hi {
            let col_x = c * col_pitch;
            if col_x > a && col_x < b {
                columns[slot(c)].push((net, rect.y0, rect.y1));
            }
        }
    }
    for (si, ti) in assignment {
        let s = &spans[si];
        let y = track_base + ti as i64 * pitch;
        // Horizontal m2 segment (even a single-terminal net gets a stub
        // of minimum length so ports are routable).
        let x_max = s.x_max.max(s.x_min + rules.m2_width);
        shapes.push(Shape {
            layer: Layer::Metal2,
            rect: Rect::new(s.x_min, y, x_max, y + rules.m2_width),
            net: Some(s.net),
        });
        for &(tx, ty) in &s.terminals {
            let (y0, mut y1) = if ty <= y {
                (ty, y + rules.m2_width)
            } else {
                (y, ty)
            };
            y1 = y1.max(y0 + rules.m1_width);
            // Claim the nearest free column for this stub's y extent.
            let home = home_of(tx);
            let col = (0..2 * REACH)
                .map(|k| {
                    if k % 2 == 0 {
                        home + k / 2
                    } else {
                        home - (k + 1) / 2
                    }
                })
                .find(|&c| {
                    columns[slot(c)].iter().all(|&(n, oy0, oy1)| {
                        n == s.net || y1 + rules.m1_space <= oy0 || oy1 + rules.m1_space <= y0
                    })
                })
                .unwrap_or(home);
            columns[slot(col)].push((s.net, y0, y1));
            let col_x = col * col_pitch;
            shapes.push(Shape {
                layer: Layer::Metal1,
                rect: Rect::new(col_x, y0, col_x + rules.m1_width, y1),
                net: Some(s.net),
            });
            // Jog from the terminal to the column, at the terminal end.
            let stub_center = col_x + rules.m1_width / 2;
            if (stub_center - tx).abs() > rules.m1_width / 2 {
                // Jogs ride metal3: one layer up, clear of the m2 track
                // plane and of each other's m2 coupling.
                let jog_y = if ty <= y { ty } else { ty - rules.m2_width };
                shapes.push(Shape {
                    layer: Layer::Metal3,
                    rect: Rect::new(
                        tx.min(stub_center) - rules.m2_width / 2,
                        jog_y,
                        tx.max(stub_center) + rules.m2_width / 2,
                        jog_y + rules.m2_width,
                    ),
                    net: Some(s.net),
                });
            }
        }
    }
    // Power rails: m1 bars spanning the cell at the outer edges.
    let bbox = placement
        .shapes
        .iter()
        .map(|s| s.rect)
        .reduce(|a, b| a.union(b));
    if let Some(bbox) = bbox {
        for net in netlist.rails() {
            let is_power = netlist.net_kind(net) == cbv_netlist::NetKind::Power;
            let y = if is_power {
                bbox.y1 + rules.m1_space
            } else {
                bbox.y0 - rules.m1_space - 4 * rules.lambda
            };
            shapes.push(Shape {
                layer: Layer::Metal1,
                rect: Rect::new(
                    bbox.x0,
                    y,
                    bbox.x1.max(bbox.x0 + rules.m1_width),
                    y + 4 * rules.lambda,
                ),
                net: Some(net),
            });
        }
    }
    shapes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::place::place_rows;
    use cbv_netlist::{Device, NetKind};
    use cbv_tech::{MosKind, Process};

    fn build_nand() -> (FlatNetlist, Vec<Shape>) {
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
        let rules = Rules::for_process(&Process::strongarm_035());
        let p = place_rows(&f, &rules);
        let shapes = route_channel(&f, &p, &rules);
        (f, shapes)
    }

    #[test]
    fn every_signal_net_routed_in_m2() {
        let (f, shapes) = build_nand();
        for name in ["a", "b", "y"] {
            let n = f.find_net(name).unwrap();
            assert!(
                shapes
                    .iter()
                    .any(|s| s.net == Some(n) && s.layer == Layer::Metal2),
                "net {name} missing its track"
            );
        }
    }

    #[test]
    fn rails_get_bars_not_tracks() {
        let (f, shapes) = build_nand();
        let vdd = f.find_net("vdd").unwrap();
        assert!(shapes
            .iter()
            .any(|s| s.net == Some(vdd) && s.layer == Layer::Metal1));
        assert!(!shapes
            .iter()
            .any(|s| s.net == Some(vdd) && s.layer == Layer::Metal2));
    }

    #[test]
    fn tracks_do_not_overlap_in_same_y() {
        let (f, shapes) = build_nand();
        let m2: Vec<&Shape> = shapes.iter().filter(|s| s.layer == Layer::Metal2).collect();
        for (i, s1) in m2.iter().enumerate() {
            for s2 in &m2[i + 1..] {
                if s1.net == s2.net {
                    continue;
                }
                assert!(
                    !s1.rect.intersects(s2.rect),
                    "m2 shorts between {:?} and {:?}",
                    f.net_name(s1.net.unwrap()),
                    f.net_name(s2.net.unwrap())
                );
            }
        }
    }

    #[test]
    fn stubs_touch_their_track() {
        let (f, shapes) = build_nand();
        let y = f.find_net("y").unwrap();
        let track = shapes
            .iter()
            .find(|s| s.net == Some(y) && s.layer == Layer::Metal2)
            .unwrap();
        let stubs: Vec<&Shape> = shapes
            .iter()
            .filter(|s| s.net == Some(y) && s.layer == Layer::Metal1)
            .collect();
        assert!(!stubs.is_empty());
        for stub in stubs {
            assert!(
                stub.rect.y_overlap(track.rect) > 0 || stub.rect.y_gap(track.rect) == 0,
                "stub disconnected from track"
            );
        }
    }
}
