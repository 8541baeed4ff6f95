//! Left-edge channel routing.
//!
//! Each net with terminals on the channel edges gets one horizontal
//! metal2 track; vertical metal1 stubs drop from each terminal to the
//! track. Track assignment is the classic left-edge algorithm: sort nets
//! by left extent, pack each into the lowest track whose occupied
//! intervals it does not overlap.
//!
//! A route may also *replay* the route of a layout it resizes
//! ([`crate::Layout::resized`]): the same sites, so the same terminal x,
//! spans and tracks; only some terminals' y and some contacts' heights
//! differ. A column whose claims differ from the base's so far is
//! *dirty*: at first the columns the redrawn contacts block, then the
//! old and new column of every stub the replay moves. A stub keeps the
//! base's column while its own y extent is unchanged, that column is
//! still clear, and every probe the base's search failed on still
//! fails. A clean column answers as it did in the base, so only the
//! dirty ones are asked again. Otherwise the stub searches as a route
//! without a base does. A search reads only the stub's extent and the
//! claims on the columns it probes, so the replay draws what a fresh
//! route draws, byte for byte.

use cbv_netlist::{FlatNetlist, NetId, NetKind};
use cbv_tech::Layer;

use crate::geom::Rect;
use crate::place::{Placement, Terminal};
use crate::rules::Rules;
use crate::Shape;

/// A stub's column search starts at its terminal's home column and
/// probes within `REACH` columns of it.
const REACH: i64 = 32;

/// The columns a stub's search probes, in order: home, then one right
/// and one left, two right and two left, and so on.
fn probes(home: i64) -> impl Iterator<Item = i64> {
    (0..2 * REACH).map(move |k| {
        if k % 2 == 0 {
            home + k / 2
        } else {
            home - (k + 1) / 2
        }
    })
}

/// The columns a search from `home` probes before it reaches `col`, a
/// run around home.
fn probed_before(home: i64, col: i64) -> std::ops::RangeInclusive<i64> {
    let d = (col - home).abs();
    if col > home {
        home - d..=home + d - 1
    } else {
        home - d + 1..=home + d - 1
    }
}

/// The end of a column's claim list.
const END: u32 = u32::MAX;

/// One claim on a column: a net's metal1 over `y0..y1`, and the next
/// claim on the same column.
struct Claim {
    net: NetId,
    y0: i64,
    y1: i64,
    next: u32,
}

/// The stub columns' occupancy, from column `first` on: every claim in
/// one array, each column's linked from its `head`; and, in a replay,
/// which columns hold different claims than in the base so far.
struct Columns {
    first: i64,
    head: Vec<u32>,
    claims: Vec<Claim>,
    dirty: Vec<i64>,
}

impl Columns {
    fn new(first: i64, last: i64, room: usize) -> Columns {
        let n = (last - first + 1).max(0) as usize;
        Columns {
            first,
            head: vec![END; n],
            claims: Vec::with_capacity(room),
            dirty: Vec::new(),
        }
    }

    fn slot(&self, c: i64) -> usize {
        (c - self.first) as usize
    }

    fn claim(&mut self, c: i64, net: NetId, y0: i64, y1: i64) {
        let slot = self.slot(c);
        let next = std::mem::replace(&mut self.head[slot], self.claims.len() as u32);
        self.claims.push(Claim { net, y0, y1, next });
    }

    /// Whether `net` may drop a stub over `y0..y1` in column `c`: every
    /// other net's claim there is at least `space` away vertically.
    fn clear(&self, c: i64, net: NetId, (y0, y1): (i64, i64), space: i64) -> bool {
        let mut at = self.head[self.slot(c)];
        while at != END {
            let o = &self.claims[at as usize];
            if o.net != net && y1 + space > o.y0 && o.y1 + space > y0 {
                return false;
            }
            at = o.next;
        }
        true
    }

    fn is_dirty(&self, c: i64) -> bool {
        self.dirty.contains(&c)
    }

    fn mark_dirty(&mut self, c: i64) {
        if !self.is_dirty(c) {
            self.dirty.push(c);
        }
    }
}

/// Routes the channel of a placement; returns the wiring shapes.
pub fn route_channel(netlist: &FlatNetlist, placement: &Placement, rules: &Rules) -> Vec<Shape> {
    let mut shapes = placement.shapes.clone();
    let terminals = &placement.terminals;
    route(
        netlist,
        terminals,
        placement.channel,
        rules,
        None,
        &mut shapes,
    )
    .expect("a route without a base completes");
    shapes.split_off(placement.shapes.len())
}

/// Routes the channel between the placed `shapes` (device geometry
/// with `terminals` on the `channel` edges) and appends the wiring to
/// them; returns how many stubs searched for a column.
///
/// With a `base` — the shapes of a layout drawn at the same sites, with
/// the same nets, whose devices may differ only in width — the route
/// replays the base's (see the module docs) and searches only the stubs
/// whose pick could have changed. `None` when `base` does not read as
/// such a layout; `shapes` then holds a partial route.
pub(crate) fn route(
    netlist: &FlatNetlist,
    terminals: &[Terminal],
    channel: (i64, i64),
    rules: &Rules,
    base: Option<&[Shape]>,
    shapes: &mut Vec<Shape>,
) -> Option<usize> {
    let placed = shapes.len();
    // Gather net extents. Each net's span holds its pickup points as a
    // run of one array, the runs in span order.
    struct Span {
        net: NetId,
        x_min: i64,
        x_max: i64,
        pickups: std::ops::Range<usize>,
    }
    // Rails route on dedicated rails outside the channel; skip them here.
    let in_channel = terminals
        .iter()
        .filter(|t| !netlist.net_kind(t.net).is_rail());
    let mut spans: Vec<Span> = Vec::new();
    let mut span_of = vec![usize::MAX; netlist.net_count()];
    for t in in_channel.clone() {
        let si = &mut span_of[t.net.index()];
        if *si == usize::MAX {
            *si = spans.len();
            spans.push(Span {
                net: t.net,
                x_min: t.at.x,
                x_max: t.at.x,
                pickups: 0..0,
            });
        }
        let s = &mut spans[*si];
        s.x_min = s.x_min.min(t.at.x);
        s.x_max = s.x_max.max(t.at.x);
        // Counts the pickups until the spans are sorted.
        s.pickups.end += 1;
    }
    // Left-edge: sort by left extent.
    spans.sort_by_key(|s| (s.x_min, s.x_max, s.net));
    let mut end = 0;
    for (si, s) in spans.iter_mut().enumerate() {
        let start = end;
        end += s.pickups.len();
        s.pickups = start..start;
        span_of[s.net.index()] = si;
    }
    let mut pickups = vec![(0, 0); end];
    for t in in_channel {
        let run = &mut spans[span_of[t.net.index()]].pickups;
        pickups[run.end] = (t.at.x, t.at.y);
        run.end += 1;
    }

    // Two-layer channel discipline: every horizontal segment is metal2
    // (tracks), every vertical segment is metal1 (stubs) — same-layer
    // crossings cannot happen. The left-edge packer naturally puts short
    // local spans into the low tracks, keeping their stubs short.
    let (channel_bottom, _channel_top) = channel;
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
    let home_of = |tx: i64| (tx - rules.m1_width / 2).div_euclid(col_pitch);
    // The placement's own metal1 (device contacts): stubs must keep
    // their distance from those too. Each blocks exactly the columns
    // strictly inside `a..b`, those whose stub rect would come within m1
    // spacing of it (the availability check below adds the vertical
    // margin; adding it here too would double-count); `c_lo..=c_hi`
    // holds them.
    let reach = |r: &Rect| {
        let (a, b) = (
            r.x0 - rules.m1_space - rules.m1_width,
            r.x1 + rules.m1_space,
        );
        (a, b, a.div_euclid(col_pitch), b.div_euclid(col_pitch) + 1)
    };
    let contacts = shapes
        .iter()
        .enumerate()
        .filter(|(_, s)| s.layer == Layer::Metal1)
        .filter_map(|(i, s)| Some((i, s.net?, s)));
    // The column occupancy spans the leftmost column a contact blocks or
    // a stub probes to the rightmost, with room for a claim on each
    // column a contact may block and one for each stub.
    let reached = contacts.clone().map(|(.., s)| {
        let (.., c_lo, c_hi) = reach(&s.rect);
        (c_lo, c_hi)
    });
    let (c_min, c_max) = reached
        .clone()
        .chain(
            pickups
                .iter()
                .map(|&(tx, _)| (home_of(tx) - REACH, home_of(tx) + REACH)),
        )
        .reduce(|(lo, hi), (c_lo, c_hi)| (lo.min(c_lo), hi.max(c_hi)))
        .unwrap_or((0, -1));
    let room = reached.map(|(c_lo, c_hi)| (c_hi - c_lo + 1) as usize);
    let mut columns = Columns::new(c_min, c_max, room.sum::<usize>() + pickups.len());
    for (i, net, s) in contacts {
        // A contact the replay redrew over another y extent makes the
        // columns it blocks dirty.
        let moved = match base {
            Some(base) => {
                let b = base.get(i)?;
                let same_x = (b.rect.x0, b.rect.x1) == (s.rect.x0, s.rect.x1);
                if (b.layer, b.net) != (s.layer, s.net) || !same_x {
                    return None;
                }
                b.rect != s.rect
            }
            None => false,
        };
        let (a, b, c_lo, c_hi) = reach(&s.rect);
        for c in c_lo..=c_hi {
            let col_x = c * col_pitch;
            if col_x > a && col_x < b {
                columns.claim(c, net, s.rect.y0, s.rect.y1);
                if moved {
                    columns.mark_dirty(c);
                }
            }
        }
    }
    // Power rails ride the placement's bounding box.
    let bbox = shapes.iter().map(|s| s.rect).reduce(|a, b| a.union(b));
    let rails = netlist.rails();
    shapes.reserve(spans.len() + 2 * pickups.len() + rails.len());

    // tracks[i] = the last (x_min, x_max) interval packed into track i.
    // Spans come in x_min order, and a track takes a span only when it
    // starts a margin (positive) past the track's intervals, so its last
    // interval reaches furthest right and is the only one a later span
    // can collide with.
    let mut tracks: Vec<(i64, i64)> = Vec::new();
    let margin = rules.m2_space;
    // The next base shape to read: the base's route follows its
    // placement, one track per span, then one stub per pickup, each
    // followed by its metal3 jog when it has one.
    let mut next = placed;
    let mut searched = 0;
    for s in &spans {
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
        let y = track_base + ti as i64 * pitch;
        if let Some(base) = base {
            base.get(next)
                .filter(|b| b.layer == Layer::Metal2 && b.net == Some(s.net))?;
            next += 1;
        }
        // Horizontal m2 segment (even a single-terminal net gets a stub
        // of minimum length so ports are routable).
        let x_max = s.x_max.max(s.x_min + rules.m2_width);
        shapes.push(Shape {
            layer: Layer::Metal2,
            rect: Rect::new(s.x_min, y, x_max, y + rules.m2_width),
            net: Some(s.net),
        });
        for &(tx, ty) in &pickups[s.pickups.clone()] {
            let (y0, mut y1) = if ty <= y {
                (ty, y + rules.m2_width)
            } else {
                (y, ty)
            };
            y1 = y1.max(y0 + rules.m1_width);
            let extent = (y0, y1);
            let home = home_of(tx);
            // The base's stub here: its column and y extent.
            let pick = match base {
                Some(base) => {
                    let b = base
                        .get(next)
                        .filter(|b| b.layer == Layer::Metal1 && b.net == Some(s.net))?;
                    next += 1;
                    if base.get(next).is_some_and(|j| j.layer == Layer::Metal3) {
                        next += 1;
                    }
                    let col = b.rect.x0.div_euclid(col_pitch);
                    if !(-REACH..REACH).contains(&(col - home)) {
                        return None;
                    }
                    Some((col, (b.rect.y0, b.rect.y1)))
                }
                None => None,
            };
            // Keep the base's column (see the module docs). A base column
            // at home that is neither clear nor dirty is where the base's
            // search fell back after failing on every probe.
            let clear = |c: i64| columns.clear(c, s.net, extent, rules.m1_space);
            let kept = pick.filter(|&(col, was)| {
                let found = (col != home && !columns.is_dirty(col)) || clear(col);
                let fell_back = !found && col == home && !columns.is_dirty(col);
                let failed = if found {
                    probed_before(home, col)
                } else {
                    home - REACH..=home + REACH - 1
                };
                was == extent
                    && (found || fell_back)
                    && columns
                        .dirty
                        .iter()
                        .filter(|c| failed.contains(c))
                        .all(|&c| !clear(c))
            });
            let col = match kept {
                Some((col, _)) => col,
                None => {
                    // Claim the nearest free column for this stub's y
                    // extent.
                    searched += 1;
                    let col = probes(home).find(|&c| clear(c)).unwrap_or(home);
                    if let Some((was_col, _)) = pick.filter(|&p| p != (col, extent)) {
                        columns.mark_dirty(was_col);
                        columns.mark_dirty(col);
                    }
                    col
                }
            };
            columns.claim(col, s.net, y0, y1);
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
    let routed = shapes.len();
    if let Some(bbox) = bbox {
        for net in rails {
            let is_power = netlist.net_kind(net) == NetKind::Power;
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
    if base.is_some_and(|base| next + (shapes.len() - routed) != base.len()) {
        return None;
    }
    Some(searched)
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
