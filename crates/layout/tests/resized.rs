//! `Layout::resized` against `synthesize`: seeded sizing walks over three
//! generated designs patch each step's layout from the last one's. Every
//! patched layout must `Debug`-equal the one `synthesize` draws, and its
//! `ShapeDiff` must equal what a multiset comparison of the two layouts
//! finds, but where a redrawn shape's key occurs twice ([`check_diff`]).
//! The walks force the cases a patch must get right: the widest
//! PMOS device changing (the power rail moves), a stub gaining or
//! dropping its jog, another net's stub moving to a new column, and the
//! widest NMOS device changing (the PMOS row moves, and the patch must
//! decline).

use cbv_gen::adders::{manchester_domino_adder, static_ripple_adder};
use cbv_gen::datapath::alu_slice;
use cbv_layout::{synthesize, Layout, Rect, Shape, ShapeDiff};
use cbv_netlist::{DeviceId, FlatNetlist, NetKind};
use cbv_tech::{Layer, MosKind, Process};

/// A hash of a shape's `(layer, rect, net)`.
fn shape_key(s: &Shape) -> u64 {
    let Rect { x0, y0, x1, y1 } = s.rect;
    let layer = Layer::ALL.iter().position(|&l| l == s.layer);
    let net = s.net.map_or(u64::MAX, |n| u64::from(n.0));
    [
        layer.unwrap_or(0) as u64,
        x0 as u64,
        y0 as u64,
        x1 as u64,
        y1 as u64,
        net,
    ]
    .into_iter()
    .fold(0xcbf2_9ce4_8422_2325, |h: u64, v| {
        (h ^ v).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
    })
}

/// The [keys](shape_key) that occur a different number of times in `a`
/// and in `b`, ascending.
fn unbalanced_keys(a: &[Shape], b: &[Shape]) -> Vec<u64> {
    let sorted = |shapes: &[Shape]| {
        let mut keys: Vec<u64> = shapes.iter().map(shape_key).collect();
        keys.sort_unstable();
        keys
    };
    let (a, b) = (sorted(a), sorted(b));
    let (mut i, mut j, mut out) = (0, 0, Vec::new());
    while let Some(&k) = a.get(i).into_iter().chain(b.get(j)).min() {
        let (i0, j0) = (i, j);
        while a.get(i) == Some(&k) {
            i += 1;
        }
        while b.get(j) == Some(&k) {
            j += 1;
        }
        if i - i0 != j - j0 {
            out.push(k);
        }
    }
    out
}

/// The oracle: the two layouts compared as multisets of
/// `(layer, rect, net)`. A shape whose key occurs a different number of
/// times in the two is changed; the others must keep their order.
/// Returns the renumbering, the added ids and the removed shapes, as a
/// [`ShapeDiff`] holds them.
fn multiset_diff(old: &[Shape], new: &[Shape]) -> (Vec<u32>, Vec<u32>, Vec<Shape>) {
    let unbalanced = unbalanced_keys(old, new);
    let changed = |s: &Shape| unbalanced.binary_search(&shape_key(s)).is_ok();
    let mut renumber = vec![u32::MAX; old.len()];
    let mut kept = (0..new.len()).filter(|&j| !changed(&new[j]));
    for (i, s) in old.iter().enumerate() {
        if !changed(s) {
            let j = kept.next().expect("as many kept shapes on each side");
            assert_eq!(new[j], *s, "the kept shapes keep their order");
            renumber[i] = j as u32;
        }
    }
    assert!(kept.next().is_none(), "as many kept shapes on each side");
    let added = (0..new.len() as u32)
        .filter(|&j| changed(&new[j as usize]))
        .collect();
    let removed = old.iter().filter(|s| changed(s)).cloned().collect();
    (renumber, added, removed)
}

/// Holds `diff` a diff from `old` to `new`: the kept shapes equal their
/// new ids' and keep their order, the added ids are the rest, and the
/// removed shapes are the ones not kept. Then holds it equal to the
/// [multiset diff](multiset_diff), but for one case: when a changed
/// shape's key occurs more than once, the multiset diff marks every copy
/// changed, and the patch only the one it redrew. Returns whether that
/// case occurred.
fn check_diff(old: &[Shape], new: &[Shape], diff: &ShapeDiff) -> bool {
    let kept: Vec<(usize, u32)> = (0..old.len())
        .map(|i| (i, diff.renumber[i]))
        .filter(|&(_, j)| j != u32::MAX)
        .collect();
    assert!(kept.iter().all(|&(i, j)| new[j as usize] == old[i]));
    assert!(kept.windows(2).all(|w| w[0].1 < w[1].1), "monotone");
    let mut ids: Vec<u32> = kept.iter().map(|k| k.1).chain(diff.added.clone()).collect();
    ids.sort_unstable();
    assert!(ids.iter().copied().eq(0..new.len() as u32), "every id once");
    let removed = (0..old.len()).filter(|&i| diff.renumber[i] == u32::MAX);
    assert!(
        removed.map(|i| &old[i]).eq(&diff.removed),
        "removed in order"
    );

    let (renumber, added, removed) = multiset_diff(old, new);
    if (&renumber, &added, &removed) == (&diff.renumber, &diff.added, &diff.removed) {
        return false;
    }
    let repeated = |s: &Shape| {
        let key = shape_key(s);
        let count = |shapes: &[Shape]| shapes.iter().filter(|t| shape_key(t) == key).count();
        count(old) > 1 || count(new) > 1
    };
    for (i, s) in old.iter().enumerate() {
        match (diff.renumber[i] == u32::MAX, renumber[i] == u32::MAX) {
            (true, false) => panic!("the patch removed {s:?}, the multiset diff keeps it"),
            (false, true) => assert!(repeated(s), "the patch kept {s:?}"),
            _ => {}
        }
    }
    for (j, s) in new.iter().enumerate() {
        let j = j as u32;
        match (diff.added.contains(&j), added.contains(&j)) {
            (true, false) => panic!("the patch added {s:?}, the multiset diff keeps it"),
            (false, true) => assert!(repeated(s), "the patch kept new {s:?}"),
            _ => {}
        }
    }
    true
}

/// A SplitMix64 stream.
struct Seeded(u64);

impl Seeded {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }
}

/// The widest device of a kind (the first, on a tie).
fn widest(netlist: &FlatNetlist, kind: MosKind) -> DeviceId {
    let ids = netlist
        .device_ids()
        .filter(|&d| netlist.device(d).kind == kind);
    ids.reduce(|a, b| {
        if netlist.device(b).w > netlist.device(a).w {
            b
        } else {
            a
        }
    })
    .expect("the design has devices of both kinds")
}

/// The power rail: the last metal1 shape on a power net.
fn power_rail(layout: &Layout, netlist: &FlatNetlist) -> Rect {
    let on_power = |s: &&Shape| s.net.is_some_and(|n| netlist.net_kind(n) == NetKind::Power);
    let mut rail = layout.shapes.iter().rev().filter(on_power);
    rail.find(|s| s.layer == Layer::Metal1)
        .expect("the design has a power rail")
        .rect
}

/// How often each forced case happened over a walk, and the stubs the
/// patches searched.
#[derive(Default, Debug)]
struct Seen {
    patches: usize,
    declined: usize,
    rail_moves: usize,
    jog_changes: usize,
    other_stub_moves: usize,
    searched: usize,
    repeated_keys: usize,
}

/// Walks `steps` seeded resizes of `netlist`, counting into `seen`.
/// Every fifth step scales the widest PMOS device and every seventh the
/// widest NMOS one; the others scale a random device by 0.5–1.5. A
/// resize that would make a device the widest NMOS one outside those
/// steps is halved instead, so the row stays put.
fn walk(mut netlist: FlatNetlist, steps: usize, seed: u64, seen: &mut Seen) {
    let p = Process::strongarm_035();
    let mut rng = Seeded(seed);
    let mut layout = synthesize(&netlist, &p);
    let n_devices = netlist.devices().len();
    for step in 1..=steps {
        let (d, factor) = if step % 7 == 0 {
            (widest(&netlist, MosKind::Nmos), 1.05)
        } else if step % 5 == 0 {
            let up = [1.05, 0.9][rng.below(2)];
            (widest(&netlist, MosKind::Pmos), up)
        } else {
            let d = DeviceId(rng.below(n_devices) as u32);
            (d, 0.5 + rng.below(1001) as f64 / 1000.0)
        };
        let w = netlist.device(d).w * factor;
        let n_widest = netlist.device(widest(&netlist, MosKind::Nmos)).w;
        let grows_row = netlist.device(d).kind == MosKind::Nmos && w > n_widest;
        netlist.device_mut(d).w = if grows_row && step % 7 != 0 {
            w / 2.0
        } else {
            w
        };

        let full = synthesize(&netlist, &p);
        let name = netlist.name();
        let Some((patched, diff)) = layout.resized(&netlist, &p) else {
            let moved = layout.sites.iter().zip(&full.sites).any(|(a, b)| a != b);
            assert!(moved, "{name} step {step}: declined though no site moved");
            seen.declined += 1;
            layout = full;
            continue;
        };
        assert!(
            step % 7 != 0,
            "{name} step {step}: patched a change of the widest NMOS device"
        );
        assert!(
            format!("{patched:?}") == format!("{full:?}"),
            "{name} step {step}: the patched layout differs from synthesize's"
        );
        seen.repeated_keys += usize::from(check_diff(&layout.shapes, &full.shapes, &diff));

        seen.patches += 1;
        seen.searched += diff.stubs_searched;
        seen.rail_moves +=
            usize::from(power_rail(&layout, &netlist) != power_rail(&full, &netlist));
        let jogs = |l: &Layout| l.shapes.iter().filter(|s| s.layer == Layer::Metal3).count();
        seen.jog_changes += usize::from(jogs(&layout) != jogs(&full));
        let dev = netlist.device(d);
        let own = [dev.gate, dev.source, dev.drain];
        let other_stub = |s: &Shape| {
            s.layer == Layer::Metal1
                && s.net
                    .is_some_and(|n| !own.contains(&n) && !netlist.net_kind(n).is_rail())
        };
        seen.other_stub_moves += usize::from(diff.removed.iter().any(other_stub));
        layout = patched;
    }
}

/// Runs the walk on the three designs and checks that every forced case
/// happened, and that a patch searched few of the stubs.
fn walk_designs(steps: usize) {
    let p = Process::strongarm_035();
    let mut total = Seen::default();
    for (design, seed) in [
        (alu_slice(8, &p), 1),
        (manchester_domino_adder(8, &p), 2),
        (static_ripple_adder(8, &p), 3),
    ] {
        let declined = total.declined;
        walk(design.netlist, steps, seed, &mut total);
        assert!(total.declined > declined, "seed {seed}: no row move");
    }
    assert!(
        total.rail_moves > 0,
        "{total:?}: the power rail never moved"
    );
    assert!(total.jog_changes > 0, "{total:?}: no jog gained or dropped");
    assert!(
        total.other_stub_moves > 0,
        "{total:?}: no other net's stub changed column"
    );
    let per_patch = total.searched as f64 / total.patches as f64;
    assert!(
        per_patch <= 40.0,
        "{total:?}: a patch searched {per_patch:.1} stubs"
    );
}

#[test]
fn a_resized_layout_equals_synthesize_and_its_diff_the_multiset_diff() {
    walk_designs(120);
}

/// The long walk; `scripts/check.sh` runs it in release.
#[test]
#[ignore = "2,000 steps a design: run in release"]
fn a_resized_layout_equals_synthesize_over_a_long_walk() {
    walk_designs(2_000);
}
