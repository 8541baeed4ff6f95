//! Property-based tests on the toolkit's core invariants.

use cbv_core::bdd::Bdd;
use cbv_core::netlist::spice;
use cbv_core::netlist::{partition_cccs, Device, FlatNetlist, NetKind};
use cbv_core::rtl::{blast::blast, compile, interp::Interp};
use cbv_core::tech::{MosKind, Process};
use cbv_core::views::partition_overlap;
use proptest::prelude::*;
use std::collections::HashMap;

proptest! {
    /// The word-level interpreter and the bit-blasted network are two
    /// independent implementations of the HDL semantics; they must agree
    /// on arbitrary arithmetic expressions under random inputs.
    #[test]
    fn interp_matches_blast_on_random_exprs(
        ops in proptest::collection::vec(0u8..6, 1..6),
        inputs in proptest::collection::vec(any::<u64>(), 8),
        widths in proptest::collection::vec(2u32..12, 3),
    ) {
        // Build an expression chain over three inputs.
        let (wa, wb, wc) = (widths[0], widths[1], widths[2]);
        let mut expr = String::from("a");
        for (i, op) in ops.iter().enumerate() {
            let operand = match i % 3 { 0 => "b", 1 => "c", _ => "a" };
            let o = match op { 0 => "+", 1 => "-", 2 => "&", 3 => "|", 4 => "^", _ => "+" };
            expr = format!("({expr} {o} {operand})");
        }
        let src = format!(
            "module m(in a[{wa}], in b[{wb}], in c[{wc}], out y[16]) {{ assign y = {expr}; }}"
        );
        let design = compile(&src, "m").expect("generated module compiles");
        let net = blast(&design).expect("blasts");
        let mut sim = Interp::new(&design);
        let mut states = net.initial_states();
        for chunk in inputs.chunks(3) {
            let a = chunk[0] & ((1 << wa) - 1);
            let b = chunk.get(1).copied().unwrap_or(0) & ((1 << wb) - 1);
            let c = chunk.get(2).copied().unwrap_or(0) & ((1 << wc) - 1);
            sim.set_input("a", a);
            sim.set_input("b", b);
            sim.set_input("c", c);
            let mut bits = Vec::new();
            for (v, w) in [(a, wa), (b, wb), (c, wc)] {
                for i in 0..w {
                    bits.push((v >> i) & 1 == 1);
                }
            }
            let values = net.eval(&bits, &states);
            let blasted: u64 = net
                .output("y")
                .expect("y exists")
                .iter()
                .enumerate()
                .map(|(i, b)| (values[b.index()] as u64) << i)
                .sum();
            prop_assert_eq!(sim.output("y"), blasted);
            states = net.next_states(&values, &states, 0);
        }
    }

    /// BDD operations are canonical: any random expression built two
    /// different ways (directly vs via De Morgan'd form) yields the same
    /// node, and eval agrees with direct computation.
    #[test]
    fn bdd_canonicity_and_eval(terms in proptest::collection::vec((0u32..6, 0u32..6, any::<bool>()), 1..12), assignment in proptest::collection::vec(any::<bool>(), 6)) {
        let mut m = Bdd::new();
        let mut f = m.constant(false);
        for &(x, y, conj) in &terms {
            let vx = m.var(x);
            let vy = m.var(y);
            let t = if conj { m.and(vx, vy) } else { m.or(vx, vy) };
            f = m.xor(f, t);
        }
        // De Morgan rebuild: a&b = !(!a|!b), a|b = !(!a&!b).
        let mut g = m.constant(false);
        for &(x, y, conj) in &terms {
            let vx = m.var(x);
            let vy = m.var(y);
            let nx = m.not(vx);
            let ny = m.not(vy);
            let inner = if conj { m.or(nx, ny) } else { m.and(nx, ny) };
            let t = m.not(inner);
            g = m.xor(g, t);
        }
        prop_assert_eq!(f, g, "canonical forms must coincide");
        // Eval agrees with direct semantics.
        let asn: HashMap<u32, bool> = assignment.iter().copied().enumerate().map(|(i, b)| (i as u32, b)).collect();
        let direct = terms.iter().fold(false, |acc, &(x, y, conj)| {
            let (vx, vy) = (assignment[x as usize], assignment[y as usize]);
            acc ^ if conj { vx && vy } else { vx || vy }
        });
        prop_assert_eq!(m.eval(f, &asn), direct);
    }

    /// CCC partitioning is a partition: every device appears in exactly
    /// one component, regardless of netlist shape.
    #[test]
    fn ccc_partition_covers_devices(edges in proptest::collection::vec((0u32..12, 0u32..12, 0u32..12, any::<bool>()), 1..40)) {
        let mut f = FlatNetlist::new("rand");
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let nets: Vec<_> = (0..12).map(|i| f.add_net(&format!("n{i}"), NetKind::Signal)).collect();
        for (i, &(g, s, d, is_n)) in edges.iter().enumerate() {
            let kind = if is_n { MosKind::Nmos } else { MosKind::Pmos };
            let bulk = if is_n { gnd } else { vdd };
            f.add_device(Device::mos(
                kind,
                format!("m{i}"),
                nets[g as usize],
                nets[s as usize],
                nets[d as usize],
                bulk,
                1e-6,
                0.35e-6,
            ));
        }
        let n_devices = f.devices().len();
        let (cccs, map) = partition_cccs(&f);
        prop_assert_eq!(map.len(), n_devices);
        let total: usize = cccs.iter().map(|c| c.devices.len()).sum();
        prop_assert_eq!(total, n_devices, "every device in exactly one ccc");
        for (i, &cid) in map.iter().enumerate() {
            prop_assert!(cccs[cid.index()].devices.contains(&cbv_core::netlist::DeviceId(i as u32)));
        }
    }

    /// Hierarchy overlap metrics are bounded and exact for identical
    /// partitions.
    #[test]
    fn overlap_metric_bounds(labels_a in proptest::collection::vec(0u32..5, 1..60), shuffle in any::<bool>()) {
        let labels_b: Vec<u32> = if shuffle {
            labels_a.iter().map(|&x| (x + 1) % 5).collect()
        } else {
            labels_a.clone()
        };
        let s = partition_overlap(&labels_a, &labels_b);
        prop_assert!(s.mean_best_jaccard > 0.0 && s.mean_best_jaccard <= 1.0);
        prop_assert!(s.crossing_elements <= s.total_elements);
        if !shuffle {
            prop_assert_eq!(s.mean_best_jaccard, 1.0);
            prop_assert_eq!(s.crossing_elements, 0);
        } else {
            // A pure relabeling is still a perfect correspondence.
            prop_assert_eq!(s.mean_best_jaccard, 1.0);
        }
    }

    /// The switch-level simulator computes correct sums on the generated
    /// ripple adder for arbitrary inputs.
    #[test]
    fn switch_level_adder_random(a in 0u64..16, b in 0u64..16, cin in 0u64..2) {
        use cbv_core::sim::{Logic, SwitchSim};
        let p = Process::strongarm_035();
        let g = cbv_core::gen::adders::static_ripple_adder(4, &p);
        let mut sim = SwitchSim::new(&g.netlist);
        for i in 0..4 {
            sim.set(g.inputs[i], Logic::from_bool((a >> i) & 1 == 1));
            sim.set(g.inputs[4 + i], Logic::from_bool((b >> i) & 1 == 1));
        }
        sim.set(g.inputs[8], Logic::from_bool(cin == 1));
        sim.settle().expect("stable");
        let mut got = 0u64;
        for (i, &n) in g.outputs.iter().enumerate() {
            match sim.value(n) {
                Logic::One => got |= 1 << i,
                Logic::Zero => {}
                Logic::X => prop_assert!(false, "X on output {i}"),
            }
        }
        prop_assert_eq!(got, a + b + cin);
    }
}

proptest! {
    /// SPICE write → parse round-trips arbitrary random netlists with
    /// identical device population and connectivity degree profile.
    #[test]
    fn spice_round_trip_random_netlists(devices in proptest::collection::vec((0u32..10, 0u32..10, 0u32..10, any::<bool>(), 1u64..60, 1u64..4), 1..30)) {
        let mut lib = cbv_core::netlist::Library::new();
        let mut cell = cbv_core::netlist::Cell::new("rand");
        let vdd = cell.add_net("vdd", NetKind::Power);
        let gnd = cell.add_net("gnd", NetKind::Ground);
        let nets: Vec<_> = (0..10)
            .map(|i| cell.add_net(format!("n{i}"), NetKind::Signal))
            .collect();
        for (i, &(g, s, d, is_n, w, l)) in devices.iter().enumerate() {
            let kind = if is_n { MosKind::Nmos } else { MosKind::Pmos };
            let bulk = if is_n { gnd } else { vdd };
            cell.add_device(Device::mos(
                kind,
                format!("m{i}"),
                nets[g as usize],
                nets[s as usize],
                nets[d as usize],
                bulk,
                w as f64 * 1e-7,
                l as f64 * 0.35e-6,
            ));
        }
        let top = lib.add_cell(cell).expect("adds");
        let text = spice::write(&lib);
        let lib2 = spice::parse(&text).expect("parses back");
        let f1 = lib.flatten(top).expect("flattens");
        let f2 = lib2
            .flatten(lib2.find_cell("rand").expect("cell"))
            .expect("flattens");
        prop_assert_eq!(f1.devices().len(), f2.devices().len());
        for (a, b) in f1.devices().iter().zip(f2.devices()) {
            prop_assert_eq!(a.kind, b.kind);
            prop_assert!((a.w - b.w).abs() < 1e-12);
            prop_assert!((a.l - b.l).abs() < 1e-12);
        }
    }

    /// Elmore delay on a uniform line is monotone in position and total
    /// RC, and the far-end delay approaches RC/2 with refinement.
    #[test]
    fn elmore_line_properties(segments in 2usize..40, r in 10.0f64..10_000.0, c in 1e-15f64..1e-11) {
        use cbv_core::extract::{RcNet, RcNodeId};
        use cbv_core::netlist::NetId;
        use cbv_core::tech::{Farads, Ohms};
        let rc = RcNet::line(NetId(0), segments, Ohms::new(r), Farads::new(c));
        let mut prev = -1.0f64;
        for i in 1..=segments {
            let t = rc
                .elmore(rc.first_node(), RcNodeId(i as u32), Ohms::new(50.0))
                .expect("connected");
            prop_assert!(t.seconds() > prev, "monotone along the line");
            prev = t.seconds();
        }
        // Far-end delay bounded by the lumped product plus source term.
        let lumped = 50.0 * c + r * c;
        prop_assert!(prev <= lumped * 1.001);
        prop_assert!(prev >= 50.0 * c + 0.4 * r * c);
    }

    /// Two-phase clocking: a shift pipeline whose stages commit on a
    /// random mix of rising and falling edges of one clock must behave
    /// identically in the word-level interpreter and the compiled
    /// gate-level engine (lane 0), and must match an independently
    /// written reference model of the two-phase non-blocking semantics.
    #[test]
    fn two_phase_pipeline_cross_engine(
        edges in proptest::collection::vec(any::<bool>(), 1..6),
        stimulus in proptest::collection::vec(0u64..16, 12),
    ) {
        use cbv_core::csim::{compile as csim_compile, CSim};
        // Build the HDL: one pos block and one neg block, stages chained.
        let k = edges.len();
        let mut decls = String::new();
        let mut pos = String::new();
        let mut neg = String::new();
        for (i, is_pos) in edges.iter().enumerate() {
            decls.push_str(&format!("reg r{i}[4]; "));
            let src = if i == 0 { "d".to_owned() } else { format!("r{}", i - 1) };
            let stmt = format!("r{i} <= {src}; ");
            if *is_pos { pos.push_str(&stmt) } else { neg.push_str(&stmt) }
        }
        let mut blocks = String::new();
        if !pos.is_empty() { blocks.push_str(&format!("at posedge(ck) {{ {pos}}} ")); }
        if !neg.is_empty() { blocks.push_str(&format!("at negedge(ck) {{ {neg}}} ")); }
        let src = format!(
            "module m(clock ck, in d[4], out q[4]) {{ {decls}{blocks}assign q = r{}; }}",
            k - 1
        );
        let design = compile(&src, "m").unwrap();
        let net = blast(&design).unwrap();
        let mut isim = Interp::new(&design);
        let mut csim = CSim::new(csim_compile(&net).unwrap());
        // Independent reference: all pos stages sample pre-edge values
        // simultaneously, then all neg stages sample post-pos values.
        let mut model = vec![0u64; k];
        for (cycle, &d) in stimulus.iter().enumerate() {
            isim.set_input("d", d);
            csim.set_input(0, "d", d);
            let pre = model.clone();
            for i in 0..k {
                if edges[i] {
                    model[i] = if i == 0 { d } else { pre[i - 1] };
                }
            }
            let mid = model.clone();
            for i in 0..k {
                if !edges[i] {
                    model[i] = if i == 0 { d } else { mid[i - 1] };
                }
            }
            isim.step("ck");
            csim.step("ck");
            prop_assert_eq!(isim.output("q"), model[k - 1], "interp vs model, cycle {}", cycle);
            prop_assert_eq!(csim.output(0, "q"), model[k - 1], "csim vs model, cycle {}", cycle);
        }
    }
}

proptest! {
    /// Any single-device size or connectivity edit must dirty the owning
    /// CCC's content fingerprint (and the whole-design residue unit) —
    /// the soundness floor of the incremental verification cache: a
    /// changed device can never hit a stale cached result.
    #[test]
    fn device_edit_dirties_owning_ccc_fingerprint(
        bits in 2u32..4,
        dev_sel in any::<u64>(),
        edit_kind in 0u8..4,
    ) {
        use cbv_core::cache::fingerprint_design;
        use cbv_core::extract::Extracted;
        use cbv_core::recognize::recognize;

        let p = Process::strongarm_035();
        let base = cbv_core::gen::adders::static_ripple_adder(bits, &p).netlist;
        let mut edited = base.clone();
        let rec = recognize(&base);
        let before = fingerprint_design(&base, &rec, &Extracted::default());

        let d = cbv_core::netlist::DeviceId((dev_sel % base.devices().len() as u64) as u32);
        let owner = rec.device_ccc[d.index()].index();
        match edit_kind {
            0 => edited.device_mut(d).w *= 1.5,
            1 => edited.device_mut(d).l *= 2.0,
            2 => edited.device_mut(d).fingers += 1,
            _ => {
                // Connectivity edit: rewire the gate to some other
                // device's (different) gate net. Channel connectivity is
                // untouched, so the CCC partition — and the owner index —
                // is identical in both builds.
                let current = edited.device(d).gate;
                let other = edited
                    .devices()
                    .iter()
                    .map(|dd| dd.gate)
                    .find(|&g| g != current)
                    .expect("adder has more than one distinct gate net");
                edited.device_mut(d).gate = other;
            }
        }
        let rec2 = recognize(&edited);
        prop_assert_eq!(rec.cccs.len(), rec2.cccs.len(), "partition is stable");
        let after = fingerprint_design(&edited, &rec2, &Extracted::default());

        prop_assert!(
            before.units[owner].content != after.units[owner].content,
            "edit kind {} on device {:?} must dirty owning CCC {}",
            edit_kind, d, owner
        );
        prop_assert!(
            before.residue().content != after.residue().content,
            "any edit must dirty the whole-design residue unit"
        );
    }

    /// Content fingerprints are id-invariant: building the same design
    /// with nets and devices declared in a different order changes every
    /// id, but the multiset of per-unit content hashes must not move.
    #[test]
    fn fingerprints_invariant_under_declaration_order(
        stages in 2u32..7,
        widths in proptest::collection::vec(1.0f64..8.0, 8),
        keys in proptest::collection::vec(any::<u64>(), 8),
    ) {
        use cbv_core::cache::fingerprint_design;
        use cbv_core::extract::Extracted;
        use cbv_core::recognize::recognize;
        use cbv_core::netlist::NetId;

        let k = stages as usize;
        // An inverter chain a -> n1 -> ... -> y, built twice: once in
        // natural order, once with nets and devices declared in an
        // argsort-of-random-keys permutation.
        let build = |order: &[usize]| -> FlatNetlist {
            let mut f = FlatNetlist::new("chain");
            let mut net_of = vec![NetId(u32::MAX); k + 1];
            let mut rails = (NetId(0), NetId(0));
            // Interleave rail/net creation according to the permutation
            // so net ids genuinely differ between the two builds.
            rails.0 = f.add_net("vdd", NetKind::Power);
            for &i in order {
                let name = if i == 0 {
                    "a".to_string()
                } else if i == k {
                    "y".to_string()
                } else {
                    format!("n{i}")
                };
                let kind = if i == 0 {
                    NetKind::Input
                } else if i == k {
                    NetKind::Output
                } else {
                    NetKind::Signal
                };
                net_of[i] = f.add_net(&name, kind);
            }
            rails.1 = f.add_net("gnd", NetKind::Ground);
            for &i in order.iter().filter(|&&i| i < k) {
                let w = widths[i % widths.len()] * 1e-6;
                f.add_device(Device::mos(
                    MosKind::Pmos,
                    format!("p{i}"),
                    net_of[i],
                    net_of[i + 1],
                    rails.0,
                    rails.0,
                    2.0 * w,
                    0.35e-6,
                ));
                f.add_device(Device::mos(
                    MosKind::Nmos,
                    format!("n{i}d"),
                    net_of[i],
                    net_of[i + 1],
                    rails.1,
                    rails.1,
                    w,
                    0.35e-6,
                ));
            }
            f
        };

        let natural: Vec<usize> = (0..=k).collect();
        let mut permuted = natural.clone();
        permuted.sort_by_key(|&i| keys[i % keys.len()].wrapping_add(i as u64));

        let a = build(&natural);
        let b = build(&permuted);
        let ra = recognize(&a);
        let rb = recognize(&b);
        let fa = fingerprint_design(&a, &ra, &Extracted::default());
        let fb = fingerprint_design(&b, &rb, &Extracted::default());

        let sorted = |f: &cbv_core::cache::DesignFingerprints| {
            let mut v: Vec<u64> = f.units.iter().map(|u| u.content).collect();
            v.sort_unstable();
            v
        };
        prop_assert_eq!(sorted(&fa), sorted(&fb), "content is declaration-order-free");
        prop_assert_eq!(fa.residue().content, fb.residue().content);
    }
}

proptest! {
    /// A sizing mutation (the electrical-class operators of E16) dirties
    /// *exactly* the owning CCC's content fingerprint plus the
    /// whole-design residue — no more, no less. This is what makes
    /// campaign mutants cheap: the incremental flow re-verifies only the
    /// units whose keys change around one component.
    #[test]
    fn sizing_mutation_dirties_exactly_the_owning_ccc(
        bits in 2u32..4,
        dev_sel in any::<u64>(),
        op_kind in 0u8..5,
        factor in 1.1f64..4.0,
    ) {
        use cbv_core::cache::fingerprint_design;
        use cbv_core::extract::Extracted;
        use cbv_core::mutate::{apply, MutationOp, Site};
        use cbv_core::recognize::recognize;

        let p = Process::strongarm_035();
        let base = cbv_core::gen::adders::static_ripple_adder(bits, &p).netlist;
        let rec = recognize(&base);
        let before = fingerprint_design(&base, &rec, &Extracted::default());

        let d = cbv_core::netlist::DeviceId((dev_sel % base.devices().len() as u64) as u32);
        let owner = rec.device_ccc[d.index()].index();
        let op = match op_kind {
            0 => MutationOp::WidthScale { factor },
            1 => MutationOp::WidthScale { factor: 1.0 / factor },
            2 => MutationOp::LengthScale { factor: 1.0 / factor },
            3 => MutationOp::BetaSkew { factor },
            _ => MutationOp::KeeperResize { w_factor: factor, l_factor: 0.5 },
        };

        let mut work = base.clone();
        let m = apply(&mut work, &op, Site::Device(d)).expect("device site applies");
        let rec1 = recognize(&work);
        prop_assert_eq!(rec.cccs.len(), rec1.cccs.len(), "sizing keeps the partition");
        let after = fingerprint_design(&work, &rec1, &Extracted::default());

        let residue = before.units.len() - 1;
        for i in 0..before.units.len() {
            let changed = before.units[i].content != after.units[i].content;
            if i == owner || i == residue {
                prop_assert!(changed, "{op} on {d:?} must dirty unit {i} (owner {owner})");
            } else if rec.roles == rec1.roles {
                // A pure sizing edit that moves no recognition role must
                // stay contained. (When resizing flips a role — a shrunk
                // device starts reading as a weak keeper, say — the role
                // is part of the neighbours' content by design, so their
                // fingerprints legitimately move too.)
                prop_assert!(!changed, "{op} on {d:?} must NOT dirty unit {i} (owner {owner})");
            }
        }

        // Un-applying restores every fingerprint bit-exactly.
        m.revert(&mut work);
        let rec2 = recognize(&work);
        let restored = fingerprint_design(&work, &rec2, &Extracted::default());
        for i in 0..before.units.len() {
            prop_assert_eq!(before.units[i].content, restored.units[i].content);
            prop_assert_eq!(before.units[i].binding, restored.units[i].binding);
        }
    }

    /// Every E16 operator — including the structural ones that add or
    /// rewire devices and nets — round-trips: apply then revert restores
    /// every content *and* binding fingerprint of the design.
    #[test]
    fn every_mutation_operator_round_trips_fingerprints(
        op_sel in 0usize..11,
        site_sel in any::<u64>(),
    ) {
        use cbv_core::cache::fingerprint_design;
        use cbv_core::extract::Extracted;
        use cbv_core::mutate::{apply, default_ops, sites};
        use cbv_core::recognize::recognize;

        let p = Process::strongarm_035();
        // The domino cell has keepers, precharges and clocked devices, so
        // every operator class enumerates at least one site (except
        // clock-phase-swap when the cell has a single clock — skipped).
        let base = cbv_core::gen::latches::keeper_domino(&p, 1e-6).netlist;
        let rec = recognize(&base);
        let before = fingerprint_design(&base, &rec, &Extracted::default());

        let op = default_ops()[op_sel];
        let ss = sites(&op, &base, &rec);
        if ss.is_empty() {
            // clock-phase-swap on a single-clock cell: nothing to test.
            continue;
        }
        let site = ss[(site_sel % ss.len() as u64) as usize];

        // Mutate a pristine clone; fingerprint the mutant on a *separate*
        // clone so recognize's in-place net promotion never leaks into
        // the netlist we revert.
        let mut work = base.clone();
        let m = apply(&mut work, &op, site).expect("enumerated site applies");
        let mutant_view = work.clone();
        let rec1 = recognize(&mutant_view);
        let after = fingerprint_design(&mutant_view, &rec1, &Extracted::default());
        prop_assert!(
            before.residue().content != after.residue().content,
            "{op} must dirty the residue"
        );

        m.revert(&mut work);
        let rec2 = recognize(&work);
        let restored = fingerprint_design(&work, &rec2, &Extracted::default());
        prop_assert_eq!(before.units.len(), restored.units.len());
        for i in 0..before.units.len() {
            prop_assert_eq!(
                before.units[i].content, restored.units[i].content,
                "{} at {:?}: unit {} content must restore", op, site, i
            );
            prop_assert_eq!(
                before.units[i].binding, restored.units[i].binding,
                "{} at {:?}: unit {} binding must restore", op, site, i
            );
        }
    }
}

proptest! {
    /// One packed 64-lane run of the compiled engine equals 64
    /// independent word-level interpreter runs: bit `l` of every plane
    /// is its own simulation, and no state may leak between lanes even
    /// through two-phase clocking.
    #[test]
    fn packed_lanes_equal_64_independent_interp_runs(
        seed in any::<u64>(),
        cycles in 1usize..20,
    ) {
        use cbv_core::csim::{compile as csim_compile, CSim, LANES};

        let src = "module m(clock ck, in op[2], in d[8], out acc[8], out z) {\n\
                     reg r[8] = 3;\n\
                     at posedge(ck) {\n\
                       if (op == 0) { r <= r + d; }\n\
                       else if (op == 1) { r <= r ^ d; }\n\
                       else if (op == 2) { r <= r & d; }\n\
                       else { r <= d; }\n\
                     }\n\
                     at negedge(ck) { }\n\
                     assign acc = r;\n\
                     assign z = r == 0;\n\
                   }";
        let design = compile(src, "m").expect("compiles");
        let net = blast(&design).expect("blasts");
        let mut csim = CSim::new(csim_compile(&net).expect("acyclic"));
        let mut interps: Vec<Interp> = (0..LANES).map(|_| Interp::new(&design)).collect();

        let mut rng = seed;
        let mut next = move || {
            rng = rng.wrapping_add(0x9e3779b97f4a7c15);
            let mut z = rng;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
            z ^ (z >> 31)
        };
        for cycle in 0..cycles {
            for (lane, interp) in interps.iter_mut().enumerate() {
                let r = next();
                let (op, d) = (r & 3, (r >> 2) & 0xFF);
                interp.set_input("op", op);
                interp.set_input("d", d);
                csim.set_input(lane, "op", op);
                csim.set_input(lane, "d", d);
            }
            for (lane, interp) in interps.iter_mut().enumerate() {
                prop_assert_eq!(csim.output(lane, "acc"), interp.output("acc"),
                    "acc lane {} cycle {}", lane, cycle);
                prop_assert_eq!(csim.output(lane, "z"), interp.output("z"),
                    "z lane {} cycle {}", lane, cycle);
            }
            csim.step("ck");
            for interp in &mut interps {
                interp.step("ck");
            }
        }
    }
}

proptest! {
    /// The interchange IR is lossless on arbitrary netlists:
    /// `load(dump(n)) == n` field-for-field (names, kinds, geometry
    /// bits, fingers, passive values), and the re-dump is byte-stable.
    #[test]
    fn ir_round_trips_random_netlists(
        devices in proptest::collection::vec(
            (0u32..10, 0u32..10, 0u32..10, any::<bool>(), 1u64..60, 1u64..4),
            1..30,
        ),
        passives in proptest::collection::vec((0u32..10, 0u32..10, any::<bool>(), 0u64..100), 0..6),
    ) {
        use cbv_core::ir;
        use cbv_core::netlist::Passive;

        let mut f = FlatNetlist::new("rand ir");
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let nets: Vec<_> = (0..10)
            .map(|i| f.add_net(&format!("n{i}"), NetKind::Signal))
            .collect();
        for (i, &(g, s, d, is_n, w, l)) in devices.iter().enumerate() {
            let kind = if is_n { MosKind::Nmos } else { MosKind::Pmos };
            let bulk = if is_n { gnd } else { vdd };
            let m = 1 + (w % 3) as u32;
            f.add_device(
                Device::mos(
                    kind,
                    format!("m{i}"),
                    nets[g as usize],
                    nets[s as usize],
                    nets[d as usize],
                    bulk,
                    w as f64 * 1e-7,
                    l as f64 * 0.35e-6,
                )
                .with_fingers(m),
            );
        }
        for (i, &(a, b, is_r, v)) in passives.iter().enumerate() {
            let (a, b) = (nets[a as usize], nets[b as usize]);
            let p = if is_r {
                Passive::resistor(format!("r{i}"), a, b, v as f64 * 13.7)
            } else {
                Passive::capacitor(format!("c{i}"), a, b, v as f64 * 1.3e-16)
            };
            f.add_passive(p);
        }

        let text = ir::dump(&f, None);
        let back = ir::load(&text).expect("own dump loads");
        prop_assert_eq!(&back.netlist, &f, "load(dump(n)) == n");
        prop_assert_eq!(ir::dump(&back.netlist, None), text, "re-dump is byte-stable");
    }

    /// Record lines carry explicit ids, so an IR file means the same
    /// design no matter how its lines are ordered: loading an arbitrary
    /// permutation of the record lines reconstructs the identical
    /// design (and therefore the identical normalized dump).
    #[test]
    fn ir_load_invariant_under_line_permutation(
        bits in 2u32..5,
        keys in proptest::collection::vec(any::<u64>(), 64),
    ) {
        use cbv_core::ir;
        use cbv_core::recognize::recognize;

        let p = Process::strongarm_035();
        let netlist = cbv_core::gen::adders::static_ripple_adder(bits, &p).netlist;
        let recognition = recognize(&netlist);
        let text = ir::dump(&netlist, Some(&recognition));
        let reference = ir::load(&text).expect("reference load");

        // Argsort-of-random-keys permutation of everything between the
        // version header and the end marker.
        let mut lines: Vec<&str> = text.lines().collect();
        prop_assert_eq!(lines.last().copied(), Some("end"));
        let n = lines.len();
        let mut order: Vec<usize> = (1..n - 1).collect();
        order.sort_by_key(|&i| keys[i % keys.len()].wrapping_add(i as u64));
        let body: Vec<&str> = order.iter().map(|&i| lines[i]).collect();
        lines.splice(1..n - 1, body);
        let shuffled = lines.join("\n");

        let design = ir::load(&shuffled).expect("permuted file loads");
        prop_assert_eq!(&design, &reference, "permutation-invariant load");
        prop_assert_eq!(
            ir::dump(&design.netlist, None),
            ir::dump(&reference.netlist, None)
        );
    }
}

/// Compiling the same design twice — from scratch, through separate
/// blasts — yields byte-identical programs: the compiler has no hidden
/// iteration-order or allocation nondeterminism. (This is what makes
/// compiled programs cacheable by content hash.)
#[test]
fn recompilation_is_byte_identical() {
    use cbv_core::csim::compile as csim_compile;
    use cbv_core::gen::rtl_designs::rtl_design_registry;

    for spec in rtl_design_registry() {
        let d1 = compile(&spec.source, spec.top).expect("compiles");
        let d2 = compile(&spec.source, spec.top).expect("compiles");
        let p1 = csim_compile(&blast(&d1).expect("blasts")).expect("acyclic");
        let p2 = csim_compile(&blast(&d2).expect("blasts")).expect("acyclic");
        let bytes = p1.encode();
        assert_eq!(bytes, p2.encode(), "{}: recompile differs", spec.name);
        assert_eq!(&bytes[..8], b"CBVCSIM1", "{}: magic", spec.name);
    }
}

proptest! {
    /// A bounded `VerifyCache` evicts in batches (one pass per absorb,
    /// per capacity change) where it used to evict one entry per
    /// insert. Against a model that does exactly that — a recency list
    /// that drops its single oldest entry whenever an insert finds it
    /// full — every sequence of inserts, lookups, absorbs and
    /// re-boundings must leave the same keys resident and the same
    /// eviction tally.
    #[test]
    fn batch_eviction_equals_one_at_a_time(
        cap in 1usize..9,
        ops in proptest::collection::vec((0u8..4, 0u64..24, 1usize..12), 1..80),
    ) {
        use cbv_core::cache::{CacheKey, UnitResult, VerifyCache};

        let key = |i: u64| CacheKey { env: 1, content: i, binding: i };
        /// Keys oldest-first, a capacity, and the evictions so far.
        struct Model(Vec<u64>, usize, usize);
        impl Model {
            fn touch(&mut self, k: u64) -> bool {
                let at = self.0.iter().position(|&x| x == k);
                if let Some(at) = at {
                    self.0.remove(at);
                    self.0.push(k);
                }
                at.is_some()
            }
            fn insert(&mut self, k: u64) {
                if !self.touch(k) {
                    while self.0.len() >= self.1 {
                        self.0.remove(0);
                        self.2 += 1;
                    }
                    self.0.push(k);
                }
            }
        }

        let mut cache = VerifyCache::with_capacity(cap);
        let mut model = Model(Vec::new(), cap, 0);
        for &(kind, k, n) in &ops {
            match kind {
                0 => {
                    cache.insert(key(k), UnitResult::default());
                    model.insert(k);
                }
                1 => {
                    prop_assert_eq!(cache.get(&key(k)).is_some(), model.touch(k));
                }
                2 => {
                    // Absorb a batch of `n` consecutive keys: existing
                    // entries win (and keep their recency), the rest
                    // arrive in sorted key order.
                    let mut batch = VerifyCache::new();
                    for i in k..k + n as u64 {
                        batch.insert(key(i), UnitResult::default());
                    }
                    let fresh: Vec<u64> =
                        (k..k + n as u64).filter(|i| !model.0.contains(i)).collect();
                    prop_assert_eq!(cache.absorb(&batch), fresh.len());
                    for i in fresh {
                        model.insert(i);
                    }
                }
                _ => {
                    cache.set_capacity(n);
                    model.1 = n;
                    while model.0.len() > n {
                        model.0.remove(0);
                        model.2 += 1;
                    }
                }
            }
            let resident: Vec<u64> = (0..36).filter(|&i| cache.contains(&key(i))).collect();
            let mut expected = model.0.clone();
            expected.sort_unstable();
            prop_assert_eq!(resident, expected);
            prop_assert_eq!(cache.evictions(), model.2);
        }
    }
}

/// The classification as it stood with two enumerators per (output,
/// rail): `conduction_function` built the `BoolExpr` by its own walk
/// (pruning never-on devices as it went) and `conduction_paths` built the
/// device lists, and `classify_ccc` ran both, plus two more clock-skipping
/// walks for the dual-rail test. Kept verbatim as the oracle that the one
/// walk per (output, rail) changes no bit of any class.
mod two_enumerator_oracle {
    use std::collections::HashSet;

    use cbv_core::netlist::{Ccc, DeviceId, FlatNetlist, NetId, NetKind};
    use cbv_core::recognize::{BoolExpr, CccClass, LogicFamily, OutputFunction};
    use cbv_core::tech::MosKind;

    const MAX_PATHS: usize = 4096;

    fn conduction_function(
        netlist: &FlatNetlist,
        devices: &[DeviceId],
        from: NetId,
        to: NetId,
        kind: MosKind,
        skip_gates: &[NetId],
    ) -> Option<BoolExpr> {
        let mut paths: Vec<Vec<BoolExpr>> = Vec::new();
        let mut visited: HashSet<NetId> = HashSet::new();
        visited.insert(from);
        let mut stack: Vec<BoolExpr> = Vec::new();
        dfs(
            netlist,
            devices,
            from,
            to,
            kind,
            skip_gates,
            &mut visited,
            &mut stack,
            &mut paths,
        )?;
        if paths.is_empty() {
            return Some(BoolExpr::Const(false));
        }
        let terms: Vec<BoolExpr> = paths
            .into_iter()
            .map(|lits| {
                if lits.is_empty() {
                    BoolExpr::Const(true)
                } else if lits.len() == 1 {
                    lits.into_iter().next().expect("len checked")
                } else {
                    BoolExpr::And(lits)
                }
            })
            .collect();
        Some(if terms.len() == 1 {
            terms.into_iter().next().expect("len checked")
        } else {
            BoolExpr::Or(terms)
        })
    }

    fn conduction_paths(
        netlist: &FlatNetlist,
        devices: &[DeviceId],
        from: NetId,
        to: NetId,
        kind: MosKind,
    ) -> Option<Vec<Vec<DeviceId>>> {
        #[allow(clippy::too_many_arguments)]
        fn walk(
            netlist: &FlatNetlist,
            devices: &[DeviceId],
            at: NetId,
            target: NetId,
            kind: MosKind,
            visited: &mut HashSet<NetId>,
            stack: &mut Vec<DeviceId>,
            paths: &mut Vec<Vec<DeviceId>>,
        ) -> Option<()> {
            if at == target {
                if paths.len() >= MAX_PATHS {
                    return None;
                }
                paths.push(stack.clone());
                return Some(());
            }
            for &did in devices {
                let d = netlist.device(did);
                if d.kind != kind || !d.channel_touches(at) {
                    continue;
                }
                let other = d.other_channel_end(at);
                if other != target && netlist.net_kind(other).is_rail() {
                    continue;
                }
                if other != target && visited.contains(&other) {
                    continue;
                }
                stack.push(did);
                if other != target {
                    visited.insert(other);
                }
                let r = walk(netlist, devices, other, target, kind, visited, stack, paths);
                if other != target {
                    visited.remove(&other);
                }
                stack.pop();
                r?;
            }
            Some(())
        }
        let mut paths = Vec::new();
        let mut visited = HashSet::new();
        visited.insert(from);
        let mut stack = Vec::new();
        walk(
            netlist,
            devices,
            from,
            to,
            kind,
            &mut visited,
            &mut stack,
            &mut paths,
        )?;
        Some(paths)
    }

    #[allow(clippy::too_many_arguments)]
    fn dfs(
        netlist: &FlatNetlist,
        devices: &[DeviceId],
        at: NetId,
        target: NetId,
        kind: MosKind,
        skip_gates: &[NetId],
        visited: &mut HashSet<NetId>,
        stack: &mut Vec<BoolExpr>,
        paths: &mut Vec<Vec<BoolExpr>>,
    ) -> Option<()> {
        if at == target {
            if paths.len() >= MAX_PATHS {
                return None;
            }
            paths.push(stack.clone());
            return Some(());
        }
        for &did in devices {
            let d = netlist.device(did);
            if d.kind != kind || !d.channel_touches(at) {
                continue;
            }
            let other = d.other_channel_end(at);
            if other != target && netlist.net_kind(other).is_rail() {
                continue;
            }
            if other != target && visited.contains(&other) {
                continue;
            }
            let gate_kind = netlist.net_kind(d.gate);
            let never_on = match d.kind {
                MosKind::Nmos => gate_kind == NetKind::Ground,
                MosKind::Pmos => gate_kind == NetKind::Power,
            };
            if never_on {
                continue;
            }
            let always_on = skip_gates.contains(&d.gate)
                || match d.kind {
                    MosKind::Nmos => gate_kind == NetKind::Power,
                    MosKind::Pmos => gate_kind == NetKind::Ground,
                };
            let pushed = if always_on {
                false
            } else {
                stack.push(BoolExpr::literal(d.gate, d.kind));
                true
            };
            if other != target {
                visited.insert(other);
            }
            let r = dfs(
                netlist, devices, other, target, kind, skip_gates, visited, stack, paths,
            );
            if other != target {
                visited.remove(&other);
            }
            if pushed {
                stack.pop();
            }
            r?;
        }
        Some(())
    }

    fn complementary(a: &BoolExpr, b: &BoolExpr) -> bool {
        const EXHAUSTIVE_VARS: usize = 12;
        let mut support = a.support();
        for n in b.support() {
            if !support.contains(&n) {
                support.push(n);
            }
        }
        if support.len() <= EXHAUSTIVE_VARS {
            for m in 0u64..(1u64 << support.len()) {
                let assign = |n: NetId| {
                    support
                        .iter()
                        .position(|&x| x == n)
                        .map(|i| (m >> i) & 1 == 1)
                        .unwrap_or(false)
                };
                if a.eval(&assign) == b.eval(&assign) {
                    return false;
                }
            }
            true
        } else {
            let mut state = 0x9E3779B97F4A7C15u64;
            for _ in 0..4096 {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let m = state;
                let assign = |n: NetId| {
                    support
                        .iter()
                        .position(|&x| x == n)
                        .map(|i| (m >> (i % 64)) & 1 == 1)
                        .unwrap_or(false)
                };
                if a.eval(&assign) == b.eval(&assign) {
                    return false;
                }
            }
            true
        }
    }

    /// The old `classify_ccc`, its path lists moved onto the outputs they
    /// were kept parallel to.
    pub fn classify_ccc(netlist: &FlatNetlist, ccc: &Ccc, clock_nets: &[NetId]) -> CccClass {
        let rails: Vec<(NetId, NetKind)> = {
            let mut v = Vec::new();
            for &did in &ccc.devices {
                let d = netlist.device(did);
                for net in [d.source, d.drain] {
                    let k = netlist.net_kind(net);
                    if k.is_rail() && !v.contains(&(net, k)) {
                        v.push((net, k));
                    }
                }
            }
            v
        };
        let powers: Vec<NetId> = rails
            .iter()
            .filter(|(_, k)| *k == NetKind::Power)
            .map(|&(n, _)| n)
            .collect();
        let grounds: Vec<NetId> = rails
            .iter()
            .filter(|(_, k)| *k == NetKind::Ground)
            .map(|&(n, _)| n)
            .collect();
        let clock_inputs: Vec<NetId> = ccc
            .inputs
            .iter()
            .copied()
            .filter(|n| clock_nets.contains(n))
            .collect();
        let or_over_rails = |from: NetId, targets: &[NetId], kind: MosKind| -> BoolExpr {
            let mut terms = Vec::new();
            for &t in targets {
                match conduction_function(netlist, &ccc.devices, from, t, kind, &[]) {
                    Some(BoolExpr::Const(false)) => {}
                    Some(e) => terms.push(e),
                    None => terms.push(BoolExpr::Const(true)),
                }
            }
            match terms.len() {
                0 => BoolExpr::Const(false),
                1 => terms.into_iter().next().expect("len checked"),
                _ => BoolExpr::Or(terms),
            }
        };
        let mut outputs = Vec::new();
        for &out in &ccc.outputs {
            let pu = or_over_rails(out, &powers, MosKind::Pmos);
            let pd = or_over_rails(out, &grounds, MosKind::Nmos);
            let function = if complementary(&pu, &pd) {
                Some(pd.clone().negate())
            } else {
                None
            };
            let mut pup = Vec::new();
            for &p in &powers {
                if let Some(mut paths) =
                    conduction_paths(netlist, &ccc.devices, out, p, MosKind::Pmos)
                {
                    pup.append(&mut paths);
                }
            }
            let mut pdp = Vec::new();
            for &g in &grounds {
                if let Some(mut paths) =
                    conduction_paths(netlist, &ccc.devices, out, g, MosKind::Nmos)
                {
                    pdp.append(&mut paths);
                }
            }
            outputs.push(OutputFunction {
                net: out,
                pull_up: pu,
                pull_down: pd,
                function,
                pull_up_paths: pup,
                pull_down_paths: pdp,
            });
        }
        let has_precharge = |out: NetId| -> bool {
            outputs
                .iter()
                .find(|o| o.net == out)
                .map(|o| {
                    o.pull_up_paths
                        .iter()
                        .any(|p| p.len() == 1 && clock_nets.contains(&netlist.device(p[0]).gate))
                })
                .unwrap_or(false)
        };
        let has_foot = ccc.devices.iter().any(|&did| {
            let d = netlist.device(did);
            d.kind == MosKind::Nmos
                && clock_nets.contains(&d.gate)
                && (grounds.contains(&d.source) || grounds.contains(&d.drain))
        });
        let dynamic_outputs: Vec<NetId> = outputs
            .iter()
            .filter(|o| {
                has_precharge(o.net)
                    && o.function.is_none()
                    && o.pull_down != BoolExpr::Const(false)
            })
            .map(|o| o.net)
            .collect();
        let family = if !dynamic_outputs.is_empty() {
            let dual_rail = dynamic_outputs.len() == 2 && {
                let f0 = conduction_function(
                    netlist,
                    &ccc.devices,
                    dynamic_outputs[0],
                    *grounds.first().unwrap_or(&dynamic_outputs[0]),
                    MosKind::Nmos,
                    clock_nets,
                );
                let f1 = conduction_function(
                    netlist,
                    &ccc.devices,
                    dynamic_outputs[1],
                    *grounds.first().unwrap_or(&dynamic_outputs[1]),
                    MosKind::Nmos,
                    clock_nets,
                );
                match (f0, f1) {
                    (Some(a), Some(b)) => complementary(&a, &b),
                    _ => false,
                }
            };
            LogicFamily::Dynamic {
                footed: has_foot,
                dual_rail,
            }
        } else if outputs.len() == 2 && is_dcvsl(netlist, ccc, &outputs) {
            LogicFamily::Dcvsl
        } else if !outputs.is_empty()
            && outputs
                .iter()
                .all(|o| o.function.is_some() && o.pull_up != BoolExpr::Const(false))
        {
            LogicFamily::StaticComplementary
        } else if outputs
            .iter()
            .any(|o| o.pull_up == BoolExpr::Const(true) && o.pull_down != BoolExpr::Const(false))
        {
            LogicFamily::Ratioed
        } else if ccc.devices.iter().any(|&did| {
            let d = netlist.device(did);
            !netlist.net_kind(d.source).is_rail() && !netlist.net_kind(d.drain).is_rail()
        }) {
            LogicFamily::PassTransistor
        } else {
            LogicFamily::Unknown
        };
        CccClass {
            family,
            outputs,
            dynamic_outputs,
            clock_inputs,
        }
    }

    fn is_dcvsl(netlist: &FlatNetlist, ccc: &Ccc, outputs: &[OutputFunction]) -> bool {
        let (a, b) = (outputs[0].net, outputs[1].net);
        let cross = |out: NetId, other: NetId| -> bool {
            matches!(&outputs[if out == a { 0 } else { 1 }].pull_up,
                BoolExpr::Not(inner) if **inner == BoolExpr::Var(other))
        };
        let has_nmos_tree = |out: NetId| {
            ccc.devices.iter().any(|&did| {
                let d = netlist.device(did);
                d.kind == MosKind::Nmos && d.channel_touches(out)
            })
        };
        cross(a, b) && cross(b, a) && has_nmos_tree(a) && has_nmos_tree(b)
    }
}

/// Recognises each design and holds every CCC's class `Debug`-equal to
/// the two-enumerator oracle's: family, dynamic outputs, and each
/// output's pull functions, settled function and path lists.
fn assert_one_walk_matches_the_oracle(designs: Vec<(String, FlatNetlist)>) {
    for (name, netlist) in designs {
        let rec = cbv_core::recognize::recognize(&netlist);
        for (i, (ccc, class)) in rec.cccs.iter().zip(&rec.classes).enumerate() {
            let oracle = two_enumerator_oracle::classify_ccc(&netlist, ccc, &rec.clock_nets);
            assert_eq!(
                format!("{class:?}"),
                format!("{oracle:?}"),
                "{name}: CCC {i} differs from the two-enumerator oracle"
            );
        }
    }
}

/// The session registry's designs (`cbv_serve::DESIGN_NAMES`) plus the
/// recognition ladders, each rung under `MAX_PATHS`.
#[test]
fn one_walk_per_pull_network_equals_the_two_enumerator_oracle() {
    use cbv_core::gen::{adders, cam, datapath, dcvsl, latches, regfile};
    let p = Process::strongarm_035();
    let mut designs: Vec<(String, FlatNetlist)> = vec![
        ("ripple2".into(), adders::static_ripple_adder(2, &p).netlist),
        ("ripple4".into(), adders::static_ripple_adder(4, &p).netlist),
        ("ripple8".into(), adders::static_ripple_adder(8, &p).netlist),
        (
            "domino4".into(),
            adders::manchester_domino_adder(4, &p).netlist,
        ),
        ("alu4".into(), datapath::alu_slice(4, &p).netlist),
        ("cam8".into(), cam::cam_match_line(8, &p).netlist),
        ("dcvsl".into(), dcvsl::dcvsl_and2(&p).netlist),
        ("sr-latch".into(), latches::sr_latch(&p).netlist),
    ];
    for w in [4, 8, 16] {
        designs.push((format!("alu{w}"), datapath::alu_slice(w, &p).netlist));
    }
    for w in [8, 16, 32] {
        let g = adders::manchester_domino_adder(w, &p);
        designs.push((format!("man{w}"), g.netlist));
    }
    for w in [16, 32, 64] {
        designs.push((format!("cam{w}"), cam::cam_match_line(w, &p).netlist));
    }
    for words in [4, 8] {
        let g = regfile::register_file(words, 4, &p);
        designs.push((format!("rf{words}x4"), g.netlist));
    }
    // No generated design has a CCC with two dynamic outputs, so this
    // footed pair is what reaches the dual-rail test.
    let mut dr = FlatNetlist::new("dual-rail domino");
    let clk = dr.add_net("clk", NetKind::Clock);
    let a = dr.add_net("a", NetKind::Input);
    let an = dr.add_net("an", NetKind::Input);
    let t = dr.add_net("t", NetKind::Output);
    let c = dr.add_net("c", NetKind::Output);
    let foot = dr.add_net("foot", NetKind::Signal);
    let vdd = dr.add_net("vdd", NetKind::Power);
    let gnd = dr.add_net("gnd", NetKind::Ground);
    for (kind, name, g, d, s) in [
        (MosKind::Pmos, "pre_t", clk, t, vdd),
        (MosKind::Pmos, "pre_c", clk, c, vdd),
        (MosKind::Nmos, "nt", a, t, foot),
        (MosKind::Nmos, "nc", an, c, foot),
        (MosKind::Nmos, "nf", clk, foot, gnd),
    ] {
        let body = if kind == MosKind::Pmos { vdd } else { gnd };
        dr.add_device(Device::mos(kind, name, g, d, s, body, 4e-6, 0.35e-6));
    }
    designs.push(("dual-rail domino".into(), dr));
    assert_one_walk_matches_the_oracle(designs);
}

/// The larger rungs, in release (`scripts/check.sh`): the unbroken
/// 64-bit Manchester chain, a 128-bit match line and a 16 × 16 register
/// file, all still under `MAX_PATHS`.
#[test]
#[ignore = "release-only: run by scripts/check.sh with --ignored"]
fn one_walk_per_pull_network_equals_the_two_enumerator_oracle_on_the_larger_ladder() {
    use cbv_core::gen::{adders, cam, regfile};
    let p = Process::strongarm_035();
    assert_one_walk_matches_the_oracle(vec![
        (
            "man64".into(),
            adders::manchester_domino_adder(64, &p).netlist,
        ),
        ("cam128".into(), cam::cam_match_line(128, &p).netlist),
        ("rf16x16".into(), regfile::register_file(16, 16, &p).netlist),
    ]);
}
