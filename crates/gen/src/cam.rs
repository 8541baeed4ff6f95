//! CAM (content-addressable memory) generators — the paper's poster
//! child for why a custom HDL was needed ("a 2000 port CAM structure").
//!
//! Two forms:
//!
//! * [`cam_match_array`] — the transistor-level match-line slice:
//!   precharged dynamic NOR match lines over XOR compare cells, the
//!   classic full-custom CAM row;
//! * [`cam_rtl_source`] — HDL text using the native `cam` primitive,
//!   plus [`cam_rtl_expanded`], the same function written with explicit
//!   per-entry comparators (what a standard HDL would force) — the pair
//!   measured against each other in experiment E7.

use cbv_netlist::{Device, FlatNetlist, NetKind};
use cbv_tech::{MosKind, Process};

use crate::gates::{add_inverter, Sizing};
use crate::Generated;

/// Generates one CAM match line over `width` stored bits.
///
/// The stored word arrives on `stored[i]` / its complement is generated
/// internally; the search key arrives on `key[i]`. The match line `ml`
/// is precharged by `clk` and discharges when ANY bit mismatches —
/// outputs `match_out` (high = hit) after the restoring inverter pair.
pub fn cam_match_line(width: u32, process: &Process) -> Generated {
    assert!(width >= 1);
    let mut f = FlatNetlist::new(format!("cam_ml{width}"));
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    let s = Sizing::standard(process, 1.0);
    let clk = f.add_net("clk", NetKind::Clock);
    let ml = f.add_net("ml", NetKind::Signal);
    // Precharge the match line.
    f.add_device(Device::mos(
        MosKind::Pmos,
        "pre",
        clk,
        ml,
        vdd,
        vdd,
        2.0 * s.wp,
        s.l,
    ));
    let mut inputs = Vec::new();
    for i in 0..width {
        let key = f.add_net(&format!("key[{i}]"), NetKind::Input);
        let stored = f.add_net(&format!("stored[{i}]"), NetKind::Input);
        let keyn = f.add_net(&format!("keyn{i}"), NetKind::Signal);
        let storedn = f.add_net(&format!("storedn{i}"), NetKind::Signal);
        add_inverter(&mut f, &format!("ik{i}"), key, keyn, vdd, gnd, s);
        add_inverter(&mut f, &format!("is{i}"), stored, storedn, vdd, gnd, s);
        // Mismatch pulls the line down: (key & !stored) | (!key & stored),
        // each branch a clocked 2-stack with its internal nodes
        // precharged (secondary prechargers — without them a wide match
        // line dies of charge sharing, and the checks say so).
        for (tag, g1, g2) in [("a", key, storedn), ("b", keyn, stored)] {
            let x = f.add_net(&format!("x{tag}{i}"), NetKind::Signal);
            let foot = f.add_net(&format!("ft{tag}{i}"), NetKind::Signal);
            for (pn, node) in [("px", x), ("pf", foot)] {
                f.add_device(Device::mos(
                    MosKind::Pmos,
                    format!("{pn}{tag}{i}"),
                    clk,
                    node,
                    vdd,
                    vdd,
                    s.wp / 2.0,
                    s.l,
                ));
            }
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("cmp{tag}{i}_1"),
                g1,
                ml,
                x,
                gnd,
                2.0 * s.wn,
                s.l,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("cmp{tag}{i}_2"),
                g2,
                x,
                foot,
                gnd,
                2.0 * s.wn,
                s.l,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("cmp{tag}{i}_f"),
                clk,
                foot,
                gnd,
                gnd,
                2.0 * s.wn,
                s.l,
            ));
        }
        inputs.push(key);
        inputs.push(stored);
    }
    // Restore: ml -> inverter -> inverter -> match_out (high on hit),
    // plus a weak keeper holding the floating line against noise.
    let mln = f.add_net("mln", NetKind::Signal);
    let match_out = f.add_net("match_out", NetKind::Output);
    add_inverter(&mut f, "r1", ml, mln, vdd, gnd, s);
    add_inverter(&mut f, "r2", mln, match_out, vdd, gnd, s);
    f.add_device(Device::mos(
        MosKind::Pmos,
        "ml_keep",
        mln,
        ml,
        vdd,
        vdd,
        0.5 * s.wn,
        3.0 * s.l,
    ));
    Generated {
        netlist: f,
        inputs,
        outputs: vec![match_out],
        clocks: vec![clk],
    }
}

/// Alias retained for discoverability: the array slice is the match line.
pub use cam_match_line as cam_match_array;

/// HDL source for a CAM lookup unit using the native `cam` primitive:
/// O(1) simulated cost per lookup.
pub fn cam_rtl_source(entries: u32, width: u32) -> String {
    let iw = (32 - (entries.max(2) - 1).leading_zeros()).max(1);
    format!(
        "module camq(clock ck, in we, in wi[{iw}], in wv[{width}], in k[{width}], out hit, out idx[{iw}]) {{\n\
           cam t[{entries}][{width}];\n\
           at posedge(ck) {{ if (we) {{ t[wi] <= wv; }} }}\n\
           assign hit = t.hit(k);\n\
           assign idx = t.index(k);\n\
         }}\n"
    )
}

/// The same function written the way a standard HDL forces it: explicit
/// per-entry registers and comparators. Simulated cost grows linearly in
/// `entries` — the run-time complaint of §4.1.
pub fn cam_rtl_expanded(entries: u32, width: u32) -> String {
    let iw = (32 - (entries.max(2) - 1).leading_zeros()).max(1);
    let mut s = format!(
        "module camq(clock ck, in we, in wi[{iw}], in wv[{width}], in k[{width}], out hit, out idx[{iw}]) {{\n"
    );
    for e in 0..entries {
        s.push_str(&format!("  reg e{e}[{width}];\n"));
    }
    s.push_str("  at posedge(ck) {\n");
    for e in 0..entries {
        s.push_str(&format!("    if (we && (wi == {e})) {{ e{e} <= wv; }}\n"));
    }
    s.push_str("  }\n");
    for e in 0..entries {
        s.push_str(&format!("  wire m{e} = e{e} == k;\n"));
    }
    // hit = OR of all match bits.
    s.push_str("  assign hit = ");
    for e in 0..entries {
        if e > 0 {
            s.push_str(" | ");
        }
        s.push_str(&format!("m{e}"));
    }
    s.push_str(";\n");
    // idx = priority encoder.
    let mut idx_expr = String::from("0");
    for e in (0..entries).rev() {
        idx_expr = format!("m{e} ? {e} : ({idx_expr})");
    }
    s.push_str(&format!("  assign idx = {idx_expr};\n}}\n"));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_recognize::recognize;
    use cbv_rtl::{compile, interp::Interp};
    use cbv_sim::{Logic, SwitchSim};

    #[test]
    fn match_line_hits_and_misses() {
        let p = Process::strongarm_035();
        let g = cam_match_line(4, &p);
        let mut sim = SwitchSim::new(&g.netlist);
        let clk = g.clocks[0];
        // inputs alternate key[i], stored[i].
        let set_word = |sim: &mut SwitchSim<'_>, key: u64, stored: u64| {
            for i in 0..4 {
                sim.set(g.inputs[2 * i], Logic::from_bool((key >> i) & 1 == 1));
                sim.set(
                    g.inputs[2 * i + 1],
                    Logic::from_bool((stored >> i) & 1 == 1),
                );
            }
        };
        for (key, stored) in [(0b1010, 0b1010), (0b1010, 0b1011), (0xF, 0xF), (0x0, 0x1)] {
            // Dynamic discipline: key/stored settle during precharge so
            // the compare stacks are glitch-free when evaluate begins —
            // the §4.3 input-stability constraint for dynamic nodes.
            sim.set(clk, Logic::Zero);
            set_word(&mut sim, key, stored);
            sim.settle().unwrap();
            sim.set(clk, Logic::One);
            sim.settle().unwrap();
            let expect = key == stored;
            assert_eq!(
                sim.value(g.outputs[0]),
                Logic::from_bool(expect),
                "key={key:04b} stored={stored:04b}"
            );
        }
    }

    #[test]
    fn match_line_is_recognized_dynamic_with_keeper() {
        let p = Process::strongarm_035();
        let g = cam_match_line(4, &p);
        let rec = recognize(&g.netlist);
        let ml = g.netlist.find_net("ml").unwrap();
        // Precharged at the component level...
        assert!(
            rec.classes.iter().any(|c| c.dynamic_outputs.contains(&ml)),
            "match line is a precharged dynamic output"
        );
        // ...held by the keeper at the net-role level.
        assert_eq!(rec.role(ml), cbv_recognize::NetRole::State);
        assert!(
            rec.state_elements
                .iter()
                .any(|se| se.kind == cbv_recognize::StateKind::Keeper
                    && se.storage_nets.contains(&ml))
        );
    }

    #[test]
    fn native_and_expanded_cam_agree() {
        let native = compile(&cam_rtl_source(8, 8), "camq").unwrap();
        let expanded = compile(&cam_rtl_expanded(8, 8), "camq").unwrap();
        let mut a = Interp::new(&native);
        let mut b = Interp::new(&expanded);
        let mut rng = 5u64;
        for _ in 0..200 {
            rng = rng.wrapping_mul(6364136223846793005).wrapping_add(1);
            let we = (rng >> 8) & 1;
            let wi = (rng >> 16) & 7;
            let wv = (rng >> 24) & 0xFF;
            let k = (rng >> 40) & 0xFF;
            for sim in [&mut a, &mut b] {
                sim.set_input("we", we);
                sim.set_input("wi", wi);
                sim.set_input("wv", wv);
                sim.set_input("k", k);
            }
            assert_eq!(a.output("hit"), b.output("hit"), "hit diverged");
            if a.output("hit") == 1 {
                assert_eq!(a.output("idx"), b.output("idx"), "idx diverged");
            }
            a.step("ck");
            b.step("ck");
        }
    }

    #[test]
    fn expanded_cam_is_much_bigger() {
        let native = compile(&cam_rtl_source(64, 16), "camq").unwrap();
        let expanded = compile(&cam_rtl_expanded(64, 16), "camq").unwrap();
        assert!(
            expanded.nodes.len() > 10 * native.nodes.len(),
            "expanded {} vs native {}",
            expanded.nodes.len(),
            native.nodes.len()
        );
    }
}
