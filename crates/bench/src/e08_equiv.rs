//! E8 — §4.1 equivalence checking across liberal reimplementation.
//!
//! Three demonstrations:
//!
//! * the paper's own example — a mod-5 counter vs a one-hot shift
//!   register — proved equivalent by product-machine reachability;
//! * a transistor-level domino stage proved against its single-output
//!   RTL function (the "dual-rail, precharge-discharge" mapping);
//! * BDD-based combinational equivalence of two structurally different
//!   adders.

use std::time::Instant;

use cbv_core::bdd::Bdd;
use cbv_core::equiv::comb::{boolnet_to_bdds, VarTable};
use cbv_core::equiv::{check_circuit_outputs, check_sequential, CombResult, OutputSpec, SeqResult};
use cbv_core::netlist::{Device, FlatNetlist, NetKind};
use cbv_core::recognize::recognize;
use cbv_core::rtl::{blast::blast, compile};
use cbv_core::tech::MosKind;

/// Results of the three checks.
pub struct EquivResult {
    /// Joint states explored proving counter ⇔ shifter.
    pub seq_states: usize,
    /// Seconds for the sequential proof.
    pub seq_seconds: f64,
    /// Whether the domino stage matched its RTL function.
    pub domino_equivalent: bool,
    /// Whether the two adders' BDDs coincided.
    pub adders_equivalent: bool,
    /// BDD nodes after building both adders.
    pub bdd_nodes: usize,
}

/// Runs all three checks.
pub fn run() -> EquivResult {
    // --- Sequential: the paper's counter example ---
    let counter = compile(
        "module tick5(clock ck, in rst, out tick) {\n\
           reg cnt[3];\n\
           at posedge(ck) { if (rst) { cnt <= 0; } else if (cnt == 4) { cnt <= 0; } else { cnt <= cnt + 1; } }\n\
           assign tick = cnt == 4;\n\
         }",
        "tick5",
    )
    .expect("compiles");
    let shifter = compile(
        "module tick5(clock ck, in rst, out tick) {\n\
           reg s[5] = 1;\n\
           at posedge(ck) { if (rst) { s <= 1; } else { s <= {s[3:0], s[4]}; } }\n\
           assign tick = s[4];\n\
         }",
        "tick5",
    )
    .expect("compiles");
    let t0 = Instant::now();
    let seq = check_sequential(&counter, &shifter, &["tick"], 100_000).expect("comparable");
    let seq_seconds = t0.elapsed().as_secs_f64();
    let seq_states = match seq {
        SeqResult::Equivalent { states_explored } => states_explored,
        other => panic!("counter/shifter must be equivalent: {other:?}"),
    };

    // --- Transistor domino AND3 vs its RTL function ---
    let mut f = FlatNetlist::new("dom3");
    let clk = f.add_net("clk", NetKind::Clock);
    let ins: Vec<_> = (0..3)
        .map(|i| f.add_net(&format!("i{i}[0]"), NetKind::Input))
        .collect();
    let d = f.add_net("dynn", NetKind::Output);
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    f.add_device(Device::mos(
        MosKind::Pmos,
        "pre",
        clk,
        d,
        vdd,
        vdd,
        3e-6,
        0.35e-6,
    ));
    let mut prev = d;
    for (i, &a) in ins.iter().enumerate() {
        let nxt = f.add_net(&format!("s{i}"), NetKind::Signal);
        f.add_device(Device::mos(
            MosKind::Nmos,
            format!("m{i}"),
            a,
            prev,
            nxt,
            gnd,
            4e-6,
            0.35e-6,
        ));
        prev = nxt;
    }
    f.add_device(Device::mos(
        MosKind::Nmos,
        "foot",
        clk,
        prev,
        gnd,
        gnd,
        6e-6,
        0.35e-6,
    ));
    let rec = recognize(&f);
    let golden_rtl = compile(
        "module g(in i0, in i1, in i2, out y) { assign y = i0 & i1 & i2; }",
        "g",
    )
    .expect("compiles");
    let gnet = blast(&golden_rtl).expect("blasts");
    let mut mgr = Bdd::new();
    let mut vars = VarTable::default();
    let gout = boolnet_to_bdds(&gnet, &mut mgr, &mut vars).expect("combinational");
    let golden = gout.iter().find(|(n, _)| n == "y").expect("y").1[0];
    let domino = check_circuit_outputs(
        &f,
        &rec,
        &[OutputSpec {
            net: "dynn".into(),
            golden,
            complemented: true,
        }],
        &mut mgr,
        &mut vars,
    )
    .expect("check runs");
    let domino_equivalent = domino[0].1 == CombResult::Equivalent;

    // --- Two adders, structurally different ---
    let a = compile(
        "module m(in a[8], in b[8], out s[8]) { assign s = a + b; }",
        "m",
    )
    .expect("compiles");
    let b = {
        // Carry-select-ish restructuring: low nibble + both high options.
        let src = "module m(in a[8], in b[8], out s[8]) {\n\
             wire lo[5] = {1'b0, a[3:0]} + b[3:0];\n\
             wire hi0[4] = a[7:4] + b[7:4];\n\
             wire hi1[4] = a[7:4] + b[7:4] + 1;\n\
             assign s = {lo[4] ? hi1 : hi0, lo[3:0]};\n\
           }";
        compile(src, "m").expect("compiles")
    };
    let na = blast(&a).expect("blasts");
    let nb = blast(&b).expect("blasts");
    let oa = boolnet_to_bdds(&na, &mut mgr, &mut vars).expect("combinational");
    let ob = boolnet_to_bdds(&nb, &mut mgr, &mut vars).expect("combinational");
    let adders_equivalent = oa.iter().find(|(n, _)| n == "s").expect("s").1
        == ob.iter().find(|(n, _)| n == "s").expect("s").1;

    EquivResult {
        seq_states,
        seq_seconds,
        domino_equivalent,
        adders_equivalent,
        bdd_nodes: mgr.node_count(),
    }
}

/// Prints the results.
pub fn print() {
    crate::banner("E8", "§4.1 — equivalence across liberal reimplementation");
    let r = run();
    println!(
        "counter vs one-hot shifter:  EQUIVALENT  ({} joint states, {:.2} ms)",
        r.seq_states,
        r.seq_seconds * 1e3
    );
    println!(
        "domino AND3 vs RTL a&b&c:    {}",
        if r.domino_equivalent {
            "EQUIVALENT (complement-rail mapping)"
        } else {
            "MISMATCH"
        }
    );
    println!(
        "ripple vs carry-select +:    {}  ({} BDD nodes total)",
        if r.adders_equivalent {
            "EQUIVALENT (canonical BDDs coincide)"
        } else {
            "MISMATCH"
        },
        r.bdd_nodes
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_three_prove_equivalent() {
        let r = run();
        assert!(r.seq_states >= 5);
        assert!(r.domino_equivalent);
        assert!(r.adders_equivalent);
    }
}
