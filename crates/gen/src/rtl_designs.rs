//! Named registry of word-level RTL designs for cross-engine sweeps.
//!
//! The cross-engine bit-exactness suite, the E18 compiled-simulation
//! benchmark and the mutation functional screen all need the same thing:
//! a stable, *named* set of RTL designs spanning the behaviors the
//! engines disagree about when one of them is wrong — pure combinational
//! cones, posedge state, negedge-only state, two-phase (posedge feeding
//! negedge on one clock) pipelines, wide arithmetic, dynamic shifts and
//! blasted CAM state. One definition here keeps every consumer sweeping
//! the identical corpus.
//!
//! All registry designs use at most one clock (named `ck`) so batch
//! drivers can step them uniformly; [`RtlDesignSpec::has_cam`] flags the
//! designs whose blasted form carries CAM entry state (handled by the
//! compiled engine like any other state bits, but excluded from engines
//! that refuse CAMs).

use crate::cam::cam_rtl_source;

/// One registry entry: everything a sweep needs to build and drive the
/// design through `cbv_rtl::compile` and `cbv_rtl::blast::blast`.
#[derive(Debug, Clone)]
pub struct RtlDesignSpec {
    /// Stable registry name (unique).
    pub name: &'static str,
    /// HDL source text.
    pub source: String,
    /// Top module name for `cbv_rtl::compile`.
    pub top: &'static str,
    /// The design's clock, if it has state.
    pub clock: Option<&'static str>,
    /// Whether the design contains a CAM primitive (blasts to
    /// `entries × width` state bits).
    pub has_cam: bool,
}

/// The paper-class pipelined adder: a `width`-bit carry chain between a
/// posedge input latch and a negedge result latch — the RTL shape of
/// the Manchester domino adder datapath (§2's precharge/evaluate stage
/// becomes the two-phase register pair). This is the E18 headline
/// design at `width = 32`.
fn manchester_class_adder_rtl(width: u32) -> String {
    let w2 = width + 2;
    let hi = width;
    format!(
        "module mda{width}(clock ck, in a[{width}], in b[{width}], in cin, out s[{width}], out cout) {{\n\
           reg ra[{width}]; reg rb[{width}]; reg rc; reg rs[{width}]; reg rco;\n\
           at posedge(ck) {{ ra <= a; rb <= b; rc <= cin; }}\n\
           wire sum[{w2}] = {{2'b0, ra}} + rb + rc;\n\
           at negedge(ck) {{ rs <= sum[{last}:0]; rco <= sum[{hi}]; }}\n\
           assign s = rs;\n\
           assign cout = rco;\n\
         }}\n",
        last = width - 1,
    )
}

/// The full registry, in stable order.
pub fn rtl_design_registry() -> Vec<RtlDesignSpec> {
    vec![
        RtlDesignSpec {
            name: "add32_comb",
            source: "module add32(in a[32], in b[32], in cin, out s[33], out lt, out eq) {\n\
                       assign s = {1'b0, a} + b + cin;\n\
                       assign lt = a < b;\n\
                       assign eq = a == b;\n\
                     }\n"
                .into(),
            top: "add32",
            clock: None,
            has_cam: false,
        },
        RtlDesignSpec {
            name: "barrel16_comb",
            source: "module barrel16(in a[16], in sh[5], in dir, out y[16], out any) {\n\
                       wire l[16] = a << sh;\n\
                       wire r[16] = a >> sh;\n\
                       assign y = dir ? l : r;\n\
                       assign any = |y;\n\
                     }\n"
                .into(),
            top: "barrel16",
            clock: None,
            has_cam: false,
        },
        RtlDesignSpec {
            name: "mda32_two_phase",
            source: manchester_class_adder_rtl(32),
            top: "mda32",
            clock: Some("ck"),
            has_cam: false,
        },
        RtlDesignSpec {
            name: "alu_acc16_posedge",
            source: "module aluacc(clock ck, in op[2], in x[16], out acc[16], out zero) {\n\
                       reg a[16] = 1;\n\
                       wire nx[16] = a + x;\n\
                       wire sb[16] = a - x;\n\
                       wire an[16] = a & x;\n\
                       wire xo[16] = a ^ x;\n\
                       at posedge(ck) {\n\
                         if (op == 0) { a <= nx; }\n\
                         else if (op == 1) { a <= sb; }\n\
                         else if (op == 2) { a <= an; }\n\
                         else { a <= xo; }\n\
                       }\n\
                       assign acc = a;\n\
                       assign zero = a == 0;\n\
                     }\n"
                .into(),
            top: "aluacc",
            clock: Some("ck"),
            has_cam: false,
        },
        RtlDesignSpec {
            name: "lfsr24_posedge",
            source: "module lfsr24(clock ck, in en, out v[24], out tap) {\n\
                       reg r[24] = 1;\n\
                       at posedge(ck) { if (en) { r <= {r[22:0], r[23] ^ r[22] ^ r[21] ^ r[16]}; } }\n\
                       assign v = r;\n\
                       assign tap = r[23];\n\
                     }\n"
                .into(),
            top: "lfsr24",
            clock: Some("ck"),
            has_cam: false,
        },
        RtlDesignSpec {
            name: "negedge_counter8",
            source: "module negc8(clock ck, in rst, out q[8], out odd) {\n\
                       reg r[8];\n\
                       at negedge(ck) { if (rst) { r <= 0; } else { r <= r + 3; } }\n\
                       assign q = r;\n\
                       assign odd = r[0];\n\
                     }\n"
                .into(),
            top: "negc8",
            clock: Some("ck"),
            has_cam: false,
        },
        RtlDesignSpec {
            name: "cam8x8",
            source: cam_rtl_source(8, 8),
            top: "camq",
            clock: Some("ck"),
            has_cam: true,
        },
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_rtl::blast::blast;
    use cbv_rtl::compile;

    #[test]
    fn every_registry_design_compiles_and_blasts() {
        for spec in rtl_design_registry() {
            let d =
                compile(&spec.source, spec.top).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            let net = blast(&d).unwrap_or_else(|e| panic!("{}: {e}", spec.name));
            match spec.clock {
                Some(ck) => assert!(
                    d.clocks.iter().any(|c| c == ck),
                    "{}: clock {ck} missing",
                    spec.name
                ),
                None => assert!(d.regs.is_empty(), "{}: unexpected state", spec.name),
            }
            assert_eq!(
                spec.has_cam,
                !d.cams.is_empty(),
                "{}: has_cam flag wrong",
                spec.name
            );
            assert!(net.gate_count() > 0, "{}: empty network", spec.name);
        }
    }

    #[test]
    fn registry_names_are_unique() {
        let mut names: Vec<&str> = rtl_design_registry().iter().map(|s| s.name).collect();
        names.sort_unstable();
        let before = names.len();
        names.dedup();
        assert_eq!(before, names.len());
    }

    #[test]
    fn manchester_class_adder_scales() {
        for w in [8, 16, 32] {
            let src = manchester_class_adder_rtl(w);
            let d = compile(&src, &format!("mda{w}")).unwrap();
            assert_eq!(d.inputs.iter().map(|(_, iw)| iw).sum::<u32>(), 2 * w + 1);
        }
    }
}
