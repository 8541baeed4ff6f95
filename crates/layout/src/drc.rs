//! Design-rule checking over macrocell geometry.
//!
//! The paper's methodology is Correct-by-Verification all the way down:
//! layout produced by hand or by the assist tools is *checked*, not
//! trusted. This is the geometric leg — minimum width and minimum
//! spacing per layer, with same-net abutment exempt.

use cbv_netlist::FlatNetlist;
use cbv_tech::Layer;

use crate::rules::Rules;
use crate::{Layout, Shape};

/// One geometric violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DrcViolation {
    /// A shape narrower than the layer minimum.
    Width {
        /// The layer.
        layer: Layer,
        /// Measured width (nm).
        actual: i64,
        /// Required minimum (nm).
        required: i64,
        /// Net name (or `<none>`).
        net: String,
    },
    /// Two different-net shapes closer than the layer spacing.
    Spacing {
        /// The layer.
        layer: Layer,
        /// Measured gap (nm).
        actual: i64,
        /// Required minimum (nm).
        required: i64,
        /// The two nets.
        nets: (String, String),
    },
}

/// Layer minimums in nm derived from the process rules.
fn layer_minimums(rules: &Rules, layer: Layer) -> Option<(i64, i64)> {
    // (min width, min spacing)
    match layer {
        Layer::Metal1 => Some((rules.m1_width, rules.m1_space)),
        Layer::Metal2 => Some((rules.m2_width, rules.m2_space)),
        Layer::Poly => Some((rules.gate_length, 2 * rules.lambda)),
        // Diffusion and M3 are not produced by the assist tools' checks.
        _ => None,
    }
}

/// Runs width and spacing checks. `max_violations` caps the report (a
/// broken layout would otherwise flood).
pub fn check_drc(
    layout: &Layout,
    netlist: &FlatNetlist,
    rules: &Rules,
    max_violations: usize,
) -> Vec<DrcViolation> {
    let mut out = Vec::new();
    let name_of = |s: &Shape| -> String {
        s.net
            .map(|n| netlist.net_name(n).to_owned())
            .unwrap_or_else(|| "<none>".to_owned())
    };

    // Width checks.
    for s in &layout.shapes {
        let Some((w_min, _)) = layer_minimums(rules, s.layer) else {
            continue;
        };
        let w = s.rect.width().min(s.rect.height());
        if w < w_min {
            out.push(DrcViolation::Width {
                layer: s.layer,
                actual: w,
                required: w_min,
                net: name_of(s),
            });
            if out.len() >= max_violations {
                return out;
            }
        }
    }

    // Spacing checks: different-net shapes on the same layer.
    for (i, a) in layout.shapes.iter().enumerate() {
        let Some((_, s_min)) = layer_minimums(rules, a.layer) else {
            continue;
        };
        for b in &layout.shapes[i + 1..] {
            if b.layer != a.layer || a.net == b.net {
                continue;
            }
            // Gap: zero when overlapping (that's a short — spacing 0).
            let (gx, gy) = (a.rect.x_gap(b.rect), a.rect.y_gap(b.rect));
            // Diagonal neighbors measure the euclidean-ish corner gap;
            // use the max of the axis gaps (conservative corner rule is
            // out of scope for assist-level checking).
            let gap = match (gx > 0, gy > 0) {
                (true, true) => gx.max(gy),
                (true, false) => gx,
                (false, true) => gy,
                (false, false) => 0,
            };
            if gap < s_min {
                out.push(DrcViolation::Spacing {
                    layer: a.layer,
                    actual: gap,
                    required: s_min,
                    nets: (name_of(a), name_of(b)),
                });
                if out.len() >= max_violations {
                    return out;
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::geom::Rect;
    use crate::synthesize;
    use cbv_netlist::{Device, NetKind};
    use cbv_tech::{MosKind, Process};

    fn inv_layout() -> (FlatNetlist, Layout, Rules) {
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
        let p = Process::strongarm_035();
        let rules = Rules::for_process(&p);
        let layout = synthesize(&f, &p);
        (f, layout, rules)
    }

    #[test]
    fn generated_inverter_is_drc_quiet_or_near() {
        let (f, layout, rules) = inv_layout();
        let v = check_drc(&layout, &f, &rules, 1000);
        // The assist tools' output must be structurally sane: allow zero
        // violations on a single gate.
        assert!(v.is_empty(), "{v:?}");
    }

    #[test]
    fn narrow_wire_flagged() {
        let (mut f, mut layout, rules) = inv_layout();
        let n = f.add_net("skinny", NetKind::Signal);
        layout.shapes.push(Shape {
            layer: cbv_tech::Layer::Metal2,
            rect: Rect::new(0, 100_000, 10_000, 100_000 + rules.m2_width / 2),
            net: Some(n),
        });
        let v = check_drc(&layout, &f, &rules, 1000);
        assert!(
            v.iter().any(|x| matches!(x, DrcViolation::Width { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn tight_spacing_flagged() {
        let (mut f, mut layout, rules) = inv_layout();
        let n1 = f.add_net("w1", NetKind::Signal);
        let n2 = f.add_net("w2", NetKind::Signal);
        let y = 200_000;
        layout.shapes.push(Shape {
            layer: cbv_tech::Layer::Metal2,
            rect: Rect::new(0, y, 10_000, y + rules.m2_width),
            net: Some(n1),
        });
        layout.shapes.push(Shape {
            layer: cbv_tech::Layer::Metal2,
            rect: Rect::new(
                0,
                y + rules.m2_width + rules.m2_space / 3,
                10_000,
                y + 2 * rules.m2_width + rules.m2_space / 3,
            ),
            net: Some(n2),
        });
        let v = check_drc(&layout, &f, &rules, 1000);
        assert!(
            v.iter().any(|x| matches!(x, DrcViolation::Spacing { .. })),
            "{v:?}"
        );
    }

    #[test]
    fn same_net_abutment_exempt() {
        let (mut f, mut layout, rules) = inv_layout();
        let n = f.add_net("bus", NetKind::Signal);
        let y = 300_000;
        for dx in [0, 5_000] {
            layout.shapes.push(Shape {
                layer: cbv_tech::Layer::Metal2,
                rect: Rect::new(dx, y, dx + 6_000, y + rules.m2_width),
                net: Some(n),
            });
        }
        let v = check_drc(&layout, &f, &rules, 1000);
        assert!(
            !v.iter().any(|x| matches!(x, DrcViolation::Spacing { .. })),
            "same-net overlap is abutment, not a violation: {v:?}"
        );
    }

    #[test]
    fn violation_cap_respected() {
        let (mut f, mut layout, rules) = inv_layout();
        let n = f.add_net("skinny", NetKind::Signal);
        for i in 0..50 {
            layout.shapes.push(Shape {
                layer: cbv_tech::Layer::Metal2,
                rect: Rect::new(i * 20_000, 400_000, i * 20_000 + 10_000, 400_050),
                net: Some(n),
            });
        }
        let v = check_drc(&layout, &f, &rules, 10);
        assert_eq!(v.len(), 10);
    }
}
