//! Interconnect layer stack: per-layer sheet resistance and capacitance
//! coefficients consumed by the extractor (`cbv-extract`) and the clock RC
//! analyses of §4.2/§4.3.

use crate::units::{Farads, Ohms};

/// Routing/device layers recognized by the layout system.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Layer {
    /// Diffusion (active area).
    Diffusion,
    /// Polysilicon (gates and short straps).
    Poly,
    /// First-level metal.
    Metal1,
    /// Second-level metal.
    Metal2,
    /// Third-level metal (clock spines and power on the later processes).
    Metal3,
}

impl Layer {
    /// All routable layers, bottom-up.
    pub const ALL: [Layer; 5] = [
        Layer::Diffusion,
        Layer::Poly,
        Layer::Metal1,
        Layer::Metal2,
        Layer::Metal3,
    ];

    /// True for metal layers (candidates for electromigration checks).
    pub fn is_metal(self) -> bool {
        matches!(self, Layer::Metal1 | Layer::Metal2 | Layer::Metal3)
    }
}

/// Electrical coefficients for one layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireParams {
    /// Sheet resistance, ohms per square.
    pub r_sheet: f64,
    /// Capacitance to substrate per unit area, F/m².
    pub c_area: f64,
    /// Fringe capacitance per unit edge length, F/m.
    pub c_fringe: f64,
    /// Coupling capacitance to a parallel neighbor at minimum spacing,
    /// per unit parallel-run length, F/m. Falls off as `spacing_min/spacing`.
    pub c_couple_min_space: f64,
    /// Minimum width, meters.
    pub width_min: f64,
    /// Minimum spacing, meters.
    pub spacing_min: f64,
    /// Maximum sustained (average) current density for electromigration,
    /// amps per meter of wire width.
    pub em_limit_per_width: f64,
}

impl WireParams {
    /// Resistance of a wire `length` long and `width` wide.
    ///
    /// # Panics
    ///
    /// Panics if `width` is not strictly positive.
    pub fn resistance(&self, length: f64, width: f64) -> Ohms {
        assert!(width > 0.0, "wire width must be positive");
        Ohms::new(self.r_sheet * length / width)
    }

    /// Ground capacitance (area + both fringes) of a wire segment.
    pub fn ground_capacitance(&self, length: f64, width: f64) -> Farads {
        Farads::new(self.c_area * length * width + 2.0 * self.c_fringe * length)
    }

    /// Coupling capacitance to a neighbor running in parallel for
    /// `parallel_length` at `spacing`. Uses a `1/spacing` falloff anchored
    /// at minimum spacing.
    ///
    /// # Panics
    ///
    /// Panics if `spacing` is not strictly positive.
    pub fn coupling_capacitance(&self, parallel_length: f64, spacing: f64) -> Farads {
        assert!(spacing > 0.0, "spacing must be positive");
        let factor = self.spacing_min / spacing;
        Farads::new(self.c_couple_min_space * parallel_length * factor)
    }

    /// Maximum electromigration-safe average current for a wire of the
    /// given width.
    pub fn em_current_limit(&self, width: f64) -> f64 {
        self.em_limit_per_width * width
    }
}

/// The full layer stack of a process.
#[derive(Debug, Clone, PartialEq)]
pub struct WireStack {
    layers: Vec<(Layer, WireParams)>,
}

impl WireStack {
    /// Builds a stack from explicit per-layer parameters.
    ///
    /// # Panics
    ///
    /// Panics if a layer appears twice.
    pub fn new(layers: Vec<(Layer, WireParams)>) -> WireStack {
        for (i, (a, _)) in layers.iter().enumerate() {
            for (b, _) in &layers[i + 1..] {
                assert!(a != b, "duplicate layer {a:?} in wire stack");
            }
        }
        WireStack { layers }
    }

    /// Parameters for one layer.
    ///
    /// # Panics
    ///
    /// Panics if the layer is not in this stack.
    pub fn params(&self, layer: Layer) -> &WireParams {
        self.layers
            .iter()
            .find(|(l, _)| *l == layer)
            .map(|(_, p)| p)
            .unwrap_or_else(|| panic!("layer {layer:?} not present in wire stack"))
    }

    /// Iterate over `(layer, params)` bottom-up.
    pub fn iter(&self) -> impl Iterator<Item = (Layer, &WireParams)> {
        self.layers.iter().map(|(l, p)| (*l, p))
    }

    /// A representative stack for a given feature size. Resistance per
    /// square rises and capacitance per length falls roughly with scaling;
    /// this keeps the relative layer characteristics realistic (poly very
    /// resistive, M3 thick and fast).
    pub fn for_feature_size(l_min: f64) -> WireStack {
        // Scale factor relative to a 0.75 µm reference.
        let s = l_min / 0.75e-6;
        let mk = |r_sq: f64, c_a: f64, c_f: f64, c_c: f64, w_min: f64, s_min: f64, em: f64| {
            WireParams {
                r_sheet: r_sq / s,           // thinner films as we scale
                c_area: c_a,                 // per-area roughly constant
                c_fringe: c_f * 1.05,        // fringe grows in relative terms
                c_couple_min_space: c_c / s, // tighter spacing couples harder
                width_min: w_min * s,
                spacing_min: s_min * s,
                em_limit_per_width: em,
            }
        };
        WireStack::new(vec![
            (
                Layer::Diffusion,
                mk(25.0, 1.0e-4, 2.0e-10, 0.2e-10, 1.0e-6, 1.2e-6, 0.5e3),
            ),
            (
                Layer::Poly,
                mk(8.0, 0.6e-4, 1.5e-10, 0.4e-10, 0.75e-6, 0.9e-6, 0.7e3),
            ),
            (
                Layer::Metal1,
                mk(0.07, 0.3e-4, 0.8e-10, 0.9e-10, 1.0e-6, 1.0e-6, 1.0e3),
            ),
            (
                Layer::Metal2,
                mk(0.05, 0.2e-4, 0.7e-10, 0.8e-10, 1.2e-6, 1.2e-6, 1.5e3),
            ),
            (
                Layer::Metal3,
                mk(0.03, 0.15e-4, 0.6e-10, 0.6e-10, 1.8e-6, 1.8e-6, 2.0e3),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stack() -> WireStack {
        WireStack::for_feature_size(0.35e-6)
    }

    #[test]
    fn poly_much_more_resistive_than_metal() {
        let s = stack();
        assert!(s.params(Layer::Poly).r_sheet > 50.0 * s.params(Layer::Metal1).r_sheet);
    }

    #[test]
    fn resistance_scales_with_length() {
        let s = stack();
        let p = s.params(Layer::Metal1);
        let r1 = p.resistance(100e-6, 1e-6);
        let r2 = p.resistance(200e-6, 1e-6);
        assert!((r2.ohms() / r1.ohms() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn coupling_falls_with_spacing() {
        let s = stack();
        let p = s.params(Layer::Metal2);
        let near = p.coupling_capacitance(50e-6, p.spacing_min);
        let far = p.coupling_capacitance(50e-6, 4.0 * p.spacing_min);
        assert!((near.farads() / far.farads() - 4.0).abs() < 1e-9);
    }

    #[test]
    fn em_limit_scales_with_width() {
        let s = stack();
        let p = s.params(Layer::Metal3);
        assert!((p.em_current_limit(2e-6) / p.em_current_limit(1e-6) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn smaller_process_has_higher_sheet_resistance() {
        let big = WireStack::for_feature_size(0.75e-6);
        let small = WireStack::for_feature_size(0.35e-6);
        assert!(small.params(Layer::Metal1).r_sheet > big.params(Layer::Metal1).r_sheet);
    }

    #[test]
    fn metal_classification() {
        assert!(Layer::Metal2.is_metal());
        assert!(!Layer::Poly.is_metal());
        assert!(!Layer::Diffusion.is_metal());
    }

    #[test]
    #[should_panic(expected = "duplicate layer")]
    fn duplicate_layer_panics() {
        let p = *stack().params(Layer::Metal1);
        let _ = WireStack::new(vec![(Layer::Metal1, p), (Layer::Metal1, p)]);
    }

    #[test]
    #[should_panic(expected = "not present")]
    fn missing_layer_panics() {
        let s = WireStack::new(vec![]);
        let _ = s.params(Layer::Metal1);
    }
}
