//! Seeded input generation: every op sequence is a pure function of
//! `--seed`, and the measured program only ever sees the generated
//! edits.

use cbv_core::mutate::{self, MutationOp, Site};
use cbv_core::netlist::{DeviceId, FlatNetlist};

/// SplitMix64 — a tiny seedable generator, enough for picking devices.
pub struct SplitMix64(u64);

impl SplitMix64 {
    pub fn new(seed: u64) -> SplitMix64 {
        SplitMix64(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is irrelevant here.
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// One single-device `width-scale` edit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Step {
    pub device: usize,
    pub factor: f64,
}

impl Step {
    /// The edit in the daemon's wire vocabulary.
    pub fn wire(&self) -> String {
        format!(
            "{{\"edit\":\"op\",\"op\":{{\"op\":\"width-scale\",\"factor\":{}}},\
             \"site\":{{\"site\":\"device\",\"device\":{}}}}}",
            self.factor, self.device
        )
    }

    /// Applies the edit in-process through `cbv-mutate`, the same
    /// operator the daemon resolves the wire form to.
    pub fn apply(&self, netlist: &mut FlatNetlist) {
        let op = MutationOp::WidthScale {
            factor: self.factor,
        };
        mutate::apply(netlist, &op, Site::Device(DeviceId(self.device as u32)))
            .expect("width-scale applies at every device site");
    }
}

/// A never-repeating seeded walk over one design's devices: each step
/// scales one device's width by a few percent. A device that has
/// drifted far from its drawn width is steered back, so an arbitrarily
/// long walk stays inside plausible geometry while every revision is
/// one the caches have not seen.
pub struct Walk {
    rng: SplitMix64,
    drift: Vec<f64>,
}

const FACTORS: [f64; 6] = [0.96, 0.97, 0.98, 1.02, 1.03, 1.04];

impl Walk {
    /// `stream` separates independent walks drawn from one `--seed`.
    pub fn new(seed: u64, stream: u64, devices: usize) -> Walk {
        assert!(devices > 0, "a walk needs at least one device");
        let mut mix = SplitMix64::new(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        Walk {
            rng: SplitMix64::new(mix.next_u64()),
            drift: vec![1.0; devices],
        }
    }
}

impl Iterator for Walk {
    type Item = Step;

    fn next(&mut self) -> Option<Step> {
        let device = self.rng.below(self.drift.len());
        let pick = self.rng.below(3);
        let factor = match self.drift[device] {
            d if d > 1.25 => FACTORS[pick],
            d if d < 0.80 => FACTORS[3 + pick],
            _ => FACTORS[self.rng.below(FACTORS.len())],
        };
        self.drift[device] *= factor;
        Some(Step { device, factor })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_identical_op_sequence() {
        let a: Vec<Step> = Walk::new(7, 1, 500).take(300).collect();
        let b: Vec<Step> = Walk::new(7, 1, 500).take(300).collect();
        assert_eq!(a, b);
        let other_seed: Vec<Step> = Walk::new(8, 1, 500).take(300).collect();
        let other_stream: Vec<Step> = Walk::new(7, 2, 500).take(300).collect();
        assert_ne!(a, other_seed);
        assert_ne!(a, other_stream);
        let wire: Vec<String> = a.iter().map(Step::wire).collect();
        assert_eq!(wire, b.iter().map(Step::wire).collect::<Vec<_>>());
    }

    #[test]
    fn long_walks_stay_inside_the_drift_band() {
        let mut walk = Walk::new(3, 0, 4);
        for _ in 0..20_000 {
            walk.next();
        }
        assert!(walk.drift.iter().all(|&d| (0.75..=1.35).contains(&d)));
    }

    #[test]
    fn wire_form_parses_to_the_in_process_edit() {
        let step = Step {
            device: 5,
            factor: 1.03,
        };
        let v = serde_json::from_str(&step.wire()).unwrap();
        let edits = cbv_serve::edits_from_json(&v).unwrap();
        assert_eq!(
            edits,
            vec![cbv_serve::Edit::Op {
                op: MutationOp::WidthScale { factor: 1.03 },
                site: Site::Device(DeviceId(5)),
            }]
        );
    }
}
