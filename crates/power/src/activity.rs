//! Switching-activity models and measurement.

use std::collections::HashMap;

use cbv_netlist::NetId;
use cbv_rtl::{interp::Interp, RtlDesign};

/// Per-net toggle activity (fraction of cycles a net toggles).
#[derive(Debug, Clone, PartialEq)]
pub struct ActivityModel {
    /// Activity used for nets without an override.
    pub default: f64,
    /// Per-net overrides.
    pub per_net: HashMap<NetId, f64>,
    /// Fraction of cycles the clock actually toggles (conditional
    /// clocking: 1.0 = free-running, lower = gated).
    pub clock_gating_factor: f64,
}

impl ActivityModel {
    /// Uniform activity for every data net, free-running clocks.
    pub fn uniform(default: f64) -> ActivityModel {
        ActivityModel {
            default,
            per_net: HashMap::new(),
            clock_gating_factor: 1.0,
        }
    }

    /// The activity of a net.
    pub fn of(&self, net: NetId) -> f64 {
        self.per_net.get(&net).copied().unwrap_or(self.default)
    }
}

/// Measures output/register toggle rates of an RTL design over `cycles`
/// cycles of pseudo-random stimulus on every input, stepping every clock
/// per cycle. Returns `(name, toggles-per-cycle)` for each output and
/// register — the data that calibrates [`ActivityModel::default`].
pub fn measure_activity(design: &RtlDesign, cycles: usize, seed: u64) -> Vec<(String, f64)> {
    let mut sim = Interp::new(design);
    let mut rng = seed.max(1);
    let mut next_rand = || {
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        rng
    };
    let names: Vec<String> = design
        .outputs
        .iter()
        .map(|(n, _)| n.clone())
        .chain(design.regs.iter().map(|r| r.name.clone()))
        .collect();
    let read = |sim: &mut Interp<'_>| -> Vec<u64> {
        let mut v = Vec::with_capacity(design.outputs.len() + design.regs.len());
        for (n, _) in &design.outputs {
            v.push(sim.output(n));
        }
        for r in &design.regs {
            v.push(sim.reg(&r.name));
        }
        v
    };
    let mut prev = read(&mut sim);
    let mut toggles = vec![0u64; names.len()];
    for _ in 0..cycles {
        for (name, width) in design.inputs.clone() {
            let mask = if width >= 64 {
                u64::MAX
            } else {
                (1 << width) - 1
            };
            sim.set_input(&name, next_rand() & mask);
        }
        for ck in design.clocks.clone() {
            sim.step(&ck);
        }
        let cur = read(&mut sim);
        for (t, (a, b)) in toggles.iter_mut().zip(prev.iter().zip(&cur)) {
            if a != b {
                *t += 1;
            }
        }
        prev = cur;
    }
    names
        .into_iter()
        .zip(toggles)
        .map(|(n, t)| (n, t as f64 / cycles.max(1) as f64))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_rtl::compile;

    #[test]
    fn uniform_and_overrides() {
        let mut m = ActivityModel::uniform(0.15);
        m.per_net.insert(NetId(3), 0.9);
        assert_eq!(m.of(NetId(0)), 0.15);
        assert_eq!(m.of(NetId(3)), 0.9);
    }

    #[test]
    fn toggle_counter_measures_full_activity() {
        // A register that inverts every cycle toggles at rate 1.0.
        let d = compile(
            "module t(clock ck, out q) { reg r; at posedge(ck) { r <= ~r; } assign q = r; }",
            "t",
        )
        .unwrap();
        let acts = measure_activity(&d, 64, 7);
        let q = acts.iter().find(|(n, _)| n == "q").unwrap();
        assert!((q.1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn random_data_toggles_about_half() {
        let d = compile(
            "module t(clock ck, in d[8], out q[8]) { reg r[8]; at posedge(ck) { r <= d; } assign q = r; }",
            "t",
        )
        .unwrap();
        let acts = measure_activity(&d, 512, 99);
        let q = acts.iter().find(|(n, _)| n == "q").unwrap();
        // An 8-bit random word changes nearly every cycle.
        assert!(q.1 > 0.9, "activity {}", q.1);
    }

    #[test]
    fn constant_design_never_toggles() {
        let d = compile(
            "module t(clock ck, out q[4]) { reg r[4] = 5; at posedge(ck) { r <= r; } assign q = r; }",
            "t",
        )
        .unwrap();
        let acts = measure_activity(&d, 32, 3);
        assert!(acts.iter().all(|(_, a)| *a == 0.0));
    }
}
