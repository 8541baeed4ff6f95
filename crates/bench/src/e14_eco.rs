//! E14 — incremental verification across an ECO loop.
//!
//! §2.3 frames the CAD tools as a filter the designer iterates against:
//! run the battery, fix what it flags, run again. Between iterations of
//! that loop almost nothing changes — one resized device, one rewired
//! gate — yet a cold flow re-verifies all of it. This experiment
//! measures what the content-fingerprinted cache (`cbv-cache`) buys in
//! that loop: an N-step ECO walk over a 16-bit ALU slice where each
//! step perturbs one device and re-runs `run_flow_incremental`,
//! comparing everify+timing compute against a cold `run_flow` of the
//! same edited design.
//!
//! Soundness rides along: at every step the incremental signoff JSON is
//! compared byte-for-byte against the cold run's (the same contract
//! `tests/incremental.rs` enforces, here across a whole edit sequence).

use cbv_core::cache::VerifyCache;
use cbv_core::flow::{run_flow, run_flow_incremental, FlowConfig, FlowReport};
use cbv_core::gen::datapath::alu_slice;
use cbv_core::netlist::DeviceId;
use cbv_core::tech::Process;

/// One step of the ECO walk.
pub struct EcoPoint {
    /// Which device was perturbed this step.
    pub device: usize,
    /// everify+timing compute of the cold flow, seconds.
    pub cold_verify_cpu: f64,
    /// everify+timing compute of the incremental flow, seconds.
    pub warm_verify_cpu: f64,
    /// Units re-verified (everify stage misses).
    pub reverified: usize,
    /// Units replayed from cache (everify stage hits).
    pub replayed: usize,
    /// Incremental signoff JSON was byte-identical to the cold run's.
    pub byte_identical: bool,
}

impl EcoPoint {
    /// Compute saved on the verification stages, as a ratio.
    pub fn speedup(&self) -> f64 {
        self.cold_verify_cpu / self.warm_verify_cpu
    }
}

fn verify_cpu(report: &FlowReport) -> f64 {
    report
        .stages
        .iter()
        .filter(|s| s.stage == "everify" || s.stage == "timing")
        .map(|s| s.cpu_time.seconds())
        .sum()
}

fn signoff_json(report: &FlowReport) -> String {
    serde_json::to_string(&report.signoff).expect("signoff serializes")
}

/// Runs a `steps`-edit ECO walk over a `width`-bit ALU slice.
///
/// The cache is primed once on the unedited design (the designer's
/// first full run), then each step widens a different device by 5 % and
/// re-verifies both ways.
fn run_walk(width: u32, steps: usize) -> Vec<EcoPoint> {
    let process = Process::strongarm_035();
    let config = FlowConfig::default();
    let base = alu_slice(width, &process).netlist;

    let mut cache = VerifyCache::new();
    run_flow_incremental(base.clone(), &process, &config, &mut cache);

    let n_devices = base.devices().len();
    let mut netlist = base;
    let mut points = Vec::with_capacity(steps);
    for step in 0..steps {
        // Spread the edits across the slice so each step dirties a
        // different CCC neighbourhood.
        let device = (step * 97 + 13) % n_devices;
        netlist.device_mut(DeviceId(device as u32)).w *= 1.05;

        let cold = run_flow(netlist.clone(), &process, &config);
        let warm = run_flow_incremental(netlist.clone(), &process, &config, &mut cache);
        let stats = warm
            .stages
            .iter()
            .find(|s| s.stage == "everify")
            .and_then(|s| s.cache)
            .expect("incremental everify reports cache stats");
        points.push(EcoPoint {
            device,
            cold_verify_cpu: verify_cpu(&cold),
            warm_verify_cpu: verify_cpu(&warm),
            reverified: stats.misses,
            replayed: stats.hits,
            byte_identical: signoff_json(&warm) == signoff_json(&cold),
        });
    }
    points
}

/// Prints the E14 table (the EXPERIMENTS.md protocol).
pub fn print() {
    crate::banner(
        "E14",
        "incremental verification across an ECO loop (16-bit ALU slice)",
    );
    let points = run_walk(16, 8);
    println!(
        "{:>6}{:>8}{:>12}{:>12}{:>12}{:>10}{:>11}",
        "step", "device", "cold cpu", "warm cpu", "reverified", "speedup", "identical"
    );
    for (i, pt) in points.iter().enumerate() {
        println!(
            "{:>6}{:>8}{:>10.2}ms{:>10.2}ms{:>6} of {:<4}{:>9.1}x{:>11}",
            i,
            pt.device,
            pt.cold_verify_cpu * 1e3,
            pt.warm_verify_cpu * 1e3,
            pt.reverified,
            pt.reverified + pt.replayed,
            pt.speedup(),
            if pt.byte_identical { "yes" } else { "NO" },
        );
    }
    let gmean = (points.iter().map(|p| p.speedup().ln()).sum::<f64>() / points.len() as f64).exp();
    println!("\ngeomean verify-stage speedup: {gmean:.1}x");
    println!("(cold cpu = everify+timing compute of run_flow on the edited");
    println!(" design; warm cpu = same stages under run_flow_incremental with");
    println!(" the cache primed by the previous step. \"identical\" compares");
    println!(" the two signoff JSONs byte-for-byte.)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn walk_stays_sound_and_mostly_cached() {
        // Small width keeps this cheap; headline numbers use width 16.
        let pts = run_walk(4, 2);
        assert_eq!(pts.len(), 2);
        for pt in &pts {
            assert!(pt.byte_identical, "incremental signoff must match cold");
            assert!(pt.reverified >= 1, "an edit dirties at least one unit");
            assert!(
                pt.replayed > pt.reverified,
                "most units replay from cache ({} hit vs {} miss)",
                pt.replayed,
                pt.reverified
            );
            assert!(pt.cold_verify_cpu > 0.0 && pt.warm_verify_cpu > 0.0);
        }
    }
}
