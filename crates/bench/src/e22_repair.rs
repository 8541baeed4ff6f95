//! E22 — auto-repair closure rate over the E16 mutation corpus.
//!
//! E16 measures how reliably the §4.2/§4.3 filters *detect* single-site
//! damage; this experiment measures how reliably `cbv-repair` *undoes*
//! it. Every parametric operator of the E16 set (width, length, beta,
//! keeper geometry) is applied at a deterministic spread of its sites,
//! each detected mutant is handed to the repair search with the
//! unmutated design's signoff bytes as the restore target, and a trial
//! scores **byte-clean** only when the repaired signoff is
//! byte-identical to the baseline's. Accepted plans are additionally
//! replayed from their serialized form onto a pristine mutant clone and
//! re-verified, so the table's `replay` column is an end-to-end check
//! that the plan alone — not the search's in-memory state — carries the
//! fix.
//!
//! Structural operators (net bridges, polarity swaps, precharge drops)
//! are out of scope here: their repair is un-mutation rather than
//! re-sizing, and E16 already shows they are near-universally detected.

use cbv_core::cache::VerifyCache;
use cbv_core::flow::FlowConfig;
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::gen::datapath::alu_slice;
use cbv_core::mutate::{self, sites, FlowObservation, MutationOp};
use cbv_core::netlist::FlatNetlist;
use cbv_core::oracle::observe;
use cbv_core::tech::Process;
use cbv_repair::{repair_warm, replay_plan, restore_target, RepairConfig};

/// The E16 parametric operators at their canonical magnitudes.
fn parametric_ops() -> Vec<MutationOp> {
    vec![
        MutationOp::WidthScale { factor: 12.0 },
        MutationOp::WidthScale { factor: 1.0 / 10.0 },
        MutationOp::LengthScale { factor: 0.6 },
        MutationOp::BetaSkew { factor: 12.0 },
        MutationOp::KeeperResize {
            w_factor: 25.0,
            l_factor: 0.5,
        },
    ]
}

/// One mutant's journey through detect → repair → replay.
#[derive(Debug, Clone)]
pub struct RepairTrial {
    /// Index into [`parametric_ops`].
    pub op_index: usize,
    /// The operator.
    pub op: MutationOp,
    /// What was mutated, in design names.
    pub description: String,
    /// Did any detector fire differentially against the baseline?
    pub detected: bool,
    /// Did the search emit an accepted plan?
    pub repaired: bool,
    /// Is the repaired signoff byte-identical to the baseline's?
    pub byte_clean: bool,
    /// Does replaying the emitted plan on a pristine mutant clone
    /// reproduce the plan's own signoff bytes?
    pub replay_ok: bool,
    /// Did the final design violate a class neither the mutant nor the
    /// baseline had? (Must be false for every accepted plan.)
    pub regression: bool,
    /// Accepted plan steps.
    pub steps: usize,
    /// Oracle calls the search spent.
    pub oracle_calls: usize,
}

/// The complete E22 result for one design.
#[derive(Debug, Clone)]
pub struct RepairCampaign {
    /// Design name.
    pub design: String,
    /// Devices in the baseline.
    pub devices: usize,
    /// One record per mutant run.
    pub trials: Vec<RepairTrial>,
}

impl RepairCampaign {
    /// Mutants at least one detector caught.
    pub fn detected(&self) -> usize {
        self.trials.iter().filter(|t| t.detected).count()
    }

    /// Detected mutants repaired to a byte-identical baseline signoff.
    fn byte_clean(&self) -> usize {
        self.trials.iter().filter(|t| t.byte_clean).count()
    }

    /// Byte-clean repairs as a fraction of detected mutants.
    fn repair_rate(&self) -> f64 {
        let d = self.detected();
        if d == 0 {
            return 0.0;
        }
        self.byte_clean() as f64 / d as f64
    }

    /// Accepted plans that introduced a new finding class (the
    /// no-regression guarantee demands zero).
    fn regressions(&self) -> usize {
        self.trials.iter().filter(|t| t.regression).count()
    }

    /// Accepted plans whose serialized form failed to replay to the
    /// same bytes (must be zero).
    fn replay_failures(&self) -> usize {
        self.trials
            .iter()
            .filter(|t| t.repaired && !t.replay_ok)
            .count()
    }

    /// Median oracle calls over the repaired trials (0 if none).
    fn median_oracle_calls(&self) -> usize {
        let mut calls: Vec<usize> = self
            .trials
            .iter()
            .filter(|t| t.repaired)
            .map(|t| t.oracle_calls)
            .collect();
        if calls.is_empty() {
            return 0;
        }
        calls.sort_unstable();
        calls[calls.len() / 2]
    }
}

/// `take_spread` from the E16 campaign: a uniform-stride sample so a
/// capped run stays spread across the design.
fn spread<T: Copy>(v: &[T], cap: usize) -> Vec<T> {
    if cap == 0 || v.len() <= cap {
        return v.to_vec();
    }
    (0..cap).map(|i| v[i * v.len() / cap]).collect()
}

/// Runs the repair campaign over `baseline` with each parametric
/// operator capped at `max_sites_per_op` sites (0 = exhaustive). One
/// verification cache spans the whole run — the baseline primes it, and
/// every mutant verify and every repair probe is a warm ECO on top.
pub fn run(baseline: &FlatNetlist, max_sites_per_op: usize) -> RepairCampaign {
    let process = Process::strongarm_035();
    let flow = FlowConfig::default();
    let mut cache = VerifyCache::new();
    let (base_obs, base_signoff) = restore_target(baseline, &process, &flow, &mut cache);

    let recognition = cbv_core::recognize::recognize(baseline);

    let mut trials = Vec::new();
    for (op_index, op) in parametric_ops().iter().enumerate() {
        let found = sites(op, baseline, &recognition);
        for site in spread(&found, max_sites_per_op) {
            let mut nl = baseline.clone();
            let Some(m) = mutate::apply(&mut nl, op, site) else {
                continue;
            };
            let report =
                cbv_core::flow::run_flow_incremental(nl.clone(), &process, &flow, &mut cache);
            let obs = observe(&report);
            let detected = !obs.fired_against(&base_obs).is_empty();
            let mut trial = RepairTrial {
                op_index,
                op: *op,
                description: m.description,
                detected,
                repaired: false,
                byte_clean: false,
                replay_ok: true,
                regression: false,
                steps: 0,
                oracle_calls: 0,
            };
            if detected {
                let cfg = RepairConfig {
                    baseline: Some(base_obs.clone()),
                    target_signoff: Some(base_signoff.clone()),
                    ..RepairConfig::default()
                };
                let plan = repair_warm(&nl, &process, &flow, &cfg, &mut cache);
                trial.repaired = plan.repaired;
                trial.byte_clean = plan.repaired && plan.byte_identical == Some(true);
                trial.steps = plan.steps.len();
                trial.oracle_calls = plan.oracle_calls;
                if plan.repaired {
                    // End-to-end: the serialized plan alone must carry
                    // the fix back to the plan's own signoff bytes, and
                    // the repaired design must not violate any class
                    // the mutant and baseline were both free of.
                    let mut fixed = nl.clone();
                    trial.replay_ok = replay_plan(&mut fixed, &plan).is_ok() && {
                        let r = cbv_core::flow::run_flow_incremental(
                            fixed, &process, &flow, &mut cache,
                        );
                        let bytes = serde_json::to_string(&r.signoff)
                            .expect("signoff serialization is infallible");
                        trial.regression = new_class(&observe(&r), &obs, &base_obs);
                        bytes == plan.signoff_json
                    };
                }
            }
            trials.push(trial);
        }
    }

    RepairCampaign {
        design: baseline.name().to_owned(),
        devices: baseline.devices().len(),
        trials,
    }
}

/// True when `after` violates a check class (or timing) that neither
/// the broken mutant nor the baseline had.
fn new_class(after: &FlowObservation, broken: &FlowObservation, base: &FlowObservation) -> bool {
    after
        .check_violations
        .iter()
        .zip(broken.check_violations.iter().zip(&base.check_violations))
        .any(|(a, (m, b))| *a > 0 && *m == 0 && *b == 0)
        || (after.timing_violations > 0
            && broken.timing_violations == 0
            && base.timing_violations == 0)
}

/// The headline corpus: the E16 designs — a 16-bit ALU slice for the
/// static parametrics plus a 32-bit domino adder so the keeper operator
/// has sites. Site caps are 8 per operator (stride-spread across the
/// site list, so coverage spans the design): each repair is a full
/// incremental-verification search, so the corpus is sized to finish
/// in minutes on one core rather than the E16 detection caps.
pub fn headline() -> Vec<RepairCampaign> {
    let process = Process::strongarm_035();
    vec![
        run(&alu_slice(16, &process).netlist, 8),
        run(&manchester_domino_adder(32, &process).netlist, 8),
    ]
}

/// Row label carrying the magnitude, so the two width variants are
/// distinguishable in the table.
fn op_label(op: &MutationOp) -> String {
    match op {
        MutationOp::WidthScale { factor } => format!("width-scale x{factor}"),
        MutationOp::LengthScale { factor } => format!("length-scale x{factor}"),
        MutationOp::BetaSkew { factor } => format!("beta-skew x{factor}"),
        MutationOp::KeeperResize { w_factor, .. } => format!("keeper-resize x{w_factor}"),
        other => other.name().to_string(),
    }
}

fn render(c: &RepairCampaign) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "repair campaign: {} ({} devices)\n",
        c.design, c.devices
    ));
    out.push_str(&format!(
        "{:<22} {:>7} {:>9} {:>9} {:>7} {:>7}\n",
        "operator", "mutants", "detected", "repaired", "clean", "replay"
    ));
    for (i, op) in parametric_ops().iter().enumerate() {
        let rows: Vec<&RepairTrial> = c.trials.iter().filter(|t| t.op_index == i).collect();
        if rows.is_empty() {
            continue;
        }
        let det = rows.iter().filter(|t| t.detected).count();
        let rep = rows.iter().filter(|t| t.repaired).count();
        let clean = rows.iter().filter(|t| t.byte_clean).count();
        let replay = rows.iter().filter(|t| t.repaired && t.replay_ok).count();
        out.push_str(&format!(
            "{:<22} {:>7} {:>9} {:>9} {:>7} {:>7}\n",
            op_label(op),
            rows.len(),
            det,
            rep,
            clean,
            replay
        ));
    }
    out.push_str(&format!(
        "byte-clean repair rate: {}/{} detected = {:.1}%  \
         (median {} oracle calls, {} regressions, {} replay failures)\n",
        c.byte_clean(),
        c.detected(),
        100.0 * c.repair_rate(),
        c.median_oracle_calls(),
        c.regressions(),
        c.replay_failures(),
    ));
    out
}

/// Prints the E22 tables (the EXPERIMENTS.md protocol).
pub fn print() {
    crate::banner(
        "E22",
        "auto-repair closure rate over the E16 mutation corpus",
    );
    for campaign in headline() {
        println!("{}", render(&campaign));
    }
    println!("(each detected parametric mutant is handed to cbv-repair with");
    println!(" the unmutated signoff as the byte target; `clean` counts only");
    println!(" byte-identical restores, and every accepted plan is replayed");
    println!(" from its serialized form and re-verified for class regressions.)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_corpus_repairs_most_detected_mutants() {
        // Width 4 keeps this cheap; the headline uses width 16 plus a
        // 32-bit domino adder for keeper sites.
        let process = Process::strongarm_035();
        let c = run(&alu_slice(4, &process).netlist, 3);
        assert!(c.trials.len() >= 6, "corpus too small: {}", c.trials.len());
        assert!(c.detected() >= 4, "detection collapsed: {}", c.detected());
        assert!(
            c.repair_rate() >= 0.6,
            "byte-clean repair rate {:.2} below the E22 floor on {} detected",
            c.repair_rate(),
            c.detected()
        );
        assert_eq!(c.regressions(), 0, "an accepted plan regressed a class");
        assert_eq!(c.replay_failures(), 0, "a plan failed to replay");
        assert!(c.median_oracle_calls() >= 1);
        assert!(
            c.median_oracle_calls() <= 20,
            "median oracle cost {} blew the E22 gate (a repair should not \
             need more than a few probes once aimed)",
            c.median_oracle_calls()
        );
        let text = render(&c);
        assert!(text.contains("byte-clean repair rate"));
    }

    #[test]
    fn keeper_mutants_repair_on_a_domino_design() {
        let process = Process::strongarm_035();
        let c = run(&manchester_domino_adder(4, &process).netlist, 2);
        let keeper: Vec<_> = c
            .trials
            .iter()
            .filter(|t| matches!(t.op, MutationOp::KeeperResize { .. }))
            .collect();
        assert!(!keeper.is_empty(), "domino design must offer keeper sites");
        assert!(
            keeper.iter().any(|t| t.byte_clean),
            "no keeper mutant restored byte-clean"
        );
    }
}
