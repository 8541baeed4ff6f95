//! E16 — exhaustive single-site mutation campaign against the §4.2
//! probability filter.
//!
//! §2.3 and §4.2 claim the electrical battery acts as a *probability
//! filter*: it discharges what is provably fine and flags what might be
//! broken. The E12 detection matrix sampled that claim with seven
//! hand-picked injections; this experiment measures it. Every mutation
//! operator of `cbv-mutate` is applied at (a deterministic spread of)
//! its enumerable sites, each mutant is verified as a one-site ECO via
//! `run_flow_incremental` on a campaign-long cache, and a detector
//! counts only when its violation count strictly *increases* over the
//! unmutated baseline — the designs are not spotless, so presence alone
//! proves nothing.
//!
//! Outputs: the operator × check detection matrix, the escape list,
//! per-operator sensitivity curves (smallest magnitude each check
//! fires at), and the ECO economics (mean per-mutant verify compute vs
//! the cold baseline — the ratio that makes a 500-mutant campaign
//! affordable at all).

use cbv_core::cache::VerifyCache;
use cbv_core::flow::{run_flow_incremental, FlowConfig};
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::gen::datapath::alu_slice;
use cbv_core::mutate::report::{render_full, render_matrix};
use cbv_core::mutate::{
    default_ops, default_sensitivity, run_campaign, CampaignConfig, CampaignReport,
};
use cbv_core::netlist::FlatNetlist;
use cbv_core::oracle::observe;
use cbv_core::tech::Process;

/// Runs the campaign over `netlist` with every default operator capped
/// at `max_sites_per_op` sites (0 = exhaustive), optionally with the
/// default sensitivity ladders.
pub fn run(netlist: &FlatNetlist, max_sites_per_op: usize, sweep: bool) -> CampaignReport {
    let (p, cfg) = (Process::strongarm_035(), FlowConfig::default());
    let mut cache = VerifyCache::new();
    let mut oracle =
        move |n: &FlatNetlist| observe(&run_flow_incremental(n.clone(), &p, &cfg, &mut cache));
    let config = CampaignConfig {
        ops: default_ops(),
        max_sites_per_op,
        sensitivity: if sweep {
            default_sensitivity()
        } else {
            Vec::new()
        },
    };
    run_campaign(netlist, &mut oracle, &config)
}

/// The headline campaign: a 16-bit ALU slice, sites capped so the run
/// stays in the hundreds of mutants.
pub fn headline() -> CampaignReport {
    let process = Process::strongarm_035();
    run(&alu_slice(16, &process).netlist, 80, true)
}

/// Prints the E16 tables (the EXPERIMENTS.md protocol).
pub fn print() {
    crate::banner(
        "E16",
        "single-site mutation campaign vs the §4.2 probability filter",
    );

    let report = headline();
    println!("{}", render_full(&report));
    let capped: Vec<String> = report
        .rows
        .iter()
        .filter(|r| r.sites_found > r.mutants_run)
        .map(|r| {
            format!(
                "{} ({} of {} sites)",
                r.op.name(),
                r.mutants_run,
                r.sites_found
            )
        })
        .collect();
    if !capped.is_empty() {
        println!("site caps applied: {}", capped.join(", "));
    }

    // The dynamic-logic operators have no sites on a static datapath;
    // cover them on the domino adder.
    println!();
    let process = Process::strongarm_035();
    let domino = run(&manchester_domino_adder(32, &process).netlist, 12, false);
    println!("{}", render_matrix(&domino));

    println!("(each mutant is one ECO on the campaign-long verification");
    println!(" cache; `fewer than cold` divides the units the cold baseline");
    println!(" run verified by the units a mutant re-verified. detection is");
    println!(" differential: a check fires only when its violation count");
    println!(" strictly exceeds the unmutated design's.)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_campaign_detects_and_amortizes() {
        // Width 4 keeps this cheap; the headline uses width 16.
        let process = Process::strongarm_035();
        let report = run(&alu_slice(4, &process).netlist, 2, false);
        assert_eq!(report.rows.len(), default_ops().len());
        assert!(report.total_mutants() >= 10);
        assert!(
            report.mutants.iter().any(|m| m.detected()),
            "some mutant must be detected"
        );
        assert!(report.cache_hit_fraction() > 0.5);
        let text = render_full(&report);
        assert!(text.contains("mutation campaign: alu4"));
    }
}
