//! E16 regression: the mutation campaign's detection matrix is a
//! deterministic artifact — byte-identical across thread counts and
//! across the cold/incremental oracles — and the campaign actually
//! catches what the §4.2 battery promises to catch.

use cbv_core::cache::VerifyCache;
use cbv_core::flow::{run_flow, run_flow_incremental, FlowConfig};
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::gen::datapath::alu_slice;
use cbv_core::mutate::report::render_matrix;
use cbv_core::mutate::{default_ops, run_campaign, CampaignConfig, CampaignReport};
use cbv_core::netlist::FlatNetlist;
use cbv_core::oracle::observe;
use cbv_core::tech::Process;

fn config(cap: usize) -> CampaignConfig {
    CampaignConfig {
        ops: default_ops(),
        max_sites_per_op: cap,
        sensitivity: Vec::new(),
    }
}

fn flow_config(parallelism: usize) -> FlowConfig {
    // Explicit thread count: the env-var path (`CBV_THREADS`) is covered
    // by check.sh in separate processes; inside one test binary the
    // field avoids races between parallel tests.
    FlowConfig {
        parallelism,
        ..FlowConfig::default()
    }
}

fn incremental_matrix(
    netlist: &FlatNetlist,
    parallelism: usize,
    cap: usize,
) -> (CampaignReport, String) {
    let p = Process::strongarm_035();
    let cfg = flow_config(parallelism);
    let mut cache = VerifyCache::new();
    let mut oracle =
        |n: &FlatNetlist| observe(&run_flow_incremental(n.clone(), &p, &cfg, &mut cache));
    let report = run_campaign(netlist, &mut oracle, &config(cap));
    let text = render_matrix(&report);
    (report, text)
}

/// The campaign's detection matrix through a cold `run_flow` per mutant.
fn cold_matrix(netlist: &FlatNetlist, parallelism: usize, cap: usize) -> String {
    let p = Process::strongarm_035();
    let cfg = flow_config(parallelism);
    let mut oracle = |n: &FlatNetlist| observe(&run_flow(n.clone(), &p, &cfg));
    render_matrix(&run_campaign(netlist, &mut oracle, &config(cap)))
}

#[test]
fn alu16_matrix_is_thread_count_and_oracle_invariant() {
    let p = Process::strongarm_035();
    let design = alu_slice(16, &p).netlist;

    let (report, t1) = incremental_matrix(&design, 1, 2);
    let (_, t2) = incremental_matrix(&design, 2, 2);
    let (_, t8) = incremental_matrix(&design, 8, 2);
    assert_eq!(t1, t2, "1 vs 2 threads");
    assert_eq!(t1, t8, "1 vs 8 threads");

    // Every operator contributes a row. The static ALU slice has no
    // domino keepers or precharges (its latches are jam style), so only
    // the dynamic-logic operators may report zero sites here — the
    // Manchester domino adder test covers those.
    assert_eq!(report.rows.len(), default_ops().len());
    let dynamic_only = ["keeper-resize", "keeper-delete", "precharge-drop"];
    for row in &report.rows {
        if dynamic_only.contains(&row.op.name()) {
            continue;
        }
        assert!(
            row.sites_found > 0,
            "{} found no site on alu_slice(16)",
            row.op
        );
    }
    // The legacy E12 hazard classes (all expressible as default ops)
    // are detected by the battery on this design.
    for (i, name) in [
        (0usize, "width-scale x12 (leaky/beta class)"),
        (2, "length-scale x0.6 (sub-min length)"),
        (3, "beta-skew x12"),
    ] {
        let row = &report.rows[i];
        assert!(row.detected > 0, "{name} never detected: {}", row.op);
    }
}

#[test]
fn alu16_matrix_matches_cold_oracle() {
    let p = Process::strongarm_035();
    let design = alu_slice(16, &p).netlist;
    let (_, inc) = incremental_matrix(&design, 2, 1);
    assert_eq!(
        inc,
        cold_matrix(&design, 2, 1),
        "caching must never change a verdict"
    );
}

#[test]
fn manchester32_matrix_is_thread_count_and_oracle_invariant() {
    let p = Process::strongarm_035();
    let design = manchester_domino_adder(32, &p).netlist;

    let (report, t1) = incremental_matrix(&design, 1, 1);
    let (_, t8) = incremental_matrix(&design, 8, 1);
    assert_eq!(t1, t8, "1 vs 8 threads");

    assert_eq!(t1, cold_matrix(&design, 8, 1), "cold vs incremental");

    // A domino design exercises the dynamic-logic operators: both must
    // have sites and zero escapes.
    for row in &report.rows {
        let op = row.op.name();
        if op == "precharge-drop" || op == "keeper-delete" {
            assert!(row.sites_found > 0, "{op} has sites on a domino adder");
            assert!(
                row.escapes.is_empty(),
                "{op} must be fully detected, escapes: {:?}",
                row.escapes
            );
        }
    }
}

#[test]
fn campaign_runs_mutants_as_ecos_on_the_primed_cache() {
    let p = Process::strongarm_035();
    let design = alu_slice(16, &p).netlist;
    let (report, _) = incremental_matrix(&design, 2, 1);
    assert_eq!(report.baseline.cache_hits, 0, "baseline run is cold");
    // Single-site geometry mutants re-key the owning CCC, the CCC
    // driving the resized gate and the residue; everything else replays
    // from cache.
    let geometry: Vec<_> = report
        .mutants
        .iter()
        .filter(|m| m.op.magnitude().is_some())
        .collect();
    assert!(!geometry.is_empty());
    for m in &geometry {
        assert!(
            m.cache_hits > m.cache_misses,
            "ECO verification must reuse most units: {} ({} hits / {} misses)",
            m.description,
            m.cache_hits,
            m.cache_misses
        );
    }
    // JSON rendering stays parseable at campaign scale.
    let json = serde_json::to_string(&report).unwrap();
    let v = serde_json::from_str(&json).expect("valid JSON");
    assert_eq!(
        v.get("total_mutants").and_then(|x| x.as_u64()),
        Some(report.total_mutants() as u64)
    );
}
