//! Cold-vs-incremental soundness and the E14 ECO reuse contract.
//!
//! The incremental flow's one promise: for any design — clean or broken
//! — [`run_flow_incremental`] produces a signoff *byte-identical* to a
//! cold [`run_flow`], whether the cache is empty, warm, or reloaded
//! from JSON; and after a one-device ECO on a many-CCC design it
//! re-verifies a handful of units and replays the rest.
//!
//! The tests here pin that promise on the ALU slices with
//! `parallelism: 0`; the owned column of `tests/equality.rs` sweeps it
//! across every registry family and ECO stream at explicit worker
//! counts 1, 2 and 8, and also checks findings and STA.

use cbv_core::cache::VerifyCache;
use cbv_core::flow::{run_flow, run_flow_incremental, FlowConfig, FlowReport};
use cbv_core::gen::datapath::alu_slice;
use cbv_core::gen::{inject, FaultKind};
use cbv_core::netlist::{DeviceId, FlatNetlist};
use cbv_core::tech::Process;

fn signoff_json(r: &FlowReport) -> String {
    serde_json::to_string(&r.signoff).expect("signoff serializes")
}

#[test]
fn incremental_signoff_byte_identical_on_clean_design() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = alu_slice(8, &p).netlist;

    let cold = run_flow(netlist.clone(), &p, &cfg);
    let cold_json = signoff_json(&cold);

    let mut cache = VerifyCache::new();
    let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&first), cold_json, "cold cache run");
    let second = run_flow_incremental(netlist, &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&second), cold_json, "warm cache run");
    for stage in &second.stages {
        if let Some(stats) = stage.cache {
            assert_eq!(
                stats.misses, 0,
                "{}: clean rerun must be all hits",
                stage.stage
            );
        }
    }
}

#[test]
fn incremental_signoff_byte_identical_on_faulty_design() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    for kind in [
        FaultKind::BetaSkew,
        FaultKind::SubMinLength,
        FaultKind::WeakDriver,
    ] {
        let mut netlist = alu_slice(4, &p).netlist;
        inject(&mut netlist, kind).expect("fault injects");
        let cold = run_flow(netlist.clone(), &p, &cfg);
        assert!(!cold.signoff.clean(), "{kind:?} must break signoff");

        let mut cache = VerifyCache::new();
        let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
        let second = run_flow_incremental(netlist, &p, &cfg, &mut cache);
        assert_eq!(
            signoff_json(&first),
            signoff_json(&cold),
            "{kind:?} cold cache"
        );
        assert_eq!(
            signoff_json(&second),
            signoff_json(&cold),
            "{kind:?} warm cache"
        );
    }
}

#[test]
fn cache_json_reload_preserves_byte_identity() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = alu_slice(4, &p).netlist;
    let cold_json = signoff_json(&run_flow(netlist.clone(), &p, &cfg));

    let mut cache = VerifyCache::new();
    run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);

    // Round-trip the cache through its JSON form — findings, stress
    // ratios and arc delays must survive bit-exactly for the replayed
    // signoff to stay byte-identical.
    let mut reloaded = VerifyCache::from_json(&cache.to_json()).expect("cache parses back");
    let replay = run_flow_incremental(netlist, &p, &cfg, &mut reloaded);
    assert_eq!(signoff_json(&replay), cold_json);
    for stage in &replay.stages {
        if let Some(stats) = stage.cache {
            assert_eq!(
                stats.misses, 0,
                "{}: reloaded cache must fully hit",
                stage.stage
            );
        }
    }
}

/// The E14 contract, in counts: a one-device ECO on a ≥64-CCC design
/// re-verifies only the dirty neighbourhood while keeping the signoff
/// byte-identical. (What that saves in milliseconds is `cbv-perf`'s
/// `eco_walk` workload's to measure, not a pass/fail gate's.)
#[test]
fn eco_rerun_reverifies_a_handful_of_units_with_identical_signoff() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let base = alu_slice(16, &p).netlist;

    // Prime the cache with the unedited design.
    let mut cache = VerifyCache::new();
    let primed = run_flow_incremental(base.clone(), &p, &cfg, &mut cache);
    assert!(
        primed.recognition.cccs.len() >= 64,
        "E14 needs a many-CCC design, got {}",
        primed.recognition.cccs.len()
    );

    // The ECO: nudge one device's width by 5 %.
    let mut eco: FlatNetlist = base;
    eco.device_mut(DeviceId(0)).w *= 1.05;

    let cold = run_flow(eco.clone(), &p, &cfg);
    let warm = run_flow_incremental(eco, &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&warm), signoff_json(&cold));

    // Almost everything hits: at most the edited CCC, its one-step
    // fanout closure, and the always-dirty residue unit re-verify.
    let stats = |stage: &str| {
        warm.stages
            .iter()
            .find(|s| s.stage == stage)
            .and_then(|s| s.cache)
            .unwrap_or_else(|| panic!("{stage} stage reports cache stats"))
    };
    let estats = stats("everify");
    assert!(
        estats.misses <= 8,
        "one-device ECO should dirty a handful of units, re-verified {} of {}",
        estats.misses,
        estats.total()
    );
    assert!(estats.hits >= estats.total() - 8);

    // The timing row counts CCC arcs: a dirty CCC's are recomputed, a
    // clean one's replay from its unit entry.
    let tstats = stats("timing");
    assert_eq!(tstats.total(), warm.recognition.cccs.len());
    assert!(
        tstats.misses <= 8,
        "timing recomputed the arcs of {} of {} CCCs",
        tstats.misses,
        tstats.total()
    );
}

/// The timing remainder — constraints, graph structure, clock skews and
/// STA — is recomputed on every run over the CCC arcs the unit entries
/// replay, and keeps the signoff byte-identical: cold, warm, and after a
/// JSON round-trip of the cache. The timing row counts one lookup per
/// CCC.
#[test]
fn timing_remainder_cache_replays_byte_identical_and_reloads() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = alu_slice(8, &p).netlist;
    let cold_json = signoff_json(&run_flow(netlist.clone(), &p, &cfg));

    let mut cache = VerifyCache::new();
    let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&first), cold_json, "cold cache run");
    let one_per_ccc = |r: &FlowReport| {
        let tstats = timing_stats(r);
        assert_eq!(tstats.hits + tstats.misses, r.recognition.cccs.len());
    };
    one_per_ccc(&first);

    // Warm rerun: every CCC's arcs answer from cache.
    let warm = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&warm), cold_json, "warm cache run");
    assert_eq!(timing_stats(&warm).misses, 0, "warm arcs must be all hits");
    one_per_ccc(&warm);

    // JSON round-trip: the unit entries survive bit-exactly (floats as
    // raw bits), so a reloaded daemon replays the same bytes.
    let mut reloaded = VerifyCache::from_json(&cache.to_json()).expect("cache parses back");
    let replay = run_flow_incremental(netlist, &p, &cfg, &mut reloaded);
    assert_eq!(signoff_json(&replay), cold_json, "reloaded cache run");
    one_per_ccc(&replay);
}

/// The timing row's cache stats.
fn timing_stats(r: &FlowReport) -> cbv_core::cache::CacheStats {
    r.stages
        .iter()
        .find(|s| s.stage == "timing")
        .and_then(|s| s.cache)
        .expect("timing stage reports cache stats")
}

/// Same contract on a broken design: replayed arcs must not mask a
/// violation.
#[test]
fn timing_remainder_cache_is_sound_on_faulty_designs() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let mut netlist = alu_slice(4, &p).netlist;
    inject(&mut netlist, FaultKind::BetaSkew).expect("fault injects");
    let cold = run_flow(netlist.clone(), &p, &cfg);
    assert!(!cold.signoff.clean(), "beta skew must break signoff");

    let mut cache = VerifyCache::new();
    let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    let warm = run_flow_incremental(netlist, &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&first), signoff_json(&cold), "cold cache");
    assert_eq!(signoff_json(&warm), signoff_json(&cold), "warm cache");
    let tstats = timing_stats(&warm);
    assert_eq!(tstats.misses, 0, "a cached violation still replays");
    assert_eq!(tstats.hits + tstats.misses, warm.recognition.cccs.len());
}
