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

    // The timing row's misses are the dirty CCCs' arc recomputes plus
    // any remainder artifact that failed to replay; a delay-only ECO
    // replays all of them and refreshes exactly one STA lineage.
    let tstats = stats("timing");
    assert!(
        tstats.misses <= 8,
        "timing re-did {} of {} lookups",
        tstats.misses,
        tstats.total()
    );
    assert_eq!(warm.fresh_timing.len(), 1, "the refreshed STA lineage");
}

/// The timing-remainder tier (PR 8): constraints, graph structure,
/// clock skews and the converged STA state are content-addressed like
/// unit results, and replaying them keeps the signoff byte-identical —
/// cold, warm, and after a JSON round-trip of the cache.
#[test]
fn timing_remainder_cache_replays_byte_identical_and_reloads() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let netlist = alu_slice(8, &p).netlist;
    let cold_json = signoff_json(&run_flow(netlist.clone(), &p, &cfg));

    let mut cache = VerifyCache::new();
    let first = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&first), cold_json, "cold cache run");
    assert!(
        cache.timing_len() >= 3,
        "constraints, graph structure and STA lineage are cached, got {}",
        cache.timing_len()
    );
    assert_eq!(
        first.fresh_timing.len(),
        cache.timing_len(),
        "every remainder artifact the run computed is cached"
    );

    // Warm rerun: the whole timing stage — per-unit arcs *and* the
    // serial remainder — answers from cache and contributes nothing.
    let warm = run_flow_incremental(netlist.clone(), &p, &cfg, &mut cache);
    assert_eq!(signoff_json(&warm), cold_json, "warm cache run");
    let tstats = warm
        .stages
        .iter()
        .find(|s| s.stage == "timing")
        .and_then(|s| s.cache)
        .expect("timing stage reports cache stats");
    assert_eq!(tstats.misses, 0, "warm remainder must be all hits");
    assert!(warm.fresh_timing.is_empty(), "warm run inserts nothing");

    // JSON round-trip: the timing tier survives bit-exactly (floats as
    // raw bits), so a reloaded daemon replays the same bytes.
    let mut reloaded = VerifyCache::from_json(&cache.to_json()).expect("cache parses back");
    assert_eq!(reloaded.timing_len(), cache.timing_len());
    let replay = run_flow_incremental(netlist, &p, &cfg, &mut reloaded);
    assert_eq!(signoff_json(&replay), cold_json, "reloaded cache run");
    assert!(replay.fresh_timing.is_empty());
}

/// Same contract on a broken design: cached remainder replay must not
/// mask a violation.
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
    let tstats = warm
        .stages
        .iter()
        .find(|s| s.stage == "timing")
        .and_then(|s| s.cache)
        .expect("timing stage reports cache stats");
    assert_eq!(tstats.misses, 0, "a cached violation still replays");
}

/// A delay-only ECO keeps the STA structure key stable, so the lineage
/// entry *hits* and the propagation replays incrementally from the
/// changed units' endpoints — observable as the timing tier refreshing
/// in place (same key set, one re-inserted lineage) rather than growing
/// a new full-propagation entry.
#[test]
fn delay_only_eco_replays_sta_lineage_incrementally() {
    let p = Process::strongarm_035();
    let cfg = FlowConfig::default();
    let base = alu_slice(8, &p).netlist;

    let mut cache = VerifyCache::new();
    run_flow_incremental(base.clone(), &p, &cfg, &mut cache);
    let keys_before = cache.timing_len();

    let mut eco: FlatNetlist = base;
    eco.device_mut(DeviceId(0)).w *= 1.05;
    let cold = run_flow(eco.clone(), &p, &cfg);
    let warm = run_flow_incremental(eco, &p, &cfg, &mut cache);
    assert_eq!(
        signoff_json(&warm),
        signoff_json(&cold),
        "incremental STA replay must be byte-identical to full propagation"
    );
    assert_eq!(
        cache.timing_len(),
        keys_before,
        "a delay-only ECO refreshes lineage in place; a new key would mean \
         the structure digest moved and the replay fell back to a full pass"
    );
    assert_eq!(
        warm.fresh_timing.len(),
        1,
        "exactly the refreshed STA lineage is re-inserted"
    );
}
