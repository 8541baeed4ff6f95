//! Fault-injection coverage: every §4.2 hazard class planted into a
//! clean design must be caught by the corresponding verifier — the test
//! form of experiment E12's detection matrix.

use cbv_core::everify::{run_all, CheckKind, EverifyConfig};
use cbv_core::extract::extract;
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::gen::latches::keeper_domino;
use cbv_core::gen::{inject, FaultKind};
use cbv_core::layout::synthesize;
use cbv_core::netlist::FlatNetlist;
use cbv_core::recognize::recognize;
use cbv_core::tech::Process;

fn everify_violations(netlist: FlatNetlist, p: &Process) -> Vec<(CheckKind, String)> {
    let rec = recognize(&netlist);
    let layout = synthesize(&netlist, p);
    let ex = extract(&layout, &netlist, p);
    let cfg = EverifyConfig::for_process(p);
    let report = run_all(&netlist, &rec, &ex, Some(&layout), p, &cfg);
    report
        .violations()
        .map(|f| (f.check, f.message.clone()))
        .collect()
}

#[test]
fn clean_baselines_are_clean() {
    let p = Process::strongarm_035();
    assert!(everify_violations(keeper_domino(&p, 1e-6).netlist, &p).is_empty());
    assert!(everify_violations(manchester_domino_adder(2, &p).netlist, &p).is_empty());
}

/// Injects each fault into the keeper-domino block and asserts the right
/// check fires.
#[test]
fn detection_matrix() {
    let p = Process::strongarm_035();
    let cases: Vec<(FaultKind, Vec<CheckKind>)> = vec![
        (
            FaultKind::SubMinLength,
            vec![CheckKind::BetaRatio, CheckKind::HotCarrier],
        ),
        (FaultKind::MonsterKeeper, vec![CheckKind::Writability]),
    ];
    for (fault, expected) in cases {
        let mut g = keeper_domino(&p, 1e-6);
        let desc = inject(&mut g.netlist, fault).expect("injects");
        let violations = everify_violations(g.netlist, &p);
        assert!(
            violations.iter().any(|(k, _)| expected.contains(k)),
            "{fault:?} ({desc}) must trip one of {expected:?}; got {violations:?}"
        );
    }
    // Charge sharing needs a stack deep enough for the widened internal
    // nodes to dwarf the output node — the Manchester generate stacks.
    let mut g = manchester_domino_adder(2, &p);
    let desc = inject(&mut g.netlist, FaultKind::ChargeShare).expect("injects");
    let violations = everify_violations(g.netlist, &p);
    assert!(
        violations.iter().any(|(k, _)| *k == CheckKind::ChargeShare),
        "ChargeShare ({desc}) must trip; got {violations:?}"
    );
}

#[test]
fn beta_skew_detected_on_static_logic() {
    let p = Process::strongarm_035();
    let mut g = cbv_core::gen::adders::static_ripple_adder(2, &p);
    let desc = inject(&mut g.netlist, FaultKind::BetaSkew).expect("injects");
    let violations = everify_violations(g.netlist, &p);
    assert!(
        violations.iter().any(|(k, _)| *k == CheckKind::BetaRatio),
        "{desc}: got {violations:?}"
    );
}

#[test]
fn weak_driver_detected_by_edge_rate() {
    let p = Process::strongarm_035();
    let mut g = cbv_core::gen::clocktree::clock_trunk(3, 3.0, 256, &p);
    let desc = inject(&mut g.netlist, FaultKind::WeakDriver).expect("injects");
    let violations = everify_violations(g.netlist, &p);
    assert!(
        violations.iter().any(|(k, _)| *k == CheckKind::EdgeRate),
        "{desc}: got {violations:?}"
    );
}

#[test]
fn wrong_polarity_caught_functionally_by_switch_sim() {
    use cbv_core::sim::{Logic, SwitchSim};
    let p = Process::strongarm_035();
    let clean = cbv_core::gen::adders::static_ripple_adder(2, &p);
    let mut buggy = cbv_core::gen::adders::static_ripple_adder(2, &p);
    inject(&mut buggy.netlist, FaultKind::WrongPolarity).expect("injects");

    // Exhaustive compare: the functional bug must show somewhere.
    let mut diverged = false;
    let mut sim_ok = SwitchSim::new(&clean.netlist);
    let mut sim_bug = SwitchSim::new(&buggy.netlist);
    'outer: for a in 0u64..4 {
        for b in 0u64..4 {
            for cin in 0u64..2 {
                for (sim, g) in [(&mut sim_ok, &clean), (&mut sim_bug, &buggy)] {
                    for i in 0..2 {
                        sim.set(g.inputs[i], Logic::from_bool((a >> i) & 1 == 1));
                        sim.set(g.inputs[2 + i], Logic::from_bool((b >> i) & 1 == 1));
                    }
                    sim.set(g.inputs[4], Logic::from_bool(cin == 1));
                    let _ = sim.settle();
                }
                let ok: Vec<Logic> = clean.outputs.iter().map(|&n| sim_ok.value(n)).collect();
                let bug: Vec<Logic> = buggy.outputs.iter().map(|&n| sim_bug.value(n)).collect();
                if ok != bug {
                    diverged = true;
                    break 'outer;
                }
            }
        }
    }
    assert!(diverged, "polarity swap must change observed behavior");
}

#[test]
fn leaky_dynamic_detected_by_leakage_check() {
    let p = Process::strongarm_035();
    let mut g = keeper_domino(&p, 1e-6);
    // Make the hold requirement realistic for a gated clock, then widen
    // the eval stack into a sieve.
    inject(&mut g.netlist, FaultKind::LeakyDynamic).expect("injects");
    let netlist = g.netlist;
    let rec = recognize(&netlist);
    let layout = synthesize(&netlist, &p);
    let ex = extract(&layout, &netlist, &p);
    let mut cfg = EverifyConfig::for_process(&p);
    cfg.dynamic_hold = cbv_core::tech::Seconds::new(3e-6); // 3 µs gated-clock hold
    let report = run_all(&netlist, &rec, &ex, Some(&layout), &p, &cfg);
    assert!(
        report.violations().any(|f| f.check == CheckKind::Leakage),
        "{:?}",
        report.findings()
    );
}
