//! Fault-injection coverage: every §4.2 hazard class planted into a
//! clean design must be caught by the corresponding verifier — the test
//! form of experiment E12's detection matrix. Each fault is one
//! `cbv-mutate` operator at fixed devices, checked by name so a
//! generator change fails loudly instead of moving the fault.

use cbv_core::everify::{run_all, CheckKind, EverifyConfig};
use cbv_core::extract::extract;
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::gen::latches::keeper_domino;
use cbv_core::layout::synthesize;
use cbv_core::mutate::{Edit, MutationOp};
use cbv_core::netlist::{DeviceId, FlatNetlist};
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

/// Plants `op` at each `(id, name)` device.
fn plant(netlist: &mut FlatNetlist, op: MutationOp, victims: &[(u32, &str)]) {
    for &(id, name) in victims {
        Edit::plant(netlist, op, id, name).expect("fault plants");
    }
}

#[test]
fn clean_baselines_are_clean() {
    let p = Process::strongarm_035();
    assert!(everify_violations(keeper_domino(&p, 1e-6).netlist, &p).is_empty());
    assert!(everify_violations(manchester_domino_adder(2, &p).netlist, &p).is_empty());
}

/// Plants each fault into the keeper-domino block and asserts the right
/// check fires.
#[test]
fn detection_matrix() {
    let p = Process::strongarm_035();
    let cases = [
        (
            MutationOp::LengthScale { factor: 0.6 },
            (1, "eval"),
            vec![CheckKind::BetaRatio, CheckKind::HotCarrier],
        ),
        (
            MutationOp::KeeperResize {
                w_factor: 25.0,
                l_factor: 0.5,
            },
            (5, "keep"),
            vec![CheckKind::Writability],
        ),
    ];
    for (op, victim, expected) in cases {
        let mut g = keeper_domino(&p, 1e-6);
        plant(&mut g.netlist, op, &[victim]);
        let violations = everify_violations(g.netlist, &p);
        assert!(
            violations.iter().any(|(k, _)| expected.contains(k)),
            "{op} must trip one of {expected:?}; got {violations:?}"
        );
    }
    // Charge sharing needs a stack deep enough for the widened internal
    // nodes to dwarf the output node — the Manchester generate stacks:
    // every NMOS whose channel touches no rail.
    let mut g = manchester_domino_adder(2, &p);
    let stack = [
        (8, "xp0_pd1a"),
        (10, "xp0_pd2a"),
        (20, "xp1_pd1a"),
        (22, "xp1_pd2a"),
        (25, "cin_g"),
        (28, "gen_a0"),
        (29, "gen_b0"),
        (31, "prop0"),
        (33, "gen_a1"),
        (34, "gen_b1"),
        (36, "prop1"),
        (48, "xs0_pd1a"),
        (50, "xs0_pd2a"),
        (63, "xs1_pd1a"),
        (65, "xs1_pd2a"),
    ];
    plant(
        &mut g.netlist,
        MutationOp::WidthScale { factor: 10.0 },
        &stack,
    );
    let violations = everify_violations(g.netlist, &p);
    assert!(
        violations.iter().any(|(k, _)| *k == CheckKind::ChargeShare),
        "ChargeShare must trip; got {violations:?}"
    );
}

#[test]
fn beta_skew_detected_on_static_logic() {
    let p = Process::strongarm_035();
    let mut g = cbv_core::gen::adders::static_ripple_adder(2, &p);
    plant(
        &mut g.netlist,
        MutationOp::BetaSkew { factor: 12.0 },
        &[(0, "xp0_ia_p")],
    );
    let violations = everify_violations(g.netlist, &p);
    assert!(
        violations.iter().any(|(k, _)| *k == CheckKind::BetaRatio),
        "got {violations:?}"
    );
}

#[test]
fn weak_driver_detected_by_edge_rate() {
    let p = Process::strongarm_035();
    let mut g = cbv_core::gen::clocktree::clock_trunk(3, 3.0, 256, &p);
    // `b2b_p` drives the most heavily gate-loaded net; shrink it 10x.
    let nl = &g.netlist;
    let out = nl.device(DeviceId(10)).drain;
    assert!(nl
        .net_ids()
        .all(|n| nl.gate_width_on(n) <= nl.gate_width_on(out)));
    plant(
        &mut g.netlist,
        MutationOp::WidthScale { factor: 0.1 },
        &[(10, "b2b_p")],
    );
    let violations = everify_violations(g.netlist, &p);
    assert!(
        violations.iter().any(|(k, _)| *k == CheckKind::EdgeRate),
        "got {violations:?}"
    );
}

#[test]
fn wrong_polarity_caught_functionally_by_switch_sim() {
    use cbv_core::sim::{Logic, SwitchSim};
    let p = Process::strongarm_035();
    let clean = cbv_core::gen::adders::static_ripple_adder(2, &p);
    let mut buggy = cbv_core::gen::adders::static_ripple_adder(2, &p);
    plant(
        &mut buggy.netlist,
        MutationOp::PolaritySwap,
        &[(1, "xp0_ia_n")],
    );

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
    plant(
        &mut g.netlist,
        MutationOp::WidthScale { factor: 15.0 },
        &[(1, "eval")],
    );
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
