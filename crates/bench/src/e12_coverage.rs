//! E12 — §4.2 check-battery fault-injection coverage matrix.
//!
//! Each hazard class is planted into a clean target design as one
//! `cbv-mutate` operator planted at fixed devices ([`Edit::plant`]);
//! the matrix records which checks fire. This is the "does the
//! methodology catch what silicon would expose" experiment.

use cbv_core::everify::{run_all, CheckKind, EverifyConfig};
use cbv_core::exec::Executor;
use cbv_core::extract::extract;
use cbv_core::gen::adders::{manchester_domino_adder, static_ripple_adder};
use cbv_core::gen::clocktree::clock_trunk;
use cbv_core::gen::latches::keeper_domino;
use cbv_core::layout::synthesize;
use cbv_core::mutate::{Edit, MutationOp};
use cbv_core::netlist::FlatNetlist;
use cbv_core::recognize::recognize;
use cbv_core::tech::Process;

/// One row of the matrix.
pub struct CoverageRow {
    /// The hazard class planted.
    pub fault: &'static str,
    /// The operator and where it was planted.
    pub description: String,
    /// Checks that reported violations.
    pub fired: Vec<CheckKind>,
    /// Whether anything fired.
    pub detected: bool,
}

fn violations_of(netlist: FlatNetlist, p: &Process, cfg: &EverifyConfig) -> Vec<CheckKind> {
    let rec = recognize(&netlist);
    let layout = synthesize(&netlist, p);
    let ex = extract(&layout, &netlist, p);
    let report = run_all(&netlist, &rec, &ex, Some(&layout), p, cfg);
    let mut fired: Vec<CheckKind> = report.violations().map(|f| f.check).collect();
    fired.sort_unstable();
    fired.dedup();
    fired
}

/// One hazard class: a target design where its victim structure exists,
/// the operator at its magnitude, and the `(id, name)` devices it is
/// planted at.
struct Fault {
    label: &'static str,
    netlist: FlatNetlist,
    op: MutationOp,
    victims: &'static [(u32, &'static str)],
}

/// The internal stack devices of `manchester_domino_adder(2)`: every
/// NMOS whose channel touches no rail.
const MANCHESTER2_STACK: &[(u32, &str)] = &[
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

/// The fault → target-design pairing. Workers come from `CBV_THREADS` / machine
/// parallelism; see [`run_with`].
pub fn run() -> Vec<CoverageRow> {
    run_with(&Executor::new())
}

/// Runs the campaign with each fault-injection case (plant → recognize
/// → layout → extract → battery) on its own worker. The executor
/// preserves case order, so the matrix is identical at any thread count.
pub fn run_with(exec: &Executor) -> Vec<CoverageRow> {
    let p = Process::strongarm_035();
    let domino = || keeper_domino(&p, 1e-6).netlist;
    let fault = |label, netlist, op, victims| Fault {
        label,
        netlist,
        op,
        victims,
    };
    let faults = vec![
        fault(
            "BetaSkew",
            static_ripple_adder(2, &p).netlist,
            MutationOp::BetaSkew { factor: 12.0 },
            &[(0, "xp0_ia_p")],
        ),
        fault(
            "SubMinLength",
            domino(),
            MutationOp::LengthScale { factor: 0.6 },
            &[(1, "eval")],
        ),
        fault(
            "MonsterKeeper",
            domino(),
            MutationOp::KeeperResize {
                w_factor: 25.0,
                l_factor: 0.5,
            },
            &[(5, "keep")],
        ),
        fault(
            "ChargeShare",
            manchester_domino_adder(2, &p).netlist,
            MutationOp::WidthScale { factor: 10.0 },
            MANCHESTER2_STACK,
        ),
        fault(
            "WeakDriver",
            clock_trunk(3, 3.0, 256, &p).netlist,
            MutationOp::WidthScale { factor: 0.1 },
            &[(10, "b2b_p")],
        ),
        fault(
            "LeakyDynamic",
            domino(),
            MutationOp::WidthScale { factor: 15.0 },
            &[(1, "eval")],
        ),
    ];
    exec.map(faults, |f| {
        let mut netlist = f.netlist;
        for &(id, name) in f.victims {
            Edit::plant(&mut netlist, f.op, id, name).expect("fault plants");
        }
        let description = match f.victims {
            [(_, name)] => format!("{} at `{name}`", f.op),
            many => format!("{} at {} stack devices", f.op, many.len()),
        };
        let mut cfg = EverifyConfig::for_process(&p);
        // LeakyDynamic only shows under a long gated-clock hold.
        if f.label == "LeakyDynamic" {
            cfg.dynamic_hold = cbv_core::tech::Seconds::new(3e-6);
        }
        let fired = violations_of(netlist, &p, &cfg);
        CoverageRow {
            fault: f.label,
            description,
            detected: !fired.is_empty(),
            fired,
        }
    })
}

/// Prints the matrix.
pub fn print() {
    crate::banner("E12", "§4.2 — fault-injection detection matrix");
    println!("{:<16}{:<12}  fired checks", "fault", "detected");
    for row in run() {
        let checks: Vec<String> = row.fired.iter().map(|c| c.to_string()).collect();
        println!(
            "{:<16}{:<12}  {}",
            row.fault,
            if row.detected { "DETECTED" } else { "MISSED" },
            checks.join(", ")
        );
        println!("{:<16}({})", "", row.description);
    }
    println!("\n(WrongPolarity is a functional bug: it is caught by the logic");
    println!(" battery — shadow simulation / equivalence — not the electrical one)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_electrical_fault_is_detected() {
        for row in run() {
            assert!(
                row.detected,
                "{} ({}) was missed",
                row.fault, row.description
            );
        }
    }

    #[test]
    fn detections_are_specific() {
        // Each fault must fire its designated check, not just anything.
        let expected = [
            ("BetaSkew", CheckKind::BetaRatio),
            ("MonsterKeeper", CheckKind::Writability),
            ("ChargeShare", CheckKind::ChargeShare),
            ("WeakDriver", CheckKind::EdgeRate),
            ("LeakyDynamic", CheckKind::Leakage),
        ];
        let rows = run();
        for (fault, check) in expected {
            let row = rows.iter().find(|r| r.fault == fault).expect("row exists");
            assert!(
                row.fired.contains(&check),
                "{fault} should fire {check}; fired {:?}",
                row.fired
            );
        }
    }

    #[test]
    fn matrix_is_deterministic_across_workers() {
        let fingerprint = |rows: Vec<CoverageRow>| -> Vec<String> {
            rows.into_iter()
                .map(|r| format!("{} {} {:?} {}", r.fault, r.detected, r.fired, r.description))
                .collect()
        };
        assert_eq!(
            fingerprint(run_with(&Executor::serial())),
            fingerprint(run_with(&Executor::threads(8)))
        );
    }
}
