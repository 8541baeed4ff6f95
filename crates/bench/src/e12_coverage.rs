//! E12 — §4.2 check-battery fault-injection coverage matrix.
//!
//! Each hazard class is planted into a clean target design; the matrix
//! records which checks fire. This is the "does the methodology catch
//! what silicon would expose" experiment.

use cbv_core::everify::{run_all, CheckKind, EverifyConfig};
use cbv_core::exec::Executor;
use cbv_core::extract::extract;
use cbv_core::gen::adders::{manchester_domino_adder, static_ripple_adder};
use cbv_core::gen::clocktree::clock_trunk;
use cbv_core::gen::latches::keeper_domino;
use cbv_core::gen::{inject, FaultKind};
use cbv_core::layout::synthesize;
use cbv_core::netlist::FlatNetlist;
use cbv_core::recognize::recognize;
use cbv_core::tech::Process;

/// One row of the matrix.
pub struct CoverageRow {
    /// The injected fault.
    pub fault: FaultKind,
    /// Injection description.
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

/// The fault → target-design pairing (each fault needs a design where its
/// victim structure exists). Workers come from `CBV_THREADS` / machine
/// parallelism; see [`run_with`].
pub fn run() -> Vec<CoverageRow> {
    run_with(&Executor::new())
}

/// Runs the campaign with each fault-injection case (inject → recognize
/// → layout → extract → battery) on its own worker. The executor
/// preserves case order, so the matrix is identical at any thread count.
pub fn run_with(exec: &Executor) -> Vec<CoverageRow> {
    let p = Process::strongarm_035();
    let cases: Vec<(FaultKind, FlatNetlist)> = vec![
        (FaultKind::BetaSkew, static_ripple_adder(2, &p).netlist),
        (FaultKind::SubMinLength, keeper_domino(&p, 1e-6).netlist),
        (FaultKind::MonsterKeeper, keeper_domino(&p, 1e-6).netlist),
        (
            FaultKind::ChargeShare,
            manchester_domino_adder(2, &p).netlist,
        ),
        (FaultKind::WeakDriver, clock_trunk(3, 3.0, 256, &p).netlist),
        (FaultKind::LeakyDynamic, keeper_domino(&p, 1e-6).netlist),
    ];
    exec.map(cases, |(fault, mut netlist)| {
        let description = inject(&mut netlist, fault).expect("fault injects");
        let mut cfg = EverifyConfig::for_process(&p);
        // LeakyDynamic only shows under a long gated-clock hold.
        if fault == FaultKind::LeakyDynamic {
            cfg.dynamic_hold = cbv_core::tech::Seconds::new(3e-6);
        }
        let fired = violations_of(netlist, &p, &cfg);
        CoverageRow {
            fault,
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
            format!("{:?}", row.fault),
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
                "{:?} ({}) was missed",
                row.fault, row.description
            );
        }
    }

    #[test]
    fn detections_are_specific() {
        // Each fault must fire its designated check, not just anything.
        let expected: &[(FaultKind, CheckKind)] = &[
            (FaultKind::BetaSkew, CheckKind::BetaRatio),
            (FaultKind::MonsterKeeper, CheckKind::Writability),
            (FaultKind::ChargeShare, CheckKind::ChargeShare),
            (FaultKind::WeakDriver, CheckKind::EdgeRate),
            (FaultKind::LeakyDynamic, CheckKind::Leakage),
        ];
        let rows = run();
        for (fault, check) in expected {
            let row = rows.iter().find(|r| r.fault == *fault).expect("row exists");
            assert!(
                row.fired.contains(check),
                "{fault:?} should fire {check}; fired {:?}",
                row.fired
            );
        }
    }

    #[test]
    fn matrix_is_deterministic_across_workers() {
        let fingerprint = |rows: Vec<CoverageRow>| -> Vec<String> {
            rows.into_iter()
                .map(|r| {
                    format!(
                        "{:?} {} {:?} {}",
                        r.fault, r.detected, r.fired, r.description
                    )
                })
                .collect()
        };
        assert_eq!(
            fingerprint(run_with(&Executor::serial())),
            fingerprint(run_with(&Executor::threads(8)))
        );
    }
}
