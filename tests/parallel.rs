//! Determinism of the parallel execution layer: the §4.2 battery, the
//! timing-graph build and the whole flow must produce byte-identical
//! results at every worker count (the equality matrix in
//! `tests/equality.rs` holds every cached path to that cold flow). The CBV methodology treats reports as
//! signoff artifacts — a report that depends on thread scheduling is a
//! report nobody can trust or diff.

use cbv_core::everify::{battery, run_battery, EverifyConfig};
use cbv_core::exec::Executor;
use cbv_core::extract::{extract, Extracted};
use cbv_core::flow::{run_flow, FlowConfig};
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::layout::{synthesize, Layout};
use cbv_core::mutate::{Edit, MutationOp};
use cbv_core::netlist::FlatNetlist;
use cbv_core::obs::TraceCtx;
use cbv_core::recognize::{recognize, Recognition};
use cbv_core::tech::{Process, Tolerance};
use cbv_core::timing::graph::build_graph_traced;
use cbv_core::timing::{analyze, ClockSchedule, DelayCalc, Pessimism};

/// A leaky evaluate device: the first generate device, 15x wide.
const LEAK: (MutationOp, u32, &str) = (MutationOp::WidthScale { factor: 15.0 }, 100, "gen_a0");

/// A representative design: dynamic manchester chains, keepers, static
/// logic. `faulty` plants a leaky evaluate device and a 12x pull-up so
/// the battery has real violations to order and merge.
fn testcase(faulty: bool) -> (FlatNetlist, Layout, Extracted, Recognition, Process) {
    let process = Process::strongarm_035();
    let mut g = manchester_domino_adder(8, &process);
    if faulty {
        let (op, id, name) = LEAK;
        Edit::plant(&mut g.netlist, op, id, name).expect("leak plants");
        let skew = MutationOp::BetaSkew { factor: 12.0 };
        Edit::plant(&mut g.netlist, skew, 0, "xp0_ia_p").expect("skew plants");
    }
    let netlist = g.netlist;
    let layout = synthesize(&netlist, &process);
    let extracted = extract(&layout, &netlist, &process);
    let recognition = recognize(&netlist);
    (netlist, layout, extracted, recognition, process)
}

#[test]
fn everify_battery_is_deterministic_across_thread_counts() {
    for faulty in [false, true] {
        let (netlist, layout, extracted, recognition, process) = testcase(faulty);
        let cfg = EverifyConfig::for_process(&process);
        let fingerprint = |threads: usize| {
            let checks = battery(
                &netlist,
                &recognition,
                &extracted,
                Some(&layout),
                &process,
                &cfg,
            );
            let (report, _busy) = run_battery(
                checks,
                cfg.filter_threshold,
                &Executor::threads(threads),
                TraceCtx::disabled(),
            );
            format!(
                "checked={} filtered={} findings={:?}",
                report.checked_count(),
                report.filtered_count(),
                report.findings()
            )
        };
        let serial = fingerprint(1);
        for threads in [2, 8] {
            assert_eq!(
                serial,
                fingerprint(threads),
                "faulty={faulty} threads={threads}: battery must not depend on scheduling"
            );
        }
        if faulty {
            assert!(
                serial.contains("Violation"),
                "faults must surface: {serial}"
            );
        }
    }
}

#[test]
fn timing_graph_and_sta_are_deterministic_across_thread_counts() {
    let (netlist, _layout, extracted, recognition, process) = testcase(true);
    let calc = DelayCalc::new(&process, Tolerance::conservative(), Pessimism::signoff());
    let schedule = ClockSchedule::single("clk", process.f_target().period());
    let constraints = cbv_core::timing::infer_constraints(
        &netlist,
        &recognition,
        &process,
        &Pessimism::signoff(),
    );
    let (serial_graph, _) = build_graph_traced(
        &netlist,
        &recognition,
        &extracted,
        &calc,
        &Executor::serial(),
        TraceCtx::disabled(),
    );
    let serial_sta = analyze(
        &netlist,
        &serial_graph,
        &constraints,
        &schedule,
        &Pessimism::signoff(),
        &[],
    );
    for threads in [2, 8] {
        let (graph, _) = build_graph_traced(
            &netlist,
            &recognition,
            &extracted,
            &calc,
            &Executor::threads(threads),
            TraceCtx::disabled(),
        );
        assert_eq!(
            serial_graph.arcs, graph.arcs,
            "arc list must be identical at {threads} threads"
        );
        let sta = analyze(
            &netlist,
            &graph,
            &constraints,
            &schedule,
            &Pessimism::signoff(),
            &[],
        );
        assert_eq!(
            format!("{serial_sta:?}"),
            format!("{sta:?}"),
            "STA result must be identical at {threads} threads"
        );
    }
}

#[test]
fn full_flow_report_is_byte_identical_across_thread_counts() {
    for faulty in [false, true] {
        let fingerprint = |threads: usize| {
            let process = Process::strongarm_035();
            let mut g = manchester_domino_adder(8, &process);
            if faulty {
                let (op, id, name) = LEAK;
                Edit::plant(&mut g.netlist, op, id, name).expect("leak plants");
            }
            let config = FlowConfig {
                parallelism: threads,
                ..FlowConfig::default()
            };
            let r = run_flow(g.netlist, &process, &config);
            let stages: Vec<_> = r.stages.iter().map(|s| (s.stage, s.artifacts)).collect();
            format!(
                "{}|{:?}|{}",
                serde_json::to_string(&r.signoff).expect("serializable"),
                stages,
                r.signoff
            )
        };
        // `0` is the auto default: `CBV_THREADS` picks its worker count.
        let serial = fingerprint(1);
        for threads in [0, 8] {
            assert_eq!(
                serial,
                fingerprint(threads),
                "faulty={faulty}: flow signoff must be byte-identical at 1 and {threads} threads"
            );
        }
    }
}
