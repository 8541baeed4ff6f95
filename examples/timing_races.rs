//! §4.3: critical paths, race paths, and the correlated-vs-uncorrelated
//! min/max analysis on a two-phase datapath, plus node-by-node clock RC.
//!
//! ```sh
//! cargo run --example timing_races
//! ```

use cbv_core::extract::extract;
use cbv_core::gen::clocktree::clock_trunk;
use cbv_core::gen::datapath::alu_slice;
use cbv_core::layout::synthesize;
use cbv_core::recognize::recognize;
use cbv_core::tech::units::nanoseconds;
use cbv_core::tech::{Ohms, Process, Tolerance};
use cbv_core::timing::{
    analyze, clock_skew_bounds, graph::build_graph, infer_constraints, ClockSchedule, DelayCalc,
    Pessimism, ViolationKind,
};

fn main() {
    let process = Process::alpha_21264();
    println!("process: {}\n", process.name());

    // Build a two-phase datapath and run timing at several cycle times.
    let design = alu_slice(8, &process);
    let netlist = design.netlist;
    let recognition = recognize(&netlist);
    let layout = synthesize(&netlist, &process);
    let extracted = extract(&layout, &netlist, &process);

    println!(
        "inferred {} clock nets, {} state elements",
        recognition.clock_nets.len(),
        recognition.state_elements.len()
    );

    for period_ns in [60.0, 40.0, 20.0, 8.0] {
        let pessimism = Pessimism::signoff();
        let calc = DelayCalc::new(&process, Tolerance::conservative(), pessimism);
        let graph = build_graph(&netlist, &recognition, &extracted, &calc);
        let constraints = infer_constraints(&netlist, &recognition, &process, &pessimism);
        let schedule = ClockSchedule::two_phase(
            "phi1",
            "phi2",
            nanoseconds(period_ns),
            nanoseconds(period_ns * 0.05),
        );
        let report = analyze(&netlist, &graph, &constraints, &schedule, &pessimism, &[]);
        let setups = report.of_kind(ViolationKind::Setup).count();
        let races = report.of_kind(ViolationKind::Race).count();
        println!(
            "  period {period_ns:>4.1} ns: {} arcs, {} constraints, {setups} setup violations, {races} races",
            graph.arcs.len(),
            constraints.len()
        );
        if let Some(worst) = report.worst_setup_slack() {
            if worst.seconds() < 0.0 {
                println!("      worst setup slack {:.0} ps", worst.seconds() * 1e12);
            }
        }
        let first_setup = report.of_kind(ViolationKind::Setup).next().cloned();
        if let Some(v) = first_setup {
            let names: Vec<&str> = v.path.iter().map(|s| netlist.net_name(s.net)).collect();
            println!("      critical path: {}", names.join(" -> "));
        }
    }

    // What frequency does the design actually support? Binary-search the
    // minimum clean cycle time ("critical paths will limit the clock
    // frequency of the chip").
    {
        use cbv_core::timing::find_min_period;
        let pessimism = Pessimism::signoff();
        let calc = DelayCalc::new(&process, Tolerance::conservative(), pessimism);
        let graph = build_graph(&netlist, &recognition, &extracted, &calc);
        let constraints = infer_constraints(&netlist, &recognition, &process, &pessimism);
        match find_min_period(
            &netlist,
            &graph,
            &constraints,
            "phi1",
            &pessimism,
            &[],
            cbv_core::tech::Seconds::new(1e-6),
            cbv_core::tech::Seconds::new(10e-12),
        ) {
            Some(t) => println!(
                "\nf_max search (single-phase bound): minimum clean cycle {:.1} ns  ({:.1} MHz with signoff pessimism)",
                t.seconds() * 1e9,
                1e-6 / t.seconds()
            ),
            None => println!("\nf_max search: does not close even at 1 ms"),
        }
    }

    // Correlated vs uncorrelated race analysis under clock skew.
    println!("\ncorrelated vs uncorrelated min/max race analysis:");
    let trunk = clock_trunk(4, 3.0, 64, &process);
    let tlayout = synthesize(&trunk.netlist, &process);
    let textract = extract(&tlayout, &trunk.netlist, &process);
    let root = trunk.clocks[0];
    let skew = clock_skew_bounds(
        &textract,
        root,
        Ohms::new(150.0),
        &Tolerance::conservative(),
    )
    .expect("clock net has RC");
    println!(
        "  clock trunk insertion window: {:.1}..{:.1} ps (spread {:.1} ps)",
        skew.min.seconds() * 1e12,
        skew.max.seconds() * 1e12,
        skew.spread().seconds() * 1e12
    );
    println!("  (uncorrelated analysis charges the full spread against every");
    println!("   hold check; correlated analysis — the paper's approach —");
    println!("   tracks same-die excursions and removes the false races)");
}
