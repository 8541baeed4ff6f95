//! `cold_signoff` — the from-scratch cost of a signoff.
//!
//! One op loads `alu_slice(8)` from its interchange IR, runs it
//! through the validation-gated cold flow and serialises the signoff,
//! then does the same for `manchester_domino_adder(4)`. Every cache is
//! bypassed. The two designs are one op so the op-time distribution has
//! a single mode. Extraction is over nine tenths of both; of the
//! verification stages `everify` leads on the first and the timing
//! graph on the second. The widths are the largest at which a 30 s
//! window holds well over 200 ops on a 2-core host (extraction grows
//! with the square of the device count).
//!
//! Traced ops replay Fig 2 through the crates' public entry points
//! under one span per layer; the distance between that sum and the
//! untraced `try_run_flow` op is reported as `D.core.unexplained_ms`.

use std::time::Instant;

use cbv_core::everify::{self, EverifyConfig};
use cbv_core::exec::Executor;
use cbv_core::flow::{run_flow, try_run_flow, FlowConfig};
use cbv_core::gen::adders::manchester_domino_adder;
use cbv_core::gen::datapath::alu_slice;
use cbv_core::netlist::FlatNetlist;
use cbv_core::obs::TraceCtx;
use cbv_core::power::ActivityModel;
use cbv_core::signoff::Signoff;
use cbv_core::tech::{Ohms, Process};
use cbv_core::timing::{self, ClockSchedule, DelayCalc};
use cbv_core::{extract, ir, layout, power, recognize};

use crate::metrics::{ColdNames, Values, ALU8, MAN4};
use crate::run::{ms_since, signoff_json, Outcome, Plan, Window};
use crate::stats::p10;
use crate::trace::{to_jsonl, Recorder};
use crate::walk::Walk;

/// Untimed warm-up ops after the reference run of each set-up.
const WARMUP_OPS: usize = 8;
/// Seeded width edits applied to each design before it is dumped, so
/// the inputs — and the reference bytes — follow `--seed`.
const SEED_EDITS: usize = 8;

struct Design {
    names: &'static ColdNames,
    ir_text: String,
    /// Signoff bytes of a cold `run_flow` over the same netlist.
    reference: String,
}

pub struct ColdSignoff {
    process: Process,
    config: FlowConfig,
    designs: [Design; 2],
}

impl ColdSignoff {
    /// Generates both designs from `seed`, dumps them to IR, computes
    /// the reference bytes and runs the warm-up ops.
    pub fn setup(seed: u64) -> ColdSignoff {
        let process = Process::strongarm_035();
        let config = FlowConfig::default();
        let design = |names: &'static ColdNames, stream: u64, mut netlist: FlatNetlist| {
            for step in Walk::new(seed, stream, netlist.devices().len()).take(SEED_EDITS) {
                step.apply(&mut netlist);
            }
            let ir_text = ir::dump(&netlist, None);
            let reference = signoff_json(&run_flow(netlist, &process, &config).signoff);
            Design {
                names,
                ir_text,
                reference,
            }
        };
        let designs = [
            design(&ALU8, 1, alu_slice(8, &process).netlist),
            design(&MAN4, 2, manchester_domino_adder(4, &process).netlist),
        ];
        let mut this = ColdSignoff {
            process,
            config,
            designs,
        };
        let warm = this.run(&Plan::ops(WARMUP_OPS));
        assert_eq!(warm.failed, 0, "cold_signoff warm-up op failed its check");
        this
    }

    /// The op as a user runs it: load, gated cold flow, serialise.
    fn part_plain(&self, d: &Design) -> String {
        let loaded = ir::load(&d.ir_text).expect("dumped IR loads");
        let report =
            try_run_flow(loaded.netlist, &self.process, &self.config).expect("design is valid");
        signoff_json(&report.signoff)
    }

    /// The same work as [`part_plain`](Self::part_plain), stage by stage
    /// through each crate's public entry point, one span per layer.
    fn part_replayed(&self, d: &Design, rec: &mut Recorder, counts: &mut Values) -> String {
        let n = d.names;
        let (p, cfg) = (&self.process, &self.config);
        let loaded = rec
            .span(n.load, |_| ir::load(&d.ir_text))
            .expect("dumped IR loads");
        let mut netlist = loaded.netlist;
        rec.span(n.validate, |_| ir::ensure_valid(&netlist))
            .expect("design is valid");
        let recognition = rec.span(n.recognize, |_| recognize::recognize(&mut netlist));
        let laid = rec.span(n.layout, |_| layout::synthesize(&mut netlist, p));
        let extracted = rec.span(n.extract, |_| extract::extract(&laid, &netlist, p));

        let exec = Executor::threads(cfg.parallelism);
        let mut ecfg = EverifyConfig::for_process(p);
        ecfg.tolerance = cfg.tolerance;
        let ereport = rec.span(n.everify, |_| {
            let checks =
                everify::battery(&netlist, &recognition, &extracted, Some(&laid), p, &ecfg);
            everify::run_battery(checks, ecfg.filter_threshold, &exec, TraceCtx::disabled()).0
        });

        let clock = recognition
            .clock_nets
            .first()
            .map_or_else(|| "clk".to_owned(), |&c| netlist.net_name(c).to_owned());
        let schedule = ClockSchedule::single(clock, p.f_target().period());
        let calc = DelayCalc::new(p, cfg.tolerance, cfg.pessimism);
        let graph = rec.span(n.graph, |_| {
            timing::graph::build_graph_traced(
                &netlist,
                &recognition,
                &extracted,
                &calc,
                &exec,
                TraceCtx::disabled(),
            )
            .0
        });
        let constraints = rec.span(n.constraints, |_| {
            timing::infer_constraints(&netlist, &recognition, p, &cfg.pessimism)
        });
        let skews: Vec<_> = rec.span(n.skew, |_| {
            recognition
                .clock_nets
                .iter()
                .filter_map(|&c| {
                    timing::clock_skew_bounds(&extracted, c, Ohms::new(200.0), &cfg.tolerance)
                })
                .collect()
        });
        let sta = rec.span(n.sta, |_| {
            timing::analyze(
                &netlist,
                &graph,
                &constraints,
                &schedule,
                &cfg.pessimism,
                &skews,
            )
        });
        let watts = rec.span(n.power, |_| {
            power::dynamic_power(
                &netlist,
                &recognition,
                &extracted,
                p,
                p.f_target(),
                &ActivityModel::uniform(cfg.activity),
            )
        });
        let json = rec.span(n.serialize, |_| {
            let mut signoff = Signoff::default();
            signoff.add_everify(&ereport);
            signoff.add_timing(&sta, constraints.len());
            signoff.set_power(watts.total());
            signoff_json(&signoff)
        });

        counts.insert(n.cccs, recognition.cccs.len() as f64);
        counts.insert(n.shapes, laid.shapes.len() as f64);
        counts.insert(n.nets, extracted.iter().count() as f64);
        counts.insert(n.checks, ereport.checked_count() as f64);
        counts.insert(n.arcs, graph.arcs.len() as f64);
        json
    }

    /// Runs one section. Closed loop, one client: the next op starts
    /// when the previous one's bytes have been checked.
    pub fn run(&mut self, plan: &Plan) -> Outcome {
        let mut out = Outcome::default();
        let mut rec = Recorder::new(Instant::now(), 0);
        // Untraced wall ms of each design's half of the op.
        let mut halves: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let window = Window::start();
        let mut done = 0usize;
        while window.more(plan, done) {
            rec.on = plan.traces(done);
            rec.op = done as u32;
            let t0 = Instant::now();
            let ok = if rec.on {
                let (this, layers) = (&*self, &mut out.layers);
                rec.span("cold_signoff.op", |rec| {
                    this.designs.iter().fold(true, |ok, d| {
                        let json =
                            rec.span(d.names.design, |rec| this.part_replayed(d, rec, layers));
                        ok & (json == d.reference)
                    })
                })
            } else {
                let mut ok = true;
                for (d, half) in self.designs.iter().zip(halves.iter_mut()) {
                    let t = Instant::now();
                    ok &= self.part_plain(d) == d.reference;
                    half.push(ms_since(t));
                }
                ok
            };
            window.complete(ms_since(t0), rec.on);
            out.failed += u64::from(!ok);
            done += 1;
        }
        window.finish(&mut out);

        if plan.traced {
            for (d, half) in self.designs.iter().zip(&halves) {
                let mut explained = 0.0;
                for name in d.names.layer_spans() {
                    let ms = p10(&rec.durations_ms(name));
                    explained += ms;
                    out.layers.insert(name, ms);
                }
                out.layers
                    .insert(d.names.unexplained, p10(half) - explained);
            }
            out.jsonl = to_jsonl(&[&rec]);
        }
        out
    }
}
