//! `eco_walk` — the designer's inner edit loop.
//!
//! An owned `VerifyCache` is primed on `alu_slice(8)`; one op applies
//! one seeded single-device `width-scale` through `cbv-mutate`, clones
//! the netlist, runs `run_flow_incremental` and serialises the signoff.
//! The walk never returns to a revision it has seen, so fingerprinting,
//! the dirty closure, unit replay and the timing tier all run on every
//! op — while recognition, layout and extraction are still rebuilt,
//! which is why incremental extraction or prep reuse would show here and
//! not on `cold_signoff`.

use std::time::Instant;

use cbv_core::cache::{fingerprint_design, VerifyCache};
use cbv_core::flow::{run_flow, run_flow_incremental, FlowConfig};
use cbv_core::gen::datapath::alu_slice;
use cbv_core::netlist::FlatNetlist;
use cbv_core::scatter::PreparedDesign;
use cbv_core::tech::Process;
use cbv_core::{extract, layout, recognize};

use crate::metrics::ECO_STAGES;
use crate::run::{ms_since, signoff_json, Outcome, Plan, Window};
use crate::stats::{median, p10};
use crate::trace::{to_jsonl, Recorder};
use crate::walk::Walk;

/// Untimed warm-up ops after the priming run of each set-up.
const WARMUP_OPS: usize = 8;
/// Every this-many ops the signoff bytes are compared, untimed, with a
/// cold `run_flow` of the same revision.
pub const CHECK_EVERY: usize = 16;

pub struct EcoWalk {
    process: Process,
    config: FlowConfig,
    netlist: FlatNetlist,
    cache: VerifyCache,
    walk: Walk,
    /// Ops run so far, warm-ups included (paces the reference check).
    steps: usize,
}

impl EcoWalk {
    /// Generates the design, primes the cache with one full incremental
    /// run (checked against the cold flow) and runs the warm-up ops.
    pub fn setup(seed: u64) -> EcoWalk {
        let process = Process::strongarm_035();
        let config = FlowConfig::default();
        let netlist = alu_slice(8, &process).netlist;
        let mut cache = VerifyCache::new();
        let primed = run_flow_incremental(netlist.clone(), &process, &config, &mut cache);
        let cold = run_flow(netlist.clone(), &process, &config);
        assert_eq!(
            signoff_json(&primed.signoff),
            signoff_json(&cold.signoff),
            "priming run disagrees with the cold flow"
        );
        let walk = Walk::new(seed, 3, netlist.devices().len());
        let mut this = EcoWalk {
            process,
            config,
            netlist,
            cache,
            walk,
            steps: 0,
        };
        let warm = this.run(&Plan::ops(WARMUP_OPS));
        assert_eq!(warm.failed, 0, "eco_walk warm-up op failed its check");
        this
    }

    /// Runs one section. Closed loop, one client.
    pub fn run(&mut self, plan: &Plan) -> Outcome {
        let mut out = Outcome::default();
        let mut rec = Recorder::new(Instant::now(), 0);
        let mut stage_ms: Vec<Vec<f64>> = vec![Vec::new(); ECO_STAGES.len()];
        // Unit and timing-tier hits and misses over the count ops.
        let mut tally = [0usize; 4];
        let window = Window::start();
        let mut done = 0usize;
        while window.more(plan, done) {
            rec.on = plan.traces(done);
            rec.op = done as u32;
            let step = self.walk.next().expect("walks are endless");
            let t0 = Instant::now();
            let (report, json) = rec.span("eco_walk.op", |rec| {
                rec.span("eco_walk.mutate.apply_ms", |_| {
                    step.apply(&mut self.netlist)
                });
                let revision = rec.span("eco_walk.netlist.clone_ms", |_| self.netlist.clone());
                let report = rec.span("eco_walk.core.run_flow_incremental_ms", |_| {
                    run_flow_incremental(revision, &self.process, &self.config, &mut self.cache)
                });
                let json = rec.span("eco_walk.signoff.serialize_ms", |_| {
                    signoff_json(&report.signoff)
                });
                (report, json)
            });
            window.complete(ms_since(t0), rec.on);

            for ((stage, _), sink) in ECO_STAGES.iter().zip(stage_ms.iter_mut()) {
                let row = report.stages.iter().find(|s| s.stage == *stage);
                sink.push(row.map_or(0.0, |s| s.runtime.seconds() * 1e3));
            }
            if done < plan.count_ops {
                for (k, stage) in ["everify", "timing"].into_iter().enumerate() {
                    let stats = report
                        .stages
                        .iter()
                        .find(|s| s.stage == stage)
                        .and_then(|s| s.cache)
                        .expect("incremental stages report cache stats");
                    tally[2 * k] += stats.hits;
                    tally[2 * k + 1] += stats.misses;
                }
                if done + 1 == plan.count_ops {
                    out.layers
                        .insert("eco_walk.cache.entries_end", self.cache.len() as f64);
                }
            }

            self.steps += 1;
            if self.steps % CHECK_EVERY == 1 {
                // First op of every sixteen, so short sections are
                // checked too. Untimed: the clocks stop around it.
                window.pause();
                let cold = run_flow(self.netlist.clone(), &self.process, &self.config);
                out.failed += u64::from(json != signoff_json(&cold.signoff));
                window.resume();
            }
            done += 1;
        }
        window.finish(&mut out);

        if plan.traced {
            for name in [
                "eco_walk.mutate.apply_ms",
                "eco_walk.netlist.clone_ms",
                "eco_walk.core.run_flow_incremental_ms",
                "eco_walk.signoff.serialize_ms",
            ] {
                out.layers.insert(name, p10(&rec.durations_ms(name)));
            }
            for ((_, name), samples) in ECO_STAGES.iter().zip(&stage_ms) {
                out.layers.insert(name, p10(samples));
            }
            let per_op = |n: usize| n as f64 / plan.count_ops as f64;
            out.layers
                .insert("eco_walk.cache.unit_hits_per_op", per_op(tally[0]));
            out.layers
                .insert("eco_walk.cache.unit_misses_per_op", per_op(tally[1]));
            out.layers
                .insert("eco_walk.cache.timing_hits_per_op", per_op(tally[2]));
            out.layers
                .insert("eco_walk.cache.timing_misses_per_op", per_op(tally[3]));
            self.probe(&mut rec, &mut out);
            out.jsonl = to_jsonl(&[&rec]);
        }
        out
    }

    /// Layer probes on the current revision: what fingerprinting, a
    /// whole serial prep, and one unit's verification cost on their own.
    fn probe(&self, rec: &mut Recorder, out: &mut Outcome) {
        rec.on = true;
        let mut netlist = self.netlist.clone();
        let recognition = recognize::recognize(&mut netlist);
        let laid = layout::synthesize(&mut netlist, &self.process);
        let extracted = extract::extract(&laid, &netlist, &self.process);
        for _ in 0..5 {
            rec.span("eco_walk.cache.fingerprint_design_ms", |_| {
                fingerprint_design(&netlist, &recognition, &extracted)
            });
        }
        let prep = rec.span("eco_walk.core.prep_build_ms", |_| {
            PreparedDesign::build(self.netlist.clone(), &self.process, &self.config)
        });
        let unit_us: Vec<f64> = (0..prep.n_units())
            .map(|i| {
                let t = Instant::now();
                std::hint::black_box(prep.verify_unit(i, None));
                ms_since(t) * 1e3
            })
            .collect();
        for name in [
            "eco_walk.cache.fingerprint_design_ms",
            "eco_walk.core.prep_build_ms",
        ] {
            out.layers.insert(name, p10(&rec.durations_ms(name)));
        }
        out.layers
            .insert("eco_walk.core.verify_unit_p50_us", median(&unit_us));
    }
}
