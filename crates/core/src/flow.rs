//! The executable design flow of Fig 2.
//!
//! "The design flow used for ALPHA CPU designs is similar in appearance
//! to many other design flows. A significant difference to other design
//! flows is the amount of automatic synthesis of schematic and layout.
//! Since there is a reduced amount of automatic synthesis, there has been
//! much more emphasis on the verification of all implementation
//! representations."
//!
//! [`run_flow`] takes a transistor netlist (the hand-crafted artifact)
//! and runs every verification representation over it: recognition,
//! layout assistance, extraction, the §4.2 electrical battery, §4.3
//! timing with inferred constraints, and §3 power — producing per-stage
//! timings and the aggregated [`Signoff`].

use std::sync::Arc;
use std::time::{Duration, Instant};

use cbv_cache::{env_fingerprint, CacheKey, CacheStats, UnitResult, VerifyCache};
use cbv_everify::EverifyConfig;
use cbv_exec::Executor;
use cbv_extract::Extracted;
use cbv_layout::Layout;
use cbv_netlist::FlatNetlist;
use cbv_obs::{Span, TraceCtx, Tracer};
use cbv_power::ActivityModel;
use cbv_recognize::Recognition;
use cbv_tech::{Process, Seconds, Tolerance};
use cbv_timing::{ClockSchedule, DelayCalc, Pessimism, TimingGraph};

use crate::scatter::{run_flow_tiered, LocalBackend, Source};
use crate::signoff::Signoff;

/// Flow configuration knobs.
#[derive(Debug, Clone)]
pub struct FlowConfig {
    /// Clock schedule for timing verification; `None` derives a
    /// single-phase schedule at the process target frequency using the
    /// design's first recognized clock.
    pub schedule: Option<ClockSchedule>,
    /// Timing pessimism.
    pub pessimism: Pessimism,
    /// Parasitic tolerance bounds.
    pub tolerance: Tolerance,
    /// Data activity for power estimation.
    pub activity: f64,
    /// Run geometric DRC on the assisted layout. Off by default: the
    /// assist router is honest about not being DRC-complete on dense
    /// multi-stub channels (the designer finishes the layout, as in the
    /// paper's methodology); enable for hand layouts and small cells.
    pub check_drc: bool,
    /// Worker threads for the parallel stages (everify battery, timing
    /// graph build). `0` = auto: honour `CBV_THREADS`, else machine
    /// parallelism. Results are identical at every thread count.
    pub parallelism: usize,
    /// Observability: a [`Tracer`] receiving one span per stage (plus
    /// per-check / per-unit / per-chunk child spans from the parallel
    /// stages) and the flow's counters and gauges. Disabled by default;
    /// the flow's outputs are byte-identical either way.
    pub tracer: Tracer,
    /// Cooperative deadline for the incremental flow's per-unit work.
    /// Each dirty unit checks the clock before its battery / arc
    /// computation starts; past the deadline the unit aborts through the
    /// existing panic-isolation path and is reported as a `ToolError`
    /// finding (and left uncached), so a timed-out request can never
    /// produce a clean signoff. The serial stages are not interrupted —
    /// this is a verification-work bound, not a hard wall clock.
    pub deadline: Option<Instant>,
    /// Parent span id for the flow's `flow` root span, letting a caller
    /// (the verification daemon) nest an entire flow run under its own
    /// per-request span. `None` emits `flow` as a trace root, as before.
    pub trace_parent: Option<u64>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            schedule: None,
            pessimism: Pessimism::signoff(),
            tolerance: Tolerance::conservative(),
            activity: 0.15,
            check_drc: false,
            parallelism: 0,
            tracer: Tracer::disabled(),
            deadline: None,
            trace_parent: None,
        }
    }
}

/// Runtime and artifact counts for one stage.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// Stage name (matches Fig 2's boxes).
    pub stage: &'static str,
    /// Wall-clock runtime: what the designer waits for.
    pub runtime: Seconds,
    /// Aggregate compute time: worker busy time summed over threads plus
    /// the stage's serial remainder. Equals `runtime` for serial stages;
    /// the `cpu_time / runtime` ratio is the stage's effective
    /// parallelism.
    pub cpu_time: Seconds,
    /// Number of artifacts produced/processed (devices, shapes, arcs...).
    pub artifacts: usize,
    /// Cache tally of the cached driver's `everify` and `timing` rows, on
    /// every run of [`run_flow_incremental`] and of a
    /// [`FlowService`](crate::service::FlowService) (whose verdict reads
    /// the `everify` row's). `None` on every other row and on every row
    /// of the cold [`run_flow`].
    pub cache: Option<CacheStats>,
    /// Id of this stage's span in the flow's trace (`None` when the
    /// configured tracer is disabled).
    pub span_id: Option<u64>,
}

/// The full flow result.
#[derive(Debug)]
pub struct FlowReport {
    /// Per-stage breakdown in execution order.
    pub stages: Vec<StageReport>,
    /// The recognition result (kept for downstream tools), shared with
    /// the prep it came from.
    pub recognition: Arc<Recognition>,
    /// The aggregated signoff.
    pub signoff: Signoff,
    /// The merged §4.2 electrical report — kept whole (not just the
    /// signoff roll-up) so downstream consumers like the mutation
    /// campaign can ask *which* check moved, not merely whether one did.
    pub everify: cbv_everify::Report,
    /// The §4.3 static timing report, for the same reason.
    pub sta: cbv_timing::StaReport,
    /// The final netlist (flow takes ownership), shared with the prep it
    /// came from.
    pub netlist: Arc<FlatNetlist>,
    /// Cache keys of the units this run freshly verified and inserted
    /// into its cache (empty for the cold flow, which has no cache).
    /// The write-back half of a shared-tier discipline reads this to
    /// know which entries the run contributed.
    pub fresh: Vec<CacheKey>,
}

impl FlowReport {
    /// Total wall-clock runtime across stages (the stages run back to
    /// back, so this is also the flow's elapsed time).
    pub fn total_runtime(&self) -> Seconds {
        self.stages.iter().map(|s| s.runtime).sum()
    }
}

/// Cooperative deadline check run at the top of each per-unit closure.
/// Panicking (rather than returning an error) rides the executor's
/// `catch_unwind` isolation: the unit surfaces as a `ToolError` finding
/// naming it, is marked poisoned, and is never cached — exactly the
/// path a genuine tool crash takes, so no new plumbing is needed and a
/// deadline can never silently drop findings.
pub(crate) fn check_deadline(deadline: Option<Instant>) {
    if let Some(d) = deadline {
        if Instant::now() >= d {
            panic!("flow deadline exceeded");
        }
    }
}

/// One run of the flow, cold or cached: the process and config it runs
/// under and what they derive once (the executor, the check config and
/// the environment fingerprint), its trace position under the root
/// `flow` span, and the stage rows and DRC count reported so far.
pub(crate) struct RunCtx<'a> {
    pub process: &'a Process,
    pub config: &'a FlowConfig,
    pub exec: Executor,
    pub everify_cfg: EverifyConfig,
    pub env: u64,
    /// The trace position under `root`.
    pub flow: TraceCtx<'a>,
    root: Span<'a>,
    pub stages: Vec<StageReport>,
    /// The DRC violation count, once the `drc` row ran.
    pub drc: Option<usize>,
}

impl<'a> RunCtx<'a> {
    /// Opens a run: its `flow` span under [`FlowConfig::trace_parent`] on
    /// `tracer`.
    fn new(process: &'a Process, config: &'a FlowConfig, tracer: &'a Tracer) -> Self {
        let mut everify_cfg = EverifyConfig::for_process(process);
        everify_cfg.tolerance = config.tolerance;
        let env = env_fingerprint(process, &config.tolerance, &config.pessimism, &everify_cfg);
        let root = tracer.span_in(config.trace_parent, "flow");
        RunCtx {
            process,
            config,
            exec: Executor::threads(config.parallelism),
            everify_cfg,
            env,
            flow: TraceCtx::under(tracer, &root),
            root,
            stages: Vec::new(),
            drc: None,
        }
    }

    /// A run traced on the configured tracer.
    pub fn open(process: &'a Process, config: &'a FlowConfig) -> Self {
        Self::new(process, config, &config.tracer)
    }

    /// A run that traces nothing: the worker-side prep, whose rows the
    /// coordinator's driver reports.
    pub fn untraced(process: &'a Process, config: &'a FlowConfig) -> Self {
        Self::new(process, config, TraceCtx::disabled().tracer)
    }

    /// Times one stage under one span of the run's trace. The closure
    /// receives the run and a [`TraceCtx`] positioned at the stage's span
    /// (so parallel inner work can attach child spans) and reports
    /// `(value, artifacts, cpu)`; `cpu` is the aggregate worker busy time
    /// for parallel stages, or `None` for serial stages (cpu time == wall
    /// time).
    pub fn timed<T>(
        &mut self,
        stage: &'static str,
        f: impl FnOnce(&Self, TraceCtx<'a>) -> (T, usize, Option<Duration>),
    ) -> T {
        let span = self.flow.tracer.span_in(self.flow.parent, stage);
        let span_id = span.id();
        let ctx = TraceCtx {
            tracer: self.flow.tracer,
            parent: span_id,
        };
        let start = Instant::now();
        let (value, artifacts, cpu) = f(self, ctx);
        let runtime = Seconds::new(start.elapsed().as_secs_f64());
        drop(span);
        self.stages.push(StageReport {
            stage,
            runtime,
            cpu_time: cpu.map_or(runtime, |d| Seconds::new(d.as_secs_f64())),
            artifacts,
            cache: None,
            span_id,
        });
        value
    }

    /// The timing stage after its graph is built: constraint inference,
    /// clock-RC skew bounds and STA over `graph` against the configured
    /// schedule, else a single-phase one at the process target frequency
    /// on the design's first recognized clock. Returns the STA report and
    /// the inferred constraint count (the signoff's timing denominator).
    fn analyze_graph(
        &self,
        prep: &Prep,
        graph: &TimingGraph,
        ctx: TraceCtx<'_>,
    ) -> (cbv_timing::StaReport, usize) {
        let (process, config) = (self.process, self.config);
        let constraints = cbv_timing::infer_constraints(
            &prep.netlist,
            &prep.recognition,
            process,
            &config.pessimism,
        );
        let skews: Vec<_> = prep
            .recognition
            .clock_nets
            .iter()
            .filter_map(|&c| {
                cbv_timing::clock_skew_bounds(
                    &prep.extracted,
                    c,
                    cbv_tech::Ohms::new(200.0),
                    &config.tolerance,
                )
            })
            .collect();
        let schedule = config.schedule.clone().unwrap_or_else(|| {
            let name = prep
                .recognition
                .clock_nets
                .first()
                .map(|&c| prep.netlist.net_name(c).to_owned())
                .unwrap_or_else(|| "clk".to_owned());
            ClockSchedule::single(name, process.f_target().period())
        });
        let r = {
            let _sta_span = ctx.span("sta");
            cbv_timing::analyze(
                &prep.netlist,
                graph,
                &constraints,
                &schedule,
                &config.pessimism,
                &skews,
            )
        };
        ctx.tracer
            .add("timing.constraints", constraints.len() as u64);
        ctx.tracer
            .add("timing.violations", r.violations.len() as u64);
        (r, constraints.len())
    }

    /// The cached driver's timing stage: splices the per-CCC unit arcs (in
    /// CCC order, the cold graph's exact arc sequence), assembles the graph
    /// around them and runs [`analyze_graph`](Self::analyze_graph) — the
    /// same remainder cold [`run_flow`] runs after its parallel graph
    /// build, recomputed on every run because it costs a fraction of a
    /// millisecond. Returns the STA report, the inferred constraint count
    /// and the spliced arc count.
    pub fn timing_remainder(
        &self,
        prep: &Prep,
        units: &[UnitResult],
        ctx: TraceCtx<'_>,
    ) -> (cbv_timing::StaReport, usize, usize) {
        let arcs: Vec<cbv_timing::Arc> =
            units.iter().flat_map(|u| u.arcs.iter().copied()).collect();
        let n_arcs = arcs.len();
        ctx.tracer.add("timing.arcs", n_arcs as u64);
        let graph = cbv_timing::graph_from_arcs(&prep.netlist, &prep.recognition, arcs);
        let (sta, n_constraints) = self.analyze_graph(prep, &graph, ctx);
        (sta, n_constraints, n_arcs)
    }

    /// The run's last row — power estimation (§3), cheap and always
    /// recomputed — and its close: the [`Signoff`] roll-up over everything
    /// the run found, the root span closed, the tracer flushed and the
    /// report assembled. The report shares the prep's netlist and
    /// recognition.
    pub fn finish(
        mut self,
        prep: &Prep,
        everify: cbv_everify::Report,
        sta: cbv_timing::StaReport,
        n_constraints: usize,
        fresh: Vec<CacheKey>,
    ) -> FlowReport {
        let power = self.timed("power", |run, _| {
            let p = cbv_power::dynamic_power(
                &prep.netlist,
                &prep.recognition,
                &prep.extracted,
                run.process,
                run.process.f_target(),
                &ActivityModel::uniform(run.config.activity),
            );
            (p, 1, None)
        });
        let mut signoff = Signoff::default();
        if let Some(n) = self.drc {
            signoff.add_drc(n);
        }
        signoff.add_everify(&everify);
        signoff.add_timing(&sta, n_constraints);
        signoff.set_power(power.total());

        drop(self.root);
        self.flow.tracer.flush();
        FlowReport {
            stages: self.stages,
            recognition: Arc::clone(&prep.recognition),
            signoff,
            everify,
            sta,
            netlist: Arc::clone(&prep.netlist),
            fresh,
        }
    }
}

/// Validation-gated [`run_flow`]: rejects malformed netlists with a
/// structured [`cbv_ir::IrError`] at the door instead of panicking deep
/// in recognition or extraction. External inputs — IR files, Yosys
/// imports, SPICE uploads — should enter the flow through this gate;
/// trusted generator output may call [`run_flow`] directly.
pub fn try_run_flow(
    netlist: FlatNetlist,
    process: &Process,
    config: &FlowConfig,
) -> Result<FlowReport, cbv_ir::IrError> {
    cbv_ir::ensure_valid(&netlist)?;
    Ok(run_flow(netlist, process, config))
}

/// Runs the complete verification flow over a transistor netlist.
///
/// With an enabled [`FlowConfig::tracer`] the run emits a `flow` root
/// span with one child span per stage ([`StageReport::span_id`]),
/// per-check spans inside `everify`, per-CCC-chunk spans inside
/// `timing`, the per-check finding counters, and busy-time gauges; the
/// tracer is flushed before returning. The signoff and report are
/// byte-identical whether tracing is enabled or not.
pub fn run_flow(netlist: FlatNetlist, process: &Process, config: &FlowConfig) -> FlowReport {
    let mut run = RunCtx::open(process, config);

    // 1–3. Recognition, layout assistance, optional DRC, extraction, all
    // computed. The shape index is dropped here: a cold run never
    // splices.
    let prep = run
        .prep(netlist, Source::Cold)
        .expect("a cold prep is built")
        .parts;

    // 4. Electrical verification battery (§4.2), checks fanned out
    // across the executor's workers — one `check:<kind>` span each, a
    // panicking check isolated into a ToolError finding.
    let ereport = run.timed("everify", |run, ctx| {
        let checks = cbv_everify::battery(
            &prep.netlist,
            &prep.recognition,
            &prep.extracted,
            Some(&prep.layout),
            process,
            &run.everify_cfg,
        );
        let threshold = run.everify_cfg.filter_threshold;
        let (r, busy) = cbv_everify::run_battery(checks, threshold, &run.exec, ctx);
        ctx.tracer.gauge("everify.busy_s", busy.as_secs_f64());
        let n = r.checked_count();
        (r, n, Some(busy))
    });

    // 5. Timing verification (§4.3).
    let calc = DelayCalc::new(process, config.tolerance, config.pessimism);
    let (sta, n_constraints) = run.timed("timing", |run, ctx| {
        let (graph, graph_busy) = cbv_timing::graph::build_graph_traced(
            &prep.netlist,
            &prep.recognition,
            &prep.extracted,
            &calc,
            &run.exec,
            ctx,
        );
        let serial_start = Instant::now();
        let (r, n) = run.analyze_graph(&prep, &graph, ctx);
        ctx.tracer
            .gauge("timing.graph_busy_s", graph_busy.as_secs_f64());
        // Stage compute = parallel graph build (all workers) + the
        // serial constraint/skew/propagation remainder.
        let cpu = graph_busy + serial_start.elapsed();
        ((r, n), graph.arcs.len(), Some(cpu))
    });

    // 6. Power estimation (§3) and the signoff roll-up.
    run.finish(&prep, ereport, sta, n_constraints, Vec::new())
}

/// What stages 1–3 leave behind: the netlist and the three
/// representations every later stage reads. The netlist and the
/// recognition are shared with the run's [`FlowReport`] (and, for a
/// splice, the recognition with the base prep too).
pub(crate) struct Prep {
    pub netlist: Arc<FlatNetlist>,
    pub recognition: Arc<Recognition>,
    pub layout: Layout,
    pub extracted: Extracted,
}

/// Runs the verification flow incrementally against a [`VerifyCache`]:
/// the cached flow driver ([`crate::scatter`]) on an owned cache, with
/// the in-process unit backend and no shared prep.
///
/// The ECO loop of §2.3: the prep (recognition, layout, extraction) is
/// built first — it is what the fingerprints are computed *from*. The
/// cache keeps each run's prep, and a revision that only resizes
/// devices of the last one splices its prep from it: recognition is
/// reused, the layout rebuilt and only the nets the edit reaches are
/// re-extracted. Then each verification unit — one per CCC plus the
/// whole-design residue — is looked up by its content fingerprint.
/// Units that hit replay their cached §4.2 findings and §4.3 timing
/// arcs; only units whose key misses are re-verified on the executor —
/// a key folds everything its unit's checks and arcs read, the
/// neighbours' facts included. Cached and fresh results are merged in
/// fixed unit order, so the resulting [`Signoff`] is byte-identical to
/// a cold [`run_flow`] — the soundness contract `tests/incremental.rs`
/// enforces.
///
/// On a cold cache every unit misses and the flow degenerates to
/// [`run_flow`] plus fingerprinting overhead; the cache is then primed
/// for the next call. Stage reports for `everify` and `timing` carry
/// [`CacheStats`] so the savings are visible.
pub fn run_flow_incremental(
    netlist: FlatNetlist,
    process: &Process,
    config: &FlowConfig,
    cache: &mut VerifyCache,
) -> FlowReport {
    run_flow_tiered(netlist, process, config, cache, None, &LocalBackend)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_gen::adders::{manchester_domino_adder, static_ripple_adder};
    use cbv_mutate::{Edit, MutationOp};

    #[test]
    fn clean_static_adder_signs_off() {
        let p = Process::strongarm_035();
        let g = static_ripple_adder(4, &p);
        let r = run_flow(g.netlist, &p, &FlowConfig::default());
        assert!(r.signoff.clean(), "{}", r.signoff);
        let names: Vec<&str> = r.stages.iter().map(|s| s.stage).collect();
        let fig2 = "recognize layout extract everify timing power";
        assert_eq!(names.join(" "), fig2, "Fig 2 order");
        assert!(r.total_runtime().seconds() > 0.0);
        // Serial stages report their wall time as cpu time; the two
        // parallel ones sum their workers' busy time.
        for s in &r.stages {
            let cpu = s.cpu_time.seconds();
            if matches!(s.stage, "everify" | "timing") {
                assert!(cpu.is_finite() && cpu > 0.0, "{}: {cpu}", s.stage);
            } else {
                assert_eq!(cpu, s.runtime.seconds(), "{}", s.stage);
            }
        }
        assert!(r.signoff.power.unwrap() > 0.0);
    }

    #[test]
    fn domino_adder_flows_and_finds_dynamic_nodes() {
        let p = Process::strongarm_035();
        let g = manchester_domino_adder(4, &p);
        let r = run_flow(g.netlist, &p, &FlowConfig::default());
        // The chain nodes are precharged-dynamic at the component level;
        // their keepers promote the net *role* to State.
        assert!(
            r.recognition
                .classes
                .iter()
                .any(|c| !c.dynamic_outputs.is_empty()),
            "manchester chain has dynamic nodes"
        );
        assert!(
            r.recognition
                .state_elements
                .iter()
                .any(|se| se.kind == cbv_recognize::StateKind::Keeper),
            "chain keepers recognized"
        );
    }

    #[test]
    fn injected_beta_bug_breaks_signoff() {
        let p = Process::strongarm_035();
        let mut g = static_ripple_adder(4, &p);
        let sub_min_length = MutationOp::LengthScale { factor: 0.6 };
        Edit::plant(&mut g.netlist, sub_min_length, 1, "xp0_ia_n").unwrap();
        let r = run_flow(g.netlist, &p, &FlowConfig::default());
        assert!(!r.signoff.clean(), "sub-min device must fail signoff");
    }
}
