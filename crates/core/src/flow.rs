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

use std::time::{Duration, Instant};

use cbv_cache::{
    clock_tree_digest, recognition_timing_digest, sta_structure_digest, CacheKey, CacheStats,
    StaLineage, TimingKey, TimingPayload, TimingSpace, UnitFingerprint, UnitResult, VerifyCache,
};
use cbv_everify::EverifyConfig;
use cbv_exec::Executor;
use cbv_extract::Extracted;
use cbv_layout::Layout;
use cbv_netlist::{FlatNetlist, NetId};
use cbv_obs::{TraceCtx, Tracer};
use cbv_power::ActivityModel;
use cbv_recognize::Recognition;
use cbv_tech::{Process, Seconds, Tolerance};
use cbv_timing::{ClockSchedule, ClockSkew, DelayCalc, Pessimism, TimingGraph};

use crate::scatter::{run_flow_tiered, LocalBackend};
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
    /// Cache hit/miss tally, present only for the cached stages of
    /// [`run_flow_incremental`].
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
    /// The recognition result (kept for downstream tools).
    pub recognition: Recognition,
    /// The aggregated signoff.
    pub signoff: Signoff,
    /// The merged §4.2 electrical report — kept whole (not just the
    /// signoff roll-up) so downstream consumers like the mutation
    /// campaign can ask *which* check moved, not merely whether one did.
    pub everify: cbv_everify::Report,
    /// The §4.3 static timing report, for the same reason.
    pub sta: cbv_timing::StaReport,
    /// The final netlist (flow takes ownership).
    pub netlist: FlatNetlist,
    /// Cache keys of the units this run freshly verified and inserted
    /// into its cache (empty for the cold flow, which has no cache).
    /// The write-back half of a shared-tier discipline reads this to
    /// know which entries the run contributed.
    pub fresh: Vec<CacheKey>,
    /// Timing-remainder artifacts (constraints, graph structure, clock
    /// skews, STA lineage) this run computed and inserted into its
    /// cache's timing tier — the serial-remainder counterpart of
    /// [`fresh`](FlowReport::fresh), and empty for the cold flow or any
    /// run with a poisoned unit (a degraded remainder is never cached).
    pub fresh_timing: Vec<TimingKey>,
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

/// Times one stage under one span of the flow's trace. The closure
/// receives a [`TraceCtx`] positioned at the stage's span (so parallel
/// inner work can attach child spans) and reports `(value, artifacts,
/// cpu)`; `cpu` is the aggregate worker busy time for parallel stages,
/// or `None` for serial stages (cpu time == wall time).
pub(crate) fn timed<T>(
    stages: &mut Vec<StageReport>,
    flow: TraceCtx<'_>,
    stage: &'static str,
    f: impl FnOnce(TraceCtx<'_>) -> (T, usize, Option<Duration>),
) -> T {
    let span = flow.tracer.span_in(flow.parent, stage);
    let span_id = span.id();
    let ctx = TraceCtx {
        tracer: flow.tracer,
        parent: span_id,
    };
    let start = Instant::now();
    let (value, artifacts, cpu) = f(ctx);
    let runtime = Seconds::new(start.elapsed().as_secs_f64());
    drop(span);
    stages.push(StageReport {
        stage,
        runtime,
        cpu_time: cpu.map_or(runtime, |d| Seconds::new(d.as_secs_f64())),
        artifacts,
        cache: None,
        span_id,
    });
    value
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
    let mut stages = Vec::new();
    let exec = Executor::threads(config.parallelism);
    let tracer = &config.tracer;
    let root = tracer.span_in(config.trace_parent, "flow");
    let flow = TraceCtx::under(tracer, &root);

    // 1–3. Recognition, layout assistance, optional DRC, extraction.
    let (prep, drc_violations) = serial_prep(&mut stages, flow, netlist, process, config.check_drc);
    let Prep {
        netlist,
        recognition,
        layout,
        extracted,
    } = &prep;

    // 4. Electrical verification battery (§4.2), checks fanned out
    // across the executor's workers — one `check:<kind>` span each, a
    // panicking check isolated into a ToolError finding.
    let mut everify_cfg = EverifyConfig::for_process(process);
    everify_cfg.tolerance = config.tolerance;
    let ereport = timed(&mut stages, flow, "everify", |ctx| {
        let checks = cbv_everify::battery(
            netlist,
            recognition,
            extracted,
            Some(layout),
            process,
            &everify_cfg,
        );
        let (r, busy) = cbv_everify::run_battery(checks, everify_cfg.filter_threshold, &exec, ctx);
        ctx.tracer.gauge("everify.busy_s", busy.as_secs_f64());
        let n = r.checked_count();
        (r, n, Some(busy))
    });

    // 5. Timing verification (§4.3).
    let schedule = schedule_of(config, &prep, process);
    let calc = DelayCalc::new(process, config.tolerance, config.pessimism);
    let (sta, n_constraints) = timed(&mut stages, flow, "timing", |ctx| {
        let (graph, graph_busy) = cbv_timing::graph::build_graph_traced(
            netlist,
            recognition,
            extracted,
            &calc,
            &exec,
            ctx,
        );
        let serial_start = Instant::now();
        let constraints =
            cbv_timing::infer_constraints(netlist, recognition, process, &config.pessimism);
        let skews: Vec<_> = recognition
            .clock_nets
            .iter()
            .filter_map(|&c| {
                cbv_timing::clock_skew_bounds(
                    extracted,
                    c,
                    cbv_tech::Ohms::new(200.0),
                    &config.tolerance,
                )
            })
            .collect();
        let r = {
            let _sta_span = ctx.span("sta");
            cbv_timing::analyze(
                netlist,
                &graph,
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
        ctx.tracer
            .gauge("timing.graph_busy_s", graph_busy.as_secs_f64());
        let n = constraints.len();
        // Stage compute = parallel graph build (all workers) + the
        // serial constraint/skew/propagation remainder.
        let cpu = graph_busy + serial_start.elapsed();
        ((r, n), graph.arcs.len(), Some(cpu))
    });

    // 6. Power estimation (§3) and the signoff roll-up.
    let signoff = power_and_signoff(
        &mut stages,
        flow,
        &prep,
        process,
        config,
        drc_violations,
        &ereport,
        &sta,
        n_constraints,
    );

    drop(root);
    tracer.flush();

    FlowReport {
        stages,
        recognition: prep.recognition,
        signoff,
        everify: ereport,
        sta,
        netlist: prep.netlist,
        fresh: Vec::new(),
        fresh_timing: Vec::new(),
    }
}

/// What stages 1–3 leave behind: the annotated netlist and the three
/// representations every later stage reads.
pub(crate) struct Prep {
    pub netlist: FlatNetlist,
    pub recognition: Recognition,
    pub layout: Layout,
    pub extracted: Extracted,
}

/// Stages 1–3 of Fig 2, one row each: circuit recognition (§2.3), layout
/// assistance (§2.2), optional geometric DRC over the assisted layout,
/// extraction (the §4.3 inputs). The one definition of the serial prep —
/// the cold flow, the cached driver's prep-miss branch and
/// [`PreparedDesign::build`](crate::scatter::PreparedDesign::build) all
/// run this. Returns the DRC violation count when DRC ran.
pub(crate) fn serial_prep(
    stages: &mut Vec<StageReport>,
    flow: TraceCtx<'_>,
    mut netlist: FlatNetlist,
    process: &Process,
    check_drc: bool,
) -> (Prep, Option<usize>) {
    let recognition = timed(stages, flow, "recognize", |_| {
        let r = cbv_recognize::recognize(&mut netlist);
        let n = r.cccs.len();
        (r, n, None)
    });
    let layout = timed(stages, flow, "layout", |_| {
        let l = cbv_layout::synthesize(&mut netlist, process);
        let n = l.shapes.len();
        (l, n, None)
    });
    let drc_violations = check_drc.then(|| drc_row(stages, flow, &layout, &netlist, process));
    let extracted = timed(stages, flow, "extract", |_| {
        let e = cbv_extract::extract(&layout, &netlist, process);
        let n = e.iter().count();
        (e, n, None)
    });
    let prep = Prep {
        netlist,
        recognition,
        layout,
        extracted,
    };
    (prep, drc_violations)
}

/// The `drc` row: geometric DRC over the assisted layout, returning the
/// violation count. It reports per run rather than priming the prep, so
/// a run whose prep was answered from a shared cache re-runs it against
/// the cached layout.
pub(crate) fn drc_row(
    stages: &mut Vec<StageReport>,
    flow: TraceCtx<'_>,
    layout: &Layout,
    netlist: &FlatNetlist,
    process: &Process,
) -> usize {
    let rules = cbv_layout::Rules::for_process(process);
    timed(stages, flow, "drc", |_| {
        let n = cbv_layout::check_drc(layout, netlist, &rules, 10_000).len();
        (n, n, None)
    })
}

/// The schedule timing verifies against: the configured one, else a
/// single-phase schedule at the process target frequency on the design's
/// first recognized clock.
pub(crate) fn schedule_of(config: &FlowConfig, prep: &Prep, process: &Process) -> ClockSchedule {
    config.schedule.clone().unwrap_or_else(|| {
        let name = prep
            .recognition
            .clock_nets
            .first()
            .map(|&c| prep.netlist.net_name(c).to_owned())
            .unwrap_or_else(|| "clk".to_owned());
        ClockSchedule::single(name, process.f_target().period())
    })
}

/// The flow's last row — power estimation (§3), cheap and always
/// recomputed — and the [`Signoff`] roll-up over everything the run
/// found. `drc_violations` is `Some` exactly when DRC ran.
#[allow(clippy::too_many_arguments)]
pub(crate) fn power_and_signoff(
    stages: &mut Vec<StageReport>,
    flow: TraceCtx<'_>,
    prep: &Prep,
    process: &Process,
    config: &FlowConfig,
    drc_violations: Option<usize>,
    ereport: &cbv_everify::Report,
    sta: &cbv_timing::StaReport,
    n_constraints: usize,
) -> Signoff {
    let power = timed(stages, flow, "power", |_| {
        let p = cbv_power::dynamic_power(
            &prep.netlist,
            &prep.recognition,
            &prep.extracted,
            process,
            process.f_target(),
            &ActivityModel::uniform(config.activity),
        );
        (p, 1, None)
    });
    let mut signoff = Signoff::default();
    if let Some(n) = drc_violations {
        signoff.add_drc(n);
    }
    signoff.add_everify(ereport);
    signoff.add_timing(sta, n_constraints);
    signoff.set_power(power.total());
    signoff
}

/// Fingerprint lookup plus the conservative one-step fanout closure: a
/// unit is dirty when its fingerprint misses `cache`, or it is a clean
/// CCC whose fanin boundary crosses a fingerprint-dirty CCC. A lookup
/// also refreshes the entry's recency on a bounded cache. A `pending`
/// key — another run is computing it right now — is neither dirty nor a
/// fanout seed: what a run arriving after that claimant would see.
pub(crate) fn dirty_closure(
    cache: &VerifyCache,
    env: u64,
    fps: &cbv_cache::DesignFingerprints,
    recognition: &Recognition,
    pending: &[CacheKey],
) -> Vec<bool> {
    let n_cccs = recognition.cccs.len();
    let mut dirty: Vec<bool> = fps
        .units
        .iter()
        .map(|&u| CacheKey::new(env, u))
        .map(|key| cache.get(&key).is_none() && !pending.contains(&key))
        .collect();
    let fp_dirty: Vec<usize> = (0..n_cccs).filter(|&i| dirty[i]).collect();
    for (j, d) in dirty.iter_mut().enumerate().take(n_cccs) {
        if *d {
            continue;
        }
        let inputs = &recognition.cccs[j].inputs;
        if fp_dirty.iter().any(|&i| {
            recognition.cccs[i]
                .outputs
                .iter()
                .any(|o| inputs.binary_search(o).is_ok())
        }) {
            *d = true;
        }
    }
    dirty
}

/// Driver resistance the clock-RC skew bounds are computed (and keyed)
/// with.
const CLOCK_DRIVER_OHMS: f64 = 200.0;

/// The timing-tier keys a run can name from its prep alone, before any
/// lookup: constraints and graph structure (both keyed by the
/// recognition-relevant digest) and one skew key per extracted clock
/// tree. The STA key is derived from those artifacts' *payloads*, so it
/// is named in a second step ([`TimingKeys::sta`]) once they are at
/// hand — which is what lets a shared tier answer the whole timing
/// remainder in the same locked batch as the unit keys.
pub(crate) struct TimingKeys {
    env: u64,
    constraints: TimingKey,
    graph: TimingKey,
    /// Per recognized clock net, in `clock_nets` order; `None` for a
    /// clock net with no extracted RC (no bounds, nothing to cache).
    skews: Vec<Option<TimingKey>>,
    net_count: usize,
    schedule: ClockSchedule,
}

impl TimingKeys {
    pub(crate) fn of(prep: &Prep, env: u64, schedule: ClockSchedule) -> TimingKeys {
        let rec_digest = recognition_timing_digest(&prep.netlist, &prep.recognition);
        let key = |space, digest| TimingKey { env, space, digest };
        TimingKeys {
            env,
            net_count: prep.netlist.net_count(),
            schedule,
            constraints: key(TimingSpace::Constraints, rec_digest),
            graph: key(TimingSpace::Graph, rec_digest),
            skews: prep
                .recognition
                .clock_nets
                .iter()
                .map(|&c| {
                    prep.extracted.net(c).map(|en| {
                        let tree = clock_tree_digest(c, en.rc.content_digest(), CLOCK_DRIVER_OHMS);
                        key(TimingSpace::Skew, tree)
                    })
                })
                .collect(),
        }
    }

    /// The keys nameable before any lookup, in lookup order.
    pub(crate) fn known(&self) -> Vec<TimingKey> {
        [self.constraints, self.graph]
            .into_iter()
            .chain(self.skews.iter().flatten().copied())
            .collect()
    }

    /// The STA key `cache`'s copies of the [`known`](TimingKeys::known)
    /// artifacts lead to, or `None` unless it holds every one of them
    /// (the run will then compute the missing ones, and with them a
    /// structure no tier has seen).
    pub(crate) fn sta(&self, cache: &VerifyCache) -> Option<TimingKey> {
        let Some(TimingPayload::Constraints(constraints)) = cache.get_timing(&self.constraints)
        else {
            return None;
        };
        let Some(TimingPayload::Graph { launches, cut_nets }) = cache.get_timing(&self.graph)
        else {
            return None;
        };
        let mut skews: Vec<ClockSkew> = Vec::new();
        for key in self.skews.iter().flatten() {
            let Some(TimingPayload::Skew(skew)) = cache.get_timing(key) else {
                return None;
            };
            skews.extend(skew.clone());
        }
        Some(self.sta_key(launches, cut_nets, constraints, &skews))
    }

    /// Keyed by everything `analyze` reads except the arc delays, so a
    /// delay-only ECO lands on the cached lineage and replays
    /// incrementally from the changed units' endpoints.
    fn sta_key(
        &self,
        launches: &[cbv_timing::LaunchPoint],
        cut_nets: &[NetId],
        constraints: &[cbv_timing::Constraint],
        skews: &[ClockSkew],
    ) -> TimingKey {
        TimingKey {
            env: self.env,
            space: TimingSpace::Sta,
            digest: sta_structure_digest(
                self.net_count,
                launches,
                cut_nets,
                constraints,
                &self.schedule,
                skews,
            ),
        }
    }
}

/// What the cached serial timing remainder came back with.
pub(crate) struct TimingRemainder {
    /// The STA report — byte-identical to a full cold propagation over
    /// the same spliced arcs (the soundness contract).
    pub sta: cbv_timing::StaReport,
    /// Inferred constraint count (the signoff's timing denominator).
    pub n_constraints: usize,
    /// Spliced arc count (the stage's artifact tally).
    pub n_arcs: usize,
    /// Remainder lookups answered from the cache's timing tier.
    pub hits: usize,
    /// Remainder lookups that had to compute (and, on a clean run, get
    /// inserted by the caller).
    pub misses: usize,
    /// Entries this run computed, plus a refreshed STA lineage after an
    /// incremental replay. The caller inserts them into its cache —
    /// unless any unit is poisoned, in which case the remainder ran over
    /// degraded arcs and must leave no residue behind.
    pub fresh: Vec<(TimingKey, TimingPayload)>,
}

/// The serial timing remainder — splice, graph assembly, constraint
/// inference, clock-RC skew, STA — with every artifact content-addressed
/// against `cache`'s timing tier:
///
/// - constraints and the graph's launch/cut structure are keyed by the
///   recognition-relevant content digest (they never read arc delays);
/// - each clock tree's skew bounds are keyed by that tree's RC content
///   and driver resistance;
/// - the converged STA state is keyed by the delay-independent
///   propagation structure, and carries a per-unit fingerprint lineage:
///   a delay-only ECO hits, diffs the lineage against the unit
///   fingerprints the flow already computed to find which units' arcs
///   moved, and re-propagates only from those endpoints
///   ([`cbv_timing::analyze_incremental`]); any structural change — or
///   a NaN anywhere — falls back to the full propagation oracle.
///
/// `units` are the per-CCC unit results in CCC order with their arcs
/// already spliced in; `unit_fps` their content+binding fingerprints in
/// the same order (within one `env` a fingerprint determines the arcs,
/// so the lineage diff costs nothing beyond comparisons). Lookups
/// refresh LRU recency through the shared reference; insertion is the
/// caller's (it owns the `&mut` and decides based on poisoning).
#[allow(clippy::too_many_arguments)]
pub(crate) fn timing_remainder(
    prep: &Prep,
    process: &Process,
    config: &FlowConfig,
    keys: &TimingKeys,
    units: &[UnitResult],
    unit_fps: &[UnitFingerprint],
    cache: &VerifyCache,
    ctx: TraceCtx<'_>,
) -> TimingRemainder {
    debug_assert_eq!(units.len(), unit_fps.len());
    let unit_fps: Vec<u64> = unit_fps.iter().map(|f| f.digest()).collect();
    let mut hits = 0usize;
    let mut misses = 0usize;
    let mut fresh: Vec<(TimingKey, TimingPayload)> = Vec::new();
    let arcs: Vec<cbv_timing::Arc> = units.iter().flat_map(|u| u.arcs.iter().copied()).collect();
    let n_arcs = arcs.len();

    // Inferred capture constraints: pure function of recognition content
    // (pessimism and process live in the environment fingerprint).
    let cons_key = keys.constraints;
    let constraints = match cache.get_timing(&cons_key) {
        Some(TimingPayload::Constraints(c)) => {
            hits += 1;
            c.clone()
        }
        _ => {
            misses += 1;
            let c = cbv_timing::infer_constraints(
                &prep.netlist,
                &prep.recognition,
                process,
                &config.pessimism,
            );
            fresh.push((cons_key, TimingPayload::Constraints(c.clone())));
            c
        }
    };

    // Launch/cut structure of the spliced graph: also arc-independent,
    // so a cached structure is reassembled around this run's arcs.
    let graph_key = keys.graph;
    let graph = match cache.get_timing(&graph_key) {
        Some(TimingPayload::Graph { launches, cut_nets }) => {
            hits += 1;
            TimingGraph {
                arcs,
                launches: launches.clone(),
                cut_nets: cut_nets.clone(),
            }
        }
        _ => {
            misses += 1;
            let g = cbv_timing::graph_from_arcs(&prep.netlist, &prep.recognition, arcs);
            fresh.push((
                graph_key,
                TimingPayload::Graph {
                    launches: g.launches.clone(),
                    cut_nets: g.cut_nets.clone(),
                },
            ));
            g
        }
    };

    // Clock-RC skew bounds, one entry per extracted clock tree. A clock
    // net with no extracted RC yields no bounds and nothing to cache.
    // `None` bounds on an extracted tree (degenerate single-node net)
    // are cached too — the negative result costs the same walk.
    let r_driver = cbv_tech::Ohms::new(CLOCK_DRIVER_OHMS);
    let mut skews: Vec<ClockSkew> = Vec::new();
    for (&c, key) in prep.recognition.clock_nets.iter().zip(&keys.skews) {
        let skew = match *key {
            None => None,
            Some(key) => match cache.get_timing(&key) {
                Some(TimingPayload::Skew(s)) => {
                    hits += 1;
                    s.clone()
                }
                _ => {
                    misses += 1;
                    let s = cbv_timing::clock_skew_bounds(
                        &prep.extracted,
                        c,
                        r_driver,
                        &config.tolerance,
                    );
                    fresh.push((key, TimingPayload::Skew(s.clone())));
                    s
                }
            },
        };
        skews.extend(skew);
    }

    let schedule = &keys.schedule;
    let sta_key = keys.sta_key(&graph.launches, &graph.cut_nets, &constraints, &skews);
    // Endpoint nets of one unit's arcs — computed only for units whose
    // fingerprint moved (and once for everything on a structure miss);
    // the clean majority's nets replay from the lineage.
    let unit_nets = |u: &UnitResult| {
        let mut nets: Vec<NetId> = u.arcs.iter().flat_map(|a| [a.from, a.to]).collect();
        nets.sort_unstable();
        nets.dedup();
        nets
    };
    let _sta_span = ctx.span("sta");
    let mut replayed: Option<cbv_timing::StaReport> = None;
    if let Some(TimingPayload::Sta(lineage)) = cache.get_timing(&sta_key) {
        // A lineage from a different unit partition cannot be diffed;
        // fall through to the full propagation (which overwrites it).
        if lineage.unit_digests.len() == unit_fps.len() {
            let mut dirty: Vec<NetId> = Vec::new();
            for i in 0..unit_fps.len() {
                if lineage.unit_digests[i] != unit_fps[i] {
                    dirty.extend(lineage.unit_arc_nets[i].iter().copied());
                    dirty.extend(unit_nets(&units[i]));
                }
            }
            dirty.sort_unstable();
            dirty.dedup();
            let stale = !dirty.is_empty();
            if let Some((report, snapshot)) = cbv_timing::analyze_incremental(
                &prep.netlist,
                &graph,
                &constraints,
                schedule,
                &config.pessimism,
                &skews,
                &lineage.snapshot,
                &dirty,
            ) {
                if stale {
                    // Same structure key, moved delays: refresh the
                    // lineage so the *next* ECO diffs against this run.
                    let nets: Vec<Vec<NetId>> = units
                        .iter()
                        .enumerate()
                        .map(|(i, u)| {
                            if lineage.unit_digests[i] == unit_fps[i] {
                                lineage.unit_arc_nets[i].clone()
                            } else {
                                unit_nets(u)
                            }
                        })
                        .collect();
                    fresh.push((
                        sta_key,
                        TimingPayload::Sta(StaLineage {
                            unit_digests: unit_fps.to_vec(),
                            unit_arc_nets: nets,
                            snapshot,
                        }),
                    ));
                }
                replayed = Some(report);
            }
        }
    }
    let sta = match replayed {
        Some(r) => {
            hits += 1;
            r
        }
        None => {
            misses += 1;
            let (report, snapshot) = cbv_timing::analyze_with_snapshot(
                &prep.netlist,
                &graph,
                &constraints,
                schedule,
                &config.pessimism,
                &skews,
            );
            fresh.push((
                sta_key,
                TimingPayload::Sta(StaLineage {
                    unit_digests: unit_fps.to_vec(),
                    unit_arc_nets: units.iter().map(unit_nets).collect(),
                    snapshot,
                }),
            ));
            report
        }
    };
    drop(_sta_span);

    ctx.tracer.add("timing.arcs", n_arcs as u64);
    ctx.tracer
        .add("timing.constraints", constraints.len() as u64);
    ctx.tracer
        .add("timing.violations", sta.violations.len() as u64);
    TimingRemainder {
        sta,
        n_constraints: constraints.len(),
        n_arcs,
        hits,
        misses,
        fresh,
    }
}

/// Runs the verification flow incrementally against a [`VerifyCache`]:
/// the cached flow driver ([`crate::scatter`]) on an owned cache, with
/// the in-process unit backend and no shared prep.
///
/// The ECO loop of §2.3: recognition, layout and extraction always run
/// (they are the inputs the fingerprints are computed *from*), then each
/// verification unit — one per CCC plus the whole-design residue — is
/// looked up by its content fingerprint. Units that hit replay their
/// cached §4.2 findings and §4.3 timing arcs; only *dirty* units
/// (fingerprint miss, or a CCC whose fanin boundary crosses a
/// fingerprint-dirty CCC — a conservative one-step closure) are
/// re-verified on the executor. Cached and fresh results are merged in
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
    use cbv_gen::{inject, FaultKind};

    #[test]
    fn clean_static_adder_signs_off() {
        let p = Process::strongarm_035();
        let g = static_ripple_adder(4, &p);
        let r = run_flow(g.netlist, &p, &FlowConfig::default());
        assert!(r.signoff.clean(), "{}", r.signoff);
        assert_eq!(r.stages.len(), 6);
        assert!(r.total_runtime().seconds() > 0.0);
        let cpu_time: f64 = r.stages.iter().map(|s| s.cpu_time.seconds()).sum();
        assert!(
            cpu_time >= r.total_runtime().seconds() * 0.5,
            "cpu time tracks wall time within measurement noise"
        );
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
        inject(&mut g.netlist, FaultKind::SubMinLength).unwrap();
        let r = run_flow(g.netlist, &p, &FlowConfig::default());
        assert!(!r.signoff.clean(), "sub-min device must fail signoff");
    }
}
