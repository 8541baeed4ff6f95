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
    clock_tree_digest, env_fingerprint, fingerprint_design, recognition_timing_digest,
    sta_structure_digest, CacheKey, CacheStats, StaLineage, TimingKey, TimingPayload, TimingSpace,
    UnitFingerprint, UnitResult, VerifyCache,
};
use cbv_everify::{CheckKind, CheckScope, EverifyConfig, Finding, Severity, Subject};
use cbv_exec::Executor;
use cbv_extract::Extracted;
use cbv_netlist::{FlatNetlist, NetId};
use cbv_obs::{TraceCtx, Tracer};
use cbv_power::ActivityModel;
use cbv_recognize::Recognition;
use cbv_tech::{Process, Seconds, Tolerance};
use cbv_timing::{ClockSchedule, ClockSkew, DelayCalc, Pessimism, TimingGraph};

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

    /// Total compute across stages, counting every worker's busy time.
    /// With parallel stages this exceeds [`total_runtime`]; the gap is
    /// the work the extra threads absorbed.
    ///
    /// [`total_runtime`]: FlowReport::total_runtime
    pub fn total_cpu_time(&self) -> Seconds {
        self.stages.iter().map(|s| s.cpu_time).sum()
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
pub fn run_flow(mut netlist: FlatNetlist, process: &Process, config: &FlowConfig) -> FlowReport {
    let mut stages = Vec::new();
    let mut drc_violations = 0usize;
    let exec = Executor::threads(config.parallelism);
    let tracer = &config.tracer;
    let root = tracer.span_in(config.trace_parent, "flow");
    let flow = TraceCtx::under(tracer, &root);

    // 1. Circuit recognition (§2.3).
    let recognition = timed(&mut stages, flow, "recognize", |_| {
        let r = cbv_recognize::recognize(&mut netlist);
        let n = r.cccs.len();
        (r, n, None)
    });

    // 2. Layout assistance (§2.2).
    let layout = timed(&mut stages, flow, "layout", |_| {
        let l = cbv_layout::synthesize(&mut netlist, process);
        let n = l.shapes.len();
        (l, n, None)
    });

    // 2b. Optional geometric DRC over the assisted layout.
    if config.check_drc {
        let rules = cbv_layout::Rules::for_process(process);
        let violations = timed(&mut stages, flow, "drc", |_| {
            let v = cbv_layout::check_drc(&layout, &netlist, &rules, 10_000);
            let n = v.len();
            (v, n, None)
        });
        drc_violations = violations.len();
    }

    // 3. Extraction (§4.3 inputs).
    let extracted = timed(&mut stages, flow, "extract", |_| {
        let e = cbv_extract::extract(&layout, &netlist, process);
        let n = e.iter().count();
        (e, n, None)
    });

    // 4. Electrical verification battery (§4.2), checks fanned out
    // across the executor's workers — one `check:<kind>` span each, a
    // panicking check isolated into a ToolError finding.
    let mut everify_cfg = EverifyConfig::for_process(process);
    everify_cfg.tolerance = config.tolerance;
    let ereport = timed(&mut stages, flow, "everify", |ctx| {
        let checks = cbv_everify::battery(
            &netlist,
            &recognition,
            &extracted,
            Some(&layout),
            process,
            &everify_cfg,
        );
        let (r, busy) = cbv_everify::run_battery(checks, everify_cfg.filter_threshold, &exec, ctx);
        ctx.tracer.gauge("everify.busy_s", busy.as_secs_f64());
        let n = r.checked_count();
        (r, n, Some(busy))
    });

    // 5. Timing verification (§4.3).
    let schedule = config.schedule.clone().unwrap_or_else(|| {
        let name = recognition
            .clock_nets
            .first()
            .map(|&c| netlist.net_name(c).to_owned())
            .unwrap_or_else(|| "clk".to_owned());
        ClockSchedule::single(name, process.f_target().period())
    });
    let calc = DelayCalc::new(process, config.tolerance, config.pessimism);
    let (sta, n_constraints) = timed(&mut stages, flow, "timing", |ctx| {
        let (graph, graph_busy) = cbv_timing::graph::build_graph_traced(
            &netlist,
            &recognition,
            &extracted,
            &calc,
            &exec,
            ctx,
        );
        let serial_start = Instant::now();
        let constraints =
            cbv_timing::infer_constraints(&netlist, &recognition, process, &config.pessimism);
        let skews: Vec<_> = recognition
            .clock_nets
            .iter()
            .filter_map(|&c| {
                cbv_timing::clock_skew_bounds(
                    &extracted,
                    c,
                    cbv_tech::Ohms::new(200.0),
                    &config.tolerance,
                )
            })
            .collect();
        let r = {
            let _sta_span = ctx.span("sta");
            cbv_timing::analyze(
                &netlist,
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

    // 6. Power estimation (§3).
    let power = timed(&mut stages, flow, "power", |_| {
        let p = cbv_power::dynamic_power(
            &netlist,
            &recognition,
            &extracted,
            process,
            process.f_target(),
            &ActivityModel::uniform(config.activity),
        );
        (p, 1, None)
    });

    let mut signoff = Signoff::default();
    if config.check_drc {
        signoff.add_drc(drc_violations);
    }
    signoff.add_everify(&ereport);
    signoff.add_timing(&sta, n_constraints);
    signoff.set_power(power.total());

    drop(root);
    tracer.flush();

    FlowReport {
        stages,
        recognition,
        signoff,
        everify: ereport,
        sta,
        netlist,
        fresh: Vec::new(),
        fresh_timing: Vec::new(),
    }
}

/// Fingerprint lookup plus the conservative one-step fanout closure: a
/// unit is dirty when its fingerprint misses `cache`, or it is a clean
/// CCC whose fanin boundary crosses a fingerprint-dirty CCC. Shared by
/// [`run_flow_incremental`] and the farm's scatter-gather flow so both
/// compute the exact same dirty set (a lookup also refreshes recency on
/// a bounded cache, identically in both flows).
pub(crate) fn dirty_closure(
    cache: &VerifyCache,
    env: u64,
    fps: &cbv_cache::DesignFingerprints,
    recognition: &Recognition,
) -> Vec<bool> {
    let n_cccs = recognition.cccs.len();
    let mut dirty: Vec<bool> = fps
        .units
        .iter()
        .map(|&u| cache.get(&CacheKey::new(env, u)).is_none())
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
pub(crate) struct TimingKeys<'a> {
    env: u64,
    constraints: TimingKey,
    graph: TimingKey,
    /// Per recognized clock net, in `clock_nets` order; `None` for a
    /// clock net with no extracted RC (no bounds, nothing to cache).
    skews: Vec<Option<TimingKey>>,
    net_count: usize,
    schedule: &'a ClockSchedule,
}

impl<'a> TimingKeys<'a> {
    pub(crate) fn of(
        netlist: &FlatNetlist,
        recognition: &Recognition,
        extracted: &Extracted,
        env: u64,
        schedule: &'a ClockSchedule,
    ) -> TimingKeys<'a> {
        let rec_digest = recognition_timing_digest(netlist, recognition);
        let key = |space, digest| TimingKey { env, space, digest };
        TimingKeys {
            env,
            net_count: netlist.net_count(),
            schedule,
            constraints: key(TimingSpace::Constraints, rec_digest),
            graph: key(TimingSpace::Graph, rec_digest),
            skews: recognition
                .clock_nets
                .iter()
                .map(|&c| {
                    extracted.net(c).map(|en| {
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
                self.schedule,
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
/// against `cache`'s timing tier. Shared by [`run_flow_incremental`] and
/// the farm's scatter-gather flow so both replay identically:
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
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    process: &Process,
    config: &FlowConfig,
    keys: &TimingKeys<'_>,
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
            let c = cbv_timing::infer_constraints(netlist, recognition, process, &config.pessimism);
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
            let g = cbv_timing::graph_from_arcs(netlist, recognition, arcs);
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
    for (&c, key) in recognition.clock_nets.iter().zip(&keys.skews) {
        let skew = match *key {
            None => None,
            Some(key) => match cache.get_timing(&key) {
                Some(TimingPayload::Skew(s)) => {
                    hits += 1;
                    s.clone()
                }
                _ => {
                    misses += 1;
                    let s =
                        cbv_timing::clock_skew_bounds(extracted, c, r_driver, &config.tolerance);
                    fresh.push((key, TimingPayload::Skew(s.clone())));
                    s
                }
            },
        };
        skews.extend(skew);
    }

    let schedule = keys.schedule;
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
                netlist,
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
                netlist,
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

/// Runs the verification flow incrementally against a [`VerifyCache`].
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
    mut netlist: FlatNetlist,
    process: &Process,
    config: &FlowConfig,
    cache: &mut VerifyCache,
) -> FlowReport {
    let mut stages = Vec::new();
    let mut drc_violations = 0usize;
    let exec = Executor::threads(config.parallelism);
    let tracer = &config.tracer;
    let root = tracer.span_in(config.trace_parent, "flow");
    let flow = TraceCtx::under(tracer, &root);

    // 1–3. Recognition, layout, extraction: identical to the cold flow.
    let recognition = timed(&mut stages, flow, "recognize", |_| {
        let r = cbv_recognize::recognize(&mut netlist);
        let n = r.cccs.len();
        (r, n, None)
    });
    let layout = timed(&mut stages, flow, "layout", |_| {
        let l = cbv_layout::synthesize(&mut netlist, process);
        let n = l.shapes.len();
        (l, n, None)
    });
    if config.check_drc {
        let rules = cbv_layout::Rules::for_process(process);
        let violations = timed(&mut stages, flow, "drc", |_| {
            let v = cbv_layout::check_drc(&layout, &netlist, &rules, 10_000);
            let n = v.len();
            (v, n, None)
        });
        drc_violations = violations.len();
    }
    let extracted = timed(&mut stages, flow, "extract", |_| {
        let e = cbv_extract::extract(&layout, &netlist, process);
        let n = e.iter().count();
        (e, n, None)
    });

    let mut everify_cfg = EverifyConfig::for_process(process);
    everify_cfg.tolerance = config.tolerance;

    // 4. Fingerprint every unit and compute the dirty closure.
    let n_cccs = recognition.cccs.len();
    let (env, fps, dirty) = timed(&mut stages, flow, "fingerprint", |_| {
        let env = env_fingerprint(process, &config.tolerance, &config.pessimism, &everify_cfg);
        let fps = fingerprint_design(&netlist, &recognition, &extracted);
        let dirty = dirty_closure(cache, env, &fps, &recognition);
        let n_units = fps.units.len();
        ((env, fps, dirty), n_units, None)
    });

    // 5. Electrical battery (§4.2): re-verify dirty units in parallel,
    // replay the rest from cache. `per_unit` accumulates every unit's
    // payload in fixed unit order; timing arcs are filled in below. A
    // unit whose battery panics is isolated into a ToolError finding
    // naming it and marked *poisoned* — reported, but never cached.
    let scopes = CheckScope::partition(&netlist, &recognition);
    debug_assert_eq!(scopes.len(), fps.units.len());
    let dirty_units: Vec<usize> = (0..scopes.len()).filter(|&i| dirty[i]).collect();
    let everify_stats = CacheStats {
        hits: scopes.len() - dirty_units.len(),
        misses: dirty_units.len(),
        ..CacheStats::default()
    };
    let mut poisoned = vec![false; scopes.len()];
    let (ereport, mut per_unit) = timed(&mut stages, flow, "everify", |ctx| {
        let (fresh, busy) = exec.try_map_traced(
            ctx,
            dirty_units.clone(),
            |i| {
                check_deadline(config.deadline);
                cbv_everify::run_scoped(
                    &netlist,
                    &recognition,
                    &extracted,
                    Some(&layout),
                    process,
                    &everify_cfg,
                    &scopes[i],
                )
            },
            |k| format!("unit:{}", dirty_units[k]),
        );
        ctx.tracer.gauge("everify.busy_s", busy.as_secs_f64());
        let mut fresh = fresh.into_iter();
        let per_unit: Vec<UnitResult> = (0..scopes.len())
            .map(|i| {
                if dirty[i] {
                    match fresh.next().expect("one result per dirty unit") {
                        Ok(r) => UnitResult {
                            findings: r.raw_findings().to_vec(),
                            checked: r.checked_count(),
                            filtered: r.filtered_count(),
                            arcs: Vec::new(),
                        },
                        Err(p) => {
                            poisoned[i] = true;
                            UnitResult {
                                findings: vec![Finding {
                                    check: CheckKind::Tool,
                                    subject: Subject::Unit(i as u32),
                                    severity: Severity::ToolError,
                                    stress: f64::INFINITY,
                                    message: format!("everify unit {i} panicked: {}", p.message),
                                }],
                                checked: 0,
                                filtered: 0,
                                arcs: Vec::new(),
                            }
                        }
                    }
                } else {
                    cache
                        .get(&CacheKey::new(env, fps.units[i]))
                        .expect("clean unit has a cache entry")
                        .clone()
                }
            })
            .collect();
        let merged = cbv_everify::Report::from_parts(
            everify_cfg.filter_threshold,
            per_unit.iter().flat_map(|u| u.findings.clone()).collect(),
            per_unit.iter().map(|u| u.checked).sum(),
            per_unit.iter().map(|u| u.filtered).sum(),
        );
        let n = merged.checked_count();
        ((merged, per_unit), n, Some(busy))
    });
    stages.last_mut().expect("everify stage").cache = Some(everify_stats);
    tracer.add("cache.everify.hits", everify_stats.hits as u64);
    tracer.add("cache.everify.misses", everify_stats.misses as u64);
    tracer.add("fingerprint.dirty_units", dirty_units.len() as u64);

    // 6. Timing (§4.3): recompute arcs for dirty CCCs only, splice the
    // cached arcs back in CCC index order — reproducing the cold graph's
    // exact arc sequence — then run constraints, skew and STA as usual.
    let schedule = config.schedule.clone().unwrap_or_else(|| {
        let name = recognition
            .clock_nets
            .first()
            .map(|&c| netlist.net_name(c).to_owned())
            .unwrap_or_else(|| "clk".to_owned());
        ClockSchedule::single(name, process.f_target().period())
    });
    let calc = DelayCalc::new(process, config.tolerance, config.pessimism);
    let dirty_cccs: Vec<usize> = (0..n_cccs).filter(|&i| dirty[i]).collect();
    let mut timing_stats = CacheStats {
        hits: n_cccs - dirty_cccs.len(),
        misses: dirty_cccs.len(),
        ..CacheStats::default()
    };
    // Arc computations that panicked: the CCC's arcs are dropped (its
    // timing is unverified), the unit is poisoned, and a ToolError
    // finding is merged into the everify report so signoff cannot be
    // clean.
    let mut timing_panics: Vec<Finding> = Vec::new();
    let remainder = timed(&mut stages, flow, "timing", |ctx| {
        let (fresh_arcs, graph_busy) = exec.try_map_traced(
            ctx,
            dirty_cccs.clone(),
            |i| {
                check_deadline(config.deadline);
                cbv_timing::graph::ccc_arcs(&netlist, &recognition, &extracted, &calc, i)
            },
            |k| format!("arcs:{}", dirty_cccs[k]),
        );
        let serial_start = Instant::now();
        let mut fresh_arcs = fresh_arcs.into_iter();
        for (i, unit) in per_unit.iter_mut().take(n_cccs).enumerate() {
            if dirty[i] {
                match fresh_arcs.next().expect("one arc set per dirty CCC") {
                    Ok(arcs) => unit.arcs = arcs,
                    Err(p) => {
                        poisoned[i] = true;
                        unit.arcs = Vec::new();
                        timing_panics.push(Finding {
                            check: CheckKind::Tool,
                            subject: Subject::Unit(i as u32),
                            severity: Severity::ToolError,
                            stress: f64::INFINITY,
                            message: format!("timing arcs for CCC {i} panicked: {}", p.message),
                        });
                    }
                }
            }
        }
        let rem = timing_remainder(
            &netlist,
            &recognition,
            &extracted,
            process,
            config,
            &TimingKeys::of(&netlist, &recognition, &extracted, env, &schedule),
            &per_unit[..n_cccs],
            &fps.units[..n_cccs],
            cache,
            ctx,
        );
        ctx.tracer
            .gauge("timing.graph_busy_s", graph_busy.as_secs_f64());
        let n_arcs = rem.n_arcs;
        let cpu = graph_busy + serial_start.elapsed();
        (rem, n_arcs, Some(cpu))
    });
    let TimingRemainder {
        sta,
        n_constraints,
        hits: rem_hits,
        misses: rem_misses,
        fresh: fresh_timing,
        ..
    } = remainder;
    timing_stats.hits += rem_hits;
    timing_stats.misses += rem_misses;
    stages.last_mut().expect("timing stage").cache = Some(timing_stats);
    tracer.add("cache.timing.hits", timing_stats.hits as u64);
    tracer.add("cache.timing.misses", timing_stats.misses as u64);

    // Prime the cache with the re-verified units, now that both their
    // findings and arcs are known. Poisoned units (battery or arc panic)
    // are *not* cached: their stored payload would be the failure
    // artifact, and a later run must re-attempt them. On a bounded
    // cache these inserts may evict; the delta lands in the everify
    // stage's stats so a daemon's flow summaries show cache pressure.
    let evictions_before = cache.evictions();
    let mut fresh_keys = Vec::new();
    for i in 0..per_unit.len() {
        if dirty[i] && !poisoned[i] {
            let key = CacheKey::new(env, fps.units[i]);
            cache.insert(key, std::mem::take(&mut per_unit[i]));
            fresh_keys.push(key);
        }
    }
    let evicted = cache.evictions() - evictions_before;
    if let Some(stats) = stages
        .iter_mut()
        .find(|s| s.stage == "everify")
        .and_then(|s| s.cache.as_mut())
    {
        stats.evictions = evicted;
    }
    tracer.add("cache.evictions", evicted as u64);

    // Prime the timing tier with the remainder artifacts — but only on
    // an unpoisoned run: a poisoned run's remainder was computed over
    // degraded arcs (dropped units), and a timed-out or crashed flow
    // must leave the cache exactly as it found it.
    let mut fresh_timing_keys: Vec<TimingKey> = Vec::new();
    if !poisoned.iter().any(|&p| p) {
        let tevict_before = cache.timing_evictions();
        for (key, payload) in fresh_timing {
            cache.insert_timing(key, payload);
            fresh_timing_keys.push(key);
        }
        let tevicted = cache.timing_evictions() - tevict_before;
        if let Some(stats) = stages
            .iter_mut()
            .find(|s| s.stage == "timing")
            .and_then(|s| s.cache.as_mut())
        {
            stats.evictions = tevicted;
        }
        tracer.add("cache.timing.evictions", tevicted as u64);
    }

    // 7. Power estimation (§3) — cheap, always recomputed.
    let power = timed(&mut stages, flow, "power", |_| {
        let p = cbv_power::dynamic_power(
            &netlist,
            &recognition,
            &extracted,
            process,
            process.f_target(),
            &ActivityModel::uniform(config.activity),
        );
        (p, 1, None)
    });

    let mut ereport = ereport;
    if !timing_panics.is_empty() {
        ereport.merge(cbv_everify::Report::from_parts(
            everify_cfg.filter_threshold,
            timing_panics,
            0,
            0,
        ));
    }
    cbv_everify::finding_counters(&ereport, flow);

    let mut signoff = Signoff::default();
    if config.check_drc {
        signoff.add_drc(drc_violations);
    }
    signoff.add_everify(&ereport);
    signoff.add_timing(&sta, n_constraints);
    signoff.set_power(power.total());

    drop(root);
    tracer.flush();

    FlowReport {
        stages,
        recognition,
        signoff,
        everify: ereport,
        sta,
        netlist,
        fresh: fresh_keys,
        fresh_timing: fresh_timing_keys,
    }
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
        assert!(
            r.total_cpu_time().seconds() >= r.total_runtime().seconds() * 0.5,
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
    fn incremental_matches_cold_and_hits_warm() {
        let p = Process::strongarm_035();
        let cfg = FlowConfig::default();
        let cold = run_flow(static_ripple_adder(4, &p).netlist, &p, &cfg);
        let cold_json = serde_json::to_string(&cold.signoff).unwrap();

        let mut cache = VerifyCache::new();
        let first = run_flow_incremental(static_ripple_adder(4, &p).netlist, &p, &cfg, &mut cache);
        assert_eq!(serde_json::to_string(&first.signoff).unwrap(), cold_json);
        let estats = first.stages.iter().find(|s| s.stage == "everify").unwrap();
        assert_eq!(estats.cache.unwrap().hits, 0, "cold cache: all misses");
        assert!(!cache.is_empty());

        let second = run_flow_incremental(static_ripple_adder(4, &p).netlist, &p, &cfg, &mut cache);
        assert_eq!(serde_json::to_string(&second.signoff).unwrap(), cold_json);
        for stage in &second.stages {
            if let Some(stats) = stage.cache {
                assert_eq!(
                    stats.misses, 0,
                    "{}: warm rerun must be all hits",
                    stage.stage
                );
                assert!(stats.hits > 0);
            }
        }
        assert_eq!(
            second.stages.len(),
            7,
            "incremental adds a fingerprint stage"
        );
    }

    #[test]
    fn expired_deadline_poisons_every_dirty_unit() {
        let p = Process::strongarm_035();
        let cfg = FlowConfig {
            // Already expired when the first unit closure runs: every
            // dirty unit deterministically takes the timeout path.
            deadline: Some(Instant::now()),
            ..FlowConfig::default()
        };
        let mut cache = VerifyCache::new();
        let r = run_flow_incremental(static_ripple_adder(4, &p).netlist, &p, &cfg, &mut cache);
        assert!(!r.signoff.clean(), "timed-out flow must not sign off");
        let tool_errors = r
            .everify
            .raw_findings()
            .iter()
            .filter(|f| f.severity == Severity::ToolError)
            .count();
        // Battery pass: every unit (CCCs + residue). Arc pass: CCCs only.
        let n_cccs = r.recognition.cccs.len();
        assert_eq!(
            tool_errors,
            2 * n_cccs + 1,
            "every unit times out in the battery, every CCC in the arc pass"
        );
        assert!(cache.is_empty(), "poisoned units are never cached");

        // The same design without a deadline signs off and fills the
        // cache: the timeout path left no residue behind.
        let clean = run_flow_incremental(
            static_ripple_adder(4, &p).netlist,
            &p,
            &FlowConfig::default(),
            &mut cache,
        );
        assert!(clean.signoff.clean(), "{}", clean.signoff);
        assert!(!cache.is_empty());
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
