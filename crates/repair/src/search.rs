//! The repair search: greedy per finding with a bounded beam over
//! interacting findings, under the incremental oracle.
//!
//! # How a step is found
//!
//! 1. Verify the broken design once (this primes the incremental
//!    cache; every later probe re-verifies only its one-site dirty
//!    closure).
//! 2. Resolve the worst violating findings to recognized sites
//!    ([`cbv_core::oracle::finding_site`]) and intersect each with its
//!    class's site filter ([`cbv_core::mutate::check_site_devices`]) —
//!    writability aims at the keeper, charge sharing at the internal
//!    stack, setup slack at the worst STA path.
//! 3. Expand each aimed device through the magnitude ladder. Parametric
//!    candidates are *divisions*: the probe geometry is `w / g`, not
//!    `w * (1/g)`, because division round-trips the mutant's own
//!    multiplication exactly — the repaired design can be bit-identical
//!    to the pre-mutation baseline.
//! 4. Probe candidates under the oracle, applying each [`Edit`] and
//!    reverting it through its exact undo record so cache bindings
//!    survive. A candidate that silences every detector
//!    is accepted immediately; otherwise the best strict improvement
//!    wins. When no single candidate improves, a bounded beam tries
//!    two-step combinations (interacting findings).
//! 5. Accepted steps are pruned back-to-front: a step whose removal
//!    keeps the goal satisfied is dropped — the emitted batch is
//!    minimal.
//!
//! The no-regression rule is enforced per probe: a candidate whose
//! observation fires a finding class the broken design did not already
//! have is discarded (counted in `rejected_regression`), so an emitted
//! plan can never introduce a new class.

use cbv_core::cache::VerifyCache;
use cbv_core::everify::{CheckKind, Severity};
use cbv_core::flow::{run_flow_incremental, FlowConfig, FlowReport};
use cbv_core::mutate::{
    self, check_site_devices, Edit, FlowObservation, MutationOp, Site, UndoRecord,
};
use cbv_core::netlist::{DeviceId, FlatNetlist, NetId};
use cbv_core::oracle::{finding_site, observe, site_devices, site_unit};
use cbv_core::tech::{Farads, Process};
use cbv_core::timing::{size_path, ViolationKind};

use crate::plan::{RepairPlan, RepairStep};

/// What the search restores toward.
#[derive(Debug, Clone, Default)]
pub struct RepairConfig {
    /// Maximum accepted steps in a plan (0 = default 6).
    pub max_steps: usize,
    /// Oracle-call budget for the whole search (0 = default 120).
    pub max_oracle_calls: usize,
    /// The known-good observation to restore toward. `None` means
    /// "repair to a clean signoff" (an all-zero baseline).
    pub baseline: Option<FlowObservation>,
    /// The known-good signoff bytes; when present the search
    /// short-circuits on an exact byte match and reports
    /// `byte_identical`.
    pub target_signoff: Option<String>,
}

impl RepairConfig {
    fn max_steps(&self) -> usize {
        if self.max_steps == 0 {
            6
        } else {
            self.max_steps
        }
    }
    fn max_oracle_calls(&self) -> usize {
        if self.max_oracle_calls == 0 {
            120
        } else {
            self.max_oracle_calls
        }
    }
}

/// Division ladders: candidate geometry is `current / g`. Ordered with
/// the default E16 mutant magnitudes first so the exact inverse of a
/// standard mutant is probed early.
const W_LADDER: [f64; 8] = [12.0, 0.1, 2.0, 0.5, 4.0, 0.25, 8.0, 0.125];
const L_LADDER: [f64; 6] = [0.6, 2.0, 0.5, 1.25, 0.8, 4.0];
const K_LADDER: [(f64, f64); 8] = [
    (25.0, 0.5),
    (0.25, 1.0),
    (4.0, 1.0),
    (0.5, 1.0),
    (2.0, 1.0),
    (0.0625, 1.0),
    (12.0, 1.0),
    (0.1, 1.0),
];

/// Beam width over interacting findings.
const BEAM_WIDTH: usize = 3;

/// Caps keeping one step's candidate list bounded.
const MAX_AIMS: usize = 6;
const MAX_DEVICES_PER_AIM: usize = 4;
const MAX_PATH_DEVICES: usize = 12;
const MAX_BEAM_FOLLOWUPS: usize = 16;

#[derive(Debug, Clone)]
struct Candidate {
    edits: Vec<Edit>,
    why: String,
}

/// One step's candidate list. A single-edit candidate is dropped when
/// an earlier single-edit candidate made the same edit.
#[derive(Default)]
struct Candidates {
    list: Vec<Candidate>,
    seen: Vec<Edit>,
}

impl Candidates {
    fn push(&mut self, c: Candidate) {
        if let [e] = c.edits.as_slice() {
            if self.seen.contains(e) {
                return;
            }
            self.seen.push(e.clone());
        }
        self.list.push(c);
    }

    /// Adds the one-edit candidate that resizes `device` to `w` × `l`.
    fn resize(&mut self, device: DeviceId, w: f64, l: f64, why: String) {
        let edits = vec![Edit::Resize { device, w, l }];
        self.push(Candidate { edits, why });
    }
}

/// Lexicographic distance from the goal: fired detectors, then excess
/// violations over the baseline, then stress overshoot.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Score {
    fired: usize,
    excess: usize,
    stress: f64,
}

impl Score {
    fn of(obs: &FlowObservation, base: &FlowObservation) -> Score {
        let fired = obs.fired_against(base).len();
        let excess = obs
            .check_violations
            .iter()
            .zip(&base.check_violations)
            .map(|(v, b)| v.saturating_sub(*b))
            .sum::<usize>()
            + obs.timing_violations.saturating_sub(base.timing_violations);
        let stress = obs
            .check_max_stress
            .iter()
            .zip(&base.check_max_stress)
            .map(|(s, b)| (s - b).abs())
            .sum();
        Score {
            fired,
            excess,
            stress,
        }
    }

    fn done(&self) -> bool {
        self.fired == 0 && self.excess == 0
    }

    fn better_than(&self, other: &Score) -> bool {
        if (self.fired, self.excess) != (other.fired, other.excess) {
            (self.fired, self.excess) < (other.fired, other.excess)
        } else {
            self.stress < other.stress - 1e-12
        }
    }
}

/// Incremental oracle with cost accounting.
struct Oracle<'a> {
    process: Process,
    config: FlowConfig,
    cache: &'a mut VerifyCache,
    calls: usize,
    units_reverified: usize,
}

impl Oracle<'_> {
    fn verify(&mut self, netlist: &FlatNetlist) -> (FlowReport, FlowObservation) {
        let report = run_flow_incremental(netlist.clone(), &self.process, &self.config, self.cache);
        let obs = observe(&report);
        self.calls += 1;
        self.units_reverified += obs.cache_misses;
        (report, obs)
    }
}

fn zero_baseline() -> FlowObservation {
    FlowObservation {
        check_violations: vec![0; CheckKind::ALL.len()],
        check_max_stress: vec![0.0; CheckKind::ALL.len()],
        timing_violations: 0,
        verify_cpu: 0.0,
        cache_hits: 0,
        cache_misses: 0,
    }
}

/// Classes (plus timing) allowed to be violating after a repair: those
/// the broken design or the restore target already had.
fn allowed_classes(broken: &FlowObservation, base: &FlowObservation) -> (Vec<bool>, bool) {
    let checks = broken
        .check_violations
        .iter()
        .zip(&base.check_violations)
        .map(|(m, b)| *m > 0 || *b > 0)
        .collect();
    let timing = broken.timing_violations > 0 || base.timing_violations > 0;
    (checks, timing)
}

fn introduces_new_class(obs: &FlowObservation, allowed: &(Vec<bool>, bool)) -> bool {
    obs.check_violations
        .iter()
        .zip(&allowed.0)
        .any(|(v, ok)| *v > 0 && !ok)
        || (obs.timing_violations > 0 && !allowed.1)
}

fn total_violations(obs: &FlowObservation) -> usize {
    obs.check_violations.iter().sum::<usize>() + obs.timing_violations
}

fn apply_candidate(netlist: &mut FlatNetlist, cand: &Candidate) -> Option<Vec<UndoRecord>> {
    let mut applied = Vec::with_capacity(cand.edits.len());
    for e in &cand.edits {
        match e.apply(netlist) {
            Ok(u) => applied.push(u),
            Err(_) => {
                revert_all(netlist, applied);
                return None;
            }
        }
    }
    Some(applied)
}

fn revert_all(netlist: &mut FlatNetlist, applied: Vec<UndoRecord>) {
    for u in applied.into_iter().rev() {
        u.revert(netlist);
    }
}

/// The step-local candidate generator: aims at the worst differential
/// findings and the worst timing path, deterministically.
fn candidates(
    work: &FlatNetlist,
    report: &FlowReport,
    base: &FlowObservation,
    process: &Process,
) -> Vec<Candidate> {
    let mut out = Candidates::default();

    // Which electrical classes fire against the restore target? Aim only
    // at those; on a dirty baseline the pre-existing findings are noise.
    let fired = report_fired_checks(report, base);

    // Rank the violating findings of fired classes before spending the
    // bounded aims. A dirty baseline can hold more pre-existing
    // violations of a fired class than MAX_AIMS, and report order would
    // waste every aim on them; within one class the freshly broken
    // device usually posts the extreme stress. The report's canonical
    // order already puts each class's findings highest stress first, so
    // round-robin across the fired classes — every fired class gets its
    // most-stressed finding aimed before any class gets its second.
    let ranked: Vec<&cbv_core::everify::Finding> = {
        let mut per_class: Vec<Vec<(usize, &cbv_core::everify::Finding)>> =
            vec![Vec::new(); CheckKind::ALL.len()];
        for (i, f) in report.everify.findings().iter().enumerate() {
            if f.severity < Severity::Violation || !fired.contains(&f.check) {
                continue;
            }
            let k = CheckKind::ALL
                .iter()
                .position(|c| *c == f.check)
                .expect("canonical check");
            per_class[k].push((i, f));
        }
        let mut ranked = Vec::new();
        let mut depth = 0usize;
        loop {
            // One layer = each fired class's depth-th finding; order the
            // layer by stress so the hottest class probes first and the
            // cheap exact restore is scanned before milder aims burn
            // budget.
            let mut layer: Vec<(usize, &cbv_core::everify::Finding)> = Vec::new();
            for v in &per_class {
                if let Some(&(i, f)) = v.get(depth) {
                    layer.push((i, f));
                }
            }
            if layer.is_empty() {
                break;
            }
            layer.sort_by(|(i, a), (j, b)| b.stress.total_cmp(&a.stress).then(i.cmp(j)));
            ranked.extend(layer.into_iter().map(|(_, f)| f));
            depth += 1;
        }
        ranked
    };

    let mut aims = 0usize;
    for f in ranked {
        if aims >= MAX_AIMS {
            break;
        }
        let Some(site) = finding_site(report, f) else {
            continue;
        };
        // Aim first at the devices the finding names directly; widen
        // to the owning unit only when the subject resolves to none (a
        // clock net, say), or when the class filter rejects every
        // directly-named device. A device-subject finding must never
        // lose its own device to the widening.
        let unit_devices = |report: &FlowReport| -> Vec<DeviceId> {
            let Some(unit) = site_unit(report, site) else {
                return Vec::new();
            };
            let mut devs = report.recognition.cccs[unit.index()].devices.clone();
            devs.sort_unstable();
            devs.dedup();
            devs
        };
        let mut devs = site_devices(report, site);
        if devs.is_empty() {
            devs = unit_devices(report);
        }
        let class_sites = check_site_devices(f.check, work, &report.recognition);
        let mut aimed: Vec<DeviceId> = devs
            .iter()
            .copied()
            .filter(|d| class_sites.binary_search(d).is_ok())
            .collect();
        if aimed.is_empty() {
            aimed = unit_devices(report)
                .into_iter()
                .filter(|d| class_sites.binary_search(d).is_ok())
                .collect();
        }
        if aimed.is_empty() {
            aimed = devs;
        }
        aimed = top_anomalous(work, aimed);
        if aimed.is_empty() {
            continue;
        }
        aims += 1;
        for op in MutationOp::repair_ops_for_check(f.check) {
            for &dev in &aimed {
                let d = work.device(dev);
                let why = |what: &str, g: f64| format!("{}: {what} `{}` /{g}", f.check, d.name);
                match op {
                    MutationOp::WidthScale { .. } | MutationOp::BetaSkew { .. } => {
                        for g in W_LADDER {
                            out.resize(dev, d.w / g, d.l, why("width of", g));
                        }
                    }
                    MutationOp::LengthScale { .. } => {
                        for g in L_LADDER {
                            out.resize(dev, d.w, d.l / g, why("length of", g));
                        }
                    }
                    MutationOp::KeeperResize { .. } => {
                        for (gw, gl) in K_LADDER {
                            out.resize(dev, d.w / gw, d.l / gl, why("keeper", gw));
                        }
                    }
                    _ => {}
                }
            }
        }
        // Structural cures for structural damage: a polarity swap is
        // self-inverse, and a floating gate can be rewired back onto a
        // unit input.
        for &dev in &aimed {
            out.push(Candidate {
                edits: vec![Edit::Op {
                    op: MutationOp::PolaritySwap,
                    site: Site::Device(dev),
                }],
                why: format!("{}: polarity of `{}`", f.check, work.device(dev).name),
            });
        }
    }

    // Timing: the worst setup path, sized with the §2.2 machinery, plus
    // division probes on the path's stage devices.
    if report.sta.violations.len() > base.timing_violations {
        timing_candidates(work, report, process, &mut out);
    }

    out.list
}

/// Order an aim's candidate devices so geometry outliers probe first,
/// then truncate to `MAX_DEVICES_PER_AIM`.
///
/// Parametric damage makes the broken device's W or L stand out from
/// its peers on the same net or unit, but device ids carry no such
/// signal — truncating an id-ordered list can cut the one device the
/// finding actually points at. Rank by log-geometry distance from the
/// peer median instead (log space so a x12 width and a /12 width are
/// equally suspicious), ties broken by id for determinism.
fn top_anomalous(work: &FlatNetlist, mut devs: Vec<DeviceId>) -> Vec<DeviceId> {
    if devs.len() > MAX_DEVICES_PER_AIM {
        let median = |mut xs: Vec<f64>| -> f64 {
            xs.sort_by(f64::total_cmp);
            xs[xs.len() / 2]
        };
        let mw = median(devs.iter().map(|&d| work.device(d).w.ln()).collect());
        let ml = median(devs.iter().map(|&d| work.device(d).l.ln()).collect());
        let score = |d: DeviceId| -> f64 {
            let dev = work.device(d);
            (dev.w.ln() - mw).abs() + (dev.l.ln() - ml).abs()
        };
        devs.sort_by(|&a, &b| score(b).total_cmp(&score(a)).then(a.cmp(&b)));
        devs.truncate(MAX_DEVICES_PER_AIM);
    }
    devs
}

/// Which check kinds fire against the baseline (count or stress).
fn report_fired_checks(report: &FlowReport, base: &FlowObservation) -> Vec<CheckKind> {
    let obs = observe(report);
    obs.fired_against(base)
        .into_iter()
        .filter_map(|d| match d {
            mutate::Detector::Check(k) => Some(k),
            mutate::Detector::Timing => None,
        })
        .collect()
}

fn timing_candidates(
    work: &FlatNetlist,
    report: &FlowReport,
    process: &Process,
    out: &mut Candidates,
) {
    let Some(worst) = report.sta.of_kind(ViolationKind::Setup).next() else {
        return;
    };
    // Stage devices along the violating path: the driver unit of each
    // reached net, launch first.
    let mut stages: Vec<Vec<DeviceId>> = Vec::new();
    let mut last_unit = usize::MAX;
    for step in &worst.path {
        let Some(i) = driver_unit(report, step.net) else {
            continue;
        };
        if i == last_unit {
            continue;
        }
        last_unit = i;
        stages.push(report.recognition.cccs[i].devices.clone());
    }
    if stages.is_empty() {
        return;
    }
    // Composite candidate: logical-effort sizing of the whole chain.
    let c_load = capture_load(work, worst.net, process);
    let mut sized = work.clone();
    let result = size_path(&mut sized, &stages, c_load, process);
    let mut edits = Vec::new();
    for stage in &stages {
        for &d in stage {
            if sized.device(d).w != work.device(d).w {
                edits.push(Edit::Resize {
                    device: d,
                    w: sized.device(d).w,
                    l: sized.device(d).l,
                });
            }
        }
    }
    if !edits.is_empty() {
        out.list.push(Candidate {
            edits,
            why: format!(
                "timing: size worst path ({} stages, {:.0} ps -> {:.0} ps)",
                stages.len(),
                result.delay_before.seconds() * 1e12,
                result.delay_after.seconds() * 1e12,
            ),
        });
    }
    // Per-device division probes (exact restore of a slowed device).
    let mut path_devs: Vec<DeviceId> = stages.into_iter().flatten().collect();
    path_devs.sort_unstable();
    path_devs.dedup();
    for dev in path_devs.into_iter().take(MAX_PATH_DEVICES) {
        let d = work.device(dev);
        for g in [0.1, 12.0, 0.5, 2.0, 0.25] {
            let why = format!("timing: width of `{}` /{g}", d.name);
            out.resize(dev, d.w / g, d.l, why);
        }
        for g in [0.6, 2.0] {
            let why = format!("timing: length of `{}` /{g}", d.name);
            out.resize(dev, d.w, d.l / g, why);
        }
    }
}

fn driver_unit(report: &FlowReport, net: NetId) -> Option<usize> {
    report
        .recognition
        .cccs
        .iter()
        .position(|c| c.outputs.contains(&net))
}

fn capture_load(work: &FlatNetlist, net: NetId, process: &Process) -> Farads {
    let load: f64 = work
        .net_uses(net)
        .iter()
        .map(|u| u.device())
        .filter(|&d| work.device(d).gate == net)
        .map(|d| {
            let dev = work.device(d);
            process
                .mos(dev.kind)
                .gate_capacitance(dev.w, dev.l)
                .farads()
        })
        .sum();
    if load > 0.0 {
        Farads::new(load)
    } else {
        Farads::new(1e-15)
    }
}

/// Applies a plan's steps to a netlist (the in-process replay used by
/// determinism tests and the daemon's byte-identity check). Stops at
/// the first step [`Edit::apply`] rejects and returns its error; the
/// steps before it stay applied.
pub fn replay_plan(netlist: &mut FlatNetlist, plan: &RepairPlan) -> Result<(), String> {
    for (k, step) in plan.steps.iter().enumerate() {
        step.edit
            .apply(netlist)
            .map_err(|e| format!("step {k}: {e}"))?;
    }
    Ok(())
}

/// Verifies a known-good netlist through `cache` and returns its
/// observation plus canonical signoff bytes — ready to install as
/// [`RepairConfig::baseline`] and [`RepairConfig::target_signoff`] for
/// a "restore what the ECOs broke" search. Priming the same cache the
/// repair will run against is free: the search's accounting reset makes
/// the emitted plan byte-identical either way.
pub fn restore_target(
    clean: &FlatNetlist,
    process: &Process,
    flow: &FlowConfig,
    cache: &mut VerifyCache,
) -> (FlowObservation, String) {
    let report = run_flow_incremental(clean.clone(), process, flow, cache);
    let obs = observe(&report);
    let signoff =
        serde_json::to_string(&report.signoff).expect("signoff serialization is infallible");
    (obs, signoff)
}

/// Repairs a failing design: searches for a verified minimal ECO batch
/// that restores the goal (clean signoff, or the supplied baseline).
/// See the module docs for the search shape. The returned plan is
/// byte-stable across thread counts and cache states.
pub fn repair(
    netlist: &FlatNetlist,
    process: &Process,
    flow: &FlowConfig,
    cfg: &RepairConfig,
) -> RepairPlan {
    repair_warm(netlist, process, flow, cfg, &mut VerifyCache::new())
}

/// [`repair`] against a caller-owned (possibly pre-primed) verification
/// cache. The emitted plan is byte-identical either way: the search's
/// first verify primes every unit, so probe accounting never sees the
/// caller's cache temperature.
pub fn repair_warm(
    netlist: &FlatNetlist,
    process: &Process,
    flow: &FlowConfig,
    cfg: &RepairConfig,
    cache: &mut VerifyCache,
) -> RepairPlan {
    let base = cfg.baseline.clone().unwrap_or_else(zero_baseline);
    let mut oracle = Oracle {
        process: process.clone(),
        config: flow.clone(),
        cache,
        calls: 0,
        units_reverified: 0,
    };
    let mut work = netlist.clone();
    // Recognition for the site filters: the campaign's pattern —
    // recognize a scratch clone, ids are stable.
    let mut transcript = Vec::new();
    let mut attempts = 0usize;
    let mut rejected_regression = 0usize;

    let (mut report, obs) = oracle.verify(&work);
    // The first verify primes every unit; zero the re-verify counter so
    // probe accounting is identical whether the caller's cache arrived
    // cold or warm.
    oracle.units_reverified = 0;
    let broken_signoff =
        serde_json::to_string(&report.signoff).expect("signoff serialization is infallible");
    let allowed = allowed_classes(&obs, &base);
    let mut current = Score::of(&obs, &base);
    transcript.push(format!(
        "start: {} violations, score ({}, {}, {:.3})",
        total_violations(&obs),
        current.fired,
        current.excess,
        current.stress
    ));

    let mut steps: Vec<RepairStep> = Vec::new();
    let mut mutations: Vec<UndoRecord> = Vec::new();
    let mut rejected: Option<String> = None;

    let matches_target =
        |signoff: &str, cfg: &RepairConfig| cfg.target_signoff.as_deref() == Some(signoff);

    'outer: while !current.done() && steps.len() < cfg.max_steps() {
        if oracle.calls >= cfg.max_oracle_calls() {
            rejected = Some("oracle budget exhausted".into());
            break;
        }
        let cands = candidates(&work, &report, &base, &oracle.process);
        if cands.is_empty() {
            rejected = Some("no candidate repairs for the open findings".into());
            break;
        }
        let calls_before = oracle.calls;
        let units_before = oracle.units_reverified;

        // Greedy scan. A candidate whose signoff matches the byte
        // target exactly wins on the spot; a merely *quiet* candidate
        // is remembered but the scan keeps looking for the exact one
        // (the division ladder usually contains the mutation's literal
        // inverse, and byte-identity beats byte-adjacency).
        let mut best: Option<(usize, Score, FlowReport, FlowObservation)> = None;
        let mut done_fallback: Option<(usize, Score, FlowReport, FlowObservation)> = None;
        let mut scored: Vec<(usize, Score)> = Vec::new();
        for (i, cand) in cands.iter().enumerate() {
            if oracle.calls >= cfg.max_oracle_calls() {
                break;
            }
            let Some(applied) = apply_candidate(&mut work, cand) else {
                continue;
            };
            let (r, o) = oracle.verify(&work);
            attempts += 1;
            let score = Score::of(&o, &base);
            let regression = introduces_new_class(&o, &allowed);
            if regression {
                rejected_regression += 1;
                revert_all(&mut work, applied);
                continue;
            }
            if score.done() {
                let signoff =
                    serde_json::to_string(&r.signoff).expect("signoff serialization is infallible");
                if cfg.target_signoff.is_none() || matches_target(&signoff, cfg) {
                    accept_step(
                        &mut steps,
                        &mut mutations,
                        &mut transcript,
                        cand,
                        applied,
                        &o,
                        oracle.calls - calls_before,
                        oracle.units_reverified - units_before,
                    );
                    report = r;
                    current = score;
                    break 'outer;
                }
                if done_fallback.is_none() {
                    done_fallback = Some((i, score, r, o));
                }
                revert_all(&mut work, applied);
                continue;
            }
            scored.push((i, score));
            if score.better_than(&current)
                && best
                    .as_ref()
                    .is_none_or(|(_, b, _, _)| score.better_than(b))
            {
                best = Some((i, score, r, o));
            }
            revert_all(&mut work, applied);
        }

        if let Some((i, score, r, o)) = done_fallback {
            // No candidate hit the byte target; take the quiet one.
            let cand = &cands[i];
            let applied = apply_candidate(&mut work, cand).expect("winning candidate re-applies");
            accept_step(
                &mut steps,
                &mut mutations,
                &mut transcript,
                cand,
                applied,
                &o,
                oracle.calls - calls_before,
                oracle.units_reverified - units_before,
            );
            report = r;
            current = score;
            break 'outer;
        }

        if let Some((i, score, r, o)) = best {
            let cand = &cands[i];
            let applied = apply_candidate(&mut work, cand).expect("winning candidate re-applies");
            accept_step(
                &mut steps,
                &mut mutations,
                &mut transcript,
                cand,
                applied,
                &o,
                oracle.calls - calls_before,
                oracle.units_reverified - units_before,
            );
            report = r;
            current = score;
            continue;
        }

        // Bounded beam: no single candidate improved — try the best
        // few as intermediates and search one step past each.
        scored.sort_by(|a, b| {
            if a.1.better_than(&b.1) {
                std::cmp::Ordering::Less
            } else if b.1.better_than(&a.1) {
                std::cmp::Ordering::Greater
            } else {
                a.0.cmp(&b.0)
            }
        });
        for &(i, _) in scored.iter().take(BEAM_WIDTH) {
            if oracle.calls >= cfg.max_oracle_calls() {
                break;
            }
            let cand = &cands[i];
            let Some(applied) = apply_candidate(&mut work, cand) else {
                continue;
            };
            let (mid_report, mid_obs) = oracle.verify(&work);
            attempts += 1;
            if introduces_new_class(&mid_obs, &allowed) {
                rejected_regression += 1;
                revert_all(&mut work, applied);
                continue;
            }
            let followups = candidates(&work, &mid_report, &base, &oracle.process);
            for f in followups.iter().take(MAX_BEAM_FOLLOWUPS) {
                if oracle.calls >= cfg.max_oracle_calls() {
                    break;
                }
                let Some(applied2) = apply_candidate(&mut work, f) else {
                    continue;
                };
                let (r2, o2) = oracle.verify(&work);
                attempts += 1;
                let score2 = Score::of(&o2, &base);
                let regression = introduces_new_class(&o2, &allowed);
                if regression {
                    rejected_regression += 1;
                } else if score2.better_than(&current) {
                    // Accept the pair.
                    let half = (oracle.calls - calls_before) / 2;
                    let uhalf = (oracle.units_reverified - units_before) / 2;
                    accept_step(
                        &mut steps,
                        &mut mutations,
                        &mut transcript,
                        cand,
                        applied,
                        &mid_obs,
                        half,
                        uhalf,
                    );
                    accept_step(
                        &mut steps,
                        &mut mutations,
                        &mut transcript,
                        f,
                        applied2,
                        &o2,
                        (oracle.calls - calls_before) - half,
                        (oracle.units_reverified - units_before) - uhalf,
                    );
                    report = r2;
                    current = score2;
                    continue 'outer;
                }
                revert_all(&mut work, applied2);
            }
            revert_all(&mut work, applied);
        }
        rejected = Some("no improving candidate within the beam".into());
        break;
    }

    if !current.done() && rejected.is_none() {
        rejected = Some(if steps.len() >= cfg.max_steps() {
            "step budget exhausted".into()
        } else {
            "search stalled".into()
        });
    }

    // Prune: drop steps whose removal keeps the goal satisfied, newest
    // first (the emitted batch is minimal).
    if current.done() && steps.len() > 1 {
        let mut idx = steps.len();
        while idx > 0 {
            idx -= 1;
            if oracle.calls >= cfg.max_oracle_calls() || steps.len() == 1 {
                break;
            }
            let m = mutations[idx].clone();
            m.revert(&mut work);
            let (r, o) = oracle.verify(&work);
            let score = Score::of(&o, &base);
            if score.done() && !introduces_new_class(&o, &allowed) {
                transcript.push(format!("prune: step {} unnecessary, dropped", idx + 1));
                steps.remove(idx);
                mutations.remove(idx);
                report = r;
                current = score;
            } else {
                // Re-apply and restore the verified state.
                mutations[idx] = steps[idx]
                    .edit
                    .apply(&mut work)
                    .expect("accepted step re-applies");
                let (r, o) = oracle.verify(&work);
                report = r;
                current = Score::of(&o, &base);
            }
        }
    }

    let repaired = current.done();
    let signoff_json = if repaired {
        serde_json::to_string(&report.signoff).expect("signoff serialization is infallible")
    } else {
        // A rejected plan ships no edits: report the broken signoff.
        broken_signoff
    };
    let byte_identical = cfg
        .target_signoff
        .as_deref()
        .map(|t| repaired && t == signoff_json);
    if !repaired {
        steps.clear();
        transcript.push(format!(
            "rejected: {}",
            rejected.as_deref().unwrap_or("unknown")
        ));
    } else {
        rejected = None;
        transcript.push(format!(
            "done: {} steps, {} oracle calls, {} units re-verified",
            steps.len(),
            oracle.calls,
            oracle.units_reverified
        ));
    }

    RepairPlan {
        design: netlist.name().to_string(),
        repaired,
        byte_identical,
        steps,
        oracle_calls: oracle.calls,
        units_reverified: oracle.units_reverified,
        attempts,
        rejected_regression,
        rejected,
        transcript,
        signoff_json,
    }
}

#[allow(clippy::too_many_arguments)]
fn accept_step(
    steps: &mut Vec<RepairStep>,
    mutations: &mut Vec<UndoRecord>,
    transcript: &mut Vec<String>,
    cand: &Candidate,
    applied: Vec<UndoRecord>,
    obs: &FlowObservation,
    oracle_calls: usize,
    units_reverified: usize,
) {
    let violations_after = total_violations(obs);
    for (edit, m) in cand.edits.iter().zip(applied) {
        steps.push(RepairStep {
            edit: edit.clone(),
            description: cand.why.clone(),
            oracle_calls,
            units_reverified,
            violations_after,
        });
        mutations.push(m);
    }
    transcript.push(format!(
        "step {}: {} -> {} violations ({} oracle calls)",
        steps.len(),
        cand.why,
        violations_after,
        oracle_calls
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_core::mutate::keeper_devices;

    fn process() -> Process {
        Process::strongarm_035()
    }

    fn broken_domino() -> (FlatNetlist, FlatNetlist) {
        let p = process();
        let clean = cbv_core::gen::latches::keeper_domino(&p, 1e-6).netlist;
        let rec = cbv_core::recognize::recognize(&clean);
        let keeper = keeper_devices(&clean, &rec)[0];
        let mut broken = clean.clone();
        mutate::apply(
            &mut broken,
            &MutationOp::KeeperResize {
                w_factor: 0.25,
                l_factor: 1.0,
            },
            Site::Device(keeper),
        )
        .unwrap();
        (clean, broken)
    }

    #[test]
    fn keeper_shrink_repairs_to_byte_identical_signoff() {
        let p = process();
        let flow = FlowConfig::default();
        let (clean, broken) = broken_domino();
        let clean_report = cbv_core::flow::run_flow(clean.clone(), &p, &flow);
        assert!(clean_report.signoff.clean());
        let target = serde_json::to_string(&clean_report.signoff).unwrap();

        let cfg = RepairConfig {
            baseline: Some(zero_baseline()),
            target_signoff: Some(target.clone()),
            ..RepairConfig::default()
        };
        let plan = repair(&broken, &p, &flow, &cfg);
        assert!(plan.repaired, "transcript: {:?}", plan.transcript);
        assert_eq!(plan.byte_identical, Some(true));
        assert!(!plan.steps.is_empty());
        assert_eq!(plan.signoff_json, target);

        // The plan replays to the same signoff.
        let mut replayed = broken.clone();
        replay_plan(&mut replayed, &plan).unwrap();
        let replay_report = cbv_core::flow::run_flow(replayed, &p, &flow);
        assert_eq!(
            serde_json::to_string(&replay_report.signoff).unwrap(),
            target
        );
    }

    #[test]
    fn clean_design_needs_no_steps() {
        let p = process();
        let flow = FlowConfig::default();
        let clean = cbv_core::gen::latches::keeper_domino(&p, 1e-6).netlist;
        let plan = repair(&clean, &p, &flow, &RepairConfig::default());
        assert!(plan.repaired);
        assert!(plan.steps.is_empty());
        assert_eq!(plan.oracle_calls, 1);
    }

    #[test]
    fn plans_are_deterministic() {
        let p = process();
        let flow = FlowConfig::default();
        let (_, broken) = broken_domino();
        let a = repair(&broken, &p, &flow, &RepairConfig::default());
        let b = repair(&broken, &p, &flow, &RepairConfig::default());
        assert_eq!(a.to_json(), b.to_json());
    }
}
