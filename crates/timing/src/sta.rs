//! Min/max static timing analysis with critical-path and race reporting.
//!
//! The analysis runs in three phases:
//!
//! 1. **seed** — launch windows from the clock schedule and skews;
//! 2. **relax** — bounded fixpoint propagation of arrival windows (the
//!    only phase whose cost scales with the full graph);
//! 3. **finalize** — one deterministic pass over the arcs, *from the
//!    final fixpoint*, deriving capture windows, path predecessors and
//!    the capture checks.

use cbv_netlist::{FlatNetlist, NetId};
use cbv_tech::Seconds;

use crate::clock_rc::ClockSkew;
use crate::constraints::{CaptureKind, Constraint};
use crate::delay::Pessimism;
use crate::graph::TimingGraph;
use crate::ClockSchedule;

/// Earliest/latest arrival at a net.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ArrivalWindow {
    /// Earliest possible arrival.
    pub min: Seconds,
    /// Latest possible arrival.
    pub max: Seconds,
}

/// What went wrong.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViolationKind {
    /// Critical path: data arrives after the capture deadline — limits
    /// the clock frequency.
    Setup,
    /// Race: data arrives before the hold window closes — "will prevent
    /// the chip from working at any frequency".
    Race,
}

/// One reported violation.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Setup or race.
    pub kind: ViolationKind,
    /// The capture net.
    pub net: NetId,
    /// Negative slack (seconds the check fails by).
    pub slack: Seconds,
    /// Data arrival window that triggered the check.
    pub arrival: ArrivalWindow,
    /// The path that produced the failing arrival, launch first.
    pub path: Vec<PathStep>,
}

/// One step in a reported path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PathStep {
    /// The net reached.
    pub net: NetId,
    /// Cumulative arrival at this net (max for setup paths, min for
    /// races).
    pub at: Seconds,
}

/// The analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct StaReport {
    /// Arrival window per net (None = unreached).
    pub arrivals: Vec<Option<ArrivalWindow>>,
    /// All violations, worst slack first.
    pub violations: Vec<Violation>,
}

impl StaReport {
    /// Violations of one kind.
    pub fn of_kind(&self, kind: ViolationKind) -> impl Iterator<Item = &Violation> {
        self.violations.iter().filter(move |v| v.kind == kind)
    }

    /// The worst (most negative) setup slack, if any setup check exists.
    /// NaN slacks (broken delay calculations surfaced as violations)
    /// order *below* every real number via [`f64::total_cmp`], so a
    /// NaN-poisoned report yields NaN here instead of panicking.
    pub fn worst_setup_slack(&self) -> Option<Seconds> {
        self.of_kind(ViolationKind::Setup)
            .map(|v| v.slack)
            .min_by(|a, b| a.seconds().total_cmp(&b.seconds()))
    }

    /// Arrival at a net.
    pub fn arrival(&self, net: NetId) -> Option<ArrivalWindow> {
        self.arrivals.get(net.index()).copied().flatten()
    }
}

/// Launch seeds: the windows the relaxation starts from. Kept separate
/// from the relaxed state because the finalize pass needs the
/// *unpropagated* values.
struct SeedState {
    arrivals: Vec<Option<ArrivalWindow>>,
    clocked_min: Vec<Option<Seconds>>,
}

fn skew_of(skews: &[ClockSkew], clock: Option<NetId>) -> (Seconds, Seconds) {
    clock
        .and_then(|c| skews.iter().find(|s| s.net == c))
        .map(|s| (s.min, s.max))
        .unwrap_or((Seconds::ZERO, Seconds::ZERO))
}

/// Seeds the launch windows. Primary inputs (no clock) are assumed
/// stable from well before the cycle — they cannot participate in
/// same-edge races — while still arriving no later than the cycle start
/// for setup.
fn seed_launches(
    netlist: &FlatNetlist,
    graph: &TimingGraph,
    schedule: &ClockSchedule,
    skews: &[ClockSkew],
    n: usize,
) -> SeedState {
    let mut arrivals: Vec<Option<ArrivalWindow>> = vec![None; n];
    let mut clocked_min: Vec<Option<Seconds>> = vec![None; n];
    let phase_rise = |clock: Option<NetId>| -> Seconds {
        clock
            .and_then(|c| schedule.phase(netlist.net_name(c)))
            .map(|p| p.rise)
            .unwrap_or(Seconds::ZERO)
    };
    for l in &graph.launches {
        let base = phase_rise(l.clock);
        let (sk_min, sk_max) = skew_of(skews, l.clock);
        let w = if l.clock.is_some() {
            ArrivalWindow {
                min: base + sk_min,
                max: base + sk_max,
            }
        } else {
            ArrivalWindow {
                min: base - schedule.period,
                max: base + sk_max,
            }
        };
        let slot = &mut arrivals[l.net.index()];
        *slot = Some(match *slot {
            Some(prev) => ArrivalWindow {
                min: prev.min.min(w.min),
                max: prev.max.max(w.max),
            },
            None => w,
        });
        if l.clock.is_some() {
            let cm = &mut clocked_min[l.net.index()];
            *cm = Some(match *cm {
                Some(prev) => prev.min(w.min),
                None => w.min,
            });
        }
    }
    SeedState {
        arrivals,
        clocked_min,
    }
}

/// Relaxes arrival windows to a fixpoint: bounded iteration handles any
/// residual cycles (pass loops) conservatively. Arcs into cut nets do
/// not propagate — their capture windows are derived in the finalize
/// pass from the final fixpoint. NaN windows never settle (`NaN != NaN`
/// keeps `changed` set), so a NaN-poisoned propagation runs to the
/// bound.
fn relax(
    graph: &TimingGraph,
    arrivals: &mut [Option<ArrivalWindow>],
    clocked_min: &mut [Option<Seconds>],
) {
    let max_iters = graph.arcs.len() + 2;
    for _ in 0..max_iters {
        let mut changed = false;
        for arc in &graph.arcs {
            if graph.is_cut(arc.to) {
                continue;
            }
            let Some(src) = arrivals[arc.from.index()] else {
                continue;
            };
            let cand = ArrivalWindow {
                min: src.min + arc.min,
                max: src.max + arc.max,
            };
            let slot = &mut arrivals[arc.to.index()];
            let merged = match *slot {
                Some(prev) => {
                    let mut m = prev;
                    if cand.max.seconds() > prev.max.seconds() {
                        m.max = cand.max;
                    }
                    if cand.min.seconds() < prev.min.seconds() {
                        m.min = cand.min;
                    }
                    m
                }
                None => cand,
            };
            if *slot != Some(merged) {
                *slot = Some(merged);
                changed = true;
            }
            if let Some(cm) = clocked_min[arc.from.index()].map(|m| m + arc.min) {
                let slot = &mut clocked_min[arc.to.index()];
                let better = slot.map(|p| cm.seconds() < p.seconds()).unwrap_or(true);
                if better {
                    *slot = Some(cm);
                    changed = true;
                }
            }
        }
        if !changed {
            return;
        }
    }
}

/// Derives capture windows, path predecessors and the capture-check
/// violations from the propagation fixpoint, in one deterministic pass
/// over the arcs: every output is a pure function of (graph,
/// constraints, schedule, skews, fixpoint).
///
/// During relaxation maxima only grow and minima only shrink, so the
/// capture merges over the relaxation history equal the merges over the
/// final candidates this pass performs — the recorded capture windows
/// match what recording them inline would have produced.
#[allow(clippy::too_many_arguments)]
fn finalize(
    netlist: &FlatNetlist,
    graph: &TimingGraph,
    constraints: &[Constraint],
    schedule: &ClockSchedule,
    pessimism: &Pessimism,
    skews: &[ClockSkew],
    seeds: &SeedState,
    arrivals: &[Option<ArrivalWindow>],
    clocked_min: &[Option<Seconds>],
) -> StaReport {
    let n = arrivals.len();
    let mut capture_arrival: Vec<Option<ArrivalWindow>> = vec![None; n];
    let mut capture_pred: Vec<Option<NetId>> = vec![None; n];
    let mut capture_cmin: Vec<Option<Seconds>> = vec![None; n];
    // Predecessors for backtrace, derived by replaying the merges
    // against a running window that starts from the launch seeds. At a
    // fixpoint one ordered pass reproduces the final windows, so the
    // strict-improvement tests pick deterministic predecessors.
    let mut pred_max: Vec<Option<NetId>> = vec![None; n];
    let mut pred_min: Vec<Option<NetId>> = vec![None; n];
    let mut cur = seeds.arrivals.clone();
    // Capture checks must see the *incoming* data, not the net's own
    // launch seed (a dynamic node's evaluate launch is not data arriving
    // at it), so record incoming windows for every constrained net.
    let mut is_capture = vec![false; n];
    for c in constraints {
        is_capture[c.net.index()] = true;
    }
    for arc in &graph.arcs {
        let Some(src) = arrivals[arc.from.index()] else {
            continue;
        };
        let cand = ArrivalWindow {
            min: src.min + arc.min,
            max: src.max + arc.max,
        };
        let cand_cmin = clocked_min[arc.from.index()].map(|m| m + arc.min);
        if graph.is_cut(arc.to) || is_capture[arc.to.index()] {
            let slot = &mut capture_arrival[arc.to.index()];
            *slot = Some(match *slot {
                Some(prev) => {
                    let mut m = prev;
                    if cand.max.seconds() > prev.max.seconds() {
                        m.max = cand.max;
                        capture_pred[arc.to.index()] = Some(arc.from);
                    }
                    if cand.min.seconds() < prev.min.seconds() {
                        m.min = cand.min;
                    }
                    m
                }
                None => {
                    capture_pred[arc.to.index()] = Some(arc.from);
                    cand
                }
            });
            if let Some(cm) = cand_cmin {
                let slot = &mut capture_cmin[arc.to.index()];
                *slot = Some(match *slot {
                    Some(prev) => prev.min(cm),
                    None => cm,
                });
            }
            if graph.is_cut(arc.to) {
                continue;
            }
        }
        let slot = &mut cur[arc.to.index()];
        *slot = Some(match *slot {
            Some(prev) => {
                let mut m = prev;
                if cand.max.seconds() > prev.max.seconds() {
                    m.max = cand.max;
                    pred_max[arc.to.index()] = Some(arc.from);
                }
                if cand.min.seconds() < prev.min.seconds() {
                    m.min = cand.min;
                    pred_min[arc.to.index()] = Some(arc.from);
                }
                m
            }
            None => {
                pred_max[arc.to.index()] = Some(arc.from);
                pred_min[arc.to.index()] = Some(arc.from);
                cand
            }
        });
    }

    // Data arrival used at a capture net: the recorded incoming window
    // (for cut nets) or the net's own window (dynamic nodes etc.).
    let arrival_at = |net: NetId| -> Option<ArrivalWindow> {
        capture_arrival[net.index()].or(arrivals[net.index()])
    };

    let backtrace = |net: NetId, use_max: bool| -> Vec<PathStep> {
        let mut steps = Vec::new();
        let mut cur = Some(net);
        let mut first = true;
        let mut guard = 0;
        while let Some(c) = cur {
            let at = arrival_at(c)
                .map(|w| if use_max { w.max } else { w.min })
                .unwrap_or(Seconds::ZERO);
            steps.push(PathStep { net: c, at });
            // The hop out of a capture (cut) net lives in capture_pred;
            // everything upstream lives in the propagation predecessors.
            cur = if first && capture_arrival[c.index()].is_some() {
                capture_pred[c.index()]
            } else if use_max {
                pred_max[c.index()]
            } else {
                pred_min[c.index()]
            };
            first = false;
            guard += 1;
            if guard > 1024 {
                break;
            }
        }
        steps.reverse();
        steps
    };

    // Capture checks.
    let mut violations = Vec::new();
    for c in constraints {
        // A NaN setup or hold means constraint inference itself broke
        // (NaN characteristic tau or margin). It must gate signoff even
        // when no data reaches the capture — otherwise the broken
        // constraint silently vanishes from the report.
        let nan_window = ArrivalWindow {
            min: Seconds::new(f64::NAN),
            max: Seconds::new(f64::NAN),
        };
        let Some(arr) = arrival_at(c.net) else {
            if c.setup.seconds().is_nan() || c.hold.seconds().is_nan() {
                violations.push(Violation {
                    kind: ViolationKind::Setup,
                    net: c.net,
                    slack: Seconds::new(f64::NAN),
                    arrival: nan_window,
                    path: Vec::new(),
                });
            }
            continue;
        };
        let clock_name = c.clock.map(|n| netlist.net_name(n).to_owned());
        let phase = clock_name
            .as_deref()
            .and_then(|n| schedule.phase(n))
            .cloned();
        let (sk_min, sk_max) = skew_of(skews, c.clock);

        // Deadline: latch-like captures close at phase fall; dynamic eval
        // windows close at phase fall too; unclocked cross-coupled pairs
        // capture at end of cycle.
        let nominal_deadline = match (&phase, c.kind) {
            (Some(p), _) => p.fall,
            (None, _) => schedule.period,
        };
        // Hold floor: the launching edge of the same phase (or cycle
        // start) — data must not change before this plus hold.
        let nominal_floor = match &phase {
            Some(p) => p.rise,
            None => Seconds::ZERO,
        };
        let (deadline, floor) = if pessimism.correlated {
            // Same-die excursions track: use matched skews.
            (nominal_deadline + sk_min, nominal_floor + sk_min)
        } else {
            // Uncorrelated: capture clock could be early for setup and
            // late for hold simultaneously.
            (nominal_deadline + sk_min, nominal_floor + sk_max)
        };

        // A NaN slack means the delay calculation broke (NaN parasitic,
        // NaN device geometry). `NaN < 0.0` is false, so without the
        // explicit test a broken path would silently pass setup — report
        // it as a violation instead; the designer sees the path.
        let setup_slack = deadline - c.setup - arr.max;
        let setup_broken = setup_slack.seconds() < 0.0 || setup_slack.seconds().is_nan();
        if setup_broken {
            violations.push(Violation {
                kind: ViolationKind::Setup,
                net: c.net,
                slack: setup_slack,
                arrival: arr,
                path: backtrace(c.net, true),
            });
        }
        // Race data must be launched by a clock (stable inputs flushing
        // through transparent latches are not racers) and must depart
        // from the same edge the capture element holds through.
        // Only *incoming* clock-launched data races; a storage node's own
        // launch seed is not data arriving at it.
        let race_min = capture_cmin[c.net.index()];
        let race_slack = race_min
            .map(|m| m - (floor + c.hold))
            .unwrap_or(Seconds::new(f64::INFINITY));
        let same_edge = race_min
            .map(|m| m.seconds() >= nominal_floor.seconds() - 1e-15)
            .unwrap_or(false);
        let race_broken = same_edge
            && (race_slack.seconds() < 0.0 || race_slack.seconds().is_nan())
            && c.kind != CaptureKind::CrossCoupled;
        if race_broken {
            violations.push(Violation {
                kind: ViolationKind::Race,
                net: c.net,
                slack: race_slack,
                arrival: arr,
                path: backtrace(c.net, false),
            });
        }
        // A NaN hold that neither check surfaced (no same-edge racer, or
        // a cross-coupled capture) still gates signoff: the inferred
        // constraint is broken and the element's safety is unknowable.
        if c.hold.seconds().is_nan() && !race_broken && !setup_broken {
            violations.push(Violation {
                kind: ViolationKind::Setup,
                net: c.net,
                slack: Seconds::new(f64::NAN),
                arrival: arr,
                path: Vec::new(),
            });
        }
    }
    violations.sort_by(|a, b| a.slack.seconds().total_cmp(&b.slack.seconds()));

    StaReport {
        arrivals: arrivals.to_vec(),
        violations,
    }
}

/// Runs min/max STA.
///
/// `skews` supplies per-clock-net insertion-delay bounds from
/// [`crate::clock_rc`]; clocks without entries are ideal. Under
/// *uncorrelated* analysis ([`Pessimism::correlated`] = false), the data
/// minimum is compared against the capture clock's **latest** arrival and
/// the deadline against its **earliest** — maximum pessimism; correlated
/// analysis uses matching excursions, the paper's cure for false races.
pub fn analyze(
    netlist: &FlatNetlist,
    graph: &TimingGraph,
    constraints: &[Constraint],
    schedule: &ClockSchedule,
    pessimism: &Pessimism,
    skews: &[ClockSkew],
) -> StaReport {
    let n = netlist.net_count();
    let seeds = seed_launches(netlist, graph, schedule, skews, n);
    let mut arrivals = seeds.arrivals.clone();
    let mut clocked_min = seeds.clocked_min.clone();
    relax(graph, &mut arrivals, &mut clocked_min);
    finalize(
        netlist,
        graph,
        constraints,
        schedule,
        pessimism,
        skews,
        &seeds,
        &arrivals,
        &clocked_min,
    )
}

/// Finds the shortest single-phase cycle time (within `resolution`) at
/// which the design has no setup violations — "critical paths (slow
/// paths) will limit the clock frequency of the chip". Races are cycle-
/// time independent and reported separately by [`analyze`].
///
/// Returns `None` when even `t_max` fails.
#[allow(clippy::too_many_arguments)]
pub fn find_min_period(
    netlist: &FlatNetlist,
    graph: &TimingGraph,
    constraints: &[Constraint],
    clock_name: &str,
    pessimism: &Pessimism,
    skews: &[ClockSkew],
    t_max: Seconds,
    resolution: Seconds,
) -> Option<Seconds> {
    let clean = |period: Seconds| -> bool {
        let schedule = crate::ClockSchedule::single(clock_name, period);
        let report = analyze(netlist, graph, constraints, &schedule, pessimism, skews);
        let has_setup = report.of_kind(ViolationKind::Setup).next().is_some();
        !has_setup
    };
    if !clean(t_max) {
        return None;
    }
    let mut hi = t_max;
    let mut lo = Seconds::ZERO;
    while (hi - lo).seconds() > resolution.seconds() {
        let mid = (lo + hi) / 2.0;
        if clean(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Some(hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::constraints::CaptureKind;
    use crate::graph::{Arc, LaunchPoint};
    use cbv_netlist::{FlatNetlist, NetKind};
    use cbv_tech::units::{nanoseconds, picoseconds};

    /// Hand-built graph: in -> a -> b (chain), b is a latch storage net.
    fn fixture(delay_ps: f64) -> (FlatNetlist, TimingGraph, Vec<Constraint>) {
        let mut f = FlatNetlist::new("t");
        let inp = f.add_net("in", NetKind::Input);
        let a = f.add_net("a", NetKind::Signal);
        let b = f.add_net("b", NetKind::Signal);
        let ck = f.add_net("ck", NetKind::Clock);
        let g = TimingGraph {
            arcs: vec![
                Arc {
                    from: inp,
                    to: a,
                    min: picoseconds(delay_ps * 0.5),
                    max: picoseconds(delay_ps),
                    ccc: cbv_netlist::CccId(0),
                },
                Arc {
                    from: a,
                    to: b,
                    min: picoseconds(delay_ps * 0.5),
                    max: picoseconds(delay_ps),
                    ccc: cbv_netlist::CccId(1),
                },
            ],
            launches: vec![LaunchPoint {
                net: inp,
                // Clock-launched: the race fixtures model flop-launched
                // data (unclocked inputs are stable and cannot race).
                clock: Some(ck),
            }],
            cut_nets: vec![b],
        };
        let cons = vec![Constraint {
            net: b,
            kind: CaptureKind::Latch,
            clock: Some(ck),
            setup: picoseconds(50.0),
            hold: picoseconds(30.0),
        }];
        (f, g, cons)
    }

    fn run(
        f: &FlatNetlist,
        g: &TimingGraph,
        cons: &[Constraint],
        period_ns: f64,
        pess: Pessimism,
        skews: &[ClockSkew],
    ) -> StaReport {
        let sched = ClockSchedule::single("ck", nanoseconds(period_ns));
        analyze(f, g, cons, &sched, &pess, skews)
    }

    #[test]
    fn fast_path_meets_setup() {
        let (f, g, cons) = fixture(100.0);
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        assert!(r.of_kind(ViolationKind::Setup).next().is_none());
    }

    #[test]
    fn slow_path_fails_setup_with_path() {
        // 2 x 600ps chain vs 1ns phase fall (period 2ns): 1200 > 1000-50.
        let (f, g, cons) = fixture(600.0);
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        let v = r
            .of_kind(ViolationKind::Setup)
            .next()
            .expect("setup violation");
        assert!(v.slack.seconds() < 0.0);
        assert_eq!(v.path.len(), 3, "in -> a -> b");
        assert_eq!(v.path[0].net, f.find_net("in").unwrap());
        assert_eq!(v.path[2].net, f.find_net("b").unwrap());
        // Arrival time monotone along path.
        assert!(v.path[0].at.seconds() <= v.path[1].at.seconds());
    }

    #[test]
    fn short_path_races() {
        // 2 x 20ps min chain: min arrival 20ps < hold 30ps -> race.
        let (f, g, cons) = fixture(20.0);
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        assert!(r.of_kind(ViolationKind::Race).next().is_some());
    }

    #[test]
    fn uncorrelated_skew_creates_race() {
        // Min path 100ps (2 arcs à 50ps min = 100ps? min = delay*0.5 each
        // = 150ps total for delay_ps=150): pick numbers so that race only
        // appears when skew is added uncorrelated.
        let (f, g, cons) = fixture(150.0);
        let ck = f.find_net("ck").unwrap();
        // min arrival = 150ps; hold = 30ps. floor(correlated, skew.min=0)
        // = 0 -> ok. Uncorrelated with skew.max = 140ps: floor = 140+30 =
        // 170 > 150 -> race.
        let skew = ClockSkew {
            net: ck,
            min: Seconds::ZERO,
            max: picoseconds(140.0),
        };
        let mut pess = Pessimism::none();
        pess.correlated = true;
        let r = run(&f, &g, &cons, 2.0, pess, std::slice::from_ref(&skew));
        assert!(
            r.of_kind(ViolationKind::Race).next().is_none(),
            "correlated: no race"
        );
        let mut pess = Pessimism::none();
        pess.correlated = false;
        let r = run(&f, &g, &cons, 2.0, pess, &[skew]);
        assert!(
            r.of_kind(ViolationKind::Race).next().is_some(),
            "uncorrelated skew must expose the race"
        );
    }

    #[test]
    fn pessimism_turns_pass_into_fail() {
        // 450ps nominal max path vs 1000-50 deadline: passes at 1.0x.
        let (f, g, cons) = fixture(450.0);
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        assert!(r.of_kind(ViolationKind::Setup).next().is_none());
        // With a giant late derate it fails.
        let pess = Pessimism {
            late_derate: 1.0, // derates apply at delay calc; emulate via period
            ..Pessimism::none()
        };
        let r = run(&f, &g, &cons, 1.8, pess, &[]);
        // 900/2 phase fall = 900ps... period 1.8ns → fall at 0.9ns;
        // 900-50 = 850 < 900 → fail.
        assert!(r.of_kind(ViolationKind::Setup).next().is_some());
    }

    #[test]
    fn arrivals_recorded() {
        let (f, g, cons) = fixture(100.0);
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        let a = f.find_net("a").unwrap();
        let w = r.arrival(a).unwrap();
        assert!((w.max.seconds() - 100e-12).abs() < 1e-15);
        assert!((w.min.seconds() - 50e-12).abs() < 1e-15);
    }

    #[test]
    fn min_period_search_converges() {
        // 2 arcs x 400 ps max; capture at T/2 with 50 ps setup:
        // need T/2 >= 850 ps -> Tmin = 1.7 ns.
        let (f, g, cons) = fixture(400.0);
        let t = find_min_period(
            &f,
            &g,
            &cons,
            "ck",
            &Pessimism::none(),
            &[],
            Seconds::new(100e-9),
            Seconds::new(1e-12),
        )
        .expect("closes at 100 ns");
        assert!(
            (t.seconds() - 1.7e-9).abs() < 5e-12,
            "expected ~1.7 ns, got {t}"
        );
        // An impossible budget returns None.
        assert!(find_min_period(
            &f,
            &g,
            &cons,
            "ck",
            &Pessimism::none(),
            &[],
            Seconds::new(1e-12),
            Seconds::new(1e-13),
        )
        .is_none());
    }

    /// A NaN arc delay (broken delay calculation, e.g. NaN parasitic)
    /// must surface as a reported setup violation — not silently pass
    /// (`NaN < 0.0` is false) and not panic the sort.
    #[test]
    fn nan_delay_is_reported_not_silent_or_panicking() {
        let (f, mut g, cons) = fixture(100.0);
        g.arcs[1].max = Seconds::new(f64::NAN);
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        let v = r
            .of_kind(ViolationKind::Setup)
            .next()
            .expect("NaN slack must be reported as a violation");
        assert!(v.slack.seconds().is_nan());
        assert_eq!(v.net, f.find_net("b").unwrap());
        // worst_setup_slack must not panic on the NaN entry.
        assert!(r.worst_setup_slack().is_some());
    }

    #[test]
    fn violations_sorted_worst_first() {
        let (f, g, mut cons) = fixture(600.0);
        // Add a second, harsher constraint on the same net.
        let c2 = Constraint {
            setup: picoseconds(500.0),
            ..cons[0].clone()
        };
        cons.push(c2);
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        let slacks: Vec<f64> = r.violations.iter().map(|v| v.slack.seconds()).collect();
        let mut sorted = slacks.clone();
        sorted.sort_by(|a, b| a.total_cmp(b));
        assert_eq!(slacks, sorted);
    }

    /// A NaN constraint on a capture no data reaches must still fail the
    /// report — the *constraints* path of the NaN discipline, distinct
    /// from the NaN-arc path above.
    #[test]
    fn nan_constraint_on_unreached_capture_is_reported() {
        let (mut f, g, _) = fixture(100.0);
        let orphan = f.add_net("orphan", NetKind::Signal);
        let cons = vec![Constraint {
            net: orphan,
            kind: CaptureKind::Latch,
            clock: None,
            setup: Seconds::new(f64::NAN),
            hold: picoseconds(30.0),
        }];
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        let v = r
            .of_kind(ViolationKind::Setup)
            .next()
            .expect("NaN constraint must not vanish on an unreached net");
        assert_eq!(v.net, orphan);
        assert!(v.slack.seconds().is_nan());
    }

    /// A NaN hold with no same-edge racer (unclocked launch) has no race
    /// check to surface through; it must still gate the report.
    #[test]
    fn nan_hold_without_racer_is_reported() {
        let (f, mut g, mut cons) = fixture(100.0);
        g.launches[0].clock = None; // stable primary input: no racer
        cons[0].hold = Seconds::new(f64::NAN);
        let r = run(&f, &g, &cons, 2.0, Pessimism::none(), &[]);
        let v = r
            .violations
            .first()
            .expect("NaN hold must not vanish without a racer");
        assert!(v.slack.seconds().is_nan());
        assert_eq!(v.net, f.find_net("b").unwrap());
    }
}
