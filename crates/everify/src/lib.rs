//! `cbv-everify` — the electrical verification battery of §4.2.
//!
//! "The circuit verification at Digital Semiconductor depends upon heavy
//! use of CAD verification for those issues which rules can be clearly
//! specified. Additional CAD tools perform probability filtering on any
//! remaining complex, hard to clearly specify design rules. This approach
//! eliminates those situations that have a high degree of confidence of
//! being correct while reporting the situations that may have violations
//! and require closer inspection by the designer."
//!
//! Implemented checks (the paper's own list):
//!
//! | Paper check | Module |
//! |---|---|
//! | Transistor configuration, beta ratio & device size | [`beta`] |
//! | Edge rate and delay analysis | [`edges`] |
//! | Coupling analysis of static and dynamic nodes | [`coupling`] |
//! | Dynamic charge share analysis | [`charge`] |
//! | Dynamic node leakage | [`leakage`] |
//! | Latch / state-element writability & noise margin | [`latch`] |
//! | Electromigration (statistical and absolute) | [`em`] |
//! | Antenna checks | [`antenna`] |
//! | Hot carrier and TDDB | [`stress`] |
//!
//! (Clock distribution RC analysis lives in `cbv-timing::clock_rc`; the
//! flow in `cbv-core` stitches both into one signoff report.)
//!
//! Every check emits [`Finding`]s into the probability-filter
//! [`Report`]: clearly-fine situations are counted but suppressed,
//! marginal ones surface as `Review`, real failures as `Violation`.

pub mod antenna;
pub mod beta;
pub mod charge;
pub mod coupling;
pub mod edges;
pub mod em;
pub mod latch;
pub mod leakage;
pub mod report;
pub mod stress;

pub use report::{CheckKind, Finding, Report, Severity, Subject};

use std::sync::Arc;
use std::time::Duration;

use cbv_exec::Executor;
use cbv_obs::TraceCtx;

use cbv_extract::Extracted;
use cbv_layout::Layout;
use cbv_netlist::{DeviceId, FlatNetlist, NetId};
use cbv_recognize::Recognition;
use cbv_tech::{Hertz, Process, Seconds, Tolerance, Volts};

/// The slice of a design one verification unit owns.
///
/// The incremental flow partitions the battery into per-CCC units plus
/// one whole-design residue; each unit re-verifies independently and the
/// per-unit reports merge back together. Ownership is exact: every
/// device belongs to exactly one CCC (the `partition_cccs` map is
/// total), and every non-rail channel net to exactly one CCC as well, so
/// the union of all scopes reproduces [`run_all`]'s findings, finding
/// for finding — the property the cold-vs-incremental byte-identity
/// tests rest on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CheckScope {
    /// CCC indices this unit verifies (class-driven checks iterate these).
    pub cccs: Vec<usize>,
    /// Devices this unit owns (device-driven checks iterate these).
    pub devices: Vec<DeviceId>,
    /// Nets this unit owns (net-victim checks iterate these). For a CCC
    /// unit these are its channel nets; the residue gets every net no
    /// CCC's channel touches (inputs, clocks, rails, floating nets).
    pub nets: Vec<NetId>,
    /// Whether this scope carries the whole-design residue. State-element
    /// writability and antenna analysis read global structure (latch
    /// loops span CCCs; antenna collector area depends on routing and
    /// reader-gate geometry), so they run whole-design in exactly one
    /// scope rather than being sliced per CCC.
    pub whole_design: bool,
}

impl CheckScope {
    /// The scope covering the entire design. [`run_scoped`] on this scope
    /// equals [`run_all`].
    pub fn full(netlist: &FlatNetlist, recognition: &Recognition) -> CheckScope {
        CheckScope {
            cccs: (0..recognition.cccs.len()).collect(),
            devices: (0..netlist.devices().len() as u32).map(DeviceId).collect(),
            nets: netlist.net_ids().collect(),
            whole_design: true,
        }
    }

    /// Partitions the design into one scope per CCC plus the residue
    /// scope (always last). The scopes are disjoint and their union
    /// covers every device and net.
    pub fn partition(netlist: &FlatNetlist, recognition: &Recognition) -> Vec<CheckScope> {
        let mut owned = vec![false; netlist.net_count()];
        let mut scopes: Vec<CheckScope> = recognition
            .cccs
            .iter()
            .enumerate()
            .map(|(i, ccc)| {
                for &n in &ccc.channel_nets {
                    owned[n.index()] = true;
                }
                CheckScope {
                    cccs: vec![i],
                    devices: ccc.devices.clone(),
                    nets: ccc.channel_nets.clone(),
                    whole_design: false,
                }
            })
            .collect();
        scopes.push(CheckScope {
            cccs: Vec::new(),
            devices: Vec::new(),
            nets: netlist.net_ids().filter(|n| !owned[n.index()]).collect(),
            whole_design: true,
        });
        scopes
    }
}

/// The devices with a channel terminal on `net`, each once, in device
/// order — the order every per-net sum and first-maximum is taken in.
pub(crate) fn channel_devices(netlist: &FlatNetlist, net: NetId) -> Vec<DeviceId> {
    let mut ids = netlist.channel_devices(net);
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The inputs every check of the battery reads.
#[derive(Clone, Copy)]
struct Inputs<'a> {
    netlist: &'a FlatNetlist,
    recognition: &'a Recognition,
    extracted: &'a Extracted,
    layout: Option<&'a Layout>,
    process: &'a Process,
    config: &'a EverifyConfig,
}

type CheckFn = fn(&Inputs<'_>, &CheckScope, &mut Report);

/// The §4.2 battery in the paper's fixed check order: each check's kind,
/// whether it reads global structure and so runs only in the
/// whole-design scope, and its body. Antenna analysis needs a layout and
/// is skipped without one. [`battery`] and [`run_scoped`] both read this
/// one list.
const BATTERY: [(CheckKind, bool, CheckFn); 9] = [
    (CheckKind::BetaRatio, false, |d, s, r| {
        beta::check(d.netlist, d.recognition, d.process, d.config, s, r)
    }),
    (CheckKind::EdgeRate, false, |d, s, r| {
        edges::check(
            d.netlist,
            d.recognition,
            d.extracted,
            d.process,
            d.config,
            s,
            r,
        )
    }),
    (CheckKind::Coupling, false, |d, s, r| {
        coupling::check(
            d.netlist,
            d.recognition,
            d.extracted,
            d.process,
            d.config,
            s,
            r,
        )
    }),
    (CheckKind::ChargeShare, false, |d, s, r| {
        charge::check(d.netlist, d.recognition, d.process, d.config, s, r)
    }),
    (CheckKind::Leakage, false, |d, s, r| {
        leakage::check(
            d.netlist,
            d.recognition,
            d.extracted,
            d.process,
            d.config,
            s,
            r,
        )
    }),
    (CheckKind::Writability, true, |d, _, r| {
        latch::check(d.netlist, d.recognition, d.process, d.config, r)
    }),
    (CheckKind::Electromigration, false, |d, s, r| {
        em::check(
            d.netlist,
            d.recognition,
            d.extracted,
            d.process,
            d.config,
            s,
            r,
        )
    }),
    (CheckKind::Antenna, true, |d, _, r| {
        if let Some(layout) = d.layout {
            antenna::check(d.netlist, layout, d.config, r)
        }
    }),
    (CheckKind::HotCarrier, false, |d, s, r| {
        stress::check(d.netlist, d.process, d.config, &s.devices, r)
    }),
];

impl Inputs<'_> {
    /// The rows of [`BATTERY`] that apply to this design.
    fn checks(self) -> impl Iterator<Item = &'static (CheckKind, bool, CheckFn)> {
        let has_layout = self.layout.is_some();
        BATTERY
            .iter()
            .filter(move |(kind, _, _)| *kind != CheckKind::Antenna || has_layout)
    }
}

/// Runs the battery restricted to one ownership scope, in the fixed
/// check order of the paper's list, inline on the calling thread (a
/// panicking check unwinds to the caller). Merging the reports of a
/// full [`CheckScope::partition`] yields the same findings as
/// [`run_all`].
pub fn run_scoped(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    layout: Option<&Layout>,
    process: &Process,
    config: &EverifyConfig,
    scope: &CheckScope,
) -> Report {
    let inputs = Inputs {
        netlist,
        recognition,
        extracted,
        layout,
        process,
        config,
    };
    let mut report = Report::new(config.filter_threshold);
    for (_, whole_design_only, body) in inputs.checks() {
        if scope.whole_design || !whole_design_only {
            body(&inputs, scope, &mut report);
        }
    }
    report
}

/// Tunable limits for the electrical checks.
#[derive(Debug, Clone, PartialEq)]
pub struct EverifyConfig {
    /// Static nodes tolerate coupling noise up to this fraction of VDD.
    pub static_noise_margin: f64,
    /// Dynamic nodes tolerate far less (no restoring pull-up while
    /// floating).
    pub dynamic_noise_margin: f64,
    /// Charge-sharing droop allowed on a dynamic node, fraction of VDD.
    pub charge_share_margin: f64,
    /// How long a dynamic node must hold its charge (worst-case low-
    /// frequency operation), seconds.
    pub dynamic_hold: Seconds,
    /// Leakage droop allowed over the hold window, fraction of VDD.
    pub leakage_margin: f64,
    /// Slowest acceptable signal edge (10–90 %), seconds.
    pub max_edge: Seconds,
    /// Assumed aggressor transition time for coupling analysis: a driven
    /// victim's driver supplies restoring charge for this long.
    pub aggressor_edge: Seconds,
    /// Operating frequency used for average-current (EM) estimation.
    pub frequency: Hertz,
    /// Switching activity factor for EM estimation.
    pub activity: f64,
    /// Beta-ratio window for complementary gates: acceptable
    /// pull-up/pull-down strength ratio.
    pub beta_window: (f64, f64),
    /// Minimum writability ratio: write path must overpower feedback by
    /// this factor.
    pub writability_ratio: f64,
    /// Antenna ratio limit (collector area / gate area).
    pub antenna_ratio: f64,
    /// Maximum tolerable oxide field for TDDB, V/m.
    pub tddb_field_limit: f64,
    /// Maximum Vds for hot-carrier safety, volts.
    pub hot_carrier_vds: Volts,
    /// Findings whose value is below this fraction of the limit are
    /// filtered (counted but not reported) — the probability filter.
    pub filter_threshold: f64,
    /// Parasitic tolerance used when bounding capacitances.
    pub tolerance: Tolerance,
}

impl EverifyConfig {
    /// Defaults calibrated for the bundled processes.
    pub fn for_process(process: &Process) -> EverifyConfig {
        EverifyConfig {
            static_noise_margin: 0.30,
            dynamic_noise_margin: 0.15,
            charge_share_margin: 0.15,
            dynamic_hold: Seconds::new(10e-9),
            leakage_margin: 0.10,
            max_edge: Seconds::new(2.0e-9),
            aggressor_edge: Seconds::new(400e-12),
            frequency: process.f_target(),
            activity: 0.15,
            beta_window: (0.4, 2.5),
            writability_ratio: 1.5,
            antenna_ratio: 400.0,
            tddb_field_limit: 0.9e9,
            hot_carrier_vds: process.vdd_nominal() * 2.2,
            filter_threshold: 0.6,
            tolerance: Tolerance::conservative(),
        }
    }
}

/// Runs every check serially and aggregates the findings into one
/// report: [`run_battery`] over [`battery`] on one worker, untraced.
pub fn run_all(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    layout: Option<&Layout>,
    process: &Process,
    config: &EverifyConfig,
) -> Report {
    let checks = battery(netlist, recognition, extracted, layout, process, config);
    run_battery(
        checks,
        config.filter_threshold,
        &Executor::serial(),
        TraceCtx::disabled(),
    )
    .0
}

/// One named check of the §4.2 battery, packaged so executors and
/// tracers can see *which* check a task is before running it.
pub struct BatteryCheck<'a> {
    /// The check this task runs (names its span and counters).
    pub kind: CheckKind,
    run: Box<dyn Fn(&mut Report) + Send + Sync + 'a>,
}

impl<'a> BatteryCheck<'a> {
    /// Packages a check body under its kind.
    pub fn new(kind: CheckKind, run: impl Fn(&mut Report) + Send + Sync + 'a) -> BatteryCheck<'a> {
        BatteryCheck {
            kind,
            run: Box::new(run),
        }
    }

    /// Runs the check into `report`.
    pub fn run(&self, report: &mut Report) {
        (self.run)(report)
    }
}

/// The full battery in the paper's fixed check order (antenna only when
/// a layout is present), each check over the whole design. Feed this to
/// [`run_battery`].
pub fn battery<'a>(
    netlist: &'a FlatNetlist,
    recognition: &'a Recognition,
    extracted: &'a Extracted,
    layout: Option<&'a Layout>,
    process: &'a Process,
    config: &'a EverifyConfig,
) -> Vec<BatteryCheck<'a>> {
    let inputs = Inputs {
        netlist,
        recognition,
        extracted,
        layout,
        process,
        config,
    };
    let scope = Arc::new(CheckScope::full(netlist, recognition));
    inputs
        .checks()
        .map(|&(kind, _, body)| {
            let scope = Arc::clone(&scope);
            BatteryCheck::new(kind, move |r| body(&inputs, &scope, r))
        })
        .collect()
}

/// Runs a battery with the checks fanned out across `exec`'s workers,
/// each writing into its own [`Report`]; the per-check reports merge in
/// the battery's fixed order, so the result is identical to a serial
/// run regardless of worker count. Also returns the aggregate busy time
/// summed over workers.
///
/// Robustness and observability:
///
/// * a panicking check is *isolated* ([`cbv_exec::TaskPanic`]) and
///   surfaces as a [`Severity::ToolError`] finding naming the check, on
///   [`Subject::Design`] (a whole-design check belongs to no unit) —
///   every other check still completes and the merged report stays
///   deterministic;
/// * with an enabled tracer, each check gets a `check:<kind>` span
///   under `ctx`, and the merged report's per-check finding counts land
///   in `everify.findings.<kind>` counters (plus `everify.checked` /
///   `everify.filtered` totals).
pub fn run_battery(
    checks: Vec<BatteryCheck<'_>>,
    filter_threshold: f64,
    exec: &Executor,
    ctx: TraceCtx<'_>,
) -> (Report, Duration) {
    let kinds: Vec<CheckKind> = checks.iter().map(|c| c.kind).collect();
    let (reports, busy) = exec.try_map_traced(
        ctx,
        checks,
        |check| {
            let mut report = Report::new(filter_threshold);
            check.run(&mut report);
            report
        },
        |i| format!("check:{}", kinds[i]),
    );
    let mut merged = Report::new(filter_threshold);
    for (i, result) in reports.into_iter().enumerate() {
        match result {
            Ok(report) => merged.merge(report),
            Err(panic) => merged.tool_error(
                kinds[i],
                Subject::Design,
                format!("check {} panicked: {}", kinds[i], panic.message),
            ),
        }
    }
    finding_counters(&merged, ctx);
    (merged, busy)
}

/// Emits a report's per-check finding counts (`everify.findings.<kind>`
/// for every [`CheckKind`]) plus `everify.checked` / `everify.filtered`
/// totals into `ctx`'s tracer. No-op when tracing is disabled.
pub fn finding_counters(report: &Report, ctx: TraceCtx<'_>) {
    if !ctx.is_enabled() {
        return;
    }
    for kind in CheckKind::ALL {
        let count = report.of_check(kind).count() as u64;
        ctx.tracer.add(&format!("everify.findings.{kind}"), count);
    }
    ctx.tracer
        .add("everify.checked", report.checked_count() as u64);
    ctx.tracer
        .add("everify.filtered", report.filtered_count() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::MosKind;

    /// A clean inverter chain should produce no violations.
    #[test]
    fn clean_design_is_quiet() {
        let mut f = FlatNetlist::new("chain");
        let process = Process::strongarm_035();
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let mut prev = f.add_net("in", NetKind::Input);
        for i in 0..4 {
            let out = f.add_net(&format!("n{i}"), NetKind::Signal);
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("p{i}"),
                prev,
                out,
                vdd,
                vdd,
                5.6e-6,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("n{i}"),
                prev,
                out,
                gnd,
                gnd,
                2.4e-6,
                0.35e-6,
            ));
            prev = out;
        }
        let layout = synthesize(&f, &process);
        let ex = cbv_extract::extract(&layout, &f, &process);
        let rec = recognize(&f);
        let cfg = EverifyConfig::for_process(&process);
        let report = run_all(&f, &rec, &ex, Some(&layout), &process, &cfg);
        assert_eq!(
            report.violations().count(),
            0,
            "clean chain must be violation-free: {:?}",
            report.violations().collect::<Vec<_>>()
        );
        assert!(report.checked_count() > 0, "checks actually ran");
    }

    /// The partition of scopes must reproduce the monolithic battery
    /// finding-for-finding: same counts, same findings in the same order.
    #[test]
    fn scope_partition_matches_run_all() {
        let mut f = FlatNetlist::new("mix");
        let process = Process::strongarm_035();
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a", NetKind::Input);
        let mut prev = a;
        // Static chain, then a domino stage: several CCCs, a dynamic
        // node, a keeper, pass structure — every check has subjects.
        for i in 0..3 {
            let out = f.add_net(&format!("s{i}"), NetKind::Signal);
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("p{i}"),
                prev,
                out,
                vdd,
                vdd,
                5.6e-6,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("n{i}"),
                prev,
                out,
                gnd,
                gnd,
                2.4e-6,
                0.35e-6,
            ));
            prev = out;
        }
        let dyn_net = f.add_net("dyn", NetKind::Signal);
        let x = f.add_net("x", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pre",
            clk,
            dyn_net,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "ev",
            prev,
            dyn_net,
            x,
            gnd,
            8e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "ft",
            clk,
            x,
            gnd,
            gnd,
            8e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Pmos,
            "op",
            dyn_net,
            y,
            vdd,
            vdd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "on",
            dyn_net,
            y,
            gnd,
            gnd,
            2e-6,
            0.35e-6,
        ));
        let layout = synthesize(&f, &process);
        let ex = cbv_extract::extract(&layout, &f, &process);
        let rec = recognize(&f);
        let cfg = EverifyConfig::for_process(&process);

        let whole = run_all(&f, &rec, &ex, Some(&layout), &process, &cfg);
        let mut merged = Report::new(cfg.filter_threshold);
        for scope in CheckScope::partition(&f, &rec) {
            merged.merge(run_scoped(
                &f,
                &rec,
                &ex,
                Some(&layout),
                &process,
                &cfg,
                &scope,
            ));
        }
        assert_eq!(whole.checked_count(), merged.checked_count());
        assert_eq!(whole.filtered_count(), merged.filtered_count());
        assert_eq!(whole.findings().len(), merged.findings().len());
        for (w, m) in whole.findings().iter().zip(merged.findings()) {
            assert_eq!(format!("{w:?}"), format!("{m:?}"));
        }
        assert!(whole.checked_count() > 10, "battery exercised");
    }

    /// A deliberately-panicking check must not take down the battery:
    /// every other check completes, and the panic surfaces as a
    /// `ToolError` finding naming the check — deterministically, at any
    /// worker count.
    #[test]
    fn panicking_check_becomes_tool_error_finding() {
        let mut f = FlatNetlist::new("inv");
        let process = Process::strongarm_035();
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p",
            a,
            y,
            vdd,
            vdd,
            5.6e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            2.4e-6,
            0.35e-6,
        ));
        let layout = synthesize(&f, &process);
        let ex = cbv_extract::extract(&layout, &f, &process);
        let rec = recognize(&f);
        let cfg = EverifyConfig::for_process(&process);
        let clean = run_all(&f, &rec, &ex, Some(&layout), &process, &cfg);

        let mut keys = Vec::new();
        for threads in [1, 2, 8] {
            let mut checks = battery(&f, &rec, &ex, Some(&layout), &process, &cfg);
            checks.insert(
                3,
                BatteryCheck::new(CheckKind::Tool, |_| panic!("injected tool failure")),
            );
            let (report, _busy) = run_battery(
                checks,
                cfg.filter_threshold,
                &Executor::threads(threads),
                cbv_obs::TraceCtx::disabled(),
            );
            // Every real check still ran.
            assert_eq!(report.checked_count(), clean.checked_count());
            let errors: Vec<_> = report.tool_errors().collect();
            assert_eq!(errors.len(), 1, "exactly one tool error");
            assert_eq!(errors[0].subject, Subject::Design);
            assert!(
                errors[0].message.contains("injected tool failure"),
                "{}",
                errors[0].message
            );
            let key: Vec<String> = report
                .findings()
                .iter()
                .map(|f| format!("{:?}|{:?}|{}", f.check, f.subject, f.message))
                .collect();
            keys.push(key);
        }
        assert_eq!(keys[0], keys[1], "1 vs 2 threads");
        assert_eq!(keys[0], keys[2], "1 vs 8 threads");
    }

    /// A full scope behaves exactly like run_all through run_scoped.
    #[test]
    fn full_scope_equals_run_all() {
        let mut f = FlatNetlist::new("inv");
        let process = Process::strongarm_035();
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let a = f.add_net("a", NetKind::Input);
        let y = f.add_net("y", NetKind::Output);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "p",
            a,
            y,
            vdd,
            vdd,
            5.6e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "n",
            a,
            y,
            gnd,
            gnd,
            2.4e-6,
            0.35e-6,
        ));
        let layout = synthesize(&f, &process);
        let ex = cbv_extract::extract(&layout, &f, &process);
        let rec = recognize(&f);
        let cfg = EverifyConfig::for_process(&process);
        let whole = run_all(&f, &rec, &ex, Some(&layout), &process, &cfg);
        let scope = CheckScope::full(&f, &rec);
        let scoped = run_scoped(&f, &rec, &ex, Some(&layout), &process, &cfg, &scope);
        assert_eq!(whole.checked_count(), scoped.checked_count());
        assert_eq!(whole.filtered_count(), scoped.filtered_count());
        assert_eq!(whole.findings().len(), scoped.findings().len());
    }
}
