//! Reading a [`FlowReport`] for the E16 mutation campaign and repair.
//!
//! `cbv-mutate` knows nothing about the flow. A campaign oracle is a
//! closure that runs the flow over a mutant — cold `run_flow`, or
//! `run_flow_incremental` on a cache it owns, so each mutant after the
//! baseline re-verifies only the units whose keys it changes — and
//! reduces the report with [`observe`]. The resolvers below map a §4.2
//! finding onto the recognized design.

use cbv_everify::{CheckKind, Finding, Severity, Subject};
use cbv_mutate::FlowObservation;
use cbv_netlist::{CccId, DeviceId};

use crate::flow::FlowReport;

/// Reduces one flow run to the campaign's detector counts.
///
/// `ToolError` findings count as violations — a check that panicked or
/// produced NaN leaves its unit *unverified*, which a mutation campaign
/// must treat as detection, not silence.
pub fn observe(report: &FlowReport) -> FlowObservation {
    let check_violations = CheckKind::ALL
        .iter()
        .map(|&k| {
            report
                .everify
                .of_check(k)
                .filter(|f| f.severity >= Severity::Violation)
                .count()
        })
        .collect();
    // Worst stress per check so the campaign can see a mutant worsening
    // an already-violating subject (count stays flat, stress escalates).
    let check_max_stress = CheckKind::ALL
        .iter()
        .map(|&k| {
            report
                .everify
                .of_check(k)
                .filter(|f| f.severity >= Severity::Violation)
                .map(|f| f.stress)
                .fold(0.0, f64::max)
        })
        .collect();
    let verify_cpu = report
        .stages
        .iter()
        .filter(|s| s.stage == "everify" || s.stage == "timing")
        .map(|s| s.cpu_time.seconds())
        .sum();
    let (cache_hits, cache_misses) = report
        .stages
        .iter()
        .filter_map(|s| s.cache)
        .fold((0, 0), |(h, m), c| (h + c.hits, m + c.misses));
    FlowObservation {
        check_violations,
        check_max_stress,
        timing_violations: report.sta.violations.len(),
        verify_cpu,
        cache_hits,
        cache_misses,
    }
}

/// A §4.2 finding resolved onto the recognized design: the concrete
/// place a repair engine aims its operators. Every [`Subject`] flavor
/// maps to one of these; the ad-hoc unit-name parsing earlier escape
/// analyses used is exactly what this type replaces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SiteRef {
    /// One specific device.
    Device(DeviceId),
    /// A net; the implicated devices are everything touching it.
    Net(cbv_netlist::NetId),
    /// A whole recognized channel-connected component (verification
    /// unit), e.g. from a `Tool` finding covering a panicked unit.
    Unit(CccId),
}

/// Resolves one finding to its recognized site, validating the subject
/// against the report's own netlist and recognition (a stale or
/// out-of-range subject resolves to `None` rather than panicking — the
/// report may describe a netlist the caller has since edited).
/// A whole-design check that panicked names [`Subject::Design`], which
/// no CCC owns, and resolves to `None`.
pub fn finding_site(report: &FlowReport, finding: &Finding) -> Option<SiteRef> {
    match finding.subject {
        Subject::Device(d) => {
            (d.index() < report.netlist.devices().len()).then_some(SiteRef::Device(d))
        }
        Subject::Net(n) => (n.index() < report.netlist.net_count()).then_some(SiteRef::Net(n)),
        Subject::Unit(u) => {
            ((u as usize) < report.recognition.cccs.len()).then_some(SiteRef::Unit(CccId(u)))
        }
        Subject::Design => None,
    }
}

/// The devices implicated by a resolved site, ascending and
/// deduplicated: the device itself, every device touching the net, or
/// every member of the unit.
pub fn site_devices(report: &FlowReport, site: SiteRef) -> Vec<DeviceId> {
    let mut out = match site {
        SiteRef::Device(d) => vec![d],
        SiteRef::Net(n) => report
            .netlist
            .net_uses(n)
            .iter()
            .map(|u| u.device())
            .collect(),
        SiteRef::Unit(u) => report.recognition.cccs[u.index()].devices.clone(),
    };
    out.sort_unstable();
    out.dedup();
    out
}

/// The verification unit (CCC) that owns a resolved site, when one does:
/// a device's owning component, a net's driving component, or the unit
/// itself. Repair search uses this to widen a device-level finding to
/// its whole stage.
pub fn site_unit(report: &FlowReport, site: SiteRef) -> Option<CccId> {
    match site {
        SiteRef::Device(d) => report.recognition.device_ccc.get(d.index()).copied(),
        SiteRef::Net(n) => {
            let cccs = &report.recognition.cccs;
            cccs.iter()
                .position(|c| c.outputs.contains(&n) || c.channel_nets.contains(&n))
                // A gate-only net (e.g. a primary input or clock) has no
                // driving unit; fall back to the first unit reading it.
                .or_else(|| cccs.iter().position(|c| c.inputs.contains(&n)))
                .map(|i| CccId(i as u32))
        }
        SiteRef::Unit(u) => Some(u),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{run_flow, run_flow_incremental, FlowConfig};
    use cbv_cache::VerifyCache;
    use cbv_mutate::{apply, FlowOracle, MutationOp, Site};
    use cbv_netlist::{FlatNetlist, NetId};
    use cbv_tech::Process;

    fn domino_report() -> FlowReport {
        let p = Process::strongarm_035();
        let nl = crate::gen::latches::keeper_domino(&p, 1e-6).netlist;
        run_flow(nl, &p, &FlowConfig::default())
    }

    fn finding(check: CheckKind, subject: Subject) -> Finding {
        Finding {
            check,
            subject,
            severity: Severity::Violation,
            stress: 1.2,
            message: String::new(),
        }
    }

    /// One resolution case per §4.2 check kind, each through the subject
    /// flavor that check actually reports.
    #[test]
    fn finding_site_resolves_every_check_kind() {
        let report = domino_report();
        let dev = report.netlist.device_ids().next().unwrap();
        let net = report
            .netlist
            .net_ids()
            .find(|&n| {
                !report.netlist.net_kind(n).is_rail() && !report.netlist.net_uses(n).is_empty()
            })
            .unwrap();
        // (check, subject, expected site) — device-stress checks report
        // devices, node checks report nets, tool failures report units.
        let cases = [
            (CheckKind::BetaRatio, Subject::Device(dev)),
            (CheckKind::EdgeRate, Subject::Net(net)),
            (CheckKind::Coupling, Subject::Net(net)),
            (CheckKind::ChargeShare, Subject::Net(net)),
            (CheckKind::Leakage, Subject::Net(net)),
            (CheckKind::Writability, Subject::Net(net)),
            (CheckKind::Electromigration, Subject::Device(dev)),
            (CheckKind::Antenna, Subject::Device(dev)),
            (CheckKind::HotCarrier, Subject::Device(dev)),
            (CheckKind::Tddb, Subject::Device(dev)),
            (CheckKind::Tool, Subject::Unit(0)),
        ];
        assert_eq!(cases.len(), CheckKind::ALL.len());
        for (check, subject) in cases {
            let f = finding(check, subject);
            let site =
                finding_site(&report, &f).unwrap_or_else(|| panic!("{check} finding must resolve"));
            match subject {
                Subject::Device(d) => assert_eq!(site, SiteRef::Device(d)),
                Subject::Net(n) => assert_eq!(site, SiteRef::Net(n)),
                Subject::Unit(u) => assert_eq!(site, SiteRef::Unit(CccId(u))),
                Subject::Design => unreachable!("no case names the whole design"),
            }
            let devs = site_devices(&report, site);
            assert!(!devs.is_empty(), "{check} site implicates devices");
            for w in devs.windows(2) {
                assert!(w[0] < w[1], "ascending, deduplicated");
            }
            for d in &devs {
                assert!(d.index() < report.netlist.devices().len());
            }
            assert!(
                site_unit(&report, site).is_some(),
                "{check} site has an owning unit"
            );
        }
    }

    #[test]
    fn out_of_range_subjects_resolve_to_none() {
        let report = domino_report();
        let beyond_dev = DeviceId(report.netlist.devices().len() as u32);
        let beyond_net = NetId(report.netlist.net_count() as u32);
        let beyond_unit = report.recognition.cccs.len() as u32;
        for f in [
            finding(CheckKind::BetaRatio, Subject::Device(beyond_dev)),
            finding(CheckKind::Coupling, Subject::Net(beyond_net)),
            finding(CheckKind::Tool, Subject::Unit(beyond_unit)),
        ] {
            assert_eq!(finding_site(&report, &f), None);
        }
    }

    /// A whole-design check that panics in the cold battery reports
    /// `Subject::Design`, which no CCC owns, so it must not resolve to
    /// one. A per-unit `Tool` finding still does.
    #[test]
    fn only_a_per_unit_tool_finding_resolves_to_its_ccc() {
        let p = Process::strongarm_035();
        let adder = || cbv_gen::adders::static_ripple_adder(4, &p).netlist;
        let mut report = run_flow(adder(), &p, &FlowConfig::default());
        assert!(report.recognition.cccs.len() > 3, "unit 3 is a real CCC");
        let netlist = report.netlist.clone();
        let layout = cbv_layout::synthesize(&netlist, &p);
        let extracted = cbv_extract::extract(&layout, &netlist, &p);
        let cfg = cbv_everify::EverifyConfig::for_process(&p);
        let mut checks = cbv_everify::battery(
            &netlist,
            &report.recognition,
            &extracted,
            Some(&layout),
            &p,
            &cfg,
        );
        checks.insert(
            3,
            cbv_everify::BatteryCheck::new(CheckKind::Coupling, |_| panic!("injected")),
        );
        let (everify, _) = cbv_everify::run_battery(
            checks,
            cfg.filter_threshold,
            &cbv_exec::Executor::serial(),
            cbv_obs::TraceCtx::disabled(),
        );
        report.everify = everify;
        let panicked: Vec<&Finding> = report.everify.tool_errors().collect();
        assert_eq!(panicked.len(), 1);
        assert_eq!(panicked[0].subject, Subject::Design);
        assert_eq!(finding_site(&report, panicked[0]), None);

        // An expired deadline makes every unit report a `Tool` finding
        // naming itself: each CCC's resolves to that CCC.
        let cfg = FlowConfig {
            deadline: Some(std::time::Instant::now()),
            ..FlowConfig::default()
        };
        let timed_out = run_flow_incremental(adder(), &p, &cfg, &mut VerifyCache::new());
        let n_cccs = timed_out.recognition.cccs.len() as u32;
        let mut resolved = 0;
        for f in timed_out.everify.tool_errors() {
            let Subject::Unit(u) = f.subject else {
                panic!("a timed-out unit names itself: {f:?}");
            };
            let want = (u < n_cccs).then_some(SiteRef::Unit(CccId(u)));
            assert_eq!(finding_site(&timed_out, f), want);
            resolved += usize::from(want.is_some());
        }
        assert!(resolved > 3, "every CCC's findings resolved: {resolved}");
    }

    #[test]
    fn cold_and_incremental_oracles_agree_on_the_domino_cell() {
        let p = Process::strongarm_035();
        let base = crate::gen::latches::keeper_domino(&p, 1e-6).netlist;
        let cfg = FlowConfig::default();
        let mut cache = VerifyCache::new();
        let mut cold = |n: &FlatNetlist| observe(&run_flow(n.clone(), &p, &cfg));
        let mut inc =
            |n: &FlatNetlist| observe(&run_flow_incremental(n.clone(), &p, &cfg, &mut cache));
        let cold_base = cold.verify(&base);
        let inc_base = inc.verify(&base);
        assert_eq!(cold_base.check_violations, inc_base.check_violations);
        assert_eq!(cold_base.timing_violations, inc_base.timing_violations);
        assert_eq!(
            inc_base.cache_hits, 0,
            "first incremental run is all misses"
        );

        // A gross mutant moves both oracles identically, and the
        // incremental one reuses at least one cached unit.
        let mut mutant = base.clone();
        let victim = mutant.device_ids().next().unwrap();
        apply(
            &mut mutant,
            &MutationOp::WidthScale { factor: 12.0 },
            Site::Device(victim),
        )
        .unwrap();
        let cold_obs = cold.verify(&mutant);
        let inc_obs = inc.verify(&mutant);
        assert_eq!(cold_obs.check_violations, inc_obs.check_violations);
        assert_eq!(cold_obs.timing_violations, inc_obs.timing_violations);
        assert_eq!(
            inc_obs.fired_against(&inc_base),
            cold_obs.fired_against(&cold_base)
        );
    }
}
