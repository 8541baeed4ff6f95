//! E4 — **Fig 3**: noise sources in dynamic structures.
//!
//! Sweeps the three §4.2 noise knobs on generated domino stages and
//! reports what the battery detects vs filters: charge-share droop vs
//! stack depth, leakage droop vs channel lengthening, and the
//! keeper-vs-no-keeper coupling margin — the probability-filter behavior
//! in action.

use cbv_core::everify::{run_all, CheckKind, EverifyConfig, Severity};
use cbv_core::extract::extract;
use cbv_core::gen::latches::keeper_domino;
use cbv_core::layout::synthesize;
use cbv_core::netlist::{Device, FlatNetlist, NetId, NetKind};
use cbv_core::recognize::recognize;
use cbv_core::tech::{MosKind, Process, Seconds};

/// One sweep point.
pub struct NoisePoint {
    /// The swept parameter's value (stack depth, ΔL in nm, ...).
    pub param: f64,
    /// Worst stress recorded by the check under study.
    pub worst_stress: f64,
    /// Violations reported.
    pub violations: usize,
    /// Reviews reported.
    pub reviews: usize,
    /// Situations filtered as clearly fine.
    pub filtered: usize,
}

fn domino_stack(depth: usize, w: f64, process: &Process) -> FlatNetlist {
    let mut f = FlatNetlist::new(format!("dom{depth}"));
    let l = process.l_min().meters();
    let clk = f.add_net("clk", NetKind::Clock);
    let d = f.add_net("d", NetKind::Signal);
    let out = f.add_net("out", NetKind::Output);
    let vdd = f.add_net("vdd", NetKind::Power);
    let gnd = f.add_net("gnd", NetKind::Ground);
    f.add_device(Device::mos(
        MosKind::Pmos,
        "pre",
        clk,
        d,
        vdd,
        vdd,
        3.4e-6,
        l,
    ));
    let mut prev = d;
    for i in 0..depth {
        let a = f.add_net(&format!("a{i}"), NetKind::Input);
        let nxt = f.add_net(&format!("x{i}"), NetKind::Signal);
        f.add_device(Device::mos(
            MosKind::Nmos,
            format!("m{i}"),
            a,
            prev,
            nxt,
            gnd,
            w,
            l,
        ));
        prev = nxt;
    }
    f.add_device(Device::mos(
        MosKind::Nmos,
        "foot",
        clk,
        prev,
        gnd,
        gnd,
        w,
        l,
    ));
    f.add_device(Device::mos(
        MosKind::Pmos,
        "op",
        d,
        out,
        vdd,
        vdd,
        3.4e-6,
        l,
    ));
    f.add_device(Device::mos(
        MosKind::Nmos,
        "on",
        d,
        out,
        gnd,
        gnd,
        1.4e-6,
        l,
    ));
    f
}

fn battery(netlist: FlatNetlist, process: &Process, check: CheckKind, hold: Seconds) -> NoisePoint {
    let rec = recognize(&netlist);
    let layout = synthesize(&netlist, process);
    let ex = extract(&layout, &netlist, process);
    let mut cfg = EverifyConfig::for_process(process);
    cfg.dynamic_hold = hold;
    // Keep every record so the sweep shows the filter boundary moving.
    cfg.filter_threshold = 1e-6;
    let report = run_all(&netlist, &rec, &ex, Some(&layout), process, &cfg);
    let findings: Vec<_> = report.of_check(check).collect();
    let worst = findings.iter().map(|f| f.stress).fold(0.0, f64::max);
    // Re-bucket against the signoff threshold 0.6.
    let violations = findings
        .iter()
        .filter(|f| f.severity == Severity::Violation)
        .count();
    let reviews = findings
        .iter()
        .filter(|f| f.severity == Severity::Review && f.stress >= 0.6)
        .count();
    let filtered = findings.len() - violations - reviews;
    NoisePoint {
        param: 0.0,
        worst_stress: worst,
        violations,
        reviews,
        filtered,
    }
}

/// Charge-share droop vs evaluate-stack depth.
fn charge_share_sweep() -> Vec<NoisePoint> {
    let p = Process::strongarm_035();
    (1..=6)
        .map(|depth| {
            let mut pt = battery(
                domino_stack(depth, 8e-6, &p),
                &p,
                CheckKind::ChargeShare,
                Seconds::new(10e-9),
            );
            pt.param = depth as f64;
            pt
        })
        .collect()
}

/// Leakage droop vs channel lengthening (ΔL in nm) at a long gated-clock
/// hold.
fn leakage_sweep() -> Vec<NoisePoint> {
    let p = Process::strongarm_035();
    [0.0, 22.5, 45.0, 90.0]
        .into_iter()
        .map(|dl_nm| {
            let mut f = domino_stack(2, 8e-6, &p);
            for id in f.device_ids().collect::<Vec<_>>() {
                if f.device(id).kind == MosKind::Nmos {
                    f.device_mut(id).l += dl_nm * 1e-9;
                }
            }
            let mut pt = battery(f, &p, CheckKind::Leakage, Seconds::new(5e-6));
            pt.param = dl_nm;
            pt
        })
        .collect()
}

/// Coupling stress with and without a keeper on the dynamic node.
fn keeper_coupling() -> Vec<(String, f64)> {
    let p = Process::strongarm_035();
    let mut out = Vec::new();
    for (name, w_keeper) in [("no keeper", None), ("weak keeper", Some(0.7e-6))] {
        let netlist = match w_keeper {
            Some(w) => keeper_domino(&p, w).netlist,
            None => {
                let mut g = keeper_domino(&p, 0.7e-6);
                // Remove the keeper by shrinking it to irrelevance is not
                // removal; rebuild without it instead.
                let mut f = FlatNetlist::new("nokeep");
                let mut map = Vec::new();
                for i in 0..g.netlist.net_count() as u32 {
                    let id = NetId(i);
                    map.push(f.add_net(g.netlist.net_name(id), g.netlist.net_kind(id)));
                }
                for d in g.netlist.devices() {
                    if d.name == "keep" {
                        continue;
                    }
                    let mut d2 = d.clone();
                    d2.gate = map[d.gate.index()];
                    d2.source = map[d.source.index()];
                    d2.drain = map[d.drain.index()];
                    d2.bulk = map[d.bulk.index()];
                    f.add_device(d2);
                }
                g.netlist = f;
                g.netlist
            }
        };
        let rec = recognize(&netlist);
        let layout = synthesize(&netlist, &p);
        let ex = extract(&layout, &netlist, &p);
        let mut cfg = EverifyConfig::for_process(&p);
        cfg.filter_threshold = 1e-6;
        let report = run_all(&netlist, &rec, &ex, Some(&layout), &p, &cfg);
        let dyn_net = netlist.find_net("dyn").expect("dyn exists");
        let stress = report
            .of_check(CheckKind::Coupling)
            .filter(|f| matches!(f.subject, cbv_core::everify::Subject::Net(n) if n == dyn_net))
            .map(|f| f.stress)
            .fold(0.0, f64::max);
        out.push((name.to_owned(), stress));
    }
    out
}

/// Prints all three sweeps.
pub fn print() {
    crate::banner("E4", "Fig 3 — noise sources in dynamic structures");
    println!("charge sharing vs evaluate-stack depth:");
    println!(
        "{:>8}{:>14}{:>12}{:>10}{:>10}",
        "depth", "worst stress", "violations", "reviews", "filtered"
    );
    for pt in charge_share_sweep() {
        println!(
            "{:>8.0}{:>14.2}{:>12}{:>10}{:>10}",
            pt.param, pt.worst_stress, pt.violations, pt.reviews, pt.filtered
        );
    }
    println!("\nsubthreshold leakage vs channel lengthening (5 us hold):");
    println!("{:>8}{:>14}{:>12}", "dL nm", "worst stress", "violations");
    for pt in leakage_sweep() {
        println!(
            "{:>8.1}{:>14.2}{:>12}",
            pt.param, pt.worst_stress, pt.violations
        );
    }
    println!("\ncoupling stress on the dynamic node, keeper ablation:");
    for (name, stress) in keeper_coupling() {
        println!("{:>14}: {:.2}", name, stress);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_share_monotone_in_depth() {
        let pts = charge_share_sweep();
        for w in pts.windows(2) {
            assert!(
                w[1].worst_stress >= w[0].worst_stress * 0.98,
                "deeper stacks share more: {} -> {}",
                w[0].worst_stress,
                w[1].worst_stress
            );
        }
        assert!(pts.last().unwrap().worst_stress > pts[0].worst_stress);
    }

    #[test]
    fn leakage_falls_with_lengthening() {
        let pts = leakage_sweep();
        assert!(pts[0].worst_stress > pts.last().unwrap().worst_stress * 3.0);
    }

    #[test]
    fn keeper_reduces_coupling_stress() {
        let rows = keeper_coupling();
        let no_keeper = rows[0].1;
        let keeper = rows[1].1;
        assert!(keeper < no_keeper, "keeper {keeper} vs bare {no_keeper}");
    }
}
