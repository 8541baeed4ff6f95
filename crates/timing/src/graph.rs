//! Timing-graph construction from recognition results.

use std::time::Duration;

use cbv_exec::Executor;
use cbv_obs::TraceCtx;

use cbv_extract::Extracted;
use cbv_netlist::{CccId, FlatNetlist, NetId};
use cbv_recognize::{NetRole, Recognition};
use cbv_tech::Seconds;

use crate::delay::DelayCalc;

/// One delay arc: `from` switching causes `to` to settle after a bounded
/// delay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arc {
    /// Source net (a CCC input).
    pub from: NetId,
    /// Target net (a CCC output).
    pub to: NetId,
    /// Earliest (fastest) delay.
    pub min: Seconds,
    /// Latest (slowest) delay.
    pub max: Seconds,
    /// The component providing the arc.
    pub ccc: CccId,
}

/// A point where timing starts: a primary input, a state element output,
/// or a dynamic node's evaluate edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchPoint {
    /// The launching net.
    pub net: NetId,
    /// The clock phase that launches it, if clocked (`None` = primary
    /// input, launched at time zero).
    pub clock: Option<NetId>,
}

/// The timing graph.
#[derive(Debug, Clone, Default)]
pub struct TimingGraph {
    /// All delay arcs.
    pub arcs: Vec<Arc>,
    /// All launch points.
    pub launches: Vec<LaunchPoint>,
    /// Nets at which max/min propagation stops (state storage nets —
    /// data is re-launched from them by a clock, not flushed through).
    pub cut_nets: Vec<NetId>,
}

impl TimingGraph {
    /// Arcs out of a net.
    pub fn fanout(&self, net: NetId) -> impl Iterator<Item = &Arc> {
        self.arcs.iter().filter(move |a| a.from == net)
    }

    /// Whether propagation is cut at this net.
    pub fn is_cut(&self, net: NetId) -> bool {
        self.cut_nets.contains(&net)
    }
}

/// A state element's internal regeneration (e.g. a jam latch's feedback
/// inverter driving its own storage node) is not a timing arc: data
/// timing is measured from *outside* the element.
fn same_element(netlist: &FlatNetlist, recognition: &Recognition, from: NetId, to: NetId) -> bool {
    // Externally driven nets are by definition new data, even when a
    // feedback component happens to touch them.
    if netlist.net_kind(from).is_driven_externally() {
        return false;
    }
    recognition.state_elements.iter().any(|se| {
        se.storage_nets.contains(&to)
            && se
                .cccs
                .iter()
                .any(|&ci| recognition.cccs[ci.index()].outputs.contains(&from))
    })
}

/// All delay arcs contributed by one CCC, in deterministic order.
///
/// Exposed so the incremental flow can rebuild arcs for just the dirty
/// components and splice cached arcs in for the rest; the result for a
/// given `i` depends only on that CCC's devices, boundary nets, class
/// and parasitics.
pub fn ccc_arcs(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    calc: &DelayCalc<'_>,
    i: usize,
) -> Vec<Arc> {
    let ccc = &recognition.cccs[i];
    let class = &recognition.classes[i];
    let mut arcs = Vec::new();
    for &out in &ccc.outputs {
        // Externally driven nets are set by the outside world; the
        // circuit cannot retime them (a pass network touching a
        // primary input does not drive it).
        if netlist.net_kind(out).is_driven_externally() {
            continue;
        }
        for &inp in &ccc.inputs {
            // A clock input arcs only onto dynamic outputs (the
            // evaluate edge); data inputs arc onto everything.
            let is_clock = recognition.clock_nets.contains(&inp);
            let is_dynamic_out = class.dynamic_outputs.contains(&out);
            if is_clock && !is_dynamic_out {
                continue;
            }
            if same_element(netlist, recognition, inp, out) {
                continue;
            }
            if let Some((min, max)) = calc.arc_delay(netlist, extracted, class, inp, out) {
                arcs.push(Arc {
                    from: inp,
                    to: out,
                    min,
                    max,
                    ccc: CccId(i as u32),
                });
            }
        }
        // Data can also enter through the *channel* side of a pass
        // network: a primary input wired straight into a pass device
        // has no gate arc, yet its value flushes through to every
        // boundary net of the component.
        for &src in &ccc.outputs {
            if src == out
                || !netlist.net_kind(src).is_driven_externally()
                || recognition.clock_nets.contains(&src)
            {
                continue;
            }
            if same_element(netlist, recognition, src, out) {
                continue;
            }
            if let Some((min, max)) = calc.arc_delay(netlist, extracted, class, src, out) {
                arcs.push(Arc {
                    from: src,
                    to: out,
                    min,
                    max,
                    ccc: CccId(i as u32),
                });
            }
        }
    }
    arcs
}

/// Builds the timing graph: one arc per (input, output) pair of every
/// CCC, delays from the bounded calculator; launches at primary inputs,
/// state nets and dynamic nodes; cuts at state nets.
pub fn build_graph(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    calc: &DelayCalc<'_>,
) -> TimingGraph {
    build_graph_traced(
        netlist,
        recognition,
        extracted,
        calc,
        &Executor::serial(),
        TraceCtx::disabled(),
    )
    .0
}

/// [`build_graph`] with the per-CCC arc/delay computation — the hot part
/// of timing verification — partitioned into chunks processed across
/// `exec`'s workers. Arcs are reassembled in CCC order, so the graph is
/// identical to a serial build. Also returns aggregate worker busy time.
///
/// Each CCC chunk gets a `cccs:<start>..<end>` span under `ctx`, and the
/// finished arc count lands in the `timing.arcs` counter. Chunk
/// boundaries are independent of the worker count, so the span tree for
/// a given design is identical at any `CBV_THREADS` (only thread indices
/// and timestamps differ) — the obs determinism contract.
pub fn build_graph_traced(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    calc: &DelayCalc<'_>,
    exec: &Executor,
    ctx: TraceCtx<'_>,
) -> (TimingGraph, Duration) {
    // Arcs: chunk the CCC index space so each queue pop hands a worker a
    // meaningful slice, then flatten in CCC order.
    let n = recognition.cccs.len();
    let chunk = (n / 64).max(1);
    let starts: Vec<usize> = (0..n).step_by(chunk).collect();
    let (chunks, busy) = exec.map_traced(
        ctx,
        starts,
        |start| {
            let mut arcs = Vec::new();
            for i in start..(start + chunk).min(n) {
                arcs.extend(ccc_arcs(netlist, recognition, extracted, calc, i));
            }
            arcs
        },
        |k| format!("cccs:{}..{}", k * chunk, ((k + 1) * chunk).min(n)),
    );
    let arcs: Vec<Arc> = chunks.into_iter().flatten().collect();
    ctx.tracer.add("timing.arcs", arcs.len() as u64);
    (graph_from_arcs(netlist, recognition, arcs), busy)
}

/// Assembles a [`TimingGraph`] from a finished arc list: attaches the
/// launch points (primary inputs, state nets, dynamic nodes) and the
/// cut nets, which depend only on recognition, not on the delays. The
/// incremental flow calls this directly with a mix of cached and freshly
/// computed arcs.
pub fn graph_from_arcs(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    arcs: Vec<Arc>,
) -> TimingGraph {
    let mut g = TimingGraph {
        arcs,
        ..TimingGraph::default()
    };

    // Launches: primary inputs.
    for net in 0..netlist.net_count() as u32 {
        let id = NetId(net);
        if recognition.role(id) == NetRole::Input {
            g.launches.push(LaunchPoint {
                net: id,
                clock: None,
            });
        }
    }
    // Launches + cuts: state elements.
    for se in &recognition.state_elements {
        for &net in &se.storage_nets {
            g.launches.push(LaunchPoint {
                net,
                clock: se.clocks.first().copied(),
            });
            if !g.cut_nets.contains(&net) {
                g.cut_nets.push(net);
            }
        }
    }
    // Launches: dynamic nodes (evaluate at their clock).
    for class in &recognition.classes {
        for &dn in &class.dynamic_outputs {
            if !g.launches.iter().any(|l| l.net == dn) {
                g.launches.push(LaunchPoint {
                    net: dn,
                    clock: class.clock_inputs.first().copied(),
                });
            }
        }
    }
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::Pessimism;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::{MosKind, Process, Tolerance};

    fn build(f: &mut FlatNetlist) -> (Recognition, TimingGraph) {
        let process = Process::strongarm_035();
        let layout = synthesize(f, &process);
        let ex = cbv_extract::extract(&layout, f, &process);
        let rec = recognize(f);
        let calc = DelayCalc::new(&process, Tolerance::conservative(), Pessimism::signoff());
        let g = build_graph(f, &rec, &ex, &calc);
        (rec, g)
    }

    #[test]
    fn inverter_chain_graph() {
        let mut f = FlatNetlist::new("chain");
        let a = f.add_net("a", NetKind::Input);
        let m = f.add_net("m", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        for (n, i, o) in [("i0", a, m), ("i1", m, y)] {
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("{n}p"),
                i,
                o,
                vdd,
                vdd,
                4e-6,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{n}n"),
                i,
                o,
                gnd,
                gnd,
                2e-6,
                0.35e-6,
            ));
        }
        let (_, g) = build(&mut f);
        assert_eq!(g.arcs.len(), 2);
        assert_eq!(g.fanout(a).count(), 1);
        assert_eq!(g.arcs.iter().filter(|arc| arc.to == y).count(), 1);
        assert_eq!(g.launches.len(), 1, "one primary input");
        assert!(g.cut_nets.is_empty());
        for arc in &g.arcs {
            assert!(arc.min.seconds() > 0.0);
            assert!(arc.max.seconds() >= arc.min.seconds());
        }
    }

    #[test]
    fn domino_gets_clock_launch_arc() {
        let mut f = FlatNetlist::new("dom");
        let clk = f.add_net("clk", NetKind::Clock);
        let a = f.add_net("a", NetKind::Input);
        let d = f.add_net("d", NetKind::Output);
        let x = f.add_net("x", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Pmos,
            "pre",
            clk,
            d,
            vdd,
            vdd,
            3e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "na",
            a,
            d,
            x,
            gnd,
            4e-6,
            0.35e-6,
        ));
        f.add_device(Device::mos(
            MosKind::Nmos,
            "foot",
            clk,
            x,
            gnd,
            gnd,
            6e-6,
            0.35e-6,
        ));
        let (_, g) = build(&mut f);
        // Arc from a to d (data) and clk to d (eval).
        assert!(g.arcs.iter().any(|arc| arc.from == a && arc.to == d));
        assert!(g.arcs.iter().any(|arc| arc.from == clk && arc.to == d));
        // Dynamic node is a launch point on its clock.
        assert!(g
            .launches
            .iter()
            .any(|l| l.net == d && l.clock == Some(clk)));
    }

    #[test]
    fn latch_cuts_propagation() {
        let mut f = FlatNetlist::new("latch");
        let dta = f.add_net("d", NetKind::Input);
        let ck = f.add_net("ck", NetKind::Clock);
        let x = f.add_net("x", NetKind::Signal);
        let y = f.add_net("y", NetKind::Output);
        let fb = f.add_net("fb", NetKind::Signal);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        f.add_device(Device::mos(
            MosKind::Nmos,
            "pass",
            ck,
            dta,
            x,
            gnd,
            2e-6,
            0.35e-6,
        ));
        for (n, i, o) in [("fwd", x, y), ("bck", y, fb)] {
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("{n}p"),
                i,
                o,
                vdd,
                vdd,
                4e-6,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("{n}n"),
                i,
                o,
                gnd,
                gnd,
                2e-6,
                0.35e-6,
            ));
        }
        f.add_device(Device::mos(
            MosKind::Nmos,
            "fbk",
            ck,
            fb,
            x,
            gnd,
            1e-6,
            0.7e-6,
        ));
        let (rec, g) = build(&mut f);
        assert!(!rec.state_elements.is_empty());
        assert!(!g.cut_nets.is_empty());
        for &cn in &g.cut_nets {
            assert!(g.launches.iter().any(|l| l.net == cn), "cut nets relaunch");
        }
    }
}
