//! Switched-capacitance dynamic power and total leakage.

use cbv_extract::Extracted;
use cbv_netlist::{FlatNetlist, NetId};
use cbv_recognize::{NetRole, Recognition};
use cbv_tech::{Corner, Hertz, Process, Watts};

use crate::activity::ActivityModel;

/// Where the power goes.
#[derive(Debug, Clone, PartialEq)]
pub struct PowerBreakdown {
    /// Clock network dynamic power.
    pub clock: Watts,
    /// Data signal dynamic power.
    pub data: Watts,
    /// Subthreshold leakage power.
    pub leakage: Watts,
}

impl PowerBreakdown {
    /// Total power.
    pub fn total(&self) -> Watts {
        self.clock + self.data + self.leakage
    }
}

/// Dynamic power of the netlist at a frequency, using extracted
/// capacitances and the activity model.
///
/// Clock nets toggle every cycle (α = 1, two transitions → `C·V²·f`);
/// conditional clocking scales the clock term by the model's gating
/// efficiency. Data nets use per-net or default activity
/// (`α·C·V²·f / 2` per full toggle pair folded into α's definition).
pub fn dynamic_power(
    netlist: &FlatNetlist,
    recognition: &Recognition,
    extracted: &Extracted,
    process: &Process,
    frequency: Hertz,
    activity: &ActivityModel,
) -> PowerBreakdown {
    let v = process.vdd_nominal();
    let v2 = v.volts() * v.volts();
    let f = frequency.hertz();
    let mut clock = 0.0;
    let mut data = 0.0;
    for net in 0..netlist.net_count() as u32 {
        let id = NetId(net);
        let c = extracted.total_cap(id).farads();
        if c <= 0.0 {
            continue;
        }
        match recognition.role(id) {
            NetRole::Clock => {
                clock += c * v2 * f * activity.clock_gating_factor;
            }
            NetRole::Rail => {}
            _ => {
                data += 0.5 * activity.of(id) * c * v2 * f;
            }
        }
    }
    PowerBreakdown {
        clock: Watts::new(clock),
        data: Watts::new(data),
        leakage: leakage_power(netlist, process, &Corner::typical(process)),
    }
}

/// Total subthreshold leakage power of every device at a corner.
pub fn leakage_power(netlist: &FlatNetlist, process: &Process, corner: &Corner) -> Watts {
    let mut total = 0.0;
    for d in netlist.devices() {
        let i = process
            .mos(d.kind)
            .subthreshold_leakage(d.w, d.l, corner)
            .amps();
        // Roughly half the devices are off at any moment.
        total += 0.5 * i * corner.vdd.volts();
    }
    Watts::new(total)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_layout::synthesize;
    use cbv_netlist::{Device, NetKind};
    use cbv_recognize::recognize;
    use cbv_tech::{units::megahertz, MosKind};

    fn chain(n: usize) -> (FlatNetlist, Extracted, Recognition, Process) {
        let mut f = FlatNetlist::new("chain");
        let process = Process::strongarm_035();
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let mut prev = f.add_net("in", NetKind::Input);
        for i in 0..n {
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
        (f, ex, rec, process)
    }

    #[test]
    fn power_scales_with_frequency_and_size() {
        let (f, ex, rec, p) = chain(4);
        let act = ActivityModel::uniform(0.2);
        let p160 = dynamic_power(&f, &rec, &ex, &p, megahertz(160.0), &act);
        let p80 = dynamic_power(&f, &rec, &ex, &p, megahertz(80.0), &act);
        assert!(p160.data.watts() > 1.9 * p80.data.watts());
        let (f8, ex8, rec8, _) = chain(8);
        let p8 = dynamic_power(&f8, &rec8, &ex8, &p, megahertz(160.0), &act);
        assert!(p8.data.watts() > 1.5 * p160.data.watts());
    }

    #[test]
    fn activity_scales_data_power() {
        let (f, ex, rec, p) = chain(4);
        let lo = dynamic_power(
            &f,
            &rec,
            &ex,
            &p,
            megahertz(160.0),
            &ActivityModel::uniform(0.1),
        );
        let hi = dynamic_power(
            &f,
            &rec,
            &ex,
            &p,
            megahertz(160.0),
            &ActivityModel::uniform(0.4),
        );
        assert!((hi.data.watts() / lo.data.watts() - 4.0).abs() < 0.01);
    }

    #[test]
    fn conditional_clocking_cuts_clock_power() {
        // Clocked load: a clock net driving gates.
        let mut f = FlatNetlist::new("ck");
        let process = Process::strongarm_035();
        let ck = f.add_net("ck", NetKind::Clock);
        let q = f.add_net("q", NetKind::Output);
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        for i in 0..8 {
            f.add_device(Device::mos(
                MosKind::Nmos,
                format!("l{i}"),
                ck,
                q,
                gnd,
                gnd,
                6e-6,
                0.35e-6,
            ));
            f.add_device(Device::mos(
                MosKind::Pmos,
                format!("pl{i}"),
                ck,
                q,
                vdd,
                vdd,
                6e-6,
                0.35e-6,
            ));
        }
        let layout = synthesize(&f, &process);
        let ex = cbv_extract::extract(&layout, &f, &process);
        let rec = recognize(&f);
        let mut act = ActivityModel::uniform(0.2);
        let free_running = dynamic_power(&f, &rec, &ex, &process, megahertz(160.0), &act);
        act.clock_gating_factor = 0.6;
        let gated = dynamic_power(&f, &rec, &ex, &process, megahertz(160.0), &act);
        assert!((gated.clock.watts() / free_running.clock.watts() - 0.6).abs() < 1e-9);
    }

    #[test]
    fn leakage_larger_at_fast_corner() {
        let (f, _, _, p) = chain(4);
        let typ = leakage_power(&f, &p, &Corner::typical(&p));
        let fast = leakage_power(&f, &p, &Corner::fast(&p));
        assert!(fast.watts() > typ.watts());
    }
}
