//! Automatic path sizing (logical-effort style).
//!
//! §2.2: "Transistors are sized either by the designer or by using
//! automatic path sizing techniques. ... Automatic logic synthesis, when
//! used, is oriented towards creation of raw unsized gates, allowing
//! designer manipulation to the final form."
//!
//! Given a chain of stages (each a set of devices forming one gate) and a
//! final load, the optimizer assigns stage input capacitances in
//! geometric progression — the logical-effort optimum for a chain — and
//! scales every device in a stage by the stage's factor.

use cbv_netlist::{DeviceId, FlatNetlist};
use cbv_tech::{Corner, Farads, Process, Seconds};

/// Result of sizing one path.
#[derive(Debug, Clone, PartialEq)]
pub struct SizingResult {
    /// Estimated path delay before sizing.
    pub delay_before: Seconds,
    /// Estimated path delay after sizing.
    pub delay_after: Seconds,
    /// Scale factor applied to each stage.
    pub stage_scale: Vec<f64>,
}

fn stage_input_cap(netlist: &FlatNetlist, stage: &[DeviceId], process: &Process) -> Farads {
    stage
        .iter()
        .map(|&d| {
            let dev = netlist.device(d);
            process.mos(dev.kind).gate_capacitance(dev.w, dev.l)
        })
        .sum()
}

fn stage_resistance(
    netlist: &FlatNetlist,
    stage: &[DeviceId],
    process: &Process,
    corner: &Corner,
) -> f64 {
    // Parallel-ish proxy: the NMOS half (or whole stage if single
    // polarity) as one conductance; good enough for chain optimization.
    let g: f64 = stage
        .iter()
        .map(|&d| {
            let dev = netlist.device(d);
            let i = process
                .mos(dev.kind)
                .saturation_current(dev.w, dev.l, corner);
            2.0 * i.amps() / corner.vdd.volts()
        })
        .sum::<f64>()
        / stage.len() as f64;
    1.0 / g
}

/// Estimates chain delay: each stage drives the next stage's input
/// capacitance, the last drives `c_load`.
fn chain_delay(
    netlist: &FlatNetlist,
    stages: &[Vec<DeviceId>],
    c_load: Farads,
    process: &Process,
) -> Seconds {
    let corner = Corner::typical(process);
    let mut total = Seconds::ZERO;
    for (i, stage) in stages.iter().enumerate() {
        let r = stage_resistance(netlist, stage, process, &corner);
        let c = if i + 1 < stages.len() {
            stage_input_cap(netlist, &stages[i + 1], process)
        } else {
            c_load
        };
        total += Seconds::new(r * c.farads());
    }
    total
}

/// Sizes a chain of stages toward the logical-effort optimum, mutating
/// device widths in place.
///
/// The first stage's input capacitance is held fixed (it is the path's
/// interface); every downstream stage is scaled so the stage efforts are
/// equal: `f = (C_load / C_in1)^(1/N)`.
///
/// # Panics
///
/// Panics if `stages` is empty or any stage has no devices.
pub fn size_path(
    netlist: &mut FlatNetlist,
    stages: &[Vec<DeviceId>],
    c_load: Farads,
    process: &Process,
) -> SizingResult {
    assert!(!stages.is_empty(), "need at least one stage");
    for s in stages {
        assert!(!s.is_empty(), "stage without devices");
    }
    let delay_before = chain_delay(netlist, stages, c_load, process);

    let c_in1 = stage_input_cap(netlist, &stages[0], process);
    let n = stages.len() as f64;
    // `f64::max` swallows NaN (it returns the other operand), so a NaN
    // load or gate cap would quietly clamp to the floor and the sizer
    // would "succeed" on garbage; clamp only finite efforts and let NaN
    // ride through into the reported delays instead.
    let raw_effort = c_load.farads() / c_in1.farads();
    let path_effort = if raw_effort.is_nan() {
        raw_effort
    } else {
        raw_effort.max(1.0)
    };
    let f = path_effort.powf(1.0 / n);

    // Target input cap of stage i: C_in1 * f^i  (stage 0 unchanged).
    let mut stage_scale = vec![1.0];
    for (i, stage) in stages.iter().enumerate().skip(1) {
        let current = stage_input_cap(netlist, stage, process);
        let target = c_in1.farads() * f.powi(i as i32);
        let raw_scale = target / current.farads();
        let scale = if raw_scale.is_nan() {
            raw_scale
        } else {
            raw_scale.max(0.1)
        };
        for &d in stage {
            let dev = netlist.device_mut(d);
            dev.w *= scale;
        }
        stage_scale.push(scale);
    }
    let delay_after = chain_delay(netlist, stages, c_load, process);
    SizingResult {
        delay_before,
        delay_after,
        stage_scale,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_netlist::{Device, NetKind};
    use cbv_tech::MosKind;

    /// A chain of `n` minimum inverters driving a large load.
    fn chain(n: usize) -> (FlatNetlist, Vec<Vec<DeviceId>>) {
        let mut f = FlatNetlist::new("chain");
        let vdd = f.add_net("vdd", NetKind::Power);
        let gnd = f.add_net("gnd", NetKind::Ground);
        let mut prev = f.add_net("in", NetKind::Input);
        let mut stages = Vec::new();
        for i in 0..n {
            let out = f.add_net(&format!("n{i}"), NetKind::Signal);
            let p = f.add_device(Device::mos(
                MosKind::Pmos,
                format!("p{i}"),
                prev,
                out,
                vdd,
                vdd,
                2.8e-6,
                0.35e-6,
            ));
            let nd = f.add_device(Device::mos(
                MosKind::Nmos,
                format!("n{i}"),
                prev,
                out,
                gnd,
                gnd,
                1.4e-6,
                0.35e-6,
            ));
            stages.push(vec![p, nd]);
            prev = out;
        }
        (f, stages)
    }

    #[test]
    fn sizing_big_load_helps_substantially() {
        let (mut f, stages) = chain(4);
        let p = Process::strongarm_035();
        // 500 fF: enormous for minimum inverters.
        let r = size_path(&mut f, &stages, Farads::new(500e-15), &p);
        assert!(
            r.delay_after.seconds() < 0.5 * r.delay_before.seconds(),
            "sizing must cut delay at least 2x: {} -> {}",
            r.delay_before,
            r.delay_after
        );
        // Stage scales must grow monotonically (geometric taper).
        for w in r.stage_scale.windows(2) {
            assert!(
                w[1] >= w[0] * 0.99,
                "taper must not shrink: {:?}",
                r.stage_scale
            );
        }
    }

    #[test]
    fn sizing_small_load_is_nearly_noop() {
        let (mut f, stages) = chain(3);
        let p = Process::strongarm_035();
        let c_in = stage_input_cap(&f, &stages[0], &p);
        let r = size_path(&mut f, &stages, c_in, &p);
        for s in &r.stage_scale {
            assert!((*s - 1.0).abs() < 0.3, "scales near 1: {s}");
        }
    }

    #[test]
    fn first_stage_untouched() {
        let (mut f, stages) = chain(3);
        let w_before = f.device(stages[0][0]).w;
        let p = Process::strongarm_035();
        let _ = size_path(&mut f, &stages, Farads::new(200e-15), &p);
        assert_eq!(f.device(stages[0][0]).w, w_before);
    }

    /// A NaN load must surface as NaN scales and a NaN post-sizing
    /// delay — `f64::max(0.1)` would otherwise clamp it to the floor and
    /// the sizer would report a healthy result for garbage input.
    #[test]
    fn nan_load_is_not_clamped_away() {
        let (mut f, stages) = chain(3);
        let p = Process::strongarm_035();
        let r = size_path(&mut f, &stages, Farads::new(f64::NAN), &p);
        assert!(r.stage_scale[1].is_nan(), "scale must carry the NaN");
        assert!(r.delay_after.seconds().is_nan(), "delay must carry it too");
    }

    #[test]
    #[should_panic(expected = "at least one stage")]
    fn empty_path_panics() {
        let (mut f, _) = chain(1);
        let p = Process::strongarm_035();
        let _ = size_path(&mut f, &[], Farads::new(1e-15), &p);
    }
}
