//! Process / voltage / temperature corners.
//!
//! The paper's timing and electrical verification is built around
//! *correlated min/max analysis*: every delay, capacitance and current is
//! bounded by its value at a slow and a fast corner, and the race analysis
//! in §4.3 depends on whether min and max excursions are allowed to occur
//! simultaneously on the same chip. A [`Corner`] captures one PVT point;
//! [`Tolerance`] captures the manufacturing spread applied to extracted
//! parasitics (interconnect width/thickness variation and Miller factors
//! on coupling capacitance).

use crate::process::Process;
use crate::units::{Celsius, Volts};

/// The classic three process corners plus explicit custom points.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CornerKind {
    /// Slow NMOS, slow PMOS, low voltage, high temperature: worst-case delay.
    SlowSlow,
    /// Nominal everything.
    Typical,
    /// Fast NMOS, fast PMOS, high voltage, low temperature: worst-case
    /// races and worst-case leakage (the paper's standby-current spec is
    /// checked "in the fastest process corner").
    FastFast,
}

impl CornerKind {
    /// All three standard corners, slowest first.
    pub const ALL: [CornerKind; 3] = [
        CornerKind::SlowSlow,
        CornerKind::Typical,
        CornerKind::FastFast,
    ];
}

/// One process/voltage/temperature operating point.
///
/// The multipliers modulate the [`Process`] nominal device
/// parameters: drive strength, threshold voltage shift and supply.
#[derive(Debug, Clone, PartialEq)]
pub struct Corner {
    /// Which archetype this corner was derived from.
    pub kind: CornerKind,
    /// Supply voltage at this corner.
    pub vdd: Volts,
    /// Junction temperature.
    pub temperature: Celsius,
    /// Multiplier on carrier mobility / drive current (1.0 = nominal).
    pub drive_factor: f64,
    /// Additive shift applied to both device thresholds, in volts.
    /// Negative at the fast corner (lower Vt ⇒ faster, leakier).
    pub vt_shift: Volts,
}

impl Corner {
    /// The slow/slow corner of a process: −10 % supply, 110 °C, −15 % drive,
    /// +40 mV threshold.
    pub fn slow(process: &Process) -> Corner {
        Corner {
            kind: CornerKind::SlowSlow,
            vdd: process.vdd_nominal() * 0.9,
            temperature: Celsius::new(110.0),
            drive_factor: 0.85,
            vt_shift: Volts::new(0.040),
        }
    }

    /// The typical corner: nominal supply, 85 °C.
    pub fn typical(process: &Process) -> Corner {
        Corner {
            kind: CornerKind::Typical,
            vdd: process.vdd_nominal(),
            temperature: Celsius::new(85.0),
            drive_factor: 1.0,
            vt_shift: Volts::ZERO,
        }
    }

    /// The fast/fast corner: +10 % supply, 25 °C, +15 % drive, −40 mV
    /// threshold. This is the corner where the paper's leakage spec bites.
    pub fn fast(process: &Process) -> Corner {
        Corner {
            kind: CornerKind::FastFast,
            vdd: process.vdd_nominal() * 1.1,
            temperature: Celsius::new(25.0),
            drive_factor: 1.15,
            vt_shift: Volts::new(-0.040),
        }
    }

    /// Builds the corner of the given kind for a process.
    pub fn of(kind: CornerKind, process: &Process) -> Corner {
        match kind {
            CornerKind::SlowSlow => Corner::slow(process),
            CornerKind::Typical => Corner::typical(process),
            CornerKind::FastFast => Corner::fast(process),
        }
    }
}

/// Manufacturing tolerance bounds applied to extracted parasitics.
///
/// §4.3: "Internodal capacitance values (coupling capacitance) have
/// significant variation from both manufacturing tolerances and miller
/// coupling capacitance multiplicative effects. Bounding the min/max
/// coupling along with manufacturing tolerances is essential."
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tolerance {
    /// Multiplier on ground (area + fringe) capacitance at the minimum
    /// excursion, e.g. `0.85`.
    pub cap_min: f64,
    /// Multiplier on ground capacitance at the maximum excursion, e.g. `1.15`.
    pub cap_max: f64,
    /// Multiplier on wire resistance at the minimum excursion.
    pub res_min: f64,
    /// Multiplier on wire resistance at the maximum excursion.
    pub res_max: f64,
    /// Miller factor applied to coupling capacitance at the minimum
    /// excursion (aggressor switching *with* the victim): classically `0.0`.
    pub miller_min: f64,
    /// Miller factor at the maximum excursion (aggressor switching
    /// *against* the victim): classically `2.0`.
    pub miller_max: f64,
}

impl Tolerance {
    /// The conservative bound the paper's tools used: ±15 % manufacturing
    /// spread and the full 0×–2× Miller range on coupling.
    pub fn conservative() -> Tolerance {
        Tolerance {
            cap_min: 0.85,
            cap_max: 1.15,
            res_min: 0.85,
            res_max: 1.15,
            miller_min: 0.0,
            miller_max: 2.0,
        }
    }

    /// No spread at all — min and max collapse to nominal. Useful as the
    /// "uncorrelated analysis disabled" baseline in the race experiments.
    pub fn nominal() -> Tolerance {
        Tolerance {
            cap_min: 1.0,
            cap_max: 1.0,
            res_min: 1.0,
            res_max: 1.0,
            miller_min: 1.0,
            miller_max: 1.0,
        }
    }
}

impl Default for Tolerance {
    fn default() -> Self {
        Tolerance::conservative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::process::Process;

    #[test]
    fn corners_order_vdd() {
        let p = Process::alpha_21064();
        let s = Corner::slow(&p);
        let t = Corner::typical(&p);
        let f = Corner::fast(&p);
        assert!(s.vdd.volts() < t.vdd.volts());
        assert!(t.vdd.volts() < f.vdd.volts());
    }

    #[test]
    fn fast_corner_is_leaky() {
        let p = Process::strongarm_035();
        let f = Corner::fast(&p);
        assert!(f.vt_shift.volts() < 0.0, "fast corner must lower Vt");
        assert!(f.drive_factor > 1.0);
    }

    #[test]
    fn of_matches_constructors() {
        let p = Process::alpha_21164();
        for kind in CornerKind::ALL {
            let c = Corner::of(kind, &p);
            assert_eq!(c.kind, kind);
        }
    }

    /// Every min bound is ≤ its max bound, and the bounds are physical.
    fn is_well_formed(t: &Tolerance) -> bool {
        t.cap_min <= t.cap_max
            && t.res_min <= t.res_max
            && t.miller_min <= t.miller_max
            && t.cap_min > 0.0
            && t.res_min > 0.0
            && t.miller_min >= 0.0
    }

    #[test]
    fn tolerance_well_formed() {
        assert!(is_well_formed(&Tolerance::conservative()));
        assert!(is_well_formed(&Tolerance::nominal()));
        let bad = Tolerance {
            cap_min: 1.2,
            cap_max: 0.8,
            ..Tolerance::conservative()
        };
        assert!(!is_well_formed(&bad));
    }

    #[test]
    fn conservative_miller_spans_zero_to_two() {
        let t = Tolerance::conservative();
        assert_eq!(t.miller_min, 0.0);
        assert_eq!(t.miller_max, 2.0);
    }
}
