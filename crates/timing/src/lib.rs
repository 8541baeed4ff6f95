//! `cbv-timing` — static timing verification.
//!
//! §4.3: "Timing verification is used to identify all critical and race
//! paths. Critical paths (slow paths) will limit the clock frequency of
//! the chip while race paths (fast paths) will prevent the chip from
//! working at any frequency. ... Static timing verification always has
//! two conflicting goals: enough pessimism to insure identification of
//! all violations, while not so much pessimism to cause false
//! violations."
//!
//! The pieces:
//!
//! * [`delay`] — min/max bounded stage delay from recognized circuit
//!   structure, process corners and extracted capacitance windows;
//! * [`graph`] — the timing graph: one arc per (CCC input → output), with
//!   launch points at state elements / primary inputs and inferred
//!   capture constraints ([`constraints`]) at state elements and dynamic
//!   nodes;
//! * [`sta`] — min/max arrival propagation, setup (critical path) and
//!   hold (race) checking, with path backtrace, under a configurable
//!   [`Pessimism`] and correlated or uncorrelated min/max analysis;
//! * [`clock_rc`] — node-by-node clock distribution RC analysis (skew
//!   bounds feeding the race checks);
//! * [`sizing`] — automatic path sizing (§2.2 "Transistors are sized
//!   either by the designer or by using automatic path sizing
//!   techniques").

pub mod clock_rc;
pub mod constraints;
pub mod delay;
pub mod graph;
pub mod sizing;
pub mod sta;

pub use clock_rc::{clock_skew_bounds, ClockSkew};
pub use constraints::{infer_constraints, CaptureKind, Constraint};
pub use delay::{DelayCalc, Pessimism};
pub use graph::{ccc_arcs, graph_from_arcs, Arc, LaunchPoint, TimingGraph};
pub use sizing::{size_path, SizingResult};
pub use sta::{
    analyze, find_min_period, ArrivalWindow, PathStep, StaReport, Violation, ViolationKind,
};

use cbv_tech::Seconds;

/// A two-phase (or N-phase) clock schedule, the Fig 4 clocking model.
///
/// Each phase is described by its rise and fall instants within the
/// period; registers launch at phase rise, latches capture at phase fall.
#[derive(Debug, Clone, PartialEq)]
pub struct ClockSchedule {
    /// The cycle time.
    pub period: Seconds,
    /// Phase descriptions: (clock net name, rise time, fall time).
    pub phases: Vec<PhaseSpec>,
}

/// One clock phase.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSpec {
    /// The clock net's name in the netlist.
    pub net_name: String,
    /// Rise instant within the period.
    pub rise: Seconds,
    /// Fall instant within the period.
    pub fall: Seconds,
}

impl ClockSchedule {
    /// A single-phase 50 % duty clock.
    pub fn single(net_name: impl Into<String>, period: Seconds) -> ClockSchedule {
        ClockSchedule {
            period,
            phases: vec![PhaseSpec {
                net_name: net_name.into(),
                rise: Seconds::ZERO,
                fall: period / 2.0,
            }],
        }
    }

    /// The classic two-phase non-overlapping schedule: φ1 high in the
    /// first ~half, φ2 high in the second, separated by `gap`.
    pub fn two_phase(
        phi1: impl Into<String>,
        phi2: impl Into<String>,
        period: Seconds,
        gap: Seconds,
    ) -> ClockSchedule {
        let half = period / 2.0;
        ClockSchedule {
            period,
            phases: vec![
                PhaseSpec {
                    net_name: phi1.into(),
                    rise: Seconds::ZERO,
                    fall: half - gap,
                },
                PhaseSpec {
                    net_name: phi2.into(),
                    rise: half,
                    fall: period - gap,
                },
            ],
        }
    }

    /// The phase a clock net belongs to, if any.
    pub fn phase(&self, net_name: &str) -> Option<&PhaseSpec> {
        self.phases.iter().find(|p| p.net_name == net_name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_tech::units::nanoseconds;

    #[test]
    fn single_phase_schedule() {
        let s = ClockSchedule::single("clk", nanoseconds(5.0));
        assert_eq!(s.phases.len(), 1);
        assert!(s.phase("clk").is_some());
        assert!(s.phase("other").is_none());
        assert!((s.phases[0].fall.seconds() - 2.5e-9).abs() < 1e-15);
    }

    #[test]
    fn two_phase_non_overlap() {
        let s = ClockSchedule::two_phase("phi1", "phi2", nanoseconds(10.0), nanoseconds(0.5));
        let p1 = s.phase("phi1").unwrap();
        let p2 = s.phase("phi2").unwrap();
        assert!(p1.fall.seconds() < p2.rise.seconds(), "non-overlapping");
        assert!(p2.fall.seconds() < s.period.seconds());
    }
}
