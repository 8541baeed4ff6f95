//! The functional screen: mutation campaigns judged by *logic intent*
//! instead of electrical/timing detectors.
//!
//! [`run_campaign`](crate::run_campaign) measures the §4.2/§4.3
//! probability filters. This module is the §4.1 column of the same
//! matrix: drive each mutant with the golden design's stimulus vectors
//! and ask whether any output bit ever diverges. The paper's flow used
//! exactly this split — electrical checks discharge sizing hazards,
//! *simulation against the RTL* catches wrong logic.
//!
//! The runner mirrors [`run_campaign`](crate::run_campaign)'s site
//! enumeration (same operators, same deterministic site order, same
//! uniform-stride cap) so the two reports line up row for row. The
//! reference vectors come from a [`FuncOracle`] implementation —
//! `cbv-core`'s `SimScreenOracle` computes them from the golden RTL
//! with either the word-level interpreter or the compiled bit-parallel
//! engine (`cbv-csim`), and the two must produce identical verdicts.

use cbv_netlist::FlatNetlist;

use crate::campaign::take_spread;
use crate::op::{apply, sites, MutationOp, Site};

/// Verdict of the functional screen on one netlist.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FuncVerdict {
    /// An output bit diverged from the golden reference.
    Detected {
        /// First diverging stimulus vector.
        cycle: usize,
        /// Name of the first diverging output bit (circuit net name).
        output: String,
    },
    /// Bit-identical to the reference over every vector.
    Escaped,
    /// The mutant could not be driven to a defined value (X output,
    /// unresolved fight, failure to settle). Functionally this is a
    /// detection — a dead or floating output is visible on first use —
    /// but it is reported separately so coverage tables can distinguish
    /// "wrong value" from "no value".
    Unresolved {
        /// First failing stimulus vector.
        cycle: usize,
        /// What went wrong.
        detail: String,
    },
}

impl FuncVerdict {
    /// Whether the screen noticed the mutant (wrong value *or* no
    /// value).
    pub fn caught(&self) -> bool {
        !matches!(self, FuncVerdict::Escaped)
    }
}

/// The screen's window onto a simulator: run the shared stimulus
/// vectors over `netlist` and compare against the golden reference.
/// Implementations own the vectors and the reference outputs (computed
/// once from the golden RTL).
pub trait FuncOracle {
    /// Screens one netlist.
    fn screen(&mut self, netlist: &FlatNetlist) -> FuncVerdict;
}

/// Screen knobs — deliberately the same shape as the flow campaign's
/// so a suite can run both from one description.
#[derive(Debug, Clone, Default)]
pub struct FuncScreenConfig {
    /// Operators to run, in order.
    pub ops: Vec<MutationOp>,
    /// Cap on sites per operator (`0` = every site), sampled at a
    /// uniform stride like [`run_campaign`](crate::run_campaign).
    pub max_sites_per_op: usize,
}

/// One mutant's functional outcome.
#[derive(Debug, Clone)]
pub struct FuncMutantRecord {
    /// Index into the screen's operator list.
    pub op_index: usize,
    /// The operator.
    pub op: MutationOp,
    /// What was edited, in design names.
    pub description: String,
    /// The verdict.
    pub verdict: FuncVerdict,
}

/// One operator row of the functional detection table.
#[derive(Debug, Clone)]
pub struct FuncOpSummary {
    /// The operator.
    pub op: MutationOp,
    /// Sites the enumerator found.
    pub sites_found: usize,
    /// Mutants actually run (after the per-op cap).
    pub mutants_run: usize,
    /// Mutants caught with a diverging value.
    pub detected: usize,
    /// Mutants caught by failing to resolve.
    pub unresolved: usize,
    /// Descriptions of the mutants the screen missed.
    pub escapes: Vec<String>,
}

/// The complete functional-screen result.
#[derive(Debug, Clone)]
pub struct FuncScreenReport {
    /// Design name.
    pub design: String,
    /// Devices in the baseline design.
    pub devices: usize,
    /// The unmutated design's verdict — must be
    /// [`FuncVerdict::Escaped`] for the screen to mean anything; kept
    /// in the report so a broken harness is visible instead of silently
    /// flagging every mutant.
    pub baseline: FuncVerdict,
    /// One row per operator.
    pub rows: Vec<FuncOpSummary>,
    /// Every mutant, in run order.
    pub mutants: Vec<FuncMutantRecord>,
}

impl FuncScreenReport {
    /// Total mutants run.
    pub fn total_mutants(&self) -> usize {
        self.mutants.len()
    }

    /// Total mutants the screen missed.
    pub fn total_escapes(&self) -> usize {
        self.rows.iter().map(|r| r.escapes.len()).sum()
    }

    /// The per-mutant verdicts in run order — the vector two screens
    /// (e.g. interpreter-referenced vs compiled-referenced) must agree
    /// on exactly.
    pub fn verdicts(&self) -> Vec<&FuncVerdict> {
        self.mutants.iter().map(|m| &m.verdict).collect()
    }
}

/// Runs the functional screen: enumerate each operator's sites on the
/// recognized baseline (identical order and sampling to
/// [`run_campaign`](crate::run_campaign)), apply each mutant to a
/// pristine clone, and ask the oracle whether the mutant's outputs
/// still track the golden reference vectors.
pub fn run_func_screen(
    baseline: &FlatNetlist,
    oracle: &mut dyn FuncOracle,
    config: &FuncScreenConfig,
) -> FuncScreenReport {
    let recognition = cbv_recognize::recognize(baseline);

    let base_verdict = oracle.screen(baseline);

    let mut rows = Vec::with_capacity(config.ops.len());
    let mut mutants = Vec::new();
    for (op_index, op) in config.ops.iter().enumerate() {
        let found = sites(op, baseline, &recognition);
        let run: Vec<Site> = take_spread(&found, config.max_sites_per_op);
        let mut detected = 0usize;
        let mut unresolved = 0usize;
        let mut escapes = Vec::new();
        let mut mutants_run = 0usize;
        for &site in &run {
            let mut nl = baseline.clone();
            let Some(m) = apply(&mut nl, op, site) else {
                continue;
            };
            mutants_run += 1;
            let verdict = oracle.screen(&nl);
            match &verdict {
                FuncVerdict::Detected { .. } => detected += 1,
                FuncVerdict::Unresolved { .. } => unresolved += 1,
                FuncVerdict::Escaped => escapes.push(m.description.clone()),
            }
            mutants.push(FuncMutantRecord {
                op_index,
                op: *op,
                description: m.description,
                verdict,
            });
        }
        rows.push(FuncOpSummary {
            op: *op,
            sites_found: found.len(),
            mutants_run,
            detected,
            unresolved,
            escapes,
        });
    }

    FuncScreenReport {
        design: baseline.name().to_owned(),
        devices: baseline.devices().len(),
        baseline: base_verdict,
        rows,
        mutants,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake oracle keyed on total gate width, like the campaign's.
    struct WidthOracle {
        base_width: f64,
    }

    impl FuncOracle for WidthOracle {
        fn screen(&mut self, netlist: &FlatNetlist) -> FuncVerdict {
            let width: f64 = netlist.devices().iter().map(|d| d.w).sum();
            if (width - self.base_width).abs() > 1e-12 {
                FuncVerdict::Detected {
                    cycle: 0,
                    output: "w".into(),
                }
            } else {
                FuncVerdict::Escaped
            }
        }
    }

    #[test]
    fn screen_report_shapes_match_config() {
        let p = cbv_tech::Process::strongarm_035();
        let base = cbv_gen::latches::keeper_domino(&p, 1e-6).netlist;
        let width: f64 = base.devices().iter().map(|d| d.w).sum();
        let mut oracle = WidthOracle { base_width: width };
        let config = FuncScreenConfig {
            ops: vec![
                MutationOp::WidthScale { factor: 2.0 },
                MutationOp::PolaritySwap, // width unchanged: escapes here
            ],
            max_sites_per_op: 2,
        };
        let report = run_func_screen(&base, &mut oracle, &config);
        assert_eq!(report.baseline, FuncVerdict::Escaped);
        assert_eq!(report.rows.len(), 2);
        assert_eq!(report.rows[0].detected, report.rows[0].mutants_run);
        assert!(report.rows[0].mutants_run > 0);
        assert_eq!(report.rows[1].escapes.len(), report.rows[1].mutants_run);
        assert_eq!(
            report.total_mutants(),
            report.rows.iter().map(|r| r.mutants_run).sum::<usize>()
        );
        assert_eq!(report.verdicts().len(), report.total_mutants());
        assert!(FuncVerdict::Detected {
            cycle: 0,
            output: "x".into()
        }
        .caught());
        assert!(FuncVerdict::Unresolved {
            cycle: 0,
            detail: "x".into()
        }
        .caught());
        assert!(!FuncVerdict::Escaped.caught());
    }
}
