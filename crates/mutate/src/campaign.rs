//! The mutation campaign runner: every operator, every site, one
//! differential verdict per mutant.

use cbv_everify::CheckKind;
use cbv_netlist::FlatNetlist;

use crate::op::{apply, sites, MutationOp, Site};

/// What one verification run of the full flow observed, reduced to the
/// detector counts a mutation campaign compares. Built by a
/// [`FlowOracle`]; `cbv-core`'s adapters fill it from a `FlowReport`.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowObservation {
    /// Violation count per electrical check, in [`CheckKind::ALL`] order
    /// (`ToolError` findings count as violations: an unverified unit is
    /// never clean).
    pub check_violations: Vec<usize>,
    /// Worst violation stress per electrical check, same order (0.0 when
    /// the check has no violations). Deterministic for a given design,
    /// so it is safe to compare across oracles and thread counts.
    pub check_max_stress: Vec<f64>,
    /// Timing violations (setup + race + tool failures).
    pub timing_violations: usize,
    /// everify+timing compute seconds for this run.
    pub verify_cpu: f64,
    /// Verification-cache unit hits (0 for a cold flow).
    pub cache_hits: usize,
    /// Verification-cache unit misses (= all units for a cold flow).
    pub cache_misses: usize,
}

/// How much a check's worst stress must grow over the baseline's before
/// the campaign counts it as a detection in its own right. Catches
/// mutants that worsen an *already-violating* subject — e.g. a ×25
/// keeper on a dynamic node whose keeper fight was marginal to begin
/// with: the violation count stays flat while the stress explodes.
pub const STRESS_ESCALATION: f64 = 1.5;

impl FlowObservation {
    fn check_index(k: CheckKind) -> usize {
        CheckKind::ALL
            .iter()
            .position(|&c| c == k)
            .expect("known check")
    }

    /// Count observed by one detector.
    pub fn count(&self, d: Detector) -> usize {
        match d {
            Detector::Check(k) => self.check_violations[Self::check_index(k)],
            Detector::Timing => self.timing_violations,
        }
    }

    /// Detectors that noticed this run differentially over `baseline`:
    /// a check fires when its violation count strictly increased, or
    /// when its worst stress escalated past [`STRESS_ESCALATION`] ×
    /// the baseline's (real designs rarely have a spotless baseline, so
    /// neither presence nor a flat count proves anything on its own);
    /// timing fires on count alone.
    pub fn fired_against(&self, baseline: &FlowObservation) -> Vec<Detector> {
        all_detectors()
            .into_iter()
            .filter(|&d| match d {
                Detector::Check(k) => {
                    let i = Self::check_index(k);
                    self.check_violations[i] > baseline.check_violations[i]
                        || self.check_max_stress[i]
                            > baseline.check_max_stress[i] * STRESS_ESCALATION
                }
                Detector::Timing => self.timing_violations > baseline.timing_violations,
            })
            .collect()
    }
}

/// Something that can notice a mutant: one §4.2 check, or the §4.3
/// timing battery as a single channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Detector {
    /// An electrical check.
    Check(CheckKind),
    /// Static timing (setup/race violations).
    Timing,
}

impl std::fmt::Display for Detector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Detector::Check(k) => write!(f, "{k}"),
            Detector::Timing => f.write_str("timing"),
        }
    }
}

/// Every detector, in canonical ([`CheckKind::ALL`] then timing) order.
pub fn all_detectors() -> Vec<Detector> {
    CheckKind::ALL
        .iter()
        .map(|&k| Detector::Check(k))
        .chain(std::iter::once(Detector::Timing))
        .collect()
}

/// The campaign's window onto the verification flow. The oracle owns
/// whatever state makes repeated verification cheap (in practice a
/// `VerifyCache` primed on the baseline, so each mutant re-verifies only
/// the units whose keys it changes); the campaign only ever hands it a
/// netlist and reads back counts.
pub trait FlowOracle {
    /// Runs the full verification flow over `netlist` and reports what
    /// the detectors saw.
    fn verify(&mut self, netlist: &FlatNetlist) -> FlowObservation;
}

/// A closure is an oracle: cold `run_flow` plus `observe`, or
/// `run_flow_incremental` on a cache the closure owns.
impl<F: FnMut(&FlatNetlist) -> FlowObservation> FlowOracle for F {
    fn verify(&mut self, netlist: &FlatNetlist) -> FlowObservation {
        self(netlist)
    }
}

/// Campaign knobs.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Operators to run, in order.
    pub ops: Vec<MutationOp>,
    /// Cap on sites per operator (`0` = every site). Capping samples the
    /// enumeration at a uniform stride so coverage stays spread across
    /// the design, and the dropped count is recorded per row — a bounded
    /// campaign must say what it skipped.
    pub max_sites_per_op: usize,
    /// Sensitivity sweeps: a prototype operator and the magnitude ladder
    /// to walk (mild → severe). Each runs at the operator's first site.
    pub sensitivity: Vec<(MutationOp, Vec<f64>)>,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            ops: default_ops(),
            max_sites_per_op: 0,
            sensitivity: Vec::new(),
        }
    }
}

/// Every operator at its default magnitude (E12's seeded-fault
/// magnitudes where E12 plants it) — the canonical E16 operator set.
pub fn default_ops() -> Vec<MutationOp> {
    vec![
        MutationOp::WidthScale { factor: 12.0 },
        MutationOp::WidthScale { factor: 1.0 / 10.0 },
        MutationOp::LengthScale { factor: 0.6 },
        MutationOp::BetaSkew { factor: 12.0 },
        MutationOp::KeeperResize {
            w_factor: 25.0,
            l_factor: 0.5,
        },
        MutationOp::KeeperDelete,
        MutationOp::PolaritySwap,
        MutationOp::NetBridge,
        MutationOp::NetOpen,
        MutationOp::PrechargeDrop,
        MutationOp::ClockPhaseSwap,
    ]
}

/// The default sensitivity ladders (mild → severe) for the parametric
/// operators.
pub fn default_sensitivity() -> Vec<(MutationOp, Vec<f64>)> {
    vec![
        (
            MutationOp::WidthScale { factor: 1.0 },
            vec![1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0],
        ),
        (
            MutationOp::WidthScale { factor: 1.0 },
            vec![0.8, 0.67, 0.5, 0.33, 0.2, 0.1, 0.05],
        ),
        (
            MutationOp::LengthScale { factor: 1.0 },
            vec![0.95, 0.9, 0.85, 0.8, 0.7, 0.6, 0.5],
        ),
        (
            MutationOp::BetaSkew { factor: 1.0 },
            vec![1.25, 1.5, 2.0, 3.0, 5.0, 8.0, 12.0, 20.0],
        ),
        (
            MutationOp::KeeperResize {
                w_factor: 1.0,
                l_factor: 1.0,
            },
            vec![2.0, 4.0, 8.0, 16.0, 25.0],
        ),
    ]
}

/// One mutant's outcome.
#[derive(Debug, Clone)]
pub struct MutantRecord {
    /// Index into the campaign's operator list.
    pub op_index: usize,
    /// The operator.
    pub op: MutationOp,
    /// What was edited, in design names.
    pub description: String,
    /// Detectors that fired (differentially), canonical order.
    pub fired: Vec<Detector>,
    /// everify+timing compute for this mutant's verification.
    pub verify_cpu: f64,
    /// Cache hits while verifying this mutant.
    pub cache_hits: usize,
    /// Cache misses while verifying this mutant.
    pub cache_misses: usize,
}

impl MutantRecord {
    /// Whether anything fired.
    pub fn detected(&self) -> bool {
        !self.fired.is_empty()
    }
}

/// One operator row of the detection matrix.
#[derive(Debug, Clone)]
pub struct OpSummary {
    /// The operator.
    pub op: MutationOp,
    /// Sites the enumerator found.
    pub sites_found: usize,
    /// Mutants actually run (after the per-op cap).
    pub mutants_run: usize,
    /// Mutants at least one detector caught.
    pub detected: usize,
    /// Per-detector catch counts (canonical order, zero rows kept so the
    /// matrix shape is identical across designs).
    pub by_detector: Vec<(Detector, usize)>,
    /// Descriptions of the mutants nothing caught.
    pub escapes: Vec<String>,
}

/// One sensitivity curve: the smallest magnitude at which each detector
/// first fires, walking the ladder mild → severe at a fixed site.
#[derive(Debug, Clone)]
pub struct SensitivityCurve {
    /// The prototype operator.
    pub op: MutationOp,
    /// The site swept (description).
    pub site: String,
    /// The ladder walked.
    pub ladder: Vec<f64>,
    /// First-detection magnitude per detector that ever fired.
    pub thresholds: Vec<(Detector, f64)>,
}

/// The complete campaign result.
#[derive(Debug, Clone)]
pub struct CampaignReport {
    /// Design name.
    pub design: String,
    /// Devices in the baseline design.
    pub devices: usize,
    /// The baseline observation all verdicts are differential against.
    pub baseline: FlowObservation,
    /// One row per operator.
    pub rows: Vec<OpSummary>,
    /// Every mutant, in run order.
    pub mutants: Vec<MutantRecord>,
    /// Sensitivity curves, one per configured sweep.
    pub sensitivity: Vec<SensitivityCurve>,
}

impl CampaignReport {
    /// Total mutants run.
    pub fn total_mutants(&self) -> usize {
        self.mutants.len()
    }

    /// Total escapes.
    pub fn total_escapes(&self) -> usize {
        self.rows.iter().map(|r| r.escapes.len()).sum()
    }

    /// Mean everify+timing compute per mutant, seconds.
    pub fn mean_mutant_verify_cpu(&self) -> f64 {
        Self::mean_cpu(self.mutants.iter())
    }

    /// Mean everify+timing compute over the *parametric* mutants only
    /// (width/length/beta/keeper sizing). These are the true one-CCC
    /// ECOs; the structural operators (polarity, bridge, open, clock)
    /// move recognition roles across the design and legitimately re-key
    /// many units, so their cost is closer to a cold run.
    pub fn mean_parametric_verify_cpu(&self) -> f64 {
        Self::mean_cpu(self.mutants.iter().filter(|m| m.op.magnitude().is_some()))
    }

    /// Mean everify+timing compute over the structural mutants.
    pub fn mean_structural_verify_cpu(&self) -> f64 {
        Self::mean_cpu(self.mutants.iter().filter(|m| m.op.magnitude().is_none()))
    }

    fn mean_cpu<'a>(mutants: impl Iterator<Item = &'a MutantRecord>) -> f64 {
        let (sum, n) = mutants.fold((0.0, 0usize), |(s, n), m| (s + m.verify_cpu, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean number of re-verified (cache-missed) units per mutant of a
    /// class: `Some(true)` the parametric (sizing) ops, `Some(false)` the
    /// structural ones, `None` every mutant. For a sizing op the owning
    /// CCC, the CCC driving the resized gate, any CCC whose parasitics
    /// the resize moves and the always-dirty residue unit miss;
    /// everything else replays.
    pub fn mean_dirty_units(&self, class: Option<bool>) -> f64 {
        let (sum, n) = self
            .mutants
            .iter()
            .filter(|m| class.is_none_or(|parametric| m.op.magnitude().is_some() == parametric))
            .fold((0usize, 0usize), |(s, n), m| (s + m.cache_misses, n + 1));
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Units the cold baseline verified (it primed the cache from empty,
    /// so it missed every unit) ÷ the [mean units](Self::mean_dirty_units)
    /// a mutant of the class re-verified: what the ECO treatment of
    /// mutants saves, as a count that repeats on any host — a ratio of
    /// cpu times swings with the host's load. 0.0 for an empty class.
    pub fn cold_units_ratio(&self, class: Option<bool>) -> f64 {
        let dirty = self.mean_dirty_units(class);
        if dirty > 0.0 {
            self.baseline.cache_misses as f64 / dirty
        } else {
            0.0
        }
    }

    /// Aggregate cache hit fraction across all mutant verifications.
    pub fn cache_hit_fraction(&self) -> f64 {
        let hits: usize = self.mutants.iter().map(|m| m.cache_hits).sum();
        let misses: usize = self.mutants.iter().map(|m| m.cache_misses).sum();
        if hits + misses == 0 {
            return 0.0;
        }
        hits as f64 / (hits + misses) as f64
    }
}

/// Uniform-stride sample of `v` down to `cap` elements (0 = keep all),
/// preserving order — coverage stays spread across the enumeration.
/// Shared with the functional screen so both samplers pick identical
/// site subsets for a given cap.
pub(crate) fn take_spread<T: Copy>(v: &[T], cap: usize) -> Vec<T> {
    if cap == 0 || v.len() <= cap {
        return v.to_vec();
    }
    (0..cap).map(|i| v[i * v.len() / cap]).collect()
}

/// Runs the campaign: enumerate each operator's sites on the recognized
/// baseline, apply each mutant to a pristine clone, and ask the oracle
/// which detectors moved. The first oracle call verifies the baseline
/// itself — for a caching oracle that primes the cache, making every
/// mutant an ECO on top of it.
pub fn run_campaign(
    baseline: &FlatNetlist,
    oracle: &mut dyn FlowOracle,
    config: &CampaignConfig,
) -> CampaignReport {
    let recognition = cbv_recognize::recognize(baseline);

    let base_obs = oracle.verify(baseline);

    let mut rows = Vec::with_capacity(config.ops.len());
    let mut mutants = Vec::new();
    for (op_index, op) in config.ops.iter().enumerate() {
        let found = sites(op, baseline, &recognition);
        let run: Vec<Site> = take_spread(&found, config.max_sites_per_op);
        let mut detected = 0usize;
        let mut by_detector: Vec<(Detector, usize)> =
            all_detectors().into_iter().map(|d| (d, 0)).collect();
        let mut escapes = Vec::new();
        let mut mutants_run = 0usize;
        for &site in &run {
            let mut nl = baseline.clone();
            let Some(m) = apply(&mut nl, op, site) else {
                continue;
            };
            mutants_run += 1;
            let obs = oracle.verify(&nl);
            let fired = obs.fired_against(&base_obs);
            if fired.is_empty() {
                escapes.push(m.description.clone());
            } else {
                detected += 1;
                for f in &fired {
                    let slot = by_detector
                        .iter_mut()
                        .find(|(d, _)| d == f)
                        .expect("canonical detector");
                    slot.1 += 1;
                }
            }
            mutants.push(MutantRecord {
                op_index,
                op: *op,
                description: m.description,
                fired,
                verify_cpu: obs.verify_cpu,
                cache_hits: obs.cache_hits,
                cache_misses: obs.cache_misses,
            });
        }
        rows.push(OpSummary {
            op: *op,
            sites_found: found.len(),
            mutants_run,
            detected,
            by_detector,
            escapes,
        });
    }

    // Sensitivity sweeps: walk each ladder at the operator's first site.
    let mut sensitivity = Vec::new();
    for (proto, ladder) in &config.sensitivity {
        let found = sites(proto, baseline, &recognition);
        let Some(&site) = found.first() else {
            continue;
        };
        let mut thresholds: Vec<(Detector, f64)> = Vec::new();
        for &eps in ladder {
            let op = proto.with_magnitude(eps);
            let mut nl = baseline.clone();
            let Some(_m) = apply(&mut nl, &op, site) else {
                continue;
            };
            let obs = oracle.verify(&nl);
            for d in obs.fired_against(&base_obs) {
                if !thresholds.iter().any(|(t, _)| *t == d) {
                    thresholds.push((d, eps));
                }
            }
        }
        thresholds.sort_by_key(|&(d, _)| d);
        sensitivity.push(SensitivityCurve {
            op: *proto,
            site: site.describe(baseline),
            ladder: ladder.clone(),
            thresholds,
        });
    }

    CampaignReport {
        design: baseline.name().to_owned(),
        devices: baseline.devices().len(),
        baseline: base_obs,
        rows,
        mutants,
        sensitivity,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fake oracle: "detects" any netlist whose total width differs
    /// from the baseline's by flagging beta-ratio, and any device-count
    /// change by flagging timing.
    struct FakeOracle {
        base_width: f64,
        base_devices: usize,
    }

    impl FlowOracle for FakeOracle {
        fn verify(&mut self, netlist: &FlatNetlist) -> FlowObservation {
            let width: f64 = netlist.devices().iter().map(|d| d.w).sum();
            let mut check_violations = vec![0usize; CheckKind::ALL.len()];
            let mut check_max_stress = vec![0.0; CheckKind::ALL.len()];
            if (width - self.base_width).abs() > 1e-12 {
                check_violations[0] = 1; // beta-ratio
                check_max_stress[0] = 2.0;
            }
            FlowObservation {
                check_violations,
                check_max_stress,
                timing_violations: usize::from(netlist.devices().len() != self.base_devices),
                verify_cpu: 0.25,
                cache_hits: 3,
                cache_misses: 1,
            }
        }
    }

    #[test]
    fn differential_detection_and_matrix_shape() {
        let p = cbv_tech::Process::strongarm_035();
        let base = cbv_gen::latches::keeper_domino(&p, 1e-6).netlist;
        let width: f64 = base.devices().iter().map(|d| d.w).sum();
        let mut oracle = FakeOracle {
            base_width: width,
            base_devices: base.devices().len(),
        };
        let config = CampaignConfig {
            ops: vec![
                MutationOp::WidthScale { factor: 2.0 },
                MutationOp::PolaritySwap, // width unchanged: escapes
                MutationOp::NetBridge,    // device added: timing fires
            ],
            max_sites_per_op: 2,
            sensitivity: vec![(MutationOp::WidthScale { factor: 1.0 }, vec![1.5, 3.0])],
        };
        let report = run_campaign(&base, &mut oracle, &config);
        assert_eq!(report.rows.len(), 3);
        assert_eq!(report.rows[0].detected, report.rows[0].mutants_run);
        assert_eq!(
            report.rows[1].detected, 0,
            "polarity swap leaves width unchanged: the fake oracle misses it"
        );
        assert_eq!(report.rows[1].escapes.len(), report.rows[1].mutants_run);
        assert!(report.rows[2].detected > 0, "bridge adds a device");
        let timing_hits = report.rows[2]
            .by_detector
            .iter()
            .find(|(d, _)| *d == Detector::Timing)
            .unwrap()
            .1;
        assert_eq!(timing_hits, report.rows[2].detected);
        // Every row carries the full canonical detector axis.
        for row in &report.rows {
            assert_eq!(row.by_detector.len(), CheckKind::ALL.len() + 1);
        }
        // Sensitivity: width change fires at the mildest rung.
        assert_eq!(report.sensitivity.len(), 1);
        let th = &report.sensitivity[0].thresholds;
        assert_eq!(th.len(), 1);
        assert_eq!(th[0], (Detector::Check(CheckKind::BetaRatio), 1.5));
        assert!(report.total_mutants() >= 5);
        assert_eq!(
            report.cold_units_ratio(None),
            1.0,
            "one unit cold, one per mutant"
        );
        assert!((report.cache_hit_fraction() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn take_spread_samples_uniformly_and_keeps_small_inputs() {
        let v: Vec<usize> = (0..10).collect();
        assert_eq!(take_spread(&v, 0), v);
        assert_eq!(take_spread(&v, 20), v);
        let s = take_spread(&v, 3);
        assert_eq!(s.len(), 3);
        assert_eq!(s, vec![0, 3, 6]);
    }

    #[test]
    fn observation_counts_map_detectors() {
        let mut obs = FlowObservation {
            check_violations: vec![0; CheckKind::ALL.len()],
            check_max_stress: vec![0.0; CheckKind::ALL.len()],
            timing_violations: 2,
            verify_cpu: 0.0,
            cache_hits: 0,
            cache_misses: 0,
        };
        obs.check_violations[3] = 7; // charge-share
        obs.check_max_stress[3] = 1.2;
        assert_eq!(obs.count(Detector::Check(CheckKind::ChargeShare)), 7);
        assert_eq!(obs.count(Detector::Timing), 2);
        let base = FlowObservation {
            check_violations: vec![0; CheckKind::ALL.len()],
            check_max_stress: vec![0.0; CheckKind::ALL.len()],
            timing_violations: 2,
            verify_cpu: 0.0,
            cache_hits: 0,
            cache_misses: 0,
        };
        assert_eq!(
            obs.fired_against(&base),
            vec![Detector::Check(CheckKind::ChargeShare)],
            "equal timing counts must not fire"
        );
    }

    #[test]
    fn stress_escalation_fires_when_counts_are_flat() {
        // Both runs have one writability violation — a count-only
        // detector is blind. The mutant's stress exploded 47×, which
        // must register as detection.
        let idx = FlowObservation::check_index(CheckKind::Writability);
        let mut base = FlowObservation {
            check_violations: vec![0; CheckKind::ALL.len()],
            check_max_stress: vec![0.0; CheckKind::ALL.len()],
            timing_violations: 0,
            verify_cpu: 0.0,
            cache_hits: 0,
            cache_misses: 0,
        };
        base.check_violations[idx] = 1;
        base.check_max_stress[idx] = 1.9;
        let mut hot = base.clone();
        hot.check_max_stress[idx] = 90.0;
        assert_eq!(
            hot.fired_against(&base),
            vec![Detector::Check(CheckKind::Writability)]
        );
        // A sub-threshold wiggle (< STRESS_ESCALATION×) stays silent.
        let mut warm = base.clone();
        warm.check_max_stress[idx] = 1.9 * (STRESS_ESCALATION - 0.1);
        assert!(warm.fired_against(&base).is_empty());
    }
}
