//! The probability-filter report framework.
//!
//! "For many verification questions, we do not have an absolute answer.
//! Instead, we use CAD tools to filter the amount of design the designer
//! has to inspect. ... This allows the designer to work with the CAD tool
//! to identify and isolate real problems in the design." (§2.3)
//!
//! Each check computes a *stress ratio* (observed value ÷ limit). The
//! report buckets findings:
//!
//! * ratio below the filter threshold → silently counted (high confidence
//!   of being correct);
//! * ratio in `[threshold, 1)` → `Review` (might have a problem);
//! * ratio ≥ 1 → `Violation`.

use std::cmp::Ordering;
use std::fmt;

use cbv_netlist::{DeviceId, NetId};

/// Which check produced a finding. `Ord` follows declaration order —
/// the same canonical order as [`CheckKind::ALL`] — so check lists can
/// be sorted without allocating display strings.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CheckKind {
    /// Beta ratio / device size / transistor configuration.
    BetaRatio,
    /// Edge-rate limit.
    EdgeRate,
    /// Capacitive coupling noise.
    Coupling,
    /// Dynamic charge sharing.
    ChargeShare,
    /// Dynamic node leakage / standby current.
    Leakage,
    /// Latch writability / noise margin.
    Writability,
    /// Electromigration.
    Electromigration,
    /// Antenna (process-induced gate damage).
    Antenna,
    /// Hot-carrier injection.
    HotCarrier,
    /// Time-dependent dielectric breakdown.
    Tddb,
    /// Not a design check: a verification *tool* failed (panicked or
    /// produced NaN), so the covered unit is unverified and must be
    /// reviewed.
    Tool,
}

impl CheckKind {
    /// Every check kind, in declaration order — the canonical iteration
    /// order for per-check counters and serialization.
    pub const ALL: [CheckKind; 11] = [
        CheckKind::BetaRatio,
        CheckKind::EdgeRate,
        CheckKind::Coupling,
        CheckKind::ChargeShare,
        CheckKind::Leakage,
        CheckKind::Writability,
        CheckKind::Electromigration,
        CheckKind::Antenna,
        CheckKind::HotCarrier,
        CheckKind::Tddb,
        CheckKind::Tool,
    ];
}

impl fmt::Display for CheckKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CheckKind::BetaRatio => "beta-ratio",
            CheckKind::EdgeRate => "edge-rate",
            CheckKind::Coupling => "coupling",
            CheckKind::ChargeShare => "charge-share",
            CheckKind::Leakage => "leakage",
            CheckKind::Writability => "writability",
            CheckKind::Electromigration => "electromigration",
            CheckKind::Antenna => "antenna",
            CheckKind::HotCarrier => "hot-carrier",
            CheckKind::Tddb => "tddb",
            CheckKind::Tool => "tool",
        };
        f.write_str(s)
    }
}

/// What a finding is about. `Ord` follows declaration order (Net <
/// Device < Unit < Design), the same order as the cache codec's subject
/// tags.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Subject {
    /// A net.
    Net(NetId),
    /// A device.
    Device(DeviceId),
    /// A verification scope unit (CCC partition index) — used when the
    /// failure is the tool's, not a particular net's or device's.
    Unit(u32),
    /// The whole design: a whole-design check that failed itself, which
    /// no unit owns.
    Design,
}

/// How serious a reported finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Worth a designer's look; not yet over the limit.
    Review,
    /// Over the limit.
    Violation,
    /// The check itself failed (panic, NaN): the subject is
    /// *unverified*. Ordered above `Violation` — an unverified unit is
    /// never signoff-clean.
    ToolError,
}

/// One reported finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Finding {
    /// The check.
    pub check: CheckKind,
    /// What it is about.
    pub subject: Subject,
    /// Review or violation.
    pub severity: Severity,
    /// Observed ÷ limit; ≥ 1 means failing.
    pub stress: f64,
    /// Human-readable description.
    pub message: String,
}

/// The canonical finding order: most severe first, then highest stress
/// ([`f64::total_cmp`], so a NaN sorts above `+inf`), then check,
/// subject and message. Only identical findings tie.
fn order(a: &Finding, b: &Finding) -> Ordering {
    b.severity
        .cmp(&a.severity)
        .then(b.stress.total_cmp(&a.stress))
        .then(a.check.cmp(&b.check))
        .then(a.subject.cmp(&b.subject))
        .then(a.message.cmp(&b.message))
}

/// The aggregated, probability-filtered report. Its findings are always
/// in the canonical order, whichever path built it.
#[derive(Debug, Clone)]
pub struct Report {
    threshold: f64,
    findings: Vec<Finding>,
    checked: usize,
    filtered: usize,
}

impl Report {
    /// A report that filters findings below `threshold` (fraction of the
    /// limit).
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= 1`.
    pub fn new(threshold: f64) -> Report {
        assert!(threshold > 0.0 && threshold <= 1.0, "threshold in (0, 1]");
        Report {
            threshold,
            findings: Vec::new(),
            checked: 0,
            filtered: 0,
        }
    }

    /// Records one measurement against its limit. Findings comfortably
    /// inside the limit are filtered (counted only). Infinite stress is
    /// filtered too (a zero limit means "not applicable"), but a *NaN*
    /// stress is a broken calculation — the subject is unverified, so it
    /// surfaces as a [`Severity::ToolError`] finding rather than
    /// silently passing.
    pub fn record(
        &mut self,
        check: CheckKind,
        subject: Subject,
        stress: f64,
        message: impl FnOnce() -> String,
    ) {
        self.checked += 1;
        if stress.is_nan() {
            self.insert(Finding {
                check,
                subject,
                severity: Severity::ToolError,
                stress: f64::NAN,
                message: format!("{check} produced NaN stress: {}", message()),
            });
            return;
        }
        if !stress.is_finite() || stress < self.threshold {
            self.filtered += 1;
            return;
        }
        let severity = if stress >= 1.0 {
            Severity::Violation
        } else {
            Severity::Review
        };
        self.insert(Finding {
            check,
            subject,
            severity,
            stress,
            message: message(),
        });
    }

    /// Records that a check *itself* failed over `subject` — a scope
    /// unit, or the whole design — which is then unverified, and never
    /// signoff-clean. Unlike [`Report::record`] this does not bump the
    /// checked count: nothing was actually examined.
    pub fn tool_error(&mut self, check: CheckKind, subject: Subject, message: impl Into<String>) {
        self.insert(Finding {
            check,
            subject,
            severity: Severity::ToolError,
            stress: f64::INFINITY,
            message: message.into(),
        });
    }

    /// Inserts one finding at its place in the canonical order.
    fn insert(&mut self, finding: Finding) {
        let at = self
            .findings
            .partition_point(|f| order(f, &finding) != Ordering::Greater);
        self.findings.insert(at, finding);
    }

    /// All surviving findings in the canonical order: most severe first,
    /// highest stress first, ties by check, subject and message.
    pub fn findings(&self) -> &[Finding] {
        &self.findings
    }

    /// Only the violations.
    pub fn violations(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Violation)
    }

    /// Only the reviews.
    pub fn reviews(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::Review)
    }

    /// Only the tool errors (panicked checks, NaN stresses).
    pub fn tool_errors(&self) -> impl Iterator<Item = &Finding> {
        self.findings
            .iter()
            .filter(|f| f.severity == Severity::ToolError)
    }

    /// Findings from one check.
    pub fn of_check(&self, check: CheckKind) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(move |f| f.check == check)
    }

    /// How many situations were examined in total.
    pub fn checked_count(&self) -> usize {
        self.checked
    }

    /// How many were filtered as clearly fine — the designer never sees
    /// them. The ratio `filtered / checked` is the filter's win.
    pub fn filtered_count(&self) -> usize {
        self.filtered
    }

    /// Merges another report into this one (threshold stays).
    pub fn merge(&mut self, other: Report) {
        self.findings.extend(other.findings);
        self.findings.sort_by(order);
        self.checked += other.checked;
        self.filtered += other.filtered;
    }

    /// The filter threshold this report was built with.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// Reassembles a report from cached parts — the inverse of reading
    /// [`Report::findings`], [`Report::checked_count`] and
    /// [`Report::filtered_count`] back out. The findings may come in any
    /// order (per unit, or as an older cache stored them) and are sorted
    /// here, once.
    ///
    /// # Panics
    ///
    /// Panics unless `0 < threshold <= 1` (same contract as
    /// [`Report::new`]).
    pub fn from_parts(
        threshold: f64,
        mut findings: Vec<Finding>,
        checked: usize,
        filtered: usize,
    ) -> Report {
        assert!(threshold > 0.0 && threshold <= 1.0, "threshold in (0, 1]");
        findings.sort_by(order);
        Report {
            threshold,
            findings,
            checked,
            filtered,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn filtering_buckets() {
        let mut r = Report::new(0.6);
        r.record(CheckKind::Coupling, Subject::Net(NetId(1)), 0.2, || {
            "a".into()
        });
        r.record(CheckKind::Coupling, Subject::Net(NetId(2)), 0.8, || {
            "b".into()
        });
        r.record(CheckKind::Coupling, Subject::Net(NetId(3)), 1.4, || {
            "c".into()
        });
        assert_eq!(r.checked_count(), 3);
        assert_eq!(r.filtered_count(), 1);
        assert_eq!(r.reviews().count(), 1);
        assert_eq!(r.violations().count(), 1);
    }

    #[test]
    fn findings_sorted_by_severity_then_stress() {
        let mut r = Report::new(0.5);
        r.record(CheckKind::Leakage, Subject::Net(NetId(1)), 0.9, || {
            "rev".into()
        });
        r.record(CheckKind::Leakage, Subject::Net(NetId(2)), 1.1, || {
            "v1".into()
        });
        r.record(CheckKind::Leakage, Subject::Net(NetId(3)), 2.0, || {
            "v2".into()
        });
        let f = r.findings();
        assert_eq!(f[0].message, "v2");
        assert_eq!(f[1].message, "v1");
        assert_eq!(f[2].message, "rev");
    }

    #[test]
    fn nan_surfaces_as_tool_error_not_crash_or_silence() {
        let mut r = Report::new(0.6);
        r.record(
            CheckKind::EdgeRate,
            Subject::Net(NetId(0)),
            f64::NAN,
            || "x".into(),
        );
        // A NaN stress means the calculation broke: it must neither
        // panic nor silently pass as "filtered".
        assert_eq!(r.filtered_count(), 0);
        assert_eq!(r.tool_errors().count(), 1);
        let f = r.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].severity, Severity::ToolError);
        assert!(f[0].message.contains("NaN"), "{}", f[0].message);
        // +inf still means "no limit applies" and stays filtered.
        let mut r = Report::new(0.6);
        r.record(
            CheckKind::EdgeRate,
            Subject::Net(NetId(1)),
            f64::INFINITY,
            || "y".into(),
        );
        assert_eq!(r.filtered_count(), 1);
        assert!(r.findings().is_empty());
    }

    #[test]
    fn nan_stress_sorts_without_panicking() {
        let mut r = Report::new(0.5);
        r.record(CheckKind::Leakage, Subject::Net(NetId(1)), f64::NAN, || {
            "nan".into()
        });
        r.record(CheckKind::Leakage, Subject::Net(NetId(2)), 2.0, || {
            "v".into()
        });
        r.record(CheckKind::Leakage, Subject::Net(NetId(3)), 0.9, || {
            "rev".into()
        });
        let f = r.findings();
        assert_eq!(f.len(), 3);
        // ToolError outranks Violation outranks Review.
        assert_eq!(f[0].message, "leakage produced NaN stress: nan");
        assert_eq!(f[1].message, "v");
        assert_eq!(f[2].message, "rev");
    }

    /// Findings tied on severity and stress, recorded scrambled, come
    /// out in the one canonical order, and so do the same findings
    /// reassembled in reverse or merged from two halves.
    #[test]
    fn findings_hold_one_total_order() {
        let mut r = Report::new(0.5);
        let violation = [
            (CheckKind::Coupling, Subject::Net(NetId(2)), "b"),
            (CheckKind::Coupling, Subject::Device(DeviceId(1)), "z"),
            (CheckKind::Coupling, Subject::Net(NetId(2)), "a"),
            (CheckKind::BetaRatio, Subject::Device(DeviceId(0)), "x"),
            (CheckKind::Coupling, Subject::Net(NetId(1)), "q"),
        ];
        r.record(CheckKind::EdgeRate, Subject::Net(NetId(0)), 0.8, || {
            "rev".into()
        });
        r.tool_error(CheckKind::Tool, Subject::Unit(3), "unit 3");
        for (check, subject, message) in violation {
            r.record(check, subject, 1.5, || message.into());
        }
        r.tool_error(CheckKind::Tool, Subject::Unit(1), "unit 1");
        r.record(CheckKind::Leakage, Subject::Net(NetId(0)), f64::NAN, || {
            "nan".into()
        });
        let seen: Vec<(Severity, u64, CheckKind, Subject, &str)> = r
            .findings()
            .iter()
            .map(|f| {
                (
                    f.severity,
                    f.stress.to_bits(),
                    f.check,
                    f.subject,
                    f.message.as_str(),
                )
            })
            .collect();
        let (nan, inf) = (f64::NAN.to_bits(), f64::INFINITY.to_bits());
        let (v, rev) = (1.5f64.to_bits(), 0.8f64.to_bits());
        use CheckKind::*;
        use Severity::*;
        use Subject::*;
        assert_eq!(
            seen,
            [
                (
                    ToolError,
                    nan,
                    Leakage,
                    Net(NetId(0)),
                    "leakage produced NaN stress: nan"
                ),
                (ToolError, inf, Tool, Unit(1), "unit 1"),
                (ToolError, inf, Tool, Unit(3), "unit 3"),
                (Violation, v, BetaRatio, Device(DeviceId(0)), "x"),
                (Violation, v, Coupling, Net(NetId(1)), "q"),
                (Violation, v, Coupling, Net(NetId(2)), "a"),
                (Violation, v, Coupling, Net(NetId(2)), "b"),
                (Violation, v, Coupling, Device(DeviceId(1)), "z"),
                (Review, rev, EdgeRate, Net(NetId(0)), "rev"),
            ]
        );

        let mut reversed = r.findings().to_vec();
        reversed.reverse();
        let rebuilt = Report::from_parts(0.5, reversed, r.checked_count(), r.filtered_count());
        let (head, tail) = rebuilt.findings().split_at(4);
        let mut merged = Report::from_parts(0.5, tail.to_vec(), 0, 0);
        merged.merge(Report::from_parts(0.5, head.to_vec(), 0, 0));
        for other in [&rebuilt, &merged] {
            let same = other.findings().iter().zip(r.findings());
            assert_eq!(other.findings().len(), r.findings().len());
            for (a, b) in same {
                assert_eq!(format!("{a:?}"), format!("{b:?}"));
            }
        }
    }

    #[test]
    fn tool_error_names_the_unit() {
        let mut r = Report::new(0.6);
        r.tool_error(CheckKind::Tool, Subject::Unit(7), "unit 7 panicked: boom");
        assert_eq!(r.checked_count(), 0);
        let f = r.findings();
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].subject, Subject::Unit(7));
        assert_eq!(f[0].severity, Severity::ToolError);
        assert!(Severity::ToolError > Severity::Violation);
    }

    #[test]
    fn merge_accumulates() {
        let mut a = Report::new(0.6);
        a.record(
            CheckKind::Antenna,
            Subject::Device(DeviceId(0)),
            1.5,
            || "v".into(),
        );
        let mut b = Report::new(0.6);
        b.record(
            CheckKind::Antenna,
            Subject::Device(DeviceId(1)),
            0.1,
            || "f".into(),
        );
        a.merge(b);
        assert_eq!(a.checked_count(), 2);
        assert_eq!(a.violations().count(), 1);
        assert_eq!(a.filtered_count(), 1);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn bad_threshold_panics() {
        let _ = Report::new(0.0);
    }
}
