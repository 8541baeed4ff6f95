//! Rendering a [`CampaignReport`] for humans (fixed-width text) and
//! machines (JSON via the serde shim).
//!
//! Two text renderings exist on purpose: [`render_matrix`] contains *no
//! timings or cache counters*, so it is byte-stable across thread counts
//! and cold/incremental oracles and can be golden-snapshotted, while
//! [`render_full`] appends the performance epilogue (units re-verified
//! against the cold run, verify CPU, cache reuse) for experiment logs.

use std::fmt::Write;

use serde::{JsonWriter, Serialize};

use crate::campaign::{all_detectors, CampaignReport, Detector, SensitivityCurve};

/// Short column header for one detector (first 5 chars of its name —
/// enough to keep every column distinct for the current check set).
fn column_header(d: Detector) -> String {
    let name = d.to_string();
    name.chars().take(5).collect()
}

/// Renders the operator × detector detection matrix, the per-operator
/// detection ratios, the escape list, and the sensitivity curves.
/// Deliberately timing-free: byte-identical across thread counts and
/// oracle kinds, so tests can snapshot it.
pub fn render_matrix(report: &CampaignReport) -> String {
    let detectors = all_detectors();
    let mut out = String::new();
    let _ = writeln!(
        out,
        "mutation campaign: {} ({} devices)",
        report.design, report.devices
    );
    let _ = writeln!(
        out,
        "mutants: {}  detected: {}  escapes: {}",
        report.total_mutants(),
        report.mutants.iter().filter(|m| m.detected()).count(),
        report.total_escapes()
    );
    out.push('\n');

    // Matrix header.
    let op_w = report
        .rows
        .iter()
        .map(|r| r.op.to_string().len())
        .chain(std::iter::once("operator".len()))
        .max()
        .unwrap_or(8);
    let _ = write!(out, "{:<op_w$}  {:>5} {:>5}", "operator", "sites", "run");
    for &d in &detectors {
        let _ = write!(out, " {:>5}", column_header(d));
    }
    let _ = writeln!(out, " {:>6}", "caught");

    for row in &report.rows {
        let _ = write!(
            out,
            "{:<op_w$}  {:>5} {:>5}",
            row.op.to_string(),
            row.sites_found,
            row.mutants_run
        );
        for (_, n) in &row.by_detector {
            if *n == 0 {
                let _ = write!(out, " {:>5}", ".");
            } else {
                let _ = write!(out, " {n:>5}");
            }
        }
        let _ = writeln!(out, " {:>3}/{:<3}", row.detected, row.mutants_run);
    }

    // Escape list.
    let escapes: Vec<(String, &str)> = report
        .rows
        .iter()
        .flat_map(|r| r.escapes.iter().map(|e| (r.op.to_string(), e.as_str())))
        .collect();
    out.push('\n');
    if escapes.is_empty() {
        out.push_str("escapes: none\n");
    } else {
        let _ = writeln!(out, "escapes ({}):", escapes.len());
        for (op, desc) in &escapes {
            let _ = writeln!(out, "  {op}: {desc}");
        }
    }

    // Sensitivity curves.
    if !report.sensitivity.is_empty() {
        out.push('\n');
        out.push_str("sensitivity (smallest magnitude each detector fires at):\n");
        for curve in &report.sensitivity {
            render_curve(&mut out, curve);
        }
    }
    out
}

fn render_curve(out: &mut String, curve: &SensitivityCurve) {
    let ladder: Vec<String> = curve.ladder.iter().map(|e| format!("{e:.3}")).collect();
    let _ = writeln!(
        out,
        "  {} @ {} over [{}]:",
        curve.op.name(),
        curve.site,
        ladder.join(", ")
    );
    if curve.thresholds.is_empty() {
        out.push_str("    (no detector fired at any magnitude)\n");
    }
    for (d, eps) in &curve.thresholds {
        let _ = writeln!(out, "    {d}: {eps:.3}");
    }
}

/// [`render_matrix`] plus the performance epilogue. Not snapshot-stable.
pub fn render_full(report: &CampaignReport) -> String {
    let mut out = render_matrix(report);
    out.push('\n');
    let _ = writeln!(
        out,
        "baseline: {} units verified cold, {:.3}s verify cpu",
        report.baseline.cache_misses, report.baseline.verify_cpu
    );
    let _ = writeln!(
        out,
        "mean mutant: {:.1} units re-verified, {:.1}x fewer than cold, {:.4}s verify cpu",
        report.mean_dirty_units(None),
        report.cold_units_ratio(None),
        report.mean_mutant_verify_cpu()
    );
    for (class, parametric, cpu) in [
        (
            "parametric class (sizing ECOs)",
            true,
            report.mean_parametric_verify_cpu(),
        ),
        (
            "structural class (role-moving)",
            false,
            report.mean_structural_verify_cpu(),
        ),
    ] {
        if report.cold_units_ratio(Some(parametric)) > 0.0 {
            let _ = writeln!(
                out,
                "  {class}: {:.1} units re-verified, {:.1}x fewer than cold, {cpu:.4}s mean",
                report.mean_dirty_units(Some(parametric)),
                report.cold_units_ratio(Some(parametric)),
            );
        }
    }
    let _ = writeln!(
        out,
        "cache reuse across mutants: {:.1}% unit hits",
        report.cache_hit_fraction() * 100.0
    );
    out
}

impl Serialize for Detector {
    fn serialize_json(&self, out: &mut String) {
        self.to_string().serialize_json(out);
    }
}

impl Serialize for crate::campaign::FlowObservation {
    fn serialize_json(&self, out: &mut String) {
        let mut w = JsonWriter::object(out);
        w.field("check_violations", &self.check_violations);
        w.field("check_max_stress", &self.check_max_stress);
        w.field("timing_violations", &self.timing_violations);
        w.field("verify_cpu", &self.verify_cpu);
        w.field("cache_hits", &self.cache_hits);
        w.field("cache_misses", &self.cache_misses);
        w.end();
    }
}

impl Serialize for crate::campaign::MutantRecord {
    fn serialize_json(&self, out: &mut String) {
        let mut w = JsonWriter::object(out);
        w.field("op", &self.op.to_string());
        w.field("description", &self.description);
        w.field("fired", &self.fired);
        w.field("verify_cpu", &self.verify_cpu);
        w.field("cache_hits", &self.cache_hits);
        w.field("cache_misses", &self.cache_misses);
        w.end();
    }
}

/// Helper: one `(detector, count)` matrix cell as a two-element object.
struct Cell<'a>(&'a (Detector, usize));

impl Serialize for Cell<'_> {
    fn serialize_json(&self, out: &mut String) {
        let mut w = JsonWriter::object(out);
        w.field("detector", &self.0 .0);
        w.field("count", &self.0 .1);
        w.end();
    }
}

impl Serialize for crate::campaign::OpSummary {
    fn serialize_json(&self, out: &mut String) {
        let mut w = JsonWriter::object(out);
        w.field("op", &self.op.to_string());
        w.field("sites_found", &self.sites_found);
        w.field("mutants_run", &self.mutants_run);
        w.field("detected", &self.detected);
        let cells: Vec<Cell<'_>> = self.by_detector.iter().map(Cell).collect();
        w.field("by_detector", &cells);
        w.field("escapes", &self.escapes);
        w.end();
    }
}

impl Serialize for SensitivityCurve {
    fn serialize_json(&self, out: &mut String) {
        struct Th<'a>(&'a (Detector, f64));
        impl Serialize for Th<'_> {
            fn serialize_json(&self, out: &mut String) {
                let mut w = JsonWriter::object(out);
                w.field("detector", &self.0 .0);
                w.field("magnitude", &self.0 .1);
                w.end();
            }
        }
        let mut w = JsonWriter::object(out);
        w.field("op", &self.op.name().to_owned());
        w.field("site", &self.site);
        w.field("ladder", &self.ladder);
        let ths: Vec<Th<'_>> = self.thresholds.iter().map(Th).collect();
        w.field("thresholds", &ths);
        w.end();
    }
}

impl Serialize for CampaignReport {
    fn serialize_json(&self, out: &mut String) {
        let mut w = JsonWriter::object(out);
        w.field("design", &self.design);
        w.field("devices", &self.devices);
        w.field("baseline", &self.baseline);
        w.field("rows", &self.rows);
        w.field("mutants", &self.mutants);
        w.field("sensitivity", &self.sensitivity);
        w.field("total_mutants", &self.total_mutants());
        w.field("total_escapes", &self.total_escapes());
        w.field("mean_mutant_verify_cpu", &self.mean_mutant_verify_cpu());
        w.field(
            "mean_parametric_verify_cpu",
            &self.mean_parametric_verify_cpu(),
        );
        w.field("cold_units_ratio", &self.cold_units_ratio(None));
        w.field(
            "parametric_cold_units_ratio",
            &self.cold_units_ratio(Some(true)),
        );
        w.field("cache_hit_fraction", &self.cache_hit_fraction());
        w.end();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::campaign::{FlowObservation, MutantRecord, OpSummary};
    use crate::op::MutationOp;
    use cbv_everify::CheckKind;

    fn toy_report() -> CampaignReport {
        let obs = FlowObservation {
            check_violations: vec![0; CheckKind::ALL.len()],
            check_max_stress: vec![0.0; CheckKind::ALL.len()],
            timing_violations: 3,
            verify_cpu: 1.5,
            cache_hits: 0,
            cache_misses: 9,
        };
        let op = MutationOp::WidthScale { factor: 12.0 };
        let fired = vec![Detector::Check(CheckKind::BetaRatio)];
        let mut by_detector: Vec<(Detector, usize)> =
            all_detectors().into_iter().map(|d| (d, 0)).collect();
        by_detector[0].1 = 1;
        CampaignReport {
            design: "toy".into(),
            devices: 8,
            baseline: obs.clone(),
            rows: vec![OpSummary {
                op,
                sites_found: 4,
                mutants_run: 2,
                detected: 1,
                by_detector,
                escapes: vec!["width of `m1` x12.000".into()],
            }],
            mutants: vec![MutantRecord {
                op_index: 0,
                op,
                description: "width of `m0` x12.000".into(),
                fired,
                verify_cpu: 0.25,
                cache_hits: 8,
                cache_misses: 1,
            }],
            sensitivity: vec![SensitivityCurve {
                op: MutationOp::WidthScale { factor: 1.0 },
                site: "device `m0`".into(),
                ladder: vec![1.5, 3.0],
                thresholds: vec![(Detector::Check(CheckKind::BetaRatio), 3.0)],
            }],
        }
    }

    #[test]
    fn matrix_text_is_timing_free_and_full_text_is_not() {
        let report = toy_report();
        let matrix = render_matrix(&report);
        assert!(matrix.contains("mutation campaign: toy (8 devices)"));
        assert!(matrix.contains("width-scale(x12.000)"));
        assert!(matrix.contains("escapes (1):"));
        assert!(matrix.contains("beta-ratio: 3.000"));
        assert!(
            !matrix.contains("cpu"),
            "snapshot text must carry no timings"
        );
        let full = render_full(&report);
        assert!(full.starts_with(&matrix));
        assert!(full.contains("9 units verified cold"));
        assert!(full.contains("1.0 units re-verified, 9.0x fewer than cold"));
        assert!(full.contains("cache reuse"));
    }

    #[test]
    fn json_round_trips_through_the_shim_parser() {
        let report = toy_report();
        let json = serde_json::to_string(&report).unwrap();
        assert!(json.contains("\"design\":\"toy\""));
        assert!(json.contains("\"total_mutants\":1"));
        assert!(json.contains("\"fired\":[\"beta-ratio\"]"));
        // The sibling shim's parser must accept what we emit.
        let value = serde_json::from_str(&json).expect("valid JSON");
        assert_eq!(value.get("devices").and_then(|v| v.as_u64()), Some(8));
    }
}
