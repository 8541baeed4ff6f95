//! The repair plan: a verified ECO batch of [`Edit`]s, with per-step
//! oracle cost accounting and a replayable transcript.
//!
//! Every step's JSON object is its edit's [`edit_to_json`] object plus
//! the accounting fields, so a daemon — or a designer with `cbv eco` —
//! can feed the steps array back verbatim. Floats print with shortest
//! round-trip formatting, the workspace-wide guarantee that wire replay
//! is bit-exact.

use cbv_core::mutate::{edit_to_json, Edit};

/// One verified repair step.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairStep {
    /// The edit.
    pub edit: Edit,
    /// What the step does, in design-name terms.
    pub description: String,
    /// Oracle calls spent searching for (and verifying) this step.
    pub oracle_calls: usize,
    /// Units re-verified (cache misses) across those calls.
    pub units_reverified: usize,
    /// Total violations (electrical + timing) after this step.
    pub violations_after: usize,
}

impl RepairStep {
    fn to_json(&self) -> String {
        // Splice the accounting fields into the edit object so the step
        // stays parseable as an `Edit`.
        let edit = edit_to_json(&self.edit);
        let body = &edit[..edit.len() - 1]; // strip trailing '}'
        format!(
            "{body},\"description\":{},\"oracle_calls\":{},\"units_reverified\":{},\"violations_after\":{}}}",
            quoted(&self.description),
            self.oracle_calls,
            self.units_reverified,
            self.violations_after,
        )
    }
}

/// The outcome of one repair search: either a verified ECO batch that
/// restores the design (`repaired`, possibly byte-identical to a known
/// target signoff), or a rejected plan with the reason and zero steps —
/// a rejected repair never ships edits.
#[derive(Debug, Clone, PartialEq)]
pub struct RepairPlan {
    /// Design label (the netlist name).
    pub design: String,
    /// True when the final signoff meets the goal (clean, or quiet
    /// against the supplied baseline) with no new finding class.
    pub repaired: bool,
    /// When a target signoff was supplied: whether the repaired signoff
    /// matches it byte for byte.
    pub byte_identical: Option<bool>,
    /// The verified ECO batch, in application order.
    pub steps: Vec<RepairStep>,
    /// Total oracle calls spent by the search.
    pub oracle_calls: usize,
    /// Total units re-verified (cache misses) across the search.
    pub units_reverified: usize,
    /// Candidates evaluated.
    pub attempts: usize,
    /// Candidates discarded by the no-regression rule.
    pub rejected_regression: usize,
    /// Why no plan was emitted, when `repaired` is false.
    pub rejected: Option<String>,
    /// Replayable search transcript, one deterministic line per event.
    pub transcript: Vec<String>,
    /// The verified signoff of the emitted plan (or of the unrepaired
    /// input when rejected), spliced verbatim from the flow.
    pub signoff_json: String,
}

fn quoted(s: &str) -> String {
    serde_json::to_string(&s.to_string()).expect("string serialization is infallible")
}

impl RepairPlan {
    /// Stable JSON: field order fixed, floats shortest-round-trip, the
    /// signoff spliced verbatim — byte-identical across thread counts,
    /// cache states, and the wire.
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(512 + self.signoff_json.len());
        out.push_str("{\"design\":");
        out.push_str(&quoted(&self.design));
        out.push_str(",\"repaired\":");
        out.push_str(if self.repaired { "true" } else { "false" });
        out.push_str(",\"byte_identical\":");
        match self.byte_identical {
            Some(true) => out.push_str("true"),
            Some(false) => out.push_str("false"),
            None => out.push_str("null"),
        }
        out.push_str(",\"steps\":[");
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&s.to_json());
        }
        out.push_str("],\"oracle_calls\":");
        out.push_str(&self.oracle_calls.to_string());
        out.push_str(",\"units_reverified\":");
        out.push_str(&self.units_reverified.to_string());
        out.push_str(",\"attempts\":");
        out.push_str(&self.attempts.to_string());
        out.push_str(",\"rejected_regression\":");
        out.push_str(&self.rejected_regression.to_string());
        out.push_str(",\"rejected\":");
        match &self.rejected {
            Some(r) => out.push_str(&quoted(r)),
            None => out.push_str("null"),
        }
        out.push_str(",\"transcript\":[");
        for (i, t) in self.transcript.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&quoted(t));
        }
        out.push_str("],\"signoff\":");
        out.push_str(&self.signoff_json);
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cbv_core::mutate::{MutationOp, Site};
    use cbv_core::netlist::DeviceId;
    use serde_json::{raw_field, Value};

    fn sample_plan() -> RepairPlan {
        RepairPlan {
            design: "domino4".into(),
            repaired: true,
            byte_identical: Some(true),
            steps: vec![
                RepairStep {
                    edit: Edit::Resize {
                        device: DeviceId(73),
                        w: 1.25e-6,
                        l: 3.5e-7,
                    },
                    description: "resize `mkeep`".into(),
                    oracle_calls: 7,
                    units_reverified: 12,
                    violations_after: 0,
                },
                RepairStep {
                    edit: Edit::Op {
                        op: MutationOp::PolaritySwap,
                        site: Site::Device(DeviceId(3)),
                    },
                    description: "swap back".into(),
                    oracle_calls: 2,
                    units_reverified: 4,
                    violations_after: 0,
                },
            ],
            oracle_calls: 10,
            units_reverified: 20,
            attempts: 9,
            rejected_regression: 1,
            rejected: None,
            transcript: vec!["step 1: ...".into()],
            signoff_json: "{\"categories\":[]}".into(),
        }
    }

    /// Reads the emitted JSON back with the shim's parser and checks
    /// every field the writer wrote, the signoff as a verbatim slice.
    fn assert_reads_back(plan: &RepairPlan, json: &str) {
        let v: Value = serde_json::from_str(json).expect("parses");
        assert_eq!(v.req_str("design"), Ok(plan.design.as_str()));
        assert_eq!(v.req_bool("repaired"), Ok(plan.repaired));
        assert_eq!(
            v.req("byte_identical").unwrap().as_bool(),
            plan.byte_identical
        );
        let steps = v.req_array("steps").unwrap();
        assert_eq!(steps.len(), plan.steps.len());
        for (got, want) in steps.iter().zip(&plan.steps) {
            // The step object is the edit object plus accounting fields.
            let (Value::Object(fields), Value::Object(edit)) = (
                got,
                serde_json::from_str(&edit_to_json(&want.edit)).unwrap(),
            ) else {
                panic!("steps and edits are objects");
            };
            assert_eq!(fields[..edit.len()], edit[..]);
            assert_eq!(got.req_str("description"), Ok(want.description.as_str()));
            assert_eq!(got.req_u64("oracle_calls"), Ok(want.oracle_calls as u64));
            assert_eq!(
                got.req_u64("units_reverified"),
                Ok(want.units_reverified as u64)
            );
            assert_eq!(
                got.req_u64("violations_after"),
                Ok(want.violations_after as u64)
            );
        }
        assert_eq!(v.req_u64("oracle_calls"), Ok(plan.oracle_calls as u64));
        assert_eq!(
            v.req_u64("units_reverified"),
            Ok(plan.units_reverified as u64)
        );
        assert_eq!(v.req_u64("attempts"), Ok(plan.attempts as u64));
        assert_eq!(
            v.req_u64("rejected_regression"),
            Ok(plan.rejected_regression as u64)
        );
        assert_eq!(
            v.req("rejected").unwrap().as_str(),
            plan.rejected.as_deref()
        );
        let transcript: Vec<&str> = v
            .req_array("transcript")
            .unwrap()
            .iter()
            .map(|t| t.as_str().unwrap())
            .collect();
        assert_eq!(transcript, plan.transcript);
        assert_eq!(raw_field(json, "signoff"), Some(plan.signoff_json.as_str()));
    }

    #[test]
    fn plan_json_round_trips() {
        let plan = sample_plan();
        let json = plan.to_json();
        assert_reads_back(&plan, &json);
    }

    #[test]
    fn steps_are_valid_serve_edits() {
        // Each step object must parse as an `Edit` — here just check
        // the edit discriminant and wire-shape fields survive.
        let plan = sample_plan();
        let json = plan.to_json();
        let v: Value = serde_json::from_str(&json).unwrap();
        let steps = v.get("steps").unwrap().as_array().unwrap();
        assert_eq!(steps[0].get("edit").unwrap().as_str(), Some("resize"));
        assert_eq!(steps[0].get("device").unwrap().as_u64(), Some(73));
        assert_eq!(steps[1].get("edit").unwrap().as_str(), Some("op"));
        assert!(steps[1].get("op").unwrap().get("op").is_some());
    }

    #[test]
    fn rejected_plan_serializes_null_fields() {
        let mut plan = sample_plan();
        plan.repaired = false;
        plan.byte_identical = None;
        plan.steps.clear();
        plan.rejected = Some("no improving candidate".into());
        let json = plan.to_json();
        assert!(json.contains("\"byte_identical\":null"));
        assert!(json.contains("\"steps\":[]"));
        assert!(json.contains("\"rejected\":\"no improving candidate\""));
        assert_reads_back(&plan, &json);
    }
}
