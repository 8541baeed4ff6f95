//! `cbv-mutate` — mutation testing for the §4.2 probability filter.
//!
//! The paper's central claim about the CAD system is that its checks act
//! as *probability filters*: they discharge the circuits that are
//! provably fine and flag the ones that might be broken (§2.3, §4.2).
//! A handful of seeded faults asserts that claim with anecdotes; this
//! crate measures it. Its **parametric, site-enumerable mutation
//! operators** ([`MutationOp`]) each have a magnitude knob and a
//! deterministic enumerator over every applicable device/net site, and
//! a campaign runner ([`run_campaign`]) applies every mutant as a
//! one-site ECO and asks a [`FlowOracle`] (in practice
//! `run_flow_incremental` on a primed verification cache) which checks
//! moved.
//!
//! Detection is **differential**: real full-custom designs rarely have a
//! spotless baseline, so a detector counts only when its violation count
//! *strictly increases* over the unmutated design's. The campaign's
//! outputs are the operator × check detection matrix, the escape list
//! (mutants nothing flagged — each a checker gap to fix or a documented
//! accepted escape), and per-operator sensitivity curves (the smallest
//! magnitude each check detects — the probability-filter ROC the paper
//! only gestures at).
//!
//! Alongside the flow campaign, [`run_func_screen`] runs the same
//! mutants through a **functional screen** ([`screen`]): simulate each
//! mutant against the golden design's stimulus/response vectors and
//! report diverged / unresolved / escaped — §4.1's logic-intent
//! coverage as the campaign's simulation column. The reference-vector
//! oracles (interpreter- or compiled-engine-backed) live in `cbv-core`
//! (`core::screen`).
//!
//! The crate also owns the toolkit's one **edit vocabulary**, [`Edit`]:
//! an operator at a site, or a raw add-net / add-device / resize /
//! rewire. A daemon session's ECO batch, a repair plan's step and a
//! seeded fault in a test are all `Edit`s, applied by the one validated,
//! exactly reversible [`Edit::apply`] and carried on the wire by
//! [`edit_to_json`] / [`edit_from_json`].
//!
//! The crate deliberately depends only on the netlist/recognition layer:
//! the flow-backed oracle adapters live in `cbv-core` (`core::oracle`).

pub mod campaign;
pub mod edit;
pub mod op;
pub mod report;
pub mod screen;
pub mod wire;

pub use campaign::{
    default_ops, default_sensitivity, run_campaign, CampaignConfig, CampaignReport, Detector,
    FlowObservation, FlowOracle, MutantRecord, OpSummary, SensitivityCurve,
};
pub use edit::{Edit, NewDevice, NewNet};
pub use op::{
    apply, check_site_devices, keeper_devices, sites, Mutation, MutationOp, Site, UndoRecord,
};
pub use screen::{
    run_func_screen, FuncMutantRecord, FuncOpSummary, FuncOracle, FuncScreenConfig,
    FuncScreenReport, FuncVerdict,
};
pub use wire::{edit_from_json, edit_to_json, edits_from_json};
