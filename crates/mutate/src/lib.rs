//! `cbv-mutate` — mutation testing for the §4.2 probability filter.
//!
//! The paper's central claim about the CAD system is that its checks act
//! as *probability filters*: they discharge the circuits that are
//! provably fine and flag the ones that might be broken (§2.3, §4.2).
//! The seven hand-written injectors of `cbv-gen` assert that claim with
//! anecdotes; this crate measures it. It generalizes the injector
//! taxonomy into **parametric, site-enumerable mutation operators**
//! ([`MutationOp`]) — each with a magnitude knob and a deterministic
//! enumerator over every applicable device/net site — and a campaign
//! runner ([`run_campaign`]) that applies every mutant as a one-site ECO
//! and asks a [`FlowOracle`] (in practice `run_flow_incremental` on a
//! primed verification cache) which checks moved.
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
//! The crate deliberately depends only on the netlist/recognition layer:
//! the flow-backed oracle adapters live in `cbv-core` (`core::oracle`),
//! and `cbv_gen::inject` delegates its legacy fault classes to
//! [`apply`], so there is exactly one mutation taxonomy in the tree.

pub mod campaign;
pub mod op;
pub mod report;
pub mod screen;
pub mod wire;

pub use campaign::{
    default_ops, default_sensitivity, run_campaign, CampaignConfig, CampaignReport, Detector,
    FlowObservation, FlowOracle, MutantRecord, OpSummary, SensitivityCurve,
};
pub use op::{
    apply, apply_resize, check_site_devices, keeper_devices, precharge_devices, sites,
    stack_internal_nmos, Mutation, MutationOp, Site, UndoRecord,
};
pub use screen::{
    run_func_screen, FuncMutantRecord, FuncOpSummary, FuncOracle, FuncScreenConfig,
    FuncScreenReport, FuncVerdict,
};
pub use wire::{op_from_json, parse_term, site_from_json, term_name, WireError};
