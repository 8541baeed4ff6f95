//! `cbv-repair` — the auto-repair ECO engine.
//!
//! The paper's §4.2 electrical battery and §4.3 timing verification are
//! *probability filters*: they report where a full-custom design is
//! probably broken and leave the fix to the designer. This crate closes
//! that loop. Given a failing signoff it maps every finding class to
//! candidate repair operators at the *recognized* site (writability
//! fights the keeper, charge sharing fights internal stack width, setup
//! slack re-sizes the worst path with the §2.2 logical-effort machinery,
//! structural classes get targeted rewires), then searches the
//! magnitude × site space under the incremental oracle — greedy per
//! finding, with a bounded beam over interacting findings. Every
//! candidate is an [`Edit`](cbv_core::mutate::Edit), applied and
//! reverted through [`Edit::apply`](cbv_core::mutate::Edit::apply) and
//! its exact undo record, so the verification cache's bindings survive
//! and each probe costs one warm ECO re-verify, not a cold flow.
//!
//! The output is a [`RepairPlan`]: a verified minimal ECO batch of
//! edits (each step is an `{"edit":...}` object the daemon's `eco`
//! request accepts verbatim), with per-step
//! oracle cost accounting and a replayable transcript. A plan is
//! *rejected* rather than emitted if it would introduce a finding class
//! the broken design did not already have — the no-regression
//! guarantee E22 scores.

pub mod plan;
pub mod search;

pub use plan::{RepairPlan, RepairStep};
pub use search::{repair, repair_warm, replay_plan, restore_target, RepairConfig};
