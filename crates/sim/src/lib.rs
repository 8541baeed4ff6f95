//! `cbv-sim` — logic simulation at every level the methodology needs.
//!
//! §4.1: "We perform logic verification at four levels: Behavioral/RTL
//! simulation, standalone schematic simulation, shadowed schematics under
//! RTL simulation, and RTL to schematic equivalence checking."
//!
//! The first level lives in `cbv-rtl` ([`cbv_rtl::interp::Interp`]);
//! equivalence checking in `cbv-equiv`; gate-level simulation of the
//! bit-blasted [`cbv_rtl::boolnet::BoolNet`] in `cbv-csim`. This crate
//! provides the middle two plus the supporting machinery:
//!
//! * [`switch`] — a switch-level simulator over transistor netlists:
//!   three-valued logic with charge retention on isolated nodes,
//!   conductance-based strength resolution (ratioed fights, keepers) and
//!   pessimistic X-propagation for unknown gates. This is "standalone
//!   schematic simulation".
//! * [`shadow`] — **shadow-mode co-simulation**: "a mixed mode simulation
//!   of full design Behavioral/RTL with a part of the circuit logic
//!   shadowing (not replacing) the corresponding RTL description" — the
//!   golden RTL drives the transistor block's inputs and every declared
//!   output bit is compared cycle by cycle.
//! * [`stimulus`] — manual and pseudo-random pattern sources ("stimulus
//!   patterns, which are either manually generated or pseudo-random
//!   sequences").

pub mod shadow;
pub mod stimulus;
pub mod switch;

pub use shadow::{BitBinding, Mismatch, ShadowSim};
pub use stimulus::Stimulus;
pub use switch::{Logic, SwitchSim};
