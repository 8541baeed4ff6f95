//! `cbv-core` — the Correct-by-Verification toolkit, assembled.
//!
//! This crate is the umbrella over the full-custom CAD system described
//! in *"Designing High Performance CMOS Microprocessors Using Full Custom
//! Techniques"* (DAC 1997): it re-exports every subsystem and adds the
//! modules that tie them together:
//!
//! * [`views`] — the hierarchy-overlap metrics of §2.1 and Fig 1: RTL,
//!   schematic and layout hierarchies deliberately do **not** have to
//!   correspond ("the designer is free to move logic/circuit functions
//!   physically ... without having to maintain strict correspondence to
//!   the RTL description"), so their correspondence is measured;
//! * [`flow`] — the ALPHA design flow of Fig 2 as an executable
//!   pipeline: RTL → schematic recognition → layout → extraction → the
//!   §4.2 electrical battery → §4.3 timing → §3 power → §4.1 logic
//!   verification, with per-stage runtimes and artifact counts —
//!   [`flow::run_flow`] cold, and one cached driver ([`scatter`]) behind
//!   [`flow::run_flow_incremental`], the daemon's [`service`] and the
//!   farm, differing only in its two seams: the cache (owned, or a
//!   shared tier that also shares preps) and the unit backend;
//! * [`scatter`] — that cached driver, its two seams and the prepared
//!   design a unit is verified against;
//! * [`service`] — [`service::FlowService`], the shareable facade the
//!   daemon's workers call: the driver with itself as the shared tier;
//! * [`signoff`] — the aggregated Correct-by-Verification report;
//! * [`oracle`] — a flow report read for the E16 mutation campaign and
//!   repair: detector counts, each finding resolved onto the recognized
//!   design;
//! * [`screen`] — the mutation functional screen's reference-vector
//!   oracle: golden vectors computed once from the design's RTL, every
//!   mutant switch-level simulated against them.
//!
//! # Quickstart
//!
//! ```
//! use cbv_core::flow::{run_flow, FlowConfig};
//! use cbv_core::gen::adders::static_ripple_adder;
//! use cbv_core::tech::Process;
//!
//! let process = Process::strongarm_035();
//! let design = static_ripple_adder(4, &process);
//! let report = run_flow(design.netlist, &process, &FlowConfig::default());
//! assert!(report.signoff.clean(), "a generated adder must sign off");
//! ```

pub mod flow;
pub mod oracle;
pub mod scatter;
pub mod screen;
pub mod service;
pub mod signoff;
pub mod views;

/// Process technology and device models.
pub use cbv_tech as tech;

/// Transistor-level netlist database.
pub use cbv_netlist as netlist;

/// Binary decision diagrams.
pub use cbv_bdd as bdd;

/// The custom hardware description language.
pub use cbv_rtl as rtl;

/// Automatic circuit recognition.
pub use cbv_recognize as recognize;

/// Logic simulation (switch-level, shadow mode).
pub use cbv_sim as sim;

/// Compiled 64-lane bit-parallel simulation backend.
pub use cbv_csim as csim;

/// Macrocell layout assistance.
pub use cbv_layout as layout;

/// Parasitic extraction.
pub use cbv_extract as extract;

/// Static timing verification.
pub use cbv_timing as timing;

/// The electrical verification battery.
pub use cbv_everify as everify;

/// Power estimation and low-power models.
pub use cbv_power as power;

/// Equivalence checking.
pub use cbv_equiv as equiv;

/// The scoped-thread parallel execution layer.
pub use cbv_exec as exec;

/// The content-fingerprinted verification cache (incremental flow).
pub use cbv_cache as cache;

/// Structured tracing and metrics (spans, counters, waterfall render).
pub use cbv_obs as obs;

/// Synthetic design generators.
pub use cbv_gen as gen;

/// Mutation-operator taxonomy and campaign runner (E16).
pub use cbv_mutate as mutate;

/// Versioned interchange IR, validation pass, and Yosys-JSON import.
pub use cbv_ir as ir;
