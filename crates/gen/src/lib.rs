//! `cbv-gen` — synthetic full-custom design generators.
//!
//! The paper's tools ran on the ALPHA and StrongARM design databases;
//! this crate generates the open equivalents: transistor-level blocks in
//! every logic family the methodology admits (§2), with the idioms the
//! verification battery exists to police — domino carry chains, DCVSL
//! stages, pass-gate muxes, hand-made latches, register files, CAM match
//! arrays and clock trees.
//!
//! * [`gates`] — parameterized static gates (inverter, NAND, NOR, AOI);
//! * [`adders`] — static ripple-carry and **domino Manchester** carry
//!   chains;
//! * [`latches`] — the latch zoo (pass-gate latch, jam latch, SR pair,
//!   domino keeper stage);
//! * [`dcvsl`] — differential cascode voltage switch logic stages;
//! * [`datapath`] — a two-phase-clocked ALU slice (registers + adder +
//!   write-back mux), the "generated ALPHA-style datapath";
//! * [`cam`] — CAM match arrays (dynamic NOR match lines) and the
//!   matching RTL source text;
//! * [`regfile`] — decoder + latch-cell register files with pass read
//!   ports;
//! * [`clocktree`] — buffered clock distribution chains;
//! * [`rtl_designs`] — the named word-level RTL design registry the
//!   cross-engine suites and the E18 compiled-simulation benchmark sweep.
//!
//! Faults are not generated here: a test or experiment plants one as a
//! `cbv_mutate::Edit` at a fixed device of a generated design.

pub mod adders;
pub mod cam;
pub mod clocktree;
pub mod datapath;
pub mod dcvsl;
pub mod gates;
pub mod latches;
pub mod regfile;
pub mod rtl_designs;

use cbv_netlist::{FlatNetlist, NetId};

/// Common handles returned by generators: the netlist plus the nets a
/// caller needs to drive and observe.
#[derive(Debug, Clone)]
pub struct Generated {
    /// The transistor netlist.
    pub netlist: FlatNetlist,
    /// Input nets in bit order (LSB first for buses).
    pub inputs: Vec<NetId>,
    /// Output nets in bit order.
    pub outputs: Vec<NetId>,
    /// Clock nets, if any.
    pub clocks: Vec<NetId>,
}
