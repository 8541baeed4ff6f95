//! `cbv-rtl` — the in-house hardware description language.
//!
//! §4.1 of the paper: "Standard hardware description languages have proven
//! to be inadequate for us when describing highly variable ... parts of
//! the design. ... Some of our functional units are just difficult to code
//! in standard languages and result in highly inefficient run-times, e.g.
//! a 2000 port CAM structure. We have developed a hardware language driven
//! by our style of designing microprocessors, with programming constructs
//! that make sense for the design itself, and which compiles into very
//! efficient code."
//!
//! This crate is that language for the cbv toolkit: a small behavioral/RTL
//! HDL with
//!
//! * modules, typed ports, registers, wires and hierarchical instances;
//! * non-blocking sequential blocks (`at posedge(ck) { ... }` and
//!   `at negedge(ck) { ... }` — a full [`interp::Interp::step`] cycle
//!   commits the rising edge first, then the falling edge, the natural
//!   model for the paper's two-phase latching on one clock);
//! * a **first-class CAM primitive** (`cam tags[64][32];` plus
//!   `tags.match(key)`) that the interpreter executes in words rather than
//!   gates — the exact capability the paper says standard HDLs lacked;
//! * elaboration to a flat word-level IR ([`RtlDesign`]);
//! * a cycle-accurate interpreter ([`interp::Interp`]);
//! * bit-blasting ([`blast`]) to a shared gate-level boolean network
//!   ([`boolnet::BoolNet`]) consumed by the equivalence checker and the
//!   compiled gate-level simulator (`cbv-csim`).
//!
//! # Example
//!
//! ```
//! use cbv_rtl::{compile, interp::Interp};
//!
//! let src = r#"
//! module counter5(clock ck, in reset[1], out tick[1]) {
//!     reg cnt[3] = 0;
//!     at posedge(ck) {
//!         if (reset) { cnt <= 0; }
//!         else { if (cnt == 4) { cnt <= 0; } else { cnt <= cnt + 1; } }
//!     }
//!     assign tick = cnt == 4;
//! }
//! "#;
//! let design = compile(src, "counter5")?;
//! let mut sim = Interp::new(&design);
//! sim.set_input("reset", 0);
//! let mut ticks = 0;
//! for _ in 0..10 {
//!     sim.step("ck");
//!     if sim.output("tick") == 1 { ticks += 1; }
//! }
//! assert_eq!(ticks, 2);
//! # Ok::<(), cbv_rtl::RtlError>(())
//! ```

pub mod ast;
pub mod blast;
pub mod boolnet;
pub mod design;
pub mod elab;
pub mod error;
pub mod interp;
pub mod level;
pub mod lexer;
pub mod lookup;
pub mod parser;

pub use design::{NodeId, RtlDesign, WordOp};
pub use error::RtlError;
pub use lookup::LookupError;

use ast::SourceFile;

/// Parses HDL source text into its AST.
///
/// # Errors
///
/// Returns a positioned [`RtlError`] on lexical or syntax errors.
pub fn parse(source: &str) -> Result<SourceFile, RtlError> {
    let tokens = lexer::lex(source)?;
    parser::parse_tokens(&tokens)
}

/// Parses and elaborates `top` from HDL source into a flat word-level
/// design ready for simulation or bit-blasting.
///
/// # Errors
///
/// Returns an error on syntax problems, unknown modules/signals, width
/// violations or combinational cycles.
pub fn compile(source: &str, top: &str) -> Result<RtlDesign, RtlError> {
    let file = parse(source)?;
    elab::elaborate(&file, top)
}
