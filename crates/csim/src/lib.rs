//! `cbv-csim` — compiled 64-lane bit-parallel simulation backend.
//!
//! §4.1 of the paper: the hand-built simulator "compiles into very
//! efficient code" and sustains ">200 cycles/sec/CPU" on a full CPU
//! model, because the inner loop is straight-line machine work with no
//! interpretation overhead. This crate is that idea applied to the
//! bit-blasted [`BoolNet`]: instead of walking a node graph per cycle
//! (the [`cbv_rtl::interp::Interp`] settle loop), we *compile once* and
//! then execute a flat program over machine words. It is the toolkit's
//! one gate-level engine, with [`BoolNet::eval`] as its reference:
//!
//! 1. [`compile`] levelizes the network
//!    ([`cbv_rtl::level::levelize_cone`], dead branches dropped), assigns
//!    every live gate a **slot** in a flat `u64` array, and emits a
//!    threaded-bytecode [`Program`]: one contiguous [`Op`] per computed
//!    gate — opcode plus input/output slot indices, no hash lookups, no
//!    recursion, no per-cycle graph walk.
//! 2. [`CSim`] executes the program with each `u64` slot holding **64
//!    independent lanes**: bit `l` of every slot is a complete,
//!    independent simulation. One pass over the ops advances 64 stimulus
//!    vectors at once — the classic bit-parallel (a.k.a. PARSIM/LCC)
//!    compiled-simulation trick, and the cheapest parallelism a
//!    word-oriented CPU offers.
//!
//! [`CSim`] mirrors the [`cbv_rtl::interp::Interp`] API per lane
//! ([`CSim::set_input`] / [`CSim::output`] / [`CSim::step`] /
//! [`CSim::step_edge`], same two-phase full-cycle semantics) and adds
//! the batch [`CSim::run_vectors`] entry point that the E18 benchmark
//! and the mutation-campaign functional screen drive.
//!
//! Determinism: compiling the same network twice yields byte-identical
//! programs ([`Program::encode`]); the levelized schedule breaks ties by
//! ascending gate id, never by hash order.
//!
//! Observability (`cbv-obs`): [`compile_traced`] wraps compilation in a
//! `csim.compile` span and emits `csim.program.ops`,
//! `csim.program.levels` and `csim.program.slots` counters;
//! [`CSim::set_tracer`] makes [`CSim::run_vectors`] account
//! `csim.run.cycles` / `csim.run.lane_cycles` counters and the
//! `csim.lanes_used` gauge.
//!
//! CAM designs are handled explicitly: `blast` expands a CAM into
//! `entries × width` state bits (capped at
//! [`cbv_rtl::blast::MAX_BLAST_CAM_ENTRIES`]), which compile like any
//! other state — the cross-engine suite exercises a blasted CAM design
//! end to end.
//!
//! [`BoolNet`]: cbv_rtl::boolnet::BoolNet
//! [`BoolNet::eval`]: cbv_rtl::boolnet::BoolNet::eval

pub mod exec;
pub mod program;

pub use exec::{lane_bit, pack_lanes, CSim, LANES};
pub use program::{compile, compile_traced, CommitList, Op, OpKind, Program};
