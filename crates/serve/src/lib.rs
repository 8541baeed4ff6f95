//! `cbv-serve` — the verification daemon.
//!
//! The paper's methodology is a *service*: "hundreds of designers"
//! concurrently edit a shared transistor-level database while the
//! verification battery acts as a continuous probability filter (§2,
//! §4). This crate turns the in-process toolkit into that service — a
//! long-running daemon speaking a length-prefixed JSON protocol over
//! TCP ([`protocol`]), with:
//!
//! * **sessions** against named designs, seeded from the `cbv-gen`
//!   registry or an uploaded SPICE deck, each with an exactly-reversible
//!   revision history ([`session`]);
//! * streamed **ECO requests** in the `cbv-mutate` edit vocabulary
//!   ([`Edit`]: an operator at a site, or a raw device/net edit),
//!   answered with incremental signoffs from a shared, bounded
//!   verification cache (`cbv_core::service::FlowService`);
//! * a bounded **job queue** with explicit backpressure — a full queue
//!   rejects with `retry_after_ms`, it never blocks the accept loop
//!   ([`queue`]);
//! * per-request **deadlines** (cooperative in-flow timeout → `ToolError`
//!   findings; expired-at-dequeue jobs are rejected before any work);
//! * **graceful drain** on shutdown: accepted jobs complete and reply,
//!   then every thread is reaped ([`server`]).
//!
//! The headline contract is **byte-identity**: the signoff JSON a remote
//! client receives is spliced verbatim from the same serialization an
//! in-process `run_flow_incremental` produces — at any worker count, any
//! `CBV_THREADS`, any number of concurrent clients. `tests/serve.rs`
//! and the `scripts/check.sh` loopback smoke compare the two with a
//! literal string equality.
//!
//! Binaries: `cbv-served` (the daemon) and `cbv` (the client,
//! `open`/`eco`/`signoff`/`rollback`/`stats`/`shutdown`/`replay`).

pub mod client;
pub mod farm;
pub mod protocol;
pub mod queue;
pub mod server;
pub mod session;
pub mod state;

pub use cbv_core::mutate::{
    edit_from_json, edit_to_json, edits_from_json, Edit, NewDevice, NewNet,
};
pub use client::{Client, ClientError, Verdict};
pub use farm::{Backoff, Farm, FarmConfig, FarmStats};
pub use protocol::{
    extract_raw_field, read_frame, write_frame, FRAME_MAGIC, MAX_FRAME, PROTO_VERSION,
};
pub use queue::{JobQueue, PushError};
pub use server::{serve, ServerConfig, ServerHandle, RETRY_AFTER_MS};
pub use session::{design_from_name, Session, SessionSeed, DESIGN_NAMES};
pub use state::{state_from_json, state_to_json, write_state_atomic, SavedSession};
