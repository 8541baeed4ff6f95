//! Blocking protocol client, shared by the `cbv` binary, the E17
//! harness, and `tests/serve.rs`.
//!
//! One [`Client`] is one connection — and therefore one session on the
//! daemon. Requests are issued in lockstep (write frame, read frame);
//! correlation ids are generated per request and checked on the reply.
//! Verdict replies keep the signoff **raw** ([`Verdict::signoff_raw`]):
//! the exact bytes the server spliced in, never reparsed, so callers
//! can compare against an in-process run with `==`.

use std::io;
use std::net::{TcpStream, ToSocketAddrs};

use serde_json::{FieldError, Value};

use crate::protocol::{exchange, extract_raw_field, json_escaped};

/// Anything that can go wrong on a request.
#[derive(Debug)]
pub enum ClientError {
    /// Transport failure (connect, read, write, framing).
    Io(io::Error),
    /// The server replied but the reply was not protocol-shaped.
    Protocol(String),
    /// The server rejected the request. `retry_after_ms` is set on
    /// queue-full backpressure rejections.
    Rejected {
        /// Server-reported reason.
        error: String,
        /// Back-off hint, when the rejection is retryable.
        retry_after_ms: Option<u64>,
    },
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "transport: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol: {m}"),
            ClientError::Rejected {
                error,
                retry_after_ms,
            } => match retry_after_ms {
                Some(ms) => write!(f, "rejected: {error} (retry after {ms} ms)"),
                None => write!(f, "rejected: {error}"),
            },
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(e: io::Error) -> ClientError {
        ClientError::Io(e)
    }
}

impl From<FieldError> for ClientError {
    fn from(e: FieldError) -> ClientError {
        ClientError::Protocol(e.to_string())
    }
}

impl ClientError {
    /// True for queue-full rejections the caller should retry.
    pub fn is_retryable(&self) -> bool {
        matches!(
            self,
            ClientError::Rejected {
                retry_after_ms: Some(_),
                ..
            }
        )
    }
}

/// A verification verdict as received over the wire.
#[derive(Debug, Clone)]
pub struct Verdict {
    /// Session revision the verdict is for.
    pub revision: u64,
    /// Clean signoff?
    pub clean: bool,
    /// Total violations.
    pub violations: usize,
    /// Shared-cache hits for this run.
    pub cache_hits: usize,
    /// Shared-cache misses for this run.
    pub cache_misses: usize,
    /// The raw signoff JSON, byte-identical to the in-process
    /// serialization.
    pub signoff_raw: String,
}

/// A `repair` reply: the plan as raw bytes plus the parsed essentials.
#[derive(Debug, Clone)]
pub struct RepairOutcome {
    /// Session revision after the request (advanced iff committed).
    pub revision: u64,
    /// Whether the daemon applied the plan to the session.
    pub committed: bool,
    /// Whether the search reached the goal.
    pub repaired: bool,
    /// Number of steps in the emitted plan.
    pub steps: usize,
    /// The raw `RepairPlan` JSON, byte-identical to the in-process
    /// serialization.
    pub plan_raw: String,
    /// The verified signoff spliced inside the plan, raw.
    pub signoff_raw: String,
}

/// One connection = one session.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
}

impl Client {
    /// Connects to a daemon.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        Ok(Client {
            stream: TcpStream::connect(addr)?,
            next_id: 1,
        })
    }

    /// Sends one raw request body (the `"id"` field is appended) and
    /// returns the raw reply after checking `ok`/`id`. `body` must be a
    /// JSON object WITHOUT the closing brace's `id`, e.g.
    /// `{"req":"stats"}`.
    pub fn request_raw(&mut self, body: &str) -> Result<String, ClientError> {
        self.request(body).map(|(reply, _)| reply)
    }

    /// [`request_raw`](Client::request_raw), with the reply's one parse.
    fn request(&mut self, body: &str) -> Result<(String, Value), ClientError> {
        let id = self.next_id;
        self.next_id += 1;
        exchange(&mut self.stream, id, body)
    }

    /// Opens a session on a registry design; returns the seed's device
    /// count.
    pub fn open(&mut self, design: &str) -> Result<usize, ClientError> {
        let (_, v) = self.request(&format!(
            "{{\"req\":\"open\",\"design\":{}}}",
            json_escaped(design)
        ))?;
        Ok(v.req_u64("devices")? as usize)
    }

    /// Opens a session on an uploaded SPICE deck.
    pub fn upload(&mut self, name: &str, spice: &str, top: &str) -> Result<usize, ClientError> {
        let (_, v) = self.request(&format!(
            "{{\"req\":\"upload\",\"design\":{},\"spice\":{},\"top\":{}}}",
            json_escaped(name),
            json_escaped(spice),
            json_escaped(top)
        ))?;
        Ok(v.req_u64("devices")? as usize)
    }

    /// Streams one ECO batch (`edits_json` is one edit object or an
    /// array of them) and waits for the incremental signoff.
    pub fn eco(
        &mut self,
        edits_json: &str,
        deadline_ms: Option<u64>,
    ) -> Result<Verdict, ClientError> {
        let deadline = deadline_field(deadline_ms);
        parse_verdict(self.request(&format!(
            "{{\"req\":\"eco\",\"edits\":{edits_json}{deadline}}}"
        ))?)
    }

    /// Requests a signoff of the session's current revision.
    pub fn signoff(&mut self, deadline_ms: Option<u64>) -> Result<Verdict, ClientError> {
        let deadline = deadline_field(deadline_ms);
        parse_verdict(self.request(&format!("{{\"req\":\"signoff\"{deadline}}}"))?)
    }

    /// Rolls the session back to `revision`; returns the new revision.
    pub fn rollback(&mut self, revision: u64) -> Result<u64, ClientError> {
        let (_, v) = self.request(&format!("{{\"req\":\"rollback\",\"revision\":{revision}}}"))?;
        Ok(v.req_u64("revision")?)
    }

    /// Saves the session (seed + edit history) on the daemon under
    /// `name`; returns the saved revision. With a `--state` file
    /// configured the snapshot survives a daemon restart.
    pub fn save(&mut self, name: &str) -> Result<u64, ClientError> {
        let (_, v) = self.request(&format!(
            "{{\"req\":\"save\",\"name\":{}}}",
            json_escaped(name)
        ))?;
        Ok(v.req_u64("revision")?)
    }

    /// Restores a saved snapshot as this connection's session; returns
    /// the restored revision.
    pub fn restore(&mut self, name: &str) -> Result<u64, ClientError> {
        let (_, v) = self.request(&format!(
            "{{\"req\":\"restore\",\"name\":{}}}",
            json_escaped(name)
        ))?;
        Ok(v.req_u64("revision")?)
    }

    /// Asks the daemon to auto-repair the session's current netlist.
    /// `commit` applies the found plan to the session as one accepted
    /// batch (the default on the wire); `commit = false` stages it
    /// instead. The returned plan JSON is raw — byte-identical to an
    /// in-process `cbv_repair::repair` on the same netlist.
    pub fn repair(&mut self, commit: bool) -> Result<RepairOutcome, ClientError> {
        let commit_field = if commit { "" } else { ",\"commit\":false" };
        let (reply, v) = self.request(&format!("{{\"req\":\"repair\"{commit_field}}}"))?;
        let plan_raw = raw(&reply, "plan")?;
        let signoff_raw = raw(&plan_raw, "signoff")?;
        let plan = v.req("plan")?;
        Ok(RepairOutcome {
            revision: v.req_u64("revision")?,
            committed: v.req_bool("committed")?,
            repaired: plan.req_bool("repaired")?,
            steps: plan
                .get("steps")
                .and_then(Value::as_array)
                .map_or(0, <[Value]>::len),
            plan_raw,
            signoff_raw,
        })
    }

    /// Fetches the daemon's stats object (raw JSON).
    pub fn stats(&mut self) -> Result<String, ClientError> {
        raw(&self.request_raw("{\"req\":\"stats\"}")?, "stats")
    }

    /// Asks the daemon to drain and exit.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        self.request_raw("{\"req\":\"shutdown\"}")?;
        Ok(())
    }
}

fn deadline_field(deadline_ms: Option<u64>) -> String {
    deadline_ms
        .map(|ms| format!(",\"deadline_ms\":{ms}"))
        .unwrap_or_default()
}

/// The verbatim text of the field `name`, which `reply` must carry.
fn raw(reply: &str, name: &str) -> Result<String, ClientError> {
    extract_raw_field(reply, name)
        .map(str::to_owned)
        .ok_or_else(|| ClientError::Protocol(format!("reply missing {name:?}")))
}

fn parse_verdict((reply, v): (String, Value)) -> Result<Verdict, ClientError> {
    let signoff_raw = raw(&reply, "signoff")?;
    let cache = v.req("cache")?;
    Ok(Verdict {
        revision: v.req_u64("revision")?,
        clean: v.req_bool("clean")?,
        violations: v.req_u64("violations")? as usize,
        cache_hits: cache.req_u64("hits")? as usize,
        cache_misses: cache.req_u64("misses")? as usize,
        signoff_raw,
    })
}
