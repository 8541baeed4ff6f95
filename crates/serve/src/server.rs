//! The daemon: accept loop, connection handlers, worker pool, drain.
//!
//! Thread shape: one **accept** thread, one **handler** thread per
//! connection, and a fixed pool of **worker** threads consuming the
//! bounded [`JobQueue`]. A handler owns its connection's [`Session`]
//! outright (requests on one connection are processed in order, so no
//! lock is needed); verification never runs on the handler — the
//! handler clones the session netlist into a [`Job`], admits it with
//! `try_push` (full queue → immediate `retry_after_ms` rejection, the
//! accept path never blocks on verification), and waits for the
//! worker's reply on a per-job channel.
//!
//! Workers wrap every job in [`cbv_core::exec::run_isolated`], so a job
//! that panics outside the flow's own per-unit isolation still kills
//! neither the worker nor the daemon — the client gets an error reply
//! naming the panic.
//!
//! Besides the interactive vocabulary, the daemon speaks the **farm
//! worker** vocabulary: `hello` (version handshake), `load` (replay a
//! design revision and prepare it for unit-sharded verification) and
//! `batch` (verify a shard of units, replying with raw cache entries
//! the coordinator absorbs into its shared tier). Batches ride the
//! same bounded queue and the same backpressure as interactive jobs.
//!
//! Graceful drain: a `shutdown` request (or [`ServerHandle::shutdown`])
//! atomically flips the drain flag, closes the queue (accepted jobs
//! still complete and reply), wakes the accept loop with a self-
//! connect, and shuts every live connection's socket down so blocked
//! readers unwind. [`ServerHandle::join`] then reaps every thread.

use std::collections::BTreeMap;
use std::io::{self, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use cbv_core::cache::write_unit_entry;
use cbv_core::exec::run_isolated;
use cbv_core::flow::FlowConfig;
use cbv_core::ir::ensure_valid;
use cbv_core::netlist::FlatNetlist;
use cbv_core::obs::{JsonlSink, SpanRecord, TraceSink, Tracer};
use cbv_core::scatter::{PreparedDesign, UnitOutcome};
use cbv_core::service::{FlowService, ServiceVerdict};
use cbv_core::tech::Process;
use serde_json::Value;

use crate::protocol::{json_escaped, read_frame, write_frame, PROTO_VERSION};
use crate::queue::{JobQueue, PushError};
use crate::session::{Session, SessionSeed};
use crate::state::{state_from_json, state_to_json, write_state_atomic, SavedSession};
use crate::{edits_from_json, Edit};

/// Suggested client back-off, milliseconds, attached to queue-full
/// rejections.
pub const RETRY_AFTER_MS: u64 = 25;

/// Daemon configuration.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address; port 0 picks an ephemeral port (tests, check.sh).
    pub addr: String,
    /// Worker threads consuming the job queue (min 1 — a queue nobody
    /// drains would deadlock admitted requests).
    pub workers: usize,
    /// Job queue capacity. `0` is legal: every verification request is
    /// rejected with `retry_after_ms`, which pins the backpressure path
    /// for deterministic tests.
    pub queue_capacity: usize,
    /// Entry cap of the shared verification cache tier (unit results).
    /// Always bounded — a daemon that runs for weeks must not grow per
    /// ECO; a resident entry costs a few hundred bytes, so the default
    /// 4,096 is about a megabyte. Least-recently-used entries go first.
    pub cache_capacity: usize,
    /// `FlowConfig::parallelism` for each verification job (0 = auto,
    /// honouring `CBV_THREADS`).
    pub parallelism: usize,
    /// Write a `cbv-trace/1` JSONL trace of every request/flow span to
    /// this path (the line-atomic shared sink).
    pub trace_path: Option<String>,
    /// Persist saved sessions and the shared cache tier to this
    /// `cbv-state/1` file: loaded (strictly) at startup, rewritten
    /// atomically on every `save` request. `None` keeps saves
    /// in-memory only.
    pub state_path: Option<String>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            addr: "127.0.0.1:0".to_owned(),
            workers: 2,
            queue_capacity: 16,
            cache_capacity: 4096,
            parallelism: 0,
            trace_path: None,
            state_path: None,
        }
    }
}

/// One admitted job. `Verify` is the interactive vocabulary (`eco`,
/// `signoff`): a full incremental flow against the shared cache.
/// `Batch` is the farm worker vocabulary (`load`, `batch`): verify a
/// shard of units of a pre-prepared design and ship the raw cache
/// entries back to the coordinator's shared tier.
enum Job {
    Verify {
        netlist: FlatNetlist,
        deadline: Option<Instant>,
        trace_parent: Option<u64>,
        reply: mpsc::Sender<Result<ServiceVerdict, String>>,
    },
    Batch {
        prepared: Arc<PreparedDesign>,
        units: Vec<usize>,
        deadline: Option<Instant>,
        reply: mpsc::Sender<Result<Vec<UnitOutcome>, String>>,
    },
}

/// Span-discarding sink: the daemon's tracer always exists (its
/// counters feed the `stats` request via `Tracer::counter_value`), but
/// without a `trace_path` nothing should accumulate per-span memory
/// over a long-running process.
struct Discard;

impl TraceSink for Discard {
    fn span(&mut self, _span: &SpanRecord) {}
    fn counter(&mut self, _name: &str, _value: u64) {}
    fn gauge(&mut self, _name: &str, _value: f64) {}
}

struct Shared {
    service: FlowService,
    queue: JobQueue<Job>,
    tracer: Tracer,
    shutting_down: AtomicBool,
    addr: SocketAddr,
    workers: usize,
    /// Live connection streams (clones), shut down on drain so blocked
    /// readers unwind.
    conns: Mutex<Vec<TcpStream>>,
    /// Handler threads, reaped by `ServerHandle::join`.
    handlers: Mutex<Vec<JoinHandle<()>>>,
    /// Saved session snapshots (`save`/`restore`), keyed by name.
    /// Sorted so the state file serializes to stable bytes.
    saved: Mutex<BTreeMap<String, SavedSession>>,
    /// Where `save` persists the state file, if anywhere.
    state_path: Option<String>,
}

impl Shared {
    /// Flips the daemon into drain mode. Idempotent; safe from any
    /// thread (including a handler reacting to a `shutdown` request).
    fn stop(&self) {
        if self.shutting_down.swap(true, Ordering::SeqCst) {
            return;
        }
        self.queue.close();
        // Wake the accept loop so it observes the flag.
        let _ = TcpStream::connect(self.addr);
    }
}

/// A running daemon. Dropping the handle drains and joins it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    accept: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServerHandle {
    /// The bound address (resolves the ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.shared.addr
    }

    /// Initiates drain and reaps every thread.
    pub fn shutdown(mut self) {
        self.shared.stop();
        self.reap();
    }

    /// Blocks until the daemon exits (e.g. a remote `shutdown` request
    /// drains it), then reaps every thread.
    pub fn join(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
        // stop() ran (accept exits only after it); workers drain the
        // closed queue — every admitted job still replies — then exit.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        // Unblock handlers waiting in read_frame, then reap them.
        for s in self.shared.conns.lock().expect("conns lock").drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        let handlers: Vec<_> = self
            .shared
            .handlers
            .lock()
            .expect("handlers lock")
            .drain(..)
            .collect();
        for h in handlers {
            let _ = h.join();
        }
        self.shared.tracer.flush();
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        self.shared.stop();
        self.reap();
    }
}

/// Binds, spawns the worker pool and accept loop, and returns
/// immediately. The daemon serves until a `shutdown` request or
/// [`ServerHandle::shutdown`].
pub fn serve(config: ServerConfig) -> io::Result<ServerHandle> {
    let tracer = match &config.trace_path {
        Some(path) => Tracer::new(JsonlSink::new(std::fs::File::create(path)?)),
        None => Tracer::new(Discard),
    };
    let listener = TcpListener::bind(&config.addr)?;
    let addr = listener.local_addr()?;
    let flow = FlowConfig {
        parallelism: config.parallelism,
        tracer: tracer.clone(),
        ..FlowConfig::default()
    };
    let service =
        FlowService::new(Process::strongarm_035(), flow).with_cache_capacity(config.cache_capacity);
    // Strict state restore: a missing file is a fresh daemon, a corrupt
    // one fails startup loudly — persistence must never half-load.
    let mut saved = BTreeMap::new();
    if let Some(path) = &config.state_path {
        match std::fs::read_to_string(path) {
            Ok(text) => {
                let (sessions, cache) = state_from_json(&text).map_err(|e| {
                    io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("state file {path}: {e}"),
                    )
                })?;
                saved = sessions;
                if let Some(cache) = cache {
                    service.preload_cache(&cache);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
    }
    let workers = config.workers.max(1);
    let shared = Arc::new(Shared {
        service,
        queue: JobQueue::new(config.queue_capacity),
        tracer,
        shutting_down: AtomicBool::new(false),
        addr,
        workers,
        conns: Mutex::new(Vec::new()),
        handlers: Mutex::new(Vec::new()),
        saved: Mutex::new(saved),
        state_path: config.state_path.clone(),
    });

    let worker_handles: Vec<JoinHandle<()>> = (0..workers)
        .map(|_| {
            let shared = Arc::clone(&shared);
            std::thread::spawn(move || worker_loop(&shared))
        })
        .collect();

    let accept_shared = Arc::clone(&shared);
    let accept = std::thread::spawn(move || accept_loop(listener, &accept_shared));

    Ok(ServerHandle {
        shared,
        accept: Some(accept),
        workers: worker_handles,
    })
}

fn accept_loop(listener: TcpListener, shared: &Arc<Shared>) {
    for stream in listener.incoming() {
        if shared.shutting_down.load(Ordering::SeqCst) {
            break;
        }
        let Ok(stream) = stream else { continue };
        let clone = match stream.try_clone() {
            Ok(c) => c,
            Err(_) => continue,
        };
        shared.conns.lock().expect("conns lock").push(clone);
        let conn_shared = Arc::clone(shared);
        let handle = std::thread::spawn(move || handle_connection(stream, &conn_shared));
        shared.handlers.lock().expect("handlers lock").push(handle);
    }
}

/// Worker discipline: one job at a time off the queue until it is
/// closed and drained. A job's fresh cache entries are in the bounded
/// shared tier before its reply is sent ([`FlowService::verify`]), so a
/// worker holds nothing between jobs and has nothing to flush on exit.
fn worker_loop(shared: &Arc<Shared>) {
    while let Some(job) = shared.queue.pop() {
        run_job(shared, job);
    }
}

fn run_job(shared: &Arc<Shared>, job: Job) {
    match job {
        Job::Verify {
            netlist,
            deadline,
            trace_parent,
            reply,
        } => {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                shared.tracer.add("serve.reject.deadline", 1);
                let _ = reply.send(Err("deadline exceeded before verification started".into()));
                return;
            }
            shared.tracer.add("serve.jobs", 1);
            let service = &shared.service;
            let result = run_isolated(0, move || service.verify(netlist, deadline, trace_parent));
            if result.is_err() {
                shared.tracer.add("serve.job_panics", 1);
            }
            // The client may have disconnected mid-job; a dead channel
            // is not an error.
            let _ =
                reply.send(result.map_err(|p| format!("verification job panicked: {}", p.message)));
        }
        Job::Batch {
            prepared,
            units,
            deadline,
            reply,
        } => {
            if deadline.is_some_and(|d| Instant::now() >= d) {
                shared.tracer.add("serve.reject.deadline", 1);
                let _ = reply.send(Err("deadline exceeded before verification started".into()));
                return;
            }
            shared.tracer.add("serve.batches", 1);
            shared.tracer.add("serve.batch_units", units.len() as u64);
            // `verify_unit` is itself panic-isolated (a poisoned unit
            // comes back as `ToolError` findings), so the batch always
            // completes with one outcome per requested unit.
            let outcomes: Vec<UnitOutcome> = units
                .iter()
                .map(|&i| prepared.verify_unit(i, deadline))
                .collect();
            let _ = reply.send(Ok(outcomes));
        }
    }
}

fn error_reply(id: u64, message: &str) -> String {
    format!(
        "{{\"ok\":false,\"id\":{id},\"error\":{}}}",
        json_escaped(message)
    )
}

fn busy_reply(id: u64) -> String {
    format!(
        "{{\"ok\":false,\"id\":{id},\"error\":\"queue full\",\"retry_after_ms\":{RETRY_AFTER_MS}}}"
    )
}

/// A verification response. The `signoff` field is spliced in verbatim
/// — these are the exact bytes `serde_json::to_string(&signoff)`
/// produced, the byte-identity contract of the protocol.
fn verdict_reply(id: u64, revision: u64, v: &ServiceVerdict) -> String {
    format!(
        "{{\"ok\":true,\"id\":{id},\"revision\":{revision},\"clean\":{clean},\
         \"violations\":{violations},\
         \"cache\":{{\"hits\":{hits},\"misses\":{misses},\"evictions\":{evictions}}},\
         \"signoff\":{signoff}}}",
        clean = v.clean,
        violations = v.violations,
        hits = v.cache.hits,
        misses = v.cache.misses,
        evictions = v.cache.evictions,
        signoff = v.signoff_json,
    )
}

enum Submit {
    Done(ServiceVerdict),
    Busy,
    Draining,
    Failed(String),
}

/// Clones the session netlist into a job, admits it, and waits for the
/// verdict. Never blocks on a full queue — that is the backpressure
/// contract.
fn submit_and_wait(
    shared: &Shared,
    session: &Session,
    deadline: Option<Instant>,
    trace_parent: Option<u64>,
) -> Submit {
    let (tx, rx) = mpsc::channel();
    let job = Job::Verify {
        netlist: session.netlist().clone(),
        deadline,
        trace_parent,
        reply: tx,
    };
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.tracer.add("serve.reject.queue_full", 1);
            return Submit::Busy;
        }
        Err(PushError::Closed) => return Submit::Draining,
    }
    match rx.recv() {
        Ok(Ok(verdict)) => Submit::Done(verdict),
        Ok(Err(message)) => Submit::Failed(message),
        // Workers only exit after draining every admitted job, so a
        // dropped channel means the daemon is being torn down.
        Err(_) => Submit::Draining,
    }
}

/// Per-connection state. Interactive clients build a [`Session`]
/// (`open`/`upload`); farm coordinators build a [`PreparedDesign`]
/// (`load`) that `batch` requests shard over. A connection may hold
/// both, though in practice each speaks one vocabulary.
#[derive(Default)]
struct ConnState {
    session: Option<Session>,
    prepared: Option<Arc<PreparedDesign>>,
    /// An ECO batch a `repair` request produced but did not commit
    /// (`"commit":false`). A further `repair` is rejected until the
    /// client commits it (`eco`) or abandons it (`rollback`), both of
    /// which clear it — repairing on top of an unapplied fix would
    /// search the wrong design.
    staged: Option<Vec<Edit>>,
}

fn handle_connection(stream: TcpStream, shared: &Arc<Shared>) {
    let mut reader = match stream.try_clone() {
        Ok(r) => r,
        Err(_) => return,
    };
    let mut writer = stream;
    let mut state = ConnState::default();
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(frame)) => frame,
            // Clean EOF: the client said goodbye.
            Ok(None) => break,
            // Framing violation (oversized, truncated, non-UTF-8):
            // best-effort error reply, then teardown — the stream
            // position is unrecoverable.
            Err(e) => {
                let _ = write_frame(&mut writer, &error_reply(0, &format!("bad frame: {e}")));
                break;
            }
        };
        shared.tracer.add("serve.requests", 1);
        let reply = handle_request(shared, &mut state, &frame);
        let stop_after = matches!(&reply, Reply::Shutdown(_));
        let text = match reply {
            Reply::Text(t) | Reply::Shutdown(t) => t,
        };
        if write_frame(&mut writer, &text).is_err() {
            break;
        }
        if stop_after {
            let _ = writer.flush();
            shared.stop();
            break;
        }
    }
}

enum Reply {
    Text(String),
    /// Reply, then initiate drain and close this connection.
    Shutdown(String),
}

fn handle_request(shared: &Shared, state: &mut ConnState, frame: &str) -> Reply {
    let value = match serde_json::from_str(frame) {
        Ok(v) => v,
        Err(e) => return Reply::Text(error_reply(0, &format!("bad json: {e}"))),
    };
    let id = value.get("id").and_then(Value::as_u64).unwrap_or(0);
    let Some(req) = value.get("req").and_then(Value::as_str) else {
        return Reply::Text(error_reply(id, "missing \"req\" field"));
    };
    if shared.shutting_down.load(Ordering::SeqCst) && req != "stats" {
        return Reply::Text(error_reply(id, "daemon is draining"));
    }
    let span = shared.tracer.span_in(None, &format!("req:{req}"));
    let span_id = span.id();
    match req {
        "hello" => Reply::Text(hello(&value, id)),
        "open" => {
            state.staged = None;
            Reply::Text(open_session(shared, &mut state.session, &value, id, false))
        }
        "upload" => {
            state.staged = None;
            Reply::Text(open_session(shared, &mut state.session, &value, id, true))
        }
        "eco" => {
            state.staged = None;
            Reply::Text(eco(shared, &mut state.session, &value, id, span_id))
        }
        "signoff" => Reply::Text(signoff(shared, &mut state.session, &value, id, span_id)),
        "repair" => Reply::Text(repair_request(shared, state, &value, id)),
        "rollback" => {
            state.staged = None;
            Reply::Text(rollback(&mut state.session, &value, id))
        }
        "save" => Reply::Text(save(shared, &mut state.session, &value, id)),
        "restore" => {
            state.staged = None;
            Reply::Text(restore(shared, &mut state.session, &value, id))
        }
        "load" => Reply::Text(load(shared, state, &value, id)),
        "batch" => Reply::Text(batch(shared, state, &value, id)),
        "stats" => Reply::Text(stats(shared, id)),
        "shutdown" => Reply::Shutdown(format!("{{\"ok\":true,\"id\":{id},\"draining\":true}}")),
        other => Reply::Text(error_reply(id, &format!("unknown request {other:?}"))),
    }
}

/// Application-level handshake: the frame layer already rejects a
/// mismatched version byte, but `hello` lets a coordinator confirm the
/// daemon's vocabulary before shipping work, and gets both versions
/// named in the error when fleets diverge.
fn hello(value: &Value, id: u64) -> String {
    match value.get("proto").and_then(Value::as_u64) {
        Some(p) if p == u64::from(PROTO_VERSION) => {
            format!("{{\"ok\":true,\"id\":{id},\"proto\":{PROTO_VERSION}}}")
        }
        Some(p) => error_reply(
            id,
            &format!(
                "protocol version mismatch: peer speaks cbv/{p}, \
                 this build speaks cbv/{PROTO_VERSION}"
            ),
        ),
        None => error_reply(id, "missing \"proto\" field"),
    }
}

/// Worker-mode `load`: rebuild a design revision bit-identically from
/// its name (or SPICE deck) plus the raw ECO steps the coordinator
/// replayed, then prepare it for unit-sharded verification. The reply
/// carries the environment and per-unit fingerprints so the
/// coordinator can verify both sides agree on *what* is being checked
/// before any batch is dispatched.
fn load(shared: &Shared, state: &mut ConnState, value: &Value, id: u64) -> String {
    let Some(design) = value.get("design").and_then(Value::as_str) else {
        return error_reply(id, "missing \"design\" field");
    };
    let opened = match (
        value.get("spice").and_then(Value::as_str),
        value.get("top").and_then(Value::as_str),
    ) {
        (Some(spice), Some(top)) => Session::from_spice(design, spice, top),
        _ => Session::open(design, shared.service.process()),
    };
    let mut session = match opened {
        Ok(s) => s,
        Err(e) => return error_reply(id, &e),
    };
    // Same gate as `upload`: a coordinator shipping a SPICE deck is
    // shipping untrusted input; validate before replaying steps.
    if matches!(session.seed(), SessionSeed::Spice { .. }) {
        if let Err(e) = ensure_valid(session.netlist()) {
            return error_reply(id, &format!("invalid design: {e}"));
        }
    }
    if let Some(steps) = value.get("steps") {
        let Some(steps) = steps.as_array() else {
            return error_reply(id, "\"steps\" must be an array of edit batches");
        };
        for (k, step) in steps.iter().enumerate() {
            let edits = match edits_from_json(step) {
                Ok(e) => e,
                Err(e) => return error_reply(id, &format!("step {k}: {e}")),
            };
            if let Err(e) = session.apply_batch(&edits) {
                return error_reply(id, &format!("step {k}: {e}"));
            }
        }
    }
    let netlist = session.netlist().clone();
    let service = &shared.service;
    let prepared = match run_isolated(0, move || {
        PreparedDesign::build(netlist, service.process(), service.flow_config())
    }) {
        Ok(p) => Arc::new(p),
        Err(p) => return error_reply(id, &format!("design preparation panicked: {}", p.message)),
    };
    shared.tracer.add("serve.loads", 1);
    let mut fps = String::new();
    for (k, f) in prepared.unit_fingerprints().iter().enumerate() {
        if k > 0 {
            fps.push(',');
        }
        fps.push_str(&format!("[{},{}]", f.content, f.binding));
    }
    let reply = format!(
        "{{\"ok\":true,\"id\":{id},\"design\":{},\"revision\":{},\
         \"units\":{},\"cccs\":{},\"env\":{},\"fps\":[{fps}]}}",
        json_escaped(session.design()),
        session.revision(),
        prepared.n_units(),
        prepared.n_cccs(),
        prepared.env(),
    );
    state.prepared = Some(prepared);
    reply
}

/// Worker-mode `batch`: verify a shard of units of the loaded design.
/// The reply ships each unit's raw cache entry (the `cbv-cache` wire
/// form) so the coordinator can absorb results straight into its
/// shared tier — the same bytes a local `verify_unit` would have
/// produced, which is what keeps farm signoffs byte-identical.
fn batch(shared: &Shared, state: &mut ConnState, value: &Value, id: u64) -> String {
    let Some(prepared) = state.prepared.as_ref() else {
        return error_reply(id, "no design loaded: send \"load\" first");
    };
    let Some(units_value) = value.get("units").and_then(Value::as_array) else {
        return error_reply(id, "missing \"units\" field");
    };
    let mut units = Vec::with_capacity(units_value.len());
    for u in units_value {
        let Some(i) = u.as_u64() else {
            return error_reply(id, "\"units\" must be an array of unit indices");
        };
        let i = i as usize;
        if i >= prepared.n_units() {
            return error_reply(
                id,
                &format!("unit {i} out of range ({} units)", prepared.n_units()),
            );
        }
        units.push(i);
    }
    let (tx, rx) = mpsc::channel();
    let job = Job::Batch {
        prepared: Arc::clone(prepared),
        units,
        deadline: request_deadline(value),
        reply: tx,
    };
    match shared.queue.try_push(job) {
        Ok(()) => {}
        Err(PushError::Full) => {
            shared.tracer.add("serve.reject.queue_full", 1);
            return busy_reply(id);
        }
        Err(PushError::Closed) => return error_reply(id, "daemon is draining"),
    }
    match rx.recv() {
        Ok(Ok(outcomes)) => batch_reply(id, prepared, &outcomes),
        Ok(Err(message)) => error_reply(id, &message),
        Err(_) => error_reply(id, "daemon is draining"),
    }
}

fn batch_reply(id: u64, prepared: &PreparedDesign, outcomes: &[UnitOutcome]) -> String {
    let mut out = format!("{{\"ok\":true,\"id\":{id},\"results\":[");
    for (k, o) in outcomes.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"unit\":{},\"poisoned\":{},\"entry\":",
            o.unit, o.poisoned
        ));
        write_unit_entry(&prepared.unit_key(o.unit), &o.result, &mut out);
        out.push('}');
    }
    out.push_str("]}");
    out
}

fn open_session(
    shared: &Shared,
    session: &mut Option<Session>,
    value: &Value,
    id: u64,
    upload: bool,
) -> String {
    let Some(design) = value.get("design").and_then(Value::as_str) else {
        return error_reply(id, "missing \"design\" field");
    };
    let opened = if upload {
        let (Some(spice), Some(top)) = (
            value.get("spice").and_then(Value::as_str),
            value.get("top").and_then(Value::as_str),
        ) else {
            return error_reply(id, "upload needs \"spice\" and \"top\" fields");
        };
        Session::from_spice(design, spice, top)
    } else {
        Session::open(design, shared.service.process())
    };
    match opened {
        Ok(s) => {
            // Uploaded decks are untrusted input: run the interchange-IR
            // validation pass before the design can reach the flow.
            // Registry seeds are trusted generator output and skip it.
            if upload {
                if let Err(e) = ensure_valid(s.netlist()) {
                    return error_reply(id, &format!("invalid design: {e}"));
                }
            }
            shared.tracer.add("serve.sessions", 1);
            let reply = format!(
                "{{\"ok\":true,\"id\":{id},\"design\":{},\"revision\":{},\
                 \"devices\":{},\"nets\":{}}}",
                json_escaped(s.design()),
                s.revision(),
                s.netlist().devices().len(),
                s.netlist().net_count(),
            );
            *session = Some(s);
            reply
        }
        Err(e) => error_reply(id, &e),
    }
}

fn request_deadline(value: &Value) -> Option<Instant> {
    value
        .get("deadline_ms")
        .and_then(Value::as_u64)
        .map(|ms| Instant::now() + Duration::from_millis(ms))
}

fn eco(
    shared: &Shared,
    session: &mut Option<Session>,
    value: &Value,
    id: u64,
    span: Option<u64>,
) -> String {
    let Some(session) = session.as_mut() else {
        return error_reply(id, "no session: send \"open\" first");
    };
    let Some(edits_value) = value.get("edits") else {
        return error_reply(id, "missing \"edits\" field");
    };
    let edits = match edits_from_json(edits_value) {
        Ok(e) => e,
        Err(e) => return error_reply(id, &e),
    };
    let before = session.revision();
    let revision = match session.apply_batch(&edits) {
        Ok(r) => r,
        Err(e) => return error_reply(id, &e),
    };
    shared.tracer.add("serve.eco", 1);
    match submit_and_wait(shared, session, request_deadline(value), span) {
        Submit::Done(v) => verdict_reply(id, revision, &v),
        Submit::Busy => {
            // Undo the batch so a client retry replays the identical
            // edit stream against the identical revision.
            let _ = session.rollback_to(before);
            busy_reply(id)
        }
        Submit::Draining => {
            let _ = session.rollback_to(before);
            error_reply(id, "daemon is draining")
        }
        Submit::Failed(e) => error_reply(id, &e),
    }
}

fn signoff(
    shared: &Shared,
    session: &mut Option<Session>,
    value: &Value,
    id: u64,
    span: Option<u64>,
) -> String {
    let Some(session) = session.as_ref() else {
        return error_reply(id, "no session: send \"open\" first");
    };
    match submit_and_wait(shared, session, request_deadline(value), span) {
        Submit::Done(v) => verdict_reply(id, session.revision(), &v),
        Submit::Busy => busy_reply(id),
        Submit::Draining => error_reply(id, "daemon is draining"),
        Submit::Failed(e) => error_reply(id, &e),
    }
}

/// The auto-repair request: search for a verified ECO batch that takes
/// the session's current netlist to a clean signoff, reply with the
/// [`cbv_repair::RepairPlan`] JSON spliced verbatim (so the wire bytes
/// equal an in-process `repair` on the same netlist), and — unless
/// `"commit":false` — apply the plan to the session as one accepted
/// batch. An uncommitted plan is staged on the connection; a further
/// `repair` is rejected gracefully until the client commits (`eco`) or
/// abandons (`rollback`) it.
///
/// The search runs on the handler thread with a private verification
/// cache: a repair is a long sequence of strictly ordered oracle calls,
/// which would serialize through the worker queue anyway, and a private
/// cache keeps its probe traffic out of the shared tier's eviction
/// order.
fn repair_request(shared: &Shared, state: &mut ConnState, value: &Value, id: u64) -> String {
    let Some(session) = state.session.as_mut() else {
        return error_reply(id, "no session: send \"open\" first");
    };
    if state.staged.is_some() {
        return error_reply(
            id,
            "session has an uncommitted ECO batch from a previous repair: \
             commit it with \"eco\" or abandon it with \"rollback\" first",
        );
    }
    let commit = value.get("commit").and_then(Value::as_bool).unwrap_or(true);
    let cfg = cbv_repair::RepairConfig {
        max_steps: value.get("max_steps").and_then(Value::as_u64).unwrap_or(0) as usize,
        max_oracle_calls: value
            .get("max_oracle_calls")
            .and_then(Value::as_u64)
            .unwrap_or(0) as usize,
        ..cbv_repair::RepairConfig::default()
    };
    shared.tracer.add("repair.requests", 1);
    let netlist = session.netlist().clone();
    let process = shared.service.process().clone();
    let flow = shared.service.flow_config().clone();
    // An edited session restores toward its own revision-0 signoff:
    // replay the seed with no history to rebuild the known-good
    // netlist, and hand its bytes to the search as the exact target.
    // A pristine session (revision 0) just repairs to a clean signoff.
    let clean = if session.revision() > 0 {
        match Session::replay(session.design(), session.seed(), &[], &process) {
            Ok(s) => Some(s.netlist().clone()),
            Err(e) => return error_reply(id, &format!("cannot rebuild the session seed: {e}")),
        }
    } else {
        None
    };
    let plan = match run_isolated(0, move || {
        let mut cache = cbv_core::cache::VerifyCache::new();
        let mut cfg = cfg;
        if let Some(clean) = clean {
            let (obs, signoff) = cbv_repair::restore_target(&clean, &process, &flow, &mut cache);
            cfg.baseline = Some(obs);
            cfg.target_signoff = Some(signoff);
        }
        cbv_repair::repair_warm(&netlist, &process, &flow, &cfg, &mut cache)
    }) {
        Ok(p) => p,
        Err(p) => return error_reply(id, &format!("repair search panicked: {}", p.message)),
    };
    shared.tracer.add("repair.attempts", plan.attempts as u64);
    shared.tracer.add(
        "repair.rejected_regression",
        plan.rejected_regression as u64,
    );
    shared
        .tracer
        .add("repair.oracle_calls", plan.oracle_calls as u64);
    let mut revision = session.revision();
    if plan.repaired && !plan.steps.is_empty() {
        shared.tracer.add("repair.accepted", 1);
        let edits: Vec<Edit> = plan.steps.iter().map(|s| s.edit.clone()).collect();
        if commit {
            revision = match session.apply_batch(&edits) {
                Ok(r) => r,
                Err(e) => return error_reply(id, &format!("repair batch rejected: {e}")),
            };
        } else {
            state.staged = Some(edits);
        }
    } else if plan.repaired {
        shared.tracer.add("repair.accepted", 1);
    }
    format!(
        "{{\"ok\":true,\"id\":{id},\"revision\":{revision},\
         \"committed\":{committed},\"plan\":{plan}}}",
        committed = commit && plan.repaired && !plan.steps.is_empty(),
        plan = plan.to_json(),
    )
}

/// Snapshots the connection's session under a name: seed + accepted
/// edit history, not the netlist — replay is deterministic, so
/// `restore` rebuilds the same bytes. With a `--state` file configured
/// the full daemon state (every saved session plus the shared cache
/// tier) is rewritten atomically, so the snapshot survives a restart.
fn save(shared: &Shared, session: &mut Option<Session>, value: &Value, id: u64) -> String {
    let Some(session) = session.as_ref() else {
        return error_reply(id, "no session: send \"open\" first");
    };
    let name = match value.get("name").and_then(Value::as_str) {
        Some(n) if !n.is_empty() => n.to_owned(),
        Some(_) => return error_reply(id, "\"name\" must be non-empty"),
        None => session.design().to_owned(),
    };
    let snapshot = SavedSession {
        design: session.design().to_owned(),
        seed: session.seed().clone(),
        steps: session.history().map(<[Edit]>::to_vec).collect(),
    };
    let sessions = {
        let mut saved = shared.saved.lock().expect("saved lock");
        saved.insert(name.clone(), snapshot);
        saved.clone()
    };
    if let Some(path) = &shared.state_path {
        let json = state_to_json(&sessions, &shared.service.cache_to_json());
        if let Err(e) = write_state_atomic(path, &json) {
            return error_reply(id, &format!("state write {path}: {e}"));
        }
    }
    shared.tracer.add("serve.saves", 1);
    format!(
        "{{\"ok\":true,\"id\":{id},\"name\":{},\"revision\":{},\"sessions\":{}}}",
        json_escaped(&name),
        session.revision(),
        sessions.len(),
    )
}

/// Rebuilds a saved snapshot as this connection's session: seed, then
/// every accepted batch in order. SPICE seeds pass the same validation
/// gate as a fresh `upload`.
fn restore(shared: &Shared, session: &mut Option<Session>, value: &Value, id: u64) -> String {
    let Some(name) = value.get("name").and_then(Value::as_str) else {
        return error_reply(id, "missing \"name\" field");
    };
    let snapshot = match shared.saved.lock().expect("saved lock").get(name) {
        Some(s) => s.clone(),
        None => return error_reply(id, &format!("no saved session named {name:?}")),
    };
    let rebuilt = match Session::replay(
        &snapshot.design,
        &snapshot.seed,
        &snapshot.steps,
        shared.service.process(),
    ) {
        Ok(s) => s,
        Err(e) => return error_reply(id, &format!("restore {name:?}: {e}")),
    };
    if matches!(snapshot.seed, SessionSeed::Spice { .. }) {
        if let Err(e) = ensure_valid(rebuilt.netlist()) {
            return error_reply(id, &format!("invalid design: {e}"));
        }
    }
    shared.tracer.add("serve.restores", 1);
    let reply = format!(
        "{{\"ok\":true,\"id\":{id},\"design\":{},\"revision\":{},\
         \"devices\":{},\"nets\":{}}}",
        json_escaped(rebuilt.design()),
        rebuilt.revision(),
        rebuilt.netlist().devices().len(),
        rebuilt.netlist().net_count(),
    );
    *session = Some(rebuilt);
    reply
}

fn rollback(session: &mut Option<Session>, value: &Value, id: u64) -> String {
    let Some(session) = session.as_mut() else {
        return error_reply(id, "no session: send \"open\" first");
    };
    let Some(revision) = value.get("revision").and_then(Value::as_u64) else {
        return error_reply(id, "missing \"revision\" field");
    };
    match session.rollback_to(revision) {
        Ok(r) => format!("{{\"ok\":true,\"id\":{id},\"revision\":{r}}}"),
        Err(e) => error_reply(id, &e),
    }
}

fn stats(shared: &Shared, id: u64) -> String {
    let t = &shared.tracer;
    // `cache_staged` is a literal: nothing is staged any more, but the
    // frozen benchmark's `settled_entries` panics on a reply without the
    // field. Dropping it is for the next `[benchmark]` issue (ROADMAP
    // item 2).
    format!(
        "{{\"ok\":true,\"id\":{id},\"stats\":{{\
         \"sessions\":{sessions},\"requests\":{requests},\"eco\":{eco},\"jobs\":{jobs},\
         \"loads\":{loads},\"batches\":{batches},\"batch_units\":{batch_units},\
         \"rejected_queue_full\":{full},\"rejected_deadline\":{deadline},\
         \"job_panics\":{panics},\
         \"queue_capacity\":{qcap},\"queue_depth\":{qdepth},\"workers\":{workers},\
         \"cache_entries\":{entries},\"cache_staged\":0,\
         \"cache_evictions\":{evictions},\
         \"cache_fetches\":{fetches},\"cache_fetched_entries\":{fetched},\
         \"repair\":{{\"requests\":{rreq},\"attempts\":{rattempts},\
         \"accepted\":{raccepted},\"rejected_regression\":{rregression},\
         \"oracle_calls\":{roracle}}}}}}}",
        sessions = t.counter_value("serve.sessions"),
        requests = t.counter_value("serve.requests"),
        eco = t.counter_value("serve.eco"),
        jobs = t.counter_value("serve.jobs"),
        loads = t.counter_value("serve.loads"),
        batches = t.counter_value("serve.batches"),
        batch_units = t.counter_value("serve.batch_units"),
        full = t.counter_value("serve.reject.queue_full"),
        deadline = t.counter_value("serve.reject.deadline"),
        panics = t.counter_value("serve.job_panics"),
        qcap = shared.queue.capacity(),
        qdepth = shared.queue.depth(),
        workers = shared.workers,
        entries = shared.service.cache_len(),
        evictions = shared.service.cache_evictions(),
        fetches = t.counter_value("cache.fetch.batches"),
        fetched = t.counter_value("cache.fetch.entries"),
        rreq = t.counter_value("repair.requests"),
        rattempts = t.counter_value("repair.attempts"),
        raccepted = t.counter_value("repair.accepted"),
        rregression = t.counter_value("repair.rejected_regression"),
        roracle = t.counter_value("repair.oracle_calls"),
    )
}
