//! The verification farm coordinator: scatter-gather over workers.
//!
//! The paper's §1 backdrop is a ~100-CPU simulation farm (2×10⁹
//! cycles/day); this module is the signoff-side equivalent. A [`Farm`]
//! shards one revision's dirty verification units across `cbv-served`
//! worker processes and merges the results through the same cached
//! flow driver ([`cbv_core::scatter`], as its unit backend) the
//! in-process path uses — so a farm signoff is **byte-identical** to
//! `cbv replay` on the same design and edit stream, at any worker
//! count, with any interleaving of crashes, steals and retries.
//!
//! # How a verify runs
//!
//! 1. The coordinator replays the design + raw ECO steps through a
//!    local [`Session`] (bit-identical netlist reconstruction), then
//!    hands the netlist to
//!    [`FlowService::verify_with_backend`] — the service's fetch/
//!    absorb cache discipline *is* the *shared content-addressed
//!    cache tier*: every worker's unit results land there keyed by
//!    `(env, content, binding)` fingerprint, and the next revision's
//!    unit keys are looked up in it, so unchanged units are
//!    never dispatched at all — nor are units a racing stream already
//!    has in flight: the driver's cache seam claims, publishes and
//!    awaits (single-flight), and this backend is pure dispatch.
//! 2. Inside the flow's everify stage, the backend chunks the units it
//!    is handed into batches and runs one thread per worker. Each thread
//!    performs the `hello` version handshake and a `load` (the worker
//!    replays the same design + steps and must report the **same**
//!    environment and unit fingerprints — a mismatch means the builds
//!    diverged and the worker is refused), then pulls batches off a
//!    shared dispatch queue.
//! 3. **Backpressure**: a worker whose queue is full replies
//!    `retry_after_ms`; the thread sleeps using *decorrelated jitter*
//!    ([`Backoff`]) seeded per worker, so a fleet of coordinators never
//!    retries in lockstep against the same worker.
//! 4. **Stealing**: a thread with nothing pending re-dispatches a
//!    batch another worker has held longer than `steal_after_ms`.
//!    Results merge **first-wins** per unit (both computations are
//!    deterministic, so the duplicate is byte-equal; the counter just
//!    records the waste).
//! 5. **Crashes**: a worker that dies mid-batch (transport error, read
//!    timeout, half-close, corrupt or mis-addressed reply) is marked
//!    dead, its unanswered units are requeued for the surviving
//!    workers, and whatever no worker ever answers is verified
//!    locally — the flow never signs off with a hole.
//!
//! The merge order is fixed by the flow, not by arrival: outcomes are
//! re-indexed by unit and spliced in CCC order, which is the
//! determinism argument (see `cbv_core::scatter` module docs).

use std::collections::{HashMap, VecDeque};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use cbv_core::cache::read_unit_entry;
use cbv_core::exec::{fan_out, Executor};
use cbv_core::flow::FlowReport;
use cbv_core::obs::TraceCtx;
use cbv_core::scatter::{LocalBackend, PreparedDesign, UnitBackend, UnitOutcome};
use cbv_core::service::{FlowService, ServiceVerdict};
use serde_json::Value;

use crate::client::ClientError;
use crate::edits_from_json;
use crate::protocol::{exchange, json_escaped, PROTO_VERSION};
use crate::session::Session;

/// Farm coordinator configuration.
#[derive(Debug, Clone)]
pub struct FarmConfig {
    /// Worker daemon addresses (`host:port`). Empty is legal: every
    /// unit verifies locally and the farm degenerates to the
    /// in-process flow.
    pub workers: Vec<String>,
    /// Units per dispatched batch (min 1). Smaller batches spread
    /// better and steal cheaper; larger batches amortize the wire.
    pub batch_units: usize,
    /// Per-reply read timeout, ms. A worker that stalls longer is
    /// treated as dead and its batch requeued.
    pub reply_timeout_ms: u64,
    /// Age after which another thread may re-dispatch an inflight
    /// batch, ms.
    pub steal_after_ms: u64,
}

/// Queue-full retries sleep a decorrelated jitter from a floor (ms;
/// raised by the worker's `retry_after_ms` hint) to a cap, at most
/// `BUSY_RETRY_LIMIT` times per batch; then the worker is declared dead
/// and its units go to the survivors or the local fallback.
const RETRY_BASE_MS: u64 = 5;
const RETRY_CAP_MS: u64 = 250;
const BUSY_RETRY_LIMIT: u32 = 32;

/// Seed of the per-worker backoff jitter; worker `w` draws from its own
/// offset of it.
const BACKOFF_SEED: u64 = 0xcbf_a2e5;

impl Default for FarmConfig {
    fn default() -> FarmConfig {
        FarmConfig {
            workers: Vec::new(),
            batch_units: 8,
            reply_timeout_ms: 10_000,
            steal_after_ms: 400,
        }
    }
}

/// Farm-level tallies, cumulative over a [`Farm`]'s lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FarmStats {
    /// Batches dispatched to workers (first dispatch, not steals).
    pub dispatched_batches: u64,
    /// Batches re-dispatched from a straggler.
    pub stolen_batches: u64,
    /// Unit results discarded by first-wins dedup (steal overlap).
    pub duplicate_units: u64,
    /// Queue-full retries slept through.
    pub busy_retries: u64,
    /// Workers declared dead (unreachable, stalled, crashed, corrupt
    /// or divergent replies). A worker can die once per verify and be
    /// redeemed by the next — this counts events, not hosts.
    pub dead_workers: u64,
    /// Replies rejected because their content address did not match
    /// the unit requested.
    pub corrupt_replies: u64,
    /// Unit results obtained from workers.
    pub remote_units: u64,
    /// Unit results computed by the coordinator's local fallback.
    pub local_units: u64,
    /// Unit results resolved by waiting on another stream's in-flight
    /// computation instead of dispatching (single-flight coalescing).
    pub coalesced_units: u64,
    /// Successful worker `load`s (design replays).
    pub loads: u64,
}

#[derive(Default)]
struct Counters {
    dispatched_batches: AtomicU64,
    stolen_batches: AtomicU64,
    duplicate_units: AtomicU64,
    busy_retries: AtomicU64,
    dead_workers: AtomicU64,
    corrupt_replies: AtomicU64,
    remote_units: AtomicU64,
    local_units: AtomicU64,
    coalesced_units: AtomicU64,
    loads: AtomicU64,
}

impl Counters {
    fn add(field: &AtomicU64, n: u64) {
        field.fetch_add(n, Ordering::Relaxed);
    }

    fn snapshot(&self) -> FarmStats {
        FarmStats {
            dispatched_batches: self.dispatched_batches.load(Ordering::Relaxed),
            stolen_batches: self.stolen_batches.load(Ordering::Relaxed),
            duplicate_units: self.duplicate_units.load(Ordering::Relaxed),
            busy_retries: self.busy_retries.load(Ordering::Relaxed),
            dead_workers: self.dead_workers.load(Ordering::Relaxed),
            corrupt_replies: self.corrupt_replies.load(Ordering::Relaxed),
            remote_units: self.remote_units.load(Ordering::Relaxed),
            local_units: self.local_units.load(Ordering::Relaxed),
            coalesced_units: self.coalesced_units.load(Ordering::Relaxed),
            loads: self.loads.load(Ordering::Relaxed),
        }
    }
}

/// Decorrelated-jitter backoff (floor ≤ delay ≤ cap, next delay drawn
/// uniformly from `[floor, min(prev·3, cap)]`): consecutive delays are
/// randomized *and* growth-bounded, and two instances with different
/// seeds produce different sequences — a fleet of clients rejected by
/// the same busy worker spreads out instead of thundering back in
/// lockstep on the worker's shared `retry_after_ms` hint.
#[derive(Debug, Clone)]
pub struct Backoff {
    base_ms: u64,
    cap_ms: u64,
    prev_ms: u64,
    state: u64,
}

impl Backoff {
    /// A backoff sleeping between `base_ms` and `cap_ms` per retry.
    pub fn new(base_ms: u64, cap_ms: u64, seed: u64) -> Backoff {
        let base_ms = base_ms.max(1);
        Backoff {
            base_ms,
            cap_ms: cap_ms.max(base_ms),
            prev_ms: base_ms,
            // xorshift state must be non-zero.
            state: seed | 1,
        }
    }

    fn next_u64(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// The next delay, honouring the server's `retry_after_ms` hint as
    /// a floor: always within `[max(base, min(hint, cap)), cap]`, and
    /// never more than triple the previous delay.
    ///
    /// The hint may *not* exceed the cap: a worker's hint comes off the
    /// wire, and letting an oversized (hostile or corrupt) value raise
    /// the sleep past the configured ceiling would stall the dispatch
    /// thread for as long as the worker likes. Saturating `max`/`min`
    /// instead of `clamp` keeps that policy panic-free even if the
    /// floor/cap invariant is ever loosened — `u64::clamp` panics when
    /// `min > max`, which here is a thread death mid-farm.
    pub fn next_after(&mut self, hint_ms: u64) -> u64 {
        let floor = self.base_ms.max(hint_ms).min(self.cap_ms);
        let ceil = self
            .prev_ms
            .saturating_mul(3)
            .max(floor)
            .min(self.cap_ms.max(floor));
        let delay = floor + self.next_u64() % (ceil - floor + 1);
        self.prev_ms = delay;
        delay
    }
}

/// One worker's connection: lockstep request/reply plus which design
/// generation it has loaded.
struct WorkerConn {
    stream: TcpStream,
    next_id: u64,
    loaded_gen: u64,
}

/// Wire outcomes a dispatch loop distinguishes: a backpressure hint to
/// sleep on, or a fatal condition that kills the worker for this
/// verify.
enum WireError {
    Busy(u64),
    Fatal(String),
}

impl WorkerConn {
    fn request(&mut self, body: &str) -> Result<Value, WireError> {
        let id = self.next_id;
        self.next_id += 1;
        match exchange(&mut self.stream, id, body) {
            Ok((_, v)) => Ok(v),
            Err(ClientError::Rejected {
                retry_after_ms: Some(ms),
                ..
            }) => Err(WireError::Busy(ms)),
            Err(e) => Err(WireError::Fatal(e.to_string())),
        }
    }
}

struct WorkerSlot {
    addr: String,
    conn: Mutex<Option<WorkerConn>>,
}

/// The coordinator. Holds the shared cache tier (a [`FlowService`],
/// injectable so many coordinators — or a coordinator and a daemon —
/// can share one), one connection slot per worker, and cumulative
/// [`FarmStats`].
pub struct Farm {
    config: FarmConfig,
    service: Arc<FlowService>,
    slots: Vec<WorkerSlot>,
    counters: Counters,
    generation: AtomicU64,
    /// Reasons workers were declared dead, for diagnostics; drained by
    /// [`Farm::take_errors`].
    errors: Mutex<Vec<String>>,
}

impl Farm {
    /// A coordinator over `service`'s shared cache tier.
    pub fn new(service: Arc<FlowService>, config: FarmConfig) -> Farm {
        let slots = config
            .workers
            .iter()
            .map(|addr| WorkerSlot {
                addr: addr.clone(),
                conn: Mutex::new(None),
            })
            .collect();
        Farm {
            config,
            service,
            slots,
            counters: Counters::default(),
            generation: AtomicU64::new(0),
            errors: Mutex::new(Vec::new()),
        }
    }

    /// Cumulative farm tallies.
    pub fn stats(&self) -> FarmStats {
        self.counters.snapshot()
    }

    /// Drains the accumulated worker-death reasons (newest last). The
    /// farm degrades gracefully, so these are diagnostics, not errors —
    /// `dead_workers` in [`FarmStats`] counts them.
    pub fn take_errors(&self) -> Vec<String> {
        std::mem::take(&mut *self.errors.lock().expect("farm errors lock"))
    }

    fn note_error(&self, reason: String) {
        self.errors.lock().expect("farm errors lock").push(reason);
    }

    /// Verifies `design` after replaying `steps` (each one raw ECO
    /// batch JSON — an edit object or array, the `cbv eco` vocabulary),
    /// sharding dirty units across the configured workers. The signoff
    /// in the verdict is byte-identical to the in-process flow on the
    /// same inputs.
    ///
    /// A **protocol version mismatch** with any worker is a hard error
    /// — silently computing locally would mask a mixed fleet. Every
    /// other worker failure (unreachable, crash, stall, corruption,
    /// build divergence) degrades gracefully: survivors and the local
    /// fallback pick up the units.
    pub fn verify(
        &self,
        design: &str,
        steps: &[String],
    ) -> Result<(FlowReport, ServiceVerdict), String> {
        let mut session = Session::open(design, self.service.process())?;
        for (k, step) in steps.iter().enumerate() {
            let value: Value =
                serde_json::from_str(step).map_err(|e| format!("step {k}: bad json: {e}"))?;
            let edits = edits_from_json(&value).map_err(|e| format!("step {k}: {e}"))?;
            session
                .apply_batch(&edits)
                .map_err(|e| format!("step {k}: {e}"))?;
        }
        let netlist = session.netlist().clone();
        let gen = self.generation.fetch_add(1, Ordering::Relaxed) + 1;

        // Eager handshake: version mismatches abort before any work;
        // unreachable workers are skipped for this verify.
        let mut live = Vec::new();
        for (w, slot) in self.slots.iter().enumerate() {
            match self.handshake(slot) {
                Ok(()) => live.push(w),
                Err(HandshakeError::VersionMismatch(m)) => return Err(m),
                Err(HandshakeError::Unreachable(m)) => {
                    Counters::add(&self.counters.dead_workers, 1);
                    self.note_error(m);
                }
            }
        }

        let backend = FarmBackend {
            farm: self,
            design,
            steps,
            gen,
            live,
        };
        let out = self
            .service
            .verify_with_backend(netlist, None, None, &backend);
        Counters::add(&self.counters.coalesced_units, out.1.cache.coalesced as u64);
        Ok(out)
    }

    /// Connects (if needed) and performs the `hello` version handshake.
    fn handshake(&self, slot: &WorkerSlot) -> Result<(), HandshakeError> {
        let mut guard = slot.conn.lock().expect("worker conn lock");
        if guard.is_none() {
            let stream = TcpStream::connect(&slot.addr)
                .map_err(|e| HandshakeError::Unreachable(format!("{}: {e}", slot.addr)))?;
            let _ = stream.set_read_timeout(Some(Duration::from_millis(
                self.config.reply_timeout_ms.max(1),
            )));
            let _ = stream.set_nodelay(true);
            *guard = Some(WorkerConn {
                stream,
                next_id: 1,
                loaded_gen: 0,
            });
        }
        let conn = guard.as_mut().expect("connection just ensured");
        match conn.request(&format!("{{\"req\":\"hello\",\"proto\":{PROTO_VERSION}}}")) {
            Ok(_) => Ok(()),
            Err(WireError::Fatal(m)) if m.contains("protocol version mismatch") => {
                *guard = None;
                Err(HandshakeError::VersionMismatch(format!(
                    "worker {}: {m}",
                    slot.addr
                )))
            }
            Err(e) => {
                *guard = None;
                let m = match e {
                    WireError::Fatal(m) => m,
                    WireError::Busy(ms) => format!("hello rejected as busy ({ms} ms)"),
                };
                Err(HandshakeError::Unreachable(format!("{}: {m}", slot.addr)))
            }
        }
    }
}

enum HandshakeError {
    /// Mixed fleet: hard error, never silently degraded.
    VersionMismatch(String),
    /// This worker sits out the current verify.
    Unreachable(String),
}

/// A dispatched batch a worker currently holds.
struct Inflight {
    id: u64,
    units: Vec<usize>,
    since: Instant,
    stolen: bool,
}

struct Dispatch {
    pending: VecDeque<Vec<usize>>,
    inflight: Vec<Inflight>,
    done: HashMap<usize, UnitOutcome>,
    next_batch: u64,
}

struct DispatchState {
    state: Mutex<Dispatch>,
    cvar: Condvar,
    target: usize,
}

/// The remote [`UnitBackend`]: one verify's view of the farm.
struct FarmBackend<'a> {
    farm: &'a Farm,
    design: &'a str,
    steps: &'a [String],
    gen: u64,
    live: Vec<usize>,
}

impl UnitBackend for FarmBackend<'_> {
    fn verify_units(
        &self,
        prep: &PreparedDesign,
        exec: &Executor,
        ctx: TraceCtx<'_>,
        units: &[usize],
        deadline: Option<Instant>,
    ) -> (Vec<UnitOutcome>, Duration) {
        let start = Instant::now();
        // Deadlines are cooperative and local; shipping one over the
        // wire would race the clock against transport latency. A
        // deadline run computes locally, preserving the exact
        // `ToolError` census the incremental flow produces. (A warm run
        // has nothing to start worker threads for.)
        if self.live.is_empty() || deadline.is_some() || units.is_empty() {
            Counters::add(&self.farm.counters.local_units, units.len() as u64);
            return LocalBackend.verify_units(prep, exec, ctx, units, deadline);
        }

        let chunk = self.farm.config.batch_units.max(1);
        let dispatch = DispatchState {
            state: Mutex::new(Dispatch {
                pending: units.chunks(chunk).map(<[usize]>::to_vec).collect(),
                inflight: Vec::new(),
                done: HashMap::new(),
                next_batch: 0,
            }),
            cvar: Condvar::new(),
            target: units.len(),
        };

        let tasks: Vec<Box<dyn FnOnce() + Send + '_>> = self
            .live
            .iter()
            .map(|&w| {
                let dispatch = &dispatch;
                Box::new(move || self.run_worker(prep, dispatch, w))
                    as Box<dyn FnOnce() + Send + '_>
            })
            .collect();
        // fan_out is a barrier: every worker thread has exited (and
        // requeued anything it still held) when this returns.
        fan_out(tasks);

        let mut st = dispatch.state.lock().expect("dispatch lock");
        let missing: Vec<usize> = units
            .iter()
            .copied()
            .filter(|u| !st.done.contains_key(u))
            .collect();
        Counters::add(
            &self.farm.counters.remote_units,
            (units.len() - missing.len()) as u64,
        );
        let mut outcomes: Vec<UnitOutcome> = st.done.drain().map(|(_, o)| o).collect();
        drop(st);
        if !missing.is_empty() {
            // No worker ever answered these (all dead, or none
            // configured to begin with): the coordinator verifies
            // them itself rather than signing off with a hole.
            Counters::add(&self.farm.counters.local_units, missing.len() as u64);
            let (local, _) = LocalBackend.verify_units(prep, exec, ctx, &missing, deadline);
            outcomes.extend(local);
        }
        (outcomes, start.elapsed())
    }
}

impl FarmBackend<'_> {
    /// One worker's dispatch loop: pull (or steal) batches until
    /// nothing is pending or inflight, loading the design generation
    /// lazily when the first batch is in hand.
    fn run_worker(&self, prep: &PreparedDesign, d: &DispatchState, w: usize) {
        let farm = self.farm;
        let slot = &farm.slots[w];
        let mut guard = slot.conn.lock().expect("worker conn lock");
        if guard.is_none() {
            return;
        }

        let mut backoff = Backoff::new(
            RETRY_BASE_MS,
            RETRY_CAP_MS,
            BACKOFF_SEED.wrapping_add((w as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
        );
        let steal_after = Duration::from_millis(farm.config.steal_after_ms);

        loop {
            // Acquire a batch: pending first, then a straggler steal,
            // else wait for inflight work to resolve.
            let mut st = d.state.lock().expect("dispatch lock");
            let (bid, batch_units) = loop {
                if st.done.len() >= d.target {
                    return;
                }
                if let Some(units) = st.pending.pop_front() {
                    let bid = st.next_batch;
                    st.next_batch += 1;
                    st.inflight.push(Inflight {
                        id: bid,
                        units: units.clone(),
                        since: Instant::now(),
                        stolen: false,
                    });
                    Counters::add(&farm.counters.dispatched_batches, 1);
                    break (bid, units);
                }
                if st.inflight.is_empty() {
                    return;
                }
                if let Some(entry) = st
                    .inflight
                    .iter_mut()
                    .find(|e| !e.stolen && e.since.elapsed() >= steal_after)
                {
                    entry.stolen = true;
                    Counters::add(&farm.counters.stolen_batches, 1);
                    break (entry.id, entry.units.clone());
                }
                let (g, _) = d
                    .cvar
                    .wait_timeout(st, Duration::from_millis(25))
                    .expect("dispatch lock");
                st = g;
            };
            drop(st);

            // Load lazily, only once a batch is actually in hand: an
            // idle worker in a wide farm never pays the design replay
            // (eager loading made every verify cost O(workers²) builds
            // across a fleet of streams).
            let load = {
                let conn = guard.as_mut().expect("live connection");
                if conn.loaded_gen == self.gen {
                    Ok(())
                } else {
                    self.load_design(conn, prep).map(|()| {
                        conn.loaded_gen = self.gen;
                        Counters::add(&farm.counters.loads, 1);
                    })
                }
            };

            // Dispatch, sleeping through backpressure with jitter. The
            // retry budget bounds a persistently-full worker: its units
            // go back to the pool instead of spinning here forever.
            let mut retries = 0u32;
            let outcome = match load {
                Err(divergence) => Err(divergence),
                Ok(()) => loop {
                    let conn = guard.as_mut().expect("live connection");
                    match self.send_batch(conn, prep, &batch_units) {
                        Ok(outcomes) => break Ok(outcomes),
                        Err(WireError::Busy(hint)) => {
                            if retries >= BUSY_RETRY_LIMIT {
                                break Err(format!(
                                    "persistent backpressure: {retries} queue-full rejections"
                                ));
                            }
                            retries += 1;
                            Counters::add(&farm.counters.busy_retries, 1);
                            let sleep_ms = backoff.next_after(hint);
                            std::thread::sleep(Duration::from_millis(sleep_ms));
                        }
                        Err(WireError::Fatal(m)) => break Err(m),
                    }
                },
            };
            match outcome {
                Ok(outcomes) => {
                    let mut st = d.state.lock().expect("dispatch lock");
                    st.inflight.retain(|e| e.id != bid);
                    for o in outcomes {
                        // First result wins: a stolen batch can come
                        // back twice; both are byte-equal, the loser
                        // is just counted.
                        match st.done.entry(o.unit) {
                            std::collections::hash_map::Entry::Vacant(e) => {
                                e.insert(o);
                            }
                            std::collections::hash_map::Entry::Occupied(_) => {
                                Counters::add(&farm.counters.duplicate_units, 1);
                            }
                        }
                    }
                    drop(st);
                    d.cvar.notify_all();
                }
                Err(m) => {
                    // Worker died mid-batch: requeue whatever of the
                    // batch is still unanswered (unless a stealer
                    // already finished it) and exit this thread.
                    farm.note_error(format!("{}: {m}", slot.addr));
                    let mut st = d.state.lock().expect("dispatch lock");
                    if let Some(pos) = st.inflight.iter().position(|e| e.id == bid) {
                        let entry = st.inflight.remove(pos);
                        let remaining: Vec<usize> = entry
                            .units
                            .into_iter()
                            .filter(|u| !st.done.contains_key(u))
                            .collect();
                        if !remaining.is_empty() {
                            st.pending.push_back(remaining);
                        }
                    }
                    drop(st);
                    *guard = None;
                    Counters::add(&farm.counters.dead_workers, 1);
                    d.cvar.notify_all();
                    return;
                }
            }
        }
    }

    /// Sends `load` and cross-checks the worker's replayed design
    /// against the coordinator's: same environment fingerprint, same
    /// unit count, same per-unit fingerprints. Any divergence refuses
    /// the worker — it would silently verify the wrong netlist.
    fn load_design(&self, conn: &mut WorkerConn, prep: &PreparedDesign) -> Result<(), String> {
        let mut body = format!(
            "{{\"req\":\"load\",\"design\":{}",
            json_escaped(self.design)
        );
        body.push_str(",\"steps\":[");
        for (k, step) in self.steps.iter().enumerate() {
            if k > 0 {
                body.push(',');
            }
            body.push_str(step);
        }
        body.push_str("]}");
        let v = match conn.request(&body) {
            Ok(v) => v,
            Err(WireError::Busy(_)) => return Err("load rejected as busy".into()),
            Err(WireError::Fatal(m)) => return Err(m),
        };
        if v.req_u64("env")? != prep.env() {
            return Err("worker build divergence: environment fingerprint mismatch".into());
        }
        let fps = v.req_array("fps")?;
        let local = prep.unit_fingerprints();
        if fps.len() != local.len() {
            return Err("worker build divergence: unit count mismatch".into());
        }
        for (k, (remote, f)) in fps.iter().zip(local).enumerate() {
            let pair = remote.as_array().filter(|p| p.len() == 2);
            let content = pair.and_then(|p| p[0].as_u64());
            let binding = pair.and_then(|p| p[1].as_u64());
            if content != Some(f.content) || binding != Some(f.binding) {
                return Err(format!(
                    "worker build divergence: unit {k} fingerprint mismatch"
                ));
            }
        }
        Ok(())
    }

    /// Dispatches one batch and parses the outcomes, validating that
    /// every reply entry is content-addressed to the unit requested.
    fn send_batch(
        &self,
        conn: &mut WorkerConn,
        prep: &PreparedDesign,
        units: &[usize],
    ) -> Result<Vec<UnitOutcome>, WireError> {
        let mut body = String::from("{\"req\":\"batch\",\"units\":[");
        for (k, u) in units.iter().enumerate() {
            if k > 0 {
                body.push(',');
            }
            body.push_str(&u.to_string());
        }
        body.push_str("]}");
        let v = conn.request(&body)?;
        match self.parse_outcomes(prep, units, &v) {
            Ok(outcomes) => Ok(outcomes),
            Err(m) => {
                Counters::add(&self.farm.counters.corrupt_replies, 1);
                Err(WireError::Fatal(m))
            }
        }
    }

    fn parse_outcomes(
        &self,
        prep: &PreparedDesign,
        units: &[usize],
        v: &Value,
    ) -> Result<Vec<UnitOutcome>, String> {
        let results = v.req_array("results")?;
        if results.len() != units.len() {
            return Err(format!(
                "batch reply has {} results for {} units",
                results.len(),
                units.len()
            ));
        }
        let mut outcomes = Vec::with_capacity(results.len());
        for r in results {
            let unit = r.req_u64("unit")? as usize;
            if !units.contains(&unit) {
                return Err(format!("batch result for unrequested unit {unit}"));
            }
            let poisoned = r.req_bool("poisoned")?;
            let (key, result) = read_unit_entry(r.req("entry")?)
                .map_err(|e| format!("unit {unit}: bad entry: {e:?}"))?;
            if key != prep.unit_key(unit) {
                return Err(format!(
                    "unit {unit}: content address does not match the requested unit"
                ));
            }
            outcomes.push(UnitOutcome {
                unit,
                result,
                poisoned,
            });
        }
        Ok(outcomes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_stays_within_floor_hint_and_cap() {
        let base = 5;
        let cap = 250;
        let mut b = Backoff::new(base, cap, 42);
        let mut prev = base;
        for hint in [0u64, 25, 25, 25, 1000, 25, 0, 25] {
            let floor = base.max(hint).min(cap);
            let d = b.next_after(hint);
            assert!(d >= floor, "delay {d} below floor {floor}");
            assert!(d <= cap, "delay {d} above cap {cap}");
            assert!(
                d <= prev.saturating_mul(3).max(floor),
                "delay {d} grew more than 3x over {prev}"
            );
            prev = d;
        }
    }

    #[test]
    fn backoff_decorrelates_across_seeds() {
        // Two clients bounced by the same worker with the same hint
        // must not sleep in lockstep — that is the whole point.
        let seq = |seed: u64| -> Vec<u64> {
            let mut b = Backoff::new(5, 250, seed);
            (0..8).map(|_| b.next_after(25)).collect()
        };
        assert_ne!(
            seq(1),
            seq(2),
            "identical retry schedules re-synchronize the fleet"
        );
        // Deterministic per seed (tests and reproducibility).
        assert_eq!(seq(7), seq(7));
    }

    #[test]
    fn backoff_zero_base_and_inverted_cap_are_sanitized() {
        let mut b = Backoff::new(0, 0, 9);
        let d = b.next_after(0);
        assert!(d >= 1, "floor is at least 1ms");
        assert_eq!(d, 1, "cap clamps to the floor");
    }
}
