//! `serve_warm` and `serve_eco` — the verification daemon's read side
//! and write side.
//!
//! Both start `cbv-serve` in this process with `ServerConfig::default()`
//! (so CPU time and peak memory cover clients and server), fill the
//! shared cache by walking seeded ECO streams over the other registry
//! designs until it is sized like a long-running daemon's, and then
//! drive `min(2, nproc)` closed-loop clients over loopback TCP.
//!
//! * `serve_warm`: both clients hold the same three committed revisions
//!   of `alu4`; one op is one sweep "roll back, re-commit the three" —
//!   three signoffs the cache answers completely, so snapshot/lookup,
//!   the shared flow driver, the JSON codec, framing and the job queue
//!   do all the work and extraction does none. A section of the traced
//!   run only: a 3 ms sweep is mostly thread hand-offs, and its time
//!   moves by a quarter from one minute to the next on a shared host.
//! * `serve_eco`: the clients walk the same never-seen ECO stream on
//!   `ripple8` in lockstep; one op is one step answered for every
//!   client. Staging, absorb and cache growth run, and the clients race
//!   on every dirty unit.

use std::io::Cursor;
use std::net::SocketAddr;
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

use cbv_core::cache::VerifyCache;
use cbv_core::flow::{run_flow, run_flow_incremental, FlowConfig};
use cbv_core::service::FlowService;
use cbv_core::tech::Process;
use cbv_serve::{
    edits_from_json, read_frame, serve, write_frame, Client, ClientError, ServerConfig,
    ServerHandle, Session, Verdict,
};
use serde_json::Value;

use crate::host;
use crate::run::{ms_since, signoff_json, Outcome, Plan, Window};
use crate::stats::{median, p10};
use crate::trace::{to_jsonl, Recorder};
use crate::walk::{Step, Walk};

/// Registry designs the fill walks: the two that add cache entries
/// fastest, so set-up stays short. The measured sessions use others.
const FILL_DESIGNS: [&str; 2] = ["dcvsl", "sr-latch"];
/// The fill streams are drawn from this constant, not from `--seed`:
/// how many steps reach [`FILL_ENTRIES`] depends on the stream (by a
/// factor of two between seeds), and set-up time must not.
const FILL_SEED: u64 = 0x5EED;
/// The fill stops at the first round that leaves at least this many
/// unit entries in the shared tier.
const FILL_ENTRIES: u64 = 2_000;
/// Untimed warm-up ops at the end of each set-up.
const WARMUP_OPS: usize = 8;
/// Queue-full rejections a request retries through before it counts as
/// a failed op.
const MAX_RETRIES: u32 = 50;
/// Committed revisions a `serve_warm` sweep covers (inside the daemon's
/// prep cache of four).
const REVISIONS: usize = 3;
/// `serve_eco` compares with the in-process cold flow this often.
const CHECK_EVERY: usize = 16;

/// Wall milliseconds of one call of `f`, read from `reps` calls.
fn probe_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            ms_since(t)
        })
        .collect();
    p10(&samples)
}

/// Sends one request, sleeping out queue-full rejections.
fn retrying<T>(
    retries: &mut u64,
    mut request: impl FnMut() -> Result<T, ClientError>,
) -> Result<T, ClientError> {
    let mut left = MAX_RETRIES;
    loop {
        match request() {
            Err(ClientError::Rejected {
                retry_after_ms: Some(ms),
                ..
            }) if left > 0 => {
                left -= 1;
                *retries += 1;
                std::thread::sleep(Duration::from_millis(ms));
            }
            other => return other,
        }
    }
}

/// Shared-tier entries once nothing is left in staging (workers absorb
/// at their next quiet moment, just after replying).
fn settled_entries(ctl: &mut Client) -> u64 {
    loop {
        let stats = ctl.stats().expect("stats request");
        let stats: Value = serde_json::from_str(&stats).expect("stats reply is JSON");
        let field = |name: &str| {
            stats
                .get(name)
                .and_then(Value::as_u64)
                .unwrap_or_else(|| panic!("stats reply has no {name}"))
        };
        if field("cache_staged") == 0 {
            return field("cache_entries");
        }
        std::thread::yield_now();
    }
}

/// A running in-process daemon with its measured client connections.
struct Daemon {
    server: ServerHandle,
    /// Control connection for `stats`.
    ctl: Client,
    /// One open session per client, all on the same design.
    clients: Vec<Client>,
    /// Device count of that design.
    devices: usize,
}

impl Daemon {
    /// Starts the daemon, fills its shared tier, and opens the client
    /// sessions on `design`.
    fn start(design: &str) -> Daemon {
        let server = serve(ServerConfig::default()).expect("bind loopback daemon");
        let addr = server.addr();
        let mut ctl = Client::connect(addr).expect("connect control client");
        fill(addr, &mut ctl);
        let mut devices = 0;
        let clients = (0..host::client_threads())
            .map(|_| {
                let mut c = Client::connect(addr).expect("connect client");
                devices = c.open(design).expect("open registry design");
                c
            })
            .collect();
        Daemon {
            server,
            ctl,
            clients,
            devices,
        }
    }
}

/// Walks one seeded ECO stream per fill design, round-robin on one
/// connection each, until the shared tier is large enough.
fn fill(addr: SocketAddr, ctl: &mut Client) {
    let mut streams: Vec<(Client, Walk)> = FILL_DESIGNS
        .iter()
        .zip(10u64..)
        .map(|(design, stream)| {
            let mut c = Client::connect(addr).expect("connect fill client");
            let devices = c.open(design).expect("open fill design");
            (c, Walk::new(FILL_SEED, stream, devices))
        })
        .collect();
    let mut retries = 0;
    while settled_entries(ctl) < FILL_ENTRIES {
        for (client, walk) in &mut streams {
            let edit = walk.next().expect("walks are endless").wire();
            retrying(&mut retries, || client.eco(&edit, None)).expect("fill eco");
        }
    }
}

/// What [`fill`] leaves in the daemon's shared tier, built in this
/// process on an owned cache: the same streams, to the same size.
fn equal_size_cache(process: &Process, config: &FlowConfig) -> VerifyCache {
    let mut cache = VerifyCache::new();
    let mut streams: Vec<(Session, Walk)> = FILL_DESIGNS
        .iter()
        .zip(10u64..)
        .map(|(design, stream)| {
            let session = Session::open(design, process).expect("registry design");
            let devices = session.netlist().devices().len();
            (session, Walk::new(FILL_SEED, stream, devices))
        })
        .collect();
    while (cache.len() as u64) < FILL_ENTRIES {
        for (session, walk) in &mut streams {
            apply_wire(session, &walk.next().expect("walks are endless").wire());
            run_flow_incremental(session.netlist().clone(), process, config, &mut cache);
        }
    }
    cache
}

/// Signoff bytes of a cold in-process flow over a session's netlist —
/// the reference every remote signoff must equal.
fn cold_reference(session: &Session, process: &Process, config: &FlowConfig) -> String {
    signoff_json(&run_flow(session.netlist().clone(), process, config).signoff)
}

fn apply_wire(session: &mut Session, wire: &str) {
    let v = serde_json::from_str(wire).expect("edit json");
    let edits = edits_from_json(&v).expect("edit vocabulary");
    session.apply_batch(&edits).expect("edit applies");
}

/// What one client thread brings back from a section.
struct ClientRun {
    failed: u64,
    retries: u64,
    /// Unit hits and misses over the count ops.
    hits: usize,
    misses: usize,
    rec: Recorder,
}

pub struct ServeWarm {
    daemon: Daemon,
    edits: Vec<String>,
    /// Reference signoff bytes of revisions 1..=3.
    reference: Vec<String>,
}

impl ServeWarm {
    pub fn setup(seed: u64) -> ServeWarm {
        let mut daemon = Daemon::start("alu4");
        let process = Process::strongarm_035();
        let config = FlowConfig::default();
        let mut mirror = Session::open("alu4", &process).expect("registry design");
        let edits: Vec<String> = Walk::new(seed, 4, daemon.devices)
            .take(REVISIONS)
            .map(|s| s.wire())
            .collect();
        let reference: Vec<String> = edits
            .iter()
            .map(|edit| {
                apply_wire(&mut mirror, edit);
                cold_reference(&mirror, &process, &config)
            })
            .collect();
        // Commit the revisions one client after the other, so what the
        // cache holds afterwards does not depend on a race.
        let mut retries = 0;
        for client in &mut daemon.clients {
            for (edit, want) in edits.iter().zip(&reference) {
                let v = retrying(&mut retries, || client.eco(edit, None)).expect("commit revision");
                assert_eq!(&v.signoff_raw, want, "daemon disagrees with the cold flow");
            }
        }
        let mut this = ServeWarm {
            daemon,
            edits,
            reference,
        };
        let warm = this.run(&Plan::ops(WARMUP_OPS));
        assert_eq!(warm.failed, 0, "serve_warm warm-up op failed its check");
        this
    }

    /// Runs one section: every client sweeps until the plan is spent.
    pub fn run(&mut self, plan: &Plan) -> Outcome {
        let origin = Instant::now();
        let window = Window::start();
        let (edits, reference) = (&self.edits, &self.reference);
        let runs: Vec<ClientRun> = std::thread::scope(|scope| {
            let handles: Vec<_> = self
                .daemon
                .clients
                .iter_mut()
                .enumerate()
                .map(|(i, client)| {
                    let window = &window;
                    scope.spawn(move || {
                        sweep_loop(client, i, origin, window, plan, edits, reference)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let mut out = Outcome::default();
        window.finish(&mut out);
        out.failed = runs.iter().map(|r| r.failed).sum();
        if plan.traced {
            let spans = |name: &str| -> Vec<f64> {
                runs.iter().flat_map(|r| r.rec.durations_ms(name)).collect()
            };
            out.layers
                .insert("serve_warm.sweep_p10_ms", p10(&spans("serve_warm.op")));
            let rtt = p10(&spans("serve_warm.serve.rtt_signoff_p10_ms"));
            out.layers
                .insert("serve_warm.serve.rtt_signoff_p10_ms", rtt);
            out.layers.insert(
                "serve_warm.serve.rtt_rollback_p10_ms",
                p10(&spans("serve_warm.serve.rtt_rollback_p10_ms")),
            );
            let hits: usize = runs.iter().map(|r| r.hits).sum();
            let misses: usize = runs.iter().map(|r| r.misses).sum();
            out.layers.insert(
                "serve_warm.cache.hit_rate",
                hits as f64 / (hits + misses).max(1) as f64,
            );
            out.layers.insert(
                "serve_warm.serve.retries",
                runs.iter().map(|r| r.retries).sum::<u64>() as f64,
            );
            self.probe(rtt, &mut out);
            let recs: Vec<&Recorder> = runs.iter().map(|r| &r.rec).collect();
            out.jsonl = to_jsonl(&recs);
        }
        out
    }

    /// In-process probes against a cache the size of the daemon's shared
    /// tier: the same revisions through `FlowService::verify`, and the
    /// cache and framing operations every request pays for.
    fn probe(&mut self, rtt_signoff_ms: f64, out: &mut Outcome) {
        let d = &mut self.daemon;
        out.layers.insert(
            "serve_warm.cache.entries",
            settled_entries(&mut d.ctl) as f64,
        );
        let reply = d.clients[0]
            .request_raw("{\"req\":\"signoff\"}")
            .expect("signoff request");
        out.layers
            .insert("serve_warm.serve.reply_bytes", reply.len() as f64);
        // A frame round trip is far below the clock's resolution: time
        // a hundred at a go.
        let frame_us = probe_ms(20, || {
            for _ in 0..100 {
                let mut wire = Vec::with_capacity(reply.len() + 8);
                write_frame(&mut wire, &reply).expect("frame write");
                std::hint::black_box(read_frame(&mut Cursor::new(wire)).expect("frame read"));
            }
        }) * 1e3
            / 100.0;
        out.layers
            .insert("serve_warm.protocol.frame_roundtrip_us", frame_us);

        // An owned cache filled in this process by the same seeded
        // streams to the same size as the daemon's shared tier.
        let process = Process::strongarm_035();
        let config = FlowConfig::default();
        let cache = equal_size_cache(&process, &config);
        out.layers.insert(
            "serve_warm.cache.snapshot_clone_ms",
            probe_ms(20, || {
                std::hint::black_box(cache.clone());
            }),
        );

        let service = FlowService::new(process.clone(), config);
        service.preload_cache(&cache);
        let mut mirror = Session::open("alu4", &process).expect("registry design");
        let mut verify_ms = Vec::new();
        for (edit, want) in self.edits.iter().zip(&self.reference) {
            apply_wire(&mut mirror, edit);
            // The first verify builds the revision's prep, as the
            // daemon's did during set-up; the timed ones replay it.
            let first = service.verify(mirror.netlist().clone(), None, None);
            out.failed += u64::from(&first.signoff_json != want);
            for _ in 0..20 {
                let netlist = mirror.netlist().clone();
                let t = Instant::now();
                std::hint::black_box(service.verify(netlist, None, None));
                verify_ms.push(ms_since(t));
            }
        }
        let service_ms = p10(&verify_ms);
        out.layers
            .insert("serve_warm.core.service_verify_ms", service_ms);
        out.layers.insert(
            "serve_warm.serve.wire_overhead_ms",
            rtt_signoff_ms - service_ms,
        );
    }

    pub fn shutdown(self) {
        self.daemon.server.shutdown();
    }
}

/// One `serve_warm` client: roll back to the seed, re-commit the three
/// revisions, compare every signoff with its reference.
fn sweep_loop(
    client: &mut Client,
    thread: usize,
    origin: Instant,
    window: &Window,
    plan: &Plan,
    edits: &[String],
    reference: &[String],
) -> ClientRun {
    let mut run = ClientRun {
        failed: 0,
        retries: 0,
        hits: 0,
        misses: 0,
        rec: Recorder::new(origin, thread as u8),
    };
    let mut done = 0usize;
    while window.more(plan, done) {
        run.rec.on = plan.traces(done);
        run.rec.op = done as u32;
        let retries = &mut run.retries;
        let t0 = Instant::now();
        let verdicts: Result<Vec<Verdict>, ClientError> = run.rec.span("serve_warm.op", |rec| {
            rec.span("serve_warm.serve.rtt_rollback_p10_ms", |_| {
                client.rollback(0)
            })?;
            edits
                .iter()
                .map(|edit| {
                    rec.span("serve_warm.serve.rtt_signoff_p10_ms", |_| {
                        retrying(retries, || client.eco(edit, None))
                    })
                })
                .collect()
        });
        window.complete(ms_since(t0), run.rec.on);
        match verdicts {
            Ok(verdicts) => {
                let same = verdicts
                    .iter()
                    .zip(reference)
                    .all(|(v, want)| &v.signoff_raw == want);
                run.failed += u64::from(!same);
                if done < plan.count_ops {
                    run.hits += verdicts.iter().map(|v| v.cache_hits).sum::<usize>();
                    run.misses += verdicts.iter().map(|v| v.cache_misses).sum::<usize>();
                }
            }
            Err(_) => run.failed += 1,
        }
        done += 1;
    }
    run
}

pub struct ServeEco {
    daemon: Daemon,
    walk: Walk,
    /// In-process replay of the stream the clients walk.
    mirror: Session,
    process: Process,
    config: FlowConfig,
    /// Steps walked so far, warm-ups included (paces the cold check).
    steps: usize,
}

/// One client's answer to a step: round-trip milliseconds and verdict.
type Answer = (f64, Result<Verdict, ClientError>);

/// What the coordinator hands the client threads for one step.
#[derive(Clone)]
struct Turn {
    edit: String,
    traced: bool,
    op: u32,
}

impl ServeEco {
    pub fn setup(seed: u64) -> ServeEco {
        let daemon = Daemon::start("ripple8");
        let process = Process::strongarm_035();
        let mirror = Session::open("ripple8", &process).expect("registry design");
        let mut this = ServeEco {
            walk: Walk::new(seed, 5, daemon.devices),
            daemon,
            mirror,
            process,
            config: FlowConfig::default(),
            steps: 0,
        };
        let warm = this.run(&Plan::ops(WARMUP_OPS));
        assert_eq!(warm.failed, 0, "serve_eco warm-up op failed its check");
        this
    }

    /// Runs one section. The coordinator (this thread) releases every
    /// client into the same step through a barrier and waits for all
    /// replies: one op is one step answered for every client.
    pub fn run(&mut self, plan: &Plan) -> Outcome {
        let origin = Instant::now();
        let mut out = Outcome::default();
        let Daemon { clients, ctl, .. } = &mut self.daemon;
        let gate = Barrier::new(clients.len() + 1);
        let turn: Mutex<Option<Turn>> = Mutex::new(None);
        let replies: Vec<Mutex<Option<Answer>>> =
            clients.iter().map(|_| Mutex::new(None)).collect();

        // Counts: the clients' misses against an in-process replay of
        // the same steps on an owned cache primed at the same revision.
        let mut replay_cache = VerifyCache::new();
        let entries_before = if plan.count_ops > 0 {
            run_flow_incremental(
                self.mirror.netlist().clone(),
                &self.process,
                &self.config,
                &mut replay_cache,
            );
            settled_entries(ctl)
        } else {
            0
        };
        let (mut computed, mut replayed) = (0usize, 0usize);
        let mut skew_ms = Vec::new();

        let window = Window::start();
        let recs: Vec<(Recorder, u64)> = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .zip(&replies)
                .enumerate()
                .map(|(i, (client, slot))| {
                    let (gate, turn) = (&gate, &turn);
                    scope.spawn(move || {
                        let mut rec = Recorder::new(origin, i as u8);
                        let mut retries = 0u64;
                        loop {
                            gate.wait();
                            let Some(t) = turn.lock().expect("turn lock").clone() else {
                                return (rec, retries);
                            };
                            rec.on = t.traced;
                            rec.op = t.op;
                            let t0 = Instant::now();
                            let verdict = rec.span("serve_eco.serve.rtt_eco_p10_ms", |_| {
                                retrying(&mut retries, || client.eco(&t.edit, None))
                            });
                            *slot.lock().expect("reply lock") = Some((ms_since(t0), verdict));
                            gate.wait();
                        }
                    })
                })
                .collect();

            let mut done = 0usize;
            while window.more(plan, done) {
                let step: Step = self.walk.next().expect("walks are endless");
                let traced = plan.traces(done);
                *turn.lock().expect("turn lock") = Some(Turn {
                    edit: step.wire(),
                    traced,
                    op: done as u32,
                });
                gate.wait();
                let t0 = Instant::now();
                gate.wait();
                window.complete(ms_since(t0), traced);

                let answers: Vec<Answer> = replies
                    .iter()
                    .map(|slot| slot.lock().expect("reply lock").take().expect("a reply"))
                    .collect();
                let rtts: Vec<f64> = answers.iter().map(|a| a.0).collect();
                skew_ms.push(
                    rtts.iter().copied().fold(f64::MIN, f64::max)
                        - rtts.iter().copied().fold(f64::MAX, f64::min),
                );
                let verdicts: Vec<&Verdict> =
                    answers.iter().filter_map(|a| a.1.as_ref().ok()).collect();
                let mut ok = verdicts.len() == answers.len()
                    && verdicts
                        .iter()
                        .all(|v| v.signoff_raw == verdicts[0].signoff_raw);

                apply_wire(&mut self.mirror, &step.wire());
                self.steps += 1;
                let counting = done < plan.count_ops;
                if self.steps % CHECK_EVERY == 1 || counting {
                    // Untimed: the clocks stop around the in-process work.
                    window.pause();
                    if self.steps % CHECK_EVERY == 1 {
                        let want = cold_reference(&self.mirror, &self.process, &self.config);
                        ok &= verdicts.first().is_some_and(|v| v.signoff_raw == want);
                    }
                    if counting {
                        computed += verdicts.iter().map(|v| v.cache_misses).sum::<usize>();
                        let report = run_flow_incremental(
                            self.mirror.netlist().clone(),
                            &self.process,
                            &self.config,
                            &mut replay_cache,
                        );
                        replayed += report
                            .stages
                            .iter()
                            .find(|s| s.stage == "everify")
                            .and_then(|s| s.cache)
                            .map_or(0, |c| c.misses);
                        if done + 1 == plan.count_ops {
                            let entries = settled_entries(ctl);
                            let steps = plan.count_ops as f64;
                            out.layers
                                .insert("serve_eco.cache.entries_end", entries as f64);
                            out.layers.insert(
                                "serve_eco.cache.absorbed_per_step",
                                (entries - entries_before) as f64 / steps,
                            );
                            out.layers.insert(
                                "serve_eco.cache.units_computed_per_step",
                                computed as f64 / steps,
                            );
                            out.layers.insert(
                                "serve_eco.cache.duplicate_compute_ratio",
                                computed as f64 / replayed.max(1) as f64,
                            );
                        }
                    }
                    window.resume();
                }
                out.failed += u64::from(!ok);
                done += 1;
            }
            *turn.lock().expect("turn lock") = None;
            gate.wait();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        window.finish(&mut out);

        if plan.traced {
            let rtts: Vec<f64> = recs
                .iter()
                .flat_map(|(rec, _)| rec.durations_ms("serve_eco.serve.rtt_eco_p10_ms"))
                .collect();
            out.layers
                .insert("serve_eco.serve.rtt_eco_p10_ms", p10(&rtts));
            out.layers
                .insert("serve_eco.serve.lockstep_skew_ms", median(&skew_ms));
            out.layers.insert(
                "serve_eco.serve.retries",
                recs.iter().map(|(_, r)| *r).sum::<u64>() as f64,
            );
            let recorders: Vec<&Recorder> = recs.iter().map(|(rec, _)| rec).collect();
            out.jsonl = to_jsonl(&recorders);
        }
        out
    }

    pub fn shutdown(self) {
        self.daemon.server.shutdown();
    }
}
