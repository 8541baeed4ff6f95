//! End-to-end tests for the verification farm (`cbv-serve`'s
//! coordinator + worker mode).
//!
//! The headline property extends the daemon's: a **farm** signoff —
//! units sharded across worker processes, merged through the shared
//! content-addressed cache tier — is byte-identical to the in-process
//! flow on the same design and edit stream, at any worker count. The
//! tests here pin it on the ripple adders; the farm column of
//! `tests/equality.rs` sweeps it across every row at parallelism 1, 2
//! and 8 and also checks findings and STA. The rest of the suite drives
//! the failure lattice with scripted fake workers: crash mid-batch,
//! half-closed sockets, corrupt findings payloads, stragglers (stolen
//! batches, first-result-wins dedup), persistent backpressure, and
//! mixed-fleet protocol versions (the one *hard* error — everything
//! else degrades to surviving workers or the local fallback).

use std::io::Write as _;
use std::net::{Shutdown, TcpListener};
use std::sync::Arc;
use std::time::Duration;

use cbv_core::cache::{write_unit_entry, VerifyCache};
use cbv_core::flow::{run_flow_incremental, FlowConfig};
use cbv_core::scatter::PreparedDesign;
use cbv_core::service::FlowService;
use cbv_core::tech::Process;
use cbv_serve::{
    edits_from_json, read_frame, serve, write_frame, Backoff, Farm, FarmConfig, ServerConfig,
    Session, FRAME_MAGIC, PROTO_VERSION,
};
use serde_json::Value;

/// The ECO stream the byte-identity tests replay: a `cbv-mutate`
/// operator, a raw resize, a second operator elsewhere in the design.
const ECO_STEPS: &[&str] = &[
    r#"{"edit":"op","op":{"op":"width-scale","factor":1.25},"site":{"site":"device","device":0}}"#,
    r#"{"edit":"resize","device":1,"w":2.0e-6,"l":3.5e-7}"#,
    r#"{"edit":"op","op":{"op":"width-scale","factor":1.1},"site":{"site":"device","device":4}}"#,
];

/// A deliberately sub-minimum width: the faulted design must fail
/// identically through the farm and in process.
const FAULT_STEP: &str =
    r#"{"edit":"op","op":{"op":"width-scale","factor":0.05},"site":{"site":"device","device":0}}"#;

fn fresh_service() -> Arc<FlowService> {
    Arc::new(FlowService::new(
        Process::strongarm_035(),
        FlowConfig::default(),
    ))
}
/// In-process reference: the same session replay against a private
/// service, one signoff per step prefix.
fn replay_signoffs(design: &str, steps: &[&str]) -> Vec<String> {
    let p = Process::strongarm_035();
    let service = FlowService::new(p.clone(), FlowConfig::default());
    let mut session = Session::open(design, &p).expect("registry design");
    let mut out = Vec::new();
    for step in steps {
        let v: Value = serde_json::from_str(step).expect("step json");
        let edits = edits_from_json(&v).expect("step edits");
        session.apply_batch(&edits).expect("apply step");
        out.push(
            service
                .verify(session.netlist().clone(), None, None)
                .signoff_json,
        );
    }
    out
}

/// In-process reference for the unedited seed design.
fn replay_seed(design: &str) -> String {
    let p = Process::strongarm_035();
    let service = FlowService::new(p.clone(), FlowConfig::default());
    let session = Session::open(design, &p).expect("registry design");
    service
        .verify(session.netlist().clone(), None, None)
        .signoff_json
}

/// Streams the step prefixes through one farm, one verify per revision
/// (warming the shared tier exactly as a designer's ECO stream would).
fn farm_stream(farm: &Farm, design: &str, steps: &[&str]) -> Vec<String> {
    let mut out = Vec::new();
    for k in 1..=steps.len() {
        let prefix: Vec<String> = steps[..k].iter().map(|s| (*s).to_owned()).collect();
        let (_report, verdict) = farm.verify(design, &prefix).expect("farm verify");
        out.push(verdict.signoff_json);
    }
    out
}

#[test]
fn farm_signoff_is_byte_identical_across_worker_counts() {
    let reference = replay_signoffs("ripple4", ECO_STEPS);

    // Pin the reference itself against the plain incremental flow, so
    // the farm comparison is transitively against `run_flow_incremental`.
    {
        let p = Process::strongarm_035();
        let mut session = Session::open("ripple4", &p).expect("open");
        for step in ECO_STEPS {
            let v: Value = serde_json::from_str(step).expect("json");
            session
                .apply_batch(&edits_from_json(&v).expect("edits"))
                .expect("apply");
        }
        let mut cache = VerifyCache::new();
        let r = run_flow_incremental(
            session.netlist().clone(),
            &p,
            &FlowConfig::default(),
            &mut cache,
        );
        assert_eq!(
            &serde_json::to_string(&r.signoff).expect("signoff json"),
            reference.last().expect("steps ran"),
        );
    }

    for workers in [1usize, 2, 4] {
        let daemons: Vec<_> = (0..workers)
            .map(|_| serve(ServerConfig::default()).expect("bind worker daemon"))
            .collect();
        let addrs: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();
        let farm = Farm::new(
            fresh_service(),
            FarmConfig {
                workers: addrs,
                batch_units: 2,
                ..FarmConfig::default()
            },
        );
        let got = farm_stream(&farm, "ripple4", ECO_STEPS);
        assert_eq!(got, reference, "{workers} workers");
        let stats = farm.stats();
        assert_eq!(stats.dead_workers, 0, "errors: {:?}", farm.take_errors());
        assert!(stats.remote_units > 0, "units were farmed out: {stats:?}");
        assert_eq!(stats.local_units, 0, "no fallback needed: {stats:?}");
        for d in daemons {
            d.shutdown();
        }
    }
}

#[test]
fn faulted_design_fails_byte_identically_through_the_farm() {
    let reference = replay_signoffs("ripple2", &[FAULT_STEP]);
    let daemon = serve(ServerConfig::default()).expect("bind worker daemon");
    let farm = Farm::new(
        fresh_service(),
        FarmConfig {
            workers: vec![daemon.addr().to_string()],
            batch_units: 1,
            ..FarmConfig::default()
        },
    );
    let got = farm_stream(&farm, "ripple2", &[FAULT_STEP]);
    assert_eq!(got, reference);
    let (_report, verdict) = farm
        .verify("ripple2", &[FAULT_STEP.to_owned()])
        .expect("farm verify");
    assert!(!verdict.clean, "the fault must be found, not cached away");
    daemon.shutdown();
}

#[test]
fn zero_workers_degenerates_to_the_local_flow() {
    let farm = Farm::new(fresh_service(), FarmConfig::default());
    let got = farm_stream(&farm, "ripple2", ECO_STEPS);
    assert_eq!(got, replay_signoffs("ripple2", ECO_STEPS));
    let stats = farm.stats();
    assert_eq!(stats.remote_units, 0);
    assert!(stats.local_units > 0);
}

#[test]
fn shared_tier_answers_a_repeat_revision_without_dispatch() {
    let daemon = serve(ServerConfig::default()).expect("bind worker daemon");
    let farm = Farm::new(
        fresh_service(),
        FarmConfig {
            workers: vec![daemon.addr().to_string()],
            batch_units: 2,
            ..FarmConfig::default()
        },
    );
    let (_r1, v1) = farm.verify("ripple2", &[]).expect("cold verify");
    let dispatched = farm.stats().dispatched_batches;
    assert!(dispatched > 0, "cold revision is farmed out");

    let (_r2, v2) = farm.verify("ripple2", &[]).expect("warm verify");
    assert_eq!(v1.signoff_json, v2.signoff_json);
    assert_eq!(v2.cache.misses, 0, "shared tier answers everything");
    assert_eq!(
        farm.stats().dispatched_batches,
        dispatched,
        "no unit crosses the wire twice for one content address"
    );
    daemon.shutdown();
}

// ---------------------------------------------------------------------
// Scripted fake workers: the failure lattice.
// ---------------------------------------------------------------------

/// What a fake worker does once the conversation reaches `batch`.
#[derive(Clone, Copy)]
enum FakeMode {
    /// Reply to `hello` with a wrong-version frame.
    WrongVersion,
    /// Half-close (FIN the write side) instead of answering `load`.
    HalfCloseOnLoad,
    /// Drop the connection on the first `batch` — a crash mid-batch.
    CrashOnBatch,
    /// Answer `batch` with unparseable cache entries.
    CorruptBatch,
    /// Hold the first batch for the given delay, then answer it (and
    /// later ones) correctly — a straggler, not a corpse.
    SlowFirstBatch(Duration),
    /// Answer everything correctly and immediately.
    Valid,
}

/// Precomputed truth a fake worker serves from: the design's
/// environment/unit fingerprints and every unit's serialized cache
/// entry — real results, so a fake's replies merge into a correct
/// signoff.
struct Brain {
    env: u64,
    fps: Vec<(u64, u64)>,
    entries: Vec<String>,
}

fn brain_for(design: &str) -> Arc<Brain> {
    let p = Process::strongarm_035();
    let session = Session::open(design, &p).expect("registry design");
    let prep = PreparedDesign::build(session.netlist().clone(), &p, &FlowConfig::default());
    let entries = (0..prep.n_units())
        .map(|i| {
            let outcome = prep.verify_unit(i, None);
            let mut s = String::new();
            write_unit_entry(&prep.unit_key(i), &outcome.result, &mut s);
            s
        })
        .collect();
    Arc::new(Brain {
        env: prep.env(),
        fps: prep
            .unit_fingerprints()
            .iter()
            .map(|f| (f.content, f.binding))
            .collect(),
        entries,
    })
}

/// Spawns a scripted fake worker serving one connection.
fn spawn_fake(mode: FakeMode, brain: Arc<Brain>) -> String {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind fake worker");
    let addr = listener.local_addr().expect("local addr").to_string();
    std::thread::spawn(move || {
        let Ok((mut stream, _)) = listener.accept() else {
            return;
        };
        let mut first_batch = true;
        loop {
            let Ok(Some(frame)) = read_frame(&mut stream) else {
                return;
            };
            let v: Value = match serde_json::from_str(&frame) {
                Ok(v) => v,
                Err(_) => return,
            };
            let id = v.get("id").and_then(Value::as_u64).unwrap_or(0);
            match v.get("req").and_then(Value::as_str) {
                Some("hello") => {
                    if matches!(mode, FakeMode::WrongVersion) {
                        // A daemon from another build: right magic,
                        // older version byte. The coordinator must
                        // refuse loudly, not guess.
                        let payload = b"{}";
                        let mut raw = FRAME_MAGIC.to_vec();
                        raw.push(PROTO_VERSION - 1);
                        raw.extend_from_slice(&(payload.len() as u32).to_be_bytes());
                        raw.extend_from_slice(payload);
                        let _ = stream.write_all(&raw);
                        return;
                    }
                    let reply = format!("{{\"ok\":true,\"id\":{id},\"proto\":{PROTO_VERSION}}}");
                    if write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
                Some("load") => {
                    if matches!(mode, FakeMode::HalfCloseOnLoad) {
                        let _ = stream.shutdown(Shutdown::Write);
                        continue; // keep reading: a true half-close
                    }
                    let fps: Vec<String> = brain
                        .fps
                        .iter()
                        .map(|(c, b)| format!("[{c},{b}]"))
                        .collect();
                    let reply = format!(
                        "{{\"ok\":true,\"id\":{id},\"env\":{},\"fps\":[{}]}}",
                        brain.env,
                        fps.join(",")
                    );
                    if write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
                Some("batch") => {
                    let units: Vec<usize> = v
                        .get("units")
                        .and_then(Value::as_array)
                        .map(|a| {
                            a.iter()
                                .filter_map(Value::as_u64)
                                .map(|u| u as usize)
                                .collect()
                        })
                        .unwrap_or_default();
                    match mode {
                        FakeMode::CrashOnBatch => return,
                        FakeMode::SlowFirstBatch(delay) if first_batch => {
                            first_batch = false;
                            std::thread::sleep(delay);
                        }
                        _ => {}
                    }
                    let results: Vec<String> = units
                        .iter()
                        .map(|&u| {
                            let entry = if matches!(mode, FakeMode::CorruptBatch) {
                                "{}".to_owned()
                            } else {
                                brain.entries[u].clone()
                            };
                            format!("{{\"unit\":{u},\"poisoned\":false,\"entry\":{entry}}}")
                        })
                        .collect();
                    let reply = format!(
                        "{{\"ok\":true,\"id\":{id},\"results\":[{}]}}",
                        results.join(",")
                    );
                    if write_frame(&mut stream, &reply).is_err() {
                        return;
                    }
                }
                _ => return,
            }
        }
    });
    addr
}

#[test]
fn protocol_version_mismatch_is_a_hard_error() {
    let addr = spawn_fake(FakeMode::WrongVersion, brain_for("ripple2"));
    let farm = Farm::new(
        fresh_service(),
        FarmConfig {
            workers: vec![addr],
            ..FarmConfig::default()
        },
    );
    let err = farm.verify("ripple2", &[]).expect_err("mixed fleet");
    assert!(
        err.contains("protocol version mismatch"),
        "names the mismatch: {err}"
    );
}

#[test]
fn crashed_and_half_closed_workers_fall_back_locally() {
    let brain = brain_for("ripple2");
    let crash = spawn_fake(FakeMode::CrashOnBatch, Arc::clone(&brain));
    let half = spawn_fake(FakeMode::HalfCloseOnLoad, brain);
    let farm = Farm::new(
        fresh_service(),
        FarmConfig {
            workers: vec![crash, half],
            reply_timeout_ms: 2_000,
            ..FarmConfig::default()
        },
    );
    let (_report, verdict) = farm.verify("ripple2", &[]).expect("farm verify");
    assert_eq!(verdict.signoff_json, replay_seed("ripple2"));
    let stats = farm.stats();
    assert!(stats.dead_workers >= 2, "{stats:?}");
    assert_eq!(stats.remote_units, 0, "{stats:?}");
    assert!(stats.local_units > 0, "coordinator picked the units up");
}

#[test]
fn corrupt_findings_payloads_are_refused() {
    let addr = spawn_fake(FakeMode::CorruptBatch, brain_for("ripple2"));
    let farm = Farm::new(
        fresh_service(),
        FarmConfig {
            workers: vec![addr],
            reply_timeout_ms: 2_000,
            ..FarmConfig::default()
        },
    );
    let (_report, verdict) = farm.verify("ripple2", &[]).expect("farm verify");
    assert_eq!(verdict.signoff_json, replay_seed("ripple2"));
    let stats = farm.stats();
    assert!(stats.corrupt_replies >= 1, "{stats:?}");
    assert!(stats.dead_workers >= 1, "{stats:?}");
    assert!(stats.local_units > 0, "{stats:?}");
}

#[test]
fn straggler_batches_are_stolen_and_deduped_first_result_wins() {
    let brain = brain_for("ripple4");
    let slow = spawn_fake(
        FakeMode::SlowFirstBatch(Duration::from_millis(1_200)),
        Arc::clone(&brain),
    );
    let fast = spawn_fake(FakeMode::Valid, brain);
    let farm = Farm::new(
        fresh_service(),
        FarmConfig {
            workers: vec![slow, fast],
            batch_units: 1,
            steal_after_ms: 60,
            reply_timeout_ms: 10_000,
        },
    );
    let (_report, verdict) = farm.verify("ripple4", &[]).expect("farm verify");
    assert_eq!(verdict.signoff_json, replay_seed("ripple4"));
    let stats = farm.stats();
    assert!(stats.stolen_batches >= 1, "{stats:?}");
    assert!(
        stats.duplicate_units >= 1,
        "late reply loses the race: {stats:?}"
    );
    assert_eq!(
        stats.dead_workers,
        0,
        "a straggler is not a corpse: {:?}",
        farm.take_errors()
    );
    assert_eq!(stats.local_units, 0, "{stats:?}");
}

#[test]
fn racing_streams_coalesce_through_the_shared_tier() {
    // Stream A claims every unit and its worker stalls 300 ms before
    // answering; stream B arrives mid-flight, finds every unit claimed,
    // waits, and resolves all of them from the tier — dispatching
    // nothing. Single-flight: one content address, one computation.
    let brain = brain_for("ripple2");
    let n_units = brain.entries.len() as u64;
    let slow = spawn_fake(
        FakeMode::SlowFirstBatch(Duration::from_millis(300)),
        Arc::clone(&brain),
    );
    let fast = spawn_fake(FakeMode::Valid, brain);
    let service = fresh_service();
    let farm_a = Farm::new(
        Arc::clone(&service),
        FarmConfig {
            workers: vec![slow],
            batch_units: 1024,
            steal_after_ms: u64::MAX,
            ..FarmConfig::default()
        },
    );
    let farm_b = Farm::new(
        Arc::clone(&service),
        FarmConfig {
            workers: vec![fast],
            ..FarmConfig::default()
        },
    );
    let (va, vb) = std::thread::scope(|s| {
        let a = s.spawn(|| farm_a.verify("ripple2", &[]).expect("farm a"));
        std::thread::sleep(Duration::from_millis(100));
        let b = s.spawn(|| farm_b.verify("ripple2", &[]).expect("farm b"));
        (a.join().expect("stream a").1, b.join().expect("stream b").1)
    });
    assert_eq!(va.signoff_json, replay_seed("ripple2"));
    assert_eq!(va.signoff_json, vb.signoff_json);
    let sa = farm_a.stats();
    let sb = farm_b.stats();
    assert_eq!(sa.remote_units, n_units, "{sa:?}");
    assert_eq!(sb.coalesced_units, n_units, "{sb:?}");
    assert_eq!(sb.remote_units, 0, "B dispatched nothing: {sb:?}");
    assert_eq!(sb.local_units, 0, "{sb:?}");
}

#[test]
fn hostile_oversized_retry_hint_cannot_panic_or_stall_dispatch() {
    // A worker's `retry_after_ms` comes straight off the wire. A
    // hostile or corrupt hint far above the cap must neither panic the
    // dispatch thread (`u64::clamp` panics when min > max) nor raise
    // the sleep past the configured ceiling.
    let base = 5;
    let cap = 250;
    let mut b = Backoff::new(base, cap, 7);
    for hint in [u64::MAX, cap + 1, u64::MAX / 3, cap * 1000, u64::MAX] {
        let d = b.next_after(hint);
        assert!(d >= base, "delay {d} under base {base}");
        assert!(d <= cap, "oversized hint must clamp to the cap, got {d}");
    }
    // And the backoff keeps working normally afterwards.
    let d = b.next_after(0);
    assert!((base..=cap).contains(&d));
}

#[test]
fn persistent_backpressure_is_bounded_and_falls_back() {
    // A capacity-0 daemon rejects every batch with `retry_after_ms`;
    // the coordinator must retry a bounded number of times (32, with
    // jittered sleeps) and then route the units elsewhere, not spin.
    let daemon = serve(ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    })
    .expect("bind worker daemon");
    let farm = Farm::new(
        fresh_service(),
        FarmConfig {
            workers: vec![daemon.addr().to_string()],
            ..FarmConfig::default()
        },
    );
    let (_report, verdict) = farm.verify("ripple2", &[]).expect("farm verify");
    assert_eq!(verdict.signoff_json, replay_seed("ripple2"));
    let stats = farm.stats();
    assert!(stats.busy_retries >= 32, "{stats:?}");
    assert!(stats.dead_workers >= 1, "{stats:?}");
    assert!(stats.local_units > 0, "{stats:?}");
    daemon.shutdown();
}
