//! End-to-end tests for the verification daemon (`cbv-serve`).
//!
//! The headline property is **byte-identity**: the signoff JSON a
//! remote client receives over the wire is the exact string an
//! in-process `run_flow_incremental` on the same netlist serializes —
//! for one client or K racing ones, at any worker count. The tests here
//! pin it on named designs; the daemon and restored columns of
//! `tests/equality.rs` sweep it across every row at parallelism 1, 2
//! and 8, and across a save/restart/restore. The rest of
//! the suite is robustness (malformed frames, oversized payloads,
//! half-closed sockets, mid-job disconnects must never take the daemon
//! down) and the two deterministic rejection paths: queue-full
//! backpressure (capacity-0 queue) and expired request deadlines
//! (`deadline_ms: 0`).

use std::io::Write as _;
use std::net::{Shutdown, TcpStream};

use cbv_core::flow::FlowConfig;
use cbv_core::service::FlowService;
use cbv_core::tech::Process;
use cbv_serve::{
    read_frame, serve, write_frame, Client, ClientError, ServerConfig, ServerHandle, Session,
    FRAME_MAGIC, PROTO_VERSION, RETRY_AFTER_MS,
};
use serde_json::Value;

fn start(config: ServerConfig) -> ServerHandle {
    serve(config).expect("bind loopback daemon")
}

fn default_server() -> ServerHandle {
    start(ServerConfig::default())
}

/// The reference ECO stream every byte-identity test replays: one
/// `cbv-mutate` operator, one raw resize, one add-net/add-device batch.
const ECO_STREAM: &[&str] = &[
    r#"{"edit":"op","op":{"op":"width-scale","factor":1.25},"site":{"site":"device","device":0}}"#,
    r#"{"edit":"resize","device":1,"w":2.0e-6,"l":3.5e-7}"#,
    r#"[{"edit":"add-net","name":"spur","kind":"signal"},
        {"edit":"add-device","name":"mspur","kind":"nmos",
         "gate":0,"drain":1,"source":2,"bulk":3,"w":1.0e-6,"l":3.5e-7}]"#,
];

/// Runs the same session + edit stream in-process and returns the
/// signoff serialization — the reference the daemon must match byte
/// for byte.
fn in_process_signoff(design: &str, stream: &[&str]) -> String {
    let process = Process::strongarm_035();
    let mut session = Session::open(design, &process).expect("registry design");
    for step in stream {
        let v: Value = serde_json::from_str(step).expect("edit json");
        let edits = cbv_serve::edits_from_json(&v).expect("edit vocabulary");
        session.apply_batch(&edits).expect("edit applies");
    }
    let service = FlowService::new(process, FlowConfig::default());
    service
        .verify(session.netlist().clone(), None, None)
        .signoff_json
}

#[test]
fn one_client_signoff_is_byte_identical_to_in_process() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    client.open("dcvsl").expect("open");
    let mut last = None;
    for step in ECO_STREAM {
        last = Some(client.eco(step, None).expect("eco step"));
    }
    let remote = last.expect("at least one step").signoff_raw;
    assert_eq!(remote, in_process_signoff("dcvsl", ECO_STREAM));
    server.shutdown();
}

#[test]
fn racing_clients_all_get_byte_identical_signoffs() {
    // Workers > 1 so jobs genuinely interleave in the shared cache.
    let server = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let addr = server.addr();
    let reference = in_process_signoff("ripple2", ECO_STREAM);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..4)
            .map(|_| {
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect");
                    client.open("ripple2").expect("open");
                    let mut last = None;
                    for step in ECO_STREAM {
                        last = Some(client.eco(step, None).expect("eco step"));
                    }
                    last.expect("steps ran").signoff_raw
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().expect("client thread"), reference);
        }
    });
    server.shutdown();
}

#[test]
fn faulted_design_fails_signoff_with_byte_identical_findings() {
    // A ×0.05 width shrink is an E16-grade electrical fault: the
    // remote signoff must *fail*, with the same bytes (same findings,
    // same counts) the in-process flow reports.
    let fault = r#"{"edit":"op","op":{"op":"width-scale","factor":0.05},"site":{"site":"device","device":0}}"#;
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    client.open("dcvsl").expect("open");
    let verdict = client.eco(fault, None).expect("eco");
    assert!(!verdict.clean, "the shrunken device must fail signoff");
    assert!(verdict.violations > 0);
    assert_eq!(verdict.signoff_raw, in_process_signoff("dcvsl", &[fault]));
    server.shutdown();
}

#[test]
fn uploaded_spice_deck_signs_off_like_the_in_process_flatten() {
    let deck = "\
* tiny inverter
.SUBCKT INV IN OUT VDD VSS
MP OUT IN VDD VDD PMOS W=2u L=0.35u
MN OUT IN VSS VSS NMOS W=1u L=0.35u
.ENDS
";
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    let devices = client.upload("mine", deck, "INV").expect("upload");
    assert_eq!(devices, 2);
    let remote = client.signoff(None).expect("signoff").signoff_raw;

    let session = Session::from_spice("mine", deck, "INV").expect("local flatten");
    let service = FlowService::new(Process::strongarm_035(), FlowConfig::default());
    let local = service
        .verify(session.netlist().clone(), None, None)
        .signoff_json;
    assert_eq!(remote, local);
    server.shutdown();
}

#[test]
fn rollback_then_signoff_reproduces_the_seed_signoff() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    client.open("dcvsl").expect("open");
    let seed = client.signoff(None).expect("seed signoff");
    assert_eq!(seed.revision, 0);
    let edited = client.eco(ECO_STREAM[0], None).expect("eco");
    assert_eq!(edited.revision, 1);
    assert_ne!(edited.signoff_raw, seed.signoff_raw, "the edit must matter");
    assert_eq!(client.rollback(0).expect("rollback"), 0);
    let back = client.signoff(None).expect("rolled-back signoff");
    assert_eq!(back.signoff_raw, seed.signoff_raw);
    // The rolled-back netlist is fingerprint-identical to the seed, so
    // the shared cache primed at revision 0 answers everything.
    assert_eq!(back.cache_misses, 0, "rollback must hit the seed's cache");
    server.shutdown();
}

#[test]
fn eco_leaving_bad_geometry_is_rejected_and_the_revision_holds() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    client.open("dcvsl").expect("open");
    assert_eq!(client.eco(ECO_STREAM[0], None).expect("eco").revision, 1);
    let negative = r#"{"edit":"op","op":{"op":"width-scale","factor":-1.0},"site":{"site":"device","device":0}}"#;
    match client.eco(negative, None) {
        Err(ClientError::Rejected {
            error,
            retry_after_ms: None,
        }) => assert!(error.contains("geometry must be positive"), "{error}"),
        other => panic!("expected a geometry rejection, got {other:?}"),
    }
    let after = client.signoff(None).expect("signoff after the rejection");
    assert_eq!(
        after.revision, 1,
        "a rejected edit does not move the revision"
    );
    assert_eq!(
        after.signoff_raw,
        in_process_signoff("dcvsl", &ECO_STREAM[..1])
    );
    server.shutdown();
}

/// Sends raw bytes, then checks the daemon still serves a fresh client.
fn poke_and_verify_daemon_survives(addr: std::net::SocketAddr, poke: impl FnOnce(&mut TcpStream)) {
    let mut stream = TcpStream::connect(addr).expect("connect raw");
    poke(&mut stream);
    drop(stream);
    let mut client = Client::connect(addr).expect("daemon gone after hostile frame");
    client.open("sr-latch").expect("open after hostile frame");
    let v = client.signoff(None).expect("signoff after hostile frame");
    assert!(!v.signoff_raw.is_empty());
}

#[test]
fn hostile_frames_never_take_the_daemon_down() {
    let server = default_server();
    let addr = server.addr();

    // Valid frame, invalid JSON: error reply, connection stays usable.
    poke_and_verify_daemon_survives(addr, |s| {
        write_frame(s, "this is not json").expect("write");
        let reply = read_frame(s).expect("read").expect("reply");
        assert!(reply.contains("\"ok\":false"), "got: {reply}");
        assert!(reply.contains("bad json"), "got: {reply}");
    });

    // Valid JSON, no "req": error reply echoing the id.
    poke_and_verify_daemon_survives(addr, |s| {
        write_frame(s, "{\"id\":7}").expect("write");
        let reply = read_frame(s).expect("read").expect("reply");
        assert!(reply.contains("\"id\":7"), "got: {reply}");
        assert!(reply.contains("missing \\\"req\\\""), "got: {reply}");
    });

    // Non-UTF-8 payload: framing error reply, then teardown.
    poke_and_verify_daemon_survives(addr, |s| {
        s.write_all(&v2_header(2)).expect("write");
        s.write_all(&[0xff, 0xfe]).expect("write");
        let reply = read_frame(s).expect("read").expect("reply");
        assert!(reply.contains("bad frame"), "got: {reply}");
    });

    // Oversized length prefix: rejected before any allocation.
    poke_and_verify_daemon_survives(addr, |s| {
        s.write_all(&v2_header(64 * 1024 * 1024)).expect("write");
        let reply = read_frame(s).expect("read").expect("reply");
        assert!(reply.contains("bad frame"), "got: {reply}");
    });

    // A v1-era peer: raw length prefix, no magic. Must be refused as
    // alien bytes, never interpreted as a length.
    poke_and_verify_daemon_survives(addr, |s| {
        s.write_all(&7u32.to_be_bytes()).expect("write");
        s.write_all(b"{\"a\":1}").expect("write");
        let reply = read_frame(s).expect("read").expect("reply");
        assert!(reply.contains("bad frame magic"), "got: {reply}");
    });

    // Right magic, wrong protocol version: the mismatch is named.
    poke_and_verify_daemon_survives(addr, |s| {
        let mut h = FRAME_MAGIC.to_vec();
        h.push(PROTO_VERSION + 1);
        h.extend_from_slice(&2u32.to_be_bytes());
        h.extend_from_slice(b"{}");
        s.write_all(&h).expect("write");
        let reply = read_frame(s).expect("read").expect("reply");
        assert!(reply.contains("protocol version mismatch"), "got: {reply}");
    });

    // Half-closed mid-frame: header promises 100 bytes, 10 arrive, then
    // the write side closes. The handler must tear down, not hang.
    poke_and_verify_daemon_survives(addr, |s| {
        s.write_all(&v2_header(100)).expect("write");
        s.write_all(&[b'x'; 10]).expect("write");
        s.shutdown(Shutdown::Write).expect("half-close");
        // Best-effort error reply or clean close — either is fine; the
        // daemon surviving is the property under test.
        let _ = read_frame(s);
    });

    server.shutdown();
}

/// A v2 frame header (magic + version + length) with an arbitrary
/// length — for hand-rolling hostile frames.
fn v2_header(len: u32) -> Vec<u8> {
    let mut h = FRAME_MAGIC.to_vec();
    h.push(PROTO_VERSION);
    h.extend_from_slice(&len.to_be_bytes());
    h
}

#[test]
fn mid_job_disconnect_is_survivable() {
    let server = default_server();
    let addr = server.addr();
    {
        // Fire an ECO and vanish without reading the reply: the worker
        // finishes the job against a dead reply channel and the handler
        // fails its write — neither may panic the daemon.
        let mut raw = TcpStream::connect(addr).expect("connect raw");
        write_frame(&mut raw, "{\"req\":\"open\",\"design\":\"dcvsl\",\"id\":1}").expect("write");
        let _ = read_frame(&mut raw).expect("open reply");
        write_frame(
            &mut raw,
            &format!("{{\"req\":\"eco\",\"edits\":{},\"id\":2}}", ECO_STREAM[0]),
        )
        .expect("write");
        drop(raw); // gone before the verdict comes back
    }
    let mut client = Client::connect(addr).expect("connect after disconnect");
    client.open("dcvsl").expect("open after disconnect");
    assert!(client.signoff(None).is_ok());
    server.shutdown();
}

#[test]
fn zero_capacity_queue_rejects_with_retry_after_and_rolls_back() {
    let server = start(ServerConfig {
        queue_capacity: 0,
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    client.open("dcvsl").expect("open");
    // Every verification request bounces with the back-off hint ...
    match client.eco(ECO_STREAM[0], None) {
        Err(ClientError::Rejected {
            retry_after_ms: Some(ms),
            ..
        }) => assert_eq!(ms, RETRY_AFTER_MS),
        other => panic!("expected a retryable rejection, got {other:?}"),
    }
    assert!(client.signoff(None).err().is_some_and(|e| e.is_retryable()));
    // ... the rejected batch was rolled back (a retry replays the same
    // stream against the same revision) ...
    assert_eq!(client.rollback(0).expect("rollback"), 0);
    // ... and the control plane still answers.
    let stats: Value = serde_json::from_str(&client.stats().expect("stats")).expect("stats json");
    assert!(stats.get("rejected_queue_full").and_then(Value::as_u64) >= Some(2));
    assert_eq!(stats.get("queue_capacity").and_then(Value::as_u64), Some(0));
    server.shutdown();
}

#[test]
fn expired_deadline_rejects_before_verification() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    client.open("dcvsl").expect("open");
    // `deadline_ms: 0` has expired by the time a worker dequeues it —
    // the deterministic rejection path (the in-flow cooperative check
    // is covered by the core flow tests).
    match client.signoff(Some(0)) {
        Err(ClientError::Rejected { error, .. }) => {
            assert!(error.contains("deadline"), "got: {error}")
        }
        other => panic!("expected a deadline rejection, got {other:?}"),
    }
    let stats: Value = serde_json::from_str(&client.stats().expect("stats")).expect("stats json");
    assert!(stats.get("rejected_deadline").and_then(Value::as_u64) >= Some(1));
    // The session is intact: a deadline-free retry succeeds.
    assert!(client.signoff(None).is_ok());
    server.shutdown();
}

#[test]
fn requests_error_cleanly_without_a_session() {
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    for result in [
        client.eco(ECO_STREAM[0], None).err().map(|e| e.to_string()),
        client.signoff(None).err().map(|e| e.to_string()),
        client.rollback(0).err().map(|e| e.to_string()),
    ] {
        let message = result.expect("must be rejected");
        assert!(message.contains("no session"), "got: {message}");
    }
    assert!(
        matches!(client.restore("missing"), Err(ClientError::Rejected { .. })),
        "unknown snapshot names are rejected"
    );
    assert!(client.open("no-such-design").is_err());
    assert!(
        client.open("ripple2").is_ok(),
        "session still opens after errors"
    );
    server.shutdown();
}

#[test]
fn malformed_uploads_are_rejected_at_the_door() {
    // The deck parses and flattens fine but holds no devices at all:
    // the interchange validator refuses it at the door, before the
    // session ever reaches recognition.
    let deck = "\
.SUBCKT BAD A B
.ENDS
";
    let server = default_server();
    let mut client = Client::connect(server.addr()).expect("connect");
    match client.upload("bad", deck, "BAD") {
        Err(ClientError::Rejected { error, .. }) => {
            assert!(error.contains("invalid design"), "got: {error}");
            assert!(error.contains("empty-design"), "got: {error}");
        }
        other => panic!("expected a validation rejection, got {other:?}"),
    }
    // The connection survives the rejection and a good deck still opens.
    assert!(client.open("dcvsl").is_ok());
    server.shutdown();
}

#[test]
fn corrupt_state_file_fails_daemon_startup() {
    let dir = std::env::temp_dir().join(format!("cbv-serve-badstate-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let state_path = dir.join("bad.state").to_str().expect("utf8").to_owned();
    std::fs::write(&state_path, "{\"format\":\"cbv-state/9000\"}").expect("write");
    match serve(ServerConfig {
        state_path: Some(state_path.clone()),
        ..ServerConfig::default()
    }) {
        Err(err) => assert!(err.to_string().contains("bad.state"), "got: {err}"),
        Ok(_) => panic!("a corrupt state file must fail startup, not half-load"),
    }
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

/// A restart must bring the whole tier back. Every fresh cache starts
/// at a 2,048-entry bound, while the daemon's tier holds 4,096: a state
/// file saved from a tier filled past 2,048 has to load in full, and
/// the next save has to write every entry back byte for byte.
#[test]
fn a_tier_filled_past_2048_survives_a_restart_whole() {
    use cbv_core::cache::{CacheKey, UnitResult, VerifyCache};
    use cbv_serve::{state_from_json, state_to_json};

    const ENTRIES: u64 = 3_000;
    let capacity = ServerConfig::default().cache_capacity;
    assert!(ENTRIES as usize > VerifyCache::new().capacity() && ENTRIES as usize <= capacity);
    let mut tier = VerifyCache::with_capacity(capacity);
    for i in 0..ENTRIES {
        let key = CacheKey {
            env: 7,
            content: i.wrapping_mul(0x9E37_79B9_7F4A_7C15),
            binding: i,
        };
        let result = UnitResult {
            checked: i as u32,
            filtered: (i / 2) as u32,
            ..UnitResult::default()
        };
        tier.insert(key, result);
    }
    let tier_json = tier.to_json();

    let dir = std::env::temp_dir().join(format!("cbv-serve-bigtier-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("temp dir");
    let state_path = dir.join("big.state").to_str().expect("utf8").to_owned();
    std::fs::write(&state_path, state_to_json(&Default::default(), &tier_json)).expect("write");

    let server = start(ServerConfig {
        state_path: Some(state_path.clone()),
        ..ServerConfig::default()
    });
    let mut client = Client::connect(server.addr()).expect("connect");
    let stats: Value = serde_json::from_str(&client.stats().expect("stats")).expect("stats json");
    assert_eq!(
        stats.get("cache_entries").and_then(Value::as_u64),
        Some(ENTRIES)
    );
    // Saving rewrites the state file from the live tier.
    client.open("dcvsl").expect("open");
    client.save("s").expect("save");
    server.shutdown();

    let text = std::fs::read_to_string(&state_path).expect("read state");
    let (_, restored) = state_from_json(&text).expect("state parses");
    let restored = restored.expect("the state carries the tier");
    assert_eq!(restored.len(), ENTRIES as usize);
    assert_eq!(restored.to_json(), tier_json, "every entry's bytes");
    std::fs::remove_dir_all(&dir).expect("cleanup");
}

#[test]
fn remote_shutdown_drains_and_joins() {
    let server = default_server();
    let addr = server.addr();
    let mut client = Client::connect(addr).expect("connect");
    client.open("dcvsl").expect("open");
    client.signoff(None).expect("signoff before drain");
    client.shutdown().expect("shutdown handshake");
    // join() returns only after the accept loop, workers, and every
    // handler exit — a hang here is the test failure.
    server.join();
}
