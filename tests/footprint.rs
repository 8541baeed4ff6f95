//! Footprint gate for the verification daemon (`cbv-serve`).
//!
//! A daemon lives inside the designer's edit loop for thousands of ECOs
//! per session, so what one step costs it must not depend on how many
//! steps came before. Two lockstep clients walk a long seeded
//! one-device stream through an in-process daemon, and the gate checks
//! the three places a step can leave something behind — in **counts
//! only**, never a wall-clock or RSS ratio:
//!
//! * the shared tier stays within the default capacity;
//! * a request copies out of the tier at most the entries its own design
//!   names (one per unit), however large the tier has grown;
//! * a session's revision history stays under 100 bytes per step.
//!
//! The signoff the walk ends on must still be byte-identical to the
//! in-process replay.
//!
//! A second walk holds the first of those bounds where it is hardest to
//! keep: more closed-loop clients than workers, so the queue is never
//! empty, counting everything the daemon holds for the cache — in the
//! tier or beside it — on every poll.

use cbv_core::flow::FlowConfig;
use cbv_core::scatter::PreparedDesign;
use cbv_core::service::FlowService;
use cbv_core::tech::Process;
use cbv_serve::{edits_from_json, serve, Client, ServerConfig, Session};
use serde_json::Value;

const DESIGN: &str = "ripple2";
const STEPS: usize = 2_000;
const CLIENTS: usize = 2;
/// The target the session layout is held to, bytes per one-edit step.
const SESSION_BYTES_PER_STEP: usize = 100;
/// The saturated walk: clients (four per default worker), steps each,
/// and a tier bound their fresh entries overrun many times over.
const SATURATED_CLIENTS: usize = 8;
const SATURATED_STEPS: usize = 60;
const SATURATED_CAPACITY: usize = 256;

/// Step `k` of the stream: one device's width scaled by about 3 %, up
/// or down so that no device drifts far. Every step has its own factor,
/// so the walk never returns to a revision the tier has seen.
fn step(k: usize, devices: usize, drift: &mut [i32], state: &mut u64) -> String {
    *state = state
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    let device = (*state >> 33) as usize % devices;
    let up = match drift[device] {
        d if d > 4 => false,
        d if d < -4 => true,
        _ => *state >> 63 == 1,
    };
    drift[device] += if up { 1 } else { -1 };
    let by = 0.03 + k as f64 * 1e-6;
    let factor = if up { 1.0 + by } else { 1.0 - by };
    format!(
        "{{\"edit\":\"op\",\"op\":{{\"op\":\"width-scale\",\"factor\":{factor:?}}},\
         \"site\":{{\"site\":\"device\",\"device\":{device}}}}}"
    )
}

fn stat(stats: &Value, name: &str) -> u64 {
    stats
        .get(name)
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("stats reply has no {name}"))
}

fn stats(ctl: &mut Client) -> Value {
    serde_json::from_str(&ctl.stats().expect("stats")).expect("stats json")
}

#[test]
fn a_long_lockstep_session_keeps_a_flat_footprint() {
    let capacity = ServerConfig::default().cache_capacity as u64;
    let server = serve(ServerConfig::default()).expect("bind loopback daemon");
    let mut ctl = Client::connect(server.addr()).expect("connect control client");
    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|_| Client::connect(server.addr()).expect("connect client"))
        .collect();
    let devices = clients
        .iter_mut()
        .map(|c| c.open(DESIGN).expect("open"))
        .last()
        .expect("clients");

    // The in-process mirror of the sessions, and from it the most a
    // request may copy: one entry per unit.
    let process = Process::strongarm_035();
    let mut mirror = Session::open(DESIGN, &process).expect("registry design");
    let per_request = {
        let netlist = mirror.netlist().clone();
        let prep = PreparedDesign::build(netlist, &process, &FlowConfig::default());
        prep.n_units() as u64
    };

    let mut drift = vec![0i32; devices];
    let mut state = 0xF007_u64;
    let mut last: Vec<String> = Vec::new();
    let (mut batches, mut fetched) = (0, 0);
    for k in 0..STEPS {
        let edit = step(k, devices, &mut drift, &mut state);
        last = std::thread::scope(|scope| {
            let handles: Vec<_> = clients
                .iter_mut()
                .map(|client| {
                    let edit = &edit;
                    scope.spawn(move || client.eco(edit, None).expect("eco step").signoff_raw)
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread"))
                .collect()
        });
        let v: Value = serde_json::from_str(&edit).expect("edit json");
        mirror
            .apply_batch(&edits_from_json(&v).expect("edit vocabulary"))
            .expect("edit applies");

        let now = stats(&mut ctl);
        assert!(
            stat(&now, "cache_entries") <= capacity,
            "step {k}: the tier outgrew its bound"
        );
        let (b, f) = (
            stat(&now, "cache_fetches"),
            stat(&now, "cache_fetched_entries"),
        );
        assert_eq!(b - batches, CLIENTS as u64, "step {k}: one fetch a request");
        assert!(
            f - fetched <= CLIENTS as u64 * per_request,
            "step {k}: {} entries copied for {CLIENTS} requests of a {per_request}-key design",
            f - fetched
        );
        (batches, fetched) = (b, f);
    }

    // The bound was exercised, not merely never reached.
    assert!(stat(&stats(&mut ctl), "cache_evictions") > 0);
    assert_eq!(mirror.revision(), STEPS as u64);
    assert!(
        mirror.history_bytes() <= SESSION_BYTES_PER_STEP * STEPS,
        "{} bytes of history for {STEPS} one-edit steps",
        mirror.history_bytes()
    );

    let reference = FlowService::new(process, FlowConfig::default())
        .verify(mirror.netlist().clone(), None, None)
        .signoff_json;
    for signoff in &last {
        assert_eq!(signoff, &reference);
    }
    server.shutdown();
}

#[test]
fn a_saturated_queue_keeps_the_tier_within_its_bound() {
    let config = ServerConfig {
        cache_capacity: SATURATED_CAPACITY,
        ..ServerConfig::default()
    };
    assert!(
        SATURATED_CLIENTS > config.workers,
        "the queue must stay busy"
    );
    let server = serve(config).expect("bind loopback daemon");
    let mut ctl = Client::connect(server.addr()).expect("connect control client");
    let process = Process::strongarm_035();

    std::thread::scope(|scope| {
        // Each client walks its own stream: its own seed, and its own
        // span of step indices, so no two clients share a factor.
        let walkers: Vec<_> = (0..SATURATED_CLIENTS)
            .map(|c| {
                let (addr, process) = (server.addr(), &process);
                scope.spawn(move || {
                    let mut client = Client::connect(addr).expect("connect client");
                    let devices = client.open(DESIGN).expect("open");
                    let mut mirror = Session::open(DESIGN, process).expect("registry design");
                    let mut drift = vec![0i32; devices];
                    let mut state = 0xF007_u64 + c as u64;
                    let mut last = String::new();
                    for k in 0..SATURATED_STEPS {
                        let k = c * SATURATED_STEPS + k;
                        let edit = step(k, devices, &mut drift, &mut state);
                        last = client.eco(&edit, None).expect("eco step").signoff_raw;
                        let v: Value = serde_json::from_str(&edit).expect("edit json");
                        mirror
                            .apply_batch(&edits_from_json(&v).expect("edit vocabulary"))
                            .expect("edit applies");
                    }
                    (last, mirror)
                })
            })
            .collect();

        // Everything the daemon holds for the cache, sampled for as long
        // as the queue is busy — not once it has gone quiet.
        while !walkers.iter().all(|w| w.is_finished()) {
            let now = stats(&mut ctl);
            let held = stat(&now, "cache_entries") + stat(&now, "cache_staged");
            assert!(
                held <= SATURATED_CAPACITY as u64,
                "{held} entries held against a bound of {SATURATED_CAPACITY}"
            );
        }

        let end = stats(&mut ctl);
        assert!(stat(&end, "cache_evictions") > 0, "the bound was exercised");
        let jobs = (SATURATED_CLIENTS * SATURATED_STEPS) as u64;
        assert_eq!(stat(&end, "jobs"), jobs);
        for walker in walkers {
            let (signoff, mirror) = walker.join().expect("client thread");
            assert_eq!(mirror.revision(), SATURATED_STEPS as u64);
            let reference = FlowService::new(process.clone(), FlowConfig::default())
                .verify(mirror.netlist().clone(), None, None)
                .signoff_json;
            assert_eq!(signoff, reference);
        }
    });
    server.shutdown();
}
