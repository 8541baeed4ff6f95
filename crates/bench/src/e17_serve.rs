//! E17 — the verification daemon under concurrent ECO load.
//!
//! §2 sizes the methodology for "hundreds of designers" iterating
//! against a shared verification filter. E17 measures the service form
//! of that loop: a loopback `cbv-serve` daemon, K clients each
//! streaming an M-step ECO walk over the same seed design, every step
//! answered with an incremental signoff from the shared bounded cache.
//! Reported: request throughput, p50/p99 signoff latency, and the
//! shared-cache hit rate — plus the protocol's headline soundness bit,
//! whether every client's final signoff was byte-identical to an
//! in-process `run_flow_incremental` replay of the same stream.

use std::time::Instant;

use cbv_core::flow::FlowConfig;
use cbv_core::service::FlowService;
use cbv_core::tech::Process;
use cbv_serve::{serve, Client, ServerConfig, Session};
use serde_json::Value;

/// One load point: K clients × M ECO steps against one daemon.
pub struct ServePoint {
    /// Concurrent clients.
    pub clients: usize,
    /// ECO steps (verification requests) per client.
    pub steps: usize,
    /// Worker threads the daemon ran.
    pub workers: usize,
    /// Wall-clock for the whole load, seconds.
    pub wall_s: f64,
    /// Signoffs per second across all clients.
    pub throughput: f64,
    /// Median signoff latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile signoff latency, milliseconds.
    pub p99_ms: f64,
    /// Shared-cache hit rate across every request's everify stage.
    pub hit_rate: f64,
    /// Queue-full rejections clients had to retry through.
    pub retries: usize,
    /// Every client's final signoff matched the in-process replay.
    pub byte_identical: bool,
}

/// The M-step edit stream every client replays: step k width-scales a
/// deterministic device, so all clients walk identical revisions.
pub fn eco_step(step: usize, n_devices: usize) -> String {
    let device = (step * 97 + 13) % n_devices;
    format!(
        "{{\"edit\":\"op\",\"op\":{{\"op\":\"width-scale\",\"factor\":1.02}},\
         \"site\":{{\"site\":\"device\",\"device\":{device}}}}}"
    )
}

/// In-process replay of the same stream — the byte-identity reference.
fn reference_signoff(design: &str, steps: usize) -> String {
    let process = Process::strongarm_035();
    let mut session = Session::open(design, &process).expect("registry design");
    let n_devices = session.netlist().devices().len();
    for step in 0..steps {
        let v: Value = serde_json::from_str(&eco_step(step, n_devices)).expect("edit json");
        let edits = cbv_serve::edits_from_json(&v).expect("edit vocabulary");
        session.apply_batch(&edits).expect("edit applies");
    }
    let service = FlowService::new(process, FlowConfig::default());
    service
        .verify(session.netlist().clone(), None, None)
        .signoff_json
}

struct ClientRun {
    latencies_ms: Vec<f64>,
    hits: usize,
    misses: usize,
    retries: usize,
    final_signoff: String,
}

fn drive_client(addr: std::net::SocketAddr, design: &str, steps: usize) -> ClientRun {
    let mut client = Client::connect(addr).expect("connect");
    let devices = client.open(design).expect("open");
    let mut run = ClientRun {
        latencies_ms: Vec::with_capacity(steps),
        hits: 0,
        misses: 0,
        retries: 0,
        final_signoff: String::new(),
    };
    for step in 0..steps {
        let edit = eco_step(step, devices);
        let t0 = Instant::now();
        let verdict = loop {
            match client.eco(&edit, None) {
                Ok(v) => break v,
                Err(e) if e.is_retryable() => {
                    run.retries += 1;
                    std::thread::sleep(std::time::Duration::from_millis(1));
                }
                Err(e) => panic!("eco step {step}: {e}"),
            }
        };
        run.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
        run.hits += verdict.cache_hits;
        run.misses += verdict.cache_misses;
        run.final_signoff = verdict.signoff_raw;
    }
    run
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// Runs one load point: a fresh daemon, `clients` threads each
/// streaming `steps` ECOs over `design`.
fn run_load(design: &str, clients: usize, steps: usize, workers: usize) -> ServePoint {
    let server = serve(ServerConfig {
        workers,
        ..ServerConfig::default()
    })
    .expect("bind loopback daemon");
    let addr = server.addr();
    let reference = reference_signoff(design, steps);

    let t0 = Instant::now();
    let runs: Vec<ClientRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| scope.spawn(move || drive_client(addr, design, steps)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    server.shutdown();

    let mut latencies: Vec<f64> = runs.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let hits: usize = runs.iter().map(|r| r.hits).sum();
    let misses: usize = runs.iter().map(|r| r.misses).sum();
    ServePoint {
        clients,
        steps,
        workers,
        wall_s,
        throughput: (clients * steps) as f64 / wall_s,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        retries: runs.iter().map(|r| r.retries).sum(),
        byte_identical: runs.iter().all(|r| r.final_signoff == reference),
    }
}

/// Prints the E17 table (the EXPERIMENTS.md protocol).
pub fn print() {
    crate::banner(
        "E17",
        "verification daemon under concurrent ECO load (ripple4)",
    );
    println!(
        "{:>8}{:>7}{:>9}{:>10}{:>11}{:>10}{:>10}{:>9}{:>11}",
        "clients", "steps", "workers", "wall", "signoff/s", "p50", "p99", "hits", "identical"
    );
    for (clients, workers) in [(1, 1), (2, 2), (4, 2), (4, 4)] {
        let pt = run_load("ripple4", clients, 6, workers);
        println!(
            "{:>8}{:>7}{:>9}{:>9.2}s{:>11.1}{:>8.1}ms{:>8.1}ms{:>8.0}%{:>11}",
            pt.clients,
            pt.steps,
            pt.workers,
            pt.wall_s,
            pt.throughput,
            pt.p50_ms,
            pt.p99_ms,
            pt.hit_rate * 100.0,
            if pt.byte_identical { "yes" } else { "NO" },
        );
    }
    println!("\n(each client streams the same 6-step width-scale ECO walk over");
    println!(" ripple4; \"hits\" is the shared-cache hit rate across every");
    println!(" request's everify stage; \"identical\" compares every client's");
    println!(" final signoff byte-for-byte against an in-process replay.)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn concurrent_load_stays_sound_and_warm() {
        let pt = run_load("dcvsl", 2, 2, 2);
        assert_eq!(pt.clients, 2);
        assert!(pt.byte_identical, "remote signoffs must match the replay");
        assert!(pt.throughput > 0.0 && pt.wall_s > 0.0);
        assert!(pt.p99_ms >= pt.p50_ms);
        // Later requests replay revisions earlier ones primed. How many
        // is scheduling-dependent (two racing clients can miss the same
        // unit simultaneously), so only the direction is asserted.
        assert!(
            pt.hit_rate > 0.0,
            "shared cache never hit across {} requests",
            pt.clients * pt.steps
        );
    }
}
