//! E19 — the verification farm: signoff throughput vs worker count.
//!
//! §6's methodology runs final verification as a compute-farm job —
//! hundreds of workstations chewing through the checking workload
//! overnight. E19 measures the repo's farm form of that loop: W
//! loopback worker daemons, W designer streams each replaying the same
//! M-step ECO walk through its own coordinator, every coordinator
//! sharing one content-addressed cache tier. The tier is the farm's
//! force multiplier: the first stream to miss a unit pays for it once,
//! every other stream's verify of that revision is a tier hit that
//! never crosses the wire. Reported per load point: aggregate
//! signoff/s, p50/p99 signoff latency, the shared-tier hit rate, wire
//! traffic (remote vs local units, steals, busy retries), and the
//! byte-identity bit against an in-process replay.
//!
//! Three sharing layers stack: the unit tier (a warm unit never
//! recomputes), prep sharing (W streams of one revision build the
//! serial prep once), and single-flight coalescing (a stream that
//! arrives while another is computing a unit waits for that result
//! instead of dispatching its own — the "coalesced" column).

use std::sync::Arc;
use std::time::Instant;

use cbv_core::flow::FlowConfig;
use cbv_core::service::FlowService;
use cbv_core::tech::Process;
use cbv_serve::{serve, Farm, FarmConfig, ServerConfig, Session};
use serde_json::Value;

use crate::e17_serve::eco_step;

/// One load point: W workers serving W concurrent coordinator streams.
pub struct FarmPoint {
    /// Worker daemons (and concurrent designer streams).
    pub workers: usize,
    /// ECO steps per stream.
    pub steps: usize,
    /// Wall-clock for the whole load, seconds.
    pub wall_s: f64,
    /// Aggregate signoffs per second across all streams.
    pub throughput: f64,
    /// Median signoff latency, milliseconds.
    pub p50_ms: f64,
    /// 99th-percentile signoff latency, milliseconds.
    pub p99_ms: f64,
    /// Shared-tier hit rate across every verify's everify stage.
    pub hit_rate: f64,
    /// Unit results fetched over the wire.
    pub remote_units: u64,
    /// Unit results computed by coordinator fallback.
    pub local_units: u64,
    /// Unit results coalesced from another stream's in-flight
    /// computation (single-flight on the shared tier).
    pub coalesced: u64,
    /// Straggler batches stolen.
    pub stolen: u64,
    /// Queue-full rejections retried through with jitter.
    pub busy_retries: u64,
    /// Every stream's final signoff matched the in-process replay.
    pub byte_identical: bool,
}

/// In-process replay of the walk — the byte-identity reference.
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

struct StreamRun {
    latencies_ms: Vec<f64>,
    hits: u64,
    misses: u64,
    final_signoff: String,
}

fn percentile(sorted_ms: &[f64], p: f64) -> f64 {
    if sorted_ms.is_empty() {
        return 0.0;
    }
    let idx = ((sorted_ms.len() as f64 - 1.0) * p).round() as usize;
    sorted_ms[idx]
}

/// Runs one load point: `workers` daemons, `workers` streams, `steps`
/// ECOs each, one shared cache tier.
fn run_farm_load(design: &str, workers: usize, steps: usize) -> FarmPoint {
    let daemons: Vec<_> = (0..workers)
        .map(|_| serve(ServerConfig::default()).expect("bind worker daemon"))
        .collect();
    let addrs: Vec<String> = daemons.iter().map(|d| d.addr().to_string()).collect();
    let service = Arc::new(FlowService::new(
        Process::strongarm_035(),
        FlowConfig::default(),
    ));
    let process = Process::strongarm_035();
    let n_devices = Session::open(design, &process)
        .expect("registry design")
        .netlist()
        .devices()
        .len();
    let reference = reference_signoff(design, steps);

    // Stream-farm stats accumulate per farm; collect them via a second
    // channel: each stream returns its verify-level numbers, the farms'
    // wire counters are summed after the scope joins.
    let wire = std::sync::Mutex::new((0u64, 0u64, 0u64, 0u64, 0u64));
    let t0 = Instant::now();
    let runs: Vec<StreamRun> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let farm = Farm::new(
                        Arc::clone(&service),
                        FarmConfig {
                            workers: addrs.clone(),
                            ..FarmConfig::default()
                        },
                    );
                    let mut run = StreamRun {
                        latencies_ms: Vec::with_capacity(steps),
                        hits: 0,
                        misses: 0,
                        final_signoff: String::new(),
                    };
                    let mut prefix: Vec<String> = Vec::with_capacity(steps);
                    for step in 0..steps {
                        prefix.push(eco_step(step, n_devices));
                        let t = Instant::now();
                        let (_report, verdict) = farm.verify(design, &prefix).expect("farm verify");
                        run.latencies_ms.push(t.elapsed().as_secs_f64() * 1e3);
                        run.hits += verdict.cache.hits as u64;
                        run.misses += verdict.cache.misses as u64;
                        run.final_signoff = verdict.signoff_json;
                    }
                    let s = farm.stats();
                    let mut w = wire.lock().expect("wire stats");
                    w.0 += s.remote_units;
                    w.1 += s.local_units;
                    w.2 += s.stolen_batches;
                    w.3 += s.busy_retries;
                    w.4 += s.coalesced_units;
                    run
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("stream thread"))
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    for d in daemons {
        d.shutdown();
    }

    let mut latencies: Vec<f64> = runs.iter().flat_map(|r| r.latencies_ms.clone()).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latencies"));
    let hits: u64 = runs.iter().map(|r| r.hits).sum();
    let misses: u64 = runs.iter().map(|r| r.misses).sum();
    let (remote_units, local_units, stolen, busy_retries, coalesced) =
        *wire.lock().expect("wire stats");
    FarmPoint {
        workers,
        steps,
        wall_s,
        throughput: (workers * steps) as f64 / wall_s,
        p50_ms: percentile(&latencies, 0.50),
        p99_ms: percentile(&latencies, 0.99),
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
        remote_units,
        local_units,
        coalesced,
        stolen,
        busy_retries,
        byte_identical: runs.iter().all(|r| r.final_signoff == reference),
    }
}

/// Prints the E19 table (the EXPERIMENTS.md protocol).
pub fn print() {
    crate::banner(
        "E19",
        "verification farm: signoff/s vs worker count (ripple4)",
    );
    // Discarded warmup so the W=1 row (which runs first) is not
    // penalized by process cold-start.
    run_farm_load("ripple4", 1, 2);
    println!(
        "{:>8}{:>7}{:>10}{:>11}{:>10}{:>10}{:>9}{:>8}{:>10}{:>11}",
        "workers",
        "steps",
        "wall",
        "signoff/s",
        "p50",
        "p99",
        "tier",
        "wire",
        "coalesced",
        "identical"
    );
    for workers in [1usize, 2, 4, 8] {
        let pt = run_farm_load("ripple4", workers, 6);
        println!(
            "{:>8}{:>7}{:>9.2}s{:>11.2}{:>8.1}ms{:>8.1}ms{:>8.0}%{:>8}{:>10}{:>11}",
            pt.workers,
            pt.steps,
            pt.wall_s,
            pt.throughput,
            pt.p50_ms,
            pt.p99_ms,
            pt.hit_rate * 100.0,
            pt.remote_units,
            pt.coalesced,
            if pt.byte_identical { "yes" } else { "NO" },
        );
    }
    println!("\n(W workers serve W concurrent streams replaying the same 6-step");
    println!(" walk through one shared content-addressed tier; \"tier\" is the");
    println!(" shared-tier hit rate, \"wire\" the unit results that actually");
    println!(" crossed a socket, \"coalesced\" the units answered by waiting on");
    println!(" another stream's in-flight computation.)");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn farm_load_stays_sound_and_warm() {
        // ripple4, not dcvsl: the walk must dirty a strict subset of
        // the units or the shared tier has nothing to answer.
        let one = run_farm_load("ripple4", 1, 2);
        let pt = run_farm_load("ripple4", 2, 2);
        assert_eq!(pt.workers, 2);
        assert!(pt.byte_identical, "farm signoffs must match the replay");
        assert!(pt.throughput > 0.0 && pt.wall_s > 0.0);
        assert!(pt.p99_ms >= pt.p50_ms);
        assert!(
            pt.hit_rate > 0.0,
            "shared tier never hit across {} verifies",
            pt.workers * pt.steps
        );
        // The shared tier computes each unit once, however many
        // streams walk it: a second stream adds no unit to the wire or
        // the fallback. (The coalesced count depends on scheduling and
        // is not asserted.)
        assert_eq!(
            pt.remote_units + pt.local_units,
            one.remote_units + one.local_units,
            "units computed at W=2 vs W=1"
        );
    }
}
