//! The equality matrix: every path that must equal cold `run_flow`
//! does, at every prefix of every row, at parallelism 1, 2 and 8.
//!
//! A **row** is a registry design (or the SPICE upload) plus a wire-edit
//! stream. Its reference at each prefix is cold [`run_flow`] on the
//! netlist the [`Session`] holds, at parallelism 1, 2, 8 and 0 (auto),
//! which must agree on the verdict, `Display` and `(stage, artifacts)`.
//! A **column** is one path and one `#[test]`, run at each parallelism
//! through `FlowConfig` or `ServerConfig`: owned cache, shared tier,
//! farm, daemon, and a daemon restored from its state file. Every cell
//! asserts the signoff bytes; the in-process columns also assert the
//! STA violations, the arrivals and `findings()` element by element —
//! a report holds its findings in one canonical order, so the cached
//! paths must store exactly cold's sequence. `scripts/check.sh` reruns
//! the suite under `CBV_THREADS=8`, so the reference's auto run takes
//! the environment path too.

use std::sync::{Arc, OnceLock};

use cbv_core::cache::{CacheStats, VerifyCache};
use cbv_core::flow::{run_flow, run_flow_incremental, FlowConfig, FlowReport};
use cbv_core::netlist::FlatNetlist;
use cbv_core::scatter::LocalBackend;
use cbv_core::service::FlowService;
use cbv_core::tech::Process;
use cbv_serve::{
    edits_from_json, serve, Client, Farm, FarmConfig, ServerConfig, ServerHandle, Session,
};

/// The explicit worker counts every column runs at.
const PARALLELISM: [usize; 3] = [1, 2, 8];

/// The SPICE row's deck, uploaded by name `inv` at top `INV`.
const INV_DECK: &str = "\
* tiny inverter
.SUBCKT INV IN OUT VDD VSS
MP OUT IN VDD VDD PMOS W=2u L=0.35u
MN OUT IN VSS VSS NMOS W=1u L=0.35u
.ENDS
";

/// A `cbv-mutate` operator step that only moves geometry.
const NUDGE: &str =
    r#"{"edit":"op","op":{"op":"width-scale","factor":1.25},"site":{"site":"device","device":0}}"#;

/// A raw resize.
const RESIZE: &str = r#"{"edit":"resize","device":1,"w":2.0e-6,"l":3.5e-7}"#;

/// An operator, a raw resize, a second operator elsewhere.
const ECO_STEPS: &[&str] = &[
    NUDGE,
    RESIZE,
    r#"{"edit":"op","op":{"op":"width-scale","factor":1.1},"site":{"site":"device","device":4}}"#,
];

/// An operator, a raw resize, and an add-net/add-device batch.
const ECO_STREAM: &[&str] = &[
    NUDGE,
    RESIZE,
    r#"[{"edit":"add-net","name":"spur","kind":"signal"},
        {"edit":"add-device","name":"mspur","kind":"nmos",
         "gate":0,"drain":1,"source":2,"bulk":3,"w":1.0e-6,"l":3.5e-7}]"#,
];

// Electrical faults, each one operator at a fixed site: a sub-minimum
// width; a domino keeper shrunk to a quarter (device 73 is the first
// carry chain's keeper); a gate length scaled to 0.6, a beta ratio
// skewed 12×, and a dynamic evaluate device widened 15× so it leaks
// (device 52 is domino4's first `gen_` evaluate device).
const WIDTH_X0_05: &str =
    r#"{"edit":"op","op":{"op":"width-scale","factor":0.05},"site":{"site":"device","device":0}}"#;
const KEEPER_SHRINK: &str = r#"{"edit":"op","op":{"op":"keeper-resize","w_factor":0.25,"l_factor":1.0},"site":{"site":"device","device":73}}"#;
const SUB_MIN_LENGTH: &str =
    r#"{"edit":"op","op":{"op":"length-scale","factor":0.6},"site":{"site":"device","device":3}}"#;
const BETA_SKEW: &str =
    r#"{"edit":"op","op":{"op":"beta-skew","factor":12.0},"site":{"site":"device","device":5}}"#;
const LEAKY_EVALUATE: &str =
    r#"{"edit":"op","op":{"op":"width-scale","factor":15.0},"site":{"site":"device","device":52}}"#;

/// One row of the matrix: the registry design (`None` is the uploaded
/// [`INV_DECK`]), a label for failure messages, the wire-edit batches in
/// the `cbv eco` vocabulary, and whether the stream ends in a design
/// that must fail signoff.
struct Row {
    design: Option<&'static str>,
    label: &'static str,
    steps: &'static [&'static str],
    faulted: bool,
}

const fn row(
    design: Option<&'static str>,
    label: &'static str,
    steps: &'static [&'static str],
    faulted: bool,
) -> Row {
    Row {
        design,
        label,
        steps,
        faulted,
    }
}

const ROWS: &[Row] = &[
    row(Some("ripple4"), "eco steps", ECO_STEPS, false),
    row(Some("ripple2"), "eco steps", ECO_STEPS, false),
    row(Some("ripple2"), "width x0.05", &[WIDTH_X0_05], true),
    row(Some("dcvsl"), "eco stream", ECO_STREAM, false),
    row(Some("ripple2"), "eco stream", ECO_STREAM, false),
    row(Some("domino4"), "keeper shrink", &[KEEPER_SHRINK], true),
    row(None, "inv", &[NUDGE], false),
    row(Some("alu4"), "sub-min length", &[SUB_MIN_LENGTH], true),
    row(Some("alu4"), "beta skew", &[BETA_SKEW], true),
    row(Some("domino4"), "leaky evaluate", &[LEAKY_EVALUATE], true),
    row(Some("cam8"), "nudge", &[NUDGE], false),
    row(Some("sr-latch"), "nudge", &[NUDGE], false),
];

fn config(parallelism: usize) -> FlowConfig {
    FlowConfig {
        parallelism,
        ..FlowConfig::default()
    }
}

/// The netlist the session holds after each prefix of the row's stream,
/// the seed first.
fn revisions(row: &Row) -> Vec<FlatNetlist> {
    let mut session = match row.design {
        Some(design) => Session::open(design, &Process::strongarm_035()).expect("registry design"),
        None => Session::from_spice("inv", INV_DECK, "INV").expect("deck flattens"),
    };
    let mut out = vec![session.netlist().clone()];
    for step in row.steps {
        let edits = edits_from_json(&serde_json::from_str(step).expect("json")).expect("edits");
        session.apply_batch(&edits).expect("step applies");
        out.push(session.netlist().clone());
    }
    out
}

/// Names one cell of the matrix in a failure message.
fn cell(row: &Row, prefix: usize, column: &str, parallelism: usize) -> String {
    let (design, label) = (row.design.unwrap_or("upload"), row.label);
    format!("row {design}/{label} prefix {prefix} column {column} parallelism {parallelism}")
}

/// What a flow says about one revision: the signoff bytes and the
/// evidence behind them.
#[derive(Debug, Clone, PartialEq)]
struct Verdict {
    signoff: String,
    clean: bool,
    findings: Vec<String>,
    violations: String,
    arrivals: String,
}

impl Verdict {
    fn of(r: &FlowReport) -> Verdict {
        Verdict {
            signoff: serde_json::to_string(&r.signoff).expect("signoff serializes"),
            clean: r.signoff.clean(),
            findings: r
                .everify
                .findings()
                .iter()
                .map(|f| format!("{f:?}"))
                .collect(),
            violations: format!("{:?}", r.sta.violations),
            arrivals: format!("{:?}", r.sta.arrivals),
        }
    }
}

/// Cold `run_flow` at every prefix of every row. Each revision runs at
/// parallelism 1, 2, 8 and 0 (auto); all four must agree on the verdict,
/// the `Display` and the `(stage, artifacts)` rows.
fn reference() -> &'static [Vec<Verdict>] {
    static COLD: OnceLock<Vec<Vec<Verdict>>> = OnceLock::new();
    COLD.get_or_init(|| {
        let p = Process::strongarm_035();
        let cold = |row: &Row, k: usize, netlist: FlatNetlist| {
            let run = |parallelism| {
                let r = run_flow(netlist.clone(), &p, &config(parallelism));
                let stages: Vec<_> = r.stages.iter().map(|s| (s.stage, s.artifacts)).collect();
                (Verdict::of(&r), r.signoff.to_string(), stages)
            };
            let serial = run(1);
            for parallelism in [2, 8, 0] {
                let at = cell(row, k, "cold", parallelism);
                assert!(run(parallelism) == serial, "{at}");
            }
            serial.0
        };
        ROWS.iter()
            .map(|row| {
                let revisions = revisions(row).into_iter().enumerate();
                let verdicts: Vec<_> = revisions.map(|(k, n)| cold(row, k, n)).collect();
                let (seed, last) = (&verdicts[0], &verdicts[row.steps.len()]);
                let at = cell(row, row.steps.len(), "cold", 1);
                assert_ne!(seed, last, "{at}: the stream must matter");
                assert!(!(row.faulted && last.clean), "{at}: the fault signs off");
                verdicts
            })
            .collect()
    })
}

/// A flow report's verdict against cold's, field by field.
fn check(cell: &str, report: &FlowReport, want: &Verdict) {
    let got = Verdict::of(report);
    for (what, g, w) in [
        ("signoff bytes", &got.signoff, &want.signoff),
        ("STA violations", &got.violations, &want.violations),
        ("STA arrivals", &got.arrivals, &want.arrivals),
    ] {
        assert!(g == w, "{cell}: {what}\n got: {g}\nwant: {w}");
    }
    let (g, w) = (&got.findings, &want.findings);
    assert_eq!(g.len(), w.len(), "{cell}: findings() length");
    for (i, (g, w)) in g.iter().zip(w).enumerate() {
        assert!(g == w, "{cell}: findings()[{i}]\n got: {g}\nwant: {w}");
    }
}

/// The cache stats of every stage row that carries them.
fn cache_rows(r: &FlowReport) -> Vec<CacheStats> {
    r.stages.iter().filter_map(|s| s.cache).collect()
}

/// Lookups the timing row counts: one per CCC.
fn timing_lookups(r: &FlowReport) -> (usize, usize) {
    let row = r.stages.iter().find(|s| s.stage == "timing");
    let stats = row.and_then(|s| s.cache).expect("timing row stats");
    (stats.hits + stats.misses, r.recognition.cccs.len())
}

#[test]
fn owned_cache_column() {
    let p = Process::strongarm_035();
    for parallelism in PARALLELISM {
        let cfg = config(parallelism);
        for (row, want) in ROWS.iter().zip(reference()) {
            let mut walk = VerifyCache::new();
            for (k, netlist) in revisions(row).into_iter().enumerate() {
                let at = |path: &str| cell(row, k, &format!("owned/{path}"), parallelism);
                let run = |cache: &mut VerifyCache| {
                    run_flow_incremental(netlist.clone(), &p, &cfg, cache)
                };

                let (at_fresh, mut cache) = (at("fresh"), VerifyCache::new());
                let fresh = run(&mut cache);
                check(&at_fresh, &fresh, &want[k]);
                let (stages, rows) = (fresh.stages.len(), cache_rows(&fresh));
                assert_eq!((stages, rows.len()), (7, 2), "{at_fresh}: stage rows");
                assert!(rows.iter().all(|c| c.hits == 0), "{at_fresh}: {rows:?}");
                assert_eq!(fresh.fresh.len(), cache.len(), "{at_fresh}");
                let (lookups, cccs) = timing_lookups(&fresh);
                assert_eq!(lookups, cccs, "{at_fresh}: timing lookups");

                let (at_again, again) = (at("again"), run(&mut cache));
                check(&at_again, &again, &want[k]);
                let rows = cache_rows(&again);
                let warm = rows.iter().all(|c| c.hits > 0 && c.misses == 0);
                assert!(warm, "{at_again}: {rows:?}");
                assert!(again.fresh.is_empty(), "{at_again}");
                let (lookups, cccs) = timing_lookups(&again);
                assert_eq!(lookups, cccs, "{at_again}: timing lookups");

                let at_reload = at("reload");
                let mut reloaded = VerifyCache::from_json(&cache.to_json()).expect(&at_reload);
                let replay = run(&mut reloaded);
                check(&at_reload, &replay, &want[k]);
                let (lookups, cccs) = timing_lookups(&replay);
                assert_eq!(lookups, cccs, "{at_reload}: timing lookups");
                let rows = cache_rows(&replay);
                assert!(rows.iter().all(|c| c.misses == 0), "{at_reload}: {rows:?}");

                check(&at("walk"), &run(&mut walk), &want[k]);
            }
        }
    }
}

#[test]
fn shared_tier_column() {
    let p = Process::strongarm_035();
    for parallelism in PARALLELISM {
        for (row, want) in ROWS.iter().zip(reference()) {
            for (k, netlist) in revisions(row).into_iter().enumerate() {
                let at = |path: &str| cell(row, k, &format!("tier/{path}"), parallelism);
                let service = FlowService::new(p.clone(), config(parallelism));
                let run = |service: &FlowService| {
                    service.verify_with_backend(netlist.clone(), None, None, &LocalBackend)
                };

                let (at_first, first) = (at("first"), run(&service));
                check(&at_first, &first.0, &want[k]);
                let (stats, len) = (first.1.cache, service.cache_len());
                assert_eq!(stats.hits, 0, "{at_first}: cold tier");
                assert!(len > 0, "{at_first}: the run primed the tier");
                assert_eq!(stats.absorbed, len, "{at_first}: absorbed every unit");

                let (at_second, second) = (at("second"), run(&service));
                check(&at_second, &second.0, &want[k]);
                assert_eq!(second.1.cache.misses, 0, "{at_second}: warm tier");
                assert_eq!(second.1.cache.absorbed, 0, "{at_second}: delivers nothing");

                let service = FlowService::new(p.clone(), config(parallelism));
                std::thread::scope(|s| {
                    let racers: Vec<_> = (0..4).map(|_| s.spawn(|| run(&service))).collect();
                    for (i, racer) in racers.into_iter().enumerate() {
                        let at = at(&format!("racer {i}"));
                        check(&at, &racer.join().expect("racer").0, &want[k]);
                    }
                });
            }
        }
    }
}

#[test]
fn farm_column() {
    // The suite's long pole: one thread per parallelism.
    std::thread::scope(|s| {
        for parallelism in PARALLELISM {
            s.spawn(move || farm_at(parallelism));
        }
    });
}

fn farm_at(parallelism: usize) {
    let p = Process::strongarm_035();
    for (row, want) in ROWS.iter().zip(reference()) {
        // A farm replays registry designs by name; the upload has none.
        let Some(design) = row.design else { continue };
        for workers in [0, 1, 2, 4] {
            let worker = ServerConfig {
                parallelism,
                ..ServerConfig::default()
            };
            let daemons: Vec<_> = (0..workers)
                .map(|_| serve(worker.clone()).expect("bind worker daemon"))
                .collect();
            let farm = Farm::new(
                Arc::new(FlowService::new(p.clone(), config(parallelism))),
                FarmConfig {
                    workers: daemons.iter().map(|d| d.addr().to_string()).collect(),
                    batch_units: 2,
                    ..FarmConfig::default()
                },
            );
            let column = format!("farm/{workers} workers");
            for (k, want) in want.iter().enumerate() {
                let at = cell(row, k, &column, parallelism);
                let steps: Vec<String> = row.steps[..k].iter().map(|&s| s.into()).collect();
                check(&at, &farm.verify(design, &steps).expect(&at).0, want);
            }
            let at = cell(row, row.steps.len(), &column, parallelism);
            let stats = farm.stats();
            assert_eq!(stats.dead_workers, 0, "{at}: {:?}", farm.take_errors());
            if workers > 0 {
                assert!(stats.remote_units > 0, "{at}: units went out: {stats:?}");
                assert_eq!(stats.local_units, 0, "{at}: no fallback: {stats:?}");
            } else {
                assert!(stats.local_units > 0, "{at}: the local flow ran: {stats:?}");
            }
            daemons.into_iter().for_each(ServerHandle::shutdown);
        }
    }
}

/// Opens the row's seed on a daemon connection.
fn open(client: &mut Client, row: &Row) {
    match row.design {
        Some(design) => client.open(design),
        None => client.upload("inv", INV_DECK, "INV"),
    }
    .expect("session opens");
}

#[test]
fn daemon_column() {
    for parallelism in PARALLELISM {
        let server = serve(ServerConfig {
            workers: 4,
            parallelism,
            ..ServerConfig::default()
        })
        .expect("bind loopback daemon");
        let addr = server.addr();
        for (row, want) in ROWS.iter().zip(reference()) {
            std::thread::scope(|s| {
                for client in 0..4 {
                    s.spawn(move || {
                        let column = format!("daemon/client {client}");
                        let at = |k| cell(row, k, &column, parallelism);
                        let mut c = Client::connect(addr).expect("connect");
                        open(&mut c, row);
                        let seed = c.signoff(None).expect("seed signoff");
                        assert_eq!(seed.signoff_raw, want[0].signoff, "{}", at(0));
                        let mut last = seed.clone();
                        for (k, step) in row.steps.iter().enumerate() {
                            last = c.eco(step, None).expect("eco step");
                            assert_eq!(last.signoff_raw, want[k + 1].signoff, "{}", at(k + 1));
                        }
                        let fault_found = !last.clean && last.violations > 0;
                        assert!(fault_found || !row.faulted, "{}", at(row.steps.len()));
                        let at = at(0);
                        assert_eq!(c.rollback(0).expect("rollback"), 0, "{at}");
                        let back = c.signoff(None).expect("rolled-back signoff");
                        assert_eq!(back.signoff_raw, seed.signoff_raw, "{at}: after rollback");
                        assert_eq!(back.cache_misses, 0, "{at}: the seed's entries answer");
                    });
                }
            });
        }
        server.shutdown();
    }
}

#[test]
fn restored_column() {
    for parallelism in PARALLELISM {
        let name = format!("cbv-equality-{}-p{parallelism}.state", std::process::id());
        let state = std::env::temp_dir().join(name);
        let config = ServerConfig {
            parallelism,
            state_path: Some(state.to_str().expect("utf8 path").to_owned()),
            ..ServerConfig::default()
        };

        let server = serve(config.clone()).expect("bind loopback daemon");
        for (i, row) in ROWS.iter().enumerate() {
            let mut c = Client::connect(server.addr()).expect("connect");
            open(&mut c, row);
            for step in row.steps {
                c.eco(step, None).expect("eco step");
            }
            let revision = c.save(&format!("row{i}")).expect("save");
            assert_eq!(revision, row.steps.len() as u64);
        }
        server.shutdown();

        let server = serve(config).expect("restart on the state file");
        for (i, (row, want)) in ROWS.iter().zip(reference()).enumerate() {
            let at = cell(row, row.steps.len(), "restored", parallelism);
            let mut c = Client::connect(server.addr()).expect("connect");
            let revision = c.restore(&format!("row{i}")).expect("restore");
            assert_eq!(revision, row.steps.len() as u64, "{at}");
            let restored = c.signoff(None).expect("restored signoff");
            assert_eq!(restored.signoff_raw, want[row.steps.len()].signoff, "{at}");
            assert_eq!(restored.cache_misses, 0, "{at}: the persisted tier answers");
        }
        server.shutdown();
        std::fs::remove_file(&state).expect("cleanup");
    }
}
