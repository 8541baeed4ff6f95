//! `cbv` — the verification service client.
//!
//! ```text
//! cbv open     ADDR DESIGN                 open a session, report the seed
//! cbv signoff  ADDR DESIGN                 open + signoff, print signoff JSON
//! cbv eco      ADDR DESIGN EDIT... [--deadline-ms N] [--save NAME]
//!                                          open, stream one ECO per EDIT,
//!                                          optionally save the session,
//!                                          print the final signoff JSON
//! cbv rollback ADDR DESIGN --to REV EDIT...
//!                                          open, stream EDITs, roll back to
//!                                          REV, re-signoff, print it
//! cbv repair   ADDR DESIGN [EDIT...] [--no-commit] [--plan FILE]
//!                                          open, stream the (breaking) EDITs,
//!                                          ask the daemon for an auto-repair
//!                                          plan, print the repaired signoff
//!                                          JSON; the full plan goes to FILE
//! cbv restore  ADDR NAME                   restore a saved session on the
//!                                          daemon, print its signoff JSON
//! cbv stats    ADDR                        print the daemon's stats JSON
//! cbv shutdown ADDR                        gracefully drain the daemon
//! cbv replay   DESIGN EDIT...              run the same stream in-process,
//!                                          print the final signoff JSON
//! cbv farm     WORKERS DESIGN EDIT...      shard the stream's verification
//!                                          across WORKERS (comma-separated
//!                                          daemon addresses), print the
//!                                          final signoff JSON
//! cbv ir import-yosys FILE [--top NAME]    techmap a Yosys JSON netlist,
//!                                          print cbv-ir/1 text
//! cbv ir flow  FILE                        load cbv-ir/1 text, validate, run
//!                                          the full flow, print signoff JSON
//! cbv ir norm  FILE                        load + re-dump cbv-ir/1 text (the
//!                                          round-trip normal form)
//! ```
//!
//! Each `EDIT` is one ECO step: inline JSON (an edit object or an array
//! batch) or `@path` to a file containing it. Signoff JSON goes to
//! stdout (nothing else does), progress to stderr — so
//! `cbv eco ... > remote.json` and `cbv replay ... > local.json`
//! followed by `cmp remote.json local.json` is the byte-identity check
//! `scripts/check.sh` runs.

use std::process::ExitCode;

use std::sync::Arc;

use cbv_serve::client::Client;
use cbv_serve::{edits_from_json, Farm, FarmConfig, Session};
use serde_json::Value;

use cbv_core::flow::{try_run_flow, FlowConfig};
use cbv_core::ir;
use cbv_core::service::FlowService;
use cbv_core::tech::Process;

fn usage() -> ExitCode {
    eprintln!(
        "usage: cbv open|signoff ADDR DESIGN\n\
         \x20      cbv eco ADDR DESIGN EDIT... [--deadline-ms N] [--save NAME]\n\
         \x20      cbv rollback ADDR DESIGN --to REV EDIT...\n\
         \x20      cbv repair ADDR DESIGN [EDIT...] [--no-commit] [--plan FILE]\n\
         \x20      cbv restore ADDR NAME\n\
         \x20      cbv stats|shutdown ADDR\n\
         \x20      cbv replay DESIGN EDIT...\n\
         \x20      cbv farm WORKER1,WORKER2,... DESIGN EDIT...\n\
         \x20      cbv ir import-yosys FILE [--top NAME]\n\
         \x20      cbv ir flow|norm FILE"
    );
    ExitCode::FAILURE
}

fn fail(context: &str, e: impl std::fmt::Display) -> ExitCode {
    eprintln!("cbv: {context}: {e}");
    ExitCode::FAILURE
}

/// Resolves an EDIT argument: `@path` reads the file, anything else is
/// inline JSON.
fn edit_text(arg: &str) -> Result<String, String> {
    if let Some(path) = arg.strip_prefix('@') {
        std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))
    } else {
        Ok(arg.to_owned())
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(command) = args.first().map(String::as_str) else {
        return usage();
    };
    match command {
        "open" | "signoff" => {
            let [addr, design] = &args[1..] else {
                return usage();
            };
            let mut client = match Client::connect(addr.as_str()) {
                Ok(c) => c,
                Err(e) => return fail("connect", e),
            };
            let devices = match client.open(design) {
                Ok(n) => n,
                Err(e) => return fail("open", e),
            };
            eprintln!("opened {design}: {devices} devices, revision 0");
            if command == "signoff" {
                match client.signoff(None) {
                    Ok(v) => {
                        eprintln!("clean: {} (violations: {})", v.clean, v.violations);
                        println!("{}", v.signoff_raw);
                    }
                    Err(e) => return fail("signoff", e),
                }
            }
            ExitCode::SUCCESS
        }
        "eco" => {
            if args.len() < 4 {
                return usage();
            }
            let (addr, design) = (&args[1], &args[2]);
            let mut deadline_ms = None;
            let mut save = None;
            let mut edits = Vec::new();
            let mut rest = args[3..].iter();
            while let Some(a) = rest.next() {
                if a == "--deadline-ms" {
                    let Some(ms) = rest.next().and_then(|v| v.parse().ok()) else {
                        return usage();
                    };
                    deadline_ms = Some(ms);
                } else if a == "--save" {
                    let Some(name) = rest.next() else {
                        return usage();
                    };
                    save = Some(name.clone());
                } else {
                    edits.push(a.clone());
                }
            }
            run_stream(addr, design, &edits, deadline_ms, None, save.as_deref())
        }
        "rollback" => {
            if args.len() < 5 {
                return usage();
            }
            let (addr, design) = (&args[1], &args[2]);
            let mut to = None;
            let mut edits = Vec::new();
            let mut rest = args[3..].iter();
            while let Some(a) = rest.next() {
                if a == "--to" {
                    let Some(rev) = rest.next().and_then(|v| v.parse().ok()) else {
                        return usage();
                    };
                    to = Some(rev);
                } else {
                    edits.push(a.clone());
                }
            }
            let Some(to) = to else { return usage() };
            run_stream(addr, design, &edits, None, Some(to), None)
        }
        "repair" => {
            if args.len() < 3 {
                return usage();
            }
            let (addr, design) = (&args[1], &args[2]);
            let mut commit = true;
            let mut plan_path = None;
            let mut edits = Vec::new();
            let mut rest = args[3..].iter();
            while let Some(a) = rest.next() {
                if a == "--no-commit" {
                    commit = false;
                } else if a == "--plan" {
                    let Some(path) = rest.next() else {
                        return usage();
                    };
                    plan_path = Some(path.clone());
                } else {
                    edits.push(a.clone());
                }
            }
            repair_cmd(addr, design, &edits, commit, plan_path.as_deref())
        }
        "restore" => {
            let [addr, name] = &args[1..] else {
                return usage();
            };
            let mut client = match Client::connect(addr.as_str()) {
                Ok(c) => c,
                Err(e) => return fail("connect", e),
            };
            match client.restore(name) {
                Ok(rev) => eprintln!("restored {name}: revision {rev}"),
                Err(e) => return fail("restore", e),
            }
            match client.signoff(None) {
                Ok(v) => {
                    eprintln!("clean: {} (violations: {})", v.clean, v.violations);
                    println!("{}", v.signoff_raw);
                    ExitCode::SUCCESS
                }
                Err(e) => fail("signoff", e),
            }
        }
        "stats" => {
            let [addr] = &args[1..] else { return usage() };
            let mut client = match Client::connect(addr.as_str()) {
                Ok(c) => c,
                Err(e) => return fail("connect", e),
            };
            match client.stats() {
                Ok(stats) => {
                    println!("{stats}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail("stats", e),
            }
        }
        "shutdown" => {
            let [addr] = &args[1..] else { return usage() };
            let mut client = match Client::connect(addr.as_str()) {
                Ok(c) => c,
                Err(e) => return fail("connect", e),
            };
            match client.shutdown() {
                Ok(()) => {
                    eprintln!("daemon draining");
                    ExitCode::SUCCESS
                }
                Err(e) => fail("shutdown", e),
            }
        }
        "replay" => {
            if args.len() < 2 {
                return usage();
            }
            replay(&args[1], &args[2..])
        }
        "farm" => {
            if args.len() < 3 {
                return usage();
            }
            farm(&args[1], &args[2], &args[3..])
        }
        "ir" => ir_command(&args[1..]),
        _ => usage(),
    }
}

/// Opens a session, streams one ECO per edit argument, optionally rolls
/// back and/or saves the session, and prints the final signoff.
fn run_stream(
    addr: &str,
    design: &str,
    edit_args: &[String],
    deadline_ms: Option<u64>,
    rollback_to: Option<u64>,
    save: Option<&str>,
) -> ExitCode {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return fail("connect", e),
    };
    if let Err(e) = client.open(design) {
        return fail("open", e);
    }
    let mut last = None;
    for (step, arg) in edit_args.iter().enumerate() {
        let text = match edit_text(arg) {
            Ok(t) => t,
            Err(e) => return fail("edit", e),
        };
        match client.eco(&text, deadline_ms) {
            Ok(v) => {
                eprintln!(
                    "step {step}: revision {}, clean {}, cache {}/{}",
                    v.revision,
                    v.clean,
                    v.cache_hits,
                    v.cache_hits + v.cache_misses
                );
                last = Some(v);
            }
            Err(e) => return fail(&format!("eco step {step}"), e),
        }
    }
    if let Some(to) = rollback_to {
        match client.rollback(to) {
            Ok(r) => eprintln!("rolled back to revision {r}"),
            Err(e) => return fail("rollback", e),
        }
        match client.signoff(deadline_ms) {
            Ok(v) => last = Some(v),
            Err(e) => return fail("signoff", e),
        }
    }
    if let Some(name) = save {
        match client.save(name) {
            Ok(rev) => eprintln!("saved {name} at revision {rev}"),
            Err(e) => return fail("save", e),
        }
    }
    match last {
        Some(v) => {
            println!("{}", v.signoff_raw);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("cbv: no steps run");
            ExitCode::FAILURE
        }
    }
}

/// Opens a session, breaks it with the given ECO stream, then asks the
/// daemon's auto-repair engine for a verified fix. The repaired signoff
/// goes to stdout (the byte-identity convention), so
/// `cbv repair ... > fixed.json` followed by
/// `cmp fixed.json <(cbv replay DESIGN)` is the closed-loop check.
fn repair_cmd(
    addr: &str,
    design: &str,
    edit_args: &[String],
    commit: bool,
    plan_path: Option<&str>,
) -> ExitCode {
    let mut client = match Client::connect(addr) {
        Ok(c) => c,
        Err(e) => return fail("connect", e),
    };
    if let Err(e) = client.open(design) {
        return fail("open", e);
    }
    for (step, arg) in edit_args.iter().enumerate() {
        let text = match edit_text(arg) {
            Ok(t) => t,
            Err(e) => return fail("edit", e),
        };
        match client.eco(&text, None) {
            Ok(v) => eprintln!(
                "break step {step}: revision {}, clean {}, violations {}",
                v.revision, v.clean, v.violations
            ),
            Err(e) => return fail(&format!("eco step {step}"), e),
        }
    }
    let outcome = match client.repair(commit) {
        Ok(o) => o,
        Err(e) => return fail("repair", e),
    };
    eprintln!(
        "repair: repaired {}, {} steps, committed {} (revision {})",
        outcome.repaired, outcome.steps, outcome.committed, outcome.revision
    );
    if let Some(path) = plan_path {
        if let Err(e) = std::fs::write(path, &outcome.plan_raw) {
            return fail(path, e);
        }
    }
    println!("{}", outcome.signoff_raw);
    if outcome.repaired {
        ExitCode::SUCCESS
    } else {
        eprintln!("cbv: repair rejected");
        ExitCode::FAILURE
    }
}

/// The in-process reference: the same session/edit code path the daemon
/// runs, against a private `FlowService`. Byte-identical output to the
/// remote stream is the protocol's core guarantee.
fn replay(design: &str, edit_args: &[String]) -> ExitCode {
    let process = Process::strongarm_035();
    let mut session = match Session::open(design, &process) {
        Ok(s) => s,
        Err(e) => return fail("open", e),
    };
    for (step, arg) in edit_args.iter().enumerate() {
        let text = match edit_text(arg) {
            Ok(t) => t,
            Err(e) => return fail("edit", e),
        };
        let value: Value = match serde_json::from_str(&text) {
            Ok(v) => v,
            Err(e) => return fail(&format!("edit step {step}"), e),
        };
        let edits = match edits_from_json(&value) {
            Ok(e) => e,
            Err(e) => return fail(&format!("edit step {step}"), e),
        };
        if let Err(e) = session.apply_batch(&edits) {
            return fail(&format!("eco step {step}"), e);
        }
        eprintln!("step {step}: revision {}", session.revision());
    }
    let service = FlowService::new(process, FlowConfig::default());
    let verdict = service.verify(session.netlist().clone(), None, None);
    eprintln!(
        "clean: {} (violations: {})",
        verdict.clean, verdict.violations
    );
    println!("{}", verdict.signoff_json);
    ExitCode::SUCCESS
}

/// Shards the stream's verification across worker daemons: one
/// `Farm::verify` per step prefix (warming the shared cache tier the
/// way an interactive ECO stream would), final signoff to stdout. An
/// empty WORKERS list runs the whole stream locally — `cmp` against
/// `cbv replay` output is the farm's byte-identity check.
fn farm(workers: &str, design: &str, edit_args: &[String]) -> ExitCode {
    let workers: Vec<String> = workers
        .split(',')
        .filter(|w| !w.is_empty())
        .map(str::to_owned)
        .collect();
    let mut steps = Vec::new();
    for arg in edit_args {
        match edit_text(arg) {
            Ok(t) => steps.push(t),
            Err(e) => return fail("edit", e),
        }
    }
    let service = Arc::new(FlowService::new(
        Process::strongarm_035(),
        FlowConfig::default(),
    ));
    let coordinator = Farm::new(
        service,
        FarmConfig {
            workers,
            ..FarmConfig::default()
        },
    );
    let mut last = None;
    for step in 1..=steps.len().max(1) {
        let prefix = &steps[..step.min(steps.len())];
        match coordinator.verify(design, prefix) {
            Ok((_report, verdict)) => {
                eprintln!(
                    "step {}: clean {}, shared cache {}/{}",
                    step - 1,
                    verdict.clean,
                    verdict.cache.hits,
                    verdict.cache.hits + verdict.cache.misses
                );
                last = Some(verdict);
            }
            Err(e) => return fail(&format!("farm step {}", step - 1), e),
        }
    }
    for line in coordinator.take_errors() {
        eprintln!("cbv: farm: worker error: {line}");
    }
    let stats = coordinator.stats();
    eprintln!(
        "farm: {} batches dispatched, {} stolen, {} duplicate units, \
         {} remote / {} local units, {} dead workers",
        stats.dispatched_batches,
        stats.stolen_batches,
        stats.duplicate_units,
        stats.remote_units,
        stats.local_units,
        stats.dead_workers
    );
    match last {
        Some(v) => {
            println!("{}", v.signoff_json);
            ExitCode::SUCCESS
        }
        None => {
            eprintln!("cbv: no steps run");
            ExitCode::FAILURE
        }
    }
}

/// `cbv ir ...` — the interchange-IR front end. `import-yosys` techmaps
/// a Yosys JSON netlist onto transistor topologies and prints `cbv-ir/1`
/// text; `flow` loads IR, validates it, runs the full flow and prints
/// the signoff JSON; `norm` loads and re-dumps (the normal form a
/// round-trip check compares against).
fn ir_command(args: &[String]) -> ExitCode {
    let Some(sub) = args.first().map(String::as_str) else {
        return usage();
    };
    match sub {
        "import-yosys" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let mut top = None;
            let mut rest = args[2..].iter();
            while let Some(a) = rest.next() {
                if a == "--top" {
                    let Some(name) = rest.next() else {
                        return usage();
                    };
                    top = Some(name.as_str());
                } else {
                    return usage();
                }
            }
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return fail(path, e),
            };
            let process = Process::strongarm_035();
            match ir::import_yosys_bytes(&bytes, top, &process) {
                Ok(netlist) => {
                    print!("{}", ir::dump(&netlist, None));
                    ExitCode::SUCCESS
                }
                Err(e) => fail("import-yosys", e),
            }
        }
        "flow" | "norm" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            let bytes = match std::fs::read(path) {
                Ok(b) => b,
                Err(e) => return fail(path, e),
            };
            let design = match ir::load_bytes(&bytes) {
                Ok(d) => d,
                Err(e) => return fail(path, e),
            };
            if sub == "norm" {
                if let Some(ann) = design.annotations.as_ref() {
                    // Annotations are never trusted from the file; they
                    // are re-derived (recognition is deterministic) and
                    // checked against the stored ones before re-dump.
                    if let Some(v) = ir::check_annotations(&design.netlist, ann)
                        .into_iter()
                        .next()
                    {
                        return fail(path, v);
                    }
                    let netlist = design.netlist;
                    let recognition = cbv_core::recognize::recognize(&netlist);
                    print!("{}", ir::dump(&netlist, Some(&recognition)));
                } else {
                    print!("{}", ir::dump(&design.netlist, None));
                }
                return ExitCode::SUCCESS;
            }
            match try_run_flow(
                design.netlist,
                &Process::strongarm_035(),
                &FlowConfig::default(),
            ) {
                Ok(report) => {
                    let signoff = serde_json::to_string(&report.signoff)
                        .expect("signoff serialization is infallible");
                    eprintln!(
                        "clean: {} (violations: {})",
                        report.signoff.clean(),
                        report.signoff.violation_count()
                    );
                    println!("{signoff}");
                    ExitCode::SUCCESS
                }
                Err(e) => fail("flow", e),
            }
        }
        _ => usage(),
    }
}
