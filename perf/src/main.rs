//! `cbv-perf` — the repository's benchmark.
//!
//! ```text
//! cbv-perf run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
//! cbv-perf selfcheck
//! cbv-perf diff A.jsonl B.jsonl
//! ```
//!
//! `run` prints every metric by name and unit, checks signoff bytes
//! against references computed in set-up, and ends with the one-line
//! JSON result the driver reads. See `perf/README.md`.

mod cold_signoff;
mod eco_walk;
mod host;
mod metrics;
mod report;
mod run;
mod serve;
mod stats;
mod trace;
mod walk;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use metrics::{catalogue, Values};
use run::{Outcome, Plan};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 3;

/// What a traced run visits: the three workloads and `serve_warm`, the
/// daemon's read path. `serve_warm` is traced only — its sweep time
/// does not repeat from run to run (README), so it feeds per-layer
/// metrics and no bounded one, and `--workload` cannot name it.
const SECTIONS: [&str; 4] = ["cold_signoff", "eco_walk", "serve_warm", "serve_eco"];

/// Ops over which each section's count metrics are taken (and the
/// length of a section that the traced run is not named for).
fn count_ops(section: &str) -> usize {
    match section {
        "cold_signoff" => 8,
        "eco_walk" => 16,
        "serve_warm" => 256,
        _ => 16,
    }
}

enum Section {
    Cold(cold_signoff::ColdSignoff),
    Eco(eco_walk::EcoWalk),
    Warm(serve::ServeWarm),
    Lockstep(serve::ServeEco),
}

impl Section {
    fn setup(name: &str, seed: u64) -> Section {
        match name {
            "cold_signoff" => Section::Cold(cold_signoff::ColdSignoff::setup(seed)),
            "eco_walk" => Section::Eco(eco_walk::EcoWalk::setup(seed)),
            "serve_warm" => Section::Warm(serve::ServeWarm::setup(seed)),
            "serve_eco" => Section::Lockstep(serve::ServeEco::setup(seed)),
            other => unreachable!("{other} is not one of SECTIONS"),
        }
    }

    fn run(&mut self, plan: &Plan) -> Outcome {
        match self {
            Section::Cold(w) => w.run(plan),
            Section::Eco(w) => w.run(plan),
            Section::Warm(w) => w.run(plan),
            Section::Lockstep(w) => w.run(plan),
        }
    }

    /// Stops the daemon, if the section has one, and joins its threads.
    fn finish(self) {
        match self {
            Section::Warm(w) => w.shutdown(),
            Section::Lockstep(w) => w.shutdown(),
            Section::Cold(_) | Section::Eco(_) => {}
        }
    }
}

/// `<target dir>/cbv-perf`: where traces go. Derived from the
/// executable's own location, so it is inside the build directory
/// wherever that is.
fn trace_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of this executable");
    let dir = exe
        .parent()
        .and_then(|p| p.parent())
        .expect("executable lives in <target>/<profile>/")
        .join("cbv-perf");
    std::fs::create_dir_all(&dir).expect("create trace directory");
    dir
}

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

/// The untraced run: end-to-end metrics of one workload.
fn run_plain(args: &RunArgs) -> (Outcome, Values) {
    let timed_setup = || {
        let t = Instant::now();
        let workload = Section::setup(&args.workload, args.seed);
        (workload, t.elapsed().as_secs_f64())
    };
    let (mut workload, first) = timed_setup();
    let outcome = workload.run(&Plan::window(args.seconds));
    workload.finish();
    // Read before the repeat set-ups: tearing a daemon down and building
    // another in the same process leaves the allocator in a state that
    // differs from run to run, and the high-water mark with it.
    let peak_rss_mb = host::peak_rss_mb();
    let mut setup_s = vec![first];
    for _ in 1..SETUPS {
        let (workload, seconds) = timed_setup();
        workload.finish();
        setup_s.push(seconds);
    }

    let ops = outcome.plain_ms.len() as f64;
    let sorted = stats::sorted(outcome.plain_ms.clone());
    let mut values = Values::new();
    values.insert("op_p10_ms", stats::percentile(&sorted, 0.10));
    values.insert("peak_rss_mb", peak_rss_mb);
    values.insert("setup_s", stats::median(&setup_s));
    // Whole-window figures the host cannot repeat within a tenth; `run`
    // prints them as diagnostics (README, "What is bounded and what is not").
    values.insert("op_p50_ms", stats::percentile(&sorted, 0.5));
    values.insert("ops_per_s", ops / outcome.wall_s);
    values.insert("cpu_ms_per_op", outcome.cpu_s * 1e3 / ops);
    if let Some((pct, v)) = stats::tail(&sorted) {
        println!("diagnostic op_p{pct}_ms = {v:.6} (n = {ops}; not bounded)");
    }
    println!(
        "measured window: {:.2} s wall, {:.2} s cpu, {ops} ops; set-ups {setup_s:.3?} s",
        outcome.wall_s, outcome.cpu_s
    );
    (outcome, values)
}

/// The traced run: every section, all per-layer metrics. The other
/// sections run their count ops first; the named workload then gets
/// what is left of the `--seconds` of measured time.
fn run_traced(args: &RunArgs) -> (Outcome, Values) {
    let dir = trace_dir();
    let mut total = Outcome::default();
    let mut values = Values::new();
    let named_last = SECTIONS
        .into_iter()
        .filter(|s| *s != args.workload)
        .chain([args.workload.as_str()]);
    for name in named_last {
        let named = name == args.workload;
        let mut section = Section::setup(name, args.seed);
        let seconds = if named {
            args.seconds - total.wall_s
        } else {
            0.0
        };
        let outcome = section.run(&Plan::traced(seconds, count_ops(name)));
        section.finish();

        std::fs::write(dir.join(format!("{name}.trace.jsonl")), &outcome.jsonl)
            .expect("write trace");
        if named {
            let plain = stats::p10(&outcome.plain_ms);
            let traced = stats::p10(&outcome.traced_ms);
            values.insert("trace_overhead_pct", (traced - plain) / plain * 100.0);
        }
        println!(
            "section {name}: {} ops ({} traced), {} failed",
            outcome.attempted(),
            outcome.traced_ms.len(),
            outcome.failed
        );
        total.failed += outcome.failed;
        total.wall_s += outcome.wall_s;
        total.plain_ms.extend(outcome.plain_ms);
        total.traced_ms.extend(outcome.traced_ms);
        values.extend(outcome.layers);
    }
    println!("traces written to {}", dir.display());
    (total, values)
}

fn run(args: &RunArgs) -> ExitCode {
    let (outcome, values) = if args.trace {
        run_traced(args)
    } else {
        run_plain(args)
    };
    let listed = if args.trace {
        &catalogue().per_layer
    } else {
        &catalogue().end_to_end
    };
    println!(
        "workload {} seed {} trace {}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    println!("{}", host::describe());
    for (name, value) in &values {
        match catalogue().metric(name) {
            Some(m) => println!("{:<44} {:>16.6} {}", m.name, value, m.unit),
            None => println!("diagnostic {name} = {value:.6} (not bounded)"),
        }
    }
    println!(
        "ops attempted {} failed {}",
        outcome.attempted(),
        outcome.failed
    );
    let result = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{}}}",
        outcome.failed == 0,
        outcome.attempted(),
        outcome.failed,
        metrics::render(listed, &values)
    );
    if let Some(path) = &args.out {
        report::append_result(path, &args.workload, args.seed, args.trace, &result)
            .expect("append to --out file");
    }
    println!("{result}");
    ExitCode::SUCCESS
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("{flag}: cannot read {value:?} as a number"))
}

/// `run`'s flags, as the driver passes them.
fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: String::new(),
        seed: 1,
        seconds: catalogue().run_seconds as f64,
        trace: false,
        out: None,
    };
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(format!("{} needs a value", pair[0]));
        };
        match flag.as_str() {
            "--workload" if catalogue().workloads.contains(value) => run.workload = value.clone(),
            "--workload" => {
                let have = catalogue().workloads.join(", ");
                return Err(format!("unknown workload {value:?} (have: {have})"));
            }
            "--seed" => run.seed = number(flag, value)?,
            "--seconds" => run.seconds = number(flag, value)?,
            "--trace" => run.trace = number::<u8>(flag, value)? != 0,
            "--out" => run.out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if run.workload.is_empty() {
        return Err("run needs --workload".into());
    }
    // The driver's own limit on `run_seconds`.
    if !(run.seconds > 0.0 && run.seconds <= 60.0) {
        return Err("--seconds must be in (0, 60]".into());
    }
    Ok(run)
}

const USAGE: &str = "usage:
  cbv-perf run --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out FILE]
  cbv-perf selfcheck
  cbv-perf diff A.jsonl B.jsonl
workloads: cold_signoff, eco_walk, serve_eco";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => parse_run(rest).map(|a| run(&a)),
        Some((cmd, [])) if cmd == "selfcheck" => Ok(report::selfcheck()),
        Some((cmd, [a, b])) if cmd == "diff" => report::diff(a.as_ref(), b.as_ref()),
        _ => Err(USAGE.to_owned()),
    };
    outcome.unwrap_or_else(|message| {
        eprintln!("cbv-perf: {message}");
        ExitCode::from(2)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every per-layer metric one traced section produces.
    fn traced_layers(name: &str, seed: u64) -> Values {
        let mut section = Section::setup(name, seed);
        let outcome = section.run(&Plan::traced(0.0, count_ops(name)));
        section.finish();
        assert_eq!(outcome.failed, 0, "{name}: an op failed its check");
        // `serve_warm` runs the count ops on every client.
        assert_eq!(outcome.attempted() % count_ops(name) as u64, 0);
        outcome.layers
    }

    #[test]
    fn traced_sections_fill_the_catalogue_and_their_counts_repeat() {
        let exact = |metric: &str| {
            let m = catalogue().metric(metric).expect("catalogued metric");
            ["count", "ratio", "bytes"].contains(&m.unit.as_str())
        };
        let mut seen: Vec<&str> = vec!["trace_overhead_pct"];
        for name in SECTIONS {
            let first = traced_layers(name, 11);
            let again = traced_layers(name, 11);
            let counts = |v: &Values| -> Values {
                v.iter()
                    .filter(|(metric, _)| exact(metric))
                    .map(|(metric, value)| (*metric, *value))
                    .collect()
            };
            assert!(!counts(&first).is_empty(), "{name} reports no counts");
            assert_eq!(counts(&first), counts(&again), "{name}: counts moved");
            seen.extend(first.keys());
        }
        let mut listed: Vec<&str> = catalogue()
            .per_layer
            .iter()
            .map(|m| m.name.as_str())
            .collect();
        seen.sort_unstable();
        listed.sort_unstable();
        assert_eq!(seen, listed, "sections and BENCHMARK.json disagree");
    }

    #[test]
    fn command_lines_parse_and_reject() {
        let words = |s: &str| -> Vec<String> { s.split(' ').map(str::to_owned).collect() };
        let run = parse_run(&words("--workload eco_walk --seed 9 --seconds 3 --trace 1")).unwrap();
        assert_eq!(
            (run.workload.as_str(), run.seed, run.trace),
            ("eco_walk", 9, true)
        );
        assert_eq!(run.seconds, 3.0);
        let short = parse_run(&words("--workload serve_eco --seed 2")).unwrap();
        assert_eq!(short.seconds, catalogue().run_seconds as f64);
        assert!(!short.trace);
        assert!(parse_run(&words("--workload nope")).is_err());
        assert!(parse_run(&words("--workload serve_warm --seed 2")).is_err());
        assert!(parse_run(&words("serve_eco --seed 2")).is_err());
        assert!(parse_run(&words("--seed 1")).is_err());
        assert!(parse_run(&words("--workload eco_walk --seconds 0")).is_err());
        assert!(parse_run(&words("--workload eco_walk --seed")).is_err());
    }
}
