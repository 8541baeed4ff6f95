//! Tools around the result line: the results file `--out` appends to,
//! `selfcheck` (does the benchmark repeat on this host?) and `diff`
//! (what moved between two results files — advisory).

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use serde_json::Value;

use crate::metrics::{catalogue, Metric};
use crate::stats::{median, quartile_spread};

/// A per-layer move beyond this share is flagged by `diff` (per-layer
/// metrics have no bound of their own).
const LAYER_FLAG: f64 = 0.10;

/// Appends one run to a results file: a JSON line carrying the run's
/// identity and its result line verbatim.
pub fn append_result(
    path: &Path,
    workload: &str,
    seed: u64,
    trace: bool,
    result: &str,
) -> std::io::Result<()> {
    let mut file = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)?;
    writeln!(
        file,
        "{{\"workload\":\"{workload}\",\"seed\":{seed},\"trace\":{},\"result\":{result}}}",
        u8::from(trace)
    )?;
    file.flush()
}

/// Metric values of one result line.
fn metric_values(result: &Value) -> BTreeMap<String, f64> {
    match result.get("metrics") {
        Some(Value::Object(fields)) => fields
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
        _ => BTreeMap::new(),
    }
}

/// How much worse `new` is than `base`, as a share of `base`; negative
/// when it got better.
fn worsening(m: &Metric, base: f64, new: f64) -> f64 {
    let change = (new - base) / base.abs();
    if m.better == "lower" {
        change
    } else {
        -change
    }
}

/// Runs per set in `selfcheck`; there are two sets.
const SET_RUNS: u64 = 5;

/// Runs this executable once, untraced, for the window `BENCHMARK.json`
/// fixes. Returns ops failed and every figure the run printed: the
/// result line's metrics and the `diagnostic name = value` lines.
fn child_run(workload: &str, seed: u64) -> Result<(u64, BTreeMap<String, f64>), String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["run", "--workload", workload, "--trace", "0"])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &catalogue().run_seconds.to_string()])
        .output()
        .map_err(|e| e.to_string())?;
    if !output.status.success() {
        return Err(format!(
            "{workload} seed {seed} exited with {}: {}",
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let stdout = String::from_utf8_lossy(&output.stdout);
    let last = stdout.lines().last().ok_or("run printed nothing")?;
    let result = serde_json::from_str(last).map_err(|e| format!("unparseable result line: {e}"))?;
    let mut figures = metric_values(&result);
    for line in stdout.lines() {
        let diagnostic = line
            .strip_prefix("diagnostic ")
            .and_then(|rest| rest.split_once(" = "));
        if let Some((name, rest)) = diagnostic {
            let value = rest.split(' ').next().and_then(|v| v.parse().ok());
            figures.insert(name.to_owned(), value.ok_or("unparseable diagnostic")?);
        }
    }
    let failed = result.get("failed").and_then(Value::as_u64).unwrap_or(1);
    Ok((failed, figures))
}

/// Two sets of five fresh processes per workload, each run on its own
/// seed: prints both set medians, their gap, the quartile spread over
/// all ten runs and the bound, and fails when a gap exceeds half the
/// bound, a spread exceeds the bound, or any op failed. The unbounded
/// diagnostics are listed the same way and never fail the check.
pub fn selfcheck() -> ExitCode {
    println!("{}", crate::host::describe());
    println!(
        "selfcheck: 2 sets x {SET_RUNS} runs x {} s per workload",
        catalogue().run_seconds
    );
    println!(
        "{:<14}{:<15}{:>12}{:>12}{:>8}{:>9}{:>7}",
        "workload", "metric", "set A", "set B", "gap", "spread", "bound"
    );
    let mut bad = false;
    for workload in &catalogue().workloads {
        let mut sets: [Vec<BTreeMap<String, f64>>; 2] = [Vec::new(), Vec::new()];
        let mut failed = 0u64;
        for (k, set) in sets.iter_mut().enumerate() {
            for r in 0..SET_RUNS {
                let seed = 1 + k as u64 * SET_RUNS + r;
                eprintln!("selfcheck: {workload} set {} seed {seed}", ["A", "B"][k]);
                match child_run(workload, seed) {
                    Ok((ops_failed, figures)) => {
                        failed += ops_failed;
                        set.push(figures);
                    }
                    Err(message) => {
                        eprintln!("cbv-perf: {message}");
                        return ExitCode::FAILURE;
                    }
                }
            }
        }
        // Bounded metrics in catalogue order, then the diagnostics.
        let end_to_end = &catalogue().end_to_end;
        let mut names: Vec<&str> = end_to_end.iter().map(|m| m.name.as_str()).collect();
        for name in sets[0][0].keys() {
            if !names.contains(&name.as_str()) {
                names.push(name);
            }
        }
        for name in &names {
            let column = |set: &[BTreeMap<String, f64>]| -> Vec<f64> {
                set.iter().filter_map(|r| r.get(*name).copied()).collect()
            };
            let (a, b) = (column(&sets[0]), column(&sets[1]));
            let (ma, mb) = (median(&a), median(&b));
            let gap = (mb - ma).abs() / ma.abs();
            let all: Vec<f64> = a.iter().chain(&b).copied().collect();
            let spread = quartile_spread(&all);
            let bound = catalogue().metric(name).and_then(|m| m.bound);
            // The driver does not bound the spread of set-up time.
            let over = bound.is_some_and(|b| gap > b / 2.0 || (spread > b && *name != "setup_s"));
            bad |= over;
            println!(
                "{:<14}{:<15}{:>12.4}{:>12.4}{:>7.1}%{:>8.1}%{:>7}{}",
                workload,
                name,
                ma,
                mb,
                gap * 100.0,
                spread * 100.0,
                bound.map_or("-".to_owned(), |b| format!("{:.0}%", b * 100.0)),
                if over { "  <-- does not repeat" } else { "" }
            );
        }
        println!("{workload:<14}ops failed: {failed}");
        bad |= failed > 0;
    }
    if bad {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `(workload, traced?, metric)` → every value a results file holds.
type Table = BTreeMap<(String, bool, String), Vec<f64>>;

fn load_results(path: &Path) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut table = Table::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let bad = |what: &str| format!("{}:{}: {what}", path.display(), n + 1);
        let v = serde_json::from_str(line).map_err(|e| bad(&e.to_string()))?;
        let workload = v
            .get("workload")
            .and_then(Value::as_str)
            .ok_or_else(|| bad("no workload"))?;
        let traced = v.get("trace").and_then(Value::as_u64) == Some(1);
        let result = v.get("result").ok_or_else(|| bad("no result"))?;
        for (metric, value) in metric_values(result) {
            table
                .entry((workload.to_owned(), traced, metric))
                .or_default()
                .push(value);
        }
    }
    Ok(table)
}

/// Prints, per workload and metric present in both files, the base
/// median, the new median and the move, flagging moves for the worse
/// beyond the metric's bound (a tenth for per-layer metrics). Advisory:
/// the exit code does not depend on what moved.
pub fn diff(base: &Path, new: &Path) -> Result<ExitCode, String> {
    let (a, b) = (load_results(base)?, load_results(new)?);
    println!(
        "{:<14}{:<46}{:>14}{:>14}{:>9}",
        "workload", "metric", "base", "new", "move"
    );
    let mut flagged = 0;
    for ((workload, traced, metric), base_values) in &a {
        let Some(new_values) = b.get(&(workload.clone(), *traced, metric.clone())) else {
            continue;
        };
        let Some(m) = catalogue().metric(metric) else {
            continue;
        };
        let (mb, mn) = (median(base_values), median(new_values));
        let moved = if mb == 0.0 { 0.0 } else { (mn - mb) / mb.abs() };
        let limit = m.bound.unwrap_or(LAYER_FLAG);
        let worse = mb != 0.0 && worsening(m, mb, mn) > limit;
        flagged += usize::from(worse);
        println!(
            "{:<14}{:<46}{:>14.4}{:>14.4}{:>+8.1}%{}",
            workload,
            metric,
            mb,
            mn,
            moved * 100.0,
            if worse {
                format!("  <-- worse by more than {:.0}%", limit * 100.0)
            } else {
                String::new()
            }
        );
    }
    println!("{flagged} metric(s) flagged (advisory)");
    Ok(ExitCode::SUCCESS)
}

#[cfg(test)]
mod tests {
    use super::*;

    const LINE: &str = "{\"correct\":true,\"attempted\":3,\"failed\":0,\"metrics\":\
        {\"op_p10_ms\":{\"value\":2.5,\"unit\":\"ms\"},\"setup_s\":{\"value\":0.9,\"unit\":\"s\"}}}";

    #[test]
    fn results_file_round_trips_through_diff_loading() {
        // Next to the test executable: inside the build directory.
        let exe = std::env::current_exe().unwrap();
        let path = exe.with_file_name(format!("results-test-{}.jsonl", std::process::id()));
        let _ = std::fs::remove_file(&path);
        append_result(&path, "serve_warm", 4, false, LINE).unwrap();
        append_result(&path, "serve_warm", 5, false, &LINE.replace("2.5", "3.5")).unwrap();
        let table = load_results(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        let key = ("serve_warm".to_owned(), false, "op_p10_ms".to_owned());
        assert_eq!(table[&key], vec![2.5, 3.5]);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn worsening_follows_the_metric_direction() {
        let metric = |better: &str| Metric {
            name: "m".into(),
            unit: "ms".into(),
            better: better.into(),
            bound: None,
        };
        let (lower, higher) = (metric("lower"), metric("higher"));
        assert!((worsening(&lower, 10.0, 12.0) - 0.2).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 12.0) + 0.2).abs() < 1e-12);
        assert!((worsening(&higher, 10.0, 8.0) - 0.2).abs() < 1e-12);
    }
}
