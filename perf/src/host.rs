//! What the benchmark reads from the operating system: process CPU
//! time, peak resident memory, and the host descriptor printed with
//! every result. Linux `/proc` only — the benchmark's one platform.

use std::process::Command;

/// Kernel clock ticks per second for `/proc/self/stat` (`USER_HZ`,
/// fixed at 100 on every Linux architecture).
const TICKS_PER_S: f64 = 100.0;

/// User + system CPU seconds consumed so far by every thread of this
/// process. Ten-millisecond resolution: callers difference it across
/// windows of many seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) may itself contain spaces or
    // parentheses; fields are positional only after its closing ')'.
    let rest = &stat[stat.rfind(')').expect("stat has a command field") + 1..];
    let field = |n: usize| -> f64 {
        // `rest` starts at field 3 (state).
        rest.split_ascii_whitespace()
            .nth(n - 3)
            .and_then(|v| v.parse().ok())
            .expect("numeric stat field")
    };
    (field(14) + field(15)) / TICKS_PER_S
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Client threads a workload may use: `min(2, nproc)`.
pub fn client_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get().min(2))
}

/// One line naming what the numbers were taken on.
pub fn describe() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let threads = std::env::var("CBV_THREADS").unwrap_or_else(|_| "unset".into());
    let rustc = Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "rustc unknown".into());
    format!("host: nproc={nproc} CBV_THREADS={threads} {rustc}")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_readings_are_sane() {
        let before = cpu_seconds();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        std::hint::black_box(x);
        assert!(cpu_seconds() >= before);
        assert!(peak_rss_mb() > 0.5);
        assert!((1..=2).contains(&client_threads()));
    }
}
