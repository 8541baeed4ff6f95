//! `cbv-served` — the verification daemon.
//!
//! ```text
//! cbv-served [--addr HOST:PORT] [--workers N] [--queue N]
//!            [--cache-capacity N] [--parallelism N] [--trace PATH]
//!            [--state PATH]
//! ```
//!
//! `--state PATH` persists saved sessions and the shared cache tier to
//! a `cbv-state/1` file: loaded at startup (a corrupt file fails the
//! launch), rewritten atomically on every `save` request.
//!
//! Prints `listening on <addr>` (stdout, flushed) once the socket is
//! bound — scripts wait for that line, then read the ephemeral port
//! from it. Serves until a client sends `shutdown`.

use std::io::Write;
use std::process::ExitCode;

use cbv_serve::{serve, ServerConfig};

fn usage() -> ExitCode {
    eprintln!(
        "usage: cbv-served [--addr HOST:PORT] [--workers N] [--queue N] \
         [--cache-capacity N] [--parallelism N] [--trace PATH] [--state PATH]"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let mut config = ServerConfig::default();
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let Some(value) = args.next() else {
            eprintln!("missing value for {flag}");
            return usage();
        };
        let parsed = match flag.as_str() {
            "--addr" => {
                config.addr = value.clone();
                Ok(())
            }
            "--trace" => {
                config.trace_path = Some(value.clone());
                Ok(())
            }
            "--state" => {
                config.state_path = Some(value.clone());
                Ok(())
            }
            "--workers" => value.parse().map(|n| config.workers = n).map_err(|_| ()),
            "--queue" => value
                .parse()
                .map(|n| config.queue_capacity = n)
                .map_err(|_| ()),
            "--cache-capacity" => value
                .parse()
                .map(|n| config.cache_capacity = n)
                .map_err(|_| ()),
            "--parallelism" => value
                .parse()
                .map(|n| config.parallelism = n)
                .map_err(|_| ()),
            _ => {
                eprintln!("unknown flag {flag}");
                return usage();
            }
        };
        if parsed.is_err() {
            eprintln!("bad value {value:?} for {flag}");
            return usage();
        }
    }
    let handle = match serve(config) {
        Ok(h) => h,
        Err(e) => {
            eprintln!("cbv-served: {e}");
            return ExitCode::FAILURE;
        }
    };
    println!("listening on {}", handle.addr());
    let _ = std::io::stdout().flush();
    handle.join();
    ExitCode::SUCCESS
}
