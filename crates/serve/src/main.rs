//! The `qucad-serve` binary: bind, print the address, serve until a
//! `Shutdown` request arrives.
//!
//! Flags (all `--flag=value`; each parses strictly, so a garbage value
//! panics with the flag's name):
//!
//! - `--port` — TCP port on 127.0.0.1 (`0` = ephemeral; combine with
//!   `--port-file` so drivers learn the bound address). Default `7877`.
//! - `--max-batch` — largest structure-grouped batch. Default `16`.
//! - `--queue-depth` — pending-eval bound. Default `256`.
//! - `--workers` — worker threads (default: `QUCAD_THREADS` or the
//!   machine parallelism, like every other batch path).
//! - `--device`, `--days`, `--seed` — the scenario recipe; clients must
//!   use the same values to verify bit-identity.
//! - `--port-file` — write the bound `ip:port` to this path once
//!   listening (the CI handshake).

use qnn::executor::parallel;
use qucad_serve::scenario::ServeScenario;
use qucad_serve::server::{serve, ServerConfig};

fn parse_flag<'a>(arg: &'a str, name: &str) -> Option<&'a str> {
    arg.strip_prefix("--")?
        .strip_prefix(name)?
        .strip_prefix('=')
}

fn main() {
    let mut port = 7877;
    let mut max_batch = 16;
    let mut queue_depth = 256;
    let mut workers = parallel::worker_threads();
    let mut device = "belem".to_string();
    let mut days = 8usize;
    let mut seed = 7u64;
    let mut port_file: Option<String> = None;

    for arg in std::env::args().skip(1) {
        if let Some(v) = parse_flag(&arg, "port") {
            port = quasim::config::parse_port("--port", v);
        } else if let Some(v) = parse_flag(&arg, "max-batch") {
            max_batch = quasim::config::parse_positive("--max-batch", v);
        } else if let Some(v) = parse_flag(&arg, "queue-depth") {
            queue_depth = quasim::config::parse_positive("--queue-depth", v);
        } else if let Some(v) = parse_flag(&arg, "workers") {
            workers = quasim::config::parse_positive("--workers", v);
        } else if let Some(v) = parse_flag(&arg, "device") {
            device = v.to_string();
        } else if let Some(v) = parse_flag(&arg, "days") {
            days = quasim::config::parse_positive("--days", v);
        } else if let Some(v) = parse_flag(&arg, "seed") {
            seed = v
                .parse()
                .unwrap_or_else(|_| panic!("--seed must be an integer, got '{v}'"));
        } else if let Some(v) = parse_flag(&arg, "port-file") {
            port_file = Some(v.to_string());
        } else {
            panic!("unknown argument '{arg}'");
        }
    }

    let scenario = ServeScenario::build(&device, days, seed);
    let config = ServerConfig {
        port,
        workers,
        max_batch,
        queue_depth,
    };
    let handle = serve(scenario, config).expect("bind qucad-serve listener");
    println!(
        "qucad-serve listening on {} (device={device}, days={days}, seed={seed}, \
         workers={workers}, max_batch={max_batch}, queue_depth={queue_depth})",
        handle.addr()
    );
    if let Some(path) = port_file {
        // Write via a temp file + rename so pollers never read a partial
        // address.
        let tmp = format!("{path}.tmp");
        std::fs::write(&tmp, handle.addr().to_string()).expect("write port file");
        std::fs::rename(&tmp, &path).expect("publish port file");
    }
    handle.join();
    println!("qucad-serve exited cleanly");
}
