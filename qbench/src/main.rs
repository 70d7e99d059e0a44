//! `qbench`: the repository benchmark.
//!
//! ```text
//! cargo run --offline --release --manifest-path qbench/Cargo.toml -- \
//!     --workload <table1-quick|serve-mix|guadalupe-traj> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` a run sets its workload up, measures it for
//! `--seconds`, checks every output, and ends with one JSON line holding
//! the end-to-end metrics. With `--trace 1` it instead runs the workload's
//! job once untraced and once with spans around every call it makes into
//! a layer, replays single layer calls, measures thread scaling, writes
//! the spans to `.qbench/`, and reports the per-layer metrics. See
//! `qbench/README.md` for what each workload measures.

mod host;
mod metrics;
mod replay;
mod report;
mod serve_mix;
mod table1;
mod trace;
mod traj;

use std::collections::BTreeMap;
use std::time::Duration;

use host::Stopwatch;
use metrics::{END_TO_END, PER_LAYER};
use report::{median, Outcome};

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// The measuring window.
    pub fn window(&self) -> Duration {
        Duration::from_secs_f64(self.seconds)
    }
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        let bad = |what: &str| format!("{flag} expects {what}, got '{value}'");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10.0),
        trace,
    })
}

/// Measured values by metric name.
pub type Values = BTreeMap<&'static str, f64>;

/// Set-ups timed at the start of a run.
const SETUP_REPS: usize = 3;
/// Set-ups timed between measuring passes, at evenly spaced points of the
/// window.
const SPREAD_REPS: usize = 6;

/// Set-up timings of one run; `setup_s` is their median. A few are taken
/// at the start and more between the measuring passes, spread over the
/// window, so one slow stretch of a shared host does not set the figure.
pub struct SetupTimes(Vec<f64>);

impl SetupTimes {
    /// Times `setup` [`SETUP_REPS`] times (never traced) and returns the
    /// timings plus the last result; earlier results go to `teardown`,
    /// untimed.
    pub fn start<T>(mut setup: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (Self, T) {
        let mut times = SetupTimes(Vec::with_capacity(SETUP_REPS + SPREAD_REPS));
        let mut last = times.time(&mut setup);
        for _ in 1..SETUP_REPS {
            teardown(last);
            last = times.time(&mut setup);
        }
        (times, last)
    }

    fn time<T>(&mut self, setup: impl FnOnce() -> T) -> T {
        let sw = Stopwatch::start();
        let out = std::hint::black_box(trace::untraced(setup));
        self.0.push(sw.elapsed());
        out
    }

    /// Called between passes, `done` of the window gone (0 at its start,
    /// 1 at its end): times `setup` once for every one of the
    /// [`SPREAD_REPS`] evenly spaced points passed since the last call,
    /// handing each result to `teardown`, untimed.
    pub fn between_passes<T>(
        &mut self,
        done: f64,
        mut setup: impl FnMut() -> T,
        mut teardown: impl FnMut(T),
    ) {
        let passed = ((done * (SPREAD_REPS + 1) as f64) as usize).min(SPREAD_REPS);
        while self.0.len() < SETUP_REPS + passed {
            let out = self.time(&mut setup);
            teardown(out);
        }
    }

    /// Median set-up time, in seconds.
    pub fn median(&self) -> f64 {
        median(&self.0)
    }
}

/// Where a traced run writes its spans (relative to the working
/// directory, the root of the checkout).
pub fn trace_path(args: &Args) -> std::path::PathBuf {
    std::path::PathBuf::from(format!(
        ".qbench/trace-{}-seed{}.json",
        args.workload, args.seed
    ))
}

/// The JSON fields that identify a trace file's run.
pub fn trace_header(args: &Args) -> String {
    format!(
        "\"workload\":\"{}\",\"seed\":{},\"threads\":{}",
        args.workload,
        args.seed,
        qnn::executor::parallel::worker_threads()
    )
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qbench: {e}");
            std::process::exit(2);
        }
    };
    if args.trace {
        trace::enable();
    }
    let mut out = Outcome::default();
    let values = match args.workload.as_str() {
        "table1-quick" => table1::run(&args, &mut out),
        "serve-mix" => serve_mix::run(&args, &mut out),
        "guadalupe-traj" => traj::run(&args, &mut out),
        other => {
            eprintln!("qbench: unknown workload '{other}'");
            std::process::exit(2);
        }
    };
    let set = if args.trace { PER_LAYER } else { END_TO_END };
    for (name, unit) in set {
        let value = match values.get(name) {
            Some(v) => *v,
            // Layers the workload never calls read zero; a time must
            // always be measured.
            None if args.trace && !matches!(*unit, "s" | "ms" | "us") => 0.0,
            None => panic!("workload {} did not measure {name}", args.workload),
        };
        out.metric(name, value, unit);
    }
    out.print(&format!(
        "qbench {} seed={} seconds={} trace={} threads={}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        qnn::executor::parallel::worker_threads()
    ));
}
