//! The `bench-pair <base-rev>` task: the paired perf gate.
//!
//! It checks `<base-rev>` out as a git worktree under `target/bench-pair/`
//! and reads `command`, `workloads`, `end_to_end` and `run_seconds` from
//! `BENCHMARK.json`. For every workload it runs that command [`PAIRS`]
//! times in the base tree and in the workspace (head), alternating which
//! side of a pair runs first; both sides of a pair use the same seed.
//! Each run ends its stdout with one JSON line,
//! `{"correct", "attempted", "failed", "metrics"}`.
//!
//! The gate fails when:
//! - a head median is worse than the base median by more than the
//!   metric's `bound` on any (workload, end-to-end metric);
//! - any run exits non-zero, ends without a result line, lacks a gated
//!   metric, or reports `correct: false`;
//! - head's failed share of checks exceeds base's.
//!
//! Both trees run in alternation on one host, so a host that is slower
//! or noisier than another moves both sides alike, and an unchanged
//! head passes wherever the gate runs.

use crate::json::{self, Value};
use std::fmt::Write as _;
use std::path::Path;
use std::process::Command;

/// Pairs of runs per workload.
pub const PAIRS: u64 = 10;

/// An end-to-end metric the gate compares.
pub struct Metric {
    pub name: String,
    pub lower_better: bool,
    /// Largest tolerated relative worsening of the median (0.25 = 25%).
    pub bound: f64,
}

/// What `BENCHMARK.json` declares.
struct Spec {
    command: Vec<String>,
    workloads: Vec<String>,
    metrics: Vec<Metric>,
    run_seconds: f64,
}

fn read_spec(text: &str) -> Result<Spec, String> {
    let v = json::parse(text)?;
    let strings = |key: &str, field: &str| -> Option<Vec<String>> {
        let items = v.get(key)?.as_array()?.iter();
        let item = |x: &Value| x.get(field).unwrap_or(x).as_str().map(str::to_string);
        let all: Option<Vec<_>> = items.map(item).collect();
        all.filter(|s| !s.is_empty())
    };
    let metric = |m: &Value| {
        let better = m.get("better")?.as_str()?;
        let metric = Metric {
            name: m.get("name")?.as_str()?.to_string(),
            lower_better: better == "lower",
            bound: m.get("bound")?.as_f64()?,
        };
        ["lower", "higher"].contains(&better).then_some(metric)
    };
    let spec = || {
        let metrics = v.get("end_to_end")?.as_array()?;
        Some(Spec {
            command: strings("command", "")?,
            workloads: strings("workloads", "name")?,
            metrics: metrics.iter().map(metric).collect::<Option<_>>()?,
            run_seconds: v.get("run_seconds")?.as_f64().filter(|&s| s > 0.0)?,
        })
    };
    spec().ok_or_else(|| {
        "BENCHMARK.json needs `command`, named `workloads`, `end_to_end` metrics with \
         `name`, `better` and `bound`, and `run_seconds`"
            .into()
    })
}

/// A run's result line, parsed, or why it has none.
pub type Run = Result<Value, String>;

/// Reads the result line: the last non-blank line of a run's stdout.
fn parse_report(stdout: &str) -> Run {
    let line = stdout.lines().rev().find(|l| !l.trim().is_empty());
    json::parse(line.ok_or("no output")?).map_err(|e| format!("last line is not a result: {e}"))
}

/// Linear-interpolated percentile `p` in `[0, 100]` of a non-empty sample.
fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = p / 100.0 * (v.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// First quartile, median and third quartile.
fn quartiles(values: &[f64]) -> [f64; 3] {
    [25.0, 50.0, 75.0].map(|p| percentile(values, p))
}

/// One gated metric of one workload.
#[derive(Debug)]
pub struct Row {
    pub metric: String,
    pub base: [f64; 3],
    pub head: [f64; 3],
    /// `head median / base median - 1`.
    pub change: f64,
    pub bound: f64,
    /// Whether the head median is worse than the bound allows.
    pub worse: bool,
}

/// The gate's verdict on one workload's runs.
#[derive(Debug, Default)]
pub struct Verdict {
    pub rows: Vec<Row>,
    /// Every failed run and failed-share rise (each fails the gate).
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn passed(&self) -> bool {
        self.problems.is_empty() && !self.rows.iter().any(|r| r.worse)
    }
}

/// Judges one workload: `base[i]` and `head[i]` are pair `i`.
pub fn judge(metrics: &[Metric], base: &[Run], head: &[Run]) -> Verdict {
    let mut out = Verdict::default();
    let mut shares = [0.0; 2];
    let mut values = vec![[Vec::new(), Vec::new()]; metrics.len()];
    for (s, (side, runs)) in [("base", base), ("head", head)].into_iter().enumerate() {
        let (mut failed, mut attempted) = (0.0, 0.0);
        for (i, run) in runs.iter().enumerate() {
            let mut problem = |p: &str| out.problems.push(format!("{side} run {}: {p}", i + 1));
            let r = match run {
                Ok(r) => r,
                Err(e) => {
                    problem(e);
                    continue;
                }
            };
            let num = |v: Option<&Value>| v.and_then(Value::as_f64);
            if r.get("correct") != Some(&Value::Bool(true)) {
                problem("does not report correct: true");
            }
            match (num(r.get("failed")), num(r.get("attempted"))) {
                (Some(f), Some(a)) => (failed, attempted) = (failed + f, attempted + a),
                _ => problem("lacks failed or attempted"),
            }
            for (m, vals) in metrics.iter().zip(&mut values) {
                let metric = r
                    .get("metrics")
                    .and_then(|ms| ms.get(&m.name)?.get("value"));
                match num(metric) {
                    Some(v) => vals[s].push(v),
                    None => problem(&format!("lacks metric {}", m.name)),
                }
            }
        }
        shares[s] = failed / f64::max(attempted, 1.0);
    }
    if shares[1] > shares[0] {
        let [b, h] = shares;
        out.problems
            .push(format!("head's failed share {h} exceeds base's {b}"));
    }
    for (m, [b, h]) in metrics.iter().zip(&values) {
        if b.is_empty() || h.is_empty() {
            continue;
        }
        let (base, head) = (quartiles(b), quartiles(h));
        let change = head[1] / base[1] - 1.0;
        out.rows.push(Row {
            metric: m.name.clone(),
            base,
            head,
            change,
            bound: m.bound,
            worse: if m.lower_better { change } else { -change } > m.bound,
        });
    }
    out
}

/// `v` to four significant digits.
fn sig(v: f64) -> String {
    let digits = 3 - v.abs().max(1e-12).log10().floor() as i32;
    format!("{v:.*}", digits.clamp(0, 9) as usize)
}

fn git(root: &Path, args: &[&str]) -> Result<String, String> {
    let out = Command::new("git").args(args).current_dir(root).output();
    match out {
        Ok(o) if o.status.success() => Ok(String::from_utf8_lossy(&o.stdout).trim().to_string()),
        Ok(o) => Err(format!(
            "git {args:?}: {}",
            String::from_utf8_lossy(&o.stderr).trim()
        )),
        Err(e) => Err(format!("cannot run git: {e}")),
    }
}

/// Runs the benchmark command once in `tree`, passing its output through
/// to the log.
fn run_once(spec: &Spec, tree: &Path, workload: &str, seed: u64) -> Run {
    let out = Command::new(&spec.command[0])
        .args(&spec.command[1..])
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &spec.run_seconds.to_string(), "--trace", "0"])
        .current_dir(tree)
        .output()
        .map_err(|e| format!("cannot start {}: {e}", spec.command[0]))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    eprint!("{}", String::from_utf8_lossy(&out.stderr));
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    parse_report(&stdout)
}

/// Runs the gate of head (the workspace at `root`) against `base_rev`.
///
/// # Errors
///
/// Fails when the gate fails, or when the base tree or the spec cannot be
/// had.
pub fn run(root: &Path, base_rev: &str) -> Result<(), String> {
    let text = std::fs::read_to_string(root.join("BENCHMARK.json"))
        .map_err(|e| format!("cannot read BENCHMARK.json: {e}"))?;
    let spec = read_spec(&text)?;
    let sha = git(
        root,
        &["rev-parse", "--verify", &format!("{base_rev}^{{commit}}")],
    )?;
    let base_tree = root.join("target/bench-pair/base");
    let base_path = base_tree.to_string_lossy();
    if base_tree.exists() {
        git(root, &["worktree", "remove", "--force", &base_path])?;
    }
    git(
        root,
        &["worktree", "add", "--force", "--detach", &base_path, &sha],
    )?;
    let (n, secs) = (spec.workloads.len(), spec.run_seconds);
    println!(
        "bench-pair: base {sha} vs head (working tree), {n} workloads x {PAIRS} pairs x {secs} s"
    );

    let mut table = String::new();
    let mut passed = true;
    for workload in &spec.workloads {
        let mut runs = [Vec::new(), Vec::new()];
        for pair in 0..PAIRS {
            let seed = pair + 1;
            for side in [pair % 2, 1 - pair % 2] {
                let (name, tree) = [("base", base_tree.as_path()), ("head", root)][side as usize];
                println!(
                    "== bench-pair {workload} pair {}/{PAIRS} {name} seed={seed}",
                    pair + 1
                );
                runs[side as usize].push(run_once(&spec, tree, workload, seed));
            }
        }
        let verdict = judge(&spec.metrics, &runs[0], &runs[1]);
        passed &= verdict.passed();
        let q = |q: [f64; 3]| format!("{} [{}, {}]", sig(q[1]), sig(q[0]), sig(q[2]));
        for r in &verdict.rows {
            let _ = writeln!(
                table,
                "{workload:<16} {:<11} {:<28} {:<28} {:>+7.1}% {:>5.0}%  {}",
                r.metric,
                q(r.base),
                q(r.head),
                100.0 * r.change,
                100.0 * r.bound,
                if r.worse { "WORSE" } else { "ok" }
            );
        }
        for p in &verdict.problems {
            let _ = writeln!(table, "{workload:<16} FAILED: {p}");
        }
    }
    let _ = git(root, &["worktree", "remove", "--force", &base_path]);
    print!(
        "\nworkload         metric      base median [q1, q3]         \
         head median [q1, q3]           change  bound  verdict\n{table}"
    );
    if !passed {
        return Err("FAIL: a head median is worse than its bound, or a check failed".into());
    }
    println!("bench-pair: PASS");
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics() -> Vec<Metric> {
        let spec = include_str!("../../../BENCHMARK.json");
        let mut metrics = read_spec(spec).unwrap().metrics;
        metrics.retain(|m| m.name != "setup_s");
        metrics
    }

    /// A hand-made result line in the benchmark's own format.
    fn run(wall_s: f64, rate_per_s: f64) -> Run {
        json::parse(&format!(
            "{{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {{\
             \"wall_s\": {{\"value\": {wall_s:?}, \"unit\": \"s\"}}, \
             \"rate_per_s\": {{\"value\": {rate_per_s:?}, \"unit\": \"1/s\"}}}}}}"
        ))
    }

    fn runs(wall_s: f64, rate_per_s: f64) -> Vec<Run> {
        (0..PAIRS).map(|_| run(wall_s, rate_per_s)).collect()
    }

    /// `run(1.0, 100.0)` with one field of its result line replaced
    /// (`value` empty: removed).
    fn edited(field: &str, value: &str) -> Run {
        let mut v = run(1.0, 100.0)?;
        if let Value::Object(o) = &mut v {
            o.retain(|(k, _)| k != field);
            if !value.is_empty() {
                o.push((field.to_string(), json::parse(value)?));
            }
        }
        Ok(v)
    }

    fn row<'a>(v: &'a Verdict, metric: &str) -> &'a Row {
        v.rows.iter().find(|r| r.metric == metric).unwrap()
    }

    #[test]
    fn reads_the_committed_spec() {
        let spec = read_spec(include_str!("../../../BENCHMARK.json")).unwrap();
        assert_eq!(spec.command[0], "cargo");
        assert_eq!(spec.workloads, ["table1-quick", "guadalupe-traj"]);
        let names: Vec<_> = spec.metrics.iter().map(|m| m.name.as_str()).collect();
        assert_eq!(names, ["setup_s", "wall_s", "rate_per_s"]);
        let lower: Vec<_> = spec.metrics.iter().map(|m| m.lower_better).collect();
        assert_eq!(lower, [true, true, false]);
        assert!(spec.metrics.iter().all(|m| m.bound == 0.25));
        assert!(spec.run_seconds > 0.0);
        assert!(read_spec("{\"command\": [\"cargo\"], \"run_seconds\": 1}").is_err());
        let bad_direction = "{\"command\": [\"x\"], \"workloads\": [{\"name\": \"w\"}], \
            \"end_to_end\": [{\"name\": \"m\", \"better\": \"faster\", \"bound\": 0.1}], \
            \"run_seconds\": 1}";
        assert!(read_spec(bad_direction).is_err());
    }

    #[test]
    fn medians_and_quartiles_interpolate() {
        let values: Vec<f64> = (1..=10).rev().map(f64::from).collect();
        assert_eq!(quartiles(&values), [3.25, 5.5, 7.75]);
        assert_eq!(quartiles(&[2.0]), [2.0; 3]);
        let base: Vec<Run> = (1..=10).map(|i| run(f64::from(i), 100.0)).collect();
        let v = judge(&metrics(), &base, &runs(5.5, 100.0));
        let wall = row(&v, "wall_s");
        assert_eq!((wall.base, wall.head), ([3.25, 5.5, 7.75], [5.5; 3]));
        assert_eq!(wall.change, 0.0);
        assert!(v.passed());
    }

    #[test]
    fn lower_is_better_bound_is_sharp() {
        let base = runs(1.0, 100.0);
        let inside = judge(&metrics(), &base, &runs(1.249, 100.0));
        assert!(inside.passed(), "{inside:?}");
        let outside = judge(&metrics(), &base, &runs(1.251, 100.0));
        assert!(row(&outside, "wall_s").worse && !outside.passed());
        // A faster head is never worse.
        assert!(judge(&metrics(), &base, &runs(0.1, 100.0)).passed());
    }

    #[test]
    fn higher_is_better_bound_is_sharp() {
        let base = runs(1.0, 100.0);
        assert!(judge(&metrics(), &base, &runs(1.0, 75.1)).passed());
        let outside = judge(&metrics(), &base, &runs(1.0, 74.9));
        assert!(row(&outside, "rate_per_s").worse && !outside.passed());
        assert!(judge(&metrics(), &base, &runs(1.0, 1000.0)).passed());
    }

    #[test]
    fn a_median_ignores_one_outlier_run() {
        let mut head = runs(1.0, 100.0);
        head[3] = run(10.0, 1.0);
        assert!(judge(&metrics(), &runs(1.0, 100.0), &head).passed());
    }

    #[test]
    fn incorrect_failed_and_missing_runs_fail() {
        let base = runs(1.0, 100.0);
        let with = |i: usize, r: Run| {
            let mut head = runs(1.0, 100.0);
            head[i] = r;
            judge(&metrics(), &base, &head).problems
        };
        assert_eq!(
            with(2, edited("correct", "false")),
            ["head run 3: does not report correct: true"]
        );
        // One failed check more on head than on base.
        assert_eq!(
            with(0, edited("failed", "1")),
            ["head's failed share 0.01 exceeds base's 0"]
        );
        assert_eq!(
            with(1, edited("attempted", "")),
            ["head run 2: lacks failed or attempted"]
        );
        let no_rate = edited("metrics", "{\"wall_s\": {\"value\": 1.0}}");
        assert_eq!(with(5, no_rate), ["head run 6: lacks metric rate_per_s"]);
        let crashed = Err("exited with exit status: 101".to_string());
        assert_eq!(
            with(9, crashed),
            ["head run 10: exited with exit status: 101"]
        );
        // The same failed share on both sides does not fail the gate.
        let flaky: Vec<Run> = (0..PAIRS).map(|_| edited("failed", "1")).collect();
        assert!(judge(&metrics(), &flaky, &flaky).passed());
    }

    #[test]
    fn result_line_is_the_last_line() {
        let out = "== qbench table1-quick\nwall_s 2.5 s\n\
            {\"correct\": true, \"attempted\": 54, \"failed\": 0, \"metrics\": {}}\n\n";
        let r = parse_report(out).unwrap();
        assert_eq!(r.get("attempted").and_then(Value::as_f64), Some(54.0));
        assert!(parse_report("").is_err());
        assert!(parse_report("{\"correct\": true}\ntrailer").is_err());
    }

    #[test]
    fn sig_keeps_four_digits() {
        assert_eq!(sig(2.71543), "2.715");
        assert_eq!(sig(0.0715), "0.07150");
        assert_eq!(sig(242_613.7), "242614");
    }
}
