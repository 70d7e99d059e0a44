//! `table1-quick`: the paper's Table I pipeline at `Scale::Quick` on
//! `ibm_belem` with the density backend — 3 tasks x 6 methods over 12
//! online days each.
//!
//! The experiment is Table I's own (seed 42, as `table1_main` runs it),
//! so every (task, method) accuracy series is checked bit for bit against
//! the reference recorded in `reference/table1_quick.txt`. The workload
//! seed shuffles the order of the 18 method runs, which must not change a
//! single bit.
//!
//! The QuCAD row is driven through `Qucad::build_offline` /
//! `Qucad::online_day` so offline and online cost are timed apart; the
//! other rows go through `run_method`. The traced run re-drives all 18
//! rows from the framework's public parts (profiling, clustering,
//! compression, repository matching, SPSA training, per-day evaluation)
//! with a span around each call, and checks that they reproduce the same
//! series and the same QuCAD repositories.

use std::time::Instant;

use calibration::snapshot::CalibrationSnapshot;
use qnn::data::Sample;
use qnn::executor::{parallel, NoisyExecutor, SimBackend};
use qnn::train::{train_spsa_masked, Env, SpsaConfig};
use qucad::admm::{compress, AdmmConfig};
use qucad::cluster::{kmedians_weighted_l1, performance_weights};
use qucad::framework::{Method, OnlineDecision, Qucad};
use qucad::mask::SelectionRule;
use qucad::repository::{MatchOutcome, ModelRepository, RepositoryEntry};
use qucad_bench::{Experiment, Scale, Task};
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::host::Stopwatch;
use crate::replay::{insert_layer_fracs, record_trace, thread_scaling, Replay};
use crate::report::{bits_eq, median, percentile, Outcome};
use crate::trace::{self, span};
use crate::{trace_path, Args, SetupTimes, Values};

/// Table I's experiment seed.
const TABLE1_SEED: u64 = 42;

/// `task|method|accuracy bits` per line, recorded from this benchmark at
/// Table I's seed (the same series `table1_main --scale=quick` prints).
const REFERENCE: &str = include_str!("../reference/table1_quick.txt");

/// One (task, method) run of a pass.
struct RunRecord {
    task: usize,
    method: Method,
    series: Vec<f64>,
    setup_evals: u64,
    online_evals: u64,
    secs: f64,
}

/// What the QuCAD rows of one pass measured, in run order: offline build
/// per task, `online_day` per day, and per-day latency (`online_day` plus
/// that day's evaluation).
#[derive(Default)]
struct QucadTiming {
    offline_s: Vec<f64>,
    online_s: Vec<f64>,
    day_ms: Vec<f64>,
    decisions: Decisions,
}

#[derive(Debug, Default, Clone, Copy, PartialEq)]
struct Decisions {
    reused: u64,
    compressed: u64,
    failure: u64,
}

impl Decisions {
    fn count(&mut self, d: &OnlineDecision) {
        match d {
            OnlineDecision::Reused { .. } => self.reused += 1,
            OnlineDecision::Compressed { .. } => self.compressed += 1,
            OnlineDecision::Failure { .. } => self.failure += 1,
        }
    }

    fn add(&mut self, o: Decisions) {
        self.reused += o.reused;
        self.compressed += o.compressed;
        self.failure += o.failure;
    }
}

fn prepare() -> Vec<Experiment> {
    Task::table1()
        .iter()
        .map(|&task| {
            let mut exp = Experiment::prepare(task, Scale::Quick, TABLE1_SEED);
            exp.noise.backend = SimBackend::Density;
            exp
        })
        .collect()
}

/// The 18 (task, method) runs in the order the seed picks.
fn run_order(seed: u64) -> Vec<(usize, Method)> {
    let mut order: Vec<(usize, Method)> = (0..Task::table1().len())
        .flat_map(|t| Method::table1().into_iter().map(move |m| (t, m)))
        .collect();
    order.shuffle(&mut rand::rngs::StdRng::seed_from_u64(seed));
    order
}

fn eval_subset(exp: &Experiment) -> Vec<Sample> {
    exp.dataset
        .test
        .iter()
        .take(exp.qucad_config.eval_samples)
        .cloned()
        .collect()
}

/// The QuCAD row through `build_offline` / `online_day`, evaluated per day
/// exactly as `run_method` does.
fn run_qucad(exp: &Experiment, task: usize, timing: &mut QucadTiming) -> (RunRecord, Qucad) {
    let ctx = exp.context();
    let threads = parallel::worker_threads();
    let exec = NoisyExecutor::new(ctx.model, ctx.topology, ctx.noise);
    let eval = eval_subset(exp);
    let t0 = Stopwatch::start();
    let (mut qucad, stats) = Qucad::build_offline(
        ctx.model,
        ctx.topology,
        ctx.noise,
        ctx.offline,
        ctx.train_set,
        ctx.test_set,
        ctx.base_weights,
        ctx.config,
    );
    timing.offline_s.push(t0.elapsed());
    let mut series = Vec::with_capacity(ctx.online.len());
    let mut online_evals = 0;
    for (day_index, snap) in ctx.online.iter().enumerate() {
        let t_day = Stopwatch::start();
        let (weights, decision, evals) = qucad.online_day(snap);
        timing.online_s.push(t_day.elapsed());
        series.push(parallel::batch_accuracy(
            &exec,
            &eval,
            &weights,
            snap,
            day_index as u64,
            threads,
        ));
        timing.day_ms.push(t_day.elapsed() * 1e3);
        timing.decisions.count(&decision);
        online_evals += evals;
    }
    let record = RunRecord {
        task,
        method: Method::Qucad,
        series,
        setup_evals: stats.n_evals,
        online_evals,
        secs: t0.elapsed(),
    };
    (record, qucad)
}

/// One untraced pass over the 18 runs.
fn pass(
    exps: &[Experiment],
    order: &[(usize, Method)],
    timing: &mut QucadTiming,
) -> (Vec<RunRecord>, Vec<Qucad>) {
    let mut records = Vec::with_capacity(order.len());
    let mut qucads = Vec::new();
    for &(task, method) in order {
        let exp = &exps[task];
        let record = if method == Method::Qucad {
            let (r, q) = run_qucad(exp, task, timing);
            qucads.push((task, q));
            r
        } else {
            let t0 = Stopwatch::start();
            let run = exp.run(method);
            RunRecord {
                task,
                method,
                series: run.accuracies(),
                setup_evals: run.setup_evals,
                online_evals: run.online_evals(),
                secs: t0.elapsed(),
            }
        };
        records.push(record);
    }
    qucads.sort_by_key(|(t, _)| *t);
    (records, qucads.into_iter().map(|(_, q)| q).collect())
}

fn reference_line(task: usize, method: Method, series: &[f64]) -> String {
    let bits: Vec<String> = series
        .iter()
        .map(|a| format!("{:016x}", a.to_bits()))
        .collect();
    format!(
        "{}|{}|{}",
        Task::table1()[task].name(),
        method.name(),
        bits.join(",")
    )
}

/// Checks every record against the reference, one check per record.
fn check_reference(records: &[RunRecord], out: &mut Outcome) {
    let reference: Vec<&str> = REFERENCE.lines().filter(|l| !l.trim().is_empty()).collect();
    for r in records {
        let line = reference_line(r.task, r.method, &r.series);
        let ok = reference.contains(&line.as_str());
        if !ok {
            eprintln!("table1: series differs from the reference: {line}");
        }
        out.check(ok);
    }
}

fn mean(v: &[f64]) -> f64 {
    v.iter().sum::<f64>() / v.len() as f64
}

/// QuCAD minus Noise-aware Train Everyday mean accuracy, averaged over the
/// tasks, in percentage points.
fn gain_pp(records: &[RunRecord]) -> f64 {
    let mean_of = |task: usize, method: Method| {
        records
            .iter()
            .find(|r| r.task == task && r.method == method)
            .map(|r| mean(&r.series))
            .expect("every (task, method) ran")
    };
    let n = Task::table1().len();
    (0..n)
        .map(|t| mean_of(t, Method::Qucad) - mean_of(t, Method::NoiseAwareEveryday))
        .sum::<f64>()
        / n as f64
        * 100.0
}

/// Circuit evaluations of one pass: training and compression cost plus
/// one evaluation per (online day, evaluation sample) of every run.
fn pass_evals(exps: &[Experiment], records: &[RunRecord]) -> u64 {
    records
        .iter()
        .map(|r| {
            let exp = &exps[r.task];
            let eval = (exp.history.online().len() * eval_subset(exp).len()) as u64;
            r.setup_evals + r.online_evals + eval
        })
        .sum()
}

pub fn run(args: &Args, out: &mut Outcome) -> Values {
    let mut values = Values::new();
    let (mut setup, exps) = SetupTimes::start(prepare, drop);
    let order = run_order(args.seed);
    out.info("workload.seed", args.seed, "");
    out.info(
        "table1.order",
        order
            .iter()
            .map(|(t, m)| format!("{t}:{}", m.name()))
            .collect::<Vec<_>>()
            .join(", "),
        "",
    );

    if args.trace {
        // An untraced pass: its series and repositories are what the
        // re-drive must match.
        let mut timing = QucadTiming::default();
        let (records, qucads) = pass(&exps, &order, &mut timing);
        check_reference(&records, out);
        report_counts(&exps, &records, &timing, out);
        traced(args, &exps, &order, &records, &qucads, &mut values, out);
        return values;
    }

    // Timed passes. Every pass repeats the same runs in the same order,
    // so each run (and each QuCAD day) is timed once per pass; a figure is
    // the sum, or percentile, of the per-item medians over the passes,
    // which a slow stretch of the host during one pass does not move.
    let window = args.window();
    let t_start = Instant::now();
    let whole = Stopwatch::start();
    let (mut walls, mut runs, mut offline, mut online, mut day_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut last = None;
    while walls.len() < 3 || t_start.elapsed() < window {
        let mut timing = QucadTiming::default();
        let t0 = Stopwatch::start();
        let (records, _) = pass(&exps, &order, &mut timing);
        walls.push(t0.elapsed());
        check_reference(&records, out);
        if walls.len() == 1 {
            report_counts(&exps, &records, &timing, out);
        }
        runs.push(records.iter().map(|r| r.secs).collect::<Vec<_>>());
        offline.push(timing.offline_s);
        online.push(timing.online_s);
        day_ms.push(timing.day_ms);
        last = Some(records);
        let done = t_start.elapsed().as_secs_f64() / args.seconds;
        setup.between_passes(done, prepare, drop);
    }
    let records = last.expect("at least one pass");
    let run_s = item_medians(&runs);
    let table1_s: f64 = run_s.iter().sum();
    let run_ms: Vec<f64> = run_s.iter().map(|s| s * 1e3).collect();
    let day_ms = item_medians(&day_ms);
    out.info(
        "host.steal_frac",
        format!("{:.4}", whole.steal_frac()),
        "frac",
    );
    out.info("table1.passes", walls.len(), "count");
    out.info("table1.pass_s", format!("{walls:.3?}"), "s");
    out.info("table1_s", format!("{table1_s:.4}"), "s");
    out.info(
        "qucad_offline_s",
        format!("{:.4}", item_medians(&offline).iter().sum::<f64>()),
        "s",
    );
    out.info(
        "qucad_online_s",
        format!("{:.4}", item_medians(&online).iter().sum::<f64>()),
        "s",
    );
    out.info("qucad_gain_pp", format!("{:.4}", gain_pp(&records)), "pp");
    values.insert("setup_s", setup.median());
    values.insert("wall_s", table1_s);
    values.insert("rate_per_s", pass_evals(&exps, &records) as f64 / table1_s);
    out.info(
        "qucad.online_day_p50_ms",
        format!("{:.4}", median(&day_ms)),
        "ms",
    );
    out.info(
        "qucad.online_day_p99_ms",
        format!("{:.4}", percentile(&day_ms, 99.0)),
        "ms",
    );
    out.info(
        "table1.cell_p50_ms",
        format!("{:.4}", median(&run_ms)),
        "ms",
    );
    out.info(
        "table1.cell_p99_ms",
        format!("{:.4}", percentile(&run_ms, 99.0)),
        "ms",
    );
    values
}

/// Median over passes of every item (`passes[p][i]` is item `i`'s figure
/// in pass `p`).
fn item_medians(passes: &[Vec<f64>]) -> Vec<f64> {
    (0..passes[0].len())
        .map(|i| median(&passes.iter().map(|p| p[i]).collect::<Vec<_>>()))
        .collect()
}

/// Prints the exact work counts of one pass.
fn report_counts(
    exps: &[Experiment],
    records: &[RunRecord],
    timing: &QucadTiming,
    out: &mut Outcome,
) {
    for r in records {
        out.info(
            &format!(
                "evals {} / {}",
                Task::table1()[r.task].name(),
                r.method.name()
            ),
            format!(
                "setup_evals={} online_evals={} mean={:.4}",
                r.setup_evals,
                r.online_evals,
                mean(&r.series)
            ),
            "",
        );
    }
    let d = timing.decisions;
    out.info(
        "qucad.decisions",
        format!(
            "reused={} compressed={} failure={}",
            d.reused, d.compressed, d.failure
        ),
        "days",
    );
    out.info("table1.evals_per_pass", pass_evals(exps, records), "count");
}

/// Counters of a traced re-drive.
#[derive(Default)]
struct Counts {
    spsa_evals: u64,
    compress_calls: u64,
    compress_evals: u64,
    qucad: Decisions,
    hits: u64,
    misses: u64,
}

/// Re-drives one (task, method) run from the framework's public parts,
/// mirroring `run_method` step for step, with a span around every call.
/// Returns the series and, for the QuCAD rows, the final repository.
fn redrive(
    exp: &Experiment,
    method: Method,
    counts: &mut Counts,
) -> (Vec<f64>, Option<ModelRepository>) {
    let ctx = exp.context();
    let threads = parallel::worker_threads();
    let exec = NoisyExecutor::new(ctx.model, ctx.topology, ctx.noise);
    let eval = eval_subset(exp);
    let all_trainable = vec![true; ctx.model.n_weights()];
    let days: Vec<&CalibrationSnapshot> = ctx.online.iter().collect();
    let eval_day = |w: &[f64], day: usize| {
        span("executor.batch_accuracy", || {
            parallel::batch_accuracy(&exec, &eval, w, days[day], day as u64, threads)
        })
    };
    let eval_series = |w: &[f64]| {
        span("executor.accuracy_over_days", || {
            parallel::accuracy_over_days(&exec, &days, &eval, w, threads)
        })
    };
    let mut spsa_evals = 0;
    let mut nat = |init: &[f64], snap: &CalibrationSnapshot, seed: u64| {
        let env = Env::Noisy {
            exec: &exec,
            snapshot: snap,
        };
        let cfg = SpsaConfig {
            seed,
            ..ctx.nat_config
        };
        let r = span("train.spsa", || {
            train_spsa_masked(ctx.model, ctx.train_set, env, &cfg, init, &all_trainable)
        });
        spsa_evals += r.n_evals;
        r.weights
    };
    let (mut compress_calls, mut compress_evals) = (0, 0);
    let mut compress_at = |snap: &CalibrationSnapshot, cfg: &AdmmConfig| {
        let out = span("admm.compress", || {
            compress(
                ctx.model,
                &exec,
                ctx.train_set,
                snap,
                &ctx.config.table,
                cfg,
                ctx.base_weights,
            )
        });
        compress_calls += 1;
        compress_evals += out.n_evals;
        out.weights
    };
    let mut repository = None;
    let series = match method {
        Method::Baseline => eval_series(ctx.base_weights),
        Method::NoiseAwareOnce => eval_series(&nat(ctx.base_weights, &ctx.online[0], 101)),
        Method::NoiseAwareEveryday => {
            let mut w = ctx.base_weights.to_vec();
            (0..days.len())
                .map(|d| {
                    w = nat(&w, days[d], 1000 + days[d].day as u64);
                    eval_day(&w, d)
                })
                .collect()
        }
        Method::CompressionEveryday => unreachable!("not a Table I row"),
        Method::OneTimeCompression => {
            let cfg = AdmmConfig {
                noise_aware: false,
                rule: SelectionRule::TopFraction(0.5),
                ..ctx.config.admm
            };
            eval_series(&compress_at(&ctx.online[0], &cfg))
        }
        Method::QucadWithoutOffline | Method::Qucad => {
            let mut repo = if method == Method::Qucad {
                span("framework.build_offline", || {
                    offline_from_parts(exp, &exec, &mut compress_at)
                })
            } else {
                let f = ctx.online[0].feature_vector();
                let norm: f64 = f.iter().map(|x| x.abs()).sum();
                ModelRepository::new(
                    vec![1.0; f.len()],
                    ctx.config.fallback_threshold_frac * norm,
                    ctx.config.accuracy_requirement,
                )
            };
            let mut decisions = Decisions::default();
            let series = (0..days.len())
                .map(|d| {
                    let snap = days[d];
                    let outcome = span("repository.match", || repo.match_snapshot(snap));
                    let w = match outcome {
                        MatchOutcome::Hit { index, distance } => {
                            decisions.count(&OnlineDecision::Reused { index, distance });
                            repo.weights_of(index).to_vec()
                        }
                        MatchOutcome::Invalid {
                            index,
                            predicted_accuracy,
                        } => {
                            decisions.count(&OnlineDecision::Failure {
                                index,
                                predicted_accuracy,
                            });
                            repo.weights_of(index).to_vec()
                        }
                        MatchOutcome::Miss { .. } => {
                            let w = compress_at(snap, &ctx.config.admm);
                            decisions.count(&OnlineDecision::Compressed { index: repo.len() });
                            span("repository.push", || {
                                repo.push(RepositoryEntry {
                                    centroid: snap.feature_vector(),
                                    weights: w.clone(),
                                    mean_accuracy: None,
                                    origin_day: snap.day,
                                });
                            });
                            w
                        }
                    };
                    eval_day(&w, d)
                })
                .collect();
            if method == Method::Qucad {
                counts.qucad.add(decisions);
            }
            repository = Some(repo);
            series
        }
    };
    counts.spsa_evals += spsa_evals;
    counts.compress_calls += compress_calls;
    counts.compress_evals += compress_evals;
    let cache = exec.cache_stats();
    counts.hits += cache.hits;
    counts.misses += cache.misses;
    (series, repository)
}

/// `Qucad::build_offline`'s repository, rebuilt from its public parts.
fn offline_from_parts(
    exp: &Experiment,
    exec: &NoisyExecutor,
    compress_at: &mut impl FnMut(&CalibrationSnapshot, &AdmmConfig) -> Vec<f64>,
) -> ModelRepository {
    let ctx = exp.context();
    let config = ctx.config;
    let stride = (ctx.offline.len() / config.max_offline_evals.max(1)).max(1);
    let sampled: Vec<&CalibrationSnapshot> = ctx.offline.iter().step_by(stride).collect();
    let eval = eval_subset(exp);
    let features: Vec<Vec<f64>> = sampled.iter().map(|s| s.feature_vector()).collect();
    let accuracies = span("framework.profile", || {
        span("executor.accuracy_over_days", || {
            parallel::accuracy_over_days(
                exec,
                &sampled,
                &eval,
                ctx.base_weights,
                parallel::worker_threads(),
            )
        })
    });
    let weights = span("cluster.performance_weights", || {
        performance_weights(&features, &accuracies)
    });
    let k = config.k.min(features.len());
    let clustering = span("cluster.kmedians", || {
        kmedians_weighted_l1(&features, &weights, k, config.seed, config.cluster_iters)
    });
    let mean_norm = features
        .iter()
        .map(|f| f.iter().map(|x| x.abs()).sum::<f64>())
        .sum::<f64>()
        / features.len().max(1) as f64;
    let threshold = (clustering.guidance_threshold(&features) * config.threshold_scale)
        .max(config.threshold_floor_frac * mean_norm);
    let cluster_acc = clustering.cluster_means(&accuracies);
    let mut repo = ModelRepository::new(weights, threshold, config.accuracy_requirement);
    for (g, centroid) in clustering.centroids.iter().enumerate() {
        let snap = CalibrationSnapshot::from_feature_vector(ctx.topology, 0, centroid);
        let weights = compress_at(&snap, &config.admm);
        span("repository.push", || {
            repo.push(RepositoryEntry {
                centroid: centroid.clone(),
                weights,
                mean_accuracy: Some(cluster_acc[g]),
                origin_day: sampled.first().map_or(0, |s| s.day),
            });
        });
    }
    repo
}

/// Re-drives the runs of `order`, each inside a `framework.run_method`
/// span.
fn redrive_all(
    exps: &[Experiment],
    order: &[(usize, Method)],
    counts: &mut Counts,
) -> Vec<(usize, Method, Vec<f64>, Option<ModelRepository>)> {
    order
        .iter()
        .map(|&(task, method)| {
            let (series, repo) = span("framework.run_method", || {
                redrive(&exps[task], method, counts)
            });
            (task, method, series, repo)
        })
        .collect()
}

fn traced(
    args: &Args,
    exps: &[Experiment],
    order: &[(usize, Method)],
    records: &[RunRecord],
    qucads: &[Qucad],
    values: &mut Values,
    out: &mut Outcome,
) {
    // The same re-drive untraced, before and after the traced one, for the
    // overhead figure; their mean cancels a steady drift of the host.
    let twin = || {
        let t0 = Instant::now();
        let runs = trace::untraced(|| redrive_all(exps, order, &mut Counts::default()));
        (t0.elapsed().as_secs_f64(), runs)
    };
    let (before_s, before) = twin();
    let mut counts = Counts::default();
    let redriven = span("bench.job", || redrive_all(exps, order, &mut counts));
    let (after_s, after) = twin();
    let untraced_wall = (before_s + after_s) / 2.0;
    for (task, method, series, repo) in before.iter().chain(&redriven).chain(&after) {
        let untraced = records
            .iter()
            .find(|r| r.task == *task && r.method == *method)
            .expect("every run was recorded");
        let same = bits_eq(series, &untraced.series);
        if !same {
            eprintln!(
                "table1: traced re-drive of task {task} / {} differs",
                method.name()
            );
        }
        out.check(same);
        if *method == Method::Qucad {
            let ok = repo.as_ref() == Some(qucads[*task].repository());
            if !ok {
                eprintln!(
                    "table1: re-driven repository of task {task} differs from build_offline's"
                );
            }
            out.check(ok);
        }
    }

    // The QuCAD row driven through build_offline / online_day is
    // `run_method`'s row: check it on the cheapest task.
    let seismic = Task::table1().len() - 1;
    let run = exps[seismic].run(Method::Qucad);
    check_reference(
        &[RunRecord {
            task: seismic,
            method: Method::Qucad,
            series: run.accuracies(),
            setup_evals: run.setup_evals,
            online_evals: run.online_evals(),
            secs: 0.0,
        }],
        out,
    );

    let mnist = &exps[0];
    let eval = eval_subset(mnist);
    let exec = NoisyExecutor::new(&mnist.model, &mnist.topology, mnist.noise);
    Replay {
        exec: &exec,
        model: &mnist.model,
        topology: &mnist.topology,
        samples: &eval,
        weights: &mnist.base_weights,
        snapshot: &mnist.history.online()[0],
        day_stream: 0,
        backend: SimBackend::Density,
        trajectories: mnist.noise.trajectories,
    }
    .run(values);
    let days: Vec<&CalibrationSnapshot> = mnist.history.online().iter().collect();
    thread_scaling("accuracy_over_days", 3, values, out, |t| {
        parallel::accuracy_over_days(&exec, &days, &eval, &mnist.base_weights, t)
    });

    // The serving layers (codec, batch queue, server) on the same device.
    crate::serve_mix::serving_layers(args.seed, values, out);

    let summary = trace::summarize(&trace_path(args), &crate::trace_header(args));
    record_trace(args, &summary, untraced_wall, values, out);
    // The serving layers' shares of the serving segment, which has its own
    // root.
    insert_layer_fracs(&summary.split("serve.segment"), values, out);
    crate::serve_mix::codec_info(&summary, out);
    let ms = |name: &str| summary.by_name.get(name).map_or(0.0, |a| a.mean_us() / 1e3);
    for (name, span_name) in [
        ("train.spsa_ms", "train.spsa"),
        ("framework.eval_day_ms", "executor.batch_accuracy"),
        ("framework.profile_ms", "framework.profile"),
        ("cluster.kmedians_ms", "cluster.kmedians"),
        ("admm.compress_ms", "admm.compress"),
    ] {
        out.info(name, format!("{:.3}", ms(span_name)), "ms");
    }
    out.info(
        "repository.match_us",
        format!("{:.3}", ms("repository.match") * 1e3),
        "us",
    );

    let online_days: u64 = exps.iter().map(|e| e.history.online().len() as u64).sum();
    let d = counts.qucad;
    values.insert("executor.evals", pass_evals(exps, records) as f64);
    values.insert("executor.cache_hits", counts.hits as f64);
    values.insert("transpile.compiles", counts.misses as f64);
    values.insert(
        "executor.cache_hit_ratio",
        counts.hits as f64 / (counts.hits + counts.misses).max(1) as f64,
    );
    values.insert("train.spsa_evals", counts.spsa_evals as f64);
    values.insert("admm.compress_calls", counts.compress_calls as f64);
    values.insert(
        "admm.evals_per_compress",
        counts.compress_evals as f64 / counts.compress_calls.max(1) as f64,
    );
    values.insert("framework.reused_days", d.reused as f64);
    values.insert("framework.compressed_days", d.compressed as f64);
    values.insert("framework.failure_days", d.failure as f64);
    values.insert(
        "framework.reuse_ratio",
        d.reused as f64 / online_days as f64,
    );
}
