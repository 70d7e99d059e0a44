//! Layer replays shared by every workload: single public calls into the
//! executor, transpiler and simulator on the workload's own scenario,
//! each inside a span, plus the thread-scaling block.
//!
//! The span names here are the per-layer time metrics' sources (see
//! [`record_trace`]); jobs use other names, so a replay mean is never
//! mixed with job spans.

use std::time::Instant;

use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use qnn::data::Sample;
use qnn::executor::{parallel, NoisyExecutor, ProbeBatch, SimBackend};
use qnn::model::VqcModel;
use quasim::density::SimWorkspace;
use quasim::trajectory::{estimate_prob_one_panel, panel_width_from_env, TrajectoryPanel};
use transpile::expand::ANGLE_TOL;
use transpile::template::CircuitTemplate;

use crate::report::{median, Outcome};
use crate::trace::{span, Split, Summary};
use crate::{Args, Values};

/// Bytes of one complex amplitude (two f64).
const COMPLEX_BYTES: f64 = 16.0;

/// Everything one replay needs.
pub struct Replay<'a> {
    pub exec: &'a NoisyExecutor,
    pub model: &'a VqcModel,
    pub topology: &'a Topology,
    pub samples: &'a [Sample],
    pub weights: &'a [f64],
    pub snapshot: &'a CalibrationSnapshot,
    pub day_stream: u64,
    pub backend: SimBackend,
    pub trajectories: u32,
}

impl Replay<'_> {
    /// Replays one evaluation per sample through `z_scores_seeded`, then
    /// through its parts: `compile_program`, template compile and bind,
    /// and the simulator run; then the whole sample set as one
    /// `evaluate_probes` batch. Records the computed bytes moved.
    pub fn run(&self, values: &mut Values) {
        let mut ws = SimWorkspace::new();
        let mut panel = TrajectoryPanel::new();
        for (i, s) in self.samples.iter().enumerate() {
            let stream = parallel::eval_stream(self.day_stream, i as u64);
            span("executor.z_scores", || {
                self.exec
                    .z_scores_seeded(&s.features, self.weights, self.snapshot, stream)
            });
            let (measured, program) = span("executor.compile_program", || {
                self.exec
                    .compile_program(&s.features, self.weights, self.snapshot)
            });
            let full = self.model.full_params(&s.features, self.weights);
            let template = span("transpile.compile", || {
                CircuitTemplate::compile(self.model.circuit(), self.topology, &full, ANGLE_TOL)
            });
            span("transpile.bind", || template.bind(&full));
            let n = program.n_qubits();
            let segments = program.segments().len() as f64;
            match self.backend {
                SimBackend::Density => {
                    span("quasim.run", || {
                        ws.reset_zero(n);
                        ws.run(&program);
                    });
                    values.insert(
                        "quasim.bytes_per_run",
                        2.0 * COMPLEX_BYTES * 4f64.powi(n as i32) * segments,
                    );
                }
                SimBackend::Trajectory => {
                    let width = panel_width_from_env(n, self.trajectories);
                    span("quasim.run", || {
                        estimate_prob_one_panel(
                            &mut panel,
                            &program,
                            &measured,
                            self.trajectories,
                            stream,
                            width,
                        )
                    });
                    let per_traj = 2.0 * COMPLEX_BYTES * 2f64.powi(n as i32) * segments;
                    values.insert("panel.bytes_per_traj", per_traj);
                    values.insert("panel.width", width as f64);
                    values.insert(
                        "quasim.bytes_per_run",
                        per_traj * f64::from(self.trajectories),
                    );
                }
            }
        }
        let mut batch = ProbeBatch::with_capacity(self.samples.len());
        for (i, s) in self.samples.iter().enumerate() {
            batch.push(
                &s.features,
                self.weights,
                parallel::eval_stream(self.day_stream, i as u64),
            );
        }
        span("executor.evaluate_probes", || {
            self.exec.evaluate_probes(self.snapshot, &batch, 1)
        });
    }
}

/// Parallel efficiency `t1 / (N * tN)` of `job` at 1 and `N` =
/// [`parallel::worker_threads`] threads (median of `reps` timings each),
/// recorded as `pool.parallel_eff`. The job must give the same result at
/// both counts; a difference counts as a failed check.
pub fn thread_scaling<T: PartialEq>(
    label: &str,
    reps: usize,
    values: &mut Values,
    out: &mut Outcome,
    job: impl Fn(usize) -> T,
) {
    let n = parallel::worker_threads();
    let time = |threads: usize| {
        let mut times = Vec::with_capacity(reps);
        let mut result = None;
        for _ in 0..reps {
            let t0 = Instant::now();
            let r = std::hint::black_box(job(threads));
            times.push(t0.elapsed().as_secs_f64());
            result = Some(r);
        }
        (median(&times), result.expect("at least one repetition"))
    };
    let (t1, r1) = time(1);
    let (tn, rn) = time(n);
    out.check(r1 == rn);
    let eff = t1 / (n as f64 * tn);
    out.info(
        &format!("scaling.{label}"),
        format!("t1={:.4}s t{n}={:.4}s eff={eff:.3}", t1, tn),
        "",
    );
    values.insert("pool.parallel_eff", eff);
}

/// Fills the span-derived per-layer metrics of a traced run (its job is
/// the span tree under `bench.job`) and prints every span name's totals.
/// `untraced_wall_s` is the same job's wall time with tracing off,
/// measured in the same process just before.
pub fn record_trace(
    args: &Args,
    summary: &Summary,
    untraced_wall_s: f64,
    values: &mut Values,
    out: &mut Outcome,
) {
    for (metric, name) in [
        ("executor.z_scores_us", "executor.z_scores"),
        ("executor.compile_program_us", "executor.compile_program"),
        ("executor.probe_batch_us", "executor.evaluate_probes"),
        ("transpile.compile_us", "transpile.compile"),
        ("transpile.bind_us", "transpile.bind"),
        ("quasim.run_us", "quasim.run"),
    ] {
        let agg = summary
            .by_name
            .get(name)
            .unwrap_or_else(|| panic!("no '{name}' span was recorded"));
        values.insert(metric, agg.mean_us());
    }
    let job = summary.split("bench.job");
    insert_layer_fracs(&job, values, out);
    values.insert("trace.self_sum_frac", job.self_sum_frac);
    values.insert("trace.overhead_frac", job.wall_s / untraced_wall_s - 1.0);
    out.info("trace.job_wall_s", format!("{:.4}", job.wall_s), "s");
    out.info(
        "trace.untraced_wall_s",
        format!("{untraced_wall_s:.4}"),
        "s",
    );
    for (name, agg) in &summary.by_name {
        out.info(
            &format!("span {name}"),
            format!(
                "n={} mean={:.1}us total={:.2}ms self={:.2}ms",
                agg.count,
                agg.mean_us(),
                agg.total_ns as f64 / 1e6,
                agg.self_ns as f64 / 1e6
            ),
            "",
        );
    }
    out.info("trace.file", crate::trace_path(args).display(), "");
}

/// Records each layer's `<layer>.self_frac` of `split` that the per-layer
/// catalogue names and prints every layer's share.
pub fn insert_layer_fracs(split: &Split, values: &mut Values, out: &mut Outcome) {
    for (layer, frac) in &split.layer_frac {
        let key = format!("{layer}.self_frac");
        if let Some((name, _)) = crate::metrics::PER_LAYER.iter().find(|(n, _)| *n == key) {
            values.insert(name, *frac);
        }
        out.info(&key, format!("{frac:.4}"), "frac");
    }
}
