//! `guadalupe-traj`: fig10 at Quick scale — a 16-qubit VQC routed onto
//! the `ibm_guadalupe` heavy-hex register, evaluated per day with the
//! batched trajectory panel (the density engine cannot hold 16 qubits).
//!
//! The job is one `parallel::accuracy_over_days` call over 3 days x 4
//! samples x 32 trajectories, exactly as `fig10_guadalupe --scale=quick`
//! runs it. It compiles one structure per sample and makes no density or
//! codec calls.

use std::time::Instant;

use calibration::history::{FluctuatingHistory, HistoryConfig};
use calibration::topology::Topology;
use qnn::data::Dataset;
use qnn::executor::{parallel, NoiseOptions, NoisyExecutor, SimBackend};
use qnn::model::VqcModel;
use quasim::trajectory::{
    estimate_prob_one, estimate_prob_one_panel, panel_width_from_env, TrajectoryPanel,
    TrajectoryWorkspace,
};

use crate::host::Stopwatch;
use crate::replay::{record_trace, thread_scaling, Replay};
use crate::report::{bits_eq, median, percentile, Outcome};
use crate::trace::span;
use crate::{trace_path, Args, SetupTimes, Values};

/// The fig10 scenario's seed: model weights, data and calibration days
/// are fig10's own. The workload seed picks the Monte Carlo streams
/// (shot noise and trajectory jumps), which leaves the amount of work the
/// same in expectation.
const FIG10_SEED: u64 = 42;
const DAYS: usize = 3;
const SAMPLES: usize = 4;
const TRAJECTORIES: u32 = 32;
/// Trajectory budget of the per-trajectory oracle check (the oracle runs
/// one trajectory at a time, so the full budget would cost seconds).
const ORACLE_TRAJECTORIES: u32 = 4;

struct Scenario {
    topology: Topology,
    model: VqcModel,
    dataset: Dataset,
    history: FluctuatingHistory,
    weights: Vec<f64>,
    exec: NoisyExecutor,
}

impl Scenario {
    fn build(seed: u64) -> Scenario {
        let topology = Topology::ibm_guadalupe();
        let model = VqcModel::paper_model(topology.n_qubits(), 4, 16, 1);
        let dataset = Dataset::mnist4(32, SAMPLES, FIG10_SEED);
        let history = FluctuatingHistory::generate(
            &topology,
            &HistoryConfig::guadalupe_like(DAYS, FIG10_SEED),
            0,
        );
        let weights = model.init_weights(FIG10_SEED);
        let noise = NoiseOptions {
            scale: 3.0,
            backend: SimBackend::Trajectory,
            trajectories: TRAJECTORIES,
            ..NoiseOptions::with_shots(1024, seed)
        };
        let exec = NoisyExecutor::new(&model, &topology, noise);
        // Fill the executor's trajectory panel and start its program cache.
        exec.z_scores_seeded(&dataset.test[0].features, &weights, &history.online()[0], 0);
        Scenario {
            topology,
            model,
            dataset,
            history,
            weights,
            exec,
        }
    }

    fn evaluate(&self, threads: usize) -> Vec<f64> {
        let days: Vec<_> = self.history.online().iter().collect();
        parallel::accuracy_over_days(&self.exec, &days, self.eval_set(), &self.weights, threads)
    }

    fn eval_set(&self) -> &[qnn::data::Sample] {
        &self.dataset.test[..SAMPLES]
    }

    /// Panel estimate of one evaluation against the per-trajectory oracle,
    /// bit for bit, on a reduced trajectory budget.
    fn oracle_check(&self) -> bool {
        let snap = &self.history.online()[0];
        let (measured, program) =
            self.exec
                .compile_program(&self.eval_set()[0].features, &self.weights, snap);
        let width = panel_width_from_env(program.n_qubits(), ORACLE_TRAJECTORIES);
        let seed = 0x9E37_79B9_7F4A_7C15;
        let panel = estimate_prob_one_panel(
            &mut TrajectoryPanel::new(),
            &program,
            &measured,
            ORACLE_TRAJECTORIES,
            seed,
            width,
        );
        let oracle = estimate_prob_one(
            &mut TrajectoryWorkspace::new(),
            &program,
            &measured,
            ORACLE_TRAJECTORIES,
            seed,
        );
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        bits(&panel.p_one) == bits(&oracle.p_one) && bits(&panel.std_err) == bits(&oracle.std_err)
    }
}

pub fn run(args: &Args, out: &mut Outcome) -> Values {
    let mut values = Values::new();
    let (mut setup, sc) = SetupTimes::start(|| Scenario::build(args.seed), drop);
    let threads = parallel::worker_threads();
    let total_traj = f64::from(TRAJECTORIES) * (SAMPLES * DAYS) as f64;
    out.info("workload.seed", args.seed, "");
    out.info("guadalupe.trajectories_per_job", total_traj, "count");

    if args.trace {
        let t0 = Instant::now();
        let reference = sc.evaluate(threads);
        let untraced = t0.elapsed().as_secs_f64();
        let traced = span("bench.job", || {
            span("executor.accuracy_over_days", || sc.evaluate(threads))
        });
        out.check(bits_eq(&traced, &reference));
        Replay {
            exec: &sc.exec,
            model: &sc.model,
            topology: &sc.topology,
            samples: &sc.eval_set()[..1],
            weights: &sc.weights,
            snapshot: &sc.history.online()[0],
            day_stream: 0,
            backend: SimBackend::Trajectory,
            trajectories: TRAJECTORIES,
        }
        .run(&mut values);
        thread_scaling("guadalupe_eval", 1, &mut values, out, |t| sc.evaluate(t));
        let cache = sc.exec.cache_stats();
        values.insert("executor.cache_hits", cache.hits as f64);
        values.insert("transpile.compiles", cache.misses as f64);
        values.insert(
            "executor.cache_hit_ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
        );
        values.insert("executor.evals", (SAMPLES * DAYS) as f64);
        values.insert("panel.trajectories", total_traj);
        out.check(sc.oracle_check());
        let summary = crate::trace::summarize(&trace_path(args), &crate::trace_header(args));
        record_trace(args, &summary, untraced, &mut values, out);
        let panel_ms = summary.by_name["quasim.run"].mean_us() / 1e3;
        out.info("panel.estimate_ms", format!("{panel_ms:.3}"), "ms");
        return values;
    }

    // Untraced: an untimed warm-up pass (the per-thread executor clones'
    // buffers), then the job repeated for the window; every pass must give
    // the warm-up pass's bits.
    let series = sc.evaluate(threads);
    let mut walls = Vec::new();
    let window = args.window();
    let t_start = Instant::now();
    let whole = Stopwatch::start();
    while walls.len() < 3 || t_start.elapsed() < window {
        let t0 = Stopwatch::start();
        let pass = sc.evaluate(threads);
        walls.push(t0.elapsed());
        out.check(bits_eq(&series, &pass));
        let done = t_start.elapsed().as_secs_f64() / args.seconds;
        setup.between_passes(done, || Scenario::build(args.seed), drop);
    }
    out.check(sc.oracle_check());
    out.info(
        "host.steal_frac",
        format!("{:.4}", whole.steal_frac()),
        "frac",
    );
    out.info("guadalupe.series", format!("{series:?}"), "");
    let ms: Vec<f64> = walls.iter().map(|w| w * 1e3).collect();
    let wall = median(&walls);
    out.info("guadalupe.pass_s", format!("{walls:.3?}"), "s");
    out.info(
        "guadalupe.traj_per_s",
        format!("{:.2}", total_traj / wall),
        "1/s",
    );
    values.insert("setup_s", setup.median());
    values.insert("wall_s", wall);
    values.insert("rate_per_s", total_traj / wall);
    out.info("guadalupe.pass_p50_ms", format!("{:.3}", median(&ms)), "ms");
    out.info(
        "guadalupe.pass_p99_ms",
        format!("{:.3}", percentile(&ms, 99.0)),
        "ms",
    );
    values
}
