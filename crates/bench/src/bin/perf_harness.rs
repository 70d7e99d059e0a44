//! Performance harness for the hot evaluation path, wired into CI as a
//! regression gate.
//!
//! Times the `Scale::Quick` Table I evaluation path (per-day accuracy of
//! the base model over the online phase, plus per-sample noisy `z_scores`
//! micro sections), the trajectory backend in both execution shapes
//! (per-trajectory vs batched panel, on the 16-qubit `fig10_guadalupe`
//! scenario circuit), and the compile-once/rebind-many transpile split,
//! and writes a machine-readable `BENCH_<rev>.json`. With
//! `--check-against=bench/baseline.json` it compares probe-normalised
//! section costs against the committed baseline and exits non-zero when a
//! gated section regressed by more than `--max-regression` (default 25%).
//! The panel and rebind sections are gated, so the regression gate covers
//! the batched trajectory path and the program-cache rebind path alongside
//! the fused density path.
//!
//! Gated sections run single-threaded so the gate measures kernel speed,
//! not runner core count; a thread-fanned section is recorded ungated for
//! information. The harness also verifies that batch evaluation is
//! bit-identical at 1/4/16 threads and fails hard if it is not.
//!
//! Run: `cargo run --release -p qucad_bench --bin perf_harness -- \
//!       [--out-dir=DIR] [--rev=REV] [--check-against=PATH] \
//!       [--max-regression=0.25]`

use qnn::executor::{parallel, NoiseOptions, NoisyExecutor, SimBackend};
use qucad_bench::perf::{calibration_probe_ms, compare_reports, BenchReport};
use qucad_bench::{Experiment, Scale, Task};

use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use qnn::model::VqcModel;
use quasim::trajectory::{
    auto_panel_width, auto_panel_width_is_clamped, estimate_prob_one, estimate_prob_one_panel,
    TrajectoryPanel, TrajectoryWorkspace,
};
use transpile::expand::ANGLE_TOL;
use transpile::route::route;
use transpile::template::CircuitTemplate;

fn arg_value(name: &str) -> Option<String> {
    let prefix = format!("--{name}=");
    std::env::args().find_map(|a| a.strip_prefix(&prefix).map(str::to_string))
}

fn resolve_rev() -> String {
    if let Some(rev) = arg_value("rev") {
        return rev;
    }
    for var in ["QUCAD_BENCH_REV", "GITHUB_SHA"] {
        // qucad-lint: allow(env-read) — audited entry point: CI revision stamp for perf baselines
        if let Ok(v) = std::env::var(var) {
            if !v.trim().is_empty() {
                return v.trim().chars().take(12).collect();
            }
        }
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "local".to_string())
}

fn task_slug(task: Task) -> &'static str {
    match task {
        Task::Mnist4 => "mnist4",
        Task::Iris => "iris",
        Task::Seismic => "seismic",
    }
}

/// Asserts bit-identical batch evaluation across thread counts; the
/// parallel fan-out must never change the numbers the tables report.
fn verify_thread_invariance(exp: &Experiment) {
    let exec = NoisyExecutor::new(&exp.model, &exp.topology, exp.noise);
    let samples = &exp.dataset.test[..exp.dataset.test.len().min(8)];
    let snap = &exp.history.online()[0];
    let reference = parallel::batch_z_scores(&exec, samples, &exp.base_weights, snap, 0, 1);
    for threads in [4usize, 16] {
        let got = parallel::batch_z_scores(&exec, samples, &exp.base_weights, snap, 0, threads);
        for (i, (a, b)) in reference.iter().zip(got.iter()).enumerate() {
            for (j, (x, y)) in a.iter().zip(b.iter()).enumerate() {
                assert!(
                    x.to_bits() == y.to_bits(),
                    "thread-invariance violation: sample {i} score {j} differs at \
                     {threads} threads ({x} vs {y})"
                );
            }
        }
    }
}

fn main() {
    let rev = resolve_rev();
    let out_dir = arg_value("out-dir").unwrap_or_else(|| ".".to_string());
    let max_regression: f64 = arg_value("max-regression").map_or(0.25, |v| {
        v.parse().expect("--max-regression must be a number")
    });
    let threads = parallel::worker_threads();

    eprintln!("[perf] measuring machine probe ...");
    let probe_ms = calibration_probe_ms();
    eprintln!("[perf] probe: {probe_ms:.1} ms");
    let mut report = BenchReport::new(&rev, threads, probe_ms);

    let mut experiments = Vec::new();
    for task in Task::table1() {
        let slug = task_slug(task);
        eprintln!("[perf] preparing {} ...", task.name());
        let exp = report.time(&format!("prepare_{slug}"), false, || {
            Experiment::prepare(task, Scale::Quick, 42)
        });
        experiments.push(exp);
    }

    for exp in &experiments {
        let slug = task_slug(exp.task);
        // Gated sections always measure the density engine: the committed
        // baseline is a density profile, so a QUCAD_BACKEND=trajectory
        // environment must not silently re-point the gate at the
        // stochastic engine (its cost scales with the trajectory budget).
        let exec = NoisyExecutor::new(
            &exp.model,
            &exp.topology,
            NoiseOptions {
                backend: SimBackend::Density,
                ..exp.noise
            },
        );
        let eval_subset =
            &exp.dataset.test[..exp.dataset.test.len().min(exp.qucad_config.eval_samples)];
        let days: Vec<_> = exp.history.online().iter().collect();

        // The Table I evaluation path: per-day accuracy of one weight
        // vector over the whole online phase. Single-threaded so the gate
        // tracks kernel speed, not core count.
        eprintln!("[perf] table1 eval ({slug}) ...");
        let series = report.time(&format!("table1_eval_{slug}"), true, || {
            parallel::accuracy_over_days(&exec, &days, eval_subset, &exp.base_weights, 1)
        });
        assert_eq!(series.len(), days.len());
        assert!(series.iter().all(|a| (0.0..=1.0).contains(a)));

        // Same path fanned over the configured worker count (ungated:
        // runner core counts vary).
        if threads > 1 {
            report.time(&format!("table1_eval_{slug}_{threads}thr"), false, || {
                parallel::accuracy_over_days(&exec, &days, eval_subset, &exp.base_weights, threads)
            });
        }

        // Micro: repeated single-sample noisy evaluation (the innermost
        // unit of every table/figure).
        let features = &exp.dataset.test[0].features;
        let snap = &exp.history.online()[0];
        report.time(&format!("noisy_z_scores_{slug}_x32"), true, || {
            for stream in 0..32u64 {
                std::hint::black_box(exec.z_scores_seeded(
                    features,
                    &exp.base_weights,
                    snap,
                    stream,
                ));
            }
        });

        // Same micro section on the Monte-Carlo trajectory backend, so the
        // two engines' throughput sits side by side in every report.
        // Ungated: the stochastic engine has no committed baseline yet and
        // its cost scales with the trajectory budget, not kernel speed
        // alone.
        let traj_exec = NoisyExecutor::new(
            &exp.model,
            &exp.topology,
            NoiseOptions {
                backend: SimBackend::Trajectory,
                trajectories: 64,
                ..exp.noise
            },
        );
        report.time(&format!("trajectory_z_scores_{slug}_64t_x8"), false, || {
            for stream in 0..8u64 {
                std::hint::black_box(traj_exec.z_scores_seeded(
                    features,
                    &exp.base_weights,
                    snap,
                    stream,
                ));
            }
        });
    }

    // Trajectory backend, both execution shapes, on the fig10_guadalupe
    // scenario circuit: a 16-qubit register the density engine cannot
    // touch. The panel section is gated (it is the production trajectory
    // path); the per-trajectory section documents the amortisation win and
    // its estimate must match the panel's bit for bit.
    eprintln!("[perf] guadalupe trajectory sections ...");
    {
        let topo = Topology::ibm_guadalupe();
        let model = VqcModel::paper_model(topo.n_qubits(), 4, 16, 1);
        let exec = NoisyExecutor::new(
            &model,
            &topo,
            NoiseOptions {
                scale: 3.0,
                backend: SimBackend::Trajectory,
                trajectories: 32,
                ..NoiseOptions::with_shots(1024, 42)
            },
        );
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-4, 1e-2, 0.02);
        let features: Vec<f64> = (0..16).map(|i| 0.1 * i as f64).collect();
        let weights = model.init_weights(42);
        let (measured, program) = exec.compile_program(&features, &weights, &snap);
        let n_traj = 32u32;
        let width = auto_panel_width(program.n_qubits());
        if auto_panel_width_is_clamped(program.n_qubits()) {
            eprintln!(
                "[perf] note: panel width clamped to {width} columns at {} qubits — the \
                 cache budget would prefer fewer, but SIMD lane fill keeps a floor",
                program.n_qubits()
            );
        }

        let mut ws = TrajectoryWorkspace::new();
        let per_traj = report.time("trajectory_pertraj_guadalupe_32t", false, || {
            estimate_prob_one(&mut ws, &program, &measured, n_traj, 7)
        });
        let mut panel = TrajectoryPanel::new();
        let panel_est = report.time("trajectory_panel_guadalupe_32t", true, || {
            estimate_prob_one_panel(&mut panel, &program, &measured, n_traj, 7, width)
        });
        for (a, b) in per_traj.p_one.iter().zip(panel_est.p_one.iter()) {
            assert!(
                a.to_bits() == b.to_bits(),
                "panel estimate must be bit-identical to the per-trajectory engine"
            );
        }
        let wall = |name: &str| report.section(name).expect("timed above").wall_ms;
        println!(
            "guadalupe trajectory throughput: per-trajectory {:.1} ms, panel(B={width}) {:.1} ms \
             -> {:.2}x",
            wall("trajectory_pertraj_guadalupe_32t"),
            wall("trajectory_panel_guadalupe_32t"),
            wall("trajectory_pertraj_guadalupe_32t") / wall("trajectory_panel_guadalupe_32t")
        );
    }

    // Compile-once/rebind-many: the per-evaluation transpile cost the
    // program cache eliminates (full simplify → route → expand) versus the
    // residual rebind cost (expansion only). The rebind section is gated.
    eprintln!("[perf] rebind sections ...");
    {
        let model = VqcModel::paper_model(4, 4, 16, 2);
        let topo = Topology::ibm_belem();
        let full: Vec<f64> = (0..model.circuit().n_params())
            .map(|i| 0.2 + i as f64 * 0.07)
            .collect();
        report.time("transpile_from_scratch_mnist4_x256", false, || {
            for _ in 0..256 {
                let simplified = model.circuit().simplified(&full, ANGLE_TOL);
                let phys = route(&simplified, &topo, None);
                std::hint::black_box(transpile::expand::expand(&phys, &full));
            }
        });
        let template = CircuitTemplate::compile(model.circuit(), &topo, &full, ANGLE_TOL);
        report.time("transpile_rebind_mnist4_x256", true, || {
            for _ in 0..256 {
                std::hint::black_box(template.bind(&full));
            }
        });
    }

    // Training path: one epoch of batched noisy finite-difference training
    // on the 4-class MNIST model versus the retained sequential closure
    // reference. The batched section is gated (it is the production
    // training path, density + single-threaded like every gate); the
    // sequential section documents the win and its trained weights must
    // match the batched ones bit for bit.
    eprintln!("[perf] training step sections ...");
    {
        let exp = experiments
            .iter()
            .find(|e| matches!(e.task, Task::Mnist4))
            .expect("table1 includes mnist4");
        let train_subset = &exp.dataset.train[..exp.dataset.train.len().min(16)];
        let snap = &exp.history.online()[0];
        let cfg = qnn::train::TrainConfig {
            epochs: 1,
            batch_size: 8,
            lr: 0.08,
            seed: 5,
            grad_step: 1e-3,
        };
        let trainable = vec![true; exp.model.n_weights()];

        let exec = NoisyExecutor::new(
            &exp.model,
            &exp.topology,
            NoiseOptions {
                backend: SimBackend::Density,
                ..exp.noise
            },
        );
        let env = qnn::train::Env::Noisy {
            exec: &exec,
            snapshot: snap,
        };
        let batched = report.time("train_step_mnist4", true, || {
            qnn::train::train_masked_with_threads(
                &exp.model,
                train_subset,
                env,
                &cfg,
                &exp.base_weights,
                &trainable,
                1,
            )
        });
        let stats = exec.cache_stats();
        let lookups = (stats.hits + stats.misses).max(1);
        println!(
            "train-step program cache: {} hits / {} misses ({:.1}% hit rate)",
            stats.hits,
            stats.misses,
            100.0 * stats.hits as f64 / lookups as f64
        );

        let seq_exec = NoisyExecutor::new(
            &exp.model,
            &exp.topology,
            NoiseOptions {
                backend: SimBackend::Density,
                ..exp.noise
            },
        );
        let seq_env = qnn::train::Env::Noisy {
            exec: &seq_exec,
            snapshot: snap,
        };
        let sequential = report.time("train_step_mnist4_sequential", false, || {
            qnn::train::train_masked_sequential(
                &exp.model,
                train_subset,
                seq_env,
                &cfg,
                &exp.base_weights,
                &trainable,
            )
        });
        for (i, (a, b)) in batched
            .weights
            .iter()
            .zip(sequential.weights.iter())
            .enumerate()
        {
            assert!(
                a.to_bits() == b.to_bits(),
                "batched training diverged from the sequential reference at weight {i} \
                 ({a} vs {b})"
            );
        }
        {
            let wall = |name: &str| report.section(name).expect("timed above").wall_ms;
            println!(
                "train-step (noisy fd, {} evals): sequential {:.1} ms, batched {:.1} ms -> {:.2}x",
                batched.n_evals,
                wall("train_step_mnist4_sequential"),
                wall("train_step_mnist4"),
                wall("train_step_mnist4_sequential") / wall("train_step_mnist4")
            );
        }

        // The same step in the pure environment: the prefix-sharing,
        // lane-grouped probe engine versus full per-probe state-vector
        // reruns (ungated — the pure path has no committed baseline
        // section yet). One step takes a few ms, so a sample repeats it
        // `PURE_STEPS` times (≥ 10 ms) and the section is the median of
        // `PURE_SAMPLES` samples.
        const PURE_STEPS: usize = 8;
        const PURE_SAMPLES: usize = 5;
        let pure_step = || {
            qnn::train::train_masked_with_threads(
                &exp.model,
                train_subset,
                qnn::train::Env::Pure,
                &cfg,
                &exp.base_weights,
                &trainable,
                1,
            )
        };
        let pure_batched =
            report.time_median("train_step_mnist4_pure", false, PURE_SAMPLES, || {
                (1..PURE_STEPS).for_each(|_| {
                    std::hint::black_box(pure_step());
                });
                pure_step()
            });
        let pure_sequential = report.time("train_step_mnist4_pure_sequential", false, || {
            qnn::train::train_masked_sequential(
                &exp.model,
                train_subset,
                qnn::train::Env::Pure,
                &cfg,
                &exp.base_weights,
                &trainable,
            )
        });
        assert_eq!(
            pure_batched.weights, pure_sequential.weights,
            "pure batched training diverged from the sequential reference"
        );
        let wall = |name: &str| report.section(name).expect("timed above").wall_ms;
        let batched_step = wall("train_step_mnist4_pure") / PURE_STEPS as f64;
        println!(
            "train-step (pure fd): sequential {:.1} ms, batched {batched_step:.2} ms/step \
             (median of {PURE_SAMPLES} x {PURE_STEPS} steps) -> {:.2}x",
            wall("train_step_mnist4_pure_sequential"),
            wall("train_step_mnist4_pure_sequential") / batched_step
        );
    }

    // Serving path: an in-process qucad-serve instance driven by four
    // pipelined clients over three circuit structures and two days. The
    // sustained section is gated (it covers the queue/batcher, the wire
    // codec, and the shared-cache batched execution end to end); the
    // spot-check below re-asserts the served-bits-equal-direct-bits
    // contract inside the harness.
    eprintln!("[perf] serve sections ...");
    {
        use qucad_serve::client::ServeClient;
        use qucad_serve::codec::{Request, Response};
        use qucad_serve::scenario::ServeScenario;
        use qucad_serve::server::{serve, ServerConfig};

        let mut scenario = ServeScenario::build("belem", 2, 42);
        // Gated sections always measure the density engine (see above).
        scenario.options.backend = SimBackend::Density;
        let local = scenario.clone();
        let handle = serve(
            scenario,
            ServerConfig {
                port: 0,
                workers: 2,
                max_batch: 16,
                queue_depth: 256,
            },
        )
        .expect("bind in-process qucad-serve");
        let addr = handle.addr();

        const CLIENTS: u64 = 4;
        const REQUESTS: u64 = 64;
        let eval_request = |client: u64, i: u64| {
            let palette = (i % 3) as usize;
            Request::Eval {
                request_id: client * 1000 + i,
                client_id: client,
                day: ((client + i) % 2) as u32,
                stream: 7919 * client + i,
                features: vec![0.3 + 0.1 * client as f64, 0.8, 1.4, 2.1],
                weights: (0..local.model.n_weights())
                    .map(|j| if j < 3 * palette { 0.0 } else { 0.9 })
                    .collect(),
            }
        };

        report.time("serve_sustained_belem_4c_x64", true, || {
            std::thread::scope(|scope| {
                for client_id in 0..CLIENTS {
                    scope.spawn(move || {
                        let mut client = ServeClient::connect(addr).expect("connect");
                        let reqs: Vec<Request> =
                            (0..REQUESTS).map(|i| eval_request(client_id, i)).collect();
                        let responses = client.eval_all(&reqs).expect("eval burst");
                        assert_eq!(responses.len(), reqs.len());
                        assert!(responses
                            .values()
                            .all(|r| matches!(r, Response::Scores { .. })));
                    });
                }
            });
        });

        // Spot-check the bit-identity contract on a fresh connection.
        let mut client = ServeClient::connect(addr).expect("connect spot-check");
        let direct = local.executor(qnn::executor::ProgramCacheHandle::new());
        for i in 0..8u64 {
            let req = eval_request(9, i);
            let Request::Eval {
                day,
                stream,
                ref features,
                ref weights,
                ..
            } = req
            else {
                unreachable!()
            };
            let want =
                direct.z_scores_seeded(features, weights, &local.snapshots[day as usize], stream);
            match client.call(&req).expect("spot-check call") {
                Response::Scores { z, .. } => {
                    for (a, b) in z.iter().zip(want.iter()) {
                        assert!(
                            a.to_bits() == b.to_bits(),
                            "served z-score diverged from the direct path ({a} vs {b})"
                        );
                    }
                }
                other => panic!("spot-check: unexpected {other:?}"),
            }
        }
        let stats = client.stats(u64::MAX).expect("stats");
        client.shutdown(u64::MAX - 1).expect("shutdown ack");
        handle.join();
        let wall = report
            .section("serve_sustained_belem_4c_x64")
            .expect("timed above")
            .wall_ms;
        println!(
            "serve throughput: {} requests in {wall:.1} ms -> {:.0} req/s; {} batches \
             ({} cross-client, peak {}), cache {} hits / {} misses",
            CLIENTS * REQUESTS,
            (CLIENTS * REQUESTS) as f64 / (wall / 1e3),
            stats.batches,
            stats.cross_client_batches,
            stats.peak_batch,
            stats.cache_hits,
            stats.cache_misses
        );
    }

    eprintln!("[perf] verifying 1/4/16-thread bit-identity ...");
    report.time("thread_invariance_check", false, || {
        verify_thread_invariance(&experiments[2]);
    });

    // Human-readable summary.
    println!("perf_harness rev={rev} threads={threads} probe={probe_ms:.1}ms");
    for s in &report.sections {
        println!(
            "  {:<34} {:>10.1} ms  (norm {:>7.2}){}",
            s.name,
            s.wall_ms,
            report.normalized(s),
            if s.gated { "  [gated]" } else { "" }
        );
    }

    let path = format!("{}/BENCH_{}.json", out_dir.trim_end_matches('/'), rev);
    std::fs::create_dir_all(&out_dir).expect("create --out-dir");
    std::fs::write(&path, report.to_json()).expect("write report");
    println!("wrote {path}");

    if let Some(baseline_path) = arg_value("check-against") {
        let text = std::fs::read_to_string(&baseline_path)
            .unwrap_or_else(|e| panic!("cannot read baseline {baseline_path}: {e}"));
        let baseline = BenchReport::from_json(&text)
            .unwrap_or_else(|e| panic!("cannot parse baseline {baseline_path}: {e}"));
        let violations = compare_reports(&report, &baseline, max_regression);
        if violations.is_empty() {
            println!(
                "gate OK: no gated section regressed more than {:.0}% vs {} (rev {})",
                max_regression * 100.0,
                baseline_path,
                baseline.rev
            );
        } else {
            eprintln!(
                "PERF REGRESSION vs {} (rev {}), tolerance {:.0}%:",
                baseline_path,
                baseline.rev,
                max_regression * 100.0
            );
            for v in &violations {
                eprintln!(
                    "  {:<34} norm {:.2} vs baseline {:.2} (+{:.0}%)",
                    v.name,
                    v.current_norm,
                    v.baseline_norm,
                    v.ratio * 100.0
                );
            }
            std::process::exit(1);
        }
    }
}
