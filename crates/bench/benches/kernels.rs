//! Criterion micro-benchmarks of the simulation and framework kernels that
//! dominate experiment run time. These quantify the cost model behind the
//! paper's Fig. 7 efficiency claims (training-time ratios are reported in
//! circuit evaluations; these benches anchor evaluations to wall time).

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use qnn::data::Dataset;
use qnn::executor::{pure_z_scores, NoiseOptions, NoisyExecutor};
use qnn::model::VqcModel;
use quasim::density::DensityMatrix;
use quasim::gate::{BoundGate, GateKind};
use quasim::noise::KrausChannel;
use quasim::statevector::StateVector;
use qucad::cluster::kmedians_weighted_l1;
use qucad::levels::CompressionTable;
use transpile::circuit::{Circuit, Param};
use transpile::expand::expand;
use transpile::route::route_identity;

fn bench_statevector(c: &mut Criterion) {
    let mut g = c.benchmark_group("statevector");
    g.bench_function("apply_1q_gate_4q", |b| {
        let gate = BoundGate::one(GateKind::Ry, 2, 0.7);
        b.iter_batched(
            || StateVector::zero_state(4),
            |mut sv| {
                sv.apply(black_box(&gate));
                sv
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("pure_eval_mnist_model", |b| {
        let model = VqcModel::paper_model(4, 4, 16, 2);
        let weights = model.init_weights(1);
        let features = vec![0.5; 16];
        b.iter(|| pure_z_scores(black_box(&model), &features, &weights));
    });
    g.finish();
}

fn bench_density(c: &mut Criterion) {
    let mut g = c.benchmark_group("density");
    g.bench_function("apply_2q_gate_5q", |b| {
        let gate = BoundGate::two(GateKind::Cx, 0, 1, 0.0);
        b.iter_batched(
            || DensityMatrix::zero_state(5),
            |mut rho| {
                rho.apply_gate(black_box(&gate));
                rho
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("fast_depolarizing_2q_5q", |b| {
        b.iter_batched(
            || DensityMatrix::zero_state(5),
            |mut rho| {
                rho.apply_depolarizing_2q(black_box(0.01), 0, 1);
                rho
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("kraus_depolarizing_2q_5q", |b| {
        let ch = KrausChannel::depolarizing_2q(0.01);
        b.iter_batched(
            || DensityMatrix::zero_state(5),
            |mut rho| {
                rho.apply_channel(black_box(&ch), &[0, 1]);
                rho
            },
            BatchSize::SmallInput,
        );
    });
    g.bench_function("noisy_eval_mnist_model_belem", |b| {
        let model = VqcModel::paper_model(4, 4, 16, 2);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
        let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 1e-2, 0.02);
        let weights = model.init_weights(1);
        let features = vec![0.5; 16];
        b.iter(|| exec.z_scores_seeded(black_box(&features), &weights, &snap, 0));
    });
    g.bench_function("noisy_eval_mnist_model_belem_unfused", |b| {
        // The op-by-op differential-testing reference, for comparison with
        // the fused production path above.
        let model = VqcModel::paper_model(4, 4, 16, 2);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
        let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 1e-2, 0.02);
        let weights = model.init_weights(1);
        let features = vec![0.5; 16];
        b.iter(|| exec.z_scores_seeded_unfused(black_box(&features), &weights, &snap, 0));
    });
    g.finish();
}

fn bench_fused(c: &mut Criterion) {
    use quasim::density::SimWorkspace;
    use transpile::fuse::{fuse_native, SimOp};

    let mut g = c.benchmark_group("fused");
    // A noisy CRY-ladder slice: the segment shapes the executor hot path
    // produces (gate + channel pairs, same-wire rotation runs).
    let mut circuit = Circuit::new(4);
    for q in 0..4 {
        circuit.ry(q, Param::Idx(q));
    }
    for q in 0..3 {
        circuit.cry(q, q + 1, Param::Idx(4 + q));
    }
    let theta: Vec<f64> = (0..7).map(|i| 0.4 + 0.3 * i as f64).collect();
    let topo = Topology::ibm_belem();
    let phys = route_identity(&circuit, &topo);
    let native = expand(&phys, &theta);
    let noise = |op: &transpile::expand::NativeOp| -> Option<f64> {
        if op.is_entangler() {
            Some(0.01)
        } else if op.pulses > 0 {
            Some(0.001)
        } else {
            None
        }
    };

    g.bench_function("compile_native_to_program", |b| {
        b.iter(|| fuse_native(black_box(&native), noise));
    });

    let program = fuse_native(&native, noise);
    g.bench_function("run_program_reused_workspace", |b| {
        let mut ws = SimWorkspace::new();
        b.iter(|| {
            ws.reset_zero(program.n_qubits());
            ws.run(black_box(&program));
            ws.prob_one(0)
        });
    });

    // Same ops, one segment per op (no fusion): quantifies the pass win.
    let mut single_ops = Vec::new();
    for op in native.ops() {
        single_ops.push(SimOp::Gate(op.gate.clone()));
        if let Some(l) = noise(op) {
            let q = op.gate.qubits();
            match q.len() {
                1 => single_ops.push(SimOp::Depolarize1 { q: q[0], lambda: l }),
                _ => single_ops.push(SimOp::Depolarize2 {
                    a: q[0],
                    b: q[1],
                    lambda: l,
                }),
            }
        }
    }
    g.bench_function("run_op_by_op_density_matrix", |b| {
        b.iter(|| {
            let mut rho = DensityMatrix::zero_state(topo.n_qubits());
            for op in &single_ops {
                match op {
                    SimOp::Gate(gate) => rho.apply_gate(black_box(gate)),
                    SimOp::Depolarize1 { q, lambda } => rho.apply_depolarizing_1q(*lambda, *q),
                    SimOp::Depolarize2 { a, b, lambda } => {
                        rho.apply_depolarizing_2q(*lambda, *a, *b);
                    }
                }
            }
            rho.prob_one(0)
        });
    });
    g.finish();
}

fn bench_trajectory(c: &mut Criterion) {
    use quasim::fused::ProgramBuilder;
    use quasim::trajectory::{
        estimate_prob_one, estimate_prob_one_panel, TrajectoryPanel, TrajectoryWorkspace,
    };

    // A 10-qubit noisy ring ladder: the program shape the executor hands
    // the trajectory engine (rotation+channel and CX+channel segments).
    let n = 10usize;
    let mut b = ProgramBuilder::new(n);
    for q in 0..n {
        b.unitary_1q(q, GateKind::Ry.entries_1q(0.3 + 0.1 * q as f64).unwrap());
        b.depolarize_1q(q, 0.002);
    }
    for q in 0..n {
        b.cx(q, (q + 1) % n);
        b.depolarize_2q(0.01, q, (q + 1) % n);
    }
    for q in 0..n {
        b.unitary_1q(q, GateKind::Rz.entries_1q(-0.2 * q as f64).unwrap());
        b.depolarize_1q(q, 0.002);
    }
    let program = b.finish();
    let qubits: Vec<usize> = (0..n).collect();
    let n_traj = 64u32;

    let mut g = c.benchmark_group("trajectory");
    g.sample_size(20);
    g.bench_function("per_trajectory_10q_64t", |bch| {
        let mut ws = TrajectoryWorkspace::new();
        bch.iter(|| estimate_prob_one(&mut ws, black_box(&program), &qubits, n_traj, 7));
    });
    // Panel sweeps at B ∈ {1, 8, 64}: same bits, amortised dispatch.
    for width in [1usize, 8, 64] {
        g.bench_function(&format!("panel_b{width}_10q_64t"), |bch| {
            let mut panel = TrajectoryPanel::new();
            bch.iter(|| {
                estimate_prob_one_panel(&mut panel, black_box(&program), &qubits, n_traj, 7, width)
            });
        });
    }
    g.finish();
}

fn bench_rebind(c: &mut Criterion) {
    use transpile::expand::ANGLE_TOL;
    use transpile::route::route;
    use transpile::template::CircuitTemplate;

    let model = VqcModel::paper_model(4, 4, 16, 2);
    let topo = Topology::ibm_belem();
    let full: Vec<f64> = (0..model.circuit().n_params())
        .map(|i| 0.2 + i as f64 * 0.07)
        .collect();

    let mut g = c.benchmark_group("rebind");
    // The per-evaluation transpile cost the program cache eliminates …
    g.bench_function("full_retranspile_mnist", |b| {
        b.iter(|| {
            let simplified = model.circuit().simplified(black_box(&full), ANGLE_TOL);
            let phys = route(&simplified, &topo, None);
            expand(&phys, &full)
        });
    });
    // … versus the residual rebind cost (expansion only).
    let template = CircuitTemplate::compile(model.circuit(), &topo, &full, ANGLE_TOL);
    g.bench_function("template_bind_mnist", |b| {
        b.iter(|| template.bind(black_box(&full)));
    });
    // End-to-end: warm-cache noisy evaluation (every call a cache hit).
    let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
    let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 1e-2, 0.02);
    let weights = model.init_weights(1);
    let features = vec![0.5; 16];
    let _ = exec.z_scores_seeded(&features, &weights, &snap, 0); // warm
    g.bench_function("warm_cache_noisy_eval_mnist", |b| {
        b.iter(|| exec.z_scores_seeded(black_box(&features), &weights, &snap, 0));
    });
    g.finish();
}

fn bench_transpile(c: &mut Criterion) {
    let mut g = c.benchmark_group("transpile");
    let model = VqcModel::paper_model(4, 4, 16, 2);
    let topo = Topology::ibm_belem();
    g.bench_function("route_mnist_model_belem", |b| {
        b.iter(|| route_identity(black_box(model.circuit()), &topo));
    });
    let phys = route_identity(model.circuit(), &topo);
    let full: Vec<f64> = (0..model.circuit().n_params())
        .map(|i| i as f64 * 0.1)
        .collect();
    g.bench_function("expand_mnist_model", |b| {
        b.iter(|| expand(black_box(&phys), &full));
    });
    let mut small = Circuit::new(4);
    for q in 0..4 {
        small.cry(q, (q + 1) % 4, Param::Idx(q));
    }
    g.bench_function("route_ring_4cry", |b| {
        b.iter(|| route_identity(black_box(&small), &topo));
    });
    g.finish();
}

fn bench_framework(c: &mut Criterion) {
    let mut g = c.benchmark_group("framework");
    g.sample_size(20);
    g.bench_function("levels_snap_80_params", |b| {
        let table = CompressionTable::standard();
        let theta: Vec<f64> = (0..80).map(|i| i as f64 * 0.173).collect();
        b.iter(|| table.snap_all(black_box(&theta)));
    });
    g.bench_function("kmedians_48x14_k6", |b| {
        let topo = Topology::ibm_belem();
        let hist = calibration::history::HistoryConfig::belem_like(48, 3).generate(&topo);
        let samples: Vec<Vec<f64>> = hist
            .iter()
            .map(calibration::CalibrationSnapshot::feature_vector)
            .collect();
        let w = vec![1.0; samples[0].len()];
        b.iter(|| kmedians_weighted_l1(black_box(&samples), &w, 6, 1, 40));
    });
    g.bench_function("batch_loss_iris_pure_b8", |b| {
        let model = VqcModel::paper_model(4, 3, 4, 3);
        let data = Dataset::iris(1);
        let weights = model.init_weights(2);
        let batch: Vec<&qnn::data::Sample> = data.train.iter().take(8).collect();
        b.iter(|| {
            qnn::train::batch_loss(black_box(&model), qnn::train::Env::Pure, &batch, &weights)
        });
    });
    g.finish();
}

fn bench_parallel_eval(c: &mut Criterion) {
    let mut g = c.benchmark_group("parallel_eval");
    g.sample_size(10);
    let model = VqcModel::paper_model(4, 2, 4, 2);
    let topo = Topology::ibm_belem();
    let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(1024, 1));
    let snap = CalibrationSnapshot::uniform(&topo, 0, 1e-3, 2e-2, 0.02);
    let data = Dataset::seismic(8, 24, 3);
    let weights = model.init_weights(2);
    let threads = qnn::executor::parallel::worker_threads();
    g.bench_function("batch_accuracy_24_samples_seq", |b| {
        b.iter(|| {
            qnn::executor::parallel::batch_accuracy(
                black_box(&exec),
                &data.test,
                &weights,
                &snap,
                0,
                1,
            )
        });
    });
    g.bench_function(&format!("batch_accuracy_24_samples_{threads}thr"), |b| {
        b.iter(|| {
            qnn::executor::parallel::batch_accuracy(
                black_box(&exec),
                &data.test,
                &weights,
                &snap,
                0,
                threads,
            )
        });
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_statevector,
    bench_density,
    bench_fused,
    bench_trajectory,
    bench_rebind,
    bench_transpile,
    bench_framework,
    bench_parallel_eval
);
criterion_main!(benches);
