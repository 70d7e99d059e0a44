//! Training-path bit-identity harness: the batched probe engine behind
//! `train_masked` / `train_spsa_masked` must reproduce the retained
//! sequential closure references, and every probe of a batch must equal
//! its own `z_scores_seeded` call, **bit for bit** — across random angle
//! mixes (including ±π/2 probes that cross identity/quarter-turn
//! boundaries and therefore re-key the program cache), calibration days,
//! both device topologies, both simulation backends, and every
//! worker-thread count.
//!
//! The CI integration matrix re-runs this file under `QUCAD_BACKEND`,
//! `QUCAD_THREADS`, `QUCAD_TRAJ_BATCH`, and `QUCAD_FORCE_SCALAR`
//! combinations, which extends the coverage to the env-selected backend
//! and every trajectory panel width without any env mutation here.

use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use proptest::prelude::*;
use qnn::executor::{parallel, NoiseOptions, NoisyExecutor, ProbeBatch, SimBackend};
use qnn::model::VqcModel;
use qnn::train::{
    train_masked_sequential, train_masked_with_threads, train_spsa_masked_sequential,
    train_spsa_masked_with_threads, Env, SpsaConfig, TrainConfig,
};
use qnn::Dataset;

const THREAD_COUNTS: [usize; 3] = [1, 4, 16];

/// Angle vectors mixing generic values with the exact compression levels
/// (0, π/2, π, 3π/2) whose angle classes drive the structure key — a
/// `±π/2` probe of a level-valued weight crosses into a different key and
/// must be compiled through the cache-miss path.
fn arb_angles(len: usize) -> impl Strategy<Value = Vec<f64>> {
    use std::f64::consts::{FRAC_PI_2, PI, TAU};
    proptest::collection::vec(
        prop_oneof![
            Just(0.0),
            Just(FRAC_PI_2),
            Just(PI),
            Just(3.0 * FRAC_PI_2),
            Just(TAU),
            -6.0f64..6.0,
        ],
        len,
    )
}

fn arb_day() -> impl Strategy<Value = (u64, f64, f64, f64)> {
    (0u64..1000, 0.0f64..4e-3, 0.0f64..5e-2, 0.0f64..0.05)
}

fn topologies() -> Vec<Topology> {
    vec![Topology::ibm_belem(), Topology::ibm_jakarta()]
}

fn backends() -> Vec<(SimBackend, u32)> {
    vec![(SimBackend::Density, 0), (SimBackend::Trajectory, 16)]
}

/// A `+π/2` / `−π/2` probe pair per weight, in the order (+0, −0, +1, −1,
/// …), each with its own positional stream.
fn shift_probes(weights: &[f64], stream_for: impl Fn(usize) -> u64) -> Vec<(Vec<f64>, u64)> {
    use std::f64::consts::FRAC_PI_2;
    let mut probes = Vec::with_capacity(2 * weights.len());
    for i in 0..weights.len() {
        for shift in [FRAC_PI_2, -FRAC_PI_2] {
            let mut w = weights.to_vec();
            w[i] += shift;
            probes.push((w, stream_for(probes.len())));
        }
    }
    probes
}

fn probe_batch<'a>(features: &'a [f64], probes: &'a [(Vec<f64>, u64)]) -> ProbeBatch<'a> {
    let mut batch = ProbeBatch::with_capacity(probes.len());
    for (w, stream) in probes {
        batch.push(features, w, *stream);
    }
    batch
}

fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// A batch of `±π/2` probe pairs, one pair per weight, equals one
    /// `z_scores_seeded` call per probe bit-exactly: random angles
    /// (identity-crossing shifts included) × days × {belem, jakarta} ×
    /// {density, trajectory} × threads {1, 4, 16}.
    #[test]
    fn shift_probe_pairs_match_individual_seeded_evaluations(
        features in arb_angles(4),
        weights in arb_angles(40),
        day in arb_day(),
    ) {
        let (day_seed, e1, e2, er) = day;
        for topo in topologies() {
            for (backend, trajectories) in backends() {
                let model = VqcModel::paper_model(4, 3, 4, 1);
                let weights = &weights[..model.n_weights()];
                let options = NoiseOptions {
                    backend,
                    trajectories,
                    ..NoiseOptions::with_shots(256, 13)
                };
                let exec = NoisyExecutor::new(&model, &topo, options);
                let snap =
                    CalibrationSnapshot::uniform(&topo, day_seed as usize, e1, e2, er);
                let probes = shift_probes(weights, |k| 1000 * day_seed + k as u64);
                let batch = probe_batch(&features, &probes);
                let want: Vec<Vec<f64>> = probes
                    .iter()
                    .map(|(w, stream)| exec.z_scores_seeded(&features, w, &snap, *stream))
                    .collect();

                for threads in THREAD_COUNTS {
                    let got = exec.evaluate_probes(&snap, &batch, threads);
                    prop_assert_eq!(got.len(), want.len());
                    for (k, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                        for (a, b) in g.iter().zip(w.iter()) {
                            prop_assert!(
                                a.to_bits() == b.to_bits(),
                                "probe {k} {a} vs {b} (threads={threads}, backend={backend:?}, \
                                 device={})",
                                topo.name()
                            );
                        }
                    }
                }
            }
        }
    }

    /// `evaluate_probes` output element `i` equals an individual
    /// `z_scores_seeded` call for probe `i`, for any thread count and
    /// probe mix.
    #[test]
    fn probe_batch_matches_individual_seeded_evaluations(
        features in arb_angles(4),
        probes in proptest::collection::vec((arb_angles(40), 0u64..1_000_000), 1..8),
        day in arb_day(),
    ) {
        let (day_seed, e1, e2, er) = day;
        for (backend, trajectories) in backends() {
            let model = VqcModel::paper_model(4, 3, 4, 1);
            let topo = Topology::ibm_belem();
            let options = NoiseOptions {
                backend,
                trajectories,
                ..NoiseOptions::with_shots(512, 3)
            };
            let exec = NoisyExecutor::new(&model, &topo, options);
            let snap = CalibrationSnapshot::uniform(&topo, day_seed as usize, e1, e2, er);

            let trimmed: Vec<(Vec<f64>, u64)> = probes
                .iter()
                .map(|(w, s)| (w[..model.n_weights()].to_vec(), *s))
                .collect();
            let batch = probe_batch(&features, &trimmed);
            for threads in THREAD_COUNTS {
                let got = exec.evaluate_probes(&snap, &batch, threads);
                prop_assert_eq!(got.len(), trimmed.len());
                for (i, (w, stream)) in trimmed.iter().enumerate() {
                    let want = exec.z_scores_seeded(&features, w, &snap, *stream);
                    for (a, b) in got[i].iter().zip(want.iter()) {
                        prop_assert!(
                            a.to_bits() == b.to_bits(),
                            "probe {i} {a} vs {b} (threads={threads}, backend={backend:?})"
                        );
                    }
                }
            }
        }
    }
}

/// `±π/2` probes of level-valued weights change the circuit's angle-class
/// structure: the batch must split those probes into their own cache
/// groups (taking the compile/miss path) and still match each probe's own
/// `z_scores_seeded` call.
#[test]
fn identity_crossing_shifts_go_through_cache_miss_path() {
    let model = VqcModel::paper_model(4, 3, 4, 1);
    let topo = Topology::ibm_belem();
    let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(256, 21));
    let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 8e-3, 0.02);
    let features = [0.3, 0.8, 1.4, 2.1];
    // All-zero weights: every +π/2 probe promotes one rotation from the
    // identity class to the quarter-turn class (and −π/2 to three
    // quarters), so no probe shares the base structure.
    let weights = vec![0.0; model.n_weights()];
    let probes = shift_probes(&weights, |k| 7 + k as u64);

    let fresh = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(256, 21));
    let got = fresh.evaluate_probes(&snap, &probe_batch(&features, &probes), 1);
    let stats = fresh.cache_stats();
    assert_eq!(got.len(), probes.len());
    for (k, (w, stream)) in probes.iter().enumerate() {
        let want = exec.z_scores_seeded(&features, w, &snap, *stream);
        assert_bits_eq(&got[k], &want, &format!("identity-crossing probe {k}"));
    }
    assert!(
        stats.misses >= 2,
        "level-crossing probes must compile distinct structures, saw {stats:?}"
    );
}

/// End-to-end trained parameters from the batched engines are bit-identical
/// to the sequential references, in the env-selected backend (the CI
/// integration matrix varies `QUCAD_BACKEND` / panel widths over this).
#[test]
fn trained_parameters_bit_identical_to_sequential_reference() {
    let data = Dataset::iris(5).truncated(12, 4);
    let model = VqcModel::paper_model(4, 3, 4, 1);
    let topo = Topology::ibm_belem();
    let options = NoiseOptions {
        backend: SimBackend::from_env(),
        trajectories: 16,
        ..NoiseOptions::with_shots(128, 19)
    };
    let exec = NoisyExecutor::new(&model, &topo, options);
    let snap = CalibrationSnapshot::uniform(&topo, 1, 3e-4, 8e-3, 0.02);
    let init = model.init_weights(6);
    let trainable = vec![true; model.n_weights()];

    for env in [
        Env::Pure,
        Env::Noisy {
            exec: &exec,
            snapshot: &snap,
        },
    ] {
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 4,
            lr: 0.1,
            seed: 3,
            grad_step: 1e-3,
        };
        let reference = train_masked_sequential(&model, &data.train, env, &cfg, &init, &trainable);
        for threads in THREAD_COUNTS {
            let batched = train_masked_with_threads(
                &model,
                &data.train,
                env,
                &cfg,
                &init,
                &trainable,
                threads,
            );
            assert_bits_eq(
                &batched.weights,
                &reference.weights,
                &format!("fd weights (threads={threads})"),
            );
            assert_eq!(batched.n_evals, reference.n_evals);
        }

        let spsa_cfg = SpsaConfig {
            steps: 5,
            batch_size: 4,
            seed: 8,
            ..SpsaConfig::default()
        };
        let spsa_reference =
            train_spsa_masked_sequential(&model, &data.train, env, &spsa_cfg, &init, &trainable);
        for threads in THREAD_COUNTS {
            let batched = train_spsa_masked_with_threads(
                &model,
                &data.train,
                env,
                &spsa_cfg,
                &init,
                &trainable,
                threads,
            );
            assert_bits_eq(
                &batched.weights,
                &spsa_reference.weights,
                &format!("spsa weights (threads={threads})"),
            );
            assert_eq!(batched.n_evals, spsa_reference.n_evals);
        }
    }
}

/// Program-cache counter totals through a training run: every clone of an
/// executor shares one cache and one set of counters, so the totals read
/// through any clone agree, are deterministic at one thread, and never
/// lose the lookups performed by the fan-out clones (the pre-shared-cache
/// design double-counted per clone and dropped clone totals on drop).
#[test]
fn training_cache_totals_aggregate_across_clones() {
    let data = Dataset::iris(5).truncated(8, 4);
    let model = VqcModel::paper_model(4, 3, 4, 1);
    let topo = Topology::ibm_belem();
    let options = NoiseOptions::with_shots(128, 19);
    let snap = CalibrationSnapshot::uniform(&topo, 1, 3e-4, 8e-3, 0.02);
    let cfg = TrainConfig {
        epochs: 1,
        batch_size: 4,
        lr: 0.1,
        seed: 3,
        grad_step: 1e-3,
    };
    let trainable = vec![true; model.n_weights()];
    let init = model.init_weights(6);

    let run = |threads: usize| {
        let exec = NoisyExecutor::new(&model, &topo, options);
        let clone = exec.clone();
        let env = Env::Noisy {
            exec: &exec,
            snapshot: &snap,
        };
        train_masked_with_threads(&model, &data.train, env, &cfg, &init, &trainable, threads);
        let direct = exec.cache_stats();
        let via_clone = clone.cache_stats();
        assert_eq!(
            (direct.hits, direct.misses),
            (via_clone.hits, via_clone.misses),
            "clones must report one shared set of counters"
        );
        direct
    };

    let single = run(1);
    assert!(
        single.misses >= 1,
        "a fresh cache must compile at least one structure, saw {single:?}"
    );
    let single_again = run(1);
    assert_eq!(
        (single.hits, single.misses),
        (single_again.hits, single_again.misses),
        "single-thread lookup totals are deterministic"
    );
    // Threaded runs partition probes before grouping, so each partition
    // performs its own per-structure lookup: the aggregate can only grow,
    // and — the satellite fix — none of the fan-out clones' lookups may
    // vanish from the shared totals.
    let fanned = run(4);
    assert!(
        fanned.hits + fanned.misses >= single.hits + single.misses,
        "fan-out clones' lookups must land in the shared totals: {fanned:?} vs {single:?}"
    );
}

/// The positional stream scheme itself: slots/steps/days must map to
/// distinct streams (no accidental collisions among the slots a training
/// step uses), or probes would share shot noise they should not.
#[test]
fn probe_streams_are_distinct_within_a_step() {
    let mut seen = std::collections::HashSet::new();
    for day in [0u64, 1, 77] {
        for step in 0..4u64 {
            for slot in 0..33u64 {
                assert!(
                    seen.insert(parallel::probe_stream(day, step, slot)),
                    "stream collision at day={day} step={step} slot={slot}"
                );
            }
        }
    }
}
