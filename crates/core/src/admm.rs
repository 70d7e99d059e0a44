//! ADMM-based noise-aware QNN compression (the paper's Sec. III-B).
//!
//! The optimisation `min f(Wp(θ)) + N(Z) + Σ s_i(z_i)` is split into:
//!
//! - a **θ-update** — a few gradient steps on the training loss plus the
//!   augmented-Lagrangian pull `ρ/2·Σ_masked (θ_i − z_i + u_i)²`;
//! - a **z-update** — the projection enforced by the indicator `s_i`:
//!   masked coordinates snap to their nearest compression level
//!   `T_admm_i`, unmasked ones follow `θ_i + u_i` freely;
//! - a **dual update** `u ← u + θ − z`.
//!
//! The mask is regenerated every round from the current `θ`, the
//! compression table, and the day's calibration data (noise-aware priority
//! `p_i = C(A(g_i))/d_i`, Fig. 6). After the rounds, masked parameters are
//! pinned to their levels and frozen, and the survivors are fine-tuned with
//! **noise injection** (training through the noisy executor) — exactly the
//! paper's final step.

use crate::levels::CompressionTable;
use crate::mask::{gate_associations, priorities, GateAssoc, SelectionRule};
use calibration::snapshot::CalibrationSnapshot;
use qnn::data::Sample;
use qnn::executor::parallel::worker_threads;
use qnn::executor::NoisyExecutor;
use qnn::model::VqcModel;
use qnn::optim::Adam;
use qnn::probe::pure_fd_gradient;
use qnn::train::{train_spsa_masked, Env, SpsaConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Hyper-parameters of the ADMM compression.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AdmmConfig {
    /// Number of ADMM rounds `r`.
    pub rounds: usize,
    /// Augmented-Lagrangian weight `ρ`.
    pub rho: f64,
    /// Gradient steps per θ-update.
    pub theta_steps: usize,
    /// Minibatch size for loss gradients.
    pub batch_size: usize,
    /// Adam learning rate for the θ-update.
    pub lr: f64,
    /// Finite-difference step.
    pub grad_step: f64,
    /// Gate-selection rule for the mask.
    pub rule: SelectionRule,
    /// `true` = noise-aware priorities (the paper); `false` = noise-agnostic
    /// compression (prior work \[23], used in the Fig. 9(b) ablation).
    pub noise_aware: bool,
    /// Weight β of the noise-exposure term in the gate-related level choice
    /// (`T_admm`): the projection minimises
    /// `dist(θ, l) + β·C(A(g))·exposure(l)`, so gates on hot edges prefer
    /// level 0 (which deletes their CNOTs) over merely the nearest level.
    /// 0 reduces to nearest-level snapping. Ignored when `noise_aware` is
    /// `false`.
    pub level_noise_weight: f64,
    /// Epochs of *pure-environment* recovery fine-tuning right after
    /// projection (cheap analytic-loss training of the surviving weights;
    /// restores the function the snap perturbed before noise adaptation).
    pub finetune_pure_epochs: usize,
    /// SPSA steps of noise-injection fine-tuning after the recovery pass
    /// (SPSA keeps noisy training to two circuit evaluations per step).
    pub finetune_steps: usize,
    /// RNG seed for batching.
    pub seed: u64,
}

impl Default for AdmmConfig {
    fn default() -> Self {
        AdmmConfig {
            rounds: 5,
            rho: 0.6,
            theta_steps: 2,
            batch_size: 12,
            lr: 0.08,
            grad_step: 1e-3,
            rule: SelectionRule::Threshold(0.05),
            noise_aware: true,
            level_noise_weight: 6.0,
            finetune_pure_epochs: 2,
            finetune_steps: 40,
            seed: 17,
        }
    }
}

/// Result of one compression run.
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionOutcome {
    /// Compressed (and fine-tuned) weights.
    pub weights: Vec<f64>,
    /// Final mask: `true` = pinned to a compression level.
    pub mask: Vec<bool>,
    /// Total circuit evaluations spent (cost proxy for Fig. 7).
    pub n_evals: u64,
}

impl CompressionOutcome {
    /// Number of compressed (pinned) parameters.
    pub fn n_compressed(&self) -> usize {
        self.mask.iter().filter(|&&m| m).count()
    }
}

/// Runs noise-aware (or noise-agnostic) ADMM compression of `init_weights`
/// for the given calibration snapshot, then noise-injection fine-tuning.
///
/// # Panics
///
/// Panics if `train_set` is empty or `init_weights` mismatches the model.
pub fn compress(
    model: &VqcModel,
    exec: &NoisyExecutor,
    train_set: &[Sample],
    snapshot: &CalibrationSnapshot,
    table: &CompressionTable,
    config: &AdmmConfig,
    init_weights: &[f64],
) -> CompressionOutcome {
    assert!(!train_set.is_empty(), "empty training set");
    assert_eq!(
        init_weights.len(),
        model.n_weights(),
        "weight count mismatch"
    );

    let assocs: Vec<GateAssoc> = gate_associations(model, exec.physical_circuit());
    let topology = exec.topology();
    // Per-gate noise rate and arity for the gate-related level choice.
    let gate_noise: Vec<f64> = assocs
        .iter()
        .map(|a| snapshot.noise_on(topology, &a.physical_qubits))
        .collect();
    let two_qubit: Vec<bool> = assocs
        .iter()
        .map(|a| a.physical_qubits.len() == 2)
        .collect();
    let beta = if config.noise_aware {
        config.level_noise_weight
    } else {
        0.0
    };
    let target_level = |i: usize, v: f64| -> f64 {
        table
            .best_level(v, |l| {
                let exposure = if two_qubit[i] {
                    if l.abs() < 1e-9 {
                        0.0
                    } else {
                        2.0
                    }
                } else {
                    transpile::expand::rotation_pulses(l) as f64
                };
                beta * gate_noise[i] * exposure
            })
            .0
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut n_evals: u64 = 0;

    let mut theta = init_weights.to_vec();
    let mut z = theta.clone();
    let mut u = vec![0.0; theta.len()];
    let mut mask = vec![false; theta.len()];

    let slots: Vec<usize> = (0..theta.len()).collect();
    let threads = worker_threads();
    let mut order: Vec<usize> = (0..train_set.len()).collect();
    for _round in 0..config.rounds {
        // (1) Regenerate the mask from the current θ and calibration data.
        let p = priorities(
            &theta,
            &assocs,
            snapshot,
            topology,
            table,
            config.noise_aware,
        );
        mask = config.rule.select(&p);

        // (2) θ-update: a few Adam steps on f(θ) + ρ/2 Σ_masked (θ−z+u)².
        let mut opt = Adam::new(config.lr, theta.len());
        for _step in 0..config.theta_steps {
            order.shuffle(&mut rng);
            let batch: Vec<&Sample> = order
                .iter()
                .take(config.batch_size.min(train_set.len()))
                .map(|&i| &train_set[i])
                .collect();

            let penalty_grad = |th: &[f64]| -> Vec<f64> {
                th.iter()
                    .enumerate()
                    .map(|(i, &t)| {
                        if mask[i] {
                            config.rho * (t - z[i] + u[i])
                        } else {
                            0.0
                        }
                    })
                    .collect()
            };

            // Loss gradient by central differences (pure environment: the
            // paper's f is the training loss; noise enters via mask + the
            // fine-tune below), through the same prefix-sharing,
            // sample-parallel engine as pure training.
            let mut grad = penalty_grad(&theta);
            let (_, loss_grad) =
                pure_fd_gradient(model, &batch, &theta, config.grad_step, &slots, threads);
            for (g, l) in grad.iter_mut().zip(&loss_grad) {
                *g += l;
            }
            // Base loss plus the ± probes of every coordinate.
            n_evals += (1 + 2 * theta.len() as u64) * batch.len() as u64;
            opt.step(&mut theta, &grad);
        }

        // (3) z-update: projection onto the indicator's feasible set,
        // using the gate-related (noise-aware) level table.
        for i in 0..theta.len() {
            let v = theta[i] + u[i];
            z[i] = if mask[i] { target_level(i, v) } else { v };
        }
        // (4) Dual update.
        for i in 0..theta.len() {
            u[i] += theta[i] - z[i];
        }
    }

    // Final projection: pin masked parameters to their (gate-related)
    // levels.
    let p = priorities(
        &theta,
        &assocs,
        snapshot,
        topology,
        table,
        config.noise_aware,
    );
    mask = config.rule.select(&p);
    for i in 0..theta.len() {
        if mask[i] {
            theta[i] = target_level(i, theta[i]);
        }
    }

    let trainable: Vec<bool> = mask.iter().map(|&m| !m).collect();

    // Recovery fine-tuning in the perfect environment: the projection can
    // move many parameters at once; a couple of cheap analytic epochs let
    // the surviving weights re-absorb that perturbation before the noisy
    // polish.
    if config.finetune_pure_epochs > 0 && trainable.iter().any(|&t| t) {
        let rec_cfg = qnn::train::TrainConfig {
            epochs: config.finetune_pure_epochs,
            batch_size: config.batch_size,
            lr: config.lr * 0.5,
            seed: config.seed ^ 0x51ed_270b,
            grad_step: config.grad_step,
        };
        let result =
            qnn::train::train_masked(model, train_set, Env::Pure, &rec_cfg, &theta, &trainable);
        theta = result.weights;
        n_evals += result.n_evals;
    }

    // Noise-injection fine-tuning with compressed parameters frozen.
    // SPSA keeps the noisy-environment cost at two circuit evaluations per
    // step instead of two per weight.
    if config.finetune_steps > 0 && trainable.iter().any(|&t| t) {
        let ft_cfg = SpsaConfig {
            steps: config.finetune_steps,
            batch_size: config.batch_size,
            lr: 0.10,
            perturbation: 0.12,
            seed: config.seed ^ 0x9e37_79b9,
        };
        let env = Env::Noisy { exec, snapshot };
        let result = train_spsa_masked(model, train_set, env, &ft_cfg, &theta, &trainable);
        theta = result.weights;
        n_evals += result.n_evals;
    }

    CompressionOutcome {
        weights: theta,
        mask,
        n_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use calibration::topology::Topology;
    use qnn::data::Dataset;
    use qnn::executor::NoiseOptions;
    use qnn::train::{evaluate, TrainConfig};

    fn quick_cfg() -> AdmmConfig {
        AdmmConfig {
            rounds: 3,
            theta_steps: 1,
            batch_size: 8,
            finetune_steps: 10,
            ..AdmmConfig::default()
        }
    }

    fn setup() -> (
        VqcModel,
        Topology,
        NoisyExecutor,
        Dataset,
        CalibrationSnapshot,
    ) {
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
        let data = Dataset::iris(3).truncated(24, 16);
        let snap = CalibrationSnapshot::uniform(&topo, 0, 5e-4, 2e-2, 0.03);
        (model, topo, exec, data, snap)
    }

    #[test]
    fn compression_pins_masked_weights_to_levels() {
        let (model, _, exec, data, snap) = setup();
        let table = CompressionTable::standard();
        let init = model.init_weights(1);
        let out = compress(
            &model,
            &exec,
            &data.train,
            &snap,
            &table,
            &quick_cfg(),
            &init,
        );
        assert!(out.n_compressed() > 0, "nothing was compressed");
        for (i, &m) in out.mask.iter().enumerate() {
            if m {
                let (_, d) = table.nearest(out.weights[i]);
                assert!(
                    d < 1e-9,
                    "masked weight {i} not at a level: {}",
                    out.weights[i]
                );
            }
        }
        assert!(out.n_evals > 0);
    }

    #[test]
    fn compression_shortens_physical_circuit() {
        let (model, _, exec, data, snap) = setup();
        let table = CompressionTable::standard();
        let init = model.init_weights(2);
        let out = compress(
            &model,
            &exec,
            &data.train,
            &snap,
            &table,
            &quick_cfg(),
            &init,
        );
        let f = &data.train[0].features;
        assert!(
            exec.circuit_length(f, &out.weights) < exec.circuit_length(f, &init),
            "compressed circuit should be shorter"
        );
    }

    #[test]
    fn compressed_model_beats_uncompressed_under_heavy_noise() {
        // Realistic regime: finite shots make deep noisy circuits collapse
        // (scores below ~1/sqrt(shots) are unresolvable), which is exactly
        // where compression pays off.
        let (model, topo, _, data, _) = setup();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(1024, 3));
        let heavy = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 8e-2, 0.04);
        let table = CompressionTable::standard();
        // Start from a noise-free-trained model.
        let base = qnn::train::train(
            &model,
            &data.train,
            Env::Pure,
            &TrainConfig {
                epochs: 5,
                batch_size: 8,
                ..TrainConfig::default()
            },
            &model.init_weights(5),
        );
        // A realistic (non-truncated) compression budget.
        let cfg = AdmmConfig {
            rounds: 5,
            theta_steps: 3,
            batch_size: 12,
            finetune_steps: 60,
            ..AdmmConfig::default()
        };
        let out = compress(
            &model,
            &exec,
            &data.train,
            &heavy,
            &table,
            &cfg,
            &base.weights,
        );
        // Average over several shot-noise draws for a stable comparison.
        let mean_acc = |w: &[f64]| -> f64 {
            (0..5)
                .map(|_| {
                    let env = Env::Noisy {
                        exec: &exec,
                        snapshot: &heavy,
                    };
                    evaluate(&model, env, &data.test, w)
                })
                .sum::<f64>()
                / 5.0
        };
        let acc_base = mean_acc(&base.weights);
        let acc_comp = mean_acc(&out.weights);
        // Compression must not catastrophically hurt, and usually helps.
        assert!(
            acc_comp + 0.10 >= acc_base,
            "compression collapsed accuracy: {acc_base} -> {acc_comp}"
        );
    }

    #[test]
    fn noise_agnostic_variant_runs() {
        let (model, _, exec, data, snap) = setup();
        let table = CompressionTable::standard();
        let cfg = AdmmConfig {
            noise_aware: false,
            ..quick_cfg()
        };
        let out = compress(
            &model,
            &exec,
            &data.train,
            &snap,
            &table,
            &cfg,
            &model.init_weights(4),
        );
        assert!(out.n_compressed() > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let (model, _, exec, data, snap) = setup();
        let table = CompressionTable::standard();
        let init = model.init_weights(9);
        let a = compress(
            &model,
            &exec,
            &data.train,
            &snap,
            &table,
            &quick_cfg(),
            &init,
        );
        let b = compress(
            &model,
            &exec,
            &data.train,
            &snap,
            &table,
            &quick_cfg(),
            &init,
        );
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_rejected() {
        let (model, _, exec, _, snap) = setup();
        let table = CompressionTable::standard();
        let _ = compress(
            &model,
            &exec,
            &[],
            &snap,
            &table,
            &quick_cfg(),
            &model.init_weights(0),
        );
    }
}
