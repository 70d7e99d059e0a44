//! Training loops: noise-free and noise-aware (noise-injection) training.
//!
//! Noise-aware training follows QuantumNAT (Wang et al., DAC'22, the
//! paper's baseline \[12]): the forward pass runs through the *noisy*
//! executor configured with a calibration snapshot, so gradients see the
//! device noise. The same loop with the pure environment is the paper's
//! "Baseline" (train in a noise-free environment).
//!
//! Noisy training leans hard on the executor's compile-once/rebind-many
//! program cache: finite-difference and SPSA steps evaluate thousands of
//! parameter vectors that almost always share one angle-class structure
//! (training moves weights continuously, so no gate crosses an
//! identity/quarter-turn boundary between evaluations), meaning the
//! circuit is simplified and routed once and every subsequent forward
//! pass only re-binds gate matrices — see
//! [`crate::executor::NoisyExecutor::cache_stats`].
//!
//! # Batched probe evaluation
//!
//! The gradient loops no longer evaluate probes one opaque closure call
//! at a time. Each training step assembles every circuit evaluation it
//! needs — the base loss plus all `±` gradient probes, across the whole
//! minibatch — and hands them off in one go:
//!
//! - **noisy environments** go through
//!   [`NoisyExecutor::evaluate_probes`], which groups the probes by
//!   circuit structure through the program cache and fans them across the
//!   worker pool (or packs identical-program probes into shared
//!   trajectory panels);
//! - **the pure environment** goes through
//!   [`crate::probe::pure_fd_gradient`], which shares state-vector prefixes
//!   between a sample's finite-difference probes and spreads the samples
//!   of a minibatch over the worker threads.
//!
//! Every noisy probe draws shot noise from a stream derived *positionally*
//! from `(day, step, probe slot, sample index)` via
//! [`crate::executor::parallel::probe_stream`] + [`crate::executor::parallel::eval_stream`], never from a
//! shared RNG, so trained parameters are **bit-identical** to the plain
//! sequential loops — retained as [`train_masked_sequential`] and
//! [`train_spsa_masked_sequential`] — for any thread count, either
//! backend, and any trajectory panel width. `tests/training_path.rs`
//! enforces the contract property-style.

use crate::data::Sample;
use crate::executor::parallel::{batch_z_scores, eval_stream, probe_stream, worker_threads};
use crate::executor::{pure_z_scores, NoisyExecutor, ProbeBatch};
use crate::loss::{accuracy, cross_entropy, mean_cross_entropy, predict};
use crate::model::VqcModel;
use crate::optim::Adam;
use crate::probe::pure_fd_gradient;
use calibration::snapshot::CalibrationSnapshot;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// Execution environment for loss/accuracy evaluation.
#[derive(Debug, Clone, Copy)]
pub enum Env<'a> {
    /// Noise-free state-vector execution (`Wp`).
    Pure,
    /// Noisy execution under a calibration snapshot (`Wn`) on the
    /// executor's backend, density matrix or trajectories. Every noise
    /// stream is positional: [`evaluate`] and [`batch_loss`] run sample
    /// `i` on [`eval_stream`]`(snapshot.day, i)`.
    Noisy {
        /// The routed executor.
        exec: &'a NoisyExecutor,
        /// The day's calibration data.
        snapshot: &'a CalibrationSnapshot,
    },
}

/// Hyper-parameters of a training run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainConfig {
    /// Passes over the training set.
    pub epochs: usize,
    /// Minibatch size.
    pub batch_size: usize,
    /// Adam learning rate.
    pub lr: f64,
    /// Shuffling seed.
    pub seed: u64,
    /// Central finite-difference step for gradients.
    pub grad_step: f64,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 16,
            lr: 0.08,
            seed: 0,
            grad_step: 1e-3,
        }
    }
}

/// Outcome of a training run.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainResult {
    /// Trained weights.
    pub weights: Vec<f64>,
    /// Mean batch loss per epoch.
    pub loss_history: Vec<f64>,
    /// Total circuit evaluations performed (the paper's training-cost
    /// proxy for Fig. 7).
    pub n_evals: u64,
}

/// Mean cross-entropy of a batch. Under [`Env::Noisy`] the batch is one
/// [`ProbeBatch`] (sample `i` on stream [`eval_stream`]`(snapshot.day, i)`)
/// on [`worker_threads`] workers, so the loss is a function of its inputs
/// alone.
pub fn batch_loss(model: &VqcModel, env: Env<'_>, batch: &[&Sample], weights: &[f64]) -> f64 {
    assert!(!batch.is_empty(), "empty batch");
    let scores: Vec<Vec<f64>> = match env {
        Env::Pure => batch
            .iter()
            .map(|s| pure_z_scores(model, &s.features, weights))
            .collect(),
        Env::Noisy { exec, snapshot } => {
            let mut probes = ProbeBatch::with_capacity(batch.len());
            for (i, s) in batch.iter().enumerate() {
                probes.push(
                    &s.features,
                    weights,
                    eval_stream(snapshot.day as u64, i as u64),
                );
            }
            exec.evaluate_probes(snapshot, &probes, worker_threads())
        }
    };
    let labels: Vec<usize> = batch.iter().map(|s| s.label).collect();
    mean_cross_entropy(&scores, &labels)
}

/// Classification accuracy of `weights` on `samples` in `env`. Under
/// [`Env::Noisy`] the scores come from [`batch_z_scores`] with `day_stream
/// = snapshot.day` on [`worker_threads`] workers, so the result equals
/// [`crate::executor::parallel::batch_accuracy`] on that stream.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn evaluate(model: &VqcModel, env: Env<'_>, samples: &[Sample], weights: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "empty evaluation set");
    let scores: Vec<Vec<f64>> = match env {
        Env::Pure => samples
            .iter()
            .map(|s| pure_z_scores(model, &s.features, weights))
            .collect(),
        Env::Noisy { exec, snapshot } => {
            let day_stream = snapshot.day as u64;
            batch_z_scores(
                exec,
                samples,
                weights,
                snapshot,
                day_stream,
                worker_threads(),
            )
        }
    };
    let preds: Vec<usize> = scores.iter().map(|z| predict(z)).collect();
    let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
    accuracy(&preds, &labels)
}

/// Trains all weights; see [`train_masked`].
pub fn train(
    model: &VqcModel,
    train_set: &[Sample],
    env: Env<'_>,
    config: &TrainConfig,
    init_weights: &[f64],
) -> TrainResult {
    let trainable = vec![true; init_weights.len()];
    train_masked(model, train_set, env, config, init_weights, &trainable)
}

/// Minibatch Adam training with a trainability mask, routed through the
/// batched probe engine with [`crate::executor::parallel::worker_threads`] workers; see
/// [`train_masked_with_threads`].
pub fn train_masked(
    model: &VqcModel,
    train_set: &[Sample],
    env: Env<'_>,
    config: &TrainConfig,
    init_weights: &[f64],
    trainable: &[bool],
) -> TrainResult {
    train_masked_with_threads(
        model,
        train_set,
        env,
        config,
        init_weights,
        trainable,
        worker_threads(),
    )
}

/// Base loss and masked central-difference gradient of one minibatch:
/// noise-free batches go through [`pure_fd_gradient`], noisy ones are
/// evaluated as a single probe batch.
///
/// `slots` lists the trainable weight indices. Probe slot `0` is the base
/// loss; weight `i`'s `±h` probes use slots `1 + 2i` / `2 + 2i` (indexed
/// by *weight*, not slot position, so a mask change never re-keys the
/// surviving probes' noise streams).
#[allow(clippy::too_many_arguments)]
fn masked_fd_gradient(
    model: &VqcModel,
    env: Env<'_>,
    batch: &[&Sample],
    weights: &[f64],
    slots: &[usize],
    h: f64,
    step: u64,
    threads: usize,
) -> (f64, Vec<f64>) {
    let (exec, snapshot) = match env {
        Env::Pure => return pure_fd_gradient(model, batch, weights, h, slots, threads),
        Env::Noisy { exec, snapshot } => (exec, snapshot),
    };
    let b = batch.len() as f64;
    let mut base_sum = 0.0;
    let mut fp_sum = vec![0.0; slots.len()];
    let mut fm_sum = vec![0.0; slots.len()];
    let day_stream = snapshot.day as u64;
    let mut shifted: Vec<Vec<f64>> = Vec::with_capacity(2 * slots.len());
    for &i in slots {
        for sign in [h, -h] {
            let mut w = weights.to_vec();
            w[i] += sign;
            shifted.push(w);
        }
    }
    let stride = 1 + 2 * slots.len();
    let mut probes = ProbeBatch::with_capacity(batch.len() * stride);
    for (sp, s) in batch.iter().enumerate() {
        probes.push(
            &s.features,
            weights,
            eval_stream(probe_stream(day_stream, step, 0), sp as u64),
        );
        for (t, &i) in slots.iter().enumerate() {
            probes.push(
                &s.features,
                &shifted[2 * t],
                eval_stream(probe_stream(day_stream, step, 1 + 2 * i as u64), sp as u64),
            );
            probes.push(
                &s.features,
                &shifted[2 * t + 1],
                eval_stream(probe_stream(day_stream, step, 2 + 2 * i as u64), sp as u64),
            );
        }
    }
    let scores = exec.evaluate_probes(snapshot, &probes, threads);
    for (sp, s) in batch.iter().enumerate() {
        base_sum += cross_entropy(&scores[sp * stride], s.label);
        for t in 0..slots.len() {
            fp_sum[t] += cross_entropy(&scores[sp * stride + 1 + 2 * t], s.label);
            fm_sum[t] += cross_entropy(&scores[sp * stride + 2 + 2 * t], s.label);
        }
    }
    let mut grad = vec![0.0; weights.len()];
    for (t, &i) in slots.iter().enumerate() {
        grad[i] = (fp_sum[t] / b - fm_sum[t] / b) / (2.0 * h);
    }
    (base_sum / b, grad)
}

/// Minibatch Adam training with a trainability mask.
///
/// Frozen coordinates (`trainable[i] == false`) receive no gradient
/// evaluations and never move — this is how compressed parameters stay at
/// their compression levels during fine-tuning.
///
/// All circuit evaluations of one step go through the batched probe engine
/// (see the [module docs](self)); the result is bit-identical to
/// [`train_masked_sequential`] for every `threads` value.
///
/// # Panics
///
/// Panics if the training set is empty or slice lengths mismatch the model.
pub fn train_masked_with_threads(
    model: &VqcModel,
    train_set: &[Sample],
    env: Env<'_>,
    config: &TrainConfig,
    init_weights: &[f64],
    trainable: &[bool],
    threads: usize,
) -> TrainResult {
    assert!(!train_set.is_empty(), "empty training set");
    assert_eq!(
        init_weights.len(),
        model.n_weights(),
        "weight count mismatch"
    );
    assert_eq!(trainable.len(), init_weights.len(), "mask length mismatch");

    let slots: Vec<usize> = (0..init_weights.len()).filter(|&i| trainable[i]).collect();
    let mut weights = init_weights.to_vec();
    let mut opt = Adam::new(config.lr, weights.len());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut loss_history = Vec::with_capacity(config.epochs);
    let mut n_evals: u64 = 0;
    let mut step: u64 = 0;

    let mut order: Vec<usize> = (0..train_set.len()).collect();
    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut n_batches = 0usize;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let batch: Vec<&Sample> = chunk.iter().map(|&i| &train_set[i]).collect();
            let (base, grad) = masked_fd_gradient(
                model,
                env,
                &batch,
                &weights,
                &slots,
                config.grad_step,
                step,
                threads,
            );
            n_evals += batch.len() as u64;
            n_evals += 2 * slots.len() as u64 * batch.len() as u64;
            epoch_loss += base;
            n_batches += 1;
            step += 1;
            opt.step_masked(&mut weights, &grad, trainable);
        }
        loss_history.push(epoch_loss / n_batches.max(1) as f64);
    }

    TrainResult {
        weights,
        loss_history,
        n_evals,
    }
}

/// Plain one-evaluation-at-a-time reference implementation of
/// [`train_masked`].
///
/// Kept as the bit-identity oracle for the batched engine: it assigns
/// every probe the same positional noise stream the batched path does and
/// evaluates them with individual [`NoisyExecutor::z_scores_seeded`]
/// calls, so `train_masked(..) == train_masked_sequential(..)` bit for
/// bit (`tests/training_path.rs`).
///
/// # Panics
///
/// Panics if the training set is empty or slice lengths mismatch the model.
pub fn train_masked_sequential(
    model: &VqcModel,
    train_set: &[Sample],
    env: Env<'_>,
    config: &TrainConfig,
    init_weights: &[f64],
    trainable: &[bool],
) -> TrainResult {
    assert!(!train_set.is_empty(), "empty training set");
    assert_eq!(
        init_weights.len(),
        model.n_weights(),
        "weight count mismatch"
    );
    assert_eq!(trainable.len(), init_weights.len(), "mask length mismatch");

    let mut weights = init_weights.to_vec();
    let mut opt = Adam::new(config.lr, weights.len());
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut loss_history = Vec::with_capacity(config.epochs);
    let mut n_evals: u64 = 0;
    let mut step: u64 = 0;

    let mut order: Vec<usize> = (0..train_set.len()).collect();
    for _epoch in 0..config.epochs {
        order.shuffle(&mut rng);
        let mut epoch_loss = 0.0;
        let mut n_batches = 0usize;
        for chunk in order.chunks(config.batch_size.max(1)) {
            let batch: Vec<&Sample> = chunk.iter().map(|&i| &train_set[i]).collect();
            let step_now = step;
            let eval = |w: &[f64], slot: u64| -> f64 {
                let total: f64 = batch
                    .iter()
                    .enumerate()
                    .map(|(sp, s)| {
                        let z = match env {
                            Env::Pure => pure_z_scores(model, &s.features, w),
                            Env::Noisy { exec, snapshot } => exec.z_scores_seeded(
                                &s.features,
                                w,
                                snapshot,
                                eval_stream(
                                    probe_stream(snapshot.day as u64, step_now, slot),
                                    sp as u64,
                                ),
                            ),
                        };
                        cross_entropy(&z, s.label)
                    })
                    .sum();
                total / batch.len() as f64
            };

            let base = eval(&weights, 0);
            n_evals += batch.len() as u64;
            epoch_loss += base;
            n_batches += 1;

            // Central finite differences on trainable coordinates only.
            let mut grad = vec![0.0; weights.len()];
            for i in 0..weights.len() {
                if !trainable[i] {
                    continue;
                }
                let orig = weights[i];
                weights[i] = orig + config.grad_step;
                let fp = eval(&weights, 1 + 2 * i as u64);
                weights[i] = orig - config.grad_step;
                let fm = eval(&weights, 2 + 2 * i as u64);
                weights[i] = orig;
                n_evals += 2 * batch.len() as u64;
                grad[i] = (fp - fm) / (2.0 * config.grad_step);
            }
            step += 1;
            opt.step_masked(&mut weights, &grad, trainable);
        }
        loss_history.push(epoch_loss / n_batches.max(1) as f64);
    }

    TrainResult {
        weights,
        loss_history,
        n_evals,
    }
}

/// SPSA (simultaneous-perturbation stochastic approximation)
/// hyper-parameters.
///
/// SPSA estimates the full gradient from **two** objective evaluations per
/// step regardless of dimension, which makes it the standard choice for
/// training through noisy quantum executions — exactly where the
/// finite-difference loop of [`train_masked`] would cost `2·n_weights`
/// noisy circuit evaluations per batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpsaConfig {
    /// Optimisation steps.
    pub steps: usize,
    /// Minibatch size per step.
    pub batch_size: usize,
    /// Initial step gain `a` (decays as `a/(k+1+A)^0.602`).
    pub lr: f64,
    /// Initial perturbation `c` (decays as `c/(k+1)^0.101`).
    pub perturbation: f64,
    /// Seed for perturbation directions and batching.
    pub seed: u64,
}

impl Default for SpsaConfig {
    fn default() -> Self {
        SpsaConfig {
            steps: 60,
            batch_size: 12,
            lr: 0.12,
            perturbation: 0.15,
            seed: 0,
        }
    }
}

/// SPSA training with a trainability mask, routed through the batched
/// probe engine with [`crate::executor::parallel::worker_threads`] workers; see
/// [`train_spsa_masked_with_threads`].
pub fn train_spsa_masked(
    model: &VqcModel,
    train_set: &[Sample],
    env: Env<'_>,
    config: &SpsaConfig,
    init_weights: &[f64],
    trainable: &[bool],
) -> TrainResult {
    train_spsa_masked_with_threads(
        model,
        train_set,
        env,
        config,
        init_weights,
        trainable,
        worker_threads(),
    )
}

/// SPSA training with a trainability mask (frozen coordinates are never
/// perturbed or moved). Suited to noisy environments; see [`SpsaConfig`].
///
/// The two perturbed losses of each step are evaluated as one probe batch
/// (probe slots 1/2 for the `±` perturbations); the result is
/// bit-identical to [`train_spsa_masked_sequential`] for every `threads`
/// value.
///
/// # Panics
///
/// Panics if the training set is empty or slice lengths mismatch the model.
pub fn train_spsa_masked_with_threads(
    model: &VqcModel,
    train_set: &[Sample],
    env: Env<'_>,
    config: &SpsaConfig,
    init_weights: &[f64],
    trainable: &[bool],
    threads: usize,
) -> TrainResult {
    assert!(!train_set.is_empty(), "empty training set");
    assert_eq!(
        init_weights.len(),
        model.n_weights(),
        "weight count mismatch"
    );
    assert_eq!(trainable.len(), init_weights.len(), "mask length mismatch");

    let mut weights = init_weights.to_vec();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut n_evals: u64 = 0;
    let mut loss_history = Vec::with_capacity(config.steps);
    let stability = (config.steps as f64 * 0.1).max(1.0);
    // Perturbed-weight scratch buffers, refilled in place every step (the
    // old per-step `shifted` closure allocated two fresh vectors each
    // iteration).
    let mut wp = vec![0.0; weights.len()];
    let mut wm = vec![0.0; weights.len()];

    let mut order: Vec<usize> = (0..train_set.len()).collect();
    for k in 0..config.steps {
        order.shuffle(&mut rng);
        let batch: Vec<&Sample> = order
            .iter()
            .take(config.batch_size.min(train_set.len()))
            .map(|&i| &train_set[i])
            .collect();

        let ak = config.lr / (k as f64 + 1.0 + stability).powf(0.602);
        let ck = config.perturbation / (k as f64 + 1.0).powf(0.101);

        // Rademacher direction on trainable coordinates.
        let delta: Vec<f64> = trainable
            .iter()
            .map(|&t| {
                if t {
                    if rng.gen::<bool>() {
                        1.0
                    } else {
                        -1.0
                    }
                } else {
                    0.0
                }
            })
            .collect();

        for i in 0..weights.len() {
            wp[i] = weights[i] + ck * delta[i];
            wm[i] = weights[i] - ck * delta[i];
        }
        let (fp, fm) = match env {
            Env::Pure => (
                batch_loss(model, env, &batch, &wp),
                batch_loss(model, env, &batch, &wm),
            ),
            Env::Noisy { exec, snapshot } => {
                let day_stream = snapshot.day as u64;
                let mut probes = ProbeBatch::with_capacity(2 * batch.len());
                for (sp, s) in batch.iter().enumerate() {
                    probes.push(
                        &s.features,
                        &wp,
                        eval_stream(probe_stream(day_stream, k as u64, 1), sp as u64),
                    );
                }
                for (sp, s) in batch.iter().enumerate() {
                    probes.push(
                        &s.features,
                        &wm,
                        eval_stream(probe_stream(day_stream, k as u64, 2), sp as u64),
                    );
                }
                let scores = exec.evaluate_probes(snapshot, &probes, threads);
                let labels: Vec<usize> = batch.iter().map(|s| s.label).collect();
                (
                    mean_cross_entropy(&scores[..batch.len()], &labels),
                    mean_cross_entropy(&scores[batch.len()..], &labels),
                )
            }
        };
        n_evals += 2 * batch.len() as u64;
        loss_history.push(0.5 * (fp + fm));

        let scale = (fp - fm) / (2.0 * ck);
        for i in 0..weights.len() {
            if trainable[i] && delta[i] != 0.0 {
                weights[i] -= ak * scale / delta[i];
            }
        }
    }

    TrainResult {
        weights,
        loss_history,
        n_evals,
    }
}

/// Plain one-evaluation-at-a-time reference implementation of
/// [`train_spsa_masked`], retained as the batched engine's bit-identity
/// oracle (same positional noise streams, individual
/// [`NoisyExecutor::z_scores_seeded`] calls).
///
/// # Panics
///
/// Panics if the training set is empty or slice lengths mismatch the model.
pub fn train_spsa_masked_sequential(
    model: &VqcModel,
    train_set: &[Sample],
    env: Env<'_>,
    config: &SpsaConfig,
    init_weights: &[f64],
    trainable: &[bool],
) -> TrainResult {
    assert!(!train_set.is_empty(), "empty training set");
    assert_eq!(
        init_weights.len(),
        model.n_weights(),
        "weight count mismatch"
    );
    assert_eq!(trainable.len(), init_weights.len(), "mask length mismatch");

    let mut weights = init_weights.to_vec();
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut n_evals: u64 = 0;
    let mut loss_history = Vec::with_capacity(config.steps);
    let stability = (config.steps as f64 * 0.1).max(1.0);

    let mut order: Vec<usize> = (0..train_set.len()).collect();
    for k in 0..config.steps {
        order.shuffle(&mut rng);
        let batch: Vec<&Sample> = order
            .iter()
            .take(config.batch_size.min(train_set.len()))
            .map(|&i| &train_set[i])
            .collect();

        let ak = config.lr / (k as f64 + 1.0 + stability).powf(0.602);
        let ck = config.perturbation / (k as f64 + 1.0).powf(0.101);

        // Rademacher direction on trainable coordinates.
        let delta: Vec<f64> = trainable
            .iter()
            .map(|&t| {
                if t {
                    if rng.gen::<bool>() {
                        1.0
                    } else {
                        -1.0
                    }
                } else {
                    0.0
                }
            })
            .collect();

        let shifted = |sign: f64, w: &[f64]| -> Vec<f64> {
            w.iter()
                .zip(delta.iter())
                .map(|(&wi, &di)| wi + sign * ck * di)
                .collect()
        };
        let wp = shifted(1.0, &weights);
        let wm = shifted(-1.0, &weights);
        let eval = |w: &[f64], slot: u64| -> f64 {
            let total: f64 = batch
                .iter()
                .enumerate()
                .map(|(sp, s)| {
                    let z = match env {
                        Env::Pure => pure_z_scores(model, &s.features, w),
                        Env::Noisy { exec, snapshot } => exec.z_scores_seeded(
                            &s.features,
                            w,
                            snapshot,
                            eval_stream(
                                probe_stream(snapshot.day as u64, k as u64, slot),
                                sp as u64,
                            ),
                        ),
                    };
                    cross_entropy(&z, s.label)
                })
                .sum();
            total / batch.len() as f64
        };
        let fp = eval(&wp, 1);
        let fm = eval(&wm, 2);
        n_evals += 2 * batch.len() as u64;
        loss_history.push(0.5 * (fp + fm));

        let scale = (fp - fm) / (2.0 * ck);
        for i in 0..weights.len() {
            if trainable[i] && delta[i] != 0.0 {
                weights[i] -= ak * scale / delta[i];
            }
        }
    }

    TrainResult {
        weights,
        loss_history,
        n_evals,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::data::Dataset;
    use crate::executor::NoiseOptions;
    use calibration::topology::Topology;

    fn quick_config() -> TrainConfig {
        TrainConfig {
            epochs: 6,
            batch_size: 8,
            lr: 0.15,
            seed: 1,
            grad_step: 1e-3,
        }
    }

    #[test]
    fn pure_training_learns_iris() {
        let data = Dataset::iris(3).truncated(48, 30);
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let init = model.init_weights(2);
        let before = evaluate(&model, Env::Pure, &data.test, &init);
        let result = train(&model, &data.train, Env::Pure, &quick_config(), &init);
        let after = evaluate(&model, Env::Pure, &data.test, &result.weights);
        assert!(
            after > before.max(0.5),
            "training should beat init: {before} -> {after}"
        );
        // Loss should broadly decrease.
        assert!(result.loss_history.last().unwrap() < result.loss_history.first().unwrap());
        assert!(result.n_evals > 0);
    }

    #[test]
    fn masked_training_freezes_weights() {
        let data = Dataset::iris(3).truncated(24, 10);
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let init = model.init_weights(4);
        let mut trainable = vec![true; model.n_weights()];
        for t in trainable.iter_mut().step_by(2) {
            *t = false;
        }
        let cfg = TrainConfig {
            epochs: 2,
            ..quick_config()
        };
        let result = train_masked(&model, &data.train, Env::Pure, &cfg, &init, &trainable);
        for i in 0..model.n_weights() {
            if !trainable[i] {
                assert_eq!(result.weights[i], init[i], "frozen weight {i} moved");
            }
        }
        // At least one trainable weight moved.
        assert!(result
            .weights
            .iter()
            .zip(init.iter())
            .enumerate()
            .any(|(i, (a, b))| trainable[i] && a != b));
    }

    #[test]
    fn noise_aware_training_runs_and_counts_evals() {
        let data = Dataset::seismic(16, 8, 5).truncated(16, 8);
        let model = VqcModel::paper_model(4, 2, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
        let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 8e-3, 0.02);
        let env = Env::Noisy {
            exec: &exec,
            snapshot: &snap,
        };
        let cfg = TrainConfig {
            epochs: 1,
            batch_size: 8,
            ..quick_config()
        };
        let init = model.init_weights(9);
        let result = train(&model, &data.train, env, &cfg, &init);
        // 1 epoch × 2 batches × (8 + 2·n_weights·8) evals.
        let expected = 2 * (8 + 2 * model.n_weights() as u64 * 8);
        assert_eq!(result.n_evals, expected);
        let acc = evaluate(&model, env, &data.test, &result.weights);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn deterministic_given_seed() {
        let data = Dataset::iris(3).truncated(16, 8);
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let init = model.init_weights(2);
        let cfg = TrainConfig {
            epochs: 1,
            ..quick_config()
        };
        let a = train(&model, &data.train, Env::Pure, &cfg, &init);
        let b = train(&model, &data.train, Env::Pure, &cfg, &init);
        assert_eq!(a, b);
    }

    #[test]
    fn spsa_improves_noisy_loss() {
        let data = Dataset::iris(3).truncated(40, 20);
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
        let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 8e-3, 0.02);
        let env = Env::Noisy {
            exec: &exec,
            snapshot: &snap,
        };
        let init = model.init_weights(3);
        let cfg = SpsaConfig {
            steps: 40,
            batch_size: 10,
            seed: 4,
            ..SpsaConfig::default()
        };
        let trainable = vec![true; model.n_weights()];
        let result = train_spsa_masked(&model, &data.train, env, &cfg, &init, &trainable);
        // Cost: exactly 2 evals per batch sample per step.
        assert_eq!(result.n_evals, 40 * 2 * 10);
        let before = evaluate(&model, env, &data.test, &init);
        let after = evaluate(&model, env, &data.test, &result.weights);
        assert!(
            after + 0.1 >= before,
            "SPSA should not regress materially: {before} -> {after}"
        );
    }

    #[test]
    fn spsa_respects_mask() {
        let data = Dataset::iris(3).truncated(16, 8);
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let init = model.init_weights(6);
        let mut trainable = vec![true; model.n_weights()];
        trainable[0] = false;
        trainable[5] = false;
        let cfg = SpsaConfig {
            steps: 5,
            batch_size: 4,
            seed: 1,
            ..SpsaConfig::default()
        };
        let r = train_spsa_masked(&model, &data.train, Env::Pure, &cfg, &init, &trainable);
        assert_eq!(r.weights[0], init[0]);
        assert_eq!(r.weights[5], init[5]);
        assert_ne!(r.weights, init);
    }

    #[test]
    #[should_panic(expected = "empty training set")]
    fn empty_training_set_rejected() {
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let init = model.init_weights(2);
        let _ = train(&model, &[], Env::Pure, &quick_config(), &init);
    }

    fn assert_results_bit_eq(a: &TrainResult, b: &TrainResult, what: &str) {
        assert_eq!(a.n_evals, b.n_evals, "{what}: n_evals");
        assert_eq!(a.weights.len(), b.weights.len(), "{what}: weight count");
        for (i, (x, y)) in a.weights.iter().zip(b.weights.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: weights[{i}] {x} vs {y}");
        }
        for (i, (x, y)) in a.loss_history.iter().zip(b.loss_history.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: loss[{i}] {x} vs {y}");
        }
    }

    #[test]
    fn batched_masked_training_matches_sequential_reference_bitwise() {
        let data = Dataset::iris(3).truncated(12, 4);
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let topo = Topology::ibm_belem();
        // Finite shots so the seeded streams actually matter.
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(128, 7));
        let snap = CalibrationSnapshot::uniform(&topo, 3, 3e-4, 8e-3, 0.02);
        let cfg = TrainConfig {
            epochs: 2,
            batch_size: 4,
            ..quick_config()
        };
        let init = model.init_weights(5);
        let mut trainable = vec![true; model.n_weights()];
        trainable[2] = false;
        for env in [
            Env::Pure,
            Env::Noisy {
                exec: &exec,
                snapshot: &snap,
            },
        ] {
            let reference =
                train_masked_sequential(&model, &data.train, env, &cfg, &init, &trainable);
            for threads in [1, 3] {
                let batched = train_masked_with_threads(
                    &model,
                    &data.train,
                    env,
                    &cfg,
                    &init,
                    &trainable,
                    threads,
                );
                assert_results_bit_eq(&batched, &reference, &format!("threads={threads}"));
            }
        }
    }

    #[test]
    fn batched_spsa_matches_sequential_reference_bitwise() {
        let data = Dataset::iris(3).truncated(16, 4);
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(128, 11));
        let snap = CalibrationSnapshot::uniform(&topo, 2, 3e-4, 8e-3, 0.02);
        let cfg = SpsaConfig {
            steps: 6,
            batch_size: 5,
            seed: 2,
            ..SpsaConfig::default()
        };
        let init = model.init_weights(8);
        let mut trainable = vec![true; model.n_weights()];
        trainable[1] = false;
        for env in [
            Env::Pure,
            Env::Noisy {
                exec: &exec,
                snapshot: &snap,
            },
        ] {
            let reference =
                train_spsa_masked_sequential(&model, &data.train, env, &cfg, &init, &trainable);
            for threads in [1, 3] {
                let batched = train_spsa_masked_with_threads(
                    &model,
                    &data.train,
                    env,
                    &cfg,
                    &init,
                    &trainable,
                    threads,
                );
                assert_results_bit_eq(&batched, &reference, &format!("threads={threads}"));
            }
        }
    }
}
