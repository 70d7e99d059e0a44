//! Gradients of scalar circuit losses.
//!
//! Plain rotations admit the exact two-term parameter-shift rule. The
//! paper's ansatz also contains *controlled* rotations, whose generators
//! have three eigenvalues, so the two-term rule is not exact for them; this
//! module therefore offers both the exact shift rule (for analyses/tests on
//! pure-rotation circuits) and a high-accuracy central finite difference
//! that is correct for every gate and for noisy objectives. Both cost two
//! objective evaluations per parameter.

/// Central finite-difference gradient of `f` at `theta`.
///
/// # Examples
///
/// ```
/// use qnn::grad::finite_diff_gradient;
///
/// let f = |t: &[f64]| t[0] * t[0] + 3.0 * t[1];
/// let g = finite_diff_gradient(&f, &[2.0, 0.0], 1e-5);
/// assert!((g[0] - 4.0).abs() < 1e-6);
/// assert!((g[1] - 3.0).abs() < 1e-6);
/// ```
///
/// # Panics
///
/// Panics if `h <= 0`.
pub fn finite_diff_gradient<F: Fn(&[f64]) -> f64>(f: &F, theta: &[f64], h: f64) -> Vec<f64> {
    assert!(h > 0.0, "step size must be positive");
    let mut grad = vec![0.0; theta.len()];
    let mut work = theta.to_vec();
    for i in 0..theta.len() {
        let orig = work[i];
        work[i] = orig + h;
        let fp = f(&work);
        work[i] = orig - h;
        let fm = f(&work);
        work[i] = orig;
        grad[i] = (fp - fm) / (2.0 * h);
    }
    grad
}

/// Two-term parameter-shift gradient with shift `π/2`:
/// `∂f/∂θ_i = [f(θ + π/2·e_i) − f(θ − π/2·e_i)] / 2`.
///
/// Exact for objectives built from single-qubit rotation gates
/// (`RX`, `RY`, `RZ`); approximate for controlled rotations.
pub fn param_shift_gradient<F: Fn(&[f64]) -> f64>(f: &F, theta: &[f64]) -> Vec<f64> {
    let shift = std::f64::consts::FRAC_PI_2;
    let mut grad = vec![0.0; theta.len()];
    let mut work = theta.to_vec();
    for i in 0..theta.len() {
        let orig = work[i];
        work[i] = orig + shift;
        let fp = f(&work);
        work[i] = orig - shift;
        let fm = f(&work);
        work[i] = orig;
        grad[i] = 0.5 * (fp - fm);
    }
    grad
}

/// Batched two-term parameter-shift gradient of a noisy scalar objective.
///
/// Semantically identical to [`param_shift_gradient`] over the closure
/// `|w| objective(&exec.z_scores_seeded(features, w, snapshot, stream))`,
/// but instead of `2·P` opaque executor round-trips it builds all `2·P`
/// shifted weight vectors up front and routes them through
/// [`crate::executor::NoisyExecutor::evaluate_probes`], which groups probes by circuit
/// structure (one route/simplify per structure, bind-only per probe) and
/// fans them across `threads` workers — or packs same-structure probes
/// into shared trajectory panels on the trajectory backend.
///
/// `stream_for(i, plus)` supplies the seeded shot-noise stream for the
/// `±π/2` probe of weight `i`. Because streams are assigned by *weight
/// index and sign* rather than evaluation order, the result is
/// bit-identical for any `threads`, either backend, and any panel width;
/// the closure form [`param_shift_gradient`] serves as the sequential
/// oracle for exactly that contract (see `tests/training_path.rs`).
///
/// Note there is no unshifted-loss evaluation to share or hoist: the
/// shift rule only ever consumes the `2·P` shifted points.
pub fn param_shift_gradient_batched<O, S>(
    exec: &crate::executor::NoisyExecutor,
    snapshot: &calibration::snapshot::CalibrationSnapshot,
    features: &[f64],
    weights: &[f64],
    objective: O,
    stream_for: S,
    threads: usize,
) -> Vec<f64>
where
    O: Fn(&[f64]) -> f64,
    S: Fn(usize, bool) -> u64,
{
    let shift = std::f64::consts::FRAC_PI_2;
    let n = weights.len();
    let mut shifted: Vec<Vec<f64>> = Vec::with_capacity(2 * n);
    for i in 0..n {
        for sign in [shift, -shift] {
            let mut w = weights.to_vec();
            w[i] += sign;
            shifted.push(w);
        }
    }
    let mut batch = crate::executor::ProbeBatch::with_capacity(2 * n);
    for (k, w) in shifted.iter().enumerate() {
        batch.push(features, w, stream_for(k / 2, k.is_multiple_of(2)));
    }
    let scores = exec.evaluate_probes(snapshot, &batch, threads);
    (0..n)
        .map(|i| 0.5 * (objective(&scores[2 * i]) - objective(&scores[2 * i + 1])))
        .collect()
}

/// Euclidean norm of a gradient vector.
pub fn grad_norm(grad: &[f64]) -> f64 {
    grad.iter().map(|g| g * g).sum::<f64>().sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::pure_z_scores;
    use crate::model::VqcModel;
    use quasim::gate::{BoundGate, GateKind};
    use quasim::statevector::StateVector;

    #[test]
    fn fd_matches_analytic_on_quadratic() {
        let f = |t: &[f64]| 0.5 * t[0] * t[0] - t[1] + t[0] * t[1];
        let g = finite_diff_gradient(&f, &[1.0, 2.0], 1e-5);
        assert!((g[0] - 3.0).abs() < 1e-6);
        assert!((g[1] - 0.0).abs() < 1e-6);
    }

    #[test]
    fn param_shift_exact_for_single_rotation() {
        // f(θ) = ⟨Z⟩ after RY(θ) = cos θ; f' = −sin θ.
        let f = |t: &[f64]| {
            let mut sv = StateVector::zero_state(1);
            sv.apply(&BoundGate::one(GateKind::Ry, 0, t[0]));
            sv.expect_z(0)
        };
        for theta in [0.0, 0.4, 1.2, 2.9] {
            let g = param_shift_gradient(&f, &[theta]);
            assert!((g[0] + theta.sin()).abs() < 1e-12, "theta={theta}");
        }
    }

    #[test]
    fn param_shift_and_fd_agree_on_rotation_circuit() {
        let f = |t: &[f64]| {
            let mut sv = StateVector::zero_state(2);
            sv.apply(&BoundGate::one(GateKind::Ry, 0, t[0]));
            sv.apply(&BoundGate::one(GateKind::Rx, 1, t[1]));
            sv.apply(&BoundGate::two(GateKind::Cx, 0, 1, 0.0));
            sv.expect_z(1)
        };
        let theta = [0.7, -0.3];
        let ps = param_shift_gradient(&f, &theta);
        let fd = finite_diff_gradient(&f, &theta, 1e-6);
        for (a, b) in ps.iter().zip(fd.iter()) {
            assert!((a - b).abs() < 1e-6);
        }
    }

    #[test]
    fn fd_gradient_of_model_loss_is_finite_and_nonzero() {
        let model = VqcModel::paper_model(4, 4, 4, 1);
        let weights = model.init_weights(11);
        let features = [0.4, 0.9, 1.3, 2.0];
        let f = |w: &[f64]| {
            let z = pure_z_scores(&model, &features, w);
            crate::loss::cross_entropy(&z, 2)
        };
        let g = finite_diff_gradient(&f, &weights, 1e-5);
        assert!(g.iter().all(|v| v.is_finite()));
        assert!(grad_norm(&g) > 1e-6, "gradient unexpectedly zero");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn fd_rejects_zero_step() {
        let f = |_: &[f64]| 0.0;
        let _ = finite_diff_gradient(&f, &[1.0], 0.0);
    }

    #[test]
    fn batched_param_shift_matches_closure_oracle_bitwise() {
        use crate::executor::{NoiseOptions, NoisyExecutor};
        use calibration::snapshot::CalibrationSnapshot;
        use calibration::topology::Topology;
        use std::cell::Cell;

        let model = VqcModel::paper_model(4, 3, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(256, 5));
        let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 8e-3, 0.02);
        let features = [0.3, 1.1, 0.7, 2.2];
        let weights = model.init_weights(4);
        let obj = |z: &[f64]| crate::loss::cross_entropy(z, 1);
        let stream_for = |i: usize, plus: bool| 31 + 2 * i as u64 + u64::from(!plus);

        // The closure oracle calls f in the fixed order (+0, −0, +1, −1, …),
        // so a call counter recovers each evaluation's (weight, sign) and
        // with it the stream the batched engine would assign.
        let calls = Cell::new(0usize);
        let oracle = |w: &[f64]| {
            let k = calls.get();
            calls.set(k + 1);
            let z =
                exec.z_scores_seeded(&features, w, &snap, stream_for(k / 2, k.is_multiple_of(2)));
            obj(&z)
        };
        let want = param_shift_gradient(&oracle, &weights);

        for threads in [1, 3] {
            let got = param_shift_gradient_batched(
                &exec, &snap, &features, &weights, obj, stream_for, threads,
            );
            assert_eq!(got.len(), want.len());
            for (i, (a, b)) in got.iter().zip(want.iter()).enumerate() {
                assert_eq!(a.to_bits(), b.to_bits(), "grad[{i}] threads={threads}");
            }
        }
    }
}
