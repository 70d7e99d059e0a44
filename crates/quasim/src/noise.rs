//! Quantum noise channels (Kraus form) and classical readout error.
//!
//! These implement the same device-noise model class used by Qiskit Aer's
//! basic backend noise models, which the paper relies on: a depolarising
//! channel after every gate whose strength is taken from the day's
//! calibration data, plus a classical readout confusion channel applied to
//! measurement outcomes.

use crate::math::{CMatrix, Complex64};

/// A completely-positive trace-preserving map in Kraus form.
///
/// # Examples
///
/// ```
/// use quasim::noise::KrausChannel;
///
/// let ch = KrausChannel::depolarizing_1q(0.01);
/// assert!(ch.is_trace_preserving(1e-12));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct KrausChannel {
    ops: Vec<CMatrix>,
    arity: usize,
}

impl KrausChannel {
    /// One-qubit depolarising channel
    /// `ρ → (1−λ)ρ + λ·I/2`, with `λ` clamped to `[0, 1]`.
    pub fn depolarizing_1q(lambda: f64) -> Self {
        let l = lambda.clamp(0.0, 1.0);
        let paulis = [
            CMatrix::identity(2),
            CMatrix::from_real(2, &[0.0, 1.0, 1.0, 0.0]),
            CMatrix::from_slice(
                2,
                &[
                    Complex64::ZERO,
                    Complex64::new(0.0, -1.0),
                    Complex64::I,
                    Complex64::ZERO,
                ],
            ),
            CMatrix::from_real(2, &[1.0, 0.0, 0.0, -1.0]),
        ];
        let mut ops = Vec::with_capacity(4);
        ops.push(paulis[0].scaled(Complex64::real((1.0 - 3.0 * l / 4.0).sqrt())));
        let w = Complex64::real((l / 4.0).sqrt());
        for p in &paulis[1..] {
            ops.push(p.scaled(w));
        }
        KrausChannel { ops, arity: 1 }
    }

    /// Two-qubit depolarising channel `ρ → (1−λ)ρ + λ·I/4`, with `λ` clamped
    /// to `[0, 1]`. Built from the 16 two-qubit Pauli products.
    pub fn depolarizing_2q(lambda: f64) -> Self {
        let l = lambda.clamp(0.0, 1.0);
        let paulis = [
            CMatrix::identity(2),
            CMatrix::from_real(2, &[0.0, 1.0, 1.0, 0.0]),
            CMatrix::from_slice(
                2,
                &[
                    Complex64::ZERO,
                    Complex64::new(0.0, -1.0),
                    Complex64::I,
                    Complex64::ZERO,
                ],
            ),
            CMatrix::from_real(2, &[1.0, 0.0, 0.0, -1.0]),
        ];
        let mut ops = Vec::with_capacity(16);
        let w_id = Complex64::real((1.0 - 15.0 * l / 16.0).sqrt());
        let w = Complex64::real((l / 16.0).sqrt());
        for (i, a) in paulis.iter().enumerate() {
            for (j, b) in paulis.iter().enumerate() {
                let weight = if i == 0 && j == 0 { w_id } else { w };
                ops.push(a.kron(b).scaled(weight));
            }
        }
        KrausChannel { ops, arity: 2 }
    }

    /// Number of qubits the channel acts on (1 or 2).
    pub fn arity(&self) -> usize {
        self.arity
    }

    /// The Kraus operators.
    pub fn kraus_ops(&self) -> &[CMatrix] {
        &self.ops
    }

    /// Checks the completeness relation `Σ_k K_k† K_k = I` within `tol`.
    pub fn is_trace_preserving(&self, tol: f64) -> bool {
        let dim = self.ops[0].dim();
        let mut acc = CMatrix::zeros(dim);
        for k in &self.ops {
            acc = acc.add(&k.dagger().matmul(k));
        }
        acc.max_abs_diff(&CMatrix::identity(dim)) <= tol
    }
}

/// Per-qubit classical readout confusion.
///
/// `p01` is the probability of reading `1` when the true outcome is `0`,
/// `p10` of reading `0` when the true outcome is `1`.
///
/// # Examples
///
/// ```
/// use quasim::noise::ReadoutError;
///
/// let r = ReadoutError::symmetric(0.02);
/// // A perfect |1> is read as 1 with probability 0.98.
/// assert!((r.apply_to_prob_one(1.0) - 0.98).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ReadoutError {
    /// P(read 1 | true 0).
    pub p01: f64,
    /// P(read 0 | true 1).
    pub p10: f64,
}

impl ReadoutError {
    /// Creates a readout error with independent flip probabilities.
    ///
    /// # Panics
    ///
    /// Panics if either probability is outside `[0, 1]`.
    pub fn new(p01: f64, p10: f64) -> Self {
        assert!((0.0..=1.0).contains(&p01), "p01 must be a probability");
        assert!((0.0..=1.0).contains(&p10), "p10 must be a probability");
        ReadoutError { p01, p10 }
    }

    /// Symmetric readout error: both flips with probability `p`.
    pub fn symmetric(p: f64) -> Self {
        ReadoutError::new(p, p)
    }

    /// The error-free readout.
    pub fn none() -> Self {
        ReadoutError { p01: 0.0, p10: 0.0 }
    }

    /// Pushes a true `P(1)` through the confusion channel.
    pub fn apply_to_prob_one(&self, p1: f64) -> f64 {
        (1.0 - p1) * self.p01 + p1 * (1.0 - self.p10)
    }

    /// Average assignment error `(p01 + p10) / 2`, the single "readout error"
    /// figure reported by IBM calibrations.
    pub fn mean_error(&self) -> f64 {
        0.5 * (self.p01 + self.p10)
    }
}

impl Default for ReadoutError {
    fn default() -> Self {
        ReadoutError::none()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_builtin_channels_trace_preserving() {
        for p in [0.0, 1e-4, 0.01, 0.3, 1.0] {
            assert!(KrausChannel::depolarizing_1q(p).is_trace_preserving(1e-10));
            assert!(KrausChannel::depolarizing_2q(p).is_trace_preserving(1e-10));
        }
    }

    #[test]
    fn depolarizing_zero_is_identity_channel() {
        let ch = KrausChannel::depolarizing_1q(0.0);
        // All non-identity Kraus weights are zero.
        assert!(ch.kraus_ops()[0].max_abs_diff(&CMatrix::identity(2)) < 1e-12);
        for k in &ch.kraus_ops()[1..] {
            assert!(k.max_abs_diff(&CMatrix::zeros(2)) < 1e-12);
        }
    }

    #[test]
    fn lambda_is_clamped() {
        let ch = KrausChannel::depolarizing_1q(7.0);
        assert!(ch.is_trace_preserving(1e-10));
        let ch = KrausChannel::depolarizing_2q(-0.5);
        assert!(ch.is_trace_preserving(1e-10));
    }

    #[test]
    fn extreme_channel_parameters_stay_cptp() {
        // The λ ∈ {0, 1} endpoints are where the Kraus weights degenerate
        // (all mass on the identity, or none); completeness must hold
        // exactly at both.
        for l in [0.0, 1.0] {
            assert!(KrausChannel::depolarizing_1q(l).is_trace_preserving(1e-12));
            assert!(KrausChannel::depolarizing_2q(l).is_trace_preserving(1e-12));
        }
    }

    #[test]
    fn full_depolarizing_reaches_maximally_mixed() {
        let mut rho = crate::density::DensityMatrix::zero_state(2);
        rho.apply_channel(&KrausChannel::depolarizing_1q(1.0), &[0]);
        rho.apply_channel(&KrausChannel::depolarizing_2q(1.0), &[0, 1]);
        let mixed = crate::density::DensityMatrix::maximally_mixed(2);
        for i in 0..4 {
            for j in 0..4 {
                assert!((rho.get(i, j) - mixed.get(i, j)).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn readout_extremes_stay_in_unit_interval() {
        // Every corner of the (p01, p10, p1) cube must map into [0, 1].
        for p01 in [0.0, 1.0] {
            for p10 in [0.0, 1.0] {
                let r = ReadoutError::new(p01, p10);
                for p1 in [0.0, 1.0] {
                    let out = r.apply_to_prob_one(p1);
                    assert!(
                        (0.0..=1.0).contains(&out),
                        "readout ({p01},{p10}) mapped {p1} to {out}"
                    );
                }
            }
        }
        // Fully confusing readout flips deterministically.
        let flip = ReadoutError::new(1.0, 1.0);
        assert!((flip.apply_to_prob_one(0.0) - 1.0).abs() < 1e-12);
        assert!(flip.apply_to_prob_one(1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_identity_when_no_error() {
        let r = ReadoutError::none();
        for p in [0.0, 0.25, 1.0] {
            assert!((r.apply_to_prob_one(p) - p).abs() < 1e-12);
        }
    }

    #[test]
    fn readout_asymmetric() {
        let r = ReadoutError::new(0.1, 0.3);
        assert!((r.apply_to_prob_one(0.0) - 0.1).abs() < 1e-12);
        assert!((r.apply_to_prob_one(1.0) - 0.7).abs() < 1e-12);
        assert!((r.mean_error() - 0.2).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn readout_rejects_invalid_probability() {
        let _ = ReadoutError::new(1.5, 0.0);
    }
}
