//! Exact (noise-free) state-vector simulation.
//!
//! Basis convention: for an `n`-qubit register, computational basis state
//! `|b⟩` is indexed by the integer `b` whose **bit `q` is the value of qubit
//! `q`** (qubit 0 = least significant bit). Two-qubit gates use the local
//! index `control*2 + target`, matching [`crate::gate::GateKind::matrix`].

use crate::gate::{BoundGate, GateEntries};
use crate::math::{Complex64, M2, M4};

/// A pure quantum state over `n` qubits.
///
/// # Examples
///
/// ```
/// use quasim::statevector::StateVector;
/// use quasim::gate::{BoundGate, GateKind};
///
/// let mut sv = StateVector::zero_state(2);
/// sv.apply(&BoundGate::one(GateKind::H, 0, 0.0));
/// sv.apply(&BoundGate::two(GateKind::Cx, 0, 1, 0.0));
/// // Bell state: P(qubit 1 = 1) = 1/2.
/// assert!((sv.prob_one(1) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// Creates `|0…0⟩` over `n_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > 24` (sizes beyond any use in
    /// this workspace).
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!((1..=24).contains(&n_qubits), "unsupported qubit count");
        let mut amps = vec![Complex64::ZERO; 1 << n_qubits];
        amps[0] = Complex64::ONE;
        StateVector { n_qubits, amps }
    }

    /// Creates a state from explicit amplitudes.
    ///
    /// # Panics
    ///
    /// Panics if the length is not a power of two ≥ 2 or if the vector is not
    /// normalised within `1e-9`.
    pub fn from_amplitudes(amps: Vec<Complex64>) -> Self {
        let len = amps.len();
        assert!(
            len >= 2 && len.is_power_of_two(),
            "length must be a power of two"
        );
        let norm: f64 = amps.iter().map(|a| a.norm_sqr()).sum();
        assert!(
            (norm - 1.0).abs() < 1e-9,
            "state must be normalised (got {norm})"
        );
        StateVector {
            n_qubits: len.trailing_zeros() as usize,
            amps,
        }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Raw amplitudes (length `2^n`).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Applies a bound gate in place, binding its entries on the stack.
    ///
    /// # Panics
    ///
    /// Panics if any qubit index is out of range.
    pub fn apply(&mut self, gate: &BoundGate) {
        self.apply_entries(&gate.entries(), gate.qubits());
    }

    /// Applies prebound gate entries to `qubits` (control first for
    /// two-qubit entries) — the replay path of callers that bind a circuit
    /// once and apply it many times.
    ///
    /// # Panics
    ///
    /// Panics if `qubits` is shorter than the entries' arity or any index
    /// is out of range.
    pub fn apply_entries(&mut self, u: &GateEntries, qubits: &[usize]) {
        match u {
            GateEntries::One(m) => self.apply_1q(m, qubits[0]),
            GateEntries::Two(m) => self.apply_2q(m, qubits[0], qubits[1]),
        }
    }

    /// Applies a 2×2 unitary (row-major entries) to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, u: &M2, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let half = 1usize << q;
        let [u00, u01, u10, u11] = *u;
        // Each block of `2·half` amplitudes holds `half` (|…0…⟩, |…1…⟩)
        // pairs: the low half has bit `q` clear, the high half set.
        for block in self.amps.chunks_exact_mut(2 * half) {
            let (lo, hi) = block.split_at_mut(half);
            for (x0, x1) in lo.iter_mut().zip(hi.iter_mut()) {
                let a0 = *x0;
                let a1 = *x1;
                *x0 = u00 * a0 + u01 * a1;
                *x1 = u10 * a0 + u11 * a1;
            }
        }
    }

    /// Applies a 4×4 unitary (row-major entries) to qubits `(a, b)` where
    /// `a` maps to the most significant local bit (control position for
    /// controlled gates).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn apply_2q(&mut self, u: &M4, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        assert_ne!(a, b, "qubits must be distinct");
        let ma = 1usize << a;
        let mb = 1usize << b;
        let (lo, hi) = (a.min(b), a.max(b));
        // Enumerate exactly the indices with bits `a` and `b` clear by
        // inserting two zero bits into a quarter-size counter.
        for k in 0..self.amps.len() >> 2 {
            let i = insert_zero_bit(insert_zero_bit(k, lo), hi);
            let idx = [i, i | mb, i | ma, i | ma | mb];
            let old = idx.map(|j| self.amps[j]);
            for r in 0..4 {
                let mut acc = Complex64::ZERO;
                for c in 0..4 {
                    acc += u[r * 4 + c] * old[c];
                }
                self.amps[idx[r]] = acc;
            }
        }
    }

    /// Applies a whole sequence of gates.
    pub fn run<'a, I: IntoIterator<Item = &'a BoundGate>>(&mut self, gates: I) {
        for g in gates {
            self.apply(g);
        }
    }

    /// Probability of measuring qubit `q` as `1`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let mask = 1usize << q;
        self.amps
            .iter()
            .enumerate()
            .filter(|(i, _)| i & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    /// Expectation value `⟨Z_q⟩ = P(0) − P(1)`.
    pub fn expect_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.prob_one(q)
    }

    /// Full computational-basis probability distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// Squared norm (should always be 1 up to rounding).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Inner product `⟨self|other⟩`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn inner(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit counts must match");
        self.amps
            .iter()
            .zip(other.amps.iter())
            .map(|(&a, &b)| a.conj() * b)
            .fold(Complex64::ZERO, |acc, z| acc + z)
    }

    /// Fidelity `|⟨self|other⟩|²` with another pure state.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.inner(other).norm_sqr()
    }
}

/// `x` with a zero bit inserted at position `p` (higher bits shift up).
fn insert_zero_bit(x: usize, p: usize) -> usize {
    let low = x & ((1 << p) - 1);
    ((x >> p) << (p + 1)) | low
}

/// Runs `gates` on `|0…0⟩` and returns the final state.
///
/// # Examples
///
/// ```
/// use quasim::statevector::run_circuit;
/// use quasim::gate::{BoundGate, GateKind};
///
/// let sv = run_circuit(2, &[BoundGate::one(GateKind::X, 0, 0.0)]);
/// assert!((sv.prob_one(0) - 1.0).abs() < 1e-12);
/// ```
pub fn run_circuit(n_qubits: usize, gates: &[BoundGate]) -> StateVector {
    let mut sv = StateVector::zero_state(n_qubits);
    sv.run(gates);
    sv
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::{GateKind, ALL_KINDS};
    use crate::math::CMatrix;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::PI;

    /// Reference 2×2 kernel over a heap [`CMatrix`] — the pre-stack-entries
    /// implementation, kept as the bit-identity oracle for
    /// [`StateVector::apply_1q`].
    fn oracle_apply_1q(amps: &mut [Complex64], u: &CMatrix, q: usize) {
        let mask = 1usize << q;
        let (u00, u01, u10, u11) = (u[(0, 0)], u[(0, 1)], u[(1, 0)], u[(1, 1)]);
        for i in 0..amps.len() {
            if i & mask == 0 {
                let j = i | mask;
                let a0 = amps[i];
                let a1 = amps[j];
                amps[i] = u00 * a0 + u01 * a1;
                amps[j] = u10 * a0 + u11 * a1;
            }
        }
    }

    /// Reference 4×4 kernel over a heap [`CMatrix`]; the oracle for
    /// [`StateVector::apply_2q`].
    fn oracle_apply_2q(amps: &mut [Complex64], u: &CMatrix, a: usize, b: usize) {
        let ma = 1usize << a;
        let mb = 1usize << b;
        for i in 0..amps.len() {
            if i & ma == 0 && i & mb == 0 {
                let idx = [i, i | mb, i | ma, i | ma | mb];
                let old = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
                for r in 0..4 {
                    let mut acc = Complex64::ZERO;
                    for c in 0..4 {
                        acc += u[(r, c)] * old[c];
                    }
                    amps[idx[r]] = acc;
                }
            }
        }
    }

    fn random_state(rng: &mut StdRng, n: usize) -> StateVector {
        let mut amps: Vec<Complex64> = (0..1usize << n)
            .map(|_| Complex64::new(rng.gen::<f64>() - 0.5, rng.gen::<f64>() - 0.5))
            .collect();
        let norm = amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt();
        for a in &mut amps {
            *a = Complex64::new(a.re / norm, a.im / norm);
        }
        StateVector::from_amplitudes(amps)
    }

    #[test]
    fn stack_kernels_match_cmatrix_oracle_bitwise() {
        let mut rng = StdRng::seed_from_u64(0x5eed);
        let n = 4;
        for kind in ALL_KINDS {
            for _ in 0..4 {
                let theta = (rng.gen::<f64>() - 0.5) * 4.0 * PI;
                for a in 0..n {
                    for b in 0..n {
                        if (kind.arity() == 1 && b > 0) || (kind.arity() == 2 && a == b) {
                            continue;
                        }
                        let gate = match kind.arity() {
                            1 => BoundGate::one(kind, a, theta),
                            _ => BoundGate::two(kind, a, b, theta),
                        };
                        let start = random_state(&mut rng, n);
                        let mut got = start.clone();
                        got.apply(&gate);
                        let mut want = start.amps;
                        match kind.arity() {
                            1 => oracle_apply_1q(&mut want, &gate.matrix(), a),
                            _ => oracle_apply_2q(&mut want, &gate.matrix(), a, b),
                        }
                        for (i, (x, y)) in got.amps.iter().zip(want.iter()).enumerate() {
                            assert!(
                                x.re.to_bits() == y.re.to_bits()
                                    && x.im.to_bits() == y.im.to_bits(),
                                "{kind}({theta}) on {:?}, amp {i}: {x:?} vs {y:?}",
                                gate.qubits()
                            );
                        }
                    }
                }
            }
        }
    }

    fn g1(kind: GateKind, q: usize, t: f64) -> BoundGate {
        BoundGate::one(kind, q, t)
    }

    #[test]
    fn zero_state_probabilities() {
        let sv = StateVector::zero_state(3);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-12);
        for q in 0..3 {
            assert!(sv.prob_one(q).abs() < 1e-12);
            assert!((sv.expect_z(q) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn x_flips_qubit() {
        let sv = run_circuit(2, &[g1(GateKind::X, 1, 0.0)]);
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
        assert!(sv.prob_one(0).abs() < 1e-12);
    }

    #[test]
    fn ry_rotates_bloch_vector() {
        let theta = 1.1;
        let sv = run_circuit(1, &[g1(GateKind::Ry, 0, theta)]);
        assert!((sv.expect_z(0) - theta.cos()).abs() < 1e-12);
    }

    #[test]
    fn bell_state_correlations() {
        let sv = run_circuit(
            2,
            &[
                g1(GateKind::H, 0, 0.0),
                BoundGate::two(GateKind::Cx, 0, 1, 0.0),
            ],
        );
        let probs = sv.probabilities();
        assert!((probs[0] - 0.5).abs() < 1e-12); // |00>
        assert!((probs[3] - 0.5).abs() < 1e-12); // |11>
        assert!(probs[1].abs() < 1e-12);
        assert!(probs[2].abs() < 1e-12);
    }

    #[test]
    fn cnot_control_ordering_matters() {
        // X on qubit 1, then CX with control=1, target=0 → both set.
        let sv = run_circuit(
            2,
            &[
                g1(GateKind::X, 1, 0.0),
                BoundGate::two(GateKind::Cx, 1, 0, 0.0),
            ],
        );
        assert!((sv.prob_one(0) - 1.0).abs() < 1e-12);
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn cry_only_rotates_when_control_set() {
        let theta = 0.8;
        let idle = run_circuit(2, &[BoundGate::two(GateKind::Cry, 0, 1, theta)]);
        assert!(idle.prob_one(1).abs() < 1e-12);

        let active = run_circuit(
            2,
            &[
                g1(GateKind::X, 0, 0.0),
                BoundGate::two(GateKind::Cry, 0, 1, theta),
            ],
        );
        assert!((active.expect_z(1) - theta.cos()).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_amplitudes() {
        let sv = run_circuit(
            2,
            &[
                g1(GateKind::X, 0, 0.0),
                BoundGate::two(GateKind::Swap, 0, 1, 0.0),
            ],
        );
        assert!(sv.prob_one(0).abs() < 1e-12);
        assert!((sv.prob_one(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn norm_preserved_over_long_circuit() {
        let mut sv = StateVector::zero_state(4);
        let gates = [
            g1(GateKind::H, 0, 0.0),
            g1(GateKind::Rx, 1, 0.3),
            BoundGate::two(GateKind::Cry, 0, 2, 1.2),
            g1(GateKind::Rz, 3, 2.2),
            BoundGate::two(GateKind::Cx, 2, 3, 0.0),
            g1(GateKind::T, 0, 0.0),
            BoundGate::two(GateKind::Crz, 3, 1, 0.4),
        ];
        sv.run(&gates);
        assert!((sv.norm_sqr() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn fidelity_of_identical_states_is_one() {
        let a = run_circuit(2, &[g1(GateKind::Ry, 0, 0.4), g1(GateKind::Rz, 1, 1.0)]);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn rz_changes_phase_not_populations() {
        let sv0 = run_circuit(1, &[g1(GateKind::H, 0, 0.0)]);
        let sv1 = run_circuit(1, &[g1(GateKind::H, 0, 0.0), g1(GateKind::Rz, 0, PI / 3.0)]);
        assert!((sv0.prob_one(0) - sv1.prob_one(0)).abs() < 1e-12);
        assert!(sv0.fidelity(&sv1) < 1.0 - 1e-6);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn prob_one_checks_range() {
        let sv = StateVector::zero_state(2);
        let _ = sv.prob_one(5);
    }

    #[test]
    #[should_panic(expected = "normalised")]
    fn from_amplitudes_rejects_unnormalised() {
        let _ = StateVector::from_amplitudes(vec![Complex64::ONE, Complex64::ONE]);
    }
}
