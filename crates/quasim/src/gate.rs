//! Quantum gate definitions and their unitary matrices.
//!
//! [`GateKind`] enumerates the gate alphabet used throughout the workspace:
//! the fixed Cliffords/phases that appear after transpilation, the
//! parameterised rotations that carry QNN weights, and the controlled
//! rotations from the paper's VQC block (`4RY + 4CRY + ...`).

use crate::math::{CMatrix, Complex64, M2, M4};
use std::sync::OnceLock;

/// The gate alphabet.
///
/// Parameterised kinds (`Rx`, `Ry`, `Rz`, `Crx`, `Cry`, `Crz`, `Phase`)
/// take one rotation angle; the rest are fixed.
///
/// # Examples
///
/// ```
/// use quasim::gate::GateKind;
///
/// assert_eq!(GateKind::Cry.arity(), 2);
/// assert!(GateKind::Ry.is_parameterised());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
    /// Hadamard.
    H,
    /// Phase gate S = diag(1, i).
    S,
    /// T gate = diag(1, e^{iπ/4}).
    T,
    /// Square root of X (√X), a common hardware basis gate.
    Sx,
    /// Rotation about X by θ.
    Rx,
    /// Rotation about Y by θ.
    Ry,
    /// Rotation about Z by θ.
    Rz,
    /// Phase rotation diag(1, e^{iθ}).
    Phase,
    /// Controlled-X (CNOT).
    Cx,
    /// Controlled-Z.
    Cz,
    /// Controlled rotation about X.
    Crx,
    /// Controlled rotation about Y.
    Cry,
    /// Controlled rotation about Z.
    Crz,
    /// Swap of two qubits.
    Swap,
}

impl GateKind {
    /// Number of qubits the gate acts on (1 or 2).
    pub fn arity(self) -> usize {
        match self {
            GateKind::X
            | GateKind::Y
            | GateKind::Z
            | GateKind::H
            | GateKind::S
            | GateKind::T
            | GateKind::Sx
            | GateKind::Rx
            | GateKind::Ry
            | GateKind::Rz
            | GateKind::Phase => 1,
            GateKind::Cx
            | GateKind::Cz
            | GateKind::Crx
            | GateKind::Cry
            | GateKind::Crz
            | GateKind::Swap => 2,
        }
    }

    /// Whether the gate takes a rotation angle.
    pub fn is_parameterised(self) -> bool {
        matches!(
            self,
            GateKind::Rx
                | GateKind::Ry
                | GateKind::Rz
                | GateKind::Phase
                | GateKind::Crx
                | GateKind::Cry
                | GateKind::Crz
        )
    }

    /// Short lowercase mnemonic (e.g. `"cry"`), matching common assembly
    /// formats.
    pub fn mnemonic(self) -> &'static str {
        match self {
            GateKind::X => "x",
            GateKind::Y => "y",
            GateKind::Z => "z",
            GateKind::H => "h",
            GateKind::S => "s",
            GateKind::T => "t",
            GateKind::Sx => "sx",
            GateKind::Rx => "rx",
            GateKind::Ry => "ry",
            GateKind::Rz => "rz",
            GateKind::Phase => "p",
            GateKind::Cx => "cx",
            GateKind::Cz => "cz",
            GateKind::Crx => "crx",
            GateKind::Cry => "cry",
            GateKind::Crz => "crz",
            GateKind::Swap => "swap",
        }
    }

    /// The unitary matrix of the gate.
    ///
    /// For parameterised kinds, `theta` supplies the rotation angle; it is
    /// ignored for fixed gates. Two-qubit matrices use the convention that
    /// the **first** qubit is the control and occupies the *most significant*
    /// bit of the 2-bit index (row/col index = `control*2 + target`).
    pub fn matrix(self, theta: f64) -> CMatrix {
        match self.arity() {
            1 => CMatrix::from_slice(2, &self.entries_1q(theta).expect("one-qubit kind")),
            _ => CMatrix::from_slice(4, &self.entries_2q(theta).expect("two-qubit kind")),
        }
    }

    /// The 2×2 unitary entries of a one-qubit kind, computed without heap
    /// allocation; `None` for two-qubit kinds. Bit-identical to
    /// [`GateKind::matrix`] (which is built on top of this).
    pub fn entries_1q(self, theta: f64) -> Option<M2> {
        let c = Complex64::real((theta / 2.0).cos());
        let s = (theta / 2.0).sin();
        let isin = Complex64::new(0.0, -s);
        let zero = Complex64::ZERO;
        let one = Complex64::ONE;
        Some(match self {
            GateKind::X => [zero, one, one, zero],
            GateKind::Y => [zero, Complex64::new(0.0, -1.0), Complex64::I, zero],
            GateKind::Z => [one, zero, zero, Complex64::real(-1.0)],
            GateKind::H => {
                let h = 1.0 / 2.0_f64.sqrt();
                [
                    Complex64::real(h),
                    Complex64::real(h),
                    Complex64::real(h),
                    Complex64::real(-h),
                ]
            }
            GateKind::S => [one, zero, zero, Complex64::I],
            GateKind::T => [one, zero, zero, Complex64::cis(std::f64::consts::FRAC_PI_4)],
            GateKind::Sx => {
                let a = Complex64::new(0.5, 0.5);
                let b = Complex64::new(0.5, -0.5);
                [a, b, b, a]
            }
            GateKind::Rx => [c, isin, isin, c],
            GateKind::Ry => [c, Complex64::real(-s), Complex64::real(s), c],
            GateKind::Rz => [
                Complex64::cis(-theta / 2.0),
                zero,
                zero,
                Complex64::cis(theta / 2.0),
            ],
            GateKind::Phase => [one, zero, zero, Complex64::cis(theta)],
            _ => return None,
        })
    }

    /// The 4×4 unitary entries of a two-qubit kind, computed without heap
    /// allocation; `None` for one-qubit kinds. Bit-identical to
    /// [`GateKind::matrix`] (which is built on top of this).
    pub fn entries_2q(self, theta: f64) -> Option<M4> {
        let z = Complex64::ZERO;
        let o = Complex64::ONE;
        Some(match self {
            GateKind::Cx => [
                o, z, z, z, //
                z, o, z, z, //
                z, z, z, o, //
                z, z, o, z,
            ],
            GateKind::Cz => [
                o,
                z,
                z,
                z, //
                z,
                o,
                z,
                z, //
                z,
                z,
                o,
                z, //
                z,
                z,
                z,
                Complex64::real(-1.0),
            ],
            GateKind::Crx | GateKind::Cry | GateKind::Crz => {
                let base = match self {
                    GateKind::Crx => GateKind::Rx,
                    GateKind::Cry => GateKind::Ry,
                    _ => GateKind::Rz,
                }
                .entries_1q(theta)
                .expect("rotation kinds are one-qubit");
                let mut m = [z; 16];
                for i in 0..4 {
                    m[i * 4 + i] = o;
                }
                for i in 0..2 {
                    for j in 0..2 {
                        m[(2 + i) * 4 + (2 + j)] = base[i * 2 + j];
                    }
                }
                m
            }
            GateKind::Swap => [
                o, z, z, z, //
                z, z, o, z, //
                z, o, z, z, //
                z, z, z, o,
            ],
            _ => return None,
        })
    }

    /// Prebound 2×2 entries of the non-parameterised one-qubit kinds,
    /// computed **once per process** and cached. `None` for parameterised
    /// or two-qubit kinds.
    ///
    /// The fusion pass uses this so fixed gates (notably the `H` wraps of
    /// `CRX` decompositions) are bound once instead of re-derived for every
    /// sample's circuit.
    pub fn fixed_entries_1q(self) -> Option<&'static M2> {
        const KINDS: [GateKind; 7] = [
            GateKind::X,
            GateKind::Y,
            GateKind::Z,
            GateKind::H,
            GateKind::S,
            GateKind::T,
            GateKind::Sx,
        ];
        static CACHE: OnceLock<[M2; 7]> = OnceLock::new();
        let idx = KINDS.iter().position(|&k| k == self)?;
        let cache = CACHE.get_or_init(|| KINDS.map(|k| k.entries_1q(0.0).expect("fixed 1q kind")));
        Some(&cache[idx])
    }
}

impl std::fmt::Display for GateKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.mnemonic())
    }
}

/// A gate applied to specific qubits with a concrete angle.
///
/// This is the *bound* form consumed by the simulators; symbolic/trainable
/// parameters live in the `transpile` crate's circuit IR.
///
/// # Examples
///
/// ```
/// use quasim::gate::{BoundGate, GateKind};
///
/// let g = BoundGate::two(GateKind::Cry, 0, 1, 0.5);
/// assert_eq!(g.qubits(), &[0, 1]);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct BoundGate {
    kind: GateKind,
    /// Operands stored inline (no heap allocation per bound gate); only the
    /// first `kind.arity()` are meaningful, and the unused slot of a
    /// one-qubit gate is always 0 so derived equality stays exact.
    qubits: [usize; 2],
    theta: f64,
}

impl BoundGate {
    /// Creates a one-qubit bound gate.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a two-qubit gate.
    pub fn one(kind: GateKind, qubit: usize, theta: f64) -> Self {
        assert_eq!(kind.arity(), 1, "{kind} is not a one-qubit gate");
        BoundGate {
            kind,
            qubits: [qubit, 0],
            theta,
        }
    }

    /// Creates a two-qubit bound gate. For controlled gates `a` is the
    /// control and `b` the target.
    ///
    /// # Panics
    ///
    /// Panics if `kind` is a one-qubit gate or if `a == b`.
    pub fn two(kind: GateKind, a: usize, b: usize, theta: f64) -> Self {
        assert_eq!(kind.arity(), 2, "{kind} is not a two-qubit gate");
        assert_ne!(a, b, "two-qubit gate requires distinct qubits");
        BoundGate {
            kind,
            qubits: [a, b],
            theta,
        }
    }

    /// The gate kind.
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Target qubit indices (control first for controlled gates).
    pub fn qubits(&self) -> &[usize] {
        &self.qubits[..self.kind.arity()]
    }

    /// The bound rotation angle (0 for fixed gates).
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// The unitary matrix of this bound gate.
    pub fn matrix(&self) -> CMatrix {
        self.kind.matrix(self.theta)
    }

    /// The unitary entries of this bound gate, computed on the stack
    /// (bit-identical to [`BoundGate::matrix`]).
    pub fn entries(&self) -> GateEntries {
        match self.kind.arity() {
            1 => GateEntries::One(self.kind.entries_1q(self.theta).expect("one-qubit kind")),
            _ => GateEntries::Two(self.kind.entries_2q(self.theta).expect("two-qubit kind")),
        }
    }
}

/// A gate's unitary entries bound on the stack, row-major — what
/// [`crate::statevector::StateVector`] applies. Binding once and applying
/// many times skips the trig and the heap allocation of
/// [`BoundGate::matrix`] on every application.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum GateEntries {
    /// A one-qubit gate's 2×2 entries.
    One(M2),
    /// A two-qubit gate's 4×4 entries (control on the most significant
    /// local bit).
    Two(M4),
}

/// Every gate kind, for exhaustive tests.
#[cfg(test)]
pub(crate) const ALL_KINDS: [GateKind; 17] = [
    GateKind::X,
    GateKind::Y,
    GateKind::Z,
    GateKind::H,
    GateKind::S,
    GateKind::T,
    GateKind::Sx,
    GateKind::Rx,
    GateKind::Ry,
    GateKind::Rz,
    GateKind::Phase,
    GateKind::Cx,
    GateKind::Cz,
    GateKind::Crx,
    GateKind::Cry,
    GateKind::Crz,
    GateKind::Swap,
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    #[test]
    fn all_gates_are_unitary() {
        for kind in ALL_KINDS {
            for &theta in &[0.0, 0.3, PI / 2.0, PI, 4.2] {
                assert!(
                    kind.matrix(theta).is_unitary(1e-12),
                    "{kind} not unitary at theta={theta}"
                );
            }
        }
    }

    #[test]
    fn rotation_at_zero_is_identity() {
        for kind in [GateKind::Rx, GateKind::Ry, GateKind::Rz, GateKind::Phase] {
            let m = kind.matrix(0.0);
            assert!(
                m.max_abs_diff(&CMatrix::identity(2)) < 1e-12,
                "{kind}(0) should be identity"
            );
        }
        for kind in [GateKind::Crx, GateKind::Cry, GateKind::Crz] {
            let m = kind.matrix(0.0);
            assert!(
                m.max_abs_diff(&CMatrix::identity(4)) < 1e-12,
                "{kind}(0) should be identity"
            );
        }
    }

    #[test]
    fn rx_pi_is_minus_i_x() {
        let rx = GateKind::Rx.matrix(PI);
        let minus_ix = GateKind::X.matrix(0.0).scaled(Complex64::new(0.0, -1.0));
        assert!(rx.max_abs_diff(&minus_ix) < 1e-12);
    }

    #[test]
    fn sx_squared_is_x() {
        let sx = GateKind::Sx.matrix(0.0);
        let x = GateKind::X.matrix(0.0);
        assert!(sx.matmul(&sx).max_abs_diff(&x) < 1e-12);
    }

    #[test]
    fn cnot_flips_target_when_control_set() {
        let cx = GateKind::Cx.matrix(0.0);
        // |10> -> |11>: column 2 should have a 1 in row 3.
        assert!(cx[(3, 2)].approx_eq(Complex64::ONE, 1e-12));
        assert!(cx[(2, 3)].approx_eq(Complex64::ONE, 1e-12));
        // |0x> untouched.
        assert!(cx[(0, 0)].approx_eq(Complex64::ONE, 1e-12));
        assert!(cx[(1, 1)].approx_eq(Complex64::ONE, 1e-12));
    }

    #[test]
    fn controlled_rotation_acts_only_on_control_one_block() {
        let cry = GateKind::Cry.matrix(0.7);
        assert!(cry[(0, 0)].approx_eq(Complex64::ONE, 1e-12));
        assert!(cry[(1, 1)].approx_eq(Complex64::ONE, 1e-12));
        assert!(cry[(0, 1)].approx_eq(Complex64::ZERO, 1e-12));
        let ry = GateKind::Ry.matrix(0.7);
        assert!(cry[(2, 2)].approx_eq(ry[(0, 0)], 1e-12));
        assert!(cry[(3, 2)].approx_eq(ry[(1, 0)], 1e-12));
    }

    #[test]
    fn arity_matches_matrix_dim() {
        for kind in ALL_KINDS {
            let dim = kind.matrix(0.1).dim();
            assert_eq!(dim, 1 << kind.arity());
        }
    }

    #[test]
    #[should_panic(expected = "distinct qubits")]
    fn bound_two_qubit_gate_rejects_equal_qubits() {
        let _ = BoundGate::two(GateKind::Cx, 1, 1, 0.0);
    }

    #[test]
    #[should_panic(expected = "not a one-qubit gate")]
    fn bound_one_rejects_two_qubit_kind() {
        let _ = BoundGate::one(GateKind::Cx, 0, 0.0);
    }
}
