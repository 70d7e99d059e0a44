//! Exact (noise-free) state-vector simulation.
//!
//! Basis convention: for an `n`-qubit register, computational basis state
//! `|b⟩` is indexed by the integer `b` whose **bit `q` is the value of qubit
//! `q`** (qubit 0 = least significant bit). Two-qubit gates use the local
//! index `control*2 + target`, matching [`crate::gate::GateKind::matrix`].
//!
//! # Lanes
//!
//! Every kernel is generic over a lane count `B` ∈ {1, 2, 4}. A
//! [`StatePanel`] holds `B` state vectors over one register, each
//! amplitude stored as its `B` lanes' real parts and their imaginary
//! parts (`[f64; B]` arrays, the lane layout of the density kernels), so
//! one walk over the register evolves every lane and the lane arithmetic
//! fills SIMD registers. A [`LaneGate`] holds one gate's entries per
//! lane: the lanes may carry different matrices (the data-encoding gates
//! of different samples) or one shared matrix (gates bound from shared
//! weights). [`StatePanel::run`] applies a whole gate slice per call and
//! picks the compilation once per call: an AVX2 copy of the same code
//! through [`KernelMode::detect`] (`QUCAD_FORCE_SCALAR` pins the plain
//! one). Width 1 over plain [`Complex64`] storage is [`StateVector`]:
//! [`StateVector::apply_1q`] and [`StateVector::apply_2q`] are the
//! general kernels at `B = 1`, so each expression exists once.
//!
//! # Gate classes
//!
//! A [`LaneGate`] is classified once, when it is built ([`GateClass`]):
//! general or diagonal for one qubit; general, controlled (the block
//! with the control clear is the identity) or controlled-diagonal for
//! two. The specialised kernels skip the terms whose matrix entry is
//! exactly zero: a diagonal gate costs one complex multiply per
//! amplitude instead of two and an add, and a controlled gate leaves the
//! half of the register with its control clear untouched and acts as a
//! 2×2 on the other half instead of a dense 4×4 on all of it. A lane
//! group takes a specialised class only when every lane's matrix has it.
//!
//! # Bit-identity
//!
//! Lane `k` of every lane operation is the scalar IEEE-754 operation
//! [`Complex64`]'s arithmetic performs on lane `k`'s operands, in the
//! same association and operand order (no FMA, no cross-lane
//! arithmetic), so a lane of a general kernel computes the bits of a
//! width-1 run of its own gate. A specialised kernel drops terms that are
//! a finite amplitude times an exactly-zero entry — signed zeros — and
//! products with an exact one: adding `±0` to `x` returns `x`, except
//! that a zero `x` may change sign. Amplitudes therefore differ from the
//! dense expression only in the sign of zeros, and the difference stays
//! a sign of zero through every later product and sum. Probabilities
//! square it away, so [`StatePanel::expect_z`] is bitwise equal to
//! [`StateVector::expect_z`] of the dense run — the argument
//! `quasim::density::kernels` makes for [`crate::fused::MatClass`].

use crate::config::KernelMode;
use crate::density::kernels::{insert_zero_bit, CLane, Lanes16, Lanes4};
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
        check_register(n_qubits);
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

    /// Applies a 2×2 unitary (row-major entries) to qubit `q`: the
    /// general one-qubit lane kernel at width 1.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, u: &M2, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        general_1q(&mut self.amps[..], q, &u.map(CLane::from));
    }

    /// Applies a 4×4 unitary (row-major entries) to qubits `(a, b)` where
    /// `a` maps to the most significant local bit (control position for
    /// controlled gates): the general two-qubit lane kernel at width 1.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn apply_2q(&mut self, u: &M4, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        assert_ne!(a, b, "qubits must be distinct");
        general_2q(&mut self.amps[..], a, b, &u.map(CLane::from));
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
        let [p] = prob_one_lanes(&self.amps[..], q);
        p
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

fn check_register(n_qubits: usize) {
    assert!((1..=24).contains(&n_qubits), "unsupported qubit count");
}

/// Which kernel applies a [`LaneGate`] (see the [module docs](self)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateClass {
    /// A dense 2×2.
    General1,
    /// A 2×2 whose off-diagonal entries are exactly zero (`RZ`, phases,
    /// `Z`, and rotations at angles that zero their sine).
    Diagonal1,
    /// A dense 4×4.
    General2,
    /// A 4×4 that is the identity while the control (first qubit) is
    /// clear: a 2×2 on the target where it is set (`CX`, `CRX`, `CRY`).
    Controlled,
    /// A controlled gate whose 2×2 is diagonal (`CZ`, `CRZ`).
    ControlledDiagonal,
}

/// One gate bound for the `B` lanes of a [`StatePanel`] and classified
/// once ([`GateClass`]). Lane `k` applies the entries given for lane `k`.
///
/// # Examples
///
/// ```
/// use quasim::gate::{BoundGate, GateKind};
/// use quasim::statevector::{GateClass, LaneGate};
///
/// let rz = BoundGate::one(GateKind::Rz, 0, 0.3).entries();
/// let rx = BoundGate::one(GateKind::Rx, 0, 0.3).entries();
/// assert_eq!(LaneGate::<2>::new(&[0], &[rz, rz]).class(), GateClass::Diagonal1);
/// // Lanes that classify differently take the general kernel.
/// assert_eq!(LaneGate::<2>::new(&[0], &[rz, rx]).class(), GateClass::General1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct LaneGate<const B: usize> {
    kernel: Kernel<B>,
}

/// A classified gate's qubits and the lane entries its kernel reads.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kernel<const B: usize> {
    General1 {
        q: usize,
        u: Lanes4<B>,
    },
    Diagonal1 {
        q: usize,
        d: [CLane<B>; 2],
    },
    General2 {
        a: usize,
        b: usize,
        u: Lanes16<B>,
    },
    Controlled {
        c: usize,
        t: usize,
        u: Lanes4<B>,
    },
    ControlledDiagonal {
        c: usize,
        t: usize,
        d: [CLane<B>; 2],
    },
}

/// Entries of a 4×4 that are zero in a controlled gate (control = the
/// most significant local bit): everything outside `diag(1, 1)` and the
/// lower-right 2×2.
const CONTROLLED_ZEROS: [usize; 10] = [1, 2, 3, 4, 6, 7, 8, 9, 12, 13];

impl<const B: usize> LaneGate<B> {
    /// Binds `lanes[k]` to lane `k` on `qubits` (control first for
    /// two-qubit entries) and classifies the group.
    ///
    /// # Panics
    ///
    /// Panics if the lanes mix one- and two-qubit entries, `qubits` is
    /// shorter than their arity, or two-qubit operands coincide.
    pub fn new(qubits: &[usize], lanes: &[GateEntries; B]) -> Self {
        let zero = |z: &Complex64| *z == Complex64::ZERO;
        let kernel = match lanes[0] {
            GateEntries::One(_) => {
                let ms = lanes.map(|e| match e {
                    GateEntries::One(m) => m,
                    GateEntries::Two(_) => panic!("lanes mix one- and two-qubit entries"),
                });
                let lane = |e: usize| CLane::gather(|k| ms[k][e]);
                let q = qubits[0];
                if ms.iter().all(|m| zero(&m[1]) && zero(&m[2])) {
                    Kernel::Diagonal1 {
                        q,
                        d: [lane(0), lane(3)],
                    }
                } else {
                    Kernel::General1 {
                        q,
                        u: std::array::from_fn(lane),
                    }
                }
            }
            GateEntries::Two(_) => {
                let ms = lanes.map(|e| match e {
                    GateEntries::Two(m) => m,
                    GateEntries::One(_) => panic!("lanes mix one- and two-qubit entries"),
                });
                let lane = |e: usize| CLane::gather(|k| ms[k][e]);
                let (a, b) = (qubits[0], qubits[1]);
                assert_ne!(a, b, "qubits must be distinct");
                let controlled = ms.iter().all(|m| {
                    m[0] == Complex64::ONE
                        && m[5] == Complex64::ONE
                        && CONTROLLED_ZEROS.iter().all(|&e| zero(&m[e]))
                });
                if !controlled {
                    Kernel::General2 {
                        a,
                        b,
                        u: std::array::from_fn(lane),
                    }
                } else if ms.iter().all(|m| zero(&m[11]) && zero(&m[14])) {
                    Kernel::ControlledDiagonal {
                        c: a,
                        t: b,
                        d: [lane(10), lane(15)],
                    }
                } else {
                    Kernel::Controlled {
                        c: a,
                        t: b,
                        u: [10, 11, 14, 15].map(lane),
                    }
                }
            }
        };
        LaneGate { kernel }
    }

    /// One gate whose entries every lane shares (a gate bound from
    /// shared weights).
    pub fn shared(qubits: &[usize], entries: &GateEntries) -> Self {
        Self::new(qubits, &[*entries; B])
    }

    /// The kernel class this gate was given.
    pub fn class(&self) -> GateClass {
        match self.kernel {
            Kernel::General1 { .. } => GateClass::General1,
            Kernel::Diagonal1 { .. } => GateClass::Diagonal1,
            Kernel::General2 { .. } => GateClass::General2,
            Kernel::Controlled { .. } => GateClass::Controlled,
            Kernel::ControlledDiagonal { .. } => GateClass::ControlledDiagonal,
        }
    }

    /// The highest qubit the gate touches.
    fn top_qubit(&self) -> usize {
        match self.kernel {
            Kernel::General1 { q, .. } | Kernel::Diagonal1 { q, .. } => q,
            Kernel::General2 { a, b, .. } => a.max(b),
            Kernel::Controlled { c, t, .. } | Kernel::ControlledDiagonal { c, t, .. } => c.max(t),
        }
    }
}

/// `B` pure states over one register, evolved in lockstep as SIMD lanes
/// (see the [module docs](self)): lane `k` evolves under lane `k` of
/// every gate, and its [`expect_z`](Self::expect_z) is bitwise equal to
/// a [`StateVector`] run of lane `k`'s gates alone.
///
/// # Examples
///
/// ```
/// use quasim::gate::{BoundGate, GateKind};
/// use quasim::statevector::{run_circuit, LaneGate, StatePanel};
///
/// let ry = |t: f64| BoundGate::one(GateKind::Ry, 0, t);
/// let mut panel = StatePanel::<2>::zero_state(1);
/// panel.run(&[LaneGate::new(&[0], &[ry(0.4).entries(), ry(1.1).entries()])]);
/// let z = panel.expect_z(0);
/// assert_eq!(z[1].to_bits(), run_circuit(1, &[ry(1.1)]).expect_z(0).to_bits());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct StatePanel<const B: usize> {
    n_qubits: usize,
    amps: Vec<CLane<B>>,
    kernel: KernelMode,
}

impl<const B: usize> StatePanel<B> {
    /// `|0…0⟩` in every lane, on the detected kernel compilation
    /// ([`KernelMode::detect`]).
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits == 0` or `n_qubits > 24`.
    pub fn zero_state(n_qubits: usize) -> Self {
        check_register(n_qubits);
        let mut panel = StatePanel {
            n_qubits,
            amps: vec![CLane::ZERO; 1 << n_qubits],
            kernel: KernelMode::detect(),
        };
        panel.reset();
        panel
    }

    /// Resets every lane to `|0…0⟩`.
    pub fn reset(&mut self) {
        self.amps.fill(CLane::ZERO);
        self.amps[0] = CLane::ONE;
    }

    /// Overwrites this panel's amplitudes with `other`'s, reusing the
    /// buffer.
    ///
    /// # Panics
    ///
    /// Panics if the registers differ in size.
    pub fn copy_from(&mut self, other: &StatePanel<B>) {
        assert_eq!(self.n_qubits, other.n_qubits, "qubit counts must match");
        self.amps.copy_from_slice(&other.amps);
    }

    /// Overrides the kernel compilation ([`KernelMode::detect`] by
    /// default) — the bit-identity tests run both.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`KernelMode::Avx2`] on a host without AVX2.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.kernel = mode.checked();
    }

    /// Applies `gates` in order, dispatching the kernel compilation once
    /// for the whole slice.
    ///
    /// # Panics
    ///
    /// Panics if a gate touches a qubit outside the register.
    pub fn run(&mut self, gates: &[LaneGate<B>]) {
        for g in gates {
            assert!(g.top_qubit() < self.n_qubits, "qubit out of range");
        }
        let amps = &mut self.amps[..];
        self.kernel.run(
            #[inline(always)]
            || run_gates(amps, gates),
        );
    }

    /// Per lane, `⟨Z_q⟩ = P(0) − P(1)`, bitwise equal to
    /// [`StateVector::expect_z`] on that lane's state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn expect_z(&self, q: usize) -> [f64; B] {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        prob_one_lanes(&self.amps[..], q).map(|p| 1.0 - 2.0 * p)
    }
}

/// An amplitude slot read and written as `B` lanes: a plain
/// [`Complex64`] at width 1 (the [`StateVector`] layout), a `CLane<B>`
/// in a [`StatePanel`].
trait LaneAmp<const B: usize>: Copy {
    fn load(self) -> CLane<B>;
    fn store(v: CLane<B>) -> Self;
}

impl LaneAmp<1> for Complex64 {
    #[inline(always)]
    fn load(self) -> CLane<1> {
        CLane::from(self)
    }
    #[inline(always)]
    fn store(v: CLane<1>) -> Self {
        v.lane(0)
    }
}

impl<const B: usize> LaneAmp<B> for CLane<B> {
    #[inline(always)]
    fn load(self) -> CLane<B> {
        self
    }
    #[inline(always)]
    fn store(v: CLane<B>) -> Self {
        v
    }
}

/// Applies every gate in order. Everything below it is forced inline
/// (the pair closures included), so the AVX2 copy compiles the lane
/// arithmetic with AVX2.
#[inline(always)]
fn run_gates<const B: usize, T: LaneAmp<B>>(amps: &mut [T], gates: &[LaneGate<B>]) {
    for g in gates {
        match &g.kernel {
            Kernel::General1 { q, u } => general_1q(amps, *q, u),
            Kernel::Diagonal1 { q, d } => {
                let [d0, d1] = *d;
                pairs(
                    amps,
                    *q,
                    #[inline(always)]
                    |a0, a1| (d0 * a0, d1 * a1),
                );
            }
            Kernel::General2 { a, b, u } => general_2q(amps, *a, *b, u),
            Kernel::Controlled { c, t, u } => {
                controlled_pairs(
                    amps,
                    *c,
                    *t,
                    #[inline(always)]
                    |a0, a1| mat2(u, a0, a1),
                );
            }
            Kernel::ControlledDiagonal { c, t, d } => {
                let [d0, d1] = *d;
                controlled_pairs(
                    amps,
                    *c,
                    *t,
                    #[inline(always)]
                    |a0, a1| (d0 * a0, d1 * a1),
                );
            }
        }
    }
}

/// The dense 2×2 product `u · (a0, a1)`.
#[inline(always)]
fn mat2<const B: usize>(u: &Lanes4<B>, a0: CLane<B>, a1: CLane<B>) -> (CLane<B>, CLane<B>) {
    let [u00, u01, u10, u11] = *u;
    (u00 * a0 + u01 * a1, u10 * a0 + u11 * a1)
}

/// The general one-qubit kernel.
#[inline(always)]
fn general_1q<const B: usize, T: LaneAmp<B>>(amps: &mut [T], q: usize, u: &Lanes4<B>) {
    pairs(
        amps,
        q,
        #[inline(always)]
        |a0, a1| mat2(u, a0, a1),
    );
}

/// Replaces every amplitude pair `(x0, x1)` that differs only in bit `q`
/// (bit clear first) with `f(x0, x1)`.
#[inline(always)]
fn pairs<const B: usize, T: LaneAmp<B>>(
    amps: &mut [T],
    q: usize,
    f: impl Fn(CLane<B>, CLane<B>) -> (CLane<B>, CLane<B>),
) {
    let mask = 1usize << q;
    // One flat walk over the indices with bit `q` clear: registers are
    // small, so nested block loops would cost more in set-up than in
    // arithmetic.
    for k in 0..amps.len() >> 1 {
        let i0 = insert_zero_bit(k, mask);
        let i1 = i0 | mask;
        let (y0, y1) = f(amps[i0].load(), amps[i1].load());
        amps[i0] = T::store(y0);
        amps[i1] = T::store(y1);
    }
}

/// [`pairs`] along bit `t`, restricted to the amplitudes with bit `c`
/// set; the half with `c` clear is not touched.
#[inline(always)]
fn controlled_pairs<const B: usize, T: LaneAmp<B>>(
    amps: &mut [T],
    c: usize,
    t: usize,
    f: impl Fn(CLane<B>, CLane<B>) -> (CLane<B>, CLane<B>),
) {
    let (mc, mt) = (1usize << c, 1usize << t);
    let (lo, hi) = (mc.min(mt), mc.max(mt));
    for k in 0..amps.len() >> 2 {
        let i0 = insert_zero_bit(insert_zero_bit(k, lo), hi) | mc;
        let i1 = i0 | mt;
        let (y0, y1) = f(amps[i0].load(), amps[i1].load());
        amps[i0] = T::store(y0);
        amps[i1] = T::store(y1);
    }
}

/// The general two-qubit kernel: `u` (local index `2·bit_a + bit_b`)
/// applied to every quartet, each row summed from zero in column order.
#[inline(always)]
fn general_2q<const B: usize, T: LaneAmp<B>>(amps: &mut [T], a: usize, b: usize, u: &Lanes16<B>) {
    let (ma, mb) = (1usize << a, 1usize << b);
    let (lo, hi) = (ma.min(mb), ma.max(mb));
    // Enumerate exactly the indices with bits `a` and `b` clear by
    // inserting two zero bits into a quarter-size counter.
    for k in 0..amps.len() >> 2 {
        let i = insert_zero_bit(insert_zero_bit(k, lo), hi);
        let idx = [i, i | mb, i | ma, i | ma | mb];
        let old = idx.map(|j| amps[j].load());
        for (r, &j) in idx.iter().enumerate() {
            let mut acc = CLane::ZERO;
            for (c, &x) in old.iter().enumerate() {
                acc += u[r * 4 + c] * x;
            }
            amps[j] = T::store(acc);
        }
    }
}

/// Per lane, the probability that qubit `q` reads 1: `|a|²` summed over
/// the amplitudes with bit `q` set, in index order.
#[inline(always)]
fn prob_one_lanes<const B: usize, T: LaneAmp<B>>(amps: &[T], q: usize) -> [f64; B] {
    let mask = 1usize << q;
    let mut p = [0.0; B];
    for (_, a) in amps.iter().enumerate().filter(|(i, _)| i & mask != 0) {
        let a = a.load();
        for (k, p) in p.iter_mut().enumerate() {
            *p += a.re[k] * a.re[k] + a.im[k] * a.im[k];
        }
    }
    p
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::KernelMode;
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

    /// Angles at which rotation entries become exact zeros and ones: the
    /// half-angle's sine or cosine vanishes.
    const EXACT_ANGLES: [f64; 5] = [0.0, PI, -PI, 2.0 * PI, 4.0 * PI];

    fn kernel_modes() -> Vec<KernelMode> {
        let mut modes = vec![KernelMode::Scalar];
        if KernelMode::avx2_supported() {
            modes.push(KernelMode::Avx2);
        }
        modes
    }

    fn bound(kind: GateKind, qubits: &[usize], theta: f64) -> BoundGate {
        match *qubits {
            [q] => BoundGate::one(kind, q, theta),
            [a, b] => BoundGate::two(kind, a, b, theta),
            _ => unreachable!("one or two qubits"),
        }
    }

    /// A `B`-lane panel holding `states[k]` in lane `k`.
    fn panel_of<const B: usize>(states: &[StateVector; B], mode: KernelMode) -> StatePanel<B> {
        let mut panel = StatePanel::<B>::zero_state(states[0].n_qubits());
        panel.set_kernel_mode(mode);
        for (i, slot) in panel.amps.iter_mut().enumerate() {
            *slot = CLane::gather(|k| states[k].amps[i]);
        }
        panel
    }

    /// Applies `kind` on `qubits` at angle `thetas[k]` to lane `k` of a
    /// panel of random states and checks every lane: `expect_z` bitwise
    /// against a width-1 [`StateVector`] run, amplitudes against the
    /// [`CMatrix`] oracle up to the sign of zero. Returns the class the
    /// lane group was given.
    fn check_lane_gate<const B: usize>(
        rng: &mut StdRng,
        kind: GateKind,
        qubits: &[usize],
        thetas: [f64; B],
        mode: KernelMode,
    ) -> GateClass {
        let n = 4;
        let starts: [StateVector; B] = std::array::from_fn(|_| random_state(rng, n));
        let gates = thetas.map(|t| bound(kind, qubits, t));
        let lane_gate = LaneGate::new(qubits, &gates.each_ref().map(BoundGate::entries));
        let mut panel = panel_of(&starts, mode);
        panel.run(std::slice::from_ref(&lane_gate));
        for k in 0..B {
            let what = format!(
                "{kind}({}) on {qubits:?}, lane {k}/{B}, {mode:?}",
                thetas[k]
            );
            let mut want = starts[k].clone();
            want.apply(&gates[k]);
            for q in 0..n {
                let got = panel.expect_z(q)[k];
                assert_eq!(
                    got.to_bits(),
                    want.expect_z(q).to_bits(),
                    "{what}: <Z_{q}> {got} vs {}",
                    want.expect_z(q)
                );
            }
            let mut oracle = starts[k].amps.clone();
            match *qubits {
                [q] => oracle_apply_1q(&mut oracle, &gates[k].matrix(), q),
                [a, b] => oracle_apply_2q(&mut oracle, &gates[k].matrix(), a, b),
                _ => unreachable!("one or two qubits"),
            }
            let lane = panel.amps.iter().map(|a| a.lane(k));
            for (i, (x, y)) in lane.zip(oracle.iter()).enumerate() {
                // `==` identifies +0 and −0 and nothing else here (no NaN).
                assert!(
                    x.re == y.re && x.im == y.im,
                    "{what}, amp {i}: {x:?} vs {y:?}"
                );
            }
        }
        lane_gate.class()
    }

    /// Every gate kind on every placement at random and exact angles,
    /// lanes sharing an angle or each taking its own (one exact, the rest
    /// random: lanes that classify differently).
    fn lane_kernels_match_oracles<const B: usize>(rng: &mut StdRng, mode: KernelMode) {
        let n = 4;
        for kind in ALL_KINDS {
            let placements: Vec<Vec<usize>> = match kind.arity() {
                1 => (0..n).map(|q| vec![q]).collect(),
                _ => (0..n)
                    .flat_map(|a| (0..n).filter(move |&b| b != a).map(move |b| vec![a, b]))
                    .collect(),
            };
            for qubits in &placements {
                let mut angle_sets: Vec<[f64; B]> = (0..3)
                    .map(|_| std::array::from_fn(|_| (rng.gen::<f64>() - 0.5) * 4.0 * PI))
                    .collect();
                for exact in EXACT_ANGLES {
                    angle_sets.push([exact; B]);
                    // One exact lane first or last, the rest random.
                    for lane in [0, B - 1] {
                        let mut mixed: [f64; B] =
                            std::array::from_fn(|_| (rng.gen::<f64>() - 0.5) * 4.0 * PI);
                        mixed[lane] = exact;
                        angle_sets.push(mixed);
                    }
                }
                for thetas in angle_sets {
                    check_lane_gate(rng, kind, qubits, thetas, mode);
                }
            }
        }
    }

    #[test]
    fn lane_kernels_match_statevector_and_cmatrix_oracle() {
        let mut rng = StdRng::seed_from_u64(0x1a4e);
        for mode in kernel_modes() {
            lane_kernels_match_oracles::<1>(&mut rng, mode);
            lane_kernels_match_oracles::<2>(&mut rng, mode);
            lane_kernels_match_oracles::<4>(&mut rng, mode);
        }
    }

    #[test]
    fn lane_groups_take_the_class_every_lane_has() {
        let mut rng = StdRng::seed_from_u64(0xc1a5);
        let mode = KernelMode::Scalar;
        let class = |rng: &mut StdRng, kind, qubits: &[usize], thetas: [f64; 2]| {
            check_lane_gate(rng, kind, qubits, thetas, mode)
        };
        use GateClass::*;
        assert_eq!(class(&mut rng, GateKind::H, &[1], [0.0; 2]), General1);
        assert_eq!(class(&mut rng, GateKind::Rz, &[1], [0.3, 2.0]), Diagonal1);
        assert_eq!(class(&mut rng, GateKind::Rx, &[1], [0.0, 0.0]), Diagonal1);
        // RX(0) is diagonal, RX(0.7) is not: the group is general.
        assert_eq!(class(&mut rng, GateKind::Rx, &[1], [0.0, 0.7]), General1);
        assert_eq!(
            class(&mut rng, GateKind::Ry, &[2], [0.7, 2.0 * PI]),
            General1
        );
        assert_eq!(class(&mut rng, GateKind::Swap, &[0, 3], [0.0; 2]), General2);
        assert_eq!(class(&mut rng, GateKind::Cx, &[3, 0], [0.0; 2]), Controlled);
        assert_eq!(
            class(&mut rng, GateKind::Cry, &[0, 2], [0.4, 1.3]),
            Controlled
        );
        assert_eq!(
            class(&mut rng, GateKind::Cz, &[2, 1], [0.0; 2]),
            ControlledDiagonal
        );
        assert_eq!(
            class(&mut rng, GateKind::Crz, &[1, 2], [0.4, 1.3]),
            ControlledDiagonal
        );
        assert_eq!(
            class(&mut rng, GateKind::Crx, &[1, 0], [0.0, 0.0]),
            ControlledDiagonal
        );
        assert_eq!(
            class(&mut rng, GateKind::Crx, &[1, 0], [0.0, 0.5]),
            Controlled
        );

        // Lanes of different kinds: the weakest class all of them have.
        let entries = |kind, t| BoundGate::two(kind, 0, 1, t).entries();
        let mixed = |a, b| LaneGate::<2>::new(&[0, 1], &[a, b]).class();
        let crz = entries(GateKind::Crz, 0.3);
        assert_eq!(mixed(crz, entries(GateKind::Cry, 0.3)), Controlled);
        assert_eq!(mixed(crz, entries(GateKind::Cz, 0.0)), ControlledDiagonal);
        assert_eq!(mixed(crz, entries(GateKind::Swap, 0.0)), General2);
    }

    /// A circuit whose "encoder" gates differ per lane and whose other
    /// gates are shared, run as one slice: each lane's `expect_z` equals
    /// a [`StateVector`] run of its own gates.
    fn panel_circuit_matches_per_lane_runs<const B: usize>(rng: &mut StdRng, mode: KernelMode) {
        let n = 4;
        let kinds = [
            GateKind::Ry,
            GateKind::Rz,
            GateKind::Rx,
            GateKind::H,
            GateKind::Cry,
            GateKind::Crz,
            GateKind::Crx,
            GateKind::Cx,
            GateKind::Cz,
            GateKind::Swap,
        ];
        let mut lanes: [Vec<BoundGate>; B] = std::array::from_fn(|_| Vec::new());
        let mut gates = Vec::new();
        for step in 0..40 {
            let kind = kinds[rng.gen_range(0..kinds.len())];
            let a = rng.gen_range(0..n);
            let qubits = match kind.arity() {
                1 => vec![a],
                _ => vec![a, (a + rng.gen_range(1..n)) % n],
            };
            let per_lane = step < 8;
            let shared_theta = if rng.gen_bool(0.2) {
                EXACT_ANGLES[rng.gen_range(0..EXACT_ANGLES.len())]
            } else {
                (rng.gen::<f64>() - 0.5) * 4.0 * PI
            };
            let lane_gates: [BoundGate; B] = std::array::from_fn(|_| {
                let theta = if per_lane {
                    rng.gen::<f64>() * PI
                } else {
                    shared_theta
                };
                bound(kind, &qubits, theta)
            });
            gates.push(LaneGate::new(
                &qubits,
                &lane_gates.each_ref().map(BoundGate::entries),
            ));
            for (lane, g) in lanes.iter_mut().zip(lane_gates) {
                lane.push(g);
            }
        }
        let mut panel = StatePanel::<B>::zero_state(n);
        panel.set_kernel_mode(mode);
        // Two calls, as a prefix advance and a replay split a sweep.
        panel.run(&gates[..13]);
        panel.run(&gates[13..]);
        for (k, lane) in lanes.iter().enumerate() {
            let want = run_circuit(n, lane);
            for q in 0..n {
                assert_eq!(
                    panel.expect_z(q)[k].to_bits(),
                    want.expect_z(q).to_bits(),
                    "lane {k}/{B}, qubit {q}, {mode:?}"
                );
            }
        }
    }

    #[test]
    fn panel_circuits_match_per_lane_runs() {
        let mut rng = StdRng::seed_from_u64(0x9a7e1);
        for mode in kernel_modes() {
            for _ in 0..8 {
                panel_circuit_matches_per_lane_runs::<1>(&mut rng, mode);
                panel_circuit_matches_per_lane_runs::<2>(&mut rng, mode);
                panel_circuit_matches_per_lane_runs::<4>(&mut rng, mode);
            }
        }
    }

    #[test]
    #[should_panic(expected = "qubit out of range")]
    fn panel_rejects_gates_outside_the_register() {
        let mut panel = StatePanel::<2>::zero_state(2);
        let x = BoundGate::one(GateKind::X, 2, 0.0).entries();
        panel.run(&[LaneGate::shared(&[2], &x)]);
    }
}
