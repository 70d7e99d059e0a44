//! Density-matrix simulation with noise channels.
//!
//! The density matrix `ρ` is stored dense and row-major (`D×D`,
//! `D = 2^n_qubits`). For the register sizes in this workspace (4–7 qubits,
//! `D ≤ 128`) dense simulation is exact and fast, avoiding the sampling
//! variance a shot-based simulator would add on top of the physical noise
//! being studied.
//!
//! All mutation goes through the bit-twiddled block kernels in `kernels`:
//! a one-qubit op couples `ρ` entries only within `2×2` blocks (rows and
//! columns paired along the qubit's bit) and a two-qubit op within `4×4`
//! blocks, so every kernel loads a block once, transforms it in registers,
//! and stores it back — one cache-friendly pass per operation and **zero
//! heap allocation**. Runs of operations sharing a support can be collapsed
//! into a single pass via [`crate::fused::FusedProgram`] /
//! [`DensityMatrix::apply_fused`], and [`SimWorkspace`] makes the backing
//! storage reusable across simulations. [`SimWorkspace::run_lanes`] runs
//! up to four same-shape programs at once as the SIMD lanes of one panel,
//! bit-identical to running each alone; [`SimWorkspace::run_tables`] runs
//! one shape with per-lane operands written straight into
//! [`crate::fused::LaneTables`].

use crate::config::KernelMode;
use crate::fused::{run_operands, FusedProgram, LaneTables};
use crate::gate::BoundGate;
use crate::math::{CMatrix, Complex64};
use crate::noise::{apply_readout_to_distribution, KrausChannel, ReadoutError};
use crate::statevector::StateVector;
use kernels::CLane;

/// Largest register the dense density-matrix engine accepts: `ρ` costs
/// `4^n` complex entries, so 12 qubits (256 MiB) is the practical ceiling.
/// Wider devices need the O(2^n)-per-trajectory [`crate::trajectory`]
/// engine.
pub const MAX_DENSITY_QUBITS: usize = 12;

/// A mixed quantum state over `n` qubits.
///
/// # Examples
///
/// ```
/// use quasim::density::DensityMatrix;
/// use quasim::gate::{BoundGate, GateKind};
/// use quasim::noise::KrausChannel;
///
/// let mut rho = DensityMatrix::zero_state(2);
/// rho.apply_gate(&BoundGate::one(GateKind::H, 0, 0.0));
/// rho.apply_channel(&KrausChannel::depolarizing_1q(0.1), &[0]);
/// assert!((rho.trace() - 1.0).abs() < 1e-12);
/// assert!(rho.purity() < 1.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct DensityMatrix {
    n_qubits: usize,
    dim: usize,
    data: Vec<Complex64>,
}

impl DensityMatrix {
    /// Creates `|0…0⟩⟨0…0|` over `n_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or greater than 12 (dense ρ would be huge).
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(
            (1..=MAX_DENSITY_QUBITS).contains(&n_qubits),
            "unsupported qubit count"
        );
        let dim = 1usize << n_qubits;
        let mut data = vec![Complex64::ZERO; dim * dim];
        data[0] = Complex64::ONE;
        DensityMatrix {
            n_qubits,
            dim,
            data,
        }
    }

    /// Creates `|ψ⟩⟨ψ|` from a pure state.
    pub fn from_statevector(sv: &StateVector) -> Self {
        let n_qubits = sv.n_qubits();
        let dim = 1usize << n_qubits;
        let amps = sv.amplitudes();
        let mut data = vec![Complex64::ZERO; dim * dim];
        for i in 0..dim {
            for j in 0..dim {
                data[i * dim + j] = amps[i] * amps[j].conj();
            }
        }
        DensityMatrix {
            n_qubits,
            dim,
            data,
        }
    }

    /// The maximally mixed state `I / 2^n`.
    pub fn maximally_mixed(n_qubits: usize) -> Self {
        let mut rho = DensityMatrix::zero_state(n_qubits);
        rho.data[0] = Complex64::ZERO;
        let w = Complex64::real(1.0 / rho.dim as f64);
        for i in 0..rho.dim {
            rho.data[i * rho.dim + i] = w;
        }
        rho
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Matrix dimension `2^n`.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Entry `ρ[i, j]`.
    pub fn get(&self, i: usize, j: usize) -> Complex64 {
        self.data[i * self.dim + j]
    }

    /// Applies a unitary bound gate: `ρ → UρU†`. CNOTs dispatch to the
    /// permutation fast path [`DensityMatrix::apply_cx`].
    ///
    /// # Panics
    ///
    /// Panics if qubit indices are out of range.
    pub fn apply_gate(&mut self, gate: &BoundGate) {
        if gate.kind() == crate::gate::GateKind::Cx {
            self.apply_cx(gate.qubits()[0], gate.qubits()[1]);
            return;
        }
        let u = gate.matrix();
        match gate.kind().arity() {
            1 => self.apply_unitary_1q(&u, gate.qubits()[0]),
            _ => self.apply_unitary_2q(&u, gate.qubits()[0], gate.qubits()[1]),
        }
    }

    /// Applies a 2×2 unitary on qubit `q`: `ρ → UρU†`, one blocked pass.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or `u` is not 2×2.
    pub fn apply_unitary_1q(&mut self, u: &CMatrix, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let m = u.to_2x2().expect("expected a 2x2 matrix");
        let class = crate::fused::classify2(&m);
        let u = m.map(CLane::from);
        kernels::walk_1q(&mut self.data[..], self.dim, q, |b| {
            kernels::conj2(b, &u, class)
        });
    }

    /// Applies a 4×4 unitary on qubits `(a, b)`: `ρ → UρU†`, one blocked
    /// pass. Qubit `a` maps to the most significant local bit.
    ///
    /// # Panics
    ///
    /// Panics if indices are invalid or `u` is not 4×4.
    pub fn apply_unitary_2q(&mut self, u: &CMatrix, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        assert_ne!(a, b, "qubits must be distinct");
        let u = u.to_4x4().expect("expected a 4x4 matrix").map(CLane::from);
        kernels::walk_2q(&mut self.data[..], self.dim, a, b, |blk| {
            kernels::conj4(blk, &u, kernels::IDENTITY_MAP);
        });
    }

    /// Applies a Kraus channel on the given qubits: `ρ → Σ_k K_k ρ K_k†`.
    ///
    /// Each block of the sum is conjugated out of the untouched source and
    /// accumulated into a single scratch buffer (no per-Kraus-term copy of
    /// `ρ`), which is then adopted as the new state.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len() != channel.arity()` or indices are invalid.
    pub fn apply_channel(&mut self, channel: &KrausChannel, qubits: &[usize]) {
        assert_eq!(
            qubits.len(),
            channel.arity(),
            "channel arity does not match qubit count"
        );
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        let mut acc = vec![Complex64::ZERO; self.data.len()];
        match channel.arity() {
            1 => {
                let ks: Vec<_> = channel
                    .kraus_ops()
                    .iter()
                    .map(|k| {
                        let m = k.to_2x2().expect("one-qubit Kraus operator");
                        (m.map(CLane::from), crate::fused::classify2(&m))
                    })
                    .collect();
                kernels::channel_accumulate_1q(&self.data, &mut acc, self.dim, &ks, qubits[0]);
            }
            _ => {
                assert_ne!(qubits[0], qubits[1], "qubits must be distinct");
                let ks: Vec<_> = channel
                    .kraus_ops()
                    .iter()
                    .map(|k| {
                        k.to_4x4()
                            .expect("two-qubit Kraus operator")
                            .map(CLane::from)
                    })
                    .collect();
                kernels::channel_accumulate_2q(
                    &self.data, &mut acc, self.dim, &ks, qubits[0], qubits[1],
                );
            }
        }
        self.data = acc;
    }

    /// Fast CNOT application: `ρ → CX ρ CX†` as a pure index permutation
    /// (no complex multiplications), one blocked pass.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn apply_cx(&mut self, control: usize, target: usize) {
        assert!(
            control < self.n_qubits && target < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(control, target, "qubits must be distinct");
        kernels::walk_2q(&mut self.data[..], self.dim, control, target, |b| {
            kernels::cx_block(b, true);
        });
    }

    /// Fast closed-form one-qubit depolarising channel on qubit `q`:
    /// `ρ → (1−λ)ρ + λ·(I/2 ⊗ Tr_q ρ)`.
    ///
    /// Equivalent to `apply_channel(&KrausChannel::depolarizing_1q(λ), &[q])`
    /// but O(D²) instead of four Kraus conjugations; `λ` is clamped to
    /// `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_depolarizing_1q(&mut self, lambda: f64, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let l = lambda.clamp(0.0, 1.0);
        if l == 0.0 {
            return;
        }
        kernels::walk_1q(&mut self.data[..], self.dim, q, |b| kernels::depol1(b, [l]));
    }

    /// Fast closed-form two-qubit depolarising channel on `(a, b)`:
    /// `ρ → (1−λ)ρ + λ·(I/4 ⊗ Tr_{a,b} ρ)`.
    ///
    /// Equivalent to the 16-operator Kraus form but O(D²); `λ` is clamped
    /// to `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn apply_depolarizing_2q(&mut self, lambda: f64, a: usize, b: usize) {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        assert_ne!(a, b, "qubits must be distinct");
        let l = lambda.clamp(0.0, 1.0);
        if l == 0.0 {
            return;
        }
        kernels::walk_2q(&mut self.data[..], self.dim, a, b, |blk| {
            kernels::depol2(blk, [l], kernels::IDENTITY_MAP);
        });
    }

    /// Executes a fused program in place; bit-identical to applying the
    /// program's operations one by one through the methods above.
    ///
    /// # Panics
    ///
    /// Panics if the program's qubit count differs from this matrix's.
    pub fn apply_fused(&mut self, program: &FusedProgram) {
        assert_eq!(
            program.n_qubits(),
            self.n_qubits,
            "program qubit count mismatch"
        );
        program.run_on(&mut self.data);
    }

    /// Diagonal of `ρ` as a classical probability distribution.
    pub fn probabilities(&self) -> Vec<f64> {
        (0..self.dim)
            .map(|i| self.data[i * self.dim + i].re)
            .collect()
    }

    /// Probabilities after pushing through per-qubit readout errors.
    ///
    /// # Panics
    ///
    /// Panics if `errors.len() != n_qubits`.
    pub fn probabilities_with_readout(&self, errors: &[ReadoutError]) -> Vec<f64> {
        assert_eq!(errors.len(), self.n_qubits, "one readout error per qubit");
        let mut probs = self.probabilities();
        apply_readout_to_distribution(&mut probs, errors);
        probs
    }

    /// Probability of measuring qubit `q` as `1` (no readout error).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let mask = 1usize << q;
        (0..self.dim)
            .filter(|i| i & mask != 0)
            .map(|i| self.data[i * self.dim + i].re)
            .sum()
    }

    /// Expectation value `⟨Z_q⟩`.
    pub fn expect_z(&self, q: usize) -> f64 {
        1.0 - 2.0 * self.prob_one(q)
    }

    /// Trace of `ρ` (should be 1 up to rounding).
    pub fn trace(&self) -> f64 {
        (0..self.dim).map(|i| self.data[i * self.dim + i].re).sum()
    }

    /// Purity `Tr(ρ²)`; 1 for pure states, `1/2^n` for maximally mixed.
    pub fn purity(&self) -> f64 {
        // Tr(ρ²) = Σ_ij ρ[i,j] ρ[j,i] = Σ_ij |ρ[i,j]|² for Hermitian ρ.
        self.data.iter().map(|z| z.norm_sqr()).sum()
    }

    /// Maximum deviation from Hermitian symmetry `|ρ[i,j] − ρ[j,i]*|`.
    pub fn hermiticity_error(&self) -> f64 {
        let mut max = 0.0f64;
        for i in 0..self.dim {
            for j in 0..=i {
                let d = (self.get(i, j) - self.get(j, i).conj()).abs();
                max = max.max(d);
            }
        }
        max
    }

    /// Fidelity with a pure state: `⟨ψ|ρ|ψ⟩`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn fidelity_with_pure(&self, sv: &StateVector) -> f64 {
        assert_eq!(sv.n_qubits(), self.n_qubits, "qubit counts must match");
        let amps = sv.amplitudes();
        let mut acc = Complex64::ZERO;
        for i in 0..self.dim {
            for j in 0..self.dim {
                acc += amps[i].conj() * self.get(i, j) * amps[j];
            }
        }
        acc.re
    }
}

/// A reusable density-matrix simulation workspace.
///
/// Owns the flat row-major `ρ` storage the kernels write into, so a worker
/// thread can simulate thousands of circuits with **one** allocation:
/// [`SimWorkspace::reset_zero`] re-initialises the state in place (growing
/// the buffer only when the register grows) and
/// [`SimWorkspace::run`] executes a [`FusedProgram`] on it.
///
/// [`SimWorkspace::run_lanes`] runs up to four programs of one shape
/// ([`FusedProgram::same_shape`]) at once, as the lanes of one density
/// panel; each lane ends bit-identical to a [`SimWorkspace::run`] of its
/// own program.
///
/// # Examples
///
/// ```
/// use quasim::density::SimWorkspace;
/// use quasim::fused::ProgramBuilder;
/// use quasim::gate::GateKind;
///
/// let mut builder = ProgramBuilder::new(2);
/// builder.unitary_1q(0, GateKind::H.entries_1q(0.0).unwrap());
/// builder.cx(0, 1);
/// let program = builder.finish();
///
/// let mut ws = SimWorkspace::new();
/// for _ in 0..3 {
///     ws.reset_zero(2); // reuses the same buffer every iteration
///     ws.run(&program);
///     assert!((ws.prob_one(1) - 0.5).abs() < 1e-12);
/// }
/// ws.run_lanes(&[&program, &program]);
/// assert_eq!(ws.prob_one_lane(1, 1), ws.prob_one_lane(0, 1));
/// ```
#[derive(Debug, Clone)]
pub struct SimWorkspace {
    n_qubits: usize,
    dim: usize,
    /// Lanes of the current state: 1 (in `rho`), 2 or 4 (in the panels).
    width: usize,
    rho: Vec<Complex64>,
    rho2: Vec<CLane<2>>,
    rho4: Vec<CLane<4>>,
    /// Which compilation of the lane runner executes (both give the same
    /// bits; see [`KernelMode`]).
    kernel: KernelMode,
}

impl Default for SimWorkspace {
    fn default() -> Self {
        SimWorkspace {
            n_qubits: 0,
            dim: 0,
            width: 0,
            rho: Vec::new(),
            rho2: Vec::new(),
            rho4: Vec::new(),
            kernel: KernelMode::detect(),
        }
    }
}

impl SimWorkspace {
    /// Creates an empty workspace (no storage until the first reset).
    pub fn new() -> Self {
        SimWorkspace::default()
    }

    /// Most programs [`Self::run_lanes`] runs at once on an `n_qubits`
    /// register: the widest of 4 or 2 lanes whose panel (`lanes · 4ⁿ ·
    /// 16` bytes) fits the trajectory panel's streaming budget
    /// ([`crate::trajectory::PANEL_BYTES_BUDGET`]), otherwise 1.
    pub fn max_lanes(n_qubits: usize) -> usize {
        let lane_bytes = (2 * std::mem::size_of::<f64>()) << (2 * n_qubits);
        [4, 2]
            .into_iter()
            .find(|&lanes| lanes * lane_bytes <= crate::trajectory::PANEL_BYTES_BUDGET)
            .unwrap_or(1)
    }

    /// Re-initialises the state to `|0…0⟩⟨0…0|` over `n_qubits`, reusing
    /// the existing buffer when large enough.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or greater than 12.
    pub fn reset_zero(&mut self, n_qubits: usize) {
        self.set_register(n_qubits, 1);
        reset_panel(&mut self.rho, self.dim, Complex64::ZERO, Complex64::ONE);
    }

    fn set_register(&mut self, n_qubits: usize, width: usize) {
        assert!(
            (1..=MAX_DENSITY_QUBITS).contains(&n_qubits),
            "unsupported qubit count"
        );
        self.n_qubits = n_qubits;
        self.dim = 1usize << n_qubits;
        self.width = width;
    }

    /// Number of qubits of the current state (0 before the first reset).
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Matrix dimension `2^n` of the current state.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The single-lane state behind [`Self::run`] and its readers.
    fn single(&self) -> &[Complex64] {
        assert_eq!(self.width, 1, "workspace holds lanes; reset it first");
        &self.rho
    }

    /// Executes a fused program in place.
    ///
    /// # Panics
    ///
    /// Panics if the program's qubit count differs from the workspace's
    /// current register, or the workspace holds lanes (reset first).
    pub fn run(&mut self, program: &FusedProgram) {
        assert_eq!(
            program.n_qubits(),
            self.n_qubits,
            "program/workspace qubit count mismatch"
        );
        assert_eq!(self.width, 1, "workspace holds lanes; reset it first");
        crate::fused::run_lanes(&mut self.rho[..], &[program], self.kernel);
    }

    /// Runs `programs` from `|0…0⟩⟨0…0|` as the lanes of one density
    /// panel: lane `k` ends bit-identical to [`Self::reset_zero`] plus
    /// [`Self::run`] of `programs[k]`. Read the lanes with
    /// [`Self::prob_one_lane`].
    ///
    /// # Panics
    ///
    /// Panics unless there are 1, 2 or 4 programs, no more than
    /// [`Self::max_lanes`], all of `programs[0]`'s shape, on a register of
    /// at most 12 qubits.
    pub fn run_lanes(&mut self, programs: &[&FusedProgram]) {
        let first = programs.first().expect("at least one lane");
        let n = first.n_qubits();
        assert!(
            programs.len() <= Self::max_lanes(n),
            "{} lanes exceed the {n}-qubit panel budget",
            programs.len()
        );
        assert!(
            programs.iter().all(|p| p.same_shape(first)),
            "lane programs must share one shape"
        );
        self.set_register(n, programs.len());
        match programs.len() {
            1 => {
                reset_panel(&mut self.rho, self.dim, Complex64::ZERO, Complex64::ONE);
                crate::fused::run_lanes(&mut self.rho[..], &[*first], self.kernel);
            }
            2 => run_panel(&mut self.rho2, self.dim, programs, self.kernel),
            4 => run_panel(&mut self.rho4, self.dim, programs, self.kernel),
            n => panic!("lane count must be 1, 2 or 4, got {n}"),
        }
    }

    /// Runs `shape` from `|0…0⟩⟨0…0|` with the operands of `tables`, one
    /// lane per table lane: lane `k` ends bit-identical to [`Self::run`] of
    /// [`LaneTables::lane_program`]`(shape, k)`. The matrices and `λ`s
    /// stored in `shape` itself are not read — only its segments, atoms
    /// and classes. Read the lanes with [`Self::prob_one_lane`].
    ///
    /// # Panics
    ///
    /// Panics if the tables are not sized for `shape`, hold more lanes
    /// than [`Self::max_lanes`], or the register exceeds 12 qubits.
    pub fn run_tables(&mut self, shape: &FusedProgram, tables: &LaneTables) {
        let n = shape.n_qubits();
        let width = tables.width();
        assert!(tables.fits(shape), "lane tables do not fit the shape");
        assert!(
            width <= Self::max_lanes(n),
            "{width} lanes exceed the {n}-qubit panel budget"
        );
        self.set_register(n, width);
        let dim = self.dim;
        match width {
            1 => {
                reset_panel(&mut self.rho, dim, Complex64::ZERO, Complex64::ONE);
                run_operands(&mut self.rho[..], shape, &tables.one, self.kernel);
            }
            2 => {
                reset_panel(&mut self.rho2, dim, CLane::ZERO, CLane::ONE);
                run_operands(&mut self.rho2[..], shape, &tables.two, self.kernel);
            }
            _ => {
                reset_panel(&mut self.rho4, dim, CLane::ZERO, CLane::ONE);
                run_operands(&mut self.rho4[..], shape, &tables.four, self.kernel);
            }
        }
    }

    /// Probability of measuring qubit `q` as `1` in lane `lane` of the
    /// current state; bit-identical to [`DensityMatrix::prob_one`] on that
    /// lane's state.
    ///
    /// # Panics
    ///
    /// Panics if `q` or `lane` is out of range.
    pub fn prob_one_lane(&self, lane: usize, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        assert!(lane < self.width, "lane {lane} out of range");
        let mask = 1usize << q;
        let diag = |i: usize| {
            let at = i * self.dim + i;
            match self.width {
                1 => self.rho[at].re,
                2 => self.rho2[at].re[lane],
                _ => self.rho4[at].re[lane],
            }
        };
        (0..self.dim).filter(|i| i & mask != 0).map(diag).sum()
    }

    /// Probability of measuring qubit `q` as `1`; bit-identical to
    /// [`DensityMatrix::prob_one`] on the same state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or the workspace holds lanes.
    pub fn prob_one(&self, q: usize) -> f64 {
        self.single();
        self.prob_one_lane(0, q)
    }

    /// Diagonal of `ρ` as a classical probability distribution;
    /// bit-identical to [`DensityMatrix::probabilities`].
    ///
    /// # Panics
    ///
    /// Panics if the workspace holds lanes.
    pub fn probabilities(&self) -> Vec<f64> {
        let rho = self.single();
        (0..self.dim).map(|i| rho[i * self.dim + i].re).collect()
    }

    /// The flat row-major storage.
    ///
    /// # Panics
    ///
    /// Panics if the workspace holds lanes.
    pub fn rho(&self) -> &[Complex64] {
        self.single()
    }

    /// Copies the current state into an owned [`DensityMatrix`] (for
    /// inspection and tests; the hot path never needs this).
    ///
    /// # Panics
    ///
    /// Panics if the workspace is uninitialised or holds lanes.
    pub fn to_density_matrix(&self) -> DensityMatrix {
        self.single();
        self.lane_density_matrix(0)
    }

    /// Copies lane `lane` of the current state into an owned
    /// [`DensityMatrix`] (for inspection and tests).
    ///
    /// # Panics
    ///
    /// Panics if the workspace is uninitialised or `lane` is out of range.
    pub fn lane_density_matrix(&self, lane: usize) -> DensityMatrix {
        assert!(self.n_qubits > 0, "workspace not initialised");
        assert!(lane < self.width, "lane {lane} out of range");
        let data = match self.width {
            1 => self.rho.clone(),
            2 => self.rho2.iter().map(|z| z.lane(lane)).collect(),
            _ => self.rho4.iter().map(|z| z.lane(lane)).collect(),
        };
        DensityMatrix {
            n_qubits: self.n_qubits,
            dim: self.dim,
            data,
        }
    }

    /// Overrides the kernel compilation ([`KernelMode::detect`] by default) —
    /// how the bit-identity proptests pin the plain compilation against
    /// the AVX2 one on the same host.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`KernelMode::Avx2`] on a host without AVX2.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.kernel = mode.checked();
    }
}

/// Resets `buf` to `dim × dim` copies of `zero` with `one` at entry
/// `(0, 0)`.
fn reset_panel<T: Copy>(buf: &mut Vec<T>, dim: usize, zero: T, one: T) {
    buf.clear();
    buf.resize(dim * dim, zero);
    buf[0] = one;
}

/// Resets a `B`-lane panel to `|0…0⟩⟨0…0|` in every lane and runs
/// `programs` (one per lane) on it.
fn run_panel<const B: usize>(
    panel: &mut Vec<CLane<B>>,
    dim: usize,
    programs: &[&FusedProgram],
    kernel: KernelMode,
) {
    let programs: &[&FusedProgram; B] = programs.try_into().expect("one program per lane");
    reset_panel(panel, dim, CLane::ZERO, CLane::ONE);
    crate::fused::run_lanes(&mut panel[..], programs, kernel);
}

pub(crate) mod kernels {
    //! Bit-twiddled block kernels shared by [`super::DensityMatrix`], the
    //! Kraus-channel accumulator, and the fused-program lane runner
    //! ([`crate::fused`]).
    //!
    //! Every kernel walks `ρ` in coupled blocks (2×2 for one-qubit support,
    //! 4×4 for two-qubit support), loading each block into registers once,
    //! and exploits two structural facts:
    //!
    //! - **Hermitian symmetry.** `ρ` is Hermitian and every operation here
    //!   (unitary conjugation, depolarising channels, Kraus sums) preserves
    //!   Hermiticity, so kernels compute only blocks on or above the block
    //!   diagonal and write the conjugate transpose into the mirror block —
    //!   half the arithmetic.
    //! - **Matrix structure.** Real (`RY`, `H`, Paulis) and diagonal
    //!   (`RZ`, phases) 2×2 unitaries are classified once per program
    //!   ([`crate::fused::MatClass`]) and conjugated with specialised
    //!   expressions that skip the exactly-zero terms — about 2× fewer
    //!   floating-point operations on the dominant kernel.
    //!
    //! # Lanes
    //!
    //! Every primitive is generic over a lane count `B`. An entry is a
    //! [`CLane<B>`]: `B` real parts and `B` imaginary parts, lane `k`
    //! belonging to the `k`-th of `B` independent density matrices, and
    //! matrices and depolarising strengths are per-lane data too. A lane
    //! panel stores `ρ` row-major with one `CLane<B>` per entry, so a block
    //! load fetches the same entry of every lane at once and the lane
    //! arithmetic maps onto SIMD registers.
    //!
    //! **Bit-identity.** Lane `k` of every lane operation is exactly the
    //! scalar IEEE-754 operation [`Complex64`]'s arithmetic performs on lane
    //! `k`'s operands, in the same association order and operand order (no
    //! FMA, no cross-lane reduction), and the block walks ([`walk_1q`],
    //! [`walk_2q`]) visit blocks in the same order at every width. A lane
    //! therefore computes the very bits a width-1 run of its own program
    //! computes. Width 1 over [`Complex64`] storage ([`LaneStore`]) is the
    //! op-by-op [`super::DensityMatrix`] path; the fused runner runs one,
    //! two or four same-shape programs as lanes. There is one copy of each
    //! expression.

    // Lane loops index several arrays in lockstep by lane.
    #![allow(clippy::needless_range_loop)]

    use crate::fused::MatClass;
    use crate::math::Complex64;
    use std::ops::{Add, AddAssign, Mul};

    /// `B` complex numbers held as separate real and imaginary lane arrays.
    #[derive(Debug, Clone, Copy, PartialEq)]
    pub(crate) struct CLane<const B: usize> {
        pub(crate) re: [f64; B],
        pub(crate) im: [f64; B],
    }

    /// A 2×2 block or 2×2 matrix of lanes, row-major. As a block the
    /// layout is `[b(r0,c0), b(r0,c1), b(r1,c0), b(r1,c1)]` with
    /// `r1 = r0 | mask`, `c1 = c0 | mask`.
    pub(crate) type Lanes4<const B: usize> = [CLane<B>; 4];

    /// A 4×4 block or 4×4 matrix of lanes, row-major (canonical index
    /// `2·a_bit + b_bit`).
    pub(crate) type Lanes16<const B: usize> = [CLane<B>; 16];

    /// Quartet map of an atom whose qubit order matches its block.
    pub(crate) const IDENTITY_MAP: [usize; 4] = [0, 1, 2, 3];

    impl<const B: usize> CLane<B> {
        pub(crate) const ZERO: Self = CLane {
            re: [0.0; B],
            im: [0.0; B],
        };
        pub(crate) const ONE: Self = CLane {
            re: [1.0; B],
            im: [0.0; B],
        };

        /// Gathers lane `k` from `f(k)`.
        #[inline(always)]
        pub(crate) fn gather(f: impl Fn(usize) -> Complex64) -> Self {
            let mut out = Self::ZERO;
            for k in 0..B {
                let z = f(k);
                out.re[k] = z.re;
                out.im[k] = z.im;
            }
            out
        }

        /// Lane `k` as a scalar.
        pub(crate) fn lane(self, k: usize) -> Complex64 {
            Complex64::new(self.re[k], self.im[k])
        }

        /// Lane-wise [`Complex64::conj`].
        #[inline(always)]
        fn conj(self) -> Self {
            let mut out = self;
            for k in 0..B {
                out.im[k] = -self.im[k];
            }
            out
        }

        /// Lane-wise `x · z` for a per-lane real `x`: `(x·re, x·im)`.
        #[inline(always)]
        fn real_times(x: [f64; B], z: Self) -> Self {
            let mut out = z;
            for k in 0..B {
                out.re[k] = x[k] * z.re[k];
                out.im[k] = x[k] * z.im[k];
            }
            out
        }

        /// Lane-wise [`Complex64::scale`] by a per-lane real.
        #[inline(always)]
        fn scale(self, s: [f64; B]) -> Self {
            let mut out = self;
            for k in 0..B {
                out.re[k] = self.re[k] * s[k];
                out.im[k] = self.im[k] * s[k];
            }
            out
        }
    }

    impl<const B: usize> Add for CLane<B> {
        type Output = Self;
        #[inline(always)]
        fn add(self, rhs: Self) -> Self {
            let mut out = self;
            for k in 0..B {
                out.re[k] = self.re[k] + rhs.re[k];
                out.im[k] = self.im[k] + rhs.im[k];
            }
            out
        }
    }

    impl<const B: usize> AddAssign for CLane<B> {
        #[inline(always)]
        fn add_assign(&mut self, rhs: Self) {
            for k in 0..B {
                self.re[k] += rhs.re[k];
                self.im[k] += rhs.im[k];
            }
        }
    }

    impl<const B: usize> Mul for CLane<B> {
        type Output = Self;
        /// Lane-wise [`Complex64`] multiplication, same expression.
        #[inline(always)]
        fn mul(self, rhs: Self) -> Self {
            let mut out = self;
            for k in 0..B {
                out.re[k] = self.re[k] * rhs.re[k] - self.im[k] * rhs.im[k];
                out.im[k] = self.re[k] * rhs.im[k] + self.im[k] * rhs.re[k];
            }
            out
        }
    }

    impl From<Complex64> for CLane<1> {
        #[inline(always)]
        fn from(z: Complex64) -> Self {
            CLane {
                re: [z.re],
                im: [z.im],
            }
        }
    }

    /// Flat row-major `ρ` storage whose entries a walk reads and writes
    /// as `B` lanes: `[Complex64]` at width 1 (the
    /// [`super::DensityMatrix`] and [`super::SimWorkspace`] layout), and a
    /// lane panel `[CLane<B>]` at any width.
    pub(crate) trait LaneStore<const B: usize> {
        /// Entry `i`.
        fn get(&self, i: usize) -> CLane<B>;
        /// Overwrites entry `i`.
        fn set(&mut self, i: usize, v: CLane<B>);
    }

    impl LaneStore<1> for [Complex64] {
        #[inline(always)]
        fn get(&self, i: usize) -> CLane<1> {
            CLane::from(self[i])
        }
        #[inline(always)]
        fn set(&mut self, i: usize, v: CLane<1>) {
            self[i] = Complex64::new(v.re[0], v.im[0]);
        }
    }

    impl<const B: usize> LaneStore<B> for [CLane<B>] {
        #[inline(always)]
        fn get(&self, i: usize) -> CLane<B> {
            self[i]
        }
        #[inline(always)]
        fn set(&mut self, i: usize, v: CLane<B>) {
            self[i] = v;
        }
    }

    /// Spreads `k` by inserting a `0` bit at the position of the
    /// single-bit `mask`: enumerating `k = 0..dim/2` yields every index
    /// with that bit clear, in ascending order.
    #[inline(always)]
    pub(crate) fn insert_zero_bit(k: usize, mask: usize) -> usize {
        let low = k & (mask - 1);
        ((k ^ low) << 1) | low
    }

    /// Conjugates a 2×2 block: `B → U B U†`, dispatching on the matrix
    /// class (the specialised paths skip exactly-zero terms; any deviation
    /// from the general path is confined to the sign of zeros). Every
    /// lane's matrix must have the given class.
    #[inline(always)]
    pub(crate) fn conj2<const B: usize>(b: Lanes4<B>, u: &Lanes4<B>, class: MatClass) -> Lanes4<B> {
        match class {
            MatClass::General => conj2_general(b, u),
            MatClass::Real => conj2_real(b, u),
            MatClass::Diagonal => conj2_diag(b, u),
        }
    }

    #[inline(always)]
    fn conj2_general<const B: usize>(b: Lanes4<B>, u: &Lanes4<B>) -> Lanes4<B> {
        let [u00, u01, u10, u11] = *u;
        // Left multiply (U B), columns independent.
        let t00 = u00 * b[0] + u01 * b[2];
        let t01 = u00 * b[1] + u01 * b[3];
        let t10 = u10 * b[0] + u11 * b[2];
        let t11 = u10 * b[1] + u11 * b[3];
        // Right multiply ((U B) U†), rows independent.
        [
            t00 * u00.conj() + t01 * u01.conj(),
            t00 * u10.conj() + t01 * u11.conj(),
            t10 * u00.conj() + t11 * u01.conj(),
            t10 * u10.conj() + t11 * u11.conj(),
        ]
    }

    /// Real unitary: `U† = Uᵀ` and every product is real×complex (two
    /// multiplies instead of a full complex multiply).
    #[inline(always)]
    fn conj2_real<const B: usize>(b: Lanes4<B>, u: &Lanes4<B>) -> Lanes4<B> {
        let (u00, u01, u10, u11) = (u[0].re, u[1].re, u[2].re, u[3].re);
        let rc = CLane::real_times;
        let t00 = rc(u00, b[0]) + rc(u01, b[2]);
        let t01 = rc(u00, b[1]) + rc(u01, b[3]);
        let t10 = rc(u10, b[0]) + rc(u11, b[2]);
        let t11 = rc(u10, b[1]) + rc(u11, b[3]);
        [
            rc(u00, t00) + rc(u01, t01),
            rc(u10, t00) + rc(u11, t01),
            rc(u00, t10) + rc(u01, t11),
            rc(u10, t10) + rc(u11, t11),
        ]
    }

    /// Diagonal unitary: rows scale by `u_rr`, columns by `conj(u_cc)`.
    #[inline(always)]
    fn conj2_diag<const B: usize>(b: Lanes4<B>, u: &Lanes4<B>) -> Lanes4<B> {
        let (u00, u11) = (u[0], u[3]);
        [
            (u00 * b[0]) * u00.conj(),
            (u00 * b[1]) * u11.conj(),
            (u11 * b[2]) * u00.conj(),
            (u11 * b[3]) * u11.conj(),
        ]
    }

    /// One-qubit depolarising update of a 2×2 block (`l` pre-clamped,
    /// non-zero, per lane).
    #[inline(always)]
    pub(crate) fn depol1<const B: usize>(b: Lanes4<B>, l: [f64; B]) -> Lanes4<B> {
        let (mut keep, mut half) = (l, l);
        for k in 0..B {
            keep[k] = 1.0 - l[k];
            half[k] = 0.5 * l[k];
        }
        let avg = (b[0] + b[3]).scale(half);
        [
            b[0].scale(keep) + avg,
            b[1].scale(keep),
            b[2].scale(keep),
            b[3].scale(keep) + avg,
        ]
    }

    /// Conjugates a 4×4 block in place: `B → U B U†`.
    ///
    /// `map` translates the unitary's own quartet order to the block's
    /// canonical order (identity, or the bit-swap `[0, 2, 1, 3]` when the
    /// op's qubit order is reversed relative to the block layout), keeping
    /// summation order — and therefore bits — identical to applying the op
    /// with its own qubit order.
    #[inline(always)]
    pub(crate) fn conj4<const B: usize>(b: &mut Lanes16<B>, u: &Lanes16<B>, map: [usize; 4]) {
        // Left multiply, columns independent.
        let mut t = [CLane::ZERO; 16];
        for c in 0..4 {
            for r in 0..4 {
                let mut acc = CLane::ZERO;
                for k in 0..4 {
                    acc += u[r * 4 + k] * b[map[k] * 4 + c];
                }
                t[map[r] * 4 + c] = acc;
            }
        }
        // Right multiply by U†, rows independent.
        for r in 0..4 {
            let mut row = [CLane::ZERO; 4];
            for (c, slot) in row.iter_mut().enumerate() {
                let mut acc = CLane::ZERO;
                for k in 0..4 {
                    acc += t[r * 4 + map[k]] * u[c * 4 + k].conj();
                }
                *slot = acc;
            }
            for (c, &v) in row.iter().enumerate() {
                b[r * 4 + map[c]] = v;
            }
        }
    }

    /// Two-qubit depolarising update of a 4×4 block (`l` pre-clamped,
    /// non-zero, per lane); `map` as in [`conj4`].
    #[inline(always)]
    pub(crate) fn depol2<const B: usize>(b: &mut Lanes16<B>, l: [f64; B], map: [usize; 4]) {
        let (mut keep, mut quarter) = (l, l);
        for k in 0..B {
            keep[k] = 1.0 - l[k];
            quarter[k] = 0.25 * l[k];
        }
        // Partial trace over the block diagonal, in the op's own order.
        let mut tr = CLane::ZERO;
        for &m in &map {
            tr += b[m * 4 + m];
        }
        let mix = tr.scale(quarter);
        for r in 0..4 {
            for c in 0..4 {
                let idx = map[r] * 4 + map[c];
                let mut v = b[idx].scale(keep);
                if r == c {
                    v += mix;
                }
                b[idx] = v;
            }
        }
    }

    /// CNOT on a 4×4 block: flips the target bit wherever the control bit
    /// is set (pure permutation). `control_is_a` selects which local bit is
    /// the control; canonical index = `2·a_bit + b_bit`.
    #[inline(always)]
    pub(crate) fn cx_block<const B: usize>(b: &mut Lanes16<B>, control_is_a: bool) {
        let (x, y) = if control_is_a {
            (2usize, 3usize)
        } else {
            (1usize, 3usize)
        };
        for c in 0..4 {
            b.swap(x * 4 + c, y * 4 + c);
        }
        for r in 0..4 {
            b.swap(r * 4 + x, r * 4 + y);
        }
    }

    /// Loads the 2×2 block at row pair `(base0, base1)` × column pair
    /// `(c0, c1)`.
    #[inline(always)]
    fn load2<const B: usize, S: LaneStore<B> + ?Sized>(
        data: &S,
        base0: usize,
        base1: usize,
        c0: usize,
        c1: usize,
    ) -> Lanes4<B> {
        [
            data.get(base0 + c0),
            data.get(base0 + c1),
            data.get(base1 + c0),
            data.get(base1 + c1),
        ]
    }

    /// Stores a 2×2 block back.
    #[inline(always)]
    fn store2<const B: usize, S: LaneStore<B> + ?Sized>(
        data: &mut S,
        base0: usize,
        base1: usize,
        c0: usize,
        c1: usize,
        blk: Lanes4<B>,
    ) {
        data.set(base0 + c0, blk[0]);
        data.set(base0 + c1, blk[1]);
        data.set(base1 + c0, blk[2]);
        data.set(base1 + c1, blk[3]);
    }

    /// Stores the conjugate transpose of a 2×2 block into its Hermitian
    /// mirror position (rows ↔ columns).
    #[inline(always)]
    fn store2_mirror<const B: usize, S: LaneStore<B> + ?Sized>(
        data: &mut S,
        dim: usize,
        (r0, r1): (usize, usize),
        (c0, c1): (usize, usize),
        blk: Lanes4<B>,
    ) {
        data.set(c0 * dim + r0, blk[0].conj());
        data.set(c0 * dim + r1, blk[2].conj());
        data.set(c1 * dim + r0, blk[1].conj());
        data.set(c1 * dim + r1, blk[3].conj());
    }

    /// One pass applying `f` to every 2×2 block of qubit `q` on or above
    /// the block diagonal, mirroring the lower half (Hermitian symmetry).
    /// The one walk behind every one-qubit operation, fused or not.
    #[inline(always)]
    pub(crate) fn walk_1q<const B: usize, S: LaneStore<B> + ?Sized>(
        data: &mut S,
        dim: usize,
        q: usize,
        mut f: impl FnMut(Lanes4<B>) -> Lanes4<B>,
    ) {
        let mask = 1usize << q;
        let half = dim >> 1;
        for rk in 0..half {
            let r0 = insert_zero_bit(rk, mask);
            let r1 = r0 | mask;
            let (base0, base1) = (r0 * dim, r1 * dim);
            // Diagonal block: computed fully in place.
            let blk = f(load2(data, base0, base1, r0, r1));
            store2(data, base0, base1, r0, r1, blk);
            for ck in rk + 1..half {
                let c0 = insert_zero_bit(ck, mask);
                let c1 = c0 | mask;
                let blk = f(load2(data, base0, base1, c0, c1));
                store2(data, base0, base1, c0, c1, blk);
                store2_mirror(data, dim, (r0, r1), (c0, c1), blk);
            }
        }
    }

    /// Enumerates the masks of a two-qubit support in ascending order.
    #[inline(always)]
    fn sorted_masks(a: usize, b: usize) -> (usize, usize, usize, usize) {
        let ma = 1usize << a;
        let mb = 1usize << b;
        let (lo, hi) = if ma < mb { (ma, mb) } else { (mb, ma) };
        (ma, mb, lo, hi)
    }

    /// Loads a 4×4 block (row bases × column indices).
    #[inline(always)]
    fn load4<const B: usize, S: LaneStore<B> + ?Sized>(
        data: &S,
        rows: &[usize; 4],
        cols: &[usize; 4],
    ) -> Lanes16<B> {
        let mut blk = [CLane::ZERO; 16];
        for (r, &row) in rows.iter().enumerate() {
            for (c, &col) in cols.iter().enumerate() {
                blk[r * 4 + c] = data.get(row + col);
            }
        }
        blk
    }

    /// Stores a 4×4 block back.
    #[inline(always)]
    fn store4<const B: usize, S: LaneStore<B> + ?Sized>(
        data: &mut S,
        rows: &[usize; 4],
        cols: &[usize; 4],
        blk: &Lanes16<B>,
    ) {
        for (r, &row) in rows.iter().enumerate() {
            for (c, &col) in cols.iter().enumerate() {
                data.set(row + col, blk[r * 4 + c]);
            }
        }
    }

    /// Stores the conjugate transpose of a 4×4 block into its Hermitian
    /// mirror position (`ridx` are the block's row *indices*, not bases).
    #[inline(always)]
    fn store4_mirror<const B: usize, S: LaneStore<B> + ?Sized>(
        data: &mut S,
        dim: usize,
        ridx: &[usize; 4],
        cols: &[usize; 4],
        blk: &Lanes16<B>,
    ) {
        for (c, &col) in cols.iter().enumerate() {
            let base = col * dim;
            for (r, &row) in ridx.iter().enumerate() {
                data.set(base + row, blk[r * 4 + c].conj());
            }
        }
    }

    /// One pass applying `f` to every 4×4 block of the qubit pair
    /// `(a, b)` (`a` = high local bit) on or above the block diagonal,
    /// mirroring the lower half. The one walk behind every two-qubit
    /// operation, fused or not — a lone CX therefore leaves exactly the
    /// bits of a fused segment containing one.
    #[inline(always)]
    pub(crate) fn walk_2q<const B: usize, S: LaneStore<B> + ?Sized>(
        data: &mut S,
        dim: usize,
        a: usize,
        b: usize,
        mut f: impl FnMut(&mut Lanes16<B>),
    ) {
        let (ma, mb, m_lo, m_hi) = sorted_masks(a, b);
        let quarter = dim >> 2;
        for rk in 0..quarter {
            let i = insert_zero_bit(insert_zero_bit(rk, m_lo), m_hi);
            let ridx = [i, i | mb, i | ma, i | ma | mb];
            let rows = [ridx[0] * dim, ridx[1] * dim, ridx[2] * dim, ridx[3] * dim];
            for ck in rk..quarter {
                let j = insert_zero_bit(insert_zero_bit(ck, m_lo), m_hi);
                let cols = [j, j | mb, j | ma, j | ma | mb];
                let mut blk = load4(data, &rows, &cols);
                f(&mut blk);
                store4(data, &rows, &cols, &blk);
                if ck > rk {
                    store4_mirror(data, dim, &ridx, &cols, &blk);
                }
            }
        }
    }

    /// Accumulates `Σ_k K_k ρ K_k†` for 2×2 Kraus operators on qubit `q`
    /// into `acc` (reading `src` untouched), upper block triangle +
    /// mirror.
    pub(crate) fn channel_accumulate_1q(
        src: &[Complex64],
        acc: &mut [Complex64],
        dim: usize,
        ks: &[(Lanes4<1>, MatClass)],
        q: usize,
    ) {
        let mask = 1usize << q;
        let half = dim >> 1;
        for rk in 0..half {
            let r0 = insert_zero_bit(rk, mask);
            let r1 = r0 | mask;
            let (base0, base1) = (r0 * dim, r1 * dim);
            for ck in rk..half {
                let c0 = insert_zero_bit(ck, mask);
                let c1 = c0 | mask;
                let blk = load2(src, base0, base1, c0, c1);
                let mut tot = [CLane::ZERO; 4];
                for (k, class) in ks {
                    let term = conj2(blk, k, *class);
                    for (t, v) in tot.iter_mut().zip(term.iter()) {
                        *t += *v;
                    }
                }
                store2(acc, base0, base1, c0, c1, tot);
                if ck > rk {
                    store2_mirror(acc, dim, (r0, r1), (c0, c1), tot);
                }
            }
        }
    }

    /// Accumulates `Σ_k K_k ρ K_k†` for 4×4 Kraus operators on `(a, b)`
    /// into `acc` (reading `src` untouched), upper block triangle +
    /// mirror.
    pub(crate) fn channel_accumulate_2q(
        src: &[Complex64],
        acc: &mut [Complex64],
        dim: usize,
        ks: &[Lanes16<1>],
        a: usize,
        b: usize,
    ) {
        let (ma, mb, m_lo, m_hi) = sorted_masks(a, b);
        let quarter = dim >> 2;
        for rk in 0..quarter {
            let i = insert_zero_bit(insert_zero_bit(rk, m_lo), m_hi);
            let ridx = [i, i | mb, i | ma, i | ma | mb];
            let rows = [ridx[0] * dim, ridx[1] * dim, ridx[2] * dim, ridx[3] * dim];
            for ck in rk..quarter {
                let j = insert_zero_bit(insert_zero_bit(ck, m_lo), m_hi);
                let cols = [j, j | mb, j | ma, j | ma | mb];
                let blk = load4(src, &rows, &cols);
                let mut tot = [CLane::ZERO; 16];
                for k in ks {
                    let mut term = blk;
                    conj4(&mut term, k, IDENTITY_MAP);
                    for (t, v) in tot.iter_mut().zip(term.iter()) {
                        *t += *v;
                    }
                }
                store4(acc, &rows, &cols, &tot);
                if ck > rk {
                    store4_mirror(acc, dim, &ridx, &cols, &tot);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gate::GateKind;
    use crate::statevector::run_circuit;

    fn g1(kind: GateKind, q: usize, t: f64) -> BoundGate {
        BoundGate::one(kind, q, t)
    }

    #[test]
    fn zero_state_is_pure_and_normalised() {
        let rho = DensityMatrix::zero_state(3);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.purity() - 1.0).abs() < 1e-12);
        assert!(rho.hermiticity_error() < 1e-12);
    }

    #[test]
    fn unitary_evolution_matches_statevector() {
        let gates = [
            g1(GateKind::H, 0, 0.0),
            g1(GateKind::Ry, 1, 0.7),
            BoundGate::two(GateKind::Cry, 0, 2, 1.1),
            BoundGate::two(GateKind::Cx, 1, 3, 0.0),
            g1(GateKind::Rz, 2, 2.0),
            BoundGate::two(GateKind::Crz, 3, 0, 0.4),
        ];
        let sv = run_circuit(4, &gates);
        let mut rho = DensityMatrix::zero_state(4);
        for g in &gates {
            rho.apply_gate(g);
        }
        for q in 0..4 {
            assert!(
                (rho.prob_one(q) - sv.prob_one(q)).abs() < 1e-10,
                "mismatch on qubit {q}"
            );
        }
        assert!((rho.fidelity_with_pure(&sv) - 1.0).abs() < 1e-10);
        assert!((rho.purity() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn from_statevector_roundtrip() {
        let sv = run_circuit(2, &[g1(GateKind::Ry, 0, 0.4), g1(GateKind::Rx, 1, 1.3)]);
        let rho = DensityMatrix::from_statevector(&sv);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
        assert!((rho.fidelity_with_pure(&sv) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_mixes_state() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_channel(&KrausChannel::depolarizing_1q(1.0), &[0]);
        // λ=1 → maximally mixed.
        assert!((rho.prob_one(0) - 0.5).abs() < 1e-12);
        assert!((rho.purity() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn channel_preserves_trace_and_hermiticity() {
        let mut rho = DensityMatrix::zero_state(3);
        rho.apply_gate(&g1(GateKind::H, 0, 0.0));
        rho.apply_gate(&BoundGate::two(GateKind::Cx, 0, 1, 0.0));
        rho.apply_channel(&KrausChannel::depolarizing_2q(0.05), &[0, 1]);
        rho.apply_channel(&KrausChannel::amplitude_damping(0.1), &[2]);
        assert!((rho.trace() - 1.0).abs() < 1e-10);
        assert!(rho.hermiticity_error() < 1e-10);
    }

    #[test]
    fn amplitude_damping_fully_decays_to_ground() {
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&g1(GateKind::X, 0, 0.0));
        rho.apply_channel(&KrausChannel::amplitude_damping(1.0), &[0]);
        assert!(rho.prob_one(0).abs() < 1e-12);
    }

    #[test]
    fn two_qubit_depolarizing_at_one_gives_maximally_mixed_pair() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&g1(GateKind::X, 0, 0.0));
        rho.apply_channel(&KrausChannel::depolarizing_2q(1.0), &[0, 1]);
        let probs = rho.probabilities();
        for p in probs {
            assert!((p - 0.25).abs() < 1e-12);
        }
    }

    #[test]
    fn maximally_mixed_has_min_purity() {
        let rho = DensityMatrix::maximally_mixed(3);
        assert!((rho.purity() - 1.0 / 8.0).abs() < 1e-12);
        assert!((rho.trace() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn readout_probabilities_sum_to_one() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&g1(GateKind::H, 0, 0.0));
        let probs = rho.probabilities_with_readout(&[
            ReadoutError::new(0.03, 0.08),
            ReadoutError::symmetric(0.02),
        ]);
        let total: f64 = probs.iter().sum();
        assert!((total - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noise_reduces_fidelity_monotonically() {
        let gates = [
            g1(GateKind::H, 0, 0.0),
            BoundGate::two(GateKind::Cx, 0, 1, 0.0),
        ];
        let ideal = run_circuit(2, &gates);
        let mut last_fid = 1.1;
        for lambda in [0.0, 0.05, 0.2, 0.5] {
            let mut rho = DensityMatrix::zero_state(2);
            for g in &gates {
                rho.apply_gate(g);
                rho.apply_channel(&KrausChannel::depolarizing_2q(lambda), &[0, 1]);
            }
            let fid = rho.fidelity_with_pure(&ideal);
            assert!(fid < last_fid, "fidelity should decrease with noise");
            last_fid = fid;
        }
    }

    #[test]
    fn fast_cx_matches_dense_unitary() {
        let prep = [
            g1(GateKind::H, 0, 0.0),
            g1(GateKind::Ry, 1, 0.8),
            g1(GateKind::Rz, 2, 1.7),
            BoundGate::two(GateKind::Cry, 0, 2, 0.9),
        ];
        for (c, t) in [(0usize, 1usize), (1, 0), (2, 0), (1, 2)] {
            let mut a = DensityMatrix::zero_state(3);
            let mut b = DensityMatrix::zero_state(3);
            for g in &prep {
                a.apply_gate(g);
                b.apply_gate(g);
            }
            a.apply_unitary_2q(&GateKind::Cx.matrix(0.0), c, t);
            b.apply_cx(c, t);
            for i in 0..8 {
                for j in 0..8 {
                    assert!(
                        (a.get(i, j) - b.get(i, j)).abs() < 1e-12,
                        "cx({c},{t}) mismatch at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_depolarizing_1q_matches_kraus_form() {
        let gates = [
            g1(GateKind::H, 0, 0.0),
            g1(GateKind::Ry, 1, 0.8),
            BoundGate::two(GateKind::Cx, 0, 2, 0.0),
        ];
        for lambda in [0.0, 0.02, 0.3, 1.0] {
            let mut a = DensityMatrix::zero_state(3);
            let mut b = DensityMatrix::zero_state(3);
            for g in &gates {
                a.apply_gate(g);
                b.apply_gate(g);
            }
            a.apply_channel(&KrausChannel::depolarizing_1q(lambda), &[1]);
            b.apply_depolarizing_1q(lambda, 1);
            for i in 0..8 {
                for j in 0..8 {
                    assert!(
                        (a.get(i, j) - b.get(i, j)).abs() < 1e-12,
                        "λ={lambda} mismatch at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn fast_depolarizing_2q_matches_kraus_form() {
        let gates = [
            g1(GateKind::H, 0, 0.0),
            BoundGate::two(GateKind::Cry, 0, 1, 1.2),
            g1(GateKind::Rz, 2, 0.4),
        ];
        for lambda in [0.0, 0.05, 0.4, 1.0] {
            let mut a = DensityMatrix::zero_state(3);
            let mut b = DensityMatrix::zero_state(3);
            for g in &gates {
                a.apply_gate(g);
                b.apply_gate(g);
            }
            a.apply_channel(&KrausChannel::depolarizing_2q(lambda), &[0, 2]);
            b.apply_depolarizing_2q(lambda, 0, 2);
            for i in 0..8 {
                for j in 0..8 {
                    assert!(
                        (a.get(i, j) - b.get(i, j)).abs() < 1e-12,
                        "λ={lambda} mismatch at ({i},{j})"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "arity")]
    fn channel_qubit_count_checked() {
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_channel(&KrausChannel::depolarizing_1q(0.1), &[0, 1]);
    }
}
