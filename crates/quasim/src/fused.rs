//! Fused density-matrix programs: runs of operations sharing a one- or
//! two-qubit support, executed block-by-block in a single pass over `ρ`.
//!
//! # Why fusion helps
//!
//! Every unitary conjugation `ρ → UρU†` and every closed-form depolarising
//! channel touches all `D²` entries of the density matrix, but a one-qubit
//! op only *couples* entries within `2×2` blocks (rows/columns paired along
//! the qubit's bit), and a two-qubit op within `4×4` blocks. A fused
//! [`Segment`] — a run of consecutive operations sharing one support, such
//! as a native gate followed by its calibration-noise channel, or a string
//! of encoding rotations on one wire — loads each block into registers
//! **once**, applies every atom in order, and stores it back: one memory
//! pass for the whole run. Matrices are *prebound* when the program is
//! built (fixed gates once per process, see
//! [`crate::gate::GateKind::fixed_entries_1q`]) and classified
//! ([`MatClass`]) so the kernels can use cheaper conjugation paths, and
//! the blocked kernels exploit `ρ`'s Hermitian symmetry (see
//! `quasim::density::kernels`).
//!
//! # Bit-identity
//!
//! Fused execution is **bit-identical** to applying the same operations
//! one by one through [`crate::density::DensityMatrix`]: atoms are never
//! reordered, segments only group *consecutive* ops with the **same**
//! support — so every atom sees exactly the triangle geometry and scalar
//! expression sequence of its standalone kernel — and prebinding changes
//! no bits because binding is a pure function of the gate.
//!
//! # Lanes
//!
//! One runner executes every fused density program, generic over a lane
//! count `B` ∈ {1, 2, 4}. At width `B` it runs `B` programs of one
//! **shape** ([`FusedProgram::same_shape`]: same qubit count, segments,
//! and per atom the same kind, [`MatClass`], CX control, `swapped` flag
//! and table index — only matrices and `λ` differ) in lockstep on a lane
//! panel: `ρ` row-major, each entry holding the `B` lanes' real parts and
//! their imaginary parts as `[f64; B]` arrays. The matrices and `λ` are
//! gathered per lane once per run. Every segment is one walk over the
//! upper block triangle (plus mirror), shared by all widths, so a block
//! load fetches the same entry of every lane and the lane arithmetic fills
//! SIMD registers. An AVX2 compilation of the runner is chosen through
//! [`crate::trajectory::KernelMode::detect`]; `QUCAD_FORCE_SCALAR` pins
//! the plain one.
//!
//! Lanes change no bits: every lane operation performs, on each lane, the
//! scalar IEEE-754 operation of the width-1 expression in the same order
//! (no FMA, no cross-lane arithmetic), and the walk order does not depend
//! on `B` (see `quasim::density::kernels`). Width 1 over plain
//! [`Complex64`] storage is [`FusedProgram::run_on`] /
//! [`crate::density::SimWorkspace::run`]; wider runs go through
//! [`crate::density::SimWorkspace::run_lanes`], which falls back to fewer
//! lanes when a `B`-lane panel would exceed the trajectory panel's
//! streaming budget ([`crate::density::SimWorkspace::max_lanes`]).
//!
//! Programs are built with [`ProgramBuilder`] (usually via the
//! `transpile::fuse` pass) and executed with
//! [`crate::density::SimWorkspace::run`],
//! [`crate::density::SimWorkspace::run_lanes`] or
//! [`crate::density::DensityMatrix::apply_fused`].

use crate::density::kernels::{self, CLane, LaneStore, Lanes16, Lanes4};
use crate::math::Complex64;
pub use crate::math::{M2, M4};
use crate::trajectory::KernelMode;

/// Structural class of a 2×2 matrix, detected once at program build time
/// so the kernels can use specialised conjugation paths (real matrices —
/// `RY`, `H`, Paulis — and diagonal matrices — `RZ`, phases — dominate the
/// transpiled circuits and cost roughly half the arithmetic of the general
/// path).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatClass {
    /// No exploitable structure.
    General,
    /// All entries have zero imaginary part.
    Real,
    /// Off-diagonal entries are exactly zero.
    Diagonal,
}

/// Classifies a 2×2 matrix for kernel specialisation.
pub fn classify2(m: &M2) -> MatClass {
    if m.iter().all(|z| z.im == 0.0) {
        MatClass::Real
    } else if m[1] == Complex64::ZERO && m[2] == Complex64::ZERO {
        MatClass::Diagonal
    } else {
        MatClass::General
    }
}

/// Which wire of a segment's support an atom acts on (`A` is the first /
/// most significant local bit, matching the two-qubit matrix convention of
/// [`crate::gate::GateKind::matrix`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Wire {
    /// The segment's first support qubit.
    A,
    /// The segment's second support qubit.
    B,
}

/// One fusible operation inside a segment.
///
/// Matrix payloads are indices into the program's prebound matrix tables,
/// keeping atoms small and `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FusedAtom {
    /// 2×2 unitary conjugation (one-qubit segments only).
    Unitary1 {
        /// Index into the program's 2×2 matrix table.
        m2: u32,
        /// Structural class of the matrix (detected at build time).
        class: MatClass,
    },
    /// Closed-form one-qubit depolarising channel (`λ` pre-clamped,
    /// non-zero; one-qubit segments only).
    Depol1 {
        /// Depolarising strength in `(0, 1]`.
        lambda: f64,
    },
    /// CNOT with the given control wire (target is the other wire).
    Cx {
        /// Control wire.
        control: Wire,
    },
    /// 4×4 unitary conjugation on both wires.
    Unitary2 {
        /// Index into the program's 4×4 matrix table.
        m4: u32,
        /// Whether the atom's own qubit order is `(B, A)` rather than the
        /// segment's `(A, B)`.
        swapped: bool,
    },
    /// Closed-form two-qubit depolarising channel (`λ` pre-clamped,
    /// non-zero).
    Depol2 {
        /// Depolarising strength in `(0, 1]`.
        lambda: f64,
        /// Whether the atom's own qubit order is `(B, A)`.
        swapped: bool,
    },
}

/// A segment's qubit support.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Support {
    /// All atoms act on this single qubit.
    One(usize),
    /// Atoms act within this ordered qubit pair (first = wire `A`).
    Two(usize, usize),
}

/// A maximal run of consecutive atoms sharing a support.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    pub(crate) support: Support,
    pub(crate) atoms: std::ops::Range<usize>,
}

impl Segment {
    /// The segment's support.
    pub fn support(&self) -> Support {
        self.support
    }

    /// Number of fused atoms in this segment.
    pub fn len(&self) -> usize {
        self.atoms.len()
    }

    /// Whether the segment is empty (never produced by the builder).
    pub fn is_empty(&self) -> bool {
        self.atoms.is_empty()
    }

    /// The segment's atom index range within the program's atom table.
    pub fn atom_range(&self) -> std::ops::Range<usize> {
        self.atoms.clone()
    }
}

/// A compiled, prebound, fusion-grouped density-matrix program.
#[derive(Debug, Clone, PartialEq)]
pub struct FusedProgram {
    pub(crate) n_qubits: usize,
    pub(crate) segments: Vec<Segment>,
    pub(crate) atoms: Vec<FusedAtom>,
    pub(crate) m2s: Vec<M2>,
    pub(crate) m4s: Vec<M4>,
    /// Provenance of precomposed `m2s` entries: `(table index, factors in
    /// application order)`. Empty unless [`FusedProgram::precompose`] built
    /// this program; lets [`crate::verify`] re-derive each product.
    pub(crate) composed2: Vec<(u32, Vec<M2>)>,
    /// Provenance of precomposed `m4s` entries (factors normalised to the
    /// segment's `(A, B)` wire order before composition).
    pub(crate) composed4: Vec<(u32, Vec<M4>)>,
}

impl FusedProgram {
    /// Number of qubits the program addresses.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The fused segments in execution order.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Total number of atoms across all segments.
    pub fn n_atoms(&self) -> usize {
        self.atoms.len()
    }

    /// The atoms of one segment, in execution order (for alternative
    /// execution engines such as [`crate::trajectory`]).
    pub fn atoms_in(&self, seg: &Segment) -> &[FusedAtom] {
        &self.atoms[seg.atoms.clone()]
    }

    /// Prebound 2×2 matrix referenced by a [`FusedAtom::Unitary1`].
    pub fn m2(&self, idx: u32) -> &M2 {
        &self.m2s[idx as usize]
    }

    /// Prebound 4×4 matrix referenced by a [`FusedAtom::Unitary2`].
    pub fn m4(&self, idx: u32) -> &M4 {
        &self.m4s[idx as usize]
    }

    /// Number of prebound 2×2 matrices in the program's table.
    pub fn n_m2s(&self) -> usize {
        self.m2s.len()
    }

    /// Number of prebound 4×4 matrices in the program's table.
    pub fn n_m4s(&self) -> usize {
        self.m4s.len()
    }

    /// All atoms in program order (segment boundaries via
    /// [`Segment::atom_range`]).
    pub fn atoms(&self) -> &[FusedAtom] {
        &self.atoms
    }

    /// Provenance of precomposed 2×2 table entries: for each `(idx,
    /// factors)` pair, `m2s[idx]` is exactly `compose2(&factors)`.
    pub fn composed2(&self) -> &[(u32, Vec<M2>)] {
        &self.composed2
    }

    /// Provenance of precomposed 4×4 table entries: for each `(idx,
    /// factors)` pair, `m4s[idx]` is exactly `compose4(&factors)`.
    pub fn composed4(&self) -> &[(u32, Vec<M4>)] {
        &self.composed4
    }

    /// Whether this program was produced by [`FusedProgram::precompose`]
    /// and actually collapsed at least one unitary run.
    pub fn is_precomposed(&self) -> bool {
        !self.composed2.is_empty() || !self.composed4.is_empty()
    }

    /// Whether the program contains no stochastic (noise-channel) atom, so
    /// any unraveling of it is exact in a single pass.
    pub fn is_deterministic(&self) -> bool {
        self.n_stochastic_atoms() == 0
    }

    /// Number of stochastic (noise-channel) atoms.
    ///
    /// Each one consumes exactly one uniform draw per trajectory, so this
    /// is also the per-trajectory RNG budget the batched panel engine
    /// ([`crate::trajectory::TrajectoryPanel`]) pre-draws to replay the
    /// per-trajectory stream bit-exactly.
    pub fn n_stochastic_atoms(&self) -> usize {
        self.atoms
            .iter()
            .filter(|a| matches!(a, FusedAtom::Depol1 { .. } | FusedAtom::Depol2 { .. }))
            .count()
    }

    /// Executes the program in place on flat row-major storage of dimension
    /// `dim = 2^n_qubits`.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != dim * dim` with `dim = 2^n_qubits`.
    pub fn run_on(&self, data: &mut [Complex64]) {
        let dim = 1usize << self.n_qubits;
        assert_eq!(data.len(), dim * dim, "storage size mismatch");
        run_lanes(data, &[self], KernelMode::detect());
    }

    /// Whether `other` has this program's **shape**: the same qubit count,
    /// the same segments (support and atom range), and per atom the same
    /// kind, [`MatClass`], CX control, `swapped` flag and matrix-table
    /// index. Programs of one shape differ only in their matrices and
    /// depolarising strengths, so they can run in lockstep as the lanes of
    /// one panel ([`crate::density::SimWorkspace::run_lanes`]).
    pub fn same_shape(&self, other: &FusedProgram) -> bool {
        self.n_qubits == other.n_qubits
            && self.segments == other.segments
            && self.m2s.len() == other.m2s.len()
            && self.m4s.len() == other.m4s.len()
            && self.atoms.len() == other.atoms.len()
            && self
                .atoms
                .iter()
                .zip(&other.atoms)
                .all(|(a, b)| atom_shape(a) == atom_shape(b))
    }

    /// A 64-bit fingerprint of the program's shape: programs of the same
    /// shape ([`Self::same_shape`]) have equal fingerprints, so comparing
    /// fingerprints first makes bucketing many programs by shape cheap.
    pub fn shape_fingerprint(&self) -> u64 {
        // FNV-1a over the shape words.
        let mut h: u64 = 0xCBF2_9CE4_8422_2325;
        let mut mix = |w: u64| {
            h ^= w;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        };
        mix(self.n_qubits as u64);
        mix(self.m2s.len() as u64);
        mix(self.m4s.len() as u64);
        for seg in &self.segments {
            match seg.support {
                Support::One(q) => mix(q as u64),
                Support::Two(a, b) => mix(1 << 32 | (a as u64) << 16 | b as u64),
            }
            mix((seg.atoms.start as u64) << 32 | seg.atoms.end as u64);
        }
        for atom in &self.atoms {
            mix(atom_shape(atom));
        }
        h
    }

    /// Returns a copy of the program with every run of two or more
    /// consecutive unitary atoms collapsed into a single precomposed
    /// matrix, so a trajectory pass applies one matrix where it used to
    /// apply several.
    ///
    /// Swapped 4×4 factors are first reoriented ([`reorient4`]) to the
    /// segment's `(A, B)` wire order, so the composed atom always carries
    /// `swapped = false`. Stochastic atoms and CNOTs are never touched or
    /// reordered, which keeps the per-trajectory RNG stream aligned with
    /// the source program. Factor provenance is recorded in
    /// [`FusedProgram::composed2`] / [`FusedProgram::composed4`] so the
    /// static verifier can re-derive every product bit-exactly.
    ///
    /// Composition changes the floating-point rounding of the affected
    /// amplitudes, so the result is numerically equivalent but **not**
    /// bit-identical to the source program — the density path (whose
    /// fused-vs-unfused bit-identity is pinned) never precomposes; the
    /// trajectory engines both run the same precomposed program, so their
    /// mutual bit-identity contract is unaffected.
    pub fn precompose(&self) -> FusedProgram {
        let mut segments = Vec::with_capacity(self.segments.len());
        let mut atoms = Vec::with_capacity(self.atoms.len());
        let mut m2s = Vec::new();
        let mut m4s = Vec::new();
        let mut composed2 = Vec::new();
        let mut composed4 = Vec::new();
        for seg in &self.segments {
            let start = atoms.len();
            let seg_atoms = self.atoms_in(seg);
            let mut i = 0;
            while i < seg_atoms.len() {
                match seg_atoms[i] {
                    FusedAtom::Unitary1 { m2, .. } => {
                        let mut factors = vec![self.m2s[m2 as usize]];
                        let mut j = i + 1;
                        while let Some(&FusedAtom::Unitary1 { m2, .. }) = seg_atoms.get(j) {
                            factors.push(self.m2s[m2 as usize]);
                            j += 1;
                        }
                        let idx = m2s.len() as u32;
                        let m = if factors.len() > 1 {
                            let product = compose2(&factors);
                            composed2.push((idx, factors));
                            product
                        } else {
                            factors[0]
                        };
                        m2s.push(m);
                        atoms.push(FusedAtom::Unitary1 {
                            m2: idx,
                            class: classify2(&m),
                        });
                        i = j;
                    }
                    FusedAtom::Unitary2 { m4, swapped } => {
                        let mut run = vec![(m4, swapped)];
                        let mut j = i + 1;
                        while let Some(&FusedAtom::Unitary2 { m4, swapped }) = seg_atoms.get(j) {
                            run.push((m4, swapped));
                            j += 1;
                        }
                        let idx = m4s.len() as u32;
                        if run.len() > 1 {
                            let factors: Vec<M4> = run
                                .iter()
                                .map(|&(m, sw)| {
                                    let mat = self.m4s[m as usize];
                                    if sw {
                                        reorient4(&mat)
                                    } else {
                                        mat
                                    }
                                })
                                .collect();
                            m4s.push(compose4(&factors));
                            composed4.push((idx, factors));
                            atoms.push(FusedAtom::Unitary2 {
                                m4: idx,
                                swapped: false,
                            });
                        } else {
                            m4s.push(self.m4s[run[0].0 as usize]);
                            atoms.push(FusedAtom::Unitary2 {
                                m4: idx,
                                swapped: run[0].1,
                            });
                        }
                        i = j;
                    }
                    atom => {
                        atoms.push(atom);
                        i += 1;
                    }
                }
            }
            segments.push(Segment {
                support: seg.support,
                atoms: start..atoms.len(),
            });
        }
        let program = FusedProgram {
            n_qubits: self.n_qubits,
            segments,
            atoms,
            m2s,
            m4s,
            composed2,
            composed4,
        };
        debug_assert!(
            crate::verify::verify_program(&program).is_ok(),
            "precompose produced an invalid program: {}",
            crate::verify::verify_program(&program).unwrap_err()
        );
        program
    }
}

/// Row-major product `lhs · rhs` of two 2×2 complex matrices, each entry
/// accumulated in ascending `k` order — the verifier re-derives composed
/// products with this exact expression, so the order is part of the
/// contract.
pub fn matmul2(lhs: &M2, rhs: &M2) -> M2 {
    let mut out = [Complex64::ZERO; 4];
    for r in 0..2 {
        for c in 0..2 {
            let mut acc = Complex64::ZERO;
            for k in 0..2 {
                acc += lhs[r * 2 + k] * rhs[k * 2 + c];
            }
            out[r * 2 + c] = acc;
        }
    }
    out
}

/// Row-major product `lhs · rhs` of two 4×4 complex matrices (same
/// accumulation-order contract as [`matmul2`]).
pub fn matmul4(lhs: &M4, rhs: &M4) -> M4 {
    let mut out = [Complex64::ZERO; 16];
    for r in 0..4 {
        for c in 0..4 {
            let mut acc = Complex64::ZERO;
            for k in 0..4 {
                acc += lhs[r * 4 + k] * rhs[k * 4 + c];
            }
            out[r * 4 + c] = acc;
        }
    }
    out
}

/// Composes 2×2 factors given in **application order** (`factors[0]`
/// applied first), producing `f_{n-1} · … · f_1 · f_0` by left-multiplying
/// one factor at a time.
///
/// # Panics
///
/// Panics if `factors` is empty.
pub fn compose2(factors: &[M2]) -> M2 {
    factors
        .iter()
        .skip(1)
        .fold(factors[0], |acc, f| matmul2(f, &acc))
}

/// Composes 4×4 factors given in application order (see [`compose2`]).
///
/// # Panics
///
/// Panics if `factors` is empty.
pub fn compose4(factors: &[M4]) -> M4 {
    factors
        .iter()
        .skip(1)
        .fold(factors[0], |acc, f| matmul4(f, &acc))
}

/// Re-expresses a 4×4 matrix given in `(B, A)` qubit order in `(A, B)`
/// order by conjugating with the two-qubit SWAP permutation: entry
/// `(r, c)` moves to `(P[r], P[c])` with `P = [0, 2, 1, 3]`.
pub fn reorient4(m: &M4) -> M4 {
    const P: [usize; 4] = [0, 2, 1, 3];
    let mut out = [Complex64::ZERO; 16];
    for r in 0..4 {
        for c in 0..4 {
            out[r * 4 + c] = m[P[r] * 4 + P[c]];
        }
    }
    out
}

/// Incremental builder performing the greedy fusion grouping.
///
/// Operations pushed in program order are appended to the currently open
/// segment when their support equals the segment's (two-qubit pairs match
/// in either order); any support change flushes the segment and opens a
/// new one. Atoms are never reordered, so execution is bit-identical to
/// the unfused sequence.
#[derive(Debug, Clone)]
pub struct ProgramBuilder {
    n_qubits: usize,
    segments: Vec<Segment>,
    atoms: Vec<FusedAtom>,
    m2s: Vec<M2>,
    m4s: Vec<M4>,
    open: Option<(Support, usize)>,
}

impl ProgramBuilder {
    /// Creates a builder for `n_qubits`.
    ///
    /// The cap matches the trajectory engine's
    /// [`crate::trajectory::MAX_TRAJECTORY_QUBITS`]: a program is just an
    /// instruction stream, so it can address registers far beyond what the
    /// dense density-matrix engine (capped at
    /// [`crate::density::MAX_DENSITY_QUBITS`]) can execute.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or greater than 24.
    pub fn new(n_qubits: usize) -> Self {
        assert!(
            (1..=crate::trajectory::MAX_TRAJECTORY_QUBITS).contains(&n_qubits),
            "unsupported qubit count"
        );
        ProgramBuilder {
            n_qubits,
            segments: Vec::new(),
            atoms: Vec::new(),
            m2s: Vec::new(),
            m4s: Vec::new(),
            open: None,
        }
    }

    fn flush(&mut self) {
        if let Some((support, start)) = self.open.take() {
            if start < self.atoms.len() {
                self.segments.push(Segment {
                    support,
                    atoms: start..self.atoms.len(),
                });
            }
        }
    }

    /// Ensures the open segment is exactly the one-qubit support `{q}`.
    ///
    /// Fusion only ever groups operations with the **same** support: a run
    /// executes block-by-block with the support's own triangle geometry,
    /// which keeps the fused result bit-identical to op-by-op execution.
    /// (Nesting a one-qubit op into a two-qubit segment would change which
    /// Hermitian mirror elements are derived versus computed, and with it
    /// the low-order bits.)
    fn align_one(&mut self, q: usize) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        match self.open {
            Some((Support::One(a), _)) if a == q => {}
            _ => {
                self.flush();
                self.open = Some((Support::One(q), self.atoms.len()));
            }
        }
    }

    /// Ensures the open segment covers exactly the unordered pair
    /// `{x, y}`; returns whether `(x, y)` is swapped relative to the
    /// segment's support order.
    fn align_two(&mut self, x: usize, y: usize) -> bool {
        assert!(x < self.n_qubits && y < self.n_qubits, "qubit out of range");
        assert_ne!(x, y, "qubits must be distinct");
        match self.open {
            Some((Support::Two(a, b), _)) if (a, b) == (x, y) => false,
            Some((Support::Two(a, b), _)) if (a, b) == (y, x) => true,
            _ => {
                self.flush();
                self.open = Some((Support::Two(x, y), self.atoms.len()));
                false
            }
        }
    }

    /// Appends a prebound 2×2 unitary on qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn unitary_1q(&mut self, q: usize, m: M2) {
        self.align_one(q);
        let class = classify2(&m);
        let m2 = self.m2s.len() as u32;
        self.m2s.push(m);
        self.atoms.push(FusedAtom::Unitary1 { m2, class });
    }

    /// Appends a one-qubit depolarising channel on `q` (`λ` clamped to
    /// `[0, 1]`; a resulting `λ = 0` is an exact no-op and is dropped).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn depolarize_1q(&mut self, q: usize, lambda: f64) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let l = lambda.clamp(0.0, 1.0);
        if l == 0.0 {
            return;
        }
        self.align_one(q);
        self.atoms.push(FusedAtom::Depol1 { lambda: l });
    }

    /// Appends a CNOT.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn cx(&mut self, control: usize, target: usize) {
        let swapped = self.align_two(control, target);
        self.atoms.push(FusedAtom::Cx {
            control: if swapped { Wire::B } else { Wire::A },
        });
    }

    /// Appends a prebound 4×4 unitary on the ordered pair
    /// `(first, second)`; `first` is the most significant local bit.
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn unitary_2q(&mut self, first: usize, second: usize, m: M4) {
        let swapped = self.align_two(first, second);
        let m4 = self.m4s.len() as u32;
        self.m4s.push(m);
        self.atoms.push(FusedAtom::Unitary2 { m4, swapped });
    }

    /// Appends a two-qubit depolarising channel (`λ` clamped; `λ = 0`
    /// dropped as an exact no-op).
    ///
    /// # Panics
    ///
    /// Panics if indices are out of range or equal.
    pub fn depolarize_2q(&mut self, lambda: f64, first: usize, second: usize) {
        assert!(
            first < self.n_qubits && second < self.n_qubits,
            "qubit out of range"
        );
        assert_ne!(first, second, "qubits must be distinct");
        let l = lambda.clamp(0.0, 1.0);
        if l == 0.0 {
            return;
        }
        let swapped = self.align_two(first, second);
        self.atoms.push(FusedAtom::Depol2 { lambda: l, swapped });
    }

    /// Finalises the program.
    pub fn finish(mut self) -> FusedProgram {
        self.flush();
        let program = FusedProgram {
            n_qubits: self.n_qubits,
            segments: self.segments,
            atoms: self.atoms,
            m2s: self.m2s,
            m4s: self.m4s,
            composed2: Vec::new(),
            composed4: Vec::new(),
        };
        // Compile-boundary invariant check: every program leaving the
        // builder satisfies the full IR contract (debug/test builds only;
        // release builds rely on `verify_program` being run explicitly).
        debug_assert!(
            crate::verify::verify_program(&program).is_ok(),
            "builder produced an invalid program: {}",
            crate::verify::verify_program(&program).unwrap_err()
        );
        program
    }
}

/// Canonical-index map for an atom's own quartet order: identity when the
/// atom's qubit order matches the segment support, bit-swap otherwise.
#[inline]
fn quartet_map(swapped: bool) -> [usize; 4] {
    if swapped {
        [0, 2, 1, 3]
    } else {
        kernels::IDENTITY_MAP
    }
}

/// Shape word of one atom: its kind, `MatClass`, CX control or `swapped`
/// flag, and matrix-table index — everything but the matrix and `λ`.
fn atom_shape(atom: &FusedAtom) -> u64 {
    match *atom {
        FusedAtom::Unitary1 { m2, class } => 1 | (class as u64) << 8 | u64::from(m2) << 32,
        FusedAtom::Depol1 { .. } => 2,
        FusedAtom::Cx { control } => 3 | (control as u64) << 8,
        FusedAtom::Unitary2 { m4, swapped } => 4 | u64::from(swapped) << 8 | u64::from(m4) << 32,
        FusedAtom::Depol2 { swapped, .. } => 5 | u64::from(swapped) << 8,
    }
}

/// Per-lane operands of `B` same-shape programs, gathered lane-major once
/// per run: lane `k` of every entry belongs to program `k`.
struct LaneOperands<const B: usize> {
    m2s: Vec<Lanes4<B>>,
    m4s: Vec<Lanes16<B>>,
    /// Depolarising strength per atom position (unused for other atoms).
    lambdas: Vec<[f64; B]>,
}

impl<const B: usize> LaneOperands<B> {
    fn gather(programs: &[&FusedProgram; B]) -> Self {
        let shape = programs[0];
        LaneOperands {
            m2s: (0..shape.m2s.len())
                .map(|i| std::array::from_fn(|e| CLane::gather(|k| programs[k].m2s[i][e])))
                .collect(),
            m4s: (0..shape.m4s.len())
                .map(|i| std::array::from_fn(|e| CLane::gather(|k| programs[k].m4s[i][e])))
                .collect(),
            lambdas: (0..shape.atoms.len())
                .map(|a| {
                    std::array::from_fn(|k| match programs[k].atoms[a] {
                        FusedAtom::Depol1 { lambda } | FusedAtom::Depol2 { lambda, .. } => lambda,
                        _ => 0.0,
                    })
                })
                .collect(),
        }
    }
}

/// Runs `B` programs of one shape ([`FusedProgram::same_shape`], checked
/// by the caller) in lockstep on the lane storage `data`: lane `k` of
/// `data` evolves under `programs[k]`, bit-identical to a width-1 run of
/// that program alone (see the `quasim::density::kernels` lane contract).
///
/// `kernel` picks the compilation: [`KernelMode::Avx2`] runs an AVX2
/// compilation of the same code ([`KernelMode::detect`] picks it unless
/// `QUCAD_FORCE_SCALAR` is set), [`KernelMode::Scalar`] the plain one.
/// Both compile the identical lane expressions, which contain no FMA, so
/// they agree bit for bit.
pub(crate) fn run_lanes<const B: usize, S: LaneStore<B> + ?Sized>(
    data: &mut S,
    programs: &[&FusedProgram; B],
    kernel: KernelMode,
) {
    let shape = programs[0];
    let dim = 1usize << shape.n_qubits;
    let operands = LaneOperands::gather(programs);
    match kernel {
        KernelMode::Scalar => run_segments(data, dim, shape, &operands),
        KernelMode::Avx2 => {
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `Avx2` is only constructed after `avx2_supported()`
            // returned true (`detect` / `set_kernel_mode`), so the avx2
            // target feature is available on this CPU.
            unsafe {
                run_segments_avx2(data, dim, shape, &operands);
            }
            #[cfg(not(target_arch = "x86_64"))]
            unreachable!("KernelMode::Avx2 cannot be constructed off x86_64");
        }
    }
}

/// [`run_segments`] compiled for AVX2, so the lane arithmetic becomes
/// 4-wide vector instructions.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn run_segments_avx2<const B: usize, S: LaneStore<B> + ?Sized>(
    data: &mut S,
    dim: usize,
    shape: &FusedProgram,
    operands: &LaneOperands<B>,
) {
    run_segments(data, dim, shape, operands);
}

/// The fused-density runner: one block walk per segment of `shape`, every
/// atom of the segment applied to each block in program order. Everything
/// below it is forced inline (the block closures included), so the AVX2
/// copy compiles the lane arithmetic with AVX2.
#[inline(always)]
fn run_segments<const B: usize, S: LaneStore<B> + ?Sized>(
    data: &mut S,
    dim: usize,
    shape: &FusedProgram,
    operands: &LaneOperands<B>,
) {
    for seg in &shape.segments {
        let atoms = &shape.atoms[seg.atoms.clone()];
        let lambdas = &operands.lambdas[seg.atoms.clone()];
        match seg.support {
            Support::One(q) => kernels::walk_1q(
                data,
                dim,
                q,
                #[inline(always)]
                |mut blk| {
                    for (atom, &l) in atoms.iter().zip(lambdas) {
                        blk = match *atom {
                            FusedAtom::Unitary1 { m2, class } => {
                                kernels::conj2(blk, &operands.m2s[m2 as usize], class)
                            }
                            FusedAtom::Depol1 { .. } => kernels::depol1(blk, l),
                            _ => unreachable!("two-qubit atom in one-qubit segment"),
                        };
                    }
                    blk
                },
            ),
            Support::Two(a, b) => kernels::walk_2q(
                data,
                dim,
                a,
                b,
                #[inline(always)]
                |blk| {
                    for (atom, &l) in atoms.iter().zip(lambdas) {
                        match *atom {
                            FusedAtom::Cx { control } => kernels::cx_block(blk, control == Wire::A),
                            FusedAtom::Unitary2 { m4, swapped } => kernels::conj4(
                                blk,
                                &operands.m4s[m4 as usize],
                                quartet_map(swapped),
                            ),
                            FusedAtom::Depol2 { swapped, .. } => {
                                kernels::depol2(blk, l, quartet_map(swapped));
                            }
                            _ => unreachable!("one-qubit atom in two-qubit segment"),
                        }
                    }
                },
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityMatrix;
    use crate::gate::{BoundGate, GateKind};

    fn assert_rho_bits_eq(a: &DensityMatrix, b: &DensityMatrix) {
        for i in 0..a.dim() {
            for j in 0..a.dim() {
                let (x, y) = (a.get(i, j), b.get(i, j));
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "ρ[{i},{j}] differs: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn builder_groups_consecutive_same_wire_ops() {
        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(0, GateKind::H.matrix(0.0).to_2x2().unwrap());
        b.depolarize_1q(0, 0.1);
        b.unitary_1q(0, GateKind::Ry.matrix(0.4).to_2x2().unwrap());
        b.unitary_1q(1, GateKind::H.matrix(0.0).to_2x2().unwrap());
        let p = b.finish();
        assert_eq!(p.segments().len(), 2);
        assert_eq!(p.segments()[0].len(), 3);
        assert_eq!(p.segments()[0].support(), Support::One(0));
        assert_eq!(p.segments()[1].support(), Support::One(1));
    }

    #[test]
    fn builder_fuses_gate_with_its_channel() {
        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(1, GateKind::H.matrix(0.0).to_2x2().unwrap());
        b.cx(0, 1);
        b.depolarize_2q(0.05, 0, 1); // fuses with the CX (same pair)
        b.cx(1, 0);
        b.depolarize_2q(0.05, 1, 0); // reversed order still fuses
        b.unitary_1q(0, GateKind::X.matrix(0.0).to_2x2().unwrap());
        let p = b.finish();
        assert_eq!(p.segments().len(), 3);
        assert_eq!(p.segments()[0].support(), Support::One(1));
        assert_eq!(p.segments()[1].support(), Support::Two(0, 1));
        assert_eq!(p.segments()[1].len(), 4);
        assert_eq!(p.segments()[2].support(), Support::One(0));
        assert_eq!(p.n_atoms(), 6);
    }

    #[test]
    fn zero_lambda_channels_are_dropped() {
        let mut b = ProgramBuilder::new(2);
        b.depolarize_1q(0, 0.0);
        b.depolarize_2q(-3.0, 0, 1); // clamps to 0
        let p = b.finish();
        assert_eq!(p.n_atoms(), 0);
        assert!(p.segments().is_empty());
    }

    #[test]
    fn fused_cry_decomposition_matches_unfused_bits() {
        // The native expansion of a noisy CRY: CX · dep2 · RY(−θ/2) · dep1 ·
        // CX · dep2 · RY(θ/2) · dep1 — one fused segment, bit-identical to
        // the DensityMatrix op-by-op path.
        let theta: f64 = 1.234;
        let prep = [
            BoundGate::one(GateKind::H, 0, 0.0),
            BoundGate::one(GateKind::Ry, 1, 0.8),
            BoundGate::one(GateKind::Rz, 2, -0.3),
        ];

        let mut reference = DensityMatrix::zero_state(3);
        for g in &prep {
            reference.apply_gate(g);
        }
        reference.apply_cx(0, 1);
        reference.apply_depolarizing_2q(0.04, 0, 1);
        reference.apply_unitary_1q(&GateKind::Ry.matrix(-theta / 2.0), 1);
        reference.apply_depolarizing_1q(0.01, 1);
        reference.apply_cx(0, 1);
        reference.apply_depolarizing_2q(0.04, 0, 1);
        reference.apply_unitary_1q(&GateKind::Ry.matrix(theta / 2.0), 1);
        reference.apply_depolarizing_1q(0.01, 1);

        let mut b = ProgramBuilder::new(3);
        for g in &prep {
            b.unitary_1q(g.qubits()[0], g.matrix().to_2x2().unwrap());
        }
        b.cx(0, 1);
        b.depolarize_2q(0.04, 0, 1);
        b.unitary_1q(1, GateKind::Ry.matrix(-theta / 2.0).to_2x2().unwrap());
        b.depolarize_1q(1, 0.01);
        b.cx(0, 1);
        b.depolarize_2q(0.04, 0, 1);
        b.unitary_1q(1, GateKind::Ry.matrix(theta / 2.0).to_2x2().unwrap());
        b.depolarize_1q(1, 0.01);
        let p = b.finish();
        // Each CX fuses with its following channel, each rotation with its
        // channel; the prep is three 1q segments.
        assert_eq!(p.segments().len(), 7);

        let mut fused = DensityMatrix::zero_state(3);
        fused.apply_fused(&p);
        assert_rho_bits_eq(&fused, &reference);
    }

    #[test]
    fn swapped_2q_atoms_match_unfused_bits() {
        let u = GateKind::Crz.matrix(0.9);
        let mut reference = DensityMatrix::zero_state(3);
        reference.apply_unitary_1q(&GateKind::H.matrix(0.0), 0);
        reference.apply_unitary_1q(&GateKind::H.matrix(0.0), 2);
        reference.apply_unitary_2q(&u, 0, 2);
        reference.apply_unitary_2q(&u, 2, 0);
        reference.apply_depolarizing_2q(0.07, 2, 0);

        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(0, GateKind::H.matrix(0.0).to_2x2().unwrap());
        b.unitary_1q(2, GateKind::H.matrix(0.0).to_2x2().unwrap());
        b.unitary_2q(0, 2, u.to_4x4().unwrap());
        b.unitary_2q(2, 0, u.to_4x4().unwrap());
        b.depolarize_2q(0.07, 2, 0);
        let p = b.finish();
        // H(0) and H(2) are separate 1q runs; all three 2q ops share the
        // unordered pair {0, 2} and fuse, the reversed ones via `swapped`.
        assert_eq!(p.segments().len(), 3);

        let mut fused = DensityMatrix::zero_state(3);
        fused.apply_fused(&p);
        assert_rho_bits_eq(&fused, &reference);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn builder_rejects_bad_qubit() {
        let mut b = ProgramBuilder::new(2);
        b.unitary_1q(5, [Complex64::ONE; 4]);
    }

    fn assert_m_bits_eq(a: &[Complex64], b: &[Complex64]) {
        for (x, y) in a.iter().zip(b) {
            assert!(
                x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                "matrix entries differ: {x} vs {y}"
            );
        }
    }

    #[test]
    fn matmul_and_compose_follow_application_order() {
        let h = GateKind::H.matrix(0.0).to_2x2().unwrap();
        let rz = GateKind::Rz.matrix(0.7).to_2x2().unwrap();
        // "Apply H, then Rz" composes to the product Rz · H.
        assert_m_bits_eq(&compose2(&[h, rz]), &matmul2(&rz, &h));
        assert_m_bits_eq(&compose2(&[h]), &h);
        let crz = GateKind::Crz.matrix(0.9).to_4x4().unwrap();
        let cry = GateKind::Cry.matrix(0.4).to_4x4().unwrap();
        assert_m_bits_eq(&compose4(&[crz, cry]), &matmul4(&cry, &crz));
        // Reorientation is an involutive permutation of the entries.
        assert_m_bits_eq(&reorient4(&reorient4(&crz)), &crz);
    }

    #[test]
    fn precompose_collapses_runs_and_records_provenance() {
        let mut b = ProgramBuilder::new(2);
        b.unitary_1q(0, GateKind::H.matrix(0.0).to_2x2().unwrap());
        b.unitary_1q(0, GateKind::Rz.matrix(0.7).to_2x2().unwrap());
        b.unitary_1q(0, GateKind::Ry.matrix(-0.3).to_2x2().unwrap());
        b.depolarize_1q(0, 0.02);
        b.unitary_1q(0, GateKind::X.matrix(0.0).to_2x2().unwrap());
        b.unitary_2q(0, 1, GateKind::Crz.matrix(0.9).to_4x4().unwrap());
        b.unitary_2q(1, 0, GateKind::Cry.matrix(0.4).to_4x4().unwrap());
        b.depolarize_2q(0.05, 0, 1);
        let p = b.finish();
        assert!(!p.is_precomposed());

        let pc = p.precompose();
        assert!(pc.is_precomposed());
        assert_eq!(pc.segments().len(), p.segments().len());
        // q0 run of 3 → 1 composed atom; lone X and the channels survive.
        assert_eq!(pc.n_atoms(), 5);
        assert_eq!(pc.n_stochastic_atoms(), p.n_stochastic_atoms());
        assert_eq!(pc.composed2().len(), 1);
        assert_eq!(pc.composed2()[0].1.len(), 3);
        assert_eq!(pc.composed4().len(), 1);
        assert_eq!(pc.composed4()[0].1.len(), 2);
        // Products are re-derivable bit-exactly from the recorded factors.
        let (idx2, f2) = &pc.composed2()[0];
        assert_m_bits_eq(pc.m2(*idx2), &compose2(f2));
        let (idx4, f4) = &pc.composed4()[0];
        assert_m_bits_eq(pc.m4(*idx4), &compose4(f4));
        // The swapped factor was reoriented, so the composed atom is
        // expressed in the segment's own (A, B) order.
        let composed_atom = pc
            .atoms()
            .iter()
            .find(|a| matches!(a, FusedAtom::Unitary2 { .. }))
            .unwrap();
        assert!(matches!(
            composed_atom,
            FusedAtom::Unitary2 { swapped: false, .. }
        ));
        assert!(crate::verify::verify_program(&pc).is_ok());
    }

    #[test]
    fn precomposed_program_is_numerically_equivalent() {
        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(0, GateKind::H.matrix(0.0).to_2x2().unwrap());
        b.unitary_1q(0, GateKind::Rz.matrix(0.7).to_2x2().unwrap());
        b.cx(0, 1);
        b.unitary_2q(0, 1, GateKind::Crz.matrix(0.9).to_4x4().unwrap());
        b.unitary_2q(1, 0, GateKind::Cry.matrix(0.4).to_4x4().unwrap());
        b.depolarize_2q(0.05, 0, 1);
        b.unitary_1q(2, GateKind::Ry.matrix(0.8).to_2x2().unwrap());
        b.unitary_1q(2, GateKind::Rz.matrix(-0.2).to_2x2().unwrap());
        let p = b.finish();
        let pc = p.precompose();

        let mut plain = DensityMatrix::zero_state(3);
        plain.apply_fused(&p);
        let mut pre = DensityMatrix::zero_state(3);
        pre.apply_fused(&pc);
        for i in 0..plain.dim() {
            for j in 0..plain.dim() {
                let (x, y) = (plain.get(i, j), pre.get(i, j));
                assert!(
                    (x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12,
                    "ρ[{i},{j}] diverged: {x} vs {y}"
                );
            }
        }
    }
}
