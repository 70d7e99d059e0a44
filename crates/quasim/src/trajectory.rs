//! Monte-Carlo wavefunction (quantum-trajectory) simulation.
//!
//! The density-matrix engine in [`crate::density`] is exact but costs
//! O(4^n) per operation, which caps it at [`crate::density::MAX_DENSITY_QUBITS`]
//! qubits. This module trades exactness for reach: it *unravels* each noise
//! channel into stochastic jumps on a pure
//! [`StateVector`](crate::statevector::StateVector)-style register, so one
//! **trajectory** costs O(2^n) per operation and the channel average
//! is recovered by averaging many independently-seeded trajectories. That
//! unlocks 14–16-qubit devices (e.g. `ibm_guadalupe`) that no dense `ρ`
//! can touch.
//!
//! # Unraveling
//!
//! The calibration-driven device model is built from depolarising channels,
//! which are *mixed-unitary*: `ρ → Σ_k p_k U_k ρ U_k†` with state-independent
//! probabilities (`I` with `1−3λ/4`, each Pauli with `λ/4`; the 16
//! two-qubit Pauli products analogously). A trajectory samples one `U_k`
//! per channel application and applies it — no renormalisation needed, the
//! sampled operator is unitary. The expectation over trajectories equals
//! the exact channel average, so per-qubit `P(1)` estimates are unbiased
//! with variance ≤ 1/4 per trajectory.
//!
//! General (non-mixed-unitary) CPTP channels, e.g. amplitude damping, are
//! supported through [`TrajectoryWorkspace::apply_channel_stochastic`]: jump
//! probabilities `p_k = ⟨ψ|K_k†K_k|ψ⟩` are computed from the state and the
//! chosen branch is renormalised.
//!
//! # Program reuse
//!
//! Trajectories execute the same compiled [`FusedProgram`]s as the density
//! engine (built once per evaluation by `transpile::fuse`), reusing its
//! prebound matrices and [`MatClass`] classification — diagonal atoms
//! (`RZ`, phases) skip the amplitude-pair gather entirely. Atoms are walked
//! in program order, so a trajectory with no stochastic atom is exactly the
//! noise-free state-vector run.
//!
//! # Batched panels
//!
//! [`TrajectoryPanel`] executes `B` trajectories at once on one contiguous
//! `2^n × B` amplitude panel: every fused atom is applied a single time
//! across all columns, amortising matrix classification, segment dispatch,
//! and index arithmetic `B`-fold while turning the inner loops into
//! straight-line sweeps over adjacent memory. Stochastic jumps stay
//! per-column (each column pre-draws its own uniforms), so
//! [`estimate_prob_one_panel`] is **bit-identical** to
//! [`estimate_prob_one`] at every panel width — the width
//! (`QUCAD_TRAJ_BATCH`, default [`auto_panel_width`]) is purely a
//! performance knob.
//!
//! # Tiling
//!
//! The panel runs one tiled pass per supergroup (a run of fused segments
//! on `k ≤ 3` wires), and one engine serves every `k`: the pass walks the
//! panel in cache-sized windows of the group's `2^k` strips, and the
//! group's whole atom chain runs over each window before the next is
//! loaded. A wire `q` has stride `2^q · B` elements; the walk finds the
//! strips' sub-block starts by inserting a zero digit at each of the
//! group's sorted strides, as `insert_zero_bit` does with bit masks. On
//! low wires the strips are shorter than a tile, so a window gathers
//! `tile / s0` consecutive sub-blocks (`s0` the lowest stride) **by
//! reference**: the chain is dispatched once per window, and each atom's
//! kernel walks a span plan in which runs that are adjacent in memory
//! with the same partner offset are coalesced into one kernel call. CNOTs
//! swap strip references rather than data, and the net permutation is
//! written back once per window. None of this reorders any element's
//! arithmetic, so every width and tiling gives the same bits.
//!
//! # Determinism
//!
//! All randomness comes from the caller-seeded RNG passed in; a fixed seed
//! replays the identical jump record, which is what the cross-backend
//! consistency harness and the thread-invariance guarantees of
//! `qnn::executor::parallel` rely on. The panel engine consumes the same
//! stream in the same trajectory-major order, so seeds mean the same
//! thing on both engines.
//!
//! # Examples
//!
//! ```
//! use quasim::fused::ProgramBuilder;
//! use quasim::gate::GateKind;
//! use quasim::trajectory::{estimate_prob_one, TrajectoryWorkspace};
//!
//! let mut b = ProgramBuilder::new(2);
//! b.unitary_1q(0, GateKind::H.entries_1q(0.0).unwrap());
//! b.cx(0, 1);
//! b.depolarize_1q(1, 0.1);
//! let program = b.finish();
//!
//! let mut ws = TrajectoryWorkspace::new();
//! let est = estimate_prob_one(&mut ws, &program, &[1], 200, 7);
//! // Bell pair + weak depolarising: P(1) stays near 1/2.
//! assert!((est.p_one[0] - 0.5).abs() < 0.15);
//! ```

use crate::config::KernelMode;
use crate::density::kernels::insert_zero_bit;
use crate::fused::{FusedAtom, FusedProgram, MatClass, Segment, Support, Wire};
use crate::math::{Complex64, M2, M4};
use crate::noise::KrausChannel;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Largest register the trajectory engine accepts (matches
/// [`crate::statevector::StateVector`]'s cap).
pub const MAX_TRAJECTORY_QUBITS: usize = 24;

/// Applies a 2×2 matrix (not necessarily unitary) to qubit `q` in place.
///
/// All kernels here enumerate only the coupled index sets via
/// [`insert_zero_bit`] (the same bit-twiddling the density kernels use):
/// no per-index masking branch, which matters at 2^16 amplitudes per op.
fn m2_on(amps: &mut [Complex64], q: usize, m: &M2, class: MatClass) {
    let mask = 1usize << q;
    let half = amps.len() >> 1;
    if class == MatClass::Diagonal {
        // RZ / phase family: pure per-amplitude scaling, no pair gather.
        let (d0, d1) = (m[0], m[3]);
        for k in 0..half {
            let i = insert_zero_bit(k, mask);
            let j = i | mask;
            amps[i] *= d0;
            amps[j] *= d1;
        }
        return;
    }
    if class == MatClass::Real {
        // RY / H / Pauli family: every entry has exactly zero imaginary
        // part (`classify2`), so the real and imaginary planes transform
        // independently — half the arithmetic of the general path. The
        // panel kernels' Real branch uses these same expressions, keeping
        // the two engines bit-identical.
        let (m00, m01, m10, m11) = (m[0].re, m[1].re, m[2].re, m[3].re);
        for k in 0..half {
            let i = insert_zero_bit(k, mask);
            let j = i | mask;
            let a0 = amps[i];
            let a1 = amps[j];
            amps[i] = Complex64::new(m00 * a0.re + m01 * a1.re, m00 * a0.im + m01 * a1.im);
            amps[j] = Complex64::new(m10 * a0.re + m11 * a1.re, m10 * a0.im + m11 * a1.im);
        }
        return;
    }
    let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);
    for k in 0..half {
        let i = insert_zero_bit(k, mask);
        let j = i | mask;
        let a0 = amps[i];
        let a1 = amps[j];
        amps[i] = m00 * a0 + m01 * a1;
        amps[j] = m10 * a0 + m11 * a1;
    }
}

/// Applies a 4×4 matrix to the ordered qubit pair `(hi, lo)` in place;
/// `hi` is the most significant local bit, matching
/// [`crate::gate::GateKind::matrix`].
fn m4_on(amps: &mut [Complex64], hi: usize, lo: usize, m: &M4) {
    let mh = 1usize << hi;
    let ml = 1usize << lo;
    let (m_small, m_big) = if mh < ml { (mh, ml) } else { (ml, mh) };
    let quarter = amps.len() >> 2;
    for k in 0..quarter {
        let i = insert_zero_bit(insert_zero_bit(k, m_small), m_big);
        let idx = [i, i | ml, i | mh, i | mh | ml];
        let old = [amps[idx[0]], amps[idx[1]], amps[idx[2]], amps[idx[3]]];
        for r in 0..4 {
            let mut acc = Complex64::ZERO;
            for (c, &o) in old.iter().enumerate() {
                acc += m[r * 4 + c] * o;
            }
            amps[idx[r]] = acc;
        }
    }
}

/// Applies CNOT as an index permutation.
fn cx_on(amps: &mut [Complex64], control: usize, target: usize) {
    let cm = 1usize << control;
    let tm = 1usize << target;
    let (m_small, m_big) = if cm < tm { (cm, tm) } else { (tm, cm) };
    let quarter = amps.len() >> 2;
    for k in 0..quarter {
        let i = insert_zero_bit(insert_zero_bit(k, m_small), m_big) | cm;
        amps.swap(i, i | tm);
    }
}

/// Applies a Pauli (`1 = X`, `2 = Y`, `3 = Z`) to qubit `q` in place.
fn pauli_on(amps: &mut [Complex64], q: usize, pauli: usize) {
    let mask = 1usize << q;
    let half = amps.len() >> 1;
    match pauli {
        1 => {
            for k in 0..half {
                let i = insert_zero_bit(k, mask);
                amps.swap(i, i | mask);
            }
        }
        2 => {
            for k in 0..half {
                let i = insert_zero_bit(k, mask);
                let j = i | mask;
                let a0 = amps[i];
                let a1 = amps[j];
                // Y = [[0, −i], [i, 0]].
                amps[i] = Complex64::new(a1.im, -a1.re);
                amps[j] = Complex64::new(-a0.im, a0.re);
            }
        }
        3 => {
            for k in 0..half {
                let j = insert_zero_bit(k, mask) | mask;
                let a = amps[j];
                amps[j] = Complex64::new(-a.re, -a.im);
            }
        }
        _ => unreachable!("pauli index must be 1..=3"),
    }
}

/// Maps one uniform draw to a one-qubit depolarising branch: `0` is the
/// identity (probability `1 − 3λ/4`), `1..=3` the Paulis (λ/4 each).
///
/// Shared by the per-trajectory and panel engines so the two can never
/// disagree on a branch for the same `(λ, u)` pair — the foundation of
/// their bit-identity contract.
#[inline]
fn depol1_branch(lambda: f64, u: f64) -> usize {
    let l = lambda.clamp(0.0, 1.0);
    let w_id = 1.0 - 3.0 * l / 4.0;
    if u < w_id {
        return 0;
    }
    // Map the residual mass onto the three Paulis; the clamp guards the
    // u ≈ 1 rounding edge.
    (((u - w_id) / (l / 4.0)) as usize).min(2) + 1
}

/// Maps one uniform draw to a two-qubit depolarising branch: `0` is `I⊗I`
/// (probability `1 − 15λ/16`), `1..=15` index the non-identity Pauli
/// products as `(k >> 2, k & 3)`.
#[inline]
fn depol2_branch(lambda: f64, u: f64) -> usize {
    let l = lambda.clamp(0.0, 1.0);
    let w_id = 1.0 - 15.0 * l / 16.0;
    if u < w_id {
        return 0;
    }
    (((u - w_id) / (l / 16.0)) as usize).min(14) + 1
}

/// A reusable pure-state register for trajectory simulation.
///
/// Owns the amplitude storage (plus a scratch buffer for generic Kraus
/// unraveling), so a worker thread can run thousands of trajectories with
/// one allocation: [`TrajectoryWorkspace::reset_zero`] re-initialises in
/// place and [`TrajectoryWorkspace::run_stochastic`] executes a fused
/// program with stochastic jumps.
#[derive(Debug, Clone, Default)]
pub struct TrajectoryWorkspace {
    n_qubits: usize,
    amps: Vec<Complex64>,
    scratch: Vec<Complex64>,
}

impl TrajectoryWorkspace {
    /// Creates an empty workspace (no storage until the first reset).
    pub fn new() -> Self {
        TrajectoryWorkspace::default()
    }

    /// Re-initialises the state to `|0…0⟩` over `n_qubits`, reusing the
    /// buffer when large enough.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or greater than
    /// [`MAX_TRAJECTORY_QUBITS`].
    pub fn reset_zero(&mut self, n_qubits: usize) {
        assert!(
            (1..=MAX_TRAJECTORY_QUBITS).contains(&n_qubits),
            "unsupported qubit count"
        );
        self.n_qubits = n_qubits;
        self.amps.clear();
        self.amps.resize(1usize << n_qubits, Complex64::ZERO);
        self.amps[0] = Complex64::ONE;
    }

    /// Number of qubits of the current state (0 before the first reset).
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Raw amplitudes (length `2^n`).
    pub fn amplitudes(&self) -> &[Complex64] {
        &self.amps
    }

    /// Probability of measuring qubit `q` as `1`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn prob_one(&self, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let mask = 1usize << q;
        (0..self.amps.len() >> 1)
            .map(|k| self.amps[insert_zero_bit(k, mask) | mask].norm_sqr())
            .sum()
    }

    /// `P(1)` of **every** qubit in one pass over the amplitudes.
    ///
    /// [`TrajectoryWorkspace::prob_one`] walks the full vector once *per
    /// qubit*; estimating all marginals that way costs `n` memory sweeps.
    /// This accumulates every qubit's probability in a single sweep — for
    /// each amplitude the squared norm is added to the accumulator of each
    /// set bit — and is **bit-identical** per qubit to `prob_one`: both
    /// visit the set-bit indices in increasing order, so the `f64` addition
    /// sequence is the same.
    pub fn probs_one_all(&self) -> Vec<f64> {
        let mut acc = vec![0.0f64; self.n_qubits];
        for (i, a) in self.amps.iter().enumerate() {
            let n = a.norm_sqr();
            let mut bits = i;
            while bits != 0 {
                acc[bits.trailing_zeros() as usize] += n;
                bits &= bits - 1;
            }
        }
        acc
    }

    /// Squared norm (1 up to rounding for mixed-unitary unravelings).
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum()
    }

    /// Executes one trajectory of a fused program: unitary atoms apply
    /// exactly, depolarising atoms sample one Pauli jump each from `rng`.
    ///
    /// A program with no stochastic atom is deterministic and identical to
    /// the noise-free state-vector run.
    ///
    /// # Panics
    ///
    /// Panics if the program's qubit count differs from the workspace's
    /// current register (reset first).
    pub fn run_stochastic(&mut self, program: &FusedProgram, rng: &mut StdRng) {
        assert_eq!(
            program.n_qubits(),
            self.n_qubits,
            "program/workspace qubit count mismatch"
        );
        for seg in program.segments() {
            match seg.support() {
                Support::One(q) => {
                    for atom in program.atoms_in(seg) {
                        match *atom {
                            FusedAtom::Unitary1 { m2, class } => {
                                m2_on(&mut self.amps, q, program.m2(m2), class);
                            }
                            FusedAtom::Depol1 { lambda } => self.jump_depol1(q, lambda, rng),
                            _ => unreachable!("two-qubit atom in one-qubit segment"),
                        }
                    }
                }
                Support::Two(a, b) => {
                    for atom in program.atoms_in(seg) {
                        match *atom {
                            FusedAtom::Cx { control } => {
                                let (c, t) = if control == Wire::A { (a, b) } else { (b, a) };
                                cx_on(&mut self.amps, c, t);
                            }
                            FusedAtom::Unitary2 { m4, swapped } => {
                                let (hi, lo) = if swapped { (b, a) } else { (a, b) };
                                m4_on(&mut self.amps, hi, lo, program.m4(m4));
                            }
                            FusedAtom::Depol2 { lambda, swapped } => {
                                let (first, second) = if swapped { (b, a) } else { (a, b) };
                                self.jump_depol2(first, second, lambda, rng);
                            }
                            _ => unreachable!("one-qubit atom in two-qubit segment"),
                        }
                    }
                }
            }
        }
    }

    /// One-qubit depolarising jump: identity with probability `1 − 3λ/4`,
    /// otherwise a uniformly chosen Pauli.
    fn jump_depol1(&mut self, q: usize, lambda: f64, rng: &mut StdRng) {
        match depol1_branch(lambda, rng.gen()) {
            0 => {}
            k => pauli_on(&mut self.amps, q, k),
        }
    }

    /// Two-qubit depolarising jump: `I⊗I` with probability `1 − 15λ/16`,
    /// otherwise one of the 15 non-identity Pauli products.
    fn jump_depol2(&mut self, first: usize, second: usize, lambda: f64, rng: &mut StdRng) {
        let k = depol2_branch(lambda, rng.gen());
        let (pa, pb) = (k >> 2, k & 3);
        if pa != 0 {
            pauli_on(&mut self.amps, first, pa);
        }
        if pb != 0 {
            pauli_on(&mut self.amps, second, pb);
        }
    }

    /// Stochastically unravels a general CPTP channel: computes the jump
    /// probabilities `p_k = ⟨ψ|K_k†K_k|ψ⟩`, samples a branch, applies its
    /// Kraus operator, and renormalises. Returns the chosen branch index.
    ///
    /// This is the path for channels that are *not* mixed-unitary (e.g.
    /// [`KrausChannel::amplitude_damping`]); depolarising noise inside
    /// fused programs goes through the cheaper Pauli-jump sampling.
    ///
    /// # Panics
    ///
    /// Panics if `qubits.len() != channel.arity()` or an index is invalid.
    pub fn apply_channel_stochastic(
        &mut self,
        channel: &KrausChannel,
        qubits: &[usize],
        rng: &mut StdRng,
    ) -> usize {
        assert_eq!(
            qubits.len(),
            channel.arity(),
            "channel arity does not match qubit count"
        );
        for &q in qubits {
            assert!(q < self.n_qubits, "qubit {q} out of range");
        }
        if channel.arity() == 2 {
            assert_ne!(qubits[0], qubits[1], "qubits must be distinct");
        }
        // Applies Kraus operator `k` to the current state into `scratch`
        // and returns its branch probability ⟨ψ|K†K|ψ⟩.
        let apply_branch = |scratch: &mut Vec<Complex64>, amps: &[Complex64], k: usize| -> f64 {
            scratch.clear();
            scratch.extend_from_slice(amps);
            let kraus = &channel.kraus_ops()[k];
            match channel.arity() {
                1 => {
                    let m = kraus.to_2x2().expect("one-qubit Kraus operator");
                    m2_on(scratch, qubits[0], &m, crate::fused::classify2(&m));
                }
                _ => {
                    let m = kraus.to_4x4().expect("two-qubit Kraus operator");
                    m4_on(scratch, qubits[0], qubits[1], &m);
                }
            }
            scratch.iter().map(|a| a.norm_sqr()).sum()
        };
        let u: f64 = rng.gen();
        let mut cum = 0.0;
        let mut chosen: Option<(usize, f64)> = None;
        let mut in_scratch: Option<usize> = None;
        for k in 0..channel.kraus_ops().len() {
            let p = apply_branch(&mut self.scratch, &self.amps, k);
            in_scratch = Some(k);
            if p <= 0.0 {
                continue;
            }
            cum += p;
            chosen = Some((k, p));
            if u < cum {
                break;
            }
        }
        let (k, p) = chosen.expect("CPTP channel must have a positive-probability branch");
        // Rounding in the cumulative sum can run the loop off the end with
        // a later (possibly zero-probability) branch still in scratch;
        // re-apply the branch that was actually selected.
        if in_scratch != Some(k) {
            apply_branch(&mut self.scratch, &self.amps, k);
        }
        let inv = Complex64::real(1.0 / p.sqrt());
        for (a, s) in self.amps.iter_mut().zip(self.scratch.iter()) {
            *a = *s * inv;
        }
        k
    }
}

/// Hard cap on the panel width (columns per [`TrajectoryPanel`] chunk),
/// bounding panel storage at `2^n × 4096` amplitudes.
pub const MAX_PANEL_WIDTH: usize = 4096;

/// Columns the auto width never drops below: the tiled passes touch a
/// fixed working-set strip (a handful of `TILE_ELEMS`-sized strips per
/// plane) regardless of the register size, and the vectorised pair and
/// quartet loops want at least one full 4-lane AVX2 vector of adjacent
/// columns.
pub const MIN_AUTO_PANEL_WIDTH: usize = 4;

/// Streaming budget of one panel, in bytes: the trajectory panel's auto
/// width ([`auto_panel_width`]) and the density lane count
/// ([`crate::density::SimWorkspace::max_lanes`]) both keep a panel within
/// it.
pub const PANEL_BYTES_BUDGET: usize = 8 << 20;

/// Default panel width for an `n_qubits` register: as wide as possible
/// (more columns amortise pass dispatch and index arithmetic and give the
/// kernels longer contiguous inner loops) while the whole panel stays
/// within an ~8 MiB streaming budget, capped at 16 columns — measured on
/// the `fig10_guadalupe` scenario and the criterion panel benches, wider
/// panels only add last-level-cache pressure without throughput.
///
/// The budget is a *streaming* heuristic, not a residency requirement:
/// the tiled passes only ever hold a cache-sized strip of the panel, so
/// a register too wide for the budget still wants enough columns to fill
/// the SIMD lanes and amortise dispatch. The width therefore never drops
/// below [`MIN_AUTO_PANEL_WIDTH`] — registers of 18+ qubits stream the
/// panel through cache either way, and starving them of columns used to
/// silently degenerate the panel engine to per-trajectory execution
/// (width 1 at ≥ 20 qubits).
pub fn auto_panel_width(n_qubits: usize) -> usize {
    let bytes_per_column = (2 * std::mem::size_of::<f64>()) << n_qubits;
    (PANEL_BYTES_BUDGET / bytes_per_column).clamp(MIN_AUTO_PANEL_WIDTH, 16)
}

/// Resolves the panel width for a run: the `QUCAD_TRAJ_BATCH` environment
/// variable when set (a positive integer, clamped to [`MAX_PANEL_WIDTH`]),
/// otherwise [`auto_panel_width`]; never wider than the trajectory budget.
///
/// The width is a pure performance knob: results are bit-identical for
/// every value (see [`estimate_prob_one_panel`]).
///
/// # Panics
///
/// Panics if `QUCAD_TRAJ_BATCH` is set to anything but a positive integer
/// — including empty or whitespace-only values — so CI matrix typos fail
/// loudly.
pub fn panel_width_from_env(n_qubits: usize, n_trajectories: u32) -> usize {
    // qucad-lint: allow(env-read) — audited entry point: trajectory panel width
    let raw = std::env::var("QUCAD_TRAJ_BATCH").ok();
    panel_width_from_value(raw.as_deref(), n_qubits, n_trajectories)
}

/// Pure resolution core of [`panel_width_from_env`] (`value` is the raw
/// variable when set): kept side-effect-free so the panic contract can be
/// tested without racing on process-global environment state.
fn panel_width_from_value(value: Option<&str>, n_qubits: usize, n_trajectories: u32) -> usize {
    let width = match value {
        // A set variable must parse — empty and whitespace-only values are
        // typos too, not requests for the auto width.
        Some(v) => crate::config::parse_positive("QUCAD_TRAJ_BATCH", v).min(MAX_PANEL_WIDTH),
        None => auto_panel_width(n_qubits),
    };
    width.min((n_trajectories.max(1)) as usize)
}

/// Union-support cap of a panel supergroup: consecutive fused segments are
/// grouped for single-pass execution only while their combined support
/// stays within this many qubits (a pass walks windows of at most
/// `2^SUPERGROUP_CAP` strips).
pub const SUPERGROUP_CAP: usize = 3;

/// One panel supergroup: a maximal run of consecutive fused segments whose
/// union support fits within [`SUPERGROUP_CAP`] qubits. `u` is the first
/// support qubit seen (the group's wire `A`), `v` the second if any, `w`
/// the third — a whole entangling layer plus its noise interleave and the
/// neighbouring single-qubit decomposition segments becomes one pass over
/// windows of eight strips.
///
/// The plan is a pure function of the program's segment list; it is what
/// [`TrajectoryPanel::run_stochastic`] executes one tiled panel pass per
/// entry, and what [`crate::verify::verify_program`] re-derives to check
/// the supergroup invariants statically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Supergroup {
    /// Segment index range of the group (into `program.segments()`).
    pub segments: std::ops::Range<usize>,
    /// The group's first support qubit (wire `A` of the tiled pass).
    pub u: usize,
    /// The group's second support qubit (wire `B`), if the union support
    /// spans two qubits.
    pub v: Option<usize>,
    /// The group's third support qubit (wire `C`), if the union support
    /// spans three qubits (never set while `v` is `None`).
    pub w: Option<usize>,
}

/// Streaming iterator over a program's supergroup plan (no allocation;
/// [`supergroup_plan`] collects it).
#[derive(Debug, Clone)]
pub struct Supergroups<'a> {
    program: &'a FusedProgram,
    next: usize,
}

/// Support qubits of a segment as the planner's `(first, second)` pair.
#[inline]
fn support_qubits(seg: &Segment) -> (usize, Option<usize>) {
    match seg.support() {
        Support::One(q) => (q, None),
        Support::Two(a, b) => (a, Some(b)),
    }
}

impl Iterator for Supergroups<'_> {
    type Item = Supergroup;

    fn next(&mut self) -> Option<Supergroup> {
        let segs = self.program.segments();
        if self.next >= segs.len() {
            return None;
        }
        // Greedily extend the supergroup while the union support stays
        // within three qubits (first-seen order fixes the group's
        // (u, v, w) wire basis).
        let start = self.next;
        let (u, mut v) = support_qubits(&segs[start]);
        let mut w = None;
        let mut end = start + 1;
        while end < segs.len() {
            let (a, bq) = support_qubits(&segs[end]);
            let mut nv = v;
            let mut nw = w;
            let mut fits = true;
            for q in [Some(a), bq].into_iter().flatten() {
                if q == u || nv == Some(q) || nw == Some(q) {
                    continue;
                }
                if nv.is_none() {
                    nv = Some(q);
                } else if nw.is_none() {
                    nw = Some(q);
                } else {
                    fits = false;
                    break;
                }
            }
            if !fits {
                break;
            }
            v = nv;
            w = nw;
            end += 1;
        }
        self.next = end;
        Some(Supergroup {
            segments: start..end,
            u,
            v,
            w,
        })
    }
}

/// The supergroup plan of a program as a streaming iterator — the exact
/// grouping [`TrajectoryPanel::run_stochastic`] executes.
pub fn supergroups(program: &FusedProgram) -> Supergroups<'_> {
    Supergroups { program, next: 0 }
}

/// Collects [`supergroups`] into a vector (for inspection and the static
/// verifier; the execution path iterates without allocating).
pub fn supergroup_plan(program: &FusedProgram) -> Vec<Supergroup> {
    supergroups(program).collect()
}

/// Elements per plane of one window strip: small enough that a window's
/// `2^k` strips of both planes (at most 64 KiB) stay cache-resident while
/// a whole supergroup's atom chain runs over them.
const TILE_ELEMS: usize = 512;

/// One Pauli application to a planar amplitude pair `((re, im), (re, im))`,
/// by value (`0` is the identity) — exactly the scalar expressions of
/// [`pauli_on`], shared by the panel sweeps so jump arithmetic can never
/// drift from the per-trajectory engine.
#[inline(always)]
fn pauli_vals(p: usize, x0: (f64, f64), x1: (f64, f64)) -> ((f64, f64), (f64, f64)) {
    match p {
        1 => (x1, x0),
        // Y = [[0, −i], [i, 0]].
        2 => ((x1.1, -x1.0), (-x0.1, x0.0)),
        3 => (x0, (-x1.0, -x1.1)),
        _ => (x0, x1),
    }
}

/// One precompiled atom of a supergroup chain over a window of `2^k`
/// strips. Strip indices are `k`-bit numbers in the group's wire basis:
/// wire `i` of the group (`u`, `v`, `w` in first-seen order) is strip bit
/// `k − 1 − i`. Two-qubit atoms carry the strip bits of their own
/// segment's `(A, B)` wires, so the quartet each one sees is assembled in
/// the segment's wire order and the atom's `swapped` flag applies
/// unchanged (exactly as in the per-trajectory engine). Matrices and
/// branch rows are named by index — into the program's matrix tables and
/// the panel's branch rows — so the pass list lives on the panel and is
/// rebuilt without allocating.
#[derive(Debug, Clone, Copy)]
enum Pass {
    /// 2×2 unitary (`m2` table index) on the wire at the given strip bit.
    Unitary1(u32, MatClass, usize),
    /// Per-column one-qubit Pauli jumps (branch row start) on the wire at
    /// the given strip bit.
    Jump1(usize, usize),
    /// CNOT: swap the target-bit strip pair inside every control-set half
    /// (`(control bit, target bit)`).
    Swap(usize, usize),
    /// 4×4 unitary (`m4` table index) on the wires at strip bits `(a, b)`
    /// of the atom's segment; the `bool` is the atom's own orientation
    /// flag.
    Unitary2(u32, bool, usize, usize),
    /// Per-column Pauli⊗Pauli jumps (branch row start) on the wires at
    /// strip bits `(a, b)`.
    Jump2(usize, bool, usize, usize),
    /// Stochastic atom with an all-identity branch row (exact no-op).
    Skip,
}

/// One supergroup's compiled chain: the passes and the tables they index.
struct Chain<'a> {
    passes: &'a [Pass],
    program: &'a FusedProgram,
    /// Pre-sampled jump branches, one row of `b` codes per jumping atom.
    rows: &'a [u8],
}

/// Applies one 2×2 unitary to a planar pair tile (`r0/i0` = lower pair
/// row, `r1/i1` = upper; all slices the same length, starts aligned to a
/// column-`b` boundary).
///
/// Expression-for-expression [`m2_on`] with the complex products and sums
/// expanded over the split real/imaginary planes in the exact `Complex64`
/// operator order, so every column stays bit-identical to a standalone
/// trajectory while the inner loops are branch-free contiguous `f64`
/// sweeps that vectorise.
#[inline(always)]
fn unitary1_inner(
    m: &M2,
    class: MatClass,
    r0: &mut [f64],
    i0: &mut [f64],
    r1: &mut [f64],
    i1: &mut [f64],
) {
    let len = r0.len();
    let (i0, r1, i1) = (&mut i0[..len], &mut r1[..len], &mut i1[..len]);
    if class == MatClass::Diagonal {
        let (d0, d1) = (m[0], m[3]);
        for j in 0..len {
            let (xr, xi) = (r0[j], i0[j]);
            r0[j] = xr * d0.re - xi * d0.im;
            i0[j] = xr * d0.im + xi * d0.re;
            let (yr, yi) = (r1[j], i1[j]);
            r1[j] = yr * d1.re - yi * d1.im;
            i1[j] = yr * d1.im + yi * d1.re;
        }
    } else if class == MatClass::Real {
        // RY / H / Pauli family: exactly-zero imaginary entries
        // (`classify2`), so the imaginary products vanish structurally —
        // drop them instead of multiplying by zero. Same expressions as
        // the `m2_on` Real path, so every column stays bit-identical to
        // its standalone trajectory.
        let (m00, m01, m10, m11) = (m[0].re, m[1].re, m[2].re, m[3].re);
        for j in 0..len {
            let (x0r, x0i) = (r0[j], i0[j]);
            let (x1r, x1i) = (r1[j], i1[j]);
            r0[j] = m00 * x0r + m01 * x1r;
            i0[j] = m00 * x0i + m01 * x1i;
            r1[j] = m10 * x0r + m11 * x1r;
            i1[j] = m10 * x0i + m11 * x1i;
        }
    } else {
        let (m00, m01, m10, m11) = (m[0], m[1], m[2], m[3]);
        for j in 0..len {
            let (x0r, x0i) = (r0[j], i0[j]);
            let (x1r, x1i) = (r1[j], i1[j]);
            r0[j] = (m00.re * x0r - m00.im * x0i) + (m01.re * x1r - m01.im * x1i);
            i0[j] = (m00.re * x0i + m00.im * x0r) + (m01.re * x1i + m01.im * x1r);
            r1[j] = (m10.re * x0r - m10.im * x0i) + (m11.re * x1r - m11.im * x1i);
            i1[j] = (m10.re * x0i + m10.im * x0r) + (m11.re * x1i + m11.im * x1r);
        }
    }
}

/// Applies Pauli `p` to column `c` of a planar pair tile (same formulas as
/// [`pauli_on`] via [`pauli_vals`]): element `j` belongs to column
/// `j % b`, so a column's amplitudes sit at stride `b` from `c`.
#[inline(always)]
fn jump1_column(
    p: usize,
    c: usize,
    b: usize,
    r0: &mut [f64],
    i0: &mut [f64],
    r1: &mut [f64],
    i1: &mut [f64],
) {
    let mut j = c;
    while j < r0.len() {
        let (n0, n1) = pauli_vals(p, (r0[j], i0[j]), (r1[j], i1[j]));
        r0[j] = n0.0;
        i0[j] = n0.1;
        r1[j] = n1.0;
        i1[j] = n1.1;
        j += b;
    }
}

/// Planar quartet tile: the four strips of both planes, in quartet order
/// (`[00, 01, 10, 11]` in the atom's segment `(A, B)` wire basis, wire
/// `A` the most significant bit).
struct Quartet<'a> {
    r: [&'a mut [f64]; 4],
    i: [&'a mut [f64]; 4],
}

/// Applies one 4×4 unitary to a quartet tile, reading the quartet in the
/// atom's own orientation order: `swapped` atoms read/write the quartet
/// through the `[0, 2, 1, 3]` orientation permutation (as in
/// `quasim::fused`).
#[inline(always)]
fn unitary2_inner(m: &M4, swapped: bool, g: &mut Quartet<'_>) {
    let Quartet {
        r: [r0, r1, r2, r3],
        i: [i0, i1, i2, i3],
    } = g;
    let (r1, r2, i1, i2) = if swapped {
        (r2, r1, i2, i1)
    } else {
        (r1, r2, i1, i2)
    };
    unitary2_planes(m, r0, r1, r2, r3, i0, i1, i2, i3);
}

/// The quartet kernel over its eight planar strips, in orientation order —
/// expression-for-expression [`m4_on`] (accumulator starts at zero,
/// `acc += m[r·4+c] · old[c]` in column order). The strips are separate
/// `&mut` parameters so the compiler knows they do not alias and
/// vectorises the loop without runtime overlap checks.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn unitary2_planes(
    m: &M4,
    r0: &mut [f64],
    r1: &mut [f64],
    r2: &mut [f64],
    r3: &mut [f64],
    i0: &mut [f64],
    i1: &mut [f64],
    i2: &mut [f64],
    i3: &mut [f64],
) {
    // A local copy: the table the matrix comes from could alias the
    // strips as far as the compiler knows, which would keep the loop from
    // vectorising.
    let m = *m;
    let len = r0.len();
    let (r1, r2, r3) = (&mut r1[..len], &mut r2[..len], &mut r3[..len]);
    let (i0, i1, i2, i3) = (
        &mut i0[..len],
        &mut i1[..len],
        &mut i2[..len],
        &mut i3[..len],
    );
    for j in 0..len {
        let old = [
            (r0[j], i0[j]),
            (r1[j], i1[j]),
            (r2[j], i2[j]),
            (r3[j], i3[j]),
        ];
        let row = |r: usize| {
            let (mut ar, mut ai) = (0.0f64, 0.0f64);
            for (c, &(or_, oi)) in old.iter().enumerate() {
                let e = m[r * 4 + c];
                ar += e.re * or_ - e.im * oi;
                ai += e.re * oi + e.im * or_;
            }
            (ar, ai)
        };
        (r0[j], i0[j]) = row(0);
        (r1[j], i1[j]) = row(1);
        (r2[j], i2[j]) = row(2);
        (r3[j], i3[j]) = row(3);
    }
}

/// Applies Pauli⊗Pauli branch `k` to column `c` of a quartet tile: the
/// branch's first Pauli acts along the atom's first wire, then the second
/// — each as two in-register pair applications with [`pauli_on`]'s exact
/// formulas.
#[inline(always)]
fn jump2_column(k: usize, c: usize, b: usize, swapped: bool, g: &mut Quartet<'_>) {
    // Wire-axis pair index sets: a Pauli on wire A couples (00,10) and
    // (01,11); on wire B it couples (00,01) and (10,11).
    const AXIS_A: [(usize, usize); 2] = [(0, 2), (1, 3)];
    const AXIS_B: [(usize, usize); 2] = [(0, 1), (2, 3)];
    let (first_axis, second_axis) = if swapped {
        (AXIS_B, AXIS_A)
    } else {
        (AXIS_A, AXIS_B)
    };
    let len = g.r[0].len();
    let (pa, pb) = (k >> 2, k & 3);
    let mut j = c;
    while j < len {
        if pa != 0 {
            for (x, y) in first_axis {
                let (n0, n1) = pauli_vals(pa, (g.r[x][j], g.i[x][j]), (g.r[y][j], g.i[y][j]));
                g.r[x][j] = n0.0;
                g.i[x][j] = n0.1;
                g.r[y][j] = n1.0;
                g.i[y][j] = n1.1;
            }
        }
        if pb != 0 {
            for (x, y) in second_axis {
                let (n0, n1) = pauli_vals(pb, (g.r[x][j], g.i[x][j]), (g.r[y][j], g.i[y][j]));
                g.r[x][j] = n0.0;
                g.i[x][j] = n0.1;
                g.r[y][j] = n1.0;
                g.i[y][j] = n1.1;
            }
        }
        j += b;
    }
}

/// `N` equal-length runs that one kernel call processes together: the
/// runs of an atom's strip tuple (pair: first, second; quartet: quartet
/// order), as element offsets into the planes.
#[derive(Debug, Clone, Copy)]
struct Span<const N: usize> {
    at: [usize; N],
    len: usize,
}

/// Coalesces the runs of `tuples` (strips, given by their current offsets
/// from a sub-block base) over every base into maximal spans: a run
/// extends the previous span when each of its `N` runs starts where the
/// previous span's run of the same role ends. Within a base the tuples are
/// visited in increasing first offset; bases are visited in increasing
/// order.
fn plan_spans<const N: usize>(
    tuples: &mut [[usize; N]],
    bases: &[usize],
    len: usize,
    out: &mut Vec<Span<N>>,
) {
    tuples.sort_unstable_by_key(|t| t[0]);
    out.clear();
    for &base in bases {
        for t in tuples.iter() {
            let at = t.map(|o| base + o);
            match out.last_mut() {
                Some(last) if (0..N).all(|j| at[j] == last.at[j] + last.len) => last.len += len,
                _ => out.push(Span { at, len }),
            }
        }
    }
}

/// Most strips a window holds: `2^k` for the widest supergroup.
const MAX_STRIPS: usize = 1 << SUPERGROUP_CAP;

/// Reusable span-plan buffers of a [`Window`].
#[derive(Debug, Clone, Default)]
struct SpanPlans {
    pairs: Vec<Span<2>>,
    quartets: Vec<Span<4>>,
}

/// Reusable buffers of the panel walk — the window's sub-block bases and
/// its span plans — kept on the [`TrajectoryPanel`] so steady-state passes
/// allocate nothing.
#[derive(Debug, Clone, Default)]
struct WindowScratch {
    bases: Vec<usize>,
    plans: SpanPlans,
}

/// Planar window over the `2^k` strips of a `k`-wire supergroup, indexed
/// by the `k`-bit strip number in the group's wire basis. A window covers
/// one or more sub-blocks of the panel walk: strip `x` is the run of `len`
/// elements at `base + off[x]` for every `base` in `bases`, so one chain
/// dispatch serves every sub-block of the window without copying them
/// together.
///
/// Each atom's kernel runs over a **span plan**: the atom's strip pairs
/// (or quartets) over all sub-blocks, coalesced wherever consecutive runs
/// are adjacent in both planes with the same partner offset. A one-qubit
/// atom on a wire above the lowest one, for instance, pairs whole
/// contiguous blocks of sub-blocks, so short low-wire runs cost one long
/// kernel call instead of one call per run.
///
/// Invariant (established by [`Window::new`], kept by every method): the
/// `2^k · bases.len()` runs are pairwise disjoint, and `off[..2^k]` is a
/// permutation of `home[..2^k]` (the strips' natural offsets), so distinct
/// strips always name distinct runs. A plan covers each run of its strips
/// in exactly one span and one role, so the runs of one span are disjoint
/// from each other; every span handed to a kernel is checked to lie
/// inside both planes.
struct Window<'a> {
    re: *mut f64,
    im: *mut f64,
    /// Elements per plane.
    plane: usize,
    /// Strips in the window (`2^k`); entries of `off`/`home` past it are
    /// unused.
    strips: usize,
    /// Where strip `x`'s amplitudes currently live, relative to a
    /// sub-block base (CNOTs permute these references).
    off: [usize; MAX_STRIPS],
    /// Strip `x`'s natural offset, where [`Window::materialize`] puts its
    /// amplitudes back.
    home: [usize; MAX_STRIPS],
    bases: &'a [usize],
    len: usize,
    plans: &'a mut SpanPlans,
    _planes: std::marker::PhantomData<&'a mut [f64]>,
}

impl<'a> Window<'a> {
    /// Views the runs `base + home[x] .. + len` of both planes as one
    /// window, where `home[x]` sums the strides of the wires whose strip
    /// bits `x` sets (`strides[i]` is wire `i`'s, at strip bit `k − 1 − i`).
    ///
    /// # Safety
    ///
    /// The `2^k · bases.len()` runs must be pairwise disjoint (distinct
    /// strips, and distinct bases, never share an element).
    ///
    /// # Panics
    ///
    /// Panics if the planes differ in length; a kernel call panics if its
    /// span escapes them.
    // SAFETY: see `# Safety`; the window's spans rely on that contract.
    unsafe fn new(
        re: &'a mut [f64],
        im: &'a mut [f64],
        strides: &[usize],
        bases: &'a [usize],
        len: usize,
        plans: &'a mut SpanPlans,
    ) -> Self {
        assert_eq!(re.len(), im.len(), "re/im planes differ in length");
        let k = strides.len();
        debug_assert!((1..=SUPERGROUP_CAP).contains(&k), "{k}-wire window");
        let home = std::array::from_fn(|x| {
            (0..k)
                .filter(|&i| (x >> (k - 1 - i)) & 1 != 0)
                .map(|i| strides[i])
                .sum()
        });
        Window {
            plane: re.len(),
            re: re.as_mut_ptr(),
            im: im.as_mut_ptr(),
            strips: 1 << k,
            off: home,
            home,
            bases,
            len,
            plans,
            _planes: std::marker::PhantomData,
        }
    }

    /// Both planes' run of `len` elements at plane offset `at`.
    ///
    /// # Safety
    ///
    /// `at .. at + len` must be covered by the window's runs, and the
    /// caller must not hold another live view of any of its elements nor
    /// keep the slices past its `&mut self` borrow.
    #[inline(always)]
    // SAFETY: see `# Safety`; every caller states how it upholds it.
    unsafe fn run(&mut self, at: usize, len: usize) -> (&'a mut [f64], &'a mut [f64]) {
        assert!(at + len <= self.plane, "window span escapes the plane");
        // SAFETY: the span is inside both planes (asserted above; both
        // planes have `self.plane` elements); exclusivity is the caller's
        // contract above.
        unsafe {
            (
                std::slice::from_raw_parts_mut(self.re.add(at), len),
                std::slice::from_raw_parts_mut(self.im.add(at), len),
            )
        }
    }

    /// Plans the strip pairs `(x, x | wm)` of every `x` without the `wm`
    /// bit (a one-qubit atom on that wire, first strip first); returns the
    /// number of spans, each one [`Self::pair`].
    fn plan_pairs(&mut self, wm: usize) -> usize {
        let mut tuples = [[0usize; 2]; MAX_STRIPS / 2];
        for (t, x) in tuples
            .iter_mut()
            .zip((0..self.strips).filter(|x| x & wm == 0))
        {
            *t = [self.off[x], self.off[x | wm]];
        }
        plan_spans(
            &mut tuples[..self.strips / 2],
            self.bases,
            self.len,
            &mut self.plans.pairs,
        );
        self.plans.pairs.len()
    }

    /// Span `i` of the current pair plan as the four planar slices the
    /// pair kernels take.
    #[inline(always)]
    fn pair(&mut self, i: usize) -> (&mut [f64], &mut [f64], &mut [f64], &mut [f64]) {
        let Span { at, len } = self.plans.pairs[i];
        // SAFETY: the two runs of one span belong to two distinct strips
        // of the plan (disjoint, see the struct invariant) and are
        // returned under the `&mut self` borrow.
        let ((r0, i0), (r1, i1)) = unsafe { (self.run(at[0], len), self.run(at[1], len)) };
        (r0, i0, r1, i1)
    }

    /// Plans the quartets of a two-qubit atom on the wires at strip masks
    /// `am`/`bm` — one per value of the free strip bit, if any — in the
    /// segment's `(A, B)` order with wire A as the quartet's most
    /// significant bit; returns the number of spans, each one
    /// [`Self::quartet`].
    fn plan_quartets(&mut self, am: usize, bm: usize) -> usize {
        let fm = (self.strips - 1) ^ am ^ bm;
        let mut tuples = [0, fm].map(|f| [f, f | bm, f | am, f | am | bm].map(|x| self.off[x]));
        plan_spans(
            &mut tuples[..self.strips / 4],
            self.bases,
            self.len,
            &mut self.plans.quartets,
        );
        self.plans.quartets.len()
    }

    /// Span `i` of the current quartet plan as a quartet tile.
    fn quartet(&mut self, i: usize) -> Quartet<'_> {
        let Span { at, len } = self.plans.quartets[i];
        // SAFETY: the four runs of one span belong to four distinct strips
        // of the plan (disjoint, see the struct invariant) and are
        // returned under the `&mut self` borrow.
        let [(r0, i0), (r1, i1), (r2, i2), (r3, i3)] = at.map(|o| unsafe { self.run(o, len) });
        Quartet {
            r: [r0, r1, r2, r3],
            i: [i0, i1, i2, i3],
        }
    }

    /// A CNOT on the wires at strip masks `cm` (control) and `tm`
    /// (target): swaps the strip references `x` and `x | tm` of every
    /// control-set `x` — the amplitudes keep their places, only their
    /// labels move.
    fn cnot(&mut self, cm: usize, tm: usize) {
        for x in (0..self.strips).filter(|x| x & cm != 0 && x & tm == 0) {
            self.off.swap(x, x | tm);
        }
    }

    /// Moves every strip back to its natural offset. An identity
    /// permutation (every back-to-back CNOT pair) moves nothing.
    fn materialize(&mut self) {
        for q in 0..self.strips {
            while self.off[q] != self.home[q] {
                let p = self.off[..self.strips]
                    .iter()
                    .position(|&o| o == self.home[q])
                    .expect("strip offsets are a permutation");
                // Strips `q != p` (strip `q` is not home yet) as one pair.
                let mut tuple = [[self.off[q], self.off[p]]];
                plan_spans(&mut tuple, self.bases, self.len, &mut self.plans.pairs);
                for i in 0..self.plans.pairs.len() {
                    let (rq, iq, rp, ip) = self.pair(i);
                    rq.swap_with_slice(rp);
                    iq.swap_with_slice(ip);
                }
                self.off.swap(q, p);
            }
        }
    }
}

/// Applies a supergroup chain to one window: one-qubit atoms run the exact
/// pair kernels over the strip pairs of their wire, two-qubit atoms run
/// the exact quartet kernels over the quartets spanned by their wires,
/// CNOTs permute the strip references (materialised once at chain end).
/// Each atom's kernel walks the window's span plan.
#[inline(always)]
fn chain_window(chain: &Chain<'_>, o: &mut Window<'_>, b: usize) {
    let row = |at: usize| &chain.rows[at..at + b];
    for pass in chain.passes {
        match *pass {
            Pass::Unitary1(m2, class, wb) => {
                let (m, wm) = (chain.program.m2(m2), 1usize << wb);
                for i in 0..o.plan_pairs(wm) {
                    let (r0, i0, r1, i1) = o.pair(i);
                    unitary1_inner(m, class, r0, i0, r1, i1);
                }
            }
            Pass::Jump1(at, wb) => {
                let spans = o.plan_pairs(1usize << wb);
                // Walk jumping columns only; with calibration-scale λ most
                // atoms jump in no or few columns per chunk.
                for (c, &code) in row(at).iter().enumerate().filter(|(_, &code)| code != 0) {
                    for i in 0..spans {
                        let (r0, i0, r1, i1) = o.pair(i);
                        jump1_column(code as usize, c, b, r0, i0, r1, i1);
                    }
                }
            }
            Pass::Swap(cb, tb) => o.cnot(1usize << cb, 1usize << tb),
            Pass::Unitary2(m4, swapped, ab, bb) => {
                let m = chain.program.m4(m4);
                for i in 0..o.plan_quartets(1usize << ab, 1usize << bb) {
                    unitary2_inner(m, swapped, &mut o.quartet(i));
                }
            }
            Pass::Jump2(at, swapped, ab, bb) => {
                let spans = o.plan_quartets(1usize << ab, 1usize << bb);
                for (c, &code) in row(at).iter().enumerate().filter(|(_, &code)| code != 0) {
                    for i in 0..spans {
                        jump2_column(code as usize, c, b, swapped, &mut o.quartet(i));
                    }
                }
            }
            Pass::Skip => {}
        }
    }
    o.materialize();
}

/// Executes one supergroup's chain over the whole panel in a single tiled
/// pass: each cache-sized window of the group's `2^k` strips (`wires` in
/// the group's first-seen order) hosts the whole chain, so a full
/// entangling layer plus its noise interleave costs one panel memory pass.
///
/// Sub-block starts are enumerated as compressed offsets — positions in
/// the panel with the group's wires removed — expanded by inserting a zero
/// digit at each of the sorted wire strides `s0 < s1 < …`, lowest first
/// (the [`insert_zero_bit`] idiom, applied to strides). Each start owns
/// the strips at `start + home[x]`, each at most a tile long. When the
/// lowest stride `s0` is shorter than a tile (low wires: as short as `b`
/// elements for qubit 0), one window takes `tile / s0` consecutive
/// sub-blocks by reference, the chain is dispatched once per window, and
/// each atom's kernel runs over the window's coalesced spans rather than
/// once per sub-block. Every kernel is elementwise across strip positions
/// (the jump kernels map position `j` to column `j % b`, and every run
/// starts at a multiple of `b`), so each element sees bit-for-bit the
/// arithmetic of its own sub-block.
#[inline(always)]
fn run_pass(
    re: &mut [f64],
    im: &mut [f64],
    b: usize,
    wires: &[usize],
    chain: &Chain<'_>,
    scratch: &mut WindowScratch,
) {
    let k = wires.len();
    let mut strides = [0usize; SUPERGROUP_CAP];
    for (s, &q) in strides.iter_mut().zip(wires) {
        *s = (1usize << q) * b;
    }
    let strides = &strides[..k];
    let mut sorted = [0usize; SUPERGROUP_CAP];
    sorted[..k].copy_from_slice(strides);
    let sorted = &mut sorted[..k];
    sorted.sort_unstable();
    let total = re.len();
    assert!(
        b > 0
            && total.is_multiple_of(2 * sorted[k - 1])
            && sorted.windows(2).all(|s| s[1].is_multiple_of(2 * s[0])),
        "wire strides for {wires:?} do not tile the {total}-element panel \
         (wire out of range, aliased wires, or corrupt panel shape)"
    );
    let s0 = sorted[0];
    let tile = b * (TILE_ELEMS / b).max(1);
    let len_cap = tile.min(s0);
    let runs_cap = (tile / len_cap).max(1);
    let WindowScratch { bases, plans } = scratch;
    bases.clear();
    // Compressed offset → panel offset: one zero digit per wire stride.
    let expand = |x: usize| sorted.iter().fold(x, |x, &s| x / s * (2 * s) + x % s);
    // A run of `s0` compressed offsets expands to one contiguous sub-block
    // stretch; tile it. `None` marks the end, flushing the last window.
    let sub_blocks = (0..total >> k).step_by(s0).flat_map(|run| {
        (run..run + s0)
            .step_by(len_cap)
            .map(move |x| (expand(x), len_cap.min(run + s0 - x)))
    });
    let mut window_len = len_cap;
    for next in sub_blocks.map(Some).chain([None]) {
        let full = next.is_none_or(|(_, len)| len != window_len || bases.len() == runs_cap);
        if full && !bases.is_empty() {
            // The walk yields each sub-block start once, and the runs
            // `start + home[x] .. + len` of all starts and strips tile the
            // panel without overlap (each stride divides the next, as
            // asserted above; a sub-block's runs are at most `s0` long).
            // SAFETY: a window holds a subset of those runs, so they are
            // pairwise disjoint.
            let mut o = unsafe { Window::new(re, im, strides, bases, window_len, plans) };
            chain_window(chain, &mut o, b);
            bases.clear();
        }
        if let Some((start, len)) = next {
            window_len = len;
            bases.push(start);
        }
    }
}

/// A batched trajectory register: `B` trajectories stored as one
/// contiguous `2^n × B` amplitude panel in structure-of-arrays form — a
/// real plane and an imaginary plane, each with a register index's `B`
/// column values adjacent.
///
/// The per-trajectory engine ([`TrajectoryWorkspace`]) pays the full
/// per-op cost — matrix classification, segment dispatch, bit-twiddled
/// index enumeration, and one full state sweep per atom — once *per
/// trajectory*. The panel executes each **supergroup** (see
/// [`supergroups`]) in a single tiled pass across all `B` columns: atoms
/// are precompiled into a pass chain, each cache-resident window hosts
/// the whole chain before moving on, and the split real/imaginary planes
/// make the inner loops branch-free contiguous `f64` sweeps that
/// auto-vectorise. One window engine serves groups of one, two and three
/// wires, and the pass list, branch rows and window buffers live on the
/// panel, so a steady-state run allocates nothing. Stochastic
/// jumps stay per-trajectory — each column consumes its own pre-drawn
/// uniforms and receives its own Pauli jumps — so every column is
/// **bit-identical** to the trajectory the workspace engine would produce
/// from the same draw sequence.
///
/// Use [`estimate_prob_one_panel`] for the batched counterpart of
/// [`estimate_prob_one`]; the panel width is a pure performance knob
/// (override with `QUCAD_TRAJ_BATCH`, see [`panel_width_from_env`]).
#[derive(Debug, Clone)]
pub struct TrajectoryPanel {
    n_qubits: usize,
    batch: usize,
    re: Vec<f64>,
    im: Vec<f64>,
    norms: Vec<f64>,
    uniforms: Vec<f64>,
    branch_rows: Vec<u8>,
    passes: Vec<Pass>,
    window: WindowScratch,
    kernel: KernelMode,
}

impl Default for TrajectoryPanel {
    fn default() -> Self {
        TrajectoryPanel {
            n_qubits: 0,
            batch: 0,
            re: Vec::new(),
            im: Vec::new(),
            norms: Vec::new(),
            uniforms: Vec::new(),
            branch_rows: Vec::new(),
            passes: Vec::new(),
            window: WindowScratch::default(),
            kernel: KernelMode::detect(),
        }
    }
}

impl TrajectoryPanel {
    /// Creates an empty panel (no storage until the first reset), with
    /// the kernel compilation at [`KernelMode::detect`].
    pub fn new() -> Self {
        TrajectoryPanel::default()
    }

    /// Overrides the kernel compilation — how the bit-identity proptests
    /// pin the scalar oracle against the AVX2 compilation on the same host.
    ///
    /// # Panics
    ///
    /// Panics if `mode` is [`KernelMode::Avx2`] on a host without AVX2.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.kernel = mode.checked();
    }

    /// Re-initialises every column to `|0…0⟩` over `n_qubits`, reusing the
    /// buffers when large enough.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or greater than [`MAX_TRAJECTORY_QUBITS`],
    /// or `batch` is 0 or greater than [`MAX_PANEL_WIDTH`].
    pub fn reset_zero(&mut self, n_qubits: usize, batch: usize) {
        assert!(
            (1..=MAX_TRAJECTORY_QUBITS).contains(&n_qubits),
            "unsupported qubit count"
        );
        assert!(
            (1..=MAX_PANEL_WIDTH).contains(&batch),
            "unsupported panel width"
        );
        self.n_qubits = n_qubits;
        self.batch = batch;
        let total = (1usize << n_qubits) * batch;
        self.re.clear();
        self.re.resize(total, 0.0);
        self.im.clear();
        self.im.resize(total, 0.0);
        self.re[..batch].fill(1.0);
    }

    /// Number of qubits of the current panel (0 before the first reset).
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Number of trajectory columns (0 before the first reset).
    pub fn batch(&self) -> usize {
        self.batch
    }

    /// The amplitudes of one trajectory column (length `2^n`).
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column(&self, col: usize) -> Vec<Complex64> {
        assert!(col < self.batch, "column {col} out of range");
        debug_assert_eq!(
            self.re.len(),
            (1usize << self.n_qubits) * self.batch,
            "panel plane length disagrees with 2^n x batch"
        );
        (0..1usize << self.n_qubits)
            .map(|i| Complex64::new(self.re[i * self.batch + col], self.im[i * self.batch + col]))
            .collect()
    }

    /// Executes one fused program across all columns, one tiled panel pass
    /// per **supergroup** — a maximal run of consecutive fused segments
    /// whose union support fits within [`SUPERGROUP_CAP`] qubits (a whole
    /// entangling layer plus its noise interleave and the single-qubit
    /// segments of its decomposition neighbours, e.g. the full
    /// `CX·dep₂·RY·dep₁·CX·dep₂·RY·dep₁` body of a noisy controlled
    /// rotation). Unitary atoms are applied panel-wide,
    /// stochastic atoms consume one pre-drawn uniform per column
    /// (`uniforms[c * n_stoch + s]` for column `c`, stochastic atom `s`)
    /// and apply their jump column-wise inside the same pass.
    ///
    /// Atoms are never reordered — every amplitude sees the identical
    /// per-column expression sequence of atom-by-atom execution, grouping
    /// only changes which memory pass hosts the arithmetic — and passing
    /// the uniforms in trajectory-major order makes each column replay
    /// exactly the draw sequence the per-trajectory engine hands one
    /// trajectory. Together that is how [`estimate_prob_one_panel`] stays
    /// bit-identical to [`estimate_prob_one`].
    ///
    /// # Panics
    ///
    /// Panics if the program's qubit count differs from the panel's or
    /// `uniforms.len() != batch * program.n_stochastic_atoms()`.
    pub fn run_stochastic(&mut self, program: &FusedProgram, uniforms: &[f64]) {
        assert_eq!(
            program.n_qubits(),
            self.n_qubits,
            "program/panel qubit count mismatch"
        );
        let n_stoch = program.n_stochastic_atoms();
        assert_eq!(
            uniforms.len(),
            self.batch * n_stoch,
            "need one uniform per stochastic atom per column"
        );
        let b = self.batch;
        let mut s = 0usize;
        let segs = program.segments();
        for group in supergroups(program) {
            // The group's wires in first-seen order; wire `i` is strip bit
            // `k − 1 − i` of the pass's windows.
            let mut wires = [group.u; SUPERGROUP_CAP];
            let mut k = 1;
            for q in [group.v, group.w].into_iter().flatten() {
                wires[k] = q;
                k += 1;
            }
            let wires = &wires[..k];
            let bit_of = |q: usize| {
                k - 1
                    - wires
                        .iter()
                        .position(|&x| x == q)
                        .expect("segment qubit outside the group's wire basis")
            };
            // Pre-sample each stochastic atom's jump branches as the chain
            // is built: the branch of stochastic atom `s` for column `c` is
            // a pure function of the column's pre-drawn uniform, so
            // sampling them up front (one row per jumping atom) consumes
            // exactly the per-trajectory engine's draw sequence.
            let rows = &mut self.branch_rows;
            rows.clear();
            let mut sample = |branch: fn(f64, f64) -> usize, lambda: f64| {
                let at = rows.len();
                rows.extend((0..b).map(|c| branch(lambda, uniforms[c * n_stoch + s]) as u8));
                s += 1;
                if rows[at..].iter().all(|&code| code == 0) {
                    rows.truncate(at);
                    None
                } else {
                    Some(at)
                }
            };
            self.passes.clear();
            for seg in &segs[group.segments] {
                let (a, second) = support_qubits(seg);
                let (ab, bb) = (bit_of(a), second.map(bit_of));
                for atom in program.atoms_in(seg) {
                    self.passes.push(match (*atom, bb) {
                        (FusedAtom::Unitary1 { m2, class }, None) => Pass::Unitary1(m2, class, ab),
                        (FusedAtom::Depol1 { lambda }, None) => sample(depol1_branch, lambda)
                            .map_or(Pass::Skip, |at| Pass::Jump1(at, ab)),
                        (FusedAtom::Cx { control: Wire::A }, Some(bb)) => Pass::Swap(ab, bb),
                        (FusedAtom::Cx { control: Wire::B }, Some(bb)) => Pass::Swap(bb, ab),
                        (FusedAtom::Unitary2 { m4, swapped }, Some(bb)) => {
                            Pass::Unitary2(m4, swapped, ab, bb)
                        }
                        (FusedAtom::Depol2 { lambda, swapped }, Some(bb)) => {
                            sample(depol2_branch, lambda)
                                .map_or(Pass::Skip, |at| Pass::Jump2(at, swapped, ab, bb))
                        }
                        _ => unreachable!("atom arity disagrees with its segment's support"),
                    });
                }
            }
            let chain = Chain {
                passes: &self.passes,
                program,
                rows: &self.branch_rows,
            };
            let (re, im, window) = (&mut self.re, &mut self.im, &mut self.window);
            self.kernel.run(
                #[inline(always)]
                || run_pass(re, im, b, wires, &chain, window),
            );
        }
        // Uniform-consumption invariant: the panel pass must drain exactly
        // the per-trajectory draw budget, or column replay is not
        // bit-identical to the workspace engine.
        debug_assert_eq!(
            s, n_stoch,
            "panel pass consumed {s} of {n_stoch} stochastic draws"
        );
    }

    /// `P(1)` of every qubit of every column in one pass over the panel:
    /// `out[q * batch + c]` is column `c`'s marginal on qubit `q`.
    ///
    /// Per `(qubit, column)` pair the `f64` additions happen in increasing
    /// register-index order — the same sequence as
    /// [`TrajectoryWorkspace::probs_one_all`] (and `prob_one`) — so the
    /// sums are bit-identical to the per-trajectory engine's.
    pub fn probs_one_all(&mut self) -> Vec<f64> {
        let TrajectoryPanel {
            n_qubits,
            batch,
            ref re,
            ref im,
            ref mut norms,
            ..
        } = *self;
        let mut out = vec![0.0f64; n_qubits * batch];
        norms.clear();
        norms.resize(batch, 0.0);
        for (i, (rrow, irow)) in re
            .chunks_exact(batch)
            .zip(im.chunks_exact(batch))
            .enumerate()
        {
            if i == 0 {
                continue;
            }
            for ((n, &r), &m) in norms.iter_mut().zip(rrow.iter()).zip(irow.iter()) {
                *n = r * r + m * m;
            }
            let mut bits = i;
            while bits != 0 {
                let q = bits.trailing_zeros() as usize;
                let dst = &mut out[q * batch..(q + 1) * batch];
                for (d, &n) in dst.iter_mut().zip(norms.iter()) {
                    *d += n;
                }
                bits &= bits - 1;
            }
        }
        out
    }
}

/// Batched counterpart of [`estimate_prob_one`]: averages `n_trajectories`
/// seeded trajectories executed as [`TrajectoryPanel`] chunks of at most
/// `panel_width` columns — the one-seed call of
/// [`estimate_prob_one_panel_multi`].
///
/// **Bit-identical** to [`estimate_prob_one`] for every `(seed,
/// n_trajectories)` and every `panel_width`: the jump uniforms are
/// pre-drawn from the same single `StdRng` in trajectory-major order (so
/// trajectory `t` consumes exactly the draws it would consume in the
/// sequential engine no matter how trajectories are chunked into panels),
/// each column's amplitude arithmetic matches the workspace kernels
/// expression for expression, and the `P(1)` accumulation visits
/// trajectories in the same order.
///
/// # Panics
///
/// Panics if `n_trajectories == 0`, `panel_width == 0`, or a qubit is out
/// of range.
pub fn estimate_prob_one_panel(
    panel: &mut TrajectoryPanel,
    program: &FusedProgram,
    qubits: &[usize],
    n_trajectories: u32,
    seed: u64,
    panel_width: usize,
) -> TrajectoryEstimate {
    estimate_prob_one_panel_multi(panel, program, qubits, n_trajectories, &[seed], panel_width)
        .remove(0)
}

/// Multi-probe counterpart of [`estimate_prob_one_panel`]: evaluates one
/// compiled program under several independent trajectory streams (one
/// `seed` per probe) while sharing a single [`TrajectoryPanel`] across all
/// of them.
///
/// This is the trajectory half of the batched gradient engine in
/// `qnn::executor`: shift/SPSA probes that bind to the **same** compiled
/// program (bitwise-equal parameter vectors under one snapshot) differ
/// only in their noise streams, so their trajectories can ride the same
/// panel sweeps. Probe `p`'s trajectories occupy the global column range
/// `p·N .. (p+1)·N`; a chunk of up to `panel_width` columns may therefore
/// span probe boundaries, which fills the panel where per-probe chunking
/// would run partial tail chunks.
///
/// **Bit-identity**: element `p` of the result equals the one-seed call
/// `estimate_prob_one_panel(panel, program, qubits, n_trajectories,
/// seeds[p], panel_width)` exactly, for every width. Each probe's uniforms
/// are drawn from its own `StdRng` in trajectory-major order (a column
/// consumes exactly the draws its trajectory would consume standalone),
/// each column's amplitude arithmetic is independent of its neighbours,
/// and each probe's `P(1)` accumulation visits its trajectories in
/// increasing trajectory order regardless of where chunk boundaries fall.
/// A deterministic program runs one exact pass (one trajectory) shared by
/// every probe: it consumes no uniform, so its result is seed-independent
/// and the sharing is exact.
///
/// # Panics
///
/// As [`estimate_prob_one_panel`].
pub fn estimate_prob_one_panel_multi(
    panel: &mut TrajectoryPanel,
    program: &FusedProgram,
    qubits: &[usize],
    n_trajectories: u32,
    seeds: &[u64],
    panel_width: usize,
) -> Vec<TrajectoryEstimate> {
    assert!(n_trajectories > 0, "need at least one trajectory");
    assert!(panel_width > 0, "panel width must be positive");
    for &q in qubits {
        assert!(q < program.n_qubits(), "qubit {q} out of range");
    }
    if seeds.is_empty() {
        return Vec::new();
    }
    // A deterministic program consumes no uniform, so one exact pass
    // (n = 1, run for the first seed) is every seed's result.
    let (n_trajectories, streams) = if program.is_deterministic() {
        (1, &seeds[..1])
    } else {
        (n_trajectories, seeds)
    };
    let n = n_trajectories as usize;
    let n_stoch = program.n_stochastic_atoms();
    let width = panel_width.min(MAX_PANEL_WIDTH);
    let mut rngs: Vec<StdRng> = streams.iter().map(|&s| StdRng::seed_from_u64(s)).collect();
    let nq = qubits.len();
    let mut sum = vec![0.0f64; streams.len() * nq];
    let mut sum_sq = vec![0.0f64; streams.len() * nq];
    let total = streams.len() * n;
    let mut owners: Vec<usize> = Vec::with_capacity(width);
    let mut start = 0usize;
    while start < total {
        let b = width.min(total - start);
        let mut uniforms = std::mem::take(&mut panel.uniforms);
        uniforms.clear();
        owners.clear();
        for c in 0..b {
            // Column `start + c` is trajectory `(start + c) % n` of probe
            // `(start + c) / n`; its uniforms come from that probe's RNG,
            // which is thereby consumed in trajectory-major order.
            let p = (start + c) / n;
            owners.push(p);
            uniforms.extend((0..n_stoch).map(|_| rngs[p].gen::<f64>()));
        }
        panel.reset_zero(program.n_qubits(), b);
        panel.run_stochastic(program, &uniforms);
        panel.uniforms = uniforms;
        let probs = panel.probs_one_all();
        for (c, &p) in owners.iter().enumerate() {
            for (i, &q) in qubits.iter().enumerate() {
                let v = probs[q * b + c];
                sum[p * nq + i] += v;
                sum_sq[p * nq + i] += v * v;
            }
        }
        start += b;
    }
    (0..seeds.len())
        .map(|p| {
            // Every seed of a deterministic program reads the one pass.
            let p = p.min(streams.len() - 1);
            finish_estimate(
                qubits,
                sum[p * nq..(p + 1) * nq].to_vec(),
                sum_sq[p * nq..(p + 1) * nq].to_vec(),
                n_trajectories,
            )
        })
        .collect()
}

/// Per-qubit `P(1)` estimate from a batch of trajectories, with the
/// standard error the cross-backend consistency harness derives its
/// confidence bound from.
#[derive(Debug, Clone, PartialEq)]
pub struct TrajectoryEstimate {
    /// Qubits the estimate covers, in request order.
    pub qubits: Vec<usize>,
    /// Mean `P(1)` per qubit (unbiased estimate of the exact channel
    /// average).
    pub p_one: Vec<f64>,
    /// Standard error of each mean (`√(s² / N)` with the sample variance
    /// `s²`; 0 when the program is deterministic).
    pub std_err: Vec<f64>,
    /// Number of trajectories averaged (1 for deterministic programs).
    pub n_trajectories: u32,
}

impl TrajectoryEstimate {
    /// `P(1)` of a covered qubit.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not one of the estimated qubits.
    pub fn p_one_of(&self, q: usize) -> f64 {
        let idx = self
            .qubits
            .iter()
            .position(|&x| x == q)
            .unwrap_or_else(|| panic!("qubit {q} not covered by this estimate"));
        self.p_one[idx]
    }

    /// `⟨Z⟩ = 1 − 2·P(1)` per covered qubit.
    pub fn z_scores(&self) -> Vec<f64> {
        self.p_one.iter().map(|p| 1.0 - 2.0 * p).collect()
    }

    /// Standard error of each Z score (`2 ×` the `P(1)` standard error).
    pub fn z_std_err(&self) -> Vec<f64> {
        self.std_err.iter().map(|s| 2.0 * s).collect()
    }
}

/// Averages `n_trajectories` seeded trajectories of `program` and returns
/// per-qubit `P(1)` estimates with standard errors.
///
/// Deterministic: the whole batch draws from one `StdRng` seeded with
/// `seed`, so identical `(program, qubits, n_trajectories, seed)` inputs
/// return identical bits on any thread. Programs with no stochastic atom
/// short-circuit to a single exact trajectory.
///
/// # Panics
///
/// Panics if `n_trajectories == 0` or a qubit is out of range.
pub fn estimate_prob_one(
    ws: &mut TrajectoryWorkspace,
    program: &FusedProgram,
    qubits: &[usize],
    n_trajectories: u32,
    seed: u64,
) -> TrajectoryEstimate {
    assert!(n_trajectories > 0, "need at least one trajectory");
    for &q in qubits {
        assert!(q < program.n_qubits(), "qubit {q} out of range");
    }
    let n = if program.is_deterministic() {
        1
    } else {
        n_trajectories
    };
    let mut rng = StdRng::seed_from_u64(seed);
    let mut sum = vec![0.0f64; qubits.len()];
    let mut sum_sq = vec![0.0f64; qubits.len()];
    for _ in 0..n {
        ws.reset_zero(program.n_qubits());
        ws.run_stochastic(program, &mut rng);
        // One sweep for all marginals (bit-identical to per-qubit
        // `prob_one`, see `probs_one_all`).
        let probs = ws.probs_one_all();
        for (i, &q) in qubits.iter().enumerate() {
            let p = probs[q];
            sum[i] += p;
            sum_sq[i] += p * p;
        }
    }
    finish_estimate(qubits, sum, sum_sq, n)
}

/// Folds trajectory-ordered `P(1)` sums into the final estimate (shared by
/// the per-trajectory and panel paths so the statistics can never drift).
fn finish_estimate(
    qubits: &[usize],
    sum: Vec<f64>,
    sum_sq: Vec<f64>,
    n: u32,
) -> TrajectoryEstimate {
    let nf = n as f64;
    let p_one: Vec<f64> = sum.iter().map(|s| s / nf).collect();
    let std_err: Vec<f64> = sum_sq
        .iter()
        .zip(p_one.iter())
        .map(|(&sq, &m)| {
            if n < 2 {
                0.0
            } else {
                let var = ((sq - nf * m * m) / (nf - 1.0)).max(0.0);
                (var / nf).sqrt()
            }
        })
        .collect();
    TrajectoryEstimate {
        qubits: qubits.to_vec(),
        p_one,
        std_err,
        n_trajectories: n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::density::DensityMatrix;
    use crate::fused::ProgramBuilder;
    use crate::gate::{BoundGate, GateKind};
    use crate::statevector::run_circuit;

    #[test]
    fn deterministic_program_matches_statevector_bits() {
        let gates = [
            BoundGate::one(GateKind::H, 0, 0.0),
            BoundGate::one(GateKind::Ry, 1, 0.7),
            BoundGate::two(GateKind::Cx, 0, 2, 0.0),
            BoundGate::one(GateKind::Rz, 2, -0.4),
            BoundGate::two(GateKind::Crz, 2, 1, 1.1),
        ];
        let reference = run_circuit(3, &gates);

        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(0, GateKind::H.entries_1q(0.0).unwrap());
        b.unitary_1q(1, GateKind::Ry.entries_1q(0.7).unwrap());
        b.cx(0, 2);
        b.unitary_1q(2, GateKind::Rz.entries_1q(-0.4).unwrap());
        b.unitary_2q(2, 1, GateKind::Crz.entries_2q(1.1).unwrap());
        let program = b.finish();
        assert!(program.is_deterministic());

        let mut ws = TrajectoryWorkspace::new();
        let est = estimate_prob_one(&mut ws, &program, &[0, 1, 2], 500, 3);
        // Deterministic programs short-circuit to one exact pass.
        assert_eq!(est.n_trajectories, 1);
        for (q, (p, se)) in est.p_one.iter().zip(est.std_err.iter()).enumerate() {
            assert_eq!(p.to_bits(), reference.prob_one(q).to_bits());
            assert_eq!(*se, 0.0);
        }
    }

    #[test]
    fn estimate_is_seed_deterministic() {
        // Asymmetric rotation so Pauli jumps genuinely move the marginals
        // (on a Bell pair every Pauli jump leaves P(1) at 1/2).
        let mut b = ProgramBuilder::new(2);
        b.unitary_1q(0, GateKind::Ry.entries_1q(0.7).unwrap());
        b.depolarize_1q(0, 0.2);
        b.cx(0, 1);
        b.depolarize_2q(0.1, 0, 1);
        let program = b.finish();
        let mut ws = TrajectoryWorkspace::new();
        let a = estimate_prob_one(&mut ws, &program, &[0, 1], 64, 42);
        let b2 = estimate_prob_one(&mut ws, &program, &[0, 1], 64, 42);
        assert_eq!(a, b2);
        let c = estimate_prob_one(&mut ws, &program, &[0, 1], 64, 43);
        assert_ne!(a.p_one, c.p_one);
    }

    #[test]
    fn depolarising_average_converges_to_density_matrix() {
        // X then strong depolarising on qubit 0: exact P(1) from ρ.
        let lambda = 0.6;
        let mut rho = DensityMatrix::zero_state(2);
        rho.apply_gate(&BoundGate::one(GateKind::X, 0, 0.0));
        rho.apply_depolarizing_1q(lambda, 0);
        rho.apply_cx(0, 1);
        rho.apply_depolarizing_2q(0.3, 0, 1);
        let exact = [rho.prob_one(0), rho.prob_one(1)];

        let mut b = ProgramBuilder::new(2);
        b.unitary_1q(0, GateKind::X.entries_1q(0.0).unwrap());
        b.depolarize_1q(0, lambda);
        b.cx(0, 1);
        b.depolarize_2q(0.3, 0, 1);
        let program = b.finish();
        let mut ws = TrajectoryWorkspace::new();
        let est = estimate_prob_one(&mut ws, &program, &[0, 1], 4000, 11);
        for (i, &e) in exact.iter().enumerate() {
            let bound = 6.0 * est.std_err[i] + 1e-9;
            assert!(
                (est.p_one[i] - e).abs() <= bound,
                "qubit {i}: {} vs exact {e} (bound {bound})",
                est.p_one[i]
            );
        }
    }

    #[test]
    fn trajectories_preserve_norm() {
        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(0, GateKind::H.entries_1q(0.0).unwrap());
        b.depolarize_1q(0, 0.9);
        b.cx(0, 1);
        b.depolarize_2q(0.8, 0, 1);
        b.unitary_2q(1, 2, GateKind::Cry.entries_2q(0.8).unwrap());
        let program = b.finish();
        let mut ws = TrajectoryWorkspace::new();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..50 {
            ws.reset_zero(3);
            ws.run_stochastic(&program, &mut rng);
            assert!((ws.norm_sqr() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn amplitude_damping_unravels_to_ground_state() {
        // γ = 1 damping always jumps |1⟩ → |0⟩, whichever branch fires.
        let ch = KrausChannel::amplitude_damping(1.0);
        let mut ws = TrajectoryWorkspace::new();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..20 {
            ws.reset_zero(1);
            m2_on(
                &mut ws.amps,
                0,
                &GateKind::X.entries_1q(0.0).unwrap(),
                MatClass::Real,
            );
            ws.apply_channel_stochastic(&ch, &[0], &mut rng);
            assert!(ws.prob_one(0) < 1e-12);
            assert!((ws.norm_sqr() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn generic_kraus_unraveling_matches_channel_average() {
        // |+⟩ through amplitude damping: exact ρ vs trajectory average.
        let gamma = 0.35;
        let ch = KrausChannel::amplitude_damping(gamma);
        let mut rho = DensityMatrix::zero_state(1);
        rho.apply_gate(&BoundGate::one(GateKind::H, 0, 0.0));
        rho.apply_channel(&ch, &[0]);
        let exact = rho.prob_one(0);

        let mut ws = TrajectoryWorkspace::new();
        let mut rng = StdRng::seed_from_u64(17);
        let n = 20_000;
        let mut sum = 0.0;
        for _ in 0..n {
            ws.reset_zero(1);
            m2_on(
                &mut ws.amps,
                0,
                GateKind::H.fixed_entries_1q().unwrap(),
                MatClass::Real,
            );
            ws.apply_channel_stochastic(&ch, &[0], &mut rng);
            sum += ws.prob_one(0);
        }
        let mean = sum / n as f64;
        assert!(
            (mean - exact).abs() < 0.01,
            "trajectory mean {mean} vs exact {exact}"
        );
    }

    fn noisy_test_program() -> FusedProgram {
        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(0, GateKind::Ry.entries_1q(0.7).unwrap());
        b.depolarize_1q(0, 0.3);
        b.cx(0, 1);
        b.depolarize_2q(0.2, 0, 1);
        b.unitary_1q(2, GateKind::Rz.entries_1q(-0.4).unwrap());
        b.unitary_2q(1, 2, GateKind::Cry.entries_2q(0.8).unwrap());
        b.depolarize_2q(0.15, 2, 1);
        b.finish()
    }

    #[test]
    fn probs_one_all_matches_per_qubit_prob_one_bits() {
        let program = noisy_test_program();
        let mut ws = TrajectoryWorkspace::new();
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..20 {
            ws.reset_zero(3);
            ws.run_stochastic(&program, &mut rng);
            let all = ws.probs_one_all();
            for (q, p) in all.iter().enumerate() {
                assert_eq!(p.to_bits(), ws.prob_one(q).to_bits());
            }
        }
    }

    #[test]
    fn supergroup_planner_joins_three_qubit_support() {
        let program = noisy_test_program();
        // Ry(0)·dep₁(0) / CX(0,1)·dep₂(0,1) / Rz(2) / Cry(1,2)·dep₂(2,1)
        // spans exactly {0, 1, 2}: one three-wire group covers the program,
        // wires in first-seen order.
        let plan = supergroup_plan(&program);
        assert_eq!(plan.len(), 1);
        assert_eq!(plan[0].segments, 0..program.segments().len());
        assert_eq!((plan[0].u, plan[0].v, plan[0].w), (0, Some(1), Some(2)));
    }

    #[test]
    fn supergroup_planner_splits_on_fourth_wire() {
        let mut b = ProgramBuilder::new(4);
        b.cx(0, 1);
        b.depolarize_2q(0.1, 0, 1);
        b.unitary_1q(2, GateKind::Ry.entries_1q(0.3).unwrap());
        b.cx(2, 3);
        let program = b.finish();
        let plan = supergroup_plan(&program);
        // {0,1,2} fits the cap; segment on (2,3) brings qubit 3 and must
        // open a new group.
        assert_eq!(plan.len(), 2);
        assert_eq!((plan[0].u, plan[0].v, plan[0].w), (0, Some(1), Some(2)));
        assert_eq!((plan[1].u, plan[1].v, plan[1].w), (2, Some(3), None));
    }

    #[test]
    fn scalar_and_avx2_kernels_are_bit_identical() {
        if !KernelMode::avx2_supported() {
            return;
        }
        let program = noisy_test_program();
        let n_stoch = program.n_stochastic_atoms();
        // Width 7: exercises the vector loops' scalar remainder tail.
        let batch = 7usize;
        let mut rng = StdRng::seed_from_u64(21);
        let uniforms: Vec<f64> = (0..batch * n_stoch).map(|_| rng.gen()).collect();
        let mut scalar = TrajectoryPanel::new();
        scalar.set_kernel_mode(KernelMode::Scalar);
        scalar.reset_zero(3, batch);
        scalar.run_stochastic(&program, &uniforms);
        let mut simd = TrajectoryPanel::new();
        simd.set_kernel_mode(KernelMode::Avx2);
        simd.reset_zero(3, batch);
        simd.run_stochastic(&program, &uniforms);
        for c in 0..batch {
            for (i, (a, b)) in scalar
                .column(c)
                .iter()
                .zip(simd.column(c).iter())
                .enumerate()
            {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "column {c} amplitude {i}: scalar {a} vs avx2 {b}"
                );
            }
        }
    }

    #[test]
    fn panel_estimate_is_bit_identical_to_per_trajectory_engine() {
        let program = noisy_test_program();
        let mut ws = TrajectoryWorkspace::new();
        let reference = estimate_prob_one(&mut ws, &program, &[0, 1, 2], 96, 33);
        let mut panel = TrajectoryPanel::new();
        for width in [1usize, 2, 7, 32, 96, 128] {
            let got = estimate_prob_one_panel(&mut panel, &program, &[0, 1, 2], 96, 33, width);
            assert_eq!(got.n_trajectories, reference.n_trajectories);
            for i in 0..3 {
                assert_eq!(
                    got.p_one[i].to_bits(),
                    reference.p_one[i].to_bits(),
                    "width {width} qubit {i} p_one"
                );
                assert_eq!(
                    got.std_err[i].to_bits(),
                    reference.std_err[i].to_bits(),
                    "width {width} qubit {i} std_err"
                );
            }
        }
    }

    #[test]
    fn panel_columns_replay_individual_trajectories_bitwise() {
        let program = noisy_test_program();
        let n_stoch = program.n_stochastic_atoms();
        assert_eq!(n_stoch, 3);
        let batch = 5usize;
        let mut rng = StdRng::seed_from_u64(77);
        let uniforms: Vec<f64> = (0..batch * n_stoch).map(|_| rng.gen()).collect();

        let mut panel = TrajectoryPanel::new();
        panel.reset_zero(3, batch);
        panel.run_stochastic(&program, &uniforms);

        // Per-trajectory engine replaying the same draw sequence: one fresh
        // run per column, consuming that column's uniforms in order.
        let mut replay_rng = StdRng::seed_from_u64(77);
        let mut ws = TrajectoryWorkspace::new();
        for c in 0..batch {
            ws.reset_zero(3);
            ws.run_stochastic(&program, &mut replay_rng);
            let col = panel.column(c);
            for (i, (a, b)) in col.iter().zip(ws.amplitudes().iter()).enumerate() {
                assert!(
                    a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
                    "column {c} amplitude {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn multi_probe_panel_matches_per_probe_panel_bitwise() {
        let program = noisy_test_program();
        let seeds = [11u64, 12, 13, 14, 15];
        let mut panel = TrajectoryPanel::new();
        // Widths that divide the per-probe count, exceed it (chunks span
        // probe boundaries), and leave ragged tails.
        for width in [1usize, 5, 7, 24, 64, 200] {
            let got =
                estimate_prob_one_panel_multi(&mut panel, &program, &[0, 1, 2], 24, &seeds, width);
            assert_eq!(got.len(), seeds.len());
            for (p, &seed) in seeds.iter().enumerate() {
                let mut solo = TrajectoryPanel::new();
                let want =
                    estimate_prob_one_panel(&mut solo, &program, &[0, 1, 2], 24, seed, width);
                assert_eq!(got[p].n_trajectories, want.n_trajectories);
                for i in 0..3 {
                    assert_eq!(
                        got[p].p_one[i].to_bits(),
                        want.p_one[i].to_bits(),
                        "width {width} probe {p} qubit {i} p_one"
                    );
                    assert_eq!(
                        got[p].std_err[i].to_bits(),
                        want.std_err[i].to_bits(),
                        "width {width} probe {p} qubit {i} std_err"
                    );
                }
            }
        }
    }

    #[test]
    fn multi_probe_panel_shares_deterministic_pass() {
        let mut b = ProgramBuilder::new(2);
        b.unitary_1q(0, GateKind::H.entries_1q(0.0).unwrap());
        b.cx(0, 1);
        let program = b.finish();
        let mut panel = TrajectoryPanel::new();
        let ests = estimate_prob_one_panel_multi(&mut panel, &program, &[0, 1], 64, &[3, 9], 16);
        assert_eq!(ests.len(), 2);
        for est in &ests {
            assert_eq!(est.n_trajectories, 1);
            let want = estimate_prob_one_panel(&mut panel, &program, &[0, 1], 64, 999, 16);
            for i in 0..2 {
                assert_eq!(est.p_one[i].to_bits(), want.p_one[i].to_bits());
            }
        }
        assert!(estimate_prob_one_panel_multi(&mut panel, &program, &[0], 8, &[], 4).is_empty());
    }

    #[test]
    fn deterministic_program_short_circuits_on_panel_too() {
        let mut b = ProgramBuilder::new(2);
        b.unitary_1q(0, GateKind::H.entries_1q(0.0).unwrap());
        b.cx(0, 1);
        let program = b.finish();
        let mut panel = TrajectoryPanel::new();
        let est = estimate_prob_one_panel(&mut panel, &program, &[0, 1], 500, 1, 64);
        assert_eq!(est.n_trajectories, 1);
        assert!(est.std_err.iter().all(|&s| s == 0.0));
    }

    #[test]
    fn auto_panel_width_shrinks_with_register_size() {
        assert_eq!(auto_panel_width(4), 16);
        assert_eq!(auto_panel_width(16), 8);
        assert_eq!(auto_panel_width(20), MIN_AUTO_PANEL_WIDTH);
        assert!(auto_panel_width(MAX_TRAJECTORY_QUBITS) >= MIN_AUTO_PANEL_WIDTH);
    }

    #[test]
    fn auto_panel_width_keeps_simd_fill_on_wide_registers() {
        // Pinned width per register size across the trajectory engine's
        // whole range: the 8 MiB streaming budget picks the width down to
        // 17 qubits, the SIMD-lane floor holds from 18 on (wide registers
        // must not degenerate to per-trajectory execution).
        for n in 4..=MAX_TRAJECTORY_QUBITS {
            let expect = match n {
                4..=15 => 16,
                16 => 8,
                17 => 4,
                _ => MIN_AUTO_PANEL_WIDTH,
            };
            assert_eq!(auto_panel_width(n), expect, "auto width at {n} qubits");
        }
        assert!(auto_panel_width(20) >= 4);
    }

    #[test]
    fn panel_width_value_resolution() {
        // Explicit values parse (clamped to the trajectory count)...
        assert_eq!(panel_width_from_value(Some("12"), 16, 256), 12);
        assert_eq!(panel_width_from_value(Some(" 7 "), 16, 256), 7);
        assert_eq!(panel_width_from_value(Some("12"), 16, 5), 5);
        // ...an unset variable resolves to the auto width...
        assert_eq!(panel_width_from_value(None, 16, 256), auto_panel_width(16));
        // ...and the hard cap holds.
        assert_eq!(
            panel_width_from_value(Some("999999"), 4, u32::MAX),
            MAX_PANEL_WIDTH
        );
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn panel_width_rejects_whitespace_value() {
        let _ = panel_width_from_value(Some("   "), 16, 256);
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn panel_width_rejects_empty_value() {
        let _ = panel_width_from_value(Some(""), 16, 256);
    }

    #[test]
    #[should_panic(expected = "positive integer")]
    fn panel_width_rejects_zero_value() {
        let _ = panel_width_from_value(Some("0"), 16, 256);
    }

    #[test]
    #[should_panic(expected = "unsupported panel width")]
    fn panel_rejects_zero_width() {
        let mut panel = TrajectoryPanel::new();
        panel.reset_zero(2, 0);
    }

    #[test]
    #[should_panic(expected = "unsupported qubit count")]
    fn workspace_rejects_oversized_register() {
        let mut ws = TrajectoryWorkspace::new();
        ws.reset_zero(MAX_TRAJECTORY_QUBITS + 1);
    }

    #[test]
    #[should_panic(expected = "at least one trajectory")]
    fn estimate_rejects_zero_trajectories() {
        let mut b = ProgramBuilder::new(1);
        b.depolarize_1q(0, 0.1);
        let program = b.finish();
        let mut ws = TrajectoryWorkspace::new();
        let _ = estimate_prob_one(&mut ws, &program, &[0], 0, 0);
    }
}
