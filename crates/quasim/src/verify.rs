//! Static IR verification for fused programs and supergroup plans.
//!
//! Everything the reproduction promises — bit-identity across backends,
//! threads, panel widths, and cache warmth — rests on the compiled
//! [`FusedProgram`] IR honouring a set of structural invariants that are
//! otherwise enforced only by the builder's construction discipline. This
//! module checks them **statically**, without executing a single kernel:
//!
//! - the register size is within the trajectory engine's cap;
//! - segments partition the atom table contiguously, in order, with no
//!   empty, overlapping, or dangling ranges;
//! - every support qubit is in-bounds and pair supports are collision-free;
//! - every atom's arity matches its segment's support
//!   (2^|support|-dimensional matrices only);
//! - matrix table indices are in-bounds and no table entry is orphaned;
//! - every [`MatClass`] claim is re-derived from the actual matrix
//!   (the kernels pick conjugation paths from the claim, so a wrong claim
//!   silently corrupts amplitudes);
//! - every prebound matrix is unitary within [`VERIFY_TOL`];
//! - every precomposed matrix (see
//!   [`FusedProgram::precompose`]) equals the composition of its recorded
//!   factors **bit-exactly** — the composition expression is part of the
//!   IR contract;
//! - every stochastic atom's `λ` is finite and in `(0, 1]`;
//! - the panel supergroup plan covers all segments contiguously and every
//!   group's union support fits its `(u, v, w)` wire basis: the
//!   `k ≤ `[`SUPERGROUP_CAP`](crate::trajectory::SUPERGROUP_CAP) wires
//!   whose `2^k` strips the panel's one window engine walks (wire `i` is
//!   strip bit `k − 1 − i`), so every atom of the group addresses a strip
//!   of the pass that runs it.
//!
//! [`verify_program`] is wired as a `debug_assert!` at the
//! [`ProgramBuilder`](crate::fused::ProgramBuilder) compile boundary and is
//! available standalone for release-mode sweeps (see the `verify_sweep`
//! binary in `qucad_bench`). [`verify_channel`] does the same for Kraus
//! completeness. The [`mutate`] module is the verifier's own proof: a
//! seeded program mutator with a catalogue of corruption classes, each of
//! which must be rejected.

use crate::fused::{classify2, compose2, compose4, FusedAtom, FusedProgram, MatClass, Support};
use crate::math::CMatrix;
use crate::noise::KrausChannel;
use crate::trajectory::{supergroup_plan, Supergroup, MAX_TRAJECTORY_QUBITS, SUPERGROUP_CAP};

/// Numeric tolerance of the matrix-shaped checks (unitarity, Kraus
/// completeness): prebound matrices are exact gate unitaries, so anything
/// beyond a few ulps of accumulated rounding is corruption, not noise.
pub const VERIFY_TOL: f64 = 1e-12;

/// A violated IR invariant, carrying enough position information to find
/// the offending entity.
#[derive(Debug, Clone, PartialEq)]
pub enum VerifyError {
    /// The program's register size is outside `1..=MAX_TRAJECTORY_QUBITS`.
    RegisterSize {
        /// Declared register size.
        n_qubits: usize,
    },
    /// A segment's atom range is empty (the builder never emits these).
    EmptySegment {
        /// Segment index.
        segment: usize,
    },
    /// A segment's atom range does not start where the previous one ended
    /// (gap or overlap in the partition of the atom table).
    SegmentCoverage {
        /// Segment index.
        segment: usize,
        /// Where the segment had to start.
        expected_start: usize,
        /// Where it actually starts.
        found_start: usize,
    },
    /// The segments do not cover the full atom table.
    DanglingAtoms {
        /// Atoms covered by segments.
        covered: usize,
        /// Atoms in the program.
        total: usize,
    },
    /// A support qubit is outside the register.
    SupportOutOfRange {
        /// Segment index.
        segment: usize,
        /// The out-of-range qubit.
        qubit: usize,
    },
    /// A two-qubit support names the same qubit twice.
    SupportCollision {
        /// Segment index.
        segment: usize,
        /// The colliding qubit.
        qubit: usize,
    },
    /// An atom's arity does not match its segment's support (its matrix
    /// dimension would not be `2^|support|`).
    AtomArity {
        /// Segment index.
        segment: usize,
        /// Atom index into the program's atom table.
        atom: usize,
    },
    /// A matrix table index is out of bounds.
    MatrixIndex {
        /// Atom index into the program's atom table.
        atom: usize,
        /// The out-of-range table index.
        index: usize,
        /// Length of the addressed table.
        table_len: usize,
    },
    /// A matrix table entry is referenced by no atom.
    OrphanMatrix {
        /// Which table (`"m2"` or `"m4"`).
        table: &'static str,
        /// The orphaned entry's index.
        index: usize,
    },
    /// A [`MatClass`] claim disagrees with the classification re-derived
    /// from the actual matrix entries.
    ClassClaim {
        /// Atom index into the program's atom table.
        atom: usize,
        /// The atom's claimed class.
        claimed: MatClass,
        /// The class derived from the matrix.
        derived: MatClass,
    },
    /// A prebound matrix is not unitary within [`VERIFY_TOL`].
    NonUnitary {
        /// Which table (`"m2"` or `"m4"`).
        table: &'static str,
        /// The entry's index.
        index: usize,
    },
    /// A precomposed table entry is malformed: its index is out of range,
    /// it records fewer than two factors, or it does not equal the
    /// bit-exact composition of its recorded factors.
    ComposeMismatch {
        /// Which table (`"m2"` or `"m4"`).
        table: &'static str,
        /// The composed entry's table index.
        index: usize,
    },
    /// A stochastic atom's strength is not finite or outside `(0, 1]`.
    Lambda {
        /// Atom index into the program's atom table.
        atom: usize,
        /// The offending strength.
        lambda: f64,
    },
    /// A supergroup's segment range does not start where the previous one
    /// ended.
    PlanCoverage {
        /// Group index in the plan.
        group: usize,
        /// Where the group had to start.
        expected_start: usize,
        /// Where it actually starts.
        found_start: usize,
    },
    /// The plan does not cover the full segment list.
    PlanDangling {
        /// Segments covered by the plan.
        covered: usize,
        /// Segments in the program.
        total: usize,
    },
    /// A group's `(u, v, w)` wire basis is malformed (out of range,
    /// colliding, or a later wire set while an earlier one is empty) —
    /// the union support would exceed the supergroup cap.
    PlanWires {
        /// Group index in the plan.
        group: usize,
    },
    /// A segment's support is not contained in its group's `(u, v, w)`
    /// wire basis.
    PlanSupport {
        /// Group index in the plan.
        group: usize,
        /// The escaping segment's index.
        segment: usize,
    },
    /// A channel's Kraus operators fail the completeness relation
    /// `Σ K†K = I` within [`VERIFY_TOL`].
    ChannelIncomplete {
        /// Arity of the channel (1 or 2 qubits).
        arity: usize,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            VerifyError::RegisterSize { n_qubits } => write!(
                f,
                "register size {n_qubits} outside 1..={MAX_TRAJECTORY_QUBITS}"
            ),
            VerifyError::EmptySegment { segment } => {
                write!(f, "segment {segment} has an empty atom range")
            }
            VerifyError::SegmentCoverage {
                segment,
                expected_start,
                found_start,
            } => write!(
                f,
                "segment {segment} starts at atom {found_start}, expected {expected_start} \
                 (gap or overlap)"
            ),
            VerifyError::DanglingAtoms { covered, total } => {
                write!(f, "segments cover {covered} of {total} atoms")
            }
            VerifyError::SupportOutOfRange { segment, qubit } => {
                write!(f, "segment {segment} supports out-of-range qubit {qubit}")
            }
            VerifyError::SupportCollision { segment, qubit } => write!(
                f,
                "segment {segment} names qubit {qubit} twice in a pair support"
            ),
            VerifyError::AtomArity { segment, atom } => write!(
                f,
                "atom {atom} has the wrong arity for segment {segment}'s support"
            ),
            VerifyError::MatrixIndex {
                atom,
                index,
                table_len,
            } => write!(
                f,
                "atom {atom} references matrix {index} of a {table_len}-entry table"
            ),
            VerifyError::OrphanMatrix { table, index } => {
                write!(f, "{table} table entry {index} is referenced by no atom")
            }
            VerifyError::ClassClaim {
                atom,
                claimed,
                derived,
            } => write!(
                f,
                "atom {atom} claims class {claimed:?} but the matrix derives {derived:?}"
            ),
            VerifyError::NonUnitary { table, index } => write!(
                f,
                "{table} table entry {index} is not unitary within {VERIFY_TOL:e}"
            ),
            VerifyError::ComposeMismatch { table, index } => write!(
                f,
                "composed {table} table entry {index} does not equal the bit-exact \
                 composition of its recorded factors"
            ),
            VerifyError::Lambda { atom, lambda } => write!(
                f,
                "atom {atom} has depolarising strength {lambda} outside (0, 1]"
            ),
            VerifyError::PlanCoverage {
                group,
                expected_start,
                found_start,
            } => write!(
                f,
                "supergroup {group} starts at segment {found_start}, expected {expected_start}"
            ),
            VerifyError::PlanDangling { covered, total } => {
                write!(f, "supergroup plan covers {covered} of {total} segments")
            }
            VerifyError::PlanWires { group } => write!(
                f,
                "supergroup {group} has a malformed (u, v, w) wire basis \
                 (union support exceeds the {SUPERGROUP_CAP}-qubit cap)"
            ),
            VerifyError::PlanSupport { group, segment } => write!(
                f,
                "segment {segment} escapes supergroup {group}'s (u, v, w) wire basis"
            ),
            VerifyError::ChannelIncomplete { arity } => write!(
                f,
                "{arity}-qubit channel fails Kraus completeness within {VERIFY_TOL:e}"
            ),
        }
    }
}

impl std::error::Error for VerifyError {}

/// Statically checks every IR invariant of a compiled program; `Ok(())`
/// means the program is structurally sound for all execution engines
/// (dense `ρ`, workspace trajectories, tiled panels).
///
/// Runs no kernel and allocates only two reference bitmaps; cost is linear
/// in the program size plus one `4×4` unitarity product per prebound
/// matrix.
///
/// # Examples
///
/// ```
/// use quasim::gate::GateKind;
/// use quasim::fused::ProgramBuilder;
/// use quasim::verify::verify_program;
///
/// let mut b = ProgramBuilder::new(2);
/// b.unitary_1q(0, GateKind::H.matrix(0.0).to_2x2().unwrap());
/// b.cx(0, 1);
/// b.depolarize_2q(0.05, 0, 1);
/// let program = b.finish();
/// assert!(verify_program(&program).is_ok());
/// ```
pub fn verify_program(program: &FusedProgram) -> Result<(), VerifyError> {
    if !(1..=MAX_TRAJECTORY_QUBITS).contains(&program.n_qubits) {
        return Err(VerifyError::RegisterSize {
            n_qubits: program.n_qubits,
        });
    }

    // Segments must partition the atom table contiguously, in order.
    let mut cursor = 0usize;
    for (si, seg) in program.segments.iter().enumerate() {
        let range = seg.atom_range();
        if range.is_empty() {
            return Err(VerifyError::EmptySegment { segment: si });
        }
        if range.start != cursor {
            return Err(VerifyError::SegmentCoverage {
                segment: si,
                expected_start: cursor,
                found_start: range.start,
            });
        }
        cursor = range.end;
        verify_support(si, seg.support(), program.n_qubits)?;
        for (ai, atom) in (range.start..).zip(&program.atoms[range]) {
            verify_atom(si, ai, seg.support(), atom, program)?;
        }
    }
    if cursor != program.atoms.len() {
        return Err(VerifyError::DanglingAtoms {
            covered: cursor,
            total: program.atoms.len(),
        });
    }

    // No orphaned matrix table entries (every entry is owned by exactly
    // the atom that prebound it; plain bitmaps, no hashing).
    let mut m2_used = vec![false; program.m2s.len()];
    let mut m4_used = vec![false; program.m4s.len()];
    for atom in &program.atoms {
        match *atom {
            FusedAtom::Unitary1 { m2, .. } => m2_used[m2 as usize] = true,
            FusedAtom::Unitary2 { m4, .. } => m4_used[m4 as usize] = true,
            _ => {}
        }
    }
    if let Some(index) = m2_used.iter().position(|&u| !u) {
        return Err(VerifyError::OrphanMatrix { table: "m2", index });
    }
    if let Some(index) = m4_used.iter().position(|&u| !u) {
        return Err(VerifyError::OrphanMatrix { table: "m4", index });
    }

    // Every prebound matrix is a unitary (the kernels conjugate with it
    // assuming `U† = U⁻¹`).
    for (index, m) in program.m2s.iter().enumerate() {
        if !CMatrix::from_slice(2, m).is_unitary(VERIFY_TOL) {
            return Err(VerifyError::NonUnitary { table: "m2", index });
        }
    }
    for (index, m) in program.m4s.iter().enumerate() {
        if !CMatrix::from_slice(4, m).is_unitary(VERIFY_TOL) {
            return Err(VerifyError::NonUnitary { table: "m4", index });
        }
    }

    // Precomposed products must be re-derivable bit-exactly from their
    // recorded factor provenance.
    verify_composed(program)?;

    // The panel engine's supergroup plan must satisfy its own invariants
    // for any structurally sound program.
    verify_supergroup_plan(program, &supergroup_plan(program))
}

/// Bit-exact slice equality on complex matrices (the composition check is
/// exact by contract, so no tolerance).
fn m_bits_eq(a: &[crate::math::Complex64], b: &[crate::math::Complex64]) -> bool {
    a.iter()
        .zip(b)
        .all(|(x, y)| x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits())
}

/// Checks the precompose provenance tables: indices in range, at least two
/// factors per product (a one-factor "product" is never emitted), and each
/// stored matrix equal to [`compose2`]/[`compose4`] of its factors.
fn verify_composed(program: &FusedProgram) -> Result<(), VerifyError> {
    for (idx, factors) in program.composed2() {
        let index = *idx as usize;
        if index >= program.n_m2s()
            || factors.len() < 2
            || !m_bits_eq(program.m2(*idx), &compose2(factors))
        {
            return Err(VerifyError::ComposeMismatch { table: "m2", index });
        }
    }
    for (idx, factors) in program.composed4() {
        let index = *idx as usize;
        if index >= program.n_m4s()
            || factors.len() < 2
            || !m_bits_eq(program.m4(*idx), &compose4(factors))
        {
            return Err(VerifyError::ComposeMismatch { table: "m4", index });
        }
    }
    Ok(())
}

/// Checks one segment support against the register.
fn verify_support(segment: usize, support: Support, n_qubits: usize) -> Result<(), VerifyError> {
    match support {
        Support::One(q) => {
            if q >= n_qubits {
                return Err(VerifyError::SupportOutOfRange { segment, qubit: q });
            }
        }
        Support::Two(a, b) => {
            for q in [a, b] {
                if q >= n_qubits {
                    return Err(VerifyError::SupportOutOfRange { segment, qubit: q });
                }
            }
            if a == b {
                return Err(VerifyError::SupportCollision { segment, qubit: a });
            }
        }
    }
    Ok(())
}

/// Checks one atom against its segment's support and the matrix tables.
fn verify_atom(
    segment: usize,
    atom_idx: usize,
    support: Support,
    atom: &FusedAtom,
    program: &FusedProgram,
) -> Result<(), VerifyError> {
    let one_qubit = matches!(support, Support::One(_));
    match *atom {
        FusedAtom::Unitary1 { m2, class } => {
            if !one_qubit {
                return Err(VerifyError::AtomArity {
                    segment,
                    atom: atom_idx,
                });
            }
            let index = m2 as usize;
            if index >= program.m2s.len() {
                return Err(VerifyError::MatrixIndex {
                    atom: atom_idx,
                    index,
                    table_len: program.m2s.len(),
                });
            }
            let derived = classify2(&program.m2s[index]);
            if derived != class {
                return Err(VerifyError::ClassClaim {
                    atom: atom_idx,
                    claimed: class,
                    derived,
                });
            }
        }
        FusedAtom::Depol1 { lambda } => {
            if !one_qubit {
                return Err(VerifyError::AtomArity {
                    segment,
                    atom: atom_idx,
                });
            }
            verify_lambda(atom_idx, lambda)?;
        }
        FusedAtom::Cx { .. } => {
            if one_qubit {
                return Err(VerifyError::AtomArity {
                    segment,
                    atom: atom_idx,
                });
            }
        }
        FusedAtom::Unitary2 { m4, .. } => {
            if one_qubit {
                return Err(VerifyError::AtomArity {
                    segment,
                    atom: atom_idx,
                });
            }
            let index = m4 as usize;
            if index >= program.m4s.len() {
                return Err(VerifyError::MatrixIndex {
                    atom: atom_idx,
                    index,
                    table_len: program.m4s.len(),
                });
            }
        }
        FusedAtom::Depol2 { lambda, .. } => {
            if one_qubit {
                return Err(VerifyError::AtomArity {
                    segment,
                    atom: atom_idx,
                });
            }
            verify_lambda(atom_idx, lambda)?;
        }
    }
    Ok(())
}

/// Checks a depolarising strength: finite, in `(0, 1]` (zero-strength
/// channels are exact no-ops and the builder drops them).
fn verify_lambda(atom: usize, lambda: f64) -> Result<(), VerifyError> {
    if !lambda.is_finite() || lambda <= 0.0 || lambda > 1.0 {
        return Err(VerifyError::Lambda { atom, lambda });
    }
    Ok(())
}

/// Statically checks a panel supergroup plan against its program: groups
/// partition the segment list contiguously and in order, every group's
/// `(u, v, w)` wire basis is in-range, collision-free, and filled in
/// order (so the union support respects the [`SUPERGROUP_CAP`] cap), and
/// every member segment's support is contained in that basis.
///
/// [`verify_program`] runs this on the re-derived
/// [`supergroup_plan`](crate::trajectory::supergroup_plan); calling it
/// directly validates externally constructed plans.
pub fn verify_supergroup_plan(
    program: &FusedProgram,
    plan: &[Supergroup],
) -> Result<(), VerifyError> {
    let segs = program.segments();
    let mut cursor = 0usize;
    for (gi, group) in plan.iter().enumerate() {
        if group.segments.start != cursor || group.segments.is_empty() {
            return Err(VerifyError::PlanCoverage {
                group: gi,
                expected_start: cursor,
                found_start: group.segments.start,
            });
        }
        cursor = group.segments.end;
        if cursor > segs.len() {
            return Err(VerifyError::PlanDangling {
                covered: cursor,
                total: segs.len(),
            });
        }
        let in_basis = |q: usize| q == group.u || group.v == Some(q) || group.w == Some(q);
        let wires_bad = group.u >= program.n_qubits()
            || group.v == Some(group.u)
            || group.v.is_some_and(|v| v >= program.n_qubits())
            || group.w.is_some_and(|w| {
                group.v.is_none() || w == group.u || group.v == Some(w) || w >= program.n_qubits()
            });
        if wires_bad {
            return Err(VerifyError::PlanWires { group: gi });
        }
        for (si, seg) in (group.segments.start..).zip(&segs[group.segments.clone()]) {
            let contained = match seg.support() {
                Support::One(q) => in_basis(q),
                Support::Two(a, b) => in_basis(a) && in_basis(b),
            };
            if !contained {
                return Err(VerifyError::PlanSupport {
                    group: gi,
                    segment: si,
                });
            }
        }
    }
    if cursor != segs.len() {
        return Err(VerifyError::PlanDangling {
            covered: cursor,
            total: segs.len(),
        });
    }
    Ok(())
}

/// Statically checks a Kraus channel's completeness relation
/// `Σ_k K_k† K_k = I` within [`VERIFY_TOL`] (the constructor enforces a
/// looser `1e-9`; the verifier holds the library's own channels to the
/// exact-arithmetic standard).
pub fn verify_channel(channel: &KrausChannel) -> Result<(), VerifyError> {
    if channel.is_trace_preserving(VERIFY_TOL) {
        Ok(())
    } else {
        Err(VerifyError::ChannelIncomplete {
            arity: channel.arity(),
        })
    }
}

pub mod mutate {
    //! Seeded program mutator: the verifier's negative test-bed.
    //!
    //! Each [`Corruption`] class breaks exactly one IR invariant of a valid
    //! [`FusedProgram`]; [`corrupt`] applies it at a seed-chosen position
    //! and returns the damaged program (or `None` when the program has no
    //! site for that class — e.g. no two-qubit segment to collide). The
    //! self-test in this crate and the release-mode `verify_sweep` binary
    //! assert that [`verify_program`](super::verify_program) rejects every
    //! produced mutant — if a new invariant is added without a rejection
    //! path, the matching corruption class fails loudly.

    use super::*;
    use crate::fused::Segment;
    use crate::math::Complex64;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// One class of IR corruption (exactly one invariant broken per class).
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum Corruption {
        /// Push a segment's support qubit past the register.
        QubitOutOfRange,
        /// Collapse a pair support onto one qubit.
        PairCollision,
        /// Point a unitary atom past its matrix table.
        MatrixIndexOutOfRange,
        /// Flip a [`MatClass`] claim away from the derived class.
        WrongClassClaim,
        /// Scale a prebound matrix entry so it is no longer unitary
        /// (precomposed product entries are skipped — scaling those would
        /// also break the composition invariant, and each class must break
        /// exactly one).
        NonUnitaryMatrix,
        /// Scale one recorded precompose factor so the stored product no
        /// longer equals the factors' bit-exact composition (the product
        /// entry itself stays unitary, so only that invariant breaks).
        ComposedFactorMismatch,
        /// Raise a depolarising strength above 1.
        LambdaTooLarge,
        /// Zero a depolarising strength (builder-dropped no-op).
        LambdaNonPositive,
        /// Move a one-qubit atom into a two-qubit segment.
        AtomArityMismatch,
        /// Insert a zero-length segment.
        EmptySegment,
        /// Shrink a segment so the partition has a hole.
        SegmentGap,
        /// Grow a segment into its successor's range.
        SegmentOverlap,
        /// Drop the final segment, leaving atoms uncovered.
        DanglingAtoms,
        /// Append a matrix no atom references.
        OrphanMatrix,
        /// Declare a register beyond the trajectory cap.
        RegisterOverflow,
    }

    /// Every corruption class, for exhaustive self-tests.
    pub const ALL: [Corruption; 15] = [
        Corruption::QubitOutOfRange,
        Corruption::PairCollision,
        Corruption::MatrixIndexOutOfRange,
        Corruption::WrongClassClaim,
        Corruption::NonUnitaryMatrix,
        Corruption::ComposedFactorMismatch,
        Corruption::LambdaTooLarge,
        Corruption::LambdaNonPositive,
        Corruption::AtomArityMismatch,
        Corruption::EmptySegment,
        Corruption::SegmentGap,
        Corruption::SegmentOverlap,
        Corruption::DanglingAtoms,
        Corruption::OrphanMatrix,
        Corruption::RegisterOverflow,
    ];

    /// Seed-chosen index into a non-empty candidate list.
    fn pick<R: Rng>(rng: &mut R, len: usize) -> usize {
        rng.gen_range(0..len)
    }

    /// Seed-chosen element of a candidate list (`None` when empty).
    fn choose<R: Rng>(rng: &mut R, list: &[usize]) -> Option<usize> {
        if list.is_empty() {
            None
        } else {
            Some(list[rng.gen_range(0..list.len())])
        }
    }

    /// Indices of segments matching a support predicate.
    fn segments_where(p: &FusedProgram, f: impl Fn(Support) -> bool) -> Vec<usize> {
        p.segments()
            .iter()
            .enumerate()
            .filter(|(_, s)| f(s.support()))
            .map(|(i, _)| i)
            .collect()
    }

    /// Atom indices matching a predicate.
    fn atoms_where(p: &FusedProgram, f: impl Fn(&FusedAtom) -> bool) -> Vec<usize> {
        p.atoms()
            .iter()
            .enumerate()
            .filter(|(_, a)| f(a))
            .map(|(i, _)| i)
            .collect()
    }

    /// Applies `class` to a copy of `program` at a position chosen by
    /// `seed`; returns `None` when the program offers no site for the
    /// class. The returned program violates exactly the targeted
    /// invariant and must be rejected by
    /// [`verify_program`](super::verify_program).
    pub fn corrupt(program: &FusedProgram, class: Corruption, seed: u64) -> Option<FusedProgram> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut p = program.clone();
        match class {
            Corruption::QubitOutOfRange => {
                if p.segments.is_empty() {
                    return None;
                }
                let si = pick(&mut rng, p.segments.len());
                let seg = &mut p.segments[si];
                seg.support = match seg.support {
                    Support::One(_) => Support::One(p.n_qubits),
                    Support::Two(_, b) => Support::Two(p.n_qubits, b),
                };
            }
            Corruption::PairCollision => {
                let twos = segments_where(&p, |s| matches!(s, Support::Two(..)));
                let si = choose(&mut rng, &twos)?;
                if let Support::Two(a, _) = p.segments[si].support {
                    p.segments[si].support = Support::Two(a, a);
                }
            }
            Corruption::MatrixIndexOutOfRange => {
                let unis = atoms_where(&p, |a| {
                    matches!(a, FusedAtom::Unitary1 { .. } | FusedAtom::Unitary2 { .. })
                });
                let ai = choose(&mut rng, &unis)?;
                match &mut p.atoms[ai] {
                    FusedAtom::Unitary1 { m2, .. } => *m2 = p.m2s.len() as u32,
                    FusedAtom::Unitary2 { m4, .. } => *m4 = p.m4s.len() as u32,
                    _ => unreachable!(),
                }
            }
            Corruption::WrongClassClaim => {
                let unis = atoms_where(&p, |a| matches!(a, FusedAtom::Unitary1 { .. }));
                let ai = choose(&mut rng, &unis)?;
                if let FusedAtom::Unitary1 { m2, class } = &mut p.atoms[ai] {
                    let derived = classify2(&p.m2s[*m2 as usize]);
                    *class = match derived {
                        MatClass::General => MatClass::Diagonal,
                        MatClass::Real => MatClass::Diagonal,
                        MatClass::Diagonal => MatClass::Real,
                    };
                }
            }
            Corruption::NonUnitaryMatrix => {
                // Composed product entries are excluded: scaling one would
                // break the composition invariant as well as unitarity.
                let composed2: Vec<usize> =
                    p.composed2().iter().map(|(i, _)| *i as usize).collect();
                let composed4: Vec<usize> =
                    p.composed4().iter().map(|(i, _)| *i as usize).collect();
                let m2_sites: Vec<usize> = (0..p.m2s.len())
                    .filter(|i| !composed2.contains(i))
                    .collect();
                let m4_sites: Vec<usize> = (0..p.m4s.len())
                    .filter(|i| !composed4.contains(i))
                    .collect();
                let total = m2_sites.len() + m4_sites.len();
                if total == 0 {
                    return None;
                }
                let i = pick(&mut rng, total);
                let scale = Complex64::real(3.0);
                if i < m2_sites.len() {
                    for z in &mut p.m2s[m2_sites[i]] {
                        *z *= scale;
                    }
                } else {
                    for z in &mut p.m4s[m4_sites[i - m2_sites.len()]] {
                        *z *= scale;
                    }
                }
            }
            Corruption::ComposedFactorMismatch => {
                let total = p.composed2.len() + p.composed4.len();
                if total == 0 {
                    return None;
                }
                let i = pick(&mut rng, total);
                let scale = Complex64::real(3.0);
                if i < p.composed2.len() {
                    let factors = &mut p.composed2[i].1;
                    let fi = pick(&mut rng, factors.len());
                    for z in &mut factors[fi] {
                        *z *= scale;
                    }
                } else {
                    let factors = &mut p.composed4[i - p.composed2.len()].1;
                    let fi = pick(&mut rng, factors.len());
                    for z in &mut factors[fi] {
                        *z *= scale;
                    }
                }
            }
            Corruption::LambdaTooLarge | Corruption::LambdaNonPositive => {
                let bad = if class == Corruption::LambdaTooLarge {
                    1.5
                } else {
                    0.0
                };
                let deps = atoms_where(&p, |a| {
                    matches!(a, FusedAtom::Depol1 { .. } | FusedAtom::Depol2 { .. })
                });
                let ai = choose(&mut rng, &deps)?;
                match &mut p.atoms[ai] {
                    FusedAtom::Depol1 { lambda } => *lambda = bad,
                    FusedAtom::Depol2 { lambda, .. } => *lambda = bad,
                    _ => unreachable!(),
                }
            }
            Corruption::AtomArityMismatch => {
                let twos = segments_where(&p, |s| matches!(s, Support::Two(..)));
                let si = choose(&mut rng, &twos)?;
                let ai = p.segments[si].atom_range().start;
                p.atoms[ai] = FusedAtom::Depol1 { lambda: 0.5 };
            }
            Corruption::EmptySegment => {
                let si = pick(&mut rng, p.segments.len() + 1);
                let at = if si < p.segments.len() {
                    p.segments[si].atom_range().start
                } else {
                    p.atoms.len()
                };
                p.segments.insert(
                    si,
                    Segment {
                        support: Support::One(0),
                        atoms: at..at,
                    },
                );
            }
            Corruption::SegmentGap => {
                let wide = p
                    .segments
                    .iter()
                    .enumerate()
                    .filter(|(_, s)| s.atom_range().len() >= 2)
                    .map(|(i, _)| i)
                    .collect::<Vec<_>>();
                let si = choose(&mut rng, &wide)?;
                p.segments[si].atoms.end -= 1;
            }
            Corruption::SegmentOverlap => {
                if p.segments.len() < 2 {
                    return None;
                }
                let si = pick(&mut rng, p.segments.len() - 1);
                p.segments[si].atoms.end += 1;
            }
            Corruption::DanglingAtoms => {
                p.segments.pop()?;
            }
            Corruption::OrphanMatrix => {
                if rng.gen_bool(0.5) {
                    let id = [
                        Complex64::ONE,
                        Complex64::ZERO,
                        Complex64::ZERO,
                        Complex64::ONE,
                    ];
                    p.m2s.push(id);
                } else {
                    let mut id = [Complex64::ZERO; 16];
                    for d in 0..4 {
                        id[d * 4 + d] = Complex64::ONE;
                    }
                    p.m4s.push(id);
                }
            }
            Corruption::RegisterOverflow => {
                p.n_qubits = MAX_TRAJECTORY_QUBITS + 1 + pick(&mut rng, 4);
            }
        }
        Some(p)
    }

    /// One class of supergroup-plan corruption (exactly one plan invariant
    /// broken per class), targeting
    /// [`verify_supergroup_plan`](super::verify_supergroup_plan) with
    /// externally damaged plans the way [`Corruption`] targets programs.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum PlanCorruption {
        /// Merge two adjacent groups whose union support exceeds the
        /// [`SUPERGROUP_CAP`] cap, keeping the first group's wire basis —
        /// a member segment escapes the basis.
        MergeBeyondCap,
        /// Collide the third wire onto the first — a malformed basis.
        ThirdWireCollision,
        /// Drop the final group, leaving segments uncovered.
        Truncate,
    }

    /// Every plan corruption class, for exhaustive self-tests.
    pub const PLAN_ALL: [PlanCorruption; 3] = [
        PlanCorruption::MergeBeyondCap,
        PlanCorruption::ThirdWireCollision,
        PlanCorruption::Truncate,
    ];

    /// Applies `class` to the program's own derived supergroup plan at a
    /// seed-chosen position; returns `None` when the plan offers no site
    /// (e.g. a single-group plan cannot be merged or truncated into a
    /// still-covering-but-wrong shape).
    pub fn corrupt_plan(
        program: &FusedProgram,
        class: PlanCorruption,
        seed: u64,
    ) -> Option<Vec<Supergroup>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut plan = supergroup_plan(program);
        match class {
            PlanCorruption::MergeBeyondCap => {
                let wires = |g: &Supergroup| {
                    let mut w = vec![g.u];
                    w.extend(g.v);
                    w.extend(g.w);
                    w
                };
                let candidates: Vec<usize> = (0..plan.len().saturating_sub(1))
                    .filter(|&i| {
                        let mut union = wires(&plan[i]);
                        for q in wires(&plan[i + 1]) {
                            if !union.contains(&q) {
                                union.push(q);
                            }
                        }
                        union.len() > SUPERGROUP_CAP
                    })
                    .collect();
                let i = choose(&mut rng, &candidates)?;
                plan[i].segments = plan[i].segments.start..plan[i + 1].segments.end;
                plan.remove(i + 1);
            }
            PlanCorruption::ThirdWireCollision => {
                if plan.is_empty() {
                    return None;
                }
                let i = pick(&mut rng, plan.len());
                plan[i].w = Some(plan[i].u);
            }
            PlanCorruption::Truncate => {
                plan.pop()?;
            }
        }
        Some(plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fused::ProgramBuilder;
    use crate::gate::GateKind;
    use crate::trajectory::supergroups;

    /// A program exercising every atom kind, both support arities, and
    /// both matrix tables — a site for all corruption classes.
    fn rich_program() -> FusedProgram {
        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(0, GateKind::H.matrix(0.0).to_2x2().unwrap());
        b.unitary_1q(0, GateKind::Rz.matrix(0.7).to_2x2().unwrap());
        b.depolarize_1q(0, 0.01);
        b.cx(0, 1);
        b.depolarize_2q(0.04, 0, 1);
        b.unitary_2q(1, 2, GateKind::Crz.matrix(0.9).to_4x4().unwrap());
        b.depolarize_2q(0.02, 2, 1);
        b.unitary_1q(2, GateKind::Ry.matrix(0.4).to_2x2().unwrap());
        b.depolarize_1q(2, 0.03);
        b.finish()
    }

    #[test]
    fn accepts_valid_programs() {
        let p = rich_program();
        assert_eq!(verify_program(&p), Ok(()));
        // The empty program is valid too.
        let empty = ProgramBuilder::new(2).finish();
        assert_eq!(verify_program(&empty), Ok(()));
    }

    #[test]
    fn accepts_derived_supergroup_plans() {
        let p = rich_program();
        let plan = supergroup_plan(&p);
        assert!(!plan.is_empty());
        assert_eq!(verify_supergroup_plan(&p, &plan), Ok(()));
        // The streaming iterator and the collected plan agree.
        assert_eq!(supergroups(&p).collect::<Vec<_>>(), plan);
    }

    #[test]
    fn rejects_tampered_supergroup_plans() {
        let p = rich_program();
        let mut plan = supergroup_plan(&p);
        // Shift the first group's basis off its segments' support.
        plan[0].u = p.n_qubits() - 1;
        plan[0].v = None;
        plan[0].w = None;
        assert!(matches!(
            verify_supergroup_plan(&p, &plan),
            Err(VerifyError::PlanSupport { .. })
        ));
        let mut truncated = supergroup_plan(&p);
        truncated.pop();
        assert!(matches!(
            verify_supergroup_plan(&p, &truncated),
            Err(VerifyError::PlanDangling { .. })
        ));
    }

    /// The rich program's precomposable cousin: runs of consecutive
    /// unitaries on both arities, collapsed by `precompose`, so the
    /// composed-provenance corruption classes have sites in the corpus.
    fn precomposed_program() -> FusedProgram {
        let mut b = ProgramBuilder::new(3);
        b.unitary_1q(0, GateKind::H.matrix(0.0).to_2x2().unwrap());
        b.unitary_1q(0, GateKind::Rz.matrix(0.7).to_2x2().unwrap());
        b.depolarize_1q(0, 0.01);
        b.cx(0, 1);
        b.unitary_2q(0, 1, GateKind::Crz.matrix(0.9).to_4x4().unwrap());
        b.unitary_2q(1, 0, GateKind::Cry.matrix(0.4).to_4x4().unwrap());
        b.depolarize_2q(0.04, 0, 1);
        b.unitary_1q(2, GateKind::Ry.matrix(0.4).to_2x2().unwrap());
        b.depolarize_1q(2, 0.03);
        let p = b.finish().precompose();
        assert!(!p.composed2().is_empty() && !p.composed4().is_empty());
        p
    }

    #[test]
    fn accepts_precomposed_programs() {
        assert_eq!(verify_program(&precomposed_program()), Ok(()));
    }

    #[test]
    fn rejects_tampered_composed_products() {
        let mut p = precomposed_program();
        // Recompose the product from the factors but drop a factor: the
        // stored matrix no longer matches the provenance.
        p.composed2[0].1.pop();
        assert!(matches!(
            verify_program(&p),
            Err(VerifyError::ComposeMismatch { table: "m2", .. })
        ));
    }

    #[test]
    fn every_corruption_class_is_rejected() {
        // Corpus: a plain program (sites for every structural class) and a
        // precomposed one (sites for the provenance classes).
        let corpus = [rich_program(), precomposed_program()];
        assert!(mutate::ALL.len() >= 10, "need at least 10 mutation classes");
        for &class in &mutate::ALL {
            let mut sites = 0usize;
            for p in &corpus {
                for seed in 0..8u64 {
                    let Some(mutant) = mutate::corrupt(p, class, seed) else {
                        continue;
                    };
                    sites += 1;
                    let verdict = verify_program(&mutant);
                    assert!(
                        verdict.is_err(),
                        "{class:?} (seed {seed}) survived verification"
                    );
                }
            }
            assert!(sites > 0, "{class:?} found no site in the corpus");
        }
    }

    /// A 5-qubit program whose derived plan has two supergroups with
    /// disjoint wire bases — sites for every plan corruption class.
    fn wide_program() -> FusedProgram {
        let mut b = ProgramBuilder::new(5);
        b.cx(0, 1);
        b.depolarize_2q(0.04, 0, 1);
        b.unitary_1q(2, GateKind::Ry.matrix(0.4).to_2x2().unwrap());
        b.cx(3, 4);
        b.depolarize_2q(0.04, 3, 4);
        b.finish()
    }

    #[test]
    fn every_plan_corruption_class_is_rejected() {
        let p = wide_program();
        assert!(
            supergroup_plan(&p).len() >= 2,
            "wide program must span at least two supergroups"
        );
        for &class in &mutate::PLAN_ALL {
            for seed in 0..8u64 {
                let plan = mutate::corrupt_plan(&p, class, seed)
                    .unwrap_or_else(|| panic!("{class:?} found no site in the wide program"));
                assert!(
                    verify_supergroup_plan(&p, &plan).is_err(),
                    "{class:?} (seed {seed}) survived plan verification"
                );
            }
        }
    }

    #[test]
    fn corruption_sites_are_seed_stable() {
        let p = rich_program();
        for &class in &mutate::ALL {
            let a = mutate::corrupt(&p, class, 42);
            let b = mutate::corrupt(&p, class, 42);
            assert_eq!(a, b, "{class:?} is not deterministic per seed");
        }
    }

    #[test]
    fn library_channels_are_complete() {
        for ch in [
            KrausChannel::depolarizing_1q(0.03),
            KrausChannel::depolarizing_2q(0.08),
            KrausChannel::bit_flip(0.02),
            KrausChannel::phase_flip(0.05),
            KrausChannel::amplitude_damping(0.1),
        ] {
            assert_eq!(verify_channel(&ch), Ok(()));
        }
    }
}
