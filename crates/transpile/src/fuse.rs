//! Gate-fusion pass: compiles native circuits into fused density-matrix
//! programs.
//!
//! This is the transpile-level half of the fused execution pipeline (the
//! kernels live in [`quasim::fused`] / `quasim::density`). The pass walks a
//! circuit in program order and
//!
//! - **prebinds** every gate matrix once per compilation — fixed gates
//!   (the `H` wraps of `CRX` decompositions, Paulis, …) come from the
//!   process-wide cache ([`GateKind::fixed_entries_1q`]) and parameterised
//!   rotations are bound allocation-free via [`GateKind::entries_1q`] /
//!   [`GateKind::entries_2q`] — instead of re-deriving a heap-allocated
//!   matrix for every gate application;
//! - **collapses runs** of consecutive operations sharing a support into
//!   single [`quasim::fused::Segment`]s, which the kernels execute in one
//!   pass over `ρ`. Every native gate fuses with the calibration-noise
//!   channel that follows it (`CX·dep₂` and `R(θ)·dep₁` each become one
//!   pass instead of two), and runs of same-wire rotations — e.g. the
//!   per-qubit feature-encoding strings — fuse whole.
//!
//! Fusion never reorders operations and only groups ops with the **same**
//! support, so every atom executes with exactly the triangle geometry and
//! scalar expressions of its standalone kernel: fused execution is
//! **bit-identical** to the op-by-op reference (see the `fuse_props`
//! property tests).

use crate::expand::{expand_sourced, AngleSource, NativeCircuit, NativeOp};
use crate::route::PhysicalCircuit;
use quasim::fused::{
    channel_strength, classify2, FusedAtom, FusedProgram, LaneTables, MatClass, ProgramBuilder, M2,
    M4,
};
use quasim::gate::{BoundGate, GateKind};

/// One simulation event for [`fuse_ops`]: a gate, or a closed-form
/// depolarising channel.
#[derive(Debug, Clone, PartialEq)]
pub enum SimOp {
    /// A unitary gate.
    Gate(BoundGate),
    /// One-qubit depolarising channel (strength clamped at execution).
    Depolarize1 {
        /// Target qubit.
        q: usize,
        /// Depolarising strength.
        lambda: f64,
    },
    /// Two-qubit depolarising channel.
    Depolarize2 {
        /// First qubit (most significant local bit).
        a: usize,
        /// Second qubit.
        b: usize,
        /// Depolarising strength.
        lambda: f64,
    },
}

/// The prebound 2×2 entries of a one-qubit gate: fixed kinds from the
/// process-wide cache, rotations bound at their angle.
fn entries_1q(gate: &BoundGate) -> M2 {
    let kind = gate.kind();
    match kind.fixed_entries_1q() {
        Some(cached) => *cached,
        None => kind
            .entries_1q(gate.theta())
            .expect("one-qubit kind has 2x2 entries"),
    }
}

/// The prebound 4×4 entries of a two-qubit gate.
fn entries_2q(gate: &BoundGate) -> M4 {
    gate.kind()
        .entries_2q(gate.theta())
        .expect("two-qubit kind has 4x4 entries")
}

/// Appends one gate to the builder with the same dispatch the unfused
/// density-matrix path uses (`CX` → permutation fast path, otherwise by
/// arity), prebinding its matrix. `q0`/`q1` are the (possibly compacted)
/// operand indices to emit.
fn push_gate_at(builder: &mut ProgramBuilder, gate: &BoundGate, q0: usize, q1: usize) {
    let kind = gate.kind();
    match kind {
        GateKind::Cx => builder.cx(q0, q1),
        _ if kind.arity() == 1 => builder.unitary_1q(q0, entries_1q(gate)),
        _ => builder.unitary_2q(q0, q1, entries_2q(gate)),
    }
}

/// [`push_gate_at`] with the gate's own operands.
fn push_gate(builder: &mut ProgramBuilder, gate: &BoundGate) {
    let q = gate.qubits();
    push_gate_at(builder, gate, q[0], *q.last().expect("ops have operands"));
}

/// Fuses an explicit event stream over `n_qubits` qubits.
///
/// # Examples
///
/// ```
/// use quasim::gate::{BoundGate, GateKind};
/// use transpile::fuse::{fuse_ops, SimOp};
///
/// let prog = fuse_ops(
///     2,
///     &[
///         SimOp::Gate(BoundGate::one(GateKind::H, 1, 0.0)),
///         SimOp::Gate(BoundGate::two(GateKind::Cx, 0, 1, 0.0)),
///         SimOp::Depolarize2 { a: 0, b: 1, lambda: 0.01 },
///     ],
/// );
/// // The CX and its noise channel share a support and fuse into one pass.
/// assert_eq!(prog.segments().len(), 2);
/// assert_eq!(prog.n_atoms(), 3);
/// ```
///
/// # Panics
///
/// Panics if a qubit index is out of range or a two-qubit event repeats a
/// qubit.
pub fn fuse_ops(n_qubits: usize, ops: &[SimOp]) -> FusedProgram {
    let mut builder = ProgramBuilder::new(n_qubits);
    for op in ops {
        match op {
            SimOp::Gate(g) => push_gate(&mut builder, g),
            SimOp::Depolarize1 { q, lambda } => builder.depolarize_1q(*q, *lambda),
            SimOp::Depolarize2 { a, b, lambda } => builder.depolarize_2q(*lambda, *a, *b),
        }
    }
    builder.finish()
}

/// Fuses a plain gate sequence (no noise interleave).
pub fn fuse_gates(n_qubits: usize, gates: &[BoundGate]) -> FusedProgram {
    let mut builder = ProgramBuilder::new(n_qubits);
    for gate in gates {
        push_gate(&mut builder, gate);
    }
    builder.finish()
}

/// Fuses a routed-and-expanded native circuit, interleaving a depolarising
/// channel after each op for which `noise` returns a strength.
///
/// The channel is applied on the op's own qubits (pair order preserved),
/// exactly as the unfused executor loop does; `noise` returning `None`
/// (and `Some(0.0)`, which is an exact no-op) emits no channel.
pub fn fuse_native<F>(native: &NativeCircuit, noise: F) -> FusedProgram
where
    F: FnMut(&NativeOp) -> Option<f64>,
{
    fuse_native_compacted(
        native,
        &QubitCompaction::identity(native.n_physical()),
        noise,
    )
}

/// A dense relabelling of the physical qubits a native circuit actually
/// touches.
///
/// Devices are routinely larger than the routed circuit (a 4-qubit model
/// on a 5-qubit `ibm_belem`, or a 7-qubit `ibm_jakarta`), and every unused
/// physical qubit **quadruples** the density matrix for nothing: the state
/// stays `ρ_active ⊗ |0⟩⟨0|`, all the extra entries are exactly zero.
/// Compaction simulates only the active subregister — the surviving
/// entries see the identical arithmetic, so per-qubit observables are
/// unchanged.
///
/// # Examples
///
/// ```
/// use transpile::circuit::Circuit;
/// use transpile::route::route_identity;
/// use transpile::expand::expand;
/// use transpile::fuse::QubitCompaction;
/// use calibration::topology::Topology;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cx(0, 1);
/// let native = expand(&route_identity(&c, &Topology::ibm_belem()), &[]);
/// let compaction = QubitCompaction::for_native(&native, &[0, 1]);
/// // Only 2 of belem's 5 physical qubits are simulated.
/// assert_eq!(compaction.n_active(), 2);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QubitCompaction {
    map: Vec<Option<usize>>,
    n_active: usize,
}

impl QubitCompaction {
    /// The identity compaction (all `n` qubits active).
    pub fn identity(n: usize) -> Self {
        QubitCompaction {
            map: (0..n).map(Some).collect(),
            n_active: n,
        }
    }

    /// Builds the compaction for a native circuit: active qubits are those
    /// addressed by any op, plus `keep` (e.g. the measured qubits, which
    /// must stay addressable even when no gate touches them). Active
    /// qubits keep their relative order.
    pub fn for_native(native: &NativeCircuit, keep: &[usize]) -> Self {
        let n = native.n_physical();
        let mut used = vec![false; n];
        for op in native.ops() {
            for &q in op.gate.qubits() {
                used[q] = true;
            }
        }
        for &q in keep {
            assert!(q < n, "kept qubit {q} out of range");
            used[q] = true;
        }
        let mut map = vec![None; n];
        let mut next = 0usize;
        for (q, &u) in used.iter().enumerate() {
            if u {
                map[q] = Some(next);
                next += 1;
            }
        }
        QubitCompaction {
            map,
            n_active: next,
        }
    }

    /// Number of active (simulated) qubits.
    pub fn n_active(&self) -> usize {
        self.n_active
    }

    /// Compact index of an active physical qubit.
    ///
    /// # Panics
    ///
    /// Panics if `phys` is out of range or inactive.
    pub fn compact(&self, phys: usize) -> usize {
        self.map
            .get(phys)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("physical qubit {phys} is not active"))
    }
}

/// [`fuse_native`] over the compacted register: gates and channels are
/// emitted on compact qubit indices, while `noise` still sees the original
/// native op (physical indices) to derive channel strengths.
pub fn fuse_native_compacted<F>(
    native: &NativeCircuit,
    compaction: &QubitCompaction,
    mut noise: F,
) -> FusedProgram
where
    F: FnMut(&NativeOp) -> Option<f64>,
{
    let mut builder = ProgramBuilder::new(compaction.n_active());
    for op in native.ops() {
        push_native(&mut builder, compaction, op, noise(op));
    }
    builder.finish()
}

/// Where one native op's unitary landed in a fused program.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Slot {
    /// A CNOT: no matrix-table entry.
    Cx,
    /// An entry of the 2×2 table.
    M2(u32),
    /// An entry of the 4×4 table.
    M4(u32),
}

/// Appends one native op and, for `Some(lambda)`, its depolarising channel
/// on the compacted register — the step [`fuse_native_compacted`] takes
/// per op. Returns the op's matrix slot and the channel's atom index
/// (`None` when no channel atom was emitted).
fn push_native(
    builder: &mut ProgramBuilder,
    compaction: &QubitCompaction,
    op: &NativeOp,
    lambda: Option<f64>,
) -> (Slot, Option<usize>) {
    let q = op.gate.qubits();
    let c0 = compaction.compact(q[0]);
    let c1 = compaction.compact(*q.last().expect("ops have operands"));
    let slot = match op.gate.kind() {
        GateKind::Cx => Slot::Cx,
        kind if kind.arity() == 1 => Slot::M2(builder.n_m2s() as u32),
        _ => Slot::M4(builder.n_m4s() as u32),
    };
    push_gate_at(builder, &op.gate, c0, c1);
    let atom = builder.n_atoms();
    if let Some(lambda) = lambda {
        match q.len() {
            1 => builder.depolarize_1q(c0, lambda),
            _ => builder.depolarize_2q(lambda, c0, c1),
        }
    }
    (slot, (builder.n_atoms() > atom).then_some(atom))
}

/// One native op of a [`DensityTemplate`]: the op at the template's
/// vector, where its angle comes from, and where it landed.
#[derive(Debug, Clone)]
struct PlannedOp {
    op: NativeOp,
    source: AngleSource,
    slot: Slot,
    /// Atom index of the op's depolarising channel in the template.
    channel: Option<usize>,
}

/// A structure's fused density program, compiled once and patched per
/// probe.
///
/// Every parameter vector of one [`crate::template::StructureKey`] expands
/// to the same native op sequence (only rotation angles and pulse counts
/// change), so its fused programs share one layout of segments and atoms.
/// A template holds the program fused at one vector and day
/// ([`Self::program`]) plus, per native op, where its matrix and channel
/// strength come from: the parameter and angle share
/// ([`AngleSource`], recorded by the [`crate::expand::expand_sourced`]
/// walk) or a fixed gate, and the table slot and channel atom the op
/// landed in. [`Self::patch`] then computes another vector's and day's
/// matrices and `λ`s straight into one lane of a
/// [`quasim::fused::LaneTables`] — no native circuit, no program.
///
/// A patch equals [`fuse_native_compacted`] of the same vector and noise
/// field by field, except where the fused program would have another
/// shape: a matrix of another [`MatClass`], or a channel present on one
/// side and clamped away (`λ = 0`) on the other. The patch detects exactly
/// those cases and reports them, and the caller fuses in full instead
/// (see the `fuse_props` property tests).
///
/// # Examples
///
/// ```
/// use calibration::topology::Topology;
/// use quasim::fused::LaneTables;
/// use transpile::circuit::{Circuit, Param};
/// use transpile::expand::expand;
/// use transpile::fuse::{fuse_native_compacted, DensityTemplate, QubitCompaction};
/// use transpile::route::route_identity;
///
/// let mut c = Circuit::new(2);
/// c.ry(0, Param::Idx(0)).cry(0, 1, Param::Idx(1));
/// let phys = route_identity(&c, &Topology::line(2));
/// let compaction = QubitCompaction::identity(2);
/// let noise = |op: &transpile::expand::NativeOp| Some(0.01 * f64::from(op.pulses + 1));
/// let template = DensityTemplate::build(&phys, &[0.4, 1.3], &compaction, noise);
///
/// let mut tables = LaneTables::new();
/// tables.reset(template.program(), 1);
/// assert!(template.patch(&[2.2, -0.9], noise, &mut tables, 0));
/// let scratch = fuse_native_compacted(&expand(&phys, &[2.2, -0.9]), &compaction, noise);
/// assert_eq!(tables.lane_program(template.program(), 0), scratch);
/// ```
#[derive(Debug, Clone)]
pub struct DensityTemplate {
    program: FusedProgram,
    ops: Vec<PlannedOp>,
    /// Class of each 2×2 table entry's atom in `program`.
    m2_classes: Vec<MatClass>,
}

impl DensityTemplate {
    /// Expands `phys` at `theta` and fuses it with the channel strengths
    /// `noise` assigns, as [`fuse_native_compacted`] does, recording every
    /// op's sources on the way.
    ///
    /// # Panics
    ///
    /// Panics as [`crate::expand::expand`] and [`fuse_native_compacted`].
    pub fn build<F>(
        phys: &PhysicalCircuit,
        theta: &[f64],
        compaction: &QubitCompaction,
        mut noise: F,
    ) -> Self
    where
        F: FnMut(&NativeOp) -> Option<f64>,
    {
        let mut builder = ProgramBuilder::new(compaction.n_active());
        let mut ops = Vec::with_capacity(phys.ops().len() * 2);
        expand_sourced(phys, theta, |op, source| {
            let lambda = noise(&op);
            let (slot, channel) = push_native(&mut builder, compaction, &op, lambda);
            ops.push(PlannedOp {
                op,
                source,
                slot,
                channel,
            });
        });
        let program = builder.finish();
        let mut m2_classes = vec![MatClass::General; program.n_m2s()];
        for atom in program.atoms() {
            if let FusedAtom::Unitary1 { m2, class } = *atom {
                m2_classes[m2 as usize] = class;
            }
        }
        DensityTemplate {
            program,
            ops,
            m2_classes,
        }
    }

    /// The program fused at the template's own vector and noise: the
    /// shape every patched lane runs with.
    pub fn program(&self) -> &FusedProgram {
        &self.program
    }

    /// Writes the matrices and channel strengths of the program at
    /// `theta` under `noise` into lane `lane` of `tables` (reset for
    /// [`Self::program`]). Returns `false`, leaving the lane unspecified,
    /// when that program does not have the template's shape — a matrix of
    /// another class or a channel present on one side only — so the
    /// caller must fuse it in full.
    ///
    /// `theta` must share the template's structure key (it keeps the same
    /// ops); the program cache's grouping guarantees this.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is too short or `lane` is out of range.
    pub fn patch<F>(
        &self,
        theta: &[f64],
        mut noise: F,
        tables: &mut LaneTables,
        lane: usize,
    ) -> bool
    where
        F: FnMut(&NativeOp) -> Option<f64>,
    {
        for planned in &self.ops {
            let fixed = planned.source == AngleSource::Fixed;
            let rebound;
            let op = if fixed {
                &planned.op
            } else {
                rebound = planned.source.rebind(&planned.op, theta);
                &rebound
            };
            match planned.slot {
                Slot::Cx => {}
                Slot::M2(i) if fixed => tables.set_m2(lane, i, self.program.m2(i)),
                Slot::M2(i) => {
                    let m = entries_1q(&op.gate);
                    if classify2(&m) != self.m2_classes[i as usize] {
                        return false;
                    }
                    tables.set_m2(lane, i, &m);
                }
                Slot::M4(i) if fixed => tables.set_m4(lane, i, self.program.m4(i)),
                Slot::M4(i) => tables.set_m4(lane, i, &entries_2q(&op.gate)),
            }
            match (noise(op).and_then(channel_strength), planned.channel) {
                (Some(lambda), Some(atom)) => tables.set_lambda(lane, atom, lambda),
                (None, None) => {}
                _ => return false,
            }
        }
        true
    }
}

/// [`fuse_native_compacted`] followed by bind-time precomposition
/// ([`FusedProgram::precompose`]): every run of consecutive same-support
/// unitaries — a CRY expansion's rotation pair, a feature-encoding string
/// — collapses into one prebound matrix, so each trajectory pass applies a
/// single matrix where the density path applies several atoms.
///
/// This entry point is **trajectory-only** by design: composing matrices
/// re-rounds the affected amplitudes, so the density path (whose
/// fused-vs-unfused bit-identity is pinned by golden fixtures) keeps the
/// plain [`fuse_native_compacted`] program, while the per-trajectory and
/// panel engines both run the same precomposed program and therefore stay
/// mutually bit-identical.
pub fn fuse_native_trajectory<F>(
    native: &NativeCircuit,
    compaction: &QubitCompaction,
    noise: F,
) -> FusedProgram
where
    F: FnMut(&NativeOp) -> Option<f64>,
{
    fuse_native_compacted(native, compaction, noise).precompose()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::{Circuit, Param};
    use crate::expand::expand;
    use crate::route::route_identity;
    use calibration::topology::Topology;
    use quasim::density::{DensityMatrix, SimWorkspace};

    fn assert_bits_eq(ws: &SimWorkspace, reference: &DensityMatrix) {
        let fused = ws.to_density_matrix();
        for i in 0..reference.dim() {
            for j in 0..reference.dim() {
                let (x, y) = (fused.get(i, j), reference.get(i, j));
                assert!(
                    x.re.to_bits() == y.re.to_bits() && x.im.to_bits() == y.im.to_bits(),
                    "ρ[{i},{j}] differs: {x} vs {y}"
                );
            }
        }
    }

    /// Runs a `SimOp` stream through the unfused DensityMatrix methods.
    fn run_unfused(n_qubits: usize, ops: &[SimOp]) -> DensityMatrix {
        let mut rho = DensityMatrix::zero_state(n_qubits);
        for op in ops {
            match op {
                SimOp::Gate(g) => rho.apply_gate(g),
                SimOp::Depolarize1 { q, lambda } => rho.apply_depolarizing_1q(*lambda, *q),
                SimOp::Depolarize2 { a, b, lambda } => rho.apply_depolarizing_2q(*lambda, *a, *b),
            }
        }
        rho
    }

    #[test]
    fn fused_native_circuit_matches_unfused_bits() {
        let mut c = Circuit::new(4);
        c.ry(0, Param::Idx(0))
            .cry(0, 1, Param::Idx(1))
            .crx(1, 2, Param::Idx(2))
            .crz(2, 3, Param::Idx(3))
            .h(3)
            .cx(3, 0);
        let theta = [0.3, 1.1, -0.7, 2.2];
        let topo = Topology::ibm_belem();
        let phys = route_identity(&c, &topo);
        let native = expand(&phys, &theta);

        let lambda_of = |op: &crate::expand::NativeOp| -> Option<f64> {
            if op.is_entangler() {
                Some(0.008)
            } else if op.pulses > 0 {
                Some(0.001 * op.pulses as f64)
            } else {
                None
            }
        };

        // Unfused reference: the historical executor loop.
        let mut reference = DensityMatrix::zero_state(topo.n_qubits());
        for op in native.ops() {
            reference.apply_gate(&op.gate);
            if let Some(l) = lambda_of(op) {
                let q = op.gate.qubits();
                match q.len() {
                    1 => reference.apply_depolarizing_1q(l, q[0]),
                    _ => reference.apply_depolarizing_2q(l, q[0], q[1]),
                }
            }
        }

        let program = fuse_native(&native, lambda_of);
        // Fusion must genuinely collapse the op stream: strictly fewer
        // segments than simulated events.
        let n_events = native.ops().len()
            + native
                .ops()
                .iter()
                .filter(|o| lambda_of(o).is_some())
                .count();
        assert!(
            program.segments().len() * 2 <= n_events,
            "expected ≥2x fusion: {} segments for {} events",
            program.segments().len(),
            n_events
        );

        let mut ws = SimWorkspace::new();
        ws.reset_zero(topo.n_qubits());
        ws.run(&program);
        assert_bits_eq(&ws, &reference);
    }

    #[test]
    fn fuse_ops_matches_unfused_bits() {
        use quasim::gate::{BoundGate, GateKind};
        let ops = vec![
            SimOp::Gate(BoundGate::one(GateKind::H, 0, 0.0)),
            SimOp::Gate(BoundGate::one(GateKind::Ry, 0, 0.7)),
            SimOp::Depolarize1 { q: 0, lambda: 0.02 },
            SimOp::Gate(BoundGate::two(GateKind::Cx, 0, 2, 0.0)),
            SimOp::Depolarize2 {
                a: 0,
                b: 2,
                lambda: 0.03,
            },
            SimOp::Gate(BoundGate::two(GateKind::Crz, 2, 0, 1.9)),
            SimOp::Gate(BoundGate::one(GateKind::Rz, 1, -0.4)),
            SimOp::Gate(BoundGate::two(GateKind::Swap, 1, 2, 0.0)),
            SimOp::Depolarize2 {
                a: 2,
                b: 1,
                lambda: 0.05,
            },
        ];
        let program = fuse_ops(3, &ops);
        let mut ws = SimWorkspace::new();
        ws.reset_zero(3);
        ws.run(&program);
        assert_bits_eq(&ws, &run_unfused(3, &ops));
    }

    #[test]
    fn zero_lambda_channels_do_not_break_fusion() {
        use quasim::gate::{BoundGate, GateKind};
        let ops = vec![
            SimOp::Gate(BoundGate::one(GateKind::Ry, 1, 0.2)),
            SimOp::Depolarize1 { q: 1, lambda: 0.0 },
            SimOp::Gate(BoundGate::one(GateKind::Rz, 1, 0.3)),
        ];
        let program = fuse_ops(2, &ops);
        assert_eq!(program.segments().len(), 1);
        assert_eq!(program.n_atoms(), 2);
    }

    #[test]
    fn trajectory_fusion_precomposes_rotation_runs() {
        let mut c = Circuit::new(3);
        c.ry(0, Param::Idx(0))
            .rz(0, Param::Idx(1))
            .ry(0, Param::Idx(2))
            .cry(0, 1, Param::Idx(3))
            .h(2);
        let theta = [0.3, 1.1, -0.7, 2.2];
        let topo = Topology::line(3);
        let native = expand(&route_identity(&c, &topo), &theta);
        let compaction = QubitCompaction::identity(topo.n_qubits());
        let lambda_of =
            |op: &crate::expand::NativeOp| -> Option<f64> { op.is_entangler().then_some(0.008) };

        let plain = fuse_native_compacted(&native, &compaction, lambda_of);
        let pre = fuse_native_trajectory(&native, &compaction, lambda_of);
        assert!(pre.is_precomposed());
        assert!(
            pre.n_atoms() < plain.n_atoms(),
            "precompose collapsed nothing: {} vs {} atoms",
            pre.n_atoms(),
            plain.n_atoms()
        );
        assert_eq!(pre.n_stochastic_atoms(), plain.n_stochastic_atoms());
        assert_eq!(pre.segments().len(), plain.segments().len());

        // Same quantum channel up to rounding: compare densities loosely.
        let mut a = SimWorkspace::new();
        a.reset_zero(topo.n_qubits());
        a.run(&plain);
        let mut b = SimWorkspace::new();
        b.reset_zero(topo.n_qubits());
        b.run(&pre);
        let (da, db) = (a.to_density_matrix(), b.to_density_matrix());
        for i in 0..da.dim() {
            for j in 0..da.dim() {
                let (x, y) = (da.get(i, j), db.get(i, j));
                assert!(
                    (x.re - y.re).abs() < 1e-12 && (x.im - y.im).abs() < 1e-12,
                    "ρ[{i},{j}] diverged: {x} vs {y}"
                );
            }
        }
    }

    #[test]
    fn fixed_gates_use_cached_prebound_matrices() {
        use quasim::gate::{BoundGate, GateKind};
        // The cache must hand back exactly the matrix() bits.
        let cached = GateKind::H.fixed_entries_1q().unwrap();
        let fresh = GateKind::H.matrix(0.0).to_2x2().unwrap();
        for (a, b) in cached.iter().zip(fresh.iter()) {
            assert_eq!(a.re.to_bits(), b.re.to_bits());
            assert_eq!(a.im.to_bits(), b.im.to_bits());
        }
        // And a program built from H gates must behave like matrix().
        let prog = fuse_gates(1, &[BoundGate::one(GateKind::H, 0, 0.0)]);
        let mut ws = SimWorkspace::new();
        ws.reset_zero(1);
        ws.run(&prog);
        assert!((ws.prob_one(0) - 0.5).abs() < 1e-12);
    }
}
