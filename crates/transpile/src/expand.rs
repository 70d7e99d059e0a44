//! Native-gate expansion with pulse-cost accounting.
//!
//! This is where the paper's central mechanism lives: parameters sitting
//! exactly on a *compression level* produce **shorter physical circuits**
//! (Motivation 1 / Fig. 3). Concretely, after binding angles:
//!
//! - a plain rotation at `0 (mod 2π)` vanishes entirely (at `2π` the
//!   unitary is `−I`, an unobservable global phase);
//! - a rotation at `π/2, π, 3π/2` needs **one** physical pulse instead of
//!   the generic **two** (on IBM hardware, arbitrary 1q rotations compile to
//!   `RZ·SX·RZ·SX·RZ` with free virtual-Z, i.e. two SX pulses, while
//!   quarter-turn angles need a single pulse);
//! - a controlled rotation at `0 (mod 4π)` vanishes, removing **two
//!   CNOTs**; at `π` its two half-angle rotations become single-pulse. The
//!   period is 4π, not 2π: at `2π` the target rotation is `−I`, which the
//!   control promotes from a global phase to a physical controlled phase
//!   (`CRY(2π) = diag(1, 1, −1, −1)`), so the gate must still be emitted;
//! - inserted SWAPs expand to three CNOTs.
//!
//! The expansion keeps gate *unitaries* exact (rotations are applied as
//! rotations) and encodes hardware cost in per-op pulse counts, which the
//! executor converts into depolarising-channel strengths.

use crate::circuit::{angle_is_identity, Param};
use crate::route::PhysicalCircuit;
use quasim::gate::{BoundGate, GateKind};

/// Angle tolerance when snapping to special angles, in radians.
pub const ANGLE_TOL: f64 = 1e-9;

/// One native operation: an exact unitary plus its hardware pulse cost.
#[derive(Debug, Clone, PartialEq)]
pub struct NativeOp {
    /// The exact gate to simulate (physical qubit operands).
    pub gate: BoundGate,
    /// Number of physical 1q pulses (0 for CNOT-class ops, which are costed
    /// separately via [`NativeOp::is_entangler`]).
    pub pulses: u32,
}

impl NativeOp {
    /// Whether this is a two-qubit entangling op (CNOT-class).
    pub fn is_entangler(&self) -> bool {
        self.gate.kind().arity() == 2
    }
}

/// A fully expanded physical circuit: native ops plus readout mapping.
///
/// # Examples
///
/// ```
/// use transpile::circuit::{Circuit, Param};
/// use transpile::route::route_identity;
/// use transpile::expand::expand;
/// use calibration::topology::Topology;
///
/// let mut c = Circuit::new(2);
/// c.cry(0, 1, Param::Idx(0));
/// let phys = route_identity(&c, &Topology::ibm_belem());
/// // At θ=0 the controlled rotation disappears entirely.
/// assert_eq!(expand(&phys, &[0.0]).ops().len(), 0);
/// // At a generic angle it costs two CNOTs plus two rotations.
/// assert_eq!(expand(&phys, &[0.7]).cx_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct NativeCircuit {
    n_physical: usize,
    ops: Vec<NativeOp>,
    final_layout: Vec<usize>,
}

impl NativeCircuit {
    /// Number of physical qubits.
    pub fn n_physical(&self) -> usize {
        self.n_physical
    }

    /// Native op sequence.
    pub fn ops(&self) -> &[NativeOp] {
        &self.ops
    }

    /// Final layout inherited from routing (`[logical] = physical`).
    pub fn final_layout(&self) -> &[usize] {
        &self.final_layout
    }

    /// Physical qubit carrying `logical` at measurement time.
    ///
    /// # Panics
    ///
    /// Panics if `logical` is out of range.
    pub fn measured_physical(&self, logical: usize) -> usize {
        assert!(
            logical < self.final_layout.len(),
            "logical qubit out of range"
        );
        self.final_layout[logical]
    }

    /// Total number of CNOT-class ops.
    pub fn cx_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_entangler()).count()
    }

    /// Total number of 1q pulses.
    pub fn pulse_count(&self) -> u32 {
        self.ops.iter().map(|o| o.pulses).sum()
    }

    /// A scalar "physical circuit length": pulses + 3 × CNOTs (a CNOT takes
    /// roughly 3× the duration of a 1q pulse on IBM devices).
    pub fn length(&self) -> u32 {
        self.pulse_count() + 3 * self.cx_count() as u32
    }
}

/// Normalises an angle into `[0, 2π)`.
fn norm_angle(theta: f64) -> f64 {
    let two_pi = std::f64::consts::TAU;
    let mut a = theta % two_pi;
    if a < 0.0 {
        a += two_pi;
    }
    // Snap 2π−ε to 0 for the vanish check.
    if (two_pi - a) < ANGLE_TOL {
        a = 0.0;
    }
    a
}

/// Pulse cost of a 1q rotation at angle `theta` (post-normalisation):
/// 0 at multiples of 2π, 1 at quarter turns, 2 otherwise.
pub fn rotation_pulses(theta: f64) -> u32 {
    let a = norm_angle(theta);
    if a.abs() < ANGLE_TOL {
        0
    } else {
        let quarter = std::f64::consts::FRAC_PI_2;
        let k = (a / quarter).round();
        if (a - k * quarter).abs() < ANGLE_TOL {
            1
        } else {
            2
        }
    }
}

fn fixed_gate_pulses(kind: GateKind) -> u32 {
    match kind {
        GateKind::X | GateKind::Y | GateKind::Sx | GateKind::H => 1,
        GateKind::Z | GateKind::S | GateKind::T => 0, // virtual-Z family
        _ => 0,
    }
}

/// The share of a parameter a native rotation turns by: the whole angle of
/// a plain rotation, or one of the two half-angle rotations of a
/// controlled-rotation decomposition.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AngleScale {
    /// `θ`.
    Whole,
    /// `θ/2`.
    Half,
    /// `−θ/2`.
    NegHalf,
}

impl AngleScale {
    /// The rotation angle for a parameter at `theta`.
    fn apply(self, theta: f64) -> f64 {
        match self {
            AngleScale::Whole => theta,
            AngleScale::Half => theta / 2.0,
            AngleScale::NegHalf => -(theta / 2.0),
        }
    }
}

/// Where a native op's angle comes from, as [`expand_sourced`] reports it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AngleSource {
    /// Not from the parameter vector: the op is the same at every vector
    /// of the structure (CNOTs, `H` wraps, fixed-angle gates).
    Fixed,
    /// A rotation by `scale` of parameter `index`, whose pulse cost is
    /// [`rotation_pulses`] of its angle.
    Param {
        /// Index into the parameter vector.
        index: usize,
        /// Share of the parameter the rotation turns by.
        scale: AngleScale,
    },
}

impl AngleSource {
    /// `op` (an op [`expand_sourced`] reported with this source) at the
    /// parameter vector `theta`: the op itself when fixed, otherwise the
    /// same rotation at its angle under `theta`, with that angle's pulse
    /// cost — exactly the op [`expand`] emits at `theta` whenever `theta`
    /// keeps the same ops (the same
    /// [`crate::template::StructureKey`]).
    ///
    /// # Panics
    ///
    /// Panics if `theta` is too short for the source's index.
    pub fn rebind(self, op: &NativeOp, theta: &[f64]) -> NativeOp {
        match self {
            AngleSource::Fixed => op.clone(),
            AngleSource::Param { index, scale } => rotation(
                op.gate.kind(),
                op.gate.qubits()[0],
                scale.apply(theta[index]),
            ),
        }
    }
}

/// A one-qubit rotation with its pulse cost.
fn rotation(kind: GateKind, q: usize, angle: f64) -> NativeOp {
    NativeOp {
        gate: BoundGate::one(kind, q, angle),
        pulses: rotation_pulses(angle),
    }
}

/// Expands a routed circuit at concrete parameter values into native ops.
///
/// Gates whose bound angle is `0 (mod 2π)` within [`ANGLE_TOL`] are dropped;
/// controlled rotations expand to `CX · R(−θ/2) · CX · R(θ/2)` on the
/// target; SWAPs expand to three CNOTs.
///
/// # Panics
///
/// Panics if `theta` is shorter than the circuit's parameter count.
pub fn expand(phys: &PhysicalCircuit, theta: &[f64]) -> NativeCircuit {
    let mut ops: Vec<NativeOp> = Vec::with_capacity(phys.ops().len() * 2);
    expand_sourced(phys, theta, |op, _| ops.push(op));
    NativeCircuit {
        n_physical: phys.n_physical(),
        ops,
        final_layout: phys.final_layout().to_vec(),
    }
}

/// The walk behind [`expand`]: hands every native op, in order, to `emit`
/// together with the [`AngleSource`] its angle comes from, so a caller can
/// recompute the op at another parameter vector of the same structure
/// ([`AngleSource::rebind`]) without expanding again.
///
/// # Panics
///
/// Panics if `theta` is shorter than the circuit's parameter count.
pub fn expand_sourced<F>(phys: &PhysicalCircuit, theta: &[f64], mut emit: F)
where
    F: FnMut(NativeOp, AngleSource),
{
    assert!(
        theta.len() >= phys.n_params(),
        "need {} parameters, got {}",
        phys.n_params(),
        theta.len()
    );
    let fixed = |kind: GateKind, q: usize| NativeOp {
        gate: BoundGate::one(kind, q, 0.0),
        pulses: fixed_gate_pulses(kind),
    };
    let cx = |c: usize, t: usize| NativeOp {
        gate: BoundGate::two(GateKind::Cx, c, t, 0.0),
        pulses: 0,
    };
    for op in phys.ops() {
        let (angle, index) = match op.param {
            Some(Param::Idx(i)) => (theta[i], Some(i)),
            Some(Param::Fixed(v)) => (v, None),
            None => (0.0, None),
        };
        let source = |scale| match index {
            Some(index) => AngleSource::Param { index, scale },
            None => AngleSource::Fixed,
        };
        match op.kind {
            GateKind::Rx | GateKind::Ry | GateKind::Rz | GateKind::Phase => {
                if !angle_is_identity(op.kind, angle, ANGLE_TOL) {
                    let scale = AngleScale::Whole;
                    emit(
                        rotation(op.kind, op.qubits[0], scale.apply(angle)),
                        source(scale),
                    );
                }
            }
            GateKind::Crx | GateKind::Cry | GateKind::Crz => {
                // Identity only at multiples of 4π (see `angle_is_identity`:
                // at 2π the control promotes −I to a physical phase).
                if !angle_is_identity(op.kind, angle, ANGLE_TOL) {
                    // CX-conjugation flips the rotation sign only for axes
                    // that anticommute with X, so CRY/CRZ decompose directly;
                    // CRX conjugates the target with H around a CRZ pattern
                    // (HZH = X).
                    let axis = match op.kind {
                        GateKind::Crx => GateKind::Rz,
                        GateKind::Cry => GateKind::Ry,
                        _ => GateKind::Rz,
                    };
                    let (c, t) = (op.qubits[0], op.qubits[1]);
                    let wrap_h = op.kind == GateKind::Crx;
                    if wrap_h {
                        emit(fixed(GateKind::H, t), AngleSource::Fixed);
                    }
                    // Time order: CX · R(−θ/2) · CX · R(θ/2).
                    for scale in [AngleScale::NegHalf, AngleScale::Half] {
                        emit(cx(c, t), AngleSource::Fixed);
                        emit(rotation(axis, t, scale.apply(angle)), source(scale));
                    }
                    if wrap_h {
                        emit(fixed(GateKind::H, t), AngleSource::Fixed);
                    }
                }
            }
            GateKind::Swap => {
                let (a, b) = (op.qubits[0], op.qubits[1]);
                for (c, t) in [(a, b), (b, a), (a, b)] {
                    emit(cx(c, t), AngleSource::Fixed);
                }
            }
            GateKind::Cx | GateKind::Cz => {
                emit(
                    NativeOp {
                        gate: BoundGate::two(op.kind, op.qubits[0], op.qubits[1], 0.0),
                        pulses: 0,
                    },
                    AngleSource::Fixed,
                );
            }
            kind => emit(fixed(kind, op.qubits[0]), AngleSource::Fixed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Circuit;
    use crate::route::route_identity;
    use calibration::topology::Topology;
    use quasim::statevector::StateVector;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn belem() -> Topology {
        Topology::ibm_belem()
    }

    #[test]
    fn rotation_pulse_costs() {
        assert_eq!(rotation_pulses(0.0), 0);
        assert_eq!(rotation_pulses(2.0 * PI), 0);
        assert_eq!(rotation_pulses(-2.0 * PI), 0);
        assert_eq!(rotation_pulses(FRAC_PI_2), 1);
        assert_eq!(rotation_pulses(PI), 1);
        assert_eq!(rotation_pulses(3.0 * FRAC_PI_2), 1);
        assert_eq!(rotation_pulses(-FRAC_PI_2), 1);
        assert_eq!(rotation_pulses(0.3), 2);
        assert_eq!(rotation_pulses(1.0), 2);
    }

    #[test]
    fn zero_rotation_vanishes() {
        let mut c = Circuit::new(1);
        c.ry(0, Param::Idx(0));
        let phys = route_identity(&c, &belem());
        assert!(expand(&phys, &[0.0]).ops().is_empty());
        assert_eq!(expand(&phys, &[0.4]).pulse_count(), 2);
        assert_eq!(expand(&phys, &[PI]).pulse_count(), 1);
    }

    #[test]
    fn cry_cost_ladder_matches_paper_breakpoints() {
        let mut c = Circuit::new(2);
        c.cry(0, 1, Param::Idx(0));
        let phys = route_identity(&c, &belem());
        let len = |t: f64| expand(&phys, &[t]).length();
        // 0 < π < generic: the compression levels are exactly the cheap spots.
        assert_eq!(len(0.0), 0);
        assert!(len(PI) < len(1.2), "π should be cheaper than generic");
        assert!(len(0.0) < len(PI));
        // π level: halves are π/2 → single pulses.
        assert_eq!(expand(&phys, &[PI]).pulse_count(), 2);
        assert_eq!(expand(&phys, &[1.2]).pulse_count(), 4);
        assert_eq!(expand(&phys, &[PI]).cx_count(), 2);
    }

    #[test]
    fn swap_expands_to_three_cnots() {
        let mut c = Circuit::new(5);
        c.cx(0, 4);
        let phys = route_identity(&c, &belem());
        let native = expand(&phys, &[]);
        assert_eq!(native.cx_count(), phys.swap_count() * 3 + 1);
    }

    /// Expanded circuit must implement the same unitary as the logical one
    /// (checked through measurement marginals via the final layout).
    #[test]
    fn expansion_preserves_semantics() {
        let mut c = Circuit::new(4);
        c.ry(0, Param::Idx(0))
            .cry(0, 1, Param::Idx(1))
            .crx(1, 2, Param::Idx(2))
            .crz(2, 3, Param::Idx(3))
            .cry(3, 0, Param::Idx(4))
            .rx(2, Param::Idx(5));
        let theta = [0.3, 1.1, -0.7, 2.2, 0.9, 0.5];

        // Reference: logical circuit on the logical register.
        let mut ref_sv = StateVector::zero_state(4);
        ref_sv.run(&c.bind(&theta));

        // Expanded: physical register, swaps included.
        let topo = belem();
        let phys = route_identity(&c, &topo);
        let native = expand(&phys, &theta);
        let mut sv = StateVector::zero_state(topo.n_qubits());
        for op in native.ops() {
            sv.apply(&op.gate);
        }
        for l in 0..4 {
            let p = native.measured_physical(l);
            assert!(
                (ref_sv.prob_one(l) - sv.prob_one(p)).abs() < 1e-10,
                "marginal mismatch on logical {l}"
            );
        }
    }
}
