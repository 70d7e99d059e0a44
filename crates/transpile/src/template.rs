//! Compile-once/rebind-many circuit templates.
//!
//! Every noisy evaluation runs the full transpile pipeline — simplify at
//! the bound angles, route onto the device, expand to native gates, fuse
//! with the day's noise — even though consecutive evaluations differ only
//! in rotation angles (per sample) and channel strengths (per day). The
//! routed *structure* of the pipeline's output is not a function of the
//! raw angles but of their **identity pattern** alone: which
//! parameterised gates sit on an identity angle and are dropped before
//! routing. Everything finer — pulse counts, bound matrices — is
//! recomputed from the actual angles by the cheap expansion pass at bind
//! time.
//!
//! [`StructureKey`] captures exactly that pattern in one byte per
//! parameterised op, and [`CircuitTemplate`] caches the expensive
//! structure-determined half of the pipeline (simplify + route). Binding a
//! template at concrete angles ([`CircuitTemplate::bind`]) re-runs only
//! the cheap linear passes and is **bit-identical** to a from-scratch
//! compile whenever the keys match: two parameter vectors with equal keys
//! drop the same ops, so `simplified()` yields value-identical circuits,
//! routing is deterministic, and expansion differs only in the rotation
//! angles it was going to re-bind anyway (see the `template_props`
//! property tests).
//!
//! `qnn::executor` builds a per-executor program cache on top of this:
//! training loops and batch evaluation route+expand once per structure and
//! rebind angles per sample / noise strengths per day. Bind time is also
//! where the trajectory backends precompose runs of consecutive
//! same-support unitaries into single matrices
//! ([`crate::fuse::fuse_native_trajectory`]) — a value-level optimisation
//! that must happen after angles are bound, which is why it lives
//! downstream of the template rather than in the cached structure.

use crate::circuit::{angle_is_identity, Circuit};
use crate::expand::{expand, NativeCircuit};
use crate::route::{route, PhysicalCircuit};
use calibration::topology::Topology;

/// The identity-pattern signature of a circuit at a bound parameter
/// vector: one byte per parameterised op (kept / identity-dropped), in op
/// order.
///
/// Two parameter vectors with equal keys produce identical simplified
/// circuits and therefore identical routing; everything downstream of the
/// route — native-gate expansion, pulse counts, bound matrices — is
/// recomputed from the actual angles at bind time, so the key needs no
/// finer classification (a coarser key means strictly more cache hits).
///
/// # Examples
///
/// ```
/// use transpile::circuit::{Circuit, Param};
/// use transpile::template::structure_key;
/// use transpile::expand::ANGLE_TOL;
///
/// let mut c = Circuit::new(2);
/// c.ry(0, Param::Idx(0)).cry(0, 1, Param::Idx(1));
/// // Two generic-angle vectors share a structure…
/// assert_eq!(
///     structure_key(&c, &[0.4, 1.3], ANGLE_TOL),
///     structure_key(&c, &[2.2, -0.9], ANGLE_TOL),
/// );
/// // …but compressing a parameter to 0 changes it.
/// assert_ne!(
///     structure_key(&c, &[0.4, 1.3], ANGLE_TOL),
///     structure_key(&c, &[0.0, 1.3], ANGLE_TOL),
/// );
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct StructureKey(Box<[u8]>);

impl StructureKey {
    /// Number of parameterised ops the key classifies.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the circuit has no parameterised op.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The raw kept/dropped bytes, one per parameterised op in op order
    /// (`1` = kept, `0` = identity-dropped); used by `crate::verify`.
    pub(crate) fn bytes(&self) -> &[u8] {
        &self.0
    }
}

/// Computes the [`StructureKey`] of `circuit` at `theta`.
///
/// The classification mirrors the pipeline exactly: identity detection
/// via [`angle_is_identity`], the single rule `Circuit::simplified` and
/// `transpile::expand` share, so the key can never disagree with the
/// simplify pass about which ops survive to routing.
///
/// # Panics
///
/// Panics if `theta` is shorter than the circuit's parameter count.
pub fn structure_key(circuit: &Circuit, theta: &[f64], tol: f64) -> StructureKey {
    let mut key = Vec::with_capacity(circuit.len());
    for op in circuit.ops() {
        let Some(p) = op.param else { continue };
        let angle = p.resolve(theta);
        key.push(u8::from(!angle_is_identity(op.kind, angle, tol)));
    }
    StructureKey(key.into_boxed_slice())
}

/// The structure-determined half of a compiled circuit: the simplified,
/// routed [`PhysicalCircuit`] for one [`StructureKey`], ready to be
/// re-bound at any parameter vector with the same key.
///
/// # Examples
///
/// ```
/// use transpile::circuit::{Circuit, Param};
/// use transpile::template::CircuitTemplate;
/// use transpile::expand::ANGLE_TOL;
/// use calibration::topology::Topology;
///
/// let mut c = Circuit::new(2);
/// c.ry(0, Param::Idx(0)).cry(0, 1, Param::Idx(1));
/// let topo = Topology::ibm_belem();
/// let template = CircuitTemplate::compile(&c, &topo, &[0.4, 1.3], ANGLE_TOL);
/// // Rebinding at another same-structure vector skips simplify + route.
/// let native = template.bind(&[2.2, -0.9]);
/// assert_eq!(native.cx_count(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CircuitTemplate {
    key: StructureKey,
    phys: PhysicalCircuit,
}

impl CircuitTemplate {
    /// Runs the structural half of the pipeline (simplify at `theta`, route
    /// onto `topology` with the identity initial layout) and records the
    /// structure key it is valid for.
    ///
    /// # Panics
    ///
    /// Panics if `theta` is shorter than the circuit's parameter count or
    /// the device is smaller than the circuit.
    pub fn compile(circuit: &Circuit, topology: &Topology, theta: &[f64], tol: f64) -> Self {
        let key = structure_key(circuit, theta, tol);
        let simplified = circuit.simplified(theta, tol);
        let phys = route(&simplified, topology, None);
        let template = CircuitTemplate { key, phys };
        // Compile-boundary invariant check: every template leaving the
        // structural half of the pipeline is internally consistent and
        // on-device (debug/test builds only; release sweeps call
        // `crate::verify::verify_template` explicitly).
        debug_assert!(
            crate::verify::verify_template(&template, topology).is_ok(),
            "compile produced an invalid template: {}",
            crate::verify::verify_template(&template, topology).unwrap_err()
        );
        template
    }

    /// The structure key this template was compiled for.
    pub fn key(&self) -> &StructureKey {
        &self.key
    }

    /// The routed physical circuit (structure only; angles unbound).
    pub fn physical(&self) -> &PhysicalCircuit {
        &self.phys
    }

    /// Re-binds the template at a concrete parameter vector: native-gate
    /// expansion only, no simplify / route.
    ///
    /// Bit-identical to `expand(&route(&circuit.simplified(theta, tol),
    /// topology, None), theta)` whenever `structure_key(circuit, theta,
    /// tol)` equals [`CircuitTemplate::key`].
    ///
    /// # Panics
    ///
    /// Panics if `theta` is shorter than the circuit's parameter count.
    pub fn bind(&self, theta: &[f64]) -> NativeCircuit {
        expand(&self.phys, theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::Param;
    use crate::expand::ANGLE_TOL;
    use std::f64::consts::{FRAC_PI_2, PI};

    fn ladder() -> Circuit {
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.ry(q, Param::Idx(q));
        }
        for q in 0..3 {
            c.cry(q, q + 1, Param::Idx(4 + q));
        }
        c.cx(3, 0);
        c
    }

    #[test]
    fn key_ignores_unparameterised_ops_and_generic_angle_values() {
        let c = ladder();
        let a = structure_key(&c, &[0.3, 0.9, 1.4, 2.0, 0.7, 1.1, 2.8], ANGLE_TOL);
        let b = structure_key(&c, &[1.3, 1.9, 0.4, 1.0, 2.7, 0.1, 0.8], ANGLE_TOL);
        assert_eq!(a, b);
        assert_eq!(a.len(), 7);
    }

    #[test]
    fn key_distinguishes_dropped_ops_only() {
        let c = ladder();
        let generic = structure_key(&c, &[0.3; 7], ANGLE_TOL);
        let dropped = structure_key(&c, &[0.0, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3], ANGLE_TOL);
        assert_ne!(generic, dropped);
        // Quarter turns and half turns keep the op, so they share the
        // generic structure (pulse costs are re-derived at bind time).
        let quarter = structure_key(&c, &[FRAC_PI_2, 0.3, 0.3, 0.3, 0.3, 0.3, 0.3], ANGLE_TOL);
        assert_eq!(generic, quarter);
        let ctrl_pi = structure_key(&c, &[0.3, 0.3, 0.3, 0.3, PI, 0.3, 0.3], ANGLE_TOL);
        assert_eq!(generic, ctrl_pi);
        // Controlled rotations drop only at multiples of 4π.
        let tau = std::f64::consts::TAU;
        let ctrl_2pi = structure_key(&c, &[0.3, 0.3, 0.3, 0.3, tau, 0.3, 0.3], ANGLE_TOL);
        assert_eq!(generic, ctrl_2pi);
        let ctrl_4pi = structure_key(&c, &[0.3, 0.3, 0.3, 0.3, 2.0 * tau, 0.3, 0.3], ANGLE_TOL);
        assert_ne!(generic, ctrl_4pi);
    }

    #[test]
    fn key_wraps_angles_like_the_pipeline() {
        let mut c = Circuit::new(1);
        c.ry(0, Param::Idx(0));
        let tau = std::f64::consts::TAU;
        assert_eq!(
            structure_key(&c, &[0.0], ANGLE_TOL),
            structure_key(&c, &[-tau], ANGLE_TOL)
        );
        assert_ne!(
            structure_key(&c, &[0.0], ANGLE_TOL),
            structure_key(&c, &[FRAC_PI_2 + tau], ANGLE_TOL)
        );
    }

    #[test]
    fn bind_matches_from_scratch_pipeline_for_equal_keys() {
        let c = ladder();
        let topo = Topology::ibm_belem();
        let first = [0.3, 0.9, 1.4, 2.0, 0.7, 1.1, 2.8];
        let template = CircuitTemplate::compile(&c, &topo, &first, ANGLE_TOL);
        let second = [1.3, 1.9, 0.4, 1.0, 2.7, 0.1, 0.8];
        assert_eq!(*template.key(), structure_key(&c, &second, ANGLE_TOL));
        let rebound = template.bind(&second);
        let scratch = expand(
            &route(&c.simplified(&second, ANGLE_TOL), &topo, None),
            &second,
        );
        assert_eq!(rebound, scratch);
    }

    #[test]
    fn compressed_structure_gets_its_own_template() {
        let c = ladder();
        let topo = Topology::ibm_belem();
        let compressed = [0.0, PI, 0.3, FRAC_PI_2, 0.0, 1.7, 0.0];
        let template = CircuitTemplate::compile(&c, &topo, &compressed, ANGLE_TOL);
        let rebound = template.bind(&compressed);
        let scratch = expand(
            &route(&c.simplified(&compressed, ANGLE_TOL), &topo, None),
            &compressed,
        );
        assert_eq!(rebound, scratch);
        // The compressed structure is strictly shorter than the generic one.
        let generic = CircuitTemplate::compile(&c, &topo, &[0.3; 7], ANGLE_TOL);
        assert!(rebound.length() < generic.bind(&[0.3; 7]).length());
    }
}
