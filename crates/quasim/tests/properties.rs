//! Property-based tests of the simulator invariants.
//!
//! Random circuits and channel strengths must preserve the physics: state
//! norms, density-matrix trace/Hermiticity/positivity proxies, channel
//! monotonicity, and agreement between the pure and mixed simulators.

use proptest::prelude::*;
use quasim::density::DensityMatrix;
use quasim::gate::{BoundGate, GateKind};
use quasim::noise::KrausChannel;
use quasim::statevector::StateVector;

const N_QUBITS: usize = 3;

fn arb_gate() -> impl Strategy<Value = BoundGate> {
    let one_q = (0usize..N_QUBITS, -7.0f64..7.0, 0usize..6).prop_map(|(q, theta, k)| {
        let kind = [
            GateKind::H,
            GateKind::X,
            GateKind::Rx,
            GateKind::Ry,
            GateKind::Rz,
            GateKind::S,
        ][k];
        BoundGate::one(kind, q, theta)
    });
    let two_q = (0usize..N_QUBITS, 0usize..N_QUBITS, -7.0f64..7.0, 0usize..4).prop_filter_map(
        "distinct qubits",
        |(a, b, theta, k)| {
            if a == b {
                return None;
            }
            let kind = [GateKind::Cx, GateKind::Cry, GateKind::Crz, GateKind::Swap][k];
            Some(BoundGate::two(kind, a, b, theta))
        },
    );
    prop_oneof![one_q, two_q]
}

fn arb_circuit() -> impl Strategy<Value = Vec<BoundGate>> {
    proptest::collection::vec(arb_gate(), 0..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Pure-state evolution preserves the norm.
    #[test]
    fn statevector_norm_preserved(gates in arb_circuit()) {
        let mut sv = StateVector::zero_state(N_QUBITS);
        sv.run(&gates);
        prop_assert!((sv.norm_sqr() - 1.0).abs() < 1e-9);
    }

    /// Pure and density simulations agree on all marginals for unitary
    /// circuits.
    #[test]
    fn density_matches_statevector(gates in arb_circuit()) {
        let mut sv = StateVector::zero_state(N_QUBITS);
        sv.run(&gates);
        let mut rho = DensityMatrix::zero_state(N_QUBITS);
        for g in &gates {
            rho.apply_gate(g);
        }
        for q in 0..N_QUBITS {
            prop_assert!((sv.prob_one(q) - rho.prob_one(q)).abs() < 1e-8);
        }
        prop_assert!((rho.purity() - 1.0).abs() < 1e-8);
    }

    /// Channels keep ρ a valid state: unit trace, Hermitian, purity ≤ 1,
    /// non-negative probabilities.
    #[test]
    fn channels_preserve_state_validity(
        gates in arb_circuit(),
        lambda in 0.0f64..0.6,
        q in 0usize..N_QUBITS,
    ) {
        let mut rho = DensityMatrix::zero_state(N_QUBITS);
        for g in &gates {
            rho.apply_gate(g);
        }
        rho.apply_depolarizing_1q(lambda, q);
        rho.apply_depolarizing_2q(lambda, q, (q + 1) % N_QUBITS);
        prop_assert!((rho.trace() - 1.0).abs() < 1e-8);
        prop_assert!(rho.hermiticity_error() < 1e-8);
        prop_assert!(rho.purity() <= 1.0 + 1e-9);
        for p in rho.probabilities() {
            prop_assert!(p >= -1e-10);
        }
    }

    /// More depolarising noise never increases fidelity with the ideal
    /// state.
    #[test]
    fn depolarizing_monotone_in_strength(
        gates in arb_circuit(),
        l1 in 0.0f64..0.3,
        dl in 0.0f64..0.3,
    ) {
        let mut sv = StateVector::zero_state(N_QUBITS);
        sv.run(&gates);
        let fid = |lambda: f64| {
            let mut rho = DensityMatrix::zero_state(N_QUBITS);
            for g in &gates {
                rho.apply_gate(g);
                rho.apply_depolarizing_1q(lambda, g.qubits()[0]);
            }
            rho.fidelity_with_pure(&sv)
        };
        prop_assert!(fid(l1 + dl) <= fid(l1) + 1e-9);
    }

    /// The closed-form depolarising channels match their Kraus forms.
    #[test]
    fn fast_channels_match_kraus(
        gates in arb_circuit(),
        lambda in 0.0f64..1.0,
        q in 0usize..N_QUBITS,
    ) {
        let mut a = DensityMatrix::zero_state(N_QUBITS);
        let mut b = DensityMatrix::zero_state(N_QUBITS);
        for g in &gates {
            a.apply_gate(g);
            b.apply_gate(g);
        }
        let r = (q + 1) % N_QUBITS;
        a.apply_channel(&KrausChannel::depolarizing_1q(lambda), &[q]);
        a.apply_channel(&KrausChannel::depolarizing_2q(lambda), &[q, r]);
        b.apply_depolarizing_1q(lambda, q);
        b.apply_depolarizing_2q(lambda, q, r);
        for i in 0..(1 << N_QUBITS) {
            for j in 0..(1 << N_QUBITS) {
                prop_assert!((a.get(i, j) - b.get(i, j)).abs() < 1e-10);
            }
        }
    }
}
