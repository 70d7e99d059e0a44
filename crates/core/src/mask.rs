//! Noise-aware mask generation (the paper's Fig. 6 pipeline).
//!
//! For each trainable weight `θ_i`:
//!
//! 1. `T_admm_i` / `d_i` — nearest compression level and circular distance
//!    (from [`crate::levels::CompressionTable`]);
//! 2. `p_i = C(A(g_i)) / d_i` — the priority: noise rate on the gate's
//!    *physical* qubits divided by distance-to-level, so both "close to a
//!    level" and "sitting on a noisy qubit" raise the priority;
//! 3. `mask_i = 1` iff `p_i` clears the selection rule, meaning *compress
//!    gate `g_i` to `T_admm_i`*.
//!
//! A noise-**agnostic** variant (`p_i = 1/d_i`) reproduces the prior-work
//! compression \[23] for the paper's Fig. 9(b) ablation.

use crate::levels::CompressionTable;
use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use qnn::model::VqcModel;
use transpile::route::PhysicalCircuit;

/// Per-weight gate metadata: which physical qubits weight `i`'s gate acts
/// on (the paper's association `A(g_i)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GateAssoc {
    /// Weight index within the model's weight vector.
    pub weight_index: usize,
    /// Physical qubit operands after routing.
    pub physical_qubits: Vec<usize>,
}

/// Extracts `A(g_i)` for every weight of a routed model.
///
/// # Panics
///
/// Panics if some weight has no associated op in the routed circuit (would
/// indicate a model/router mismatch).
pub fn gate_associations(model: &VqcModel, phys: &PhysicalCircuit) -> Vec<GateAssoc> {
    (0..model.n_weights())
        .map(|i| {
            let slot = model.weight_slot(i);
            let assoc = phys.assoc_for_param(slot);
            assert!(
                !assoc.is_empty(),
                "weight {i} (slot {slot}) has no routed op"
            );
            GateAssoc {
                weight_index: i,
                physical_qubits: assoc[0].clone(),
            }
        })
        .collect()
}

/// How the mask selects gates from the priority table.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SelectionRule {
    /// The paper's rule: mask gates with `p_i >= threshold`.
    Threshold(f64),
    /// Compress the top `fraction` of gates by priority (used by the
    /// ablations so noise-aware and noise-agnostic compress the *same
    /// number* of gates and only differ in which ones).
    TopFraction(f64),
}

impl SelectionRule {
    /// Applies the rule to a priority table.
    ///
    /// # Panics
    ///
    /// Panics if a `TopFraction` is outside `[0, 1]`.
    pub fn select(&self, priorities: &[f64]) -> Vec<bool> {
        match *self {
            SelectionRule::Threshold(t) => priorities.iter().map(|&p| p >= t).collect(),
            SelectionRule::TopFraction(f) => {
                assert!((0.0..=1.0).contains(&f), "fraction must be in [0,1]");
                let n = priorities.len();
                let k = ((n as f64) * f).round() as usize;
                let mut idx: Vec<usize> = (0..n).collect();
                idx.sort_by(|&a, &b| priorities[b].total_cmp(&priorities[a]));
                let mut mask = vec![false; n];
                for &i in idx.iter().take(k) {
                    mask[i] = true;
                }
                mask
            }
        }
    }
}

/// Computes the priority table `P`.
///
/// `noise_aware = true` gives `p_i = C(A(g_i)) / d_i`; `false` gives the
/// noise-agnostic `p_i = 1 / d_i`. Distances below `1e-9` yield
/// `f64::INFINITY` (already at a level — free to compress).
pub fn priorities(
    theta: &[f64],
    assocs: &[GateAssoc],
    snapshot: &CalibrationSnapshot,
    topology: &Topology,
    table: &CompressionTable,
    noise_aware: bool,
) -> Vec<f64> {
    assert_eq!(theta.len(), assocs.len(), "one association per weight");
    theta
        .iter()
        .zip(assocs.iter())
        .map(|(&t, assoc)| {
            let (_, d) = table.nearest(t);
            let c = if noise_aware {
                snapshot.noise_on(topology, &assoc.physical_qubits)
            } else {
                1.0
            };
            if d < 1e-9 {
                f64::INFINITY
            } else {
                c / d
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use qnn::executor::{NoiseOptions, NoisyExecutor};
    use std::f64::consts::PI;

    fn setup() -> (VqcModel, Topology, Vec<GateAssoc>, CalibrationSnapshot) {
        let model = VqcModel::paper_model(4, 4, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
        let assocs = gate_associations(&model, exec.physical_circuit());
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-4, 1e-2, 0.02);
        (model, topo, assocs, snap)
    }

    #[test]
    fn associations_cover_every_weight() {
        let (model, _, assocs, _) = setup();
        assert_eq!(assocs.len(), model.n_weights());
        for (i, a) in assocs.iter().enumerate() {
            assert_eq!(a.weight_index, i);
            assert!(!a.physical_qubits.is_empty() && a.physical_qubits.len() <= 2);
        }
    }

    #[test]
    fn priority_is_infinite_at_levels() {
        let (model, topo, assocs, snap) = setup();
        let table = CompressionTable::standard();
        let mut theta = vec![0.8; model.n_weights()];
        theta[3] = PI; // exactly at a level
        let p = priorities(&theta, &assocs, &snap, &topo, &table, true);
        assert!(p[3].is_infinite());
        assert!(p[0].is_finite());
    }

    #[test]
    fn noisier_qubits_get_higher_priority() {
        let (model, topo, assocs, mut snap) = setup();
        let table = CompressionTable::standard();
        // Make one edge much noisier.
        snap.cnot_error[0] = 0.2; // edge (0,1)
        let theta = vec![0.8; model.n_weights()];
        let p = priorities(&theta, &assocs, &snap, &topo, &table, true);
        // A 2q weight on edge (0,1) must outrank a 1q weight (same d).
        let idx_2q = assocs
            .iter()
            .position(|a| a.physical_qubits == vec![0, 1])
            .expect("some CR gate sits on edge (0,1)");
        let idx_1q = assocs
            .iter()
            .position(|a| a.physical_qubits.len() == 1)
            .unwrap();
        assert!(p[idx_2q] > p[idx_1q]);
    }

    #[test]
    fn agnostic_priorities_ignore_noise() {
        let (model, topo, assocs, mut snap) = setup();
        let table = CompressionTable::standard();
        let theta = vec![0.8; model.n_weights()];
        let p1 = priorities(&theta, &assocs, &snap, &topo, &table, false);
        snap.cnot_error.iter_mut().for_each(|e| *e = 0.4);
        let p2 = priorities(&theta, &assocs, &snap, &topo, &table, false);
        assert_eq!(p1, p2);
    }

    #[test]
    fn closer_to_level_means_higher_priority() {
        let (_, topo, assocs, snap) = setup();
        let table = CompressionTable::standard();
        let mut theta = vec![0.8; assocs.len()];
        theta[0] = 0.1; // close to level 0
        theta[1] = 0.7; // far from any level
        let p = priorities(&theta, &assocs, &snap, &topo, &table, true);
        // Same qubit class (both 1q RY on encoding-free ansatz start).
        assert!(p[0] > p[1]);
    }

    #[test]
    fn threshold_rule_masks_expected_gates() {
        let mask = SelectionRule::Threshold(0.5).select(&[0.4, 0.6, f64::INFINITY]);
        assert_eq!(mask, vec![false, true, true]);
    }

    #[test]
    fn top_fraction_rule_counts() {
        let p = [0.1, 0.9, 0.5, 0.7];
        let mask = SelectionRule::TopFraction(0.5).select(&p);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 2);
        assert!(mask[1] && mask[3]);
    }

    #[test]
    fn top_fraction_zero_and_one() {
        let p = [0.1, 0.2];
        assert_eq!(
            SelectionRule::TopFraction(0.0).select(&p),
            vec![false, false]
        );
        assert_eq!(SelectionRule::TopFraction(1.0).select(&p), vec![true, true]);
    }

    #[test]
    #[should_panic(expected = "fraction")]
    fn bad_fraction_rejected() {
        let _ = SelectionRule::TopFraction(1.5).select(&[0.1]);
    }
}
