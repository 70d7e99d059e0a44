//! Classification head: softmax over per-qubit Z scores, cross-entropy loss.
//!
//! Class `k`'s logit is the expectation `⟨Z_k⟩` of readout qubit `k`
//! (negated so that "more |1⟩" means "more class evidence", matching the
//! Torch-Quantum convention); probabilities come from a softmax and training
//! minimises cross-entropy.

/// Converts per-qubit `⟨Z⟩` values into class logits.
///
/// # Examples
///
/// ```
/// let logits = qnn::loss::logits_from_z(&[1.0, -1.0]);
/// assert!(logits[1] > logits[0]); // qubit 1 closer to |1⟩ → stronger class 1
/// ```
pub fn logits_from_z(z_scores: &[f64]) -> Vec<f64> {
    z_scores.iter().map(|&z| -z).collect()
}

/// Numerically stable softmax.
///
/// # Panics
///
/// Panics if `logits` is empty.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    assert!(!logits.is_empty(), "softmax needs at least one logit");
    let max = logits.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let exps: Vec<f64> = logits.iter().map(|&l| (l - max).exp()).collect();
    let total: f64 = exps.iter().sum();
    exps.iter().map(|&e| e / total).collect()
}

/// Cross-entropy of a single sample given per-qubit Z scores.
///
/// # Panics
///
/// Panics if `label` is out of range.
pub fn cross_entropy(z_scores: &[f64], label: usize) -> f64 {
    assert!(label < z_scores.len(), "label out of range");
    // `softmax(logits_from_z(z))[label]` without the two temporaries: the
    // same operations in the same order, so the same bits.
    let max = z_scores
        .iter()
        .map(|&z| -z)
        .fold(f64::NEG_INFINITY, f64::max);
    let total: f64 = z_scores.iter().map(|&z| (-z - max).exp()).sum();
    let p = (-z_scores[label] - max).exp() / total;
    -(p.max(1e-12)).ln()
}

/// Mean cross-entropy over a batch of already-evaluated Z-score vectors.
///
/// Sums per-sample losses in slice order before the single division, so a
/// batched evaluation that produces the same scores as a sequential loop
/// yields the bit-identical loss — [`crate::train::batch_loss`] and the
/// probe-batched training paths both reduce through this function.
///
/// # Panics
///
/// Panics if the slices differ in length, the batch is empty, or a label
/// is out of range.
pub fn mean_cross_entropy(scores: &[Vec<f64>], labels: &[usize]) -> f64 {
    assert_eq!(scores.len(), labels.len(), "length mismatch");
    assert!(!scores.is_empty(), "empty batch");
    let total: f64 = scores
        .iter()
        .zip(labels)
        .map(|(z, &label)| cross_entropy(z, label))
        .sum();
    total / scores.len() as f64
}

/// Gradient of [`cross_entropy`] with respect to the *Z scores*
/// (`∂L/∂z_k = −(p_k − 1{k=label})`, the extra minus from the logit flip).
///
/// # Panics
///
/// Panics if `label` is out of range.
pub fn cross_entropy_grad_z(z_scores: &[f64], label: usize) -> Vec<f64> {
    assert!(label < z_scores.len(), "label out of range");
    let probs = softmax(&logits_from_z(z_scores));
    probs
        .iter()
        .enumerate()
        .map(|(k, &p)| -(p - if k == label { 1.0 } else { 0.0 }))
        .collect()
}

/// Predicted class: argmax of the logits.
///
/// # Panics
///
/// Panics if `z_scores` is empty.
pub fn predict(z_scores: &[f64]) -> usize {
    assert!(!z_scores.is_empty(), "need at least one class");
    logits_from_z(z_scores)
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(k, _)| k)
        .expect("non-empty")
}

/// Fraction of correct predictions.
///
/// # Panics
///
/// Panics if the slices differ in length or are empty.
pub fn accuracy(predictions: &[usize], labels: &[usize]) -> f64 {
    assert_eq!(predictions.len(), labels.len(), "length mismatch");
    assert!(!predictions.is_empty(), "empty evaluation set");
    let hits = predictions
        .iter()
        .zip(labels)
        .filter(|(p, l)| p == l)
        .count();
    hits as f64 / predictions.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0]);
        let b = softmax(&[101.0, 102.0]);
        assert!((a[0] - b[0]).abs() < 1e-12);
    }

    #[test]
    fn cross_entropy_matches_softmax_composition_bitwise() {
        let zs = [
            vec![0.3, -0.7, 0.11, 0.9],
            vec![-1.0, 1.0],
            vec![0.0, -0.0, 1e-9],
            vec![0.999_999, -0.999_999, 0.5],
        ];
        for z in &zs {
            for label in 0..z.len() {
                let probs = softmax(&logits_from_z(z));
                let want = -(probs[label].max(1e-12)).ln();
                assert_eq!(cross_entropy(z, label).to_bits(), want.to_bits());
            }
        }
    }

    #[test]
    fn cross_entropy_prefers_correct_qubit_excited() {
        // Label 0: loss smaller when qubit 0 is near |1⟩ (z = −1).
        let good = cross_entropy(&[-1.0, 1.0], 0);
        let bad = cross_entropy(&[1.0, -1.0], 0);
        assert!(good < bad);
    }

    #[test]
    fn grad_matches_finite_difference() {
        let z = [0.3, -0.2, 0.7];
        let label = 1;
        let g = cross_entropy_grad_z(&z, label);
        let h = 1e-6;
        for k in 0..3 {
            let mut zp = z;
            zp[k] += h;
            let mut zm = z;
            zm[k] -= h;
            let fd = (cross_entropy(&zp, label) - cross_entropy(&zm, label)) / (2.0 * h);
            assert!((g[k] - fd).abs() < 1e-6, "dim {k}: {} vs {}", g[k], fd);
        }
    }

    #[test]
    fn predict_picks_most_excited_qubit() {
        assert_eq!(predict(&[0.9, -0.8, 0.1]), 1);
        assert_eq!(predict(&[-0.5, -0.2]), 0);
    }

    #[test]
    fn accuracy_counts_hits() {
        assert_eq!(accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]), 0.75);
    }

    #[test]
    #[should_panic(expected = "label out of range")]
    fn cross_entropy_checks_label() {
        let _ = cross_entropy(&[0.0, 0.0], 5);
    }
}
