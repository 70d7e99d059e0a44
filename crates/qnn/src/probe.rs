//! Batched noise-free probe evaluation for finite-difference gradients.
//!
//! The pure finite-difference loop in [`crate::train::train_masked`] (and
//! the ADMM θ-update) evaluates `2·P` shifted weight vectors per sample,
//! each as a full bind + state-vector run even though a ±h shift of weight
//! `i` changes only the gate(s) referencing parameter slot `i`. This
//! module exploits that: one pass binds the base circuit's gate entries
//! ([`quasim::gate::GateEntries`]) once, advances a shared **prefix
//! state** gate by gate, and evaluates every ± probe by copying the
//! prefix at the probe's divergence point and replaying only the suffix
//! with the affected gates re-bound at the shifted angle.
//!
//! **Bit-identity**: every probe's Z scores equal
//! [`crate::executor::pure_z_scores`] at the correspondingly shifted
//! weight vector, bit for bit. Gates before the divergence point bind to
//! identical [`quasim::gate::BoundGate`]s (same angles → same matrices),
//! so the saved prefix state is the state a from-scratch run would reach;
//! unaffected suffix gates reuse the base-bound gates (their angles are
//! untouched by the shift); affected gates are re-bound through the same
//! [`transpile::circuit::Op::bind`] the full bind would use. The
//! `pure_probes_match_full_reruns` tests pin this, and the golden
//! z-score fixture pins the trained result end to end.
//!
//! Cost per sample drops from `(1 + 2·P)` full runs to one bind, one full
//! run and `2·P` suffix replays (half the circuit on average). A replay
//! copies the prefix into a reused state vector and applies the prebound
//! entries on the stack: no trig and no heap allocation, except for the
//! gates the shift affects, whose entries are re-derived. The buffers (two
//! state vectors and the bound entries) are reused across every sample a
//! worker sweeps.
//!
//! [`pure_fd_gradient`] turns the sweeps of a minibatch into its loss and
//! gradient, spreading the samples over the worker threads.

use crate::data::Sample;
use crate::executor::parallel::map_chunks;
use crate::loss::cross_entropy;
use crate::model::VqcModel;
use quasim::gate::GateEntries;
use quasim::statevector::StateVector;

/// Which evaluation of a sweep a set of Z scores belongs to; `Plus(k)` /
/// `Minus(k)` index the requested slots.
#[derive(Debug, Clone, Copy)]
enum Probe {
    Plus(usize),
    Minus(usize),
    Base,
}

/// The sample-independent part of a sweep, built once per gradient and
/// shared by every sample (and worker thread).
struct SweepPlan<'m> {
    model: &'m VqcModel,
    /// Per requested slot: its parameter index and the ops it feeds.
    probes: Vec<(usize, Vec<usize>)>,
    /// Request indices sorted by divergence point.
    order: Vec<usize>,
    measured: Vec<usize>,
}

impl<'m> SweepPlan<'m> {
    fn new(model: &'m VqcModel, slots: &[usize]) -> Self {
        let circuit = model.circuit();
        let probes: Vec<(usize, Vec<usize>)> = slots
            .iter()
            .map(|&slot| {
                let param = model.weight_slot(slot);
                (param, circuit.ops_for_param(param))
            })
            .collect();
        let mut plan = SweepPlan {
            model,
            probes,
            order: Vec::new(),
            measured: model.measured_logical(),
        };
        let mut order: Vec<usize> = (0..plan.probes.len()).collect();
        order.sort_by_key(|&k| plan.divergence(k));
        plan.order = order;
        plan
    }

    /// The first op whose angle request `k`'s shift changes (a slot no op
    /// references never diverges and reuses the base state).
    fn divergence(&self, k: usize) -> usize {
        self.probes[k]
            .1
            .first()
            .copied()
            .unwrap_or(self.model.circuit().len())
    }
}

/// One worker's sweep buffers, reused across the samples it sweeps.
struct Sweeper {
    zero: StateVector,
    prefix: StateVector,
    work: StateVector,
    entries: Vec<GateEntries>,
    z: Vec<f64>,
}

impl Sweeper {
    fn new(plan: &SweepPlan<'_>) -> Self {
        let zero = StateVector::zero_state(plan.model.n_qubits());
        Sweeper {
            prefix: zero.clone(),
            work: zero.clone(),
            zero,
            entries: Vec::with_capacity(plan.model.circuit().len()),
            z: Vec::with_capacity(plan.measured.len()),
        }
    }

    /// Sweeps one sample: calls `visit` with the Z scores of every ±h probe
    /// and, last, of the base evaluation (see the [module docs](self)).
    fn sweep(
        &mut self,
        plan: &SweepPlan<'_>,
        features: &[f64],
        weights: &[f64],
        h: f64,
        mut visit: impl FnMut(Probe, &[f64]),
    ) {
        let full = plan.model.full_params(features, weights);
        let ops = plan.model.circuit().ops();
        // Bind every gate's entries once; replays only copy them.
        self.entries.clear();
        self.entries
            .extend(ops.iter().map(|op| op.bind(&full).entries()));
        self.prefix.clone_from(&self.zero);
        let mut cursor = 0usize;
        let mut full_shift = full.clone();

        for &k in &plan.order {
            let (param, affected) = &plan.probes[k];
            let div = plan.divergence(k);
            // Advance the shared prefix to this probe's divergence point;
            // every earlier probe diverged at or before it, so each gate is
            // applied exactly once across the whole sweep.
            while cursor < div {
                self.prefix
                    .apply_entries(&self.entries[cursor], &ops[cursor].qubits);
                cursor += 1;
            }
            for (sign, probe) in [(1.0, Probe::Plus(k)), (-1.0, Probe::Minus(k))] {
                full_shift[*param] = full[*param] + sign * h;
                self.work.clone_from(&self.prefix);
                let mut next_affected = affected.iter().peekable();
                for (idx, op) in ops.iter().enumerate().skip(div) {
                    if next_affected.peek() == Some(&&idx) {
                        next_affected.next();
                        self.work.apply(&op.bind(&full_shift));
                    } else {
                        self.work.apply_entries(&self.entries[idx], &op.qubits);
                    }
                }
                self.z.clear();
                self.z
                    .extend(plan.measured.iter().map(|&q| self.work.expect_z(q)));
                visit(probe, &self.z);
            }
            full_shift[*param] = full[*param];
        }
        // Finish the base run: the prefix carried through every gate is the
        // unshifted evaluation itself.
        while cursor < ops.len() {
            self.prefix
                .apply_entries(&self.entries[cursor], &ops[cursor].qubits);
            cursor += 1;
        }
        self.z.clear();
        self.z
            .extend(plan.measured.iter().map(|&q| self.prefix.expect_z(q)));
        visit(Probe::Base, &self.z);
    }
}

/// Mean cross-entropy of `batch` and its central finite-difference
/// gradient on the weights in `slots` (other coordinates stay 0), in the
/// noise-free environment — the pure gradient of both
/// [`crate::train::train_masked`] and the ADMM θ-update.
///
/// One prefix-sharing sweep per sample replaces `1 + 2·|slots|` full
/// state-vector runs. Samples are independent, so their sweeps fan out
/// over `threads` workers ([`map_chunks`], one set of sweep buffers per
/// worker); the per-sample losses are then summed in batch order, so the
/// result is bit-identical for every `threads` and to the one-evaluation-
/// at-a-time loop: gradient `i` is `(Σ⁺/b − Σ⁻/b) / 2h`.
///
/// # Panics
///
/// Panics if `batch` is empty, slice lengths mismatch the model, a slot
/// index is out of range, or `h` is not finite.
pub fn pure_fd_gradient(
    model: &VqcModel,
    batch: &[&Sample],
    weights: &[f64],
    h: f64,
    slots: &[usize],
    threads: usize,
) -> (f64, Vec<f64>) {
    assert!(!batch.is_empty(), "empty batch");
    assert!(h.is_finite(), "shift must be finite");
    let plan = SweepPlan::new(model, slots);
    // Per sample: (base loss, +h losses, −h losses).
    let losses: Vec<(f64, Vec<f64>, Vec<f64>)> =
        map_chunks(&(), batch.len(), threads, |_, range| {
            let mut sweeper = Sweeper::new(&plan);
            range
                .map(|i| {
                    let s = batch[i];
                    let mut base = 0.0;
                    let mut plus = vec![0.0; slots.len()];
                    let mut minus = vec![0.0; slots.len()];
                    sweeper.sweep(&plan, &s.features, weights, h, |probe, z| {
                        let loss = cross_entropy(z, s.label);
                        match probe {
                            Probe::Plus(k) => plus[k] = loss,
                            Probe::Minus(k) => minus[k] = loss,
                            Probe::Base => base = loss,
                        }
                    });
                    (base, plus, minus)
                })
                .collect()
        });
    let mut base_sum = 0.0;
    let mut fp_sum = vec![0.0; slots.len()];
    let mut fm_sum = vec![0.0; slots.len()];
    for (base, plus, minus) in &losses {
        base_sum += base;
        for t in 0..slots.len() {
            fp_sum[t] += plus[t];
            fm_sum[t] += minus[t];
        }
    }
    let b = batch.len() as f64;
    let mut grad = vec![0.0; weights.len()];
    for (t, &i) in slots.iter().enumerate() {
        grad[i] = (fp_sum[t] / b - fm_sum[t] / b) / (2.0 * h);
    }
    (base_sum / b, grad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::pure_z_scores;

    /// One sample's sweep, probe by probe.
    struct PureProbes {
        /// Z scores at the unshifted weights.
        base: Vec<f64>,
        /// `(weight index, z at +h, z at −h)` per requested slot, in
        /// request order.
        shifted: Vec<(usize, Vec<f64>, Vec<f64>)>,
    }

    /// One sample's sweep, collected per probe: the base circuit and the
    /// `±h` probes of every weight in `slots`, in request order.
    fn pure_fd_probes(
        model: &VqcModel,
        features: &[f64],
        weights: &[f64],
        h: f64,
        slots: &[usize],
    ) -> PureProbes {
        let plan = SweepPlan::new(model, slots);
        let mut shifted: Vec<(usize, Vec<f64>, Vec<f64>)> = slots
            .iter()
            .map(|&slot| (slot, Vec::new(), Vec::new()))
            .collect();
        let mut base = Vec::new();
        Sweeper::new(&plan).sweep(&plan, features, weights, h, |probe, z| match probe {
            Probe::Plus(k) => shifted[k].1 = z.to_vec(),
            Probe::Minus(k) => shifted[k].2 = z.to_vec(),
            Probe::Base => base = z.to_vec(),
        });
        PureProbes { base, shifted }
    }

    fn assert_bits_eq(a: &[f64], b: &[f64], what: &str) {
        assert_eq!(a.len(), b.len(), "{what}: length");
        for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}[{i}]: {x} vs {y}");
        }
    }

    #[test]
    fn pure_probes_match_full_reruns() {
        let model = VqcModel::paper_model(4, 4, 8, 2);
        let weights = model.init_weights(11);
        let features = [0.4, 0.9, 1.3, 2.0, 0.2, 1.7, 0.8, 2.6];
        let h = 1e-3;
        let slots: Vec<usize> = (0..model.n_weights()).collect();
        let probes = pure_fd_probes(&model, &features, &weights, h, &slots);
        assert_bits_eq(
            &probes.base,
            &pure_z_scores(&model, &features, &weights),
            "base",
        );
        assert_eq!(probes.shifted.len(), slots.len());
        for (slot, zp, zm) in &probes.shifted {
            let mut w = weights.clone();
            w[*slot] += h;
            assert_bits_eq(zp, &pure_z_scores(&model, &features, &w), "plus");
            let mut w = weights.clone();
            w[*slot] -= h;
            assert_bits_eq(zm, &pure_z_scores(&model, &features, &w), "minus");
        }

        // The minibatch gradient, with the samples' sweeps spread over any
        // number of workers, equals the one-evaluation-at-a-time loop.
        let samples: Vec<Sample> = (0..6)
            .map(|k| Sample {
                features: features.iter().map(|f| f + 0.3 * k as f64).collect(),
                label: k % 4,
            })
            .collect();
        let batch: Vec<&Sample> = samples.iter().collect();
        let b = batch.len() as f64;
        let batch_loss = |w: &[f64]| -> f64 {
            batch
                .iter()
                .map(|s| cross_entropy(&pure_z_scores(&model, &s.features, w), s.label))
                .sum::<f64>()
                / b
        };
        let mut want = vec![0.0; weights.len()];
        for &i in &slots {
            let (mut wp, mut wm) = (weights.clone(), weights.clone());
            wp[i] += h;
            wm[i] -= h;
            want[i] = (batch_loss(&wp) - batch_loss(&wm)) / (2.0 * h);
        }
        for threads in [1, 4, 16] {
            let (loss, grad) = pure_fd_gradient(&model, &batch, &weights, h, &slots, threads);
            assert_bits_eq(&[loss], &[batch_loss(&weights)], "batch loss");
            assert_bits_eq(&grad, &want, &format!("gradient at threads={threads}"));
        }
    }

    #[test]
    fn pure_probes_handle_subset_and_unsorted_slots() {
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let weights = model.init_weights(3);
        let features = [0.1, 0.5, 0.9, 1.4];
        let h = 0.05;
        // Unsorted, non-contiguous request: results must come back in
        // request order.
        let slots = [7usize, 0, 11, 3];
        let probes = pure_fd_probes(&model, &features, &weights, h, &slots);
        for ((slot, zp, _), &want_slot) in probes.shifted.iter().zip(slots.iter()) {
            assert_eq!(*slot, want_slot);
            let mut w = weights.clone();
            w[*slot] += h;
            assert_bits_eq(zp, &pure_z_scores(&model, &features, &w), "plus");
        }
    }

    #[test]
    fn pure_probes_cross_identity_boundaries() {
        // A probe that pushes a weight onto (and off) an identity angle
        // changes nothing for the pure path — no simplification runs here —
        // but it is the key-splitting case of the noisy engine, so keep the
        // pure oracle honest on it too.
        let model = VqcModel::paper_model(4, 3, 4, 1);
        let mut weights = model.init_weights(2);
        weights[0] = 0.0;
        weights[1] = -0.05;
        let features = [0.2, 0.4, 0.6, 0.8];
        let probes = pure_fd_probes(&model, &features, &weights, 0.05, &[0, 1]);
        for (slot, zp, zm) in &probes.shifted {
            let mut w = weights.clone();
            w[*slot] += 0.05;
            assert_bits_eq(zp, &pure_z_scores(&model, &features, &w), "plus");
            let mut w = weights.clone();
            w[*slot] -= 0.05;
            assert_bits_eq(zm, &pure_z_scores(&model, &features, &w), "minus");
        }
    }
}
