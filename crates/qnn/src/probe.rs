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
//! so the saved prefix state is the state a from-scratch run would reach
//! (up to the sign of zeros, which the Z scores square away; see
//! `quasim::statevector`); unaffected suffix gates reuse the base-bound
//! gates (their angles are untouched by the shift); affected gates are
//! re-bound through the same [`transpile::circuit::Op::bind`] the full
//! bind would use. The `pure_probes_match_full_reruns` tests pin this,
//! and the golden z-score fixture pins the trained result end to end.
//!
//! Cost per sample drops from `(1 + 2·P)` full runs to one bind, one full
//! run and `2·P` suffix replays (half the circuit on average).
//!
//! # Lane groups
//!
//! A sweep runs up to four samples of the minibatch at once, as the SIMD
//! lanes of a [`StatePanel`] (`quasim::statevector`'s lane kernels). The
//! samples differ only in their features, so only the encoder gates
//! carry per-lane entries; every weight gate, the re-bound ±h gate
//! included, is bound once and shared by the whole group. One sweep of a
//! `B`-lane group costs one bind of the weight gates, `B` binds of the
//! encoder gates, one prefix walk and `2·P` suffix replays over `B`
//! lanes, plus `B` losses per probe. With AVX2 a 4-lane gate is one
//! vector operation per amplitude term, so a 4-lane replay costs about
//! what a one-sample replay does and a group of four about what one
//! sample used to. The gate kernels are classified once per
//! bind ([`quasim::statevector::GateClass`]): diagonal rotations and the
//! controlled rotations of the VQC block skip their exactly-zero terms.
//! A replay copies the prefix panel into a reused one and applies the
//! bound suffix slice in one kernel dispatch: no trig and no heap
//! allocation, except for the gates the shift affects, which are
//! re-bound. The buffers (two panels and the bound gates) are reused
//! across every group a worker sweeps.
//!
//! Lanes change no bits: each lane's Z scores are bitwise those of a
//! width-1 run (see the `quasim::statevector` module docs).
//!
//! [`pure_fd_gradient`] turns the sweeps of a minibatch into its loss and
//! gradient, packing the samples into 4-, 2- and 1-lane groups and
//! spreading the groups over the worker threads.

use crate::data::Sample;
use crate::executor::parallel::map_chunks;
use crate::loss::cross_entropy;
use crate::model::VqcModel;
use quasim::statevector::{LaneGate, StatePanel};
use std::ops::Range;

/// Which evaluation of a sweep a set of Z scores belongs to; `Plus(k)` /
/// `Minus(k)` index the requested slots.
#[derive(Debug, Clone, Copy)]
enum Probe {
    Plus(usize),
    Minus(usize),
    Base,
}

/// The sample-independent part of a sweep, built once per gradient and
/// shared by every lane group (and worker thread).
struct SweepPlan<'m> {
    model: &'m VqcModel,
    /// Per requested slot: its parameter index and the ops it feeds.
    probes: Vec<(usize, Vec<usize>)>,
    /// Request indices sorted by divergence point.
    order: Vec<usize>,
    measured: Vec<usize>,
    /// Per op: whether its angle is a feature, so each lane binds it
    /// from its own sample (every other op binds once for the group).
    per_lane: Vec<bool>,
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
        let per_lane = circuit
            .ops()
            .iter()
            .map(|op| {
                op.param
                    .and_then(|p| p.idx())
                    .is_some_and(|i| i < model.n_features())
            })
            .collect();
        let mut plan = SweepPlan {
            model,
            probes,
            order: Vec::new(),
            measured: model.measured_logical(),
            per_lane,
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

/// One worker's sweep buffers for `B`-lane groups, reused across the
/// groups it sweeps.
struct Sweeper<const B: usize> {
    prefix: StatePanel<B>,
    work: StatePanel<B>,
    gates: Vec<LaneGate<B>>,
    /// The base gates a replay's re-bound ones displaced.
    displaced: Vec<(usize, LaneGate<B>)>,
    /// Per lane, the Z scores of the measured qubits.
    z: [Vec<f64>; B],
}

impl<const B: usize> Sweeper<B> {
    fn new(plan: &SweepPlan<'_>) -> Self {
        let panel = StatePanel::zero_state(plan.model.n_qubits());
        Sweeper {
            work: panel.clone(),
            prefix: panel,
            gates: Vec::with_capacity(plan.model.circuit().len()),
            displaced: Vec::new(),
            z: std::array::from_fn(|_| Vec::with_capacity(plan.measured.len())),
        }
    }

    /// Sweeps one group of `B` samples (`features[k]` in lane `k`): calls
    /// `visit(k, probe, z)` with lane `k`'s Z scores of every ±h probe
    /// and, last, of the base evaluation (see the [module docs](self)).
    fn sweep(
        &mut self,
        plan: &SweepPlan<'_>,
        features: [&[f64]; B],
        weights: &[f64],
        h: f64,
        mut visit: impl FnMut(usize, Probe, &[f64]),
    ) {
        let full = features.map(|f| plan.model.full_params(f, weights));
        let ops = plan.model.circuit().ops();
        // Bind every gate once per group; replays only read the entries.
        self.gates.clear();
        self.gates
            .extend(ops.iter().zip(&plan.per_lane).map(|(op, &per_lane)| {
                if per_lane {
                    LaneGate::new(&op.qubits, &full.each_ref().map(|p| op.bind(p).entries()))
                } else {
                    LaneGate::shared(&op.qubits, &op.bind(&full[0]).entries())
                }
            }));
        self.prefix.reset();
        let mut cursor = 0usize;
        // The shifted parameter is a weight, equal in every lane, so
        // lane 0's vector binds the group's shifted gates.
        let mut full_shift = full[0].clone();

        for &k in &plan.order {
            let (param, affected) = &plan.probes[k];
            let div = plan.divergence(k);
            // Advance the shared prefix to this probe's divergence point;
            // every earlier probe diverged at or before it, so each gate is
            // applied exactly once across the whole sweep.
            self.prefix.run(&self.gates[cursor..div]);
            cursor = div;
            for (sign, probe) in [(1.0, Probe::Plus(k)), (-1.0, Probe::Minus(k))] {
                full_shift[*param] = full[0][*param] + sign * h;
                for &idx in affected {
                    let op = &ops[idx];
                    let shifted = LaneGate::shared(&op.qubits, &op.bind(&full_shift).entries());
                    let base = std::mem::replace(&mut self.gates[idx], shifted);
                    self.displaced.push((idx, base));
                }
                self.work.copy_from(&self.prefix);
                self.work.run(&self.gates[div..]);
                for (idx, base) in self.displaced.drain(..) {
                    self.gates[idx] = base;
                }
                lane_scores(&self.work, &plan.measured, &mut self.z);
                for (lane, z) in self.z.iter().enumerate() {
                    visit(lane, probe, z);
                }
            }
            full_shift[*param] = full[0][*param];
        }
        // Finish the base run: the prefix carried through every gate is the
        // unshifted evaluation itself.
        self.prefix.run(&self.gates[cursor..]);
        lane_scores(&self.prefix, &plan.measured, &mut self.z);
        for (lane, z) in self.z.iter().enumerate() {
            visit(lane, Probe::Base, z);
        }
    }
}

/// Lane `k`'s Z scores of the `measured` qubits into `out[k]`.
fn lane_scores<const B: usize>(panel: &StatePanel<B>, measured: &[usize], out: &mut [Vec<f64>; B]) {
    for lane in out.iter_mut() {
        lane.clear();
    }
    for &q in measured {
        for (lane, z) in out.iter_mut().zip(panel.expect_z(q)) {
            lane.push(z);
        }
    }
}

/// The widest lane group a sweep runs.
const MAX_LANES: usize = 4;

/// Splits `0..n` into lane groups: groups of [`MAX_LANES`], then the
/// remainder as a 2- and/or a 1-lane group.
fn lane_groups(n: usize) -> Vec<Range<usize>> {
    let mut groups = Vec::with_capacity(n / MAX_LANES + 2);
    let mut start = 0;
    for width in [MAX_LANES, 2, 1] {
        while n - start >= width {
            groups.push(start..start + width);
            start += width;
        }
    }
    groups
}

/// Per sample: (base loss, +h losses, −h losses), one per requested slot.
type SampleLosses = (f64, Vec<f64>, Vec<f64>);

/// One worker's sweepers, one per lane width, built on first use.
#[derive(Default)]
struct Sweepers {
    four: Option<Sweeper<4>>,
    two: Option<Sweeper<2>>,
    one: Option<Sweeper<1>>,
}

impl Sweepers {
    /// The losses of every sample in `group`, in order.
    fn losses(
        &mut self,
        plan: &SweepPlan<'_>,
        group: &[&Sample],
        weights: &[f64],
        h: f64,
    ) -> Vec<SampleLosses> {
        match group.len() {
            4 => group_losses(&mut self.four, plan, group, weights, h),
            2 => group_losses(&mut self.two, plan, group, weights, h),
            1 => group_losses(&mut self.one, plan, group, weights, h),
            width => unreachable!("no {width}-lane groups"),
        }
    }
}

/// Sweeps one `B`-sample group and returns its per-sample losses.
fn group_losses<const B: usize>(
    sweeper: &mut Option<Sweeper<B>>,
    plan: &SweepPlan<'_>,
    group: &[&Sample],
    weights: &[f64],
    h: f64,
) -> Vec<SampleLosses> {
    let group: &[&Sample; B] = group.try_into().expect("one sample per lane");
    let n = plan.probes.len();
    let mut out: [SampleLosses; B] = std::array::from_fn(|_| (0.0, vec![0.0; n], vec![0.0; n]));
    let sweeper = sweeper.get_or_insert_with(|| Sweeper::new(plan));
    let features = group.map(|s| &s.features[..]);
    sweeper.sweep(plan, features, weights, h, |k, probe, z| {
        let loss = cross_entropy(z, group[k].label);
        let (base, plus, minus) = &mut out[k];
        match probe {
            Probe::Plus(t) => plus[t] = loss,
            Probe::Minus(t) => minus[t] = loss,
            Probe::Base => *base = loss,
        }
    });
    out.into()
}

/// Mean cross-entropy of `batch` and its central finite-difference
/// gradient on the weights in `slots` (other coordinates stay 0), in the
/// noise-free environment — the pure gradient of both
/// [`crate::train::train_masked`] and the ADMM θ-update.
///
/// One prefix-sharing sweep per lane group of up to four samples
/// replaces `1 + 2·|slots|` full state-vector runs per sample. Groups
/// are independent, so their sweeps fan out over `threads` workers
/// ([`map_chunks`] over the groups, so chunks split on lane-group
/// boundaries; one set of sweep buffers per worker); the per-sample
/// losses are then summed in batch order, so the result is bit-identical
/// for every `threads` and to the one-evaluation-at-a-time loop:
/// gradient `i` is `(Σ⁺/b − Σ⁻/b) / 2h`.
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
    let groups = lane_groups(batch.len());
    let losses: Vec<Vec<SampleLosses>> = map_chunks(groups.len(), threads, |range| {
        let mut sweepers = Sweepers::default();
        range
            .map(|g| sweepers.losses(&plan, &batch[groups[g].clone()], weights, h))
            .collect()
    });
    let mut base_sum = 0.0;
    let mut fp_sum = vec![0.0; slots.len()];
    let mut fm_sum = vec![0.0; slots.len()];
    for (base, plus, minus) in losses.iter().flatten() {
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
        Sweeper::<1>::new(&plan).sweep(&plan, [features], weights, h, |_, probe, z| match probe {
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

        // The minibatch gradient, with the samples packed into 4-, 2- and
        // 1-lane groups and the groups spread over any number of workers,
        // equals the one-evaluation-at-a-time loop: batch sizes 1-9 cover
        // every remainder of the packing, the thread counts every split.
        let samples: Vec<Sample> = (0..9)
            .map(|k| Sample {
                features: features.iter().map(|f| f + 0.3 * k as f64).collect(),
                label: k % 4,
            })
            .collect();
        for n in 1..=samples.len() {
            let widths: Vec<usize> = lane_groups(n).iter().map(Range::len).collect();
            assert_eq!(widths.iter().sum::<usize>(), n, "groups cover the batch");
            assert!(
                widths.windows(2).all(|w| w[0] > w[1] || w[0] == 4),
                "{widths:?}"
            );
            let batch: Vec<&Sample> = samples[..n].iter().collect();
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
            for threads in [1, 2, 3, 4, 16] {
                let what = format!("batch of {n} at threads={threads}");
                let (loss, grad) = pure_fd_gradient(&model, &batch, &weights, h, &slots, threads);
                assert_bits_eq(&[loss], &[batch_loss(&weights)], &format!("loss, {what}"));
                assert_bits_eq(&grad, &want, &format!("gradient, {what}"));
            }
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
