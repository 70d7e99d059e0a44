//! The batch-parallel evaluator's core contract: results are bit-identical
//! to the sequential path on a fixed seed, for every thread count, at both
//! the sample level and the day level.

use calibration::history::{FluctuatingHistory, HistoryConfig};
use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use qnn::data::Dataset;
use qnn::executor::parallel::{accuracy_over_days, batch_accuracy, batch_z_scores, eval_stream};
use qnn::executor::{NoiseOptions, NoisyExecutor, SimBackend};
use qnn::model::VqcModel;

fn setup() -> (
    VqcModel,
    Topology,
    NoisyExecutor,
    Dataset,
    CalibrationSnapshot,
) {
    let model = VqcModel::paper_model(4, 2, 4, 1);
    let topo = Topology::ibm_belem();
    // Finite shots ON: shot noise is the only stochastic part of an
    // evaluation, so this is exactly the path where parallelism could
    // diverge from the sequential stream if seeding were order-dependent.
    let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(512, 42));
    let data = Dataset::seismic(12, 12, 9);
    let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
    (model, topo, exec, data, snap)
}

fn assert_bits_eq(a: &[Vec<f64>], b: &[Vec<f64>], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: length mismatch");
    for (i, (x, y)) in a.iter().zip(b.iter()).enumerate() {
        assert_eq!(x.len(), y.len(), "{what}: row {i} length mismatch");
        for (j, (u, v)) in x.iter().zip(y.iter()).enumerate() {
            assert_eq!(
                u.to_bits(),
                v.to_bits(),
                "{what}: element [{i}][{j}] differs: {u} vs {v}"
            );
        }
    }
}

#[test]
fn batch_z_scores_identical_across_thread_counts() {
    let (model, _, exec, data, snap) = setup();
    let weights = model.init_weights(7);
    let sequential = batch_z_scores(&exec, &data.test, &weights, &snap, 3, 1);
    for threads in [2, 3, 4, 16] {
        let parallel = batch_z_scores(&exec, &data.test, &weights, &snap, 3, threads);
        assert_bits_eq(&sequential, &parallel, &format!("threads={threads}"));
    }
}

#[test]
fn batch_matches_manual_seeded_loop() {
    let (model, _, exec, data, snap) = setup();
    let weights = model.init_weights(1);
    let manual: Vec<Vec<f64>> = data
        .test
        .iter()
        .enumerate()
        .map(|(i, s)| exec.z_scores_seeded(&s.features, &weights, &snap, eval_stream(5, i as u64)))
        .collect();
    let batch = batch_z_scores(&exec, &data.test, &weights, &snap, 5, 4);
    assert_bits_eq(&manual, &batch, "manual vs batch");
}

#[test]
fn batch_accuracy_identical_and_in_range() {
    let (model, _, exec, data, snap) = setup();
    let weights = model.init_weights(3);
    let seq = batch_accuracy(&exec, &data.test, &weights, &snap, 0, 1);
    let par = batch_accuracy(&exec, &data.test, &weights, &snap, 0, 4);
    assert_eq!(seq.to_bits(), par.to_bits());
    assert!((0.0..=1.0).contains(&seq));
}

#[test]
fn day_fanout_matches_per_day_batches() {
    let (model, topo, exec, data, _) = setup();
    let weights = model.init_weights(5);
    let history = FluctuatingHistory::generate(&topo, &HistoryConfig::belem_like(8, 11), 4);
    let days: Vec<&CalibrationSnapshot> = history.online().iter().collect();

    let fanned = accuracy_over_days(&exec, &days, &data.test, &weights, 4);
    let fanned_seq = accuracy_over_days(&exec, &days, &data.test, &weights, 1);
    let per_day: Vec<f64> = (0..days.len())
        .map(|d| batch_accuracy(&exec, &data.test, &weights, days[d], d as u64, 2))
        .collect();

    for (i, ((a, b), c)) in fanned.iter().zip(&fanned_seq).zip(&per_day).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "day {i}: fan-out vs sequential");
        assert_eq!(
            a.to_bits(),
            c.to_bits(),
            "day {i}: day-level vs sample-level"
        );
    }
}

#[test]
fn seeded_scores_are_call_order_independent() {
    let (model, _, exec, data, snap) = setup();
    let weights = model.init_weights(2);
    let f = &data.test[0].features;
    let first = exec.z_scores_seeded(f, &weights, &snap, 99);
    // Interleave unrelated draws on other streams and on the shared stream.
    let _ = exec.z_scores_seeded(f, &weights, &snap, 7);
    let _ = exec.z_scores(f, &weights, &snap);
    let again = exec.z_scores_seeded(f, &weights, &snap, 99);
    assert_bits_eq(
        &[first],
        &[again],
        "same stream must reproduce identical scores",
    );
}

#[test]
fn trajectory_day_batch_matches_per_day_batches() {
    // One day-spanning batch over 3 days, at thread counts below, equal
    // to and above the day count: every split of the (day, sample) grid
    // must give the per-day series.
    let model = VqcModel::paper_model(4, 2, 4, 1);
    let topo = Topology::ibm_belem();
    let exec = NoisyExecutor::new(
        &model,
        &topo,
        NoiseOptions {
            backend: SimBackend::Trajectory,
            trajectories: 16,
            ..NoiseOptions::with_shots(512, 42)
        },
    );
    let data = Dataset::seismic(12, 12, 9);
    let weights = model.init_weights(5);
    let history = FluctuatingHistory::generate(&topo, &HistoryConfig::belem_like(5, 11), 2);
    let days: Vec<&CalibrationSnapshot> = history.online().iter().collect();
    assert_eq!(days.len(), 3);
    let per_day: Vec<f64> = (0..days.len())
        .map(|d| batch_accuracy(&exec, &data.test, &weights, days[d], d as u64, 1))
        .collect();
    for threads in [1, 2, 4, 16] {
        let series = accuracy_over_days(&exec, &days, &data.test, &weights, threads);
        assert_eq!(series.len(), per_day.len());
        for (d, (a, b)) in series.iter().zip(&per_day).enumerate() {
            assert_eq!(a.to_bits(), b.to_bits(), "day {d} threads {threads}");
        }
    }
}
