//! Cross-crate consistency: the noisy executor at zero noise must agree
//! with the pure path on the paper's actual models, and physical-length
//! accounting must be coherent with what the executor simulates.

use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use qnn::executor::{pure_z_scores, NoiseOptions, NoisyExecutor};
use qnn::loss::predict;
use qnn::model::VqcModel;
use std::f64::consts::PI;

#[test]
fn zero_noise_executor_matches_pure_for_all_paper_models() {
    let topo = Topology::ibm_belem();
    let zero = CalibrationSnapshot::uniform(&topo, 0, 0.0, 0.0, 0.0);
    for (model, nf) in [
        (VqcModel::paper_model(4, 4, 16, 2), 16usize),
        (VqcModel::paper_model(4, 3, 4, 3), 4),
        (VqcModel::paper_model(4, 2, 4, 2), 4),
    ] {
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
        let weights = model.init_weights(7);
        let features: Vec<f64> = (0..nf).map(|i| 0.1 + 0.15 * i as f64).collect();
        let zn = exec.z_scores_seeded(&features, &weights, &zero, 0);
        let zp = pure_z_scores(&model, &features, &weights);
        for (a, b) in zn.iter().zip(zp.iter()) {
            assert!((a - b).abs() < 1e-8, "zero-noise mismatch: {a} vs {b}");
        }
        assert_eq!(predict(&zn), predict(&zp));
    }
}

#[test]
fn jakarta_models_run_end_to_end() {
    let topo = Topology::ibm_jakarta();
    let model = VqcModel::paper_model(4, 2, 4, 2);
    let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
    let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 1e-2, 0.02);
    let z = exec.z_scores_seeded(&[0.3, 0.9, 1.4, 2.2], &model.init_weights(1), &snap, 0);
    assert_eq!(z.len(), 2);
    assert!(z.iter().all(|v| v.is_finite() && v.abs() <= 1.0 + 1e-9));
}

#[test]
fn circuit_length_monotone_in_compressed_weight_count() {
    let topo = Topology::ibm_belem();
    let model = VqcModel::paper_model(4, 4, 16, 2);
    let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
    let features = vec![0.4; 16];
    let generic = vec![1.234; model.n_weights()];
    let mut lengths = Vec::new();
    for frac in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let mut w = generic.clone();
        let k = (model.n_weights() as f64 * frac) as usize;
        for wi in w.iter_mut().take(k) {
            *wi = 0.0;
        }
        lengths.push(exec.circuit_length(&features, &w));
    }
    for pair in lengths.windows(2) {
        assert!(
            pair[1] <= pair[0],
            "length must shrink as more weights hit 0: {lengths:?}"
        );
    }
}

#[test]
fn shot_noise_perturbs_but_preserves_scale() {
    let topo = Topology::ibm_belem();
    let model = VqcModel::paper_model(4, 2, 4, 1);
    let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-4, 8e-3, 0.01);
    let weights = model.init_weights(4);
    let features = [0.5, 1.0, 1.5, 2.0];

    let exact = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
    let z_exact = exact.z_scores_seeded(&features, &weights, &snap, 0);

    let shot = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(1024, 5));
    // Average many shot evaluations on distinct streams → converges to
    // the exact value.
    let n = 200;
    let mut mean = vec![0.0; z_exact.len()];
    for stream in 0..n {
        for (m, v) in mean
            .iter_mut()
            .zip(shot.z_scores_seeded(&features, &weights, &snap, stream))
        {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n as f64;
    }
    for (a, b) in mean.iter().zip(z_exact.iter()) {
        assert!(
            (a - b).abs() < 0.02,
            "shot-averaged score should match exact: {a} vs {b}"
        );
    }
}

#[test]
fn compression_levels_are_the_cheap_angles() {
    // The four standard levels must be exactly the angles where a CRY costs
    // least — the physical basis of the whole framework.
    let topo = Topology::ibm_belem();
    let model = VqcModel::paper_model(2, 2, 2, 1);
    let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
    let features = [0.0, 0.0];
    let probe = |angle: f64| {
        let mut w = vec![0.0; model.n_weights()];
        // Weight layout for 2 qubits: idx 0..2 = RY layer, idx 2..4 = CRY
        // ring — probe the first CRY.
        w[2] = angle;
        exec.circuit_length(&features, &w)
    };
    let level_len = probe(PI);
    let generic_len = probe(PI - 0.4);
    assert!(level_len < generic_len);
    assert!(probe(0.0) < level_len);
}
