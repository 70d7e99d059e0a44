//! Regenerates **Fig. 3**: the optimisation surface of a 2-parameter VQC in
//! a perfect environment (a), in a noisy environment (b), and their
//! difference (c) — revealing the "breakpoints": grid lines at the
//! compression levels `0, π/2, π, 3π/2` where the transpiled circuit gets
//! shorter and the noise-induced deviation drops sharply.
//!
//! Run: `cargo run --release -p qucad-bench --bin fig3_loss_landscape`

use calibration::snapshot::CalibrationSnapshot;
use calibration::stats::mean;
use calibration::topology::Topology;
use qnn::executor::{pure_z_scores, NoiseOptions, NoisyExecutor};
use qnn::model::VqcModel;
use qucad_bench::{banner, Scale};
use std::f64::consts::FRAC_PI_2;

fn main() {
    let scale = Scale::from_env_or_args();
    banner(
        "Fig. 3: 2-parameter loss landscape, perfect vs noisy",
        scale,
    );

    // A tiny 2-weight model: RY(θ1) + CRY(θ2) ring slice on 2 classes.
    let model = VqcModel::paper_model(2, 2, 2, 1);
    // Only sweep 2 of the weights; pin the rest at a generic angle.
    let n = model.n_weights();
    let topo = Topology::ibm_belem();
    let exec = NoisyExecutor::new(
        &model,
        &topo,
        NoiseOptions {
            scale: 3.0,
            ..NoiseOptions::default()
        },
    );
    let snap = CalibrationSnapshot::uniform(&topo, 0, 1.5e-3, 4e-2, 0.03);
    let features = [0.6, 1.1];

    // Sweep weight 0 (an RY) and weight 2 (a CRY) over [0, 2π).
    let grid = match scale {
        Scale::Quick => 13,
        _ => 25,
    };
    let step = std::f64::consts::TAU / (grid - 1) as f64;

    let deviation = |w0: f64, w2: f64| -> f64 {
        let mut weights = vec![0.9; n];
        weights[0] = w0;
        weights[2] = w2;
        let zp = pure_z_scores(&model, &features, &weights);
        let zn = exec.z_scores_seeded(&features, &weights, &snap, 0);
        // Relative deviation: the fraction of the ideal signal the noise
        // destroys (absolute deviation would scale with the signal itself).
        let num: f64 = zp.iter().zip(zn.iter()).map(|(a, b)| (a - b).abs()).sum();
        let den: f64 = zp.iter().map(|a| a.abs()).sum();
        num / (den + 1e-9)
    };

    println!("|N(θ)| / |Wp(θ)| — relative noise deviation (rows = θ1 [RY], cols = θ2 [CRY]):");
    // Classify the CRY axis: level 0 (the controlled rotation disappears,
    // deleting two CNOTs), quarter levels (cheaper pulses), generic.
    let mut cry_zero = Vec::new();
    let mut cry_quarter = Vec::new();
    let mut cry_generic = Vec::new();
    let tau = std::f64::consts::TAU;
    for i in 0..grid {
        let w0 = i as f64 * step;
        let mut row = String::new();
        for j in 0..grid {
            let w2 = j as f64 * step;
            let d = deviation(w0, w2);
            let at_zero = w2 < 1e-9 || (tau - w2).abs() < 1e-6;
            let at_quarter = {
                let r = (w2 / FRAC_PI_2).round() * FRAC_PI_2;
                (w2 - r).abs() < 1e-9 && !at_zero
            };
            if at_zero {
                cry_zero.push(d);
            } else if at_quarter {
                cry_quarter.push(d);
            } else {
                cry_generic.push(d);
            }
            row.push_str(&format!("{d:.3} "));
        }
        println!("{row}");
    }
    println!();
    println!(
        "mean |N| with the CRY at level 0 (CNOTs removed): {:.4}",
        mean(&cry_zero)
    );
    println!(
        "mean |N| with the CRY at π/2, π, 3π/2:            {:.4}",
        mean(&cry_quarter)
    );
    println!(
        "mean |N| with the CRY at generic angles:          {:.4}",
        mean(&cry_generic)
    );
    // The paper's root-cause analysis: breakpoints exist because the
    // physical circuit gets shorter at the levels. Verify the mechanism on
    // the swept CRY directly.
    let length_at = |w2: f64| {
        let mut weights = vec![0.9; n];
        weights[2] = w2;
        exec.circuit_length(&features, &weights)
    };
    let len_zero = length_at(0.0);
    let len_pi = length_at(std::f64::consts::PI);
    let len_generic = length_at(1.1);
    println!();
    println!(
        "physical circuit length along the CRY axis: level 0 -> {len_zero}, \
         π -> {len_pi}, generic -> {len_generic}"
    );
    assert!(
        len_zero < len_pi && len_pi < len_generic,
        "compression levels must shorten the physical circuit"
    );
    println!(
        "expected shape: the level grid lines of Fig. 3(c) — physical length \
         (and with it the accumulated error) drops at 0, π/2, π, 3π/2, \
         deepest at 0 where the CNOT pair disappears."
    );
}
