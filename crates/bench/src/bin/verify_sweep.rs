//! **Static-verification sweep**: runs the Level-1 IR verifier
//! ([`quasim::verify_program`]) over the compiled programs of every
//! scenario binary's configuration — release-mode, so the `debug_assert!`
//! wiring at the compile/bind boundaries is *not* relied on — and then
//! proves the verifier's teeth by replaying the seeded mutation catalogue
//! ([`quasim::verify::mutate`]) against those same real programs: every
//! corruption class must be rejected.
//!
//! The fleet mirrors the scenario binaries at `Scale::Quick`:
//!
//! - Table I / fig1 / fig2 / fig3 / fig4 / fig7 / fig9 / ablations:
//!   `ibm_belem` × {MNIST-4, Iris, Seismic} with trained base weights;
//! - fig8: `ibm_jakarta` × Seismic;
//! - fig10: the untrained 16-qubit `ibm_guadalupe` model
//!   (trajectory-only — wider than the density cap), compiled at the
//!   scenario's noise scale and noise-free: with a depolarising atom
//!   after every gate nothing precomposes, so only the noise-free compile
//!   carries composed factors for the verifier and the mutator.
//!
//! For each entry, programs are compiled across calibration days (first,
//! middle, and last offline day plus first and last online day) × test
//! samples × both backends where the register fits (plus the noise-free
//! trajectory compile where an entry asks for it), exactly through the
//! pipeline the binaries use (`NoisyExecutor::compile_program`, program
//! cache warm and cold). Exit status is non-zero on any acceptance or
//! rejection failure, so CI can gate on it.
//!
//! Run: `cargo run --release -p qucad_bench --bin verify_sweep`

use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use qnn::data::Dataset;
use qnn::executor::{NoiseOptions, NoisyExecutor, SimBackend};
use qnn::model::VqcModel;
use quasim::density::MAX_DENSITY_QUBITS;
use quasim::fused::FusedProgram;
use quasim::trajectory::supergroup_plan;
use quasim::verify::mutate;
use quasim::{verify_program, verify_supergroup_plan};
use qucad_bench::{Experiment, Scale, Task};
use std::process::ExitCode;

/// One fleet entry: a scenario family's model, device, weights, features,
/// and calibration days.
struct Entry {
    name: String,
    topology: Topology,
    model: VqcModel,
    weights: Vec<f64>,
    features: Vec<Vec<f64>>,
    days: Vec<CalibrationSnapshot>,
    /// Also compile every (day, sample) noise-free on the trajectory
    /// backend. At the scenarios' noise scale a depolarising atom follows
    /// every gate, so only a noise-free compile precomposes unitaries
    /// (gives composed factors to verify and to mutate).
    noise_free_trajectory: bool,
}

/// First/middle/last picks of a day slice (deduplicated when short).
fn day_picks(days: &[CalibrationSnapshot]) -> Vec<CalibrationSnapshot> {
    let mut picks = Vec::new();
    let mut idx: Vec<usize> = vec![0, days.len() / 2, days.len().saturating_sub(1)];
    idx.dedup();
    for i in idx {
        if i < days.len() {
            picks.push(days[i].clone());
        }
    }
    picks
}

/// The scenario fleet at `Scale::Quick`, seed 42 (the seed every scenario
/// binary uses).
fn fleet() -> Vec<Entry> {
    let seed = 42u64;
    let mut entries = Vec::new();

    // Table I tasks on ibm_belem (table1_main, fig1, fig2, fig3, fig4,
    // fig7, fig9, ablation_sweeps) and the fig8 jakarta variant.
    let prepared = [
        (Task::Mnist4, Topology::ibm_belem()),
        (Task::Iris, Topology::ibm_belem()),
        (Task::Seismic, Topology::ibm_belem()),
        (Task::Seismic, Topology::ibm_jakarta()),
    ];
    for (task, topo) in prepared {
        let exp = Experiment::prepare_on(task, Scale::Quick, seed, topo);
        let mut days = day_picks(exp.history.offline());
        days.extend(day_picks(exp.history.online()));
        let features = exp
            .dataset
            .test
            .iter()
            .take(3)
            .map(|s| s.features.clone())
            .collect();
        entries.push(Entry {
            name: format!("{} on {}", exp.task.name(), exp.topology.name()),
            topology: exp.topology,
            model: exp.model,
            weights: exp.base_weights,
            features,
            days,
            noise_free_trajectory: false,
        });
    }

    // fig10_guadalupe: 16-qubit untrained model, trajectory-only.
    let topo = Topology::ibm_guadalupe();
    let model = VqcModel::paper_model(topo.n_qubits(), 4, 16, 1);
    let weights = model.init_weights(seed);
    let dataset = Dataset::mnist4(8, 4, seed);
    let history = calibration::history::FluctuatingHistory::generate(
        &topo,
        &calibration::history::HistoryConfig::guadalupe_like(3, seed),
        0,
    );
    entries.push(Entry {
        name: format!("16q VQC on {}", topo.name()),
        topology: topo,
        model,
        weights,
        features: dataset
            .test
            .iter()
            .take(2)
            .map(|s| s.features.clone())
            .collect(),
        days: day_picks(history.online()),
        noise_free_trajectory: true,
    });
    entries
}

/// Verifies every program one entry compiles; returns the programs (for
/// the mutation pass) or the number of failures.
fn sweep_entry(entry: &Entry, failures: &mut usize) -> Vec<FusedProgram> {
    // (backend, noise scale) compiles: the scenarios' scale on every
    // backend the register fits, plus the entry's noise-free one.
    let mut configs = vec![(SimBackend::Trajectory, 3.0)];
    if entry.model.n_qubits() <= MAX_DENSITY_QUBITS {
        configs.push((SimBackend::Density, 3.0));
    }
    if entry.noise_free_trajectory {
        configs.push((SimBackend::Trajectory, 0.0));
    }
    let mut programs = Vec::new();
    let mut checked = 0usize;
    for (backend, scale) in configs {
        let options = NoiseOptions {
            scale,
            backend,
            ..NoiseOptions::with_shots(1024, 42)
        };
        let exec = NoisyExecutor::new(&entry.model, &entry.topology, options);
        let label = format!("{} at noise scale {scale}", backend.name());
        for day in &entry.days {
            for features in &entry.features {
                let (measured, program) = exec.compile_program(features, &entry.weights, day);
                if let Err(e) = verify_program(&program) {
                    eprintln!("FAIL [{}] {label} rejected: {e}", entry.name);
                    *failures += 1;
                }
                let plan = supergroup_plan(&program);
                if let Err(e) = verify_supergroup_plan(&program, &plan) {
                    eprintln!("FAIL [{}] {label} plan rejected: {e}", entry.name);
                    *failures += 1;
                }
                if let Some(&q) = measured.iter().find(|&&q| q >= program.n_qubits()) {
                    eprintln!(
                        "FAIL [{}] {label} measured qubit {q} outside the {}-qubit register",
                        entry.name,
                        program.n_qubits()
                    );
                    *failures += 1;
                }
                checked += 1;
                programs.push(program);
            }
        }
    }
    println!("  {:<28} {checked} programs verified", entry.name);
    programs
}

/// Replays the mutation catalogue against real compiled programs: every
/// produced mutant must be rejected, and every corruption class must find
/// a site somewhere in the fleet.
fn mutation_pass(programs: &[FusedProgram], failures: &mut usize) {
    let mut mutants = 0usize;
    for &class in &mutate::ALL {
        let mut sites = 0usize;
        for (pi, program) in programs.iter().enumerate() {
            for seed in 0..3u64 {
                let Some(mutant) = mutate::corrupt(program, class, seed) else {
                    continue;
                };
                sites += 1;
                mutants += 1;
                if verify_program(&mutant).is_ok() {
                    eprintln!(
                        "FAIL mutation {class:?} (program {pi}, seed {seed}) \
                         survived verification"
                    );
                    *failures += 1;
                }
            }
        }
        if sites == 0 {
            eprintln!("FAIL mutation {class:?} found no site in any fleet program");
            *failures += 1;
        }
    }
    println!(
        "  mutation self-test: {mutants} mutants across {} classes, all rejected",
        mutate::ALL.len()
    );
}

fn main() -> ExitCode {
    println!("=== verify_sweep: static IR verification over the scenario fleet ===");
    let mut failures = 0usize;
    let mut all_programs = Vec::new();
    for entry in fleet() {
        all_programs.extend(sweep_entry(&entry, &mut failures));
    }

    // The mutation pass replays the catalogue on a spread of real
    // programs (every fifth, plus the last, to keep the release run
    // seconds-scale while covering each fleet entry's structure).
    let sample: Vec<FusedProgram> = all_programs
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 == 0 || *i + 1 == all_programs.len())
        .map(|(_, p)| p.clone())
        .collect();
    mutation_pass(&sample, &mut failures);

    if failures == 0 {
        println!(
            "verify_sweep: OK ({} programs accepted, every mutation class rejected)",
            all_programs.len()
        );
        ExitCode::SUCCESS
    } else {
        eprintln!("verify_sweep: {failures} failure(s)");
        ExitCode::FAILURE
    }
}
