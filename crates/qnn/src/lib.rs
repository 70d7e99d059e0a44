//! # qnn — quantum neural network substrate
//!
//! Everything needed to define, train, and evaluate the paper's QNN models:
//!
//! - [`encoding`]: angle encoding with feature re-uploading;
//! - [`model`]: the paper's VQC ansatz
//!   (`4RY + 4CRY + 4RY + 4RX + 4CRX + 4RX + 4RZ + 4CRZ + 4RZ + 4CRZ` per
//!   repeat) on 4 qubits with ring entanglement;
//! - [`data`]: Iris (embedded), synthetic 4-class MNIST and synthetic
//!   earthquake detection (substitutions documented in DESIGN.md §4);
//! - [`executor`]: noise-free (`Wp`) and calibration-driven noisy (`Wn`)
//!   evaluation back-ends;
//! - [`grad`], [`optim`], [`train`]: finite-difference / parameter-shift
//!   gradients, Adam, and the noise-injection training loop of
//!   QuantumNAT \[12].
//!
//! # Examples
//!
//! Train the paper's Iris model noise-free and evaluate it under a noisy
//! day:
//!
//! ```no_run
//! use qnn::data::Dataset;
//! use qnn::executor::{NoiseOptions, NoisyExecutor};
//! use qnn::model::VqcModel;
//! use qnn::train::{evaluate, train, Env, TrainConfig};
//! use calibration::snapshot::CalibrationSnapshot;
//! use calibration::topology::Topology;
//!
//! let data = Dataset::iris(7);
//! let model = VqcModel::paper_model(4, 3, 4, 3);
//! let result = train(
//!     &model, &data.train, Env::Pure, &TrainConfig::default(),
//!     &model.init_weights(0),
//! );
//! let topo = Topology::ibm_belem();
//! let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
//! let snap = CalibrationSnapshot::uniform(&topo, 0, 3e-4, 1e-2, 0.03);
//! let env = Env::Noisy { exec: &exec, snapshot: &snap };
//! println!("noisy accuracy: {}", evaluate(&model, env, &data.test, &result.weights));
//! ```

// No unsafe code belongs in this crate; the only sanctioned unsafe in the
// workspace is quasim's (future) SIMD kernel layer.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod data;
pub mod encoding;
pub mod executor;
pub mod grad;
pub mod loss;
pub mod model;
pub mod optim;
pub mod probe;
pub mod train;

pub use data::{Dataset, Sample};
pub use executor::{pure_z_scores, NoiseOptions, NoisyExecutor, ProbeBatch, ProbeRequest};
pub use model::VqcModel;
pub use probe::pure_fd_gradient;
pub use train::{
    evaluate, train, train_masked, train_masked_sequential, train_masked_with_threads,
    train_spsa_masked, train_spsa_masked_sequential, train_spsa_masked_with_threads, Env,
    SpsaConfig, TrainConfig, TrainResult,
};
