//! # quasim — quantum circuit simulation substrate
//!
//! Exact state-vector and density-matrix simulators for the QuCAD
//! reproduction (DAC 2023, arXiv:2304.04666). The crate provides:
//!
//! - [`math`]: complex scalars and small dense matrices (no external numeric
//!   crates);
//! - [`gate`]: the gate alphabet and unitaries, including the controlled
//!   rotations used by the paper's VQC block;
//! - [`statevector`]: noise-free pure-state simulation (the paper's
//!   "perfect environment" `Wp(θ)`);
//! - [`density`]: dense density-matrix simulation with depolarising noise
//!   (the noisy environment `Wn(θ)`), built on zero-allocation blocked
//!   kernels and a reusable [`density::SimWorkspace`];
//! - [`fused`]: fused density-matrix programs — runs of operations sharing
//!   a one- or two-qubit support executed in a single pass over `ρ`,
//!   bit-identical to op-by-op application;
//! - [`noise`]: depolarising channels in Kraus form and classical readout
//!   confusion, mirroring Qiskit Aer's calibration-driven device model;
//! - [`trajectory`]: Monte-Carlo wavefunction (quantum-trajectory)
//!   simulation — the same fused programs unraveled into stochastic jumps
//!   on a pure state at O(2^n) per trajectory, unlocking registers beyond
//!   the dense-`ρ` cap (e.g. the 16-qubit `ibm_guadalupe`);
//! - [`verify`]: static IR verification — every structural invariant of a
//!   compiled [`fused::FusedProgram`], its panel supergroup plan, and Kraus
//!   completeness, checked without executing a kernel, plus the seeded
//!   program mutator that proves the checks reject corrupted IR.
//!
//! # Examples
//!
//! Perfect vs. noisy evaluation of a tiny circuit:
//!
//! ```
//! use quasim::gate::{BoundGate, GateKind};
//! use quasim::statevector::run_circuit;
//! use quasim::density::DensityMatrix;
//! use quasim::noise::KrausChannel;
//!
//! let gates = [
//!     BoundGate::one(GateKind::Ry, 0, 1.0),
//!     BoundGate::two(GateKind::Cx, 0, 1, 0.0),
//! ];
//! let ideal = run_circuit(2, &gates);
//!
//! let mut noisy = DensityMatrix::zero_state(2);
//! for g in &gates {
//!     noisy.apply_gate(g);
//!     noisy.apply_channel(&KrausChannel::depolarizing_2q(0.02), &[0, 1]);
//! }
//! assert!(noisy.fidelity_with_pure(&ideal) < 1.0);
//! ```

#![warn(missing_docs)]

pub mod config;
pub mod density;
pub mod fused;
pub mod gate;
pub mod math;
pub mod noise;
pub mod statevector;
pub mod trajectory;
pub mod verify;

pub use density::{DensityMatrix, SimWorkspace};
pub use fused::{FusedProgram, ProgramBuilder};
pub use gate::{BoundGate, GateKind};
pub use math::{CMatrix, Complex64};
pub use noise::{KrausChannel, ReadoutError};
pub use statevector::StateVector;
pub use trajectory::{TrajectoryEstimate, TrajectoryPanel, TrajectoryWorkspace};
pub use verify::{verify_channel, verify_program, verify_supergroup_plan, VerifyError};
