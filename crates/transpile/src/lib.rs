//! # transpile — circuit IR, routing, and native-gate expansion
//!
//! Bridges logical QNN circuits and a physical device:
//!
//! - [`circuit`]: parameterised logical circuits ([`circuit::Circuit`])
//!   whose rotation angles are trainable parameters or fixed constants;
//! - [`route`](mod@route): deterministic greedy SWAP routing onto a restricted
//!   [`calibration::topology::Topology`], pinning each gate to physical
//!   qubits — the association `A(g_i)` the paper's noise-aware mask needs;
//! - [`expand`](mod@expand): native-gate expansion with pulse-cost accounting, which is
//!   where compression levels (`0, π/2, π, 3π/2`) translate into shorter,
//!   less noisy physical circuits;
//! - [`fuse`]: the gate-fusion pass compiling native circuits (plus their
//!   calibration-noise interleave) into prebound
//!   [`quasim::fused::FusedProgram`]s, which the density-matrix kernels
//!   execute in single passes — bit-identical to unfused execution; the
//!   trajectory backends additionally precompose unitary runs at bind
//!   time ([`fuse::fuse_native_trajectory`]);
//! - [`template`]: compile-once/rebind-many circuit templates — the
//!   structure-determined half of the pipeline (simplify + route) cached
//!   per [`template::StructureKey`] and re-bound at fresh angles with a
//!   single linear expansion pass, bit-identical to a from-scratch
//!   compile;
//! - [`verify`]: static verification of circuits, routed physical
//!   circuits, and templates — including the bound-instance ≡ template
//!   structural-equality check the rebind path relies on.
//!
//! # Examples
//!
//! ```
//! use transpile::circuit::{Circuit, Param};
//! use transpile::route::route_identity;
//! use transpile::expand::expand;
//! use calibration::topology::Topology;
//!
//! let mut c = Circuit::new(4);
//! c.ry(0, Param::Idx(0)).cry(0, 1, Param::Idx(1));
//! let phys = route_identity(&c, &Topology::ibm_belem());
//! let cheap = expand(&phys, &[0.0, 0.0]);   // fully compressed
//! let costly = expand(&phys, &[0.4, 1.3]);  // generic angles
//! assert!(cheap.length() < costly.length());
//! ```

// No unsafe code belongs in this crate; the only sanctioned unsafe in the
// workspace is quasim's (future) SIMD kernel layer.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod circuit;
pub mod expand;
pub mod fuse;
pub mod route;
pub mod template;
pub mod verify;

pub use circuit::{Circuit, Op, Param};
pub use expand::{expand, NativeCircuit, NativeOp};
pub use fuse::{
    fuse_gates, fuse_native, fuse_native_compacted, fuse_native_trajectory, fuse_ops,
    DensityTemplate, QubitCompaction, SimOp,
};
pub use route::{route, route_identity, with_fixed_params, PhysicalCircuit};
pub use template::{structure_key, CircuitTemplate, StructureKey};
pub use verify::{verify_bound, verify_circuit, verify_physical, verify_template};
