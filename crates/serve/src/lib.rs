//! `qucad-serve`: the multi-tenant online-manager service.
//!
//! The paper's online manager is a per-day loop inside one process; this
//! crate is its production shape — a long-running TCP server owning the
//! warm state the batch path already built:
//!
//! - one [`qnn::executor::NoisyExecutor`] that every worker borrows, and
//!   with it one program cache of routed templates, warmed by **every**
//!   worker and therefore every client;
//! - the [`qucad::repository::ModelRepository`], matched concurrently
//!   from per-connection reader threads.
//!
//! Concurrently pending requests are grouped by `StructureKey` —
//! **across clients and calibration days** — and each group rides one
//! `evaluate_probes_over_days` call ([`server::evaluate_batch`]), which
//! runs every request under its own day, so cross-user batching is the
//! serving payoff of the structure-of-arrays panel design.
//!
//! The bit-identity contract: a served z-score vector equals a direct
//! in-process [`qnn::executor::NoisyExecutor::z_scores_seeded`] call for
//! the same `(day, stream, backend, panel width)`, bit for bit,
//! regardless of how requests interleave or batch (pinned by the
//! interleaving proptests in `tests/serve_props.rs` and the TCP
//! integration test).
//!
//! See `src/main.rs` for the binary, [`codec`] for the wire format,
//! [`batch`] for the queue/batcher, [`scenario`] for the deterministic
//! warm-state recipe shared with clients, and [`server`]/[`client`] for
//! the two endpoints.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod client;
pub mod codec;
pub mod scenario;
pub mod server;
