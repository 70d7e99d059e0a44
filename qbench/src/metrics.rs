//! The benchmark's metric catalogue.
//!
//! Every workload reports every metric of a set, so two runs of any
//! workload compare name for name. End-to-end metrics are measured with
//! tracing off; per-layer metrics come from the traced run. A per-layer
//! figure of a layer a workload never calls reads 0 (a count or a
//! fraction, never a time: the per-layer times below are measured on
//! every workload's own scenario). Which way each metric is better is
//! stated in `BENCHMARK.json`.

/// `(name, unit)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str)] = &[("setup_s", "s"), ("wall_s", "s"), ("rate_per_s", "1/s")];

/// `(name, unit)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str)] = &[
    // Times of single public calls, replayed on the workload's scenario.
    ("executor.z_scores_us", "us"),
    ("executor.compile_program_us", "us"),
    ("executor.probe_batch_us", "us"),
    ("transpile.compile_us", "us"),
    ("transpile.bind_us", "us"),
    ("quasim.run_us", "us"),
    // Bytes the simulator moves per evaluation, computed from program
    // sizes (one read and one write of the state per fused segment).
    ("quasim.bytes_per_run", "bytes"),
    ("panel.bytes_per_traj", "bytes"),
    ("panel.width", "count"),
    ("panel.trajectories", "count"),
    // Thread scaling and tracing.
    ("pool.parallel_eff", "frac"),
    ("trace.overhead_frac", "frac"),
    ("trace.self_sum_frac", "frac"),
    // Self time of each layer's spans in the traced job, as a share of
    // the traced wall time (the codec's against the serving segment's).
    ("framework.self_frac", "frac"),
    ("train.self_frac", "frac"),
    ("admm.self_frac", "frac"),
    ("cluster.self_frac", "frac"),
    ("repository.self_frac", "frac"),
    ("executor.self_frac", "frac"),
    ("codec.self_frac", "frac"),
    // Work counts.
    ("executor.evals", "count"),
    ("executor.cache_hits", "count"),
    ("transpile.compiles", "count"),
    ("executor.cache_hit_ratio", "frac"),
    ("train.spsa_evals", "count"),
    ("admm.compress_calls", "count"),
    ("admm.evals_per_compress", "count"),
    ("framework.reused_days", "count"),
    ("framework.compressed_days", "count"),
    ("framework.failure_days", "count"),
    ("framework.reuse_ratio", "frac"),
    ("serve.requests", "count"),
    ("serve.batches", "count"),
    ("serve.cross_client_batches", "count"),
    ("serve.batch_mean", "count"),
    ("serve.cross_client_ratio", "frac"),
    ("serve.cache_hit_ratio", "frac"),
    ("codec.bytes_per_eval", "bytes"),
    ("gen.late_frac", "frac"),
];
