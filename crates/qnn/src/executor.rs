//! Circuit execution back-ends.
//!
//! Two evaluation paths mirror the paper's `Wp(θ)` / `Wn(θ)`:
//!
//! - [`pure_z_scores`]: noise-free state-vector run of the *logical*
//!   circuit (perfect environment);
//! - [`NoisyExecutor`]: routes the model once onto a device topology, then
//!   per call expands the circuit at the bound parameters and simulates it
//!   with calibration-driven depolarising channels after every native op,
//!   plus readout confusion on the measured qubits.
//!
//! The noisy path is where compression pays off: parameters at compression
//! levels expand to fewer native ops, so fewer channels are applied.
//!
//! # Compile-once / rebind-many
//!
//! Each evaluation needs the circuit *re-transpiled at its bound
//! parameters* (so compressed angles drop gates, and the SWAPs routing
//! would insert for them). The expensive half of that pipeline — simplify
//! and route — depends only on the parameters' **structure**
//! ([`transpile::template::StructureKey`]: which gates sit on identity
//! angles and vanish), not their raw values, so every executor holds a
//! program cache ([`ProgramCacheHandle`], shared across clones): one
//! simplified+routed
//! [`transpile::template::CircuitTemplate`] (plus register compaction) per
//! structure, re-bound per sample (fresh angles) and per day (fresh noise
//! strengths) with linear passes only. Batch evaluation and training loops
//! therefore route once per structure instead of once per circuit
//! evaluation; results are bit-identical to from-scratch compilation (the
//! `rebind_identity` property tests). [`NoisyExecutor::cache_stats`]
//! exposes the hit/miss counters.
//!
//! # Simulation backends
//!
//! The noisy simulation engine is selected by [`SimBackend`] (the
//! `QUCAD_BACKEND` environment variable via [`SimBackend::from_env`], or
//! per-executor via [`NoiseOptions::backend`]):
//!
//! - [`SimBackend::Density`] (default): exact dense density-matrix
//!   simulation. Each structure's expanded circuit plus its noise
//!   interleave is fused once with [`transpile::fuse`] — prebound
//!   matrices, same-support runs collapsed into single passes — into a
//!   [`DensityTemplate`] kept with the cached structure; every probe then
//!   patches its own matrices and channel strengths into one lane of the
//!   template's operand tables and runs on a reusable [`SimWorkspace`]
//!   that each fan-out worker owns, so the simulation itself performs no
//!   per-gate allocation and each worker reuses its density-matrix
//!   storage across the probes of a call. Results are **bit-identical**
//!   to the op-by-op
//!   reference path ([`NoisyExecutor::z_scores_seeded_unfused`]), which is
//!   retained as the differential-testing oracle. Capped at
//!   [`quasim::density::MAX_DENSITY_QUBITS`] active qubits.
//! - [`SimBackend::Trajectory`]: Monte-Carlo wavefunction simulation
//!   ([`quasim::trajectory`]). The same fused pipeline — additionally
//!   precomposed at bind time ([`transpile::fuse::fuse_native_trajectory`]:
//!   runs of consecutive same-support unitaries collapse into single
//!   matrices) — is unraveled into
//!   [`NoiseOptions::trajectories`] stochastic pure-state trajectories,
//!   executed in batched panels on a reusable [`TrajectoryPanel`] that
//!   each fan-out worker owns (each fused op applied once across the whole
//!   panel; width from `QUCAD_TRAJ_BATCH`, default auto); per-qubit `P(1)`
//!   is the trajectory average, an unbiased estimate of the exact channel
//!   average at O(2^n) per trajectory. This unlocks devices beyond the
//!   dense-`ρ` cap, e.g. the 16-qubit `ibm_guadalupe`. The trajectory
//!   stream is seeded from `(shot_seed, stream)` only and consumed in
//!   trajectory-major order regardless of panel width, so results are
//!   deterministic and identical across any thread fan-out *and* any
//!   panel width, exactly like the density path.

use crate::model::VqcModel;
use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use quasim::density::{DensityMatrix, SimWorkspace, MAX_DENSITY_QUBITS};
use quasim::fused::{FusedProgram, LaneTables};
use quasim::statevector::StateVector;
use quasim::trajectory::{
    estimate_prob_one_panel, estimate_prob_one_panel_multi, panel_width_from_env,
    TrajectoryEstimate, TrajectoryPanel,
};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};
use transpile::expand::{expand, NativeCircuit, NativeOp, ANGLE_TOL};
use transpile::fuse::{
    fuse_native_compacted, fuse_native_trajectory, DensityTemplate, QubitCompaction,
};
use transpile::route::{route, PhysicalCircuit};
use transpile::template::{structure_key, CircuitTemplate, StructureKey};

/// Noise-free evaluation: per-class `⟨Z⟩` scores on the logical circuit.
///
/// # Examples
///
/// ```
/// use qnn::model::VqcModel;
/// use qnn::executor::pure_z_scores;
///
/// let model = VqcModel::paper_model(4, 4, 4, 1);
/// let weights = vec![0.0; model.n_weights()];
/// let z = pure_z_scores(&model, &[0.0; 4], &weights);
/// assert_eq!(z.len(), 4);
/// ```
///
/// # Panics
///
/// Panics if slice lengths do not match the model.
pub fn pure_z_scores(model: &VqcModel, features: &[f64], weights: &[f64]) -> Vec<f64> {
    let full = model.full_params(features, weights);
    let gates = model.circuit().bind(&full);
    let mut sv = StateVector::zero_state(model.n_qubits());
    sv.run(&gates);
    model
        .measured_logical()
        .iter()
        .map(|&q| sv.expect_z(q))
        .collect()
}

/// Which engine simulates the noisy circuit.
///
/// See the [module docs](self) for the trade-off; select globally with the
/// `QUCAD_BACKEND` environment variable ([`SimBackend::from_env`]) or
/// per executor via [`NoiseOptions::backend`].
///
/// # Examples
///
/// ```
/// use qnn::executor::SimBackend;
///
/// assert_eq!(SimBackend::parse("trajectory"), Some(SimBackend::Trajectory));
/// assert_eq!(SimBackend::parse("DENSITY"), Some(SimBackend::Density));
/// assert_eq!(SimBackend::parse("qpu"), None);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum SimBackend {
    /// Exact dense density-matrix simulation (O(4^n) per op, ≤
    /// [`quasim::density::MAX_DENSITY_QUBITS`] active qubits).
    #[default]
    Density,
    /// Monte-Carlo wavefunction (quantum-trajectory) simulation
    /// (O(2^n) per op per trajectory, up to
    /// [`quasim::trajectory::MAX_TRAJECTORY_QUBITS`] qubits).
    Trajectory,
}

impl SimBackend {
    /// Parses a backend name (case-insensitive): `density` or
    /// `trajectory`/`traj`.
    pub fn parse(s: &str) -> Option<SimBackend> {
        match s.trim().to_ascii_lowercase().as_str() {
            "density" => Some(SimBackend::Density),
            "trajectory" | "traj" => Some(SimBackend::Trajectory),
            _ => None,
        }
    }

    /// Resolves the backend from the `QUCAD_BACKEND` environment variable;
    /// unset or empty means [`SimBackend::Density`].
    ///
    /// # Panics
    ///
    /// Panics if the variable is set to an unknown name, so CI matrix typos
    /// fail loudly instead of silently testing the wrong engine.
    pub fn from_env() -> SimBackend {
        SimBackend::from_env_or(SimBackend::Density)
    }

    /// [`SimBackend::from_env`] with a caller-chosen fallback for when the
    /// variable is unset or empty (e.g. the guadalupe scenario defaults to
    /// the trajectory engine because its register exceeds the density cap).
    ///
    /// # Panics
    ///
    /// As [`SimBackend::from_env`] on an unknown name.
    pub fn from_env_or(default: SimBackend) -> SimBackend {
        // qucad-lint: allow(env-read) — audited entry point: simulation backend selection
        match std::env::var("QUCAD_BACKEND") {
            Ok(v) if !v.trim().is_empty() => SimBackend::parse(&v).unwrap_or_else(|| {
                panic!("QUCAD_BACKEND must be 'density' or 'trajectory', got '{v}'")
            }),
            _ => default,
        }
    }

    /// Stable lowercase name (`"density"` / `"trajectory"`).
    pub fn name(self) -> &'static str {
        match self {
            SimBackend::Density => "density",
            SimBackend::Trajectory => "trajectory",
        }
    }
}

/// Options controlling how calibration data maps to channel strengths and
/// which engine simulates the result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseOptions {
    /// Multiplier from calibration error rate to depolarising `λ`.
    /// 1.0 treats the reported gate error as the depolarising parameter.
    pub scale: f64,
    /// Whether to apply readout confusion to the measured qubits.
    pub readout: bool,
    /// Finite measurement shots. `None` returns exact probabilities;
    /// `Some(n)` adds per-qubit sampling noise (Gaussian approximation of
    /// the binomial, std `√(p(1−p)/n)`). Shot noise is what makes deep
    /// noisy circuits *collapse* in practice: depolarising channels shrink
    /// every Z score toward 0 and finite shots cannot resolve scores below
    /// `~1/√n`, which exact simulation would.
    pub shots: Option<u64>,
    /// Seed for the shot-noise stream (ignored when `shots` is `None`).
    pub shot_seed: u64,
    /// Simulation engine (default [`SimBackend::Density`]).
    pub backend: SimBackend,
    /// Trajectories averaged per evaluation when `backend` is
    /// [`SimBackend::Trajectory`]; the per-qubit `P(1)` standard error
    /// scales as `≤ 1/(2√N)`.
    pub trajectories: u32,
}

impl Default for NoiseOptions {
    fn default() -> Self {
        NoiseOptions {
            scale: 1.0,
            readout: true,
            shots: None,
            shot_seed: 0,
            backend: SimBackend::Density,
            trajectories: 256,
        }
    }
}

impl NoiseOptions {
    /// The experiment default: exact channels plus 1024-shot sampling, the
    /// typical IBM execution setting the paper's runs used.
    pub fn with_shots(shots: u64, shot_seed: u64) -> Self {
        NoiseOptions {
            shots: Some(shots),
            shot_seed,
            ..NoiseOptions::default()
        }
    }
}

/// Counters of a [`NoisyExecutor`]'s program cache (see
/// [`NoisyExecutor::cache_stats`]): structure lookups, and how the density
/// probes got their programs.
///
/// All four are deterministic: lookups are counted per structure group,
/// density templates are built on the calling thread, and a fallback fuse
/// is counted per probe, so no count depends on `threads`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ProgramCacheStats {
    /// Evaluations served by re-binding a cached template.
    pub hits: u64,
    /// Evaluations that ran the full simplify → route pipeline.
    pub misses: u64,
    /// Density programs fused from scratch by the probe engine: one per
    /// [`DensityTemplate`] built, plus one per probe whose program does
    /// not fit its structure's template.
    pub fuses: u64,
    /// Density probes run from their structure's template, patched
    /// straight into lane operand tables.
    pub patches: u64,
}

/// One cached circuit structure: the simplified+routed template plus the
/// register compaction it induces (both are pure functions of the
/// [`StructureKey`] for a fixed model and topology), and the structure's
/// fused density program once a density evaluation needs it.
#[derive(Debug, Clone)]
struct CachedStructure {
    template: CircuitTemplate,
    compaction: QubitCompaction,
    /// Built on the calling thread from the first density probe that
    /// meets the structure; patched per probe afterwards. Which probe built
    /// it changes no bits: a probe that does not fit it is fused in full.
    density: OnceLock<DensityTemplate>,
}

/// One resident cache entry plus the generation of its last touch, the
/// staleness signal [`ProgramCache::evict_stale`] keys on. Entries are
/// immutable and shared: a lookup hands out a clone of the `Arc`, never a
/// copy of the template, so the cache lock is held only for the map
/// operation.
#[derive(Debug, Clone)]
struct CacheSlot {
    cached: Arc<CachedStructure>,
    touched: u64,
}

/// Compile-once/rebind-many cache: one [`CachedStructure`] per distinct
/// [`StructureKey`] evaluated through it. Shared by every clone of an
/// executor behind a [`ProgramCacheHandle`].
///
/// Training loops move parameters continuously (one generic-angle key),
/// while compression snaps parameters onto level patterns (one key per
/// pattern), so a single tenant's live key set stays small; the entry cap
/// matters once many tenants share one cache (the serving path), where it
/// must degrade gracefully rather than thrash.
#[derive(Debug, Default)]
struct ProgramCache {
    entries: HashMap<StructureKey, CacheSlot>,
    /// Insertion order of the resident keys, the iteration index
    /// [`Self::evict_stale`] scans (the map itself is never iterated, so
    /// eviction order is deterministic).
    order: Vec<StructureKey>,
    /// Coarse logical clock: advances every [`GENERATION_LOOKUPS`]
    /// lookups, so "stale" means "untouched for a full generation of
    /// traffic" independent of wall time.
    generation: u64,
    lookups_in_generation: u64,
    stats: ProgramCacheStats,
}

/// Cap on resident structures per shared cache. On overflow only entries
/// untouched for a full generation are evicted; if every resident entry is
/// warm the newcomer is denied admission instead (served uncached), so a
/// hot working set larger than the cap degrades to a partial hit rate
/// rather than thrashing to ~0%.
const MAX_CACHED_STRUCTURES: usize = 256;

/// Lookups per generation of the cache's logical clock. Twice the entry
/// cap, so a full round-robin over a working set at the cap spans at most
/// one generation boundary and live entries are never mistaken for stale.
const GENERATION_LOOKUPS: u64 = 2 * MAX_CACHED_STRUCTURES as u64;

impl ProgramCache {
    /// Advances the logical clock by one lookup.
    fn tick(&mut self) {
        self.lookups_in_generation += 1;
        if self.lookups_in_generation >= GENERATION_LOOKUPS {
            self.generation += 1;
            self.lookups_in_generation = 0;
        }
    }

    /// Removes every entry untouched for a full generation, preserving the
    /// insertion order of the survivors.
    fn evict_stale(&mut self) {
        let generation = self.generation;
        let order = std::mem::take(&mut self.order);
        for key in order {
            // `touched + 1 < generation` (not `touched < generation - 1`):
            // generation is 0 at startup and must not underflow.
            let stale = self
                .entries
                .get(&key)
                .is_none_or(|slot| slot.touched + 1 < generation);
            if stale {
                self.entries.remove(&key);
            } else {
                self.order.push(key);
            }
        }
        debug_assert_eq!(
            self.order.len(),
            self.entries.len(),
            "eviction desynced the insertion-order index"
        );
    }
}

/// Shared, thread-safe handle to a `ProgramCache`: the unit of warm
/// state the serving path owns. Cloning the handle shares the cache (and
/// its hit/miss counters); [`NoisyExecutor`] clones therefore share one
/// cache rather than each inheriting a private warm copy, so aggregate
/// hit-rate diagnostics count every lookup exactly once.
#[derive(Debug, Clone, Default)]
pub struct ProgramCacheHandle {
    state: std::sync::Arc<std::sync::Mutex<ProgramCache>>,
}

impl ProgramCacheHandle {
    /// A fresh, empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ProgramCache> {
        // A panic while holding the lock poisons it; the cache itself is
        // never left mid-mutation (all writes are single insert/remove
        // calls), so the poisoned state is safe to keep using.
        self.state
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    /// Looks `key` up, ticking the logical clock and the hit/miss
    /// counters; a hit refreshes the slot's touch generation.
    fn lookup(&self, key: &StructureKey) -> Option<Arc<CachedStructure>> {
        let mut cache = self.lock();
        cache.tick();
        let generation = cache.generation;
        let hit = cache.entries.get_mut(key).map(|slot| {
            slot.touched = generation;
            slot.cached.clone()
        });
        if hit.is_some() {
            cache.stats.hits += 1;
        } else {
            cache.stats.misses += 1;
        }
        hit
    }

    /// Offers a freshly compiled structure to the cache. Returns the
    /// canonical resident entry: if a concurrent clone admitted the same
    /// key first, that entry wins (both are bit-identical by the template
    /// contract); if the cache is at capacity with no stale entries,
    /// admission is denied and the caller's own compile is returned
    /// uncached.
    fn admit(&self, key: StructureKey, cached: CachedStructure) -> Arc<CachedStructure> {
        let cached = Arc::new(cached);
        let mut cache = self.lock();
        let cache = &mut *cache;
        if let Some(slot) = cache.entries.get(&key) {
            return slot.cached.clone();
        }
        if cache.entries.len() >= MAX_CACHED_STRUCTURES {
            cache.evict_stale();
        }
        if cache.entries.len() < MAX_CACHED_STRUCTURES {
            let slot = CacheSlot {
                cached: cached.clone(),
                touched: cache.generation,
            };
            let evicted = cache.entries.insert(key.clone(), slot);
            debug_assert!(
                evicted.is_none(),
                "program cache admit raced an existing entry for the same key"
            );
            cache.order.push(key);
            debug_assert_eq!(
                cache.order.len(),
                cache.entries.len(),
                "admission desynced the insertion-order index"
            );
        }
        debug_assert!(
            cache.entries.len() <= MAX_CACHED_STRUCTURES,
            "program cache exceeds the {MAX_CACHED_STRUCTURES}-entry cap"
        );
        cached
    }

    /// Adds one probe batch's density fuse and patch counts.
    fn count_density(&self, fuses: u64, patches: u64) {
        let mut cache = self.lock();
        cache.stats.fuses += fuses;
        cache.stats.patches += patches;
    }

    /// Aggregate counters across every executor sharing this cache.
    pub fn stats(&self) -> ProgramCacheStats {
        self.lock().stats
    }

    /// Number of structures currently resident.
    pub fn resident_structures(&self) -> usize {
        self.lock().entries.len()
    }
}

/// A model routed onto a device, ready for noisy evaluation under any
/// calibration snapshot.
///
/// An executor is compiled state only: the model, the device, the routed
/// circuit, the noise options and a handle to the shared program cache.
/// It holds no simulation storage, so it is `Send + Sync` and one
/// executor serves any number of threads by reference; each fan-out
/// worker owns its own scratch (density workspace, lane operand tables
/// and trajectory panel) for the span of one call. A clone copies the
/// compiled state and shares the program cache.
///
/// # Examples
///
/// ```
/// use qnn::model::VqcModel;
/// use qnn::executor::{NoisyExecutor, NoiseOptions};
/// use calibration::topology::Topology;
/// use calibration::snapshot::CalibrationSnapshot;
///
/// let model = VqcModel::paper_model(4, 2, 4, 1);
/// let topo = Topology::ibm_belem();
/// let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
/// let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-4, 1e-2, 0.02);
/// let z = exec.z_scores_seeded(&[0.1; 4], &vec![0.3; model.n_weights()], &snap, 0);
/// assert_eq!(z.len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct NoisyExecutor {
    model: VqcModel,
    topology: Topology,
    phys: PhysicalCircuit,
    options: NoiseOptions,
    /// Compile-once/rebind-many program cache: simplify + route run once
    /// per circuit structure; later evaluations re-bind angles (per
    /// sample) and noise strengths (per day) with linear passes only.
    /// Cloned executors **share** this cache (the handle is `Arc`-backed),
    /// so executors built on one handle warm one another and the hit/miss
    /// counters aggregate across them.
    cache: ProgramCacheHandle,
}

/// One fan-out worker's reusable simulation storage, made inside the
/// worker for one [`NoisyExecutor::evaluate_probes_over_days`] call and
/// reused across every probe of its chunk.
#[derive(Default)]
struct Scratch {
    /// Density-matrix storage the density arm runs lanes on.
    ws: SimWorkspace,
    /// Lane operand tables the density arm patches probes into.
    tables: LaneTables,
    /// Batched trajectory storage, the trajectory arm's counterpart.
    panel: TrajectoryPanel,
}

impl NoisyExecutor {
    /// Routes `model` onto `topology` with the identity initial layout.
    ///
    /// # Panics
    ///
    /// Panics if the device is smaller than the model.
    pub fn new(model: &VqcModel, topology: &Topology, options: NoiseOptions) -> Self {
        Self::with_shared_cache(model, topology, options, ProgramCacheHandle::new())
    }

    /// [`Self::new`] with an explicit program cache, so independently
    /// constructed executors share warm templates. The model/topology
    /// must match across every executor on the handle: the cache key is
    /// the parameter structure only.
    ///
    /// # Panics
    ///
    /// Panics if the device is smaller than the model.
    pub fn with_shared_cache(
        model: &VqcModel,
        topology: &Topology,
        options: NoiseOptions,
        cache: ProgramCacheHandle,
    ) -> Self {
        let phys = route(model.circuit(), topology, None);
        NoisyExecutor {
            model: model.clone(),
            topology: topology.clone(),
            phys,
            options,
            cache,
        }
    }

    /// The shared program-cache handle (clone it to share warm templates
    /// with another executor, or to read aggregate stats from a thread
    /// that owns no executor).
    pub fn cache_handle(&self) -> ProgramCacheHandle {
        self.cache.clone()
    }

    /// The routed physical circuit (the compression input in the paper).
    pub fn physical_circuit(&self) -> &PhysicalCircuit {
        &self.phys
    }

    /// The device topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The model this executor runs.
    pub fn model(&self) -> &VqcModel {
        &self.model
    }

    /// Noisy per-class `⟨Z⟩` scores under a calibration snapshot, with shot
    /// and trajectory noise drawn from a private stream identified by
    /// `stream`: a one-probe [`Self::evaluate_probes`] batch.
    ///
    /// The circuit is *re-transpiled at the bound parameters*: gates at
    /// identity angles are dropped before routing, so compressed parameters
    /// also eliminate the SWAPs routing would have inserted for them — the
    /// full physical-length saving the paper exploits.
    ///
    /// Calls with the same inputs and the same `stream` return bit-identical
    /// results regardless of call order, interleaving, or which thread runs
    /// them. The stream is derived from both [`NoiseOptions::shot_seed`] and
    /// `stream`, so distinct executors keep distinct noise.
    ///
    /// # Panics
    ///
    /// Panics if slice lengths do not match the model or the snapshot does
    /// not describe this executor's topology.
    pub fn z_scores_seeded(
        &self,
        features: &[f64],
        weights: &[f64],
        snapshot: &CalibrationSnapshot,
        stream: u64,
    ) -> Vec<f64> {
        let mut batch = ProbeBatch::with_capacity(1);
        batch.push(features, weights, stream);
        self.evaluate_probes(snapshot, &batch, 1).remove(0)
    }

    /// Seed of the trajectory stream for a seeded evaluation: a function of
    /// `(shot_seed, stream)` only, salted so it never collides with the
    /// shot-noise stream, which keeps trajectory results order- and
    /// thread-independent exactly like the density path.
    fn traj_seed(&self, stream: u64) -> u64 {
        const TRAJ_SALT: u64 = 0x7452_414A_5F4D_4357; // "tRAJ_MCW"
        mix_stream(self.options.shot_seed ^ TRAJ_SALT, stream)
    }

    /// Retranspiles the circuit at the bound parameters (simplify → route →
    /// expand) from scratch; kept as the uncached reference the
    /// differential-testing oracle ([`Self::z_scores_seeded_unfused`])
    /// runs on.
    fn retranspile(&self, full: &[f64]) -> NativeCircuit {
        let simplified = self.model.circuit().simplified(full, ANGLE_TOL);
        let phys = route(&simplified, &self.topology, None);
        expand(&phys, full)
    }

    /// The cached native circuit at the bound parameters: looks the
    /// parameter vector's [`StructureKey`] up in the program cache,
    /// re-binding the stored template (a single linear expansion pass) on
    /// a hit and running the full simplify → route pipeline on a miss.
    ///
    /// Bit-identical to [`Self::retranspile`] by the template contract
    /// (equal keys → value-identical simplified circuits → identical
    /// routing), which the `rebind_identity` property tests enforce.
    fn native_at(&self, full: &[f64]) -> (NativeCircuit, Arc<CachedStructure>) {
        let key = structure_key(self.model.circuit(), full, ANGLE_TOL);
        let entry = self.structure_of(key, full);
        (entry.template.bind(full), entry)
    }

    /// The cached structure (template + compaction) of a parameter vector
    /// whose structure key is `key`: the group-level entry point of
    /// [`Self::evaluate_probes`], which fetches one structure per probe
    /// *group*. Counts one cache hit or miss per call — i.e. per structure
    /// group, not per probe.
    fn structure_of(&self, key: StructureKey, full: &[f64]) -> Arc<CachedStructure> {
        if let Some(entry) = self.cache.lookup(&key) {
            // Rebind-boundary invariant check: the cached template's key
            // must equal the bound vector's — binding across structures
            // would silently diverge from a from-scratch compile.
            debug_assert!(
                transpile::verify::verify_bound(
                    &entry.template,
                    self.model.circuit(),
                    full,
                    ANGLE_TOL
                )
                .is_ok(),
                "program cache hit on a structurally different template"
            );
            return entry;
        }
        // Compile outside the cache lock: concurrent clones missing on
        // *distinct* structures must not serialise on each other's
        // simplify → route passes. Two clones racing on the *same* key
        // both compile, and `admit` keeps the first entry (the results are
        // bit-identical by the template contract).
        let template =
            CircuitTemplate::compile(self.model.circuit(), &self.topology, full, ANGLE_TOL);
        let native = template.bind(full);
        let compaction = self.compaction(&native);
        self.cache.admit(
            key,
            CachedStructure {
                template,
                compaction,
                density: OnceLock::new(),
            },
        )
    }

    /// Aggregate hit/miss counters of the shared program cache (every
    /// clone of this executor counts into the same totals; see
    /// [`ProgramCacheHandle::stats`]).
    pub fn cache_stats(&self) -> ProgramCacheStats {
        self.cache.stats()
    }

    /// Compaction of the device register to the qubits this circuit (and
    /// its measurements) actually touch — unused physical qubits stay in
    /// `|0⟩` forever and each one would quadruple the density matrix.
    /// Shared by the fused and unfused paths so both simulate the
    /// identical compact register.
    fn compaction(&self, native: &NativeCircuit) -> QubitCompaction {
        let measured: Vec<usize> = self
            .model
            .measured_logical()
            .iter()
            .map(|&l| native.measured_physical(l))
            .collect();
        QubitCompaction::for_native(native, &measured)
    }

    /// Depolarising strength the calibration snapshot assigns to one native
    /// op, if any — the noise interleave both execution paths apply.
    fn op_lambda(&self, op: &NativeOp, snapshot: &CalibrationSnapshot) -> Option<f64> {
        let qubits = op.gate.qubits();
        if op.is_entangler() {
            let edge = self
                .topology
                .edge_index(qubits[0], qubits[1])
                .expect("routed entangler must sit on an edge");
            Some(self.options.scale * snapshot.cnot_error[edge])
        } else if op.pulses > 0 {
            Some(self.options.scale * op.pulses as f64 * snapshot.single_qubit_error[qubits[0]])
        } else {
            None
        }
    }

    /// Readout + shot-noise post-processing from physical `P(1)` values to
    /// per-class Z scores; `layout` is the routed circuit's final layout
    /// (`[logical] = physical`).
    fn scores_from_probs(
        &self,
        layout: &[usize],
        snapshot: &CalibrationSnapshot,
        shot_rng: &mut rand::rngs::StdRng,
        prob_one: impl Fn(usize) -> f64,
    ) -> Vec<f64> {
        self.model
            .measured_logical()
            .iter()
            .map(|&logical| {
                let phys_q = layout[logical];
                let mut p1 = prob_one(phys_q);
                if self.options.readout {
                    p1 = snapshot.readout[phys_q].apply_to_prob_one(p1);
                }
                if let Some(shots) = self.options.shots {
                    let std =
                        (p1.clamp(0.0, 1.0) * (1.0 - p1.clamp(0.0, 1.0)) / shots as f64).sqrt();
                    let z = calibration::stats::sample_normal(shot_rng);
                    p1 = (p1 + std * z).clamp(0.0, 1.0);
                }
                1.0 - 2.0 * p1
            })
            .collect()
    }

    /// One evaluation's compilation on this executor's backend: fetch the
    /// bound parameters' structure from the program cache (simplify +
    /// route run once per structure), re-bind the gate matrices at the
    /// sample's angles, and fuse the native circuit plus the day's noise
    /// interleave into a program over the compacted register (matrices
    /// prebound once, same-support runs collapsed into single passes).
    fn compile(
        &self,
        features: &[f64],
        weights: &[f64],
        snapshot: &CalibrationSnapshot,
    ) -> (NativeCircuit, Arc<CachedStructure>, FusedProgram) {
        assert_eq!(
            snapshot.n_qubits(),
            self.topology.n_qubits(),
            "snapshot does not match device"
        );
        let full = self.model.full_params(features, weights);
        let (native, entry) = self.native_at(&full);
        let compaction = &entry.compaction;
        // The trajectory backend additionally precomposes runs of
        // consecutive same-support unitaries at bind time (one matrix per
        // pass); the density path keeps the plain fusion so its pinned
        // fused-vs-unfused bit-identity is untouched.
        let program = match self.options.backend {
            SimBackend::Density => {
                fuse_native_compacted(&native, compaction, |op| self.op_lambda(op, snapshot))
            }
            SimBackend::Trajectory => {
                fuse_native_trajectory(&native, compaction, |op| self.op_lambda(op, snapshot))
            }
        };
        (native, entry, program)
    }

    /// The compiled fused program for one evaluation plus the measured
    /// qubits as compact register indices ([`VqcModel::measured_logical`]
    /// order) — the raw material for driving the `quasim` engines
    /// directly (benchmarks, cross-engine tests).
    ///
    /// # Panics
    ///
    /// Panics as [`Self::z_scores_seeded`].
    pub fn compile_program(
        &self,
        features: &[f64],
        weights: &[f64],
        snapshot: &CalibrationSnapshot,
    ) -> (Vec<usize>, FusedProgram) {
        let (native, entry, program) = self.compile(features, weights, snapshot);
        (self.measured_compact(&native, &entry.compaction), program)
    }

    /// The measured qubits as compact register indices, in
    /// [`VqcModel::measured_logical`] order — the single mapping behind
    /// [`Self::compile_program`] and both trajectory arms.
    fn measured_compact(&self, native: &NativeCircuit, compaction: &QubitCompaction) -> Vec<usize> {
        self.model
            .measured_logical()
            .iter()
            .map(|&l| compaction.compact(native.measured_physical(l)))
            .collect()
    }

    /// The trajectory backend's raw estimate for a seeded evaluation:
    /// per-measured-qubit `P(1)` means and standard errors, *before*
    /// readout confusion and shot noise. Uses the identical trajectory
    /// stream as [`Self::z_scores_seeded`] on [`SimBackend::Trajectory`],
    /// so the cross-backend consistency harness can derive its confidence
    /// bound from the very run it checks.
    ///
    /// The returned `qubits` are the measured **physical** qubits in
    /// [`VqcModel::measured_logical`] order.
    ///
    /// # Panics
    ///
    /// Panics as [`Self::z_scores_seeded`].
    pub fn trajectory_estimate(
        &self,
        features: &[f64],
        weights: &[f64],
        snapshot: &CalibrationSnapshot,
        stream: u64,
    ) -> TrajectoryEstimate {
        let (native, entry, program) = self.compile(features, weights, snapshot);
        let measured = self.measured_compact(&native, &entry.compaction);
        let mut est = estimate_prob_one_panel(
            &mut TrajectoryPanel::new(),
            &program,
            &measured,
            self.options.trajectories,
            self.traj_seed(stream),
            panel_width_from_env(program.n_qubits(), self.options.trajectories),
        );
        // Report physical qubit ids to the caller.
        est.qubits = self
            .model
            .measured_logical()
            .iter()
            .map(|&l| native.measured_physical(l))
            .collect();
        est
    }

    /// Reference implementation of [`Self::z_scores_seeded`] that applies
    /// every native op and noise channel one by one through
    /// [`DensityMatrix`], with no fusion and no workspace reuse.
    ///
    /// Kept as the differential-testing oracle: the fused production path
    /// must return **bit-identical** scores (see the `fused_identity`
    /// property tests). Not for production use — it allocates per call and
    /// walks `ρ` once per operation.
    pub fn z_scores_seeded_unfused(
        &self,
        features: &[f64],
        weights: &[f64],
        snapshot: &CalibrationSnapshot,
        stream: u64,
    ) -> Vec<f64> {
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(mix_stream(self.options.shot_seed, stream));
        assert_eq!(
            snapshot.n_qubits(),
            self.topology.n_qubits(),
            "snapshot does not match device"
        );
        let full = self.model.full_params(features, weights);
        let native = self.retranspile(&full);
        let compaction = self.compaction(&native);
        let mut rho = DensityMatrix::zero_state(compaction.n_active());
        for op in native.ops() {
            let qubits = op.gate.qubits();
            let c0 = compaction.compact(qubits[0]);
            match op.gate.kind() {
                quasim::gate::GateKind::Cx => {
                    rho.apply_cx(c0, compaction.compact(qubits[1]));
                }
                kind if kind.arity() == 1 => {
                    rho.apply_unitary_1q(&op.gate.matrix(), c0);
                }
                _ => {
                    rho.apply_unitary_2q(&op.gate.matrix(), c0, compaction.compact(qubits[1]));
                }
            }
            if let Some(lambda) = self.op_lambda(op, snapshot) {
                match qubits.len() {
                    1 => rho.apply_depolarizing_1q(lambda, c0),
                    _ => rho.apply_depolarizing_2q(lambda, c0, compaction.compact(qubits[1])),
                }
            }
        }
        self.scores_from_probs(native.final_layout(), snapshot, &mut rng, |q| {
            rho.prob_one(compaction.compact(q))
        })
    }

    /// Physical circuit length (pulses + 3×CX) at the given weights after
    /// simplify-then-route retranspilation (cache-assisted); the quantity
    /// compression shortens.
    pub fn circuit_length(&self, features: &[f64], weights: &[f64]) -> u32 {
        let full = self.model.full_params(features, weights);
        self.native_at(&full).0.length()
    }

    /// Evaluates a one-day [`ProbeBatch`]: every probe under `snapshot`.
    ///
    /// A call into the one batched engine,
    /// [`Self::evaluate_probes_over_days`], with `snapshot` as the only day,
    /// so every probe must sit on day 0 (what [`ProbeBatch::push`] gives).
    ///
    /// **Bit-identity contract**: element `i` of the result equals
    /// [`Self::z_scores_seeded`]`(probes[i].features, probes[i].weights,
    /// snapshot, probes[i].stream)` exactly — for either backend, any
    /// `threads`, any lane or panel width, and any cache warmth. The
    /// training loops in [`crate::train`](mod@crate::train) rely on this
    /// to stay bit-identical to their retained sequential references (see
    /// the `training_path` property tests).
    ///
    /// # Panics
    ///
    /// Panics as [`Self::evaluate_probes_over_days`].
    pub fn evaluate_probes(
        &self,
        snapshot: &CalibrationSnapshot,
        batch: &ProbeBatch<'_>,
        threads: usize,
    ) -> Vec<Vec<f64>> {
        self.evaluate_probes_over_days(&[snapshot], batch, threads)
    }

    /// Evaluates a whole [`ProbeBatch`] whose probes may sit on different
    /// calibration days — the batched evaluation engine. Probe `i` runs
    /// under `days[probes[i].day]`.
    ///
    /// Probes are grouped by [`StructureKey`] (each probe's full parameter
    /// vector and key are computed once; the key does not depend on the
    /// day); each group routes/simplifies **once** through the program
    /// cache ([`Self::cache_stats`] counts one hit or miss per group,
    /// whatever `threads` is).
    ///
    /// The probes are then put in structure order — by group; within a
    /// group the probes on the same features next to each other (an SPSA
    /// ± pair, a finite-difference sweep, one sample on every day), and
    /// among those the probes of one day next to each other — and
    /// contiguous chunks of that order fan out through
    /// [`parallel::map_chunks`]; each worker makes one scratch (density
    /// workspace, lane tables, trajectory panel) for its chunk and shares
    /// the executor by reference. A batch spanning several days thus
    /// splits its whole (day, probe) grid evenly over the workers.
    ///
    /// The density backend fuses each structure once: the calling thread
    /// builds the structure's [`DensityTemplate`] from the group's first
    /// probe (unless the cached structure already holds one), and workers
    /// patch every probe's matrices and its own day's λs straight into one
    /// lane of the run's operand tables ([`DensityTemplate::patch`]),
    /// running 4 lanes at a time, then 2, then 1
    /// ([`SimWorkspace::run_tables`]). A probe whose program would have
    /// another shape (a channel clamped away on its day, or a matrix of
    /// another class) is bound and fused in full and run alone;
    /// [`Self::cache_stats`] counts both ways. The trajectory backend
    /// packs consecutive probes that bind to bitwise-identical parameter
    /// vectors **on the same day** into shared [`TrajectoryPanel`] sweeps
    /// ([`quasim::trajectory::estimate_prob_one_panel_multi`]). Readout
    /// confusion comes from each probe's own day. Results return by probe
    /// index.
    ///
    /// **Bit-identity contract**: element `i` of the result equals
    /// [`Self::z_scores_seeded`]`(probes[i].features, probes[i].weights,
    /// days[probes[i].day], probes[i].stream)` exactly — for either
    /// backend, any `threads`, any lane or panel width, and any cache
    /// warmth.
    ///
    /// # Panics
    ///
    /// Panics as [`Self::z_scores_seeded`], or if a probe's day is out of
    /// range of `days`.
    pub fn evaluate_probes_over_days(
        &self,
        days: &[&CalibrationSnapshot],
        batch: &ProbeBatch<'_>,
        threads: usize,
    ) -> Vec<Vec<f64>> {
        for snapshot in days {
            assert_eq!(
                snapshot.n_qubits(),
                self.topology.n_qubits(),
                "snapshot does not match device"
            );
        }
        let probes = batch.probes();
        if let Some(p) = probes.iter().find(|p| p.day >= days.len()) {
            panic!("probe on day {} of a {}-day batch", p.day, days.len());
        }
        let fulls: Vec<Vec<f64>> = probes
            .iter()
            .map(|p| self.model.full_params(p.features, p.weights))
            .collect();
        // Group probes by structure key in first-appearance order, one
        // cache lookup per group.
        let mut group_of: HashMap<StructureKey, usize> = HashMap::new();
        let mut entries: Vec<Arc<CachedStructure>> = Vec::new();
        let group: Vec<usize> = fulls
            .iter()
            .map(|full| {
                let key = structure_key(self.model.circuit(), full, ANGLE_TOL);
                if let Some(&g) = group_of.get(&key) {
                    return g;
                }
                group_of.insert(key.clone(), entries.len());
                entries.push(self.structure_of(key, full));
                entries.len() - 1
            })
            .collect();
        // Within a group, probes on bitwise-equal features (which fuse to
        // programs of one shape) sit next to each other, so a chunk
        // boundary rarely splits them; among those, one day's probes are
        // adjacent so the trajectory arm can share their bind + fuse.
        let mut run_of: HashMap<Vec<u64>, usize> = HashMap::new();
        let feature_run: Vec<usize> = probes
            .iter()
            .map(|p| {
                let next = run_of.len();
                *run_of
                    .entry(p.features.iter().map(|x| x.to_bits()).collect())
                    .or_insert(next)
            })
            .collect();
        let mut order: Vec<usize> = (0..probes.len()).collect();
        order.sort_by_key(|&i| (group[i], feature_run[i], probes[i].day));
        // The density arm patches probes into their structure's template,
        // built here on the calling thread from the group's first probe in
        // structure order, so the fuse counts do not depend on `threads`.
        let density = self.options.backend == SimBackend::Density;
        let mut fuses = 0u64;
        if density {
            for run in order.chunk_by(|&a, &b| group[a] == group[b]) {
                let (entry, first) = (&entries[group[run[0]]], run[0]);
                assert_density_fits(&entry.compaction);
                entry.density.get_or_init(|| {
                    fuses += 1;
                    DensityTemplate::build(
                        entry.template.physical(),
                        &fulls[first],
                        &entry.compaction,
                        |op| self.op_lambda(op, days[probes[first].day]),
                    )
                });
            }
        }
        // Every probe's noise comes from its own stream and results are
        // placed by probe index, so neither the order nor the fan-out can
        // change bits.
        let scores = parallel::map_chunks(order.len(), threads, |range| {
            let idxs = &order[range];
            let mut scratch = Scratch::default();
            let mut out = Vec::with_capacity(idxs.len());
            for run in idxs.chunk_by(|&a, &b| group[a] == group[b]) {
                let entry = &entries[group[run[0]]];
                out.extend(self.evaluate_group(&mut scratch, days, probes, &fulls, entry, run));
            }
            out
        });
        let mut out: Vec<Vec<f64>> = vec![Vec::new(); probes.len()];
        let mut patches = 0u64;
        for (&i, (z, patched)) in order.iter().zip(scores) {
            patches += u64::from(patched);
            out[i] = z;
        }
        if density {
            fuses += probes.len() as u64 - patches;
            self.cache.count_density(fuses, patches);
        }
        out
    }

    /// Scores of the probes `idxs` (all of structure `entry`), in `idxs`
    /// order, each under its own day of `days`, and whether the probe ran
    /// from the structure's density template: the per-worker half of
    /// [`Self::evaluate_probes_over_days`], run on the worker's `scratch`.
    fn evaluate_group(
        &self,
        scratch: &mut Scratch,
        days: &[&CalibrationSnapshot],
        probes: &[ProbeRequest<'_>],
        fulls: &[Vec<f64>],
        entry: &CachedStructure,
        idxs: &[usize],
    ) -> Vec<(Vec<f64>, bool)> {
        use rand::SeedableRng;
        let shot_rng = |i: usize| {
            rand::rngs::StdRng::seed_from_u64(mix_stream(self.options.shot_seed, probes[i].stream))
        };
        let day_of = |i: usize| days[probes[i].day];
        let noise_of = |i: usize| move |op: &NativeOp| self.op_lambda(op, day_of(i));
        let mut out: Vec<(Vec<f64>, bool)> = vec![(Vec::new(), false); idxs.len()];
        match self.options.backend {
            SimBackend::Density => {
                let template = entry
                    .density
                    .get()
                    .expect("the caller builds the density template");
                let shape = template.program();
                let layout = entry.template.physical().final_layout();
                let compact = |q: usize| entry.compaction.compact(q);
                let max_lanes = SimWorkspace::max_lanes(shape.n_qubits());
                let Scratch { ws, tables, .. } = scratch;
                // Probes are patched into the lanes of one run, 4 at a
                // time, then 2, then 1; a probe the template does not fit
                // is fused in full and run alone instead.
                let mut j = 0;
                while j < idxs.len() {
                    let width = [4, 2, 1]
                        .into_iter()
                        .find(|&w| w <= max_lanes && w <= idxs.len() - j)
                        .expect("width 1 always fits");
                    tables.reset(shape, width);
                    let (mut lanes, mut filled) = ([0usize; 4], 0);
                    while filled < width && j < idxs.len() {
                        let i = idxs[j];
                        if template.patch(&fulls[i], noise_of(i), tables, filled) {
                            debug_assert_eq!(
                                tables.lane_program(shape, filled),
                                fuse_native_compacted(
                                    &entry.template.bind(&fulls[i]),
                                    &entry.compaction,
                                    noise_of(i)
                                ),
                                "a patched probe differs from its from-scratch fuse"
                            );
                            lanes[filled] = j;
                            filled += 1;
                        } else {
                            let native = entry.template.bind(&fulls[i]);
                            let program =
                                fuse_native_compacted(&native, &entry.compaction, noise_of(i));
                            ws.run_lanes(&[&program]);
                            let z =
                                self.scores_from_probs(layout, day_of(i), &mut shot_rng(i), |q| {
                                    ws.prob_one_lane(0, compact(q))
                                });
                            out[j] = (z, false);
                        }
                        j += 1;
                    }
                    if filled == 0 {
                        continue;
                    }
                    // Fallbacks left spare lanes: run copies of the last.
                    for spare in filled..width {
                        tables.copy_lane(filled - 1, spare);
                    }
                    ws.run_tables(shape, tables);
                    for (lane, &j) in lanes[..filled].iter().enumerate() {
                        let i = idxs[j];
                        let z = self.scores_from_probs(layout, day_of(i), &mut shot_rng(i), |q| {
                            ws.prob_one_lane(lane, compact(q))
                        });
                        out[j] = (z, true);
                    }
                }
            }
            SimBackend::Trajectory => {
                // Probes whose parameter vectors are bitwise identical
                // compile (deterministically) to the same program under
                // one day's calibration, so consecutive runs of them on
                // the same day share one bind + fuse and one multi-probe
                // panel call; each probe still owns its trajectory stream.
                let mut j = 0;
                while j < idxs.len() {
                    let i0 = idxs[j];
                    let mut k = j + 1;
                    while k < idxs.len()
                        && probes[idxs[k]].day == probes[i0].day
                        && bits_equal(&fulls[idxs[k]], &fulls[i0])
                    {
                        k += 1;
                    }
                    let snapshot = day_of(i0);
                    let native = entry.template.bind(&fulls[i0]);
                    let program = fuse_native_trajectory(&native, &entry.compaction, |op| {
                        self.op_lambda(op, snapshot)
                    });
                    let measured = self.measured_compact(&native, &entry.compaction);
                    let width = panel_width_from_env(program.n_qubits(), self.options.trajectories);
                    let seeds: Vec<u64> = idxs[j..k]
                        .iter()
                        .map(|&i| self.traj_seed(probes[i].stream))
                        .collect();
                    let ests = estimate_prob_one_panel_multi(
                        &mut scratch.panel,
                        &program,
                        &measured,
                        self.options.trajectories,
                        &seeds,
                        width,
                    );
                    for (slot, est) in (j..k).zip(ests.iter()) {
                        let z = self.scores_from_probs(
                            native.final_layout(),
                            snapshot,
                            &mut shot_rng(idxs[slot]),
                            |q| est.p_one_of(entry.compaction.compact(q)),
                        );
                        out[slot] = (z, false);
                    }
                    j = k;
                }
            }
        }
        out
    }
}

/// One probe of a [`ProbeBatch`]: an independent seeded evaluation of the
/// model at `(features, weights)` whose shot and trajectory noise come
/// from `stream` — the same stream id [`NoisyExecutor::z_scores_seeded`]
/// takes, so a probe names exactly one reproducible evaluation.
#[derive(Debug, Clone, Copy)]
pub struct ProbeRequest<'a> {
    /// Encoded sample features.
    pub features: &'a [f64],
    /// Weight vector to evaluate (base, shifted, or perturbed).
    pub weights: &'a [f64],
    /// Seeded noise stream id (see [`NoisyExecutor::z_scores_seeded`]).
    pub stream: u64,
    /// Calibration day of the probe: an index into the `days` slice of
    /// [`NoisyExecutor::evaluate_probes_over_days`] (always 0 for the
    /// one-day [`NoisyExecutor::evaluate_probes`]).
    pub day: usize,
}

/// An ordered batch of evaluation probes for
/// [`NoisyExecutor::evaluate_probes`] — one gradient step's worth of
/// finite-difference / SPSA evaluations collected so the
/// executor can group them by circuit structure and evaluate each group in
/// one pass.
#[derive(Debug, Clone, Default)]
pub struct ProbeBatch<'a> {
    probes: Vec<ProbeRequest<'a>>,
}

impl<'a> ProbeBatch<'a> {
    /// An empty batch.
    pub fn new() -> Self {
        ProbeBatch::default()
    }

    /// An empty batch with room for `n` probes.
    pub fn with_capacity(n: usize) -> Self {
        ProbeBatch {
            probes: Vec::with_capacity(n),
        }
    }

    /// Appends one probe on day 0; results come back in push order.
    pub fn push(&mut self, features: &'a [f64], weights: &'a [f64], stream: u64) {
        self.push_on_day(0, features, weights, stream);
    }

    /// Appends one probe on calibration day `day` (an index into the
    /// `days` of [`NoisyExecutor::evaluate_probes_over_days`]); results
    /// come back in push order.
    pub fn push_on_day(
        &mut self,
        day: usize,
        features: &'a [f64],
        weights: &'a [f64],
        stream: u64,
    ) {
        self.probes.push(ProbeRequest {
            features,
            weights,
            stream,
            day,
        });
    }

    /// Number of probes.
    pub fn len(&self) -> usize {
        self.probes.len()
    }

    /// Whether the batch holds no probe.
    pub fn is_empty(&self) -> bool {
        self.probes.is_empty()
    }

    /// The probes in push order.
    pub fn probes(&self) -> &[ProbeRequest<'a>] {
        &self.probes
    }
}

/// Rejects a register too wide for the dense density-matrix engine.
fn assert_density_fits(compaction: &QubitCompaction) {
    assert!(
        compaction.n_active() <= MAX_DENSITY_QUBITS,
        "density backend supports at most {MAX_DENSITY_QUBITS} active qubits, \
         this circuit needs {}; switch to the trajectory backend \
         (QUCAD_BACKEND=trajectory or NoiseOptions::backend)",
        compaction.n_active()
    );
}

/// Bitwise slice equality (`f64::to_bits`), the comparison the trajectory
/// probe packing uses to decide two probes compile to the same program —
/// value equality would conflate `±0.0`, whose compiled programs can
/// differ in zero signs.
fn bits_equal(a: &[f64], b: &[f64]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// SplitMix64-style finalizer combining a base seed with a stream id into
/// an independent RNG seed (used by [`NoisyExecutor::z_scores_seeded`]).
fn mix_stream(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream)
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

pub mod parallel {
    //! Scoped-thread batch evaluation.
    //!
    //! The per-day evaluation loop of the QuCAD protocol — accuracy of one
    //! weight vector over the test set under one calibration snapshot —
    //! dominates experiment wall time: every sample is an independent dense
    //! density-matrix simulation. The helpers here are thin probe-batch
    //! builders: [`batch_z_scores`] turns the samples into a
    //! [`ProbeBatch`] (sample `i` on stream [`eval_stream`]`(day_stream,
    //! i)`) and hands it to [`NoisyExecutor::evaluate_probes`], and
    //! [`batch_accuracy`] is built on it; [`accuracy_over_days`] builds one
    //! day-spanning batch over every (day, sample) pair (each probe carries
    //! its day) for [`NoisyExecutor::evaluate_probes_over_days`]. An
    //! evaluation therefore gets what every probe batch gets: one cache
    //! lookup per structure group, and same-shape programs run as the
    //! lanes of one density panel. [`crate::train::evaluate`] and
    //! [`crate::train::batch_loss`] under [`crate::train::Env::Noisy`] are
    //! the same batches (`day_stream = snapshot.day`), and
    //! [`NoisyExecutor::z_scores_seeded`] is a batch of one, so every noisy
    //! evaluation in this crate is a probe batch on positional streams.
    //!
    //! Every fan-out in this crate — the probe engine behind
    //! [`NoisyExecutor::evaluate_probes`] and the noise-free gradient sweeps
    //! of [`crate::probe::pure_fd_gradient`] — goes through one helper,
    //! [`map_chunks`] (`std::thread::scope`; no external thread-pool
    //! dependency). The engine chunks its probes in structure order (by
    //! structure group, probes on the same features adjacent, then by
    //! day), so an SPSA ± pair or a sample's finite-difference sweep lands
    //! on one worker and can share its lanes, and a multi-day evaluation
    //! splits its whole (day, sample) grid evenly instead of whole days.
    //! Results stay **bit-identical to the sequential path**:
    //!
    //! - every evaluation draws shot noise from its own stream, derived
    //!   only from `(shot_seed, stream)` — the stream
    //!   [`NoisyExecutor::z_scores_seeded`] takes — never from execution
    //!   order, lane, or chunk;
    //! - results are written back by probe index, so ordering is
    //!   deterministic regardless of thread interleaving.
    //!
    //! Consequently `threads = 1` and `threads = N` produce the same bits,
    //! which [`batch_z_scores`]'s contract (and the workspace's
    //! `parallel_identity` integration test) guarantees. The guarantee
    //! holds for **both** simulation backends: the trajectory engine seeds
    //! its jump stream from `(shot_seed, stream)` alone, never from
    //! execution order (see `tests/backend_consistency.rs`).
    //!
    //! Thread count selection: [`worker_threads`] honours the
    //! `QUCAD_THREADS` environment variable and falls back to
    //! [`std::thread::available_parallelism`].
    //!
    //! [`map_chunks`] clones nothing: the workers share the executor by
    //! reference ([`NoisyExecutor`] is compiled state only, `Send +
    //! Sync`), and each worker makes its own scratch inside the closure —
    //! the engine's [`quasim::density::SimWorkspace`] (the density-matrix
    //! storage and lane panels), lane operand tables and
    //! [`quasim::trajectory::TrajectoryPanel`], or the gradient sweeps'
    //! state-vector panels. Storage is therefore allocated once per
    //! worker per call and reset in place between the probes of its chunk.

    use super::{NoisyExecutor, ProbeBatch};
    use crate::data::Sample;
    use crate::loss::{accuracy, predict};
    use calibration::snapshot::CalibrationSnapshot;
    use std::ops::Range;

    /// Number of worker threads the batch evaluators should use:
    /// `QUCAD_THREADS` if set, otherwise the machine's available
    /// parallelism.
    ///
    /// # Panics
    ///
    /// Panics if `QUCAD_THREADS` is set to anything but a positive
    /// integer — `0`, garbage, and whitespace-only values are deployment
    /// typos and must not silently demote to the machine default (the
    /// same contract `QUCAD_TRAJ_BATCH` enforces).
    pub fn worker_threads() -> usize {
        // qucad-lint: allow(env-read) — audited entry point: worker thread count
        match std::env::var("QUCAD_THREADS") {
            Ok(v) => quasim::config::parse_positive("QUCAD_THREADS", &v),
            Err(_) => std::thread::available_parallelism().map_or(1, std::num::NonZero::get),
        }
    }

    /// Combines a day-level stream with a sample index into the evaluation
    /// stream id passed to [`NoisyExecutor::z_scores_seeded`].
    pub fn eval_stream(day_stream: u64, sample_index: u64) -> u64 {
        day_stream
            .wrapping_mul(0x2545_F491_4F6C_DD1D)
            .wrapping_add(sample_index)
    }

    /// Derives the stream base of one training probe from its position:
    /// the day-level stream, the global step index, and the probe slot
    /// within the step (0 = base loss; finite differences use `1 + 2i` /
    /// `2 + 2i` for the ±shift of weight `i`; SPSA uses 1 / 2 for its ±
    /// perturbations). Combine with [`eval_stream`] per batch sample.
    ///
    /// Purely positional — no shared counter — so batched and sequential
    /// gradient evaluations assign every probe the identical stream
    /// regardless of evaluation order, which is what makes the training
    /// loops' bit-identity contract hold across thread counts.
    pub fn probe_stream(day_stream: u64, step: u64, slot: u64) -> u64 {
        super::mix_stream(super::mix_stream(day_stream, step), slot)
    }

    /// Per-sample `⟨Z⟩` scores of `samples` under `snapshot`: one
    /// [`ProbeBatch`] through [`NoisyExecutor::evaluate_probes`] on
    /// `threads` workers.
    ///
    /// Result `i` is always computed on stream
    /// `eval_stream(day_stream, i)`, so the output is bit-identical for
    /// every `threads` value (1 reproduces the plain sequential loop) and
    /// results arrive in sample order.
    pub fn batch_z_scores(
        exec: &NoisyExecutor,
        samples: &[Sample],
        weights: &[f64],
        snapshot: &CalibrationSnapshot,
        day_stream: u64,
        threads: usize,
    ) -> Vec<Vec<f64>> {
        let mut batch = ProbeBatch::with_capacity(samples.len());
        for (i, s) in samples.iter().enumerate() {
            batch.push(&s.features, weights, eval_stream(day_stream, i as u64));
        }
        exec.evaluate_probes(snapshot, &batch, threads)
    }

    /// Classification accuracy of `weights` on `samples` under `snapshot`,
    /// evaluated batch-parallel. Deterministic per `day_stream` (see
    /// [`batch_z_scores`]).
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn batch_accuracy(
        exec: &NoisyExecutor,
        samples: &[Sample],
        weights: &[f64],
        snapshot: &CalibrationSnapshot,
        day_stream: u64,
        threads: usize,
    ) -> f64 {
        assert!(!samples.is_empty(), "empty evaluation set");
        let preds: Vec<usize> =
            batch_z_scores(exec, samples, weights, snapshot, day_stream, threads)
                .iter()
                .map(|z| predict(z))
                .collect();
        let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
        accuracy(&preds, &labels)
    }

    /// Accuracy of one weight vector over many days (the outer loop of the
    /// paper's protocol for the static Table I methods): one day-spanning
    /// [`ProbeBatch`] over every (day, sample) pair through
    /// [`NoisyExecutor::evaluate_probes_over_days`] on `threads` workers,
    /// so the whole grid — not whole days — is split over the workers.
    ///
    /// Day `d` uses `day_stream = d`: sample `i` of day `d` runs on stream
    /// [`eval_stream`]`(d, i)` under `days[d]` — exactly what per-day
    /// [`batch_accuracy`] calls with `day_stream = d` produce, so the
    /// series is bit-identical to them for every `threads`.
    ///
    /// # Panics
    ///
    /// Panics if `samples` is empty.
    pub fn accuracy_over_days(
        exec: &NoisyExecutor,
        days: &[&CalibrationSnapshot],
        samples: &[Sample],
        weights: &[f64],
        threads: usize,
    ) -> Vec<f64> {
        assert!(!samples.is_empty(), "empty evaluation set");
        let mut batch = ProbeBatch::with_capacity(days.len() * samples.len());
        for d in 0..days.len() {
            for (i, s) in samples.iter().enumerate() {
                batch.push_on_day(d, &s.features, weights, eval_stream(d as u64, i as u64));
            }
        }
        let labels: Vec<usize> = samples.iter().map(|s| s.label).collect();
        exec.evaluate_probes_over_days(days, &batch, threads)
            .chunks(samples.len())
            .map(|day| {
                let preds: Vec<usize> = day.iter().map(|z| predict(z)).collect();
                accuracy(&preds, &labels)
            })
            .collect()
    }

    /// Maps contiguous chunks of `0..n` over up to `threads` scoped worker
    /// threads and concatenates their results in index order — the one
    /// fan-out every batch evaluator here uses.
    ///
    /// `f(range)` must return one result per index of `range`; a worker
    /// that needs scratch makes it inside `f`, once per chunk. With
    /// `threads <= 1` or `n <= 1`, `f` runs once on the calling thread.
    /// Because results are placed by index, any reduction the caller runs
    /// over them in index order is bit-identical for every `threads`.
    ///
    /// # Panics
    ///
    /// Panics if a worker panics or returns the wrong number of results.
    pub fn map_chunks<T, F>(n: usize, threads: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> Vec<T> + Sync,
    {
        if threads <= 1 || n <= 1 {
            return f(0..n);
        }
        let chunk = n.div_ceil(threads);
        let out: Vec<T> = std::thread::scope(|scope| {
            let f = &f;
            let handles: Vec<_> = (0..n)
                .step_by(chunk)
                .map(|start| scope.spawn(move || f(start..(start + chunk).min(n))))
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("parallel worker panicked"))
                .collect()
        });
        assert_eq!(out.len(), n, "map_chunks: one result per index");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::PI;

    fn setup() -> (VqcModel, Topology, NoisyExecutor) {
        let model = VqcModel::paper_model(4, 4, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
        (model, topo, exec)
    }

    #[test]
    fn zero_noise_matches_pure_execution() {
        let (model, topo, exec) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 0.0, 0.0, 0.0);
        let weights = model.init_weights(3);
        let features = [0.2, 0.7, 1.1, 2.0];
        let z_noisy = exec.z_scores_seeded(&features, &weights, &snap, 0);
        let z_pure = pure_z_scores(&model, &features, &weights);
        for (a, b) in z_noisy.iter().zip(z_pure.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn noise_shrinks_z_scores_toward_zero() {
        let (model, topo, exec) = setup();
        let weights = model.init_weights(7);
        let features = [0.5, 1.0, 1.5, 2.0];
        let clean = CalibrationSnapshot::uniform(&topo, 0, 0.0, 0.0, 0.0);
        let noisy = CalibrationSnapshot::uniform(&topo, 0, 5e-3, 5e-2, 0.05);
        let z0 = exec.z_scores_seeded(&features, &weights, &clean, 0);
        let z1 = exec.z_scores_seeded(&features, &weights, &noisy, 0);
        let m0: f64 = z0.iter().map(|z| z.abs()).sum();
        let m1: f64 = z1.iter().map(|z| z.abs()).sum();
        assert!(m1 < m0, "noise should contract signals: {m1} !< {m0}");
    }

    #[test]
    fn compressed_weights_suffer_less_noise() {
        let (model, topo, exec) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 4e-2, 0.0);
        let features = [0.0; 4];
        // All weights at a generic angle vs all at compression level 0.
        // Routing-inserted SWAPs stay either way (the routed structure is
        // fixed), so compare deviation from the ideal z = +1 signature of
        // the identity ansatz, which only the compressed circuit approaches.
        let generic = vec![0.9; model.n_weights()];
        let compressed = vec![0.0; model.n_weights()];
        let dev = |z: &[f64]| -> f64 { z.iter().map(|v| (v - 1.0).abs()).sum() };
        let z_cmp = exec.z_scores_seeded(&features, &compressed, &snap, 0);
        let z_gen = exec.z_scores_seeded(&features, &generic, &snap, 0);
        assert!(
            dev(&z_cmp) < dev(&z_gen),
            "compressed {z_cmp:?} should deviate less than generic {z_gen:?}"
        );
        // And the compressed circuit is strictly shorter.
        assert!(
            exec.circuit_length(&features, &compressed) < exec.circuit_length(&features, &generic)
        );
    }

    #[test]
    fn readout_error_flips_scores() {
        let (model, topo, exec) = setup();
        let mut snap = CalibrationSnapshot::uniform(&topo, 0, 0.0, 0.0, 0.0);
        for r in &mut snap.readout {
            *r = quasim::noise::ReadoutError::new(0.5, 0.5);
        }
        let weights = vec![0.0; model.n_weights()];
        let z = exec.z_scores_seeded(&[0.0; 4], &weights, &snap, 0);
        // Fully random readout → z = 0.
        for v in z {
            assert!(v.abs() < 1e-9);
        }
    }

    #[test]
    fn circuit_length_drops_under_compression() {
        let (model, _, exec) = setup();
        let generic = vec![1.234; model.n_weights()];
        let mut half = generic.clone();
        for w in half.iter_mut().take(model.n_weights() / 2) {
            *w = 0.0;
        }
        let f = [0.3; 4];
        assert!(exec.circuit_length(&f, &half) < exec.circuit_length(&f, &generic));
        let levels: Vec<f64> = (0..model.n_weights()).map(|_| PI).collect();
        assert!(exec.circuit_length(&f, &levels) < exec.circuit_length(&f, &generic));
    }

    #[test]
    fn trajectory_backend_zero_noise_matches_pure() {
        // With every λ = 0 no stochastic atom is emitted, so a single
        // trajectory is exact and must match the pure path like the
        // density backend does.
        let model = VqcModel::paper_model(4, 4, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(
            &model,
            &topo,
            NoiseOptions {
                backend: SimBackend::Trajectory,
                readout: false,
                ..NoiseOptions::default()
            },
        );
        let snap = CalibrationSnapshot::uniform(&topo, 0, 0.0, 0.0, 0.0);
        let weights = model.init_weights(3);
        let features = [0.2, 0.7, 1.1, 2.0];
        let z_traj = exec.z_scores_seeded(&features, &weights, &snap, 0);
        let z_pure = pure_z_scores(&model, &features, &weights);
        for (a, b) in z_traj.iter().zip(z_pure.iter()) {
            assert!((a - b).abs() < 1e-9, "{a} vs {b}");
        }
    }

    #[test]
    fn trajectory_backend_is_seed_deterministic() {
        let (model, topo, _) = setup();
        let exec = NoisyExecutor::new(
            &model,
            &topo,
            NoiseOptions {
                backend: SimBackend::Trajectory,
                trajectories: 32,
                ..NoiseOptions::default()
            },
        );
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let weights = model.init_weights(5);
        let features = [0.4, 0.9, 1.3, 0.2];
        let a = exec.z_scores_seeded(&features, &weights, &snap, 7);
        let b = exec.z_scores_seeded(&features, &weights, &snap, 7);
        assert_eq!(a, b, "same stream must replay the same trajectories");
        let c = exec.z_scores_seeded(&features, &weights, &snap, 8);
        assert_ne!(a, c, "different streams must decorrelate");
    }

    #[test]
    fn program_cache_rebinds_same_structure_and_stays_bit_identical() {
        let (model, topo, exec) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let weights = model.init_weights(5);
        // Distinct generic-angle feature vectors share one structure:
        // after the first compile every evaluation is a cache hit.
        let feature_sets: Vec<[f64; 4]> = (0..6)
            .map(|i| [0.2 + 0.1 * i as f64, 0.7, 1.1 + 0.05 * i as f64, 2.0])
            .collect();
        let mut cached = Vec::new();
        for f in &feature_sets {
            cached.push(exec.z_scores_seeded(f, &weights, &snap, 3));
        }
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, 1, "one structure, one miss");
        assert_eq!(stats.hits, 5);
        // A fresh executor compiles each evaluation from a cold cache; the
        // scores must match the warm-cache run bit for bit.
        for (f, want) in feature_sets.iter().zip(cached.iter()) {
            let fresh = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
            let got = fresh.z_scores_seeded(f, &weights, &snap, 3);
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn program_cache_separates_compressed_structures() {
        let (model, topo, exec) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let features = [0.3, 0.8, 1.2, 2.1];
        let generic = vec![0.9; model.n_weights()];
        let mut compressed = generic.clone();
        compressed[0] = 0.0; // drops an op → different structure
        let _ = exec.z_scores_seeded(&features, &generic, &snap, 0);
        let _ = exec.z_scores_seeded(&features, &compressed, &snap, 0);
        let _ = exec.z_scores_seeded(&features, &generic, &snap, 1);
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, 2, "two structures");
        assert_eq!(stats.hits, 1);
    }

    #[test]
    fn cache_rebinds_across_days_bit_identically() {
        // Same structure, different snapshots: the λ rebind must match a
        // cold compile under each day's calibration.
        let (model, topo, exec) = setup();
        let weights = model.init_weights(4);
        let features = [0.4, 0.9, 1.3, 0.2];
        let days: Vec<CalibrationSnapshot> = (0..4)
            .map(|d| CalibrationSnapshot::uniform(&topo, d, 1e-4 * (d + 1) as f64, 1e-2, 0.01))
            .collect();
        let warm: Vec<Vec<f64>> = days
            .iter()
            .map(|s| exec.z_scores_seeded(&features, &weights, s, 9))
            .collect();
        for (s, want) in days.iter().zip(warm.iter()) {
            let fresh = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
            let got = fresh.z_scores_seeded(&features, &weights, s, 9);
            for (a, b) in got.iter().zip(want.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        assert_eq!(exec.cache_stats().misses, 1);
    }

    #[test]
    fn probe_batch_matches_seeded_evaluations_bitwise() {
        // Density with shots: every probe must reproduce its standalone
        // seeded evaluation exactly, across structures, shapes, lane
        // widths and thread counts.
        let model = VqcModel::paper_model(4, 4, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::with_shots(1024, 17));
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let f_a = [0.4, 0.9, 1.3, 0.2];
        let f_b = [1.7, 0.3, 2.2, 0.8];
        let base = model.init_weights(5);
        // Generic-angle nudges of `base` keep its structure and its fused
        // shape, like SPSA ± probes.
        let nudged: Vec<Vec<f64>> = (1..=6)
            .map(|k| base.iter().map(|w| w + 0.01 * k as f64).collect())
            .collect();
        let mut compressed = base.clone();
        compressed[2] = 0.0; // second structure: identity-crossing probe
        let mut probes: Vec<(&[f64], &[f64])> = vec![(&f_a, &base)];
        probes.extend(nudged.iter().map(|w| (&f_a[..], w.as_slice())));
        probes.extend([
            (&f_b[..], base.as_slice()),
            (&f_a, &compressed),
            (&f_b, &nudged[0]),
            (&f_a, &compressed),
            (&f_b, &nudged[1]),
            (&f_b, &compressed),
        ]);
        let shape = |(f, w): (&[f64], &[f64])| exec.compile_program(f, w, &snap).1;
        let bucket = |first: usize| {
            let of = shape(probes[first]);
            probes.iter().filter(|&&p| shape(p).same_shape(&of)).count()
        };
        // One thread sees two shape buckets: 10 probes of `base`'s
        // structure (4 + 4 + 2 lanes) and 3 compressed ones (2 + 1).
        assert_eq!(bucket(0), 10);
        assert_eq!(bucket(8), 3);
        let mut batch = ProbeBatch::new();
        for (s, &(f, w)) in probes.iter().enumerate() {
            batch.push(f, w, s as u64);
        }
        let want: Vec<Vec<f64>> = batch
            .probes()
            .iter()
            .map(|p| exec.z_scores_seeded(p.features, p.weights, &snap, p.stream))
            .collect();
        for threads in [1usize, 2, 3, 16] {
            let got = exec.evaluate_probes(&snap, &batch, threads);
            assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(want.iter()) {
                assert_eq!(g.len(), w.len());
                for (a, b) in g.iter().zip(w.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "threads {threads}");
                }
            }
        }
    }

    #[test]
    fn day_spanning_batch_matches_seeded_evaluations_bitwise() {
        // Probes on four days, several of them bitwise-equal (features,
        // weights) on different days: day 1 differs from day 0 only in
        // readout, day 2 only in gate errors, and day 3 has a qubit with a
        // zero error rate, so its programs lack that qubit's channels and
        // do not fit a template built on another day: they fall back to a
        // full fuse inside the batch. Every probe must reproduce its
        // standalone evaluation under its own day, so a bind + fuse shared
        // across days, a λ or readout taken from the wrong day (or lane),
        // or a fallback that skips its probe breaks the bits.
        let model = VqcModel::paper_model(4, 4, 4, 1);
        let topo = Topology::ibm_belem();
        let mut clean_q1 = CalibrationSnapshot::uniform(&topo, 3, 2e-3, 3e-2, 0.02);
        clean_q1.single_qubit_error[1] = 0.0;
        let days = [
            CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02),
            CalibrationSnapshot::uniform(&topo, 1, 2e-3, 3e-2, 0.09),
            CalibrationSnapshot::uniform(&topo, 2, 2e-2, 1.5e-1, 0.02),
            clean_q1,
        ];
        let day_refs: Vec<&CalibrationSnapshot> = days.iter().collect();
        let f_a = [0.4, 0.9, 1.3, 0.2];
        let f_b = [1.7, 0.3, 2.2, 0.8];
        let base = model.init_weights(5);
        let nudged: Vec<f64> = base.iter().map(|w| w + 0.01).collect();
        let mut compressed = base.clone();
        compressed[2] = 0.0;
        let probes: [(usize, &[f64], &[f64]); 13] = [
            (0, &f_a, &base),
            (1, &f_a, &base),
            (2, &f_a, &base),
            (3, &f_a, &base),
            (2, &f_a, &base),
            (0, &f_b, &nudged),
            (2, &f_b, &nudged),
            (3, &f_b, &nudged),
            (1, &f_a, &compressed),
            (0, &f_a, &compressed),
            (3, &f_a, &compressed),
            (1, &f_b, &base),
            (0, &f_a, &base),
        ];
        let mut batch = ProbeBatch::new();
        for (s, &(day, f, w)) in probes.iter().enumerate() {
            batch.push_on_day(day, f, w, 40 + s as u64);
        }
        for backend in [SimBackend::Density, SimBackend::Trajectory] {
            let exec = NoisyExecutor::new(
                &model,
                &topo,
                NoiseOptions {
                    backend,
                    trajectories: 24,
                    ..NoiseOptions::with_shots(1024, 17)
                },
            );
            let want: Vec<Vec<f64>> = batch
                .probes()
                .iter()
                .map(|p| exec.z_scores_seeded(p.features, p.weights, &days[p.day], p.stream))
                .collect();
            for threads in [1usize, 2, 3, 16] {
                let before = exec.cache_stats();
                let got = exec.evaluate_probes_over_days(&day_refs, &batch, threads);
                let after = exec.cache_stats();
                if backend == SimBackend::Density {
                    // The templates exist (the seeded calls built them on
                    // days 0 and 1); the three day-3 probes fall back.
                    assert_eq!(after.fuses - before.fuses, 3, "threads {threads}");
                    assert_eq!(after.patches - before.patches, 10, "threads {threads}");
                }
                assert_eq!(got.len(), want.len());
                for (i, (g, w)) in got.iter().zip(want.iter()).enumerate() {
                    assert_eq!(g.len(), w.len());
                    for (a, b) in g.iter().zip(w.iter()) {
                        assert_eq!(
                            a.to_bits(),
                            b.to_bits(),
                            "{} probe {i} threads {threads}",
                            backend.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probe on day 1 of a 1-day batch")]
    fn one_day_evaluation_rejects_probes_on_other_days() {
        let (model, topo, exec) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let weights = model.init_weights(5);
        let mut batch = ProbeBatch::new();
        batch.push_on_day(1, &[0.1; 4], &weights, 0);
        let _ = exec.evaluate_probes(&snap, &batch, 1);
    }

    #[test]
    fn probe_batch_trajectory_packing_matches_seeded_evaluations() {
        // Trajectory backend: repeated identical weight vectors ride shared
        // panel sweeps yet reproduce their standalone evaluations exactly.
        let model = VqcModel::paper_model(4, 4, 4, 1);
        let topo = Topology::ibm_belem();
        let exec = NoisyExecutor::new(
            &model,
            &topo,
            NoiseOptions {
                backend: SimBackend::Trajectory,
                trajectories: 24,
                ..NoiseOptions::with_shots(512, 9)
            },
        );
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let features = [0.4, 0.9, 1.3, 0.2];
        let w_a = model.init_weights(5);
        let w_b = model.init_weights(6);
        let mut batch = ProbeBatch::with_capacity(6);
        // Two packed runs (same weights, distinct streams) plus a lone probe.
        for (s, w) in [&w_a, &w_a, &w_a, &w_b, &w_b, &w_a].iter().enumerate() {
            batch.push(&features, w, 100 + s as u64);
        }
        let got = exec.evaluate_probes(&snap, &batch, 1);
        for (p, g) in batch.probes().iter().zip(got.iter()) {
            let want = exec.z_scores_seeded(p.features, p.weights, &snap, p.stream);
            for (a, b) in g.iter().zip(want.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn probe_batch_counts_cache_traffic_per_group() {
        let (model, topo, exec) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let features = [0.4, 0.9, 1.3, 0.2];
        let base = model.init_weights(5);
        let mut compressed = base.clone();
        compressed[0] = 0.0;
        let mut batch = ProbeBatch::new();
        for (s, w) in [&base, &compressed, &base, &base].iter().enumerate() {
            batch.push(&features, w, s as u64);
        }
        let _ = exec.evaluate_probes(&snap, &batch, 1);
        let stats = exec.cache_stats();
        // One miss per structure group; re-binds within a group are not
        // separate lookups.
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 0);
        let _ = exec.evaluate_probes(&snap, &batch, 1);
        let stats = exec.cache_stats();
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.hits, 2, "warm batch: one hit per group");
    }

    #[test]
    fn spsa_batch_counts_one_fuse_per_structure_and_a_patch_per_probe() {
        // An SPSA step's batch: 12 feature vectors, each at w + δ and
        // w − δ, all of one structure, on one day.
        let (model, topo, _) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let base = model.init_weights(5);
        let plus: Vec<f64> = base.iter().map(|w| w + 0.05).collect();
        let minus: Vec<f64> = base.iter().map(|w| w - 0.05).collect();
        let features: Vec<Vec<f64>> = (0..12)
            .map(|s| (0..4).map(|k| 0.3 + 0.17 * (s * 4 + k) as f64).collect())
            .collect();
        let mut batch = ProbeBatch::with_capacity(24);
        for (s, f) in features.iter().enumerate() {
            batch.push(f, &plus, 2 * s as u64);
            batch.push(f, &minus, 2 * s as u64 + 1);
        }
        let stats = |hits, misses, fuses, patches| ProgramCacheStats {
            hits,
            misses,
            fuses,
            patches,
        };
        for threads in [1usize, 2, 16] {
            let exec = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
            let _ = exec.evaluate_probes(&snap, &batch, threads);
            // Cold: one route and one template fuse, every probe patched.
            assert_eq!(exec.cache_stats(), stats(0, 1, 1, 24), "threads {threads}");
            let _ = exec.evaluate_probes(&snap, &batch, threads);
            // Warm: no compile, no fuse.
            assert_eq!(exec.cache_stats(), stats(1, 1, 1, 48), "threads {threads}");
        }
    }

    /// Weight vector with the low `bits` weights zeroed per `mask`'s bits:
    /// distinct masks put distinct gate subsets on the identity class, so
    /// each mask is its own structure key.
    fn mask_weights(n: usize, mask: u32, bits: u32) -> Vec<f64> {
        (0..n)
            .map(|j| {
                if (j as u32) < bits && mask & (1 << j) != 0 {
                    0.0
                } else {
                    0.9
                }
            })
            .collect()
    }

    #[test]
    fn cache_sustains_hit_rate_beyond_capacity_round_robin() {
        const WORKING_SET: usize = 300;
        let (model, _, exec) = setup();
        let features = [0.3; 4];
        let n = model.n_weights();
        assert!(
            n >= 9,
            "need 9 maskable weights for 300 distinct structures"
        );
        // Pass 1: cold — every structure compiles.
        for i in 0..WORKING_SET {
            exec.circuit_length(&features, &mask_weights(n, i as u32, 9));
        }
        let cold = exec.cache_stats();
        assert_eq!(cold.misses, WORKING_SET as u64);
        assert_eq!(cold.hits, 0);
        // Warm passes: the old clear-at-cap scheme collapsed any >cap
        // round-robin to ~0% hits every generation; stale-only eviction
        // plus admission denial must keep every resident structure warm
        // (cap / working set ≈ 85% here), pass after pass.
        for pass in 0..2 {
            let before = exec.cache_stats();
            for i in 0..WORKING_SET {
                exec.circuit_length(&features, &mask_weights(n, i as u32, 9));
            }
            let after = exec.cache_stats();
            let hits = after.hits - before.hits;
            assert!(
                hits >= 250,
                "warm pass {pass}: {hits}/{WORKING_SET} hits (cache thrash regression)"
            );
        }
        assert!(exec.cache_handle().resident_structures() <= MAX_CACHED_STRUCTURES);
    }

    #[test]
    fn one_executor_is_shared_across_threads_by_reference() {
        // Compile-time: an executor is compiled state only, so threads
        // borrow it instead of each cloning their own.
        fn shared<T: Send + Sync>() {}
        shared::<NoisyExecutor>();
        let (model, topo, exec) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let weights = model.init_weights(5);
        let features = [[0.4, 0.9, 1.3, 0.2], [1.7, 0.3, 2.2, 0.8]];
        let got: Vec<Vec<f64>> = std::thread::scope(|scope| {
            let handles: Vec<_> = features
                .iter()
                .map(|f| scope.spawn(|| exec.z_scores_seeded(f, &weights, &snap, 3)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("join"))
                .collect()
        });
        for (f, z) in features.iter().zip(&got) {
            let fresh = NoisyExecutor::new(&model, &topo, NoiseOptions::default());
            let want = fresh.z_scores_seeded(f, &weights, &snap, 3);
            assert!(z.iter().zip(&want).all(|(a, b)| a.to_bits() == b.to_bits()));
        }
    }

    #[test]
    fn clones_share_one_cache_and_aggregate_stats() {
        let (model, _, exec) = setup();
        let features = [0.3; 4];
        let weights = vec![0.7; model.n_weights()];
        let clone = exec.clone();
        clone.circuit_length(&features, &weights);
        // The clone's compile warms the original: the same key hits here.
        exec.circuit_length(&features, &weights);
        let stats = exec.cache_stats();
        assert_eq!(
            stats,
            clone.cache_stats(),
            "counters are shared, not per-clone"
        );
        assert_eq!(stats.misses, 1);
        assert_eq!(stats.hits, 1);
        assert_eq!(exec.cache_handle().resident_structures(), 1);
    }

    #[test]
    fn stale_entries_evicted_for_a_shifted_working_set() {
        let (model, _, exec) = setup();
        let features = [0.3; 4];
        let n = model.n_weights();
        for i in 0..MAX_CACHED_STRUCTURES {
            exec.circuit_length(&features, &mask_weights(n, i as u32, 9));
        }
        assert_eq!(
            exec.cache_handle().resident_structures(),
            MAX_CACHED_STRUCTURES
        );
        // Keep one key hot while the logical clock advances two full
        // generations: every other resident entry goes stale.
        let hot = mask_weights(n, 0, 9);
        for _ in 0..(2 * GENERATION_LOOKUPS + 10) {
            exec.circuit_length(&features, &hot);
        }
        // A genuinely new structure now evicts the stale entries and is
        // admitted; the hot key survives eviction.
        let newcomer = mask_weights(n, 300, 9);
        exec.circuit_length(&features, &newcomer);
        let before = exec.cache_stats();
        exec.circuit_length(&features, &newcomer);
        exec.circuit_length(&features, &hot);
        let after = exec.cache_stats();
        assert_eq!(
            after.hits - before.hits,
            2,
            "newcomer admitted and hot key retained"
        );
        assert_eq!(exec.cache_handle().resident_structures(), 2);
    }

    #[test]
    fn trajectory_compile_precomposes_density_does_not() {
        let (model, topo, density_exec) = setup();
        let snap = CalibrationSnapshot::uniform(&topo, 0, 2e-3, 3e-2, 0.02);
        let weights = model.init_weights(5);
        let features = [0.4, 0.9, 1.3, 0.2];
        let (_, plain) = density_exec.compile_program(&features, &weights, &snap);
        assert!(!plain.is_precomposed());
        let traj_exec = NoisyExecutor::new(
            &model,
            &topo,
            NoiseOptions {
                backend: SimBackend::Trajectory,
                ..NoiseOptions::default()
            },
        );
        let (_, pre) = traj_exec.compile_program(&features, &weights, &snap);
        // The trajectory arm is exactly the density program post-composed
        // (whether or not this circuit offers a composable run), and the
        // stochastic stream is untouched either way.
        assert_eq!(pre, plain.precompose());
        assert_eq!(pre.n_stochastic_atoms(), plain.n_stochastic_atoms());
    }

    #[test]
    fn backend_parse_roundtrip() {
        for b in [SimBackend::Density, SimBackend::Trajectory] {
            assert_eq!(SimBackend::parse(b.name()), Some(b));
        }
        assert_eq!(SimBackend::parse(" Traj "), Some(SimBackend::Trajectory));
        assert_eq!(SimBackend::parse("statevector"), None);
    }

    #[test]
    #[should_panic(expected = "snapshot does not match")]
    fn snapshot_topology_mismatch_detected() {
        let (model, _, exec) = setup();
        let other = Topology::ibm_jakarta();
        let snap = CalibrationSnapshot::uniform(&other, 0, 0.0, 0.0, 0.0);
        let _ = exec.z_scores_seeded(&[0.0; 4], &vec![0.0; model.n_weights()], &snap, 0);
    }
}
