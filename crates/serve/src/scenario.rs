//! The serving scenario: the warm state one `qucad-serve` process owns.
//!
//! A scenario is **fully determined by `(device, days, seed)`** plus the
//! process environment (`QUCAD_BACKEND`, `QUCAD_TRAJ_BATCH`): model,
//! topology, calibration history, noise options, and the model
//! repository are all derived deterministically. That is the protocol's
//! bit-identity anchor — a client (or the `qucad_load` verifier) builds
//! the *same* scenario locally and checks every served z-score against a
//! direct [`NoisyExecutor`] call, bit for bit.

use calibration::history::{FluctuatingHistory, HistoryConfig};
use calibration::snapshot::CalibrationSnapshot;
use calibration::topology::Topology;
use qnn::executor::{NoiseOptions, NoisyExecutor, ProgramCacheHandle, SimBackend};
use qnn::model::VqcModel;
use qucad::repository::{ModelRepository, RepositoryEntry};
use transpile::expand::ANGLE_TOL;
use transpile::template::{structure_key, StructureKey};

/// Trajectories per evaluation when the trajectory backend is selected.
const TRAJECTORIES: u32 = 64;

/// Calibration-to-depolarising scale (the bench default).
const NOISE_SCALE: f64 = 3.0;

/// Measurement shots per evaluation.
const SHOTS: u64 = 1024;

/// The deterministic warm state of one serving process.
#[derive(Debug, Clone)]
pub struct ServeScenario {
    /// Device name this scenario was built for.
    pub device: String,
    /// The device topology.
    pub topology: Topology,
    /// The model every tenant evaluates (structure varies per request
    /// through its bound parameters).
    pub model: VqcModel,
    /// Calibration snapshots; a request's `day` indexes this history.
    pub snapshots: Vec<CalibrationSnapshot>,
    /// The shared model repository served by `MatchModel` requests.
    pub repository: ModelRepository,
    /// Noise options of every evaluation (backend comes from
    /// `QUCAD_BACKEND`, so the CI matrix drives both engines).
    pub options: NoiseOptions,
}

impl ServeScenario {
    /// Builds the scenario for `device` (`"belem"` or `"jakarta"`) with
    /// `days` calibration days drawn from the device's fluctuation model
    /// at `seed`.
    ///
    /// # Panics
    ///
    /// Panics on an unknown device name or `days == 0`.
    pub fn build(device: &str, days: usize, seed: u64) -> Self {
        assert!(days > 0, "scenario needs at least one calibration day");
        let topology = match device {
            "belem" => Topology::ibm_belem(),
            "jakarta" => Topology::ibm_jakarta(),
            other => panic!("unknown serve device '{other}' (expected belem or jakarta)"),
        };
        let config = HistoryConfig::for_topology(&topology, days, seed);
        let model = VqcModel::paper_model(4, 3, 4, 1);
        // offline_days = 0: the whole history is online-addressable by
        // request day; the repository below stands in for the offline
        // constructor's output.
        let history = FluctuatingHistory::generate(&topology, &config, 0);
        let snapshots = history.online().to_vec();
        let repository = Self::build_repository(&model, &snapshots);
        let options = NoiseOptions {
            scale: NOISE_SCALE,
            backend: SimBackend::from_env(),
            trajectories: TRAJECTORIES,
            ..NoiseOptions::with_shots(SHOTS, seed)
        };
        ServeScenario {
            device: device.to_string(),
            topology,
            model,
            snapshots,
            repository,
            options,
        }
    }

    /// A small deterministic repository: one entry per early calibration
    /// day, centred on that day's feature vector. The threshold is the
    /// mean pairwise centroid distance, so nearby queries hit and distant
    /// ones miss — enough structure for the match path to exercise all
    /// three outcomes.
    fn build_repository(model: &VqcModel, snapshots: &[CalibrationSnapshot]) -> ModelRepository {
        let n_entries = snapshots.len().min(3);
        let centroids: Vec<Vec<f64>> = snapshots[..n_entries]
            .iter()
            .map(CalibrationSnapshot::feature_vector)
            .collect();
        let dim = centroids[0].len();
        let weights = vec![1.0; dim];
        let mut pair_sum = 0.0;
        let mut pairs = 0u32;
        for i in 0..centroids.len() {
            for j in (i + 1)..centroids.len() {
                pair_sum += qucad::cluster::weighted_l1(&weights, &centroids[i], &centroids[j]);
                pairs += 1;
            }
        }
        let threshold = if pairs == 0 {
            1.0
        } else {
            pair_sum / f64::from(pairs)
        };
        let mut repo = ModelRepository::new(weights, threshold, Some(0.5));
        for (d, centroid) in centroids.into_iter().enumerate() {
            repo.push(RepositoryEntry {
                centroid,
                weights: (0..model.n_weights())
                    .map(|w| 0.05 * (d + 1) as f64 + 0.01 * w as f64)
                    .collect(),
                // One deliberately invalid cluster so Guidance 2 is
                // reachable over the wire.
                mean_accuracy: Some(if d == 1 { 0.4 } else { 0.9 }),
                origin_day: d,
            });
        }
        repo
    }

    /// Number of input features per request.
    pub fn n_features(&self) -> usize {
        4
    }

    /// A fresh executor on this scenario on `cache` (the server builds
    /// one and its workers share it; clients build one with a private
    /// cache for verification).
    pub fn executor(&self, cache: ProgramCacheHandle) -> NoisyExecutor {
        NoisyExecutor::with_shared_cache(&self.model, &self.topology, self.options, cache)
    }

    /// The batch-group identity of a request: the structure key of the
    /// fully bound circuit. The day is not part of it, since one engine
    /// call runs every probe under its own day.
    pub fn group_key(&self, features: &[f64], weights: &[f64]) -> StructureKey {
        let full = self.model.full_params(features, weights);
        structure_key(self.model.circuit(), &full, ANGLE_TOL)
    }

    /// Validates an eval request body against this scenario. The error
    /// string goes back to the client verbatim.
    pub fn validate_eval(&self, day: u32, features: &[f64], weights: &[f64]) -> Result<(), String> {
        if day as usize >= self.snapshots.len() {
            return Err(format!(
                "day {day} out of range (scenario has {} days)",
                self.snapshots.len()
            ));
        }
        if features.len() != self.n_features() {
            return Err(format!(
                "expected {} features, got {}",
                self.n_features(),
                features.len()
            ));
        }
        if weights.len() != self.model.n_weights() {
            return Err(format!(
                "expected {} weights, got {}",
                self.model.n_weights(),
                weights.len()
            ));
        }
        if !features.iter().chain(weights.iter()).all(|v| v.is_finite()) {
            return Err("features and weights must be finite".to_string());
        }
        Ok(())
    }

    /// Validates a match request body (the repository rejects non-finite
    /// features by contract; the server maps that onto an error response
    /// instead of a worker panic).
    pub fn validate_match(&self, features: &[f64]) -> Result<(), String> {
        if features.len() != self.repository.distance_weights().len() {
            return Err(format!(
                "expected {} calibration features, got {}",
                self.repository.distance_weights().len(),
                features.len()
            ));
        }
        if !features.iter().all(|v| v.is_finite()) {
            return Err("calibration features must be finite".to_string());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scenario_is_deterministic_for_fixed_inputs() {
        let a = ServeScenario::build("belem", 4, 11);
        let b = ServeScenario::build("belem", 4, 11);
        assert_eq!(a.snapshots.len(), 4);
        for (x, y) in a.snapshots.iter().zip(b.snapshots.iter()) {
            assert_eq!(x.feature_vector(), y.feature_vector());
        }
        assert_eq!(a.repository, b.repository);
    }

    #[test]
    fn validation_rejects_malformed_requests() {
        let s = ServeScenario::build("belem", 2, 5);
        let w = vec![0.1; s.model.n_weights()];
        assert!(s.validate_eval(0, &[0.1; 4], &w).is_ok());
        assert!(s.validate_eval(2, &[0.1; 4], &w).is_err(), "day range");
        assert!(s.validate_eval(0, &[0.1; 3], &w).is_err(), "feature dim");
        assert!(
            s.validate_eval(0, &[0.1; 4], &w[1..]).is_err(),
            "weight dim"
        );
        let mut bad = w.clone();
        bad[0] = f64::NAN;
        assert!(s.validate_eval(0, &[0.1; 4], &bad).is_err(), "NaN weight");
        assert!(
            s.validate_eval(0, &[f64::INFINITY; 4], &w).is_err(),
            "inf feature"
        );
    }

    #[test]
    fn group_keys_split_by_structure_only() {
        let s = ServeScenario::build("belem", 2, 5);
        let generic = vec![0.9; s.model.n_weights()];
        let mut compressed = generic.clone();
        compressed[0] = 0.0;
        let (f, g) = ([0.2; 4], [0.7; 4]);
        assert_eq!(s.group_key(&f, &generic), s.group_key(&g, &generic));
        assert_ne!(s.group_key(&f, &generic), s.group_key(&f, &compressed));
    }
}
