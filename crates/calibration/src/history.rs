//! Synthetic fluctuating-noise calibration histories.
//!
//! **Substitution note (see DESIGN.md §4).** The paper pulls 13 months of
//! real `ibm_belem` calibrations. Those archives are not available here, so
//! this module generates a statistically faithful stand-in with exactly the
//! properties QuCAD exploits:
//!
//! 1. *Wide-range fluctuation* (Fig. 1 / Observation 1): every channel
//!    follows an Ornstein–Uhlenbeck process in log space, so error rates
//!    wander over roughly an order of magnitude.
//! 2. *Device-wide regime shifts* (Observation 3): a slowly mean-reverting
//!    device-level component takes occasional jumps (recalibration events),
//!    producing multi-week "good" and "bad" episodes that recur — which is
//!    what makes a model repository reusable.
//! 3. *Per-qubit heterogeneity* (Observation 2): channels carry independent
//!    static offsets and independent decaying spikes, so the identity of the
//!    noisiest edge changes over time.
//!
//! All randomness is seeded; a given `(topology, config)` pair always yields
//! the same history.

use crate::snapshot::CalibrationSnapshot;
use crate::stats::sample_normal;
use crate::topology::Topology;
use quasim::noise::ReadoutError;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Parameters of the synthetic history generator.
///
/// # Examples
///
/// ```
/// use calibration::history::HistoryConfig;
/// use calibration::topology::Topology;
///
/// let cfg = HistoryConfig::belem_like(30, 7);
/// let history = cfg.generate(&Topology::ibm_belem());
/// assert_eq!(history.len(), 30);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct HistoryConfig {
    /// Number of daily snapshots to generate.
    pub n_days: usize,
    /// RNG seed; identical seeds reproduce identical histories.
    pub seed: u64,
    /// Median single-qubit (Pauli-X) gate error.
    pub single_qubit_base: f64,
    /// Median CNOT error.
    pub cnot_base: f64,
    /// Median readout assignment error.
    pub readout_base: f64,
    /// Std-dev of per-channel static offsets in log space (qubit
    /// heterogeneity).
    pub channel_spread: f64,
    /// OU mean-reversion rate κ per day.
    pub ou_reversion: f64,
    /// OU innovation std-dev σ per day (log space).
    pub ou_volatility: f64,
    /// Daily probability of a device-wide regime jump (recalibration /
    /// drift event).
    pub regime_shift_prob: f64,
    /// Std-dev of regime jumps in log space.
    pub regime_shift_scale: f64,
    /// Mean-reversion rate of the device regime component.
    pub regime_reversion: f64,
    /// Daily probability that an individual channel starts a noise spike.
    pub spike_prob: f64,
    /// Log-space magnitude of channel spikes.
    pub spike_scale: f64,
    /// Per-day multiplicative decay of active spikes (0..1, smaller decays
    /// faster).
    pub spike_decay: f64,
}

impl HistoryConfig {
    /// A configuration mimicking the `ibm_belem` error ranges shown in the
    /// paper's Fig. 1 (X error ≈ 1.9e-4…3.7e-4 baseline with excursions,
    /// CNOT ≈ 7.4e-3…1.4e-2 baseline, readout up to ~0.15).
    pub fn belem_like(n_days: usize, seed: u64) -> Self {
        HistoryConfig {
            n_days,
            seed,
            single_qubit_base: 2.6e-4,
            cnot_base: 9.5e-3,
            readout_base: 2.5e-2,
            channel_spread: 0.35,
            ou_reversion: 0.12,
            ou_volatility: 0.10,
            regime_shift_prob: 0.035,
            regime_shift_scale: 0.65,
            regime_reversion: 0.05,
            spike_prob: 0.02,
            spike_scale: 1.3,
            spike_decay: 0.55,
        }
    }

    /// A configuration for the 7-qubit `ibm_jakarta`: quieter single-qubit
    /// gates but hotter two-qubit/readout channels and more frequent spikes
    /// (jakarta's larger connectivity graph exposes more routing paths to
    /// bad edges, and its 2022 calibration archives show harsher CNOT
    /// excursions than belem's).
    pub fn jakarta_like(n_days: usize, seed: u64) -> Self {
        HistoryConfig {
            single_qubit_base: 2.2e-4,
            cnot_base: 1.4e-2,
            readout_base: 3.5e-2,
            spike_prob: 0.03,
            regime_shift_scale: 0.8,
            ..HistoryConfig::belem_like(n_days, seed)
        }
    }

    /// A configuration for the 16-qubit `ibm_guadalupe` (Falcon r4P).
    /// Falcon-generation devices run cooler single-qubit gates than the
    /// small Canary-class chips but accumulate more CNOT/readout spread
    /// across their 16 channels, and the larger graph makes regime shifts
    /// slightly more frequent (more independent recalibration domains).
    pub fn guadalupe_like(n_days: usize, seed: u64) -> Self {
        HistoryConfig {
            single_qubit_base: 2.0e-4,
            cnot_base: 1.1e-2,
            readout_base: 2.0e-2,
            channel_spread: 0.45,
            regime_shift_prob: 0.045,
            spike_prob: 0.025,
            ..HistoryConfig::belem_like(n_days, seed)
        }
    }

    /// A calm configuration (little fluctuation) for tests and ablations.
    pub fn calm(n_days: usize, seed: u64) -> Self {
        HistoryConfig {
            ou_volatility: 0.01,
            regime_shift_prob: 0.0,
            spike_prob: 0.0,
            channel_spread: 0.05,
            ..HistoryConfig::belem_like(n_days, seed)
        }
    }

    /// Generates the daily snapshots for `topology`.
    ///
    /// # Panics
    ///
    /// Panics if `n_days == 0`.
    pub fn generate(&self, topology: &Topology) -> Vec<CalibrationSnapshot> {
        assert!(self.n_days > 0, "history needs at least one day");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let nq = topology.n_qubits();
        let ne = topology.n_edges();

        // Channel layout: [0, nq) single-qubit, [nq, nq+ne) CNOT,
        // [nq+ne, nq+ne+nq) readout.
        let n_channels = nq + ne + nq;
        let mut mu: Vec<f64> = Vec::with_capacity(n_channels);
        for i in 0..n_channels {
            let base = if i < nq {
                self.single_qubit_base
            } else if i < nq + ne {
                self.cnot_base
            } else {
                self.readout_base
            };
            mu.push(base.ln() + self.channel_spread * sample_normal(&mut rng));
        }

        let mut ou = vec![0.0f64; n_channels];
        let mut spike = vec![0.0f64; n_channels];
        let mut regime = 0.0f64;

        let mut out = Vec::with_capacity(self.n_days);
        for day in 0..self.n_days {
            // Device-wide regime component.
            regime += self.regime_reversion * (0.0 - regime);
            if rng.gen::<f64>() < self.regime_shift_prob {
                regime += self.regime_shift_scale * sample_normal(&mut rng);
            }
            // Per-channel OU + spikes.
            for i in 0..n_channels {
                ou[i] += self.ou_reversion * (0.0 - ou[i])
                    + self.ou_volatility * sample_normal(&mut rng);
                spike[i] *= self.spike_decay;
                if rng.gen::<f64>() < self.spike_prob {
                    spike[i] += self.spike_scale * (0.5 + sample_normal(&mut rng).abs());
                }
            }

            let rate = |i: usize, cap: f64| -> f64 {
                (mu[i] + ou[i] + regime + spike[i]).exp().clamp(1e-6, cap)
            };

            let single_qubit_error: Vec<f64> = (0..nq).map(|q| rate(q, 0.05)).collect();
            let cnot_error: Vec<f64> = (0..ne).map(|e| rate(nq + e, 0.45)).collect();
            let readout: Vec<ReadoutError> = (0..nq)
                .map(|q| {
                    let e = rate(nq + ne + q, 0.40);
                    // IBM readout is typically asymmetric: |1⟩ decays during
                    // measurement, so P(read 0|1) > P(read 1|0).
                    ReadoutError::new((0.8 * e).min(1.0), (1.2 * e).min(1.0))
                })
                .collect();

            out.push(CalibrationSnapshot {
                day,
                single_qubit_error,
                cnot_error,
                readout,
            });
        }
        out
    }
}

/// A generated history plus its split into offline/online phases, mirroring
/// the paper's protocol (243 offline days, 146 online days).
///
/// # Examples
///
/// ```
/// use calibration::history::{FluctuatingHistory, HistoryConfig};
/// use calibration::topology::Topology;
///
/// let topo = Topology::ibm_belem();
/// let h = FluctuatingHistory::generate(&topo, &HistoryConfig::belem_like(50, 1), 30);
/// assert_eq!(h.offline().len(), 30);
/// assert_eq!(h.online().len(), 20);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FluctuatingHistory {
    snapshots: Vec<CalibrationSnapshot>,
    offline_days: usize,
}

impl FluctuatingHistory {
    /// Generates a history and records the offline/online split point.
    ///
    /// # Panics
    ///
    /// Panics if `offline_days > config.n_days`.
    pub fn generate(topology: &Topology, config: &HistoryConfig, offline_days: usize) -> Self {
        assert!(
            offline_days <= config.n_days,
            "offline phase cannot exceed the history length"
        );
        FluctuatingHistory {
            snapshots: config.generate(topology),
            offline_days,
        }
    }

    /// All snapshots in day order.
    pub fn snapshots(&self) -> &[CalibrationSnapshot] {
        &self.snapshots
    }

    /// The offline (historical, `Dt`) phase.
    pub fn offline(&self) -> &[CalibrationSnapshot] {
        &self.snapshots[..self.offline_days]
    }

    /// The online (deployment, `Dc` stream) phase.
    pub fn online(&self) -> &[CalibrationSnapshot] {
        &self.snapshots[self.offline_days..]
    }

    /// Total number of days.
    pub fn len(&self) -> usize {
        self.snapshots.len()
    }

    /// Whether the history is empty.
    pub fn is_empty(&self) -> bool {
        self.snapshots.is_empty()
    }

    /// Time series of one feature dimension across all days (for Fig. 1
    /// style plots).
    ///
    /// # Panics
    ///
    /// Panics if `dim` is out of range for the snapshots' feature vectors.
    pub fn feature_series(&self, dim: usize) -> Vec<f64> {
        self.snapshots
            .iter()
            .map(|s| {
                let v = s.feature_vector();
                assert!(dim < v.len(), "feature dim out of range");
                v[dim]
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::{mean, std_dev};

    #[test]
    fn deterministic_for_same_seed() {
        let topo = Topology::ibm_belem();
        let a = HistoryConfig::belem_like(40, 9).generate(&topo);
        let b = HistoryConfig::belem_like(40, 9).generate(&topo);
        assert_eq!(a, b);
    }

    #[test]
    fn different_seeds_differ() {
        let topo = Topology::ibm_belem();
        let a = HistoryConfig::belem_like(40, 1).generate(&topo);
        let b = HistoryConfig::belem_like(40, 2).generate(&topo);
        assert_ne!(a, b);
    }

    #[test]
    fn rates_within_physical_bounds() {
        let topo = Topology::ibm_belem();
        for snap in HistoryConfig::belem_like(400, 3).generate(&topo) {
            for &e in &snap.single_qubit_error {
                assert!(e > 0.0 && e <= 0.05);
            }
            for &e in &snap.cnot_error {
                assert!(e > 0.0 && e <= 0.45);
            }
            for r in &snap.readout {
                assert!(r.p01 <= 0.40 && r.p10 <= 0.48 + 1e-12);
            }
        }
    }

    #[test]
    fn median_rates_near_configured_bases() {
        let topo = Topology::ibm_belem();
        let cfg = HistoryConfig::belem_like(400, 5);
        let hist = cfg.generate(&topo);
        let cnot_means: Vec<f64> = hist
            .iter()
            .map(super::super::snapshot::CalibrationSnapshot::mean_cnot_error)
            .collect();
        let m = mean(&cnot_means);
        // Within a factor ~3 of the base (log-normal with spikes skews up).
        assert!(
            m > cfg.cnot_base / 3.0 && m < cfg.cnot_base * 5.0,
            "mean {m}"
        );
    }

    #[test]
    fn noise_actually_fluctuates() {
        let topo = Topology::ibm_belem();
        let hist = FluctuatingHistory::generate(&topo, &HistoryConfig::belem_like(300, 11), 200);
        // CNOT error on the first edge varies by at least 2x across the year.
        let series = hist.feature_series(5);
        let lo = series.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = series.iter().copied().fold(0.0, f64::max);
        assert!(hi / lo > 2.0, "expected fluctuation, got {lo}..{hi}");
    }

    #[test]
    fn heterogeneity_worst_edge_changes_over_time() {
        let topo = Topology::ibm_belem();
        let hist = HistoryConfig::belem_like(365, 13).generate(&topo);
        let mut worst: Vec<usize> = hist
            .iter()
            .filter_map(|s| s.worst_cnot_edge().map(|(i, _)| i))
            .collect();
        worst.dedup();
        // Observation 2: the noisiest edge is not constant.
        assert!(worst.len() > 3, "worst edge never changed");
    }

    #[test]
    fn calm_config_is_nearly_flat() {
        let topo = Topology::ibm_belem();
        let hist = HistoryConfig::calm(120, 17).generate(&topo);
        let series: Vec<f64> = hist
            .iter()
            .map(super::super::snapshot::CalibrationSnapshot::mean_cnot_error)
            .collect();
        assert!(std_dev(&series) / mean(&series) < 0.15);
    }

    #[test]
    fn split_phases_partition_history() {
        let topo = Topology::ibm_jakarta();
        let h = FluctuatingHistory::generate(&topo, &HistoryConfig::jakarta_like(60, 2), 45);
        assert_eq!(h.offline().len() + h.online().len(), h.len());
        assert_eq!(h.online()[0].day, 45);
    }

    #[test]
    #[should_panic(expected = "offline phase")]
    fn split_beyond_length_rejected() {
        let topo = Topology::ibm_belem();
        let _ = FluctuatingHistory::generate(&topo, &HistoryConfig::belem_like(10, 0), 11);
    }
}
