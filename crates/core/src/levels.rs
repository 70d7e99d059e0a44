//! Compression-level tables.
//!
//! The paper's table `T` collects the "breakpoint" angles observed in the
//! loss landscape (Motivation 1): `0, π/2, π, 3π/2`. Snapping a parameter to
//! the nearest level shortens the physical circuit after transpilation
//! (see `transpile::expand`), which is what makes compression a noise
//! mitigation tool.

use std::f64::consts::{FRAC_PI_2, PI, TAU};

/// A sorted table of compression levels in `[0, 2π)`.
///
/// # Examples
///
/// ```
/// use qucad::levels::CompressionTable;
///
/// let t = CompressionTable::standard();
/// let (level, dist) = t.nearest(3.0);
/// assert_eq!(level, std::f64::consts::PI);
/// assert!((dist - (std::f64::consts::PI - 3.0)).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct CompressionTable {
    levels: Vec<f64>,
}

impl CompressionTable {
    /// The paper's table: `{0, π/2, π, 3π/2}`.
    pub fn standard() -> Self {
        CompressionTable {
            levels: vec![0.0, FRAC_PI_2, PI, 3.0 * FRAC_PI_2],
        }
    }

    /// Coarser table `{0, π}` (ablation: fewer levels, larger snaps).
    pub fn coarse() -> Self {
        CompressionTable {
            levels: vec![0.0, PI],
        }
    }

    /// Finer table with eighth turns (ablation: more levels, smaller
    /// snaps, but π/4 angles still cost two pulses).
    pub fn fine() -> Self {
        let levels: Vec<f64> = (0..8)
            .map(|k| k as f64 * std::f64::consts::FRAC_PI_4)
            .collect();
        CompressionTable::from_levels(&levels)
    }

    /// Builds a table from explicit levels (normalised into `[0, 2π)` and
    /// sorted).
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn from_levels(levels: &[f64]) -> Self {
        assert!(!levels.is_empty(), "table needs at least one level");
        let mut ls: Vec<f64> = levels.iter().map(|&l| normalize(l)).collect();
        ls.sort_by(f64::total_cmp);
        ls.dedup_by(|a, b| (*a - *b).abs() < 1e-12);
        CompressionTable { levels: ls }
    }

    /// The levels, sorted, in `[0, 2π)`.
    pub fn levels(&self) -> &[f64] {
        &self.levels
    }

    /// Nearest level to `theta` under circular distance, and that distance.
    /// This yields the paper's `T_admm_i` and `d_i` for one parameter.
    pub fn nearest(&self, theta: f64) -> (f64, f64) {
        let a = normalize(theta);
        let mut best = (self.levels[0], f64::INFINITY);
        for &l in &self.levels {
            let d = circular_distance(a, l);
            if d < best.1 {
                best = (l, d);
            }
        }
        best
    }

    /// Gate-related level choice (the paper's `T_admm` is "a gate-related
    /// compression table built on `T`"): picks the level minimising
    /// `circular_distance(θ, l) + penalty(l)`, where `penalty` encodes the
    /// physical cost the gate would keep at that level (e.g. a controlled
    /// rotation at `π` keeps its two CNOTs on a noisy edge, while level `0`
    /// removes them entirely).
    ///
    /// Returns `(level, circular_distance)`.
    pub fn best_level<F: Fn(f64) -> f64>(&self, theta: f64, penalty: F) -> (f64, f64) {
        let a = normalize(theta);
        let mut best = (self.levels[0], f64::INFINITY, f64::INFINITY);
        for &l in &self.levels {
            let d = circular_distance(a, l);
            let cost = d + penalty(l);
            if cost < best.2 {
                best = (l, d, cost);
            }
        }
        (best.0, best.1)
    }

    /// Nearest levels for a whole parameter vector (the paper's `T_admm`).
    pub fn snap_all(&self, theta: &[f64]) -> Vec<f64> {
        theta.iter().map(|&t| self.nearest(t).0).collect()
    }
}

impl Default for CompressionTable {
    fn default() -> Self {
        CompressionTable::standard()
    }
}

/// Normalises an angle into `[0, 2π)`.
pub fn normalize(theta: f64) -> f64 {
    let mut a = theta % TAU;
    if a < 0.0 {
        a += TAU;
    }
    if (TAU - a) < 1e-12 {
        a = 0.0;
    }
    a
}

/// Circular distance between two normalised angles.
pub fn circular_distance(a: f64, b: f64) -> f64 {
    let d = (a - b).abs();
    d.min(TAU - d)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_table_levels() {
        let t = CompressionTable::standard();
        assert_eq!(t.levels(), &[0.0, FRAC_PI_2, PI, 3.0 * FRAC_PI_2]);
    }

    #[test]
    fn nearest_handles_wraparound() {
        let t = CompressionTable::standard();
        // 2π − 0.1 is closest to level 0 at circular distance 0.1.
        let (l, d) = t.nearest(TAU - 0.1);
        assert_eq!(l, 0.0);
        assert!((d - 0.1).abs() < 1e-12);
        // Negative angles normalise first.
        let (l, d) = t.nearest(-0.2);
        assert_eq!(l, 0.0);
        assert!((d - 0.2).abs() < 1e-12);
    }

    #[test]
    fn nearest_midpoint_ties_resolve_to_a_level() {
        let t = CompressionTable::standard();
        let (l, d) = t.nearest(FRAC_PI_2 / 2.0);
        assert!((d - FRAC_PI_2 / 2.0).abs() < 1e-12);
        assert!(l == 0.0 || l == FRAC_PI_2);
    }

    #[test]
    fn distances_bounded_by_max_gap() {
        let t = CompressionTable::standard();
        for k in 0..100 {
            let theta = k as f64 * 0.097;
            let (_, d) = t.nearest(theta);
            assert!(d <= FRAC_PI_2 / 2.0 + 1e-12, "distance {d} too large");
        }
    }

    #[test]
    fn snap_all_lands_on_levels() {
        let t = CompressionTable::standard();
        let snapped = t.snap_all(&[0.1, 1.5, 3.0, 4.6, 6.2]);
        for s in snapped {
            assert!(t.levels().iter().any(|&l| (l - s).abs() < 1e-12));
        }
    }

    #[test]
    fn best_level_without_penalty_is_nearest() {
        let t = CompressionTable::standard();
        for theta in [0.2, 1.4, 2.9, 4.4, 6.0] {
            let (l_plain, d_plain) = t.nearest(theta);
            let (l_best, d_best) = t.best_level(theta, |_| 0.0);
            assert_eq!(l_plain, l_best);
            assert!((d_plain - d_best).abs() < 1e-12);
        }
    }

    #[test]
    fn best_level_penalty_steers_to_zero() {
        let t = CompressionTable::standard();
        // θ = 2.9 is nearest to π, but a heavy penalty on every non-zero
        // level (a hot edge whose CNOTs we want gone) steers it to 0.
        let penalty = |l: f64| if l == 0.0 { 0.0 } else { 10.0 };
        let (l, d) = t.best_level(2.9, penalty);
        assert_eq!(l, 0.0);
        assert!(d > 1.0);
    }

    #[test]
    fn from_levels_dedups_and_sorts() {
        let t = CompressionTable::from_levels(&[PI, 0.0, PI, -PI]);
        assert_eq!(t.levels(), &[0.0, PI]);
    }

    #[test]
    fn coarse_and_fine_tables() {
        assert_eq!(CompressionTable::coarse().levels().len(), 2);
        assert_eq!(CompressionTable::fine().levels().len(), 8);
    }

    #[test]
    #[should_panic(expected = "at least one level")]
    fn empty_table_rejected() {
        let _ = CompressionTable::from_levels(&[]);
    }
}
