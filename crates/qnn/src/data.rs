//! Classification datasets used by the paper's evaluation.
//!
//! Three tasks (Sec. IV-A):
//!
//! - **Iris** — Fisher's data embedded verbatim (public domain), 150×4,
//!   3 classes, split 2/3–1/3 as in the paper;
//! - **4-class MNIST** — the paper downsamples digits {0,1,3,6} to 4×4;
//!   real MNIST is unavailable offline, so a seeded generator produces
//!   class-prototype glyphs with pixel noise and shift jitter
//!   (substitution, DESIGN.md §4);
//! - **Seismic** — the FDSN earthquake-detection set is replaced by seeded
//!   synthetic seismograms (AR(1) background ± decaying-wavelet arrivals)
//!   reduced to 4 detection features (substitution, DESIGN.md §4).
//!
//! All features are min-max scaled to `[0, π]` angle range.

use crate::encoding::minmax_scale;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

/// One labelled sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Encoded feature angles.
    pub features: Vec<f64>,
    /// Class label in `0..n_classes`.
    pub label: usize,
}

/// A train/test split of a classification task.
///
/// # Examples
///
/// ```
/// use qnn::data::Dataset;
///
/// let iris = Dataset::iris(7);
/// assert_eq!(iris.n_classes, 3);
/// assert_eq!(iris.train.len() + iris.test.len(), 150);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Task name.
    pub name: String,
    /// Number of classes.
    pub n_classes: usize,
    /// Training samples.
    pub train: Vec<Sample>,
    /// Held-out test samples.
    pub test: Vec<Sample>,
}

impl Dataset {
    /// Feature dimensionality (0 if the dataset is empty).
    pub fn feature_dim(&self) -> usize {
        self.train
            .first()
            .or(self.test.first())
            .map_or(0, |s| s.features.len())
    }

    /// A copy truncated to at most `n_train`/`n_test` samples, preserving
    /// order (used to bound experiment run time).
    pub fn truncated(&self, n_train: usize, n_test: usize) -> Dataset {
        Dataset {
            name: self.name.clone(),
            n_classes: self.n_classes,
            train: self.train.iter().take(n_train).cloned().collect(),
            test: self.test.iter().take(n_test).cloned().collect(),
        }
    }

    /// Fisher's Iris: 150 samples, 4 features, 3 classes, shuffled with
    /// `seed` and split 100 train / 50 test (the paper's 66.6% / 33.4%).
    pub fn iris(seed: u64) -> Dataset {
        let raw: Vec<Vec<f64>> = IRIS.iter().map(|r| vec![r.0, r.1, r.2, r.3]).collect();
        let labels: Vec<usize> = IRIS.iter().map(|r| r.4).collect();
        let scaled = minmax_scale(&raw, 0.0, std::f64::consts::PI);
        let mut samples: Vec<Sample> = scaled
            .into_iter()
            .zip(labels)
            .map(|(features, label)| Sample { features, label })
            .collect();
        let mut rng = StdRng::seed_from_u64(seed);
        samples.shuffle(&mut rng);
        let test = samples.split_off(100);
        Dataset {
            name: "iris".into(),
            n_classes: 3,
            train: samples,
            test,
        }
    }

    /// Synthetic 4-class MNIST stand-in: 4×4 glyphs for digits {0,1,3,6}
    /// with Gaussian pixel noise and ±1-pixel shift jitter.
    pub fn mnist4(n_train: usize, n_test: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let gen = |rng: &mut StdRng, n: usize| -> Vec<Sample> {
            (0..n)
                .map(|i| {
                    let label = i % 4;
                    Sample {
                        features: mnist_glyph(label, rng),
                        label,
                    }
                })
                .collect()
        };
        let train = gen(&mut rng, n_train);
        let test = gen(&mut rng, n_test);
        Dataset {
            name: "mnist4".into(),
            n_classes: 4,
            train,
            test,
        }
    }

    /// Synthetic earthquake detection: binary classification of seismogram
    /// feature vectors (event present vs. background noise).
    pub fn seismic(n_train: usize, n_test: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let total = n_train + n_test;
        let mut raw = Vec::with_capacity(total);
        let mut labels = Vec::with_capacity(total);
        for i in 0..total {
            let label = i % 2;
            raw.push(seismic_features(label == 1, &mut rng));
            labels.push(label);
        }
        let scaled = minmax_scale(&raw, 0.0, std::f64::consts::PI);
        let mut samples: Vec<Sample> = scaled
            .into_iter()
            .zip(labels)
            .map(|(features, label)| Sample { features, label })
            .collect();
        let test = samples.split_off(n_train);
        Dataset {
            name: "seismic".into(),
            n_classes: 2,
            train: samples,
            test,
        }
    }
}

// --- MNIST-4 generator ------------------------------------------------------

/// 4×4 prototype glyphs for digits 0, 1, 3, 6 (row-major, intensity 0/1).
const GLYPHS: [[f64; 16]; 4] = [
    // 0: ring
    [
        0., 1., 1., 0., 1., 0., 0., 1., 1., 0., 0., 1., 0., 1., 1., 0.,
    ],
    // 1: vertical stroke with base
    [
        0., 0., 1., 0., 0., 1., 1., 0., 0., 0., 1., 0., 0., 1., 1., 1.,
    ],
    // 3: double bump
    [
        1., 1., 1., 0., 0., 0., 1., 0., 0., 1., 1., 0., 1., 1., 1., 0.,
    ],
    // 6: loop with open top
    [
        0., 1., 1., 0., 1., 0., 0., 0., 1., 1., 1., 0., 1., 1., 1., 0.,
    ],
];

fn mnist_glyph(class: usize, rng: &mut StdRng) -> Vec<f64> {
    let proto = &GLYPHS[class];
    // Shift jitter: with probability 0.3, roll by ±1 along one axis
    // (zero fill). Full ±1 jitter on a 4×4 canvas destroys too much glyph
    // mass to stay learnable.
    let (dx, dy): (i32, i32) = if rng.gen::<f64>() < 0.3 {
        if rng.gen::<bool>() {
            (if rng.gen::<bool>() { 1 } else { -1 }, 0)
        } else {
            (0, if rng.gen::<bool>() { 1 } else { -1 })
        }
    } else {
        (0, 0)
    };
    let mut img = [0.0f64; 16];
    for y in 0..4i32 {
        for x in 0..4i32 {
            let sx = x - dx;
            let sy = y - dy;
            if (0..4).contains(&sx) && (0..4).contains(&sy) {
                img[(y * 4 + x) as usize] = proto[(sy * 4 + sx) as usize];
            }
        }
    }
    // Pixel noise, clamp, scale to angles.
    img.iter()
        .map(|&p| {
            let noisy = (p + 0.18 * calibration::stats::sample_normal(rng)).clamp(0.0, 1.0);
            noisy * std::f64::consts::PI
        })
        .collect()
}

// --- Seismic generator ------------------------------------------------------

/// Generates a 64-sample trace and reduces it to 4 detection features:
/// log energy, max STA/LTA ratio, zero-crossing rate, crest factor.
fn seismic_features(event: bool, rng: &mut StdRng) -> Vec<f64> {
    const LEN: usize = 64;
    let mut trace = [0.0f64; LEN];
    // AR(1) coloured background noise.
    let mut x = 0.0;
    for slot in &mut trace {
        x = 0.7 * x + calibration::stats::sample_normal(rng);
        *slot = x;
    }
    if event {
        let onset = rng.gen_range(16..48);
        let amp = 3.5 + 2.5 * calibration::stats::sample_normal(rng).abs();
        for (dt, slot) in trace[onset..].iter_mut().enumerate() {
            let dt = dt as f64;
            *slot += amp * (-0.10 * dt).exp() * (0.9 * dt).sin();
        }
    }

    let energy: f64 = trace.iter().map(|v| v * v).sum();
    let log_energy = energy.max(1e-9).ln();

    // STA/LTA: short window 4, long window 16.
    let mut max_ratio = 0.0f64;
    for t in 16..LEN - 4 {
        let sta: f64 = trace[t..t + 4].iter().map(|v| v.abs()).sum::<f64>() / 4.0;
        let lta: f64 = trace[t - 16..t].iter().map(|v| v.abs()).sum::<f64>() / 16.0;
        if lta > 1e-9 {
            max_ratio = max_ratio.max(sta / lta);
        }
    }

    let zero_crossings = trace
        .windows(2)
        .filter(|w| (w[0] >= 0.0) != (w[1] >= 0.0))
        .count() as f64
        / (LEN - 1) as f64;

    let peak = trace.iter().map(|v| v.abs()).fold(0.0, f64::max);
    let mean_abs = trace.iter().map(|v| v.abs()).sum::<f64>() / LEN as f64;
    let crest = peak / mean_abs.max(1e-9);

    // Log-compress heavy-tailed features so the min-max angle scaling is
    // not dominated by outliers.
    vec![
        log_energy,
        (1.0 + max_ratio).ln(),
        zero_crossings,
        (1.0 + crest).ln(),
    ]
}

/// Fisher's Iris data: (sepal length, sepal width, petal length, petal
/// width, class), classes 0 = setosa, 1 = versicolor, 2 = virginica.
#[rustfmt::skip]
const IRIS: [(f64, f64, f64, f64, usize); 150] = [
    (5.1,3.5,1.4,0.2,0),(4.9,3.0,1.4,0.2,0),(4.7,3.2,1.3,0.2,0),(4.6,3.1,1.5,0.2,0),
    (5.0,3.6,1.4,0.2,0),(5.4,3.9,1.7,0.4,0),(4.6,3.4,1.4,0.3,0),(5.0,3.4,1.5,0.2,0),
    (4.4,2.9,1.4,0.2,0),(4.9,3.1,1.5,0.1,0),(5.4,3.7,1.5,0.2,0),(4.8,3.4,1.6,0.2,0),
    (4.8,3.0,1.4,0.1,0),(4.3,3.0,1.1,0.1,0),(5.8,4.0,1.2,0.2,0),(5.7,4.4,1.5,0.4,0),
    (5.4,3.9,1.3,0.4,0),(5.1,3.5,1.4,0.3,0),(5.7,3.8,1.7,0.3,0),(5.1,3.8,1.5,0.3,0),
    (5.4,3.4,1.7,0.2,0),(5.1,3.7,1.5,0.4,0),(4.6,3.6,1.0,0.2,0),(5.1,3.3,1.7,0.5,0),
    (4.8,3.4,1.9,0.2,0),(5.0,3.0,1.6,0.2,0),(5.0,3.4,1.6,0.4,0),(5.2,3.5,1.5,0.2,0),
    (5.2,3.4,1.4,0.2,0),(4.7,3.2,1.6,0.2,0),(4.8,3.1,1.6,0.2,0),(5.4,3.4,1.5,0.4,0),
    (5.2,4.1,1.5,0.1,0),(5.5,4.2,1.4,0.2,0),(4.9,3.1,1.5,0.2,0),(5.0,3.2,1.2,0.2,0),
    (5.5,3.5,1.3,0.2,0),(4.9,3.6,1.4,0.1,0),(4.4,3.0,1.3,0.2,0),(5.1,3.4,1.5,0.2,0),
    (5.0,3.5,1.3,0.3,0),(4.5,2.3,1.3,0.3,0),(4.4,3.2,1.3,0.2,0),(5.0,3.5,1.6,0.6,0),
    (5.1,3.8,1.9,0.4,0),(4.8,3.0,1.4,0.3,0),(5.1,3.8,1.6,0.2,0),(4.6,3.2,1.4,0.2,0),
    (5.3,3.7,1.5,0.2,0),(5.0,3.3,1.4,0.2,0),
    (7.0,3.2,4.7,1.4,1),(6.4,3.2,4.5,1.5,1),(6.9,3.1,4.9,1.5,1),(5.5,2.3,4.0,1.3,1),
    (6.5,2.8,4.6,1.5,1),(5.7,2.8,4.5,1.3,1),(6.3,3.3,4.7,1.6,1),(4.9,2.4,3.3,1.0,1),
    (6.6,2.9,4.6,1.3,1),(5.2,2.7,3.9,1.4,1),(5.0,2.0,3.5,1.0,1),(5.9,3.0,4.2,1.5,1),
    (6.0,2.2,4.0,1.0,1),(6.1,2.9,4.7,1.4,1),(5.6,2.9,3.6,1.3,1),(6.7,3.1,4.4,1.4,1),
    (5.6,3.0,4.5,1.5,1),(5.8,2.7,4.1,1.0,1),(6.2,2.2,4.5,1.5,1),(5.6,2.5,3.9,1.1,1),
    (5.9,3.2,4.8,1.8,1),(6.1,2.8,4.0,1.3,1),(6.3,2.5,4.9,1.5,1),(6.1,2.8,4.7,1.2,1),
    (6.4,2.9,4.3,1.3,1),(6.6,3.0,4.4,1.4,1),(6.8,2.8,4.8,1.4,1),(6.7,3.0,5.0,1.7,1),
    (6.0,2.9,4.5,1.5,1),(5.7,2.6,3.5,1.0,1),(5.5,2.4,3.8,1.1,1),(5.5,2.4,3.7,1.0,1),
    (5.8,2.7,3.9,1.2,1),(6.0,2.7,5.1,1.6,1),(5.4,3.0,4.5,1.5,1),(6.0,3.4,4.5,1.6,1),
    (6.7,3.1,4.7,1.5,1),(6.3,2.3,4.4,1.3,1),(5.6,3.0,4.1,1.3,1),(5.5,2.5,4.0,1.3,1),
    (5.5,2.6,4.4,1.2,1),(6.1,3.0,4.6,1.4,1),(5.8,2.6,4.0,1.2,1),(5.0,2.3,3.3,1.0,1),
    (5.6,2.7,4.2,1.3,1),(5.7,3.0,4.2,1.2,1),(5.7,2.9,4.2,1.3,1),(6.2,2.9,4.3,1.3,1),
    (5.1,2.5,3.0,1.1,1),(5.7,2.8,4.1,1.3,1),
    (6.3,3.3,6.0,2.5,2),(5.8,2.7,5.1,1.9,2),(7.1,3.0,5.9,2.1,2),(6.3,2.9,5.6,1.8,2),
    (6.5,3.0,5.8,2.2,2),(7.6,3.0,6.6,2.1,2),(4.9,2.5,4.5,1.7,2),(7.3,2.9,6.3,1.8,2),
    (6.7,2.5,5.8,1.8,2),(7.2,3.6,6.1,2.5,2),(6.5,3.2,5.1,2.0,2),(6.4,2.7,5.3,1.9,2),
    (6.8,3.0,5.5,2.1,2),(5.7,2.5,5.0,2.0,2),(5.8,2.8,5.1,2.4,2),(6.4,3.2,5.3,2.3,2),
    (6.5,3.0,5.5,1.8,2),(7.7,3.8,6.7,2.2,2),(7.7,2.6,6.9,2.3,2),(6.0,2.2,5.0,1.5,2),
    (6.9,3.2,5.7,2.3,2),(5.6,2.8,4.9,2.0,2),(7.7,2.8,6.7,2.0,2),(6.3,2.7,4.9,1.8,2),
    (6.7,3.3,5.7,2.1,2),(7.2,3.2,6.0,1.8,2),(6.2,2.8,4.8,1.8,2),(6.1,3.0,4.9,1.8,2),
    (6.4,2.8,5.6,2.1,2),(7.2,3.0,5.8,1.6,2),(7.4,2.8,6.1,1.9,2),(7.9,3.8,6.4,2.0,2),
    (6.4,2.8,5.6,2.2,2),(6.3,2.8,5.1,1.5,2),(6.1,2.6,5.6,1.4,2),(7.7,3.0,6.1,2.3,2),
    (6.3,3.4,5.6,2.4,2),(6.4,3.1,5.5,1.8,2),(6.0,3.0,4.8,1.8,2),(6.9,3.1,5.4,2.1,2),
    (6.7,3.1,5.6,2.4,2),(6.9,3.1,5.1,2.3,2),(5.8,2.7,5.1,1.9,2),(6.8,3.2,5.9,2.3,2),
    (6.7,3.3,5.7,2.5,2),(6.7,3.0,5.2,2.3,2),(6.3,2.5,5.0,1.9,2),(6.5,3.0,5.2,2.0,2),
    (6.2,3.4,5.4,2.3,2),(5.9,3.0,5.1,1.8,2),
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iris_split_and_classes() {
        let d = Dataset::iris(1);
        assert_eq!(d.train.len(), 100);
        assert_eq!(d.test.len(), 50);
        assert_eq!(d.feature_dim(), 4);
        for s in d.train.iter().chain(d.test.iter()) {
            assert!(s.label < 3);
            for &f in &s.features {
                assert!((0.0..=std::f64::consts::PI + 1e-12).contains(&f));
            }
        }
        // All three classes present in both splits.
        for split in [&d.train, &d.test] {
            for c in 0..3 {
                assert!(split.iter().any(|s| s.label == c), "class {c} missing");
            }
        }
    }

    #[test]
    fn iris_shuffle_is_seeded() {
        assert_eq!(Dataset::iris(5), Dataset::iris(5));
        assert_ne!(Dataset::iris(5), Dataset::iris(6));
    }

    #[test]
    fn mnist4_shapes_and_labels() {
        let d = Dataset::mnist4(64, 32, 3);
        assert_eq!(d.train.len(), 64);
        assert_eq!(d.test.len(), 32);
        assert_eq!(d.feature_dim(), 16);
        assert_eq!(d.n_classes, 4);
        for s in &d.train {
            assert!(s.label < 4);
        }
    }

    #[test]
    fn mnist4_classes_are_linearly_separable_enough() {
        // A nearest-prototype classifier on clean glyph distances should be
        // far above chance, otherwise the generator is too noisy to learn.
        let d = Dataset::mnist4(0, 200, 9);
        // Distance to the nearest *shifted* variant of each prototype.
        let shifted_dist = |class: usize, feat: &[f64]| -> f64 {
            let mut best = f64::INFINITY;
            for dy in -1i32..=1 {
                for dx in -1i32..=1 {
                    let mut dist = 0.0;
                    for y in 0..4i32 {
                        for x in 0..4i32 {
                            let (sx, sy) = (x - dx, y - dy);
                            let g = if (0..4).contains(&sx) && (0..4).contains(&sy) {
                                GLYPHS[class][(sy * 4 + sx) as usize]
                            } else {
                                0.0
                            };
                            let f = feat[(y * 4 + x) as usize];
                            dist += (g * std::f64::consts::PI - f).powi(2);
                        }
                    }
                    best = best.min(dist);
                }
            }
            best
        };
        let mut hits = 0;
        for s in &d.test {
            let best = (0..4)
                .min_by(|&a, &b| {
                    shifted_dist(a, &s.features).total_cmp(&shifted_dist(b, &s.features))
                })
                .unwrap();
            if best == s.label {
                hits += 1;
            }
        }
        let acc = hits as f64 / d.test.len() as f64;
        assert!(acc > 0.7, "prototype accuracy too low: {acc}");
    }

    #[test]
    fn seismic_features_discriminate() {
        let d = Dataset::seismic(0, 300, 11);
        // Mean STA/LTA feature (index 1) must be higher for events.
        let (mut ev, mut bg) = (Vec::new(), Vec::new());
        for s in &d.test {
            if s.label == 1 {
                ev.push(s.features[1]);
            } else {
                bg.push(s.features[1]);
            }
        }
        let me = calibration::stats::mean(&ev);
        let mb = calibration::stats::mean(&bg);
        assert!(me > mb, "event STA/LTA {me} should exceed background {mb}");
    }

    #[test]
    fn seismic_is_balanced() {
        let d = Dataset::seismic(100, 50, 2);
        let pos = d.train.iter().filter(|s| s.label == 1).count();
        assert_eq!(pos, 50);
    }

    #[test]
    fn truncated_bounds_sizes() {
        let d = Dataset::mnist4(50, 50, 1).truncated(10, 5);
        assert_eq!(d.train.len(), 10);
        assert_eq!(d.test.len(), 5);
    }
}
