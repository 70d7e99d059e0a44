//! First-order optimisers.
//!
//! Adam is the workhorse (as in Torch-Quantum training); plain SGD is kept
//! for ablations and tests.

/// Adam optimiser state.
///
/// # Examples
///
/// ```
/// use qnn::optim::Adam;
///
/// let mut opt = Adam::new(0.1, 2);
/// let mut theta = vec![1.0, -1.0];
/// for _ in 0..200 {
///     let grad: Vec<f64> = theta.iter().map(|t| 2.0 * t).collect(); // ∇(θ²)
///     opt.step(&mut theta, &grad);
/// }
/// assert!(theta.iter().all(|t| t.abs() < 1e-2));
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Adam {
    lr: f64,
    beta1: f64,
    beta2: f64,
    eps: f64,
    m: Vec<f64>,
    v: Vec<f64>,
    t: u64,
}

impl Adam {
    /// Creates an Adam optimiser with standard betas (0.9, 0.999).
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64, n_params: usize) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Adam {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            m: vec![0.0; n_params],
            v: vec![0.0; n_params],
            t: 0,
        }
    }

    /// In-place parameter update from a gradient.
    ///
    /// # Panics
    ///
    /// Panics if `theta` / `grad` lengths differ from the optimiser state.
    pub fn step(&mut self, theta: &mut [f64], grad: &[f64]) {
        assert_eq!(theta.len(), self.m.len(), "parameter count mismatch");
        assert_eq!(grad.len(), self.m.len(), "gradient count mismatch");
        self.t += 1;
        let b1t = 1.0 - self.beta1.powi(self.t as i32);
        let b2t = 1.0 - self.beta2.powi(self.t as i32);
        for i in 0..theta.len() {
            self.m[i] = self.beta1 * self.m[i] + (1.0 - self.beta1) * grad[i];
            self.v[i] = self.beta2 * self.v[i] + (1.0 - self.beta2) * grad[i] * grad[i];
            let m_hat = self.m[i] / b1t;
            let v_hat = self.v[i] / b2t;
            theta[i] -= self.lr * m_hat / (v_hat.sqrt() + self.eps);
        }
    }

    /// Applies the update only to coordinates where `mask[i]` is `true`
    /// (used to freeze compressed parameters during fine-tuning).
    ///
    /// # Panics
    ///
    /// Panics on any length mismatch.
    pub fn step_masked(&mut self, theta: &mut [f64], grad: &[f64], trainable: &[bool]) {
        assert_eq!(trainable.len(), theta.len(), "mask length mismatch");
        let before: Vec<f64> = theta.to_vec();
        self.step(theta, grad);
        for i in 0..theta.len() {
            if !trainable[i] {
                theta[i] = before[i];
            }
        }
    }

    /// Resets moments and step count (e.g. between fine-tuning phases).
    pub fn reset(&mut self) {
        self.m.iter_mut().for_each(|x| *x = 0.0);
        self.v.iter_mut().for_each(|x| *x = 0.0);
        self.t = 0;
    }
}

/// Plain stochastic gradient descent.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Sgd {
    lr: f64,
}

impl Sgd {
    /// Creates an SGD optimiser.
    ///
    /// # Panics
    ///
    /// Panics if `lr <= 0`.
    pub fn new(lr: f64) -> Self {
        assert!(lr > 0.0, "learning rate must be positive");
        Sgd { lr }
    }

    /// In-place update `θ ← θ − lr·∇`.
    ///
    /// # Panics
    ///
    /// Panics if lengths differ.
    pub fn step(&self, theta: &mut [f64], grad: &[f64]) {
        assert_eq!(theta.len(), grad.len(), "gradient count mismatch");
        for (t, g) in theta.iter_mut().zip(grad.iter()) {
            *t -= self.lr * g;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimises_rosenbrock_slice() {
        // f(x, y) = (1−x)² + 5(y−x²)²
        let grad = |t: &[f64]| {
            let (x, y) = (t[0], t[1]);
            vec![
                -2.0 * (1.0 - x) - 20.0 * x * (y - x * x),
                10.0 * (y - x * x),
            ]
        };
        let mut theta = vec![-0.5, 0.5];
        let mut opt = Adam::new(0.05, 2);
        for _ in 0..3000 {
            let g = grad(&theta);
            opt.step(&mut theta, &g);
        }
        assert!((theta[0] - 1.0).abs() < 0.05, "x={}", theta[0]);
        assert!((theta[1] - 1.0).abs() < 0.1, "y={}", theta[1]);
    }

    #[test]
    fn masked_step_freezes_parameters() {
        let mut theta = vec![1.0, 1.0];
        let mut opt = Adam::new(0.5, 2);
        opt.step_masked(&mut theta, &[1.0, 1.0], &[true, false]);
        assert!(theta[0] < 1.0);
        assert_eq!(theta[1], 1.0);
    }

    #[test]
    fn sgd_descends() {
        let mut theta = vec![2.0];
        let sgd = Sgd::new(0.1);
        for _ in 0..100 {
            let g = vec![2.0 * theta[0]];
            sgd.step(&mut theta, &g);
        }
        assert!(theta[0].abs() < 1e-3);
    }

    #[test]
    fn reset_clears_momentum() {
        let mut opt = Adam::new(0.1, 1);
        let mut theta = vec![1.0];
        opt.step(&mut theta, &[1.0]);
        opt.reset();
        let fresh = Adam::new(0.1, 1);
        assert_eq!(opt, fresh);
    }

    #[test]
    #[should_panic(expected = "parameter count")]
    fn step_checks_lengths() {
        let mut opt = Adam::new(0.1, 2);
        let mut theta = vec![0.0];
        opt.step(&mut theta, &[0.0]);
    }
}
