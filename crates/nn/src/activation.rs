//! Element-wise activation functions.

use crate::mat::Mat;
use serde::{Deserialize, Serialize};

/// The activation functions used by the policy and critic networks.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Activation {
    /// Rectified linear unit.
    Relu,
    /// Hyperbolic tangent.
    Tanh,
    /// Pass-through (used for output layers).
    Identity,
}

impl Activation {
    /// Applies the activation element-wise, returning a new matrix.
    #[cfg(test)]
    pub fn forward(self, x: &Mat) -> Mat {
        let mut y = x.clone();
        self.apply_inplace(&mut y);
        y
    }

    /// Applies the activation element-wise in place (allocation-free, for
    /// scratch-buffer pipelines).
    pub fn apply_inplace(self, x: &mut Mat) {
        match self {
            Activation::Relu => x.map_inplace(|v| v.max(0.0)),
            Activation::Tanh => x.map_inplace(f32::tanh),
            Activation::Identity => {}
        }
    }

    /// Chain-rule backward: given the *output* `y = f(x)` and upstream
    /// gradient, returns the gradient with respect to `x`.
    ///
    /// Both ReLU and tanh derivatives are expressible from the output alone,
    /// which saves caching inputs.
    #[cfg(test)]
    pub fn backward(self, y: &Mat, grad_out: &Mat) -> Mat {
        let mut g = grad_out.clone();
        self.backward_inplace(y, &mut g);
        g
    }

    /// In-place chain-rule backward: scales the upstream gradient `grad`
    /// by the activation derivative evaluated from the output `y`
    /// (allocation-free).
    ///
    /// # Panics
    ///
    /// Panics on shape mismatch between `y` and `grad`.
    pub fn backward_inplace(self, y: &Mat, grad: &mut Mat) {
        assert_eq!((y.rows(), y.cols()), (grad.rows(), grad.cols()));
        match self {
            Activation::Relu => {
                for (gv, &yv) in grad.data_mut().iter_mut().zip(y.data()) {
                    if yv <= 0.0 {
                        *gv = 0.0;
                    }
                }
            }
            Activation::Tanh => {
                for (gv, &yv) in grad.data_mut().iter_mut().zip(y.data()) {
                    *gv *= 1.0 - yv * yv;
                }
            }
            Activation::Identity => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relu_forward_clamps_negatives() {
        let x = Mat::from_vec(1, 4, vec![-1.0, 0.0, 0.5, 3.0]);
        let y = Activation::Relu.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 0.5, 3.0]);
    }

    #[test]
    fn tanh_forward_saturates() {
        let x = Mat::from_vec(1, 2, vec![100.0, -100.0]);
        let y = Activation::Tanh.forward(&x);
        assert!((y.data()[0] - 1.0).abs() < 1e-6);
        assert!((y.data()[1] + 1.0).abs() < 1e-6);
    }

    #[test]
    fn backward_finite_difference() {
        for act in [Activation::Relu, Activation::Tanh, Activation::Identity] {
            let x = Mat::from_vec(1, 3, vec![0.3, -0.4, 1.2]);
            let y = act.forward(&x);
            let grad_out = Mat::from_vec(1, 3, vec![1.0, 1.0, 1.0]);
            let g = act.backward(&y, &grad_out);
            let eps = 1e-3f32;
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(0, c, x.get(0, c) + eps);
                let up: f32 = act.forward(&xp).data().iter().sum();
                xp.set(0, c, x.get(0, c) - eps);
                let down: f32 = act.forward(&xp).data().iter().sum();
                let fd = (up - down) / (2.0 * eps);
                assert!(
                    (fd - g.get(0, c)).abs() < 1e-2,
                    "{act:?} d[{c}] fd {fd} vs {}",
                    g.get(0, c)
                );
            }
        }
    }

    #[test]
    fn identity_backward_passes_through() {
        let y = Mat::from_vec(1, 2, vec![5.0, -5.0]);
        let g = Mat::from_vec(1, 2, vec![0.1, 0.2]);
        assert_eq!(Activation::Identity.backward(&y, &g), g);
    }
}
