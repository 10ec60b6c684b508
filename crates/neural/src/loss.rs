//! Loss functions.

use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A scalar loss over batched predictions.
///
/// The loss averages over every element of the batch, so gradient
/// magnitudes are independent of batch size.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum Loss {
    /// Mean squared error.
    Mse,
}

impl Loss {
    /// Loss value averaged over all elements.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn value(&self, pred: &Matrix, target: &Matrix) -> f32 {
        assert_same_shape(pred, target);
        let n = pred.len().max(1) as f32;
        pred.as_slice()
            .iter()
            .zip(target.as_slice())
            .map(|(&p, &t)| (p - t) * (p - t))
            .sum::<f32>()
            / n
    }

    /// Gradient of [`Loss::value`] with respect to `pred`, written into
    /// `out` (resized in place, reusing its allocation): `2(p - t) / n`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn gradient_into(&self, pred: &Matrix, target: &Matrix, out: &mut Matrix) {
        assert_same_shape(pred, target);
        let n = pred.len().max(1) as f32;
        out.resize_to(pred.rows(), pred.cols());
        for (d, (&p, &t)) in out
            .as_mut_slice()
            .iter_mut()
            .zip(pred.as_slice().iter().zip(target.as_slice()))
        {
            *d = 2.0 * (p - t) / n;
        }
    }

    /// [`Loss::gradient_into`], returning a fresh matrix.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn gradient(&self, pred: &Matrix, target: &Matrix) -> Matrix {
        let mut out = Matrix::default();
        self.gradient_into(pred, target, &mut out);
        out
    }
}

/// Panics unless `pred` and `target` have the same shape.
fn assert_same_shape(pred: &Matrix, target: &Matrix) {
    assert_eq!(
        pred.shape(),
        target.shape(),
        "loss shape mismatch: {:?} vs {:?}",
        pred.shape(),
        target.shape()
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mse_of_equal_inputs_is_zero() {
        let a = Matrix::row_vector(&[1.0, 2.0, 3.0]);
        assert_eq!(Loss::Mse.value(&a, &a), 0.0);
    }

    #[test]
    fn mse_known_value() {
        let p = Matrix::row_vector(&[1.0, 2.0]);
        let t = Matrix::row_vector(&[0.0, 0.0]);
        assert!((Loss::Mse.value(&p, &t) - 2.5).abs() < 1e-6);
    }

    fn grad_check(loss: Loss, p: &[f32], t: &[f32]) {
        let pred = Matrix::row_vector(p);
        let target = Matrix::row_vector(t);
        let g = loss.gradient(&pred, &target);
        let eps = 1e-3;
        for i in 0..p.len() {
            let mut up = pred.clone();
            up.as_mut_slice()[i] += eps;
            let mut down = pred.clone();
            down.as_mut_slice()[i] -= eps;
            let numeric = (loss.value(&up, &target) - loss.value(&down, &target)) / (2.0 * eps);
            assert!(
                (numeric - g.as_slice()[i]).abs() < 1e-3,
                "{loss:?} grad[{i}]: numeric {numeric} vs {}",
                g.as_slice()[i]
            );
        }
    }

    #[test]
    fn gradients_match_finite_differences() {
        grad_check(Loss::Mse, &[0.3, -1.2, 2.0], &[0.0, 0.0, 1.0]);
    }

    #[test]
    #[should_panic(expected = "loss shape mismatch")]
    fn mismatched_shapes_panic() {
        let _ = Loss::Mse.value(&Matrix::zeros(1, 2), &Matrix::zeros(1, 3));
    }
}
