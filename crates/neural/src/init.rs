//! Weight initialization schemes.

use crate::matrix::Matrix;
use rand::Rng;

/// Initialization scheme for layer weights.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Init {
    /// Constant value.
    Constant(f32),
    /// Gaussian with the given mean and standard deviation.
    Normal { mean: f32, std: f32 },
    /// Xavier/Glorot uniform: `U(-a, a)` with `a = sqrt(6 / (fan_in + fan_out))`.
    ///
    /// Suited to tanh/sigmoid/linear layers.
    XavierUniform,
    /// He/Kaiming normal: `N(0, sqrt(2 / fan_in))`, suited to ReLU/ELU layers.
    HeNormal,
}

impl Init {
    /// Samples a `rows x cols` matrix. `rows` is treated as fan-in and
    /// `cols` as fan-out (weights are stored input-major in this crate).
    pub fn sample(self, rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        let fan_in = rows.max(1) as f32;
        let fan_out = cols.max(1) as f32;
        match self {
            Init::Constant(c) => Matrix::filled(rows, cols, c),
            Init::Normal { mean, std } => {
                let mut m = Matrix::zeros(rows, cols);
                for x in m.as_mut_slice() {
                    *x = mean + std * sample_standard_normal(rng);
                }
                m
            }
            Init::XavierUniform => {
                let a = (6.0 / (fan_in + fan_out)).sqrt();
                let mut m = Matrix::zeros(rows, cols);
                for x in m.as_mut_slice() {
                    *x = rng.gen_range(-a..=a);
                }
                m
            }
            Init::HeNormal => {
                let std = (2.0 / fan_in).sqrt();
                let mut m = Matrix::zeros(rows, cols);
                for x in m.as_mut_slice() {
                    *x = std * sample_standard_normal(rng);
                }
                m
            }
        }
    }
}

/// Samples a standard normal variate via the Box-Muller transform.
///
/// Implemented locally so the crate needs only `rand`'s uniform sampling.
pub fn sample_standard_normal(rng: &mut impl Rng) -> f32 {
    // Avoid ln(0) by sampling u1 from the half-open interval (0, 1].
    let u1: f32 = 1.0 - rng.gen::<f32>();
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn constant_init_fills_value() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = Init::Constant(0.1).sample(2, 2, &mut rng);
        assert!(m.as_slice().iter().all(|&x| (x - 0.1).abs() < 1e-7));
    }

    #[test]
    fn xavier_uniform_is_bounded() {
        let mut rng = StdRng::seed_from_u64(7);
        let (fan_in, fan_out) = (30, 15);
        let bound = (6.0f32 / (fan_in + fan_out) as f32).sqrt();
        let m = Init::XavierUniform.sample(fan_in, fan_out, &mut rng);
        assert!(m.as_slice().iter().all(|&x| x.abs() <= bound + 1e-6));
        // Not degenerate: at least two distinct values.
        assert!(m.as_slice().iter().any(|&x| x != m.as_slice()[0]));
    }

    #[test]
    fn he_normal_has_plausible_spread() {
        let mut rng = StdRng::seed_from_u64(42);
        let m = Init::HeNormal.sample(100, 100, &mut rng);
        let mean = m.as_slice().iter().sum::<f32>() / m.len() as f32;
        let var = m
            .as_slice()
            .iter()
            .map(|&x| (x - mean) * (x - mean))
            .sum::<f32>()
            / (m.len() as f32);
        let expected = 2.0 / 100.0;
        assert!(mean.abs() < 0.01, "mean {mean} too far from 0");
        assert!(
            (var - expected).abs() < expected * 0.2,
            "variance {var} far from {expected}"
        );
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 20_000;
        let samples: Vec<f32> = (0..n).map(|_| sample_standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f32>() / n as f32;
        let var = samples.iter().map(|x| (x - mean) * (x - mean)).sum::<f32>() / n as f32;
        assert!(mean.abs() < 0.03, "mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn samples_are_always_finite() {
        let mut rng = StdRng::seed_from_u64(9);
        for _ in 0..1000 {
            assert!(sample_standard_normal(&mut rng).is_finite());
        }
    }
}
