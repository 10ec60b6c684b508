//! Autoencoder for state-space compression.
//!
//! The paper's global tier compresses each server group's state with an
//! autoencoder whose encoder has two fully-connected ELU layers of 30 and
//! 15 neurons (Section VII-A); the decoder mirrors the encoder, and the
//! whole model is trained offline on observed states with reconstruction
//! MSE before Q-learning begins.

use crate::activation::Activation;
use crate::dense::Mlp;
use crate::init::Init;
use crate::loss::Loss;
use crate::matrix::Matrix;
use crate::optim::{Optimizer, Trainable};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// An encoder/decoder pair trained with reconstruction loss.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Autoencoder {
    encoder: Mlp,
    decoder: Mlp,
}

impl Autoencoder {
    /// Builds a symmetric autoencoder. `dims` runs from the input width down
    /// to the code width (e.g. `[45, 30, 15]` for the paper's encoder); the
    /// decoder mirrors it back up.
    ///
    /// # Panics
    ///
    /// Panics if `dims.len() < 2`.
    pub fn new(dims: &[usize], activation: Activation, rng: &mut impl Rng) -> Self {
        assert!(dims.len() >= 2, "autoencoder needs input and code widths");
        let mut up: Vec<usize> = dims.to_vec();
        up.reverse();
        Self {
            encoder: Mlp::new(dims, activation, activation, Init::XavierUniform, rng),
            // Linear output layer so reconstructions are unbounded.
            decoder: Mlp::new(
                &up,
                activation,
                Activation::Linear,
                Init::XavierUniform,
                rng,
            ),
        }
    }

    /// Width of the input vectors.
    pub fn input_size(&self) -> usize {
        self.encoder.input_size()
    }

    /// Width of the compressed code.
    pub fn code_size(&self) -> usize {
        self.encoder.output_size()
    }

    /// Encodes a batch into codes (`n x code_size`).
    pub fn encode(&self, x: &Matrix) -> Matrix {
        self.encoder.infer(x)
    }

    /// Encodes a batch into `out` using caller-provided buffers (see
    /// [`Mlp::infer_into`]); bitwise identical to [`Autoencoder::encode`].
    pub fn encode_into(&self, x: &Matrix, out: &mut Matrix, scratch: &mut Matrix) {
        self.encoder.infer_into(x, out, scratch);
    }

    /// Mutable access to the encoder half, for callers that back-propagate
    /// task losses through the code (e.g. end-to-end Q fine-tuning).
    pub fn encoder_mut(&mut self) -> &mut Mlp {
        &mut self.encoder
    }

    /// Decodes a batch of codes back to input space.
    pub fn decode(&self, code: &Matrix) -> Matrix {
        self.decoder.infer(code)
    }

    /// Full reconstruction `decode(encode(x))`.
    pub fn reconstruct(&self, x: &Matrix) -> Matrix {
        self.decode(&self.encode(x))
    }

    /// Mean squared reconstruction error over a batch.
    pub fn reconstruction_error(&self, x: &Matrix) -> f32 {
        Loss::Mse.value(&self.reconstruct(x), x)
    }

    /// One optimizer step on reconstruction MSE over the batch; returns the
    /// pre-step loss.
    pub fn train_batch(&mut self, x: &Matrix, optimizer: &mut dyn Optimizer) -> f32 {
        self.zero_grad();
        let code = self.encoder.forward(x);
        let recon = self.decoder.forward(&code);
        let loss = Loss::Mse.value(&recon, x);
        let dy = Loss::Mse.gradient(&recon, x);
        let dcode = self.decoder.backward(&dy);
        self.encoder.backward(&dcode);
        optimizer.step(self);
        loss
    }

    /// One optimizer step on reconstruction MSE through the workspace
    /// forward/backward paths, with the loss gradient staged in the
    /// caller's reusable `dy` buffer: no per-batch tensor allocations.
    /// Bitwise identical to [`Autoencoder::train_batch`] in weights,
    /// optimizer state, and returned loss (the encoder's parameter
    /// gradients don't need the input gradient, so its sweep is
    /// params-only).
    fn train_batch_ws(
        &mut self,
        x: &Matrix,
        optimizer: &mut dyn Optimizer,
        dy: &mut Matrix,
    ) -> f32 {
        self.zero_grad();
        let code = self.encoder.forward_ws(x);
        let recon = self.decoder.forward_ws(code);
        let loss = Loss::Mse.value(recon, x);
        Loss::Mse.gradient_into(recon, x, dy);
        let dcode = self.decoder.backward_ws(dy);
        self.encoder.backward_params_only_ws(dcode);
        optimizer.step(self);
        loss
    }

    /// Trains for `epochs` passes over `data` in minibatches of
    /// `batch_size`, returning the final epoch's mean loss. Runs through
    /// the workspace training step (bitwise identical to a
    /// [`Autoencoder::train_batch`] loop), staging each contiguous batch
    /// slice in one recycled buffer.
    ///
    /// # Panics
    ///
    /// Panics if `data` has no rows or `batch_size == 0`.
    pub fn fit(
        &mut self,
        data: &Matrix,
        epochs: usize,
        batch_size: usize,
        optimizer: &mut dyn Optimizer,
    ) -> f32 {
        assert!(data.rows() > 0, "training data is empty");
        assert!(batch_size > 0, "batch_size must be positive");
        let mut last = 0.0;
        let mut batch = Matrix::default();
        let mut dy = Matrix::default();
        let cols = data.cols();
        for _ in 0..epochs {
            let mut total = 0.0;
            let mut batches = 0;
            let mut start = 0;
            while start < data.rows() {
                let end = (start + batch_size).min(data.rows());
                batch.resize_to(end - start, cols);
                batch
                    .as_mut_slice()
                    .copy_from_slice(&data.as_slice()[start * cols..end * cols]);
                total += self.train_batch_ws(&batch, optimizer, &mut dy);
                batches += 1;
                start = end;
            }
            last = total / batches as f32;
        }
        last
    }
}

impl Trainable for Autoencoder {
    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Matrix, &mut Matrix)) {
        self.encoder.visit_params(f);
        self.decoder.visit_params(f);
    }

    fn zero_grad(&mut self) {
        self.encoder.zero_grad();
        self.decoder.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::Adam;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn shapes_are_consistent() {
        let mut rng = StdRng::seed_from_u64(1);
        let ae = Autoencoder::new(&[45, 30, 15], Activation::ELU, &mut rng);
        assert_eq!(ae.input_size(), 45);
        assert_eq!(ae.code_size(), 15);
        let x = Matrix::zeros(4, 45);
        assert_eq!(ae.encode(&x).shape(), (4, 15));
        assert_eq!(ae.reconstruct(&x).shape(), (4, 45));
    }

    #[test]
    fn training_reduces_reconstruction_error() {
        let mut rng = StdRng::seed_from_u64(2);
        // Data on a 2-D linear manifold inside an 8-D space: compressible.
        let mut data = Matrix::zeros(64, 8);
        for r in 0..64 {
            let a: f32 = rng.gen_range(-1.0..1.0);
            let b: f32 = rng.gen_range(-1.0..1.0);
            for c in 0..8 {
                data[(r, c)] = a * (c as f32 / 8.0) + b * ((8 - c) as f32 / 8.0);
            }
        }
        let mut ae = Autoencoder::new(&[8, 6, 2], Activation::ELU, &mut rng);
        let before = ae.reconstruction_error(&data);
        let mut adam = Adam::new(5e-3);
        ae.fit(&data, 200, 16, &mut adam);
        let after = ae.reconstruction_error(&data);
        assert!(
            after < before * 0.2,
            "reconstruction error {before} -> {after} did not drop"
        );
    }

    #[test]
    fn code_is_lower_dimensional() {
        let mut rng = StdRng::seed_from_u64(3);
        let ae = Autoencoder::new(&[10, 4], Activation::ELU, &mut rng);
        assert!(ae.code_size() < ae.input_size());
    }

    #[test]
    #[should_panic(expected = "training data is empty")]
    fn fit_rejects_empty_data() {
        let mut rng = StdRng::seed_from_u64(4);
        let mut ae = Autoencoder::new(&[4, 2], Activation::ELU, &mut rng);
        let mut adam = Adam::new(1e-3);
        let _ = ae.fit(&Matrix::zeros(0, 4), 1, 8, &mut adam);
    }

    #[test]
    fn workspace_training_matches_reference_bitwise() {
        // The workspace step `fit` uses must leave exactly the state the
        // allocating reference step leaves: identical losses, weights, and
        // optimizer moments after several minibatches.
        let mut rng = StdRng::seed_from_u64(6);
        let mut data = Matrix::zeros(48, 9);
        for v in data.as_mut_slice() {
            *v = rng.gen_range(-1.0..1.0);
        }
        let ae0 = Autoencoder::new(&[9, 6, 3], Activation::ELU, &mut rng);
        let mut ae_ref = ae0.clone();
        let mut ae_ws = ae0;
        let mut adam_ref = Adam::new(2e-3);
        let mut adam_ws = Adam::new(2e-3);
        let mut dy = Matrix::default();
        for start in (0..48).step_by(16) {
            let rows: Vec<&[f32]> = (start..start + 16).map(|r| data.row(r)).collect();
            let batch = Matrix::from_rows(&rows);
            let l_ref = ae_ref.train_batch(&batch, &mut adam_ref);
            let l_ws = ae_ws.train_batch_ws(&batch, &mut adam_ws, &mut dy);
            assert_eq!(l_ref, l_ws, "losses diverged at batch {start}");
        }
        assert_eq!(
            serde_json::to_string(&ae_ref).unwrap(),
            serde_json::to_string(&ae_ws).unwrap(),
            "workspace training step diverged from the reference step"
        );
        let x = Matrix::zeros(2, 9);
        assert_eq!(ae_ref.encode(&x), ae_ws.encode(&x));
    }

    #[test]
    fn serde_round_trip_preserves_codes() {
        let mut rng = StdRng::seed_from_u64(5);
        let ae = Autoencoder::new(&[6, 3], Activation::ELU, &mut rng);
        let json = serde_json::to_string(&ae).unwrap();
        let restored: Autoencoder = serde_json::from_str(&json).unwrap();
        let x = Matrix::row_vector(&[0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        assert_eq!(ae.encode(&x), restored.encode(&x));
    }
}
