//! Property-based tests of the neural substrate: algebraic laws of the
//! matrix kernel, gradient sanity of the layers, and optimizer behaviour.

use hierdrl_neural::prelude::*;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn arb_matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    prop::collection::vec(-3.0f32..3.0, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// (A B) C == A (B C) within floating-point tolerance.
    #[test]
    fn matmul_is_associative(
        a in arb_matrix(3, 4),
        b in arb_matrix(4, 5),
        c in arb_matrix(5, 2),
    ) {
        let left = a.matmul(&b).matmul(&c);
        let right = a.matmul(&b.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// A (B + C) == A B + A C.
    #[test]
    fn matmul_distributes_over_addition(
        a in arb_matrix(3, 4),
        b in arb_matrix(4, 3),
        c in arb_matrix(4, 3),
    ) {
        let mut b_plus_c = b.clone();
        b_plus_c.axpy(1.0, &c);
        let left = a.matmul(&b_plus_c);
        let mut right = a.matmul(&b);
        right.axpy(1.0, &a.matmul(&c));
        for (x, y) in left.as_slice().iter().zip(right.as_slice()) {
            prop_assert!((x - y).abs() < 1e-3, "{x} vs {y}");
        }
    }

    /// Transpose identities: (A B)^T == B^T A^T, via the fused kernels.
    #[test]
    fn fused_transpose_kernels_agree(
        a in arb_matrix(4, 3),
        b in arb_matrix(4, 5),
    ) {
        // a^T b accumulated into zeros equals the explicit transpose product.
        let mut fused = Matrix::zeros(3, 5);
        fused.add_matmul_tn(&a, &b);
        let explicit = a.transpose().matmul(&b);
        prop_assert_eq!(fused.shape(), explicit.shape());
        for (x, y) in fused.as_slice().iter().zip(explicit.as_slice()) {
            prop_assert!((x - y).abs() < 1e-4);
        }
    }

    /// hcat then slice_cols recovers the original parts.
    #[test]
    fn hcat_slice_roundtrip(a in arb_matrix(2, 3), b in arb_matrix(2, 4)) {
        let joined = Matrix::hcat(&[&a, &b]);
        prop_assert_eq!(joined.slice_cols(0, 3), a);
        prop_assert_eq!(joined.slice_cols(3, 4), b);
    }

    /// The Frobenius norm is absolutely homogeneous: ||cA|| == |c| ||A||.
    #[test]
    fn norm_is_homogeneous(a in arb_matrix(3, 3), c in -4.0f32..4.0) {
        let mut scaled = a.clone();
        scaled.scale(c);
        let norm = |m: &Matrix| m.norm_sq().sqrt();
        prop_assert!((norm(&scaled) - c.abs() * norm(&a)).abs() < 1e-2);
    }

    /// Activations are monotone non-decreasing on a grid.
    #[test]
    fn activations_are_monotone(x in -5.0f32..5.0) {
        for act in [
            Activation::Linear,
            Activation::ELU,
            Activation::Tanh,
            Activation::Sigmoid,
        ] {
            let y0 = act.apply(x);
            let y1 = act.apply(x + 0.25);
            prop_assert!(y1 >= y0 - 1e-6, "{act:?} not monotone at {x}");
        }
    }

    /// Gradient clipping never increases the global norm and preserves
    /// direction.
    #[test]
    fn clipping_contracts(seed in 0u64..1000, max_norm in 0.5f32..20.0) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&[3, 4, 2], Activation::ELU, Activation::Linear,
                               Init::XavierUniform, &mut rng);
        // Produce some gradients.
        let x = Matrix::row_vector(&[0.3, -0.2, 0.9]);
        let target = Matrix::row_vector(&[1.0, -1.0]);
        let pred = mlp.forward(&x);
        let dy = Loss::Mse.gradient(&pred, &target);
        mlp.backward(&dy);

        let before = global_grad_norm(&mut mlp);
        let reported = clip_grad_norm(&mut mlp, max_norm);
        let after = global_grad_norm(&mut mlp);
        prop_assert!((reported - before).abs() < 1e-4);
        prop_assert!(after <= max_norm + 1e-4);
        prop_assert!(after <= before + 1e-4);
    }

    /// Row independence of inference: running a batch through an MLP in one
    /// call is bitwise identical to running each row alone. The batched DQN
    /// hot path (one GEMM over all Sub-Q rows) rests on this property.
    #[test]
    fn batched_inference_is_bitwise_row_independent(
        seed in 0u64..500,
        x in arb_matrix(5, 4),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&[4, 6, 3], Activation::ELU, Activation::Linear,
                           Init::HeNormal, &mut rng);
        let batched = mlp.infer(&x);
        for r in 0..x.rows() {
            let single = mlp.infer(&x.row_matrix(r));
            prop_assert_eq!(single.row(0), batched.row(r), "row {} diverged", r);
        }
    }

    /// The workspace-buffer inference path is bitwise identical to the
    /// allocating one, whatever stale state the buffers start with.
    #[test]
    fn infer_into_is_bitwise_identical_to_infer(
        seed in 0u64..500,
        x in arb_matrix(3, 4),
        stale in -2.0f32..2.0,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mlp = Mlp::new(&[4, 6, 3], Activation::ELU, Activation::Linear,
                           Init::HeNormal, &mut rng);
        let mut out = Matrix::filled(2, 7, stale);
        let mut scratch = Matrix::filled(1, 3, stale);
        mlp.infer_into(&x, &mut out, &mut scratch);
        prop_assert_eq!(out, mlp.infer(&x));
    }

    /// MSE is non-negative and zero iff prediction equals target.
    #[test]
    fn mse_is_positive_definite(p in arb_matrix(2, 3)) {
        prop_assert_eq!(Loss::Mse.value(&p, &p), 0.0);
        let mut q = p.clone();
        q.as_mut_slice()[0] += 1.0;
        prop_assert!(Loss::Mse.value(&q, &p) > 0.0);
    }

    /// One Adam step moves every parameter by at most ~lr (bias-corrected
    /// Adam's step-size bound).
    #[test]
    fn adam_step_is_bounded(seed in 0u64..500) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mlp = Mlp::new(&[2, 3, 1], Activation::Tanh, Activation::Linear,
                               Init::XavierUniform, &mut rng);
        let mut before = Vec::new();
        mlp.visit_params(&mut |p, _| before.extend_from_slice(p.as_slice()));

        let x = Matrix::row_vector(&[0.5, -0.5]);
        let target = Matrix::row_vector(&[2.0]);
        let pred = mlp.forward(&x);
        let dy = Loss::Mse.gradient(&pred, &target);
        mlp.backward(&dy);
        let lr = 0.01f32;
        let mut adam = Adam::new(lr);
        adam.step(&mut mlp);

        let mut after = Vec::new();
        mlp.visit_params(&mut |p, _| after.extend_from_slice(p.as_slice()));
        for (b, a) in before.iter().zip(&after) {
            prop_assert!((b - a).abs() <= lr * 1.2 + 1e-6,
                "step {} exceeded bound", (b - a).abs());
        }
    }
}

#[test]
fn lstm_long_sequence_gradients_stay_finite() {
    // 200-step BPTT must not produce NaNs/infs (the LSTM's raison d'être).
    let mut rng = StdRng::seed_from_u64(9);
    let mut net = LstmNetwork::new(1, 1, 8, 1, &mut rng);
    let values: Vec<f32> = (0..200).map(|i| ((i % 13) as f32 / 13.0) - 0.5).collect();
    let seq = Matrix::from_vec(values.len(), 1, values);
    let pred = net.forward_seq(&seq);
    let dy = Loss::Mse.gradient(pred, &Matrix::row_vector(&[0.3]));
    net.backward_seq(&dy);
    let mut ok = true;
    net.visit_params(&mut |_, g| ok &= g.is_finite());
    assert!(ok, "non-finite gradients after long BPTT");
}

#[test]
fn weight_sharing_matches_manual_accumulation() {
    // Applying a layer twice and back-propagating both must equal the sum
    // of two independent single applications' gradients.
    let mut rng = StdRng::seed_from_u64(4);
    let make = |rng: &mut StdRng| Dense::new(3, 2, Activation::Tanh, Init::XavierUniform, rng);
    let layer_proto = make(&mut rng);
    let x1 = Matrix::row_vector(&[0.1, 0.4, -0.2]);
    let x2 = Matrix::row_vector(&[-0.6, 0.2, 0.8]);
    let dy = Matrix::row_vector(&[1.0, -1.0]);

    // Shared application.
    let mut shared = layer_proto.clone();
    shared.forward(&x1);
    shared.forward(&x2);
    shared.backward(&dy);
    shared.backward(&dy);
    let mut shared_grads = Vec::new();
    shared.visit_params(&mut |_, g| shared_grads.push(g.clone()));

    // Two independent applications, summed.
    let mut a = layer_proto.clone();
    a.forward(&x1);
    a.backward(&dy);
    let mut b = layer_proto.clone();
    b.forward(&x2);
    b.backward(&dy);
    let mut sum_grads = Vec::new();
    a.visit_params(&mut |_, g| sum_grads.push(g.clone()));
    let mut i = 0;
    b.visit_params(&mut |_, g| {
        sum_grads[i].axpy(1.0, g);
        i += 1;
    });

    for (s, t) in shared_grads.iter().zip(&sum_grads) {
        for (x, y) in s.as_slice().iter().zip(t.as_slice()) {
            assert!((x - y).abs() < 1e-6, "shared {x} vs summed {y}");
        }
    }
}
