//! Bitwise equivalence of the batched DQN hot path against the retained
//! unbatched reference implementations.
//!
//! The batched `q_values`/`train_batch` rewrite claims *exact* numerical
//! equivalence, not approximate: every kernel in `hierdrl-neural` is
//! row-independent with in-order accumulation, so stacking the Sub-Q rows
//! into one GEMM cannot change a single bit. This suite holds that claim
//! against random states across cluster sizes (including the padded
//! `M = 10, K = 3` and `M = 14, K = 4` layouts) and across repeated
//! optimizer steps, with and without memoized encoder codes.

use hierdrl_core::dqn::{GroupedQNetwork, QNetworkConfig, QSample, StateRow};
use hierdrl_core::state::{GlobalState, StateEncoder, StateEncoderConfig};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn layout(m: usize, k: usize) -> StateEncoder {
    StateEncoder::new(
        m,
        3,
        StateEncoderConfig {
            num_groups: k,
            ..Default::default()
        },
    )
}

fn random_state(layout: &StateEncoder, rng: &mut StdRng) -> GlobalState {
    let groups: Vec<Vec<f32>> = (0..layout.num_groups())
        .map(|_| {
            (0..layout.group_width())
                .map(|_| rng.gen::<f32>())
                .collect()
        })
        .collect();
    let job: Vec<f32> = (0..layout.job_width()).map(|_| rng.gen::<f32>()).collect();
    GlobalState::from_parts(&groups, &job)
}

/// `net`'s codes for `s`, as a caller memoizes them.
fn memo_codes(net: &GroupedQNetwork, s: &GlobalState) -> Vec<f32> {
    let mut codes = vec![0.0; net.code_width()];
    net.encode_codes(s.as_slice(), &mut codes);
    codes
}

/// `s` with memoized `codes` stamped with `net`'s generation.
fn memo_row<'a>(net: &GroupedQNetwork, s: &'a GlobalState, codes: &'a [f32]) -> StateRow<'a> {
    StateRow {
        state: s.as_slice(),
        codes,
        generation: net.encoder_generation(),
    }
}

/// The `(M, K)` grid under test: the qbench/CI smoke sizes (10, 14), the
/// benchmark's M = 30 (15-wide Sub-Q heads) and a larger cluster, with
/// both even and padded group layouts.
const GRID: &[(usize, usize)] = &[
    (10, 2),
    (10, 3),
    (14, 2),
    (14, 4),
    (30, 2),
    (32, 2),
    (32, 3),
];

#[test]
fn batched_q_values_are_bitwise_identical_to_reference() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 100 + k as u64);
        let lay = layout(m, k);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        for trial in 0..16 {
            let s = random_state(&lay, &mut rng);
            assert_eq!(
                net.q_values(&s),
                net.q_values_reference(&s),
                "M={m} K={k} trial {trial}: batched q_values diverged"
            );
        }
    }
}

#[test]
fn q_values_batch_matches_per_state_calls() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 101 + k as u64);
        let lay = layout(m, k);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let states: Vec<GlobalState> = (0..7).map(|_| random_state(&lay, &mut rng)).collect();
        // Odd states carry memoized codes, even ones go through the encoder.
        let codes: Vec<Vec<f32>> = states.iter().map(|s| memo_codes(&net, s)).collect();
        let rows: Vec<StateRow> = states
            .iter()
            .zip(&codes)
            .enumerate()
            .map(|(i, (s, c))| {
                if i % 2 == 1 {
                    memo_row(&net, s, c)
                } else {
                    StateRow::from(s)
                }
            })
            .collect();
        let mut seen = 0;
        net.q_values_batch(&rows, |i, q| {
            assert_eq!(
                q,
                net.q_values_reference(&states[i]),
                "M={m} K={k} state {i}: multi-state batch diverged"
            );
            seen += 1;
        });
        assert_eq!(seen, states.len());
    }
}

#[test]
fn target_values_match_reference_q_values() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 104 + k as u64);
        let lay = layout(m, k);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let states: Vec<GlobalState> = (0..10).map(|_| random_state(&lay, &mut rng)).collect();
        let codes: Vec<Vec<f32>> = states.iter().map(|s| memo_codes(&net, s)).collect();
        // Transitions i -> i + 1; every third state is memoized.
        let row = |i: usize| {
            if i.is_multiple_of(3) {
                memo_row(&net, &states[i], &codes[i])
            } else {
                StateRow::from(&states[i])
            }
        };
        let items: Vec<(StateRow, usize, StateRow)> =
            (0..9).map(|i| (row(i), (i * 3) % m, row(i + 1))).collect();
        let mut seen = 0;
        net.target_values(&items, m, |i, q_taken, max_next| {
            let a = items[i].1;
            assert_eq!(
                q_taken.to_bits(),
                net.q_values_reference(&states[i])[a].to_bits(),
                "M={m} K={k} item {i}: taken-action value diverged"
            );
            let next = net.q_values_reference(&states[i + 1]);
            assert_eq!(
                max_next.to_bits(),
                GroupedQNetwork::max_q_of(&next, m).to_bits(),
                "M={m} K={k} item {i}: next-state maximum diverged"
            );
            seen += 1;
        });
        assert_eq!(seen, items.len());
    }
}

#[test]
fn max_q_agrees_with_reference_q_values() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 102 + k as u64);
        let lay = layout(m, k);
        let net = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        for _ in 0..8 {
            let s = random_state(&lay, &mut rng);
            let q = net.q_values_reference(&s);
            // Mask the padding actions exactly as the allocator does.
            let expected = q[..m].iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            assert_eq!(net.max_q(&s, m), expected, "M={m} K={k}: max_q diverged");
            assert_eq!(GroupedQNetwork::max_q_of(&q, m), expected);
        }
    }
}

/// Serializes everything that training mutates (weights, gradients are
/// zeroed anyway, Adam moments and step counter) into a comparable string.
fn full_state(net: &GroupedQNetwork) -> String {
    serde_json::to_string(net).expect("network serializes")
}

#[test]
fn batched_training_is_bitwise_identical_to_reference() {
    for &(m, k) in GRID {
        let mut rng = StdRng::seed_from_u64(m as u64 * 103 + k as u64);
        let lay = layout(m, k);
        let batched = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let mut reference = batched.clone();
        let mut batched = batched;
        for step in 0..12 {
            // Some samples borrow memoized codes (the frozen encoder keeps
            // the generation across steps); the reference ignores them.
            let states: Vec<GlobalState> = (0..9).map(|_| random_state(&lay, &mut rng)).collect();
            let codes: Vec<Vec<f32>> = states.iter().map(|s| memo_codes(&batched, s)).collect();
            let samples: Vec<QSample> = states
                .iter()
                .zip(&codes)
                .enumerate()
                .map(|(i, (s, c))| QSample {
                    state: if (i + step) % 2 == 0 {
                        memo_row(&batched, s, c)
                    } else {
                        StateRow::from(s)
                    },
                    action: rng.gen_range(0..m),
                    target: rng.gen_range(-5.0..0.0),
                })
                .collect();
            let loss_b = batched.train_batch(&samples);
            let loss_r = reference.train_batch_reference(&samples);
            assert_eq!(
                loss_b.to_bits(),
                loss_r.to_bits(),
                "M={m} K={k} step {step}: losses diverged ({loss_b} vs {loss_r})"
            );
            assert_eq!(
                full_state(&batched),
                full_state(&reference),
                "M={m} K={k} step {step}: weights/optimizer state diverged"
            );
        }
        // And the trained networks still agree at inference time.
        let s = random_state(&lay, &mut rng);
        assert_eq!(batched.q_values(&s), reference.q_values_reference(&s));
    }
}

/// The training workspace recycles cache entries and gradient buffers
/// across steps; varying the minibatch size between steps forces every one
/// of those buffers through resize paths on dirty contents. Results must
/// still be bitwise identical to the per-sample reference, and interleaved
/// inference (which shares the workspace) must not perturb training.
#[test]
fn workspace_training_is_identical_across_varying_batch_sizes() {
    for &(m, k) in &[(10, 3), (14, 4), (32, 2)] {
        let mut rng = StdRng::seed_from_u64(m as u64 * 105 + k as u64);
        let lay = layout(m, k);
        let mut batched = GroupedQNetwork::new(&lay, QNetworkConfig::default(), &mut rng);
        let mut reference = batched.clone();
        for (step, &batch) in [1usize, 9, 4, 16, 2, 16, 1].iter().enumerate() {
            let states: Vec<GlobalState> =
                (0..batch).map(|_| random_state(&lay, &mut rng)).collect();
            let samples: Vec<QSample> = states
                .iter()
                .map(|s| QSample {
                    state: s.into(),
                    action: rng.gen_range(0..m),
                    target: rng.gen_range(-5.0..0.0),
                })
                .collect();
            let loss_b = batched.train_batch(&samples);
            let loss_r = reference.train_batch_reference(&samples);
            assert_eq!(
                loss_b.to_bits(),
                loss_r.to_bits(),
                "M={m} K={k} step {step} (batch {batch}): losses diverged"
            );
            // Interleave inference through the shared workspace.
            let probe = random_state(&lay, &mut rng);
            assert_eq!(
                batched.q_values(&probe),
                reference.q_values_reference(&probe),
                "M={m} K={k} step {step}: post-step inference diverged"
            );
            assert_eq!(
                full_state(&batched),
                full_state(&reference),
                "M={m} K={k} step {step} (batch {batch}): state diverged"
            );
        }
    }
}
