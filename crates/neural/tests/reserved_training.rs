//! `LstmNetwork::reserve_training` and `Adam::reserve` size every buffer a
//! training step uses, so that the steps after them allocate nothing (the
//! local tier reserves on the simulation thread and trains on a worker
//! that must not allocate), and they are shape-only: the same steps give
//! the same bits with or without them.

use hierdrl_neural::loss::Loss;
use hierdrl_neural::lstm::LstmNetwork;
use hierdrl_neural::matrix::Matrix;
use hierdrl_neural::optim::{Adam, Optimizer, Trainable};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Whether this thread's allocations are being counted.
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    /// Allocations counted on this thread.
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting the calls of threads that ask for it.
struct Counting;

fn count() {
    if COUNTING.with(Cell::get) {
        COUNT.with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counters are const-initialized thread locals without a
// destructor, so touching them never allocates or re-enters.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded as received; `GlobalAlloc::alloc`'s contract
        // holds for the caller.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: `ptr` came from `System`; the rest is forwarded as
        // received.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The local tier's training step: forward over the window, MSE gradient
/// against `target`, BPTT, one Adam step.
fn train_step(
    net: &mut LstmNetwork,
    adam: &mut Adam,
    window: &Matrix,
    target: &Matrix,
    grad: &mut Matrix,
) {
    net.zero_grad();
    let pred = net.forward_seq(window);
    Loss::Mse.gradient_into(pred, target, grad);
    net.backward_seq(grad);
    adam.step(net);
}

/// Runs `steps` training steps of the paper's predictor (look-back 35,
/// 30 hidden units), optionally reserving first, and returns the
/// allocations the steps made and the final parameters.
fn train(reserve: bool, steps: usize) -> (u64, String) {
    let lookback = 35;
    let mut net = LstmNetwork::new(1, 1, 30, 1, &mut StdRng::seed_from_u64(3));
    let mut adam = Adam::new(2e-3);
    let mut window = Matrix::zeros(lookback, 1);
    let mut target = Matrix::zeros(1, 1);
    let mut grad = Matrix::zeros(1, 1);
    if reserve {
        net.reserve_training(lookback);
        adam.reserve(&mut net);
    }
    COUNT.with(|c| c.set(0));
    COUNTING.with(|c| c.set(true));
    for step in 0..steps {
        let values = window.as_mut_slice();
        values.copy_within(1.., 0);
        values[lookback - 1] = ((step * 7) % 11) as f32 / 11.0;
        target.as_mut_slice()[0] = ((step * 5) % 13) as f32 / 13.0;
        train_step(&mut net, &mut adam, &window, &target, &mut grad);
    }
    COUNTING.with(|c| c.set(false));
    let mut params = String::new();
    net.visit_params(&mut |p, _| params.push_str(&format!("{:?}", p.as_slice())));
    (COUNT.with(Cell::get), params)
}

#[test]
fn reserved_training_steps_allocate_nothing_and_change_no_bit() {
    let (lazy_allocations, lazy) = train(false, 20);
    let (reserved_allocations, reserved) = train(true, 20);
    assert!(
        lazy_allocations > 0,
        "without a reservation the first step allocates (the counter works)"
    );
    assert_eq!(reserved_allocations, 0, "reserved steps must not allocate");
    assert_eq!(lazy, reserved, "reserving is shape-only");
}
