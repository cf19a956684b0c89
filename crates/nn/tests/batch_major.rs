//! Bit-identity of the batch-major kernels: [`Mlp::forward_batch`] and
//! [`Mlp::train_batch_with`] against a per-sample oracle — the forward
//! pass and backprop run one sample at a time, written out here with the
//! scalar [`dot_spec`] and plain element-wise loops.
//!
//! Every comparison is on bits: the loss of each step, every parameter
//! after each step, and the optimizer state. The shapes straddle the
//! kernels' edges — widths 1..=80 (multiples of 8 and not, so full lane
//! chunks and ragged tails; odd output widths leave a remainder after the
//! gradient kernel's two-row blocks), batch sizes 1..=70 (odd counts do
//! the same for the forward and delta kernels) — and the inputs are
//! centred on zero so many pre-activations are negative and the ReLU mask
//! zeroes both activations and propagated deltas.

mod oracle;

use flextensor_nn::{dot_spec, AdaDelta, Mlp, MlpScratch, TrainScratch};
use oracle::{bits, dims, matrix, Oracle};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// [`oracle::check_training`] of [`Mlp::train_batch_with`].
fn check_training(dims: &[usize], rows: usize, steps: usize, seed: u64) -> usize {
    oracle::check_training(dims, rows, steps, seed, |mut net, mut opt| {
        let mut scratch = TrainScratch::new();
        move |xs, ys| {
            let loss = net.train_batch_with(xs, ys, &mut opt, &mut scratch);
            (loss, net.clone(), opt.clone())
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Batch-major training ≡ the per-sample oracle over several steps,
    /// bit for bit, at arbitrary widths and batch sizes.
    #[test]
    fn train_batch_with_matches_per_sample_oracle(
        dims in dims(),
        rows in 1usize..=70,
        seed in any::<u64>(),
    ) {
        check_training(&dims, rows, 3, seed);
    }

    /// Every row of a batch forward ≡ the oracle's forward on that row.
    #[test]
    fn forward_batch_matches_per_sample_oracle(
        dims in dims(),
        rows in 0usize..=70,
        seed in any::<u64>(),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let net = Mlp::new(&dims, &mut rng);
        let oracle = Oracle::of(&net);
        let (n_in, n_out) = (dims[0], dims[dims.len() - 1]);
        let xs = matrix(&mut rng, rows, n_in, 3.0);
        let mut out = Vec::new();
        net.forward_batch(&xs, &mut MlpScratch::new(), &mut out);
        prop_assert_eq!(out.len(), rows * n_out);
        for (x, row) in xs.chunks(n_in).zip(out.chunks(n_out)) {
            let acts = oracle.activations(x);
            prop_assert_eq!(bits(row), bits(acts.last().expect("the output row")));
        }
    }
}

/// The Q-agent's own shape and round: feature widths of the conv2d, gemm
/// and mid-size spaces, 64-sample batches, eight steps per round — with
/// the ReLU mask provably exercised.
#[test]
fn q_network_rounds_match_per_sample_oracle() {
    for (seed, dims) in [
        [35, 64, 64, 64, 72],
        [19, 64, 64, 64, 34],
        [27, 64, 64, 64, 51],
    ]
    .iter()
    .enumerate()
    {
        let masked = check_training(dims, 64, 8, seed as u64);
        assert!(masked > 0, "{dims:?}: the ReLU never masked");
    }
}

/// Edge shapes the proptest may miss: a single layer, width-1 layers, a
/// batch of one and a batch one past a two-row block.
#[test]
fn edge_shapes_match_per_sample_oracle() {
    for dims in [
        &[1, 1][..],
        &[3, 1, 2],
        &[8, 8],
        &[9, 7, 17, 1],
        &[80, 1, 80],
    ] {
        for rows in [1, 2, 3, 65] {
            check_training(dims, rows, 3, rows as u64);
        }
    }
}
