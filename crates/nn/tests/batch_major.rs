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

use flextensor_nn::{dot_spec, AdaDelta, Mlp, MlpScratch, TrainScratch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One layer of the oracle: `inputs` and row-major `outputs × inputs`
/// weights plus biases.
struct Layer {
    inputs: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

/// The per-sample reference network, holding its own copy of the
/// parameters.
struct Oracle {
    layers: Vec<Layer>,
}

impl Oracle {
    fn of(net: &Mlp) -> Oracle {
        let layers = net
            .layer_params()
            .map(|(w, b)| Layer {
                inputs: w.len() / b.len(),
                w: w.to_vec(),
                b: b.to_vec(),
            })
            .collect();
        Oracle { layers }
    }

    fn num_params(&self) -> usize {
        self.layers.iter().map(|l| l.w.len() + l.b.len()).sum()
    }

    /// Every layer's activation for one sample, the input first.
    fn activations(&self, x: &[f64]) -> Vec<Vec<f64>> {
        let mut acts = vec![x.to_vec()];
        for (i, layer) in self.layers.iter().enumerate() {
            let input = acts.last().expect("the input row");
            let mut out: Vec<f64> = layer
                .w
                .chunks(layer.inputs)
                .zip(&layer.b)
                .map(|(row, b)| b + dot_spec(row, input))
                .collect();
            if i + 1 < self.layers.len() {
                for v in &mut out {
                    *v = v.max(0.0);
                }
            }
            acts.push(out);
        }
        acts
    }

    /// One AdaDelta step under MSE loss, one sample at a time.
    fn train(&mut self, xs: &[&[f64]], ys: &[&[f64]], opt: &mut AdaDelta) -> f64 {
        let mut grads = vec![0.0; self.num_params()];
        let mut loss = 0.0;
        for (x, y) in xs.iter().zip(ys) {
            let acts = self.activations(x);
            let out = acts.last().expect("the output row");
            let scale = 1.0 / (xs.len() * y.len()) as f64;
            let mut delta = Vec::new();
            for (o, t) in out.iter().zip(*y) {
                loss += (o - t) * (o - t) * scale;
                delta.push(2.0 * (o - t) * scale);
            }
            let mut offset = grads.len();
            for (li, layer) in self.layers.iter().enumerate().rev() {
                offset -= layer.w.len() + layer.b.len();
                let input = &acts[li];
                let (gw, gb) = grads[offset..offset + layer.w.len() + layer.b.len()]
                    .split_at_mut(layer.w.len());
                for (o, d) in delta.iter().enumerate() {
                    gb[o] += d;
                    for (g, a) in gw[o * layer.inputs..(o + 1) * layer.inputs]
                        .iter_mut()
                        .zip(input)
                    {
                        *g += d * a;
                    }
                }
                if li > 0 {
                    let mut prev = vec![0.0; layer.inputs];
                    for (d, row) in delta.iter().zip(layer.w.chunks(layer.inputs)) {
                        for (p, w) in prev.iter_mut().zip(row) {
                            *p += d * w;
                        }
                    }
                    for (p, a) in prev.iter_mut().zip(input) {
                        if *a <= 0.0 {
                            *p = 0.0;
                        }
                    }
                    delta = prev;
                }
            }
        }
        let mut offset = 0;
        for layer in &mut self.layers {
            for p in layer.w.iter_mut().chain(layer.b.iter_mut()) {
                *p += opt.step(offset, grads[offset]);
                offset += 1;
            }
        }
        loss
    }

    fn param_bits(&self) -> Vec<u64> {
        self.layers
            .iter()
            .flat_map(|l| l.w.iter().chain(&l.b))
            .map(|v| v.to_bits())
            .collect()
    }
}

fn param_bits(net: &Mlp) -> Vec<u64> {
    net.layer_params()
        .flat_map(|(w, b)| w.iter().chain(b))
        .map(|v| v.to_bits())
        .collect()
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `rows` random rows of `width` values, zero-centred.
fn matrix(rng: &mut StdRng, rows: usize, width: usize, span: f64) -> Vec<f64> {
    (0..rows * width)
        .map(|_| rng.gen_range(-span..span))
        .collect()
}

/// Trains a network and its oracle side by side for `steps` steps on
/// fresh batches, asserting bit equality after each; returns how many
/// hidden activations the ReLU zeroed along the way.
fn check_training(dims: &[usize], rows: usize, steps: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut net = Mlp::new(dims, &mut rng);
    let mut oracle = Oracle::of(&net);
    let mut opt = AdaDelta::new(net.num_params());
    let mut oracle_opt = opt.clone();
    let mut scratch = TrainScratch::new();
    let (n_in, n_out) = (dims[0], dims[dims.len() - 1]);
    let mut masked = 0;
    for step in 0..steps {
        let xs = matrix(&mut rng, rows, n_in, 3.0);
        let ys = matrix(&mut rng, rows, n_out, 1.0);
        let x_rows: Vec<&[f64]> = xs.chunks(n_in).collect();
        let y_rows: Vec<&[f64]> = ys.chunks(n_out).collect();
        for x in &x_rows {
            let acts = oracle.activations(x);
            masked += acts[1..acts.len() - 1]
                .iter()
                .flatten()
                .filter(|&&a| a == 0.0)
                .count();
        }
        let want = oracle.train(&x_rows, &y_rows, &mut oracle_opt);
        let got = net.train_batch_with(&xs, &ys, &mut opt, &mut scratch);
        assert_eq!(got.to_bits(), want.to_bits(), "loss, step {step}");
        assert!(
            param_bits(&net) == oracle.param_bits(),
            "parameters, step {step}"
        );
        assert!(opt == oracle_opt, "optimizer state, step {step}");
    }
    masked
}

/// Layer widths: an input, 0..=3 hidden layers and an output, each 1..=80.
fn dims() -> impl Strategy<Value = Vec<usize>> {
    (proptest::collection::vec(1usize..=80, 5), 2usize..=5).prop_map(|(w, n)| w[..n].to_vec())
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
