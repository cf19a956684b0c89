//! The per-sample reference network that the batch-major kernels are
//! checked against: the forward pass and backprop run one sample at a
//! time, written out with the scalar [`dot_spec`] and plain element-wise
//! loops. Shared by `tests/batch_major.rs` ([`Mlp`]) and the crate's own
//! tests of the two-thread [`Trainer`](super::Trainer) step, which include
//! it by path; the includer brings `dot_spec`, `AdaDelta` and `Mlp` into
//! scope.

use super::{dot_spec, AdaDelta, Mlp};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// One layer of the oracle: `inputs` and row-major `outputs × inputs`
/// weights plus biases.
pub struct Layer {
    inputs: usize,
    w: Vec<f64>,
    b: Vec<f64>,
}

/// The per-sample reference network, holding its own copy of the
/// parameters.
pub struct Oracle {
    layers: Vec<Layer>,
}

impl Oracle {
    pub fn of(net: &Mlp) -> Oracle {
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
    pub fn activations(&self, x: &[f64]) -> Vec<Vec<f64>> {
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
    pub fn train(&mut self, xs: &[&[f64]], ys: &[&[f64]], opt: &mut AdaDelta) -> f64 {
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

    pub fn param_bits(&self) -> Vec<u64> {
        self.layers
            .iter()
            .flat_map(|l| l.w.iter().chain(&l.b))
            .map(|v| v.to_bits())
            .collect()
    }
}

pub fn param_bits(net: &Mlp) -> Vec<u64> {
    net.layer_params()
        .flat_map(|(w, b)| w.iter().chain(b))
        .map(|v| v.to_bits())
        .collect()
}

pub fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// `rows` random rows of `width` values, zero-centred.
pub fn matrix(rng: &mut StdRng, rows: usize, width: usize, span: f64) -> Vec<f64> {
    (0..rows * width)
        .map(|_| rng.gen_range(-span..span))
        .collect()
}

/// Trains a network and its oracle side by side for `steps` steps on
/// fresh batches, asserting bit equality of the loss, every parameter and
/// the optimizer state after each; returns how many hidden activations
/// the ReLU zeroed along the way. `start` takes the initial network and
/// optimizer and returns the step under test, which trains on one batch
/// and returns the loss and copies of the network and optimizer.
pub fn check_training<S>(
    dims: &[usize],
    rows: usize,
    steps: usize,
    seed: u64,
    start: impl FnOnce(Mlp, AdaDelta) -> S,
) -> usize
where
    S: FnMut(&[f64], &[f64]) -> (f64, Mlp, AdaDelta),
{
    let mut rng = StdRng::seed_from_u64(seed);
    let net = Mlp::new(dims, &mut rng);
    let mut oracle = Oracle::of(&net);
    let opt = AdaDelta::new(net.num_params());
    let mut oracle_opt = opt.clone();
    let mut step = start(net, opt);
    let (n_in, n_out) = (dims[0], dims[dims.len() - 1]);
    let mut masked = 0;
    for k in 0..steps {
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
        let (got, net, opt) = step(&xs, &ys);
        assert_eq!(got.to_bits(), want.to_bits(), "loss, step {k}");
        assert!(
            param_bits(&net) == oracle.param_bits(),
            "parameters, step {k}"
        );
        assert!(opt == oracle_opt, "optimizer state, step {k}");
    }
    masked
}

/// Layer widths: an input, 0..=3 hidden layers and an output, each 1..=80.
pub fn dims() -> impl Strategy<Value = Vec<usize>> {
    (proptest::collection::vec(1usize..=80, 5), 2usize..=5).prop_map(|(w, n)| w[..n].to_vec())
}
