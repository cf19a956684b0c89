//! # flextensor-nn
//!
//! A minimal dense neural network — exactly what the Q-learning back-end of
//! FlexTensor needs (§5.1): fully-connected layers with ReLU activations,
//! mean-squared-error loss, the AdaDelta optimizer (Zeiler, 2012) and
//! Xavier initialization.
//!
//! Everything is implemented from scratch on `Vec<f64>` — no BLAS, no
//! autograd — because the Q-network is tiny (four layers over a few dozen
//! features) and exploration calls it millions of times.
//!
//! Batches are row-major matrices: `xs` holds one input row of
//! [`Mlp::input_dim`] values per sample, back to back. Inference and
//! training run one batch-major layer kernel (a single input is a batch
//! of one) whose results are bit-identical to running every sample on its
//! own; see [`Mlp::train_batch_with`] for the per-element order it keeps.
//!
//! A training step runs in two phases: phase A takes blocks of rows
//! through the forward pass and back down through every layer, phase B
//! turns each layer's rows into gradients and AdaDelta updates. [`Mlp`]
//! runs both on the calling thread; a [`Trainer`] lets a second thread
//! ([`TrainHelper`]) claim rows and layers of the same step, with bits
//! that do not depend on who ran what.
//!
//! # Examples
//!
//! ```
//! use flextensor_nn::{Mlp, AdaDelta, TrainScratch};
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! let mut rng = StdRng::seed_from_u64(0);
//! // 4 fully-connected layers (the paper's Q-network shape).
//! let mut net = Mlp::new(&[8, 32, 32, 4], &mut rng);
//! let mut opt = AdaDelta::new(net.num_params());
//! let mut scratch = TrainScratch::new();
//! let x = vec![0.5; 8];
//! let y = vec![1.0, 0.0, 0.0, 0.0];
//! for _ in 0..200 {
//!     // A batch of one: one input row, one target row.
//!     net.train_batch_with(&x, &y, &mut opt, &mut scratch);
//! }
//! let out = net.forward(&x);
//! assert!((out[0] - 1.0).abs() < 0.5);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod network;
#[cfg(test)]
#[path = "../tests/oracle/mod.rs"]
mod oracle;
mod trainer;

pub use trainer::{TrainBatch, TrainHelper, Trainer};

use rand::Rng;

/// Rows per register block in the batch kernels: samples in the forward
/// and delta-propagation kernels, gradient rows in the weight-gradient
/// kernel. Two rows of eight-lane accumulators take eight of the sixteen
/// SSE2 registers of baseline x86-64, leaving room for the operands, and
/// each load of the shared operand serves both rows.
const ROW_BLOCK: usize = 2;

/// One fully-connected layer: `y = W·x + b`.
#[derive(Debug, Clone, PartialEq)]
struct Linear {
    inputs: usize,
    outputs: usize,
    /// Row-major `outputs × inputs`.
    w: Vec<f64>,
    b: Vec<f64>,
}

impl Linear {
    fn new(inputs: usize, outputs: usize, rng: &mut impl Rng) -> Linear {
        // Xavier/Glorot uniform initialization.
        let bound = (6.0 / (inputs + outputs) as f64).sqrt();
        let w = (0..inputs * outputs)
            .map(|_| rng.gen_range(-bound..bound))
            .collect();
        Linear {
            inputs,
            outputs,
            w,
            b: vec![0.0; outputs],
        }
    }

    fn num_params(&self) -> usize {
        self.w.len() + self.b.len()
    }

    /// Batch forward: row `s` of `out` is `b + W·xs[s]` (ReLU'd when
    /// `relu`), each output the [`dot_spec`]-ordered dot with the bias
    /// added last — the same operations as one sample at a time.
    fn forward(&self, xs: &[f64], relu: bool, out: &mut Vec<f64>) {
        out.clear();
        out.resize(xs.len() / self.inputs * self.outputs, 0.0);
        let mut x_blocks = xs.chunks_exact(ROW_BLOCK * self.inputs);
        let mut out_blocks = out.chunks_exact_mut(ROW_BLOCK * self.outputs);
        for (x, o) in (&mut x_blocks).zip(&mut out_blocks) {
            self.forward_block::<ROW_BLOCK>(x, relu, o);
        }
        let (x_rest, out_rest) = (x_blocks.remainder(), out_blocks.into_remainder());
        for (x, o) in x_rest
            .chunks_exact(self.inputs)
            .zip(out_rest.chunks_exact_mut(self.outputs))
        {
            self.forward_block::<1>(x, relu, o);
        }
    }

    /// [`Linear::forward`] over exactly `K` rows: one load of a weight
    /// row serves all `K` dots.
    fn forward_block<const K: usize>(&self, xs: &[f64], relu: bool, out: &mut [f64]) {
        let x: [&[f64]; K] = std::array::from_fn(|k| &xs[k * self.inputs..(k + 1) * self.inputs]);
        for (o, (row, b)) in self.w.chunks_exact(self.inputs).zip(&self.b).enumerate() {
            for (k, d) in dot_rows(row, x).into_iter().enumerate() {
                let v = b + d;
                out[k * self.outputs + o] = if relu { v.max(0.0) } else { v };
            }
        }
    }

    /// Phase B for this layer: every parameter's gradient, then its
    /// AdaDelta update. The gradients are `gw[o][i] = Σ_s delta[s][o] ·
    /// input[s][i]` and `gb[o] = Σ_s delta[s][o]`, each sum starting from
    /// `0.0` and adding the samples in index order, the rows of `segs`
    /// (pairs of input and delta blocks) one block after the other: the
    /// order in which one-sample-at-a-time backprop accumulates them, so
    /// the result does not depend on how the rows are cut into blocks.
    /// `grads` is scratch for this layer's `w` and `b` gradients.
    fn update<const S: usize>(
        &mut self,
        segs: [(&[f64], &[f64]); S],
        opt: &mut OptSlice,
        grads: &mut [f64],
    ) {
        let (gw, gb) = grads.split_at_mut(self.w.len());
        gb.fill(0.0);
        for (_, delta) in segs {
            for d in delta.chunks_exact(self.outputs) {
                for (g, v) in gb.iter_mut().zip(d) {
                    *g += v;
                }
            }
        }
        let mut o = 0;
        while o + ROW_BLOCK <= self.outputs {
            self.gradient_rows::<ROW_BLOCK, S>(segs, o, gw);
            o += ROW_BLOCK;
        }
        if o < self.outputs {
            self.gradient_rows::<1, S>(segs, o, gw);
        }
        opt.apply(0, &mut self.w, gw);
        opt.apply(self.w.len(), &mut self.b, gb);
    }

    /// Gradient rows `o0..o0 + K`, one [`DOT_LANES`]-wide column chunk at
    /// a time held in registers while the samples sweep past.
    fn gradient_rows<const K: usize, const S: usize>(
        &self,
        segs: [(&[f64], &[f64]); S],
        o0: usize,
        gw: &mut [f64],
    ) {
        let (n_in, n_out) = (self.inputs, self.outputs);
        let split = n_in - n_in % DOT_LANES;
        for i in (0..split).step_by(DOT_LANES) {
            let mut acc = [[0.0f64; DOT_LANES]; K];
            for (input, delta) in segs {
                for s in 0..input.len() / n_in {
                    let a = &input[s * n_in + i..][..DOT_LANES];
                    for (k, row) in acc.iter_mut().enumerate() {
                        axpy_lanes(delta[s * n_out + o0 + k], a, row);
                    }
                }
            }
            for (k, row) in acc.iter().enumerate() {
                gw[(o0 + k) * n_in + i..][..DOT_LANES].copy_from_slice(row);
            }
        }
        for i in split..n_in {
            let mut acc = [0.0f64; K];
            for (input, delta) in segs {
                for s in 0..input.len() / n_in {
                    for (k, g) in acc.iter_mut().enumerate() {
                        *g += delta[s * n_out + o0 + k] * input[s * n_in + i];
                    }
                }
            }
            for (k, g) in acc.into_iter().enumerate() {
                gw[(o0 + k) * n_in + i] = g;
            }
        }
    }

    /// Propagates a batch of output deltas to this layer's input:
    /// `prev[s][i] = Σ_o delta[s][o] · W[o][i]` (from `0.0`, outputs in
    /// order), zeroed where the ReLU'd input `input[s][i] <= 0`.
    fn backprop(&self, delta: &[f64], input: &[f64], prev: &mut Vec<f64>) {
        prev.clear();
        prev.resize(input.len(), 0.0);
        let (n_in, n_out) = (self.inputs, self.outputs);
        let mut d_blocks = delta.chunks_exact(ROW_BLOCK * n_out);
        let mut a_blocks = input.chunks_exact(ROW_BLOCK * n_in);
        let mut p_blocks = prev.chunks_exact_mut(ROW_BLOCK * n_in);
        for ((d, a), p) in (&mut d_blocks).zip(&mut a_blocks).zip(&mut p_blocks) {
            self.backprop_block::<ROW_BLOCK>(d, a, p);
        }
        let (d_rest, a_rest) = (d_blocks.remainder(), a_blocks.remainder());
        for ((d, a), p) in d_rest
            .chunks_exact(n_out)
            .zip(a_rest.chunks_exact(n_in))
            .zip(p_blocks.into_remainder().chunks_exact_mut(n_in))
        {
            self.backprop_block::<1>(d, a, p);
        }
    }

    /// [`Linear::backprop`] over exactly `K` samples, one
    /// [`DOT_LANES`]-wide input chunk per sample held in registers while
    /// the weight rows sweep past.
    fn backprop_block<const K: usize>(&self, delta: &[f64], input: &[f64], prev: &mut [f64]) {
        let (n_in, n_out) = (self.inputs, self.outputs);
        let split = n_in - n_in % DOT_LANES;
        let mask = |p: f64, a: f64| if a <= 0.0 { 0.0 } else { p };
        for i in (0..split).step_by(DOT_LANES) {
            let mut acc = [[0.0f64; DOT_LANES]; K];
            for o in 0..n_out {
                let w = &self.w[o * n_in + i..][..DOT_LANES];
                for (k, row) in acc.iter_mut().enumerate() {
                    axpy_lanes(delta[k * n_out + o], w, row);
                }
            }
            for (k, row) in acc.iter().enumerate() {
                let at = k * n_in + i;
                for j in 0..DOT_LANES {
                    prev[at + j] = mask(row[j], input[at + j]);
                }
            }
        }
        for i in split..n_in {
            let mut acc = [0.0f64; K];
            for o in 0..n_out {
                for (k, p) in acc.iter_mut().enumerate() {
                    *p += delta[k * n_out + o] * self.w[o * n_in + i];
                }
            }
            for (k, p) in acc.into_iter().enumerate() {
                prev[k * n_in + i] = mask(p, input[k * n_in + i]);
            }
        }
    }
}

/// Fixed chunk width of the dense kernels ([`dot`] and the batch
/// kernels): eight independent f64 lanes, matching one AVX-512 register
/// or two AVX2 registers' worth of accumulators.
pub const DOT_LANES: usize = 8;

/// Specified accumulation order of [`dot`] — the scalar reference the
/// chunked kernel must match bit-for-bit at every length.
///
/// Definition: split `w`/`x` at the largest multiple of [`DOT_LANES`].
/// Over the full chunks, lane `j` accumulates the products at positions
/// `≡ j (mod 8)` in index order. The eight lanes combine pairwise as
/// `((l0 + l1) + (l2 + l3)) + ((l4 + l5) + (l6 + l7))`, then the ragged
/// tail folds in left to right. Any length is covered: `len < 8` is all
/// tail, `len % 8 != 0` exercises both parts, `len == 0` returns `0.0`.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot_spec(w: &[f64], x: &[f64]) -> f64 {
    assert_eq!(w.len(), x.len(), "dot over mismatched lengths");
    let n = w.len();
    let full = n - n % DOT_LANES;
    let mut lanes = [0.0f64; DOT_LANES];
    let mut i = 0;
    while i < full {
        for (j, lane) in lanes.iter_mut().enumerate() {
            *lane += w[i + j] * x[i + j];
        }
        i += DOT_LANES;
    }
    let mut acc = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    for k in full..n {
        acc += w[k] * x[k];
    }
    acc
}

/// Dot product over eight independent accumulator lanes.
///
/// Breaking the single serial dependency chain into eight lets the
/// compiler keep the loop in SIMD registers (and overlaps the scalar FMAs
/// even where it cannot). The accumulation order is *defined* — see
/// [`dot_spec`], which this function matches bit-for-bit at any length
/// (enforced by the chunked-kernel property tests) — so results are
/// deterministic across builds. They are *not* bit-identical to a plain
/// serial fold or to the previous four-lane kernel (floating-point
/// addition is non-associative), which is why the committed trace
/// fixtures and probe CSVs were regenerated when this landed.
///
/// # Panics
///
/// Panics if the slices differ in length.
pub fn dot(w: &[f64], x: &[f64]) -> f64 {
    let [d] = dot_rows(w, [x]);
    d
}

/// `K` dots of one weight row `w` against `K` input rows, each in exactly
/// the [`dot_spec`] order; every chunk of `w` is loaded once for all `K`.
fn dot_rows<const K: usize>(w: &[f64], xs: [&[f64]; K]) -> [f64; K] {
    for x in xs {
        assert_eq!(w.len(), x.len(), "dot over mismatched lengths");
    }
    let split = w.len() - w.len() % DOT_LANES;
    let mut lanes = [[0.0f64; DOT_LANES]; K];
    for i in (0..split).step_by(DOT_LANES) {
        let wc = &w[i..][..DOT_LANES];
        for (lane, x) in lanes.iter_mut().zip(xs) {
            let xc = &x[i..][..DOT_LANES];
            for j in 0..DOT_LANES {
                lane[j] += wc[j] * xc[j];
            }
        }
    }
    let mut acc = combine_lanes(&lanes);
    for (a, x) in acc.iter_mut().zip(xs) {
        for (wi, xi) in w[split..].iter().zip(&x[split..]) {
            *a += wi * xi;
        }
    }
    acc
}

/// `acc[j] += a * x[j]` over one [`DOT_LANES`]-wide chunk.
fn axpy_lanes(a: f64, x: &[f64], acc: &mut [f64; DOT_LANES]) {
    for j in 0..DOT_LANES {
        acc[j] += a * x[j];
    }
}

/// The [`dot_spec`] pairwise combine of each row's lanes. Kept out of
/// line on purpose: inlined, it invites the vectorizer to pair lane `j`
/// of two rows (a shuffle per product in the chunk loop) instead of
/// neighbouring lanes of one row (plain contiguous loads).
#[inline(never)]
fn combine_lanes<const K: usize>(lanes: &[[f64; DOT_LANES]; K]) -> [f64; K] {
    lanes.map(|l| ((l[0] + l[1]) + (l[2] + l[3])) + ((l[4] + l[5]) + (l[6] + l[7])))
}

/// Reusable ping-pong activation buffers for allocation-free inference
/// ([`Mlp::forward_into`] / [`Mlp::forward_batch`]).
///
/// The exploration hot loop scores thousands of states per trial; holding
/// one `MlpScratch` per agent turns every forward pass after the first
/// into a zero-allocation operation. Buffer reuse never changes the math:
/// each layer writes every element of its output before anything reads
/// it, so results are bit-identical to [`Mlp::forward`].
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    a: Vec<f64>,
    b: Vec<f64>,
}

impl MlpScratch {
    /// Fresh (empty) scratch; buffers grow to the widest batch × layer on
    /// first use and are reused afterwards.
    pub fn new() -> MlpScratch {
        MlpScratch::default()
    }
}

/// Reusable buffers for [`Mlp::train_batch_with`]: phase A's buffers for
/// the whole batch (each layer's activations and deltas) and one layer's
/// gradients. Reusing them across training rounds removes every
/// per-round heap allocation; every buffer is fully
/// overwritten before it is read, so results never depend on what a
/// previous call left behind.
#[derive(Debug, Clone, Default)]
pub struct TrainScratch {
    rows: RowBufs,
    grads: Vec<f64>,
}

impl TrainScratch {
    /// Fresh (empty) scratch; buffers size themselves on first use.
    pub fn new() -> TrainScratch {
        TrainScratch::default()
    }
}

/// Phase A's buffers for one block of rows: each hidden layer's output
/// activations, the output layer's values (`o − t` once the error is
/// formed), and every layer's output delta.
#[derive(Debug, Clone, Default)]
struct RowBufs {
    acts: Vec<Vec<f64>>,
    out: Vec<f64>,
    deltas: Vec<Vec<f64>>,
}

impl RowBufs {
    /// Empties the buffers a job uses and gives each room for `rows` rows
    /// of a network whose layers output `widths`, so that the job's work
    /// on them allocates nothing: the activations and outputs always, the
    /// deltas when `backprop`.
    fn reserve(&mut self, widths: &[usize], rows: usize, backprop: bool) {
        let last = widths.len() - 1;
        self.acts.resize_with(last, Vec::new);
        self.deltas.resize_with(last + 1, Vec::new);
        let hidden = self.acts.iter_mut().zip(widths);
        let out = std::iter::once((&mut self.out, &widths[last]));
        let deltas = self.deltas.iter_mut().zip(widths).filter(|_| backprop);
        for (v, &width) in hidden.chain(out).chain(deltas) {
            v.clear();
            v.reserve(rows * width);
        }
    }
}

/// Read access to a network's layers, wherever they live: a plain slice
/// for [`Mlp`], one lock per layer for a [`Trainer`].
trait Layers {
    fn count(&self) -> usize;
    fn with<T>(&self, li: usize, f: impl FnOnce(&Linear) -> T) -> T;
}

impl Layers for [Linear] {
    fn count(&self) -> usize {
        self.len()
    }

    fn with<T>(&self, li: usize, f: impl FnOnce(&Linear) -> T) -> T {
        f(&self[li])
    }
}

/// Runs `xs` through every layer with ping-pong hidden buffers, leaving
/// the output rows in `out`.
fn forward_pingpong(
    layers: &(impl Layers + ?Sized),
    xs: &[f64],
    scratch: &mut MlpScratch,
    out: &mut Vec<f64>,
) {
    let MlpScratch { a, b } = scratch;
    let last = layers.count() - 1;
    for li in 0..=last {
        let input = if li == 0 { xs } else { a.as_slice() };
        if li == last {
            layers.with(li, |l| l.forward(input, false, out));
        } else {
            layers.with(li, |l| l.forward(input, true, b));
            std::mem::swap(a, b);
        }
    }
}

/// Runs `xs` through every layer, keeping each hidden layer's output in
/// `bufs.acts` for backprop and the output rows in `bufs.out`.
fn forward_rows(layers: &(impl Layers + ?Sized), xs: &[f64], bufs: &mut RowBufs) {
    let last = layers.count() - 1;
    bufs.acts.resize_with(last, Vec::new);
    for li in 0..=last {
        let (done, rest) = bufs.acts.split_at_mut(li);
        let input = done.last().map_or(xs, Vec::as_slice);
        match rest.first_mut() {
            Some(act) => layers.with(li, |l| l.forward(input, true, act)),
            None => layers.with(li, |l| l.forward(input, false, &mut bufs.out)),
        }
    }
}

/// Phase A of a training step over one block of rows: the forward pass,
/// the output error `o − t` (left in `bufs.out`) and delta `2·(o − t)·
/// scale`, and that delta propagated down through every layer, leaving
/// each layer's output delta in `bufs.deltas`. Every layer propagates
/// through its weights before the step's update, as one-sample-at-a-time
/// backprop does; each row's values depend on that row alone.
fn backprop_rows(
    layers: &(impl Layers + ?Sized),
    xs: &[f64],
    ys: &[f64],
    scale: f64,
    bufs: &mut RowBufs,
) {
    forward_rows(layers, xs, bufs);
    let n = layers.count();
    let RowBufs { acts, out, deltas } = bufs;
    deltas.resize_with(n, Vec::new);
    let top = &mut deltas[n - 1];
    top.clear();
    for (o, t) in out.iter_mut().zip(ys) {
        *o -= t;
        top.push(2.0 * *o * scale);
    }
    for li in (1..n).rev() {
        let (below, at) = deltas.split_at_mut(li);
        layers.with(li, |l| {
            l.backprop(&at[0], &acts[li - 1], &mut below[li - 1])
        });
    }
}

/// The MSE loss over a block's errors `o − t`, added to `loss` element by
/// element in row-major order.
fn fold_loss(loss: f64, err: &[f64], scale: f64) -> f64 {
    err.iter().fold(loss, |loss, e| loss + e * e * scale)
}

/// A multilayer perceptron: linear layers with ReLU between them (linear
/// output layer).
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<Linear>,
}

impl Mlp {
    /// Builds an MLP with the given layer widths; `dims = [in, h1, ..., out]`
    /// yields `dims.len() - 1` fully-connected layers.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two widths are given or any width is zero.
    pub fn new(dims: &[usize], rng: &mut impl Rng) -> Mlp {
        assert!(dims.len() >= 2, "need at least input and output widths");
        assert!(dims.iter().all(|&d| d > 0), "layer widths must be positive");
        let layers = dims
            .windows(2)
            .map(|w| Linear::new(w[0], w[1], rng))
            .collect();
        Mlp { layers }
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, |l| l.inputs)
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, |l| l.outputs)
    }

    /// Total trainable parameters.
    pub fn num_params(&self) -> usize {
        self.layers.iter().map(Linear::num_params).sum()
    }

    /// Each layer's parameters, input layer first, as `(w, b)`: `w` is
    /// row-major `b.len() × inputs`. The optimizer indexes parameters in
    /// this order, each layer's `w` before its `b`.
    pub fn layer_params(&self) -> impl Iterator<Item = (&[f64], &[f64])> {
        self.layers.iter().map(|l| (l.w.as_slice(), l.b.as_slice()))
    }

    /// Runs the network on one input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::input_dim`].
    pub fn forward(&self, x: &[f64]) -> Vec<f64> {
        let mut out = Vec::new();
        self.forward_into(x, &mut MlpScratch::new(), &mut out);
        out
    }

    /// Runs the network on one input into a caller-provided buffer using
    /// preallocated ping-pong activation scratch — zero heap allocation
    /// once the buffers are warm, bit-identical to [`Mlp::forward`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Mlp::input_dim`].
    pub fn forward_into(&self, x: &[f64], scratch: &mut MlpScratch, out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.input_dim(), "input width mismatch");
        self.forward_batch(x, scratch, out);
    }

    /// Runs the network on a batch of row-major inputs (`rows ×
    /// input_dim`), leaving the `rows × output_dim` outputs in `out`. Each
    /// output row is bit-identical to [`Mlp::forward`] on its input row.
    ///
    /// # Panics
    ///
    /// Panics if `xs.len()` is not a multiple of [`Mlp::input_dim`].
    pub fn forward_batch(&self, xs: &[f64], scratch: &mut MlpScratch, out: &mut Vec<f64>) {
        assert_eq!(xs.len() % self.input_dim(), 0, "input width mismatch");
        forward_pingpong(self.layers.as_slice(), xs, scratch, out);
    }

    /// One AdaDelta step on a batch under MSE loss (mean over outputs and
    /// samples) using reusable scratch buffers; returns the batch loss
    /// before the update. `xs` holds `rows × input_dim` inputs and `ys`
    /// the matching `rows × output_dim` targets, both row-major.
    ///
    /// The step's two phases run on the calling thread: phase A takes all
    /// rows forward and back down through every layer's pre-update
    /// weights, then the loss is summed, then phase B updates each layer.
    /// Every value gets the IEEE operations that one-sample-at-a-time
    /// backprop gives it, in the same order: each output is a
    /// [`dot_spec`]-ordered dot plus bias, each propagated delta sums over
    /// outputs in order, each gradient element sums its per-sample
    /// contributions in sample order, and the loss adds rows then outputs
    /// in order. A [`Trainer`] runs the same phases split between two
    /// threads, with the same bits.
    ///
    /// A non-finite loss (a NaN or infinite target, say) is returned
    /// without touching the parameters or the optimizer state.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, shapes mismatch, or `opt` was created
    /// for a different parameter count.
    pub fn train_batch_with(
        &mut self,
        xs: &[f64],
        ys: &[f64],
        opt: &mut AdaDelta,
        scratch: &mut TrainScratch,
    ) -> f64 {
        assert_eq!(xs.len() % self.input_dim(), 0, "input width mismatch");
        let rows = xs.len() / self.input_dim();
        assert!(rows > 0, "bad batch");
        assert_eq!(ys.len(), rows * self.output_dim(), "target width mismatch");
        assert_eq!(opt.len(), self.num_params(), "optimizer size mismatch");
        let TrainScratch { rows: bufs, grads } = scratch;
        let scale = 1.0 / ys.len() as f64;
        backprop_rows(self.layers.as_slice(), xs, ys, scale, bufs);
        let loss = fold_loss(0.0, &bufs.out, scale);
        if !loss.is_finite() {
            return loss;
        }
        let (mut g2, mut u2) = (opt.acc_grad.as_mut_slice(), opt.acc_update.as_mut_slice());
        for (li, layer) in self.layers.iter_mut().enumerate() {
            let input = if li == 0 { xs } else { &bufs.acts[li - 1] };
            let (g2_layer, g2_rest) = g2.split_at_mut(layer.num_params());
            let (u2_layer, u2_rest) = u2.split_at_mut(layer.num_params());
            (g2, u2) = (g2_rest, u2_rest);
            let mut state = OptSlice {
                rho: opt.rho,
                eps: opt.eps,
                g2: g2_layer,
                u2: u2_layer,
            };
            grads.resize(layer.num_params(), 0.0);
            layer.update([(input, &bufs.deltas[li])], &mut state, grads);
        }
        loss
    }
}

/// The AdaDelta optimizer (Zeiler, 2012): per-parameter adaptive learning
/// rates with no global learning-rate hyperparameter — the optimizer the
/// paper trains its Q-network with.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaDelta {
    rho: f64,
    eps: f64,
    acc_grad: Vec<f64>,
    acc_update: Vec<f64>,
}

impl AdaDelta {
    /// Creates optimizer state for `n` parameters with the standard
    /// hyperparameters (ρ = 0.95, ε = 1e-6).
    pub fn new(n: usize) -> AdaDelta {
        AdaDelta {
            rho: 0.95,
            eps: 1e-6,
            acc_grad: vec![0.0; n],
            acc_update: vec![0.0; n],
        }
    }

    /// Number of parameters tracked.
    pub fn len(&self) -> usize {
        self.acc_grad.len()
    }

    /// Whether the optimizer tracks zero parameters.
    pub fn is_empty(&self) -> bool {
        self.acc_grad.is_empty()
    }

    /// Computes the update for parameter `i` given its gradient, updating
    /// internal state. Returns the delta to *add* to the parameter.
    pub fn step(&mut self, i: usize, grad: f64) -> f64 {
        adadelta(
            self.rho,
            self.eps,
            &mut self.acc_grad[i],
            &mut self.acc_update[i],
            grad,
        )
    }
}

/// One layer's share of an [`AdaDelta`] state: its parameters' running
/// averages, indexed like the layer's `w` followed by its `b`.
#[derive(Debug)]
struct OptSlice<'a> {
    rho: f64,
    eps: f64,
    g2: &'a mut [f64],
    u2: &'a mut [f64],
}

impl OptSlice<'_> {
    /// [`AdaDelta::step`] for the layer's parameters `at..at +
    /// params.len()` in one sweep, adding each update to its parameter.
    fn apply(&mut self, at: usize, params: &mut [f64], grads: &[f64]) {
        let range = at..at + params.len();
        let state = self.g2[range.clone()].iter_mut().zip(&mut self.u2[range]);
        for ((p, &g), (g2, u2)) in params.iter_mut().zip(grads).zip(state) {
            *p += adadelta(self.rho, self.eps, g2, u2, g);
        }
    }
}

/// One AdaDelta update of a parameter with gradient `grad`, given its
/// running averages of squared gradients `g2` and squared updates `u2`.
#[inline(always)]
fn adadelta(rho: f64, eps: f64, g2: &mut f64, u2: &mut f64, grad: f64) -> f64 {
    *g2 = rho * *g2 + (1.0 - rho) * grad * grad;
    let update = -((*u2 + eps).sqrt() / (*g2 + eps).sqrt()) * grad;
    *u2 = rho * *u2 + (1.0 - rho) * update * update;
    update
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn shapes_and_param_counts() {
        let net = Mlp::new(&[10, 20, 20, 3], &mut rng(0));
        assert_eq!(net.input_dim(), 10);
        assert_eq!(net.output_dim(), 3);
        assert_eq!(net.num_params(), 10 * 20 + 20 + 20 * 20 + 20 + 20 * 3 + 3);
        assert_eq!(net.forward(&[0.1; 10]).len(), 3);
        let per_layer: usize = net.layer_params().map(|(w, b)| w.len() + b.len()).sum();
        assert_eq!(per_layer, net.num_params());
    }

    #[test]
    fn deterministic_init() {
        let a = Mlp::new(&[4, 8, 2], &mut rng(7));
        let b = Mlp::new(&[4, 8, 2], &mut rng(7));
        assert_eq!(a, b);
        let c = Mlp::new(&[4, 8, 2], &mut rng(8));
        assert_ne!(a, c);
    }

    #[test]
    fn loss_decreases_when_fitting_a_linear_map() {
        let mut net = Mlp::new(&[3, 16, 16, 1], &mut rng(1));
        let mut opt = AdaDelta::new(net.num_params());
        let mut scratch = TrainScratch::new();
        let xs: Vec<f64> = (0..32)
            .flat_map(|i| {
                let t = i as f64 / 32.0;
                [t, 1.0 - t, t * t]
            })
            .collect();
        let ys: Vec<f64> = xs
            .chunks_exact(3)
            .map(|x| 2.0 * x[0] - x[1] + 0.5 * x[2])
            .collect();
        let first = net.train_batch_with(&xs, &ys, &mut opt, &mut scratch);
        let mut last = first;
        for _ in 0..500 {
            last = net.train_batch_with(&xs, &ys, &mut opt, &mut scratch);
        }
        assert!(
            last < first * 0.1,
            "loss did not decrease: {first} -> {last}"
        );
    }

    #[test]
    fn fits_xor_like_nonlinearity() {
        let mut net = Mlp::new(&[2, 16, 16, 1], &mut rng(3));
        let mut opt = AdaDelta::new(net.num_params());
        let mut scratch = TrainScratch::new();
        let xs = [0.0, 0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        let ys = [0.0, 1.0, 1.0, 0.0];
        for _ in 0..3000 {
            net.train_batch_with(&xs, &ys, &mut opt, &mut scratch);
        }
        for (x, y) in xs.chunks_exact(2).zip(ys) {
            let p = net.forward(x)[0];
            assert!((p - y).abs() < 0.3, "xor({x:?}) = {p}, want {y}");
        }
    }

    #[test]
    fn forward_into_is_bit_identical_to_forward() {
        let net = Mlp::new(&[6, 24, 24, 4], &mut rng(11));
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        let mut r = rng(12);
        for _ in 0..16 {
            let x: Vec<f64> = (0..6).map(|_| r.gen_range(-2.0..2.0)).collect();
            net.forward_into(&x, &mut scratch, &mut out);
            assert_eq!(out, net.forward(&x)); // exact: identical op order
        }
    }

    #[test]
    fn forward_batch_concatenates_individual_outputs() {
        let net = Mlp::new(&[5, 16, 3], &mut rng(13));
        let mut r = rng(14);
        // An odd row count leaves a remainder after the sample blocks.
        let xs: Vec<f64> = (0..7 * 5).map(|_| r.gen_range(-1.0..1.0)).collect();
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        net.forward_batch(&xs, &mut scratch, &mut out);
        assert_eq!(out.len(), 7 * net.output_dim());
        for (x, row) in xs.chunks_exact(5).zip(out.chunks_exact(net.output_dim())) {
            assert_eq!(row, net.forward(x).as_slice());
        }
    }

    #[test]
    fn non_finite_loss_leaves_network_and_optimizer_untouched() {
        let mut net = Mlp::new(&[3, 8, 2], &mut rng(17));
        let mut opt = AdaDelta::new(net.num_params());
        let mut scratch = TrainScratch::new();
        let xs = [0.1, 0.2, 0.3, -0.4, 0.5, 0.6];
        net.train_batch_with(&xs, &[0.5, -0.5, 1.0, 0.0], &mut opt, &mut scratch);
        let (net_before, opt_before) = (net.clone(), opt.clone());
        for bad in [f64::NAN, f64::INFINITY] {
            let loss = net.train_batch_with(&xs, &[0.5, bad, 1.0, 0.0], &mut opt, &mut scratch);
            assert!(!loss.is_finite());
            assert_eq!(net, net_before);
            assert_eq!(opt, opt_before);
        }
    }

    #[test]
    fn adadelta_moves_against_gradient() {
        let mut opt = AdaDelta::new(1);
        let d = opt.step(0, 1.0);
        assert!(d < 0.0);
        let d2 = opt.step(0, -1.0);
        assert!(d2 > 0.0);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_checks_width() {
        let net = Mlp::new(&[4, 8, 2], &mut rng(0));
        net.forward(&[0.0; 3]);
    }

    #[test]
    #[should_panic(expected = "input width mismatch")]
    fn forward_batch_checks_width() {
        let net = Mlp::new(&[4, 8, 2], &mut rng(0));
        net.forward_batch(&[0.0; 6], &mut MlpScratch::new(), &mut Vec::new());
    }

    #[test]
    #[should_panic(expected = "optimizer size mismatch")]
    fn train_checks_optimizer() {
        let mut net = Mlp::new(&[2, 4, 1], &mut rng(0));
        let mut opt = AdaDelta::new(3);
        net.train_batch_with(&[0.0, 0.0], &[0.0], &mut opt, &mut TrainScratch::new());
    }
}
