//! [`Trainer`]: an [`Mlp`] and its [`AdaDelta`] state laid out so that a
//! second thread can share each training step.
//!
//! A step is the two phases of [`Mlp::train_batch_with`], cut into items
//! that either thread may claim:
//!
//! - **Phase A**, by rows: the batch is split into two halves, and each
//!   half goes forward through every layer, forms its output delta and
//!   propagates it down through every layer's pre-update weights. A row's
//!   values depend on that row alone.
//! - **The loss** is summed by the caller over both halves in row order,
//!   and a non-finite loss ends the step before any parameter write.
//! - **Phase B**, by layers: each layer sums its gradients over the first
//!   half's rows and then the second's, in sample order, and applies its
//!   own slice of the AdaDelta state, which is element-wise.
//!
//! So every value gets exactly the operations of the one-thread step, in
//! the same order, whichever thread runs which item.
//!
//! The caller publishes each job (a phase's items) in one atomic word and
//! claims items from it until none is left; a [`TrainHelper`] on another
//! thread claims from the same word. The caller waits only for items
//! already claimed, never for unclaimed ones, so a helper that is late,
//! preempted or absent costs parallelism, not time. All data sits behind
//! one lock per half, per layer and for the batch: the locks order every
//! read and write of it, the atomics only hand out and count items. The
//! caller sizes every buffer before it publishes a job, so a helper's
//! work allocates nothing.

use std::ops::{DerefMut, Range};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::{backprop_rows, fold_loss, forward_pingpong, forward_rows};
use crate::{AdaDelta, Layers, Linear, Mlp, MlpScratch, OptSlice, RowBufs};

const POISONED: &str = "a training thread panicked while holding the step's data";

/// Job kinds, as stored in the job word.
const FORWARD: u64 = 1;
const BACKPROP: u64 = 2;
const UPDATE: u64 = 3;

/// Spins of the caller's wait for claimed items before it starts to yield.
const WAIT_SPINS: u32 = 1 << 14;

/// The batch a [`Trainer`] works on, filled in place by its caller.
#[derive(Debug, Default)]
pub struct TrainBatch {
    /// Row-major inputs: the training rows first, then any rows that are
    /// only run forward ([`Trainer::forward_batch`] runs all of them).
    pub xs: Vec<f64>,
    /// Row-major targets of the first `ys.len() / output_dim` rows of
    /// `xs` (what [`Trainer::train_step`] trains on), or the outputs of
    /// the last [`Trainer::forward_batch`].
    pub ys: Vec<f64>,
}

/// An [`Mlp`] with its [`AdaDelta`] state, trained in steps that a
/// [`TrainHelper`] on another thread may share.
///
/// Each step gives the bits of [`Mlp::train_batch_with`] on the same
/// batch, with or without a helper and however the work falls between the
/// threads (see the module source for the order argument). Without a
/// helper the caller runs every item itself.
#[derive(Debug)]
pub struct Trainer {
    shared: Arc<Shared>,
}

/// A handle through which another thread takes part in a [`Trainer`]'s
/// steps. It only ever runs work the trainer's caller has published, so
/// it may be called at any time, from any thread.
#[derive(Debug)]
pub struct TrainHelper {
    shared: Arc<Shared>,
}

#[derive(Debug)]
struct Shared {
    /// Phase B's units: one layer's parameters and AdaDelta state each.
    units: Vec<RwLock<Unit>>,
    /// Each layer's output width.
    widths: Vec<usize>,
    n_in: usize,
    rho: f64,
    eps: f64,
    batch: RwLock<TrainBatch>,
    /// Phase A's buffers, one per row half.
    halves: [RwLock<RowBufs>; 2],
    /// Gradient scratch for phase B, each the widest layer's size: one
    /// for each of two threads updating layers at once.
    grads: [Mutex<Vec<f64>>; 2],
    /// The published job: generation (bits 32..64), kind (16..24), item
    /// count (8..16) and the next unclaimed item (0..8).
    job: AtomicU64,
    /// Items of the published job that have finished.
    done: AtomicUsize,
    /// Set when a helper unwinds out of an item, so the caller stops
    /// waiting for it.
    helper_panicked: AtomicBool,
    /// Most items the caller claims per job: lets tests force work onto
    /// a helper.
    #[cfg(test)]
    caller_quota: AtomicUsize,
    /// Makes a helper panic on its next claimed item.
    #[cfg(test)]
    panic_in_helper: AtomicBool,
}

#[derive(Debug)]
struct Unit {
    layer: Linear,
    g2: Vec<f64>,
    u2: Vec<f64>,
}

impl Layers for [RwLock<Unit>] {
    fn count(&self) -> usize {
        self.len()
    }

    fn with<T>(&self, li: usize, f: impl FnOnce(&Linear) -> T) -> T {
        f(&self[li].read().expect(POISONED).layer)
    }
}

/// Rows of half `h` of an `n`-row batch.
fn half(n: usize, h: usize) -> Range<usize> {
    let mid = n / 2;
    if h == 0 {
        0..mid
    } else {
        mid..n
    }
}

impl Trainer {
    /// Takes over `net` and its optimizer state.
    ///
    /// # Panics
    ///
    /// Panics if `opt` was created for a different parameter count or the
    /// network has 256 layers or more.
    pub fn new(net: Mlp, opt: AdaDelta) -> Trainer {
        assert_eq!(opt.len(), net.num_params(), "optimizer size mismatch");
        assert!(net.layers.len() < 256, "too many layers");
        let widths = net.layers.iter().map(|l| l.outputs).collect();
        let widest = net.layers.iter().map(Linear::num_params).max();
        let grads = || Mutex::new(vec![0.0; widest.unwrap_or(0)]);
        let n_in = net.input_dim();
        let mut at = 0;
        let units = net
            .layers
            .into_iter()
            .map(|layer| {
                let range = at..at + layer.num_params();
                at = range.end;
                RwLock::new(Unit {
                    g2: opt.acc_grad[range.clone()].to_vec(),
                    u2: opt.acc_update[range].to_vec(),
                    layer,
                })
            })
            .collect();
        Trainer {
            shared: Arc::new(Shared {
                units,
                widths,
                n_in,
                rho: opt.rho,
                eps: opt.eps,
                batch: RwLock::default(),
                halves: Default::default(),
                grads: [grads(), grads()],
                job: AtomicU64::new(0),
                done: AtomicUsize::new(0),
                helper_panicked: AtomicBool::new(false),
                #[cfg(test)]
                caller_quota: AtomicUsize::new(usize::MAX),
                #[cfg(test)]
                panic_in_helper: AtomicBool::new(false),
            }),
        }
    }

    /// A handle for another thread to share this trainer's steps.
    pub fn helper(&self) -> TrainHelper {
        TrainHelper {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Input feature width.
    pub fn input_dim(&self) -> usize {
        self.shared.n_in
    }

    /// Output width.
    pub fn output_dim(&self) -> usize {
        self.shared.widths[self.shared.widths.len() - 1]
    }

    /// A copy of the network as it stands.
    pub fn net(&self) -> Mlp {
        let layers = self.units().map(|u| u.layer.clone()).collect();
        Mlp { layers }
    }

    /// A copy of the optimizer state as it stands.
    pub fn optimizer(&self) -> AdaDelta {
        let mut opt = AdaDelta::new(0);
        for unit in self.units() {
            opt.acc_grad.extend_from_slice(&unit.g2);
            opt.acc_update.extend_from_slice(&unit.u2);
        }
        opt
    }

    fn units(&self) -> impl Iterator<Item = RwLockReadGuard<'_, Unit>> {
        let units = self.shared.units.iter();
        units.map(|u| u.read().expect(POISONED))
    }

    /// Runs the network on one input on the calling thread,
    /// bit-identical to [`Mlp::forward_into`].
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` differs from [`Trainer::input_dim`].
    pub fn forward_into(&self, x: &[f64], scratch: &mut MlpScratch, out: &mut Vec<f64>) {
        assert_eq!(x.len(), self.input_dim(), "input width mismatch");
        forward_pingpong(self.shared.units.as_slice(), x, scratch, out);
    }

    /// The batch that [`Trainer::forward_batch`] and
    /// [`Trainer::train_step`] work on, for the caller to fill.
    pub fn batch(&mut self) -> impl DerefMut<Target = TrainBatch> + '_ {
        self.shared.batch.write().expect(POISONED)
    }

    /// Runs every row of the batch's `xs` through the network, the rows
    /// split in halves between the caller and any helper, and replaces
    /// the batch's `ys` with the output rows — bit-identical to
    /// [`Mlp::forward_batch`].
    ///
    /// # Panics
    ///
    /// Panics if `xs` is not whole rows, or if a helper panicked while
    /// running part of it.
    pub fn forward_batch(&mut self) {
        let rows = {
            let batch = self.shared.batch.read().expect(POISONED);
            assert_eq!(batch.xs.len() % self.input_dim(), 0, "input width mismatch");
            batch.xs.len() / self.input_dim()
        };
        self.reserve_halves(rows, false);
        self.run(FORWARD, 2);
        let mut batch = self.shared.batch.write().expect(POISONED);
        batch.ys.clear();
        for h in &self.shared.halves {
            batch.ys.extend_from_slice(&h.read().expect(POISONED).out);
        }
    }

    /// One AdaDelta step under MSE loss on the batch: its `ys` rows of
    /// targets against the first as many rows of `xs`. Returns the loss
    /// before the update; a non-finite loss leaves the network and the
    /// optimizer untouched. Bit-identical to [`Mlp::train_batch_with`].
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or not whole rows, if `xs` has fewer
    /// rows than `ys`, or if a helper panicked while running part of it.
    pub fn train_step(&mut self) -> f64 {
        let (rows, scale) = {
            let batch = self.shared.batch.read().expect(POISONED);
            let (n_in, n_out) = (self.input_dim(), self.output_dim());
            assert_eq!(batch.ys.len() % n_out, 0, "target width mismatch");
            let rows = batch.ys.len() / n_out;
            assert!(rows > 0, "bad batch");
            assert_eq!(batch.xs.len() % n_in, 0, "input width mismatch");
            assert!(
                batch.xs.len() >= rows * n_in,
                "fewer input rows than targets"
            );
            (rows, 1.0 / batch.ys.len() as f64)
        };
        self.reserve_halves(rows, true);
        self.run(BACKPROP, 2);
        let halves = self.shared.halves.iter();
        let loss = halves.fold(0.0, |loss, h| {
            fold_loss(loss, &h.read().expect(POISONED).out, scale)
        });
        if loss.is_finite() {
            self.run(UPDATE, self.shared.units.len());
        }
        loss
    }

    /// Sizes both halves' buffers for an `n`-row job, with deltas when
    /// `backprop`.
    fn reserve_halves(&mut self, n: usize, backprop: bool) {
        for (h, bufs) in self.shared.halves.iter().enumerate() {
            let mut bufs = bufs.write().expect(POISONED);
            bufs.reserve(&self.shared.widths, half(n, h).len(), backprop);
        }
    }

    /// Publishes a job of `items` items, runs what no helper claims, and
    /// returns once every item has finished.
    fn run(&mut self, kind: u64, items: usize) {
        let s = &*self.shared;
        // Relaxed: every item of the previous job has finished, so no
        // thread touches `done` until the store below publishes this job.
        s.done.store(0, Ordering::Relaxed);
        let generation = (s.job.load(Ordering::Relaxed) >> 32).wrapping_add(1) & 0xffff_ffff;
        // Release: pairs with the Acquire loads in `claim`, so a thread
        // that claims an item of this job sees the reset of `done`.
        s.job.store(
            generation << 32 | kind << 16 | (items as u64) << 8,
            Ordering::Release,
        );
        #[cfg(test)]
        let mut quota = s.caller_quota.load(Ordering::Relaxed);
        #[cfg(not(test))]
        let mut quota = usize::MAX;
        while quota > 0 {
            match s.claim() {
                Some((kind, item)) => s.run_item(kind, item),
                None => break,
            }
            quota -= 1;
        }
        let mut spins = 0;
        // Acquire: pairs with the Release increment in `run_item`, so
        // each item's work (and its lock releases) happened before the
        // caller goes on to read its results.
        while s.done.load(Ordering::Acquire) < items {
            // Relaxed: the flag publishes no data; it only ends the wait.
            assert!(
                !s.helper_panicked.load(Ordering::Relaxed),
                "the training helper thread panicked"
            );
            if spins < WAIT_SPINS {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

impl TrainHelper {
    /// Claims and runs items of the trainer's published job until none
    /// is left unclaimed; returns whether it ran any. Never blocks: with
    /// no work published it returns `false` at once.
    pub fn help(&self) -> bool {
        /// Tells the caller when the helper unwinds out of an item.
        struct PanicFlag<'a>(&'a AtomicBool);
        impl Drop for PanicFlag<'_> {
            fn drop(&mut self) {
                if std::thread::panicking() {
                    // Relaxed: see the caller's load in `Trainer::run`.
                    self.0.store(true, Ordering::Relaxed);
                }
            }
        }
        let s = &*self.shared;
        let _flag = PanicFlag(&s.helper_panicked);
        let mut ran = false;
        while let Some((kind, item)) = s.claim() {
            #[cfg(test)]
            assert!(
                !s.panic_in_helper.load(Ordering::Relaxed),
                "injected helper panic"
            );
            s.run_item(kind, item);
            ran = true;
        }
        ran
    }
}

impl Shared {
    /// Claims the published job's next unclaimed item, if any, as its
    /// kind and index.
    fn claim(&self) -> Option<(u64, usize)> {
        // Acquire (load and both CAS outcomes): pairs with the Release
        // store that published the job in `Trainer::run`.
        let mut word = self.job.load(Ordering::Acquire);
        loop {
            let (kind, items, next) = (word >> 16 & 0xff, word >> 8 & 0xff, word & 0xff);
            if next >= items {
                return None;
            }
            match self.job.compare_exchange_weak(
                word,
                word + 1,
                Ordering::Acquire,
                Ordering::Acquire,
            ) {
                Ok(_) => return Some((kind, next as usize)),
                Err(current) => word = current,
            }
        }
    }

    /// Runs one claimed item and counts it done.
    fn run_item(&self, kind: u64, item: usize) {
        self.work(kind, item);
        // Release: pairs with the caller's Acquire wait in `Trainer::run`;
        // the item's work and the release of its locks come first.
        self.done.fetch_add(1, Ordering::Release);
    }

    /// One item's work.
    fn work(&self, kind: u64, item: usize) {
        let batch = self.batch.read().expect(POISONED);
        match kind {
            FORWARD => {
                let rows = half(batch.xs.len() / self.n_in, item);
                let xs = &batch.xs[rows.start * self.n_in..rows.end * self.n_in];
                forward_rows(self.units.as_slice(), xs, &mut self.half_mut(item));
            }
            BACKPROP => {
                let n_out = self.widths[self.widths.len() - 1];
                let rows = half(batch.ys.len() / n_out, item);
                let xs = &batch.xs[rows.start * self.n_in..rows.end * self.n_in];
                let ys = &batch.ys[rows.start * n_out..rows.end * n_out];
                let scale = 1.0 / batch.ys.len() as f64;
                backprop_rows(
                    self.units.as_slice(),
                    xs,
                    ys,
                    scale,
                    &mut self.half_mut(item),
                );
            }
            _ => {
                let n_out = self.widths[self.widths.len() - 1];
                let rows = batch.ys.len() / n_out;
                let halves = self.halves.each_ref().map(|h| h.read().expect(POISONED));
                let seg = |h: usize| {
                    let input = match item {
                        0 => {
                            let r = half(rows, h);
                            &batch.xs[r.start * self.n_in..r.end * self.n_in]
                        }
                        li => halves[h].acts[li - 1].as_slice(),
                    };
                    (input, halves[h].deltas[item].as_slice())
                };
                let mut unit = self.units[item].write().expect(POISONED);
                let Unit { layer, g2, u2 } = &mut *unit;
                let mut opt = OptSlice {
                    rho: self.rho,
                    eps: self.eps,
                    g2,
                    u2,
                };
                layer.update(
                    [seg(0), seg(1)],
                    &mut opt,
                    &mut self.grads()[..layer.num_params()],
                );
            }
        }
    }

    /// A free gradient buffer (waiting for one only when more than two
    /// threads update layers at once).
    fn grads(&self) -> MutexGuard<'_, Vec<f64>> {
        let free = self.grads.iter().find_map(|g| g.try_lock().ok());
        free.unwrap_or_else(|| self.grads[0].lock().expect(POISONED))
    }

    fn half_mut(&self, h: usize) -> RwLockWriteGuard<'_, RowBufs> {
        self.halves[h].write().expect(POISONED)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::oracle::{self, bits, dims, matrix, Oracle};
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::mpsc;
    use std::time::Duration;

    /// Who runs a [`Trainer`]'s items.
    #[derive(Debug, Clone, Copy)]
    enum Mode {
        /// The caller alone: no helper thread.
        Solo,
        /// The caller claims one item per job and a helper thread the
        /// rest, so both threads work in every job.
        Split,
        /// A helper thread runs every item.
        Helper,
    }

    const MODES: [Mode; 3] = [Mode::Solo, Mode::Split, Mode::Helper];

    /// Runs `f` on `trainer` with its items shared out as `mode` says.
    fn in_mode<T>(trainer: &mut Trainer, mode: Mode, f: impl FnOnce(&mut Trainer) -> T) -> T {
        let quota = match mode {
            Mode::Solo => return f(trainer),
            Mode::Split => 1,
            Mode::Helper => 0,
        };
        trainer.shared.caller_quota.store(quota, Ordering::Relaxed);
        let helper = trainer.helper();
        let stop = AtomicBool::new(false);
        let out = std::thread::scope(|s| {
            s.spawn(|| {
                while !stop.load(Ordering::Relaxed) {
                    helper.help();
                    std::hint::spin_loop();
                }
            });
            let out = f(trainer);
            stop.store(true, Ordering::Relaxed);
            out
        });
        trainer
            .shared
            .caller_quota
            .store(usize::MAX, Ordering::Relaxed);
        out
    }

    /// One [`Trainer::train_step`] on `xs`/`ys` in `mode`.
    fn step(trainer: &mut Trainer, mode: Mode, xs: &[f64], ys: &[f64]) -> f64 {
        {
            let mut batch = trainer.batch();
            batch.xs.clear();
            batch.xs.extend_from_slice(xs);
            batch.ys.clear();
            batch.ys.extend_from_slice(ys);
        }
        in_mode(trainer, mode, Trainer::train_step)
    }

    fn check(dims: &[usize], rows: usize, steps: usize, seed: u64, mode: Mode) -> usize {
        oracle::check_training(dims, rows, steps, seed, |net, opt| {
            let mut trainer = Trainer::new(net, opt);
            move |xs, ys| {
                let loss = step(&mut trainer, mode, xs, ys);
                (loss, trainer.net(), trainer.optimizer())
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// The shared step ≡ the per-sample oracle, bit for bit, whoever
        /// runs its items — including one row, where the first half is
        /// empty.
        #[test]
        fn shared_step_matches_per_sample_oracle(
            dims in dims(),
            rows in 1usize..=70,
            seed in any::<u64>(),
        ) {
            for mode in MODES {
                check(&dims, rows, 2, seed, mode);
            }
        }

        /// A shared forward batch ≡ the oracle's forward on every row.
        #[test]
        fn shared_forward_matches_per_sample_oracle(
            dims in dims(),
            rows in 0usize..=70,
            seed in any::<u64>(),
        ) {
            let mut rng = StdRng::seed_from_u64(seed);
            let net = Mlp::new(&dims, &mut rng);
            let oracle = Oracle::of(&net);
            let (n_in, n_out) = (dims[0], dims[dims.len() - 1]);
            let xs = matrix(&mut rng, rows, n_in, 3.0);
            let mut trainer = Trainer::new(net.clone(), AdaDelta::new(net.num_params()));
            trainer.batch().xs = xs.clone();
            for mode in MODES {
                in_mode(&mut trainer, mode, Trainer::forward_batch);
                let out = std::mem::take(&mut trainer.batch().ys);
                prop_assert_eq!(out.len(), rows * n_out);
                for (x, row) in xs.chunks(n_in).zip(out.chunks(n_out)) {
                    let acts = oracle.activations(x);
                    prop_assert_eq!(bits(row), bits(acts.last().expect("the output row")));
                }
            }
        }
    }

    /// The Q-agent's own shapes: 64 rows, eight steps.
    #[test]
    fn q_network_steps_match_per_sample_oracle() {
        for (seed, dims) in [[14, 64, 64, 64, 21], [43, 64, 64, 64, 82]]
            .iter()
            .enumerate()
        {
            for mode in MODES {
                assert!(
                    check(dims, 64, 8, seed as u64, mode) > 0,
                    "{dims:?}: no mask"
                );
            }
        }
    }

    #[test]
    fn non_finite_loss_leaves_network_and_optimizer_untouched() {
        let mut rng = StdRng::seed_from_u64(17);
        let net = Mlp::new(&[3, 8, 2], &mut rng);
        let opt = AdaDelta::new(net.num_params());
        let xs = [0.1, 0.2, 0.3, -0.4, 0.5, 0.6];
        for mode in MODES {
            let mut trainer = Trainer::new(net.clone(), opt.clone());
            step(&mut trainer, mode, &xs, &[0.5, -0.5, 1.0, 0.0]);
            let (net_before, opt_before) = (trainer.net(), trainer.optimizer());
            for bad in [f64::NAN, f64::INFINITY] {
                let loss = step(&mut trainer, mode, &xs, &[0.5, bad, 1.0, 0.0]);
                assert!(!loss.is_finite(), "{mode:?}");
                assert_eq!(trainer.net(), net_before, "{mode:?}");
                assert_eq!(trainer.optimizer(), opt_before, "{mode:?}");
            }
        }
    }

    #[test]
    fn a_helper_panic_fails_the_step_instead_of_hanging_it() {
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut rng = StdRng::seed_from_u64(3);
            let net = Mlp::new(&[4, 8, 2], &mut rng);
            let mut trainer = Trainer::new(net.clone(), AdaDelta::new(net.num_params()));
            *trainer.batch() = TrainBatch {
                xs: matrix(&mut rng, 6, 4, 1.0),
                ys: matrix(&mut rng, 6, 2, 1.0),
            };
            trainer.shared.caller_quota.store(0, Ordering::Relaxed);
            trainer
                .shared
                .panic_in_helper
                .store(true, Ordering::Relaxed);
            let helper = trainer.helper();
            let helper = std::thread::spawn(move || while !helper.help() {});
            let step = catch_unwind(AssertUnwindSafe(|| trainer.train_step()));
            tx.send((step.is_err(), helper.join().is_err()))
                .expect("the test waits");
        });
        let outcome = rx.recv_timeout(Duration::from_secs(60));
        assert_eq!(outcome, Ok((true, true)), "the step must panic, not hang");
    }
}
