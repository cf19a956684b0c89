//! Schedule-space generation, pruning, and the high-dimensional
//! rearrangement of §4.2.
//!
//! A point in the space is a [`NodeConfig`]; the space is *implicit* —
//! defined by the set of [`Direction`]s that connect neighboring points.
//! Pruning is built into the representation:
//!
//! * **divisible splits only** — factors are redistributions of the
//!   extent's prime factorization, so every split is exact;
//! * **bounded combination depth** — exactly 4 spatial / 3 reduce
//!   sub-loops per axis (recursion of split/fuse is capped);
//! * **hardware-fixed decisions** — per §4.2, some choices are
//!   pre-determined per target (vectorize innermost on CPU, bind structure
//!   on GPU, the three-stage pipeline on FPGA), so the corresponding
//!   directions simply do not exist on those targets.
//!
//! The rearrangement into a high-dimensional neighborhood is the
//! `SplitMove { from, to }` direction family: for a factorization
//! `[f1..fN]`, the neighbor at direction `(i, j)` moves one prime factor
//! from level `j` to level `i` — exactly the paper's
//! `g_i > f_i, g_j < f_j` neighbors.

use std::cell::RefCell;

use flextensor_ir::graph::{ComputeOp, Graph};
use flextensor_schedule::config::{
    ConfigLayout, NodeConfig, TargetKind, REDUCE_PARTS, SPATIAL_PARTS,
};
use rand::Rng;

/// Which loop family a direction's axis lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AxisRef {
    /// The `i`-th spatial axis.
    Spatial(usize),
    /// The `i`-th reduce axis.
    Reduce(usize),
}

/// One neighborhood direction in the schedule space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Move one prime factor of the named axis's split from level `from`
    /// to level `to` (the §4.2 `(i, j)` direction).
    SplitMove {
        /// The axis whose split changes.
        axis: AxisRef,
        /// Level losing a prime factor.
        from: usize,
        /// Level gaining it.
        to: usize,
    },
    /// Swap adjacent entries of the reorder permutation.
    SwapReorder {
        /// Position swapped with `pos + 1`.
        pos: usize,
    },
    /// Fuse one more outermost loop into the parallel loop (CPU).
    FuseMore,
    /// Fuse one fewer.
    FuseLess,
    /// Toggle inner-loop unrolling.
    ToggleUnroll,
    /// Toggle shared-memory caching (GPU).
    ToggleCache,
    /// Toggle inlining of data-movement producers.
    ToggleInline,
    /// Double the FPGA memory partition factor.
    PartitionUp,
    /// Halve it.
    PartitionDown,
    /// Add an overlapped FPGA pipeline stage.
    PipelineUp,
    /// Remove one.
    PipelineDown,
}

/// Smallest prime factor of `n` (`n` ≥ 2).
fn smallest_prime_factor(n: i64) -> i64 {
    debug_assert!(n >= 2);
    if n % 2 == 0 {
        return 2;
    }
    let mut d = 3;
    while d * d <= n {
        if n % d == 0 {
            return d;
        }
        d += 2;
    }
    n
}

/// Number of ordered factorizations of `n` into `parts` factors
/// (stars-and-bars per prime power; multiplicative).
pub fn num_factorizations(n: i64, parts: u32) -> f64 {
    let mut n = n;
    let mut total = 1.0f64;
    let mut p = 2;
    while p * p <= n {
        if n % p == 0 {
            let mut a = 0u32;
            while n % p == 0 {
                n /= p;
                a += 1;
            }
            total *= binomial(a + parts - 1, parts - 1);
        }
        p += 1;
    }
    if n > 1 {
        total *= binomial(parts, parts - 1); // a = 1
    }
    total
}

fn binomial(n: u32, k: u32) -> f64 {
    let k = k.min(n - k.min(n));
    let mut r = 1.0f64;
    for i in 0..k {
        r = r * (n - i) as f64 / (i + 1) as f64;
    }
    r
}

thread_local! {
    /// The point's and the neighbor's words for [`Space::apply`], so it
    /// allocates only the neighbor it returns.
    static APPLY_WORDS: RefCell<(Vec<i64>, Vec<i64>)> =
        const { RefCell::new((Vec::new(), Vec::new())) };
}

/// Offsets of the scalar words at the end of a Fig. 3e key
/// ([`NodeConfig::encode`]), counted from the fuse-depth word.
const FUSE: usize = 0;
const UNROLL: usize = 1;
const VECTORIZE: usize = 2;
const CACHE: usize = 3;
const INLINE: usize = 4;
const PARTITION: usize = 5;
const PIPELINE: usize = 6;

/// The schedule space of one compute node on one target (§4.2).
#[derive(Debug, Clone)]
pub struct Space {
    op: ComputeOp,
    target: TargetKind,
    directions: Vec<Direction>,
    /// The layout of every point's encoding.
    layout: ConfigLayout,
    /// Word offset of the reorder permutation in a point's encoding.
    reorder_at: usize,
    /// Word offset of the fuse depth, the first of the seven scalar words.
    tail_at: usize,
}

impl Space {
    /// Builds the (pruned, rearranged) space for a graph's anchor op (the
    /// arithmetic core; fused epilogues have no schedule decisions of
    /// their own).
    pub fn new(graph: &Graph, target: TargetKind) -> Space {
        let op = graph.anchor_op().clone();
        let ns = op.spatial.len();
        let nr = op.reduce.len();
        let mut directions = Vec::new();
        for i in 0..ns {
            if op.spatial[i].extent == 1 {
                continue; // no factors to move
            }
            for from in 0..SPATIAL_PARTS {
                for to in 0..SPATIAL_PARTS {
                    if from != to {
                        directions.push(Direction::SplitMove {
                            axis: AxisRef::Spatial(i),
                            from,
                            to,
                        });
                    }
                }
            }
        }
        for i in 0..nr {
            if op.reduce[i].extent == 1 {
                continue;
            }
            for from in 0..REDUCE_PARTS {
                for to in 0..REDUCE_PARTS {
                    if from != to {
                        directions.push(Direction::SplitMove {
                            axis: AxisRef::Reduce(i),
                            from,
                            to,
                        });
                    }
                }
            }
        }
        for pos in 0..ns.saturating_sub(1) {
            directions.push(Direction::SwapReorder { pos });
        }
        directions.push(Direction::ToggleUnroll);
        directions.push(Direction::ToggleInline);
        match target {
            TargetKind::Cpu => {
                directions.push(Direction::FuseMore);
                directions.push(Direction::FuseLess);
            }
            TargetKind::Gpu => {
                directions.push(Direction::ToggleCache);
            }
            TargetKind::Fpga => {
                directions.push(Direction::PartitionUp);
                directions.push(Direction::PartitionDown);
                directions.push(Direction::PipelineUp);
                directions.push(Direction::PipelineDown);
            }
        }
        let reorder_at = ns * SPATIAL_PARTS + nr * REDUCE_PARTS;
        Space {
            layout: ConfigLayout::for_op(&op),
            op,
            target,
            directions,
            reorder_at,
            tail_at: reorder_at + ns,
        }
    }

    /// The compute op this space schedules.
    pub fn op(&self) -> &ComputeOp {
        &self.op
    }

    /// The target the space was pruned for.
    pub fn target(&self) -> TargetKind {
        self.target
    }

    /// All directions (the action set of the Q-learning formulation).
    pub fn directions(&self) -> &[Direction] {
        &self.directions
    }

    /// The layout of every point's encoding (the op's).
    pub(crate) fn layout(&self) -> &ConfigLayout {
        &self.layout
    }

    /// The hardware-fixed defaults applied to every point on this target
    /// (§4.2's pre-determined decisions), on the point's seven scalar
    /// words.
    fn apply_target_defaults(&self, tail: &mut [i64]) {
        tail[VECTORIZE] = 1;
        let ns = self.op.spatial.len() as i64;
        match self.target {
            TargetKind::Cpu => {
                tail[CACHE] = 0;
                tail[FUSE] = tail[FUSE].clamp(1, ns);
            }
            // All level-0 factors fuse into the grid.
            TargetKind::Gpu => tail[FUSE] = ns,
            TargetKind::Fpga => tail[CACHE] = 0,
        }
    }

    /// `cfg`, a config of this space's op, with the target's defaults
    /// applied.
    fn with_target_defaults(&self, cfg: &NodeConfig) -> NodeConfig {
        let mut key = cfg.encode();
        self.apply_target_defaults(&mut key[self.tail_at..]);
        NodeConfig::from_words(&self.layout, &key)
    }

    /// The identity point (naive schedule) with target defaults applied.
    pub fn start_point(&self) -> NodeConfig {
        self.with_target_defaults(&NodeConfig::naive(&self.op))
    }

    /// Samples a uniform random point: each axis's prime factors are
    /// scattered uniformly over its levels; flags and permutation random.
    pub fn random_point(&self, rng: &mut impl Rng) -> NodeConfig {
        let mut cfg = NodeConfig::naive(&self.op);
        let scatter = |extent: i64, parts: usize, rng: &mut dyn rand::RngCore| -> Vec<i64> {
            let mut f = vec![1i64; parts];
            let mut n = extent;
            while n > 1 {
                let p = smallest_prime_factor(n);
                n /= p;
                let slot = rng.gen_range(0..parts);
                f[slot] *= p;
            }
            f
        };
        for (i, a) in self.op.spatial.iter().enumerate() {
            cfg.spatial_splits[i] = scatter(a.extent, SPATIAL_PARTS, rng);
        }
        for (i, a) in self.op.reduce.iter().enumerate() {
            cfg.reduce_splits[i] = scatter(a.extent, REDUCE_PARTS, rng);
        }
        // Random permutation (Fisher-Yates).
        let ns = self.op.spatial.len();
        let mut perm: Vec<usize> = (0..ns).collect();
        for i in (1..ns).rev() {
            let j = rng.gen_range(0..=i);
            perm.swap(i, j);
        }
        cfg.reorder = perm;
        cfg.fuse_outer = rng.gen_range(1..=ns);
        cfg.unroll = rng.gen_bool(0.5);
        cfg.cache_shared = rng.gen_bool(0.5);
        cfg.inline_data = rng.gen_bool(0.8);
        cfg.fpga_partition = 1 << rng.gen_range(0..5);
        cfg.fpga_pipeline = rng.gen_range(1..=3);
        self.with_target_defaults(&cfg)
    }

    /// Returns the neighbor of `cfg` along `dir`, or `None` when the move
    /// is not applicable (e.g. no prime factor to move, permutation edge,
    /// or a bound reached). `cfg` must be a point of this space's op.
    pub fn apply(&self, cfg: &NodeConfig, dir: Direction) -> Option<NodeConfig> {
        APPLY_WORDS.with(|bufs| {
            let (key, out) = &mut *bufs.borrow_mut();
            key.clear();
            cfg.encode_into(key);
            self.apply_words(key, dir, out)
                .then(|| NodeConfig::from_words(&self.layout, out))
        })
    }

    /// [`Space::apply`] on encodings: writes the [`NodeConfig::encode`]
    /// words of the neighbor of the point encoded by `key` along `dir` into
    /// `out` (cleared first) and returns `true`, or returns `false` when
    /// the move is not applicable (`out` is then unspecified). The move is
    /// made on the words, then the target's defaults (§4.2) are applied to
    /// them, so a point that is not normalized to the target (an adapted
    /// warm-start seed) comes out normalized, as from [`Space::apply`].
    ///
    /// # Panics
    ///
    /// Panics when `key` does not have this space's layout.
    pub fn apply_words(&self, key: &[i64], dir: Direction, out: &mut Vec<i64>) -> bool {
        assert_eq!(
            key.len(),
            self.layout.words(),
            "key is not a point of this space"
        );
        let (r, t) = (self.reorder_at, self.tail_at);
        let ns = self.op.spatial.len() as i64;
        let applicable = match dir {
            Direction::SplitMove { axis, from, .. } => key[self.split_at(axis) + from] > 1,
            Direction::SwapReorder { pos } => pos + 1 < t - r,
            Direction::FuseMore => key[t + FUSE] < ns,
            Direction::FuseLess => key[t + FUSE] > 1,
            Direction::ToggleUnroll | Direction::ToggleCache | Direction::ToggleInline => true,
            Direction::PartitionUp => key[t + PARTITION] < 16,
            Direction::PartitionDown => key[t + PARTITION] > 1,
            Direction::PipelineUp => key[t + PIPELINE] < 3,
            Direction::PipelineDown => key[t + PIPELINE] > 1,
        };
        if !applicable {
            return false;
        }
        out.clear();
        out.extend_from_slice(key);
        let toggle = |w: &mut i64| *w = (*w == 0) as i64;
        match dir {
            Direction::SplitMove { axis, from, to } => {
                let f = &mut out[self.split_at(axis)..];
                let p = smallest_prime_factor(f[from]);
                f[from] /= p;
                f[to] *= p;
            }
            Direction::SwapReorder { pos } => out.swap(r + pos, r + pos + 1),
            Direction::FuseMore => out[t + FUSE] += 1,
            Direction::FuseLess => out[t + FUSE] -= 1,
            Direction::ToggleUnroll => toggle(&mut out[t + UNROLL]),
            Direction::ToggleCache => toggle(&mut out[t + CACHE]),
            Direction::ToggleInline => toggle(&mut out[t + INLINE]),
            Direction::PartitionUp => out[t + PARTITION] *= 2,
            Direction::PartitionDown => out[t + PARTITION] /= 2,
            Direction::PipelineUp => out[t + PIPELINE] += 1,
            Direction::PipelineDown => out[t + PIPELINE] -= 1,
        }
        self.apply_target_defaults(&mut out[t..]);
        true
    }

    /// Word offset of an axis's split factors in a point's encoding.
    fn split_at(&self, axis: AxisRef) -> usize {
        match axis {
            AxisRef::Spatial(i) => i * SPATIAL_PARTS,
            AxisRef::Reduce(i) => self.op.spatial.len() * SPATIAL_PARTS + i * REDUCE_PARTS,
        }
    }

    /// Size of the schedule space (number of points), as an `f64` because
    /// the paper's spaces reach 10¹²⁺.
    pub fn size(&self) -> f64 {
        let mut total = 1.0f64;
        for a in &self.op.spatial {
            total *= num_factorizations(a.extent, SPATIAL_PARTS as u32);
        }
        for a in &self.op.reduce {
            total *= num_factorizations(a.extent, REDUCE_PARTS as u32);
        }
        let ns = self.op.spatial.len() as f64;
        total *= (1..=ns as u64).product::<u64>() as f64; // reorder permutations
        total *= 2.0 * 2.0; // unroll, inline
        match self.target {
            TargetKind::Cpu => total *= 2.0 * ns, // cache off; fuse depth choices
            TargetKind::Gpu => total *= 2.0,      // cache toggle
            TargetKind::Fpga => total *= 5.0 * 3.0, // partition, pipeline
        }
        total
    }

    /// Normalized feature vector of a point — the Q-network input. Split
    /// factors appear as `log2(f) / 10`, the permutation as normalized
    /// positions, flags as 0/1.
    pub fn features(&self, cfg: &NodeConfig) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.feature_dim());
        self.features_into(cfg, &mut out);
        out
    }

    /// Writes [`Space::features`] into a caller-provided buffer (cleared
    /// first) — zero allocation once the buffer is warm. The SA/Q hot
    /// loops call this once per start per trial.
    pub fn features_into(&self, cfg: &NodeConfig, out: &mut Vec<f64>) {
        out.clear();
        for f in &cfg.spatial_splits {
            for &x in f {
                out.push((x as f64).log2() / 10.0);
            }
        }
        for f in &cfg.reduce_splits {
            for &x in f {
                out.push((x as f64).log2() / 10.0);
            }
        }
        let ns = cfg.reorder.len().max(1);
        for &r in &cfg.reorder {
            out.push(r as f64 / ns as f64);
        }
        out.push(cfg.fuse_outer as f64 / ns as f64);
        out.push(cfg.unroll as i64 as f64);
        out.push(cfg.cache_shared as i64 as f64);
        out.push(cfg.inline_data as i64 as f64);
        out.push((cfg.fpga_partition as f64).log2() / 4.0);
        out.push(cfg.fpga_pipeline as f64 / 3.0);
    }

    /// Width of [`Space::features`] vectors.
    pub fn feature_dim(&self) -> usize {
        self.op.spatial.len() * SPATIAL_PARTS
            + self.op.reduce.len() * REDUCE_PARTS
            + self.op.spatial.len()
            + 6
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The move rules and target defaults on configs, as [`Space::apply`]
    /// applied them before it moved to encodings: the oracle
    /// [`Space::apply_words`] must match.
    fn apply_oracle(sp: &Space, cfg: &NodeConfig, dir: Direction) -> Option<NodeConfig> {
        let mut out = cfg.clone();
        match dir {
            Direction::SplitMove { axis, from, to } => {
                let f = match axis {
                    AxisRef::Spatial(i) => &mut out.spatial_splits[i],
                    AxisRef::Reduce(i) => &mut out.reduce_splits[i],
                };
                if f[from] <= 1 {
                    return None;
                }
                let p = smallest_prime_factor(f[from]);
                f[from] /= p;
                f[to] *= p;
            }
            Direction::SwapReorder { pos } => {
                if pos + 1 >= out.reorder.len() {
                    return None;
                }
                out.reorder.swap(pos, pos + 1);
            }
            Direction::FuseMore => {
                if out.fuse_outer >= sp.op.spatial.len() {
                    return None;
                }
                out.fuse_outer += 1;
            }
            Direction::FuseLess => {
                if out.fuse_outer <= 1 {
                    return None;
                }
                out.fuse_outer -= 1;
            }
            Direction::ToggleUnroll => out.unroll = !out.unroll,
            Direction::ToggleCache => out.cache_shared = !out.cache_shared,
            Direction::ToggleInline => out.inline_data = !out.inline_data,
            Direction::PartitionUp => {
                if out.fpga_partition >= 16 {
                    return None;
                }
                out.fpga_partition *= 2;
            }
            Direction::PartitionDown => {
                if out.fpga_partition <= 1 {
                    return None;
                }
                out.fpga_partition /= 2;
            }
            Direction::PipelineUp => {
                if out.fpga_pipeline >= 3 {
                    return None;
                }
                out.fpga_pipeline += 1;
            }
            Direction::PipelineDown => {
                if out.fpga_pipeline <= 1 {
                    return None;
                }
                out.fpga_pipeline -= 1;
            }
        }
        out.vectorize = true;
        match sp.target {
            TargetKind::Cpu => {
                out.cache_shared = false;
                out.fuse_outer = out.fuse_outer.clamp(1, sp.op.spatial.len());
            }
            TargetKind::Gpu => out.fuse_outer = sp.op.spatial.len(),
            TargetKind::Fpga => out.cache_shared = false,
        }
        Some(out)
    }

    /// A warm-start seed as the search absorbs it: a random stored
    /// encoding adapted onto the op, so its flags, fuse depth and FPGA
    /// parameters are whatever the store held, not the target's defaults.
    fn warm_point(sp: &Space, rng: &mut StdRng) -> Option<NodeConfig> {
        let ns = sp.op.spatial.len();
        let nr = sp.op.reduce.len();
        let mut enc: Vec<i64> = (0..ns * SPATIAL_PARTS + nr * REDUCE_PARTS)
            .map(|_| [1, 2, 3, 4, 6, 7, 8, 16][rng.gen_range(0..8)])
            .collect();
        let mut perm: Vec<i64> = (0..ns as i64).collect();
        for i in (1..ns).rev() {
            perm.swap(i, rng.gen_range(0..=i));
        }
        enc.extend(perm);
        enc.push(rng.gen_range(0..=ns as i64 + 1)); // fuse, sometimes out of range
        for _ in 0..4 {
            enc.push(rng.gen_range(0..2)); // unroll, vectorize, cache, inline
        }
        enc.push(rng.gen_range(-1..40)); // partition, any positive factor
        enc.push(rng.gen_range(0..5)); // pipeline, sometimes out of range
        crate::warm::adapt_encoding(&sp.op, &enc)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Every direction from random, warm-adapted and walked-to points
        /// on every target: the word-level move is the config-level move,
        /// word for word, and [`Space::apply`] agrees with both.
        #[test]
        fn apply_words_matches_the_config_level_oracle(seed in any::<u64>()) {
            let graphs = [
                ops::gemm(96, 56, 40),
                ops::conv2d(ops::ConvParams::same(1, 12, 16, 3), 10, 10),
            ];
            let mut rng = StdRng::seed_from_u64(seed);
            let mut out = Vec::new();
            for g in &graphs {
                for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
                    let sp = Space::new(g, target);
                    let mut points = vec![sp.start_point()];
                    for _ in 0..4 {
                        points.push(sp.random_point(&mut rng));
                        points.extend(warm_point(&sp, &mut rng));
                    }
                    let mut i = 0;
                    while i < points.len() {
                        let p = points[i].clone();
                        let key = p.encode();
                        for &dir in sp.directions() {
                            let want = apply_oracle(&sp, &p, dir);
                            let got = sp.apply_words(&key, dir, &mut out);
                            prop_assert_eq!(got, want.is_some(), "{:?} from {}", dir, p);
                            if let Some(n) = &want {
                                prop_assert_eq!(&out, &n.encode(), "{:?} from {}", dir, p);
                                prop_assert_eq!(
                                    &NodeConfig::from_words(sp.layout(), &out),
                                    n
                                );
                            }
                            prop_assert_eq!(sp.apply(&p, dir), want);
                        }
                        // Walk on from a few neighbors, so moves compound
                        // (partition factors of 3·2^k, fuse at its bounds).
                        if points.len() < 40 {
                            let dir = sp.directions()[rng.gen_range(0..sp.directions().len())];
                            points.extend(apply_oracle(&sp, &p, dir));
                        }
                        i += 1;
                    }
                }
            }
        }
    }

    fn gpu_space() -> Space {
        let g = ops::conv2d(ops::ConvParams::same(1, 64, 128, 3), 28, 28);
        Space::new(&g, TargetKind::Gpu)
    }

    #[test]
    fn factorization_counts() {
        // 8 = 2^3 into 4 parts: C(6,3) = 20.
        assert_eq!(num_factorizations(8, 4), 20.0);
        // 12 = 2^2 * 3 into 2 parts: C(3,1)*C(2,1) = 6.
        assert_eq!(num_factorizations(12, 2), 6.0);
        assert_eq!(num_factorizations(1, 4), 1.0);
        assert_eq!(num_factorizations(7, 3), 3.0);
    }

    #[test]
    fn space_size_is_huge_for_conv() {
        // The paper reports conv2d spaces of 3.9e9 to 2.4e12.
        let g = flextensor_ir::yolo::yolo_layer("C13").unwrap().graph(1);
        let s = Space::new(&g, TargetKind::Gpu).size();
        assert!(s > 1e9, "space too small: {s:e}");
        assert!(s < 1e14, "space implausibly large: {s:e}");
    }

    #[test]
    fn split_move_conserves_product() {
        let sp = gpu_space();
        let start = sp.start_point();
        let d = Direction::SplitMove {
            axis: AxisRef::Spatial(1),
            from: 3,
            to: 2,
        };
        let n = sp.apply(&start, d).unwrap();
        let f = &n.spatial_splits[1];
        assert_eq!(f.iter().product::<i64>(), 128);
        assert_eq!(f[2], 2);
        n.validate(sp.op()).unwrap();
    }

    #[test]
    fn split_move_requires_a_factor() {
        let sp = gpu_space();
        let start = sp.start_point();
        // Level 0 of a naive split is 1: nothing to move away.
        let d = Direction::SplitMove {
            axis: AxisRef::Spatial(1),
            from: 0,
            to: 1,
        };
        assert!(sp.apply(&start, d).is_none());
    }

    #[test]
    fn every_applicable_direction_yields_valid_config() {
        let sp = gpu_space();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..20 {
            let p = sp.random_point(&mut rng);
            p.validate(sp.op()).unwrap();
            for &d in sp.directions() {
                if let Some(n) = sp.apply(&p, d) {
                    n.validate(sp.op())
                        .unwrap_or_else(|e| panic!("direction {d:?} produced invalid config: {e}"));
                }
            }
        }
    }

    #[test]
    fn random_points_are_diverse_and_deterministic() {
        let sp = gpu_space();
        let mut r1 = StdRng::seed_from_u64(42);
        let mut r2 = StdRng::seed_from_u64(42);
        let a = sp.random_point(&mut r1);
        let b = sp.random_point(&mut r2);
        assert_eq!(a, b);
        let c = sp.random_point(&mut r1);
        assert_ne!(a, c);
    }

    #[test]
    fn target_defaults_enforced() {
        let g = ops::gemm(64, 64, 64);
        let cpu = Space::new(&g, TargetKind::Cpu);
        let mut rng = StdRng::seed_from_u64(1);
        let p = cpu.random_point(&mut rng);
        assert!(!p.cache_shared, "CPU never uses shared memory");
        assert!(p.vectorize, "vectorize is pre-determined");
        let gpu = Space::new(&g, TargetKind::Gpu);
        let q = gpu.random_point(&mut rng);
        assert_eq!(q.fuse_outer, 2, "GPU fuses all outer loops to the grid");
    }

    #[test]
    fn direction_sets_differ_per_target() {
        let g = ops::gemm(64, 64, 64);
        let cpu = Space::new(&g, TargetKind::Cpu);
        let gpu = Space::new(&g, TargetKind::Gpu);
        let fpga = Space::new(&g, TargetKind::Fpga);
        assert!(cpu.directions().contains(&Direction::FuseMore));
        assert!(!gpu.directions().contains(&Direction::FuseMore));
        assert!(gpu.directions().contains(&Direction::ToggleCache));
        assert!(fpga.directions().contains(&Direction::PartitionUp));
        assert!(!cpu.directions().contains(&Direction::PartitionUp));
    }

    #[test]
    fn features_have_declared_dim() {
        let sp = gpu_space();
        let mut rng = StdRng::seed_from_u64(3);
        let p = sp.random_point(&mut rng);
        assert_eq!(sp.features(&p).len(), sp.feature_dim());
        // All features are finite and bounded.
        for f in sp.features(&p) {
            assert!(f.is_finite() && (-1.0..=2.0).contains(&f), "{f}");
        }
    }

    #[test]
    fn unit_extent_axes_have_no_split_directions() {
        // batch = 1: axis b contributes no SplitMove directions.
        let sp = gpu_space();
        let has_b_moves = sp.directions().iter().any(|d| {
            matches!(
                d,
                Direction::SplitMove {
                    axis: AxisRef::Spatial(0),
                    ..
                }
            )
        });
        assert!(!has_b_moves);
    }
}
