//! Schedule configurations: the points of the schedule space (§4.2).
//!
//! A [`NodeConfig`] records every decision the explorer makes for one
//! compute node — multi-way split factors per loop, the reorder
//! permutation, fusion depth, unrolling, vectorization, caching, and the
//! FPGA pipeline parameters. [`NodeConfig::encode`] flattens a config into
//! the integer vector of Fig. 3e; that vector is the representation
//! exploration moves through and the Q-network's input feature.

use std::fmt;

use flextensor_ir::graph::ComputeOp;

/// Number of sub-loops each *spatial* loop is split into (block / vthread /
/// thread / inner on GPU; parallel / L2-tile / L1-tile / vector on CPU).
pub const SPATIAL_PARTS: usize = 4;
/// Number of sub-loops each *reduce* loop is split into (outer / mid /
/// inner).
pub const REDUCE_PARTS: usize = 3;

/// The hardware targets of Table 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TargetKind {
    /// Multicore CPU (OpenMP-style parallel + SIMD).
    Cpu,
    /// CUDA-style GPU (grid/block/thread, shared memory).
    Gpu,
    /// FPGA with the three-stage read/compute/write pipeline of §5.2.
    Fpga,
}

impl fmt::Display for TargetKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TargetKind::Cpu => "cpu",
            TargetKind::Gpu => "gpu",
            TargetKind::Fpga => "fpga",
        };
        f.write_str(s)
    }
}

/// A complete schedule decision for one compute node.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct NodeConfig {
    /// Per spatial axis: [`SPATIAL_PARTS`] split factors whose product
    /// equals the axis extent (outermost factor first).
    pub spatial_splits: Vec<Vec<i64>>,
    /// Per reduce axis: [`REDUCE_PARTS`] split factors whose product equals
    /// the axis extent.
    pub reduce_splits: Vec<Vec<i64>>,
    /// Permutation over spatial axes controlling the layout order of the
    /// fused block / thread / parallel indices (outermost axis first).
    pub reorder: Vec<usize>,
    /// How many leading (per `reorder`) outermost sub-loops fuse into the
    /// parallel / grid loop. Always ≥ 1.
    pub fuse_outer: usize,
    /// Whether inner loops are unrolled.
    pub unroll: bool,
    /// Whether the innermost spatial sub-loop is vectorized (CPU) /
    /// drives coalescing (GPU).
    pub vectorize: bool,
    /// GPU: stage input tiles into shared memory (the `cache` primitive).
    pub cache_shared: bool,
    /// Graph-level: inline data-movement producers (pad / dilate) into the
    /// consumer body instead of materializing them (the `inline` /
    /// `compute_at` primitives).
    pub inline_data: bool,
    /// FPGA: memory partition factor (the `partition` primitive).
    pub fpga_partition: i64,
    /// FPGA: number of pipeline stages overlapped (the `pipeline`
    /// primitive); 1 = no overlap, 3 = full read/compute/write overlap.
    pub fpga_pipeline: i64,
}

impl NodeConfig {
    /// The identity ("do nothing") schedule for an op: no tiling (all
    /// factors 1 except the innermost which carries the whole extent), no
    /// reordering, no unrolling.
    pub fn naive(op: &ComputeOp) -> NodeConfig {
        let spatial_splits = op
            .spatial
            .iter()
            .map(|a| {
                let mut f = vec![1; SPATIAL_PARTS];
                f[SPATIAL_PARTS - 1] = a.extent;
                f
            })
            .collect();
        let reduce_splits = op
            .reduce
            .iter()
            .map(|a| {
                let mut f = vec![1; REDUCE_PARTS];
                f[REDUCE_PARTS - 1] = a.extent;
                f
            })
            .collect();
        NodeConfig {
            spatial_splits,
            reduce_splits,
            reorder: (0..op.spatial.len()).collect(),
            fuse_outer: 1,
            unroll: false,
            vectorize: false,
            cache_shared: false,
            inline_data: true,
            fpga_partition: 1,
            fpga_pipeline: 1,
        }
    }

    /// Validates this config against the op it schedules.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violated
    /// invariant: factor-count or product mismatches, an invalid reorder
    /// permutation, or an out-of-range fuse depth. Every message leads
    /// with the offending field and index (`spatial_splits[1]: ...`),
    /// using the same spans `flextensor-analyze` puts on its diagnostics.
    /// Validation is a conjunction of *independent* per-aspect predicates
    /// (one per spatial axis, one per reduce axis, reorder, fuse, the two
    /// FPGA fields), reported first-failure-first in a fixed global order.
    /// The delta evaluator (`crate::delta`) exploits this: starting from a
    /// known-valid base config it re-runs only the checks whose aspect
    /// changed, in the same order, and is guaranteed the same outcome —
    /// including the exact error string.
    pub fn validate(&self, op: &ComputeOp) -> Result<(), String> {
        if self.spatial_splits.len() != op.spatial.len() {
            return Err(format!(
                "spatial_splits: expected {} entries for the op's spatial axes, got {}",
                op.spatial.len(),
                self.spatial_splits.len()
            ));
        }
        if self.reduce_splits.len() != op.reduce.len() {
            return Err(format!(
                "reduce_splits: expected {} entries for the op's reduce axes, got {}",
                op.reduce.len(),
                self.reduce_splits.len()
            ));
        }
        for i in 0..op.spatial.len() {
            self.check_spatial_axis(op, i)?;
        }
        for i in 0..op.reduce.len() {
            self.check_reduce_axis(op, i)?;
        }
        self.check_reorder(op)?;
        self.check_fuse(op)?;
        self.check_fpga_partition()?;
        self.check_fpga_pipeline()
    }

    /// Arity and product check for one spatial axis (assumes
    /// `spatial_splits.len() == op.spatial.len()`).
    pub(crate) fn check_spatial_axis(&self, op: &ComputeOp, i: usize) -> Result<(), String> {
        let axis = &op.spatial[i];
        let f = &self.spatial_splits[i];
        if f.len() != SPATIAL_PARTS {
            return Err(format!(
                "spatial_splits[{i}]: axis {} needs {SPATIAL_PARTS} factors, got {}",
                axis.name,
                f.len()
            ));
        }
        let prod: i64 = f.iter().product();
        if prod != axis.extent || f.iter().any(|&x| x < 1) {
            return Err(format!(
                "spatial_splits[{i}]: axis {}: factors {:?} do not multiply to extent {}",
                axis.name, f, axis.extent
            ));
        }
        Ok(())
    }

    /// Arity and product check for one reduce axis (assumes
    /// `reduce_splits.len() == op.reduce.len()`).
    pub(crate) fn check_reduce_axis(&self, op: &ComputeOp, i: usize) -> Result<(), String> {
        let axis = &op.reduce[i];
        let f = &self.reduce_splits[i];
        if f.len() != REDUCE_PARTS {
            return Err(format!(
                "reduce_splits[{i}]: axis {} needs {REDUCE_PARTS} factors, got {}",
                axis.name,
                f.len()
            ));
        }
        let prod: i64 = f.iter().product();
        if prod != axis.extent || f.iter().any(|&x| x < 1) {
            return Err(format!(
                "reduce_splits[{i}]: axis {}: factors {:?} do not multiply to extent {}",
                axis.name, f, axis.extent
            ));
        }
        Ok(())
    }

    /// Length and permutation check for the reorder vector.
    pub(crate) fn check_reorder(&self, op: &ComputeOp) -> Result<(), String> {
        let mut seen = vec![false; op.spatial.len()];
        if self.reorder.len() != op.spatial.len() {
            return Err(format!(
                "reorder: expected length {}, got {}",
                op.spatial.len(),
                self.reorder.len()
            ));
        }
        for (pos, &i) in self.reorder.iter().enumerate() {
            if i >= op.spatial.len() || seen[i] {
                return Err(format!(
                    "reorder[{pos}]: entry {i} makes {:?} not a permutation of 0..{}",
                    self.reorder,
                    op.spatial.len()
                ));
            }
            seen[i] = true;
        }
        Ok(())
    }

    /// Range check for the fusion depth.
    pub(crate) fn check_fuse(&self, op: &ComputeOp) -> Result<(), String> {
        if self.fuse_outer < 1 || self.fuse_outer > op.spatial.len() {
            return Err(format!(
                "fuse_outer: depth {} out of range 1..={}",
                self.fuse_outer,
                op.spatial.len()
            ));
        }
        Ok(())
    }

    /// Positivity check for the FPGA partition factor.
    pub(crate) fn check_fpga_partition(&self) -> Result<(), String> {
        if self.fpga_partition < 1 {
            return Err(format!(
                "fpga_partition: factor {} must be positive",
                self.fpga_partition
            ));
        }
        Ok(())
    }

    /// Range check for the FPGA pipeline depth.
    pub(crate) fn check_fpga_pipeline(&self) -> Result<(), String> {
        if self.fpga_pipeline < 1 || self.fpga_pipeline > 3 {
            return Err(format!(
                "fpga_pipeline: depth {} out of range 1..=3",
                self.fpga_pipeline
            ));
        }
        Ok(())
    }

    /// Flattens the config into the integer vector of Fig. 3e:
    /// `[spatial factors..., reduce factors..., reorder..., fuse, unroll,
    /// vectorize, cache, inline, partition, pipeline]`.
    pub fn encode(&self) -> Vec<i64> {
        let mut v = Vec::new();
        self.encode_into(&mut v);
        v
    }

    /// Appends the [`NodeConfig::encode`] words to `out` instead of
    /// allocating a fresh vector — the form the evaluation pool uses to
    /// encode a whole candidate batch into one flat key buffer.
    pub fn encode_into(&self, out: &mut Vec<i64>) {
        for f in &self.spatial_splits {
            out.extend_from_slice(f);
        }
        for f in &self.reduce_splits {
            out.extend_from_slice(f);
        }
        out.extend(self.reorder.iter().map(|&i| i as i64));
        out.push(self.fuse_outer as i64);
        out.push(self.unroll as i64);
        out.push(self.vectorize as i64);
        out.push(self.cache_shared as i64);
        out.push(self.inline_data as i64);
        out.push(self.fpga_partition);
        out.push(self.fpga_pipeline);
    }

    /// Appends this config's [`NodeConfig::encode`] words to `out` by
    /// copying `base_key` — the already-encoded words of `base` — and
    /// patching only the words where `self` differs from `base`.
    ///
    /// The encoding is positional, so a neighbor produced by a single
    /// schedule move shares all but a handful of words with its base; the
    /// evaluation pool uses this to derive each neighbor's memo key from
    /// its base's key (one memcpy plus a sparse diff) instead of
    /// re-encoding the full config. Deriving the *exact* key — rather than
    /// hashing a diff — keeps memo-cache identity untouched: the derived
    /// words are guaranteed equal to what [`NodeConfig::encode_into`]
    /// would have produced.
    ///
    /// Returns `false` without touching `out` when the two configs are
    /// structurally incompatible (different axis counts or factor
    /// arities) or `base_key` has the wrong length for `base` — callers
    /// fall back to [`NodeConfig::encode_into`].
    pub fn encode_delta_into(
        &self,
        base: &NodeConfig,
        base_key: &[i64],
        out: &mut Vec<i64>,
    ) -> bool {
        if self.spatial_splits.len() != base.spatial_splits.len()
            || self.reduce_splits.len() != base.reduce_splits.len()
            || self.reorder.len() != base.reorder.len()
            || self
                .spatial_splits
                .iter()
                .zip(&base.spatial_splits)
                .any(|(a, b)| a.len() != b.len())
            || self
                .reduce_splits
                .iter()
                .zip(&base.reduce_splits)
                .any(|(a, b)| a.len() != b.len())
        {
            return false;
        }
        let expect = self.spatial_splits.iter().map(Vec::len).sum::<usize>()
            + self.reduce_splits.iter().map(Vec::len).sum::<usize>()
            + self.reorder.len()
            + 7;
        if base_key.len() != expect {
            return false;
        }
        let start = out.len();
        out.extend_from_slice(base_key);
        let dst = &mut out[start..];
        let mut off = 0usize;
        for (f, bf) in self.spatial_splits.iter().zip(&base.spatial_splits) {
            if f != bf {
                dst[off..off + f.len()].copy_from_slice(f);
            }
            off += f.len();
        }
        for (f, bf) in self.reduce_splits.iter().zip(&base.reduce_splits) {
            if f != bf {
                dst[off..off + f.len()].copy_from_slice(f);
            }
            off += f.len();
        }
        for (&r, &br) in self.reorder.iter().zip(&base.reorder) {
            if r != br {
                dst[off] = r as i64;
            }
            off += 1;
        }
        // The seven scalar tail words are cheaper to store than to compare.
        dst[off] = self.fuse_outer as i64;
        dst[off + 1] = self.unroll as i64;
        dst[off + 2] = self.vectorize as i64;
        dst[off + 3] = self.cache_shared as i64;
        dst[off + 4] = self.inline_data as i64;
        dst[off + 5] = self.fpga_partition;
        dst[off + 6] = self.fpga_pipeline;
        true
    }

    /// Reconstructs a config from [`NodeConfig::encode`] output.
    ///
    /// Decoding is total over arbitrary `&[i64]` input — it never panics
    /// and never wraps negative values into huge indices. Value-level
    /// *semantic* checks (split products, permutation validity) remain the
    /// job of [`NodeConfig::validate`]; decode rejects only vectors that
    /// cannot represent any config at all.
    ///
    /// # Errors
    ///
    /// Returns an error when the vector is truncated or oversized for the
    /// op's shape, when a split factor is ≤ 0, when a reorder entry or the
    /// fuse depth is outside `0..spatial` / `1..=spatial`, when a boolean
    /// flag slot is not 0/1, or when an FPGA parameter is ≤ 0.
    pub fn decode(op: &ComputeOp, v: &[i64]) -> Result<NodeConfig, String> {
        let layout = ConfigLayout::for_op(op);
        let ns = op.spatial.len();
        let expect = layout.words();
        if v.len() != expect {
            let class = if v.len() < expect {
                "truncated"
            } else {
                "oversized"
            };
            return Err(format!(
                "{class} encoding: expected length {expect}, got {}",
                v.len()
            ));
        }
        let splits = expect - ns - 7;
        if let Some(&bad) = v[..splits].iter().find(|&&x| x < 1) {
            return Err(format!("split factor {bad} is not positive"));
        }
        if let Some(&x) = v[splits..splits + ns]
            .iter()
            .find(|&&x| x < 0 || x as usize >= ns)
        {
            return Err(format!("reorder entry {x} outside 0..{ns}"));
        }
        let rest = &v[splits + ns..];
        if rest[0] < 1 || rest[0] as usize > ns {
            return Err(format!("fuse depth {} outside 1..={ns}", rest[0]));
        }
        for (slot, name) in rest[1..5]
            .iter()
            .zip(["unroll", "vectorize", "cache", "inline"])
        {
            if !matches!(slot, 0 | 1) {
                return Err(format!("flag `{name}` must be 0 or 1, got {slot}"));
            }
        }
        if rest[5] < 1 || rest[6] < 1 {
            return Err(format!(
                "FPGA parameters ({}, {}) must be positive",
                rest[5], rest[6]
            ));
        }
        Ok(NodeConfig::from_words(&layout, v))
    }

    /// Rebuilds a config from its [`NodeConfig::encode`] words and its
    /// [`ConfigLayout`], with no value checks: for every config `c`,
    /// `from_words(&ConfigLayout::of(&c), &c.encode()) == c`. Needs no
    /// op, so a store that keeps only encodings (the search history) can
    /// hand configs back; [`NodeConfig::decode`] is this plus validation.
    ///
    /// # Panics
    ///
    /// Panics when `v.len() != layout.words()`.
    pub fn from_words(layout: &ConfigLayout, v: &[i64]) -> NodeConfig {
        assert_eq!(v.len(), layout.words(), "encoding does not fit its layout");
        let mut left = v;
        let mut take = |n: usize| -> &[i64] {
            let (head, tail) = left.split_at(n);
            left = tail;
            head
        };
        let spatial_splits = layout.spatial.iter().map(|&n| take(n).to_vec()).collect();
        let reduce_splits = layout.reduce.iter().map(|&n| take(n).to_vec()).collect();
        let reorder = take(layout.reorder).iter().map(|&x| x as usize).collect();
        let rest = take(7);
        NodeConfig {
            spatial_splits,
            reduce_splits,
            reorder,
            fuse_outer: rest[0] as usize,
            unroll: rest[1] != 0,
            vectorize: rest[2] != 0,
            cache_shared: rest[3] != 0,
            inline_data: rest[4] != 0,
            fpga_partition: rest[5],
            fpga_pipeline: rest[6],
        }
    }

    /// Product of the level-`k` spatial factors over all axes.
    pub fn spatial_level_product(&self, k: usize) -> i64 {
        self.spatial_splits.iter().map(|f| f[k]).product()
    }

    /// Product of the level-`k` reduce factors over all axes.
    pub fn reduce_level_product(&self, k: usize) -> i64 {
        self.reduce_splits.iter().map(|f| f[k]).product()
    }
}

/// The shape of a [`NodeConfig::encode`] vector: the split arity of every
/// spatial and reduce axis, and the reorder length. Configs of one op
/// share a layout; a config's words plus its layout rebuild it exactly
/// ([`NodeConfig::from_words`]).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ConfigLayout {
    spatial: Vec<usize>,
    reduce: Vec<usize>,
    reorder: usize,
}

impl ConfigLayout {
    /// The layout of `cfg`'s encoding.
    pub fn of(cfg: &NodeConfig) -> ConfigLayout {
        ConfigLayout {
            spatial: cfg.spatial_splits.iter().map(Vec::len).collect(),
            reduce: cfg.reduce_splits.iter().map(Vec::len).collect(),
            reorder: cfg.reorder.len(),
        }
    }

    /// The layout every well-formed config of `op` has.
    pub fn for_op(op: &ComputeOp) -> ConfigLayout {
        ConfigLayout {
            spatial: vec![SPATIAL_PARTS; op.spatial.len()],
            reduce: vec![REDUCE_PARTS; op.reduce.len()],
            reorder: op.spatial.len(),
        }
    }

    /// Whether `cfg` has this layout (no allocation).
    pub fn matches(&self, cfg: &NodeConfig) -> bool {
        self.reorder == cfg.reorder.len()
            && self.spatial.len() == cfg.spatial_splits.len()
            && self.reduce.len() == cfg.reduce_splits.len()
            && self
                .spatial
                .iter()
                .zip(&cfg.spatial_splits)
                .all(|(&n, f)| n == f.len())
            && self
                .reduce
                .iter()
                .zip(&cfg.reduce_splits)
                .all(|(&n, f)| n == f.len())
    }

    /// Length of an encoding with this layout.
    pub fn words(&self) -> usize {
        self.spatial.iter().sum::<usize>() + self.reduce.iter().sum::<usize>() + self.reorder + 7
    }
}

impl fmt::Display for NodeConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:?}", self.encode())
    }
}

/// A schedule decision for a whole mini-graph: one [`NodeConfig`] for the
/// root (arithmetic) node, plus graph-level choices. Data-movement nodes
/// (pad / dilate) are either inlined into the root (the default, chosen by
/// Algorithm 1 in `flextensor::optimize`) or materialized.
#[derive(Debug, Clone, PartialEq)]
pub struct GraphConfig {
    /// Schedule of the root compute node.
    pub root: NodeConfig,
}

impl GraphConfig {
    /// Wraps a root-node config.
    pub fn new(root: NodeConfig) -> GraphConfig {
        GraphConfig { root }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;

    fn gemm_op() -> flextensor_ir::graph::ComputeOp {
        ops::gemm(64, 32, 16).root_op().clone()
    }

    #[test]
    fn naive_config_validates() {
        let op = gemm_op();
        let c = NodeConfig::naive(&op);
        c.validate(&op).unwrap();
        assert_eq!(c.spatial_splits, vec![vec![1, 1, 1, 64], vec![1, 1, 1, 32]]);
        assert_eq!(c.reduce_splits, vec![vec![1, 1, 16]]);
    }

    #[test]
    fn encode_decode_roundtrip() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.spatial_splits[0] = vec![2, 4, 4, 2];
        c.reorder = vec![1, 0];
        c.unroll = true;
        c.cache_shared = true;
        c.fpga_partition = 4;
        let v = c.encode();
        let d = NodeConfig::decode(&op, &v).unwrap();
        assert_eq!(c, d);
        assert_eq!(ConfigLayout::of(&c), ConfigLayout::for_op(&op));
    }

    #[test]
    fn from_words_rebuilds_any_layout_exactly() {
        // No value is checked, so even a config `validate` would reject
        // (odd split arities, out-of-range reorder / fuse) round-trips.
        let c = NodeConfig {
            spatial_splits: vec![vec![2, 3], vec![-5], vec![]],
            reduce_splits: vec![vec![7, 1, 1, 1, 1]],
            reorder: vec![usize::MAX, 0, 9],
            fuse_outer: 40,
            unroll: true,
            vectorize: false,
            cache_shared: true,
            inline_data: true,
            fpga_partition: -3,
            fpga_pipeline: 0,
        };
        let layout = ConfigLayout::of(&c);
        assert!(layout.matches(&c));
        assert_eq!(layout.words(), c.encode().len());
        assert_eq!(NodeConfig::from_words(&layout, &c.encode()), c);
        let naive = NodeConfig::naive(&gemm_op());
        assert!(!layout.matches(&naive));
        assert!(ConfigLayout::for_op(&gemm_op()).matches(&naive));
    }

    #[test]
    fn bad_product_rejected() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.spatial_splits[0] = vec![2, 2, 2, 2]; // 16 != 64
        assert!(c.validate(&op).is_err());
    }

    #[test]
    fn bad_reorder_rejected() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.reorder = vec![0, 0];
        assert!(c.validate(&op).is_err());
        c.reorder = vec![0];
        assert!(c.validate(&op).is_err());
    }

    #[test]
    fn bad_fuse_rejected() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.fuse_outer = 0;
        assert!(c.validate(&op).is_err());
        c.fuse_outer = 3;
        assert!(c.validate(&op).is_err());
    }

    // One test per validate() message: each must lead with the offending
    // field and index, matching the spans flextensor-analyze reports.

    #[test]
    fn validate_names_spatial_split_count_mismatch() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.spatial_splits.pop();
        let err = c.validate(&op).unwrap_err();
        assert_eq!(
            err,
            "spatial_splits: expected 2 entries for the op's spatial axes, got 1"
        );
    }

    #[test]
    fn validate_names_reduce_split_count_mismatch() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.reduce_splits.clear();
        let err = c.validate(&op).unwrap_err();
        assert_eq!(
            err,
            "reduce_splits: expected 1 entries for the op's reduce axes, got 0"
        );
    }

    #[test]
    fn validate_names_spatial_factor_arity() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.spatial_splits[1] = vec![1, 32];
        let err = c.validate(&op).unwrap_err();
        assert_eq!(err, "spatial_splits[1]: axis j needs 4 factors, got 2");
    }

    #[test]
    fn validate_names_spatial_product_mismatch() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.spatial_splits[0] = vec![2, 2, 2, 2]; // 16 != 64
        let err = c.validate(&op).unwrap_err();
        assert_eq!(
            err,
            "spatial_splits[0]: axis i: factors [2, 2, 2, 2] do not multiply to extent 64"
        );
    }

    #[test]
    fn validate_names_reduce_factor_arity() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.reduce_splits[0] = vec![16];
        let err = c.validate(&op).unwrap_err();
        assert_eq!(err, "reduce_splits[0]: axis k needs 3 factors, got 1");
    }

    #[test]
    fn validate_names_reduce_product_mismatch() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.reduce_splits[0] = vec![1, 1, 8]; // 8 != 16
        let err = c.validate(&op).unwrap_err();
        assert_eq!(
            err,
            "reduce_splits[0]: axis k: factors [1, 1, 8] do not multiply to extent 16"
        );
    }

    #[test]
    fn validate_names_reorder_length_mismatch() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.reorder = vec![0];
        let err = c.validate(&op).unwrap_err();
        assert_eq!(err, "reorder: expected length 2, got 1");
    }

    #[test]
    fn validate_names_reorder_permutation_slot() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.reorder = vec![0, 0]; // duplicate surfaces at slot 1
        let err = c.validate(&op).unwrap_err();
        assert_eq!(
            err,
            "reorder[1]: entry 0 makes [0, 0] not a permutation of 0..2"
        );
        c.reorder = vec![5, 1]; // out-of-range surfaces at slot 0
        let err = c.validate(&op).unwrap_err();
        assert_eq!(
            err,
            "reorder[0]: entry 5 makes [5, 1] not a permutation of 0..2"
        );
    }

    #[test]
    fn validate_names_fuse_depth_range() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.fuse_outer = 3;
        let err = c.validate(&op).unwrap_err();
        assert_eq!(err, "fuse_outer: depth 3 out of range 1..=2");
    }

    #[test]
    fn validate_names_fpga_fields_separately() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.fpga_partition = 0;
        let err = c.validate(&op).unwrap_err();
        assert_eq!(err, "fpga_partition: factor 0 must be positive");
        c.fpga_partition = 1;
        c.fpga_pipeline = 4;
        let err = c.validate(&op).unwrap_err();
        assert_eq!(err, "fpga_pipeline: depth 4 out of range 1..=3");
    }

    #[test]
    fn decode_rejects_wrong_length() {
        let op = gemm_op();
        assert!(NodeConfig::decode(&op, &[1, 2, 3]).is_err());
    }

    #[test]
    fn decode_rejects_truncated_vector() {
        let op = gemm_op();
        let mut v = NodeConfig::naive(&op).encode();
        v.pop();
        let err = NodeConfig::decode(&op, &v).unwrap_err();
        assert!(err.contains("truncated"), "{err}");
        assert!(NodeConfig::decode(&op, &[]).is_err());
    }

    #[test]
    fn decode_rejects_oversized_vector() {
        let op = gemm_op();
        let mut v = NodeConfig::naive(&op).encode();
        v.push(1);
        let err = NodeConfig::decode(&op, &v).unwrap_err();
        assert!(err.contains("oversized"), "{err}");
    }

    #[test]
    fn decode_rejects_nonpositive_factors() {
        let op = gemm_op();
        for bad in [-64, 0] {
            let mut v = NodeConfig::naive(&op).encode();
            v[3] = bad; // innermost factor of the first spatial axis
            let err = NodeConfig::decode(&op, &v).unwrap_err();
            assert!(err.contains("not positive"), "{err}");
        }
    }

    #[test]
    fn decode_rejects_out_of_range_reorder() {
        let op = gemm_op();
        let base = NodeConfig::naive(&op).encode();
        let reorder_at = 2 * SPATIAL_PARTS + REDUCE_PARTS; // first reorder slot
        for bad in [-1, 2, 100] {
            let mut v = base.clone();
            v[reorder_at] = bad;
            let err = NodeConfig::decode(&op, &v).unwrap_err();
            assert!(err.contains("reorder"), "{err}");
        }
    }

    #[test]
    fn decode_rejects_bad_fuse_and_flags() {
        let op = gemm_op();
        let base = NodeConfig::naive(&op).encode();
        let tail = 2 * SPATIAL_PARTS + REDUCE_PARTS + 2; // fuse slot offset
        for (off, bad) in [(0, 0), (0, -1), (0, 3), (1, 2), (2, -1), (4, 5)] {
            let mut v = base.clone();
            v[tail + off] = bad;
            assert!(
                NodeConfig::decode(&op, &v).is_err(),
                "slot {off} value {bad} accepted"
            );
        }
    }

    #[test]
    fn decode_rejects_nonpositive_fpga_params() {
        let op = gemm_op();
        let base = NodeConfig::naive(&op).encode();
        let n = base.len();
        for slot in [n - 2, n - 1] {
            for bad in [0, -4] {
                let mut v = base.clone();
                v[slot] = bad;
                let err = NodeConfig::decode(&op, &v).unwrap_err();
                assert!(err.contains("FPGA"), "{err}");
            }
        }
    }

    #[test]
    fn encode_delta_matches_full_encode_for_single_moves() {
        let op = gemm_op();
        let base = {
            let mut c = NodeConfig::naive(&op);
            c.spatial_splits = vec![vec![2, 4, 4, 2], vec![4, 1, 8, 1]];
            c.reduce_splits = vec![vec![4, 2, 2]];
            c.cache_shared = true;
            c
        };
        let base_key = base.encode();
        let mut neighbors = Vec::new();
        for (axis, split) in [(0usize, vec![4, 2, 4, 2]), (1, vec![8, 1, 4, 1])] {
            let mut n = base.clone();
            n.spatial_splits[axis] = split;
            neighbors.push(n);
        }
        let mut n = base.clone();
        n.reduce_splits[0] = vec![2, 4, 2];
        neighbors.push(n);
        let mut n = base.clone();
        n.reorder = vec![1, 0];
        neighbors.push(n);
        for (field, value) in [(0usize, 2i64), (1, 1), (2, 1), (3, 0), (4, 0)] {
            let mut n = base.clone();
            match field {
                0 => n.fuse_outer = value as usize,
                1 => n.unroll = value != 0,
                2 => n.vectorize = value != 0,
                3 => n.cache_shared = value != 0,
                _ => n.inline_data = value != 0,
            }
            neighbors.push(n);
        }
        let mut n = base.clone();
        n.fpga_partition = 8;
        n.fpga_pipeline = 3;
        neighbors.push(n);
        neighbors.push(base.clone()); // the no-move neighbor
        for (i, n) in neighbors.iter().enumerate() {
            let mut derived = vec![-7, -7]; // pre-existing words must survive
            assert!(
                n.encode_delta_into(&base, &base_key, &mut derived),
                "neighbor {i} structurally compatible"
            );
            assert_eq!(derived[..2], [-7, -7]);
            assert_eq!(derived[2..], n.encode(), "neighbor {i} key diverged");
        }
    }

    #[test]
    fn encode_delta_rejects_structural_mismatch() {
        let op = gemm_op();
        let base = NodeConfig::naive(&op);
        let base_key = base.encode();
        let mut out = vec![1, 2, 3];
        let mut n = base.clone();
        n.spatial_splits.pop();
        assert!(!n.encode_delta_into(&base, &base_key, &mut out));
        let mut n = base.clone();
        n.reduce_splits[0] = vec![1, 16]; // wrong arity
        assert!(!n.encode_delta_into(&base, &base_key, &mut out));
        let mut n = base.clone();
        n.reorder = vec![0];
        assert!(!n.encode_delta_into(&base, &base_key, &mut out));
        // Wrong base-key length (e.g. a stale or foreign key).
        assert!(!base.encode_delta_into(&base, &base_key[1..], &mut out));
        assert_eq!(out, vec![1, 2, 3], "rejections must not touch out");
    }

    #[test]
    fn level_products() {
        let op = gemm_op();
        let mut c = NodeConfig::naive(&op);
        c.spatial_splits = vec![vec![2, 2, 4, 4], vec![4, 1, 8, 1]];
        assert_eq!(c.spatial_level_product(0), 8);
        assert_eq!(c.spatial_level_product(2), 32);
        assert_eq!(c.reduce_level_product(2), 16);
    }
}
