//! A plain row store for scoring many feature rows in one call.
//!
//! [`FeatureBatch`] and [`crate::model::Evaluator::time_features_batch`]
//! are kept for the repository benchmark's off-path replay, which pushes
//! a batch's fresh candidates and re-scores them to time the cost model
//! on its own. Nothing on the search path uses them: the evaluation pool
//! scores each candidate with [`crate::model::Evaluator::time_features`]
//! right where its features are derived.
//!
//! Scoring a batch is mapping `time_features` over its rows, so
//! `time_features_batch(batch)[i] == time_features(&rows[i])` bit for bit
//! (`tests/batch_differential.rs`).

use flextensor_schedule::features::KernelFeatures;

/// A reusable list of feature rows, scored in one call through
/// [`crate::model::Evaluator::time_features_batch`]. [`clear`] keeps the
/// allocation, so a batch reused across calls stops allocating once it
/// has grown.
///
/// [`clear`]: FeatureBatch::clear
#[derive(Debug, Default, Clone)]
pub struct FeatureBatch {
    rows: Vec<KernelFeatures>,
}

impl FeatureBatch {
    /// Creates an empty batch.
    pub fn new() -> FeatureBatch {
        FeatureBatch::default()
    }

    /// Number of rows currently in the batch.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Removes all rows, keeping the allocation for reuse.
    pub fn clear(&mut self) {
        self.rows.clear();
    }

    /// Appends one row (a copy of `f`).
    pub fn push(&mut self, f: &KernelFeatures) {
        self.rows.push(f.clone());
    }

    /// The rows, in push order.
    pub(crate) fn rows(&self) -> &[KernelFeatures] {
        &self.rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Evaluator;
    use crate::spec::{v100, vu9p, Device};
    use flextensor_ir::ops;
    use flextensor_schedule::config::{NodeConfig, TargetKind};
    use flextensor_schedule::lower::lower;

    fn gemm_features(target: TargetKind) -> KernelFeatures {
        let g = ops::gemm(256, 256, 256);
        let mut c = NodeConfig::naive(g.root_op());
        c.spatial_splits = vec![vec![8, 1, 16, 2], vec![8, 1, 16, 2]];
        c.reduce_splits = vec![vec![64, 2, 2]];
        c.cache_shared = true;
        lower(&g, &c, target).unwrap().features
    }

    #[test]
    fn clear_resets_len() {
        let f = gemm_features(TargetKind::Gpu);
        let mut batch = FeatureBatch::new();
        for _ in 0..9 {
            batch.push(&f);
        }
        assert_eq!(batch.len(), 9);
        batch.clear();
        assert!(batch.is_empty());
        batch.push(&f);
        assert_eq!(batch.len(), 1);
        assert_eq!(batch.rows()[0], f);
    }

    #[test]
    fn non_fpga_rows_score_none_on_fpga() {
        // Features lowered for GPU carry no FPGA block; the FPGA model
        // scores them `None`, in a batch as one at a time.
        let f = gemm_features(TargetKind::Gpu);
        let mut batch = FeatureBatch::new();
        for _ in 0..3 {
            batch.push(&f);
        }
        let ev = Evaluator::new(Device::Fpga(vu9p()));
        let mut out = vec![Some(1.0)];
        ev.time_features_batch(&batch, &mut out);
        assert_eq!(out, vec![None, None, None]);
        let gpu = Evaluator::new(Device::Gpu(v100()));
        gpu.time_features_batch(&batch, &mut out);
        assert_eq!(out, vec![gpu.time_features(&f); 3]);
    }
}
