//! Analytical CPU performance model.
//!
//! Captures the effects FlexTensor's CPU schedules manipulate (§5.3,
//! Fig. 4a): multithreading over the fused outermost loop (with load
//! imbalance from chunk quantization), SIMD vectorization of the innermost
//! loop (legality requires unit stride; efficiency depends on how the
//! vector length matches the machine width), register blocking / multi-level
//! tiling (L1/L2 fit), unrolling (loop overhead on short inner loops), and
//! DRAM traffic from tile re-fetching.

use flextensor_schedule::features::KernelFeatures;

use crate::spec::CpuSpec;

/// Estimates kernel time in seconds; `None` when the configuration is
/// infeasible (never on CPU — everything runs, just possibly slowly — so
/// this returns `Some` for all valid features; the `Option` keeps the
/// interface uniform across targets).
///
/// Runs the model body [`crate::generic::cpu_time_generic`]. The
/// differential tests in `crate::generic` pin it bit for bit to the
/// plain-`f64` reference `cpu_time_row` below, which exists only in test
/// builds.
pub fn cpu_time(spec: &CpuSpec, f: &KernelFeatures, code_quality: f64) -> Option<f64> {
    Some(crate::generic::cpu_time_generic(
        spec,
        &crate::generic::CpuIn::of(f),
        code_quality,
    ))
}

/// The exact subset of [`KernelFeatures`] the CPU model reads, flattened
/// into one `Copy` row: the input of the [`cpu_time_row`] test oracle.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct CpuRow {
    pub flops: u64,
    pub grid: i64,
    pub parallel_chunks: i64,
    pub thread_tile: i64,
    pub reduce_outer: i64,
    pub vector_len: i64,
    pub shared_bytes_per_block: i64,
    pub l1_tile_bytes: i64,
    pub l2_tile_bytes: i64,
    pub input_bytes_total: i64,
    pub output_bytes: i64,
    pub data_node_bytes: i64,
    pub unroll: bool,
    pub contiguous_inner: bool,
}

#[cfg(test)]
impl CpuRow {
    pub(crate) fn of(f: &KernelFeatures) -> CpuRow {
        CpuRow {
            flops: f.flops,
            grid: f.grid,
            parallel_chunks: f.parallel_chunks,
            thread_tile: f.thread_tile,
            reduce_outer: f.reduce_outer,
            vector_len: f.vector_len,
            shared_bytes_per_block: f.shared_bytes_per_block,
            l1_tile_bytes: f.l1_tile_bytes,
            l2_tile_bytes: f.l2_tile_bytes,
            input_bytes_total: f.input_bytes_total,
            output_bytes: f.output_bytes,
            data_node_bytes: f.data_node_bytes,
            unroll: f.unroll,
            contiguous_inner: f.contiguous_inner,
        }
    }
}

/// The CPU model written directly in `f64` and `i64`: the reference the
/// generic body is tested against.
#[cfg(test)]
pub(crate) fn cpu_time_row(spec: &CpuSpec, f: CpuRow, code_quality: f64) -> f64 {
    // ---- threading ----------------------------------------------------
    let chunks = f.parallel_chunks.max(1);
    let used_cores = chunks.min(spec.cores);
    let rounds = (chunks + spec.cores - 1) / spec.cores;
    let balance = chunks as f64 / (rounds * spec.cores.min(chunks.max(1))) as f64;
    let effective_cores = used_cores as f64 * balance.min(1.0);

    // ---- vectorization -------------------------------------------------
    let vw = spec.vector_width;
    let vec_eff = if f.vector_len > 1 && f.contiguous_inner {
        let v = f.vector_len;
        if v % vw == 0 {
            1.0
        } else if v > vw {
            v as f64 / (((v + vw - 1) / vw) * vw) as f64
        } else {
            v as f64 / vw as f64
        }
    } else {
        // Unvectorized code: one lane, but superscalar issue still retires ~2
        // scalar FLOPs per cycle.
        1.0 / vw as f64
    };

    // ---- locality -------------------------------------------------------
    let l1_eff = if f.l1_tile_bytes <= spec.l1_bytes {
        1.0
    } else if f.l1_tile_bytes <= spec.l2_bytes {
        0.75
    } else {
        0.45
    };
    let l2_eff = if f.l2_tile_bytes <= spec.l2_bytes {
        1.0
    } else if f.l2_tile_bytes <= spec.l3_bytes / spec.cores {
        0.85
    } else {
        0.6
    };

    // ---- loop overhead ---------------------------------------------------
    let inner_trip = (f.thread_tile).max(1);
    let overhead_eff = if inner_trip >= 8 || f.unroll {
        1.0
    } else {
        0.55 + 0.05 * inner_trip as f64
    };

    let per_core_peak = spec.peak_flops() / spec.cores as f64;
    let eff = code_quality * vec_eff * l1_eff * l2_eff * overhead_eff;
    let compute_s = if f.flops == 0 {
        0.0
    } else {
        f.flops as f64 / (per_core_peak * eff.max(1e-4)) / effective_cores.max(1.0)
    };

    // ---- memory -----------------------------------------------------------
    // Each outermost chunk streams its tile footprint once per outer reduce
    // step; tiles that fit in L2 amortize refetches across steps.
    let chunk_count = f.grid.max(1) as f64;
    let refetch = if f.shared_bytes_per_block <= spec.l2_bytes {
        0.5
    } else {
        1.0
    };
    let tile_traffic =
        chunk_count * f.reduce_outer as f64 * f.shared_bytes_per_block as f64 * refetch;
    let compulsory = f.input_bytes_total as f64;
    // Cross-chunk reuse: when the whole working set fits in the shared
    // L3, tile re-reads beyond the first pass mostly hit cache rather
    // than DRAM.
    let read_traffic = if f.input_bytes_total <= spec.l3_bytes {
        compulsory + 0.35 * (tile_traffic - compulsory).max(0.0)
    } else {
        tile_traffic.max(compulsory)
    };
    let mut mem_s = (read_traffic + f.output_bytes as f64) / (spec.mem_bw_gbps * 1e9);
    mem_s += f.data_node_bytes as f64 / (spec.mem_bw_gbps * 1e9);

    let spawn = if chunks > 1 {
        spec.spawn_overhead_s
    } else {
        0.0
    };
    compute_s.max(mem_s) + 0.2 * compute_s.min(mem_s) + spawn
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::xeon_e5_2699_v4;
    use flextensor_ir::ops;
    use flextensor_schedule::config::{NodeConfig, TargetKind};
    use flextensor_schedule::lower::lower;

    fn gemm_features(sp: Vec<Vec<i64>>, rd: Vec<i64>, fuse: usize, vec: bool) -> KernelFeatures {
        let g = ops::gemm(512, 512, 512);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits = sp;
        cfg.reduce_splits = vec![rd];
        cfg.fuse_outer = fuse;
        cfg.vectorize = vec;
        cfg.unroll = true;
        lower(&g, &cfg, TargetKind::Cpu).unwrap().features
    }

    #[test]
    fn tuned_gemm_beats_naive_substantially() {
        let spec = xeon_e5_2699_v4();
        let tuned = gemm_features(
            vec![vec![16, 2, 4, 4], vec![8, 2, 4, 8]],
            vec![32, 4, 4],
            2,
            true,
        );
        let g = ops::gemm(512, 512, 512);
        let naive = lower(&g, &NodeConfig::naive(g.root_op()), TargetKind::Cpu)
            .unwrap()
            .features;
        let tt = cpu_time(&spec, &tuned, 0.7).unwrap();
        let tn = cpu_time(&spec, &naive, 0.7).unwrap();
        assert!(tn > 5.0 * tt, "naive {tn} vs tuned {tt}");
        let gflops = tuned.flops as f64 / tt / 1e9;
        assert!(gflops > 100.0, "tuned GEMM {gflops:.0} GFLOPS");
        assert!(gflops < 1600.0, "exceeds peak {gflops:.0}");
    }

    #[test]
    fn vector_width_match_matters() {
        let spec = xeon_e5_2699_v4();
        // Identical tiling except innermost j factor: 8 (matches AVX2)
        // vs 2 (wastes lanes).
        let v8 = gemm_features(
            vec![vec![16, 2, 4, 4], vec![8, 2, 4, 8]],
            vec![32, 4, 4],
            2,
            true,
        );
        let v2 = gemm_features(
            vec![vec![16, 2, 4, 4], vec![8, 2, 16, 2]],
            vec![32, 4, 4],
            2,
            true,
        );
        let t8 = cpu_time(&spec, &v8, 0.7).unwrap();
        let t2 = cpu_time(&spec, &v2, 0.7).unwrap();
        assert!(t8 < t2, "v8 {t8} vs v2 {t2}");
    }

    #[test]
    fn parallel_chunks_quantize_to_cores() {
        let spec = xeon_e5_2699_v4();
        // 23 chunks on 22 cores -> two rounds, terrible balance; 22 chunks
        // (well, 16) balance better.
        let c16 = gemm_features(
            vec![vec![16, 2, 4, 4], vec![1, 4, 16, 8]],
            vec![32, 4, 4],
            1,
            true,
        );
        let t16 = cpu_time(&spec, &c16, 0.7).unwrap();
        // Compare against a single-chunk (serial) schedule.
        let c1 = gemm_features(
            vec![vec![1, 32, 4, 4], vec![1, 4, 16, 8]],
            vec![32, 4, 4],
            1,
            true,
        );
        let t1 = cpu_time(&spec, &c1, 0.7).unwrap();
        assert!(t16 < t1 / 4.0, "parallel {t16} vs serial {t1}");
    }

    #[test]
    fn l1_resident_tiles_help() {
        let spec = xeon_e5_2699_v4();
        let small = gemm_features(
            vec![vec![16, 4, 8, 1], vec![8, 8, 1, 8]],
            vec![64, 8, 1],
            2,
            true,
        );
        let huge = gemm_features(
            vec![vec![16, 1, 1, 32], vec![8, 1, 1, 64]],
            vec![4, 1, 128],
            2,
            true,
        );
        assert!(small.l1_tile_bytes <= spec.l1_bytes);
        assert!(huge.l1_tile_bytes > spec.l1_bytes);
        let ts = cpu_time(&spec, &small, 0.7).unwrap();
        let th = cpu_time(&spec, &huge, 0.7).unwrap();
        assert!(ts < th, "small-tile {ts} vs huge-tile {th}");
    }
}
