//! Analytical GPU performance model.
//!
//! Estimates kernel runtime from the schedule-derived
//! [`KernelFeatures`] and a
//! [`GpuSpec`]. The model captures the effects the paper's exploration
//! exploits on GPUs (§5.3, Fig. 4b):
//!
//! * **feasibility** — threads per block, shared memory per block;
//! * **occupancy** — resident blocks limited by warps, shared memory and
//!   registers, and the latency-hiding it provides;
//! * **quantization waste** — partial warps, and tail waves when the grid
//!   does not fill the SMs;
//! * **memory hierarchy** — shared-memory staging vs direct global loads,
//!   coalescing of the innermost thread dimension;
//! * **instruction-level parallelism** — register tiles (inner spatial
//!   loops, virtual threads) and unrolling.
//!
//! The absolute numbers are estimates; the purpose is a landscape whose
//! *ordering* of schedules matches real hardware behaviour.

use flextensor_schedule::features::KernelFeatures;

use crate::spec::GpuSpec;

/// Relative multiplier applied to uncached (no shared memory) global
/// traffic: without explicit staging, overlapping tile reads are re-fetched
/// through L1/L2 with imperfect reuse.
pub(crate) const UNCACHED_TRAFFIC_PENALTY: f64 = 2.0;

/// Estimates kernel time in seconds; `None` when the configuration is
/// infeasible on this device (too many threads per block, shared-memory or
/// register demand unsatisfiable).
///
/// `code_quality` scales achievable compute throughput: ~0.75 for generated
/// code, higher for hand-tuned vendor kernels.
///
/// Runs the model body [`crate::generic::gpu_time_generic`]. The
/// differential tests in `crate::generic` pin it bit for bit to the
/// plain-`f64` reference `gpu_time_row` below, which exists only in test
/// builds.
pub fn gpu_time(spec: &GpuSpec, f: &KernelFeatures, code_quality: f64) -> Option<f64> {
    crate::generic::gpu_time_generic(spec, &crate::generic::GpuIn::of(f), code_quality)
}

/// The exact subset of [`KernelFeatures`] the GPU model reads, flattened
/// into one `Copy` row: the input of the [`gpu_time_row`] test oracle.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct GpuRow {
    pub flops: u64,
    pub grid: i64,
    pub block_threads: i64,
    pub thread_tile: i64,
    pub vthreads: i64,
    pub reduce_outer: i64,
    pub shared_bytes_per_block: i64,
    pub thread_reg_bytes: i64,
    pub input_bytes_total: i64,
    pub output_bytes: i64,
    pub data_node_bytes: i64,
    pub unroll: bool,
    pub contiguous_inner: bool,
    pub cache_shared: bool,
}

#[cfg(test)]
impl GpuRow {
    pub(crate) fn of(f: &KernelFeatures) -> GpuRow {
        GpuRow {
            flops: f.flops,
            grid: f.grid,
            block_threads: f.block_threads,
            thread_tile: f.thread_tile,
            vthreads: f.vthreads,
            reduce_outer: f.reduce_outer,
            shared_bytes_per_block: f.shared_bytes_per_block,
            thread_reg_bytes: f.thread_reg_bytes,
            input_bytes_total: f.input_bytes_total,
            output_bytes: f.output_bytes,
            data_node_bytes: f.data_node_bytes,
            unroll: f.unroll,
            contiguous_inner: f.contiguous_inner,
            cache_shared: f.cache_shared,
        }
    }
}

/// The GPU model written directly in `f64` and `i64`: the reference the
/// generic body is tested against.
#[cfg(test)]
pub(crate) fn gpu_time_row(spec: &GpuSpec, f: GpuRow, code_quality: f64) -> Option<f64> {
    let tpb = f.block_threads;
    if tpb < 1 || tpb > spec.max_threads_per_block {
        return None;
    }
    let shared_pb = if f.cache_shared {
        f.shared_bytes_per_block
    } else {
        0
    };
    if shared_pb > spec.shared_per_block {
        return None;
    }

    // ---- occupancy --------------------------------------------------
    let warps_pb = (tpb + 31) / 32;
    let blocks_by_warps = spec.max_warps_per_sm / warps_pb;
    let blocks_by_shared = if shared_pb > 0 {
        spec.shared_per_sm / shared_pb
    } else {
        spec.max_blocks_per_sm
    };
    // Register demand: accumulators + staged fragments per thread; clamp to
    // at least 32 B (16 scalar registers of fixed overhead).
    let reg_bytes_pt = f.thread_reg_bytes.max(128);
    let blocks_by_regs = spec.regfile_per_sm / (reg_bytes_pt * tpb).max(1);
    let blocks_per_sm = blocks_by_warps
        .min(blocks_by_shared)
        .min(blocks_by_regs)
        .min(spec.max_blocks_per_sm);
    if blocks_per_sm < 1 {
        return None;
    }
    let occupancy = (blocks_per_sm * warps_pb) as f64 / spec.max_warps_per_sm as f64;
    // ---- compute efficiency ------------------------------------------
    let warp_eff = tpb as f64 / (warps_pb * 32) as f64;
    // Latency hiding: per-thread ILP from register tiles and unrolling
    // reduces the occupancy needed to keep the pipelines busy.
    let ilp = (f.thread_tile * f.vthreads) as f64 * if f.unroll { 2.0 } else { 1.0 };
    let needed_occupancy = 1.0 / (1.0 + ilp / 4.0) + 0.15;
    let latency_util = (occupancy / needed_occupancy).min(1.0);
    // Tail effect: the last wave of blocks underfills the machine.
    let slots = spec.sms * blocks_per_sm;
    let waves = (f.grid + slots - 1) / slots;
    let tail_eff = if waves > 0 {
        f.grid as f64 / (waves * slots) as f64
    } else {
        0.0
    };
    // A huge register tile eventually spills to local memory.
    let spill_penalty = if reg_bytes_pt > 1024 {
        1024.0 / reg_bytes_pt as f64
    } else {
        1.0
    };

    let eff = code_quality * warp_eff * latency_util * tail_eff.max(1e-3) * spill_penalty;
    let compute_s = if f.flops == 0 {
        0.0
    } else {
        f.flops as f64 / (spec.peak_flops() * eff.max(1e-4))
    };

    // ---- memory time -------------------------------------------------
    let tile_traffic = f.grid as f64 * f.reduce_outer as f64 * f.shared_bytes_per_block as f64;
    let read_traffic = if f.cache_shared {
        tile_traffic
    } else {
        tile_traffic * UNCACHED_TRAFFIC_PENALTY
    };
    // Compulsory floor: every input byte crosses the bus at least once.
    let read_traffic = read_traffic.max(f.input_bytes_total as f64);
    let write_traffic = f.output_bytes as f64;
    let coalesce = match (f.cache_shared, f.contiguous_inner) {
        (true, true) => 1.0,
        (true, false) => 0.6,
        (false, true) => 0.8,
        (false, false) => 0.25,
    };
    let bw = spec.mem_bw_gbps * 1e9 * coalesce;
    let mut mem_s = (read_traffic + write_traffic) / bw;
    // Materialized producers add a round trip over the bus.
    mem_s += f.data_node_bytes as f64 / (spec.mem_bw_gbps * 1e9);

    // Compute and memory overlap imperfectly.
    let kernel_s = compute_s.max(mem_s) + 0.2 * compute_s.min(mem_s);
    let launches = 1 + if f.data_node_bytes > 0 { 1 } else { 0 };
    Some(kernel_s + launches as f64 * spec.launch_overhead_s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::v100;
    use flextensor_ir::ops;
    use flextensor_schedule::config::{NodeConfig, TargetKind};
    use flextensor_schedule::lower::lower;

    fn features_for(splits: (Vec<i64>, Vec<i64>, Vec<i64>), cache: bool) -> KernelFeatures {
        let g = ops::gemm(1024, 1024, 1024);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits = vec![splits.0, splits.1];
        cfg.reduce_splits = vec![splits.2];
        cfg.cache_shared = cache;
        cfg.unroll = true;
        cfg.vectorize = true;
        lower(&g, &cfg, TargetKind::Gpu).unwrap().features
    }

    #[test]
    fn reasonable_tuned_gemm_hits_a_good_fraction_of_peak() {
        // 64 blocks/dim, 16x16 threads, 4x4 register tile, k split 128x2x4.
        let f = features_for(
            (vec![16, 1, 16, 4], vec![16, 1, 16, 4], vec![128, 2, 4]),
            true,
        );
        let t = gpu_time(&v100(), &f, 0.75).unwrap();
        let gflops = f.flops as f64 / t / 1e9;
        assert!(gflops > 2000.0, "tuned GEMM too slow: {gflops:.0} GFLOPS");
        assert!(gflops < 16000.0, "exceeds peak: {gflops:.0} GFLOPS");
    }

    #[test]
    fn naive_schedule_is_much_slower_than_tuned() {
        let g = ops::gemm(1024, 1024, 1024);
        let naive = lower(&g, &NodeConfig::naive(g.root_op()), TargetKind::Gpu)
            .unwrap()
            .features;
        let tuned = features_for(
            (vec![16, 1, 16, 4], vec![16, 1, 16, 4], vec![128, 2, 4]),
            true,
        );
        let tn = gpu_time(&v100(), &naive, 0.75);
        let tt = gpu_time(&v100(), &tuned, 0.75).unwrap();
        // Naive = 1 thread per block over one giant loop: either
        // infeasible or dramatically slower.
        match tn {
            None => {}
            Some(tn) => assert!(tn > 10.0 * tt, "naive {tn} vs tuned {tt}"),
        }
    }

    #[test]
    fn too_many_threads_is_infeasible() {
        let f = features_for(
            (vec![1, 1, 64, 16], vec![16, 1, 64, 1], vec![1024, 1, 1]),
            false,
        );
        assert_eq!(f.block_threads, 64 * 64);
        assert!(gpu_time(&v100(), &f, 0.75).is_none());
    }

    #[test]
    fn oversized_shared_memory_is_infeasible() {
        // Block tile 256x256 with k-step 64: A tile = 256*64, B = 64*256
        // floats = 128 KiB > 96 KiB.
        let f = features_for((vec![4, 8, 32, 1], vec![4, 8, 32, 1], vec![16, 8, 8]), true);
        assert!(f.shared_bytes_per_block > 96 * 1024);
        assert!(gpu_time(&v100(), &f, 0.75).is_none());
    }

    #[test]
    fn caching_helps_compute_bound_gemm() {
        let cached = features_for(
            (vec![16, 1, 16, 4], vec![16, 1, 16, 4], vec![128, 2, 4]),
            true,
        );
        let uncached = features_for(
            (vec![16, 1, 16, 4], vec![16, 1, 16, 4], vec![128, 2, 4]),
            false,
        );
        let tc = gpu_time(&v100(), &cached, 0.75).unwrap();
        let tu = gpu_time(&v100(), &uncached, 0.75).unwrap();
        assert!(tc <= tu, "cached {tc} uncached {tu}");
    }

    #[test]
    fn tiny_grid_suffers_tail_waste() {
        // Identical kernels except grid size: 16 blocks leave most of the
        // 80 SMs idle, 2560 fill them.
        let mut few = features_for(
            (vec![16, 1, 16, 4], vec![16, 1, 16, 4], vec![256, 2, 2]),
            true,
        );
        let many = few.clone();
        few.grid = 16;
        // Same total work: scale flops with the grid.
        few.flops = many.flops / (many.grid / 16) as u64;
        let t_few = gpu_time(&v100(), &few, 0.75).unwrap();
        let t_many = gpu_time(&v100(), &many, 0.75).unwrap();
        // few does 1/16 the work; with perfect scaling it would take 1/16
        // the time. Tail waste makes it take disproportionately longer.
        assert!(
            t_few * 4.0 > t_many,
            "tail waste missing: few {t_few} many {t_many}"
        );
    }

    #[test]
    fn better_code_quality_is_faster() {
        let f = features_for(
            (vec![16, 1, 16, 4], vec![16, 1, 16, 4], vec![128, 2, 4]),
            true,
        );
        let gen = gpu_time(&v100(), &f, 0.75).unwrap();
        let lib = gpu_time(&v100(), &f, 0.9).unwrap();
        assert!(lib < gen);
    }
}
