//! The device cost models' bodies, over `f64` inputs.
//!
//! These bodies are the models: the public entry points
//! ([`crate::gpu::gpu_time`], [`crate::cpu::cpu_time`],
//! [`crate::fpga::fpga_time`]) embed a feature row with
//! [`GpuIn::of`]/[`CpuIn::of`]/[`FpgaIn::of`] and run them. Every step is
//! one IEEE-754 operation, in the order and association of the plain-`f64`
//! reference transcriptions (`gpu_time_row`, `cpu_time_row`,
//! `fpga_time_row`, compiled only in test builds). The differential tests
//! in this module pin the two bit for bit, on lowered feature rows and on
//! hand-built edge rows.

use flextensor_schedule::features::{FpgaFeatures, KernelFeatures};

use crate::gpu::UNCACHED_TRAFFIC_PENALTY;
use crate::spec::{CpuSpec, FpgaSpec, GpuSpec};

/// Integer division of two integer-valued operands, truncated toward
/// zero like the models' `i64` arithmetic.
fn floor_int_div(a: f64, b: f64) -> f64 {
    ((a as i64) / (b as i64)) as f64
}

/// The GPU model's inputs: the numeric columns of the feature row as
/// `f64`, the branch flags as `bool`.
#[derive(Debug, Clone, Copy)]
pub struct GpuIn {
    /// Workload floating-point operations.
    pub flops: f64,
    /// Grid size (thread blocks).
    pub grid: f64,
    /// Threads per block.
    pub block_threads: f64,
    /// Spatial points per thread.
    pub thread_tile: f64,
    /// Virtual-thread (register-tile) product.
    pub vthreads: f64,
    /// Outer reduce factor product.
    pub reduce_outer: f64,
    /// Shared-memory bytes staged per block per outer step.
    pub shared_bytes_per_block: f64,
    /// Register bytes per thread.
    pub thread_reg_bytes: f64,
    /// Compulsory input traffic in bytes.
    pub input_bytes_total: f64,
    /// Output bytes.
    pub output_bytes: f64,
    /// Materialized-producer traffic in bytes.
    pub data_node_bytes: f64,
    /// Whether inner loops are unrolled.
    pub unroll: bool,
    /// Whether the innermost loop is contiguous in the output.
    pub contiguous_inner: bool,
    /// Whether tiles are staged through shared memory.
    pub cache_shared: bool,
}

impl GpuIn {
    /// Embeds one feature row.
    pub fn of(f: &KernelFeatures) -> GpuIn {
        GpuIn {
            flops: f.flops as i64 as f64,
            grid: f.grid as f64,
            block_threads: f.block_threads as f64,
            thread_tile: f.thread_tile as f64,
            vthreads: f.vthreads as f64,
            reduce_outer: f.reduce_outer as f64,
            shared_bytes_per_block: f.shared_bytes_per_block as f64,
            thread_reg_bytes: f.thread_reg_bytes as f64,
            input_bytes_total: f.input_bytes_total as f64,
            output_bytes: f.output_bytes as f64,
            data_node_bytes: f.data_node_bytes as f64,
            unroll: f.unroll,
            contiguous_inner: f.contiguous_inner,
            cache_shared: f.cache_shared,
        }
    }
}

/// The GPU model — see [`crate::gpu::gpu_time`] for the model itself.
/// `None` means the kernel is infeasible on the device.
pub fn gpu_time_generic(spec: &GpuSpec, f: &GpuIn, code_quality: f64) -> Option<f64> {
    let tpb = f.block_threads;
    if tpb < 1.0 || tpb > spec.max_threads_per_block as f64 {
        return None;
    }
    let shared_pb = if f.cache_shared {
        f.shared_bytes_per_block
    } else {
        0.0
    };
    if shared_pb > spec.shared_per_block as f64 {
        return None;
    }

    // ---- occupancy --------------------------------------------------
    let warps_pb = floor_int_div(tpb + 31.0, 32.0);
    let blocks_by_warps = floor_int_div(spec.max_warps_per_sm as f64, warps_pb);
    let blocks_by_shared = if 0.0 < shared_pb {
        floor_int_div(spec.shared_per_sm as f64, shared_pb.max(1.0))
    } else {
        spec.max_blocks_per_sm as f64
    };
    let reg_bytes_pt = f.thread_reg_bytes.max(128.0);
    let blocks_by_regs = floor_int_div(spec.regfile_per_sm as f64, (reg_bytes_pt * tpb).max(1.0));
    let blocks_per_sm = blocks_by_warps
        .min(blocks_by_shared)
        .min(blocks_by_regs)
        .min(spec.max_blocks_per_sm as f64);
    if blocks_per_sm < 1.0 {
        return None;
    }
    let occupancy = blocks_per_sm * warps_pb / spec.max_warps_per_sm as f64;

    // ---- compute efficiency ------------------------------------------
    let warp_eff = tpb / (warps_pb * 32.0);
    let ilp = f.thread_tile * f.vthreads * if f.unroll { 2.0 } else { 1.0 };
    let needed_occupancy = 1.0 / (1.0 + ilp / 4.0) + 0.15;
    let latency_util = (occupancy / needed_occupancy).min(1.0);
    let slots = spec.sms as f64 * blocks_per_sm;
    let waves = floor_int_div(f.grid + slots - 1.0, slots);
    let tail_eff = if 0.0 < waves {
        f.grid / (waves * slots).max(1.0)
    } else {
        0.0
    };
    let spill_penalty = if 1024.0 < reg_bytes_pt {
        1024.0 / reg_bytes_pt
    } else {
        1.0
    };

    let eff = code_quality * warp_eff * latency_util * tail_eff.max(1e-3) * spill_penalty;
    let compute_s = if 0.0 < f.flops {
        f.flops / (spec.peak_flops() * eff.max(1e-4))
    } else {
        0.0
    };

    // ---- memory time -------------------------------------------------
    let tile_traffic = f.grid * f.reduce_outer * f.shared_bytes_per_block;
    let read_traffic = if f.cache_shared {
        tile_traffic
    } else {
        tile_traffic * UNCACHED_TRAFFIC_PENALTY
    };
    let read_traffic = read_traffic.max(f.input_bytes_total);
    let write_traffic = f.output_bytes;
    let coalesce = match (f.cache_shared, f.contiguous_inner) {
        (true, true) => 1.0,
        (true, false) => 0.6,
        (false, true) => 0.8,
        (false, false) => 0.25,
    };
    let bw = spec.mem_bw_gbps * 1e9 * coalesce;
    let mem_s = (read_traffic + write_traffic) / bw;
    let mem_s = mem_s + f.data_node_bytes / (spec.mem_bw_gbps * 1e9);

    let kernel_s = compute_s.max(mem_s) + 0.2 * compute_s.min(mem_s);
    let launches = if 0.0 < f.data_node_bytes { 2.0 } else { 1.0 };
    Some(kernel_s + launches * spec.launch_overhead_s)
}

/// The CPU model's inputs (flags as `bool`, as in [`GpuIn`]).
#[derive(Debug, Clone, Copy)]
pub struct CpuIn {
    /// Workload floating-point operations.
    pub flops: f64,
    /// Total outer chunks (tile count).
    pub grid: f64,
    /// Extent of the parallel (fused outermost) loop.
    pub parallel_chunks: f64,
    /// Spatial points per innermost tile.
    pub thread_tile: f64,
    /// Outer reduce factor product.
    pub reduce_outer: f64,
    /// Vector length of the innermost loop.
    pub vector_len: f64,
    /// Per-tile footprint bytes (L2 refetch proxy).
    pub shared_bytes_per_block: f64,
    /// Innermost tile footprint bytes (L1 proxy).
    pub l1_tile_bytes: f64,
    /// Middle tile footprint bytes (L2 proxy).
    pub l2_tile_bytes: f64,
    /// Compulsory input traffic in bytes.
    pub input_bytes_total: f64,
    /// Output bytes.
    pub output_bytes: f64,
    /// Materialized-producer traffic in bytes.
    pub data_node_bytes: f64,
    /// Whether inner loops are unrolled.
    pub unroll: bool,
    /// Whether the innermost loop is unit-stride.
    pub contiguous_inner: bool,
}

impl CpuIn {
    /// Embeds one feature row.
    pub fn of(f: &KernelFeatures) -> CpuIn {
        CpuIn {
            flops: f.flops as i64 as f64,
            grid: f.grid as f64,
            parallel_chunks: f.parallel_chunks as f64,
            thread_tile: f.thread_tile as f64,
            reduce_outer: f.reduce_outer as f64,
            vector_len: f.vector_len as f64,
            shared_bytes_per_block: f.shared_bytes_per_block as f64,
            l1_tile_bytes: f.l1_tile_bytes as f64,
            l2_tile_bytes: f.l2_tile_bytes as f64,
            input_bytes_total: f.input_bytes_total as f64,
            output_bytes: f.output_bytes as f64,
            data_node_bytes: f.data_node_bytes as f64,
            unroll: f.unroll,
            contiguous_inner: f.contiguous_inner,
        }
    }
}

/// The CPU model — see [`crate::cpu::cpu_time`]. Total like the public
/// entry point: every input is feasible on CPU.
pub fn cpu_time_generic(spec: &CpuSpec, f: &CpuIn, code_quality: f64) -> f64 {
    // ---- threading ----------------------------------------------------
    let chunks = f.parallel_chunks.max(1.0);
    let cores = spec.cores as f64;
    let used_cores = chunks.min(cores);
    let rounds = floor_int_div(chunks + cores - 1.0, cores);
    let balance = chunks / (rounds * cores.min(chunks.max(1.0)));
    let effective_cores = used_cores * balance.min(1.0);

    // ---- vectorization -------------------------------------------------
    let vw = spec.vector_width;
    let scalar_eff = 1.0 / vw as f64;
    let v = f.vector_len;
    let vec_eff = if f.contiguous_inner && 1.0 < v {
        if (v as i64) % vw == 0 {
            1.0
        } else if (vw as f64) < v {
            let ceil_mult = floor_int_div(v + (vw - 1) as f64, vw as f64) * vw as f64;
            v / ceil_mult.max(1.0)
        } else {
            v / vw as f64
        }
    } else {
        scalar_eff
    };

    // ---- locality -------------------------------------------------------
    let l1_eff = if f.l1_tile_bytes <= spec.l1_bytes as f64 {
        1.0
    } else if f.l1_tile_bytes <= spec.l2_bytes as f64 {
        0.75
    } else {
        0.45
    };
    let l2_eff = if f.l2_tile_bytes <= spec.l2_bytes as f64 {
        1.0
    } else if f.l2_tile_bytes <= (spec.l3_bytes / spec.cores) as f64 {
        0.85
    } else {
        0.6
    };

    // ---- loop overhead ---------------------------------------------------
    let inner_trip = f.thread_tile.max(1.0);
    let overhead_eff = if f.unroll || 8.0 <= inner_trip {
        1.0
    } else {
        0.55 + 0.05 * inner_trip
    };

    let per_core_peak = spec.peak_flops() / spec.cores as f64;
    let eff = code_quality * vec_eff * l1_eff * l2_eff * overhead_eff;
    let compute_s = if 0.0 < f.flops {
        f.flops / (per_core_peak * eff.max(1e-4)) / effective_cores.max(1.0)
    } else {
        0.0
    };

    // ---- memory -----------------------------------------------------------
    let chunk_count = f.grid.max(1.0);
    let refetch = if f.shared_bytes_per_block <= spec.l2_bytes as f64 {
        0.5
    } else {
        1.0
    };
    let tile_traffic = chunk_count * f.reduce_outer * f.shared_bytes_per_block * refetch;
    let compulsory = f.input_bytes_total;
    let read_traffic = if f.input_bytes_total <= spec.l3_bytes as f64 {
        compulsory + 0.35 * (tile_traffic - compulsory).max(0.0)
    } else {
        tile_traffic.max(compulsory)
    };
    let bw = spec.mem_bw_gbps * 1e9;
    let mem_s = (read_traffic + f.output_bytes) / bw;
    let mem_s = mem_s + f.data_node_bytes / bw;

    let spawn = if 1.0 < chunks {
        spec.spawn_overhead_s
    } else {
        0.0
    };
    compute_s.max(mem_s) + 0.2 * compute_s.min(mem_s) + spawn
}

/// The FPGA model's inputs. `partition` and `pipeline` are schedule
/// knobs, kept as integers.
#[derive(Debug, Clone, Copy)]
pub struct FpgaIn {
    /// Workload floating-point operations.
    pub flops: f64,
    /// Parallel processing elements.
    pub pe: f64,
    /// Sequential execution rounds.
    pub rounds: f64,
    /// On-chip input-buffer bytes per round.
    pub buffer_bytes: f64,
    /// DDR bytes streamed per round.
    pub stream_bytes: f64,
    /// Output bytes drained per round.
    pub write_bytes: f64,
    /// Memory partition factor.
    pub partition: i64,
    /// Pipeline stages overlapped (1–3).
    pub pipeline: i64,
}

impl FpgaIn {
    /// Embeds one feature row.
    pub fn of(flops: u64, fp: &FpgaFeatures) -> FpgaIn {
        FpgaIn {
            flops: flops as i64 as f64,
            pe: fp.pe as f64,
            rounds: fp.rounds as f64,
            buffer_bytes: fp.buffer_bytes as f64,
            stream_bytes: fp.stream_bytes as f64,
            write_bytes: fp.write_bytes as f64,
            partition: fp.partition,
            pipeline: fp.pipeline,
        }
    }
}

/// The FPGA pipeline model — see [`crate::fpga::fpga_time`]. `None` means
/// the design does not fit the DSP/BRAM budgets.
pub fn fpga_time_generic(spec: &FpgaSpec, f: &FpgaIn, code_quality: f64) -> Option<f64> {
    if f.pe > spec.max_pe() as f64 {
        return None;
    }
    let buffers = f.buffer_bytes + f.write_bytes;
    let bram_need = if f.pipeline >= 2 {
        buffers * 2.0
    } else {
        buffers
    };
    if bram_need > spec.bram_bytes as f64 {
        return None;
    }

    let rounds = f.rounds.max(1.0);

    let total_macs = floor_int_div(f.flops, 2.0);
    let macs_per_round = total_macs / rounds;
    let c = if 0.0 < total_macs {
        macs_per_round / (f.pe * code_quality.max(1e-3)) / (spec.clock_ghz * 1e9)
    } else {
        0.0
    };

    let onchip_bw = spec.bank_bw_gbps * f.partition as f64;
    let read_bw = spec.ddr_bw_gbps.min(onchip_bw) * 1e9;
    let r = f.stream_bytes / read_bw;
    let w = f.write_bytes / read_bw;

    let per_round = match f.pipeline {
        1 => r + c + w,
        2 => r.max(c) + w,
        _ => r.max(c).max(w),
    };
    Some(rounds * per_round + (r + c + w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpu::CpuRow;
    use crate::fpga::FpgaRow;
    use crate::gpu::GpuRow;
    use crate::spec::{v100, vu9p, xeon_e5_2699_v4};
    use flextensor_ir::ops;
    use flextensor_schedule::config::{NodeConfig, TargetKind};
    use flextensor_schedule::lower::lower;

    /// A spread of lowered feature rows per target: tuned, naive,
    /// infeasible and FPGA-flavored schedules over a few ops.
    fn sample_features(target: TargetKind) -> Vec<KernelFeatures> {
        let mut out = Vec::new();
        let g = ops::gemm(256, 256, 256);
        let mut cfgs = vec![NodeConfig::naive(g.root_op())];
        {
            let mut c = NodeConfig::naive(g.root_op());
            c.spatial_splits = vec![vec![8, 1, 16, 2], vec![8, 1, 16, 2]];
            c.reduce_splits = vec![vec![64, 2, 2]];
            c.cache_shared = true;
            c.unroll = true;
            c.vectorize = true;
            cfgs.push(c);
        }
        {
            // 64x64 threads per block: infeasible on GPU.
            let mut c = NodeConfig::naive(g.root_op());
            c.spatial_splits = vec![vec![1, 1, 64, 4], vec![1, 1, 64, 4]];
            cfgs.push(c);
        }
        {
            let mut c = NodeConfig::naive(g.root_op());
            c.spatial_splits = vec![vec![16, 2, 4, 2], vec![4, 2, 8, 4]];
            c.reduce_splits = vec![vec![16, 4, 4]];
            c.fuse_outer = 2;
            c.fpga_partition = 4;
            c.fpga_pipeline = 2;
            c.vectorize = true;
            cfgs.push(c);
        }
        for cfg in &cfgs {
            out.push(lower(&g, cfg, target).unwrap().features);
        }
        let conv = ops::conv2d(ops::ConvParams::same(1, 64, 64, 3), 28, 28);
        let mut c = NodeConfig::naive(conv.root_op());
        c.spatial_splits = vec![
            vec![1, 1, 1, 1],
            vec![4, 1, 16, 1],
            vec![28, 1, 1, 1],
            vec![4, 1, 1, 7],
        ];
        c.fpga_pipeline = 3;
        c.fpga_partition = 8;
        out.push(lower(&conv, &c, target).unwrap().features);
        out
    }

    #[test]
    fn generic_f64_gpu_is_bit_identical_to_row_path() {
        let spec = v100();
        for f in sample_features(TargetKind::Gpu) {
            let concrete = crate::gpu::gpu_time_row(&spec, GpuRow::of(&f), 0.75);
            let generic = gpu_time_generic(&spec, &GpuIn::of(&f), 0.75);
            assert_eq!(
                concrete.map(f64::to_bits),
                generic.map(f64::to_bits),
                "diverged on {f:?}"
            );
        }
    }

    #[test]
    fn generic_f64_cpu_is_bit_identical_to_row_path() {
        let spec = xeon_e5_2699_v4();
        for f in sample_features(TargetKind::Cpu) {
            let concrete = crate::cpu::cpu_time_row(&spec, CpuRow::of(&f), 0.75);
            let generic = cpu_time_generic(&spec, &CpuIn::of(&f), 0.75);
            assert_eq!(concrete.to_bits(), generic.to_bits(), "diverged on {f:?}");
        }
    }

    #[test]
    fn generic_f64_fpga_is_bit_identical_to_row_path() {
        let spec = vu9p();
        for f in sample_features(TargetKind::Fpga) {
            let fp = f.fpga.as_ref().unwrap();
            let concrete = crate::fpga::fpga_time_row(&spec, FpgaRow::of(f.flops, fp), 0.85);
            let generic = fpga_time_generic(&spec, &FpgaIn::of(f.flops, fp), 0.85);
            assert_eq!(
                concrete.map(f64::to_bits),
                generic.map(f64::to_bits),
                "diverged on {f:?}"
            );
        }
    }

    #[test]
    fn generic_f64_survives_adversarial_rows() {
        // Direct row construction: edge values the lowered samples do not
        // reach (zero flops, zero shared bytes, spill-sized register
        // tiles, single-thread blocks, materialized producers).
        let spec = v100();
        let base = GpuRow {
            flops: 0,
            grid: 1,
            block_threads: 1,
            thread_tile: 1,
            vthreads: 1,
            reduce_outer: 1,
            shared_bytes_per_block: 0,
            thread_reg_bytes: 0,
            input_bytes_total: 0,
            output_bytes: 4,
            data_node_bytes: 0,
            unroll: false,
            contiguous_inner: false,
            cache_shared: false,
        };
        let mut rows = vec![base];
        for (reg, dnb, flops, tpb) in [
            (4096i64, 1_000_000i64, 1_u64 << 33, 1024i64),
            (2000, 0, 12345, 33),
            (100, 7, 2, 1025), // infeasible: too many threads
        ] {
            let mut r = base;
            r.thread_reg_bytes = reg;
            r.data_node_bytes = dnb;
            r.flops = flops;
            r.block_threads = tpb;
            r.unroll = true;
            r.cache_shared = true;
            r.shared_bytes_per_block = 4096;
            rows.push(r);
        }
        for r in rows {
            let concrete = crate::gpu::gpu_time_row(&spec, r, 0.75);
            let f = GpuIn {
                flops: r.flops as i64 as f64,
                grid: r.grid as f64,
                block_threads: r.block_threads as f64,
                thread_tile: r.thread_tile as f64,
                vthreads: r.vthreads as f64,
                reduce_outer: r.reduce_outer as f64,
                shared_bytes_per_block: r.shared_bytes_per_block as f64,
                thread_reg_bytes: r.thread_reg_bytes as f64,
                input_bytes_total: r.input_bytes_total as f64,
                output_bytes: r.output_bytes as f64,
                data_node_bytes: r.data_node_bytes as f64,
                unroll: r.unroll,
                contiguous_inner: r.contiguous_inner,
                cache_shared: r.cache_shared,
            };
            let generic = gpu_time_generic(&spec, &f, 0.75);
            assert_eq!(concrete.map(f64::to_bits), generic.map(f64::to_bits));
        }
    }

    /// Every row of `rows` combined with every value of `values`, set by
    /// `set`: builds a cross product of edge cases one field at a time.
    fn vary<R: Copy, V: Copy>(rows: Vec<R>, values: &[V], set: impl Fn(&mut R, V)) -> Vec<R> {
        rows.iter()
            .flat_map(|r| {
                values.iter().map(|&v| {
                    let mut r = *r;
                    set(&mut r, v);
                    r
                })
            })
            .collect()
    }

    #[test]
    fn generic_f64_cpu_survives_adversarial_rows() {
        // Direct row construction over the CPU model's edges: no, one and
        // one-too-many parallel chunks; vector lengths that are zero, one,
        // ragged and a multiple of the width; zero flops; tiles past L1,
        // L2, the per-core L3 share and the whole L3; materialized
        // producers; short unrolled and not-unrolled inner loops.
        let spec = xeon_e5_2699_v4();
        let base = CpuRow {
            flops: 0,
            grid: 1,
            parallel_chunks: 1,
            thread_tile: 1,
            reduce_outer: 1,
            vector_len: 1,
            shared_bytes_per_block: 0,
            l1_tile_bytes: 0,
            l2_tile_bytes: 0,
            input_bytes_total: 0,
            output_bytes: 4,
            data_node_bytes: 0,
            unroll: false,
            contiguous_inner: false,
        };
        // (grid, reduce_outer, shared, l1 tile, l2 tile, input bytes):
        // all in cache, past L1 only, and past every cache level.
        let l2 = spec.l2_bytes;
        let tiles = [
            (1, 1, 0, 0, 0, 0),
            (8, 3, l2, l2, l2 + 1, 1 << 20),
            (
                64,
                8,
                l2 + 1,
                l2 + 1,
                spec.l3_bytes / spec.cores + 1,
                spec.l3_bytes + 1,
            ),
        ];
        let mut rows = vec![base];
        rows = vary(rows, &[0, 1, spec.cores + 1], |r, v| r.parallel_chunks = v);
        rows = vary(rows, &[0, 1, 3, 64], |r, v| r.vector_len = v);
        rows = vary(rows, &[false, true], |r, v| r.contiguous_inner = v);
        rows = vary(rows, &[0, 12345, 1 << 33], |r, v| r.flops = v);
        rows = vary(rows, &tiles, |r, (g, ro, sh, t1, t2, inp)| {
            (r.grid, r.reduce_outer, r.shared_bytes_per_block) = (g, ro, sh);
            (r.l1_tile_bytes, r.l2_tile_bytes, r.input_bytes_total) = (t1, t2, inp);
        });
        rows = vary(rows, &[0, 1_000_000], |r, v| r.data_node_bytes = v);
        rows = vary(
            rows,
            &[(1, false), (3, false), (3, true), (8, false)],
            |r, (tt, u)| {
                (r.thread_tile, r.unroll) = (tt, u);
            },
        );
        assert_eq!(rows.len(), 3 * 4 * 2 * 3 * 3 * 2 * 4);
        for r in rows {
            let concrete = crate::cpu::cpu_time_row(&spec, r, 0.75);
            let f = CpuIn {
                flops: r.flops as i64 as f64,
                grid: r.grid as f64,
                parallel_chunks: r.parallel_chunks as f64,
                thread_tile: r.thread_tile as f64,
                reduce_outer: r.reduce_outer as f64,
                vector_len: r.vector_len as f64,
                shared_bytes_per_block: r.shared_bytes_per_block as f64,
                l1_tile_bytes: r.l1_tile_bytes as f64,
                l2_tile_bytes: r.l2_tile_bytes as f64,
                input_bytes_total: r.input_bytes_total as f64,
                output_bytes: r.output_bytes as f64,
                data_node_bytes: r.data_node_bytes as f64,
                unroll: r.unroll,
                contiguous_inner: r.contiguous_inner,
            };
            let generic = cpu_time_generic(&spec, &f, 0.75);
            assert_eq!(concrete.to_bits(), generic.to_bits(), "diverged on {r:?}");
        }
    }

    #[test]
    fn generic_f64_fpga_survives_adversarial_rows() {
        // Direct row construction over the FPGA model's edges: PE counts up
        // to and past the DSP budget, zero rounds, buffers that fit BRAM
        // only unpipelined or not at all, zero flops and stream bytes, and
        // every partition / pipeline value the search space produces.
        let spec = vu9p();
        let mut rows = vec![FpgaRow::default()];
        rows = vary(rows, &[1, 64, spec.max_pe(), spec.max_pe() + 1], |r, v| {
            r.pe = v
        });
        rows = vary(rows, &[0, 1, 7], |r, v| r.rounds = v);
        let bram = spec.bram_bytes;
        rows = vary(rows, &[0, bram / 2 + 1, bram + 1], |r, v| {
            r.buffer_bytes = v
        });
        rows = vary(rows, &[0, 4096], |r, v| r.write_bytes = v);
        rows = vary(rows, &[0, 1, 1 << 33], |r, v| r.flops = v);
        rows = vary(rows, &[0, 1 << 20], |r, v| r.stream_bytes = v);
        rows = vary(rows, &[1, 2, 4, 8, 16], |r, v| r.partition = v);
        rows = vary(rows, &[1, 2, 3], |r, v| r.pipeline = v);
        assert_eq!(rows.len(), 4 * 3 * 3 * 2 * 3 * 2 * 5 * 3);
        let mut infeasible = 0;
        for r in &rows {
            let concrete = crate::fpga::fpga_time_row(&spec, *r, 0.85);
            let f = FpgaIn {
                flops: r.flops as i64 as f64,
                pe: r.pe as f64,
                rounds: r.rounds as f64,
                buffer_bytes: r.buffer_bytes as f64,
                stream_bytes: r.stream_bytes as f64,
                write_bytes: r.write_bytes as f64,
                partition: r.partition,
                pipeline: r.pipeline,
            };
            let generic = fpga_time_generic(&spec, &f, 0.85);
            assert_eq!(
                concrete.map(f64::to_bits),
                generic.map(f64::to_bits),
                "diverged on {r:?}"
            );
            infeasible += usize::from(concrete.is_none());
        }
        assert!(
            infeasible > 0 && infeasible < rows.len(),
            "both verdicts exercised"
        );
    }
}
