//! The FPGA performance model of §5.2.
//!
//! The paper evaluates FPGA schedules with an analytical model (synthesis
//! takes hours, so real measurement is impractical):
//!
//! ```text
//! Execution_time = workload / #PE × max(R, C, W)
//! ```
//!
//! where `R` is the per-round data-read time, `C` the per-round compute
//! time, `W` the per-round write time, and `#PE` the number of parallel
//! processing elements — derived from the three-stage read/compute/write
//! pipeline of Fig. 4c. We implement that model, plus the resource
//! constraints (DSP budget for PEs, BRAM budget for buffers) under which
//! the paper says FlexTensor "solv\[es\] an optimization problem under
//! certain FPGA resource constraints".

use flextensor_schedule::features::KernelFeatures;

use crate::spec::FpgaSpec;

/// Estimates execution time in seconds; `None` when the design does not
/// fit (PE count exceeds the DSP budget, or buffers exceed BRAM) or the
/// features carry no FPGA block (kernel was lowered for another target).
///
/// Runs the model body [`crate::generic::fpga_time_generic`]. The
/// differential tests in `crate::generic` pin it bit for bit to the
/// plain-`f64` reference `fpga_time_row` below, which exists only in test
/// builds.
pub fn fpga_time(spec: &FpgaSpec, f: &KernelFeatures, code_quality: f64) -> Option<f64> {
    let fp = f.fpga.as_ref()?;
    crate::generic::fpga_time_generic(spec, &crate::generic::FpgaIn::of(f.flops, fp), code_quality)
}

/// The exact inputs of the FPGA pipeline model, flattened into one `Copy`
/// row: the `FpgaFeatures` block plus the workload FLOPs, as the input
/// of the [`fpga_time_row`] test oracle.
#[cfg(test)]
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FpgaRow {
    pub flops: u64,
    pub pe: i64,
    pub rounds: i64,
    pub buffer_bytes: i64,
    pub stream_bytes: i64,
    pub write_bytes: i64,
    pub partition: i64,
    pub pipeline: i64,
}

#[cfg(test)]
impl FpgaRow {
    pub(crate) fn of(flops: u64, fp: &flextensor_schedule::features::FpgaFeatures) -> FpgaRow {
        FpgaRow {
            flops,
            pe: fp.pe,
            rounds: fp.rounds,
            buffer_bytes: fp.buffer_bytes,
            stream_bytes: fp.stream_bytes,
            write_bytes: fp.write_bytes,
            partition: fp.partition,
            pipeline: fp.pipeline,
        }
    }
}

/// The FPGA model written directly in `f64` and `i64`: the reference the
/// generic body is tested against.
#[cfg(test)]
pub(crate) fn fpga_time_row(spec: &FpgaSpec, fp: FpgaRow, code_quality: f64) -> Option<f64> {
    if fp.pe > spec.max_pe() {
        return None; // not enough DSPs
    }
    // Double buffering for the pipelined design: input buffer + output
    // buffer, each duplicated when stages overlap.
    let buffers = fp.buffer_bytes + fp.write_bytes;
    let bram_need = if fp.pipeline >= 2 {
        buffers * 2
    } else {
        buffers
    };
    if bram_need > spec.bram_bytes {
        return None;
    }

    let rounds = fp.rounds.max(1) as f64;

    // C: compute time of one round. Each PE retires one MAC per cycle.
    let total_macs = (fp.flops / 2) as f64;
    let macs_per_round = total_macs / rounds;
    let c = if total_macs == 0.0 {
        0.0
    } else {
        macs_per_round / (fp.pe as f64 * code_quality.max(1e-3)) / (spec.clock_ghz * 1e9)
    };

    // R: read time of one round — bounded by off-chip DDR bandwidth and by
    // on-chip fill bandwidth (partitioning multiplies BRAM ports).
    let onchip_bw = spec.bank_bw_gbps * fp.partition as f64;
    let read_bw = spec.ddr_bw_gbps.min(onchip_bw) * 1e9;
    let r = fp.stream_bytes as f64 / read_bw;

    // W: write time of one round.
    let w = fp.write_bytes as f64 / read_bw;

    let per_round = match fp.pipeline {
        1 => r + c + w,
        2 => r.max(c) + w,
        _ => r.max(c).max(w),
    };
    // Pipeline fill/drain once.
    Some(rounds * per_round + (r + c + w))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::vu9p;
    use flextensor_ir::ops;
    use flextensor_schedule::config::{NodeConfig, TargetKind};
    use flextensor_schedule::lower::lower;

    fn conv_features(pe_factors: (i64, i64), pipeline: i64, partition: i64) -> KernelFeatures {
        // 64x64x28x28 3x3 conv; PE parallelism over output channels (level
        // 2) and width (level 3).
        let g = ops::conv2d(ops::ConvParams::same(1, 64, 64, 3), 28, 28);
        let mut cfg = NodeConfig::naive(g.root_op());
        // axes: b(1), k(64), i(28), j(28)
        cfg.spatial_splits = vec![
            vec![1, 1, 1, 1],
            vec![64 / pe_factors.0, 1, pe_factors.0, 1],
            vec![28, 1, 1, 1],
            vec![28 / pe_factors.1, 1, 1, pe_factors.1],
        ];
        cfg.fpga_pipeline = pipeline;
        cfg.fpga_partition = partition;
        lower(&g, &cfg, TargetKind::Fpga).unwrap().features
    }

    #[test]
    fn pipeline_overlap_is_faster() {
        let spec = vu9p();
        let seq = fpga_time(&spec, &conv_features((16, 4), 1, 8), 0.85).unwrap();
        let two = fpga_time(&spec, &conv_features((16, 4), 2, 8), 0.85).unwrap();
        let three = fpga_time(&spec, &conv_features((16, 4), 3, 8), 0.85).unwrap();
        assert!(three <= two && two <= seq, "{three} {two} {seq}");
    }

    #[test]
    fn partitioning_raises_read_bandwidth() {
        let spec = vu9p();
        let p1 = fpga_time(&spec, &conv_features((16, 4), 3, 1), 0.85).unwrap();
        let p8 = fpga_time(&spec, &conv_features((16, 4), 3, 8), 0.85).unwrap();
        assert!(p8 < p1, "partition8 {p8} vs partition1 {p1}");
    }

    #[test]
    fn more_pes_are_faster_until_dsp_limit() {
        let spec = vu9p();
        let small = fpga_time(&spec, &conv_features((16, 4), 3, 8), 0.85).unwrap();
        let big = fpga_time(&spec, &conv_features((64, 14), 3, 8), 0.85).unwrap();
        assert!(big < small, "896 PEs {big} vs 64 PEs {small}");
        // 64*28 = 1792 PEs exceeds the 1368-PE budget.
        assert!(fpga_time(&spec, &conv_features((64, 28), 3, 8), 0.85).is_none());
    }

    #[test]
    fn throughput_is_below_peak() {
        let spec = vu9p();
        let f = conv_features((64, 14), 3, 8);
        let t = fpga_time(&spec, &f, 0.85).unwrap();
        let gflops = f.flops as f64 / t / 1e9;
        assert!(gflops > 20.0, "{gflops}");
        assert!(gflops < spec.peak_flops() / 1e9, "{gflops}");
    }

    #[test]
    fn zero_flop_ops_are_bandwidth_bound() {
        let g = ops::shift2d(1, 64, 28, 28);
        let mut cfg = NodeConfig::naive(g.root_op());
        // Modest PE parallelism so the design fits the DSP budget.
        cfg.spatial_splits = vec![
            vec![1, 1, 1, 1],
            vec![4, 1, 16, 1],
            vec![28, 1, 1, 1],
            vec![4, 1, 1, 7],
        ];
        let f = lower(&g, &cfg, TargetKind::Fpga).unwrap().features;
        let t = fpga_time(&vu9p(), &f, 0.85).unwrap();
        assert!(t > 0.0);
    }
}
