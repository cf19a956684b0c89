//! Monotonicity property tests of the device model bodies: each model,
//! evaluated through its `f64` body, is non-decreasing in the feature
//! dimensions where that holds by construction (workload FLOPs and the
//! pure traffic terms: more work or more bytes never makes the modeled
//! kernel faster at a fixed schedule shape).

use flextensor_sim::generic::{
    cpu_time_generic, fpga_time_generic, gpu_time_generic, CpuIn, FpgaIn, GpuIn,
};
use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// GPU: the model is non-decreasing in FLOPs and in each pure
    /// traffic dimension (input, output, materialized-producer bytes),
    /// and those dimensions never affect feasibility.
    #[test]
    fn gpu_cost_monotone_in_work_and_traffic(
        flops in 0i64..(1 << 32),
        grid in 1i64..(1 << 17),
        tpb in 1i64..2048,
        tt in 1i64..64,
        vt in 1i64..16,
        ro in 1i64..1024,
        shared in 0i64..200_000,
        reg in 0i64..4096,
        input in 0i64..(1 << 30),
        out_b in 0i64..(1 << 28),
        dnb in 0i64..(1 << 24),
        unroll in any::<bool>(),
        contig in any::<bool>(),
        cache in any::<bool>(),
        bump in 1i64..(1 << 20),
        dim in 0usize..4,
    ) {
        let spec = v100();
        let base = GpuIn {
            flops: flops as f64,
            grid: grid as f64,
            block_threads: tpb as f64,
            thread_tile: tt as f64,
            vthreads: vt as f64,
            reduce_outer: ro as f64,
            shared_bytes_per_block: shared as f64,
            thread_reg_bytes: reg as f64,
            input_bytes_total: input as f64,
            output_bytes: out_b as f64,
            data_node_bytes: dnb as f64,
            unroll,
            contiguous_inner: contig,
            cache_shared: cache,
        };
        let mut more = base;
        let b = bump as f64;
        match dim {
            0 => more.flops += b,
            1 => more.input_bytes_total += b,
            2 => more.output_bytes += b,
            _ => more.data_node_bytes += b,
        }
        let t0 = gpu_time_generic(&spec, &base, 0.75);
        let t1 = gpu_time_generic(&spec, &more, 0.75);
        prop_assert_eq!(t0.is_some(), t1.is_some());
        if let (Some(a), Some(c)) = (t0, t1) {
            prop_assert!(c >= a, "dim {dim}: bumping by {bump} went {a} -> {c}");
        }
    }

    /// CPU: non-decreasing in FLOPs and each pure traffic dimension.
    #[test]
    fn cpu_cost_monotone_in_work_and_traffic(
        flops in 0i64..(1 << 32),
        grid in 1i64..(1 << 17),
        chunks in 1i64..4096,
        tt in 1i64..64,
        ro in 1i64..1024,
        vl in 1i64..64,
        shared in 0i64..(1 << 22),
        l1 in 0i64..(1 << 20),
        l2 in 0i64..(1 << 22),
        input in 0i64..(1 << 30),
        out_b in 0i64..(1 << 28),
        dnb in 0i64..(1 << 24),
        unroll in any::<bool>(),
        contig in any::<bool>(),
        bump in 1i64..(1 << 20),
        dim in 0usize..4,
    ) {
        let spec = xeon_e5_2699_v4();
        let base = CpuIn {
            flops: flops as f64,
            grid: grid as f64,
            parallel_chunks: chunks as f64,
            thread_tile: tt as f64,
            reduce_outer: ro as f64,
            vector_len: vl as f64,
            shared_bytes_per_block: shared as f64,
            l1_tile_bytes: l1 as f64,
            l2_tile_bytes: l2 as f64,
            input_bytes_total: input as f64,
            output_bytes: out_b as f64,
            data_node_bytes: dnb as f64,
            unroll,
            contiguous_inner: contig,
        };
        let mut more = base;
        let b = bump as f64;
        match dim {
            0 => more.flops += b,
            1 => more.input_bytes_total += b,
            2 => more.output_bytes += b,
            _ => more.data_node_bytes += b,
        }
        let a = cpu_time_generic(&spec, &base, 0.75);
        let c = cpu_time_generic(&spec, &more, 0.75);
        prop_assert!(c >= a, "dim {dim}: bumping by {bump} went {a} -> {c}");
    }

    /// FPGA: non-decreasing in FLOPs and in streamed/written bytes; the
    /// byte dimensions can only remove feasibility (BRAM), never add it.
    #[test]
    fn fpga_cost_monotone_in_work_and_traffic(
        flops in 0i64..(1 << 32),
        pe in 1i64..1368,
        rounds in 1i64..4096,
        buffer in 0i64..(1 << 24),
        stream in 0i64..(1 << 24),
        write in 0i64..(1 << 24),
        partition_exp in 0u32..5,
        pipeline in 1i64..=3,
        bump in 1i64..(1 << 20),
        dim in 0usize..3,
    ) {
        let spec = vu9p();
        let base = FpgaIn {
            flops: flops as f64,
            pe: pe as f64,
            rounds: rounds as f64,
            buffer_bytes: buffer as f64,
            stream_bytes: stream as f64,
            write_bytes: write as f64,
            partition: 1i64 << partition_exp,
            pipeline,
        };
        let mut more = base;
        let b = bump as f64;
        match dim {
            0 => more.flops += b,
            1 => more.stream_bytes += b,
            _ => more.write_bytes += b,
        }
        let t0 = fpga_time_generic(&spec, &base, 0.85);
        let t1 = fpga_time_generic(&spec, &more, 0.85);
        match (t0, t1) {
            (Some(a), Some(c)) => {
                prop_assert!(c >= a, "dim {dim}: bumping by {bump} went {a} -> {c}")
            }
            // Growing write_bytes can overflow BRAM; never the reverse.
            (None, Some(_)) => prop_assert!(false, "bump restored feasibility"),
            _ => {}
        }
    }
}
