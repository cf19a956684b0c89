//! The evaluator: the single entry point exploration uses to obtain the
//! "performance value E" of a schedule point (§5.1).
//!
//! On real hardware FlexTensor compiles and measures (CPU/GPU) or queries
//! an analytical model (FPGA). Here all targets are analytical models, so
//! an evaluation = lower the config + run the target's cost model. The
//! measurement-*overhead* of the real system (compile + run, ≤ 1 s per the
//! paper) is modeled separately by the exploration-time accounting in
//! `flextensor-explore`.

use flextensor_ir::graph::Graph;
use flextensor_schedule::config::{NodeConfig, TargetKind};
use flextensor_schedule::features::KernelFeatures;
use flextensor_schedule::lower::lower;
use flextensor_schedule::template::LoweredTemplate;

use crate::batch::FeatureBatch;
use crate::cpu::cpu_time;
use crate::fpga::fpga_time;
use crate::gpu::gpu_time;
use crate::spec::Device;

/// Achievable fraction of model peak for FlexTensor-generated code. Vendor
/// libraries use higher values (hand-written kernels), set per baseline in
/// [`crate::library`].
pub const GENERATED_CODE_QUALITY: f64 = 0.75;

/// The outcome of evaluating one schedule on one device.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Cost {
    /// Estimated execution time in seconds.
    pub seconds: f64,
    /// Floating-point operations of the workload.
    pub flops: u64,
}

impl Cost {
    /// Achieved throughput in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        if self.seconds <= 0.0 {
            0.0
        } else {
            self.flops as f64 / self.seconds / 1e9
        }
    }
}

/// Evaluates schedule configurations on a device model.
#[derive(Debug, Clone)]
pub struct Evaluator {
    device: Device,
    code_quality: f64,
}

impl Evaluator {
    /// Creates an evaluator for generated code on the given device.
    pub fn new(device: Device) -> Evaluator {
        Evaluator {
            device,
            code_quality: GENERATED_CODE_QUALITY,
        }
    }

    /// Overrides the code-quality factor (used by library baselines).
    pub fn with_code_quality(mut self, q: f64) -> Evaluator {
        self.code_quality = q;
        self
    }

    /// The device being modeled.
    pub fn device(&self) -> &Device {
        &self.device
    }

    /// The schedule target for this device.
    pub fn target(&self) -> TargetKind {
        self.device.target()
    }

    /// Times pre-computed kernel features; `None` when infeasible.
    pub fn time_features(&self, f: &KernelFeatures) -> Option<f64> {
        match &self.device {
            Device::Gpu(s) => gpu_time(s, f, self.code_quality),
            Device::Cpu(s) => cpu_time(s, f, self.code_quality),
            Device::Fpga(s) => fpga_time(s, f, self.code_quality),
        }
    }

    /// Times every row of `batch`, writing one entry per row to `out`
    /// (cleared first; `None` marks infeasible rows). This is
    /// [`Evaluator::time_features`] mapped over the rows, so the results
    /// are bit-identical to scoring them one at a time.
    ///
    /// Kept for the repository benchmark's off-path replay, which times
    /// the cost model on its own; the evaluation pool scores each
    /// candidate through [`Evaluator::time_features`] directly.
    pub fn time_features_batch(&self, batch: &FeatureBatch, out: &mut Vec<Option<f64>>) {
        out.clear();
        out.extend(batch.rows().iter().map(|f| self.time_features(f)));
    }

    /// Lowers `cfg` for this device and evaluates it. `None` when the
    /// config is invalid for the graph or infeasible on the device.
    pub fn evaluate(&self, graph: &Graph, cfg: &NodeConfig) -> Option<Cost> {
        let kernel = lower(graph, cfg, self.target()).ok()?;
        let seconds = self.time_features(&kernel.features)?;
        Some(Cost {
            seconds,
            flops: graph.flops(),
        })
    }

    /// Fast-path evaluation through a precomputed [`LoweredTemplate`]:
    /// derives features via the cheap config-apply step instead of a full
    /// re-lowering. Produces bit-identical costs to [`Evaluator::evaluate`]
    /// (both paths share the same feature computation); the template must
    /// have been built for this evaluator's target.
    pub fn evaluate_template(&self, template: &LoweredTemplate, cfg: &NodeConfig) -> Option<Cost> {
        debug_assert_eq!(template.target(), self.target());
        let features = template.features(cfg).ok()?;
        let seconds = self.time_features(&features)?;
        Some(Cost {
            seconds,
            flops: template.graph_flops(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{v100, vu9p, xeon_e5_2699_v4};
    use flextensor_ir::ops;

    #[test]
    fn evaluator_dispatches_to_all_targets() {
        let g = ops::gemm(256, 256, 256);
        let cfg = {
            let mut c = NodeConfig::naive(g.root_op());
            c.spatial_splits = vec![vec![8, 1, 16, 2], vec![8, 1, 16, 2]];
            c.reduce_splits = vec![vec![64, 2, 2]];
            c.cache_shared = true;
            c
        };
        for dev in [
            Device::Gpu(v100()),
            Device::Cpu(xeon_e5_2699_v4()),
            Device::Fpga(vu9p()),
        ] {
            let e = Evaluator::new(dev);
            let cost = e.evaluate(&g, &cfg).expect("feasible on all targets");
            assert!(cost.seconds > 0.0);
            assert!(cost.gflops() > 0.0);
        }
    }

    #[test]
    fn template_fast_path_matches_full_evaluation() {
        let g = ops::gemm(256, 256, 256);
        let cfg = {
            let mut c = NodeConfig::naive(g.root_op());
            c.spatial_splits = vec![vec![8, 1, 16, 2], vec![8, 1, 16, 2]];
            c.reduce_splits = vec![vec![64, 2, 2]];
            c.cache_shared = true;
            c
        };
        for dev in [
            Device::Gpu(v100()),
            Device::Cpu(xeon_e5_2699_v4()),
            Device::Fpga(vu9p()),
        ] {
            let e = Evaluator::new(dev);
            let tpl = LoweredTemplate::new(&g, e.target());
            assert_eq!(e.evaluate_template(&tpl, &cfg), e.evaluate(&g, &cfg));
        }
    }

    #[test]
    fn invalid_config_yields_none() {
        let g = ops::gemm(256, 256, 256);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits[0] = vec![3, 1, 1, 1];
        let e = Evaluator::new(Device::Gpu(v100()));
        assert!(e.evaluate(&g, &cfg).is_none());
    }

    #[test]
    fn cost_gflops_math() {
        let c = Cost {
            seconds: 0.001,
            flops: 2_000_000_000,
        };
        assert!((c.gflops() - 2000.0).abs() < 1e-9);
    }
}
