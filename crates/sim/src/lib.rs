//! # flextensor-sim
//!
//! Analytical performance models and simulated vendor libraries for the
//! FlexTensor reproduction.
//!
//! The paper evaluates schedules by real measurement on CPUs/GPUs and by an
//! analytical model on FPGAs (§5.2 — synthesis is too slow to measure).
//! With no hardware in the loop, this crate extends the analytical-model
//! methodology to all three targets:
//!
//! * [`spec`] — device specifications (V100, P100, Titan X, Xeon E5-2699
//!   v4, VU9P).
//! * [`gpu`] / [`cpu`] / [`fpga`] — the per-target cost models, driven by
//!   the exact tiling features `flextensor-schedule` computes during
//!   lowering. The FPGA model is the paper's
//!   `workload/#PE × max(R, C, W)` pipeline model with DSP/BRAM
//!   feasibility constraints.
//! * [`model`] — [`model::Evaluator`], the "performance value"
//!   oracle exploration queries (§5.1). [`model::Evaluator::time_features`]
//!   is the one scoring path every search uses.
//! * [`generic`] — the three model bodies over `f64` inputs, which the
//!   per-target entry points run.
//! * [`batch`] — [`batch::FeatureBatch`], a plain row store scored by
//!   [`model::Evaluator::time_features_batch`], kept for the repository
//!   benchmark's off-path replay of the cost model.
//! * [`library`] — simulated baselines: cuDNN / cuBLAS / PyTorch-native /
//!   MKL-DNN / hand-optimized OpenCL, modeled as fixed expert schedules
//!   plus per-shape algorithm selection (Winograd, implicit GEMM, kernel
//!   reuse). See DESIGN.md for the substitution rationale.
//!
//! # Examples
//!
//! ```
//! use flextensor_ir::ops;
//! use flextensor_schedule::config::NodeConfig;
//! use flextensor_sim::{model::Evaluator, spec::{Device, v100}};
//!
//! let g = ops::gemm(512, 512, 512);
//! let mut cfg = NodeConfig::naive(g.root_op());
//! cfg.spatial_splits = vec![vec![16, 1, 16, 2], vec![16, 1, 16, 2]];
//! cfg.reduce_splits = vec![vec![128, 2, 2]];
//! cfg.cache_shared = true;
//! let cost = Evaluator::new(Device::Gpu(v100())).evaluate(&g, &cfg).unwrap();
//! assert!(cost.gflops() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod batch;
pub mod cpu;
pub mod fpga;
pub mod generic;
pub mod gpu;
pub mod library;
pub mod model;
pub mod spec;

pub use batch::FeatureBatch;
pub use model::{Cost, Evaluator, GENERATED_CODE_QUALITY};
pub use spec::{p100, titan_x, v100, vu9p, xeon_e5_2699_v4, CpuSpec, Device, FpgaSpec, GpuSpec};
