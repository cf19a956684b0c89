//! # flextensor-schedule
//!
//! Schedule primitives, configurations, and lowering for the FlexTensor
//! reproduction.
//!
//! FlexTensor separates *compute* (described with `flextensor-ir`) from
//! *schedule* — the sequence of optimization primitives of Table 2 (split,
//! reorder, fuse, unroll, vectorize, parallel, bind, cache, inline,
//! buffer, pipeline, partition). This crate provides:
//!
//! * [`config`] — [`config::NodeConfig`], a point in the
//!   schedule space: multi-way split factors per loop, reorder
//!   permutation, fusion depth, unroll/vectorize/cache flags and FPGA
//!   pipeline parameters, with the flat integer encoding of Fig. 3e.
//! * [`nest`] — the loop-nest IR ([`nest::Stmt`]) schedules lower
//!   to, executable by `flextensor-interp` and costed by `flextensor-sim`.
//! * [`mod@lower`] — target-specific lowering (Fig. 4a/4b/4c) from a
//!   mini-graph and a config to a [`lower::LoweredKernel`]
//!   with exact tiling [features](features::KernelFeatures).
//! * [`template`] — split-phase lowering: a per-(graph, target)
//!   [`template::LoweredTemplate`] caches the config-independent half of
//!   lowering so exploration derives per-candidate features without
//!   re-walking the expression tree (see `docs/PERFORMANCE.md`).
//! * [`delta`] — incremental evaluation: [`delta::DeltaEvaluator`]
//!   recomputes only the features a single-field config mutation can
//!   affect, bit-identical to the full path by construction.
//! * [`interval`] — the index-interval analysis behind tile-footprint
//!   computation (shared-memory sizing, cache-fit, register pressure).
//! * [`primitives`] — the printable Table 2 primitive sequence a config
//!   applies (the Fig. 3d view).
//!
//! # Examples
//!
//! ```
//! use flextensor_ir::ops;
//! use flextensor_schedule::{config::{NodeConfig, TargetKind}, lower::lower};
//!
//! let g = ops::gemm(256, 256, 256);
//! let mut cfg = NodeConfig::naive(g.root_op());
//! cfg.spatial_splits = vec![vec![8, 2, 16, 1], vec![4, 2, 8, 4]];
//! cfg.reduce_splits = vec![vec![32, 2, 4]];
//! cfg.cache_shared = true;
//! let kernel = lower(&g, &cfg, TargetKind::Gpu)?;
//! assert_eq!(kernel.features.block_threads, 16 * 8);
//! # Ok::<(), flextensor_schedule::lower::LowerError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod delta;
pub mod features;
pub mod interval;
pub mod lower;
pub mod nest;
pub mod primitives;
pub mod template;

pub use config::{ConfigLayout, NodeConfig, TargetKind, REDUCE_PARTS, SPATIAL_PARTS};
pub use delta::{delta_features, delta_features_with, DeltaEvaluator, DeltaScratch};
pub use features::{FpgaFeatures, KernelFeatures};
pub use lower::{lower, lower_naive, LowerError, LoweredKernel};
pub use nest::{LoopKind, Stmt};
pub use template::LoweredTemplate;
