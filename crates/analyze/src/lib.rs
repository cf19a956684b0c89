//! Static schedule-legality and performance-lint analysis.
//!
//! FlexTensor's front end prunes the schedule space with *static*
//! structural analysis (§4.1–4.2); this crate grows that idea into a
//! diagnostic-driven analyzer over schedule configurations
//! ([`NodeConfig`]), lowered cost-model features
//! ([`KernelFeatures`]) and the lowered loop nest
//! ([`Stmt`](flextensor_schedule::nest::Stmt)). Rules live in a
//! [`registry`] behind the [`Lint`] trait and emit structured
//! [`Diagnostic`]s in three groups:
//!
//! * **legality** (`Error`) — split-shape/permutation/fuse validity,
//!   GPU thread/shared-memory/register capacity, FPGA PE/BRAM budgets and
//!   partition validity, and concurrent write-write races in the nest;
//! * **performance** (`Warn`/`Info`) — tail-remainder waste, unroll body
//!   blowup, strided vectorization, warp-granularity misfits, register
//!   spills, tiny grids;
//! * **determinism** (`Error`) — atomic-free parallel reductions.
//!
//! The feature-level legality rules replicate the infeasibility
//! arithmetic of the `flextensor-sim` cost models exactly, so an `Error`
//! verdict proves [`Evaluator::time_features`] would return `None`. That
//! soundness property lets the exploration layer prune `Error`-level
//! candidates *before* evaluation ([`gate_rejects`]) without changing
//! search results, and lets the conformance oracle check analyzer
//! verdicts differentially against the interpreter and cost models.
//!
//! See `docs/ANALYZE.md` for the rule catalog and the JSON report schema.
//!
//! [`Evaluator::time_features`]: flextensor_sim::model::Evaluator::time_features
//!
//! # Example
//!
//! ```
//! use flextensor_analyze::analyze_schedule;
//! use flextensor_ir::ops;
//! use flextensor_schedule::config::NodeConfig;
//! use flextensor_sim::spec::{v100, Device};
//!
//! let g = ops::gemm(64, 64, 64);
//! let report = analyze_schedule(&g, &NodeConfig::naive(g.root_op()), &Device::Gpu(v100()));
//! assert!(report.is_clean()); // naive schedules are legal (if slow)
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod report;
pub mod rules;

pub use report::{Diagnostic, Report, Severity};
pub use rules::{feature_legality, registry, AnalysisInput, Lint, RuleGroup};

use flextensor_ir::graph::Graph;
use flextensor_schedule::config::NodeConfig;
use flextensor_schedule::features::KernelFeatures;
use flextensor_schedule::lower::lower;
use flextensor_sim::spec::Device;

/// Runs every registered rule on `input` and collects the findings.
pub fn analyze(input: &AnalysisInput<'_>) -> Report {
    let mut diags = Vec::new();
    for rule in registry() {
        rule.check(input, &mut diags);
    }
    Report::new(diags)
}

/// Analyzes a schedule end to end: config-level rules first; when the
/// config is `Error`-free, lowers it and runs the feature- and nest-level
/// rules as well.
///
/// A config whose config-level verdict is clean always lowers (the
/// config rules mirror `NodeConfig::validate`); if lowering still fails,
/// the failure is reported as a `legality/lowering-failed` diagnostic.
pub fn analyze_schedule(graph: &Graph, cfg: &NodeConfig, device: &Device) -> Report {
    let op = graph.root_op();
    let config_input = AnalysisInput {
        op,
        cfg,
        device,
        features: None,
        nest: None,
    };
    let pre = analyze(&config_input);
    if !pre.is_clean() {
        return pre;
    }
    match lower(graph, cfg, device.target()) {
        Ok(kernel) => analyze(&AnalysisInput {
            op,
            cfg,
            device,
            features: Some(&kernel.features),
            nest: Some(&kernel.stmts),
        }),
        Err(e) => {
            let mut diags = pre.diagnostics;
            diags.push(Diagnostic::new(
                "legality/lowering-failed",
                Severity::Error,
                "config",
                format!("config passed validation but failed to lower: {e}"),
                vec![],
            ));
            Report::new(diags)
        }
    }
}

/// The search-time pruning gate: returns the first feature-level legality
/// `Error` for these features on `device`, or `None` when the features
/// are statically feasible.
///
/// **Soundness contract**: `Some(_)` implies
/// [`Evaluator::time_features`](flextensor_sim::model::Evaluator::time_features)
/// returns `None` for the same features (the rules replicate the cost
/// models' infeasibility arithmetic), so pruning a rejected candidate
/// never changes which schedules the search can select. The converse does
/// not hold: the gate is not required to catch every infeasibility.
pub fn gate_rejects(device: &Device, features: &KernelFeatures) -> Option<Diagnostic> {
    let mut diags = Vec::new();
    feature_legality(device, features, &mut diags);
    diags.into_iter().next()
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use flextensor_sim::model::Evaluator;
    use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4};

    fn devices() -> [Device; 3] {
        [
            Device::Gpu(v100()),
            Device::Cpu(xeon_e5_2699_v4()),
            Device::Fpga(vu9p()),
        ]
    }

    #[test]
    fn naive_small_gemm_is_error_free_everywhere() {
        // Small enough that even the naive schedule's PE count (= spatial
        // domain) fits the VU9P budget.
        let g = ops::gemm(8, 6, 4);
        let cfg = NodeConfig::naive(g.root_op());
        for d in devices() {
            let r = analyze_schedule(&g, &cfg, &d);
            assert!(r.is_clean(), "{}: {}", d.name(), r.render_text());
        }
    }

    #[test]
    fn invalid_split_is_reported_at_config_level() {
        let g = ops::gemm(64, 32, 16);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits[1] = vec![3, 1, 1, 1];
        let r = analyze_schedule(&g, &cfg, &Device::Gpu(v100()));
        assert!(!r.is_clean());
        let d = &r.diagnostics[0];
        assert_eq!(d.rule, "legality/split-shape");
        assert_eq!(d.span, "spatial_splits[1]");
    }

    #[test]
    fn oversized_block_is_rejected_and_gate_agrees_with_evaluator() {
        let g = ops::gemm(256, 256, 256);
        let mut cfg = NodeConfig::naive(g.root_op());
        // 64x64 = 4096 threads per block.
        cfg.spatial_splits = vec![vec![1, 1, 64, 4], vec![1, 1, 64, 4]];
        let device = Device::Gpu(v100());
        let r = analyze_schedule(&g, &cfg, &device);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == "legality/gpu-thread-count"));
        let ev = Evaluator::new(device.clone());
        let kernel = lower(&g, &cfg, device.target()).unwrap();
        assert!(gate_rejects(&device, &kernel.features).is_some());
        assert!(ev.evaluate(&g, &cfg).is_none());
    }

    #[test]
    fn gate_passes_feasible_features() {
        let g = ops::gemm(256, 256, 256);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits = vec![vec![8, 1, 16, 2], vec![8, 1, 16, 2]];
        cfg.reduce_splits = vec![vec![64, 2, 2]];
        cfg.cache_shared = true;
        for d in devices() {
            let kernel = lower(&g, &cfg, d.target()).unwrap();
            assert!(gate_rejects(&d, &kernel.features).is_none(), "{}", d.name());
            assert!(Evaluator::new(d.clone()).evaluate(&g, &cfg).is_some());
        }
    }

    #[test]
    fn fpga_pe_overflow_is_rejected() {
        let g = ops::conv2d(ops::ConvParams::same(1, 64, 64, 3), 28, 28);
        let mut cfg = NodeConfig::naive(g.root_op());
        // 64*28 = 1792 PEs > 1368 budget (axes b, k, i, j).
        cfg.spatial_splits = vec![
            vec![1, 1, 1, 1],
            vec![1, 1, 64, 1],
            vec![28, 1, 1, 1],
            vec![1, 1, 1, 28],
        ];
        let device = Device::Fpga(vu9p());
        let r = analyze_schedule(&g, &cfg, &device);
        assert!(r
            .diagnostics
            .iter()
            .any(|d| d.rule == "legality/fpga-pe-budget"));
        assert!(Evaluator::new(device).evaluate(&g, &cfg).is_none());
    }

    #[test]
    fn report_json_contains_rule_ids() {
        let g = ops::gemm(64, 32, 16);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.fuse_outer = 9;
        let r = analyze_schedule(&g, &cfg, &Device::Cpu(xeon_e5_2699_v4()));
        assert!(r.to_json().contains("\"rule\":\"legality/fuse-depth\""));
    }
}
