//! The top-level optimization entry point, including Algorithm 1's
//! bottom-up graph scheduling.
//!
//! Given only a mathematical description (a `flextensor-ir` mini-graph)
//! and a target device, [`optimize`] runs the full FlexTensor flow:
//! front-end static analysis → schedule-space generation → back-end
//! exploration (SA + Q-learning by default) → schedule implementation —
//! no templates, no human interference (§3).

use flextensor_explore::methods::{search, Method, SearchOptions, TracePoint};
use flextensor_explore::pool::EvalStats;
use flextensor_ir::analysis::{analyze, GraphAnalysis};
use flextensor_ir::graph::Graph;
use flextensor_schedule::config::NodeConfig;
use flextensor_schedule::lower::{lower, LoweredKernel};
use flextensor_schedule::primitives::{describe, Primitive};
use flextensor_sim::model::{Cost, Evaluator};
use flextensor_sim::spec::Device;

/// An optimization task: the computation and the device to optimize for.
#[derive(Debug, Clone)]
pub struct Task {
    /// The tensor computation (mini-graph).
    pub graph: Graph,
    /// The target device model.
    pub device: Device,
}

impl Task {
    /// Creates a task.
    pub fn new(graph: Graph, device: Device) -> Task {
        Task { graph, device }
    }
}

/// Options controlling optimization.
#[derive(Debug, Clone)]
pub struct OptimizeOptions {
    /// Exploration strategy (Q-method by default).
    pub method: Method,
    /// Exploration hyperparameters.
    pub search: SearchOptions,
}

impl Default for OptimizeOptions {
    fn default() -> OptimizeOptions {
        OptimizeOptions {
            method: Method::QMethod,
            search: SearchOptions::default(),
        }
    }
}

impl OptimizeOptions {
    /// A smaller exploration budget for quick runs (examples, tests).
    pub fn quick() -> OptimizeOptions {
        OptimizeOptions {
            method: Method::QMethod,
            search: SearchOptions {
                trials: 30,
                starts: 6,
                initial_samples: 12,
                ..SearchOptions::default()
            },
        }
    }

    /// Sets the evaluation worker-thread count (1 = serial, 0 = all
    /// cores). Results are identical for every value; only wall-clock
    /// changes.
    pub fn with_eval_workers(mut self, workers: usize) -> OptimizeOptions {
        self.search.eval_workers = workers;
        self
    }

    /// Enables (or disables) the static analyzer pruning gate: candidates
    /// that `flextensor-analyze` proves infeasible for the target device
    /// are rejected before the cost model runs. The analyzer's soundness
    /// contract guarantees the chosen schedule and its cost are identical
    /// either way; pruned candidates skip the modeled measurement cost and
    /// are tallied in [`EvalStats::pruned`].
    pub fn with_analyzer_gate(mut self, enabled: bool) -> OptimizeOptions {
        self.search.analyzer_gate = enabled;
        self
    }

    /// Sets `SearchOptions::delta_eval`, which has no effect: every search
    /// evaluates its neighbors incrementally (tallies in
    /// [`EvalStats::delta_hits`] / [`EvalStats::delta_full`]). Kept only
    /// because the frozen repository benchmark calls it; it goes with the
    /// next change to that benchmark.
    pub fn with_delta_eval(mut self, enabled: bool) -> OptimizeOptions {
        self.search.delta_eval = enabled;
        self
    }

    /// Attaches a telemetry sink: the exploration back-end streams
    /// structured [`TraceEvent`](flextensor_telemetry::TraceEvent)s
    /// (trial lifecycle, candidate evaluations, SA moves, Q-network
    /// updates, pool statistics) to it. Pair with
    /// [`JsonlSink`](flextensor_telemetry::JsonlSink) to record a
    /// replayable trace file (see `docs/TRACE_FORMAT.md`).
    pub fn with_telemetry(mut self, telemetry: flextensor_telemetry::Telemetry) -> OptimizeOptions {
        self.search.telemetry = telemetry;
        self
    }

    /// Seeds exploration from stored configurations (canonical integer
    /// encodings) — typically the nearest-shape neighbor's best configs
    /// from a `flextensor-tunedb` database. Each encoding is adapted
    /// onto the task's op and joins the trial-0 seed batch; the RNG
    /// sequence is unchanged, so a warm run differs from a cold one only
    /// by the extra evaluated seeds.
    pub fn with_warm_start(mut self, configs: Vec<Vec<i64>>) -> OptimizeOptions {
        self.search.warm_start = configs;
        self
    }
}

/// The result of optimizing one task.
#[derive(Debug, Clone)]
pub struct OptimizeResult {
    /// Front-end analysis of the computation.
    pub analysis: GraphAnalysis,
    /// The chosen schedule configuration.
    pub config: NodeConfig,
    /// Estimated cost of the chosen schedule on the device.
    pub cost: Cost,
    /// The lowered kernel (loop nest + features).
    pub kernel: LoweredKernel,
    /// The schedule as a Table 2 primitive sequence (Fig. 3d view).
    pub primitives: Vec<Primitive>,
    /// Number of simulated on-device measurements performed.
    pub measurements: usize,
    /// Modeled exploration time, seconds.
    pub exploration_time_s: f64,
    /// Size of the explored schedule space.
    pub space_size: f64,
    /// Convergence trace.
    pub trace: Vec<TracePoint>,
    /// Evaluation-layer statistics: fresh evaluations, cache hit rate,
    /// worker count, and real wall-clock spent evaluating.
    pub eval_stats: EvalStats,
    /// Warm-start encodings adapted and absorbed into the seed batch
    /// (0 for cold runs).
    pub warm_seeds: usize,
}

impl OptimizeResult {
    /// Achieved throughput in GFLOP/s.
    pub fn gflops(&self) -> f64 {
        self.cost.gflops()
    }

    /// Renders the chosen schedule as readable primitive lines.
    pub fn schedule_text(&self) -> String {
        self.primitives.iter().map(|p| format!("  {p}\n")).collect()
    }
}

/// Errors from optimization.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OptimizeError(pub String);

impl std::fmt::Display for OptimizeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "optimization failed: {}", self.0)
    }
}

impl std::error::Error for OptimizeError {}

/// Optimizes a task: Algorithm 1's bottom-up schedule over the mini-graph.
///
/// The graph is traversed in post-order (`get_graph` /
/// `post_order_traverse` of Algorithm 1). Data-movement nodes (padding,
/// dilation) have no independent schedule decisions beyond *where they
/// live* — inlined into their consumer or materialized — and that choice
/// is part of the root node's schedule space (`ToggleInline`), so the
/// per-node loop resolves to exploring the root (arithmetic) node's space;
/// `Schedule_for_graph` is the final lowering of the combined config.
///
/// # Errors
///
/// Returns [`OptimizeError`] if exploration finds no feasible schedule or
/// the final lowering fails (internal invariant violations only).
pub fn optimize(task: &Task, opts: &OptimizeOptions) -> Result<OptimizeResult, OptimizeError> {
    // Front end: static analysis (§4.1).
    let analysis = analyze(&task.graph);

    // Algorithm 1, lines 1-2: graph + post-order traversal.
    let node_lst = task.graph.post_order();
    debug_assert!(!node_lst.is_empty());

    // Lines 4-7: schedule for each node. Every non-root node in our
    // operator set is a data-movement producer whose placement is decided
    // by the root config's `inline_data`; the root node's schedule is
    // found by back-end exploration (§5.1).
    let evaluator = Evaluator::new(task.device.clone());
    let result = search(&task.graph, &evaluator, opts.method, &opts.search)
        .map_err(|e| OptimizeError(e.to_string()))?;

    // Line 8: schedule for the graph — lower the combined configuration.
    let kernel = lower(&task.graph, &result.best, evaluator.target())
        .map_err(|e| OptimizeError(e.to_string()))?;
    let primitives = describe(task.graph.anchor_op(), &result.best, evaluator.target());

    Ok(OptimizeResult {
        analysis,
        config: result.best,
        cost: result.best_cost,
        kernel,
        primitives,
        measurements: result.measurements,
        exploration_time_s: result.exploration_time_s,
        space_size: result.space_size,
        trace: result.trace,
        eval_stats: result.eval_stats,
        warm_seeds: result.warm_seeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4};

    #[test]
    fn optimize_gemm_on_gpu() {
        let task = Task::new(ops::gemm(256, 256, 256), Device::Gpu(v100()));
        let r = optimize(&task, &OptimizeOptions::quick()).unwrap();
        assert!(r.gflops() > 100.0, "gflops {}", r.gflops());
        assert!(r.space_size > 1e4);
        assert!(!r.primitives.is_empty());
        assert!(r.schedule_text().contains("split"));
        r.config.validate(task.graph.root_op()).unwrap();
    }

    #[test]
    fn optimize_conv_on_all_devices() {
        let g = ops::conv2d(ops::ConvParams::same(1, 32, 64, 3), 28, 28);
        for device in [
            Device::Gpu(v100()),
            Device::Cpu(xeon_e5_2699_v4()),
            Device::Fpga(vu9p()),
        ] {
            let task = Task::new(g.clone(), device);
            let r = optimize(&task, &OptimizeOptions::quick()).unwrap();
            assert!(
                r.cost.seconds.is_finite() && r.cost.seconds > 0.0,
                "{}",
                task.device.name()
            );
        }
    }

    #[test]
    fn analysis_is_reported() {
        let task = Task::new(
            ops::conv2d(ops::ConvParams::same(1, 16, 16, 3), 14, 14),
            Device::Gpu(v100()),
        );
        let r = optimize(&task, &OptimizeOptions::quick()).unwrap();
        assert_eq!(r.analysis.num_compute_nodes, 2);
        assert_eq!(r.analysis.root_reduce, 3);
    }

    #[test]
    fn analyzer_gate_does_not_change_the_chosen_schedule() {
        let task = Task::new(ops::gemm(256, 256, 256), Device::Gpu(v100()));
        let off = optimize(&task, &OptimizeOptions::quick()).unwrap();
        let on = optimize(&task, &OptimizeOptions::quick().with_analyzer_gate(true)).unwrap();
        assert_eq!(on.config.encode(), off.config.encode());
        assert_eq!(on.cost.seconds.to_bits(), off.cost.seconds.to_bits());
        assert_eq!(off.eval_stats.pruned, 0);
        assert!(on.eval_stats.pruned > 0);
        assert!(on.exploration_time_s < off.exploration_time_s);
    }

    #[test]
    fn beats_the_naive_schedule() {
        let task = Task::new(ops::gemm(512, 512, 512), Device::Gpu(v100()));
        let r = optimize(&task, &OptimizeOptions::quick()).unwrap();
        let ev = Evaluator::new(task.device.clone());
        let naive = ev.evaluate(&task.graph, &NodeConfig::naive(task.graph.root_op()));
        // Naive infeasible on GPU means any feasible result wins.
        if let Some(n) = naive {
            assert!(r.cost.seconds < n.seconds);
        }
    }
}
