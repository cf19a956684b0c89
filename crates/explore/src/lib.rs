//! # flextensor-explore
//!
//! The back-end of the FlexTensor reproduction: schedule-space generation
//! and heuristic + machine-learning exploration (§4.2, §5.1).
//!
//! * [`space`] — the pruned, high-dimensionally rearranged schedule space:
//!   points are `NodeConfig`s, neighborhoods are [`Direction`]s
//!   (prime-factor moves between split levels, reorder swaps, primitive
//!   toggles), with hardware-fixed decisions per target.
//! * [`sa`] — the evaluated-point set `H` and the simulated-annealing
//!   starting-point rule `P(p) ∝ exp(-γ(E* - E_p)/E*)`.
//! * [`qlearn`] — the Q-learning direction selector: a four-layer
//!   fully-connected ReLU network trained online with AdaDelta, sharing
//!   its training steps with a helper thread while only one search runs.
//! * [`methods`] — the search drivers: Q-method, P-method (all
//!   directions), and a random-walk ablation, with exploration-time
//!   accounting modeling the real system's per-measurement cost.
//! * [`pool`] — the parallel, memoized evaluation layer: a persistent
//!   worker pool fanning each trial's candidate batch out over
//!   `eval_workers` threads, with a concurrent memo cache so repeat
//!   visits cost zero modeled and zero real time. Results reduce in
//!   fixed candidate order, so searches are deterministic in the worker
//!   count.
//!
//! Every driver can additionally stream structured telemetry — trial
//! lifecycle, per-candidate evaluations, SA moves, Q-network training,
//! pool statistics — through the [`telemetry`] re-export
//! (`flextensor-telemetry`): attach a sink via
//! [`SearchOptions::telemetry`](methods::SearchOptions), record a JSONL
//! trace, and replay it offline into the identical run summary (see
//! `docs/TRACE_FORMAT.md`).
//!
//! # Examples
//!
//! ```
//! use flextensor_ir::ops;
//! use flextensor_sim::{model::Evaluator, spec::{Device, v100}};
//! use flextensor_explore::methods::{search, Method, SearchOptions};
//!
//! let g = ops::gemm(256, 256, 256);
//! let ev = Evaluator::new(Device::Gpu(v100()));
//! let opts = SearchOptions { trials: 10, ..SearchOptions::default() };
//! let result = search(&g, &ev, Method::QMethod, &opts)?;
//! assert!(result.best_cost.gflops() > 0.0);
//! # Ok::<(), flextensor_explore::methods::SearchError>(())
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod methods;
pub mod pool;
pub mod qlearn;
pub mod sa;
pub mod space;
pub mod sweep;
mod table;
pub mod warm;

/// The structured trace/event layer (`flextensor-telemetry`), re-exported
/// so explorer users can attach sinks without a separate dependency.
pub use flextensor_telemetry as telemetry;

pub use flextensor_telemetry::{JsonlSink, MemorySink, NullSink, Telemetry, TraceEvent, TraceSink};
pub use methods::{search, Method, SearchOptions, SearchResult, TracePoint};
pub use pool::{EvalOutcome, EvalPool, EvalStats, MemoCache};
pub use sa::History;
pub use space::{Direction, Space};
