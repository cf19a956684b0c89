//! # flextensor-telemetry
//!
//! Structured, replayable exploration telemetry for the FlexTensor
//! reproduction.
//!
//! The back-end search loop (simulated annealing + Q-learning, paper §4)
//! is an online learner whose dynamics — SA acceptance, Q-network loss,
//! ε decay, evaluation-cache behaviour — are invisible in a bare result
//! struct. This crate provides the event layer that makes them
//! observable and *replayable*:
//!
//! * [`TraceEvent`] — the typed event vocabulary (run/trial lifecycle,
//!   per-candidate evaluations, SA moves, Q-network updates, evaluation
//!   pool statistics, and a final run summary);
//! * [`TraceSink`] — where events go: [`NullSink`] (drop), [`MemorySink`]
//!   (collect in memory), [`JsonlSink`] (versioned line-delimited JSON
//!   with a stable schema, see `docs/TRACE_FORMAT.md`);
//! * [`Telemetry`] — the cheap cloneable handle the search drivers carry;
//! * [`replay`] — folds a recorded event stream back into the run's
//!   [`RunSummary`](TraceEvent::RunSummary), bit-for-bit;
//! * [`report`] — renders a replayed trace as a text report (best-cost
//!   curve, acceptance rate by phase, cache hit rate, per-trial
//!   wall-clock).
//!
//! The crate is deliberately **zero-dependency** (not even on the rest of
//! the workspace): events carry plain data — schedule points appear as
//! their canonical integer-encoding key — so recorded traces can be
//! consumed by tools that know nothing about tensors.
//!
//! # Example: recording events through a sink
//!
//! ```
//! use flextensor_telemetry::{MemorySink, Telemetry, TraceEvent, TraceSink};
//! use std::sync::Arc;
//!
//! let sink = Arc::new(MemorySink::new());
//! let tel = Telemetry::new(sink.clone());
//! assert!(tel.is_enabled());
//!
//! tel.emit(TraceEvent::TrialStarted { trial: 1, starts: 4, wall_s: 0.0 });
//! tel.emit(TraceEvent::SaStep {
//!     trial: 1,
//!     temperature: 2.0,
//!     energy: 125.0,
//!     accepted: true,
//! });
//!
//! let events = sink.events();
//! assert_eq!(events.len(), 2);
//! assert!(matches!(events[0], TraceEvent::TrialStarted { trial: 1, .. }));
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod json;
pub mod replay;
pub mod report;

use std::fmt;
use std::fmt::Write as _;
use std::io::{self, BufRead, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

use json::{parse, write_f64, write_opt_f64, write_str};

/// Version of the JSONL record schema this crate writes (the `"v"` field
/// of every record). Readers accept records up to and including this
/// version; see `docs/TRACE_FORMAT.md` for the compatibility rules.
pub const TRACE_VERSION: u64 = 1;

/// One structured exploration event.
///
/// Every variant serializes to one JSONL record with a fixed field order,
/// so a run recorded with the same seed and worker count is byte-identical
/// except for the wall-clock fields (`wall_s`), which
/// [`TraceEvent::strip_wall_clock`] zeroes for comparisons.
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// A search/tuning run began. Carries everything replay needs to fold
    /// the stream back into the run's summary: the time-accounting
    /// parameters and the graph's FLOP count.
    RunStarted {
        /// Driver name: `"q-method"`, `"p-method"`, `"random-walk"`, or
        /// `"autotvm"`. Determines the replay fold for the best cost.
        method: String,
        /// RNG seed of the run.
        seed: u64,
        /// Trial (or round) budget.
        trials: usize,
        /// Starting points per trial (batch size for the tuner).
        starts: usize,
        /// Resolved evaluation worker threads.
        workers: usize,
        /// Modeled compile+measure overhead per fresh evaluation, seconds.
        measure_overhead_s: f64,
        /// Kernel repetitions per measurement.
        measure_repeats: u32,
        /// FLOPs of the computation (for GFLOP/s reporting).
        flops: u64,
    },
    /// A trial (exploration step / tuning round) began. Trial 0 is the
    /// seeding phase (initial random samples).
    TrialStarted {
        /// Trial index (0 = seeding).
        trial: usize,
        /// Starting points (or candidates) selected for this trial.
        starts: usize,
        /// Wall-clock seconds since the run started.
        wall_s: f64,
    },
    /// One candidate configuration was evaluated (or answered from the
    /// memo cache) and absorbed into the history.
    CandidateEvaluated {
        /// Trial that evaluated the candidate.
        trial: usize,
        /// Canonical config key: the Fig. 3e integer encoding, dot-joined.
        key: String,
        /// Modeled kernel time in seconds; `None` = infeasible.
        seconds: Option<f64>,
        /// `true` when the evaluator actually ran (a modeled on-device
        /// measurement); `false` for memo-cache hits.
        fresh: bool,
    },
    /// One simulated-annealing move: a starting point chosen from `H` was
    /// moved along a direction to a new point.
    SaStep {
        /// Trial of the move.
        trial: usize,
        /// Effective temperature of the start-selection rule (the γ of
        /// `P ∝ exp(-γ(E*-E_p)/E*)`; the tuner logs its annealing
        /// temperature instead).
        temperature: f64,
        /// Performance value `E` (throughput, 1/seconds) of the reached
        /// point; 0 = infeasible.
        energy: f64,
        /// Whether the move improved on its starting point.
        accepted: bool,
    },
    /// The Q-learning agent trained on a replay minibatch.
    QUpdate {
        /// Trial after which training ran.
        trial: usize,
        /// Final minibatch loss of the training round.
        loss: f64,
        /// Current ε of the ε-greedy policy (after annealing).
        epsilon: f64,
        /// Whether the round's bootstrap targets came from the network as
        /// it stood at the round's start (the paper's target network,
        /// refreshed every round; always true).
        target_sync: bool,
    },
    /// Cumulative evaluation-pool statistics after a batch.
    PoolStats {
        /// Trial whose batch just completed.
        trial: usize,
        /// Fresh cost-model evaluations so far.
        evaluated: usize,
        /// Memo-cache hits so far.
        cache_hits: usize,
        /// Memo-cache misses so far.
        cache_misses: usize,
        /// Entries currently resident in the cache.
        cache_entries: usize,
        /// Worker threads evaluating.
        workers: usize,
        /// Real wall-clock spent inside batched evaluation so far, seconds.
        wall_s: f64,
    },
    /// Cumulative static-analyzer pruning statistics after a batch.
    /// Emitted only by gate-enabled evaluation pools, immediately after
    /// the batch's [`TraceEvent::PoolStats`] record; traces from ungated
    /// runs never contain it.
    AnalyzerStats {
        /// Trial whose batch just completed.
        trial: usize,
        /// Candidates the analyzer gate rejected before the cost model
        /// ran, cumulative over the run.
        pruned: usize,
    },
    /// Cumulative incremental-evaluation statistics after a batch.
    /// Read but no longer written: traces recorded while delta evaluation
    /// was an opt-in carry it immediately after the batch's
    /// [`TraceEvent::PoolStats`] (and, when gated, the
    /// [`TraceEvent::AnalyzerStats`]) record. There,
    /// `delta_hits + delta_full == evaluated`.
    DeltaStats {
        /// Trial whose batch just completed.
        trial: usize,
        /// Fresh evaluations served by the incremental (delta) fast path,
        /// cumulative over the run.
        delta_hits: usize,
        /// Fresh evaluations that needed the full feature recompute,
        /// cumulative over the run.
        delta_full: usize,
    },
    /// Counters of the end-of-search region certification sweep. Emitted
    /// once per run, immediately before [`TraceEvent::RunSummary`], only
    /// when `SearchOptions::region_gate` is enabled; traces from runs
    /// without the sweep never contain it. Every field is deterministic
    /// given the seed and search options, so these traces replay
    /// byte-identically. Older records also carry `regions_analyzed` and
    /// `region_pruned` from a since-removed live gate; the reader ignores
    /// them.
    RegionStats {
        /// Trial index of the last completed trial.
        trial: usize,
        /// Regions examined by the certification sweep.
        swept: usize,
        /// Sweep regions certified empty (no legal member schedule).
        sweep_illegal: usize,
        /// Sweep regions certified worse than the incumbent (certified
        /// lower bound exceeds the realized best cost).
        sweep_pruned: usize,
        /// Sweep regions left uncertified (contain the incumbent or hit
        /// the subdivision limit).
        sweep_open: usize,
        /// Whether the sweep hit its region budget before certifying the
        /// whole factor space.
        sweep_truncated: bool,
    },
    /// Cumulative schedule-database statistics (`flextensor-tunedb`):
    /// lookup hits/misses, warm-start seeds served, records appended,
    /// and lines dropped by crash recovery. Emitted by the session
    /// server when it reports; replay captures the last one seen without
    /// folding it into the run summary.
    DbStats {
        /// Keys resident in the database index.
        records: usize,
        /// Lookups answered from the store.
        hits: usize,
        /// Lookups that missed.
        misses: usize,
        /// Warm-start seeds served from nearest-shape neighbors.
        warm_starts: usize,
        /// Records appended since the database was opened.
        puts: usize,
        /// Log lines dropped by corruption recovery at open.
        dropped: usize,
    },
    /// Per-session statistics from the tuning session server: request
    /// outcomes by class (database hit, fresh tune, coalesced duplicate,
    /// failure) plus total queue latency. `queue_wait_s` is wall-clock
    /// and is zeroed by [`TraceEvent::strip_wall_clock`]; every other
    /// field is deterministic given the request sequence.
    SessionStats {
        /// Session name.
        session: String,
        /// Requests submitted by the session.
        submitted: usize,
        /// Requests answered successfully.
        completed: usize,
        /// Requests that failed (evaluator error).
        failed: usize,
        /// Requests answered directly from the database snapshot.
        hits: usize,
        /// Requests that ran a fresh search.
        misses: usize,
        /// Fresh searches that were seeded from a neighbor record.
        warm_starts: usize,
        /// Requests deduplicated onto another request's result.
        coalesced: usize,
        /// Total real time requests spent queued, seconds.
        queue_wait_s: f64,
    },
    /// A graph-level tuning run planned its deduplicated task set
    /// (`flextensor-graph`): how many network occurrences collapsed into
    /// how many tuning tasks, and the global budget split into rounds.
    /// Emitted once per graph tune, before any round runs; replay
    /// captures the last one seen without folding it into the run
    /// summary. Every field is deterministic.
    GraphPlan {
        /// Network name.
        network: String,
        /// Operator occurrences in the network (before dedup).
        occurrences: usize,
        /// Deduplicated tuning tasks (distinct structural fingerprints).
        tasks: usize,
        /// Tasks answered from the database snapshot (no budget spent).
        hits: usize,
        /// Global trial budget across all fresh tasks.
        budget: usize,
        /// Re-planning rounds after the pilot round.
        rounds: usize,
        /// Pilot trials given to every fresh task in round 0.
        pilot: usize,
    },
    /// One budget-allocation round of a graph-level tuning run finished:
    /// how many trials the planner allocated this round and the
    /// end-to-end network latency after absorbing the round's results.
    /// Replay collects these in emission order. Every field is
    /// deterministic.
    GraphRound {
        /// Round index (0 = pilot).
        round: usize,
        /// Trials allocated across tasks this round.
        allocated: usize,
        /// Cumulative trials spent through this round.
        spent: usize,
        /// Modeled end-to-end network latency after this round, seconds
        /// (sum over tasks of use-count × best kernel time).
        network_seconds: f64,
    },
    /// The run finished. Replay recomputes every field of this record
    /// (except the pass-through `wall_s`) from the preceding events.
    RunSummary {
        /// Trials actually run.
        trials: usize,
        /// Total modeled on-device measurements.
        measurements: usize,
        /// Total modeled exploration time, seconds.
        exploration_time_s: f64,
        /// Best kernel time found, seconds.
        best_seconds: f64,
        /// Best throughput found, GFLOP/s.
        best_gflops: f64,
        /// Fresh evaluations run by the pool.
        evaluated: usize,
        /// Memo-cache hits.
        cache_hits: usize,
        /// Memo-cache misses.
        cache_misses: usize,
        /// Real wall-clock of the whole run, seconds.
        wall_s: f64,
    },
}

impl TraceEvent {
    /// The record's `"type"` tag.
    pub fn type_name(&self) -> &'static str {
        match self {
            TraceEvent::RunStarted { .. } => "run_started",
            TraceEvent::TrialStarted { .. } => "trial_started",
            TraceEvent::CandidateEvaluated { .. } => "candidate_evaluated",
            TraceEvent::SaStep { .. } => "sa_step",
            TraceEvent::QUpdate { .. } => "q_update",
            TraceEvent::PoolStats { .. } => "pool_stats",
            TraceEvent::AnalyzerStats { .. } => "analyzer_stats",
            TraceEvent::DeltaStats { .. } => "delta_stats",
            TraceEvent::RegionStats { .. } => "region_stats",
            TraceEvent::DbStats { .. } => "db_stats",
            TraceEvent::SessionStats { .. } => "session_stats",
            TraceEvent::GraphPlan { .. } => "graph_plan",
            TraceEvent::GraphRound { .. } => "graph_round",
            TraceEvent::RunSummary { .. } => "run_summary",
        }
    }

    /// A copy with every wall-clock field zeroed. Two runs with the same
    /// seed and worker count serialize byte-identically after this.
    pub fn strip_wall_clock(&self) -> TraceEvent {
        let mut e = self.clone();
        match &mut e {
            TraceEvent::TrialStarted { wall_s, .. }
            | TraceEvent::PoolStats { wall_s, .. }
            | TraceEvent::RunSummary { wall_s, .. } => *wall_s = 0.0,
            TraceEvent::SessionStats { queue_wait_s, .. } => *queue_wait_s = 0.0,
            _ => {}
        }
        e
    }

    /// Serializes the event as one JSONL record (no trailing newline).
    ///
    /// Field order is fixed per variant, floats print in shortest
    /// round-trip form, and the schema version rides on every record, so
    /// serialization is deterministic and self-describing.
    pub fn to_jsonl(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(s, "{{\"v\":{TRACE_VERSION},\"type\":");
        write_str(&mut s, self.type_name());
        match self {
            TraceEvent::RunStarted {
                method,
                seed,
                trials,
                starts,
                workers,
                measure_overhead_s,
                measure_repeats,
                flops,
            } => {
                s.push_str(",\"method\":");
                write_str(&mut s, method);
                let _ = write!(
                    s,
                    ",\"seed\":{seed},\"trials\":{trials},\"starts\":{starts},\"workers\":{workers},\"measure_overhead_s\":"
                );
                write_f64(&mut s, *measure_overhead_s);
                let _ = write!(
                    s,
                    ",\"measure_repeats\":{measure_repeats},\"flops\":{flops}"
                );
            }
            TraceEvent::TrialStarted {
                trial,
                starts,
                wall_s,
            } => {
                let _ = write!(s, ",\"trial\":{trial},\"starts\":{starts},\"wall_s\":");
                write_f64(&mut s, *wall_s);
            }
            TraceEvent::CandidateEvaluated {
                trial,
                key,
                seconds,
                fresh,
            } => {
                let _ = write!(s, ",\"trial\":{trial},\"key\":");
                write_str(&mut s, key);
                s.push_str(",\"seconds\":");
                write_opt_f64(&mut s, *seconds);
                let _ = write!(s, ",\"fresh\":{fresh}");
            }
            TraceEvent::SaStep {
                trial,
                temperature,
                energy,
                accepted,
            } => {
                let _ = write!(s, ",\"trial\":{trial},\"temperature\":");
                write_f64(&mut s, *temperature);
                s.push_str(",\"energy\":");
                write_f64(&mut s, *energy);
                let _ = write!(s, ",\"accepted\":{accepted}");
            }
            TraceEvent::QUpdate {
                trial,
                loss,
                epsilon,
                target_sync,
            } => {
                let _ = write!(s, ",\"trial\":{trial},\"loss\":");
                write_f64(&mut s, *loss);
                s.push_str(",\"epsilon\":");
                write_f64(&mut s, *epsilon);
                let _ = write!(s, ",\"target_sync\":{target_sync}");
            }
            TraceEvent::PoolStats {
                trial,
                evaluated,
                cache_hits,
                cache_misses,
                cache_entries,
                workers,
                wall_s,
            } => {
                let _ = write!(
                    s,
                    ",\"trial\":{trial},\"evaluated\":{evaluated},\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\"cache_entries\":{cache_entries},\"workers\":{workers},\"wall_s\":"
                );
                write_f64(&mut s, *wall_s);
            }
            TraceEvent::AnalyzerStats { trial, pruned } => {
                let _ = write!(s, ",\"trial\":{trial},\"pruned\":{pruned}");
            }
            TraceEvent::DeltaStats {
                trial,
                delta_hits,
                delta_full,
            } => {
                let _ = write!(
                    s,
                    ",\"trial\":{trial},\"delta_hits\":{delta_hits},\"delta_full\":{delta_full}"
                );
            }
            TraceEvent::RegionStats {
                trial,
                swept,
                sweep_illegal,
                sweep_pruned,
                sweep_open,
                sweep_truncated,
            } => {
                let _ = write!(
                    s,
                    ",\"trial\":{trial},\"swept\":{swept},\"sweep_illegal\":{sweep_illegal},\"sweep_pruned\":{sweep_pruned},\"sweep_open\":{sweep_open},\"sweep_truncated\":{sweep_truncated}"
                );
            }
            TraceEvent::DbStats {
                records,
                hits,
                misses,
                warm_starts,
                puts,
                dropped,
            } => {
                let _ = write!(
                    s,
                    ",\"records\":{records},\"hits\":{hits},\"misses\":{misses},\"warm_starts\":{warm_starts},\"puts\":{puts},\"dropped\":{dropped}"
                );
            }
            TraceEvent::SessionStats {
                session,
                submitted,
                completed,
                failed,
                hits,
                misses,
                warm_starts,
                coalesced,
                queue_wait_s,
            } => {
                s.push_str(",\"session\":");
                write_str(&mut s, session);
                let _ = write!(
                    s,
                    ",\"submitted\":{submitted},\"completed\":{completed},\"failed\":{failed},\"hits\":{hits},\"misses\":{misses},\"warm_starts\":{warm_starts},\"coalesced\":{coalesced},\"queue_wait_s\":"
                );
                write_f64(&mut s, *queue_wait_s);
            }
            TraceEvent::GraphPlan {
                network,
                occurrences,
                tasks,
                hits,
                budget,
                rounds,
                pilot,
            } => {
                s.push_str(",\"network\":");
                write_str(&mut s, network);
                let _ = write!(
                    s,
                    ",\"occurrences\":{occurrences},\"tasks\":{tasks},\"hits\":{hits},\"budget\":{budget},\"rounds\":{rounds},\"pilot\":{pilot}"
                );
            }
            TraceEvent::GraphRound {
                round,
                allocated,
                spent,
                network_seconds,
            } => {
                let _ = write!(
                    s,
                    ",\"round\":{round},\"allocated\":{allocated},\"spent\":{spent},\"network_seconds\":"
                );
                write_f64(&mut s, *network_seconds);
            }
            TraceEvent::RunSummary {
                trials,
                measurements,
                exploration_time_s,
                best_seconds,
                best_gflops,
                evaluated,
                cache_hits,
                cache_misses,
                wall_s,
            } => {
                let _ = write!(
                    s,
                    ",\"trials\":{trials},\"measurements\":{measurements},\"exploration_time_s\":"
                );
                write_f64(&mut s, *exploration_time_s);
                s.push_str(",\"best_seconds\":");
                write_f64(&mut s, *best_seconds);
                s.push_str(",\"best_gflops\":");
                write_f64(&mut s, *best_gflops);
                let _ = write!(
                    s,
                    ",\"evaluated\":{evaluated},\"cache_hits\":{cache_hits},\"cache_misses\":{cache_misses},\"wall_s\":"
                );
                write_f64(&mut s, *wall_s);
            }
        }
        s.push('}');
        s
    }

    /// Parses one JSONL record back into an event.
    ///
    /// # Errors
    ///
    /// Returns [`TraceError`] on malformed JSON, an unknown record type,
    /// a missing field, or a schema version newer than [`TRACE_VERSION`].
    pub fn from_jsonl(line: &str) -> Result<TraceEvent, TraceError> {
        let v = parse(line).map_err(TraceError)?;
        let version = v.get_u64("v").map_err(TraceError)?;
        if version > TRACE_VERSION {
            return Err(TraceError(format!(
                "record version {version} is newer than supported {TRACE_VERSION}"
            )));
        }
        fn field<T>(r: Result<T, String>) -> Result<T, TraceError> {
            r.map_err(TraceError)
        }
        let ev = match v.get_str("type").map_err(TraceError)? {
            "run_started" => TraceEvent::RunStarted {
                method: field(v.get_str("method"))?.to_string(),
                seed: field(v.get_u64("seed"))?,
                trials: field(v.get_usize("trials"))?,
                starts: field(v.get_usize("starts"))?,
                workers: field(v.get_usize("workers"))?,
                measure_overhead_s: field(v.get_f64("measure_overhead_s"))?,
                measure_repeats: {
                    let r = field(v.get_u64("measure_repeats"))?;
                    r as u32
                },
                flops: field(v.get_u64("flops"))?,
            },
            "trial_started" => TraceEvent::TrialStarted {
                trial: field(v.get_usize("trial"))?,
                starts: field(v.get_usize("starts"))?,
                wall_s: field(v.get_f64("wall_s"))?,
            },
            "candidate_evaluated" => TraceEvent::CandidateEvaluated {
                trial: field(v.get_usize("trial"))?,
                key: field(v.get_str("key"))?.to_string(),
                seconds: field(v.get_opt_f64("seconds"))?,
                fresh: field(v.get_bool("fresh"))?,
            },
            "sa_step" => TraceEvent::SaStep {
                trial: field(v.get_usize("trial"))?,
                temperature: field(v.get_f64("temperature"))?,
                energy: field(v.get_f64("energy"))?,
                accepted: field(v.get_bool("accepted"))?,
            },
            "q_update" => TraceEvent::QUpdate {
                trial: field(v.get_usize("trial"))?,
                loss: field(v.get_f64("loss"))?,
                epsilon: field(v.get_f64("epsilon"))?,
                target_sync: field(v.get_bool("target_sync"))?,
            },
            "pool_stats" => TraceEvent::PoolStats {
                trial: field(v.get_usize("trial"))?,
                evaluated: field(v.get_usize("evaluated"))?,
                cache_hits: field(v.get_usize("cache_hits"))?,
                cache_misses: field(v.get_usize("cache_misses"))?,
                cache_entries: field(v.get_usize("cache_entries"))?,
                workers: field(v.get_usize("workers"))?,
                wall_s: field(v.get_f64("wall_s"))?,
            },
            "analyzer_stats" => TraceEvent::AnalyzerStats {
                trial: field(v.get_usize("trial"))?,
                pruned: field(v.get_usize("pruned"))?,
            },
            "delta_stats" => TraceEvent::DeltaStats {
                trial: field(v.get_usize("trial"))?,
                delta_hits: field(v.get_usize("delta_hits"))?,
                delta_full: field(v.get_usize("delta_full"))?,
            },
            "region_stats" => TraceEvent::RegionStats {
                trial: field(v.get_usize("trial"))?,
                swept: field(v.get_usize("swept"))?,
                sweep_illegal: field(v.get_usize("sweep_illegal"))?,
                sweep_pruned: field(v.get_usize("sweep_pruned"))?,
                sweep_open: field(v.get_usize("sweep_open"))?,
                sweep_truncated: field(v.get_bool("sweep_truncated"))?,
            },
            "db_stats" => TraceEvent::DbStats {
                records: field(v.get_usize("records"))?,
                hits: field(v.get_usize("hits"))?,
                misses: field(v.get_usize("misses"))?,
                warm_starts: field(v.get_usize("warm_starts"))?,
                puts: field(v.get_usize("puts"))?,
                dropped: field(v.get_usize("dropped"))?,
            },
            "session_stats" => TraceEvent::SessionStats {
                session: field(v.get_str("session"))?.to_string(),
                submitted: field(v.get_usize("submitted"))?,
                completed: field(v.get_usize("completed"))?,
                failed: field(v.get_usize("failed"))?,
                hits: field(v.get_usize("hits"))?,
                misses: field(v.get_usize("misses"))?,
                warm_starts: field(v.get_usize("warm_starts"))?,
                coalesced: field(v.get_usize("coalesced"))?,
                queue_wait_s: field(v.get_f64("queue_wait_s"))?,
            },
            "graph_plan" => TraceEvent::GraphPlan {
                network: field(v.get_str("network"))?.to_string(),
                occurrences: field(v.get_usize("occurrences"))?,
                tasks: field(v.get_usize("tasks"))?,
                hits: field(v.get_usize("hits"))?,
                budget: field(v.get_usize("budget"))?,
                rounds: field(v.get_usize("rounds"))?,
                pilot: field(v.get_usize("pilot"))?,
            },
            "graph_round" => TraceEvent::GraphRound {
                round: field(v.get_usize("round"))?,
                allocated: field(v.get_usize("allocated"))?,
                spent: field(v.get_usize("spent"))?,
                network_seconds: field(v.get_f64("network_seconds"))?,
            },
            "run_summary" => TraceEvent::RunSummary {
                trials: field(v.get_usize("trials"))?,
                measurements: field(v.get_usize("measurements"))?,
                exploration_time_s: field(v.get_f64("exploration_time_s"))?,
                best_seconds: field(v.get_f64("best_seconds"))?,
                best_gflops: field(v.get_f64("best_gflops"))?,
                evaluated: field(v.get_usize("evaluated"))?,
                cache_hits: field(v.get_usize("cache_hits"))?,
                cache_misses: field(v.get_usize("cache_misses"))?,
                wall_s: field(v.get_f64("wall_s"))?,
            },
            other => {
                return Err(TraceError(format!("unknown record type `{other}`")));
            }
        };
        Ok(ev)
    }
}

/// Renders a canonical config key from its integer encoding (dot-joined).
pub fn config_key(encoding: &[i64]) -> String {
    let mut s = String::with_capacity(encoding.len() * 3);
    for (i, w) in encoding.iter().enumerate() {
        if i > 0 {
            s.push('.');
        }
        let _ = write!(s, "{w}");
    }
    s
}

/// Errors from parsing or replaying traces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceError(pub String);

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "trace error: {}", self.0)
    }
}

impl std::error::Error for TraceError {}

/// Where trace events go. Implementations must be thread-safe: the
/// drivers emit from the coordinating search thread, but sinks may be
/// shared across concurrent searches.
pub trait TraceSink: Send + Sync {
    /// Consumes one event.
    fn emit(&self, event: &TraceEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// A sink that drops every event (telemetry disabled).
#[derive(Debug, Clone, Copy, Default)]
pub struct NullSink;

impl TraceSink for NullSink {
    fn emit(&self, _event: &TraceEvent) {}
}

/// A sink that collects events in memory, for tests and programmatic
/// inspection.
#[derive(Debug, Default)]
pub struct MemorySink {
    events: Mutex<Vec<TraceEvent>>,
}

impl MemorySink {
    /// An empty sink.
    pub fn new() -> MemorySink {
        MemorySink::default()
    }

    /// A snapshot of every event recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events.lock().expect("memory sink poisoned").clone()
    }

    /// Number of events recorded.
    pub fn len(&self) -> usize {
        self.events.lock().expect("memory sink poisoned").len()
    }

    /// Whether no event has been recorded.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl TraceSink for MemorySink {
    fn emit(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("memory sink poisoned")
            .push(event.clone());
    }
}

/// A sink that appends one versioned JSONL record per event to a writer.
///
/// # Example: round-tripping a trace through JSONL
///
/// ```
/// use flextensor_telemetry::{read_jsonl, JsonlSink, TraceEvent, TraceSink};
///
/// let sink = JsonlSink::new(Vec::new());
/// let ev = TraceEvent::CandidateEvaluated {
///     trial: 3,
///     key: "4.4.2.1".into(),
///     seconds: Some(1.25e-3),
///     fresh: true,
/// };
/// sink.emit(&ev);
/// sink.emit(&ev.strip_wall_clock());
///
/// let bytes = sink.into_inner().unwrap();
/// let back = read_jsonl(&bytes[..]).unwrap();
/// assert_eq!(back, vec![ev.clone(), ev]);
/// ```
#[derive(Debug)]
pub struct JsonlSink<W: Write + Send> {
    writer: Mutex<W>,
}

impl<W: Write + Send> JsonlSink<W> {
    /// Wraps a writer. Each event becomes one line.
    pub fn new(writer: W) -> JsonlSink<W> {
        JsonlSink {
            writer: Mutex::new(writer),
        }
    }

    /// Flushes and returns the underlying writer.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the final flush, if any.
    pub fn into_inner(self) -> io::Result<W> {
        let mut w = self.writer.into_inner().expect("jsonl sink poisoned");
        w.flush()?;
        Ok(w)
    }
}

impl JsonlSink<io::BufWriter<std::fs::File>> {
    /// Creates (truncates) a trace file at `path`.
    ///
    /// # Errors
    ///
    /// Returns the error of the underlying file creation.
    pub fn create(path: impl AsRef<Path>) -> io::Result<Self> {
        Ok(JsonlSink::new(io::BufWriter::new(std::fs::File::create(
            path,
        )?)))
    }
}

impl<W: Write + Send> TraceSink for JsonlSink<W> {
    fn emit(&self, event: &TraceEvent) {
        let mut w = self.writer.lock().expect("jsonl sink poisoned");
        // Trace I/O is best-effort: a full disk should not kill a search.
        let _ = writeln!(w, "{}", event.to_jsonl());
    }

    fn flush(&self) {
        let _ = self.writer.lock().expect("jsonl sink poisoned").flush();
    }
}

/// Reads every event from line-delimited JSON (blank lines are skipped).
///
/// # Errors
///
/// Returns [`TraceError`] for I/O failures or the first malformed record,
/// tagged with its line number.
pub fn read_jsonl(reader: impl io::Read) -> Result<Vec<TraceEvent>, TraceError> {
    let mut events = Vec::new();
    for (lineno, line) in io::BufReader::new(reader).lines().enumerate() {
        let line = line.map_err(|e| TraceError(format!("line {}: {e}", lineno + 1)))?;
        if line.trim().is_empty() {
            continue;
        }
        let ev = TraceEvent::from_jsonl(&line)
            .map_err(|e| TraceError(format!("line {}: {}", lineno + 1, e.0)))?;
        events.push(ev);
    }
    Ok(events)
}

/// Reads a JSONL trace file.
///
/// # Errors
///
/// Returns [`TraceError`] when the file cannot be opened or a record is
/// malformed.
pub fn read_trace_file(path: impl AsRef<Path>) -> Result<Vec<TraceEvent>, TraceError> {
    let path = path.as_ref();
    let file = std::fs::File::open(path)
        .map_err(|e| TraceError(format!("cannot open {}: {e}", path.display())))?;
    read_jsonl(file)
}

/// The cheap, cloneable telemetry handle the search drivers carry.
///
/// Disabled by default ([`Telemetry::default`] drops every event without
/// even constructing it — guard expensive event construction with
/// [`Telemetry::is_enabled`]). Cloning shares the underlying sink.
#[derive(Clone, Default)]
pub struct Telemetry {
    sink: Option<Arc<dyn TraceSink>>,
}

impl Telemetry {
    /// A disabled handle (every event is dropped).
    pub fn null() -> Telemetry {
        Telemetry::default()
    }

    /// A handle emitting into a shared sink.
    pub fn new(sink: Arc<dyn TraceSink>) -> Telemetry {
        Telemetry { sink: Some(sink) }
    }

    /// A handle emitting into a freshly wrapped sink.
    pub fn to_sink(sink: impl TraceSink + 'static) -> Telemetry {
        Telemetry::new(Arc::new(sink))
    }

    /// Whether a sink is attached. Emission sites use this to skip event
    /// construction entirely when telemetry is off.
    pub fn is_enabled(&self) -> bool {
        self.sink.is_some()
    }

    /// Emits one event (no-op when disabled).
    pub fn emit(&self, event: TraceEvent) {
        if let Some(sink) = &self.sink {
            sink.emit(&event);
        }
    }

    /// Flushes the sink, if any.
    pub fn flush(&self) {
        if let Some(sink) = &self.sink {
            sink.flush();
        }
    }
}

// `Arc<dyn TraceSink>` has no Debug; keep the handle's Debug (required by
// the options structs that embed it) informative but trivial.
impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_events() -> Vec<TraceEvent> {
        vec![
            TraceEvent::RunStarted {
                method: "q-method".into(),
                seed: 0xF1E2_7E50,
                trials: 4,
                starts: 2,
                workers: 1,
                measure_overhead_s: 0.8,
                measure_repeats: 10,
                flops: 33_554_432,
            },
            TraceEvent::TrialStarted {
                trial: 0,
                starts: 3,
                wall_s: 0.25,
            },
            TraceEvent::CandidateEvaluated {
                trial: 0,
                key: "4.4.2.-1".into(),
                seconds: Some(1.5e-4),
                fresh: true,
            },
            TraceEvent::CandidateEvaluated {
                trial: 0,
                key: "1.1.1.1".into(),
                seconds: None,
                fresh: false,
            },
            TraceEvent::SaStep {
                trial: 1,
                temperature: 2.0,
                energy: 6666.6,
                accepted: false,
            },
            TraceEvent::QUpdate {
                trial: 5,
                loss: 0.0625,
                epsilon: 0.31,
                target_sync: true,
            },
            TraceEvent::PoolStats {
                trial: 1,
                evaluated: 12,
                cache_hits: 3,
                cache_misses: 12,
                cache_entries: 12,
                workers: 4,
                wall_s: 0.001,
            },
            TraceEvent::AnalyzerStats {
                trial: 1,
                pruned: 5,
            },
            TraceEvent::DeltaStats {
                trial: 1,
                delta_hits: 9,
                delta_full: 3,
            },
            TraceEvent::RegionStats {
                trial: 3,
                swept: 129,
                sweep_illegal: 63,
                sweep_pruned: 41,
                sweep_open: 25,
                sweep_truncated: false,
            },
            TraceEvent::DbStats {
                records: 17,
                hits: 4,
                misses: 9,
                warm_starts: 6,
                puts: 9,
                dropped: 2,
            },
            TraceEvent::SessionStats {
                session: "tenant-a".into(),
                submitted: 12,
                completed: 11,
                failed: 1,
                hits: 3,
                misses: 5,
                warm_starts: 4,
                coalesced: 3,
                queue_wait_s: 0.125,
            },
            TraceEvent::GraphPlan {
                network: "shuffle_unit".into(),
                occurrences: 10,
                tasks: 4,
                hits: 1,
                budget: 64,
                rounds: 3,
                pilot: 2,
            },
            TraceEvent::GraphRound {
                round: 1,
                allocated: 18,
                spent: 24,
                network_seconds: 0.0125,
            },
            TraceEvent::RunSummary {
                trials: 4,
                measurements: 12,
                exploration_time_s: 9.61,
                best_seconds: 1.5e-4,
                best_gflops: 223.7,
                evaluated: 12,
                cache_hits: 3,
                cache_misses: 12,
                wall_s: 0.5,
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_jsonl() {
        for ev in sample_events() {
            let line = ev.to_jsonl();
            assert!(
                line.starts_with(&format!("{{\"v\":{TRACE_VERSION},")),
                "{line}"
            );
            let back = TraceEvent::from_jsonl(&line).unwrap();
            assert_eq!(back, ev, "line: {line}");
        }
    }

    #[test]
    fn region_stats_written_with_the_live_gate_counters_still_parse() {
        let line = "{\"v\":1,\"type\":\"region_stats\",\"trial\":12,\"regions_analyzed\":51,\
                    \"region_pruned\":4,\"swept\":4096,\"sweep_illegal\":1968,\
                    \"sweep_pruned\":76,\"sweep_open\":9,\"sweep_truncated\":true}";
        assert_eq!(
            TraceEvent::from_jsonl(line).unwrap(),
            TraceEvent::RegionStats {
                trial: 12,
                swept: 4096,
                sweep_illegal: 1968,
                sweep_pruned: 76,
                sweep_open: 9,
                sweep_truncated: true,
            }
        );
    }

    #[test]
    fn newer_versions_are_rejected() {
        let line = sample_events()[0]
            .to_jsonl()
            .replace("{\"v\":1,", "{\"v\":999,");
        let err = TraceEvent::from_jsonl(&line).unwrap_err();
        assert!(err.0.contains("version 999"), "{err}");
    }

    #[test]
    fn strip_wall_clock_zeroes_only_wall_fields() {
        for ev in sample_events() {
            let stripped = ev.strip_wall_clock();
            match stripped {
                TraceEvent::TrialStarted { wall_s, .. }
                | TraceEvent::PoolStats { wall_s, .. }
                | TraceEvent::RunSummary { wall_s, .. } => assert_eq!(wall_s, 0.0),
                TraceEvent::SessionStats { queue_wait_s, .. } => assert_eq!(queue_wait_s, 0.0),
                other => assert_eq!(other, ev),
            }
        }
    }

    #[test]
    fn memory_sink_collects_in_order() {
        let sink = Arc::new(MemorySink::new());
        let tel = Telemetry::new(sink.clone());
        for ev in sample_events() {
            tel.emit(ev);
        }
        assert_eq!(sink.events(), sample_events());
        assert_eq!(sink.len(), sample_events().len());
    }

    #[test]
    fn null_telemetry_is_disabled() {
        let tel = Telemetry::null();
        assert!(!tel.is_enabled());
        tel.emit(sample_events()[0].clone()); // must not panic
        tel.flush();
        assert!(Telemetry::to_sink(NullSink).is_enabled());
    }

    #[test]
    fn jsonl_sink_round_trips_via_reader() {
        let sink = JsonlSink::new(Vec::new());
        for ev in sample_events() {
            sink.emit(&ev);
        }
        let bytes = sink.into_inner().unwrap();
        let back = read_jsonl(&bytes[..]).unwrap();
        assert_eq!(back, sample_events());
    }

    #[test]
    fn read_jsonl_reports_line_numbers() {
        let good = sample_events()[1].to_jsonl();
        let src = format!("{good}\n\nnot json\n");
        let err = read_jsonl(src.as_bytes()).unwrap_err();
        assert!(err.0.starts_with("line 3:"), "{err}");
    }

    #[test]
    fn config_key_formats_encodings() {
        assert_eq!(config_key(&[4, 4, 2, -1]), "4.4.2.-1");
        assert_eq!(config_key(&[]), "");
    }
}
