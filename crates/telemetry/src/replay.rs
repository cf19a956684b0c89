//! Deterministic trace replay.
//!
//! A recorded trace contains everything the drivers used for their
//! bookkeeping: per-candidate costs in absorption order, the
//! time-accounting parameters, and cumulative pool statistics. Replaying
//! folds the event stream with *exactly the same floating-point
//! operations, in the same order*, as the live run — so the recomputed
//! [`TraceEvent::RunSummary`] is bit-identical to the recorded one (the
//! real-time `wall_s` field is a pass-through; it cannot be recomputed
//! offline). A mismatch means the trace was truncated, edited, or
//! produced by an incompatible writer.
//!
//! The best-cost fold is method-dependent, mirroring the drivers: the
//! explore drivers (`q-method`, `p-method`, `random-walk`) maximize
//! throughput `E = 1/seconds` and report `1/E*`, while the AutoTVM
//! baseline (`autotvm`) minimizes seconds directly.

use crate::{TraceError, TraceEvent};

/// Run parameters recovered from [`TraceEvent::RunStarted`].
#[derive(Debug, Clone, PartialEq)]
pub struct RunParams {
    /// Driver name (`q-method`, `p-method`, `random-walk`, `autotvm`).
    pub method: String,
    /// RNG seed of the run.
    pub seed: u64,
    /// Trial / round budget.
    pub trials: usize,
    /// Starting points (or batch size) per trial.
    pub starts: usize,
    /// Resolved evaluation worker threads.
    pub workers: usize,
    /// Modeled compile+measure overhead per fresh evaluation, seconds.
    pub measure_overhead_s: f64,
    /// Kernel repetitions per measurement.
    pub measure_repeats: u32,
    /// FLOPs of the computation.
    pub flops: u64,
}

/// One point of the replayed convergence curve (closed at each trial
/// boundary).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CurvePoint {
    /// Trial index (0 = seeding phase).
    pub trial: usize,
    /// Best kernel time at the end of the trial, seconds (∞ while no
    /// feasible point has been found).
    pub best_seconds: f64,
    /// Best throughput at the end of the trial, GFLOP/s.
    pub best_gflops: f64,
}

/// SA acceptance statistics for one phase of the run (the trial budget
/// split in thirds).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseAcceptance {
    /// Moves that improved on their starting point.
    pub accepted: usize,
    /// Total moves in the phase.
    pub total: usize,
}

impl PhaseAcceptance {
    /// Accepted fraction (0 when the phase saw no moves).
    pub fn rate(&self) -> f64 {
        if self.total == 0 {
            0.0
        } else {
            self.accepted as f64 / self.total as f64
        }
    }
}

/// Names of the three acceptance phases, index-aligned with
/// [`Replay::acceptance`].
pub const PHASE_NAMES: [&str; 3] = ["early", "mid", "late"];

/// One replayed Q-network training round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QPoint {
    /// Trial after which training ran.
    pub trial: usize,
    /// Minibatch loss.
    pub loss: f64,
    /// ε at that point of the anneal.
    pub epsilon: f64,
}

/// Everything recovered by replaying one recorded run.
#[derive(Debug, Clone, PartialEq)]
pub struct Replay {
    /// The run's parameters.
    pub run: RunParams,
    /// Convergence curve, one point per trial boundary.
    pub curve: Vec<CurvePoint>,
    /// SA acceptance statistics by phase (early / mid / late third of the
    /// trial budget).
    pub acceptance: [PhaseAcceptance; 3],
    /// Wall-clock seconds spent in each trial, from the recorded
    /// timestamps.
    pub per_trial_wall_s: Vec<(usize, f64)>,
    /// Q-network training rounds, in order.
    pub q_updates: Vec<QPoint>,
    /// The last recorded pool statistics, if any.
    pub pool: Option<TraceEvent>,
    /// The last recorded analyzer-gate statistics, if any (only present
    /// in traces of gate-enabled runs).
    pub analyzer: Option<TraceEvent>,
    /// The last recorded incremental-evaluation statistics, if any (only
    /// present in traces recorded while delta evaluation was an opt-in).
    pub delta: Option<TraceEvent>,
    /// The recorded region certification-sweep statistics, if any (only
    /// present in traces recorded while the sweep existed).
    pub region: Option<TraceEvent>,
    /// The last recorded schedule-database statistics, if any (only
    /// present in traces emitted through the session server).
    pub db: Option<TraceEvent>,
    /// Per-session server statistics, in emission order (empty for
    /// plain search traces).
    pub sessions: Vec<TraceEvent>,
    /// The last recorded graph-level tuning plan, if any (only present
    /// in traces emitted by `flextensor-graph` drivers).
    pub graph_plan: Option<TraceEvent>,
    /// Graph-level budget rounds, in emission order (empty for
    /// single-op traces).
    pub graph_rounds: Vec<TraceEvent>,
    /// The `RunSummary` as recorded by the live run.
    pub recorded: TraceEvent,
    /// The `RunSummary` recomputed from the event stream (with the
    /// pass-through `wall_s` copied from the recorded one).
    pub replayed: TraceEvent,
}

impl Replay {
    /// Whether the replayed summary reproduces the recorded one exactly
    /// (bit-for-bit on every recomputed field).
    pub fn summary_matches(&self) -> bool {
        self.recorded == self.replayed
    }
}

/// Replays a recorded event stream.
///
/// # Errors
///
/// Returns [`TraceError`] when the trace has no `run_started` record, no
/// `run_summary` record, or contains more than one run.
pub fn replay(events: &[TraceEvent]) -> Result<Replay, TraceError> {
    let mut run: Option<RunParams> = None;
    let mut recorded: Option<TraceEvent> = None;

    // Best-cost folds (see module docs for why there are two).
    let mut best_e: Option<f64> = None; // explore drivers: max throughput
    let mut best_s: Option<f64> = None; // autotvm: min seconds
    let mut measurements = 0usize;
    let mut time_s = 0.0f64;

    let mut curve: Vec<CurvePoint> = Vec::new();
    let mut acceptance = [PhaseAcceptance::default(); 3];
    let mut per_trial_wall: Vec<(usize, f64)> = Vec::new();
    let mut q_updates: Vec<QPoint> = Vec::new();
    let mut pool: Option<TraceEvent> = None;
    let mut analyzer: Option<TraceEvent> = None;
    let mut delta: Option<TraceEvent> = None;
    let mut region: Option<TraceEvent> = None;
    let mut db: Option<TraceEvent> = None;
    let mut sessions: Vec<TraceEvent> = Vec::new();
    let mut graph_plan: Option<TraceEvent> = None;
    let mut graph_rounds: Vec<TraceEvent> = Vec::new();
    let mut open_trial: Option<(usize, f64)> = None; // (trial, start wall_s)
    let mut max_trial = 0usize;

    for ev in events {
        match ev {
            TraceEvent::RunStarted { .. } => {
                if run.is_some() {
                    return Err(TraceError(
                        "trace contains more than one run (second run_started record)".into(),
                    ));
                }
                if let TraceEvent::RunStarted {
                    method,
                    seed,
                    trials,
                    starts,
                    workers,
                    measure_overhead_s,
                    measure_repeats,
                    flops,
                } = ev
                {
                    run = Some(RunParams {
                        method: method.clone(),
                        seed: *seed,
                        trials: *trials,
                        starts: *starts,
                        workers: *workers,
                        measure_overhead_s: *measure_overhead_s,
                        measure_repeats: *measure_repeats,
                        flops: *flops,
                    });
                }
            }
            TraceEvent::TrialStarted { trial, wall_s, .. } => {
                let p = run
                    .as_ref()
                    .ok_or_else(|| TraceError("trial_started before run_started".into()))?;
                if let Some((prev, start)) = open_trial.take() {
                    curve.push(curve_point(prev, best_e, best_s, p));
                    per_trial_wall.push((prev, (wall_s - start).max(0.0)));
                }
                open_trial = Some((*trial, *wall_s));
                max_trial = max_trial.max(*trial);
            }
            TraceEvent::CandidateEvaluated { seconds, fresh, .. } => {
                let p = run
                    .as_ref()
                    .ok_or_else(|| TraceError("candidate_evaluated before run_started".into()))?;
                // Mirror of the drivers' time accounting, same op order.
                if *fresh {
                    measurements += 1;
                    time_s += p.measure_overhead_s;
                    if let Some(s) = seconds {
                        time_s += p.measure_repeats as f64 * s;
                    }
                }
                if p.method == "autotvm" {
                    if let Some(s) = seconds {
                        if best_s.is_none_or(|b| *s < b) {
                            best_s = Some(*s);
                        }
                    }
                } else {
                    let e = match seconds {
                        Some(s) => 1.0 / s,
                        None => 0.0,
                    };
                    if e > 0.0 && best_e.is_none_or(|b| e > b) {
                        best_e = Some(e);
                    }
                }
            }
            TraceEvent::SaStep {
                trial, accepted, ..
            } => {
                let budget = run.as_ref().map_or(0, |p| p.trials);
                let slot = phase_of(*trial, budget);
                acceptance[slot].total += 1;
                if *accepted {
                    acceptance[slot].accepted += 1;
                }
            }
            TraceEvent::QUpdate {
                trial,
                loss,
                epsilon,
                ..
            } => q_updates.push(QPoint {
                trial: *trial,
                loss: *loss,
                epsilon: *epsilon,
            }),
            TraceEvent::PoolStats { .. } => pool = Some(ev.clone()),
            TraceEvent::AnalyzerStats { .. } => analyzer = Some(ev.clone()),
            TraceEvent::DeltaStats { .. } => delta = Some(ev.clone()),
            TraceEvent::RegionStats { .. } => region = Some(ev.clone()),
            TraceEvent::DbStats { .. } => db = Some(ev.clone()),
            TraceEvent::SessionStats { .. } => sessions.push(ev.clone()),
            TraceEvent::GraphPlan { .. } => graph_plan = Some(ev.clone()),
            TraceEvent::GraphRound { .. } => graph_rounds.push(ev.clone()),
            TraceEvent::RunSummary { .. } => {
                if recorded.is_some() {
                    return Err(TraceError(
                        "trace contains more than one run_summary record".into(),
                    ));
                }
                recorded = Some(ev.clone());
            }
        }
    }

    let run = run.ok_or_else(|| TraceError("trace has no run_started record".into()))?;
    let recorded = recorded.ok_or_else(|| TraceError("trace has no run_summary record".into()))?;

    // Close the last open trial against the run's final timestamp.
    let final_wall = match &recorded {
        TraceEvent::RunSummary { wall_s, .. } => *wall_s,
        _ => unreachable!("recorded is a run_summary"),
    };
    if let Some((prev, start)) = open_trial.take() {
        curve.push(curve_point(prev, best_e, best_s, &run));
        per_trial_wall.push((prev, (final_wall - start).max(0.0)));
    }

    let (evaluated, cache_hits, cache_misses) = match &pool {
        Some(TraceEvent::PoolStats {
            evaluated,
            cache_hits,
            cache_misses,
            ..
        }) => (*evaluated, *cache_hits, *cache_misses),
        _ => (0, 0, 0),
    };
    let last = curve_point(max_trial, best_e, best_s, &run);
    let replayed = TraceEvent::RunSummary {
        trials: max_trial,
        measurements,
        exploration_time_s: time_s,
        best_seconds: last.best_seconds,
        best_gflops: last.best_gflops,
        evaluated,
        cache_hits,
        cache_misses,
        wall_s: final_wall, // pass-through: not recomputable offline
    };

    Ok(Replay {
        run,
        curve,
        acceptance,
        per_trial_wall_s: per_trial_wall,
        q_updates,
        pool,
        analyzer,
        delta,
        region,
        db,
        sessions,
        graph_plan,
        graph_rounds,
        recorded,
        replayed,
    })
}

/// Which acceptance phase a trial belongs to, splitting the budget in
/// thirds (trial 1 is the first exploration trial).
fn phase_of(trial: usize, budget: usize) -> usize {
    if budget == 0 {
        return 0;
    }
    ((trial.saturating_sub(1)) * 3 / budget).min(2)
}

fn curve_point(
    trial: usize,
    best_e: Option<f64>,
    best_s: Option<f64>,
    run: &RunParams,
) -> CurvePoint {
    // The same arithmetic the drivers use to produce their summaries:
    // explore drivers report 1/E*, the tuner reports min seconds.
    let best_seconds = if run.method == "autotvm" {
        best_s.unwrap_or(f64::INFINITY)
    } else {
        match best_e {
            Some(e) => 1.0 / e,
            None => f64::INFINITY,
        }
    };
    let best_gflops = if best_seconds.is_finite() {
        run.flops as f64 / best_seconds / 1e9
    } else {
        0.0
    };
    CurvePoint {
        trial,
        best_seconds,
        best_gflops,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mini_trace() -> Vec<TraceEvent> {
        let flops = 2_000_000_000u64; // 2 GFLOP, so 1 ms ⇒ 2000 GFLOP/s
        vec![
            TraceEvent::RunStarted {
                method: "p-method".into(),
                seed: 7,
                trials: 2,
                starts: 1,
                workers: 1,
                measure_overhead_s: 0.5,
                measure_repeats: 2,
                flops,
            },
            TraceEvent::TrialStarted {
                trial: 0,
                starts: 2,
                wall_s: 0.0,
            },
            TraceEvent::CandidateEvaluated {
                trial: 0,
                key: "1".into(),
                seconds: Some(2e-3),
                fresh: true,
            },
            TraceEvent::CandidateEvaluated {
                trial: 0,
                key: "2".into(),
                seconds: None,
                fresh: true,
            },
            TraceEvent::TrialStarted {
                trial: 1,
                starts: 1,
                wall_s: 0.25,
            },
            TraceEvent::CandidateEvaluated {
                trial: 1,
                key: "3".into(),
                seconds: Some(1e-3),
                fresh: true,
            },
            TraceEvent::SaStep {
                trial: 1,
                temperature: 2.0,
                energy: 1000.0,
                accepted: true,
            },
            TraceEvent::PoolStats {
                trial: 1,
                evaluated: 3,
                cache_hits: 0,
                cache_misses: 3,
                cache_entries: 3,
                workers: 1,
                wall_s: 0.3,
            },
            TraceEvent::TrialStarted {
                trial: 2,
                starts: 1,
                wall_s: 0.5,
            },
            TraceEvent::CandidateEvaluated {
                trial: 2,
                key: "3".into(),
                seconds: Some(1e-3),
                fresh: false,
            },
            TraceEvent::SaStep {
                trial: 2,
                temperature: 2.0,
                energy: 1000.0,
                accepted: false,
            },
            TraceEvent::PoolStats {
                trial: 2,
                evaluated: 3,
                cache_hits: 1,
                cache_misses: 3,
                cache_entries: 3,
                workers: 1,
                wall_s: 0.55,
            },
            TraceEvent::RunSummary {
                trials: 2,
                measurements: 3,
                // 3 × overhead + repeats × kernel time, summed in
                // absorption order (the fold is order-sensitive in f64).
                exploration_time_s: 0.5 + 2.0 * 2e-3 + 0.5 + 0.5 + 2.0 * 1e-3,
                best_seconds: 1.0 / (1.0 / 1e-3),
                best_gflops: 2_000_000_000.0 / (1.0 / (1.0 / 1e-3)) / 1e9,
                evaluated: 3,
                cache_hits: 1,
                cache_misses: 3,
                wall_s: 0.75,
            },
        ]
    }

    #[test]
    fn replay_reproduces_the_recorded_summary() {
        let r = replay(&mini_trace()).unwrap();
        assert!(r.summary_matches(), "{:#?}", r);
    }

    #[test]
    fn replay_recovers_curve_and_acceptance() {
        let r = replay(&mini_trace()).unwrap();
        assert_eq!(r.curve.len(), 3);
        assert_eq!(r.curve[0].trial, 0);
        assert_eq!(r.curve[0].best_seconds, 2e-3);
        assert_eq!(r.curve[2].best_seconds, 1e-3);
        // trial 1 of a 2-trial budget → early; trial 2 → mid.
        assert_eq!(r.acceptance[0].accepted, 1);
        assert_eq!(r.acceptance[0].total, 1);
        assert_eq!(r.acceptance[1].total, 1);
        assert_eq!(r.acceptance[1].accepted, 0);
        assert_eq!(r.per_trial_wall_s.len(), 3);
        assert!((r.per_trial_wall_s[1].1 - 0.25).abs() < 1e-12);
    }

    #[test]
    fn analyzer_stats_are_captured_without_affecting_the_fold() {
        let mut events = mini_trace();
        let summary_at = events.len() - 1;
        events.insert(
            summary_at,
            TraceEvent::AnalyzerStats {
                trial: 2,
                pruned: 4,
            },
        );
        let r = replay(&events).unwrap();
        assert!(r.summary_matches(), "{:#?}", r);
        assert_eq!(
            r.analyzer,
            Some(TraceEvent::AnalyzerStats {
                trial: 2,
                pruned: 4,
            })
        );
        // Ungated traces carry no analyzer record at all.
        assert_eq!(replay(&mini_trace()).unwrap().analyzer, None);
    }

    #[test]
    fn delta_stats_are_captured_without_affecting_the_fold() {
        let mut events = mini_trace();
        let summary_at = events.len() - 1;
        events.insert(
            summary_at,
            TraceEvent::DeltaStats {
                trial: 2,
                delta_hits: 5,
                delta_full: 2,
            },
        );
        let r = replay(&events).unwrap();
        assert!(r.summary_matches(), "{:#?}", r);
        assert_eq!(
            r.delta,
            Some(TraceEvent::DeltaStats {
                trial: 2,
                delta_hits: 5,
                delta_full: 2,
            })
        );
        // Non-delta traces carry no delta record at all.
        assert_eq!(replay(&mini_trace()).unwrap().delta, None);
    }

    #[test]
    fn region_stats_are_captured_without_affecting_the_fold() {
        let mut events = mini_trace();
        let summary_at = events.len() - 1;
        let stats = TraceEvent::RegionStats {
            trial: 2,
            swept: 17,
            sweep_illegal: 9,
            sweep_pruned: 5,
            sweep_open: 3,
            sweep_truncated: false,
        };
        events.insert(summary_at, stats.clone());
        let r = replay(&events).unwrap();
        assert!(r.summary_matches(), "{:#?}", r);
        assert_eq!(r.region, Some(stats));
        // Ungated traces carry no region record at all.
        assert_eq!(replay(&mini_trace()).unwrap().region, None);
    }

    #[test]
    fn server_stats_are_captured_without_affecting_the_fold() {
        let mut events = mini_trace();
        let summary_at = events.len() - 1;
        let db = TraceEvent::DbStats {
            records: 3,
            hits: 1,
            misses: 2,
            warm_starts: 1,
            puts: 2,
            dropped: 0,
        };
        let sess = TraceEvent::SessionStats {
            session: "a".into(),
            submitted: 2,
            completed: 2,
            failed: 0,
            hits: 1,
            misses: 1,
            warm_starts: 1,
            coalesced: 0,
            queue_wait_s: 0.01,
        };
        events.insert(summary_at, db.clone());
        events.insert(summary_at + 1, sess.clone());
        let r = replay(&events).unwrap();
        assert!(r.summary_matches(), "{:#?}", r);
        assert_eq!(r.db, Some(db));
        assert_eq!(r.sessions, vec![sess]);
        // Plain search traces carry neither.
        let plain = replay(&mini_trace()).unwrap();
        assert_eq!(plain.db, None);
        assert!(plain.sessions.is_empty());
    }

    #[test]
    fn graph_events_are_captured_without_affecting_the_fold() {
        let mut events = mini_trace();
        let summary_at = events.len() - 1;
        let plan = TraceEvent::GraphPlan {
            network: "net".into(),
            occurrences: 6,
            tasks: 3,
            hits: 1,
            budget: 40,
            rounds: 2,
            pilot: 2,
        };
        let r0 = TraceEvent::GraphRound {
            round: 0,
            allocated: 4,
            spent: 4,
            network_seconds: 0.5,
        };
        let r1 = TraceEvent::GraphRound {
            round: 1,
            allocated: 18,
            spent: 22,
            network_seconds: 0.25,
        };
        events.insert(summary_at, plan.clone());
        events.insert(summary_at + 1, r0.clone());
        events.insert(summary_at + 2, r1.clone());
        let r = replay(&events).unwrap();
        assert!(r.summary_matches(), "{:#?}", r);
        assert_eq!(r.graph_plan, Some(plan));
        assert_eq!(r.graph_rounds, vec![r0, r1]);
        // Single-op traces carry neither.
        let plain = replay(&mini_trace()).unwrap();
        assert_eq!(plain.graph_plan, None);
        assert!(plain.graph_rounds.is_empty());
    }

    #[test]
    fn tampered_trace_is_detected() {
        let mut events = mini_trace();
        // Drop one fresh evaluation: measurements and time no longer add up.
        events.remove(2);
        let r = replay(&events).unwrap();
        assert!(!r.summary_matches());
    }

    #[test]
    fn missing_records_error() {
        let events = mini_trace();
        assert!(replay(&events[..events.len() - 1])
            .unwrap_err()
            .0
            .contains("no run_summary"));
        assert!(replay(&events[1..])
            .unwrap_err()
            .0
            .contains("before run_started"));
        assert!(replay(&[]).unwrap_err().0.contains("no run_started"));
    }

    #[test]
    fn autotvm_fold_minimizes_seconds() {
        let mut events = mini_trace();
        if let TraceEvent::RunStarted { method, .. } = &mut events[0] {
            *method = "autotvm".into();
        }
        // Same numbers: min-seconds and 1/max-throughput agree here.
        let r = replay(&events).unwrap();
        assert!(r.summary_matches(), "{:#?}", r);
    }

    #[test]
    fn phase_split_covers_budget() {
        assert_eq!(phase_of(1, 9), 0);
        assert_eq!(phase_of(3, 9), 0);
        assert_eq!(phase_of(4, 9), 1);
        assert_eq!(phase_of(6, 9), 1);
        assert_eq!(phase_of(7, 9), 2);
        assert_eq!(phase_of(9, 9), 2);
        assert_eq!(phase_of(12, 9), 2); // beyond budget clamps to late
        assert_eq!(phase_of(1, 0), 0);
    }
}
