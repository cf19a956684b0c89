//! The exploration drivers: Q-method, P-method, and a random-walk
//! ablation (§5.1, §6.5).
//!
//! All three share one loop — evaluate seeds, then repeatedly (a) pick
//! starting points from `H` with the simulated-annealing rule and (b) move
//! each along direction(s) — and differ only in *how directions are
//! chosen*:
//!
//! * **Q-method** — query the Q-network for the single best direction per
//!   starting point (the paper's contribution);
//! * **P-method** — try *every* applicable direction of every starting
//!   point (the exhaustive-neighborhood baseline of §6.5);
//! * **RandomWalk** — one uniformly random applicable direction
//!   (an ablation isolating the value of learned direction choice).
//!
//! Exploration-*time* accounting models the real system's measurement
//! cost: each evaluated point costs `measure_overhead_s` (compile + launch,
//! ≤ 1 s per §5.2) plus a few timed repetitions of the kernel.
//!
//! Neighbors are proposed in key space: each selected start is encoded
//! once ([`NodeConfig::encode`]), every direction's neighbor is derived
//! from those words ([`Space::apply_words`]), and whether it is fresh is
//! a probe of the history by words and their hash
//! ([`History::contains_hashed`]). A `NodeConfig` is built only for the
//! neighbors a method chooses: one per start for the Q-method and the
//! random walk, every fresh one for the P-method. The chosen neighbors'
//! words and hashes go into one [`KeyBatch`], which the pool and then the
//! history use as they are: each candidate's key is built and hashed once.
//!
//! Candidate evaluation is *batched*: each trial first builds its full
//! candidate list (all starts, all chosen directions), then hands it to an
//! [`EvalPool`], which fans fresh points out over `eval_workers` threads.
//! The history is the memo: only points absent from it are proposed, so
//! the pool keeps no memo of its own and resolves only duplicates within
//! a batch. Results reduce in fixed candidate order, so the search is
//! bit-for-bit deterministic in the worker count; only wall-clock time
//! changes.

use std::time::Instant;

use flextensor_ir::graph::Graph;
use flextensor_schedule::config::NodeConfig;
use flextensor_sim::model::{Cost, Evaluator};
use flextensor_telemetry::{config_key, Telemetry, TraceEvent};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::pool::{hash_key, EvalOutcome, EvalPool, EvalStats, KeyBatch};
use crate::qlearn::{QAgent, SearchInFlight, Transition};
use crate::sa::History;
use crate::space::Space;

/// Direction-selection strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Method {
    /// Q-learning guided single direction per start (the paper's method).
    QMethod,
    /// All applicable directions per start (§6.5's P-method).
    PMethod,
    /// One random applicable direction per start (ablation).
    RandomWalk,
}

impl Method {
    /// The stable lower-case name used in trace records (the `method`
    /// field of [`TraceEvent::RunStarted`]); replay keys its best-cost
    /// fold on it.
    pub fn slug(&self) -> &'static str {
        match self {
            Method::QMethod => "q-method",
            Method::PMethod => "p-method",
            Method::RandomWalk => "random-walk",
        }
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Method::QMethod => "Q-method",
            Method::PMethod => "P-method",
            Method::RandomWalk => "random-walk",
        };
        f.write_str(s)
    }
}

/// Exploration hyperparameters.
#[derive(Debug, Clone)]
pub struct SearchOptions {
    /// Number of exploration trials (steps).
    pub trials: usize,
    /// Starting points selected per trial (user-settable per §5.1).
    pub starts: usize,
    /// SA temperature γ.
    pub gamma: f64,
    /// Random seeds sampled before exploration begins.
    pub initial_samples: usize,
    /// RNG seed (everything is deterministic given this).
    pub seed: u64,
    /// Modeled compile+measure overhead per on-device evaluation, seconds.
    pub measure_overhead_s: f64,
    /// Kernel repetitions per measurement.
    pub measure_repeats: u32,
    /// Stop early once the best time reaches this many seconds.
    pub stop_when_seconds: Option<f64>,
    /// Evaluation worker threads per candidate batch (1 = serial on the
    /// calling thread, 0 = all available cores). Results are identical
    /// for every value; only wall-clock time changes.
    pub eval_workers: usize,
    /// Has no effect. The search's history holds every point it
    /// evaluated and the search never proposes one of those again, so its
    /// evaluation pool keeps no memo. The field is kept only because the
    /// frozen repository benchmark reads it (to size the memo of its own
    /// pool), and goes with the next change to that benchmark.
    pub cache_capacity: usize,
    /// Statically prune candidates the analyzer proves infeasible
    /// (`flextensor-analyze`'s feature-level legality rules) before the
    /// cost model runs. The analyzer's soundness contract guarantees the
    /// best configuration and cost are identical either way; pruned
    /// candidates skip the modeled measurement cost, and their tally shows
    /// up in [`EvalStats::pruned`] and `analyzer_stats` trace records.
    pub analyzer_gate: bool,
    /// Has no effect. Every trial batch is evaluated incrementally from
    /// its starting points ([`EvalPool::evaluate_batch_delta`]). The field
    /// is kept only because the frozen repository benchmark names it, and
    /// goes with the next change to that benchmark.
    pub delta_eval: bool,
    /// Has no effect. The search keeps no region analysis. The field is
    /// kept only because the frozen repository benchmark names it, and
    /// goes with the next change to that benchmark.
    pub region_gate: bool,
    /// Structured trace sink (disabled by default). When enabled, the
    /// search emits the full event stream of `docs/TRACE_FORMAT.md`:
    /// trial lifecycle, every absorbed candidate, SA moves, Q-network
    /// training rounds, pool statistics, and a final run summary that a
    /// recorded trace replays to bit-for-bit.
    pub telemetry: Telemetry,
    /// Warm-start seed configurations (canonical integer encodings),
    /// typically the nearest-shape neighbor's best configs from a
    /// `flextensor-tunedb` database. Each encoding is adapted onto this
    /// op ([`crate::warm::adapt_encoding`]) and joins the trial-0 seed
    /// batch *after* the naive point and the random samples, so a
    /// warm-started run draws the identical RNG sequence as a cold one.
    /// Unadaptable encodings are skipped.
    pub warm_start: Vec<Vec<i64>>,
    /// Embeds this search as a slice of a larger trial budget:
    /// `(prior_trials, total_trials)`. The Q-method's ε-greedy anneal
    /// normally tracks `trial / trials`; with a window set it tracks
    /// `(prior_trials + trial) / total_trials` instead, so a caller that
    /// splits one budget into warm-started rounds (the
    /// `flextensor-graph` dispatcher) anneals across the *whole* budget
    /// rather than restarting ε every round. `None` (the default) leaves
    /// every existing search bit-identical. P-method and random-walk
    /// draws never depend on the budget, so the window only affects the
    /// Q-method.
    pub anneal_window: Option<(usize, usize)>,
}

impl Default for SearchOptions {
    fn default() -> SearchOptions {
        SearchOptions {
            trials: 100,
            starts: 8,
            gamma: 2.0,
            initial_samples: 16,
            seed: 0xF1E2_7E50,
            measure_overhead_s: 0.8,
            measure_repeats: 10,
            stop_when_seconds: None,
            eval_workers: 1,
            cache_capacity: 1 << 20,
            analyzer_gate: false,
            delta_eval: false,
            region_gate: false,
            telemetry: Telemetry::null(),
            warm_start: Vec::new(),
            anneal_window: None,
        }
    }
}

/// One point of the convergence trace (drives Figs. 6d and 7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// Trial index.
    pub trial: usize,
    /// Cumulative on-device measurements so far.
    pub measurements: usize,
    /// Cumulative modeled exploration time, seconds.
    pub exploration_time_s: f64,
    /// Best kernel time found so far, seconds.
    pub best_seconds: f64,
    /// Best throughput found so far, GFLOP/s.
    pub best_gflops: f64,
}

/// Result of one exploration run.
#[derive(Debug, Clone)]
pub struct SearchResult {
    /// Best configuration found.
    pub best: NodeConfig,
    /// Its cost.
    pub best_cost: Cost,
    /// Convergence trace, one point per trial.
    pub trace: Vec<TracePoint>,
    /// Total on-device measurements performed.
    pub measurements: usize,
    /// Total modeled exploration time, seconds.
    pub exploration_time_s: f64,
    /// Size of the explored schedule space (points).
    pub space_size: f64,
    /// Evaluation-layer statistics: fresh evaluations, cache hit rate,
    /// worker count, and real wall-clock spent evaluating.
    pub eval_stats: EvalStats,
    /// Warm-start encodings that were successfully adapted and absorbed
    /// into the trial-0 seed batch (0 for cold searches).
    pub warm_seeds: usize,
}

/// Errors from exploration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SearchError(pub String);

impl std::fmt::Display for SearchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "search failed: {}", self.0)
    }
}

impl std::error::Error for SearchError {}

struct Driver<'a> {
    graph: &'a Graph,
    pool: EvalPool,
    space: Space,
    history: History,
    measurements: usize,
    time_s: f64,
    opts: SearchOptions,
    clock: Instant,
}

impl<'a> Driver<'a> {
    /// Folds one batched evaluation outcome into `H` and the time
    /// accounting, and logs the candidate, given by its key `i` in
    /// `keys`. Only *fresh* outcomes (the pool actually ran the
    /// evaluator) count as on-device measurements; in-batch duplicates
    /// cost zero modeled time, and so do candidates the analyzer gate
    /// pruned — no kernel was ever compiled or launched for them. Returns
    /// the performance value `E` (0 for infeasible).
    fn absorb(&mut self, trial: usize, keys: &KeyBatch, i: usize, outcome: EvalOutcome) -> f64 {
        let measured = outcome.fresh && !outcome.pruned;
        if measured {
            self.measurements += 1;
            self.time_s += self.opts.measure_overhead_s;
            if let Some(c) = outcome.cost {
                self.time_s += self.opts.measure_repeats as f64 * c.seconds;
            }
            // An infeasible point (compile / launch failure) still costs
            // the overhead, but has no kernel time to repeat.
        }
        if self.opts.telemetry.is_enabled() {
            // Pruned candidates log as non-fresh: replay's time fold bills
            // `fresh` records, and pruned points cost nothing.
            self.opts.telemetry.emit(TraceEvent::CandidateEvaluated {
                trial,
                key: config_key(keys.key(i)),
                seconds: outcome.cost.map(|c| c.seconds),
                fresh: measured,
            });
        }
        let e = match outcome.cost {
            Some(c) => 1.0 / c.seconds,
            None => 0.0,
        };
        self.history
            .record_key(self.space.layout(), keys.key(i), keys.hash(i), e);
        e
    }

    /// Wall-clock seconds since the run began (trace timestamps).
    fn wall_s(&self) -> f64 {
        self.clock.elapsed().as_secs_f64()
    }

    fn trace_point(&self, trial: usize) -> TracePoint {
        let (best_seconds, best_gflops) = match self.history.best() {
            Some((_, e)) if e > 0.0 => {
                let s = 1.0 / e;
                (s, self.graph.flops() as f64 / s / 1e9)
            }
            _ => (f64::INFINITY, 0.0),
        };
        TracePoint {
            trial,
            measurements: self.measurements,
            exploration_time_s: self.time_s,
            best_seconds,
            best_gflops,
        }
    }

    fn reached_target(&self) -> bool {
        match (self.opts.stop_when_seconds, self.history.best()) {
            (Some(target), Some((_, e))) if e > 0.0 => 1.0 / e <= target,
            _ => false,
        }
    }
}

/// Runs schedule exploration for a graph on a device model.
///
/// # Errors
///
/// Returns [`SearchError`] when no feasible point is found within the
/// budget (pathological spaces only).
pub fn search(
    graph: &Graph,
    evaluator: &Evaluator,
    method: Method,
    opts: &SearchOptions,
) -> Result<SearchResult, SearchError> {
    let _in_flight = SearchInFlight::enter();
    let space = Space::new(graph, evaluator.target());
    let space_size = space.size();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut agent = match method {
        Method::QMethod => Some(QAgent::new(
            space.feature_dim(),
            space.directions().len(),
            &mut rng,
        )),
        _ => None,
    };

    let mut d = Driver {
        graph,
        // No memo (capacity 0): the history answers for every point
        // already evaluated.
        pool: if opts.analyzer_gate {
            EvalPool::new_gated(graph, evaluator, opts.eval_workers, 0)
        } else {
            EvalPool::new(graph, evaluator, opts.eval_workers, 0)
        },
        space,
        history: History::new(),
        measurements: 0,
        time_s: 0.0,
        opts: opts.clone(),
        clock: Instant::now(),
    };
    let tel = opts.telemetry.clone();
    tel.emit(TraceEvent::RunStarted {
        method: method.slug().to_string(),
        seed: opts.seed,
        trials: opts.trials,
        starts: opts.starts,
        workers: d.pool.workers(),
        measure_overhead_s: opts.measure_overhead_s,
        measure_repeats: opts.measure_repeats,
        flops: graph.flops(),
    });

    // Seed the history: the naive point plus random samples, evaluated as
    // one batch (duplicate draws resolve as in-batch cache hits). The
    // trace logs the seeding phase as trial 0.
    let mut seeds = vec![d.space.start_point().clone()];
    for _ in 0..opts.initial_samples {
        seeds.push(d.space.random_point(&mut rng));
    }
    // Warm-start seeds join *after* the random draws, so the RNG sequence
    // (and hence every cold-path decision) is unchanged by their presence.
    let mut warm_seeds = 0usize;
    for enc in &opts.warm_start {
        if let Some(cfg) = crate::warm::adapt_encoding(d.space.op(), enc) {
            if !seeds.contains(&cfg) {
                seeds.push(cfg);
                warm_seeds += 1;
            }
        }
    }
    tel.emit(TraceEvent::TrialStarted {
        trial: 0,
        starts: seeds.len(),
        wall_s: d.wall_s(),
    });
    let outcomes = d.pool.evaluate_batch(&seeds);
    d.pool.emit_stats(&tel, 0);
    // Each candidate's key, built once: the seeds' here, each trial's
    // while proposing (one buffer, reused).
    let mut keys = KeyBatch::default();
    for cfg in &seeds {
        keys.push_config(cfg);
    }
    for (i, oc) in outcomes.into_iter().enumerate() {
        d.absorb(0, &keys, i, oc);
    }

    let mut trace = Vec::with_capacity(opts.trials + 1);
    trace.push(d.trace_point(0));

    // Buffers reused across starts and trials: the start's words, one
    // neighbor's words, the fresh-neighbor mask with each fresh
    // neighbor's hash, the random walk's fresh directions with theirs,
    // one start's features, and the Q-method's features of every start of
    // the trial (`dim` each, for its transitions).
    let mut key = Vec::new();
    let mut words = Vec::new();
    let mut mask = Vec::new();
    let mut hashes = Vec::new();
    let mut avail = Vec::new();
    let mut state = Vec::new();
    let mut feats = Vec::new();
    let dim = d.space.feature_dim();

    'outer: for trial in 1..=opts.trials {
        if let Some(agent) = agent.as_mut() {
            let progress = match opts.anneal_window {
                Some((prior, total)) => ((prior + trial) as f64 / total.max(1) as f64).min(1.0),
                None => trial as f64 / opts.trials.max(1) as f64,
            };
            agent.set_progress(progress);
        }
        let (bases, energies): (Vec<NodeConfig>, Vec<f64>) = d
            .history
            .select_starts_with_energy(opts.starts, opts.gamma, &mut rng)
            .into_iter()
            .unzip();
        tel.emit(TraceEvent::TrialStarted {
            trial,
            starts: bases.len(),
            wall_s: d.wall_s(),
        });

        // Phase 1: build the trial's full candidate batch — every chosen
        // (start, direction) move — before evaluating anything. The RNG is
        // consumed in the same per-start order as a serial walk, and
        // evaluation never touches it, so batching leaves the draw
        // sequence unchanged. Moves are made on the start's encoding: a
        // direction applies to a start when its move does and leads to a
        // point unvisited as of the start of this trial. Each probed
        // neighbor is hashed once; only the chosen ones are built as
        // configs, and their words and hashes go into `keys`.
        let mut base_of: Vec<usize> = Vec::new();
        let mut actions: Vec<usize> = Vec::new();
        let mut cands: Vec<NodeConfig> = Vec::new();
        keys.clear();
        feats.clear();
        for (si, p) in bases.iter().enumerate() {
            key.clear();
            p.encode_into(&mut key);
            let space = &d.space;
            let history = &d.history;
            // The hash of `dir`'s neighbor when that move applies and
            // leads to a point not in the history.
            let fresh = |dir, words: &mut Vec<i64>| {
                if !space.apply_words(&key, dir, words) {
                    return None;
                }
                let hash = hash_key(words);
                (!history.contains_hashed(hash, words)).then_some(hash)
            };
            let mut chosen = None;
            match method {
                Method::PMethod => {
                    for (a, &dir) in space.directions().iter().enumerate() {
                        if let Some(hash) = fresh(dir, &mut words) {
                            base_of.push(si);
                            actions.push(a);
                            keys.push(&words, hash);
                            cands.push(NodeConfig::from_words(space.layout(), &words));
                        }
                    }
                }
                Method::RandomWalk => {
                    avail.clear();
                    for (a, &dir) in space.directions().iter().enumerate() {
                        if let Some(hash) = fresh(dir, &mut words) {
                            avail.push((a, hash));
                        }
                    }
                    if !avail.is_empty() {
                        chosen = Some(avail[rng.gen_range(0..avail.len())]);
                    }
                }
                Method::QMethod => {
                    mask.clear();
                    hashes.clear();
                    for &dir in space.directions() {
                        let hash = fresh(dir, &mut words);
                        mask.push(hash.is_some());
                        hashes.push(hash.unwrap_or(0));
                    }
                    space.features_into(p, &mut state);
                    feats.extend_from_slice(&state);
                    chosen = agent
                        .as_mut()
                        .expect("Q agent exists")
                        .choose(&state, &mask, &mut rng)
                        .map(|a| (a, hashes[a]));
                }
            }
            if let Some((a, hash)) = chosen {
                // Re-derive the chosen neighbor's words (the last probe
                // left another direction's in `words`).
                space.apply_words(&key, space.directions()[a], &mut words);
                base_of.push(si);
                actions.push(a);
                keys.push(&words, hash);
                cands.push(NodeConfig::from_words(space.layout(), &words));
            }
        }

        // Phase 2: evaluate the whole batch, fanned out over the pool's
        // workers. Each candidate carries its key and its starting point,
        // so the pool encodes nothing and can patch features
        // incrementally instead of recomputing them.
        let outcomes = d.pool.evaluate_batch_delta(&cands, &keys, &base_of, &bases);
        d.pool.emit_stats(&tel, trial);

        // Phase 3: reduce in fixed candidate order. Hitting the stop
        // target discards the rest of the batch: those points are
        // evaluated but never absorbed, so they cost no modeled
        // measurement.
        for (i, (((&si, &a), n), oc)) in base_of
            .iter()
            .zip(&actions)
            .zip(&cands)
            .zip(outcomes)
            .enumerate()
        {
            let e_p = energies[si];
            let e_n = d.absorb(trial, &keys, i, oc);
            tel.emit(TraceEvent::SaStep {
                trial,
                temperature: opts.gamma,
                energy: e_n,
                accepted: e_n > e_p,
            });
            if let Some(agent) = agent.as_mut() {
                let reward = if e_p > 0.0 {
                    ((e_n - e_p) / e_p).clamp(-1.0, 10.0)
                } else if e_n > 0.0 {
                    1.0
                } else {
                    -1.0
                };
                agent.record(Transition {
                    state: feats[si * dim..(si + 1) * dim].to_vec(),
                    action: a,
                    reward,
                    next_state: d.space.features(n),
                });
            }
            if d.reached_target() {
                trace.push(d.trace_point(trial));
                break 'outer;
            }
        }
        if let Some(agent) = agent.as_mut() {
            if let Some(loss) = agent.end_trial(&mut rng) {
                tel.emit(TraceEvent::QUpdate {
                    trial,
                    loss,
                    epsilon: agent.epsilon(),
                    target_sync: true,
                });
            }
        }
        trace.push(d.trace_point(trial));
        if d.reached_target() {
            break;
        }
    }

    let (best, e) = d
        .history
        .best()
        .ok_or_else(|| SearchError("no feasible schedule found".into()))?;
    let best = best.clone();
    let seconds = 1.0 / e;
    if tel.is_enabled() {
        let stats = d.pool.stats();
        tel.emit(TraceEvent::RunSummary {
            trials: trace.last().map_or(0, |t| t.trial),
            measurements: d.measurements,
            exploration_time_s: d.time_s,
            best_seconds: seconds,
            best_gflops: graph.flops() as f64 / seconds / 1e9,
            evaluated: stats.evaluated,
            cache_hits: stats.cache_hits,
            cache_misses: stats.cache_misses,
            wall_s: d.wall_s(),
        });
        tel.flush();
    }
    Ok(SearchResult {
        best,
        best_cost: Cost {
            seconds,
            flops: graph.flops(),
        },
        trace,
        measurements: d.measurements,
        exploration_time_s: d.time_s,
        space_size,
        eval_stats: d.pool.stats(),
        warm_seeds,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use flextensor_sim::spec::{v100, Device};

    fn quick_opts(trials: usize) -> SearchOptions {
        SearchOptions {
            trials,
            starts: 4,
            initial_samples: 8,
            ..SearchOptions::default()
        }
    }

    #[test]
    fn all_methods_find_feasible_schedules() {
        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
            let r = search(&g, &ev, m, &quick_opts(10)).unwrap();
            assert!(r.best_cost.seconds.is_finite(), "{m}");
            assert!(r.best_cost.gflops() > 0.0, "{m}");
            assert!(r.measurements > 0);
            assert!(r.exploration_time_s > 0.0);
        }
    }

    #[test]
    fn search_improves_over_seeds() {
        let g = ops::gemm(512, 512, 512);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let r = search(&g, &ev, Method::QMethod, &quick_opts(40)).unwrap();
        let first = r.trace.first().unwrap().best_gflops;
        let last = r.trace.last().unwrap().best_gflops;
        assert!(
            last >= first,
            "exploration should not regress: {first} -> {last}"
        );
        assert!(
            last > 1.2 * first,
            "should improve noticeably: {first} -> {last}"
        );
    }

    #[test]
    fn p_method_measures_more_per_trial_than_q() {
        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let q = search(&g, &ev, Method::QMethod, &quick_opts(10)).unwrap();
        let p = search(&g, &ev, Method::PMethod, &quick_opts(10)).unwrap();
        assert!(
            p.measurements > 2 * q.measurements,
            "P {} vs Q {}",
            p.measurements,
            q.measurements
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let g = ops::gemm(128, 128, 128);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let a = search(&g, &ev, Method::QMethod, &quick_opts(8)).unwrap();
        let b = search(&g, &ev, Method::QMethod, &quick_opts(8)).unwrap();
        assert_eq!(a.best.encode(), b.best.encode());
        assert_eq!(a.measurements, b.measurements);
    }

    #[test]
    fn full_anneal_window_matches_no_window_bit_for_bit() {
        // `(0, trials)` makes the windowed progress arithmetic identical
        // to the default, so the entire search must be too.
        let g = ops::gemm(128, 128, 128);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let plain = search(&g, &ev, Method::QMethod, &quick_opts(8)).unwrap();
        let windowed = search(
            &g,
            &ev,
            Method::QMethod,
            &SearchOptions {
                anneal_window: Some((0, 8)),
                ..quick_opts(8)
            },
        )
        .unwrap();
        assert_eq!(plain.best.encode(), windowed.best.encode());
        assert_eq!(
            plain.best_cost.seconds.to_bits(),
            windowed.best_cost.seconds.to_bits()
        );
        assert_eq!(plain.measurements, windowed.measurements);
    }

    #[test]
    fn anneal_window_is_deterministic() {
        let g = ops::gemm(128, 128, 128);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let opts = SearchOptions {
            anneal_window: Some((16, 48)),
            ..quick_opts(8)
        };
        let a = search(&g, &ev, Method::QMethod, &opts).unwrap();
        let b = search(&g, &ev, Method::QMethod, &opts).unwrap();
        assert_eq!(a.best.encode(), b.best.encode());
        assert_eq!(a.measurements, b.measurements);
    }

    #[test]
    fn analyzer_gate_preserves_search_results() {
        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
            let off = search(&g, &ev, m, &quick_opts(10)).unwrap();
            let mut opts = quick_opts(10);
            opts.analyzer_gate = true;
            let on = search(&g, &ev, m, &opts).unwrap();
            // Identical best point and bit-identical cost: pruning only
            // skips evaluations that were provably infeasible anyway.
            assert_eq!(on.best.encode(), off.best.encode(), "{m}");
            assert_eq!(
                on.best_cost.seconds.to_bits(),
                off.best_cost.seconds.to_bits(),
                "{m}"
            );
            // The gate's whole point: pruned candidates are never billed
            // as modeled on-device measurements.
            assert_eq!(off.eval_stats.pruned, 0, "{m}");
            assert!(on.eval_stats.pruned > 0, "{m}: nothing was pruned");
            assert_eq!(
                on.measurements + on.eval_stats.pruned,
                off.measurements,
                "{m}"
            );
            assert!(on.exploration_time_s < off.exploration_time_s, "{m}");
        }
    }

    #[test]
    fn only_multi_neighbor_starts_take_the_delta_path() {
        // The P-method expands every direction of a start, so its starts
        // are lowered once and their neighbors patched; the Q-method moves
        // each start once, so each neighbor is lowered in full.
        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        for m in [Method::QMethod, Method::PMethod] {
            let s = search(&g, &ev, m, &quick_opts(10)).unwrap().eval_stats;
            assert_eq!(s.delta_hits + s.delta_full, s.evaluated, "{m}");
            assert_eq!(s.delta_hits > 0, m == Method::PMethod, "{m}: {s:?}");
        }
    }

    #[test]
    fn gated_search_traces_still_replay_exactly() {
        use flextensor_telemetry::{replay, MemorySink};
        use std::sync::Arc;

        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let sink = Arc::new(MemorySink::new());
        let mut opts = quick_opts(6);
        opts.analyzer_gate = true;
        opts.telemetry = Telemetry::new(sink.clone());
        let r = search(&g, &ev, Method::QMethod, &opts).unwrap();

        let events = sink.events();
        let rep = replay::replay(&events).unwrap();
        assert!(rep.summary_matches(), "{:#?}", rep.replayed);
        match rep.analyzer {
            Some(TraceEvent::AnalyzerStats { pruned, .. }) => {
                assert_eq!(pruned, r.eval_stats.pruned);
                assert!(pruned > 0);
            }
            other => panic!("gated run must record analyzer_stats, got {other:?}"),
        }
    }

    #[test]
    fn region_gate_changes_nothing() {
        use flextensor_telemetry::MemorySink;
        use std::sync::Arc;

        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        // Wall-clock time is the one field that may differ between runs.
        let stats = |s: EvalStats| EvalStats {
            wall_clock_s: 0.0,
            ..s
        };
        for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
            let off = search(&g, &ev, m, &quick_opts(10)).unwrap();
            let sink = Arc::new(MemorySink::new());
            let mut opts = quick_opts(10);
            opts.region_gate = true;
            opts.telemetry = Telemetry::new(sink.clone());
            let on = search(&g, &ev, m, &opts).unwrap();
            assert_eq!(on.best.encode(), off.best.encode(), "{m}");
            assert_eq!(
                on.best_cost.seconds.to_bits(),
                off.best_cost.seconds.to_bits(),
                "{m}"
            );
            assert_eq!(on.trace, off.trace, "{m}");
            assert_eq!(stats(on.eval_stats), stats(off.eval_stats), "{m}");
            let events = sink.events();
            assert!(
                events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::RunSummary { .. })),
                "{m}: the traced run must be recorded"
            );
            assert!(
                !events
                    .iter()
                    .any(|e| matches!(e, TraceEvent::RegionStats { .. })),
                "{m}: no writer emits region_stats"
            );
        }
    }

    #[test]
    fn warm_start_absorbs_seeds_without_touching_the_cold_rng_path() {
        let g = ops::gemm(128, 128, 128);
        let ev = Evaluator::new(Device::Gpu(v100()));
        // A well-tuned config for a neighboring shape.
        let src = ops::gemm(256, 256, 256);
        let tuned = search(&src, &ev, Method::PMethod, &quick_opts(10)).unwrap();
        let cold = search(&g, &ev, Method::RandomWalk, &quick_opts(0)).unwrap();
        let mut opts = quick_opts(0);
        opts.warm_start = vec![tuned.best.encode(), vec![1, 2, 3]]; // second is garbage
        let warm = search(&g, &ev, Method::RandomWalk, &opts).unwrap();
        assert_eq!(cold.warm_seeds, 0);
        assert_eq!(warm.warm_seeds, 1);
        // With zero trials the result is the best of the seed batch, and
        // the warm batch is a superset of the cold one.
        assert!(warm.best_cost.seconds <= cold.best_cost.seconds);
    }

    #[test]
    fn stop_when_target_reached() {
        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        // First find a good time, then ask a fresh search to stop at a
        // loose target: it should finish early with fewer measurements.
        let full = search(&g, &ev, Method::PMethod, &quick_opts(20)).unwrap();
        let loose = full.best_cost.seconds * 4.0;
        let mut opts = quick_opts(20);
        opts.stop_when_seconds = Some(loose);
        let early = search(&g, &ev, Method::PMethod, &opts).unwrap();
        assert!(early.best_cost.seconds <= loose);
        assert!(early.measurements <= full.measurements);
    }

    #[test]
    fn trace_is_monotone() {
        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let r = search(&g, &ev, Method::RandomWalk, &quick_opts(15)).unwrap();
        for w in r.trace.windows(2) {
            assert!(w[1].best_seconds <= w[0].best_seconds);
            assert!(w[1].exploration_time_s >= w[0].exploration_time_s);
            assert!(w[1].measurements >= w[0].measurements);
        }
    }
}
