//! A traced re-drive of `flextensor::optimize` built only from public
//! calls, timing each call into a layer.
//!
//! [`traced_optimize`] repeats `explore::methods::search` step for step —
//! the same RNG draws in the same order, the same batches, the same
//! reduction — so the per-layer times it records are those of the
//! program the end-to-end runs measure. [`checked_call`] enforces that:
//! every traced call is paired with a real `optimize()` call and must
//! reproduce its best encoding, cost bits, measurement count and modeled
//! exploration time exactly, or the call fails naming its task.
//!
//! The mirror covers the options the benchmark uses: default
//! `SearchOptions` (with any trial budget, seed and worker count) plus
//! warm-start seeds. It refuses the opt-in gates and telemetry rather than
//! guess at their paths.

use std::time::Instant;

use flextensor::explore::pool::{EvalOutcome, EvalPool};
use flextensor::explore::qlearn::{QAgent, Transition};
use flextensor::explore::sa::History;
use flextensor::explore::space::Space;
use flextensor::explore::warm::adapt_encoding;
use flextensor::ir::analysis::analyze;
use flextensor::schedule::config::NodeConfig;
use flextensor::schedule::lower::lower;
use flextensor::schedule::primitives::describe;
use flextensor::schedule::template::LoweredTemplate;
use flextensor::sim::batch::FeatureBatch;
use flextensor::sim::model::Evaluator;
use flextensor::{optimize, Method, OptimizeOptions, OptimizeResult, Task};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Per-layer accumulators over traced search calls. Times are seconds of
/// wall clock spent inside the named public calls.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// Traced calls.
    pub calls: usize,
    /// Wall time of the traced calls, excluding the off-path replay.
    pub traced_wall_s: f64,
    /// Wall time of the paired untraced `optimize()` calls.
    pub untraced_wall_s: f64,
    /// `analyze`, `Evaluator::new`, `Space::new`, `QAgent::new`,
    /// `EvalPool::new` and the seed draws, and dropping that state.
    pub init_s: f64,
    /// `QAgent::end_trial`.
    pub qlearn_train_s: f64,
    /// `end_trial` calls that trained.
    pub qlearn_train_rounds: usize,
    /// `Space::features_into` + `QAgent::choose`.
    pub qlearn_choose_s: f64,
    /// `Space::features` of both endpoints + `QAgent::record`.
    pub qlearn_record_s: f64,
    /// `History::select_starts_with_energy`.
    pub sa_select_s: f64,
    /// Its calls.
    pub sa_select_calls: usize,
    /// `History::record` and the modeled-time bookkeeping around it.
    pub sa_record_s: f64,
    /// Largest final history size over the traced calls.
    pub sa_history_len_max: usize,
    /// `Space::apply` + `History::contains` over every direction.
    pub space_propose_s: f64,
    /// Directions tried.
    pub space_propose_attempts: usize,
    /// Directions that led to a point not yet in the history.
    pub space_propose_fresh: usize,
    /// `EvalPool::evaluate_batch`.
    pub pool_eval_s: f64,
    /// Candidates submitted to the pool.
    pub pool_candidates: usize,
    /// Candidates the pool evaluated fresh.
    pub pool_evaluated: usize,
    /// Memo-cache hits.
    pub pool_cache_hits: usize,
    /// Memo-cache lookups.
    pub pool_lookups: usize,
    /// Fresh evaluations that came back infeasible.
    pub pool_infeasible: usize,
    /// Replayed `LoweredTemplate::features` over fresh candidates.
    pub schedule_features_s: f64,
    /// Replayed `Evaluator::time_features_batch` over fresh candidates.
    pub sim_score_s: f64,
    /// Final `lower` + `describe` of the winner.
    pub optimize_lower_s: f64,
}

impl Layers {
    /// Time covered by layer spans (the replay is off the traced wall and
    /// not counted here).
    pub fn spans_s(&self) -> f64 {
        self.init_s
            + self.qlearn_train_s
            + self.qlearn_choose_s
            + self.qlearn_record_s
            + self.sa_select_s
            + self.sa_record_s
            + self.space_propose_s
            + self.pool_eval_s
            + self.optimize_lower_s
    }
}

/// The fields a traced call must reproduce bit for bit.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// Canonical encoding of the best configuration.
    pub encoding: Vec<i64>,
    /// Bits of its modeled seconds.
    pub cost_bits: u64,
    /// Modeled on-device measurements.
    pub measurements: usize,
    /// Bits of the modeled exploration time.
    pub explore_bits: u64,
}

impl Fingerprint {
    /// The fingerprint of a real `optimize()` result.
    pub fn of(r: &OptimizeResult) -> Fingerprint {
        Fingerprint {
            encoding: r.config.encode(),
            cost_bits: r.cost.seconds.to_bits(),
            measurements: r.measurements,
            explore_bits: r.exploration_time_s.to_bits(),
        }
    }
}

/// Runs `f`, adding its wall time to `acc`.
fn span<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Runs one untraced `optimize()` and one traced mirror of it, checks that
/// they agree, and returns the untraced result. Both wall times land in
/// `layers`.
///
/// # Errors
///
/// Returns a message naming `label` when either call fails or the mirror
/// diverges from `optimize()`.
pub fn checked_call(
    label: &str,
    task: &Task,
    opts: &OptimizeOptions,
    layers: &mut Layers,
) -> Result<OptimizeResult, String> {
    // Alternate which of the pair runs first, so allocator and cache state
    // left by one call does not favour the other in `trace.overhead`.
    let traced_first = layers.calls % 2 == 1;
    let traced = if traced_first {
        Some(traced_optimize(task, opts, layers).map_err(|e| format!("{label}: {e}"))?)
    } else {
        None
    };
    let t = Instant::now();
    let real = optimize(task, opts).map_err(|e| format!("{label}: {e}"))?;
    layers.untraced_wall_s += t.elapsed().as_secs_f64();
    let expected = Fingerprint::of(&real);
    let traced = match traced {
        Some(fp) => fp,
        None => traced_optimize(task, opts, layers).map_err(|e| format!("{label}: {e}"))?,
    };
    if traced != expected {
        return Err(format!(
            "{label}: traced search diverged from search(): \
             traced {traced:?}, real {expected:?}"
        ));
    }
    Ok(real)
}

/// Re-drives `optimize(task, opts)` through public calls, accumulating
/// per-layer time in `layers`.
///
/// # Errors
///
/// Returns a message for unsupported options, an infeasible search, or a
/// replayed score that disagrees with the pool's.
pub fn traced_optimize(
    task: &Task,
    opts: &OptimizeOptions,
    layers: &mut Layers,
) -> Result<Fingerprint, String> {
    let o = &opts.search;
    if o.analyzer_gate
        || o.delta_eval
        || o.region_gate
        || o.telemetry.is_enabled()
        || o.stop_when_seconds.is_some()
        || o.anneal_window.is_some()
    {
        return Err("the traced search covers default options and warm starts only".into());
    }
    let method = opts.method;
    if method == Method::RandomWalk {
        return Err("the traced search covers the Q- and P-methods only".into());
    }
    let graph = &task.graph;
    let start = Instant::now();
    let mut replay_s = 0.0;
    let l = layers;

    // optimize()'s front end, then search()'s set-up.
    let (evaluator, space) = span(&mut l.init_s, || {
        let _analysis = analyze(graph);
        let _order = graph.post_order();
        let evaluator = Evaluator::new(task.device.clone());
        let space = Space::new(graph, evaluator.target());
        let _size = space.size();
        (evaluator, space)
    });
    let mut rng = StdRng::seed_from_u64(o.seed);
    let mut agent = span(&mut l.init_s, || {
        (method == Method::QMethod)
            .then(|| QAgent::new(space.feature_dim(), space.directions().len(), &mut rng))
    });
    let mut pool = span(&mut l.init_s, || {
        EvalPool::new(graph, &evaluator, o.eval_workers, o.cache_capacity)
    });
    let mut history = History::new();
    let seeds = span(&mut l.init_s, || {
        let mut seeds = vec![space.start_point()];
        for _ in 0..o.initial_samples {
            seeds.push(space.random_point(&mut rng));
        }
        for enc in &o.warm_start {
            if let Some(cfg) = adapt_encoding(space.op(), enc) {
                if !seeds.contains(&cfg) {
                    seeds.push(cfg);
                }
            }
        }
        seeds
    });
    let mut replay = span(&mut replay_s, || Replay {
        template: LoweredTemplate::new(graph, evaluator.target()),
        batch: FeatureBatch::new(),
        scores: Vec::new(),
    });

    let mut measurements = 0usize;
    let mut time_s = 0.0f64;
    let mut absorb = |history: &mut History, cfg: &NodeConfig, oc: EvalOutcome| -> f64 {
        if oc.fresh && !oc.pruned {
            measurements += 1;
            time_s += o.measure_overhead_s;
            if let Some(c) = oc.cost {
                time_s += o.measure_repeats as f64 * c.seconds;
            }
        }
        let e = oc.cost.map_or(0.0, |c| 1.0 / c.seconds);
        history.record(cfg.clone(), e);
        e
    };

    let outcomes = span(&mut l.pool_eval_s, || pool.evaluate_batch(&seeds));
    l.pool_candidates += seeds.len();
    span(&mut replay_s, || {
        replay.run(&evaluator, &seeds, &outcomes, l)
    })?;
    span(&mut l.sa_record_s, || {
        for (cfg, oc) in seeds.iter().zip(&outcomes) {
            absorb(&mut history, cfg, *oc);
        }
    });

    let mut feats = Vec::new();
    for trial in 1..=o.trials {
        if let Some(agent) = agent.as_mut() {
            agent.set_progress(trial as f64 / o.trials.max(1) as f64);
        }
        let starts = span(&mut l.sa_select_s, || {
            history.select_starts_with_energy(o.starts, o.gamma, &mut rng)
        });
        l.sa_select_calls += 1;

        let mut meta: Vec<(usize, usize)> = Vec::new();
        let mut cands: Vec<NodeConfig> = Vec::new();
        for (si, (p, _)) in starts.iter().enumerate() {
            let mut neighbors: Vec<Option<NodeConfig>> = span(&mut l.space_propose_s, || {
                space
                    .directions()
                    .iter()
                    .map(|&dir| space.apply(p, dir).filter(|n| !history.contains(n)))
                    .collect()
            });
            l.space_propose_attempts += neighbors.len();
            l.space_propose_fresh += neighbors.iter().filter(|n| n.is_some()).count();
            let chosen: Vec<usize> = match agent.as_mut() {
                None => (0..neighbors.len())
                    .filter(|&i| neighbors[i].is_some())
                    .collect(),
                Some(agent) => {
                    let mask: Vec<bool> = neighbors.iter().map(Option::is_some).collect();
                    span(&mut l.qlearn_choose_s, || {
                        space.features_into(p, &mut feats);
                        agent.choose(&feats, &mask, &mut rng)
                    })
                    .into_iter()
                    .collect()
                }
            };
            for a in chosen {
                meta.push((si, a));
                cands.push(neighbors[a].take().expect("chosen neighbor exists"));
            }
        }

        let outcomes = span(&mut l.pool_eval_s, || pool.evaluate_batch(&cands));
        l.pool_candidates += cands.len();
        span(&mut replay_s, || {
            replay.run(&evaluator, &cands, &outcomes, l)
        })?;

        let reduce = meta.iter().zip(&cands).zip(outcomes);
        match agent.as_mut() {
            None => span(&mut l.sa_record_s, || {
                for ((_, n), oc) in reduce {
                    absorb(&mut history, n, oc);
                }
            }),
            Some(agent) => {
                for (((si, a), n), oc) in reduce {
                    let (p, e_p) = &starts[*si];
                    let e_n = span(&mut l.sa_record_s, || absorb(&mut history, n, oc));
                    let reward = if *e_p > 0.0 {
                        ((e_n - e_p) / e_p).clamp(-1.0, 10.0)
                    } else if e_n > 0.0 {
                        1.0
                    } else {
                        -1.0
                    };
                    span(&mut l.qlearn_record_s, || {
                        agent.record(Transition {
                            state: space.features(p),
                            action: *a,
                            reward,
                            next_state: space.features(n),
                        })
                    });
                }
                if span(&mut l.qlearn_train_s, || agent.end_trial(&mut rng)).is_some() {
                    l.qlearn_train_rounds += 1;
                }
            }
        }
    }

    let (best, e) = history
        .best()
        .ok_or("traced search found no feasible schedule")?;
    let best = best.clone();
    let seconds = 1.0 / e;
    let stats = pool.stats();
    l.pool_evaluated += stats.evaluated;
    l.pool_cache_hits += stats.cache_hits;
    l.pool_lookups += stats.cache_hits + stats.cache_misses;
    l.sa_history_len_max = l.sa_history_len_max.max(history.len());

    span(&mut l.optimize_lower_s, || {
        describe(graph.anchor_op(), &best, evaluator.target());
        lower(graph, &best, evaluator.target()).map_err(|e| e.to_string())
    })?;
    // search() drops its state before returning; so does the mirror,
    // inside the traced wall.
    span(&mut l.init_s, || drop((pool, history, agent, space, seeds)));
    l.traced_wall_s += start.elapsed().as_secs_f64() - replay_s;
    l.calls += 1;
    Ok(Fingerprint {
        encoding: best.encode(),
        cost_bits: seconds.to_bits(),
        measurements,
        explore_bits: time_s.to_bits(),
    })
}

/// Off-path replay of a batch's fresh candidates through the feature and
/// scoring layers the pool uses internally, timing each layer alone.
struct Replay {
    template: LoweredTemplate,
    batch: FeatureBatch,
    scores: Vec<Option<f64>>,
}

impl Replay {
    fn run(
        &mut self,
        evaluator: &Evaluator,
        cands: &[NodeConfig],
        outcomes: &[EvalOutcome],
        layers: &mut Layers,
    ) -> Result<(), String> {
        let t = Instant::now();
        self.batch.clear();
        let mut rows = Vec::new();
        for (cfg, oc) in cands.iter().zip(outcomes).filter(|(_, oc)| oc.fresh) {
            match self.template.features(cfg) {
                Ok(f) => {
                    self.batch.push(&f);
                    rows.push(oc.cost.map(|c| c.seconds.to_bits()));
                }
                Err(_) if oc.cost.is_none() => {}
                Err(e) => return Err(format!("replayed features failed on a scored point: {e}")),
            }
            if oc.cost.is_none() {
                layers.pool_infeasible += 1;
            }
        }
        layers.schedule_features_s += t.elapsed().as_secs_f64();
        span(&mut layers.sim_score_s, || {
            evaluator.time_features_batch(&self.batch, &mut self.scores)
        });
        let replayed = self.scores.iter().map(|s| s.map(f64::to_bits));
        if !replayed.eq(rows.iter().copied()) {
            return Err("replayed scores differ from the pool's".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor::ir::ops;
    use flextensor::sim::spec::{v100, xeon_e5_2699_v4, Device};

    #[test]
    fn mirror_matches_optimize_for_both_methods_and_warm_starts() {
        let graph = ops::gemm(64, 128, 32);
        for device in [Device::Gpu(v100()), Device::Cpu(xeon_e5_2699_v4())] {
            let task = Task::new(graph.clone(), device);
            for method in [Method::QMethod, Method::PMethod] {
                let mut opts = OptimizeOptions::quick();
                opts.method = method;
                let mut layers = Layers::default();
                let cold = checked_call("gemm", &task, &opts, &mut layers).unwrap();
                let warm = opts.with_warm_start(vec![cold.config.encode()]);
                checked_call("gemm-warm", &task, &warm, &mut layers).unwrap();
                assert_eq!(layers.calls, 2);
                assert!(layers.pool_evaluated > 0 && layers.space_propose_attempts > 0);
                assert_eq!(layers.qlearn_train_rounds > 0, method == Method::QMethod);
            }
        }
    }

    #[test]
    fn mirror_refuses_options_it_does_not_cover() {
        let task = Task::new(ops::gemm(32, 32, 32), Device::Gpu(v100()));
        let opts = OptimizeOptions::quick().with_delta_eval(true);
        assert!(traced_optimize(&task, &opts, &mut Layers::default()).is_err());
    }
}
