//! The parallel, memoized evaluation layer: determinism in the worker
//! count, cache-key invariants, statistics plumbing, and the search's
//! contract that makes a memo redundant in front of it.
//!
//! The central contract under test: `eval_workers` changes *wall-clock
//! time only*. Every search result — best config, best cost, measurement
//! count, modeled exploration time, full trace — must be bit-for-bit
//! identical whether candidates are evaluated serially or fanned out
//! over a worker pool.

use std::collections::hash_map::Entry;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

use flextensor_explore::methods::{search, Method, SearchOptions, SearchResult};
use flextensor_explore::pool::EvalPool;
use flextensor_explore::space::{Direction, Space};
use flextensor_ir::graph::Graph;
use flextensor_ir::ops;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4, Device};
use flextensor_telemetry::{MemorySink, Telemetry, TraceEvent};
use proptest::prelude::*;
use rand::SeedableRng;

fn opts(trials: usize, eval_workers: usize) -> SearchOptions {
    SearchOptions {
        trials,
        starts: 4,
        initial_samples: 8,
        eval_workers,
        ..SearchOptions::default()
    }
}

/// Searching with 1 worker and with 8 returns identical results — cost,
/// config, measurements, modeled time, and the whole trace — for all
/// three methods. (The pool reduces outcomes in fixed candidate order and
/// evaluation never touches the RNG, so thread scheduling cannot leak in.)
#[test]
fn search_is_deterministic_in_worker_count() {
    let g = ops::gemm(128, 128, 128);
    let ev = Evaluator::new(Device::Gpu(v100()));
    for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
        let serial = search(&g, &ev, m, &opts(6, 1)).unwrap();
        let parallel = search(&g, &ev, m, &opts(6, 8)).unwrap();
        assert_eq!(serial.best.encode(), parallel.best.encode(), "{m}");
        assert_eq!(
            serial.best_cost.seconds.to_bits(),
            parallel.best_cost.seconds.to_bits(),
            "{m}"
        );
        assert_eq!(serial.measurements, parallel.measurements, "{m}");
        assert_eq!(
            serial.exploration_time_s.to_bits(),
            parallel.exploration_time_s.to_bits(),
            "{m}"
        );
        assert_eq!(serial.trace, parallel.trace, "{m}");
        assert_eq!(
            serial.eval_stats.evaluated, parallel.eval_stats.evaluated,
            "{m}"
        );
        assert_eq!(
            serial.eval_stats.cache_hits, parallel.eval_stats.cache_hits,
            "{m}"
        );
        assert_eq!(serial.eval_stats.workers, 1, "{m}");
        assert_eq!(parallel.eval_stats.workers, 8, "{m}");
    }
}

/// `eval_workers: 0` means "all cores" and is likewise result-identical.
#[test]
fn auto_worker_count_is_result_identical() {
    let g = ops::gemm(64, 64, 64);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let serial = search(&g, &ev, Method::RandomWalk, &opts(8, 1)).unwrap();
    let auto = search(&g, &ev, Method::RandomWalk, &opts(8, 0)).unwrap();
    assert_eq!(serial.best.encode(), auto.best.encode());
    assert_eq!(serial.trace, auto.trace);
    assert!(auto.eval_stats.workers >= 1);
}

/// On a space where the exploration budget dwarfs the number of distinct
/// reachable points, the stats must show repeats resolved without
/// evaluation (here duplicate seed draws, answered within their batch): a
/// positive cache hit rate, and a fresh-evaluation count that equals the
/// distinct-key count (every point pays for evaluation exactly once).
#[test]
fn tiny_space_search_reports_cache_hits() {
    let g = ops::gemm(2, 2, 2);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let r = search(
        &g,
        &ev,
        Method::PMethod,
        &SearchOptions {
            trials: 60,
            starts: 8,
            initial_samples: 64,
            ..SearchOptions::default()
        },
    )
    .unwrap();
    let s = r.eval_stats;
    assert!(s.hit_rate() > 0.0, "expected cache hits, got {s:?}");
    assert!(s.cache_hits > 0, "{s:?}");
    // Every distinct key misses exactly once; repeats are hits. So fresh
    // evaluations == distinct keys == misses, and without early stopping
    // every fresh evaluation is absorbed as a measurement.
    assert_eq!(s.evaluated, s.cache_misses, "{s:?}");
    assert_eq!(s.evaluated, r.measurements, "{s:?}");
    assert_eq!(s.lookups(), s.cache_hits + s.cache_misses);
    assert!(
        s.lookups() > s.evaluated,
        "budget should revisit points: {s:?}"
    );
}

/// Pool-level ground truth for the same property: feeding batches with
/// repeats through an [`EvalPool`] evaluates each distinct key exactly
/// once, whatever the batch boundaries.
#[test]
fn pool_evaluates_each_distinct_key_once() {
    let g = ops::gemm(32, 32, 32);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let space = Space::new(&g, ev.target());
    let mut rng = rand::rngs::StdRng::seed_from_u64(11);
    let points: Vec<_> = (0..30).map(|_| space.random_point(&mut rng)).collect();
    // Three overlapping batches built from the same point set.
    let batches = [&points[0..20], &points[5..25], &points[10..30]];
    let mut pool = EvalPool::new(&g, &ev, 4, 1 << 16);
    for b in batches {
        pool.evaluate_batch(b);
    }
    let distinct: BTreeSet<Vec<i64>> = points.iter().map(|p| p.encode()).collect();
    assert_eq!(pool.stats().evaluated, distinct.len());
    assert_eq!(pool.stats().lookups(), 60);
}

/// Asserts that a traced search submitted every point in one trial only:
/// a key evaluated in one trial never comes back in a later one, and a
/// repeat within a trial is an in-batch duplicate, logged `fresh: false`.
/// Also checks that every `pool_stats` record counts each evaluated point
/// as one entry. Returns the number of candidates logged.
fn assert_each_point_submitted_in_one_trial(events: &[TraceEvent], ctx: &str) -> usize {
    let mut trial_of: HashMap<&str, usize> = HashMap::new();
    let mut logged = 0;
    for e in events {
        match e {
            TraceEvent::CandidateEvaluated {
                trial, key, fresh, ..
            } => {
                logged += 1;
                match trial_of.entry(key.as_str()) {
                    Entry::Vacant(v) => {
                        v.insert(*trial);
                    }
                    Entry::Occupied(o) => {
                        assert_eq!(
                            *o.get(),
                            *trial,
                            "{ctx}: {key}, evaluated in trial {}, was submitted again in trial {trial}",
                            o.get()
                        );
                        assert!(
                            !fresh,
                            "{ctx}: in-batch repeat {key} in trial {trial} was billed"
                        );
                    }
                }
            }
            TraceEvent::PoolStats {
                evaluated,
                cache_entries,
                ..
            } => assert_eq!(evaluated, cache_entries, "{ctx}"),
            _ => {}
        }
    }
    logged
}

/// Runs a search with a memory sink attached; returns its events and result.
fn traced(
    g: &Graph,
    ev: &Evaluator,
    m: Method,
    mut o: SearchOptions,
) -> (Vec<TraceEvent>, SearchResult) {
    let sink = Arc::new(MemorySink::new());
    o.telemetry = Telemetry::new(sink.clone());
    let r = search(g, ev, m, &o).unwrap();
    (sink.events(), r)
}

/// The history is the memo: `search()` proposes only points absent from
/// its history, so its pool never sees a point from an earlier batch and
/// needs no memo. Checked from traces over every method, on gemm and
/// conv2d on all three device models, at one and two workers, plus a
/// warm-started, an analyzer-gated and an early-stopping run. A change
/// that lets the search resubmit a known point fails here.
#[test]
fn search_never_resubmits_a_point_it_already_knows() {
    let devices = [
        Device::Gpu(v100()),
        Device::Cpu(xeon_e5_2699_v4()),
        Device::Fpga(vu9p()),
    ];
    let graphs = [
        ops::gemm(64, 64, 64),
        ops::conv2d(ops::ConvParams::same(1, 8, 16, 3), 12, 12),
    ];
    for workers in [1, 2] {
        for dev in &devices {
            let ev = Evaluator::new(dev.clone());
            for g in &graphs {
                for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
                    let ctx = format!("{m} on {} / {}, {workers} workers", g.name, dev.name());
                    let (events, r) = traced(g, &ev, m, opts(6, workers));
                    let logged = assert_each_point_submitted_in_one_trial(&events, &ctx);
                    let s = r.eval_stats;
                    assert_eq!(logged, s.lookups(), "{ctx}");
                    assert_eq!(s.evaluated, r.measurements, "{ctx}");
                }
            }
        }

        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let tuned = search(&ops::gemm(128, 128, 128), &ev, Method::PMethod, &opts(6, 1)).unwrap();
        let full = search(&g, &ev, Method::PMethod, &opts(12, workers)).unwrap();
        let variants = [
            (
                "warm-started",
                SearchOptions {
                    warm_start: vec![tuned.best.encode()],
                    ..opts(8, workers)
                },
            ),
            (
                "analyzer-gated",
                SearchOptions {
                    analyzer_gate: true,
                    ..opts(8, workers)
                },
            ),
            (
                "early-stopping",
                SearchOptions {
                    stop_when_seconds: Some(full.best_cost.seconds * 1.5),
                    ..opts(12, workers)
                },
            ),
        ];
        for (what, o) in variants {
            for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
                let ctx = format!("{what} {m}, {workers} workers");
                let (events, r) = traced(&g, &ev, m, o.clone());
                assert_each_point_submitted_in_one_trial(&events, &ctx);
                match what {
                    "warm-started" => assert_eq!(r.warm_seeds, 1, "{ctx}"),
                    "analyzer-gated" => assert!(r.eval_stats.pruned > 0, "{ctx}"),
                    _ if m == Method::PMethod => {
                        assert!(r.trace.last().unwrap().trial < 12, "{ctx}: no early stop")
                    }
                    _ => {}
                }
            }
        }
    }
}

/// The inverse of each direction, where one exists.
fn inverse(d: Direction) -> Direction {
    match d {
        Direction::SplitMove { axis, from, to } => Direction::SplitMove {
            axis,
            from: to,
            to: from,
        },
        Direction::FuseMore => Direction::FuseLess,
        Direction::FuseLess => Direction::FuseMore,
        Direction::PartitionUp => Direction::PartitionDown,
        Direction::PartitionDown => Direction::PartitionUp,
        Direction::PipelineUp => Direction::PipelineDown,
        Direction::PipelineDown => Direction::PipelineUp,
        // Swaps and toggles undo themselves.
        other => other,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// A point moved along a direction and back along its inverse encodes
    /// to the original cache key: the memo cache will treat the
    /// round-tripped point as the same point.
    #[test]
    fn direction_roundtrip_preserves_cache_key(seed in any::<u64>(), dir_salt in any::<u64>()) {
        let g = ops::conv2d(ops::ConvParams::same(1, 8, 16, 3), 12, 12);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let space = Space::new(&g, ev.target());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = space.random_point(&mut rng);
        let applicable: Vec<Direction> = space
            .directions()
            .iter()
            .copied()
            .filter(|&d| space.apply(&p, d).is_some())
            .collect();
        prop_assert!(!applicable.is_empty());
        let d = applicable[(dir_salt % applicable.len() as u64) as usize];
        let moved = space.apply(&p, d).expect("applicable");
        prop_assert_ne!(moved.encode(), p.encode(), "direction {:?} must move", d);
        let back = space
            .apply(&moved, inverse(d))
            .expect("inverse of an applied direction applies");
        prop_assert_eq!(back.encode(), p.encode(), "direction {:?}", d);
    }

    /// A cache hit returns exactly the cost the fresh evaluation produced
    /// — bit-for-bit, feasible or not — no matter how often it is asked.
    #[test]
    fn cache_hits_never_change_the_cost(seed in any::<u64>(), repeats in 2usize..5) {
        let g = ops::gemm(64, 64, 64);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let space = Space::new(&g, ev.target());
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let p = space.random_point(&mut rng);
        let mut pool = EvalPool::new(&g, &ev, 2, 1 << 16);
        let first = pool.evaluate(&p);
        prop_assert!(first.fresh);
        for _ in 0..repeats {
            let again = pool.evaluate(&p);
            prop_assert!(!again.fresh);
            match (first.cost, again.cost) {
                (Some(a), Some(b)) => {
                    prop_assert_eq!(a.seconds.to_bits(), b.seconds.to_bits());
                    prop_assert_eq!(a.flops, b.flops);
                }
                (None, None) => {}
                _ => prop_assert!(false, "feasibility changed on a cache hit"),
            }
        }
    }
}
