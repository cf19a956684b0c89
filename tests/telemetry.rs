//! The telemetry subsystem end to end: recorded traces are deterministic,
//! serialize losslessly, and replay into the exact recorded summary.
//!
//! The contracts under test:
//!
//! * same seed + same worker count ⇒ byte-identical JSONL, modulo the
//!   wall-clock fields (`wall_s`), which are the only nondeterministic
//!   ones in the schema;
//! * the worker count changes wall-clock only — the replayed summaries
//!   of a serial and a parallel run agree bit-for-bit on every modeled
//!   field;
//! * replaying a trace (a pure fold over the event stream, no evaluator)
//!   reproduces the recorded `run_summary` exactly, for all three
//!   exploration methods and the AutoTVM baseline;
//! * the committed fixture trace still replays exactly — the schema is
//!   stable across writer changes.

use std::sync::Arc;

use flextensor_autotvm::tuner::{tune, TuneOptions};
use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_ir::ops;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};
use flextensor_telemetry::replay::replay;
use flextensor_telemetry::{read_trace_file, JsonlSink, MemorySink, Telemetry, TraceEvent};

fn opts(workers: usize, tel: Telemetry) -> SearchOptions {
    SearchOptions {
        trials: 5,
        starts: 4,
        initial_samples: 8,
        eval_workers: workers,
        telemetry: tel,
        ..SearchOptions::default()
    }
}

/// Runs one search with a memory sink attached and returns the events.
fn record(method: Method, workers: usize) -> (Vec<TraceEvent>, f64) {
    let g = ops::gemm(128, 128, 128);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let sink = Arc::new(MemorySink::new());
    let r = search(
        &g,
        &ev,
        method,
        &opts(workers, Telemetry::new(sink.clone())),
    )
    .unwrap();
    (sink.events(), r.best_cost.seconds)
}

/// Serializes events to JSONL with the wall-clock fields zeroed — the
/// deterministic projection of a trace.
fn stripped_jsonl(events: &[TraceEvent]) -> String {
    events
        .iter()
        .map(|e| e.strip_wall_clock().to_jsonl() + "\n")
        .collect()
}

#[test]
fn same_seed_records_byte_identical_jsonl() {
    for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
        let (a, _) = record(m, 2);
        let (b, _) = record(m, 2);
        assert_eq!(stripped_jsonl(&a), stripped_jsonl(&b), "{m}");
    }
}

#[test]
fn worker_count_changes_wall_clock_only() {
    for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
        let (serial, _) = record(m, 1);
        let (parallel, _) = record(m, 8);
        let a = replay(&serial).unwrap();
        let b = replay(&parallel).unwrap();
        // Everything modeled agrees bit-for-bit; only `workers` and the
        // wall-clock fields may differ.
        let (
            TraceEvent::RunSummary {
                trials: t1,
                measurements: m1,
                exploration_time_s: e1,
                best_seconds: s1,
                best_gflops: g1,
                evaluated: v1,
                cache_hits: h1,
                cache_misses: c1,
                ..
            },
            TraceEvent::RunSummary {
                trials: t2,
                measurements: m2,
                exploration_time_s: e2,
                best_seconds: s2,
                best_gflops: g2,
                evaluated: v2,
                cache_hits: h2,
                cache_misses: c2,
                ..
            },
        ) = (&a.replayed, &b.replayed)
        else {
            panic!("replayed is always a run_summary");
        };
        assert_eq!((t1, m1, v1, h1, c1), (t2, m2, v2, h2, c2), "{m}");
        assert_eq!(e1.to_bits(), e2.to_bits(), "{m}");
        assert_eq!(s1.to_bits(), s2.to_bits(), "{m}");
        assert_eq!(g1.to_bits(), g2.to_bits(), "{m}");
    }
}

#[test]
fn replay_reproduces_live_summary_for_all_explore_methods() {
    for m in [Method::QMethod, Method::PMethod, Method::RandomWalk] {
        let (events, best) = record(m, 2);
        let r = replay(&events).unwrap();
        assert!(r.summary_matches(), "{m}: {:#?}", r);
        let TraceEvent::RunSummary { best_seconds, .. } = r.replayed else {
            unreachable!()
        };
        assert_eq!(best_seconds.to_bits(), best.to_bits(), "{m}");
        assert!(!r.curve.is_empty(), "{m}");
        // The convergence curve never regresses.
        for w in r.curve.windows(2) {
            assert!(w[1].best_seconds <= w[0].best_seconds, "{m}");
        }
    }
}

#[test]
fn replay_reproduces_live_summary_for_autotvm() {
    let g = ops::gemm(128, 128, 128);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let sink = Arc::new(MemorySink::new());
    let topts = TuneOptions {
        rounds: 4,
        batch: 16,
        eval_workers: 2,
        telemetry: Telemetry::new(sink.clone()),
        ..TuneOptions::default()
    };
    let r = tune(&g, &ev, &topts).unwrap();
    let rep = replay(&sink.events()).unwrap();
    assert!(rep.summary_matches(), "{:#?}", rep);
    let TraceEvent::RunSummary {
        best_seconds,
        measurements,
        exploration_time_s,
        ..
    } = rep.replayed
    else {
        unreachable!()
    };
    assert_eq!(best_seconds.to_bits(), r.best_cost.seconds.to_bits());
    assert_eq!(measurements, r.measurements);
    assert_eq!(exploration_time_s.to_bits(), r.exploration_time_s.to_bits());
    assert_eq!(rep.run.method, "autotvm");
}

#[test]
fn jsonl_file_round_trips_the_event_stream() {
    let g = ops::gemm(128, 128, 128);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let path = std::env::temp_dir().join(format!("flextensor_trace_{}.jsonl", std::process::id()));

    let memory = Arc::new(MemorySink::new());
    let (file_events, mem_events) = {
        let sink = JsonlSink::create(&path).unwrap();
        // Drop the search options (and with them the sink) before reading
        // the file back, so the buffered writer flushes.
        let o = opts(1, Telemetry::to_sink(sink));
        search(&g, &ev, Method::QMethod, &o).unwrap();
        drop(o);
        let from_file = read_trace_file(&path).unwrap();
        let om = opts(1, Telemetry::new(memory.clone()));
        search(&g, &ev, Method::QMethod, &om).unwrap();
        (from_file, memory.events())
    };
    let _ = std::fs::remove_file(&path);

    assert_eq!(file_events.len(), mem_events.len());
    assert_eq!(stripped_jsonl(&file_events), stripped_jsonl(&mem_events));
}

#[test]
fn committed_fixture_replays_exactly() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/bench/fixtures/trace_q_gemm256.jsonl");
    let events = read_trace_file(&path).unwrap();
    let r = replay(&events).unwrap();
    assert!(
        r.summary_matches(),
        "fixture no longer replays — schema or fold changed incompatibly: {:#?}",
        r
    );
    assert_eq!(r.run.method, "q-method");
    assert_eq!(r.run.seed, 2024);
    assert_eq!(r.run.trials, 8);
    let TraceEvent::RunSummary { best_seconds, .. } = r.replayed else {
        unreachable!()
    };
    assert!(best_seconds.is_finite() && best_seconds > 0.0);
}

/// The P-method and random-walk fixtures, which CI re-records: both
/// replay to their own run summary.
#[test]
fn committed_p_and_walk_fixtures_replay_exactly() {
    for (file, method, trials) in [
        ("trace_p_gemm256.jsonl", "p-method", 3),
        ("trace_walk_gemm256.jsonl", "random-walk", 40),
    ] {
        let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("crates/bench/fixtures")
            .join(file);
        let events = read_trace_file(&path).unwrap();
        let r = replay(&events).unwrap();
        assert!(r.summary_matches(), "{file} no longer replays: {r:#?}");
        assert_eq!(r.run.method, method, "{file}");
        assert_eq!(r.run.trials, trials, "{file}");
    }
}

/// The graph-tuning fixture: an ordinary search trace carrying
/// `graph_plan` / `graph_round` events. The replayer must tolerate them
/// (still fold the run exactly) *and* surface them for inspection.
#[test]
fn committed_graph_fixture_replays_and_surfaces_graph_events() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("crates/bench/fixtures/trace_graph_shuffle.jsonl");
    let events = read_trace_file(&path).unwrap();
    let r = replay(&events).unwrap();
    assert!(
        r.summary_matches(),
        "graph fixture no longer replays — schema or fold changed incompatibly: {:#?}",
        r
    );
    let Some(TraceEvent::GraphPlan {
        network,
        occurrences,
        tasks,
        budget,
        ..
    }) = &r.graph_plan
    else {
        panic!("fixture must carry a graph_plan event: {:#?}", r.graph_plan);
    };
    assert_eq!(network, "shufflenet_like_b1");
    assert_eq!(*occurrences, 19);
    assert_eq!(*tasks, 8);
    assert_eq!(*budget, 48);
    // Pilot round plus two refinement rounds, in order, spending the
    // whole budget by the final round.
    assert_eq!(r.graph_rounds.len(), 3);
    let mut spent_last = 0;
    for (i, ev) in r.graph_rounds.iter().enumerate() {
        let TraceEvent::GraphRound {
            round,
            spent,
            network_seconds,
            ..
        } = ev
        else {
            panic!("graph_rounds must hold graph_round events: {ev:?}");
        };
        assert_eq!(*round, i);
        assert!(*spent >= spent_last, "spent trials are cumulative");
        assert!(network_seconds.is_finite() && *network_seconds > 0.0);
        spent_last = *spent;
    }
    assert_eq!(spent_last, *budget, "the run spends its whole budget");
}
