//! Probe — record and replay structured exploration traces.
//!
//! Two modes:
//!
//! * `probe_trace <trace.jsonl>` — replay a recorded trace offline and
//!   print a text report: best-cost curve, SA acceptance by phase, cache
//!   hit rate, per-trial wall-clock, and a verdict on whether the pure
//!   event-stream fold reproduces the recorded `run_summary` exactly.
//!   Exits nonzero when it does not (a tampered or truncated trace).
//! * `probe_trace --record <trace.jsonl>` — run a quick GEMM search with
//!   a `JsonlSink` attached, write the trace, then replay and report it
//!   in one step. Flags: `--method q|p|walk|autotvm` (default `q`),
//!   `--trials N` (default 40; rounds for `autotvm`), `--seed N`,
//!   `--workers N` (evaluation workers; any value records the same
//!   trace modulo wall-clock fields).
//!
//! The JSONL schema is documented in `docs/TRACE_FORMAT.md`.

use flextensor_autotvm::tuner::{tune, TuneOptions};
use flextensor_bench::harness::arg;
use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_ir::ops;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};
use flextensor_telemetry::{read_trace_file, replay, report, JsonlSink, Telemetry};

fn main() {
    let record: String = arg("record", String::new());
    let path = if record.is_empty() {
        match std::env::args().skip(1).find(|a| !a.starts_with("--")) {
            Some(p) => p,
            None => {
                eprintln!("usage: probe_trace <trace.jsonl>");
                eprintln!(
                    "       probe_trace --record <trace.jsonl> \
                     [--method q|p|walk|autotvm] [--trials N] [--seed N] [--workers N]"
                );
                std::process::exit(2);
            }
        }
    } else {
        record_trace(&record);
        record
    };

    let events = match read_trace_file(&path) {
        Ok(events) => events,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    let rep = match replay::replay(&events) {
        Ok(rep) => rep,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    println!(
        "== Probe: trace replay ({path}, {} records) ==\n",
        events.len()
    );
    print!("{}", report::render(&rep));
    if !rep.summary_matches() {
        eprintln!("\nreplayed summary differs from the recorded run_summary");
        std::process::exit(1);
    }
}

/// Runs a quick search/tuning of a 256³ GEMM on the V100 model with a
/// `JsonlSink` attached, writing the trace to `path`.
fn record_trace(path: &str) {
    let method: String = arg("method", "q".to_string());
    let trials: usize = arg("trials", 40);
    let seed: u64 = arg("seed", 0xF1E2);
    let workers: usize = arg("workers", 1);
    let g = ops::gemm(256, 256, 256);
    let ev = Evaluator::new(Device::Gpu(v100()));
    let sink = JsonlSink::create(path).expect("create trace file");
    let tel = Telemetry::to_sink(sink);
    println!("recording `{method}` run ({trials} trials, seed {seed:#x}) -> {path}");
    if method == "autotvm" {
        let opts = TuneOptions {
            rounds: trials.max(1),
            batch: 16,
            seed,
            eval_workers: workers,
            telemetry: tel,
            ..TuneOptions::default()
        };
        let r = tune(&g, &ev, &opts).expect("tune");
        println!("best: {:.0} GFLOPS", r.best_cost.gflops());
    } else {
        let m = match method.as_str() {
            "p" => Method::PMethod,
            "walk" => Method::RandomWalk,
            _ => Method::QMethod,
        };
        let opts = SearchOptions {
            trials,
            starts: 6,
            initial_samples: 12,
            seed,
            eval_workers: workers,
            telemetry: tel,
            ..SearchOptions::default()
        };
        let r = search(&g, &ev, m, &opts).expect("search");
        println!("best: {:.0} GFLOPS", r.best_cost.gflops());
    }
}
