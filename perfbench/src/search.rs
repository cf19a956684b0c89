//! The `search_q` and `search_p` workloads: `optimize()` over a seeded
//! pass of Table 3 tasks with default search options.

use std::time::{Duration, Instant};

use flextensor::ir::suite::{test_cases, OperatorKind};
use flextensor::sim::model::Evaluator;
use flextensor::{optimize, Method, OptimizeOptions, OptimizeResult, SearchOptions, Task};

use crate::calib::{normalize, reference};
use crate::cli::Args;
use crate::mirror::{checked_call, Fingerprint, Layers};
use crate::report::{per_layer, Report, ServeLayers, END_TO_END, PER_LAYER};
use crate::stats::{geomean, median, peak_rss_mb, quantile, ratio};
use crate::tasks::{devices, search_pass, SearchTask, PICKS_PER_KIND};

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;

fn options(method: Method, seed: u64) -> OptimizeOptions {
    OptimizeOptions {
        method,
        search: SearchOptions {
            seed,
            ..SearchOptions::default()
        },
    }
}

/// The result checks every call must pass: the configuration is valid
/// for the root op, and a from-scratch `Evaluator::evaluate` of it gives
/// the reported cost.
///
/// The search ranks points by `E = 1 / seconds` and reports `1 / E`, so
/// the reported cost is the model's after a reciprocal round trip, which
/// can differ from it in the last bit. The check demands exactly that
/// round trip's bits and returns whether it changed the model's value,
/// so every run counts how often the reported cost is not the model's.
pub fn check_result(task: &Task, r: &OptimizeResult) -> Result<bool, String> {
    r.config.validate(task.graph.root_op())?;
    let model = Evaluator::new(task.device.clone())
        .evaluate(&task.graph, &r.config)
        .ok_or("the chosen schedule re-evaluates as infeasible")?
        .seconds;
    let round_trip = 1.0 / (1.0 / model);
    if round_trip.to_bits() != r.cost.seconds.to_bits() {
        return Err(format!(
            "reported cost {} s is not the re-evaluated {model} s",
            r.cost.seconds
        ));
    }
    Ok(model.to_bits() != round_trip.to_bits())
}

/// Runs a search workload.
///
/// # Errors
///
/// Returns a message when set-up fails; failed calls are counted in the
/// report instead.
pub fn run(method: Method, args: &Args) -> Result<Report, String> {
    // Set-up: draw the pass, build the tasks, and warm the process with
    // one call, so the timed phase measures steady-state calls. The warm-up
    // task is the same for every seed: call times differ tenfold between
    // tasks, and a seed-drawn warm-up would make `setup_s` mostly measure
    // which task was drawn first.
    let warm_up = Task::new(
        test_cases(OperatorKind::Gemm)[0].clone(),
        devices()[0].clone(),
    );
    let mut setups = Vec::new();
    let mut setup_refs = Vec::new();
    let mut prepared = None;
    for _ in 0..SETUP_REPEATS {
        let t = Instant::now();
        let pass = search_pass(args.seed);
        let tasks: Vec<Task> = pass
            .iter()
            .map(|s| Task::new(s.graph.clone(), s.device.clone()))
            .collect();
        optimize(&warm_up, &options(method, SearchOptions::default().seed))
            .map_err(|e| format!("warm-up call: {e}"))?;
        setups.push(t.elapsed().as_secs_f64());
        setup_refs.push(reference());
        prepared = Some((pass, tasks));
    }
    let (pass, tasks) = prepared.expect("at least one set-up");
    let deadline = Duration::from_secs(args.seconds);
    let mut report = Report::default();
    if args.trace {
        traced(method, &pass, &tasks, deadline, &mut report);
    } else {
        untraced(
            method,
            &pass,
            &tasks,
            deadline,
            median(&normalize(&setups, &setup_refs)),
            &mut report,
        )?;
    }
    Ok(report)
}

/// Runs calls in pass order until the deadline, finishing at least one
/// whole pass. Quality metrics come from the first pass; every later call
/// of a task must reproduce its first result exactly. Each call is
/// followed by the reference kernel, which scales it to the reference
/// host speed.
fn untraced(
    method: Method,
    pass: &[SearchTask],
    tasks: &[Task],
    deadline: Duration,
    setup_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let n = pass.len();
    let mut first: Vec<Option<Fingerprint>> = vec![None; n];
    let mut walls = Vec::new();
    let mut refs = Vec::new();
    let mut trials = 0usize;
    let mut gflops = Vec::new();
    let mut explore_s = 0.0;
    let start = Instant::now();
    let mut i = 0;
    while i < n || start.elapsed() < deadline {
        let k = i % n;
        i += 1;
        report.attempted += 1;
        let label = &pass[k].label;
        let t = Instant::now();
        let r = optimize(&tasks[k], &options(method, pass[k].search_seed));
        let wall = t.elapsed().as_secs_f64();
        let r = match r {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("{label}: {e}"));
                continue;
            }
        };
        match check_result(&tasks[k], &r) {
            Ok(off) => report.round_trip_off += usize::from(off),
            Err(e) => {
                report.fail(format!("{label}: {e}"));
                continue;
            }
        }
        walls.push(wall);
        refs.push(reference());
        trials += r.trace.last().map_or(0, |p| p.trial);
        let fp = Fingerprint::of(&r);
        match &first[k] {
            None => {
                gflops.push(r.gflops());
                explore_s += r.exploration_time_s;
                first[k] = Some(fp);
            }
            Some(f) if *f != fp => {
                report.fail(format!("{label}: a repeated call changed its result"))
            }
            Some(_) => {}
        }
    }
    let scaled = normalize(&walls, &refs);
    let values = vec![
        median(&scaled),
        quantile(&scaled, 0.9),
        ratio(trials as f64, scaled.iter().sum()),
        geomean(&gflops),
        explore_s,
        setup_s,
        peak_rss_mb()?,
    ];
    report.notes.push(format!(
        "{} calls ({} tasks per pass, {} passes begun) in {:.1} s; at reference speed: \
         tune_s.p50 {:.4} s, tune_s.p90 {:.4} s, trials_per_s {:.1}; raw wall: tune_s.p50 \
         {:.4} s, tune_s.p90 {:.4} s; reference kernel median {:.2} ms; \
         best_gflops_geomean {:.3}, modeled_explore_s {:.3}",
        walls.len(),
        n,
        i.div_ceil(n),
        start.elapsed().as_secs_f64(),
        values[0],
        values[1],
        values[2],
        median(&walls),
        quantile(&walls, 0.9),
        median(&refs) * 1e3,
        values[3],
        values[4]
    ));
    report.set_metrics(&END_TO_END, values);
    Ok(())
}

/// Runs the first block of the pass (one task per operator kind) through
/// the traced mirror, each call paired with a real `optimize()`, in whole
/// repeats until the deadline. Counts are therefore the same on every
/// run of a seed.
fn traced(
    method: Method,
    pass: &[SearchTask],
    tasks: &[Task],
    deadline: Duration,
    report: &mut Report,
) {
    let block = pass.len() / PICKS_PER_KIND;
    let mut layers = Layers::default();
    let mut first: Vec<Option<Fingerprint>> = vec![None; block];
    let start = Instant::now();
    let mut repeats = 0;
    loop {
        let t = Instant::now();
        for k in 0..block {
            report.attempted += 1;
            let label = &pass[k].label;
            let r = checked_call(
                label,
                &tasks[k],
                &options(method, pass[k].search_seed),
                &mut layers,
            )
            .and_then(|r| match check_result(&tasks[k], &r) {
                Ok(_) => Ok(Fingerprint::of(&r)),
                Err(e) => Err(format!("{label}: {e}")),
            });
            match (r, &first[k]) {
                (Err(e), _) => report.fail(e),
                (Ok(fp), None) => first[k] = Some(fp),
                (Ok(fp), Some(f)) if fp != *f => {
                    report.fail(format!("{label}: a repeated call changed its result"))
                }
                (Ok(_), Some(_)) => {}
            }
        }
        repeats += 1;
        if start.elapsed() + t.elapsed() > deadline {
            break;
        }
    }
    report.notes.push(format!(
        "traced {} calls ({block} tasks x {repeats} repeats), every one matching search() \
         bit for bit unless reported above",
        layers.calls
    ));
    report.set_metrics(&PER_LAYER, per_layer(&layers, &ServeLayers::default()));
}
