//! The `serve_mixed` workload: a closed loop of mixed requests against a
//! `SessionServer` over a seeded `TuneDb`.
//!
//! `SESSIONS` client sessions each keep one request outstanding: submit,
//! wait for the ticket, submit the next. Each session is driven by its own
//! thread of this one process. A single thread blocked on one ticket would
//! observe its own head-of-line blocking instead of the server: a hit the
//! server answers in microseconds would read as the duration of an older
//! fresh tune it happened to be queued behind in the client.
//!
//! A round sends the seed's request set against a fresh copy of the
//! database built during set-up, so every round sees the same mix of hits
//! (read path), first requests for unseeded keys (warm-started tune plus
//! `TuneDb::put`) and coalesced repeats. Which request for an unseeded key
//! arrives first depends on thread timing; the class counts and every
//! answer do not.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use flextensor::ir::graph::Graph;
use flextensor::serve::ServerStats;
use flextensor::sim::spec::{v100, Device};
use flextensor::{
    optimize, task_key, OptimizeOptions, OptimizeResult, ServeOptions, ServeResult, ServeSource,
    SessionServer, Task, TuneDb, TuneKey, TuneRunner, Tuned,
};

use crate::calib::{normalize, reference_on};
use crate::cli::Args;
use crate::mirror::{checked_call, Layers};
use crate::report::{per_layer, Report, ServeLayers, END_TO_END, PER_LAYER};
use crate::search::{check_result, SETUP_REPEATS};
use crate::stats::{geomean, median, peak_rss_mb, quantile, ratio};
use crate::tasks::{serve_mix, ServeMix};

/// Client sessions, each with one request outstanding.
const SESSIONS: usize = 4;
/// Server tuning workers (the reference machine's two cores).
const WORKERS: usize = 2;
/// Requests per round for keys tuned during set-up (70%).
const HITS: usize = 336;
/// Requests per round for keys absent from the database: one fresh tune
/// per unseeded key, the rest coalesce onto it.
const MISSES: usize = 144;

/// A scratch directory inside the benchmark's own tree, removed on drop.
struct WorkDir(PathBuf);

impl WorkDir {
    fn new() -> Result<WorkDir, String> {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(".work")
            .join(format!("serve-{}", std::process::id()));
        std::fs::create_dir_all(&dir)
            .map_err(|e| format!("cannot create {}: {e}", dir.display()))?;
        Ok(WorkDir(dir))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn copy_dir(from: &Path, to: &Path) -> Result<(), String> {
    std::fs::create_dir_all(to).map_err(|e| format!("cannot create {}: {e}", to.display()))?;
    let entries =
        std::fs::read_dir(from).map_err(|e| format!("cannot read {}: {e}", from.display()))?;
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let name = path.file_name().ok_or("unnamed database file")?;
        std::fs::copy(&path, to.join(name))
            .map_err(|e| format!("cannot copy {}: {e}", path.display()))?;
    }
    Ok(())
}

fn device() -> Device {
    Device::Gpu(v100())
}

/// The server's configuration: default options (quick tunes with the
/// default search seed) on `WORKERS` workers.
fn serve_options() -> ServeOptions {
    ServeOptions {
        workers: WORKERS,
        commit: "perfbench".to_string(),
        ..ServeOptions::default()
    }
}

/// One tune the server ran, as recorded by [`Recorder`].
struct Tune {
    key: TuneKey,
    task: Task,
    opts: OptimizeOptions,
    result: OptimizeResult,
}

/// The server's tuning engine: `optimize()`, called exactly as the default
/// runner calls it, recording each call's inputs and result so the
/// benchmark can report modeled exploration time, check every schedule,
/// and replay the tunes through the traced search.
#[derive(Default)]
struct Recorder {
    tunes: Mutex<Vec<Tune>>,
}

impl TuneRunner for Recorder {
    fn tune(&self, task: &Task, opts: &OptimizeOptions) -> Result<Tuned, String> {
        let result = optimize(task, opts).map_err(|e| e.to_string())?;
        let tuned = Tuned {
            config: result.config.encode(),
            seconds: result.cost.seconds,
        };
        self.tunes.lock().expect("recorder poisoned").push(Tune {
            key: task_key(&task.graph, &task.device),
            task: task.clone(),
            opts: opts.clone(),
            result,
        });
        Ok(tuned)
    }
}

/// One request's answer (or why it failed) and its latency in seconds.
type Answer = (Result<ServeResult, String>, f64);

/// What one round observed.
struct Round {
    /// Per request of the mix, in mix order.
    answers: Vec<Answer>,
    wall_s: f64,
    open_s: f64,
    stats: ServerStats,
    puts: usize,
    /// Tunes sorted by key.
    tunes: Vec<Tune>,
}

fn request_graph(mix: &ServeMix, g: usize) -> &Graph {
    match mix.requests[g] {
        (true, k) => &mix.seeded[k],
        (false, k) => &mix.unseeded[k],
    }
}

/// Sends one round of requests; request `g` belongs to session
/// `g % SESSIONS`. Answers are checked against the database the round
/// leaves behind: a mismatch replaces the answer by an error.
fn run_round(dir: &Path, mix: &ServeMix, opts: &ServeOptions) -> Result<Round, String> {
    let t = Instant::now();
    let (db, _) = TuneDb::open(dir).map_err(|e| e.to_string())?;
    let open_s = t.elapsed().as_secs_f64();
    let db = Arc::new(db);
    let recorder = Arc::new(Recorder::default());
    let runner: Arc<dyn TuneRunner> = recorder.clone();
    let server = SessionServer::with_runner(Arc::clone(&db), opts.clone(), runner);
    let n = mix.requests.len();
    let start = Instant::now();
    let per_session: Vec<Vec<(usize, Answer)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..SESSIONS)
            .map(|s| {
                let session = server.session(&format!("client-{s}"));
                scope.spawn(move || {
                    (s..n)
                        .step_by(SESSIONS)
                        .map(|g| {
                            let graph = request_graph(mix, g).clone();
                            let t0 = Instant::now();
                            let answer = session.submit(graph, device()).wait();
                            let latency = t0.elapsed().as_secs_f64();
                            (g, (answer.map_err(|e| e.to_string()), latency))
                        })
                        .collect()
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread panicked"))
            .collect()
    });
    let wall_s = start.elapsed().as_secs_f64();
    let stats = server.stats();
    drop(server);
    let puts = db.stats().puts;
    let mut tunes = std::mem::take(&mut *recorder.tunes.lock().expect("recorder poisoned"));
    tunes.sort_by(|a, b| a.key.cmp(&b.key));

    let mut answers: Vec<Option<Answer>> = vec![None; n];
    for (g, (mut answer, latency)) in per_session.into_iter().flatten() {
        if let Ok(r) = &answer {
            answer = match db.peek(&r.key) {
                Some(rec)
                    if rec.config == r.config && rec.seconds.to_bits() == r.seconds.to_bits() =>
                {
                    answer
                }
                Some(_) => Err(format!(
                    "answer for {} differs from its stored record",
                    r.key.flat()
                )),
                None => Err(format!(
                    "no stored record for answered key {}",
                    r.key.flat()
                )),
            };
        }
        answers[g] = Some((answer, latency));
    }
    Ok(Round {
        answers: answers
            .into_iter()
            .map(|a| a.expect("every request answered"))
            .collect(),
        wall_s,
        open_s,
        stats,
        puts,
        tunes,
    })
}

/// Per-run accumulation over rounds. Times are raw wall clock; the
/// end-to-end metrics scale each round by the reference kernel run on
/// `WORKERS` threads after it (see `calib`): a round's work is spread over
/// both cores and ends with the slower one.
#[derive(Default)]
struct Totals {
    /// Per round, the latency of every completed request.
    latency: Vec<Vec<f64>>,
    round_walls: Vec<f64>,
    round_refs: Vec<f64>,
    hit_latency: Vec<f64>,
    queue_wait: Vec<f64>,
    fresh_service: Vec<f64>,
    opens: Vec<f64>,
    completed: usize,
}

impl Totals {
    /// Request latencies scaled to the reference host speed, and the
    /// scaled total request-phase wall time.
    fn scaled(&self) -> (Vec<f64>, f64) {
        let walls = normalize(&self.round_walls, &self.round_refs);
        let latency = self
            .latency
            .iter()
            .zip(walls.iter().zip(&self.round_walls))
            .flat_map(|(round, (scaled, raw))| round.iter().map(move |l| l * scaled / raw))
            .collect();
        (latency, walls.iter().sum())
    }
}

/// Runs `serve_mixed`.
///
/// # Errors
///
/// Returns a message when set-up fails; failed requests and checks are
/// counted in the report instead.
pub fn run(args: &Args) -> Result<Report, String> {
    let work = WorkDir::new()?;
    let mut setups = Vec::new();
    let mut setup_refs = Vec::new();
    let mut seeded: Vec<BTreeMap<TuneKey, (Vec<i64>, u64)>> = Vec::new();
    let mut prepared = None;
    for r in 0..SETUP_REPEATS {
        let t = Instant::now();
        let mix = serve_mix(args.seed, HITS, MISSES);
        let opts = serve_options();
        let dir = work.0.join(format!("seeded-{r}"));
        let (db, _) = TuneDb::open(&dir).map_err(|e| e.to_string())?;
        let db = Arc::new(db);
        {
            let server = SessionServer::new(Arc::clone(&db), opts.clone());
            let session = server.session("seed");
            let tickets: Vec<_> = mix
                .seeded
                .iter()
                .map(|g| session.submit(g.clone(), device()))
                .collect();
            for ticket in tickets {
                ticket.wait().map_err(|e| format!("seeding tune: {e}"))?;
            }
        }
        setups.push(t.elapsed().as_secs_f64());
        setup_refs.push(reference_on(WORKERS));
        seeded.push(
            db.snapshot()
                .into_iter()
                .map(|(k, rec)| (k, (rec.config, rec.seconds.to_bits())))
                .collect(),
        );
        prepared = Some((mix, opts, dir));
    }
    let (mix, opts, template) = prepared.expect("at least one set-up");

    let mut report = Report::default();
    if seeded.windows(2).any(|w| w[0] != w[1]) {
        report.fail("repeated set-ups seeded different database records");
    }
    let deadline = Duration::from_secs(args.seconds);
    let mut totals = Totals::default();
    let mut first: Option<Round> = None;
    let mut layers = Layers::default();
    let start = Instant::now();
    let mut rounds = 0usize;
    while rounds == 0 || start.elapsed() < deadline {
        let dir = work.0.join(format!("round-{rounds}"));
        copy_dir(&template, &dir)?;
        let round = run_round(&dir, &mix, &opts)?;
        totals.round_refs.push(reference_on(WORKERS));
        let _ = std::fs::remove_dir_all(&dir);
        absorb_round(&round, &mix, first.as_ref(), &mut totals, &mut report);
        if first.is_none() {
            if args.trace {
                replay_tunes(&round, &mut layers, &mut report);
            }
            first = Some(round);
        }
        rounds += 1;
    }
    let first = first.expect("at least one round");
    let s = &first.stats;
    let raw_latency = totals.latency.concat();
    let wall_s: f64 = totals.round_walls.iter().sum();
    let (latency, scaled_wall_s) = totals.scaled();
    report.notes.push(format!(
        "{rounds} rounds of {} requests ({} hits, {} fresh, {} coalesced, {} warm starts) \
         in {:.1} s; at reference speed: req_latency_s.p50 {:.6} s, req_latency_s.p90 \
         {:.6} s (n={}), req_per_s {:.1}; raw wall: req_latency_s.p50 {:.6} s, \
         req_latency_s.p90 {:.6} s, hit_latency_s.p50 {:.6} s, hit_latency_s.p90 {:.6} s \
         (n={}), req_per_s {:.1}; reference kernel median {:.2} ms",
        mix.requests.len(),
        s.hits,
        s.misses,
        s.coalesced,
        s.warm_starts,
        start.elapsed().as_secs_f64(),
        median(&latency),
        quantile(&latency, 0.9),
        latency.len(),
        ratio(totals.completed as f64, scaled_wall_s),
        median(&raw_latency),
        quantile(&raw_latency, 0.9),
        median(&totals.hit_latency),
        quantile(&totals.hit_latency, 0.9),
        totals.hit_latency.len(),
        ratio(totals.completed as f64, wall_s),
        median(&totals.round_refs) * 1e3,
    ));
    if args.trace {
        let serve = ServeLayers {
            hit_latency_p50: median(&totals.hit_latency),
            hit_latency_p90: quantile(&totals.hit_latency, 0.9),
            queue_wait_p50: median(&totals.queue_wait),
            queue_wait_p90: quantile(&totals.queue_wait, 0.9),
            fresh_service_p50: median(&totals.fresh_service),
            worker_util: ratio(totals.fresh_service.iter().sum(), WORKERS as f64 * wall_s),
            hits: s.hits,
            fresh: s.misses,
            coalesced: s.coalesced,
            warm_starts: s.warm_starts,
            open_s: median(&totals.opens),
            puts: first.puts,
        };
        report.set_metrics(&PER_LAYER, per_layer(&layers, &serve));
    } else {
        let mut per_key = BTreeMap::new();
        for (g, (answer, _)) in first.answers.iter().enumerate() {
            if let Ok(r) = answer {
                let flops = request_graph(&mix, g).flops() as f64;
                per_key.insert(r.key.clone(), flops / r.seconds / 1e9);
            }
        }
        let gflops: Vec<f64> = per_key.into_values().collect();
        let values = vec![
            median(&latency),
            quantile(&latency, 0.9),
            ratio(totals.completed as f64, scaled_wall_s),
            geomean(&gflops),
            first
                .tunes
                .iter()
                .map(|t| t.result.exploration_time_s)
                .sum(),
            median(&normalize(&setups, &setup_refs)),
            peak_rss_mb()?,
        ];
        report.set_metrics(&END_TO_END, values);
    }
    Ok(report)
}

/// Checks one round and folds its timings into `totals`: seeded keys must
/// hit, each unseeded key must be tuned exactly once with its other
/// requests coalesced, answers must match the first round's, and every
/// tune must pass the search checks.
fn absorb_round(
    round: &Round,
    mix: &ServeMix,
    first: Option<&Round>,
    totals: &mut Totals,
    report: &mut Report,
) {
    totals.round_walls.push(round.wall_s);
    totals.latency.push(Vec::new());
    totals.opens.push(round.open_s);
    let mut fresh_per_key: HashMap<usize, usize> = HashMap::new();
    for (g, (answer, latency)) in round.answers.iter().enumerate() {
        report.attempted += 1;
        let r = match answer {
            Ok(r) => r,
            Err(e) => {
                report.fail(format!("request {g}: {e}"));
                continue;
            }
        };
        let (seeded, k) = mix.requests[g];
        let class_ok = match r.source {
            ServeSource::Hit => seeded,
            ServeSource::Fresh { .. } => {
                *fresh_per_key.entry(k).or_default() += 1;
                !seeded
            }
            ServeSource::Coalesced => !seeded,
        };
        if !class_ok {
            report.fail(format!("request {g} served as {:?}", r.source));
            continue;
        }
        if let Some(Ok(f)) = first.map(|f| &f.answers[g].0) {
            if (&f.config, f.seconds.to_bits()) != (&r.config, r.seconds.to_bits()) {
                report.fail(format!(
                    "request {g} answered differently than in the first round"
                ));
                continue;
            }
        }
        totals.completed += 1;
        if let Some(round_latency) = totals.latency.last_mut() {
            round_latency.push(*latency);
        }
        totals.queue_wait.push(r.queue_wait_s);
        match r.source {
            ServeSource::Hit => totals.hit_latency.push(*latency),
            ServeSource::Fresh { .. } => totals.fresh_service.push(latency - r.queue_wait_s),
            ServeSource::Coalesced => {}
        }
    }
    if fresh_per_key.len() != mix.unseeded.len() || fresh_per_key.values().any(|&c| c != 1) {
        report.fail("a round did not tune every unseeded key exactly once");
    }
    for tune in &round.tunes {
        match check_result(&tune.task, &tune.result) {
            Ok(off) => report.round_trip_off += usize::from(off),
            Err(e) => report.fail(format!("tune of {}: {e}", tune.key.flat())),
        }
    }
    if let Some(f) = first {
        if f.stats != round.stats || f.puts != round.puts {
            report.fail("a round's server or database counts differ from the first round's");
        }
    }
}

/// Replays the round's fresh tunes through the traced search, each paired
/// with a real `optimize()` and checked bit for bit.
fn replay_tunes(round: &Round, layers: &mut Layers, report: &mut Report) {
    for tune in &round.tunes {
        report.attempted += 1;
        if let Err(e) = checked_call(&tune.key.flat(), &tune.task, &tune.opts, layers) {
            report.fail(e);
        }
    }
}
