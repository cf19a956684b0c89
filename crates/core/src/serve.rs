//! Tuning-as-a-service: a concurrent session server over a persistent
//! schedule database.
//!
//! A [`SessionServer`] multiplexes many tuning requests — from many named
//! sessions — over a shared pool of worker threads, backed by a
//! [`TuneDb`]. Each request is classified once, at submit time, against a
//! point-in-time snapshot of the database taken when the server was
//! constructed:
//!
//! - **Hit** — the key is in the snapshot; the stored best record is
//!   returned without running any search.
//! - **Fresh** — the key is new and this request is the first to ask for
//!   it; a search runs (warm-started from the snapshot's nearest-shape
//!   neighbor when one exists) and the result is written to the database.
//! - **Coalesced** — the key is new but an earlier request already
//!   claimed it; this request waits for that result instead of running a
//!   duplicate search.
//!
//! Only fresh tunes ever reach a worker. A hit is answered inside
//! [`Session::submit_with`] from the immutable snapshot, and so is a
//! coalesced request whose key's tune has already finished; a coalesced
//! request whose tune is still queued or running is parked at submit and
//! answered by the worker that finishes it. A tune that returns `Err` or
//! panics fails its key: the primary request, every parked waiter and
//! every later request for the key get the error, and the worker keeps
//! serving.
//!
//! Because classification and warm-start selection read only the
//! snapshot (never the live, concurrently-mutated index), and because
//! search itself is bit-deterministic for a fixed seed, the *result* of
//! every request and all hit/miss/warm/coalesced counts are identical
//! whether requests are served serially or by many workers — only
//! wall-clock (queue wait) differs. `tests/tunedb.rs` proves this.
//!
//! Scheduling across sessions is fair round-robin: each session has its
//! own FIFO queue of fresh tunes, and workers take the next job from the
//! next non-empty queue in rotation, so one chatty session cannot starve
//! another.

use std::collections::{BTreeMap, HashMap, HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

use flextensor_ir::graph::Graph;
use flextensor_sim::spec::Device;
use flextensor_telemetry::{Telemetry, TraceEvent};
use flextensor_tunedb::{nearest, TuneDb, TuneKey, TuneRecord};

use crate::optimize::{optimize, OptimizeOptions, Task};

/// Derives the database key identifying a tuning task.
///
/// - `op` is the operator family: the graph name up to the first `_`
///   (`"gemm"`, `"c2d"`, …), so shape variants of one operator share a
///   namespace and can warm-start each other.
/// - `shape` is the anchor op's spatial extents, then its reduce
///   extents, then the recorded attribute values (stride, padding, …),
///   then the compute-op count (which separates fused variants that
///   share a name prefix and anchor shape).
/// - `target` is the device model name.
pub fn task_key(graph: &Graph, device: &Device) -> TuneKey {
    let op = graph.name.split('_').next().unwrap_or("op");
    let anchor = graph.anchor_op();
    let mut shape: Vec<i64> = anchor.spatial.iter().map(|a| a.extent).collect();
    shape.extend(anchor.reduce.iter().map(|a| a.extent));
    shape.extend(graph.attrs.iter().map(|(_, v)| *v));
    shape.push(graph.compute_ops().count() as i64);
    TuneKey::new(op, shape, device.name())
}

/// The outcome of one tuning run, as the server stores and serves it.
#[derive(Debug, Clone, PartialEq)]
pub struct Tuned {
    /// Canonical integer encoding of the chosen schedule configuration.
    pub config: Vec<i64>,
    /// Modeled execution time of that schedule, seconds.
    pub seconds: f64,
}

/// The tuning engine behind a [`SessionServer`].
///
/// The default engine ([`OptimizeRunner`]) runs the real
/// [`optimize`] flow; tests substitute counting or failing runners to
/// prove exactly-once evaluation and fault isolation.
pub trait TuneRunner: Send + Sync {
    /// Tunes one task. An `Err` fails only the requests for this key;
    /// the server and its other sessions keep running. A panic is
    /// caught and treated as an `Err` naming its message.
    fn tune(&self, task: &Task, opts: &OptimizeOptions) -> Result<Tuned, String>;
}

/// The default [`TuneRunner`]: full FlexTensor optimization.
#[derive(Debug, Clone, Copy, Default)]
pub struct OptimizeRunner;

impl TuneRunner for OptimizeRunner {
    fn tune(&self, task: &Task, opts: &OptimizeOptions) -> Result<Tuned, String> {
        let r = optimize(task, opts).map_err(|e| e.to_string())?;
        Ok(Tuned {
            config: r.config.encode(),
            seconds: r.cost.seconds,
        })
    }
}

/// Options controlling a [`SessionServer`].
#[derive(Debug, Clone)]
pub struct ServeOptions {
    /// Tuning worker threads (min 1). Results and statistics are
    /// identical for every value; only wall-clock changes.
    pub workers: usize,
    /// Base optimization options applied to every fresh tune (seed,
    /// trials, method). Warm-start seeds are layered on per request.
    /// Leave `search.telemetry` unset on multi-worker servers: a single
    /// per-search sink would interleave events from concurrent tunes.
    pub base: OptimizeOptions,
    /// Provenance string stored with every database record (e.g. a VCS
    /// revision).
    pub commit: String,
}

impl Default for ServeOptions {
    fn default() -> ServeOptions {
        ServeOptions {
            workers: 2,
            base: OptimizeOptions::quick(),
            commit: "dev".to_string(),
        }
    }
}

/// Per-request overrides layered on [`ServeOptions::base`] by
/// [`Session::submit_with`]. The default (`SubmitOptions::default()`)
/// reproduces [`Session::submit`] exactly.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SubmitOptions {
    /// Override the fresh-tune trial budget for this request (`None`
    /// keeps `base.search.trials`). The stored database record carries
    /// the effective value.
    pub trials: Option<usize>,
    /// Re-tune a snapshot-present key instead of serving it as a
    /// [`ServeSource::Hit`], warm-starting the search from the key's
    /// *own* stored best configuration. Because the stored best joins
    /// the search history as a seed, the refined result is never worse
    /// than the stored one; the database keeps the better of the two.
    /// Statistics count a refine as a miss plus a warm start. Keys
    /// absent from the snapshot are unaffected. Duplicate in-flight
    /// keys still coalesce.
    pub refine: bool,
    /// Embeds this request's search in a larger trial budget
    /// (forwarded to `SearchOptions::anneal_window`): the Q-method's
    /// ε-anneal tracks `(prior + trial) / total` instead of restarting
    /// per search. Used by round-based dispatchers that split one
    /// budget across warm-started re-tunes.
    pub anneal_window: Option<(usize, usize)>,
}

/// How a request's result was produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServeSource {
    /// Served directly from the database snapshot; no search ran.
    Hit,
    /// A search ran for this request (the first for its key).
    Fresh {
        /// Whether the search was seeded from a nearest-shape
        /// neighbor's stored configuration.
        warm_started: bool,
    },
    /// Deduplicated onto an in-flight or already-completed request for
    /// the same key.
    Coalesced,
}

/// The answer to one tuning request.
#[derive(Debug, Clone, PartialEq)]
pub struct ServeResult {
    /// The task's database key.
    pub key: TuneKey,
    /// Canonical encoding of the chosen schedule.
    pub config: Vec<i64>,
    /// Modeled execution time, seconds.
    pub seconds: f64,
    /// How the result was produced.
    pub source: ServeSource,
    /// Wall-clock seconds from submit until the server acted on the
    /// request: for a fresh tune, until a worker took it; for a request
    /// parked on an in-flight tune, until that tune finished; for a
    /// request answered at submit (a hit, or a coalesced request whose
    /// tune had finished), the time `submit_with` took to answer,
    /// effectively 0. Excluded from determinism guarantees.
    pub queue_wait_s: f64,
}

/// A failed tuning request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError(pub String);

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "tuning request failed: {}", self.0)
    }
}

impl std::error::Error for ServeError {}

/// Per-session counters. All fields except `queue_wait_s` are
/// deterministic for a fixed submission order, regardless of worker
/// count.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SessionStats {
    /// Requests submitted.
    pub submitted: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests that failed (the tune for their key errored or
    /// panicked).
    pub failed: usize,
    /// Requests answered from the database snapshot.
    pub hits: usize,
    /// Requests that triggered a fresh search.
    pub misses: usize,
    /// Fresh searches that were warm-started from a neighbor.
    pub warm_starts: usize,
    /// Requests deduplicated onto another request's search.
    pub coalesced: usize,
    /// Total queue wait, seconds (wall clock; not deterministic).
    pub queue_wait_s: f64,
}

/// Whole-server aggregate of [`SessionStats`].
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerStats {
    /// Total requests submitted across all sessions.
    pub requests: usize,
    /// Requests answered successfully.
    pub completed: usize,
    /// Requests that failed.
    pub failed: usize,
    /// Snapshot hits.
    pub hits: usize,
    /// Fresh searches run.
    pub misses: usize,
    /// Fresh searches that were warm-started.
    pub warm_starts: usize,
    /// Deduplicated requests.
    pub coalesced: usize,
}

/// Fresh jobs queued, tunes in progress, and coalesced requests
/// parked, as read by [`SessionServer::load`]. Wall-clock dependent.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerLoad {
    /// Fresh tunes waiting for a worker.
    pub queued: usize,
    /// Tunes a worker is running.
    pub running: usize,
    /// Coalesced requests waiting for their key's tune to finish.
    pub parked: usize,
}

type Outcome = Result<(Vec<i64>, f64), String>;

/// Where one request's answer goes.
struct Waiter {
    session: usize,
    tx: mpsc::Sender<Result<ServeResult, ServeError>>,
    /// When `submit_with` was called.
    enqueued: Instant,
}

/// A fresh tune: the only work the workers see.
struct Job {
    key: TuneKey,
    graph: Graph,
    device: Device,
    /// Neighbor (or, for refines, own-best) config chosen at submit
    /// time.
    warm: Option<Vec<i64>>,
    /// Per-request overrides recorded at submit time.
    sub: SubmitOptions,
    waiter: Waiter,
}

struct SessionEntry {
    name: String,
    stats: SessionStats,
}

struct State {
    queues: Vec<VecDeque<Job>>,
    rr: usize,
    shutdown: bool,
    /// Keys whose tune finished this run, with their outcome.
    done: HashMap<TuneKey, Outcome>,
    /// Coalesced requests parked until their key lands in `done`.
    waiters: HashMap<TuneKey, Vec<Waiter>>,
    /// Non-snapshot keys already claimed by a Fresh request.
    claimed: HashSet<TuneKey>,
    /// Tunes a worker has taken and not yet answered.
    running: usize,
    sessions: Vec<SessionEntry>,
}

struct Inner {
    db: Arc<TuneDb>,
    snapshot: BTreeMap<TuneKey, TuneRecord>,
    snapshot_keys: Vec<TuneKey>,
    runner: Arc<dyn TuneRunner>,
    opts: ServeOptions,
    state: Mutex<State>,
    cv: Condvar,
}

/// A concurrent tuning server over a shared [`TuneDb`].
///
/// ```
/// use std::sync::Arc;
/// use flextensor::serve::{task_key, ServeOptions, SessionServer};
/// use flextensor_ir::ops;
/// use flextensor_sim::spec::{v100, Device};
/// use flextensor_tunedb::{testutil, TuneDb};
///
/// let db = Arc::new(TuneDb::open(testutil::temp_dir("serve-doc")).unwrap().0);
/// let server = SessionServer::new(Arc::clone(&db), ServeOptions::default());
/// let session = server.session("docs");
/// let ticket = session.submit(ops::gemm(64, 64, 64), Device::Gpu(v100()));
/// let result = ticket.wait().unwrap();
/// assert!(result.seconds > 0.0);
/// assert_eq!(result.key, task_key(&ops::gemm(64, 64, 64), &Device::Gpu(v100())));
/// drop(server); // drains workers; the record is now persisted
/// assert_eq!(db.len(), 1);
/// ```
pub struct SessionServer {
    inner: Arc<Inner>,
    handles: Vec<JoinHandle<()>>,
}

/// A named client of a [`SessionServer`]; created by
/// [`SessionServer::session`].
pub struct Session<'a> {
    server: &'a SessionServer,
    id: usize,
}

/// A pending request handle; redeem with [`Ticket::wait`].
pub struct Ticket {
    rx: mpsc::Receiver<Result<ServeResult, ServeError>>,
}

impl Ticket {
    /// Blocks until the request is answered.
    ///
    /// # Errors
    ///
    /// Returns [`ServeError`] if the tune for this request's key failed,
    /// or if the server was torn down before answering.
    pub fn wait(self) -> Result<ServeResult, ServeError> {
        self.rx
            .recv()
            .unwrap_or_else(|_| Err(ServeError("server shut down before answering".to_string())))
    }
}

impl SessionServer {
    /// Starts a server with the default [`OptimizeRunner`].
    pub fn new(db: Arc<TuneDb>, opts: ServeOptions) -> SessionServer {
        SessionServer::with_runner(db, opts, Arc::new(OptimizeRunner))
    }

    /// Starts a server with a custom tuning engine.
    pub fn with_runner(
        db: Arc<TuneDb>,
        opts: ServeOptions,
        runner: Arc<dyn TuneRunner>,
    ) -> SessionServer {
        let snapshot = db.snapshot();
        let snapshot_keys: Vec<TuneKey> = snapshot.keys().cloned().collect();
        let workers = opts.workers.max(1);
        let inner = Arc::new(Inner {
            db,
            snapshot,
            snapshot_keys,
            runner,
            opts,
            state: Mutex::new(State {
                queues: Vec::new(),
                rr: 0,
                shutdown: false,
                done: HashMap::new(),
                waiters: HashMap::new(),
                claimed: HashSet::new(),
                running: 0,
                sessions: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        let handles = (0..workers)
            .map(|i| {
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("tune-worker-{i}"))
                    .spawn(move || worker_loop(&inner))
                    .expect("spawn tuning worker")
            })
            .collect();
        SessionServer { inner, handles }
    }

    /// Registers a named session. Sessions are cheap; statistics are
    /// reported per session in registration order.
    pub fn session(&self, name: &str) -> Session<'_> {
        let mut st = self.inner.lock();
        let id = st.sessions.len();
        st.sessions.push(SessionEntry {
            name: name.to_string(),
            stats: SessionStats::default(),
        });
        st.queues.push(VecDeque::new());
        Session { server: self, id }
    }

    /// Per-session statistics, in registration order.
    pub fn session_stats(&self) -> Vec<(String, SessionStats)> {
        self.inner
            .lock()
            .sessions
            .iter()
            .map(|s| (s.name.clone(), s.stats.clone()))
            .collect()
    }

    /// Whole-server aggregate statistics.
    pub fn stats(&self) -> ServerStats {
        let st = self.inner.lock();
        let mut agg = ServerStats::default();
        for s in &st.sessions {
            agg.requests += s.stats.submitted;
            agg.completed += s.stats.completed;
            agg.failed += s.stats.failed;
            agg.hits += s.stats.hits;
            agg.misses += s.stats.misses;
            agg.warm_starts += s.stats.warm_starts;
            agg.coalesced += s.stats.coalesced;
        }
        agg
    }

    /// Emits one [`TraceEvent::DbStats`] for the database plus one
    /// [`TraceEvent::SessionStats`] per session (registration order).
    /// After [`strip_wall_clock`](flextensor_telemetry::TraceEvent::strip_wall_clock)
    /// the emitted events are byte-deterministic for a fixed submission
    /// order.
    pub fn emit_stats(&self, telemetry: &Telemetry) {
        let db_stats = self.inner.db.stats();
        let agg = self.stats();
        telemetry.emit(TraceEvent::DbStats {
            records: self.inner.db.len(),
            hits: agg.hits,
            misses: agg.misses,
            warm_starts: agg.warm_starts,
            puts: db_stats.puts,
            dropped: db_stats.lines_dropped,
        });
        for (name, s) in self.session_stats() {
            telemetry.emit(TraceEvent::SessionStats {
                session: name,
                submitted: s.submitted,
                completed: s.completed,
                failed: s.failed,
                hits: s.hits,
                misses: s.misses,
                warm_starts: s.warm_starts,
                coalesced: s.coalesced,
                queue_wait_s: s.queue_wait_s,
            });
        }
    }

    /// The database snapshot the server classifies against.
    pub fn snapshot_len(&self) -> usize {
        self.inner.snapshot.len()
    }

    /// The server's current load. Unlike [`SessionServer::stats`], this
    /// depends on timing and is not deterministic.
    pub fn load(&self) -> ServerLoad {
        let st = self.inner.lock();
        ServerLoad {
            queued: st.queues.iter().map(VecDeque::len).sum(),
            running: st.running,
            parked: st.waiters.values().map(Vec::len).sum(),
        }
    }
}

impl Inner {
    /// Locks the server state, recovering it if poisoned. No runner or
    /// database code runs under this lock, so only a fault in this
    /// module could poison it; the other sessions keep being served.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Drop for SessionServer {
    /// Drains every queued request, then stops the workers. Outstanding
    /// [`Ticket`]s are all answered before this returns.
    fn drop(&mut self) {
        {
            let mut st = self.inner.lock();
            st.shutdown = true;
        }
        self.inner.cv.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl Session<'_> {
    /// Submits a tuning request; returns immediately with a [`Ticket`].
    pub fn submit(&self, graph: Graph, device: Device) -> Ticket {
        self.submit_with(graph, device, SubmitOptions::default())
    }

    /// Submits a tuning request with per-request overrides (trial
    /// budget, refine mode, anneal window); returns immediately with a
    /// [`Ticket`]. See [`SubmitOptions`].
    ///
    /// A snapshot hit, and a coalesced request whose key's tune has
    /// already finished, are answered before this returns; only fresh
    /// tunes are queued for the workers.
    pub fn submit_with(&self, graph: Graph, device: Device, sub: SubmitOptions) -> Ticket {
        let enqueued = Instant::now();
        let inner = &self.server.inner;
        let key = task_key(&graph, &device);
        let (tx, rx) = mpsc::channel();
        let waiter = Waiter {
            session: self.id,
            tx,
            enqueued,
        };
        let stored = inner.snapshot.get(&key);
        let mut guard = inner.lock();
        let st = &mut *guard;
        let stats = &mut st.sessions[self.id].stats;
        stats.submitted += 1;
        if let Some(rec) = stored.filter(|_| !sub.refine) {
            stats.hits += 1;
            let outcome = Ok((rec.config.clone(), rec.seconds));
            let wait_s = elapsed(enqueued);
            waiter.answer(&mut st.sessions, &key, &outcome, ServeSource::Hit, wait_s);
        } else if st.claimed.contains(&key) {
            stats.coalesced += 1;
            if let Some(outcome) = st.done.get(&key) {
                let wait_s = elapsed(enqueued);
                waiter.answer(
                    &mut st.sessions,
                    &key,
                    outcome,
                    ServeSource::Coalesced,
                    wait_s,
                );
            } else {
                // The key's tune is queued or running; its worker
                // answers every parked waiter when it finishes.
                st.waiters.entry(key).or_default().push(waiter);
            }
        } else {
            stats.misses += 1;
            // Warm-start from the snapshot, never the live index:
            // concurrent puts must not change what any request sees.
            // A refine of a snapshot key seeds from its own stored
            // best; anything else from the nearest-shape neighbor.
            let warm = match stored {
                Some(rec) => Some(rec.config.clone()),
                None => nearest(&key, &inner.snapshot_keys)
                    .map(|(k, _)| inner.snapshot[k].config.clone()),
            };
            if warm.is_some() {
                stats.warm_starts += 1;
            }
            st.claimed.insert(key.clone());
            st.queues[self.id].push_back(Job {
                key,
                graph,
                device,
                warm,
                sub,
                waiter,
            });
            drop(guard);
            inner.cv.notify_one();
        }
        Ticket { rx }
    }

    /// The session's registration index (stable for its lifetime).
    pub fn id(&self) -> usize {
        self.id
    }
}

/// Round-robin over per-session queues: resume from the queue after the
/// last one served and take the first non-empty queue.
fn take_next(st: &mut State) -> Option<Job> {
    let n = st.queues.len();
    for off in 0..n {
        let q = (st.rr + off) % n;
        if let Some(job) = st.queues[q].pop_front() {
            st.rr = (q + 1) % n;
            return Some(job);
        }
    }
    None
}

fn worker_loop(inner: &Inner) {
    loop {
        let job = {
            let mut st = inner.lock();
            loop {
                if let Some(job) = take_next(&mut st) {
                    st.running += 1;
                    break job;
                }
                if st.shutdown {
                    return;
                }
                st = inner.cv.wait(st).unwrap_or_else(PoisonError::into_inner);
            }
        };
        process(inner, job);
    }
}

fn elapsed(since: Instant) -> f64 {
    since.elapsed().as_secs_f64()
}

impl Waiter {
    /// Counts the outcome in the waiter's session and sends it.
    fn answer(
        self,
        sessions: &mut [SessionEntry],
        key: &TuneKey,
        outcome: &Outcome,
        source: ServeSource,
        wait_s: f64,
    ) {
        let stats = &mut sessions[self.session].stats;
        stats.queue_wait_s += wait_s;
        let msg = match outcome {
            Ok((config, seconds)) => {
                stats.completed += 1;
                Ok(ServeResult {
                    key: key.clone(),
                    config: config.clone(),
                    seconds: *seconds,
                    source,
                    queue_wait_s: wait_s,
                })
            }
            Err(e) => {
                stats.failed += 1;
                Err(ServeError(e.clone()))
            }
        };
        // A dropped Ticket just discards the answer.
        let _ = self.tx.send(msg);
    }
}

/// Runs one fresh tune, stores its result, and answers the request and
/// every request parked on its key. A panicking runner fails the key
/// like an `Err` would; the worker keeps serving.
fn process(inner: &Inner, job: Job) {
    let wait_s = elapsed(job.waiter.enqueued);
    let warm_started = job.warm.is_some();
    let mut opts = inner.opts.base.clone();
    if let Some(config) = job.warm {
        opts = opts.with_warm_start(vec![config]);
    }
    if let Some(trials) = job.sub.trials {
        opts.search.trials = trials;
    }
    if job.sub.anneal_window.is_some() {
        opts.search.anneal_window = job.sub.anneal_window;
    }
    let task = Task::new(job.graph, job.device);
    let tuned = catch_unwind(AssertUnwindSafe(|| inner.runner.tune(&task, &opts)))
        .unwrap_or_else(|payload| Err(format!("tune panicked: {}", panic_message(&*payload))));
    let outcome: Outcome = tuned.map(|t| {
        // Persist before answering so a crash after the answer never
        // loses the record. A failed append (counted in
        // `DbStats::put_failures`) leaves the in-memory answer valid;
        // the key is simply re-tuned by a future server.
        let _ = inner.db.put(TuneRecord {
            key: job.key.clone(),
            config: t.config.clone(),
            seconds: t.seconds,
            seed: opts.search.seed,
            trials: opts.search.trials,
            commit: inner.opts.commit.clone(),
        });
        (t.config, t.seconds)
    });
    let mut st = inner.lock();
    st.running -= 1;
    let waiters = st.waiters.remove(&job.key).unwrap_or_default();
    let source = ServeSource::Fresh { warm_started };
    job.waiter
        .answer(&mut st.sessions, &job.key, &outcome, source, wait_s);
    for w in waiters {
        let w_wait = elapsed(w.enqueued);
        w.answer(
            &mut st.sessions,
            &job.key,
            &outcome,
            ServeSource::Coalesced,
            w_wait,
        );
    }
    st.done.insert(job.key, outcome);
}

/// The message of a panic payload (`panic!` with a literal or a format
/// string), or a placeholder for any other payload type.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use flextensor_sim::spec::{v100, xeon_e5_2699_v4};
    use flextensor_tunedb::testutil;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// A runner that records every tuned key in order and returns a
    /// deterministic fake result.
    struct RecordingRunner {
        calls: Mutex<Vec<TuneKey>>,
    }

    impl TuneRunner for RecordingRunner {
        fn tune(&self, task: &Task, _opts: &OptimizeOptions) -> Result<Tuned, String> {
            let key = task_key(&task.graph, &task.device);
            self.calls.lock().unwrap().push(key);
            Ok(Tuned {
                config: vec![task.graph.flops() as i64],
                seconds: 1.0,
            })
        }
    }

    fn open_db(tag: &str) -> Arc<TuneDb> {
        Arc::new(TuneDb::open(testutil::temp_dir(tag)).unwrap().0)
    }

    /// A runner that reports each tune it starts, then blocks until the
    /// gate hands it a token or the gate's sender is dropped (or, so a
    /// failing test cannot hang, until [`BOUND`] passes).
    struct GatedRunner {
        started: Mutex<mpsc::Sender<TuneKey>>,
        gate: Mutex<mpsc::Receiver<()>>,
    }

    impl TuneRunner for GatedRunner {
        fn tune(&self, task: &Task, _opts: &OptimizeOptions) -> Result<Tuned, String> {
            let key = task_key(&task.graph, &task.device);
            let _ = self.started.lock().unwrap().send(key);
            let _ = self.gate.lock().unwrap().recv_timeout(BOUND);
            Ok(Tuned {
                config: vec![task.graph.flops() as i64],
                seconds: 1.0,
            })
        }
    }

    /// A gated server, the gate's sender (one token lets one tune
    /// through; dropping it lets every tune through) and the stream of
    /// started tunes.
    fn gated_server(
        db: Arc<TuneDb>,
        workers: usize,
    ) -> (SessionServer, mpsc::Sender<()>, mpsc::Receiver<TuneKey>) {
        let (started_tx, started) = mpsc::channel();
        let (release, gate) = mpsc::channel();
        let runner = GatedRunner {
            started: Mutex::new(started_tx),
            gate: Mutex::new(gate),
        };
        let opts = ServeOptions {
            workers,
            ..ServeOptions::default()
        };
        let server = SessionServer::with_runner(db, opts, Arc::new(runner));
        (server, release, started)
    }

    const BOUND: std::time::Duration = std::time::Duration::from_secs(10);

    fn wait_bounded(ticket: Ticket) -> Result<ServeResult, ServeError> {
        ticket
            .rx
            .recv_timeout(BOUND)
            .expect("ticket not answered in time")
    }

    #[test]
    fn task_key_separates_ops_shapes_and_targets() {
        let gemm_a = task_key(&ops::gemm(64, 64, 64), &Device::Gpu(v100()));
        let gemm_b = task_key(&ops::gemm(64, 64, 128), &Device::Gpu(v100()));
        let gemm_cpu = task_key(&ops::gemm(64, 64, 64), &Device::Cpu(xeon_e5_2699_v4()));
        assert_eq!(gemm_a.op, "gemm");
        assert_ne!(gemm_a, gemm_b);
        assert_ne!(gemm_a, gemm_cpu);
        assert_eq!(
            gemm_a,
            task_key(&ops::gemm(64, 64, 64), &Device::Gpu(v100()))
        );
        let conv = task_key(
            &ops::conv2d(ops::ConvParams::same(1, 16, 16, 3), 14, 14),
            &Device::Gpu(v100()),
        );
        assert_eq!(conv.op, "c2d");
    }

    #[test]
    fn round_robin_alternates_between_sessions() {
        let runner = Arc::new(RecordingRunner {
            calls: Mutex::new(Vec::new()),
        });
        let db = open_db("serve-rr");
        let server = SessionServer::with_runner(
            Arc::clone(&db),
            ServeOptions {
                workers: 1,
                ..ServeOptions::default()
            },
            Arc::clone(&runner) as Arc<dyn TuneRunner>,
        );
        let a = server.session("a");
        let b = server.session("b");
        // Distinct keys per session so every job is Fresh. One worker,
        // so jobs are processed strictly in take_next order.
        let sizes_a = [16, 32, 48];
        let sizes_b = [64, 80, 96];
        let mut tickets = Vec::new();
        {
            // Hold the lock open? No — submissions are fast enough; the
            // single worker drains in round-robin order as long as all
            // jobs are enqueued before it gets the lock. Submit all six
            // first, then wait.
            for (sa, sb) in sizes_a.iter().zip(sizes_b.iter()) {
                tickets.push(a.submit(ops::gemm(*sa, *sa, *sa), Device::Gpu(v100())));
                tickets.push(b.submit(ops::gemm(*sb, *sb, *sb), Device::Gpu(v100())));
            }
        }
        for t in tickets {
            t.wait().unwrap();
        }
        let calls = runner.calls.lock().unwrap();
        assert_eq!(calls.len(), 6);
        // Fairness: within any prefix, the two sessions' counts differ
        // by at most one (strict alternation when both queues are
        // non-empty).
        let mut na = 0usize;
        let mut nb = 0usize;
        for k in calls.iter() {
            if sizes_a.iter().any(|s| k.shape[0] == *s) {
                na += 1;
            } else {
                nb += 1;
            }
            assert!(na.abs_diff(nb) <= 1, "unfair prefix: a={na} b={nb}");
        }
    }

    #[test]
    fn duplicate_keys_are_coalesced_onto_one_tune() {
        struct CountingRunner(AtomicUsize);
        impl TuneRunner for CountingRunner {
            fn tune(&self, task: &Task, _opts: &OptimizeOptions) -> Result<Tuned, String> {
                self.0.fetch_add(1, Ordering::SeqCst);
                Ok(Tuned {
                    config: vec![task.graph.flops() as i64],
                    seconds: 2.5,
                })
            }
        }
        let runner = Arc::new(CountingRunner(AtomicUsize::new(0)));
        let db = open_db("serve-dedup");
        let server = SessionServer::with_runner(
            Arc::clone(&db),
            ServeOptions {
                workers: 4,
                ..ServeOptions::default()
            },
            Arc::clone(&runner) as Arc<dyn TuneRunner>,
        );
        let sessions: Vec<Session<'_>> = (0..4).map(|i| server.session(&format!("s{i}"))).collect();
        let tickets: Vec<Ticket> = sessions
            .iter()
            .map(|s| s.submit(ops::gemm(128, 128, 128), Device::Gpu(v100())))
            .collect();
        let results: Vec<ServeResult> = tickets.into_iter().map(|t| t.wait().unwrap()).collect();
        assert_eq!(runner.0.load(Ordering::SeqCst), 1, "tuned more than once");
        for r in &results {
            assert_eq!(r.seconds, 2.5);
            assert_eq!(r.config, results[0].config);
        }
        let fresh = results
            .iter()
            .filter(|r| matches!(r.source, ServeSource::Fresh { .. }))
            .count();
        let coalesced = results
            .iter()
            .filter(|r| r.source == ServeSource::Coalesced)
            .count();
        assert_eq!((fresh, coalesced), (1, 3));
        let agg = server.stats();
        assert_eq!(agg.requests, 4);
        assert_eq!(agg.misses, 1);
        assert_eq!(agg.coalesced, 3);
        assert_eq!(agg.completed, 4);
        drop(server);
        assert_eq!(db.len(), 1);
    }

    #[test]
    fn snapshot_keys_are_served_as_hits_without_tuning() {
        struct PanicRunner;
        impl TuneRunner for PanicRunner {
            fn tune(&self, _task: &Task, _opts: &OptimizeOptions) -> Result<Tuned, String> {
                Err("should never run".to_string())
            }
        }
        let db = open_db("serve-hit");
        let g = ops::gemm(64, 64, 64);
        let key = task_key(&g, &Device::Gpu(v100()));
        db.put(TuneRecord {
            key: key.clone(),
            config: vec![7, 7, 7],
            seconds: 0.5,
            seed: 1,
            trials: 0,
            commit: "seeded".to_string(),
        })
        .unwrap();
        let server = SessionServer::with_runner(db, ServeOptions::default(), Arc::new(PanicRunner));
        let s = server.session("reader");
        let r = s.submit(g, Device::Gpu(v100())).wait().unwrap();
        assert_eq!(r.source, ServeSource::Hit);
        assert_eq!(r.config, vec![7, 7, 7]);
        assert_eq!(r.seconds, 0.5);
        assert_eq!(server.stats().hits, 1);
        assert_eq!(server.stats().misses, 0);
    }

    #[test]
    fn hits_and_finished_repeats_never_wait_for_a_worker() {
        let db = open_db("serve-no-wait");
        let hit = ops::gemm(64, 64, 64);
        db.put(TuneRecord {
            key: task_key(&hit, &Device::Gpu(v100())),
            config: vec![7, 7, 7],
            seconds: 0.5,
            seed: 1,
            trials: 0,
            commit: "seeded".to_string(),
        })
        .unwrap();
        let (server, release, started) = gated_server(db, 2);
        let s = server.session("client");
        let gpu = || Device::Gpu(v100());
        // Let one tune through and wait for it: its key is now done.
        release.send(()).unwrap();
        let done = ops::gemv(256, 256);
        let first = wait_bounded(s.submit(done.clone(), gpu())).unwrap();
        assert!(matches!(first.source, ServeSource::Fresh { .. }));
        // Hold every worker in a tune.
        let held = [
            s.submit(ops::gemm(96, 96, 96), gpu()),
            s.submit(ops::gemm(128, 128, 128), gpu()),
        ];
        for _ in 0..3 {
            started.recv_timeout(BOUND).expect("tune did not start");
        }
        let r = wait_bounded(s.submit(hit, gpu())).unwrap();
        assert_eq!((r.source, r.config), (ServeSource::Hit, vec![7, 7, 7]));
        let r = wait_bounded(s.submit(done, gpu())).unwrap();
        assert_eq!(r.source, ServeSource::Coalesced);
        assert_eq!(r.config, first.config);
        assert_eq!(server.load().running, 2);
        drop(release);
        for t in held {
            assert!(matches!(
                wait_bounded(t).unwrap().source,
                ServeSource::Fresh { .. }
            ));
        }
    }

    #[test]
    fn load_counts_queued_running_and_parked_requests() {
        let (server, release, started) = gated_server(open_db("serve-load"), 2);
        let s = server.session("client");
        let gpu = || Device::Gpu(v100());
        assert_eq!(server.load(), ServerLoad::default());
        let mut tickets = vec![
            s.submit(ops::gemm(32, 32, 32), gpu()),
            s.submit(ops::gemm(48, 48, 48), gpu()),
        ];
        for _ in 0..2 {
            started.recv_timeout(BOUND).expect("tune did not start");
        }
        tickets.push(s.submit(ops::gemm(64, 64, 64), gpu()));
        tickets.push(s.submit(ops::gemm(32, 32, 32), gpu()));
        assert_eq!(
            server.load(),
            ServerLoad {
                queued: 1,
                running: 2,
                parked: 1
            }
        );
        drop(release);
        for t in tickets {
            wait_bounded(t).unwrap();
        }
        assert_eq!(server.load(), ServerLoad::default());
    }

    #[test]
    fn fresh_keys_warm_start_from_the_snapshot_neighbor() {
        let runner = Arc::new(RecordingRunner {
            calls: Mutex::new(Vec::new()),
        });
        let db = open_db("serve-warm");
        let seed_g = ops::gemm(64, 64, 64);
        db.put(TuneRecord {
            key: task_key(&seed_g, &Device::Gpu(v100())),
            config: vec![1, 2, 3],
            seconds: 0.9,
            seed: 1,
            trials: 0,
            commit: "seeded".to_string(),
        })
        .unwrap();
        let server = SessionServer::with_runner(
            Arc::clone(&db),
            ServeOptions::default(),
            Arc::clone(&runner) as Arc<dyn TuneRunner>,
        );
        let s = server.session("warm");
        let r = s
            .submit(ops::gemm(128, 128, 128), Device::Gpu(v100()))
            .wait()
            .unwrap();
        assert_eq!(r.source, ServeSource::Fresh { warm_started: true });
        assert_eq!(server.stats().warm_starts, 1);
        // A different op family gets no neighbor.
        let r2 = s
            .submit(ops::gemv(256, 256), Device::Gpu(v100()))
            .wait()
            .unwrap();
        assert_eq!(
            r2.source,
            ServeSource::Fresh {
                warm_started: false
            }
        );
    }

    #[test]
    fn refine_retunes_snapshot_keys_from_their_own_best() {
        /// One captured tune call: trials, warm-start seeds, anneal window.
        type SpiedCall = (usize, Vec<Vec<i64>>, Option<(usize, usize)>);
        /// Captures the effective options of every tune call.
        struct SpyRunner {
            calls: Mutex<Vec<SpiedCall>>,
        }
        impl TuneRunner for SpyRunner {
            fn tune(&self, _task: &Task, opts: &OptimizeOptions) -> Result<Tuned, String> {
                self.calls.lock().unwrap().push((
                    opts.search.trials,
                    opts.search.warm_start.clone(),
                    opts.search.anneal_window,
                ));
                Ok(Tuned {
                    config: vec![9],
                    seconds: 0.25,
                })
            }
        }
        let db = open_db("serve-refine");
        let g = ops::gemm(64, 64, 64);
        let key = task_key(&g, &Device::Gpu(v100()));
        db.put(TuneRecord {
            key: key.clone(),
            config: vec![7, 7, 7],
            seconds: 0.5,
            seed: 1,
            trials: 0,
            commit: "seeded".to_string(),
        })
        .unwrap();
        let runner = Arc::new(SpyRunner {
            calls: Mutex::new(Vec::new()),
        });
        let server = SessionServer::with_runner(
            Arc::clone(&db),
            ServeOptions::default(),
            Arc::clone(&runner) as Arc<dyn TuneRunner>,
        );
        let s = server.session("refiner");
        let sub = SubmitOptions {
            trials: Some(5),
            refine: true,
            anneal_window: Some((10, 40)),
        };
        let r = s
            .submit_with(g.clone(), Device::Gpu(v100()), sub)
            .wait()
            .unwrap();
        // A refine is a warm-started fresh tune, not a hit.
        assert_eq!(r.source, ServeSource::Fresh { warm_started: true });
        assert_eq!(r.seconds, 0.25);
        let stats = server.stats();
        assert_eq!((stats.hits, stats.misses, stats.warm_starts), (0, 1, 1));
        // Duplicate refines coalesce like any in-flight key.
        let r2 = s
            .submit_with(g.clone(), Device::Gpu(v100()), sub)
            .wait()
            .unwrap();
        assert_eq!(r2.source, ServeSource::Coalesced);
        let calls = runner.calls.lock().unwrap();
        assert_eq!(calls.len(), 1, "refine must tune exactly once");
        let (trials, warm, window) = &calls[0];
        assert_eq!(*trials, 5, "per-request trial override applies");
        assert_eq!(warm.as_slice(), [vec![7, 7, 7]], "seeded from own best");
        assert_eq!(*window, Some((10, 40)));
        // Without refine, the same key is still a snapshot hit.
        let r3 = s.submit(g, Device::Gpu(v100())).wait().unwrap();
        assert_eq!(r3.source, ServeSource::Hit);
        assert_eq!(r3.config, vec![7, 7, 7]);
        drop(server);
        // The index keeps the better record (the refined 0.25 s one).
        assert_eq!(db.peek(&key).unwrap().seconds, 0.25);
    }

    #[test]
    fn default_submit_options_reproduce_submit() {
        let runner = Arc::new(RecordingRunner {
            calls: Mutex::new(Vec::new()),
        });
        let db = open_db("serve-subopts");
        let server = SessionServer::with_runner(
            Arc::clone(&db),
            ServeOptions::default(),
            Arc::clone(&runner) as Arc<dyn TuneRunner>,
        );
        let s = server.session("defaults");
        let a = s
            .submit(ops::gemm(32, 32, 32), Device::Gpu(v100()))
            .wait()
            .unwrap();
        let b = s
            .submit_with(
                ops::gemv(64, 64),
                Device::Gpu(v100()),
                SubmitOptions::default(),
            )
            .wait()
            .unwrap();
        assert!(matches!(a.source, ServeSource::Fresh { .. }));
        assert!(matches!(b.source, ServeSource::Fresh { .. }));
        assert_eq!(server.stats().misses, 2);
    }

    #[test]
    fn emit_stats_produces_db_and_session_events() {
        use flextensor_telemetry::{MemorySink, Telemetry};
        let runner = Arc::new(RecordingRunner {
            calls: Mutex::new(Vec::new()),
        });
        let db = open_db("serve-emit");
        let server = SessionServer::with_runner(
            Arc::clone(&db),
            ServeOptions::default(),
            Arc::clone(&runner) as Arc<dyn TuneRunner>,
        );
        let a = server.session("alpha");
        let b = server.session("beta");
        a.submit(ops::gemm(32, 32, 32), Device::Gpu(v100()))
            .wait()
            .unwrap();
        b.submit(ops::gemm(32, 32, 32), Device::Gpu(v100()))
            .wait()
            .unwrap();
        let sink = Arc::new(MemorySink::default());
        let telemetry = Telemetry::new(sink.clone());
        server.emit_stats(&telemetry);
        let events = sink.events();
        assert_eq!(events.len(), 3);
        match &events[0] {
            TraceEvent::DbStats {
                records, misses, ..
            } => {
                assert_eq!(*records, 1);
                assert_eq!(*misses, 1);
            }
            other => panic!("expected DbStats, got {other:?}"),
        }
        match &events[1] {
            TraceEvent::SessionStats {
                session, submitted, ..
            } => {
                assert_eq!(session, "alpha");
                assert_eq!(*submitted, 1);
            }
            other => panic!("expected SessionStats, got {other:?}"),
        }
    }

    #[test]
    fn real_optimize_runner_round_trips_through_the_db() {
        let db = open_db("serve-real");
        let g = ops::gemm(64, 64, 64);
        {
            let server = SessionServer::new(Arc::clone(&db), ServeOptions::default());
            let s = server.session("first");
            let r = s.submit(g.clone(), Device::Gpu(v100())).wait().unwrap();
            assert!(matches!(r.source, ServeSource::Fresh { .. }));
            assert!(r.seconds > 0.0);
        }
        // A second server over the same directory serves the key as a hit.
        let (db2, report) = TuneDb::open(db.dir()).unwrap();
        assert_eq!(report.lines_dropped, 0);
        let server = SessionServer::new(Arc::new(db2), ServeOptions::default());
        let s = server.session("second");
        let r = s.submit(g, Device::Gpu(v100())).wait().unwrap();
        assert_eq!(r.source, ServeSource::Hit);
    }
}
