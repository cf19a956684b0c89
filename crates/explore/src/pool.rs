//! Parallel candidate evaluation (§5.2's parallel back-end), memoized
//! when the caller asks for it.
//!
//! The real FlexTensor amortizes its ≤ 1 s compile+measure overhead by
//! evaluating a trial's candidate points concurrently. This module is the
//! reproduction's equivalent for the analytical evaluator:
//!
//! * [`MemoCache`] — a concurrent (sharded, `Send + Sync`) memo table
//!   keyed on the canonical [`NodeConfig::encode`] form, with hit/miss
//!   counters, so repeat visits cost zero modeled and zero real time;
//! * [`EvalPool`] — a persistent worker pool that fans a batch of
//!   candidate points out over `eval_workers` threads and reduces the
//!   results in the **fixed candidate order**, so every search driver
//!   built on it is bit-for-bit deterministic in the worker count.
//!
//! A pool built with a cache capacity of 0 keeps no memo: it resolves
//! only duplicates within one batch. The search builds its pool that way,
//! because its history already holds every point it evaluated and it
//! never submits one of those again. Callers that do resubmit
//! points (the AutoTVM baseline, probes, tests) keep a memo.
//!
//! Workers evaluate through a shared split-phase
//! [`LoweredTemplate`]: the config-independent half of
//! lowering is computed once when the pool is built, and each candidate
//! only pays the cheap config-apply step (identical results to a full
//! re-lowering — see `docs/PERFORMANCE.md`). The re-lowering path is kept
//! behind [`EvalPool::new_reference`] for differential tests and the
//! `probe_perf` baseline. Each candidate is scored with
//! [`Evaluator::time_features`] right where its features are derived.
//! Each candidate's key is built and hashed once: by the pool for plain
//! batches, and by the caller for neighbor batches, which arrive with
//! their keys ([`KeyBatch`]). Neighbor batches also lower each base with
//! two or more fresh neighbors once and patch only the features a
//! neighbor's move can affect ([`EvalPool::evaluate_batch_delta`]).
//!
//! Determinism argument: the evaluator is a pure function of
//! `(graph, config)`, candidate batches are constructed before any
//! evaluation starts, per-candidate results land in pre-assigned slots,
//! and all cache bookkeeping happens on the coordinating thread in batch
//! order. Thread scheduling can therefore change *wall-clock time only*,
//! never a result or a counter.

use std::any::Any;
use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use flextensor_ir::graph::Graph;
use flextensor_schedule::config::NodeConfig;
use flextensor_schedule::delta::{delta_features_with, DeltaScratch};
use flextensor_schedule::features::KernelFeatures;
use flextensor_schedule::template::LoweredTemplate;
use flextensor_sim::model::{Cost, Evaluator};
use flextensor_telemetry::{Telemetry, TraceEvent};

pub use crate::table::hash_key;
use crate::table::KeyTable;

/// Number of independent shards in a [`MemoCache`]; bounds coordinator /
/// worker contention when the cache is shared across threads.
const CACHE_SHARDS: usize = 16;

/// Template-path batches at or below this many fresh evaluations run on
/// the coordinator instead of fanning out. Through the split-phase
/// template a fresh evaluation costs ~0.3 µs, while waking the worker
/// threads, cloning the work subset into the job, and collecting results
/// costs tens of µs per batch — measured on the probe hardware, fan-out
/// only breaks even around a thousand fresh template-path candidates.
/// Reference pools re-lower every candidate (~2 orders of magnitude more
/// work per point), so they fan out for any non-trivial batch. The
/// outcome of a batch is identical either way; only wall-clock changes.
const INLINE_BATCH: usize = 1024;

/// Fan-out work-claim granularity: a worker claims this many candidates
/// per `fetch_add`, trading claim traffic on the shared counter against
/// load balance. Result slots are pre-assigned per candidate, so the
/// chunk size only changes load balancing — never a result or a counter.
const WORKER_CHUNK: usize = 32;

/// FNV-1a for the pool's integer-keyed maps. The standard library's
/// default hasher (SipHash) is keyed for DoS resistance, which the pool
/// does not need: keys are canonical config encodings produced by the
/// search itself, never external input — with short `i64`-word keys,
/// FNV's one xor-multiply per word is several times cheaper.
/// Deterministic across runs and platforms.
#[derive(Debug, Clone, Copy)]
struct FnvHasher(u64);

impl Default for FnvHasher {
    fn default() -> FnvHasher {
        FnvHasher(0xcbf2_9ce4_8422_2325) // FNV-1a 64-bit offset basis
    }
}

impl Hasher for FnvHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        let mut h = self.0;
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x1000_0000_01b3);
        }
        self.0 = h;
    }

    // Word-at-a-time fast paths: config keys hash as a run of `i64`s plus
    // a `usize` length prefix, so these cover every write the pool does.
    fn write_u64(&mut self, v: u64) {
        self.0 = (self.0 ^ v).wrapping_mul(0x1000_0000_01b3);
    }

    fn write_i64(&mut self, v: i64) {
        self.write_u64(v as u64);
    }

    fn write_usize(&mut self, v: usize) {
        self.write_u64(v as u64);
    }
}

/// A `HashMap` using [`FnvHasher`].
type FnvMap<K, V> = HashMap<K, V, BuildHasherDefault<FnvHasher>>;

/// A concurrent, bounded memo table for evaluation results.
///
/// Keys are the canonical integer encoding of a schedule point
/// ([`NodeConfig::encode`]); values are the evaluator's verdict, including
/// `None` for infeasible points, so infeasibility is memoized too.
/// Internally each shard is the crate's open-addressed key table with
/// keys packed in a flat arena, so a warm insert allocates nothing. No
/// caller code runs while a shard lock is held, so a panic elsewhere
/// cannot leave a shard half-updated: a poisoned shard lock is recovered,
/// not propagated.
///
/// Bounding: each shard holds at most `capacity / CACHE_SHARDS` entries
/// and is *flushed* (generationally cleared) when an insert would
/// overflow it — simple, allocation-friendly, and deterministic as long
/// as inserts happen in a deterministic order. A capacity of 0 makes a
/// memo that holds nothing: it has no shards, every lookup misses and
/// every insert is dropped.
#[derive(Debug)]
pub struct MemoCache {
    shards: Vec<Mutex<KeyTable<Option<Cost>>>>,
    per_shard_capacity: usize,
    hits: AtomicUsize,
    misses: AtomicUsize,
}

impl MemoCache {
    /// A cache holding at most (approximately) `capacity` entries; none
    /// at all when `capacity` is 0.
    pub fn new(capacity: usize) -> MemoCache {
        let shards = if capacity == 0 { 0 } else { CACHE_SHARDS };
        MemoCache {
            shards: (0..shards)
                .map(|_| Mutex::new(KeyTable::default()))
                .collect(),
            per_shard_capacity: (capacity / CACHE_SHARDS).max(1),
            hits: AtomicUsize::new(0),
            misses: AtomicUsize::new(0),
        }
    }

    /// Whether this memo holds entries at all (capacity above 0).
    fn stores(&self) -> bool {
        !self.shards.is_empty()
    }

    /// Locks the shard for `hash` ([`hash_key`]; its low bits pick the
    /// shard), or `None` for a memo that holds nothing. Poisoning is
    /// recovered: every shard update is a plain table write with no caller
    /// code inside the lock, so a shard is consistent whenever its lock is
    /// released.
    fn shard(&self, hash: u64) -> Option<MutexGuard<'_, KeyTable<Option<Cost>>>> {
        let shard = self.shards.get((hash % CACHE_SHARDS as u64) as usize)?;
        Some(shard.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// Looks a key up **without** touching the hit/miss counters (the
    /// counters record lookups-with-intent, see [`MemoCache::count_hits`]).
    pub fn peek(&self, key: &[i64]) -> Option<Option<Cost>> {
        self.peek_hashed(hash_key(key), key)
    }

    /// [`MemoCache::peek`] with a precomputed [`hash_key`] of `key`.
    pub fn peek_hashed(&self, hash: u64, key: &[i64]) -> Option<Option<Cost>> {
        let shard = self.shard(hash)?;
        shard.get(hash, key).map(|id| *shard.value(id))
    }

    /// Inserts an evaluation result, flushing the target shard first when
    /// it is at capacity. The key is copied into the shard's arena; no
    /// per-entry allocation happens on a warm shard.
    pub fn insert(&self, key: &[i64], value: Option<Cost>) {
        self.insert_hashed(hash_key(key), key, value)
    }

    /// [`MemoCache::insert`] with a precomputed [`hash_key`] of `key`.
    pub fn insert_hashed(&self, hash: u64, key: &[i64], value: Option<Cost>) {
        let Some(mut shard) = self.shard(hash) else {
            return;
        };
        let full = shard.len() >= self.per_shard_capacity
            || shard.arena_len() + key.len() > u32::MAX as usize;
        if full && shard.get(hash, key).is_none() {
            // The insert would overflow the shard: generational flush.
            shard.clear();
        }
        shard.insert(hash, key, value);
    }

    /// Records `n` lookups answered without an evaluation: from the memo,
    /// or from an earlier duplicate in the same batch.
    pub fn count_hits(&self, n: usize) {
        self.hits.fetch_add(n, Ordering::Relaxed);
    }

    /// Records `n` lookups that required a fresh evaluation.
    pub fn count_misses(&self, n: usize) {
        self.misses.fetch_add(n, Ordering::Relaxed);
    }

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().unwrap_or_else(PoisonError::into_inner).len())
            .sum()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups answered without an evaluation so far.
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that required a fresh evaluation so far.
    pub fn misses(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }
}

/// Per-search evaluation statistics, surfaced through
/// [`SearchResult`](crate::methods::SearchResult) and the bench harness.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct EvalStats {
    /// Fresh evaluations resolved by this pool (cache misses). Includes
    /// candidates the analyzer gate rejected statically; those are also
    /// counted in `pruned`.
    pub evaluated: usize,
    /// Lookups answered without a fresh evaluation: memo hits and
    /// in-batch duplicates (only the latter for a pool without a memo).
    pub cache_hits: usize,
    /// Lookups that required a fresh evaluation.
    pub cache_misses: usize,
    /// Candidates the analyzer gate rejected before the cost model ran
    /// (always 0 when the gate is off).
    pub pruned: usize,
    /// Worker threads used for evaluation.
    pub workers: usize,
    /// Real time spent inside batched evaluation, seconds.
    pub wall_clock_s: f64,
    /// Fresh evaluations whose features were patched from their base's
    /// ([`EvalPool::evaluate_batch_delta`]).
    /// `delta_hits + delta_full == evaluated`.
    pub delta_hits: usize,
    /// Fresh evaluations whose features were lowered in full: plain
    /// batches, a base with fewer than two fresh neighbors, a base that
    /// does not validate, `inline_data` flips, and reference pools.
    pub delta_full: usize,
}

impl EvalStats {
    /// Total cache lookups.
    ///
    /// ```
    /// use flextensor_explore::pool::EvalStats;
    ///
    /// let stats = EvalStats {
    ///     evaluated: 40,
    ///     cache_hits: 10,
    ///     cache_misses: 40,
    ///     pruned: 0,
    ///     workers: 4,
    ///     wall_clock_s: 0.2,
    ///     delta_hits: 0,
    ///     delta_full: 0,
    /// };
    /// assert_eq!(stats.lookups(), 50);
    /// assert!((stats.hit_rate() - 0.2).abs() < 1e-12);
    /// ```
    pub fn lookups(&self) -> usize {
        self.cache_hits + self.cache_misses
    }

    /// Fraction of lookups answered from the cache (0 when none yet).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.lookups() as f64
        }
    }
}

/// The outcome of one candidate in a batch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalOutcome {
    /// The evaluator's verdict (`None` = infeasible).
    pub cost: Option<Cost>,
    /// `true` when this batch ran the evaluator for the point; `false`
    /// when the memo cache (or an earlier duplicate in the same batch)
    /// already knew the answer. Fresh evaluations are the ones that cost
    /// modeled measurement time.
    pub fresh: bool,
    /// `true` when the static analyzer gate rejected the point before the
    /// cost model ran (implies `cost == None`; such candidates cost no
    /// modeled measurement time).
    pub pruned: bool,
}

/// The keys of a candidate batch: each candidate's [`NodeConfig::encode`]
/// words, back to back in one buffer, with its [`hash_key`].
///
/// A caller that already holds its candidates' words (the search derives
/// them in key space) fills one while proposing and hands it to
/// [`EvalPool::evaluate_batch_delta`], and the same keys and hashes on to
/// its history, so each candidate's key is built and hashed once.
#[derive(Debug, Clone, Default)]
pub struct KeyBatch {
    words: Vec<i64>,
    ends: Vec<usize>,
    hashes: Vec<u64>,
}

impl KeyBatch {
    /// Drops every key but keeps the buffers.
    pub fn clear(&mut self) {
        self.words.clear();
        self.ends.clear();
        self.hashes.clear();
    }

    /// Appends a key with its precomputed hash, which must be
    /// [`hash_key`]`(key)`.
    pub fn push(&mut self, key: &[i64], hash: u64) {
        debug_assert_eq!(hash, hash_key(key));
        self.words.extend_from_slice(key);
        self.ends.push(self.words.len());
        self.hashes.push(hash);
    }

    /// Appends `cfg`'s key, encoded and hashed here.
    pub fn push_config(&mut self, cfg: &NodeConfig) {
        let start = self.words.len();
        cfg.encode_into(&mut self.words);
        self.ends.push(self.words.len());
        self.hashes.push(hash_key(&self.words[start..]));
    }

    /// Number of keys.
    pub fn len(&self) -> usize {
        self.ends.len()
    }

    /// Whether the batch holds no key.
    pub fn is_empty(&self) -> bool {
        self.ends.is_empty()
    }

    /// Key `i`'s words.
    pub fn key(&self, i: usize) -> &[i64] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        &self.words[start..self.ends[i]]
    }

    /// Key `i`'s [`hash_key`].
    pub fn hash(&self, i: usize) -> u64 {
        self.hashes[i]
    }
}

/// What workers need to evaluate a point; shared immutably.
struct EvalCtx {
    graph: Graph,
    evaluator: Evaluator,
    /// Split-phase lowering template for `graph` on the evaluator's
    /// target: the config-independent half of lowering, built once per
    /// pool and shared by every worker (see `flextensor_schedule::template`).
    template: LoweredTemplate,
    /// `false` only in reference pools ([`EvalPool::new_reference`]),
    /// which re-lower every candidate from scratch for differential
    /// testing and perf-probe baselines.
    use_template: bool,
    /// When `true`, candidates whose features trip an `Error`-level
    /// static-analysis rule are rejected before the cost model runs.
    /// Sound by `flextensor_analyze::gate_rejects`'s contract: a rejected
    /// candidate would have evaluated to `None` anyway, so gating never
    /// changes a cost — only whether modeled measurement time is spent.
    analyzer_gate: bool,
    /// Makes the next evaluation panic (a stand-in for a faulty
    /// evaluator).
    #[cfg(test)]
    panic_next: std::sync::atomic::AtomicBool,
}

impl EvalCtx {
    /// Evaluates one point: derives its features — patched from `base`'s
    /// when the batch resolved one for it — and scores them with
    /// [`Evaluator::time_features`]. Returns the `(cost, pruned,
    /// took_delta)` triple the reduction step consumes: `pruned` when the
    /// analyzer gate (or a config-level legality error on a gated pool)
    /// rejected the point before the cost model, `took_delta` when the
    /// incremental feature path served it.
    ///
    /// The delta/full decision is a pure function of `(base, cfg)` — it
    /// never depends on which worker runs the item or in what order — so
    /// results *and counters* are deterministic across worker counts.
    fn evaluate_one(
        &self,
        cfg: &NodeConfig,
        base: Option<&(NodeConfig, KernelFeatures)>,
        scratch: &mut DeltaScratch,
    ) -> (Option<Cost>, bool, bool) {
        #[cfg(test)]
        assert!(
            !self.panic_next.swap(false, Ordering::Relaxed),
            "injected evaluation panic"
        );
        let features = match base {
            Some((base_cfg, base_features)) => {
                delta_features_with(&self.template, base_cfg, base_features, cfg, scratch).ok()
            }
            None if self.use_template => self.template.features(cfg).ok().map(|f| (f, false)),
            None => {
                let target = self.evaluator.target();
                flextensor_schedule::lower::lower(&self.graph, cfg, target)
                    .ok()
                    .map(|k| (k.features, false))
            }
        };
        let Some((features, took_delta)) = features else {
            // Invalid for the graph (a config-level legality error); gated
            // pools report it as pruned, plain pools as a bare `None`.
            return (None, self.analyzer_gate, false);
        };
        if self.analyzer_gate
            && flextensor_analyze::gate_rejects(self.evaluator.device(), &features).is_some()
        {
            return (None, true, took_delta);
        }
        let flops = self.flops();
        let cost = self
            .evaluator
            .time_features(&features)
            .map(|seconds| Cost { seconds, flops });
        (cost, false, took_delta)
    }

    /// Workload FLOPs, read from the active evaluation path (template
    /// pools report the template's, reference pools the graph's — equal by
    /// construction).
    fn flops(&self) -> u64 {
        if self.use_template {
            self.template.graph_flops()
        } else {
            self.graph.flops()
        }
    }
}

/// One dispatched batch: workers claim indices from `next` and write into
/// their pre-assigned `results` slot, keeping the reduction order fixed.
struct BatchJob {
    configs: Vec<NodeConfig>,
    /// Base candidates (config + features) for delta evaluation, compacted
    /// to the bases that resolved; empty for plain batches.
    bases: Vec<(NodeConfig, KernelFeatures)>,
    /// Per config: index into `bases` (`None` = evaluate fully). Aligned
    /// with `configs`.
    base_idx: Vec<Option<usize>>,
    next: AtomicUsize,
    results: Vec<OnceLock<(Option<Cost>, bool, bool)>>,
}

/// What a worker reports when it has finished its part of a batch: the
/// payload of a panic it caught there, if any.
type WorkerDone = Option<Box<dyn Any + Send>>;

/// A persistent pool of evaluation workers, with a memo cache in front
/// unless it was built with a cache capacity of 0.
///
/// Created once per search; workers live until the pool is dropped, so
/// per-batch dispatch costs one channel send per worker rather than a
/// thread spawn per candidate.
///
/// A panic while evaluating a candidate reaches the caller of the batch
/// as a panic, whichever thread it happened on. A worker catches it at the
/// batch boundary and still reports the batch done, so the coordinator
/// never waits on a worker that died; it re-raises the first payload once
/// every worker has reported, and the pool stays usable.
pub struct EvalPool {
    ctx: Arc<EvalCtx>,
    cache: MemoCache,
    workers: usize,
    senders: Vec<Sender<Arc<BatchJob>>>,
    done_rx: Option<Receiver<WorkerDone>>,
    handles: Vec<JoinHandle<()>>,
    evaluated: usize,
    pruned: usize,
    delta_hits: usize,
    delta_full: usize,
    wall_clock: Duration,
    /// Batches with at most this many fresh evaluations run on the
    /// coordinator instead of fanning out ([`INLINE_BATCH`] for
    /// template-path pools, 1 for reference pools; tests force 0 to
    /// exercise the fan-out path on small batches).
    inline_batch: usize,
    /// The serial-path delta scratch, reused across batches.
    inline_scratch: DeltaScratch,
}

impl std::fmt::Debug for EvalPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EvalPool")
            .field("workers", &self.workers)
            .field("evaluated", &self.evaluated)
            .finish_non_exhaustive()
    }
}

/// Resolves an `eval_workers` option: 0 means "all available cores".
pub fn resolve_workers(requested: usize) -> usize {
    if requested == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        requested
    }
}

impl EvalPool {
    /// A pool of `workers` threads (0 = all cores; 1 = evaluate on the
    /// calling thread, no threads spawned) with a fresh memo cache of
    /// `cache_capacity` entries. A capacity of 0 means no memo: the pool
    /// then resolves only duplicates within a batch, and evaluates a point
    /// afresh each time a later batch submits it again.
    pub fn new(
        graph: &Graph,
        evaluator: &Evaluator,
        workers: usize,
        cache_capacity: usize,
    ) -> EvalPool {
        EvalPool::build(graph, evaluator, workers, cache_capacity, true, false)
    }

    /// A pool like [`EvalPool::new`] with the static analyzer gate
    /// enabled: candidates whose lowered features trip an `Error`-level
    /// `flextensor-analyze` legality rule are rejected *before* the cost
    /// model runs ([`EvalOutcome::pruned`], [`EvalStats::pruned`]).
    /// Because the gate only rejects candidates the evaluator would have
    /// scored `None`, every returned cost is bit-identical to an ungated
    /// pool's.
    pub fn new_gated(
        graph: &Graph,
        evaluator: &Evaluator,
        workers: usize,
        cache_capacity: usize,
    ) -> EvalPool {
        EvalPool::build(graph, evaluator, workers, cache_capacity, true, true)
    }

    /// A reference pool that re-lowers every candidate from scratch
    /// instead of applying the cached [`LoweredTemplate`], also in
    /// neighbor batches. Results are bit-identical to [`EvalPool::new`]
    /// (both paths share one feature computation); this exists so
    /// differential tests and the `probe_perf` baseline can measure the
    /// fast path against it. Not for production searches.
    pub fn new_reference(
        graph: &Graph,
        evaluator: &Evaluator,
        workers: usize,
        cache_capacity: usize,
    ) -> EvalPool {
        EvalPool::build(graph, evaluator, workers, cache_capacity, false, false)
    }

    fn build(
        graph: &Graph,
        evaluator: &Evaluator,
        workers: usize,
        cache_capacity: usize,
        use_template: bool,
        analyzer_gate: bool,
    ) -> EvalPool {
        let workers = resolve_workers(workers);
        let ctx = Arc::new(EvalCtx {
            graph: graph.clone(),
            evaluator: evaluator.clone(),
            template: LoweredTemplate::new(graph, evaluator.target()),
            use_template,
            analyzer_gate,
            #[cfg(test)]
            panic_next: Default::default(),
        });
        let mut senders = Vec::new();
        let mut handles = Vec::new();
        let mut done_rx = None;
        if workers > 1 {
            let (done_tx, rx) = channel::<WorkerDone>();
            done_rx = Some(rx);
            for _ in 0..workers {
                let (tx, job_rx) = channel::<Arc<BatchJob>>();
                senders.push(tx);
                let ctx = Arc::clone(&ctx);
                let done_tx = done_tx.clone();
                handles.push(std::thread::spawn(move || {
                    // Per-worker delta arena, reused across batches.
                    let mut scratch = DeltaScratch::new();
                    while let Ok(job) = job_rx.recv() {
                        let run = panic::catch_unwind(AssertUnwindSafe(|| loop {
                            // Claim a chunk of candidates. Slots are
                            // pre-assigned, so chunking only changes load
                            // balancing, never a result.
                            let start = job.next.fetch_add(WORKER_CHUNK, Ordering::Relaxed);
                            if start >= job.configs.len() {
                                break;
                            }
                            let end = (start + WORKER_CHUNK).min(job.configs.len());
                            for i in start..end {
                                let base = job.base_idx[i].map(|b| &job.bases[b]);
                                let outcome = ctx.evaluate_one(&job.configs[i], base, &mut scratch);
                                let _ = job.results[i].set(outcome);
                            }
                        }));
                        if run.is_err() {
                            // The panic may have left the arena mid-update.
                            scratch = DeltaScratch::new();
                        }
                        drop(job);
                        if done_tx.send(run.err()).is_err() {
                            break; // coordinator went away
                        }
                    }
                }));
            }
        }
        EvalPool {
            ctx,
            cache: MemoCache::new(cache_capacity),
            workers,
            senders,
            done_rx,
            handles,
            evaluated: 0,
            pruned: 0,
            delta_hits: 0,
            delta_full: 0,
            wall_clock: Duration::ZERO,
            inline_batch: if use_template { INLINE_BATCH } else { 1 },
            inline_scratch: DeltaScratch::new(),
        }
    }

    /// Worker threads this pool evaluates with.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Whether this pool evaluates through the split-phase template fast
    /// path (`true`, the default) or re-lowers every candidate
    /// ([`EvalPool::new_reference`]).
    pub fn uses_template(&self) -> bool {
        self.ctx.use_template
    }

    /// Whether the static analyzer gate is enabled
    /// ([`EvalPool::new_gated`]).
    pub fn analyzer_gate(&self) -> bool {
        self.ctx.analyzer_gate
    }

    /// The memo cache in front of the evaluator; for a pool built with a
    /// cache capacity of 0 it holds nothing and stays empty.
    pub fn cache(&self) -> &MemoCache {
        &self.cache
    }

    /// Evaluates a batch of candidate points, memoized and in parallel.
    ///
    /// The returned vector is index-aligned with `configs` — the
    /// reduction order is the candidate order, independent of the worker
    /// count and of thread scheduling.
    pub fn evaluate_batch(&mut self, configs: &[NodeConfig]) -> Vec<EvalOutcome> {
        // Encode and hash every candidate once, into one flat buffer; the
        // cache peek, the in-batch duplicate check and the insert reuse
        // the key and its hash.
        let mut keys = KeyBatch::default();
        for c in configs {
            keys.push_config(c);
        }
        self.batch_inner(configs, &keys, None)
    }

    /// Evaluates a batch of *neighbor* candidates, each derived from one
    /// of `bases` by a single schedule move: `base_of[i]` names the base
    /// (an index into `bases`) candidate `configs[i]` was derived from,
    /// and `keys` holds each candidate's key in candidate order, so the
    /// pool encodes and hashes nothing.
    ///
    /// A base with at least two fresh (uncached, not in-batch duplicate)
    /// neighbors is lowered once on the coordinator, and each of those
    /// neighbors is then evaluated incrementally from its base's
    /// features. A base with one fresh neighbor has that neighbor lowered
    /// in full, since one full lowering costs less than a base lowering
    /// plus a patch; so do neighbors of a base that does not validate, and
    /// every candidate in a reference pool. The rule is a pure function of
    /// the batch and the cache, so [`EvalStats::delta_hits`] and
    /// [`EvalStats::delta_full`] are deterministic in the worker count.
    /// Either way the outcomes are bit-identical to
    /// [`EvalPool::evaluate_batch`] on the same configs.
    ///
    /// # Panics
    ///
    /// Panics when `keys` or `base_of` is not aligned with `configs`, or
    /// `base_of` names a base out of range. Debug builds also check that
    /// every key is its config's encoding.
    pub fn evaluate_batch_delta(
        &mut self,
        configs: &[NodeConfig],
        keys: &KeyBatch,
        base_of: &[usize],
        bases: &[NodeConfig],
    ) -> Vec<EvalOutcome> {
        assert_eq!(
            keys.len(),
            configs.len(),
            "keys must be index-aligned with configs"
        );
        assert_eq!(
            base_of.len(),
            configs.len(),
            "base_of must be index-aligned with configs"
        );
        assert!(
            base_of.iter().all(|&b| b < bases.len()),
            "base_of entry out of range"
        );
        debug_assert!(
            configs
                .iter()
                .enumerate()
                .all(|(i, c)| keys.key(i) == c.encode()),
            "a key is not its config's encoding"
        );
        self.batch_inner(configs, keys, Some((base_of, bases)))
    }

    fn batch_inner(
        &mut self,
        configs: &[NodeConfig],
        keys: &KeyBatch,
        delta: Option<(&[usize], &[NodeConfig])>,
    ) -> Vec<EvalOutcome> {
        let t0 = Instant::now();
        let n = configs.len();
        let (key, hash) = (|i| keys.key(i), |i| keys.hash(i));
        let mut out: Vec<Option<EvalOutcome>> = vec![None; n];

        // Resolve cache hits and in-batch duplicates on the coordinator.
        // Duplicates are detected by the precomputed 64-bit hash with a
        // key comparison on a match; should two *distinct* keys ever
        // collide, the later one is evaluated fresh rather than mis-shared
        // — deterministic either way.
        let mut first_of_hash: FnvMap<u64, usize> =
            FnvMap::with_capacity_and_hasher(n, Default::default());
        let mut work: Vec<usize> = Vec::new();
        let mut hits = 0usize;
        for (i, slot) in out.iter_mut().enumerate() {
            if let Some(cost) = self.cache.peek_hashed(hash(i), key(i)) {
                *slot = Some(EvalOutcome {
                    cost,
                    fresh: false,
                    pruned: false,
                });
                hits += 1;
            } else {
                match first_of_hash.entry(hash(i)) {
                    MapEntry::Vacant(e) => {
                        e.insert(i);
                        work.push(i);
                    }
                    MapEntry::Occupied(e) if key(*e.get()) != key(i) => work.push(i),
                    // else: duplicate of an earlier candidate; resolved
                    // below.
                    MapEntry::Occupied(_) => {}
                }
            }
        }

        // Resolve delta bases once, on the coordinator: one full feature
        // computation per base with at least two fresh neighbors, amortized
        // over them. A lone fresh neighbor is lowered in full instead, which
        // is cheaper than lowering its base and then patching. Bases that do
        // not validate resolve to `None` and their neighbors fall back to
        // the full path.
        let mut job_bases: Vec<(NodeConfig, KernelFeatures)> = Vec::new();
        let mut base_idx: Vec<Option<usize>> = vec![None; work.len()];
        if let Some((base_of, bases)) = delta.filter(|_| self.ctx.use_template) {
            let mut fresh_of = vec![0usize; bases.len()];
            for &i in &work {
                fresh_of[base_of[i]] += 1;
            }
            let mut resolved: Vec<Option<Option<usize>>> = vec![None; bases.len()];
            for (slot, &i) in base_idx.iter_mut().zip(&work) {
                let bi = base_of[i];
                if fresh_of[bi] >= 2 {
                    *slot = *resolved[bi].get_or_insert_with(|| {
                        let f = self.ctx.template.features(&bases[bi]).ok()?;
                        job_bases.push((bases[bi].clone(), f));
                        Some(job_bases.len() - 1)
                    });
                }
            }
        }

        // Evaluate the misses — inline when serial or too small to
        // amortize dispatch (see [`INLINE_BATCH`]), fanned out over the
        // persistent workers otherwise.
        let fresh: Vec<(Option<Cost>, bool, bool)> = if self.senders.is_empty()
            || work.len() <= self.inline_batch.max(1)
        {
            let ctx = &self.ctx;
            let scratch = &mut self.inline_scratch;
            work.iter()
                .zip(&base_idx)
                .map(|(&i, &b)| ctx.evaluate_one(&configs[i], b.map(|bi| &job_bases[bi]), scratch))
                .collect()
        } else {
            let job = Arc::new(BatchJob {
                configs: work.iter().map(|&i| configs[i].clone()).collect(),
                bases: job_bases,
                base_idx,
                next: AtomicUsize::new(0),
                results: (0..work.len()).map(|_| OnceLock::new()).collect(),
            });
            for tx in &self.senders {
                tx.send(Arc::clone(&job)).expect("evaluation worker died");
            }
            let done = self.done_rx.as_ref().expect("pool has workers");
            let mut panicked = None;
            for _ in 0..self.senders.len() {
                if let Some(payload) = done.recv().expect("evaluation worker died") {
                    panicked.get_or_insert(payload);
                }
            }
            if let Some(payload) = panicked {
                panic::resume_unwind(payload);
            }
            job.results
                .iter()
                .map(|slot| *slot.get().expect("every claimed slot is filled"))
                .collect()
        };

        // Reduce in candidate order: publish fresh results, then resolve
        // duplicates as hits.
        for (&(cost, pruned, _), &i) in fresh.iter().zip(&work) {
            out[i] = Some(EvalOutcome {
                cost,
                fresh: true,
                pruned,
            });
        }
        for i in 0..n {
            if out[i].is_none() {
                // Unresolved ⇒ its key matched an earlier candidate's (the
                // hash entry's key was compared at detection time).
                let j = first_of_hash[&hash(i)];
                let cost = out[j].expect("first occurrence resolved").cost;
                out[i] = Some(EvalOutcome {
                    cost,
                    fresh: false,
                    pruned: false,
                });
                hits += 1;
            }
        }
        // All cache writes happen here, on the coordinator, in candidate
        // order, so cache content is deterministic. Keys are copied from
        // the key batch into the cache's arena (no allocation on a warm
        // shard). Gate rejections memoize as `None` — sound, since they
        // would have evaluated to `None`.
        for (&(cost, _, _), &i) in fresh.iter().zip(&work) {
            self.cache.insert_hashed(hash(i), key(i), cost);
        }
        self.cache.count_hits(hits);
        self.cache.count_misses(work.len());
        self.evaluated += work.len();
        self.pruned += fresh.iter().filter(|&&(_, pruned, _)| pruned).count();
        // Every fresh evaluation is either a delta hit or a full lowering:
        // delta_hits + delta_full == evaluated.
        let taken = fresh.iter().filter(|&&(_, _, d)| d).count();
        self.delta_hits += taken;
        self.delta_full += fresh.len() - taken;
        self.wall_clock += t0.elapsed();

        out.into_iter()
            .map(|o| o.expect("all slots resolved"))
            .collect()
    }

    /// Evaluates a single point through the cache.
    pub fn evaluate(&mut self, cfg: &NodeConfig) -> EvalOutcome {
        self.evaluate_batch(std::slice::from_ref(cfg))[0]
    }

    /// A snapshot of this pool's statistics.
    pub fn stats(&self) -> EvalStats {
        EvalStats {
            evaluated: self.evaluated,
            cache_hits: self.cache.hits(),
            cache_misses: self.cache.misses(),
            pruned: self.pruned,
            workers: self.workers,
            wall_clock_s: self.wall_clock.as_secs_f64(),
            delta_hits: self.delta_hits,
            delta_full: self.delta_full,
        }
    }

    /// Emits the pool's cumulative statistics as a
    /// [`PoolStats`](TraceEvent::PoolStats) telemetry event, tagged with
    /// the trial whose batch just completed. No-op when telemetry is
    /// disabled.
    ///
    /// Call this right after [`EvalPool::evaluate_batch`] (before the
    /// driver reduces the outcomes), so the last emitted record always
    /// equals the pool's final statistics even if the driver stops early
    /// mid-reduction — trace replay relies on that.
    pub fn emit_stats(&self, telemetry: &Telemetry, trial: usize) {
        if !telemetry.is_enabled() {
            return;
        }
        let s = self.stats();
        telemetry.emit(TraceEvent::PoolStats {
            trial,
            evaluated: s.evaluated,
            cache_hits: s.cache_hits,
            cache_misses: s.cache_misses,
            // A pool without a memo reports the points it evaluated, which
            // are the distinct points whenever its caller never resubmits
            // one (the search's contract); a memo's size is the
            // same count until the memo first flushes.
            cache_entries: if self.cache.stores() {
                self.cache.len()
            } else {
                s.evaluated
            },
            workers: s.workers,
            wall_s: s.wall_clock_s,
        });
        // Gate-enabled pools additionally record the pruning tally; traces
        // from ungated runs (including all pre-gate fixtures) are
        // unchanged byte for byte.
        if self.ctx.analyzer_gate {
            telemetry.emit(TraceEvent::AnalyzerStats {
                trial,
                pruned: s.pruned,
            });
        }
    }
}

impl Drop for EvalPool {
    fn drop(&mut self) {
        self.senders.clear(); // workers' recv() now errors and they exit
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

// The pool moves the graph, evaluator, and configs across threads; keep
// that a compile-time guarantee rather than an accident of field types.
fn _assert_send_sync() {
    fn check<T: Send + Sync>() {}
    check::<Graph>();
    check::<Evaluator>();
    check::<NodeConfig>();
    check::<Cost>();
    check::<MemoCache>();
    check::<EvalStats>();
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use flextensor_sim::spec::{v100, Device};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn setup() -> (Graph, Evaluator) {
        (ops::gemm(64, 64, 64), Evaluator::new(Device::Gpu(v100())))
    }

    #[test]
    fn batch_results_match_direct_evaluation() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut rng = StdRng::seed_from_u64(1);
        let cands: Vec<_> = (0..24).map(|_| space.random_point(&mut rng)).collect();
        let mut pool = EvalPool::new(&g, &ev, 4, 1 << 16);
        let outcomes = pool.evaluate_batch(&cands);
        for (cfg, oc) in cands.iter().zip(&outcomes) {
            assert_eq!(oc.cost, ev.evaluate(&g, cfg));
        }
    }

    #[test]
    fn worker_count_does_not_change_results() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut rng = StdRng::seed_from_u64(2);
        let cands: Vec<_> = (0..40).map(|_| space.random_point(&mut rng)).collect();
        let serial = EvalPool::new(&g, &ev, 1, 1 << 16).evaluate_batch(&cands);
        let parallel = EvalPool::new(&g, &ev, 8, 1 << 16).evaluate_batch(&cands);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn repeats_hit_the_cache() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut pool = EvalPool::new(&g, &ev, 1, 1 << 16);
        let p = space.start_point();
        let first = pool.evaluate(&p);
        assert!(first.fresh);
        let second = pool.evaluate(&p);
        assert!(!second.fresh);
        assert_eq!(first.cost, second.cost);
        let s = pool.stats();
        assert_eq!(s.evaluated, 1);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 1);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn in_batch_duplicates_evaluate_once() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let p = space.start_point();
        let mut pool = EvalPool::new(&g, &ev, 4, 1 << 16);
        let outcomes = pool.evaluate_batch(&[p.clone(), p.clone(), p.clone()]);
        assert!(outcomes[0].fresh);
        assert!(!outcomes[1].fresh && !outcomes[2].fresh);
        assert_eq!(pool.stats().evaluated, 1);
        assert_eq!(pool.stats().cache_hits, 2);
    }

    #[test]
    fn cache_flushes_at_capacity_but_stays_correct() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut rng = StdRng::seed_from_u64(3);
        // Tiny capacity: shards hold one entry each and flush constantly.
        let mut pool = EvalPool::new(&g, &ev, 1, CACHE_SHARDS);
        let cands: Vec<_> = (0..50).map(|_| space.random_point(&mut rng)).collect();
        let outcomes = pool.evaluate_batch(&cands);
        for (cfg, oc) in cands.iter().zip(&outcomes) {
            assert_eq!(oc.cost, ev.evaluate(&g, cfg));
        }
        assert!(pool.cache().len() <= CACHE_SHARDS);
    }

    #[test]
    fn reference_pool_matches_template_fast_path() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut rng = StdRng::seed_from_u64(4);
        let mut cands: Vec<_> = (0..32).map(|_| space.random_point(&mut rng)).collect();
        cands.push(cands[0].clone()); // in-batch duplicate
        let mut fast = EvalPool::new(&g, &ev, 4, 1 << 16);
        let mut reference = EvalPool::new_reference(&g, &ev, 4, 1 << 16);
        assert!(fast.uses_template());
        assert!(!reference.uses_template());
        assert_eq!(
            fast.evaluate_batch(&cands),
            reference.evaluate_batch(&cands)
        );
        assert_eq!(fast.stats().evaluated, reference.stats().evaluated);
    }

    #[test]
    fn infeasible_points_are_memoized() {
        let (g, ev) = setup();
        let mut bad = NodeConfig::naive(g.root_op());
        bad.spatial_splits[0] = vec![3, 1, 1, 1]; // product mismatch
        let mut pool = EvalPool::new(&g, &ev, 1, 1 << 16);
        assert_eq!(
            pool.evaluate(&bad),
            EvalOutcome {
                cost: None,
                fresh: true,
                pruned: false
            }
        );
        assert_eq!(
            pool.evaluate(&bad),
            EvalOutcome {
                cost: None,
                fresh: false,
                pruned: false
            }
        );
        assert_eq!(pool.stats().evaluated, 1);
    }

    #[test]
    fn gated_pool_prunes_infeasible_and_matches_costs() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut rng = StdRng::seed_from_u64(5);
        let mut cands: Vec<_> = (0..40).map(|_| space.random_point(&mut rng)).collect();
        // An invalid config prunes at the config level.
        let mut bad = NodeConfig::naive(g.root_op());
        bad.spatial_splits[0] = vec![3, 1, 1, 1];
        cands.push(bad);
        let plain = EvalPool::new(&g, &ev, 1, 1 << 16).evaluate_batch(&cands);
        for workers in [1, 4] {
            let mut pool = EvalPool::new_gated(&g, &ev, workers, 1 << 16);
            assert!(pool.analyzer_gate());
            let gated = pool.evaluate_batch(&cands);
            for (p, q) in plain.iter().zip(&gated) {
                assert_eq!(p.cost, q.cost);
                assert!(!q.pruned || q.cost.is_none());
            }
            let s = pool.stats();
            assert!(s.pruned >= 1, "invalid config must be pruned");
            assert_eq!(s.pruned, gated.iter().filter(|o| o.pruned).count());
        }
        assert_eq!(
            EvalPool::new(&g, &ev, 1, 1 << 16).stats().pruned,
            0,
            "ungated pools never prune"
        );
    }

    /// The keys of `configs`, in order.
    fn keys_of(configs: &[NodeConfig]) -> KeyBatch {
        let mut keys = KeyBatch::default();
        for c in configs {
            keys.push_config(c);
        }
        keys
    }

    /// Builds the neighbor-batch shape the search drivers produce: a few
    /// base points, each expanded along every applicable direction.
    fn neighbor_batch(
        space: &crate::space::Space,
        seed: u64,
        n_bases: usize,
    ) -> (Vec<NodeConfig>, Vec<usize>, Vec<NodeConfig>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let bases: Vec<_> = (0..n_bases).map(|_| space.random_point(&mut rng)).collect();
        let mut configs = Vec::new();
        let mut base_of = Vec::new();
        for (bi, base) in bases.iter().enumerate() {
            for dir in space.directions() {
                if let Some(n) = space.apply(base, *dir) {
                    configs.push(n);
                    base_of.push(bi);
                }
            }
        }
        (configs, base_of, bases)
    }

    #[test]
    fn delta_batches_match_plain_batches_across_workers() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let (cands, base_of, bases) = neighbor_batch(&space, 6, 4);
        assert!(cands.len() > 20, "expected a non-trivial neighbor batch");
        let plain = EvalPool::new(&g, &ev, 1, 1 << 16).evaluate_batch(&cands);
        let mut counter_runs = Vec::new();
        for workers in [1, 4] {
            let mut pool = EvalPool::new(&g, &ev, workers, 1 << 16);
            let outcomes = pool.evaluate_batch_delta(&cands, &keys_of(&cands), &base_of, &bases);
            assert_eq!(outcomes, plain, "delta batches must be bit-identical");
            let s = pool.stats();
            assert_eq!(s.delta_hits + s.delta_full, s.evaluated);
            assert!(s.delta_hits > 0, "neighbor batches must take the fast path");
            counter_runs.push((s.delta_hits, s.delta_full));
        }
        assert_eq!(
            counter_runs[0], counter_runs[1],
            "delta counters must not depend on the worker count"
        );
    }

    /// The inline-vs-fan-out decision is wall-clock-only: forcing tiny
    /// batches through the worker threads (inline threshold 0) must give
    /// the same outcomes and counters as the default inline path, for
    /// plain and delta batches alike.
    #[test]
    fn fanned_out_batches_match_inline_batches() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let (cands, base_of, bases) = neighbor_batch(&space, 9, 4);
        let make = |inline_batch: usize| {
            let mut pool = EvalPool::new(&g, &ev, 4, 1 << 16);
            pool.inline_batch = inline_batch;
            pool
        };
        let inline_plain = make(INLINE_BATCH).evaluate_batch(&cands);
        let fanned_plain = make(0).evaluate_batch(&cands);
        assert_eq!(inline_plain, fanned_plain);
        let mut inline_pool = make(INLINE_BATCH);
        let mut fanned_pool = make(0);
        assert_eq!(
            inline_pool.evaluate_batch_delta(&cands, &keys_of(&cands), &base_of, &bases),
            fanned_pool.evaluate_batch_delta(&cands, &keys_of(&cands), &base_of, &bases),
        );
        let (i, f) = (inline_pool.stats(), fanned_pool.stats());
        assert_eq!((i.delta_hits, i.delta_full), (f.delta_hits, f.delta_full));
        assert_eq!(i.evaluated, f.evaluated);
    }

    /// A panic on one worker must reach the caller as a panic, not leave
    /// it waiting for that worker's report, and must leave the pool able
    /// to evaluate the next batch.
    #[test]
    fn a_worker_panic_reaches_the_caller_and_the_pool_survives() {
        use std::sync::mpsc;
        use std::time::Duration;

        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let (cands, base_of, bases) = neighbor_batch(&space, 12, 4);
        let want = EvalPool::new(&g, &ev, 1, 1 << 16).evaluate_batch_delta(
            &cands,
            &keys_of(&cands),
            &base_of,
            &bases,
        );
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let mut pool = EvalPool::new(&g, &ev, 2, 1 << 16);
            pool.inline_batch = 0;
            pool.ctx.panic_next.store(true, Ordering::Relaxed);
            let first = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.evaluate_batch_delta(&cands, &keys_of(&cands), &base_of, &bases)
            }));
            let message = first.err().map(|p| match p.downcast::<String>() {
                Ok(s) => *s,
                Err(p) => p
                    .downcast_ref::<&str>()
                    .map_or_else(String::new, |s| s.to_string()),
            });
            let again = pool.evaluate_batch_delta(&cands, &keys_of(&cands), &base_of, &bases);
            let _ = tx.send((message, again));
        });
        let (message, again) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("the batch must return within 60 s, not hang");
        let message = message.expect("the worker's panic must reach the caller");
        assert!(message.contains("injected evaluation panic"), "{message}");
        // The failed batch cached nothing, so the retry evaluates afresh.
        assert_eq!(again, want);
    }

    /// Keys a caller derives in key space (a start's words moved by
    /// [`Space::apply_words`](crate::space::Space::apply_words), as the
    /// search does) must be the exact canonical encoding: after a
    /// delta batch with those keys warms the cache, a *plain* batch over
    /// the same configs (keys encoded by the pool) must be answered
    /// entirely from the cache.
    #[test]
    fn caller_keys_share_cache_identity_with_plain_keys() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut rng = StdRng::seed_from_u64(10);
        let bases: Vec<_> = (0..4).map(|_| space.random_point(&mut rng)).collect();
        let (mut cands, mut base_of, mut keys) = (Vec::new(), Vec::new(), KeyBatch::default());
        let mut words = Vec::new();
        for (bi, base) in bases.iter().enumerate() {
            let key = base.encode();
            for &dir in space.directions() {
                if space.apply_words(&key, dir, &mut words) {
                    keys.push(&words, hash_key(&words));
                    cands.push(NodeConfig::from_words(space.layout(), &words));
                    base_of.push(bi);
                }
            }
        }
        let mut pool = EvalPool::new(&g, &ev, 1, 1 << 16);
        let via_delta = pool.evaluate_batch_delta(&cands, &keys, &base_of, &bases);
        let evaluated = pool.stats().evaluated;
        let via_plain = pool.evaluate_batch(&cands);
        assert_eq!(
            pool.stats().evaluated,
            evaluated,
            "plain encoding must hit every entry the caller's keys made"
        );
        for (d, p) in via_delta.iter().zip(&via_plain) {
            assert_eq!(d.cost, p.cost);
            assert!(!p.fresh);
        }
    }

    /// A capacity of 0 builds a pool without a memo: it resolves
    /// duplicates within a batch exactly as a memoizing pool does, keeps
    /// nothing across batches, and reports the points it evaluated as its
    /// `cache_entries`.
    #[test]
    fn a_pool_without_a_memo_resolves_only_in_batch_duplicates() {
        use flextensor_telemetry::MemorySink;

        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let (cands, base_of, bases) = neighbor_batch(&space, 11, 3);
        let distinct = cands
            .iter()
            .map(NodeConfig::encode)
            .collect::<std::collections::HashSet<_>>()
            .len();
        let mut twice = cands.clone();
        twice.extend(cands.iter().cloned());
        let mut memo = EvalPool::new(&g, &ev, 2, 1 << 16);
        let mut bare = EvalPool::new(&g, &ev, 2, 0);
        assert_eq!(memo.evaluate_batch(&twice), bare.evaluate_batch(&twice));
        let no_wall = |s: EvalStats| EvalStats {
            wall_clock_s: 0.0,
            ..s
        };
        assert_eq!(no_wall(memo.stats()), no_wall(bare.stats()));
        assert_eq!(bare.stats().evaluated, distinct);
        assert!(bare.cache().is_empty());

        // A later batch: the memo answers it, the bare pool evaluates afresh.
        let again = bare.evaluate_batch_delta(&cands, &keys_of(&cands), &base_of, &bases);
        assert_eq!(again.iter().filter(|o| o.fresh).count(), distinct);
        assert!(memo.evaluate_batch(&cands).iter().all(|o| !o.fresh));
        let s = bare.stats();
        assert_eq!(s.evaluated, 2 * distinct);
        assert_eq!(s.cache_hits, twice.len() + cands.len() - 2 * distinct);
        assert_eq!(s.cache_misses, s.evaluated);
        assert!(bare.cache().is_empty());

        let sink = Arc::new(MemorySink::new());
        bare.emit_stats(&Telemetry::new(sink.clone()), 1);
        match sink.events().as_slice() {
            [TraceEvent::PoolStats {
                evaluated,
                cache_entries,
                ..
            }] => assert_eq!(cache_entries, evaluated),
            other => panic!("expected one pool_stats record, got {other:?}"),
        }
    }

    #[test]
    fn hashed_cache_entry_points_match_the_plain_ones() {
        let cache = MemoCache::new(1 << 10);
        let key_a = [1i64, 2, 3, 4];
        let key_b = [4i64, 3, 2, 1];
        let cost = Some(Cost {
            seconds: 1.5,
            flops: 10,
        });
        cache.insert_hashed(hash_key(&key_a), &key_a, cost);
        cache.insert(&key_b, None);
        assert_eq!(cache.peek(&key_a), Some(cost));
        assert_eq!(cache.peek_hashed(hash_key(&key_b), &key_b), Some(None));
        assert_eq!(cache.peek_hashed(hash_key(&[9i64]), &[9i64]), None);
    }

    #[test]
    fn poisoned_shard_is_recovered() {
        let cache = MemoCache::new(1 << 10);
        let key = [5i64, 6, 7];
        let cost = Some(Cost {
            seconds: 2.0,
            flops: 4,
        });
        cache.insert(&key, cost);
        let shard_of = |k: &[i64]| (hash_key(k) % CACHE_SHARDS as u64) as usize;
        let shard = &cache.shards[shard_of(&key)];
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = shard.lock().unwrap();
                panic!("panic while holding a cache shard");
            })
            .join()
            .is_err()
        });
        assert!(panicked && shard.is_poisoned());
        assert_eq!(cache.peek(&key), Some(cost));
        // Insert into the poisoned shard itself.
        let other = (8i64..)
            .map(|w| [5i64, 6, w])
            .find(|k| shard_of(k) == shard_of(&key))
            .unwrap();
        cache.insert(&other, None);
        assert_eq!(cache.peek(&other), Some(None));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn plain_batches_lower_every_candidate_in_full() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut rng = StdRng::seed_from_u64(7);
        let cands: Vec<_> = (0..16).map(|_| space.random_point(&mut rng)).collect();
        let mut pool = EvalPool::new(&g, &ev, 4, 1 << 16);
        pool.evaluate_batch(&cands);
        let s = pool.stats();
        assert_eq!(s.delta_hits, 0);
        assert_eq!(s.delta_full, s.evaluated);
    }

    /// The delta rule: a base is lowered and its neighbors patched only
    /// when at least two of them are fresh misses in the batch. One base
    /// has a single fresh neighbor (lowered in full), one has several
    /// (patched), and one has only cache hits (never lowered).
    #[test]
    fn only_bases_with_two_or_more_fresh_neighbors_are_patched() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let mut rng = StdRng::seed_from_u64(12);
        let bases: Vec<_> = (0..3).map(|_| space.random_point(&mut rng)).collect();
        // Same-`inline_data` moves only: a load-group swap always takes the
        // full path, which would blur the rule's counts.
        let neighbors = |b: &NodeConfig| -> Vec<NodeConfig> {
            space
                .directions()
                .iter()
                .filter_map(|&dir| space.apply(b, dir))
                .filter(|n| n.inline_data == b.inline_data)
                .collect()
        };
        let several = neighbors(&bases[1]);
        let cached = neighbors(&bases[2]);
        assert!(several.len() >= 3 && cached.len() >= 2);
        let mut configs = vec![neighbors(&bases[0])[0].clone()];
        let mut base_of = vec![0];
        configs.extend(several.iter().cloned());
        base_of.extend(std::iter::repeat_n(1, several.len()));
        configs.extend(cached.iter().cloned());
        base_of.extend(std::iter::repeat_n(2, cached.len()));
        let warmed = |workers| {
            let mut pool = EvalPool::new(&g, &ev, workers, 1 << 16);
            pool.evaluate_batch(&cached);
            pool
        };
        let expected = warmed(1).evaluate_batch(&configs);
        let mut counters = Vec::new();
        for workers in [1, 2, 4] {
            let mut pool = warmed(workers);
            let warm = pool.stats();
            let outcomes =
                pool.evaluate_batch_delta(&configs, &keys_of(&configs), &base_of, &bases);
            assert_eq!(outcomes, expected, "workers {workers}");
            let s = pool.stats();
            assert_eq!(s.evaluated - warm.evaluated, 1 + several.len());
            assert_eq!(s.delta_full - warm.delta_full, 1, "the singleton");
            assert_eq!(s.delta_hits - warm.delta_hits, several.len());
            counters.push((s.delta_hits, s.delta_full));
        }
        assert!(counters.windows(2).all(|w| w[0] == w[1]), "{counters:?}");
    }

    #[test]
    fn gated_delta_pool_matches_gated_pool() {
        let (g, ev) = setup();
        let space = crate::space::Space::new(&g, ev.target());
        let (cands, base_of, bases) = neighbor_batch(&space, 8, 4);
        let mut gated = EvalPool::new_gated(&g, &ev, 1, 1 << 16);
        let expected = gated.evaluate_batch(&cands);
        for workers in [1, 4] {
            let mut pool = EvalPool::new_gated(&g, &ev, workers, 1 << 16);
            let outcomes = pool.evaluate_batch_delta(&cands, &keys_of(&cands), &base_of, &bases);
            assert_eq!(outcomes, expected);
            assert_eq!(pool.stats().pruned, gated.stats().pruned);
        }
    }
}
