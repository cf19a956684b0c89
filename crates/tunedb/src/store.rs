//! The persistent sharded store: append-only per-shard JSONL logs,
//! corruption-tolerant recovery, and atomic compaction.
//!
//! # Layout
//!
//! A database is a directory of `shard-NN.jsonl` files. Each record is
//! one checksummed JSONL line (see [`TuneRecord`]); a key's shard is
//! `fnv1a64(key.flat()) % shards`. Writes append; the in-memory index
//! keeps the best (lowest-cost) record per key, so the log may hold
//! superseded records until [`TuneDb::compact`] rewrites each shard
//! atomically (write `shard-NN.jsonl.tmp`, then rename over the live
//! file) with exactly one record per key, in key order.
//!
//! # Recovery
//!
//! [`TuneDb::open`] replays every shard log. The first bad line of a
//! shard — malformed JSON, a failed checksum, a torn (truncated) tail —
//! ends that shard's replay: every intact record *before* the corruption
//! is kept, the remainder is dropped, and the shard file is truncated to
//! the good prefix so the next append continues from a clean log. The
//! returned [`RecoveryReport`] states exactly what was kept and dropped.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use crate::neighbor::nearest;
use crate::record::{fnv1a64, TuneKey, TuneRecord};
use crate::TuneError;

/// Default shard-file count for new databases.
pub const DEFAULT_SHARDS: usize = 8;

/// What [`TuneDb::open`] found on disk: how many records survived
/// recovery and how many lines each corrupted shard lost.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Shard files replayed.
    pub shard_files: usize,
    /// Intact records kept (before best-per-key reduction).
    pub records_kept: usize,
    /// Lines dropped: the first bad line of each corrupted shard plus
    /// everything after it.
    pub lines_dropped: usize,
    /// For each corrupted shard: its file name and the parse error of
    /// the first bad line.
    pub corrupt: Vec<(String, String)>,
}

/// Cumulative database counters: lookup hits/misses, warm-start seeds
/// handed out, records appended, and lines dropped by recovery.
///
/// Every field except `lines_dropped` is monotone over the database's
/// lifetime and deterministic given the same request sequence; none of
/// them involve wall-clock time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DbStats {
    /// Keys currently in the index.
    pub records: usize,
    /// `get` calls that found their key.
    pub hits: usize,
    /// `get` calls that missed.
    pub misses: usize,
    /// Warm-start seeds served from nearest neighbors.
    pub warm_starts: usize,
    /// Records appended since open.
    pub puts: usize,
    /// Lines dropped by recovery at open.
    pub lines_dropped: usize,
}

/// The persistent, sharded schedule database. Thread-safe: every method
/// takes `&self`, so one `Arc<TuneDb>` serves concurrent sessions.
#[derive(Debug)]
pub struct TuneDb {
    dir: PathBuf,
    shards: usize,
    index: Mutex<BTreeMap<TuneKey, TuneRecord>>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    warm_starts: AtomicUsize,
    puts: AtomicUsize,
    lines_dropped: usize,
}

impl TuneDb {
    /// Opens (creating if absent) a database directory with the default
    /// shard count, replaying and repairing every shard log.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] on I/O failures (corrupted *records* are not
    /// errors — they are repaired and reported).
    pub fn open(dir: impl AsRef<Path>) -> Result<(TuneDb, RecoveryReport), TuneError> {
        TuneDb::open_with_shards(dir, DEFAULT_SHARDS)
    }

    /// [`TuneDb::open`] with an explicit shard count (new appends go to
    /// `fnv1a64(key) % shards`; recovery replays every `shard-*.jsonl`
    /// present regardless).
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] on I/O failures or `shards == 0`.
    pub fn open_with_shards(
        dir: impl AsRef<Path>,
        shards: usize,
    ) -> Result<(TuneDb, RecoveryReport), TuneError> {
        if shards == 0 {
            return Err(TuneError("shard count must be at least 1".into()));
        }
        let dir = dir.as_ref().to_path_buf();
        fs::create_dir_all(&dir)
            .map_err(|e| TuneError(format!("cannot create {}: {e}", dir.display())))?;

        let mut report = RecoveryReport::default();
        let mut index: BTreeMap<TuneKey, TuneRecord> = BTreeMap::new();
        let mut names: Vec<PathBuf> = fs::read_dir(&dir)
            .map_err(|e| TuneError(format!("cannot read {}: {e}", dir.display())))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("shard-") && n.ends_with(".jsonl"))
            })
            .collect();
        names.sort();

        for path in names {
            report.shard_files += 1;
            let text = fs::read_to_string(&path)
                .map_err(|e| TuneError(format!("cannot read {}: {e}", path.display())))?;
            let mut good_len = 0usize; // byte length of the intact prefix
            let mut bad: Option<String> = None;
            let mut total_lines = 0usize;
            let mut kept_lines = 0usize;
            for line in text.split_inclusive('\n') {
                let trimmed = line.trim_end_matches(['\n', '\r']);
                if trimmed.is_empty() {
                    if bad.is_none() && line.ends_with('\n') {
                        good_len += line.len();
                    }
                    continue;
                }
                total_lines += 1;
                if bad.is_some() {
                    continue; // count the dropped tail
                }
                // A final line without its newline is a torn append: the
                // record may be incomplete even if it happens to parse.
                let torn = !line.ends_with('\n');
                match TuneRecord::from_jsonl(trimmed) {
                    Ok(rec) if !torn => {
                        good_len += line.len();
                        kept_lines += 1;
                        absorb(&mut index, rec);
                    }
                    Ok(_) => bad = Some("torn record (no trailing newline)".into()),
                    Err(e) => bad = Some(e.0),
                }
            }
            report.records_kept += kept_lines;
            if let Some(err) = bad {
                report.lines_dropped += total_lines - kept_lines;
                let name = path
                    .file_name()
                    .and_then(|n| n.to_str())
                    .unwrap_or("shard")
                    .to_string();
                report.corrupt.push((name, err));
                // Truncate the shard to its intact prefix so future
                // appends extend a clean log.
                let keep = text.as_bytes()[..good_len].to_vec();
                atomic_write(&path, &keep)?;
            }
        }

        Ok((
            TuneDb {
                dir,
                shards,
                index: Mutex::new(index),
                hits: AtomicUsize::new(0),
                misses: AtomicUsize::new(0),
                warm_starts: AtomicUsize::new(0),
                puts: AtomicUsize::new(0),
                lines_dropped: report.lines_dropped,
            },
            report,
        ))
    }

    /// Locks the index. Poisoning is recovered, not propagated: the only
    /// mutation under the lock is `absorb`, a single map insert that runs
    /// after the append has been flushed, so a panic while the lock is
    /// held cannot leave the index half-updated or ahead of the logs.
    fn index(&self) -> MutexGuard<'_, BTreeMap<TuneKey, TuneRecord>> {
        self.index.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The database directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Number of keys in the index.
    pub fn len(&self) -> usize {
        self.index().len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A point-in-time copy of the whole index. The session server
    /// classifies and warm-starts against a snapshot taken at
    /// construction, so concurrent puts during a run never change what
    /// any request sees — the precondition for bit-identical
    /// concurrent-vs-serial behavior.
    pub fn snapshot(&self) -> BTreeMap<TuneKey, TuneRecord> {
        self.index().clone()
    }

    /// Every key in the index, in sorted order.
    pub fn keys(&self) -> Vec<TuneKey> {
        self.index().keys().cloned().collect()
    }

    /// The best record for `key`, counting a hit or a miss in
    /// [`DbStats`]. Use [`TuneDb::peek`] for stat-free reads.
    pub fn get(&self, key: &TuneKey) -> Option<TuneRecord> {
        let r = self.peek(key);
        if r.is_some() {
            self.hits.fetch_add(1, Ordering::Relaxed);
        } else {
            self.misses.fetch_add(1, Ordering::Relaxed);
        }
        r
    }

    /// The best record for `key`, without touching the hit/miss counters.
    pub fn peek(&self, key: &TuneKey) -> Option<TuneRecord> {
        self.index().get(key).cloned()
    }

    /// The stored record nearest to `key` under the warm-start metric
    /// (same operator family and target, smallest log-space shape
    /// distance, ties by key order), excluding `key` itself. Counts a
    /// warm-start in [`DbStats`] when a neighbor exists.
    pub fn nearest_neighbor(&self, key: &TuneKey) -> Option<(TuneRecord, f64)> {
        let index = self.index();
        let found = nearest(key, index.keys()).map(|(k, d)| (index[k].clone(), d));
        drop(index);
        if found.is_some() {
            self.warm_starts.fetch_add(1, Ordering::Relaxed);
        }
        found
    }

    /// Appends a record to its shard log and folds it into the index
    /// (kept only if no cheaper record exists for the key).
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] when the append cannot be written. The index
    /// is only updated after a successful write, so a failed put leaves
    /// no partial state.
    pub fn put(&self, record: TuneRecord) -> Result<(), TuneError> {
        let path = self.shard_path(self.shard_of(&record.key));
        let line = record.to_jsonl();
        // Hold the index lock across the append so concurrent puts to one
        // shard never interleave partial lines.
        let mut index = self.index();
        let mut f = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| TuneError(format!("cannot open {}: {e}", path.display())))?;
        writeln!(f, "{line}").map_err(|e| TuneError(format!("append failed: {e}")))?;
        f.flush()
            .map_err(|e| TuneError(format!("flush failed: {e}")))?;
        absorb(&mut index, record);
        drop(index);
        self.puts.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Rewrites every shard to exactly one (best) record per key, in key
    /// order, atomically per shard (tmp file + rename). Returns the
    /// number of log lines removed.
    ///
    /// # Errors
    ///
    /// Returns [`TuneError`] on I/O failures; a failed shard rewrite
    /// leaves its live file untouched.
    pub fn compact(&self) -> Result<usize, TuneError> {
        let index = self.index();
        let mut per_shard: Vec<String> = vec![String::new(); self.shards];
        for rec in index.values() {
            let s = self.shard_of(&rec.key);
            per_shard[s].push_str(&rec.to_jsonl());
            per_shard[s].push('\n');
        }
        let mut removed = 0usize;
        for (s, content) in per_shard.iter().enumerate() {
            let path = self.shard_path(s);
            let before = match fs::read_to_string(&path) {
                Ok(t) => t.lines().filter(|l| !l.trim().is_empty()).count(),
                Err(_) => 0,
            };
            let after = content.lines().count();
            if before == 0 && after == 0 {
                continue;
            }
            atomic_write(&path, content.as_bytes())?;
            removed += before.saturating_sub(after);
        }
        // Compaction rewrites with `self.shards`; drop any leftover
        // higher-numbered shard files from a previous layout whose
        // records are now re-homed.
        for extra in self.extra_shard_files()? {
            let before = fs::read_to_string(&extra)
                .map(|t| t.lines().filter(|l| !l.trim().is_empty()).count())
                .unwrap_or(0);
            fs::remove_file(&extra)
                .map_err(|e| TuneError(format!("cannot remove {}: {e}", extra.display())))?;
            removed += before;
        }
        Ok(removed)
    }

    /// Current counters.
    pub fn stats(&self) -> DbStats {
        DbStats {
            records: self.len(),
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            warm_starts: self.warm_starts.load(Ordering::Relaxed),
            puts: self.puts.load(Ordering::Relaxed),
            lines_dropped: self.lines_dropped,
        }
    }

    fn shard_of(&self, key: &TuneKey) -> usize {
        (fnv1a64(key.flat().as_bytes()) % self.shards as u64) as usize
    }

    fn shard_path(&self, shard: usize) -> PathBuf {
        self.dir.join(format!("shard-{shard:02}.jsonl"))
    }

    fn extra_shard_files(&self) -> Result<Vec<PathBuf>, TuneError> {
        let mut extras = Vec::new();
        let entries = fs::read_dir(&self.dir)
            .map_err(|e| TuneError(format!("cannot read {}: {e}", self.dir.display())))?;
        for e in entries.filter_map(|e| e.ok()) {
            let p = e.path();
            let Some(name) = p.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(num) = name
                .strip_prefix("shard-")
                .and_then(|r| r.strip_suffix(".jsonl"))
                .and_then(|n| n.parse::<usize>().ok())
            else {
                continue;
            };
            if num >= self.shards {
                extras.push(p);
            }
        }
        extras.sort();
        Ok(extras)
    }
}

/// Keeps the cheaper record per key (ties keep the incumbent, so replay
/// order never changes an established answer).
fn absorb(index: &mut BTreeMap<TuneKey, TuneRecord>, rec: TuneRecord) {
    match index.get(&rec.key) {
        Some(old) if old.seconds <= rec.seconds => {}
        _ => {
            index.insert(rec.key.clone(), rec);
        }
    }
}

/// Writes `bytes` to `path` atomically: write a sibling tmp file, flush,
/// then rename over the destination.
fn atomic_write(path: &Path, bytes: &[u8]) -> Result<(), TuneError> {
    let tmp = path.with_extension("jsonl.tmp");
    {
        let mut f = fs::File::create(&tmp)
            .map_err(|e| TuneError(format!("cannot create {}: {e}", tmp.display())))?;
        f.write_all(bytes)
            .map_err(|e| TuneError(format!("write failed: {e}")))?;
        f.flush()
            .map_err(|e| TuneError(format!("flush failed: {e}")))?;
    }
    fs::rename(&tmp, path)
        .map_err(|e| TuneError(format!("rename to {} failed: {e}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::temp_dir;

    fn rec(op: &str, shape: Vec<i64>, seconds: f64) -> TuneRecord {
        TuneRecord {
            key: TuneKey::new(op, shape, "gpu"),
            config: vec![1, 2, 3],
            seconds,
            seed: 7,
            trials: 10,
            commit: "test".into(),
        }
    }

    #[test]
    fn put_get_persist_across_reopen() {
        let dir = temp_dir("put_get");
        {
            let (db, rep) = TuneDb::open(&dir).unwrap();
            assert_eq!(rep, RecoveryReport::default());
            db.put(rec("gemm", vec![64, 64], 2.0)).unwrap();
            db.put(rec("gemm", vec![64, 64], 1.0)).unwrap(); // better
            db.put(rec("gemm", vec![64, 64], 3.0)).unwrap(); // worse, ignored by index
            db.put(rec("c2d", vec![8, 8, 8], 5.0)).unwrap();
            assert_eq!(db.len(), 2);
            let got = db.get(&TuneKey::new("gemm", vec![64, 64], "gpu")).unwrap();
            assert_eq!(got.seconds, 1.0);
            assert_eq!(db.stats().hits, 1);
        }
        let (db, rep) = TuneDb::open(&dir).unwrap();
        assert_eq!(rep.records_kept, 4);
        assert_eq!(rep.lines_dropped, 0);
        assert_eq!(db.len(), 2);
        assert_eq!(
            db.peek(&TuneKey::new("gemm", vec![64, 64], "gpu"))
                .unwrap()
                .seconds,
            1.0
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn get_counts_misses_and_nearest_counts_warm_starts() {
        let dir = temp_dir("stats");
        let (db, _) = TuneDb::open(&dir).unwrap();
        db.put(rec("gemm", vec![32, 32], 1.0)).unwrap();
        assert!(db.get(&TuneKey::new("gemm", vec![99, 99], "gpu")).is_none());
        let (nb, d) = db
            .nearest_neighbor(&TuneKey::new("gemm", vec![64, 64], "gpu"))
            .unwrap();
        assert_eq!(nb.key.shape, vec![32, 32]);
        assert!(d > 0.0);
        // No cross-family warm start.
        assert!(db
            .nearest_neighbor(&TuneKey::new("c2d", vec![32, 32], "gpu"))
            .is_none());
        let s = db.stats();
        assert_eq!((s.misses, s.warm_starts, s.puts), (1, 1, 1));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_drops_superseded_lines_and_preserves_the_index() {
        let dir = temp_dir("compact");
        let (db, _) = TuneDb::open(&dir).unwrap();
        for i in 0..5 {
            db.put(rec("gemm", vec![64, 64], (10 - i) as f64)).unwrap();
        }
        db.put(rec("gemm", vec![128, 128], 4.0)).unwrap();
        let before = db.keys();
        let removed = db.compact().unwrap();
        assert_eq!(removed, 4); // five versions of one key -> one line
        let (db2, rep) = TuneDb::open(&dir).unwrap();
        assert_eq!(rep.records_kept, 2);
        assert_eq!(db2.keys(), before);
        assert_eq!(
            db2.peek(&TuneKey::new("gemm", vec![64, 64], "gpu"))
                .unwrap()
                .seconds,
            6.0
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn poisoned_index_is_recovered() {
        let dir = temp_dir("poison");
        let (db, _) = TuneDb::open(&dir).unwrap();
        db.put(rec("gemm", vec![64, 64], 2.0)).unwrap();
        db.put(rec("gemm", vec![64, 64], 3.0)).unwrap(); // superseded line
        let panicked = std::thread::scope(|s| {
            s.spawn(|| {
                let _guard = db.index.lock().unwrap();
                panic!("panic while holding the tunedb index");
            })
            .join()
            .is_err()
        });
        assert!(panicked && db.index.is_poisoned());
        let key = TuneKey::new("gemm", vec![64, 64], "gpu");
        assert_eq!(db.get(&key).unwrap().seconds, 2.0);
        db.put(rec("gemm", vec![64, 64], 1.0)).unwrap();
        db.put(rec("c2d", vec![8, 8, 8], 5.0)).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[&key].seconds, 1.0);
        assert_eq!(db.compact().unwrap(), 2);
        drop(db);
        let (db, rep) = TuneDb::open(&dir).unwrap();
        assert_eq!((rep.records_kept, rep.lines_dropped), (2, 0));
        assert_eq!(db.peek(&key).unwrap().seconds, 1.0);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn records_spread_across_shards() {
        let dir = temp_dir("shards");
        let (db, _) = TuneDb::open(&dir).unwrap();
        for i in 1..=32 {
            db.put(rec("gemm", vec![i, i], i as f64)).unwrap();
        }
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with("shard-"))
            .collect();
        assert!(files.len() > 1, "expected multiple shards, got {files:?}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn recovery_truncates_at_first_bad_record() {
        let dir = temp_dir("recover");
        let (db, _) = TuneDb::open_with_shards(&dir, 1).unwrap();
        for i in 1..=4 {
            db.put(rec("gemm", vec![i * 16, 64], i as f64)).unwrap();
        }
        drop(db);
        let shard = dir.join("shard-00.jsonl");
        let text = fs::read_to_string(&shard).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Corrupt record 3 (flip a byte inside it); records 1-2 intact,
        // record 4 intact but after the corruption point.
        let mut doctored: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        doctored[2] = doctored[2].replacen(':', ";", 1);
        fs::write(&shard, doctored.join("\n") + "\n").unwrap();

        let (db, rep) = TuneDb::open_with_shards(&dir, 1).unwrap();
        assert_eq!(rep.records_kept, 2);
        assert_eq!(rep.lines_dropped, 2);
        assert_eq!(rep.corrupt.len(), 1);
        assert_eq!(db.len(), 2);
        assert_eq!(db.stats().lines_dropped, 2);
        // The shard file itself was truncated to the intact prefix.
        let after = fs::read_to_string(&shard).unwrap();
        assert_eq!(after.lines().count(), 2);
        // A fresh reopen sees a clean log.
        let (_, rep2) = TuneDb::open_with_shards(&dir, 1).unwrap();
        assert_eq!(rep2.lines_dropped, 0);
        assert!(rep2.corrupt.is_empty());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = temp_dir("torn");
        let (db, _) = TuneDb::open_with_shards(&dir, 1).unwrap();
        db.put(rec("gemm", vec![16, 16], 1.0)).unwrap();
        db.put(rec("gemm", vec![32, 32], 2.0)).unwrap();
        drop(db);
        let shard = dir.join("shard-00.jsonl");
        let mut text = fs::read_to_string(&shard).unwrap();
        // Simulate a crash mid-append: cut the last record in half.
        let cut = text.len() - 20;
        text.truncate(cut);
        fs::write(&shard, &text).unwrap();
        let (db, rep) = TuneDb::open_with_shards(&dir, 1).unwrap();
        assert_eq!(rep.records_kept, 1);
        assert_eq!(rep.lines_dropped, 1);
        assert_eq!(db.len(), 1);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn zero_shards_is_an_error() {
        let dir = temp_dir("zero");
        assert!(TuneDb::open_with_shards(&dir, 0).is_err());
        fs::remove_dir_all(&dir).ok();
    }
}
