//! The evaluation history (the set `H` of §5.1) and the simulated-
//! annealing starting-point rule.
//!
//! FlexTensor keeps every evaluated point with its performance value `E`
//! and, at each exploration step, chooses starting points from `H` with
//! probability `∝ exp(-γ · (E* - E_p) / E*)` — points close to the current
//! best are chosen often, but worse points keep a temperature-controlled
//! chance, which is what lets the search escape local optima.

use std::borrow::Borrow;
use std::cell::RefCell;

use flextensor_schedule::config::{ConfigLayout, NodeConfig};
use rand::Rng;

use crate::table::{hash_key, KeyTable};

/// Draws resolved together in one pass over the weights.
const DRAW_LANES: usize = 8;

thread_local! {
    /// Key buffer for the `&self` lookups, so `contains` allocates nothing.
    static LOOKUP_KEY: RefCell<Vec<i64>> = const { RefCell::new(Vec::new()) };
}

/// What the history keeps per point besides its key.
#[derive(Debug, Clone, Copy)]
struct Point {
    /// Performance value `E` (0 = infeasible).
    e: f64,
    /// Index into [`History::layouts`] of the config last recorded under
    /// this key.
    layout: u32,
}

/// The set `H`: every evaluated point and its performance value.
///
/// Points live in one flat store: their [`NodeConfig::encode`] words sit
/// back to back in the arena of the crate's open-addressed key table, and
/// no `NodeConfig` is kept per point — the few chosen starting points are
/// rebuilt from their words ([`NodeConfig::from_words`]); only the best
/// point is kept as a config.
///
/// Starting-point sampling walks the points in ascending key order (the
/// order of a `BTreeMap<Vec<i64>, _>`), so it is deterministic given the
/// RNG seed. The history keeps that order as an index of point ids with
/// each point's SA weight stored beside it; points recorded since the last
/// selection are merged in once per selection, and the weights are
/// recomputed only when `E*` or `γ` changes or a point's `E` does.
///
/// Performance values are throughputs (`1 / seconds`), so higher is
/// better; infeasible points are recorded with `E = 0` to prevent
/// re-evaluation.
#[derive(Debug, Clone, Default)]
pub struct History {
    points: KeyTable<Point>,
    /// Distinct encoding layouts seen (one for any single-op search).
    layouts: Vec<ConfigLayout>,
    /// Points in ascending key order, as of the last selection.
    order: Vec<Ranked>,
    /// SA weight of each `order` entry, valid for `weights_for`.
    weights: Vec<f64>,
    /// Buffers the next `order` / `weights` are merged into.
    spare: (Vec<Ranked>, Vec<f64>),
    /// Bits of the `(E*, γ)` the weights were computed for; `None` when a
    /// re-recorded point changed its `E`.
    weights_for: Option<(u64, u64)>,
    /// Points recorded since the last selection (not in `order`).
    pending: Vec<Ranked>,
    best: Option<(NodeConfig, f64)>,
    /// Reused key buffer for `record`.
    key: Vec<i64>,
}

/// A point's place in key order: its id and its [`sort_prefix`], which
/// decides most key comparisons without touching the key arena.
#[derive(Debug, Clone, Copy, Default)]
struct Ranked {
    prefix: [u64; 4],
    id: u32,
}

/// An order-preserving summary of a key: the first 32 bytes of a
/// variable-length, prefix-free, order-preserving byte code of its words
/// (one byte for `0..=190`, two up to 16318, nine otherwise), zero-padded.
/// For keys `a < b` it gives `sort_prefix(a) <= sort_prefix(b)`, so unequal
/// prefixes order two keys and only equal ones need the key words.
fn sort_prefix(key: &[i64]) -> [u64; 4] {
    let mut bytes = [0u8; 32];
    let mut len = 0;
    for &w in key {
        let mut code = [0u8; 9];
        let n = match w {
            0..=190 => {
                code[0] = w as u8 + 1;
                1
            }
            191..=16318 => {
                let v = (w - 191) as u16;
                code[0] = 0xC0 + (v >> 8) as u8;
                code[1] = v as u8;
                2
            }
            _ => {
                // Negative words sort below every other word, large ones
                // above; as `u64`, each group is in order.
                code[0] = if w < 0 { 0x00 } else { 0xFF };
                code[1..].copy_from_slice(&(w as u64).to_be_bytes());
                9
            }
        };
        let take = n.min(bytes.len() - len);
        bytes[len..len + take].copy_from_slice(&code[..take]);
        len += take;
        if len == bytes.len() {
            break;
        }
    }
    std::array::from_fn(|i| {
        let word: [u8; 8] = bytes[8 * i..8 * i + 8].try_into().expect("8 bytes");
        u64::from_be_bytes(word)
    })
}

/// The SA weight `exp(-γ · (E* - E) / E*)` of a point with value `e`.
fn weight(e: f64, e_star: f64, gamma: f64) -> f64 {
    (-gamma * (e_star - e) / e_star.max(f64::MIN_POSITIVE)).exp()
}

impl History {
    /// An empty history.
    pub fn new() -> History {
        History::default()
    }

    /// Whether a point has already been evaluated.
    pub fn contains(&self, cfg: &NodeConfig) -> bool {
        self.find(cfg).is_some()
    }

    /// Whether the point with these [`NodeConfig::encode`] words has
    /// already been evaluated: [`History::contains`] for a caller that
    /// holds the words, with no encoding and no config.
    pub fn contains_key(&self, key: &[i64]) -> bool {
        self.points.get(hash_key(key), key).is_some()
    }

    /// Records a point with its performance value `E` (0 = infeasible).
    ///
    /// Takes the config by value or by reference: the history keeps only
    /// its encoding, and clones a borrowed config only when it becomes
    /// the best point.
    pub fn record(&mut self, cfg: impl Borrow<NodeConfig>, e: f64) {
        let cfg = cfg.borrow();
        let layout = self.layout_id(cfg);
        self.key.clear();
        cfg.encode_into(&mut self.key);
        let (id, old) = self
            .points
            .insert(hash_key(&self.key), &self.key, Point { e, layout });
        match old {
            None => self.pending.push(Ranked {
                prefix: sort_prefix(&self.key),
                id: u32::try_from(id).expect("history outgrew u32 ids"),
            }),
            Some(old) if old.e.to_bits() != e.to_bits() => self.weights_for = None,
            Some(_) => {}
        }
        if self.best.as_ref().is_none_or(|(_, b)| e > *b) && e > 0.0 {
            self.best = Some((cfg.clone(), e));
        }
    }

    /// Performance value of a previously recorded point.
    pub fn value(&self, cfg: &NodeConfig) -> Option<f64> {
        self.find(cfg).map(|id| self.points.value(id).e)
    }

    /// The best feasible point seen, with its performance value.
    pub fn best(&self) -> Option<(&NodeConfig, f64)> {
        self.best.as_ref().map(|(c, e)| (c, *e))
    }

    /// Number of evaluated points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether no point has been evaluated yet.
    pub fn is_empty(&self) -> bool {
        self.points.len() == 0
    }

    /// Chooses `n` starting points (with replacement, deduplicated) using
    /// the simulated-annealing rule with temperature parameter `gamma`.
    ///
    /// Returns fewer than `n` points when `H` holds fewer distinct
    /// feasible candidates.
    pub fn select_starts(&mut self, n: usize, gamma: f64, rng: &mut impl Rng) -> Vec<NodeConfig> {
        self.select_starts_with_energy(n, gamma, rng)
            .into_iter()
            .map(|(c, _)| c)
            .collect()
    }

    /// [`History::select_starts`], but each chosen point is paired with
    /// its performance value `E` at selection time. The search drivers use
    /// this to log SA moves (start energy vs reached energy) without a
    /// second history lookup; the RNG draw sequence is identical to
    /// `select_starts`.
    ///
    /// Each draw `t ~ U[0, Σw)` walks the points in ascending key order
    /// and picks the first one with `t < w`, subtracting `w` otherwise
    /// (the last point when none matches); the sum is taken left to right
    /// in that order.
    pub fn select_starts_with_energy(
        &mut self,
        n: usize,
        gamma: f64,
        rng: &mut impl Rng,
    ) -> Vec<(NodeConfig, f64)> {
        let Some((_, e_star)) = self.best() else {
            return Vec::new();
        };
        let total = self.refresh(e_star, gamma);
        let draws: Vec<f64> = (0..n)
            .map(|_| rng.gen_range(0.0..total.max(f64::MIN_POSITIVE)))
            .collect();
        let mut chosen: Vec<u32> = Vec::new();
        for lanes in draws.chunks(DRAW_LANES) {
            for pos in resolve(&self.weights, lanes) {
                let id = self.order[pos].id;
                if !chosen.contains(&id) {
                    chosen.push(id);
                }
            }
        }
        chosen
            .into_iter()
            .map(|id| {
                let p = self.points.value(id as usize);
                let layout = &self.layouts[p.layout as usize];
                (
                    NodeConfig::from_words(layout, self.points.key(id as usize)),
                    p.e,
                )
            })
            .collect()
    }

    /// The id of `cfg`'s point, if recorded.
    fn find(&self, cfg: &NodeConfig) -> Option<usize> {
        LOOKUP_KEY.with(|key| {
            let mut key = key.borrow_mut();
            key.clear();
            cfg.encode_into(&mut key);
            self.points.get(hash_key(&key), &key)
        })
    }

    /// Index of `cfg`'s layout in `layouts`, adding it if new.
    fn layout_id(&mut self, cfg: &NodeConfig) -> u32 {
        let id = match self.layouts.iter().position(|l| l.matches(cfg)) {
            Some(id) => id,
            None => {
                self.layouts.push(ConfigLayout::of(cfg));
                self.layouts.len() - 1
            }
        };
        id as u32
    }

    /// Brings `order` and `weights` up to date for `(e_star, gamma)` and
    /// returns the weights' left-to-right sum. One forward pass merges the
    /// pending points into key order, recomputes every weight when the
    /// cached ones were computed for other parameters, and accumulates the
    /// sum (a serial chain of adds the copying hides under).
    fn refresh(&mut self, e_star: f64, gamma: f64) -> f64 {
        let params = Some((e_star.to_bits(), gamma.to_bits()));
        let stale = self.weights_for != params;
        self.weights_for = params;
        let points = &self.points;
        let weight_of = |r: &Ranked| weight(points.value(r.id as usize).e, e_star, gamma);
        let cmp = |a: &Ranked, b: &Ranked| {
            a.prefix
                .cmp(&b.prefix)
                .then_with(|| points.key(a.id as usize).cmp(points.key(b.id as usize)))
        };
        // Keys are distinct, so the unstable sort is deterministic.
        self.pending.sort_unstable_by(cmp);
        let (order, weights) = &mut self.spare;
        order.clear();
        weights.clear();
        let n = self.order.len() + self.pending.len();
        order.reserve(n);
        weights.reserve(n);
        // `exp` never yields -0.0, so starting at +0.0 matches `Sum`.
        let mut total = 0.0;
        let mut pending = self.pending.iter().peekable();
        for (r, &w) in self.order.iter().zip(&self.weights) {
            while let Some(p) = pending.next_if(|p| cmp(p, r).is_lt()) {
                let w = weight_of(p);
                order.push(*p);
                weights.push(w);
                total += w;
            }
            let w = if stale { weight_of(r) } else { w };
            order.push(*r);
            weights.push(w);
            total += w;
        }
        for p in pending {
            let w = weight_of(p);
            order.push(*p);
            weights.push(w);
            total += w;
        }
        std::mem::swap(order, &mut self.order);
        std::mem::swap(weights, &mut self.weights);
        self.pending.clear();
        total
    }
}

/// Resolves up to [`DRAW_LANES`] draws in one pass over `weights`: for each
/// draw `t`, the position of the first weight `w` with `t < w`, where `t`
/// drops by every `w` it passes — the last position if none matches. Each
/// draw sees exactly the comparisons and subtractions of a one-draw scan.
///
/// Every open draw subtracts the same weights in the same order, and
/// rounding is monotone, so draws keep their initial order: sorted
/// ascending, they match in that order, and only the smallest open draw
/// needs comparing at each weight. (A NaN draw never matches.)
fn resolve(weights: &[f64], draws: &[f64]) -> Vec<usize> {
    debug_assert!(draws.len() <= DRAW_LANES && !weights.is_empty());
    let mut pick = vec![weights.len() - 1; draws.len()];
    let mut lanes: Vec<usize> = (0..draws.len()).filter(|&j| !draws[j].is_nan()).collect();
    lanes.sort_by(|&a, &b| draws[a].total_cmp(&draws[b]));
    let mut t = [0.0f64; DRAW_LANES];
    for (k, &j) in lanes.iter().enumerate() {
        t[k] = draws[j];
    }
    // Lanes `..first` have matched; the rest are open.
    let mut first = 0;
    for (i, &w) in weights.iter().enumerate() {
        while first < lanes.len() && t[first] < w {
            pick[lanes[first]] = i;
            first += 1;
        }
        if first == lanes.len() {
            break;
        }
        // Matched lanes subtract too; their values are no longer read.
        for t in &mut t {
            *t -= w;
        }
    }
    pick
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn cfg_with_unroll(u: bool, cache: bool) -> NodeConfig {
        let g = ops::gemm(8, 8, 8);
        let mut c = NodeConfig::naive(g.root_op());
        c.unroll = u;
        c.cache_shared = cache;
        c
    }

    #[test]
    fn best_tracks_maximum_feasible() {
        let mut h = History::new();
        h.record(cfg_with_unroll(false, false), 10.0);
        h.record(cfg_with_unroll(true, false), 30.0);
        h.record(cfg_with_unroll(false, true), 0.0); // infeasible
        let (best, e) = h.best().unwrap();
        assert_eq!(e, 30.0);
        assert!(best.unroll);
        assert_eq!(h.len(), 3);
    }

    #[test]
    fn contains_and_value() {
        let mut h = History::new();
        let c = cfg_with_unroll(true, true);
        assert!(!h.contains(&c));
        h.record(c.clone(), 5.0);
        assert!(h.contains(&c));
        assert_eq!(h.value(&c), Some(5.0));
    }

    #[test]
    fn sa_prefers_good_points() {
        let mut h = History::new();
        let good = cfg_with_unroll(true, false);
        let bad = cfg_with_unroll(false, false);
        h.record(good.clone(), 100.0);
        h.record(bad.clone(), 1.0);
        let mut rng = StdRng::seed_from_u64(0);
        let mut good_count = 0;
        for _ in 0..200 {
            let s = h.select_starts(1, 4.0, &mut rng);
            if s.first() == Some(&good) {
                good_count += 1;
            }
        }
        assert!(good_count > 150, "good chosen {good_count}/200");
    }

    #[test]
    fn high_temperature_explores_bad_points_sometimes() {
        let mut h = History::new();
        let good = cfg_with_unroll(true, false);
        let bad = cfg_with_unroll(false, false);
        h.record(good, 100.0);
        h.record(bad.clone(), 10.0);
        let mut rng = StdRng::seed_from_u64(1);
        let mut bad_count = 0;
        for _ in 0..300 {
            // gamma = 0: uniform selection.
            let s = h.select_starts(1, 0.0, &mut rng);
            if s.first() == Some(&bad) {
                bad_count += 1;
            }
        }
        assert!(
            (90..=210).contains(&bad_count),
            "expected ~150, got {bad_count}"
        );
    }

    #[test]
    fn empty_history_selects_nothing() {
        let mut h = History::new();
        let mut rng = StdRng::seed_from_u64(2);
        assert!(h.select_starts(4, 1.0, &mut rng).is_empty());
    }

    #[test]
    fn select_with_energy_matches_plain_select() {
        let mut h = History::new();
        h.record(cfg_with_unroll(true, false), 10.0);
        h.record(cfg_with_unroll(false, false), 4.0);
        h.record(cfg_with_unroll(false, true), 0.0);
        let plain = h.select_starts(6, 2.0, &mut StdRng::seed_from_u64(7));
        let with_e = h.select_starts_with_energy(6, 2.0, &mut StdRng::seed_from_u64(7));
        assert_eq!(
            plain,
            with_e.iter().map(|(c, _)| c.clone()).collect::<Vec<_>>()
        );
        for (c, e) in &with_e {
            assert_eq!(h.value(c), Some(*e));
        }
    }

    /// The one-draw scan [`resolve`] must agree with.
    fn scan(weights: &[f64], mut t: f64) -> usize {
        for (i, &w) in weights.iter().enumerate() {
            if t < w {
                return i;
            }
            t -= w;
        }
        weights.len() - 1
    }

    #[test]
    fn resolve_matches_one_draw_scans() {
        // Zero runs, subnormal, infinite and NaN weights, and draws at or
        // past the total (the fall-back-to-last path) included.
        let specials = [0.0, -0.0, 1e-310, 1.0, 3.5, f64::INFINITY, f64::NAN];
        let mut rng = StdRng::seed_from_u64(9);
        for case in 0..4000 {
            let len = rng.gen_range(1..40);
            let weights: Vec<f64> = (0..len)
                .map(|_| match rng.gen_range(0..8) {
                    0 => specials[rng.gen_range(0..specials.len())],
                    1 => 0.0,
                    _ => rng.gen_range(0.0..2.0),
                })
                .collect();
            let total: f64 = weights.iter().sum();
            let draws: Vec<f64> = (0..rng.gen_range(1..=DRAW_LANES))
                .map(|_| match rng.gen_range(0..6) {
                    0 => total,
                    1 => specials[rng.gen_range(0..specials.len())],
                    _ => rng.gen_range(0.0..len as f64),
                })
                .collect();
            let want: Vec<usize> = draws.iter().map(|&t| scan(&weights, t)).collect();
            assert_eq!(
                resolve(&weights, &draws),
                want,
                "case {case}: weights {weights:?}, draws {draws:?}"
            );
        }
    }

    #[test]
    fn sort_prefix_orders_like_the_keys() {
        let words = [
            i64::MIN,
            -300,
            -1,
            0,
            1,
            190,
            191,
            447,
            16318,
            16319,
            1 << 40,
            i64::MAX,
        ];
        let mut rng = StdRng::seed_from_u64(4);
        for _ in 0..5000 {
            let mut key = || -> Vec<i64> {
                (0..rng.gen_range(0..12))
                    .map(|_| words[rng.gen_range(0..words.len())])
                    .collect()
            };
            let (a, b) = (key(), key());
            let (pa, pb) = (sort_prefix(&a), sort_prefix(&b));
            if pa != pb {
                assert_eq!(pa.cmp(&pb), a.cmp(&b), "{a:?} vs {b:?}");
            }
        }
    }

    #[test]
    fn select_dedups() {
        let mut h = History::new();
        h.record(cfg_with_unroll(true, false), 10.0);
        let mut rng = StdRng::seed_from_u64(3);
        let s = h.select_starts(5, 1.0, &mut rng);
        assert_eq!(s.len(), 1);
    }
}
