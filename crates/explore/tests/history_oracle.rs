//! Differential test of the search history against a reference model.
//!
//! [`OracleHistory`] is the straightforward form of the set `H`: a
//! `BTreeMap` from encoding to `(config, E)` that recomputes every SA
//! weight on each selection and scans the map once per draw. The flat,
//! hash-indexed [`History`] must be indistinguishable from it: the same
//! `contains` (by config and by key words), `value`, `best`, `len`, the
//! same selected starts with the same energies, and the same RNG state
//! after every selection.

use std::collections::BTreeMap;

use flextensor_explore::{History, Space};
use flextensor_ir::ops::{self, ConvParams};
use flextensor_schedule::config::{NodeConfig, TargetKind};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// The reference history: one owned config per point, weights
/// recomputed per selection, one ordered scan per draw.
#[derive(Default)]
struct OracleHistory {
    entries: BTreeMap<Vec<i64>, (NodeConfig, f64)>,
    best: Option<(NodeConfig, f64)>,
}

impl OracleHistory {
    fn contains(&self, cfg: &NodeConfig) -> bool {
        self.entries.contains_key(&cfg.encode())
    }

    fn record(&mut self, cfg: NodeConfig, e: f64) {
        if self.best.as_ref().is_none_or(|(_, b)| e > *b) && e > 0.0 {
            self.best = Some((cfg.clone(), e));
        }
        self.entries.insert(cfg.encode(), (cfg, e));
    }

    fn value(&self, cfg: &NodeConfig) -> Option<f64> {
        self.entries.get(&cfg.encode()).map(|(_, e)| *e)
    }

    fn best(&self) -> Option<(&NodeConfig, f64)> {
        self.best.as_ref().map(|(c, e)| (c, *e))
    }

    fn select_starts_with_energy(
        &self,
        n: usize,
        gamma: f64,
        rng: &mut impl Rng,
    ) -> Vec<(NodeConfig, f64)> {
        let Some((_, e_star)) = self.best() else {
            return Vec::new();
        };
        let candidates: Vec<(&NodeConfig, f64, f64)> = self
            .entries
            .values()
            .map(|(c, e)| {
                let w = (-gamma * (e_star - e) / e_star.max(f64::MIN_POSITIVE)).exp();
                (c, *e, w)
            })
            .collect();
        let total: f64 = candidates.iter().map(|(_, _, w)| w).sum();
        let mut out: Vec<(NodeConfig, f64)> = Vec::new();
        for _ in 0..n {
            let mut t = rng.gen_range(0.0..total.max(f64::MIN_POSITIVE));
            let mut chosen = candidates.last().map(|(c, e, _)| (*c, *e));
            for (c, e, w) in &candidates {
                if t < *w {
                    chosen = Some((c, *e));
                    break;
                }
                t -= w;
            }
            if let Some((c, e)) = chosen {
                if !out.iter().any(|(o, _)| o == c) {
                    out.push((c.clone(), e));
                }
            }
        }
        out
    }
}

/// Words that exercise every class of the history's order-preserving key
/// code: one-byte, two-byte and nine-byte values, negatives, and the
/// extremes.
const ODD_WORDS: [i64; 12] = [
    0,
    190,
    191,
    300,
    16318,
    16319,
    1 << 40,
    i64::MAX,
    -1,
    -5,
    i64::MIN,
    2,
];

/// A config of arbitrary shape whose words are mostly 1, so keys share
/// long prefixes (beyond any fixed-width summary) and differ late.
fn raw_config(rng: &mut StdRng) -> NodeConfig {
    let word = |rng: &mut StdRng| -> i64 {
        match rng.gen_range(0..10) {
            0 => ODD_WORDS[rng.gen_range(0..ODD_WORDS.len())],
            1 | 2 => rng.gen_range(1..5),
            _ => 1,
        }
    };
    let axes = |rng: &mut StdRng, count: usize, arity: usize| -> Vec<Vec<i64>> {
        (0..count)
            .map(|_| {
                let n = if rng.gen_range(0..8) == 0 {
                    rng.gen_range(0..6)
                } else {
                    arity
                };
                (0..n).map(|_| word(rng)).collect()
            })
            .collect()
    };
    let ns = rng.gen_range(1..10);
    let nr = rng.gen_range(0..3);
    NodeConfig {
        spatial_splits: axes(rng, ns, 4),
        reduce_splits: axes(rng, nr, 3),
        reorder: (0..ns).map(|_| rng.gen_range(0..ns)).collect(),
        fuse_outer: rng.gen_range(1..3),
        unroll: rng.gen_bool(0.5),
        vectorize: rng.gen_bool(0.5),
        cache_shared: rng.gen_bool(0.5),
        inline_data: false,
        fpga_partition: word(rng),
        fpga_pipeline: 1,
    }
}

/// Where a case's configs come from: random shapes and words (long
/// shared prefixes, odd words) without a space, or a real schedule space
/// walked the way a search walks it — random points and neighbors of
/// points already drawn.
struct Source {
    space: Option<Space>,
    seen: Vec<NodeConfig>,
}

impl Source {
    fn new(kind: usize) -> Source {
        let space = match kind {
            0 => None,
            1 => Some(Space::new(&ops::gemm(256, 512, 1024), TargetKind::Gpu)),
            _ => Some(Space::new(
                &ops::conv2d(ConvParams::same(1, 16, 32, 3), 14, 14),
                TargetKind::Cpu,
            )),
        };
        Source {
            space,
            seen: Vec::new(),
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> NodeConfig {
        let Some(space) = &self.space else {
            return raw_config(rng);
        };
        let cfg = if self.seen.is_empty() || rng.gen_range(0..8) == 0 {
            space.random_point(rng)
        } else {
            let base = &self.seen[rng.gen_range(0..self.seen.len())];
            let dirs = space.directions();
            let dir = dirs[rng.gen_range(0..dirs.len())];
            space
                .apply(base, dir)
                .unwrap_or_else(|| space.random_point(rng))
        };
        self.seen.push(cfg.clone());
        cfg
    }
}

fn same_best(a: Option<(&NodeConfig, f64)>, b: Option<(&NodeConfig, f64)>) -> bool {
    match (a, b) {
        (None, None) => true,
        (Some((ca, ea)), Some((cb, eb))) => ca == cb && ea.to_bits() == eb.to_bits(),
        _ => false,
    }
}

/// Drives one record/select sequence through both histories and returns
/// the first disagreement.
fn run_case(seed: u64, size: usize, kind: usize, gamma: f64, n: usize) -> Result<(), String> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut src = Source::new(kind);
    let mut flat = History::new();
    let mut oracle = OracleHistory::default();
    let mut recorded: Vec<NodeConfig> = Vec::new();
    let select_every = (size / 12).max(1);
    for step in 0..size {
        let cfg = if !recorded.is_empty() && rng.gen_range(0..10) == 0 {
            // Re-record an existing key, usually with a new E.
            recorded[rng.gen_range(0..recorded.len())].clone()
        } else {
            src.next(&mut rng)
        };
        let e = match rng.gen_range(0..10) {
            0 | 1 => 0.0,
            2 => 50.0,
            _ => rng.gen_range(0.01..100.0),
        };
        if flat.contains(&cfg) != oracle.contains(&cfg) {
            return Err(format!("step {step}: contains disagrees for {cfg}"));
        }
        flat.record(cfg.clone(), e);
        oracle.record(cfg.clone(), e);
        recorded.push(cfg);
        if flat.len() != oracle.entries.len() {
            return Err(format!(
                "step {step}: len {} vs {}",
                flat.len(),
                oracle.entries.len()
            ));
        }
        if !same_best(flat.best(), oracle.best()) {
            return Err(format!("step {step}: best disagrees"));
        }
        if step % select_every == select_every - 1 || step + 1 == size {
            let draw_seed = rng.next_u64();
            let mut r_flat = StdRng::seed_from_u64(draw_seed);
            let mut r_oracle = StdRng::seed_from_u64(draw_seed);
            let got = flat.select_starts_with_energy(n, gamma, &mut r_flat);
            let want = oracle.select_starts_with_energy(n, gamma, &mut r_oracle);
            let bits = |v: &[(NodeConfig, f64)]| -> Vec<(Vec<i64>, u64)> {
                v.iter().map(|(c, e)| (c.encode(), e.to_bits())).collect()
            };
            if got != want {
                return Err(format!(
                    "step {step}: starts differ\n  flat:   {:?}\n  oracle: {:?}",
                    bits(&got),
                    bits(&want)
                ));
            }
            if bits(&got) != bits(&want) {
                return Err(format!("step {step}: start energies differ"));
            }
            if r_flat.next_u64() != r_oracle.next_u64() {
                return Err(format!("step {step}: RNG streams diverged"));
            }
            // Lookups of recorded and fresh configs.
            for _ in 0..8 {
                let probe = if rng.gen_bool(0.5) {
                    recorded[rng.gen_range(0..recorded.len())].clone()
                } else {
                    src.next(&mut rng)
                };
                if flat.contains(&probe) != oracle.contains(&probe)
                    || flat.contains_key(&probe.encode()) != oracle.contains(&probe)
                {
                    return Err(format!("step {step}: contains disagrees for {probe}"));
                }
                let (a, b) = (flat.value(&probe), oracle.value(&probe));
                if a.map(f64::to_bits) != b.map(f64::to_bits) {
                    return Err(format!("step {step}: value {a:?} vs {b:?} for {probe}"));
                }
            }
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn flat_history_matches_btreemap_oracle(
        seed in any::<u64>(),
        size in prop::sample::select(vec![1usize, 2, 3, 7, 40, 250, 900, 2500]),
        kind in 0usize..3,
        gamma in prop::sample::select(vec![0.0f64, 0.5, 4.0, 1e6]),
        n in prop::sample::select(vec![1usize, 8, 9, 17]),
    ) {
        run_case(seed, size, kind, gamma, n)?;
    }
}

#[test]
fn extreme_temperature_matches_the_oracle() {
    // γ = 1e6 underflows every weight but the best's to 0, so long runs
    // of zero weights sit between the few points that can be drawn.
    for seed in 0..16 {
        run_case(seed, 300, (seed % 3) as usize, 1e6, 17).unwrap();
    }
}

#[test]
fn empty_and_infeasible_only_histories_select_nothing() {
    let mut flat = History::new();
    let oracle = OracleHistory::default();
    let mut r = StdRng::seed_from_u64(1);
    assert!(flat.select_starts_with_energy(8, 2.0, &mut r).is_empty());
    assert!(oracle
        .select_starts_with_energy(8, 2.0, &mut StdRng::seed_from_u64(1))
        .is_empty());
    let mut rng = StdRng::seed_from_u64(2);
    for _ in 0..20 {
        flat.record(raw_config(&mut rng), 0.0);
    }
    let mut r2 = StdRng::seed_from_u64(1);
    assert!(flat.select_starts_with_energy(8, 2.0, &mut r2).is_empty());
    // No feasible point: no draw is taken.
    assert_eq!(r2.next_u64(), StdRng::seed_from_u64(1).next_u64());
}
