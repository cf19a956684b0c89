//! Seeded input generation. Everything a workload feeds the program is
//! drawn here from the workload seed; nothing depends on the clock.
//!
//! Draws are systematic rather than independent: each Table 3 operator
//! kind contributes the same number of tasks, spaced evenly through its
//! case list from a seeded offset, with devices rotated from a seeded
//! shift. Modeled GFLOP/s spans three orders of magnitude across cases, so
//! independent draws of a few dozen tasks would move the geomean by more
//! than any regression bound from one seed to the next.

use flextensor::ir::graph::Graph;
use flextensor::ir::suite::{test_cases, OperatorKind};
use flextensor::sim::spec::{v100, vu9p, xeon_e5_2699_v4, Device};
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

/// Tasks per operator kind in one search pass (two per device).
pub const PICKS_PER_KIND: usize = 6;

/// One `optimize()` input.
#[derive(Debug, Clone)]
pub struct SearchTask {
    /// Table 3 abbreviation and case index, for messages.
    pub label: String,
    /// The computation.
    pub graph: Graph,
    /// The target device.
    pub device: Device,
    /// `SearchOptions::seed` for this task.
    pub search_seed: u64,
}

/// The three device models of the paper's evaluation.
pub fn devices() -> [Device; 3] {
    [
        Device::Gpu(v100()),
        Device::Cpu(xeon_e5_2699_v4()),
        Device::Fpga(vu9p()),
    ]
}

fn rng_for(seed: u64, stream: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

fn shuffle<T>(v: &mut [T], rng: &mut StdRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// `picks` case indices spread evenly through `0..n` from a seeded
/// offset.
fn spread(n: usize, picks: usize, rng: &mut StdRng) -> Vec<usize> {
    let offset = rng.gen_range(0..n);
    (0..picks).map(|j| (offset + j * n / picks) % n).collect()
}

/// One search pass: `PICKS_PER_KIND` tasks for every Table 3 kind, in
/// blocks. Block `j` holds the `j`-th pick of every kind in seeded order,
/// so the first block alone covers all twelve kinds.
pub fn search_pass(seed: u64) -> Vec<SearchTask> {
    let mut rng = rng_for(seed, 1);
    let devs = devices();
    let mut per_kind: Vec<Vec<SearchTask>> = Vec::new();
    for kind in OperatorKind::table3() {
        let cases = test_cases(kind);
        let shift = rng.gen_range(0..devs.len());
        let picks = spread(cases.len(), PICKS_PER_KIND, &mut rng);
        per_kind.push(
            picks
                .into_iter()
                .enumerate()
                .map(|(j, c)| {
                    let device = devs[(j + shift) % devs.len()].clone();
                    SearchTask {
                        label: format!("{}#{c}@{}", kind.abbr(), device.name()),
                        graph: cases[c].clone(),
                        device,
                        search_seed: rng.next_u64(),
                    }
                })
                .collect(),
        );
    }
    let mut pass = Vec::new();
    for j in 0..PICKS_PER_KIND {
        let mut block: Vec<SearchTask> = per_kind.iter().map(|k| k[j].clone()).collect();
        shuffle(&mut block, &mut rng);
        pass.extend(block);
    }
    pass
}

/// Keys per operator kind in the `serve_mixed` pool (fewer when the kind
/// has fewer cases), about half of them tuned during set-up.
pub const SERVE_KEYS_PER_KIND: usize = 6;

/// The `serve_mixed` inputs.
#[derive(Debug, Clone)]
pub struct ServeMix {
    /// Keys tuned into the database during set-up.
    pub seeded: Vec<Graph>,
    /// Keys absent from the database, from the same kinds.
    pub unseeded: Vec<Graph>,
    /// The round's requests as `(is_seeded, index into seeded/unseeded)`.
    pub requests: Vec<(bool, usize)>,
}

/// Draws the `serve_mixed` database and one round's requests.
///
/// The key pool is fixed: `SERVE_KEYS_PER_KIND` cases of every Table 3
/// kind, spread evenly through its case list. The seed decides which key
/// of each neighbouring pair is tuned during set-up, and the requests:
/// `hits` for seeded keys and `misses` for unseeded ones, shuffled
/// together, with every unseeded key requested at least once. The server's quick tunes are far
/// from converged, so a key's served GFLOP/s carries search noise; with a
/// pool drawn per seed that noise alone moves the geomean by ~25% between
/// seeds. Each unseeded key is tuned once per round and its other requests
/// coalesce, so a round's class counts are fixed by construction.
pub fn serve_mix(seed: u64, hits: usize, misses: usize) -> ServeMix {
    let mut rng = rng_for(seed, 2);
    let mut seeded = Vec::new();
    let mut unseeded = Vec::new();
    for kind in OperatorKind::table3() {
        let cases = test_cases(kind);
        let n = cases.len();
        let keys = SERVE_KEYS_PER_KIND.min(n);
        let picks: Vec<usize> = (0..keys).map(|j| j * n / keys).collect();
        // Neighbouring picks pair up and the seed tunes one of each pair
        // (an odd last pick is tuned), so the fresh tunes always span the
        // kind's size range.
        for pair in picks.chunks(2) {
            let first = pair.len() == 1 || rng.gen_range(0..2) == 0;
            let (tuned, fresh) = if first { (0, 1) } else { (1, 0) };
            seeded.push(cases[pair[tuned]].clone());
            if let Some(&c) = pair.get(fresh) {
                unseeded.push(cases[c].clone());
            }
        }
    }
    assert!(
        misses >= unseeded.len(),
        "every unseeded key needs a request"
    );
    let mut first_order: Vec<usize> = (0..unseeded.len()).collect();
    shuffle(&mut first_order, &mut rng);
    let mut miss_keys = first_order.into_iter();
    let mut tokens: Vec<bool> = (0..hits)
        .map(|_| true)
        .chain((0..misses).map(|_| false))
        .collect();
    shuffle(&mut tokens, &mut rng);
    let requests = tokens
        .into_iter()
        .map(|hit| {
            if hit {
                (true, rng.gen_range(0..seeded.len()))
            } else {
                let k = miss_keys
                    .next()
                    .unwrap_or_else(|| rng.gen_range(0..unseeded.len()));
                (false, k)
            }
        })
        .collect();
    ServeMix {
        seeded,
        unseeded,
        requests,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn search_pass_is_seeded_and_balanced() {
        let a = search_pass(5);
        let b = search_pass(5);
        assert_eq!(a.len(), 12 * PICKS_PER_KIND);
        let labels = |p: &[SearchTask]| p.iter().map(|t| t.label.clone()).collect::<Vec<_>>();
        assert_eq!(labels(&a), labels(&b));
        assert_ne!(labels(&a), labels(&search_pass(6)));
        for dev in devices() {
            let n = a.iter().filter(|t| t.device.name() == dev.name()).count();
            assert_eq!(n, a.len() / 3);
        }
        let mut distinct = labels(&a);
        distinct.sort();
        distinct.dedup();
        assert_eq!(distinct.len(), a.len());
    }

    #[test]
    fn serve_mix_requests_every_unseeded_key() {
        let m = serve_mix(9, 40, 40);
        assert_eq!(m.requests.len(), 80);
        assert_eq!((m.seeded.len(), m.unseeded.len()), (36, 35));
        let mut asked: Vec<usize> = m
            .requests
            .iter()
            .filter(|(s, _)| !s)
            .map(|&(_, k)| k)
            .collect();
        asked.sort();
        asked.dedup();
        assert_eq!(asked, (0..35).collect::<Vec<_>>());
        let mut names: Vec<&String> = m
            .seeded
            .iter()
            .chain(&m.unseeded)
            .map(|g| &g.name)
            .collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 71, "every key is a distinct case");
    }
}
