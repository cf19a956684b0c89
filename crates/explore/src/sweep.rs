//! End-of-search region certification sweep.
//!
//! After a search with `SearchOptions::region_gate` finishes, [`certify`]
//! partitions the factor space around the incumbent's discrete
//! coordinates into boxes
//! ([`flextensor_analyze::Region`]s), asks
//! [`flextensor_analyze::analyze_region`] for a verdict on each, and
//! branch-and-bounds: a region whose certified lower bound exceeds the
//! incumbent's cost is *certified pruned* — no member can beat the best
//! found — a statically-illegal region is *certified illegal*, and
//! anything else splits along its widest factor range until degenerate
//! or the region budget runs out.
//!
//! The sweep performs **zero** concrete evaluations and never touches
//! the search history, so it is result-preserving by construction: it
//! only produces the [`RegionSweep`] counters reported through
//! [`TraceEvent::RegionStats`](flextensor_telemetry::TraceEvent) and
//! [`SearchResult::region_sweep`](crate::methods::SearchResult).
//! Every step is deterministic — stack order, split axis choice, and
//! split point are pure functions of the inputs.

use flextensor_analyze::{analyze_region, FlagChoice, Region, RegionVerdict};
use flextensor_ir::graph::Graph;
use flextensor_schedule::config::{NodeConfig, TargetKind};
use flextensor_schedule::template::LoweredTemplate;
use flextensor_sim::model::Evaluator;

/// Default cap on the number of regions [`certify`] examines.
pub const DEFAULT_SWEEP_REGIONS: usize = 4096;

/// Counters from one certification sweep. All fields are deterministic
/// functions of (graph, evaluator, incumbent, incumbent cost, cap).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RegionSweep {
    /// Regions analyzed (popped and given a verdict).
    pub examined: usize,
    /// Regions proven empty of valid schedules.
    pub certified_illegal: usize,
    /// Regions whose certified lower bound exceeds the incumbent cost:
    /// no member can beat the best found.
    pub certified_pruned: usize,
    /// Regions left open: bound inconclusive and nothing left to split,
    /// or unexamined when the budget ran out. The incumbent's own region
    /// always stays open (its bound cannot exceed its own cost), so this
    /// is at least 1 unless the sweep result was truncated mid-split.
    pub open: usize,
    /// The region budget ran out before the stack drained; `open`
    /// includes every region still enqueued.
    pub truncated: bool,
}

/// Per-(axis, level) factor boxes awaiting a verdict.
type Ranges = Vec<Vec<(i64, i64)>>;

/// The flag choices a sweep rooted at `incumbent` covers: both values
/// where the schedule space varies the flag (`unroll`, `inline_data`
/// always; `cache_shared` on GPU), the incumbent's value elsewhere.
fn sweep_flags(target: TargetKind, incumbent: &NodeConfig) -> [FlagChoice; 4] {
    [
        FlagChoice::Both,                       // unroll
        FlagChoice::Fixed(incumbent.vectorize), // vectorize
        if target == TargetKind::Gpu {
            FlagChoice::Both
        } else {
            FlagChoice::Fixed(incumbent.cache_shared)
        },
        FlagChoice::Both, // inline_data
    ]
}

/// The root region of a sweep around `incumbent`: `[1, extent]` on every
/// split level of every axis, flags per the sweep policy (doc on
/// [`certify`]), discrete coordinates the incumbent's. The incumbent is
/// a member by construction. `None` only if the incumbent's split shape
/// does not match the template's root op.
pub fn root_region(tpl: &LoweredTemplate, incumbent: &NodeConfig) -> Option<Region> {
    let root = tpl.root();
    let full = |axes: &[flextensor_ir::graph::Axis], splits: &[Vec<i64>]| -> Ranges {
        axes.iter()
            .zip(splits)
            .map(|(axis, row)| row.iter().map(|_| (1i64, axis.extent.max(1))).collect())
            .collect()
    };
    let [unroll, vectorize, cache_shared, inline_data] = sweep_flags(tpl.target(), incumbent);
    Region::from_ranges(
        incumbent.clone(),
        full(&root.spatial, &incumbent.spatial_splits),
        full(&root.reduce, &incumbent.reduce_splits),
        unroll,
        vectorize,
        cache_shared,
        inline_data,
    )
    .ok()
}

/// Certifies the factor space around `incumbent` against
/// `incumbent_seconds`, examining at most `max_regions` regions
/// (0 is treated as [`DEFAULT_SWEEP_REGIONS`]).
///
/// The root region spans `[1, extent]` on every split level of every
/// axis. Flags cover both values where the schedule space varies them
/// (`unroll`, `inline_data` always; `cache_shared` on GPU) and pin the
/// incumbent's value elsewhere, so the sweep certifies the incumbent's
/// slice of the space. Discrete coordinates (reorder, fusion, FPGA
/// partition/pipeline) are the incumbent's.
pub fn certify(
    graph: &Graph,
    evaluator: &Evaluator,
    incumbent: &NodeConfig,
    incumbent_seconds: f64,
    max_regions: usize,
) -> RegionSweep {
    let max_regions = if max_regions == 0 {
        DEFAULT_SWEEP_REGIONS
    } else {
        max_regions
    };
    let tpl = LoweredTemplate::new(graph, evaluator.target());
    let [unroll, vectorize, cache_shared, inline_data] = sweep_flags(evaluator.target(), incumbent);
    let make = |spatial: Ranges, reduce: Ranges| -> Option<Region> {
        Region::from_ranges(
            incumbent.clone(),
            spatial,
            reduce,
            unroll,
            vectorize,
            cache_shared,
            inline_data,
        )
        .ok()
    };

    let mut sweep = RegionSweep::default();
    let Some(root) = root_region(&tpl, incumbent) else {
        return sweep;
    };
    let mut stack: Vec<(Ranges, Ranges)> = vec![(
        root.spatial_ranges().to_vec(),
        root.reduce_ranges().to_vec(),
    )];

    while let Some((spatial, reduce)) = stack.pop() {
        if sweep.examined == max_regions {
            sweep.truncated = true;
            sweep.open += 1 + stack.len();
            break;
        }
        sweep.examined += 1;
        let Some(region) = make(spatial.clone(), reduce.clone()) else {
            // Malformed box (cannot happen for ranges derived from the
            // incumbent's own split shape); treat as open, never pruned.
            sweep.open += 1;
            continue;
        };
        match analyze_region(&tpl, &region, evaluator) {
            RegionVerdict::Illegal(_) => sweep.certified_illegal += 1,
            RegionVerdict::Bounded { lo, .. } if lo > incumbent_seconds => {
                sweep.certified_pruned += 1
            }
            RegionVerdict::Bounded { .. } => match widest_range(&spatial, &reduce) {
                None => sweep.open += 1,
                Some((kind, axis, level)) => {
                    let (lo, hi) = if kind == 0 {
                        spatial[axis][level]
                    } else {
                        reduce[axis][level]
                    };
                    let mid = geometric_mid(lo, hi);
                    for half in [(lo, mid), (mid + 1, hi)] {
                        let (mut s, mut r) = (spatial.clone(), reduce.clone());
                        if kind == 0 {
                            s[axis][level] = half;
                        } else {
                            r[axis][level] = half;
                        }
                        stack.push((s, r));
                    }
                }
            },
        }
    }
    sweep
}

/// The non-degenerate range with the largest `hi / lo` ratio, scanning
/// spatial then reduce ranges in (axis, level) order; strict comparison
/// keeps the first maximum, so the choice is deterministic. `None` when
/// every range is a single factor.
fn widest_range(spatial: &Ranges, reduce: &Ranges) -> Option<(u8, usize, usize)> {
    let mut best: Option<((u8, usize, usize), f64)> = None;
    for (kind, ranges) in [(0u8, spatial), (1u8, reduce)] {
        for (axis, row) in ranges.iter().enumerate() {
            for (level, &(lo, hi)) in row.iter().enumerate() {
                if hi > lo {
                    let ratio = hi as f64 / lo as f64;
                    if best.is_none_or(|(_, r)| ratio > r) {
                        best = Some(((kind, axis, level), ratio));
                    }
                }
            }
        }
    }
    best.map(|(k, _)| k)
}

/// Geometric midpoint of `[lo, hi]`, clamped so both halves are
/// non-empty. Splitting geometrically keeps the `hi/lo` ratio of the
/// halves balanced, which is what drives the interval bounds.
fn geometric_mid(lo: i64, hi: i64) -> i64 {
    let m = ((lo as f64) * (hi as f64)).sqrt().floor() as i64;
    m.clamp(lo, hi - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use flextensor_sim::spec::{v100, Device};

    #[test]
    fn midpoint_and_widest_range_are_deterministic() {
        assert_eq!(geometric_mid(1, 256), 16);
        assert_eq!(geometric_mid(1, 2), 1);
        assert_eq!(geometric_mid(7, 8), 7);
        let spatial = vec![vec![(1, 4), (1, 64)]];
        let reduce = vec![vec![(1, 64)]];
        // First maximum in scan order wins ties: spatial before reduce.
        assert_eq!(widest_range(&spatial, &reduce), Some((0, 0, 1)));
        let point = vec![vec![(2, 2)]];
        assert_eq!(widest_range(&point, &point.clone()), None);
    }

    #[test]
    fn sweep_counters_are_consistent_and_deterministic() {
        let g = ops::gemm(64, 64, 64);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let cfg = crate::space::Space::new(&g, ev.target()).start_point();
        let seconds = 1e-3;
        let a = certify(&g, &ev, &cfg, seconds, 512);
        let b = certify(&g, &ev, &cfg, seconds, 512);
        assert!(a.examined > 0);
        assert!(a.examined <= 512, "{a:?}");
        assert!(
            a.certified_illegal > 0,
            "a gemm factor box that wide certainly contains illegal slices: {a:?}"
        );
        assert!(a.open >= 1, "the incumbent's own region stays open: {a:?}");
        assert_eq!(a, b, "sweep must be deterministic");
    }

    #[test]
    fn bound_exceeding_incumbent_prunes_without_splitting() {
        // An impossibly good incumbent: the root region's certified lower
        // bound already exceeds it, so branch-and-bound stops at one
        // region with zero splits.
        let g = ops::gemm(64, 64, 64);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let cfg = crate::space::Space::new(&g, ev.target()).start_point();
        let s = certify(&g, &ev, &cfg, 1e-15, 512);
        assert_eq!(s.examined, 1, "{s:?}");
        assert_eq!(s.certified_pruned, 1, "{s:?}");
        assert!(!s.truncated, "{s:?}");
    }

    #[test]
    fn truncation_counts_pending_regions_as_open() {
        // An unbeatable incumbent: no bound ever exceeds it, so every
        // bounded region splits until the budget runs out.
        let g = ops::gemm(256, 256, 256);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let cfg = crate::space::Space::new(&g, ev.target()).start_point();
        let s = certify(&g, &ev, &cfg, 1e9, 8);
        assert!(s.truncated, "{s:?}");
        assert_eq!(s.examined, 8, "{s:?}");
        assert_eq!(s.certified_pruned, 0, "{s:?}");
        assert!(s.open >= 1, "{s:?}");
    }
}
