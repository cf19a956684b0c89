//! Region analysis: sound cost bounds over *boxes* of schedule configs.
//!
//! PR-5's analyzer gate proves facts about single configs (`Error` ⇒ the
//! evaluator rejects the point). This module generalizes that contract
//! from points to boxes: a [`Region`] describes a set of [`NodeConfig`]s
//! — per-(axis, level) split-factor ranges plus a set of flag choices,
//! with every other coordinate fixed — and [`analyze_region`] returns
//! either a certificate that **every** member is statically illegal, or a
//! certified interval `[lo, hi]` enclosing the cost of every feasible
//! member.
//!
//! Soundness is compositional:
//!
//! 1. [`LoweredTemplate::feature_bounds`] encloses the lowered features of
//!    every member config between two corner feature rows (abstract
//!    transfer functions of the feature kernels over the box);
//! 2. [`Evaluator::time_features_interval`] runs the cost models over
//!    those rows in outward-rounded interval arithmetic
//!    ([`flextensor_sim::Interval`]), so the result encloses the concrete
//!    `f64` cost of every feature row inside the bounds — and `None`
//!    proves every such row infeasible.
//!
//! The exploration layer's end-of-run certification sweep
//! (`SearchOptions::region_gate`) branches and bounds on these verdicts:
//! regions whose certified lower bound exceeds the incumbent best cannot
//! contain an improvement, and `Illegal` regions cannot contain a
//! feasible candidate at all.
//!
//! [`LoweredTemplate::feature_bounds`]: flextensor_schedule::template::LoweredTemplate::feature_bounds
//! [`Evaluator::time_features_interval`]: flextensor_sim::model::Evaluator::time_features_interval

use flextensor_schedule::config::NodeConfig;
use flextensor_schedule::template::LoweredTemplate;
use flextensor_sim::model::Evaluator;

use crate::report::{Diagnostic, Severity};

/// One binary schedule flag inside a region: pinned to a value, or free
/// to take either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlagChoice {
    /// The flag takes exactly this value for every member.
    Fixed(bool),
    /// Members with the flag off and members with it on both belong.
    Both,
}

impl FlagChoice {
    /// The concrete values members may take, in deterministic order.
    pub fn options(self) -> &'static [bool] {
        match self {
            FlagChoice::Fixed(false) => &[false],
            FlagChoice::Fixed(true) => &[true],
            FlagChoice::Both => &[false, true],
        }
    }

    /// Whether a member may carry `value` for this flag.
    pub fn admits(self, value: bool) -> bool {
        match self {
            FlagChoice::Fixed(v) => v == value,
            FlagChoice::Both => true,
        }
    }

    /// The least choice admitting both the current members and `value`.
    pub fn join(self, value: bool) -> FlagChoice {
        if self.admits(value) {
            self
        } else {
            FlagChoice::Both
        }
    }
}

/// A box of schedule configs: inclusive per-(axis, level) split-factor
/// ranges and per-flag [`FlagChoice`]s, with the discrete coordinates
/// (reorder permutation, `fuse_outer`, FPGA partition/pipeline) fixed for
/// every member.
///
/// A config is a **member** iff it is a valid schedule whose factors lie
/// inside the ranges, whose flags are admitted, and whose discrete
/// coordinates equal the region's (see [`Region::contains`]).
#[derive(Debug, Clone, PartialEq)]
pub struct Region {
    /// Carries the fixed discrete coordinates; its splits are ignored in
    /// favor of the ranges below.
    base: NodeConfig,
    /// Inclusive `(lo, hi)` range per spatial axis and split level.
    spatial_ranges: Vec<Vec<(i64, i64)>>,
    /// Inclusive `(lo, hi)` range per reduce axis and split level.
    reduce_ranges: Vec<Vec<(i64, i64)>>,
    /// Admissible `unroll` values.
    unroll: FlagChoice,
    /// Admissible `vectorize` values.
    vectorize: FlagChoice,
    /// Admissible `cache_shared` values.
    cache_shared: FlagChoice,
    /// Admissible `inline_data` values.
    inline_data: FlagChoice,
}

/// The result of [`analyze_region`].
#[derive(Debug, Clone, PartialEq)]
pub enum RegionVerdict {
    /// Certificate that every member config is statically illegal: the
    /// evaluator returns `None` for each of them (or the region is empty
    /// of valid schedules outright). Carries the first proof found.
    Illegal(Diagnostic),
    /// Certified cost bounds: every member config with a concrete cost
    /// `s` satisfies `lo <= s <= hi`.
    Bounded {
        /// Certified lower bound on every member's cost in seconds.
        lo: f64,
        /// Certified upper bound on every member's cost in seconds.
        hi: f64,
    },
}

impl Region {
    /// The degenerate region containing exactly `cfg` (assuming `cfg` is
    /// a valid schedule).
    pub fn point(cfg: &NodeConfig) -> Region {
        Region {
            base: cfg.clone(),
            spatial_ranges: cfg
                .spatial_splits
                .iter()
                .map(|f| f.iter().map(|&x| (x, x)).collect())
                .collect(),
            reduce_ranges: cfg
                .reduce_splits
                .iter()
                .map(|f| f.iter().map(|&x| (x, x)).collect())
                .collect(),
            unroll: FlagChoice::Fixed(cfg.unroll),
            vectorize: FlagChoice::Fixed(cfg.vectorize),
            cache_shared: FlagChoice::Fixed(cfg.cache_shared),
            inline_data: FlagChoice::Fixed(cfg.inline_data),
        }
    }

    /// Builds a region directly from per-(axis, level) factor ranges and
    /// flag choices; the discrete coordinates (reorder, fuse, FPGA
    /// partition/pipeline) are taken from `base`.
    ///
    /// # Errors
    ///
    /// Fails when a range list's shape differs from `base`'s split shape,
    /// or when any range is inverted or admits factors below 1.
    pub fn from_ranges(
        base: NodeConfig,
        spatial_ranges: Vec<Vec<(i64, i64)>>,
        reduce_ranges: Vec<Vec<(i64, i64)>>,
        unroll: FlagChoice,
        vectorize: FlagChoice,
        cache_shared: FlagChoice,
        inline_data: FlagChoice,
    ) -> Result<Region, String> {
        for (kind, ranges, splits) in [
            ("spatial_splits", &spatial_ranges, &base.spatial_splits),
            ("reduce_splits", &reduce_ranges, &base.reduce_splits),
        ] {
            if ranges.len() != splits.len() {
                return Err(format!(
                    "{kind}: expected ranges for {} axes, got {}",
                    splits.len(),
                    ranges.len()
                ));
            }
            for (i, (r, f)) in ranges.iter().zip(splits).enumerate() {
                if r.len() != f.len() {
                    return Err(format!(
                        "{kind}[{i}]: expected {} levels, got {}",
                        f.len(),
                        r.len()
                    ));
                }
                for &(lo, hi) in r {
                    if lo < 1 || lo > hi {
                        return Err(format!("{kind}[{i}]: bad factor range [{lo}, {hi}]"));
                    }
                }
            }
        }
        Ok(Region {
            base,
            spatial_ranges,
            reduce_ranges,
            unroll,
            vectorize,
            cache_shared,
            inline_data,
        })
    }

    /// Widens the region to admit `cfg`: factor ranges take the
    /// componentwise hull, flags join. Fails (leaving the region
    /// unchanged) when `cfg` disagrees on a discrete coordinate or has a
    /// different split shape — those cannot be joined into a box.
    pub fn include(&mut self, cfg: &NodeConfig) -> Result<(), String> {
        let b = &self.base;
        if cfg.reorder != b.reorder || cfg.fuse_outer != b.fuse_outer {
            return Err("reorder: configs with different reorder/fuse cannot join a region".into());
        }
        if cfg.fpga_partition != b.fpga_partition || cfg.fpga_pipeline != b.fpga_pipeline {
            return Err(
                "fpga_partition: configs with different FPGA coordinates cannot join a region"
                    .into(),
            );
        }
        if cfg.spatial_splits.len() != self.spatial_ranges.len()
            || cfg
                .spatial_splits
                .iter()
                .zip(&self.spatial_ranges)
                .any(|(f, r)| f.len() != r.len())
            || cfg.reduce_splits.len() != self.reduce_ranges.len()
            || cfg
                .reduce_splits
                .iter()
                .zip(&self.reduce_ranges)
                .any(|(f, r)| f.len() != r.len())
        {
            return Err("spatial_splits: split shape differs from the region's".into());
        }
        for (ranges, factors) in self.spatial_ranges.iter_mut().zip(&cfg.spatial_splits) {
            for (r, &x) in ranges.iter_mut().zip(factors) {
                r.0 = r.0.min(x);
                r.1 = r.1.max(x);
            }
        }
        for (ranges, factors) in self.reduce_ranges.iter_mut().zip(&cfg.reduce_splits) {
            for (r, &x) in ranges.iter_mut().zip(factors) {
                r.0 = r.0.min(x);
                r.1 = r.1.max(x);
            }
        }
        self.unroll = self.unroll.join(cfg.unroll);
        self.vectorize = self.vectorize.join(cfg.vectorize);
        self.cache_shared = self.cache_shared.join(cfg.cache_shared);
        self.inline_data = self.inline_data.join(cfg.inline_data);
        Ok(())
    }

    /// The smallest region containing every config (their join). `None`
    /// when the slice is empty or the configs disagree on a discrete
    /// coordinate.
    pub fn join(configs: &[NodeConfig]) -> Option<Region> {
        let (first, rest) = configs.split_first()?;
        let mut region = Region::point(first);
        for cfg in rest {
            region.include(cfg).ok()?;
        }
        Some(region)
    }

    /// Membership test: `cfg` agrees on every discrete coordinate, its
    /// factors lie inside the ranges, and its flags are admitted. (Whether
    /// `cfg` is a *valid schedule* is a separate question; `analyze_region`
    /// verdicts only quantify over members that are.)
    pub fn contains(&self, cfg: &NodeConfig) -> bool {
        let b = &self.base;
        cfg.reorder == b.reorder
            && cfg.fuse_outer == b.fuse_outer
            && cfg.fpga_partition == b.fpga_partition
            && cfg.fpga_pipeline == b.fpga_pipeline
            && cfg.spatial_splits.len() == self.spatial_ranges.len()
            && cfg
                .spatial_splits
                .iter()
                .zip(&self.spatial_ranges)
                .all(|(f, r)| {
                    f.len() == r.len() && f.iter().zip(r).all(|(&x, &(lo, hi))| lo <= x && x <= hi)
                })
            && cfg.reduce_splits.len() == self.reduce_ranges.len()
            && cfg
                .reduce_splits
                .iter()
                .zip(&self.reduce_ranges)
                .all(|(f, r)| {
                    f.len() == r.len() && f.iter().zip(r).all(|(&x, &(lo, hi))| lo <= x && x <= hi)
                })
            && self.unroll.admits(cfg.unroll)
            && self.vectorize.admits(cfg.vectorize)
            && self.cache_shared.admits(cfg.cache_shared)
            && self.inline_data.admits(cfg.inline_data)
    }

    /// The config with the fixed discrete coordinates (splits are not
    /// meaningful on it).
    pub fn base(&self) -> &NodeConfig {
        &self.base
    }

    /// Inclusive `(lo, hi)` factor ranges per spatial axis and level.
    pub fn spatial_ranges(&self) -> &[Vec<(i64, i64)>] {
        &self.spatial_ranges
    }

    /// Inclusive `(lo, hi)` factor ranges per reduce axis and level.
    pub fn reduce_ranges(&self) -> &[Vec<(i64, i64)>] {
        &self.reduce_ranges
    }

    /// The number of distinct flag assignments members may take (1–16).
    pub fn flag_assignment_count(&self) -> usize {
        self.unroll.options().len()
            * self.vectorize.options().len()
            * self.cache_shared.options().len()
            * self.inline_data.options().len()
    }

    /// The box corners for one flag assignment: `lo` carries every factor
    /// at its range minimum, `hi` at its maximum, both with the given
    /// flags and the region's discrete coordinates.
    fn corners(&self, flags: [bool; 4]) -> (NodeConfig, NodeConfig) {
        let mut lo = self.base.clone();
        let mut hi = self.base.clone();
        lo.spatial_splits = self
            .spatial_ranges
            .iter()
            .map(|r| r.iter().map(|&(l, _)| l).collect())
            .collect();
        hi.spatial_splits = self
            .spatial_ranges
            .iter()
            .map(|r| r.iter().map(|&(_, h)| h).collect())
            .collect();
        lo.reduce_splits = self
            .reduce_ranges
            .iter()
            .map(|r| r.iter().map(|&(l, _)| l).collect())
            .collect();
        hi.reduce_splits = self
            .reduce_ranges
            .iter()
            .map(|r| r.iter().map(|&(_, h)| h).collect())
            .collect();
        for c in [&mut lo, &mut hi] {
            c.unroll = flags[0];
            c.vectorize = flags[1];
            c.cache_shared = flags[2];
            c.inline_data = flags[3];
        }
        (lo, hi)
    }

    /// Every flag assignment members may take, as `[unroll, vectorize,
    /// cache_shared, inline_data]`, in deterministic order.
    fn flag_assignments(&self) -> Vec<[bool; 4]> {
        let mut out = Vec::with_capacity(self.flag_assignment_count());
        for &u in self.unroll.options() {
            for &v in self.vectorize.options() {
                for &c in self.cache_shared.options() {
                    for &i in self.inline_data.options() {
                        out.push([u, v, c, i]);
                    }
                }
            }
        }
        out
    }
}

/// Analyzes a region against a template and evaluator: returns
/// [`RegionVerdict::Illegal`] with a proof when no member config can have
/// a concrete cost, or certified cost bounds enclosing every member's
/// cost.
///
/// The certificate is checked in three stages, cheapest first:
///
/// 1. **Split-shape necessity** (config level): a valid member's factors
///    multiply exactly to each axis extent, so `prod(range los) > extent`
///    or `prod(range his) < extent` proves the region empty. Diagnostics
///    use the [`NodeConfig::validate`] span format
///    (`spatial_splits[i]: ...`).
/// 2. **Box structure**: malformed regions (shape mismatch against the
///    template's root op, factors below 1) are empty of valid members by
///    the same argument `NodeConfig::validate` makes pointwise.
/// 3. **Interval cost evaluation**: per flag assignment (at most 16),
///    feature bounds feed the interval cost models; `None` for every
///    assignment proves the evaluator rejects every member. Otherwise the
///    verdict is the hull of the per-assignment cost intervals.
pub fn analyze_region(tpl: &LoweredTemplate, region: &Region, ev: &Evaluator) -> RegionVerdict {
    let root = tpl.root();
    // Stage 1: necessary conditions on the factor products.
    for (kind, axes, ranges) in [
        ("spatial_splits", &root.spatial, region.spatial_ranges()),
        ("reduce_splits", &root.reduce, region.reduce_ranges()),
    ] {
        for (i, (axis, r)) in axes.iter().zip(ranges).enumerate() {
            let prod_lo: i64 = r.iter().map(|&(l, _)| l.max(1)).product();
            let prod_hi: i64 = r.iter().map(|&(_, h)| h.max(1)).product();
            if prod_lo > axis.extent || prod_hi < axis.extent {
                return RegionVerdict::Illegal(Diagnostic::new(
                    "legality/region-split-shape",
                    Severity::Error,
                    format!("{kind}[{i}]"),
                    format!(
                        "axis {}: no member's factors can multiply to extent {} \
                         (range products span [{prod_lo}, {prod_hi}])",
                        axis.name, axis.extent
                    ),
                    vec![
                        ("extent", axis.extent),
                        ("prod_lo", prod_lo),
                        ("prod_hi", prod_hi),
                    ],
                ));
            }
        }
    }

    // Stages 2 and 3: per flag assignment, feature bounds + interval cost.
    let mut hull: Option<(f64, f64)> = None;
    for flags in region.flag_assignments() {
        let (lo_cfg, hi_cfg) = region.corners(flags);
        let (f_lo, f_hi) = match tpl.feature_bounds(&lo_cfg, &hi_cfg) {
            Ok(b) => b,
            Err(e) => {
                // A box the template rejects structurally (shape mismatch,
                // factor below 1, bad reorder/fuse/FPGA coordinate) has no
                // valid members: NodeConfig::validate fails each of them
                // on the same grounds.
                return RegionVerdict::Illegal(Diagnostic::new(
                    "legality/region-split-shape",
                    Severity::Error,
                    "config",
                    format!("region is structurally empty: {}", e.0),
                    vec![],
                ));
            }
        };
        if let Some((lo, hi)) = ev.time_features_interval(&f_lo, &f_hi) {
            hull = Some(match hull {
                None => (lo, hi),
                Some((a, b)) => (a.min(lo), b.max(hi)),
            });
        }
    }
    match hull {
        Some((lo, hi)) => RegionVerdict::Bounded { lo, hi },
        None => RegionVerdict::Illegal(Diagnostic::new(
            "legality/region-infeasible",
            Severity::Error,
            "features",
            format!(
                "every member of the region is statically infeasible on {}: \
                 the interval cost model rejects all {} flag assignments",
                ev.device().name(),
                region.flag_assignment_count()
            ),
            vec![],
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use flextensor_ir::ops;
    use flextensor_schedule::config::TargetKind;
    use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4, Device};

    fn gemm_cfg(sp: Vec<Vec<i64>>, rd: Vec<i64>) -> NodeConfig {
        let g = ops::gemm(64, 32, 16);
        let mut c = NodeConfig::naive(g.root_op());
        c.spatial_splits = sp;
        c.reduce_splits = vec![rd];
        c
    }

    #[test]
    fn join_and_membership() {
        let a = gemm_cfg(vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]], vec![4, 2, 2]);
        let mut b = gemm_cfg(vec![vec![2, 2, 2, 8], vec![8, 1, 2, 2]], vec![2, 4, 2]);
        b.unroll = true;
        let region = Region::join(&[a.clone(), b.clone()]).unwrap();
        assert!(region.contains(&a));
        assert!(region.contains(&b));
        // A third config inside the hull is also a member.
        let mid = gemm_cfg(vec![vec![4, 2, 4, 2], vec![4, 1, 4, 2]], vec![4, 2, 2]);
        assert!(region.contains(&mid));
        // Outside the factor ranges → not a member.
        let out = gemm_cfg(vec![vec![16, 1, 4, 1], vec![2, 2, 4, 2]], vec![4, 2, 2]);
        assert!(!region.contains(&out));
        // unroll joined to Both, vectorize stayed Fixed(false).
        assert_eq!(region.flag_assignment_count(), 2);
        let mut vec_on = a.clone();
        vec_on.vectorize = true;
        assert!(!region.contains(&vec_on));
    }

    #[test]
    fn join_rejects_mismatched_discrete_coordinates() {
        let a = gemm_cfg(vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]], vec![4, 2, 2]);
        let mut b = a.clone();
        b.reorder = vec![1, 0];
        assert!(Region::join(&[a.clone(), b]).is_none());
        let mut c = a.clone();
        c.fpga_pipeline = 3;
        assert!(Region::join(&[a, c]).is_none());
    }

    #[test]
    fn point_region_bounds_contain_the_point_cost() {
        let g = ops::gemm(64, 32, 16);
        let cfg = gemm_cfg(vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]], vec![4, 2, 2]);
        for device in [
            Device::Gpu(v100()),
            Device::Cpu(xeon_e5_2699_v4()),
            Device::Fpga(vu9p()),
        ] {
            let tpl = LoweredTemplate::new(&g, device.target());
            let ev = Evaluator::new(device);
            let features = tpl.features(&cfg).unwrap();
            let concrete = ev.time_features(&features).unwrap();
            match analyze_region(&tpl, &Region::point(&cfg), &ev) {
                RegionVerdict::Bounded { lo, hi } => {
                    assert!(
                        lo <= concrete && concrete <= hi,
                        "{lo} <= {concrete} <= {hi}"
                    );
                }
                RegionVerdict::Illegal(d) => panic!("feasible point called illegal: {}", d.message),
            }
        }
    }

    #[test]
    fn joined_region_bounds_contain_every_member_cost() {
        let g = ops::gemm(64, 32, 16);
        let a = gemm_cfg(vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]], vec![4, 2, 2]);
        let mut b = gemm_cfg(vec![vec![2, 2, 2, 8], vec![8, 1, 2, 2]], vec![2, 4, 2]);
        b.unroll = true;
        b.cache_shared = true;
        let region = Region::join(&[a.clone(), b.clone()]).unwrap();
        let device = Device::Gpu(v100());
        let tpl = LoweredTemplate::new(&g, device.target());
        let ev = Evaluator::new(device);
        let RegionVerdict::Bounded { lo, hi } = analyze_region(&tpl, &region, &ev) else {
            panic!("feasible region called illegal");
        };
        for cfg in [&a, &b] {
            let s = ev.time_features(&tpl.features(cfg).unwrap()).unwrap();
            assert!(lo <= s && s <= hi, "{lo} <= {s} <= {hi}");
        }
    }

    #[test]
    fn impossible_split_products_are_illegal_with_validate_spans() {
        let g = ops::gemm(64, 32, 16);
        let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
        let ev = Evaluator::new(Device::Gpu(v100()));
        // Every factor of axis k at least 4 → product ≥ 64 > extent 16.
        let a = gemm_cfg(vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]], vec![4, 4, 4]);
        let mut region = Region::point(&a);
        let b = gemm_cfg(vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]], vec![8, 8, 8]);
        region.include(&b).unwrap();
        match analyze_region(&tpl, &region, &ev) {
            RegionVerdict::Illegal(d) => {
                assert_eq!(d.rule, "legality/region-split-shape");
                assert_eq!(d.span, "reduce_splits[0]");
                assert!(d.message.contains("extent 16"), "{}", d.message);
            }
            RegionVerdict::Bounded { .. } => panic!("empty region got bounds"),
        }
    }

    #[test]
    fn infeasible_gpu_regions_are_illegal_via_the_interval_models() {
        // Every member asks for ≥ 2048 threads per block — over V100's
        // 1024 limit, so the evaluator rejects all of them.
        let g = ops::gemm(64, 32, 16);
        let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
        let ev = Evaluator::new(Device::Gpu(v100()));
        let a = gemm_cfg(vec![vec![1, 1, 64, 1], vec![1, 1, 32, 1]], vec![16, 1, 1]);
        let region = Region::point(&a);
        match analyze_region(&tpl, &region, &ev) {
            RegionVerdict::Illegal(d) => {
                assert_eq!(d.rule, "legality/region-infeasible");
                assert!(ev.time_features(&tpl.features(&a).unwrap()).is_none());
            }
            RegionVerdict::Bounded { .. } => panic!("infeasible region got bounds"),
        }
    }
}
