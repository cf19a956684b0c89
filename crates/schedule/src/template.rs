//! Split-phase lowering: the config-independent half of
//! [`crate::lower::lower`], computed once per (graph, target) and reused
//! across every candidate.
//!
//! Full lowering does two kinds of work per schedule point:
//!
//! 1. **Config-independent**: inlining data-movement producers into the
//!    root body (a fixpoint of expression cloning and substitution),
//!    collecting the body's load sites, and deriving graph constants
//!    (FLOPs, input bytes, producer sizes). None of this depends on the
//!    candidate being evaluated — only on the graph and, binarily, on the
//!    `inline_data` flag.
//! 2. **Config-dependent**: split-factor products, interval footprints of
//!    the cached load sites, and — only when the loop nest itself is
//!    needed — the statement tree with all its substitutions.
//!
//! Exploration evaluates thousands of candidates per trial and only ever
//! consumes [`KernelFeatures`] (the cost models never look at the nest).
//! [`LoweredTemplate`] therefore precomputes phase 1 for *both*
//! `inline_data` variants and exposes [`LoweredTemplate::features`], a
//! cheap apply step that never clones or re-walks the expression tree.
//! [`crate::lower::lower`] is built on the same `compute_features` helper,
//! so the two paths agree bit-for-bit by construction (see
//! `tests/fastpath.rs` for the differential check).

use flextensor_ir::expr::{BinOp, Expr};
use flextensor_ir::graph::{ComputeOp, Graph};

use crate::config::{NodeConfig, TargetKind};
use crate::features::{FpgaFeatures, KernelFeatures};
use crate::interval::{Interval, IntervalEnv};
use crate::lower::LowerError;

/// Returns the data-movement producer chain of the root op: compute nodes
/// with no reduce axes whose outputs the root (transitively) reads.
pub(crate) fn data_producers<'g>(graph: &'g Graph, root: &ComputeOp) -> Vec<&'g ComputeOp> {
    let mut out: Vec<&ComputeOp> = Vec::new();
    let mut frontier = root.input_tensors();
    while let Some(t) = frontier.pop() {
        if let Some(p) = graph
            .compute_ops()
            .find(|c| c.output == t && c.reduce.is_empty() && c.name != root.name)
        {
            if !out.iter().any(|o| o.name == p.name) {
                out.push(p);
                frontier.extend(p.input_tensors());
            }
        }
    }
    // Topological order (producers of producers first).
    out.reverse();
    out
}

/// Substitutes loads of producer tensors with the producer's body, with the
/// producer's spatial variables replaced by the load's index expressions.
/// Applied to fixpoint so chains (dilate → pad → conv) inline fully.
pub(crate) fn inline_producers(graph: &Graph, root: &ComputeOp, body: &Expr) -> Expr {
    fn rewrite(graph: &Graph, root_name: &str, e: &Expr) -> (Expr, bool) {
        match e {
            Expr::Load { tensor, indices } => {
                // First rewrite inside the indices themselves.
                let mut changed = false;
                let new_indices: Vec<Expr> = indices
                    .iter()
                    .map(|ix| {
                        let (r, c) = rewrite(graph, root_name, ix);
                        changed |= c;
                        r
                    })
                    .collect();
                if let Some(p) = graph
                    .compute_ops()
                    .find(|c| &c.output == tensor && c.reduce.is_empty() && c.name != root_name)
                {
                    // Rename producer vars to fresh temporaries, then
                    // substitute the temporaries with the index expressions
                    // (avoids capture when index exprs mention names that
                    // collide with producer axis names).
                    let mut b = p.body.clone();
                    let temps: Vec<String> = (0..p.spatial.len())
                        .map(|i| format!("__inl_{}_{i}", p.name))
                        .collect();
                    for (axis, tmp) in p.spatial.iter().zip(&temps) {
                        b = b.substitute(&axis.name, &Expr::Var(tmp.clone()));
                    }
                    for (tmp, ix) in temps.iter().zip(&new_indices) {
                        b = b.substitute(tmp, ix);
                    }
                    (b, true)
                } else {
                    (
                        Expr::Load {
                            tensor: tensor.clone(),
                            indices: new_indices,
                        },
                        changed,
                    )
                }
            }
            Expr::Bin(op, a, bx) => {
                let (ra, ca) = rewrite(graph, root_name, a);
                let (rb, cb) = rewrite(graph, root_name, bx);
                (Expr::Bin(*op, Box::new(ra), Box::new(rb)), ca || cb)
            }
            Expr::Select(c, a, bx) => {
                let (ra, ca) = rewrite(graph, root_name, a);
                let (rb, cb) = rewrite(graph, root_name, bx);
                // Conditions only contain index arithmetic; no loads there.
                (
                    Expr::Select(c.clone(), Box::new(ra), Box::new(rb)),
                    ca || cb,
                )
            }
            _ => (e.clone(), false),
        }
    }
    let mut cur = body.clone();
    for _ in 0..8 {
        let (next, changed) = rewrite(graph, &root.name, &cur);
        cur = next;
        if !changed {
            break;
        }
    }
    cur
}

/// All load sites of one tensor in the (possibly inlined) root body,
/// together with the tensor's whole-graph byte size when declared.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LoadGroup {
    /// Tensor name.
    pub tensor: String,
    /// Index expressions of every load site of this tensor.
    pub sites: Vec<Vec<Expr>>,
    /// Total bytes of the declared tensor (`None` when the graph has no
    /// declaration, e.g. a fully inlined intermediate).
    pub total_bytes: Option<i64>,
}

/// Collects the distinct loads of a body together with their index
/// expressions, keyed by tensor name in first-occurrence order, and
/// resolves each tensor's declared byte size from the graph.
pub(crate) fn load_groups(graph: &Graph, body: &Expr) -> Vec<LoadGroup> {
    let mut groups: Vec<(String, Vec<Vec<Expr>>)> = Vec::new();
    fn walk(e: &Expr, groups: &mut Vec<(String, Vec<Vec<Expr>>)>) {
        match e {
            Expr::Load { tensor, indices } => {
                for ix in indices {
                    walk(ix, groups);
                }
                match groups.iter_mut().find(|(t, _)| t == tensor) {
                    Some((_, v)) => v.push(indices.clone()),
                    None => groups.push((tensor.clone(), vec![indices.clone()])),
                }
            }
            Expr::Bin(_, a, b) => {
                walk(a, groups);
                walk(b, groups);
            }
            Expr::Select(_, a, b) => {
                walk(a, groups);
                walk(b, groups);
            }
            _ => {}
        }
    }
    walk(body, &mut groups);
    groups
        .into_iter()
        .map(|(tensor, sites)| {
            let total_bytes = graph.tensor(&tensor).map(|t| t.bytes());
            LoadGroup {
                tensor,
                sites,
                total_bytes,
            }
        })
        .collect()
}

/// Interval environment covering the variation of each original axis over
/// the given spatial levels and reduce levels. E.g. for spatial levels
/// {1,2,3} the axis `i` varies over `[0, f1*f2*f3 - 1]` (a per-block tile).
pub(crate) fn tile_env(
    root: &ComputeOp,
    cfg: &NodeConfig,
    spatial_levels: &[usize],
    reduce_levels: &[usize],
) -> IntervalEnv {
    let mut env = IntervalEnv::new();
    for (i, a) in root.spatial.iter().enumerate() {
        let tile: i64 = spatial_levels
            .iter()
            .map(|&l| cfg.spatial_splits[i][l])
            .product();
        env.insert(a.name.clone(), Interval::new(0, tile - 1));
    }
    for (i, a) in root.reduce.iter().enumerate() {
        let tile: i64 = reduce_levels
            .iter()
            .map(|&l| cfg.reduce_splits[i][l])
            .product();
        env.insert(a.name.clone(), Interval::new(0, tile - 1));
    }
    env
}

/// An index expression compiled against a root op's axes: every variable
/// is resolved at template-build time to a dense *slot* — spatial axis `i`
/// occupies slot `i`, reduce axis `j` occupies slot `ns + j` — so the hot
/// feature kernels evaluate intervals against a flat `&[Interval]` instead
/// of hashing axis-name `String`s through an [`IntervalEnv`] for every
/// environment variant of every candidate.
///
/// Compilation mirrors [`crate::interval::eval_interval`]'s leaf handling
/// exactly: [`tile_env`] always binds precisely the root's spatial and
/// reduce axes, so any other variable (and any load-as-index) is the fixed
/// point 0, and float constants truncate the same way. [`eval_slot`]
/// mirrors its arithmetic arm for arm, so slot evaluation is a pure
/// renaming of the `String`-keyed path — bit-identical by construction.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum SlotExpr {
    /// A constant index: `IConst`, truncated `FConst`, a variable outside
    /// the root's axes, or a load used as an index (origin convention).
    Const(i64),
    /// The tile interval of one root axis (spatial `i` → `i`, reduce `j`
    /// → `spatial_len + j`).
    Slot(usize),
    /// Binary index arithmetic, evaluated with interval semantics.
    Bin(BinOp, Box<SlotExpr>, Box<SlotExpr>),
    /// A `Select`'s interval is the hull of its arms (the condition never
    /// contributes), so only the arms survive compilation.
    Hull(Box<SlotExpr>, Box<SlotExpr>),
}

/// Compiles one index expression to slot form against `root`'s axes.
pub(crate) fn compile_slot_expr(e: &Expr, root: &ComputeOp) -> SlotExpr {
    match e {
        Expr::IConst(v) => SlotExpr::Const(*v),
        Expr::FConst(v) => SlotExpr::Const(*v as i64),
        Expr::Var(name) => {
            if let Some(i) = root.spatial.iter().position(|a| &a.name == name) {
                SlotExpr::Slot(i)
            } else if let Some(j) = root.reduce.iter().position(|a| &a.name == name) {
                SlotExpr::Slot(root.spatial.len() + j)
            } else {
                SlotExpr::Const(0)
            }
        }
        Expr::Bin(op, a, b) => SlotExpr::Bin(
            *op,
            Box::new(compile_slot_expr(a, root)),
            Box::new(compile_slot_expr(b, root)),
        ),
        Expr::Select(_, a, b) => SlotExpr::Hull(
            Box::new(compile_slot_expr(a, root)),
            Box::new(compile_slot_expr(b, root)),
        ),
        Expr::Load { .. } => SlotExpr::Const(0),
    }
}

/// Evaluates a compiled index expression over the slot intervals. The
/// arithmetic is copied arm for arm from
/// [`crate::interval::eval_interval`]; any change must be made in both.
pub(crate) fn eval_slot(e: &SlotExpr, slots: &[Interval]) -> Interval {
    match e {
        SlotExpr::Const(v) => Interval::point(*v),
        SlotExpr::Slot(i) => slots[*i],
        SlotExpr::Bin(op, a, b) => {
            let x = eval_slot(a, slots);
            let y = eval_slot(b, slots);
            match op {
                BinOp::Add => Interval::new(x.lo + y.lo, x.hi + y.hi),
                BinOp::Sub => Interval::new(x.lo - y.hi, x.hi - y.lo),
                BinOp::Mul => {
                    let c = [x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi];
                    Interval::new(
                        *c.iter().min().expect("non-empty"),
                        *c.iter().max().expect("non-empty"),
                    )
                }
                BinOp::Div => {
                    if y.lo == y.hi && y.lo != 0 {
                        let d = y.lo;
                        let c = [x.lo / d, x.hi / d];
                        Interval::new(*c.iter().min().unwrap(), *c.iter().max().unwrap())
                    } else {
                        Interval::new(-x.lo.abs().max(x.hi.abs()), x.lo.abs().max(x.hi.abs()))
                    }
                }
                BinOp::Mod => {
                    if y.lo == y.hi && y.lo > 0 {
                        let m = y.lo;
                        if x.lo >= 0 && x.hi < m {
                            x
                        } else {
                            Interval::new(0, (m - 1).min(x.len() - 1))
                        }
                    } else {
                        Interval::new(x.lo.min(0), x.hi.max(0))
                    }
                }
                BinOp::Min => Interval::new(x.lo.min(y.lo), x.hi.min(y.hi)),
                BinOp::Max => Interval::new(x.lo.max(y.lo), x.hi.max(y.hi)),
            }
        }
        SlotExpr::Hull(a, b) => eval_slot(a, slots).hull(eval_slot(b, slots)),
    }
}

/// A [`LoadGroup`] with its index expressions compiled to slot form —
/// the representation the per-candidate feature kernels consume.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct CompiledGroup {
    /// Compiled index expressions of every load site of this tensor.
    pub sites: Vec<Vec<SlotExpr>>,
    /// Total bytes of the declared tensor (see [`LoadGroup::total_bytes`]).
    pub total_bytes: Option<i64>,
}

/// Compiles every group's load sites against `root`'s axis slots.
pub(crate) fn compile_groups(root: &ComputeOp, groups: &[LoadGroup]) -> Vec<CompiledGroup> {
    groups
        .iter()
        .map(|g| CompiledGroup {
            sites: g
                .sites
                .iter()
                .map(|ix| ix.iter().map(|e| compile_slot_expr(e, root)).collect())
                .collect(),
            total_bytes: g.total_bytes,
        })
        .collect()
}

/// Arena-style scratch for tile-interval environments in slot form: one
/// flat `Vec<Interval>` (spatial axes first, then reduce axes) overwritten
/// in place for each environment variant, instead of a fresh map
/// allocation for every one of the four-plus environments a candidate
/// needs. [`compute_features`] reuses a single scratch across its
/// environments, and the delta evaluator (`crate::delta`) carries one
/// across candidates.
#[derive(Debug, Default)]
pub(crate) struct SlotScratch {
    slots: Vec<Interval>,
}

impl SlotScratch {
    /// An empty scratch; the slot vector is sized on first use.
    pub(crate) fn new() -> SlotScratch {
        SlotScratch::default()
    }

    /// Overwrites the scratch with the tile intervals of `cfg` at the
    /// given levels — the slot-form twin of [`tile_env`] — and returns
    /// the slot slice.
    pub(crate) fn set_tile(
        &mut self,
        root: &ComputeOp,
        cfg: &NodeConfig,
        spatial_levels: &[usize],
        reduce_levels: &[usize],
    ) -> &[Interval] {
        self.slots.clear();
        for i in 0..root.spatial.len() {
            let tile: i64 = spatial_levels
                .iter()
                .map(|&l| cfg.spatial_splits[i][l])
                .product();
            self.slots.push(Interval::new(0, tile - 1));
        }
        for i in 0..root.reduce.len() {
            let tile: i64 = reduce_levels
                .iter()
                .map(|&l| cfg.reduce_splits[i][l])
                .product();
            self.slots.push(Interval::new(0, tile - 1));
        }
        &self.slots
    }
}

/// Sum over tensors of the footprint (bytes) of all loads of that tensor
/// under the slot intervals (taking the hull across load sites of the
/// same tensor).
pub(crate) fn loads_footprint_bytes(groups: &[CompiledGroup], slots: &[Interval]) -> i64 {
    let mut total = 0i64;
    for g in groups {
        let fp = g
            .sites
            .iter()
            .map(|ix| {
                ix.iter()
                    .map(|e| eval_slot(e, slots).len())
                    .product::<i64>()
            })
            .max()
            .unwrap_or(0);
        total += fp * 4;
    }
    total
}

/// Config-independent graph constants shared by every candidate.
#[derive(Debug, Clone, Copy)]
pub(crate) struct FeatureConsts {
    /// FLOPs of the root (anchor) compute node.
    pub root_flops: u64,
    /// Summed FLOPs of the fused epilogue chain.
    pub epilogue_flops: u64,
    /// Output elements of the root node.
    pub output_elements: i64,
    /// Reduce-domain iterations per output element.
    pub reduce_size: i64,
    /// Total bytes of all graph input tensors.
    pub input_bytes_total: i64,
    /// Extra DRAM bytes when data-movement producers are materialized
    /// (write + read back of every intermediate).
    pub materialized_data_bytes: i64,
}

// Per-feature kernels. Each computes exactly one config-dependent feature
// (or one tightly coupled group) from the candidate config and the cached
// load groups. `compute_features` composes all of them; the delta
// evaluator (`crate::delta`) calls only the ones whose inputs changed.
// Because both paths run the *same* helper for a given feature, delta
// results are bit-identical to a full recompute by construction.

/// Shared-memory bytes staged per block: footprint over spatial levels
/// {1,2,3} and reduce levels {1,2}.
pub(crate) fn feat_shared_bytes_per_block(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[CompiledGroup],
    scratch: &mut SlotScratch,
) -> i64 {
    loads_footprint_bytes(groups, scratch.set_tile(root, cfg, &[1, 2, 3], &[1, 2]))
}

/// Register bytes per thread: accumulators plus the operands of one reduce
/// iteration (two when unrolling interleaves iterations) — not the whole
/// staged tile, which lives in shared memory / cache.
pub(crate) fn feat_thread_reg_bytes(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[CompiledGroup],
    scratch: &mut SlotScratch,
) -> i64 {
    let thread_input_bytes = loads_footprint_bytes(groups, scratch.set_tile(root, cfg, &[3], &[]));
    cfg.spatial_level_product(3) * cfg.spatial_level_product(1) * 4
        + thread_input_bytes * if cfg.unroll { 2 } else { 1 }
}

/// L1-resident tile bytes: footprint over spatial level 3 / reduce level 2
/// plus the per-thread output tile.
pub(crate) fn feat_l1_tile_bytes(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[CompiledGroup],
    scratch: &mut SlotScratch,
) -> i64 {
    loads_footprint_bytes(groups, scratch.set_tile(root, cfg, &[3], &[2]))
        + cfg.spatial_level_product(3) * 4
}

/// L2-resident tile bytes: footprint over spatial levels {2,3} / reduce
/// levels {1,2} plus the per-core output tile.
pub(crate) fn feat_l2_tile_bytes(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[CompiledGroup],
    scratch: &mut SlotScratch,
) -> i64 {
    loads_footprint_bytes(groups, scratch.set_tile(root, cfg, &[2, 3], &[1, 2]))
        + cfg.spatial_level_product(2) * cfg.spatial_level_product(3) * 4
}

/// Iterations of the fused parallel loop: level-0 factors of the first
/// `fuse_outer` axes in reorder order.
pub(crate) fn feat_parallel_chunks(cfg: &NodeConfig) -> i64 {
    cfg.reorder
        .iter()
        .take(cfg.fuse_outer)
        .map(|&ax| cfg.spatial_splits[ax][0])
        .product()
}

/// Innermost-contiguity: the fastest-varying spatial sub-loop belongs to
/// the reorder-last axis; it is contiguous iff that axis is the last
/// output dimension.
pub(crate) fn feat_contiguous_inner(root: &ComputeOp, cfg: &NodeConfig) -> bool {
    cfg.reorder
        .last()
        .is_some_and(|&ax| ax == root.spatial.len() - 1)
}

/// Vector width of the innermost sub-loop (1 when vectorization is off).
pub(crate) fn feat_vector_len(cfg: &NodeConfig) -> i64 {
    if cfg.vectorize {
        cfg.reorder
            .last()
            .map(|&ax| cfg.spatial_splits[ax][3])
            .unwrap_or(1)
    } else {
        1
    }
}

/// DDR refetch bound of the FPGA stream model: a tensor is fetched from
/// DDR at most this many times over the whole run (on-chip reuse across
/// rounds, e.g. weights stay resident while spatial rounds advance).
const DDR_REFETCH_CAP: f64 = 8.0;

/// The full FPGA feature block: PE array size, sequential rounds, BRAM
/// buffer and DDR stream bytes under the per-round tile environment.
pub(crate) fn feat_fpga(
    root: &ComputeOp,
    cfg: &NodeConfig,
    groups: &[CompiledGroup],
    scratch: &mut SlotScratch,
) -> FpgaFeatures {
    // PE array: levels 2 and 3 are spatial hardware parallelism;
    // levels 0 and 1 are sequential rounds.
    let pe: i64 = cfg.spatial_level_product(2) * cfg.spatial_level_product(3);
    let rounds: i64 = cfg.spatial_level_product(0) * cfg.spatial_level_product(1);
    let round_slots = scratch.set_tile(root, cfg, &[2, 3], &[0, 1, 2]);
    // BRAM must hold the full per-round tile; DDR streaming is
    // cheaper (see DDR_REFETCH_CAP).
    let mut buffer_bytes = 0i64;
    let mut stream_bytes = 0i64;
    for g in groups {
        let fp = g
            .sites
            .iter()
            .map(|ix| {
                ix.iter()
                    .map(|e| eval_slot(e, round_slots).len())
                    .product::<i64>()
            })
            .max()
            .unwrap_or(0)
            * 4;
        buffer_bytes += fp;
        let total = g.total_bytes.unwrap_or(fp);
        let amortized =
            ((total as f64 * DDR_REFETCH_CAP / rounds.max(1) as f64).ceil() as i64).max(1);
        stream_bytes += fp.min(amortized);
    }
    let write_bytes = pe * 4;
    FpgaFeatures {
        pe,
        rounds,
        buffer_bytes,
        stream_bytes,
        write_bytes,
        partition: cfg.fpga_partition,
        pipeline: cfg.fpga_pipeline,
    }
}

/// Computes [`KernelFeatures`] for a validated config from precomputed
/// load groups and graph constants. This is the single source of truth for
/// feature computation: [`crate::lower::lower`],
/// [`LoweredTemplate::features`], and the delta evaluator's full-recompute
/// fallback all call it (and the delta fast path calls the same `feat_*`
/// kernels it is composed of), so no path can drift from another.
pub(crate) fn compute_features(
    root: &ComputeOp,
    cfg: &NodeConfig,
    target: TargetKind,
    groups: &[CompiledGroup],
    consts: &FeatureConsts,
) -> KernelFeatures {
    // One scratch slot vector serves every tile env below (arena reuse).
    let mut scratch = SlotScratch::new();

    let shared_bytes_per_block = feat_shared_bytes_per_block(root, cfg, groups, &mut scratch);
    let thread_reg_bytes = feat_thread_reg_bytes(root, cfg, groups, &mut scratch);
    let l1_tile_bytes = feat_l1_tile_bytes(root, cfg, groups, &mut scratch);
    let l2_tile_bytes = feat_l2_tile_bytes(root, cfg, groups, &mut scratch);

    let data_node_bytes: i64 = if cfg.inline_data {
        0
    } else {
        consts.materialized_data_bytes
    };

    let mut features = KernelFeatures {
        target,
        flops: consts.root_flops,
        output_elements: consts.output_elements,
        output_bytes: consts.output_elements * 4,
        input_bytes_total: consts.input_bytes_total,
        body_loads: groups.len(),
        reduce_size: consts.reduce_size,
        grid: cfg.spatial_level_product(0),
        parallel_chunks: feat_parallel_chunks(cfg),
        vthreads: cfg.spatial_level_product(1),
        block_threads: cfg.spatial_level_product(2),
        thread_tile: cfg.spatial_level_product(3),
        reduce_outer: cfg.reduce_level_product(0),
        reduce_mid: cfg.reduce_level_product(1),
        reduce_inner: cfg.reduce_level_product(2),
        unroll: cfg.unroll,
        vector_len: feat_vector_len(cfg),
        contiguous_inner: feat_contiguous_inner(root, cfg),
        cache_shared: cfg.cache_shared,
        shared_bytes_per_block,
        thread_reg_bytes,
        l1_tile_bytes,
        l2_tile_bytes,
        inline_data: cfg.inline_data,
        data_node_bytes,
        fpga: None,
    };

    if target == TargetKind::Fpga {
        features.fpga = Some(feat_fpga(root, cfg, groups, &mut scratch));
    }

    // Fused epilogue consumers (bias, activation) add FLOPs but no extra
    // DRAM round trip — same accounting as full lowering.
    features.flops += consts.epilogue_flops;
    features
}

/// The config-independent half of lowering for one (graph, target) pair.
///
/// Build it once per search (the evaluation pool does this for its
/// workers) and call [`LoweredTemplate::features`] per candidate: the
/// apply step validates the config and derives [`KernelFeatures`] from the
/// cached load groups without cloning or re-walking any expression tree.
/// Both `inline_data` variants of the body are precomputed, so every point
/// of the schedule space is covered.
///
/// # Examples
///
/// ```
/// use flextensor_ir::ops;
/// use flextensor_schedule::config::{NodeConfig, TargetKind};
/// use flextensor_schedule::lower::lower;
/// use flextensor_schedule::template::LoweredTemplate;
///
/// let g = ops::gemm(64, 32, 16);
/// let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
/// let cfg = NodeConfig::naive(g.root_op());
/// let fast = tpl.features(&cfg).unwrap();
/// let full = lower(&g, &cfg, TargetKind::Gpu).unwrap();
/// assert_eq!(fast, full.features);
/// ```
#[derive(Debug, Clone)]
pub struct LoweredTemplate {
    pub(crate) target: TargetKind,
    pub(crate) root: ComputeOp,
    /// Slot-compiled load groups per `inline_data` variant:
    /// `[false, true]`.
    pub(crate) groups: [Vec<CompiledGroup>; 2],
    pub(crate) consts: FeatureConsts,
    pub(crate) graph_flops: u64,
}

impl LoweredTemplate {
    /// Precomputes the config-independent lowering state for a graph on a
    /// target: both body variants' load groups and the graph constants.
    pub fn new(graph: &Graph, target: TargetKind) -> LoweredTemplate {
        let root = graph.anchor_op().clone();
        let raw_groups = compile_groups(&root, &load_groups(graph, &root.body));
        let inlined_body = inline_producers(graph, &root, &root.body);
        let inlined_groups = compile_groups(&root, &load_groups(graph, &inlined_body));
        let materialized_data_bytes: i64 = data_producers(graph, &root)
            .iter()
            .map(|p| 2 * (p.spatial_size() * 4)) // write once + read back
            .sum();
        let consts = FeatureConsts {
            root_flops: root.flops(),
            epilogue_flops: graph.epilogue_chain().iter().map(|e| e.flops()).sum(),
            output_elements: root.spatial_size(),
            reduce_size: root.reduce_size(),
            input_bytes_total: graph.inputs().map(|t| t.bytes()).sum(),
            materialized_data_bytes,
        };
        LoweredTemplate {
            target,
            root,
            groups: [raw_groups, inlined_groups],
            consts,
            graph_flops: graph.flops(),
        }
    }

    /// The target this template lowers for.
    pub fn target(&self) -> TargetKind {
        self.target
    }

    /// The anchor compute op the template schedules.
    pub fn root(&self) -> &ComputeOp {
        &self.root
    }

    /// Total FLOPs of the whole graph (what cost consumers report
    /// throughput against).
    pub fn graph_flops(&self) -> u64 {
        self.graph_flops
    }

    /// The cheap apply step: validates `cfg` and computes the exact
    /// [`KernelFeatures`] full lowering would produce, without building
    /// the loop nest.
    ///
    /// # Errors
    ///
    /// Returns [`LowerError`] when the configuration does not validate
    /// against the template's root op — the same failures (and messages)
    /// as [`crate::lower::lower`].
    pub fn features(&self, cfg: &NodeConfig) -> Result<KernelFeatures, LowerError> {
        cfg.validate(&self.root).map_err(LowerError)?;
        let groups = &self.groups[cfg.inline_data as usize];
        Ok(compute_features(
            &self.root,
            cfg,
            self.target,
            groups,
            &self.consts,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lower::lower;
    use flextensor_ir::ops::{self, ConvParams};

    fn tiled_gemm_cfg(op: &ComputeOp) -> NodeConfig {
        let mut c = NodeConfig::naive(op);
        c.spatial_splits = vec![vec![4, 2, 4, 2], vec![2, 2, 4, 2]];
        c.reduce_splits = vec![vec![4, 2, 2]];
        c.cache_shared = true;
        c.unroll = true;
        c.vectorize = true;
        c
    }

    #[test]
    fn template_features_match_full_lowering_gemm() {
        let g = ops::gemm(64, 32, 16);
        let cfg = tiled_gemm_cfg(g.root_op());
        for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
            let tpl = LoweredTemplate::new(&g, target);
            let fast = tpl.features(&cfg).unwrap();
            let full = lower(&g, &cfg, target).unwrap();
            assert_eq!(fast, full.features, "{target}");
        }
    }

    #[test]
    fn template_features_match_for_materialized_producers() {
        let g = ops::conv2d(ConvParams::same(1, 4, 8, 3), 8, 8);
        for inline_data in [true, false] {
            let mut cfg = NodeConfig::naive(g.root_op());
            cfg.inline_data = inline_data;
            let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
            let fast = tpl.features(&cfg).unwrap();
            let full = lower(&g, &cfg, TargetKind::Gpu).unwrap();
            assert_eq!(fast, full.features, "inline_data = {inline_data}");
        }
    }

    #[test]
    fn template_rejects_invalid_configs_like_lower() {
        let g = ops::gemm(64, 32, 16);
        let tpl = LoweredTemplate::new(&g, TargetKind::Gpu);
        let mut cfg = NodeConfig::naive(g.root_op());
        cfg.spatial_splits[0] = vec![3, 1, 1, 1];
        let fast_err = tpl.features(&cfg).unwrap_err();
        let full_err = lower(&g, &cfg, TargetKind::Gpu).unwrap_err();
        assert_eq!(fast_err, full_err);
    }

    #[test]
    fn template_reports_graph_flops() {
        let g = ops::gemm(64, 32, 16);
        let tpl = LoweredTemplate::new(&g, TargetKind::Cpu);
        assert_eq!(tpl.graph_flops(), g.flops());
        assert_eq!(tpl.root().name, g.anchor_op().name);
        assert_eq!(tpl.target(), TargetKind::Cpu);
    }
}
