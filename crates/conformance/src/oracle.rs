//! The differential-oracle tiers every sampled point is checked
//! against.
//!
//! * **Structural** — the config round-trips through
//!   `encode`/`decode`, validates, and satisfies the split invariants
//!   (per-axis factor products equal trip counts); deliberately corrupted
//!   mutants are *rejected*, not silently accepted.
//! * **Semantic** — the lowered kernel, executed by the loop-nest
//!   interpreter, matches `interp::reference` on the small conformance
//!   shapes (to the repo-wide 1e-9 tolerance; reduce splits legitimately
//!   reassociate floating-point sums, so exact bit equality is not the
//!   contract).
//! * **Model** — the CPU/GPU/FPGA analytical costs are finite and
//!   positive whenever the models deem a point feasible, and identical
//!   whether evaluated serially or through a multi-worker [`EvalPool`].
//! * **Analyzer** — `flextensor-analyze`'s static verdict agrees with the
//!   dynamic layers: an `Error`-level report implies the cost model
//!   rejects the schedule, and an analyzer-clean, model-feasible schedule
//!   must execute without diverging from the reference.
//! * **Store** — the point's tuning record survives the
//!   `flextensor-tunedb` persistence loop bit for bit.

use flextensor_explore::pool::EvalPool;
use flextensor_interp::machine::check_against_reference;
use flextensor_interp::reference::random_inputs;
use flextensor_ir::graph::{ComputeOp, Graph};
use flextensor_schedule::config::{NodeConfig, TargetKind, REDUCE_PARTS, SPATIAL_PARTS};
use flextensor_schedule::lower::lower;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, vu9p, xeon_e5_2699_v4, Device};

/// Maximum `|scheduled - reference|` the semantic oracle tolerates — the
/// same tolerance the repo's correctness tests use.
pub const SEMANTIC_TOL: f64 = 1e-9;

/// Which oracle tier a violation came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Tier {
    /// Validate/encode/decode and invariant checks.
    Structural,
    /// Scheduled-vs-reference execution.
    Semantic,
    /// Analytical cost-model sanity.
    Model,
    /// Static-analyzer verdicts vs. the cost models and the interpreter.
    Analyzer,
    /// Tuning-record persistence fidelity (serialize → store → recover).
    Store,
}

impl std::fmt::Display for Tier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Tier::Structural => "structural",
            Tier::Semantic => "semantic",
            Tier::Model => "model",
            Tier::Analyzer => "analyzer",
            Tier::Store => "store",
        })
    }
}

/// The three device models the model oracle runs, one per target.
pub fn oracle_devices() -> [Device; 3] {
    [
        Device::Cpu(xeon_e5_2699_v4()),
        Device::Gpu(v100()),
        Device::Fpga(vu9p()),
    ]
}

/// Structural oracle for a config the generator believes valid.
///
/// # Errors
///
/// Returns a description of the first violated check.
pub fn check_structural(op: &ComputeOp, cfg: &NodeConfig) -> Result<(), String> {
    cfg.validate(op)
        .map_err(|e| format!("valid sample rejected by validator: {e}"))?;

    // Split products are the trip counts: each axis's factors must
    // reconstruct exactly its extent (validate checks this too; asserting
    // it here keeps the oracle independent of validator internals).
    for (axis, f) in op.spatial.iter().zip(&cfg.spatial_splits) {
        if f.len() != SPATIAL_PARTS || f.iter().product::<i64>() != axis.extent {
            return Err(format!(
                "spatial axis {}: factors {f:?} do not tile extent {}",
                axis.name, axis.extent
            ));
        }
    }
    for (axis, f) in op.reduce.iter().zip(&cfg.reduce_splits) {
        if f.len() != REDUCE_PARTS || f.iter().product::<i64>() != axis.extent {
            return Err(format!(
                "reduce axis {}: factors {f:?} do not tile extent {}",
                axis.name, axis.extent
            ));
        }
    }

    // encode → decode must be the identity, and the encoding must have the
    // documented fixed length.
    let v = cfg.encode();
    let expect_len =
        op.spatial.len() * SPATIAL_PARTS + op.reduce.len() * REDUCE_PARTS + op.spatial.len() + 7;
    if v.len() != expect_len {
        return Err(format!(
            "encoding length {} != documented {expect_len}",
            v.len()
        ));
    }
    let back = NodeConfig::decode(op, &v).map_err(|e| format!("decode of encode failed: {e}"))?;
    if &back != cfg {
        return Err(format!(
            "encode/decode round-trip changed the config: {v:?} -> {:?}",
            back.encode()
        ));
    }
    Ok(())
}

/// Structural oracle for a deliberately corrupted mutant: the config must
/// be *rejected* at every layer — by the validator directly, by lowering
/// (which revalidates), and (when its encoding survives decoding at all)
/// by the validator after a decode round-trip.
///
/// # Errors
///
/// Returns a description when any layer silently accepts the mutant.
pub fn check_mutant_rejected(graph: &Graph, mutant: &NodeConfig) -> Result<(), String> {
    let op = graph.anchor_op();
    if mutant.validate(op).is_ok() {
        return Err("mutant accepted by validator".into());
    }
    for target in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
        if lower(graph, mutant, target).is_ok() {
            return Err(format!("mutant lowered successfully for {target}"));
        }
    }
    // If the mutant's encoding decodes, the decoded config must still be
    // rejected; a decode error is an equally acceptable rejection.
    if let Ok(back) = NodeConfig::decode(op, &mutant.encode()) {
        if back.validate(op).is_ok() {
            return Err("mutant round-tripped into an accepted config".into());
        }
    }
    Ok(())
}

/// Semantic oracle: lowers `cfg` for `target` and compares the scheduled
/// interpreter against the reference evaluator on deterministic random
/// inputs derived from `seed`.
///
/// # Errors
///
/// Returns a description when lowering fails for a valid config, execution
/// errors, or outputs diverge beyond [`SEMANTIC_TOL`].
pub fn check_semantic(
    graph: &Graph,
    cfg: &NodeConfig,
    target: TargetKind,
    seed: u64,
) -> Result<(), String> {
    let kernel = lower(graph, cfg, target)
        .map_err(|e| format!("valid config failed to lower for {target}: {e}"))?;
    let inputs = random_inputs(graph, seed);
    let diff = check_against_reference(graph, &kernel, &inputs)
        .map_err(|e| format!("{target} execution error: {e}"))?;
    if diff.is_nan() || diff > SEMANTIC_TOL {
        return Err(format!(
            "{target}: scheduled output diverges from reference by {diff:e}"
        ));
    }
    Ok(())
}

/// Model oracle, single point: for each device model, the cost is either
/// `None` (infeasible — allowed) or finite and strictly positive with a
/// finite throughput.
///
/// # Errors
///
/// Returns a description naming the offending device and quantity.
pub fn check_model(graph: &Graph, cfg: &NodeConfig) -> Result<(), String> {
    let mut any_feasible = false;
    for device in oracle_devices() {
        let target = device.target();
        if let Some(cost) = Evaluator::new(device).evaluate(graph, cfg) {
            any_feasible = true;
            if !cost.seconds.is_finite() || cost.seconds <= 0.0 {
                return Err(format!("{target}: non-positive cost {}", cost.seconds));
            }
            // Zero-FLOP ops (shift is pure data movement) legitimately
            // report zero throughput; anything else must be positive.
            if !cost.gflops().is_finite() || (cost.flops > 0 && cost.gflops() <= 0.0) {
                return Err(format!("{target}: bad throughput {}", cost.gflops()));
            }
        }
    }
    // The CPU model has no feasibility constraints that a *valid* split
    // can violate, so a point infeasible everywhere indicates a model
    // regression, not a genuinely impossible schedule.
    if !any_feasible {
        return Err("point infeasible on every device model".into());
    }
    Ok(())
}

/// Analyzer oracle: the static analyzer's verdict for `cfg` on `device`
/// must agree with the dynamic layers it abstracts.
///
/// * An `Error`-level report claims the schedule is illegal on the
///   device, so the cost model must reject it (`evaluate` → `None`);
///   the converse is not required — the analyzer may miss
///   infeasibilities, but must never cry wolf.
/// * A clean report on a model-feasible schedule claims legality, so the
///   scheduled interpreter must match the reference (within
///   [`SEMANTIC_TOL`]).
///
/// # Errors
///
/// Returns a description of the disagreement, naming the analyzer rule
/// when the static verdict was the wrong one.
pub fn check_analyzer(
    graph: &Graph,
    cfg: &NodeConfig,
    device: &Device,
    seed: u64,
) -> Result<(), String> {
    let target = device.target();
    let report = flextensor_analyze::analyze_schedule(graph, cfg, device);
    let cost = Evaluator::new(device.clone()).evaluate(graph, cfg);
    let first_error = report
        .diagnostics
        .iter()
        .find(|d| d.severity == flextensor_analyze::Severity::Error);
    match (first_error, cost) {
        (Some(d), Some(c)) => Err(format!(
            "{target}: analyzer claims illegal ({} at {}) but the cost model accepts the \
             schedule at {:.3e}s",
            d.rule, d.span, c.seconds
        )),
        (None, Some(_)) => check_semantic(graph, cfg, target, seed)
            .map_err(|e| format!("analyzer-clean schedule misbehaves: {e}")),
        // Error + infeasible: static and dynamic agree. Clean +
        // infeasible: allowed — the gate is sound, not complete.
        _ => Ok(()),
    }
}

/// Model oracle, batch half: evaluating `configs` through a serial pool
/// and a multi-worker pool must produce identical outcomes (the
/// `eval_workers` invariance the parallel back-end guarantees).
///
/// # Errors
///
/// Returns the index and device where serial and parallel disagree.
pub fn check_worker_invariance(graph: &Graph, configs: &[NodeConfig]) -> Result<(), String> {
    if configs.is_empty() {
        return Ok(());
    }
    for device in oracle_devices() {
        let target = device.target();
        let evaluator = Evaluator::new(device);
        let serial = EvalPool::new(graph, &evaluator, 1, 1 << 14).evaluate_batch(configs);
        let parallel = EvalPool::new(graph, &evaluator, 4, 1 << 14).evaluate_batch(configs);
        for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
            if s.cost != p.cost {
                return Err(format!(
                    "{target}: candidate {i} cost differs between 1 and 4 workers: {:?} vs {:?}",
                    s.cost, p.cost
                ));
            }
        }
    }
    Ok(())
}

/// Store oracle: a schedule's tuning record must survive the persistence
/// loop with full fidelity. For every device that deems `cfg` feasible,
/// the record is serialized, parsed back, written through a real
/// single-shard [`TuneDb`](flextensor_tunedb::TuneDb), recovered on
/// reopen, and the recovered config re-evaluated — every hop must be
/// byte- (for the JSONL line) and bit- (for the cost) identical, with no
/// lines dropped by recovery.
///
/// # Errors
///
/// Returns a description of the first hop that loses information.
pub fn check_store_roundtrip(graph: &Graph, cfg: &NodeConfig) -> Result<(), String> {
    use flextensor_tunedb::{testutil, TuneDb, TuneKey, TuneRecord};

    for device in oracle_devices() {
        let target = device.target();
        let evaluator = Evaluator::new(device.clone());
        let Some(cost) = evaluator.evaluate(graph, cfg) else {
            continue;
        };
        let mut shape: Vec<i64> = graph.anchor_op().spatial.iter().map(|a| a.extent).collect();
        shape.extend(graph.anchor_op().reduce.iter().map(|a| a.extent));
        let key = TuneKey::new(
            graph.name.split('_').next().unwrap_or("op"),
            shape,
            device.name(),
        );
        let record = TuneRecord {
            key: key.clone(),
            config: cfg.encode(),
            seconds: cost.seconds,
            seed: 7,
            trials: 1,
            commit: "oracle".to_string(),
        };
        let line = record.to_jsonl();
        let parsed = TuneRecord::from_jsonl(&line)
            .map_err(|e| format!("{target}: serialized record does not parse: {e}"))?;
        if parsed.to_jsonl() != line {
            return Err(format!("{target}: parse→serialize is not byte-identical"));
        }
        let dir = testutil::temp_dir("oracle-roundtrip");
        let (db, _) = TuneDb::open_with_shards(&dir, 1)
            .map_err(|e| format!("{target}: cannot open store: {e}"))?;
        db.put(record)
            .map_err(|e| format!("{target}: put failed: {e}"))?;
        drop(db);
        let (db, report) = TuneDb::open_with_shards(&dir, 1)
            .map_err(|e| format!("{target}: cannot reopen store: {e}"))?;
        if report.lines_dropped != 0 {
            return Err(format!(
                "{target}: recovery dropped {} line(s) from an uncorrupted store",
                report.lines_dropped
            ));
        }
        let recovered = db
            .peek(&key)
            .ok_or_else(|| format!("{target}: record lost across reopen"))?;
        let _ = std::fs::remove_dir_all(&dir);
        if recovered.to_jsonl() != line {
            return Err(format!("{target}: recovered record is not byte-identical"));
        }
        let decoded = NodeConfig::decode(graph.root_op(), &recovered.config)
            .map_err(|e| format!("{target}: recovered config does not decode: {e}"))?;
        let replayed = evaluator
            .evaluate(graph, &decoded)
            .ok_or_else(|| format!("{target}: recovered config became infeasible"))?;
        if replayed.seconds.to_bits() != cost.seconds.to_bits() {
            return Err(format!(
                "{target}: replayed cost {} != recorded cost {}",
                replayed.seconds, cost.seconds
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{mutate, ALL_MUTATIONS};
    use flextensor_explore::space::Space;
    use flextensor_ir::suite::{small_case, OperatorKind};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn naive_configs_pass_all_tiers() {
        let g = small_case(OperatorKind::Gemm);
        let cfg = NodeConfig::naive(g.anchor_op());
        check_structural(g.anchor_op(), &cfg).unwrap();
        for t in [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga] {
            check_semantic(&g, &cfg, t, 7).unwrap();
        }
        check_model(&g, &cfg).unwrap();
        check_store_roundtrip(&g, &cfg).unwrap();
    }

    #[test]
    fn store_roundtrip_holds_for_random_points() {
        let g = small_case(OperatorKind::Gemm);
        let space = Space::new(&g, TargetKind::Gpu);
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..4 {
            check_store_roundtrip(&g, &space.random_point(&mut rng)).unwrap();
        }
    }

    #[test]
    fn random_points_pass_structural_and_model() {
        let g = small_case(OperatorKind::Conv2d);
        let space = Space::new(&g, TargetKind::Gpu);
        let mut rng = StdRng::seed_from_u64(3);
        let pts: Vec<_> = (0..6).map(|_| space.random_point(&mut rng)).collect();
        for p in &pts {
            check_structural(space.op(), p).unwrap();
            check_model(&g, p).unwrap();
        }
        check_worker_invariance(&g, &pts).unwrap();
    }

    #[test]
    fn mutants_are_rejected_for_every_kind() {
        for kind in OperatorKind::all() {
            let g = small_case(kind);
            let op = g.anchor_op();
            let base = NodeConfig::naive(op);
            for &m in ALL_MUTATIONS {
                if let Some(bad) = mutate(&base, op, m) {
                    check_mutant_rejected(&g, &bad)
                        .unwrap_or_else(|e| panic!("{}: {m}: {e}", g.name));
                }
            }
        }
    }

    #[test]
    fn analyzer_oracle_agrees_on_naive_and_random_points() {
        for kind in [OperatorKind::Gemm, OperatorKind::Conv2d] {
            let g = small_case(kind);
            let cfg = NodeConfig::naive(g.anchor_op());
            for d in oracle_devices() {
                check_analyzer(&g, &cfg, &d, 7)
                    .unwrap_or_else(|e| panic!("{}/{}: {e}", g.name, d.name()));
            }
            let space = Space::new(&g, TargetKind::Gpu);
            let mut rng = StdRng::seed_from_u64(9);
            for _ in 0..8 {
                let p = space.random_point(&mut rng);
                for d in oracle_devices() {
                    check_analyzer(&g, &p, &d, 9)
                        .unwrap_or_else(|e| panic!("{}/{}: {e}", g.name, d.name()));
                }
            }
        }
    }

    #[test]
    fn structural_oracle_catches_a_corrupted_config() {
        let g = small_case(OperatorKind::Gemm);
        let op = g.anchor_op();
        let mut cfg = NodeConfig::naive(op);
        cfg.spatial_splits[0][0] = 5; // product mismatch
        assert!(check_structural(op, &cfg).is_err());
    }
}
