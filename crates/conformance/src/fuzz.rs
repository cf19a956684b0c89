//! The seeded fuzz loop: sample → corrupt → check every oracle tier,
//! shrinking anything that fails into a replayable fixture.
//!
//! Iterations walk the suite round-robin (operator kinds × targets in a
//! fixed order) while the *configs* come from a single seeded RNG, so one
//! `(seed, iters)` pair names an exact, reproducible workload and the
//! rendered report is byte-identical across runs.

use flextensor_explore::space::Space;
use flextensor_ir::suite::{small_case, OperatorKind};
use flextensor_schedule::config::{NodeConfig, TargetKind};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::corpus::{Expectation, Fixture};
use crate::gen::{mutate, ALL_MUTATIONS};
use crate::oracle::{
    check_analyzer, check_model, check_mutant_rejected, check_semantic, check_store_roundtrip,
    check_structural, check_worker_invariance, oracle_devices, Tier,
};
use crate::shrink::shrink;

/// What to fuzz and for how long.
#[derive(Debug, Clone, Copy)]
pub struct FuzzOptions {
    /// RNG seed; the whole run is a pure function of `(seed, iters)`.
    pub seed: u64,
    /// Number of sampled points (each is checked by every tier).
    pub iters: u64,
}

/// One oracle failure, already shrunk and packaged for the corpus.
#[derive(Debug, Clone)]
pub struct Violation {
    /// Which tier caught it.
    pub tier: Tier,
    /// The oracle's description of the failure (pre-shrink).
    pub message: String,
    /// The shrunk reproducer, ready to be written into the corpus.
    pub fixture: Fixture,
}

/// Counters and failures from one fuzz run. Contains no wall-clock data:
/// rendering it is deterministic for a fixed `(seed, iters)`.
#[derive(Debug, Clone, Default)]
pub struct FuzzReport {
    /// Echo of the options that produced this report.
    pub seed: u64,
    /// Echo of the options that produced this report.
    pub iters: u64,
    /// Valid samples checked by the structural oracle.
    pub structural_checks: u64,
    /// Corrupted mutants checked for rejection.
    pub mutant_checks: u64,
    /// Scheduled-vs-reference executions.
    pub semantic_checks: u64,
    /// Cost-model sanity checks.
    pub model_checks: u64,
    /// Worker-invariance batches compared.
    pub invariance_checks: u64,
    /// Static-analyzer verdicts checked against the dynamic layers.
    pub analyzer_checks: u64,
    /// Tuning-record store round-trips checked for fidelity.
    pub store_checks: u64,
    /// Every failure, in discovery order.
    pub violations: Vec<Violation>,
}

impl FuzzReport {
    /// Renders the report as stable, line-oriented text.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "conformance fuzz: seed={} iters={}\n",
            self.seed, self.iters
        ));
        out.push_str(&format!(
            "  structural: {} samples, {} mutants\n",
            self.structural_checks, self.mutant_checks
        ));
        out.push_str(&format!(
            "  semantic:   {} executions\n",
            self.semantic_checks
        ));
        out.push_str(&format!(
            "  model:      {} points, {} invariance batches\n",
            self.model_checks, self.invariance_checks
        ));
        out.push_str(&format!(
            "  analyzer:   {} verdicts\n",
            self.analyzer_checks
        ));
        out.push_str(&format!(
            "  store:      {} round-trips\n",
            self.store_checks
        ));
        if self.violations.is_empty() {
            out.push_str("  violations: none\n");
        } else {
            out.push_str(&format!("  violations: {}\n", self.violations.len()));
            for v in &self.violations {
                out.push_str(&format!(
                    "    [{}] {}: {}\n",
                    v.tier, v.fixture.name, v.message
                ));
            }
        }
        out
    }
}

/// How many sampled configs accumulate per `(kind, target)` slot before a
/// worker-invariance batch is compared. Must be ≥ 2 so the pool actually
/// spawns workers instead of evaluating inline.
const INVARIANCE_BATCH: usize = 6;

struct Slot {
    graph: flextensor_ir::graph::Graph,
    pending: Vec<NodeConfig>,
}

/// Runs the full differential fuzz loop.
pub fn fuzz(opts: &FuzzOptions) -> FuzzReport {
    let kinds = OperatorKind::all();
    let targets = [TargetKind::Cpu, TargetKind::Gpu, TargetKind::Fpga];
    // Index-aligned with `targets`: the device model the analyzer tier
    // checks for the iteration's target.
    let devices = oracle_devices();
    let mut rng = StdRng::seed_from_u64(opts.seed);
    let mut report = FuzzReport {
        seed: opts.seed,
        iters: opts.iters,
        ..FuzzReport::default()
    };

    // One accumulation slot per (kind, target): invariance is a batch
    // property, so points are pooled until the batch is worth comparing.
    let mut slots: Vec<Slot> = kinds
        .iter()
        .flat_map(|&k| {
            targets.iter().map(move |_| Slot {
                graph: small_case(k),
                pending: Vec::new(),
            })
        })
        .collect();

    for i in 0..opts.iters {
        let ki = (i as usize) % kinds.len();
        let ti = ((i as usize) / kinds.len()) % targets.len();
        let kind = kinds[ki];
        let target = targets[ti];
        let slot = &mut slots[ki * targets.len() + ti];
        let space = Space::new(&slot.graph, target);
        let op = space.op().clone();
        let cfg = space.random_point(&mut rng);
        let case = format!("iter{i:05}-{}-{target}", kind.abbr().to_lowercase());

        // Tier 1a: the sampled point is structurally sound.
        report.structural_checks += 1;
        if let Err(message) = check_structural(&op, &cfg) {
            let shrunk = shrink(&op, &cfg, |c| check_structural(&op, c).is_err());
            report.violations.push(Violation {
                tier: Tier::Structural,
                message,
                fixture: Fixture {
                    name: case.clone(),
                    kind,
                    target,
                    expect: Expectation::Pass,
                    encoded: shrunk.encode(),
                    note: format!("shrunk structural violation, fuzz seed {}", opts.seed),
                },
            });
            continue; // downstream tiers assume a structurally sound point
        }

        // Tier 1b: a single-field corruption of the point is rejected.
        let mutation = ALL_MUTATIONS[(i as usize) % ALL_MUTATIONS.len()];
        if let Some(bad) = mutate(&cfg, &op, mutation) {
            report.mutant_checks += 1;
            if let Err(message) = check_mutant_rejected(&slot.graph, &bad) {
                let graph = &slot.graph;
                let shrunk = shrink(&op, &bad, |c| check_mutant_rejected(graph, c).is_err());
                report.violations.push(Violation {
                    tier: Tier::Structural,
                    message,
                    fixture: Fixture {
                        name: format!("{case}-{mutation}"),
                        kind,
                        target,
                        expect: Expectation::Reject,
                        encoded: shrunk.encode(),
                        note: format!("shrunk accepted {mutation} mutant, fuzz seed {}", opts.seed),
                    },
                });
            }
        }

        // Tier 2: the scheduled interpreter matches the reference.
        report.semantic_checks += 1;
        if let Err(message) = check_semantic(&slot.graph, &cfg, target, opts.seed) {
            let graph = &slot.graph;
            let shrunk = shrink(&op, &cfg, |c| {
                c.validate(&op).is_ok() && check_semantic(graph, c, target, opts.seed).is_err()
            });
            report.violations.push(Violation {
                tier: Tier::Semantic,
                message,
                fixture: Fixture {
                    name: case.clone(),
                    kind,
                    target,
                    expect: Expectation::Pass,
                    encoded: shrunk.encode(),
                    note: format!("shrunk semantic divergence, fuzz seed {}", opts.seed),
                },
            });
        }

        // Tier 3a: cost models produce sane numbers for the point.
        report.model_checks += 1;
        if let Err(message) = check_model(&slot.graph, &cfg) {
            let graph = &slot.graph;
            let shrunk = shrink(&op, &cfg, |c| {
                c.validate(&op).is_ok() && check_model(graph, c).is_err()
            });
            report.violations.push(Violation {
                tier: Tier::Model,
                message,
                fixture: Fixture {
                    name: case.clone(),
                    kind,
                    target,
                    expect: Expectation::Pass,
                    encoded: shrunk.encode(),
                    note: format!("shrunk model-sanity violation, fuzz seed {}", opts.seed),
                },
            });
        }

        // Tier 4: the static analyzer's verdict agrees with the cost
        // model and (when both deem the point legal) the interpreter.
        report.analyzer_checks += 1;
        let device = &devices[ti];
        if let Err(message) = check_analyzer(&slot.graph, &cfg, device, opts.seed) {
            let graph = &slot.graph;
            let shrunk = shrink(&op, &cfg, |c| {
                c.validate(&op).is_ok() && check_analyzer(graph, c, device, opts.seed).is_err()
            });
            report.violations.push(Violation {
                tier: Tier::Analyzer,
                message,
                fixture: Fixture {
                    name: case.clone(),
                    kind,
                    target,
                    expect: Expectation::Pass,
                    encoded: shrunk.encode(),
                    note: format!(
                        "shrunk analyzer-verdict divergence, fuzz seed {}",
                        opts.seed
                    ),
                },
            });
        }

        // Tier 5 (sampled sparsely — each check does real file I/O): a
        // point's tuning record survives the persistence loop byte- and
        // bit-identically.
        if i % 16 == 0 {
            report.store_checks += 1;
            if let Err(message) = check_store_roundtrip(&slot.graph, &cfg) {
                report.violations.push(Violation {
                    tier: Tier::Store,
                    message,
                    fixture: Fixture {
                        name: format!("{case}-store"),
                        kind,
                        target,
                        expect: Expectation::Pass,
                        encoded: cfg.encode(),
                        note: format!("store round-trip infidelity, fuzz seed {}", opts.seed),
                    },
                });
            }
        }

        // Tier 3b: pooled worker-invariance batches.
        slot.pending.push(cfg);
        if slot.pending.len() >= INVARIANCE_BATCH {
            flush_invariance(&mut report, slot, kind, target, opts.seed, i);
        }
    }

    // Flush leftover batches so short runs still exercise the pool.
    for (si, slot) in slots.iter_mut().enumerate() {
        if slot.pending.len() >= 2 {
            let kind = kinds[si / targets.len()];
            let target = targets[si % targets.len()];
            flush_invariance(&mut report, slot, kind, target, opts.seed, opts.iters);
        }
    }
    report
}

fn flush_invariance(
    report: &mut FuzzReport,
    slot: &mut Slot,
    kind: OperatorKind,
    target: TargetKind,
    seed: u64,
    iter: u64,
) {
    report.invariance_checks += 1;
    if let Err(message) = check_worker_invariance(&slot.graph, &slot.pending) {
        // Batch failures are not per-config, so the fixture records the
        // first config of the batch un-shrunk; the message pinpoints the
        // offending index and device.
        report.violations.push(Violation {
            tier: Tier::Model,
            message,
            fixture: Fixture {
                name: format!(
                    "iter{iter:05}-{}-{target}-invariance",
                    kind.abbr().to_lowercase()
                ),
                kind,
                target,
                expect: Expectation::Pass,
                encoded: slot.pending[0].encode(),
                note: format!("worker-invariance batch failure, fuzz seed {seed}"),
            },
        });
    }
    slot.pending.clear();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fuzz_is_deterministic_for_a_fixed_seed() {
        let opts = FuzzOptions { seed: 7, iters: 40 };
        let a = fuzz(&opts).render();
        let b = fuzz(&opts).render();
        assert_eq!(a, b);
        assert!(a.contains("seed=7"));
    }

    #[test]
    fn different_seeds_change_the_workload() {
        // Same counters (the schedule is seed-independent) but the render
        // must reflect the requested seed.
        let a = fuzz(&FuzzOptions { seed: 1, iters: 15 });
        let b = fuzz(&FuzzOptions { seed: 2, iters: 15 });
        assert_eq!(a.structural_checks, b.structural_checks);
        assert_ne!(a.render(), b.render());
    }

    #[test]
    fn a_short_run_touches_every_tier_and_finds_nothing() {
        let r = fuzz(&FuzzOptions { seed: 3, iters: 45 });
        assert_eq!(r.structural_checks, 45);
        assert!(r.mutant_checks > 0);
        assert_eq!(r.semantic_checks, 45);
        assert_eq!(r.model_checks, 45);
        assert_eq!(r.analyzer_checks, 45);
        assert!(r.invariance_checks > 0, "leftover batches must flush");
        assert!(
            r.violations.is_empty(),
            "unexpected violations:\n{}",
            r.render()
        );
    }
}
