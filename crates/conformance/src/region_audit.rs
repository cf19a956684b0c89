//! Deterministic region-analysis audit over the `probe_perf` workloads.
//!
//! For each workload the audit runs a small search with the region
//! certification sweep on, then pits the abstract interpretation against
//! the realized result: the root factor box's certified `[lo, hi]` bound
//! must contain the best cost the search actually found (the best config
//! is a member of the root box by construction), and the sweep's
//! counters are reported verbatim. Everything is a pure function of the
//! committed seed and trial budget, so the rendered report is
//! byte-stable — CI diffs it against the committed golden copy
//! (`crates/conformance/region-golden.txt`) to catch bound or counter
//! drift, and `tests/region_audit.rs` runs the same comparison as an
//! ordinary test.

use flextensor_analyze::{analyze_region, RegionVerdict};
use flextensor_explore::methods::{search, Method, SearchOptions};
use flextensor_explore::sweep::root_region;
use flextensor_ir::graph::Graph;
use flextensor_ir::ops::{self, ConvParams};
use flextensor_schedule::template::LoweredTemplate;
use flextensor_sim::model::Evaluator;
use flextensor_sim::spec::{v100, Device};

/// Audit seed — the same one `probe_perf` pins its workloads to.
pub const AUDIT_SEED: u64 = 2024;

/// Trial budget per workload; small enough to keep the audit quick,
/// large enough that the sweep does real work.
pub const AUDIT_TRIALS: usize = 12;

/// The three `probe_perf` workloads the audit runs, by name.
pub fn audit_workloads() -> Vec<(&'static str, Graph)> {
    vec![
        ("gemm_256", ops::gemm(256, 256, 256)),
        (
            "conv2d_64x128_14",
            ops::conv2d(ConvParams::same(1, 64, 128, 3), 14, 14),
        ),
        (
            "group_conv2d_8g_256_28",
            ops::group_conv2d(ConvParams::same(1, 256, 256, 3).with_groups(8), 28, 28),
        ),
    ]
}

/// Rendered audit plus the number of soundness violations found
/// (a violation here means a certified bound excluded the realized best
/// — grounds to stop the presses, not regenerate the golden).
#[derive(Debug, Clone)]
pub struct RegionAuditReport {
    /// Stable line-oriented text, diffed against the committed golden.
    pub text: String,
    /// Bounds that failed to contain their workload's realized best.
    pub violations: usize,
}

/// Runs the audit over [`audit_workloads`] on the V100 GPU model.
pub fn region_audit() -> RegionAuditReport {
    let workloads = audit_workloads();
    let mut text = format!(
        "== region audit: {} workload(s), seed {AUDIT_SEED}, {AUDIT_TRIALS} trial(s) ==\n",
        workloads.len()
    );
    let mut violations = 0usize;
    for (name, graph) in &workloads {
        let ev = Evaluator::new(Device::Gpu(v100()));
        let opts = SearchOptions {
            trials: AUDIT_TRIALS,
            starts: 4,
            initial_samples: 8,
            seed: AUDIT_SEED,
            region_gate: true,
            ..SearchOptions::default()
        };
        let r = search(graph, &ev, Method::QMethod, &opts).expect("audit search finds a point");
        let best = r.best_cost.seconds;
        text.push_str(&format!("{name} [gpu]\n"));
        text.push_str(&format!(
            "  realized best: {best:.6e} s in {} measurement(s)\n",
            r.measurements
        ));
        let tpl = LoweredTemplate::new(graph, ev.target());
        match root_region(&tpl, &r.best).map(|reg| analyze_region(&tpl, &reg, &ev)) {
            Some(RegionVerdict::Bounded { lo, hi }) => {
                let contains = lo <= best && best <= hi;
                if !contains {
                    violations += 1;
                }
                text.push_str(&format!(
                    "  root bound: [{lo:.6e}, {hi:.6e}] s — {}\n",
                    if contains {
                        "contains the realized best"
                    } else {
                        "VIOLATION: excludes the realized best"
                    }
                ));
            }
            Some(RegionVerdict::Illegal(d)) => {
                violations += 1;
                text.push_str(&format!(
                    "  root bound: VIOLATION: certified illegal ({} at {}) around a feasible best\n",
                    d.rule, d.span
                ));
            }
            None => {
                violations += 1;
                text.push_str("  root bound: VIOLATION: root region failed to build\n");
            }
        }
        let s = r.region_sweep.expect("region_gate runs the sweep");
        text.push_str(&format!(
            "  sweep: {} examined: {} illegal, {} pruned, {} open{}\n",
            s.examined,
            s.certified_illegal,
            s.certified_pruned,
            s.open,
            if s.truncated { ", truncated" } else { "" }
        ));
    }
    text.push_str(&format!(
        "summary: {} across {} workload(s)\n",
        if violations == 0 {
            "every certified bound contains its realized best".to_string()
        } else {
            format!("{violations} soundness violation(s)")
        },
        workloads.len()
    ));
    RegionAuditReport { text, violations }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn audit_is_deterministic() {
        let a = region_audit();
        let b = region_audit();
        assert_eq!(a.text, b.text);
        assert_eq!(a.violations, 0, "{}", a.text);
    }
}
