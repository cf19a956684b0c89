//! Probe — the static schedule analyzer on the CLI.
//!
//! Subcommands:
//!
//! * `corpus` (default) — audit every committed conformance fixture:
//!   decode its stored encoding and run `flextensor-analyze` on the
//!   device model of the fixture's target. `Pass` fixtures must be
//!   `Error`-free, `Reject` fixtures must be refused (at decode or by an
//!   `Error`-level diagnostic). The report is deterministic — CI diffs it
//!   against the committed golden copy
//!   (`crates/conformance/analyze-golden.txt`) to catch verdict drift.
//!   Exit code 1 when any verdict contradicts its fixture's expectation.
//! * `check` — analyze one encoded config:
//!   `probe_analyze check --kind GMM --target gpu --encoded 8.1.1.1...`
//!   (dot-joined `NodeConfig::encode` vector over the suite's small
//!   conformance shape for `--kind`). Exit code 1 when the analyzer
//!   reports `Error`-level diagnostics.
//!
//! Both subcommands accept `--json` for the machine-readable report (see
//! `docs/ANALYZE.md` for the schema) and `--corpus DIR` to audit a
//! different fixture directory.

use std::path::PathBuf;
use std::process::ExitCode;

use flextensor_analyze::analyze_schedule;
use flextensor_bench::harness::arg;
use flextensor_conformance::audit::{audit_corpus, audit_device};
use flextensor_conformance::corpus::load_corpus;
use flextensor_ir::suite::{small_case, OperatorKind};
use flextensor_schedule::config::{NodeConfig, TargetKind};

fn corpus_dir() -> PathBuf {
    let default = concat!(env!("CARGO_MANIFEST_DIR"), "/../conformance/corpus").to_string();
    PathBuf::from(arg("corpus", default))
}

fn has_flag(name: &str) -> bool {
    let flag = format!("--{name}");
    std::env::args().any(|a| a == flag)
}

fn main() -> ExitCode {
    let mode = std::env::args().nth(1).unwrap_or_else(|| "corpus".into());
    match mode.as_str() {
        "corpus" => run_corpus(),
        "check" => run_check(),
        other => {
            eprintln!("unknown subcommand `{other}`; expected corpus | check");
            ExitCode::FAILURE
        }
    }
}

fn run_corpus() -> ExitCode {
    let dir = corpus_dir();
    let fixtures = match load_corpus(&dir) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    let report = audit_corpus(&fixtures);
    if has_flag("json") {
        println!("{}", report.to_json());
    } else {
        print!("{}", report.render_text());
    }
    if report.mismatches() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn run_check() -> ExitCode {
    let kind_s: String = arg("kind", "GMM".to_string());
    let Some(kind) = OperatorKind::from_abbr(&kind_s) else {
        eprintln!("unknown operator kind `{kind_s}`; expected a suite abbreviation like GMM");
        return ExitCode::FAILURE;
    };
    let target_s: String = arg("target", "gpu".to_string());
    let target = match target_s.as_str() {
        "cpu" => TargetKind::Cpu,
        "gpu" => TargetKind::Gpu,
        "fpga" => TargetKind::Fpga,
        other => {
            eprintln!("unknown target `{other}`; expected cpu | gpu | fpga");
            return ExitCode::FAILURE;
        }
    };
    let graph = small_case(kind);
    let encoded_s: String = arg("encoded", String::new());
    let cfg = if encoded_s.is_empty() {
        NodeConfig::naive(graph.anchor_op())
    } else {
        let encoded: Result<Vec<i64>, _> = encoded_s.split('.').map(|w| w.parse::<i64>()).collect();
        let encoded = match encoded {
            Ok(v) => v,
            Err(e) => {
                eprintln!("bad --encoded vector `{encoded_s}`: {e}");
                return ExitCode::FAILURE;
            }
        };
        match NodeConfig::decode(graph.anchor_op(), &encoded) {
            Ok(cfg) => cfg,
            Err(e) => {
                eprintln!("encoded config rejected at decode: {e}");
                return ExitCode::FAILURE;
            }
        }
    };
    let report = analyze_schedule(&graph, &cfg, &audit_device(target));
    if has_flag("json") {
        println!("{}", report.to_json());
    } else {
        println!("{} [{}/{target}]", graph.name, kind.abbr());
        print!("{}", report.render_text());
    }
    if report.error_count() == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
