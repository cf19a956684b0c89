//! The repository benchmark: end-to-end and per-layer timing of
//! `flextensor::optimize` and `flextensor::serve::SessionServer`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload search_q --seed 1 --seconds 30 --trace 0
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. `METRICS.md`
//! defines every metric and the workloads.

mod calib;
mod cli;
mod mirror;
mod report;
mod search;
mod serve;
mod stats;
mod tasks;

use flextensor::Method;

use crate::cli::Workload;

fn main() {
    let args = match cli::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{}", cli::USAGE);
            std::process::exit(2);
        }
    };
    let result = match args.workload {
        Workload::SearchQ => search::run(Method::QMethod, &args),
        Workload::SearchP => search::run(Method::PMethod, &args),
        Workload::ServeMixed => serve::run(&args),
    };
    let mut report = match result {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {} seed {}: {e}", args.workload, args.seed);
            std::process::exit(1);
        }
    };
    for note in &report.notes {
        println!("{} seed {}: {note}", args.workload, args.seed);
    }
    if report.round_trip_off > 0 {
        println!(
            "{} seed {}: {} checked results report a cost one reciprocal round trip away \
             from Evaluator::evaluate's",
            args.workload, args.seed, report.round_trip_off
        );
    }
    println!("{}", report.result_line());
}
