//! Strict command-line parsing. Every flag must be known, given once, and
//! carry a value that parses; anything else is an error. A mistyped
//! `--seed` must fail the run instead of silently measuring another input.

use std::fmt;

/// The benchmark's workloads (see `METRICS.md` for why each exists).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `optimize()` with the Q-method and default search options.
    SearchQ,
    /// `optimize()` with the P-method and default search options.
    SearchP,
    /// A closed loop of mixed requests against a `SessionServer`.
    ServeMixed,
}

impl Workload {
    const ALL: [Workload; 3] = [Workload::SearchQ, Workload::SearchP, Workload::ServeMixed];

    /// The name used on the command line and in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SearchQ => "search_q",
            Workload::SearchP => "search_p",
            Workload::ServeMixed => "serve_mixed",
        }
    }
}

impl fmt::Display for Workload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed for every input the workload generates.
    pub seed: u64,
    /// Length of the timed phase, seconds.
    pub seconds: u64,
    /// Run the traced (per-layer) variant instead of the end-to-end one.
    pub trace: bool,
}

/// Usage text printed with every parse error.
pub const USAGE: &str = "usage: perfbench --workload <search_q|search_p|serve_mixed> \
                         --seed <u64> --seconds <1..=600> [--trace <0|1>]";

/// Parses the arguments after the program name.
///
/// # Errors
///
/// Returns a message naming the offending flag or value.
pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let slot_name = flag.as_str();
        let value = match slot_name {
            "--workload" | "--seed" | "--seconds" | "--trace" => it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?,
            _ => return Err(format!("unknown argument {flag:?}")),
        };
        let fresh = match slot_name {
            "--workload" => workload.replace(parse_workload(&value)?).is_none(),
            "--seed" => seed.replace(parse_u64(&flag, &value)?).is_none(),
            "--seconds" => {
                let s = parse_u64(&flag, &value)?;
                if !(1..=600).contains(&s) {
                    return Err(format!("--seconds must be in 1..=600, got {s}"));
                }
                seconds.replace(s).is_none()
            }
            _ => {
                let t = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                };
                trace.replace(t).is_none()
            }
        };
        if !fresh {
            return Err(format!("flag {flag} given twice"));
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn parse_workload(value: &str) -> Result<Workload, String> {
    Workload::ALL
        .into_iter()
        .find(|w| w.name() == value)
        .ok_or_else(|| format!("unknown workload {value:?}"))
}

fn parse_u64(flag: &str, value: &str) -> Result<u64, String> {
    value
        .parse::<u64>()
        .map_err(|e| format!("{flag} {value:?}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse(s.split_whitespace().map(String::from))
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = args("--workload search_p --seed 7 --seconds 12 --trace 1").unwrap();
        assert_eq!(
            a,
            Args {
                workload: Workload::SearchP,
                seed: 7,
                seconds: 12,
                trace: true
            }
        );
        let a = args("--seconds 5 --seed 3 --workload serve_mixed").unwrap();
        assert_eq!((a.workload, a.trace), (Workload::ServeMixed, false));
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        for bad in [
            "--workload search_q --sede 1",
            "--workload search_q --seed x1",
            "--workload search_q --seed -1",
            "--workload search_q --seed 1 --seconds 0",
            "--workload search_q --seed 1 --seconds 2.5",
            "--workload search_q --seed 1 --seconds 5 --trace yes",
            "--workload search_r --seed 1",
            "--workload search_q --seed 1 --seed 2",
            "--workload search_q --seed",
            "--workload=search_q --seed 1",
            "--seed 1",
            "--workload search_q",
            "--workload search_q --seed 1",
        ] {
            assert!(args(bad).is_err(), "accepted {bad:?}");
        }
    }
}
