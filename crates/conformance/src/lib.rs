//! Conformance subsystem for the FlexTensor reproduction: seeded schedule
//! fuzzing, differential oracles, and a shrinking regression corpus.
//!
//! The pipeline, end to end:
//!
//! 1. [`gen`] produces configs: valid points via the schedule space's
//!    divisor-aware sampler, and *near-invalid mutants* — valid configs
//!    with exactly one field corrupted.
//! 2. [`oracle`] checks every point against the differential tiers:
//!    structural (validate/encode/decode round-trips, split invariants,
//!    mutants rejected), semantic (scheduled interpreter vs.
//!    `interp::reference` on small shapes), model (CPU/GPU/FPGA costs
//!    finite, positive, and invariant to the number of eval workers),
//!    analyzer (`flextensor-analyze` static verdicts agree with the cost
//!    models and the interpreter), and store (tuning records survive the
//!    persistence loop).
//! 3. [`shrink`](mod@shrink) greedily minimizes any failing config per field until
//!    every remaining non-naive field is load-bearing.
//! 4. [`corpus`] stores shrunk cases as JSON fixtures that replay as
//!    ordinary `cargo test` (see `tests/corpus_replay.rs`).
//! 5. [`fuzz`](mod@fuzz) ties it together into a deterministic loop: one
//!    `(seed, iters)` pair names an exact workload with a byte-stable
//!    report — the `probe_conformance` binary exposes it on the CLI.
//!
//! See `docs/CONFORMANCE.md` for the operational guide.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod audit;
pub mod corpus;
pub mod fuzz;
pub mod gen;
pub mod oracle;
pub mod shrink;

pub use audit::{audit_corpus, audit_fixture, AuditEntry, AuditReport};
pub use corpus::{load_corpus, seed_corpus, Expectation, Fixture};
pub use fuzz::{fuzz, FuzzOptions, FuzzReport, Violation};
pub use gen::{mutate, Mutation, ALL_MUTATIONS};
pub use oracle::{
    check_analyzer, check_model, check_mutant_rejected, check_semantic, check_structural,
    check_worker_invariance, oracle_devices, Tier, SEMANTIC_TOL,
};
pub use shrink::shrink;
