//! # park-testkit
//!
//! Differential testing for the PARK engine, in three parts:
//!
//! * [`oracle`] — a deliberately slow, paper-literal reference
//!   implementation of `PARK(D, P)`: brute-force Γ over the active domain,
//!   always-cold Δ restarts, `incorp` spelled out. Audit it against
//!   PAPER.md, not against the engine.
//! * [`gen`] — a seeded generator of small, conflict-rich programs and
//!   databases ([`Case`]), with a line-oriented text format for the
//!   regression corpus (`tests/corpus/`).
//! * [`harness`] — the conformance check: every case runs through the
//!   engine's full matrix (both resolution scopes, under several
//!   `SELECT` policies) and every cell is compared against the oracle — byte-exact
//!   on ground programs, canonicalized on variable ones — plus a
//!   stratified-datalog cross-check on the insert-only fragment. Failures
//!   are shrunk by [`mod@minimize`].
//!
//! [`compare`] holds the shared fingerprint/transcript diff helpers, also
//! used by the engine identity suites and the CLI's end-to-end tests.
//! The entry point for humans is `park fuzz --seed N --cases K`; see
//! `docs/testing.md` for the workflow.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod gen;
pub mod harness;
pub mod minimize;
pub mod oracle;

pub use gen::{generate, generate_biased, Case, FuzzBias};
pub use harness::{
    check_case, check_case_parsed, check_case_with, run_fuzz, run_fuzz_biased, CaseStats,
    Divergence, EngineConfig, FuzzFailure, FuzzReport, POLICIES,
};
pub use minimize::{minimize, minimize_parsed};
pub use oracle::{evaluate as oracle_evaluate, OracleRun, OracleVariant};
pub use park_engine::refine::AnalysisVariant;
