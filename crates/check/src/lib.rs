//! Differential fuzzing and validation harness for the circuit
//! pipeline.
//!
//! The paper's central claim is an *equivalence*: the circuits of
//! Sec. 4–6 compute exactly what the RAM-model algorithms compute,
//! within the stated size/depth budgets. This crate tests the
//! reproduction's side of that equivalence end to end:
//!
//! * [`gen`] samples seeded random conjunctive queries with matching
//!   random instances under uniform degree constraints;
//! * [`differ`] compiles each query through the full pipeline under a
//!   matrix of [`CompileOptions`](qec_circuit::CompileOptions) points
//!   (optimizer on/off × tracing on/off) and insists every
//!   decoded circuit output equals the RAM references, with the
//!   structural validators ([`qec_circuit::validate`],
//!   [`qec_circuit::validate_bits`]) armed after every stage;
//! * [`shrink`] delta-debugs a divergent case down to a minimal
//!   replayable fragment;
//! * [`corpus`] serializes cases as small text files under
//!   `tests/corpus/` so every past failure becomes a permanent
//!   regression test.
//!
//! The `fuzz` binary drives the loop from CI; experiment X19 reports
//! throughput (cases/sec) and the divergence count.

pub mod case;
pub mod corpus;
pub mod datalog;
pub mod differ;
pub mod gen;
pub mod rng;
pub mod shrink;

pub use case::{Case, EngineOptions};
pub use corpus::{format_case, load_corpus, parse_case};
pub use datalog::{
    format_datalog_case, gen_datalog_case, load_datalog_corpus, parse_datalog_case,
    run_datalog_case, DatalogCase, DatalogOutcome,
};
pub use differ::{
    fuzz_many, mutate_circuit, options_matrix, run_case, CaseOutcome, Divergence, FuzzSummary,
    Mutation,
};
pub use gen::gen_case;
pub use rng::Rng;
pub use shrink::shrink_case;

/// Replays a corpus case through the full differential matrix; the
/// case's own recorded configuration is one of the [`options_matrix`]
/// points.
pub fn replay(case: &Case) -> Result<CaseOutcome, Divergence> {
    differ::run_case(case, &options_matrix(), None, true, true)
}
