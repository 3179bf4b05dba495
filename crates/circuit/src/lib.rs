//! Oblivious word-level circuits and the paper's operator circuits
//! (Sec. 4.1, Sec. 5, Sec. 6.3).
//!
//! The paper's circuits carry tuples on wires and apply "standard
//! operations" gate-by-gate, ignoring `poly(log N, log u)` factors between
//! Boolean and arithmetic circuits (Sec. 4.1). We model this faithfully
//! with a **word-level** circuit: each wire carries a `u64`, each gate is a
//! constant-fan-in word operation (add, compare, mux, …). A further
//! **bit-level lowering** ([`lower`]) maps word gates to AND/XOR/NOT gates
//! for applications that need Boolean gate counts (garbled circuits, GMW);
//! `qec-mpc` evaluates those lowered circuits under secret sharing.
//!
//! Obliviousness is structural: the circuit topology depends only on the
//! declared capacities (the degree constraints), never on data. Relations
//! travel as fixed-capacity slot arrays with a validity flag per slot
//! (the paper's *dummy tuples*, Sec. 5).
//!
//! Implemented operator circuits, each matching its reference in the
//! paper:
//!
//! | circuit | paper | size | depth |
//! |---|---|---|---|
//! | `⊕`-scan / segmented scan | Alg. 4, Sec. 5.1 | `Õ(K)` | `Õ(1)` |
//! | bitonic sort ([`sort_slots`]) | Sec. 5 (sorting networks) | `O(K log² K)` | `O(log² K)` |
//! | selection ([`select`]) | Sec. 5 | `Õ(K)` | `Õ(1)` |
//! | projection ([`project`]) | Alg. 3 | `Õ(K)` | `Õ(1)` |
//! | aggregation ([`aggregate`]) | Alg. 5 | `Õ(K)` | `Õ(1)` |
//! | union ([`union`]) | Sec. 5 | `Õ(K+L)` | `Õ(1)` |
//! | truncation ([`truncate`]) | Sec. 5.3 | `Õ(K)` | `Õ(1)` |
//! | primary-key join ([`join_pk`]) | Alg. 6, Fig. 3 | `Õ(M+N')` | `Õ(1)` |
//! | degree-bounded join ([`join_degree_bounded`]) | Alg. 7, Fig. 4 | `Õ(MN+N')` | `Õ(1)` |
//! | decomposition ([`decompose`]) | Alg. 2 | `Õ(N)` | `Õ(1)` |
//! | output-bounded join ([`join_output_bounded`]) | Alg. 10 | `Õ(M+N+OUT)` | `Õ(1)` |

pub mod bitengine;
mod decompose;
pub mod driver;
mod engine;
mod ir;
mod join;
mod join_out;
pub mod lower;
mod netlist;
mod ops;
pub mod opt;
mod prov;
mod rel;
mod scan;
mod schedule;
mod sort;
pub mod tape;
pub mod validate;

pub use bitengine::{
    compile_bits_with, pack_instances, unpack_outputs, BitEngineStats, BitKernel, BitOp, BitReg,
    BitScratch, CompiledBitCircuit,
};
pub use decompose::{decompose, DecomposedPart};
pub use driver::{CompileOptions, PipelineReport};
pub use engine::{CompiledCircuit, EngineStats, EvalMetrics, GATE_KINDS};
pub use ir::{Builder, Circuit, EvalError, Gate, Mode, WireId};
pub use join::{join_degree_bounded, join_pk, semijoin};
pub use join_out::join_output_bounded;
pub use lower::{lower_with, optimize_bits_with, BitCircuit, BitEvalScratch, BitOptStats};
pub use netlist::{read_netlist, write_netlist, NetlistError};
pub use ops::{aggregate, project, select, truncate, union, AggOp};
pub use opt::{optimize_with, OptStats};
pub use prov::{ProvCircuit, ProvId, ProvNode};
pub use rel::{
    decode_relation, encode_database, encode_relation, relation_to_values, InputLayout, RelWires,
    SlotWires,
};
pub use scan::{scan, segmented_scan};
pub use schedule::{brent_steps, evaluate_levelized, level_widths};
pub use sort::{sort_slots, sort_slots_network, SortKey, SortNetwork};
pub use tape::{fnv1a64, lower_streamed, BitTape, StreamOptions, StreamStats, TapeError, WordTape};
pub use validate::{
    validate, validate_bit_tape, validate_bits, validate_opt, validate_word_tape, ValidateError,
};
