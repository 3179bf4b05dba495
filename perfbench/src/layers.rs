//! The layer walk: compiles one plan key by calling each crate's public
//! functions in the order `qec_serve` calls them on a cache miss, with a
//! span around every call. The spans give per-layer wall and self time;
//! the returned counts give each layer's output size.
//!
//! Layers and the calls timed:
//!
//! | span | call |
//! |---|---|
//! | `query.parse` | `qec_query::parse_cq` / `DatalogProgram::parse` |
//! | `query.canonicalize` | `qec_query::canonicalize` / `Program::canonical_text` |
//! | `core.plan` | `qec_core::naive_circuit` / `qec_datalog::compile` |
//! | `core.panda_plan` | `qec_core::compile_fcq` (full CQs only) |
//! | `core.panda_count` | PANDA-C lowering in `Mode::Count` (full CQs only) |
//! | `entropy.bound` | `qec_entropy::polymatroid_bound` (CQs only) |
//! | `entropy.proof` | `qec_entropy::prove_bound` (CQs only) |
//! | `circuit.build` | `RelationalCircuit::lower_with(Mode::Build)` |
//! | `circuit.tape_encode` | `WordTape::encode` + `to_bytes` |
//! | `circuit.compile` | `CompiledCircuit::compile_with`, split into its |
//! | `circuit.optimize`, `circuit.tape` | two `PipelineReport` stages |

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qec_circuit::{CompileOptions, CompiledCircuit, Mode, WordTape};
use qec_core::{compile_fcq, naive_circuit, RelationalCircuit};
use qec_datalog::{DatalogProgram, FixpointBounds};
use qec_query::{canonicalize, parse_cq};
use qec_relation::{DcSet, DegreeConstraint, Var};
use qec_serve::bucket_n;

use crate::trace::Tracer;
use crate::Report;

/// Per-layer counts, summed over the keys walked.
pub type Counts = BTreeMap<&'static str, f64>;

/// A plan compiled by the walk, for direct engine timing.
pub struct WalkedPlan {
    pub engine: CompiledCircuit,
    pub layout: qec_circuit::InputLayout,
    pub outputs: Vec<(Vec<Var>, usize, usize)>,
}

/// What one key is: a conjunctive query or a Datalog program, as text.
#[derive(Clone, Copy, Debug)]
pub enum Source<'a> {
    Cq(&'a str),
    Datalog(&'a str),
}

fn add(counts: &mut Counts, name: &'static str, v: f64) {
    *counts.entry(name).or_insert(0.0) += v;
}

/// Walks one key at capacity `n`, recording spans under `parent`.
pub fn walk(
    tr: &Tracer,
    parent: u64,
    req: u64,
    src: Source,
    n: u64,
    counts: &mut Counts,
) -> WalkedPlan {
    let opts = CompileOptions::sequential();
    let n = bucket_n(n);
    let rc: RelationalCircuit = match src {
        Source::Cq(text) => {
            let (cq, _) = tr.span("query.parse", parent, req, |_| {
                parse_cq(text).expect("benchmark query parses")
            });
            let (canon, _) = tr.span("query.canonicalize", parent, req, |_| canonicalize(&cq));
            let q = &canon.cq;
            let dcs = DcSet::from_vec(
                q.atoms
                    .iter()
                    .map(|a| DegreeConstraint::cardinality(a.vars, n))
                    .collect(),
            );
            tr.span("entropy.bound", parent, req, |_| {
                qec_entropy::polymatroid_bound(q.num_vars(), &dcs, q.all_vars())
                    .expect("bound LP solves")
            });
            tr.span("entropy.proof", parent, req, |_| {
                qec_entropy::prove_bound(q.num_vars(), &dcs, q.all_vars(), None)
                    .expect("proof sequence exists")
            });
            if q.is_full() {
                let (panda, _) = tr.span("core.panda_plan", parent, req, |_| {
                    compile_fcq(q, &dcs).expect("PANDA-C compiles")
                });
                let (gates, _) = tr.span("core.panda_count", parent, req, |_| {
                    panda.rc.lower_with(Mode::Count, &opts).circuit.size()
                });
                add(counts, "core.panda_word_gates", gates as f64);
            }
            let ((rc, _root), _) = tr.span("core.plan", parent, req, |_| {
                naive_circuit(q, &dcs).expect("naive plan builds")
            });
            rc
        }
        Source::Datalog(text) => {
            let (dp, _) = tr.span("query.parse", parent, req, |_| {
                DatalogProgram::parse(text).expect("benchmark program parses")
            });
            tr.span("query.canonicalize", parent, req, |_| {
                dp.program.canonical_text()
            });
            let (fx, _) = tr.span("core.plan", parent, req, |_| {
                qec_datalog::compile(&dp, &FixpointBounds::for_domain(n, n))
                    .expect("fixpoint plan builds")
            });
            fx.rc
        }
    };
    add(counts, "core.rel_nodes", rc.nodes.len() as f64);

    let (lowered, _) = tr.span("circuit.build", parent, req, |_| {
        rc.lower_with(Mode::Build, &opts)
    });
    add(counts, "circuit.word_gates", lowered.circuit.size() as f64);
    add(counts, "circuit.word_depth", lowered.circuit.depth() as f64);
    let (bytes, _) = tr.span("circuit.tape_encode", parent, req, |_| {
        WordTape::encode(&lowered.circuit)
            .expect("tape encodes")
            .to_bytes()
            .len()
    });
    add(counts, "circuit.plan_kib", bytes as f64 / 1024.0);

    let compile_id = tr.next_id();
    let t0 = Instant::now();
    let (engine, report) =
        CompiledCircuit::compile_with(&lowered.circuit, &opts).expect("engine compiles");
    let t1 = Instant::now();
    tr.record_as(compile_id, "circuit.compile", parent, req, t0, t1);
    // The report carries stage durations, not start times; the stages
    // run back to back from the start of the call.
    let opt_end = t0 + Duration::from_nanos(report.stage_ns("optimize"));
    tr.record("circuit.optimize", compile_id, req, t0, opt_end);
    tr.record(
        "circuit.tape",
        compile_id,
        req,
        opt_end,
        opt_end + Duration::from_nanos(report.stage_ns("tape")),
    );
    let st = engine.stats();
    add(counts, "circuit.opt_word_gates", st.optimized_size as f64);
    add(counts, "engine.tape_len", st.tape_len as f64);
    add(counts, "engine.peak_registers", st.peak_registers as f64);
    WalkedPlan {
        engine,
        layout: lowered.layout,
        outputs: lowered.outputs,
    }
}

/// Copies the walk's per-layer times and counts into the report: sums
/// over the keys walked, in ms, except the `_us` per-call means.
pub fn report_walk(rep: &mut Report, tr: &Tracer, counts: &Counts) {
    let lt = tr.layer_times();
    let ms = |name: &str| lt.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
    let us_per = |name: &str| lt.get(name).map_or(0.0, |t| t.self_ms_per() * 1e3);
    rep.layer("query.parse_us", us_per("query.parse"));
    rep.layer("query.canonicalize_us", us_per("query.canonicalize"));
    rep.layer("core.plan_ms", ms("core.plan"));
    rep.layer("core.panda_plan_ms", ms("core.panda_plan"));
    rep.layer("entropy.bound_ms", ms("entropy.bound"));
    rep.layer("entropy.proof_ms", ms("entropy.proof"));
    rep.layer("circuit.build_ms", ms("circuit.build"));
    rep.layer("circuit.optimize_ms", ms("circuit.optimize"));
    rep.layer("circuit.tape_ms", ms("circuit.tape"));
    rep.layer("circuit.tape_encode_ms", ms("circuit.tape_encode"));
    for (&name, &v) in counts {
        rep.layer(name, v);
    }
}
