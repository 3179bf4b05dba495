//! The differential driver.
//!
//! [`run_case`] pushes one [`Case`] through every layer of the stack and
//! cross-checks the results:
//!
//! 1. RAM references: `evaluate_pairwise` (ground truth), `generic_join`,
//!    the flat `yannakakis` baseline (acyclic queries), and
//!    `OutputSensitive::evaluate_ram` must all agree.
//! 2. The relational circuit [`choose_plan`] picks — the one `qec-serve`
//!    compiles — must match under its RAM interpreter, and so must the
//!    candidate it rejected (full CQs: PANDA-C or naive).
//! 3. The chosen circuit is lowered, structurally validated, checked for a
//!    flat-tape serialize/decode round-trip (netlist equality), then
//!    compiled and evaluated under every [`EngineOptions`] point in the
//!    sweep matrix; each decoded output must equal the RAM ground truth.
//! 4. Optionally the bit-level lowering and bit optimizer run under the
//!    structural validator as well, plus a bit-tape round-trip, a
//!    streaming-lowering parity check (a spill-forcing window must
//!    reproduce the in-memory lowering byte for byte), and the
//!    bitsliced `BitEngine`: every available kernel, recompiled under
//!    every matrix point, must reproduce per-instance
//!    `BitCircuit::evaluate` lane for lane on a random batch, and its
//!    word-level entry point must match the word interpreter.
//!
//! Any disagreement comes back as a [`Divergence`] naming the stage and
//! configuration, ready for the shrinker.

use crate::case::{Case, EngineOptions};
use qec_circuit::{
    compile_bits_with, decode_relation, lower_streamed, lower_with, optimize_bits_with,
    read_netlist, validate, validate_bits, write_netlist, BitEvalScratch, BitKernel, BitTape,
    Circuit, CompileOptions, CompiledCircuit, Mode, StreamOptions, WordTape,
};
use qec_core::{choose_plan, OutputSensitive, PlanKind, RelationalCircuit};
use qec_query::baseline::{evaluate_pairwise, generic_join, yannakakis};
use qec_relation::Relation;
use std::fmt;

/// Why a case failed. Every variant names the stage precisely enough to
/// replay by hand.
#[derive(Clone, Debug)]
pub enum Divergence {
    /// The harness itself could not set the case up (unparseable query,
    /// missing rows, …) — a generator or corpus bug, not an engine bug.
    Harness(String),
    /// Two RAM-level reference evaluators disagree.
    Baseline {
        /// Which reference broke ranks with `evaluate_pairwise`.
        family: &'static str,
        /// Human-readable got/want detail.
        detail: String,
    },
    /// A structural validator rejected a circuit.
    Validator {
        /// Pipeline stage that produced the rejected circuit.
        stage: &'static str,
        /// The validator's error.
        error: String,
    },
    /// Compilation or evaluation errored under one configuration.
    Engine {
        /// The failing configuration.
        options: EngineOptions,
        /// `compile` or `evaluate`.
        stage: &'static str,
        /// The engine's error.
        error: String,
    },
    /// The decoded circuit output differs from the RAM ground truth.
    Output {
        /// The failing configuration.
        options: EngineOptions,
        /// Decoded circuit output.
        got: String,
        /// RAM reference output.
        want: String,
    },
    /// The serving layer (plan cache + request coalescing) returned a
    /// result that differs from direct evaluation, or failed a request
    /// it should have served.
    Serve {
        /// What went wrong, including got/want digests on mismatch.
        detail: String,
    },
    /// The networked two-party GMW session diverged from the in-process
    /// batched reference or from plaintext evaluation, or errored where
    /// the reference did not.
    Mpc {
        /// What went wrong, including got/want digests on mismatch.
        detail: String,
    },
    /// A Datalog fixpoint stage diverged: provenance evaluation,
    /// compilation, or the circuit's RAM interpretation broke ranks
    /// with the semi-naive reference (engine-sweep mismatches reuse
    /// [`Divergence::Engine`]/[`Divergence::Output`]).
    Datalog {
        /// What went wrong, including got/want digests on mismatch.
        detail: String,
    },
}

impl Divergence {
    /// The engine configuration implicated, when the failure is tied to
    /// one; the shrinker pins replay to it.
    pub fn options(&self) -> Option<EngineOptions> {
        match self {
            Divergence::Engine { options, .. } | Divergence::Output { options, .. } => {
                Some(*options)
            }
            _ => None,
        }
    }

    /// True for real engine bugs (anything except a harness setup
    /// failure).
    pub fn is_real(&self) -> bool {
        !matches!(self, Divergence::Harness(_))
    }
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::Harness(msg) => write!(f, "harness error: {msg}"),
            Divergence::Baseline { family, detail } => {
                write!(f, "RAM baseline {family} disagrees: {detail}")
            }
            Divergence::Validator { stage, error } => {
                write!(f, "validator rejected {stage} circuit: {error}")
            }
            Divergence::Engine {
                options,
                stage,
                error,
            } => write!(f, "{stage} failed under {options:?}: {error}"),
            Divergence::Output { options, got, want } => {
                write!(
                    f,
                    "output mismatch under {options:?}: got {got}, want {want}"
                )
            }
            Divergence::Serve { detail } => {
                write!(f, "serving layer diverged from direct evaluation: {detail}")
            }
            Divergence::Mpc { detail } => {
                write!(f, "networked GMW session diverged: {detail}")
            }
            Divergence::Datalog { detail } => {
                write!(f, "Datalog fixpoint diverged: {detail}")
            }
        }
    }
}

impl std::error::Error for Divergence {}

/// Statistics from one passed case.
#[derive(Clone, Copy, Debug, Default)]
pub struct CaseOutcome {
    /// Engine configurations compiled and evaluated.
    pub configs: usize,
    /// Word-level gate count of the lowered circuit.
    pub word_gates: usize,
    /// Bit-level gate count, when the bit pipeline was checked.
    pub bit_gates: usize,
}

/// The sweep matrix for one case: optimizer {off, on} × tracing
/// {off, on} — four configurations.
pub fn options_matrix() -> Vec<EngineOptions> {
    let mut matrix = Vec::with_capacity(4);
    for optimize in [false, true] {
        for traced in [false, true] {
            matrix.push(EngineOptions { optimize, traced });
        }
    }
    matrix
}

/// Test-only miscompile injection: swaps the opcode of one gate (the
/// `index`-th swappable one, wrapping) so the acceptance check "an
/// injected miscompile is caught and shrunk" has a hook. Goes through
/// the public netlist round-trip on purpose — the mutated circuit is
/// re-parsed and so stays structurally well-formed; only its semantics
/// change, which is exactly what the differential layer must catch.
#[derive(Clone, Copy, Debug)]
pub struct Mutation {
    /// Index into the circuit's swappable gates (taken modulo their
    /// count).
    pub index: usize,
}

const OPCODE_SWAPS: [(&str, &str); 8] = [
    ("add", "sub"),
    ("sub", "add"),
    ("mul", "add"),
    ("eq", "lt"),
    ("lt", "eq"),
    ("and", "or"),
    ("or", "and"),
    ("xor", "or"),
];

/// Applies `m` to `c`; `None` when the circuit has no swappable gate.
pub fn mutate_circuit(c: &Circuit, m: &Mutation) -> Option<Circuit> {
    let text = write_netlist(c);
    let mut lines: Vec<String> = text.lines().map(str::to_string).collect();
    let mut candidates: Vec<(usize, &str)> = Vec::new();
    for (i, line) in lines.iter().enumerate().skip(1) {
        let mut toks = line.split_whitespace();
        let (Some(_id), Some(op)) = (toks.next(), toks.next()) else {
            continue;
        };
        if let Some(&(_, to)) = OPCODE_SWAPS.iter().find(|(from, _)| *from == op) {
            candidates.push((i, to));
        }
    }
    if candidates.is_empty() {
        return None;
    }
    let (line_idx, to) = candidates[m.index % candidates.len()];
    let mut parts: Vec<&str> = lines[line_idx].split_whitespace().collect();
    parts[1] = to;
    lines[line_idx] = parts.join(" ");
    let mutated = lines.join("\n") + "\n";
    read_netlist(&mutated).ok()
}

pub(crate) fn digest(r: &Relation) -> String {
    let rows: Vec<String> = r
        .rows()
        .iter()
        .map(|row| {
            let cells: Vec<String> = row.iter().map(u64::to_string).collect();
            format!("({})", cells.join(","))
        })
        .collect();
    format!("{:?}{{{}}}", r.schema(), rows.join(" "))
}

pub(crate) fn harness(msg: impl fmt::Display) -> Divergence {
    Divergence::Harness(msg.to_string())
}

/// Runs one case through the full differential stack.
///
/// `matrix` is the engine-option sweep; `mutation` optionally injects a
/// miscompile into the word circuit before the sweep; `check_bits` also
/// pushes the circuit through the bit-level lowering and optimizer under
/// the structural validator (markedly slower, so the fuzz loop samples
/// it); `check_serve` replays the case through the `qec-serve` batching
/// server (also sampled — it pays one extra canonical-plan compile) and
/// demands results identical to direct evaluation. `check_serve` is
/// skipped under a mutation: the server compiles from query source, so
/// an injected miscompile of the direct circuit is invisible to it by
/// construction.
pub fn run_case(
    case: &Case,
    matrix: &[EngineOptions],
    mutation: Option<&Mutation>,
    check_bits: bool,
    check_serve: bool,
) -> Result<CaseOutcome, Divergence> {
    let (cq, db, dc) = case.materialize().map_err(harness)?;

    // Stage 1: RAM references against ground truth.
    let expect = evaluate_pairwise(&cq, &db).map_err(harness)?;
    let gj = generic_join(&cq, &db).map_err(harness)?;
    if gj != expect {
        return Err(Divergence::Baseline {
            family: "generic-join",
            detail: format!("got {}, want {}", digest(&gj), digest(&expect)),
        });
    }
    if let Some(y) = yannakakis(&cq, &db).map_err(harness)? {
        if y != expect {
            return Err(Divergence::Baseline {
                family: "yannakakis",
                detail: format!("got {}, want {}", digest(&y), digest(&expect)),
            });
        }
    }
    if let Ok(os) = OutputSensitive::build(&cq, &dc, 8) {
        match os.evaluate_ram(&db) {
            Ok(r) if r != expect => {
                return Err(Divergence::Baseline {
                    family: "output-sensitive-ram",
                    detail: format!("got {}, want {}", digest(&r), digest(&expect)),
                });
            }
            Ok(_) => {}
            Err(e) => {
                return Err(Divergence::Baseline {
                    family: "output-sensitive-ram",
                    detail: format!("evaluation error: {e}"),
                });
            }
        }
    }

    // Stage 2: the served relational circuit and the candidate it beat,
    // RAM-interpreted.
    let chosen = choose_plan(&cq, &dc).map_err(harness)?;
    check_ram(chosen.kind, &chosen.rc, &db, &expect)?;
    if let Some((kind, rc)) = &chosen.rejected {
        check_ram(*kind, rc, &db, &expect)?;
    }
    let rc = chosen.rc;

    // Stage 3: lower to the word IR and validate it.
    let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());
    validate(&lowered.circuit).map_err(|e| Divergence::Validator {
        stage: "lower",
        error: e.to_string(),
    })?;

    // Stage 3b: flat-tape round-trip — encode the lowered word circuit
    // to an instruction tape, serialize, reload, decode, and demand the
    // exact same netlist back. This is the persistence contract: a tape
    // written today and decoded tomorrow is the circuit, not a
    // semantically-equivalent cousin.
    {
        let tape = WordTape::encode(&lowered.circuit).map_err(|e| Divergence::Validator {
            stage: "word-tape-roundtrip",
            error: format!("encode: {e}"),
        })?;
        let bytes = tape.to_bytes();
        let back = WordTape::from_bytes(&bytes)
            .and_then(|t| t.decode())
            .map_err(|e| Divergence::Validator {
                stage: "word-tape-roundtrip",
                error: format!("reload: {e}"),
            })?;
        if write_netlist(&back) != write_netlist(&lowered.circuit) {
            return Err(Divergence::Validator {
                stage: "word-tape-roundtrip",
                error: "decoded tape produced a different netlist".into(),
            });
        }
    }

    let circuit = match mutation {
        Some(m) => mutate_circuit(&lowered.circuit, m)
            .ok_or_else(|| harness("circuit has no swappable gate to mutate"))?,
        None => lowered.circuit.clone(),
    };
    let inputs = lowered.layout.values(&db).map_err(harness)?;

    // Stage 4: the engine-option sweep.
    let mut outcome = CaseOutcome {
        word_gates: circuit.size() as usize,
        ..CaseOutcome::default()
    };
    for opts in matrix {
        let co = opts.compile_options();
        let (engine, _report) =
            CompiledCircuit::compile_with(&circuit, &co).map_err(|e| Divergence::Engine {
                options: *opts,
                stage: "compile",
                error: e.to_string(),
            })?;
        let raw = engine.evaluate(&inputs).map_err(|e| Divergence::Engine {
            options: *opts,
            stage: "evaluate",
            error: e.to_string(),
        })?;
        for (schema, start, len) in &lowered.outputs {
            let got = decode_relation(schema, &raw[*start..*start + *len]);
            if got != expect {
                return Err(Divergence::Output {
                    options: *opts,
                    got: digest(&got),
                    want: digest(&expect),
                });
            }
        }
        outcome.configs += 1;
    }

    // Stage 4b (sampled): the serving layer. The case goes through the
    // whole serve path — canonicalization, plan cache, capacity
    // bucketing, request coalescing — three times concurrently against
    // one server, and every response must be bit-identical to the RAM
    // ground truth. This is the "coalescing never changes answers"
    // contract, and because the plan is compiled at the *bucketed*
    // capacity it also checks that padding to a larger capacity leaves
    // the decoded relation untouched.
    if check_serve && mutation.is_none() {
        check_serve_stage(case, &expect)?;
    }

    // Stage 5 (sampled): bit-level lowering + optimizer under the
    // structural validator.
    if check_bits {
        let bits = lower_with(&circuit, 64, &CompileOptions::sequential());
        validate_bits(&bits).map_err(|e| Divergence::Validator {
            stage: "bit-lower",
            error: e.to_string(),
        })?;
        let (opt_bits, _) = optimize_bits_with(&bits, &CompileOptions::sequential());
        validate_bits(&opt_bits).map_err(|e| Divergence::Validator {
            stage: "bit-optimize",
            error: e.to_string(),
        })?;
        outcome.bit_gates = opt_bits.gates().len();

        // Stage 5b: bit-tape round-trip, same contract as the word tape.
        let tape = BitTape::encode(&bits);
        let back = BitTape::from_bytes(&tape.to_bytes())
            .and_then(|t| t.decode())
            .map_err(|e| Divergence::Validator {
                stage: "bit-tape-roundtrip",
                error: format!("reload: {e}"),
            })?;
        if back.gates() != bits.gates()
            || back.outputs() != bits.outputs()
            || back.num_inputs() != bits.num_inputs()
        {
            return Err(Divergence::Validator {
                stage: "bit-tape-roundtrip",
                error: "decoded tape produced a different bit circuit".into(),
            });
        }

        // Stage 5c: streaming lowering under an aggressively small window
        // (forcing spills on any non-trivial case) must be byte-identical
        // to the in-memory lowering.
        let stream_opts = StreamOptions {
            chunk_words: 64,
            window_chunks: 1,
            spill_dir: None,
        };
        let (streamed, _stats) =
            lower_streamed(&circuit, 64, &stream_opts).map_err(|e| Divergence::Validator {
                stage: "streaming-lowering-parity",
                error: format!("lower_streamed: {e}"),
            })?;
        let streamed = streamed.decode().map_err(|e| Divergence::Validator {
            stage: "streaming-lowering-parity",
            error: format!("decode: {e}"),
        })?;
        if streamed.gates() != bits.gates()
            || streamed.outputs() != bits.outputs()
            || streamed.num_inputs() != bits.num_inputs()
        {
            return Err(Divergence::Validator {
                stage: "streaming-lowering-parity",
                error: "streamed lowering diverged from in-memory lowering".into(),
            });
        }

        // Stage 5d: the bitsliced BitEngine, riding the options matrix.
        // Reference once: the interpreter per instance (scratch-buffered)
        // over the case's real input plus a word-boundary-straddling
        // random batch; then every matrix point recompiles the tape under
        // its CompileOptions and every available kernel must reproduce
        // the reference lane for lane. The word-level entry point must
        // also match the word interpreter (itself already cross-checked
        // against the engine sweep above).
        let mut brng = crate::rng::Rng::new(case.seed ^ 0xb17_e461);
        let mut instances: Vec<Vec<bool>> = vec![bits.pack_inputs(&inputs)];
        instances.extend((0..67).map(|_| {
            (0..bits.num_inputs())
                .map(|_| brng.next_u64() & 1 == 1)
                .collect::<Vec<bool>>()
        }));
        let mut scratch = BitEvalScratch::default();
        let reference: Vec<_> = instances
            .iter()
            .map(|inst| bits.evaluate_with(inst, &mut scratch).map(<[bool]>::to_vec))
            .collect();
        let word_want = circuit
            .evaluate(&inputs)
            .map_err(|e| Divergence::Validator {
                stage: "bitengine-batch",
                error: format!("word interpreter rejected the case input: {e}"),
            })?;
        for opts in matrix {
            let co = opts.compile_options();
            let (eng, _report) =
                compile_bits_with(&bits, &co).map_err(|e| Divergence::Validator {
                    stage: "bitengine-batch",
                    error: format!("compile ({opts:?}): {e}"),
                })?;
            let mut bscratch = eng.scratch();
            for kernel in BitKernel::available() {
                let got = eng.evaluate_batch_kernel(&instances, kernel, &mut bscratch);
                if got != reference {
                    let lane = got
                        .iter()
                        .zip(&reference)
                        .position(|(g, r)| g != r)
                        .unwrap_or(0);
                    return Err(Divergence::Validator {
                        stage: "bitengine-batch",
                        error: format!(
                            "kernel {} ({opts:?}) diverged from BitCircuit::evaluate at lane {lane}",
                            kernel.name()
                        ),
                    });
                }
            }
            match eng.evaluate_words(std::slice::from_ref(&inputs)).remove(0) {
                Ok(words) if words == word_want => {}
                got => {
                    return Err(Divergence::Validator {
                        stage: "bitengine-words",
                        error: format!(
                            "evaluate_words ({opts:?}) diverged from the word interpreter: \
                             got {got:?}, want {word_want:?}"
                        ),
                    });
                }
            }
        }

        // Stage 5e: the networked two-party GMW session. Two `Session`s
        // wired through a `Duplex` pair on the round-optimal gmw
        // schedule must reproduce the in-process batched reference
        // (`evaluate_shared_batch`) result for result — including which
        // instances fail which assertions — and match plaintext
        // wherever the reference succeeds, at exactly one message per
        // AND-bearing level.
        {
            use qec_mpc::{evaluate_shared_batch, share_instances, Duplex, PackedDealer};
            let eng = qec_circuit::CompiledBitCircuit::compile_gmw(&bits);
            let batch: Vec<Vec<bool>> = instances[..3].to_vec();
            let steps = eng.stats().and_ops as usize;
            let (s0, s1) = share_instances(&batch, case.seed ^ 0x6a3);
            let dealer = PackedDealer::new(steps, 1, case.seed ^ 0x15e);
            let (want, _) =
                evaluate_shared_batch(&eng, &s0, &s1, &dealer).map_err(|e| Divergence::Mpc {
                    detail: format!("in-process reference failed: {e}"),
                })?;
            let (t0, t1) = PackedDealer::new(steps, 1, case.seed ^ 0x15e).split();
            let (d0, d1) = Duplex::pair();
            let (o0, o1) = std::thread::scope(|scope| {
                let eng = &eng;
                let (s1ref, t1m, d1m) = (&s1, t1, d1);
                let h = scope.spawn(move || {
                    qec_mpc::Session::new(eng, qec_mpc::Role::P1, d1m, t1m)
                        .with_words(1)
                        .run(s1ref)
                });
                let o0 = qec_mpc::Session::new(eng, qec_mpc::Role::P0, d0, t0)
                    .with_words(1)
                    .run(&s0);
                (o0, h.join().expect("P1 session thread"))
            });
            let o0 = o0.map_err(|e| Divergence::Mpc {
                detail: format!("party 0 session failed: {e}"),
            })?;
            let o1 = o1.map_err(|e| Divergence::Mpc {
                detail: format!("party 1 session failed: {e}"),
            })?;
            for (party, o) in [(0, &o0), (1, &o1)] {
                if o.results != want {
                    return Err(Divergence::Mpc {
                        detail: format!(
                            "party {party} session results differ from evaluate_shared_batch: \
                             got {:?}, want {want:?}",
                            o.results
                        ),
                    });
                }
                if o.stats.rounds != eng.stats().and_levels as u64 {
                    return Err(Divergence::Mpc {
                        detail: format!(
                            "party {party} used {} rounds for {} AND levels",
                            o.stats.rounds,
                            eng.stats().and_levels
                        ),
                    });
                }
            }
            for (i, want_plain) in reference.iter().take(batch.len()).enumerate() {
                match (want_plain, &o0.results[i]) {
                    (Ok(p), Ok(got)) if got == p => {}
                    (Ok(p), got) => {
                        return Err(Divergence::Mpc {
                            detail: format!(
                                "instance {i}: session got {got:?}, plaintext wants Ok({p:?})"
                            ),
                        });
                    }
                    (Err(_), Err(qec_mpc::MpcError::AssertionFailed(_))) => {}
                    (Err(e), got) => {
                        return Err(Divergence::Mpc {
                            detail: format!(
                                "instance {i}: plaintext rejects with {e} but session got {got:?}"
                            ),
                        });
                    }
                }
            }
        }
    }

    Ok(outcome)
}

/// RAM-interprets one candidate plan against the ground truth.
fn check_ram(
    kind: PlanKind,
    rc: &RelationalCircuit,
    db: &qec_relation::Database,
    expect: &Relation,
) -> Result<(), Divergence> {
    let family = match kind {
        PlanKind::Naive => "naive-ram",
        PlanKind::PandaC => "panda-c-ram",
    };
    let ram = rc.evaluate_ram(db).map_err(|e| Divergence::Baseline {
        family,
        detail: format!("evaluation error: {e}"),
    })?;
    if ram.len() != 1 || ram[0] != *expect {
        let got = ram.first().map(digest).unwrap_or_else(|| "<none>".into());
        return Err(Divergence::Baseline {
            family,
            detail: format!("got {got}, want {}", digest(expect)),
        });
    }
    Ok(())
}

/// Replays `case` through a coalescing [`qec_serve::Server`] and
/// compares every response against `expect`.
fn check_serve_stage(case: &Case, expect: &Relation) -> Result<(), Divergence> {
    let mut server = qec_serve::Server::start(qec_serve::ServerConfig {
        workers: 2,
        max_batch: 8,
        flush: std::time::Duration::from_millis(2),
        coalesce: true,
        ..qec_serve::ServerConfig::default()
    });
    let request = qec_serve::Request {
        tenant: "differ".into(),
        query: case.query.clone(),
        n: case.n,
        rels: case.rels.clone(),
    };
    let tickets: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(request.clone())
                .map_err(|e| Divergence::Serve {
                    detail: format!("submit {i} rejected: {e}"),
                })
        })
        .collect::<Result<_, _>>()?;
    for (i, ticket) in tickets.into_iter().enumerate() {
        let resp = ticket.wait().map_err(|e| Divergence::Serve {
            detail: format!("request {i} failed: {e}"),
        })?;
        for rel in &resp.relations {
            if rel != expect {
                return Err(Divergence::Serve {
                    detail: format!(
                        "request {i} (batch of {}): got {}, want {}",
                        resp.batch_size,
                        digest(rel),
                        digest(expect)
                    ),
                });
            }
        }
    }
    server.shutdown();
    Ok(())
}

/// Aggregate result of a fuzz sweep.
#[derive(Debug, Default)]
pub struct FuzzSummary {
    /// Cases that passed the full matrix.
    pub cases_passed: usize,
    /// Engine configurations compiled+evaluated across all cases.
    pub configs: usize,
    /// Total word gates across lowered circuits (a work proxy).
    pub word_gates: usize,
    /// Datalog fixpoint cases that passed (interleaved sampling).
    pub datalog_passed: usize,
    /// The first failing case, if any, with its divergence.
    pub failure: Option<(Case, Divergence)>,
    /// The first failing Datalog case, if any, with its divergence.
    /// Datalog cases have no shrinker; the serialized case replays it.
    pub datalog_failure: Option<(crate::datalog::DatalogCase, Divergence)>,
}

/// Runs `cases` generated cases starting at `seed`, stopping at the
/// first divergence. Every `bits_every`-th case (0 disables) also runs
/// the bit-level pipeline checks; every `datalog_every`-th case (0
/// disables) additionally pushes a seeded recursive-Datalog fixpoint
/// case through [`crate::datalog::run_datalog_case`].
pub fn fuzz_many(seed: u64, cases: usize, bits_every: usize, datalog_every: usize) -> FuzzSummary {
    let mut summary = FuzzSummary::default();
    for i in 0..cases {
        let case_seed = seed.wrapping_add(i as u64);
        let matrix = options_matrix();
        if datalog_every != 0 && i % datalog_every == 0 {
            let dcase = crate::datalog::gen_datalog_case(case_seed);
            match crate::datalog::run_datalog_case(&dcase, &matrix) {
                Ok(o) => {
                    summary.datalog_passed += 1;
                    summary.configs += o.configs;
                    summary.word_gates += o.word_gates;
                }
                Err(d) => {
                    summary.datalog_failure = Some((dcase, d));
                    break;
                }
            }
        }
        let case = crate::gen::gen_case(case_seed);
        let check_bits = bits_every != 0 && i % bits_every == 0;
        // The serve stage rides the same sampling cadence: both pay an
        // extra compile, and both are configuration-independent checks.
        match run_case(&case, &matrix, None, check_bits, check_bits) {
            Ok(o) => {
                summary.cases_passed += 1;
                summary.configs += o.configs;
                summary.word_gates += o.word_gates;
            }
            Err(d) => {
                summary.failure = Some((case, d));
                break;
            }
        }
    }
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::EngineOptions;

    #[test]
    fn matrix_has_four_distinct_points() {
        let m = options_matrix();
        assert_eq!(m.len(), 4);
        for (i, a) in m.iter().enumerate() {
            for b in &m[i + 1..] {
                assert_ne!(a, b);
            }
        }
        assert!(m.iter().any(|o| o.optimize));
        assert!(m.iter().any(|o| o.traced));
    }

    #[test]
    fn a_known_good_case_passes_the_full_matrix() {
        let case = crate::gen::gen_case(11);
        let matrix = options_matrix();
        let outcome = run_case(&case, &matrix, None, true, true).unwrap();
        assert_eq!(outcome.configs, 4);
        assert!(outcome.word_gates > 0);
        assert!(outcome.bit_gates > 0);
    }

    #[test]
    fn mutation_produces_a_structurally_valid_different_circuit() {
        let case = crate::gen::gen_case(5);
        let (cq, _db, dc) = case.materialize().unwrap();
        let (rc, _) = qec_core::naive_circuit(&cq, &dc).unwrap();
        let lowered = rc.lower_with(Mode::Build, &CompileOptions::sequential());
        let mutated = mutate_circuit(&lowered.circuit, &Mutation { index: 0 }).unwrap();
        assert!(validate(&mutated).is_ok());
        assert_ne!(
            write_netlist(&mutated),
            write_netlist(&lowered.circuit),
            "mutation must change the netlist"
        );
    }

    #[test]
    fn divergence_reports_carry_the_failing_options() {
        let opts = EngineOptions {
            optimize: true,
            traced: false,
        };
        let d = Divergence::Output {
            options: opts,
            got: "g".into(),
            want: "w".into(),
        };
        assert_eq!(d.options(), Some(opts));
        assert!(d.is_real());
        assert!(!Divergence::Harness("x".into()).is_real());
    }
}
