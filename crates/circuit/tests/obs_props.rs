//! Property tests pinning the observability layer to zero behavioral
//! footprint: compiling with tracing enabled (an enabled `Recorder`, or
//! `collect_metrics`) must produce **byte-identical** results — gate
//! lists, outputs, `OptStats` (including `assert_origin` and the
//! per-pass `phase_gates` breakdown), and per-instance evaluation
//! outcomes — to the untraced compile. The exporter round-trip tests validate that both output
//! formats (the versioned metrics document and the Chrome trace-event
//! document) are well-formed JSON carrying the recorded spans.

use proptest::prelude::*;
use qec_circuit::{
    lower_with, optimize_bits_with, optimize_with, Builder, Circuit, CompileOptions,
    CompiledCircuit, Mode,
};
use qec_obs::Recorder;

/// Raw material for one random gate: kind selector plus operand seeds,
/// reduced modulo the live wire count at build time.
type GateSeed = (u8, u32, u32, u32, u64);

/// Emits one random gate into `b`, drawing operands from `wires`.
fn emit_seed(
    b: &mut Builder,
    wires: &[qec_circuit::WireId],
    seed: GateSeed,
) -> Option<qec_circuit::WireId> {
    let (kind, a, bb, s, v) = seed;
    let pick = |x: u32| wires[x as usize % wires.len()];
    let (wa, wb, ws) = (pick(a), pick(bb), pick(s));
    Some(match kind % 13 {
        0 => b.add(wa, wb),
        1 => b.sub(wa, wb),
        2 => b.mul(wa, wb),
        3 => b.eq(wa, wb),
        4 => b.lt(wa, wb),
        5 => b.and(wa, wb),
        6 => b.or(wa, wb),
        7 => b.xor(wa, wb),
        8 => b.not(wa),
        9 => b.mux(ws, wa, wb),
        10 => b.constant(v),
        11 | 12 => {
            let c = b.constant(v & 0x7);
            let e = b.eq(wa, c);
            b.assert_zero(e); // fires when wa == v & 7
            return None;
        }
        _ => unreachable!(),
    })
}

/// Sequentially builds a random DAG without hash-consing (maximally raw
/// material for the optimizer passes).
fn build_random(num_inputs: usize, seeds: &[GateSeed]) -> Circuit {
    let mut b = Builder::without_cse(Mode::Build);
    let mut wires: Vec<_> = (0..num_inputs).map(|_| b.input()).collect();
    for &seed in seeds {
        if let Some(w) = emit_seed(&mut b, &wires, seed) {
            wires.push(w);
        }
    }
    let outputs: Vec<_> = wires
        .iter()
        .copied()
        .step_by(3)
        .chain(wires.last().copied())
        .collect();
    b.finish(outputs)
}

fn assert_same_circuit(plain: &Circuit, traced: &Circuit, tag: &str) -> Result<(), TestCaseError> {
    prop_assert_eq!(plain.gates(), traced.gates(), "{}: gate lists diverge", tag);
    prop_assert_eq!(
        plain.outputs(),
        traced.outputs(),
        "{}: outputs diverge",
        tag
    );
    prop_assert_eq!(plain.size(), traced.size(), "{}", tag);
    prop_assert_eq!(plain.depth(), traced.depth(), "{}", tag);
    Ok(())
}

/// The traced variants under test: a caller-supplied enabled recorder,
/// and the `collect_metrics` substitute recorder.
fn traced_variants(base: &CompileOptions) -> Vec<(&'static str, CompileOptions)> {
    vec![
        ("recorder", base.clone().with_recorder(Recorder::new(true))),
        ("collect_metrics", base.clone().with_metrics(true)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tracing changes nothing observable: every pipeline stage yields
    /// byte-identical artifacts with and without an enabled recorder.
    #[test]
    fn tracing_is_behaviorally_invisible(
        num_inputs in 1usize..6,
        seeds in prop::collection::vec(any::<GateSeed>(), 8..64),
        raw_instances in prop::collection::vec(
            prop::collection::vec(0u64..16, 0..8), 1..5),
    ) {
        let instances: Vec<Vec<u64>> = raw_instances
            .iter()
            .map(|vals| {
                (0..num_inputs)
                    .map(|i| vals.get(i).copied().unwrap_or(3))
                    .collect()
            })
            .collect();
        let raw = build_random(num_inputs, &seeds);

        let plain = CompileOptions::sequential();

        // Reference artifacts, untraced.
        let (opt_c, opt_st) = optimize_with(&raw, &plain);
        let bc = lower_with(&raw, 8, &plain);
        let (bopt, bst) = optimize_bits_with(&bc, &plain);
        let (eng, _) = CompiledCircuit::compile_with(&raw, &plain).expect("evaluable");
        let outs: Vec<_> = instances.iter().map(|i| eng.evaluate(i)).collect();

        for (tag, topts) in traced_variants(&plain) {
            let (opt_c2, opt_st2) = optimize_with(&raw, &topts);
            assert_same_circuit(&opt_c, &opt_c2, tag)?;
            prop_assert_eq!(
                format!("{opt_st:?}"),
                format!("{opt_st2:?}"),
                "OptStats (incl. assert_origin, phase_gates) diverge under {}",
                tag
            );

            let bc2 = lower_with(&raw, 8, &topts);
            prop_assert_eq!(bc.gates(), bc2.gates(), "{}: lowered gates diverge", tag);
            prop_assert_eq!(bc.outputs(), bc2.outputs());

            let (bopt2, bst2) = optimize_bits_with(&bc, &topts);
            prop_assert_eq!(bopt.gates(), bopt2.gates(), "{}: bit-opt gates diverge", tag);
            prop_assert_eq!(format!("{bst:?}"), format!("{bst2:?}"));

            let (eng2, report) =
                CompiledCircuit::compile_with(&raw, &topts).expect("evaluable");
            prop_assert_eq!(eng.stats().tape_len, eng2.stats().tape_len, "{}", tag);
            prop_assert_eq!(
                eng.stats().peak_registers,
                eng2.stats().peak_registers,
                "{}", tag
            );
            for (inst, want) in instances.iter().zip(&outs) {
                // Err equality covers the reported source assert gate.
                prop_assert_eq!(&eng2.evaluate(inst), want, "{}", tag);
            }

            // The traced run must actually have traced something.
            prop_assert!(report.recorder.is_enabled(), "{}", tag);
            prop_assert!(report.recorder.span_total_ns("compile") > 0, "{}", tag);
        }
    }
}

/// Both exporter formats round-trip through a JSON parser and carry the
/// spans and counters of a real compile.
#[test]
fn exporters_round_trip() {
    let seeds: Vec<GateSeed> = (0..40u32)
        .map(|i| (i as u8, i * 7 + 1, i * 13 + 2, i * 3, u64::from(i) * 11))
        .collect();
    let raw = build_random(3, &seeds);
    let opts = CompileOptions::sequential().with_recorder(Recorder::new(true));
    let (_, report) = CompiledCircuit::compile_with(&raw, &opts).expect("evaluable");

    // Metrics document: versioned, with span + counter sections.
    let doc = qec_obs::json::parse(&report.metrics_json()).expect("metrics_json parses");
    assert_eq!(
        doc.get("schema_version").and_then(|v| v.as_f64()),
        Some(f64::from(qec_obs::METRICS_SCHEMA_VERSION))
    );
    let spans = doc.get("spans").expect("spans section").as_array().unwrap();
    let span_names: Vec<&str> = spans
        .iter()
        .map(|s| s.get("name").unwrap().as_str().unwrap())
        .collect();
    for want in ["compile", "optimize", "tape"] {
        assert!(
            span_names.contains(&want),
            "missing span {want:?}: {span_names:?}"
        );
    }
    for s in spans {
        assert!(s.get("start_ns").unwrap().as_f64().is_some());
        assert!(s.get("dur_ns").unwrap().as_f64().unwrap() >= 0.0);
        assert!(s.get("tid").unwrap().as_f64().is_some());
    }
    let counters = doc.get("counters").expect("counters section");
    assert!(
        counters.get("opt.gates_before").is_some(),
        "optimizer counters missing: {:?}",
        counters.keys()
    );

    // Chrome trace document: an object with traceEvents, each event a
    // complete ("X") or counter ("C") record with the required fields.
    let trace = qec_obs::json::parse(&report.chrome_trace()).expect("chrome_trace parses");
    let events = trace
        .get("traceEvents")
        .expect("traceEvents array")
        .as_array()
        .unwrap();
    assert!(!events.is_empty());
    let mut saw_compile = false;
    for ev in events {
        let ph = ev.get("ph").unwrap().as_str().unwrap();
        assert!(ph == "X" || ph == "C", "unexpected phase {ph:?}");
        assert!(ev.get("name").is_some());
        assert!(ev.get("ts").unwrap().as_f64().is_some());
        if ph == "X" {
            assert!(ev.get("dur").unwrap().as_f64().is_some());
            if ev.get("name").unwrap().as_str() == Some("compile") {
                saw_compile = true;
            }
        }
    }
    assert!(saw_compile, "compile span missing from trace events");
}
