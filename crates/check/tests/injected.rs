//! Acceptance check for the whole harness: an intentionally injected
//! miscompile (the test-only opcode-swap mutation hook) must be caught
//! by the differential layer, shrunk by the delta debugger, and the
//! shrunk case must replay from its corpus serialization.

use qec_check::{
    format_case, gen_case, options_matrix, parse_case, run_case, shrink_case, Case, Mutation,
};

fn fails_with(case: &Case, mutation: &Mutation) -> bool {
    matches!(run_case(case, &[case.options], Some(mutation), false, false), Err(d) if d.is_real())
}

#[test]
fn injected_miscompile_is_caught_shrunk_and_replayable() {
    // Scan a few workloads × mutation sites until the swapped opcode
    // actually changes observable output (some swaps are masked, e.g.
    // a gate whose operands are always equal).
    let mut found = None;
    'outer: for seed in 0..20u64 {
        let case = gen_case(seed);
        for index in 0..12 {
            let mutation = Mutation { index };
            match run_case(&case, &options_matrix(), Some(&mutation), false, false) {
                Err(d) if d.is_real() => {
                    found = Some((case, mutation, d));
                    break 'outer;
                }
                _ => {}
            }
        }
    }
    let (mut case, mutation, divergence) =
        found.expect("no mutation site diverged across 20 workloads x 12 sites");

    // Pin the failing engine configuration, as the fuzz driver does.
    if let Some(opts) = divergence.options() {
        case.options = opts;
    }
    assert!(fails_with(&case, &mutation), "pinned config must reproduce");

    // Shrink under the same mutation.
    let small = shrink_case(&case, &|c| fails_with(c, &mutation));
    assert!(fails_with(&small, &mutation), "shrunk case must reproduce");
    let rows = |c: &Case| c.rels.iter().map(|(_, r)| r.len()).sum::<usize>();
    assert!(
        rows(&small) <= rows(&case) && small.query.len() <= case.query.len(),
        "shrinking must not grow the case"
    );

    // Corpus round-trip: serialize, parse back, replay.
    let text = format_case(&small);
    let back =
        parse_case(&text).unwrap_or_else(|e| panic!("shrunk case does not parse: {e}\n{text}"));
    assert!(
        fails_with(&back, &mutation),
        "corpus round-trip lost the failure:\n{text}"
    );

    // And the same case without the mutation is clean — the divergence
    // really was the injected miscompile, not a latent engine bug.
    run_case(&back, &[back.options], None, false, false)
        .unwrap_or_else(|d| panic!("unmutated shrunk case diverges on its own: {d}"));
}
