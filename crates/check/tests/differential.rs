//! Differential smoke: a modest seeded sweep must come back clean.
//! CI's dedicated fuzz step runs the big sweep; this keeps `cargo test`
//! self-contained.

use qec_check::fuzz_many;

#[test]
fn seeded_sweep_has_zero_divergences() {
    let summary = fuzz_many(0x5EED, 40, 8, 10);
    if let Some((case, d)) = &summary.failure {
        panic!("divergence on seed {}: {d}\ncase: {case:?}", case.seed);
    }
    if let Some((dcase, d)) = &summary.datalog_failure {
        panic!(
            "datalog divergence on seed {}: {d}\ncase: {dcase:?}",
            dcase.seed
        );
    }
    assert_eq!(summary.cases_passed, 40);
    assert_eq!(summary.datalog_passed, 4);
    assert_eq!(summary.configs, 40 * 4 + 4 * 4);
}
