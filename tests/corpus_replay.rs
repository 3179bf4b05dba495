//! Replays every corpus case under `tests/corpus/` through the full
//! differential matrix. Any case the fuzz driver ever shrinks and
//! checks in becomes a permanent regression test here.

use qec_check::{load_corpus, replay};
use std::path::Path;

#[test]
fn corpus_cases_replay_clean_through_the_full_matrix() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = load_corpus(&dir).unwrap();
    assert!(!cases.is_empty(), "corpus directory is empty");
    for (path, case) in cases {
        let outcome = replay(&case).unwrap_or_else(|d| panic!("{} diverges: {d}", path.display()));
        assert!(
            outcome.configs >= 4,
            "{} ran a truncated matrix",
            path.display()
        );
    }
}
