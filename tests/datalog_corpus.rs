//! Replays every `*.dlcase` under `tests/corpus/` through the Datalog
//! differential stage: RAM semi-naive reference, provenance evaluation,
//! compiled fixpoint circuit (RAM interpretation), and the lowered word
//! circuit under the full engine-option matrix.

use qec_check::{load_datalog_corpus, options_matrix, run_datalog_case};
use std::path::Path;

#[test]
fn datalog_corpus_replays_clean_through_the_full_matrix() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/corpus");
    let cases = load_datalog_corpus(&dir).unwrap();
    assert_eq!(cases.len(), 3, "expected the three workload cases");
    for (path, case) in cases {
        let outcome = run_datalog_case(&case, &options_matrix())
            .unwrap_or_else(|d| panic!("{} diverges: {d}", path.display()));
        assert_eq!(
            outcome.configs,
            4,
            "{} ran a truncated matrix",
            path.display()
        );
        assert!(outcome.word_gates > 0);
        assert!(
            outcome.prov_nodes > 0,
            "{} has no provenance",
            path.display()
        );
    }
}
