//! Plan choice: which relational circuit to compile for a conjunctive
//! query.
//!
//! PANDA-C (Thm 3) is asymptotically the better circuit, but at small
//! capacities its polylog branch factor can outweigh the naive
//! construction's `O(N^m)` (without hash-consing, the 3-star at N = 8
//! lowers to 7.9M word gates against naive's 3.7M), and
//! [`paper_cost`](crate::paper_cost) ranks some queries the wrong way
//! round. So [`choose_plan`] builds both candidates and ranks them by
//! what the engine will actually run: the word-gate count of the
//! lowered circuit. The count is taken with the builder's hash-consing
//! off (`lower_without_cse` in `Mode::Count`), which stores no gates and
//! so costs milliseconds where a CSE'd count costs as much as a full
//! build.

use std::fmt;

use qec_circuit::{CompileOptions, Mode};
use qec_query::Cq;
use qec_relation::DcSet;

use crate::naive::naive_circuit;
use crate::panda::{compile_fcq, CompileError};
use crate::rc::RelationalCircuit;

/// Which construction produced a relational circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PlanKind {
    /// The classical left-to-right join ([`naive_circuit`]).
    Naive,
    /// The proof-sequence compiler ([`compile_fcq`]).
    PandaC,
}

impl PlanKind {
    /// Inverse of the `Display` spelling, which persisted plan metadata
    /// uses.
    pub fn parse(s: &str) -> Option<PlanKind> {
        match s {
            "naive" => Some(PlanKind::Naive),
            "panda-c" => Some(PlanKind::PandaC),
            _ => None,
        }
    }
}

impl fmt::Display for PlanKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            PlanKind::Naive => "naive",
            PlanKind::PandaC => "panda-c",
        })
    }
}

/// The circuit [`choose_plan`] picked, plus the candidate it rejected.
pub struct ChosenPlan {
    /// Construction of the chosen circuit.
    pub kind: PlanKind,
    /// The chosen relational circuit; its single output is the answer.
    pub rc: RelationalCircuit,
    /// The losing candidate, when there was a choice (full CQs whose
    /// PANDA-C compile succeeded). Kept for differential checking.
    pub rejected: Option<(PlanKind, RelationalCircuit)>,
}

/// Word gates the engine would run for `rc`, counted without
/// hash-consing (no gates are stored).
fn cse_free_size(rc: &RelationalCircuit) -> u64 {
    rc.lower_without_cse(Mode::Count, &CompileOptions::sequential())
        .circuit
        .size()
}

/// Picks the relational circuit to serve for `cq` under `dc`.
///
/// Full CQs get both [`naive_circuit`] and [`compile_fcq`], ranked by
/// their CSE-free `Mode::Count` word-gate counts; the smaller wins and a
/// tie goes to naive. A failed PANDA-C compile falls back to naive.
/// Non-full CQs are always naive: `compile_fcq` only handles full
/// queries, and the output-sensitive families need the output size,
/// which is not a function of the plan key.
pub fn choose_plan(cq: &Cq, dc: &DcSet) -> Result<ChosenPlan, CompileError> {
    let (naive, _) = naive_circuit(cq, dc)?;
    let panda = if cq.is_full() {
        compile_fcq(cq, dc).ok()
    } else {
        None
    };
    let Some(panda) = panda else {
        return Ok(ChosenPlan {
            kind: PlanKind::Naive,
            rc: naive,
            rejected: None,
        });
    };
    Ok(if cse_free_size(&panda.rc) < cse_free_size(&naive) {
        ChosenPlan {
            kind: PlanKind::PandaC,
            rc: panda.rc,
            rejected: Some((PlanKind::Naive, naive)),
        }
    } else {
        ChosenPlan {
            kind: PlanKind::Naive,
            rc: naive,
            rejected: Some((PlanKind::PandaC, panda.rc)),
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use qec_query::parse_cq;
    use qec_relation::DegreeConstraint;

    fn cardinality_dc(q: &Cq, n: u64) -> DcSet {
        DcSet::from_vec(
            q.atoms
                .iter()
                .map(|a| DegreeConstraint::cardinality(a.vars, n))
                .collect(),
        )
    }

    fn cse_size(rc: &RelationalCircuit) -> u64 {
        rc.lower(Mode::Count).circuit.size()
    }

    #[test]
    fn chooser_picks_the_cse_argmin_on_the_query_grid() {
        let grid = [
            (
                "triangle",
                "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)",
                PlanKind::PandaC,
            ),
            (
                "3-path",
                "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)",
                PlanKind::PandaC,
            ),
            (
                "3-star",
                "Q(a, b, c, d) :- R(a, b), S(a, c), T(a, d)",
                PlanKind::Naive,
            ),
            (
                "4-cycle",
                "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(a, d)",
                PlanKind::PandaC,
            ),
            ("2-path", "Q(a, b, c) :- R(a, b), S(b, c)", PlanKind::Naive),
            (
                "intersection",
                "Q(a, b) :- R(a, b), S(a, b)",
                PlanKind::PandaC,
            ),
        ];
        for (name, src, want) in grid {
            let q = parse_cq(src).unwrap();
            let dc = cardinality_dc(&q, 4);
            let chosen = choose_plan(&q, &dc).unwrap();
            assert_eq!(chosen.kind, want, "{name}");
            let (other_kind, other) = chosen.rejected.as_ref().expect("full CQ has a choice");
            assert_ne!(*other_kind, chosen.kind, "{name}");
            let (mine, theirs) = (cse_size(&chosen.rc), cse_size(other));
            assert!(
                mine < theirs || (mine == theirs && chosen.kind == PlanKind::Naive),
                "{name}: chose {} at {mine} gates over {other_kind} at {theirs}",
                chosen.kind
            );
        }
    }

    #[test]
    fn non_full_queries_stay_naive_without_a_panda_candidate() {
        for src in [
            "Q(a, c) :- R(a, b), S(b, c)",
            "Q() :- R(a, b), S(b, c), T(a, c)",
        ] {
            let q = parse_cq(src).unwrap();
            let chosen = choose_plan(&q, &cardinality_dc(&q, 4)).unwrap();
            assert_eq!(chosen.kind, PlanKind::Naive, "{src}");
            assert!(chosen.rejected.is_none(), "{src}");
        }
    }

    #[test]
    fn plan_kind_spelling_round_trips() {
        for kind in [PlanKind::Naive, PlanKind::PandaC] {
            assert_eq!(PlanKind::parse(&kind.to_string()), Some(kind));
        }
        assert_eq!(PlanKind::parse("yannakakis"), None);
    }
}
