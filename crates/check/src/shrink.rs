//! Delta-debugging shrinker for divergent cases.
//!
//! Given a failing [`Case`] and an oracle (`still_fails`), greedily
//! applies reductions and keeps every one the oracle confirms, looping
//! to a fixpoint:
//!
//! 1. simplify the engine options (tracing off, optimizer off),
//! 2. drop whole atoms from the query (rebuilding the query text and
//!    permuting stored rows into the renumbered schema),
//! 3. delete relation rows one at a time,
//! 4. lower the capacity bound `n` to the smallest value that still
//!    reproduces.
//!
//! Cases here are tiny (≤ 3 atoms, ≤ 4 rows each), so the greedy
//! one-at-a-time strategy converges in well under a hundred oracle
//! calls — no need for the chunked ddmin schedule.

use crate::case::Case;
use qec_query::{parse_cq, Cq};

/// Shrinks `case` while `still_fails` keeps returning `true`. The
/// oracle must treat harness errors (unparseable candidate, missing
/// rows) as *not failing* so malformed candidates are simply rejected.
pub fn shrink_case(case: &Case, still_fails: &dyn Fn(&Case) -> bool) -> Case {
    let mut cur = case.clone();
    for _round in 0..16 {
        let mut progressed = false;
        progressed |= simplify_options(&mut cur, still_fails);
        progressed |= drop_atoms(&mut cur, still_fails);
        progressed |= drop_rows(&mut cur, still_fails);
        progressed |= lower_n(&mut cur, still_fails);
        if !progressed {
            break;
        }
    }
    cur
}

fn simplify_options(cur: &mut Case, still_fails: &dyn Fn(&Case) -> bool) -> bool {
    let mut progressed = false;
    let try_opts = |cur: &mut Case, f: &dyn Fn(&mut Case)| {
        let mut cand = cur.clone();
        f(&mut cand);
        if cand.options != cur.options && still_fails(&cand) {
            *cur = cand;
            true
        } else {
            false
        }
    };
    progressed |= try_opts(cur, &|c| c.options.traced = false);
    progressed |= try_opts(cur, &|c| c.options.optimize = false);
    progressed
}

fn drop_rows(cur: &mut Case, still_fails: &dyn Fn(&Case) -> bool) -> bool {
    let mut progressed = false;
    let mut rel = 0;
    while rel < cur.rels.len() {
        let mut row = 0;
        while row < cur.rels[rel].1.len() {
            let mut cand = cur.clone();
            cand.rels[rel].1.remove(row);
            if still_fails(&cand) {
                *cur = cand;
                progressed = true;
                // same index now names the next row
            } else {
                row += 1;
            }
        }
        rel += 1;
    }
    progressed
}

fn lower_n(cur: &mut Case, still_fails: &dyn Fn(&Case) -> bool) -> bool {
    let floor = cur
        .rels
        .iter()
        .map(|(_, rows)| rows.len() as u64)
        .max()
        .unwrap_or(0)
        .max(1);
    for n in floor..cur.n {
        let mut cand = cur.clone();
        cand.n = n;
        if still_fails(&cand) {
            *cur = cand;
            return true;
        }
    }
    false
}

fn drop_atoms(cur: &mut Case, still_fails: &dyn Fn(&Case) -> bool) -> bool {
    let mut progressed = false;
    loop {
        let Ok(cq) = parse_cq(&cur.query) else {
            return progressed;
        };
        if cq.atoms.len() <= 1 {
            return progressed;
        }
        let mut reduced = false;
        for drop in 0..cq.atoms.len() {
            if let Some(cand) = without_atom(cur, &cq, drop) {
                if still_fails(&cand) {
                    *cur = cand;
                    progressed = true;
                    reduced = true;
                    break; // atom indices shifted; re-parse and restart
                }
            }
        }
        if !reduced {
            return progressed;
        }
    }
}

/// Rebuilds `cur` with atom `drop` removed. The parser renumbers
/// variables from the new text, which can permute each atom's
/// sorted-variable column order, so rows are remapped by *name*: old
/// sorted names → new sorted names.
fn without_atom(cur: &Case, cq: &Cq, drop: usize) -> Option<Case> {
    let kept: Vec<usize> = (0..cq.atoms.len()).filter(|&i| i != drop).collect();
    let covered: Vec<&str> = {
        let mut names: Vec<&str> = Vec::new();
        for &i in &kept {
            for v in cq.atoms[i].vars.iter() {
                let n = cq.var_name(v);
                if !names.contains(&n) {
                    names.push(n);
                }
            }
        }
        names
    };
    let head: Vec<&str> = cq
        .free
        .iter()
        .map(|v| cq.var_name(v))
        .filter(|n| covered.contains(n))
        .collect();
    let body: Vec<String> = kept
        .iter()
        .map(|&i| {
            let args: Vec<&str> = cq.atoms[i].vars.iter().map(|v| cq.var_name(v)).collect();
            format!("{}({})", cq.atoms[i].name, args.join(", "))
        })
        .collect();
    let query = format!("Q({}) :- {}", head.join(", "), body.join(", "));
    let new_cq = parse_cq(&query).ok()?;

    let mut rels = Vec::with_capacity(kept.len());
    for atom in &new_cq.atoms {
        let old_atom = cq.atoms.iter().find(|a| a.name == atom.name)?;
        let old_names: Vec<&str> = old_atom.vars.iter().map(|v| cq.var_name(v)).collect();
        let new_names: Vec<&str> = atom.vars.iter().map(|v| new_cq.var_name(v)).collect();
        let perm: Option<Vec<usize>> = new_names
            .iter()
            .map(|n| old_names.iter().position(|o| o == n))
            .collect();
        let perm = perm?;
        let (_, old_rows) = cur.rels.iter().find(|(name, _)| *name == atom.name)?;
        let rows = old_rows
            .iter()
            .map(|row| perm.iter().map(|&i| row[i]).collect())
            .collect();
        rels.push((atom.name.clone(), rows));
    }
    Some(Case {
        query,
        rels,
        ..cur.clone()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::case::EngineOptions;

    fn base_case() -> Case {
        Case {
            seed: 9,
            n: 4,
            query: "Q(a, c) :- R0(a, b), R1(b, c), R2(c)".to_string(),
            rels: vec![
                ("R0".to_string(), vec![vec![0, 1], vec![2, 3], vec![1, 1]]),
                ("R1".to_string(), vec![vec![1, 5], vec![3, 0]]),
                ("R2".to_string(), vec![vec![5], vec![0]]),
            ],
            options: EngineOptions {
                optimize: true,
                traced: true,
            },
        }
    }

    #[test]
    fn shrinks_to_the_minimal_triggering_fragment() {
        // Synthetic oracle: "fails" whenever R0 still contains the row
        // (0, 1) — the shrinker should strip everything else.
        let oracle = |c: &Case| {
            c.materialize().is_ok()
                && c.rels
                    .iter()
                    .any(|(n, rows)| n == "R0" && rows.contains(&vec![0, 1]))
        };
        let small = shrink_case(&base_case(), &oracle);
        assert!(oracle(&small));
        let r0 = small.rels.iter().find(|(n, _)| n == "R0").unwrap();
        assert_eq!(r0.1, vec![vec![0, 1]], "extra rows survived: {small:?}");
        let total_rows: usize = small.rels.iter().map(|(_, r)| r.len()).sum();
        assert_eq!(total_rows, 1, "other relations kept rows: {small:?}");
        assert_eq!(small.n, 1);
        assert_eq!(
            small.options,
            EngineOptions::baseline(),
            "options were not simplified"
        );
        assert!(small.query.contains("R0"));
        assert!(
            !small.query.contains("R2"),
            "droppable atom kept: {}",
            small.query
        );
    }

    #[test]
    fn atom_removal_remaps_columns_by_variable_name() {
        // Head (c) comes before (a, b) in parser numbering; dropping R2
        // renumbers everything. The oracle pins the case to R0 keeping
        // its distinguishable row (7, 8) in (a, b) order.
        let case = Case {
            seed: 1,
            n: 4,
            query: "Q(c) :- R0(a, b), R1(b, c), R2(a, c)".to_string(),
            rels: vec![
                // R0's sorted schema in the original parse: a, b.
                ("R0".to_string(), vec![vec![7, 8]]),
                ("R1".to_string(), vec![vec![8, 2]]),
                ("R2".to_string(), vec![vec![7, 2]]),
            ],
            options: EngineOptions::baseline(),
        };
        let oracle = |c: &Case| {
            let Ok((cq, db, _)) = c.materialize() else {
                return false;
            };
            // The pair (a=7, b=8) must still be a row of R0 under
            // whatever numbering the candidate uses.
            let Some(atom) = cq.atoms.iter().find(|a| a.name == "R0") else {
                return false;
            };
            let rel = db.get("R0").unwrap();
            let names: Vec<&str> = atom.vars.iter().map(|v| cq.var_name(v)).collect();
            let a_col = names.iter().position(|n| *n == "a");
            let b_col = names.iter().position(|n| *n == "b");
            match (a_col, b_col) {
                (Some(a), Some(b)) => rel.rows().iter().any(|r| r[a] == 7 && r[b] == 8),
                _ => false,
            }
        };
        assert!(oracle(&case));
        let small = shrink_case(&case, &oracle);
        assert!(oracle(&small), "shrunk case lost the pinned row: {small:?}");
        assert!(
            !small.query.contains("R2") || !small.query.contains("R1"),
            "nothing was dropped: {}",
            small.query
        );
    }
}
