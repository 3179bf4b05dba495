//! Corpus file format: one [`Case`] per `*.case` text file.
//!
//! ```text
//! qec-case v1
//! seed 42
//! n 4
//! options optimize=1 traced=0
//! query Q(a, c) :- R0(a, b), R1(b, c)
//! rel R0 2
//! 0,1
//! 2,3
//! rel R1 0
//! ```
//!
//! `rel <name> <count>` is followed by exactly `count` CSV rows whose
//! columns are in the sorted variable order of that atom in the parsed
//! query (the same convention [`Case::materialize`] uses). Blank lines
//! and `#` comments are ignored between sections. Parsing is strictly
//! error-returning — corpus files come from disk and must never panic
//! the replayer.

use crate::case::{Case, EngineOptions};
use std::path::{Path, PathBuf};

/// Serializes `case` in the corpus format; [`parse_case`] inverts this
/// byte-for-byte modulo insignificant whitespace.
pub fn format_case(case: &Case) -> String {
    let mut out = String::new();
    out.push_str("qec-case v1\n");
    out.push_str(&format!("seed {}\n", case.seed));
    out.push_str(&format!("n {}\n", case.n));
    out.push_str(&format!(
        "options optimize={} traced={}\n",
        case.options.optimize as u8, case.options.traced as u8
    ));
    out.push_str(&format!("query {}\n", case.query));
    for (name, rows) in &case.rels {
        out.push_str(&format!("rel {} {}\n", name, rows.len()));
        for row in rows {
            let cells: Vec<String> = row.iter().map(u64::to_string).collect();
            out.push_str(&cells.join(","));
            out.push('\n');
        }
    }
    out
}

fn err(line: usize, msg: impl std::fmt::Display) -> String {
    format!("case line {line}: {msg}")
}

/// Parses the corpus format.
///
/// # Errors
/// Returns `"case line N: <reason>"` on any malformed input.
pub fn parse_case(text: &str) -> Result<Case, String> {
    let mut lines = text
        .lines()
        .enumerate()
        .map(|(i, l)| (i + 1, l.trim()))
        .filter(|(_, l)| !l.is_empty() && !l.starts_with('#'));
    let mut next = |what: &str| {
        lines
            .next()
            .ok_or_else(|| format!("case ended early, expected {what}"))
    };

    let (ln, header) = next("header")?;
    if header != "qec-case v1" {
        return Err(err(
            ln,
            format!("expected \"qec-case v1\", found {header:?}"),
        ));
    }

    let field = |(ln, line): (usize, &str), key: &str| -> Result<String, String> {
        line.strip_prefix(key)
            .and_then(|r| r.strip_prefix(' '))
            .map(str::to_string)
            .ok_or_else(|| err(ln, format!("expected \"{key} ...\", found {line:?}")))
    };
    let parse_u64 = |ln: usize, what: &str, s: &str| -> Result<u64, String> {
        s.parse::<u64>()
            .map_err(|e| err(ln, format!("bad {what} {s:?}: {e}")))
    };

    let at = next("seed")?;
    let seed = parse_u64(at.0, "seed", &field(at, "seed")?)?;
    let at = next("n")?;
    let n = parse_u64(at.0, "n", &field(at, "n")?)?;

    let at = next("options")?;
    let opts_line = field(at, "options")?;
    let mut optimize = None;
    let mut traced = None;
    for tok in opts_line.split_whitespace() {
        let (key, val) = tok
            .split_once('=')
            .ok_or_else(|| err(at.0, format!("bad option token {tok:?}")))?;
        let v = parse_u64(at.0, key, val)?;
        match key {
            "optimize" => optimize = Some(v != 0),
            "traced" => traced = Some(v != 0),
            _ => return Err(err(at.0, format!("unknown option {key:?}"))),
        }
    }
    let options = EngineOptions {
        optimize: optimize.ok_or_else(|| err(at.0, "missing optimize="))?,
        traced: traced.ok_or_else(|| err(at.0, "missing traced="))?,
    };

    let at = next("query")?;
    let query = field(at, "query")?;

    let mut rels: Vec<(String, Vec<Vec<u64>>)> = Vec::new();
    while let Some((ln, line)) = lines.next() {
        let rest = line.strip_prefix("rel ").ok_or_else(|| {
            err(
                ln,
                format!("expected \"rel <name> <count>\", found {line:?}"),
            )
        })?;
        let mut toks = rest.split_whitespace();
        let name = toks
            .next()
            .ok_or_else(|| err(ln, "missing relation name"))?
            .to_string();
        let count_tok = toks.next().ok_or_else(|| err(ln, "missing row count"))?;
        let count = parse_u64(ln, "row count", count_tok)? as usize;
        if toks.next().is_some() {
            return Err(err(
                ln,
                format!("trailing tokens after \"rel {name} {count_tok}\""),
            ));
        }
        if rels.iter().any(|(n, _)| *n == name) {
            return Err(err(ln, format!("duplicate relation {name:?}")));
        }
        if count > 10_000 {
            return Err(err(ln, format!("implausible row count {count}")));
        }
        let mut rows = Vec::with_capacity(count);
        for _ in 0..count {
            let (rln, rline) = lines.next().ok_or_else(|| {
                err(
                    ln,
                    format!("relation {name} declares {count} rows, file ended early"),
                )
            })?;
            let row: Result<Vec<u64>, String> = rline
                .split(',')
                .map(|cell| parse_u64(rln, "cell", cell.trim()))
                .collect();
            rows.push(row?);
        }
        rels.push((name, rows));
    }

    Ok(Case {
        seed,
        n,
        query,
        rels,
        options,
    })
}

/// Loads every `*.case` file under `dir`, sorted by file name.
///
/// # Errors
/// Returns a description naming the offending file on IO or parse
/// failure.
pub fn load_corpus(dir: &Path) -> Result<Vec<(PathBuf, Case)>, String> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("cannot read {}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|ext| ext == "case"))
        .collect();
    paths.sort();
    let mut out = Vec::with_capacity(paths.len());
    for path in paths {
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
        let case = parse_case(&text).map_err(|e| format!("{}: {e}", path.display()))?;
        out.push((path, case));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Case {
        Case {
            seed: 77,
            n: 3,
            query: "Q(a) :- R0(a, b), R1(b)".to_string(),
            rels: vec![
                ("R0".to_string(), vec![vec![1, 2], vec![0, 0]]),
                ("R1".to_string(), vec![]),
            ],
            options: EngineOptions {
                optimize: true,
                traced: false,
            },
        }
    }

    #[test]
    fn format_parse_roundtrip() {
        let case = sample();
        let text = format_case(&case);
        let back = parse_case(&text).unwrap();
        assert_eq!(back.seed, case.seed);
        assert_eq!(back.n, case.n);
        assert_eq!(back.query, case.query);
        assert_eq!(back.rels, case.rels);
        assert_eq!(back.options, case.options);
        // A parsed case must also materialize.
        back.materialize().unwrap();
    }

    #[test]
    fn malformed_files_are_rejected_with_line_numbers() {
        let cases = [
            ("", "ended early"),
            ("qec-case v2\n", "qec-case v1"),
            ("qec-case v1\nseed x\n", "bad seed"),
            ("qec-case v1\nseed 1\nn 2\noptions optimize=1\n", "missing traced"),
            (
                "qec-case v1\nseed 1\nn 2\noptions optimize=1 threads=2 traced=0\n",
                "unknown option \"threads\"",
            ),
            (
                "qec-case v1\nseed 1\nn 2\noptions optimize=1 traced=0\nquery Q(a) :- R(a)\nrel R 2\n0\n",
                "ended early",
            ),
            (
                "qec-case v1\nseed 1\nn 2\noptions optimize=1 traced=0\nquery Q(a) :- R(a)\nrel R 1\nzz\n",
                "bad cell",
            ),
            (
                "qec-case v1\nseed 1\nn 2\noptions optimize=1 traced=0\nquery Q(a) :- R(a)\nrel R 0\nrel R 0\n",
                "duplicate relation",
            ),
        ];
        for (text, needle) in cases {
            let e = parse_case(text).expect_err(text);
            assert!(e.contains(needle), "error {e:?} missing {needle:?}");
        }
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "# corpus case\nqec-case v1\n\nseed 5\nn 2\n# opts\noptions optimize=0 traced=0\nquery Q() :- R(a)\nrel R 1\n3\n";
        let case = parse_case(text).unwrap();
        assert_eq!(case.rels[0].1, vec![vec![3]]);
        case.materialize().unwrap();
    }
}
