//! Self-test of the benchmark at tiny sizes: every workload runs once,
//! reports every metric under its name and unit, and counts a failure
//! when an expected answer is corrupted. Run with
//! `cargo test --release --manifest-path perfbench/Cargo.toml`.

use perfbench::report::{report_line, result_line, END_TO_END, PER_LAYER};
use perfbench::{run, Options, Report, WORKLOADS};

fn tiny(workload: &str, trace: bool, corrupt: bool) -> Report {
    let mut opts = Options::new(7, 0.5);
    opts.tiny = true;
    opts.trace = trace;
    opts.corrupt = corrupt;
    run(workload, &opts).expect("tiny run completes")
}

/// Whether `line` holds `"name": {"value": <v>, "unit": "unit"}`.
fn has(line: &str, name: &str, unit: &str) -> bool {
    line.split(&format!("\"{name}\": {{\"value\": "))
        .nth(1)
        .and_then(|rest| rest.split('}').next())
        .is_some_and(|m| m.ends_with(&format!(", \"unit\": \"{unit}\"")))
}

#[test]
fn every_workload_reports_every_metric_with_its_unit() {
    for &w in WORKLOADS {
        let rep = tiny(w, true, false);
        assert!(rep.correct(), "{w}: {rep:?}");
        let untraced = result_line(&rep, false);
        for &(name, unit) in END_TO_END {
            assert!(
                has(&untraced, name, unit),
                "{w}: {name} [{unit}] missing in {untraced}"
            );
            assert!(rep.end_to_end[name] > 0.0, "{w}: {name} must never be 0");
        }
        let traced = result_line(&rep, true);
        for &(name, unit) in PER_LAYER {
            assert!(
                has(&traced, name, unit),
                "{w}: {name} [{unit}] missing in {traced}"
            );
        }
        let full = report_line(w, &rep, &Default::default());
        let only: &[(&str, &str)] = match w {
            "serve-hot" => &[("latency_p99_ms", "ms"), ("error_rate", "ratio")],
            "secure-2pc" => &[
                ("comm_kib", "KiB"),
                ("rounds", "count"),
                ("error_rate", "ratio"),
            ],
            _ => &[("error_rate", "ratio")],
        };
        for &(name, unit) in only {
            assert!(
                has(&full, name, unit),
                "{w}: {name} [{unit}] missing in {full}"
            );
        }
    }
}

#[test]
fn a_corrupted_expected_answer_is_a_failure() {
    for &w in WORKLOADS {
        let rep = tiny(w, false, true);
        assert!(rep.failed >= 1, "{w}: corrupted answer went unnoticed");
        assert!(!rep.correct());
        assert!(result_line(&rep, false).starts_with("{\"correct\": false"));
    }
}

#[test]
fn benchmark_json_declares_the_metrics_the_runs_report() {
    let spec = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let declared = |name: &str, unit: &str| {
        spec.contains(&format!("{{\"name\": \"{name}\", \"unit\": \"{unit}\""))
    };
    for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
        assert!(declared(name, unit), "{name} [{unit}] not declared");
    }
    for w in WORKLOADS {
        assert!(
            spec.contains(&format!("{{\"name\": \"{w}\"")),
            "{w} not declared"
        );
    }
}
