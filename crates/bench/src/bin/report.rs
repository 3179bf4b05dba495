//! Regenerates the experiment tables of `EXPERIMENTS.md`.
//!
//! ```text
//! cargo run -p qec-bench --release --bin report            # all experiments
//! cargo run -p qec-bench --release --bin report -- x2 x7   # a subset
//! cargo run -p qec-bench --release --bin report -- --json x15
//! ```
//!
//! With `--json`, each experiment additionally writes a
//! `BENCH_<ID>.json` artifact (to `--json-dir <dir>`, default the
//! current directory): a fixed-key-order object (`schema_version`,
//! `experiment`, `elapsed_ms`, `table`, `pipeline`) where `table` is
//! the printed table (`title`/`headers`/`rows`/`verdict`) and
//! `pipeline` is the `qec-obs` metrics document captured during the
//! run — per-pass spans (build/optimize/tape/lower, at most
//! [`PIPELINE_SPAN_CAP`]) and counters from the builder and optimizer.
//! A fresh enabled recorder is installed per experiment, so each
//! artifact's breakdown covers only its own run.

use qec_bench::{all_experiments, BENCH_SCHEMA_VERSION, PIPELINE_SPAN_CAP};
use qec_obs::Recorder;

fn main() {
    let mut json = false;
    let mut json_dir = String::from(".");
    let mut ids: Vec<String> = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--json" => json = true,
            "--json-dir" => {
                json = true;
                json_dir = args.next().unwrap_or_else(|| {
                    eprintln!("--json-dir needs a directory argument");
                    std::process::exit(2);
                });
            }
            other => ids.push(other.to_lowercase()),
        }
    }
    let experiments = all_experiments();
    let selected: Vec<_> = if ids.is_empty() || ids.iter().any(|a| a == "all") {
        experiments
    } else {
        let sel: Vec<_> = experiments
            .into_iter()
            .filter(|(id, _)| ids.iter().any(|a| a == id))
            .collect();
        if sel.is_empty() {
            eprintln!("unknown experiment id(s); valid: x1..x24 or `all`");
            std::process::exit(2);
        }
        sel
    };
    for (id, run) in selected {
        // Route the run's builder/driver instrumentation into a
        // per-experiment recorder so the JSON artifact carries its own
        // per-pass breakdown (experiments built on
        // `CompileOptions::from_env` inherit it as their driver sink).
        let rec = if json {
            qec_obs::install(Recorder::new(true))
        } else {
            Recorder::disabled()
        };
        let start = std::time::Instant::now();
        let table = run();
        let elapsed = start.elapsed();
        // Cap the span dump: fuzz-scale experiments (x19, x20) record
        // hundreds of thousands of spans, and the artifact gets
        // committed. The leading spans carry the per-pass pipeline
        // breakdown; counters are never cut.
        let pipeline = if json {
            qec_obs::install(rec).metrics_json_capped(PIPELINE_SPAN_CAP)
        } else {
            String::new()
        };
        println!("{table}");
        println!("[{id} completed in {elapsed:.1?}]\n");
        if json {
            let path = format!("{json_dir}/BENCH_{}.json", id.to_uppercase());
            let payload = format!(
                "{{\"schema_version\":{BENCH_SCHEMA_VERSION},\"experiment\":\"{id}\",\"elapsed_ms\":{:.1},\"table\":{},\"pipeline\":{pipeline}}}\n",
                elapsed.as_secs_f64() * 1e3,
                table.to_json()
            );
            match std::fs::write(&path, payload) {
                Ok(()) => eprintln!("wrote {path}"),
                Err(e) => {
                    eprintln!("failed to write {path}: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
}
