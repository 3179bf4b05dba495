//! Runs one workload of the request-path benchmark and prints its
//! metrics. From the repository root:
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-hot --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Standard output ends with one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` — the bounded end-to-end metrics with
//! `--trace 0`, every per-layer metric with `--trace 1`. The line before
//! it reports every end-to-end metric the workload has, with the host,
//! the git revision, sample counts and flags. A traced run also writes
//! its spans to `perfbench/out/<workload>-seed<seed>.trace.json`.

use std::path::PathBuf;
use std::process::ExitCode;

use perfbench::report::{report_line, result_line};
use perfbench::{host, run, Options, WORKLOADS};

fn usage(msg: &str) -> ExitCode {
    eprintln!("perfbench: {msg}");
    eprintln!(
        "usage: perfbench --workload <{}> --seed <u64> --seconds <secs> --trace <0|1>",
        WORKLOADS.join("|")
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut opts = Options::new(0, 10.0);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let Some(value) = it.next() else {
            return usage(&format!("{flag} needs a value"));
        };
        let ok = match flag.as_str() {
            "--workload" => {
                workload = Some(value.clone());
                true
            }
            "--seed" => value.parse().map(|s| opts.seed = s).is_ok(),
            "--seconds" => value
                .parse::<f64>()
                .map(|s| opts.seconds = s)
                .is_ok_and(|_| opts.seconds > 0.0),
            "--trace" => match value.as_str() {
                "0" | "1" => {
                    opts.trace = value == "1";
                    true
                }
                _ => false,
            },
            _ => return usage(&format!("unknown flag {flag}")),
        };
        if !ok {
            return usage(&format!("bad value {value:?} for {flag}"));
        }
    }
    let Some(workload) = workload else {
        return usage("--workload is required");
    };
    if !WORKLOADS.contains(&workload.as_str()) {
        return usage(&format!("unknown workload {workload:?}"));
    }
    if opts.trace {
        opts.trace_dir = Some(PathBuf::from("perfbench").join("out"));
    }
    match run(&workload, &opts) {
        Ok(rep) => {
            println!("{}", report_line(&workload, &rep, &host::facts()));
            println!("{}", result_line(&rep, opts.trace));
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
