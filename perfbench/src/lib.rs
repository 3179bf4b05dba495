//! The request-path benchmark: three workloads that drive the public
//! entry points users call — `qec_serve::Server` for queries and Datalog
//! programs, and a `qec_mpc::Session` pair over TCP for secure
//! evaluation — timed end to end, with every answer checked, and a
//! traced mode that times each crate's public functions from here.
//! See `README.md` next to this crate for the workloads and metrics.

pub mod cases;
pub mod cold;
pub mod host;
pub mod hot;
pub mod layers;
pub mod report;
pub mod rng;
pub mod secure;
pub mod stats;
pub mod trace;

use std::path::PathBuf;

pub use report::Report;

/// The workloads, by the name `--workload` takes.
pub const WORKLOADS: &[&str] = &["serve-hot", "serve-cold", "secure-2pc"];

/// How one run is made.
#[derive(Clone, Debug)]
pub struct Options {
    /// Seed of every generated input.
    pub seed: u64,
    /// Measured time, in seconds.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of bounded end-to-end ones.
    pub trace: bool,
    /// Self-test sizes: the smallest inputs that still exercise every
    /// layer, one set-up and one pass.
    pub tiny: bool,
    /// Self-test only: corrupt one expected answer, so the answer check
    /// must count a failure.
    pub corrupt: bool,
    /// Where a traced run writes its spans.
    pub trace_dir: Option<PathBuf>,
}

impl Options {
    pub fn new(seed: u64, seconds: f64) -> Options {
        Options {
            seed,
            seconds,
            trace: false,
            tiny: false,
            corrupt: false,
            trace_dir: None,
        }
    }

    /// How many times set-up is repeated for the `setup_s` median.
    pub fn setups(&self, full: usize) -> usize {
        if self.tiny {
            1
        } else {
            full
        }
    }

    /// Writes a traced run's spans, when a directory was given.
    pub fn write_trace(&self, workload: &str, tr: &trace::Tracer) -> Result<(), String> {
        match &self.trace_dir {
            Some(dir) => tr
                .write_chrome(&dir.join(format!("{workload}-seed{}.trace.json", self.seed)))
                .map_err(|e| format!("writing trace: {e}")),
            None => Ok(()),
        }
    }
}

/// Runs one workload.
pub fn run(workload: &str, opts: &Options) -> Result<Report, String> {
    match workload {
        "serve-hot" => hot::run(opts),
        "serve-cold" => cold::run(opts),
        "secure-2pc" => secure::run(opts),
        other => Err(format!(
            "unknown workload {other:?}; expected one of {WORKLOADS:?}"
        )),
    }
}
