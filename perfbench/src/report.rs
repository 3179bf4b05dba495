//! What one run reports, and the metric names it reports them under.

use std::collections::BTreeMap;

/// End-to-end metrics every workload reports, as `(name, unit)`. These
/// are the ones `BENCHMARK.json` bounds; they are never 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("latency_p50_ms", "ms"),
    ("throughput_per_s", "1/s"),
    ("peak_rss_mb", "MiB"),
];

/// End-to-end metrics that exist on some workloads only. They are
/// printed on the report line before the result line, never bounded.
pub const WORKLOAD_ONLY: &[(&str, &str)] = &[
    ("latency_p99_ms", "ms"),
    ("error_rate", "ratio"),
    ("comm_kib", "KiB"),
    ("rounds", "count"),
];

/// Per-layer metrics of the traced run, as `(name, unit)`. Every
/// workload reports every name; a layer the workload never calls
/// reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("serve.admit_us", "us"),
    ("serve.queue_ms", "ms"),
    ("serve.service_ms", "ms"),
    ("serve.batch_size", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("serve.cache_evictions", "count"),
    ("serve.cache_waits", "count"),
    ("serve.hit_ratio", "ratio"),
    ("serve.gen_late_ms", "ms"),
    ("query.parse_us", "us"),
    ("query.canonicalize_us", "us"),
    ("core.plan_ms", "ms"),
    ("core.rel_nodes", "count"),
    ("core.panda_plan_ms", "ms"),
    ("core.panda_word_gates", "count"),
    ("entropy.bound_ms", "ms"),
    ("entropy.proof_ms", "ms"),
    ("circuit.build_ms", "ms"),
    ("circuit.word_gates", "count"),
    ("circuit.word_depth", "count"),
    ("circuit.optimize_ms", "ms"),
    ("circuit.opt_word_gates", "count"),
    ("circuit.tape_ms", "ms"),
    ("circuit.tape_encode_ms", "ms"),
    ("circuit.plan_kib", "KiB"),
    ("engine.tape_len", "count"),
    ("engine.peak_registers", "count"),
    ("engine.eval_b1_ms", "ms"),
    ("engine.eval_b64_ms", "ms"),
    ("engine.us_per_instance", "us"),
    ("circuit.decode_us", "us"),
    ("lower.bits_ms", "ms"),
    ("lower.bit_gates", "count"),
    ("lower.and_gates", "count"),
    ("lower.and_depth", "count"),
    ("bitengine.compile_ms", "ms"),
    ("bitengine.tape_len", "count"),
    ("mpc.dealer_ms", "ms"),
    ("mpc.session_ms", "ms"),
    ("mpc.and_wait_ms", "ms"),
    ("mpc.local_ms", "ms"),
    ("rss.setup_mb", "MiB"),
    ("rss.measure_mb", "MiB"),
    ("rss.layers_mb", "MiB"),
    ("trace.overhead_pct", "%"),
];

/// The outcome of one run of one workload.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted in the measured part of the run.
    pub attempted: u64,
    /// Operations that failed, were refused, or gave a wrong answer.
    pub failed: u64,
    /// Values by metric name, end-to-end and workload-only alike.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer values by metric name (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
    /// Facts about the run that are not metrics: sample counts, the
    /// percentile a tail figure stands for, flags.
    pub notes: BTreeMap<&'static str, String>,
}

impl Report {
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.end_to_end.insert(name, v);
    }

    pub fn layer(&mut self, name: &'static str, v: f64) {
        self.layers.insert(name, v);
    }

    pub fn note(&mut self, name: &'static str, v: impl ToString) {
        self.notes.insert(name, v.to_string());
    }

    /// Counts one checked operation.
    pub fn check(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn esc(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

fn metric_map(
    pairs: &[(&str, &str)],
    values: &BTreeMap<&'static str, f64>,
    zero_if_absent: bool,
) -> String {
    let items: Vec<String> = pairs
        .iter()
        .filter_map(|&(name, unit)| {
            let v = match values.get(name) {
                Some(&v) => v,
                None if zero_if_absent => 0.0,
                None => return None,
            };
            Some(format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(v)
            ))
        })
        .collect();
    format!("{{{}}}", items.join(", "))
}

/// The report line: every end-to-end metric the workload has, by name
/// and unit, plus the run's notes.
pub fn report_line(workload: &str, r: &Report, host: &BTreeMap<&'static str, String>) -> String {
    let all: Vec<(&str, &str)> = END_TO_END.iter().chain(WORKLOAD_ONLY).copied().collect();
    let notes: Vec<String> = host
        .iter()
        .chain(r.notes.iter())
        .map(|(k, v)| format!("\"{k}\": \"{}\"", esc(v)))
        .collect();
    format!(
        "{{\"workload\": \"{workload}\", \"end_to_end\": {}, \"notes\": {{{}}}}}",
        metric_map(&all, &r.end_to_end, false),
        notes.join(", ")
    )
}

/// The result line, the last line of standard output: the bounded
/// end-to-end metrics (untraced run) or every per-layer metric (traced
/// run).
pub fn result_line(r: &Report, traced: bool) -> String {
    let metrics = if traced {
        metric_map(PER_LAYER, &r.layers, true)
    } else {
        metric_map(END_TO_END, &r.end_to_end, false)
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        r.correct(),
        r.attempted,
        r.failed
    )
}
