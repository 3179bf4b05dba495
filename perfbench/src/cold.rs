//! `serve-cold`: one closed-loop client sends requests over fifteen
//! distinct plan keys to a `Server` whose plan-cache byte budget is
//! below the keys' total plan bytes.
//!
//! Why: here the compile layers do almost all the work and evaluation
//! little. It is the only workload where the plan cache writes and
//! evicts, set beside `serve-hot` where the cache only reads.
//!
//! One pass visits every key once, in an order drawn from the seed, and
//! revisits five keys the seed picks, each one to three requests after
//! its first visit. The budget holds any three plans, so every revisit
//! is a hit, while the keys' total is larger than the budget, so plans
//! are evicted. Misses are 15 of 20 requests. Which keys are revisited
//! moves only hits, all faster than every compile the median falls
//! among, so the median compares across seeds. Every request carries a
//! database of its own. Passes repeat, each on a fresh server, while
//! at least half of another fits in `--seconds`; one pass took 11–20 s
//! on a 2-core host.
//!
//! Left out, with the reason:
//! - the 4-cycle at n = 8: its naive plan was killed for memory at
//!   15 GB;
//! - transitive closure and shortest path at n = 8: 33–47 s to compile
//!   each.
//!
//! Both are the missing admission bound of open item 4 in ROADMAP.md.

use std::time::{Duration, Instant};

use qec_datalog::workloads::{REACHABILITY, SHORTEST_PATH, TRANSITIVE_CLOSURE};
use qec_serve::{Server, ServerConfig};

use crate::cases::{cq_case, datalog_case, Case, ServeSamples, Served};
use crate::host::peak_rss_mib;
use crate::layers::{report_walk, walk, Counts, Source};
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Options, Report};

const TRIANGLE: &str = "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)";
const PATH3: &str = "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d)";
const STAR3: &str = "Q(a, b, c, d) :- R(a, b), S(a, c), T(a, d)";
const PATH2_PROJ: &str = "Q(a, c) :- R(a, b), S(b, c)";
const BOOL_TRIANGLE: &str = "Q() :- R(a, b), S(b, c), T(a, c)";
const CYCLE4: &str = "Q(a, b, c, d) :- R(a, b), S(b, c), T(c, d), U(a, d)";

/// The fifteen plan keys, as `(source, n)`.
const KEYS: &[(Source<'static>, u64)] = &[
    (Source::Cq(TRIANGLE), 4),
    (Source::Cq(TRIANGLE), 8),
    (Source::Cq(PATH3), 4),
    (Source::Cq(PATH3), 8),
    (Source::Cq(STAR3), 4),
    (Source::Cq(STAR3), 8),
    (Source::Cq(PATH2_PROJ), 4),
    (Source::Cq(PATH2_PROJ), 8),
    (Source::Cq(BOOL_TRIANGLE), 4),
    (Source::Cq(BOOL_TRIANGLE), 8),
    (Source::Cq(CYCLE4), 4),
    (Source::Datalog(TRANSITIVE_CLOSURE), 4),
    (Source::Datalog(SHORTEST_PATH), 4),
    (Source::Datalog(REACHABILITY), 4),
    (Source::Datalog(REACHABILITY), 8),
];

/// Self-test keys: one of each kind, all at n = 4 or below.
const TINY_KEYS: &[(Source<'static>, u64)] = &[
    (Source::Cq(PATH2_PROJ), 2),
    (Source::Cq(TRIANGLE), 4),
    (Source::Datalog(REACHABILITY), 2),
];

/// Plan-cache budget: 128 MiB of tape bytes. The largest plans are
/// about 35 MB, the fifteen together about 190 MB.
const BUDGET: usize = 128 << 20;

/// Set-ups per run. A set-up is one server start, tens of microseconds,
/// so many are needed for a steady median.
const SETUPS: usize = 51;

/// Keys revisited per pass.
const REVISITS: usize = 5;

fn case(rng: &mut Rng, src: Source, n: u64) -> Case {
    match src {
        Source::Cq(q) => cq_case(rng, q, n),
        Source::Datalog(p) => datalog_case(rng, p, n),
    }
}

/// One pass's requests, in order.
fn schedule(seed: u64, pass: u64, keys: &[(Source, u64)], revisits: usize) -> Vec<Case> {
    let mut rng = Rng::new(seed, 0xc01d + pass);
    let mut order: Vec<usize> = (0..keys.len()).collect();
    rng.shuffle(&mut order);
    let mut again: Vec<usize> = order.clone();
    rng.shuffle(&mut again);
    again.truncate(revisits);
    // Slot `p` holds requests sent after the first visit at position
    // `p`; a revisit lands one to three requests after its first visit.
    let mut after: Vec<Vec<usize>> = vec![Vec::new(); order.len()];
    for &k in &again {
        let p = order
            .iter()
            .position(|&o| o == k)
            .expect("key is scheduled");
        let slot = (p + rng.below(3) as usize).min(order.len() - 1);
        after[slot].push(k);
    }
    let mut out = Vec::new();
    for (p, &k) in order.iter().enumerate() {
        for &key in std::iter::once(&k).chain(&after[p]) {
            let (src, n) = keys[key];
            out.push(case(&mut rng, src, n));
        }
    }
    out
}

#[derive(Default)]
struct Pass {
    attempted: u64,
    failed: u64,
    latency_ms: Vec<f64>,
    serve: ServeSamples,
}

/// Sends `cases` one after another, each after the previous answer.
fn closed_loop(server: &Server, cases: &[Case], tr: &Tracer, req0: u64) -> Pass {
    let mut p = Pass::default();
    for (i, c) in cases.iter().enumerate() {
        p.attempted += 1;
        let a0 = Instant::now();
        let ticket = server.submit(c.request("client-0"));
        let a1 = Instant::now();
        let Ok(resp) = ticket.and_then(|t| t.wait()) else {
            p.failed += 1;
            continue;
        };
        let wall = a0.elapsed();
        if !c.is_answered_by(&resp) {
            p.failed += 1;
        }
        let served = Served::new((a0, a1), &resp);
        served.trace(tr, req0 + i as u64, a0);
        p.latency_ms.push(wall.as_secs_f64() * 1e3);
        p.serve.push(&served);
    }
    p
}

/// The cold server: the default configuration with the byte budget, and
/// one worker. One closed-loop client never has two requests in flight,
/// so a second worker only idles; with two, which thread compiles a plan
/// is a coin flip, and so is the state of that thread's allocator arena.
/// Over five seeds that moved `throughput_per_s` by a spread of 0.083;
/// with one worker, 0.012.
fn server() -> Server {
    Server::start(ServerConfig {
        cache_budget_bytes: BUDGET,
        workers: 1,
        ..ServerConfig::default()
    })
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let (keys, revisits) = if opts.tiny {
        (TINY_KEYS, 1)
    } else {
        (KEYS, REVISITS)
    };
    let mut rep = Report::default();
    let mut first_cases = schedule(opts.seed, 0, keys, revisits);
    if opts.corrupt {
        first_cases[0].corrupt();
    }
    let t = Instant::now();
    let first_server = server();
    let mut setups = vec![t.elapsed().as_secs_f64()];
    let rss_setup = peak_rss_mib();

    let off = Tracer::new(false);
    let mut all = Pass::default();
    let mut passes = 0u64;
    let mut next = Some((first_cases, first_server));
    let t0 = Instant::now();
    while let Some((cases, s)) = next.take() {
        let pass_start = Instant::now();
        let p = closed_loop(&s, &cases, &off, 0);
        let cs = s.cache_stats();
        rep.note("cache.hits", cs.hits);
        rep.note("cache.misses", cs.misses);
        rep.note("cache.evictions", cs.evictions);
        drop(s);
        passes += 1;
        all.attempted += p.attempted;
        all.failed += p.failed;
        all.latency_ms.extend(p.latency_ms);
        // Another pass only if at least half of it fits in the time.
        let half_pass = pass_start.elapsed() / 2;
        if t0.elapsed() + half_pass < Duration::from_secs_f64(opts.seconds) && !opts.tiny {
            next = Some((schedule(opts.seed, passes, keys, revisits), server()));
        }
    }
    let wall = t0.elapsed().as_secs_f64();
    rep.attempted += all.attempted;
    rep.failed += all.failed;
    let peak_rss = peak_rss_mib();
    // The other set-ups run after the measurement, on a warm process.
    for _ in 1..opts.setups(SETUPS) {
        let t = Instant::now();
        let s = server();
        setups.push(t.elapsed().as_secs_f64());
        drop(s);
    }

    rep.set("setup_s", median(&setups));
    rep.set("latency_p50_ms", median(&all.latency_ms));
    rep.set(
        "throughput_per_s",
        (all.attempted - all.failed) as f64 / wall,
    );
    rep.note("setup.repetitions", setups.len());
    rep.note("passes", passes);
    rep.note("latency.samples", all.latency_ms.len());
    rep.note(
        "latency.quartiles_ms",
        format!(
            "{:.3} {:.3} {:.3}",
            quantile(&all.latency_ms, 0.25),
            median(&all.latency_ms),
            quantile(&all.latency_ms, 0.75)
        ),
    );

    if opts.trace {
        let tr = Tracer::new(true);
        let s = server();
        let cases = schedule(opts.seed, 0, keys, revisits);
        let traced = closed_loop(&s, &cases, &tr, 1);
        rep.attempted += traced.attempted;
        rep.failed += traced.failed;
        // The same schedule as the first untraced pass: compare each
        // request with its own untraced twin.
        let ratios: Vec<f64> = traced
            .latency_ms
            .iter()
            .zip(&all.latency_ms)
            .map(|(t, u)| t / u)
            .collect();
        rep.layer("trace.overhead_pct", 100.0 * (median(&ratios) - 1.0));
        traced.serve.report(&mut rep, &s);
        drop(s);
        rep.layer("rss.setup_mb", rss_setup);
        rep.layer("rss.measure_mb", peak_rss);

        // The layer walk over every key once, plus one batch-1
        // evaluation and decode per plan (the closed loop never batches).
        let mut counts = Counts::new();
        let mut rng = Rng::new(opts.seed, 0x3a1c);
        let mut eval_ms = 0.0;
        let mut decode_us = 0.0;
        for (k, &(src, n)) in keys.iter().enumerate() {
            let plan = walk(&tr, 0, 1000 + k as u64, src, n, &mut counts);
            let probe = case(&mut rng, src, n);
            let inputs = plan
                .layout
                .values(&probe.canonical_db())
                .expect("database fits the plan");
            let (raw, d) = tr.span("engine.eval", 0, 1000 + k as u64, |_| {
                plan.engine.evaluate(&inputs).expect("plan evaluates")
            });
            eval_ms += d.as_secs_f64() * 1e3;
            let (_, d) = tr.span("circuit.decode", 0, 1000 + k as u64, |_| {
                for (schema, start, len) in &plan.outputs {
                    std::hint::black_box(qec_circuit::decode_relation(
                        schema,
                        &raw[*start..*start + *len],
                    ));
                }
            });
            decode_us += d.as_secs_f64() * 1e6;
        }
        report_walk(&mut rep, &tr, &counts);
        rep.layer("engine.eval_b1_ms", eval_ms);
        rep.layer("circuit.decode_us", decode_us);
        rep.layer("rss.layers_mb", peak_rss_mib());
        opts.write_trace("serve-cold", &tr)?;
    }
    rep.set("peak_rss_mb", peak_rss);
    rep.set(
        "error_rate",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    Ok(rep)
}
