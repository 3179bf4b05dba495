//! `serve-hot`: the triangle query at n = 8 through one `Server` with
//! the default configuration, its single plan compiled during set-up.
//!
//! Why: engine evaluation, batching and decode do almost all the work
//! here and the compile layers none, so a smaller plan, a faster engine
//! or a better batcher shows here while a change to the compile path
//! should show nothing. Requests rotate through alpha-variant spellings
//! and four tenants, so admission parses and canonicalizes every
//! request; each carries its own seeded database (a pool of 256, each a
//! different instance).
//!
//! Phase B keeps a window of `8 × max_batch` tickets outstanding and
//! measures saturated throughput. Phase A is an open loop at a fixed
//! 75 req/s (see [`RATE_PER_S`]) — one submit thread, one collector
//! thread — and times each request from the moment it was due, so
//! generator stalls count against latency; the generator's lateness and
//! the backlog at the end of phase A against its start are reported
//! beside it. The phases alternate over three rounds, so both sample the
//! host over the whole run. Set-up runs once before the measurement and
//! twice after it, so the measured peak memory holds one compile.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use qec_circuit::decode_relation;
use qec_query::{canonicalize, parse_cq};
use qec_serve::{Server, ServerConfig, Ticket};

use crate::cases::{cq_case, cq_case_on, Case, ServeSamples, Served};
use crate::host::peak_rss_mib;
use crate::layers::{report_walk, walk, Counts, Source};
use crate::rng::Rng;
use crate::stats::{mean, median, quantile, tail};
use crate::trace::Tracer;
use crate::{Options, Report};

/// The alpha-variant spellings requests rotate through: one plan key.
const SPELLINGS: &[&str] = &[
    "Q(a, b, c) :- R(a, b), S(b, c), T(a, c)",
    "Q(x, y, z) :- T(x, z), S(y, z), R(x, y)",
    "Q(u, v, w) :- S(v, w), R(u, v), T(u, w)",
    "Q(p, q, r) :- R(p, q), T(p, r), S(q, r)",
];
const TENANTS: &[&str] = &["tenant-0", "tenant-1", "tenant-2", "tenant-3"];

/// Phase B's window, in server batches: deep enough that both workers
/// always find a full batch waiting, even while the collector waits on
/// an older ticket. At 4 batches, 618–713 req/s over three runs; at 8,
/// 667–721.
const WINDOW_BATCHES: usize = 8;

/// Measured segments of each phase; they alternate B, A, B, A, ...
const ROUNDS: usize = 3;

/// Share of the measured time spent in phase B.
const B_SHARE: f64 = 0.3;

/// Phase A's open-loop rate: about 10 % of saturation on a 2-core host,
/// where one batch-1 evaluation takes about 10 ms. At half of
/// saturation (350 req/s) the batcher forms batches of about five whose
/// capacity is barely above the rate: latency sat on the knee of the
/// curve and one run's backlog grew from 9 to 65 requests. At 150 req/s
/// the two workers are about 60 % busy, and the median moved from 12 to
/// 18 ms with the host's speed over ten runs; when another process took
/// CPU it rose to 24–26 ms, against 13–14 ms at 75 req/s.
const RATE_PER_S: f64 = 75.0;

/// Request `i` of a run: its spelling, tenant and database rotate, with
/// the database order drawn from the seed.
struct Workload {
    /// `cases[d][s]`: database `d` under spelling `s`.
    cases: Vec<Vec<Case>>,
    order: Vec<usize>,
}

impl Workload {
    fn new(seed: u64, n: u64, pool: usize, corrupt: bool) -> Workload {
        let mut rng = Rng::new(seed, 0x407);
        let mut cases: Vec<Vec<Case>> = (0..pool)
            .map(|_| {
                // One database, generated once, bound under every
                // spelling: the rows are per atom name, so all
                // spellings see the same instance.
                let base = cq_case(&mut rng, SPELLINGS[0], n);
                SPELLINGS
                    .iter()
                    .map(|s| cq_case_on(s, n, base.rels.clone()))
                    .collect()
            })
            .collect();
        let mut order: Vec<usize> = (0..pool).collect();
        rng.shuffle(&mut order);
        if corrupt {
            // Request 0 is the set-up's warm-up request.
            cases[order[0]][0].corrupt();
        }
        Workload { cases, order }
    }

    fn case(&self, i: usize) -> &Case {
        let d = self.order[i % self.order.len()];
        &self.cases[d][i % SPELLINGS.len()]
    }

    fn tenant(i: usize) -> &'static str {
        TENANTS[(i / SPELLINGS.len()) % TENANTS.len()]
    }
}

/// How the submit thread paces requests.
#[derive(Clone, Copy)]
enum Pace {
    /// Keep this many tickets outstanding.
    Window(usize),
    /// Send on a fixed schedule, this many per second.
    Rate(f64),
}

/// One submitted request on its way to the collector.
struct Sent {
    i: usize,
    due: Instant,
    admit: (Instant, Instant),
    ticket: Result<Ticket, qec_serve::ServeError>,
}

/// One or more segments of one phase, pooled.
#[derive(Default)]
struct Phase {
    attempted: u64,
    failed: u64,
    /// Latency from due time, untraced requests.
    latency_ms: Vec<f64>,
    /// Latency from due time, traced requests (every other request of
    /// a traced run).
    traced_ms: Vec<f64>,
    serve: ServeSamples,
    late_ms: Vec<f64>,
    /// Mean outstanding requests (submitted − collected) over the first
    /// and the last tenth of each segment's submissions.
    backlog_start: Vec<f64>,
    backlog_end: Vec<f64>,
    /// Requests completed, and the time from each segment's start to
    /// its last completion, summed over segments.
    completed: u64,
    busy: Duration,
}

impl Phase {
    fn throughput(&self) -> f64 {
        self.completed as f64 / self.busy.as_secs_f64().max(1e-9)
    }

    fn absorb(&mut self, seg: Phase) {
        self.attempted += seg.attempted;
        self.failed += seg.failed;
        self.latency_ms.extend(seg.latency_ms);
        self.traced_ms.extend(seg.traced_ms);
        self.serve.extend(seg.serve);
        self.late_ms.extend(seg.late_ms);
        self.backlog_start.extend(seg.backlog_start);
        self.backlog_end.extend(seg.backlog_end);
        self.completed += seg.completed;
        self.busy += seg.busy;
    }
}

/// Drives one segment: this thread submits requests `first..`, one
/// collector thread waits on the tickets in order and checks every
/// answer. A traced run traces every other request.
fn drive(
    server: &Server,
    w: &Workload,
    first: usize,
    pace: Pace,
    dur: Duration,
    tr: &Tracer,
) -> Phase {
    let cap = match pace {
        Pace::Window(k) => k,
        Pace::Rate(_) => 1 << 20,
    };
    let (tx, rx) = mpsc::sync_channel::<Sent>(cap);
    let collected = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|s| {
        let collector = s.spawn(|| {
            let mut ph = Phase::default();
            let mut last_done = t0;
            for sent in rx {
                let case = w.case(sent.i);
                ph.attempted += 1;
                let resp = sent.ticket.and_then(Ticket::wait);
                collected.fetch_add(1, Ordering::Relaxed);
                let Ok(resp) = resp else {
                    ph.failed += 1;
                    continue;
                };
                if !case.is_answered_by(&resp) {
                    ph.failed += 1;
                }
                let served = Served::new(sent.admit, &resp);
                let latency = (served.done - sent.due).as_secs_f64() * 1e3;
                if tr.is_enabled() && sent.i % 2 == 0 {
                    served.trace(tr, sent.i as u64 + 1, sent.due);
                    ph.traced_ms.push(latency);
                } else {
                    ph.latency_ms.push(latency);
                }
                ph.serve.push(&served);
                last_done = last_done.max(served.done);
            }
            ph.completed = ph.attempted - ph.failed;
            ph.busy = last_done - t0;
            ph
        });

        let mut late_ms = Vec::new();
        let mut backlog = Vec::new();
        let mut i = 0usize;
        loop {
            let due = match pace {
                Pace::Window(_) => Instant::now(),
                Pace::Rate(r) => t0 + Duration::from_secs_f64(i as f64 / r),
            };
            if due - t0 >= dur {
                break;
            }
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let req = w.case(first + i).request(Workload::tenant(first + i));
            let a0 = Instant::now();
            let ticket = server.submit(req);
            let a1 = Instant::now();
            late_ms.push((a0 - due).as_secs_f64() * 1e3);
            backlog.push((i as u64).saturating_sub(collected.load(Ordering::Relaxed)) as f64);
            let sent = Sent {
                i: first + i,
                due,
                admit: (a0, a1),
                ticket,
            };
            if tx.send(sent).is_err() {
                break;
            }
            i += 1;
        }
        drop(tx);
        let mut ph = collector.join().expect("collector thread");
        if let Pace::Rate(_) = pace {
            let tenth = (backlog.len() / 10).max(1).min(backlog.len());
            ph.backlog_start.push(mean(&backlog[..tenth]));
            ph.backlog_end.push(mean(&backlog[backlog.len() - tenth..]));
            ph.late_ms = late_ms;
        }
        ph
    })
}

/// Starts a server and compiles the plan with one checked request.
fn set_up(w: &Workload, rep: &mut Report) -> (Server, Duration) {
    let t = Instant::now();
    let server = Server::start(ServerConfig::default());
    let warm = server.query(w.case(0).request(Workload::tenant(0)));
    let took = t.elapsed();
    rep.check(warm.is_ok_and(|r| w.case(0).is_answered_by(&r)));
    (server, took)
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let (n, pool) = if opts.tiny { (4, 16) } else { (8, 256) };
    let mut rep = Report::default();
    let w = Workload::new(opts.seed, n, pool, opts.corrupt);
    let (server, took) = set_up(&w, &mut rep);
    let mut setups = vec![took.as_secs_f64()];
    let rss_setup = peak_rss_mib();
    let max_batch = ServerConfig::default().max_batch;
    let b_seg = Duration::from_secs_f64(opts.seconds * B_SHARE / ROUNDS as f64);
    let a_seg = Duration::from_secs_f64(opts.seconds * (1.0 - B_SHARE) / ROUNDS as f64);

    // Phases alternate, so both sample the host over the whole run.
    let off = Tracer::new(false);
    let tr = Tracer::new(opts.trace);
    let (mut a, mut b) = (Phase::default(), Phase::default());
    let mut rate = RATE_PER_S;
    let mut next = 1;
    for round in 0..ROUNDS {
        let seg = drive(
            &server,
            &w,
            next,
            Pace::Window(WINDOW_BATCHES * max_batch),
            b_seg,
            &off,
        );
        next += seg.attempted as usize;
        b.absorb(seg);
        if round == 0 {
            // The fixed rate, unless the host saturates below twice it.
            rate = RATE_PER_S.min(b.throughput() / 2.0).max(1.0);
        }
        let seg = drive(&server, &w, next, Pace::Rate(rate), a_seg, &tr);
        next += seg.attempted as usize;
        a.absorb(seg);
    }
    for ph in [&a, &b] {
        rep.attempted += ph.attempted;
        rep.failed += ph.failed;
    }

    let peak_rss = peak_rss_mib();
    if opts.trace {
        rep.layer(
            "trace.overhead_pct",
            100.0 * (median(&a.traced_ms) / median(&a.latency_ms) - 1.0),
        );
        a.serve.report(&mut rep, &server);
        rep.layer("serve.gen_late_ms", quantile(&a.late_ms, 0.99));
        rep.layer("rss.setup_mb", rss_setup);
        rep.layer("rss.measure_mb", peak_rss);
    }
    drop(server);
    // The other set-ups run after the measurement, so the peak above is
    // one compile's, not a sum over set-ups whose memory the allocator
    // kept.
    for _ in 1..opts.setups(3) {
        let (extra, took) = set_up(&w, &mut rep);
        setups.push(took.as_secs_f64());
        drop(extra);
    }

    rep.set("setup_s", median(&setups));
    rep.set("latency_p50_ms", median(&a.latency_ms));
    let (p, tail_ms) = tail(&a.latency_ms);
    rep.set("latency_p99_ms", tail_ms);
    rep.set("throughput_per_s", b.throughput());
    rep.note("setup.repetitions", setups.len());
    rep.note("latency_p99_ms.percentile", p);
    rep.note("latency.samples", a.latency_ms.len());
    rep.note(
        "latency.quartiles_ms",
        format!(
            "{:.3} {:.3} {:.3}",
            quantile(&a.latency_ms, 0.25),
            median(&a.latency_ms),
            quantile(&a.latency_ms, 0.75)
        ),
    );
    rep.note("throughput.samples", b.attempted);
    rep.note("phase_a.rate_per_s", format!("{rate:.1}"));
    rep.note("phase_b.window", WINDOW_BATCHES * max_batch);
    rep.note("gen_late_ms.p50", format!("{:.4}", median(&a.late_ms)));
    rep.note(
        "gen_late_ms.max",
        format!("{:.4}", quantile(&a.late_ms, 1.0)),
    );
    let (start, end) = (mean(&a.backlog_start), mean(&a.backlog_end));
    rep.note("backlog.start", format!("{start:.1}"));
    rep.note("backlog.end", format!("{end:.1}"));
    rep.note("backlog.grew", end > start + max_batch as f64);

    if opts.trace {
        let mean_batch = a.serve.mean_batch().round() as usize;
        engine_layers(&mut rep, &tr, &w, n, mean_batch);
        rep.layer("rss.layers_mb", peak_rss_mib());
        opts.write_trace("serve-hot", &tr)?;
    }
    rep.set("peak_rss_mb", peak_rss);
    rep.set(
        "error_rate",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    Ok(rep)
}

/// The layer walk for the hot plan, then direct engine and decode
/// timing on it at batch 1, 64, and the mean batch the server formed.
fn engine_layers(rep: &mut Report, tr: &Tracer, w: &Workload, n: u64, mean_batch: usize) {
    let mut counts = Counts::new();
    // Admission's parse and canonicalize, over every spelling.
    for _ in 0..50 {
        for s in SPELLINGS {
            let (cq, _) = tr.span("query.parse", 0, 0, |_| parse_cq(s).expect("parses"));
            tr.span("query.canonicalize", 0, 0, |_| canonicalize(&cq));
        }
    }
    let plan = walk(tr, 0, 0, Source::Cq(SPELLINGS[0]), n, &mut counts);
    report_walk(rep, tr, &counts);

    let inputs: Vec<Vec<u64>> = (0..64)
        .map(|i| {
            plan.layout
                .values(&w.case(i).canonical_db())
                .expect("database fits the plan")
        })
        .collect();
    let eval = |b: usize| -> f64 {
        let times: Vec<f64> = (0..5)
            .map(|_| {
                let (out, d) = tr.span("engine.eval", 0, 0, |_| {
                    plan.engine.evaluate_batch(&inputs[..b])
                });
                std::hint::black_box(out);
                d.as_secs_f64() * 1e3
            })
            .collect();
        median(&times)
    };
    rep.layer("engine.eval_b1_ms", eval(1));
    rep.layer("engine.eval_b64_ms", eval(64));
    let b = mean_batch.clamp(1, 64);
    rep.layer("engine.us_per_instance", eval(b) * 1e3 / b as f64);

    let raw = plan.engine.evaluate_batch(&inputs);
    let mut decode_us = Vec::new();
    for r in raw.iter().flatten() {
        let (_, d) = tr.span("circuit.decode", 0, 0, |_| {
            for (schema, start, len) in &plan.outputs {
                std::hint::black_box(decode_relation(schema, &r[*start..*start + *len]));
            }
        });
        decode_us.push(d.as_secs_f64() * 1e6);
    }
    rep.layer("circuit.decode_us", median(&decode_us));
}
