//! `secure-2pc`: the heavy/light triangle circuit (Figure 1) at N = 16
//! on the AGM worst-case database, evaluated by two-party GMW.
//!
//! Why: it is the only workload that runs bit lowering, the BitEngine
//! GMW tape and `qec-mpc`; the serve layers are idle here. Set-up builds
//! the circuit, lowers it to bits at width 8, compiles the GMW tape and
//! deals the first session's triples. Then sessions repeat: two
//! `Session`s on two threads over one TCP loopback connection, fresh
//! triples from a `PackedDealer` before each (dealt outside the session
//! timing). The input shares and the triples come from the seed. Every
//! reconstruction is checked against plaintext `BitCircuit::evaluate`,
//! and every session's round count against the tape's AND depth.
//! Set-up runs once before the sessions and twice after them, so the
//! measured peak memory holds one set-up.

use std::net::TcpListener;
use std::time::{Duration, Instant};

use qec_circuit::{lower_with, BitOp, CompileOptions, CompiledBitCircuit, Mode};
use qec_core::triangle_heavy_light;
use qec_mpc::{
    share_instances, PackedDealer, Role, Session, TcpTransport, TripleVec, DEFAULT_TIMEOUT,
};
use qec_relation::{agm_worst_case_triangle, Database, Var};

use crate::host::peak_rss_mib;
use crate::rng::Rng;
use crate::stats::{median, quantile};
use crate::trace::Tracer;
use crate::{Options, Report};

/// Everything a session needs, built once per set-up.
struct Prepared {
    eng: CompiledBitCircuit,
    shares: (Vec<Vec<bool>>, Vec<Vec<bool>>),
    plain: Vec<bool>,
    and_depth: u64,
    /// Whether each tape level holds an AND (an exchange with the peer).
    and_level: Vec<bool>,
    /// The first session's triples, dealt during set-up.
    triples: Option<(TripleVec, TripleVec)>,
}

fn prepare(tr: &Tracer, n: u64, seed: u64, counts: &mut Vec<(&'static str, f64)>) -> Prepared {
    let opts = CompileOptions::from_env();
    let ((rc, _), _) = tr.span("core.plan", 0, 0, |_| triangle_heavy_light(n));
    counts.push(("core.rel_nodes", rc.nodes.len() as f64));
    let (lowered, _) = tr.span("circuit.build", 0, 0, |_| rc.lower_with(Mode::Build, &opts));
    counts.push(("circuit.word_gates", lowered.circuit.size() as f64));
    counts.push(("circuit.word_depth", lowered.circuit.depth() as f64));
    let (r, s, t) = agm_worst_case_triangle(Var(0), Var(1), Var(2), n as usize);
    let mut db = Database::new();
    db.insert("R", r);
    db.insert("S", s);
    db.insert("T", t);
    let word_inputs = lowered
        .layout
        .values(&db)
        .expect("AGM instance fits the plan");
    let (bits, _) = tr.span("lower.bits", 0, 0, |_| {
        lower_with(&lowered.circuit, 8, &opts)
    });
    counts.push(("lower.bit_gates", bits.gate_count() as f64));
    counts.push(("lower.and_gates", bits.and_count() as f64));
    let and_depth = bits.and_depth() as u64;
    counts.push(("lower.and_depth", and_depth as f64));
    let bit_inputs = bits.pack_inputs(&word_inputs);
    let plain = bits.evaluate(&bit_inputs).expect("plaintext bit run");
    let (eng, _) = tr.span("bitengine.compile", 0, 0, |_| {
        CompiledBitCircuit::compile_gmw(&bits)
    });
    counts.push(("bitengine.tape_len", eng.stats().tape_len as f64));
    let starts = eng.level_starts();
    let and_level = starts
        .windows(2)
        .map(|w| {
            eng.ops()[w[0] as usize..w[1] as usize]
                .iter()
                .any(|op| matches!(op, BitOp::And { .. }))
        })
        .collect();
    let shares = share_instances(
        std::slice::from_ref(&bit_inputs),
        Rng::new(seed, 0x5ec).next_u64(),
    );
    let (triples, _) = tr.span("mpc.dealer", 0, 0, |_| deal(&eng, seed, 0));
    Prepared {
        eng,
        shares,
        plain,
        and_depth,
        and_level,
        triples: Some(triples),
    }
}

fn deal(eng: &CompiledBitCircuit, seed: u64, session: u64) -> (TripleVec, TripleVec) {
    let steps = eng.stats().and_ops as usize;
    PackedDealer::new(steps, 1, Rng::new(seed, 0xdea1 + session).next_u64()).split()
}

/// One session's outcome as the benchmark sees it.
struct Run {
    wall: Duration,
    ok: bool,
    bytes_sent: u64,
    rounds: u64,
    and_wait: Duration,
    local: Duration,
}

/// Runs one session: P1 on a second thread, P0 on this one, over the
/// two ends of one loopback connection.
fn session(
    p: &Prepared,
    ends: &mut (TcpTransport, TcpTransport),
    triples: (TripleVec, TripleVec),
) -> Run {
    let (t0, t1) = triples;
    let (end0, end1) = (&mut ends.0, &mut ends.1);
    let start = Instant::now();
    let (o0, o1) = std::thread::scope(|s| {
        let h = s.spawn(|| {
            Session::new(&p.eng, Role::P1, end1, t1)
                .with_words(1)
                .run(&p.shares.1)
        });
        let o0 = Session::new(&p.eng, Role::P0, end0, t0)
            .with_words(1)
            .run(&p.shares.0);
        (o0, h.join().expect("P1 thread"))
    });
    let wall = start.elapsed();
    let (Ok(o0), Ok(o1)) = (o0, o1) else {
        return Run {
            wall,
            ok: false,
            bytes_sent: 0,
            rounds: 0,
            and_wait: Duration::ZERO,
            local: Duration::ZERO,
        };
    };
    let reconstructed = |o: &qec_mpc::Outcome| {
        o.results.len() == 1 && o.results[0].as_ref().is_ok_and(|out| *out == p.plain)
    };
    let ok = reconstructed(&o0)
        && reconstructed(&o1)
        && o0.stats.rounds == p.and_depth
        && o1.stats.rounds == p.and_depth;
    let (mut and_wait, mut local) = (0u64, 0u64);
    for (ns, &is_and) in o0.level_ns.iter().zip(&p.and_level) {
        if is_and {
            and_wait += ns;
        } else {
            local += ns;
        }
    }
    Run {
        wall,
        ok,
        bytes_sent: o0.stats.bytes_sent,
        rounds: o0.stats.rounds,
        and_wait: Duration::from_nanos(and_wait),
        local: Duration::from_nanos(local),
    }
}

fn connect() -> Result<(TcpTransport, TcpTransport), String> {
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind loopback: {e}"))?;
    let addr = listener.local_addr().map_err(|e| e.to_string())?;
    std::thread::scope(|s| {
        let h = s.spawn(|| TcpTransport::connect(addr, DEFAULT_TIMEOUT));
        let a =
            TcpTransport::accept(&listener, DEFAULT_TIMEOUT).map_err(|e| format!("accept: {e}"))?;
        let b = h
            .join()
            .expect("connect thread")
            .map_err(|e| format!("connect: {e}"))?;
        Ok((a, b))
    })
}

#[derive(Default)]
struct Loop {
    attempted: u64,
    failed: u64,
    session_ms: Vec<f64>,
    dealer_ms: Vec<f64>,
    and_wait_ms: Vec<f64>,
    local_ms: Vec<f64>,
    /// Wall of the sessions a traced run traced (every other one).
    traced_ms: Vec<f64>,
    bytes_sent: Vec<u64>,
    rounds: Vec<u64>,
    wall: Duration,
}

/// Sessions back to back for `dur` (at least two), each on fresh
/// triples dealt between sessions. A traced run traces every other
/// session, so traced and untraced sessions share the host's drift.
fn sessions(
    p: &mut Prepared,
    ends: &mut (TcpTransport, TcpTransport),
    tr: &Tracer,
    seed: u64,
    dur: Duration,
) -> Loop {
    let off = Tracer::new(false);
    let mut l = Loop::default();
    let t0 = Instant::now();
    let mut k = 0;
    while l.attempted < 2 || t0.elapsed() < dur {
        let traced = tr.is_enabled() && k % 2 == 1;
        let t = if traced { tr } else { &off };
        let triples = match p.triples.take() {
            Some(t) => t,
            None => {
                let (triples, d) = t.span("mpc.dealer", 0, k + 1, |_| deal(&p.eng, seed, k));
                l.dealer_ms.push(d.as_secs_f64() * 1e3);
                triples
            }
        };
        let (run, _) = t.span("mpc.session", 0, k + 1, |_| session(p, ends, triples));
        l.attempted += 1;
        if !run.ok {
            l.failed += 1;
        }
        let ms = run.wall.as_secs_f64() * 1e3;
        if traced {
            l.traced_ms.push(ms);
        } else {
            l.session_ms.push(ms);
        }
        l.and_wait_ms.push(run.and_wait.as_secs_f64() * 1e3);
        l.local_ms.push(run.local.as_secs_f64() * 1e3);
        l.bytes_sent.push(run.bytes_sent);
        l.rounds.push(run.rounds);
        k += 1;
    }
    l.wall = t0.elapsed();
    l
}

pub fn run(opts: &Options) -> Result<Report, String> {
    let n = if opts.tiny { 4 } else { 16 };
    let mut rep = Report::default();
    let off = Tracer::new(false);
    let tr = Tracer::new(opts.trace);
    let t = Instant::now();
    let mut p = prepare(&off, n, opts.seed, &mut Vec::new());
    let mut setups = vec![t.elapsed().as_secs_f64()];
    if opts.corrupt {
        p.plain[0] = !p.plain[0];
    }
    let rss_setup = peak_rss_mib();
    let mut ends = connect()?;
    let l = sessions(
        &mut p,
        &mut ends,
        &tr,
        opts.seed,
        Duration::from_secs_f64(opts.seconds),
    );
    rep.attempted += l.attempted;
    rep.failed += l.failed;
    // Both counts are exact: every session must agree on them.
    let exact = l.bytes_sent.iter().all(|&b| b == l.bytes_sent[0])
        && l.rounds.iter().all(|&r| r == p.and_depth);
    if !exact {
        rep.failed += 1;
    }
    let peak_rss = peak_rss_mib();
    let and_depth = p.and_depth;
    drop(p);

    // The other set-ups run after the measurement, so the peak above is
    // one set-up's. A traced run traces the first of them.
    let mut counts = Vec::new();
    let extra = opts.setups(3) - 1;
    for i in 0..extra.max(usize::from(opts.trace)) {
        let t = Instant::now();
        let traced = opts.trace && i == 0;
        let mut c = Vec::new();
        prepare(if traced { &tr } else { &off }, n, opts.seed, &mut c);
        setups.push(t.elapsed().as_secs_f64());
        if traced {
            counts = c;
        }
    }

    rep.set("setup_s", median(&setups));
    rep.set("latency_p50_ms", median(&l.session_ms));
    rep.set(
        "throughput_per_s",
        (l.attempted - l.failed) as f64 / l.wall.as_secs_f64(),
    );
    rep.set("comm_kib", l.bytes_sent[0] as f64 / 1024.0);
    rep.set("rounds", l.rounds[0] as f64);
    rep.note("setup.repetitions", setups.len());
    rep.note("latency.samples", l.session_ms.len());
    rep.note(
        "latency.quartiles_ms",
        format!(
            "{:.3} {:.3} {:.3}",
            quantile(&l.session_ms, 0.25),
            median(&l.session_ms),
            quantile(&l.session_ms, 0.75)
        ),
    );
    rep.note("and_depth", and_depth);
    rep.note("n", n);

    if opts.trace {
        rep.layer(
            "trace.overhead_pct",
            100.0 * (median(&l.traced_ms) / median(&l.session_ms) - 1.0),
        );
        rep.layer("mpc.dealer_ms", median(&l.dealer_ms));
        rep.layer("mpc.session_ms", median(&l.traced_ms));
        rep.layer("mpc.and_wait_ms", median(&l.and_wait_ms));
        rep.layer("mpc.local_ms", median(&l.local_ms));
        rep.layer("rss.setup_mb", rss_setup);
        rep.layer("rss.measure_mb", peak_rss);
        rep.layer("rss.layers_mb", peak_rss_mib());
        let lt = tr.layer_times();
        let ms = |name: &str| lt.get(name).map_or(0.0, |t| t.self_ns as f64 / 1e6);
        for (span, metric) in [
            ("core.plan", "core.plan_ms"),
            ("circuit.build", "circuit.build_ms"),
            ("lower.bits", "lower.bits_ms"),
            ("bitengine.compile", "bitengine.compile_ms"),
        ] {
            rep.layer(metric, ms(span));
        }
        for (name, v) in counts {
            rep.layer(name, v);
        }
        opts.write_trace("secure-2pc", &tr)?;
    }
    rep.set("peak_rss_mb", peak_rss);
    rep.set(
        "error_rate",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );
    Ok(rep)
}
