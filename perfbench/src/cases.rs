//! Seeded serve requests and their reference answers. Every request
//! carries a database of its own, drawn from the run seed; its expected
//! answer comes from an evaluator that shares no code with the circuit
//! path: `evaluate_pairwise` for conjunctive queries, `seminaive` for
//! Datalog programs. Answers are computed during set-up, outside every
//! timed region.

use std::time::{Duration, Instant};

use qec_datalog::{database, result_relation, seminaive, DatalogProgram, FixpointBounds};
use qec_query::baseline::evaluate_pairwise;
use qec_query::{canonicalize, parse_cq};
use qec_relation::{Database, Relation, Var};
use qec_serve::{bucket_n, Request, Response, Server};

use crate::rng::Rng;
use crate::stats::{mean, median};
use crate::trace::Tracer;
use crate::Report;

/// One request plus the answer it must get.
#[derive(Clone, Debug)]
pub struct Case {
    /// A Datalog program rather than a conjunctive query.
    pub datalog: bool,
    pub query: String,
    pub n: u64,
    pub rels: Vec<(String, Vec<Vec<u64>>)>,
    pub expected: Relation,
}

impl Case {
    pub fn request(&self, tenant: &str) -> Request {
        Request {
            tenant: tenant.to_string(),
            query: self.query.clone(),
            n: self.n,
            rels: self.rels.clone(),
        }
    }

    /// Whether `resp` is the expected single output relation.
    pub fn is_answered_by(&self, resp: &Response) -> bool {
        resp.relations.len() == 1 && resp.relations[0] == self.expected
    }

    /// The request's database as admission binds it to a plan: query
    /// columns renamed into canonical variable space, Datalog relations
    /// in their programs' canonical schemas.
    pub fn canonical_db(&self) -> Database {
        if self.datalog {
            let dp = DatalogProgram::parse(&self.query).expect("benchmark program parses");
            let rels: Vec<(&str, Vec<Vec<u64>>)> = self
                .rels
                .iter()
                .map(|(n, r)| (n.as_str(), r.clone()))
                .collect();
            return database(&dp, &rels).expect("benchmark instance loads");
        }
        let cq = parse_cq(&self.query).expect("benchmark query parses");
        let canon = canonicalize(&cq);
        let mut db = Database::new();
        for (name, rows) in &self.rels {
            let atom = cq.atoms.iter().find(|a| a.name == *name).expect("atom");
            let schema: Vec<Var> = atom
                .vars
                .iter()
                .map(|v| canon.to_canon[v.index()])
                .collect();
            db.insert(name.clone(), Relation::from_rows(schema, rows.clone()));
        }
        db
    }

    /// Replaces the expected answer with a wrong one (self-test only).
    pub fn corrupt(&mut self) {
        let schema = self.expected.schema().to_vec();
        let rows = if self.expected.is_empty() {
            vec![vec![0; schema.len()]]
        } else {
            Vec::new()
        };
        self.expected = Relation::from_rows(schema, rows);
    }
}

/// A conjunctive-query request: `n` distinct rows per atom over a
/// domain just large enough that half of all pairs are present, so the
/// joins have output.
pub fn cq_case(rng: &mut Rng, query: &str, n: u64) -> Case {
    let cq = parse_cq(query).expect("benchmark query parses");
    let mut domain = 1;
    while domain * domain < 2 * n {
        domain += 1;
    }
    let rels = cq
        .atoms
        .iter()
        .map(|atom| {
            let rows = rng.distinct_rows(n as usize, atom.vars.len() as usize, domain);
            (atom.name.clone(), rows)
        })
        .collect();
    cq_case_on(query, n, rels)
}

/// A conjunctive-query request over the given rows, with its reference
/// answer.
pub fn cq_case_on(query: &str, n: u64, rels: Vec<(String, Vec<Vec<u64>>)>) -> Case {
    let cq = parse_cq(query).expect("benchmark query parses");
    let mut db = Database::new();
    for (name, rows) in &rels {
        let atom = cq
            .atoms
            .iter()
            .find(|a| a.name == *name)
            .expect("every relation is an atom of the query");
        db.insert(
            name.clone(),
            Relation::from_rows(atom.vars.to_vec(), rows.clone()),
        );
    }
    let expected = evaluate_pairwise(&cq, &db).expect("reference evaluates");
    Case {
        datalog: false,
        query: query.to_string(),
        n,
        rels,
        expected,
    }
}

/// A Datalog request over vertices `0..n`: `n` distinct edges without
/// self-loops (weights `1..=4` for annotated edges) and two start
/// vertices for unary EDBs. The reference runs as many rounds as the
/// served plan unrolls.
pub fn datalog_case(rng: &mut Rng, program: &str, n: u64) -> Case {
    let dp = DatalogProgram::parse(program).expect("benchmark program parses");
    let mut rels: Vec<(String, Vec<Vec<u64>>)> = Vec::new();
    for p in dp.edbs() {
        let mut rows = if p.arity == 1 {
            rng.distinct_rows(2.min(n as usize), 1, n)
        } else {
            let mut edges: Vec<Vec<u64>> = (0..n)
                .flat_map(|x| (0..n).filter(move |&y| y != x).map(move |y| vec![x, y]))
                .collect();
            rng.shuffle(&mut edges);
            edges.truncate(n as usize);
            edges
        };
        if p.annotated {
            for row in &mut rows {
                row.push(1 + rng.below(4));
            }
        }
        rels.push((p.name.clone(), rows));
    }
    let borrowed: Vec<(&str, Vec<Vec<u64>>)> =
        rels.iter().map(|(n, r)| (n.as_str(), r.clone())).collect();
    let db = database(&dp, &borrowed).expect("benchmark instance loads");
    let rounds = FixpointBounds::for_domain(bucket_n(n), bucket_n(n)).rounds;
    let expected = result_relation(&dp, &seminaive(&dp, &db, rounds).expect("reference runs"));
    Case {
        datalog: true,
        query: program.to_string(),
        n,
        rels,
        expected,
    }
}

/// Server-side timing of one completed request, reconstructed from the
/// submit call's wall clock and the response's own durations.
pub struct Served {
    /// When `submit` was called and when it returned.
    pub admit: (Instant, Instant),
    /// When the request finished (its response was ready).
    pub done: Instant,
    pub queue: Duration,
    pub service: Duration,
    pub batch_size: usize,
}

impl Served {
    /// The response was built `queue + service` after enqueue, which
    /// happens inside `submit`.
    pub fn new(admit: (Instant, Instant), resp: &Response) -> Served {
        let queue = Duration::from_nanos(resp.queue_ns);
        let service = Duration::from_nanos(resp.total_ns);
        Served {
            admit,
            done: admit.1 + queue + service,
            queue,
            service,
            batch_size: resp.batch_size,
        }
    }

    /// Records the request's spans: the request itself from `start`
    /// (its due time, or its submit time), the `submit` call, and the
    /// queue wait and service that followed.
    pub fn trace(&self, tr: &Tracer, req: u64, start: Instant) {
        if !tr.is_enabled() {
            return;
        }
        let root = tr.record("serve.request", 0, req, start, self.done);
        tr.record("serve.admit", root, req, self.admit.0, self.admit.1);
        let dequeued = self.admit.1 + self.queue;
        tr.record("serve.queue", root, req, self.admit.1, dequeued);
        tr.record(
            "serve.service",
            root,
            req,
            dequeued,
            dequeued + self.service,
        );
    }
}

/// The serve layer's view of many requests.
#[derive(Default)]
pub struct ServeSamples {
    admit_us: Vec<f64>,
    queue_ms: Vec<f64>,
    service_ms: Vec<f64>,
    batch: Vec<f64>,
}

impl ServeSamples {
    pub fn push(&mut self, s: &Served) {
        self.admit_us
            .push((s.admit.1 - s.admit.0).as_secs_f64() * 1e6);
        self.queue_ms.push(s.queue.as_secs_f64() * 1e3);
        self.service_ms.push(s.service.as_secs_f64() * 1e3);
        self.batch.push(s.batch_size as f64);
    }

    pub fn extend(&mut self, other: ServeSamples) {
        self.admit_us.extend(other.admit_us);
        self.queue_ms.extend(other.queue_ms);
        self.service_ms.extend(other.service_ms);
        self.batch.extend(other.batch);
    }

    /// Mean batch size the server formed.
    pub fn mean_batch(&self) -> f64 {
        mean(&self.batch)
    }

    /// The serve layer's per-layer metrics: medians of the `submit` wall,
    /// queue wait and service time, the mean batch size, and the plan
    /// cache's counters.
    pub fn report(&self, rep: &mut Report, server: &Server) {
        rep.layer("serve.admit_us", median(&self.admit_us));
        rep.layer("serve.queue_ms", median(&self.queue_ms));
        rep.layer("serve.service_ms", median(&self.service_ms));
        rep.layer("serve.batch_size", self.mean_batch());
        let cs = server.cache_stats();
        rep.layer("serve.cache_hits", cs.hits as f64);
        rep.layer("serve.cache_misses", cs.misses as f64);
        rep.layer("serve.cache_evictions", cs.evictions as f64);
        rep.layer("serve.cache_waits", cs.waits as f64);
        let lookups = (cs.hits + cs.misses + cs.waits).max(1) as f64;
        rep.layer("serve.hit_ratio", cs.hits as f64 / lookups);
    }
}
