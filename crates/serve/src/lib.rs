//! The serving layer: a compiled-plan cache plus a continuous request
//! batcher, so the engine's batch throughput reaches single-query
//! clients.
//!
//! The engine below this crate is built for batches — SoA lanes pay off
//! from batch 8 and a compiled circuit is oblivious, so every instance
//! of the same (query, constraints, capacity) class runs the identical
//! instruction tape. But a *service* receives single queries from many
//! independent clients, each of which would naively pay the full
//! compile (seconds-to-minutes, BENCH_X18) and then evaluate alone.
//! This crate closes that gap with two mechanisms:
//!
//! * **A plan cache** ([`PlanCache`]): a sharded concurrent map from
//!   [`PlanKey`] — `(canonical CQ, degree-constraint signature,
//!   capacity bucket)` — to [`CompiledPlan`]s. Concurrent misses on one
//!   key are *single-flighted*: the first arrival compiles, the rest
//!   block on the same flight and share the result. Entries are evicted
//!   least-recently-used under a byte budget, and compiled tapes can be
//!   persisted via `WordTape::save` for warm starts.
//!
//! * **An admission/batching layer** ([`Server`]): requests enter a
//!   bounded queue (overflow is a typed [`ServeError::Overloaded`],
//!   never a silent drop; per-tenant in-flight quotas are enforced at
//!   admission) and worker threads coalesce queued requests against the
//!   same plan into one engine batch, flushing on batch-full or a
//!   deadline — continuous batching, in the style of modern inference
//!   servers.
//!
//! Everything is observable through `qec-obs`: cache hit/miss/evict
//! counters, batch-occupancy and queue-depth gauges, and a
//! compile-vs-evaluate span split.

mod cache;
mod key;
mod server;

pub use cache::{CacheStats, CompiledPlan, PlanCache};
pub use key::{bucket_n, canonical_dcs, dc_signature, PlanKey};
pub use server::{Request, Response, Server, ServerConfig, Ticket};

use std::fmt;

/// Typed serving errors. `Clone` because a failed single-flight compile
/// is broadcast to every request waiting on the flight.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The admission queue is full; the request was rejected, not
    /// dropped. Clients should back off and retry.
    Overloaded {
        /// Queue depth observed at rejection.
        queue_depth: usize,
    },
    /// The tenant exceeded its in-flight request quota.
    QuotaExceeded {
        /// The tenant.
        tenant: String,
        /// Requests currently in flight for the tenant.
        in_flight: usize,
        /// The configured quota.
        quota: usize,
    },
    /// The request's query failed to parse.
    Parse(String),
    /// Plan compilation failed (rendered `CompileError`/`EvalError`).
    Compile(String),
    /// The request's relations do not fit the plan's input layout
    /// (missing relation, schema mismatch, or capacity overflow).
    Layout(String),
    /// Evaluation failed (e.g. a data value collided with the reserved
    /// dummy encoding).
    Eval(String),
    /// Plan persistence (save/load) failed.
    Persist(String),
    /// The worker panicked while processing the request's batch. The
    /// worker survives and keeps serving; the request is not retried.
    Internal(String),
    /// The server is shutting down and dropped the request.
    ShuttingDown,
    /// The caller's deadline passed before the response arrived
    /// ([`Ticket::wait_deadline`] / [`Server::query_timeout`]). The
    /// request itself keeps running to completion server-side; only
    /// the wait is abandoned.
    Deadline {
        /// How long the caller waited.
        waited: std::time::Duration,
    },
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Overloaded { queue_depth } => {
                write!(f, "admission queue full (depth {queue_depth}); retry later")
            }
            ServeError::QuotaExceeded {
                tenant,
                in_flight,
                quota,
            } => write!(
                f,
                "tenant {tenant} has {in_flight} requests in flight (quota {quota})"
            ),
            ServeError::Parse(msg) => write!(f, "query parse error: {msg}"),
            ServeError::Compile(msg) => write!(f, "plan compilation failed: {msg}"),
            ServeError::Layout(msg) => write!(f, "request does not fit plan layout: {msg}"),
            ServeError::Eval(msg) => write!(f, "evaluation failed: {msg}"),
            ServeError::Persist(msg) => write!(f, "plan persistence failed: {msg}"),
            ServeError::Internal(msg) => write!(f, "internal serving error: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
            ServeError::Deadline { waited } => {
                write!(f, "deadline passed after waiting {waited:?}")
            }
        }
    }
}

impl std::error::Error for ServeError {}
