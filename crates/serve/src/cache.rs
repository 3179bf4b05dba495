//! The compiled-plan cache: sharded, single-flight, LRU-bounded, and
//! optionally persistent.
//!
//! Layout: [`SHARDS`] independent `Mutex<HashMap>` shards selected by a
//! stable FNV hash of the key, so concurrent requests for different
//! plans contend only when they collide on a shard. Each entry is
//! either `Ready` (an `Arc`ed plan plus an LRU tick) or `Building` (a
//! *flight* — see below). All locks are held only for map surgery;
//! compilation, the expensive part, always runs unlocked.
//!
//! **Single-flight.** The first thread to miss on a key installs a
//! `Building` entry and compiles; every other thread that arrives
//! meanwhile blocks on the flight's condvar and receives the same
//! `Arc<CompiledPlan>` (or the same error — failures are broadcast,
//! and the entry is removed so a later request can retry). N
//! concurrent misses on one key therefore cost exactly one compile,
//! which is what makes a cold cache survivable at high concurrency.
//!
//! **Eviction.** Ready entries carry the tick of their last use; when
//! the byte budget (sum of tape sizes) is exceeded after an insert, the
//! globally least-recently-used entry is evicted — scanning one shard
//! at a time, never holding two shard locks — until the cache fits.
//! The just-inserted key is protected so a plan larger than everything
//! else cannot evict itself.
//!
//! **Persistence.** With a persist directory configured, every
//! compiled plan is written through as `<fnv64>.wtape` (the existing
//! `WordTape` container) plus a `<fnv64>.plan` meta file carrying the
//! key, plan kind, layout, and output metadata. [`PlanCache::warm_start`]
//! reloads them, paying tape-decode + register allocation but skipping
//! parse/plan/lower — the compile-once, load-many path.

use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use qec_circuit::{CompileOptions, CompiledCircuit, InputLayout, WordTape};
use qec_core::PlanKind;
use qec_obs::Recorder;
use qec_relation::Var;

use crate::{PlanKey, ServeError};

/// Number of independent shards (must be a power of two).
pub const SHARDS: usize = 16;

/// A compiled, reusable plan: the engine plus the metadata needed to
/// bind a request's relations and decode its outputs. Shared as
/// `Arc<CompiledPlan>` (the engine is not cloneable and does not need
/// to be).
pub struct CompiledPlan {
    /// The key this plan was compiled under.
    pub key: PlanKey,
    /// Which construction a CQ plan came from; `None` for Datalog
    /// fixpoint plans.
    pub kind: Option<PlanKind>,
    /// The evaluation engine.
    pub engine: CompiledCircuit,
    /// Input layout (relation slots in circuit-input order).
    pub layout: InputLayout,
    /// Output metadata: `(schema, start, len)` into the raw outputs.
    pub outputs: Vec<(Vec<Var>, usize, usize)>,
    /// Size charged against the cache byte budget (serialized tape
    /// bytes — a stable, structure-proportional measure).
    pub plan_bytes: usize,
    /// Wall nanoseconds the compile took (0 for warm-started plans).
    pub compile_ns: u64,
}

impl std::fmt::Debug for CompiledPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CompiledPlan")
            .field("key", &self.key)
            .field("kind", &self.kind)
            .field("plan_bytes", &self.plan_bytes)
            .field("compile_ns", &self.compile_ns)
            .finish_non_exhaustive()
    }
}

/// Counters describing cache behavior since construction.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served by a ready entry.
    pub hits: u64,
    /// Lookups that compiled (one per single-flight group).
    pub misses: u64,
    /// Lookups that blocked on another thread's in-progress compile.
    pub waits: u64,
    /// Entries evicted by the byte budget.
    pub evictions: u64,
    /// Bytes currently resident.
    pub used_bytes: u64,
    /// Ready entries currently resident.
    pub entries: u64,
}

/// One in-progress compile that concurrent misses rendezvous on.
struct Flight {
    slot: Mutex<Option<Result<Arc<CompiledPlan>, ServeError>>>,
    cv: Condvar,
}

impl Flight {
    fn new() -> Flight {
        Flight {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn fulfill(&self, result: Result<Arc<CompiledPlan>, ServeError>) {
        // Poison-tolerant: this also runs from `AbandonOnUnwind::drop`,
        // where a second panic would abort. A poisoned slot still holds
        // a whole `Option`, so overwriting it is sound.
        *self.slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<CompiledPlan>, ServeError> {
        let mut slot = self.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.cv.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }
}

enum Entry {
    Ready {
        plan: Arc<CompiledPlan>,
        last_use: u64,
    },
    Building(Arc<Flight>),
}

/// Abandons a flight whose builder unwinds. Without it a panicking
/// `build` would leave its `Building` entry behind, and every later
/// request for the key would wait forever on a flight nobody fulfills.
/// Disarmed with `mem::forget` once `build` returns.
struct AbandonOnUnwind<'a> {
    cache: &'a PlanCache,
    key: &'a PlanKey,
    flight: &'a Arc<Flight>,
}

impl Drop for AbandonOnUnwind<'_> {
    fn drop(&mut self) {
        self.cache.abandon(
            self.key,
            self.flight,
            ServeError::Compile("plan compile panicked".into()),
        );
    }
}

/// The sharded single-flight LRU plan cache.
pub struct PlanCache {
    shards: Vec<Mutex<HashMap<PlanKey, Entry>>>,
    /// Byte budget for ready entries; 0 disables eviction.
    budget: usize,
    /// Monotonic LRU clock.
    tick: AtomicU64,
    used: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    waits: AtomicU64,
    evictions: AtomicU64,
    persist_dir: Option<PathBuf>,
    recorder: Recorder,
}

impl PlanCache {
    /// A cache with the given byte budget (0 = unlimited), optional
    /// persistence directory (created on demand), and observability
    /// sink (`serve.cache.{hit,miss,wait,evict}` counters and a
    /// `serve.cache.bytes` gauge).
    pub fn new(budget: usize, persist_dir: Option<PathBuf>, recorder: Recorder) -> PlanCache {
        PlanCache {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            budget,
            tick: AtomicU64::new(0),
            used: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            waits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            persist_dir,
            recorder,
        }
    }

    fn shard(&self, key: &PlanKey) -> &Mutex<HashMap<PlanKey, Entry>> {
        &self.shards[(key.fnv64() as usize) & (SHARDS - 1)]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Returns the plan for `key`, compiling it with `build` exactly
    /// once across all concurrent callers. The second return is `true`
    /// when no compile ran for this caller (ready hit or single-flight
    /// wait). `build` runs with no locks held.
    ///
    /// A failed build is broadcast to every waiter and the entry is
    /// removed, so a subsequent request retries the compile. A build
    /// that panics is handled the same way — waiters get a
    /// [`ServeError::Compile`] — and the panic then continues in the
    /// caller.
    pub fn get_or_compile<F>(
        &self,
        key: &PlanKey,
        build: F,
    ) -> Result<(Arc<CompiledPlan>, bool), ServeError>
    where
        F: FnOnce() -> Result<CompiledPlan, ServeError>,
    {
        // Decide under the shard lock: hit, wait, or become the builder.
        enum Action {
            Wait(Arc<Flight>),
            Build(Arc<Flight>),
        }
        let action = {
            let mut map = self.shard(key).lock().unwrap();
            match map.get_mut(key) {
                Some(Entry::Ready { plan, last_use }) => {
                    *last_use = self.next_tick();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    self.recorder.add("serve.cache.hit", 1);
                    return Ok((plan.clone(), true));
                }
                Some(Entry::Building(flight)) => Action::Wait(flight.clone()),
                None => {
                    let flight = Arc::new(Flight::new());
                    map.insert(key.clone(), Entry::Building(flight.clone()));
                    Action::Build(flight)
                }
            }
        };

        match action {
            Action::Wait(flight) => {
                self.waits.fetch_add(1, Ordering::Relaxed);
                self.recorder.add("serve.cache.wait", 1);
                self.recorder.add("serve.cache.hit", 1);
                flight.wait().map(|plan| (plan, true))
            }
            Action::Build(flight) => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                self.recorder.add("serve.cache.miss", 1);
                let guard = AbandonOnUnwind {
                    cache: self,
                    key,
                    flight: &flight,
                };
                let built = build();
                std::mem::forget(guard);
                match built {
                    Ok(plan) => {
                        let plan = Arc::new(plan);
                        let bytes = plan.plan_bytes as u64;
                        {
                            let mut map = self.shard(key).lock().unwrap();
                            map.insert(
                                key.clone(),
                                Entry::Ready {
                                    plan: plan.clone(),
                                    last_use: self.next_tick(),
                                },
                            );
                        }
                        self.used.fetch_add(bytes, Ordering::Relaxed);
                        flight.fulfill(Ok(plan.clone()));
                        self.evict(key);
                        self.recorder
                            .gauge_set("serve.cache.bytes", self.used.load(Ordering::Relaxed));
                        Ok((plan, false))
                    }
                    Err(e) => {
                        self.abandon(key, &flight, e.clone());
                        Err(e)
                    }
                }
            }
        }
    }

    /// Ends a failed flight: removes the builder's own `Building` entry
    /// (a replacement inserted meanwhile stays) so the next request
    /// retries, and hands `err` to every waiter. Poison-tolerant like
    /// [`Flight::fulfill`], for the same reason: removing one key leaves
    /// a poisoned map valid.
    fn abandon(&self, key: &PlanKey, flight: &Arc<Flight>, err: ServeError) {
        {
            let mut map = self
                .shard(key)
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            if matches!(map.get(key), Some(Entry::Building(f)) if Arc::ptr_eq(f, flight)) {
                map.remove(key);
            }
        }
        flight.fulfill(Err(err));
    }

    /// Evicts least-recently-used ready entries until the byte budget
    /// is respected. `protect` (the key just inserted) is never
    /// evicted, so one oversized plan cannot thrash itself. Holds at
    /// most one shard lock at a time.
    fn evict(&self, protect: &PlanKey) {
        if self.budget == 0 {
            return;
        }
        while self.used.load(Ordering::Relaxed) > self.budget as u64 {
            // Find the globally oldest ready entry.
            let mut victim: Option<(usize, PlanKey, u64)> = None;
            for (si, shard) in self.shards.iter().enumerate() {
                let map = shard.lock().unwrap();
                for (k, e) in map.iter() {
                    if let Entry::Ready { last_use, .. } = e {
                        if k != protect && victim.as_ref().is_none_or(|v| *last_use < v.2) {
                            victim = Some((si, k.clone(), *last_use));
                        }
                    }
                }
            }
            let Some((si, k, tick)) = victim else {
                return; // nothing evictable (only the protected entry)
            };
            let mut map = self.shards[si].lock().unwrap();
            // Re-check under the lock: the entry may have been touched
            // or replaced since the scan.
            let still_oldest = matches!(
                map.get(&k),
                Some(Entry::Ready { last_use, .. }) if *last_use == tick
            );
            if still_oldest {
                if let Some(Entry::Ready { plan, .. }) = map.remove(&k) {
                    self.used
                        .fetch_sub(plan.plan_bytes as u64, Ordering::Relaxed);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                    self.recorder.add("serve.cache.evict", 1);
                }
            }
            // If it was touched meanwhile, loop and pick a new victim.
        }
    }

    /// Current counters.
    pub fn stats(&self) -> CacheStats {
        let mut entries = 0u64;
        for shard in &self.shards {
            let map = shard.lock().unwrap();
            entries += map
                .values()
                .filter(|e| matches!(e, Entry::Ready { .. }))
                .count() as u64;
        }
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            waits: self.waits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            used_bytes: self.used.load(Ordering::Relaxed),
            entries,
        }
    }

    // ------------------------------------------------------------------
    // Persistence
    // ------------------------------------------------------------------

    /// Writes a plan's tape + meta to the persist directory (no-op
    /// without one). Called by the server on every fresh compile;
    /// eviction does *not* delete persisted files — disk is the warm
    /// tier the next process starts from.
    pub fn persist(&self, plan: &CompiledPlan, tape: &WordTape) -> Result<(), ServeError> {
        let Some(dir) = &self.persist_dir else {
            return Ok(());
        };
        std::fs::create_dir_all(dir).map_err(|e| ServeError::Persist(e.to_string()))?;
        let stem = format!("{:016x}", plan.key.fnv64());
        tape.save(dir.join(format!("{stem}.wtape")))
            .map_err(|e| ServeError::Persist(e.to_string()))?;
        let mut meta = String::new();
        meta.push_str("qec-plan v1\n");
        meta.push_str(&format!("query {}\n", plan.key.query));
        meta.push_str(&format!("dcsig {}\n", plan.key.dc_sig));
        meta.push_str(&format!("nbucket {}\n", plan.key.n_bucket));
        meta.push_str(&format!("depth {}\n", plan.key.fixpoint_depth));
        if let Some(kind) = plan.kind {
            meta.push_str(&format!("plan {kind}\n"));
        }
        for (name, schema, cap) in plan.layout.entries() {
            let vars: Vec<String> = schema.iter().map(|v| v.index().to_string()).collect();
            meta.push_str(&format!("layout {name} {cap} {}\n", vars.join(",")));
        }
        for (schema, start, len) in &plan.outputs {
            let vars: Vec<String> = schema.iter().map(|v| v.index().to_string()).collect();
            // `-` marks an empty (Boolean) schema: the field must be
            // present for the line to parse.
            let field = if vars.is_empty() {
                "-".to_string()
            } else {
                vars.join(",")
            };
            meta.push_str(&format!("output {start} {len} {field}\n"));
        }
        std::fs::write(dir.join(format!("{stem}.plan")), meta)
            .map_err(|e| ServeError::Persist(e.to_string()))
    }

    /// Loads every persisted plan from the persist directory, compiling
    /// tapes under `opts`. Returns the number of plans loaded. Corrupt
    /// or unreadable entries are skipped (a warm start must never be
    /// worse than a cold one), and so are CQ metas without a `plan`
    /// line: they predate plan choice and always hold the naive
    /// circuit, so their keys recompile to the chosen plan.
    pub fn warm_start(&self, opts: &CompileOptions) -> usize {
        let Some(dir) = self.persist_dir.clone() else {
            return 0;
        };
        let Ok(read) = std::fs::read_dir(&dir) else {
            return 0;
        };
        let mut loaded = 0;
        for entry in read.flatten() {
            let path = entry.path();
            if path.extension().and_then(|e| e.to_str()) != Some("plan") {
                continue;
            }
            let Ok(meta) = std::fs::read_to_string(&path) else {
                continue;
            };
            let Some(plan) = parse_meta(&meta) else {
                continue;
            };
            if plan.key.fixpoint_depth == 0 && plan.kind.is_none() {
                continue;
            }
            let tape_path = path.with_extension("wtape");
            let Ok(tape) = WordTape::load(&tape_path) else {
                continue;
            };
            let Ok((engine, _report)) = CompiledCircuit::compile_tape_with(&tape, opts) else {
                continue;
            };
            let plan_bytes = tape.to_bytes().len();
            let key = plan.key.clone();
            let compiled = Arc::new(CompiledPlan {
                key: key.clone(),
                kind: plan.kind,
                engine,
                layout: plan.layout,
                outputs: plan.outputs,
                plan_bytes,
                compile_ns: 0,
            });
            let mut map = self.shard(&key).lock().unwrap();
            if !map.contains_key(&key) {
                map.insert(
                    key.clone(),
                    Entry::Ready {
                        plan: compiled,
                        last_use: self.next_tick(),
                    },
                );
                drop(map);
                self.used.fetch_add(plan_bytes as u64, Ordering::Relaxed);
                self.evict(&key);
                loaded += 1;
            }
        }
        self.recorder.add("serve.cache.warm_loaded", loaded as u64);
        loaded
    }
}

/// Parsed meta file: the key plus layout/output metadata (no engine).
struct PlanMeta {
    key: PlanKey,
    kind: Option<PlanKind>,
    layout: InputLayout,
    outputs: Vec<(Vec<Var>, usize, usize)>,
}

fn parse_meta(meta: &str) -> Option<PlanMeta> {
    let mut lines = meta.lines();
    if lines.next()? != "qec-plan v1" {
        return None;
    }
    let mut query = None;
    let mut dc_sig = None;
    let mut n_bucket = None;
    // Absent in metas written before Datalog plans existed: a plain CQ.
    let mut fixpoint_depth = 0;
    let mut kind = None;
    let mut layout = Vec::new();
    let mut outputs = Vec::new();
    for line in lines {
        let (tag, rest) = line.split_once(' ')?;
        match tag {
            "query" => query = Some(rest.to_string()),
            "dcsig" => dc_sig = Some(rest.to_string()),
            "nbucket" => n_bucket = Some(rest.parse::<u64>().ok()?),
            "depth" => fixpoint_depth = rest.parse::<u64>().ok()?,
            "plan" => kind = Some(PlanKind::parse(rest)?),
            "layout" => {
                let mut parts = rest.splitn(3, ' ');
                let name = parts.next()?.to_string();
                let cap = parts.next()?.parse::<usize>().ok()?;
                let vars = parse_vars(parts.next()?)?;
                layout.push((name, vars, cap));
            }
            "output" => {
                let mut parts = rest.splitn(3, ' ');
                let start = parts.next()?.parse::<usize>().ok()?;
                let len = parts.next()?.parse::<usize>().ok()?;
                let vars = parse_vars(parts.next()?)?;
                outputs.push((vars, start, len));
            }
            _ => return None,
        }
    }
    Some(PlanMeta {
        key: PlanKey {
            query: query?,
            dc_sig: dc_sig?,
            n_bucket: n_bucket?,
            fixpoint_depth,
        },
        kind,
        layout: InputLayout::from_entries(layout),
        outputs,
    })
}

fn parse_vars(field: &str) -> Option<Vec<Var>> {
    if field == "-" || field.is_empty() {
        return Some(Vec::new());
    }
    field
        .split(',')
        .map(|s| s.parse::<u32>().ok().map(Var))
        .collect()
}
