//! The traced run's span recorder. Spans are opened by the benchmark
//! around its own calls into each crate's public functions — nothing is
//! added inside the program. Each span has a name, start, end, parent
//! and the id of the request it belongs to; spans stay in memory and
//! are written out once, when the run ends.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One closed span. Times are nanoseconds since the tracer's epoch;
/// `parent == 0` marks a root.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Busy time of one span name: how many spans, and their summed self
/// time (duration minus what child spans cover).
#[derive(Clone, Copy, Debug, Default)]
pub struct LayerTime {
    pub count: u64,
    pub self_ns: u64,
}

impl LayerTime {
    /// Mean self time per span, in milliseconds.
    pub fn self_ms_per(&self) -> f64 {
        self.self_ns as f64 / 1e6 / self.count.max(1) as f64
    }
}

/// An in-memory span sink; disabled tracers record nothing.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    fn ns(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    /// A fresh span id (0 when disabled).
    pub fn next_id(&self) -> u64 {
        if self.enabled {
            self.next.fetch_add(1, Ordering::Relaxed)
        } else {
            0
        }
    }

    /// Records an already-measured interval under a pre-allocated id.
    pub fn record_as(
        &self,
        id: u64,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) {
        if !self.enabled {
            return;
        }
        let span = Span {
            id,
            parent,
            req,
            name,
            start_ns: self.ns(start),
            end_ns: self.ns(end),
        };
        self.spans.lock().expect("span list lock").push(span);
    }

    /// Records an already-measured interval; returns its id.
    pub fn record(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let id = self.next_id();
        self.record_as(id, name, parent, req, start, end);
        id
    }

    /// Runs `f` inside a span; `f` receives the span's id so it can
    /// parent nested spans. Returns `f`'s value and the wall time, which
    /// is measured whether or not the tracer is enabled.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> (R, Duration) {
        let id = self.next_id();
        let start = Instant::now();
        let r = f(id);
        let end = Instant::now();
        self.record_as(id, name, parent, req, start, end);
        (r, end - start)
    }

    /// Every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }

    /// Busy time per span name, with self time computed from the
    /// recorded parent links.
    pub fn layer_times(&self) -> BTreeMap<&'static str, LayerTime> {
        let spans = self.spans();
        let mut children: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
        for s in &spans {
            if s.parent != 0 {
                children
                    .entry(s.parent)
                    .or_default()
                    .push((s.start_ns, s.end_ns));
            }
        }
        let mut out: BTreeMap<&'static str, LayerTime> = BTreeMap::new();
        for s in &spans {
            let total = s.end_ns.saturating_sub(s.start_ns);
            let covered = children
                .get(&s.id)
                .map_or(0, |c| covered_ns(c, s.start_ns, s.end_ns));
            let e = out.entry(s.name).or_default();
            e.count += 1;
            e.self_ns += total.saturating_sub(covered);
        }
        out
    }

    /// Writes the spans as a Chrome trace-event document (one complete
    /// event per span; the request id is the thread lane).
    pub fn write_chrome(&self, path: &std::path::Path) -> std::io::Result<()> {
        use std::io::Write;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "{{\"traceEvents\":[")?;
        let spans = self.spans();
        for (i, s) in spans.iter().enumerate() {
            let sep = if i + 1 == spans.len() { "" } else { "," };
            writeln!(
                w,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{}}}}}{sep}",
                s.name,
                s.req,
                s.start_ns as f64 / 1e3,
                s.end_ns.saturating_sub(s.start_ns) as f64 / 1e3,
                s.id,
                s.parent,
            )?;
        }
        writeln!(w, "]}}")?;
        w.flush()
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`.
fn covered_ns(intervals: &[(u64, u64)], lo: u64, hi: u64) -> u64 {
    let mut v: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(a, b)| (a.max(lo), b.min(hi)))
        .filter(|&(a, b)| a < b)
        .collect();
    v.sort_unstable();
    let mut total = 0;
    let mut cur: Option<(u64, u64)> = None;
    for (a, b) in v {
        cur = match cur {
            Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
            Some((ca, cb)) => {
                total += cb - ca;
                Some((a, b))
            }
            None => Some((a, b)),
        };
    }
    if let Some((ca, cb)) = cur {
        total += cb - ca;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        assert_eq!(covered_ns(&[(0, 10), (5, 20), (30, 40)], 0, 35), 25);
        let t = Tracer::new(true);
        let e = t.epoch;
        let at = |ns: u64| e + Duration::from_nanos(ns);
        let root = t.record("root", 0, 1, at(0), at(100));
        t.record("child", root, 1, at(10), at(40));
        t.record("child", root, 1, at(30), at(50));
        let lt = t.layer_times();
        assert_eq!(lt["root"].self_ns, 60);
        assert_eq!(lt["child"].count, 2);
        assert_eq!(lt["child"].self_ns, 50);
    }

    #[test]
    fn disabled_tracer_records_nothing_but_still_times() {
        let t = Tracer::new(false);
        let (v, d) = t.span("x", 0, 0, |_| 7);
        assert_eq!(v, 7);
        assert!(d >= Duration::ZERO);
        assert!(t.spans().is_empty());
    }
}
