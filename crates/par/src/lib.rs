//! The worker-count knob: `QEC_THREADS`, parsed once and validated.
//!
//! The compile pipeline is sequential; the one reader of this crate is
//! `qec-serve`, which sizes its worker threads from
//! [`Pool::from_env`]. A malformed value falls back to the machine's
//! parallelism, loudly (see [`Pool::from_env`]).

/// Environment variable controlling the worker count returned by
/// [`Pool::from_env`]: unset or unparsable means
/// `std::thread::available_parallelism()`.
pub const THREADS_ENV: &str = "QEC_THREADS";

/// A worker count. `Pool` is deliberately trivial to copy and keep
/// around: it owns no threads; callers spawn their own.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Pool {
    /// A pool running `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        Pool {
            threads: threads.max(1),
        }
    }

    /// The one-worker pool.
    pub fn sequential() -> Self {
        Pool { threads: 1 }
    }

    /// Worker count from the environment: `QEC_THREADS` if set to a
    /// positive integer (surrounding whitespace tolerated), otherwise
    /// `std::thread::available_parallelism()` (1 if even that is
    /// unavailable).
    ///
    /// A set-but-invalid value (`"0"`, `"abc"`, the empty string) also
    /// falls back — but loudly: one stderr note per process plus a
    /// `pool.threads_env_invalid` counter on the global recorder, so a
    /// typo in a job script can't silently grab every core (or silently
    /// serialize a sweep).
    pub fn from_env() -> Self {
        let threads = match std::env::var(THREADS_ENV) {
            Ok(raw) => match parse_threads(&raw) {
                Some(n) => n,
                None => {
                    warn_invalid_threads(&raw);
                    default_threads()
                }
            },
            Err(_) => default_threads(),
        };
        Pool::new(threads)
    }

    /// The number of workers this pool runs.
    pub fn threads(&self) -> usize {
        self.threads
    }
}

/// What `QEC_THREADS` accepts: a positive integer, ignoring surrounding
/// whitespace. `None` for anything else — zero, garbage, empty.
pub(crate) fn parse_threads(raw: &str) -> Option<usize> {
    raw.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// One-time (per process) diagnostic for an invalid `QEC_THREADS`: a
/// stderr note and a `pool.threads_env_invalid` bump on the global
/// recorder. `from_env` can run thousands of times in a sweep, so the
/// note must not repeat; the counter fires with it.
fn warn_invalid_threads(raw: &str) {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        eprintln!(
            "warning: {THREADS_ENV}={raw:?} is not a positive integer; \
             falling back to available_parallelism()"
        );
        qec_obs::global().add("pool.threads_env_invalid", 1);
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamps_to_one_worker() {
        assert_eq!(Pool::new(0).threads(), 1);
        assert_eq!(Pool::new(7).threads(), 7);
    }

    #[test]
    fn parse_threads_accepts_positive_integers_only() {
        // The satellite quartet: "0", "abc", " 4 ", and empty.
        assert_eq!(parse_threads("0"), None);
        assert_eq!(parse_threads("abc"), None);
        assert_eq!(parse_threads(" 4 "), Some(4), "whitespace stays tolerated");
        assert_eq!(parse_threads(""), None);
        assert_eq!(parse_threads("1"), Some(1));
        assert_eq!(parse_threads("16"), Some(16));
        assert_eq!(parse_threads("-3"), None);
        assert_eq!(parse_threads("4.0"), None);
    }

    /// One test (not several) because the invalid-env warning is gated by
    /// a per-process `Once`: the recorder must be installed before the
    /// first garbage `from_env` call in the process.
    #[test]
    fn from_env_honors_padded_value_and_warns_once_on_garbage() {
        let rec = qec_obs::Recorder::new(true);
        let old = qec_obs::install(rec.clone());
        let prior = std::env::var(THREADS_ENV).ok();

        std::env::set_var(THREADS_ENV, " 4 ");
        assert_eq!(Pool::from_env().threads(), 4);
        let fallback = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        for bad in ["0", "abc", ""] {
            std::env::set_var(THREADS_ENV, bad);
            assert_eq!(Pool::from_env().threads(), fallback, "input {bad:?}");
        }

        match prior {
            Some(v) => std::env::set_var(THREADS_ENV, v),
            None => std::env::remove_var(THREADS_ENV),
        }
        qec_obs::install(old);
        assert_eq!(
            rec.snapshot()
                .counters
                .get("pool.threads_env_invalid")
                .copied(),
            Some(1),
            "exactly one warning per process, even across three bad values"
        );
    }
}
