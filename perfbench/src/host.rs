//! Facts about the host and the source tree, printed with every run so a
//! number can be traced to the machine and revision that produced it.

use std::collections::BTreeMap;
use std::path::Path;

/// Peak resident set size of this process so far, in MiB.
pub fn peak_rss_mib() -> f64 {
    qec_obs::peak_rss_bytes().map_or(f64::NAN, |b| b as f64 / (1024.0 * 1024.0))
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into())
}

/// The revision of the checkout the benchmark runs in, read from
/// `.git` without running git; "unknown" outside a git checkout.
fn git_revision(root: &Path) -> String {
    let git = root.join(".git");
    let read = |p: &Path| {
        std::fs::read_to_string(p)
            .ok()
            .map(|s| s.trim().to_string())
    };
    let Some(head) = read(&git.join("HEAD")) else {
        return "unknown".into();
    };
    let Some(r) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Some(rev) = read(&git.join(r)) {
        return rev;
    }
    read(&git.join("packed-refs"))
        .and_then(|p| {
            p.lines()
                .find(|l| l.ends_with(r))
                .and_then(|l| l.split_whitespace().next())
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unknown".into())
}

/// Host cores, CPU model, the BitEngine kernel this CPU selects, and the
/// git revision of the current directory.
pub fn facts() -> BTreeMap<&'static str, String> {
    let mut m = BTreeMap::new();
    m.insert(
        "host.cores",
        std::thread::available_parallelism()
            .map_or(0, |n| n.get())
            .to_string(),
    );
    m.insert("host.cpu", cpu_model());
    m.insert(
        "host.bitengine_kernel",
        qec_circuit::BitKernel::from_env_or_detect()
            .name()
            .to_string(),
    );
    m.insert("git.revision", git_revision(Path::new(".")));
    m
}
