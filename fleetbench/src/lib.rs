//! # fleetbench — the USTA fleet benchmark
//!
//! End-to-end metrics come from untraced `usta_fleet::run_sweep` calls,
//! one fresh child process per sweep ([`sweep`]). Per-layer metrics come
//! from a separate traced run ([`layers`]) whose spans wrap calls into
//! each crate's public functions from this package's own step-loop copy
//! ([`traced`]). End-to-end times are scaled to one host speed by a
//! benchmark-owned probe ([`probe`]) timed between the sweeps. See
//! `README.md` for the workloads and metrics.

#![forbid(unsafe_code)]

pub mod layers;
pub mod metrics;
pub mod probe;
pub mod stats;
pub mod sweep;
pub mod traced;
pub mod workload;

use std::path::Path;

/// The machine and build a result was measured on, as one JSON object:
/// `nproc`, CPU model, `rustc -V`, git commit, workload, seed, threads.
pub fn context_json(workload: &str, seed: u64, threads: usize) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, model)| model.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let rustc = std::process::Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    let commit = git_commit(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git"))
        .unwrap_or_else(|| "unknown (not a git checkout)".to_owned());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"rustc\": {}, \"commit\": {}, \"workload\": {}, \
         \"seed\": {seed}, \"threads\": {threads}}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&commit),
        json_string(workload),
    )
}

/// The commit `HEAD` names, read from the `.git` directory itself (no
/// `git` process, so nothing outside the checkout is searched).
fn git_commit(git_dir: &Path) -> Option<String> {
    let head = std::fs::read_to_string(git_dir.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_owned());
    };
    if let Ok(hash) = std::fs::read_to_string(git_dir.join(reference)) {
        return Some(hash.trim().to_owned());
    }
    let packed = std::fs::read_to_string(git_dir.join("packed-refs")).ok()?;
    packed
        .lines()
        .filter_map(|line| line.split_once(' '))
        .find(|&(_, name)| name == reference)
        .map(|(hash, _)| hash.to_owned())
}

/// A JSON string literal.
fn json_string(text: &str) -> String {
    let mut out = String::from("\"");
    for c in text.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if c.is_control() => out.push(' '),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
