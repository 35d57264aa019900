//! Thread-count invariance of every sweep artifact, as properties.
//!
//! The fleet runner's contract is that the report, the `triples.csv`
//! trace, and every triaged flight dump are pure functions of the
//! [`SweepConfig`] minus `threads` — the thread count only changes
//! *which worker* runs a chunk, never what any chunk computes or the
//! order partials merge. These tests drive that claim across
//! proptest-generated uneven sweep shapes at threads 1, 2, and 4.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};

use proptest::prelude::*;
use usta_fleet::{run_sweep, FleetReport, SweepConfig};

/// Monotonic run id so every (case, thread-count) pair writes into its
/// own scratch directory.
static RUN_ID: AtomicUsize = AtomicUsize::new(0);

/// Every artifact one sweep produces: the report, the summary text,
/// and each trace-dir file's bytes keyed by file name.
#[derive(Debug, PartialEq)]
struct SweepArtifacts {
    report: FleetReport,
    summary: String,
    files: BTreeMap<String, Vec<u8>>,
}

fn read_dir_bytes(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for entry in std::fs::read_dir(dir).expect("trace dir exists") {
        let entry = entry.expect("dir entry");
        let name = entry.file_name().into_string().expect("utf-8 file name");
        files.insert(name, std::fs::read(entry.path()).expect("file reads"));
    }
    files
}

fn sweep_artifacts(base: &SweepConfig, threads: usize) -> SweepArtifacts {
    let run = RUN_ID.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!(
        "usta_sched_props_{}_{run}_t{threads}",
        std::process::id()
    ));
    let mut config = base.clone();
    config.threads = threads;
    config.trace_dir = Some(dir.clone());
    let report = run_sweep(&config).expect("sweep runs");
    let summary = report.summary();
    let files = read_dir_bytes(&dir);
    std::fs::remove_dir_all(&dir).ok();
    SweepArtifacts {
        report,
        summary,
        files,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random uneven sweep shapes — user counts that don't divide the
    /// chunk size, chunk sizes that straddle the per-device scenario
    /// count, varied per-triple caps and triage thresholds — produce
    /// byte-identical reports, `triples.csv`, and flight dumps at
    /// threads 1, 2, and 4.
    #[test]
    fn any_thread_count_reproduces_the_single_thread_artifacts(
        users in 2usize..6,
        chunk_size in 1usize..6,
        max_sim in proptest::sample::select(vec![15.0f64, 30.0, 45.0]),
        triage_over in proptest::sample::select(vec![0.0f64, 0.02, 0.5]),
    ) {
        let mut base = SweepConfig::smoke();
        base.users = users;
        base.chunk_size = chunk_size;
        base.max_sim_seconds = max_sim;
        base.triage_over_fraction = triage_over;
        let reference = sweep_artifacts(&base, 1);
        prop_assert!(
            reference.files.contains_key("triples.csv"),
            "trace sink always writes the summary CSV"
        );
        for threads in [2usize, 4] {
            let got = sweep_artifacts(&base, threads);
            prop_assert_eq!(&got, &reference, "threads {}", threads);
        }
    }
}
