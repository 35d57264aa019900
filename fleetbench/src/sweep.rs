//! One timed `run_sweep` in the current process, plus its output
//! checks. The benchmark runs each of these in a fresh child process
//! (see `main.rs`), so every sample is cold: training memo empty,
//! telemetry off unless the sweep is observed.

use std::path::Path;
use std::time::Instant;

use usta_fleet::{run_sweep, FleetReport, SweepConfig};

use crate::workload::{self, Workload};

/// What one child sweep is asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SweepSpec {
    /// The workload whose configuration runs.
    pub workload: Workload,
    /// The workload seed.
    pub seed: u64,
    /// Worker threads ([`workload::THREADS`], or two for the
    /// cross-thread output check).
    pub threads: usize,
    /// Turn observation on (telemetry, trace directory, metrics JSON).
    pub observed: bool,
    /// Set-up only: 1 user, 1 scenario, one 100 ms step — still trains
    /// every configured device and loads the catalog.
    pub setup_only: bool,
}

impl SweepSpec {
    /// The workload's own sweep.
    pub fn of(workload: Workload, seed: u64) -> SweepSpec {
        SweepSpec {
            workload,
            seed,
            threads: workload::THREADS,
            observed: workload.observed(),
            setup_only: false,
        }
    }

    /// Triples the sweep attempts.
    pub fn triples(&self) -> u64 {
        if self.setup_only {
            1
        } else {
            self.workload.triples() as u64
        }
    }
}

/// One finished child sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepSample {
    /// Wall seconds from the first set-up call to the finished report
    /// (and, when observed, the written metrics JSON).
    pub wall_s: f64,
    /// Simulated user-seconds the sweep covered.
    pub sim_seconds: f64,
    /// Triples attempted.
    pub triples: u64,
    /// Peak resident set of the process, KiB.
    pub peak_rss_kb: u64,
    /// FNV-1a digest of the report text and, when observed, of every
    /// file in the trace directory.
    pub digest: u64,
    /// Bytes written under the trace directory.
    pub dump_bytes: u64,
    /// `flight-*.json` triage dumps written under the trace directory.
    pub flight_dumps: u64,
    /// `None` when every output check passed, else the first failure.
    pub failure: Option<String>,
}

impl SweepSample {
    /// The one-line wire form a child prints for its parent.
    pub fn to_line(&self) -> String {
        format!(
            "fleetbench-sample wall_s={} sim_seconds={} triples={} peak_rss_kb={} digest={} \
             dump_bytes={} flight_dumps={} failure={}",
            self.wall_s,
            self.sim_seconds,
            self.triples,
            self.peak_rss_kb,
            self.digest,
            self.dump_bytes,
            self.flight_dumps,
            self.failure.as_deref().unwrap_or("-"),
        )
    }

    /// Parses [`SweepSample::to_line`]'s output; `failure` runs to the
    /// end of the line.
    pub fn from_line(line: &str) -> Option<SweepSample> {
        let rest = line.strip_prefix("fleetbench-sample ")?;
        let (fields, failure) = rest.split_once(" failure=")?;
        let mut values = std::collections::HashMap::new();
        for field in fields.split(' ') {
            let (key, value) = field.split_once('=')?;
            values.insert(key, value);
        }
        let get = |key: &str| values.get(key).copied();
        Some(SweepSample {
            wall_s: get("wall_s")?.parse().ok()?,
            sim_seconds: get("sim_seconds")?.parse().ok()?,
            triples: get("triples")?.parse().ok()?,
            peak_rss_kb: get("peak_rss_kb")?.parse().ok()?,
            digest: get("digest")?.parse().ok()?,
            dump_bytes: get("dump_bytes")?.parse().ok()?,
            flight_dumps: get("flight_dumps")?.parse().ok()?,
            failure: (failure != "-").then(|| failure.to_owned()),
        })
    }
}

/// The configuration a spec sweeps (catalog already installed when the
/// workload needs it); `trace_dir` receives the observation sinks.
pub fn config_for(spec: &SweepSpec, trace_dir: &Path) -> SweepConfig {
    let mut config = spec.workload.config(spec.seed);
    config.threads = spec.threads;
    if spec.observed {
        config.trace_dir = Some(trace_dir.to_path_buf());
        // Triage dumps every triple, each ring keeping the last 64
        // windows. At the default thresholds (512 windows, dump at 2 %
        // time over limit) the dumps depend on which four scenarios the
        // seed samples: 0 to 400 dumps, 0 to 70 MB at seeds 42-47, which
        // swings the observed sweep's cost and memory by seed. Every
        // triple at 64 windows writes about as much as seed 42 does at
        // the defaults (17 MB against 15 MB), at every seed.
        config.flight_windows = 64;
        config.triage_over_fraction = 0.0;
    }
    if spec.setup_only {
        config.users = 1;
        config.scenarios = 1;
        config.max_sim_seconds = 0.1;
    }
    config
}

/// Runs the spec's sweep in this process, timing set-up and sweep
/// together, then checks the outputs. `scratch` must be a fresh
/// directory; the trace sinks write under it.
///
/// Observation enables the process-global telemetry sink for good, so
/// an observed spec must run in a process of its own.
pub fn run_in_process(spec: &SweepSpec, scratch: &Path) -> SweepSample {
    let trace_dir = scratch.join("trace");
    let started = Instant::now();
    let outcome = (|| -> Result<(FleetReport, SweepConfig), String> {
        if spec.workload.uses_catalog() {
            workload::install_catalog()?;
        }
        if spec.observed {
            usta_telemetry::enable();
        }
        let config = config_for(spec, &trace_dir);
        let report = run_sweep(&config).map_err(|e| e.to_string())?;
        if spec.observed {
            std::fs::write(
                scratch.join("metrics.json"),
                usta_telemetry::global().to_json(),
            )
            .map_err(|e| format!("metrics json: {e}"))?;
        }
        Ok((report, config))
    })();
    let wall_s = started.elapsed().as_secs_f64();

    let mut sample = SweepSample {
        wall_s,
        sim_seconds: 0.0,
        triples: spec.triples(),
        peak_rss_kb: peak_rss_kb().unwrap_or(0),
        digest: 0,
        dump_bytes: 0,
        flight_dumps: 0,
        failure: None,
    };
    match outcome {
        Ok((report, config)) => {
            sample.sim_seconds = report.aggregate.sim_seconds;
            let mut digest = Fnv::new();
            digest.write(report.summary().as_bytes());
            if spec.observed {
                match digest_dir(&trace_dir, &mut digest) {
                    Ok((bytes, flights)) => {
                        sample.dump_bytes = bytes;
                        sample.flight_dumps = flights;
                    }
                    Err(e) => sample.failure = Some(format!("trace dir: {e}")),
                }
            }
            sample.digest = digest.0;
            if sample.failure.is_none() {
                sample.failure = check_report(&config, &report).err();
            }
        }
        Err(message) => sample.failure = Some(format!("sweep failed: {message}")),
    }
    sample
}

/// The output checks every sweep must pass: the triple count, and the
/// step count against the sum of the triples' durations.
///
/// # Errors
///
/// Returns the first check that failed.
pub fn check_report(config: &SweepConfig, report: &FleetReport) -> Result<(), String> {
    let expected = (config.users * config.scenarios) as u64;
    if report.aggregate.triples != expected {
        return Err(format!(
            "aggregate.triples {} != users x scenarios {expected}",
            report.aggregate.triples
        ));
    }
    let catalog = workload::scenario_catalog(config)?;
    let steps = workload::expected_steps(config, &catalog);
    if report.aggregate.work.steps != steps {
        return Err(format!(
            "work.steps {} != sum of triple durations / 0.1 s = {steps}",
            report.aggregate.work.steps
        ));
    }
    Ok(())
}

/// Folds every file under `dir` (sorted by name) into `digest`;
/// returns the total bytes and the number of `flight-*.json` dumps.
fn digest_dir(dir: &Path, digest: &mut Fnv) -> std::io::Result<(u64, u64)> {
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .map(|entry| entry.map(|e| e.path()))
        .collect::<Result<_, _>>()?;
    paths.sort();
    let (mut bytes, mut flights) = (0u64, 0u64);
    for path in paths {
        let name = path.file_name().unwrap_or_default().to_string_lossy();
        if name.starts_with("flight-") && name.ends_with(".json") {
            flights += 1;
        }
        let contents = std::fs::read(&path)?;
        digest.write(name.as_bytes());
        digest.write(&contents);
        bytes += contents.len() as u64;
    }
    Ok((bytes, flights))
}

/// Peak resident set size of this process (`VmHWM`), KiB.
fn peak_rss_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// 64-bit FNV-1a, enough to compare outputs across runs.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}
