//! The benchmark command.
//!
//! ```text
//! fleetbench --workload <ref_nexus4|mixed_fleet|observed_sweep> \
//!            [--seed 42] [--seconds 40] [--trace 0|1]
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: one cross-thread check
//! sweep, then for `--seconds` full sweeps, each followed by cold
//! set-up sweeps, every sweep in a fresh child process, with the host
//! probe timed after each sweep. `--trace 1`
//! runs the traced per-layer pass instead, a fixed amount of work that
//! `--seconds` does not change. Either way the last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use fleetbench::metrics::{result_line, Metrics, END_TO_END, PER_LAYER};
use fleetbench::probe::HostSpeed;
use fleetbench::stats::{interquartile_mean, median, quartiles};
use fleetbench::sweep::{self, SweepSample, SweepSpec};
use fleetbench::workload::Workload;
use fleetbench::{context_json, layers};

/// Cold set-up sweeps after each timed sweep, so that set-up is sampled
/// across the whole run, as throughput is.
const SETUPS_PER_SWEEP: usize = 3;
/// Fewest timed sweeps an end-to-end run makes, whatever `--seconds`.
const MIN_SWEEPS: u32 = 3;
/// Host-probe time after each sweep, as a share of the sweep's wall.
const PROBE_SHARE: f64 = 0.25;

fn usage() -> &'static str {
    "usage: fleetbench --workload <ref_nexus4|mixed_fleet|observed_sweep> \
     [--seed N] [--seconds S] [--trace 0|1]"
}

/// Flag values by name, from `--flag value` pairs.
fn parse_flags(args: &[String]) -> Result<Vec<(String, String)>, String> {
    let mut flags = Vec::new();
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let name = flag
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {flag:?}"))?;
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.push((name.to_owned(), value.clone()));
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(
    flags: &[(String, String)],
    name: &str,
    default: Option<T>,
) -> Result<T, String> {
    match flags.iter().rev().find(|(n, _)| n == name) {
        Some((_, value)) => value
            .parse()
            .map_err(|_| format!("--{name}: cannot parse {value:?}")),
        None => default.ok_or_else(|| format!("--{name} is required")),
    }
}

fn workload_flag(flags: &[(String, String)]) -> Result<Workload, String> {
    let name: String = flag(flags, "workload", None)?;
    Workload::from_name(&name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// Spawns this executable as a child that runs one sweep in a fresh
/// scratch directory, waits for it, and parses its sample line.
struct Spawner {
    exe: PathBuf,
    scratch: PathBuf,
    children: usize,
}

impl Spawner {
    fn run(&mut self, spec: &SweepSpec) -> Result<SweepSample, String> {
        let dir = self.scratch.join(format!("child-{}", self.children));
        self.children += 1;
        std::fs::create_dir_all(&dir).map_err(|e| format!("scratch {}: {e}", dir.display()))?;
        let output = Command::new(&self.exe)
            .args([
                "--child",
                "1",
                "--workload",
                spec.workload.name(),
                "--seed",
                &spec.seed.to_string(),
                "--threads",
                &spec.threads.to_string(),
                "--observed",
                &u8::from(spec.observed).to_string(),
                "--setup-only",
                &u8::from(spec.setup_only).to_string(),
                "--scratch",
            ])
            .arg(&dir)
            .stdin(Stdio::null())
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("spawning a sweep: {e}"));
        let _ = std::fs::remove_dir_all(&dir);
        let output = output?;
        let stdout = String::from_utf8_lossy(&output.stdout);
        match stdout.lines().find_map(SweepSample::from_line) {
            Some(sample) if output.status.success() => Ok(sample),
            _ => Err(format!(
                "{} sweep exited with {} and no sample",
                spec.workload.name(),
                output.status
            )),
        }
    }
}

/// One line per metric: name, value, unit, and the per-sweep spread
/// behind it.
fn print_metric(name: &str, value: f64, unit: &str, how: &str, samples: &[f64]) {
    let mut sorted = samples.to_vec();
    let (q1, q3) = quartiles(&mut sorted);
    println!(
        "  {name:<18} {value:>14.6} {unit:<9} {how} {} sweeps (median {:.6}, q1 {q1:.6}, q3 {q3:.6})",
        samples.len(),
        median(&mut sorted),
    );
}

/// The end-to-end run: returns the metrics, triples attempted, and the
/// failures seen.
fn end_to_end(
    workload: Workload,
    seed: u64,
    seconds: f64,
    spawner: &mut Spawner,
) -> (Metrics, u64, Vec<String>) {
    let mut attempted = 0u64;
    let mut failures = Vec::new();
    let mut run = |spec: &SweepSpec, failures: &mut Vec<String>| {
        attempted += spec.triples();
        match spawner.run(spec) {
            Ok(sample) => {
                if let Some(failure) = &sample.failure {
                    failures.push(failure.clone());
                }
                Some(sample)
            }
            Err(message) => {
                failures.push(message);
                None
            }
        }
    };

    // The report on two threads, through the work-stealing scheduler,
    // must match the timed sweeps' byte for byte. This sweep also warms
    // the page cache for the timed ones.
    let spec = SweepSpec::of(workload, seed);
    let other = SweepSpec { threads: 2, ..spec };
    let reference = run(&other, &mut failures).map(|s| s.digest);
    let setup_spec = SweepSpec {
        setup_only: true,
        ..spec
    };

    // The shared host switches between speeds for seconds at a time, so
    // every metric pools samples from the whole run: set-up is sampled
    // between the timed sweeps, and throughput is the run's total. Its
    // speed also drifts for minutes, which the host probe measures.
    let mut rate = Vec::new();
    let mut rss_mb = Vec::new();
    let mut setup_s = Vec::new();
    let (mut sim_seconds, mut wall_s) = (0.0, 0.0);
    let mut host = HostSpeed::default();
    let budget = Duration::from_secs_f64(seconds);
    let started = Instant::now();
    for iteration in 0u32.. {
        // Stops once one more iteration of the mean length would overrun.
        let elapsed = started.elapsed();
        if iteration >= MIN_SWEEPS && elapsed + elapsed / iteration > budget {
            break;
        }
        let Some(sample) = run(&spec, &mut failures) else {
            break;
        };
        if Some(sample.digest) != reference {
            failures.push(format!(
                "report digest {:016x} differs from the threads={} report",
                sample.digest, other.threads
            ));
        }
        host.sample(PROBE_SHARE * sample.wall_s);
        sim_seconds += sample.sim_seconds;
        wall_s += sample.wall_s;
        rate.push(sample.sim_seconds / sample.wall_s);
        rss_mb.push(sample.peak_rss_kb as f64 / 1024.0);
        for _ in 0..SETUPS_PER_SWEEP {
            if let Some(setup) = run(&setup_spec, &mut failures) {
                host.sample(PROBE_SHARE * setup.wall_s);
                setup_s.push(setup.wall_s);
            }
        }
    }

    // Times scaled to the reference host speed.
    let speed = host.relative();
    let raw_rate = sim_seconds / wall_s;
    let raw_setup = interquartile_mean(&mut setup_s.clone());
    let sim_user_s_per_s = raw_rate / speed;
    let setup = raw_setup * speed;
    let peak_rss = median(&mut rss_mb.clone());
    println!(
        "end-to-end (host at {speed:.4} of the reference speed; as timed: \
         {raw_rate:.3} user-s/s, set-up {raw_setup:.6} s):"
    );
    print_metric(
        "sim_user_s_per_s",
        sim_user_s_per_s,
        "user-s/s",
        "total over",
        &rate,
    );
    print_metric("setup_s", setup, "s", "interquartile mean of", &setup_s);
    print_metric("peak_rss_mb", peak_rss, "MB", "median of", &rss_mb);
    let mut metrics = Metrics::default();
    metrics.push("sim_user_s_per_s", sim_user_s_per_s);
    metrics.push("setup_s", setup);
    metrics.push("peak_rss_mb", peak_rss);
    (metrics, attempted, failures)
}

fn run_child(flags: &[(String, String)]) -> Result<(), String> {
    let workload = workload_flag(flags)?;
    let spec = SweepSpec {
        workload,
        seed: flag(flags, "seed", None)?,
        threads: flag(flags, "threads", None)?,
        observed: flag::<u8>(flags, "observed", None)? == 1,
        setup_only: flag::<u8>(flags, "setup-only", None)? == 1,
    };
    let scratch: PathBuf = flag(flags, "scratch", None)?;
    println!("{}", sweep::run_in_process(&spec, &scratch).to_line());
    Ok(())
}

/// Runs the benchmark and prints its result line. A run whose checks
/// failed still prints one (with `correct: false`); `Err` means no
/// measurement could start.
fn run_benchmark(flags: &[(String, String)]) -> Result<(), String> {
    let workload = workload_flag(flags)?;
    let seed: u64 = flag(flags, "seed", Some(42))?;
    let seconds: f64 = flag(flags, "seconds", Some(40.0))?;
    let trace: u8 = flag(flags, "trace", Some(0))?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".to_owned());
    }
    if trace > 1 {
        return Err("--trace must be 0 or 1".to_owned());
    }
    let catalog_dir = fleetbench::workload::catalog_dir();
    if !catalog_dir.is_dir() {
        return Err(format!(
            "{} not found: run from a full checkout of the repository",
            catalog_dir.display()
        ));
    }

    let scratch = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../.bench_scratch")
        .join(std::process::id().to_string());
    std::fs::create_dir_all(&scratch).map_err(|e| format!("scratch: {e}"))?;
    let mut spawner = Spawner {
        exe: std::env::current_exe().map_err(|e| e.to_string())?,
        scratch: scratch.clone(),
        children: 0,
    };

    println!(
        "context: {}",
        context_json(workload.name(), seed, fleetbench::workload::THREADS)
    );
    let (metrics, attempted, failures, catalog) = if trace == 1 {
        let run = layers::run(workload, seed, &scratch.join("traced"), &mut |spec| {
            spawner.run(spec)
        });
        println!("per-layer:");
        for &(name, unit) in &PER_LAYER {
            println!(
                "  {name:<32} {:>16.6} {unit}",
                run.metrics.get(name).unwrap_or(f64::NAN)
            );
        }
        (run.metrics, run.attempted, run.failures, &PER_LAYER[..])
    } else {
        let (metrics, attempted, failures) = end_to_end(workload, seed, seconds, &mut spawner);
        (metrics, attempted, failures, &END_TO_END[..])
    };
    let _ = std::fs::remove_dir_all(&scratch);
    if let Some(root) = scratch.parent() {
        // Removes the shared scratch root only once it is empty.
        let _ = std::fs::remove_dir(root);
    }

    let (metrics_json, missing) = metrics.render(catalog);
    let mut failures = failures;
    if !missing.is_empty() {
        failures.push(format!("metrics not measured: {}", missing.join(", ")));
    }
    for failure in &failures {
        eprintln!("check failed: {failure}");
    }
    // Any failed check fails the whole run.
    let failed = if failures.is_empty() { 0 } else { attempted };
    println!("{}", result_line(attempted, failed, &metrics_json));
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(flags) => flags,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            return ExitCode::from(2);
        }
    };
    if flags.iter().any(|(name, _)| name == "child") {
        return match run_child(&flags) {
            Ok(()) => ExitCode::SUCCESS,
            Err(message) => {
                eprintln!("error: {message}");
                ExitCode::from(2)
            }
        };
    }
    match run_benchmark(&flags) {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("error: {message}\n{}", usage());
            ExitCode::from(2)
        }
    }
}
