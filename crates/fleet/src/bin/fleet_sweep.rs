//! Population-scale USTA sweep CLI.
//!
//! The aggregate report goes to **stdout** and never mentions the
//! thread count, so `--threads 1` and `--threads 4` runs of the same
//! sweep emit bit-identical bytes (CI diffs them). Progress and timing
//! go to stderr: a rate-limited progress line driven by the
//! `fleet.triples` telemetry counter, silenced by `--quiet`.
//!
//! `--metrics-json` and `--chrome-trace` export the run's telemetry —
//! the metrics file splits deterministic work counters (bit-identical
//! at any `--threads`) from wall-clock timings (reported, never
//! compared), and the trace file loads in `chrome://tracing` or
//! Perfetto.

use std::process::ExitCode;
use std::time::{Duration, Instant};

use usta_fleet::cli::{parse_sweep_args, parse_value};
use usta_fleet::{run_sweep, target_percentile, GridAxes, ScenarioCatalog, SweepConfig};

/// The help text, with the device list taken from the live *merged*
/// registry (built-ins plus any `--catalog` installs) so catalog
/// growth never goes stale here.
fn usage() -> String {
    format!(
        "\
fleet_sweep — population-scale USTA simulation sweep

USAGE:
    fleet_sweep [OPTIONS]

OPTIONS:
    --users N          sampled users                      [default: 100]
    --scenarios N      scenarios sampled from the grid    [default: 4]
    --threads N        worker threads (never changes results) [default: 1]
    --seed N           run seed                           [default: 42]
    --governor NAME    baseline governor                  [default: ondemand]
    --device LIST      comma-separated device ids, or \"all\" [default: nexus4]
                       (known: {})
    --catalog DIR      load device/grid catalog files (*.toml) from DIR and
                       merge them over the built-in registry — file entries
                       override same-id built-ins, new ids append
    --grid NAME        sample scenarios from the named catalog grid's axes
                       instead of the full paper grid (needs --catalog)
    --list-devices     print the merged device registry and exit
    --list-scenarios   print the scenario catalogs and loaded grids and exit
    --trace-dir DIR    write a per-triple CSV summary (triples.csv) to DIR,
                       plus triaged flight recordings (flight-<index>.json)
                       and the worst-triples table in the report
    --trace-steps N    also write the first N triples' full step traces
                       (steps-<index>.csv, per-domain freq columns) to DIR
    --flight-windows N flight-recorder ring capacity per triple (governor
                       windows kept for triage; 0 disables) [default: 512];
                       only the last N windows of a triple are built (the
                       earlier ones are counted as dropped), and the ring
                       allocates what it holds, so a large N costs no
                       more than a triple's own length
    --triage-over F    dump a triple's recording when its time-over-limit
                       fraction reaches F                  [default: 0.02]
    --metrics-json PATH  write the telemetry registry (deterministic
                       counters + wall-clock timings) as JSON to PATH
    --metrics-prom PATH  write the registry in Prometheus/OpenMetrics
                       text exposition format to PATH
    --chrome-trace PATH  write the span trace as Chrome trace-event JSON
                       (open in chrome://tracing or Perfetto) to PATH
    --target-p99-over F  bisect the policy-limit population percentile for
                       the laxest setting whose fleet p99 time-over-limit
                       stays <= F; prints the probe trajectory, then the
                       report at the chosen percentile (deterministic at
                       any --threads)
    --target-iters N   bisection rounds for --target-p99-over [default: 7]
    --quiet            no stderr progress line
    --no-usta          sweep the bare baseline (no USTA wrap)
    --sim-seconds F    per-triple simulated-time cap      [default: 180]
    --smoke            CI preset: ~100 short triples per device, small training
    --help             print this help
",
        usta_device::merged_ids().join(", ")
    )
}

/// Everything parsed from argv: the sweep itself plus the CLI-only
/// telemetry/export knobs.
#[derive(Default)]
struct CliOptions {
    config: SweepConfig,
    quiet: bool,
    list_devices: bool,
    list_scenarios: bool,
    /// The last `--catalog` directory's parse, kept for the
    /// `--list-scenarios` grid listing (its devices are already
    /// installed into the process-wide registry).
    catalog: usta_catalog::Catalog,
    metrics_json: Option<std::path::PathBuf>,
    metrics_prom: Option<std::path::PathBuf>,
    chrome_trace: Option<std::path::PathBuf>,
    /// `--target-p99-over` budget: switch from a single sweep to the
    /// percentile-targeting bisection.
    target_p99_over: Option<f64>,
    /// Bisection rounds for `--target-p99-over`.
    target_iters: usize,
}

fn parse_args() -> Result<CliOptions, String> {
    let mut options = CliOptions {
        target_iters: 7,
        ..CliOptions::default()
    };
    let (config, catalog) = parse_sweep_args(
        std::env::args().skip(1),
        &[
            "--threads",
            "--trace-dir",
            "--trace-steps",
            "--flight-windows",
            "--triage-over",
            "--metrics-json",
            "--metrics-prom",
            "--chrome-trace",
            "--target-p99-over",
            "--target-iters",
        ],
        &["--quiet", "--list-devices", "--list-scenarios"],
        |config, flag, value| {
            match flag {
                "--threads" => config.threads = parse_value(flag, &value)?,
                "--trace-dir" => config.trace_dir = Some(value.into()),
                "--trace-steps" => config.trace_steps = parse_value(flag, &value)?,
                "--flight-windows" => config.flight_windows = parse_value(flag, &value)?,
                "--triage-over" => config.triage_over_fraction = parse_value(flag, &value)?,
                "--metrics-json" => options.metrics_json = Some(value.into()),
                "--metrics-prom" => options.metrics_prom = Some(value.into()),
                "--chrome-trace" => options.chrome_trace = Some(value.into()),
                "--target-p99-over" => options.target_p99_over = Some(parse_value(flag, &value)?),
                "--target-iters" => options.target_iters = parse_value(flag, &value)?,
                "--quiet" => options.quiet = true,
                "--list-devices" => options.list_devices = true,
                "--list-scenarios" => options.list_scenarios = true,
                _ => unreachable!("collected flags are known"),
            }
            Ok(())
        },
    )?;
    if config.threads == 0 {
        return Err("--threads must be at least 1".into());
    }
    if let Some(budget) = options.target_p99_over {
        if !(0.0..=1.0).contains(&budget) {
            return Err("--target-p99-over must be a fraction in [0, 1]".into());
        }
    }
    Ok(CliOptions {
        config,
        catalog,
        ..options
    })
}

/// The `--list-devices` text: one row per merged-registry spec (file
/// installs override built-ins), with domain and thermal summaries.
fn list_devices_text() -> String {
    let merged = usta_device::merged();
    let builtin = usta_device::Registry::builtin().len();
    let mut s = format!("devices ({builtin} built-in, {} total):\n", merged.len());
    for spec in merged {
        let mut domains: Vec<&str> = spec.clusters.iter().map(|c| c.name).collect();
        if spec.gpu.is_some() {
            domains.push("gpu");
        }
        if spec.brightness_ladder.is_some() {
            domains.push("display");
        }
        s.push_str(&format!(
            "  {:<16} {} cores ({}), domains: {}; thermal: {} nodes, die: {}; back: {}\n",
            spec.id,
            spec.cores(),
            spec.topology(),
            domains.join(", "),
            spec.thermal.nodes.len(),
            spec.thermal.die_nodes.join(", "),
            usta_catalog::material_name(spec.back_cover),
        ));
        s.push_str(&format!("  {:<16} {}\n", "", spec.description));
    }
    s
}

/// The `--list-scenarios` text: the built-in full and smoke catalogs
/// plus any grids the `--catalog` directory loaded.
fn list_scenarios_text(catalog: &usta_catalog::Catalog) -> String {
    let full = GridAxes::default();
    let mut s = String::from("scenario catalogs (per device):\n");
    s.push_str(&format!(
        "  {:<16} {} scenarios ({} benchmarks x {} ambients x {} cases x {} charging x {} grip)\n",
        "full",
        full.len_per_device(),
        full.benchmarks.len(),
        full.ambients.len(),
        full.cases.len(),
        full.charging.len(),
        full.hand_held.len(),
    ));
    s.push_str(&format!(
        "  {:<16} {} fixed short scenarios (CI preset)\n",
        "smoke",
        ScenarioCatalog::smoke().len(),
    ));
    s.push_str("grids loaded from --catalog:\n");
    if catalog.grids.is_empty() {
        s.push_str("  (none — pass --catalog DIR to load grid files)\n");
    }
    for grid in &catalog.grids {
        s.push_str(&format!(
            "  {:<16} {} scenarios ({} benchmarks x {} ambients x {} cases x {} charging x {} grip)\n",
            grid.name,
            grid.len_per_device(),
            grid.benchmarks.len(),
            grid.ambients.len(),
            grid.cases.len(),
            grid.charging.len(),
            grid.hand_held.len(),
        ));
    }
    s
}

/// The stderr progress line: one background thread re-renders
/// `\r`-in-place at most twice a second from the `fleet.triples`
/// counter, and clears itself when the sweep finishes.
struct ProgressLine {
    stop: std::sync::mpsc::Sender<()>,
    handle: std::thread::JoinHandle<()>,
}

impl ProgressLine {
    fn spawn(
        total: usize,
        counter: usta_telemetry::Counter,
        inflight: usta_telemetry::Gauge,
        queue_depth: usta_telemetry::Gauge,
    ) -> ProgressLine {
        let (stop, ticks) = std::sync::mpsc::channel::<()>();
        let handle = std::thread::spawn(move || {
            let started = Instant::now();
            let mut printed = false;
            // The send (or a dropped sender) ends the loop; the
            // timeout is the 500 ms render cadence.
            while let Err(std::sync::mpsc::RecvTimeoutError::Timeout) =
                ticks.recv_timeout(Duration::from_millis(500))
            {
                let done = counter.value().min(total as u64) as usize;
                let elapsed = started.elapsed().as_secs_f64();
                let rate = done as f64 / elapsed.max(1e-9);
                let eta = if done > 0 {
                    format!("{:.0} s", (total - done) as f64 / rate)
                } else {
                    "—".to_owned()
                };
                // Per-worker busy fractions are wall-clock gauges
                // (`fleet.worker<N>.busy`) — stderr only, never part
                // of the diffed stdout surface.
                let mut busy: Vec<(&str, f64)> = usta_telemetry::global()
                    .gauges()
                    .into_iter()
                    .filter(|(name, _)| name.starts_with("fleet.worker") && name.ends_with(".busy"))
                    .collect();
                busy.sort_by_key(|&(name, _)| {
                    name["fleet.worker".len()..name.len() - ".busy".len()]
                        .parse::<usize>()
                        .unwrap_or(usize::MAX)
                });
                let busy = if busy.is_empty() {
                    String::new()
                } else {
                    format!(
                        "  busy {}",
                        busy.iter()
                            .map(|(_, v)| format!("{:.0}%", v * 100.0))
                            .collect::<Vec<_>>()
                            .join("/")
                    )
                };
                eprint!(
                    "\r{done}/{total} triples  {rate:.1} sims/s  \
                     inflight {:.0}  queue {:.0}{busy}  eta {eta}    ",
                    inflight.value(),
                    queue_depth.value(),
                );
                printed = true;
            }
            if printed {
                // Blank the line so the final timing message starts clean.
                eprint!("\r{:78}\r", "");
            }
        });
        ProgressLine { stop, handle }
    }

    fn finish(self) {
        let _ = self.stop.send(());
        let _ = self.handle.join();
    }
}

/// Writes `contents` to `path`, mapping failures to a CLI error line.
fn write_artifact(kind: &str, path: &std::path::Path, contents: &str) -> Result<(), String> {
    std::fs::write(path, contents).map_err(|e| format!("{kind} {}: {e}", path.display()))
}

fn main() -> ExitCode {
    let options = match parse_args() {
        Ok(options) => options,
        Err(message) => {
            if message.is_empty() {
                eprint!("{}", usage());
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {message}\n\n{}", usage());
            return ExitCode::from(2);
        }
    };
    let config = &options.config;

    if options.list_devices || options.list_scenarios {
        if options.list_devices {
            print!("{}", list_devices_text());
        }
        if options.list_scenarios {
            print!("{}", list_scenarios_text(&options.catalog));
        }
        return ExitCode::SUCCESS;
    }

    // Telemetry powers both the exports and the progress line; a quiet
    // run with no export flags keeps the sink disabled (a true no-op).
    let wants_telemetry = !options.quiet
        || options.metrics_json.is_some()
        || options.metrics_prom.is_some()
        || options.chrome_trace.is_some();
    if wants_telemetry {
        usta_telemetry::enable();
    }
    // Percentile targeting runs up to 2 + iters full sweeps; size the
    // progress denominator to that upper bound.
    let probe_sweeps = options
        .target_p99_over
        .map_or(1, |_| 2 + options.target_iters);
    let progress = (!options.quiet).then(|| {
        ProgressLine::spawn(
            config.total_triples() * probe_sweeps,
            usta_telemetry::global().counter("fleet.triples"),
            usta_telemetry::global().gauge("fleet.inflight_triples"),
            usta_telemetry::global().gauge("fleet.queue_depth"),
        )
    });

    let started = Instant::now();
    let outcome = match options.target_p99_over {
        Some(budget) => {
            target_percentile(config, budget, options.target_iters).map(|target| {
                // The whole trajectory block is deterministic — CI
                // diffs it across thread counts like the summary.
                let mut s = format!("percentile target: p99 time-over-limit <= {budget:.4}\n");
                for probe in &target.trajectory {
                    s.push_str(&format!(
                        "  probe {:>6.2}% -> p99 {:.4} ({})\n",
                        probe.percentile,
                        probe.p99_time_over,
                        if probe.feasible { "ok" } else { "over" },
                    ));
                }
                if target.feasible {
                    s.push_str(&format!(
                        "chosen percentile: {:.2} (p99 {:.4} <= {budget:.4})\n",
                        target.percentile, target.p99_time_over,
                    ));
                } else {
                    s.push_str(&format!(
                        "no feasible percentile: strictest (0) still over \
                         (p99 {:.4} > {budget:.4})\n",
                        target.p99_time_over,
                    ));
                }
                print!("{s}");
                target.report
            })
        }
        None => run_sweep(config),
    };
    if let Some(progress) = progress {
        progress.finish();
    }
    match outcome {
        Ok(report) => {
            let elapsed = started.elapsed().as_secs_f64();
            print!("{}", report.summary());
            // The telemetry block rides along only when an export flag
            // asked for it, and holds counters alone — deterministic,
            // so the stdout diff across thread counts still passes.
            if options.metrics_json.is_some()
                || options.metrics_prom.is_some()
                || options.chrome_trace.is_some()
            {
                println!("telemetry:");
                for (name, value) in usta_telemetry::global().counters() {
                    println!("  {name} {value}");
                }
            }
            if !options.quiet {
                eprintln!(
                    "done in {elapsed:.2} s ({:.0} simulated user-seconds per wall-second)",
                    report.aggregate.sim_seconds / elapsed
                );
            }
            let export = || -> Result<(), String> {
                if let Some(path) = &options.metrics_json {
                    write_artifact("metrics-json", path, &usta_telemetry::global().to_json())?;
                }
                if let Some(path) = &options.metrics_prom {
                    write_artifact(
                        "metrics-prom",
                        path,
                        &usta_telemetry::global().render_prometheus(),
                    )?;
                }
                if let Some(path) = &options.chrome_trace {
                    write_artifact(
                        "chrome-trace",
                        path,
                        &usta_telemetry::trace::chrome_trace_json(),
                    )?;
                }
                Ok(())
            };
            if let Err(message) = export() {
                eprintln!("error: {message}");
                return ExitCode::FAILURE;
            }
            ExitCode::SUCCESS
        }
        Err(error) => {
            eprintln!("error: {error}");
            ExitCode::FAILURE
        }
    }
}
