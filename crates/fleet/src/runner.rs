//! The parallel sweep runner.
//!
//! A sweep crosses a sampled user population with a scenario catalog
//! (which carries the device axis) into `users × scenarios`
//! (user, device, scenario) triples, runs each triple through
//! [`usta_sim::run_workload`], and folds the outcomes into a streaming
//! [`FleetAggregate`].
//!
//! **Determinism contract:** the report is a pure function of the
//! [`SweepConfig`] minus its `threads` field. Three mechanisms deliver
//! that:
//!
//! 1. every triple derives its own ChaCha8 stream from
//!    `(run seed, triple index)` — never from thread identity or
//!    shared-generator draw order;
//! 2. workers claim fixed-size *chunks* of consecutive triple indices,
//!    in index order from one shared counter, and each chunk folds
//!    sequentially into its own partial aggregate;
//! 3. partials are merged on the coordinating thread in chunk-index
//!    order, so floating-point sums see one canonical association.
//!
//! The sweep is two parts. `run_chunk` is the pure kernel: it runs
//! one chunk's triples and returns a `ChunkResult` holding the
//! partial aggregate, the `triples.csv` rows, the step traces, the
//! flight dumps and the chunk's worst-table candidates. `ChunkSink`
//! folds results in chunk-index order into the aggregate, the worst
//! table and the `trace_dir` files, so the files are byte-identical at
//! every thread count too. `run_sweep_trained` only schedules: workers
//! claim chunks, run them and send the results to the sink.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use usta_core::comfort::ComfortStats;
use usta_core::predictor::PredictionTarget;
use usta_core::training::TrainingLog;
use usta_core::{TemperaturePredictor, UserPopulation, UserProfile, UstaGovernor, UstaPolicy};
use usta_governors::by_name;
use usta_ml::reptree::RepTreeParams;
use usta_ml::Learner;
use usta_sim::{run_workload, run_workload_recorded, Device, Governor, RunConfig};
use usta_telemetry::FlightRecorder;
use usta_thermal::Celsius;
use usta_workloads::{Benchmark, Workload};

use crate::aggregate::{FleetAggregate, TripleOutcome};
use crate::scenario::{GridAxes, Scenario, ScenarioCatalog, DEFAULT_DEVICE};

/// Everything that defines a sweep.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepConfig {
    /// Number of sampled users.
    pub users: usize,
    /// Number of scenarios sampled from the full grid (ignored when
    /// `smoke` picks the fixed smoke catalog). The grid being sampled
    /// spans every configured device.
    pub scenarios: usize,
    /// Worker threads. **Never affects results**, only wall-clock.
    pub threads: usize,
    /// The run seed every per-triple stream derives from.
    pub seed: u64,
    /// Baseline governor name (see [`usta_governors::by_name`]).
    pub governor: String,
    /// Wrap the baseline with USTA (`false` sweeps the raw baseline).
    pub usta: bool,
    /// Per-triple simulated-time cap, seconds.
    pub max_sim_seconds: f64,
    /// Distinct predictor-training histories in the pool (trained once
    /// per device — a predictor only knows the device it logged).
    pub predictor_pool: usize,
    /// Benchmarks the training campaign draws histories from.
    pub training_benchmarks: Vec<Benchmark>,
    /// Per-benchmark simulated-time cap during training, seconds.
    pub training_cap_seconds: f64,
    /// Consecutive triples per work-queue chunk.
    pub chunk_size: usize,
    /// Use the fixed short smoke catalog instead of grid sampling.
    pub smoke: bool,
    /// The benchmark/environment axes scenario sampling draws from.
    /// `None` is the paper's full grid ([`GridAxes::default`]) —
    /// byte-identical to the pre-grid sampler. Ignored by `smoke`,
    /// whose catalog is fixed.
    pub grid: Option<GridAxes>,
    /// Device ids to sweep (see [`usta_device::NAMES`]); duplicates
    /// collapse, order is preserved. The default is the paper's
    /// `"nexus4"` alone, which reproduces the pre-device-axis grid
    /// byte for byte.
    pub devices: Vec<String>,
    /// When set, write a per-triple CSV summary (`triples.csv`) into
    /// this directory so sampled triples can be audited without
    /// rerunning the sweep.
    pub trace_dir: Option<PathBuf>,
    /// Opt-in full per-step sink: write the first `trace_steps`
    /// triples' step traces (`steps-<index>.csv`, the
    /// `usta_sim::trace` format with per-domain frequency columns)
    /// into `trace_dir`. Files are written in chunk-merge order and
    /// are byte-identical at any `--threads`. Requires `trace_dir`;
    /// 0 disables.
    pub trace_steps: usize,
    /// Flight-recorder ring capacity (governor windows kept per
    /// triple) for the anomaly-triage sink. Triage runs only when
    /// `trace_dir` is set; 0 disables it even then.
    pub flight_windows: usize,
    /// Triage threshold: a triple whose time-over-limit fraction
    /// reaches this value dumps its recording as
    /// `flight-<index>.json`.
    pub triage_over_fraction: f64,
    /// Triage threshold: a triple whose peak skin temperature reaches
    /// the user's limit plus this margin (°C) dumps its recording.
    pub triage_peak_margin_c: f64,
    /// Rows in the report's worst-triples table (kept and printed only
    /// while triage is active; 0 hides the table).
    pub worst_k: usize,
    /// When set, every USTA triple's policy limit is the population's
    /// `p`-th percentile skin limit instead of that triple's own user's
    /// limit — the knob [`target_percentile`] bisects. Comfort is
    /// still judged against each user's own limit, so the report
    /// measures how a *fleet-wide* policy setting lands on individual
    /// users. `None` (the default) is the per-user paper behaviour,
    /// byte-identical to every earlier release.
    pub policy_limit_percentile: Option<f64>,
}

impl Default for SweepConfig {
    fn default() -> SweepConfig {
        SweepConfig {
            users: 100,
            scenarios: 4,
            threads: 1,
            seed: 42,
            governor: "ondemand".to_owned(),
            usta: true,
            max_sim_seconds: 180.0,
            predictor_pool: 3,
            training_benchmarks: vec![
                Benchmark::AntutuCpu,
                Benchmark::GfxBench,
                Benchmark::Vellamo,
                Benchmark::Youtube,
                Benchmark::Charging,
            ],
            training_cap_seconds: 240.0,
            chunk_size: 16,
            smoke: false,
            grid: None,
            devices: vec![DEFAULT_DEVICE.to_owned()],
            trace_dir: None,
            trace_steps: 0,
            flight_windows: usta_telemetry::flight::DEFAULT_WINDOWS,
            triage_over_fraction: 0.02,
            triage_peak_margin_c: 0.5,
            worst_k: 10,
            policy_limit_percentile: None,
        }
    }
}

impl SweepConfig {
    /// The CI smoke preset: ~100 short triples, small training
    /// campaign — finishes in a couple of seconds in release mode.
    pub fn smoke() -> SweepConfig {
        SweepConfig {
            users: 25,
            scenarios: 4,
            max_sim_seconds: 60.0,
            predictor_pool: 2,
            training_benchmarks: vec![Benchmark::GfxBench, Benchmark::Vellamo],
            training_cap_seconds: 90.0,
            smoke: true,
            ..SweepConfig::default()
        }
    }

    /// Total triples the sweep will run. Returns 0 when the device
    /// list is empty or holds an id the registry cannot resolve —
    /// [`run_sweep`] reports the error itself.
    pub fn total_triples(&self) -> usize {
        let devices = match self.resolved_devices() {
            Ok(devices) if !devices.is_empty() => devices.len(),
            _ => return 0,
        };
        let scenarios = if self.smoke {
            ScenarioCatalog::smoke().len() * devices
        } else {
            self.scenarios
        };
        self.users * scenarios
    }

    /// Canonical registry ids of the configured devices — duplicates
    /// collapsed (case-insensitively, via id resolution), order
    /// preserved. The single resolution path shared by [`run_sweep`]
    /// and [`SweepConfig::total_triples`].
    ///
    /// # Errors
    ///
    /// Returns [`FleetError::UnknownDevice`] for the first id the
    /// registry cannot resolve.
    pub fn resolved_devices(&self) -> Result<Vec<&'static str>, FleetError> {
        let mut devices: Vec<&'static str> = Vec::new();
        for name in &self.devices {
            let spec =
                usta_device::by_id(name).ok_or_else(|| FleetError::UnknownDevice(name.clone()))?;
            if !devices.contains(&spec.id) {
                devices.push(spec.id);
            }
        }
        Ok(devices)
    }
}

/// Sweep failures reportable to a CLI user.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FleetError {
    /// The configured baseline governor name is unknown.
    UnknownGovernor(String),
    /// A configured device id is not in the registry.
    UnknownDevice(String),
    /// The sweep would contain zero triples.
    EmptySweep,
    /// The requested triple index is outside the sweep
    /// (`explain`-only).
    TripleOutOfRange {
        /// The requested triple index.
        index: usize,
        /// Triples in the configured sweep.
        total: usize,
    },
    /// The predictor pool or its training campaign is empty.
    NoTrainingData,
    /// A simulated-time cap is zero, negative, NaN or infinite — the
    /// sweep would take zero steps and report −∞ peaks, or never end.
    NonPositiveSimCap,
    /// A triage threshold would switch its trigger off without notice:
    /// the time-over fraction is NaN or outside [0, 1], or the peak
    /// margin is not finite.
    InvalidTriageThreshold {
        /// The offending [`SweepConfig`] field.
        field: &'static str,
        /// What the field must be.
        expected: &'static str,
    },
    /// The per-triple trace sink could not be created or written.
    TraceSink(String),
}

impl std::fmt::Display for FleetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FleetError::UnknownGovernor(name) => {
                // One source for the wording: the governor factory's own
                // error, which lists the registered names.
                write!(
                    f,
                    "{}",
                    usta_governors::UnknownGovernorError::new(name.clone())
                )
            }
            FleetError::UnknownDevice(name) => {
                // One source for the wording: the device registry's own
                // error, which lists the catalog.
                write!(f, "{}", usta_device::UnknownDeviceError::new(name.clone()))
            }
            FleetError::EmptySweep => write!(f, "sweep has zero (user, scenario) triples"),
            FleetError::TripleOutOfRange { index, total } => {
                write!(f, "triple {index} is outside the sweep's {total} triples")
            }
            FleetError::NoTrainingData => {
                write!(f, "predictor pool needs at least one history and benchmark")
            }
            FleetError::NonPositiveSimCap => {
                write!(f, "simulated-time caps must be positive and finite")
            }
            FleetError::InvalidTriageThreshold { field, expected } => {
                write!(f, "triage threshold {field} must be {expected}")
            }
            FleetError::TraceSink(message) => write!(f, "trace sink: {message}"),
        }
    }
}

impl std::error::Error for FleetError {}

/// A finished sweep: the merged aggregate plus the inputs that produced
/// it. Deliberately excludes `threads` — two reports from the same
/// config at different thread counts compare equal.
#[derive(Debug, Clone, PartialEq)]
pub struct FleetReport {
    /// Sampled user count.
    pub users: usize,
    /// Scenario count actually swept (spans the device axis).
    pub scenarios: usize,
    /// The run seed.
    pub seed: u64,
    /// Governor stack name (`"usta(ondemand)"` or the bare baseline).
    pub governor: String,
    /// Canonical ids of the devices swept, in configuration order.
    pub devices: Vec<&'static str>,
    /// The merged streaming aggregate.
    pub aggregate: FleetAggregate,
    /// The top-K worst triples (time over limit, then peak, then
    /// index), populated only while triage is active — deterministic
    /// and bit-identical at any thread count, like the aggregate.
    pub worst: Vec<WorstTriple>,
}

/// One row of the report's worst-triples table.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstTriple {
    /// Triple index within the sweep.
    pub index: usize,
    /// Sampled-population user index.
    pub user: usize,
    /// That user's skin-comfort limit, °C.
    pub limit_c: f64,
    /// Scenario name (`benchmark/ambient/…`).
    pub scenario: String,
    /// Device id the triple ran on.
    pub device: &'static str,
    /// Peak true skin temperature, °C.
    pub peak_skin_c: f64,
    /// Fraction of simulated time spent over the user's limit.
    pub time_over_fraction: f64,
    /// Whether the triage thresholds dumped this triple's flight
    /// recording (`flight-<index>.json` in the trace directory).
    pub dumped: bool,
}

/// Sorts worst-first and keeps the top `k`: more time over the limit,
/// then a higher peak, then (for a total deterministic order) the lower
/// triple index. Exact f64 comparisons — both sides come from the same
/// deterministic computation.
fn keep_worst(rows: &mut Vec<WorstTriple>, k: usize) {
    rows.sort_by(|a, b| {
        (b.time_over_fraction.total_cmp(&a.time_over_fraction))
            .then(b.peak_skin_c.total_cmp(&a.peak_skin_c))
            .then(a.index.cmp(&b.index))
    });
    rows.truncate(k);
}

impl FleetReport {
    /// The report as printable text (stable across thread counts).
    ///
    /// Single-device nexus4 sweeps — the pre-device-axis shape — print
    /// exactly the historical format; anything else adds a `devices:`
    /// line naming each device with the triples it ran.
    pub fn summary(&self) -> String {
        let mut s = format!(
            "fleet sweep: {} users x {} scenarios, seed {}, governor {}\n",
            self.users, self.scenarios, self.seed, self.governor,
        );
        if self.devices.as_slice() != [DEFAULT_DEVICE] {
            let counts: Vec<String> = self
                .devices
                .iter()
                .map(|d| {
                    let n = self.aggregate.device_triples.get(d).unwrap_or(&0);
                    format!("{d} ({n})")
                })
                .collect();
            s.push_str(&format!("devices: {}\n", counts.join(", ")));
        }
        s.push_str(&self.aggregate.table());
        if !self.worst.is_empty() {
            s.push_str("worst triples (time over limit, then peak):\n");
            for row in &self.worst {
                s.push_str(&format!(
                    "  #{:<6} user {:<4} limit {:5.2} C  {}/{}  peak {:6.2} C  {:5.1}% over{}\n",
                    row.index,
                    row.user,
                    row.limit_c,
                    row.device,
                    row.scenario,
                    row.peak_skin_c,
                    row.time_over_fraction * 100.0,
                    if row.dumped {
                        format!("  flight-{:06}.json", row.index)
                    } else {
                        String::new()
                    },
                ));
            }
        }
        s
    }
}

/// Mixes a triple index into the run seed (splitmix-style odd constant,
/// the same construction `usta_workloads` uses for benchmark jitter).
fn triple_stream(run_seed: u64, index: u64) -> ChaCha8Rng {
    let mixed = run_seed ^ (index + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ChaCha8Rng::seed_from_u64(mixed)
}

/// Trains one device's predictor pool: one baseline data-collection
/// campaign on that device over the configured benchmarks
/// (duration-capped), then one REPTree per pool slot fitted on a
/// sampled subset of the per-benchmark logs — modelling users whose
/// phones logged different app histories. Campaign seeds are shared
/// across devices; the device itself is what differs.
fn train_predictor_pool(
    config: &SweepConfig,
    device: &'static str,
) -> Result<Vec<TemperaturePredictor>, FleetError> {
    if config.predictor_pool == 0 || config.training_benchmarks.is_empty() {
        return Err(FleetError::NoTrainingData);
    }
    let spec = usta_device::by_id(device).expect("device validated up front");
    let mut per_benchmark: Vec<TrainingLog> = Vec::new();
    for (i, &benchmark) in config.training_benchmarks.iter().enumerate() {
        let mut device =
            usta_sim::experiments::common::device_on(spec, config.seed ^ ((i as u64 + 1) << 48));
        let mut workload = crate::scenario::Scenario {
            device: spec.id,
            benchmark,
            ambient: crate::scenario::AmbientBand::Office,
            case: crate::scenario::CaseKind::Naked,
            charging: false,
            hand_held: false,
        }
        .workload(config.seed ^ i as u64, config.training_cap_seconds);
        let mut governor = Governor::Baseline(by_name("ondemand").expect("ondemand is registered"));
        let result = run_workload(
            &mut device,
            &mut workload,
            &mut governor,
            &RunConfig::default(),
        );
        per_benchmark.push(result.training_log);
    }

    let mut pool = Vec::with_capacity(config.predictor_pool);
    for k in 0..config.predictor_pool {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7001 ^ ((k as u64) << 32));
        // History length: at least one benchmark, at most all of them.
        let history_len = rng.gen_range(1..per_benchmark.len() + 1);
        let mut indices: Vec<usize> = (0..per_benchmark.len()).collect();
        use rand::seq::SliceRandom;
        indices.shuffle(&mut rng);
        let mut log = TrainingLog::new();
        for &idx in indices.iter().take(history_len) {
            log.extend_from(&per_benchmark[idx]);
        }
        let predictor = TemperaturePredictor::train(
            &Learner::RepTree(RepTreeParams::default()),
            &log,
            PredictionTarget::Skin,
            config.seed ^ k as u64,
        )
        .map_err(|_| FleetError::NoTrainingData)?;
        pool.push(predictor);
    }
    Ok(pool)
}

/// Trains one predictor pool per device in `devices`, in device order
/// (none for baseline-only sweeps). Per-device campaigns are
/// independent, so up to `config.threads` workers claim device indices
/// from one shared cursor; results land in per-device slots, so the
/// pools are the same at any thread count.
pub(crate) fn train_pools(
    config: &SweepConfig,
    devices: &[&'static str],
) -> Result<Vec<(&'static str, Vec<TemperaturePredictor>)>, FleetError> {
    if !config.usta {
        return Ok(Vec::new());
    }
    let _span = usta_telemetry::Sink::active().map(|registry| registry.span("fleet.train"));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<_>>> = devices.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..config.threads.clamp(1, devices.len()) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(&device) = devices.get(i) else {
                    break;
                };
                *slots[i].lock().expect("no poisoned training slot") =
                    Some(train_predictor_pool(config, device));
            });
        }
    });
    devices
        .iter()
        .zip(slots)
        .map(|(&device, slot)| {
            let pool = slot
                .into_inner()
                .expect("no poisoned training slot")
                .expect("every device index was claimed")?;
            Ok((device, pool))
        })
        .collect()
}

/// The one policy limit every USTA triple shares under
/// [`SweepConfig::policy_limit_percentile`], or `None` when each
/// triple targets its own user's comfort limit. The percentile uses
/// the deterministic nearest-rank rule over the sorted limits
/// (`round(p/100 × (n−1))`), so the value is a pure function of the
/// config at any thread count.
pub(crate) fn policy_limit(config: &SweepConfig, population: &UserPopulation) -> Option<Celsius> {
    let p = config.policy_limit_percentile?;
    let mut limits: Vec<f64> = population
        .users()
        .iter()
        .map(|u| u.skin_limit.value())
        .collect();
    limits.sort_by(f64::total_cmp);
    let p = p.clamp(0.0, 100.0);
    let rank = ((p / 100.0) * (limits.len() - 1) as f64).round() as usize;
    Some(Celsius(limits[rank]))
}

/// One sweep run's read-only state: the config, its inputs, the
/// trained pools (one per swept device, none for baseline-only
/// sweeps), and what is resolved once per run rather than per triple.
pub(crate) struct Sweep<'a> {
    config: &'a SweepConfig,
    inputs: &'a SweepInputs,
    pools: &'a [(&'static str, Vec<TemperaturePredictor>)],
    /// [`policy_limit`], resolved once.
    shared_limit: Option<Celsius>,
    telemetry: Option<FleetTelemetry>,
}

impl<'a> Sweep<'a> {
    pub(crate) fn new(
        config: &'a SweepConfig,
        inputs: &'a SweepInputs,
        pools: &'a [(&'static str, Vec<TemperaturePredictor>)],
        telemetry: Option<FleetTelemetry>,
    ) -> Sweep<'a> {
        Sweep {
            config,
            inputs,
            pools,
            shared_limit: policy_limit(config, &inputs.population),
            telemetry,
        }
    }

    fn chunk_size(&self) -> usize {
        self.config.chunk_size.max(1)
    }

    fn chunks(&self) -> usize {
        self.inputs.total().div_ceil(self.chunk_size())
    }

    /// A worker's flight ring. Triage (flight dumps and the worst
    /// table) rides on the trace sink: without a directory to dump
    /// into there is nothing to record, and the flag-less report stays
    /// byte-identical to the pre-flight-recorder format.
    fn flight_ring(&self) -> Option<FlightRecorder> {
        let windows = self.config.flight_windows;
        (self.config.trace_dir.is_some() && windows > 0).then(|| FlightRecorder::new(windows))
    }
}

/// Runs one (user, device, scenario) triple to completion. When
/// `capture_steps` is set the full per-step trace CSV rides along for
/// the `--trace-steps` sink; a `recorder` captures per-window decision
/// provenance for the triage sink and the `explain` CLI.
///
/// Every per-triple RNG draw is made in the seed stream's canonical
/// order (sensor seed, jitter seed, predictor pick). Comfort is always
/// judged against the triple's own user's limit (the percentile knob
/// moves only the *policy*, never the judge).
pub(crate) fn run_triple(
    sweep: &Sweep,
    index: usize,
    capture_steps: bool,
    recorder: Option<&mut FlightRecorder>,
) -> (TripleOutcome, Option<Result<String, String>>) {
    let config = sweep.config;
    let (_, user, scenario) = sweep.inputs.triple(index);
    let mut rng = triple_stream(config.seed, index as u64);
    let sensor_seed: u64 = rng.gen();
    let jitter_seed: u64 = rng.gen();
    let predictor = config.usta.then(|| {
        let (_, pool) = (sweep.pools.iter())
            .find(|(device, _)| *device == scenario.device)
            .expect("one pool per swept device");
        pool[rng.gen_range(0..pool.len())].clone()
    });

    let mut device =
        Device::new(scenario.device_config(sensor_seed)).expect("scenario devices build");
    let mut workload = scenario.workload(jitter_seed, config.max_sim_seconds);
    let sim_seconds = workload.duration();
    let baseline = by_name(&config.governor).expect("governor validated up front");
    let mut governor = match predictor {
        Some(predictor) => Governor::Usta(Box::new(UstaGovernor::new(
            baseline,
            predictor,
            UstaPolicy::new(sweep.shared_limit.unwrap_or(user.skin_limit)),
        ))),
        None => Governor::Baseline(baseline),
    };
    let result = run_workload_recorded(
        &mut device,
        &mut workload,
        &mut governor,
        &RunConfig::default(),
        recorder,
    );

    let comfort =
        ComfortStats::from_trace(&result.skin_trace, result.log_period_s, user.skin_limit);
    let steps_csv =
        capture_steps.then(|| usta_sim::to_csv_string(&result).map_err(|e| e.to_string()));
    let outcome = TripleOutcome {
        sim_seconds,
        peak_skin_c: result.max_skin.value(),
        time_over_fraction: comfort.fraction_over,
        qos: 1.0 - result.unserved_fraction,
        device: scenario.device,
        domain_names: usta_soc::PerDomain::from_slice(&result.domain_names),
        domain_freq_ghz: usta_soc::PerDomain::from_slice(&result.avg_domain_freq_ghz),
        // The spec's die-node names are 'static; the run's Strings are
        // the same names (the working topology copies the spec's).
        die_node_names: usta_soc::PerDomain::from_slice(&scenario.spec().thermal.die_nodes),
        peak_die_c: result.max_die.iter().map(|t| t.value()).collect(),
        // The display domain traces brightness permille as kHz, so its
        // time-weighted "GHz" average recovers the 0–1 fraction ×1000.
        avg_brightness: result
            .domain_names
            .iter()
            .position(|name| *name == "display")
            .map(|d| result.avg_domain_freq_ghz[d] * 1000.0),
        work: result.work,
    };
    (outcome, steps_csv)
}

/// The report's governor-stack label (`"usta(<baseline>)"` or the bare
/// baseline name).
pub(crate) fn governor_label(config: &SweepConfig) -> String {
    if config.usta {
        format!("usta({})", config.governor)
    } else {
        config.governor.clone()
    }
}

/// Whether a triple's outcome trips the triage thresholds (≥, so a
/// zero threshold dumps every triple).
fn triage_hit(config: &SweepConfig, limit_c: f64, outcome: &TripleOutcome) -> bool {
    outcome.time_over_fraction >= config.triage_over_fraction
        || outcome.peak_skin_c >= limit_c + config.triage_peak_margin_c
}

/// Serializes one triaged triple's recording as a `usta-flight/v1`
/// JSON document. Purely a function of the triple's deterministic run
/// — no timestamps, no thread identity — so the file's bytes are
/// identical at any `--threads`.
fn flight_json(
    sweep: &Sweep,
    index: usize,
    outcome: &TripleOutcome,
    ring: &FlightRecorder,
) -> String {
    use usta_telemetry::json::{write_json_number, write_json_string, write_u64};
    let (user_index, user, scenario) = sweep.inputs.triple(index);
    let mut out =
        String::with_capacity(1024 + ring.len() * usta_telemetry::flight::EVENT_JSON_BYTES);
    out.push_str("{\n  \"schema\": \"usta-flight/v1\",\n  \"triple\": ");
    write_u64(&mut out, index as u64);
    out.push_str(",\n  \"user\": ");
    write_u64(&mut out, user_index as u64);
    out.push_str(",\n  \"user_limit_c\": ");
    write_json_number(&mut out, user.skin_limit.value());
    out.push_str(",\n  \"scenario\": ");
    write_json_string(&mut out, &scenario.name());
    out.push_str(",\n  \"device\": ");
    write_json_string(&mut out, scenario.device);
    out.push_str(",\n  \"governor\": ");
    write_json_string(&mut out, &governor_label(sweep.config));
    for (key, value) in [
        ("peak_skin_c", outcome.peak_skin_c),
        ("time_over_fraction", outcome.time_over_fraction),
        ("qos", outcome.qos),
    ] {
        out.push_str(",\n  \"");
        out.push_str(key);
        out.push_str("\": ");
        write_json_number(&mut out, value);
    }
    out.push_str(",\n  \"windows\": {\"recorded\": ");
    write_u64(&mut out, ring.recorded());
    out.push_str(", \"kept\": ");
    write_u64(&mut out, ring.len() as u64);
    out.push_str(", \"capacity\": ");
    write_u64(&mut out, ring.capacity() as u64);
    out.push_str("},\n  \"domains\": [");
    for (i, name) in outcome.domain_names.as_slice().iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        write_json_string(&mut out, name);
    }
    out.push_str("],\n  \"events\": ");
    ring.write_events_json(&mut out);
    out.push_str("\n}\n");
    out
}

/// A sweep's static inputs: the resolved device ids, the scenario
/// catalog and the sampled user population.
pub(crate) struct SweepInputs {
    devices: Vec<&'static str>,
    catalog: ScenarioCatalog,
    population: UserPopulation,
}

impl SweepInputs {
    /// Triples in the sweep.
    pub(crate) fn total(&self) -> usize {
        self.population.len() * self.catalog.len()
    }

    /// The one mapping from a triple index to its coordinates: the
    /// user's index, the user, and the scenario (which names the
    /// device). Users are the outer axis.
    pub(crate) fn triple(&self, index: usize) -> (usize, &UserProfile, &Scenario) {
        let user = index / self.catalog.len();
        let scenario = &self.catalog.scenarios()[index % self.catalog.len()];
        (user, &self.population.users()[user], scenario)
    }
}

/// Validates the sweep's static inputs and builds the grid shared by
/// [`run_sweep`] and [`crate::explain`].
pub(crate) fn sweep_inputs(config: &SweepConfig) -> Result<SweepInputs, FleetError> {
    usta_governors::try_by_name(&config.governor)
        .map_err(|e| FleetError::UnknownGovernor(e.name().to_owned()))?;
    let cap_valid = |seconds: f64| seconds > 0.0 && seconds.is_finite();
    if !cap_valid(config.max_sim_seconds) || !cap_valid(config.training_cap_seconds) {
        // NaN fails the comparison, so it lands here too.
        return Err(FleetError::NonPositiveSimCap);
    }
    if !(0.0..=1.0).contains(&config.triage_over_fraction) {
        return Err(FleetError::InvalidTriageThreshold {
            field: "triage_over_fraction",
            expected: "a fraction in [0, 1]",
        });
    }
    if !config.triage_peak_margin_c.is_finite() {
        return Err(FleetError::InvalidTriageThreshold {
            field: "triage_peak_margin_c",
            expected: "finite",
        });
    }
    let devices = config.resolved_devices()?;
    if devices.is_empty() {
        return Err(FleetError::EmptySweep);
    }
    let catalog = if config.smoke {
        ScenarioCatalog::smoke_on(&devices)
    } else {
        let default_axes;
        let axes = match &config.grid {
            Some(axes) => axes,
            None => {
                default_axes = GridAxes::default();
                &default_axes
            }
        };
        ScenarioCatalog::sampled_grid_on(
            config.seed ^ 0x5CE4_A210,
            config.scenarios,
            axes,
            &devices,
        )
    };
    let inputs = SweepInputs {
        devices,
        catalog,
        population: UserPopulation::sampled(config.seed, config.users),
    };
    if inputs.total() == 0 {
        return Err(FleetError::EmptySweep);
    }
    Ok(inputs)
}

/// The fleet layer's registered instruments, resolved once per sweep so
/// workers touch no registry locks on the hot path. `None` while
/// telemetry is disabled — every instrumented site then reduces to an
/// `Option` check.
pub(crate) struct FleetTelemetry {
    /// Kept for the per-triple spans, which need the registry to open.
    registry: &'static usta_telemetry::Registry,
    /// `fleet.triples`: finished triples (deterministic; also drives
    /// the CLI progress line).
    triples: usta_telemetry::Counter,
    /// `fleet.chunks`: finished work-queue chunks (deterministic).
    chunks: usta_telemetry::Counter,
    /// `fleet.flight_dumps`: triage recordings written (deterministic
    /// — the dump set is a pure function of the config).
    flight_dumps: usta_telemetry::Counter,
    /// `fleet.queue_wait`: how long a finished chunk sat between a
    /// worker sending it and the coordinator merging it.
    queue_wait: usta_telemetry::DurationHistogram,
    /// `fleet.chunk_merge`: wall-clock seconds per aggregate merge.
    chunk_merge: usta_telemetry::DurationHistogram,
    /// `fleet.queue_depth`: chunks still unclaimed in the work queue
    /// (gauge — wall-clock territory, sampled by the progress line).
    queue_depth: usta_telemetry::Gauge,
    /// `fleet.inflight_triples`: triples currently simulating across
    /// all workers (gauge, sampled by the progress line).
    inflight: usta_telemetry::Gauge,
    /// Exact in-flight count behind the `inflight` gauge (gauges are
    /// last-write-wins; the atomic makes concurrent updates add up).
    inflight_count: std::sync::atomic::AtomicI64,
}

/// The `'static` gauge name for worker `w`'s busy fraction
/// (`fleet.worker<w>.busy`). Names are leaked once per process-wide
/// worker index — the registry API wants `&'static str`, and sweeps
/// reuse the same handful of indices.
fn worker_busy_gauge_name(worker: usize) -> &'static str {
    static NAMES: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut names = NAMES.lock().expect("gauge name cache not poisoned");
    while names.len() <= worker {
        let w = names.len();
        names.push(Box::leak(format!("fleet.worker{w}.busy").into_boxed_str()));
    }
    names[worker]
}

impl FleetTelemetry {
    /// Wires the instruments against an explicit registry (the sweep
    /// uses the global sink; tests pass their own).
    pub(crate) fn with_registry(registry: &'static usta_telemetry::Registry) -> FleetTelemetry {
        FleetTelemetry {
            registry,
            triples: registry.counter("fleet.triples"),
            chunks: registry.counter("fleet.chunks"),
            flight_dumps: registry.counter("fleet.flight_dumps"),
            queue_wait: registry.histogram("fleet.queue_wait"),
            chunk_merge: registry.histogram("fleet.chunk_merge"),
            queue_depth: registry.gauge("fleet.queue_depth"),
            inflight: registry.gauge("fleet.inflight_triples"),
            inflight_count: std::sync::atomic::AtomicI64::new(0),
        }
    }

    /// The busy-fraction gauge for worker `worker` (busy wall-clock
    /// over total wall-clock since the worker started; the progress
    /// line renders these).
    pub(crate) fn worker_busy(&self, worker: usize) -> usta_telemetry::Gauge {
        self.registry.gauge(worker_busy_gauge_name(worker))
    }

    /// A worker claimed a chunk, leaving `remaining` unclaimed.
    pub(crate) fn chunk_claimed(&self, remaining: usize) {
        self.queue_depth.set(remaining as f64);
    }

    /// A `fleet.sink_write` span: wall-clock seconds the coordinator
    /// spends writing one merged chunk's `triples.csv` rows, step files
    /// and flight files.
    fn sink_write_span(&self) -> usta_telemetry::Span {
        self.registry.span("fleet.sink_write")
    }

    /// A `fleet.triple` span: wall-clock seconds per triple, and one
    /// trace event per triple on the worker's own timeline.
    fn triple_span(&self) -> usta_telemetry::Span {
        self.registry.span("fleet.triple")
    }

    /// A triple started simulating on some worker.
    pub(crate) fn triple_started(&self) {
        let now = self.inflight_count.fetch_add(1, Ordering::Relaxed) + 1;
        self.inflight.set(now as f64);
    }

    /// A triple finished (bumps the deterministic `fleet.triples`
    /// counter and drops the in-flight gauge).
    pub(crate) fn triple_finished(&self) {
        self.triples.increment();
        let now = self.inflight_count.fetch_sub(1, Ordering::Relaxed) - 1;
        self.inflight.set(now as f64);
    }
}

/// Header of the per-triple trace CSV.
const TRACE_HEADER: &str = "triple,user,scenario,device,peak_skin_c,time_over_fraction,qos\n";

/// Appends one trace row to `out`. Floats are written in Rust's
/// shortest round-trip `Display` form, so the file is byte-stable and
/// loses no precision.
fn write_trace_row(out: &mut String, inputs: &SweepInputs, index: usize, outcome: &TripleOutcome) {
    use usta_telemetry::json::{write_f64, write_u64};
    let (user, _, scenario) = inputs.triple(index);
    write_u64(out, index as u64);
    out.push(',');
    write_u64(out, user as u64);
    out.push(',');
    out.push_str(&scenario.name());
    out.push(',');
    out.push_str(scenario.device);
    for value in [outcome.peak_skin_c, outcome.time_over_fraction, outcome.qos] {
        out.push(',');
        write_f64(out, value);
    }
    out.push('\n');
}

/// What one chunk of triples produced.
#[derive(Debug, Default, PartialEq)]
struct ChunkResult {
    chunk: usize,
    /// The chunk's triples folded in index order.
    partial: FleetAggregate,
    /// The chunk's `triples.csv` rows, in triple order.
    rows: String,
    /// `--trace-steps` traces, `(triple index, CSV or render error)`.
    step_csvs: Vec<(usize, Result<String, String>)>,
    /// Triaged flight recordings, `(triple index, file contents)`.
    flights: Vec<(usize, String)>,
    /// The chunk's worst-triples candidates, already top-K'd.
    worst: Vec<WorstTriple>,
}

/// Runs chunk `chunk` of the sweep: its triples strictly in index
/// order (the canonical association the determinism contract
/// promises). The result is a pure function of the sweep and the chunk
/// index: `ring` is scratch storage, cleared before every triple, and
/// telemetry only observes.
fn run_chunk(sweep: &Sweep, chunk: usize, mut ring: Option<&mut FlightRecorder>) -> ChunkResult {
    let (config, telemetry) = (sweep.config, sweep.telemetry.as_ref());
    if let Some(telemetry) = telemetry {
        telemetry.chunk_claimed(sweep.chunks() - chunk - 1);
    }
    let tracing = config.trace_dir.is_some();
    let lo = chunk * sweep.chunk_size();
    let hi = (lo + sweep.chunk_size()).min(sweep.inputs.total());
    let mut result = ChunkResult {
        chunk,
        ..ChunkResult::default()
    };
    for index in lo..hi {
        if let Some(ring) = ring.as_deref_mut() {
            ring.clear();
        }
        let triple_span = telemetry.map(FleetTelemetry::triple_span);
        if let Some(telemetry) = telemetry {
            telemetry.triple_started();
        }
        let capture_steps = tracing && index < config.trace_steps;
        let (outcome, steps_csv) = run_triple(sweep, index, capture_steps, ring.as_deref_mut());
        if let Some(telemetry) = telemetry {
            telemetry.triple_finished();
        }
        drop(triple_span);

        if tracing {
            write_trace_row(&mut result.rows, sweep.inputs, index, &outcome);
        }
        if let Some(csv) = steps_csv {
            result.step_csvs.push((index, csv));
        }
        if let Some(ring) = ring.as_deref() {
            let (user, profile, scenario) = sweep.inputs.triple(index);
            let limit_c = profile.skin_limit.value();
            let dumped = triage_hit(config, limit_c, &outcome);
            if dumped {
                let json = flight_json(sweep, index, &outcome, ring);
                result.flights.push((index, json));
            }
            if config.worst_k > 0 {
                result.worst.push(WorstTriple {
                    index,
                    user,
                    limit_c,
                    scenario: scenario.name(),
                    device: scenario.device,
                    peak_skin_c: outcome.peak_skin_c,
                    time_over_fraction: outcome.time_over_fraction,
                    dumped,
                });
            }
        }
        result.partial.record(&outcome);
    }
    keep_worst(&mut result.worst, config.worst_k);
    if let Some(telemetry) = telemetry {
        telemetry.chunks.increment();
    }
    result
}

/// A [`FleetError::TraceSink`] that names the file it failed on.
fn sink_error(path: &Path, error: impl std::fmt::Display) -> FleetError {
    FleetError::TraceSink(format!("{}: {error}", path.display()))
}

/// Folds chunk results in chunk-index order into the aggregate, the
/// worst table and the trace directory's files, parking chunks that
/// arrive early. That order is what makes the f64 sums and every file
/// bit-identical at any thread count. Chunks are claimed in index
/// order, so a parked chunk only waits on chunks that were already
/// running when it was claimed: the buffer holds what the other
/// workers finish while the oldest chunk runs, a few chunks per worker
/// when chunk costs are alike, however long the sweep.
struct ChunkSink<'s> {
    sweep: &'s Sweep<'s>,
    /// The trace directory and its open `triples.csv`.
    trace: Option<(&'s Path, BufWriter<File>)>,
    aggregate: FleetAggregate,
    worst: Vec<WorstTriple>,
    /// Results that arrived ahead of `next`, with their send times.
    parked: BTreeMap<usize, ChunkMsg>,
    /// The chunk index to fold next.
    next: usize,
}

impl<'s> ChunkSink<'s> {
    /// Opens the sink: creates the trace directory, if the sweep has
    /// one, and `triples.csv` with its header.
    fn open(sweep: &'s Sweep<'s>) -> Result<ChunkSink<'s>, FleetError> {
        let trace = match sweep.config.trace_dir.as_deref() {
            Some(dir) => {
                let path = dir.join("triples.csv");
                let open = || -> std::io::Result<BufWriter<File>> {
                    std::fs::create_dir_all(dir)?;
                    let mut writer = BufWriter::new(File::create(&path)?);
                    writer.write_all(TRACE_HEADER.as_bytes())?;
                    Ok(writer)
                };
                Some((dir, open().map_err(|e| sink_error(&path, e))?))
            }
            None => None,
        };
        Ok(ChunkSink {
            sweep,
            trace,
            aggregate: FleetAggregate::new(),
            worst: Vec::new(),
            parked: BTreeMap::new(),
            next: 0,
        })
    }

    /// Takes one chunk's result, `sent_at` being when its worker sent
    /// it (telemetry only), and folds every chunk that is now next.
    fn push(&mut self, result: ChunkResult, sent_at: Option<Instant>) -> Result<(), FleetError> {
        self.parked.insert(result.chunk, (result, sent_at));
        while let Some((result, sent_at)) = self.parked.remove(&self.next) {
            self.fold(result, sent_at)?;
            self.next += 1;
        }
        Ok(())
    }

    fn fold(&mut self, result: ChunkResult, sent_at: Option<Instant>) -> Result<(), FleetError> {
        let telemetry = self.sweep.telemetry.as_ref();
        if let (Some(telemetry), Some(sent)) = (telemetry, sent_at) {
            telemetry.queue_wait.record(sent.elapsed());
        }
        let merge_start = telemetry.map(|_| Instant::now());
        self.aggregate.merge(&result.partial);
        if let (Some(telemetry), Some(start)) = (telemetry, merge_start) {
            telemetry.chunk_merge.record(start.elapsed());
        }
        // Candidates append in triple order and the (total, exact) sort
        // keeps the same K rows at any thread count.
        self.worst.extend(result.worst);
        keep_worst(&mut self.worst, self.sweep.config.worst_k);
        let Some((dir, triples)) = self.trace.as_mut() else {
            return Ok(());
        };
        // `fleet.sink_write` times the writes, so the metrics show
        // whether the sink or the workers set the sweep's pace.
        let _span = telemetry.map(FleetTelemetry::sink_write_span);
        triples
            .write_all(result.rows.as_bytes())
            .map_err(|e| sink_error(&dir.join("triples.csv"), e))?;
        for (index, csv) in result.step_csvs {
            let path = dir.join(format!("steps-{index:06}.csv"));
            csv.and_then(|csv| std::fs::write(&path, csv).map_err(|e| e.to_string()))
                .map_err(|e| sink_error(&path, e))?;
        }
        // Each dump is freed once written, not with the whole chunk.
        for (index, json) in result.flights {
            let path = dir.join(format!("flight-{index:06}.json"));
            std::fs::write(&path, json).map_err(|e| sink_error(&path, e))?;
            if let Some(telemetry) = telemetry {
                telemetry.flight_dumps.increment();
            }
        }
        Ok(())
    }

    /// Flushes `triples.csv` and returns the sweep's report.
    fn finish(mut self) -> Result<FleetReport, FleetError> {
        if let Some((dir, triples)) = self.trace.as_mut() {
            triples
                .flush()
                .map_err(|e| sink_error(&dir.join("triples.csv"), e))?;
        }
        let Sweep { config, inputs, .. } = self.sweep;
        Ok(FleetReport {
            users: inputs.population.len(),
            scenarios: inputs.catalog.len(),
            seed: config.seed,
            governor: governor_label(config),
            devices: inputs.devices.clone(),
            aggregate: self.aggregate,
            worst: self.worst,
        })
    }
}

/// Runs the sweep and returns the merged report.
///
/// # Errors
///
/// Returns [`FleetError`] when the governor name or a device id is
/// unknown, the sweep is empty, the predictor pool cannot be trained,
/// or the trace sink cannot be written.
pub fn run_sweep(config: &SweepConfig) -> Result<FleetReport, FleetError> {
    if config.trace_steps > 0 && config.trace_dir.is_none() {
        return Err(FleetError::TraceSink(
            "trace_steps requires a trace_dir to write into".to_owned(),
        ));
    }
    let inputs = sweep_inputs(config)?;
    let pools = train_pools(config, &inputs.devices)?;
    run_sweep_trained(config, &inputs, &pools)
}

/// The message a worker sends the sink: one chunk's result and when
/// it was sent (telemetry only).
type ChunkMsg = (ChunkResult, Option<Instant>);

/// One worker: claims chunks in index order from the shared cursor
/// until the sweep is done or `abort` is set, runs each, and sends the
/// result to the sink.
fn work(
    sweep: &Sweep,
    worker: usize,
    next_chunk: &AtomicUsize,
    abort: &AtomicBool,
    tx: mpsc::SyncSender<ChunkMsg>,
) {
    let mut ring = sweep.flight_ring();
    let (started, mut busy) = (Instant::now(), Duration::ZERO);
    let busy_gauge = sweep.telemetry.as_ref().map(|t| t.worker_busy(worker));
    loop {
        let chunk = next_chunk.fetch_add(1, Ordering::Relaxed);
        if chunk >= sweep.chunks() || abort.load(Ordering::Relaxed) {
            break;
        }
        let work_start = Instant::now();
        let result = run_chunk(sweep, chunk, ring.as_mut());
        let sent_at = sweep.telemetry.as_ref().map(|_| Instant::now());
        // Fails only once the sink stopped, and then `abort` is set.
        let _ = tx.send((result, sent_at));
        if let Some(gauge) = &busy_gauge {
            busy += work_start.elapsed();
            gauge.set(busy.as_secs_f64() / started.elapsed().as_secs_f64().max(1e-9));
        }
    }
}

/// [`run_sweep`] after validation and training: runs every triple of
/// `inputs` against the already-trained `pools`, so
/// [`target_percentile`] trains once per search.
fn run_sweep_trained(
    config: &SweepConfig,
    inputs: &SweepInputs,
    pools: &[(&'static str, Vec<TemperaturePredictor>)],
) -> Result<FleetReport, FleetError> {
    let telemetry = usta_telemetry::Sink::active().map(FleetTelemetry::with_registry);
    let sweep = Sweep::new(config, inputs, pools, telemetry);
    let mut sink = ChunkSink::open(&sweep)?;
    let workers = config.threads.clamp(1, sweep.chunks());
    // Workers claim chunks in index order from one shared cursor, so
    // the oldest unfolded chunk is always already running.
    let next_chunk = AtomicUsize::new(0);
    // Set when the sink fails: the sweep's result is already lost, so
    // workers stop instead of simulating the rest of the grid.
    let abort = AtomicBool::new(false);
    // Bounded: a worker that outruns the sink's writes blocks on `send`
    // instead of piling results up in memory.
    let (tx, rx) = mpsc::sync_channel(workers);
    std::thread::scope(|scope| {
        for worker in 0..workers {
            let (tx, sweep, next_chunk, abort) = (tx.clone(), &sweep, &next_chunk, &abort);
            scope.spawn(move || work(sweep, worker, next_chunk, abort, tx));
        }
        drop(tx);
        // Fold while the workers run. On a sink error `rx` drops, which
        // wakes any worker blocked on a full channel.
        let sunk = rx
            .iter()
            .try_for_each(|(result, sent_at)| sink.push(result, sent_at));
        abort.store(sunk.is_err(), Ordering::Relaxed);
        drop(rx);
        sunk
    })?;
    sink.finish()
}

/// One probe of the percentile-targeting search: the percentile tried,
/// the p99 time-over-limit fraction it produced, and whether it met the
/// budget.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileProbe {
    /// The population percentile handed to the policy.
    pub percentile: f64,
    /// The resulting fleet p99 of time-over-limit (fraction of run).
    pub p99_time_over: f64,
    /// `true` when `p99_time_over <= budget`.
    pub feasible: bool,
}

/// The result of [`target_percentile`]: the laxest feasible policy
/// percentile, the full probe trajectory, and the report at the chosen
/// operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct PercentileTarget {
    /// The chosen population percentile (laxest that met the budget, or
    /// `0.0` when even the strictest limit misses it).
    pub percentile: f64,
    /// The fleet p99 time-over-limit at the chosen percentile.
    pub p99_time_over: f64,
    /// `false` when no percentile met the budget and the strictest
    /// (percentile 0) result is returned as the fallback.
    pub feasible: bool,
    /// Every probe in evaluation order — deterministic, so two searches
    /// from the same config produce identical trajectories at any
    /// thread count.
    pub trajectory: Vec<PercentileProbe>,
    /// The sweep report at the chosen percentile.
    pub report: FleetReport,
}

/// Bisects [`SweepConfig::policy_limit_percentile`] for the laxest
/// population percentile whose fleet-wide p99 time-over-limit stays
/// within `budget` (a fraction of the run, e.g. `0.05` for 5%).
///
/// Raising the percentile raises the shared policy limit, which
/// monotonically raises time over each user's *own* limit — so the
/// feasible set is a prefix of `[0, 100]` and bisection applies. The
/// search probes percentile 100 first (done if already feasible), then
/// percentile 0 (the fallback when nothing is feasible), then runs
/// `iterations` rounds of bisection. The predictor pools are trained
/// once and shared by every probe; each probe is otherwise a full
/// [`run_sweep`], so the whole search is bit-deterministic at any
/// thread count; trace and flight sinks are disabled for probe runs.
///
/// # Errors
///
/// Propagates the first [`FleetError`] from any probe sweep.
pub fn target_percentile(
    config: &SweepConfig,
    budget: f64,
    iterations: usize,
) -> Result<PercentileTarget, FleetError> {
    let mut probe_config = config.clone();
    probe_config.trace_dir = None;
    probe_config.trace_steps = 0;
    let inputs = sweep_inputs(&probe_config)?;
    let pools = train_pools(&probe_config, &inputs.devices)?;
    let mut trajectory = Vec::new();
    let mut evaluate = |percentile: f64,
                        trajectory: &mut Vec<PercentileProbe>|
     -> Result<(f64, FleetReport), FleetError> {
        probe_config.policy_limit_percentile = Some(percentile);
        let report = run_sweep_trained(&probe_config, &inputs, &pools)?;
        let p99_time_over = report.aggregate.time_over_limit.sketch.quantile(0.99);
        trajectory.push(PercentileProbe {
            percentile,
            p99_time_over,
            feasible: p99_time_over <= budget,
        });
        Ok((p99_time_over, report))
    };

    let (over_hi, report_hi) = evaluate(100.0, &mut trajectory)?;
    if over_hi <= budget {
        return Ok(PercentileTarget {
            percentile: 100.0,
            p99_time_over: over_hi,
            feasible: true,
            trajectory,
            report: report_hi,
        });
    }
    let (over_lo, report_lo) = evaluate(0.0, &mut trajectory)?;
    let mut best = (0.0, over_lo, report_lo);
    let (mut lo, mut hi) = (0.0_f64, 100.0_f64);
    for _ in 0..iterations {
        let mid = 0.5 * (lo + hi);
        let (over, report) = evaluate(mid, &mut trajectory)?;
        if over <= budget {
            best = (mid, over, report);
            lo = mid;
        } else {
            hi = mid;
        }
    }
    let (percentile, p99_time_over, report) = best;
    Ok(PercentileTarget {
        percentile,
        feasible: p99_time_over <= budget,
        p99_time_over,
        trajectory,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_config() -> SweepConfig {
        SweepConfig {
            users: 4,
            max_sim_seconds: 30.0,
            predictor_pool: 2,
            training_benchmarks: vec![Benchmark::GfxBench],
            training_cap_seconds: 60.0,
            chunk_size: 3,
            smoke: true,
            ..SweepConfig::default()
        }
    }

    #[test]
    fn fleet_telemetry_gauges_track_queue_depth_and_inflight_triples() {
        // A private registry so the global sink's state (shared with
        // every other test) stays untouched.
        let registry: &'static usta_telemetry::Registry =
            Box::leak(Box::new(usta_telemetry::Registry::new()));
        let telemetry = FleetTelemetry::with_registry(registry);
        telemetry.chunk_claimed(7);
        assert_eq!(registry.gauge("fleet.queue_depth").value(), 7.0);
        telemetry.triple_started();
        telemetry.triple_started();
        assert_eq!(registry.gauge("fleet.inflight_triples").value(), 2.0);
        telemetry.triple_finished();
        assert_eq!(registry.gauge("fleet.inflight_triples").value(), 1.0);
        assert_eq!(registry.counter("fleet.triples").value(), 1);
        telemetry.chunk_claimed(4);
        assert_eq!(registry.gauge("fleet.queue_depth").value(), 4.0);
        // Worker busy gauges resolve to stable leaked names.
        telemetry.worker_busy(0).set(0.75);
        assert_eq!(registry.gauge("fleet.worker0.busy").value(), 0.75);
    }

    #[test]
    fn keep_worst_orders_by_time_over_then_peak_then_index() {
        let row = |index: usize, over: f64, peak: f64| WorstTriple {
            index,
            user: 0,
            limit_c: 37.0,
            scenario: "s".to_owned(),
            device: "nexus4",
            peak_skin_c: peak,
            time_over_fraction: over,
            dumped: false,
        };
        let mut rows = vec![
            row(0, 0.1, 38.0),
            row(1, 0.3, 37.0),
            row(2, 0.1, 39.0),
            row(3, 0.3, 37.0),
            row(4, 0.0, 40.0),
        ];
        keep_worst(&mut rows, 3);
        let order: Vec<usize> = rows.iter().map(|r| r.index).collect();
        assert_eq!(order, vec![1, 3, 2], "over desc, peak desc, index asc");
    }

    #[test]
    fn unknown_governor_is_rejected() {
        let config = SweepConfig {
            governor: "schedutil".to_owned(),
            ..tiny_config()
        };
        assert_eq!(
            run_sweep(&config),
            Err(FleetError::UnknownGovernor("schedutil".to_owned()))
        );
    }

    #[test]
    fn unknown_device_is_rejected_with_the_catalog_listed() {
        let config = SweepConfig {
            devices: vec!["nexus4".to_owned(), "pixel-9".to_owned()],
            ..tiny_config()
        };
        let err = run_sweep(&config).unwrap_err();
        assert_eq!(err, FleetError::UnknownDevice("pixel-9".to_owned()));
        let message = err.to_string();
        for name in usta_device::NAMES {
            assert!(message.contains(name), "{message:?} should list {name}");
        }
    }

    #[test]
    fn no_devices_is_an_empty_sweep() {
        let config = SweepConfig {
            devices: Vec::new(),
            ..tiny_config()
        };
        assert_eq!(run_sweep(&config), Err(FleetError::EmptySweep));
    }

    #[test]
    fn total_triples_is_zero_for_unresolvable_or_empty_device_lists() {
        for smoke in [false, true] {
            let unknown = SweepConfig {
                devices: vec!["pixel-9".to_owned()],
                smoke,
                ..tiny_config()
            };
            assert_eq!(unknown.total_triples(), 0, "smoke={smoke}");
            let none = SweepConfig {
                devices: Vec::new(),
                smoke,
                ..tiny_config()
            };
            assert_eq!(none.total_triples(), 0, "smoke={smoke}");
        }
    }

    #[test]
    fn non_positive_or_nan_sim_caps_are_rejected() {
        for bad in [0.0, -10.0, f64::NAN, f64::INFINITY] {
            let config = SweepConfig {
                max_sim_seconds: bad,
                ..tiny_config()
            };
            assert_eq!(run_sweep(&config), Err(FleetError::NonPositiveSimCap));
        }
        let config = SweepConfig {
            training_cap_seconds: 0.0,
            ..tiny_config()
        };
        assert_eq!(run_sweep(&config), Err(FleetError::NonPositiveSimCap));
    }

    #[test]
    fn unusable_triage_thresholds_are_rejected() {
        for bad in [f64::NAN, -0.01, 1.5, f64::INFINITY] {
            let config = SweepConfig {
                triage_over_fraction: bad,
                ..tiny_config()
            };
            let error = run_sweep(&config).expect_err("bad fraction is rejected");
            assert_eq!(
                error.to_string(),
                "triage threshold triage_over_fraction must be a fraction in [0, 1]",
                "{bad}"
            );
        }
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let config = SweepConfig {
                triage_peak_margin_c: bad,
                ..tiny_config()
            };
            assert_eq!(
                run_sweep(&config),
                Err(FleetError::InvalidTriageThreshold {
                    field: "triage_peak_margin_c",
                    expected: "finite",
                }),
                "{bad}"
            );
        }
        // The ends of the fraction range, and any finite margin, are
        // usable thresholds.
        for (over, margin) in [(0.0, -3.0), (1.0, 0.0)] {
            let config = SweepConfig {
                triage_over_fraction: over,
                triage_peak_margin_c: margin,
                ..tiny_config()
            };
            assert!(sweep_inputs(&config).is_ok(), "{over} {margin}");
        }
    }

    #[test]
    fn empty_sweep_is_rejected() {
        let config = SweepConfig {
            users: 0,
            ..tiny_config()
        };
        assert_eq!(run_sweep(&config), Err(FleetError::EmptySweep));
    }

    #[test]
    fn sweep_covers_every_triple_once() {
        let config = tiny_config();
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.aggregate.triples as usize, config.total_triples());
        assert_eq!(report.users, 4);
        assert_eq!(report.scenarios, ScenarioCatalog::smoke().len());
        assert_eq!(report.devices, vec![DEFAULT_DEVICE]);
        assert!(report.aggregate.sim_seconds > 0.0);
        // QoS is a fraction.
        assert!(report.aggregate.qos.stats.max() <= 1.0 + 1e-12);
        assert!(report.aggregate.qos.stats.min() >= 0.0);
    }

    #[test]
    fn device_axis_multiplies_the_smoke_grid_and_names_the_devices() {
        let config = SweepConfig {
            devices: vec![
                "nexus4".to_owned(),
                "BUDGET-QUAD".to_owned(), // resolves case-insensitively
                "nexus4".to_owned(),      // duplicate collapses
            ],
            ..tiny_config()
        };
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.devices, vec!["nexus4", "budget-quad"]);
        assert_eq!(report.scenarios, 2 * ScenarioCatalog::smoke().len());
        assert_eq!(report.aggregate.triples as usize, config.total_triples());
        let per_device = ScenarioCatalog::smoke().len() * config.users;
        assert!(report.summary().contains(&format!(
            "devices: nexus4 ({per_device}), budget-quad ({per_device})"
        )));
    }

    #[test]
    fn default_device_summary_has_no_devices_line() {
        let report = run_sweep(&tiny_config()).unwrap();
        assert!(!report.summary().contains("devices:"));
    }

    #[test]
    fn restricted_grid_samples_only_its_axes() {
        use crate::scenario::{AmbientBand, CaseKind};
        let config = SweepConfig {
            smoke: false,
            scenarios: 6,
            grid: Some(GridAxes {
                benchmarks: vec![Benchmark::GfxBench],
                ambients: vec![AmbientBand::Office, AmbientBand::HotCar],
                cases: vec![CaseKind::Naked],
                charging: vec![false],
                hand_held: vec![false, true],
            }),
            ..tiny_config()
        };
        let catalog = sweep_inputs(&config).unwrap().catalog;
        assert_eq!(catalog.len(), 6);
        assert!(catalog
            .scenarios()
            .iter()
            .all(|s| s.benchmark == Benchmark::GfxBench
                && s.case == CaseKind::Naked
                && !s.charging));
    }

    #[test]
    fn default_grid_axes_match_the_flagless_sampler() {
        let flagless = SweepConfig {
            smoke: false,
            ..tiny_config()
        };
        let explicit = SweepConfig {
            grid: Some(GridAxes::default()),
            ..flagless.clone()
        };
        let a = sweep_inputs(&flagless).unwrap().catalog;
        let b = sweep_inputs(&explicit).unwrap().catalog;
        assert_eq!(a, b, "explicit default axes must not disturb sampling");
    }

    #[test]
    fn baseline_only_sweep_skips_training() {
        let config = SweepConfig {
            usta: false,
            predictor_pool: 0,
            training_benchmarks: Vec::new(),
            ..tiny_config()
        };
        let report = run_sweep(&config).unwrap();
        assert_eq!(report.governor, "ondemand");
        assert_eq!(report.aggregate.triples as usize, config.total_triples());
    }

    #[test]
    fn usta_caps_hot_scenarios_relative_to_baseline() {
        let usta = run_sweep(&tiny_config()).unwrap();
        let base = run_sweep(&SweepConfig {
            usta: false,
            ..tiny_config()
        })
        .unwrap();
        // USTA trades QoS for heat: it should never be hotter on
        // average, and should deliver no more cycles than the baseline.
        assert!(usta.aggregate.peak_skin.stats.mean() <= base.aggregate.peak_skin.stats.mean());
        assert!(usta.aggregate.qos.stats.mean() <= base.aggregate.qos.stats.mean() + 1e-12);
    }

    #[test]
    fn report_is_identical_across_thread_counts() {
        let mut config = tiny_config();
        config.threads = 1;
        let one = run_sweep(&config).unwrap();
        config.threads = 4;
        let four = run_sweep(&config).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.summary(), four.summary());
    }

    #[test]
    fn report_is_identical_across_thread_counts_with_device_axis() {
        let mut config = SweepConfig {
            devices: vec!["nexus4".to_owned(), "tablet-10in".to_owned()],
            ..tiny_config()
        };
        config.threads = 1;
        let one = run_sweep(&config).unwrap();
        config.threads = 4;
        let four = run_sweep(&config).unwrap();
        assert_eq!(one, four);
        assert_eq!(one.summary(), four.summary());
    }

    #[test]
    fn trace_sink_writes_every_triple_in_order_at_any_thread_count() {
        let dir = std::env::temp_dir().join(format!("usta_trace_{}", std::process::id()));
        let read_rows = |threads: usize, sub: &str| {
            let mut config = tiny_config();
            config.threads = threads;
            config.trace_dir = Some(dir.join(sub));
            run_sweep(&config).unwrap();
            std::fs::read_to_string(dir.join(sub).join("triples.csv")).unwrap()
        };
        let one = read_rows(1, "t1");
        let four = read_rows(4, "t4");
        assert_eq!(one, four, "trace CSV must be thread-count invariant");
        let lines: Vec<&str> = one.lines().collect();
        let config = tiny_config();
        assert_eq!(lines.len(), 1 + config.total_triples());
        assert_eq!(lines[0], TRACE_HEADER.trim_end());
        for (i, line) in lines[1..].iter().enumerate() {
            let fields: Vec<&str> = line.split(',').collect();
            assert_eq!(fields.len(), 7, "row {i}: {line:?}");
            assert_eq!(fields[0], i.to_string(), "rows in triple order");
            assert_eq!(fields[3], DEFAULT_DEVICE);
            let peak: f64 = fields[4].parse().unwrap();
            assert!(peak.is_finite());
            // Each float is spelled exactly as `{}` spells it.
            for field in &fields[4..] {
                let value: f64 = field.parse().unwrap();
                assert_eq!(*field, format!("{value}"), "row {i}");
            }
            assert_eq!(fields[1], (i / config.scenarios).to_string());
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn unwritable_trace_dir_is_a_clean_error() {
        let config = SweepConfig {
            trace_dir: Some(PathBuf::from("/proc/definitely/not/writable")),
            ..tiny_config()
        };
        assert!(matches!(run_sweep(&config), Err(FleetError::TraceSink(_))));
    }

    #[test]
    fn an_occupied_trace_file_fails_the_sweep_naming_the_file() {
        let dir = std::env::temp_dir().join(format!("usta_occupied_{}", std::process::id()));
        // A directory where the sink must write a file, mid-sweep: a
        // flight dump of chunk 1, and a step trace of chunk 0.
        for (sub, file, trace_steps) in [
            ("flight", "flight-000003.json", 0),
            ("steps", "steps-000001.csv", 4),
        ] {
            std::fs::create_dir_all(dir.join(sub).join(file)).unwrap();
            let config = SweepConfig {
                trace_dir: Some(dir.join(sub)),
                trace_steps,
                triage_over_fraction: 0.0,
                ..tiny_config()
            };
            match run_sweep(&config) {
                Err(FleetError::TraceSink(message)) => {
                    assert!(message.contains(file), "{message:?}")
                }
                other => panic!("expected TraceSink naming {file}, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    /// A traced, fully triaged tiny sweep's inputs and trained pools,
    /// for driving `run_chunk` and `ChunkSink` without threads.
    fn traced_inputs() -> (
        SweepConfig,
        SweepInputs,
        Vec<(&'static str, Vec<TemperaturePredictor>)>,
    ) {
        let config = SweepConfig {
            trace_dir: Some(std::env::temp_dir()),
            trace_steps: 4,
            triage_over_fraction: 0.0,
            ..tiny_config()
        };
        let inputs = sweep_inputs(&config).unwrap();
        let pools = train_pools(&config, &inputs.devices).unwrap();
        (config, inputs, pools)
    }

    #[test]
    fn run_chunk_is_a_pure_function_of_the_chunk() {
        let (config, inputs, pools) = traced_inputs();
        let sweep = Sweep::new(&config, &inputs, &pools, None);
        let mut ring = sweep.flight_ring();
        let first = run_chunk(&sweep, 0, ring.as_mut());
        assert!(!first.rows.is_empty() && !first.flights.is_empty());
        assert_eq!(first.step_csvs.len(), 3, "chunk 0 holds triples 0..3");
        // The same chunk again, after the ring recorded another chunk.
        run_chunk(&sweep, 1, ring.as_mut());
        assert_eq!(run_chunk(&sweep, 0, ring.as_mut()), first);
    }

    #[test]
    fn chunk_sink_folds_reversed_chunks_like_ordered_ones() {
        let (config, inputs, pools) = traced_inputs();
        let dir = std::env::temp_dir().join(format!("usta_sink_order_{}", std::process::id()));
        let fold = |sub: &str, reverse: bool| {
            let config = SweepConfig {
                trace_dir: Some(dir.join(sub)),
                ..config.clone()
            };
            let sweep = Sweep::new(&config, &inputs, &pools, None);
            let mut order: Vec<usize> = (0..sweep.chunks()).collect();
            if reverse {
                order.reverse();
            }
            let mut sink = ChunkSink::open(&sweep).unwrap();
            let mut ring = sweep.flight_ring();
            for chunk in order {
                sink.push(run_chunk(&sweep, chunk, ring.as_mut()), None)
                    .unwrap();
            }
            let report = sink.finish().unwrap();
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(dir.join(sub))
                .unwrap()
                .map(|entry| {
                    let entry = entry.unwrap();
                    let name = entry.file_name().to_string_lossy().into_owned();
                    (name, std::fs::read(entry.path()).unwrap())
                })
                .collect();
            files.sort();
            (report, files)
        };
        let ordered = fold("ordered", false);
        let reversed = fold("reversed", true);
        assert_eq!(ordered.0.aggregate.triples as usize, config.total_triples());
        assert!(!ordered.0.worst.is_empty());
        // triples.csv, 4 step traces, and a flight dump per triple.
        assert_eq!(ordered.1.len(), 1 + 4 + config.total_triples());
        assert!(ordered == reversed, "fold order must not show");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn trace_steps_without_a_trace_dir_is_rejected() {
        let config = SweepConfig {
            trace_steps: 3,
            ..tiny_config()
        };
        match run_sweep(&config) {
            Err(FleetError::TraceSink(message)) => {
                assert!(message.contains("trace_dir"), "{message:?}")
            }
            other => panic!("expected TraceSink, got {other:?}"),
        }
    }

    #[test]
    fn trace_steps_sink_writes_the_first_n_step_traces_thread_invariantly() {
        let dir = std::env::temp_dir().join(format!("usta_steps_{}", std::process::id()));
        let run = |threads: usize, sub: &str| -> Vec<(String, String)> {
            let mut config = tiny_config();
            config.threads = threads;
            config.trace_dir = Some(dir.join(sub));
            config.trace_steps = 5;
            run_sweep(&config).unwrap();
            let mut files: Vec<(String, String)> = std::fs::read_dir(dir.join(sub))
                .unwrap()
                .map(|e| e.unwrap())
                .filter(|e| e.file_name().to_string_lossy().starts_with("steps-"))
                .map(|e| {
                    (
                        e.file_name().to_string_lossy().into_owned(),
                        std::fs::read_to_string(e.path()).unwrap(),
                    )
                })
                .collect();
            files.sort();
            files
        };
        let one = run(1, "t1");
        let four = run(4, "t4");
        assert_eq!(one.len(), 5, "exactly the first five triples");
        assert_eq!(one, four, "step traces must be thread-count invariant");
        assert_eq!(one[0].0, "steps-000000.csv");
        let header = one[0].1.lines().next().unwrap().to_owned();
        assert!(
            header.starts_with("t_s,skin_c,screen_c,freq_khz"),
            "{header:?}"
        );
        assert!(one[0].1.lines().count() > 1, "rows beyond the header");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn flagship_sweep_reports_distinct_big_and_little_statistics() {
        let config = SweepConfig {
            devices: vec!["flagship-octa".to_owned()],
            ..tiny_config()
        };
        let report = run_sweep(&config).unwrap();
        let keys: Vec<&String> = report.aggregate.domain_freq_ghz.keys().collect();
        assert_eq!(
            keys,
            vec![
                "flagship-octa/big",
                "flagship-octa/gpu",
                "flagship-octa/little"
            ]
        );
        let big = &report.aggregate.domain_freq_ghz["flagship-octa/big"];
        let little = &report.aggregate.domain_freq_ghz["flagship-octa/little"];
        assert_eq!(big.stats.count(), report.aggregate.triples);
        assert_ne!(
            big.stats.mean(),
            little.stats.mean(),
            "the clusters must report distinct frequency statistics"
        );
        // The governed GPU reports a real clock, and the display
        // reports as a brightness fraction rather than a GHz row.
        let gpu = &report.aggregate.domain_freq_ghz["flagship-octa/gpu"];
        assert!(gpu.stats.mean() > 0.0);
        let brightness = &report.aggregate.brightness["flagship-octa"];
        assert_eq!(brightness.stats.count(), report.aggregate.triples);
        assert!(brightness.stats.mean() > 0.0 && brightness.stats.max() <= 1.0);
        let summary = report.summary();
        assert!(summary.contains("freq [GHz] flagship-octa/big"));
        assert!(summary.contains("freq [GHz] flagship-octa/little"));
        assert!(summary.contains("freq [GHz] flagship-octa/gpu"));
        assert!(summary.contains("brightness flagship-octa"));
    }

    #[test]
    fn flagship_sweep_reports_per_die_temperatures_big_hotter() {
        let config = SweepConfig {
            devices: vec!["flagship-octa".to_owned()],
            ..tiny_config()
        };
        let report = run_sweep(&config).unwrap();
        let keys: Vec<&String> = report.aggregate.die_temp_c.keys().collect();
        assert_eq!(
            keys,
            vec!["flagship-octa/die_big", "flagship-octa/die_little"]
        );
        let big = &report.aggregate.die_temp_c["flagship-octa/die_big"];
        let little = &report.aggregate.die_temp_c["flagship-octa/die_little"];
        assert_eq!(big.stats.count(), report.aggregate.triples);
        assert!(
            big.stats.mean() > little.stats.mean(),
            "the big die must run hotter on average: {} vs {}",
            big.stats.mean(),
            little.stats.mean()
        );
        let summary = report.summary();
        assert!(summary.contains("temp [C] flagship-octa/die_big"));
        assert!(summary.contains("temp [C] flagship-octa/die_little"));
    }

    #[test]
    fn single_domain_sweeps_report_no_domain_rows() {
        let report = run_sweep(&tiny_config()).unwrap();
        assert!(report.aggregate.domain_freq_ghz.is_empty());
        assert!(report.aggregate.brightness.is_empty());
        assert!(report.aggregate.die_temp_c.is_empty());
        assert!(!report.summary().contains("freq [GHz]"));
        assert!(!report.summary().contains("brightness"));
        assert!(!report.summary().contains("temp [C]"));
    }

    #[test]
    fn policy_limit_follows_the_nearest_rank_percentile() {
        let population = UserPopulation::sampled(42, 11);
        let user = &population.users()[0];
        let mut limits: Vec<f64> = population
            .users()
            .iter()
            .map(|u| u.skin_limit.value())
            .collect();
        limits.sort_by(f64::total_cmp);
        let mut config = tiny_config();
        let policy_limit =
            |config: &SweepConfig| policy_limit(config, &population).unwrap_or(user.skin_limit);
        assert_eq!(
            policy_limit(&config),
            user.skin_limit,
            "without a percentile the user's own limit applies"
        );
        for (p, rank) in [(0.0, 0), (50.0, 5), (100.0, 10), (1000.0, 10)] {
            config.policy_limit_percentile = Some(p);
            assert_eq!(
                policy_limit(&config),
                Celsius(limits[rank]),
                "percentile {p}"
            );
        }
        // Monotone: a laxer percentile never lowers the limit.
        let mut at = |p: f64| {
            config.policy_limit_percentile = Some(p);
            policy_limit(&config).value()
        };
        for w in (0..=10)
            .map(|i| i as f64 * 10.0)
            .collect::<Vec<_>>()
            .windows(2)
        {
            assert!(at(w[0]) <= at(w[1]));
        }
    }

    #[test]
    fn percentile_targeting_is_thread_count_invariant() {
        let mut config = tiny_config();
        config.threads = 1;
        let one = target_percentile(&config, 0.05, 3).unwrap();
        config.threads = 4;
        let four = target_percentile(&config, 0.05, 3).unwrap();
        assert_eq!(one, four, "trajectory and chosen report must match");
        assert!(!one.trajectory.is_empty());
        // Every probe's feasibility flag matches its p99 vs the budget,
        // and its p99 lies within that probe's observed range.
        for probe in &one.trajectory {
            assert_eq!(probe.feasible, probe.p99_time_over <= 0.05);
            let over = run_sweep(&SweepConfig {
                policy_limit_percentile: Some(probe.percentile),
                ..config.clone()
            })
            .unwrap()
            .aggregate
            .time_over_limit;
            assert_eq!(probe.p99_time_over, over.sketch.quantile(0.99));
            assert!(
                over.stats.min() <= probe.p99_time_over && probe.p99_time_over <= over.stats.max(),
                "probe {}: p99 {} outside [{}, {}]",
                probe.percentile,
                probe.p99_time_over,
                over.stats.min(),
                over.stats.max()
            );
        }
        if one.feasible {
            assert!(one.p99_time_over <= 0.05);
        }
    }

    #[test]
    fn percentile_targeting_report_matches_a_freshly_trained_sweep() {
        // The search trains its pools once and shares them across
        // probes; the chosen report must equal a plain sweep (which
        // trains its own pools) at the chosen percentile.
        let config = tiny_config();
        let target = target_percentile(&config, 0.05, 3).unwrap();
        let fresh = run_sweep(&SweepConfig {
            policy_limit_percentile: Some(target.percentile),
            ..config
        })
        .unwrap();
        assert!(
            target.trajectory.len() > 1,
            "the pools served several probes"
        );
        assert_eq!(target.report, fresh);
        assert_eq!(target.report.summary(), fresh.summary());
    }

    #[test]
    fn percentile_targeting_accepts_a_generous_budget_at_once() {
        let target = target_percentile(&tiny_config(), 1.0, 5).unwrap();
        assert_eq!(target.percentile, 100.0);
        assert!(target.feasible);
        assert_eq!(target.trajectory.len(), 1, "feasible at the first probe");
    }
}
