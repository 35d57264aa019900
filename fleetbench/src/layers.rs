//! The traced run: per-layer metrics for one workload.
//!
//! It rebuilds the workload's triples from public inputs (scenario and
//! population sampling, per-device training campaigns and REPTree fits)
//! and runs every triple three ways: `run_workload`,
//! `run_workload_recorded` with a flight-recorder ring, and the
//! span-instrumented copy in [`crate::traced`]. The traced copy must
//! match the program bit for bit, and the rebuilt triples must fold
//! into exactly the aggregate `run_sweep` reports, so the spans time
//! the sweep's own work.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use usta_core::{
    ComfortStats, PredictionTarget, TemperaturePredictor, TrainingLog, UserPopulation,
    UstaGovernor, UstaPolicy,
};
use usta_fleet::{
    run_sweep, AmbientBand, CaseKind, FleetAggregate, FleetReport, MetricAggregate, Scenario,
    ScenarioCatalog, ScenarioWorkload, SweepConfig, TripleOutcome,
};
use usta_governors::by_name;
use usta_ml::reptree::RepTreeParams;
use usta_ml::Learner;
use usta_sim::{run_workload, run_workload_recorded, Device, Governor, RunConfig, RunResult};
use usta_soc::PerDomain;
use usta_telemetry::FlightRecorder;
use usta_thermal::{DeviceThermalModel, HeatLoad};

use crate::metrics::{Metrics, THERMAL_DEVICES};
use crate::stats::{median, tail};
use crate::sweep::{self, SweepSample, SweepSpec};
use crate::traced::{calibrate_timer_ns, run_traced, Span, StepSpans};
use crate::workload::{self, Workload};

/// Twin sweeps (bare, observed) the traced run times for
/// `telemetry.overhead_frac`.
const TWIN_PAIRS: usize = 2;

/// What a traced run produced.
#[derive(Debug)]
pub struct LayerRun {
    /// Every per-layer metric.
    pub metrics: Metrics,
    /// Triples attempted (sweeps plus traced triples).
    pub attempted: u64,
    /// Output-check failures, empty when everything matched.
    pub failures: Vec<String>,
}

/// Inputs of every triple of one sweep, rebuilt from public calls.
pub struct Rebuilt {
    /// The sweep configuration.
    pub config: SweepConfig,
    /// The sampled scenarios.
    pub catalog: ScenarioCatalog,
    /// The sampled users.
    pub population: UserPopulation,
    /// One trained predictor pool per swept device (empty without USTA).
    pub pools: Vec<(&'static str, Vec<TemperaturePredictor>)>,
}

/// Training-layer spans gathered while rebuilding.
#[derive(Debug, Default, Clone, Copy)]
pub struct TrainingSpans {
    /// One span per device: its data-collection campaign.
    pub campaign: Span,
    /// One span per `TemperaturePredictor::train`.
    pub fit: Span,
}

impl Rebuilt {
    /// Samples the sweep's scenarios and users and trains its predictor
    /// pools exactly as `run_sweep` does.
    ///
    /// # Errors
    ///
    /// Returns a message for unknown devices or failed fits.
    pub fn new(config: &SweepConfig, spans: &mut TrainingSpans) -> Result<Rebuilt, String> {
        let catalog = workload::scenario_catalog(config)?;
        let population = UserPopulation::sampled(config.seed, config.users);
        let mut pools = Vec::new();
        if config.usta {
            for device in config.resolved_devices().map_err(|e| e.to_string())? {
                pools.push((device, train_pool(config, device, spans)?));
            }
        }
        Ok(Rebuilt {
            config: config.clone(),
            catalog,
            population,
            pools,
        })
    }

    /// Triples in the sweep.
    fn len(&self) -> usize {
        self.population.len() * self.catalog.len()
    }

    /// Builds triple `index`'s device, workload and governor, drawing
    /// the per-triple seeds in `run_sweep`'s order.
    pub fn prepare(&self, index: usize) -> (Device, ScenarioWorkload, Governor) {
        let config = &self.config;
        let user = &self.population.users()[index / self.catalog.len()];
        let scenario = &self.catalog.scenarios()[index % self.catalog.len()];
        let mixed = config.seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = ChaCha8Rng::seed_from_u64(mixed);
        let sensor_seed: u64 = rng.gen();
        let jitter_seed: u64 = rng.gen();
        let device =
            Device::new(scenario.device_config(sensor_seed)).expect("scenario devices build");
        let workload = scenario.workload(jitter_seed, config.max_sim_seconds);
        let baseline = by_name(&config.governor).expect("benchmark governors are registered");
        let governor = if config.usta {
            let pool = &self
                .pools
                .iter()
                .find(|(device, _)| *device == scenario.device)
                .expect("one pool per swept device")
                .1;
            let pick = rng.gen_range(0..pool.len());
            Governor::Usta(Box::new(UstaGovernor::new(
                baseline,
                pool[pick].clone(),
                UstaPolicy::new(user.skin_limit),
            )))
        } else {
            Governor::Baseline(baseline)
        };
        (device, workload, governor)
    }

    /// Triple `index`'s fleet outcome from its run, as the sweep folds
    /// it into the aggregate.
    pub fn outcome(&self, index: usize, sim_seconds: f64, result: &RunResult) -> TripleOutcome {
        let user = &self.population.users()[index / self.catalog.len()];
        let scenario = &self.catalog.scenarios()[index % self.catalog.len()];
        let comfort =
            ComfortStats::from_trace(&result.skin_trace, result.log_period_s, user.skin_limit);
        TripleOutcome {
            sim_seconds,
            peak_skin_c: result.max_skin.value(),
            time_over_fraction: comfort.fraction_over,
            qos: 1.0 - result.unserved_fraction,
            device: scenario.device,
            domain_names: PerDomain::from_slice(&result.domain_names),
            domain_freq_ghz: PerDomain::from_slice(&result.avg_domain_freq_ghz),
            die_node_names: PerDomain::from_slice(&scenario.spec().thermal.die_nodes),
            peak_die_c: result.max_die.iter().map(|t| t.value()).collect(),
            avg_brightness: result
                .domain_names
                .iter()
                .position(|name| *name == "display")
                .map(|d| result.avg_domain_freq_ghz[d] * 1000.0),
            work: result.work,
        }
    }
}

/// One device's predictor pool: a baseline campaign over the training
/// benchmarks, then one REPTree per pool slot on a sampled history.
fn train_pool(
    config: &SweepConfig,
    device: &'static str,
    spans: &mut TrainingSpans,
) -> Result<Vec<TemperaturePredictor>, String> {
    let spec = usta_device::by_id(device).ok_or_else(|| format!("unknown device {device}"))?;
    let start = Instant::now();
    let mut per_benchmark: Vec<TrainingLog> = Vec::new();
    for (i, &benchmark) in config.training_benchmarks.iter().enumerate() {
        let mut device =
            usta_sim::experiments::common::device_on(spec, config.seed ^ ((i as u64 + 1) << 48));
        let mut workload = Scenario {
            device: spec.id,
            benchmark,
            ambient: AmbientBand::Office,
            case: CaseKind::Naked,
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
    spans.campaign.add(start);

    let mut pool = Vec::with_capacity(config.predictor_pool);
    for k in 0..config.predictor_pool {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x7001 ^ ((k as u64) << 32));
        let history_len = rng.gen_range(1..per_benchmark.len() + 1);
        let mut indices: Vec<usize> = (0..per_benchmark.len()).collect();
        indices.shuffle(&mut rng);
        let mut log = TrainingLog::new();
        for &idx in indices.iter().take(history_len) {
            log.extend_from(&per_benchmark[idx]);
        }
        let start = Instant::now();
        let predictor = TemperaturePredictor::train(
            &Learner::RepTree(RepTreeParams::default()),
            &log,
            PredictionTarget::Skin,
            config.seed ^ k as u64,
        )
        .map_err(|e| format!("predictor fit: {e}"))?;
        spans.fit.add(start);
        pool.push(predictor);
    }
    Ok(pool)
}

/// Per-step and per-triple timings of the rebuilt sweep.
#[derive(Debug, Default)]
pub struct TripleTimings {
    /// The traced loop's spans over every triple.
    pub spans: StepSpans,
    /// Per triple: the reference loop's wall ns (`run_workload`, or
    /// `run_workload_recorded` with a ring on observed sweeps).
    pub reference_ns: Vec<f64>,
    /// Total ns of `run_workload` without a ring.
    pub bare_ns: f64,
    /// Total ns of `run_workload_recorded` with a ring.
    pub recorded_ns: f64,
    /// Simulation steps over every triple.
    pub steps: u64,
}

/// Runs every triple three ways (rotating which goes first):
/// `run_workload`, `run_workload_recorded` with a ring, and the traced
/// loop (with a ring when `observed`). A triple whose traced result or
/// ring differs from the program's is reported in `failures`. Returns
/// the timings and the aggregate the triples fold into, chunk by chunk
/// as `run_sweep` merges them.
pub fn time_triples(
    rebuilt: &Rebuilt,
    observed: bool,
    failures: &mut Vec<String>,
) -> (TripleTimings, FleetAggregate) {
    let config = RunConfig::default();
    let windows = rebuilt.config.flight_windows;
    let mut timings = TripleTimings::default();
    let mut aggregate = FleetAggregate::new();
    let mut partial = FleetAggregate::new();
    let mut ring = FlightRecorder::new(windows);
    let mut traced_ring = FlightRecorder::new(windows);
    let chunk = rebuilt.config.chunk_size.max(1);
    for index in 0..rebuilt.len() {
        let mut bare = None;
        let mut recorded = None;
        let mut traced = None;
        for variant in 0..3 {
            let (mut device, mut workload, mut governor) = rebuilt.prepare(index);
            let sim_seconds = usta_workloads::Workload::duration(&workload);
            match (index + variant) % 3 {
                0 => {
                    let start = Instant::now();
                    let result = run_workload(&mut device, &mut workload, &mut governor, &config);
                    let ns = start.elapsed().as_nanos() as f64;
                    timings.bare_ns += ns;
                    bare = Some((result, sim_seconds, ns));
                }
                1 => {
                    ring.clear();
                    let start = Instant::now();
                    let result = run_workload_recorded(
                        &mut device,
                        &mut workload,
                        &mut governor,
                        &config,
                        Some(&mut ring),
                    );
                    let ns = start.elapsed().as_nanos() as f64;
                    timings.recorded_ns += ns;
                    recorded = Some((result, ns));
                }
                _ => {
                    traced_ring.clear();
                    let result = run_traced(
                        &mut device,
                        &mut workload,
                        &mut governor,
                        &config,
                        observed.then_some(&mut traced_ring),
                        &mut timings.spans,
                    );
                    traced = Some(result);
                }
            }
        }
        let (bare, sim_seconds, bare_ns) = bare.expect("ran bare");
        let (recorded, recorded_ns) = recorded.expect("ran recorded");
        let traced = traced.expect("ran traced");
        let rings_match = !observed
            || (ring.recorded() == traced_ring.recorded()
                && ring.events_json() == traced_ring.events_json());
        if traced != bare || recorded != bare || !rings_match {
            failures.push(format!(
                "triple {index}: traced loop differs from run_workload"
            ));
        }
        timings
            .reference_ns
            .push(if observed { recorded_ns } else { bare_ns });
        timings.steps += bare.work.steps;
        partial.record(&rebuilt.outcome(index, sim_seconds, &bare));
        if (index + 1) % chunk == 0 || index + 1 == rebuilt.len() {
            aggregate.merge(&partial);
            partial = FleetAggregate::new();
        }
    }
    (timings, aggregate)
}

/// Count of report cells (p50, p90, p99 of every row) outside that
/// row's exact [min, max].
pub fn quantile_outside_range(aggregate: &FleetAggregate) -> u64 {
    let mut rows: Vec<&MetricAggregate> = vec![
        &aggregate.peak_skin,
        &aggregate.time_over_limit,
        &aggregate.qos,
    ];
    rows.extend(aggregate.domain_freq_ghz.values());
    rows.extend(aggregate.brightness.values());
    rows.extend(aggregate.die_temp_c.values());
    rows.iter()
        .flat_map(|row| {
            let (lo, hi) = (row.stats.min(), row.stats.max());
            [0.50, 0.90, 0.99].map(|q| {
                let v = row.sketch.quantile(q);
                u64::from(v < lo || v > hi)
            })
        })
        .sum()
}

/// ns per `DeviceThermalModel::step(0.1)` of a device's bare topology
/// under a fixed heat load, median of 7 batches of 20 000 steps.
pub fn thermal_step_ns(id: &str) -> Result<f64, String> {
    let spec = usta_device::by_id(id).ok_or_else(|| format!("unknown device {id}"))?;
    let config = usta_sim::DeviceConfig::for_device(spec.clone());
    let dies = config.thermal.dies();
    let mut model = DeviceThermalModel::new(config.thermal).map_err(|e| e.to_string())?;
    model.set_heat(HeatLoad {
        die_w: vec![1.5; dies],
        gpu_w: 0.8,
        display_w: 0.6,
        battery_w: 0.3,
        board_w: 0.4,
    });
    for _ in 0..2_000 {
        model.step(0.1);
    }
    const STEPS: u32 = 20_000;
    let mut batches: Vec<f64> = (0..7)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..STEPS {
                black_box(&mut model).step(0.1);
            }
            start.elapsed().as_nanos() as f64 / f64::from(STEPS)
        })
        .collect();
    Ok(median(&mut batches))
}

/// ms per `Catalog::load_dir` plus `install`, median of 9.
fn catalog_load_ms() -> Result<f64, String> {
    let mut samples = Vec::new();
    for _ in 0..9 {
        let start = Instant::now();
        workload::install_catalog()?;
        samples.push(start.elapsed().as_secs_f64() * 1e3);
    }
    Ok(median(&mut samples))
}

/// Runs `config`'s sweep in this process, returning the report and its
/// wall seconds; the trace directory (if any) is removed afterwards.
fn timed_sweep(config: &SweepConfig) -> Result<(FleetReport, f64), String> {
    let start = Instant::now();
    let report = run_sweep(config).map_err(|e| e.to_string());
    let wall = start.elapsed().as_secs_f64();
    if let Some(dir) = &config.trace_dir {
        let _ = std::fs::remove_dir_all(dir);
    }
    Ok((report?, wall))
}

/// The traced run of `workload` at `seed`. `spawn` runs one sweep in a
/// fresh child process (used for the bare/observed twin sweeps, which
/// must not share this process's telemetry state).
pub fn run(
    workload: Workload,
    seed: u64,
    scratch: &Path,
    spawn: &mut dyn FnMut(&SweepSpec) -> Result<SweepSample, String>,
) -> LayerRun {
    let mut metrics = Metrics::default();
    let mut failures = Vec::new();
    let mut attempted = 0u64;
    let n = workload.triples() as u64;
    let timer_ns = calibrate_timer_ns();

    let result = (|| -> Result<(), String> {
        if workload.observed() {
            usta_telemetry::enable();
        }
        if workload.uses_catalog() {
            workload::install_catalog()?;
        }
        let spec = SweepSpec::of(workload, seed);

        // The report, cold (training included), then a warm repeat for
        // the sweep phase's wall.
        attempted += 2 * n;
        let config = sweep::config_for(&spec, &scratch.join("trace-cold"));
        let (report, _) = timed_sweep(&config)?;
        sweep::check_report(&config, &report)?;
        let (warm, sweep_wall_s) =
            timed_sweep(&sweep::config_for(&spec, &scratch.join("trace-warm")))?;
        if warm.summary() != report.summary() {
            failures.push("report differs between repeats".to_owned());
        }

        let mut training = TrainingSpans::default();
        let rebuilt = Rebuilt::new(&config, &mut training)?;
        attempted += n;
        let (timings, aggregate) = time_triples(&rebuilt, workload.observed(), &mut failures);
        if aggregate != report.aggregate {
            failures.push("rebuilt triples do not fold into the sweep's aggregate".to_owned());
        }

        let spans = &timings.spans;
        let steps = timings.steps as f64;
        let reference_ns: f64 = timings.reference_ns.iter().sum();
        let attributed_ns = spans.attributed_ns(timer_ns);
        metrics.push("workloads.demand_ns", spans.demand.ns_per_call(timer_ns));
        metrics.push("sim.apply_ns", spans.apply.ns_per_call(timer_ns));
        metrics.push("sim.observe_ns", spans.observe.ns_per_call(timer_ns));
        metrics.push("core.tick_ns", spans.tick.ns_per_call(timer_ns));
        metrics.push("core.predict_ns", spans.predict.ns_per_call(timer_ns));
        metrics.push("governors.decide_ns", spans.decide.ns_per_call(timer_ns));
        metrics.push(
            "telemetry.record_span_ns",
            spans.record.ns(timer_ns) / steps,
        );
        metrics.push(
            "sim.unattributed_ns",
            (reference_ns - attributed_ns) / steps,
        );
        metrics.push("sim.coverage", attributed_ns / reference_ns);
        metrics.push("trace.timer_ns", timer_ns);
        let mut triple_ms: Vec<f64> = timings.reference_ns.iter().map(|ns| ns / 1e6).collect();
        let (tail_ms, tail_pct) = tail(&mut triple_ms);
        metrics.push("sim.triple_ms.p50", median(&mut triple_ms));
        metrics.push("sim.triple_ms.tail", tail_ms);
        metrics.push("sim.triple_ms.tail_pct", tail_pct);
        metrics.push(
            "telemetry.record_ns",
            (timings.recorded_ns - timings.bare_ns) / steps,
        );
        metrics.push(
            "fleet.busy_frac",
            reference_ns / 1e9 / (spec.threads as f64 * sweep_wall_s),
        );
        metrics.push(
            "ml.campaign_ms",
            training.campaign.ns_per_call(timer_ns) / 1e6,
        );
        metrics.push("ml.train_ms", training.fit.ns_per_call(timer_ns) / 1e6);
        metrics.push("ml.fits", training.fit.calls as f64);

        let work = &report.aggregate.work;
        metrics.push("sim.steps", work.steps as f64);
        metrics.push("sim.governor_decisions", work.governor_decisions as f64);
        metrics.push("usta.predictions", work.predictions as f64);
        metrics.push("usta.capped_decisions", work.capped_decisions as f64);
        metrics.push("usta.arbiter_invocations", work.arbiter_invocations as f64);
        metrics.push(
            "fleet.quantile_outside_range",
            quantile_outside_range(&report.aggregate) as f64,
        );

        // Component timings, after every workload-specific run: the
        // catalog (which also makes `sd8s-gen3` resolvable) and each
        // device's bare thermal step.
        metrics.push("catalog.load_ms", catalog_load_ms()?);
        for (name, id) in THERMAL_DEVICES {
            metrics.push(name, thermal_step_ns(id)?);
        }

        // Bare and observed twins, alternating, each in its own process.
        let twin = workload.observed_twin();
        let mut bare_wall = Vec::new();
        let mut observed_wall = Vec::new();
        let mut dump = None;
        for pair in 0..TWIN_PAIRS {
            for observed in [pair % 2 == 1, pair % 2 == 0] {
                let spec = SweepSpec {
                    observed,
                    ..SweepSpec::of(twin, seed)
                };
                attempted += spec.triples();
                let sample = spawn(&spec)?;
                if let Some(failure) = &sample.failure {
                    failures.push(failure.clone());
                }
                if observed {
                    observed_wall.push(sample.wall_s);
                    dump = Some((sample.dump_bytes, sample.flight_dumps));
                } else {
                    bare_wall.push(sample.wall_s);
                }
            }
        }
        let (dump_bytes, flight_dumps) = dump.expect("at least one observed twin");
        metrics.push(
            "telemetry.overhead_frac",
            median(&mut observed_wall) / median(&mut bare_wall) - 1.0,
        );
        metrics.push("telemetry.dump_mb", dump_bytes as f64 / 1e6);
        metrics.push("fleet.flight_dumps", flight_dumps as f64);
        Ok(())
    })();
    if let Err(message) = result {
        failures.push(message);
    }
    let failed = if failures.is_empty() {
        0
    } else {
        attempted.max(1)
    };
    metrics.push("failed_frac", failed as f64 / attempted.max(1) as f64);
    LayerRun {
        metrics,
        attempted: attempted.max(1),
        failures,
    }
}
