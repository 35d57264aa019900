//! The step loop reads the sensors only on the steps that consume them:
//! log steps (the training log) and USTA's prediction steps (the
//! predictor's features). Every other step uses the device's true state
//! alone, kept in place by the device, and its decision leg works on
//! loop-carried buffers: samples and levels rewritten in place, and
//! USTA's decision record refreshed in place. These tests hold
//! `run_workload_recorded` to an eager reference loop that takes the
//! full observation and builds the features on every step, samples and
//! clamps by value, as the loop did before it went lean: the two must
//! agree bit for bit, run result, training log and flight events
//! (each step's levels and record-derived caps) included. After every
//! step the eager loop also checks the device's kept state against one
//! written from scratch, and USTA's kept decision record against one
//! rebuilt from the public policy and arbiter.

use usta_core::governor::DEFAULT_PREDICTION_PERIOD_S;
use usta_core::{
    ArbiterShare, DecisionRecord, LoggedSample, PredictionTarget, TemperaturePredictor,
    TrainingLog, UstaGovernor, UstaPolicy,
};
use usta_governors::{CpuGovernor, DomainSample, GovernorInput, OnDemand};
use usta_ml::reptree::RepTreeParams;
use usta_ml::Learner;
use usta_sim::{
    run_workload_recorded, Device, DeviceConfig, Governor, RunConfig, RunResult, RunWork,
};
use usta_soc::{DomainKind, PerDomain};
use usta_telemetry::{DecisionEvent, FlightRecorder};
use usta_thermal::Celsius;
use usta_workloads::{Benchmark, Workload};

/// The loop as it ran before sensor reads went lazy: `observe()` and
/// `features()` on every step, `tick` with the eager features.
fn run_eager(
    device: &mut Device,
    workload: &mut dyn Workload,
    governor: &mut Governor,
    config: &RunConfig,
    mut recorder: Option<&mut FlightRecorder>,
) -> RunResult {
    let dt = config.governor_period_s;
    let duration = workload.duration();
    let domains = device.freq_domains();
    let n_domains = domains.len();
    let die_node_names = device.die_node_names();
    let n_dies = die_node_names.len();
    let caps: PerDomain<usize> = PerDomain::from_fn(n_domains, |d| domains[d].max_index());
    device.reset_qos_accounting();
    let usta_before = match governor {
        Governor::Usta(g) => (
            g.predictions_made(),
            g.capped_decisions(),
            g.arbiter_invocations(),
        ),
        Governor::Baseline(_) => (0, 0, 0),
    };
    let steps_per_log = (config.log_period_s / dt).round().max(1.0) as u64;
    let total_steps = (duration / dt).round() as u64;

    let mut t = 0.0f64;
    let mut levels: PerDomain<usize> = PerDomain::splat(n_domains, 0);
    let mut work = RunWork::default();
    let mut skin_trace = Vec::new();
    let mut screen_trace = Vec::new();
    let mut freq_trace = Vec::new();
    let mut domain_freq_traces: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n_domains];
    let mut brightness_trace = Vec::new();
    let mut die_temp_traces: Vec<Vec<(f64, Celsius)>> = vec![Vec::new(); n_dies];
    let mut predictions = Vec::new();
    let mut training_log = TrainingLog::new();
    let mut freq_time_khz = 0.0f64;
    let mut domain_freq_time_khz = vec![0.0f64; n_domains];
    let mut max_skin = Celsius(f64::NEG_INFINITY);
    let mut max_screen = Celsius(f64::NEG_INFINITY);
    let mut max_die = vec![Celsius(f64::NEG_INFINITY); n_dies];

    for step_no in 0..total_steps {
        work.steps += 1;
        let demand = workload.demand_at(t, dt);
        device.apply(&demand, levels.as_slice(), dt);
        // `Debug` prints every f64 exactly. The scratch record starts
        // poisoned with NaN, so a value the in-place refresh skips on
        // some step differs, and one it never writes prints NaN.
        let kept = format!("{:?}", device.state());
        assert_eq!(
            kept,
            format!("{:?}", device.state_from_scratch()),
            "kept state is stale after step {step_no}"
        );
        assert!(!kept.contains("NaN"), "step {step_no}: {kept}");
        let obs = device.observe();
        let features = obs.features();

        if let Governor::Usta(g) = &mut *governor {
            g.observe_die_temperatures(obs.die_temps().as_slice());
            let previous = g.last_prediction();
            if g.tick(&features, dt).is_some() {
                if let Some(previous) = previous {
                    g.score_prediction(previous, obs.skin_true);
                }
                if let Some(p) = g.last_prediction() {
                    predictions.push((obs.t, p));
                }
            }
        }

        let samples: PerDomain<DomainSample> = PerDomain::from_fn(n_domains, |d| DomainSample {
            avg_utilization: obs.domains[d].avg_utilization,
            max_utilization: obs.domains[d].max_utilization,
            current_level: levels[d],
        });
        let input = GovernorInput {
            domains: &domains,
            samples: samples.as_slice(),
            max_allowed_levels: caps.as_slice(),
            die_temp_c: Some(obs.hottest_die().value()),
        };
        work.governor_decisions += 1;
        let decision = match governor {
            Governor::Baseline(g) => g.decide(&input),
            Governor::Usta(g) => {
                let decision = g.decide(&input);
                let die_c: Vec<f64> = obs.die_temps().iter().map(|t| t.value()).collect();
                assert_eq!(
                    g.last_decision_record(),
                    Some(&record_from_scratch(g, &input, &die_c)),
                    "kept decision record differs at step {step_no}"
                );
                decision
            }
        };
        levels = PerDomain::from_slice(decision.clamped_to(caps.as_slice()).levels());

        if let Some(ring) = recorder.as_deref_mut() {
            let mut event = DecisionEvent::new(step_no, t, n_domains);
            event.skin_c = obs.skin_true.value();
            event.dies = n_dies as u8;
            for d in 0..n_domains {
                event.util[d] = obs.domains[d].avg_utilization;
                event.freq_khz[d] = obs.domains[d].freq_khz;
                event.level[d] = levels[d] as u16;
                event.max_level[d] = caps[d] as u16;
                event.cap[d] = caps[d] as u16;
            }
            for d in 0..n_dies {
                event.die_c[d] = obs.domains[d].die_temp.value();
            }
            if let Governor::Usta(g) = &*governor {
                if let Some(record) = g.last_decision_record() {
                    event.band = record.band.code();
                    if let Some(p) = record.predicted_skin {
                        event.predicted_skin_c = p.value();
                    }
                    if let Some(r) = record.residual_c {
                        event.residual_c = r;
                    }
                    if let Some(share) = record.arbiter {
                        event.budget_w = share.budget_w;
                        event.allocated_w = share.allocated_w;
                    }
                    for d in 0..n_domains {
                        event.cap[d] = record.usta_caps[d].min(caps[d]) as u16;
                    }
                }
            }
            ring.record(event);
        }

        freq_time_khz += obs.freq_khz * dt;
        for (acc, state) in domain_freq_time_khz.iter_mut().zip(obs.domains.iter()) {
            *acc += state.freq_khz * dt;
        }
        max_skin = max_skin.max(obs.skin_true);
        max_screen = max_screen.max(obs.screen_true);
        for (peak, state) in max_die.iter_mut().zip(obs.domains.iter().take(n_dies)) {
            *peak = peak.max(state.die_temp);
        }

        if step_no.is_multiple_of(steps_per_log) {
            work.log_windows += 1;
            skin_trace.push((t, obs.skin_true));
            screen_trace.push((t, obs.screen_true));
            freq_trace.push((t, obs.freq_khz));
            for (trace, state) in domain_freq_traces.iter_mut().zip(obs.domains.iter()) {
                trace.push((t, state.freq_khz));
            }
            if let Some(panel) = obs.domains.iter().find(|s| s.kind == DomainKind::Display) {
                brightness_trace.push((t, panel.freq_khz / 1000.0));
            }
            for (trace, state) in die_temp_traces
                .iter_mut()
                .zip(obs.domains.iter().take(n_dies))
            {
                trace.push((t, state.die_temp));
            }
            training_log.push(LoggedSample {
                t,
                features,
                skin: obs.skin_thermistor,
                screen: obs.screen_thermistor,
            });
        }
        t += dt;
    }

    if let Governor::Usta(g) = governor {
        work.predictions = g.predictions_made() - usta_before.0;
        work.capped_decisions = g.capped_decisions() - usta_before.1;
        work.arbiter_invocations = g.arbiter_invocations() - usta_before.2;
    }
    RunResult {
        workload: workload.name().to_owned(),
        governor: governor.name(),
        domain_names: domains.iter().map(|d| d.name).collect(),
        skin_trace,
        screen_trace,
        freq_trace,
        domain_freq_traces,
        brightness_trace,
        die_node_names,
        die_temp_traces,
        max_die,
        predictions,
        log_period_s: config.log_period_s,
        avg_freq_ghz: freq_time_khz / duration / 1e6,
        avg_domain_freq_ghz: domain_freq_time_khz
            .iter()
            .map(|khz_s| khz_s / duration / 1e6)
            .collect(),
        max_skin,
        max_screen,
        unserved_fraction: device.unserved_fraction(),
        training_log,
        work,
    }
}

/// The decision record USTA's `decide` must have left for `input`,
/// built from nothing but the public policy and arbiter: the band's
/// cap vector (split by power share with the fed die temperatures on
/// CPU-only devices, a fresh arbiter run on devices with GPU or display
/// domains), whether it tightened, and the standing prediction and
/// residual.
fn record_from_scratch(
    g: &UstaGovernor,
    input: &GovernorInput<'_>,
    die_c: &[f64],
) -> DecisionRecord {
    let band = g.cap();
    let system_level = input
        .domains
        .iter()
        .any(|d| d.kind != DomainKind::CpuCluster);
    let (usta_caps, arbiter) = if system_level {
        let demand: Vec<f64> = input.samples.iter().map(|s| s.max_utilization).collect();
        let allocation = usta_core::arbitrate(band, input.domains, &demand, input.die_temp_c);
        let share = ArbiterShare {
            budget_w: allocation.budget_w,
            allocated_w: allocation.allocated_w,
        };
        (allocation.caps, Some(share))
    } else {
        (
            band.max_allowed_levels_with_die_temps(input.domains, die_c),
            None,
        )
    };
    let tightened = usta_caps
        .iter()
        .zip(input.max_allowed_levels)
        .any(|(usta, allowed)| usta < allowed);
    let residuals = g.residuals();
    DecisionRecord {
        band,
        usta_caps,
        tightened,
        arbiter,
        predicted_skin: g.last_prediction(),
        residual_c: (!residuals.is_empty()).then(|| residuals.last()),
    }
}

/// Every built-in device, and the catalog's file-only sd8s-gen3.
const DEVICES: [&str; 6] = [
    "nexus4",
    "flagship-octa",
    "prime-flagship",
    "tablet-10in",
    "budget-quad",
    "sd8s-gen3",
];

fn device(id: &str, seed: u64) -> Device {
    let config = if id == "sd8s-gen3" {
        let spec = usta_device::parse_device(include_str!("../catalog/sd8s-gen3.toml"))
            .expect("sd8s-gen3 parses");
        DeviceConfig::for_device(spec)
    } else {
        DeviceConfig::for_device_id(id).expect("built-in device")
    };
    Device::new(DeviceConfig {
        sensor_seed: seed,
        ..config
    })
    .expect("device builds")
}

/// Fresh USTA stacks on `id` at the given prediction cadence, all
/// with one predictor and a limit 2 °C under a baseline training run's
/// peak, so predictions band and caps bind.
fn usta(id: &str, period_s: f64) -> impl Fn() -> Governor {
    let mut base = Governor::Baseline(Box::new(OnDemand::default()));
    let training = run_workload_recorded(
        &mut device(id, 17),
        &mut Benchmark::GfxBench.workload(17),
        &mut base,
        &RunConfig::default(),
        None,
    );
    let predictor = TemperaturePredictor::train(
        &Learner::RepTree(RepTreeParams::default()),
        &training.training_log,
        PredictionTarget::Skin,
        17,
    )
    .expect("training log is non-empty");
    let limit = Celsius(training.max_skin.value() - 2.0);
    move || {
        let mut usta = UstaGovernor::new(
            Box::new(OnDemand::default()),
            predictor.clone(),
            UstaPolicy::new(limit),
        );
        usta.set_prediction_period(period_s);
        Governor::Usta(Box::new(usta))
    }
}

/// Runs the lean and the eager loop on identical inputs and asserts
/// they agree bit for bit (`Debug` prints every f64 exactly), flight
/// events included when a ring is given. Returns the lean result.
fn assert_lean_equals_eager(
    id: &str,
    make_governor: impl Fn() -> Governor,
    ring: Option<usize>,
) -> RunResult {
    let config = RunConfig::default();
    let benchmark = Benchmark::GfxBench;
    let mut lean_ring = ring.map(FlightRecorder::new);
    let mut eager_ring = ring.map(FlightRecorder::new);
    let lean = run_workload_recorded(
        &mut device(id, 5),
        &mut benchmark.workload(5),
        &mut make_governor(),
        &config,
        lean_ring.as_mut(),
    );
    let eager = run_eager(
        &mut device(id, 5),
        &mut benchmark.workload(5),
        &mut make_governor(),
        &config,
        eager_ring.as_mut(),
    );
    assert_eq!(format!("{lean:?}"), format!("{eager:?}"), "{id}");
    assert_eq!(lean.training_log.len() as u64, lean.work.log_windows);
    if let (Some(lean_ring), Some(eager_ring)) = (&lean_ring, &eager_ring) {
        let events = |ring: &FlightRecorder| -> Vec<String> {
            ring.events().map(|e| format!("{e:?}")).collect()
        };
        assert_eq!(lean_ring.recorded(), lean.work.steps);
        assert_eq!(events(lean_ring), events(eager_ring), "{id}");
    }
    lean
}

#[test]
fn devices_cover_every_builtin_and_the_catalog_file() {
    for id in usta_device::NAMES {
        assert!(DEVICES.contains(&id), "{id}");
    }
    assert_eq!(DEVICES.len(), usta_device::NAMES.len() + 1);
}

#[test]
fn baseline_runs_match_the_eager_loop() {
    for id in DEVICES {
        for ring in [None, Some(64), Some(4096)] {
            let make = || Governor::Baseline(Box::new(OnDemand::default()));
            let r = assert_lean_equals_eager(id, make, ring);
            assert_eq!(r.work.predictions, 0);
        }
    }
}

#[test]
fn usta_runs_match_the_eager_loop() {
    for id in DEVICES {
        let make = usta(id, DEFAULT_PREDICTION_PERIOD_S);
        for ring in [None, Some(64), Some(4096)] {
            let r = assert_lean_equals_eager(id, &make, ring);
            assert!(r.work.predictions > 50, "{id}: {:?}", r.work);
            assert!(r.work.capped_decisions > 0, "{id}: the limit must bite");
        }
    }
}

/// The cadence ablation's quarter-second period is not a multiple of
/// the 100 ms step: a prediction runs every third step, so every log
/// step is a prediction step too (the two share one sensor read) and
/// nine in ten prediction steps are not log steps.
#[test]
fn usta_at_a_quarter_second_cadence_matches_the_eager_loop() {
    for id in DEVICES {
        let make = usta(id, 0.25);
        for ring in [None, Some(512)] {
            let r = assert_lean_equals_eager(id, &make, ring);
            assert!(r.work.predictions >= r.work.steps / 3, "{id}: {:?}", r.work);
        }
    }
}
