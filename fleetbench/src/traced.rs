//! A span-instrumented copy of `usta_sim::run_workload_recorded`'s
//! step loop, built only from public calls.
//!
//! The loop calls the layers in the program's order and wraps each call
//! in a span. Its `RunResult` must equal the program's bit for bit on
//! the same inputs (the traced run asserts this per triple), so the
//! spans time the program's own work. Each span's cost of reading the
//! clock is calibrated once and subtracted.

use std::hint::black_box;
use std::time::Instant;

use usta_core::LoggedSample;
use usta_core::TrainingLog;
use usta_governors::{CpuGovernor, DomainSample, GovernorInput};
use usta_sim::{Device, Governor, RunConfig, RunResult, RunWork};
use usta_soc::PerDomain;
use usta_telemetry::{DecisionEvent, FlightRecorder};
use usta_thermal::Celsius;
use usta_workloads::Workload;

/// Accumulated time and call count of one span kind.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    /// Raw nanoseconds between each span's two clock reads.
    pub raw_ns: f64,
    /// Spans recorded.
    pub calls: u64,
}

impl Span {
    /// Closes a span opened at `start`.
    pub fn add(&mut self, start: Instant) {
        self.raw_ns += start.elapsed().as_nanos() as f64;
        self.calls += 1;
    }

    /// Total nanoseconds with the clock cost (`timer_ns` per span)
    /// taken off, never below zero.
    pub fn ns(&self, timer_ns: f64) -> f64 {
        (self.raw_ns - timer_ns * self.calls as f64).max(0.0)
    }

    /// Mean corrected nanoseconds per call (0 without calls).
    pub fn ns_per_call(&self, timer_ns: f64) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.ns(timer_ns) / self.calls as f64
        }
    }
}

/// The spans of the step loop, one per layer call.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StepSpans {
    /// `Workload::demand_at`.
    pub demand: Span,
    /// `Device::apply`: scheduling, power, battery, heat routing and
    /// thermal integration.
    pub apply: Span,
    /// `Device::observe`, plus `Observation::features` under USTA.
    pub observe: Span,
    /// USTA's per-step feed: `observe_die_temperatures`, `tick` (which
    /// runs `TemperaturePredictor::predict` every 3 s) and
    /// `score_prediction`.
    pub tick: Span,
    /// `CpuGovernor::decide` on the governor stack, arbiter included.
    pub decide: Span,
    /// Building and recording the flight-recorder event (observed
    /// sweeps only).
    pub record: Span,
    /// A shadow `TemperaturePredictor::predict` on the features `tick`
    /// just predicted from. A component of `tick`, so it is excluded
    /// from [`StepSpans::attributed_ns`].
    pub predict: Span,
}

impl StepSpans {
    /// Corrected nanoseconds of the spans that partition the loop
    /// (everything but the shadow `predict`).
    pub fn attributed_ns(&self, timer_ns: f64) -> f64 {
        [
            self.demand,
            self.apply,
            self.observe,
            self.tick,
            self.decide,
            self.record,
        ]
        .iter()
        .map(|s| s.ns(timer_ns))
        .sum()
    }
}

/// The clock cost one span pays: the median of many empty spans, ns.
pub fn calibrate_timer_ns() -> f64 {
    let mut samples: Vec<f64> = (0..20_001)
        .map(|_| {
            let start = Instant::now();
            black_box(start.elapsed().as_nanos() as f64)
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// Runs `workload` on `device` under `governor` exactly as
/// `usta_sim::run_workload_recorded` does, timing each layer call into
/// `spans`.
pub fn run_traced(
    device: &mut Device,
    workload: &mut dyn Workload,
    governor: &mut Governor,
    config: &RunConfig,
    mut recorder: Option<&mut FlightRecorder>,
    spans: &mut StepSpans,
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

    let mut step_no = 0u64;
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
    let usta = matches!(governor, Governor::Usta(_));

    while step_no < total_steps {
        work.steps += 1;
        let start = Instant::now();
        let demand = workload.demand_at(t, dt);
        spans.demand.add(start);

        let start = Instant::now();
        device.apply(&demand, levels.as_slice(), dt);
        spans.apply.add(start);

        let start = Instant::now();
        let obs = device.observe();
        let features = usta.then(|| obs.features());
        spans.observe.add(start);

        if let (Governor::Usta(g), Some(features)) = (&mut *governor, &features) {
            let start = Instant::now();
            g.observe_die_temperatures(obs.die_temps().as_slice());
            let previous = g.last_prediction();
            let predicted = g.tick(features, dt).is_some();
            if predicted {
                if let Some(previous) = previous {
                    g.score_prediction(previous, obs.skin_true);
                }
            }
            spans.tick.add(start);
            if predicted {
                let start = Instant::now();
                black_box(g.predictor().predict(black_box(features)));
                spans.predict.add(start);
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
        let start = Instant::now();
        let decision = match governor {
            Governor::Baseline(g) => g.decide(&input),
            Governor::Usta(g) => g.decide(&input),
        };
        spans.decide.add(start);
        levels = PerDomain::from_slice(decision.clamped_to(caps.as_slice()).levels());

        if let Some(ring) = recorder.as_deref_mut() {
            let start = Instant::now();
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
            spans.record.add(start);
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
            if let Some(panel) = obs
                .domains
                .iter()
                .find(|s| s.kind == usta_soc::DomainKind::Display)
            {
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
                features: obs.features(),
                skin: obs.skin_thermistor,
                screen: obs.screen_thermistor,
            });
        }
        t += dt;
        step_no += 1;
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
