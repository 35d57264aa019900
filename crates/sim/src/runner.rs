//! The experiment loop: workload × device × governor → traces.

use std::sync::OnceLock;
use std::time::Instant;

use crate::device::Device;
use usta_core::training::{LoggedSample, TrainingLog};
use usta_core::UstaGovernor;
use usta_governors::{CpuGovernor, DomainSample, DvfsDecision, FreqDomain, GovernorInput};
use usta_soc::PerDomain;
use usta_telemetry::{DecisionEvent, DurationHistogram, FlightRecorder};
use usta_thermal::Celsius;
use usta_workloads::{DeviceDemand, Workload};

/// The DVFS stack driving the run.
#[derive(Debug)]
pub enum Governor {
    /// A plain cpufreq governor (the paper's baseline is ondemand).
    Baseline(Box<dyn CpuGovernor>),
    /// USTA wrapped around its baseline.
    Usta(Box<UstaGovernor>),
}

impl Governor {
    /// Sysfs-style name of the stack.
    pub fn name(&self) -> String {
        match self {
            Governor::Baseline(g) => g.name().to_owned(),
            Governor::Usta(_) => "usta".to_owned(),
        }
    }
}

/// Knobs of the run loop.
#[derive(Debug, Clone, Copy)]
pub struct RunConfig {
    /// Governor sampling period, seconds (Android ondemand ~100 ms).
    pub governor_period_s: f64,
    /// Logging cadence, seconds (the paper's logger samples every 3 s).
    pub log_period_s: f64,
}

impl Default for RunConfig {
    fn default() -> RunConfig {
        RunConfig {
            governor_period_s: 0.1,
            log_period_s: 3.0,
        }
    }
}

/// Owned scaffolding for driving a governor outside [`run_workload`]
/// (figures, examples, benches): the device's domain descriptors plus
/// the unrestricted per-domain cap vector.
#[derive(Debug, Clone)]
pub struct DvfsLoop {
    domains: Vec<FreqDomain>,
    caps: Vec<usize>,
}

impl DvfsLoop {
    /// Captures the device's domain topology.
    pub fn for_device(device: &Device) -> DvfsLoop {
        let domains = device.freq_domains();
        let caps = domains.iter().map(FreqDomain::max_index).collect();
        DvfsLoop { domains, caps }
    }

    /// The domain descriptors.
    pub fn domains(&self) -> &[FreqDomain] {
        &self.domains
    }

    /// One governor step: builds the per-domain input from the last
    /// observation's utilizations and the levels currently in force,
    /// and returns the clamped next levels.
    pub fn decide(
        &self,
        governor: &mut dyn CpuGovernor,
        obs: &crate::device::Observation,
        levels: &PerDomain<usize>,
    ) -> PerDomain<usize> {
        let samples: PerDomain<DomainSample> =
            PerDomain::from_fn(self.domains.len(), |d| DomainSample {
                avg_utilization: obs.domains[d].avg_utilization,
                max_utilization: obs.domains[d].max_utilization,
                current_level: levels[d],
            });
        let input = GovernorInput {
            domains: &self.domains,
            samples: samples.as_slice(),
            max_allowed_levels: &self.caps,
            die_temp_c: Some(obs.hottest_die().value()),
        };
        let mut next = PerDomain::new();
        enforce_caps(&governor.decide(&input), &self.caps, &mut next);
        next
    }
}

/// The call-site enforcement of the thermal contract, writing the
/// clamped decision into `levels` in place: a governor must never
/// exceed a domain's allowed level. Violations are a bug in the
/// governor — loud in debug builds, clamped (fail-safe cold) in
/// release.
fn enforce_caps(decision: &DvfsDecision, caps: &[usize], levels: &mut PerDomain<usize>) {
    debug_assert!(
        decision
            .levels()
            .iter()
            .zip(caps)
            .all(|(level, cap)| level <= cap),
        "governor violated the thermal cap contract: {:?} > {:?}",
        decision.levels(),
        caps
    );
    decision.clamp_into(caps, levels);
}

/// Deterministic work counters for one run — integer counts of what
/// the simulation *did*, never how long it took. For a given
/// configuration they are bit-identical at any thread count and on any
/// machine, so they join the golden surface: the fleet layer sums them
/// across triples and CI asserts equality across `--threads`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RunWork {
    /// Simulation steps advanced (`sim.steps`).
    pub steps: u64,
    /// Governor `decide` calls (`sim.governor_decisions`).
    pub governor_decisions: u64,
    /// Log windows emitted (`sim.log_windows`).
    pub log_windows: u64,
    /// USTA skin-temperature predictions (`usta.predictions`).
    pub predictions: u64,
    /// Decisions USTA actually tightened below the external caps
    /// (`usta.capped_decisions`).
    pub capped_decisions: u64,
    /// Decisions that engaged the power-budget arbiter
    /// (`usta.arbiter_invocations`; zero on CPU-only devices).
    pub arbiter_invocations: u64,
}

impl RunWork {
    /// Adds another run's counts into this one (commutative and
    /// associative, so merge order never matters).
    pub fn merge(&mut self, other: &RunWork) {
        self.steps += other.steps;
        self.governor_decisions += other.governor_decisions;
        self.log_windows += other.log_windows;
        self.predictions += other.predictions;
        self.capped_decisions += other.capped_decisions;
        self.arbiter_invocations += other.arbiter_invocations;
    }

    /// The counters with their registry names, in export order.
    pub fn entries(&self) -> [(&'static str, u64); 6] {
        [
            ("sim.steps", self.steps),
            ("sim.governor_decisions", self.governor_decisions),
            ("sim.log_windows", self.log_windows),
            ("usta.predictions", self.predictions),
            ("usta.capped_decisions", self.capped_decisions),
            ("usta.arbiter_invocations", self.arbiter_invocations),
        ]
    }

    /// Adds every counter to `registry` under its catalog name.
    pub fn flush_to(&self, registry: &usta_telemetry::Registry) {
        for (name, value) in self.entries() {
            registry.counter(name).add(value);
        }
    }
}

/// While telemetry is enabled, one step in this many runs under the
/// phase clock. A prime, so coprime with the 30-step log and
/// prediction cadence: log and prediction steps are sampled at their
/// true rate. A layer's sampled `total_s` times this stride estimates
/// its share of the run's wall time.
pub const PHASE_STRIDE: u64 = 61;

/// The step of each stride that runs under the phase clock: not step
/// 0, which pays a run's one-off costs (the thermal discretization,
/// cold caches).
pub const PHASE_OFFSET: u64 = 30;

fn phase_sampled(step_no: u64) -> bool {
    step_no % PHASE_STRIDE == PHASE_OFFSET
}

/// Registry names of the per-layer phase histograms, in step order.
/// Every sampled step records one lap into each of them.
pub const PHASE_NAMES: [&str; PHASES] = [
    "sim.phase.demand",
    "sim.phase.apply",
    "sim.phase.observe",
    "sim.phase.usta",
    "sim.phase.decide",
    "sim.phase.record",
    "sim.phase.log",
];

const PHASES: usize = 7;

/// The layers of one step, in loop order (indexes [`PHASE_NAMES`]).
#[derive(Debug, Clone, Copy)]
enum Phase {
    /// `Workload::demand_into`.
    Demand,
    /// `Device::apply`: scheduling, power, battery, thermal RC.
    Apply,
    /// `Device::state`, plus `Device::observe` and the features on log
    /// and prediction steps.
    Observe,
    /// Die temperatures, `tick` and `score_prediction`.
    Usta,
    /// Governor (and arbiter) decision plus the cap clamp.
    Decide,
    /// The flight event.
    Record,
    /// Accumulators, trace and training-log pushes.
    Log,
}

/// The clock of one sampled step. Each lap runs from the previous
/// layer boundary to the next, so the laps tile the step: no nesting,
/// and they sum to the step's wall time less one clock read per lap.
#[derive(Debug, Clone, Copy)]
struct StepClock {
    mark: Instant,
    /// What one lap pays for its own clock read, ns; taken off each lap.
    clock_ns: u64,
    laps: [u64; PHASES],
}

impl StepClock {
    fn start(clock_ns: u64) -> StepClock {
        StepClock {
            mark: Instant::now(),
            clock_ns,
            laps: [0; PHASES],
        }
    }

    /// Charges the time since the last boundary, less the clock read,
    /// to `phase` (never below zero).
    fn lap(&mut self, phase: Phase) {
        let now = Instant::now();
        let ns = (now - self.mark).as_nanos() as u64;
        self.laps[phase as usize] = ns.saturating_sub(self.clock_ns);
        self.mark = now;
    }
}

/// The cost of one `Instant::now`, ns: the median gap between
/// back-to-back reads, measured once per process.
fn clock_read_ns() -> u64 {
    static NS: OnceLock<u64> = OnceLock::new();
    *NS.get_or_init(|| {
        let mut gaps: Vec<u64> = (0..1001)
            .map(|_| Instant::now().elapsed().as_nanos() as u64)
            .collect();
        gaps.sort_unstable();
        gaps[gaps.len() / 2]
    })
}

/// The factor that makes a run's sampled laps, extrapolated over all
/// `steps`, add up to the loop's measured wall time `loop_ns`. A clock
/// read inside a busy step costs more than the back-to-back read
/// [`clock_read_ns`] measures, so the raw laps overstate the step; the
/// scaled laps keep their split and tile the loop.
fn lap_scale(laps: &[[u64; PHASES]], loop_ns: u64, steps: u64) -> f64 {
    let sampled_ns: u64 = laps.iter().flatten().sum();
    if sampled_ns == 0 {
        return 1.0;
    }
    loop_ns as f64 * laps.len() as f64 / (steps as f64 * sampled_ns as f64)
}

/// Ends `phase` on a sampled step; a no-op (no clock read) otherwise.
#[inline(always)]
fn lap(clock: &mut Option<StepClock>, phase: Phase) {
    if let Some(clock) = clock {
        clock.lap(phase);
    }
}

/// The global registry's phase histograms, resolved once per process.
fn phase_histograms() -> &'static [DurationHistogram; PHASES] {
    static HISTOGRAMS: OnceLock<[DurationHistogram; PHASES]> = OnceLock::new();
    HISTOGRAMS.get_or_init(|| PHASE_NAMES.map(|name| usta_telemetry::global().histogram(name)))
}

/// Everything a run produces.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// Workload name.
    pub workload: String,
    /// Governor stack name.
    pub governor: String,
    /// Frequency-domain names, in the device's big-first order.
    pub domain_names: Vec<&'static str>,
    /// True skin temperature at every log instant.
    pub skin_trace: Vec<(f64, Celsius)>,
    /// True screen temperature at every log instant.
    pub screen_trace: Vec<(f64, Celsius)>,
    /// Aggregate CPU frequency (kHz) at every log instant
    /// (capacity-weighted across domains; the domain frequency on
    /// single-domain devices).
    pub freq_trace: Vec<(f64, f64)>,
    /// Per-domain frequency (kHz) at every log instant, indexed like
    /// `domain_names`. Display domains log effective brightness
    /// permille in this column.
    pub domain_freq_traces: Vec<Vec<(f64, f64)>>,
    /// Effective display brightness (0–1) at every log instant; empty
    /// unless the device has a governed display domain.
    pub brightness_trace: Vec<(f64, f64)>,
    /// Names of the per-cluster die nodes, in the device's big-first
    /// domain order (`["cpu"]` on single-domain devices).
    pub die_node_names: Vec<String>,
    /// True per-die temperature at every log instant, indexed like
    /// `die_node_names`.
    pub die_temp_traces: Vec<Vec<(f64, Celsius)>>,
    /// Peak true temperature of each die node over the whole run,
    /// indexed like `die_node_names`.
    pub max_die: Vec<Celsius>,
    /// USTA's skin predictions, when USTA ran.
    pub predictions: Vec<(f64, Celsius)>,
    /// Logging cadence used, seconds.
    pub log_period_s: f64,
    /// Time-weighted average aggregate frequency, GHz.
    pub avg_freq_ghz: f64,
    /// Time-weighted average frequency per domain, GHz, indexed like
    /// `domain_names`.
    pub avg_domain_freq_ghz: Vec<f64>,
    /// Peak true skin temperature.
    pub max_skin: Celsius,
    /// Peak true screen temperature.
    pub max_screen: Celsius,
    /// Fraction of demanded CPU cycles that went unserved.
    pub unserved_fraction: f64,
    /// The sensor-level training log (features + thermistor truths).
    pub training_log: TrainingLog,
    /// Deterministic work counters for the run.
    pub work: RunWork,
}

impl RunResult {
    /// The skin trace as required by `usta_core::comfort`.
    pub fn skin_samples(&self) -> &[(f64, Celsius)] {
        &self.skin_trace
    }

    /// Number of frequency domains the run was traced over.
    pub fn domains(&self) -> usize {
        self.domain_names.len()
    }
}

/// Runs `workload` to completion on `device` under `governor`.
///
/// The loop advances in governor-period steps (default 100 ms): demand
/// is scheduled across the device's frequency domains (big-first with
/// spill), the device steps, and the governor observes each domain's
/// utilization and picks every domain's next OPP. Governor output is
/// clamped to the per-domain thermal caps at this call site
/// (`debug_assert!`ing the [`CpuGovernor`] contract). Every step uses
/// the device's true state ([`Device::state`]); the sensors are read
/// ([`Device::observe`]) and the predictor's features built only on the
/// steps that consume them — log steps, for the training log, and,
/// when the stack is USTA, the steps its 3-second cadence makes due
/// ([`UstaGovernor::prediction_due`], fed through
/// [`UstaGovernor::tick_with`]). A step that is both builds them once.
/// Readings are a pure function of the step index, so the skipped
/// reads change no output.
pub fn run_workload(
    device: &mut Device,
    workload: &mut dyn Workload,
    governor: &mut Governor,
    config: &RunConfig,
) -> RunResult {
    run_workload_recorded(device, workload, governor, config, None)
}

/// [`run_workload`] with an optional flight recorder.
///
/// When `recorder` is `Some`, the ring receives one [`DecisionEvent`]
/// per governor period: the per-domain utilization/frequency/levels the
/// decision saw and emitted, the true skin and die temperatures, and —
/// under USTA — the band, the effective per-domain caps, the standing
/// prediction with its latest residual, and the arbiter's budget
/// arithmetic. The run's length is known up front, so the windows the
/// ring would overwrite are never built: they are counted through
/// [`FlightRecorder::skip`], and only the last `capacity` windows are
/// recorded, `Copy`-only into the ring's storage. The ring ends exactly
/// as if every window had been recorded. The `None` path costs one
/// `Option` check per step.
pub fn run_workload_recorded(
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
    // Die traces follow the CPU-cluster die nodes; the GPU and display
    // domains carry their own temperatures inside `obs.domains` but
    // have no cluster die node of their own.
    let n_dies = die_node_names.len();
    let caps: PerDomain<usize> = PerDomain::from_fn(n_domains, |d| domains[d].max_index());

    device.reset_qos_accounting();

    // Deterministic work counting is unconditional (plain integer
    // adds); wall-clock timing exists only while telemetry is enabled
    // — the sink resolves once per run, the disabled path carries no
    // `Instant::now` calls and no atomics, and the enabled path reads
    // the clock on every `PHASE_STRIDE`-th step only.
    let usta_before = match governor {
        Governor::Usta(g) => (
            g.predictions_made(),
            g.capped_decisions(),
            g.arbiter_invocations(),
        ),
        Governor::Baseline(_) => (0, 0, 0),
    };
    let sink = usta_telemetry::Sink::active();
    let mut work = RunWork::default();

    // Integer step counts avoid f64 accumulation drift at both the log
    // cadence and the run boundary.
    let steps_per_log = (config.log_period_s / dt).round().max(1.0) as u64;
    let total_steps = (duration / dt).round() as u64;
    let mut phase_laps: Option<Vec<[u64; PHASES]>> =
        sink.map(|_| Vec::with_capacity(total_steps.div_ceil(PHASE_STRIDE) as usize));
    let clock_ns = sink.map_or(0, |_| clock_read_ns());
    // The first window the ring keeps; earlier ones would be overwritten.
    let first_recorded = recorder.as_mut().map_or(u64::MAX, |ring| {
        let skipped = total_steps.saturating_sub(ring.capacity() as u64);
        ring.skip(skipped);
        skipped
    });
    let mut t = 0.0;
    // Loop-carried buffers, rewritten in place on every step: the
    // workload's demand, the governor's samples and the levels in force.
    let mut demand = DeviceDemand::idle();
    let mut samples = PerDomain::splat(n_domains, DomainSample::default());
    let mut levels: PerDomain<usize> = PerDomain::splat(n_domains, 0);
    let mut skin_trace = Vec::new();
    let mut screen_trace = Vec::new();
    let mut freq_trace = Vec::new();
    let mut domain_freq_traces = vec![Vec::new(); n_domains];
    let mut brightness_trace = Vec::new();
    let mut die_temp_traces = vec![Vec::new(); n_dies];
    let mut predictions = Vec::new();
    let mut training_log = TrainingLog::new();
    let mut freq_time_khz = 0.0;
    let mut domain_freq_time_khz = vec![0.0f64; n_domains];
    let mut max_skin = Celsius(f64::NEG_INFINITY);
    let mut max_screen = Celsius(f64::NEG_INFINITY);
    let mut max_die = vec![Celsius(f64::NEG_INFINITY); n_dies];

    let loop_start = sink.map(|_| Instant::now());
    for step_no in 0..total_steps {
        let mut clock =
            (phase_laps.is_some() && phase_sampled(step_no)).then(|| StepClock::start(clock_ns));
        work.steps += 1;
        workload.demand_into(t, dt, &mut demand);
        lap(&mut clock, Phase::Demand);
        device.apply(&demand, levels.as_slice(), dt);
        lap(&mut clock, Phase::Apply);
        // Every step needs the true state; only log steps (the training
        // log) and USTA's prediction steps read the sensors, and they
        // build the predictor's features once between them.
        let obs = device.state();
        let log_step = step_no.is_multiple_of(steps_per_log);
        let prediction_due = matches!(governor, Governor::Usta(g) if g.prediction_due(dt));
        let sensed = (log_step || prediction_due).then(|| {
            let full = device.observe();
            (full, full.features())
        });
        lap(&mut clock, Phase::Observe);

        // USTA's 3-second prediction loop rides on the sensor stream;
        // the per-cluster die temperatures ride along so the cap
        // splitter can break power-share ties toward the hotter die.
        if let Governor::Usta(usta) = &mut *governor {
            usta.observe_die_temperatures(obs.die_temps().as_slice());
            // Each new prediction scores the previous one against the
            // skin temperature it was predicting — the residual stream
            // the flight recorder and `DecisionRecord` surface.
            let previous = usta.last_prediction();
            let features = || {
                sensed
                    .as_ref()
                    .expect("sensors are read whenever a prediction is due")
                    .1
            };
            if usta.tick_with(dt, features).is_some() {
                if let Some(previous) = previous {
                    usta.score_prediction(previous, obs.skin_true);
                }
                if let Some(p) = usta.last_prediction() {
                    predictions.push((obs.t, p));
                }
            }
        }
        lap(&mut clock, Phase::Usta);

        // Governor reacts to the per-domain utilization it just
        // observed; its output is clamped to the thermal caps here, at
        // the call site.
        samples.refill(n_domains, |d| DomainSample {
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
            Governor::Usta(g) => g.decide(&input),
        };
        enforce_caps(&decision, caps.as_slice(), &mut levels);
        lap(&mut clock, Phase::Decide);

        if let Some(ring) = recorder.as_mut().filter(|_| step_no >= first_recorded) {
            let mut event = DecisionEvent::new(step_no, t, n_domains);
            event.skin_c = obs.skin_true.value();
            event.dies = n_dies as u8;
            for d in 0..n_domains {
                event.util[d] = obs.domains[d].avg_utilization;
                event.freq_khz[d] = obs.domains[d].freq_khz;
                event.level[d] = levels[d] as u16;
                event.max_level[d] = caps[d] as u16;
                // Baseline runs cap nothing: effective cap = external.
                event.cap[d] = caps[d] as u16;
            }
            for d in 0..n_dies {
                event.die_c[d] = obs.domains[d].die_temp.value();
            }
            if let Governor::Usta(g) = governor {
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
        lap(&mut clock, Phase::Record);

        freq_time_khz += obs.freq_khz * dt;
        for (acc, state) in domain_freq_time_khz.iter_mut().zip(obs.domains.iter()) {
            *acc += state.freq_khz * dt;
        }
        max_skin = max_skin.max(obs.skin_true);
        max_screen = max_screen.max(obs.screen_true);
        for (peak, state) in max_die.iter_mut().zip(obs.domains.iter().take(n_dies)) {
            *peak = peak.max(state.die_temp);
        }

        if let Some((full, features)) = sensed.as_ref().filter(|_| log_step) {
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
                features: *features,
                skin: full.skin_thermistor,
                screen: full.screen_thermistor,
            });
        }
        t += dt;
        lap(&mut clock, Phase::Log);
        if let (Some(laps), Some(clock)) = (phase_laps.as_mut(), clock) {
            laps.push(clock.laps);
        }
    }
    let loop_ns = loop_start.map_or(0, |start| start.elapsed().as_nanos() as u64);

    // USTA's own counters are cumulative across runs (governors can be
    // reused); the per-run delta is what belongs to this result.
    if let Governor::Usta(g) = governor {
        work.predictions = g.predictions_made() - usta_before.0;
        work.capped_decisions = g.capped_decisions() - usta_before.1;
        work.arbiter_invocations = g.arbiter_invocations() - usta_before.2;
    }
    if let Some(registry) = sink {
        work.flush_to(registry);
        let histograms = phase_histograms();
        let phase_laps = phase_laps.unwrap_or_default();
        let scale = lap_scale(&phase_laps, loop_ns, total_steps);
        for (phase, histogram) in histograms.iter().enumerate() {
            let scaled = phase_laps.iter().map(|laps| laps[phase] as f64 * scale);
            histogram.record_all_nanos(scaled.map(|ns| ns.round() as u64));
        }
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceConfig;
    use usta_governors::{OnDemand, Performance, Powersave};
    use usta_workloads::ConstantLoad;

    fn device() -> Device {
        Device::new(DeviceConfig::default()).unwrap()
    }

    #[test]
    fn ondemand_serves_heavy_load_at_high_frequency() {
        let mut d = device();
        let mut w = ConstantLoad::new("stress", 60.0, 1_500_000.0, 4);
        let mut g = Governor::Baseline(Box::new(OnDemand::default()));
        let r = run_workload(&mut d, &mut w, &mut g, &RunConfig::default());
        assert!(
            r.avg_freq_ghz > 1.3,
            "saturated ondemand should sit near max, got {} GHz",
            r.avg_freq_ghz
        );
        assert_eq!(r.governor, "ondemand");
        assert_eq!(r.domain_names, vec!["cpu"]);
        assert_eq!(r.avg_domain_freq_ghz, vec![r.avg_freq_ghz]);
        assert!(r.unserved_fraction < 0.05);
    }

    #[test]
    fn ondemand_idles_a_light_load_down() {
        let mut d = device();
        let mut w = ConstantLoad::new("light", 60.0, 100_000.0, 1);
        let mut g = Governor::Baseline(Box::new(OnDemand::default()));
        let r = run_workload(&mut d, &mut w, &mut g, &RunConfig::default());
        assert!(
            r.avg_freq_ghz < 0.6,
            "light load should stay low, got {} GHz",
            r.avg_freq_ghz
        );
    }

    #[test]
    fn powersave_runs_cooler_than_performance() {
        let mut d1 = device();
        let mut d2 = device();
        let mut w1 = ConstantLoad::new("stress", 300.0, 1_500_000.0, 4);
        let mut w2 = ConstantLoad::new("stress", 300.0, 1_500_000.0, 4);
        let mut perf = Governor::Baseline(Box::new(Performance));
        let mut save = Governor::Baseline(Box::new(Powersave));
        let hot = run_workload(&mut d1, &mut w1, &mut perf, &RunConfig::default());
        let cool = run_workload(&mut d2, &mut w2, &mut save, &RunConfig::default());
        assert!(hot.max_skin > cool.max_skin);
        assert!(cool.unserved_fraction > hot.unserved_fraction);
    }

    #[test]
    fn traces_are_logged_at_the_requested_cadence() {
        let mut d = device();
        let mut w = ConstantLoad::new("x", 30.0, 500_000.0, 2);
        let mut g = Governor::Baseline(Box::new(OnDemand::default()));
        let r = run_workload(&mut d, &mut w, &mut g, &RunConfig::default());
        // 30 s at 3 s cadence → 10 log points (t = 0, 3, …, 27).
        assert_eq!(r.skin_trace.len(), 10);
        assert_eq!(r.training_log.len(), 10);
        assert_eq!(r.domain_freq_traces.len(), 1);
        assert_eq!(r.domain_freq_traces[0].len(), 10);
        assert_eq!(r.log_period_s, 3.0);
    }

    #[test]
    fn run_is_deterministic() {
        let run_once = || {
            let mut d = Device::with_seed(11).unwrap();
            let mut w = ConstantLoad::new("x", 60.0, 900_000.0, 4);
            let mut g = Governor::Baseline(Box::new(OnDemand::default()));
            run_workload(&mut d, &mut w, &mut g, &RunConfig::default())
        };
        let a = run_once();
        let b = run_once();
        assert_eq!(a.avg_freq_ghz, b.avg_freq_ghz);
        assert_eq!(a.max_skin, b.max_skin);
        assert_eq!(a.skin_trace, b.skin_trace);
        assert_eq!(a.work, b.work);
    }

    #[test]
    fn work_counters_count_the_deterministic_work() {
        let mut d = device();
        let mut w = ConstantLoad::new("x", 30.0, 500_000.0, 2);
        let mut g = Governor::Baseline(Box::new(OnDemand::default()));
        let r = run_workload(&mut d, &mut w, &mut g, &RunConfig::default());
        // 30 s at 100 ms steps, logging every 3 s.
        assert_eq!(r.work.steps, 300);
        assert_eq!(r.work.governor_decisions, 300);
        assert_eq!(r.work.log_windows, 10);
        assert_eq!(r.work.predictions, 0, "baseline makes no predictions");
        assert_eq!(r.work.arbiter_invocations, 0);
        let mut merged = RunWork::default();
        merged.merge(&r.work);
        merged.merge(&r.work);
        assert_eq!(merged.steps, 600);
        assert_eq!(
            r.work.entries().iter().map(|(_, v)| v).sum::<u64>(),
            300 + 300 + 10
        );
    }

    #[test]
    fn flagship_runs_trace_both_domains() {
        let mut d = Device::new(DeviceConfig {
            sensor_seed: 3,
            ..DeviceConfig::for_device_id("flagship-octa").unwrap()
        })
        .unwrap();
        // Eight heavy threads: both clusters have work to govern.
        let mut w = ConstantLoad::new("stress", 60.0, 900_000.0, 8);
        let mut g = Governor::Baseline(Box::new(OnDemand::default()));
        let r = run_workload(&mut d, &mut w, &mut g, &RunConfig::default());
        assert_eq!(r.domain_names, vec!["big", "little", "gpu", "display"]);
        assert_eq!(r.domain_freq_traces.len(), 4);
        assert_eq!(r.avg_domain_freq_ghz.len(), 4);
        assert_eq!(r.die_node_names.len(), 2);
        assert_eq!(r.die_temp_traces.len(), 2);
        assert_eq!(r.max_die.len(), 2);
        assert!(!r.brightness_trace.is_empty());
        assert!(
            r.avg_domain_freq_ghz[0] > r.avg_domain_freq_ghz[1],
            "big sustains a higher clock than LITTLE: {:?}",
            r.avg_domain_freq_ghz
        );
        assert!(r.unserved_fraction < 0.05);
    }

    #[test]
    fn flight_recorder_captures_one_event_per_step_without_perturbing_the_run() {
        let run = |recorder: Option<&mut FlightRecorder>| {
            let mut d = Device::with_seed(7).unwrap();
            let mut w = ConstantLoad::new("x", 30.0, 900_000.0, 4);
            let mut g = Governor::Baseline(Box::new(OnDemand::default()));
            run_workload_recorded(&mut d, &mut w, &mut g, &RunConfig::default(), recorder)
        };
        let bare = run(None);
        let mut ring = FlightRecorder::new(64);
        let recorded = run(Some(&mut ring));
        assert_eq!(bare.skin_trace, recorded.skin_trace);
        assert_eq!(bare.work, recorded.work);
        assert_eq!(ring.recorded(), 300, "one event per governor period");
        assert_eq!(ring.len(), 64, "ring keeps the newest 64");
        let last = ring.events().last().copied().unwrap();
        assert_eq!(last.window, 299);
        assert_eq!(last.band, usta_telemetry::flight::BAND_NONE);
        assert!(last.skin_c.is_finite());
        assert!(last.util[0] >= 0.0);
        assert_eq!(last.max_level[0], 11, "nexus4 top OPP index");
        assert_eq!(last.cap[0], 11, "baseline never tightens");
        assert!(!last.caps_bound());
    }

    #[test]
    fn flight_events_under_usta_carry_band_and_prediction_provenance() {
        use usta_core::{TemperaturePredictor, UstaPolicy};
        let mut d = Device::with_seed(7).unwrap();
        let mut train_w = ConstantLoad::new("train", 120.0, 1_200_000.0, 4);
        let mut base = Governor::Baseline(Box::new(OnDemand::default()));
        let training = run_workload(&mut d, &mut train_w, &mut base, &RunConfig::default());
        let predictor = TemperaturePredictor::train(
            &usta_ml::Learner::RepTree(usta_ml::reptree::RepTreeParams::default()),
            &training.training_log,
            usta_core::PredictionTarget::Skin,
            42,
        )
        .unwrap();
        // A limit below the training run's own peak: the hotter stress
        // run must push predictions deep into the banding range.
        let limit = Celsius(training.max_skin.value() - 2.0);
        let usta = usta_core::UstaGovernor::new(
            Box::new(OnDemand::default()),
            predictor,
            UstaPolicy::new(limit),
        );
        let mut d = Device::with_seed(7).unwrap();
        let mut w = ConstantLoad::new("stress", 120.0, 1_500_000.0, 4);
        let mut g = Governor::Usta(Box::new(usta));
        let mut ring = FlightRecorder::new(2048);
        let r = run_workload_recorded(
            &mut d,
            &mut w,
            &mut g,
            &RunConfig::default(),
            Some(&mut ring),
        );
        assert!(r.work.capped_decisions > 0, "the 33 °C limit must bite");
        let events: Vec<_> = ring.events().copied().collect();
        assert!(events
            .iter()
            .any(|e| e.band != usta_telemetry::flight::BAND_NONE && e.band > 0));
        assert!(
            events.iter().any(|e| e.caps_bound()),
            "capped decisions must show as binding caps"
        );
        assert!(events.iter().any(|e| e.predicted_skin_c.is_finite()));
        assert!(
            events.iter().any(|e| e.residual_c.is_finite()),
            "scored predictions must surface residuals"
        );
    }

    #[test]
    fn phase_laps_tile_one_sampled_step() {
        let outer = Instant::now();
        let mut clock = StepClock::start(0);
        let begin = clock.mark;
        let phases = [
            Phase::Demand,
            Phase::Apply,
            Phase::Observe,
            Phase::Usta,
            Phase::Decide,
            Phase::Record,
            Phase::Log,
        ];
        for (i, &phase) in phases.iter().enumerate() {
            // A different amount of work per layer, so each lap must
            // land on its own phase.
            let spin = Instant::now();
            while spin.elapsed() < std::time::Duration::from_micros(10 * i as u64) {}
            clock.lap(phase);
        }
        let wall_ns = (outer.elapsed()).as_nanos() as u64;
        let laps_ns: u64 = clock.laps.iter().sum();
        assert_eq!(
            laps_ns,
            (clock.mark - begin).as_nanos() as u64,
            "the laps sum to the step's wall time exactly"
        );
        assert!(laps_ns <= wall_ns);
        for (i, &ns) in clock.laps.iter().enumerate() {
            assert!(ns >= 10_000 * i as u64, "{}: {ns} ns", PHASE_NAMES[i]);
        }
    }

    #[test]
    fn laps_pay_one_clock_read_each_never_below_zero() {
        let clock_ns = clock_read_ns();
        assert_eq!(clock_ns, clock_read_ns(), "calibrated once per process");
        let mut clock = StepClock::start(5_000);
        clock.lap(Phase::Demand);
        assert_eq!(clock.laps[0], 0, "a lap shorter than the read saturates");
        let spin = Instant::now();
        while spin.elapsed() < std::time::Duration::from_micros(20) {}
        let before = clock.mark;
        clock.lap(Phase::Apply);
        let raw = (clock.mark - before).as_nanos() as u64;
        assert_eq!(clock.laps[1], raw - 5_000);
    }

    #[test]
    fn scaled_laps_tile_the_loop_wall_time() {
        // Two sampled steps of 700 ns each, 122 steps run in 61 µs: the
        // mean step took 500 ns, so every lap shrinks by 5/7.
        let laps = [[100; PHASES], [100; PHASES]];
        let scale = lap_scale(&laps, 61_000, 122);
        assert!((scale - 5.0 / 7.0).abs() < 1e-12, "{scale}");
        assert_eq!(lap_scale(&[], 61_000, 122), 1.0);
        assert_eq!(lap_scale(&[[0; PHASES]], 61_000, 122), 1.0);
    }

    #[test]
    fn phase_stride_samples_log_steps_at_their_true_rate() {
        let steps_per_log = (RunConfig::default().log_period_s / 0.1).round() as u64;
        assert_eq!(steps_per_log, 30);
        let gcd = |mut a: u64, mut b: u64| {
            while b != 0 {
                (a, b) = (b, a % b);
            }
            a
        };
        assert_eq!(gcd(PHASE_STRIDE, steps_per_log), 1);
    }

    #[test]
    fn the_first_step_is_never_sampled() {
        // Step 0 carries the run's one-off costs; the sampled steps
        // still visit every residue of the log cadence equally often.
        assert!(!phase_sampled(0));
        let sampled: Vec<u64> = (0..PHASE_STRIDE * 30)
            .filter(|&s| phase_sampled(s))
            .collect();
        assert_eq!(sampled.len(), 30);
        assert_eq!(sampled[0], PHASE_OFFSET);
        let mut residues: Vec<u64> = sampled.iter().map(|s| s % 30).collect();
        residues.sort_unstable();
        assert_eq!(residues, (0..30).collect::<Vec<u64>>());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "thermal cap contract")]
    fn cap_violation_is_loud_in_debug_builds() {
        let mut levels = PerDomain::splat(2, 0);
        enforce_caps(&DvfsDecision::from_levels(&[5, 2]), &[3, 2], &mut levels);
    }

    #[test]
    fn dvfs_loop_clamps_a_cap_violating_governor() {
        // A broken governor that ignores the cap vector: the loop's
        // call-site enforcement clamps it (release behaviour; the
        // debug_assert! is exercised via the clamped path here).
        #[derive(Debug)]
        struct Broken;
        impl CpuGovernor for Broken {
            fn name(&self) -> &str {
                "broken"
            }
            fn decide(&mut self, input: &GovernorInput<'_>) -> DvfsDecision {
                DvfsDecision::from_fn(input.domain_count(), |d| input.domains[d].max_index())
            }
        }
        let decision = DvfsDecision::from_levels(&[11, 5]);
        let clamped = decision.clamped_to(&[3, 5]);
        assert_eq!(clamped.levels(), &[3, 5]);
        // And the loop helper never lets levels escape the caps.
        let device = device();
        let dvfs = DvfsLoop::for_device(&device);
        let obs = device.observe();
        let levels = PerDomain::splat(1, 0);
        let next = dvfs.decide(&mut Broken, &obs, &levels);
        assert!(next[0] <= dvfs.domains()[0].max_index());
    }
}
