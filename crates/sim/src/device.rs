//! The simulated device: SoC + thermal network + sensors as one object.
//!
//! Which device is simulated is data, not code: a
//! [`usta_device::DeviceSpec`] (default: the paper's Nexus 4) supplies
//! the cluster topology (one [`usta_soc::Cpu`] per frequency domain),
//! power models, and the thermal topology — **one die node per
//! cluster**, so each cluster's CPU power heats its own RC node and a
//! big.LITTLE part's clusters are thermally distinguishable. Workload
//! threads are scheduled **big-first with spill**: each sampling window
//! assigns thread `i` to virtual core `i mod total_cores` with the
//! cores of earlier (faster) clusters first, so light loads run
//! entirely on the big cluster and heavy loads wrap around —
//! re-assignment every window is the migration-at-governor-period
//! model.

use usta_core::FeatureVector;
use usta_device::DeviceSpec;
use usta_governors::FreqDomain;
use usta_soc::{
    Battery, ChargeState, Cpu, CpuPowerModel, Display, DomainKind, GpuPowerModel, OppTable,
    PerDomain, SensorParams, ThermalSensor,
};
use usta_thermal::{Celsius, DeviceThermalModel, ThermalTopology};
use usta_workloads::DeviceDemand;

/// Configuration of the simulated device.
#[derive(Debug, Clone)]
pub struct DeviceConfig {
    /// Which device to instantiate (clusters, power models).
    pub spec: DeviceSpec,
    /// The thermal topology to run. Starts as `spec.thermal.topology()`;
    /// scenario layers (cases, ambient bands) re-parameterise this copy
    /// without touching the spec.
    pub thermal: ThermalTopology,
    /// Battery state of charge at power-on, 0–1.
    pub battery_soc: f64,
    /// Seed for all sensor noise streams.
    pub sensor_seed: u64,
    /// Whether a hand holds the phone.
    pub hand_held: bool,
}

impl Default for DeviceConfig {
    fn default() -> DeviceConfig {
        // The built-in registry, not the merged one: an installed
        // catalog never changes the default device.
        let nexus4 = usta_device::Registry::builtin().by_id("nexus4");
        DeviceConfig::for_device(nexus4.expect("nexus4 is built in").clone())
    }
}

impl DeviceConfig {
    /// A default-state configuration of the given device: its own
    /// thermal topology, 80 % charge, unheld, fixed sensor seed.
    pub fn for_device(spec: DeviceSpec) -> DeviceConfig {
        DeviceConfig {
            thermal: spec.thermal.topology(),
            spec,
            battery_soc: 0.8,
            sensor_seed: 0x5eed,
            hand_held: false,
        }
    }

    /// A default-state configuration of a registry device, by id
    /// (ASCII case-insensitive). `None` for unknown ids.
    pub fn for_device_id(id: &str) -> Option<DeviceConfig> {
        usta_device::by_id(id).map(|spec| DeviceConfig::for_device(spec.clone()))
    }
}

/// One frequency domain's observable state at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct DomainState {
    /// What hardware this domain scales.
    pub kind: DomainKind,
    /// The domain's current frequency, kHz. Display domains report the
    /// panel's *effective* brightness as permille (the quantity
    /// actually in effect, like a clock actually running).
    pub freq_khz: f64,
    /// The domain's current OPP index.
    pub level: usize,
    /// Mean utilization across the domain's cores, 0–1.
    pub avg_utilization: f64,
    /// Busiest-core utilization within the domain, 0–1 (for GPU and
    /// display domains: the demand signal against the current level).
    pub max_utilization: f64,
    /// True temperature of the domain's own thermal node — the
    /// cluster's die, the GPU's own node where declared, the screen
    /// for display domains.
    pub die_temp: Celsius,
}

/// Everything the software (and the thermistor rig) can observe at one
/// instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Observation {
    /// Simulated time, seconds.
    pub t: f64,
    /// On-device CPU thermal zone reading.
    pub cpu_temp: Celsius,
    /// On-device battery temperature reading.
    pub battery_temp: Celsius,
    /// External thermistor reading, back cover mid (skin).
    pub skin_thermistor: Celsius,
    /// External thermistor reading, screen.
    pub screen_thermistor: Celsius,
    /// Ground-truth skin temperature (what the user's palm feels).
    pub skin_true: Celsius,
    /// Ground-truth screen temperature.
    pub screen_true: Celsius,
    /// Mean CPU utilization over the last step, across every core of
    /// every domain.
    pub avg_utilization: f64,
    /// Busiest-core utilization over the last step, across all domains.
    pub max_utilization: f64,
    /// Aggregate CPU frequency, kHz: the domain frequency on
    /// single-domain devices, the capacity-weighted (per-core) mean on
    /// multi-domain ones.
    pub freq_khz: f64,
    /// Per-frequency-domain state, in the device's big-first order.
    pub domains: PerDomain<DomainState>,
}

impl Observation {
    /// Number of CPU-cluster domains (the leading entries of
    /// [`Observation::domains`]; GPU and display domains follow them).
    pub fn cpu_domain_count(&self) -> usize {
        self.domains
            .iter()
            .filter(|s| s.kind == DomainKind::CpuCluster)
            .count()
    }

    /// The predictor's feature vector for this observation: one
    /// frequency input per *CPU* domain, on multi-die devices the
    /// hottest die temperature, and — on devices with governed GPU or
    /// display domains — the GPU frequency and effective brightness.
    /// Single-die legacy devices keep the paper's exact 4-feature
    /// shape.
    pub fn features(&self) -> FeatureVector {
        let cpu = self.cpu_domain_count();
        FeatureVector {
            cpu_temp: self.cpu_temp,
            battery_temp: self.battery_temp,
            utilization: self.avg_utilization,
            domain_freqs_khz: PerDomain::from_fn(cpu, |d| self.domains[d].freq_khz),
            hottest_die: (cpu > 1).then(|| self.hottest_die()),
            gpu_freq_khz: self
                .domains
                .iter()
                .find(|s| s.kind == DomainKind::Gpu)
                .map(|s| s.freq_khz),
            brightness: self
                .domains
                .iter()
                .find(|s| s.kind == DomainKind::Display)
                .map(|s| s.freq_khz / 1000.0),
        }
    }

    /// The hottest per-cluster die temperature of this observation
    /// (CPU dies only — the GPU's node keys its own domain).
    pub fn hottest_die(&self) -> Celsius {
        let mut best = self.domains[0].die_temp;
        for state in self.domains.iter().skip(1) {
            if state.kind == DomainKind::CpuCluster {
                best = best.max(state.die_temp);
            }
        }
        best
    }

    /// Per-CPU-cluster die temperatures, big-first (for
    /// [`usta_core::UstaGovernor::observe_die_temperatures`] and the
    /// splitter's tie-breaks — GPU/display domains are excluded).
    pub fn die_temps(&self) -> PerDomain<Celsius> {
        PerDomain::from_fn(self.cpu_domain_count(), |d| self.domains[d].die_temp)
    }
}

/// One governed non-CPU frequency domain's live state (the GPU's OPP
/// ladder or the display's brightness ladder).
#[derive(Debug)]
struct SystemDomain {
    opp: OppTable,
    level: usize,
    /// Demand signal against the current level, 0–1 (what the governor
    /// samples as `max_utilization`).
    utilization: f64,
}

impl SystemDomain {
    fn new(opp: OppTable) -> SystemDomain {
        SystemDomain {
            opp,
            level: 0,
            utilization: 0.0,
        }
    }

    fn khz(&self) -> f64 {
        self.opp.level(self.level).khz as f64
    }
}

/// The simulated phone.
#[derive(Debug)]
pub struct Device {
    spec: DeviceSpec,
    thermal: DeviceThermalModel,
    clusters: Vec<Cpu>,
    cluster_power: Vec<CpuPowerModel>,
    gpu_power: GpuPowerModel,
    /// The governed GPU domain, on specs that declare one; `None`
    /// keeps the legacy static GPU power model, bit for bit.
    gpu_dom: Option<SystemDomain>,
    display: Display,
    /// The governed display domain (brightness ladder), when declared.
    display_dom: Option<SystemDomain>,
    /// Effective panel brightness actually applied last step, 0–1.
    effective_brightness: f64,
    battery: Battery,
    cpu_sensor: ThermalSensor,
    battery_sensor: ThermalSensor,
    skin_thermistor: ThermalSensor,
    screen_thermistor: ThermalSensor,
    clock_s: f64,
    total_demand_khz_s: f64,
    unserved_khz_s: f64,
    /// Reused per-step buffer for the big-first spill schedule (one
    /// entry per virtual core).
    per_core_scratch: Vec<f64>,
    /// Reused per-step buffer for per-cluster CPU power.
    die_w_scratch: Vec<f64>,
    /// Wall-clock time spent in the thermal RC step, accumulated
    /// locally and drained by the runner as `sim.thermal_step`.
    /// `None` (and therefore zero overhead) unless telemetry is
    /// enabled when the device is built.
    thermal_timings: Option<usta_telemetry::LocalTimings>,
}

impl Device {
    /// Builds the device.
    ///
    /// # Errors
    ///
    /// Propagates construction errors from the SoC or thermal models,
    /// and rejects a working-copy topology whose die-node count
    /// diverged from the spec's cluster count.
    pub fn new(config: DeviceConfig) -> Result<Device, Box<dyn std::error::Error>> {
        config.spec.validate()?;
        if config.thermal.dies() != config.spec.domains() {
            return Err(Box::new(usta_device::DeviceError::DieNodeMismatch {
                die_nodes: config.thermal.dies(),
                clusters: config.spec.domains(),
            }));
        }
        let mut thermal = DeviceThermalModel::new(config.thermal)?;
        thermal.set_hand_contact(config.hand_held);
        let seed = config.sensor_seed;
        Ok(Device {
            clusters: usta_soc::spec::cpus(&config.spec)?,
            cluster_power: usta_soc::spec::cpu_power_models(&config.spec)?,
            gpu_power: usta_soc::spec::gpu_power_model(&config.spec)?,
            gpu_dom: usta_soc::spec::gpu_opp_table(&config.spec)
                .transpose()?
                .map(SystemDomain::new),
            display: usta_soc::spec::display(&config.spec)?,
            display_dom: usta_soc::spec::brightness_opp_table(&config.spec)
                .transpose()?
                .map(SystemDomain::new),
            effective_brightness: 0.0,
            battery: usta_soc::spec::battery(&config.spec, config.battery_soc)?,
            spec: config.spec,
            thermal,
            cpu_sensor: ThermalSensor::new(SensorParams::kernel_zone(), seed ^ 0x01),
            battery_sensor: ThermalSensor::new(SensorParams::kernel_zone(), seed ^ 0x02),
            skin_thermistor: ThermalSensor::new(SensorParams::thermistor(), seed ^ 0x03),
            screen_thermistor: ThermalSensor::new(SensorParams::thermistor(), seed ^ 0x04),
            clock_s: 0.0,
            total_demand_khz_s: 0.0,
            unserved_khz_s: 0.0,
            per_core_scratch: Vec::new(),
            die_w_scratch: Vec::new(),
            thermal_timings: usta_telemetry::enabled()
                .then(|| usta_telemetry::LocalTimings::new(0.0, 1e-3, 1000)),
        })
    }

    /// Convenience: a device with default config and the given seed.
    ///
    /// # Errors
    ///
    /// Propagates construction errors (cannot happen for the defaults).
    pub fn with_seed(seed: u64) -> Result<Device, Box<dyn std::error::Error>> {
        Device::new(DeviceConfig {
            sensor_seed: seed,
            ..Default::default()
        })
    }

    /// Advances the device by `dt` seconds with the given demand, with
    /// each frequency domain at its own OPP index (`levels[d]`, clamped
    /// into domain `d`'s table). CPU clusters lead the level vector;
    /// the governed GPU and display domains (where the spec declares
    /// them) follow, in that order.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len()` differs from [`Device::domains`].
    pub fn apply(&mut self, demand: &DeviceDemand, levels: &[usize], dt: f64) {
        assert_eq!(
            levels.len(),
            self.clusters.len()
                + usize::from(self.gpu_dom.is_some())
                + usize::from(self.display_dom.is_some()),
            "one level per frequency domain"
        );
        let (cpu_levels, system_levels) = levels.split_at(self.clusters.len());
        for (cluster, &level) in self.clusters.iter_mut().zip(cpu_levels) {
            cluster.set_level(level);
        }
        let mut system_levels = system_levels.iter();
        if let Some(gpu) = &mut self.gpu_dom {
            gpu.level = gpu
                .opp
                .clamp_index(*system_levels.next().expect("asserted"));
        }
        if let Some(panel) = &mut self.display_dom {
            panel.level = panel
                .opp
                .clamp_index(*system_levels.next().expect("asserted"));
        }

        // Big-first spill scheduling: thread i lands on virtual core
        // (i mod total), virtual cores enumerate the big cluster first.
        // Reassigning from scratch each window is migration at the
        // governor period.
        let total_cores: usize = self.clusters.iter().map(Cpu::cores).sum();
        self.per_core_scratch.clear();
        self.per_core_scratch.resize(total_cores, 0.0);
        for (i, &threads_khz) in demand.cpu_threads_khz.iter().enumerate() {
            self.per_core_scratch[i % total_cores] += threads_khz.max(0.0);
        }
        let mut offset = 0;
        for cluster in &mut self.clusters {
            let cores = cluster.cores();
            cluster.apply_core_demand(&self.per_core_scratch[offset..offset + cores]);
            offset += cores;
        }

        self.display.set_on(demand.display_on);
        // A governed display caps the requested brightness at the
        // arbiter-chosen ladder rung; legacy panels apply it verbatim.
        self.effective_brightness = match &mut self.display_dom {
            Some(panel) => {
                let requested = demand.brightness.clamp(0.0, 1.0);
                let rung = panel.khz() / 1000.0;
                panel.utilization = ((requested * 1000.0) / panel.khz()).min(1.0);
                requested.min(rung)
            }
            None => demand.brightness,
        };
        self.display.set_brightness(self.effective_brightness);
        let charge_state = if demand.charging {
            // Once full, stay in Full (the battery handles the switch).
            if self.battery.charge_state() == ChargeState::Full {
                ChargeState::Full
            } else {
                ChargeState::Charging
            }
        } else {
            ChargeState::Discharging
        };
        self.battery.set_charge_state(charge_state);

        // Each cluster's power is computed against — and routed back
        // into — its *own* die node, so leakage feedback and skin
        // heating are attributed per cluster.
        self.die_w_scratch.clear();
        let mut cpu_w = 0.0;
        for (d, (cluster, power)) in self.clusters.iter().zip(&self.cluster_power).enumerate() {
            let die = self.thermal.die_temperature(d);
            let w = power.cluster_power(cluster.frequency(), cluster.utilizations(), die);
            cpu_w += w;
            self.die_w_scratch.push(w);
        }
        // A governed GPU draws dynamic power for the work it actually
        // runs at its arbiter-capped operating point; the legacy
        // static model spends load-proportional power regardless of
        // any (nonexistent) GPU clock. Heat from a governed GPU lands
        // on its own thermal node (see `usta_thermal::NodeRoles::gpu`).
        let gpu_w = match &mut self.gpu_dom {
            Some(gpu) => {
                let spec = self.spec.gpu.as_ref().expect("domain implies spec");
                let load = demand.gpu_load.clamp(0.0, 1.0);
                let capacity = gpu.khz() / spec.max_khz() as f64;
                gpu.utilization = (load / capacity.max(1e-9)).min(1.0);
                spec.idle_w + spec.opp_dynamic_power_w(gpu.level) * gpu.utilization
            }
            None => self.gpu_power.power(demand.gpu_load),
        };
        let display_total_w = self.display.power();
        // The backlight LEDs and display driver sit on the board; only
        // part of the panel's power heats the mid-screen thermistor spot.
        // (This is why the paper's screen runs several kelvin cooler than
        // the skin even with the display at full brightness.)
        const DISPLAY_TO_SCREEN: f64 = 0.62;
        let display_w = display_total_w * DISPLAY_TO_SCREEN;
        let board_w = demand.board_w + display_total_w * (1.0 - DISPLAY_TO_SCREEN);
        let load_w = cpu_w + gpu_w + display_total_w + demand.board_w;
        let battery_w = self.battery.step(load_w, dt);

        let heat = self.thermal.heat_mut();
        heat.die_w.clear();
        heat.die_w.extend_from_slice(&self.die_w_scratch);
        heat.gpu_w = gpu_w;
        heat.display_w = display_w;
        heat.battery_w = battery_w;
        heat.board_w = board_w;
        let thermal_start = self
            .thermal_timings
            .as_ref()
            .map(|_| std::time::Instant::now());
        self.thermal.step(dt);
        if let (Some(timings), Some(start)) = (self.thermal_timings.as_mut(), thermal_start) {
            timings.record(start.elapsed());
        }

        self.total_demand_khz_s += demand.total_cpu_khz() * dt;
        let mut unserved = 0.0;
        for cluster in &self.clusters {
            unserved += cluster.unserved_khz();
        }
        self.unserved_khz_s += unserved * dt;
        self.clock_s += dt;
    }

    /// [`Device::apply`] with every domain at the same (clamped) level —
    /// the single-domain call shape, still exact on one-domain devices.
    pub fn apply_level(&mut self, demand: &DeviceDemand, level: usize, dt: f64) {
        let levels: PerDomain<usize> = PerDomain::splat(self.clusters.len(), level);
        self.apply(demand, levels.as_slice(), dt);
    }

    /// Takes a full observation (sensor reads advance the noise streams).
    pub fn observe(&mut self) -> Observation {
        let mut domains = PerDomain::from_fn(self.clusters.len(), |d| {
            let cluster = &self.clusters[d];
            DomainState {
                kind: DomainKind::CpuCluster,
                freq_khz: cluster.frequency().khz as f64,
                level: cluster.level(),
                avg_utilization: cluster.average_utilization(),
                max_utilization: cluster.max_utilization(),
                die_temp: self.thermal.die_temperature(d),
            }
        });
        if let Some(gpu) = &self.gpu_dom {
            domains.push(DomainState {
                kind: DomainKind::Gpu,
                freq_khz: gpu.khz(),
                level: gpu.level,
                avg_utilization: gpu.utilization,
                max_utilization: gpu.utilization,
                die_temp: self
                    .spec
                    .thermal
                    .gpu_node
                    .and_then(|name| self.thermal.node_temperature_by_name(name))
                    .unwrap_or_else(|| self.thermal.die_temperature(0)),
            });
        }
        if let Some(panel) = &self.display_dom {
            domains.push(DomainState {
                kind: DomainKind::Display,
                // Effective brightness as permille — the quantity in
                // effect on the panel, traced like a clock.
                freq_khz: self.effective_brightness * 1000.0,
                level: panel.level,
                avg_utilization: panel.utilization,
                max_utilization: panel.utilization,
                die_temp: self.thermal.screen_temperature(),
            });
        }
        let total_cores: usize = self.clusters.iter().map(Cpu::cores).sum();
        let mut util_sum = 0.0;
        let mut max_utilization = 0.0f64;
        for cluster in &self.clusters {
            util_sum += cluster.utilizations().iter().sum::<f64>();
            max_utilization = max_utilization.max(cluster.max_utilization());
        }
        let freq_khz = if self.clusters.len() == 1 {
            domains[0].freq_khz
        } else {
            let mut weighted = 0.0;
            for (d, cluster) in self.clusters.iter().enumerate() {
                weighted += domains[d].freq_khz * cluster.cores() as f64;
            }
            weighted / total_cores as f64
        };
        Observation {
            t: self.clock_s,
            // The primary CPU zone sits on the big cluster's die (die
            // node 0) — on the single-die Nexus 4, *the* die.
            cpu_temp: self.cpu_sensor.read(self.thermal.die_temperature(0)),
            battery_temp: self.battery_sensor.read(self.thermal.battery_temperature()),
            skin_thermistor: self.skin_thermistor.read(self.thermal.skin_temperature()),
            screen_thermistor: self
                .screen_thermistor
                .read(self.thermal.screen_temperature()),
            skin_true: self.thermal.skin_temperature(),
            screen_true: self.thermal.screen_temperature(),
            avg_utilization: util_sum / total_cores as f64,
            max_utilization,
            freq_khz,
            domains,
        }
    }

    /// Simulated seconds since power-on.
    pub fn clock(&self) -> f64 {
        self.clock_s
    }

    /// Fraction of demanded CPU cycles that went unserved so far.
    pub fn unserved_fraction(&self) -> f64 {
        if self.total_demand_khz_s <= 0.0 {
            0.0
        } else {
            self.unserved_khz_s / self.total_demand_khz_s
        }
    }

    /// Resets QoS accounting (between sessions on a shared device).
    pub fn reset_qos_accounting(&mut self) {
        self.total_demand_khz_s = 0.0;
        self.unserved_khz_s = 0.0;
    }

    /// Drains the accumulated thermal-step wall-clock timings, leaving
    /// a fresh accumulator in place (`None` unless telemetry is
    /// enabled; the runner flushes this as `sim.thermal_step`).
    pub fn take_thermal_timings(&mut self) -> Option<usta_telemetry::LocalTimings> {
        std::mem::replace(
            &mut self.thermal_timings,
            usta_telemetry::enabled().then(|| usta_telemetry::LocalTimings::new(0.0, 1e-3, 1000)),
        )
    }

    /// The thermal model (read access for experiments).
    pub fn thermal_model(&self) -> &DeviceThermalModel {
        &self.thermal
    }

    /// The device spec this instance was built from.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Grabs/releases the phone with a hand.
    pub fn set_hand_held(&mut self, held: bool) {
        self.thermal.set_hand_contact(held);
    }

    /// Resets all thermal state to `t` (a cold restart of an experiment).
    pub fn reset_thermals_to(&mut self, t: Celsius) {
        self.thermal.reset_to(t);
        self.cpu_sensor.reset();
        self.battery_sensor.reset();
        self.skin_thermistor.reset();
        self.screen_thermistor.reset();
    }

    /// Number of frequency domains: the CPU clusters plus the governed
    /// GPU and display domains where the spec declares them.
    pub fn domains(&self) -> usize {
        self.clusters.len()
            + usize::from(self.gpu_dom.is_some())
            + usize::from(self.display_dom.is_some())
    }

    /// Number of CPU-cluster frequency domains.
    pub fn cpu_domains(&self) -> usize {
        self.clusters.len()
    }

    /// The control-plane descriptors of every frequency domain —
    /// big-first CPU clusters, then the governed GPU, then the display
    /// (owned copies — hand them to
    /// [`usta_governors::GovernorInput`]).
    pub fn freq_domains(&self) -> Vec<FreqDomain> {
        let mut domains: Vec<FreqDomain> = self
            .clusters
            .iter()
            .enumerate()
            .map(|(d, cluster)| FreqDomain {
                id: d,
                name: self.spec.clusters[d].name,
                kind: DomainKind::CpuCluster,
                cores: cluster.cores(),
                opp: cluster.opp_table().clone(),
                full_load_w: self.spec.clusters[d].full_load_w(),
            })
            .collect();
        if let Some(gpu) = &self.gpu_dom {
            domains.push(FreqDomain {
                id: domains.len(),
                name: "gpu",
                kind: DomainKind::Gpu,
                cores: 1,
                opp: gpu.opp.clone(),
                full_load_w: self
                    .spec
                    .gpu
                    .as_ref()
                    .expect("domain implies spec")
                    .full_load_w(),
            });
        }
        if let Some(panel) = &self.display_dom {
            domains.push(FreqDomain {
                id: domains.len(),
                name: "display",
                kind: DomainKind::Display,
                cores: 1,
                opp: panel.opp.clone(),
                full_load_w: self.spec.display.base_w + self.spec.display.full_brightness_w,
            });
        }
        domains
    }

    /// The OPP table of frequency domain 0 — on single-domain devices,
    /// *the* OPP table.
    pub fn opp_table(&self) -> &usta_soc::OppTable {
        self.clusters[0].opp_table()
    }

    /// Battery state of charge, 0–1.
    pub fn battery_soc(&self) -> f64 {
        self.battery.state_of_charge()
    }

    /// True temperature at an arbitrary thermal node, by name
    /// (diagnostics). `None` when the topology has no such node.
    pub fn node_temperature(&self, name: &str) -> Option<Celsius> {
        self.thermal.node_temperature_by_name(name)
    }

    /// True die temperature of frequency domain `d`.
    pub fn die_temperature(&self, d: usize) -> Celsius {
        self.thermal.die_temperature(d)
    }

    /// Names of the per-cluster die nodes, big-first.
    pub fn die_node_names(&self) -> Vec<String> {
        self.thermal.topology().die_node_names()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy_demand() -> DeviceDemand {
        DeviceDemand {
            cpu_threads_khz: vec![1_500_000.0; 4],
            gpu_load: 0.8,
            display_on: true,
            brightness: 1.0,
            board_w: 0.3,
            charging: false,
        }
    }

    #[test]
    fn device_heats_under_load() {
        let mut d = Device::with_seed(1).unwrap();
        let start = d.observe().skin_true;
        for _ in 0..600 {
            d.apply_level(&busy_demand(), 11, 1.0);
        }
        let end = d.observe().skin_true;
        assert!(
            end - start > 5.0,
            "10 busy minutes heated only {} K",
            end - start
        );
    }

    #[test]
    fn low_opp_heats_much_less() {
        let mut hot = Device::with_seed(1).unwrap();
        let mut cool = Device::with_seed(1).unwrap();
        for _ in 0..600 {
            hot.apply_level(&busy_demand(), 11, 1.0);
            cool.apply_level(&busy_demand(), 0, 1.0);
        }
        let dh = hot.observe().skin_true;
        let dc = cool.observe().skin_true;
        assert!(
            dh - dc > 3.0,
            "min-frequency cap should cut skin heating: {dh} vs {dc}"
        );
    }

    #[test]
    fn utilization_saturates_at_min_level() {
        let mut d = Device::with_seed(1).unwrap();
        d.apply_level(&busy_demand(), 0, 0.1);
        let o = d.observe();
        assert_eq!(o.max_utilization, 1.0);
        assert_eq!(o.domains[0].level, 0);
        assert!(d.unserved_fraction() > 0.5);
    }

    #[test]
    fn charging_heats_an_idle_phone() {
        let mut charging = Device::with_seed(2).unwrap();
        let mut idle = Device::with_seed(2).unwrap();
        let charge_demand = DeviceDemand {
            charging: true,
            ..DeviceDemand::idle()
        };
        for _ in 0..1800 {
            charging.apply_level(&charge_demand, 0, 1.0);
            idle.apply_level(&DeviceDemand::idle(), 0, 1.0);
        }
        let tc = charging.observe().skin_true;
        let ti = idle.observe().skin_true;
        assert!(tc > ti + 0.5, "charging {tc} vs idle {ti}");
        assert!(charging.battery_soc() > 0.8);
    }

    #[test]
    fn observation_features_match_sensor_values() {
        let mut d = Device::with_seed(3).unwrap();
        d.apply_level(&busy_demand(), 5, 0.1);
        let o = d.observe();
        let f = o.features();
        assert_eq!(f.cpu_temp, o.cpu_temp);
        assert_eq!(f.battery_temp, o.battery_temp);
        assert_eq!(f.utilization, o.avg_utilization);
        assert_eq!(f.freq_khz(), o.freq_khz);
        assert_eq!(f.domains(), 1);
    }

    #[test]
    fn same_seed_same_trajectory() {
        let mut a = Device::with_seed(9).unwrap();
        let mut b = Device::with_seed(9).unwrap();
        for _ in 0..100 {
            a.apply_level(&busy_demand(), 7, 0.1);
            b.apply_level(&busy_demand(), 7, 0.1);
        }
        assert_eq!(a.observe(), b.observe());
    }

    #[test]
    fn thermistors_track_truth_closely() {
        let mut d = Device::with_seed(4).unwrap();
        for _ in 0..300 {
            d.apply_level(&busy_demand(), 11, 1.0);
        }
        let o = d.observe();
        assert!((o.skin_thermistor - o.skin_true).abs() < 1.0);
        assert!((o.screen_thermistor - o.screen_true).abs() < 1.0);
    }

    #[test]
    fn reset_thermals_restarts_cold() {
        let mut d = Device::with_seed(5).unwrap();
        for _ in 0..100 {
            d.apply_level(&busy_demand(), 11, 1.0);
        }
        d.reset_thermals_to(Celsius(28.0));
        assert_eq!(d.observe().skin_true, Celsius(28.0));
    }

    #[test]
    fn catalog_devices_build_and_expose_their_own_domains() {
        for id in usta_device::NAMES {
            let config = DeviceConfig::for_device_id(id).expect("catalog id");
            let spec_clusters = config.spec.domains();
            let system_domains = usize::from(config.spec.gpu.is_some())
                + usize::from(config.spec.brightness_ladder.is_some());
            let spec_max = config.spec.max_khz();
            let d = Device::new(config).expect("catalog device builds");
            assert_eq!(d.cpu_domains(), spec_clusters, "{id}");
            assert_eq!(d.domains(), spec_clusters + system_domains, "{id}");
            let freq_domains = d.freq_domains();
            assert_eq!(freq_domains.len(), spec_clusters + system_domains, "{id}");
            // Big-first: domain 0 carries the device's top frequency.
            assert_eq!(freq_domains[0].opp.max().khz, spec_max, "{id}");
            assert_eq!(d.opp_table().max().khz, spec_max, "{id}");
            // One die node per CPU cluster, and every node named.
            assert_eq!(d.die_node_names().len(), spec_clusters, "{id}");
            assert!(d.thermal_model().topology().nodes.len() >= 7, "{id}");
            assert!(freq_domains.iter().all(|fd| fd.full_load_w > 0.0), "{id}");
            // Non-CPU domains trail the clusters in declaration order.
            for (i, fd) in freq_domains.iter().enumerate() {
                assert_eq!(fd.id, i, "{id}");
                assert_eq!(fd.kind == DomainKind::CpuCluster, i < spec_clusters, "{id}");
            }
        }
        assert!(DeviceConfig::for_device_id("no-such-device").is_none());
    }

    #[test]
    fn flagship_schedules_big_first_with_spill() {
        let mut d = Device::new(DeviceConfig {
            sensor_seed: 1,
            ..DeviceConfig::for_device_id("flagship-octa").unwrap()
        })
        .unwrap();
        let tops: Vec<usize> = d
            .freq_domains()
            .iter()
            .map(|fd| fd.opp.max_index())
            .collect();
        // Two busy threads: both fit on the big cluster, LITTLE idles.
        let light = DeviceDemand {
            cpu_threads_khz: vec![500_000.0; 2],
            ..busy_demand()
        };
        d.apply(&light, &tops, 0.1);
        let o = d.observe();
        assert!(o.domains[0].avg_utilization > 0.0, "big runs the threads");
        assert_eq!(o.domains[1].avg_utilization, 0.0, "LITTLE idles");
        // Six threads spill: four on big, two on LITTLE.
        let six = DeviceDemand {
            cpu_threads_khz: vec![500_000.0; 6],
            ..busy_demand()
        };
        d.apply(&six, &tops, 0.1);
        let o = d.observe();
        assert!(o.domains[0].avg_utilization > 0.0);
        assert!(o.domains[1].avg_utilization > 0.0, "spill reaches LITTLE");
        assert!(
            o.domains[0].avg_utilization > o.domains[1].avg_utilization,
            "big carries more of the load"
        );
    }

    #[test]
    fn flagship_domains_run_at_independent_levels() {
        let mut d = Device::new(DeviceConfig {
            sensor_seed: 1,
            ..DeviceConfig::for_device_id("flagship-octa").unwrap()
        })
        .unwrap();
        let eight = DeviceDemand {
            cpu_threads_khz: vec![400_000.0; 8],
            ..busy_demand()
        };
        let mut levels: Vec<usize> = d
            .freq_domains()
            .iter()
            .map(|fd| fd.opp.max_index())
            .collect();
        levels[0] = 10;
        levels[1] = 2;
        d.apply(&eight, &levels, 0.1);
        let o = d.observe();
        assert_eq!(o.domains[0].level, 10);
        assert_eq!(o.domains[1].level, 2);
        assert!(o.domains[0].freq_khz > o.domains[1].freq_khz);
        // Aggregate frequency sits between the two domain clocks.
        assert!(o.freq_khz < o.domains[0].freq_khz);
        assert!(o.freq_khz > o.domains[1].freq_khz);
    }

    #[test]
    fn octa_core_serves_demand_a_quad_core_drops() {
        // Eight threads of heavy demand: the flagship's eight cores
        // across two domains serve them all at top levels; the budget
        // quad at 1.1 GHz must fold two threads onto each core and drop
        // the surplus.
        let demand = DeviceDemand {
            cpu_threads_khz: vec![1_000_000.0; 8],
            ..busy_demand()
        };
        let mut flagship = Device::new(DeviceConfig {
            sensor_seed: 1,
            ..DeviceConfig::for_device_id("flagship-octa").unwrap()
        })
        .unwrap();
        let mut budget = Device::new(DeviceConfig {
            sensor_seed: 1,
            ..DeviceConfig::for_device_id("budget-quad").unwrap()
        })
        .unwrap();
        let tops: Vec<usize> = flagship
            .freq_domains()
            .iter()
            .map(|fd| fd.opp.max_index())
            .collect();
        flagship.apply(&demand, &tops, 1.0);
        budget.apply_level(&demand, budget.opp_table().max_index(), 1.0);
        assert_eq!(flagship.unserved_fraction(), 0.0);
        assert!(budget.unserved_fraction() > 0.4);
    }

    #[test]
    fn tablet_heats_slower_than_the_phone() {
        // Same heavy demand, same duration: the tablet's thermal mass
        // and surface keep its skin well below the phone's.
        let mut phone = Device::with_seed(2).unwrap();
        let mut tablet = Device::new(DeviceConfig {
            sensor_seed: 2,
            ..DeviceConfig::for_device_id("tablet-10in").unwrap()
        })
        .unwrap();
        for _ in 0..600 {
            let level_p = phone.opp_table().max_index();
            let level_t = tablet.opp_table().max_index();
            phone.apply_level(&busy_demand(), level_p, 1.0);
            tablet.apply_level(&busy_demand(), level_t, 1.0);
        }
        let p = phone.observe().skin_true;
        let t = tablet.observe().skin_true;
        assert!(
            t < p - 2.0,
            "tablet skin {t} should trail phone skin {p} by kelvins"
        );
    }

    #[test]
    fn qos_accounting_resets() {
        let mut d = Device::with_seed(6).unwrap();
        d.apply_level(&busy_demand(), 0, 1.0);
        assert!(d.unserved_fraction() > 0.0);
        d.reset_qos_accounting();
        assert_eq!(d.unserved_fraction(), 0.0);
    }
}
