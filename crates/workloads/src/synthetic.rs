//! Simple synthetic workloads for tests, examples, and governor
//! characterization (step responses, duty-cycle sweeps, ramps).

use crate::demand::DeviceDemand;
use crate::Workload;

/// Writes `khz` on each of `cores` threads with the panel lit at 80 %
/// and 0.1 W of board power: the demand shape every synthetic load
/// shares.
fn screen_on_load(out: &mut DeviceDemand, khz: f64, cores: usize) {
    out.cpu_threads_khz.clear();
    out.cpu_threads_khz.resize(cores, khz);
    out.gpu_load = 0.0;
    out.display_on = true;
    out.brightness = 0.8;
    out.board_w = 0.1;
    out.charging = false;
}

/// Constant CPU demand on every core, screen on.
#[derive(Debug, Clone)]
pub struct ConstantLoad {
    name: String,
    duration: f64,
    per_core_khz: f64,
    cores: usize,
}

impl ConstantLoad {
    /// A constant `per_core_khz` demand on `cores` cores for
    /// `duration` seconds.
    pub fn new(name: &str, duration: f64, per_core_khz: f64, cores: usize) -> ConstantLoad {
        ConstantLoad {
            name: name.to_owned(),
            duration,
            per_core_khz: per_core_khz.max(0.0),
            cores: cores.max(1),
        }
    }
}

impl Workload for ConstantLoad {
    fn name(&self) -> &str {
        &self.name
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn demand_into(&mut self, t: f64, _dt: f64, out: &mut DeviceDemand) {
        if t >= self.duration {
            *out = DeviceDemand::idle();
            return;
        }
        screen_on_load(out, self.per_core_khz, self.cores);
    }
}

/// A square wave: `busy_khz` for `busy_s`, then idle for `idle_s`.
///
/// The classic governor-characterization input: `ondemand`'s average
/// frequency on a burst train reveals its up/down asymmetry.
#[derive(Debug, Clone)]
pub struct PeriodicBurst {
    name: String,
    duration: f64,
    busy_s: f64,
    idle_s: f64,
    busy_khz: f64,
    cores: usize,
}

impl PeriodicBurst {
    /// Builds the burst train.
    ///
    /// # Panics
    ///
    /// Panics if `busy_s` or `idle_s` is not positive.
    pub fn new(
        name: &str,
        duration: f64,
        busy_s: f64,
        idle_s: f64,
        busy_khz: f64,
        cores: usize,
    ) -> PeriodicBurst {
        assert!(
            busy_s > 0.0 && idle_s > 0.0,
            "phase lengths must be positive"
        );
        PeriodicBurst {
            name: name.to_owned(),
            duration,
            busy_s,
            idle_s,
            busy_khz: busy_khz.max(0.0),
            cores: cores.max(1),
        }
    }

    /// Fraction of time spent busy.
    pub fn duty_cycle(&self) -> f64 {
        self.busy_s / (self.busy_s + self.idle_s)
    }
}

impl Workload for PeriodicBurst {
    fn name(&self) -> &str {
        &self.name
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn demand_into(&mut self, t: f64, _dt: f64, out: &mut DeviceDemand) {
        if t >= self.duration {
            *out = DeviceDemand::idle();
            return;
        }
        let phase = t.rem_euclid(self.busy_s + self.idle_s);
        let khz = if phase < self.busy_s {
            self.busy_khz
        } else {
            0.0
        };
        screen_on_load(out, khz, self.cores);
    }
}

/// Demand ramping linearly from zero to `peak_khz` over the duration.
#[derive(Debug, Clone)]
pub struct RampLoad {
    name: String,
    duration: f64,
    peak_khz: f64,
    cores: usize,
}

impl RampLoad {
    /// A linear ramp to `peak_khz` per core.
    pub fn new(name: &str, duration: f64, peak_khz: f64, cores: usize) -> RampLoad {
        RampLoad {
            name: name.to_owned(),
            duration: duration.max(1e-9),
            peak_khz: peak_khz.max(0.0),
            cores: cores.max(1),
        }
    }
}

impl Workload for RampLoad {
    fn name(&self) -> &str {
        &self.name
    }

    fn duration(&self) -> f64 {
        self.duration
    }

    fn demand_into(&mut self, t: f64, _dt: f64, out: &mut DeviceDemand) {
        if t >= self.duration {
            *out = DeviceDemand::idle();
            return;
        }
        let frac = (t / self.duration).clamp(0.0, 1.0);
        screen_on_load(out, self.peak_khz * frac, self.cores);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_load_is_constant() {
        let mut w = ConstantLoad::new("c", 10.0, 500_000.0, 4);
        let a = w.demand_at(1.0, 0.1);
        let b = w.demand_at(9.0, 0.1);
        assert_eq!(a, b);
        assert_eq!(a.cpu_threads_khz, vec![500_000.0; 4]);
    }

    #[test]
    fn burst_alternates() {
        let mut w = PeriodicBurst::new("b", 100.0, 2.0, 3.0, 1_000_000.0, 1);
        assert!(w.demand_at(1.0, 0.1).total_cpu_khz() > 0.0);
        assert_eq!(w.demand_at(3.0, 0.1).total_cpu_khz(), 0.0);
        assert!(w.demand_at(5.5, 0.1).total_cpu_khz() > 0.0);
        assert!((w.duty_cycle() - 0.4).abs() < 1e-12);
    }

    #[test]
    fn ramp_rises_monotonically() {
        let mut w = RampLoad::new("r", 10.0, 1_000_000.0, 1);
        let early = w.demand_at(1.0, 0.1).total_cpu_khz();
        let late = w.demand_at(9.0, 0.1).total_cpu_khz();
        assert!(late > early);
        assert!((w.demand_at(5.0, 0.1).total_cpu_khz() - 500_000.0).abs() < 1e-6);
    }

    #[test]
    fn all_idle_after_duration() {
        let mut c = ConstantLoad::new("c", 10.0, 500_000.0, 4);
        let mut b = PeriodicBurst::new("b", 10.0, 1.0, 1.0, 500_000.0, 1);
        let mut r = RampLoad::new("r", 10.0, 500_000.0, 1);
        assert_eq!(c.demand_at(10.0, 0.1), DeviceDemand::idle());
        assert_eq!(b.demand_at(11.0, 0.1), DeviceDemand::idle());
        assert_eq!(r.demand_at(12.0, 0.1), DeviceDemand::idle());
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn burst_rejects_zero_phase() {
        let _ = PeriodicBurst::new("bad", 10.0, 0.0, 1.0, 1.0, 1);
    }
}
