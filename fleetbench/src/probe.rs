//! The host-speed probe: a fixed computation owned by the benchmark,
//! timed between the sweeps of an end-to-end run so that the run's
//! times can be scaled to one host speed.
//!
//! The benchmark host is a few cores shared with other machines, and
//! its speed shifts by a third for minutes at a time: in one stretch,
//! consecutive runs of the same `mixed_fleet` code read 35k–39k
//! user-s/s, then 47k–55k. A run cannot average that away, but the probe
//! slows and speeds with the host while no change to the program moves
//! it. Over sliding windows of 20 `ref_nexus4` sweeps, each followed by
//! a probe, the windows' throughput ranged over 26 % of its median and
//! its ratio to the probe's speed over 8 %.
//!
//! The kernel is the floating-point core of a simulation step: an Euler
//! step of a 10-node RC thermal network. Of the kernels tried (adding a
//! decision-tree walk, a ChaCha-style integer round, or both), it
//! tracked the sweep best.

use std::hint::black_box;
use std::time::Instant;

/// Probe steps per second at which [`HostSpeed::relative`] is 1: about
/// the probe's speed on a 2-vCPU Xeon host at 2.0 GHz. Only a scale.
pub const REFERENCE_STEPS_PER_S: f64 = 25.0e6;

/// Nodes of the probe's thermal network.
const NODES: usize = 10;

/// The probe kernel's state.
struct Kernel {
    conductance: [[f64; NODES]; NODES],
    temperature: [f64; NODES],
    step: u64,
}

impl Kernel {
    fn new() -> Kernel {
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut conductance = [[0.0; NODES]; NODES];
        for (i, row) in conductance.iter_mut().enumerate() {
            for (j, g) in row.iter_mut().enumerate() {
                if i != j {
                    *g = 0.05 + 0.1 * next();
                }
            }
        }
        Kernel {
            conductance,
            temperature: [25.0; NODES],
            step: 0,
        }
    }

    /// One step; returns the node heated in it.
    fn step(&mut self) -> usize {
        let heated = (self.step % NODES as u64) as usize;
        self.step += 1;
        let mut flow = [0.0; NODES];
        for (i, row) in self.conductance.iter().enumerate() {
            let mut q = if i == heated { 2.0 } else { 0.0 };
            for (g, t) in row.iter().zip(&self.temperature) {
                q += g * (t - self.temperature[i]);
            }
            // Heat leaks to a 25 degree ambient, keeping the network bounded.
            flow[i] = q - 0.2 * (self.temperature[i] - 25.0);
        }
        for (t, q) in self.temperature.iter_mut().zip(flow) {
            *t += 0.02 * q;
        }
        heated
    }
}

/// Probe time accumulated over one run.
pub struct HostSpeed {
    kernel: Kernel,
    steps: u64,
    wall_s: f64,
}

impl Default for HostSpeed {
    fn default() -> HostSpeed {
        HostSpeed {
            kernel: Kernel::new(),
            steps: 0,
            wall_s: 0.0,
        }
    }
}

impl HostSpeed {
    /// Runs the probe for about `seconds` of reference-host time.
    pub fn sample(&mut self, seconds: f64) {
        let steps = (seconds * REFERENCE_STEPS_PER_S).ceil().max(1.0) as u64;
        let started = Instant::now();
        let mut heated = 0;
        for _ in 0..steps {
            heated += black_box(&mut self.kernel).step();
        }
        black_box((heated, self.kernel.temperature));
        self.wall_s += started.elapsed().as_secs_f64();
        self.steps += steps;
    }

    /// The host's speed over the samples, relative to the reference:
    /// above 1 on a faster host, NaN before the first sample.
    pub fn relative(&self) -> f64 {
        self.steps as f64 / self.wall_s / REFERENCE_STEPS_PER_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_stays_bounded() {
        let mut kernel = Kernel::new();
        for _ in 0..100_000 {
            kernel.step();
        }
        assert!(kernel.temperature.iter().all(|t| (25.0..40.0).contains(t)));
    }

    #[test]
    fn relative_speed_is_positive_once_sampled() {
        let mut speed = HostSpeed::default();
        assert!(speed.relative().is_nan());
        speed.sample(0.001);
        assert!(speed.relative() > 0.0);
    }
}
