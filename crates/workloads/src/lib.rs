//! # usta-workloads — the paper's 13 benchmarks as synthetic workloads
//!
//! The USTA paper (Egilmez et al., DATE 2015) collects its training data
//! and runs its evaluation over thirteen Android benchmarks: the AnTuTu
//! Benchmark Set and three customized derivatives, a 1.5-hour AnTuTu CPU
//! run, AnTuTu Tester, GFXBench, Vellamo, a Skype video call, YouTube
//! playback, video recording, charging, and a game (*The Legend of Holy
//! Archer*). None of those APKs can run here, but the device model only
//! ever observes their *demand signature*: how many CPU cycles each
//! thread wants, how busy the GPU is, whether the display/camera/radio
//! are on, and whether the charger is attached.
//!
//! This crate reproduces each benchmark as a phase-structured demand
//! generator with seeded jitter. The signatures are calibrated so the
//! baseline `ondemand` governor reproduces the per-benchmark ordering of
//! peak temperatures and average frequencies in the paper's Table 1.
//!
//! ```
//! use usta_workloads::{Benchmark, Workload};
//!
//! let mut skype = Benchmark::Skype.workload(42);
//! assert_eq!(skype.duration(), 1800.0); // the paper's half-hour call
//! let d = skype.demand_at(10.0, 0.1);
//! assert!(d.display_on);
//! assert!(d.cpu_threads_khz.iter().sum::<f64>() > 0.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod benchmarks;
pub mod demand;
pub mod phase;
pub mod synthetic;

pub use benchmarks::Benchmark;
pub use demand::DeviceDemand;
pub use phase::{Phase, PhasedWorkload};
pub use synthetic::{ConstantLoad, PeriodicBurst, RampLoad};

/// A workload: a finite-duration generator of device demand.
///
/// Implementations must be deterministic for a given construction seed —
/// two identically-seeded workloads queried at the same `(t, dt)`
/// sequence produce identical demand, which is what makes every
/// experiment in the reproduction replayable.
pub trait Workload: std::fmt::Debug {
    /// Human-readable name (used in tables and traces).
    fn name(&self) -> &str;

    /// Total duration in seconds.
    fn duration(&self) -> f64;

    /// Writes the demand over the window `[t, t + dt)` seconds into the
    /// run into `out`, overwriting every field. The run loop passes one
    /// buffer on every step, so implementations reuse its thread vector
    /// (see [`DeviceDemand::set_scaled`]). `t` past
    /// [`duration`](Self::duration) must write an idle demand (screen
    /// off, no load) — runners may overshoot by a window.
    fn demand_into(&mut self, t: f64, dt: f64, out: &mut DeviceDemand);

    /// [`Workload::demand_into`] into a fresh buffer, by value.
    fn demand_at(&mut self, t: f64, dt: f64) -> DeviceDemand {
        let mut out = DeviceDemand::idle();
        self.demand_into(t, dt, &mut out);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trait_is_object_safe() {
        // The experiment runner stores workloads as boxed trait objects.
        fn assert_object(_w: &dyn Workload) {}
        let w = ConstantLoad::new("x", 10.0, 500_000.0, 2);
        assert_object(&w);
    }
}
