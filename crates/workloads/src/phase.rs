//! Phase-structured workloads: the building block for all 13 benchmarks.
//!
//! Real Android benchmarks cycle through sub-tests (AnTuTu runs CPU,
//! then memory, then UX…); interactive apps alternate burst and idle.
//! [`PhasedWorkload`] models this as a repeating sequence of [`Phase`]s,
//! each with its own demand template, plus seeded multiplicative jitter
//! re-drawn once per second so the `ondemand` governor sees realistic
//! utilization wander rather than a perfectly flat line.

use crate::demand::DeviceDemand;
use crate::Workload;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// One phase of a workload: a demand template held for a duration.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// How long the phase lasts, seconds.
    pub seconds: f64,
    /// The demand issued throughout the phase (before jitter).
    pub demand: DeviceDemand,
}

impl Phase {
    /// Convenience constructor.
    pub fn new(seconds: f64, demand: DeviceDemand) -> Phase {
        Phase { seconds, demand }
    }
}

/// A named, finite workload cycling through phases with seeded jitter.
///
/// ```
/// use usta_workloads::{DeviceDemand, Phase, PhasedWorkload, Workload};
///
/// let busy = DeviceDemand {
///     cpu_threads_khz: vec![1_000_000.0; 4],
///     display_on: true,
///     brightness: 1.0,
///     ..DeviceDemand::idle()
/// };
/// let mut w = PhasedWorkload::new("stress", 60.0, vec![Phase::new(10.0, busy)], 0.1, 7);
/// let d = w.demand_at(3.0, 0.1);
/// assert!(d.total_cpu_khz() > 3_000_000.0); // ±10 % jitter around 4 M
/// ```
#[derive(Debug, Clone)]
pub struct PhasedWorkload {
    name: String,
    duration: f64,
    phases: Vec<Phase>,
    cycle_len: f64,
    /// Thread count of the widest phase: the capacity `demand_into`
    /// reserves, so a phase change never regrows the caller's buffer.
    max_threads: usize,
    jitter: f64,
    rng: ChaCha8Rng,
    current_jitter: f64,
    jitter_drawn_at: f64,
}

impl PhasedWorkload {
    /// Builds a workload that cycles `phases` for `duration` seconds,
    /// with multiplicative demand jitter uniform in `1 ± jitter`,
    /// re-drawn once per simulated second from a stream seeded by
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `phases` is empty, any phase is non-positive in length,
    /// or `jitter` is not within `[0, 1)`.
    pub fn new(
        name: &str,
        duration: f64,
        phases: Vec<Phase>,
        jitter: f64,
        seed: u64,
    ) -> PhasedWorkload {
        assert!(!phases.is_empty(), "workload needs at least one phase");
        assert!(
            phases
                .iter()
                .all(|p| p.seconds > 0.0 && p.seconds.is_finite()),
            "phase lengths must be positive"
        );
        assert!((0.0..1.0).contains(&jitter), "jitter must be in [0, 1)");
        let cycle_len = phases.iter().map(|p| p.seconds).sum();
        let max_threads = phases
            .iter()
            .map(|p| p.demand.cpu_threads_khz.len())
            .max()
            .unwrap_or(0);
        PhasedWorkload {
            name: name.to_owned(),
            duration,
            phases,
            cycle_len,
            max_threads,
            jitter,
            rng: ChaCha8Rng::seed_from_u64(seed),
            current_jitter: 1.0,
            jitter_drawn_at: f64::NEG_INFINITY,
        }
    }

    /// The phase active at time `t` (cycling).
    pub fn phase_at(&self, t: f64) -> &Phase {
        // Inside the first cycle `rem_euclid` returns `t` unchanged, so
        // its `fmod` is skipped there.
        let mut offset = if (0.0..self.cycle_len).contains(&t) {
            t
        } else {
            t.rem_euclid(self.cycle_len)
        };
        for p in &self.phases {
            if offset < p.seconds {
                return p;
            }
            offset -= p.seconds;
        }
        // Floating-point edge: fall back to the last phase.
        self.phases.last().expect("phases is non-empty")
    }

    /// The phases of this workload.
    pub fn phases(&self) -> &[Phase] {
        &self.phases
    }
}

impl Workload for PhasedWorkload {
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
        if self.jitter > 0.0 && t - self.jitter_drawn_at >= 1.0 {
            self.current_jitter = 1.0 + self.rng.gen_range(-self.jitter..=self.jitter);
            self.jitter_drawn_at = t;
        }
        // Room for the widest phase, so a phase change never regrows
        // the buffer. Zero jitter keeps the factor at exactly 1.
        let threads = &mut out.cpu_threads_khz;
        threads.reserve(self.max_threads.saturating_sub(threads.len()));
        out.set_scaled(&self.phase_at(t).demand, self.current_jitter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_phase() -> PhasedWorkload {
        let heavy = DeviceDemand {
            cpu_threads_khz: vec![1_000_000.0],
            ..DeviceDemand::idle()
        };
        let light = DeviceDemand {
            cpu_threads_khz: vec![100_000.0],
            ..DeviceDemand::idle()
        };
        PhasedWorkload::new(
            "alt",
            100.0,
            vec![Phase::new(10.0, heavy), Phase::new(5.0, light)],
            0.0,
            1,
        )
    }

    #[test]
    fn phases_cycle() {
        let w = two_phase();
        assert_eq!(w.phase_at(0.0).demand.cpu_threads_khz[0], 1_000_000.0);
        assert_eq!(w.phase_at(9.9).demand.cpu_threads_khz[0], 1_000_000.0);
        assert_eq!(w.phase_at(10.1).demand.cpu_threads_khz[0], 100_000.0);
        assert_eq!(w.phase_at(14.9).demand.cpu_threads_khz[0], 100_000.0);
        // Next cycles: 15.1 → 0.1 (heavy), 40.0 → 10.0 (light), 45.1 → 0.1.
        assert_eq!(w.phase_at(15.1).demand.cpu_threads_khz[0], 1_000_000.0);
        assert_eq!(w.phase_at(40.0).demand.cpu_threads_khz[0], 100_000.0);
        assert_eq!(w.phase_at(45.1).demand.cpu_threads_khz[0], 1_000_000.0);
    }

    #[test]
    fn phase_lookup_matches_the_rem_euclid_form_along_the_run_loop_clock() {
        // The loop's clock is `t += 0.1` from zero: its rounding drifts,
        // so every value it reaches in three cycles is checked against
        // the plain `rem_euclid` lookup, benchmark by benchmark.
        for benchmark in crate::Benchmark::ALL {
            let w = benchmark.workload(1);
            let reference = |t: f64| {
                let mut offset = t.rem_euclid(w.cycle_len);
                for p in w.phases() {
                    if offset < p.seconds {
                        return p;
                    }
                    offset -= p.seconds;
                }
                w.phases().last().unwrap()
            };
            let mut t = 0.0f64;
            while t < 3.0 * w.cycle_len {
                assert!(
                    std::ptr::eq(w.phase_at(t), reference(t)),
                    "{} at t = {t:?}",
                    benchmark.name()
                );
                t += 0.1;
            }
        }
    }

    #[test]
    fn demand_into_reuses_one_buffer_across_phases() {
        let mut w = two_phase();
        let mut out = DeviceDemand::idle();
        for i in 0..300 {
            let t = i as f64 * 0.1;
            w.demand_into(t, 0.1, &mut out);
            assert_eq!(out, two_phase().demand_at(t, 0.1), "t = {t}");
        }
        w.demand_into(100.0, 0.1, &mut out);
        assert_eq!(out, DeviceDemand::idle());
    }

    #[test]
    fn past_duration_is_idle() {
        let mut w = two_phase();
        assert_eq!(w.demand_at(100.0, 0.1), DeviceDemand::idle());
        assert_eq!(w.demand_at(1e9, 0.1), DeviceDemand::idle());
    }

    #[test]
    fn zero_jitter_is_exact() {
        let mut w = two_phase();
        let d = w.demand_at(1.0, 0.1);
        assert_eq!(d.cpu_threads_khz[0], 1_000_000.0);
    }

    #[test]
    fn jitter_stays_in_band_and_is_deterministic() {
        let mk = || {
            let demand = DeviceDemand {
                cpu_threads_khz: vec![1_000_000.0],
                ..DeviceDemand::idle()
            };
            PhasedWorkload::new("j", 1000.0, vec![Phase::new(10.0, demand)], 0.2, 42)
        };
        let mut a = mk();
        let mut b = mk();
        for i in 0..500 {
            let t = i as f64;
            let da = a.demand_at(t, 1.0);
            let db = b.demand_at(t, 1.0);
            assert_eq!(da, db, "same seed must give same demand");
            let v = da.cpu_threads_khz[0];
            assert!(
                (800_000.0..=1_200_000.0).contains(&v),
                "jitter out of band: {v}"
            );
        }
    }

    #[test]
    fn jitter_actually_varies() {
        let demand = DeviceDemand {
            cpu_threads_khz: vec![1_000_000.0],
            ..DeviceDemand::idle()
        };
        let mut w = PhasedWorkload::new("j", 1000.0, vec![Phase::new(10.0, demand)], 0.2, 42);
        let values: Vec<f64> = (0..100)
            .map(|i| w.demand_at(i as f64, 1.0).cpu_threads_khz[0])
            .collect();
        let distinct = values
            .iter()
            .map(|v| (v * 1000.0) as i64)
            .collect::<std::collections::HashSet<_>>()
            .len();
        assert!(
            distinct > 10,
            "expected varied jitter, got {distinct} distinct values"
        );
    }

    #[test]
    #[should_panic(expected = "at least one phase")]
    fn empty_phases_panic() {
        let _ = PhasedWorkload::new("empty", 10.0, vec![], 0.0, 1);
    }

    #[test]
    #[should_panic(expected = "jitter")]
    fn bad_jitter_panics() {
        let _ = PhasedWorkload::new(
            "bad",
            10.0,
            vec![Phase::new(1.0, DeviceDemand::idle())],
            1.5,
            1,
        );
    }
}
