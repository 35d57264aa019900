//! Thermal sensor model: what the software *sees* of the true state.
//!
//! The paper's predictor consumes two on-device sensors (CPU and battery)
//! and is trained against two external thermistors (back cover and
//! screen). All four are imperfect: they quantize, they carry gaussian
//! noise, and a thermistor's probe lags the surface it sits on.
//! Reproducing that imperfection matters — with noiseless ground truth
//! every learner in Figure 3 would be trivially perfect and the model
//! comparison would collapse.
//!
//! **Noise is counter-based.** A device's sensor noise is a pure
//! function of `(key, step)`: word `k` of the key's stream is
//! SplitMix64's `k`-th output, `mix(key + (k+1)·γ)`, and step `n` turns
//! words `4n..4n+3` into two Box–Muller pairs, keeping both the cosine
//! and the sine half ([`step_normals`]). No stream state advances on a
//! read, so a reading is the same whether or not earlier steps were
//! read.
//!
//! **The lag sits on the true temperature.** A probe's thermal mass
//! low-passes the temperature it measures, once per simulated step
//! ([`ThermalSensor::track`]); its ADC noise is added afterwards and is
//! not filtered ([`ThermalSensor::read`]).

use crate::SocError;
use usta_thermal::Celsius;

/// Static sensor description.
#[derive(Debug, Clone, PartialEq)]
pub struct SensorParams {
    /// Standard deviation of per-reading gaussian noise, K.
    pub noise_std: f64,
    /// Quantization step, K (0 disables quantization).
    pub quantization: f64,
    /// Constant calibration offset, K.
    pub offset: f64,
    /// First-order lag of the probe on the true temperature, per step,
    /// in [0, 1) (0 = the probe follows the surface exactly, approaching
    /// 1 = a heavy, slow probe).
    pub smoothing: f64,
}

impl Default for SensorParams {
    fn default() -> SensorParams {
        SensorParams {
            noise_std: 0.15,
            quantization: 0.1,
            offset: 0.0,
            smoothing: 0.0,
        }
    }
}

impl SensorParams {
    /// An on-device kernel thermal zone: coarse (1 °C steps on many
    /// Android kernels of the era) but quiet.
    pub fn kernel_zone() -> SensorParams {
        SensorParams {
            noise_std: 0.05,
            quantization: 1.0,
            offset: 0.0,
            smoothing: 0.0,
        }
    }

    /// An external thermistor as used in the paper's rig: fine-grained
    /// with mild noise.
    pub fn thermistor() -> SensorParams {
        SensorParams {
            noise_std: 0.1,
            quantization: 0.1,
            offset: 0.0,
            smoothing: 0.2,
        }
    }

    /// Checks every parameter is finite and in its range.
    ///
    /// # Errors
    ///
    /// [`SocError::InvalidParameter`] for a negative or non-finite
    /// `noise_std` or `quantization`, a non-finite `offset`, or a
    /// `smoothing` outside [0, 1).
    pub fn validate(&self) -> Result<(), SocError> {
        let checks = [
            ("noise_std", self.noise_std, self.noise_std >= 0.0),
            ("quantization", self.quantization, self.quantization >= 0.0),
            ("offset", self.offset, true),
            (
                "smoothing",
                self.smoothing,
                (0.0..1.0).contains(&self.smoothing),
            ),
        ];
        for (name, value, in_range) in checks {
            if !(value.is_finite() && in_range) {
                return Err(SocError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

/// SplitMix64's increment, ⌊2⁶⁴/φ⌋.
const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// SplitMix64's output function.
fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Word `k` of the stream keyed by `key`: SplitMix64's `k`-th output
/// from state `key`.
fn word(key: u64, k: u64) -> u64 {
    mix(key.wrapping_add(k.wrapping_add(1).wrapping_mul(GAMMA)))
}

/// Standard normal pair `j` of the stream keyed by `key`: Box–Muller
/// on words `2j` and `2j+1`, returning the cosine and the sine half.
/// `u1` lies in (0, 1], so the logarithm is always finite.
fn normal_pair(key: u64, j: u64) -> (f64, f64) {
    const UNIT: f64 = 1.0 / (1u64 << 53) as f64;
    let u1 = ((word(key, 2 * j) >> 11) + 1) as f64 * UNIT;
    let u2 = (word(key, 2 * j + 1) >> 11) as f64 * UNIT;
    let r = (-2.0 * u1.ln()).sqrt();
    let (sin, cos) = (std::f64::consts::TAU * u2).sin_cos();
    (r * cos, r * sin)
}

/// The four standard normals of step `step` under `key`: words
/// `4·step..4·step+3`, as pairs `2·step` and `2·step+1`.
pub fn step_normals(key: u64, step: u64) -> [f64; 4] {
    let (a, b) = normal_pair(key, 2 * step);
    let (c, d) = normal_pair(key, 2 * step + 1);
    [a, b, c, d]
}

/// A thermal sensor: its parameters and its probe's lag state. Noise
/// comes from the caller as a standard normal, so a reading is a pure
/// function of the sensor and its inputs.
///
/// ```
/// use usta_soc::{SensorParams, ThermalSensor};
/// use usta_thermal::Celsius;
///
/// let mut sensor = ThermalSensor::new(SensorParams::thermistor());
/// sensor.track(Celsius(36.6));
/// let [_, _, z_skin, _] = usta_soc::sensors::step_normals(42, 0);
/// let reading = sensor.read(Celsius(36.6), z_skin);
/// assert!((reading - Celsius(36.6)).abs() < 1.0);
/// ```
#[derive(Debug, Clone)]
pub struct ThermalSensor {
    params: SensorParams,
    /// The probe's temperature, °C: the true temperature lagged by
    /// `smoothing`. `None` before the first tracked step, and always
    /// for a sensor without lag.
    lagged: Option<f64>,
}

impl ThermalSensor {
    /// Builds a sensor with no lag history.
    pub fn new(params: SensorParams) -> ThermalSensor {
        ThermalSensor {
            params,
            lagged: None,
        }
    }

    /// Advances the probe's lag by one step toward `truth` (a no-op for
    /// a sensor without lag). The first tracked step starts the probe
    /// at `truth`.
    pub fn track(&mut self, truth: Celsius) {
        let s = self.params.smoothing;
        if s > 0.0 {
            let prev = self.lagged.unwrap_or(truth.value());
            self.lagged = Some(s * prev + (1.0 - s) * truth.value());
        }
    }

    /// Reads the sensor with standard normal `z`: the probe's
    /// temperature (`truth` itself before any tracked step or without
    /// lag) plus offset and `z·noise_std`, quantized.
    pub fn read(&self, truth: Celsius, z: f64) -> Celsius {
        let mut value =
            self.lagged.unwrap_or(truth.value()) + self.params.offset + z * self.params.noise_std;
        if self.params.quantization > 0.0 {
            value = (value / self.params.quantization).round() * self.params.quantization;
        }
        Celsius(value)
    }

    /// Clears the lag memory (e.g. between experiments).
    pub fn reset(&mut self) {
        self.lagged = None;
    }

    /// The sensor's parameters.
    pub fn params(&self) -> &SensorParams {
        &self.params
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `n` standard normals in stream order under `key`.
    fn draws(key: u64, n: usize) -> Vec<f64> {
        (0..n as u64 / 4)
            .flat_map(|step| step_normals(key, step))
            .collect()
    }

    fn mean(xs: &[f64]) -> f64 {
        xs.iter().sum::<f64>() / xs.len() as f64
    }

    /// Pearson correlation of two equal-length samples.
    fn correlation(xs: &[f64], ys: &[f64]) -> f64 {
        let (mx, my) = (mean(xs), mean(ys));
        let (mut sxy, mut sxx, mut syy) = (0.0, 0.0, 0.0);
        for (x, y) in xs.iter().zip(ys) {
            sxy += (x - mx) * (y - my);
            sxx += (x - mx) * (x - mx);
            syy += (y - my) * (y - my);
        }
        sxy / (sxx * syy).sqrt()
    }

    #[test]
    fn reading_tracks_truth() {
        let s = ThermalSensor::new(SensorParams::default());
        let mut worst: f64 = 0.0;
        for i in 0..1000u64 {
            let truth = Celsius(30.0 + (i % 10) as f64);
            let r = s.read(truth, normal_pair(1, i).0);
            worst = worst.max((r - truth).abs());
        }
        assert!(worst < 1.0, "worst error {worst} too large for σ=0.15");
    }

    #[test]
    fn same_seed_same_stream() {
        // Purity: a (key, counter) names one value, in any call order.
        let forward: Vec<[f64; 4]> = (0..100).map(|n| step_normals(7, n)).collect();
        for n in (0..100).rev() {
            assert_eq!(step_normals(7, n), forward[n as usize]);
        }
        assert_eq!(normal_pair(7, 12), normal_pair(7, 12));
        let [a, b, c, d] = step_normals(7, 6);
        assert_eq!((a, b), normal_pair(7, 12));
        assert_eq!((c, d), normal_pair(7, 13));
    }

    #[test]
    fn different_seeds_differ() {
        let same = (0..100)
            .filter(|&n| step_normals(7, n) == step_normals(8, n))
            .count();
        assert_eq!(same, 0);
    }

    #[test]
    fn kernel_zone_quantizes_to_whole_degrees() {
        let s = ThermalSensor::new(SensorParams::kernel_zone());
        for n in 0..50 {
            let r = s.read(Celsius(36.4), normal_pair(3, n).0).value();
            assert!((r - r.round()).abs() < 1e-9, "reading {r} not integral");
        }
    }

    #[test]
    fn noiseless_sensor_is_exact() {
        let p = SensorParams {
            noise_std: 0.0,
            quantization: 0.0,
            offset: 0.0,
            smoothing: 0.0,
        };
        let s = ThermalSensor::new(p);
        assert_eq!(s.read(Celsius(33.125), 2.5), Celsius(33.125));
    }

    #[test]
    fn offset_shifts_readings() {
        let p = SensorParams {
            noise_std: 0.0,
            quantization: 0.0,
            offset: 1.5,
            smoothing: 0.0,
        };
        let s = ThermalSensor::new(p);
        assert_eq!(s.read(Celsius(30.0), -1.0), Celsius(31.5));
    }

    #[test]
    fn smoothing_damps_steps() {
        // A 30 → 40 °C step: the probe closes (1 − s) of the gap per
        // tracked step, and a read sees the probe, not the surface.
        let p = SensorParams {
            noise_std: 0.0,
            quantization: 0.0,
            offset: 0.0,
            smoothing: 0.8,
        };
        let mut s = ThermalSensor::new(p);
        s.track(Celsius(30.0));
        assert_eq!(s.read(Celsius(40.0), 0.0), Celsius(30.0));
        let mut gap: f64 = 10.0;
        for _ in 0..20 {
            s.track(Celsius(40.0));
            gap *= 0.8;
            let r = s.read(Celsius(40.0), 0.0).value();
            assert!((40.0 - r - gap).abs() < 1e-9, "gap {} vs {gap}", 40.0 - r);
        }
        s.reset();
        assert_eq!(s.read(Celsius(40.0), 0.0), Celsius(40.0));
        s.track(Celsius(35.0));
        assert_eq!(s.read(Celsius(40.0), 0.0), Celsius(35.0));
    }

    #[test]
    fn unlagged_sensor_ignores_tracking() {
        let mut s = ThermalSensor::new(SensorParams::kernel_zone());
        s.track(Celsius(30.0));
        assert_eq!(s.read(Celsius(41.2), 0.0), Celsius(41.0));
    }

    #[test]
    fn gaussian_moments_are_sane() {
        let xs = draws(99, 1_000_000);
        let m = mean(&xs);
        let var = xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64;
        assert!(m.abs() < 0.01, "mean {m}");
        assert!((var - 1.0).abs() < 0.01, "var {var}");
        assert!(xs.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn tail_mass_matches_the_normal() {
        // P(|z| > 3) = 0.0027 for a standard normal; over 10⁶ draws the
        // count's standard deviation is about 52.
        let xs = draws(5, 1_000_000);
        let tail = xs.iter().filter(|x| x.abs() > 3.0).count() as f64 / xs.len() as f64;
        assert!((tail - 0.0027).abs() < 0.0003, "tail mass {tail}");
    }

    #[test]
    fn draws_are_uncorrelated() {
        let xs = draws(11, 1_000_000);
        let lag1 = correlation(&xs[..xs.len() - 1], &xs[1..]);
        assert!(lag1.abs() < 0.005, "lag-1 correlation {lag1}");
        let (cos, sin): (Vec<f64>, Vec<f64>) = (0..500_000).map(|j| normal_pair(11, j)).unzip();
        let halves = correlation(&cos, &sin);
        assert!(halves.abs() < 0.005, "cos/sin correlation {halves}");
    }

    #[test]
    fn presets_validate() {
        for p in [
            SensorParams::default(),
            SensorParams::kernel_zone(),
            SensorParams::thermistor(),
        ] {
            assert_eq!(p.validate(), Ok(()));
        }
    }

    #[test]
    fn bad_params_give_structured_errors() {
        let bad = [
            (
                "noise_std",
                SensorParams {
                    noise_std: -0.1,
                    ..SensorParams::default()
                },
            ),
            (
                "noise_std",
                SensorParams {
                    noise_std: f64::NAN,
                    ..SensorParams::default()
                },
            ),
            (
                "quantization",
                SensorParams {
                    quantization: -1.0,
                    ..SensorParams::default()
                },
            ),
            (
                "quantization",
                SensorParams {
                    quantization: f64::INFINITY,
                    ..SensorParams::default()
                },
            ),
            (
                "offset",
                SensorParams {
                    offset: f64::NEG_INFINITY,
                    ..SensorParams::default()
                },
            ),
            (
                "smoothing",
                SensorParams {
                    smoothing: 1.0,
                    ..SensorParams::default()
                },
            ),
            (
                "smoothing",
                SensorParams {
                    smoothing: -0.1,
                    ..SensorParams::default()
                },
            ),
            (
                "smoothing",
                SensorParams {
                    smoothing: f64::NAN,
                    ..SensorParams::default()
                },
            ),
        ];
        for (want, params) in bad {
            match params.validate() {
                Err(SocError::InvalidParameter { name, .. }) => assert_eq!(name, want),
                other => panic!("{params:?} gave {other:?}"),
            }
        }
    }
}
