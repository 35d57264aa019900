//! The predictor's feature vector.
//!
//! The paper's model observes only what an unmodified Android phone can
//! report about itself (§3.A): the CPU thermal zone, the battery
//! temperature, CPU utilization, and the current CPU frequency. No
//! external sensing is available at run time — that is the whole point
//! of the predictor.
//!
//! With the multi-domain control plane the frequency input is
//! per-domain: a big.LITTLE device reports one frequency per cpufreq
//! policy, so its predictor sees `3 + domains` features — and, since
//! the thermal topology went per-cluster, optionally the **hottest
//! die** temperature (the maximum over the per-cluster die nodes,
//! which on a big.LITTLE part can diverge from the primary `cpu_temp`
//! zone). The paper's single-policy Nexus 4 keeps exactly the
//! original four features with the original names — its trained
//! models and predictions are bit-identical to the single-frequency
//! era.

use usta_soc::PerDomain;
use usta_thermal::Celsius;

/// Names of the single-domain features, in [`FeatureVector::to_vec`]
/// order — extra domains append `freq_mhz_d1`, `freq_mhz_d2`, …, and
/// a hottest-die reading appends `hottest_die_temp`.
pub const FEATURE_NAMES: [&str; 4] = ["cpu_temp", "battery_temp", "utilization", "freq_mhz"];

/// Name of the optional hottest-die feature column.
pub const HOTTEST_DIE_FEATURE: &str = "hottest_die_temp";

/// Name of the optional GPU-frequency feature column (devices whose
/// spec declares a governed GPU domain).
pub const GPU_FREQ_FEATURE: &str = "gpu_freq_mhz";

/// Name of the optional display-brightness feature column (devices
/// whose spec declares a brightness ladder).
pub const BRIGHTNESS_FEATURE: &str = "brightness";

/// One observation of the system-level signals the predictor uses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FeatureVector {
    /// CPU thermal-zone reading (the primary — big-cluster — die zone).
    pub cpu_temp: Celsius,
    /// Battery temperature reading.
    pub battery_temp: Celsius,
    /// Mean CPU utilization across every core of every domain over the
    /// logging window, 0–1.
    pub utilization: f64,
    /// Per-frequency-domain CPU frequency, kHz (one entry per cpufreq
    /// policy, in the device's big-first domain order).
    pub domain_freqs_khz: PerDomain<f64>,
    /// Hottest per-cluster die temperature, when the device has more
    /// than one die node. `None` on single-die devices — the paper's
    /// Nexus 4 keeps its exact 4-feature shape.
    pub hottest_die: Option<Celsius>,
    /// The governed GPU domain's frequency, kHz, when the device
    /// declares one. `None` on legacy static-GPU devices — their
    /// feature shape is untouched.
    pub gpu_freq_khz: Option<f64>,
    /// Effective display brightness, 0–1, when the device declares a
    /// brightness ladder. `None` otherwise.
    pub brightness: Option<f64>,
}

impl FeatureVector {
    /// A single-domain feature vector — the paper's original four
    /// signals, no hottest-die column.
    pub fn single(
        cpu_temp: Celsius,
        battery_temp: Celsius,
        utilization: f64,
        freq_khz: f64,
    ) -> FeatureVector {
        FeatureVector {
            cpu_temp,
            battery_temp,
            utilization,
            domain_freqs_khz: PerDomain::splat(1, freq_khz),
            hottest_die: None,
            gpu_freq_khz: None,
            brightness: None,
        }
    }

    /// Number of frequency domains this observation carries.
    pub fn domains(&self) -> usize {
        self.domain_freqs_khz.len()
    }

    /// Domain 0's frequency, kHz — on single-domain devices, *the* CPU
    /// frequency (the paper's fourth feature).
    pub fn freq_khz(&self) -> f64 {
        self.domain_freqs_khz[0]
    }

    /// Flattens into the learner's input layout: temperatures,
    /// utilization, one frequency per domain, then the optional
    /// columns in declaration order — hottest-die temperature, GPU
    /// frequency, display brightness — for observations that carry
    /// them.
    ///
    /// Frequencies are expressed in MHz so all features share a
    /// similar numeric range (tree learners don't care, but the MLP and
    /// ridge regression appreciate it).
    pub fn to_vec(&self) -> Vec<f64> {
        self.values().collect()
    }

    /// [`FeatureVector::to_vec`]'s values in order, without allocating.
    pub(crate) fn values(&self) -> impl Iterator<Item = f64> + '_ {
        [
            self.cpu_temp.value(),
            self.battery_temp.value(),
            self.utilization,
        ]
        .into_iter()
        .chain(self.domain_freqs_khz.iter().map(|khz| khz / 1000.0))
        .chain(self.hottest_die.map(Celsius::value))
        .chain(self.gpu_freq_khz.map(|khz| khz / 1000.0))
        .chain(self.brightness)
    }

    /// Schema for [`usta_ml::Dataset`] construction: the historical
    /// four names for one domain, `freq_mhz_d<i>` appended per extra
    /// domain.
    pub fn feature_names(domains: usize) -> Vec<String> {
        FeatureVector::feature_names_with(domains, false)
    }

    /// [`FeatureVector::feature_names`] with the optional hottest-die
    /// column appended — matching [`FeatureVector::to_vec`]'s layout
    /// for observations that carry it.
    pub fn feature_names_with(domains: usize, hottest_die: bool) -> Vec<String> {
        FeatureVector::feature_names_full(domains, hottest_die, false, false)
    }

    /// The full schema: [`FeatureVector::feature_names`] plus every
    /// optional column the observations carry, in
    /// [`FeatureVector::to_vec`]'s order — hottest die, GPU frequency,
    /// display brightness.
    pub fn feature_names_full(
        domains: usize,
        hottest_die: bool,
        gpu_freq: bool,
        brightness: bool,
    ) -> Vec<String> {
        let mut names: Vec<String> = FEATURE_NAMES.iter().map(|s| (*s).to_owned()).collect();
        for d in 1..domains {
            names.push(format!("freq_mhz_d{d}"));
        }
        if hottest_die {
            names.push(HOTTEST_DIE_FEATURE.to_owned());
        }
        if gpu_freq {
            names.push(GPU_FREQ_FEATURE.to_owned());
        }
        if brightness {
            names.push(BRIGHTNESS_FEATURE.to_owned());
        }
        names
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> FeatureVector {
        FeatureVector::single(Celsius(52.0), Celsius(36.5), 0.75, 1_134_000.0)
    }

    #[test]
    fn array_layout_matches_names() {
        let a = sample().to_vec();
        assert_eq!(a.len(), FEATURE_NAMES.len());
        assert_eq!(a[0], 52.0);
        assert_eq!(a[1], 36.5);
        assert_eq!(a[2], 0.75);
        assert_eq!(a[3], 1134.0);
        assert_eq!(sample().freq_khz(), 1_134_000.0);
        assert_eq!(sample().domains(), 1);
    }

    #[test]
    fn names_are_stable() {
        assert_eq!(
            FeatureVector::feature_names(1),
            vec!["cpu_temp", "battery_temp", "utilization", "freq_mhz"]
        );
    }

    #[test]
    fn multi_domain_features_append_per_domain_frequencies() {
        let f = FeatureVector {
            cpu_temp: Celsius(52.0),
            battery_temp: Celsius(36.5),
            utilization: 0.5,
            domain_freqs_khz: PerDomain::from_slice(&[2_016_000.0, 1_363_200.0]),
            hottest_die: None,
            gpu_freq_khz: None,
            brightness: None,
        };
        assert_eq!(f.domains(), 2);
        let v = f.to_vec();
        assert_eq!(v.len(), 5);
        assert_eq!(v[3], 2016.0);
        assert_eq!(v[4], 1363.2);
        assert_eq!(
            FeatureVector::feature_names(2),
            vec![
                "cpu_temp",
                "battery_temp",
                "utilization",
                "freq_mhz",
                "freq_mhz_d1"
            ]
        );
    }

    #[test]
    fn hottest_die_appends_one_feature_when_carried() {
        let f = FeatureVector {
            hottest_die: Some(Celsius(61.5)),
            ..sample()
        };
        let v = f.to_vec();
        assert_eq!(v.len(), 5);
        assert_eq!(v[4], 61.5);
        assert_eq!(
            FeatureVector::feature_names_with(1, true),
            vec![
                "cpu_temp",
                "battery_temp",
                "utilization",
                "freq_mhz",
                "hottest_die_temp"
            ]
        );
        // The paper's shape is untouched: `::single` carries no
        // hottest-die column and the historical names stay 4-wide.
        assert_eq!(sample().hottest_die, None);
        assert_eq!(sample().to_vec().len(), 4);
        assert_eq!(
            FeatureVector::feature_names_with(1, false),
            FeatureVector::feature_names(1)
        );
    }

    #[test]
    fn gpu_and_brightness_append_in_declaration_order() {
        let f = FeatureVector {
            hottest_die: Some(Celsius(61.5)),
            gpu_freq_khz: Some(596_000.0),
            brightness: Some(0.85),
            ..sample()
        };
        let v = f.to_vec();
        assert_eq!(v.len(), 7);
        assert_eq!(v[4], 61.5);
        assert_eq!(v[5], 596.0);
        assert_eq!(v[6], 0.85);
        assert_eq!(
            FeatureVector::feature_names_full(1, true, true, true),
            vec![
                "cpu_temp",
                "battery_temp",
                "utilization",
                "freq_mhz",
                "hottest_die_temp",
                "gpu_freq_mhz",
                "brightness"
            ]
        );
        // GPU-only (no hottest-die) also lines up with to_vec.
        let f = FeatureVector {
            gpu_freq_khz: Some(257_000.0),
            ..sample()
        };
        assert_eq!(f.to_vec().len(), 5);
        assert_eq!(f.to_vec()[4], 257.0);
        assert_eq!(
            FeatureVector::feature_names_full(1, false, true, false).len(),
            5
        );
        // `::single` stays the paper's exact 4-feature shape.
        assert_eq!(sample().gpu_freq_khz, None);
        assert_eq!(sample().brightness, None);
    }
}
