//! What a workload asks of the device over one sampling window.

/// Demand over one sampling window.
///
/// This is the full interface between application behaviour and the
/// device model: compute wanted per thread, GPU busy fraction, display
/// and camera/radio activity, and charger attachment.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceDemand {
    /// Per-thread CPU demand in kHz of equivalent busy cycles. Threads
    /// beyond the core count fold onto cores round-robin.
    pub cpu_threads_khz: Vec<f64>,
    /// GPU busy fraction, 0–1.
    pub gpu_load: f64,
    /// Whether the panel is lit.
    pub display_on: bool,
    /// Backlight level, 0–1 (ignored while the panel is off).
    pub brightness: f64,
    /// Power drawn by board-level peripherals — camera ISP, radios,
    /// DSP — in watts, dissipated on the main board.
    pub board_w: f64,
    /// Whether a charger is attached during this window.
    pub charging: bool,
}

impl DeviceDemand {
    /// A fully idle device: screen off, no compute, unplugged.
    pub fn idle() -> DeviceDemand {
        DeviceDemand {
            cpu_threads_khz: vec![0.0],
            gpu_load: 0.0,
            display_on: false,
            brightness: 0.0,
            board_w: 0.0,
            charging: false,
        }
    }

    /// Total CPU demand across threads, kHz.
    pub fn total_cpu_khz(&self) -> f64 {
        self.cpu_threads_khz.iter().sum()
    }

    /// Returns a copy with every CPU/GPU demand scaled by `factor`
    /// (used for jitter). Board power and flags are unchanged.
    pub fn scaled(&self, factor: f64) -> DeviceDemand {
        let mut out = DeviceDemand::idle();
        out.set_scaled(self, factor);
        out
    }

    /// Overwrites `self` with `base.scaled(factor)`, reusing the thread
    /// vector's allocation.
    pub fn set_scaled(&mut self, base: &DeviceDemand, factor: f64) {
        let f = factor.max(0.0);
        let mut threads = std::mem::take(&mut self.cpu_threads_khz);
        threads.clear();
        threads.extend(base.cpu_threads_khz.iter().map(|d| d * f));
        *self = DeviceDemand {
            cpu_threads_khz: threads,
            gpu_load: (base.gpu_load * f).clamp(0.0, 1.0),
            ..*base
        };
    }
}

impl Default for DeviceDemand {
    fn default() -> DeviceDemand {
        DeviceDemand::idle()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_is_quiet() {
        let d = DeviceDemand::idle();
        assert_eq!(d.total_cpu_khz(), 0.0);
        assert!(!d.display_on);
        assert!(!d.charging);
        assert_eq!(d.gpu_load, 0.0);
    }

    #[test]
    fn scaling_scales_compute_only() {
        let d = DeviceDemand {
            cpu_threads_khz: vec![100.0, 200.0],
            gpu_load: 0.4,
            display_on: true,
            brightness: 0.7,
            board_w: 1.0,
            charging: true,
        };
        let s = d.scaled(1.5);
        assert_eq!(s.cpu_threads_khz, vec![150.0, 300.0]);
        assert!((s.gpu_load - 0.6).abs() < 1e-12);
        assert_eq!(s.board_w, 1.0);
        assert!(s.display_on && s.charging);
    }

    #[test]
    fn in_place_setters_match_the_by_value_forms() {
        let base = DeviceDemand {
            cpu_threads_khz: vec![100.0, 200.0, 300.0],
            gpu_load: 0.7,
            display_on: true,
            brightness: 0.4,
            board_w: 0.2,
            charging: true,
        };
        let mut out = DeviceDemand::idle();
        out.set_scaled(&base, 1.3);
        assert_eq!(out.cpu_threads_khz, vec![130.0, 260.0, 390.0]);
        assert_eq!(out, base.scaled(1.3));
        out.set_scaled(&base, 1.0);
        assert_eq!(out, base);
    }

    #[test]
    fn scaling_clamps_gpu_and_floors_factor() {
        let d = DeviceDemand {
            gpu_load: 0.8,
            ..DeviceDemand::idle()
        };
        assert_eq!(d.scaled(2.0).gpu_load, 1.0);
        assert_eq!(d.scaled(-1.0).gpu_load, 0.0);
    }
}
