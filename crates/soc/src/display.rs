//! Display panel power model.

use usta_device::DisplaySpec;

/// The display: on/off and a brightness slider.
///
/// ```
/// let spec = usta_device::by_id("nexus4").expect("built-in");
/// let mut d = usta_soc::Display::new(spec.display);
/// assert_eq!(d.power(), 0.0); // starts off
/// d.set_on(true);
/// d.set_brightness(0.6);
/// assert!(d.power() > 0.8);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Display {
    spec: DisplaySpec,
    on: bool,
    brightness: f64,
}

impl Display {
    /// Builds a display, initially off at 50 % brightness, from the
    /// spec's panel powers, whose ranges
    /// [`DeviceSpec::validate`](usta_device::DeviceSpec::validate)
    /// checks.
    pub fn new(spec: DisplaySpec) -> Display {
        Display {
            spec,
            on: false,
            brightness: 0.5,
        }
    }

    /// Turns the panel on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    /// Whether the panel is on.
    pub fn is_on(&self) -> bool {
        self.on
    }

    /// Sets the backlight (clamped to 0–1).
    pub fn set_brightness(&mut self, brightness: f64) {
        self.brightness = brightness.clamp(0.0, 1.0);
    }

    /// Current backlight level.
    pub fn brightness(&self) -> f64 {
        self.brightness
    }

    /// Instantaneous panel power, W.
    pub fn power(&self) -> f64 {
        if self.on {
            self.spec.base_w + self.spec.full_brightness_w * self.brightness
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel() -> Display {
        Display::new(DisplaySpec {
            base_w: 0.35,
            full_brightness_w: 0.85,
        })
    }

    #[test]
    fn off_display_draws_nothing() {
        let d = panel();
        assert_eq!(d.power(), 0.0);
        assert!(!d.is_on());
    }

    #[test]
    fn brightness_scales_power() {
        let mut d = panel();
        d.set_on(true);
        d.set_brightness(0.0);
        let dim = d.power();
        d.set_brightness(1.0);
        let bright = d.power();
        assert!((dim - 0.35).abs() < 1e-12);
        assert!((bright - 1.2).abs() < 1e-12);
    }

    #[test]
    fn brightness_is_clamped() {
        let mut d = panel();
        d.set_brightness(4.0);
        assert_eq!(d.brightness(), 1.0);
        d.set_brightness(-1.0);
        assert_eq!(d.brightness(), 0.0);
    }

    #[test]
    fn rejects_negative_power() {
        // `Display::new` trusts its spec; the spec validator that
        // `Device::new` runs first is what keeps a negative power out.
        let nexus4 = usta_device::by_id("nexus4").unwrap();
        let mut spec = nexus4.clone();
        spec.display.base_w = -0.1;
        assert!(spec.validate().is_err());
        let mut spec = nexus4.clone();
        spec.display.full_brightness_w = -0.1;
        assert!(spec.validate().is_err());
    }
}
