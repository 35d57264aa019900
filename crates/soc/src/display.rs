//! Display panel power model.

use crate::error::SocError;

/// Static display description.
#[derive(Debug, Clone, PartialEq)]
pub struct DisplayParams {
    /// Panel + driver power at zero backlight, W.
    pub base_w: f64,
    /// Additional power at full brightness, W.
    pub full_brightness_w: f64,
}

/// The display: on/off and a brightness slider.
///
/// ```
/// # fn main() -> Result<(), usta_soc::SocError> {
/// let spec = usta_device::by_id("nexus4").expect("built-in");
/// let mut d = usta_soc::spec::display(spec)?;
/// assert_eq!(d.power(), 0.0); // starts off
/// d.set_on(true);
/// d.set_brightness(0.6);
/// assert!(d.power() > 0.8);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Display {
    params: DisplayParams,
    on: bool,
    brightness: f64,
}

impl Display {
    /// Builds a display, initially off at 50 % brightness.
    ///
    /// # Errors
    ///
    /// Returns [`SocError::InvalidParameter`] for negative or non-finite
    /// powers.
    pub fn new(params: DisplayParams) -> Result<Display, SocError> {
        if !params.base_w.is_finite() || params.base_w < 0.0 {
            return Err(SocError::InvalidParameter {
                name: "base_w",
                value: params.base_w,
            });
        }
        if !params.full_brightness_w.is_finite() || params.full_brightness_w < 0.0 {
            return Err(SocError::InvalidParameter {
                name: "full_brightness_w",
                value: params.full_brightness_w,
            });
        }
        Ok(Display {
            params,
            on: false,
            brightness: 0.5,
        })
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
            self.params.base_w + self.params.full_brightness_w * self.brightness
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn panel() -> Display {
        Display::new(DisplayParams {
            base_w: 0.35,
            full_brightness_w: 0.85,
        })
        .unwrap()
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
        let bad = DisplayParams {
            base_w: -0.1,
            full_brightness_w: 0.8,
        };
        assert!(Display::new(bad).is_err());
    }
}
