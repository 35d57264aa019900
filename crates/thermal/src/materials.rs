//! Material properties for building physically-plausible phone models.
//!
//! Heat capacities for the lumped nodes of the catalog's device
//! topologies are derived from component masses and specific heats; the
//! constants here document where the numbers come from.

/// Specific heat capacity of a material, J/(g·K).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpecificHeat(pub f64);

/// Common smartphone materials.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum Material {
    /// Silicon die.
    Silicon,
    /// FR-4 printed circuit board.
    Fr4,
    /// Lithium-ion battery cell (average over jelly roll + casing).
    LithiumIon,
    /// Polycarbonate back cover.
    Polycarbonate,
    /// Aluminosilicate cover glass (Gorilla-glass class).
    CoverGlass,
    /// Aluminium frame.
    Aluminium,
    /// Copper heat spreader / ground plane.
    Copper,
}

impl Material {
    /// Specific heat of the material.
    pub fn specific_heat(self) -> SpecificHeat {
        // Textbook values, J/(g·K).
        match self {
            Material::Silicon => SpecificHeat(0.71),
            Material::Fr4 => SpecificHeat(1.10),
            Material::LithiumIon => SpecificHeat(0.90),
            Material::Polycarbonate => SpecificHeat(1.20),
            Material::CoverGlass => SpecificHeat(0.84),
            Material::Aluminium => SpecificHeat(0.90),
            Material::Copper => SpecificHeat(0.385),
        }
    }

    /// Lumped heat capacity (J/K) of `grams` of this material.
    ///
    /// ```
    /// use usta_thermal::materials::Material;
    ///
    /// // A 50 g lithium-ion cell stores 45 J per kelvin.
    /// let c = Material::LithiumIon.capacitance_of_grams(50.0);
    /// assert!((c - 45.0).abs() < 1e-9);
    /// ```
    pub fn capacitance_of_grams(self, grams: f64) -> f64 {
        self.specific_heat().0 * grams
    }
}

/// Convective + radiative surface conductance to ambient (W/K) for a flat
/// surface of `area_cm2` square centimetres in still air.
///
/// Uses a combined film coefficient of ~14 W/(m²·K) (natural convection
/// ≈ 8 plus linearized radiation ≈ 6 at skin-adjacent temperatures),
/// which is why a whole phone only sheds ~0.3–0.4 W/K — the root cause of
/// the paper's skin-temperature problem.
pub fn surface_conductance(area_cm2: f64) -> f64 {
    const FILM_COEFF_W_PER_M2K: f64 = 14.0;
    FILM_COEFF_W_PER_M2K * area_cm2 * 1e-4
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn capacitance_scales_linearly_with_mass() {
        let one = Material::Silicon.capacitance_of_grams(1.0);
        let ten = Material::Silicon.capacitance_of_grams(10.0);
        assert!((ten - 10.0 * one).abs() < 1e-12);
    }

    #[test]
    fn phone_sized_surface_sheds_fraction_of_watt_per_kelvin() {
        // Nexus 4 face ≈ 13.4 cm × 6.9 cm ≈ 92 cm².
        let g = surface_conductance(92.0);
        assert!(g > 0.08 && g < 0.2, "surface conductance {g} W/K");
    }

    #[test]
    fn all_materials_have_positive_specific_heat() {
        let mats = [
            Material::Silicon,
            Material::Fr4,
            Material::LithiumIon,
            Material::Polycarbonate,
            Material::CoverGlass,
            Material::Aluminium,
            Material::Copper,
        ];
        for m in mats {
            assert!(m.specific_heat().0 > 0.0);
        }
    }
}
