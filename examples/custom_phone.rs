//! Build a *custom* device: a tablet-sized slab with a bigger battery
//! and more surface area, then check how its skin temperature compares
//! with the phone under the same stress — the public thermal API is not
//! hard-wired to the Nexus 4.
//!
//! ```sh
//! cargo run --release -p usta-sim --example custom_phone
//! ```

use usta_thermal::{DeviceThermalModel, HeatLoad};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The calibrated phone, straight from the catalog.
    let topology = usta_device::by_id("nexus4")
        .ok_or("nexus4 is built in")?
        .thermal
        .topology();
    let mut phone = DeviceThermalModel::new(topology.clone())?;

    // A tablet: ~3x the thermal mass, ~2.2x the radiating surface.
    let mut tablet_topology = topology.clone();
    for node in &mut tablet_topology.nodes {
        node.capacitance *= 3.0;
    }
    for (_, g) in &mut tablet_topology.ambient_links {
        *g *= 2.2;
    }
    let mut tablet = DeviceThermalModel::new(tablet_topology)?;

    // Same sustained gaming load on both.
    let load = HeatLoad::single(2.5, 1.4, 1.0, 0.3, 0.4);
    phone.set_heat(load.clone());
    tablet.set_heat(load);

    println!("minutes | phone skin °C | tablet skin °C");
    println!("{}", "-".repeat(44));
    for minute in 1..=30 {
        phone.step(60.0);
        tablet.step(60.0);
        if minute % 3 == 0 {
            println!(
                "{:>7} | {:>13.2} | {:>14.2}",
                minute,
                phone.skin_temperature().value(),
                tablet.skin_temperature().value(),
            );
        }
    }

    let back_mid = topology
        .node_index("back_mid")
        .ok_or("nexus4 has a back_mid node")?;
    let phone_ss = phone.steady_state()?[back_mid];
    println!(
        "\nphone steady-state skin would be {:.1}; the tablet's extra mass and \
         surface keep it {:.1} K cooler after half an hour.",
        phone_ss,
        phone.skin_temperature() - tablet.skin_temperature(),
    );
    Ok(())
}
