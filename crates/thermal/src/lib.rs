//! # usta-thermal — compact thermal RC-network simulator
//!
//! This crate is the thermal substrate for the USTA reproduction
//! (Egilmez et al., *User-Specific Skin Temperature-Aware DVFS for
//! Smartphones*, DATE 2015). It models a device as a lumped
//! resistance–capacitance (RC) network: each physical component (CPU die,
//! package, board, battery, back cover, screen) is a thermal node with a
//! heat capacity, nodes exchange heat through thermal conductances, and
//! selected nodes leak heat to the ambient.
//!
//! The network integrates the standard compact-model ODE
//!
//! ```text
//! C_i · dT_i/dt = Σ_j G_ij (T_j − T_i) + G_amb,i (T_amb − T_i) + P_i
//! ```
//!
//! exactly for inputs (power and ambient) held constant over each step:
//! every step is one precomputed mat-vec, `T[k+1] = Φ·T[k] + Γ·u[k]`,
//! the zero-order-hold discretization of the ODE (see [`network`]).
//!
//! ## Quick start
//!
//! ```
//! use usta_thermal::{Celsius, ThermalNetworkBuilder};
//!
//! # fn main() -> Result<(), usta_thermal::ThermalError> {
//! let mut builder = ThermalNetworkBuilder::new(Celsius(25.0));
//! let die = builder.add_node("die", 2.0, Celsius(25.0))?;
//! let case = builder.add_node("case", 30.0, Celsius(25.0))?;
//! builder.couple(die, case, 1.5)?;
//! builder.link_ambient(case, 0.3)?;
//! let mut net = builder.build()?;
//!
//! net.set_power(die, 2.0); // 2 W into the die
//! net.run(60.0);           // simulate one minute
//! assert!(net.temperature(die) > net.temperature(case));
//! assert!(net.temperature(case) > Celsius(25.0));
//! # Ok(())
//! # }
//! ```
//!
//! The [`topology`] module steps a whole device ([`DeviceThermalModel`]);
//! the [`phone`] module provides the calibrated smartphone parameters
//! ([`PhoneThermalParams`]) whose back-cover ("skin") and screen nodes
//! play the role of the paper's external thermistors.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod analysis;
pub mod error;
pub mod materials;
pub mod network;
pub mod phone;
pub mod topology;
pub mod units;
mod zoh;

pub use error::ThermalError;
pub use network::{NodeId, ThermalNetwork, ThermalNetworkBuilder};
pub use phone::{HandContact, PhoneNode, PhoneThermalParams};
pub use topology::{DeviceThermalModel, HeatLoad, NodeRoles, ThermalNode, ThermalTopology};
pub use units::Celsius;
