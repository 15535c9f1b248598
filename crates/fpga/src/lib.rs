//! # diablo-fpga — FPGA resource and cost modeling
//!
//! The hardware-planning half of DIABLO that we cannot physically build:
//! parametric resource estimators for the FAME model families (calibrated
//! to reproduce the paper's Table 2 exactly), device capacity checks for
//! the BEE3's Virtex-5 LX155T and a projected 20 nm part, and system-level
//! planning — boards, DRAM, power, dollars — including the paper's
//! comparison against the CAPEX/OPEX of the real warehouse-scale array.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod models;
pub mod resources;
pub mod system;

pub use models::{big_switch_model, RackFpgaDesign};
pub use resources::{Device, Resources};
pub use system::{Generation, RealArrayCost, SystemPlan};
