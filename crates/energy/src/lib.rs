//! Power and energy models for WattDB-RS.
//!
//! Substitutes the paper's wall-socket power meter: node, drive, and switch
//! power draws are computed from measured (virtual-time) utilization using
//! the calibrated model of §3.1, and integrated into Joules by the
//! [`EnergyMeter`]. Also provides energy-proportionality metrics matching
//! the paper's motivation (§1) and a [`scorecard`] that grades an
//! exported telemetry timeline against the ideal `P(u) = u · P_peak`
//! line.

pub mod meter;
pub mod power;
pub mod proportionality;
pub mod scorecard;

pub use meter::{EnergyMeter, PowerSample};
pub use power::{NodeState, PowerModel};
pub use proportionality::{proportionality_index_rated, UtilPower};
pub use scorecard::{score_export, score_jsonl, PhaseScore, PhaseSpan, Scorecard};
