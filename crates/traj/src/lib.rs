//! Trajectory substrate for the PathRank reproduction.
//!
//! The paper uses 180 million GPS records collected from 183 vehicles in
//! North Jutland — proprietary data we cannot obtain. This crate replaces it
//! with a simulator whose *statistical structure* matches what PathRank
//! learns from:
//!
//! * [`preference`] — every synthetic driver owns a hidden routing cost
//!   (a blend of distance, travel time, road-class affinity and per-edge
//!   familiarity noise), so drivers systematically prefer paths that are
//!   **neither shortest nor fastest** — the exact phenomenon motivating the
//!   paper;
//! * [`simulator`] — a fleet of such drivers makes trips between random
//!   origin/destination pairs; each trip emits a noisy GPS trace at a fixed
//!   sampling interval;
//! * [`mapmatch`] — an HMM map matcher (Newson & Krumm, 2009 style:
//!   Gaussian emission by projection distance, detour-penalising
//!   transitions, Viterbi decoding) recovers the driven path from the noisy
//!   trace;
//! * [`dataset`] — assembles matched trips into the train/test trajectory
//!   path sets PathRank consumes.

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]

pub mod dataset;
pub mod gps;
pub mod mapmatch;
pub mod preference;
pub mod simulator;

pub use dataset::TrajectoryDataset;
pub use gps::{GpsPoint, GpsTrace};
pub use preference::DriverPreference;
pub use simulator::{simulate_fleet, SimulationConfig, Trip};
