//! The use case of Chapter 3: collaborative environmental issue
//! reporting on top of the proof-of-location system.
//!
//! Users physically present somewhere file reports — oily spots on a
//! river, abandoned waste, holes in the road — that are only accepted
//! with a witness-attested location proof, and are rewarded when a
//! verifier validates them. Reports live on the DFS; the hypercube
//! indexes the verified ones per area, so the app can display everything
//! reported around a location (Fig. 3.2).
//!
//! [`simulation`] reimplements the paper's §4.3 test-suite: N automated
//! provers spread over the eight fixed areas, measuring per-user
//! deploy/attach interaction times and fees on each simulated network —
//! the raw series behind Figs. 5.2–5.5 and Tables 5.1–5.4.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub(crate) mod app;
pub(crate) mod report;
pub mod simulation;

pub use app::CrowdsenseApp;
pub use report::{Report, ReportCategory};
pub use simulation::{SimulationConfig, SimulationResults, UserMeasurement};
