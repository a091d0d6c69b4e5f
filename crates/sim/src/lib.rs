//! Trace-driven simulation harness for the bulk-preload reproduction.
//!
//! Combines the workload profiles of [`zbp_trace`], the prediction
//! hierarchy of [`zbp_predictor`] and the front-end model of
//! [`zbp_uarch`] into runnable experiments:
//!
//! * [`config::SimConfig`] — the paper's three simulated configurations
//!   (Table 3) plus every knob the sensitivity studies sweep;
//! * [`runner::Simulator`] — replay one workload under one configuration;
//! * [`session::SimSession`] — batch a workload × configuration grid
//!   through one parallel fan-out and query the results by name;
//! * [`sweep`] — sweep-grid columns and their per-variant scoring;
//! * [`experiments`] — typed results + post-processing for every paper
//!   table/figure, plus the run options and flags the front ends share;
//! * [`registry`] — the declarative experiment registry `zbp-cli` and
//!   `zbp-serve` resolve experiments through, with provenance
//!   manifests;
//! * [`cache`] — the content-addressed per-cell result cache that makes
//!   interrupted grid runs resumable;
//! * [`simpoint`] — SimPoint-style phase selection: cluster BBV
//!   intervals, replay only weighted representatives, and report the
//!   measured error against full replay;
//! * [`fuzz`] — the deterministic differential fuzz harness behind
//!   `zbp-cli fuzz`, cross-checking every replay path per random cell;
//! * [`report`] — CPI-improvement math and fixed-width table rendering;
//! * [`reportgen`] — render saved experiment artifacts into REPORT.md.

#![warn(missing_docs)]

pub mod cache;
pub mod config;
pub mod experiments;
pub mod fuzz;
pub mod parallel;
pub mod registry;
pub mod report;
pub mod reportgen;
pub mod runner;
pub mod session;
pub mod simpoint;
pub mod sweep;

pub use cache::CellCache;
pub use config::SimConfig;
pub use registry::{ExperimentRun, ExperimentSpec, Manifest};
pub use runner::{SimResult, Simulator};
pub use session::{SessionGrid, SimSession};
