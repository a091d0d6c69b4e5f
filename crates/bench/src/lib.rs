//! Shared plumbing for the `cargo bench` targets.
//!
//! The crate's benches are measurements, not figure reproductions:
//! `structures` and `hotpath` time the building blocks and replay inner
//! loops, and `throughput` times the figure-2 grid end to end. Paper
//! tables and figures regenerate through the experiment registry
//! (`zbp-cli experiment run <id>`).
//!
//! Environment knobs are the [`ExperimentOptions::from_env`] ones,
//! parsed strictly — a malformed value panics instead of silently
//! measuring the wrong grid.

#![warn(missing_docs)]

use std::time::Instant;
use zbp_sim::experiments::ExperimentOptions;

/// Prints the standard benchmark banner and returns parsed options.
///
/// Panics on malformed environment values — see
/// [`ExperimentOptions::from_env_or_panic`].
pub fn start(experiment: &str, paper_ref: &str) -> (ExperimentOptions, Instant) {
    let opts = ExperimentOptions::from_env_or_panic();
    println!("==============================================================");
    println!("zbp reproduction — {experiment}");
    println!("paper reference: {paper_ref}");
    match opts.len {
        Some(l) => println!("trace length cap: {l} instructions (ZBP_TRACE_LEN)"),
        None => println!("trace length: per-profile defaults (full run)"),
    }
    println!("seed: {:#x}", opts.seed);
    println!("==============================================================");
    (opts, Instant::now())
}

/// Prints the elapsed-time footer.
pub fn finish(started: Instant) {
    println!("\nelapsed: {:.1}s", started.elapsed().as_secs_f64());
}
