//! Parameter sweeps over the Table-4 workloads.
//!
//! Each sweep point is a predictor-configuration variant; its score is
//! the mean CPI improvement over the no-BTB2 baseline across all
//! workloads — exactly what Figures 5, 6 and 7 plot. A sweep is one
//! grid: [`sweep_configs`] lays out its columns (the shared baseline
//! plus one per variant) and [`points_from_grid`] scores them.

use crate::config::SimConfig;
use crate::report::mean;
use crate::session::SessionGrid;
use zbp_predictor::PredictorConfig;

/// Result of one sweep point.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepPoint {
    /// Variant label ("24k", "4 searches", ...).
    pub label: String,
    /// Mean CPI improvement over the baseline across all workloads (%).
    pub avg_improvement: f64,
    /// Per-workload improvements (%), in Table-4 order.
    pub per_trace: Vec<(String, f64)>,
}

/// Builds the configuration columns of a sweep grid: the shared no-BTB2
/// baseline first, then one BTB2 column per variant, named by its label.
pub fn sweep_configs(variants: &[(String, PredictorConfig)]) -> Vec<SimConfig> {
    let mut configs = vec![SimConfig::no_btb2()];
    configs.extend(variants.iter().map(|(label, cfg)| {
        SimConfig::btb2_enabled().named(label.clone()).with_predictor(cfg.clone())
    }));
    configs
}

/// Sweep post-processing: one [`SweepPoint`] per non-baseline column of
/// a [`sweep_configs`]-shaped grid (column 0 is the baseline).
pub fn points_from_grid(grid: &SessionGrid) -> Vec<SweepPoint> {
    let baseline = &grid.configs()[0];
    grid.configs()[1..]
        .iter()
        .map(|label| {
            let improvements: Vec<(String, f64)> = grid
                .workloads()
                .iter()
                .map(|w| (w.clone(), grid.improvement(w, label, baseline)))
                .collect();
            let avg = mean(&improvements.iter().map(|(_, i)| *i).collect::<Vec<f64>>());
            SweepPoint { label: label.clone(), avg_improvement: avg, per_trace: improvements }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SimSession;
    use zbp_trace::profile::WorkloadProfile;

    #[test]
    fn sweep_runs_each_variant_over_each_profile() {
        let profiles = vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()];
        let variants = vec![
            ("off".to_string(), PredictorConfig::no_btb2()),
            ("on".to_string(), PredictorConfig::zec12()),
        ];
        let configs = sweep_configs(&variants);
        assert_eq!(configs.len(), 3, "the shared baseline plus one column per variant");
        let grid =
            SimSession::new().seed(3).max_len(25_000).workloads(profiles).configs(configs).run();
        let points = points_from_grid(&grid);
        assert_eq!(points.len(), 2);
        assert_eq!(points[0].per_trace.len(), 2);
        // The "off" variant IS the baseline: ~0% improvement.
        assert!(points[0].avg_improvement.abs() < 1e-9, "off vs off must be 0");
        assert_eq!(points[1].label, "on");
    }
}

zbp_support::impl_json_struct!(SweepPoint { label, avg_improvement, per_trace });
