//! Acceptance test for the compact replay path: every cell of the
//! registry's figure grids, replayed through the shared compact capture
//! and the decode-once lane kernel, must equal the reference
//! per-instruction replay of the workload's generator
//! (`Simulator::run_config`) bit-for-bit.

use zbp_sim::experiments::{self, ExperimentOptions};
use zbp_sim::registry;
use zbp_sim::sweep::sweep_configs;
use zbp_sim::{SimConfig, Simulator};

fn assert_grid_matches_the_oracle(id: &str, configs: Vec<SimConfig>) {
    let opts = ExperimentOptions::quick(12_000, 7);
    let spec = registry::find(id).expect("spec is registered");
    let grid = spec.grid_session(&opts).expect("spec is a grid").run();
    let names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
    assert_eq!(grid.configs(), names.as_slice(), "{id}: unexpected grid columns");
    let sources = spec.sources(&opts);
    assert!(sources.len() * configs.len() > 1, "{id}: grid must cover several cells");
    for source in &sources {
        let trace = source.build_with_len(opts.seed, opts.len_for_source(source));
        for config in &configs {
            let oracle = Simulator::run_config(config, &trace).core;
            let (w, c) = (source.name(), &config.name);
            assert_eq!(grid.result(w, c).core, oracle, "{id}: ({w}, {c}) diverged from the oracle");
        }
    }
}

#[test]
fn fig2_cells_match_the_generator_oracle() {
    assert_grid_matches_the_oracle("fig2", SimConfig::table3().to_vec());
}

#[test]
fn wrongpath_cells_match_the_generator_oracle() {
    assert_grid_matches_the_oracle("ablation_wrongpath", experiments::wrongpath_configs());
}

#[test]
fn fig5_cells_match_the_generator_oracle() {
    let variants = experiments::fig5_variants(&experiments::FIGURE5_SIZES);
    assert_grid_matches_the_oracle("fig5", sweep_configs(&variants));
}
