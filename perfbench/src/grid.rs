//! `fig2_grid`: the registry's `fig2` experiment — the 13 Table-4
//! profiles at their default lengths × the 3 Table-3 configurations —
//! run through `ExperimentSpec::run` over a warm trace store and an
//! empty cell cache on every iteration.

use crate::common::{
    decode_walk, fill_store, mix, repeat_setup, setup_layer_metrics, sim_counts, Digest, Outcome,
    Scratch, StoreFill, SETUP_REPS,
};
use crate::spans::{SpanId, Tracer};
use crate::stats::{mean, median};
use std::sync::Arc;
use std::time::Instant;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::parallel::par_map;
use zbp_sim::registry::{self, ExperimentSpec};
use zbp_sim::session::SimSession;
use zbp_sim::{CellCache, SimConfig, Simulator};
use zbp_support::json::FromJson;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, Trace, TraceStore};
use zbp_uarch::core::CoreResult;

/// Reads every cell of `session` back out of `cache`, in grid order, as
/// `(config name, result)`; `None` for a missing or unreadable cell.
pub fn cached_cells(session: &SimSession, cache: &CellCache) -> Vec<Option<(String, CoreResult)>> {
    session
        .cells()
        .iter()
        .map(|cell| {
            let json = cache.load(&cell.key)?;
            let core = CoreResult::from_json(&json).ok()?;
            Some((cell.config.clone(), core))
        })
        .collect()
}

/// Times `cache.load` for every cell of `session` and `store` of the
/// same entries into a scratch cache (spans `sim.cache.load` and
/// `sim.cache.store`). Returns the cells that failed to load.
pub fn probe_cache(
    session: &SimSession,
    cache: &CellCache,
    scratch_cache: &CellCache,
    tracer: &Tracer,
    parent: SpanId,
) -> u64 {
    let mut missing = 0;
    for cell in session.cells() {
        match tracer.span("sim.cache.load", parent, |_| cache.load(&cell.key)) {
            Some(json) => {
                tracer.span("sim.cache.store", parent, |_| scratch_cache.store(&cell.key, &json))
            }
            None => missing += 1,
        }
    }
    missing
}

/// Runs one fig2 grid into a fresh cell cache and checks it. Returns the
/// wall time of `spec.run`, the per-cell renderings and the cells.
fn grid_iteration(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    scratch: &Scratch,
    tracer: &Tracer,
    out: &mut Outcome,
) -> (f64, Vec<String>, Vec<(String, CoreResult)>) {
    let dir = scratch.fresh("cells");
    let cache = CellCache::at(&dir);
    let t = Instant::now();
    let run = tracer.span("sim.registry.run", SpanId::NONE, |_| spec.run(opts, &cache));
    let wall = t.elapsed().as_secs_f64();
    let check = tracer.begin("bench.check", SpanId::NONE);
    let session = spec.grid_session(opts).expect("fig2 is a grid experiment");
    let cells = cached_cells(&session, &cache);
    out.attempted += cells.len() as u64;
    let expected_cells = cells.len() as u64;
    if run.manifest.cells != expected_cells || run.manifest.cache_hits != 0 {
        out.fail(format!(
            "fig2 manifest reports {} cells / {} cache hits; expected {expected_cells} / 0",
            run.manifest.cells, run.manifest.cache_hits
        ));
    }
    if run.manifest.trace_store_misses != Some(0) {
        out.fail(format!(
            "fig2 missed the warm trace store ({:?} misses): set-up leaked into the timed run",
            run.manifest.trace_store_misses
        ));
    }
    let lens: Vec<u64> = run.manifest.trace_lens.iter().map(|(_, l)| *l).collect();
    let configs = SimConfig::table3().len();
    let mut rendered = Vec::new();
    let mut found = Vec::new();
    for (i, cell) in cells.into_iter().enumerate() {
        match cell {
            Some((config, core)) if core.instructions == lens[i / configs] && core.cycles > 0 => {
                rendered.push(zbp_support::json::to_string(&core));
                found.push((config, core));
            }
            Some((config, core)) => {
                out.failed += 1;
                out.fail(format!(
                    "cell {i} ({config}) replayed {} instructions in {} cycles; expected {}",
                    core.instructions,
                    core.cycles,
                    lens[i / configs]
                ));
                rendered.push(String::new());
            }
            None => {
                out.failed += 1;
                out.fail(format!("cell {i} missing from the cell cache after the run"));
                rendered.push(String::new());
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    tracer.end(check);
    (wall, rendered, found)
}

/// Grid seeds per run, derived from the workload seed. How long a grid
/// takes depends on its seed (one seed's grid ran 20% slower than
/// another's on the same host), so each run cycles through several
/// seeds' grids and the seed's share of the spread between runs falls.
/// Set-up fills one store per seed, so these are also its repetitions.
pub const GRID_SEEDS: usize = SETUP_REPS;

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let scratch = Scratch::new("fig2_grid")?;
    let spec = registry::find("fig2").expect("fig2 is registered");
    let profiles = WorkloadProfile::all_table4();
    // Seeds stay below 2^53 so the manifest's JSON number keeps them.
    let seeds: Vec<u64> = (0..GRID_SEEDS as u64).map(|i| mix(seed, i) >> 11).collect();

    let mut grids = Vec::new();
    let (setup_s, _) = repeat_setup(GRID_SEEDS, |rep| {
        let opts = ExperimentOptions { seed: seeds[rep], ..ExperimentOptions::default() };
        let dir = scratch.fresh("traces");
        let fill =
            tracer.span("setup", SpanId::NONE, |id| fill_store(&profiles, &opts, &dir, tracer, id));
        grids.push((ExperimentOptions { trace_store: Arc::clone(&fill.store), ..opts }, fill));
    });
    let configs = SimConfig::table3();
    let simulated = grids[0].1.instructions * configs.len() as u64;

    // Timed iterations: each is a whole fig2 run into an empty cache,
    // in whole cycles over the seeds so each weighs the same.
    let stores_before: Vec<_> = grids.iter().map(|(_, fill)| fill.store.stats()).collect();
    let mut walls = Vec::new();
    let mut first_walls = Vec::new();
    let mut reference: Vec<Option<Vec<String>>> = vec![None; grids.len()];
    let mut cells = vec![Vec::new(); grids.len()];
    let t_loop = Instant::now();
    while walls.is_empty() || t_loop.elapsed().as_secs_f64() < seconds as f64 {
        for (g, (opts, _)) in grids.iter().enumerate() {
            let (wall, rendered, found) = grid_iteration(spec, opts, &scratch, tracer, &mut out);
            walls.push(wall);
            if g == 0 {
                first_walls.push(wall);
            }
            match &reference[g] {
                None => reference[g] = Some(rendered),
                Some(first) => {
                    let diverged = first.iter().zip(&rendered).filter(|(a, b)| a != b).count();
                    if diverged > 0 {
                        out.failed += diverged as u64;
                        out.fail(format!("{diverged} cells differ between identical grid runs"));
                    }
                }
            }
            cells[g] = found;
        }
    }
    let (mut hits, mut misses) = (0, 0);
    for ((_, fill), before) in grids.iter().zip(stores_before) {
        let delta = fill.store.stats().since(before);
        hits += delta.hits;
        misses += delta.misses;
    }

    let mut digest = Digest::new();
    for grid in &cells {
        digest.add_cells(grid);
    }
    out.note("sim_digest", digest.hex());
    out.note("grid_seeds", format!("{seeds:?}"));
    out.note("grid_walls_s", format!("{walls:.3?}"));
    out.note("grid_simulated_instructions", simulated);
    // Work over the whole measured phase: on a host whose speed swings
    // from grid to grid, the mean of a few grids is steadier than their
    // median.
    out.e2e("throughput_mips", simulated as f64 / mean(&walls) / 1e6, "Minstr/s");
    out.e2e("setup_s", setup_s, "s");

    // The traced probes run on the first seed's grid.
    let (opts, fill) = &grids[0];
    if tracer.enabled() {
        let rows = spec_probe(spec, opts, &scratch, tracer, &mut out);
        layer_metrics(&mut out, tracer, &rows, fill);
        out.layer("trace.store.hits", hits as f64, "count");
        out.layer("trace.store.misses", misses as f64, "count");
        out.layer("sim.cache.hit_ratio", 0.0, "ratio");
        for (name, value, unit) in sim_counts(&cells[0]) {
            out.layer(name, value, unit);
        }
        out.layer("bench.span_coverage_pct", tracer.coverage_pct(), "%");
        // One more grid iteration with spans off, against the traced
        // iterations' mean on the same seed.
        let quiet = Tracer::new(false);
        let (untraced, _, _) = grid_iteration(spec, opts, &scratch, &quiet, &mut out);
        out.layer(
            "bench.trace_overhead_pct",
            100.0 * (mean(&first_walls) - untraced) / untraced,
            "%",
        );
        let registry_ms = median(&tracer.durations_ms("sim.registry.run"));
        let cached_ms = tracer.total_ms("sim.session.run_cached");
        out.layer("sim.registry.run_ms", registry_ms, "ms");
        out.layer("sim.session.run_cached_ms", cached_ms, "ms");
        out.layer("sim.registry.post_ms", registry_ms - cached_ms, "ms");
        out.absent(
            &[
                "uarch.sampled.ns_per_instr",
                "uarch.windows.ns_per_replayed_instr",
                "sim.simpoint.plan_ms",
                "sim.simpoint.replayed_pct",
                "sim.sampling.measured_pct",
                "sim.sampling.cpi_err_pct",
                "sim.simpoint.cpi_err_pct",
            ],
            "fig2_grid runs no estimator (see the estimators workload)",
        );
        out.absent(
            &crate::serve_mix::SERVE_LAYER_METRICS,
            "fig2_grid starts no daemon (see serve_mix)",
        );
    }
    Ok(out)
}

/// Per-row probe results, in grid order.
struct RowProbe {
    instructions: u64,
    decoded: u64,
    mismatches: Vec<String>,
}

/// The traced-only probes: `run_cached` on its own, the cell-cache
/// load/store costs, and per row a bare decode walk, the lane kernel
/// and per-column replay of every configuration — asserting lanes and
/// columns agree with the cells the timed run stored.
fn spec_probe(
    spec: &ExperimentSpec,
    opts: &ExperimentOptions,
    scratch: &Scratch,
    tracer: &Tracer,
    out: &mut Outcome,
) -> Vec<RowProbe> {
    let session = spec.grid_session(opts).expect("fig2 is a grid experiment");
    let dir = scratch.fresh("cells");
    let cache = CellCache::at(&dir);
    let (grid, _) =
        tracer.span("sim.session.run_cached", SpanId::NONE, |_| session.run_cached(&cache));
    let scratch_dir = scratch.fresh("cells");
    let scratch_cache = CellCache::at(&scratch_dir);
    let missing = tracer.span("probe.cache", SpanId::NONE, |id| {
        probe_cache(&session, &cache, &scratch_cache, tracer, id)
    });
    if missing > 0 {
        out.fail(format!("{missing} cells missing from the run_cached cache"));
    }

    let configs = SimConfig::table3();
    let columns: Vec<&SimConfig> = configs.iter().collect();
    let sources = spec.sources(opts);
    let store: &TraceStore = &opts.trace_store;
    let rows = tracer.span("probe.rows", SpanId::NONE, |id| {
        par_map(&sources, |source: &WorkloadSource| {
            let len = opts.len_for_source(source);
            let key = source.store_key(opts.seed, len);
            let compact = tracer
                .span("trace.store.load", id, |_| store.load(&key, CompactParts::default()))
                .unwrap_or_else(|_| panic!("{} missing from the warm store", source.name()));
            let decoded = tracer.span("trace.compact.decode", id, |_| decode_walk(&compact));
            let lanes = tracer.span("uarch.lanes", id, |_| {
                Simulator::run_configs_compact_lanes(&columns, &compact)
            });
            let mut mismatches = Vec::new();
            for (c, (config, lane)) in configs.iter().zip(&lanes).enumerate() {
                let column = tracer.span(&format!("uarch.column.{}", column_tag(c)), id, |_| {
                    Simulator::run_config_compact(config, &compact)
                });
                let cell = grid.result(source.name(), &config.name);
                if lane.core != column.core || column.core != cell.core {
                    mismatches.push(format!("{} / {}", source.name(), config.name));
                }
            }
            RowProbe { instructions: compact.len(), decoded, mismatches }
        })
    });
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&scratch_dir);
    for row in &rows {
        if row.decoded != row.instructions {
            out.fail(format!(
                "decode walk saw {} of {} instructions",
                row.decoded, row.instructions
            ));
        }
        for m in &row.mismatches {
            out.failed += 1;
            out.fail(format!("lane, per-column and cached results differ on {m}"));
        }
    }
    out.attempted += (rows.len() * configs.len()) as u64;
    rows
}

fn column_tag(index: usize) -> &'static str {
    ["no_btb2", "btb2", "large_btb1"][index]
}

fn layer_metrics(out: &mut Outcome, tracer: &Tracer, rows: &[RowProbe], fill: &StoreFill) {
    let trace_instrs: u64 = rows.iter().map(|r| r.instructions).sum();
    let per = |ns: u64, n: u64| ns as f64 / n.max(1) as f64;
    setup_layer_metrics(out, tracer, fill, SETUP_REPS);
    out.layer("trace.store.load_ms", tracer.mean_ms("trace.store.load"), "ms");
    out.layer(
        "trace.compact.decode_ns_per_instr",
        per(tracer.total_ns("trace.compact.decode"), trace_instrs),
        "ns/instr",
    );
    let lanes_ns = tracer.total_ns("uarch.lanes");
    let columns: Vec<u64> =
        (0..3).map(|c| tracer.total_ns(&format!("uarch.column.{}", column_tag(c)))).collect();
    out.layer("uarch.lanes.ns_per_instr", per(lanes_ns, 3 * trace_instrs), "ns/instr");
    out.layer(
        "uarch.lanes.batching_gain",
        columns.iter().sum::<u64>() as f64 / lanes_ns.max(1) as f64,
        "ratio",
    );
    for (c, ns) in columns.iter().enumerate() {
        out.layer(
            &format!("uarch.column.{}.ns_per_instr", column_tag(c)),
            per(*ns, trace_instrs),
            "ns/instr",
        );
    }
    out.layer(
        "predictor.btb2.ns_per_instr",
        per(columns[1], trace_instrs) - per(columns[0], trace_instrs),
        "ns/instr",
    );
    out.layer("sim.cache.load_us", 1e3 * tracer.mean_ms("sim.cache.load"), "us");
    out.layer("sim.cache.store_us", 1e3 * tracer.mean_ms("sim.cache.store"), "us");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_digest_is_stable_across_two_in_process_runs() {
        let scratch = Scratch::new("test-digest").expect("scratch directory");
        let spec = registry::find("fig2").expect("fig2 is registered");
        let tracer = Tracer::new(false);
        let mut opts = ExperimentOptions::quick(20_000, 3);
        let fill = fill_store(
            &WorkloadProfile::all_table4(),
            &opts,
            &scratch.fresh("traces"),
            &tracer,
            SpanId::NONE,
        );
        opts.trace_store = Arc::clone(&fill.store);
        let mut out = Outcome::default();
        let mut digest = || {
            let (_, _, cells) = grid_iteration(spec, &opts, &scratch, &tracer, &mut out);
            let mut d = Digest::new();
            d.add_cells(&cells);
            d
        };
        let (first, second) = (digest(), digest());
        assert_eq!(first, second);
        assert!(out.errors.is_empty(), "{:?}", out.errors);
        assert_eq!((out.attempted, out.failed), (78, 0));
    }
}
