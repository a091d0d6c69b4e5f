//! `estimators`: the two cheap CPI estimators over the fig2 traces.
//! SimPoint weighted replay (`simpoint::plan` + `weighted_estimate`,
//! default `SimPointSpec`, BTB2 configuration) and 1-in-4 windowed
//! sampling on each Table-3 configuration, one column at a time with
//! no lanes.
//!
//! The timed passes run on the traces of the workload seed. The traced
//! run also scores accuracy, on the repository's reference inputs
//! (default seed, default lengths) against their full-replay truth: an
//! estimator's error is a property of its inputs, so only fixed inputs
//! make it comparable from run to run.

use crate::common::{
    decode_walk, fill_store, repeat_setup, setup_layer_metrics, sim_counts, Digest, Outcome,
    Scratch, SETUP_REPS,
};
use crate::spans::{SpanId, Tracer};
use crate::stats::mean;
use std::sync::Arc;
use std::time::Instant;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::parallel::par_map;
use zbp_sim::registry;
use zbp_sim::session::SessionGrid;
use zbp_sim::simpoint::{self, SimPointSpec};
use zbp_sim::{SimConfig, Simulator};
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, Trace};
use zbp_uarch::core::{CoreResult, SampledResult, SamplingSpec};

/// Seed of the reference inputs accuracy is scored on: the
/// repository's default synthesis seed (`0xEC12`).
pub const REFERENCE_SEED: u64 = 0xEC12;

/// Instructions per sampled measure window (1-in-4 windows with half a
/// window of warm-up each, so 37.5% of every trace is modelled).
pub const SAMPLE_WINDOW: u64 = 25_000;

/// The CPI-error bound the project documents for both estimators, %.
/// Reported against, not asserted: SimPoint breaks it on some
/// workloads (a known defect, see the benchmark README).
pub const DOCUMENTED_ERR_BOUND_PCT: f64 = 10.0;

/// One workload row's estimator outputs.
struct RowEstimate {
    name: String,
    instructions: u64,
    intervals: usize,
    windows: usize,
    simpoint_cpi: f64,
    simpoint_replayed: u64,
    simpoint_text: String,
    sampled: Vec<SampledResult>,
}

fn estimate_row(
    source: &WorkloadSource,
    opts: &ExperimentOptions,
    configs: &[SimConfig],
    tracer: &Tracer,
    parent: SpanId,
) -> RowEstimate {
    let len = opts.len_for_source(source);
    let key = source.store_key(opts.seed, len);
    let compact = tracer
        .span("trace.store.load", parent, |_| opts.trace_store.load(&key, CompactParts::default()))
        .unwrap_or_else(|_| panic!("{} missing from the warm store", source.name()));
    let spec = SimPointSpec::default();
    let plan = tracer.span("sim.simpoint.plan", parent, |_| simpoint::plan(&compact, &spec));
    let btb2 = SimConfig::btb2_enabled();
    let est = tracer.span("uarch.windows", parent, |_| {
        simpoint::weighted_estimate(&btb2, &compact, &plan, spec.warmup)
    });
    let sampling = SamplingSpec::one_in(4, SAMPLE_WINDOW);
    let sampled = configs
        .iter()
        .map(|c| {
            tracer.span("uarch.sampled", parent, |_| {
                Simulator::run_config_compact_sampled(c, &compact, sampling)
            })
        })
        .collect();
    RowEstimate {
        name: source.name().to_string(),
        instructions: compact.len(),
        intervals: plan.intervals,
        windows: plan.windows.len(),
        simpoint_cpi: est.cpi,
        simpoint_replayed: est.replayed_instructions,
        simpoint_text: format!("{:?}|{:?}|{:?}", plan.windows, plan.weights, est.measures),
        sampled,
    }
}

fn err_pct(estimate: f64, truth: f64) -> f64 {
    100.0 * (estimate - truth).abs() / truth
}

/// Checks one pass's outputs: no SimPoint plan may replay every
/// interval, and sampled replay must cover every instruction. Returns
/// the pass's outputs rendered for the determinism digest.
fn check(rows: &[RowEstimate], configs: &[SimConfig], out: &mut Outcome) -> String {
    let mut text = String::new();
    for row in rows {
        out.attempted += 1 + configs.len() as u64;
        if row.windows >= row.intervals {
            out.failed += 1;
            out.fail(format!(
                "SimPoint replays all {} of {} intervals on {}: the estimate is vacuous",
                row.windows, row.intervals, row.name
            ));
        }
        text.push_str(&row.simpoint_text);
        for (config, sampled) in configs.iter().zip(&row.sampled) {
            if sampled.total_instructions != row.instructions || sampled.measured_instructions == 0
            {
                out.failed += 1;
                out.fail(format!(
                    "sampled replay of {} / {} covered {} of {} instructions ({} measured)",
                    row.name,
                    config.name,
                    sampled.total_instructions,
                    row.instructions,
                    sampled.measured_instructions
                ));
            }
            text.push_str(&format!("{sampled:?}"));
        }
    }
    text
}

/// Per-cell sampling errors and per-workload SimPoint errors against
/// the truth grid, %.
fn errors(
    rows: &[RowEstimate],
    truth: &SessionGrid,
    configs: &[SimConfig],
) -> (Vec<f64>, Vec<f64>) {
    let btb2 = SimConfig::btb2_enabled().name;
    let simpoint =
        rows.iter().map(|r| err_pct(r.simpoint_cpi, truth.cpi(&r.name, &btb2))).collect();
    let sampling = rows
        .iter()
        .flat_map(|r| {
            configs
                .iter()
                .zip(&r.sampled)
                .map(|(c, s)| err_pct(s.cpi(), truth.cpi(&r.name, &c.name)))
        })
        .collect();
    (sampling, simpoint)
}

fn max(errors: &[f64]) -> f64 {
    errors.iter().copied().fold(0.0, f64::max)
}

/// One estimator pass over every workload, rows fanned out over the
/// worker pool. Callers order `sources` longest first, so the fan-out
/// always pairs the longest rows first and ends on short ones, whichever
/// thread happens to finish first.
fn pass(
    sources: &[WorkloadSource],
    opts: &ExperimentOptions,
    configs: &[SimConfig],
    tracer: &Tracer,
    parent: SpanId,
) -> Vec<RowEstimate> {
    par_map(sources, |s| estimate_row(s, opts, configs, tracer, parent))
}

/// Scores both estimators on the reference inputs against their
/// full-replay truth (the fig2 grid through the session's lane path):
/// fills the reference store, runs the truth grid and one estimator
/// pass, and reports the errors. Returns the scored rows and the truth
/// cells.
fn accuracy(
    sources: &[WorkloadSource],
    configs: &[SimConfig],
    scratch: &Scratch,
    tracer: &Tracer,
    parent: SpanId,
    out: &mut Outcome,
) -> (Vec<RowEstimate>, Vec<(String, CoreResult)>) {
    let spec = registry::find("fig2").expect("fig2 is registered");
    let mut reference = ExperimentOptions { seed: REFERENCE_SEED, ..ExperimentOptions::default() };
    // Untraced fill: the set-up layer metrics count the run's own fills.
    let fill = fill_store(
        &WorkloadProfile::all_table4(),
        &reference,
        &scratch.fresh("traces"),
        &Tracer::new(false),
        SpanId::NONE,
    );
    reference.trace_store = Arc::clone(&fill.store);
    let truth = tracer.span("estimators.truth", parent, |_| {
        spec.grid_session(&reference).expect("fig2 is a grid experiment").run()
    });
    let scored = pass(sources, &reference, configs, tracer, parent);
    check(&scored, configs, out);
    let (sampling_errors, simpoint_errors) = errors(&scored, &truth, configs);
    out.note("accuracy_inputs", format!("reference seed {REFERENCE_SEED:#x}, default lengths"));
    out.note("sampling_mean_cpi_err_pct", format!("{:.3}", mean(&sampling_errors)));
    out.note("simpoint_mean_cpi_err_pct", format!("{:.3}", mean(&simpoint_errors)));
    for (row, e) in scored.iter().zip(&simpoint_errors) {
        if *e > DOCUMENTED_ERR_BOUND_PCT {
            out.note(
                "simpoint_over_documented_bound",
                format!("{}: {e:.2}% (bound {DOCUMENTED_ERR_BOUND_PCT}%; known defect)", row.name),
            );
        }
    }
    out.layer("sim.sampling.cpi_err_pct", max(&sampling_errors), "%");
    out.layer("sim.simpoint.cpi_err_pct", max(&simpoint_errors), "%");
    let truth_cells = sources
        .iter()
        .flat_map(|source| {
            configs.iter().map(|config| {
                (config.name.clone(), truth.result(source.name(), &config.name).core.clone())
            })
        })
        .collect();
    (scored, truth_cells)
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let scratch = Scratch::new("estimators")?;
    let spec = registry::find("fig2").expect("fig2 is registered");
    let profiles = WorkloadProfile::all_table4();
    let mut opts = ExperimentOptions { seed, ..ExperimentOptions::default() };
    let configs = SimConfig::table3().to_vec();

    let (setup_s, fill) = repeat_setup(SETUP_REPS, |_| {
        let dir = scratch.fresh("traces");
        tracer.span("setup", SpanId::NONE, |id| fill_store(&profiles, &opts, &dir, tracer, id))
    });
    opts.trace_store = Arc::clone(&fill.store);
    let mut sources = spec.sources(&opts);
    sources.sort_by_key(|s| std::cmp::Reverse(s.default_len()));

    let store_before = fill.store.stats();
    let mut walls = Vec::new();
    let mut first: Option<String> = None;
    let mut rows = Vec::new();
    let t_loop = Instant::now();
    while walls.is_empty() || t_loop.elapsed().as_secs_f64() < seconds as f64 {
        let t = Instant::now();
        rows = tracer.span("estimators.pass", SpanId::NONE, |id| {
            pass(&sources, &opts, &configs, tracer, id)
        });
        walls.push(t.elapsed().as_secs_f64());
        let text = tracer.span("bench.check", SpanId::NONE, |_| check(&rows, &configs, &mut out));
        match &first {
            None => first = Some(text),
            Some(f) if *f != text => {
                out.failed += rows.len() as u64;
                out.fail("estimator outputs differ between identical passes".into());
            }
            Some(_) => {}
        }
    }
    let store_delta = fill.store.stats().since(store_before);

    let mut digest = Digest::new();
    digest.add(first.as_deref().unwrap_or_default());
    out.note("sim_digest", digest.hex());
    out.note("estimator_pass_walls_s", format!("{walls:.3?}"));

    let trace_instrs: u64 = rows.iter().map(|r| r.instructions).sum();
    // SimPoint covers every trace once, sampling once per configuration.
    let covered = trace_instrs * (1 + configs.len() as u64);
    // Work over the whole measured phase: on a host whose speed swings
    // from pass to pass, the mean of a few passes is steadier than
    // their median.
    out.e2e("throughput_mips", covered as f64 / mean(&walls) / 1e6, "Minstr/s");
    out.e2e("setup_s", setup_s, "s");

    if tracer.enabled() {
        let passes = walls.len() as f64;
        setup_layer_metrics(&mut out, tracer, &fill, SETUP_REPS);
        let (scored, truth_cells) = tracer.span("estimators.accuracy", SpanId::NONE, |id| {
            accuracy(&sources, &configs, &scratch, tracer, id, &mut out)
        });
        out.layer("trace.store.load_ms", tracer.mean_ms("trace.store.load"), "ms");
        out.layer("trace.store.hits", store_delta.hits as f64, "count");
        out.layer("trace.store.misses", store_delta.misses as f64, "count");
        let decoded: u64 = tracer.span("probe.decode", SpanId::NONE, |id| {
            par_map(&sources, |source| {
                let key = source.store_key(opts.seed, opts.len_for_source(source));
                opts.trace_store
                    .load(&key, CompactParts::default())
                    .map_or(0, |c| tracer.span("trace.compact.decode", id, |_| decode_walk(&c)))
            })
            .iter()
            .sum()
        });
        if decoded != trace_instrs {
            out.fail(format!("decode walk saw {decoded} of {trace_instrs} instructions"));
        }
        out.layer(
            "trace.compact.decode_ns_per_instr",
            tracer.total_ns("trace.compact.decode") as f64 / trace_instrs as f64,
            "ns/instr",
        );
        // The reference pass ran the same calls; per-instruction costs
        // count it alongside the timed passes.
        let all_passes = passes + 1.0;
        out.layer(
            "uarch.sampled.ns_per_instr",
            tracer.total_ns("uarch.sampled") as f64
                / (all_passes * (configs.len() as u64 * trace_instrs) as f64),
            "ns/instr",
        );
        let replayed: u64 = rows.iter().map(|r| r.simpoint_replayed).sum();
        let reference_replayed: u64 = scored.iter().map(|r| r.simpoint_replayed).sum();
        out.layer(
            "uarch.windows.ns_per_replayed_instr",
            tracer.total_ns("uarch.windows") as f64
                / (passes * replayed as f64 + reference_replayed as f64).max(1.0),
            "ns/instr",
        );
        out.layer("sim.simpoint.plan_ms", tracer.mean_ms("sim.simpoint.plan"), "ms");
        out.layer("sim.simpoint.replayed_pct", 100.0 * replayed as f64 / trace_instrs as f64, "%");
        let (measured, total) =
            rows.iter().flat_map(|r| &r.sampled).fold((0u64, 0u64), |(m, t), s| {
                (m + s.measured_instructions, t + s.total_instructions)
            });
        out.layer("sim.sampling.measured_pct", 100.0 * measured as f64 / total.max(1) as f64, "%");
        for (name, value, unit) in sim_counts(&truth_cells) {
            out.layer(name, value, unit);
        }
        out.layer("bench.span_coverage_pct", tracer.coverage_pct(), "%");
        let quiet = Tracer::new(false);
        let t = Instant::now();
        let _ = pass(&sources, &opts, &configs, &quiet, SpanId::NONE);
        let untraced = t.elapsed().as_secs_f64();
        out.layer("bench.trace_overhead_pct", 100.0 * (mean(&walls) - untraced) / untraced, "%");
        out.absent(
            &[
                "uarch.lanes.ns_per_instr",
                "uarch.lanes.batching_gain",
                "uarch.column.no_btb2.ns_per_instr",
                "uarch.column.btb2.ns_per_instr",
                "uarch.column.large_btb1.ns_per_instr",
                "predictor.btb2.ns_per_instr",
            ],
            "estimators replay no full-length lanes or columns (see fig2_grid)",
        );
        out.absent(
            &[
                "sim.registry.run_ms",
                "sim.session.run_cached_ms",
                "sim.registry.post_ms",
                "sim.cache.load_us",
                "sim.cache.store_us",
                "sim.cache.hit_ratio",
            ],
            "estimators bypass the registry run and the cell cache",
        );
        out.absent(
            &crate::serve_mix::SERVE_LAYER_METRICS,
            "estimators start no daemon (see serve_mix)",
        );
    }
    Ok(out)
}
