//! MIPS throughput harness: wall-clock of the figure-2 workload ×
//! configuration grid, split by pipeline stage.
//!
//! The paper's evaluation replays 13 large-footprint workloads across
//! many predictor configurations, so sweep throughput — simulated
//! instructions per second — gates how much of the design space we can
//! afford to explore. This harness times the figure-2 grid (13 workloads
//! × the 3 Table-3 configurations) four ways:
//!
//! * **staged** — one instrumented pass attributing time to capture
//!   (record form), compact encode from those records, the production
//!   compact capture straight off the generator (block emission,
//!   cross-checked against the record encode), compact run-batched
//!   replay (the default production path) and record per-instruction
//!   replay (the reference path), with both encodings'
//!   bytes-per-instruction;
//! * **shared** — the end-to-end generate-once grid with per-column
//!   replay (compact capture straight off the generator, every column
//!   walks the shared capture on its own);
//! * **lanes** — the decode-once lane-batched grid exactly as
//!   [`SimSession`] runs it by default: captures load from the warm
//!   trace store and one cursor walk per workload row feeds every
//!   configuration column;
//! * **regenerate** — the pre-sharing baseline: every cell re-synthesizes
//!   its workload from scratch (the per-cell generator walk).
//!
//! Results are printed as a table and written to `BENCH_throughput.json`
//! at the repository root (override with `ZBP_BENCH_OUT`) so the perf
//! trajectory is tracked in-tree; `scripts/bench_throughput.sh` also
//! appends each report to `BENCH_throughput_history.jsonl`.
//! `ZBP_TRACE_LEN` caps the per-workload instruction count (default
//! 1,000,000 — a throughput probe, not a figure reproduction).

use std::sync::{Arc, Mutex};
use std::time::Instant;
use zbp_bench::{finish, start};
use zbp_serve::{run_streaming, RunRequest, ServeState};
use zbp_sim::parallel::par_map;
use zbp_sim::registry::{self, git_revision};
use zbp_sim::report::render_table;
use zbp_sim::runner::{SimResult, Simulator};
use zbp_sim::simpoint::{self, SimPointSpec};
use zbp_sim::SimConfig;
use zbp_support::json::Json;
use zbp_trace::ingest::{write_external, ExtSite, EVENT_TAKEN};
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::{
    BranchKind, CompactParts, CompactTrace, ExternalTrace, MaterializedTrace, Trace, TraceStore,
    TraceStoreKey,
};
use zbp_uarch::core::SamplingSpec;

/// Default per-workload instruction cap when `ZBP_TRACE_LEN` is unset.
const DEFAULT_BENCH_LEN: u64 = 1_000_000;

/// Documented accuracy bound for the opt-in window sampler (percent):
/// the same ≤ 10% CPI-error envelope DESIGN.md and README.md state for
/// approximate replay. Asserted after measurement so a drift between
/// the bench's sampling parameters and the documented bound fails the
/// harness instead of silently committing an out-of-bound artifact.
const SAMPLING_ERR_BOUND_PCT: f64 = 10.0;

/// Documented accuracy bound for SimPoint weighted replay (percent),
/// measured against the registry `simpoint` experiment's own spec.
const SIMPOINT_ERR_BOUND_PCT: f64 = 10.0;

/// Below this per-workload length the error-bound asserts are skipped
/// (and the bound fields stay null in the report): the ≤ 10% envelopes
/// are statements about production-scale replay — a 2000-instruction
/// CI smoke run leaves any window/phase estimator with too few samples
/// to be meaningful.
const ERR_BOUND_MIN_LEN: u64 = 100_000;

/// Nearest-rank percentile over an ascending-sorted sample.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// Provenance for the committed measurement.
#[derive(Debug, Clone, PartialEq)]
struct BenchManifest {
    /// `git rev-parse HEAD` at measurement time.
    git_revision: String,
    /// Workload synthesis seed.
    seed: u64,
    /// Unix seconds the measurement was taken.
    generated_unix: u64,
}

zbp_support::impl_json_struct!(BenchManifest { git_revision, seed, generated_unix });

/// The measured throughput record committed at the repository root.
#[derive(Debug, Clone, PartialEq)]
struct ThroughputReport {
    /// Provenance (revision, seed, timestamp).
    manifest: BenchManifest,
    /// Per-workload dynamic instruction cap used.
    len_per_workload: u64,
    /// Workload synthesis seed.
    seed: u64,
    /// Workload rows in the grid.
    workloads: u64,
    /// Configuration columns in the grid.
    configs: u64,
    /// Instructions synthesized once in the generate stage.
    generate_instructions: u64,
    /// Instructions replayed across all cells.
    replay_instructions: u64,
    /// Record-capture stage time, summed across workers (CPU seconds;
    /// equals wall-clock when single-threaded).
    generate_s: f64,
    /// Compact-encode stage time (record capture → branch-point form),
    /// summed across workers.
    encode_s: f64,
    /// Compact run-batched replay time — the production path — summed
    /// across workers (CPU seconds).
    replay_s: f64,
    /// Record per-instruction replay time — the reference path — summed
    /// across workers.
    replay_record_s: f64,
    /// Total bytes of the record captures across all workloads.
    record_bytes: u64,
    /// Total bytes of the compact captures across all workloads.
    compact_bytes: u64,
    /// Record bytes per instruction (the fixed record size).
    record_bytes_per_instr: f64,
    /// Compact bytes per instruction.
    compact_bytes_per_instr: f64,
    /// End-to-end wall-clock of the shared (generate-once) grid on the
    /// default compact path.
    shared_total_s: f64,
    /// End-to-end wall-clock of the regenerate-per-cell baseline.
    baseline_total_s: f64,
    /// Wall-clock of the same grid measured with the pre-PR binary on
    /// the same machine (`ZBP_BENCH_PREPR_S`, seconds); `None` when no
    /// prior revision was measured. Unlike `baseline_total_s` — which
    /// isolates the sharing win inside the *current* binary — this
    /// captures the full PR (sharing + per-step simulator work), because
    /// simulator optimizations speed the in-binary baseline up equally.
    prepr_total_s: Option<f64>,
    /// Commit the pre-PR measurement was taken at (`ZBP_BENCH_PREPR_REV`,
    /// `None` when not supplied).
    prepr_rev: Option<String>,
    /// Record-capture throughput (million instructions/second).
    generate_mips: f64,
    /// Compact-encode throughput from the captured records (MIPS over
    /// generated instructions).
    encode_mips: f64,
    /// Production capture throughput: `capture_within_into` straight
    /// off the generator, which appends whole block bodies (MIPS;
    /// layout synthesis excluded).
    capture_mips: f64,
    /// Compact replay throughput (million simulated instructions/second).
    replay_mips: f64,
    /// Record replay throughput (reference path, MIPS).
    replay_record_mips: f64,
    /// Whole-grid throughput of the shared path (MIPS).
    shared_mips: f64,
    /// Whole-grid throughput of the regenerate baseline (MIPS).
    baseline_mips: f64,
    /// Wall-clock speedup of shared over the in-binary regenerate
    /// baseline (always reproducible from this harness alone).
    speedup: f64,
    /// Wall-clock speedup of shared over the pre-PR binary; `None` when
    /// no `ZBP_BENCH_PREPR_S` measurement was supplied.
    speedup_vs_prepr: Option<f64>,
    /// Cold trace-store grid wall-clock: generate + encode + persist +
    /// replay, into a fresh store. Nullable so history lines written by
    /// older harness revisions stay parseable (the `prepr_*` pattern).
    store_cold_s: Option<f64>,
    /// Warm trace-store grid wall-clock: single-read load + replay, no
    /// generation or encoding.
    store_warm_s: Option<f64>,
    /// Whole-grid throughput of the warm-store path (MIPS).
    store_warm_mips: Option<f64>,
    /// On-disk store bytes per generated instruction (header + streams
    /// + digests, per `.zbpc` entry).
    store_bytes_per_instr: Option<f64>,
    /// Wall-clock speedup of the warm-store grid over the shared
    /// (generate-every-run) grid.
    warm_speedup_vs_shared: Option<f64>,
    /// Sampled-replay grid wall-clock (1-in-10 windows, opt-in mode).
    sampling_replay_s: Option<f64>,
    /// Sampled-replay grid throughput counted over *all* trace
    /// instructions, not just the modelled windows (MIPS).
    sampling_mips: Option<f64>,
    /// Worst per-cell CPI error of sampled vs full replay (percent).
    sampling_max_cpi_err_pct: Option<f64>,
    /// Mean per-cell CPI error of sampled vs full replay (percent).
    sampling_mean_cpi_err_pct: Option<f64>,
    /// External-trace (`ZBXT`) ingest throughput: a bench-cap-sized
    /// stream parsed into a replayable trace, in million trace
    /// instructions per second. Nullable so history lines written
    /// before ingestion existed stay parseable.
    ingest_mips: Option<f64>,
    /// Worst SimPoint weighted-replay CPI error vs the full-replay grid
    /// across all workloads on the base configuration (percent).
    simpoint_cpi_err: Option<f64>,
    /// Wall-clock of the lane-batched replay grid — the default
    /// production path after the lane kernel: captures load from the
    /// warm trace store and every configuration column of a row rides
    /// one decode-once lane group. Nullable so history lines written
    /// by older harness revisions stay parseable.
    lanes_replay_s: Option<f64>,
    /// Whole-grid throughput of the lane-batched path (MIPS).
    lanes_mips: Option<f64>,
    /// Wall-clock speedup of the lane-batched replay grid over the
    /// shared grid (generate + encode + per-column replay — the
    /// default production path before the trace store and the lane
    /// kernel) on the same machine.
    lane_speedup_vs_shared: Option<f64>,
    /// Documented bound the measured `sampling_max_cpi_err_pct` must
    /// stay within (percent); asserted by the harness so a parameter
    /// drift between the bench and the production sampling spec cannot
    /// silently recur.
    sampling_cpi_err_bound_pct: Option<f64>,
    /// Documented bound the measured `simpoint_cpi_err` must stay
    /// within (percent) — the same ≤ 10% bound the registry `simpoint`
    /// experiment pins in CI, asserted here against the registry's own
    /// `SimPointSpec` parameters.
    simpoint_cpi_err_bound_pct: Option<f64>,
    /// Median request-to-done latency per cell of a cold `zbp-serve`
    /// grid request (every cell computed by the worker pool), ms.
    serve_cold_cell_p50_ms: Option<f64>,
    /// 95th-percentile request-to-done latency per cell, cold request.
    serve_cold_cell_p95_ms: Option<f64>,
    /// Median request-to-done latency per cell of the warm repeat
    /// (every cell cache-served, zero recomputation), ms.
    serve_warm_cell_p50_ms: Option<f64>,
    /// 95th-percentile latency per cell, warm repeat.
    serve_warm_cell_p95_ms: Option<f64>,
}

zbp_support::impl_json_struct!(ThroughputReport {
    manifest,
    len_per_workload,
    seed,
    workloads,
    configs,
    generate_instructions,
    replay_instructions,
    generate_s,
    encode_s,
    replay_s,
    replay_record_s,
    record_bytes,
    compact_bytes,
    record_bytes_per_instr,
    compact_bytes_per_instr,
    shared_total_s,
    baseline_total_s,
    prepr_total_s,
    prepr_rev,
    generate_mips,
    encode_mips,
    capture_mips,
    replay_mips,
    replay_record_mips,
    shared_mips,
    baseline_mips,
    speedup,
    speedup_vs_prepr,
    store_cold_s,
    store_warm_s,
    store_warm_mips,
    store_bytes_per_instr,
    warm_speedup_vs_shared,
    sampling_replay_s,
    sampling_mips,
    sampling_max_cpi_err_pct,
    sampling_mean_cpi_err_pct,
    ingest_mips,
    simpoint_cpi_err,
    lanes_replay_s,
    lanes_mips,
    lane_speedup_vs_shared,
    sampling_cpi_err_bound_pct,
    simpoint_cpi_err_bound_pct,
    serve_cold_cell_p50_ms,
    serve_cold_cell_p95_ms,
    serve_warm_cell_p50_ms,
    serve_warm_cell_p95_ms,
});

fn mips(instructions: u64, seconds: f64) -> f64 {
    instructions as f64 / seconds.max(1e-9) / 1e6
}

fn output_path() -> std::path::PathBuf {
    std::env::var("ZBP_BENCH_OUT").map_or_else(
        |_| {
            std::path::PathBuf::from(concat!(
                env!("CARGO_MANIFEST_DIR"),
                "/../../BENCH_throughput.json"
            ))
        },
        std::path::PathBuf::from,
    )
}

/// Per-workload measurements from the staged pass.
struct StagedRow {
    compact_results: Vec<SimResult>,
    record_results: Vec<SimResult>,
    gen_s: f64,
    encode_s: f64,
    capture_s: f64,
    replay_s: f64,
    replay_record_s: f64,
    record_bytes: u64,
    compact_bytes: u64,
}

fn main() {
    let (mut opts, t0) = start("throughput — figure-2 grid MIPS", "§5 evaluation scale");
    opts.len = Some(opts.len.unwrap_or(DEFAULT_BENCH_LEN));
    let profiles = WorkloadProfile::all_table4();
    let configs = SimConfig::table3().to_vec();
    let generate_instructions: u64 = profiles.iter().map(|p| opts.len_for(p)).sum();
    let replay_instructions = generate_instructions * configs.len() as u64;

    // Staged pass: per-workload, capture the record form, encode the
    // compact form from it, replay both, and clock each stage
    // separately. Stage times are summed across workers (CPU-seconds;
    // equal to wall-clock when single-threaded).
    let rec_pool: Mutex<Vec<Vec<zbp_trace::TraceInstr>>> = Mutex::new(Vec::new());
    let staged: Vec<StagedRow> = par_map(&profiles, |p| {
        let t = Instant::now();
        let buf = rec_pool.lock().expect("pool lock").pop().unwrap_or_default();
        let mat =
            MaterializedTrace::capture_into(&p.build_with_len(opts.seed, opts.len_for(p)), buf);
        let gen_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let compact = CompactTrace::capture(&mat).expect("generator streams compact-encode");
        let encode_s = t.elapsed().as_secs_f64();
        // The production capture of the same stream must encode it
        // identically to the record round trip above.
        let gen = p.build_with_len(opts.seed, opts.len_for(p));
        let t = Instant::now();
        let direct = CompactTrace::capture_within_into(&gen, u64::MAX, CompactParts::default())
            .expect("generator streams compact-encode");
        let capture_s = t.elapsed().as_secs_f64();
        assert!(
            direct.branch_points() == compact.branch_points()
                && direct.len_code_stream() == compact.len_code_stream()
                && direct.far_stream() == compact.far_stream(),
            "block capture and record encode diverged on {}",
            p.name
        );
        drop(direct);
        let t = Instant::now();
        let compact_results = par_map(&configs, |c| Simulator::run_config_compact(c, &compact));
        let replay_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let record_results = par_map(&configs, |c| Simulator::run_config(c, &mat));
        let replay_record_s = t.elapsed().as_secs_f64();
        let row = StagedRow {
            compact_results,
            record_results,
            gen_s,
            encode_s,
            capture_s,
            replay_s,
            replay_record_s,
            record_bytes: mat.bytes(),
            compact_bytes: compact.bytes(),
        };
        if let Some(buf) = mat.into_records() {
            rec_pool.lock().expect("pool lock").push(buf);
        }
        row
    });

    // The compact fast path must change speed, not predictions.
    for (row, p) in staged.iter().zip(&profiles) {
        for (fast, reference) in row.compact_results.iter().zip(&row.record_results) {
            assert_eq!(
                fast.core, reference.core,
                "compact and record replay diverged on ({}, {})",
                p.name, reference.config_name
            );
        }
    }

    let generate_s: f64 = staged.iter().map(|r| r.gen_s).sum();
    let encode_s: f64 = staged.iter().map(|r| r.encode_s).sum();
    let capture_s: f64 = staged.iter().map(|r| r.capture_s).sum();
    let replay_s: f64 = staged.iter().map(|r| r.replay_s).sum();
    let replay_record_s: f64 = staged.iter().map(|r| r.replay_record_s).sum();
    let record_bytes: u64 = staged.iter().map(|r| r.record_bytes).sum();
    let compact_bytes: u64 = staged.iter().map(|r| r.compact_bytes).sum();

    // Shared grid end-to-end: the default production path exactly as
    // SimSession::run performs it — compact capture straight off the
    // generator, every column replays the shared capture.
    let parts_pool: Mutex<Vec<CompactParts>> = Mutex::new(Vec::new());
    let t_total = Instant::now();
    let shared_results: Vec<Vec<SimResult>> = par_map(&profiles, |p| {
        let parts = parts_pool.lock().expect("pool lock").pop().unwrap_or_default();
        let gen = p.build_with_len(opts.seed, opts.len_for(p));
        let compact = match CompactTrace::capture_within_into(&gen, u64::MAX, parts) {
            Ok(c) => c,
            Err(e) => panic!("generator streams compact-encode: {e:?}"),
        };
        let results = par_map(&configs, |c| Simulator::run_config_compact(c, &compact));
        if let Some(parts) = compact.into_parts() {
            parts_pool.lock().expect("pool lock").push(parts);
        }
        results
    });
    let shared_total_s = t_total.elapsed().as_secs_f64();
    let shared_results: Vec<SimResult> = shared_results.into_iter().flatten().collect();

    // Baseline: the pre-sharing session behaviour — a flat fan-out over
    // all W×C cells where every cell builds and walks its own freshly
    // synthesized trace (what SimSession::run did before captures were
    // shared across a workload row).
    let cells: Vec<(usize, usize)> =
        (0..profiles.len()).flat_map(|w| (0..configs.len()).map(move |c| (w, c))).collect();
    let t = Instant::now();
    let baseline_results = par_map(&cells, |&(w, c)| {
        let p = &profiles[w];
        let trace = p.build_with_len(opts.seed, opts.len_for(p));
        Simulator::run_config(&configs[c], &trace)
    });
    let baseline_total_s = t.elapsed().as_secs_f64();

    for (i, &(w, c)) in cells.iter().enumerate() {
        assert_eq!(
            shared_results[i].core.cycles, baseline_results[i].core.cycles,
            "shared and regenerated runs diverged on ({}, {})",
            profiles[w].name, configs[c].name
        );
    }

    // Trace-store passes: the cold pass persists each workload's capture
    // into a fresh store alongside the replay (what the first `zbp-cli
    // experiment run` pays); the warm pass reloads it in a single read
    // and replays, with generation and encoding amortized to zero (every
    // later run). Warm results must stay bit-identical to the shared
    // grid.
    let store_dir = std::env::temp_dir().join(format!("zbp-bench-store-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&store_dir);
    let store = TraceStore::at(&store_dir);
    let keys: Vec<TraceStoreKey> = profiles
        .iter()
        .map(|p| {
            TraceStoreKey::workload(&zbp_support::json::to_string(p), opts.seed, opts.len_for(p))
        })
        .collect();
    let workload_ids: Vec<usize> = (0..profiles.len()).collect();
    let t = Instant::now();
    let cold_results: Vec<Vec<SimResult>> = par_map(&workload_ids, |&w| {
        let parts = parts_pool.lock().expect("pool lock").pop().unwrap_or_default();
        let p = &profiles[w];
        let gen = p.build_with_len(opts.seed, opts.len_for(p));
        let compact = match CompactTrace::capture_within_into(&gen, u64::MAX, parts) {
            Ok(c) => c,
            Err(e) => panic!("generator streams compact-encode: {e:?}"),
        };
        store.store(&keys[w], &compact);
        let results = par_map(&configs, |c| Simulator::run_config_compact(c, &compact));
        if let Some(parts) = compact.into_parts() {
            parts_pool.lock().expect("pool lock").push(parts);
        }
        results
    });
    let store_cold_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let warm_results: Vec<Vec<SimResult>> = par_map(&workload_ids, |&w| {
        let parts = parts_pool.lock().expect("pool lock").pop().unwrap_or_default();
        let compact = store.load(&keys[w], parts).expect("freshly stored capture hits");
        let results = par_map(&configs, |c| Simulator::run_config_compact(c, &compact));
        if let Some(parts) = compact.into_parts() {
            parts_pool.lock().expect("pool lock").push(parts);
        }
        results
    });
    let store_warm_s = t.elapsed().as_secs_f64();

    let warm_flat: Vec<SimResult> = warm_results.into_iter().flatten().collect();
    let cold_flat: Vec<SimResult> = cold_results.into_iter().flatten().collect();
    for (i, &(w, c)) in cells.iter().enumerate() {
        assert_eq!(
            warm_flat[i].core, shared_results[i].core,
            "store-loaded replay diverged from shared on ({}, {})",
            profiles[w].name, configs[c].name
        );
        assert_eq!(
            cold_flat[i].core, shared_results[i].core,
            "store-writing replay diverged from shared on ({}, {})",
            profiles[w].name, configs[c].name
        );
    }
    let store_bytes: u64 = keys
        .iter()
        .filter_map(|k| store.path_for(k))
        .map(|p| std::fs::metadata(p).map(|m| m.len()).unwrap_or(0))
        .sum();

    // Lane-batched grid replay: the full production path after this PR
    // — every workload's capture loads from the warm store (generation
    // and encoding amortized, as on every run after the first) and all
    // configuration columns of a row ride one decode-once lane group,
    // so the run stream is decoded once per row instead of twice per
    // cell. `lane_speedup_vs_shared` compares this against the shared
    // grid's generate + encode + per-column wall-clock — the default
    // production path before the store and lane kernel existed. Must
    // stay bit-identical to the shared grid.
    let t = Instant::now();
    let lanes_results: Vec<Vec<SimResult>> = par_map(&workload_ids, |&w| {
        let parts = parts_pool.lock().expect("pool lock").pop().unwrap_or_default();
        let compact = store.load(&keys[w], parts).expect("freshly stored capture hits");
        let columns: Vec<&SimConfig> = configs.iter().collect();
        let results = Simulator::run_configs_compact_lanes(&columns, &compact);
        if let Some(parts) = compact.into_parts() {
            parts_pool.lock().expect("pool lock").push(parts);
        }
        results
    });
    let lanes_total_s = t.elapsed().as_secs_f64();
    let lanes_flat: Vec<SimResult> = lanes_results.into_iter().flatten().collect();
    for (i, &(w, c)) in cells.iter().enumerate() {
        assert_eq!(
            lanes_flat[i].core, shared_results[i].core,
            "lane-batched replay diverged from shared on ({}, {})",
            profiles[w].name, configs[c].name
        );
    }

    // Sampled replay (opt-in estimator): 1-in-4 windows off the warm
    // store, CPI error reported against the full-replay grid. The
    // window density matches the coverage the documented ≤ 10% error
    // bound was validated at (~25–30% of instructions modelled, like
    // the registry `simpoint` experiment); the old 1-in-10 windows
    // measured only 10% of the trace and broke the bound at 22.8%.
    let bench_len = opts.len.unwrap_or(DEFAULT_BENCH_LEN);
    let spec = SamplingSpec::one_in(4, (bench_len / 40).max(500));
    let t = Instant::now();
    let sampled_cpis: Vec<Vec<f64>> = par_map(&workload_ids, |&w| {
        let parts = parts_pool.lock().expect("pool lock").pop().unwrap_or_default();
        let compact = store.load(&keys[w], parts).expect("freshly stored capture hits");
        let cpis = configs
            .iter()
            .map(|c| Simulator::run_config_compact_sampled(c, &compact, spec).cpi())
            .collect();
        if let Some(parts) = compact.into_parts() {
            parts_pool.lock().expect("pool lock").push(parts);
        }
        cpis
    });
    let sampling_replay_s = t.elapsed().as_secs_f64();
    let sampled_flat: Vec<f64> = sampled_cpis.into_iter().flatten().collect();
    let errs: Vec<f64> = sampled_flat
        .iter()
        .zip(&shared_results)
        .map(|(s, full)| 100.0 * (s - full.cpi()).abs() / full.cpi())
        .collect();
    let sampling_max_err = errs.iter().copied().fold(0.0f64, f64::max);
    let sampling_mean_err = errs.iter().sum::<f64>() / errs.len().max(1) as f64;
    let assert_bounds = bench_len >= ERR_BOUND_MIN_LEN;
    if assert_bounds {
        assert!(
            sampling_max_err <= SAMPLING_ERR_BOUND_PCT,
            "sampled-replay CPI error {sampling_max_err:.2}% breaks the documented \
             <= {SAMPLING_ERR_BOUND_PCT}% bound — the bench sampling spec has drifted \
             from the validated coverage"
        );
    }

    // SimPoint weighted replay (phase-level sampling, opt-in like the
    // window sampler above): plan each workload's intervals off the
    // warm store, replay only the cluster representatives, and report
    // the worst CPI error vs the full-replay grid on the base
    // configuration. The parameters are the registry `simpoint`
    // experiment's own spec — the ≤ 10% bound is documented against
    // *that* spec, and the bench previously drifted to coarser
    // intervals/fewer clusters (len/20, k=4) and reported 22.4% error
    // against a bound it was never measuring.
    let sp_spec = SimPointSpec::default();
    let sp_errs: Vec<f64> = par_map(&workload_ids, |&w| {
        let parts = parts_pool.lock().expect("pool lock").pop().unwrap_or_default();
        let compact = store.load(&keys[w], parts).expect("freshly stored capture hits");
        let plan = simpoint::plan(&compact, &sp_spec);
        let est = simpoint::weighted_estimate(&configs[0], &compact, &plan, sp_spec.warmup);
        if let Some(parts) = compact.into_parts() {
            parts_pool.lock().expect("pool lock").push(parts);
        }
        let full = shared_results[w * configs.len()].cpi();
        100.0 * (est.cpi - full).abs() / full.max(1e-9)
    });
    let simpoint_cpi_err = sp_errs.iter().copied().fold(0.0f64, f64::max);
    if assert_bounds {
        assert!(
            simpoint_cpi_err <= SIMPOINT_ERR_BOUND_PCT,
            "simpoint weighted-CPI error {simpoint_cpi_err:.2}% breaks the documented \
             <= {SIMPOINT_ERR_BOUND_PCT}% bound — the bench spec has drifted from the \
             registry `simpoint` experiment's parameters"
        );
    }

    // zbp-serve latency pass: an in-process daemon state over a fresh
    // cell cache, fed by the already-warm trace store — the same `/run`
    // request lifecycle the socket path drives, minus the socket. The
    // cold request computes every fig2 cell through the worker pool;
    // the warm repeat must serve 100% from the cache. Latencies are
    // request-start → per-cell `done`, milliseconds, sorted ascending.
    let serve_cache = std::env::temp_dir().join(format!("zbp-bench-serve-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&serve_cache);
    let mut serve_opts = opts.clone();
    serve_opts.trace_store = Arc::new(TraceStore::at(&store_dir));
    let serve_state = ServeState::new(serve_opts, &serve_cache, 4);
    let serve_spec = registry::find("fig2").expect("fig2 registered");
    let serve_run =
        RunRequest { experiment: "fig2".into(), len: None, seed: None, timeout_ms: None };
    let serve_pass = |expect_provenance: Option<&str>| -> Vec<f64> {
        let t_req = Instant::now();
        let mut latencies = Vec::new();
        run_streaming(&serve_state, serve_spec, &serve_run, &mut |event| {
            if event.get("event") == Some(&Json::Str("done".into())) {
                latencies.push(t_req.elapsed().as_secs_f64() * 1e3);
                if let Some(p) = expect_provenance {
                    assert_eq!(
                        event.get("provenance"),
                        Some(&Json::Str(p.into())),
                        "warm serve repeat must be fully cache-served"
                    );
                }
            }
            Ok(())
        })
        .expect("serve pass completes");
        latencies.sort_by(|a, b| a.partial_cmp(b).expect("finite latency"));
        latencies
    };
    let serve_cold = serve_pass(None);
    let serve_warm = serve_pass(Some("cache-hit"));
    assert_eq!(serve_cold.len(), serve_warm.len(), "both passes see every cell");
    serve_state.executor.drain();
    let _ = std::fs::remove_dir_all(&serve_cache);
    let _ = std::fs::remove_dir_all(&store_dir);

    // External-ingest throughput: serialize a bench-cap-sized ZBXT
    // stream in memory (same loop shape as the committed fixture) and
    // clock the parse+validate walk that `zbp-cli trace` pays per file.
    let ingest_bytes = {
        let sites = vec![
            ExtSite { addr: 0x1010, target: 0x1000, len: 4, kind: BranchKind::Conditional },
            ExtSite { addr: 0x1020, target: 0x2000, len: 6, kind: BranchKind::Call },
            ExtSite { addr: 0x2008, target: 0x1026, len: 2, kind: BranchKind::Return },
            ExtSite { addr: 0x102e, target: 0x1000, len: 4, kind: BranchKind::Unconditional },
        ];
        // The base cycle retires 20 instructions over 5 events.
        let mut events = Vec::with_capacity((bench_len / 4) as usize);
        for _ in 0..(bench_len / 20).max(1) {
            events.extend_from_slice(&[
                EVENT_TAKEN,
                0,
                1 | EVENT_TAKEN,
                2 | EVENT_TAKEN,
                3 | EVENT_TAKEN,
            ]);
        }
        let mut bytes = Vec::new();
        write_external("bench-ingest", 0x1000, &sites, &events, &mut bytes)
            .expect("in-memory ZBXT serialization");
        bytes
    };
    let t = Instant::now();
    let ingested = ExternalTrace::parse(&ingest_bytes).expect("synthetic ZBXT parses");
    let ingest_s = t.elapsed().as_secs_f64();
    let ingest_instructions = ingested.len();
    let ingest_mips_v = mips(ingest_instructions, ingest_s);
    drop(ingested);

    // Optional externally measured pre-PR wall-clock: the in-binary
    // regenerate baseline under-counts the PR because the simulator's
    // own per-step optimizations speed it up too. Run the same grid
    // with the pre-PR binary (see scripts/bench_throughput.sh) and pass
    // the wall via ZBP_BENCH_PREPR_S (+ the commit via
    // ZBP_BENCH_PREPR_REV) to record the full before/after.
    let prepr_total_s: Option<f64> = std::env::var("ZBP_BENCH_PREPR_S")
        .ok()
        .and_then(|s| s.parse().ok())
        .filter(|&s: &f64| s > 0.0);
    let prepr_rev = std::env::var("ZBP_BENCH_PREPR_REV").ok().filter(|s| !s.is_empty());

    let generated_unix = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0);
    let report = ThroughputReport {
        manifest: BenchManifest { git_revision: git_revision(), seed: opts.seed, generated_unix },
        len_per_workload: opts.len.unwrap_or(0),
        seed: opts.seed,
        workloads: profiles.len() as u64,
        configs: configs.len() as u64,
        generate_instructions,
        replay_instructions,
        generate_s,
        encode_s,
        replay_s,
        replay_record_s,
        record_bytes,
        compact_bytes,
        record_bytes_per_instr: record_bytes as f64 / generate_instructions.max(1) as f64,
        compact_bytes_per_instr: compact_bytes as f64 / generate_instructions.max(1) as f64,
        shared_total_s,
        baseline_total_s,
        prepr_total_s,
        prepr_rev,
        generate_mips: mips(generate_instructions, generate_s),
        encode_mips: mips(generate_instructions, encode_s),
        capture_mips: mips(generate_instructions, capture_s),
        replay_mips: mips(replay_instructions, replay_s),
        replay_record_mips: mips(replay_instructions, replay_record_s),
        shared_mips: mips(replay_instructions, shared_total_s),
        baseline_mips: mips(replay_instructions, baseline_total_s),
        speedup: baseline_total_s / shared_total_s.max(1e-9),
        speedup_vs_prepr: prepr_total_s.map(|p| p / shared_total_s.max(1e-9)),
        store_cold_s: Some(store_cold_s),
        store_warm_s: Some(store_warm_s),
        store_warm_mips: Some(mips(replay_instructions, store_warm_s)),
        store_bytes_per_instr: Some(store_bytes as f64 / generate_instructions.max(1) as f64),
        warm_speedup_vs_shared: Some(shared_total_s / store_warm_s.max(1e-9)),
        sampling_replay_s: Some(sampling_replay_s),
        sampling_mips: Some(mips(replay_instructions, sampling_replay_s)),
        sampling_max_cpi_err_pct: Some(sampling_max_err),
        sampling_mean_cpi_err_pct: Some(sampling_mean_err),
        ingest_mips: Some(ingest_mips_v),
        simpoint_cpi_err: Some(simpoint_cpi_err),
        lanes_replay_s: Some(lanes_total_s),
        lanes_mips: Some(mips(replay_instructions, lanes_total_s)),
        lane_speedup_vs_shared: Some(shared_total_s / lanes_total_s.max(1e-9)),
        sampling_cpi_err_bound_pct: assert_bounds.then_some(SAMPLING_ERR_BOUND_PCT),
        simpoint_cpi_err_bound_pct: assert_bounds.then_some(SIMPOINT_ERR_BOUND_PCT),
        serve_cold_cell_p50_ms: Some(percentile(&serve_cold, 50.0)),
        serve_cold_cell_p95_ms: Some(percentile(&serve_cold, 95.0)),
        serve_warm_cell_p50_ms: Some(percentile(&serve_warm, 50.0)),
        serve_warm_cell_p95_ms: Some(percentile(&serve_warm, 95.0)),
    };

    let rows = vec![
        vec![
            "generate + record capture".to_string(),
            format!("{:.3}", report.generate_s),
            format!("{}", generate_instructions),
            format!("{:.2}", report.generate_mips),
        ],
        vec![
            "compact encode".to_string(),
            format!("{:.3}", report.encode_s),
            format!("{}", generate_instructions),
            format!("{:.2}", report.encode_mips),
        ],
        vec![
            "compact capture (block emission)".to_string(),
            format!("{:.3}", capture_s),
            format!("{}", generate_instructions),
            format!("{:.2}", report.capture_mips),
        ],
        vec![
            "replay (compact, run-batched)".to_string(),
            format!("{:.3}", report.replay_s),
            format!("{}", replay_instructions),
            format!("{:.2}", report.replay_mips),
        ],
        vec![
            "replay (record reference)".to_string(),
            format!("{:.3}", report.replay_record_s),
            format!("{}", replay_instructions),
            format!("{:.2}", report.replay_record_mips),
        ],
        vec![
            "shared grid total (compact)".to_string(),
            format!("{:.3}", report.shared_total_s),
            format!("{}", replay_instructions),
            format!("{:.2}", report.shared_mips),
        ],
        vec![
            "regenerate-per-cell baseline".to_string(),
            format!("{:.3}", report.baseline_total_s),
            format!("{}", replay_instructions),
            format!("{:.2}", report.baseline_mips),
        ],
        vec![
            "store grid total (cold)".to_string(),
            format!("{:.3}", store_cold_s),
            format!("{}", replay_instructions),
            format!("{:.2}", mips(replay_instructions, store_cold_s)),
        ],
        vec![
            "store grid total (warm)".to_string(),
            format!("{:.3}", store_warm_s),
            format!("{}", replay_instructions),
            format!("{:.2}", mips(replay_instructions, store_warm_s)),
        ],
        vec![
            "lane grid total (warm, decode-once)".to_string(),
            format!("{:.3}", lanes_total_s),
            format!("{}", replay_instructions),
            format!("{:.2}", mips(replay_instructions, lanes_total_s)),
        ],
        vec![
            "sampled replay (1-in-4, warm)".to_string(),
            format!("{:.3}", sampling_replay_s),
            format!("{}", replay_instructions),
            format!("{:.2}", mips(replay_instructions, sampling_replay_s)),
        ],
        vec![
            "external ingest (ZBXT parse)".to_string(),
            format!("{:.3}", ingest_s),
            format!("{}", ingest_instructions),
            format!("{:.2}", ingest_mips_v),
        ],
    ];
    println!("{}", render_table(&["stage", "wall (s)", "sim instructions", "MIPS"], &rows));
    println!(
        "capture bytes/instr: record {:.1}, compact {:.2} ({:.1}x smaller)",
        report.record_bytes_per_instr,
        report.compact_bytes_per_instr,
        report.record_bytes_per_instr / report.compact_bytes_per_instr.max(1e-9)
    );
    println!("speedup (regenerate / shared): {:.2}x", report.speedup);
    println!(
        "lanes: warm decode-once grid {:.2}x vs shared (generate + per-column replay), \
         bit-identical",
        report.lane_speedup_vs_shared.unwrap_or(0.0),
    );
    println!(
        "store: {:.2} bytes/instr on disk; warm grid {:.2}x vs shared (generation amortized)",
        report.store_bytes_per_instr.unwrap_or(0.0),
        report.warm_speedup_vs_shared.unwrap_or(0.0),
    );
    let bound_note =
        if assert_bounds { "asserted" } else { "not asserted below 100k instructions" };
    println!(
        "sampling (opt-in): CPI error vs full replay max {:.2}%, mean {:.2}% over {} cells \
         (bound <= {SAMPLING_ERR_BOUND_PCT}%, {bound_note})",
        sampling_max_err,
        sampling_mean_err,
        errs.len()
    );
    println!(
        "simpoint (opt-in): weighted-CPI error vs full replay max {:.2}% over {} workloads \
         ({} of {} intervals replayed per trace, bound <= {SIMPOINT_ERR_BOUND_PCT}%, \
         {bound_note})",
        simpoint_cpi_err,
        sp_errs.len(),
        sp_spec.clusters,
        (bench_len / sp_spec.interval.max(1)).max(1),
    );
    println!(
        "serve: fig2 per-cell latency cold p50 {:.1} ms / p95 {:.1} ms; warm repeat \
         p50 {:.2} ms / p95 {:.2} ms (100% cache-served)",
        report.serve_cold_cell_p50_ms.unwrap_or(0.0),
        report.serve_cold_cell_p95_ms.unwrap_or(0.0),
        report.serve_warm_cell_p50_ms.unwrap_or(0.0),
        report.serve_warm_cell_p95_ms.unwrap_or(0.0),
    );
    if let Some(speedup_vs_prepr) = report.speedup_vs_prepr {
        println!(
            "speedup (pre-PR {} / shared): {:.2}x",
            report.prepr_rev.as_deref().unwrap_or("binary"),
            speedup_vs_prepr
        );
    }

    let path = output_path();
    let json = zbp_support::json::to_string_pretty(&report) + "\n";
    match std::fs::write(&path, json) {
        Ok(()) => println!("saved: {}", path.display()),
        Err(e) => eprintln!("warning: cannot write {}: {e}", path.display()),
    }
    finish(t0);
}
