//! The declarative experiment registry.
//!
//! Every table and figure of the paper — plus the ablation, future-work
//! and comparison studies — is registered here as an
//! [`ExperimentSpec`]: which workloads it runs, which configuration
//! columns it sweeps, and which post-processing turns the resulting
//! grid into typed rows, a pretty table, and a JSON artifact. Front
//! ends (the CLI's `experiment` subcommands and the `zbp-serve`
//! daemon) resolve experiments by id through [`find`] instead of
//! matching on figure names, so adding a comparison point is a registry
//! entry, not another driver function.
//!
//! Running a spec produces an [`ExperimentRun`]: the post-processed
//! data plus a provenance [`Manifest`] (experiment id, schema version,
//! seed, per-trace lengths, git revision, wall time, cell cache-hit
//! count). The artifact written to `results/<artifact>.json` is
//! `{"manifest": ..., "data": ...}`; [`strip_volatile`] removes the
//! timing/provenance fields that legitimately differ between two
//! otherwise identical runs, which is how `experiment verify` and the
//! resume tests compare artifacts bit-for-bit.

use crate::cache::{CellCache, CellKey};
use crate::config::SimConfig;
use crate::experiments::{self, ExperimentOptions};
use crate::parallel::par_map;
use crate::report::{mean, render_csv, render_table};
use crate::session::{CacheStats, SessionGrid, SimSession};
use crate::simpoint::{self, SimPointSpec};
use crate::sweep::{points_from_grid, sweep_configs};
use std::sync::OnceLock;
use std::time::{Instant, SystemTime};
use zbp_support::json::{FromJson, Json, ToJson};
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{TraceStats, TraceStoreStats};
use zbp_uarch::core::CoreResult;

/// Version stamped into artifact manifests. Bumped to 2 when the
/// `workload_sources` provenance field landed (the workload-source
/// abstraction); v1 manifests lack the field and still parse (it reads
/// back as `None`). Independent of [`crate::cache::SCHEMA_VERSION`],
/// which keys cache/store entries and did NOT change.
pub const MANIFEST_SCHEMA_VERSION: u32 = 2;

/// One registered experiment: everything needed to run it and render
/// its artifact, declared as data plus plain function pointers.
pub struct ExperimentSpec {
    /// Registry id (`fig2`, `table4`, `ablation_steering`, ...).
    pub id: &'static str,
    /// Human-readable title.
    pub title: &'static str,
    /// Where in the paper the experiment comes from.
    pub paper_ref: &'static str,
    /// Artifact stem: the experiment writes `results/<artifact>.json`.
    pub artifact: &'static str,
    /// Static context lines (paper reference points) printed after the
    /// result table.
    pub notes: &'static [&'static str],
    /// One-line summary shown by `experiment list`.
    pub description: &'static str,
    /// Topic / backend tags shown by `experiment list` (`[]` = none).
    pub tags: &'static [&'static str],
    workloads: fn() -> Vec<WorkloadProfile>,
    kind: Kind,
}

/// How a spec's cells execute and post-process. Every arm receives
/// [`WorkloadSource`]s — the spec's default synthetic profiles, or
/// whatever external traces `opts.sources` substituted.
enum Kind {
    /// Trace-statistics cells (Table 4): no simulation, one
    /// [`TraceStats`] per workload.
    Stats(fn(&[WorkloadSource], &[TraceStats]) -> Rendered),
    /// Simulation cells: a workload × configuration grid.
    Grid { configs: fn() -> Vec<SimConfig>, post: fn(&SessionGrid) -> Rendered },
    /// Fully custom execution: the experiment drives its own grid (and
    /// any extra replays) through the cache itself.
    Custom(fn(&[WorkloadSource], &ExperimentOptions, &CellCache) -> (Rendered, CacheStats)),
}

/// Post-processed experiment output before the manifest is attached.
struct Rendered {
    data: Json,
    pretty: String,
    csv: Option<String>,
}

/// Provenance block stamped into every artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct Manifest {
    /// Registry id of the experiment.
    pub experiment: String,
    /// [`MANIFEST_SCHEMA_VERSION`] of the code that produced the
    /// artifact.
    pub schema_version: u32,
    /// Workload synthesis seed.
    pub seed: u64,
    /// Requested length cap (`None` = per-profile defaults).
    pub len_cap: Option<u64>,
    /// Effective dynamic length per workload.
    pub trace_lens: Vec<(String, u64)>,
    /// `git rev-parse HEAD` of the running code, resolved once per
    /// process (`unknown` outside a checkout).
    pub git_revision: String,
    /// Wall time of the run, milliseconds.
    pub wall_time_ms: u64,
    /// Unix timestamp of the run.
    pub generated_unix: u64,
    /// Total experiment cells.
    pub cells: u64,
    /// Cells answered from the cell cache.
    pub cache_hits: u64,
    /// Workload rows whose compact capture loaded from the trace store
    /// (`None` when no store was attached; absent in pre-store
    /// artifacts).
    pub trace_store_hits: Option<u64>,
    /// Workload rows the store could not serve (regenerated and
    /// persisted). `None` when no store was attached.
    pub trace_store_misses: Option<u64>,
    /// Workload-source descriptors, one per workload:
    /// `synthetic:<name>` or `external:<name>@fnv=<content hash>`.
    /// `None` in pre-v2 artifacts (the field is absent there).
    pub workload_sources: Option<Vec<String>>,
}

zbp_support::impl_json_struct!(Manifest {
    experiment,
    schema_version,
    seed,
    len_cap,
    trace_lens,
    git_revision,
    wall_time_ms,
    generated_unix,
    cells,
    cache_hits,
    trace_store_hits,
    trace_store_misses,
    workload_sources,
});

/// A completed experiment: manifest, post-processed data, and rendered
/// text forms.
pub struct ExperimentRun {
    /// Provenance of this run.
    pub manifest: Manifest,
    /// Post-processed result data (what `data` holds in the artifact).
    pub data: Json,
    /// Aligned text table (plus summary lines) for terminal output.
    pub pretty: String,
    /// Optional CSV rendering, written next to the JSON artifact.
    pub csv: Option<String>,
}

impl ExperimentRun {
    /// The full artifact value: `{"manifest": ..., "data": ...}`.
    pub fn artifact(&self) -> Json {
        Json::Obj(vec![
            ("manifest".into(), self.manifest.to_json()),
            ("data".into(), self.data.clone()),
        ])
    }
}

/// Manifest fields that legitimately differ between two runs of the
/// same experiment on the same inputs.
pub const VOLATILE_MANIFEST_FIELDS: [&str; 6] = [
    "wall_time_ms",
    "generated_unix",
    "cache_hits",
    "git_revision",
    "trace_store_hits",
    "trace_store_misses",
];

/// Strips the [`VOLATILE_MANIFEST_FIELDS`] from an artifact's manifest
/// so two runs over identical inputs compare bit-for-bit.
pub fn strip_volatile(artifact: &Json) -> Json {
    let Json::Obj(fields) = artifact else { return artifact.clone() };
    Json::Obj(
        fields
            .iter()
            .map(|(k, v)| {
                if k == "manifest" {
                    if let Json::Obj(m) = v {
                        let kept = m
                            .iter()
                            .filter(|(mk, _)| !VOLATILE_MANIFEST_FIELDS.contains(&mk.as_str()))
                            .cloned()
                            .collect();
                        return (k.clone(), Json::Obj(kept));
                    }
                }
                (k.clone(), v.clone())
            })
            .collect(),
    )
}

/// When a run started: the origin of its manifest's wall time and
/// trace-store counters.
#[derive(Debug, Clone, Copy)]
pub struct RunStart {
    at: Instant,
    store: TraceStoreStats,
}

impl RunStart {
    /// Starts the clock now. The store's counters are cumulative across
    /// the process (the options may be reused), so the manifest
    /// attributes only the delta since this snapshot.
    pub fn now(opts: &ExperimentOptions) -> Self {
        Self { at: Instant::now(), store: opts.trace_store.stats() }
    }
}

impl ExperimentSpec {
    /// Runs the experiment through `cache` and stamps a manifest.
    ///
    /// `opts.workers` caps the parallel fan-out for the whole process;
    /// `opts.len`/`opts.seed` select the grid. Use
    /// [`CellCache::disabled`] for a pure in-memory run,
    /// [`CellCache::write_only`] for `--fresh` semantics.
    pub fn run(&self, opts: &ExperimentOptions, cache: &CellCache) -> ExperimentRun {
        crate::parallel::set_worker_cap(opts.workers);
        let start = RunStart::now(opts);
        let sources = self.sources(opts);
        let (rendered, stats) = match &self.kind {
            Kind::Stats(post) => {
                let (all, stats) = collect_stats_cached(&sources, opts, cache);
                (post(&sources, &all), stats)
            }
            Kind::Grid { configs, .. } => {
                let session = SimSession::from_options(opts).workloads(sources).configs(configs());
                let (cores, stats) = session.run_cached_cells(cache);
                return self.finish_grid(opts, start, &session, cores, stats.hits);
            }
            Kind::Custom(run) => run(&sources, opts, cache),
        };
        self.stamp(opts, start, &sources, rendered, stats)
    }

    /// The step every grid run ends with: assembles the grid from one
    /// [`CoreResult`] per cell (row-major in [`SimSession::cells`]
    /// order), post-processes it and stamps the manifest. Both
    /// [`Self::run`] and `zbp-serve` finish through it, so a served
    /// artifact is the CLI's by construction. `session` is the spec's
    /// [`Self::grid_session`] over `opts`; `cache_hits` the cells read
    /// from the cache. Panics on a non-grid spec.
    pub fn finish_grid(
        &self,
        opts: &ExperimentOptions,
        start: RunStart,
        session: &SimSession,
        cores: Vec<CoreResult>,
        cache_hits: u64,
    ) -> ExperimentRun {
        let Kind::Grid { post, .. } = &self.kind else {
            panic!("{} is not a grid experiment", self.id)
        };
        let stats =
            CacheStats { cells: cores.len() as u64, hits: cache_hits, ..Default::default() };
        let rendered = post(&session.grid(cores));
        self.stamp(opts, start, &self.sources(opts), rendered, stats)
    }

    fn stamp(
        &self,
        opts: &ExperimentOptions,
        start: RunStart,
        sources: &[WorkloadSource],
        rendered: Rendered,
        stats: CacheStats,
    ) -> ExperimentRun {
        let store =
            opts.trace_store.is_enabled().then(|| opts.trace_store.stats().since(start.store));
        let manifest = Manifest {
            experiment: self.id.to_string(),
            schema_version: MANIFEST_SCHEMA_VERSION,
            seed: opts.seed,
            len_cap: opts.len,
            trace_lens: sources
                .iter()
                .map(|s| (s.name().to_string(), opts.len_for_source(s)))
                .collect(),
            git_revision: git_revision(),
            wall_time_ms: start.at.elapsed().as_millis() as u64,
            generated_unix: SystemTime::now()
                .duration_since(SystemTime::UNIX_EPOCH)
                .map_or(0, |d| d.as_secs()),
            cells: stats.cells,
            cache_hits: stats.hits,
            trace_store_hits: store.map(|s| s.hits),
            trace_store_misses: store.map(|s| s.misses),
            workload_sources: Some(sources.iter().map(WorkloadSource::describe).collect()),
        };
        ExperimentRun { manifest, data: rendered.data, pretty: rendered.pretty, csv: rendered.csv }
    }

    /// The workload sources this spec would run over: the spec's
    /// synthetic profiles by default; `--trace` / `ZBP_TRACES`
    /// (`opts.sources`) swaps in external sources for the whole grid.
    pub fn sources(&self, opts: &ExperimentOptions) -> Vec<WorkloadSource> {
        if opts.sources.is_empty() {
            (self.workloads)().into_iter().map(Into::into).collect()
        } else {
            opts.sources.clone()
        }
    }

    /// For grid-shaped specs, the [`SimSession`] that [`run`](Self::run)
    /// would drive — the per-cell entry point a serving layer needs to
    /// enumerate, claim, and compute individual cells. `None` for
    /// stats/custom specs, which have no externally addressable grid.
    pub fn grid_session(&self, opts: &ExperimentOptions) -> Option<SimSession> {
        match &self.kind {
            Kind::Grid { configs, .. } => Some(
                SimSession::from_options(opts).workloads(self.sources(opts)).configs(configs()),
            ),
            _ => None,
        }
    }
}

/// Table-4 cells through the cache: one [`TraceStats`] per workload,
/// round-tripped through rendered JSON exactly like simulation cells.
fn collect_stats_cached(
    sources: &[WorkloadSource],
    opts: &ExperimentOptions,
    cache: &CellCache,
) -> (Vec<TraceStats>, CacheStats) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let hits = AtomicU64::new(0);
    let all = par_map(sources, |s| {
        let len = opts.len_for_source(s);
        let key = CellKey::stats(&s.key_json(), opts.seed, len);
        if let Some(cached) = cache.load(&key).and_then(|j| roundtrip_stats(&j)) {
            hits.fetch_add(1, Ordering::Relaxed);
            return cached;
        }
        let stats = TraceStats::collect(&s.build_with_len(opts.seed, len));
        let entry = stats.to_json();
        cache.store(&key, &entry);
        roundtrip_stats(&entry).expect("TraceStats JSON round-trips")
    });
    (all, CacheStats { cells: sources.len() as u64, hits: hits.into_inner(), ..Default::default() })
}

fn roundtrip_stats(entry: &Json) -> Option<TraceStats> {
    TraceStats::from_json(&Json::parse(&entry.render()).ok()?).ok()
}

/// Best-effort `git rev-parse HEAD` for provenance manifests;
/// `"unknown"` outside a git checkout. Resolved once per process: a
/// manifest's revision is the code that is running, which does not
/// change after start-up, and `zbp-serve` would otherwise spawn `git`
/// for every artifact it assembles.
pub fn git_revision() -> String {
    static REVISION: OnceLock<String> = OnceLock::new();
    REVISION
        .get_or_init(|| {
            std::process::Command::new("git")
                .args(["rev-parse", "HEAD"])
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
                .map(|s| s.trim().to_string())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_string())
        })
        .clone()
}

// ---------------------------------------------------------------------------
// Registry lookup
// ---------------------------------------------------------------------------

/// Every registered experiment, in presentation order.
pub fn all() -> &'static [ExperimentSpec] {
    &REGISTRY
}

/// Finds a spec by id.
pub fn find(id: &str) -> Option<&'static ExperimentSpec> {
    REGISTRY.iter().find(|s| s.id == id)
}

/// The candidate closest to `input` by edit distance, if it is close
/// enough to plausibly be a typo (distance ≤ 1 + input length / 3).
pub fn closest<'a>(input: &str, candidates: impl IntoIterator<Item = &'a str>) -> Option<&'a str> {
    let best =
        candidates.into_iter().map(|c| (edit_distance(input, c), c)).min_by_key(|&(d, _)| d)?;
    (best.0 <= 1 + input.len() / 3).then_some(best.1)
}

/// Levenshtein distance (insert/delete/substitute, unit costs).
fn edit_distance(a: &str, b: &str) -> usize {
    let (a, b): (Vec<char>, Vec<char>) = (a.chars().collect(), b.chars().collect());
    let mut prev: Vec<usize> = (0..=b.len()).collect();
    for (i, ca) in a.iter().enumerate() {
        let mut cur = vec![i + 1];
        for (j, cb) in b.iter().enumerate() {
            let sub = prev[j] + usize::from(ca != cb);
            cur.push(sub.min(prev[j + 1] + 1).min(cur[j] + 1));
        }
        prev = cur;
    }
    prev[b.len()]
}

// ---------------------------------------------------------------------------
// Workload / configuration sets
// ---------------------------------------------------------------------------

fn wl_table4() -> Vec<WorkloadProfile> {
    WorkloadProfile::all_table4()
}

fn wl_hardware() -> Vec<WorkloadProfile> {
    WorkloadProfile::hardware_pair()
}

fn wl_daytrader_dbserv() -> Vec<WorkloadProfile> {
    vec![WorkloadProfile::daytrader_dbserv()]
}

fn wl_simpoint() -> Vec<WorkloadProfile> {
    vec![
        WorkloadProfile::daytrader_dbserv(),
        WorkloadProfile::tpf_airline(),
        WorkloadProfile::zlinux_informix(),
    ]
}

fn cfg_table3() -> Vec<SimConfig> {
    SimConfig::table3().to_vec()
}

fn cfg_baseline_pair() -> Vec<SimConfig> {
    vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]
}

fn cfg_fig5() -> Vec<SimConfig> {
    sweep_configs(&experiments::fig5_variants(&experiments::FIGURE5_SIZES))
}

fn cfg_fig6() -> Vec<SimConfig> {
    sweep_configs(&experiments::fig6_variants(&experiments::FIGURE6_LIMITS))
}

fn cfg_fig7() -> Vec<SimConfig> {
    sweep_configs(&experiments::fig7_variants(&experiments::FIGURE7_TRACKERS))
}

fn cfg_exclusivity() -> Vec<SimConfig> {
    sweep_configs(&experiments::exclusivity_variants())
}

fn cfg_steering() -> Vec<SimConfig> {
    sweep_configs(&experiments::steering_variants())
}

fn cfg_filter() -> Vec<SimConfig> {
    sweep_configs(&experiments::filter_variants())
}

fn cfg_wrongpath() -> Vec<SimConfig> {
    experiments::wrongpath_configs()
}

fn cfg_congruence() -> Vec<SimConfig> {
    sweep_configs(&experiments::congruence_variants(&experiments::CONGRUENCE_SPANS))
}

fn cfg_miss_detection() -> Vec<SimConfig> {
    sweep_configs(&experiments::miss_detection_variants())
}

fn cfg_multiblock() -> Vec<SimConfig> {
    sweep_configs(&experiments::multiblock_variants())
}

fn cfg_edram() -> Vec<SimConfig> {
    sweep_configs(&experiments::edram_variants())
}

fn cfg_phantom() -> Vec<SimConfig> {
    sweep_configs(&experiments::phantom_variants())
}

// ---------------------------------------------------------------------------
// Post-processing
// ---------------------------------------------------------------------------

fn pct(x: f64) -> String {
    format!("{x:+.2}%")
}

fn post_table4(sources: &[WorkloadSource], stats: &[TraceStats]) -> Rendered {
    let rows = experiments::table4_rows(sources, stats);
    // External traces carry no published footprint targets (target 0);
    // render "-" instead of a meaningless deviation.
    let deviation = |measured: u64, target: u32| {
        if target == 0 {
            "-".to_string()
        } else {
            format!("{:+.1}%", 100.0 * (measured as f64 - target as f64) / target as f64)
        }
    };
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                r.target_branches.to_string(),
                r.measured_branches.to_string(),
                deviation(r.measured_branches, r.target_branches),
                r.target_taken.to_string(),
                r.measured_taken.to_string(),
                deviation(r.measured_taken, r.target_taken),
                r.instructions.to_string(),
            ]
        })
        .collect();
    let pretty = render_table(
        &[
            "trace",
            "branches (paper)",
            "branches (measured)",
            "dev",
            "taken (paper)",
            "taken (measured)",
            "dev",
            "instructions",
        ],
        &table,
    );
    Rendered { data: rows.to_json(), pretty, csv: None }
}

fn post_fig2(grid: &SessionGrid) -> Rendered {
    let rows = experiments::fig2_rows(grid);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                format!("{:.4}", r.baseline_cpi),
                format!("{:.4}", r.btb2_cpi),
                format!("{:.4}", r.large_btb1_cpi),
                pct(r.btb2_improvement()),
                pct(r.large_btb1_improvement()),
                format!("{:.1}%", r.effectiveness()),
            ]
        })
        .collect();
    let mut pretty = render_table(
        &[
            "trace",
            "CPI (no BTB2)",
            "CPI (BTB2)",
            "CPI (24k BTB1)",
            "BTB2 gain",
            "24k BTB1 gain",
            "effectiveness",
        ],
        &table,
    );
    let d2: Vec<f64> = rows.iter().map(|r| r.btb2_improvement()).collect();
    let d3: Vec<f64> = rows.iter().map(|r| r.large_btb1_improvement()).collect();
    let eff: Vec<f64> = rows.iter().map(|r| r.effectiveness()).collect();
    let max2 = d2.iter().cloned().fold(f64::MIN, f64::max);
    pretty.push_str(&format!("average BTB2 gain:        {}\n", pct(mean(&d2))));
    pretty.push_str(&format!("average large-BTB1 gain:  {}\n", pct(mean(&d3))));
    pretty.push_str(&format!("average effectiveness:    {:.1}%  (paper: 52%)\n", mean(&eff)));
    pretty.push_str(&format!(
        "maximum BTB2 gain:        {}  (paper: +13.8% on DayTrader DBServ)\n",
        pct(max2)
    ));
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                format!("{:.6}", r.baseline_cpi),
                format!("{:.6}", r.btb2_cpi),
                format!("{:.6}", r.large_btb1_cpi),
                format!("{:.4}", r.btb2_improvement()),
                format!("{:.4}", r.large_btb1_improvement()),
                format!("{:.4}", r.effectiveness()),
            ]
        })
        .collect();
    let csv = render_csv(
        &[
            "trace",
            "cpi_no_btb2",
            "cpi_btb2",
            "cpi_large_btb1",
            "btb2_gain_pct",
            "large_gain_pct",
            "effectiveness_pct",
        ],
        &csv_rows,
    );
    Rendered { data: rows.to_json(), pretty, csv: Some(csv) }
}

fn post_fig3(grid: &SessionGrid) -> Rendered {
    let rows = experiments::fig3_rows(grid);
    let table: Vec<Vec<String>> =
        rows.iter().map(|r| vec![r.workload.clone(), pct(r.improvement)]).collect();
    Rendered {
        data: rows.to_json(),
        pretty: render_table(&["workload", "BTB2 improvement"], &table),
        csv: None,
    }
}

fn post_fig4(grid: &SessionGrid) -> Rendered {
    let r = experiments::fig4_result(grid);
    let row = |label: &str, p: &experiments::OutcomePercents| {
        vec![
            label.to_string(),
            format!("{:.2}%", p.mispredicted),
            format!("{:.2}%", p.compulsory),
            format!("{:.2}%", p.latency),
            format!("{:.2}%", p.capacity),
            format!("{:.2}%", p.total()),
        ]
    };
    let mut pretty = format!("workload: {}\n\n", r.workload);
    pretty.push_str(&render_table(
        &["configuration", "mispredicted", "compulsory", "latency", "capacity", "total bad"],
        &[row("no BTB2", &r.without_btb2), row("BTB2 enabled", &r.with_btb2)],
    ));
    pretty.push_str(&format!(
        "CPI improvement from the BTB2: {:+.2}% (paper: +13.8%)\n",
        r.improvement
    ));
    Rendered { data: r.to_json(), pretty, csv: None }
}

/// Shared sweep rendering: label + average-improvement table, with an
/// optional "(shipped)" marker on the hardware's configuration.
fn sweep_rendered(grid: &SessionGrid, header: &str, shipped: Option<&str>) -> Rendered {
    let points = points_from_grid(grid);
    let table: Vec<Vec<String>> = points
        .iter()
        .map(|p| {
            let mark = if shipped == Some(p.label.as_str()) { " (shipped)" } else { "" };
            vec![format!("{}{}", p.label, mark), pct(p.avg_improvement)]
        })
        .collect();
    Rendered {
        data: points.to_json(),
        pretty: render_table(&[header, "avg CPI improvement"], &table),
        csv: None,
    }
}

fn post_fig5(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "BTB2 size", Some("24k"))
}

fn post_fig6(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "miss definition", Some("4 searches"))
}

fn post_fig7(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "trackers", Some("3 trackers"))
}

fn post_exclusivity(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "policy", None)
}

fn post_steering(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "transfer order", None)
}

fn post_filter(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "filter mode", None)
}

fn post_congruence(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "congruence span", None)
}

fn post_miss_detection(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "miss event", None)
}

fn post_multiblock(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "transfer shape", None)
}

fn post_edram(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "second level", None)
}

fn post_phantom(grid: &SessionGrid) -> Rendered {
    sweep_rendered(grid, "second level", None)
}

fn post_wrongpath(grid: &SessionGrid) -> Rendered {
    let rows = experiments::wrongpath_rows(grid);
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                if r.wrong_path { "modelled" } else { "not modelled (default)" }.into(),
                pct(r.avg_improvement),
                format!("{:.2}", r.wrong_path_lines_per_kilo_instr),
            ]
        })
        .collect();
    Rendered {
        data: rows.to_json(),
        pretty: render_table(
            &["wrong-path fetch", "avg BTB2 improvement", "wrong-path lines / k-instr"],
            &table,
        ),
        csv: None,
    }
}

/// Runs the direction-predictor tournament: a Table-4 workloads ×
/// [`SimConfig::direction_backends`] grid through the cell cache, then
/// the H2P offender replay on the paper backend's worst workload (see
/// [`experiments::tournament_report`]). Rendered as a who-wins-where
/// table, a wins summary, and the H2P top-offenders table.
fn run_tournament(
    sources: &[WorkloadSource],
    opts: &ExperimentOptions,
    cache: &CellCache,
) -> (Rendered, CacheStats) {
    let configs = SimConfig::direction_backends();
    let (grid, stats) = SimSession::from_options(opts)
        .workloads(sources.to_vec())
        .configs(configs.clone())
        .run_cached(cache);
    let report = experiments::tournament_report(&grid, sources, &configs, opts);

    let backends = grid.configs();
    let mut headers: Vec<String> = vec!["trace".into()];
    headers.extend(backends.iter().map(|b| format!("{b} MPKI / CPI")));
    headers.push("winner".into());
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let table: Vec<Vec<String>> = grid
        .workloads()
        .iter()
        .map(|w| {
            let mut row = vec![w.clone()];
            for b in backends {
                let cell = report
                    .cells
                    .iter()
                    .find(|c| &c.trace == w && &c.backend == b)
                    .expect("cell for every (workload, backend)");
                row.push(format!("{:.3} / {:.4}", cell.dir_mpki, cell.cpi));
            }
            let (_, winner) =
                report.winners.iter().find(|(t, _)| t == w).expect("winner per workload");
            row.push(winner.clone());
            row
        })
        .collect();
    let mut pretty = render_table(&header_refs, &table);

    pretty.push_str("\nworkloads won (lowest direction MPKI):\n");
    for (backend, won) in &report.wins {
        pretty.push_str(&format!("  {backend:<16} {won}\n"));
    }

    pretty.push_str(&format!(
        "\nH2P top offenders on \"{}\" (direction mispredictions per branch site):\n",
        report.h2p_workload
    ));
    let mut h2p_headers: Vec<String> = vec!["branch".into()];
    h2p_headers.extend(backends.iter().cloned());
    let h2p_refs: Vec<&str> = h2p_headers.iter().map(String::as_str).collect();
    let h2p_table: Vec<Vec<String>> = report
        .h2p
        .iter()
        .map(|r| {
            let mut row = vec![format!("{:#x}", r.addr)];
            row.extend(r.counts.iter().map(|(_, n)| n.to_string()));
            row
        })
        .collect();
    pretty.push_str(&render_table(&h2p_refs, &h2p_table));

    let csv_rows: Vec<Vec<String>> = report
        .cells
        .iter()
        .map(|c| {
            vec![
                c.trace.clone(),
                c.backend.clone(),
                format!("{:.6}", c.dir_mpki),
                format!("{:.6}", c.cpi),
            ]
        })
        .collect();
    let csv = render_csv(&["trace", "backend", "dir_mpki", "cpi"], &csv_rows);
    (Rendered { data: report.to_json(), pretty, csv: Some(csv) }, stats)
}

/// Runs the SimPoint validation: per workload, plan BBV clusters,
/// replay only the weighted representatives, and compare against a
/// full replay of the same capture (see [`crate::simpoint`]). One cell
/// per workload, cached under [`CellKey::simpoint`].
fn run_simpoint(
    sources: &[WorkloadSource],
    opts: &ExperimentOptions,
    cache: &CellCache,
) -> (Rendered, CacheStats) {
    use std::sync::atomic::{AtomicU64, Ordering};
    let config = SimConfig::btb2_enabled();
    let spec = SimPointSpec::default();
    let hits = AtomicU64::new(0);
    let rows = par_map(sources, |s| {
        let (row, hit) = simpoint::simpoint_row(s, &config, &spec, opts, cache);
        if hit {
            hits.fetch_add(1, Ordering::Relaxed);
        }
        row
    });
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                r.intervals.to_string(),
                r.clusters.to_string(),
                format!("{:.1}%", 100.0 * r.replayed_fraction()),
                format!("{:.4}", r.weighted_cpi),
                format!("{:.4}", r.full_cpi),
                format!("{:.2}%", r.cpi_err_pct),
                format!("{:.3}", r.weighted_dir_mpki),
                format!("{:.3}", r.full_dir_mpki),
                format!("{:.2}%", r.mpki_err_pct),
            ]
        })
        .collect();
    let mut pretty = render_table(
        &[
            "trace",
            "intervals",
            "reps",
            "replayed",
            "weighted CPI",
            "full CPI",
            "CPI err",
            "weighted MPKI",
            "full MPKI",
            "MPKI err",
        ],
        &table,
    );
    let max_err = rows.iter().map(|r| r.cpi_err_pct).fold(0.0, f64::max);
    let replayed: Vec<f64> = rows.iter().map(|r| 100.0 * r.replayed_fraction()).collect();
    pretty.push_str(&format!(
        "maximum weighted-CPI error: {max_err:.2}%  \
         (replaying {:.1}% of instructions on average)\n",
        mean(&replayed)
    ));
    let csv_rows: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.trace.clone(),
                r.intervals.to_string(),
                r.clusters.to_string(),
                format!("{:.6}", r.replayed_fraction()),
                format!("{:.6}", r.weighted_cpi),
                format!("{:.6}", r.full_cpi),
                format!("{:.4}", r.cpi_err_pct),
                format!("{:.6}", r.weighted_dir_mpki),
                format!("{:.6}", r.full_dir_mpki),
                format!("{:.4}", r.mpki_err_pct),
            ]
        })
        .collect();
    let csv = render_csv(
        &[
            "trace",
            "intervals",
            "clusters",
            "replayed_fraction",
            "weighted_cpi",
            "full_cpi",
            "cpi_err_pct",
            "weighted_dir_mpki",
            "full_dir_mpki",
            "mpki_err_pct",
        ],
        &csv_rows,
    );
    (
        Rendered { data: rows.to_json(), pretty, csv: Some(csv) },
        CacheStats { cells: sources.len() as u64, hits: hits.into_inner(), ..Default::default() },
    )
}

// ---------------------------------------------------------------------------
// The registry itself
// ---------------------------------------------------------------------------

static REGISTRY: [ExperimentSpec; 18] = [
    ExperimentSpec {
        id: "table4",
        title: "Table 4 — large footprint traces",
        paper_ref: "§4, Table 4",
        artifact: "table4_traces",
        description: "validate synthesized branch footprints against the published counts",
        tags: &["validation", "traces"],
        notes: &["paper targets: published unique branch / taken-branch footprints; \
                  full-length runs land within ~±20% (statistical coverage)"],
        workloads: wl_table4,
        kind: Kind::Stats(post_table4),
    },
    ExperimentSpec {
        id: "fig2",
        title: "Figure 2 — benefit of the BTB2 per workload",
        paper_ref: "§5.1, Figure 2",
        artifact: "fig2_cpi_improvement",
        description: "per-workload CPI improvement from the BTB2 vs an oversized BTB1",
        tags: &["paper", "cpi"],
        notes: &["paper: max BTB2 benefit +13.8% (DayTrader DBServ), \
                  effectiveness 16.6%-83.4% (average 52%)"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_table3, post: post_fig2 },
    },
    ExperimentSpec {
        id: "fig3",
        title: "Figure 3 — benefit of BTB2 on zEC12 hardware",
        paper_ref: "§5.1, Figure 3",
        artifact: "fig3_system_level",
        description: "system-level BTB2 benefit on the two hardware-measured workloads",
        tags: &["paper", "cpi"],
        notes: &[
            "paper: WASDB+CBW2 (1 core) +5.3% measured / +8.5% simulated;",
            "       Web CICS/DB2 (4 cores) +3.4% measured.",
        ],
        workloads: wl_hardware,
        kind: Kind::Grid { configs: cfg_baseline_pair, post: post_fig3 },
    },
    ExperimentSpec {
        id: "fig4",
        title: "Figure 4 — bad branch outcomes, DayTrader DBServ",
        paper_ref: "§5.1, Figure 4",
        artifact: "fig4_bad_branch_outcomes",
        description: "bad-branch-outcome taxonomy with and without the BTB2",
        tags: &["paper", "outcomes"],
        notes: &["paper bars: no BTB2 total 25.9% (capacity 21.9%); \
                  BTB2 total 14.3% (capacity 8.1%)"],
        workloads: wl_daytrader_dbserv,
        kind: Kind::Grid { configs: cfg_baseline_pair, post: post_fig4 },
    },
    ExperimentSpec {
        id: "fig5",
        title: "Figure 5 — various BTB2 sizes",
        paper_ref: "§5.2, Figure 5",
        artifact: "fig5_btb2_size",
        description: "BTB2 capacity sweep (6k-96k entries)",
        tags: &["paper", "sweep"],
        notes: &["paper shape: benefit grows with BTB2 size, still growing past the shipped 24k"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_fig5, post: post_fig5 },
    },
    ExperimentSpec {
        id: "fig6",
        title: "Figure 6 — BTB1 miss definitions",
        paper_ref: "§5.2, Figure 6",
        artifact: "fig6_miss_definition",
        description: "perceived BTB1-miss definition sweep (searches before a miss)",
        tags: &["paper", "sweep"],
        notes: &["paper shape: early (speculative) miss definitions win; \
                  benefit falls as the definition waits for more searches"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_fig6, post: post_fig6 },
    },
    ExperimentSpec {
        id: "fig7",
        title: "Figure 7 — BTB2 search trackers",
        paper_ref: "§5.2, Figure 7",
        artifact: "fig7_trackers",
        description: "concurrent BTB2 search-tracker count sweep",
        tags: &["paper", "sweep"],
        notes: &["paper shape: two concurrent searches capture most of the benefit"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_fig7, post: post_fig7 },
    },
    ExperimentSpec {
        id: "ablation_exclusivity",
        title: "Ablation — exclusivity policies",
        paper_ref: "§3.3 design discussion",
        artifact: "ablation_exclusivity",
        description: "BTB1/BTB2 content-management policy ablation",
        tags: &["ablation"],
        notes: &["paper argument: semi-exclusive approximates true exclusivity \
                  at a fraction of the write cost"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_exclusivity, post: post_exclusivity },
    },
    ExperimentSpec {
        id: "ablation_steering",
        title: "Ablation — transfer steering",
        paper_ref: "§3.7 design discussion",
        artifact: "ablation_steering",
        description: "bulk-transfer write-order steering on vs off",
        tags: &["ablation"],
        notes: &["paper argument: steering bulk-transfer writes toward the \
                  search point beats sequential row order"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_steering, post: post_steering },
    },
    ExperimentSpec {
        id: "ablation_filter",
        title: "Ablation — I-cache miss filter",
        paper_ref: "§3.5 design discussion",
        artifact: "ablation_filter",
        description: "I-cache-miss preload filter mode ablation",
        tags: &["ablation"],
        notes: &["paper argument: partially filtering preloads on I-cache miss \
                  coverage balances pollution against lost preloads"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_filter, post: post_filter },
    },
    ExperimentSpec {
        id: "ablation_wrongpath",
        title: "Ablation — wrong-path fetch modeling",
        paper_ref: "§4 methodology",
        artifact: "ablation_wrongpath",
        description: "sensitivity of the BTB2's benefit to wrong-path fetch modelling",
        tags: &["ablation"],
        notes: &["the paper's model simulates wrong-path execution; this measures \
                  how much modelling its I-cache side shifts the BTB2's benefit"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_wrongpath, post: post_wrongpath },
    },
    ExperimentSpec {
        id: "future_congruence",
        title: "Future work — BTB2 congruence-class span",
        paper_ref: "§6 future work",
        artifact: "future_congruence",
        description: "BTB2 congruence-class span study (32/64/128 B rows)",
        tags: &["future-work"],
        notes: &["wider rows transfer a 4KB block in fewer reads but can overflow \
                  on branch-dense sequential code"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_congruence, post: post_congruence },
    },
    ExperimentSpec {
        id: "future_miss_detection",
        title: "Future work — perceived-miss detection events",
        paper_ref: "§6 future work",
        artifact: "future_miss_detection",
        description: "search-limit vs decode-stage perceived-miss events",
        tags: &["future-work"],
        notes: &["shipped: early speculative search-limit events; alternative: \
                  later, less speculative decode-stage surprises"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_miss_detection, post: post_miss_detection },
    },
    ExperimentSpec {
        id: "future_multiblock",
        title: "Future work — multi-block transfers",
        paper_ref: "§6 future work",
        artifact: "future_multiblock",
        description: "chained multi-block bulk-transfer study",
        tags: &["future-work"],
        notes: &["chases one taken-branch target per bulk transfer into a chained \
                  transfer of the target block"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_multiblock, post: post_multiblock },
    },
    ExperimentSpec {
        id: "future_edram",
        title: "Future work — SRAM vs eDRAM second level",
        paper_ref: "§6 future work",
        artifact: "future_edram",
        description: "SRAM vs eDRAM second-level density/latency trade-off",
        tags: &["future-work"],
        notes: &["same silicon area buys a denser but slower BTB2; latencies are \
                  illustrative (eDRAM ~2-3x SRAM latency at ~2-4x density)"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_edram, post: post_edram },
    },
    ExperimentSpec {
        id: "comparison_phantom",
        title: "Comparison — bulk preload vs Phantom-BTB",
        paper_ref: "§2 related work",
        artifact: "comparison_phantom",
        description: "dedicated BTB2 vs a virtualized Phantom-BTB second level",
        tags: &["comparison"],
        notes: &["Phantom-BTB (Burcea & Moshovos, ASPLOS 2009) virtualizes the \
                  second level into the L2; matched 24k metadata capacity"],
        workloads: wl_table4,
        kind: Kind::Grid { configs: cfg_phantom, post: post_phantom },
    },
    ExperimentSpec {
        id: "predictor-tournament",
        title: "Tournament — direction-predictor backends",
        paper_ref: "§3.1 direction prediction (extended)",
        artifact: "predictor_tournament",
        description: "who-wins-where across direction backends: per-workload \
                      MPKI/CPI plus an H2P top-offenders table",
        tags: &["tournament", "paper", "two-bit", "two-level-local", "gshare", "tage"],
        notes: &["column 0 is the paper's PHT/CTB stack; winners take the lowest \
                  direction MPKI; H2P offenders are replayed on the paper \
                  backend's worst workload"],
        workloads: wl_table4,
        kind: Kind::Custom(run_tournament),
    },
    ExperimentSpec {
        id: "simpoint",
        title: "SimPoint — phase-sampled replay validation",
        paper_ref: "§4 methodology (extended; Sherwood et al., ASPLOS 2002)",
        artifact: "simpoint_weighted_replay",
        description: "BBV-clustered representative replay vs full replay: \
                      weighted CPI/MPKI and the measured error",
        tags: &["methodology", "sampling"],
        notes: &["weights are cluster shares of 100k-instruction BBV intervals; \
                  errors are measured against a full replay of the same capture"],
        workloads: wl_simpoint,
        kind: Kind::Custom(run_simpoint),
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_support::json;

    #[test]
    fn ids_and_artifacts_are_unique() {
        let mut ids = std::collections::HashSet::new();
        let mut artifacts = std::collections::HashSet::new();
        for spec in all() {
            assert!(ids.insert(spec.id), "duplicate id {}", spec.id);
            assert!(artifacts.insert(spec.artifact), "duplicate artifact {}", spec.artifact);
        }
        assert_eq!(all().len(), 18);
    }

    #[test]
    fn every_spec_has_a_description() {
        for spec in all() {
            assert!(!spec.description.is_empty(), "{} needs a description", spec.id);
        }
    }

    #[test]
    fn find_and_suggest() {
        assert_eq!(find("fig2").unwrap().artifact, "fig2_cpi_improvement");
        assert!(find("figure 2").is_none());
        let ids = all().iter().map(|s| s.id);
        assert_eq!(closest("tabel4", ids.clone()), Some("table4"));
        assert_eq!(closest("fig22", ids.clone()), Some("fig2"));
        assert_eq!(closest("predictor-tournement", ids.clone()), Some("predictor-tournament"));
        assert_eq!(closest("predictor_tournament", ids.clone()), Some("predictor-tournament"));
        assert_eq!(closest("completely-unrelated", ids), None);
    }

    #[test]
    fn tournament_spec_runs_and_caches() {
        let dir = std::env::temp_dir().join(format!("zbp-registry-tour-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = find("predictor-tournament").unwrap();
        let opts = ExperimentOptions::quick(2_000, 3);
        let cold = spec.run(&opts, &CellCache::at(&dir));
        assert_eq!(cold.manifest.cells, 13 * 5);
        assert_eq!(cold.manifest.cache_hits, 0);
        for backend in ["paper", "two-bit", "two-level-local", "gshare", "tage"] {
            assert!(cold.pretty.contains(backend), "report must mention {backend}");
        }
        assert!(cold.pretty.contains("H2P top offenders"));
        assert!(cold.csv.as_deref().unwrap_or("").contains("dir_mpki"));
        let warm = spec.run(&opts, &CellCache::at(&dir));
        assert_eq!(warm.manifest.cache_hits, 13 * 5);
        assert_eq!(
            strip_volatile(&cold.artifact()),
            strip_volatile(&warm.artifact()),
            "cached tournament rerun must be bit-identical modulo volatile fields"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn simpoint_spec_runs_and_caches() {
        let dir = std::env::temp_dir().join(format!("zbp-registry-sp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = find("simpoint").unwrap();
        let opts = ExperimentOptions::quick(150_000, 3);
        let cold = spec.run(&opts, &CellCache::at(&dir));
        assert_eq!(cold.manifest.cells, 3);
        assert_eq!(cold.manifest.cache_hits, 0);
        assert!(cold.pretty.contains("maximum weighted-CPI error"));
        assert!(cold.csv.as_deref().unwrap_or("").contains("cpi_err_pct"));
        let warm = spec.run(&opts, &CellCache::at(&dir));
        assert_eq!(warm.manifest.cache_hits, 3);
        assert_eq!(
            strip_volatile(&cold.artifact()),
            strip_volatile(&warm.artifact()),
            "cached simpoint rerun must be bit-identical modulo volatile fields"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn opts_sources_override_the_spec_workloads() {
        // Any registered grid runs over substituted sources; the
        // manifest records the substitution.
        let mut opts = ExperimentOptions::quick(2_000, 3);
        opts.sources = vec![WorkloadSource::from(WorkloadProfile::tpf_airline())];
        let run = find("fig2").unwrap().run(&opts, &CellCache::disabled());
        assert_eq!(run.manifest.trace_lens.len(), 1);
        assert_eq!(run.manifest.trace_lens[0].0, "TPF airline reservations");
        assert_eq!(run.manifest.cells, 3, "1 workload x 3 table-3 configs");
        assert_eq!(
            run.manifest.workload_sources,
            Some(vec!["synthetic:TPF airline reservations".into()])
        );
    }

    #[test]
    fn edit_distance_basics() {
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("fig2", "fig2"), 0);
    }

    #[test]
    fn running_a_spec_stamps_a_manifest() {
        let spec = find("fig4").unwrap();
        let opts = ExperimentOptions::quick(4_000, 3);
        let run = spec.run(&opts, &CellCache::disabled());
        assert_eq!(run.manifest.experiment, "fig4");
        assert_eq!(run.manifest.schema_version, MANIFEST_SCHEMA_VERSION);
        assert_eq!(run.manifest.seed, 3);
        assert_eq!(run.manifest.len_cap, Some(4_000));
        assert_eq!(run.manifest.cells, 2);
        assert_eq!(run.manifest.cache_hits, 0);
        assert_eq!(run.manifest.trace_lens.len(), 1);
        assert_eq!(
            run.manifest.workload_sources,
            Some(vec!["synthetic:Z/OS DayTrader DBServ".into()]),
            "manifests must record where every workload came from"
        );
        assert!(!run.pretty.is_empty());
        assert!(run.artifact().get("manifest").is_some());
        assert!(run.artifact().get("data").is_some());
    }

    #[test]
    fn stats_spec_runs_and_caches() {
        let dir = std::env::temp_dir().join(format!("zbp-registry-stats-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = find("table4").unwrap();
        let opts = ExperimentOptions::quick(3_000, 5);
        let cold = spec.run(&opts, &CellCache::at(&dir));
        assert_eq!(cold.manifest.cells, 13);
        assert_eq!(cold.manifest.cache_hits, 0);
        let warm = spec.run(&opts, &CellCache::at(&dir));
        assert_eq!(warm.manifest.cache_hits, 13);
        assert_eq!(
            strip_volatile(&cold.artifact()),
            strip_volatile(&warm.artifact()),
            "cached Table-4 rerun must be bit-identical modulo volatile fields"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn strip_volatile_removes_only_timing_fields() {
        let spec = find("fig4").unwrap();
        let run = spec.run(&ExperimentOptions::quick(2_000, 1), &CellCache::disabled());
        let stripped = strip_volatile(&run.artifact());
        let manifest = stripped.get("manifest").unwrap();
        for field in VOLATILE_MANIFEST_FIELDS {
            assert!(manifest.get(field).is_none(), "{field} must be stripped");
        }
        for field in ["experiment", "schema_version", "seed", "trace_lens", "cells"] {
            assert!(manifest.get(field).is_some(), "{field} must survive");
        }
        assert_eq!(stripped.get("data"), run.artifact().get("data"));
    }

    #[test]
    fn manifest_round_trips_through_json() {
        let m = Manifest {
            experiment: "fig2".into(),
            schema_version: MANIFEST_SCHEMA_VERSION,
            seed: 0xEC12,
            len_cap: None,
            trace_lens: vec![("a".into(), 10)],
            git_revision: "unknown".into(),
            wall_time_ms: 12,
            generated_unix: 34,
            cells: 39,
            cache_hits: 7,
            trace_store_hits: Some(13),
            trace_store_misses: Some(0),
            workload_sources: Some(vec![
                "synthetic:a".into(),
                "external:t.zbxt@fnv=00000000deadbeef".into(),
            ]),
        };
        let back: Manifest = json::from_str(&json::to_string(&m)).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn manifest_without_store_fields_still_parses() {
        // Pre-store (v0) and pre-workload-source (v1) artifacts lack
        // the trace_store_* / workload_sources keys; they must read
        // back as None, keeping committed results and history JSONL
        // lines loadable.
        let m = Manifest {
            experiment: "fig2".into(),
            schema_version: 1,
            seed: 1,
            len_cap: Some(5),
            trace_lens: vec![],
            git_revision: "unknown".into(),
            wall_time_ms: 0,
            generated_unix: 0,
            cells: 1,
            cache_hits: 0,
            trace_store_hits: None,
            trace_store_misses: None,
            workload_sources: None,
        };
        let rendered = json::to_string(&m);
        let pruned: String = rendered
            .replace(",\"trace_store_hits\":null", "")
            .replace(",\"trace_store_misses\":null", "")
            .replace(",\"workload_sources\":null", "");
        assert!(!pruned.contains("workload_sources"), "v1 manifest must lack the field");
        let back: Manifest = json::from_str(&pruned).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn registry_run_stamps_trace_store_stats() {
        let dir = std::env::temp_dir().join(format!("zbp-registry-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let spec = find("fig2").unwrap();
        let mut opts = ExperimentOptions::quick(2_000, 1);
        assert!(
            spec.run(&opts, &CellCache::disabled()).manifest.trace_store_hits.is_none(),
            "no store attached, no stats stamped"
        );
        opts.trace_store = std::sync::Arc::new(zbp_trace::TraceStore::at(&dir));
        let cold = spec.run(&opts, &CellCache::disabled());
        let workloads = cold.manifest.trace_lens.len() as u64;
        assert_eq!(cold.manifest.trace_store_hits, Some(0));
        assert_eq!(cold.manifest.trace_store_misses, Some(workloads));
        let warm = spec.run(&opts, &CellCache::disabled());
        assert_eq!(warm.manifest.trace_store_hits, Some(workloads));
        assert_eq!(warm.manifest.trace_store_misses, Some(0));
        assert_eq!(
            strip_volatile(&cold.artifact()),
            strip_volatile(&warm.artifact()),
            "store-loaded replay must be bit-identical"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
