//! Typed experiment results and the post-processing that computes them.
//!
//! Each paper table/figure is *declared* in [`crate::registry`] as an
//! [`crate::registry::ExperimentSpec`] (workloads × configurations ×
//! post-processing); this module owns the typed row structures those
//! experiments produce, the configuration variants their grids sweep
//! and the grid→rows post-processing functions the registry applies.
//! It also owns the run options every front end shares: the
//! environment knobs ([`ExperimentOptions::from_env`]) and the
//! command-line flags layered over them ([`RunFlags`]).

use crate::config::SimConfig;
use crate::report::ImprovementRow;
use crate::session::SessionGrid;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use zbp_predictor::exclusive::ExclusivityPolicy;
use zbp_predictor::tracker::FilterMode;
use zbp_predictor::PredictorConfig;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, CompactTrace, TraceStats, TraceStore};
use zbp_uarch::classify::OutcomeCounts;
use zbp_uarch::core::{CoreModel, LaneGroup};

/// Global experiment options.
#[derive(Debug, Clone)]
pub struct ExperimentOptions {
    /// Cap on dynamic instructions per workload (`None` = profile
    /// default).
    pub len: Option<u64>,
    /// Workload synthesis seed.
    pub seed: u64,
    /// Cap on worker threads for the parallel grid fan-out (`None` =
    /// machine parallelism).
    pub workers: Option<usize>,
    /// Cell-cache directory override (`None` = the front end's default,
    /// `results/cache/` for the CLI and the daemon).
    pub cache_dir: Option<PathBuf>,
    /// Persistent compact-trace store. Disabled by default; the CLI
    /// roots it at `results/traces/`. Shared via `Arc` so every session
    /// an experiment builds accumulates hit/miss counters on the same
    /// store, which the registry stamps into the manifest.
    pub trace_store: Arc<TraceStore>,
    /// Workload-source override: when non-empty, experiments run over
    /// these sources (typically ingested external traces) instead of
    /// the spec's built-in synthetic workloads. Filled by the CLI's
    /// repeatable `--trace FILE` flag or `ZBP_TRACES`.
    pub sources: Vec<WorkloadSource>,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        Self {
            len: None,
            seed: 0xEC12,
            workers: None,
            cache_dir: None,
            trace_store: Arc::new(TraceStore::disabled()),
            sources: Vec::new(),
        }
    }
}

// The trace store carries live counters; options equality is about the
// *configuration*, so stores compare by directory and mode.
impl PartialEq for ExperimentOptions {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len
            && self.seed == other.seed
            && self.workers == other.workers
            && self.cache_dir == other.cache_dir
            && self.trace_store.dir() == other.trace_store.dir()
            && self.trace_store.reads() == other.trace_store.reads()
            && self.sources.len() == other.sources.len()
            && self.sources.iter().zip(&other.sources).all(|(a, b)| a == b)
    }
}

impl Eq for ExperimentOptions {}

impl ExperimentOptions {
    /// Convenience constructor for tests and examples: a capped, seeded
    /// run with default workers and no cache override.
    pub fn quick(len: u64, seed: u64) -> Self {
        Self { len: Some(len), seed, ..Self::default() }
    }

    /// Reads `ZBP_TRACE_LEN`, `ZBP_SEED`, `ZBP_WORKERS`,
    /// `ZBP_CACHE_DIR`, `ZBP_TRACE_STORE`,
    /// `ZBP_FRESH_TRACES` and `ZBP_TRACES` (a comma-separated list of
    /// external trace files to ingest as the workload set) from the
    /// environment.
    ///
    /// # Errors
    ///
    /// Unparsable values are an error, not a silent fallback — a typo'd
    /// `ZBP_TRACE_LEN=50k` must not quietly run the full-length
    /// experiment. Values go through the same validators as the
    /// [`RunFlags`]: seeds accept decimal or `0x`-prefixed hex, and
    /// worker counts must be at least 1.
    pub fn from_env() -> Result<Self, String> {
        let fresh = match env_nonempty("ZBP_FRESH_TRACES").as_deref() {
            None | Some("0") | Some("false") => false,
            Some("1") | Some("true") => true,
            Some(v) => return Err(format!("ZBP_FRESH_TRACES={v:?}: expected 0/1/true/false")),
        };
        let store = match env_nonempty("ZBP_TRACE_STORE") {
            Some(v) => trace_store(v, fresh),
            None if fresh => {
                return Err("ZBP_FRESH_TRACES=1 requires ZBP_TRACE_STORE to be set".into())
            }
            None => TraceStore::disabled(),
        };
        Ok(Self {
            len: env_parsed("ZBP_TRACE_LEN", parse_len)?,
            seed: env_parsed("ZBP_SEED", parse_seed)?.unwrap_or(Self::default().seed),
            workers: env_parsed("ZBP_WORKERS", parse_count)?,
            cache_dir: env_nonempty("ZBP_CACHE_DIR").map(PathBuf::from),
            trace_store: Arc::new(store),
            sources: env_nonempty("ZBP_TRACES")
                .map_or(Ok(Vec::new()), |v| {
                    v.split(',')
                        .map(str::trim)
                        .filter(|p| !p.is_empty())
                        .map(WorkloadSource::ingest)
                        .collect::<Result<_, _>>()
                })
                .map_err(|e| format!("ZBP_TRACES: {e}"))?,
        })
    }

    /// [`Self::from_env`] for contexts without error plumbing (bench
    /// targets, tests): panics with the parse error instead of running
    /// the wrong experiment.
    pub fn from_env_or_panic() -> Self {
        Self::from_env().unwrap_or_else(|e| panic!("invalid experiment environment: {e}"))
    }

    /// Effective length for a profile.
    pub fn len_for(&self, p: &WorkloadProfile) -> u64 {
        self.len.map_or(p.default_len, |l| l.min(p.default_len))
    }

    /// Effective length for any workload source.
    pub fn len_for_source(&self, s: &WorkloadSource) -> u64 {
        let d = s.default_len();
        self.len.map_or(d, |l| l.min(d))
    }
}

/// The command-line flags `zbp-cli` and `zbp-serve` share, layered over
/// the environment by [`RunFlags::resolve`]: a flag always overrides
/// the matching `ZBP_*` variable.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RunFlags {
    /// `--len <N>`: dynamic instruction cap per workload.
    pub len: Option<u64>,
    /// `--seed <N>`: workload synthesis seed, decimal or `0x`-hex.
    pub seed: Option<u64>,
    /// `--workers <N>`: parallel fan-out cap (at least 1).
    pub workers: Option<usize>,
    /// `--cache-dir <DIR>`: cell-cache directory.
    pub cache_dir: Option<PathBuf>,
    /// `--trace-store <DIR>`: compact-trace store directory.
    pub trace_store: Option<PathBuf>,
    /// `--fresh-traces`: regenerate every trace, refreshing the store.
    pub fresh_traces: bool,
}

impl RunFlags {
    /// Every flag [`Self::take`] accepts.
    pub const NAMES: [&'static str; 6] =
        ["--len", "--seed", "--workers", "--cache-dir", "--trace-store", "--fresh-traces"];

    /// Parses `flag` if it is one of [`Self::NAMES`], pulling its value
    /// (if it takes one) from `value`. Returns `Ok(false)` for any other
    /// flag, leaving it to the caller.
    ///
    /// # Errors
    ///
    /// A missing value (whatever `value` reports) or one the shared
    /// validators reject: `--workers 0` is an error, as `ZBP_WORKERS=0`
    /// is.
    pub fn take(
        &mut self,
        flag: &str,
        value: impl FnOnce() -> Result<String, String>,
    ) -> Result<bool, String> {
        fn parsed<T>(
            flag: &str,
            value: impl FnOnce() -> Result<String, String>,
            parse: fn(&str) -> Result<T, String>,
        ) -> Result<Option<T>, String> {
            let v = value()?;
            parse(&v).map(Some).map_err(|e| format!("{flag} {v:?}: {e}"))
        }
        match flag {
            "--len" => self.len = parsed(flag, value, parse_len)?,
            "--seed" => self.seed = parsed(flag, value, parse_seed)?,
            "--workers" => self.workers = parsed(flag, value, parse_count)?,
            "--cache-dir" => self.cache_dir = Some(value()?.into()),
            "--trace-store" => self.trace_store = Some(value()?.into()),
            "--fresh-traces" => self.fresh_traces = true,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// [`ExperimentOptions::from_env`] with these flags on top, plus the
    /// defaults of a run that persists its work: the cell cache at
    /// `results_dir()/cache` and, when neither `--trace-store` nor
    /// `ZBP_TRACE_STORE` names one, the trace store at
    /// `results_dir()/traces`. `--fresh-traces` makes whichever store
    /// results write-only.
    ///
    /// # Errors
    ///
    /// Whatever [`ExperimentOptions::from_env`] rejects.
    pub fn resolve(&self) -> Result<ExperimentOptions, String> {
        Ok(self.apply(ExperimentOptions::from_env()?))
    }

    fn apply(&self, mut opts: ExperimentOptions) -> ExperimentOptions {
        opts.len = self.len.or(opts.len);
        opts.seed = self.seed.unwrap_or(opts.seed);
        opts.workers = self.workers.or(opts.workers);
        let cache_dir = self.cache_dir.clone().or(opts.cache_dir);
        opts.cache_dir = Some(cache_dir.unwrap_or_else(|| results_dir().join("cache")));
        if self.trace_store.is_some() || self.fresh_traces || !opts.trace_store.is_enabled() {
            let dir = self
                .trace_store
                .clone()
                .or_else(|| opts.trace_store.dir().map(Path::to_path_buf))
                .unwrap_or_else(|| results_dir().join("traces"));
            opts.trace_store = Arc::new(trace_store(dir, self.fresh_traces));
        }
        opts
    }
}

/// Directory the front ends write artifacts (and, by default, the cell
/// cache and trace store) under: `$ZBP_RESULTS_DIR`, else `results`.
pub fn results_dir() -> PathBuf {
    std::env::var("ZBP_RESULTS_DIR").map_or_else(|_| PathBuf::from("results"), PathBuf::from)
}

fn trace_store(dir: impl Into<PathBuf>, fresh: bool) -> TraceStore {
    if fresh {
        TraceStore::write_only(dir)
    } else {
        TraceStore::at(dir)
    }
}

fn env_nonempty(name: &str) -> Option<String> {
    std::env::var(name).ok().map(|v| v.trim().to_string()).filter(|v| !v.is_empty())
}

fn env_parsed<T>(name: &str, parse: fn(&str) -> Result<T, String>) -> Result<Option<T>, String> {
    env_nonempty(name).map(|v| parse(&v).map_err(|e| format!("{name}={v:?}: {e}"))).transpose()
}

/// Parses a seed as decimal or `0x`-prefixed hex.
pub fn parse_seed(text: &str) -> Result<u64, String> {
    let parsed = match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16),
        None => text.parse::<u64>(),
    };
    parsed.map_err(|e| format!("not a valid seed: {e}"))
}

/// Parses a dynamic instruction count.
fn parse_len(text: &str) -> Result<u64, String> {
    text.parse().map_err(|e| format!("not a valid length: {e}"))
}

/// Parses a worker or pool count: a positive integer. Zero is
/// rejected rather than read as "uncapped".
pub fn parse_count(text: &str) -> Result<usize, String> {
    match text.parse::<usize>() {
        Ok(0) => Err("must be at least 1".into()),
        Ok(n) => Ok(n),
        Err(e) => Err(format!("not a valid count: {e}")),
    }
}

// ---------------------------------------------------------------------------
// Figure 2
// ---------------------------------------------------------------------------

/// Figure-2 post-processing: per-trace CPI rows out of a Table-3 grid
/// (configurations in Table-3 order: baseline, BTB2, large BTB1).
pub fn fig2_rows(grid: &SessionGrid) -> Vec<ImprovementRow> {
    let [base, btb2, large] = [&grid.configs()[0], &grid.configs()[1], &grid.configs()[2]];
    grid.workloads()
        .iter()
        .map(|w| ImprovementRow {
            trace: w.clone(),
            baseline_cpi: grid.cpi(w, base),
            btb2_cpi: grid.cpi(w, btb2),
            large_btb1_cpi: grid.cpi(w, large),
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 3
// ---------------------------------------------------------------------------

/// One hardware-workload measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure3Row {
    /// Workload name.
    pub workload: String,
    /// CPI improvement (%) from enabling the BTB2.
    pub improvement: f64,
}

/// Figure-3 post-processing: per-workload improvement of configuration
/// 2 over configuration 1 (grid configurations: baseline then BTB2).
pub fn fig3_rows(grid: &SessionGrid) -> Vec<Figure3Row> {
    let (base, btb2) = (&grid.configs()[0], &grid.configs()[1]);
    grid.workloads()
        .iter()
        .map(|w| Figure3Row { workload: w.clone(), improvement: grid.improvement(w, btb2, base) })
        .collect()
}

// ---------------------------------------------------------------------------
// Figure 4
// ---------------------------------------------------------------------------

/// Bad-branch-outcome percentages for one configuration (Figure 4 bars).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OutcomePercents {
    /// Dynamic mispredictions (direction + target), % of all outcomes.
    pub mispredicted: f64,
    /// Compulsory bad surprises, %.
    pub compulsory: f64,
    /// Latency bad surprises, %.
    pub latency: f64,
    /// Capacity bad surprises, %.
    pub capacity: f64,
}

impl OutcomePercents {
    /// Computes percentages from raw counts.
    pub fn from_counts(o: &OutcomeCounts) -> Self {
        let b = o.branches.max(1) as f64;
        Self {
            mispredicted: 100.0 * (o.mispredict_direction + o.mispredict_target) as f64 / b,
            compulsory: 100.0 * o.surprise_compulsory as f64 / b,
            latency: 100.0 * o.surprise_latency as f64 / b,
            capacity: 100.0 * o.surprise_capacity as f64 / b,
        }
    }

    /// Total bad-outcome percentage.
    pub fn total(&self) -> f64 {
        self.mispredicted + self.compulsory + self.latency + self.capacity
    }
}

/// Figure 4 result: breakdowns with and without the BTB2.
#[derive(Debug, Clone, PartialEq)]
pub struct Figure4Result {
    /// Workload used (the paper uses z/OS DayTrader DBServ).
    pub workload: String,
    /// Configuration 1 (no BTB2) breakdown.
    pub without_btb2: OutcomePercents,
    /// Configuration 2 (BTB2 enabled) breakdown.
    pub with_btb2: OutcomePercents,
    /// CPI improvement (%) between the two runs.
    pub improvement: f64,
}

/// Figure-4 post-processing over a 1-workload × (baseline, BTB2) grid.
pub fn fig4_result(grid: &SessionGrid) -> Figure4Result {
    let workload = grid.workloads()[0].clone();
    let (base, btb2) = (&grid.configs()[0], &grid.configs()[1]);
    let (without, with) = (grid.result(&workload, base), grid.result(&workload, btb2));
    Figure4Result {
        without_btb2: OutcomePercents::from_counts(&without.core.outcomes),
        with_btb2: OutcomePercents::from_counts(&with.core.outcomes),
        improvement: with.improvement_over(without),
        workload,
    }
}

// ---------------------------------------------------------------------------
// Figures 5, 6, 7 (sweeps)
// ---------------------------------------------------------------------------

/// Figure-5 sweep variants: BTB2 capacities (`0` = disabled baseline).
pub fn fig5_variants(sizes: &[u32]) -> Vec<(String, PredictorConfig)> {
    sizes
        .iter()
        .map(|&s| {
            let label = if s == 0 { "disabled".to_string() } else { format!("{}k", s / 1024) };
            (label, PredictorConfig::zec12().with_btb2_entries(s))
        })
        .collect()
}

/// Default Figure 5 sizes: 6 k – 96 k entries.
pub const FIGURE5_SIZES: [u32; 5] = [6 * 1024, 12 * 1024, 24 * 1024, 48 * 1024, 96 * 1024];

/// Figure-6 sweep variants: perceived-miss search limits.
pub fn fig6_variants(limits: &[u32]) -> Vec<(String, PredictorConfig)> {
    limits
        .iter()
        .map(|&l| {
            let mut cfg = PredictorConfig::zec12();
            cfg.miss_search_limit = l;
            (format!("{l} searches"), cfg)
        })
        .collect()
}

/// Default Figure 6 miss-definition sweep.
pub const FIGURE6_LIMITS: [u32; 6] = [1, 2, 3, 4, 6, 8];

/// Figure-7 sweep variants: BTB2 search tracker counts.
pub fn fig7_variants(counts: &[usize]) -> Vec<(String, PredictorConfig)> {
    counts
        .iter()
        .map(|&n| {
            let mut cfg = PredictorConfig::zec12();
            cfg.trackers = n;
            (format!("{n} trackers"), cfg)
        })
        .collect()
}

/// Default Figure 7 tracker sweep.
pub const FIGURE7_TRACKERS: [usize; 6] = [1, 2, 3, 4, 6, 8];

// ---------------------------------------------------------------------------
// Table 4
// ---------------------------------------------------------------------------

/// One row of the Table-4 reproduction: target vs measured footprint.
#[derive(Debug, Clone, PartialEq)]
pub struct Table4Row {
    /// Trace name.
    pub trace: String,
    /// Paper's unique branch addresses.
    pub target_branches: u32,
    /// Measured unique branch addresses in the synthesized trace.
    pub measured_branches: u64,
    /// Paper's unique taken branch addresses.
    pub target_taken: u32,
    /// Measured unique taken addresses.
    pub measured_taken: u64,
    /// Dynamic instructions measured.
    pub instructions: u64,
}

/// Table-4 post-processing: pairs each source's published footprint
/// targets with the measured statistics of its trace. External sources
/// carry no published targets (they report 0).
pub fn table4_rows(sources: &[WorkloadSource], stats: &[TraceStats]) -> Vec<Table4Row> {
    sources
        .iter()
        .zip(stats)
        .map(|(src, s)| Table4Row {
            trace: src.name().to_string(),
            target_branches: src.unique_branches(),
            measured_branches: s.unique_branches,
            target_taken: src.unique_taken(),
            measured_taken: s.unique_taken,
            instructions: s.instructions,
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Ablations (§3.3, §3.5, §3.7 design choices)
// ---------------------------------------------------------------------------

/// Ablation-A sweep variants: exclusivity policies of §3.3.
pub fn exclusivity_variants() -> Vec<(String, PredictorConfig)> {
    [
        ("semi-exclusive", ExclusivityPolicy::SemiExclusive),
        ("true-exclusive", ExclusivityPolicy::TrueExclusive),
        ("inclusive", ExclusivityPolicy::Inclusive),
    ]
    .into_iter()
    .map(|(name, policy)| {
        let mut cfg = PredictorConfig::zec12();
        cfg.exclusivity = policy;
        (name.to_string(), cfg)
    })
    .collect()
}

/// Ablation-B sweep variants: §3.7 transfer steering on vs off.
pub fn steering_variants() -> Vec<(String, PredictorConfig)> {
    [true, false]
        .into_iter()
        .map(|on| {
            let mut cfg = PredictorConfig::zec12();
            cfg.steering = on;
            (if on { "steered" } else { "sequential" }.to_string(), cfg)
        })
        .collect()
}

/// Ablation-C sweep variants: §3.5 I-cache-miss filter modes.
pub fn filter_variants() -> Vec<(String, PredictorConfig)> {
    [
        ("partial (shipped)", FilterMode::Partial),
        ("no filter (all full)", FilterMode::Off),
        ("hard filter (drop)", FilterMode::Drop),
    ]
    .into_iter()
    .map(|(name, mode)| {
        let mut cfg = PredictorConfig::zec12();
        cfg.filter_mode = mode;
        (name.to_string(), cfg)
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Future work (§6): BTB2 congruence-class span
// ---------------------------------------------------------------------------

/// §6 sweep variants: BTB2 congruence-class spans.
pub fn congruence_variants(spans: &[u32]) -> Vec<(String, PredictorConfig)> {
    spans
        .iter()
        .map(|&span| {
            let mut cfg = PredictorConfig::zec12();
            let mut geom = cfg.btb2.expect("zec12 has a BTB2");
            geom.line_bytes = span;
            cfg.btb2 = Some(geom);
            (format!("{span} B rows"), cfg)
        })
        .collect()
}

/// Default §6 congruence spans.
pub const CONGRUENCE_SPANS: [u32; 3] = [32, 64, 128];

// ---------------------------------------------------------------------------
// Future work (§6): miss definition events and multi-block transfers
// ---------------------------------------------------------------------------

/// §6 sweep variants: perceived-miss detection events.
pub fn miss_detection_variants() -> Vec<(String, PredictorConfig)> {
    use zbp_predictor::miss::MissDetection;
    [
        ("search limit (shipped)", MissDetection::SearchLimit),
        ("decode surprise", MissDetection::DecodeSurprise),
        ("both", MissDetection::Both),
    ]
    .into_iter()
    .map(|(name, detection)| {
        let mut cfg = PredictorConfig::zec12();
        cfg.miss_detection = detection;
        (name.to_string(), cfg)
    })
    .collect()
}

/// §6 sweep variants: single vs chained multi-block transfers.
pub fn multiblock_variants() -> Vec<(String, PredictorConfig)> {
    [false, true]
        .into_iter()
        .map(|on| {
            let mut cfg = PredictorConfig::zec12();
            cfg.multi_block_transfer = on;
            (if on { "single + chained block" } else { "single block (shipped)" }.to_string(), cfg)
        })
        .collect()
}

/// §6 sweep variants: SRAM vs eDRAM second-level trade-offs.
pub fn edram_variants() -> Vec<(String, PredictorConfig)> {
    [
        ("SRAM 24k @ 8 cycles (shipped)", 24u32 * 1024, 8u64),
        ("eDRAM 48k @ 16 cycles", 48 * 1024, 16),
        ("eDRAM 96k @ 20 cycles", 96 * 1024, 20),
    ]
    .into_iter()
    .map(|(name, entries, latency)| {
        let mut cfg = PredictorConfig::zec12().with_btb2_entries(entries);
        cfg.timing.btb2_latency = latency;
        (name.to_string(), cfg)
    })
    .collect()
}

// ---------------------------------------------------------------------------
// Ablation D: wrong-path fetch modeling (§4 methodology)
// ---------------------------------------------------------------------------

/// One wrong-path-modeling measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct WrongPathRow {
    /// Whether wrong-path fetch was modelled.
    pub wrong_path: bool,
    /// Average BTB2 CPI improvement over the no-BTB2 baseline (%).
    pub avg_improvement: f64,
    /// Average wrong-path lines fetched per 1k instructions (BTB2 run).
    pub wrong_path_lines_per_kilo_instr: f64,
}

/// The 2 × 2 wrong-path configuration matrix, in grid column order:
/// (baseline, BTB2) without wrong-path fetch, then the same pair with it.
pub fn wrongpath_configs() -> Vec<SimConfig> {
    [false, true]
        .into_iter()
        .flat_map(|wp| {
            [SimConfig::no_btb2(), SimConfig::btb2_enabled()].map(|mut cfg| {
                cfg.uarch.wrong_path_fetch = wp;
                if wp {
                    cfg.name = format!("{} + wrong path", cfg.name);
                }
                cfg
            })
        })
        .collect()
}

/// Wrong-path post-processing over the [`wrongpath_configs`] grid: one
/// row per modelling mode, averaging the BTB2's benefit and the
/// wrong-path fetch traffic across all workloads.
pub fn wrongpath_rows(grid: &SessionGrid) -> Vec<WrongPathRow> {
    let configs = grid.configs();
    [false, true]
        .into_iter()
        .zip([(0usize, 1usize), (2, 3)])
        .map(|(wp, (base_col, btb2_col))| {
            let (base, btb2) = (&configs[base_col], &configs[btb2_col]);
            let (mut improvements, mut lines) = (Vec::new(), Vec::new());
            for w in grid.workloads() {
                let b = grid.result(w, btb2);
                improvements.push(b.improvement_over(grid.result(w, base)));
                lines.push(
                    1000.0 * b.core.icache.wrong_path_fetches as f64
                        / b.core.instructions.max(1) as f64,
                );
            }
            WrongPathRow {
                wrong_path: wp,
                avg_improvement: crate::report::mean(&improvements),
                wrong_path_lines_per_kilo_instr: crate::report::mean(&lines),
            }
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Comparison baseline: Phantom-BTB (§2 related work)
// ---------------------------------------------------------------------------

/// §2 comparison variants: dedicated BTB2 vs virtualized Phantom-BTB.
pub fn phantom_variants() -> Vec<(String, PredictorConfig)> {
    vec![
        ("bulk preload BTB2 (zEC12)".to_string(), PredictorConfig::zec12()),
        ("phantom BTB (virtualized)".to_string(), PredictorConfig::phantom_btb()),
    ]
}

// ---------------------------------------------------------------------------
// Direction-predictor tournament
// ---------------------------------------------------------------------------

/// One workload × backend cell of the direction-predictor tournament.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentCell {
    /// Workload name.
    pub trace: String,
    /// Direction-backend label (the configuration column name).
    pub backend: String,
    /// Direction mispredictions per 1 000 instructions.
    pub dir_mpki: f64,
    /// Cycles per instruction of the cell.
    pub cpi: f64,
}

/// One hard-to-predict branch site: per-backend direction-misprediction
/// counts on the tournament's worst workload for the paper backend.
#[derive(Debug, Clone, PartialEq)]
pub struct H2pRow {
    /// Branch instruction address.
    pub addr: u64,
    /// `(backend, direction mispredictions)` in column order.
    pub counts: Vec<(String, u64)>,
}

/// The full who-wins-where tournament result.
#[derive(Debug, Clone, PartialEq)]
pub struct TournamentReport {
    /// Every workload × backend measurement, workload-major.
    pub cells: Vec<TournamentCell>,
    /// `(workload, backend with the lowest dir-MPKI)` per workload
    /// (ties break toward the earlier configuration column).
    pub winners: Vec<(String, String)>,
    /// `(backend, workloads won)` in configuration-column order.
    pub wins: Vec<(String, u64)>,
    /// Workload with the paper backend's worst dir-MPKI (the H2P probe).
    pub h2p_workload: String,
    /// Top hard-to-predict branch sites of [`Self::h2p_workload`],
    /// ranked by the paper backend's misprediction count.
    pub h2p: Vec<H2pRow>,
}

/// Direction mispredictions per kilo-instruction of one grid cell.
fn dir_mpki(grid: &SessionGrid, workload: &str, config: &str) -> f64 {
    let r = grid.result(workload, config);
    1000.0 * r.core.outcomes.mispredict_direction as f64 / r.core.instructions.max(1) as f64
}

/// Tournament post-processing: per-cell MPKI/CPI rows plus the
/// who-wins-where summary out of a workloads × backends grid.
pub fn tournament_cells(grid: &SessionGrid) -> Vec<TournamentCell> {
    let mut cells = Vec::new();
    for w in grid.workloads() {
        for c in grid.configs() {
            cells.push(TournamentCell {
                trace: w.clone(),
                backend: c.clone(),
                dir_mpki: dir_mpki(grid, w, c),
                cpi: grid.cpi(w, c),
            });
        }
    }
    cells
}

/// The backend with the lowest dir-MPKI per workload (ties break toward
/// the earlier configuration column, so the result is deterministic).
pub fn tournament_winners(grid: &SessionGrid) -> Vec<(String, String)> {
    grid.workloads()
        .iter()
        .map(|w| {
            let best = grid
                .configs()
                .iter()
                .min_by(|a, b| {
                    dir_mpki(grid, w, a).partial_cmp(&dir_mpki(grid, w, b)).expect("finite MPKI")
                })
                .expect("tournament has backends");
            (w.clone(), best.clone())
        })
        .collect()
}

/// Counts workloads won per backend, in configuration-column order.
pub fn tournament_wins(grid: &SessionGrid, winners: &[(String, String)]) -> Vec<(String, u64)> {
    grid.configs()
        .iter()
        .map(|c| (c.clone(), winners.iter().filter(|(_, win)| win == c).count() as u64))
        .collect()
}

/// Replays one workload's compact capture under every backend in one
/// lane group, attributing each direction misprediction to its branch
/// site through the kernel's per-branch hook, and returns the `top`
/// sites ranked by the first (paper) column's count (count descending,
/// address ascending — fully deterministic). The capture is the grid
/// row's, loaded from the trace store when one is attached.
pub fn h2p_offenders(
    source: &WorkloadSource,
    opts: &ExperimentOptions,
    configs: &[SimConfig],
    top: usize,
) -> Vec<H2pRow> {
    use std::collections::HashMap;
    let len = opts.len_for_source(source);
    let compact = opts
        .trace_store
        .load(&source.store_key(opts.seed, len), CompactParts::default())
        .or_else(|_| CompactTrace::capture(&source.build_with_len(opts.seed, len)))
        .expect("workload streams hold only compact-encodable instruction lengths");
    let lanes = configs.iter().map(|c| CoreModel::new(c.uarch, c.predictor.clone())).collect();
    let mut group = LaneGroup::new(lanes);
    let mut per_backend: Vec<HashMap<u64, u64>> = vec![HashMap::new(); configs.len()];
    let mut seen = vec![0u64; configs.len()];
    group.replay_observed(&compact, |lane, branch, model| {
        let mispredicts = model.outcomes().mispredict_direction;
        if mispredicts > seen[lane] {
            seen[lane] = mispredicts;
            *per_backend[lane].entry(branch.addr.raw()).or_insert(0) += 1;
        }
    });
    let paper = &per_backend[0];
    let mut addrs: Vec<u64> = paper.keys().copied().collect();
    addrs.sort_by_key(|a| (std::cmp::Reverse(paper[a]), *a));
    addrs.truncate(top);
    addrs
        .into_iter()
        .map(|addr| H2pRow {
            addr,
            counts: configs
                .iter()
                .zip(&per_backend)
                .map(|(c, m)| (c.name.clone(), m.get(&addr).copied().unwrap_or(0)))
                .collect(),
        })
        .collect()
}

/// Number of hard-to-predict branch sites the tournament reports.
pub const H2P_TOP: usize = 10;

/// Assembles the [`TournamentReport`] from a completed grid: the cell
/// rows, the who-wins-where summary, and the H2P offender table replayed
/// on the workload where the paper backend struggles most.
pub fn tournament_report(
    grid: &SessionGrid,
    sources: &[WorkloadSource],
    configs: &[SimConfig],
    opts: &ExperimentOptions,
) -> TournamentReport {
    let cells = tournament_cells(grid);
    let winners = tournament_winners(grid);
    let wins = tournament_wins(grid, &winners);
    let paper = &grid.configs()[0];
    let h2p_workload = grid
        .workloads()
        .iter()
        .max_by(|a, b| {
            dir_mpki(grid, a, paper).partial_cmp(&dir_mpki(grid, b, paper)).expect("finite MPKI")
        })
        .expect("tournament has workloads")
        .clone();
    let source =
        sources.iter().find(|s| s.name() == h2p_workload).expect("H2P workload is in the grid");
    let h2p = h2p_offenders(source, opts, configs, H2P_TOP);
    TournamentReport { cells, winners, wins, h2p_workload, h2p }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SimSession;

    #[test]
    fn options_defaults_and_len_cap() {
        let o = ExperimentOptions::default();
        assert_eq!(o.seed, 0xEC12);
        assert_eq!(o.workers, None);
        assert_eq!(o.cache_dir, None);
        let p = WorkloadProfile::tpf_airline();
        assert_eq!(o.len_for(&p), p.default_len);
        let capped = ExperimentOptions::quick(10, 1);
        assert_eq!(capped.len_for(&p), 10);
    }

    #[test]
    fn seed_parses_decimal_and_hex() {
        assert_eq!(parse_seed("42").unwrap(), 42);
        assert_eq!(parse_seed("0xEC12").unwrap(), 0xEC12);
        assert_eq!(parse_seed("0Xec12").unwrap(), 0xEC12);
        assert!(parse_seed("12 monkeys").is_err());
        assert!(parse_seed("").is_err());
    }

    fn flags(argv: &str) -> Result<RunFlags, String> {
        let mut flags = RunFlags::default();
        let mut it = argv.split_whitespace();
        while let Some(flag) = it.next() {
            let value =
                || it.next().map(String::from).ok_or_else(|| format!("{flag} needs a value"));
            if !flags.take(flag, value)? {
                return Err(format!("unknown flag {flag}"));
            }
        }
        Ok(flags)
    }

    #[test]
    fn run_flags_parse_and_validate() {
        let f = flags("--len 500 --seed 0x2b --workers 2 --cache-dir c --fresh-traces").unwrap();
        assert_eq!((f.len, f.seed, f.workers), (Some(500), Some(0x2b), Some(2)));
        assert_eq!(f.cache_dir.as_deref(), Some(Path::new("c")));
        assert!(f.fresh_traces);
        for bad in ["--workers 0", "--lanes 2", "--len 12k", "--seed nope", "--workers", "--bogus"]
        {
            assert!(flags(bad).is_err(), "{bad:?} must be rejected");
        }
        let err = flags("--workers 0").unwrap_err();
        assert!(err.contains("--workers") && err.contains("at least 1"), "unexpected: {err}");
        assert_eq!(parse_count("0"), Err("must be at least 1".into()));
    }

    #[test]
    fn run_flags_override_the_environment() {
        let env = ExperimentOptions {
            len: Some(10),
            seed: 1,
            workers: Some(4),
            cache_dir: Some("env-cache".into()),
            trace_store: Arc::new(TraceStore::at("env-store")),
            ..ExperimentOptions::default()
        };
        // No flags: every environment value survives.
        let kept = RunFlags::default().apply(env.clone());
        assert_eq!(kept, env);
        // Every flag wins over its variable, the trace store included.
        let f = flags("--len 20 --seed 2 --workers 1 --cache-dir c --trace-store s").unwrap();
        let o = f.apply(env.clone());
        assert_eq!((o.len, o.seed, o.workers), (Some(20), 2, Some(1)));
        assert_eq!(o.cache_dir.as_deref(), Some(Path::new("c")));
        assert_eq!(o.trace_store.dir(), Some(Path::new("s")));
        assert!(o.trace_store.reads());
        // --fresh-traces alone turns the environment's store write-only.
        let o = flags("--fresh-traces").unwrap().apply(env);
        assert_eq!(o.trace_store.dir(), Some(Path::new("env-store")));
        assert!(!o.trace_store.reads());
        // With neither, the store and the cache default under results_dir().
        let o = RunFlags::default().apply(ExperimentOptions::default());
        assert_eq!(o.trace_store.dir(), Some(results_dir().join("traces").as_path()));
        assert_eq!(o.cache_dir, Some(results_dir().join("cache")));
    }

    #[test]
    fn tournament_covers_every_backend_and_ranks_offenders() {
        let opts = ExperimentOptions::quick(8_000, 7);
        let sources: Vec<WorkloadSource> =
            vec![WorkloadProfile::tpf_airline().into(), WorkloadProfile::zlinux_informix().into()];
        let configs = SimConfig::direction_backends();
        let grid = SimSession::from_options(&opts)
            .workloads(sources.clone())
            .configs(configs.clone())
            .run();
        let report = tournament_report(&grid, &sources, &configs, &opts);
        assert_eq!(report.cells.len(), 2 * configs.len());
        assert!(report.cells.iter().all(|c| c.dir_mpki >= 0.0 && c.cpi > 0.0));
        assert_eq!(report.winners.len(), 2);
        assert_eq!(report.wins.iter().map(|(_, n)| n).sum::<u64>(), 2);
        assert!(sources.iter().any(|s| s.name() == report.h2p_workload));
        assert!(!report.h2p.is_empty(), "short cold runs mispredict somewhere");
        for row in &report.h2p {
            let names: Vec<&str> = row.counts.iter().map(|(b, _)| b.as_str()).collect();
            assert_eq!(names, ["paper", "two-bit", "two-level-local", "gshare", "tage"]);
        }
        let paper_counts: Vec<u64> = report.h2p.iter().map(|r| r.counts[0].1).collect();
        assert!(paper_counts.windows(2).all(|w| w[0] >= w[1]), "ranked by paper count");
        let json = zbp_support::json::to_string(&report);
        let back: TournamentReport = zbp_support::json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }

    #[test]
    fn h2p_table_equals_the_record_step_count() {
        use std::collections::HashMap;
        use zbp_trace::Trace;
        let opts = ExperimentOptions::quick(6_000, 5);
        let configs = SimConfig::direction_backends();
        for profile in [WorkloadProfile::tpf_airline(), WorkloadProfile::zos_trade6()] {
            let source = WorkloadSource::from(profile);
            let table = h2p_offenders(&source, &opts, &configs, usize::MAX);
            let trace = source.build_with_len(opts.seed, opts.len_for_source(&source));
            let by_record: Vec<HashMap<u64, u64>> = configs
                .iter()
                .map(|c| {
                    let mut model = CoreModel::new(c.uarch, c.predictor.clone());
                    let mut counts = HashMap::new();
                    for instr in trace.iter() {
                        let before = model.outcomes().mispredict_direction;
                        model.step(&instr);
                        if model.outcomes().mispredict_direction > before {
                            *counts.entry(instr.addr.raw()).or_insert(0u64) += 1;
                        }
                    }
                    counts
                })
                .collect();
            assert_eq!(table.len(), by_record[0].len(), "{}", source.name());
            assert!(!table.is_empty(), "{} mispredicts somewhere", source.name());
            for row in &table {
                for ((name, n), counts) in row.counts.iter().zip(&by_record) {
                    let expect = counts.get(&row.addr).copied().unwrap_or(0);
                    assert_eq!(*n, expect, "{} {name} @ {:#x}", source.name(), row.addr);
                }
            }
        }
    }

    #[test]
    fn wrongpath_matrix_has_stable_column_order() {
        let configs = wrongpath_configs();
        let names: Vec<&str> = configs.iter().map(|c| c.name.as_str()).collect();
        assert_eq!(
            names,
            ["No BTB2", "BTB2 enabled", "No BTB2 + wrong path", "BTB2 enabled + wrong path"]
        );
        assert!(!configs[0].uarch.wrong_path_fetch);
        assert!(configs[3].uarch.wrong_path_fetch);
    }
}

zbp_support::impl_json_struct!(Figure3Row { workload, improvement });
zbp_support::impl_json_struct!(OutcomePercents { mispredicted, compulsory, latency, capacity });
zbp_support::impl_json_struct!(Figure4Result { workload, without_btb2, with_btb2, improvement });
zbp_support::impl_json_struct!(Table4Row {
    trace,
    target_branches,
    measured_branches,
    target_taken,
    measured_taken,
    instructions,
});
zbp_support::impl_json_struct!(WrongPathRow {
    wrong_path,
    avg_improvement,
    wrong_path_lines_per_kilo_instr,
});
zbp_support::impl_json_struct!(TournamentCell { trace, backend, dir_mpki, cpi });
zbp_support::impl_json_struct!(H2pRow { addr, counts });
zbp_support::impl_json_struct!(TournamentReport { cells, winners, wins, h2p_workload, h2p });
