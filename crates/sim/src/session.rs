//! Batched simulation sessions.
//!
//! A [`SimSession`] describes a workload × configuration grid once and
//! runs it workload-major — rows fan out across workloads through
//! [`par_map`]; the configuration columns within a row batch into one
//! decode-once lane group ([`Simulator::run_configs_compact_lanes`])
//! that replays the row's shared capture with a single trace walk —
//! instead of each experiment hand-rolling its own loop over
//! [`Simulator`]. The resulting [`SessionGrid`] answers the questions
//! every figure asks: the CPI of a cell, or the improvement of one
//! configuration over another on the same workload.
//!
//! Workload synthesis is shared across each row: the workload's
//! instruction stream is captured once into a [`CompactTrace`] (or
//! loaded from the trace store) and every configuration column replays
//! the shared capture — O(W×C) dynamic walks become O(W) walks plus
//! cheap decodes — then the capture is recycled before the next row
//! claims the worker, keeping resident captures bounded by the worker
//! count rather than the grid width. Workloads whose compact capture
//! would exceed the session's byte cap (1 GiB) replay their re-runnable
//! generator per column instead, trading the redundant walks back for
//! flat memory.

use crate::cache::{CellCache, CellKey};
use crate::config::SimConfig;
use crate::experiments::ExperimentOptions;
use crate::parallel::par_map;
use crate::runner::{SimResult, Simulator};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use zbp_support::json::{self, FromJson, Json, ToJson};
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, CompactTrace, TraceStore};
use zbp_uarch::core::CoreResult;

/// Builder for a batched workload × configuration run.
///
/// ```
/// use zbp_sim::session::SimSession;
/// use zbp_sim::SimConfig;
/// use zbp_trace::profile::WorkloadProfile;
///
/// let grid = SimSession::new()
///     .seed(7)
///     .max_len(5_000)
///     .workload(WorkloadProfile::tpf_airline())
///     .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()])
///     .run();
/// let gain = grid.improvement("TPF airline reservations", "BTB2 enabled", "No BTB2");
/// assert!(gain.is_finite());
/// ```
#[derive(Debug, Clone)]
pub struct SimSession {
    seed: u64,
    len: Option<u64>,
    materialize_cap: u64,
    store: Arc<TraceStore>,
    workloads: Vec<WorkloadSource>,
    configs: Vec<SimConfig>,
}

impl Default for SimSession {
    fn default() -> Self {
        Self::new()
    }
}

/// Per-workload cap on a shared compact capture: 1 GiB, far above
/// every Table-4 workload at its default length.
const DEFAULT_MATERIALIZE_CAP: u64 = 1 << 30;

impl SimSession {
    /// An empty session with the default seed and uncapped lengths.
    pub fn new() -> Self {
        let opts = ExperimentOptions::default();
        Self {
            seed: opts.seed,
            len: opts.len,
            materialize_cap: DEFAULT_MATERIALIZE_CAP,
            store: Arc::new(TraceStore::disabled()),
            workloads: Vec::new(),
            configs: Vec::new(),
        }
    }

    /// Takes seed, length cap and trace store from
    /// [`ExperimentOptions`].
    pub fn from_options(opts: &ExperimentOptions) -> Self {
        Self { seed: opts.seed, len: opts.len, store: Arc::clone(&opts.trace_store), ..Self::new() }
    }

    /// Sets the workload synthesis seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Caps dynamic instructions per workload. Each workload runs for
    /// `min(len, profile.default_len)` instructions, matching
    /// [`ExperimentOptions::len_for`].
    #[must_use]
    pub fn max_len(mut self, len: u64) -> Self {
        self.len = Some(len);
        self
    }

    /// Caps the compact bytes one workload's shared capture may occupy.
    /// Workloads over the cap are regenerated per cell instead (`0`
    /// disables sharing entirely), which tests use to drive the
    /// fallback. Defaults to [`DEFAULT_MATERIALIZE_CAP`].
    #[cfg(test)]
    #[must_use]
    pub(crate) fn materialize_cap(mut self, bytes: u64) -> Self {
        self.materialize_cap = bytes;
        self
    }

    /// Attaches a persistent compact-trace store: workload rows load
    /// their capture from disk instead of regenerating it, and freshly
    /// captured rows are persisted for the next run. Store-loaded
    /// replays are bit-identical to generate-and-encode replays (the
    /// store only short-circuits *capture*, never simulation). Rows
    /// over the capture cap bypass the store and regenerate.
    #[must_use]
    pub fn trace_store(mut self, store: Arc<TraceStore>) -> Self {
        self.store = store;
        self
    }

    /// Adds one workload row: a synthetic [`WorkloadProfile`] or any
    /// other [`WorkloadSource`].
    #[must_use]
    pub fn workload(mut self, source: impl Into<WorkloadSource>) -> Self {
        self.workloads.push(source.into());
        self
    }

    /// Adds workload rows.
    #[must_use]
    pub fn workloads<I>(mut self, sources: I) -> Self
    where
        I: IntoIterator,
        I::Item: Into<WorkloadSource>,
    {
        self.workloads.extend(sources.into_iter().map(Into::into));
        self
    }

    /// Adds one configuration column.
    #[must_use]
    pub fn config(mut self, config: SimConfig) -> Self {
        self.configs.push(config);
        self
    }

    /// Adds configuration columns.
    #[must_use]
    pub fn configs(mut self, configs: impl IntoIterator<Item = SimConfig>) -> Self {
        self.configs.extend(configs);
        self
    }

    fn effective_len(&self, s: &WorkloadSource) -> u64 {
        let d = s.default_len();
        self.len.map_or(d, |l| l.min(d))
    }

    /// Runs every workload × configuration cell, workload-major.
    ///
    /// Generate-once: each workload row is synthesized a single time and
    /// captured into a [`CompactTrace`] that every configuration column
    /// of that row replays through one decode-once lane group (rows fan
    /// out across workloads through [`par_map`]). The capture is
    /// recycled as soon as its row completes, so at most one capture
    /// per outer worker is resident — a flat
    /// capture-everything pre-pass holds all rows live at once, which
    /// measurably slows the captures themselves on memory-starved
    /// machines (every buffer is fresh, faulted-in memory instead of
    /// pages recycled from the previous row).
    ///
    /// Workloads whose capture would exceed the byte cap replay their
    /// re-runnable generator directly instead. Either path replays the
    /// identical instruction stream, so results are bit-identical
    /// regardless of the cap.
    pub fn run(&self) -> SessionGrid {
        let pool = CapturePool::default();
        let all: Vec<usize> = (0..self.configs.len()).collect();
        let per_workload: Vec<Vec<CoreResult>> =
            par_map(&self.workloads, |s| self.replay_row(s, self.effective_len(s), &all, &pool));
        self.grid(per_workload.into_iter().flatten().collect())
    }

    /// Replays one workload row across the configuration columns in
    /// `which` (indices into `self.configs`).
    ///
    /// Capture preference order: a trace-store load of the compact
    /// encoding (when a store is attached — skipping generation and
    /// encoding entirely), then a fresh compact capture (persisted to
    /// the store for the next run) when it fits the byte cap, then
    /// per-column generator walks. All three replay the identical
    /// stream bit-identically.
    fn replay_row(
        &self,
        s: &WorkloadSource,
        len: u64,
        which: &[usize],
        pool: &CapturePool,
    ) -> Vec<CoreResult> {
        let mut parts = pool.compact.lock().expect("pool lock").pop().unwrap_or_default();
        let key = self.store.is_enabled().then(|| s.store_key(self.seed, len));
        if let Some(key) = &key {
            match self.store.load(key, parts) {
                // A stored capture over the session's cap replays
                // regenerated instead, as an uncapped store entry must
                // not defeat a deliberately small cap.
                Ok(compact) if compact.bytes() <= self.materialize_cap => {
                    let results = self.replay_compact(&compact, which);
                    if let Some(back) = compact.into_parts() {
                        pool.compact.lock().expect("pool lock").push(back);
                    }
                    return results;
                }
                Ok(compact) => {
                    parts = compact.into_parts().unwrap_or_default();
                }
                Err(back) => parts = back,
            }
        }
        let gen = s.build_with_len(self.seed, len);
        match CompactTrace::capture_within_into(&gen, self.materialize_cap, parts) {
            Ok(compact) => {
                if let Some(key) = &key {
                    self.store.store(key, &compact);
                }
                let results = self.replay_compact(&compact, which);
                if let Some(back) = compact.into_parts() {
                    pool.compact.lock().expect("pool lock").push(back);
                }
                results
            }
            // An over-budget stream walks its generator once per column.
            Err(e) => {
                pool.compact.lock().expect("pool lock").push(e.into_parts());
                par_map(which, |&i| Simulator::run_config(&self.configs[i], &gen).core)
            }
        }
    }

    /// Replays the configuration columns in `which` against one shared
    /// compact capture through the decode-once lane kernel: the row's
    /// distinct columns form one lane group, so the trace is walked and
    /// decoded once per row instead of once per column
    /// ([`Simulator::run_configs_compact_lanes`]).
    ///
    /// Identical columns replay once: columns whose predictor + uarch
    /// JSON is byte-equal — the same identity a [`CellKey`] hashes, so
    /// ablation grids repeating their baseline column collapse — share
    /// a single lane's result.
    fn replay_compact(&self, compact: &CompactTrace, which: &[usize]) -> Vec<CoreResult> {
        let mut distinct: Vec<usize> = Vec::new(); // indices into self.configs
        let mut jsons: Vec<(String, String)> = Vec::new();
        let lane_of: Vec<usize> = which
            .iter()
            .map(|&i| {
                let c = &self.configs[i];
                let key = (json::to_string(&c.predictor), json::to_string(&c.uarch));
                jsons.iter().position(|k| *k == key).unwrap_or_else(|| {
                    jsons.push(key);
                    distinct.push(i);
                    distinct.len() - 1
                })
            })
            .collect();
        let configs: Vec<&SimConfig> = distinct.iter().map(|&i| &self.configs[i]).collect();
        let lane_results = Simulator::run_configs_compact_lanes(&configs, compact);
        lane_of.into_iter().map(|l| lane_results[l].core.clone()).collect()
    }

    /// Enumerates the grid's cells row-major, each with the exact cache
    /// key [`Self::run_cached`] uses for it — the entry point `zbp-serve`
    /// needs to resolve, deduplicate and shard cells individually while
    /// staying bit-compatible with CLI runs over the same cache.
    pub fn cells(&self) -> Vec<SessionCell> {
        let config_jsons: Vec<(String, String)> = self
            .configs
            .iter()
            .map(|c| (json::to_string(&c.predictor), json::to_string(&c.uarch)))
            .collect();
        let mut cells = Vec::with_capacity(self.workloads.len() * self.configs.len());
        for (row, s) in self.workloads.iter().enumerate() {
            let len = self.effective_len(s);
            let source_json = s.key_json();
            for (col, (pred, uarch)) in config_jsons.iter().enumerate() {
                cells.push(SessionCell {
                    row,
                    col,
                    workload: s.name().to_string(),
                    config: self.configs[col].name.clone(),
                    key: CellKey::sim(&source_json, self.seed, len, pred, uarch),
                });
            }
        }
        cells
    }

    /// Computes the configuration columns `cols` (indices into the
    /// session's config list) of workload row `row`, without consulting
    /// any cache: one capture (store-served when a trace store is
    /// attached), lane-batched replay — exactly how a cache miss inside
    /// [`Self::run_cached`] computes, so results are bit-identical to
    /// any other execution path. Panics on out-of-range indices.
    pub fn compute_row(&self, row: usize, cols: &[usize]) -> Vec<CoreResult> {
        let s = &self.workloads[row];
        self.replay_row(s, self.effective_len(s), cols, &CapturePool::default())
    }

    /// [`Self::run`] through a [`CellCache`]: each cell's [`CoreResult`]
    /// is looked up by content hash first, and only the missing columns
    /// of a workload row are simulated (against one shared capture, as
    /// in the uncached path) and stored.
    ///
    /// Every cell — hit or freshly computed — enters the grid in the
    /// form its rendered JSON bytes decode to, so a resumed run is
    /// bit-identical to a fresh one: a hit is decoded straight from the
    /// cache file's text, and a computed cell is round-tripped through
    /// the bytes it is stored as. ([`CoreResult`] is all integers and
    /// strings, so the round-trip is lossless.)
    ///
    /// Cache keys deliberately exclude the configuration's display name:
    /// a sweep variant and a Table-3 column with identical predictor +
    /// front-end configurations share one cache entry, and the result is
    /// re-labelled with the requesting column's name.
    ///
    /// Cold cells are claimed through the cache's advisory claim files
    /// before computing ([`CellCache::try_claim`]): when a concurrent
    /// process (a second CLI run, the `zbp-serve` daemon) already holds
    /// a cell's claim, this run waits for that process's entry instead
    /// of duplicating the work — and recomputes only if the claimant
    /// dies without publishing. Either way the cell's bytes are
    /// identical, so claims shift work, never results.
    pub fn run_cached(&self, cache: &CellCache) -> (SessionGrid, CacheStats) {
        let (cores, stats) = self.run_cached_cells(cache);
        (self.grid(cores), stats)
    }

    /// [`Self::run_cached`] before the grid is assembled: one
    /// [`CoreResult`] per cell, row-major in [`Self::cells`] order.
    pub fn run_cached_cells(&self, cache: &CellCache) -> (Vec<CoreResult>, CacheStats) {
        let hits = AtomicU64::new(0);
        let claims_won = AtomicU64::new(0);
        let claims_lost = AtomicU64::new(0);
        let dedup_served = AtomicU64::new(0);
        let pool = CapturePool::default();
        let config_jsons: Vec<(String, String)> = self
            .configs
            .iter()
            .map(|c| (json::to_string(&c.predictor), json::to_string(&c.uarch)))
            .collect();
        let per_workload: Vec<Vec<CoreResult>> = par_map(&self.workloads, |s| {
            let len = self.effective_len(s);
            let source_json = s.key_json();
            let keys: Vec<CellKey> = config_jsons
                .iter()
                .map(|(pred, uarch)| CellKey::sim(&source_json, self.seed, len, pred, uarch))
                .collect();
            let mut cores: Vec<Option<CoreResult>> =
                keys.iter().map(|k| load_cell(cache, k)).collect();
            hits.fetch_add(cores.iter().flatten().count() as u64, Ordering::Relaxed);
            let missing: Vec<usize> = (0..cores.len()).filter(|&i| cores[i].is_none()).collect();
            if !missing.is_empty() {
                let mut mine: Vec<usize> = Vec::new();
                let mut theirs: Vec<usize> = Vec::new();
                let mut guards = Vec::new();
                for &i in &missing {
                    match cache.try_claim(&keys[i]) {
                        Some(guard) => {
                            guards.push(guard);
                            mine.push(i);
                        }
                        None => theirs.push(i),
                    }
                }
                claims_won.fetch_add(mine.len() as u64, Ordering::Relaxed);
                claims_lost.fetch_add(theirs.len() as u64, Ordering::Relaxed);
                if !mine.is_empty() {
                    let computed = self.replay_row(s, len, &mine, &pool);
                    for (&i, core) in mine.iter().zip(computed) {
                        cores[i] = Some(store_computed(cache, &keys[i], &core));
                    }
                }
                // Claims release only after every result is stored, so
                // a waiter that sees a claim vanish can trust its one
                // final cache look.
                drop(guards);
                let orphaned: Vec<usize> = theirs
                    .into_iter()
                    .filter(|&i| match cache.wait_for(&keys[i]).and_then(|j| decode(&j)) {
                        Some(core) => {
                            dedup_served.fetch_add(1, Ordering::Relaxed);
                            cores[i] = Some(core);
                            false
                        }
                        None => true,
                    })
                    .collect();
                if !orphaned.is_empty() {
                    let computed = self.replay_row(s, len, &orphaned, &pool);
                    for (&i, core) in orphaned.iter().zip(computed) {
                        cores[i] = Some(store_computed(cache, &keys[i], &core));
                    }
                }
            }
            cores.into_iter().map(|core| core.expect("every cell filled")).collect()
        });
        let cells = (self.workloads.len() * self.configs.len()) as u64;
        (
            per_workload.into_iter().flatten().collect(),
            CacheStats {
                cells,
                hits: hits.into_inner(),
                claims_won: claims_won.into_inner(),
                claims_lost: claims_lost.into_inner(),
                dedup_served: dedup_served.into_inner(),
            },
        )
    }

    /// One cell's result as [`Self::run_cached`] would read it: decoded
    /// from its cache entry, or — when the entry is absent or
    /// unreadable — computed alone, stored, and round-tripped. The
    /// per-cell read `zbp-serve` performs once a cell has resolved.
    pub fn cached_cell(&self, cache: &CellCache, cell: &SessionCell) -> CoreResult {
        load_cell(cache, &cell.key).unwrap_or_else(|| {
            let core = &self.compute_row(cell.row, &[cell.col])[0];
            store_computed(cache, &cell.key, core)
        })
    }

    /// Assembles the grid from one [`CoreResult`] per cell, row-major in
    /// [`Self::cells`] order, labelling each with its column's name.
    /// Panics when the count does not match the grid.
    pub fn grid(&self, cores: Vec<CoreResult>) -> SessionGrid {
        assert_eq!(cores.len(), self.workloads.len() * self.configs.len(), "one result per cell");
        let names = self.configs.iter().map(|c| &c.name).cycle();
        SessionGrid {
            workloads: self.workloads.iter().map(|s| s.name().to_string()).collect(),
            configs: self.configs.iter().map(|c| c.name.clone()).collect(),
            results: cores
                .into_iter()
                .zip(names)
                .map(|(core, name)| SimResult { config_name: name.clone(), core })
                .collect(),
        }
    }
}

/// Recycled capture buffers shared across workload rows.
///
/// Captures sit above the allocator's mmap threshold, so dropping one
/// unmaps it and the next row would re-fault every page of a fresh
/// mapping; rows instead return their buffers here.
#[derive(Debug, Default)]
struct CapturePool {
    compact: Mutex<Vec<CompactParts>>,
}

/// Reads one cell's result out of `cache`, decoding the loaded entry
/// directly: it was parsed from the exact bytes the cache file holds,
/// which is all a render→parse round-trip would reproduce.
pub fn load_cell(cache: &CellCache, key: &CellKey) -> Option<CoreResult> {
    cache.load(key).and_then(|entry| decode(&entry))
}

fn decode(entry: &Json) -> Option<CoreResult> {
    CoreResult::from_json(entry).ok()
}

/// Stores a freshly computed cell and returns it as a later read of
/// the stored bytes decodes it, so cold and warm cells are identical.
fn store_computed(cache: &CellCache, key: &CellKey, core: &CoreResult) -> CoreResult {
    let entry = core.to_json();
    cache.store(key, &entry);
    roundtrip(&entry).expect("CoreResult JSON round-trips")
}

/// Normalizes a cell result through its rendered JSON bytes — the form
/// every cache file holds.
fn roundtrip(entry: &Json) -> Option<CoreResult> {
    decode(&Json::parse(&entry.render()).ok()?)
}

/// Cache accounting for one [`SimSession::run_cached`] call.
///
/// The counters reconcile: every cell is either a hit, a claim this run
/// won (and computed), or a claim it lost to a concurrent process —
/// `hits + claims_won + claims_lost == cells` — and lost claims split
/// into `dedup_served` (the claimant's entry arrived) plus recomputes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Total cells in the grid.
    pub cells: u64,
    /// Cells answered from the cache.
    pub hits: u64,
    /// Cold cells this run claimed and computed itself.
    pub claims_won: u64,
    /// Cold cells a concurrent process already held a claim on.
    pub claims_lost: u64,
    /// Lost-claim cells ultimately served from the entry the claim
    /// holder published (the rest were recomputed after the claim died
    /// without one).
    pub dedup_served: u64,
}

impl CacheStats {
    /// Merges accounting from another grid of the same run.
    #[must_use]
    pub fn merged(self, other: Self) -> Self {
        Self {
            cells: self.cells + other.cells,
            hits: self.hits + other.hits,
            claims_won: self.claims_won + other.claims_won,
            claims_lost: self.claims_lost + other.claims_lost,
            dedup_served: self.dedup_served + other.dedup_served,
        }
    }
}

/// One cell of a session's workload × configuration grid, as
/// enumerated by [`SimSession::cells`]: its grid position, display
/// names, and the content-addressed identity [`SimSession::run_cached`]
/// caches it under. This is the unit `zbp-serve` resolves, dedupes and
/// shards.
#[derive(Debug, Clone)]
pub struct SessionCell {
    /// Workload row index.
    pub row: usize,
    /// Configuration column index.
    pub col: usize,
    /// Workload display name.
    pub workload: String,
    /// Configuration display name.
    pub config: String,
    /// Cache identity of the cell.
    pub key: CellKey,
}

/// The results of a [`SimSession`]: one [`SimResult`] per workload ×
/// configuration cell, addressable by name.
#[derive(Debug, Clone)]
pub struct SessionGrid {
    workloads: Vec<String>,
    configs: Vec<String>,
    /// Row-major: `results[w * configs.len() + c]`.
    results: Vec<SimResult>,
}

impl SessionGrid {
    /// Workload names, in insertion order.
    pub fn workloads(&self) -> &[String] {
        &self.workloads
    }

    /// Configuration names, in insertion order.
    pub fn configs(&self) -> &[String] {
        &self.configs
    }

    /// The result for `(workload, config)`, or `None` if either name is
    /// unknown. First match wins for duplicated names.
    pub fn get(&self, workload: &str, config: &str) -> Option<&SimResult> {
        let w = self.workloads.iter().position(|n| n == workload)?;
        let c = self.configs.iter().position(|n| n == config)?;
        self.results.get(w * self.configs.len() + c)
    }

    /// The result for `(workload, config)`; panics if either is unknown.
    pub fn result(&self, workload: &str, config: &str) -> &SimResult {
        self.get(workload, config)
            .unwrap_or_else(|| panic!("no session cell ({workload:?}, {config:?})"))
    }

    /// CPI of one cell.
    pub fn cpi(&self, workload: &str, config: &str) -> f64 {
        self.result(workload, config).cpi()
    }

    /// Percentage CPI improvement of `config` over `baseline` on the same
    /// workload (positive = faster).
    pub fn improvement(&self, workload: &str, config: &str, baseline: &str) -> f64 {
        self.result(workload, config).improvement_over(self.result(workload, baseline))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::profile::WorkloadProfile;

    #[test]
    fn grid_addresses_every_cell_by_name() {
        let grid = SimSession::new()
            .seed(7)
            .max_len(5_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()])
            .run();
        assert_eq!(grid.workloads().len(), 2);
        assert_eq!(grid.configs(), &["No BTB2".to_string(), "BTB2 enabled".to_string()]);
        for w in grid.workloads() {
            for c in grid.configs() {
                assert!(grid.cpi(w, c) > 0.0);
            }
        }
        assert!(grid.get("TPF airline reservations", "nope").is_none());
        assert!(grid.get("nope", "No BTB2").is_none());
        let self_gain = grid.improvement("TPF airline reservations", "No BTB2", "No BTB2");
        assert!(self_gain.abs() < 1e-12, "a config against itself improves 0%");
    }

    #[test]
    fn cached_runs_are_bit_identical_and_hit_on_rerun() {
        let dir = std::env::temp_dir().join(format!("zbp-session-cache-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let session = SimSession::new()
            .seed(5)
            .max_len(6_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        let (cold, s1) = session.run_cached(&CellCache::at(&dir));
        assert_eq!(s1, CacheStats { cells: 4, claims_won: 4, ..Default::default() });
        let (warm, s2) = session.run_cached(&CellCache::at(&dir));
        assert_eq!(s2, CacheStats { cells: 4, hits: 4, ..Default::default() });
        let (uncached, s3) = session.run_cached(&CellCache::disabled());
        assert_eq!(s3.hits, 0);
        let plain = session.run();
        for w in cold.workloads() {
            for c in cold.configs() {
                let cell = cold.result(w, c);
                assert_eq!(cell.core, warm.result(w, c).core, "({w}, {c}) hit diverged");
                assert_eq!(cell.core, uncached.result(w, c).core, "({w}, {c}) nocache diverged");
                assert_eq!(cell.core, plain.result(w, c).core, "({w}, {c}) run() diverged");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn cache_entries_ignore_config_display_names() {
        let dir = std::env::temp_dir().join(format!("zbp-session-rename-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base =
            SimSession::new().seed(9).max_len(5_000).workload(WorkloadProfile::tpf_airline());
        let (_, first) =
            base.clone().config(SimConfig::btb2_enabled()).run_cached(&CellCache::at(&dir));
        assert_eq!(first.hits, 0);
        let (renamed, second) = base
            .config(SimConfig::btb2_enabled().named("24k variant"))
            .run_cached(&CellCache::at(&dir));
        assert_eq!(second.hits, 1, "same predictor+uarch under a new name must hit");
        assert_eq!(renamed.configs(), &["24k variant".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn grid_cells_match_the_generator_oracle() {
        // The shared compact capture and its lane replay must change
        // speed, not predictions: every cell, shared or walked per
        // column over the cap, equals the reference per-instruction
        // replay of the workload's generator.
        let workloads = vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zos_lspr_ims()];
        let configs = vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()];
        let session = SimSession::new()
            .seed(13)
            .max_len(9_000)
            .workloads(workloads.clone())
            .configs(configs.clone());
        let shared = session.clone().run();
        let walked = session.materialize_cap(0).run();
        for p in &workloads {
            let trace = p.build_with_len(13, 9_000.min(p.default_len));
            for c in &configs {
                let oracle = Simulator::run_config(c, &trace).core;
                let (w, n) = (&p.name, &c.name);
                assert_eq!(shared.result(w, n).core, oracle, "({w}, {n}) shared diverged");
                assert_eq!(walked.result(w, n).core, oracle, "({w}, {n}) walked diverged");
            }
        }
    }

    #[test]
    fn duplicate_config_columns_share_one_lane_result() {
        // Byte-equal configs under different display names replay one
        // lane; both columns must carry the identical result, matching
        // a grid without the duplicate.
        let base =
            SimSession::new().seed(9).max_len(6_000).workload(WorkloadProfile::tpf_airline());
        let deduped = base
            .clone()
            .configs(vec![
                SimConfig::btb2_enabled(),
                SimConfig::btb2_enabled().named("baseline repeat"),
                SimConfig::no_btb2(),
            ])
            .run();
        let w = "TPF airline reservations";
        assert_eq!(
            deduped.result(w, "BTB2 enabled").core,
            deduped.result(w, "baseline repeat").core,
            "duplicate columns must share one result"
        );
        let plain = base.configs(vec![SimConfig::btb2_enabled(), SimConfig::no_btb2()]).run();
        assert_eq!(deduped.result(w, "BTB2 enabled").core, plain.result(w, "BTB2 enabled").core);
        assert_eq!(deduped.result(w, "No BTB2").core, plain.result(w, "No BTB2").core);
    }

    #[test]
    fn store_loaded_grids_are_bit_identical_and_hit_on_rerun() {
        let dir = std::env::temp_dir().join(format!("zbp-session-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = SimSession::new()
            .seed(17)
            .max_len(7_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        let plain = base.clone().run();

        let cold_store = Arc::new(TraceStore::at(&dir));
        let cold = base.clone().trace_store(Arc::clone(&cold_store)).run();
        assert_eq!(cold_store.stats().hits, 0);
        assert_eq!(cold_store.stats().misses, 2, "one miss per workload row");

        let warm_store = Arc::new(TraceStore::at(&dir));
        let warm = base.clone().trace_store(Arc::clone(&warm_store)).run();
        assert_eq!(warm_store.stats().hits, 2, "every row loads from the store");
        assert_eq!(warm_store.stats().misses, 0);

        for w in plain.workloads() {
            for c in plain.configs() {
                let cell = plain.result(w, c);
                assert_eq!(cell.core, cold.result(w, c).core, "({w}, {c}) cold diverged");
                assert_eq!(cell.core, warm.result(w, c).core, "({w}, {c}) warm diverged");
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn store_entry_over_session_cap_is_regenerated_bit_identically() {
        // A warm store must not defeat a deliberately small capture
        // cap: the loaded capture is discarded and the row walks its
        // generator per column, still bit-identical.
        let dir = std::env::temp_dir().join(format!("zbp-session-storecap-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let base = SimSession::new()
            .seed(23)
            .max_len(6_000)
            .workload(WorkloadProfile::tpf_airline())
            .configs(vec![SimConfig::no_btb2(), SimConfig::btb2_enabled()]);
        base.clone().trace_store(Arc::new(TraceStore::at(&dir))).run();
        let capped_store = Arc::new(TraceStore::at(&dir));
        let capped = base.clone().trace_store(Arc::clone(&capped_store)).materialize_cap(64).run();
        let plain = base.run();
        for w in plain.workloads() {
            for c in plain.configs() {
                assert_eq!(plain.result(w, c).core, capped.result(w, c).core);
            }
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn loaded_entries_decode_directly_as_their_round_trip() {
        // A cache hit skips the render→parse round-trip that fresh
        // cells take; for every cell the two reads must agree.
        let dir = std::env::temp_dir().join(format!("zbp-session-decode-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cache = CellCache::at(&dir);
        let session = SimSession::new()
            .seed(29)
            .max_len(4_000)
            .workloads(vec![WorkloadProfile::tpf_airline(), WorkloadProfile::zlinux_informix()])
            .configs(SimConfig::table3());
        let (cold, _) = session.run_cached_cells(&cache);
        for (cell, fresh) in session.cells().iter().zip(&cold) {
            let entry = cache.load(&cell.key).expect("cell stored");
            let direct = decode(&entry).expect("entry decodes");
            assert_eq!(Some(&direct), roundtrip(&entry).as_ref(), "({}, {})", cell.row, cell.col);
            assert_eq!(&direct, fresh, "({}, {}) warm read differs from cold", cell.row, cell.col);
            assert_eq!(session.cached_cell(&cache, cell), direct);
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn len_cap_respects_profile_default() {
        let p = WorkloadProfile::tpf_airline();
        let s = WorkloadSource::from(p.clone());
        let session = SimSession::new().max_len(u64::MAX);
        assert_eq!(session.effective_len(&s), p.default_len);
        let capped = SimSession::new().max_len(10);
        assert_eq!(capped.effective_len(&s), 10);
    }
}
