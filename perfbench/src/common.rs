//! Pieces every workload shares: scratch directories, the trace-store
//! fill that set-up times, the bare decode walk, digests, provenance
//! and the result record.

use crate::spans::{SpanId, Tracer};
use crate::stats::median;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::parallel::par_map;
use zbp_sim::SimConfig;
use zbp_support::hash::fnv1a_64;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, CompactTrace, Trace, TraceStore};
use zbp_uarch::core::CoreResult;

/// Set-up repetitions per run of fig2_grid and estimators; `setup_s` is
/// their median.
pub const SETUP_REPS: usize = 3;

/// Scratch space under the checkout, removed when dropped.
pub struct Scratch {
    root: PathBuf,
    next: std::cell::Cell<u32>,
}

impl Scratch {
    pub fn new(workload: &str) -> std::io::Result<Self> {
        let root = out_dir().join(format!("scratch-{workload}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        std::fs::create_dir_all(&root)?;
        Ok(Self { root, next: std::cell::Cell::new(0) })
    }

    /// A fresh, not-yet-existing directory under the scratch root.
    pub fn fresh(&self, tag: &str) -> PathBuf {
        let n = self.next.get();
        self.next.set(n + 1);
        self.root.join(format!("{tag}-{n}"))
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// Where span logs and result records go (ignored by git).
pub fn out_dir() -> PathBuf {
    PathBuf::from(".bench_out")
}

/// A warm trace store holding one capture per workload.
pub struct StoreFill {
    pub store: Arc<TraceStore>,
    /// Trace instructions stored, summed over workloads.
    pub instructions: u64,
    /// On-disk entry bytes, summed over workloads.
    pub bytes: u64,
}

/// Capture buffers recycled across rows and set-up repetitions, as
/// `SimSession` recycles them across rows: repeated set-ups then reuse
/// memory instead of faulting in fresh buffers, which keeps both their
/// time and the process's peak memory steady.
static CAPTURE_POOL: Mutex<Vec<CompactParts>> = Mutex::new(Vec::new());

/// Synthesizes, compact-encodes and persists every profile's trace at
/// `opts`' seed and length cap into a fresh store at `dir` — the same
/// keys [`zbp_sim::SimSession`] looks up, so later runs hit.
pub fn fill_store(
    profiles: &[WorkloadProfile],
    opts: &ExperimentOptions,
    dir: &Path,
    tracer: &Tracer,
    parent: SpanId,
) -> StoreFill {
    let store = Arc::new(TraceStore::at(dir));
    // Longest traces first: the fan-out then always pairs the two
    // largest captures at the start, so peak memory does not depend on
    // which rows happen to overlap.
    let mut order: Vec<&WorkloadProfile> = profiles.iter().collect();
    order.sort_by_key(|p| std::cmp::Reverse(p.default_len));
    let rows = par_map(&order, |p| {
        let source = WorkloadSource::from((*p).clone());
        let len = opts.len_for_source(&source);
        let key = source.store_key(opts.seed, len);
        let gen = source.build_with_len(opts.seed, len);
        let parts = CAPTURE_POOL.lock().expect("capture pool poisoned").pop().unwrap_or_default();
        let compact = tracer.span("trace.capture", parent, |_| {
            CompactTrace::capture_within_into(&gen, u64::MAX, parts)
        });
        let compact = match compact {
            Ok(c) => c,
            Err(e) => panic!("{} does not compact-encode: {e:?}", p.name),
        };
        tracer.span("trace.store.write", parent, |_| store.store(&key, &compact));
        let bytes = store
            .path_for(&key)
            .and_then(|path| std::fs::metadata(path).ok())
            .map_or(0, |m| m.len());
        let instructions = compact.len();
        if let Some(parts) = compact.into_parts() {
            CAPTURE_POOL.lock().expect("capture pool poisoned").push(parts);
        }
        (instructions, bytes)
    });
    StoreFill {
        store,
        instructions: rows.iter().map(|r| r.0).sum(),
        bytes: rows.iter().map(|r| r.1).sum(),
    }
}

/// The set-up layer metrics, from the `trace.capture` and
/// `trace.store.write` spans of `fills` store fills like `fill`.
pub fn setup_layer_metrics(out: &mut Outcome, tracer: &Tracer, fill: &StoreFill, fills: usize) {
    let reps = fills as f64;
    out.layer(
        "trace.capture.ns_per_instr",
        tracer.total_ns("trace.capture") as f64 / (reps * fill.instructions.max(1) as f64),
        "ns/instr",
    );
    out.layer("trace.store.write_ms", tracer.total_ms("trace.store.write") / reps, "ms");
    out.layer(
        "trace.store.bytes_per_instr",
        fill.bytes as f64 / fill.instructions.max(1) as f64,
        "B/instr",
    );
}

/// Runs `setup` `reps` times and returns the median wall time with the
/// last repetition's product.
pub fn repeat_setup<T>(reps: usize, mut setup: impl FnMut(usize) -> T) -> (f64, T) {
    let mut times = Vec::new();
    let mut last = None;
    for rep in 0..reps {
        let t = Instant::now();
        let product = setup(rep);
        times.push(t.elapsed().as_secs_f64());
        last = Some(product);
    }
    // The measured phase starts without set-up's recycled buffers.
    CAPTURE_POOL.lock().expect("capture pool poisoned").clear();
    (median(&times), last.expect("at least one set-up repetition"))
}

/// Walks a capture with the bare decode protocol the replay kernels
/// use ([`zbp_trace::SegmentCursor`] plus [`CompactTrace::run_end`]),
/// with no model work. Returns the instructions walked.
pub fn decode_walk(compact: &CompactTrace) -> u64 {
    let mut cursor = compact.segments();
    let mut walked = 0u64;
    let mut fold = 0u64;
    while let Some(run) = cursor.next_run() {
        let end = compact.run_end(&run);
        walked += run.count;
        if let Some(instr) = cursor.finish_run(end) {
            walked += 1;
            fold ^= instr.addr.raw();
        }
    }
    std::hint::black_box(fold);
    walked
}

/// Mixes two words into one (splitmix64 finaliser): derived seeds.
pub fn mix(a: u64, b: u64) -> u64 {
    let mut z = a ^ b.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Order-sensitive digest over rendered simulation statistics.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Digest {
    pub fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    pub fn add(&mut self, text: &str) {
        let h = fnv1a_64(text.as_bytes());
        self.0 = (self.0 ^ h).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(17);
    }

    /// Adds `(config name, result)` cells, in order.
    pub fn add_cells(&mut self, cells: &[(String, CoreResult)]) {
        for (config, core) in cells {
            self.add(config);
            self.add(&zbp_support::json::to_string(core));
        }
    }

    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

/// Simulated counts over a set of fig2 cells (`(config name, result)`),
/// exact for a given seed and length.
pub fn sim_counts(cells: &[(String, CoreResult)]) -> Vec<(&'static str, f64, &'static str)> {
    let cpi = |config: &str| {
        let (cycles, instrs) = cells
            .iter()
            .filter(|(c, _)| c == config)
            .fold((0u64, 0u64), |(c, i), (_, r)| (c + r.cycles, i + r.instructions));
        cycles as f64 / instrs.max(1) as f64
    };
    let btb2_name = SimConfig::btb2_enabled().name;
    let btb2: Vec<&CoreResult> =
        cells.iter().filter(|(c, _)| *c == btb2_name).map(|(_, r)| r).collect();
    let instrs: u64 = btb2.iter().map(|r| r.instructions).sum();
    let pki = |f: &dyn Fn(&CoreResult) -> u64| {
        btb2.iter().map(|r| f(r)).sum::<u64>() as f64 * 1000.0 / instrs.max(1) as f64
    };
    let sum = |f: &dyn Fn(&CoreResult) -> u64| btb2.iter().map(|r| f(r)).sum::<u64>() as f64;
    let rows_read = sum(&|r| r.predictor.transfer.rows_read);
    let filtered = sum(&|r| r.predictor.tracker.filtered_out);
    let partial = sum(&|r| r.predictor.tracker.partial_searches);
    vec![
        ("uarch.cpi.no_btb2", cpi(&SimConfig::no_btb2().name), "cycles/instr"),
        ("uarch.cpi.btb2", cpi(&btb2_name), "cycles/instr"),
        ("uarch.cpi.large_btb1", cpi(&SimConfig::large_btb1().name), "cycles/instr"),
        ("uarch.icache.demand_misses_pki", pki(&|r| r.icache.demand_misses), "1/kinstr"),
        ("predictor.surprises_pki", pki(&|r| r.predictor.surprises), "1/kinstr"),
        ("predictor.btbp_predictions_pki", pki(&|r| r.predictor.btbp_predictions), "1/kinstr"),
        ("predictor.btb2.requests_pki", pki(&|r| r.predictor.transfer.requests), "1/kinstr"),
        ("predictor.btb2.rows_read_pki", pki(&|r| r.predictor.transfer.rows_read), "1/kinstr"),
        (
            "predictor.btb2.entries_transferred_pki",
            pki(&|r| r.predictor.btb2_entries_transferred),
            "1/kinstr",
        ),
        (
            "predictor.btb2.entries_per_row",
            sum(&|r| r.predictor.btb2_entries_transferred) / rows_read.max(1.0),
            "entries/row",
        ),
        ("predictor.tracker.filtered_ratio", filtered / (filtered + partial).max(1.0), "ratio"),
    ]
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1).and_then(|kb| kb.parse::<f64>().ok()))
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Seed, revision, host and toolchain identity for the result record.
pub fn provenance(workload: &str, seed: u64, seconds: u64, trace: bool) -> Vec<(String, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, m)| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    vec![
        ("workload".into(), workload.into()),
        ("seed".into(), seed.to_string()),
        ("seconds".into(), seconds.to_string()),
        ("trace".into(), trace.to_string()),
        ("git_revision".into(), zbp_sim::registry::git_revision()),
        ("nproc".into(), nproc.to_string()),
        ("cpu_model".into(), cpu),
        ("rustc".into(), command_line("rustc", &["--version"])),
    ]
}

/// One metric as printed.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything one workload run reports.
#[derive(Debug, Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Failure descriptions (printed; any entry makes the run incorrect).
    pub errors: Vec<String>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
    /// Per-layer metrics this workload does not exercise, with why.
    pub absent: Vec<(String, String)>,
    /// Free-form `key: value` lines printed before the result.
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    pub fn e2e(&mut self, name: &str, value: f64, unit: &str) {
        self.end_to_end.push(Metric { name: name.into(), value, unit: unit.into() });
    }

    pub fn layer(&mut self, name: &str, value: f64, unit: &str) {
        self.per_layer.push(Metric { name: name.into(), value, unit: unit.into() });
    }

    pub fn absent(&mut self, names: &[&str], why: &str) {
        self.absent.extend(names.iter().map(|n| ((*n).to_string(), why.to_string())));
    }

    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.notes.push((key.into(), value.to_string()));
    }

    pub fn fail(&mut self, what: String) {
        self.errors.push(what);
    }
}
