//! The daemon itself: request routing, the `/run` streaming lifecycle,
//! and graceful shutdown.
//!
//! A `/run` request resolves to a registry experiment, enumerates its
//! grid cells, and serves each cell from the cheapest source available:
//! the on-disk cell cache (O(lookup)), another request's in-flight
//! computation (joined via the executor's dedup table), a concurrent
//! *process's* computation (waited out via the cache's advisory claim
//! files), or — last — this daemon's worker pool. Progress streams back
//! as NDJSON events (`plan`, `queued`, `running`, `done`, `error`,
//! `result`), each `done` carrying the cell's provenance.
//!
//! Each cell is read and decoded once, when it is served, and the
//! final artifact is assembled from those results by the registry's own
//! [`ExperimentSpec::finish_grid`] — the step `zbp-cli experiment run`
//! ends with — so a daemon response is bit-identical to a CLI run by
//! construction, not by reimplementation.

use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zbp_sim::cache::CellCache;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::registry::{self, ExperimentSpec, RunStart};
use zbp_sim::session::{load_cell, SessionCell};
use zbp_support::json::Json;

use crate::executor::{provenance, Admission, Executor, Job, JobCell, SlotView};
use crate::http::{read_request, respond_json, respond_text, NdjsonStream, Request};
use crate::metrics::ServeMetrics;

/// How long a `/run` request waits for its cells when the client does
/// not say (`timeout_ms`).
pub const DEFAULT_RUN_TIMEOUT: Duration = Duration::from_secs(600);

/// Per-connection socket read timeout (header + body arrival).
const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Longest the accept loop waits for a connection before it looks at
/// the shutdown flag again.
const ACCEPT_WAIT: Duration = Duration::from_millis(20);

/// Back-off after a failed `accept` (e.g. EMFILE), which would
/// otherwise fail again at once.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(20);

/// A parsed `/run` request body.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Registry experiment id (`fig2`, `table4`, ...).
    pub experiment: String,
    /// Per-workload dynamic-length cap override.
    pub len: Option<u64>,
    /// Workload synthesis seed override.
    pub seed: Option<u64>,
    /// Wait budget for the whole request, milliseconds.
    pub timeout_ms: Option<u64>,
}

impl RunRequest {
    /// Parses the `/run` body.
    ///
    /// # Errors
    ///
    /// On a non-object body, a missing/non-string `experiment`, or
    /// non-integer numeric fields.
    pub fn from_json(json: &Json) -> Result<Self, String> {
        if !matches!(json, Json::Obj(_)) {
            return Err("request body must be a JSON object".into());
        }
        let experiment = match json.get("experiment") {
            Some(Json::Str(s)) => s.clone(),
            Some(_) => return Err("\"experiment\" must be a string".into()),
            None => return Err("missing required field \"experiment\"".into()),
        };
        let uint = |key: &str| -> Result<Option<u64>, String> {
            match json.get(key) {
                None | Some(Json::Null) => Ok(None),
                Some(Json::Num(n)) if *n >= 0.0 && n.fract() == 0.0 => Ok(Some(*n as u64)),
                Some(_) => Err(format!("\"{key}\" must be a non-negative integer")),
            }
        };
        Ok(Self {
            experiment,
            len: uint("len")?,
            seed: uint("seed")?,
            timeout_ms: uint("timeout_ms")?,
        })
    }
}

/// Everything the daemon shares across connections.
pub struct ServeState {
    /// Boot-time experiment options: the daemon's len/seed defaults,
    /// worker cap, lane width and warm trace store. `/run`
    /// may override `len`/`seed` per request.
    pub base: ExperimentOptions,
    /// The shared on-disk cell cache every request reads and warms.
    pub cache: Arc<CellCache>,
    /// Dedup table + worker pool for cold cells.
    pub executor: Executor,
    /// `/metrics` counters and latency histograms.
    pub metrics: Arc<ServeMetrics>,
}

impl ServeState {
    /// Builds the daemon state: a cache at `cache_dir` and a pool of
    /// `pool_workers` cell workers over `base`.
    pub fn new(
        base: ExperimentOptions,
        cache_dir: impl Into<PathBuf>,
        pool_workers: usize,
    ) -> Arc<Self> {
        // The replay fan-out inside each worker honours the same global
        // cap the CLI sets.
        zbp_sim::parallel::set_worker_cap(base.workers);
        let metrics = Arc::new(ServeMetrics::default());
        Arc::new(Self {
            base,
            cache: Arc::new(CellCache::at(cache_dir.into())),
            executor: Executor::new(pool_workers, Arc::clone(&metrics)),
            metrics,
        })
    }
}

/// The listening daemon.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServeState>,
    active: Arc<AtomicU64>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:7878`, or port `0` for tests).
    ///
    /// # Errors
    ///
    /// When the address cannot be bound.
    pub fn bind(addr: &str, state: Arc<ServeState>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        Ok(Self { listener, state, active: Arc::new(AtomicU64::new(0)) })
    }

    /// The bound address (resolves port `0`).
    ///
    /// # Errors
    ///
    /// When the socket's local address cannot be read.
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Serves until `shutdown` turns true, then drains gracefully:
    /// stops accepting, waits for every active connection to finish,
    /// and joins the worker pool (which completes all queued cells
    /// first). Returns only when the drain is complete.
    ///
    /// Between connections the loop blocks until the listener is
    /// readable, for at most [`ACCEPT_WAIT`], so a connection is
    /// accepted as soon as it arrives and the flag is still seen within
    /// that bound when no traffic comes.
    pub fn run(&self, shutdown: &AtomicBool) {
        self.listener.set_nonblocking(true).expect("nonblocking listener");
        while !shutdown.load(Ordering::SeqCst) {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    let state = Arc::clone(&self.state);
                    let active = Arc::clone(&self.active);
                    active.fetch_add(1, Ordering::SeqCst);
                    std::thread::spawn(move || {
                        handle_connection(&state, stream);
                        active.fetch_sub(1, Ordering::SeqCst);
                    });
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    wait_readable(&self.listener, ACCEPT_WAIT);
                }
                Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
            }
        }
        // Drain: connections first (they may still enqueue work), then
        // the worker pool (which finishes everything enqueued).
        while self.active.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        self.state.executor.drain();
    }
}

/// Blocks until `listener` has a connection to accept or `timeout`
/// passes, through `poll(2)`. The workspace is dependency-free, so the
/// call is declared here rather than taken from a libc crate. A signal
/// interrupts the wait early, which only makes the caller look at its
/// shutdown flag sooner.
#[cfg(unix)]
fn wait_readable(listener: &TcpListener, timeout: Duration) {
    use std::os::fd::AsRawFd;
    #[repr(C)]
    struct PollFd {
        fd: std::ffi::c_int,
        events: std::ffi::c_short,
        revents: std::ffi::c_short,
    }
    #[cfg(target_os = "linux")]
    type NfdsT = std::ffi::c_ulong;
    #[cfg(not(target_os = "linux"))]
    type NfdsT = std::ffi::c_uint;
    extern "C" {
        fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: std::ffi::c_int) -> std::ffi::c_int;
    }
    const POLLIN: std::ffi::c_short = 0x1;
    let mut fd = PollFd { fd: listener.as_raw_fd(), events: POLLIN, revents: 0 };
    let millis = std::ffi::c_int::try_from(timeout.as_millis()).unwrap_or(std::ffi::c_int::MAX);
    // SAFETY: `fd` is one valid, exclusively borrowed pollfd and nfds
    // is 1; poll(2) writes only its `revents`. The result is ignored:
    // ready, timed out or interrupted, the caller retries `accept`.
    unsafe {
        poll(&mut fd, 1, millis);
    }
}

/// Without `poll(2)`, waits out the whole timeout.
#[cfg(not(unix))]
fn wait_readable(_listener: &TcpListener, timeout: Duration) {
    std::thread::sleep(timeout);
}

fn handle_connection(state: &Arc<ServeState>, mut stream: TcpStream) {
    // Some platforms hand out accepted sockets with the listener's
    // non-blocking mode; this connection thread wants blocking I/O.
    let _ = stream.set_nonblocking(false);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    // Every NDJSON event is one write that the client should see at
    // once, so Nagle's coalescing only delays it.
    let _ = stream.set_nodelay(true);
    let request = match read_request(&mut stream) {
        Ok(r) => r,
        Err(e) => {
            let _ = respond_json(&mut stream, 400, &error_json(&e.to_string()));
            return;
        }
    };
    state.metrics.requests.fetch_add(1, Ordering::Relaxed);
    let result = route(state, &request, &mut stream);
    if result.is_err() {
        // The client hung up mid-stream; nothing left to tell it. Any
        // cells already enqueued finish in the background and warm the
        // cache for the next request.
    }
}

fn route(
    state: &Arc<ServeState>,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/") => respond_json(stream, 200, &info_json(state)),
        ("GET", "/experiments") => respond_json(stream, 200, &experiments_json(state)),
        ("GET", "/metrics") => respond_json(stream, 200, &state.metrics.to_json()),
        ("POST", "/run") => handle_run(state, request, stream),
        ("GET" | "POST", _) => respond_text(stream, 404, "no such endpoint\n"),
        _ => respond_text(stream, 405, "method not allowed\n"),
    }
}

fn info_json(state: &Arc<ServeState>) -> Json {
    Json::Obj(vec![
        ("name".into(), Json::Str("zbp-serve".into())),
        ("version".into(), Json::Str(env!("CARGO_PKG_VERSION").into())),
        ("experiments".into(), Json::Num(registry::all().len() as f64)),
        (
            "cache_dir".into(),
            match state.cache.dir() {
                Some(d) => Json::Str(d.display().to_string()),
                None => Json::Null,
            },
        ),
        (
            "endpoints".into(),
            Json::Arr(
                ["GET /", "GET /experiments", "GET /metrics", "POST /run"]
                    .iter()
                    .map(|e| Json::Str((*e).into()))
                    .collect(),
            ),
        ),
    ])
}

fn experiments_json(state: &Arc<ServeState>) -> Json {
    Json::Arr(
        registry::all()
            .iter()
            .map(|spec| {
                Json::Obj(vec![
                    ("id".into(), Json::Str(spec.id.into())),
                    ("title".into(), Json::Str(spec.title.into())),
                    ("description".into(), Json::Str(spec.description.into())),
                    (
                        "mode".into(),
                        Json::Str(
                            if spec.grid_session(&state.base).is_some() { "grid" } else { "whole" }
                                .into(),
                        ),
                    ),
                ])
            })
            .collect(),
    )
}

fn error_json(message: &str) -> Json {
    Json::Obj(vec![("error".into(), Json::Str(message.into()))])
}

fn handle_run(
    state: &Arc<ServeState>,
    request: &Request,
    stream: &mut TcpStream,
) -> std::io::Result<()> {
    let run = match request.json_body().and_then(|j| RunRequest::from_json(&j)) {
        Ok(r) => r,
        Err(e) => {
            state.metrics.errors.fetch_add(1, Ordering::Relaxed);
            return respond_json(stream, 400, &error_json(&e));
        }
    };
    let Some(spec) = registry::find(&run.experiment) else {
        state.metrics.errors.fetch_add(1, Ordering::Relaxed);
        let ids = registry::all().iter().map(|s| s.id);
        let mut msg = format!("no experiment named {:?}", run.experiment);
        if let Some(suggestion) = registry::closest(&run.experiment, ids) {
            msg.push_str(&format!(" (did you mean {suggestion:?}?)"));
        }
        return respond_json(stream, 404, &error_json(&msg));
    };
    state.metrics.active_requests.fetch_add(1, Ordering::Relaxed);
    let (outcome, started) = {
        let mut out = NdjsonStream::new(stream);
        let outcome = run_streaming(state, spec, &run, &mut |event| out.emit(event));
        (outcome, out.started())
    };
    state.metrics.active_requests.fetch_sub(1, Ordering::Relaxed);
    match outcome {
        Ok(()) => Ok(()),
        Err(RunError::Io(e)) => Err(e),
        Err(RunError::Request(msg)) => {
            // The per-cell `error` event already went out; close the
            // request with a summary (as a trailing event when the
            // stream started, as a status otherwise).
            let event = Json::Obj(vec![
                ("event".into(), Json::Str("error".into())),
                ("error".into(), Json::Str(msg)),
            ]);
            if started {
                let mut out = NdjsonStream::resumed(stream);
                out.emit(&event)
            } else {
                respond_json(stream, 500, &event)
            }
        }
    }
}

/// Why a `/run` could not complete.
#[derive(Debug)]
pub enum RunError {
    /// The connection failed (client hung up): nothing more to send.
    Io(std::io::Error),
    /// The request itself failed (timeout, failed cell): reported to
    /// the client as an `error` event or status.
    Request(String),
}

impl From<std::io::Error> for RunError {
    fn from(e: std::io::Error) -> Self {
        RunError::Io(e)
    }
}

fn cell_event(kind: &str, cell: &SessionCell, extra: &[(&str, Json)]) -> Json {
    let mut fields = vec![
        ("event".into(), Json::Str(kind.into())),
        ("workload".into(), Json::Str(cell.workload.clone())),
        ("config".into(), Json::Str(cell.config.clone())),
        ("row".into(), Json::Num(cell.row as f64)),
        ("col".into(), Json::Num(cell.col as f64)),
        ("cell".into(), Json::Str(cell.key.digest())),
    ];
    fields.extend(extra.iter().map(|(k, v)| ((*k).to_string(), v.clone())));
    Json::Obj(fields)
}

/// Serves one `/run` request, emitting NDJSON progress events through
/// `emit`. Public (with a function sink rather than a socket) so the
/// bench harness and tests can drive the full request lifecycle
/// in-process.
///
/// # Errors
///
/// [`RunError::Io`] when the client connection fails mid-stream;
/// [`RunError::Request`] on timeout or a failed cell (already reported
/// to the client by the caller).
pub fn run_streaming(
    state: &Arc<ServeState>,
    spec: &ExperimentSpec,
    run: &RunRequest,
    emit: &mut dyn FnMut(&Json) -> std::io::Result<()>,
) -> Result<(), RunError> {
    let mut opts = state.base.clone();
    if run.len.is_some() {
        opts.len = run.len;
    }
    if let Some(seed) = run.seed {
        opts.seed = seed;
    }
    let start = RunStart::now(&opts);
    let timeout = run.timeout_ms.map_or(DEFAULT_RUN_TIMEOUT, Duration::from_millis);
    let deadline = Instant::now() + timeout;

    let Some(session) = spec.grid_session(&opts) else {
        // Stats/custom specs have no externally addressable grid: run
        // them whole on this connection thread (their cells still go
        // through the shared cache).
        emit(&Json::Obj(vec![
            ("event".into(), Json::Str("plan".into())),
            ("experiment".into(), Json::Str(spec.id.into())),
            ("mode".into(), Json::Str("whole".into())),
        ]))?;
        let result = spec.run(&opts, &state.cache);
        emit(&result_event(result.artifact(), 0, 0, 0, 0, 0))?;
        return Ok(());
    };
    let session = Arc::new(session);
    let cells = session.cells();
    emit(&Json::Obj(vec![
        ("event".into(), Json::Str("plan".into())),
        ("experiment".into(), Json::Str(spec.id.into())),
        ("mode".into(), Json::Str("grid".into())),
        ("cells".into(), Json::Num(cells.len() as f64)),
        ("rows".into(), Json::Num(cells.iter().map(|c| c.row).max().map_or(0, |r| r + 1) as f64)),
    ]))?;
    state.metrics.cells_requested.fetch_add(cells.len() as u64, Ordering::Relaxed);

    // Phase 1: serve warm cells immediately, keeping each decoded
    // result; admit cold ones (owner or join) and group owned cells
    // into per-row lane-batched jobs.
    //
    // An owned cell's inflight entry is only ever removed by the worker
    // that resolves its slot, so every cell admitted as Owner MUST be
    // submitted — an emit failure (client hangup) stops the admission
    // loop but still flushes the jobs accumulated so far, otherwise the
    // admitted keys would wedge in the dedup table until restart.
    let mut hits = 0u64;
    let mut cores = vec![None; cells.len()];
    let mut pending: Vec<(usize, Arc<crate::executor::CellSlot>, bool, Instant)> = Vec::new();
    let mut row_jobs: std::collections::BTreeMap<usize, Vec<JobCell>> =
        std::collections::BTreeMap::new();
    let mut hangup: Option<std::io::Error> = None;
    for (idx, cell) in cells.iter().enumerate() {
        let t0 = Instant::now();
        let event = if let Some(core) = load_cell(&state.cache, &cell.key) {
            cores[idx] = Some(core);
            hits += 1;
            state.metrics.cache_hits.fetch_add(1, Ordering::Relaxed);
            state.metrics.observe_warm(t0.elapsed());
            cell_event("done", cell, &[("provenance", Json::Str(provenance::CACHE_HIT.into()))])
        } else {
            match state.executor.admit(&cell.key) {
                Admission::Owner(slot) => {
                    row_jobs.entry(cell.row).or_default().push(JobCell {
                        col: cell.col,
                        key: cell.key.clone(),
                        slot: Arc::clone(&slot),
                    });
                    pending.push((idx, slot, true, t0));
                    cell_event("queued", cell, &[])
                }
                Admission::Joined(slot) => {
                    state.metrics.dedup_joins.fetch_add(1, Ordering::Relaxed);
                    pending.push((idx, slot, false, t0));
                    cell_event("queued", cell, &[("joined", Json::Bool(true))])
                }
            }
        };
        if let Err(e) = emit(&event) {
            hangup = Some(e);
            break;
        }
    }
    for (row, job_cells) in row_jobs {
        state.executor.submit(Job {
            session: Arc::clone(&session),
            cache: Arc::clone(&state.cache),
            row,
            cells: job_cells,
        });
    }
    if let Some(e) = hangup {
        return Err(e.into());
    }

    // Phase 2: wait out the pending slots in grid order, streaming each
    // transition and reading each resolved cell once. A timeout
    // abandons the *wait*, never the computation: enqueued cells
    // complete in the background and every store is atomic, so the
    // cache cannot hold a partial entry.
    let mut computed = 0u64;
    let mut dedup = 0u64;
    let mut claim_wait = 0u64;
    let mut failed: Option<String> = None;
    for (idx, slot, owner, t0) in pending {
        // `t0` is the cell's phase-1 admission time, so observe_cold
        // records wall-clock admission→done latency — comparable to the
        // bench's request-start-to-done figure — rather than the
        // incremental wait from when the stream loop reached the cell.
        let cell = &cells[idx];
        let mut view = slot.view();
        loop {
            match &view {
                SlotView::Queued => {}
                SlotView::Running => {
                    emit(&cell_event("running", cell, &[]))?;
                    // Fall through to wait for resolution without
                    // re-emitting on spurious wakeups.
                    match slot.wait_resolved(deadline) {
                        Some(v) => {
                            view = v;
                            continue;
                        }
                        None => {
                            return Err(timeout_error(state, emit, cell, timeout));
                        }
                    }
                }
                SlotView::Done(slot_provenance) => {
                    state.metrics.observe_cold(t0.elapsed());
                    let label = if owner { slot_provenance } else { provenance::DEDUP };
                    match label {
                        provenance::COMPUTED => computed += 1,
                        provenance::DEDUP => dedup += 1,
                        provenance::CLAIM_WAIT => claim_wait += 1,
                        _ => hits += 1,
                    }
                    cores[idx] = Some(session.cached_cell(&state.cache, cell));
                    emit(&cell_event("done", cell, &[("provenance", Json::Str(label.into()))]))?;
                    break;
                }
                SlotView::Failed(msg) => {
                    emit(&cell_event("error", cell, &[("error", Json::Str(msg.clone()))]))?;
                    failed = Some(format!("cell {} failed: {msg}", cell.key.digest()));
                    break;
                }
            }
            match slot.wait_change(&view, deadline) {
                Some(v) => view = v,
                None => return Err(timeout_error(state, emit, cell, timeout)),
            }
        }
        if failed.is_some() {
            break;
        }
    }
    if let Some(msg) = failed {
        return Err(RunError::Request(msg));
    }

    // Phase 3: assemble the artifact from the results read above
    // through the registry's own finish step — the one `zbp-cli
    // experiment run` ends with, so the response is bit-identical to a
    // CLI run.
    let cores = cores.into_iter().map(|core| core.expect("every cell resolved")).collect();
    let result = spec.finish_grid(&opts, start, &session, cores, hits);
    emit(&result_event(result.artifact(), cells.len() as u64, hits, computed, dedup, claim_wait))?;
    Ok(())
}

fn timeout_error(
    state: &Arc<ServeState>,
    emit: &mut dyn FnMut(&Json) -> std::io::Result<()>,
    cell: &SessionCell,
    timeout: Duration,
) -> RunError {
    let msg = format!(
        "timed out after {}ms waiting for cell {} (computation continues in the background; \
         retry to pick up the cached result)",
        timeout.as_millis(),
        cell.key.digest()
    );
    state.metrics.errors.fetch_add(1, Ordering::Relaxed);
    let _ = emit(&cell_event("error", cell, &[("error", Json::Str(msg.clone()))]));
    RunError::Request(msg)
}

fn result_event(
    artifact: Json,
    cells: u64,
    hits: u64,
    computed: u64,
    dedup: u64,
    claim_wait: u64,
) -> Json {
    Json::Obj(vec![
        ("event".into(), Json::Str("result".into())),
        (
            "served".into(),
            Json::Obj(vec![
                ("cells".into(), Json::Num(cells as f64)),
                ("cache_hits".into(), Json::Num(hits as f64)),
                ("computed".into(), Json::Num(computed as f64)),
                ("dedup".into(), Json::Num(dedup as f64)),
                ("claim_wait".into(), Json::Num(claim_wait as f64)),
            ]),
        ),
        ("artifact".into(), artifact),
    ])
}
