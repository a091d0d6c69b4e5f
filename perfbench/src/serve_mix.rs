//! `serve_mix`: an in-process `zbp_serve::Server` on loopback, driven
//! by two closed-loop HTTP clients replaying a seeded request sequence.
//!
//! zbp-serve has no recorded traffic, so the mix is an assumption. Its
//! requests are the two the README's serve quickstart shows: a warm
//! `{"experiment":"fig2"}` whose cells were cached in set-up, and a
//! cold `{"experiment":"fig5","len":50000,"seed":…}` on a fresh seed.
//! Each round opens with a cold request both clients send at once, as
//! the CI serve job does, so the dedup path runs. Every cold response
//! is re-requested warm and the two must agree.

use crate::common::{
    decode_walk, fill_store, mix, repeat_setup, setup_layer_metrics, sim_counts, Digest, Outcome,
    Scratch,
};
use crate::grid::{cached_cells, probe_cache};
use crate::spans::{SpanId, Tracer};
use crate::stats::{median, percentile, samples_needed};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Barrier, Mutex};
use std::time::{Duration, Instant};
use zbp_serve::{ServeState, Server};
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::registry::{self, strip_volatile, Manifest};
use zbp_sim::CellCache;
use zbp_support::json::{FromJson, Json};
use zbp_support::rng::SmallRng;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactParts, Trace};

/// The daemon's boot length, as in the quickstart's
/// `zbp-serve --len 200000`. Warm requests carry no length, so it
/// applies to them; a cached cell never touches its trace, so it sizes
/// only the set-up.
pub const SERVE_LEN: u64 = 200_000;

/// The warm request's experiment: the one the quickstart and the CI
/// serve job send.
pub const WARM_EXPERIMENT: &str = "fig2";

/// The cold request's experiment and length, from the quickstart's
/// second `/run` example.
pub const COLD_EXPERIMENT: &str = "fig5";
pub const COLD_LEN: u64 = 50_000;

/// Warm requests each client sends per round, besides the warm repeats.
/// A client's round is then 40 requests: one shared and one solo cold
/// first send, their two repeats and these. Cold first sends are 5% of
/// the requests, a small share that still puts p99 (the slowest 1%)
/// among them, so p99 follows the compute path and p50 the warm path.
pub const WARM_PER_ROUND: usize = 36;

/// Set-up repetitions. This set-up is short (about 0.5 s), so more of
/// them than the other workloads' keep its median steady.
pub const SERVE_SETUP_REPS: usize = 7;

/// Closed-loop clients.
pub const CLIENTS: usize = 2;

/// A client thinks for a seeded time drawn uniformly below this before
/// each send: the period of the daemon's accept poll (`Server::run`
/// sleeps 20 ms whenever no connection waits). Without it a client's
/// send would fall at a fixed phase of that poll, set by the service
/// time of its previous request, and the median latency would jump by a
/// whole poll period when service time crosses it. With it the wait
/// for the accept averages half a period whatever the service time.
pub const THINK_MAX_US: u64 = 20_000;

/// Hard cap on the traced run's measured phase, seconds, when the p99
/// sample count is slow to arrive.
pub const MAX_MEASURE_S: f64 = 100.0;

/// Per-request socket timeout; a request that takes longer fails.
pub const REQUEST_TIMEOUT: Duration = Duration::from_secs(30);

/// The per-layer metrics only this workload can produce.
pub const SERVE_LAYER_METRICS: [&str; 16] = [
    "serve.requests_per_s",
    "serve.request_p50_ms",
    "serve.request_service_p50_ms",
    "serve.request_p99_ms",
    "serve.http.first_event_ms.p50",
    "serve.cells.warm_ms.p50",
    "serve.artifact_ms.p50",
    "serve.executor.queue_wait_ms.p50",
    "serve.executor.compute_ms.p50",
    "serve.metrics.cache_hits",
    "serve.metrics.cells_computed",
    "serve.metrics.dedup_joins",
    "serve.metrics.claims_lost",
    "serve.metrics.errors",
    "serve.metrics.warm_cell_wait_us.mean",
    "serve.metrics.cold_cell_wait_us.mean",
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Cells cached in set-up.
    Warm,
    /// A fresh seed one client sends alone.
    Cold,
    /// A fresh seed both clients send at once.
    Shared,
    /// The warm repeat of a cold or shared request.
    Repeat,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    pub experiment: &'static str,
    /// `None` for warm requests (the daemon's boot defaults apply).
    pub len: Option<u64>,
    pub seed: Option<u64>,
    pub kind: Kind,
}

impl Req {
    fn body(&self) -> String {
        let mut fields = vec![("experiment".to_string(), Json::Str(self.experiment.into()))];
        if let Some(len) = self.len {
            fields.push(("len".into(), Json::Num(len as f64)));
        }
        if let Some(seed) = self.seed {
            fields.push(("seed".into(), Json::Num(seed as f64)));
        }
        Json::Obj(fields).render()
    }

    fn repeat(&self) -> Req {
        Req { kind: Kind::Repeat, ..self.clone() }
    }
}

/// A cold request on a seed no warm request uses. Seeds stay below
/// 2^53 so they survive the JSON number round trip.
fn cold(rng: &mut SmallRng, seed: u64, kind: Kind) -> Req {
    let mut fresh = rng.next_u64() >> 11;
    if fresh == seed {
        fresh ^= 1;
    }
    Req { experiment: COLD_EXPERIMENT, len: Some(COLD_LEN), seed: Some(fresh), kind }
}

/// The cold request both clients open round `round` with.
pub fn shared_request(seed: u64, round: u64) -> Req {
    let mut rng = SmallRng::seed_from_u64(mix(seed, mix(round, u64::MAX)));
    cold(&mut rng, seed, Kind::Shared)
}

/// Client `client`'s requests in round `round` after the shared one
/// (repeats excluded): [`WARM_PER_ROUND`] warm requests with one solo
/// cold request. Client 0 sends its solo cold a quarter of the way into
/// the warm requests and client 1 three quarters of the way, so the two
/// do not overlap and p99 does not hinge on how often they happen to.
pub fn round_requests(seed: u64, round: u64, client: usize) -> Vec<Req> {
    let mut rng = SmallRng::seed_from_u64(mix(seed, mix(round, client as u64)));
    let warm = Req { experiment: WARM_EXPERIMENT, len: None, seed: None, kind: Kind::Warm };
    let mut reqs = vec![warm; WARM_PER_ROUND];
    let at = WARM_PER_ROUND * (2 * client + 1) / (2 * CLIENTS);
    reqs.insert(at, cold(&mut rng, seed, Kind::Cold));
    reqs
}

/// One cell's event arrival times.
#[derive(Debug, Default, Clone)]
struct CellTimes {
    queued: Option<Instant>,
    running: Option<Instant>,
    done: Option<Instant>,
    cache_hit: bool,
}

/// One request as the client saw it.
#[derive(Debug)]
struct Sample {
    id: u64,
    req: Req,
    sent: Instant,
    first_event: Option<Instant>,
    result: Option<Instant>,
    cells: BTreeMap<String, CellTimes>,
    result_line: String,
    error: Option<String>,
}

/// A string field of a rendered NDJSON event, found without parsing the
/// line: the clients read every event as it arrives, and the large
/// `result` line is parsed once, after the clock stops.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\":\"");
    let start = line.find(&pat)? + pat.len();
    let len = line[start..].find('"')?;
    Some(&line[start..start + len])
}

fn post(addr: SocketAddr, id: u64, req: Req) -> Sample {
    let mut sample = Sample {
        id,
        sent: Instant::now(),
        req,
        first_event: None,
        result: None,
        cells: BTreeMap::new(),
        result_line: String::new(),
        error: None,
    };
    if let Err(e) = exchange(addr, &mut sample) {
        sample.error = Some(e.to_string());
    }
    sample
}

fn exchange(addr: SocketAddr, s: &mut Sample) -> std::io::Result<()> {
    let body = s.req.body();
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    s.sent = Instant::now();
    stream.write_all(
        format!(
            "POST /run HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        )
        .as_bytes(),
    )?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    reader.read_line(&mut line)?;
    if !line.starts_with("HTTP/1.1 200") {
        let mut rest = String::new();
        let _ = reader.read_to_string(&mut rest);
        return Err(std::io::Error::other(format!("status {} {}", line.trim(), rest.trim())));
    }
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 || line == "\r\n" {
            break;
        }
    }
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            break;
        }
        let now = Instant::now();
        s.first_event.get_or_insert(now);
        let Some(event) = field(&line, "event") else { continue };
        match event {
            "queued" | "running" | "done" => {
                let cell =
                    s.cells.entry(field(&line, "cell").unwrap_or_default().into()).or_default();
                match event {
                    "queued" => cell.queued = Some(now),
                    "running" => cell.running = Some(now),
                    _ => {
                        cell.done = Some(now);
                        cell.cache_hit = field(&line, "provenance") == Some("cache-hit");
                    }
                }
            }
            "result" => {
                s.result = Some(now);
                s.result_line = line.trim_end().to_string();
            }
            "error" => return Err(std::io::Error::other(line.trim().to_string())),
            _ => {}
        }
    }
    if s.result.is_none() {
        return Err(std::io::Error::other("stream ended without a result event"));
    }
    Ok(())
}

fn get_metrics(addr: SocketAddr) -> std::io::Result<Json> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(REQUEST_TIMEOUT))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nHost: bench\r\n\r\n")?;
    let mut response = String::new();
    stream.read_to_string(&mut response)?;
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b).unwrap_or_default();
    Json::parse(body).map_err(|e| std::io::Error::other(e.0))
}

fn num(json: &Json, path: &[&str]) -> f64 {
    let mut cur = json;
    for key in path {
        match cur.get(key) {
            Some(next) => cur = next,
            None => return 0.0,
        }
    }
    match cur {
        Json::Num(n) => *n,
        _ => 0.0,
    }
}

/// Mean of a `/metrics` histogram over the observations between two
/// snapshots.
fn hist_delta_mean(before: &Json, after: &Json, name: &str) -> f64 {
    let sum = |j: &Json| num(j, &[name, "mean"]) * num(j, &[name, "count"]);
    let count = num(after, &[name, "count"]) - num(before, &[name, "count"]);
    if count <= 0.0 {
        0.0
    } else {
        (sum(after) - sum(before)) / count
    }
}

/// The artifact of a result line with the volatile manifest fields
/// stripped, rendered for comparison, and the simulated instructions
/// its cells cover: every cell of a grid replays its row's whole trace.
fn parse_result(result_line: &str) -> Option<(String, u64)> {
    let json = Json::parse(result_line).ok()?;
    let artifact = json.get("artifact")?;
    let manifest = Manifest::from_json(artifact.get("manifest")?).ok()?;
    let rows = manifest.trace_lens.len() as u64;
    let row_instructions: u64 = manifest.trace_lens.iter().map(|(_, len)| len).sum();
    let covered = row_instructions * manifest.cells / rows.max(1);
    Some((strip_volatile(artifact).render(), covered))
}

fn served(result_line: &str, key: &str) -> f64 {
    Json::parse(result_line).map_or(-1.0, |j| num(&j, &["served", key]))
}

/// Drives the clients until `seconds` have passed and, when `needed`
/// is set, that many requests have completed (or [`MAX_MEASURE_S`]
/// runs out). The first failed request ends the run: a failing daemon
/// must not stretch it.
fn drive(addr: SocketAddr, seed: u64, seconds: u64, needed: u64) -> (Vec<Sample>, f64) {
    let samples = Mutex::new(Vec::new());
    let barrier = Barrier::new(CLIENTS);
    let stop = AtomicBool::new(false);
    let broken = AtomicBool::new(false);
    let completed = AtomicU64::new(0);
    let next_id = AtomicU64::new(0);
    let t0 = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..CLIENTS {
            let (samples, barrier, stop, broken, completed, next_id) =
                (&samples, &barrier, &stop, &broken, &completed, &next_id);
            scope.spawn(move || {
                let mut think = SmallRng::seed_from_u64(mix(seed, mix(client as u64, 0x7417)));
                let mut send = |req: Req| {
                    std::thread::sleep(Duration::from_micros(think.next_u64() % THINK_MAX_US));
                    let sample = post(addr, next_id.fetch_add(1, Ordering::Relaxed), req);
                    completed.fetch_add(1, Ordering::Relaxed);
                    if sample.error.is_some() {
                        broken.store(true, Ordering::SeqCst);
                    }
                    samples.lock().expect("sample log poisoned").push(sample);
                };
                let mut round = 0u64;
                loop {
                    if barrier.wait().is_leader() {
                        let elapsed = t0.elapsed().as_secs_f64();
                        let enough = completed.load(Ordering::Relaxed) >= needed;
                        let done = (elapsed >= seconds as f64 && enough)
                            || elapsed >= MAX_MEASURE_S
                            || broken.load(Ordering::SeqCst);
                        stop.store(done, Ordering::SeqCst);
                    }
                    barrier.wait();
                    if stop.load(Ordering::SeqCst) {
                        break;
                    }
                    let mut plan = vec![shared_request(seed, round)];
                    plan.extend(round_requests(seed, round, client));
                    for req in plan {
                        if broken.load(Ordering::SeqCst) {
                            break;
                        }
                        let cold = req.kind != Kind::Warm;
                        let repeat = req.repeat();
                        send(req);
                        if cold {
                            send(repeat);
                        }
                    }
                    round += 1;
                }
            });
        }
    });
    let wall = t0.elapsed().as_secs_f64();
    let mut samples = samples.into_inner().expect("sample log poisoned");
    samples.sort_by_key(|s| s.id);
    (samples, wall)
}

pub fn run(seed: u64, seconds: u64, tracer: &Tracer) -> std::io::Result<Outcome> {
    let mut out = Outcome::default();
    let scratch = Scratch::new("serve_mix")?;
    let mut opts = ExperimentOptions { seed, len: Some(SERVE_LEN), ..ExperimentOptions::default() };
    let warm_spec = registry::find(WARM_EXPERIMENT).expect("warm experiment is registered");
    let profiles: Vec<WorkloadProfile> = warm_spec
        .sources(&opts)
        .into_iter()
        .filter_map(|source| match source {
            WorkloadSource::Synthetic(p) => Some(p),
            _ => None,
        })
        .collect();

    // Set-up: store fill for the warm experiment's workloads (Table 4),
    // then the warm experiment runs once through the registry into the
    // daemon's cache; its artifact is the truth warm responses match.
    let (setup_s, (fill, cache_dir, truth)) = repeat_setup(SERVE_SETUP_REPS, |_| {
        let dir = scratch.fresh("traces");
        let cache_dir = scratch.fresh("cells");
        tracer.span("setup", SpanId::NONE, |id| {
            let fill = fill_store(&profiles, &opts, &dir, tracer, id);
            let warm_opts =
                ExperimentOptions { trace_store: Arc::clone(&fill.store), ..opts.clone() };
            let cache = CellCache::at(&cache_dir);
            let truth = tracer.span("setup.prewarm", id, |_| {
                strip_volatile(&warm_spec.run(&warm_opts, &cache).artifact()).render()
            });
            (fill, cache_dir, truth)
        })
    });
    opts.trace_store = Arc::clone(&fill.store);

    let workers = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let state = ServeState::new(opts.clone(), &cache_dir, workers);
    let server = Server::bind("127.0.0.1:0", Arc::clone(&state))?;
    let addr = server.local_addr()?;
    let shutdown = AtomicBool::new(false);
    let store_before = fill.store.stats();
    let (samples, wall, before, after, clients) = std::thread::scope(|scope| {
        let daemon = scope.spawn(|| server.run(&shutdown));
        let measured = (|| -> std::io::Result<_> {
            let before = get_metrics(addr)?;
            let clients = tracer.begin("serve.clients", SpanId::NONE);
            // Only the traced run reports p99, so only it waits for the
            // samples p99 needs beyond it.
            let needed = if tracer.enabled() { samples_needed(99.0) as u64 } else { 0 };
            let (samples, wall) = drive(addr, seed, seconds, needed);
            tracer.end(clients);
            let after = get_metrics(addr)?;
            Ok((samples, wall, before, after, clients))
        })();
        shutdown.store(true, Ordering::SeqCst);
        let drained = daemon.join();
        if drained.is_err() {
            return Err(std::io::Error::other("serve daemon panicked"));
        }
        measured
    })?;
    let store_delta = fill.store.stats().since(store_before);

    // Correctness, after the clock stops.
    let check = tracer.begin("bench.check", SpanId::NONE);
    out.attempted = samples.len() as u64;
    let mut latencies = Vec::new();
    let mut service = Vec::new();
    let mut cold_pending: BTreeMap<(u64, &str), String> = BTreeMap::new();
    let mut counts: BTreeMap<&str, u64> = BTreeMap::new();
    let mut digest = Digest::new();
    let mut covered = 0u64;
    for s in &samples {
        let mut failure = s.error.clone();
        let parsed = if failure.is_none() { parse_result(&s.result_line) } else { None };
        if failure.is_none() && parsed.is_none() {
            failure = Some("unparsable result event".into());
        }
        if let Some((stable, _)) = &parsed {
            match s.req.kind {
                Kind::Warm => {
                    if *stable != truth {
                        failure = Some("warm artifact differs from ExperimentSpec::run".into());
                    } else if served(&s.result_line, "cache_hits")
                        != served(&s.result_line, "cells")
                    {
                        failure = Some("warm request was not fully cache-served".into());
                    }
                }
                Kind::Cold | Kind::Shared => {
                    // Both sends of a shared request must agree too.
                    let key = (s.req.seed.unwrap_or_default(), s.req.experiment);
                    match cold_pending.get(&key) {
                        Some(first) if first != stable => {
                            failure = Some("the two sends of a shared request differ".into());
                        }
                        Some(_) => {}
                        None => {
                            cold_pending.insert(key, stable.clone());
                        }
                    }
                }
                Kind::Repeat => {
                    let key = (s.req.seed.unwrap_or_default(), s.req.experiment);
                    if cold_pending.get(&key) != Some(stable) {
                        failure = Some("cold response differs from its warm repeat".into());
                    }
                }
            }
            digest.add(stable);
        }
        *counts
            .entry(match s.req.kind {
                Kind::Warm => "warm",
                Kind::Cold => "cold",
                Kind::Shared => "shared",
                Kind::Repeat => "repeat",
            })
            .or_default() += 1;
        match failure {
            Some(f) => {
                out.failed += 1;
                out.fail(format!("request {} ({} {:?}): {f}", s.id, s.req.experiment, s.req.kind));
            }
            None => {
                latencies.push(ms(s.sent, s.result));
                service.push(ms(s.first_event.unwrap_or(s.sent), s.result));
                covered += parsed.map_or(0, |(_, n)| n);
            }
        }
    }
    tracer.end(check);

    let mut warm_digest = Digest::new();
    warm_digest.add(&truth);
    out.note("sim_digest", warm_digest.hex());
    out.note("response_digest", digest.hex());
    out.note("requests", format!("{counts:?}"));
    out.note("latency_samples", latencies.len());
    out.note("covered_instructions", covered);
    // Results delivered, in simulated instructions: a cache-served cell
    // counts the instructions its replay covered.
    out.e2e("throughput_mips", covered as f64 / wall / 1e6, "Minstr/s");
    out.note("request_p50_ms", median(&latencies));
    out.e2e("setup_s", setup_s, "s");

    if tracer.enabled() {
        let p99 = percentile(&latencies, 99.0).unwrap_or_else(|e| {
            out.fail(format!("request p99: {e}"));
            0.0
        });
        record_request_spans(tracer, &samples, clients);
        setup_layer_metrics(&mut out, tracer, &fill, SERVE_SETUP_REPS);
        out.layer("trace.store.hits", store_delta.hits as f64, "count");
        out.layer("trace.store.misses", store_delta.misses as f64, "count");
        out.layer("serve.requests_per_s", latencies.len() as f64 / wall, "1/s");
        out.layer("serve.request_p50_ms", median(&latencies), "ms");
        out.layer("serve.request_service_p50_ms", median(&service), "ms");
        out.layer("serve.request_p99_ms", p99, "ms");
        let p50 = |name: &str| median(&tracer.durations_ms(name));
        out.layer("serve.http.first_event_ms.p50", p50("serve.http.first_event"), "ms");
        out.layer("serve.cells.warm_ms.p50", p50("serve.cells.warm"), "ms");
        out.layer("serve.artifact_ms.p50", p50("serve.artifact"), "ms");
        out.layer("serve.executor.queue_wait_ms.p50", p50("serve.executor.queue_wait"), "ms");
        out.layer("serve.executor.compute_ms.p50", p50("serve.executor.compute"), "ms");
        for name in ["cache_hits", "cells_computed", "dedup_joins", "claims_lost", "errors"] {
            out.layer(
                &format!("serve.metrics.{name}"),
                num(&after, &[name]) - num(&before, &[name]),
                "count",
            );
        }
        for name in ["warm_cell_wait_us", "cold_cell_wait_us"] {
            out.layer(
                &format!("serve.metrics.{name}.mean"),
                hist_delta_mean(&before, &after, name),
                "us",
            );
        }
        let requested = num(&after, &["cells_requested"]) - num(&before, &["cells_requested"]);
        let hits = num(&after, &["cache_hits"]) - num(&before, &["cache_hits"]);
        out.layer("sim.cache.hit_ratio", hits / requested.max(1.0), "ratio");
        probes(&mut out, tracer, &opts, &cache_dir, &scratch);
        out.layer("bench.span_coverage_pct", tracer.coverage_pct(), "%");
        out.layer("bench.trace_overhead_pct", 0.0, "%");
        out.note(
            "bench.trace_overhead_pct",
            "0 by construction: serve spans are rebuilt from client timestamps after the clock stops",
        );
        out.absent(
            &["trace.store.load_ms"],
            "the daemon loads traces inside its workers, where the benchmark places no span",
        );
        out.absent(
            &[
                "uarch.lanes.ns_per_instr",
                "uarch.lanes.batching_gain",
                "uarch.column.no_btb2.ns_per_instr",
                "uarch.column.btb2.ns_per_instr",
                "uarch.column.large_btb1.ns_per_instr",
                "predictor.btb2.ns_per_instr",
                "uarch.sampled.ns_per_instr",
                "uarch.windows.ns_per_replayed_instr",
                "sim.simpoint.plan_ms",
                "sim.simpoint.replayed_pct",
                "sim.sampling.measured_pct",
                "sim.sampling.cpi_err_pct",
                "sim.simpoint.cpi_err_pct",
            ],
            "serve_mix replays only short cold cells (see fig2_grid and estimators)",
        );
    }
    Ok(out)
}

fn ms(from: Instant, to: Option<Instant>) -> f64 {
    to.map_or(0.0, |t| t.saturating_duration_since(from).as_secs_f64() * 1e3)
}

/// Rebuilds each request's spans from its client-side event times.
fn record_request_spans(tracer: &Tracer, samples: &[Sample], parent: SpanId) {
    for s in samples {
        let (Some(first), Some(result)) = (s.first_event, s.result) else { continue };
        let id = Some(s.id);
        let req = tracer.record("serve.request", s.sent, result, parent, id);
        tracer.record("serve.http.first_event", s.sent, first, req, id);
        let mut last_done = first;
        for cell in s.cells.values() {
            let Some(done) = cell.done else { continue };
            last_done = last_done.max(done);
            if cell.cache_hit {
                tracer.record("serve.cells.warm", s.sent, done, req, id);
            }
            if let (Some(queued), Some(running)) = (cell.queued, cell.running) {
                tracer.record("serve.executor.queue_wait", queued, running, req, id);
                tracer.record("serve.executor.compute", running, done, req, id);
            }
        }
        tracer.record("serve.artifact", last_done, result, req, id);
    }
}

/// Traced-only probes over the warm daemon cache: the registry run and
/// `run_cached` that phase 3 performs, cell-cache load/store costs, the
/// simulated counts of the warm fig2 cells and a bare decode walk.
fn probes(
    out: &mut Outcome,
    tracer: &Tracer,
    opts: &ExperimentOptions,
    cache_dir: &std::path::Path,
    scratch: &Scratch,
) {
    let spec = registry::find(WARM_EXPERIMENT).expect("warm experiment is registered");
    let cache = CellCache::at(cache_dir);
    let session = spec.grid_session(opts).expect("the warm experiment is a grid");
    let run = tracer.span("sim.registry.run", SpanId::NONE, |_| spec.run(opts, &cache));
    let (_, stats) =
        tracer.span("sim.session.run_cached", SpanId::NONE, |_| session.run_cached(&cache));
    if run.manifest.cache_hits != run.manifest.cells || stats.hits != stats.cells {
        out.fail("warm fig2 probe recomputed cells".into());
    }
    let run_ms = tracer.total_ms("sim.registry.run");
    let cached_ms = tracer.total_ms("sim.session.run_cached");
    out.layer("sim.registry.run_ms", run_ms, "ms");
    out.layer("sim.session.run_cached_ms", cached_ms, "ms");
    out.layer("sim.registry.post_ms", run_ms - cached_ms, "ms");
    let scratch_dir = scratch.fresh("cells");
    let scratch_cache = CellCache::at(&scratch_dir);
    let missing = tracer.span("probe.cache", SpanId::NONE, |id| {
        probe_cache(&session, &cache, &scratch_cache, tracer, id)
    });
    if missing > 0 {
        out.fail(format!("{missing} warm fig2 cells missing from the daemon cache"));
    }
    out.layer("sim.cache.load_us", 1e3 * tracer.mean_ms("sim.cache.load"), "us");
    out.layer("sim.cache.store_us", 1e3 * tracer.mean_ms("sim.cache.store"), "us");
    let cells: Vec<_> = cached_cells(&session, &cache).into_iter().flatten().collect();
    for (name, value, unit) in sim_counts(&cells) {
        out.layer(name, value, unit);
    }
    let (walked, total) = tracer.span("probe.decode", SpanId::NONE, |id| {
        spec.sources(opts).iter().fold((0u64, 0u64), |(w, t), source| {
            let key = source.store_key(opts.seed, opts.len_for_source(source));
            match opts.trace_store.load(&key, CompactParts::default()) {
                Ok(compact) => {
                    let n = tracer.span("trace.compact.decode", id, |_| decode_walk(&compact));
                    (w + n, t + compact.len())
                }
                Err(_) => (w, t + 1),
            }
        })
    });
    if walked != total {
        out.fail(format!("decode walk saw {walked} of {total} instructions"));
    }
    out.layer(
        "trace.compact.decode_ns_per_instr",
        tracer.total_ns("trace.compact.decode") as f64 / total.max(1) as f64,
        "ns/instr",
    );
    let _ = std::fs::remove_dir_all(&scratch_dir);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_mix_is_deterministic_per_seed() {
        for round in 0..20 {
            for client in 0..CLIENTS {
                assert_eq!(round_requests(7, round, client), round_requests(7, round, client));
            }
            assert_eq!(shared_request(7, round), shared_request(7, round));
        }
        let a: Vec<_> = (0..20).map(|r| round_requests(7, r, 0)).collect();
        let b: Vec<_> = (0..20).map(|r| round_requests(8, r, 0)).collect();
        assert_ne!(a, b, "another seed gives another sequence");
    }

    #[test]
    fn request_mix_is_mostly_warm_with_fresh_cold_seeds() {
        for round in 0..50 {
            let mut reqs = vec![shared_request(11, round)];
            reqs.extend(round_requests(11, round, 0));
            let count = |kind| reqs.iter().filter(|r| r.kind == kind).count();
            assert_eq!(count(Kind::Warm), WARM_PER_ROUND);
            assert_eq!((count(Kind::Shared), count(Kind::Cold)), (1, 1));
            for r in reqs.iter().filter(|r| r.kind == Kind::Warm) {
                assert_eq!((r.experiment, r.len, r.seed), (WARM_EXPERIMENT, None, None));
            }
            for r in reqs.iter().filter(|r| r.kind != Kind::Warm) {
                assert_eq!((r.experiment, r.len), (COLD_EXPERIMENT, Some(COLD_LEN)));
                assert_ne!(r.seed, Some(11), "cold requests use fresh seeds");
                assert!(r.seed.unwrap_or_default() < 1 << 53);
            }
        }
    }

    #[test]
    fn event_fields_are_extracted() {
        let line = r#"{"event":"done","workload":"w","cell":"abc","provenance":"cache-hit"}"#;
        assert_eq!(field(line, "event"), Some("done"));
        assert_eq!(field(line, "cell"), Some("abc"));
        assert_eq!(field(line, "provenance"), Some("cache-hit"));
        assert_eq!(field(line, "missing"), None);
    }
}
