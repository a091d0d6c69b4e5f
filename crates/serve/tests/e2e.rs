//! End-to-end daemon tests over real sockets: cold/warm serving,
//! bit-identity with the CLI run path, concurrent dedup, graceful
//! drain, idle accept latency, timeouts and error routing.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use zbp_serve::{ServeState, Server};
use zbp_sim::cache::CellCache;
use zbp_sim::experiments::ExperimentOptions;
use zbp_sim::registry::{self, strip_volatile};
use zbp_support::json::Json;
use zbp_trace::TraceStore;

struct TestServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
    dir: PathBuf,
}

fn boot(tag: &str, len: u64) -> TestServer {
    boot_with(tag, ExperimentOptions::quick(len, 7))
}

fn boot_with(tag: &str, opts: ExperimentOptions) -> TestServer {
    let dir = std::env::temp_dir().join(format!("zbp-serve-e2e-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let state = ServeState::new(opts, dir.join("cache"), 2);
    let server = Server::bind("127.0.0.1:0", state).expect("bind");
    let addr = server.local_addr().expect("addr");
    let shutdown = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&shutdown);
    let handle = std::thread::spawn(move || server.run(&flag));
    TestServer { addr, shutdown, handle: Some(handle), dir }
}

impl TestServer {
    /// Stops the daemon and asserts the drain completes.
    fn stop(mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.handle.take().expect("running").join().expect("drained without panicking");
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// Minimal HTTP client: one request, read to EOF (the daemon closes
/// every connection). Returns (status, body).
fn http(addr: SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read");
    let status: u16 =
        response.split_whitespace().nth(1).and_then(|s| s.parse().ok()).expect("status line");
    let body = response.split_once("\r\n\r\n").map(|(_, b)| b.to_string()).unwrap_or_default();
    (status, body)
}

/// Parses an NDJSON response body into events.
fn events(body: &str) -> Vec<Json> {
    body.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| Json::parse(l).expect("event line parses"))
        .collect()
}

fn result_event(events: &[Json]) -> &Json {
    events
        .iter()
        .find(|e| e.get("event") == Some(&Json::Str("result".into())))
        .expect("a result event")
}

fn served_count(result: &Json, field: &str) -> f64 {
    match result.get("served").and_then(|s| s.get(field)) {
        Some(Json::Num(n)) => *n,
        other => panic!("served.{field} missing: {other:?}"),
    }
}

#[test]
fn cold_then_warm_grid_run_is_bit_identical_to_the_cli_path() {
    // Every grid experiment, so the artifact assembly runs through each
    // registered post-processing step. The daemon and the CLI-path runs
    // share one trace store, which changes where captures come from,
    // never results.
    let dir = std::env::temp_dir().join(format!("zbp-serve-e2e-grids-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut opts = ExperimentOptions::quick(2_000, 7);
    opts.trace_store = Arc::new(TraceStore::at(dir.join("traces")));
    let server = boot_with("coldwarm", opts.clone());
    let grids: Vec<_> =
        registry::all().iter().filter(|spec| spec.grid_session(&opts).is_some()).collect();
    assert!(grids.len() > 10, "most experiments are grids");
    for (i, spec) in grids.into_iter().enumerate() {
        let id = spec.id;
        let request = format!(r#"{{"experiment":"{id}"}}"#);
        let (status, body) = http(server.addr, "POST", "/run", &request);
        assert_eq!(status, 200, "{id}");
        let cold = events(&body);
        let cold_result = result_event(&cold);
        let cells = served_count(cold_result, "cells");
        assert!(cells > 0.0, "{id}");
        // The first request meets an empty cache and no concurrent
        // claimants, so the pool computes every cell. Grids share
        // columns, so a later cold request may find some cells cached.
        let computed = served_count(cold_result, "computed");
        if i == 0 {
            assert_eq!(computed, cells, "{id}: a cold daemon computes every cell");
        }
        let hits = served_count(cold_result, "cache_hits");
        assert_eq!(computed + hits, cells, "{id}: every cold cell computed or cache-served");

        // The warm repeat must recompute nothing.
        let (status, body) = http(server.addr, "POST", "/run", &request);
        assert_eq!(status, 200, "{id}");
        let warm = events(&body);
        let warm_result = result_event(&warm);
        assert_eq!(served_count(warm_result, "cache_hits"), cells, "{id}");
        assert_eq!(served_count(warm_result, "computed"), 0.0, "{id}");
        assert_eq!(served_count(warm_result, "dedup"), 0.0, "{id}");
        // Every per-cell done event carries cache-hit provenance.
        let dones: Vec<_> =
            warm.iter().filter(|e| e.get("event") == Some(&Json::Str("done".into()))).collect();
        assert_eq!(dones.len() as f64, cells, "{id}");
        assert!(dones.iter().all(|e| e.get("provenance") == Some(&Json::Str("cache-hit".into()))));

        // Bit-identity with the CLI path: the same experiment run
        // without the daemon's cache renders the same artifact modulo
        // the volatile manifest fields.
        let expected = strip_volatile(&spec.run(&opts, &CellCache::disabled()).artifact()).render();
        let cold_artifact = strip_volatile(cold_result.get("artifact").expect("artifact")).render();
        let warm_artifact = strip_volatile(warm_result.get("artifact").expect("artifact")).render();
        assert_eq!(cold_artifact, expected, "{id}: cold response differs from the CLI path");
        assert_eq!(warm_artifact, expected, "{id}: warm response differs from the CLI path");
    }
    server.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn an_idle_daemon_answers_a_connection_promptly() {
    // The accept loop waits for the listener to become readable rather
    // than sleeping a fixed period, so a request arriving after an idle
    // spell is not held until the next wake-up.
    let server = boot("idle", 2_000);
    let mut waits: Vec<Duration> = (0..20)
        .map(|_| {
            std::thread::sleep(Duration::from_millis(25));
            let t0 = Instant::now();
            let mut stream = TcpStream::connect(server.addr).expect("connect");
            stream.write_all(b"GET / HTTP/1.1\r\nHost: test\r\n\r\n").expect("send");
            let mut status = String::new();
            BufReader::new(stream).read_line(&mut status).expect("status line");
            assert!(status.starts_with("HTTP/1.1 200"), "{status:?}");
            t0.elapsed()
        })
        .collect();
    waits.sort();
    let median = waits[waits.len() / 2];
    assert!(median < Duration::from_millis(5), "median connect-to-status {median:?}: {waits:?}");
    server.stop();
}

#[test]
fn an_idle_daemon_sees_shutdown_within_a_second() {
    let server = boot("idle-stop", 2_000);
    // Let the accept loop settle into its wait with no traffic at all.
    std::thread::sleep(Duration::from_millis(50));
    let t0 = Instant::now();
    server.stop();
    let took = t0.elapsed();
    assert!(took < Duration::from_secs(1), "drain of an idle daemon took {took:?}");
}

#[test]
fn concurrent_identical_requests_compute_each_cell_once() {
    let server = boot("dedup", 2_000);
    let addr = server.addr;
    let threads: Vec<_> = (0..2)
        .map(|_| {
            std::thread::spawn(move || {
                let (status, body) = http(addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
                assert_eq!(status, 200);
                body
            })
        })
        .collect();
    let results: Vec<Json> = threads
        .into_iter()
        .map(|t| {
            let body = t.join().expect("request thread");
            result_event(&events(&body)).clone()
        })
        .collect();
    let cells = served_count(&results[0], "cells");
    assert_eq!(served_count(&results[1], "cells"), cells);
    // Dedup (in-flight joins + cache hits + claim waits) must cover
    // everything not computed; across both requests each cell is
    // computed exactly once.
    let computed: f64 = results.iter().map(|r| served_count(r, "computed")).sum();
    assert_eq!(computed, cells, "each cell computed exactly once across both requests");
    for r in &results {
        let total = served_count(r, "computed")
            + served_count(r, "cache_hits")
            + served_count(r, "dedup")
            + served_count(r, "claim_wait");
        assert_eq!(total, cells, "every cell accounted for");
    }
    // Both artifacts are the same bytes modulo volatile fields.
    let a = strip_volatile(results[0].get("artifact").expect("artifact")).render();
    let b = strip_volatile(results[1].get("artifact").expect("artifact")).render();
    assert_eq!(a, b);
    server.stop();
}

#[test]
fn sigterm_drains_active_requests_and_queued_cells() {
    let server = boot("drain", 2_000);
    let addr = server.addr;
    let request =
        std::thread::spawn(move || http(addr, "POST", "/run", r#"{"experiment":"fig4"}"#));
    // Let the request land, then pull the plug while it is in flight.
    std::thread::sleep(Duration::from_millis(30));
    server.shutdown.store(true, Ordering::SeqCst);
    let (status, body) = request.join().expect("request thread");
    assert_eq!(status, 200, "the in-flight request completed despite shutdown");
    let result = result_event(&events(&body)).clone();
    assert!(served_count(&result, "cells") > 0.0);
    server.stop();
}

#[test]
fn whole_spec_experiments_are_served_inline() {
    let server = boot("whole", 2_000);
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"table4"}"#);
    assert_eq!(status, 200);
    let evs = events(&body);
    assert_eq!(evs[0].get("mode"), Some(&Json::Str("whole".into())), "table4 is not grid-shaped");
    assert!(result_event(&evs).get("artifact").is_some());
    server.stop();
}

#[test]
fn a_zero_timeout_reports_the_cell_and_a_retry_recovers() {
    let server = boot("timeout", 2_000);
    let (status, body) =
        http(server.addr, "POST", "/run", r#"{"experiment":"fig4","timeout_ms":0}"#);
    // The stream started (plan/queued events) before the deadline hit,
    // so the failure arrives as error events, not a status.
    assert_eq!(status, 200);
    assert!(body.contains("timed out"), "timeout reported: {body}");
    // The abandoned cells finish in the background; a patient retry is
    // served entirely without recomputation and with whole entries.
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let result = result_event(&events(&body)).clone();
    assert!(served_count(&result, "cells") > 0.0);
    assert!(result.get("artifact").is_some());
    server.stop();
}

#[test]
fn unknown_experiments_get_a_404_with_a_suggestion() {
    let server = boot("notfound", 2_000);
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig2x"}"#);
    assert_eq!(status, 404);
    assert!(body.contains("did you mean"), "suggestion present: {body}");
    let (status, _) = http(server.addr, "POST", "/run", r#"{"len":5}"#);
    assert_eq!(status, 400);
    server.stop();
}

#[test]
fn a_deeply_nested_body_gets_a_400_and_the_daemon_keeps_serving() {
    let server = boot("deep", 2_000);
    // 200 000 open brackets: under the body cap, far past the parser's
    // nesting limit.
    let (status, body) = http(server.addr, "POST", "/run", &"[".repeat(200_000));
    assert_eq!(status, 400);
    assert!(body.contains("nesting deeper than"), "typed parse error: {body}");
    let (status, body) = http(server.addr, "GET", "/", "");
    assert_eq!(status, 200, "daemon still serves: {body}");
    server.stop();
}

#[test]
fn info_experiments_and_metrics_endpoints_respond() {
    let server = boot("info", 2_000);
    let (status, body) = http(server.addr, "GET", "/", "");
    assert_eq!(status, 200);
    let info = Json::parse(&body).expect("info json");
    assert_eq!(info.get("name"), Some(&Json::Str("zbp-serve".into())));

    let (status, body) = http(server.addr, "GET", "/experiments", "");
    assert_eq!(status, 200);
    let Json::Arr(specs) = Json::parse(&body).expect("experiments json") else {
        panic!("experiments is an array")
    };
    assert_eq!(specs.len(), registry::all().len());
    assert!(specs.iter().any(|s| s.get("id") == Some(&Json::Str("fig2".into()))
        && s.get("mode") == Some(&Json::Str("grid".into()))));

    // Warm up one grid then check the counters reconcile.
    let (status, body) = http(server.addr, "POST", "/run", r#"{"experiment":"fig4"}"#);
    assert_eq!(status, 200);
    let cells = served_count(result_event(&events(&body)), "cells");
    let (status, body) = http(server.addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let metrics = Json::parse(&body).expect("metrics json");
    assert_eq!(metrics.get("cells_requested"), Some(&Json::Num(cells)));
    assert_eq!(metrics.get("cells_computed"), Some(&Json::Num(cells)));
    assert_eq!(metrics.get("inflight_cells"), Some(&Json::Num(0.0)));
    assert_eq!(metrics.get("queue_depth"), Some(&Json::Num(0.0)));

    let (status, _) = http(server.addr, "GET", "/nope", "");
    assert_eq!(status, 404);
    let (status, _) = http(server.addr, "DELETE", "/run", "");
    assert_eq!(status, 405);
    server.stop();
}
