//! `zbp-serve` — the simulation-serving daemon.
//!
//! ```text
//! zbp-serve --addr 127.0.0.1:7878
//! zbp-serve --addr 127.0.0.1:7878 --len 50000 --cache-dir results/cache
//! curl -s localhost:7878/experiments
//! curl -s localhost:7878/run -d '{"experiment":"fig2","len":50000}'
//! curl -s localhost:7878/metrics
//! ```
//!
//! SIGTERM (or SIGINT) drains gracefully: the listener stops accepting,
//! active requests run to completion, queued cells finish and land in
//! the cache, and only then does the process exit.

use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use zbp::serve::{ServeState, Server};
use zbp::sim::experiments::{parse_count, RunFlags};

const USAGE: &str = "zbp-serve — simulation-serving daemon over the experiment cell cache

USAGE:
    zbp-serve [OPTIONS]

OPTIONS:
    --addr <HOST:PORT>            listen address (default: 127.0.0.1:7878)
    --len <N>                     default dynamic instruction cap per workload
                                  (requests may override per-call)
    --seed <N>                    default workload synthesis seed, decimal or
                                  0x-hex (requests may override per-call)
    --workers <N>                 cap the replay fan-out inside each cell worker
    --pool <N>                    cell worker threads (default: 4)
    --cache-dir <DIR>             cell-cache directory (default: results/cache)
    --trace-store <DIR>           compact-trace store directory (default:
                                  results/traces)
    --fresh-traces                regenerate every trace, refreshing the store

ENDPOINTS:
    GET  /                        daemon info
    GET  /experiments             registered experiments and their serve mode
    GET  /metrics                 request/cell counters and latency histograms
    POST /run                     run an experiment; body:
                                  {\"experiment\":\"fig2\",\"len\":50000,
                                   \"seed\":1,\"timeout_ms\":600000}
                                  (only \"experiment\" is required); streams
                                  NDJSON progress events, then the artifact

Environment: ZBP_TRACE_LEN, ZBP_SEED, ZBP_WORKERS, ZBP_CACHE_DIR,
ZBP_TRACE_STORE, ZBP_FRESH_TRACES and ZBP_RESULTS_DIR are read first;
command-line flags override them.
";

/// Set by the signal handler; the accept loop checks it between
/// connections and at least every 20 ms while idle.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

extern "C" fn on_signal(_signum: i32) {
    // Only async-signal-safe work here: flip the flag and return.
    SHUTDOWN.store(true, Ordering::SeqCst);
}

#[cfg(unix)]
fn install_signal_handlers() {
    // libc's signal(2) via a direct extern declaration — the workspace
    // is dependency-free, so no libc crate.
    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    unsafe {
        signal(SIGINT, on_signal);
        signal(SIGTERM, on_signal);
    }
}

#[cfg(not(unix))]
fn install_signal_handlers() {}

struct Args {
    addr: String,
    pool: usize,
    run: RunFlags,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args { addr: "127.0.0.1:7878".to_string(), pool: 4, run: RunFlags::default() };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} requires a value"));
        if args.run.take(&arg, &mut value)? {
            continue;
        }
        match arg.as_str() {
            "--addr" => args.addr = value()?,
            "--pool" => {
                let v = value()?;
                args.pool = parse_count(&v).map_err(|e| format!("--pool {v:?}: {e}"))?;
            }
            "--help" | "-h" | "help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag {other:?} (see --help)")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let (args, opts) = match parse_args().and_then(|a| a.run.resolve().map(|o| (a, o))) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    let cache_dir = opts.cache_dir.clone().expect("RunFlags::resolve roots the cache");

    install_signal_handlers();
    let state = ServeState::new(opts, &cache_dir, args.pool);
    let server = match Server::bind(&args.addr, state) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: cannot bind {}: {e}", args.addr);
            return ExitCode::FAILURE;
        }
    };
    match server.local_addr() {
        Ok(addr) => {
            println!("zbp-serve listening on http://{addr} (cache: {})", cache_dir.display())
        }
        Err(_) => println!("zbp-serve listening on {}", args.addr),
    }
    server.run(&SHUTDOWN);
    println!("zbp-serve drained; exiting");
    ExitCode::SUCCESS
}
