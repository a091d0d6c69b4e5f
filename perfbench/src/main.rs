//! The repository benchmark: one command runs one workload, prints
//! every metric by name with its unit, and checks the program's outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig2_grid --seed 1 --seconds 25 --trace 0
//! ```
//!
//! With `--trace 0` the result carries the end-to-end metrics; with
//! `--trace 1` the same workload runs with spans recorded around every
//! call into the program and the result carries the per-layer metrics
//! derived from them. The last line of standard output is the result
//! object; the exit code is non-zero when any correctness check failed.

mod common;
mod estimators;
mod grid;
mod serve_mix;
mod spans;
mod stats;

use common::{out_dir, peak_rss_mb, provenance, Outcome};
use spans::Tracer;
use zbp_support::json::Json;

pub const WORKLOADS: [&str; 3] = ["fig2_grid", "estimators", "serve_mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || value.parse::<u64>().map_err(|e| format!("{flag} {value:?}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?.max(1)),
            "--trace" => trace = number()? != 0,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}; expected one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.unwrap_or(10),
        trace,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };
    let tracer = Tracer::new(args.trace);
    let result = match args.workload.as_str() {
        "fig2_grid" => grid::run(args.seed, args.seconds, &tracer),
        "estimators" => estimators::run(args.seed, args.seconds, &tracer),
        _ => serve_mix::run(args.seed, args.seconds, &tracer),
    };
    let mut out = match result {
        Ok(out) => out,
        Err(e) => {
            eprintln!("perfbench: {} could not run: {e}", args.workload);
            std::process::exit(1);
        }
    };
    // A note, not an end-to-end metric: serve_mix's high-water mark
    // lands at about 88 or about 117 MB across identical runs.
    out.note("peak_rss_mb", peak_rss_mb());
    if args.trace {
        out.layer("bench.peak_rss_mb", peak_rss_mb(), "MB");
    }
    let correct = out.errors.is_empty();
    let prov = provenance(&args.workload, args.seed, args.seconds, args.trace);
    report(&args, &out, &prov, correct, &tracer);
    if !correct {
        std::process::exit(1);
    }
}

fn report(args: &Args, out: &Outcome, prov: &[(String, String)], correct: bool, tracer: &Tracer) {
    for (k, v) in prov {
        println!("provenance {k}: {v}");
    }
    for (k, v) in &out.notes {
        println!("note {k}: {v}");
    }
    for e in &out.errors {
        println!("FAILED: {e}");
    }
    let metrics = if args.trace { &out.per_layer } else { &out.end_to_end };
    for m in metrics {
        println!("metric {:<44} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for (name, why) in &out.absent {
        println!("absent {name}: {why}");
    }
    let provenance_json =
        Json::Obj(prov.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect());
    let metrics_json = Json::Obj(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .chain(out.absent.iter().filter(|_| args.trace).map(|(name, _)| {
                (
                    name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(0.0)),
                        ("unit".into(), Json::Str(absent_unit(name).into())),
                    ]),
                )
            }))
            .collect(),
    );
    let record = Json::Obj(vec![
        ("provenance".into(), provenance_json),
        (
            "notes".into(),
            Json::Obj(out.notes.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect()),
        ),
        ("errors".into(), Json::Arr(out.errors.iter().map(|e| Json::Str(e.clone())).collect())),
        ("metrics".into(), metrics_json.clone()),
    ]);
    let tag = format!("{}-seed{}-trace{}", args.workload, args.seed, u8::from(args.trace));
    let dir = out_dir();
    if std::fs::create_dir_all(&dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("result-{tag}.json")), record.render_pretty());
        if args.trace {
            let _ =
                std::fs::write(dir.join(format!("spans-{tag}.json")), tracer.to_json().render());
        }
    }
    let result = Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(out.attempted.max(1) as f64)),
        ("failed".into(), Json::Num(out.failed as f64)),
        ("metrics".into(), metrics_json),
    ]);
    println!("{}", result.render());
}

/// Unit of a per-layer metric reported absent (value 0).
fn absent_unit(name: &str) -> &'static str {
    if name.ends_with("_ms") || name.ends_with(".p50") {
        "ms"
    } else if name.ends_with("_us") || name.ends_with("_us.mean") {
        "us"
    } else if name.ends_with("_per_s") {
        "1/s"
    } else if name.ends_with("_pct") {
        "%"
    } else if name.contains("ns_per") {
        "ns/instr"
    } else if name.ends_with("gain") || name.ends_with("ratio") {
        "ratio"
    } else {
        "count"
    }
}
