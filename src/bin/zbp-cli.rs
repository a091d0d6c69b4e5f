//! `zbp-cli` — command-line front end to the bulk-preload reproduction.
//!
//! ```text
//! zbp-cli list
//! zbp-cli gen --profile daytrader-dbserv --len 1000000 --out trace.zbpt
//! zbp-cli stats --profile zos-trade6 --len 500000
//! zbp-cli stats --in trace.zbpt
//! zbp-cli run --profile tpf-airline --config btb2 --len 2000000
//! zbp-cli compare --profile daytrader-dbserv --len 4000000
//! zbp-cli trace info recorded.zbxt
//! zbp-cli trace convert recorded.zbxt --out recorded.zbpt
//! zbp-cli experiment list
//! zbp-cli experiment run fig2 --len 50000
//! zbp-cli experiment run fig2 --trace recorded.zbxt
//! zbp-cli experiment verify fig4
//! ```

use std::process::ExitCode;
use std::sync::Arc;
use zbp::prelude::*;
use zbp::sim::cache::CellCache;
use zbp::sim::experiments::{results_dir, ExperimentOptions, RunFlags};
use zbp::sim::registry::{self, strip_volatile, ExperimentSpec, Manifest, MANIFEST_SCHEMA_VERSION};
use zbp::sim::report::{pct, render_table};
use zbp::support::json::{FromJson, Json};
use zbp::trace::io::{read_trace, write_trace};
use zbp::trace::profile::ProfileTrace;
use zbp::trace::{ExternalTrace, TraceStore, WorkloadSource};

const USAGE: &str = "zbp-cli — IBM zEC12 two-level bulk preload branch prediction reproduction

USAGE:
    zbp-cli <COMMAND> [OPTIONS]

COMMANDS:
    list                          list the built-in workload profiles
    gen                           synthesize a workload and write it to disk
    stats                         print footprint statistics of a workload
    run                           simulate one workload under one configuration
    compare                       run all three Table-3 configurations on one workload
    analyze                       branch reuse-distance profile vs the BTB capacities
    report                        render results/*.json into results/REPORT.md
    fuzz                          differential fuzz: random cells through the
                                  record/compact/cached/fresh paths, diffed per branch
    trace info <FILE>             summarize an external .zbxt branch trace
    trace convert <FILE>          convert an external .zbxt trace to the native
                                  .zbpt format (--out required)
    experiment list               list the registered experiments
    experiment run <ID>           run an experiment (resumes from the cell cache;
                                  --fresh recomputes every cell)
    experiment verify <ID>        re-run an experiment at its artifact's recorded
                                  seed/length and diff against the artifact

OPTIONS:
    --profile <NAME>              workload profile (see `zbp-cli list`)
    --in <FILE>                   read a serialized trace instead of a profile
    --out <FILE>                  output path for `gen`
    --config <no-btb2|btb2|large-btb1>   configuration for `run` (default: btb2)
    --len <N>                     dynamic instruction count (default: profile default)
    --seed <N>                    workload synthesis seed, decimal or 0x-hex
                                  (default: 0xEC12); for `fuzz`, the run seed
    --cells <N>                   number of fuzz cells to run (default: 100)
    --workers <N>                 cap the parallel fan-out
    --cache-dir <DIR>             cell-cache directory (default: results/cache)
    --resume                      read cached cells (default for `experiment run`)
    --fresh                       recompute every cell, refreshing the cache
    --trace-store <DIR>           compact-trace store directory (default:
                                  results/traces for `experiment run`)
    --fresh-traces                regenerate every trace, refreshing the store
    --trace <FILE>                run experiments over an ingested external .zbxt
                                  trace instead of the spec's synthetic workloads
                                  (repeatable: one workload row per file)

Environment: ZBP_TRACE_LEN, ZBP_SEED, ZBP_WORKERS, ZBP_CACHE_DIR,
ZBP_TRACE_STORE, ZBP_FRESH_TRACES, ZBP_TRACES and
ZBP_RESULTS_DIR are read first; command-line flags override them.
";

const COMMANDS: [&str; 11] = [
    "list",
    "gen",
    "stats",
    "run",
    "compare",
    "analyze",
    "report",
    "fuzz",
    "trace",
    "experiment",
    "help",
];

/// The CLI's own flags; the shared run flags are [`RunFlags::NAMES`].
const FLAGS: [&str; 8] =
    ["--profile", "--in", "--out", "--config", "--cells", "--resume", "--fresh", "--trace"];

#[derive(Debug, Default)]
struct Args {
    command: String,
    subcommand: Option<String>,
    experiment: Option<String>,
    profile: Option<String>,
    input: Option<String>,
    output: Option<String>,
    config: Option<String>,
    cells: Option<u64>,
    fresh: bool,
    resume: bool,
    traces: Vec<String>,
    /// `--len/--seed/--workers/--cache-dir/--trace-store/--fresh-traces`.
    run: RunFlags,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = argv.iter();
    args.command = it.next().cloned().ok_or("missing command")?;
    if args.command == "experiment" {
        let sub = it
            .next()
            .cloned()
            .ok_or("missing experiment subcommand (list | run <ID> | verify <ID>)")?;
        match sub.as_str() {
            "list" => {}
            "run" | "verify" => {
                args.experiment = Some(it.next().cloned().ok_or_else(|| {
                    format!("missing experiment id (try `zbp-cli experiment list`) after '{sub}'")
                })?);
            }
            other => {
                let hint = if registry::find(other).is_some() {
                    format!(" — did you mean `experiment run {other}`?")
                } else {
                    String::new()
                };
                return Err(format!(
                    "unknown experiment subcommand '{other}' (list | run <ID> | verify <ID>){hint}"
                ));
            }
        }
        args.subcommand = Some(sub);
    }
    if args.command == "trace" {
        let sub = it.next().cloned().ok_or("missing trace subcommand (info | convert <FILE>)")?;
        match sub.as_str() {
            "info" | "convert" => {
                args.input = Some(it.next().cloned().ok_or_else(|| {
                    format!("missing trace file after '{sub}' (trace {sub} <FILE>)")
                })?);
            }
            other => {
                let hint = registry::closest(other, ["info", "convert"])
                    .map(|s| format!(" — did you mean 'trace {s}'?"))
                    .unwrap_or_default();
                return Err(format!(
                    "unknown trace subcommand '{other}' (info | convert <FILE>){hint}"
                ));
            }
        }
        args.subcommand = Some(sub);
    }
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().cloned().ok_or_else(|| format!("flag {flag} requires a value"));
        if args.run.take(flag, &mut value)? {
            continue;
        }
        match flag.as_str() {
            "--profile" => args.profile = Some(value()?),
            "--in" => args.input = Some(value()?),
            "--out" => args.output = Some(value()?),
            "--config" => args.config = Some(value()?),
            "--cells" => {
                let n: u64 = value()?.parse().map_err(|e| format!("--cells: {e}"))?;
                if n == 0 {
                    return Err("--cells: must be at least 1".into());
                }
                args.cells = Some(n);
            }
            "--resume" => args.resume = true,
            "--fresh" => args.fresh = true,
            "--trace" => args.traces.push(value()?),
            other => {
                let hint = registry::closest(other, FLAGS.into_iter().chain(RunFlags::NAMES))
                    .map(|f| format!(" — did you mean '{f}'?"))
                    .unwrap_or_default();
                return Err(format!("unknown flag {other}{hint}"));
            }
        }
    }
    if args.fresh && args.resume {
        return Err("--fresh and --resume are mutually exclusive".into());
    }
    Ok(args)
}

/// Profile lookup by kebab-case key.
fn profiles() -> Vec<(&'static str, WorkloadProfile)> {
    vec![
        ("zos-lspr-cb84", WorkloadProfile::zos_lspr_cb84()),
        ("zos-lspr-cics-db2", WorkloadProfile::zos_lspr_cics_db2()),
        ("zos-lspr-ims", WorkloadProfile::zos_lspr_ims()),
        ("zos-lspr-cbl", WorkloadProfile::zos_lspr_cbl()),
        ("zos-lspr-wasdb-cbw2", WorkloadProfile::zos_lspr_wasdb_cbw2()),
        ("zos-trade6", WorkloadProfile::zos_trade6()),
        ("tpf-airline", WorkloadProfile::tpf_airline()),
        ("zos-appserv", WorkloadProfile::zos_appserv()),
        ("zos-dbserv", WorkloadProfile::zos_dbserv()),
        ("daytrader-appserv", WorkloadProfile::daytrader_appserv()),
        ("daytrader-dbserv", WorkloadProfile::daytrader_dbserv()),
        ("zlinux-informix", WorkloadProfile::zlinux_informix()),
        ("zlinux-trade6", WorkloadProfile::zlinux_trade6()),
        ("hw-wasdb-cbw2", WorkloadProfile::hardware_wasdb_cbw2()),
        ("hw-web-cics-db2", WorkloadProfile::hardware_web_cics_db2()),
    ]
}

fn find_profile(key: &str) -> Result<WorkloadProfile, String> {
    profiles().into_iter().find(|(k, _)| *k == key).map(|(_, p)| p).ok_or_else(|| {
        let hint = registry::closest(key, profiles().iter().map(|(k, _)| *k))
            .map(|k| format!(" — did you mean '{k}'?"))
            .unwrap_or_default();
        format!("unknown profile '{key}'{hint} (see `zbp-cli list`)")
    })
}

fn build_trace(args: &Args) -> Result<ProfileTrace, String> {
    let key = args.profile.as_deref().ok_or("--profile is required")?;
    let profile = find_profile(key)?;
    let len = args.run.len.unwrap_or(profile.default_len);
    Ok(profile.build_with_len(args.run.seed.unwrap_or(0xEC12), len))
}

fn config_by_name(name: &str) -> Result<SimConfig, String> {
    match name {
        "no-btb2" => Ok(SimConfig::no_btb2()),
        "btb2" => Ok(SimConfig::btb2_enabled()),
        "large-btb1" => Ok(SimConfig::large_btb1()),
        other => Err(format!("unknown config '{other}' (no-btb2 | btb2 | large-btb1)")),
    }
}

fn cmd_list() {
    let rows: Vec<Vec<String>> = profiles()
        .iter()
        .map(|(key, p)| {
            vec![
                key.to_string(),
                p.name.clone(),
                p.unique_branches().to_string(),
                p.unique_taken().to_string(),
                p.default_len.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["key", "paper name", "unique branches", "ever-taken", "default length"],
            &rows
        )
    );
}

fn cmd_gen(args: &Args) -> Result<(), String> {
    let out = args.output.as_deref().ok_or("--out is required")?;
    let trace = build_trace(args)?;
    let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    let writer = std::io::BufWriter::new(file);
    write_trace(&trace, writer).map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {} instructions to {out}", trace.len());
    Ok(())
}

fn cmd_stats(args: &Args) -> Result<(), String> {
    let stats = if let Some(path) = &args.input {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let trace = read_trace(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
        println!("trace: {}", trace.name());
        TraceStats::collect(&trace)
    } else {
        let trace = build_trace(args)?;
        println!("trace: {}", trace.name());
        TraceStats::collect(&trace)
    };
    println!("{stats}");
    println!("  avg instruction length: {:.2} bytes", stats.avg_instr_len());
    println!("  dynamic branch fraction: {:.2}%", 100.0 * stats.branch_fraction());
    println!("  dynamic taken fraction:  {:.2}%", 100.0 * stats.taken_fraction());
    Ok(())
}

fn print_run(result: &zbp::sim::SimResult) {
    let o = &result.core.outcomes;
    println!("configuration: {}", result.config_name);
    println!(
        "  CPI: {:.4} ({} cycles / {} instructions)",
        result.cpi(),
        result.core.cycles,
        result.core.instructions
    );
    println!(
        "  branch outcomes: {:.2}% bad ({} mispredict, {} compulsory, {} latency, {} capacity)",
        100.0 * o.bad_fraction(),
        o.mispredict_direction + o.mispredict_target,
        o.surprise_compulsory,
        o.surprise_latency,
        o.surprise_capacity
    );
    println!(
        "  hierarchy: {} transfers, {} full / {} partial searches",
        result.core.predictor.btb2_entries_transferred,
        result.core.predictor.tracker.full_searches,
        result.core.predictor.tracker.partial_searches
    );
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let config = config_by_name(args.config.as_deref().unwrap_or("btb2"))?;
    let trace = build_trace(args)?;
    let result = Simulator::new(config).run(&trace);
    print_run(&result);
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let trace = build_trace(args)?;
    println!("workload: {} ({} instructions)\n", trace.name(), trace.len());
    let base = Simulator::new(SimConfig::no_btb2()).run(&trace);
    let btb2 = Simulator::new(SimConfig::btb2_enabled()).run(&trace);
    let large = Simulator::new(SimConfig::large_btb1()).run(&trace);
    let rows = vec![
        vec!["no BTB2 (cfg 1)".into(), format!("{:.4}", base.cpi()), "-".into()],
        vec![
            "BTB2 enabled (cfg 2)".into(),
            format!("{:.4}", btb2.cpi()),
            pct(btb2.improvement_over(&base)),
        ],
        vec![
            "24k BTB1 (cfg 3)".into(),
            format!("{:.4}", large.cpi()),
            pct(large.improvement_over(&base)),
        ],
    ];
    println!("{}", render_table(&["configuration", "CPI", "improvement"], &rows));
    let ceiling = large.improvement_over(&base);
    if ceiling.abs() > 0.05 {
        println!(
            "BTB2 effectiveness: {:.1}% of the large-BTB1 ceiling (paper avg: 52%)",
            100.0 * btb2.improvement_over(&base) / ceiling
        );
    }
    Ok(())
}

fn cmd_analyze(args: &Args) -> Result<(), String> {
    use zbp::trace::analysis::ReuseProfile;
    let profile = if let Some(path) = &args.input {
        let file = std::fs::File::open(path).map_err(|e| format!("{path}: {e}"))?;
        let trace = read_trace(std::io::BufReader::new(file)).map_err(|e| e.to_string())?;
        println!("trace: {}", trace.name());
        ReuseProfile::collect(&trace)
    } else {
        let trace = build_trace(args)?;
        println!("trace: {}", trace.name());
        ReuseProfile::collect(&trace)
    };
    println!("branch reuse distances (distinct sites between re-executions):\n");
    print!("{}", profile.render());
    println!(
        "\nwithin first level reach (<= 4,864 sites):  {:.1}%",
        100.0 * profile.fraction_within(4_864)
    );
    println!(
        "within BTB2 reach       (<= 24,576 sites):  {:.1}%",
        100.0 * profile.fraction_within(24_576)
    );
    println!("\nthe gap between those two lines is the BTB2's opportunity.");
    Ok(())
}

fn cmd_fuzz(args: &Args) -> Result<(), String> {
    if let Some(n) = args.run.workers {
        zbp::sim::parallel::set_worker_cap(Some(n));
    }
    let seed = args.run.seed.unwrap_or(0xEC12);
    let cells = args.cells.unwrap_or(100);
    let audit = if cfg!(feature = "audit") { "on" } else { "off" };
    println!("fuzzing {cells} cells from seed {seed:#018x} (structure audit: {audit})");
    let report = zbp::sim::fuzz::run(seed, cells);
    for line in report.render_lines() {
        println!("{line}");
    }
    let failed = report.failures().len();
    if failed == 0 {
        Ok(())
    } else {
        Err(format!("{failed} of {cells} fuzz cells failed (see reproducers above)"))
    }
}

// ---------------------------------------------------------------------------
// trace subcommands
// ---------------------------------------------------------------------------

fn cmd_trace_info(args: &Args) -> Result<(), String> {
    let path = args.input.as_deref().expect("parser enforces presence");
    let trace = ExternalTrace::read_file(path).map_err(|e| format!("{path}: {e}"))?;
    println!("trace:        {}", trace.name());
    println!("instructions: {}", trace.len());
    println!("branch sites: {}", trace.sites().len());
    println!("events:       {}", trace.events());
    println!("taken:        {:.2}%", 100.0 * trace.taken_fraction());
    println!("content fnv:  {:016x}", trace.content_fnv());
    Ok(())
}

fn cmd_trace_convert(args: &Args) -> Result<(), String> {
    let path = args.input.as_deref().expect("parser enforces presence");
    let out = args.output.as_deref().ok_or("--out is required for `trace convert`")?;
    let trace = ExternalTrace::read_file(path).map_err(|e| format!("{path}: {e}"))?;
    let file = std::fs::File::create(out).map_err(|e| format!("{out}: {e}"))?;
    let writer = std::io::BufWriter::new(file);
    write_trace(&trace, writer).map_err(|e| format!("writing {out}: {e}"))?;
    println!(
        "converted {} events over {} sites into {} instructions at {out}",
        trace.events(),
        trace.sites().len(),
        trace.len()
    );
    Ok(())
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    match args.subcommand.as_deref().expect("parser enforces presence") {
        "info" => cmd_trace_info(args),
        "convert" => cmd_trace_convert(args),
        other => unreachable!("parser rejects subcommand {other}"),
    }
}

// ---------------------------------------------------------------------------
// experiment subcommands
// ---------------------------------------------------------------------------

/// Merges the environment options with command-line overrides.
fn experiment_opts(args: &Args) -> Result<ExperimentOptions, String> {
    let mut opts = args.run.resolve()?;
    // --trace replaces the workload set wholesale (including any
    // ZBP_TRACES-derived sources): one external workload row per file.
    if !args.traces.is_empty() {
        opts.sources = args
            .traces
            .iter()
            .map(WorkloadSource::ingest)
            .collect::<Result<Vec<_>, _>>()
            .map_err(|e| format!("--trace: {e}"))?;
    }
    Ok(opts)
}

fn find_spec(id: &str) -> Result<&'static ExperimentSpec, String> {
    registry::find(id).ok_or_else(|| {
        let hint = registry::closest(id, registry::all().iter().map(|s| s.id))
            .map(|s| format!(" — did you mean '{s}'?"))
            .unwrap_or_default();
        format!("unknown experiment '{id}'{hint} (see `zbp-cli experiment list`)")
    })
}

fn cmd_experiment_list() {
    let rows: Vec<Vec<String>> = registry::all()
        .iter()
        .map(|s| {
            vec![
                s.id.to_string(),
                s.description.to_string(),
                s.tags.join(","),
                s.paper_ref.to_string(),
                format!("results/{}.json", s.artifact),
            ]
        })
        .collect();
    println!("{}", render_table(&["id", "description", "tags", "paper", "artifact"], &rows));
}

fn cmd_experiment_run(args: &Args) -> Result<(), String> {
    let spec = find_spec(args.experiment.as_deref().expect("parser enforces presence"))?;
    let opts = experiment_opts(args)?;
    let cache_dir = opts.cache_dir.clone().expect("RunFlags::resolve roots the cache");
    let cache =
        if args.fresh { CellCache::write_only(cache_dir) } else { CellCache::at(cache_dir) };
    println!("{} ({})\n", spec.title, spec.paper_ref);
    let run = spec.run(&opts, &cache);
    print!("{}", run.pretty);
    for note in spec.notes {
        println!("{note}");
    }
    let m = &run.manifest;
    let traces = match (m.trace_store_hits, m.trace_store_misses) {
        (Some(h), Some(ms)) => format!("; traces: {h} from store, {ms} generated"),
        _ => String::new(),
    };
    println!(
        "cells: {} ({} from cache){traces}; seed {:#x}; wall time {} ms",
        m.cells, m.cache_hits, m.seed, m.wall_time_ms
    );
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("{}.json", spec.artifact));
    std::fs::write(&path, run.artifact().render_pretty())
        .map_err(|e| format!("writing {}: {e}", path.display()))?;
    println!("saved: {}", path.display());
    if let Some(csv) = &run.csv {
        let path = dir.join(format!("{}.csv", spec.artifact));
        std::fs::write(&path, csv).map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("saved: {}", path.display());
    }
    Ok(())
}

fn cmd_experiment_verify(args: &Args) -> Result<(), String> {
    let spec = find_spec(args.experiment.as_deref().expect("parser enforces presence"))?;
    let path = results_dir().join(format!("{}.json", spec.artifact));
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!("{}: {e} (run `zbp-cli experiment run {}` first)", path.display(), spec.id)
    })?;
    let committed =
        Json::parse(&text).map_err(|e| format!("{}: invalid JSON: {e:?}", path.display()))?;
    let manifest = committed
        .get("manifest")
        .ok_or_else(|| {
            format!(
                "{}: no manifest block — regenerate with `zbp-cli experiment run {}`",
                path.display(),
                spec.id
            )
        })
        .and_then(|m| {
            Manifest::from_json(m).map_err(|e| format!("{}: bad manifest: {e:?}", path.display()))
        })?;
    if manifest.schema_version != MANIFEST_SCHEMA_VERSION {
        return Err(format!(
            "{}: artifact schema version {} does not match current {MANIFEST_SCHEMA_VERSION} — \
             regenerate with `zbp-cli experiment run {}`",
            path.display(),
            manifest.schema_version,
            spec.id
        ));
    }
    println!(
        "verifying {} against {} (seed {:#x}, len {})",
        spec.id,
        path.display(),
        manifest.seed,
        manifest.len_cap.map_or("default".to_string(), |l| l.to_string())
    );
    // Re-run at the artifact's recorded inputs with the cache disabled:
    // a verification must recompute, not trust cached cells. The trace
    // store is likewise bypassed unless explicitly requested —
    // store-loaded replays are bit-identical, but a verification should
    // regenerate its own inputs too.
    let mut opts = experiment_opts(args)?;
    opts.len = manifest.len_cap;
    opts.seed = manifest.seed;
    if args.run.trace_store.is_none() {
        opts.trace_store = Arc::new(TraceStore::disabled());
    }
    let run = spec.run(&opts, &CellCache::disabled());
    if strip_volatile(&committed) == strip_volatile(&run.artifact()) {
        println!("verified: artifact matches a fresh run (modulo volatile manifest fields)");
        Ok(())
    } else {
        Err(format!(
            "verification FAILED: {} differs from a fresh run at the same seed/length",
            path.display()
        ))
    }
}

fn cmd_experiment(args: &Args) -> Result<(), String> {
    match args.subcommand.as_deref().expect("parser enforces presence") {
        "list" => {
            cmd_experiment_list();
            Ok(())
        }
        "run" => cmd_experiment_run(args),
        "verify" => cmd_experiment_verify(args),
        other => unreachable!("parser rejects subcommand {other}"),
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.is_empty() || argv[0] == "--help" || argv[0] == "-h" || argv[0] == "help" {
        print!("{USAGE}");
        return ExitCode::SUCCESS;
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            return ExitCode::FAILURE;
        }
    };
    let result = match args.command.as_str() {
        "list" => {
            cmd_list();
            Ok(())
        }
        "gen" => cmd_gen(&args),
        "stats" => cmd_stats(&args),
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "analyze" => cmd_analyze(&args),
        "report" => zbp::sim::reportgen::write_report(&results_dir()).map(|p| {
            println!("wrote {}", p.display());
        }),
        "fuzz" => cmd_fuzz(&args),
        "trace" => cmd_trace(&args),
        "experiment" => cmd_experiment(&args),
        other => {
            let hint = registry::closest(other, COMMANDS)
                .map(|c| format!(" — did you mean '{c}'?"))
                .unwrap_or_default();
            Err(format!("unknown command '{other}'{hint}"))
        }
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_a_full_command_line() {
        let a = parse_args(&argv("run --profile tpf-airline --config btb2 --len 5000 --seed 42"))
            .unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.profile.as_deref(), Some("tpf-airline"));
        assert_eq!(a.config.as_deref(), Some("btb2"));
        assert_eq!(a.run.len, Some(5000));
        assert_eq!(a.run.seed, Some(42));
    }

    #[test]
    fn experiment_takes_a_subcommand_and_id() {
        let a = parse_args(&argv("experiment run fig4 --len 100")).unwrap();
        assert_eq!(a.subcommand.as_deref(), Some("run"));
        assert_eq!(a.experiment.as_deref(), Some("fig4"));
        assert_eq!(a.run.len, Some(100));
        let a = parse_args(&argv("experiment list")).unwrap();
        assert_eq!(a.subcommand.as_deref(), Some("list"));
        assert!(parse_args(&argv("experiment")).is_err());
        assert!(parse_args(&argv("experiment run")).is_err());
        assert!(parse_args(&argv("experiment verify")).is_err());
    }

    #[test]
    fn bare_experiment_id_points_at_run() {
        let err = parse_args(&argv("experiment fig4")).unwrap_err();
        assert!(err.contains("experiment run fig4"), "unexpected error: {err}");
    }

    #[test]
    fn rejects_unknown_flags_and_bad_values() {
        assert!(parse_args(&argv("run --bogus 1")).is_err());
        assert!(parse_args(&argv("run --len nope")).is_err());
        assert!(parse_args(&argv("run --len")).is_err());
        assert!(parse_args(&argv("run --workers 0")).is_err());
        assert!(parse_args(&argv("experiment run fig2 --fresh --resume")).is_err());
        assert!(parse_args(&[]).is_err());
    }

    #[test]
    fn misspelled_flag_gets_a_hint() {
        let err = parse_args(&argv("run --profle tpf-airline")).unwrap_err();
        assert!(err.contains("--profile"), "unexpected error: {err}");
    }

    #[test]
    fn retired_lanes_flag_is_rejected() {
        // Every distinct column of a grid row replays in one lane group;
        // the width is no longer settable.
        for line in ["experiment run fig2 --lanes 4", "experiment run fig2 --lanes 1"] {
            let err = parse_args(&argv(line)).unwrap_err();
            assert!(err.contains("--lanes"), "unexpected error: {err}");
        }
    }

    #[test]
    fn trace_store_flags_parse() {
        let a =
            parse_args(&argv("experiment run fig2 --trace-store /tmp/ts --fresh-traces")).unwrap();
        assert_eq!(a.run.trace_store.as_deref(), Some(std::path::Path::new("/tmp/ts")));
        assert!(a.run.fresh_traces);
        let a = parse_args(&argv("experiment run fig2")).unwrap();
        assert_eq!(a.run.trace_store, None);
        assert!(!a.run.fresh_traces);
        assert!(parse_args(&argv("experiment run fig2 --trace-store")).is_err());
    }

    #[test]
    fn trace_takes_a_subcommand_and_file() {
        let a = parse_args(&argv("trace info recorded.zbxt")).unwrap();
        assert_eq!(a.subcommand.as_deref(), Some("info"));
        assert_eq!(a.input.as_deref(), Some("recorded.zbxt"));
        let a = parse_args(&argv("trace convert recorded.zbxt --out native.zbpt")).unwrap();
        assert_eq!(a.subcommand.as_deref(), Some("convert"));
        assert_eq!(a.input.as_deref(), Some("recorded.zbxt"));
        assert_eq!(a.output.as_deref(), Some("native.zbpt"));
        assert!(parse_args(&argv("trace")).is_err());
        assert!(parse_args(&argv("trace info")).is_err());
        assert!(parse_args(&argv("trace convert")).is_err());
    }

    #[test]
    fn misspelled_trace_subcommand_gets_a_hint() {
        let err = parse_args(&argv("trace inffo x.zbxt")).unwrap_err();
        assert!(err.contains("trace info"), "unexpected error: {err}");
        let err = parse_args(&argv("trace covnert x.zbxt")).unwrap_err();
        assert!(err.contains("trace convert"), "unexpected error: {err}");
    }

    #[test]
    fn trace_flag_repeats() {
        let a = parse_args(&argv("experiment run fig2 --trace a.zbxt --trace b.zbxt")).unwrap();
        assert_eq!(a.traces, vec!["a.zbxt".to_string(), "b.zbxt".to_string()]);
        assert!(parse_args(&argv("experiment run fig2 --trace")).is_err());
        let a = parse_args(&argv("experiment run fig2")).unwrap();
        assert!(a.traces.is_empty());
    }

    #[test]
    fn seed_accepts_hex() {
        let a = parse_args(&argv("run --seed 0xEC12")).unwrap();
        assert_eq!(a.run.seed, Some(0xEC12));
    }

    #[test]
    fn fuzz_takes_seed_and_cells() {
        let a = parse_args(&argv("fuzz --seed 0x2b --cells 7")).unwrap();
        assert_eq!(a.command, "fuzz");
        assert_eq!(a.run.seed, Some(0x2b));
        assert_eq!(a.cells, Some(7));
        let a = parse_args(&argv("fuzz")).unwrap();
        assert_eq!(a.cells, None, "cell count defaults at dispatch, not parse");
        assert!(parse_args(&argv("fuzz --cells 0")).is_err());
        assert!(parse_args(&argv("fuzz --cells many")).is_err());
    }

    #[test]
    fn every_profile_key_resolves() {
        for (key, profile) in profiles() {
            assert_eq!(find_profile(key).unwrap().name, profile.name);
        }
        assert!(find_profile("nope").is_err());
    }

    #[test]
    fn config_names_resolve() {
        assert!(config_by_name("no-btb2").is_ok());
        assert!(config_by_name("btb2").is_ok());
        assert!(config_by_name("large-btb1").is_ok());
        assert!(config_by_name("x").is_err());
    }

    #[test]
    fn unknown_experiment_id_suggests() {
        let Err(err) = find_spec("tabel4") else { panic!("'tabel4' should not resolve") };
        assert!(err.contains("table4"), "unexpected error: {err}");
        let Err(err) = find_spec("predictor-tornament") else {
            panic!("'predictor-tornament' should not resolve")
        };
        assert!(err.contains("predictor-tournament"), "unexpected error: {err}");
    }
}
