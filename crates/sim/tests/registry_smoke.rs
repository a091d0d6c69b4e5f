//! Smoke coverage for every registered experiment at a tiny trace
//! length: each id runs through `ExperimentSpec::run` (the one
//! production path the CLI and `zbp-serve` share), produces a
//! non-empty artifact, reproduces it bit-for-bit on a second run, and
//! yields the row structure its figure or table promises. Full-length
//! numbers come from `zbp-cli experiment run <id>`.

use zbp_sim::cache::CellCache;
use zbp_sim::experiments::{
    ExperimentOptions, Figure3Row, Figure4Result, Table4Row, TournamentReport, WrongPathRow,
};
use zbp_sim::registry::{self, strip_volatile};
use zbp_sim::report::ImprovementRow;
use zbp_sim::simpoint::SimPointRow;
use zbp_sim::sweep::SweepPoint;
use zbp_support::json::{FromJson, Json};

const LEN: u64 = 15_000;
const TABLE4: usize = 13;

fn rows<T: FromJson>(id: &str, data: &Json) -> T {
    T::from_json(data).unwrap_or_else(|e| panic!("{id}: artifact data does not parse: {e:?}"))
}

/// Checks a sweep artifact: one point per variant, labelled in order,
/// each averaged over every Table-4 workload.
fn check_sweep(id: &str, data: &Json, labels: &[&str]) {
    let points: Vec<SweepPoint> = rows(id, data);
    let got: Vec<&str> = points.iter().map(|p| p.label.as_str()).collect();
    assert_eq!(got, labels, "{id}: sweep labels");
    for p in &points {
        assert_eq!(p.per_trace.len(), TABLE4, "{id}: {} must cover Table 4", p.label);
        assert!(p.avg_improvement.is_finite(), "{id}: {} average", p.label);
    }
}

/// The per-experiment structure checks, keyed by registry id.
fn check_rows(id: &str, data: &Json) {
    match id {
        "table4" => {
            let rows: Vec<Table4Row> = rows(id, data);
            assert_eq!(rows.len(), TABLE4);
            assert!(rows[0].trace.contains("CB84"));
            assert_eq!(rows[0].target_branches, 15_244);
            assert!(rows[12].trace.contains("Trade6"));
            for r in &rows {
                assert!(r.measured_branches > 0);
                assert!(r.measured_taken <= r.measured_branches);
                assert_eq!(r.instructions, LEN);
            }
        }
        "fig2" => {
            let rows: Vec<ImprovementRow> = rows(id, data);
            assert_eq!(rows.len(), TABLE4);
            assert!(rows.iter().any(|r| r.trace.contains("DayTrader")));
            for r in &rows {
                assert!(r.baseline_cpi > 0.0 && r.btb2_cpi > 0.0 && r.large_btb1_cpi > 0.0);
            }
        }
        "fig3" => {
            let rows: Vec<Figure3Row> = rows(id, data);
            assert_eq!(rows.len(), 2);
            assert!(rows[0].workload.contains("WASDB"));
            assert!(rows[1].workload.contains("CICS"));
        }
        "fig4" => {
            let r: Figure4Result = rows(id, data);
            assert_eq!(r.workload, "Z/OS DayTrader DBServ");
            for p in [r.without_btb2, r.with_btb2] {
                for share in [p.mispredicted, p.compulsory, p.latency, p.capacity] {
                    assert!((0.0..=100.0).contains(&share), "{id}: share {share} out of range");
                }
                assert!(p.total() <= 100.0);
            }
            assert!(r.without_btb2.total() > 0.0, "short cold runs have bad outcomes");
        }
        "fig5" => check_sweep(id, data, &["6k", "12k", "24k", "48k", "96k"]),
        "fig6" => check_sweep(
            id,
            data,
            &["1 searches", "2 searches", "3 searches", "4 searches", "6 searches", "8 searches"],
        ),
        "fig7" => check_sweep(
            id,
            data,
            &["1 trackers", "2 trackers", "3 trackers", "4 trackers", "6 trackers", "8 trackers"],
        ),
        "ablation_exclusivity" => {
            check_sweep(id, data, &["semi-exclusive", "true-exclusive", "inclusive"])
        }
        "ablation_steering" => check_sweep(id, data, &["steered", "sequential"]),
        "ablation_filter" => check_sweep(
            id,
            data,
            &["partial (shipped)", "no filter (all full)", "hard filter (drop)"],
        ),
        "ablation_wrongpath" => {
            let rows: Vec<WrongPathRow> = rows(id, data);
            let modes: Vec<bool> = rows.iter().map(|r| r.wrong_path).collect();
            assert_eq!(modes, [false, true]);
            assert_eq!(rows[0].wrong_path_lines_per_kilo_instr, 0.0, "no wrong-path fetch");
        }
        "future_congruence" => check_sweep(id, data, &["32 B rows", "64 B rows", "128 B rows"]),
        "future_miss_detection" => {
            check_sweep(id, data, &["search limit (shipped)", "decode surprise", "both"])
        }
        "future_multiblock" => {
            check_sweep(id, data, &["single block (shipped)", "single + chained block"])
        }
        "future_edram" => check_sweep(
            id,
            data,
            &["SRAM 24k @ 8 cycles (shipped)", "eDRAM 48k @ 16 cycles", "eDRAM 96k @ 20 cycles"],
        ),
        "comparison_phantom" => {
            check_sweep(id, data, &["bulk preload BTB2 (zEC12)", "phantom BTB (virtualized)"])
        }
        "predictor-tournament" => {
            let report: TournamentReport = rows(id, data);
            assert_eq!(report.cells.len(), TABLE4 * 5);
            assert_eq!(report.winners.len(), TABLE4);
            assert_eq!(report.wins.iter().map(|(_, n)| n).sum::<u64>(), TABLE4 as u64);
            assert!(!report.h2p.is_empty(), "short cold runs mispredict somewhere");
        }
        "simpoint" => {
            let rows: Vec<SimPointRow> = rows(id, data);
            assert_eq!(rows.len(), 3);
            for r in &rows {
                assert!(r.full_cpi > 0.0 && r.weighted_cpi > 0.0, "{id}: {} CPI", r.trace);
            }
        }
        other => panic!("registered experiment {other:?} has no smoke check here"),
    }
}

#[test]
fn every_registered_experiment_runs_deterministically() {
    let opts = ExperimentOptions::quick(LEN, 3);
    for spec in registry::all() {
        let first = spec.run(&opts, &CellCache::disabled());
        assert!(first.manifest.cells > 0, "{}: no cells", spec.id);
        assert!(!first.pretty.is_empty(), "{}: empty table", spec.id);
        assert_ne!(first.data, Json::Arr(Vec::new()), "{}: empty data", spec.id);
        check_rows(spec.id, &first.data);
        let second = spec.run(&opts, &CellCache::disabled());
        assert_eq!(
            strip_volatile(&first.artifact()),
            strip_volatile(&second.artifact()),
            "{}: a rerun must reproduce the artifact bit-for-bit",
            spec.id
        );
        assert_eq!(first.pretty, second.pretty, "{}: rendered table drifted", spec.id);
    }
}
