//! Microbenchmarks of the replay hot paths: the
//! `BtbArray::entries_in_line_into` row read that the bulk-transfer
//! drain loops over, and the compact branch-point decode that the lane
//! kernel advances through. Per-instruction replay costs are reported
//! alongside — the kernel per Table-3 column and at widths 1/2/4/8 (as
//! per-lane ns/instr), plus one row for the record reference path the
//! differential oracle checks it against — so a regression in either
//! inner loop shows up as ns/instr, not just as a slower grid.
//!
//! Timed with the same hand-rolled [`std::time::Instant`] harness as the
//! `structures` bench (the workspace builds offline, without criterion).

use std::hint::black_box;
use std::time::Instant;
use zbp_predictor::btb::{BtbArray, BtbGeometry};
use zbp_predictor::entry::BtbEntry;
use zbp_predictor::PredictorConfig;
use zbp_sim::SimConfig;
use zbp_trace::profile::WorkloadProfile;
use zbp_trace::{
    BranchKind, CompactTrace, InstAddr, MaterializedTrace, Trace, TraceInstr, VecTrace,
};
use zbp_uarch::core::{CoreModel, SamplingSpec};

/// Times `op` over `iters` iterations (after `iters / 10` warmup calls)
/// and prints mean ns/op; returns the mean.
fn bench(name: &str, iters: u64, mut op: impl FnMut()) -> f64 {
    for _ in 0..iters / 10 {
        op();
    }
    let start = Instant::now();
    for _ in 0..iters {
        op();
    }
    let ns = start.elapsed().as_nanos() as f64 / iters as f64;
    println!("{name:<40} {ns:>12.1} ns/op   ({iters} iters)");
    ns
}

fn bench_entries_in_line() {
    // A warm BTB2 at realistic occupancy: one branch every ~34 bytes
    // fills rows unevenly across lines, like a large workload would.
    let mut btb2 = BtbArray::new(BtbGeometry::zec12_btb2());
    for i in 0..24_000u64 {
        let addr = InstAddr::new(0x10_0000 + i * 34);
        btb2.insert(
            BtbEntry::surprise_install(
                addr,
                InstAddr::new(addr.raw() ^ 0x4000),
                BranchKind::Conditional,
                true,
            ),
            0,
        );
    }
    let mut out = Vec::with_capacity(8);
    let mut line = 0x10_0000u64 / 32;
    bench("btb2/entries_in_line_into", 2_000_000, || {
        line += 1;
        if line > (0x10_0000 + 24_000 * 34) / 32 {
            line = 0x10_0000 / 32;
        }
        btb2.entries_in_line_into(line, u64::MAX, &mut out);
        black_box(out.len());
    });
}

fn bench_compact_decode(compact: &CompactTrace, instructions: u64) {
    // The raw decode loop of run-batched replay: walk every run and
    // branch point, accumulating addresses, with no model attached.
    let ns = bench("compact/decode_walk_200k", 20, || {
        let mut cursor = compact.segments();
        let mut sum = 0u64;
        while let Some(run) = cursor.next_run() {
            let mut addr = run.start;
            for code in run.first_code..run.first_code + run.count {
                sum = sum.wrapping_add(addr.raw());
                addr = addr.add(u64::from(compact.len_at(code)));
            }
            if let Some(instr) = cursor.finish_run(addr) {
                sum = sum.wrapping_add(instr.addr.raw());
            }
        }
        black_box(sum);
    });
    println!("{:<40} {:>12.2} ns/instr", "compact/decode_per_instr", ns / instructions as f64);

    // The GROUP_LUT fast path on its own: `run_end` sums whole packed
    // length-code bytes through the LUT, touching a quarter of the
    // positions the per-code walk above decodes.
    let ns = bench("compact/decode_lut_walk_200k", 20, || {
        let mut cursor = compact.segments();
        let mut sum = 0u64;
        while let Some(run) = cursor.next_run() {
            let end = compact.run_end(&run);
            sum = sum.wrapping_add(end.raw());
            if let Some(instr) = cursor.finish_run(end) {
                sum = sum.wrapping_add(instr.addr.raw());
            }
        }
        black_box(sum);
    });
    println!("{:<40} {:>12.2} ns/instr", "compact/decode_lut_per_instr", ns / instructions as f64);
}

/// The lane kernel's cycle accounting in isolation: a branch-free
/// straight-line trace compiles to one giant run, so the whole replay is
/// the span decode (LUT walk + line-transition checks) and one
/// closed-form tick charge per same-line span, with almost no predictor
/// work.
fn bench_kernel_accounting() {
    const LEN: u64 = 200_000;
    let v: Vec<TraceInstr> =
        (0..LEN).map(|i| TraceInstr::plain(InstAddr::new(0x10_0000 + i * 4), 4)).collect();
    let gen = VecTrace::new("straightline", v);
    let compact = CompactTrace::capture(&gen).expect("straight-line code compact-encodes");
    let config = SimConfig::btb2_enabled();
    let ns = bench("replay/kernel_accounting", 20, || {
        let model = CoreModel::new(config.uarch, config.predictor.clone());
        black_box(model.run_compact(&compact).cycles);
    });
    println!("{:<40} {:>12.2} ns/instr", "replay/kernel_accounting_per_instr", ns / LEN as f64);
}

fn bench_replay(gen: &impl Trace, compact: &CompactTrace, instructions: u64) {
    for config in SimConfig::table3() {
        let name = format!("replay/compact[{}]", config.name);
        let ns = bench(&name, 10, || {
            let model = CoreModel::new(config.uarch, config.predictor.clone());
            black_box(model.run_compact(compact).cycles);
        });
        println!("{:<40} {:>12.2} ns/instr", format!("{name}_per_instr"), ns / instructions as f64);
    }
    // The record reference path: the oracle's cost, not a production
    // path.
    let config = SimConfig::btb2_enabled();
    let mat = MaterializedTrace::capture(gen);
    let ns = bench("replay/record[BTB2 enabled]", 10, || {
        let model = CoreModel::new(config.uarch, PredictorConfig::zec12());
        black_box(model.run(&mat).cycles);
    });
    println!("{:<40} {:>12.2} ns/instr", "replay/record_per_instr", ns / instructions as f64);

    // Opt-in sampled replay: 1-in-10 windows; the gap to full compact
    // replay above is what the estimator buys.
    let spec = SamplingSpec::one_in(10, instructions / 50);
    let ns = bench("replay/sampled[1-in-10]", 10, || {
        let model = CoreModel::new(config.uarch, config.predictor.clone());
        black_box(model.run_compact_sampled(compact, spec).measured_cycles);
    });
    println!("{:<40} {:>12.2} ns/instr", "replay/sampled_per_instr", ns / instructions as f64);
}

/// The decode-once lane kernel at widths 1, 2, 4 and 8: N identical
/// BTB2-enabled columns share a single cursor walk, so per-lane
/// ns/instr should fall toward the pure accounting cost as the decode
/// amortizes across lanes.
fn bench_lane_replay(compact: &CompactTrace, instructions: u64) {
    let config = SimConfig::btb2_enabled();
    for lanes in [1usize, 2, 4, 8] {
        let name = format!("replay/lanes[x{lanes}]");
        let ns = bench(&name, 10, || {
            let models: Vec<CoreModel> = (0..lanes)
                .map(|_| CoreModel::new(config.uarch, config.predictor.clone()))
                .collect();
            black_box(CoreModel::run_compact_lanes(models, compact)[0].cycles);
        });
        println!(
            "{:<40} {:>12.2} ns/instr/lane",
            format!("{name}_per_instr"),
            ns / (instructions * lanes as u64) as f64
        );
    }
}

fn main() {
    println!("replay hot-path microbenchmarks (mean over fixed iteration budgets)");
    bench_entries_in_line();
    const LEN: u64 = 200_000;
    let gen = WorkloadProfile::zos_lspr_cb84().build_with_len(0xEC12, LEN);
    let compact = CompactTrace::capture(&gen).expect("generator streams compact-encode");
    bench_compact_decode(&compact, LEN);
    bench_replay(&gen, &compact, LEN);
    bench_lane_replay(&compact, LEN);
    bench_kernel_accounting();
}
