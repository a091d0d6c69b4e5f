//! The differential replay oracle: per-branch cross-checking of the
//! record reference path against the compact replay kernel.
//!
//! The repo replays traces two ways — per-record [`CoreModel::step`]
//! (the reference, and the fallback for streams too large to capture)
//! and the decode-once [`LaneGroup`] kernel every compact replay runs
//! on. A final [`CoreResult`] comparison can miss transient divergence
//! that happens to cancel, and when it does fire it says nothing about
//! *where* the paths parted. This oracle steps the record stream itself,
//! snapshots the full observable model state after every retired branch
//! (the alignment points both paths visit one-by-one), replays the
//! captured [`CompactTrace`] through the kernel — once as a one-lane
//! group and once flanked by other configurations in a multi-lane group
//! — and reports the **first** branch at which any observable differs.
//!
//! Always compiled (no feature gate): the oracle is itself driven by
//! the `zbp-cli fuzz` harness and by unit tests, and costs nothing
//! unless called.

use crate::config::UarchConfig;
use crate::core::{CoreModel, CoreResult, LaneGroup};
use std::fmt;
use zbp_predictor::{PredictorConfig, PredictorStats};
use zbp_trace::compact::CompactTrace;
use zbp_trace::{InstAddr, Trace};

/// Full observable model state at one branch point.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BranchSnapshot {
    /// Core cycle after the branch was charged.
    pub cycle: u64,
    /// Instructions retired so far.
    pub instructions: u64,
    /// Predictor engine clock.
    pub engine_cycle: u64,
    /// Lookahead search address.
    pub search_addr: InstAddr,
    /// The merged predictor counter block (bus + substructures).
    pub predictor: PredictorStats,
}

impl BranchSnapshot {
    /// Captures the observables of `model` at the current instant.
    pub fn capture(model: &CoreModel) -> Self {
        let p = model.predictor();
        Self {
            cycle: model.cycle(),
            instructions: model.instructions(),
            engine_cycle: p.engine_cycle(),
            search_addr: p.search_addr(),
            predictor: p.stats_snapshot(),
        }
    }

    /// Names the observables that differ between `self` and `other`
    /// (empty when equal).
    pub fn diff_fields(&self, other: &Self) -> Vec<&'static str> {
        let mut fields = Vec::new();
        if self.cycle != other.cycle {
            fields.push("cycle");
        }
        if self.instructions != other.instructions {
            fields.push("instructions");
        }
        if self.engine_cycle != other.engine_cycle {
            fields.push("engine_cycle");
        }
        if self.search_addr != other.search_addr {
            fields.push("search_addr");
        }
        if self.predictor != other.predictor {
            fields.push("predictor_stats");
        }
        fields
    }
}

/// How the record path and the lane kernel disagreed. `width` is the
/// size of the lane group the kernel replayed in.
#[derive(Debug, Clone, PartialEq)]
pub enum Divergence {
    /// Branch `index` (0-based, in retirement order) produced different
    /// observable state.
    AtBranch {
        /// Lanes in the diverging group.
        width: usize,
        /// 0-based retirement index of the first diverging branch.
        index: usize,
        /// State the record replay observed.
        record: Box<BranchSnapshot>,
        /// State the kernel lane observed.
        lane: Box<BranchSnapshot>,
    },
    /// The paths visited a different number of branch points.
    BranchCount {
        /// Lanes in the diverging group.
        width: usize,
        /// Branches the record replay retired.
        record: usize,
        /// Branches the kernel lane retired.
        lane: usize,
    },
    /// Every per-branch snapshot matched but the final results differ
    /// (end-of-run drain or finalization divergence).
    FinalResult {
        /// Lanes in the diverging group.
        width: usize,
        /// Result of the record replay.
        record: Box<CoreResult>,
        /// Result of the kernel lane.
        lane: Box<CoreResult>,
    },
}

impl fmt::Display for Divergence {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Divergence::AtBranch { width, index, record, lane } => {
                write!(
                    f,
                    "record path and {width}-lane kernel diverged at branch #{index}: {:?} differ \
                     (record: cycle={} engine={} search={:?}; \
                     lane: cycle={} engine={} search={:?})",
                    record.diff_fields(lane),
                    record.cycle,
                    record.engine_cycle,
                    record.search_addr,
                    lane.cycle,
                    lane.engine_cycle,
                    lane.search_addr,
                )
            }
            Divergence::BranchCount { width, record, lane } => {
                write!(
                    f,
                    "branch-point count diverged: record saw {record}, {width}-lane kernel {lane}"
                )
            }
            Divergence::FinalResult { width, record, lane } => {
                write!(
                    f,
                    "per-branch states matched but final results differ \
                     (record: {} cycles / {} instructions; {width}-lane kernel: \
                     {} cycles / {} instructions)",
                    record.cycles, record.instructions, lane.cycles, lane.instructions,
                )
            }
        }
    }
}

/// Replays `trace` through the record path and the lane kernel with
/// per-branch cross-checking.
///
/// The record path runs first, snapshotting after every retired branch.
/// The captured [`CompactTrace`] then replays through a one-lane
/// [`LaneGroup`] and through a three-lane group that flanks this
/// configuration with others (a different predictor, and a different
/// L1I line size, so the group decodes two span lists), and each
/// kernel lane's snapshots are compared in retirement order. Returns
/// the (identical) record result on agreement, or the first
/// [`Divergence`] otherwise.
///
/// # Errors
///
/// [`Divergence`] describes the first disagreement between the paths.
///
/// # Panics
///
/// Panics if the trace is not compact-encodable (the synthetic
/// workload generators always are).
pub fn diff_replay<T: Trace>(
    trace: &T,
    ucfg: UarchConfig,
    pcfg: &PredictorConfig,
) -> Result<CoreResult, Divergence> {
    let compact = CompactTrace::capture(trace).expect("trace must be compact-encodable");

    let mut model = CoreModel::new(ucfg, pcfg.clone());
    let mut snaps = Vec::new();
    for instr in trace.iter() {
        model.step(&instr);
        if !instr.wrong_path && instr.branch.is_some() {
            snaps.push(BranchSnapshot::capture(&model));
        }
    }
    let record = model.finish(trace.name());

    diff_lane(&compact, vec![CoreModel::new(ucfg, pcfg.clone())], 0, &snaps, &record)?;
    let mut other_lines = ucfg;
    other_lines.l1i.line_bytes = if ucfg.l1i.line_bytes == 64 { 128 } else { 64 };
    let flanked = vec![
        CoreModel::new(ucfg, PredictorConfig::no_btb2()),
        CoreModel::new(ucfg, pcfg.clone()),
        CoreModel::new(other_lines, PredictorConfig::large_btb1()),
    ];
    diff_lane(&compact, flanked, 1, &snaps, &record)?;
    Ok(record)
}

/// Replays `compact` through a group of `lanes` and diffs lane `at`
/// against the record path's per-branch snapshots and final result.
fn diff_lane(
    compact: &CompactTrace,
    lanes: Vec<CoreModel>,
    at: usize,
    snaps: &[BranchSnapshot],
    record: &CoreResult,
) -> Result<(), Divergence> {
    let width = lanes.len();
    let mut group = LaneGroup::new(lanes);
    let mut count = 0usize;
    let mut first = None;
    group.replay_observed(compact, |lane, _, m| {
        if lane != at {
            return;
        }
        let index = count;
        count += 1;
        if first.is_some() {
            return;
        }
        let snap = BranchSnapshot::capture(m);
        if let Some(r) = snaps.get(index).filter(|r| **r != snap) {
            first = Some(Divergence::AtBranch {
                width,
                index,
                record: Box::new(r.clone()),
                lane: Box::new(snap),
            });
        }
    });
    if let Some(d) = first {
        return Err(d);
    }
    if count != snaps.len() {
        return Err(Divergence::BranchCount { width, record: snaps.len(), lane: count });
    }
    let result = group.finish(compact.name()).swap_remove(at);
    if result != *record {
        return Err(Divergence::FinalResult {
            width,
            record: Box::new(record.clone()),
            lane: Box::new(result),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::profile::WorkloadProfile;

    #[test]
    fn replay_paths_agree_on_synthetic_workloads() {
        for profile in [WorkloadProfile::tpf_airline(), WorkloadProfile::zos_lspr_cb84()] {
            let trace = profile.build_with_len(0xEC12, 20_000);
            let r = diff_replay(&trace, UarchConfig::zec12(), &PredictorConfig::zec12())
                .unwrap_or_else(|d| panic!("{}: {d}", trace.name()));
            assert_eq!(r.instructions, 20_000);
        }
    }

    #[test]
    fn replay_paths_agree_without_a_btb2() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(7, 15_000);
        let cfg = PredictorConfig::no_btb2();
        diff_replay(&trace, UarchConfig::zec12(), &cfg).unwrap_or_else(|d| panic!("{d}"));
    }

    #[test]
    fn snapshot_diffs_name_the_diverged_field() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(3, 5_000);
        let compact = CompactTrace::capture(&trace).unwrap();
        let model = CoreModel::new(UarchConfig::zec12(), PredictorConfig::zec12());
        let mut group = LaneGroup::new(vec![model]);
        let mut snap = None;
        group.replay_observed(&compact, |_, _, m| {
            if snap.is_none() {
                snap = Some(BranchSnapshot::capture(m));
            }
        });
        let a = snap.expect("trace has branches");
        assert!(a.diff_fields(&a).is_empty());
        let mut b = a.clone();
        b.cycle += 1;
        b.engine_cycle += 1;
        assert_eq!(a.diff_fields(&b), vec!["cycle", "engine_cycle"]);
    }
}
