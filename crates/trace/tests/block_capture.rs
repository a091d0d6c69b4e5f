//! Differential test of block-at-a-time compact capture.
//!
//! The synthetic generators feed the compact encoder whole block bodies
//! at once ([`Trace::encode_compact`] overrides); every other trace takes
//! the default one-record-at-a-time path. Collecting a generator's
//! records into a [`VecTrace`] forces the default path over the same
//! stream, so the two captures must agree stream for stream — points,
//! length codes, far words, start address and tail gap — at every length
//! that could cut a block: one instruction, mid-block, around a mix
//! slice switch, across a working-set phase shift, and long runs.

use std::collections::HashSet;
use zbp_trace::gen::layout::{LayoutParams, Program};
use zbp_trace::gen::mix::MixTrace;
use zbp_trace::gen::GenTrace;
use zbp_trace::profile::{ProfileTrace, WorkloadProfile};
use zbp_trace::source::WorkloadSource;
use zbp_trace::{CompactCaptureError, CompactParts, CompactTrace, Trace, VecTrace};

fn assert_same_streams(block: &CompactTrace, record: &CompactTrace, what: &str) {
    assert_eq!(block.len(), record.len(), "{what}: instruction count");
    assert_eq!(block.start_addr(), record.start_addr(), "{what}: start");
    assert_eq!(block.tail_gap(), record.tail_gap(), "{what}: tail gap");
    assert_eq!(block.branch_points(), record.branch_points(), "{what}: points");
    assert_eq!(block.len_code_stream(), record.len_code_stream(), "{what}: length codes");
    assert_eq!(block.far_stream(), record.far_stream(), "{what}: far words");
    assert_eq!(block.name(), record.name(), "{what}: name");
}

/// Captures `trace` through its own (block) path and through the
/// default record path, and requires identical streams.
fn check<T: Trace>(trace: &T, what: &str) {
    let block = CompactTrace::capture(trace).expect("generator streams encode");
    let records = VecTrace::new(trace.name(), trace.iter().collect());
    let record = CompactTrace::capture(&records).expect("generator streams encode");
    assert_same_streams(&block, &record, what);
}

/// The programs behind a built profile (one per mix part).
fn programs(trace: &ProfileTrace) -> Vec<&Program> {
    match trace {
        ProfileTrace::Single(g) => vec![g.program()],
        ProfileTrace::Mix(m) => m.parts().iter().map(|p| &**p.program()).collect(),
    }
}

/// A stream length whose last instruction is followed, in the same
/// block, by another body instruction — so the capture stops mid-block.
fn mid_block_len(trace: &ProfileTrace) -> u64 {
    let starts: HashSet<u64> =
        programs(trace).iter().flat_map(|p| p.blocks().iter().map(|b| b.start.raw())).collect();
    let records: Vec<_> = trace.clone().with_len(5_000).iter().collect();
    let i = (1_000..records.len() - 1)
        .find(|&i| {
            let (a, b) = (records[i], records[i + 1]);
            !a.is_branch()
                && !b.is_branch()
                && a.next_addr() == b.addr
                && !starts.contains(&b.addr.raw())
        })
        .expect("some block body holds two instructions");
    i as u64 + 1
}

/// Lengths that cut the stream everywhere a block capture could go
/// wrong.
fn lengths(profile: &WorkloadProfile, trace: &ProfileTrace) -> Vec<u64> {
    let slice = profile.slice_len;
    // Each mix part advances its own phase only during its slices.
    let phase = programs(trace).iter().map(|p| p.phase_len).max().unwrap_or(0)
        * profile.parts.len() as u64
        + 1;
    vec![1, 17, mid_block_len(trace), slice - 1, slice, slice + 1, 123_457, phase]
}

fn profiles() -> Vec<WorkloadProfile> {
    let mut all = WorkloadProfile::all_table4();
    all.extend(WorkloadProfile::hardware_pair());
    all
}

#[test]
#[cfg_attr(miri, ignore)]
fn block_capture_matches_record_capture_on_every_profile() {
    for profile in profiles() {
        for seed in [1u64, 0xEC12, 0x5A17] {
            let base = profile.build_with_len(seed, 1);
            for len in lengths(&profile, &base) {
                let trace = base.clone().with_len(len);
                check(&trace, &format!("{} seed {seed:#x} len {len}", profile.name));
            }
        }
    }
}

#[test]
#[cfg_attr(miri, ignore)]
fn source_traces_take_the_block_path() {
    // What the session and the benchmark capture: a `SourceTrace`.
    for profile in [WorkloadProfile::zos_lspr_cb84(), WorkloadProfile::zos_lspr_wasdb_cbw2()] {
        let source = WorkloadSource::from(profile.clone());
        let via_source = CompactTrace::capture(&source.build_with_len(7, 160_001)).unwrap();
        let via_profile = CompactTrace::capture(&profile.build_with_len(7, 160_001)).unwrap();
        assert_same_streams(&via_source, &via_profile, &profile.name);
        check(&source.build_with_len(7, 20_000), &profile.name);
    }
}

/// Small programs for the miri job: a single walk and a two-part mix
/// with short slices and phases.
fn small_traces() -> (GenTrace, MixTrace) {
    let params =
        |base: u64| LayoutParams { base_addr: base, phase_len: 700, ..LayoutParams::small_test() };
    let single = GenTrace::new("single", &params(0x0100_0000), 3, 1);
    let parts = vec![
        GenTrace::new("a", &params(0x0100_0000), 4, 1),
        GenTrace::new("b", &params(0x4000_0000), 5, 1),
    ];
    (single, MixTrace::new("mix", parts, 61, 1))
}

#[test]
fn block_capture_matches_record_capture_on_small_programs() {
    let (single, mix) = small_traces();
    // The longest length spans dozens of 700-instruction phases: a run
    // not cut at a phase shift fires the shift late, and the drift only
    // shows once it has accumulated past a dispatch.
    for len in [0u64, 1, 2, 17, 60, 61, 62, 699, 700, 701, 1_501, 3_000, 40_000] {
        check(&single.clone().with_len(len), &format!("single len {len}"));
        check(&mix.clone().with_len(len), &format!("mix len {len}"));
    }
}

/// Encoded bytes held by recovered capture buffers.
fn held_bytes(parts: CompactParts) -> (u64, CompactParts) {
    let (points, codes, far) = parts.into_buffers();
    let bytes = points.len() as u64 * std::mem::size_of_val(&points[0]) as u64
        + codes.len() as u64
        + far.len() as u64 * 8;
    (bytes, CompactParts::from_buffers(points, codes, far))
}

fn assert_small_cap_aborts<T: Trace>(trace: &T, cap: u64) {
    let reference = CompactTrace::capture(trace).unwrap();
    assert!(reference.bytes() > 10 * cap, "the stream must dwarf the cap");
    let parts = match CompactTrace::capture_within_into(trace, cap, CompactParts::default()) {
        Err(CompactCaptureError::OverBudget(parts)) => parts,
        other => panic!("{}: expected OverBudget, got {other:?}", trace.name()),
    };
    // The budget is checked every 4096 instructions, each adding at
    // most a point, a length code and two far words.
    let (held, parts) = held_bytes(parts);
    assert!(
        held > cap && held <= cap + 4096 * 29 && held < reference.bytes() / 2,
        "{}: aborted at {held} of {} B",
        trace.name(),
        reference.bytes()
    );
    // The recovered buffers admit the full capture.
    let again = CompactTrace::capture_within_into(trace, u64::MAX, parts).unwrap();
    assert_same_streams(&again, &reference, trace.name());
}

#[test]
#[cfg_attr(miri, ignore)]
fn small_caps_abort_early_and_return_the_buffers() {
    let single = WorkloadProfile::zos_lspr_cb84().build_with_len(1, 400_000);
    let mix = WorkloadProfile::zos_lspr_wasdb_cbw2().build_with_len(1, 400_000);
    assert!(matches!(mix, ProfileTrace::Mix(_)));
    assert_small_cap_aborts(&single, 2_000);
    assert_small_cap_aborts(&mix, 2_000);
}

#[test]
fn small_caps_abort_on_small_programs() {
    let (single, mix) = small_traces();
    assert_small_cap_aborts(&single.with_len(20_000), 200);
    assert_small_cap_aborts(&mix.with_len(20_000), 200);
}
