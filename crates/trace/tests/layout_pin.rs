//! Pins the synthesized program image bit for bit.
//!
//! Every block's start address, instruction lengths and terminator (with
//! targets as indices relative to their function) are serialized and
//! hashed; the constants were recorded from the original per-block
//! `Vec` layout. A change to the generator's random draw order — or to
//! anything it lays out — fails here on its own, before it surfaces as
//! a shifted simulation golden.

use zbp_support::hash::fnv1a_64;
use zbp_trace::gen::behavior::{CondBehavior, IndirectBehavior};
use zbp_trace::gen::layout::{LayoutParams, Program, Terminator};
use zbp_trace::profile::{ProfileTrace, WorkloadProfile};

fn image_digest(p: &Program) -> u64 {
    let mut b = Vec::new();
    b.extend_from_slice(&p.n_functions().to_le_bytes());
    for f in p.functions() {
        let first = f.first_block();
        b.extend_from_slice(&f.blocks.len.to_le_bytes());
        for blk in p.function_blocks(f) {
            let lens = p.instr_lens(blk);
            b.extend_from_slice(&blk.start.raw().to_le_bytes());
            b.extend_from_slice(&(lens.len() as u32).to_le_bytes());
            b.extend_from_slice(lens);
            match blk.term {
                Terminator::FallThrough => b.push(0),
                Terminator::Cond { site, len, target_block, behavior } => {
                    b.push(1);
                    b.extend_from_slice(&site.to_le_bytes());
                    b.push(len);
                    b.extend_from_slice(&(target_block - first).to_le_bytes());
                    match behavior {
                        CondBehavior::Biased { p_taken } => {
                            b.push(0);
                            b.extend_from_slice(&p_taken.to_bits().to_le_bytes());
                        }
                        CondBehavior::Loop { trip } => {
                            b.push(1);
                            b.extend_from_slice(&trip.to_le_bytes());
                        }
                        CondBehavior::Pattern { period, bits } => {
                            b.push(2);
                            b.push(period);
                            b.extend_from_slice(&bits.to_le_bytes());
                        }
                    }
                }
                Terminator::Jump { len, target_block } => {
                    b.push(2);
                    b.push(len);
                    b.extend_from_slice(&(target_block - first).to_le_bytes());
                }
                Terminator::Call { len, callee } => {
                    b.push(3);
                    b.push(len);
                    b.extend_from_slice(&callee.to_le_bytes());
                }
                Terminator::Return { len } => {
                    b.push(4);
                    b.push(len);
                }
                Terminator::Indirect { site, len, behavior, .. } => {
                    let targets = p.targets(&blk.term);
                    b.push(5);
                    b.extend_from_slice(&site.to_le_bytes());
                    b.push(len);
                    b.extend_from_slice(&(targets.len() as u32).to_le_bytes());
                    for t in targets {
                        b.extend_from_slice(&(t - first).to_le_bytes());
                    }
                    b.push(match behavior {
                        IndirectBehavior::Monomorphic => 0,
                        IndirectBehavior::RoundRobin => 1,
                        IndirectBehavior::Random => 2,
                    });
                }
            }
        }
    }
    for v in [
        u64::from(p.n_state_sites),
        u64::from(p.reachable_sites),
        u64::from(p.reachable_taken_sites),
        p.footprint_bytes,
    ] {
        b.extend_from_slice(&v.to_le_bytes());
    }
    fnv1a_64(&b)
}

#[test]
fn small_test_layout_is_pinned() {
    let p = Program::generate(&LayoutParams::small_test(), 9);
    assert_eq!((p.n_functions(), p.blocks().len()), (38, 733));
    assert_eq!(image_digest(&p), 0xa080_aae3_2520_ee6b);
}

#[test]
#[cfg_attr(miri, ignore)]
fn table4_sized_layout_is_pinned() {
    // Trade6's single part (115,509 published sites) at the grid seed.
    let ProfileTrace::Single(g) = WorkloadProfile::zos_trade6().build_with_len(0xEC12, 1) else {
        panic!("Trade6 is a single-part profile");
    };
    let p = g.program();
    assert_eq!((p.n_functions(), p.blocks().len()), (14_407, 275_688));
    assert_eq!(image_digest(p), 0x25a8_82dd_df8a_fa3f);
}
