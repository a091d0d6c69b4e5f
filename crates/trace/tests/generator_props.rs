//! Randomized tests on the synthetic workload generator, driven by the
//! deterministic [`zbp_support::rng::SmallRng`].

use std::collections::HashSet;
use zbp_support::rng::SmallRng;
use zbp_trace::gen::layout::{LayoutParams, Program, Terminator};
use zbp_trace::gen::walker::Walker;
use zbp_trace::{Trace, TraceStats, VecTrace};

fn sample_layout(rng: &mut SmallRng) -> LayoutParams {
    let trip_lo = rng.random_range(2u16..6);
    let trip_hi = rng.random_range(6u16..30);
    LayoutParams {
        target_sites: rng.random_range(400u32..3_000),
        taken_fraction: 0.45 + 0.40 * rng.random::<f64>(),
        loop_trip: (trip_lo, trip_hi),
        ..LayoutParams::default()
    }
}

#[test]
fn programs_are_structurally_sound() {
    let mut rng = SmallRng::seed_from_u64(0xA1);
    for _ in 0..16 {
        let params = sample_layout(&mut rng);
        let seed = rng.random_range(0u64..500);
        let p = Program::generate(&params, seed);
        assert!(p.n_functions() > 0);
        assert!(p.reachable_sites > 0);
        assert!(p.reachable_taken_sites <= p.reachable_sites);
        let mut next_block = 0;
        for f in p.functions() {
            // Functions tile the flat block array in order.
            assert_eq!(f.first_block(), next_block);
            next_block = f.last_block() + 1;
            let blocks = p.function_blocks(f);
            assert!(!blocks.is_empty());
            assert_eq!(blocks[0].start, f.entry);
            let ends_in_return = matches!(blocks.last().unwrap().term, Terminator::Return { .. });
            assert!(ends_in_return);
            // Blocks contiguous and targets in range.
            let range = f.first_block()..=f.last_block();
            for w in blocks.windows(2) {
                assert_eq!(w[0].start.add(w[0].size_bytes()), w[1].start);
            }
            for b in blocks {
                let body: u64 = p.instr_lens(b).iter().map(|&l| u64::from(l)).sum();
                assert_eq!(b.term_addr(), b.start.add(body));
                match b.term {
                    Terminator::Cond { target_block, .. }
                    | Terminator::Jump { target_block, .. } => {
                        assert!(range.contains(&target_block))
                    }
                    Terminator::Indirect { .. } => {
                        let targets = p.targets(&b.term);
                        assert!(!targets.is_empty());
                        assert!(targets.iter().all(|t| range.contains(t)));
                    }
                    Terminator::Call { callee, .. } => assert!(callee < p.n_functions()),
                    _ => {}
                }
            }
        }
        assert_eq!(next_block as usize, p.blocks().len());
    }
}

#[test]
fn walks_emit_exactly_the_limit_and_stay_on_known_sites() {
    let mut rng = SmallRng::seed_from_u64(0xA2);
    for _ in 0..16 {
        let params = sample_layout(&mut rng);
        let seed = rng.random_range(0u64..500);
        let len = rng.random_range(500u64..5_000);
        let p = Program::generate(&params, seed);
        let sites: HashSet<u64> = p.branch_site_addrs().map(|a| a.raw()).collect();
        let mut count = 0u64;
        for i in Walker::new(&p, seed ^ 7, len) {
            count += 1;
            if i.is_branch() {
                assert!(sites.contains(&i.addr.raw()));
            }
        }
        assert_eq!(count, len);
    }
}

#[test]
fn taken_fraction_of_long_walks_tracks_the_target() {
    let mut rng = SmallRng::seed_from_u64(0xA3);
    for _ in 0..8 {
        let taken_fraction = 0.5 + 0.3 * rng.random::<f64>();
        let seed = rng.random_range(0u64..100);
        let params =
            LayoutParams { target_sites: 2_000, taken_fraction, ..LayoutParams::default() };
        let p = Program::generate(&params, seed);
        let trace: VecTrace = Walker::new(&p, seed, 120_000).collect();
        let stats = TraceStats::from_iter_records(trace.iter());
        let got = stats.unique_taken as f64 / stats.unique_branches.max(1) as f64;
        // The never-taken site quota controls this ratio; dynamic
        // sampling adds slack.
        assert!(
            (got - taken_fraction).abs() < 0.15,
            "ever-taken ratio {got:.3} vs target {taken_fraction:.3}"
        );
    }
}

#[test]
fn different_walk_seeds_share_the_static_image() {
    let mut rng = SmallRng::seed_from_u64(0xA4);
    for _ in 0..16 {
        let params = sample_layout(&mut rng);
        let seed = rng.random_range(0u64..100);
        let p = Program::generate(&params, seed);
        let sites_a: HashSet<u64> =
            Walker::new(&p, 1, 3_000).filter(|i| i.is_branch()).map(|i| i.addr.raw()).collect();
        let sites_b: HashSet<u64> =
            Walker::new(&p, 2, 3_000).filter(|i| i.is_branch()).map(|i| i.addr.raw()).collect();
        // Different dynamic paths, but both must be subsets of the image.
        let all: HashSet<u64> = p.branch_site_addrs().map(|a| a.raw()).collect();
        assert!(sites_a.is_subset(&all));
        assert!(sites_b.is_subset(&all));
    }
}

mod reuse_distance_props {
    use std::collections::{HashMap, HashSet};
    use zbp_support::rng::SmallRng;
    use zbp_trace::analysis::ReuseProfile;
    use zbp_trace::{BranchKind, BranchRec, InstAddr, TraceInstr};

    fn branch(site: u64) -> TraceInstr {
        TraceInstr::branch(
            InstAddr::new(site * 16),
            4,
            BranchRec::taken(BranchKind::Conditional, InstAddr::new(0x40)),
        )
    }

    /// O(n^2) reference: distinct sites strictly between consecutive
    /// executions of the same site.
    fn brute_force(sites: &[u64], bounds: &[u64]) -> (Vec<u64>, u64) {
        let mut counts = vec![0u64; bounds.len() + 1];
        let mut cold = 0u64;
        let mut last: HashMap<u64, usize> = HashMap::new();
        for (i, &s) in sites.iter().enumerate() {
            match last.insert(s, i) {
                None => cold += 1,
                Some(prev) => {
                    let distinct: HashSet<u64> = sites[prev + 1..i].iter().cloned().collect();
                    let d = distinct.len() as u64;
                    let bucket = bounds.iter().position(|&b| d < b).unwrap_or(bounds.len());
                    counts[bucket] += 1;
                }
            }
        }
        (counts, cold)
    }

    #[test]
    fn fenwick_profile_matches_brute_force() {
        let mut rng = SmallRng::seed_from_u64(0xA5);
        for _ in 0..32 {
            let n = rng.random_range(1usize..120);
            let sites: Vec<u64> = (0..n).map(|_| rng.random_range(1u64..20)).collect();
            let bounds = [1u64, 2, 4, 8, 16];
            let instrs: Vec<TraceInstr> = sites.iter().map(|&s| branch(s)).collect();
            let profile = ReuseProfile::collect_with_bounds(instrs.iter().cloned(), &bounds);
            let (expect_counts, expect_cold) = brute_force(&sites, &bounds);
            assert_eq!(profile.counts, expect_counts);
            assert_eq!(profile.cold_executions, expect_cold);
            assert_eq!(profile.total_branches, sites.len() as u64);
        }
    }
}
