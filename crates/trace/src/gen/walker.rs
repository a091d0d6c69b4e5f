//! Dynamic control-flow walk over a synthesized program image.
//!
//! The walker executes the static [`Program`] the way a processor trace
//! would record it: block by block, resolving every branch with its
//! assigned behaviour, maintaining a call stack, and shifting the active
//! *working set* (a union of contiguous function-id ranges) every
//! `phase_len` instructions. Working-set shifts are what re-enter
//! previously learned but since-evicted code — the situation the BTB2 bulk
//! preload exists to accelerate.
//!
//! The walk advances in *steps*: a step is either a run of sequential
//! non-branch instructions from one block body or one branch. The record
//! [`Iterator`] takes steps of at most one instruction; compact capture
//! takes whole block bodies and appends them to the encoder as length
//! codes, so the terminator and dispatch logic exists once for both. A
//! run is cut wherever the per-instruction walk would observe something
//! — the caller's budget, the stream limit and the next working-set
//! shift — so both consumers see the identical stream and random draws.

use crate::addr::InstAddr;
use crate::branch::{BranchKind, BranchRec};
use crate::compact::{CaptureStop, Encoder};
use crate::gen::behavior::SiteState;
use crate::gen::layout::{BlockId, FuncId, Program, Terminator};
use crate::instr::TraceInstr;
use zbp_support::rng::SmallRng;

/// Maximum call depth before calls stop pushing return continuations.
const MAX_CALL_DEPTH: usize = 48;

/// Deterministic instruction-stream iterator over a [`Program`].
///
/// Created by [`Walker::new`]; equal `(program, seed, limit)` triples
/// produce identical streams.
#[derive(Debug, Clone)]
pub struct Walker<'p> {
    program: &'p Program,
    rng: SmallRng,
    limit: u64,
    emitted: u64,
    site_state: Vec<SiteState>,
    /// Continuation blocks of the active calls.
    call_stack: Vec<BlockId>,
    cur_block: BlockId,
    /// Body instructions of `cur_block` already emitted.
    cur_instr: u32,
    cur_addr: InstAddr,
    phase: PhaseState,
    /// Next instruction count at which a return is forced to dispatch
    /// (models OS time slicing; keeps the walk from being trapped inside
    /// one call-graph neighbourhood).
    next_forced_dispatch: u64,
    dispatch_interval: u64,
}

/// One step of a [`Walker`].
pub(crate) enum Step<'p> {
    /// Sequential non-branch instructions from one block body: the
    /// first starts at `addr`, each next one where the previous ends.
    Run {
        /// Address of the first instruction.
        addr: InstAddr,
        /// Instruction lengths (never empty).
        lens: &'p [u8],
    },
    /// One branch instruction.
    Branch(TraceInstr),
}

/// Active working set: a union of contiguous function-id ranges, plus a
/// small *hot set* dispatched to with high probability — the 90/10
/// temporal locality of real commercial workloads. Hot functions promote
/// their branches from the BTBP into the BTB1; the slowly rotating range
/// tail is what generates first-level capacity traffic.
#[derive(Debug, Clone)]
struct PhaseState {
    ranges: Vec<(u32, u32)>,
    hot: Vec<FuncId>,
    hot_prob: f64,
    until: u64,
    phase_len: u64,
    range_size: u32,
    /// Round-robin cursor over the working-set ranges: cold dispatches
    /// cycle the whole active set in order, so every active function has
    /// the same (large) reuse distance — beyond the BTB1's reach and
    /// within the BTB2's, which is the access pattern that makes
    /// first-level capacity misses recoverable by a second level.
    cursor: u32,
    /// Sequential rotation cursor for phase-shift range refreshes.
    rotation: u32,
    /// Phase shifts so far (selects the round-robin victim range).
    shifts: u32,
    /// Transaction burstiness: a cold function is re-dispatched a few
    /// times back-to-back. The burst gives its surprise-installed
    /// branches a BTBP prediction — and therefore a BTB1 promotion —
    /// before the round moves on; without it, single-shot visits die in
    /// the BTBP and not even an infinitely large BTB1 could help.
    burst_func: FuncId,
    burst_remaining: u8,
}

impl PhaseState {
    fn new(program: &Program, rng: &mut SmallRng) -> Self {
        let n = program.n_functions().max(1);
        let n_ranges = program.phase_ranges.clamp(1, 16);
        // The active set covers ~two thirds of the program: far beyond
        // the BTB1's reach for the paper's workloads while the phase
        // rotation still sweeps the whole footprint over a run.
        let range_size = (2 * n / (n_ranges * 3).max(1)).clamp(4, n);
        // Ranges laid end-to-end from a random phase origin; refreshes
        // rotate sequentially so coverage is exhaustive, not lottery.
        let origin = rng.random_range(0..n);
        let span = n.saturating_sub(range_size).max(1);
        let mut ranges = Vec::with_capacity(n_ranges as usize);
        for i in 0..n_ranges {
            let start = (origin + i * range_size) % span;
            ranges.push((start, (start + range_size).min(n)));
        }
        let mut state = Self {
            ranges,
            hot: Vec::new(),
            hot_prob: program.hot_dispatch_prob.clamp(0.0, 0.95),
            until: program.phase_len.max(1),
            phase_len: program.phase_len.max(1),
            range_size,
            cursor: 0,
            rotation: (origin + n_ranges * range_size) % span,
            shifts: 0,
            burst_func: 0,
            burst_remaining: 0,
        };
        let hot_size = program.hot_funcs.clamp(1, n) as usize;
        for _ in 0..hot_size {
            let f = state.dispatch_cold(rng);
            state.hot.push(f);
        }
        state
    }

    /// Total function slots in the active ranges.
    fn active_slots(&self) -> u32 {
        self.ranges.iter().map(|(lo, hi)| hi - lo).sum::<u32>().max(1)
    }

    /// Function at a slot index within the concatenated ranges.
    fn slot_func(&self, slot: u32) -> FuncId {
        let mut s = slot;
        for &(lo, hi) in &self.ranges {
            let len = hi - lo;
            if s < len {
                return lo + s;
            }
            s -= len;
        }
        self.ranges[0].0
    }

    /// Called after every step with the instruction count so far;
    /// shifts the working set once `until` is reached.
    #[inline]
    fn tick(&mut self, emitted: u64, n_funcs: u32, rng: &mut SmallRng) {
        if emitted >= self.until {
            self.shift(emitted, n_funcs, rng);
        }
    }

    /// Shifts one range per phase and refreshes part of the hot set
    /// from the new working set. Victims rotate oldest-first so every
    /// range gets the same residency (`phase_ranges` phases) — random
    /// victims would leave some ranges under-cycled and the footprint
    /// under-covered.
    #[cold]
    fn shift(&mut self, emitted: u64, n_funcs: u32, rng: &mut SmallRng) {
        self.until = emitted + self.phase_len;
        let victim = (self.shifts as usize) % self.ranges.len();
        self.shifts = self.shifts.wrapping_add(1);
        let span = n_funcs.saturating_sub(self.range_size).max(1);
        let start = self.rotation % span;
        self.rotation = (self.rotation + self.range_size) % span;
        self.ranges[victim] = (start, (start + self.range_size).min(n_funcs));
        // A third of the hot set churns with the phase.
        let churn = (self.hot.len() / 3).max(1);
        for _ in 0..churn {
            let slot = rng.random_range(0..self.hot.len());
            self.hot[slot] = self.dispatch_cold(rng);
        }
    }

    /// Picks a function uniformly from the working-set ranges (hot-set
    /// seeding and churn).
    fn dispatch_cold(&self, rng: &mut SmallRng) -> FuncId {
        let (lo, hi) = self.ranges[rng.random_range(0..self.ranges.len())];
        rng.random_range(lo..hi.max(lo + 1))
    }

    /// Picks a dispatch target: an ongoing cold burst continues, hot
    /// functions interleave, and new cold bursts advance the round-robin
    /// cycle over the active working set.
    fn dispatch(&mut self, rng: &mut SmallRng) -> FuncId {
        if self.burst_remaining > 0 {
            self.burst_remaining -= 1;
            return self.burst_func;
        }
        if !self.hot.is_empty() && rng.random_bool(self.hot_prob) {
            self.hot[rng.random_range(0..self.hot.len())]
        } else {
            let slots = self.active_slots();
            let f = self.slot_func(self.cursor % slots);
            self.cursor = (self.cursor + 1) % slots;
            self.burst_func = f;
            self.burst_remaining = 1;
            f
        }
    }
}

impl<'p> Walker<'p> {
    /// Creates a walker producing `limit` instructions from `program`.
    ///
    /// # Panics
    ///
    /// Panics if the program has no functions.
    pub fn new(program: &'p Program, seed: u64, limit: u64) -> Self {
        assert!(!program.functions().is_empty(), "program must contain functions");
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xD157_A7C4_u64);
        let mut phase = PhaseState::new(program, &mut rng);
        let start_func = program.functions()[phase.dispatch(&mut rng) as usize];
        let dispatch_interval = (program.phase_len / 24).clamp(1_500, 25_000);
        Self {
            program,
            rng,
            limit,
            emitted: 0,
            site_state: vec![SiteState::default(); program.n_state_sites as usize],
            call_stack: Vec::with_capacity(MAX_CALL_DEPTH),
            cur_block: start_func.first_block(),
            cur_instr: 0,
            cur_addr: start_func.entry,
            phase,
            next_forced_dispatch: dispatch_interval,
            dispatch_interval,
        }
    }

    /// Moves to the start of `block`, returning its address.
    fn enter_block(&mut self, block: BlockId) -> InstAddr {
        self.cur_block = block;
        self.cur_instr = 0;
        self.cur_addr = self.program.blocks()[block as usize].start;
        self.cur_addr
    }

    /// Advances the walk by one step of at most `max` (≥ 1)
    /// instructions; `None` once the limit is reached.
    ///
    /// A run ends at the first of: the end of the block body, `max`, the
    /// walk's limit, and the next working-set shift — so the phase state
    /// advances at exactly the instruction count (and with exactly the
    /// random draws) a one-instruction-at-a-time walk would produce.
    #[inline(always)]
    pub(crate) fn step(&mut self, max: u64) -> Option<Step<'p>> {
        debug_assert!(max > 0, "a step emits at least one instruction");
        if self.emitted >= self.limit {
            return None;
        }
        let program = self.program;
        let n_funcs = program.n_functions();
        loop {
            let block = &program.blocks()[self.cur_block as usize];
            let body = program.instr_lens(block);
            let done = self.cur_instr as usize;
            if done < body.len() {
                // `phase.until > emitted` always holds between steps.
                let n = ((body.len() - done) as u64)
                    .min(max)
                    .min(self.limit - self.emitted)
                    .min(self.phase.until - self.emitted) as usize;
                let lens = &body[done..done + n];
                let addr = self.cur_addr;
                self.cur_instr += n as u32;
                self.cur_addr = if done + n == body.len() {
                    block.term_addr()
                } else {
                    addr.add(lens.iter().map(|&l| u64::from(l)).sum())
                };
                self.emitted += n as u64;
                self.phase.tick(self.emitted, n_funcs, &mut self.rng);
                return Some(Step::Run { addr, lens });
            }
            // At the terminator.
            let (len, rec) = match block.term {
                Terminator::FallThrough => {
                    self.enter_block(self.cur_block + 1);
                    continue;
                }
                Terminator::Cond { site, len, target_block, behavior } => {
                    let taken =
                        behavior.resolve(&mut self.site_state[site as usize], &mut self.rng);
                    let target = program.blocks()[target_block as usize].start;
                    self.enter_block(if taken { target_block } else { self.cur_block + 1 });
                    (len, BranchRec { kind: BranchKind::Conditional, taken, target })
                }
                Terminator::Jump { len, target_block } => {
                    let target = self.enter_block(target_block);
                    (len, BranchRec::taken(BranchKind::Unconditional, target))
                }
                Terminator::Call { len, callee } => {
                    let callee = program.functions()[callee as usize];
                    let target = if self.call_stack.len() < MAX_CALL_DEPTH {
                        self.call_stack.push(self.cur_block + 1);
                        self.enter_block(callee.first_block())
                    } else {
                        // At the depth cap: abbreviate the callee by
                        // entering its final block, so its imminent return
                        // unwinds the stack. Without this, static call
                        // cycles (A calls B calls A) would never reach a
                        // return instruction again.
                        self.enter_block(callee.last_block())
                    };
                    (len, BranchRec::taken(BranchKind::Call, target))
                }
                Terminator::Return { len } => {
                    let forced = self.emitted >= self.next_forced_dispatch;
                    let next = if forced {
                        // Time-slice boundary: abandon the current call
                        // chain and dispatch into the working set.
                        self.call_stack.clear();
                        self.next_forced_dispatch = self.emitted + self.dispatch_interval;
                        None
                    } else {
                        self.call_stack.pop()
                    };
                    let next = next.unwrap_or_else(|| {
                        let f = self.phase.dispatch(&mut self.rng);
                        program.functions()[f as usize].first_block()
                    });
                    let target = self.enter_block(next);
                    (len, BranchRec::taken(BranchKind::Return, target))
                }
                Terminator::Indirect { site, len, behavior, .. } => {
                    let targets = program.targets(&block.term);
                    let idx = behavior.choose(
                        targets.len(),
                        &mut self.site_state[site as usize],
                        &mut self.rng,
                    );
                    let target = self.enter_block(targets[idx]);
                    (len, BranchRec::taken(BranchKind::Indirect, target))
                }
            };
            self.emitted += 1;
            self.phase.tick(self.emitted, n_funcs, &mut self.rng);
            return Some(Step::Branch(TraceInstr::branch(block.term_addr(), len, rec)));
        }
    }

    /// Appends the next `n` instructions (fewer if the limit comes
    /// first) to `enc`, a whole block body at a time.
    pub(crate) fn encode(&mut self, enc: &mut Encoder, n: u64) -> Result<(), CaptureStop> {
        let mut left = n;
        while left > 0 {
            let Some(step) = self.step(left.min(enc.until_check())) else { break };
            left -= match step {
                Step::Run { addr, lens } => {
                    enc.push_run(addr, lens)?;
                    lens.len() as u64
                }
                Step::Branch(instr) => {
                    enc.push(&instr)?;
                    1
                }
            };
            enc.check_budget()?;
        }
        Ok(())
    }
}

impl Iterator for Walker<'_> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        Some(match self.step(1)? {
            Step::Run { addr, lens } => TraceInstr::plain(addr, lens[0]),
            Step::Branch(instr) => instr,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = (self.limit - self.emitted) as usize;
        (left, Some(left))
    }
}

impl ExactSizeIterator for Walker<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::layout::LayoutParams;
    use std::collections::HashSet;

    fn program() -> Program {
        Program::generate(&LayoutParams::small_test(), 77)
    }

    #[test]
    fn walker_emits_exactly_limit() {
        let p = program();
        let w = Walker::new(&p, 1, 1234);
        assert_eq!(w.count(), 1234);
    }

    #[test]
    fn walker_is_deterministic() {
        let p = program();
        let a: Vec<_> = Walker::new(&p, 5, 3000).collect();
        let b: Vec<_> = Walker::new(&p, 5, 3000).collect();
        assert_eq!(a, b);
    }

    #[test]
    fn size_hint_is_exact() {
        let p = program();
        let mut w = Walker::new(&p, 5, 100);
        assert_eq!(w.size_hint(), (100, Some(100)));
        w.next();
        assert_eq!(w.size_hint(), (99, Some(99)));
    }

    #[test]
    fn branch_addresses_come_from_program_sites() {
        let p = program();
        let sites: HashSet<u64> = p.branch_site_addrs().map(|a| a.raw()).collect();
        for i in Walker::new(&p, 2, 5000) {
            if i.is_branch() {
                assert!(sites.contains(&i.addr.raw()), "unknown branch site {:?}", i.addr);
            }
        }
    }

    #[test]
    fn calls_and_returns_balance_roughly() {
        let p = program();
        let mut calls = 0i64;
        let mut rets = 0i64;
        for i in Walker::new(&p, 3, 50_000) {
            match i.branch_kind() {
                Some(BranchKind::Call) => calls += 1,
                Some(BranchKind::Return) => rets += 1,
                _ => {}
            }
        }
        assert!(calls > 0 && rets > 0);
        // Forced dispatches clear the stack, so returns lag calls, but the
        // two must stay the same order of magnitude.
        assert!(rets * 4 > calls, "rets={rets} calls={calls}");
    }

    #[test]
    fn working_set_shifts_touch_many_functions() {
        let params =
            LayoutParams { target_sites: 3000, phase_len: 15_000, ..LayoutParams::small_test() };
        let p = Program::generate(&params, 9);
        let entries: HashSet<u64> = p.functions().iter().map(|f| f.entry.raw()).collect();
        let mut seen = HashSet::new();
        for i in Walker::new(&p, 4, 400_000) {
            if entries.contains(&i.addr.raw()) {
                seen.insert(i.addr.raw());
            }
        }
        // Over many phases the walk should reach a large share of functions.
        assert!(
            seen.len() * 2 > entries.len(),
            "only {} of {} functions visited",
            seen.len(),
            entries.len()
        );
    }

    #[test]
    fn taken_branch_density_is_realistic() {
        let p = program();
        let n = 50_000u64;
        let mut branches = 0u64;
        let mut taken = 0u64;
        for i in Walker::new(&p, 6, n) {
            if i.is_branch() {
                branches += 1;
                if i.is_taken_branch() {
                    taken += 1;
                }
            }
        }
        let bf = branches as f64 / n as f64;
        assert!((0.10..0.45).contains(&bf), "branch fraction {bf}");
        assert!(taken * 3 > branches, "too few taken branches");
    }
}
