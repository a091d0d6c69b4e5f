//! Static program image synthesis.
//!
//! Generates a code layout — functions made of basic blocks, placed over
//! 4 KB pages in one address space — whose *reachable branch-site count*
//! and *ever-taken site fraction* match a workload target (the two columns
//! of the paper's Table 4). The dynamic walk over this image is in
//! [`super::walker`].
//!
//! The image is flat: every block of every function lives in one
//! [`Program::blocks`] vector in layout order, the non-terminator
//! instruction lengths of all blocks in one `u8` arena and the indirect
//! branch targets in one [`BlockId`] arena. A [`Function`] is a [`Span`]
//! of blocks and a [`Block`] names its lengths by span, so [`Block`] and
//! [`Terminator`] are `Copy` and a Table-4-sized image is three
//! allocations rather than hundreds of thousands.

use std::ops::Range;

use crate::addr::InstAddr;
use crate::gen::behavior::{CondBehavior, IndirectBehavior};
use zbp_support::rng::SmallRng;

/// Identifier of a function within a [`Program`].
pub type FuncId = u32;

/// Index of a block in [`Program::blocks`] (program-wide, not relative
/// to its function).
pub type BlockId = u32;

/// Identifier carrying per-site dynamic state (conditionals and indirects).
pub type SiteId = u32;

/// A contiguous index range into one of a [`Program`]'s arenas.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Span {
    /// First index.
    pub start: u32,
    /// Number of elements.
    pub len: u32,
}

impl Span {
    /// The span as a `usize` range, for slicing.
    pub fn range(self) -> Range<usize> {
        self.start as usize..(self.start + self.len) as usize
    }
}

/// How a basic block ends.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Terminator {
    /// No branch: execution continues into the next block. Creates the
    /// branch-free stretches that make perceived BTB1 misses speculative
    /// (the paper's "long unrolled loop" false-miss case).
    FallThrough,
    /// Conditional branch to `target_block` in the same function.
    Cond {
        /// Dynamic-state id.
        site: SiteId,
        /// Instruction length in bytes.
        len: u8,
        /// Target block (within the same function).
        target_block: BlockId,
        /// Direction behaviour.
        behavior: CondBehavior,
    },
    /// Unconditional forward jump within the function.
    Jump {
        /// Instruction length in bytes.
        len: u8,
        /// Target block (within the same function).
        target_block: BlockId,
    },
    /// Call to another function; execution resumes at the next block.
    Call {
        /// Instruction length in bytes.
        len: u8,
        /// Callee function.
        callee: FuncId,
    },
    /// Return to the caller (or to the dispatcher when the stack is empty).
    Return {
        /// Instruction length in bytes.
        len: u8,
    },
    /// Indirect branch over a set of same-function target blocks.
    Indirect {
        /// Dynamic-state id.
        site: SiteId,
        /// Instruction length in bytes.
        len: u8,
        /// Candidate target blocks: a span of [`Program::targets`].
        targets: Span,
        /// Target-selection behaviour.
        behavior: IndirectBehavior,
    },
}

impl Terminator {
    /// Whether this terminator is a branch instruction (everything except
    /// a fall-through).
    pub fn is_branch(&self) -> bool {
        !matches!(self, Terminator::FallThrough)
    }

    /// Whether execution can continue into the next sequential block.
    pub fn can_fall_through(&self) -> bool {
        match self {
            Terminator::FallThrough => true,
            Terminator::Cond { behavior, .. } => match behavior {
                // A 100%-taken biased cond never falls through.
                CondBehavior::Biased { p_taken } => *p_taken < 1.0,
                _ => true,
            },
            // After a call returns, execution resumes at the next block.
            Terminator::Call { .. } => true,
            Terminator::Jump { .. } | Terminator::Return { .. } | Terminator::Indirect { .. } => {
                false
            }
        }
    }

    /// Instruction length of the terminator in bytes (0 for
    /// fall-through). This is an instruction size, not a collection
    /// length, so there is deliberately no `is_empty`.
    #[allow(clippy::len_without_is_empty)]
    pub fn len(&self) -> u8 {
        match self {
            Terminator::FallThrough => 0,
            Terminator::Cond { len, .. }
            | Terminator::Jump { len, .. }
            | Terminator::Call { len, .. }
            | Terminator::Return { len }
            | Terminator::Indirect { len, .. } => *len,
        }
    }

    /// Whether this branch can ever be resolved taken.
    pub fn can_take(&self) -> bool {
        match self {
            Terminator::FallThrough => false,
            Terminator::Cond { behavior, .. } => behavior.can_take(),
            _ => true,
        }
    }
}

/// A basic block: straight-line instructions plus a terminator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Address of the first instruction.
    pub start: InstAddr,
    /// Address of the terminator (the end of the body).
    term_addr: InstAddr,
    /// Lengths of the non-terminator instructions: a span of the
    /// program's length arena ([`Program::instr_lens`]).
    lens: Span,
    /// How the block ends.
    pub term: Terminator,
}

impl Block {
    /// Total byte size of the block including the terminator.
    pub fn size_bytes(&self) -> u64 {
        self.term_addr.raw() - self.start.raw() + self.term.len() as u64
    }

    /// Address of the terminator instruction (== end for fall-throughs).
    pub fn term_addr(&self) -> InstAddr {
        self.term_addr
    }
}

/// A function: a contiguous run of blocks in [`Program::blocks`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Function {
    /// Entry address (== first block start).
    pub entry: InstAddr,
    /// The function's blocks, in layout order.
    pub blocks: Span,
}

impl Function {
    /// The entry block.
    pub fn first_block(&self) -> BlockId {
        self.blocks.start
    }

    /// The final block (always a return).
    pub fn last_block(&self) -> BlockId {
        self.blocks.start + self.blocks.len - 1
    }
}

/// Parameters controlling program synthesis.
#[derive(Debug, Clone, PartialEq)]
pub struct LayoutParams {
    /// Target number of *reachable* branch sites (unique branch
    /// instruction addresses the trace can produce).
    pub target_sites: u32,
    /// Target fraction of reachable sites that are ever-taken
    /// (Table 4 column 2 / column 1).
    pub taken_fraction: f64,
    /// Base of the code address space.
    pub base_addr: u64,
    /// Inclusive range of basic blocks per function.
    pub blocks_per_fn: (u32, u32),
    /// Inclusive range of non-terminator instructions per block.
    pub instrs_per_block: (u32, u32),
    /// Terminator mix weights for non-last blocks:
    /// (cond, jump, call, indirect, fall-through).
    pub term_mix: [f64; 5],
    /// Fraction of conditional sites whose target is backward (loop edges).
    pub backward_cond_fraction: f64,
    /// Among taken-capable forward conditionals, fraction given a
    /// deterministic repeating pattern (PHT-friendly) instead of a bias.
    pub pattern_fraction: f64,
    /// Inclusive range of loop trip counts.
    pub loop_trip: (u16, u16),
    /// Probability that a function entry is aligned to a 4 KB page.
    pub page_align_fraction: f64,
    /// Insert a 64 KB "module gap" every this many functions (0 = never).
    pub module_gap_every: u32,
    /// Fraction of reachable sites the dynamic walk is expected to touch;
    /// the generator overshoots the target by `1 / reachable_margin`.
    pub reachable_margin: f64,
    /// Instructions between working-set (phase) shifts in the dynamic walk.
    pub phase_len: u64,
    /// Number of contiguous function-id ranges forming the active working
    /// set at any time.
    pub phase_ranges: u32,
    /// Size of the *hot* dispatch set: a handful of functions re-entered
    /// constantly (the 90/10 locality real commercial workloads exhibit).
    pub hot_funcs: u32,
    /// Probability that a dispatch targets the hot set instead of the
    /// broad working-set ranges.
    pub hot_dispatch_prob: f64,
}

impl Default for LayoutParams {
    fn default() -> Self {
        Self {
            target_sites: 20_000,
            taken_fraction: 0.65,
            base_addr: 0x0000_0000_0100_0000,
            blocks_per_fn: (6, 32),
            instrs_per_block: (1, 9),
            term_mix: [0.62, 0.06, 0.04, 0.04, 0.24],
            backward_cond_fraction: 0.10,
            pattern_fraction: 0.15,
            loop_trip: (2, 8),
            page_align_fraction: 0.25,
            module_gap_every: 48,
            reachable_margin: 0.94,
            phase_len: 400_000,
            phase_ranges: 4,
            hot_funcs: 48,
            hot_dispatch_prob: 0.15,
        }
    }
}

impl LayoutParams {
    /// A deliberately tiny layout for fast unit tests.
    pub fn small_test() -> Self {
        Self { target_sites: 400, ..Self::default() }
    }

    /// Layout sized for a Table-4 footprint: `sites` unique branch
    /// addresses of which `taken` are ever-taken.
    pub fn for_footprint(sites: u32, taken: u32) -> Self {
        assert!(taken <= sites, "taken sites cannot exceed total sites");
        Self {
            target_sites: sites,
            taken_fraction: taken as f64 / sites.max(1) as f64,
            ..Self::default()
        }
    }
}

/// A complete synthesized program image (see the module docs for the
/// flat layout).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    functions: Vec<Function>,
    blocks: Vec<Block>,
    lens: Vec<u8>,
    targets: Vec<BlockId>,
    /// Number of dynamic-state sites (conditionals + indirects).
    pub n_state_sites: u32,
    /// Count of branch sites reachable from function entries.
    pub reachable_sites: u32,
    /// Count of reachable sites that can ever be taken.
    pub reachable_taken_sites: u32,
    /// Total byte span of the image.
    pub footprint_bytes: u64,
    /// Instructions between working-set shifts (copied from the params).
    pub phase_len: u64,
    /// Number of active working-set ranges (copied from the params).
    pub phase_ranges: u32,
    /// Hot dispatch set size (copied from the params).
    pub hot_funcs: u32,
    /// Hot dispatch probability (copied from the params).
    pub hot_dispatch_prob: f64,
}

impl Program {
    /// Synthesizes a program matching `params`, deterministically from
    /// `seed`.
    ///
    /// # Panics
    ///
    /// Panics if `params.target_sites == 0`.
    pub fn generate(params: &LayoutParams, seed: u64) -> Self {
        assert!(params.target_sites > 0, "target_sites must be positive");
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut gen = Generator::new(params);
        let overshoot =
            (params.target_sites as f64 / params.reachable_margin.clamp(0.05, 1.0)) as u64;
        // About 1.6 blocks per reachable site and 5 instructions per
        // block at the default mix (capped, so absurd targets grow the
        // arenas instead of reserving them); a miss only costs a
        // reallocation.
        let est_blocks = (overshoot.saturating_mul(7) / 4).min(1 << 22) as usize;
        let mut image = Program {
            functions: Vec::new(),
            blocks: Vec::with_capacity(est_blocks),
            lens: Vec::with_capacity(est_blocks.saturating_mul(5)),
            targets: Vec::new(),
            n_state_sites: 0,
            reachable_sites: 0,
            reachable_taken_sites: 0,
            footprint_bytes: 0,
            phase_len: params.phase_len,
            phase_ranges: params.phase_ranges,
            hot_funcs: params.hot_funcs,
            hot_dispatch_prob: params.hot_dispatch_prob,
        };
        let mut reach = Reach::default();
        let mut reachable: u64 = 0;
        let mut reachable_taken: u64 = 0;
        // Hard cap so degenerate parameters cannot spin forever.
        let max_funcs = 4_000_000usize;
        while reachable < overshoot && image.functions.len() < max_funcs {
            let f = gen.gen_function(&mut rng, image.functions.len() as u32, &mut image);
            let (r, rt) = reach.count(&image, f);
            reachable += r as u64;
            reachable_taken += rt as u64;
            image.functions.push(f);
        }
        let n_funcs = image.functions.len() as u32;
        // Fix up call targets that referenced not-yet-generated functions.
        for b in &mut image.blocks {
            if let Terminator::Call { callee, .. } = &mut b.term {
                *callee %= n_funcs;
            }
        }
        image.n_state_sites = gen.next_site;
        image.reachable_sites = reachable as u32;
        image.reachable_taken_sites = reachable_taken as u32;
        image.footprint_bytes = gen.cursor - params.base_addr;
        image
    }

    /// All functions, id == index.
    pub fn functions(&self) -> &[Function] {
        &self.functions
    }

    /// Every block of every function, in layout order.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// The blocks of one function, in layout order.
    pub fn function_blocks(&self, f: &Function) -> &[Block] {
        &self.blocks[f.blocks.range()]
    }

    /// Lengths of `block`'s non-terminator instructions.
    pub fn instr_lens(&self, block: &Block) -> &[u8] {
        &self.lens[block.lens.range()]
    }

    /// Candidate target blocks of an indirect terminator (empty for any
    /// other terminator).
    pub fn targets(&self, term: &Terminator) -> &[BlockId] {
        match term {
            Terminator::Indirect { targets, .. } => &self.targets[targets.range()],
            _ => &[],
        }
    }

    /// Iterator over the addresses of every branch site in layout order
    /// (reachable or not). Mainly for statistics and tests.
    pub fn branch_site_addrs(&self) -> impl Iterator<Item = InstAddr> + '_ {
        self.blocks.iter().filter(|b| b.term.is_branch()).map(|b| b.term_addr())
    }

    /// Number of functions in the image.
    pub fn n_functions(&self) -> u32 {
        self.functions.len() as u32
    }
}

/// Scratch buffers of the per-function reachability count, reused
/// across functions.
#[derive(Default)]
struct Reach {
    seen: Vec<bool>,
    stack: Vec<usize>,
}

impl Reach {
    /// Computes (reachable branch sites, reachable taken-capable sites)
    /// for function `f`, following realized control-flow edges from its
    /// entry block.
    fn count(&mut self, image: &Program, f: Function) -> (u32, u32) {
        let blocks = &image.blocks[f.blocks.range()];
        let first = f.first_block() as usize;
        let n = blocks.len();
        self.seen.clear();
        self.seen.resize(n, false);
        self.stack.clear();
        self.stack.push(0);
        while let Some(i) = self.stack.pop() {
            if self.seen[i] {
                continue;
            }
            self.seen[i] = true;
            let b = &blocks[i];
            if b.term.can_fall_through() && i + 1 < n {
                self.stack.push(i + 1);
            }
            match b.term {
                Terminator::Cond { target_block, behavior, .. } if behavior.can_take() => {
                    self.stack.push(target_block as usize - first)
                }
                Terminator::Jump { target_block, .. } => {
                    self.stack.push(target_block as usize - first)
                }
                Terminator::Indirect { targets, behavior, .. } => {
                    let targets = &image.targets[targets.range()];
                    match behavior {
                        IndirectBehavior::Monomorphic => {
                            self.stack.push(targets[0] as usize - first)
                        }
                        _ => self.stack.extend(targets.iter().map(|&t| t as usize - first)),
                    }
                }
                _ => {}
            }
        }
        let mut sites = 0;
        let mut taken = 0;
        for (b, &seen) in blocks.iter().zip(&self.seen) {
            if seen && b.term.is_branch() {
                sites += 1;
                if b.term.can_take() {
                    taken += 1;
                }
            }
        }
        (sites, taken)
    }
}

/// Incremental generator state shared across functions.
struct Generator<'p> {
    params: &'p LayoutParams,
    cursor: u64,
    next_site: SiteId,
    sites_emitted: u64,
    never_taken_emitted: u64,
    term_cdf: [f64; 5],
}

impl<'p> Generator<'p> {
    fn new(params: &'p LayoutParams) -> Self {
        let mut cdf = [0.0; 5];
        let total: f64 = params.term_mix.iter().sum();
        assert!(total > 0.0, "terminator mix must have positive weight");
        let mut acc = 0.0;
        for (i, w) in params.term_mix.iter().enumerate() {
            acc += w / total;
            cdf[i] = acc;
        }
        Self {
            params,
            cursor: params.base_addr,
            next_site: 0,
            sites_emitted: 0,
            never_taken_emitted: 0,
            term_cdf: cdf,
        }
    }

    fn instr_len(&self, rng: &mut SmallRng) -> u8 {
        let x: f64 = rng.random();
        if x < 0.25 {
            2
        } else if x < 0.65 {
            4
        } else {
            6
        }
    }

    fn branch_len(&self, rng: &mut SmallRng) -> u8 {
        if rng.random_bool(0.3) {
            6
        } else {
            4
        }
    }

    /// Greedy allocator keeping the global never-taken site fraction at
    /// `1 - taken_fraction`.
    fn want_never_taken(&mut self) -> bool {
        let desired = (1.0 - self.params.taken_fraction) * self.sites_emitted as f64;
        (self.never_taken_emitted as f64) < desired
    }

    /// Appends function `id`'s blocks, lengths and indirect targets to
    /// `image` and returns its descriptor (not yet pushed).
    fn gen_function(&mut self, rng: &mut SmallRng, id: u32, image: &mut Program) -> Function {
        let p = self.params;
        // Occasional module gap spreads code over the address space.
        if p.module_gap_every > 0 && id > 0 && id.is_multiple_of(p.module_gap_every) {
            self.cursor += 64 * 1024;
        }
        // Function alignment.
        if rng.random_bool(p.page_align_fraction) {
            self.cursor = (self.cursor + 4095) & !4095;
        } else {
            self.cursor = (self.cursor + 7) & !7;
            self.cursor += rng.random_range(0..8u64) * 2;
        }
        let entry = InstAddr::new(self.cursor);
        let n_blocks = rng.random_range(p.blocks_per_fn.0..=p.blocks_per_fn.1).max(1);
        let first = image.blocks.len() as BlockId;
        for bi in 0..n_blocks {
            let n_instrs = rng.random_range(p.instrs_per_block.0..=p.instrs_per_block.1);
            let lens_start = image.lens.len();
            for _ in 0..n_instrs {
                let len = self.instr_len(rng);
                image.lens.push(len);
            }
            let term = if bi + 1 == n_blocks {
                self.sites_emitted += 1;
                Terminator::Return { len: self.branch_len(rng) }
            } else {
                self.gen_terminator(rng, id, first, bi, n_blocks, image)
            };
            let start = InstAddr::new(self.cursor);
            let body: u64 = image.lens[lens_start..].iter().map(|&l| l as u64).sum();
            self.cursor += body + term.len() as u64;
            image.blocks.push(Block {
                start,
                term_addr: start.add(body),
                lens: Span { start: lens_start as u32, len: n_instrs },
                term,
            });
        }
        // Small inter-function gap.
        self.cursor += rng.random_range(0..24u64) * 2;
        Function { entry, blocks: Span { start: first, len: n_blocks } }
    }

    /// Picks the largest valid backward loop target for block `i`: the
    /// loop body (blocks `t..=i`) must be small, call-free and contain no
    /// other back-edge, so loop iteration multiplies straight-line work
    /// only — otherwise call chains inside hot loops make function
    /// traversals effectively never finish. Indices are relative to the
    /// function, whose blocks so far are `prior` starting at `first`.
    fn backward_loop_target(
        block_idx: u32,
        first: BlockId,
        prior: &[Block],
        rng: &mut SmallRng,
    ) -> Option<u32> {
        let lo = block_idx.saturating_sub(3);
        let t = rng.random_range(lo..=block_idx);
        for j in t..block_idx {
            match prior[j as usize].term {
                Terminator::Call { .. } => return None,
                Terminator::Cond { target_block, .. } if target_block <= first + j => return None,
                Terminator::Return { .. } => return None,
                _ => {}
            }
        }
        Some(t)
    }

    /// Draws the terminator of non-final block `block_idx` (relative to
    /// the function starting at block `first`), storing program-wide
    /// block ids.
    fn gen_terminator(
        &mut self,
        rng: &mut SmallRng,
        func_id: u32,
        first: BlockId,
        block_idx: u32,
        n_blocks: u32,
        image: &mut Program,
    ) -> Terminator {
        let p = self.params;
        let x: f64 = rng.random();
        let kind = self.term_cdf.iter().position(|&c| x < c).unwrap_or(4);
        let len = self.branch_len(rng);
        match kind {
            0 => {
                // Conditional.
                self.sites_emitted += 1;
                let site = self.next_site;
                self.next_site += 1;
                let backward = rng.random_bool(p.backward_cond_fraction);
                if self.want_never_taken() {
                    self.never_taken_emitted += 1;
                    // Never-taken check; target is recorded but unused.
                    let target_block = first + rng.random_range(block_idx + 1..n_blocks);
                    return Terminator::Cond {
                        site,
                        len,
                        target_block,
                        behavior: CondBehavior::Biased { p_taken: 0.0 },
                    };
                }
                let loop_target = if backward {
                    // Loop back-edge (self-loops allowed: the paper's
                    // fastest prediction case is a single-branch loop).
                    let prior = &image.blocks[first as usize..];
                    Self::backward_loop_target(block_idx, first, prior, rng)
                } else {
                    None
                };
                if let Some(t) = loop_target {
                    let trip = rng.random_range(p.loop_trip.0..=p.loop_trip.1).max(2);
                    Terminator::Cond {
                        site,
                        len,
                        target_block: first + t,
                        behavior: CondBehavior::Loop { trip },
                    }
                } else {
                    let target_block = first + rng.random_range(block_idx + 1..n_blocks);
                    let behavior = if rng.random_bool(p.pattern_fraction) {
                        let period = rng.random_range(2..=8u8);
                        // Ensure at least one taken bit.
                        let bits = rng.random_range(1u32..(1u32 << period));
                        CondBehavior::Pattern { period, bits }
                    } else {
                        // Real branch populations are heavily biased: most
                        // sites are strongly one-sided, a minority are
                        // moderately biased, and a small tail is mixed.
                        let x: f64 = rng.random();
                        let p_taken = if x < 0.60 {
                            let strong = rng.random_range(0.92..0.99);
                            if rng.random_bool(0.5) {
                                strong
                            } else {
                                1.0 - strong
                            }
                        } else if x < 0.85 {
                            rng.random_range(0.72..0.92)
                        } else {
                            rng.random_range(0.30..0.72)
                        };
                        CondBehavior::Biased { p_taken }
                    };
                    Terminator::Cond { site, len, target_block, behavior }
                }
            }
            1 => {
                self.sites_emitted += 1;
                let target_block = first + rng.random_range(block_idx + 1..n_blocks);
                Terminator::Jump { len, target_block }
            }
            2 => {
                self.sites_emitted += 1;
                // Local call graph: neighbours mostly, occasionally far.
                let callee = if rng.random_bool(0.85) {
                    let lo = func_id.saturating_sub(6);
                    rng.random_range(lo..=func_id + 8)
                } else {
                    rng.random_range(0..func_id + 64)
                };
                Terminator::Call { len, callee }
            }
            3 => {
                self.sites_emitted += 1;
                let site = self.next_site;
                self.next_site += 1;
                let n_targets = rng.random_range(2..=5u32).min(n_blocks - block_idx - 1).max(1);
                let mut picks = [0; 5];
                let picks = &mut picks[..n_targets as usize];
                for t in picks.iter_mut() {
                    *t = first + rng.random_range(block_idx + 1..n_blocks);
                }
                picks.sort_unstable();
                let at = image.targets.len();
                for &t in picks.iter() {
                    if image.targets.len() == at || image.targets.last() != Some(&t) {
                        image.targets.push(t);
                    }
                }
                // Half of indirect sites are effectively monomorphic
                // (virtual calls with one receiver in practice).
                let behavior = {
                    let x: f64 = rng.random();
                    if x < 0.65 {
                        IndirectBehavior::Monomorphic
                    } else if x < 0.85 {
                        IndirectBehavior::RoundRobin
                    } else {
                        IndirectBehavior::Random
                    }
                };
                let targets = Span { start: at as u32, len: (image.targets.len() - at) as u32 };
                Terminator::Indirect { site, len, targets, behavior }
            }
            _ => Terminator::FallThrough,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let p = LayoutParams::small_test();
        let a = Program::generate(&p, 11);
        let b = Program::generate(&p, 11);
        assert_eq!(a, b);
        let c = Program::generate(&p, 12);
        assert_ne!(a, c);
    }

    #[test]
    fn reachable_sites_close_to_target() {
        let p = LayoutParams::for_footprint(10_000, 6_500);
        let prog = Program::generate(&p, 3);
        let target = 10_000f64 / p.reachable_margin;
        let got = prog.reachable_sites as f64;
        assert!(
            (got - target).abs() / target < 0.15,
            "reachable {} vs overshoot target {}",
            got,
            target
        );
    }

    #[test]
    fn taken_fraction_close_to_target() {
        for &(sites, taken) in &[(20_000u32, 9_000u32), (10_000, 8_300), (30_000, 15_000)] {
            let p = LayoutParams::for_footprint(sites, taken);
            let prog = Program::generate(&p, 5);
            let got = prog.reachable_taken_sites as f64 / prog.reachable_sites as f64;
            let want = taken as f64 / sites as f64;
            assert!(
                (got - want).abs() < 0.08,
                "taken fraction {got:.3} vs target {want:.3} for {sites}/{taken}"
            );
        }
    }

    #[test]
    fn functions_tile_the_block_arena() {
        let prog = Program::generate(&LayoutParams::small_test(), 10);
        let mut next = 0;
        for f in prog.functions() {
            assert_eq!(f.blocks.start, next, "functions must be contiguous block ranges");
            assert!(f.blocks.len > 0);
            next += f.blocks.len;
        }
        assert_eq!(next as usize, prog.blocks().len());
        let lens: usize = prog.blocks().iter().map(|b| prog.instr_lens(b).len()).sum();
        assert_eq!(lens, prog.lens.len(), "blocks must tile the length arena");
    }

    #[test]
    fn blocks_are_contiguous_within_functions() {
        let prog = Program::generate(&LayoutParams::small_test(), 9);
        for f in prog.functions() {
            let blocks = prog.function_blocks(f);
            assert_eq!(f.entry, blocks[0].start);
            for w in blocks.windows(2) {
                assert_eq!(
                    w[0].start.add(w[0].size_bytes()),
                    w[1].start,
                    "blocks must be laid out contiguously"
                );
            }
        }
    }

    #[test]
    fn addresses_are_halfword_aligned_and_increasing() {
        let prog = Program::generate(&LayoutParams::small_test(), 4);
        let mut prev = 0u64;
        for f in prog.functions() {
            assert_eq!(f.entry.raw() % 2, 0);
            assert!(f.entry.raw() >= prev, "functions must not overlap");
            prev = prog.blocks()[f.last_block() as usize].start.raw();
        }
    }

    #[test]
    fn every_function_ends_in_return() {
        let prog = Program::generate(&LayoutParams::small_test(), 8);
        for f in prog.functions() {
            let last = prog.blocks()[f.last_block() as usize];
            assert!(matches!(last.term, Terminator::Return { .. }));
        }
    }

    #[test]
    fn call_targets_are_in_range() {
        let prog = Program::generate(&LayoutParams::small_test(), 2);
        let n = prog.n_functions();
        for b in prog.blocks() {
            if let Terminator::Call { callee, .. } = b.term {
                assert!(callee < n);
            }
        }
    }

    #[test]
    fn branch_targets_are_in_function_range() {
        let prog = Program::generate(&LayoutParams::small_test(), 6);
        for f in prog.functions() {
            let range = f.first_block()..=f.last_block();
            for b in prog.function_blocks(f) {
                match b.term {
                    Terminator::Cond { target_block, .. }
                    | Terminator::Jump { target_block, .. } => {
                        assert!(range.contains(&target_block))
                    }
                    Terminator::Indirect { .. } => {
                        let targets = prog.targets(&b.term);
                        assert!(!targets.is_empty());
                        assert!(targets.iter().all(|t| range.contains(t)));
                        assert!(targets.windows(2).all(|w| w[0] < w[1]), "sorted, deduplicated");
                    }
                    _ => assert!(prog.targets(&b.term).is_empty()),
                }
            }
        }
    }

    #[test]
    fn footprint_scales_with_sites() {
        let small = Program::generate(&LayoutParams::for_footprint(2_000, 1_300), 1);
        let large = Program::generate(&LayoutParams::for_footprint(20_000, 13_000), 1);
        assert!(large.footprint_bytes > 5 * small.footprint_bytes);
        // Sanity: a 20k-site program must dwarf the BTB1's ~128 KB reach.
        assert!(large.footprint_bytes > 256 * 1024);
    }

    #[test]
    fn term_addr_is_after_body() {
        let prog = Program::generate(&LayoutParams::small_test(), 13);
        for b in prog.blocks() {
            let body: u64 = prog.instr_lens(b).iter().map(|&l| l as u64).sum();
            assert_eq!(b.term_addr(), b.start.add(body));
        }
    }

    #[test]
    #[should_panic(expected = "target_sites must be positive")]
    fn zero_target_rejected() {
        let p = LayoutParams { target_sites: 0, ..LayoutParams::default() };
        Program::generate(&p, 0);
    }
}
