//! Synthetic workload generation.
//!
//! The paper's 13 evaluation traces (Table 4) are proprietary IBM LSPR /
//! middleware traces. This module synthesizes workloads that reproduce the
//! *published properties that drive the studied mechanism*:
//!
//! * the number of unique branch instruction addresses (the branch-site
//!   footprint that overwhelms the 4 k-entry BTB1),
//! * the number of unique ever-taken branch addresses,
//! * z/Architecture instruction lengths (2/4/6 bytes),
//! * code structured as functions and basic blocks over 4 KB pages (the
//!   granularity of the BTB2 bulk transfer and its steering table),
//! * loops, calls/returns, biased and pattern-correlated conditionals,
//!   polymorphic indirect branches,
//! * phased working sets, so previously-learned code is re-entered after
//!   its branches were evicted from the first level — the case the BTB2
//!   exists to accelerate.
//!
//! Generation is split into a static *layout* ([`layout::Program`]) and a
//! dynamic *walk* ([`walker::Walker`]) so that one workload can be replayed
//! identically across predictor configurations.

pub mod behavior;
pub mod layout;
pub mod mix;
pub mod walker;

use crate::compact::{CaptureStop, Encoder};
use crate::{Trace, TraceInstr};
use layout::{LayoutParams, Program};
use std::sync::Arc;
use walker::Walker;

/// A generated, re-runnable workload trace.
///
/// Cheap to clone (the static program image is shared). Every call to
/// [`Trace::iter`] replays the identical dynamic instruction stream.
#[derive(Debug, Clone)]
pub struct GenTrace {
    name: String,
    program: Arc<Program>,
    seed: u64,
    len: u64,
}

impl GenTrace {
    /// Builds a workload from layout parameters.
    ///
    /// `seed` drives both the static layout and the dynamic walk; equal
    /// seeds and parameters produce identical traces.
    pub fn new(name: impl Into<String>, params: &LayoutParams, seed: u64, len: u64) -> Self {
        let program = Arc::new(Program::generate(params, seed ^ 0x5EED_1A70_u64));
        Self { name: name.into(), program, seed, len }
    }

    /// Builds a workload around an existing program image.
    pub fn with_program(
        name: impl Into<String>,
        program: Arc<Program>,
        seed: u64,
        len: u64,
    ) -> Self {
        Self { name: name.into(), program, seed, len }
    }

    /// Returns the same trace with a different dynamic length.
    #[must_use]
    pub fn with_len(mut self, len: u64) -> Self {
        self.len = len;
        self
    }

    /// Returns the same trace with a different walk seed (same code image,
    /// different dynamic behaviour).
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// The static program image.
    pub fn program(&self) -> &Arc<Program> {
        &self.program
    }

    /// The dynamic-walk seed (used by [`mix::MixTrace`] to construct
    /// unbounded sub-walkers over the same program).
    pub fn walk_seed(&self) -> u64 {
        self.seed
    }
}

impl Trace for GenTrace {
    type Iter<'a> = Walker<'a>;

    fn iter(&self) -> Self::Iter<'_> {
        Walker::new(&self.program, self.seed, self.len)
    }

    fn encode_compact(&self, enc: &mut Encoder) -> Result<(), CaptureStop> {
        self.iter().encode(enc, u64::MAX)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> u64 {
        self.len
    }
}

/// Convenience: collect the first `n` instructions of any trace.
pub fn take_vec<T: Trace>(trace: &T, n: usize) -> Vec<TraceInstr> {
    trace.iter().take(n).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Trace;

    fn small_params() -> LayoutParams {
        LayoutParams::small_test()
    }

    #[test]
    fn gen_trace_is_deterministic() {
        let t = GenTrace::new("t", &small_params(), 42, 5_000);
        let a: Vec<_> = t.iter().collect();
        let b: Vec<_> = t.iter().collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 5_000);
    }

    #[test]
    fn different_seeds_differ() {
        let params = small_params();
        let t1 = GenTrace::new("t", &params, 1, 2_000);
        let t2 = GenTrace::new("t", &params, 2, 2_000);
        let a: Vec<_> = t1.iter().collect();
        let b: Vec<_> = t2.iter().collect();
        assert_ne!(a, b);
    }

    #[test]
    fn with_len_changes_only_length() {
        let t = GenTrace::new("t", &small_params(), 42, 1_000);
        let longer = t.clone().with_len(2_000);
        let a: Vec<_> = t.iter().collect();
        let b: Vec<_> = longer.iter().take(1_000).collect();
        assert_eq!(a, b, "prefix must be identical");
        assert_eq!(longer.len(), 2_000);
    }

    #[test]
    fn instruction_lengths_are_z_like() {
        let t = GenTrace::new("t", &small_params(), 7, 3_000);
        for i in t.iter() {
            assert!(matches!(i.len, 2 | 4 | 6), "bad length {}", i.len);
            assert_eq!(i.addr.raw() % 2, 0, "z instructions are halfword aligned");
        }
    }

    #[test]
    fn control_flow_is_consistent() {
        // Every instruction must start where the previous one said the
        // stream goes next.
        let t = GenTrace::new("t", &small_params(), 9, 5_000);
        let mut prev: Option<TraceInstr> = None;
        for i in t.iter() {
            if let Some(p) = prev {
                assert_eq!(p.next_addr(), i.addr, "discontinuity after {:?} -> {:?}", p, i);
            }
            prev = Some(i);
        }
    }

    #[test]
    fn take_vec_takes() {
        let t = GenTrace::new("t", &small_params(), 3, 1_000);
        assert_eq!(take_vec(&t, 10).len(), 10);
    }
}
