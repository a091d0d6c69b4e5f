//! Time-sliced workload mixing.
//!
//! The paper's trace 5 ("Z/OS LSPR WASDB+CBW2") is *a mix of two of the
//! LSPR workloads time sliced on one processor*, and the hardware Web
//! CICS/DB2 measurement ran on 4 cores. Both are modelled here by
//! interleaving several independent [`GenTrace`] walks in fixed-length
//! slices: each context switch confronts the predictor with a working set
//! it has not seen for a full round of slices.

use crate::compact::{CaptureStop, Encoder};
use crate::gen::walker::Walker;
use crate::gen::GenTrace;
use crate::{Trace, TraceInstr};

/// A trace interleaving several sub-traces in round-robin time slices.
#[derive(Debug, Clone)]
pub struct MixTrace {
    name: String,
    parts: Vec<GenTrace>,
    slice_len: u64,
    total_len: u64,
}

impl MixTrace {
    /// Creates a time-sliced mix.
    ///
    /// # Panics
    ///
    /// Panics if `parts` is empty or `slice_len` is zero.
    pub fn new(
        name: impl Into<String>,
        parts: Vec<GenTrace>,
        slice_len: u64,
        total_len: u64,
    ) -> Self {
        assert!(!parts.is_empty(), "a mix needs at least one part");
        assert!(slice_len > 0, "slice length must be positive");
        Self { name: name.into(), parts, slice_len, total_len }
    }

    /// The sub-traces being mixed.
    pub fn parts(&self) -> &[GenTrace] {
        &self.parts
    }

    /// Instructions per time slice.
    pub fn slice_len(&self) -> u64 {
        self.slice_len
    }

    /// Returns the same mix with a different total length.
    #[must_use]
    pub fn with_len(mut self, len: u64) -> Self {
        self.total_len = len;
        self
    }
}

impl Trace for MixTrace {
    type Iter<'a> = MixIter<'a>;

    fn iter(&self) -> Self::Iter<'_> {
        // Sub-walkers are unbounded; the mix applies the global cap so a
        // slice can resume exactly where the previous one stopped.
        let walkers =
            self.parts.iter().map(|p| Walker::new(p.program(), p.walk_seed(), u64::MAX)).collect();
        MixIter {
            walkers,
            idx: 0,
            in_slice: 0,
            slice_len: self.slice_len,
            remaining: self.total_len,
        }
    }

    fn encode_compact(&self, enc: &mut Encoder) -> Result<(), CaptureStop> {
        self.iter().encode(enc)
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> u64 {
        self.total_len
    }
}

/// Iterator over a [`MixTrace`].
#[derive(Debug, Clone)]
pub struct MixIter<'a> {
    walkers: Vec<Walker<'a>>,
    idx: usize,
    in_slice: u64,
    slice_len: u64,
    remaining: u64,
}

impl MixIter<'_> {
    /// Appends the rest of the mix to `enc` a slice at a time. A slice
    /// stops mid-block and its walker resumes there next round, exactly
    /// as the record iterator does; the encoder marks each slice switch
    /// with the discontinuity point the record path produces.
    fn encode(&mut self, enc: &mut Encoder) -> Result<(), CaptureStop> {
        while self.remaining > 0 {
            let n = (self.slice_len - self.in_slice).min(self.remaining);
            self.walkers[self.idx].encode(enc, n)?;
            self.remaining -= n;
            self.in_slice += n;
            if self.in_slice >= self.slice_len {
                self.in_slice = 0;
                self.idx = (self.idx + 1) % self.walkers.len();
            }
        }
        Ok(())
    }
}

impl Iterator for MixIter<'_> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        if self.remaining == 0 {
            return None;
        }
        let instr = self.walkers[self.idx].next()?;
        self.remaining -= 1;
        self.in_slice += 1;
        if self.in_slice >= self.slice_len {
            self.in_slice = 0;
            self.idx = (self.idx + 1) % self.walkers.len();
        }
        Some(instr)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining as usize, Some(self.remaining as usize))
    }
}

impl ExactSizeIterator for MixIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::layout::LayoutParams;

    fn part(base: u64, seed: u64) -> GenTrace {
        let params = LayoutParams { base_addr: base, ..LayoutParams::small_test() };
        GenTrace::new("part", &params, seed, 1_000)
    }

    #[test]
    fn mix_interleaves_address_spaces() {
        let a = part(0x0100_0000, 1);
        let b = part(0x4000_0000, 2);
        let mix = MixTrace::new("m", vec![a, b], 100, 1_000);
        let instrs: Vec<_> = mix.iter().collect();
        assert_eq!(instrs.len(), 1_000);
        // First slice entirely from part A's space, second from part B's.
        assert!(instrs[..100].iter().all(|i| i.addr.raw() < 0x4000_0000));
        assert!(instrs[100..200].iter().all(|i| i.addr.raw() >= 0x4000_0000));
        assert!(instrs[200..300].iter().all(|i| i.addr.raw() < 0x4000_0000));
    }

    #[test]
    fn slices_resume_where_they_stopped() {
        let a = part(0x0100_0000, 3);
        let solo: Vec<_> = Walker::new(a.program(), a.walk_seed(), 200).collect();
        let mix = MixTrace::new("m", vec![a, part(0x4000_0000, 4)], 100, 400);
        let mixed: Vec<_> = mix.iter().collect();
        // Slice 0 (0..100) and slice 2 (200..300) together are the first
        // 200 instructions of part A run alone.
        assert_eq!(&mixed[..100], &solo[..100]);
        assert_eq!(&mixed[200..300], &solo[100..200]);
    }

    #[test]
    fn mix_is_deterministic() {
        let mix = MixTrace::new("m", vec![part(0x0100_0000, 5), part(0x4000_0000, 6)], 64, 500);
        let a: Vec<_> = mix.iter().collect();
        let b: Vec<_> = mix.iter().collect();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "at least one part")]
    fn empty_mix_rejected() {
        MixTrace::new("m", vec![], 10, 10);
    }

    #[test]
    #[should_panic(expected = "slice length")]
    fn zero_slice_rejected() {
        MixTrace::new("m", vec![part(0x0100_0000, 7)], 0, 10);
    }
}
