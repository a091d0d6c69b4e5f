//! Synthetic z/Architecture-like instruction traces for the zEC12
//! two-level bulk-preload branch prediction reproduction (HPCA 2013).
//!
//! The paper evaluates its predictor on 13 proprietary large-footprint
//! commercial traces (IBM LSPR, Trade6, TPF, DayTrader, Informix — see
//! Table 4). Those traces are not available, so this crate generates
//! *synthetic* workloads whose branch-site footprints match the published
//! per-trace unique-branch and unique-taken-branch counts, with realistic
//! code layout (functions and basic blocks over 4 KB pages), instruction
//! lengths (2/4/6 bytes as in z/Architecture), branch behaviour (biased,
//! loop, pattern-correlated, polymorphic indirect) and phased working sets.
//!
//! # Quick start
//!
//! ```
//! use zbp_trace::{Trace, profile::WorkloadProfile};
//!
//! let profile = WorkloadProfile::zos_lspr_cb84();
//! let trace = profile.build(7).with_len(10_000);
//! let n = trace.iter().count();
//! assert_eq!(n, 10_000);
//! ```
//!
//! Traces are *re-runnable generators*: [`Trace::iter`] returns a fresh
//! deterministic instruction stream each time, so multi-configuration
//! studies replay the identical dynamic instruction sequence without
//! holding gigabytes of records in memory.

#![warn(missing_docs)]

pub mod addr;
pub mod analysis;
pub mod branch;
pub mod compact;
pub mod gen;
pub mod ingest;
pub mod instr;
pub mod io;
pub mod materialize;
pub mod profile;
pub mod source;
pub mod stats;
pub mod store;

pub use addr::InstAddr;
pub use branch::{BranchKind, BranchRec};
pub use compact::{CompactCaptureError, CompactParts, CompactTrace};
pub use ingest::{ExternalTrace, IngestError};
pub use instr::TraceInstr;
pub use materialize::MaterializedTrace;
pub use source::{SourceTrace, WorkloadSource};
pub use stats::TraceStats;
pub use store::{TraceStore, TraceStoreKey, TraceStoreStats};

/// A deterministic, re-runnable instruction trace.
///
/// Implementations must return the identical instruction stream from every
/// call to [`Trace::iter`]; the simulator relies on this to replay one
/// workload across several predictor configurations.
pub trait Trace {
    /// Iterator over the dynamic instruction stream.
    type Iter<'a>: Iterator<Item = TraceInstr>
    where
        Self: 'a;

    /// Returns a fresh iterator over the full instruction stream.
    fn iter(&self) -> Self::Iter<'_>;

    /// A short human-readable name for reports.
    fn name(&self) -> &str;

    /// Number of dynamic instructions the stream will produce.
    fn len(&self) -> u64;

    /// Whether the trace produces no instructions.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Feeds the full stream to a compact encoder — the body of
    /// [`CompactTrace::capture_within_into`]. The default pushes each
    /// record of [`Trace::iter`]; the synthetic generators override it
    /// to append whole block bodies at once, producing identical
    /// streams.
    ///
    /// # Errors
    ///
    /// Returns the encoder's [`compact::CaptureStop`] (unencodable
    /// record or exhausted byte budget); the caller recovers the
    /// buffers.
    fn encode_compact(&self, enc: &mut compact::Encoder) -> Result<(), compact::CaptureStop> {
        enc.push_records(self.iter())
    }
}

/// An in-memory trace: a plain vector of records.
///
/// Useful for unit tests and for traces loaded from disk via [`io`].
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct VecTrace {
    name: String,
    instrs: Vec<TraceInstr>,
}

impl VecTrace {
    /// Creates a named in-memory trace from records.
    pub fn new(name: impl Into<String>, instrs: Vec<TraceInstr>) -> Self {
        Self { name: name.into(), instrs }
    }

    /// Borrow the underlying records.
    pub fn records(&self) -> &[TraceInstr] {
        &self.instrs
    }

    /// Consume the trace, returning the records.
    pub fn into_records(self) -> Vec<TraceInstr> {
        self.instrs
    }
}

impl FromIterator<TraceInstr> for VecTrace {
    fn from_iter<T: IntoIterator<Item = TraceInstr>>(iter: T) -> Self {
        Self { name: "anonymous".into(), instrs: iter.into_iter().collect() }
    }
}

impl Extend<TraceInstr> for VecTrace {
    fn extend<T: IntoIterator<Item = TraceInstr>>(&mut self, iter: T) {
        self.instrs.extend(iter);
    }
}

impl Trace for VecTrace {
    type Iter<'a> = std::iter::Cloned<std::slice::Iter<'a, TraceInstr>>;

    fn iter(&self) -> Self::Iter<'_> {
        self.instrs.iter().cloned()
    }

    fn name(&self) -> &str {
        &self.name
    }

    fn len(&self) -> u64 {
        self.instrs.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vec_trace_roundtrip() {
        let i = TraceInstr::plain(InstAddr::new(0x100), 4);
        let t = VecTrace::new("t", vec![i]);
        assert_eq!(t.len(), 1);
        assert!(!t.is_empty());
        assert_eq!(t.iter().next(), Some(i));
        assert_eq!(t.name(), "t");
    }

    #[test]
    fn vec_trace_collect_and_extend() {
        let i = TraceInstr::plain(InstAddr::new(0x100), 4);
        let mut t: VecTrace = std::iter::repeat_n(i, 3).collect();
        assert_eq!(t.len(), 3);
        t.extend(std::iter::once(i));
        assert_eq!(t.len(), 4);
        assert_eq!(t.name(), "anonymous");
    }

    #[test]
    fn empty_trace_is_empty() {
        let t = VecTrace::default();
        assert!(t.is_empty());
    }
}
