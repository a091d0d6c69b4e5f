//! Workload profiles matching the paper's Table 4.
//!
//! Each profile records the published unique-branch / unique-taken-branch
//! footprint of one evaluation trace and knows how to synthesize a
//! matching workload ([`WorkloadProfile::build`]). Trace 5 and the two
//! hardware workloads are time-sliced mixes (see [`crate::gen::mix`]).

use crate::compact::{CaptureStop, Encoder};
use crate::gen::layout::LayoutParams;
use crate::gen::mix::{MixIter, MixTrace};
use crate::gen::walker::Walker;
use crate::gen::GenTrace;
use crate::{Trace, TraceInstr};

/// One footprint component of a workload (a mix has several).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FootprintPart {
    /// Component label.
    pub label: String,
    /// Target unique branch instruction addresses.
    pub sites: u32,
    /// Target unique ever-taken branch instruction addresses.
    pub taken: u32,
}

impl FootprintPart {
    fn new(label: &str, sites: u32, taken: u32) -> Self {
        Self { label: label.into(), sites, taken }
    }
}

/// A named workload profile from the paper's evaluation.
///
/// ```
/// use zbp_trace::{profile::WorkloadProfile, Trace};
/// let p = WorkloadProfile::tpf_airline();
/// let trace = p.build(1).with_len(5_000);
/// assert_eq!(trace.iter().count(), 5_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadProfile {
    /// Trace name as printed in Table 4.
    pub name: String,
    /// Footprint components (one, or several for time-sliced mixes).
    pub parts: Vec<FootprintPart>,
    /// Instructions per time slice when `parts.len() > 1`.
    pub slice_len: u64,
    /// Default dynamic trace length.
    pub default_len: u64,
}

/// Address-space stride between the components of a mix (1 GB keeps the
/// footprints disjoint while still aliasing in the BTB index bits).
const PART_STRIDE: u64 = 0x4000_0000;

/// Fraction of the generated (reachable) branch sites a full-length walk
/// actually executes, measured over the 13 Table-4 workloads at their
/// default lengths. The generator overshoots its site target by the
/// inverse so the *trace* lands on the published unique-branch counts.
const DYNAMIC_SITE_COVERAGE: f64 = 0.73;

/// Same calibration for ever-taken sites (slightly lower: rarely-taken
/// sites need more executions before their first taken outcome).
const DYNAMIC_TAKEN_COVERAGE: f64 = 0.67;

impl WorkloadProfile {
    /// A single-component profile.
    pub fn single(name: &str, sites: u32, taken: u32) -> Self {
        let default_len = default_len_for(sites as u64);
        Self {
            name: name.into(),
            parts: vec![FootprintPart::new(name, sites, taken)],
            slice_len: 75_000,
            default_len,
        }
    }

    /// A time-sliced mix of several footprints.
    pub fn mixed(name: &str, parts: Vec<FootprintPart>, slice_len: u64) -> Self {
        let sites: u64 = parts.iter().map(|p| p.sites as u64).sum();
        Self { name: name.into(), parts, slice_len, default_len: default_len_for(sites) }
    }

    /// Total target unique branch addresses across all parts.
    pub fn unique_branches(&self) -> u32 {
        self.parts.iter().map(|p| p.sites).sum()
    }

    /// Total target unique ever-taken branch addresses.
    pub fn unique_taken(&self) -> u32 {
        self.parts.iter().map(|p| p.taken).sum()
    }

    /// Synthesizes the workload with the profile's default length.
    pub fn build(&self, seed: u64) -> ProfileTrace {
        self.build_with_len(seed, self.default_len)
    }

    /// Synthesizes the workload with an explicit dynamic length.
    pub fn build_with_len(&self, seed: u64, len: u64) -> ProfileTrace {
        let mut gens = Vec::with_capacity(self.parts.len());
        for (i, part) in self.parts.iter().enumerate() {
            // Compensate for the walk's partial dynamic coverage so the
            // produced trace matches the published Table-4 counts.
            let gen_sites = (part.sites as f64 / DYNAMIC_SITE_COVERAGE) as u32;
            let gen_taken = ((part.taken as f64 / DYNAMIC_TAKEN_COVERAGE) as u32)
                .min((gen_sites as f64 * 0.90) as u32);
            let params = LayoutParams {
                base_addr: 0x0100_0000 + i as u64 * PART_STRIDE,
                // Phases must outlive one round-robin round of the active
                // working set, which scales with the footprint — else
                // ranges retire before the walk has cycled them and large
                // workloads under-cover their Table-4 counts.
                phase_len: (u64::from(gen_sites) * 8).max(400_000),
                ..LayoutParams::for_footprint(gen_sites, gen_taken)
            };
            // Distinct seeds per part so mixes are not in lockstep.
            let part_seed = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(i as u64);
            gens.push(GenTrace::new(part.label.clone(), &params, part_seed, len));
        }
        if gens.len() == 1 {
            ProfileTrace::Single(gens.pop().expect("one part").with_len(len))
        } else {
            ProfileTrace::Mix(MixTrace::new(self.name.clone(), gens, self.slice_len, len))
        }
    }

    // ----- Table 4 presets -------------------------------------------------

    /// Trace 1: Z/OS LSPR CB84 (15,244 / 10,963).
    pub fn zos_lspr_cb84() -> Self {
        Self::single("Z/OS LSPR CB84", 15_244, 10_963)
    }

    /// Trace 2: Z/OS LSPR CICS/DB2 (40,667 / 27,500).
    pub fn zos_lspr_cics_db2() -> Self {
        Self::single("Z/OS LSPR CICS/DB2", 40_667, 27_500)
    }

    /// Trace 3: Z/OS LSPR IMS (29,692 / 19,673).
    pub fn zos_lspr_ims() -> Self {
        Self::single("Z/OS LSPR IMS", 29_692, 19_673)
    }

    /// Trace 4: Z/OS LSPR CB-L (25,622 / 16,612).
    pub fn zos_lspr_cbl() -> Self {
        Self::single("Z/OS LSPR CB-L", 25_622, 16_612)
    }

    /// Trace 5: Z/OS LSPR WASDB+CBW2 (114,955 / 51,371) — a time-sliced
    /// mix of two LSPR workloads on one processor.
    pub fn zos_lspr_wasdb_cbw2() -> Self {
        Self::mixed(
            "Z/OS LSPR WASDB+CBW2",
            vec![
                FootprintPart::new("WASDB", 80_000, 36_200),
                FootprintPart::new("CBW2", 34_955, 15_171),
            ],
            75_000,
        )
    }

    /// Trace 6: Z/OS Trade6 (115,509 / 56,017).
    pub fn zos_trade6() -> Self {
        Self::single("Z/OS Trade6", 115_509, 56_017)
    }

    /// Trace 7: TPF airline reservations (11,160 / 9,317).
    pub fn tpf_airline() -> Self {
        Self::single("TPF airline reservations", 11_160, 9_317)
    }

    /// Trace 8: Z/OS AppServ benchmark (26,340 / 16,980).
    pub fn zos_appserv() -> Self {
        Self::single("Z/OS AppServ benchmark", 26_340, 16_980)
    }

    /// Trace 9: Z/OS DBServ benchmark (38,655 / 20,020).
    pub fn zos_dbserv() -> Self {
        Self::single("Z/OS DBServ benchmark", 38_655, 20_020)
    }

    /// Trace 10: Z/OS DayTrader AppServ (67,336 / 30,165).
    pub fn daytrader_appserv() -> Self {
        Self::single("Z/OS DayTrader AppServ", 67_336, 30_165)
    }

    /// Trace 11: Z/OS DayTrader DBServ (34,819 / 22,217) — the paper's
    /// headline trace (13.8 % CPI improvement from the BTB2).
    pub fn daytrader_dbserv() -> Self {
        Self::single("Z/OS DayTrader DBServ", 34_819, 22_217)
    }

    /// Trace 12: zLinux Informix (16,810 / 11,765).
    pub fn zlinux_informix() -> Self {
        Self::single("zLinux Informix", 16_810, 11_765)
    }

    /// Trace 13: zLinux Trade6 (69,847 / 31,897).
    pub fn zlinux_trade6() -> Self {
        Self::single("zLinux Trade6", 69_847, 31_897)
    }

    /// All 13 Table-4 traces, in the paper's order.
    pub fn all_table4() -> Vec<Self> {
        vec![
            Self::zos_lspr_cb84(),
            Self::zos_lspr_cics_db2(),
            Self::zos_lspr_ims(),
            Self::zos_lspr_cbl(),
            Self::zos_lspr_wasdb_cbw2(),
            Self::zos_trade6(),
            Self::tpf_airline(),
            Self::zos_appserv(),
            Self::zos_dbserv(),
            Self::daytrader_appserv(),
            Self::daytrader_dbserv(),
            Self::zlinux_informix(),
            Self::zlinux_trade6(),
        ]
    }

    // ----- Hardware-measurement workloads (Figure 3) -----------------------

    /// The WASDB+CBW2 workload as run on zEC12 hardware (single core);
    /// identical to trace 5.
    pub fn hardware_wasdb_cbw2() -> Self {
        let mut p = Self::zos_lspr_wasdb_cbw2();
        p.name = "WASDB+CBW2 (1 core)".into();
        p
    }

    /// The Web CICS/DB2 workload as run on 4 zEC12 cores: modelled as four
    /// CICS/DB2-like contexts time-sliced onto one simulated core.
    pub fn hardware_web_cics_db2() -> Self {
        let parts = (0..4)
            .map(|i| FootprintPart::new(&format!("Web CICS/DB2 ctx{i}"), 40_667, 27_500))
            .collect();
        Self::mixed("Web CICS/DB2 (4 cores)", parts, 40_000)
    }

    /// Both Figure-3 hardware-measurement workloads, in the paper's order.
    pub fn hardware_pair() -> Vec<Self> {
        vec![Self::hardware_wasdb_cbw2(), Self::hardware_web_cics_db2()]
    }
}

fn default_len_for(sites: u64) -> u64 {
    (sites * 110).max(4_000_000)
}

/// A built workload: either a single generated walk or a time-sliced mix.
#[derive(Debug, Clone)]
pub enum ProfileTrace {
    /// Single-component workload.
    Single(GenTrace),
    /// Time-sliced mix.
    Mix(MixTrace),
}

impl ProfileTrace {
    /// Returns the same workload with a different dynamic length.
    #[must_use]
    pub fn with_len(self, len: u64) -> Self {
        match self {
            ProfileTrace::Single(t) => ProfileTrace::Single(t.with_len(len)),
            ProfileTrace::Mix(t) => ProfileTrace::Mix(t.with_len(len)),
        }
    }
}

impl Trace for ProfileTrace {
    type Iter<'a> = ProfileIter<'a>;

    fn iter(&self) -> Self::Iter<'_> {
        match self {
            ProfileTrace::Single(t) => ProfileIter::Single(t.iter()),
            ProfileTrace::Mix(t) => ProfileIter::Mix(t.iter()),
        }
    }

    fn name(&self) -> &str {
        match self {
            ProfileTrace::Single(t) => t.name(),
            ProfileTrace::Mix(t) => t.name(),
        }
    }

    fn len(&self) -> u64 {
        match self {
            ProfileTrace::Single(t) => t.len(),
            ProfileTrace::Mix(t) => t.len(),
        }
    }

    fn encode_compact(&self, enc: &mut Encoder) -> Result<(), CaptureStop> {
        match self {
            ProfileTrace::Single(t) => t.encode_compact(enc),
            ProfileTrace::Mix(t) => t.encode_compact(enc),
        }
    }
}

/// Iterator over a [`ProfileTrace`].
#[derive(Debug, Clone)]
pub enum ProfileIter<'a> {
    /// Single-component stream.
    Single(Walker<'a>),
    /// Mixed stream.
    Mix(MixIter<'a>),
}

impl Iterator for ProfileIter<'_> {
    type Item = TraceInstr;

    fn next(&mut self) -> Option<TraceInstr> {
        match self {
            ProfileIter::Single(w) => w.next(),
            ProfileIter::Mix(m) => m.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            ProfileIter::Single(w) => w.size_hint(),
            ProfileIter::Mix(m) => m.size_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table4_has_13_traces_with_paper_counts() {
        let all = WorkloadProfile::all_table4();
        assert_eq!(all.len(), 13);
        assert_eq!(all[0].unique_branches(), 15_244);
        assert_eq!(all[0].unique_taken(), 10_963);
        assert_eq!(all[4].unique_branches(), 114_955);
        assert_eq!(all[4].unique_taken(), 51_371);
        assert_eq!(all[10].name, "Z/OS DayTrader DBServ");
        assert_eq!(all[10].unique_branches(), 34_819);
        for p in &all {
            assert!(p.unique_taken() <= p.unique_branches());
            assert!(p.default_len >= 3_000_000);
        }
    }

    #[test]
    fn build_produces_requested_length() {
        let p = WorkloadProfile::tpf_airline();
        let t = p.build_with_len(3, 2_000);
        assert_eq!(t.iter().count(), 2_000);
        assert_eq!(t.name(), "TPF airline reservations");
    }

    #[test]
    fn mix_profile_builds_a_mix() {
        let p = WorkloadProfile::zos_lspr_wasdb_cbw2();
        let t = p.build_with_len(3, 1_000);
        assert!(matches!(t, ProfileTrace::Mix(_)));
        assert_eq!(t.iter().count(), 1_000);
    }

    #[test]
    fn mix_parts_use_disjoint_address_spaces() {
        let p = WorkloadProfile::zos_lspr_wasdb_cbw2();
        let t = p.build_with_len(5, 160_000);
        let (mut lo, mut hi) = (false, false);
        for i in t.iter() {
            if i.addr.raw() < PART_STRIDE {
                lo = true;
            } else {
                hi = true;
            }
        }
        assert!(lo && hi, "both parts must contribute");
    }

    #[test]
    fn with_len_rebuilds() {
        let p = WorkloadProfile::zlinux_informix();
        let t = p.build_with_len(3, 500).with_len(700);
        assert_eq!(t.iter().count(), 700);
    }

    #[test]
    fn hardware_profiles() {
        let one = WorkloadProfile::hardware_wasdb_cbw2();
        assert_eq!(one.parts.len(), 2);
        let four = WorkloadProfile::hardware_web_cics_db2();
        assert_eq!(four.parts.len(), 4);
        assert_eq!(four.unique_branches(), 4 * 40_667);
    }

    #[test]
    fn profiles_serialize() {
        let p = WorkloadProfile::zos_dbserv();
        let json = zbp_support::json::to_string(&p);
        let back: WorkloadProfile = zbp_support::json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }
}

zbp_support::impl_json_struct!(FootprintPart { label, sites, taken });
zbp_support::impl_json_struct!(WorkloadProfile { name, parts, slice_len, default_len });
