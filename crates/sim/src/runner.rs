//! Single-run simulation driver.

use crate::config::SimConfig;
use zbp_trace::{CompactTrace, Trace};
use zbp_uarch::core::{CoreModel, CoreResult, SampledResult, SamplingSpec};

/// A configured simulator, ready to replay traces.
#[derive(Debug, Clone)]
pub struct Simulator {
    config: SimConfig,
}

/// Result of one simulation: the core-model result plus the
/// configuration it ran under.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Name of the configuration.
    pub config_name: String,
    /// The core model's measurements.
    pub core: CoreResult,
}

impl SimResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.core.cpi()
    }

    /// Percentage CPI improvement of this run over a baseline run of the
    /// same trace: positive means this run is faster.
    pub fn improvement_over(&self, baseline: &SimResult) -> f64 {
        100.0 * (1.0 - self.cpi() / baseline.cpi())
    }
}

impl Simulator {
    /// Creates a simulator for the given configuration.
    pub fn new(config: SimConfig) -> Self {
        Self { config }
    }

    /// The configuration.
    pub fn config(&self) -> &SimConfig {
        &self.config
    }

    /// Replays `trace` and returns the result.
    pub fn run<T: Trace>(&self, trace: &T) -> SimResult {
        Self::run_config(&self.config, trace)
    }

    /// Replays `trace` under a borrowed configuration, without cloning
    /// it into a [`Simulator`] first (grid runs share one config per
    /// column across every workload row).
    pub fn run_config<T: Trace>(config: &SimConfig, trace: &T) -> SimResult {
        let model = CoreModel::new(config.uarch, config.predictor.clone());
        SimResult { config_name: config.name.clone(), core: model.run(trace) }
    }

    /// Replays a compact branch-point capture under a borrowed
    /// configuration through the lane kernel, as a one-lane group.
    /// Bit-identical to [`Self::run_config`] on the equivalent record
    /// stream.
    pub fn run_config_compact(config: &SimConfig, trace: &CompactTrace) -> SimResult {
        let model = CoreModel::new(config.uarch, config.predictor.clone());
        SimResult { config_name: config.name.clone(), core: model.run_compact(trace) }
    }

    /// Replays one compact capture under several borrowed
    /// configurations through the decode-once lane kernel
    /// ([`CoreModel::run_compact_lanes`]): the trace is walked and
    /// decoded once, with every configuration riding the shared decode
    /// as an isolated lane. Bit-identical to calling
    /// [`Self::run_config_compact`] once per configuration.
    pub fn run_configs_compact_lanes(
        configs: &[&SimConfig],
        trace: &CompactTrace,
    ) -> Vec<SimResult> {
        let lanes = configs.iter().map(|c| CoreModel::new(c.uarch, c.predictor.clone())).collect();
        CoreModel::run_compact_lanes(lanes, trace)
            .into_iter()
            .zip(configs)
            .map(|(core, c)| SimResult { config_name: c.name.clone(), core })
            .collect()
    }

    /// Replays a compact capture with windowed 1-in-N sampling
    /// ([`CoreModel::run_compact_sampled`]). An estimator for throughput
    /// studies only — experiment artifacts always use full replay.
    pub fn run_config_compact_sampled(
        config: &SimConfig,
        trace: &CompactTrace,
        spec: SamplingSpec,
    ) -> SampledResult {
        let model = CoreModel::new(config.uarch, config.predictor.clone());
        model.run_compact_sampled(trace, spec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::profile::WorkloadProfile;

    #[test]
    fn runs_a_profile_trace() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(1, 30_000);
        let r = Simulator::new(SimConfig::no_btb2()).run(&trace);
        assert_eq!(r.core.instructions, 30_000);
        assert!(r.cpi() > 0.5, "cpi={}", r.cpi());
        assert_eq!(r.config_name, "No BTB2");
    }

    #[test]
    fn improvement_math() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(1, 20_000);
        let a = Simulator::new(SimConfig::no_btb2()).run(&trace);
        let same = Simulator::new(SimConfig::no_btb2()).run(&trace);
        assert!(a.improvement_over(&same).abs() < 1e-9, "identical runs: 0% improvement");
    }

    #[test]
    fn deterministic_across_runs() {
        let trace = WorkloadProfile::zlinux_informix().build_with_len(7, 20_000);
        let s = Simulator::new(SimConfig::btb2_enabled());
        let a = s.run(&trace);
        let b = s.run(&trace);
        assert_eq!(a.core.cycles, b.core.cycles);
        assert_eq!(a.core.outcomes, b.core.outcomes);
    }

    #[test]
    fn sampled_replay_estimates_full_cpi() {
        let trace = WorkloadProfile::zlinux_informix().build_with_len(7, 40_000);
        let compact = CompactTrace::capture(&trace).expect("generator streams encode");
        let config = SimConfig::btb2_enabled();
        let full = Simulator::run_config_compact(&config, &compact);
        let spec = SamplingSpec::one_in(4, 2_000);
        let sampled = Simulator::run_config_compact_sampled(&config, &compact, spec);
        assert_eq!(sampled.total_instructions, full.core.instructions);
        assert!(sampled.skipped_instructions > 0);
        let err = (sampled.cpi() - full.cpi()).abs() / full.cpi();
        assert!(err < 0.15, "sampled {} vs full {}", sampled.cpi(), full.cpi());
    }

    #[test]
    fn lane_batched_replay_matches_per_config_replay() {
        let trace = WorkloadProfile::tpf_airline().build_with_len(5, 25_000);
        let compact = CompactTrace::capture(&trace).expect("generator streams encode");
        let configs = [SimConfig::no_btb2(), SimConfig::btb2_enabled(), SimConfig::large_btb1()];
        let refs: Vec<&SimConfig> = configs.iter().collect();
        let batched = Simulator::run_configs_compact_lanes(&refs, &compact);
        assert_eq!(batched.len(), configs.len());
        for (lane, config) in batched.iter().zip(&configs) {
            let sequential = Simulator::run_config_compact(config, &compact);
            assert_eq!(lane.config_name, sequential.config_name);
            assert_eq!(lane.core, sequential.core, "{}", config.name);
        }
    }

    #[test]
    fn compact_replay_matches_record_replay() {
        let trace = WorkloadProfile::zlinux_informix().build_with_len(7, 20_000);
        let compact = CompactTrace::capture(&trace).expect("generator streams encode");
        for config in [SimConfig::no_btb2(), SimConfig::btb2_enabled()] {
            let fast = Simulator::run_config_compact(&config, &compact);
            let reference = Simulator::run_config(&config, &trace);
            assert_eq!(fast.core, reference.core, "{}", config.name);
        }
    }
}

zbp_support::impl_json_struct!(SimResult { config_name, core });
