//! The cycle-accounting front-end model.
//!
//! [`CoreModel`] replays a trace through the branch prediction hierarchy
//! and a finite L1I, charging penalties per the zEC12 front-end behaviour
//! described in the paper:
//!
//! * decode consumes `decode_width` instructions per cycle plus a fixed
//!   back-end overhead (the execution core is not simulated — the paper's
//!   reported numbers are relative CPI improvements, which this model
//!   preserves);
//! * in-time dynamic taken predictions steer fetch: the target line is
//!   prefetched at prediction-broadcast time, hiding some or all of the
//!   L2 latency (§3.2);
//! * mispredictions and taken surprises restart the pipeline with the
//!   configured penalties;
//! * surprise branches resolved and guessed not-taken cost nothing;
//! * every penalizing branch is classified per Figure 4.
//!
//! Time is kept in exact integer ticks of `1/(decode_width·100)` cycle,
//! so `n` instructions cost `n` times one instruction's ticks in any
//! grouping. That lets one kernel serve every compact replay: the
//! [`LaneGroup`] walk decodes each non-branch run once into same-line
//! spans and charges a span in one multiply. [`CoreModel::run`], the
//! per-record [`CoreModel::step`] path, stays as the reference the
//! differential oracle ([`crate::oracle`]) checks the kernel against.

use crate::cache::{Access, Cache};
use crate::classify::{BadOutcome, OutcomeCounts, SurpriseClassifier};
use crate::config::UarchConfig;
use crate::penalty::PenaltyAccounting;
use zbp_predictor::{BranchPredictor, Counter, PredictorConfig, PredictorStats};
use zbp_trace::compact::{CompactTrace, Run, SegmentCursor, GROUP_LUT};
use zbp_trace::{BranchKind, InstAddr, Trace, TraceInstr};

/// I-cache side statistics.
///
/// Accumulated on the predictor's [`StatsBus`](zbp_predictor::StatsBus)
/// — the core model bumps the `Icache*` counters there, and this struct
/// is rebuilt from the bus when a run finishes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ICacheStats {
    /// Demand misses (full latency paid).
    pub demand_misses: u64,
    /// Accesses that waited on an in-flight prefetch.
    pub late_prefetch_hits: u64,
    /// Prefetches issued by taken predictions.
    pub prefetches: u64,
    /// Distinct fetch-line transitions.
    pub line_accesses: u64,
    /// Wrong-path lines pulled into the L1I (only with
    /// [`UarchConfig::wrong_path_fetch`](crate::UarchConfig) enabled).
    pub wrong_path_fetches: u64,
}

/// Result of one simulated run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoreResult {
    /// Trace name.
    pub name: String,
    /// Instructions executed.
    pub instructions: u64,
    /// Total cycles.
    pub cycles: u64,
    /// Branch outcome taxonomy (Figure 4).
    pub outcomes: OutcomeCounts,
    /// Stall cycles by cause.
    pub penalties: PenaltyAccounting,
    /// I-cache behaviour.
    pub icache: ICacheStats,
    /// Predictor-side counters.
    pub predictor: PredictorStats,
    /// Distinct branch sites encountered.
    pub distinct_branches: u64,
}

impl CoreResult {
    /// Cycles per instruction.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }
}

/// Windowed 1-in-N sampling parameters, in instruction counts.
///
/// Each period replays `warmup + measure` instructions through the full
/// model (only the `measure` portion is counted) and fast-forwards the
/// remaining `period - warmup - measure` by a pure cursor walk with no
/// model work. Phase transitions happen at run boundaries, so a long
/// non-branch run can overshoot its window — window sizes are
/// approximate, not exact.
///
/// This mode is opt-in for throughput experiments only: nothing in the
/// experiment registry, session, or CLI reaches it, and every committed
/// artifact is produced by full replay.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SamplingSpec {
    /// Instructions spanned by one warmup→measure→skip cycle.
    pub period: u64,
    /// Instructions counted per window.
    pub measure: u64,
    /// Instructions replayed but not counted before each measure window,
    /// re-warming the predictor and I-cache after the skipped region.
    pub warmup: u64,
}

impl SamplingSpec {
    /// 1-in-`n` sampling of `measure`-instruction windows, with a
    /// warmup of half a window before each.
    pub fn one_in(n: u64, measure: u64) -> Self {
        Self { period: n.max(1) * measure, measure, warmup: measure / 2 }
    }
}

/// Result of a sampled replay ([`CoreModel::run_compact_sampled`]).
///
/// Carries only aggregate cycle/instruction counts — outcome taxonomies
/// and predictor counters are meaningless over disjoint windows, so no
/// [`CoreResult`] is produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampledResult {
    /// Trace name.
    pub name: String,
    /// The sampling parameters used.
    pub spec: SamplingSpec,
    /// Instructions counted inside measure windows.
    pub measured_instructions: u64,
    /// Cycles accumulated inside measure windows.
    pub measured_cycles: u64,
    /// Instructions replayed as warmup (modelled, not counted).
    pub warmup_instructions: u64,
    /// Instructions fast-forwarded with no model work.
    pub skipped_instructions: u64,
    /// Every instruction in the trace: measured + warmup + skipped.
    pub total_instructions: u64,
    /// Measure windows flushed (including a partial final window).
    pub windows: u64,
}

impl SampledResult {
    /// Estimated cycles per instruction: the measured windows' CPI,
    /// extrapolated to the whole trace.
    pub fn cpi(&self) -> f64 {
        self.measured_cycles as f64 / self.measured_instructions.max(1) as f64
    }

    /// Fraction of the trace replayed through the full model.
    pub fn replayed_fraction(&self) -> f64 {
        (self.measured_instructions + self.warmup_instructions) as f64
            / self.total_instructions.max(1) as f64
    }
}

/// Measurement of one replay window ([`CoreModel::run_compact_windows`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowMeasure {
    /// Requested window start, in retired-instruction coordinates
    /// (identifies which window this measure belongs to).
    pub start: u64,
    /// Instructions retired inside the window.
    pub instructions: u64,
    /// Cycles accumulated inside the window.
    pub cycles: u64,
    /// Wrong-direction mispredictions inside the window.
    pub dir_mispredicts: u64,
    /// Wrong-target mispredictions inside the window.
    pub target_mispredicts: u64,
}

impl WindowMeasure {
    /// Cycles per instruction inside this window.
    pub fn cpi(&self) -> f64 {
        self.cycles as f64 / self.instructions.max(1) as f64
    }

    /// Wrong-direction mispredictions per thousand instructions.
    pub fn dir_mpki(&self) -> f64 {
        self.dir_mispredicts as f64 * 1000.0 / self.instructions.max(1) as f64
    }
}

/// The trace-driven front-end model.
///
/// ```
/// use zbp_predictor::PredictorConfig;
/// use zbp_trace::profile::WorkloadProfile;
/// use zbp_uarch::core::CoreModel;
/// use zbp_uarch::UarchConfig;
///
/// let trace = WorkloadProfile::tpf_airline().build(1).with_len(10_000);
/// let model = CoreModel::new(UarchConfig::zec12(), PredictorConfig::zec12());
/// let result = model.run(&trace);
/// assert_eq!(result.instructions, 10_000);
/// assert!(result.cpi() > 0.5);
/// ```
#[derive(Debug)]
pub struct CoreModel {
    cfg: UarchConfig,
    predictor: BranchPredictor,
    icache: Cache,
    classifier: SurpriseClassifier,
    outcomes: OutcomeCounts,
    penalties: PenaltyAccounting,
    /// Elapsed time in ticks of `1/ticks_per_cycle` cycle.
    ticks: u64,
    /// `decode_width · 100`: one decode slot is 100 ticks.
    ticks_per_cycle: u64,
    /// Ticks one retired instruction costs: a decode slot plus
    /// `base_cpi_overhead` in ticks (205 for the zEC12).
    step_ticks: u64,
    instructions: u64,
    cur_line: Option<u64>,
    /// Address the stream should continue at; a mismatch is an
    /// asynchronous control transfer (context switch / interrupt) that
    /// restarts the prediction search like any pipeline restart.
    expected_addr: Option<InstAddr>,
}

impl CoreModel {
    /// Creates a model around a fresh predictor.
    ///
    /// # Panics
    ///
    /// When `cfg.decode_width` is zero or `cfg.base_cpi_overhead` is not
    /// a whole number of `1/(decode_width·100)`-cycle ticks. Configs are
    /// compiled in, so this is a programming error, never bad input.
    pub fn new(cfg: UarchConfig, predictor_cfg: PredictorConfig) -> Self {
        assert!(cfg.decode_width > 0, "decode_width must be at least 1");
        let ticks_per_cycle = u64::from(cfg.decode_width) * 100;
        let overhead = cfg.base_cpi_overhead * ticks_per_cycle as f64;
        assert!(
            overhead >= 0.0 && (overhead - overhead.round()).abs() < 1e-6,
            "base_cpi_overhead {} is not a whole number of 1/{ticks_per_cycle}-cycle ticks",
            cfg.base_cpi_overhead
        );
        let latency_window = predictor_cfg.install_delay + cfg.resolve_delay;
        Self {
            icache: Cache::new(cfg.l1i, cfg.l2_latency),
            predictor: BranchPredictor::new(predictor_cfg),
            classifier: SurpriseClassifier::new(latency_window),
            outcomes: OutcomeCounts::default(),
            penalties: PenaltyAccounting::default(),
            ticks: 0,
            ticks_per_cycle,
            step_ticks: 100 + overhead.round() as u64,
            instructions: 0,
            cur_line: None,
            expected_addr: None,
            cfg,
        }
    }

    /// Runs a whole record trace through [`Self::step`] — the reference
    /// path, and the replay of generator streams too large to capture.
    pub fn run<T: Trace>(mut self, trace: &T) -> CoreResult {
        for instr in trace.iter() {
            self.step(&instr);
        }
        self.finish(trace.name())
    }

    /// Replays a compact branch-point trace: a one-lane [`LaneGroup`].
    /// Bit-identical to [`Self::run`] over the equivalent record stream.
    pub fn run_compact(self, trace: &CompactTrace) -> CoreResult {
        let mut results = Self::run_compact_lanes(vec![self], trace);
        results.pop().expect("one lane in, one result out")
    }

    /// Replays one compact trace through several independent lanes with
    /// a single decode pass (see [`LaneGroup`]). Bit-identical to
    /// running [`Self::run_compact`] once per lane.
    pub fn run_compact_lanes(lanes: Vec<CoreModel>, trace: &CompactTrace) -> Vec<CoreResult> {
        let mut group = LaneGroup::new(lanes);
        group.replay(trace);
        group.finish(trace.name())
    }

    /// Replays a compact trace with windowed 1-in-N sampling: full-model
    /// replay inside warmup and measure windows, pure cursor fast-walks
    /// across everything else. Returns an aggregate CPI estimate.
    ///
    /// Re-entry after a skipped region needs no special casing: the
    /// skip leaves [`Self::expected_addr`] stale, so the first modelled
    /// instruction fails the continuity check and restarts the
    /// prediction search — the same path an asynchronous control
    /// transfer takes in full replay.
    ///
    /// # Panics
    ///
    /// When `spec.measure` is zero or `warmup + measure` exceeds
    /// `period`.
    pub fn run_compact_sampled(self, trace: &CompactTrace, spec: SamplingSpec) -> SampledResult {
        assert!(spec.measure > 0, "sampling: measure window must be non-empty");
        assert!(
            spec.warmup.saturating_add(spec.measure) <= spec.period,
            "sampling: warmup + measure must fit within the period"
        );
        const WARMUP: usize = 0;
        const MEASURE: usize = 1;
        const SKIP: usize = 2;
        // Phases cycle warmup → measure → skip, passing over empty ones
        // (the measure phase never is).
        let budget = [spec.warmup, spec.measure, spec.period - spec.warmup - spec.measure];
        let mut retired_in = [0u64; 3];
        let mut phase = if spec.warmup > 0 { WARMUP } else { MEASURE };
        let mut left = budget[phase];
        let (mut measured_cycles, mut measured_instructions, mut windows) = (0u64, 0u64, 0u64);
        let (mut mark_cycle, mut mark_instr) = (self.cycle(), self.instructions);

        let mut group = LaneGroup::new(vec![self]);
        let mut cursor = trace.segments();
        while let Some(run) = cursor.next_run() {
            let retired = group.advance(trace, &mut cursor, &run, phase != SKIP);
            retired_in[phase] += retired;
            if retired < left {
                left -= retired;
                continue;
            }
            // Phase budget consumed (possibly overshot — transitions
            // only land on run boundaries). Flush and advance.
            let lane = &group.lanes[0];
            if phase == MEASURE {
                measured_cycles += lane.cycle() - mark_cycle;
                measured_instructions += lane.instructions - mark_instr;
                windows += 1;
            }
            phase = (1..=3).map(|k| (phase + k) % 3).find(|&p| budget[p] > 0).expect("measure > 0");
            left = budget[phase];
            if phase == MEASURE {
                (mark_cycle, mark_instr) = (lane.cycle(), lane.instructions);
            }
        }
        // Trace ended mid-window: flush the partial measure window.
        let lane = &group.lanes[0];
        if phase == MEASURE && lane.instructions > mark_instr {
            measured_cycles += lane.cycle() - mark_cycle;
            measured_instructions += lane.instructions - mark_instr;
            windows += 1;
        }
        SampledResult {
            name: trace.name().to_string(),
            spec,
            measured_instructions,
            measured_cycles,
            warmup_instructions: retired_in[WARMUP],
            skipped_instructions: retired_in[SKIP],
            total_instructions: lane.instructions + retired_in[SKIP],
            windows,
        }
    }

    /// Replays only the given windows of a compact trace, fast-walking
    /// everything between them — the replay kernel behind
    /// SimPoint-style weighted sampling, where a clustering pass picks
    /// the representative intervals and this method measures each one.
    ///
    /// `windows` are `(start, len)` pairs in retired-instruction
    /// coordinates, sorted by start and non-overlapping. Before each
    /// window the model replays up to `warmup` instructions un-counted,
    /// re-warming predictor and I-cache state after the skip (clamped
    /// when the previous window ends closer than `warmup`). As with
    /// [`Self::run_compact_sampled`], phase transitions land on run
    /// boundaries, so window edges can overshoot by a partial run.
    /// Replay stops as soon as the last window flushes.
    ///
    /// # Panics
    ///
    /// When a window is empty, or windows are unsorted or overlapping.
    pub fn run_compact_windows(
        self,
        trace: &CompactTrace,
        windows: &[(u64, u64)],
        warmup: u64,
    ) -> Vec<WindowMeasure> {
        let mut prev_end = 0u64;
        for &(start, len) in windows {
            assert!(len > 0, "windowed replay: empty window");
            assert!(start >= prev_end, "windowed replay: windows unsorted or overlapping");
            prev_end = start.saturating_add(len);
        }

        let mut out = Vec::with_capacity(windows.len());
        let mut done = 0u64; // retired instructions, all phases
        let mut mark: Option<WindowMeasure> = None; // lane totals at window entry
        let mut group = LaneGroup::new(vec![self]);
        let mut cursor = trace.segments();
        let totals = |lane: &CoreModel, start| WindowMeasure {
            start,
            instructions: lane.instructions,
            cycles: lane.cycle(),
            dir_mispredicts: lane.outcomes.mispredict_direction,
            target_mispredicts: lane.outcomes.mispredict_target,
        };
        let since = |now: WindowMeasure, then: WindowMeasure| WindowMeasure {
            start: then.start,
            instructions: now.instructions - then.instructions,
            cycles: now.cycles - then.cycles,
            dir_mispredicts: now.dir_mispredicts - then.dir_mispredicts,
            target_mispredicts: now.target_mispredicts - then.target_mispredicts,
        };
        while let Some(&(start, len)) = windows.get(out.len()) {
            if mark.is_none() && done >= start {
                // Warmup (or fast-walk overshoot) reached the window:
                // mark at this run boundary, before stepping further.
                mark = Some(totals(&group.lanes[0], start));
            }
            let Some(run) = cursor.next_run() else { break };
            let model = mark.is_some() || done >= start.saturating_sub(warmup);
            done += group.advance(trace, &mut cursor, &run, model);
            if let Some(then) = mark.filter(|_| done >= start.saturating_add(len)) {
                out.push(since(totals(&group.lanes[0], start), then));
                mark = None;
            }
        }
        // Trace ended inside the final window: flush the partial
        // measurement (the trailing intervals of a trace are shorter
        // than the nominal interval length).
        if let Some(then) = mark.filter(|m| group.lanes[0].instructions > m.instructions) {
            out.push(since(totals(&group.lanes[0], then.start), then));
        }
        out
    }

    /// Executes one instruction.
    pub fn step(&mut self, instr: &TraceInstr) {
        if instr.wrong_path {
            // Wrong-path records never retire: they carry no cycle or
            // completion weight (the model synthesizes its own wrong-path
            // fetch effects from resolved mispredictions instead).
            return;
        }
        self.instructions += 1;
        self.ticks += self.step_ticks;

        // Stream start and asynchronous control transfers (time-slice
        // switches, interrupts): prediction search restarts at the new
        // stream position.
        if self.expected_addr != Some(instr.addr) {
            self.predictor.restart(instr.addr, self.cycle());
        }
        self.expected_addr = Some(instr.next_addr());

        // Instruction fetch: charged per 256 B line transition.
        let line = self.icache.line_of(instr.addr);
        if self.cur_line != Some(line) {
            self.line_access(line, instr.addr);
        }

        self.predictor.note_completion(instr.addr);

        if instr.branch.is_some() {
            self.branch(instr);
        }
    }

    /// Replays the non-branch run described by `spans` — its maximal
    /// same-line address spans for this model's L1I line size, in order
    /// — ending at `end`, the address one past the run.
    ///
    /// Equivalent to [`Self::step`] on each instruction: the span
    /// boundaries are exactly the line transitions the per-instruction
    /// walk observes, a span's first instruction is charged before its
    /// line access (which may stall) and the rest after it, the
    /// discontinuity check can only fire on the run's first instruction
    /// (runs are sequential), and completions flush as one
    /// [`BranchPredictor::note_completion_run`] per span, after that
    /// span's access and before the next one's.
    fn step_spans(&mut self, spans: &[LineSpan], end: InstAddr) {
        // The run end is the terminating point's own address: hint its
        // BTB rows into cache now so the walk below shadows the loads
        // the prediction would otherwise stall on. No model effect.
        self.predictor.prefetch(end);
        for (k, span) in spans.iter().enumerate() {
            self.ticks += self.step_ticks;
            if k == 0 {
                if self.expected_addr != Some(span.first) {
                    self.predictor.restart(span.first, self.cycle());
                }
            } else {
                self.predictor.note_completion_run(spans[k - 1].first, spans[k - 1].last);
            }
            let line = self.icache.line_of(span.first);
            if self.cur_line != Some(line) {
                self.line_access(line, span.first);
            }
            self.ticks += (span.count - 1) * self.step_ticks;
            self.instructions += span.count;
        }
        let last = spans[spans.len() - 1];
        self.predictor.note_completion_run(last.first, last.last);
        self.expected_addr = Some(end);
    }

    /// Charges one 256 B fetch-line transition at `addr`.
    fn line_access(&mut self, line: u64, addr: InstAddr) {
        self.cur_line = Some(line);
        self.predictor.bus_mut().bump(Counter::IcacheLineAccesses);
        let now = self.cycle();
        let wait = match self.icache.access(addr, now) {
            Access::Hit => return,
            Access::InFlight { ready_at } => {
                self.predictor.bus_mut().bump(Counter::IcacheLatePrefetchHits);
                let wait = ready_at.saturating_sub(now);
                self.penalties.icache_late_prefetch += wait;
                wait
            }
            Access::Miss { ready_at } => {
                self.predictor.bus_mut().bump(Counter::IcacheDemandMisses);
                self.predictor.note_icache_miss(addr, now);
                let wait = ready_at - now;
                self.penalties.icache_demand += wait;
                wait
            }
        };
        self.stall(wait);
    }

    /// Adds `cycles` whole stall cycles.
    fn stall(&mut self, cycles: u64) {
        self.ticks += cycles * self.ticks_per_cycle;
    }

    /// Pulls the first lines of a wrong path into the L1I (fetch ran down
    /// that path until the branch resolved).
    fn fetch_wrong_path(&mut self, from: InstAddr, at: u64) {
        if !self.cfg.wrong_path_fetch {
            return;
        }
        let line_bytes = u64::from(self.cfg.l1i.line_bytes);
        for k in 0..u64::from(self.cfg.wrong_path_lines) {
            if self.icache.prefetch(from.add(k * line_bytes), at) {
                self.predictor.bus_mut().bump(Counter::WrongPathFetches);
            }
        }
    }

    fn branch(&mut self, instr: &TraceInstr) {
        let b = instr.branch.expect("caller checked");
        let decode_cycle = self.cycle();
        let pred = self.predictor.predict_branch(instr, decode_cycle);
        let resolve_cycle = decode_cycle + self.cfg.resolve_delay;
        self.outcomes.branches += 1;

        if pred.dynamic() {
            let dir_correct = pred.taken == b.taken;
            let target_correct = !b.taken || pred.target == Some(b.target);
            if dir_correct && target_correct {
                self.outcomes.good_dynamic += 1;
                if b.taken {
                    // Prediction steers fetch: target line prefetch begins
                    // at broadcast time.
                    if self.icache.prefetch(b.target, pred.ready_cycle) {
                        self.predictor.bus_mut().bump(Counter::IcachePrefetches);
                    }
                }
            } else {
                let outcome = if dir_correct {
                    BadOutcome::MispredictTarget
                } else {
                    BadOutcome::MispredictDirection
                };
                self.outcomes.record_bad(outcome);
                self.penalties.mispredict += self.cfg.mispredict_penalty;
                // Fetch followed the predicted (wrong) path until
                // resolution.
                let wrong = if pred.taken {
                    pred.target.unwrap_or_else(|| instr.fallthrough())
                } else {
                    instr.fallthrough()
                };
                self.fetch_wrong_path(wrong, decode_cycle);
                // The engine restarts as soon as the branch resolves;
                // decode resumes only after the full refill, giving the
                // lookahead search its head start.
                self.predictor.restart(instr.next_addr(), resolve_cycle);
                self.stall(self.cfg.mispredict_penalty);
            }
        } else {
            // Surprise (entry absent, or present but broadcast too late).
            let guess = pred.static_guess_taken;
            // §3.4 alternative miss definition: decode-stage surprise
            // reports (no-op unless the configuration enables them).
            self.predictor.note_decode_surprise(instr.addr, decode_cycle, guess);
            let benign = !b.taken && !guess;
            if benign {
                self.outcomes.benign_surprises += 1;
                if pred.present() {
                    // The engine followed its (unconsumed) prediction;
                    // realign it with the sequential path.
                    self.predictor.restart(instr.next_addr(), decode_cycle);
                }
            } else {
                let outcome = self.classifier.classify(instr.addr, decode_cycle, pred.present());
                self.outcomes.record_bad(outcome);
                let target_at_decode = matches!(
                    b.kind,
                    BranchKind::Conditional | BranchKind::Unconditional | BranchKind::Call
                );
                let (penalty, restart_at) = if b.taken && guess && target_at_decode {
                    // Statically guessed taken, target computable: a
                    // decode-time redirect; the engine restarts now.
                    self.penalties.surprise_redirect += self.cfg.surprise_redirect_penalty;
                    (self.cfg.surprise_redirect_penalty, decode_cycle)
                } else if b.taken && guess {
                    // Correct taken guess but the target waits for
                    // execution (returns, indirect branches).
                    self.penalties.surprise_resolve += self.cfg.surprise_resolve_penalty;
                    (self.cfg.surprise_resolve_penalty, resolve_cycle)
                } else {
                    // Wrong static guess, fixed at resolution; fetch ran
                    // down the guessed path meanwhile.
                    let wrong = if guess { b.target } else { instr.fallthrough() };
                    self.fetch_wrong_path(wrong, decode_cycle);
                    self.penalties.surprise_resolve += self.cfg.mispredict_penalty;
                    (self.cfg.mispredict_penalty, resolve_cycle)
                };
                self.predictor.restart(instr.next_addr(), restart_at);
                self.stall(penalty);
            }
        }

        // Only taken resolutions install into the hierarchy, so only they
        // count as "seen" for the compulsory/capacity split: a branch that
        // was never taken was never installable, and its first taken
        // execution is a compulsory surprise no capacity could avoid.
        if b.taken {
            self.classifier.note_resolution(instr.addr, resolve_cycle);
        }
        self.predictor.resolve(instr, &pred, resolve_cycle);
    }

    /// Finalizes the run.
    pub fn finish(mut self, name: &str) -> CoreResult {
        self.predictor.advance_transfers(u64::MAX);
        #[cfg(feature = "audit")]
        self.predictor.audit_check();
        let bus = self.predictor.bus();
        let icache = ICacheStats {
            demand_misses: bus.get(Counter::IcacheDemandMisses),
            late_prefetch_hits: bus.get(Counter::IcacheLatePrefetchHits),
            prefetches: bus.get(Counter::IcachePrefetches),
            line_accesses: bus.get(Counter::IcacheLineAccesses),
            wrong_path_fetches: bus.get(Counter::WrongPathFetches),
        };
        CoreResult {
            name: name.to_string(),
            instructions: self.instructions,
            cycles: self.cycle(),
            outcomes: self.outcomes,
            penalties: self.penalties,
            icache,
            predictor: self.predictor.stats_snapshot(),
            distinct_branches: self.classifier.distinct_branches() as u64,
        }
    }

    /// The predictor being driven (diagnostics).
    pub fn predictor(&self) -> &BranchPredictor {
        &self.predictor
    }

    /// Mutable access to the predictor, for external write sources like
    /// software branch preload instructions (Figure 1's BTBP inputs).
    pub fn predictor_mut(&mut self) -> &mut BranchPredictor {
        &mut self.predictor
    }

    /// Current cycle: whole cycles elapsed.
    pub fn cycle(&self) -> u64 {
        self.ticks / self.ticks_per_cycle
    }

    /// Branch outcomes accumulated so far (Figure 4 taxonomy). Useful
    /// for per-branch delta tracking under [`Self::step`] driving.
    pub fn outcomes(&self) -> &OutcomeCounts {
        &self.outcomes
    }

    /// Instructions retired so far.
    pub fn instructions(&self) -> u64 {
        self.instructions
    }
}

/// One maximal same-line address span inside a non-branch run: `count`
/// sequential instructions from `first` to `last`, all inside one
/// I-cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LineSpan {
    first: InstAddr,
    last: InstAddr,
    count: u64,
}

/// Decodes one run's length codes into its maximal same-line spans for
/// a given line shift (`line = addr >> shift`), reusing `out`'s
/// capacity, and returns the run's end address (the decode walks every
/// length code anyway, so the end — what [`CompactTrace::run_end`]
/// would recompute with a second walk — falls out for free). A
/// [`GROUP_LUT`] lookup advances four instructions when the group's
/// last address stays in the current line (addresses within a run are
/// strictly increasing, so the whole group does), per-instruction
/// decode otherwise. The caller must not pass an empty run.
fn decode_spans(trace: &CompactTrace, run: &Run, shift: u32, out: &mut Vec<LineSpan>) -> InstAddr {
    out.clear();
    let mut addr = run.start;
    let mut code = run.first_code;
    let end = run.first_code + run.count;
    let codes = trace.len_code_stream();

    let mut cur_line = addr.raw() >> shift;
    let mut first = addr;
    let mut last = addr;
    let mut count = 1u64;
    addr = addr.add(u64::from(trace.len_at(code)));
    code += 1;

    macro_rules! per_instr {
        () => {{
            let line = addr.raw() >> shift;
            if line != cur_line {
                out.push(LineSpan { first, last, count });
                cur_line = line;
                first = addr;
                count = 0;
            }
            last = addr;
            count += 1;
            addr = addr.add(u64::from(trace.len_at(code)));
            code += 1;
        }};
    }

    while code < end && (code & 3) != 0 {
        per_instr!();
    }
    while code + 4 <= end {
        let span = GROUP_LUT[usize::from(codes[(code >> 2) as usize])];
        let group_last = addr.add(u64::from(span.last_off));
        if group_last.raw() >> shift == cur_line {
            count += 4;
            last = group_last;
            addr = addr.add(u64::from(span.total));
            code += 4;
        } else {
            per_instr!();
            per_instr!();
            per_instr!();
            per_instr!();
        }
    }
    while code < end {
        per_instr!();
    }
    out.push(LineSpan { first, last, count });
    addr
}

/// The compact replay kernel: decode-once lane-batched replay.
///
/// A lane group walks one [`SegmentCursor`] over a compact trace and
/// feeds every decoded run to N independent [`CoreModel`] lanes: the
/// run/point structure and the length-code stream are decoded once per
/// run (once per *distinct* L1I line size when lanes differ in
/// geometry), instead of once per lane. Each lane owns its predictor,
/// I-cache and cycle accounting, so a lane's result does not depend on
/// the group it rides in; [`CoreModel::run_compact`] is a one-lane
/// group.
///
/// The span scratch buffers are reused across runs, keeping the replay
/// walk allocation-free once they reach steady-state capacity.
#[derive(Debug)]
pub struct LaneGroup {
    lanes: Vec<CoreModel>,
    /// Distinct L1I line shifts among the lanes.
    shifts: Vec<u32>,
    /// Per-lane index into `shifts` / `spans`.
    shift_of: Vec<usize>,
    /// Reusable span scratch, one buffer per distinct shift.
    spans: Vec<Vec<LineSpan>>,
}

impl LaneGroup {
    /// Groups the given lanes for a shared decode walk.
    pub fn new(lanes: Vec<CoreModel>) -> Self {
        let mut shifts: Vec<u32> = Vec::new();
        let shift_of = lanes
            .iter()
            .map(|lane| {
                let shift = lane.cfg.l1i.line_bytes.trailing_zeros();
                shifts.iter().position(|&s| s == shift).unwrap_or_else(|| {
                    shifts.push(shift);
                    shifts.len() - 1
                })
            })
            .collect();
        let spans = shifts.iter().map(|_| Vec::new()).collect();
        Self { lanes, shifts, shift_of, spans }
    }

    /// Number of lanes in the group.
    pub fn len(&self) -> usize {
        self.lanes.len()
    }

    /// Whether the group has no lanes.
    pub fn is_empty(&self) -> bool {
        self.lanes.is_empty()
    }

    /// Replays the whole trace through every lane from a single cursor
    /// walk. Callable repeatedly; each call appends the trace's stream
    /// to every lane.
    pub fn replay(&mut self, trace: &CompactTrace) {
        self.replay_observed(trace, |_, _, _| {});
    }

    /// [`Self::replay`], calling `hook(lane, branch, model)` after each
    /// lane retires each branch. Retired branches are the stream
    /// positions the record path ([`CoreModel::step`]) and this kernel
    /// both visit one by one, which makes them the differential
    /// oracle's alignment points and the place per-branch-site counts
    /// are taken.
    pub fn replay_observed(
        &mut self,
        trace: &CompactTrace,
        mut hook: impl FnMut(usize, &TraceInstr, &CoreModel),
    ) {
        let mut cursor = trace.segments();
        while let Some(run) = cursor.next_run() {
            self.replay_run(trace, &mut cursor, &run, &mut hook);
        }
    }

    /// Replays one run and its terminating point through every lane.
    fn replay_run(
        &mut self,
        trace: &CompactTrace,
        cursor: &mut SegmentCursor<'_>,
        run: &Run,
        hook: &mut impl FnMut(usize, &TraceInstr, &CoreModel),
    ) {
        // The span decode yields the run's end address as a by-product,
        // so the group pays one length-code walk per run (per distinct
        // shift).
        let end = if run.count == 0 || self.shifts.is_empty() {
            trace.run_end(run)
        } else {
            let mut end = run.start;
            for (spans, &shift) in self.spans.iter_mut().zip(&self.shifts) {
                end = decode_spans(trace, run, shift, spans);
            }
            for (lane, &si) in self.lanes.iter_mut().zip(&self.shift_of) {
                lane.step_spans(&self.spans[si], end);
            }
            end
        };
        if let Some(instr) = cursor.finish_run(end) {
            let retired_branch = !instr.wrong_path && instr.branch.is_some();
            for (i, lane) in self.lanes.iter_mut().enumerate() {
                lane.step(&instr);
                if retired_branch {
                    hook(i, &instr, lane);
                }
            }
        }
    }

    /// Moves past one run and its point, returning the instructions it
    /// retires: through every lane when `model`, else by a pure cursor
    /// fast-walk (one length sum, no span decode, no model work) — the
    /// skip phase of the sampled and windowed controllers.
    fn advance(
        &mut self,
        trace: &CompactTrace,
        cursor: &mut SegmentCursor<'_>,
        run: &Run,
        model: bool,
    ) -> u64 {
        if model {
            let before = self.lanes[0].instructions;
            self.replay_run(trace, cursor, run, &mut |_, _, _| {});
            self.lanes[0].instructions - before
        } else {
            let point = cursor.finish_run(trace.run_end(run));
            run.count + point.map_or(0, |i| u64::from(!i.wrong_path))
        }
    }

    /// Finalizes every lane, in lane order.
    pub fn finish(self, name: &str) -> Vec<CoreResult> {
        self.lanes.into_iter().map(|lane| lane.finish(name)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zbp_trace::{BranchRec, InstAddr, VecTrace};

    fn model() -> CoreModel {
        CoreModel::new(UarchConfig::zec12(), PredictorConfig::zec12())
    }

    /// A trace looping `iters` times over a small body ending in a taken
    /// branch back to the start.
    fn loop_trace(iters: usize) -> VecTrace {
        let mut v = Vec::new();
        for _ in 0..iters {
            v.push(TraceInstr::plain(InstAddr::new(0x1000), 4));
            v.push(TraceInstr::plain(InstAddr::new(0x1004), 4));
            v.push(TraceInstr::branch(
                InstAddr::new(0x1008),
                4,
                BranchRec::taken(BranchKind::Conditional, InstAddr::new(0x1000)),
            ));
        }
        VecTrace::new("loop", v)
    }

    #[test]
    fn branch_outcome_counts_are_complete() {
        let r = model().run(&loop_trace(500));
        assert_eq!(r.outcomes.branches, 500);
        assert_eq!(
            r.outcomes.branches,
            r.outcomes.good_dynamic + r.outcomes.benign_surprises + r.outcomes.bad_total(),
            "every branch must be categorized exactly once"
        );
        assert_eq!(r.instructions, 1500);
    }

    #[test]
    fn hot_loop_becomes_well_predicted() {
        let r = model().run(&loop_trace(2000));
        // After warmup the loop branch must predict dynamically.
        assert!(
            r.outcomes.good_dynamic > 1900,
            "good={} of {}",
            r.outcomes.good_dynamic,
            r.outcomes.branches
        );
        // CPI approaches the base cost.
        let base = 1.0 / 3.0 + UarchConfig::zec12().base_cpi_overhead;
        assert!(r.cpi() < base + 0.2, "cpi={}", r.cpi());
    }

    #[test]
    fn first_iteration_is_compulsory_surprise() {
        let r = model().run(&loop_trace(3));
        assert!(r.outcomes.surprise_compulsory >= 1);
        assert!(r.distinct_branches == 1);
    }

    #[test]
    fn cold_sequential_code_pays_icache_misses() {
        // 4 KB of straight-line code: 16 lines of 256 B.
        let mut v = Vec::new();
        for i in 0..1024u64 {
            v.push(TraceInstr::plain(InstAddr::new(0x8000 + i * 4), 4));
        }
        let r = model().run(&VecTrace::new("seq", v));
        assert_eq!(r.icache.demand_misses, 16);
        assert_eq!(r.penalties.icache_demand, 16 * UarchConfig::zec12().l2_latency);
        assert_eq!(r.outcomes.branches, 0);
    }

    #[test]
    fn taken_prediction_prefetches_target_line() {
        // A loop whose body spans two cache lines; the backward target is
        // re-fetched every iteration but stays resident, so only the very
        // first touches miss.
        let r = model().run(&loop_trace(100));
        assert!(r.icache.demand_misses <= 2);
    }

    #[test]
    fn wrong_static_guess_costs_full_penalty() {
        // A branch alternating taken/not-taken with no warmup: its first
        // taken execution surprises with a not-taken guess.
        let v = vec![
            TraceInstr::branch(
                InstAddr::new(0x1000),
                4,
                BranchRec::taken(BranchKind::Conditional, InstAddr::new(0x2000)),
            ),
            TraceInstr::plain(InstAddr::new(0x2000), 4),
        ];
        let r = model().run(&VecTrace::new("t", v));
        assert_eq!(r.outcomes.surprise_compulsory, 1);
        assert!(r.penalties.surprise_resolve >= UarchConfig::zec12().mispredict_penalty);
    }

    #[test]
    fn benign_surprises_cost_nothing() {
        // Never-taken branch: after the first execution the static 1-bit
        // BHT guesses not-taken; branch is never installed; zero penalty
        // beyond base.
        let mut v = Vec::new();
        for _ in 0..50 {
            v.push(TraceInstr::branch(
                InstAddr::new(0x1000),
                4,
                BranchRec::not_taken(InstAddr::new(0x2000)),
            ));
            v.push(TraceInstr::plain(InstAddr::new(0x1004), 4));
            // jump back
            v.push(TraceInstr::branch(
                InstAddr::new(0x1008),
                4,
                BranchRec::taken(BranchKind::Unconditional, InstAddr::new(0x1000)),
            ));
        }
        let r = model().run(&VecTrace::new("nt", v));
        assert!(r.outcomes.benign_surprises >= 49, "benign={}", r.outcomes.benign_surprises);
        assert_eq!(r.penalties.mispredict, 0);
    }

    #[test]
    fn cpi_is_cycles_over_instructions() {
        let r = model().run(&loop_trace(100));
        assert!((r.cpi() - r.cycles as f64 / r.instructions as f64).abs() < 1e-12);
        assert!(r.cpi() > 0.0);
    }

    #[test]
    fn whole_trace_measure_window_matches_full_replay_exactly() {
        let compact = CompactTrace::capture(&loop_trace(2000)).unwrap();
        let full = model().run_compact(&compact);
        let spec = SamplingSpec { period: u64::MAX, measure: u64::MAX, warmup: 0 };
        let sampled = model().run_compact_sampled(&compact, spec);
        assert_eq!(sampled.measured_instructions, full.instructions);
        assert_eq!(sampled.measured_cycles, full.cycles);
        assert_eq!(sampled.total_instructions, full.instructions);
        assert_eq!(sampled.skipped_instructions, 0);
        assert_eq!(sampled.warmup_instructions, 0);
        assert_eq!(sampled.windows, 1);
        assert!((sampled.cpi() - full.cpi()).abs() < 1e-12);
        assert!((sampled.replayed_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn whole_trace_window_matches_full_replay_exactly() {
        let compact = CompactTrace::capture(&loop_trace(2000)).unwrap();
        let full = model().run_compact(&compact);
        let windows = [(0u64, u64::MAX)];
        let measures = model().run_compact_windows(&compact, &windows, 0);
        assert_eq!(measures.len(), 1);
        let w = measures[0];
        assert_eq!(w.start, 0);
        assert_eq!(w.instructions, full.instructions);
        assert_eq!(w.cycles, full.cycles);
        assert_eq!(w.dir_mispredicts, full.outcomes.mispredict_direction);
        assert_eq!(w.target_mispredicts, full.outcomes.mispredict_target);
        assert!((w.cpi() - full.cpi()).abs() < 1e-12);
    }

    #[test]
    fn windowed_replay_is_deterministic_and_respects_bounds() {
        use zbp_trace::profile::WorkloadProfile;
        let trace = WorkloadProfile::tpf_airline().build_with_len(11, 60_000);
        let compact = CompactTrace::capture(&trace).unwrap();
        let windows = [(5_000u64, 4_000u64), (20_000, 4_000), (50_000, 4_000)];
        let a = model().run_compact_windows(&compact, &windows, 1_000);
        let b = model().run_compact_windows(&compact, &windows, 1_000);
        assert_eq!(a, b, "windowed replay must be deterministic");
        assert_eq!(a.len(), 3);
        for (w, &(start, len)) in a.iter().zip(&windows) {
            assert_eq!(w.start, start);
            // Edges land on run boundaries: entry and exit each slip
            // by at most one run, so the measured length stays within
            // a run of the nominal window.
            assert!(w.instructions >= len - 1_000, "window at {start} measured {}", w.instructions);
            assert!(w.instructions < len + 1_000, "overshoot {}", w.instructions);
            assert!(w.cycles > 0);
        }
        // A warmup-free run differs (cold predictor at window entry).
        let cold = model().run_compact_windows(&compact, &windows, 0);
        assert_ne!(a, cold);
    }

    #[test]
    #[should_panic(expected = "unsorted or overlapping")]
    fn windowed_replay_rejects_overlap() {
        let compact = CompactTrace::capture(&loop_trace(100)).unwrap();
        let _ = model().run_compact_windows(&compact, &[(0, 50), (20, 30)], 0);
    }

    #[test]
    fn sampled_replay_skips_deterministically_and_estimates_cpi() {
        use zbp_trace::profile::WorkloadProfile;
        let trace = WorkloadProfile::tpf_airline().build_with_len(11, 60_000);
        let compact = CompactTrace::capture(&trace).unwrap();
        let full = model().run_compact(&compact);
        let spec = SamplingSpec::one_in(5, 2_000);
        let a = model().run_compact_sampled(&compact, spec);
        let b = model().run_compact_sampled(&compact, spec);
        assert_eq!(a, b, "sampling must be deterministic");
        assert_eq!(a.total_instructions, full.instructions);
        assert!(a.skipped_instructions > 0, "1-in-5 must actually skip");
        assert!(a.windows > 1, "windows={}", a.windows);
        assert!(
            a.replayed_fraction() < 0.5,
            "1-in-5 with half-window warmup replays ~30%, got {}",
            a.replayed_fraction()
        );
        let err = (a.cpi() - full.cpi()).abs() / full.cpi();
        assert!(err < 0.15, "sampled {} vs full {} ({:.1}% off)", a.cpi(), full.cpi(), err * 100.0);
    }

    #[test]
    fn sampling_windows_cover_disc_and_skip_reentry() {
        // Period smaller than the loop body count forces many
        // skip→warmup re-entries; totals must still be conserved.
        let compact = CompactTrace::capture(&loop_trace(3000)).unwrap();
        let spec = SamplingSpec { period: 64, measure: 16, warmup: 8 };
        let s = model().run_compact_sampled(&compact, spec);
        assert_eq!(
            s.measured_instructions + s.warmup_instructions + s.skipped_instructions,
            s.total_instructions
        );
        assert_eq!(s.total_instructions, 9000);
        assert!(s.windows > 10);
        assert!(s.cpi() > 0.0);
    }

    #[test]
    #[should_panic(expected = "measure window must be non-empty")]
    fn sampling_rejects_empty_measure_window() {
        let compact = CompactTrace::capture(&loop_trace(10)).unwrap();
        let spec = SamplingSpec { period: 100, measure: 0, warmup: 10 };
        let _ = model().run_compact_sampled(&compact, spec);
    }

    #[test]
    #[should_panic(expected = "must fit within the period")]
    fn sampling_rejects_overfull_period() {
        let compact = CompactTrace::capture(&loop_trace(10)).unwrap();
        let spec = SamplingSpec { period: 100, measure: 80, warmup: 40 };
        let _ = model().run_compact_sampled(&compact, spec);
    }

    #[test]
    fn empty_trace_is_harmless() {
        let r = model().run(&VecTrace::default());
        assert_eq!(r.instructions, 0);
        assert_eq!(r.cycles, 0);
        assert_eq!(r.cpi(), 0.0);
    }

    #[test]
    fn wrong_path_records_do_not_retire() {
        let mut v = loop_trace(100).into_records();
        // Interleave off-path noise: it must not perturb anything.
        for k in 0..v.len() / 7 {
            v.insert(
                k * 8,
                TraceInstr::plain(InstAddr::new(0x9000 + k as u64 * 2), 2).wrong_path(),
            );
        }
        let noisy = model().run(&VecTrace::new("loop", v));
        let clean = model().run(&loop_trace(100));
        assert_eq!(noisy, clean);
    }

    #[test]
    fn compact_replay_is_bit_identical_to_record_replay() {
        use zbp_trace::profile::WorkloadProfile;
        for (seed, len) in [(7u64, 40_000u64), (0xEC12, 25_000)] {
            for p in [WorkloadProfile::tpf_airline(), WorkloadProfile::zos_lspr_cb84()] {
                let gen = p.build_with_len(seed, len);
                let compact = CompactTrace::capture(&gen).expect("encodable");
                let by_record = model().run(&gen);
                let by_compact = model().run_compact(&compact);
                assert_eq!(by_compact, by_record, "{} seed {seed:#x}", gen.name());
            }
        }
    }

    #[test]
    fn compact_replay_handles_discontinuities_and_empty_runs() {
        // Back-to-back branches (empty runs), a discontinuity, and a
        // trailing branchless tail.
        let mut v = Vec::new();
        let b = |a: u64, t: u64| {
            TraceInstr::branch(
                InstAddr::new(a),
                4,
                BranchRec::taken(BranchKind::Unconditional, InstAddr::new(t)),
            )
        };
        v.push(b(0x1000, 0x2000));
        v.push(b(0x2000, 0x3000)); // empty run between branches
        v.push(TraceInstr::plain(InstAddr::new(0x9000), 4)); // discontinuity
        for i in 0..600u64 {
            v.push(TraceInstr::plain(InstAddr::new(0x9004 + i * 6), 6));
        }
        let vt = VecTrace::new("disc", v);
        let compact = CompactTrace::capture(&vt).unwrap();
        assert_eq!(model().run_compact(&compact), model().run(&vt));
    }

    /// The lane configurations the lane tests sweep: differing BTB
    /// geometries stress per-lane predictor isolation.
    fn lane_configs() -> Vec<PredictorConfig> {
        vec![
            PredictorConfig::zec12(),
            PredictorConfig::no_btb2(),
            PredictorConfig::large_btb1(),
            PredictorConfig::zec12(), // duplicate lane: must still isolate
        ]
    }

    #[test]
    fn lane_replay_is_bit_identical_to_sequential_compact_replay() {
        use zbp_trace::profile::WorkloadProfile;
        for p in [WorkloadProfile::tpf_airline(), WorkloadProfile::zos_lspr_cb84()] {
            let gen = p.build_with_len(7, 30_000);
            let compact = CompactTrace::capture(&gen).expect("encodable");
            let lanes = lane_configs()
                .into_iter()
                .map(|pc| CoreModel::new(UarchConfig::zec12(), pc))
                .collect();
            let batched = CoreModel::run_compact_lanes(lanes, &compact);
            let sequential: Vec<CoreResult> = lane_configs()
                .into_iter()
                .map(|pc| CoreModel::new(UarchConfig::zec12(), pc).run_compact(&compact))
                .collect();
            assert_eq!(batched, sequential, "{}", gen.name());
        }
    }

    #[test]
    fn lane_replay_handles_discontinuities_and_empty_runs() {
        let mut v = Vec::new();
        let b = |a: u64, t: u64| {
            TraceInstr::branch(
                InstAddr::new(a),
                4,
                BranchRec::taken(BranchKind::Unconditional, InstAddr::new(t)),
            )
        };
        v.push(b(0x1000, 0x2000));
        v.push(b(0x2000, 0x3000)); // empty run between branches
        v.push(TraceInstr::plain(InstAddr::new(0x9000), 4)); // discontinuity
        for i in 0..600u64 {
            v.push(TraceInstr::plain(InstAddr::new(0x9004 + i * 6), 6));
        }
        let compact = CompactTrace::capture(&VecTrace::new("disc", v)).unwrap();
        let lanes = vec![model(), CoreModel::new(UarchConfig::zec12(), PredictorConfig::no_btb2())];
        let batched = CoreModel::run_compact_lanes(lanes, &compact);
        assert_eq!(batched[0], model().run_compact(&compact));
        assert_eq!(
            batched[1],
            CoreModel::new(UarchConfig::zec12(), PredictorConfig::no_btb2()).run_compact(&compact)
        );
    }

    #[test]
    fn lane_replay_with_mixed_line_sizes_stays_bit_identical() {
        use zbp_trace::profile::WorkloadProfile;
        // Lanes with different L1I line sizes decode separate span
        // lists from the same cursor walk; each must match its own
        // sequential replay exactly.
        let mut small_lines = UarchConfig::zec12();
        small_lines.l1i.line_bytes = 64;
        let gen = WorkloadProfile::tpf_airline().build_with_len(3, 25_000);
        let compact = CompactTrace::capture(&gen).unwrap();
        let lanes = vec![
            CoreModel::new(UarchConfig::zec12(), PredictorConfig::zec12()),
            CoreModel::new(small_lines, PredictorConfig::zec12()),
        ];
        let batched = CoreModel::run_compact_lanes(lanes, &compact);
        assert_eq!(batched[0], model().run_compact(&compact));
        assert_eq!(
            batched[1],
            CoreModel::new(small_lines, PredictorConfig::zec12()).run_compact(&compact)
        );
    }

    #[test]
    fn empty_lane_group_is_harmless() {
        let compact = CompactTrace::capture(&loop_trace(50)).unwrap();
        let results = CoreModel::run_compact_lanes(Vec::new(), &compact);
        assert!(results.is_empty());
    }

    #[test]
    fn the_zec12_decode_cost_is_205_ticks_of_a_300th_cycle() {
        let m = model();
        assert_eq!((m.ticks_per_cycle, m.step_ticks), (300, 205));
    }

    #[test]
    #[should_panic(expected = "not a whole number")]
    fn an_overhead_off_the_tick_grid_is_rejected() {
        let cfg = UarchConfig { base_cpi_overhead: 0.3333, ..UarchConfig::zec12() };
        let _ = CoreModel::new(cfg, PredictorConfig::zec12());
    }

    #[test]
    fn straight_line_cycles_are_exact_ticks() {
        // 1024 four-byte instructions over 16 cold lines: the step and
        // the stalls add up exactly, whatever the grouping.
        let v: Vec<_> =
            (0..1024u64).map(|i| TraceInstr::plain(InstAddr::new(0x8000 + i * 4), 4)).collect();
        let vt = VecTrace::new("seq", v);
        let by_record = model().run(&vt);
        let stalls = 16 * UarchConfig::zec12().l2_latency;
        assert_eq!(by_record.cycles, (1024 * 205 + stalls * 300) / 300);
        assert_eq!(model().run_compact(&CompactTrace::capture(&vt).unwrap()), by_record);
    }

    #[test]
    fn the_branch_hook_sees_every_retired_branch_in_every_lane() {
        let compact = CompactTrace::capture(&loop_trace(300)).unwrap();
        let mut group = LaneGroup::new(vec![model(), model()]);
        let mut seen = [0u64; 2];
        group.replay_observed(&compact, |lane, instr, m| {
            assert_eq!(instr.addr, InstAddr::new(0x1008));
            seen[lane] += 1;
            assert_eq!(m.outcomes().branches, seen[lane]);
        });
        assert_eq!(seen, [300, 300]);
        let results = group.finish("loop");
        assert_eq!(results[0], model().run(&loop_trace(300)));
    }
}

zbp_support::impl_json_struct!(ICacheStats {
    demand_misses,
    late_prefetch_hits,
    prefetches,
    line_accesses,
    wrong_path_fetches,
});
zbp_support::impl_json_struct!(CoreResult {
    name,
    instructions,
    cycles,
    outcomes,
    penalties,
    icache,
    predictor,
    distinct_branches,
});
