//! The per-program layer replay.
//!
//! [`ProgramReplay`] runs a sequential campaign with the same steps as
//! `llm4fp::CampaignRunner::run_one`, built from each layer's public
//! functions, and times every call in its own span:
//!
//! | span | public calls |
//! |---|---|
//! | `generator` | `PromptBuilder::*` + `SimulatedLlm::generate`, or `VarityGenerator::generate` |
//! | `fpir.parse` | `parse_compute` + `validate` + `program_id` |
//! | `cache` | `ResultCache::{scoped_key, get, insert}` |
//! | `inputs` | `program_hash` + `InputGenerator::generate` + `InputSet::truncated` |
//! | `difftest.run` | `DiffTester::run_with` (its `difftest.seal` and `difftest.execute` telemetry histograms split it further) |
//! | `difftest.baseline` | `DiffTester::compare_vs_baseline` |
//! | `difftest.aggregate` | `record_outcome_metrics` + `Aggregates::{add_result, add_baseline_comparisons}` |
//! | `fpir.print` | `to_compute_source` |
//!
//! [`run_lockstep`] steps the replay and a real `CampaignRunner` of the
//! same configuration program by program, times the runner's `run_one`,
//! and checks that both produce the same records and sources — so the
//! layer times add up against the campaign they claim to explain.

use std::sync::Arc;
use std::time::Instant;

use rand::prelude::*;

use llm4fp::{ApproachKind, CampaignConfig, CampaignRunner, ProgramRecord, SuccessfulSet};
use llm4fp_difftest::{
    record_outcome_metrics, Aggregates, CachedDiff, DiffTester, MatrixScratch, ProgramDiffResult,
    ResultCache,
};
use llm4fp_fpir::{program_hash, program_id, to_compute_source, validate, Program};
use llm4fp_generator::llm::SimulatedLlmConfig;
use llm4fp_generator::{
    InputGenerator, LlmClient, PromptBuilder, SimulatedLlm, Strategy, VarityGenerator,
};
use llm4fp_telemetry::{keys, Telemetry, TelemetryHub, TelemetrySpec};

use crate::ledger::Ledger;

pub const GENERATOR: &str = "generator";
pub const PARSE: &str = "fpir.parse";
pub const PRINT: &str = "fpir.print";
pub const CACHE: &str = "cache";
pub const INPUTS: &str = "inputs";
pub const DIFF_RUN: &str = "difftest.run";
pub const BASELINE: &str = "difftest.baseline";
pub const AGGREGATE: &str = "difftest.aggregate";
/// The real runner's `run_one`, timed in lockstep with the replay.
pub const RUN_ONE: &str = "campaign.run_one";

/// A sequential campaign rebuilt from the layers' public functions.
pub struct ProgramReplay {
    config: CampaignConfig,
    rng: StdRng,
    varity: VarityGenerator,
    llm: SimulatedLlm,
    prompts: PromptBuilder,
    tester: DiffTester,
    cache_scope: String,
    comparisons: usize,
    input_seed: u64,
    cache: Option<Arc<ResultCache>>,
    successful: SuccessfulSet,
    scratch: MatrixScratch,
    aggregates: Aggregates,
    telemetry: Telemetry,
    pub records: Vec<ProgramRecord>,
    pub sources: Vec<String>,
    /// Generation attempts that produced a valid program.
    pub valid: u64,
}

impl ProgramReplay {
    /// Mirror `CampaignRunner::new(config)`, with the tester reporting
    /// into `telemetry` and an optional shared result cache.
    pub fn new(
        config: CampaignConfig,
        cache: Option<Arc<ResultCache>>,
        telemetry: Telemetry,
    ) -> Self {
        let seed = config.seed;
        let tester = DiffTester::with_matrix(config.compilers.clone(), config.levels.clone())
            .with_threads(config.threads)
            .with_seal_mode(config.seal_mode)
            .with_telemetry(telemetry.clone());
        ProgramReplay {
            rng: StdRng::seed_from_u64(seed),
            varity: VarityGenerator::new(seed ^ 0x5eed_0001),
            llm: SimulatedLlm::with_config(
                seed ^ 0x5eed_0002,
                SimulatedLlmConfig {
                    sampling: config.sampling,
                    direct_prompt_invalid_rate: config.direct_prompt_invalid_rate,
                    ..SimulatedLlmConfig::default()
                },
            ),
            prompts: PromptBuilder::new(config.precision),
            cache_scope: tester.backend_fingerprint(),
            comparisons: tester.comparisons_per_program(),
            tester,
            input_seed: seed ^ 0x5eed_0003,
            cache,
            successful: SuccessfulSet::new(),
            scratch: MatrixScratch::new(),
            aggregates: Aggregates::new(),
            telemetry,
            records: Vec::with_capacity(config.programs),
            sources: Vec::new(),
            valid: 0,
            config,
        }
    }

    /// One program: generate, parse, look up the cache, derive inputs,
    /// test, aggregate, print — each call in its own span.
    pub fn step(&mut self, index: usize, ledger: &mut Ledger) {
        let (strategy, candidate) = ledger.time(GENERATOR, || self.generate());
        let program = match candidate {
            Candidate::Program(program) => Some(program),
            Candidate::Source(source) => ledger.time(PARSE, || parse_valid(&source)),
        };
        let Some(program) = program else {
            let empty = ProgramDiffResult {
                program_id: String::new(),
                outcomes: Vec::new(),
                records: Vec::new(),
                comparisons_performed: 0,
            };
            ledger.time(AGGREGATE, || self.aggregates.add_result(&empty, self.comparisons));
            self.records.push(ProgramRecord {
                index,
                program_id: String::new(),
                strategy,
                valid: false,
                inconsistencies: 0,
                successful: false,
            });
            return;
        };
        self.valid += 1;
        let id = ledger.time(PARSE, || program_id(&program));
        let key = self.cache.as_ref().map(|_| ResultCache::scoped_key(&self.cache_scope, &id));
        let cached = match (&self.cache, &key) {
            (Some(cache), Some(key)) => ledger.time(CACHE, || cache.get(key)),
            _ => None,
        };
        let CachedDiff { result, baseline } = match cached {
            Some(hit) => hit,
            None => {
                let inputs = ledger.time(INPUTS, || {
                    InputGenerator::new(self.input_seed ^ program_hash(&program))
                        .generate(&program)
                        .truncated(self.config.precision)
                });
                let result = ledger
                    .time(DIFF_RUN, || self.tester.run_with(&program, &inputs, &mut self.scratch));
                let baseline =
                    ledger.time(BASELINE, || self.tester.compare_vs_baseline(&result.outcomes));
                let computed = CachedDiff { result, baseline };
                if let (Some(cache), Some(key)) = (&self.cache, key) {
                    let entry = computed.clone();
                    ledger.time(CACHE, || cache.insert(key, entry));
                }
                computed
            }
        };
        ledger.time(AGGREGATE, || {
            record_outcome_metrics(&self.telemetry, &result);
            self.aggregates.add_result(&result, self.comparisons);
            self.aggregates.add_baseline_comparisons(&baseline);
        });
        let source = ledger.time(PRINT, || to_compute_source(&program));
        let triggered = result.triggered_inconsistency();
        if triggered {
            self.successful.insert(&source);
        }
        self.records.push(ProgramRecord {
            index,
            program_id: id,
            strategy,
            valid: true,
            inconsistencies: result.records.len(),
            successful: triggered,
        });
        self.sources.push(source);
    }

    /// The candidate for the configured approach, drawing the strategy
    /// exactly as the campaign loop does.
    fn generate(&mut self) -> (String, Candidate) {
        let llm_source = |llm: &mut SimulatedLlm, prompt| llm.generate(&prompt).source;
        match self.config.approach {
            ApproachKind::Varity => {
                ("varity".to_string(), Candidate::Program(self.varity.generate()))
            }
            ApproachKind::DirectPrompt => (
                Strategy::DirectPrompt.name().to_string(),
                Candidate::Source(llm_source(&mut self.llm, self.prompts.direct_prompt())),
            ),
            ApproachKind::GrammarGuided => (
                Strategy::GrammarBased.name().to_string(),
                Candidate::Source(llm_source(&mut self.llm, self.prompts.grammar_based())),
            ),
            ApproachKind::Llm4Fp => {
                let seed = if self.successful.is_empty()
                    || self.rng.gen_bool(self.config.grammar_probability)
                {
                    None
                } else {
                    self.successful.sources().choose(&mut self.rng).cloned()
                };
                match seed {
                    None => (
                        Strategy::GrammarBased.name().to_string(),
                        Candidate::Source(llm_source(&mut self.llm, self.prompts.grammar_based())),
                    ),
                    Some(seed) => (
                        Strategy::FeedbackMutation.name().to_string(),
                        Candidate::Source(llm_source(
                            &mut self.llm,
                            self.prompts.feedback_mutation(&seed),
                        )),
                    ),
                }
            }
        }
    }
}

enum Candidate {
    Program(Program),
    Source(String),
}

fn parse_valid(source: &str) -> Option<Program> {
    let program = llm4fp_fpir::parse_compute(source).ok()?;
    validate(&program).is_empty().then_some(program)
}

/// What one lockstep replay of a set of campaigns measured.
#[derive(Debug, Default, Clone)]
pub struct LockstepOutcome {
    pub ledger: Ledger,
    /// Programs stepped (the budget of every campaign, summed).
    pub programs: u64,
    /// Generation attempts that produced a valid program.
    pub valid: u64,
    /// Result-cache lookups and hits of the replay's cache.
    pub cache_lookups: u64,
    pub cache_hits: u64,
    /// Programs the seal pipeline refused, and the seal and execute
    /// histogram totals, from the replay's telemetry.
    pub seal_refusals: u64,
    pub seal_us: f64,
    pub execute_us: f64,
    /// Campaigns whose replay diverged from the real runner.
    pub mismatches: u64,
}

/// Replay every campaign in `configs` sequentially, stepping a real
/// `CampaignRunner` in lockstep. Both sides share a result cache across
/// the campaigns (each side its own), as the scheduler shares one
/// across a suite.
pub fn run_lockstep(configs: &[CampaignConfig]) -> LockstepOutcome {
    let hub = TelemetryHub::new(TelemetrySpec::METRICS);
    let real_hub = TelemetryHub::new(TelemetrySpec::METRICS);
    let cache = Arc::new(ResultCache::new());
    let real_cache = Arc::new(ResultCache::new());
    let mut out = LockstepOutcome::default();
    for config in configs {
        let mut replay = ProgramReplay::new(config.clone(), Some(Arc::clone(&cache)), hub.lane(0));
        let mut runner = CampaignRunner::new(config.clone())
            .with_cache(Arc::clone(&real_cache))
            .with_telemetry(real_hub.lane(0));
        for index in 0..config.programs {
            let start = Instant::now();
            runner.run_one(index);
            out.ledger.add(RUN_ONE, start.elapsed());
            replay.step(index, &mut out.ledger);
        }
        let real = runner.finish();
        if real.records != replay.records || real.sources != replay.sources {
            out.mismatches += 1;
        }
        out.programs += config.programs as u64;
        out.valid += replay.valid;
    }
    let stats = cache.stats();
    out.cache_lookups = stats.hits + stats.misses;
    out.cache_hits = stats.hits;
    let summary = hub.summary();
    out.seal_refusals = summary.seal_refusals;
    out.seal_us = hub.histogram(keys::SPAN_SEAL).map_or(0.0, |h| h.sum().as_secs_f64() * 1e6);
    out.execute_us = hub.histogram(keys::SPAN_EXECUTE).map_or(0.0, |h| h.sum().as_secs_f64() * 1e6);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_replay_reproduces_every_approach() {
        let configs: Vec<CampaignConfig> = ApproachKind::ALL
            .iter()
            .map(|&a| CampaignConfig::new(a).with_budget(24).with_seed(5).with_threads(1))
            .collect();
        let out = run_lockstep(&configs);
        assert_eq!(out.mismatches, 0);
        assert_eq!(out.programs, 96);
        assert!(out.valid > 0 && out.valid <= 96);
        assert!(out.ledger.count(RUN_ONE) == 96);
        assert!(out.ledger.count(GENERATOR) == 96);
    }

    /// `cache.hit_ratio` and `generator.valid_ratio` are exact-count
    /// probes: they must repeat exactly for the same campaigns.
    #[test]
    fn cache_and_validity_counts_repeat_exactly() {
        let configs: Vec<CampaignConfig> = [ApproachKind::DirectPrompt, ApproachKind::Llm4Fp]
            .iter()
            .map(|&a| CampaignConfig::new(a).with_budget(40).with_seed(8).with_threads(1))
            .collect();
        let counts = |out: LockstepOutcome| (out.valid, out.cache_hits, out.cache_lookups);
        let first = counts(run_lockstep(&configs));
        assert_eq!(first, counts(run_lockstep(&configs)));
        assert_eq!(first.2, first.0, "every valid program looks the cache up once");
    }
}
