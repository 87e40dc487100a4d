//! The three workloads and the closed-loop round they share.
//!
//! Every workload runs one campaign session at a time, closed loop, in
//! this process. One round has four phases, each checked against a
//! reference fingerprint:
//!
//! 1. **campaign** — the workload's campaigns, K = 4 shards and E = 4
//!    exchange epochs, on its transport (`programs_per_s`);
//! 2. **resume** — every persisted LLM4FP campaign is cut back to the
//!    state a kill right after barrier 1 leaves, and
//!    `Orchestrator::resume` restores two epochs and recomputes two
//!    (`resume_s`);
//! 3. **reload** — `Orchestrator::resume` on each now-complete run dir,
//!    which reuses every shard (`reload_s`);
//! 4. **diversity** — `DiversityReport::measure` over the workload's
//!    corpora (`diversity_pairs_per_s`).
//!
//! A round repeats the campaign and diversity phases for several
//! campaign seeds derived from `--seed`, and the persistence phases for
//! several persisted campaigns. LLM4FP's feedback loop makes one small
//! campaign's size, and so its cost, vary a lot from seed to seed; a
//! round averages over independent campaigns so that a run's figures
//! vary little with `--seed`.
//!
//! The workloads differ in where the time goes: `suite-inproc` is the
//! per-program pipeline, `remote-persist` the wire codec, supervision and
//! run-dir reads, `diversity` the CodeBLEU scorer.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use llm4fp::{ApproachKind, CampaignConfig, CampaignResult};
use llm4fp_metrics::{average_pairwise_codebleu, detect_clones, DiversityReport};
use llm4fp_orchestrator::{
    InProcessExecutor, OrchestratedResult, Orchestrator, OrchestratorError, OrchestratorOptions,
    RemoteWorkerExecutor, Scheduler, ShardExecutor,
};
use llm4fp_telemetry::TelemetrySpec;

use crate::fixture::{kill_after_barrier_one, ScratchDir};
use crate::frames::{self, replay_frames, FrameOutcome};
use crate::ledger::Ledger;
use crate::protocol::{self, drive_session, spawn_handshake};
use crate::replay::{self, run_lockstep};
use crate::report::{median, peak_rss_mib, Metric, Report, Tally};
use crate::{fingerprint, EPOCHS, SHARDS};

/// Where a workload's campaign phase runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// `Scheduler` on the in-process executor with a shared result cache.
    InProcess,
    /// `Orchestrator` on `RemoteWorkerExecutor` with self-spawned
    /// loopback workers and a run dir (the cache is off out of process).
    /// Its campaigns are the persisted campaigns.
    Remote,
}

/// One workload: a fixed campaign session, sized for one machine.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Approaches of the campaign phase, in Table 2 order.
    pub approaches: &'static [ApproachKind],
    /// Program budget per approach.
    pub programs: usize,
    pub transport: Transport,
    /// Campaign seeds per round for the campaign phase, and how many of
    /// them (the first ones) the diversity phase scores.
    pub campaign_seeds: usize,
    pub diversity_seeds: usize,
    /// LLM4FP campaigns of `PERSISTED_PROGRAMS` programs the resume and
    /// reload phases work on. In process, set-up persists them; on the
    /// remote transport they are the campaign phase's own runs.
    pub persisted: usize,
    /// Campaign outputs the diversity phase scores.
    pub corpora: &'static [ApproachKind],
    /// Cap on CodeBLEU pairs per corpus.
    pub pair_cap: usize,
}

/// Shard workers, remote worker processes and CodeBLEU threads of every
/// workload, before the `nproc` cap. The CodeBLEU mean's floating-point
/// sum order depends on the thread count, so it is fixed here.
pub const WORKERS: usize = 2;

/// Differential-testing matrix threads per shard. The shard workers
/// already keep every core busy; more matrix threads would only
/// oversubscribe them (and, on two cores, halve throughput and double
/// its run-to-run spread).
pub const MATRIX_THREADS: usize = 1;

/// Budget of every persisted campaign: small, because the seed-commit
/// parser is quadratic, and many of them per round, because one small
/// LLM4FP campaign's size varies a lot with its seed.
pub const PERSISTED_PROGRAMS: usize = 20;

/// The paper's default cap on scored CodeBLEU pairs.
pub const PAPER_PAIR_CAP: usize = 20_000;

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "suite-inproc",
        approaches: &ApproachKind::ALL,
        programs: 500,
        transport: Transport::InProcess,
        campaign_seeds: 8,
        diversity_seeds: 8,
        persisted: 64,
        corpora: &[ApproachKind::Llm4Fp, ApproachKind::DirectPrompt],
        pair_cap: 200,
    },
    Workload {
        name: "remote-persist",
        approaches: &[ApproachKind::Llm4Fp],
        programs: 20,
        transport: Transport::Remote,
        campaign_seeds: 48,
        diversity_seeds: 48,
        persisted: 48,
        corpora: &[ApproachKind::Llm4Fp],
        pair_cap: 50,
    },
    Workload {
        name: "diversity",
        approaches: &[ApproachKind::Llm4Fp, ApproachKind::DirectPrompt],
        programs: 2_000,
        transport: Transport::InProcess,
        campaign_seeds: 4,
        diversity_seeds: 1,
        persisted: 64,
        corpora: &[ApproachKind::Llm4Fp, ApproachKind::DirectPrompt],
        pair_cap: PAPER_PAIR_CAP,
    },
];

/// Look a workload up by name.
pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The campaign seed of the `index`-th campaign of a run seeded with
/// `seed` (index 0 is the run seed itself).
pub fn campaign_seed(seed: u64, index: usize) -> u64 {
    seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
}

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 3;

const CODEBLEU: &str = "metrics.codebleu";
const CLONES: &str = "metrics.clones";

/// One run of one workload.
pub struct Bench {
    workload: Workload,
    seed: u64,
    /// `WORKERS` capped at the machine's parallelism.
    workers: usize,
    scratch: ScratchDir,
}

/// What set-up prepares: the configs of every campaign and the run dirs
/// of the persisted ones (written in process, or left to the remote
/// campaign phase).
struct Setup {
    /// Per campaign seed, one config per approach.
    suites: Vec<Vec<CampaignConfig>>,
    persisted: Vec<CampaignConfig>,
    run_dirs: Vec<PathBuf>,
    /// Fingerprints of the persisted runs set-up wrote in process.
    persisted_prints: Vec<u64>,
}

/// The untimed reference fingerprints every operation is checked against.
struct References {
    suites: Vec<Vec<u64>>,
    persisted: Vec<u64>,
    /// Per campaign seed, one diversity fingerprint per corpus.
    diversity: Vec<Vec<u64>>,
}

/// What one round measured: one throughput per campaign-phase run, one
/// wall time per resume and per reload, and the diversity phase's pairs
/// and time in total.
#[derive(Debug, Clone, Default)]
struct Round {
    wall_s: f64,
    programs_per_s: Vec<f64>,
    resume_s: Vec<f64>,
    reload_s: Vec<f64>,
    pairs: f64,
    diversity_s: f64,
}

/// Failures, quarantines and fallbacks seen by the real runs.
#[derive(Debug, Default)]
struct Health {
    tally: Tally,
    quarantined: u64,
    fallbacks: u64,
}

impl Health {
    /// Score one finished run: it fails on quarantined shards, a
    /// fallback, or a fingerprint other than `reference`.
    fn check_run(&mut self, run: &OrchestratedResult, reference: u64) -> bool {
        self.quarantined += run.stats.failures.len() as u64;
        self.fallbacks += u64::from(run.stats.fell_back_to_in_process);
        let ok = run.stats.failures.is_empty()
            && !run.stats.fell_back_to_in_process
            && fingerprint::campaign(&run.result) == reference;
        self.tally.record(ok);
        ok
    }
}

fn log_error(what: &str, error: impl std::fmt::Display) {
    eprintln!("campaignbench: {what} failed: {error}");
}

impl Bench {
    /// A run of `workload` with seed `seed`, using `scratch` for its run
    /// dirs.
    pub fn new(workload: Workload, seed: u64, scratch: ScratchDir) -> Self {
        let workers = WORKERS.min(llm4fp_orchestrator::default_workers()).max(1);
        Bench { workload, seed, workers, scratch }
    }

    fn config(&self, approach: ApproachKind, programs: usize, seed: u64) -> CampaignConfig {
        CampaignConfig::new(approach)
            .with_budget(programs)
            .with_seed(seed)
            .with_threads(MATRIX_THREADS.min(self.workers))
    }

    /// The untimed reference route: the plain orchestrator, in process,
    /// cache off.
    fn reference(&self, config: &CampaignConfig) -> Result<CampaignResult, String> {
        Orchestrator::new(config.clone())
            .shards(SHARDS)
            .epochs(EPOCHS)
            .workers(self.workers)
            .cache(false)
            .run()
            .map(|run| run.result)
            .map_err(|e| format!("reference run: {e}"))
    }

    fn remote_executor(&self) -> RemoteWorkerExecutor {
        RemoteWorkerExecutor::new(self.workers)
    }

    /// Configs, then the persisted fixtures (in process) or a worker
    /// spawn and handshake (remote).
    fn setup(&self) -> Result<Setup, String> {
        let w = &self.workload;
        let suites = (0..w.campaign_seeds)
            .map(|i| {
                let seed = campaign_seed(self.seed, i);
                w.approaches.iter().map(|&a| self.config(a, w.programs, seed)).collect()
            })
            .collect();
        let persisted: Vec<CampaignConfig> = (0..w.persisted)
            .map(|i| {
                self.config(ApproachKind::Llm4Fp, PERSISTED_PROGRAMS, campaign_seed(self.seed, i))
            })
            .collect();
        let run_dirs: Vec<PathBuf> =
            (0..w.persisted).map(|i| self.scratch.fresh(&format!("persisted-{i:03}"))).collect();
        let mut persisted_prints = Vec::new();
        match w.transport {
            Transport::InProcess => {
                for (config, dir) in persisted.iter().zip(&run_dirs) {
                    let run = Orchestrator::new(config.clone())
                        .shards(SHARDS)
                        .epochs(EPOCHS)
                        .workers(self.workers)
                        .run_dir(dir)
                        .run()
                        .map_err(|e| format!("persisted fixture run: {e}"))?;
                    persisted_prints.push(fingerprint::campaign(&run.result));
                }
            }
            Transport::Remote => {
                spawn_handshake(&self.remote_executor(), &persisted[0])
                    .map_err(|e| format!("worker spawn and handshake: {e}"))?;
            }
        }
        Ok(Setup { suites, persisted, run_dirs, persisted_prints })
    }

    /// Reference fingerprints for every campaign, persisted campaign and
    /// corpus of the run, computed once and untimed.
    fn references(&self, setup: &Setup) -> Result<References, String> {
        let mut refs =
            References { suites: Vec::new(), persisted: Vec::new(), diversity: Vec::new() };
        for suite in &setup.suites {
            let results = suite.iter().map(|c| self.reference(c)).collect::<Result<Vec<_>, _>>()?;
            refs.suites.push(results.iter().map(fingerprint::campaign).collect());
            if refs.diversity.len() < self.workload.diversity_seeds {
                let reports = self.corpora(&results).into_iter().map(|sources| {
                    DiversityReport::measure(sources, self.workers, self.workload.pair_cap)
                });
                refs.diversity.push(reports.map(|r| fingerprint::diversity(&r)).collect());
            }
        }
        refs.persisted = match self.workload.transport {
            // The remote campaigns are the persisted ones.
            Transport::Remote => refs.suites.iter().map(|suite| suite[0]).collect(),
            Transport::InProcess => setup
                .persisted
                .iter()
                .map(|c| self.reference(c).map(|r| fingerprint::campaign(&r)))
                .collect::<Result<_, _>>()?,
        };
        if !setup.persisted_prints.is_empty() && setup.persisted_prints != refs.persisted {
            return Err("a persisted fixture run differs from its reference".into());
        }
        Ok(refs)
    }

    /// The sources of each corpus the diversity phase scores (every
    /// corpus approach is one of the campaign phase's approaches).
    fn corpora<'r>(&self, results: &'r [CampaignResult]) -> Vec<&'r [String]> {
        let corpus = |a: &ApproachKind| results.iter().find(|r| r.config.approach == *a);
        self.workload.corpora.iter().filter_map(corpus).map(|r| r.sources.as_slice()).collect()
    }

    /// The campaign phase for one campaign seed: every campaign, checked.
    fn campaign_phase(
        &self,
        setup: &Setup,
        index: usize,
        reference: &[u64],
        telemetry: TelemetrySpec,
        health: &mut Health,
    ) -> Option<(Duration, Vec<CampaignResult>)> {
        let configs = &setup.suites[index];
        let start = Instant::now();
        let runs: Result<Vec<OrchestratedResult>, OrchestratorError> = match self.workload.transport
        {
            Transport::InProcess => Scheduler::new(OrchestratorOptions {
                workers: self.workers,
                cache: true,
                epochs: EPOCHS,
                telemetry,
                ..OrchestratorOptions::default()
            })
            .shards(SHARDS)
            .run(configs),
            Transport::Remote => {
                let dir = &setup.run_dirs[index];
                let _ = std::fs::remove_dir_all(dir);
                Orchestrator::new(configs[0].clone())
                    .shards(SHARDS)
                    .epochs(EPOCHS)
                    .workers(self.workers)
                    .executor(Arc::new(self.remote_executor()))
                    .run_dir(dir)
                    .telemetry(telemetry)
                    .run()
                    .map(|run| vec![run])
            }
        };
        let elapsed = start.elapsed();
        let runs = match runs {
            Ok(runs) => runs,
            Err(e) => {
                log_error("campaign", e);
                configs.iter().for_each(|_| health.tally.record(false));
                return None;
            }
        };
        let mut ok = true;
        for (run, &reference) in runs.iter().zip(reference) {
            ok &= health.check_run(run, reference);
        }
        ok.then(|| (elapsed, runs.into_iter().map(|r| r.result).collect()))
    }

    /// Kill, resume and reload one persisted run dir.
    fn persistence_phases(
        &self,
        setup: &Setup,
        index: usize,
        reference: u64,
        health: &mut Health,
    ) -> Option<(f64, f64)> {
        let dir = &setup.run_dirs[index];
        if let Err(e) = kill_after_barrier_one(dir, SHARDS) {
            log_error("kill-after-barrier fixture", e);
            health.tally.record(false);
            health.tally.record(false);
            return None;
        }
        let start = Instant::now();
        let resumed = Orchestrator::resume(dir);
        let resume_s = start.elapsed().as_secs_f64();
        let resumed_ok = match &resumed {
            Ok(run) => {
                let restored =
                    run.stats.epochs_restored == 2 && run.stats.shards_computed == SHARDS;
                health.check_run(run, reference) && restored
            }
            Err(e) => {
                log_error("resume", e);
                health.tally.record(false);
                false
            }
        };
        let start = Instant::now();
        let reloaded = Orchestrator::resume(dir);
        let reload_s = start.elapsed().as_secs_f64();
        let reloaded_ok = match &reloaded {
            Ok(run) => {
                let reused = run.stats.shards_reused == SHARDS && run.stats.shards_computed == 0;
                health.check_run(run, reference) && reused
            }
            Err(e) => {
                log_error("reload", e);
                health.tally.record(false);
                false
            }
        };
        (resumed_ok && reloaded_ok).then_some((resume_s, reload_s))
    }

    /// The diversity phase for one campaign seed. With a ledger, the two
    /// halves of `DiversityReport::measure` are called, and timed,
    /// separately.
    fn diversity_phase(
        &self,
        results: &[CampaignResult],
        reference: &[u64],
        health: &mut Health,
        mut ledger: Option<&mut Ledger>,
    ) -> Option<(f64, Duration)> {
        let (threads, cap) = (self.workers, self.workload.pair_cap);
        let mut pairs = 0.0;
        let mut elapsed = Duration::ZERO;
        let mut ok = true;
        for (sources, &reference) in self.corpora(results).into_iter().zip(reference) {
            let start = Instant::now();
            let report = match ledger.as_deref_mut() {
                None => DiversityReport::measure(sources, threads, cap),
                Some(ledger) => {
                    let (avg_codebleu, pairs_scored) =
                        ledger.time(CODEBLEU, || average_pairwise_codebleu(sources, threads, cap));
                    let clones = ledger.time(CLONES, || detect_clones(sources));
                    DiversityReport { programs: sources.len(), pairs_scored, avg_codebleu, clones }
                }
            };
            elapsed += start.elapsed();
            pairs += report.pairs_scored as f64;
            let good = fingerprint::diversity(&report) == reference
                && report.pairs_scored == expected_pairs(sources.len(), cap);
            health.tally.record(good);
            ok &= good;
        }
        ok.then_some((pairs, elapsed))
    }

    /// One closed-loop round of all four phases. The persisted campaigns
    /// are resumed and reloaded in equal slices after each campaign seed,
    /// so those short operations sample the whole round rather than one
    /// stretch of it. `None` when any operation failed (the failures are
    /// in `health`).
    fn round(
        &self,
        setup: &Setup,
        refs: &References,
        telemetry: TelemetrySpec,
        health: &mut Health,
        mut ledger: Option<&mut Ledger>,
    ) -> Option<Round> {
        let start = Instant::now();
        let mut round = Round::default();
        let mut ok = true;
        let seeds = refs.suites.len();
        let slice = refs.persisted.len().div_ceil(seeds);
        for (index, reference) in refs.suites.iter().enumerate() {
            match self.campaign_phase(setup, index, reference, telemetry, health) {
                Some((elapsed, results)) => {
                    let programs: usize = results.iter().map(|r| r.records.len()).sum();
                    round.programs_per_s.push(programs as f64 / elapsed.as_secs_f64());
                    if let Some(reference) = refs.diversity.get(index) {
                        let scored = self.diversity_phase(
                            &results,
                            reference,
                            health,
                            ledger.as_deref_mut(),
                        );
                        match scored {
                            Some((pairs, elapsed)) => {
                                round.pairs += pairs;
                                round.diversity_s += elapsed.as_secs_f64();
                            }
                            None => ok = false,
                        }
                    }
                }
                None => ok = false,
            }
            let persisted =
                (index * slice..(index + 1) * slice).take_while(|&i| i < refs.persisted.len());
            for i in persisted {
                match self.persistence_phases(setup, i, refs.persisted[i], health) {
                    Some((resume_s, reload_s)) => {
                        round.resume_s.push(resume_s);
                        round.reload_s.push(reload_s);
                    }
                    None => ok = false,
                }
            }
        }
        round.wall_s = start.elapsed().as_secs_f64();
        ok.then_some(round)
    }

    /// Set up `SETUPS` times, keeping the last, and return it with the
    /// median set-up time and the references.
    fn prepare(&self) -> Result<(Setup, f64, References), String> {
        let mut times = Vec::with_capacity(SETUPS);
        let mut last = None;
        for _ in 0..SETUPS {
            let start = Instant::now();
            let setup = self.setup()?;
            times.push(start.elapsed().as_secs_f64());
            last = Some(setup);
        }
        let setup = last.expect("at least one set-up");
        let refs = self.references(&setup)?;
        Ok((setup, median(&times), refs))
    }

    /// The end-to-end run: tracing off, rounds until `seconds` elapse.
    pub fn run_end_to_end(&self, seconds: f64) -> Result<Report, String> {
        let (setup, setup_s, refs) = self.prepare()?;
        let mut health = Health::default();
        let mut rounds = Vec::new();
        let start = Instant::now();
        loop {
            if let Some(round) = self.round(&setup, &refs, TelemetrySpec::OFF, &mut health, None) {
                rounds.push(round);
            }
            if start.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        // One small LLM4FP campaign can cost several times another, so
        // campaign, resume and reload times are medians over every
        // campaign of the run; CodeBLEU cost varies little per corpus and
        // is a ratio of sums per round.
        let pooled = |f: fn(&Round) -> &Vec<f64>| {
            median(&rounds.iter().flat_map(|r| f(r).iter().copied()).collect::<Vec<_>>())
        };
        let diversity: Vec<f64> = rounds.iter().map(|r| r.pairs / r.diversity_s).collect();
        let metrics = vec![
            Metric::new("programs_per_s", "programs/s", pooled(|r| &r.programs_per_s)),
            Metric::new("setup_s", "s", setup_s),
            Metric::new("resume_s", "s", pooled(|r| &r.resume_s)),
            Metric::new("reload_s", "s", pooled(|r| &r.reload_s)),
            Metric::new("diversity_pairs_per_s", "pairs/s", median(&diversity)),
            Metric::new("peak_rss_mb", "MiB", peak_rss_mib()),
        ];
        Ok(Report { tally: health.tally, metrics })
    }

    /// The traced run: the per-layer ledger.
    pub fn run_traced(&self, seconds: f64) -> Result<Report, String> {
        let setup = self.setup()?;
        let refs = self.references(&setup)?;
        let mut health = Health::default();

        // Untraced and traced rounds alternate; the difference of their
        // median walls is the tracing overhead.
        let mut ledger = Ledger::default();
        let (mut plain, mut traced, mut traced_pairs) = (Vec::new(), Vec::new(), 0.0);
        let start = Instant::now();
        while plain.is_empty() || traced.is_empty() || start.elapsed().as_secs_f64() < seconds {
            let failed = health.tally.failed;
            if let Some(r) = self.round(&setup, &refs, TelemetrySpec::OFF, &mut health, None) {
                plain.push(r.wall_s);
            }
            let traced_round =
                self.round(&setup, &refs, TelemetrySpec::TRACE, &mut health, Some(&mut ledger));
            if let Some(r) = traced_round {
                traced.push(r.wall_s);
                traced_pairs += r.pairs;
            }
            if health.tally.failed > failed {
                break;
            }
        }
        let overhead = (median(&traced) - median(&plain)) / median(&plain);

        // The program replay covers whole campaign seeds, at least one
        // and as many as fit in 2,000 programs.
        let mut replayed = 0;
        let configs: Vec<CampaignConfig> = setup
            .suites
            .iter()
            .take_while(|suite| {
                let first = replayed == 0;
                replayed += suite.iter().map(|c| c.programs).sum::<usize>();
                first || replayed <= 2_000
            })
            .flatten()
            .cloned()
            .collect();
        let lockstep = run_lockstep(&configs);
        health.tally.record(lockstep.mismatches == 0);

        let executor: Box<dyn ShardExecutor> = match self.workload.transport {
            Transport::InProcess => Box::new(InProcessExecutor::new(self.workers)),
            Transport::Remote => Box::new(self.remote_executor()),
        };
        let session = drive_session(&setup.suites[0], SHARDS, EPOCHS, executor.as_ref(), true)
            .map_err(|e| format!("driven session: {e}"))?;
        let session_ok = session.quarantined == 0
            && session.results.iter().map(fingerprint::campaign).eq(refs.suites[0].iter().copied());
        health.tally.record(session_ok);
        health.quarantined += session.quarantined;

        let mut framed = FrameOutcome::new(EPOCHS);
        for (config, &reference) in setup.persisted.iter().zip(&refs.persisted) {
            let root = self.scratch.fresh("ledger-run-dir");
            let result = replay_frames(config, SHARDS, EPOCHS, &root, &mut framed)
                .map_err(|e| format!("frame and run-dir replay: {e}"))?;
            health.tally.record(fingerprint::campaign(&result) == reference);
        }
        health.tally.record(framed.mismatches == 0);

        let handshake = spawn_handshake(&self.remote_executor(), &setup.persisted[0])
            .map_err(|e| format!("worker spawn and handshake: {e}"))?;

        let mut metrics = lockstep_metrics(&lockstep);
        metrics.extend(session_metrics(&session));
        metrics.extend(frame_metrics(&framed));
        metrics.extend([
            Metric::new("remote.spawn_handshake_ms", "ms", handshake.as_secs_f64() * 1e3),
            Metric::new("remote.quarantined_shards", "count", health.quarantined as f64),
            Metric::new("remote.fallbacks", "count", health.fallbacks as f64),
            Metric::new(
                "metrics.codebleu_us_per_pair",
                "us",
                ledger.us_per(CODEBLEU, traced_pairs),
            ),
            Metric::new(
                "metrics.clones_ms",
                "ms",
                ledger.ms_per(CLONES, ledger.count(CLONES) as f64),
            ),
            Metric::new("telemetry.trace_overhead_frac", "ratio", overhead),
        ]);
        Ok(Report { tally: health.tally, metrics })
    }
}

/// The number of ordered pairs `average_pairwise_codebleu` scores for a
/// corpus of `n` programs under `cap`: all of them when they fit,
/// otherwise every `stride`-th.
pub fn expected_pairs(n: usize, cap: usize) -> usize {
    let all = n * n.saturating_sub(1);
    if all <= cap.max(1) {
        all
    } else {
        all.div_ceil(all.div_ceil(cap))
    }
}

fn lockstep_metrics(out: &replay::LockstepOutcome) -> Vec<Metric> {
    let l = &out.ledger;
    let p = out.programs as f64;
    let us = |name: &str| l.total(name).as_secs_f64() * 1e6;
    let run_one_us = us(replay::RUN_ONE);
    let compare_us = us(replay::DIFF_RUN) - out.seal_us - out.execute_us + us(replay::BASELINE);
    let attributed: f64 = [
        replay::GENERATOR,
        replay::PARSE,
        replay::PRINT,
        replay::CACHE,
        replay::INPUTS,
        replay::DIFF_RUN,
        replay::BASELINE,
        replay::AGGREGATE,
    ]
    .iter()
    .map(|name| us(name))
    .sum();
    let lookups = out.cache_lookups as f64;
    vec![
        Metric::new("generator.us_per_program", "us", us(replay::GENERATOR) / p),
        Metric::new("generator.valid_ratio", "ratio", out.valid as f64 / p),
        Metric::new("fpir.parse_us_per_program", "us", us(replay::PARSE) / p),
        Metric::new("fpir.print_us_per_program", "us", us(replay::PRINT) / p),
        Metric::new("inputs.us_per_program", "us", us(replay::INPUTS) / p),
        Metric::new("compiler.seal_us_per_program", "us", out.seal_us / p),
        Metric::new("compiler.seal_refusals", "count", out.seal_refusals as f64),
        Metric::new("vm.execute_us_per_program", "us", out.execute_us / p),
        Metric::new("difftest.compare_us_per_program", "us", compare_us / p),
        Metric::new("difftest.aggregate_us_per_program", "us", us(replay::AGGREGATE) / p),
        Metric::new("cache.hit_ratio", "ratio", out.cache_hits as f64 / lookups.max(1.0)),
        Metric::new("cache.lookup_us", "us", us(replay::CACHE) / lookups.max(1.0)),
        Metric::new("campaign.us_per_program", "us", run_one_us / p),
        Metric::new("campaign.unattributed_frac", "ratio", (run_one_us - attributed) / run_one_us),
    ]
}

fn session_metrics(session: &protocol::SessionOutcome) -> Vec<Metric> {
    let l = &session.ledger;
    let mean_ms = |name: &str| l.ms_per(name, l.count(name) as f64);
    vec![
        Metric::new("orchestrator.barrier_ms_per_epoch", "ms", mean_ms(protocol::BARRIER)),
        Metric::new("orchestrator.queue_wait_ms", "ms", session.queue_wait_ms),
        Metric::new("orchestrator.merge_ms", "ms", mean_ms(protocol::MERGE)),
    ]
}

fn frame_metrics(f: &FrameOutcome) -> Vec<Metric> {
    let jobs = f.jobs as f64;
    let jobs_per_epoch = jobs / EPOCHS as f64;
    let shard_checkpoints = (f.campaigns * SHARDS as u64) as f64;
    let mut metrics = vec![
        Metric::new("wire.encode_ms_per_job", "ms", f.ledger.ms_per(frames::ENCODE, jobs)),
        Metric::new("wire.decode_ms_per_job", "ms", f.ledger.ms_per(frames::DECODE, jobs)),
    ];
    for (epoch, bytes) in f.frame_bytes.iter().enumerate() {
        metrics.push(Metric::new(
            format!("wire.bytes_per_job.epoch{epoch}"),
            "bytes",
            *bytes as f64 / jobs_per_epoch,
        ));
    }
    for epoch in [0, EPOCHS - 1] {
        metrics.push(Metric::new(
            format!("wire.decode_ns_per_byte.epoch{epoch}"),
            "ns/B",
            f.decode_by_epoch[epoch].as_secs_f64() * 1e9 / f.frame_bytes[epoch].max(1) as f64,
        ));
    }
    metrics.push(Metric::new(
        "persist.write_ms",
        "ms",
        f.ledger.ms_per(frames::WRITE, f.campaigns as f64),
    ));
    metrics.push(Metric::new(
        "persist.run_dir_bytes_per_program",
        "bytes",
        f.run_dir_bytes as f64 / f.programs.max(1) as f64,
    ));
    for (barrier, bytes) in f.checkpoint_bytes.iter().enumerate() {
        metrics.push(Metric::new(
            format!("persist.checkpoint_bytes.epoch{barrier}"),
            "bytes",
            *bytes as f64 / shard_checkpoints,
        ));
    }
    let load = f.ledger.total(frames::LOAD_CHECKPOINT) + f.ledger.total(frames::LOAD_SHARD);
    metrics.extend([
        Metric::new(
            "persist.load_checkpoint_ms",
            "ms",
            f.ledger.ms_per(frames::LOAD_CHECKPOINT, f.checkpoint_loads as f64),
        ),
        Metric::new(
            "persist.load_shard_ms",
            "ms",
            f.ledger.ms_per(frames::LOAD_SHARD, f.shard_loads as f64),
        ),
        Metric::new(
            "persist.load_ns_per_byte",
            "ns/B",
            load.as_secs_f64() * 1e9 / f.loaded_bytes.max(1) as f64,
        ),
    ]);
    metrics
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expected_pairs_follow_the_stride_rule() {
        assert_eq!(expected_pairs(3, usize::MAX), 6);
        assert_eq!(expected_pairs(1, 10), 0);
        for (n, cap) in [(100, 500), (2_000, PAPER_PAIR_CAP), (40, 100), (37, 1_000)] {
            let all = n * (n - 1);
            let stride = if all <= cap { 1 } else { all.div_ceil(cap) };
            assert_eq!(expected_pairs(n, cap), (0..all).step_by(stride).count());
        }
    }

    #[test]
    fn campaign_seeds_start_at_the_run_seed_and_differ() {
        assert_eq!(campaign_seed(42, 0), 42);
        let seeds: std::collections::HashSet<u64> = (0..24).map(|i| campaign_seed(42, i)).collect();
        assert_eq!(seeds.len(), 24);
    }

    #[test]
    fn workload_names_are_unique_and_found() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
            assert!(w.corpora.iter().all(|a| w.approaches.contains(a)));
            assert!(w.diversity_seeds >= 1 && w.diversity_seeds <= w.campaign_seeds);
            if w.transport == Transport::Remote {
                assert_eq!((w.persisted, PERSISTED_PROGRAMS), (w.campaign_seeds, w.programs));
            }
        }
        assert!(find("nope").is_none());
    }
}
