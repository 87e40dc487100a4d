//! The orchestrator layer, timed from outside.
//!
//! [`drive_session`] runs a set of campaigns through a `ShardExecutor`
//! session with the same barrier protocol `Scheduler::run` uses —
//! `run_epoch` per epoch, merge-and-`inject` at each barrier, `finish`,
//! then `merge_shards` per campaign — and times the barriers and the
//! merges in its own spans. Queue wait comes from the executor's own
//! `pool.queue_wait` histogram on the telemetry lanes handed to it.

use std::sync::Arc;
use std::time::{Duration, Instant};

use llm4fp::{CampaignConfig, CampaignResult, SuccessfulSet};
use llm4fp_difftest::ResultCache;
use llm4fp_orchestrator::{
    merge_shards, plan_epoch_segments, plan_shards, NullSink, OrchestratorError, ShardExecutor,
    ShardOutput, ShardTask,
};
use llm4fp_telemetry::{keys, TelemetryHub, TelemetrySpec};

use crate::ledger::Ledger;

pub const BARRIER: &str = "orchestrator.barrier";
pub const MERGE: &str = "orchestrator.merge";

/// What one driven session produced and measured.
#[derive(Debug)]
pub struct SessionOutcome {
    /// Merged results, one per campaign, in input order.
    pub results: Vec<CampaignResult>,
    pub ledger: Ledger,
    /// Mean time a shard job waited for a worker, in milliseconds.
    pub queue_wait_ms: f64,
    /// Shards the executor quarantined instead of finishing.
    pub quarantined: u64,
}

/// Run `configs` as one suite of `shards` shards and `epochs` epochs on
/// `executor`, with one shared result cache when `cache` is set and the
/// executor consults it.
pub fn drive_session(
    configs: &[CampaignConfig],
    shards: usize,
    epochs: usize,
    executor: &dyn ShardExecutor,
    cache: bool,
) -> Result<SessionOutcome, OrchestratorError> {
    let mut ledger = Ledger::default();
    let shared = (cache && executor.shares_cache()).then(|| Arc::new(ResultCache::new()));
    let hubs: Vec<TelemetryHub> =
        configs.iter().map(|_| TelemetryHub::new(TelemetrySpec::METRICS)).collect();
    let plans: Vec<_> = configs.iter().map(|config| plan_shards(config, shards)).collect();
    let owners: Vec<usize> =
        plans.iter().enumerate().flat_map(|(c, plan)| plan.iter().map(move |_| c)).collect();
    let tasks: Vec<ShardTask> = plans
        .iter()
        .enumerate()
        .flat_map(|(c, plan)| {
            let (config, hub, cache) = (&configs[c], &hubs[c], &shared);
            plan.iter().map(move |spec| ShardTask {
                config: config.clone(),
                spec: *spec,
                cache: cache.clone(),
                budget: None,
                process_slots: 1,
                telemetry: hub.lane(spec.index),
                checkpoint: None,
            })
        })
        .collect();
    let segments: Vec<Vec<usize>> =
        tasks.iter().map(|task| plan_epoch_segments(task.spec.budget, epochs)).collect();
    let mut pools: Vec<SuccessfulSet> = configs.iter().map(|_| SuccessfulSet::new()).collect();

    let sink = NullSink;
    let mut session = executor.begin(tasks, &sink)?;
    for epoch in 0..epochs {
        let last = epoch + 1 == epochs;
        let plan: Vec<usize> = segments.iter().map(|s| s[epoch]).collect();
        let deltas = session.run_epoch(&plan, last)?;
        if last {
            break;
        }
        let start = Instant::now();
        for (owner, delta) in owners.iter().zip(&deltas) {
            pools[*owner].merge_sources(delta);
        }
        let broadcast: Vec<&[String]> = owners.iter().map(|&c| pools[c].sources()).collect();
        session.inject(&broadcast)?;
        ledger.add(BARRIER, start.elapsed());
    }
    let outcome = session.finish()?;

    let mut grouped: Vec<Vec<ShardOutput>> = configs.iter().map(|_| Vec::new()).collect();
    let mut quarantined = 0;
    for (owner, shard) in owners.iter().zip(outcome.shards) {
        match shard {
            Ok(output) => grouped[*owner].push(output),
            Err(_) => quarantined += 1,
        }
    }
    let results = configs
        .iter()
        .zip(grouped)
        .map(|(config, outputs)| {
            ledger.time(MERGE, || merge_shards(config, outputs, Duration::ZERO))
        })
        .collect();
    let (waited, jobs) = hubs
        .iter()
        .filter_map(|hub| hub.histogram(keys::QUEUE_WAIT))
        .fold((Duration::ZERO, 0), |(sum, n), h| (sum + h.sum(), n + h.count));
    Ok(SessionOutcome {
        results,
        ledger,
        queue_wait_ms: waited.as_secs_f64() * 1e3 / jobs.max(1) as f64,
        quarantined,
    })
}

/// Wall time from `begin` to the answer of a one-program, one-shard job:
/// for an out-of-process executor, worker spawn, connection and handshake
/// plus one tiny round trip. Teardown is not timed.
pub fn spawn_handshake(
    executor: &dyn ShardExecutor,
    config: &CampaignConfig,
) -> Result<Duration, OrchestratorError> {
    let mut config = config.clone();
    config.programs = 1;
    let task = ShardTask {
        spec: plan_shards(&config, 1)[0],
        config,
        cache: None,
        budget: None,
        process_slots: 1,
        telemetry: llm4fp_telemetry::Telemetry::disabled(),
        checkpoint: None,
    };
    let sink = NullSink;
    let start = Instant::now();
    let mut session = executor.begin(vec![task], &sink)?;
    session.run_epoch(&[1], true)?;
    let elapsed = start.elapsed();
    session.finish()?;
    Ok(elapsed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm4fp::ApproachKind;
    use llm4fp_orchestrator::{InProcessExecutor, Orchestrator};

    #[test]
    fn the_driven_session_matches_the_orchestrator() {
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(20).with_seed(9).with_threads(1);
        let driven =
            drive_session(std::slice::from_ref(&config), 4, 4, &InProcessExecutor::new(2), true)
                .unwrap();
        let reference =
            Orchestrator::new(config).shards(4).epochs(4).workers(1).cache(false).run().unwrap();
        assert_eq!(
            crate::fingerprint::campaign(&driven.results[0]),
            crate::fingerprint::campaign(&reference.result)
        );
        assert_eq!(driven.ledger.count(BARRIER), 3);
        assert_eq!(driven.ledger.count(MERGE), 1);
        assert_eq!(driven.quarantined, 0);
    }
}
