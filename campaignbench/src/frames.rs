//! The wire codec and run-dir persistence, timed from outside.
//!
//! [`replay_frames`] runs one campaign's shards segment by segment with
//! `ShardRunner`, builds at every epoch the `ShardJob` a coordinator
//! sends and the `ShardJobResult` a worker answers, and pushes both
//! through `wire::{write_frame, read_frame}`. Alongside it persists the
//! campaign with the `RunDir` API exactly as an orchestrated run lays it
//! out (shard JSONL streams, barrier pools, post-injection checkpoints,
//! merged result), then loads every checkpoint and shard back.
//!
//! Wall-clock fields (`pipeline_time`) are zeroed before encoding and
//! before writing, and `summary.json` (which holds wall times) is not
//! written, so every byte count here is a pure function of the campaign
//! and repeats exactly from run to run.

use std::path::Path;
use std::time::{Duration, Instant};

use llm4fp::{CampaignConfig, CampaignResult, RunnerCheckpoint, SuccessfulSet};
use llm4fp_orchestrator::wire::{
    read_frame, write_frame, ShardJob, ShardJobResult, WireReply, WireRequest,
};
use llm4fp_orchestrator::{
    merge_shards, plan_epoch_segments, plan_shards, PersistError, RunDir, RunManifest, ShardOutput,
    ShardRunner,
};
use llm4fp_telemetry::Telemetry;

use crate::fixture::{dir_bytes, file_bytes};
use crate::ledger::Ledger;

pub const ENCODE: &str = "wire.encode";
pub const DECODE: &str = "wire.decode";
pub const WRITE: &str = "persist.write";
pub const LOAD_CHECKPOINT: &str = "persist.load_checkpoint";
pub const LOAD_SHARD: &str = "persist.load_shard";

/// Byte counts and codec times of the frame and run-dir replays of one
/// or more campaigns.
#[derive(Debug, Clone, Default)]
pub struct FrameOutcome {
    pub ledger: Ledger,
    /// Campaigns replayed and their programs.
    pub campaigns: u64,
    pub programs: u64,
    /// Shard jobs dispatched (shards × epochs per campaign).
    pub jobs: u64,
    /// Job plus result frame bytes, summed per epoch over all shards.
    pub frame_bytes: Vec<u64>,
    /// Decode time per epoch (both frames of every job).
    pub decode_by_epoch: Vec<Duration>,
    /// Checkpoint file bytes, summed per barrier over all shards.
    pub checkpoint_bytes: Vec<u64>,
    /// Bytes of the whole run directory.
    pub run_dir_bytes: u64,
    /// Bytes read back by the checkpoint and shard loads.
    pub loaded_bytes: u64,
    /// Checkpoint and shard files loaded back.
    pub checkpoint_loads: u64,
    pub shard_loads: u64,
    /// Decoded frames that differed from what was encoded, and loads
    /// that failed.
    pub mismatches: u64,
}

impl FrameOutcome {
    /// An empty outcome for campaigns of `epochs` epochs.
    pub fn new(epochs: usize) -> Self {
        FrameOutcome {
            frame_bytes: vec![0; epochs],
            decode_by_epoch: vec![Duration::ZERO; epochs],
            checkpoint_bytes: vec![0; epochs.saturating_sub(1)],
            ..FrameOutcome::default()
        }
    }
}

fn zero_checkpoint(mut checkpoint: RunnerCheckpoint) -> RunnerCheckpoint {
    checkpoint.pipeline_time = Duration::ZERO;
    checkpoint
}

fn zero_output(mut output: ShardOutput) -> ShardOutput {
    output.pipeline_time = Duration::ZERO;
    output
}

/// Encode `frame` and decode it back, timing both; count a mismatch if
/// the decoded frame differs. Returns the frame's length in bytes.
fn round_trip<T>(frame: &T, epoch: usize, out: &mut FrameOutcome) -> u64
where
    T: serde::Serialize + serde::de::DeserializeOwned + PartialEq,
{
    let mut bytes = Vec::new();
    let encoded = out.ledger.time(ENCODE, || write_frame(&mut bytes, frame));
    let start = Instant::now();
    let decoded: std::io::Result<T> = read_frame(&mut bytes.as_slice());
    let elapsed = start.elapsed();
    out.ledger.add(DECODE, elapsed);
    out.decode_by_epoch[epoch] += elapsed;
    if encoded.is_err() || decoded.ok().as_ref() != Some(frame) {
        out.mismatches += 1;
    }
    bytes.len() as u64
}

/// Replay `config` as `shards` shards over `epochs` epochs, persisting
/// into a fresh run directory at `root`, and add what it measured to
/// `out` (made by [`FrameOutcome::new`] with the same `epochs`). Returns
/// the merged result, for the correctness gate.
pub fn replay_frames(
    config: &CampaignConfig,
    shards: usize,
    epochs: usize,
    root: &Path,
    out: &mut FrameOutcome,
) -> Result<CampaignResult, PersistError> {
    let specs = plan_shards(config, shards);
    let manifest = RunManifest::new(config.clone(), specs.len(), epochs);
    let dir = out.ledger.time(WRITE, || RunDir::open(root, &manifest))?;
    let mut writers = Vec::with_capacity(specs.len());
    for spec in &specs {
        writers.push(out.ledger.time(WRITE, || dir.shard_writer(spec, Telemetry::disabled()))?);
    }
    let per_shard: Vec<Vec<usize>> =
        specs.iter().map(|spec| plan_epoch_segments(spec.budget, epochs)).collect();
    // plans[epoch][shard]: the programs each shard runs in each epoch.
    let plans: Vec<Vec<usize>> =
        (0..epochs).map(|epoch| per_shard.iter().map(|s| s[epoch]).collect()).collect();
    let mut runners: Vec<ShardRunner> =
        specs.iter().map(|spec| ShardRunner::new(config, *spec, None)).collect();
    let mut handed: Vec<Option<RunnerCheckpoint>> = vec![None; specs.len()];
    let mut pool = SuccessfulSet::new();
    let mut deltas: Vec<Vec<String>> = Vec::new();

    for (epoch, plan) in plans.iter().enumerate() {
        let last = epoch + 1 == epochs;
        deltas.clear();
        for (i, runner) in runners.iter_mut().enumerate() {
            let job = WireRequest::Job(Box::new(ShardJob {
                config: config.clone(),
                spec: specs[i],
                segment: plan[i],
                finish: last,
                checkpoint: handed[i].take(),
                process_slots: 1,
                telemetry: false,
                lease: 1,
            }));
            out.frame_bytes[epoch] += round_trip(&job, epoch, out);
            let mut records = Vec::new();
            deltas.push(runner.run_segment(plan[i], |r| records.push(r.clone())));
            out.ledger.time(WRITE, || records.iter().for_each(|r| writers[i].record(r)));
        }
        if last {
            break;
        }
        for (i, runner) in runners.iter().enumerate() {
            let answer = WireReply::Result(Box::new(ShardJobResult {
                index: specs[i].index,
                delta: deltas[i].clone(),
                checkpoint: Some(zero_checkpoint(runner.checkpoint())),
                output: None,
                telemetry: None,
                lease: 1,
            }));
            out.frame_bytes[epoch] += round_trip(&answer, epoch, out);
        }
        for delta in &deltas {
            pool.merge_sources(delta);
        }
        for (i, runner) in runners.iter_mut().enumerate() {
            runner.inject(pool.sources());
            let checkpoint = zero_checkpoint(runner.checkpoint());
            out.ledger.time(WRITE, || dir.write_checkpoint(i, epoch, &checkpoint))?;
            handed[i] = Some(checkpoint);
        }
        out.ledger.time(WRITE, || dir.write_epoch_pool(epoch, pool.sources()))?;
    }
    out.jobs += (specs.len() * epochs) as u64;
    out.campaigns += 1;
    out.programs += config.programs as u64;

    let mut outputs = Vec::with_capacity(specs.len());
    for (i, (runner, writer)) in runners.into_iter().zip(writers).enumerate() {
        let output = zero_output(runner.finish());
        let answer = WireReply::Result(Box::new(ShardJobResult {
            index: specs[i].index,
            delta: deltas[i].clone(),
            checkpoint: None,
            output: Some(output.clone()),
            telemetry: None,
            lease: 1,
        }));
        out.frame_bytes[epochs - 1] += round_trip(&answer, epochs - 1, out);
        out.ledger.time(WRITE, || writer.finish(&output))?;
        outputs.push(output);
    }
    let result = merge_shards(config, outputs, Duration::ZERO);
    out.ledger.time(WRITE, || dir.write_result(&result))?;
    out.run_dir_bytes += dir_bytes(root);

    for barrier in 0..epochs.saturating_sub(1) {
        for shard in 0..specs.len() {
            let path =
                root.join("checkpoints").join(format!("shard-{shard:04}-epoch-{barrier:04}.json"));
            let bytes = file_bytes(&path);
            out.checkpoint_bytes[barrier] += bytes;
            out.loaded_bytes += bytes;
            if out.ledger.time(LOAD_CHECKPOINT, || dir.load_checkpoint(shard, barrier)).is_none() {
                out.mismatches += 1;
            }
            out.checkpoint_loads += 1;
        }
    }
    for spec in &specs {
        out.loaded_bytes +=
            file_bytes(&root.join("shards").join(format!("shard-{:04}.jsonl", spec.index)));
        if out.ledger.time(LOAD_SHARD, || dir.load_shard(spec)).is_none() {
            out.mismatches += 1;
        }
        out.shard_loads += 1;
    }
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use llm4fp::ApproachKind;

    /// The byte counts are exact-count probes: the same campaign must
    /// give the same counts on every replay.
    #[test]
    fn byte_counts_repeat_exactly() {
        let root =
            std::env::temp_dir().join(format!("campaignbench-frames-{}", std::process::id()));
        let config =
            CampaignConfig::new(ApproachKind::Llm4Fp).with_budget(24).with_seed(4).with_threads(1);
        let mut runs = Vec::new();
        for _ in 0..2 {
            let _ = std::fs::remove_dir_all(&root);
            let mut out = FrameOutcome::new(4);
            let result = replay_frames(&config, 4, 4, &root, &mut out).unwrap();
            assert_eq!(out.mismatches, 0);
            assert_eq!((out.jobs, out.checkpoint_loads, out.shard_loads), (16, 12, 4));
            assert!(out.frame_bytes.iter().all(|&b| b > 0));
            runs.push((out.frame_bytes, out.checkpoint_bytes, out.run_dir_bytes, out.loaded_bytes));
            assert_eq!(result.records.len(), 24);
        }
        let _ = std::fs::remove_dir_all(&root);
        assert_eq!(runs[0], runs[1]);
    }
}
