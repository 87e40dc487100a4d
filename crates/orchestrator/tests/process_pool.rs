//! The worker processes a [`RemoteWorkerExecutor`] session spawns and
//! supervises itself, exercised against real `llm4fp-worker --connect`
//! daemons: a run on the self-spawned pool is bit-identical to the
//! in-process run — including when asked for more processes than there
//! are shards, and when slot 0's first worker crashes, stalls past its
//! lease, answers with a sabotaged frame, or is followed by failed
//! respawns. Every fault case runs at one worker process as well as two:
//! with a single worker there is no healthy sibling to take over, so the
//! run finishes only if the coordinator replaces its own worker —
//! respawning the dead one, killing the silent one first. Poisonous
//! shards abort or are quarantined per policy, an unspawnable pool
//! degrades to in-process execution, and the merged `metrics.json` is
//! byte-identical to the in-process run's, respawns and all.

use std::net::TcpListener;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

use llm4fp::{ApproachKind, CampaignConfig, CampaignResult};
use llm4fp_orchestrator::remote::WORKER_BIN_ENV;
use llm4fp_orchestrator::wire::{read_frame, write_frame, WireReply, WireRequest};
use llm4fp_orchestrator::{
    FailurePolicy, FaultPlan, Hello, OrchestratedResult, Orchestrator, OrchestratorError,
    OrchestratorOptions, RemoteWorkerExecutor, Scheduler, WorkerFault, PROTOCOL_VERSION,
};
use llm4fp_telemetry::TelemetrySpec;

/// Cargo builds the worker daemon alongside the test binary and hands us
/// its path; `with_worker_bin` skips the sibling-binary search.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_llm4fp-worker"))
}

fn pool(worker_procs: usize) -> RemoteWorkerExecutor {
    RemoteWorkerExecutor::new(worker_procs).with_worker_bin(worker_bin())
}

fn config(approach: ApproachKind, budget: usize, seed: u64) -> CampaignConfig {
    CampaignConfig::new(approach).with_budget(budget).with_seed(seed).with_threads(1)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("pp-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn in_process(config: &CampaignConfig, shards: usize, epochs: usize) -> OrchestratedResult {
    Orchestrator::new(config.clone()).shards(shards).epochs(epochs).run().unwrap()
}

fn on_pool(
    config: &CampaignConfig,
    shards: usize,
    epochs: usize,
    executor: RemoteWorkerExecutor,
) -> OrchestratedResult {
    Orchestrator::new(config.clone())
        .shards(shards)
        .epochs(epochs)
        .executor(Arc::new(executor))
        .run()
        .unwrap()
}

/// Transport equivalence compares everything deterministic. (`RunStats`
/// wall-clock fields and `peak_regs` are runtime artifacts, not part of
/// the contract.)
fn assert_results_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.records, b.records, "{what}: records differ");
    assert_eq!(a.sources, b.sources, "{what}: sources differ");
    assert_eq!(a.successful_sources, b.successful_sources, "{what}: successful sets differ");
    assert_eq!(a.aggregates, b.aggregates, "{what}: aggregates differ");
    assert_eq!(a.generation_failures, b.generation_failures, "{what}: failures differ");
    assert_eq!(a.llm_calls, b.llm_calls, "{what}: llm calls differ");
    assert_eq!(a.simulated_llm_time, b.simulated_llm_time, "{what}: llm time differs");
}

/// A plan faulting only worker slot 0's first spawn — the redispatch-
/// equivalence shape: the fault fires once and recovery heals it.
fn first_worker_plan(fault: WorkerFault) -> FaultPlan {
    FaultPlan { first_worker: vec![fault], ..FaultPlan::default() }
}

/// Run `plan` on a pool of one and of two worker processes and assert
/// each run heals to the in-process reference, with no shard lost.
fn assert_heals_at_one_and_two_workers(
    config: &CampaignConfig,
    shards: usize,
    epochs: usize,
    plan: &FaultPlan,
    lease: Option<Duration>,
    what: &str,
) {
    let reference = in_process(config, shards, epochs);
    for worker_procs in [1usize, 2] {
        let what = format!("{what} E={epochs} procs={worker_procs}");
        let mut chaotic = pool(worker_procs).with_fault_plan(plan.clone());
        if let Some(lease) = lease {
            chaotic = chaotic.with_lease_timeout(lease);
        }
        let survived = on_pool(config, shards, epochs, chaotic);
        assert_results_identical(&survived.result, &reference.result, &what);
        assert!(survived.stats.failures.is_empty(), "{what}: healed, not quarantined");
    }
}

#[test]
fn process_pool_matches_in_process_bit_for_bit() {
    // Asking for more worker processes than the session has shards
    // spawns one per shard; the surplus never changes a bit.
    let config = config(ApproachKind::Llm4Fp, 18, 7);
    for (shards, epochs) in [(2usize, 1usize), (3, 3)] {
        let reference = in_process(&config, shards, epochs);
        let pooled = on_pool(&config, shards, epochs, pool(8));
        let what = format!("K={shards} E={epochs} procs=8");
        assert_results_identical(&pooled.result, &reference.result, &what);
        assert_eq!(pooled.stats.shards, reference.stats.shards, "{what}");
        assert_eq!(pooled.stats.epochs, epochs, "{what}");
        assert!(pooled.stats.failures.is_empty(), "{what}");
    }
}

#[test]
fn process_pool_k1_matches_the_sequential_campaign() {
    // One shard on a pool asked for four processes (clamped to one),
    // across exchange epochs: still the sequential campaign, field for
    // field.
    let config = config(ApproachKind::Varity, 12, 19);
    let sequential = llm4fp::Campaign::new(config.clone()).run();
    let pooled = on_pool(&config, 1, 3, pool(4));
    assert_results_identical(&pooled.result, &sequential, "process pool K=1 E=3");
}

#[test]
fn metrics_json_is_byte_identical_across_transports() {
    // The telemetry counters the worker daemons ship home must merge into
    // the exact bytes the in-process transport writes — also when slot
    // 0's first worker crashed mid-run and a respawned one replayed its
    // job. metrics.json is the determinism witness the CI chaos legs
    // `cmp` against the fault-free reference.
    let config = config(ApproachKind::Llm4Fp, 18, 9);
    let crash = first_worker_plan(WorkerFault::CrashAtJob(1));
    let mut reference: Option<String> = None;
    let executors: [Option<RemoteWorkerExecutor>; 3] =
        [None, Some(pool(2)), Some(pool(1).with_fault_plan(crash))];
    for (tag, executor) in ["in-process", "pool", "pool-crash"].into_iter().zip(executors) {
        let root = temp_dir(&format!("metrics-{tag}"));
        let mut builder = Orchestrator::new(config.clone())
            .shards(3)
            .epochs(2)
            .run_dir(root.clone())
            .telemetry(TelemetrySpec::METRICS);
        if let Some(executor) = executor {
            builder = builder.executor(Arc::new(executor));
        }
        let orchestrated = builder.run().unwrap();
        assert_eq!(orchestrated.stats.shards_computed, 3, "{tag}");
        let bytes = std::fs::read_to_string(root.join("metrics.json"))
            .expect("metrics.json written for a fully computed run");
        match &reference {
            None => reference = Some(bytes),
            Some(expected) => {
                assert_eq!(&bytes, expected, "{tag}: metrics.json must not depend on the transport")
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn worker_crash_redispatches_and_stays_bit_identical() {
    // Worker slot 0's first daemon dies with exit(101) upon receiving
    // its first job, before answering. The coordinator must notice the
    // exit, respawn a clean daemon, and replay the job — with no trace
    // in the results.
    let config = config(ApproachKind::Llm4Fp, 20, 5);
    let plan = first_worker_plan(WorkerFault::CrashAtJob(1));
    for epochs in [1usize, 2] {
        assert_heals_at_one_and_two_workers(&config, 4, epochs, &plan, None, "crash");
    }
}

#[test]
fn stalled_worker_is_killed_and_its_job_redispatched() {
    // Worker slot 0's first daemon stalls far past its lease on every
    // job it receives. The coordinator must give up on it, kill its
    // process group, and redispatch to a clean respawn — again with
    // bit-identical results.
    let config = config(ApproachKind::Varity, 12, 3);
    let plan = first_worker_plan(WorkerFault::StallMs(60_000));
    let lease = Some(Duration::from_millis(500));
    assert_heals_at_one_and_two_workers(&config, 3, 1, &plan, lease, "stall");
}

#[test]
fn sabotaged_answer_frames_redispatch_and_stay_bit_identical() {
    // A worker that answers with garbage (or a truncated frame) is as
    // dead as one that crashed: the coordinator must treat the malformed
    // answer as a dispatch failure and replay the job elsewhere.
    let config = config(ApproachKind::Llm4Fp, 16, 21);
    for fault in [WorkerFault::CorruptFrameAtJob(1), WorkerFault::TruncateFrameAtJob(1)] {
        let what = format!("{fault:?}");
        assert_heals_at_one_and_two_workers(&config, 3, 1, &first_worker_plan(fault), None, &what);
    }
}

#[test]
fn injected_respawn_failures_back_off_and_recover() {
    // Chaos shape: slot 0's first daemon crashes AND the coordinator's
    // next spawn attempts are themselves made to fail (as if fork/exec
    // died). Each failed spawn waits out the deterministic backoff
    // without costing the job a dispatch attempt, and the next respawn
    // succeeds — results stay bit-identical with the default budget of 3.
    let config = config(ApproachKind::Varity, 12, 17);
    let plan = FaultPlan {
        first_worker: vec![WorkerFault::CrashAtJob(1)],
        respawn_failures: 3,
        ..FaultPlan::default()
    };
    assert_heals_at_one_and_two_workers(&config, 3, 1, &plan, None, "respawn failure recovery");
}

/// `every_worker` poison survives respawns: every daemon that receives
/// shard 1 crashes, so its job exhausts the dispatch budget.
fn poisoned() -> RemoteWorkerExecutor {
    pool(2).with_fault_plan(FaultPlan {
        every_worker: vec![WorkerFault::CrashOnShard(1)],
        ..FaultPlan::default()
    })
}

#[test]
fn poisonous_shard_aborts_the_run_under_the_default_policy() {
    // The default Abort policy must fail the whole run with a typed
    // error naming the job.
    let config = config(ApproachKind::Varity, 12, 23);
    let err = Orchestrator::new(config)
        .shards(3)
        .executor(Arc::new(poisoned()))
        .run()
        .expect_err("a shard that can never complete must abort the run");
    assert!(matches!(err, OrchestratorError::Executor(_)), "got {err}");
    assert!(err.to_string().contains("failed 3 time(s)"), "{err}");
}

#[test]
fn quarantine_policy_completes_the_surviving_shards() {
    // Same poison, opposite policy: the campaign completes on shards 0
    // and 2, and the casualty is reported — shard index, attempt count,
    // and the last error — instead of sinking the run.
    let config = config(ApproachKind::Varity, 12, 23);
    let survived = Orchestrator::new(config.clone())
        .shards(3)
        .executor(Arc::new(poisoned().on_shard_failure(FailurePolicy::Quarantine)))
        .run()
        .expect("quarantine completes the run");
    assert_eq!(survived.stats.failures.len(), 1, "exactly one shard was lost");
    let report = &survived.stats.failures[0];
    assert_eq!(report.shard, 1);
    assert_eq!(report.attempts, 3, "the full dispatch budget was spent");
    assert!(!report.last_error.is_empty(), "the last error is preserved");
    assert!(!survived.result.records.is_empty(), "surviving shards produced records");
    assert!(
        survived.result.records.len() < in_process(&config, 3, 1).result.records.len(),
        "a quarantined run is visibly partial, never silently complete"
    );
    assert!(
        survived.stats.summary_line().contains("quarantined"),
        "stats advertise the quarantine: {}",
        survived.stats.summary_line()
    );
}

#[test]
fn unavailable_transport_falls_back_to_in_process_when_allowed() {
    // The bottom rung of the degradation ladder: a pool whose workers
    // can never spawn degrades to the in-process executor and the
    // results are bit-identical (the determinism contract is
    // transport-independent).
    let config = config(ApproachKind::Llm4Fp, 16, 29);
    let reference = in_process(&config, 3, 2);
    let doomed = RemoteWorkerExecutor::new(2).with_worker_bin("/nonexistent/llm4fp-worker");
    let degraded = Orchestrator::new(config)
        .shards(3)
        .epochs(2)
        .executor(Arc::new(doomed))
        .fallback_to_in_process(true)
        .run()
        .expect("fallback completes the run in process");
    assert!(degraded.stats.fell_back_to_in_process, "stats record the degradation");
    assert_results_identical(&degraded.result, &reference.result, "in-process fallback");
}

#[test]
fn scheduler_suites_run_on_the_process_pool() {
    // The suite scheduler is transport-agnostic through the same seam:
    // a multi-campaign suite farmed to worker daemons must match the
    // in-process suite campaign for campaign.
    let configs: Vec<CampaignConfig> =
        [ApproachKind::Varity, ApproachKind::Llm4Fp].iter().map(|&a| config(a, 12, 8)).collect();
    let options = OrchestratorOptions { workers: 2, epochs: 2, ..Default::default() };
    let reference = Scheduler::new(options.clone()).shards(2).run(&configs).unwrap();
    let pooled =
        Scheduler::new(options).shards(2).executor(Arc::new(pool(3))).run(&configs).unwrap();
    assert_eq!(pooled.len(), reference.len());
    for (p, r) in pooled.iter().zip(&reference) {
        assert_results_identical(&p.result, &r.result, "suite on process pool");
        // Worker processes cannot share the coordinator's in-memory
        // cache, so the scheduler must not report (or rely on) cache
        // stats.
        assert!(p.stats.cache.is_none(), "no shared-cache stats over the process pool");
    }
}

/// Unsets [`WORKER_BIN_ENV`] however the test that set it ends.
struct UnsetOnDrop;

impl Drop for UnsetOnDrop {
    fn drop(&mut self) {
        std::env::remove_var(WORKER_BIN_ENV);
    }
}

#[test]
fn missing_worker_binary_is_a_typed_worker_unavailable_error() {
    // Without the fallback opt-in, an unspawnable pool surfaces as
    // `WorkerUnavailable` — the typed trigger the degradation ladder (and
    // any caller-side retry logic) keys on. The missing binary arrives
    // through the environment override here, so the error must name the
    // path it tried. (Every other test in this file pins its binary with
    // `with_worker_bin`, which takes precedence over the variable.)
    let missing = "/nonexistent/llm4fp-worker-from-env";
    std::env::set_var(WORKER_BIN_ENV, missing);
    let _unset = UnsetOnDrop;
    let config = config(ApproachKind::Varity, 4, 1);
    let executor = RemoteWorkerExecutor::new(2);
    let err = Orchestrator::new(config).shards(2).executor(Arc::new(executor)).run().unwrap_err();
    match err {
        OrchestratorError::WorkerUnavailable(msg) => assert!(msg.contains(missing), "{msg}"),
        other => panic!("expected WorkerUnavailable, got {other}"),
    }
}

/// The worker's side of the versioned handshake, over the socket it
/// serves on: its first frame is a `Hello` naming its own process, a
/// current coordinator `Hello` plus `Shutdown` exits 0, and a
/// coordinator from the future is refused in words (exit 2, the skew
/// named on stderr) — never a hang or a parse error. (The worker once
/// also served over stdin/stdout pipes; the contract is the same on the
/// one transport left.)
#[test]
fn pipe_transport_handshake_is_versioned_and_skew_is_refused_in_words() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind a stand-in coordinator");
    let addr = listener.local_addr().expect("bound address");
    let serve_worker = |answer: Hello| {
        let child = Command::new(worker_bin())
            .args(["--connect", &addr.to_string(), "--reconnect", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .expect("spawn worker");
        let (mut stream, _) = listener.accept().expect("worker dials in");
        match read_frame::<WireReply, _>(&mut stream).expect("worker's opening frame") {
            WireReply::Hello(hello) => {
                assert!(hello.check().is_ok(), "worker advertises this build's versions");
                assert_eq!(hello.pid, child.id(), "worker's Hello names its process");
            }
            other => panic!("worker's first frame was not Hello: {other:?}"),
        }
        write_frame(&mut stream, &WireRequest::Hello(answer)).expect("answer the handshake");
        // A refusing worker may already be gone; this write can fail.
        let _ = write_frame(&mut stream, &WireRequest::Shutdown);
        child.wait_with_output().expect("worker exit")
    };

    // Matching versions: handshake accepted, Shutdown exits clean.
    let out = serve_worker(Hello::current());
    assert_eq!(out.status.code(), Some(0), "matched handshake exits clean");

    // A coordinator from the future: typed refusal, named on stderr.
    let out = serve_worker(Hello { protocol: PROTOCOL_VERSION + 1, ..Hello::current() });
    assert_eq!(out.status.code(), Some(2), "version skew is a refusal, not a crash");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("version mismatch") && stderr.contains("protocol"),
        "stderr names the disagreeing field: {stderr}"
    );
}
