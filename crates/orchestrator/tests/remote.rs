//! The socket transport's load-bearing guarantee, exercised against real
//! `llm4fp-worker --connect` daemons dialing a loopback coordinator: a
//! remote run is bit-identical to the in-process run for any
//! `(K, E, worker_procs)` — including under every [`NetworkFault`]
//! variant in Abort mode (a fault may cost time, never bits), after a
//! mid-epoch disconnect-reconnect-resume, and when deadline leases
//! expire and the late answers arrive anyway (discarded by lease
//! generation, never merged). The handshake half pins the version
//! contract: a skewed `Hello` is refused in words — a typed
//! [`WireRequest::Refuse`] — never undefined framing. (The worker
//! processes the coordinator spawns and replaces itself are exercised
//! in `tests/process_pool.rs`.)

use std::net::TcpStream;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use llm4fp::{ApproachKind, CampaignConfig, CampaignResult};
use llm4fp_orchestrator::wire::{read_frame, write_frame, WireReply, WireRequest};
use llm4fp_orchestrator::{
    FaultPlan, Hello, NetworkFault, NullSink, OrchestratedResult, Orchestrator, OrchestratorError,
    RemoteWorkerExecutor, ShardExecutor, PROTOCOL_VERSION,
};
use llm4fp_telemetry::TelemetrySpec;

/// Cargo builds the worker daemon alongside the test binary and hands us
/// its path; `with_worker_bin` skips the sibling-binary search.
fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_llm4fp-worker"))
}

fn remote(worker_procs: usize) -> RemoteWorkerExecutor {
    RemoteWorkerExecutor::new(worker_procs).with_worker_bin(worker_bin())
}

fn config(approach: ApproachKind, budget: usize, seed: u64) -> CampaignConfig {
    CampaignConfig::new(approach).with_budget(budget).with_seed(seed).with_threads(1)
}

fn temp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join("llm4fp-orchestrator-tests")
        .join(format!("remote-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn in_process(config: &CampaignConfig, shards: usize, epochs: usize) -> OrchestratedResult {
    Orchestrator::new(config.clone()).shards(shards).epochs(epochs).run().unwrap()
}

fn on_remote(
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
/// wall-clock fields are runtime artifacts, not part of the contract.)
fn assert_results_identical(a: &CampaignResult, b: &CampaignResult, what: &str) {
    assert_eq!(a.records, b.records, "{what}: records differ");
    assert_eq!(a.sources, b.sources, "{what}: sources differ");
    assert_eq!(a.successful_sources, b.successful_sources, "{what}: successful sets differ");
    assert_eq!(a.aggregates, b.aggregates, "{what}: aggregates differ");
    assert_eq!(a.generation_failures, b.generation_failures, "{what}: failures differ");
    assert_eq!(a.llm_calls, b.llm_calls, "{what}: llm calls differ");
    assert_eq!(a.simulated_llm_time, b.simulated_llm_time, "{what}: llm time differs");
}

#[test]
fn remote_loopback_matches_in_process_bit_for_bit() {
    let config = config(ApproachKind::Llm4Fp, 24, 7);
    for epochs in [1usize, 3] {
        let reference = in_process(&config, 4, epochs);
        for worker_procs in [1usize, 2, 4] {
            let remoted = on_remote(&config, 4, epochs, remote(worker_procs));
            assert_results_identical(
                &remoted.result,
                &reference.result,
                &format!("E={epochs} procs={worker_procs}"),
            );
            assert_eq!(remoted.stats.shards, reference.stats.shards);
            assert_eq!(remoted.stats.epochs, epochs);
            assert!(remoted.stats.failures.is_empty());
        }
    }
}

#[test]
fn remote_k1_matches_the_sequential_campaign() {
    let config = config(ApproachKind::Varity, 12, 19);
    let sequential = llm4fp::Campaign::new(config.clone()).run();
    let remoted = on_remote(&config, 1, 1, remote(2));
    assert_results_identical(&remoted.result, &sequential, "remote K=1");
}

/// A plan arming exactly one network fault — the network-chaos
/// equivalence shape: the fault fires deterministically and the
/// supervisor's recovery heals it without changing a bit.
fn network_plan(fault: NetworkFault) -> FaultPlan {
    FaultPlan { network: vec![fault], ..FaultPlan::default() }
}

#[test]
fn every_network_fault_heals_bit_identically_in_abort_mode() {
    // The whole FaultPlan::network vocabulary, one variant at a time,
    // under the default Abort policy: a dropped connection redials and
    // resumes, a delayed frame just arrives later, a duplicated result
    // is discarded as stale by lease generation, a torn stream is a
    // dispatch failure that replays elsewhere, and a refused handshake
    // heals on the worker's next dial. None of it may cost a bit.
    let config = config(ApproachKind::Llm4Fp, 20, 5);
    let reference = in_process(&config, 4, 1);
    for fault in [
        NetworkFault::DropConnAtJob(1),
        NetworkFault::DelayFrameMs(50),
        NetworkFault::DuplicateResultAtJob(1),
        NetworkFault::TruncateStreamAtJob(1),
        NetworkFault::RefuseHandshake,
    ] {
        let what = format!("{fault:?}");
        let chaotic = remote(2).with_fault_plan(network_plan(fault));
        let survived = on_remote(&config, 4, 1, chaotic);
        assert_results_identical(&survived.result, &reference.result, &what);
        assert!(survived.stats.failures.is_empty(), "{what}: healed, not quarantined");
    }
}

#[test]
fn mid_epoch_disconnect_reconnects_and_resumes_bit_identically() {
    // The single worker drops its connection upon receiving its second
    // job, mid-epoch. Being the only worker, the run can finish *only*
    // if reconnect-and-resume works: the worker redials, passes the
    // handshake again, and the abandoned job is re-dispatched to the
    // fresh connection — across epoch barriers too.
    let config = config(ApproachKind::Llm4Fp, 18, 11);
    for epochs in [1usize, 2] {
        let reference = in_process(&config, 3, epochs);
        let partitioned = remote(1).with_fault_plan(network_plan(NetworkFault::DropConnAtJob(2)));
        let survived = on_remote(&config, 3, epochs, partitioned);
        assert_results_identical(
            &survived.result,
            &reference.result,
            &format!("disconnect-reconnect-resume E={epochs}"),
        );
        assert!(survived.stats.failures.is_empty(), "a healed partition is not a shard failure");
    }
}

#[test]
fn expired_leases_redispatch_and_late_answers_never_merge() {
    // Worker process 0 delays every answer past the lease deadline, so
    // each of its dispatches expires, re-queues, and eventually lands on
    // the healthy worker — while process 0's late answers keep arriving
    // and must every one be discarded by lease generation. If a single
    // stale result were merged, the bit-identity assertion would catch
    // the duplicate delta. (The generous dispatch budget is for process
    // 0 repeatedly winning the re-dispatch race before the healthy
    // worker does.)
    let config = config(ApproachKind::Varity, 12, 3);
    let reference = in_process(&config, 3, 1);
    let laggy = remote(2)
        .with_lease_timeout(Duration::from_millis(300))
        .max_dispatch_attempts(50)
        .with_fault_plan(network_plan(NetworkFault::DelayFrameMs(450)));
    let survived = on_remote(&config, 3, 1, laggy);
    assert_results_identical(&survived.result, &reference.result, "lease expiry + stale discard");
    assert!(survived.stats.failures.is_empty());
}

#[test]
fn metrics_json_is_byte_identical_on_the_remote_transport() {
    // The deterministic flight recorder must not betray the transport:
    // telemetry counters shipped home over TCP merge into the exact
    // bytes the in-process run writes — the witness the CI remote-worker
    // job pins with cmp across both executors.
    let config = config(ApproachKind::Llm4Fp, 18, 9);
    let mut reference: Option<String> = None;
    let executors: [Option<RemoteWorkerExecutor>; 2] = [None, Some(remote(3))];
    for (tag, executor) in ["in-process", "remote"].into_iter().zip(executors) {
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
                assert_eq!(&bytes, expected, "metrics.json must not depend on the transport")
            }
        }
        let _ = std::fs::remove_dir_all(&root);
    }
}

#[test]
fn external_workers_dial_a_worker_less_coordinator() {
    // `worker_procs = 0`: the coordinator spawns nothing and serves
    // whatever dials `bound_addr()` — here a worker we launch by hand,
    // the shape remote machines use. The executor clone shares the
    // bound-address cell, so a sidecar thread can watch it resolve.
    let config = config(ApproachKind::Varity, 8, 13);
    let reference = in_process(&config, 2, 1);
    let executor = RemoteWorkerExecutor::new(0);
    let probe = executor.clone();
    let spawner = std::thread::spawn(move || {
        let addr = loop {
            if let Some(addr) = probe.bound_addr() {
                break addr;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        Command::new(worker_bin())
            .arg("--connect")
            .arg(addr.to_string())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()
            .expect("external worker spawns")
    });
    let remoted = Orchestrator::new(config)
        .shards(2)
        .executor(Arc::new(executor))
        .run()
        .expect("external workers complete the run");
    assert_results_identical(&remoted.result, &reference.result, "external worker dial-in");
    // The coordinator's shutdown frame sends the external worker home
    // (exit 0); reap it with a bounded wait so a regression hangs the
    // assertion, not the test harness.
    let mut child = spawner.join().unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    let status = loop {
        if let Some(status) = child.try_wait().expect("wait on external worker") {
            break Some(status);
        }
        if Instant::now() >= deadline {
            break None;
        }
        std::thread::sleep(Duration::from_millis(20));
    };
    match status {
        Some(status) => assert!(status.success(), "worker exits cleanly on Shutdown: {status}"),
        None => {
            let _ = child.kill();
            panic!("external worker never received the shutdown frame");
        }
    }
}

#[test]
fn version_skewed_handshake_is_refused_in_words() {
    // A connection presenting the wrong protocol version gets a typed
    // WireRequest::Refuse naming the skew — never undefined framing, and
    // never a job. A well-versioned handshake on the same live session
    // is answered with the coordinator's Hello.
    let executor = RemoteWorkerExecutor::new(0);
    let session = executor.begin(Vec::new(), &NullSink).expect("session binds");
    let addr = executor.bound_addr().expect("bound address recorded");

    let mut skewed = TcpStream::connect(addr).expect("dial coordinator");
    let bad_hello = Hello { protocol: PROTOCOL_VERSION + 1, ..Hello::current() };
    write_frame(&mut skewed, &WireReply::Hello(bad_hello)).expect("send skewed hello");
    match read_frame::<WireRequest, _>(&mut skewed).expect("a refusal frame, not a hangup") {
        WireRequest::Refuse(why) => {
            assert!(why.contains("version mismatch"), "refusal names the skew: {why}");
            assert!(why.contains("protocol"), "refusal names the layer: {why}");
        }
        other => panic!("expected Refuse, got {other:?}"),
    }

    let mut good = TcpStream::connect(addr).expect("dial coordinator again");
    write_frame(&mut good, &WireReply::Hello(Hello::current())).expect("send current hello");
    match read_frame::<WireRequest, _>(&mut good).expect("an acceptance frame") {
        WireRequest::Hello(hello) => assert!(hello.check().is_ok()),
        other => panic!("expected the coordinator's Hello, got {other:?}"),
    }
    drop(session);
}

#[test]
fn worker_starvation_is_a_typed_worker_unavailable_error() {
    // No worker ever dials in: the epoch's starvation deadline trips and
    // surfaces as WorkerUnavailable — the degradation ladder's trigger.
    let config = config(ApproachKind::Varity, 4, 1);
    let starved = RemoteWorkerExecutor::new(0).with_worker_wait(Duration::from_millis(200));
    let err =
        Orchestrator::new(config.clone()).shards(2).executor(Arc::new(starved)).run().unwrap_err();
    assert!(matches!(err, OrchestratorError::WorkerUnavailable(_)), "got {err}");
    // And the ladder itself: the same starving transport with the
    // fallback opt-in completes in process, bit-identically.
    let reference = in_process(&config, 2, 1);
    let starved = RemoteWorkerExecutor::new(0).with_worker_wait(Duration::from_millis(200));
    let degraded = Orchestrator::new(config)
        .shards(2)
        .executor(Arc::new(starved))
        .fallback_to_in_process(true)
        .run()
        .expect("fallback completes the run in process");
    assert!(degraded.stats.fell_back_to_in_process);
    assert_results_identical(&degraded.result, &reference.result, "starvation fallback");
}

#[test]
fn unspawnable_loopback_workers_are_worker_unavailable() {
    // Self-spawned mode with a dead binary path: the transport cannot
    // raise its own workers, which is the WorkerUnavailable class (and
    // the session must tear the listener down on the way out).
    let config = config(ApproachKind::Varity, 4, 1);
    let executor = RemoteWorkerExecutor::new(1).with_worker_bin("/nonexistent/llm4fp-worker");
    let err = Orchestrator::new(config).shards(2).executor(Arc::new(executor)).run().unwrap_err();
    assert!(matches!(err, OrchestratorError::WorkerUnavailable(_)), "got {err}");
}
