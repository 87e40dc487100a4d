//! The out-of-process transport: `llm4fp-worker --connect` daemons
//! supervised over TCP by leases, heartbeats and reconnect-and-resume,
//! with the worker processes the coordinator spawned itself replaced
//! when they die or go silent.
//!
//! [`RemoteWorkerExecutor`] implements [`ShardExecutor`] over the
//! [`crate::wire`] vocabulary served on a TCP socket: the coordinator
//! binds a listener, workers dial in, each stream opens with the
//! versioned handshake (worker [`WireReply::Hello`] first, coordinator
//! [`WireRequest::Hello`] or a typed [`WireRequest::Refuse`]), and then
//! jobs flow one at a time per connection. By default the socket is
//! loopback and the coordinator spawns its own workers; the same
//! executor accepts external workers dialing from anywhere
//! (`worker_procs = 0` spawns nothing and waits).
//!
//! Supervision is built for a transport that can *lose the network*, on
//! the shared [`crate::supervisor`] machinery:
//!
//! * **Leases** — every dispatch holds a deadline lease
//!   ([`with_lease_timeout`](RemoteWorkerExecutor::with_lease_timeout))
//!   identified by a generation number stamped into the job. A worker
//!   that neither answers nor disconnects within the deadline loses the
//!   lease: the job re-enters the queue for any connection, and the late
//!   answer — should it ever arrive — is discarded by generation
//!   ([`EpochState::complete`]), never merged. Results stay a pure
//!   function of `(config, K, E)` no matter how late the network
//!   delivers stale bytes.
//! * **Heartbeats** — an idle connection is probed with
//!   [`WireRequest::Ping`] every
//!   [`with_heartbeat`](RemoteWorkerExecutor::with_heartbeat) interval;
//!   a missed [`WireReply::Pong`] retires the connection, so a silent
//!   half-open socket cannot hold a future lease forever.
//! * **Reconnect-and-resume** — a dropped worker redials (the worker
//!   binary's `--reconnect` budget), passes the handshake again, and is
//!   simply handed the next queued job: shard state lives
//!   coordinator-side between epochs (checkpoints in the
//!   [`SessionCore`]), so the resumed job carries everything the fresh
//!   connection needs. Worker processes hold no state between jobs.
//! * **Child supervision** — the workers a session spawned itself are
//!   checked at every epoch start and on the epoch wait loop's 50 ms
//!   tick. One that exited (a crash, a sabotaged frame) is respawned;
//!   one whose connection went *silent* (a lease expired and its drain
//!   window passed without an answer, or a heartbeat was missed) has its
//!   process group killed first. A worker that merely dropped its
//!   connection is left alone to redial. A failed spawn backs its slot
//!   off by the deterministic [`crate::faults::respawn_backoff`] and
//!   costs no job a dispatch attempt. (The processes themselves are
//!   managed by the crate-private `process_pool` module.)
//! * **Worker starvation** — an epoch with no connected workers for
//!   [`with_worker_wait`](RemoteWorkerExecutor::with_worker_wait)
//!   surfaces [`OrchestratorError::WorkerUnavailable`], the trigger for
//!   the in-process fallback rung of the degradation ladder.
//!
//! Deterministic chaos drives all of this through a [`FaultPlan`]
//! ([`with_fault_plan`](RemoteWorkerExecutor::with_fault_plan)): worker
//! and worker-side network faults ship to slot 0's first spawned process
//! via the fault env (`every_worker` faults to every spawn),
//! `respawn_failures` fail the coordinator's first spawn attempts, and
//! `RefuseHandshake` arms the acceptor. A fault may cost time, never
//! bits — Abort-mode results under every fault are bit-identical to the
//! fault-free in-process run.

use std::io;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Condvar, Mutex};
use std::thread;
use std::time::{Duration, Instant};

use llm4fp::RunnerCheckpoint;
use llm4fp_telemetry::{keys, Telemetry};

use crate::executor::{
    FailurePolicy, OrchestratorError, RecordSink, SessionOutcome, ShardExecutor, ShardSession,
    ShardTask,
};
use crate::faults::FaultPlan;
use crate::process_pool::ProcessPool;
use crate::supervisor::{EpochFailure, EpochState, SessionCore};
use crate::wire::{self, Hello, ShardJob, ShardJobResult, WireReply, WireRequest, MAX_FRAME_LEN};

/// Default dispatch-attempt budget per job (lease expiry, dropped
/// connection, crash and protocol violation all count). Override per
/// executor with [`RemoteWorkerExecutor::max_dispatch_attempts`].
pub const MAX_DISPATCH_ATTEMPTS: u8 = 3;

/// Base delay of the deterministic exponential backoff between failed
/// spawn attempts of one worker slot (see [`crate::faults::respawn_backoff`]).
pub const DEFAULT_RESPAWN_BACKOFF: Duration = Duration::from_millis(25);

/// Environment variable overriding the worker binary path (useful for
/// driving an explicitly built binary from scripts and CI).
pub const WORKER_BIN_ENV: &str = "LLM4FP_WORKER_BIN";

/// How long an accepted connection gets to present its `Hello` before
/// the handler gives up on it (keeps a port-scanner's silent connection
/// from pinning a handler thread forever).
const HANDSHAKE_TIMEOUT: Duration = Duration::from_secs(10);

/// The epoch wait loop's tick: the resolution of the worker-starvation
/// clock and of the checks on self-spawned workers.
const TICK: Duration = Duration::from_millis(50);

/// The [`ShardExecutor`] backed by workers dialing in over TCP.
#[derive(Debug, Clone)]
pub struct RemoteWorkerExecutor {
    listen_addr: String,
    worker_procs: usize,
    pub(crate) worker_bin: Option<PathBuf>,
    lease_timeout: Duration,
    heartbeat: Duration,
    worker_wait: Duration,
    max_dispatch_attempts: u8,
    policy: FailurePolicy,
    pub(crate) faults: FaultPlan,
    pub(crate) max_frame_len: usize,
    /// The address actually bound at [`begin`](ShardExecutor::begin)
    /// (resolves `:0` to the kernel-assigned port), shared across clones
    /// so callers can tell external workers where to dial.
    bound: Arc<Mutex<Option<SocketAddr>>>,
}

impl RemoteWorkerExecutor {
    /// An executor listening on loopback (`127.0.0.1:0`, kernel-assigned
    /// port) that self-spawns up to `worker_procs` loopback worker
    /// daemons at session start (`llm4fp-worker --connect`; never more
    /// than the session has tasks) and supervises them. `0` spawns
    /// nothing — the session then serves whatever external workers dial
    /// [`bound_addr`](Self::bound_addr). The worker binary is resolved
    /// from [`WORKER_BIN_ENV`], then as `llm4fp-worker` next to the
    /// current executable; override with
    /// [`with_worker_bin`](Self::with_worker_bin).
    pub fn new(worker_procs: usize) -> Self {
        RemoteWorkerExecutor {
            listen_addr: "127.0.0.1:0".into(),
            worker_procs,
            worker_bin: None,
            lease_timeout: Duration::from_secs(300),
            heartbeat: Duration::from_secs(2),
            worker_wait: Duration::from_secs(30),
            max_dispatch_attempts: MAX_DISPATCH_ATTEMPTS,
            policy: FailurePolicy::default(),
            faults: FaultPlan::none(),
            max_frame_len: MAX_FRAME_LEN,
            bound: Arc::new(Mutex::new(None)),
        }
    }

    /// Listen on an explicit address (e.g. `0.0.0.0:7070` to accept
    /// workers from other machines) instead of an ephemeral loopback
    /// port.
    pub fn listen(mut self, addr: impl Into<String>) -> Self {
        self.listen_addr = addr.into();
        self
    }

    /// Pin the self-spawned worker daemon binary path explicitly
    /// (ignored with `worker_procs == 0`).
    pub fn with_worker_bin(mut self, bin: impl Into<PathBuf>) -> Self {
        self.worker_bin = Some(bin.into());
        self
    }

    /// The deadline lease on one dispatched segment. A worker that
    /// neither answers nor disconnects within it loses the lease — the
    /// job re-dispatches and the late answer is discarded by lease
    /// generation. A self-spawned worker that stays silent for one more
    /// lease window is killed and respawned.
    pub fn with_lease_timeout(mut self, lease: Duration) -> Self {
        self.lease_timeout = lease;
        self
    }

    /// How long a connection may sit idle before the coordinator probes
    /// it with a ping; a missed pong retires the connection.
    pub fn with_heartbeat(mut self, heartbeat: Duration) -> Self {
        self.heartbeat = heartbeat;
        self
    }

    /// How long an epoch tolerates *zero connected workers* before
    /// failing with [`OrchestratorError::WorkerUnavailable`] (the
    /// degradation ladder's trigger). The clock resets whenever any
    /// worker is connected.
    pub fn with_worker_wait(mut self, wait: Duration) -> Self {
        self.worker_wait = wait;
        self
    }

    /// How many times one job may fail (lease expiry, dropped
    /// connection, crash, protocol violation) before the
    /// [`on_shard_failure`](Self::on_shard_failure) policy applies.
    /// Defaults to [`MAX_DISPATCH_ATTEMPTS`]; `0` is rejected at
    /// [`begin`](ShardExecutor::begin) with
    /// [`OrchestratorError::InvalidDispatchAttempts`].
    pub fn max_dispatch_attempts(mut self, attempts: u8) -> Self {
        self.max_dispatch_attempts = attempts;
        self
    }

    /// What happens when a shard job exhausts its dispatch budget:
    /// [`FailurePolicy::Abort`] (default) fails the run,
    /// [`FailurePolicy::Quarantine`] completes the surviving shards and
    /// reports the losses in `RunStats::failures` / `summary.json`.
    pub fn on_shard_failure(mut self, policy: FailurePolicy) -> Self {
        self.policy = policy;
        self
    }

    /// Arm a deterministic [`FaultPlan`]: worker faults and worker-side
    /// [`network`](FaultPlan::network) faults ship to slot 0's first
    /// spawned worker via [`crate::faults::FAULT_PLAN_ENV`] (`every_worker`
    /// faults to every spawn), `respawn_failures` fail the first spawn
    /// attempts, and
    /// [`RefuseHandshake`](crate::faults::NetworkFault::RefuseHandshake)
    /// arms the acceptor to refuse the first incoming handshake. An
    /// empty plan (the default) costs one branch per site.
    /// ([`PersistFault`](crate::faults::PersistFault)s belong to the
    /// orchestrator — see [`crate::Orchestrator::persist_faults`].)
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.faults = plan;
        self
    }

    /// Cap on one wire frame's payload, both directions of every
    /// connection (forwarded to self-spawned workers via
    /// `--max-frame-len`). Defaults to [`MAX_FRAME_LEN`] (256 MiB); `0`
    /// is rejected at [`begin`](ShardExecutor::begin) with
    /// [`OrchestratorError::InvalidFrameLen`].
    pub fn with_max_frame_len(mut self, max_frame_len: usize) -> Self {
        self.max_frame_len = max_frame_len;
        self
    }

    /// The socket address the live session actually bound (`None`
    /// before [`begin`](ShardExecutor::begin)). With `listen("…:0")`
    /// this is where external workers must dial.
    pub fn bound_addr(&self) -> Option<SocketAddr> {
        *self.bound.lock().unwrap()
    }
}

impl ShardExecutor for RemoteWorkerExecutor {
    fn name(&self) -> &'static str {
        "remote"
    }

    /// Workers run in other processes (possibly other machines) and
    /// never see the coordinator's result cache.
    fn shares_cache(&self) -> bool {
        false
    }

    fn begin<'s>(
        &self,
        tasks: Vec<ShardTask>,
        sink: &'s dyn RecordSink,
    ) -> Result<Box<dyn ShardSession + 's>, OrchestratorError> {
        if self.max_dispatch_attempts == 0 {
            return Err(OrchestratorError::InvalidDispatchAttempts);
        }
        if self.max_frame_len == 0 {
            return Err(OrchestratorError::InvalidFrameLen);
        }
        // A coordinator that cannot even bind has no transport at all —
        // the WorkerUnavailable class, so the degradation ladder applies.
        let listener = TcpListener::bind(&self.listen_addr).map_err(|e| {
            OrchestratorError::WorkerUnavailable(format!(
                "cannot bind coordinator socket {}: {e}",
                self.listen_addr
            ))
        })?;
        let addr = listener.local_addr().map_err(|e| {
            OrchestratorError::WorkerUnavailable(format!("cannot resolve bound address: {e}"))
        })?;
        listener.set_nonblocking(true).map_err(|e| {
            OrchestratorError::WorkerUnavailable(format!("cannot configure listener: {e}"))
        })?;
        *self.bound.lock().unwrap() = Some(addr);
        let procs = self.worker_procs.min(tasks.len());
        // Backoff jitter derives from the campaign seed so chaos runs
        // replay identically.
        let backoff_seed = tasks.first().map_or(0, |task| task.config.seed);
        let shared = Arc::new(Shared {
            slot: Mutex::new(EpochSlot { epoch_id: 0, active: None }),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers_live: AtomicUsize::new(0),
            silenced: Mutex::new(Vec::new()),
            refuse_budget: AtomicU32::new(self.faults.refuse_handshakes()),
            lease_timeout: self.lease_timeout,
            heartbeat: self.heartbeat,
            max_frame_len: self.max_frame_len,
        });
        let acceptor = thread::spawn({
            let shared = Arc::clone(&shared);
            move || accept_loop(&listener, &shared)
        });
        let mut session = RemoteSession {
            core: SessionCore::new(tasks, sink, self.max_dispatch_attempts, self.policy),
            shared,
            acceptor: Some(acceptor),
            children: None,
            addr,
            worker_wait: self.worker_wait,
            pool_start: Instant::now(),
        };
        if procs > 0 {
            session.children = Some(ProcessPool::start(self, addr, backoff_seed, procs)?);
        }
        Ok(Box::new(session))
    }
}

/// Coordinator state every connection thread shares.
struct Shared {
    slot: Mutex<EpochSlot>,
    /// Notified on: epoch installed, job completed/abandoned, shutdown.
    cv: Condvar,
    shutdown: AtomicBool,
    /// Connections that passed the handshake and are serving (feeds the
    /// session's worker-starvation clock).
    workers_live: AtomicUsize,
    /// Pids of workers whose connections were retired for silence; the
    /// session kills the ones it spawned.
    silenced: Mutex<Vec<u32>>,
    /// Remaining injected handshake refusals
    /// ([`crate::faults::NetworkFault::RefuseHandshake`]).
    refuse_budget: AtomicU32,
    lease_timeout: Duration,
    heartbeat: Duration,
    max_frame_len: usize,
}

/// The one live epoch (or none, between epochs), versioned by
/// `epoch_id` so a result or abandonment that outlives its epoch can
/// never touch the next epoch's ledger.
struct EpochSlot {
    epoch_id: u64,
    active: Option<ActiveEpoch>,
}

struct ActiveEpoch {
    state: EpochState,
    /// Pre-built wire jobs (lease 0); a dispatch clones one and stamps
    /// the live lease generation.
    jobs: Vec<ShardJob>,
    /// Each job's telemetry lane, cloned out of the session's tasks so
    /// connection threads can observe without borrowing the session.
    telemetry: Vec<Telemetry>,
    pool_start: Instant,
}

/// One dispatch this connection made, so a stray result frame (a
/// duplicate, or a late answer after lease expiry) can be routed to the
/// ledger for stale-discard accounting. Entries are only trusted within
/// their own epoch.
struct Dispatch {
    epoch_id: u64,
    job: usize,
    lease: u64,
}

fn settle(shared: &Shared, epoch_id: u64, job: usize, lease: u64, result: ShardJobResult) {
    {
        let mut slot = shared.slot.lock().unwrap();
        if slot.epoch_id == epoch_id {
            if let Some(epoch) = slot.active.as_mut() {
                // `false` means the lease was no longer live — the result
                // is discarded and counted, exactly as leases promise.
                let _ = epoch.state.complete(job, lease, result);
            }
        }
    }
    shared.cv.notify_all();
}

fn abandon(shared: &Shared, epoch_id: u64, job: usize, lease: u64, why: String) {
    {
        let mut slot = shared.slot.lock().unwrap();
        if slot.epoch_id == epoch_id {
            if let Some(epoch) = slot.active.as_mut() {
                epoch.state.abandon(job, lease, why);
            }
        }
    }
    shared.cv.notify_all();
}

/// Retire a connection whose worker went silent: if the session spawned
/// that worker (`pid` is `None` for a worker on another host), it kills
/// the process group and respawns the slot.
fn silence(shared: &Shared, pid: Option<u32>) {
    if let Some(pid) = pid {
        shared.silenced.lock().unwrap().push(pid);
        shared.cv.notify_all();
    }
}

/// Route a result frame that is not the currently awaited answer: if it
/// matches a dispatch this connection made *in the current epoch*, feed
/// it to the ledger (which discards it by generation); anything else —
/// a leftover from a folded epoch — is dropped on the floor.
fn feed_stray(shared: &Shared, sent: &[Dispatch], result: ShardJobResult) {
    if let Some(d) = sent.iter().find(|d| d.lease == result.lease) {
        settle(shared, d.epoch_id, d.job, d.lease, result);
    }
}

/// The accept loop: non-blocking accept with a short poll so shutdown is
/// honored promptly; every accepted stream gets its own handler thread.
fn accept_loop(listener: &TcpListener, shared: &Arc<Shared>) {
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            return;
        }
        match listener.accept() {
            Ok((stream, _)) => {
                let shared = Arc::clone(shared);
                thread::spawn(move || drive_connection(stream, &shared));
            }
            // Nothing pending (`WouldBlock`) or a transient accept error.
            Err(_) => thread::sleep(Duration::from_millis(25)),
        }
    }
}

/// Decrements the live-worker count (and wakes the starvation clock)
/// when a connection handler exits, however it exits.
struct LiveGuard<'a>(&'a Shared);

impl Drop for LiveGuard<'_> {
    fn drop(&mut self) {
        self.0.workers_live.fetch_sub(1, Ordering::SeqCst);
        self.0.cv.notify_all();
    }
}

/// Shuts the socket down (both directions, across all clones) when the
/// handler exits, so the reader thread unblocks and the worker sees a
/// closed stream instead of a silent half-open connection.
struct SocketGuard(TcpStream);

impl Drop for SocketGuard {
    fn drop(&mut self) {
        let _ = self.0.shutdown(std::net::Shutdown::Both);
    }
}

/// What one dispatch's wait ended with.
enum Verdict {
    Answered(Box<ShardJobResult>),
    LeaseExpired,
    Dead(String),
}

/// Serve one accepted connection end to end: handshake, then a loop of
/// lease → dispatch → bounded wait, with heartbeat probes while idle.
fn drive_connection(stream: TcpStream, shared: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(HANDSHAKE_TIMEOUT));
    let Ok(mut reader_stream) = stream.try_clone() else { return };
    let mut writer = stream;
    let max = shared.max_frame_len;
    // The worker opens: its Hello must be the stream's first frame.
    let hello = match wire::read_frame_limited::<WireReply, _>(&mut reader_stream, max) {
        Ok(WireReply::Hello(hello)) => hello,
        // Not a worker (or a worker that never spoke): nothing to refuse
        // in words, just hang up.
        Ok(_) | Err(_) => return,
    };
    // A pid names a process only on this host: a worker dialing from
    // another machine could share one with a child of this session.
    let same_host =
        writer.peer_addr().ok().map(|a| a.ip()) == writer.local_addr().ok().map(|a| a.ip());
    let pid = same_host.then_some(hello.pid);
    if let Err(skew) = hello.check() {
        // A version skew is a refusal in words, never undefined framing.
        let _ = wire::write_frame_limited(&mut writer, &WireRequest::Refuse(skew.to_string()), max);
        return;
    }
    if shared
        .refuse_budget
        .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
        .is_ok()
    {
        let _ = wire::write_frame_limited(
            &mut writer,
            &WireRequest::Refuse("injected handshake refusal (fault plan)".into()),
            max,
        );
        return;
    }
    if wire::write_frame_limited(&mut writer, &WireRequest::Hello(Hello::current()), max).is_err() {
        return;
    }
    let _ = writer.set_read_timeout(None);
    let Ok(_socket_guard) = writer.try_clone().map(SocketGuard) else { return };
    shared.workers_live.fetch_add(1, Ordering::SeqCst);
    shared.cv.notify_all();
    let _live = LiveGuard(shared);
    // Detached reader: turns the blocking socket into a channel of
    // frames the driver can wait on with deadlines. It exits when the
    // socket closes (worker death, SocketGuard) or the driver drops `rx`.
    let (tx, rx) = mpsc::channel::<io::Result<WireReply>>();
    thread::spawn(move || loop {
        let frame = wire::read_frame_limited::<WireReply, _>(&mut reader_stream, max);
        let failed = frame.is_err();
        if tx.send(frame).is_err() || failed {
            break;
        }
    });
    let mut sent: Vec<Dispatch> = Vec::new();
    let mut ping_token: u64 = 0;
    loop {
        if shared.shutdown.load(Ordering::SeqCst) {
            let _ = wire::write_frame_limited(&mut writer, &WireRequest::Shutdown, max);
            return;
        }
        let next = {
            let mut slot = shared.slot.lock().unwrap();
            let epoch_id = slot.epoch_id;
            match slot.active.as_mut() {
                Some(epoch) if !epoch.state.is_settled() => {
                    epoch.state.next_job().map(|(job, lease)| {
                        let mut wire_job = epoch.jobs[job].clone();
                        wire_job.lease = lease;
                        (
                            epoch_id,
                            job,
                            lease,
                            wire_job,
                            epoch.telemetry[job].clone(),
                            epoch.pool_start,
                        )
                    })
                }
                _ => None,
            }
        };
        let Some((epoch_id, job, lease, wire_job, telemetry, pool_start)) = next else {
            // Idle: park until new work arrives or the heartbeat is due.
            {
                let slot = shared.slot.lock().unwrap();
                let (_slot, timeout) = shared.cv.wait_timeout(slot, shared.heartbeat).unwrap();
                if !timeout.timed_out() {
                    continue;
                }
            }
            if shared.shutdown.load(Ordering::SeqCst) {
                continue; // the top of the loop sends the Shutdown frame
            }
            ping_token += 1;
            if wire::write_frame_limited(&mut writer, &WireRequest::Ping(ping_token), max).is_err()
            {
                return;
            }
            let deadline = Instant::now() + shared.heartbeat.max(Duration::from_secs(1));
            loop {
                match rx.recv_timeout(deadline.saturating_duration_since(Instant::now())) {
                    Ok(Ok(WireReply::Pong(_))) => break,
                    Ok(Ok(WireReply::Result(result))) => feed_stray(shared, &sent, *result),
                    // Missed heartbeat: the worker is alive but silent.
                    Err(RecvTimeoutError::Timeout) => return silence(shared, pid),
                    Ok(Ok(WireReply::Hello(_))) | Ok(Err(_)) | Err(_) => return,
                }
            }
            continue;
        };
        // Dispatch records from folded epochs can never be trusted again
        // (lease generations restart per epoch).
        if sent.first().is_some_and(|d| d.epoch_id != epoch_id) {
            sent.clear();
        }
        sent.push(Dispatch { epoch_id, job, lease });
        let shard = wire_job.spec.index;
        telemetry.observe(keys::QUEUE_WAIT, pool_start.elapsed());
        let span = telemetry.span(keys::SPAN_SHARD_RUN);
        if let Err(e) =
            wire::write_frame_limited(&mut writer, &WireRequest::Job(Box::new(wire_job)), max)
        {
            drop(span);
            abandon(shared, epoch_id, job, lease, format!("write to worker failed: {e}"));
            return;
        }
        let deadline = Instant::now() + shared.lease_timeout;
        let verdict = loop {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                break Verdict::LeaseExpired;
            }
            match rx.recv_timeout(left) {
                Ok(Ok(WireReply::Result(result))) if result.lease == lease => {
                    if result.index != shard {
                        let why = format!("protocol violation: answer for shard {}", result.index);
                        break Verdict::Dead(why);
                    }
                    break Verdict::Answered(result);
                }
                // A duplicate (or an even later straggler): route it to
                // the ledger's stale-discard path and keep waiting.
                Ok(Ok(WireReply::Result(result))) => feed_stray(shared, &sent, *result),
                // A pong from an idle probe the worker answered late.
                Ok(Ok(WireReply::Pong(_))) => {}
                Ok(Ok(WireReply::Hello(_))) => {
                    break Verdict::Dead("protocol violation: mid-stream Hello".into());
                }
                Ok(Err(e)) => break Verdict::Dead(format!("worker connection failed: {e}")),
                Err(RecvTimeoutError::Timeout) => break Verdict::LeaseExpired,
                Err(RecvTimeoutError::Disconnected) => {
                    break Verdict::Dead("worker stream closed".into());
                }
            }
        };
        drop(span);
        match verdict {
            Verdict::Answered(result) => settle(shared, epoch_id, job, lease, *result),
            Verdict::LeaseExpired => {
                // The lease dies first — the job re-dispatches right away
                // — then the connection gets one more lease-length window
                // to prove it was slow rather than dead: its late answer
                // (discarded as stale by generation) lets the connection
                // be reused; silence retires it (and kills the worker).
                abandon(
                    shared,
                    epoch_id,
                    job,
                    lease,
                    format!("lease expired after {:.1}s", shared.lease_timeout.as_secs_f64()),
                );
                let drain = Instant::now() + shared.lease_timeout;
                loop {
                    match rx.recv_timeout(drain.saturating_duration_since(Instant::now())) {
                        Ok(Ok(WireReply::Result(result))) => {
                            let late_answer = result.lease == lease;
                            feed_stray(shared, &sent, *result);
                            if late_answer {
                                break;
                            }
                        }
                        Ok(Ok(WireReply::Pong(_))) => {}
                        Err(RecvTimeoutError::Timeout) => return silence(shared, pid),
                        Ok(Ok(WireReply::Hello(_))) | Ok(Err(_)) | Err(_) => return,
                    }
                }
            }
            Verdict::Dead(why) => {
                abandon(shared, epoch_id, job, lease, why);
                return;
            }
        }
    }
}

struct RemoteSession<'s> {
    /// The transport-independent session half (tasks, checkpoints,
    /// quarantine ledger, epoch folding) — see [`crate::supervisor`].
    core: SessionCore<'s>,
    shared: Arc<Shared>,
    acceptor: Option<thread::JoinHandle<()>>,
    /// Self-spawned loopback worker daemons (`None` with external
    /// workers only).
    children: Option<ProcessPool>,
    addr: SocketAddr,
    worker_wait: Duration,
    pool_start: Instant,
}

impl RemoteSession<'_> {
    /// Idempotent transport teardown: flag shutdown (connection threads
    /// forward `Shutdown` frames to their workers within a heartbeat),
    /// give self-spawned workers a grace window to exit cleanly, then
    /// kill the stragglers and join the acceptor.
    fn shutdown_transport(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.cv.notify_all();
        if let Some(children) = self.children.as_mut() {
            children.shutdown();
        }
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

impl Drop for RemoteSession<'_> {
    fn drop(&mut self) {
        // Safety net for sessions abandoned mid-run (a failed epoch whose
        // error aborted the campaign): no worker processes or acceptor
        // threads may outlive the session.
        self.shutdown_transport();
    }
}

impl ShardSession for RemoteSession<'_> {
    fn run_epoch(
        &mut self,
        segments: &[usize],
        last: bool,
    ) -> Result<Vec<Vec<String>>, OrchestratorError> {
        debug_assert_eq!(segments.len(), self.core.tasks.len());
        let state = self.core.epoch_state();
        let jobs = (0..self.core.tasks.len())
            .map(|job| self.core.build_job(job, segments[job], last, 0))
            .collect();
        let telemetry = self.core.tasks.iter().map(|task| task.telemetry.clone()).collect();
        let epoch_id = {
            let mut slot = self.shared.slot.lock().unwrap();
            slot.epoch_id += 1;
            slot.active = Some(ActiveEpoch { state, jobs, telemetry, pool_start: self.pool_start });
            slot.epoch_id
        };
        self.shared.cv.notify_all();
        // Wait (with a worker-starvation deadline) until the connection
        // threads settle the epoch, supervising the self-spawned workers
        // at the start and then at most once per tick.
        if let Some(children) = self.children.as_mut() {
            children.supervise(&self.shared.shutdown, &self.shared.silenced);
        }
        let mut starving_since = Instant::now();
        let mut supervised = Instant::now();
        let mut slot = self.shared.slot.lock().unwrap();
        loop {
            debug_assert_eq!(slot.epoch_id, epoch_id);
            let epoch = slot.active.as_mut().expect("epoch installed above");
            if epoch.state.is_settled() {
                break;
            }
            if self.shared.workers_live.load(Ordering::SeqCst) > 0 {
                starving_since = Instant::now();
            } else if starving_since.elapsed() >= self.worker_wait {
                epoch.state.fail(EpochFailure {
                    message: format!(
                        "no workers connected to {} within {:.1}s",
                        self.addr,
                        self.worker_wait.as_secs_f64()
                    ),
                    worker_unavailable: true,
                });
                break;
            }
            if supervised.elapsed() >= TICK {
                if let Some(children) = self.children.as_mut() {
                    children.supervise(&self.shared.shutdown, &self.shared.silenced);
                }
                supervised = Instant::now();
            }
            // Short tick: the starvation clock's and the child checks'
            // resolution, and a backstop against a missed notification.
            slot = self.shared.cv.wait_timeout(slot, TICK).unwrap().0;
        }
        let state = slot.active.take().expect("epoch installed above").state;
        drop(slot);
        self.core.fold_epoch(state, last)
    }

    fn inject(&mut self, pools: &[&[String]]) -> Result<(), OrchestratorError> {
        self.core.inject(pools)
    }

    fn checkpoints(&mut self) -> Result<Vec<Option<RunnerCheckpoint>>, OrchestratorError> {
        self.core.checkpoints()
    }

    fn finish(mut self: Box<Self>) -> Result<SessionOutcome, OrchestratorError> {
        self.shutdown_transport();
        self.core.outcome()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::NullSink;

    #[test]
    fn builder_knobs_are_validated_at_begin() {
        let executor = RemoteWorkerExecutor::new(0).max_dispatch_attempts(0);
        assert!(matches!(
            executor.begin(Vec::new(), &NullSink),
            Err(OrchestratorError::InvalidDispatchAttempts)
        ));
        let executor = RemoteWorkerExecutor::new(0).with_max_frame_len(0);
        assert!(matches!(
            executor.begin(Vec::new(), &NullSink),
            Err(OrchestratorError::InvalidFrameLen)
        ));
        assert_eq!(RemoteWorkerExecutor::new(0).name(), "remote");
        assert!(!RemoteWorkerExecutor::new(0).shares_cache());
        assert_eq!(RemoteWorkerExecutor::new(0).bound_addr(), None);
    }

    #[test]
    fn unbindable_listen_address_is_worker_unavailable() {
        // An unroutable bind target: the transport cannot exist, which is
        // exactly the degradation ladder's WorkerUnavailable class.
        let executor = RemoteWorkerExecutor::new(0).listen("256.256.256.256:0");
        match executor.begin(Vec::new(), &NullSink) {
            Err(OrchestratorError::WorkerUnavailable(msg)) => {
                assert!(msg.contains("cannot bind"), "{msg}");
            }
            other => panic!("expected WorkerUnavailable, got {:?}", other.err()),
        }
    }

    #[test]
    fn empty_session_settles_without_any_workers() {
        // Zero tasks settle instantly (remaining == 0), so no worker ever
        // needs to connect and finish() yields an empty outcome.
        let executor = RemoteWorkerExecutor::new(0).with_worker_wait(Duration::from_secs(30));
        let mut session = executor.begin(Vec::new(), &NullSink).unwrap();
        assert!(executor.bound_addr().is_some(), "begin records the bound address");
        let deltas = session.run_epoch(&[], true).unwrap();
        assert!(deltas.is_empty());
        let outcome = session.finish().unwrap();
        assert!(outcome.shards.is_empty());
    }
}
