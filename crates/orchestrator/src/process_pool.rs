//! The `llm4fp-worker --connect` processes a
//! [`RemoteWorkerExecutor`] session spawns on loopback, one per slot:
//! binary lookup, spawning with the slot's faults, killing silenced
//! workers, backed-off respawns and shutdown. Jobs and leases are the
//! socket's business (`remote`); these processes dial it like any
//! external worker.

use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

use llm4fp_extcc::{group_spawn, kill_group};

use crate::executor::OrchestratorError;
use crate::faults::{self, FaultPlan};
use crate::remote::{RemoteWorkerExecutor, DEFAULT_RESPAWN_BACKOFF, WORKER_BIN_ENV};
use crate::wire::MAX_FRAME_LEN;

/// Resolve the `llm4fp-worker` binary: the explicit override, then
/// [`WORKER_BIN_ENV`], then `llm4fp-worker` next to the current
/// executable.
fn resolve_worker_bin(explicit: Option<&Path>) -> Result<PathBuf, OrchestratorError> {
    if let Some(bin) = explicit {
        return Ok(bin.to_path_buf());
    }
    if let Some(bin) = std::env::var_os(WORKER_BIN_ENV) {
        return Ok(PathBuf::from(bin));
    }
    let exe = std::env::current_exe().map_err(|e| {
        OrchestratorError::WorkerUnavailable(format!("cannot locate current executable: {e}"))
    })?;
    let mut dir = exe.parent().unwrap_or_else(|| Path::new(".")).to_path_buf();
    // Test binaries live in target/<profile>/deps/; the worker bin
    // sits one level up in target/<profile>/.
    if dir.file_name().is_some_and(|name| name == "deps") {
        dir.pop();
    }
    let bin = dir.join(format!("llm4fp-worker{}", std::env::consts::EXE_SUFFIX));
    if bin.exists() {
        Ok(bin)
    } else {
        Err(OrchestratorError::WorkerUnavailable(format!(
            "worker binary not found at {} (build it with `cargo build -p \
             llm4fp-orchestrator --bin llm4fp-worker`, set {WORKER_BIN_ENV}, or use \
             with_worker_bin)",
            bin.display()
        )))
    }
}

/// The worker processes a session spawned itself, one per slot, and
/// what it needs to replace them.
pub(crate) struct ProcessPool {
    bin: PathBuf,
    addr: SocketAddr,
    max_frame_len: usize,
    faults: FaultPlan,
    /// Injected spawn failures left to burn
    /// ([`FaultPlan::respawn_failures`]).
    injected_failures: u32,
    backoff_seed: u64,
    slots: Vec<Slot>,
}

#[derive(Default)]
struct Slot {
    child: Option<Child>,
    /// Whether this slot ever spawned a worker (`first_worker` faults
    /// ride only slot 0's first spawn).
    spawned: bool,
    /// Consecutive failed spawn attempts, for the backoff.
    failures: u32,
    /// No spawn attempt before this instant.
    retry_at: Option<Instant>,
}

impl ProcessPool {
    /// Spawn `procs` workers that dial `addr`. A real spawn failure here
    /// means the transport cannot raise its workers at all —
    /// [`OrchestratorError::WorkerUnavailable`], with any siblings
    /// already spawned killed on the way out.
    pub(crate) fn start(
        executor: &RemoteWorkerExecutor,
        addr: SocketAddr,
        backoff_seed: u64,
        procs: usize,
    ) -> Result<Self, OrchestratorError> {
        let mut pool = ProcessPool {
            bin: resolve_worker_bin(executor.worker_bin.as_deref())?,
            addr,
            max_frame_len: executor.max_frame_len,
            faults: executor.faults.clone(),
            injected_failures: executor.faults.respawn_failures,
            backoff_seed,
            slots: (0..procs).map(|_| Slot::default()).collect(),
        };
        for slot in 0..procs {
            if let Err(Some(e)) = pool.spawn(slot) {
                pool.slots.iter_mut().filter_map(|s| s.child.as_mut()).for_each(kill_group);
                return Err(OrchestratorError::WorkerUnavailable(format!(
                    "cannot spawn loopback worker {}: {e}",
                    pool.bin.display()
                )));
            }
        }
        Ok(pool)
    }

    /// One spawn attempt for `slot`. A failure — `Err(None)` for an
    /// injected one, `Err(Some(_))` for a real one — backs the slot off
    /// before its next attempt.
    fn spawn(&mut self, slot: usize) -> Result<(), Option<io::Error>> {
        let first_spawn_of_slot0 = slot == 0 && !self.slots[slot].spawned;
        let spawned = if self.injected_failures > 0 {
            self.injected_failures -= 1;
            Err(None)
        } else {
            let mut cmd = Command::new(&self.bin);
            cmd.arg("--connect")
                .arg(self.addr.to_string())
                .arg("--reconnect")
                .arg("64")
                .arg("--reconnect-delay-ms")
                .arg("50")
                .stdin(Stdio::null())
                .stdout(Stdio::null())
                .stderr(Stdio::inherit());
            if self.max_frame_len != MAX_FRAME_LEN {
                cmd.arg("--max-frame-len").arg(self.max_frame_len.to_string());
            }
            // Job ordinals count across the process's reconnects, so
            // "drop at job 1, then heal" stays deterministic.
            if let Some(value) = self.faults.worker_env(first_spawn_of_slot0) {
                cmd.env(faults::FAULT_PLAN_ENV, value);
            }
            group_spawn(&mut cmd);
            cmd.spawn().map_err(Some)
        };
        let state = &mut self.slots[slot];
        match spawned {
            Ok(child) => {
                state.child = Some(child);
                state.spawned = true;
                state.failures = 0;
                Ok(())
            }
            Err(e) => {
                state.failures += 1;
                state.retry_at = Some(
                    Instant::now()
                        + faults::respawn_backoff(
                            self.backoff_seed,
                            slot,
                            state.failures,
                            DEFAULT_RESPAWN_BACKOFF,
                        ),
                );
                Err(e)
            }
        }
    }

    /// Kill the workers whose pids were retired for silence, forget the
    /// ones that exited, and respawn every empty slot whose backoff is
    /// over. Never after shutdown has begun.
    pub(crate) fn supervise(&mut self, shutdown: &AtomicBool, silenced: &Mutex<Vec<u32>>) {
        if shutdown.load(Ordering::SeqCst) {
            return;
        }
        let silenced = std::mem::take(&mut *silenced.lock().unwrap());
        let now = Instant::now();
        for slot in 0..self.slots.len() {
            let state = &mut self.slots[slot];
            if let Some(child) = state.child.as_mut() {
                if silenced.contains(&child.id()) {
                    kill_group(child);
                    state.child = None;
                } else if matches!(child.try_wait(), Ok(Some(_))) {
                    state.child = None;
                }
            }
            if state.child.is_none() && state.retry_at.map_or(true, |at| now >= at) {
                let _ = self.spawn(slot);
            }
        }
    }

    /// Give the workers (already sent `Shutdown`) a grace window to exit
    /// cleanly, then kill the stragglers.
    pub(crate) fn shutdown(&mut self) {
        let deadline = Instant::now() + Duration::from_secs(3);
        let mut live: Vec<Child> = self.slots.iter_mut().filter_map(|s| s.child.take()).collect();
        while !live.is_empty() && Instant::now() < deadline {
            live.retain_mut(|child| !matches!(child.try_wait(), Ok(Some(_))));
            if !live.is_empty() {
                thread::sleep(Duration::from_millis(10));
            }
        }
        for child in live.iter_mut() {
            kill_group(child);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{NullSink, ShardExecutor};
    use crate::RemoteWorkerExecutor;

    #[test]
    fn missing_worker_binary_is_a_clean_error() {
        // Resolution succeeds (the path is pinned); the spawn at session
        // start fails and surfaces as `WorkerUnavailable` — covered by the
        // integration tests. Here: the pinned resolver hands the path
        // through untouched.
        let pinned = Path::new("/nonexistent/llm4fp-worker");
        assert_eq!(resolve_worker_bin(Some(pinned)).unwrap(), pinned);
    }

    #[test]
    fn zero_dispatch_attempts_is_rejected_at_begin() {
        // Validation precedes the pool: a zero budget is refused before
        // any worker is spawned (so the dead binary never matters).
        let executor = RemoteWorkerExecutor::new(1)
            .with_worker_bin("/nonexistent/llm4fp-worker")
            .max_dispatch_attempts(0);
        let err = match executor.begin(Vec::new(), &NullSink) {
            Ok(_) => panic!("begin must reject a zero dispatch budget"),
            Err(err) => err,
        };
        assert!(matches!(err, OrchestratorError::InvalidDispatchAttempts), "got {err}");
    }

    #[test]
    fn zero_max_frame_len_is_rejected_at_begin() {
        let executor = RemoteWorkerExecutor::new(1)
            .with_worker_bin("/nonexistent/llm4fp-worker")
            .with_max_frame_len(0);
        let err = match executor.begin(Vec::new(), &NullSink) {
            Ok(_) => panic!("begin must reject a zero frame cap"),
            Err(err) => err,
        };
        assert!(matches!(err, OrchestratorError::InvalidFrameLen), "got {err}");
        assert!(err.to_string().contains("max_frame_len"), "{err}");
    }
}
