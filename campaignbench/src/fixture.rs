//! Scratch directories and the kill-after-barrier run-dir fixture.

use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// A directory the benchmark owns for the length of one run and removes
/// when dropped, on every exit path that unwinds.
#[derive(Debug)]
pub struct ScratchDir {
    root: PathBuf,
}

impl ScratchDir {
    /// Create a fresh, empty scratch directory at `root`.
    pub fn create(root: impl Into<PathBuf>) -> io::Result<Self> {
        let root = root.into();
        let _ = fs::remove_dir_all(&root);
        fs::create_dir_all(&root)?;
        Ok(ScratchDir { root })
    }

    pub fn path(&self) -> &Path {
        &self.root
    }

    /// A path inside the scratch directory, emptied of whatever an
    /// earlier use left there.
    pub fn fresh(&self, name: &str) -> PathBuf {
        let path = self.root.join(name);
        let _ = fs::remove_dir_all(&path);
        path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.root);
        // Remove the parent too when no other run is using it.
        if let Some(parent) = self.root.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// Turn a complete multi-epoch run directory into the state a run killed
/// right after barrier 1 leaves behind: no shard summaries, no merged
/// result or summary, and no barrier-2 pool or checkpoints. Barriers 0
/// and 1 stay, so a resume restores two epochs and recomputes the rest.
pub fn kill_after_barrier_one(root: &Path, shards: usize) -> io::Result<()> {
    fs::remove_file(root.join("result.json"))?;
    fs::remove_file(root.join("summary.json"))?;
    for shard in 0..shards {
        fs::remove_file(root.join("shards").join(format!("shard-{shard:04}.jsonl")))?;
        fs::remove_file(
            root.join("checkpoints").join(format!("shard-{shard:04}-epoch-0002.json")),
        )?;
    }
    fs::remove_file(root.join("epochs").join("epoch-0002.json"))
}

/// Total size in bytes of every regular file under `root`.
pub fn dir_bytes(root: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(root) else { return 0 };
    entries
        .flatten()
        .map(|entry| match entry.file_type() {
            Ok(kind) if kind.is_dir() => dir_bytes(&entry.path()),
            Ok(kind) if kind.is_file() => entry.metadata().map_or(0, |m| m.len()),
            _ => 0,
        })
        .sum()
}

/// Size of one file in bytes (0 when it is missing).
pub fn file_bytes(path: &Path) -> u64 {
    fs::metadata(path).map_or(0, |m| m.len())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scratch_dirs_clean_up_after_themselves() {
        let root = std::env::temp_dir()
            .join(format!("campaignbench-test-{}", std::process::id()))
            .join("run");
        {
            let scratch = ScratchDir::create(&root).unwrap();
            let dir = scratch.fresh("a");
            fs::create_dir_all(&dir).unwrap();
            fs::write(dir.join("f"), b"12345").unwrap();
            assert_eq!(dir_bytes(scratch.path()), 5);
        }
        assert!(!root.exists());
    }
}
