//! Minimal self-removing temporary directory (no external crates).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use crate::error::Result;

static NEXT_ID: AtomicU64 = AtomicU64::new(0);

/// A uniquely named directory under the system temp dir, removed on drop.
///
/// Used by tests, benches and the EMCore partition store, which needs a
/// scratch area for partition files.
#[derive(Debug)]
pub struct TempDir {
    path: PathBuf,
}

impl TempDir {
    /// Create a fresh directory whose name starts with `prefix`.
    pub fn new(prefix: &str) -> Result<Self> {
        let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "{prefix}-{}-{}-{}",
            std::process::id(),
            id,
            // Nanosecond tag makes collisions with leftovers from dead
            // processes vanishingly unlikely.
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .map(|d| d.subsec_nanos())
                .unwrap_or(0)
        ));
        std::fs::create_dir_all(&path)?;
        Ok(TempDir { path })
    }

    /// Path of the directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        // Best effort; leaking a temp dir must not mask the real error.
        let _ = std::fs::remove_dir_all(&self.path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn creates_and_removes() {
        let p;
        {
            let d = TempDir::new("kcore-test").unwrap();
            p = d.path().to_path_buf();
            assert!(p.is_dir());
            std::fs::write(p.join("x"), b"hi").unwrap();
        }
        assert!(!p.exists());
    }

    #[test]
    fn two_dirs_are_distinct() {
        let a = TempDir::new("kcore-test").unwrap();
        let b = TempDir::new("kcore-test").unwrap();
        assert_ne!(a.path(), b.path());
    }
}
