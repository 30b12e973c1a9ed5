//! A deterministic fault-injecting [`Vfs`] for the durability tests.
//!
//! [`FaultVfs`] wraps [`StdVfs`] and executes one [`FaultPlan`] describing
//! *which* operation misbehaves: "fail the 3rd fsync", "persist only 7
//! bytes of the 5th write", "report `ENOSPC` after 4096 bytes", "flip one
//! bit in the 2nd read", "crash-stop before the 6th sync point".
//! Determinism is what turns the crash-recovery argument in
//! ARCHITECTURE.md ("Failure model") from prose into a matrix the test
//! suite enumerates. It needs nothing but `graphstore`'s public
//! [`Vfs`] / [`VfsFile`] / [`StdVfs`] surface, so it lives here, in a
//! dev-only crate, and never ships in a release build.
//!
//! ## The crash model
//!
//! [`FaultVfs`] models *crash-stop with completed syscalls persisted*:
//! every operation that returned `Ok` before the crash point is on disk,
//! nothing after it happens, and every subsequent operation fails with a
//! distinctive "simulated crash" error. *Sync events* — file `sync_all`,
//! `rename`, `sync_parent_dir` — are the crash schedule's clock, because
//! those are the only points at which the storage layer's durability
//! protocol claims anything; `crash_before_sync: Some(k)` stops the world
//! just before the `k`-th such event fires. A counting pass with a
//! fault-free plan ([`FaultVfs::sync_events`]) tells the harness how many
//! crash points a workload has.

use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

use graphstore::{StdVfs, Vfs, VfsFile};

/// A deterministic fault schedule for [`FaultVfs`]. All counters are
/// 1-based and count operations *after the plan was armed*
/// ([`FaultVfs::set_plan`] resets them). The default plan injects nothing.
#[derive(Debug, Clone, Copy, Default)]
pub struct FaultPlan {
    /// Fail the Nth `sync_all` with `EIO` (once; later syncs succeed).
    pub fail_fsync: Option<u64>,
    /// On the Nth file write, persist only the first `K` bytes, then fail.
    pub short_write: Option<(u64, usize)>,
    /// Report `ENOSPC` once the cumulative written bytes would exceed this
    /// budget; the write persists up to the budget, the rest is lost.
    pub enospc_after: Option<u64>,
    /// Flip one bit (selected by the second field) in the Nth read.
    pub bit_flip_read: Option<(u64, u64)>,
    /// Crash-stop immediately *before* the Nth sync event (file sync,
    /// rename, or parent-dir sync). Every operation after the crash fails.
    pub crash_before_sync: Option<u64>,
}

impl FaultPlan {
    /// A pseudorandom single-fault plan derived from `seed` — the
    /// property-test entry point. The fault kind and its trigger ordinal
    /// are both seed-determined, so a failing case replays exactly.
    pub fn from_seed(seed: u64) -> FaultPlan {
        // SplitMix64: cheap, well-mixed, and dependency-free.
        let mut s = seed;
        let mut next = move || {
            s = s.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = s;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut plan = FaultPlan::default();
        match next() % 4 {
            0 => plan.fail_fsync = Some(1 + next() % 4),
            1 => plan.short_write = Some((1 + next() % 4, (next() % 16) as usize)),
            2 => plan.enospc_after = Some(next() % 256),
            _ => plan.crash_before_sync = Some(1 + next() % 6),
        }
        plan
    }
}

/// Mutable fault-injection state shared by a [`FaultVfs`] and every file
/// handle it has opened.
#[derive(Debug, Default)]
struct FaultState {
    plan: FaultPlan,
    fsyncs: u64,
    writes: u64,
    reads: u64,
    written_bytes: u64,
    sync_events: u64,
    crashed: bool,
}

/// The distinctive error every operation returns once the simulated
/// machine has crash-stopped.
pub const CRASH_MSG: &str = "simulated crash (crash-stop)";

fn crash_err() -> io::Error {
    io::Error::other(CRASH_MSG)
}

impl FaultState {
    /// Fail if the machine has already crash-stopped.
    fn check_alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(crash_err())
        } else {
            Ok(())
        }
    }

    /// Record a sync event (file sync / rename / dir sync), crashing
    /// first when the plan schedules it at this ordinal.
    fn sync_event(&mut self) -> io::Result<()> {
        self.check_alive()?;
        if self.plan.crash_before_sync == Some(self.sync_events + 1) {
            self.crashed = true;
            return Err(crash_err());
        }
        self.sync_events += 1;
        Ok(())
    }
}

/// A fault-injecting [`Vfs`] wrapping [`StdVfs`], driven by a
/// [`FaultPlan`]. See the module docs for the crash model.
#[derive(Debug)]
pub struct FaultVfs {
    inner: StdVfs,
    state: Arc<Mutex<FaultState>>,
}

impl FaultVfs {
    /// A fault vfs armed with `plan`.
    pub fn new(plan: FaultPlan) -> Arc<FaultVfs> {
        Arc::new(FaultVfs {
            inner: StdVfs,
            state: Arc::new(Mutex::new(FaultState {
                plan,
                ..FaultState::default()
            })),
        })
    }

    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        // A panic while holding this lock can only come from the harness
        // itself; recovering the guard keeps the injector usable.
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// Re-arm with a new plan, resetting all ordinals and the crash flag.
    /// This lets one test set a scenario up fault-free, then schedule a
    /// fault relative to *now* ("fail the next read").
    pub fn set_plan(&self, plan: FaultPlan) {
        let mut st = self.state();
        *st = FaultState {
            plan,
            ..FaultState::default()
        };
    }

    /// Sync events (file syncs + renames + parent-dir syncs) observed
    /// since the plan was armed — the crash schedule's clock.
    pub fn sync_events(&self) -> u64 {
        self.state().sync_events
    }

    /// True once a scheduled crash-stop has fired.
    pub fn crashed(&self) -> bool {
        self.state().crashed
    }

    fn wrap(&self, file: Box<dyn VfsFile>) -> Box<dyn VfsFile> {
        Box::new(FaultFile {
            inner: file,
            state: Arc::clone(&self.state),
        })
    }
}

/// Run a plain (non-sync) vfs operation: crash check only.
fn plain_op<T>(state: &Arc<Mutex<FaultState>>, f: impl FnOnce() -> io::Result<T>) -> io::Result<T> {
    state
        .lock()
        .unwrap_or_else(|p| p.into_inner())
        .check_alive()?;
    f()
}

impl Vfs for FaultVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        plain_op(&self.state, || self.inner.open_read(path)).map(|f| self.wrap(f))
    }
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        plain_op(&self.state, || self.inner.open_read_write(path)).map(|f| self.wrap(f))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        plain_op(&self.state, || self.inner.create(path)).map(|f| self.wrap(f))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.state().sync_event()?;
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        plain_op(&self.state, || self.inner.remove_file(path))
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.state().sync_event()?;
        self.inner.sync_parent_dir(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let mut bytes = plain_op(&self.state, || self.inner.read(path))?;
        self.state().maybe_flip(&mut bytes);
        Ok(bytes)
    }
}

impl FaultState {
    /// Apply the bit-flip fault to a completed read's bytes, if this read
    /// is the scheduled one.
    fn maybe_flip(&mut self, bytes: &mut [u8]) {
        self.reads += 1;
        if let Some((nth, pick)) = self.plan.bit_flip_read {
            if self.reads == nth && !bytes.is_empty() {
                let i = (pick % bytes.len() as u64) as usize;
                bytes[i] ^= 1 << (pick % 8);
            }
        }
    }

    /// Gate one write of `len` bytes: returns how many bytes to persist,
    /// and the error to report afterwards (if any).
    fn gate_write(&mut self, len: usize) -> io::Result<(usize, Option<io::Error>)> {
        self.check_alive()?;
        self.writes += 1;
        let mut persist = len;
        let mut err = None;
        if let Some((nth, k)) = self.plan.short_write {
            if self.writes == nth {
                persist = persist.min(k);
                err = Some(io::Error::other(format!(
                    "injected short write ({persist} of {len} bytes persisted)"
                )));
            }
        }
        if let Some(budget) = self.plan.enospc_after {
            let room = budget.saturating_sub(self.written_bytes) as usize;
            if room < persist {
                persist = room;
                err = Some(io::Error::new(
                    io::ErrorKind::StorageFull,
                    "injected disk full (ENOSPC)",
                ));
            }
        }
        self.written_bytes += persist as u64;
        Ok((persist, err))
    }
}

/// A fault-injecting file handle produced by [`FaultVfs`].
#[derive(Debug)]
struct FaultFile {
    inner: Box<dyn VfsFile>,
    state: Arc<Mutex<FaultState>>,
}

impl FaultFile {
    fn state(&self) -> std::sync::MutexGuard<'_, FaultState> {
        self.state.lock().unwrap_or_else(|p| p.into_inner())
    }
}

impl VfsFile for FaultFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        self.state().check_alive()?;
        self.inner.read_exact_at(offset, out)?;
        self.state().maybe_flip(out);
        Ok(())
    }

    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        let (persist, err) = self.state().gate_write(data.len())?;
        self.inner.write_all(&data[..persist])?;
        match err {
            Some(e) => Err(e),
            None => Ok(()),
        }
    }

    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.state().check_alive()?;
        self.inner.seek_to(offset)
    }

    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.state().check_alive()?;
        self.inner.set_len(len)
    }

    fn sync_all(&mut self) -> io::Result<()> {
        {
            let mut st = self.state();
            st.sync_event()?;
            st.fsyncs += 1;
            if st.plan.fail_fsync == Some(st.fsyncs) {
                return Err(io::Error::other("injected fsync failure (EIO)"));
            }
        }
        self.inner.sync_all()
    }

    fn len(&mut self) -> io::Result<u64> {
        self.state().check_alive()?;
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use graphstore::TempDir;

    fn setup() -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("vfstest").unwrap();
        let path = dir.path().join("f.bin");
        (dir, path)
    }

    #[test]
    fn nth_fsync_fails_once() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan {
            fail_fsync: Some(2),
            ..FaultPlan::default()
        });
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap();
        assert!(f.sync_all().is_err());
        f.sync_all().unwrap();
    }

    #[test]
    fn short_write_persists_prefix_then_errors() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan {
            short_write: Some((2, 3)),
            ..FaultPlan::default()
        });
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        assert!(f.write_all(b"bbbb").is_err());
        drop(f);
        assert_eq!(StdVfs.read(&path).unwrap(), b"aaaabbb");
    }

    #[test]
    fn enospc_after_budget() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan {
            enospc_after: Some(6),
            ..FaultPlan::default()
        });
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"aaaa").unwrap();
        let err = f.write_all(b"bbbb").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::StorageFull);
        drop(f);
        assert_eq!(StdVfs.read(&path).unwrap(), b"aaaabb");
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_read() {
        let (_d, path) = setup();
        std::fs::write(&path, [0u8; 16]).unwrap();
        let vfs = FaultVfs::new(FaultPlan {
            bit_flip_read: Some((2, 5)),
            ..FaultPlan::default()
        });
        let mut f = vfs.open_read(&path).unwrap();
        let mut buf = [0u8; 16];
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(buf, [0u8; 16]);
        f.read_exact_at(0, &mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1);
        assert_eq!(buf[5], 1 << 5);
    }

    #[test]
    fn crash_before_sync_stops_the_world() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan {
            crash_before_sync: Some(2),
            ..FaultPlan::default()
        });
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"v1").unwrap();
        f.sync_all().unwrap(); // sync event 1
        f.write_all(b"v2").unwrap();
        let err = f.sync_all().unwrap_err(); // would be event 2: crash
        assert_eq!(err.to_string(), CRASH_MSG);
        assert!(vfs.crashed());
        // Everything after the crash fails, including plain ops.
        assert!(f.write_all(b"v3").is_err());
        assert!(vfs.create(&path).is_err());
        assert_eq!(vfs.sync_events(), 1);
        // Completed writes persisted; nothing after the crash did.
        assert_eq!(StdVfs.read(&path).unwrap(), b"v1v2");
    }

    #[test]
    fn renames_and_dir_syncs_are_sync_events() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan::default());
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap();
        drop(f);
        let dst = path.with_extension("renamed");
        vfs.rename(&path, &dst).unwrap();
        vfs.sync_parent_dir(&dst).unwrap();
        assert_eq!(vfs.sync_events(), 3);
    }

    #[test]
    fn set_plan_rearms_relative_to_now() {
        let (_d, path) = setup();
        let vfs = FaultVfs::new(FaultPlan::default());
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"x").unwrap();
        f.sync_all().unwrap();
        vfs.set_plan(FaultPlan {
            fail_fsync: Some(1),
            ..FaultPlan::default()
        });
        assert_eq!(vfs.sync_events(), 0);
        assert!(f.sync_all().is_err());
        f.sync_all().unwrap();
    }

    #[test]
    fn from_seed_is_deterministic_and_always_arms_something() {
        for seed in 0..64u64 {
            let a = FaultPlan::from_seed(seed);
            let b = FaultPlan::from_seed(seed);
            assert_eq!(format!("{a:?}"), format!("{b:?}"));
            assert!(
                a.fail_fsync.is_some()
                    || a.short_write.is_some()
                    || a.enospc_after.is_some()
                    || a.crash_before_sync.is_some()
            );
        }
    }
}
