//! Virtual filesystem seam: every byte this crate persists or reads back
//! flows through a [`Vfs`], so tests can inject disk misbehaviour —
//! failed fsyncs, short writes, a full disk, bit rot, crash-stop — at the
//! exact syscall where a real deployment would meet it.
//!
//! Production code uses [`StdVfs`], a zero-cost passthrough to `std::fs`,
//! and the scrubber wraps it in a [`ThrottledVfs`]. The fault injector the
//! tests build around it (`FaultVfs`, driven by a deterministic
//! `FaultPlan`, with the crash-stop model ARCHITECTURE.md's "Failure
//! model" describes) lives in the dev-only `testutil` crate and uses
//! nothing but this module's public surface, so it never ships in a
//! release build.

use std::fmt;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::Path;
use std::sync::{Arc, Mutex};

/// An open file handle behind the [`Vfs`] seam.
///
/// Methods take `&mut self` (handles are owned by single readers/writers
/// throughout this crate), and positional reads never disturb the write
/// cursor used by [`VfsFile::write_all`] / [`VfsFile::seek_to`].
// `len` is fallible and takes `&mut self`; an `is_empty` counterpart would
// be dead API weight for a seam nothing iterates over.
#[allow(clippy::len_without_is_empty)]
pub trait VfsFile: Send + fmt::Debug {
    /// Read exactly `out.len()` bytes starting at absolute `offset`.
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()>;
    /// Append/overwrite `data` at the current write cursor.
    fn write_all(&mut self, data: &[u8]) -> io::Result<()>;
    /// Move the write cursor to absolute `offset`.
    fn seek_to(&mut self, offset: u64) -> io::Result<()>;
    /// Truncate (or extend) the file to `len` bytes.
    fn set_len(&mut self, len: u64) -> io::Result<()>;
    /// Flush file contents and metadata to stable storage.
    fn sync_all(&mut self) -> io::Result<()>;
    /// Current length of the file in bytes.
    fn len(&mut self) -> io::Result<u64>;
}

/// The filesystem operations this crate's storage layer performs, as a
/// seam. All durability-relevant syscalls are here; see the module docs.
pub trait Vfs: Send + Sync + fmt::Debug {
    /// Open an existing file read-only.
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Open an existing file read+write (no truncation).
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Create (truncating if present) a file read+write.
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>>;
    /// Atomically rename `from` over `to`. A sync event.
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()>;
    /// Remove a file.
    fn remove_file(&self, path: &Path) -> io::Result<()>;
    /// Fsync the directory containing `path`, making a just-created or
    /// just-renamed entry durable. A sync event.
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()>;
    /// Read a whole file into memory.
    fn read(&self, path: &Path) -> io::Result<Vec<u8>>;
}

/// The production [`Vfs`]: a passthrough to `std::fs`.
#[derive(Debug, Default, Clone, Copy)]
pub struct StdVfs;

impl StdVfs {
    /// A shared handle to the passthrough vfs.
    pub fn arc() -> Arc<dyn Vfs> {
        Arc::new(StdVfs)
    }
}

/// [`VfsFile`] over a real [`File`].
#[derive(Debug)]
pub struct StdFile {
    file: File,
}

impl StdFile {
    /// Wrap an already-open [`File`] (write cursor wherever it is).
    pub fn new(file: File) -> Self {
        StdFile { file }
    }
}

impl VfsFile for StdFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        // A positional read must not move the write cursor: remember and
        // restore it around the seek+read pair.
        let cur = self.file.stream_position()?;
        self.file.seek(SeekFrom::Start(offset))?;
        let res = self.file.read_exact(out);
        self.file.seek(SeekFrom::Start(cur))?;
        res
    }
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        self.file.write_all(data)
    }
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset)).map(|_| ())
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.file.set_len(len)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.file.sync_all()
    }
    fn len(&mut self) -> io::Result<u64> {
        self.file.metadata().map(|m| m.len())
    }
}

impl Vfs for StdVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile::new(File::open(path)?)))
    }
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile::new(
            OpenOptions::new().read(true).write(true).open(path)?,
        )))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(StdFile::new(
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(true)
                .open(path)?,
        )))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        std::fs::rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        std::fs::remove_file(path)
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        if let Some(parent) = path.parent().filter(|p| !p.as_os_str().is_empty()) {
            File::open(parent)?.sync_all()?;
        }
        Ok(())
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        std::fs::read(path)
    }
}

/// A read-bandwidth-limited [`Vfs`] wrapper: every byte delivered by
/// [`VfsFile::read_exact_at`] or [`Vfs::read`] drains a shared token
/// bucket refilled at `bytes_per_sec`, and a caller that outruns the
/// bucket sleeps off its debt before the next read proceeds. This is the
/// integrity scrubber's read path: scrub traffic is pinned below a
/// bandwidth ceiling so it cannot starve foreground queries of disk,
/// while writes (repairs) pass through unthrottled.
///
/// The bucket allows a burst of up to one second's budget, carries debt
/// (a single oversized read completes, then pays for itself), and a rate
/// of `u64::MAX` disables throttling entirely.
#[derive(Debug)]
pub struct ThrottledVfs {
    inner: Arc<dyn Vfs>,
    bucket: Arc<Mutex<TokenBucket>>,
}

#[derive(Debug)]
struct TokenBucket {
    /// Refill rate in bytes per second; `f64` for sub-byte carry.
    rate: f64,
    /// Current balance in bytes. Negative = debt to sleep off.
    tokens: f64,
    last_refill: std::time::Instant,
    throttled_bytes: u64,
}

impl ThrottledVfs {
    /// Wrap `inner`, limiting read bandwidth to `bytes_per_sec`.
    pub fn new(inner: Arc<dyn Vfs>, bytes_per_sec: u64) -> Arc<ThrottledVfs> {
        Arc::new(ThrottledVfs {
            inner,
            bucket: Arc::new(Mutex::new(TokenBucket {
                rate: bytes_per_sec as f64,
                tokens: bytes_per_sec as f64,
                last_refill: std::time::Instant::now(),
                throttled_bytes: 0,
            })),
        })
    }

    /// Total bytes that have drained the bucket since creation.
    pub fn throttled_bytes(&self) -> u64 {
        self.bucket
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .throttled_bytes
    }
}

/// Drain `n` bytes from the bucket, sleeping off any debt *outside* the
/// lock so concurrent readers are paced, not serialized.
fn acquire(bucket: &Arc<Mutex<TokenBucket>>, n: u64) {
    let wait = {
        let mut b = bucket.lock().unwrap_or_else(|p| p.into_inner());
        if b.rate >= u64::MAX as f64 {
            return;
        }
        let now = std::time::Instant::now();
        let refill = now.duration_since(b.last_refill).as_secs_f64() * b.rate;
        // Burst capacity: at most one second's budget banks up.
        b.tokens = (b.tokens + refill).min(b.rate);
        b.last_refill = now;
        b.tokens -= n as f64;
        b.throttled_bytes += n;
        if b.tokens < 0.0 {
            std::time::Duration::from_secs_f64(-b.tokens / b.rate)
        } else {
            return;
        }
    };
    std::thread::sleep(wait);
}

impl Vfs for ThrottledVfs {
    fn open_read(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(ThrottledFile {
            inner: self.inner.open_read(path)?,
            bucket: Arc::clone(&self.bucket),
        }))
    }
    fn open_read_write(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(ThrottledFile {
            inner: self.inner.open_read_write(path)?,
            bucket: Arc::clone(&self.bucket),
        }))
    }
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        // Writes pass through unthrottled; only reads are paced.
        self.inner.create(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.inner.remove_file(path)
    }
    fn sync_parent_dir(&self, path: &Path) -> io::Result<()> {
        self.inner.sync_parent_dir(path)
    }
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        let bytes = self.inner.read(path)?;
        acquire(&self.bucket, bytes.len() as u64);
        Ok(bytes)
    }
}

/// A rate-limited read handle produced by [`ThrottledVfs`].
#[derive(Debug)]
struct ThrottledFile {
    inner: Box<dyn VfsFile>,
    bucket: Arc<Mutex<TokenBucket>>,
}

impl VfsFile for ThrottledFile {
    fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> io::Result<()> {
        acquire(&self.bucket, out.len() as u64);
        self.inner.read_exact_at(offset, out)
    }
    fn write_all(&mut self, data: &[u8]) -> io::Result<()> {
        self.inner.write_all(data)
    }
    fn seek_to(&mut self, offset: u64) -> io::Result<()> {
        self.inner.seek_to(offset)
    }
    fn set_len(&mut self, len: u64) -> io::Result<()> {
        self.inner.set_len(len)
    }
    fn sync_all(&mut self) -> io::Result<()> {
        self.inner.sync_all()
    }
    fn len(&mut self) -> io::Result<u64> {
        self.inner.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tempdir::TempDir;

    fn setup() -> (TempDir, std::path::PathBuf) {
        let dir = TempDir::new("vfstest").unwrap();
        let path = dir.path().join("f.bin");
        (dir, path)
    }

    #[test]
    fn std_vfs_round_trips_and_positional_read_keeps_cursor() {
        let (_d, path) = setup();
        let vfs = StdVfs;
        let mut f = vfs.create(&path).unwrap();
        f.write_all(b"hello ").unwrap();
        let mut head = [0u8; 3];
        f.read_exact_at(0, &mut head).unwrap();
        assert_eq!(&head, b"hel");
        // The positional read must not have moved the append cursor.
        f.write_all(b"world").unwrap();
        f.sync_all().unwrap();
        assert_eq!(vfs.read(&path).unwrap(), b"hello world");
        assert_eq!(f.len().unwrap(), 11);
    }

    #[test]
    fn throttled_vfs_paces_reads_and_counts_bytes() {
        let (_d, path) = setup();
        std::fs::write(&path, vec![7u8; 4096]).unwrap();
        // 8 KiB/s with a 8 KiB burst: the first 8 KiB is free, the next
        // 4 KiB must wait ~half a second.
        let vfs = ThrottledVfs::new(StdVfs::arc(), 8 * 1024);
        let mut f = vfs.open_read(&path).unwrap();
        let mut buf = vec![0u8; 4096];
        let start = std::time::Instant::now();
        f.read_exact_at(0, &mut buf).unwrap();
        f.read_exact_at(0, &mut buf).unwrap();
        assert!(start.elapsed() < std::time::Duration::from_millis(200));
        f.read_exact_at(0, &mut buf).unwrap();
        assert!(
            start.elapsed() >= std::time::Duration::from_millis(400),
            "third read should have slept off ~0.5s of bucket debt"
        );
        assert_eq!(vfs.throttled_bytes(), 3 * 4096);
        assert_eq!(buf, vec![7u8; 4096]);
    }

    #[test]
    fn throttled_vfs_max_rate_is_a_passthrough() {
        let (_d, path) = setup();
        std::fs::write(&path, vec![1u8; 64 * 1024]).unwrap();
        let vfs = ThrottledVfs::new(StdVfs::arc(), u64::MAX);
        let start = std::time::Instant::now();
        for _ in 0..64 {
            assert_eq!(vfs.read(&path).unwrap().len(), 64 * 1024);
        }
        assert!(start.elapsed() < std::time::Duration::from_secs(2));
    }
}
