//! Write-ahead journal for graph maintenance: append-only, checksummed,
//! torn-tail tolerant.
//!
//! A [`Wal`] is the durability half of the maintenance path: every edge
//! update is appended here *before* it is applied to the in-memory state
//! and fsynced before its success is reported, so a crash at any instant
//! loses at most work the caller was never told succeeded. The file
//! layout is deliberately minimal:
//!
//! ```text
//! "KCORWAL1"                                  8-byte magic
//! [ len: u32 | crc32(payload): u32 | payload ]*   records, back to back
//! ```
//!
//! Payloads are opaque to this module; the maintenance layer encodes its
//! typed operation records (sequence number + op) into them. The reader
//! ([`Wal::open`]) walks records front to back and stops at the first one
//! that does not fully validate — a short length prefix, a payload running
//! past end of file, or a checksum mismatch. Everything before that point
//! is returned; everything after is the *torn tail* a mid-append crash
//! leaves behind, and is physically truncated away so subsequent appends
//! extend a clean log. A torn tail can therefore cost at most the one
//! record whose append never completed — exactly the op whose success was
//! never acknowledged.
//!
//! ## I/O pricing
//!
//! WAL traffic is charged to the owning graph's [`IoCounter`] with the same
//! block rule as every other file in this crate: an append charges one
//! write I/O per `B`-sized block boundary it touches (so a stream of small
//! records costs `ceil(bytes / B)` writes, not one write per record), and
//! the recovery scan charges `ceil(file_len / B)` read I/Os — one
//! sequential pass. The fsync per append is a wall-clock cost only; the
//! model counts blocks, not barriers.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

use crate::codec;
use crate::error::{Error, Result};
use crate::io::{sync_parent_dir, IoCounter};
use crate::vfs::VfsFile;

/// Magic bytes opening a WAL file.
pub const WAL_MAGIC: &[u8; 8] = b"KCORWAL1";

/// Size of the per-record framing (`len: u32, crc: u32`).
const RECORD_HEADER_LEN: usize = 8;

/// Upper bound on a single record payload — far above anything the
/// maintenance layer writes, low enough that a corrupt length prefix can
/// never drive a large allocation.
pub const MAX_RECORD_LEN: usize = 1 << 20;

/// An append-only maintenance journal. See the [module docs](self) for the
/// format, the torn-tail contract and the I/O pricing.
#[derive(Debug)]
pub struct Wal {
    file: Box<dyn VfsFile>,
    path: PathBuf,
    counter: Arc<IoCounter>,
    /// Append position == current file length (torn tails are truncated at
    /// open, so the two never diverge).
    pos: u64,
    /// Set when a failed append could not be rolled back: the on-disk
    /// length no longer matches `pos`, so further appends could produce
    /// duplicate or misframed records. A poisoned journal refuses writes;
    /// reopening the file recovers (the torn bytes are truncated).
    poisoned: bool,
}

impl Wal {
    /// Create (or overwrite) an empty journal at `path`, fsyncing the file
    /// and its directory entry.
    pub fn create(path: &Path, counter: Arc<IoCounter>) -> Result<Wal> {
        let mut file = counter.vfs().create(path)?;
        file.write_all(WAL_MAGIC)?;
        file.sync_all()?;
        sync_parent_dir(counter.vfs().as_ref(), path)?;
        counter.charge_write(1, WAL_MAGIC.len() as u64);
        Ok(Wal {
            file,
            path: path.to_path_buf(),
            counter,
            pos: WAL_MAGIC.len() as u64,
            poisoned: false,
        })
    }

    /// Open the journal at `path`, returning the handle positioned for
    /// appending plus every intact record payload in write order.
    ///
    /// The scan stops at the first record that fails to validate and
    /// truncates the file there (see the module docs): a torn trailing
    /// append disappears, never a completed one. One sequential read of the
    /// whole file is charged to `counter`.
    pub fn open(path: &Path, counter: Arc<IoCounter>) -> Result<(Wal, Vec<Vec<u8>>)> {
        let mut file = counter.vfs().open_read_write(path)?;
        let file_len = file.len()?;
        let mut bytes = vec![0u8; file_len as usize];
        file.read_exact_at(0, &mut bytes)?;
        let b = counter.block_size() as u64;
        counter.charge_read((bytes.len() as u64).div_ceil(b).max(1), bytes.len() as u64);

        let scan = scan_bytes(&bytes, path)?;
        let pos = scan.valid_len;
        if pos < file_len {
            // Drop the torn tail so appends extend a clean log.
            file.set_len(pos)?;
            file.sync_all()?;
        }
        file.seek_to(pos)?;
        Ok((
            Wal {
                file,
                path: path.to_path_buf(),
                counter,
                pos,
                poisoned: false,
            },
            scan.records,
        ))
    }

    /// Read-only scan of the journal at `path`: every intact record, where
    /// each one ends, and how much of the file validates — without
    /// truncating anything. This is `fsck`'s view: it can report a torn or
    /// corrupt tail (`valid_len < file_len`) and leave the evidence on
    /// disk. One sequential read of the whole file is charged.
    pub fn scan(path: &Path, counter: &IoCounter) -> Result<WalScan> {
        let bytes = counter.vfs().read(path)?;
        let b = counter.block_size() as u64;
        counter.charge_read((bytes.len() as u64).div_ceil(b).max(1), bytes.len() as u64);
        scan_bytes(&bytes, path)
    }

    /// Append one record and fsync it. When this returns `Ok`, the record
    /// survives any crash; when the process dies mid-append, the torn bytes
    /// are dropped by the next [`Wal::open`].
    ///
    /// When the write or fsync itself fails, the bytes that landed — which
    /// may be a *complete but unacknowledged* record — are truncated away
    /// so a retried append can never produce a duplicate or misframed
    /// record. If even that cleanup fails, the journal poisons itself and
    /// refuses further appends (reopening the file recovers).
    pub fn append(&mut self, payload: &[u8]) -> Result<()> {
        self.append_inner(payload, true)
    }

    /// [`Wal::append`] without the fsync: the record is written (and
    /// charged) but **not yet durable** — a crash can lose it even after
    /// this returns `Ok`. This is the building block of group commit: a
    /// [`GroupCommitWal`] follows a batch of unsynced appends with one
    /// barrier for the lot. The failure cleanup is identical to
    /// [`Wal::append`].
    pub fn append_unsynced(&mut self, payload: &[u8]) -> Result<()> {
        self.append_inner(payload, false)
    }

    fn append_inner(&mut self, payload: &[u8], sync: bool) -> Result<()> {
        if self.poisoned {
            return Err(Error::Io(std::io::Error::other(format!(
                "journal {} is poisoned by an earlier failed append; reopen it",
                self.path.display()
            ))));
        }
        if payload.len() > MAX_RECORD_LEN {
            return Err(Error::InvalidArgument(format!(
                "WAL record of {} bytes exceeds the {MAX_RECORD_LEN}-byte cap",
                payload.len()
            )));
        }
        let mut rec = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
        rec.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        rec.extend_from_slice(&codec::crc32(payload).to_le_bytes());
        rec.extend_from_slice(payload);
        let written =
            self.file.write_all(&rec).and_then(
                |()| {
                    if sync {
                        self.file.sync_all()
                    } else {
                        Ok(())
                    }
                },
            );
        if let Err(e) = written {
            // The truncation must itself be fsynced: set_len alone lives in
            // the page cache, and a crash after writeback persisted the
            // record bytes — but before anything persisted the shorter
            // length — would resurrect a record whose failure was reported.
            let restored = self
                .file
                .set_len(self.pos)
                .and_then(|()| self.file.seek_to(self.pos))
                .and_then(|()| self.file.sync_all());
            if restored.is_err() {
                self.poisoned = true;
            }
            return Err(e.into());
        }
        self.charge_append(rec.len() as u64);
        Ok(())
    }

    /// Discard every record (after a checkpoint has made them redundant),
    /// keeping the header so the file stays a valid empty journal.
    pub fn truncate(&mut self) -> Result<()> {
        self.rollback_to(WAL_MAGIC.len() as u64)
    }

    /// Roll the journal back to a previous [`Wal::len_bytes`] watermark,
    /// durably discarding the records appended since. This is the undo for
    /// an append whose higher-level application then failed: the journal
    /// must not keep a record of an op whose failure was reported to the
    /// caller (replaying it on recovery would diverge from the
    /// acknowledged history, and reusing its sequence number would corrupt
    /// the journal's gap check).
    pub fn rollback_to(&mut self, len: u64) -> Result<()> {
        if len < WAL_MAGIC.len() as u64 || len > self.pos {
            return Err(Error::InvalidArgument(format!(
                "cannot roll a {}-byte journal back to {len} bytes",
                self.pos
            )));
        }
        self.file.set_len(len)?;
        self.file.seek_to(len)?;
        self.file.sync_all()?;
        self.pos = len;
        // Length and position are consistent again; un-poison if a failed
        // append's cleanup had given up.
        self.poisoned = false;
        Ok(())
    }

    /// Bytes currently in the journal (header included).
    pub fn len_bytes(&self) -> u64 {
        self.pos
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Charge an append of `bytes` with the block rule: one write I/O per
    /// block boundary newly touched (same formula as
    /// [`BlockWriter`](crate::io::BlockWriter)).
    fn charge_append(&mut self, bytes: u64) {
        let b = self.counter.block_size() as u64;
        let start_block = self.pos / b;
        let end = self.pos + bytes;
        let end_block = (end - 1) / b;
        let mut blocks = end_block - start_block + 1;
        if !self.pos.is_multiple_of(b) {
            blocks -= 1;
        }
        self.counter.charge_write(blocks, bytes);
        self.pos = end;
    }
}

/// Tuning knobs for a [`GroupCommitWal`].
#[derive(Debug, Clone, Copy)]
pub struct GroupCommitOptions {
    /// How long an fsync leader waits before capturing its batch, giving
    /// concurrent submitters time to land their records in the same
    /// barrier. Zero disables the gather window (the leader still absorbs
    /// every record written before its fsync starts, so batching under
    /// load happens either way — the window just widens the batch at the
    /// cost of per-op latency).
    pub max_delay: Duration,
}

impl Default for GroupCommitOptions {
    fn default() -> Self {
        GroupCommitOptions {
            max_delay: Duration::from_micros(100),
        }
    }
}

/// Follower wait quantum: a bounded condvar wait so a waiter re-checks for
/// leadership even in the (theoretical) event of a missed wakeup.
const FOLLOWER_WAIT: Duration = Duration::from_millis(20);

/// Lock one of the group's metadata mutexes, recovering from poison. Every
/// protected structure here is updated in single assignments (counters,
/// flags) or by [`Wal`] methods that restore their own invariants on
/// failure, so adopting a panicking holder's state is safe.
fn relock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}

/// A [`Wal`] shared by concurrent writers with **group commit**: records
/// are appended without an fsync ([`GroupCommitWal::submit`]) and made
/// durable in batches by [`GroupCommitWal::wait_durable`], which elects one
/// waiting thread the *leader* — it issues a single fsync covering every
/// record written up to that instant, and all *followers* whose records
/// the barrier covered return without ever touching the disk. A high-rate
/// update stream thus pays one fsync per batch instead of one per op.
///
/// ## Protocol
///
/// Appends go to the journal's write handle under the append lock; the
/// fsync goes to a **second handle on the same file** (POSIX `fsync`
/// flushes the inode, not the descriptor's own writes), so submitters keep
/// appending *while* the leader's barrier is in flight — that overlap is
/// where the batching comes from. Leadership is a `try_lock` on the
/// committer handle: whoever gets it sleeps `max_delay` (the gather
/// window), snapshots the highest written LSN, fsyncs, publishes it as the
/// durable LSN and wakes everyone. Woken waiters whose LSN is still not
/// durable loop and elect the next leader.
///
/// ## Crash window
///
/// An op is *acknowledged* only once its LSN is ≤ the durable LSN. A crash
/// loses the unsynced suffix — possibly several submitted-but-unacked
/// records — and [`Wal::open`] truncates any torn tail, so recovery always
/// observes a clean **prefix** of the submit order that covers at least
/// every acknowledged record: acked-prefix, or acked-prefix plus some
/// still-in-flight records, never a gap and never a partially-acked batch.
///
/// A checkpoint elsewhere can make pending records durable through a
/// different file; [`GroupCommitWal::truncate_satisfy`] is the hook that
/// then empties the journal and releases every waiter successfully.
#[derive(Debug)]
pub struct GroupCommitWal {
    /// The journal and the LSN allocator, under the append lock.
    append: Mutex<GroupAppend>,
    /// Second handle to the same file, used only for fsync. Held (blocking
    /// out other leaders, but **not** submitters) for the duration of each
    /// barrier.
    committer: Mutex<Box<dyn VfsFile>>,
    /// Durability watermarks and the sticky barrier error.
    progress: Mutex<Progress>,
    /// Wakes followers when the durable LSN advances (or a barrier fails).
    cv: Condvar,
    opts: GroupCommitOptions,
}

#[derive(Debug)]
struct GroupAppend {
    wal: Wal,
    /// LSN handed to the next submit. LSNs are 1-based and never reused —
    /// a rolled-back record's LSN stays consumed, so a stale durable
    /// watermark can never vouch for a record that was never written.
    next_lsn: u64,
}

#[derive(Debug)]
struct Progress {
    /// Highest LSN covered by a completed barrier (or checkpoint).
    durable_lsn: u64,
    /// Highest LSN whose record is written (the next barrier's target).
    written_lsn: u64,
    /// First barrier failure, sticky: once an fsync fails the journal's
    /// durable frontier is unknowable, so every outstanding and future
    /// wait reports it (the serving layer quarantines the graph).
    sync_error: Option<String>,
}

impl GroupCommitWal {
    /// Wrap `wal` for group commit, opening the second (fsync) handle on
    /// the same file through the journal's own [`Vfs`](crate::Vfs).
    pub fn wrap(wal: Wal, opts: GroupCommitOptions) -> Result<GroupCommitWal> {
        let committer = wal.counter.vfs().open_read_write(&wal.path)?;
        Ok(GroupCommitWal {
            append: Mutex::new(GroupAppend { wal, next_lsn: 1 }),
            committer: Mutex::new(committer),
            progress: Mutex::new(Progress {
                durable_lsn: 0,
                written_lsn: 0,
                sync_error: None,
            }),
            cv: Condvar::new(),
            opts,
        })
    }

    /// Append one record *without* a barrier and return its LSN. The
    /// record is not durable until [`GroupCommitWal::wait_durable`] (or a
    /// checkpoint via [`GroupCommitWal::truncate_satisfy`]) covers the
    /// returned LSN.
    pub fn submit(&self, payload: &[u8]) -> Result<u64> {
        let mut ap = relock(&self.append);
        ap.wal.append_unsynced(payload)?;
        let lsn = ap.next_lsn;
        ap.next_lsn += 1;
        drop(ap);
        let mut p = relock(&self.progress);
        p.written_lsn = p.written_lsn.max(lsn);
        Ok(lsn)
    }

    /// The journal's current byte watermark (for
    /// [`GroupCommitWal::rollback_to`]).
    pub fn mark(&self) -> u64 {
        relock(&self.append).wal.len_bytes()
    }

    /// Durably discard the bytes appended since `mark` — the undo for a
    /// submit whose higher-level application then failed. The rolled-back
    /// record's LSN stays consumed (LSNs are never reissued); callers
    /// must hold whatever higher-level lock serializes submits, so the
    /// discarded bytes are always the newest ones.
    pub fn rollback_to(&self, mark: u64) -> Result<()> {
        relock(&self.append).wal.rollback_to(mark)
    }

    /// Immediate barrier over everything submitted so far: block until
    /// every record written at the time of the call is durable, without
    /// the gather delay. The server's drain path calls this before
    /// closing sockets so no acknowledged op rides on an unissued
    /// barrier.
    pub fn flush(&self) -> Result<()> {
        let target = relock(&self.progress).written_lsn;
        self.wait_durable(target, false)
    }

    /// Block until every record up to `lsn` is durable — acknowledged by a
    /// completed fsync barrier or absorbed into a checkpoint. With
    /// `gather`, a thread elected leader waits the configured `max_delay`
    /// before its barrier so concurrent submits can join the batch; without
    /// it the barrier is issued immediately (explicit flushes).
    pub fn wait_durable(&self, lsn: u64, gather: bool) -> Result<()> {
        loop {
            {
                let p = relock(&self.progress);
                if let Some(e) = barrier_error(&p, lsn) {
                    return Err(e);
                }
                if p.durable_lsn >= lsn {
                    return Ok(());
                }
            }
            if let Ok(mut file) = self.committer.try_lock() {
                // Leader: gather, snapshot the batch, one barrier for all.
                if gather && !self.opts.max_delay.is_zero() {
                    std::thread::sleep(self.opts.max_delay);
                }
                let target = {
                    let p = relock(&self.progress);
                    if p.durable_lsn >= lsn && p.sync_error.is_none() {
                        // A checkpoint satisfied everyone mid-election.
                        continue;
                    }
                    p.written_lsn
                };
                let res = file.sync_all();
                drop(file);
                let mut p = relock(&self.progress);
                match res {
                    Ok(()) => p.durable_lsn = p.durable_lsn.max(target),
                    Err(e) => {
                        if p.sync_error.is_none() {
                            p.sync_error = Some(e.to_string());
                        }
                    }
                }
                self.cv.notify_all();
                if let Some(e) = barrier_error(&p, lsn) {
                    return Err(e);
                }
                if p.durable_lsn >= lsn {
                    return Ok(());
                }
                // Our record landed after the snapshot; go around again.
            } else {
                // Follower: wait for the current leader's barrier. The
                // bounded wait means a waiter never hangs on a missed
                // wakeup; it just re-checks and stands for election.
                let mut p = relock(&self.progress);
                while p.durable_lsn < lsn && p.sync_error.is_none() {
                    let (guard, timeout) = self
                        .cv
                        .wait_timeout(p, FOLLOWER_WAIT)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                    p = guard;
                    if timeout.timed_out() {
                        break;
                    }
                }
            }
        }
    }

    /// Empty the journal after a checkpoint has made every submitted
    /// record durable elsewhere: truncate the file and release all
    /// outstanding waiters successfully (their ops are covered by the
    /// checkpoint, which is already durably in place when this is called).
    pub fn truncate_satisfy(&self) -> Result<()> {
        let mut ap = relock(&self.append);
        ap.wal.truncate()?;
        drop(ap);
        let mut p = relock(&self.progress);
        p.durable_lsn = p.durable_lsn.max(p.written_lsn);
        self.cv.notify_all();
        Ok(())
    }

    /// Highest LSN covered by a completed barrier or checkpoint.
    pub fn durable_lsn(&self) -> u64 {
        relock(&self.progress).durable_lsn
    }
}

/// The sticky barrier failure as a typed error, if `lsn` is past the
/// durable frontier (records at or below it were acknowledged by a barrier
/// that *did* complete, so they stay good).
fn barrier_error(p: &Progress, lsn: u64) -> Option<Error> {
    match &p.sync_error {
        Some(e) if lsn > p.durable_lsn => Some(Error::Io(std::io::Error::other(format!(
            "group-commit barrier failed: {e}"
        )))),
        _ => None,
    }
}

/// What a read-only [`Wal::scan`] saw: the intact record prefix and how
/// much of the file it covers.
#[derive(Debug)]
pub struct WalScan {
    /// Every record payload that fully validated, in write order.
    pub records: Vec<Vec<u8>>,
    /// Byte offset just past each record in `records` (parallel vector).
    pub record_ends: Vec<u64>,
    /// Offset up to which the file validates (magic + intact records). A
    /// repair truncates here.
    pub valid_len: u64,
    /// Actual file length. `valid_len < file_len` means a torn or corrupt
    /// tail follows the intact prefix.
    pub file_len: u64,
}

/// Walk `bytes` as a WAL image: magic check, then the intact record
/// prefix. Shared by the truncating open and the read-only scan.
fn scan_bytes(bytes: &[u8], path: &Path) -> Result<WalScan> {
    if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
        return Err(Error::corrupt(format!(
            "bad WAL magic in {}",
            path.display()
        )));
    }
    let mut records = Vec::new();
    let mut record_ends = Vec::new();
    let mut pos = WAL_MAGIC.len();
    // A failed decode is the torn (or absent) tail: keep the prefix.
    while let Some((payload, end)) = decode_record(bytes, pos) {
        records.push(payload);
        record_ends.push(end as u64);
        pos = end;
    }
    Ok(WalScan {
        records,
        record_ends,
        valid_len: pos as u64,
        file_len: bytes.len() as u64,
    })
}

/// Decode the record starting at `pos`, returning `(payload, end offset)`
/// when it fully validates and `None` when the bytes from `pos` on are a
/// torn tail (short header, truncated payload, oversized length, or
/// checksum mismatch).
fn decode_record(bytes: &[u8], pos: usize) -> Option<(Vec<u8>, usize)> {
    let header_end = pos.checked_add(RECORD_HEADER_LEN)?;
    if header_end > bytes.len() {
        return None;
    }
    let len = codec::get_u32(bytes, pos) as usize;
    let crc = codec::get_u32(bytes, pos + 4);
    if len > MAX_RECORD_LEN {
        return None;
    }
    let end = header_end.checked_add(len)?;
    if end > bytes.len() {
        return None;
    }
    let payload = &bytes[header_end..end];
    if codec::crc32(payload) != crc {
        return None;
    }
    Some((payload.to_vec(), end))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DEFAULT_BLOCK_SIZE;
    use crate::tempdir::TempDir;

    fn counter() -> Arc<IoCounter> {
        IoCounter::new(DEFAULT_BLOCK_SIZE)
    }

    fn wal_path(dir: &TempDir) -> PathBuf {
        dir.path().join("test.wal")
    }

    #[test]
    fn create_append_reopen_round_trip() {
        let dir = TempDir::new("wal").unwrap();
        let path = wal_path(&dir);
        {
            let mut w = Wal::create(&path, counter()).unwrap();
            w.append(b"alpha").unwrap();
            w.append(b"").unwrap();
            w.append(&[7u8; 300]).unwrap();
        }
        let (_w, records) = Wal::open(&path, counter()).unwrap();
        assert_eq!(records.len(), 3);
        assert_eq!(records[0], b"alpha");
        assert_eq!(records[1], b"");
        assert_eq!(records[2], vec![7u8; 300]);
    }

    #[test]
    fn appends_after_reopen_extend_the_log() {
        let dir = TempDir::new("wal").unwrap();
        let path = wal_path(&dir);
        {
            let mut w = Wal::create(&path, counter()).unwrap();
            w.append(b"one").unwrap();
        }
        {
            let (mut w, records) = Wal::open(&path, counter()).unwrap();
            assert_eq!(records.len(), 1);
            w.append(b"two").unwrap();
        }
        let (_w, records) = Wal::open(&path, counter()).unwrap();
        assert_eq!(records, vec![b"one".to_vec(), b"two".to_vec()]);
    }

    #[test]
    fn rollback_undoes_only_the_newest_appends() {
        let dir = TempDir::new("wal").unwrap();
        let path = wal_path(&dir);
        let mut w = Wal::create(&path, counter()).unwrap();
        w.append(b"kept").unwrap();
        let mark = w.len_bytes();
        w.append(b"doomed").unwrap();
        w.append(b"also doomed").unwrap();
        w.rollback_to(mark).unwrap();
        assert!(w.rollback_to(mark + 1).is_err(), "cannot roll forward");
        assert!(w.rollback_to(2).is_err(), "cannot roll into the header");
        w.append(b"after").unwrap();
        drop(w);
        let (_w, records) = Wal::open(&path, counter()).unwrap();
        assert_eq!(records, vec![b"kept".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn truncate_empties_but_preserves_validity() {
        let dir = TempDir::new("wal").unwrap();
        let path = wal_path(&dir);
        let mut w = Wal::create(&path, counter()).unwrap();
        w.append(b"gone").unwrap();
        w.truncate().unwrap();
        w.append(b"kept").unwrap();
        drop(w);
        let (_w, records) = Wal::open(&path, counter()).unwrap();
        assert_eq!(records, vec![b"kept".to_vec()]);
    }

    #[test]
    fn torn_tail_at_every_offset_drops_at_most_the_last_record() {
        let dir = TempDir::new("wal").unwrap();
        let path = wal_path(&dir);
        let mut w = Wal::create(&path, counter()).unwrap();
        w.append(b"first record").unwrap();
        let intact_len = w.len_bytes();
        w.append(b"second record, the victim").unwrap();
        let full_len = w.len_bytes();
        drop(w);
        let bytes = std::fs::read(&path).unwrap();

        for cut in intact_len..full_len {
            let torn = dir.path().join(format!("torn{cut}.wal"));
            std::fs::write(&torn, &bytes[..cut as usize]).unwrap();
            let (mut reopened, records) = Wal::open(&torn, counter()).unwrap();
            if cut == full_len {
                assert_eq!(records.len(), 2);
            } else {
                assert_eq!(
                    records,
                    vec![b"first record".to_vec()],
                    "cut at byte {cut} must keep exactly the intact prefix"
                );
            }
            // The log stays appendable after tail truncation.
            reopened.append(b"post-recovery").unwrap();
            drop(reopened);
            let (_w, records) = Wal::open(&torn, counter()).unwrap();
            assert_eq!(records.last().unwrap(), &b"post-recovery".to_vec());
        }
    }

    #[test]
    fn corrupted_payload_byte_is_dropped_like_a_torn_tail() {
        let dir = TempDir::new("wal").unwrap();
        let path = wal_path(&dir);
        let mut w = Wal::create(&path, counter()).unwrap();
        w.append(b"good").unwrap();
        let keep = w.len_bytes() as usize;
        w.append(b"bitrot target").unwrap();
        drop(w);
        let mut bytes = std::fs::read(&path).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();
        let (w, records) = Wal::open(&path, counter()).unwrap();
        assert_eq!(records, vec![b"good".to_vec()]);
        assert_eq!(w.len_bytes() as usize, keep, "invalid tail truncated");
    }

    #[test]
    fn bad_magic_is_corrupt() {
        let dir = TempDir::new("wal").unwrap();
        let path = wal_path(&dir);
        std::fs::write(&path, b"NOTAWAL!").unwrap();
        assert!(Wal::open(&path, counter()).unwrap_err().is_corrupt());
        std::fs::write(&path, b"KC").unwrap();
        assert!(Wal::open(&path, counter()).unwrap_err().is_corrupt());
    }

    #[test]
    fn oversized_record_is_rejected_at_append() {
        let dir = TempDir::new("wal").unwrap();
        let mut w = Wal::create(&wal_path(&dir), counter()).unwrap();
        let huge = vec![0u8; MAX_RECORD_LEN + 1];
        assert!(w.append(&huge).is_err());
    }

    #[test]
    fn group_commit_truncate_satisfy_releases_waiters() {
        let dir = TempDir::new("gwal").unwrap();
        let path = wal_path(&dir);
        let wal = Wal::create(&path, counter()).unwrap();
        let group = GroupCommitWal::wrap(wal, GroupCommitOptions::default()).unwrap();
        for p in [b"x".as_slice(), b"y"] {
            group.submit(p).unwrap();
        }
        group.truncate_satisfy().unwrap();
        // Both records are covered (by the caller's checkpoint) without a
        // barrier of their own, and the journal is empty again.
        group.wait_durable(2, false).unwrap();
        assert_eq!(group.mark(), WAL_MAGIC.len() as u64);
        let lsn = group.submit(b"z").unwrap();
        assert_eq!(lsn, 3, "LSNs keep counting across truncation");
        group.wait_durable(lsn, false).unwrap();
        drop(group);
        let (_w, records) = Wal::open(&path, counter()).unwrap();
        assert_eq!(records, vec![b"z".to_vec()]);
    }

    #[test]
    fn group_commit_rollback_discards_record_but_consumes_its_lsn() {
        let dir = TempDir::new("gwal").unwrap();
        let path = wal_path(&dir);
        let wal = Wal::create(&path, counter()).unwrap();
        let group = GroupCommitWal::wrap(wal, GroupCommitOptions::default()).unwrap();
        let first = group.submit(b"kept").unwrap();
        let mark = group.mark();
        group.submit(b"doomed").unwrap();
        group.rollback_to(mark).unwrap();
        group.wait_durable(first, false).unwrap();
        let third = group.submit(b"after").unwrap();
        assert_eq!(third, 3, "rolled-back LSN 2 is consumed, not reused");
        group.wait_durable(third, false).unwrap();
        drop(group);
        let (_w, records) = Wal::open(&path, counter()).unwrap();
        assert_eq!(records, vec![b"kept".to_vec(), b"after".to_vec()]);
    }

    #[test]
    fn appends_charge_write_ios_per_block() {
        let dir = TempDir::new("wal").unwrap();
        let c = IoCounter::new(64);
        let mut w = Wal::create(&wal_path(&dir), c.clone()).unwrap();
        let before = c.snapshot().write_ios;
        // 10 records of 8+8=16 bytes each = 160 bytes from offset 8:
        // touches blocks 0..=2 of 64 bytes; block 0 already charged by
        // create, so ceil pricing adds 2 more.
        for _ in 0..10 {
            w.append(&[1u8; 8]).unwrap();
        }
        assert_eq!(c.snapshot().write_ios - before, 2);
    }
}
