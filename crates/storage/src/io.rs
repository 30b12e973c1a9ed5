//! External-memory cost model: block-granular I/O accounting.
//!
//! The paper analyses every algorithm in the external memory model of
//! Aggarwal & Vitter: memory holds `M` bytes, the disk transfers blocks of
//! `B` bytes, and the cost of an execution is the number of blocks read and
//! written. This module makes that model *operational*: all disk access in
//! this crate flows through [`BlockReader`] / [`BlockWriter`], which charge an
//! [`IoCounter`] per block fetched.
//!
//! Counting rule: one read I/O is a miss of the reader's frame pool;
//! unattached readers own one frame. A reader fetches the blocks `s..=e` a
//! request spans in ascending order, so with its one frame it pays for
//! every block except the one the previous request ended in (still
//! buffered). A sequential scan of `N` bytes then costs exactly
//! `ceil(N / B)` I/Os while random accesses pay for every block they
//! touch — the same accounting the paper uses when it reports "I/Os" in
//! Figures 9 and 10. A larger pool ([`BlockCache`]) only turns more
//! fetches into hits.
//!
//! Physical reads use a read-ahead window larger than `B` for speed; the
//! charged I/O count is independent of the window size.
//!
//! ## Charged vs physical reads
//!
//! `read_ios` is the *model's* currency — what the paper's figures plot.
//! `physical_reads` counts blocks actually fetched from disk into a frame.
//! The counters are equal in every single-graph configuration; they diverge
//! only for graphs opened against a process-wide
//! [`SharedPool`](crate::pool::SharedPool), where the model charge comes
//! from a deterministic per-graph *charge cache* (the graph's own budget
//! `M`) while the bytes are served by the shared pool, whose residency —
//! and therefore physical fetch count — depends on what *other* graphs are
//! doing with the common budget. See [`BlockReader::open_cached_with_charge`].
//!
//! All opens, reads, writes and syncs are routed through the counter's
//! [`Vfs`] seam, so fault-injection tests can fail any syscall the engine
//! issues (see [`crate::vfs`]).

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use crate::cache::BlockCache;
use crate::error::{Error, Result};
use crate::vfs::{StdVfs, Vfs, VfsFile};

/// Default block size `B` (4 KiB, a typical page).
pub const DEFAULT_BLOCK_SIZE: usize = 4096;

/// Number of blocks fetched per physical read. Affects speed only, never the
/// charged I/O counts.
const READAHEAD_BLOCKS: usize = 64;

/// Shared mutable I/O counters. Cloning the handle shares the counters.
///
/// Counters are atomic (relaxed) so graph handles are `Send` and readers on
/// several threads can charge one shared counter without changing any
/// charged count.
/// The two counters every *request* moves — `read_bytes` and `seeks` — are
/// kept per [`BlockReader`] while it lives (a private `ReaderTally`), so a
/// request served from memory executes no locked instruction;
/// [`IoCounter::snapshot`] adds the live readers' shares to the totals
/// here, and a reader folds its share in when it drops.
#[derive(Debug)]
pub struct IoCounter {
    block_size: usize,
    /// The filesystem seam every path opened through this counter uses —
    /// carried here because the counter is already threaded through every
    /// reader, writer, builder and journal in the crate, so faults can be
    /// injected everywhere without another ambient parameter.
    vfs: Arc<dyn Vfs>,
    read_ios: AtomicU64,
    physical_reads: AtomicU64,
    write_ios: AtomicU64,
    read_bytes: AtomicU64,
    write_bytes: AtomicU64,
    seeks: AtomicU64,
    /// The live readers' shares of `read_bytes` and `seeks`. The lock
    /// orders a reader's fold-and-leave against snapshots and resets, so
    /// no share is ever counted twice or missed.
    tallies: Mutex<Vec<Arc<Tally>>>,
    /// Fast-path gate for the cooperative per-op deadline: readers check
    /// this relaxed flag on every request and only take the `deadline`
    /// lock when it is set, so an unarmed counter pays one atomic load.
    deadline_armed: AtomicBool,
    /// The armed deadline (absolute expiry, original budget for the error
    /// message). Set by the serving layer around each operation.
    deadline: Mutex<Option<(std::time::Instant, std::time::Duration)>>,
}

impl IoCounter {
    /// Create a counter with the given block size `B`, backed by the real
    /// filesystem ([`StdVfs`]).
    pub fn new(block_size: usize) -> Arc<Self> {
        Self::with_vfs(block_size, Arc::new(StdVfs))
    }

    /// Create a counter whose I/O goes through `vfs` — the fault-injection
    /// entry point (the test suites' `testutil::FaultVfs`).
    pub fn with_vfs(block_size: usize, vfs: Arc<dyn Vfs>) -> Arc<Self> {
        assert!(block_size > 0, "block size must be positive");
        Arc::new(IoCounter {
            block_size,
            vfs,
            read_ios: AtomicU64::new(0),
            physical_reads: AtomicU64::new(0),
            write_ios: AtomicU64::new(0),
            read_bytes: AtomicU64::new(0),
            write_bytes: AtomicU64::new(0),
            seeks: AtomicU64::new(0),
            tallies: Mutex::new(Vec::new()),
            deadline_armed: AtomicBool::new(false),
            deadline: Mutex::new(None),
        })
    }

    /// Arm (or, with `None`, clear) a cooperative deadline: every block
    /// read through this counter calls [`IoCounter::check_deadline`], so
    /// a long scan cancels at its next read once `expires_at` passes. The
    /// `budget` is echoed in the timeout error message.
    pub fn set_deadline(&self, d: Option<(std::time::Instant, std::time::Duration)>) {
        let mut slot = self.deadline.lock().unwrap_or_else(|p| p.into_inner());
        *slot = d;
        self.deadline_armed.store(d.is_some(), Ordering::Release);
    }

    /// Fail with [`Error::Timeout`] once the armed deadline has passed.
    /// Free (one relaxed load) when no deadline is armed.
    pub fn check_deadline(&self) -> Result<()> {
        if !self.deadline_armed.load(Ordering::Relaxed) {
            return Ok(());
        }
        let slot = self.deadline.lock().unwrap_or_else(|p| p.into_inner());
        if let Some((expires_at, budget)) = *slot {
            if std::time::Instant::now() >= expires_at {
                return Err(Error::Timeout {
                    reason: format!("per-op deadline of {} ms exceeded", budget.as_millis()),
                });
            }
        }
        Ok(())
    }

    /// The filesystem seam this counter routes opens through.
    pub fn vfs(&self) -> &Arc<dyn Vfs> {
        &self.vfs
    }

    /// The configured block size `B` in bytes.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Charge a whole-file metadata read (journal, catalog, checkpoint) —
    /// [`BlockReader`]s charge through their tally instead.
    pub(crate) fn charge_read(&self, blocks: u64, bytes: u64) {
        self.charge_blocks(blocks);
        self.read_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Charge `blocks` read I/Os that were also physical fetches.
    fn charge_blocks(&self, blocks: u64) {
        self.read_ios.fetch_add(blocks, Ordering::Relaxed);
        self.physical_reads.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Charge model read I/Os only (a pooled reader's charge-cache miss):
    /// the bytes themselves came — or will come — from the shared pool.
    pub(crate) fn charge_model_read(&self, blocks: u64) {
        self.read_ios.fetch_add(blocks, Ordering::Relaxed);
    }

    /// Record physical fetches only (a pooled reader's shared-pool miss):
    /// the model charge is decided by the charge cache, not pool residency.
    pub(crate) fn charge_physical_read(&self, blocks: u64) {
        self.physical_reads.fetch_add(blocks, Ordering::Relaxed);
    }

    pub(crate) fn charge_write(&self, blocks: u64, bytes: u64) {
        self.write_ios.fetch_add(blocks, Ordering::Relaxed);
        self.write_bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// The live readers' tallies. Every update under the lock leaves the
    /// list valid, so a poisoned lock is recovered.
    fn live_tallies(&self) -> std::sync::MutexGuard<'_, Vec<Arc<Tally>>> {
        self.tallies.lock().unwrap_or_else(|p| p.into_inner())
    }

    /// `(read_bytes, seeks)` summed over `live` readers.
    fn live_sum(live: &[Arc<Tally>]) -> (u64, u64) {
        live.iter().fold((0u64, 0u64), |(bytes, seeks), t| {
            (
                bytes.wrapping_add(t.read_bytes.load(Ordering::Relaxed)),
                seeks.wrapping_add(t.seeks.load(Ordering::Relaxed)),
            )
        })
    }

    /// Snapshot the counters.
    pub fn snapshot(&self) -> IoSnapshot {
        let live = self.live_tallies();
        let (bytes, seeks) = Self::live_sum(&live);
        IoSnapshot {
            read_ios: self.read_ios.load(Ordering::Relaxed),
            physical_reads: self.physical_reads.load(Ordering::Relaxed),
            write_ios: self.write_ios.load(Ordering::Relaxed),
            read_bytes: self.read_bytes.load(Ordering::Relaxed).wrapping_add(bytes),
            write_bytes: self.write_bytes.load(Ordering::Relaxed),
            seeks: self.seeks.load(Ordering::Relaxed).wrapping_add(seeks),
        }
    }

    /// Reset all counters to zero.
    pub fn reset(&self) {
        let live = self.live_tallies();
        // A tally has one writer, its reader; resetting must not become a
        // second. The shared halves are set to minus what the live readers
        // hold instead (counters wrap), so the sums read zero from here on
        // and stay right when those readers fold in.
        let (bytes, seeks) = Self::live_sum(&live);
        self.read_ios.store(0, Ordering::Relaxed);
        self.physical_reads.store(0, Ordering::Relaxed);
        self.write_ios.store(0, Ordering::Relaxed);
        self.read_bytes
            .store(0u64.wrapping_sub(bytes), Ordering::Relaxed);
        self.write_bytes.store(0, Ordering::Relaxed);
        self.seeks
            .store(0u64.wrapping_sub(seeks), Ordering::Relaxed);
    }
}

/// One reader's share of the per-request counters.
#[derive(Debug, Default)]
struct Tally {
    read_bytes: AtomicU64,
    seeks: AtomicU64,
}

/// A [`BlockReader`]'s registration with its [`IoCounter`]: the reader's
/// own `read_bytes` and `seeks`, which only it writes — a plain load and
/// store, no locked add — and the counter reads when asked for a snapshot.
/// Dropping the reader folds its share into the counter's atomics.
#[derive(Debug)]
struct ReaderTally {
    counter: Arc<IoCounter>,
    tally: Arc<Tally>,
}

impl ReaderTally {
    fn register(counter: Arc<IoCounter>) -> ReaderTally {
        let tally = Arc::new(Tally::default());
        counter.live_tallies().push(Arc::clone(&tally));
        ReaderTally { counter, tally }
    }

    /// `cell += n` as its single writer.
    #[inline]
    fn add(cell: &AtomicU64, n: u64) {
        cell.store(
            cell.load(Ordering::Relaxed).wrapping_add(n),
            Ordering::Relaxed,
        );
    }

    /// Charge one non-sequential repositioning.
    #[inline]
    fn seek(&self) {
        Self::add(&self.tally.seeks, 1);
    }

    /// Charge `n` bytes delivered.
    #[inline]
    fn bytes(&self, n: u64) {
        Self::add(&self.tally.read_bytes, n);
    }
}

impl Drop for ReaderTally {
    fn drop(&mut self) {
        let mut live = self.counter.live_tallies();
        live.retain(|t| !Arc::ptr_eq(t, &self.tally));
        let (bytes, seeks) = (&self.tally.read_bytes, &self.tally.seeks);
        self.counter
            .read_bytes
            .fetch_add(bytes.load(Ordering::Relaxed), Ordering::Relaxed);
        self.counter
            .seeks
            .fetch_add(seeks.load(Ordering::Relaxed), Ordering::Relaxed);
    }
}

/// A point-in-time copy of the I/O counters, with subtraction for intervals.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct IoSnapshot {
    /// Blocks read, as charged by the external-memory model (each of size
    /// `B`). This is the quantity the paper's figures report.
    pub read_ios: u64,
    /// Blocks physically fetched from disk. Equal to `read_ios` except for
    /// graphs served by a [`SharedPool`](crate::pool::SharedPool), where
    /// pool contention moves this count without touching the model charge
    /// (see the module docs).
    pub physical_reads: u64,
    /// Blocks written.
    pub write_ios: u64,
    /// Logical bytes delivered to readers.
    pub read_bytes: u64,
    /// Logical bytes accepted from writers.
    pub write_bytes: u64,
    /// Non-sequential repositionings observed.
    pub seeks: u64,
}

impl IoSnapshot {
    /// Total I/Os (read + write), the quantity plotted in the paper.
    pub fn total_ios(&self) -> u64 {
        self.read_ios + self.write_ios
    }

    /// Counter delta `self - earlier` (saturating, counters never go back).
    pub fn since(&self, earlier: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_ios: self.read_ios.saturating_sub(earlier.read_ios),
            physical_reads: self.physical_reads.saturating_sub(earlier.physical_reads),
            write_ios: self.write_ios.saturating_sub(earlier.write_ios),
            read_bytes: self.read_bytes.saturating_sub(earlier.read_bytes),
            write_bytes: self.write_bytes.saturating_sub(earlier.write_bytes),
            seeks: self.seeks.saturating_sub(earlier.seeks),
        }
    }

    /// Counter sum `self + other`, for one run charged to two counters.
    pub fn plus(&self, other: &IoSnapshot) -> IoSnapshot {
        IoSnapshot {
            read_ios: self.read_ios + other.read_ios,
            physical_reads: self.physical_reads + other.physical_reads,
            write_ios: self.write_ios + other.write_ios,
            read_bytes: self.read_bytes + other.read_bytes,
            write_bytes: self.write_bytes + other.write_bytes,
            seeks: self.seeks + other.seeks,
        }
    }
}

/// Block-buffered reader over a file with I/O accounting.
///
/// Every byte is served from a frame of the reader's [`BlockCache`], and a
/// read I/O is charged **only on a frame miss** (the rule documented at
/// module level). A reader owns a private one-frame cache until a shared
/// pool is attached ([`BlockReader::open_cached_with_charge`]); `read_ios`
/// then counts blocks fetched under that pool's budget, the quantity the
/// paper's memory-scalability experiments (Fig. 11) vary `M` against.
/// Frames are filled from a read-ahead window, so forward-sequential
/// misses cost one large physical read per window.
#[derive(Debug)]
pub struct BlockReader {
    file: Box<dyn VfsFile>,
    counter: Arc<IoCounter>,
    /// This reader's `read_bytes` and `seeks`.
    tally: ReaderTally,
    file_len: u64,
    /// Read-ahead window contents, the physical buffer frames fill from.
    window: Vec<u8>,
    /// Byte offset of the start of `window` (block aligned).
    window_start: u64,
    /// End position of the previous request, to detect seeks.
    prev_end: u64,
    /// The frame pool plus this reader's file id within it: a private
    /// one-frame cache, or the shared pool once one is attached.
    cache: (Arc<Mutex<BlockCache>>, u32),
    /// Deterministic per-graph *charge cache* plus this reader's file id in
    /// it (pooled mode only). When present, model read I/Os are charged by
    /// this cache's hit/miss decisions — a pure function of the graph's own
    /// access stream and its private budget — while misses in the shared
    /// `cache` count as `physical_reads` only. Frames in a charge cache are
    /// zero-length (keys and eviction state, no bytes), so it costs O(1)
    /// memory per tracked block.
    charge: Option<(Arc<Mutex<BlockCache>>, u32)>,
    /// The last frame fetched from the pool: streak requests into the same
    /// block are served from this handle without taking the pool lock —
    /// what keeps concurrent readers off the lock between block
    /// transitions. Charges nothing (the block was already paid for when
    /// fetched); safe because graph files are immutable while open
    /// ([`BlockReader::invalidate`] clears it).
    memo: Option<(u64, Arc<Vec<u8>>)>,
    /// Reusable byte staging buffer, so no adjacency read allocates: the
    /// raw bytes of a v1 run and the contiguous copy of a v3 run that
    /// straddles frames or windows.
    scratch: Vec<u8>,
    /// Where this reader's file lives — what [`BlockReader::set_readahead`]
    /// needs to open its second handle.
    path: PathBuf,
    /// Background window prefetcher, when readahead is enabled.
    prefetch: Option<Prefetcher>,
}

impl BlockReader {
    /// Open the file at `path` (read-only, through the counter's [`Vfs`])
    /// and charge I/O to `counter`.
    pub fn open(path: &Path, counter: Arc<IoCounter>) -> Result<Self> {
        let mut file = counter.vfs().open_read(path)?;
        let file_len = file.len()?;
        let b = counter.block_size();
        let frame = BlockCache::new(b, b as u64)?;
        Ok(BlockReader {
            file,
            tally: ReaderTally::register(Arc::clone(&counter)),
            counter,
            file_len,
            window: Vec::new(),
            window_start: 0,
            prev_end: 0,
            cache: (Arc::new(Mutex::new(frame)), 0),
            charge: None,
            memo: None,
            scratch: Vec::new(),
            path: path.to_path_buf(),
            prefetch: None,
        })
    }

    /// [`BlockReader::open`] with the shared `pool` and an optional private
    /// *charge cache*: when `charge` is `Some((ghost, ghost_file_id))`,
    /// model read I/Os follow the ghost's deterministic hit/miss decisions
    /// and pool misses are recorded as physical reads only. This is how a
    /// [`SharedPool`](crate::pool::SharedPool)-served graph keeps its
    /// charged `read_ios` bit-identical whether it runs alone or alongside
    /// other graphs contending for the pool.
    pub fn open_cached_with_charge(
        path: &Path,
        counter: Arc<IoCounter>,
        pool: Arc<Mutex<BlockCache>>,
        file_id: u32,
        charge: Option<(Arc<Mutex<BlockCache>>, u32)>,
    ) -> Result<Self> {
        assert_eq!(
            lock_cache(&pool).block_size(),
            counter.block_size(),
            "cache and counter must agree on the block size"
        );
        if let Some((ghost, _)) = charge.as_ref() {
            assert_eq!(
                lock_cache(ghost).block_size(),
                counter.block_size(),
                "charge cache and counter must agree on the block size"
            );
        }
        let mut reader = Self::open(path, counter)?;
        reader.cache = (pool, file_id);
        reader.charge = charge;
        Ok(reader)
    }

    /// Enable (or disable) background readahead pipelining: while the
    /// consumer decodes the current read-ahead window, a worker thread
    /// fetches the next window through a second handle on the same file.
    ///
    /// Readahead is *physical* pipelining only. Windows are measurement
    /// apparatus (see the module docs): every charged counter — `read_ios`,
    /// `physical_reads`, `read_bytes`, `seeks` — is computed at the
    /// block-accounting layer, never at window refills, so the counters are
    /// bit-identical with readahead on or off (the v3 differential suite
    /// pins this). The second handle opens through the counter's [`Vfs`],
    /// so fault injection still controls every byte; it is **off by
    /// default** because a background reader would race a fault injector's
    /// deterministic operation schedules.
    pub fn set_readahead(&mut self, enabled: bool) -> Result<()> {
        if !enabled {
            self.prefetch = None;
            return Ok(());
        }
        if self.prefetch.is_some() {
            return Ok(());
        }
        let file = self.counter.vfs().open_read(&self.path)?;
        self.prefetch = Some(Prefetcher::spawn(file)?);
        Ok(())
    }

    /// True when background readahead is active.
    pub fn readahead(&self) -> bool {
        self.prefetch.is_some()
    }

    /// Length of the underlying file in bytes.
    pub fn file_len(&self) -> u64 {
        self.file_len
    }

    /// The shared I/O counter.
    pub fn counter(&self) -> &Arc<IoCounter> {
        &self.counter
    }

    /// Validate a read range, returning its exclusive end offset.
    fn check_range(&self, offset: u64, len: usize) -> Result<u64> {
        let end = offset
            .checked_add(len as u64)
            .ok_or_else(|| Error::corrupt("read range overflows u64"))?;
        if end > self.file_len {
            return Err(Error::corrupt(format!(
                "read of {len} bytes at offset {offset} past end of file (len {})",
                self.file_len
            )));
        }
        Ok(end)
    }

    /// Read exactly `out.len()` bytes starting at `offset`.
    ///
    /// Returns a corruption error when the range extends past end of file —
    /// a truncated graph file must surface as an error, never a panic.
    pub fn read_exact_at(&mut self, offset: u64, out: &mut [u8]) -> Result<()> {
        if out.is_empty() {
            return Ok(());
        }
        self.counter.check_deadline()?;
        let end = self.check_range(offset, out.len())?;
        self.begin_request(offset, end);
        self.copy_bytes(offset, out)?;
        self.tally.bytes(out.len() as u64);
        Ok(())
    }

    /// Read exactly `out.len()` bytes at `offset` straight from the file:
    /// no counter is charged, no frame is filled and the request cursor
    /// does not move — for metadata an opener validates (headers, magics)
    /// before any measured run.
    pub(crate) fn read_uncharged(&mut self, offset: u64, out: &mut [u8]) -> Result<()> {
        self.check_range(offset, out.len())?;
        self.file.read_exact_at(offset, out)?;
        Ok(())
    }

    /// Read the `N` bytes at `offset` — a fixed-size record such as a node
    /// table entry — charged exactly like [`BlockReader::read_exact_at`].
    /// A record inside one frame is a constant-length move straight out of
    /// it.
    pub(crate) fn read_array_at<const N: usize>(&mut self, offset: u64) -> Result<[u8; N]> {
        let mut out = [0u8; N];
        if N == 0 {
            return Ok(out);
        }
        self.counter.check_deadline()?;
        let end = self.check_range(offset, N)?;
        self.begin_request(offset, end);
        match self.piece_at(offset)?.first_chunk::<N>() {
            Some(record) => out = *record,
            None => self.copy_bytes(offset, &mut out)?,
        }
        self.tally.bytes(N as u64);
        Ok(out)
    }

    /// Open the validated request `[offset, end)`: a seek unless it starts
    /// where the previous one ended. Blocks are charged per miss as they
    /// are fetched; delivered bytes by the caller once served.
    fn begin_request(&mut self, offset: u64, end: u64) {
        if offset != self.prev_end {
            self.tally.seek();
        }
        self.prev_end = end;
    }

    /// The bytes of `block`, borrowed from the memoised frame. Streak
    /// requests into the reader's current block stop here — no pool lock,
    /// no reference count moved; any other block goes through
    /// [`BlockReader::load_block`] first.
    fn block_frame(&mut self, block: u64) -> Result<&[u8]> {
        if !matches!(&self.memo, Some((b, _)) if *b == block) {
            self.load_block(block)?;
        }
        match &self.memo {
            Some((_, data)) => Ok(data),
            None => Err(Error::corrupt("block frame without a memo")),
        }
    }

    /// Fetch `block` through the frame pool into the memo, charging a read
    /// I/O on miss. The pool lock is held only for the lookup (and, on
    /// miss, the fill); the memoised [`Arc`] keeps the bytes usable after
    /// the lock is gone.
    fn load_block(&mut self, block: u64) -> Result<()> {
        let b = self.counter.block_size() as u64;
        let block_start = block * b;
        let block_len = b.min(self.file_len - block_start) as usize;
        // Let go of the outgoing frame first, so a miss can refill its
        // buffer in place rather than allocate.
        self.memo = None;
        let (pool, file_id) = &self.cache;
        let window = &mut self.window;
        let window_start = &mut self.window_start;
        let file = self.file.as_mut();
        let file_len = self.file_len;
        let prefetch = self.prefetch.as_ref();
        let (data, missed) = {
            let mut cache = lock_cache(pool);
            cache.get_or_load(*file_id, block, block_len, |buf| {
                fill_from_window(
                    window,
                    window_start,
                    file,
                    file_len,
                    b,
                    block_start,
                    buf,
                    prefetch,
                )
            })?
        };
        match self.charge.as_ref() {
            // The pool's (or the private frame's) miss IS the model charge.
            None => {
                if missed {
                    self.counter.charge_blocks(1);
                }
            }
            // Pooled mode: the charge cache decides the model charge from
            // the graph's own access stream alone; the shared pool's miss
            // only moves the physical count. The ghost is consulted on
            // every block transition (memo streaks never reach here), so
            // it sees exactly the stream a one-frame reader would.
            Some((ghost, ghost_file)) => {
                if missed {
                    self.counter.charge_physical_read(1);
                }
                let ghost_missed = {
                    let mut ghost = lock_cache(ghost);
                    ghost.get_or_load(*ghost_file, block, 0, |_| Ok(()))?.1
                };
                if ghost_missed {
                    self.counter.charge_model_read(1);
                }
            }
        }
        self.memo = Some((block, data));
        Ok(())
    }

    /// What is already contiguous in memory from byte `pos` on: the rest
    /// of its frame — fetched, and charged on miss, by
    /// [`BlockReader::load_block`].
    fn piece_at(&mut self, pos: u64) -> Result<&[u8]> {
        let b = self.counter.block_size() as u64;
        Ok(&self.block_frame(pos / b)?[(pos % b) as usize..])
    }

    /// Copy the validated range `[offset, offset + out.len())` into `out`,
    /// piece by piece — blocks `offset / B ..= (end − 1) / B` in ascending
    /// order. Seeks and bytes are the caller's.
    fn copy_bytes(&mut self, offset: u64, out: &mut [u8]) -> Result<()> {
        let mut copied = 0usize;
        while copied < out.len() {
            let piece = self.piece_at(offset + copied as u64)?;
            let take = piece.len().min(out.len() - copied);
            out[copied..copied + take].copy_from_slice(&piece[..take]);
            copied += take;
        }
        Ok(())
    }

    /// [`BlockReader::copy_bytes`] appending to `buf` — nothing is
    /// zero-filled first.
    fn append_bytes(&mut self, offset: u64, len: usize, buf: &mut Vec<u8>) -> Result<()> {
        let mut copied = 0usize;
        while copied < len {
            let piece = self.piece_at(offset + copied as u64)?;
            let take = piece.len().min(len - copied);
            buf.extend_from_slice(&piece[..take]);
            copied += take;
        }
        Ok(())
    }

    /// When `[offset, offset + len)` lies inside a single block, ensure the
    /// block is resident (charging a miss if not) and return a shared
    /// handle to the frame plus the range's offset within it — the
    /// zero-copy fast path for adjacency runs. The bytes are
    /// decoded and visited by the caller *after* the pool lock is released,
    /// so concurrent readers never serialize on each other's compute.
    ///
    /// Returns `Ok(None)` when the fast path does not apply (empty range or
    /// multi-block range); the caller must then fall back to
    /// [`BlockReader::read_exact_at`].
    pub(crate) fn cached_run(
        &mut self,
        offset: u64,
        len: usize,
    ) -> Result<Option<(Arc<Vec<u8>>, usize)>> {
        if len == 0 {
            return Ok(None);
        }
        let end = self.check_range(offset, len)?;
        let b = self.counter.block_size() as u64;
        let block = offset / b;
        if (end - 1) / b != block {
            return Ok(None);
        }
        self.begin_request(offset, end);
        self.block_frame(block)?;
        self.tally.bytes(len as u64);
        let from = (offset - block * b) as usize;
        // The one caller that outlives the next request with the bytes
        // (v1 zero-copy visits): it gets its own handle on the frame.
        Ok(self.memo.as_ref().map(|(_, data)| (Arc::clone(data), from)))
    }

    /// Read `out.len()` raw little-endian `u32`s (a format-v1 run) starting
    /// at byte `offset`, charged as one exact-length read.
    pub(crate) fn read_u32_run(&mut self, offset: u64, out: &mut [u32]) -> Result<()> {
        let mut bytes = std::mem::take(&mut self.scratch);
        bytes.resize(out.len() * 4, 0);
        let res = self.read_exact_at(offset, &mut bytes);
        for (id, chunk) in out.iter_mut().zip(bytes.chunks_exact(4)) {
            *id = crate::codec::get_u32(chunk, 0);
        }
        self.scratch = bytes;
        res
    }

    /// Decode a `count`-id stream-vbyte group (format v3) run starting at
    /// byte `offset` into `out` (cleared first). Returns the encoded length
    /// in bytes.
    ///
    /// The read is exact-extent: the control region's length follows from
    /// `count` and the data length from the control bytes
    /// ([`group_run_len`](crate::codec::group_run_len)), so the run's true
    /// end is known before any data byte is fetched and
    /// [`decode_group_run`](crate::codec::decode_group_run) gets the whole
    /// run as one slice — borrowed in place when it sits inside one frame,
    /// staged in the reader's scratch when it straddles.
    ///
    /// Charging matches an exact-length contiguous read of the encoded
    /// bytes: blocks `offset / B ..= (end − 1) / B` are fetched once each
    /// in ascending order and pay per miss exactly as
    /// [`BlockReader::read_exact_at`] would. Read bytes are the encoded
    /// length and `prev_end` lands on the run's true end, so the next
    /// contiguous list pays no seek. No block beyond the one holding the
    /// run's last byte is ever touched.
    pub(crate) fn read_group_run(
        &mut self,
        offset: u64,
        count: usize,
        out: &mut Vec<u32>,
    ) -> Result<u64> {
        use crate::codec::{decode_group_run, group_ctrl_len, group_run_len};
        out.clear();
        if count == 0 {
            return Ok(0);
        }
        self.counter.check_deadline()?;
        let ctrl_len = group_ctrl_len(count);
        self.check_range(offset, ctrl_len)?;
        if offset != self.prev_end {
            self.tally.seek();
        }
        let view = self.piece_at(offset)?;
        // The run's length, when its control region is all in view.
        let known = view.get(..ctrl_len).map(|ctrl| group_run_len(ctrl, count));
        let total = match known {
            Some(total) if total <= view.len() => {
                decode_group_run(view, count, out)?;
                total
            }
            _ => {
                let total = self.stage_group_run(offset, count, known)?;
                decode_group_run(&self.scratch, count, out)?;
                total
            }
        };
        self.tally.bytes(total as u64);
        self.prev_end = offset + total as u64;
        Ok(total as u64)
    }

    /// Copy the `count`-id v3 run at `offset` into `self.scratch` —
    /// control region, then exactly the data bytes it announces, then
    /// [`GROUP_DECODE_SLACK`](crate::codec::GROUP_DECODE_SLACK) zero bytes
    /// so the vector loop also finishes a staged run in place. `known` is
    /// the run's encoded length when the caller had its control region in
    /// view; otherwise the region is staged first and walked here. Returns
    /// that length; a control byte announcing data past the end of the
    /// file is corruption.
    fn stage_group_run(
        &mut self,
        offset: u64,
        count: usize,
        known: Option<usize>,
    ) -> Result<usize> {
        use crate::codec::{group_ctrl_len, group_run_len, GROUP_DECODE_SLACK};
        let mut buf = std::mem::take(&mut self.scratch);
        buf.clear();
        let res = (|| {
            let total = match known {
                Some(total) => total,
                None => {
                    self.append_bytes(offset, group_ctrl_len(count), &mut buf)?;
                    group_run_len(&buf, count)
                }
            };
            self.check_range(offset, total)?;
            buf.reserve(total + GROUP_DECODE_SLACK - buf.len());
            let staged = buf.len();
            self.append_bytes(offset + staged as u64, total - staged, &mut buf)?;
            buf.resize(total + GROUP_DECODE_SLACK, 0);
            Ok(total)
        })();
        self.scratch = buf;
        res
    }

    /// Forget buffered state, so the next read is charged in full. This
    /// drops the file's frames from its pool, shared or private.
    ///
    /// This invalidates *buffers only* — the reader keeps its open file
    /// handle and length. If the file on disk was replaced (e.g. renamed
    /// over), the handle still sees the old contents; replacement requires
    /// constructing a fresh reader, as
    /// [`DiskGraph`](crate::DiskGraph)'s rewrite path does.
    pub fn invalidate(&mut self) {
        self.window.clear();
        self.prev_end = u64::MAX;
        self.memo = None;
        let (pool, file_id) = &self.cache;
        lock_cache(pool).invalidate_file(*file_id);
        if let Some((ghost, file_id)) = self.charge.as_ref() {
            lock_cache(ghost).invalidate_file(*file_id);
        }
    }
}

/// Single-slot handoff between a [`BlockReader`] and its readahead worker.
struct PrefetchSlot {
    state: Mutex<PrefetchState>,
    ready: Condvar,
}

/// What the readahead worker is doing, keyed by window start offset.
enum PrefetchState {
    Idle,
    InFlight(u64),
    Ready(u64, Vec<u8>),
}

/// Opt-in background readahead (see [`BlockReader::set_readahead`]): a
/// worker thread owning a second [`VfsFile`] handle fetches the *next*
/// read-ahead window while the consumer decodes the current one. Windows
/// are measurement apparatus — nothing here touches a counter — so charged
/// I/O is bit-identical with or without a prefetcher attached. Any miss
/// (wrong offset, worker error, worker death) silently degrades to the
/// synchronous read path.
struct Prefetcher {
    /// `(window start, window len, recycled buffer)` — the consumer hands
    /// its outgoing window back so the worker never allocates in steady
    /// state.
    tx: Option<std::sync::mpsc::Sender<(u64, usize, Vec<u8>)>>,
    slot: Arc<PrefetchSlot>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl std::fmt::Debug for Prefetcher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Prefetcher")
    }
}

impl Prefetcher {
    /// Start a worker thread reading windows from `file`.
    fn spawn(mut file: Box<dyn VfsFile>) -> Result<Prefetcher> {
        let slot = Arc::new(PrefetchSlot {
            state: Mutex::new(PrefetchState::Idle),
            ready: Condvar::new(),
        });
        let (tx, rx) = std::sync::mpsc::channel::<(u64, usize, Vec<u8>)>();
        let worker_slot = Arc::clone(&slot);
        let worker = std::thread::Builder::new()
            .name("kcore-readahead".into())
            .spawn(move || {
                while let Ok((start, len, mut buf)) = rx.recv() {
                    buf.resize(len, 0);
                    let ok = file.read_exact_at(start, &mut buf).is_ok();
                    let mut st = worker_slot.state.lock().unwrap_or_else(|p| p.into_inner());
                    // Publish only while this is still the wanted window —
                    // a newer request or a consumer give-up supersedes it.
                    if matches!(*st, PrefetchState::InFlight(s) if s == start) {
                        *st = if ok {
                            PrefetchState::Ready(start, buf)
                        } else {
                            PrefetchState::Idle
                        };
                        worker_slot.ready.notify_all();
                    }
                }
            })
            .map_err(Error::Io)?;
        Ok(Prefetcher {
            tx: Some(tx),
            slot,
            worker: Some(worker),
        })
    }

    /// Ask the worker to fetch `[start, start + len)` next. `recycle` is a
    /// no-longer-needed buffer (typically the window just replaced) the
    /// worker reads into instead of allocating.
    fn request(&self, start: u64, len: usize, recycle: Vec<u8>) {
        if len == 0 {
            return;
        }
        let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        if matches!(*st, PrefetchState::InFlight(s) if s == start)
            || matches!(&*st, PrefetchState::Ready(s, _) if *s == start)
        {
            return;
        }
        *st = PrefetchState::InFlight(start);
        if let Some(tx) = self.tx.as_ref() {
            if tx.send((start, len, recycle)).is_err() {
                // Worker died; synchronous reads take over from here.
                *st = PrefetchState::Idle;
            }
        }
    }

    /// Claim a previously requested window. Waits only while *this exact*
    /// window is in flight; anything else returns `None` and the caller
    /// reads synchronously (a stale in-flight fetch is discarded by the
    /// publish check above).
    fn take(&self, start: u64, len: usize) -> Option<Vec<u8>> {
        let mut st = self.slot.state.lock().unwrap_or_else(|p| p.into_inner());
        loop {
            match std::mem::replace(&mut *st, PrefetchState::Idle) {
                PrefetchState::Ready(s, buf) if s == start && buf.len() == len => {
                    return Some(buf);
                }
                PrefetchState::Ready(..) => return None,
                PrefetchState::InFlight(s) if s == start => {
                    *st = PrefetchState::InFlight(s);
                    st = self.slot.ready.wait(st).unwrap_or_else(|p| p.into_inner());
                }
                PrefetchState::InFlight(_) | PrefetchState::Idle => return None,
            }
        }
    }
}

impl Drop for Prefetcher {
    fn drop(&mut self) {
        // Closing the channel ends the worker's recv loop.
        self.tx = None;
        if let Some(worker) = self.worker.take() {
            let _ = worker.join();
        }
    }
}

/// Lock a shared cache, recovering from poisoning. A poisoned cache lock
/// means some thread panicked mid-operation; `BlockCache` updates its maps
/// before/after the load closure runs (never leaving half-linked state),
/// and a cache holds only rereadable bytes — so recovering the guard is
/// safe and keeps one tenant's panic from wedging every pool user.
pub(crate) fn lock_cache(cache: &Arc<Mutex<BlockCache>>) -> std::sync::MutexGuard<'_, BlockCache> {
    cache.lock().unwrap_or_else(|p| p.into_inner())
}

/// Fsync the directory containing `path`, making a just-created or
/// just-renamed entry durable. Creating or renaming a file persists its
/// *contents* once the file itself is synced, but the directory entry lives
/// in the parent — a crash before the parent is flushed can lose the name.
/// Every durability-critical create/rename in this crate pairs with this,
/// routed through `vfs` so the torture matrix sees it as a sync event.
pub(crate) fn sync_parent_dir(vfs: &dyn Vfs, path: &std::path::Path) -> Result<()> {
    vfs.sync_parent_dir(path)?;
    Ok(())
}

/// Copy the block at `block_start` into `buf`, serving from the read-ahead
/// window so cold sequential misses cost one large physical read per
/// `READAHEAD_BLOCKS`, not one syscall per block (free function so
/// cache-load closures can borrow reader fields disjointly). A block
/// outside the window refills it from `block_start` on; with a prefetcher
/// attached, a window the worker already fetched is claimed without
/// touching the file, and the *next* window's fetch is kicked off — the
/// pipelining overlap.
#[allow(clippy::too_many_arguments)]
fn fill_from_window(
    window: &mut Vec<u8>,
    window_start: &mut u64,
    file: &mut dyn VfsFile,
    file_len: u64,
    block_size: u64,
    block_start: u64,
    buf: &mut [u8],
    prefetch: Option<&Prefetcher>,
) -> Result<()> {
    let end = block_start + buf.len() as u64;
    if block_start < *window_start || end > *window_start + window.len() as u64 {
        let want = (block_size as usize) * READAHEAD_BLOCKS;
        let len = want.min((file_len - block_start) as usize);
        let mut recycle = Vec::new();
        match prefetch.and_then(|p| p.take(block_start, len)) {
            Some(buf) => recycle = std::mem::replace(window, buf),
            None => {
                window.resize(len, 0);
                file.read_exact_at(block_start, window)?;
            }
        }
        *window_start = block_start;
        if let Some(p) = prefetch {
            let next = block_start + len as u64;
            if next < file_len {
                p.request(next, want.min((file_len - next) as usize), recycle);
            }
        }
    }
    let from = (block_start - *window_start) as usize;
    buf.copy_from_slice(&window[from..from + buf.len()]);
    Ok(())
}

/// Size of the [`BlockWriter`] staging buffer: bytes are handed to the
/// [`VfsFile`] in chunks of up to this, so one builder write is one
/// syscall-sized operation (and one fault-injection point), not thousands.
const WRITE_BUFFER_LEN: usize = 1 << 20;

/// Buffered writer with block-granular write accounting.
///
/// Writes are append-only (the builders always produce files front to back).
/// Write I/Os are charged per block boundary crossed, so writing `N` bytes
/// sequentially costs `ceil(N / B)` write I/Os.
#[derive(Debug)]
pub struct BlockWriter {
    file: Box<dyn VfsFile>,
    buf: Vec<u8>,
    counter: Arc<IoCounter>,
    pos: u64,
}

impl BlockWriter {
    /// Create (truncating) the file at `path` through the counter's
    /// [`Vfs`] and start writing from offset zero.
    pub fn create(path: &Path, counter: Arc<IoCounter>) -> Result<Self> {
        let file = counter.vfs().create(path)?;
        Ok(BlockWriter {
            file,
            buf: Vec::with_capacity(WRITE_BUFFER_LEN),
            counter,
            pos: 0,
        })
    }

    /// Current write position (bytes written so far).
    pub fn position(&self) -> u64 {
        self.pos
    }

    fn flush_buf(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            self.file.write_all(&self.buf)?;
            self.buf.clear();
        }
        Ok(())
    }

    /// Append `data`, charging write I/Os for each block newly touched.
    pub fn write_all(&mut self, data: &[u8]) -> Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        let b = self.counter.block_size() as u64;
        let start_block = self.pos / b;
        let end = self.pos + data.len() as u64;
        let end_block = (end - 1) / b;
        // The starting block is charged only when this write begins it.
        let mut blocks = end_block - start_block + 1;
        if !self.pos.is_multiple_of(b) {
            blocks -= 1;
        }
        self.counter.charge_write(blocks, data.len() as u64);
        if self.buf.len() + data.len() > WRITE_BUFFER_LEN {
            self.flush_buf()?;
        }
        if data.len() >= WRITE_BUFFER_LEN {
            self.file.write_all(data)?;
        } else {
            self.buf.extend_from_slice(data);
        }
        self.pos = end;
        Ok(())
    }

    /// Flush buffered bytes and return the underlying file (so callers on
    /// the durable path can `sync_all` it).
    pub fn finish(mut self) -> Result<Box<dyn VfsFile>> {
        self.flush_buf()?;
        Ok(self.file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs::File;
    use std::io::Write;

    fn temp_file_with(len: usize) -> (crate::tempdir::TempDir, std::path::PathBuf) {
        let dir = crate::tempdir::TempDir::new("iotest").unwrap();
        let path = dir.path().join("data.bin");
        let mut f = File::create(&path).unwrap();
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        f.write_all(&data).unwrap();
        (dir, path)
    }

    #[test]
    fn sequential_scan_costs_ceil_n_over_b() {
        let (_dir, path) = temp_file_with(10_000);
        let counter = IoCounter::new(1024);
        let mut r = BlockReader::open(&path, counter.clone()).unwrap();
        let mut buf = [0u8; 100];
        let mut off = 0;
        while off < 10_000 {
            let take = 100.min(10_000 - off);
            r.read_exact_at(off as u64, &mut buf[..take]).unwrap();
            off += take;
        }
        // ceil(10000 / 1024) = 10 blocks.
        assert_eq!(counter.snapshot().read_ios, 10);
        assert_eq!(counter.snapshot().read_bytes, 10_000);
        // Without a shared pool, physical and charged reads coincide.
        assert_eq!(counter.snapshot().physical_reads, 10);
    }

    #[test]
    fn random_reads_pay_per_block() {
        let (_dir, path) = temp_file_with(64 * 1024);
        let counter = IoCounter::new(4096);
        let mut r = BlockReader::open(&path, counter.clone()).unwrap();
        let mut buf = [0u8; 8];
        // Touch 8 distinct far-apart blocks.
        for i in 0..8u64 {
            r.read_exact_at(i * 8192, &mut buf).unwrap();
        }
        assert_eq!(counter.snapshot().read_ios, 8);
        assert!(counter.snapshot().seeks >= 7);
    }

    #[test]
    fn rereading_same_block_is_free() {
        let (_dir, path) = temp_file_with(4096);
        let counter = IoCounter::new(4096);
        let mut r = BlockReader::open(&path, counter.clone()).unwrap();
        let mut buf = [0u8; 16];
        r.read_exact_at(0, &mut buf).unwrap();
        r.read_exact_at(16, &mut buf).unwrap();
        r.read_exact_at(100, &mut buf).unwrap();
        assert_eq!(counter.snapshot().read_ios, 1);
    }

    #[test]
    fn read_past_eof_is_corrupt_not_panic() {
        let (_dir, path) = temp_file_with(100);
        let counter = IoCounter::new(4096);
        let mut r = BlockReader::open(&path, counter).unwrap();
        let mut buf = [0u8; 32];
        let err = r.read_exact_at(90, &mut buf).unwrap_err();
        assert!(err.is_corrupt());
    }

    #[test]
    fn reader_delivers_correct_bytes_across_window_boundaries() {
        let (_dir, path) = temp_file_with(300_000);
        let counter = IoCounter::new(512);
        let mut r = BlockReader::open(&path, counter).unwrap();
        // A large read spanning several read-ahead windows.
        let mut buf = vec![0u8; 299_000];
        r.read_exact_at(500, &mut buf).unwrap();
        for (i, &x) in buf.iter().enumerate() {
            assert_eq!(x as usize, (i + 500) % 251);
        }
    }

    #[test]
    fn writer_charges_blocks_sequentially() {
        let dir = crate::tempdir::TempDir::new("iotest").unwrap();
        let path = dir.path().join("out.bin");
        let counter = IoCounter::new(1000);
        let mut w = BlockWriter::create(&path, counter.clone()).unwrap();
        for _ in 0..25 {
            w.write_all(&[7u8; 100]).unwrap();
        }
        w.finish().unwrap();
        // 2500 bytes / 1000-byte blocks => 3 write I/Os.
        assert_eq!(counter.snapshot().write_ios, 3);
        assert_eq!(counter.snapshot().write_bytes, 2500);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 2500);
    }

    #[test]
    fn snapshot_since_subtracts() {
        let a = IoSnapshot {
            read_ios: 10,
            physical_reads: 10,
            write_ios: 2,
            read_bytes: 100,
            write_bytes: 20,
            seeks: 1,
        };
        let b = IoSnapshot {
            read_ios: 15,
            physical_reads: 12,
            write_ios: 2,
            read_bytes: 160,
            write_bytes: 20,
            seeks: 3,
        };
        let d = b.since(&a);
        assert_eq!(d.read_ios, 5);
        assert_eq!(d.physical_reads, 2);
        assert_eq!(d.write_ios, 0);
        assert_eq!(d.read_bytes, 60);
        assert_eq!(d.seeks, 2);
        assert_eq!(d.total_ios(), 5);
    }

    #[test]
    fn readahead_is_byte_identical_and_charge_invisible() {
        // ~600 KB spans several read-ahead windows, so the prefetch worker
        // actually pipelines handoffs rather than serving one window.
        let (_dir, path) = temp_file_with(600_000);
        let (c_sync, c_ra) = (IoCounter::new(512), IoCounter::new(512));
        let mut sync = BlockReader::open(&path, c_sync.clone()).unwrap();
        let mut ra = BlockReader::open(&path, c_ra.clone()).unwrap();
        assert!(!ra.readahead());
        // Disabling an absent prefetcher is fine.
        ra.set_readahead(false).unwrap();
        ra.set_readahead(true).unwrap();
        assert!(ra.readahead());
        // Enabling twice is a no-op; so is disabling and re-enabling.
        ra.set_readahead(true).unwrap();

        let (mut a, mut b) = (vec![0u8; 700], vec![0u8; 700]);
        let mut off = 0u64;
        while off < 600_000 {
            let take = 700.min(600_000 - off as usize);
            sync.read_exact_at(off, &mut a[..take]).unwrap();
            ra.read_exact_at(off, &mut b[..take]).unwrap();
            assert_eq!(a[..take], b[..take], "divergence at offset {off}");
            off += take as u64;
        }
        // Every charged counter — including physical reads and seeks — is
        // identical: the pipeline moves fetches, it never changes pricing.
        assert_eq!(c_sync.snapshot(), c_ra.snapshot());

        ra.set_readahead(false).unwrap();
        assert!(!ra.readahead());
        ra.read_exact_at(0, &mut a[..16]).unwrap();
    }

    #[test]
    fn group_runs_decode_identically_across_any_block_split() {
        use crate::cache::BlockCache;
        use crate::codec::encode_group_run;

        // Runs of every length mod 4, zero-/one-/two-/four-byte codes and
        // the u32::MAX endpoint, laid end to end behind a 3-byte header.
        let mut rng = testutil::Lcg::new(77);
        let mut bytes = vec![0xEEu8; 3];
        let mut runs: Vec<(u64, Vec<u32>)> = Vec::new();
        for len in (0..40).chain([150, 1000]) {
            let mut next = rng.below(3) * 70_000;
            let mut values = Vec::with_capacity(len);
            for _ in 0..len {
                values.push(next);
                let gap = [1, 1 + rng.below(200), 300 + rng.below(60_000), 1 << 20];
                next = next.saturating_add(gap[rng.below(4) as usize]);
            }
            if len % 7 == 3 {
                values.push(u32::MAX);
            }
            values.dedup();
            runs.push((bytes.len() as u64, values.clone()));
            encode_group_run(&values, &mut bytes);
        }
        let dir = crate::tempdir::TempDir::new("iotest").unwrap();
        let path = dir.path().join("runs.bin");
        std::fs::write(&path, &bytes).unwrap();

        // Block sizes down to one byte: every control region, value and
        // run straddles frames and 64-block windows, in a reader's own
        // frame and in an attached pool.
        for block in [1usize, 2, 3, 5, 7, 16, 64, 4096] {
            for cached in [false, true] {
                let (c_run, c_raw) = (IoCounter::new(block), IoCounter::new(block));
                let open = |counter: &Arc<IoCounter>| {
                    if !cached {
                        return BlockReader::open(&path, counter.clone()).unwrap();
                    }
                    let pool = BlockCache::shared(block, 8 * block as u64, 1).unwrap();
                    BlockReader::open_cached_with_charge(&path, counter.clone(), pool, 0, None)
                        .unwrap()
                };
                let (mut by_run, mut by_raw) = (open(&c_run), open(&c_raw));
                let mut out = Vec::new();
                let mut raw = Vec::new();
                for (offset, values) in &runs {
                    let tag = format!("block {block} cached {cached} offset {offset}");
                    let used = by_run
                        .read_group_run(*offset, values.len(), &mut out)
                        .unwrap();
                    assert_eq!(&out, values, "{tag}");
                    // Priced exactly like a plain read of the same bytes.
                    raw.resize(used as usize, 0);
                    by_raw.read_exact_at(*offset, &mut raw).unwrap();
                    assert_eq!(c_run.snapshot(), c_raw.snapshot(), "{tag}");
                }
                assert_eq!(by_run.prev_end, bytes.len() as u64);
            }
        }
    }
}
