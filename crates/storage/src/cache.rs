//! Memory-budgeted block cache (buffer pool) for disk graphs.
//!
//! The paper's external-memory model gives every algorithm a memory budget
//! `M` alongside the block size `B`; the seed storage layer only modelled
//! `B`, keeping O(1) buffered state and physically re-fetching every hot
//! block the random-access phases of SemiCore\* / SemiInsert\* / SemiDelete\*
//! touch. [`BlockCache`] makes the `M` side operational: a pool of `B`-sized
//! frames under a byte budget, shared by the node- and edge-table readers of
//! one [`DiskGraph`](crate::DiskGraph).
//!
//! Accounting contract: a read served from a resident frame charges **no**
//! read I/O; a miss charges exactly one read I/O for the block fetched. A
//! cold sequential scan therefore still costs `ceil(N / B)` I/Os — as for a
//! reader with no pool attached, which owns a private one-frame cache —
//! while re-visits of resident blocks are free, so `read_ios` reports
//! *blocks physically fetched*. The smallest budget is that one frame per
//! file: [`DiskGraph::open_with_cache`](crate::DiskGraph::open_with_cache)
//! leaves each reader its own frame when the budget holds fewer.
//!
//! ## Eviction policy
//!
//! One policy, scan-resistant: CLOCK over re-referenced
//! frames plus newest-first eviction among never-re-referenced ones, with
//! each file's most-recently-touched frame **pinned**. The pin keeps the
//! one-frame reader's "current block stays buffered" freebie, so (with
//! one frame per file) attaching a cache of *any* size never charges more
//! than a reader's own frame, request by request. One-shot scan traffic
//! displaces itself instead of flushing the retained prefix, which is what earns
//! cross-iteration hits under the *ascending re-scan* pattern of the
//! semi-external convergence loops — a pattern where pure recency
//! retention yields zero reuse. Not a stack policy (a current-block
//! exemption is content-dependent state, which is exactly what the
//! stack-policy proof forbids): adversarial patterns can exhibit
//! Bélády-style anomalies (a warm start charging slightly more than a cold
//! one), the price of scan resistance.
//!
//! ## Concurrency
//!
//! The pool is wrapped in `Arc<Mutex<..>>` by its users and is shared by
//! both readers of one graph or, behind a [`SharedPool`](crate::SharedPool),
//! by every graph a service serves, each on its own thread. Frame contents
//! are handed out as [`Arc`] clones, so the pool lock protects only the
//! lookup/eviction bookkeeping: decoding and visiting a block's bytes
//! happens entirely *outside* the lock, which is what lets concurrent
//! readers make progress on cache hits. An evicted frame's bytes stay alive
//! until the last in-flight reader drops its handle (resident memory can
//! transiently exceed the budget by one block per concurrent reader).
//!
//! A missed block is still fetched while the lock is held, serializing
//! concurrent *cold* fetches — a faithful model of the single disk
//! underneath: each distinct block misses exactly once per residency, no
//! matter how many readers race for it.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::{Arc, Mutex};

use crate::error::Result;

/// Key of one cached block: (file id within the pool, block index).
type BlockKey = (u32, u64);

/// Multiply-rotate hasher for the pool's integer keys. Block numbers and
/// file ids are the program's own, never outside input, so the default
/// SipHash's collision resistance buys nothing here and costs three keyed
/// hashes on every block transition of every reader.
#[derive(Debug, Default, Clone, Copy)]
struct KeyHasher(u64);

impl KeyHasher {
    #[inline]
    fn mix(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }
}

impl Hasher for KeyHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.mix(byte as u64);
        }
    }

    #[inline]
    fn write_u32(&mut self, word: u32) {
        self.mix(word as u64);
    }

    #[inline]
    fn write_u64(&mut self, word: u64) {
        self.mix(word);
    }

    #[inline]
    fn finish(&self) -> u64 {
        // The multiply leaves its best bits on top; the table indexes by
        // the low ones.
        self.0.rotate_left(26)
    }
}

/// A `HashMap` keyed by the pool's own integers.
type KeyMap<K, V> = HashMap<K, V, BuildHasherDefault<KeyHasher>>;

/// One `B`-sized frame (the tail block of a file may be shorter).
///
/// `data` is `Arc`-shared with in-flight readers so block bytes can be
/// visited outside the pool lock; eviction swaps the `Arc` rather than
/// mutating through it.
#[derive(Debug)]
struct Frame {
    key: Option<BlockKey>,
    data: Arc<Vec<u8>>,
    /// Re-referenced since load (the CLOCK protection bit; streak hits on
    /// the pinned frame do not count — see `get_or_load`).
    referenced: bool,
}

/// Hit/miss/eviction counters of one pool.
///
/// Counts *pool lookups* only: streak re-reads of a reader's current block
/// are served from that reader's frame memo (see
/// [`BlockReader`](crate::io::BlockReader)) and never reach the pool, so
/// `hits` measures block-transition reuse, not raw request volume. Charged
/// I/O is unaffected either way (memo traffic and pool hits both charge
/// nothing).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Block requests served from a resident frame (not charged).
    pub hits: u64,
    /// Block requests that required a physical fetch (charged 1 I/O each).
    pub misses: u64,
    /// Frames whose contents were discarded to make room.
    pub evictions: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]` (0 when nothing was requested).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// A bounded pool of disk blocks. See the module docs for policy and
/// accounting contracts.
#[derive(Debug)]
pub struct BlockCache {
    block_size: usize,
    max_frames: usize,
    frames: Vec<Frame>,
    map: KeyMap<BlockKey, usize>,
    /// CLOCK hand (the fallback sweep).
    hand: usize,
    /// Keyless frames (invalidated or failed loads) to reuse before evicting.
    free: Vec<usize>,
    /// Insertion-ordered stack of never-re-referenced frames.
    cold_stack: Vec<usize>,
    /// Per-file most-recently-touched frame, exempt from eviction.
    pinned: KeyMap<u32, usize>,
    stats: CacheStats,
}

impl BlockCache {
    /// Pool of `B`-sized frames under `budget_bytes` of memory
    /// (`M / B` frames).
    ///
    /// Errors when the budget cannot hold even one frame — a degenerate
    /// pool would silently realise a different budget than the caller
    /// asked for. Callers expressing "no cache" should skip construction
    /// entirely; see [`BlockCache::shared`] for the budget-aware
    /// constructor that maps an insufficient budget to `None`.
    pub fn new(block_size: usize, budget_bytes: u64) -> Result<BlockCache> {
        Self::new_with_min_frames(block_size, budget_bytes, 1)
    }

    /// [`BlockCache::new`] requiring room for at least `min_frames` frames
    /// (pass the number of files sharing the pool, so every reader keeps
    /// its pinned current block). Errors when `budget_bytes` is too small.
    pub fn new_with_min_frames(
        block_size: usize,
        budget_bytes: u64,
        min_frames: u64,
    ) -> Result<BlockCache> {
        assert!(block_size > 0, "block size must be positive");
        if budget_bytes < min_frames.max(1) * block_size as u64 {
            return Err(crate::error::Error::InvalidArgument(format!(
                "cache budget of {budget_bytes} B holds fewer than {} {block_size} B frame(s)",
                min_frames.max(1)
            )));
        }
        let max_frames = (budget_bytes / block_size as u64) as usize;
        Ok(BlockCache {
            block_size,
            max_frames,
            frames: Vec::new(),
            map: KeyMap::default(),
            hand: 0,
            free: Vec::new(),
            cold_stack: Vec::new(),
            pinned: KeyMap::default(),
            stats: CacheStats::default(),
        })
    }

    /// Budget-aware shared-pool constructor: `None` when the budget cannot
    /// hold `min_frames` blocks (each reader keeps its own one frame),
    /// otherwise a pool ready to be shared by several readers. Pass the
    /// number of files that will share the pool as `min_frames` so every
    /// reader keeps its pinned current block.
    pub fn shared(
        block_size: usize,
        budget_bytes: u64,
        min_frames: u64,
    ) -> Option<Arc<Mutex<BlockCache>>> {
        Self::new_with_min_frames(block_size, budget_bytes, min_frames)
            .ok()
            .map(|c| Arc::new(Mutex::new(c)))
    }

    /// The frame size `B`.
    pub fn block_size(&self) -> usize {
        self.block_size
    }

    /// Maximum number of resident frames (`M / B`).
    pub fn capacity_frames(&self) -> usize {
        self.max_frames
    }

    /// Frames currently holding a block.
    pub fn resident_frames(&self) -> usize {
        self.map.len()
    }

    /// Bytes currently held in frames.
    pub fn resident_bytes(&self) -> u64 {
        self.frames.iter().map(|f| f.data.len() as u64).sum()
    }

    /// Counters since construction (or the last [`BlockCache::reset_stats`]).
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Keys of all resident blocks (diagnostics; order unspecified).
    pub fn resident_keys(&self) -> Vec<(u32, u64)> {
        self.map.keys().copied().collect()
    }

    /// Zero the hit/miss/eviction counters.
    pub fn reset_stats(&mut self) {
        self.stats = CacheStats::default();
    }

    /// Look up `(file, block)`; on miss, fill a frame of `len` bytes via
    /// `load` and insert it. Returns a shared handle to the frame's bytes
    /// and whether a miss occurred (the caller charges one read I/O per
    /// miss).
    ///
    /// The returned [`Arc`] stays valid after the pool lock is released —
    /// callers should drop the lock *before* decoding or visiting the
    /// bytes, so concurrent readers only serialize on the bookkeeping.
    pub fn get_or_load(
        &mut self,
        file: u32,
        block: u64,
        len: usize,
        load: impl FnOnce(&mut [u8]) -> Result<()>,
    ) -> Result<(Arc<Vec<u8>>, bool)> {
        debug_assert!(len <= self.block_size);
        if let Some(&idx) = self.map.get(&(file, block)) {
            self.stats.hits += 1;
            // A hit on the file's current (pinned) frame is streak
            // continuation — traffic a one-frame reader serves for free —
            // and carries no reuse signal. Only a return to a *different*
            // resident block counts as a genuine re-reference.
            if self.pinned.get(&file) != Some(&idx) {
                self.frames[idx].referenced = true;
                self.pinned.insert(file, idx);
            }
            return Ok((Arc::clone(&self.frames[idx].data), false));
        }
        self.stats.misses += 1;
        let idx = self.grab_frame(file);
        // Reuse the frame's buffer when no reader still holds it; otherwise
        // the old bytes belong to an in-flight visit and a fresh allocation
        // takes their place (never `make_mut`: that would memcpy doomed
        // bytes only for `load` to overwrite every one of them).
        if Arc::get_mut(&mut self.frames[idx].data).is_none() {
            self.frames[idx].data = Arc::new(Vec::with_capacity(len));
        }
        // Audited: the branch above guarantees uniqueness (a shared Arc was
        // just replaced by a fresh one), so this cannot fail.
        #[allow(clippy::expect_used)]
        let buf = Arc::get_mut(&mut self.frames[idx].data).expect("frame buffer uniquely owned");
        buf.resize(len, 0);
        if let Err(e) = load(buf) {
            // The frame holds no valid block; recycle it first next time.
            self.free.push(idx);
            return Err(e);
        }
        let frame = &mut self.frames[idx];
        frame.key = Some((file, block));
        // Inserted with the reference bit clear: a block must be revisited
        // to earn protection, which keeps one-shot scan traffic from
        // flushing the genuinely hot set.
        frame.referenced = false;
        self.map.insert((file, block), idx);
        self.pinned.insert(file, idx);
        self.cold_stack.push(idx);
        Ok((Arc::clone(&self.frames[idx].data), true))
    }

    /// Drop every frame belonging to `file` (its backing file was replaced).
    pub fn invalidate_file(&mut self, file: u32) {
        self.pinned.remove(&file);
        self.map.retain(|&(f, _), _| f != file);
        for idx in 0..self.frames.len() {
            if self.frames[idx].key.is_some_and(|(f, _)| f == file) {
                self.drop_frame(idx);
            }
        }
    }

    /// Drop all frames.
    pub fn clear(&mut self) {
        self.pinned.clear();
        self.map.clear();
        for idx in 0..self.frames.len() {
            if self.frames[idx].key.is_some() {
                self.drop_frame(idx);
            }
        }
    }

    /// Drop every frame belonging to a file id in `[first, first + count)`
    /// in **one** bookkeeping pass. Semantically identical to calling
    /// [`BlockCache::invalidate_file`] per id, but a pool lease can span
    /// billions of ids (most never used), so teardown must cost O(frames),
    /// not O(ids) — see [`crate::pool::PoolLease`].
    pub fn invalidate_file_range(&mut self, first: u32, count: u32) {
        let end = first.checked_add(count); // None: range reaches u32::MAX inclusive
        let in_range = |f: u32| f >= first && end.is_none_or(|e| f < e);
        self.pinned.retain(|&f, _| !in_range(f));
        self.map.retain(|&(f, _), _| !in_range(f));
        for idx in 0..self.frames.len() {
            if self.frames[idx].key.is_some_and(|(f, _)| in_range(f)) {
                self.drop_frame(idx);
            }
        }
    }

    /// Detach `idx` from all bookkeeping and add it to the free pool.
    /// The map entry must already be gone.
    fn drop_frame(&mut self, idx: usize) {
        let frame = &mut self.frames[idx];
        frame.key = None;
        frame.referenced = false;
        // Length drives resident_bytes(). In-flight readers sharing the Arc
        // keep the old bytes alive; the pool's view becomes empty either way.
        match Arc::get_mut(&mut frame.data) {
            Some(buf) => buf.clear(),
            None => frame.data = Arc::new(Vec::new()),
        }
        self.free.push(idx);
    }

    /// Index of a frame free to overwrite for a block of `for_file`:
    /// recycle invalidated frames, grow the pool while under budget,
    /// otherwise evict. Pinned frames are passed over while any
    /// ordinary victim exists; when only pins remain, the requesting file's
    /// own pin is sacrificed first, so each file degrades to exactly the
    /// one-current-block buffer of an unattached reader rather than files
    /// evicting each other's position.
    fn grab_frame(&mut self, for_file: u32) -> usize {
        while let Some(idx) = self.free.pop() {
            // Invalidation and load failure can enqueue an index twice; skip
            // entries that regained a key in the meantime.
            if self.frames[idx].key.is_none() {
                return idx;
            }
        }
        if self.frames.len() < self.max_frames {
            // Buffers are allocated lazily by the first load's `resize`: a
            // pool whose loads are zero-length (a charge cache — see
            // [`crate::pool`]) then never allocates frame bytes at all.
            self.frames.push(Frame {
                key: None,
                data: Arc::new(Vec::new()),
                referenced: false,
            });
            return self.frames.len() - 1;
        }
        let idx = self.pick_scan_victim(for_file);
        let frame = &mut self.frames[idx];
        if let Some(key) = frame.key.take() {
            self.map.remove(&key);
            self.stats.evictions += 1;
        }
        frame.referenced = false;
        // A forced eviction can take another file's pinned frame; drop any
        // pin still pointing here so it cannot shield the new occupant.
        self.pinned.retain(|_, &mut p| p != idx);
        idx
    }

    /// The victim: newest never-re-referenced frame, falling back to
    /// escalating CLOCK sweeps.
    fn pick_scan_victim(&mut self, for_file: u32) -> usize {
        // Pop insertion-stack entries, discarding stale ones (re-referenced
        // since load — they earned CLOCK protection). Entries pinned by
        // *other* files are set aside and restored: they are merely
        // *currently* exempt, not protected forever.
        let mut still_pinned: Vec<usize> = Vec::with_capacity(self.pinned.len());
        let mut victim = None;
        while let Some(idx) = self.cold_stack.pop() {
            let frame = &self.frames[idx];
            if frame.referenced || frame.key.is_none() {
                continue;
            }
            if self.pinned.iter().any(|(&f, &p)| p == idx && f != for_file) {
                still_pinned.push(idx);
                continue;
            }
            victim = Some(idx);
            break;
        }
        while let Some(idx) = still_pinned.pop() {
            self.cold_stack.push(idx);
        }
        if let Some(idx) = victim {
            return idx;
        }
        // Escalating sweeps: (1) CLOCK over frames not pinned by other
        // files, clearing reference bits; (2) allow anything (a pool
        // smaller than its foreign pin set cannot honour the exemption).
        let len = self.frames.len();
        let mut scanned = 0usize;
        loop {
            let idx = self.hand;
            self.hand = (self.hand + 1) % len;
            scanned += 1;
            let forced = scanned > 2 * len + 1;
            if !forced {
                let pinned_by_other = self.pinned.iter().any(|(&f, &p)| p == idx && f != for_file);
                if pinned_by_other {
                    continue;
                }
            }
            let frame = &mut self.frames[idx];
            if frame.referenced && !forced {
                frame.referenced = false;
                continue;
            }
            return idx;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_with(cache: &mut BlockCache, file: u32, block: u64, byte: u8) -> bool {
        let (_, miss) = cache
            .get_or_load(file, block, 4, |buf| {
                buf.fill(byte);
                Ok(())
            })
            .unwrap();
        miss
    }

    fn scan_lifo(frames: u64) -> BlockCache {
        BlockCache::new(4, frames * 4).unwrap()
    }

    #[test]
    fn invalidate_file_range_matches_per_file_invalidation() {
        let mut c = scan_lifo(16);
        for f in 0..6u32 {
            fill_with(&mut c, f, 0, f as u8);
            fill_with(&mut c, f, 1, f as u8);
        }
        c.invalidate_file_range(2, 3); // files 2, 3, 4
        let mut left: Vec<u32> = c.resident_keys().iter().map(|&(f, _)| f).collect();
        left.sort_unstable();
        left.dedup();
        assert_eq!(left, vec![0, 1, 5]);
        // The saturating end: a range reaching past u32::MAX clears
        // everything from `first` up.
        c.invalidate_file_range(1, u32::MAX);
        let left: Vec<u32> = c.resident_keys().iter().map(|&(f, _)| f).collect();
        assert_eq!(left, vec![0, 0]);
    }

    #[test]
    fn sub_frame_budget_is_an_error_not_a_clamp() {
        // The old behaviour silently clamped to one frame, realising a
        // bigger budget than requested; now it errors like
        // `new_with_min_frames`.
        assert!(BlockCache::new(4096, 0).is_err());
        assert!(BlockCache::new(4096, 4095).is_err());
        assert!(BlockCache::new(4096, 4096).is_ok());
        assert!(BlockCache::new_with_min_frames(4096, 4096, 2).is_err());
        assert!(BlockCache::new_with_min_frames(4096, 8192, 2).is_ok());
    }

    #[test]
    fn hits_after_first_load() {
        let mut c = scan_lifo(16);
        assert!(fill_with(&mut c, 0, 7, 0xAB));
        assert!(!fill_with(&mut c, 0, 7, 0xCD));
        let (data, miss) = c.get_or_load(0, 7, 4, |_| unreachable!()).unwrap();
        assert!(!miss);
        assert_eq!(
            data.as_slice(),
            &[0xAB; 4],
            "hit returns the originally loaded bytes"
        );
        assert_eq!(c.stats().hits, 2);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn files_do_not_collide() {
        let mut c = scan_lifo(16);
        fill_with(&mut c, 0, 1, 1);
        fill_with(&mut c, 1, 1, 2);
        let (a, _) = c.get_or_load(0, 1, 4, |_| unreachable!()).unwrap();
        assert_eq!(a.as_slice(), &[1; 4]);
        let (b, _) = c.get_or_load(1, 1, 4, |_| unreachable!()).unwrap();
        assert_eq!(b.as_slice(), &[2; 4]);
    }

    #[test]
    fn capacity_is_enforced() {
        let mut c = scan_lifo(4);
        for blk in 0..4 {
            fill_with(&mut c, 0, blk, blk as u8);
        }
        assert_eq!(c.resident_frames(), 4);
        fill_with(&mut c, 0, 99, 99);
        assert_eq!(c.resident_frames(), 4);
        assert_eq!(c.stats().evictions, 1);
    }

    #[test]
    fn scan_lifo_retains_prefix_under_cyclic_scan() {
        // Cycle over 12 blocks with 5 frames (one consumed as the rotating
        // slot). Pure recency retention scores zero hits on every lap; the
        // scan-resistant policy must keep a stable prefix instead.
        let mut c = scan_lifo(5);
        for _lap in 0..3 {
            for blk in 0..12 {
                fill_with(&mut c, 0, blk, blk as u8);
            }
        }
        let s = c.stats();
        assert!(
            s.hits >= 6,
            "cyclic scan should hit the retained prefix (hits {})",
            s.hits
        );
    }

    #[test]
    fn pinned_current_block_survives_other_files_traffic() {
        let mut c = scan_lifo(2);
        fill_with(&mut c, 0, 5, 5);
        // A burst of single-use traffic from the other file must not evict
        // file 0's current block (the one-frame-parity pin).
        for blk in 0..6 {
            fill_with(&mut c, 1, blk, blk as u8);
        }
        assert!(!fill_with(&mut c, 0, 5, 5), "pinned block was evicted");
    }

    #[test]
    fn invalidate_file_drops_only_that_file() {
        let mut c = scan_lifo(16);
        fill_with(&mut c, 0, 0, 1);
        fill_with(&mut c, 1, 0, 2);
        c.invalidate_file(0);
        assert!(fill_with(&mut c, 0, 0, 3), "file 0 must reload");
        assert!(!fill_with(&mut c, 1, 0, 2), "file 1 untouched");
    }

    #[test]
    fn load_failure_leaves_no_mapping() {
        let mut c = scan_lifo(4);
        let err = c.get_or_load(0, 0, 4, |_| Err(crate::error::Error::corrupt("injected")));
        assert!(err.is_err());
        assert_eq!(c.resident_frames(), 0);
        assert!(fill_with(&mut c, 0, 0, 5), "same block fetches again");
    }

    #[test]
    fn handed_out_bytes_survive_eviction() {
        // The visit-outside-lock contract: a reader holding a frame handle
        // keeps the original bytes even after the pool evicts and refills
        // the frame underneath it.
        let mut c = scan_lifo(1);
        fill_with(&mut c, 0, 0, 7);
        let (held, _) = c.get_or_load(0, 0, 4, |_| unreachable!()).unwrap();
        for blk in 1..5 {
            fill_with(&mut c, 0, blk, blk as u8);
        }
        assert!(fill_with(&mut c, 0, 0, 9), "block 0 was evicted");
        assert_eq!(held.as_slice(), &[7; 4], "in-flight handle kept its bytes");
    }

    #[test]
    fn shared_enforces_minimum_frames() {
        assert!(BlockCache::shared(4096, 0, 2).is_none());
        assert!(BlockCache::shared(4096, 8191, 2).is_none());
        assert!(BlockCache::shared(4096, 8192, 2).is_some());
    }

    #[test]
    fn clear_empties_the_pool() {
        let mut c = scan_lifo(8);
        for blk in 0..8 {
            fill_with(&mut c, 0, blk, 1);
        }
        c.clear();
        assert_eq!(c.resident_frames(), 0);
        // Everything reloads; the recycled frames must behave.
        for blk in 0..8 {
            assert!(fill_with(&mut c, 0, blk, 2));
        }
    }

    #[test]
    fn stats_hit_rate() {
        let mut c = scan_lifo(16);
        assert_eq!(c.stats().hit_rate(), 0.0);
        fill_with(&mut c, 0, 0, 0);
        fill_with(&mut c, 0, 1, 0);
        fill_with(&mut c, 0, 0, 0);
        fill_with(&mut c, 0, 1, 0);
        let s = c.stats();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }
}
