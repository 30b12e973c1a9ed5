//! The memory bound [`ExternalGraphBuilder`] documents, measured: a counting
//! global allocator records the high-water mark of live heap bytes across a
//! whole build, which must stay under the documented formula and must not
//! grow when `m` quadruples at fixed `n` and `run_capacity`.
//!
//! A global allocator is per binary, so this suite is a binary of its own
//! with a single test (a second test thread would allocate into the same
//! tally).

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

use graphstore::{ExternalGraphBuilder, FormatVersion, IoCounter, TempDir, DEFAULT_BLOCK_SIZE};
use testutil::Lcg;

static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// [`System`], tallying live bytes and their high-water mark.
struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, Ordering::Relaxed) + by;
        PEAK.fetch_max(live, Ordering::Relaxed);
    }
}

// SAFETY: every request is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the tallies are atomics and allocate nothing.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as given.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` is passed through as given.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            Self::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`, with
        // this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; `new_size` is the
        // caller's, under the same contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            // Counted as the new block beside the old one, which is what a
            // moving `realloc` holds at its worst.
            Self::grew(new_size);
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

const NODES: u32 = 50_000;
const RUN_CAPACITY: usize = 512 << 10;

/// Build `m` seeded random edges over [`NODES`] nodes and return the
/// builder's high-water mark of live bytes above what was live before it,
/// with the number of runs it spilled.
fn build_peak(m: u64) -> (usize, u64) {
    let dir = TempDir::new("builder-memory").unwrap();
    let base = dir.path().join("g");
    let mut rng = Lcg::new(0xB111D);
    let before = LIVE.load(Ordering::Relaxed);
    PEAK.store(before, Ordering::Relaxed);
    let mut b = ExternalGraphBuilder::new_with_format(RUN_CAPACITY, FormatVersion::V3).unwrap();
    for _ in 0..m {
        b.add_edge(rng.below(NODES), rng.below(NODES)).unwrap();
    }
    let g = b
        .finish(&base, NODES, IoCounter::new(DEFAULT_BLOCK_SIZE))
        .unwrap();
    let peak = PEAK.load(Ordering::Relaxed) - before;
    assert!(g.num_edges() > m * 9 / 10, "{} of {m}", g.num_edges());
    (peak, 2 * m / RUN_CAPACITY as u64)
}

#[test]
fn live_bytes_follow_the_documented_bound_whatever_m() {
    // The bound in `ExternalGraphBuilder`'s rustdoc: the run, the run
    // index, the writer's node entries, a read buffer per spilled run.
    let bound =
        |runs: u64| 8 * RUN_CAPACITY + (8 + 12) * NODES as usize + runs as usize * (64 << 10);
    // What the formula leaves out: the table writer's 1 MiB block buffer,
    // the 128 KiB spill buffer, one list being encoded, the opened graph.
    const SLACK: usize = 3 << 19;

    let (small, small_runs) = build_peak(500_000);
    let (large, large_runs) = build_peak(2_000_000);
    assert_eq!((small_runs, large_runs), (1, 7));
    for (peak, runs) in [(small, small_runs), (large, large_runs)] {
        println!(
            "{runs} spilled runs: peak {peak} B, bound {} B",
            bound(runs)
        );
        assert!(
            peak <= bound(runs) + SLACK,
            "peak {peak} B over {} + {SLACK} B with {runs} spilled runs",
            bound(runs)
        );
        // ... and the formula is not loose: the run really is resident.
        assert!(peak >= 8 * RUN_CAPACITY, "peak {peak} B");
    }
    assert!(
        (large as f64) <= 1.05 * small as f64,
        "m × 4 moved the peak from {small} to {large} B"
    );
}
