//! Property tests for the memory-budgeted block cache: a cached
//! [`DiskGraph`] must be observably identical to an uncached one (bytes and
//! errors), never charge more I/O, and deliver the paper-style memory
//! scalability the cache exists for (fewer physical reads as `M` grows).

use graphstore::{
    mem_to_disk, write_mem_graph_with, AdjacencyRead, BufferedGraph, DiskGraph, DynGraph,
    ExternalGraphBuilder, FormatVersion, IoCounter, MemGraph, TempDir, DEFAULT_BLOCK_SIZE,
    DEFAULT_BUFFER_CAPACITY,
};
use kcore_suite::CoreIndex;
use proptest::prelude::*;
use semicore::DecomposeOptions;

/// An arbitrary small graph plus a random access pattern over it.
fn arb_graph_and_accesses() -> impl Strategy<Value = (u32, Vec<(u32, u32)>, Vec<u32>)> {
    (2u32..120, 0usize..400, 1usize..300).prop_flat_map(|(n, m, a)| {
        let edges = proptest::collection::vec((0..n, 0..n), m);
        let accesses = proptest::collection::vec(0..n, a);
        (edges, accesses).prop_map(move |(e, acc)| (n, e, acc))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn cached_graph_is_byte_identical_to_uncached(
        (n, edges, accesses) in arb_graph_and_accesses(),
        budget_blocks in 0u64..12,
    ) {
        let g = MemGraph::from_edges(edges, n);
        let dir = TempDir::new("cacheq").unwrap();
        let base = dir.path().join("g");
        // A small block size so even tiny graphs span many blocks.
        let block = 256usize;
        mem_to_disk(&base, &g, IoCounter::new(block)).unwrap();

        let mut plain = DiskGraph::open(&base, IoCounter::new(block)).unwrap();
        let mut cached = DiskGraph::open_with_cache(
            &base,
            IoCounter::new(block),
            budget_blocks * block as u64,
        ).unwrap();

        prop_assert_eq!(plain.read_degrees().unwrap(), cached.read_degrees().unwrap());
        let mut a = Vec::new();
        let mut b = Vec::new();
        for &v in &accesses {
            plain.adjacency(v, &mut a).unwrap();
            cached.adjacency(v, &mut b).unwrap();
            prop_assert_eq!(&a, &b, "adjacency({}) diverged", v);
            // The borrowed visit agrees with the copying path on both.
            let owned = cached.with_adjacency(v, |nbrs| nbrs.to_vec()).unwrap();
            prop_assert_eq!(&owned, &b, "with_adjacency({}) diverged", v);
        }
    }

    #[test]
    fn cache_never_charges_more_than_no_cache(
        (n, edges, accesses) in arb_graph_and_accesses(),
        budget_blocks in 1u64..16,
    ) {
        let g = MemGraph::from_edges(edges, n);
        let dir = TempDir::new("cacheq").unwrap();
        let base = dir.path().join("g");
        let block = 256usize;
        mem_to_disk(&base, &g, IoCounter::new(block)).unwrap();

        let run = |budget: u64| {
            let mut disk =
                DiskGraph::open_with_cache(&base, IoCounter::new(block), budget).unwrap();
            let mut buf = Vec::new();
            disk.read_degrees().unwrap();
            for &v in &accesses {
                disk.adjacency(v, &mut buf).unwrap();
            }
            disk.io().read_ios
        };

        // The uncached-domination guarantee is what the policy's per-file
        // pins buy.
        let uncached = run(0);
        let cached = run(budget_blocks * block as u64);
        prop_assert!(
            cached <= uncached,
            "budget of {} blocks charged {} reads vs {} uncached",
            budget_blocks, cached, uncached
        );
    }

    // The policy's design target: repeated ascending sweeps (the
    // shape of every semi-external convergence loop). Warm laps must charge
    // no more than the cold lap, and with a non-trivial budget they must
    // charge strictly less.
    #[test]
    fn scan_policy_profits_from_repeated_sweeps(
        (n, edges, _) in arb_graph_and_accesses(),
        budget_blocks in 4u64..24,
    ) {
        let g = MemGraph::from_edges(edges, n);
        let dir = TempDir::new("cacheq").unwrap();
        let base = dir.path().join("g");
        let block = 256usize;
        mem_to_disk(&base, &g, IoCounter::new(block)).unwrap();

        let mut disk = DiskGraph::open_with_cache(
            &base,
            IoCounter::new(block),
            budget_blocks * block as u64,
        ).unwrap();
        let mut buf = Vec::new();
        let mut lap = |d: &mut DiskGraph| {
            let before = d.io().read_ios;
            for v in 0..n {
                d.adjacency(v, &mut buf).unwrap();
            }
            d.io().read_ios - before
        };
        let cold = lap(&mut disk);
        let warm1 = lap(&mut disk);
        let warm2 = lap(&mut disk);
        prop_assert!(warm1 <= cold, "warm lap {warm1} vs cold {cold}");
        prop_assert!(warm2 <= cold, "warm lap {warm2} vs cold {cold}");
        // With at least a few frames beyond the pins, laps must score hits.
        if cold > budget_blocks {
            let stats = disk.cache_stats().unwrap();
            prop_assert!(stats.hits > 0, "no reuse across sweeps");
        }
    }

    #[test]
    fn cached_maintenance_stream_matches_mirror(
        (n, edges, _) in arb_graph_and_accesses(),
        toggles in proptest::collection::vec((0u32..120, 0u32..120), 0usize..40),
    ) {
        let g = MemGraph::from_edges(edges, n);
        let dir = TempDir::new("cacheq").unwrap();
        let base = dir.path().join("g");
        mem_to_disk(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        // Cached disk graph under a buffered dynamic view with a tiny flush
        // capacity, so rewrites invalidate cached frames mid-stream.
        let disk = DiskGraph::open_with_cache(
            &base,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
            8 * DEFAULT_BLOCK_SIZE as u64,
        ).unwrap();
        let mut buffered = BufferedGraph::new(disk, 8);
        let mut mirror = DynGraph::from_mem(&g);
        for (a, b) in toggles {
            let (a, b) = (a % n, b % n);
            if a == b {
                continue;
            }
            if mirror.has_edge(a, b) {
                mirror.delete_edge(a, b).unwrap();
                graphstore::DynamicGraph::delete_edge(&mut buffered, a, b).unwrap();
            } else {
                mirror.insert_edge(a, b).unwrap();
                graphstore::DynamicGraph::insert_edge(&mut buffered, a, b).unwrap();
            }
        }
        let snap = graphstore::snapshot_mem(&mut buffered).unwrap();
        prop_assert_eq!(snap, mirror.to_mem());
    }
}

/// The headline acceptance property: on an R-MAT workload of at least 10^5
/// edges, SemiCore* with a cache budget of ~10% of the edge table performs
/// measurably fewer physical block reads than the uncached baseline, reads
/// only fall as the budget `M` grows from nothing to the whole graph, and
/// the whole-graph budget lands within a few blocks of one sequential scan.
#[test]
fn semicore_star_cache_budget_reduces_physical_reads() {
    let p = graphgen::Rmat::web(13);
    let g = MemGraph::from_edges(graphgen::rmat_edges(p, 850_000, 42), p.num_nodes());
    assert!(
        g.num_edges() >= 100_000,
        "workload too small: {}",
        g.num_edges()
    );
    let dir = TempDir::new("cacheabl").unwrap();
    let base = dir.path().join("g");
    let meta = mem_to_disk(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE))
        .unwrap()
        .meta();
    let (nodes, edges) = (meta.node_file_len(), meta.edge_file_len());

    // Uncached, 10 % and 50 % of the edge table, the whole graph
    // (`ablation_cache` prints the finer sweep).
    let budgets = [
        0,
        edges / 10,
        edges / 2,
        nodes + edges + DEFAULT_BLOCK_SIZE as u64,
    ];
    let mut reads = Vec::new();
    let mut reference: Option<Vec<u32>> = None;
    for budget in budgets {
        let mut disk =
            DiskGraph::open_with_cache(&base, IoCounter::new(DEFAULT_BLOCK_SIZE), budget).unwrap();
        let d = semicore::semicore_star(&mut disk, &DecomposeOptions::default()).unwrap();
        let core = reference.get_or_insert_with(|| d.core.clone());
        assert_eq!(*core, d.core, "M = {budget}: cache must not change results");
        reads.push(d.stats.io.read_ios);
    }
    let (uncached, ten_pct, whole) = (reads[0], reads[1], reads[3]);

    // ~10% of the edge table: measurably fewer physical reads (>= 3%).
    assert!(
        ten_pct as f64 <= 0.97 * uncached as f64,
        "10% budget: {ten_pct} reads vs {uncached} uncached"
    );
    // More memory strictly saves reads at every step of the sweep.
    assert!(
        reads.windows(2).all(|w| w[1] < w[0]),
        "reads are not monotone in M: {reads:?} at budgets {budgets:?}"
    );
    // Whole-graph budget: every block is fetched once, so the total sits
    // within a few blocks (the tables' partial tails) of one sequential
    // scan — 928 against 925 here.
    let scan_blocks = (nodes + edges) / DEFAULT_BLOCK_SIZE as u64;
    assert!(
        whole <= scan_blocks + 4,
        "whole-graph budget: {whole} reads vs scan floor {scan_blocks}"
    );
}

/// Graph handles are `Send` now that counters are atomics and the cache sits
/// behind a `Mutex` — the prerequisite for parallel scans.
#[test]
fn graph_handles_are_send() {
    fn assert_send<T: Send>() {}
    assert_send::<DiskGraph>();
    assert_send::<BufferedGraph>();
    assert_send::<MemGraph>();
    assert_send::<DynGraph>();
    assert_send::<CoreIndex>();
    assert_send::<graphstore::IoCounter>();
}

/// The facade exposes the budget end to end.
#[test]
fn core_index_cache_plumbing() {
    let dir = TempDir::new("cacheidx").unwrap();
    let base = dir.path().join("g");
    let edges: Vec<(u32, u32)> = (0..400u32).map(|i| (i, (i + 1) % 400)).collect();
    let created = CoreIndex::create(&base, edges, 400).unwrap();
    assert!(created.cores().iter().all(|&c| c == 2), "cycle is a 2-core");
    let idx = CoreIndex::open_with_cache(&base, 1 << 20).unwrap();
    let stats = idx.cache_stats().expect("cache attached");
    assert!(
        stats.hits + stats.misses > 0,
        "decomposition went through the cache"
    );
    let plain = CoreIndex::open_with_cache(&base, 0).unwrap();
    assert!(plain.cache_stats().is_none());
    assert_eq!(idx.cores(), plain.cores());
    assert_eq!(created.cores(), plain.cores());
}

/// `CoreIndex` decomposes the bare [`DiskGraph`]; a [`BufferedGraph`]
/// wrapped around the same tables must converge to the same state through
/// the same passes and charge exactly the same I/O — for v1 and v3 tables,
/// uncached, at a quarter of the tables and at the whole graph.
#[test]
fn core_index_decomposition_charges_like_a_buffered_scan() {
    let dir = TempDir::new("cacheidx").unwrap();
    for (name, g) in testutil::fixtures() {
        for format in [FormatVersion::V1, FormatVersion::V3] {
            let base = dir.path().join(format!("{name}-{format:?}"));
            let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
            let disk = if format == FormatVersion::V1 {
                write_mem_graph_with(&base, &g, counter.clone(), format).unwrap();
                DiskGraph::open(&base, counter).unwrap()
            } else {
                let mut builder = ExternalGraphBuilder::new(1 << 16).unwrap();
                for (u, v) in g.edges() {
                    builder.add_edge(u, v).unwrap();
                }
                builder.finish(&base, g.num_nodes(), counter).unwrap()
            };
            assert_eq!(disk.format_version(), format);
            let tables = disk.meta().node_file_len() + disk.meta().edge_file_len();
            drop(disk);
            let whole = graphstore::working_set_charge_budget(&base, DEFAULT_BLOCK_SIZE).unwrap();
            for budget in [0, tables / 4, whole] {
                let at = format!("{name} {format:?} M = {budget}");
                let idx = CoreIndex::open_with_cache(&base, budget).unwrap();
                let disk =
                    DiskGraph::open_with_cache(&base, IoCounter::new(DEFAULT_BLOCK_SIZE), budget)
                        .unwrap();
                let mut buffered = BufferedGraph::new(disk, DEFAULT_BUFFER_CAPACITY);
                let (state, stats) =
                    semicore::semicore_star_state(&mut buffered, &DecomposeOptions::default())
                        .unwrap();
                assert_eq!(idx.cores(), state.core.as_slice(), "{at}: cores");
                assert_eq!(idx.maintained_state().cnt, state.cnt, "{at}: cnt");
                let ran = idx.decompose_stats();
                assert_eq!(ran.iterations, stats.iterations, "{at}: iterations");
                assert_eq!(
                    ran.node_computations, stats.node_computations,
                    "{at}: node computations"
                );
                assert_eq!(ran.io, stats.io, "{at}: decomposition I/O");
                assert_eq!(idx.io(), buffered.io(), "{at}: cumulative I/O");
            }
        }
    }
}
