//! Edge-table format differential suite, one for both formats.
//!
//! The compressed edge table must be invisible to every algorithm: the same
//! graph built as v1 (raw) and v3 (stream-vbyte groups) yields
//! **bit-identical** cores and Eq. 2 counters — decomposition and
//! maintenance alike, SemiCore\* at any worker count, durable kill/reopen
//! included — while v3's charged `read_ios` is **strictly lower** at equal
//! cache budget (fewer edge-table blocks exist to read). Block readahead
//! gets the same treatment: identical decoded bytes and bit-identical
//! charged counters whether the pipeline is on or off. Every rewrite writes
//! v3, so a v1 graph migrates at its next compaction — tables, checkpoint
//! and catalogued format switching at one commit point, crash windows
//! included — or, served without a data directory, at its next flush.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use graphstore::{
    write_mem_graph_with, Catalog, DiskGraph, EvictionPolicy, FaultPlan, FaultVfs, FormatVersion,
    GraphPaths, IoCounter, MemGraph, TempDir, Vfs, DEFAULT_BLOCK_SIZE,
};
use kcore_suite::semicore::{
    semicore, semicore_plus, semicore_star_state_with, semicore_star_with, DecomposeOptions,
    ScanExecutor,
};
use kcore_suite::server::dispatch;
use kcore_suite::{CoreIndex, CoreService, DurableOptions};
use testutil::{fixtures, oracle_cores, random_mem_graph, worker_counts, Lcg};

/// An algorithm, how to run it, and the worker counts it runs at: the
/// baselines are sequential, SemiCore\* sweeps [`worker_counts`].
type Algo = (
    &'static str,
    fn(&mut DiskGraph, &DecomposeOptions, ScanExecutor) -> graphstore::Result<Vec<u32>>,
    Vec<usize>,
);

fn algos() -> Vec<Algo> {
    vec![
        ("semicore", |g, o, _| Ok(semicore(g, o)?.core), vec![1]),
        (
            "semicore+",
            |g, o, _| Ok(semicore_plus(g, o)?.core),
            vec![1],
        ),
        (
            "semicore*",
            |g, o, e| Ok(semicore_star_with(g, o, e)?.core),
            worker_counts(),
        ),
    ]
}

/// Write `g` under `dir` in `version`, returning the base.
fn write_as(dir: &TempDir, g: &MemGraph, tag: &str, version: FormatVersion) -> PathBuf {
    let base = dir.path().join(format!("{tag}-{}", version.tag()));
    write_mem_graph_with(&base, g, IoCounter::new(DEFAULT_BLOCK_SIZE), version).unwrap();
    base
}

/// Write `g` in both writable formats, returning the `(v1, v3)` bases.
fn write_pair(dir: &TempDir, g: &MemGraph, tag: &str) -> (PathBuf, PathBuf) {
    (
        write_as(dir, g, tag, FormatVersion::V1),
        write_as(dir, g, tag, FormatVersion::V3),
    )
}

fn edge_table_len(base: &Path) -> u64 {
    std::fs::metadata(GraphPaths::from_base(base).edges)
        .unwrap()
        .len()
}

fn open_cached(base: &Path, budget: u64) -> DiskGraph {
    DiskGraph::open_with_cache(base, IoCounter::new(DEFAULT_BLOCK_SIZE), budget).unwrap()
}

/// A seeded stream of edge toggles over `g` — `(u, v, insert)` — and the
/// graph it leaves behind.
fn toggle_stream(g: &MemGraph, seed: u64, len: usize) -> (Vec<(u32, u32, bool)>, MemGraph) {
    let mut rng = Lcg::new(seed);
    let mut mirror = graphstore::DynGraph::from_mem(g);
    let mut toggles = Vec::new();
    for _ in 0..len {
        let (u, v) = (rng.below(g.num_nodes()), rng.below(g.num_nodes()));
        if u == v {
            continue;
        }
        let insert = !mirror.has_edge(u, v);
        if insert {
            graphstore::DynamicGraph::insert_edge(&mut mirror, u, v).unwrap();
        } else {
            graphstore::DynamicGraph::delete_edge(&mut mirror, u, v).unwrap();
        }
        toggles.push((u, v, insert));
    }
    (toggles, graphstore::snapshot_mem(&mut mirror).unwrap())
}

fn apply_toggles(svc: &CoreService, name: &str, toggles: &[(u32, u32, bool)]) {
    for &(u, v, insert) in toggles {
        if insert {
            svc.insert_edge(name, u, v).unwrap();
        } else {
            svc.delete_edge(name, u, v).unwrap();
        }
    }
}

#[test]
fn decomposition_bit_identical_and_v3_charges_strictly_less() {
    let dir = TempDir::new("fmtdiff").unwrap();
    let (opts, algos) = (DecomposeOptions::default(), algos());
    for (family, g) in fixtures() {
        let (b1, b3) = write_pair(&dir, &g, family);
        // Equal budgets for both formats: 10% of the *v1* edge table (the
        // acceptance workload's regime) and the v1 whole working set.
        let budgets = [
            edge_table_len(&b1) / 10,
            edge_table_len(&b1) + 64 * DEFAULT_BLOCK_SIZE as u64,
        ];
        for &budget in &budgets {
            for (name, run, widths) in &algos {
                for &workers in widths {
                    let exec = if workers == 1 {
                        ScanExecutor::Sequential
                    } else {
                        ScanExecutor::parallel(workers)
                    };
                    let tag = format!("{family}/{name}/M={budget}/w{workers}");
                    let mut d1 = open_cached(&b1, budget);
                    let mut d3 = open_cached(&b3, budget);
                    let c1 = run(&mut d1, &opts, exec).unwrap();
                    let c3 = run(&mut d3, &opts, exec).unwrap();
                    assert_eq!(c1, c3, "{tag}: cores must be bit-identical");
                    assert_eq!(c1, oracle_cores(&g), "{tag}: oracle");
                    let (r1, r3) = (d1.io().read_ios, d3.io().read_ios);
                    assert!(
                        r3 < r1,
                        "{tag}: v3 must charge strictly fewer read I/Os ({r3} vs {r1})"
                    );
                }
            }
        }

        // The Eq. 2 counters the maintained state carries must match too.
        let state = |base: &Path| {
            let mut d = DiskGraph::open(base, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
            semicore_star_state_with(&mut d, &opts, ScanExecutor::Sequential)
                .unwrap()
                .0
        };
        let (s1, s3) = (state(&b1), state(&b3));
        assert_eq!(s1.core, s3.core, "{family}: state cores");
        assert_eq!(s1.cnt, s3.cnt, "{family}: Eq. 2 counters");
    }

    // "Strictly less" has a size: on a web-like graph of realistic density
    // (R-MAT scale 12, ~24 edges per node) at 10 % of the v1 edge table,
    // SemiCore* is charged at least a quarter fewer reads — the bar the
    // format was accepted at (65 % measured here).
    let web = graphgen::Rmat::web(12);
    let g = MemGraph::from_edges(graphgen::rmat_edges(web, 180_000, 42), web.num_nodes());
    let (b1, b3) = write_pair(&dir, &g, "web");
    let budget = edge_table_len(&b1) / 10;
    let [r1, r3] = [&b1, &b3].map(|base| {
        let mut d = open_cached(base, budget);
        semicore_star_with(&mut d, &opts, ScanExecutor::Sequential).unwrap();
        d.io().read_ios
    });
    assert!(
        r3 * 4 <= r1 * 3,
        "web stand-in at M = {budget}: v3 charged {r3} reads, v1 {r1} — under 25 % fewer"
    );
}

#[test]
fn maintenance_stream_bit_identical_across_formats() {
    let dir = TempDir::new("fmtdiff-maint").unwrap();
    let mut rng = Lcg::new(0xC0DEC);
    for round in 0..4 {
        let g = random_mem_graph(&mut rng, 12, 60, 3);
        let (b1, b3) = write_pair(&dir, &g, &format!("m{round}"));
        let mut i1 = CoreIndex::open_with_cache(&b1, 1 << 20).unwrap();
        let mut i3 = CoreIndex::open_with_cache(&b3, 1 << 20).unwrap();
        assert_eq!(i1.cores(), i3.cores(), "round {round}: initial cores");
        assert_eq!(
            i1.maintained_state().cnt,
            i3.maintained_state().cnt,
            "round {round}: initial cnt"
        );

        let (toggles, end) = toggle_stream(&g, 0x5B3 + round, 120);
        for (step, &(u, v, insert)) in toggles.iter().enumerate() {
            let (s1, s3) = if insert {
                (i1.insert_edge(u, v).unwrap(), i3.insert_edge(u, v).unwrap())
            } else {
                (i1.delete_edge(u, v).unwrap(), i3.delete_edge(u, v).unwrap())
            };
            // Same algorithm over the same merged adjacency: the whole
            // execution trace must agree, not just the end state.
            assert_eq!(s1.algorithm, s3.algorithm, "round {round} step {step}");
            assert_eq!(
                s1.node_computations, s3.node_computations,
                "round {round} step {step}: node computations"
            );
            assert_eq!(
                i1.cores(),
                i3.cores(),
                "round {round} step {step}: cores diverged"
            );
            assert_eq!(
                i1.maintained_state().cnt,
                i3.maintained_state().cnt,
                "round {round} step {step}: cnt diverged"
            );
        }
        assert_eq!(
            i3.cores(),
            oracle_cores(&end),
            "round {round}: final oracle"
        );
        assert!(i1.verify().unwrap() && i3.verify().unwrap());
    }
}

#[test]
fn readahead_changes_no_result_and_no_charged_counter() {
    let dir = TempDir::new("fmtdiff-ra").unwrap();
    for (family, g) in fixtures() {
        let base = write_as(&dir, &g, family, FormatVersion::V3);

        // Full adjacency sweep, pipelined vs synchronous.
        let sweep = |readahead: bool| {
            let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
            let mut dg = DiskGraph::open(&base, counter.clone()).unwrap();
            dg.set_readahead(readahead).unwrap();
            let mut all = Vec::new();
            let mut buf = Vec::new();
            for v in 0..dg.num_nodes() {
                dg.adjacency(v, &mut buf).unwrap();
                all.extend_from_slice(&buf);
            }
            (all, counter.snapshot())
        };
        let (ids_off, io_off) = sweep(false);
        let (ids_on, io_on) = sweep(true);
        assert_eq!(ids_off, ids_on, "{family}: decoded ids diverged");
        assert_eq!(io_off, io_on, "{family}: charged counters diverged");

        // A whole decomposition must agree too — cores and every counter.
        let run = |readahead: bool| {
            let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
            let mut dg = DiskGraph::open(&base, counter.clone()).unwrap();
            dg.set_readahead(readahead).unwrap();
            let cores = semicore_star_with(
                &mut dg,
                &DecomposeOptions::default(),
                ScanExecutor::Sequential,
            )
            .unwrap()
            .core;
            (cores, counter.snapshot())
        };
        let (c_off, s_off) = run(false);
        let (c_on, s_on) = run(true);
        assert_eq!(c_off, c_on, "{family}: cores diverged under readahead");
        assert_eq!(c_on, oracle_cores(&g), "{family}: oracle");
        assert_eq!(s_off, s_on, "{family}: decomposition counters diverged");
    }
}

#[test]
fn durable_kill_reopen_cycle_is_format_transparent() {
    let dir = TempDir::new("fmtdiff-durable").unwrap();
    let g = random_mem_graph(&mut Lcg::new(77), 40, 40, 4);
    let (b1, b3) = write_pair(&dir, &g, "dur");

    // Two durable services, one per format, fed the identical op stream;
    // both are dropped *without* an explicit save, so recovery replays the
    // journal tail — the kill window the WAL exists for.
    let (toggles, _) = toggle_stream(&g, 4242, 40);
    let data1 = dir.path().join("data-v1");
    let data3 = dir.path().join("data-v3");
    for (data, base) in [(&data1, &b1), (&data3, &b3)] {
        let svc = CoreService::create_durable(data, 1 << 20).unwrap();
        svc.open("g", base).unwrap();
        apply_toggles(&svc, "g", &toggles);
        // Dropped here: simulated kill with a journal tail outstanding.
    }

    let s1 = CoreService::open_catalog(&data1).unwrap();
    let s3 = CoreService::open_catalog(&data3).unwrap();
    assert_eq!(s1.format_version("g").unwrap(), FormatVersion::V1);
    assert_eq!(s3.format_version("g").unwrap(), FormatVersion::V3);
    assert_eq!(
        s1.cores("g").unwrap(),
        s3.cores("g").unwrap(),
        "recovered cores must be format-independent"
    );
    assert!(s1.verify("g").unwrap() && s3.verify("g").unwrap());
    let (r1, r3) = (s1.io("g").unwrap().read_ios, s3.io("g").unwrap().read_ios);
    assert!(
        r3 <= r1,
        "v3 recovery must not charge more than v1 ({r3} vs {r1})"
    );
    // Both survive further traffic after recovery.
    s3.insert_edge("g", 0, g.num_nodes() - 1).ok();
}

#[test]
fn recovery_rejects_base_tables_swapped_to_another_format() {
    let dir = TempDir::new("fmtdiff-swap").unwrap();
    let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 4);
    let base = dir.path().join("g");
    let write = |version| {
        write_mem_graph_with(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE), version).unwrap();
    };
    write(FormatVersion::V3);
    let data = dir.path().join("data");
    {
        let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
        svc.open("g", &base).unwrap();
        svc.insert_edge("g", 1, 3).unwrap();
    }
    // Swap the base tables for a v1 encoding of the *original* graph: the
    // checkpointed state no longer matches what is on disk, and the
    // catalogued format flag is how recovery notices.
    write(FormatVersion::V1);
    let err = CoreService::open_catalog(&data).unwrap_err();
    assert!(err.is_corrupt(), "{err}");
    assert!(err.to_string().contains("format"), "{err}");
}

#[test]
fn compact_migrates_a_v1_graph_to_v3_at_the_commit_point() {
    let dir = TempDir::new("fmtdiff-recompress").unwrap();
    let data = dir.path().join("data");
    // Consecutive neighbours: the workload v3's zero-byte gap code wins on.
    let edges = (0..300u32).flat_map(|v| [(v, v + 1), (v, (v + 2).min(300))]);
    let base = write_as(
        &dir,
        &MemGraph::from_edges(edges, 301),
        "g",
        FormatVersion::V1,
    );
    {
        let svc = CoreService::create_durable(&data, 1 << 20).unwrap();
        svc.open("g", &base).unwrap();
        assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V1);
        let cores = svc.cores("g").unwrap();

        assert_eq!(svc.compact("g").unwrap(), 1);
        assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V3);
        assert_eq!(svc.cores("g").unwrap(), cores);
        assert!(svc.verify("g").unwrap());
        let v1_len = edge_table_len(&base);
        let v3_len = edge_table_len(&dir.path().join("g-v1.g1"));
        assert!(v3_len < v1_len, "v3 {v3_len} B !< v1 {v1_len} B");
    }
    // The migrated format survives a restart (catalog + tables agree).
    let svc = CoreService::open_catalog(&data).unwrap();
    assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V3);
    assert!(svc.verify("g").unwrap());
}

/// v3 is the one written format: every in-memory constructor writes it,
/// and raw v1 comes only from asking `write_mem_graph_with` for it.
#[test]
fn every_in_memory_constructor_writes_v3() {
    let dir = TempDir::new("fmtdiff-writers").unwrap();
    let g = random_mem_graph(&mut Lcg::new(8), 40, 40, 4);
    let at = |tag: &str| dir.path().join(tag);
    let format_of = |base: &Path| {
        let disk = DiskGraph::open(base, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        disk.format_version()
    };
    graphstore::write_mem_graph(&at("written"), &g, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
    let converted =
        graphstore::mem_to_disk(&at("converted"), &g, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
    let index = CoreIndex::create(&at("index"), g.edges(), g.num_nodes()).unwrap();
    let svc = CoreService::new(1 << 20).unwrap();
    svc.create("g", &at("service"), g.edges(), g.num_nodes())
        .unwrap();
    let written = [
        format_of(&at("written")),
        converted.format_version(),
        index.format_version(),
        svc.format_version("g").unwrap(),
    ];
    assert_eq!(written, [FormatVersion::V3; 4]);
    let raw = write_as(&dir, &g, "raw", FormatVersion::V1);
    assert_eq!(format_of(&raw), FormatVersion::V1);
}

/// Without a data directory a graph's tables are rewritten in place by its
/// update-buffer flush — as v3 — and the registry's lock-free format tag
/// (`format_version`, the `graphs` verb) follows them.
#[test]
fn a_flush_turns_a_non_durable_v1_graph_into_v3() {
    let dir = TempDir::new("fmtdiff-flush").unwrap();
    let g = random_mem_graph(&mut Lcg::new(5), 40, 40, 4);
    let base = write_as(&dir, &g, "g", FormatVersion::V1);
    let svc = CoreService::new(1 << 20).unwrap();
    svc.open("g", &base).unwrap();
    assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V1);
    let (toggles, end) = toggle_stream(&g, 99, 8);
    assert!(toggles.iter().any(|&(_, _, insert)| insert));
    apply_toggles(&svc, "g", &toggles);
    svc.with_graph("g", |i| i.graph_mut().flush()).unwrap();
    assert_eq!(svc.format_version("g").unwrap(), FormatVersion::V3);
    assert_eq!(dispatch(&svc, "graphs").lines, ["serving: g(v3)"]);
    let tables = DiskGraph::open(&base, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
    assert_eq!(tables.format_version(), FormatVersion::V3);
    assert_eq!(svc.cores("g").unwrap(), oracle_cores(&end));
    assert!(svc.verify("g").unwrap());
}

/// Cores and Eq. 2 counters of the served graph `g`.
fn live_state(svc: &CoreService) -> (Vec<u32>, Vec<i32>) {
    let cnt = svc
        .with_graph("g", |idx| Ok(idx.maintained_state().cnt.clone()))
        .unwrap();
    (svc.cores("g").unwrap(), cnt)
}

/// Everything a reopen of `data` shows about graph `g`.
fn reopened_state(data: &Path) -> (FormatVersion, u64, Vec<u32>, Vec<i32>) {
    let svc = CoreService::open_catalog(data).unwrap();
    assert!(svc.verify("g").unwrap());
    let (cores, cnt) = live_state(&svc);
    (
        svc.format_version("g").unwrap(),
        svc.generation("g").unwrap(),
        cores,
        cnt,
    )
}

/// The commit point of a migration, under a kill before every sync point
/// of the migrating compaction.
#[test]
fn a_killed_migration_reopens_on_the_v1_pre_state_or_the_v3_post_state() {
    let g = random_mem_graph(&mut Lcg::new(31), 40, 40, 4);
    let (toggles, _) = toggle_stream(&g, 7, 12);
    // Serve a v1 graph durably through a fault vfs, with edits buffered.
    let serve = |dir: &TempDir| {
        let base = write_as(dir, &g, "g", FormatVersion::V1);
        let fault = FaultVfs::new(FaultPlan::default());
        let svc = CoreService::create_durable_with_vfs(
            &dir.path().join("data"),
            DEFAULT_BLOCK_SIZE,
            1 << 20,
            EvictionPolicy::ScanLifo,
            ScanExecutor::Sequential,
            DurableOptions::default(),
            Arc::clone(&fault) as Arc<dyn Vfs>,
        )
        .unwrap();
        svc.open("g", &base).unwrap();
        apply_toggles(&svc, "g", &toggles);
        (svc, fault)
    };

    // Fault-free: the compaction rewrites the tables as v3 and the catalog
    // entry flips with the generation; core/cnt are untouched.
    let dir = TempDir::new("fmtdiff-migrate").unwrap();
    let data = dir.path().join("data");
    let (svc, fault) = serve(&dir);
    let pre = live_state(&svc);
    let before = fault.sync_events();
    assert_eq!(svc.compact("g").unwrap(), 1);
    let commit_syncs = fault.sync_events() - before;
    assert_eq!(live_state(&svc), pre, "migration changed core/cnt");
    let entry = Catalog::read(&data).unwrap().entries.remove(0);
    assert_eq!((entry.format, entry.generation), (FormatVersion::V3, 1));
    let tables = DiskGraph::open(&entry.table_base(), IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
    assert_eq!(tables.format_version(), FormatVersion::V3);
    drop(svc);
    let post = (FormatVersion::V3, 1, pre.0.clone(), pre.1.clone());
    assert_eq!(reopened_state(&data), post);

    // A kill before every sync point of the migration: reopen finds the
    // v1 pre-state or the v3 post-state, never a mixture — and while only
    // the new tables (3 sync events) or the new checkpoint (3 more) have
    // landed, not yet the catalog rename, it is the v1 pre-state.
    let pre_state = (FormatVersion::V1, 0, pre.0, pre.1);
    for k in 1..=commit_syncs {
        let dir = TempDir::new("fmtdiff-migrate-crash").unwrap();
        let (svc, fault) = serve(&dir);
        fault.set_plan(FaultPlan {
            crash_before_sync: Some(k),
            ..FaultPlan::default()
        });
        let migrated = svc.compact("g");
        assert!(migrated.is_err(), "crash {k} never fired");
        drop(svc);
        let got = reopened_state(&dir.path().join("data"));
        if k <= 7 {
            assert_eq!(got, pre_state, "crash {k}: must reopen on the v1 pre-state");
        } else {
            assert!(got == pre_state || got == post, "crash {k}: third state");
        }
    }
}
