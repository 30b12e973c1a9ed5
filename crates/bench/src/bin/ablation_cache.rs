//! Ablation — block-cache budget sweep (the external-memory model's `M`).
//!
//! The paper's memory-scalability experiments (Fig. 11) vary how much of the
//! graph the algorithm may hold; this sweep does the same for the storage
//! layer's buffer pool. SemiCore\* runs over the same on-disk R-MAT or BA
//! graph with the cache budget swept from 0 (the O(1)-buffer baseline) up to
//! the full graph size, reporting physical block reads, hit rate and wall
//! time. Expected shape: read I/Os fall monotonically with `M`; once the
//! budget covers the whole graph, every pass after the first is free and the
//! total approaches one sequential scan.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin ablation_cache \
//!     [-- --family rmat|ba --edges 150000]
//! ```

use graphstore::{mem_to_disk, DiskGraph, IoCounter, DEFAULT_BLOCK_SIZE};
use kcore_bench::harness::{fmt_bytes, fmt_count, fmt_secs, graph_standin, Args, Table};
use semicore::DecomposeOptions;

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let family = args.family();
    let target_edges: u64 = args.get_num("edges", 150_000);
    // Density m/n of the stand-in. The paper's web crawls sit at 27–43
    // (Table I); at such densities the node table fits in a small fraction
    // of the edge table, which is where partial budgets start to pay.
    let density: u64 = args.get_num("density", 24);
    args.finish();
    let dir = graphstore::TempDir::new("abl-cache")?;

    // Build one fixed graph on disk; every sweep point re-opens it cold.
    let g = graph_standin(family, target_edges, density);
    let base = dir.path().join("g");
    let disk = mem_to_disk(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE))?;
    let node_bytes = disk.meta().node_file_len();
    let edge_bytes = disk.meta().edge_file_len();
    drop(disk);

    println!(
        "Ablation — cache budget sweep ({family}, {} nodes, {} edges; node table {}, edge table {})\n",
        g.num_nodes(),
        g.num_edges(),
        fmt_bytes(node_bytes),
        fmt_bytes(edge_bytes),
    );

    let total = node_bytes + edge_bytes;
    let budgets: Vec<(String, u64)> = vec![
        ("0 (uncached)".into(), 0),
        ("1% of edges".into(), edge_bytes / 100),
        ("5% of edges".into(), edge_bytes / 20),
        ("10% of edges".into(), edge_bytes / 10),
        ("25% of edges".into(), edge_bytes / 4),
        ("50% of edges".into(), edge_bytes / 2),
        ("whole graph".into(), total + DEFAULT_BLOCK_SIZE as u64),
    ];

    let mut t = Table::new(&["budget M", "bytes", "read I/Os", "hit rate", "time"]);
    let mut uncached_reads = 0u64;
    for (label, budget) in &budgets {
        let mut disk =
            DiskGraph::open_with_cache(&base, IoCounter::new(DEFAULT_BLOCK_SIZE), *budget)?;
        let d = semicore::semicore_star(&mut disk, &DecomposeOptions::default())?;
        let reads = d.stats.io.read_ios;
        if *budget == 0 {
            uncached_reads = reads;
        }
        let hit_rate = disk
            .cache_stats()
            .map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s.hit_rate()));
        t.row(vec![
            label.clone(),
            fmt_bytes(disk.cache_budget_bytes()),
            fmt_count(reads),
            hit_rate,
            fmt_secs(d.stats.wall_time),
        ]);
    }
    t.print();

    let scan = (node_bytes + edge_bytes) / DEFAULT_BLOCK_SIZE as u64;
    println!(
        "\none sequential scan = ~{} I/Os; uncached SemiCore* paid {} — the gap is the\n\
         re-read traffic a real M budget recovers. Expected: monotone fall, whole-graph\n\
         budget within a few blocks of the single-scan floor.",
        fmt_count(scan),
        fmt_count(uncached_reads),
    );

    Ok(())
}
