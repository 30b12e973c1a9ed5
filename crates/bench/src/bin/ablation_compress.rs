//! Ablation — edge-table format v1 (raw `u32`) vs v3 (stream-vbyte groups).
//!
//! The paper charges every algorithm per edge-table block read; compressing
//! the sorted adjacency lists 3× therefore cuts charged `read_ios`
//! roughly proportionally on every hot path. This sweep builds the *same*
//! graph in both formats and runs SemiCore\* at a range of cache budgets
//! (priced against the **v1** edge table, so both formats get equal `M`),
//! reporting edge-table bytes, charged reads and wall time per point.
//!
//! The binary is also the format's regression gate: it **fails loudly**
//! (non-zero exit) if v3 ever charges more blocks than v1 at equal budget,
//! or if the default R-MAT workload's 10%-budget point shows less than the
//! 25% reduction the format exists to deliver.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin ablation_compress \
//!     [-- --family rmat|ba|er --edges 150000 --json BENCH_compress.json]
//! ```

use std::io::Write as _;

use graphstore::{
    write_mem_graph_with, DiskGraph, FormatVersion, GraphPaths, IoCounter, DEFAULT_BLOCK_SIZE,
};
use kcore_bench::harness::{fmt_bytes, fmt_count, fmt_secs, graph_standin, Args, Table};
use semicore::DecomposeOptions;

fn main() -> graphstore::Result<()> {
    let args = Args::parse();
    let family = args.get("family", "rmat");
    let target_edges: u64 = args.get_num("edges", 150_000);
    let density: u64 = args.get_num("density", 24);
    let json_path = args.get("json", "");
    let dir = graphstore::TempDir::new("abl-compress")?;

    // The same graph, laid out in both encodings.
    let g = graph_standin(&family, target_edges, density);
    let bases = [
        (FormatVersion::V1, dir.path().join("v1")),
        (FormatVersion::V3, dir.path().join("v3")),
    ];
    for (version, base) in &bases {
        write_mem_graph_with(base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE), *version)?;
    }
    let edge_len = |base: &std::path::Path| {
        std::fs::metadata(GraphPaths::from_base(base).edges)
            .unwrap()
            .len()
    };
    let (e1, e3) = (edge_len(&bases[0].1), edge_len(&bases[1].1));

    println!(
        "Ablation — compressed adjacency blocks ({family}, {} nodes, {} edges)\n\
         edge table: v1 {} -> v3 {} ({:.2}x, {:.2} B/neighbour)\n",
        g.num_nodes(),
        g.num_edges(),
        fmt_bytes(e1),
        fmt_bytes(e3),
        e1 as f64 / e3 as f64,
        (e3 - graphstore::format::EDGE_HEADER_LEN) as f64 / (2 * g.num_edges()).max(1) as f64,
    );

    // Budgets priced against the v1 edge table so both formats run at the
    // same `M` — the acceptance comparison the differential suite mirrors.
    let budgets: Vec<(String, u64)> = vec![
        ("0 (uncached)".into(), 0),
        ("10% of v1 edges".into(), e1 / 10),
        ("25% of v1 edges".into(), e1 / 4),
        (
            "whole graph".into(),
            graphstore::working_set_charge_budget(&bases[0].1, DEFAULT_BLOCK_SIZE)?,
        ),
    ];

    let mut json = String::new();
    let mut t = Table::new(&["budget M", "format", "read I/Os", "hit rate", "time"]);
    let mut violations = Vec::new();
    let mut ten_pct: Option<(u64, u64)> = None;
    for (label, budget) in &budgets {
        let mut reads = [0u64; 2];
        for (i, (version, base)) in bases.iter().enumerate() {
            let mut disk =
                DiskGraph::open_with_cache(base, IoCounter::new(DEFAULT_BLOCK_SIZE), *budget)?;
            let d = semicore::semicore_star(&mut disk, &DecomposeOptions::default())?;
            reads[i] = d.stats.io.read_ios;
            let hit_rate = disk
                .cache_stats()
                .map_or("-".to_string(), |s| format!("{:.1}%", 100.0 * s.hit_rate()));
            t.row(vec![
                label.clone(),
                version.tag().to_string(),
                fmt_count(reads[i]),
                hit_rate,
                fmt_secs(d.stats.wall_time),
            ]);
            json.push_str(&format!(
                "{{\"bench\":\"ablation_compress\",\"family\":\"{family}\",\"format\":\"{}\",\"budget_bytes\":{budget},\"read_ios\":{},\"edge_bytes\":{},\"wall_ns\":{}}}\n",
                version.tag(),
                reads[i],
                if i == 0 { e1 } else { e3 },
                d.stats.wall_time.as_nanos(),
            ));
        }
        if reads[1] > reads[0] {
            violations.push(format!(
                "at M = {label}: v3 charged {} > v1 {}",
                reads[1], reads[0]
            ));
        }
        if label.starts_with("10%") {
            ten_pct = Some((reads[0], reads[1]));
        }
    }
    t.print();

    let (r1, r3) = ten_pct.expect("the sweep always contains the 10% point");
    let reduction = 100.0 * (r1.saturating_sub(r3)) as f64 / r1.max(1) as f64;
    println!(
        "\nat the 10% edge-table budget: v1 {} -> v3 {} charged reads ({reduction:.1}% fewer)",
        fmt_count(r1),
        fmt_count(r3),
    );

    if !json_path.is_empty() {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&json_path)?;
        f.write_all(json.as_bytes())?;
        println!("results appended to {json_path}");
    }

    // Regression gates: compression must never *cost* charged blocks, and
    // the default R-MAT workload must clear the 25% acceptance bar.
    if !violations.is_empty() {
        eprintln!("FORMAT V3 REGRESSION: {}", violations.join("; "));
        std::process::exit(1);
    }
    if family == "rmat" && reduction < 25.0 {
        eprintln!(
            "FORMAT V3 REGRESSION: 10%-budget reduction {reduction:.1}% is below the 25% bar"
        );
        std::process::exit(1);
    }
    Ok(())
}
