//! Figure 12 — scalability of core maintenance on the Twitter and UK
//! stand-ins: average update time, charged I/Os and node computations
//! while varying |V| and |E| from 20% to 100% (50 deletes + 50 reinserts
//! per point).
//!
//! The paper plots time only — on the stand-ins the one column its claim
//! fails on (page-cache warm, SemiInsert\* is slower at most points while
//! reading and computing less at every one), so the counters are printed
//! beside it; `tests/paper_claims.rs` asserts their ordering.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin fig12_maint_scalability [-- --scale 1.0]
//! ```

use graphstore::{
    mem_to_disk, snapshot_mem, BufferedGraph, IoCounter, MemGraph, DEFAULT_BLOCK_SIZE,
};
use kcore_bench::harness::{build_dataset, fmt_count, fmt_secs, Args, Table, UpdateCost};
use rand::rngs::SmallRng;
use rand::{seq::SliceRandom, SeedableRng};
use semicore::{
    semi_delete_star, semi_insert, semi_insert_star, semicore_star_state, DecomposeOptions,
    SparseMarks,
};

const EDGES_PER_TEST: usize = 50;

/// One table cell: average time / I/Os / node computations per update.
fn cell(avg: &UpdateCost) -> String {
    format!(
        "{} / {} / {}",
        fmt_secs(avg.time),
        fmt_count(avg.ios),
        fmt_count(avg.computations)
    )
}

/// Returns (SemiInsert avg, SemiInsert* avg, SemiDelete* avg).
fn run_point(
    g: &MemGraph,
    dir: &graphstore::TempDir,
    tag: &str,
) -> graphstore::Result<(UpdateCost, UpdateCost, UpdateCost)> {
    let mut victims: Vec<(u32, u32)> = g.edges().collect();
    let mut rng = SmallRng::seed_from_u64(0xF1612);
    victims.shuffle(&mut rng);
    victims.truncate(EDGES_PER_TEST);
    if victims.is_empty() {
        return Ok(Default::default());
    }

    let run = |use_star: bool, tag: &str| -> graphstore::Result<(UpdateCost, UpdateCost)> {
        let base = dir.path().join(tag);
        let disk = mem_to_disk(&base, g, IoCounter::new(DEFAULT_BLOCK_SIZE))?;
        let mut bg = BufferedGraph::with_default_capacity(disk);
        let (mut state, _) = semicore_star_state(&mut bg, &DecomposeOptions::default())?;
        let n = graphstore::AdjacencyRead::num_nodes(&bg);
        let mut marks = SparseMarks::new(n);
        let mut del = UpdateCost::default();
        for &(u, v) in &victims {
            del.add(&semi_delete_star(&mut bg, &mut state, u, v)?);
        }
        let mut ins = UpdateCost::default();
        for &(u, v) in &victims {
            ins.add(&if use_star {
                semi_insert_star(&mut bg, &mut state, &mut marks, u, v)?
            } else {
                semi_insert(&mut bg, &mut state, &mut marks, u, v)?
            });
        }
        Ok((del.per_update(victims.len()), ins.per_update(victims.len())))
    };

    let (del_avg, ins_plain) = run(false, &format!("{tag}-p"))?;
    let (_, ins_star) = run(true, &format!("{tag}-s"))?;
    Ok((ins_plain, ins_star, del_avg))
}

fn main() -> graphstore::Result<()> {
    let args = Args::parse();
    let scale: f64 = args.get_num("scale", 1.0);
    let dir = graphstore::TempDir::new("fig12")?;

    for name in ["Twitter", "UK"] {
        let spec = graphgen::dataset_by_name(name).unwrap();
        let mut disk = build_dataset(&spec, scale, &dir, DEFAULT_BLOCK_SIZE)?;
        let full = snapshot_mem(&mut disk)?;
        drop(disk);

        for (dim, by_nodes) in [("|V|", true), ("|E|", false)] {
            println!(
                "\nFig. 12 — {name} stand-in, varying {dim}: avg time / I/Os / node computations per update"
            );
            let mut t = Table::new(&["fraction", "SemiInsert", "SemiInsert*", "SemiDelete*"]);
            for pct in [20u32, 40, 60, 80, 100] {
                let f = pct as f64 / 100.0;
                let g = if by_nodes {
                    graphgen::sample_nodes(&full, f, 3000 + pct as u64)
                } else {
                    graphgen::sample_edges(&full, f, 4000 + pct as u64)
                };
                let tag = format!("{name}-{dim}-{pct}").replace('|', "");
                let (ins, ins_star, del) = run_point(&g, &dir, &tag)?;
                t.row(vec![
                    format!("{pct}%"),
                    cell(&ins),
                    cell(&ins_star),
                    cell(&del),
                ]);
            }
            t.print();
        }
    }
    println!("\npaper shape: SemiDelete* best and stable; SemiInsert* below SemiInsert, whose");
    println!("candidate component can be large. Here the counter half holds at every point");
    println!("(tests/paper_claims.rs asserts it); the time half does not, page-cache warm:");
    println!("SemiInsert* is the slower insertion at most points (README, \"Reproduction\").");
    Ok(())
}
