//! Ablation — update-buffer capacity sweep (§V "Graph Maintenance").
//!
//! The edge update buffer trades memory for write deferral: a larger buffer
//! absorbs more updates before the on-disk graph must be rewritten. This
//! sweep replays the same mixed update stream at several capacities and
//! reports flushes and write I/Os.
//!
//! ```sh
//! cargo run --release -p kcore-bench --bin ablation_buffer [-- --scale 0.3]
//! ```

use graphstore::{mem_to_disk, snapshot_mem, BufferedGraph, IoCounter, DEFAULT_BLOCK_SIZE};
use kcore_bench::harness::{fmt_count, fmt_secs, Args, Table};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use semicore::{
    semi_delete_star, semi_insert_star, semicore_star_state, DecomposeOptions, SparseMarks,
};

fn main() -> graphstore::Result<()> {
    let mut args = Args::parse();
    let scale: f64 = args.get_num("scale", 0.3);
    let ops: usize = args.get_num("ops", 3000);
    args.finish();
    let dir = graphstore::TempDir::new("abl-buffer")?;
    let spec = graphgen::dataset_by_name("Youtube").unwrap();
    let full = spec.generate_mem(scale);

    println!(
        "Ablation — update-buffer capacity on the Youtube stand-in ({} nodes, {} edges, {ops} updates)\n",
        full.num_nodes(),
        full.num_edges()
    );
    let mut t = Table::new(&[
        "capacity",
        "flushes",
        "write I/Os",
        "read I/Os",
        "total time",
    ]);
    for cap in [64usize, 512, 4096, 32768, 1 << 20] {
        let base = dir.path().join(format!("g{cap}"));
        let disk = mem_to_disk(&base, &full, IoCounter::new(DEFAULT_BLOCK_SIZE))?;
        let mut bg = BufferedGraph::new(disk, cap);
        let (mut state, _) = semicore_star_state(&mut bg, &DecomposeOptions::default())?;
        let n = graphstore::AdjacencyRead::num_nodes(&bg);
        let mut marks = SparseMarks::new(n);
        let io0 = graphstore::AdjacencyRead::io(&bg);

        let mut rng = SmallRng::seed_from_u64(99);
        let mut live: Vec<(u32, u32)> = full.edges().collect();
        let t0 = std::time::Instant::now();
        for _ in 0..ops {
            if rng.gen_bool(0.5) && !live.is_empty() {
                let i = rng.gen_range(0..live.len());
                let (u, v) = live.swap_remove(i);
                semi_delete_star(&mut bg, &mut state, u, v)?;
            } else {
                let u = rng.gen_range(0..n);
                let v = rng.gen_range(0..n);
                if u == v {
                    continue;
                }
                // Cheap membership check against the mirror list.
                if live.contains(&(u.min(v), u.max(v))) {
                    continue;
                }
                semi_insert_star(&mut bg, &mut state, &mut marks, u, v)?;
                live.push((u.min(v), u.max(v)));
            }
        }
        let elapsed = t0.elapsed();
        let io = graphstore::AdjacencyRead::io(&bg).since(&io0);

        // Sanity: maintained state must match scratch recomputation.
        let snap = snapshot_mem(&mut bg)?;
        assert_eq!(state.core, semicore::imcore(&snap).core);

        t.row(vec![
            fmt_count(cap as u64),
            bg.flushes().to_string(),
            fmt_count(io.write_ios),
            fmt_count(io.read_ios),
            fmt_secs(elapsed),
        ]);
    }
    t.print();
    println!("\nexpected: flushes and write I/Os fall as capacity grows; beyond the stream");
    println!("size the buffer never flushes and updates are read-only.");
    Ok(())
}
