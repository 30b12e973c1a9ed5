//! Core maintenance under a live edge stream.
//!
//! Replays a stream of edge insertions and deletions against a disk-resident
//! graph, maintaining core numbers incrementally (SemiInsert\* /
//! SemiDelete\*), and periodically cross-checks against recomputation from
//! scratch — demonstrating §V end to end, including the update buffer that
//! batches disk rewrites.
//!
//! ```sh
//! cargo run --release --example dynamic_stream
//! ```

use graphgen::preferential_attachment;
use graphstore::snapshot_mem;
use graphstore::{mem_to_disk, IoCounter, MemGraph, TempDir, DEFAULT_BLOCK_SIZE};
use kcore_suite::CoreIndex;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use semicore::{imcore, ScanExecutor};

fn main() -> graphstore::Result<()> {
    let n = 20_000u32;
    let g = MemGraph::from_edges(preferential_attachment(n, 5, 42), n);
    println!(
        "base graph: {} nodes, {} edges",
        g.num_nodes(),
        g.num_edges()
    );

    let dir = TempDir::new("kcore-stream")?;
    let disk = mem_to_disk(
        &dir.path().join("g"),
        &g,
        IoCounter::new(DEFAULT_BLOCK_SIZE),
    )?;
    // A small buffer forces periodic flushes so their cost is visible.
    let mut index = CoreIndex::from_disk_graph(disk, 4096, ScanExecutor::Sequential)?;
    println!(
        "initial decomposition: kmax = {}, {} iterations, {} read I/Os",
        index.kmax(),
        index.decompose_stats().iterations,
        index.decompose_stats().io.read_ios
    );

    let mut rng = SmallRng::seed_from_u64(7);
    let mut live: Vec<(u32, u32)> = g.edges().collect();
    let mut ins_ios = 0u64;
    let mut del_ios = 0u64;
    let mut ins_ops = 0u64;
    let mut del_ops = 0u64;
    let steps = 2_000u32;

    let t0 = std::time::Instant::now();
    for step in 0..steps {
        if rng.gen_bool(0.5) && !live.is_empty() {
            // Delete a random existing edge.
            let i = rng.gen_range(0..live.len());
            let (u, v) = live.swap_remove(i);
            let st = index.delete_edge(u, v)?;
            del_ios += st.total_ios();
            del_ops += 1;
        } else {
            // Insert a random absent edge.
            let u = rng.gen_range(0..n);
            let v = rng.gen_range(0..n);
            if u == v || index.has_edge(u, v)? {
                continue;
            }
            let st = index.insert_edge(u, v)?;
            ins_ios += st.total_ios();
            ins_ops += 1;
            live.push((u, v));
        }
        if step % 500 == 499 {
            println!(
                "  step {:>5}: kmax = {}, pending buffer edits = {}, flushes = {}",
                step + 1,
                index.kmax(),
                index.graph_mut().pending_edits(),
                index.graph_mut().flushes()
            );
        }
    }
    let elapsed = t0.elapsed();

    println!(
        "\n{} inserts (avg {:.1} I/Os), {} deletes (avg {:.1} I/Os) in {:.2} s ({:.0} µs/op)",
        ins_ops,
        ins_ios as f64 / ins_ops.max(1) as f64,
        del_ops,
        del_ios as f64 / del_ops.max(1) as f64,
        elapsed.as_secs_f64(),
        elapsed.as_micros() as f64 / (ins_ops + del_ops) as f64
    );

    // Cross-check the maintained result against recomputation from scratch.
    let mem_now = snapshot_mem(index.graph_mut())?;
    let oracle = imcore(&mem_now);
    assert_eq!(index.cores(), oracle.core.as_slice());
    println!("maintained cores match recomputation from scratch: OK");
    Ok(())
}
