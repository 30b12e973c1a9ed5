//! SemiCore — the basic semi-external algorithm (Algorithm 3).
//!
//! Keep one `core` array (`O(n)` memory) initialised to `deg(v)` and, until
//! convergence, sequentially scan the node and edge tables recomputing every
//! node's estimate with `LocalCore`. Each iteration costs one full scan:
//! `O(l · (m + n) / B)` I/Os and `O(l · (m + n))` CPU (Theorem 4.2).

use std::time::Instant;

use graphstore::{AdjacencyRead, Result};

use crate::localcore::{local_core, Scratch};
use crate::stats::{DecomposeOptions, Decomposition, RunStats};

/// Run SemiCore (Algorithm 3) over any graph access.
pub fn semicore(g: &mut impl AdjacencyRead, opts: &DecomposeOptions) -> Result<Decomposition> {
    let start = Instant::now();
    let io_before = g.io();
    let mut stats = RunStats::new("SemiCore");
    let n = g.num_nodes();

    // Line 1: core(v) <- deg(v), an upper bound of core(v).
    let mut core = g.read_degrees()?;
    let mut per_iter = opts.track_changed_per_iteration.then(Vec::new);

    let mut scratch = Scratch::new();
    let mut update = n > 0;
    while update {
        update = false;
        let mut changed = 0u64;
        // Lines 5-9: one sequential pass over all nodes, visiting each
        // adjacency list in place (copy-free on in-memory backends).
        for v in 0..n {
            stats.node_computations += 1;
            g.with_adjacency(v, |nbrs| {
                let cold = core[v as usize];
                let cnew = local_core(cold, &core, nbrs, &mut scratch);
                if cnew != cold {
                    core[v as usize] = cnew;
                    update = true;
                    changed += 1;
                }
            })?;
        }
        stats.iterations += 1;
        if let Some(p) = per_iter.as_mut() {
            p.push(changed);
        }
        // A converged pass records zero changes; drop it from the series so
        // the plot matches Fig. 3 (which counts passes that changed nodes).
        if !update {
            if let Some(p) = per_iter.as_mut() {
                p.pop();
            }
        }
    }

    stats.peak_memory_bytes = (core.len() * 4) as u64 + scratch.resident_bytes();
    stats.io = g.io().since(&io_before);
    stats.wall_time = start.elapsed();
    stats.changed_per_iteration = per_iter;
    Ok(Decomposition { core, stats })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example_graph, PAPER_EXAMPLE_CORES};
    use crate::imcore::imcore;
    use graphstore::{mem_to_disk, IoCounter, MemGraph, TempDir, DEFAULT_BLOCK_SIZE};

    #[test]
    fn paper_example_converges_to_exact_cores() {
        let mut g = paper_example_graph();
        let d = semicore(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(d.core, PAPER_EXAMPLE_CORES);
    }

    #[test]
    fn paper_example_takes_four_iterations() {
        // Fig. 2: SemiCore needs 4 iterations (the 4th detects convergence
        // in the paper's counting: values stop changing after iteration 3,
        // and one more pass observes no change).
        let mut g = paper_example_graph();
        let d = semicore(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(d.stats.iterations, 4);
        assert_eq!(d.stats.node_computations, 36);
    }

    #[test]
    fn changed_per_iteration_series() {
        let mut g = paper_example_graph();
        let opts = DecomposeOptions {
            track_changed_per_iteration: true,
        };
        let d = semicore(&mut g, &opts).unwrap();
        // Fig. 2: iteration 1 changes v2, v3, v5, v6; iteration 2 changes
        // v5; iteration 3 changes v4; iteration 4 observes convergence.
        let series = d.stats.changed_per_iteration.unwrap();
        assert_eq!(series, vec![4, 1, 1]);
    }

    #[test]
    fn matches_imcore_on_random_graphs() {
        let mut state = 99u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        for _ in 0..25 {
            let n = 2 + next() % 80;
            let m = next() % (4 * n);
            let edges: Vec<(u32, u32)> = (0..m).map(|_| (next() % n, next() % n)).collect();
            let mut g = MemGraph::from_edges(edges, n);
            let semi = semicore(&mut g, &DecomposeOptions::default()).unwrap();
            let oracle = imcore(&g);
            assert_eq!(semi.core, oracle.core);
        }
    }

    #[test]
    fn runs_on_disk_with_linear_io_per_iteration() {
        let g = paper_example_graph();
        let dir = TempDir::new("semicore").unwrap();
        let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
        let mut disk = mem_to_disk(&dir.path().join("g"), &g, counter).unwrap();
        let d = semicore(&mut disk, &DecomposeOptions::default()).unwrap();
        assert_eq!(d.core, PAPER_EXAMPLE_CORES);
        assert!(d.stats.io.read_ios > 0);
        assert_eq!(d.stats.io.write_ios, 0, "SemiCore is read-only (A2)");
    }

    #[test]
    fn empty_and_single_node_graphs() {
        let mut g = MemGraph::from_edges(Vec::<(u32, u32)>::new(), 0);
        let d = semicore(&mut g, &DecomposeOptions::default()).unwrap();
        assert!(d.core.is_empty());
        assert_eq!(d.stats.iterations, 0);

        let mut g = MemGraph::from_edges(Vec::<(u32, u32)>::new(), 1);
        let d = semicore(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(d.core, vec![0]);
    }
}
