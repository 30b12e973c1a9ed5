//! SemiCore+ — partial node computation (Algorithm 4).
//!
//! Lemma 4.1: a node's estimate can only change in iteration `i > 1` if a
//! neighbour's estimate changed in iteration `i − 1`. SemiCore+ therefore
//! keeps an `active(v)` flag and a `[vmin, vmax]` window: only active nodes
//! within the window are re-read from disk and recomputed, and an estimate
//! change re-activates the node's neighbours (forward neighbours in the same
//! iteration, backward neighbours in the next).

use std::time::Instant;

use graphstore::{AdjacencyRead, Result};

use crate::bits::BitSet;
use crate::localcore::{local_core, Scratch};
use crate::stats::{DecomposeOptions, Decomposition, RunStats};
use crate::window::ScanWindow;

/// Run SemiCore+ (Algorithm 4) over any graph access.
pub fn semicore_plus(g: &mut impl AdjacencyRead, opts: &DecomposeOptions) -> Result<Decomposition> {
    let start = Instant::now();
    let io_before = g.io();
    let mut stats = RunStats::new("SemiCore+");
    let n = g.num_nodes();

    // Lines 1-4: core <- deg, everything active, full window.
    let mut core = g.read_degrees()?;
    let mut active = BitSet::all_set(n);
    let mut window = ScanWindow::full(n);
    let mut per_iter = opts.track_changed_per_iteration.then(Vec::new);

    let mut scratch = Scratch::new();
    if n == 0 {
        window.update = false;
    }
    while window.update {
        window.begin_iteration();
        let mut changed = 0u64;
        let mut v = window.vmin as u64;
        // `window.vmax` may grow while scanning (forward activations).
        while v <= window.vmax as u64 {
            let vu = v as u32;
            if active.get(vu) {
                // Line 8: consume the activation.
                active.clear(vu);
                stats.node_computations += 1;
                g.with_adjacency(vu, |nbrs| {
                    let cold = core[vu as usize];
                    let cnew = local_core(cold, &core, nbrs, &mut scratch);
                    if cnew != cold {
                        core[vu as usize] = cnew;
                        changed += 1;
                        // Lines 11-14: re-activate neighbours, widen windows.
                        for &u in nbrs {
                            active.set(u);
                            window.schedule(u, vu);
                        }
                    }
                })?;
            }
            v += 1;
        }
        stats.iterations += 1;
        if let Some(p) = per_iter.as_mut() {
            p.push(changed);
        }
        window.end_iteration();
    }
    if let Some(p) = per_iter.as_mut() {
        while p.last() == Some(&0) {
            p.pop();
        }
    }

    stats.peak_memory_bytes =
        (core.len() * 4) as u64 + active.resident_bytes() + scratch.resident_bytes();
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
    use crate::semicore::semicore;
    use graphstore::{mem_to_disk, IoCounter, MemGraph, TempDir, DEFAULT_BLOCK_SIZE};

    #[test]
    fn paper_example_converges_to_exact_cores() {
        let mut g = paper_example_graph();
        let d = semicore_plus(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(d.core, PAPER_EXAMPLE_CORES);
    }

    #[test]
    fn paper_example_node_computations_match_example_4_2() {
        // Example 4.2: SemiCore+ reduces node computations from 36 to 23.
        let mut g = paper_example_graph();
        let d = semicore_plus(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(d.stats.node_computations, 23);
    }

    #[test]
    fn computes_fewer_nodes_than_semicore() {
        let mut state = 4242u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 300u32;
        let edges: Vec<(u32, u32)> = (0..900).map(|_| (next() % n, next() % n)).collect();
        let mut g = MemGraph::from_edges(edges, n);
        let base = semicore(&mut g, &DecomposeOptions::default()).unwrap();
        let plus = semicore_plus(&mut g, &DecomposeOptions::default()).unwrap();
        assert_eq!(base.core, plus.core);
        assert!(
            plus.stats.node_computations <= base.stats.node_computations,
            "partial computation must not do more work"
        );
    }

    #[test]
    fn matches_imcore_on_random_graphs() {
        let mut state = 31337u64;
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
            let d = semicore_plus(&mut g, &DecomposeOptions::default()).unwrap();
            assert_eq!(d.core, imcore(&g).core);
        }
    }

    #[test]
    fn disk_run_is_read_only_and_cheaper_than_semicore() {
        let mut state = 777u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as u32
        };
        let n = 2000u32;
        let edges: Vec<(u32, u32)> = (0..6000).map(|_| (next() % n, next() % n)).collect();
        let g = MemGraph::from_edges(edges, n);
        let dir = TempDir::new("semiplus").unwrap();

        let mut d1 = mem_to_disk(
            &dir.path().join("a"),
            &g,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        )
        .unwrap();
        let base = semicore(&mut d1, &DecomposeOptions::default()).unwrap();
        let mut d2 = mem_to_disk(
            &dir.path().join("b"),
            &g,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        )
        .unwrap();
        let plus = semicore_plus(&mut d2, &DecomposeOptions::default()).unwrap();

        assert_eq!(base.core, plus.core);
        assert_eq!(plus.stats.io.write_ios, 0);
        assert!(
            plus.stats.io.read_ios <= base.stats.io.read_ios,
            "SemiCore+ reads {} blocks vs SemiCore {}",
            plus.stats.io.read_ios,
            base.stats.io.read_ios
        );
    }

    #[test]
    fn empty_graph() {
        let mut g = MemGraph::from_edges(Vec::<(u32, u32)>::new(), 0);
        let d = semicore_plus(&mut g, &DecomposeOptions::default()).unwrap();
        assert!(d.core.is_empty());
    }
}
