//! EMCore — the partition-based external-memory baseline (Algorithm 2,
//! Cheng et al., ICDE 2011).
//!
//! EMCore computes core numbers top-down over ranges `[kl, ku]`: each round
//! it loads every partition containing a node whose core-number upper bound
//! `ub(v)` falls in the range, peels the loaded subgraph in memory
//! (crediting *deposits* from already-finalised neighbours), finalises the
//! nodes whose core lands in range, and writes the shrunken partitions back
//! to disk.
//!
//! The reproduction keeps the two properties the paper criticises:
//!
//! * **Unbounded memory** — `kl` is chosen so the loaded partitions fit the
//!   memory budget *if possible*; when even the top range overflows, the
//!   partitions are loaded regardless (Fig. 9(c): EMCore's footprint
//!   approaches the in-memory algorithm's on dense graphs).
//! * **Read + write I/O** — every loaded partition is rewritten each round.
//!
//! Policy choices the original leaves open (partitioning, `kl` estimation)
//! are documented in DESIGN.md.

use std::collections::HashMap;
use std::time::Instant;

use graphstore::{AdjacencyRead, PartitionStore, Result};

use crate::stats::{Decomposition, RunStats};

/// Tuning knobs for [`emcore`].
#[derive(Debug, Clone)]
pub struct EmCoreOptions {
    /// Target bytes per partition on disk.
    pub partition_bytes: u64,
    /// Memory budget for loaded partitions per round, in bytes.
    pub memory_budget: u64,
}

impl Default for EmCoreOptions {
    fn default() -> Self {
        EmCoreOptions {
            partition_bytes: 1 << 20,
            memory_budget: 16 << 20,
        }
    }
}

/// Run EMCore (Algorithm 2) over any graph access.
///
/// The source graph is first divided into partitions on disk (line 1);
/// all subsequent I/O happens against the partition store. Both are
/// charged in the source's block size `B`, and the reported I/O is their
/// sum.
pub fn emcore(g: &mut impl AdjacencyRead, opts: &EmCoreOptions) -> Result<Decomposition> {
    let start = Instant::now();
    let mut stats = RunStats::new("EMCore");
    let n = g.num_nodes();
    let source_start = g.io();

    // Line 1: partition the graph on disk, at least one block a partition.
    // The scan is charged to the source's counter; partition I/O
    // (including this initial write) to the store's own.
    let block = g.block_size();
    let counter = graphstore::IoCounter::new(block);
    let mut store = PartitionStore::build(g, opts.partition_bytes.max(block as u64), counter)?;
    let parts = store.len();

    // Lines 2-3: ub(v) <- deg(v).
    let mut ub = g.read_degrees()?;
    let mut core = vec![0u32; n as usize];
    let mut finalized = crate::bits::BitSet::new(n);
    let mut remaining: u64 = u64::from(n);

    // Isolated nodes are core 0 and never enter any [kl, ku] round.
    for v in 0..n {
        if ub[v as usize] == 0 {
            finalized.set(v);
            remaining -= 1;
        }
    }

    // Per-partition max ub, maintained across rounds.
    let mut part_max_ub: Vec<u32> = (0..parts)
        .map(|i| {
            let m = store.meta(i);
            (m.start..m.end).map(|v| ub[v as usize]).max().unwrap_or(0)
        })
        .collect();

    let mut peak_mem =
        (n as u64) * 4 /* ub */ + (n as u64) * 4 /* core */ + finalized.resident_bytes();

    let mut ku = u32::MAX;
    while remaining > 0 && ku >= 1 {
        // Line 6: estimate kl — smallest value such that all partitions with
        // a candidate node fit the budget; the partitions needed for a given
        // kl are exactly those with max_ub >= kl.
        let mut order: Vec<usize> = (0..parts)
            .filter(|&i| part_max_ub[i] >= 1 && store.meta(i).alive_nodes > 0)
            .collect();
        if order.is_empty() {
            break;
        }
        order.sort_by(|&a, &b| part_max_ub[b].cmp(&part_max_ub[a]));

        let mut bytes = 0u64;
        let mut kl = 1u32;
        for (idx, &p) in order.iter().enumerate() {
            let pb = store.meta(p).bytes;
            if idx > 0 && bytes + pb > opts.memory_budget {
                // Can't afford this partition: cut the range just above it.
                kl = part_max_ub[p] + 1;
                break;
            }
            bytes += pb;
            if idx + 1 == order.len() {
                kl = 1; // everything fits: final round
            }
        }
        // Correctness requires loading *every* partition holding a node with
        // ub in [kl, ku]. When even the top level needs more partitions than
        // the budget affords, EMCore loads them anyway — the unbounded
        // memory behaviour the paper criticises. `top <= ku` is invariant
        // (ub is capped to kl-1 whenever a partition is loaded).
        let top = part_max_ub[order[0]];
        kl = kl.min(top).min(ku).max(1);
        let chosen: Vec<usize> = order
            .iter()
            .copied()
            .filter(|&p| part_max_ub[p] >= kl)
            .collect();

        // Lines 7-8: load the chosen partitions into memory.
        let mut loaded = Vec::with_capacity(chosen.len());
        let mut loaded_bytes = 0u64;
        for &p in &chosen {
            let lp = store.load(p)?;
            loaded_bytes += lp.resident_bytes();
            loaded.push(lp);
        }

        // Build the in-memory subgraph over loaded, unfinalised nodes.
        let mut local_id: HashMap<u32, u32> = HashMap::new();
        let mut nodes: Vec<u32> = Vec::new();
        for lp in &loaded {
            for &(v, _) in &lp.entries {
                if !finalized.get(v) {
                    local_id.insert(v, nodes.len() as u32);
                    nodes.push(v);
                }
            }
        }
        let ln = nodes.len();
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); ln];
        let mut deposit: Vec<u32> = vec![0; ln];
        for lp in &loaded {
            for (v, nbrs) in &lp.entries {
                let Some(&lv) = local_id.get(v) else { continue };
                for &u in nbrs {
                    if finalized.get(u) {
                        // Finalised neighbours persist at every level <= ku.
                        deposit[lv as usize] += 1;
                    } else if let Some(&lu) = local_id.get(&u) {
                        adj[lv as usize].push(lu);
                    }
                    // Neighbours in unloaded partitions have ub < kl and
                    // cannot appear in any k-core with k >= kl: dropped.
                }
            }
        }
        let gmem_bytes: u64 =
            adj.iter().map(|a| a.len() as u64 * 4).sum::<u64>() + (ln as u64) * 32;
        peak_mem =
            peak_mem.max((n as u64) * 8 + finalized.resident_bytes() + loaded_bytes + gmem_bytes);

        // Line 9: peel Gmem with deposits; cores >= kl are exact.
        let core_mem = peel_with_deposits(&adj, &deposit);
        stats.node_computations += ln as u64;

        // Lines 10-13: finalise, update ub, rewrite partitions.
        for (lv, &v) in nodes.iter().enumerate() {
            let c = core_mem[lv].min(ku);
            if c >= kl || kl == 1 {
                core[v as usize] = c;
                finalized.set(v);
                remaining -= 1;
            } else {
                ub[v as usize] = ub[v as usize].min(kl - 1);
            }
        }
        for lp in loaded {
            let keep: Vec<(u32, Vec<u32>)> = lp
                .entries
                .into_iter()
                .filter(|(v, _)| !finalized.get(*v))
                .collect();
            let idx = lp.index;
            part_max_ub[idx] = keep.iter().map(|(v, _)| ub[*v as usize]).max().unwrap_or(0);
            store.rewrite(idx, &keep)?;
        }

        stats.iterations += 1;
        // Line 14: next range.
        if kl == 1 {
            break;
        }
        ku = kl - 1;
    }

    stats.io = store.io().plus(&g.io().since(&source_start));
    stats.peak_memory_bytes = peak_mem;
    stats.wall_time = start.elapsed();
    Ok(Decomposition { core, stats })
}

/// Bin-sort peeling where each node carries a `deposit` of permanently
/// present (finalised) neighbours: initial degree = local degree + deposit,
/// and removals only ever decrement the local part.
fn peel_with_deposits(adj: &[Vec<u32>], deposit: &[u32]) -> Vec<u32> {
    let n = adj.len();
    let mut degree: Vec<u32> = (0..n).map(|v| adj[v].len() as u32 + deposit[v]).collect();
    let maxd = degree.iter().copied().max().unwrap_or(0) as usize;
    let mut bin = vec![0u32; maxd + 2];
    for &d in &degree {
        bin[d as usize] += 1;
    }
    let mut s = 0u32;
    for b in bin.iter_mut() {
        let c = *b;
        *b = s;
        s += c;
    }
    let mut vert = vec![0u32; n];
    let mut pos = vec![0u32; n];
    {
        let mut next = bin.clone();
        for v in 0..n {
            let d = degree[v] as usize;
            pos[v] = next[d];
            vert[next[d] as usize] = v as u32;
            next[d] += 1;
        }
    }
    let mut core = vec![0u32; n];
    for i in 0..n {
        let v = vert[i] as usize;
        core[v] = degree[v];
        for &u in &adj[v] {
            let u = u as usize;
            if degree[u] > degree[v] {
                let du = degree[u] as usize;
                let pu = pos[u];
                let pw = bin[du];
                let w = vert[pw as usize];
                if u as u32 != w {
                    vert[pu as usize] = w;
                    vert[pw as usize] = u as u32;
                    pos[u] = pw;
                    pos[w as usize] = pu;
                }
                bin[du] += 1;
                degree[u] -= 1;
            }
        }
    }
    core
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example_graph, PAPER_EXAMPLE_CORES};
    use crate::imcore::imcore;
    use graphstore::MemGraph;

    fn tiny_opts() -> EmCoreOptions {
        EmCoreOptions {
            partition_bytes: 4096,
            memory_budget: 1 << 20,
        }
    }

    #[test]
    fn paper_example() {
        let mut g = paper_example_graph();
        let d = emcore(&mut g, &tiny_opts()).unwrap();
        assert_eq!(d.core, PAPER_EXAMPLE_CORES);
    }

    #[test]
    fn matches_imcore_on_random_graphs() {
        let mut seed = 12u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        for trial in 0..15 {
            let n = 10 + next() % 120;
            let m = next() % (4 * n);
            let edges: Vec<(u32, u32)> = (0..m).map(|_| (next() % n, next() % n)).collect();
            let mut g = MemGraph::from_edges(edges, n);
            let d = emcore(&mut g, &tiny_opts()).unwrap();
            assert_eq!(d.core, imcore(&g).core, "trial {trial}");
        }
    }

    #[test]
    fn tight_budget_forces_multiple_rounds() {
        // Dense-ish graph partitioned small with a tiny budget: several
        // top-down rounds, still correct.
        let mut seed = 77u64;
        let mut next = || {
            seed = seed
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (seed >> 33) as u32
        };
        let n = 400u32;
        let edges: Vec<(u32, u32)> = (0..2500).map(|_| (next() % n, next() % n)).collect();
        let mut g = MemGraph::from_edges(edges, n);
        let opts = EmCoreOptions {
            partition_bytes: 4096,
            memory_budget: 10_000,
        };
        let d = emcore(&mut g, &opts).unwrap();
        assert_eq!(d.core, imcore(&g).core);
        assert!(d.stats.iterations > 1, "budget must force several rounds");
        assert!(d.stats.io.write_ios > 0, "EMCore writes partitions back");
    }

    #[test]
    fn isolated_nodes_finalise_to_zero() {
        let mut g = MemGraph::from_edges([(0, 1), (0, 2), (1, 2)], 6);
        let d = emcore(&mut g, &tiny_opts()).unwrap();
        assert_eq!(d.core, vec![2, 2, 2, 0, 0, 0]);
    }

    #[test]
    fn uses_both_read_and_write_ios() {
        let mut g = paper_example_graph();
        let d = emcore(&mut g, &tiny_opts()).unwrap();
        assert!(d.stats.io.read_ios > 0);
        assert!(d.stats.io.write_ios > 0);
    }
}
