//! Analysis utilities on top of a core decomposition — the application layer
//! the paper motivates in §I (community detection, dense-subgraph discovery,
//! network topology analysis).

use std::collections::HashMap;

use graphstore::{AdjacencyRead, Result};

/// Connected components of the k-core (`G(V_k)` per Lemma 2.1), returned as
/// sorted node lists, largest first. These are the "communities" of
/// core-based community detection \[12, 15\].
pub fn kcore_components(g: &mut impl AdjacencyRead, core: &[u32], k: u32) -> Result<Vec<Vec<u32>>> {
    let n = g.num_nodes();
    assert_eq!(core.len(), n as usize);
    let mut seen = vec![false; n as usize];
    let mut components = Vec::new();
    let mut stack = Vec::new();
    for s in 0..n {
        if core[s as usize] < k || seen[s as usize] {
            continue;
        }
        let mut comp = Vec::new();
        seen[s as usize] = true;
        stack.push(s);
        while let Some(v) = stack.pop() {
            comp.push(v);
            g.with_adjacency(v, |nbrs| {
                for &u in nbrs {
                    if core[u as usize] >= k && !seen[u as usize] {
                        seen[u as usize] = true;
                        stack.push(u);
                    }
                }
            })?;
        }
        comp.sort_unstable();
        components.push(comp);
    }
    components.sort_by_key(|c| std::cmp::Reverse(c.len()));
    Ok(components)
}

/// Summary statistics of a decomposition, as a printable report.
#[derive(Debug, Clone, PartialEq)]
pub struct CoreProfile {
    /// Number of nodes.
    pub num_nodes: u64,
    /// The degeneracy `kmax`.
    pub kmax: u32,
    /// Mean core number.
    pub mean_core: f64,
    /// Number of nodes at each exact core level `0..=kmax`.
    pub level_sizes: Vec<u64>,
    /// Size of the innermost (`kmax`) core.
    pub nucleus_size: u64,
}

impl CoreProfile {
    /// Compute the profile of a core assignment.
    pub fn new(core: &[u32]) -> CoreProfile {
        let kmax = core.iter().copied().max().unwrap_or(0);
        let mut level_sizes = vec![0u64; kmax as usize + 1];
        let mut total = 0u64;
        for &c in core {
            level_sizes[c as usize] += 1;
            total += c as u64;
        }
        CoreProfile {
            num_nodes: core.len() as u64,
            kmax,
            mean_core: if core.is_empty() {
                0.0
            } else {
                total as f64 / core.len() as f64
            },
            nucleus_size: *level_sizes.last().unwrap_or(&0),
            level_sizes,
        }
    }
}

impl std::fmt::Display for CoreProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "{} nodes, kmax = {}, mean core = {:.2}, nucleus = {} nodes",
            self.num_nodes, self.kmax, self.mean_core, self.nucleus_size
        )?;
        for (k, &s) in self.level_sizes.iter().enumerate() {
            if s > 0 {
                writeln!(f, "  core {k:>5}: {s} nodes")?;
            }
        }
        Ok(())
    }
}

/// An approximation of the densest subgraph via the max-core (the classic
/// 2-approximation used by dense-subgraph discovery \[6, 26\]): returns the
/// nodes of the kmax-core and its edge density `|E'| / |V'|`.
pub fn densest_core(g: &mut impl AdjacencyRead, core: &[u32]) -> Result<(Vec<u32>, f64)> {
    let kmax = core.iter().copied().max().unwrap_or(0);
    let nodes: Vec<u32> = (0..core.len() as u32)
        .filter(|&v| core[v as usize] >= kmax)
        .collect();
    let inside: HashMap<u32, ()> = nodes.iter().map(|&v| (v, ())).collect();
    let mut internal = 0u64;
    for &v in &nodes {
        internal += g.with_adjacency(v, |nbrs| {
            nbrs.iter().filter(|u| inside.contains_key(u)).count() as u64
        })?;
    }
    let density = if nodes.is_empty() {
        0.0
    } else {
        (internal / 2) as f64 / nodes.len() as f64
    };
    Ok((nodes, density))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixtures::{paper_example_graph, PAPER_EXAMPLE_CORES};

    #[test]
    fn components_of_the_3core() {
        let mut g = paper_example_graph();
        let comps = kcore_components(&mut g, &PAPER_EXAMPLE_CORES, 3).unwrap();
        assert_eq!(comps, vec![vec![0, 1, 2, 3]]);
    }

    #[test]
    fn components_of_the_1core_is_whole_connected_graph() {
        let mut g = paper_example_graph();
        let comps = kcore_components(&mut g, &PAPER_EXAMPLE_CORES, 1).unwrap();
        assert_eq!(comps.len(), 1);
        assert_eq!(comps[0].len(), 9);
    }

    #[test]
    fn components_split_across_disconnected_cores() {
        // Two triangles, disconnected.
        let mut g =
            graphstore::MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)], 6);
        let core = vec![2u32; 6];
        let comps = kcore_components(&mut g, &core, 2).unwrap();
        assert_eq!(comps.len(), 2);
        assert_eq!(comps[0].len(), 3);
    }

    #[test]
    fn profile_of_example() {
        let p = CoreProfile::new(&PAPER_EXAMPLE_CORES);
        assert_eq!(p.kmax, 3);
        assert_eq!(p.nucleus_size, 4);
        assert_eq!(p.level_sizes, vec![0, 1, 4, 4]);
        let text = p.to_string();
        assert!(text.contains("kmax = 3"), "{text}");
    }

    #[test]
    fn densest_core_of_example_is_the_k4() {
        let mut g = paper_example_graph();
        let (nodes, density) = densest_core(&mut g, &PAPER_EXAMPLE_CORES).unwrap();
        assert_eq!(nodes, vec![0, 1, 2, 3]);
        // K4: 6 edges / 4 nodes.
        assert!((density - 1.5).abs() < 1e-9);
    }
}
