//! In-memory graph representations.
//!
//! [`MemGraph`] is an immutable CSR used by the in-memory baselines (IMCore)
//! and as the oracle in tests. [`DynGraph`] is an update-friendly adjacency
//! structure used by the in-memory maintenance baselines (IMInsert/IMDelete).
//!
//! Both normalise input the same way the disk builder does: undirected,
//! self-loops dropped, duplicate edges dropped, neighbour lists sorted.

use crate::builder::sort_dedup;
use crate::error::{Error, Result};

/// Adjacency lists must mirror each other: finding `(u, v)` in only one
/// direction means the structure was corrupted in memory.
fn asymmetric(u: u32, v: u32) -> Error {
    Error::Corrupt {
        reason: format!("asymmetric adjacency at ({u}, {v})"),
    }
}

/// Immutable compressed-sparse-row undirected graph.
///
/// The CSR arrays are `Arc`-shared: `Clone` is O(1) and clones alias the
/// same adjacency data.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MemGraph {
    /// `offsets[v]..offsets[v+1]` indexes `nbrs` for node `v`. Length `n + 1`.
    offsets: std::sync::Arc<Vec<u64>>,
    /// Concatenated sorted neighbour lists.
    nbrs: std::sync::Arc<Vec<u32>>,
}

impl MemGraph {
    /// Build from an arbitrary edge list (normalised as documented above).
    ///
    /// `min_nodes` forces at least that many nodes even if the tail ids are
    /// isolated. The node count is the largest endpoint of a non-loop edge
    /// plus one, and at least `min_nodes`: a self-loop never adds a node.
    ///
    /// Count and scatter, as the external builder does with a run: count
    /// each node's degree, cut the nodes into ranges of about equal
    /// directed-edge count, and let each range, on a thread of its own,
    /// scatter the endpoints that fall in it into its slice of one
    /// neighbour array, then sort and dedup its lists in place and close
    /// the gaps the duplicates left; one sequential pass joins the ranges.
    /// The count is [`range_count`] of the input edges, and the output
    /// does not depend on it. Peak memory is the collected input (8 B per
    /// edge) plus 4 B per directed edge and 8 B per node: each range's
    /// scatter cursors are its slice of the offsets.
    ///
    /// # Panics
    ///
    /// If a non-loop edge has the endpoint `u32::MAX`: the node count must
    /// fit `u32`. Callers with untrusted input refuse that id first, as
    /// [`ExternalGraphBuilder::add_edge`](crate::ExternalGraphBuilder::add_edge)
    /// does.
    pub fn from_edges(edges: impl IntoIterator<Item = (u32, u32)>, min_nodes: u32) -> MemGraph {
        MemGraph::from_edge_parts(vec![edges.into_iter().collect()], min_nodes)
    }

    /// [`MemGraph::from_edges`] over the concatenation of `parts`, without
    /// concatenating them: a generator that drew its edges in ranges on
    /// several threads hands the ranges over as they are.
    pub fn from_edge_parts(parts: Vec<Vec<(u32, u32)>>, min_nodes: u32) -> MemGraph {
        let edges = parts.iter().map(Vec::len).sum::<usize>();
        normalise(parts, min_nodes, range_count(edges as u64))
    }

    /// Build directly from per-node sorted adjacency lists.
    ///
    /// Callers must guarantee symmetry; [`MemGraph::validate`] checks it.
    pub fn from_adjacency(adj: Vec<Vec<u32>>) -> MemGraph {
        let n = adj.len();
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0u64);
        let mut total = 0u64;
        for list in &adj {
            total += list.len() as u64;
            offsets.push(total);
        }
        let mut nbrs = Vec::with_capacity(total as usize);
        for list in adj {
            nbrs.extend(list);
        }
        MemGraph {
            offsets: std::sync::Arc::new(offsets),
            nbrs: std::sync::Arc::new(nbrs),
        }
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> u32 {
        (self.offsets.len() - 1) as u32
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> u64 {
        self.degree_sum() / 2
    }

    /// Sum of all degrees (`2m`).
    pub fn degree_sum(&self) -> u64 {
        self.offsets.last().copied().unwrap_or(0)
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        let v = v as usize;
        (self.offsets[v + 1] - self.offsets[v]) as u32
    }

    /// Sorted neighbours of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        let v = v as usize;
        &self.nbrs[self.offsets[v] as usize..self.offsets[v + 1] as usize]
    }

    /// All degrees as a vector (used to seed `core(v) = deg(v)`).
    pub fn degrees(&self) -> Vec<u32> {
        (0..self.num_nodes()).map(|v| self.degree(v)).collect()
    }

    /// True when `(u, v)` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        u < self.num_nodes() && self.neighbors(u).binary_search(&v).is_ok()
    }

    /// Iterate `(u, v)` with `u < v` (each undirected edge once).
    pub fn edges(&self) -> impl Iterator<Item = (u32, u32)> + '_ {
        (0..self.num_nodes()).flat_map(move |u| {
            self.neighbors(u)
                .iter()
                .copied()
                .filter(move |&v| u < v)
                .map(move |v| (u, v))
        })
    }

    /// Bytes resident in memory (for the paper's memory-usage plots).
    pub fn resident_bytes(&self) -> u64 {
        (self.offsets.len() * std::mem::size_of::<u64>()
            + self.nbrs.len() * std::mem::size_of::<u32>()) as u64
    }

    /// Check structural invariants: sorted lists, ids in range, no
    /// self-loops or duplicates, symmetry.
    pub fn validate(&self) -> Result<()> {
        let n = self.num_nodes();
        for v in 0..n {
            let list = self.neighbors(v);
            for (i, &u) in list.iter().enumerate() {
                if u >= n {
                    return Err(Error::corrupt(format!("neighbour {u} of {v} out of range")));
                }
                if u == v {
                    return Err(Error::corrupt(format!("self-loop at {v}")));
                }
                if i > 0 && list[i - 1] >= u {
                    return Err(Error::corrupt(format!(
                        "adjacency of {v} not strictly sorted"
                    )));
                }
                if !self.has_edge(u, v) {
                    return Err(Error::corrupt(format!("edge ({v},{u}) not symmetric")));
                }
            }
        }
        Ok(())
    }
}

/// Items per range of [`range_count`], at least: a smaller range costs
/// more in thread start-up than it saves.
const ITEMS_PER_RANGE: u64 = 1 << 16;

/// How many ranges to cut `items` items of work into for [`in_ranges`]:
/// one per available core, but at most one per 64 Ki items, so that a
/// small input is one range on the calling thread. `available_parallelism`
/// honours the process's affinity mask.
pub fn range_count(items: u64) -> usize {
    match items / ITEMS_PER_RANGE {
        0 | 1 => 1,
        cap => std::thread::available_parallelism()
            .map_or(1, |c| c.get().min(cap.try_into().unwrap_or(usize::MAX))),
    }
}

/// Run `work` on each job, the first on the calling thread and every other
/// on a scoped thread of its own, and return the results in job order. A
/// single job spawns nothing; a panic in any job is re-raised here.
pub fn in_ranges<J: Send, T: Send>(jobs: Vec<J>, work: impl Fn(J) -> T + Sync) -> Vec<T> {
    std::thread::scope(|s| {
        let mut jobs = jobs.into_iter();
        let first = jobs.next();
        let rest: Vec<_> = jobs.map(|job| s.spawn(|| work(job))).collect();
        first
            .map(&work)
            .into_iter()
            .chain(
                rest.into_iter()
                    .map(|h| h.join().unwrap_or_else(|e| std::panic::resume_unwind(e))),
            )
            .collect()
    })
}

/// [`MemGraph::from_edge_parts`] with the nodes cut into `ranges` ranges
/// (at least one): the seam through which tests force the count.
pub(crate) fn normalise(parts: Vec<Vec<(u32, u32)>>, min_nodes: u32, ranges: usize) -> MemGraph {
    let non_loops = || parts.iter().flatten().copied().filter(|&(u, v)| u != v);
    let n = non_loops()
        .map(|(u, v)| {
            let hi = u.max(v);
            if let Err(e) = Error::check_node_id(hi) {
                panic!("{e}");
            }
            hi + 1
        })
        .fold(min_nodes, u32::max) as usize;
    // `offsets[v + 1]` counts `v`'s directed edges; the prefix sum makes
    // `offsets[v]` the start of `v`'s raw list.
    let mut offsets = vec![0u64; n + 1];
    non_loops().for_each(|(u, v)| {
        offsets[u as usize + 1] += 1;
        offsets[v as usize + 1] += 1;
    });
    for v in 0..n {
        offsets[v + 1] += offsets[v];
    }
    // Range `j` holds nodes `cuts[j]..cuts[j + 1]`: each later range starts
    // at the first node whose list starts at or past its share of the
    // directed edges, so no list straddles two ranges. A range may be
    // empty, or hold only isolated nodes.
    let total = offsets[n];
    let cuts: Vec<usize> = (0..ranges as u64)
        .map(|j| offsets[..n].partition_point(|&o| o < total * j / ranges as u64))
        .chain([n])
        .collect();
    let mut nbrs = vec![0u32; total as usize];
    let mut jobs = Vec::with_capacity(ranges);
    let (mut rest_offsets, mut rest_nbrs) = (&mut offsets[..n], &mut nbrs[..]);
    for w in cuts.windows(2) {
        let (cursors, tail) = std::mem::take(&mut rest_offsets).split_at_mut(w[1] - w[0]);
        let end = tail.first().map_or(total, |&o| o);
        let base = cursors.first().map_or(end, |&o| o);
        rest_offsets = tail;
        let (slice, tail) = std::mem::take(&mut rest_nbrs).split_at_mut((end - base) as usize);
        rest_nbrs = tail;
        jobs.push(NodeRange {
            first: w[0] as u32,
            base: base as usize,
            cursors,
            nbrs: slice,
        });
    }
    let kept = in_ranges(jobs, |job| job.run(&parts));
    drop(parts);
    // Move each range's kept lists down over the duplicates dropped before
    // it, and turn its range-relative starts into `offsets`.
    let mut write = 0usize;
    for (w, kept) in cuts.windows(2).zip(kept) {
        for offset in &mut offsets[w[0]..w[1]] {
            *offset += write as u64;
        }
        let len = kept.len();
        nbrs.copy_within(kept, write);
        write += len;
    }
    offsets[n] = write as u64;
    nbrs.truncate(write);
    nbrs.shrink_to_fit();
    MemGraph {
        offsets: std::sync::Arc::new(offsets),
        nbrs: std::sync::Arc::new(nbrs),
    }
}

/// One node range of [`normalise`]: nodes `first..first + cursors.len()`,
/// whose raw lists fill `nbrs`, the slice of the neighbour array that
/// starts at index `base`.
struct NodeRange<'a> {
    first: u32,
    base: usize,
    /// Node `first + i`'s scatter cursor, an index into the whole array:
    /// the start of its raw list on entry.
    cursors: &'a mut [u64],
    nbrs: &'a mut [u32],
}

impl NodeRange<'_> {
    /// Scatter the range's endpoints of every non-loop edge, sort and dedup
    /// each list, and pack the kept lists to the front of the slice. On
    /// return `cursors[i]` is list `i`'s start relative to the slice, and
    /// the result is where the kept lists lie in the whole array.
    fn run(self, parts: &[Vec<(u32, u32)>]) -> std::ops::Range<usize> {
        let NodeRange {
            first,
            base,
            cursors,
            nbrs,
        } = self;
        let len = cursors.len() as u32;
        let mut place = |a: u32, b: u32| {
            let i = a.wrapping_sub(first);
            if i < len {
                let cursor = &mut cursors[i as usize];
                nbrs[*cursor as usize - base] = b;
                *cursor += 1;
            }
        };
        for part in parts {
            for &(u, v) in part {
                if u != v {
                    place(u, v);
                    place(v, u);
                }
            }
        }
        // `cursors[i]` has advanced to the end of list `i`'s raw list.
        let (mut read, mut write) = (0usize, 0usize);
        for cursor in cursors.iter_mut() {
            let end = *cursor as usize - base;
            let kept = sort_dedup(&mut nbrs[read..end]);
            nbrs.copy_within(read..read + kept, write);
            *cursor = write as u64;
            write += kept;
            read = end;
        }
        base..base + write
    }
}

/// Update-friendly adjacency structure for in-memory maintenance baselines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DynGraph {
    adj: Vec<Vec<u32>>,
    degree_sum: u64,
}

impl DynGraph {
    /// An edgeless graph on `n` nodes.
    pub fn empty(n: u32) -> DynGraph {
        DynGraph {
            adj: vec![Vec::new(); n as usize],
            degree_sum: 0,
        }
    }

    /// Convert from a CSR graph.
    pub fn from_mem(g: &MemGraph) -> DynGraph {
        let adj = (0..g.num_nodes())
            .map(|v| g.neighbors(v).to_vec())
            .collect();
        DynGraph {
            adj,
            degree_sum: g.degree_sum(),
        }
    }

    /// Convert to an immutable CSR graph.
    pub fn to_mem(&self) -> MemGraph {
        MemGraph::from_adjacency(self.adj.clone())
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> u32 {
        self.adj.len() as u32
    }

    /// Number of undirected edges.
    pub fn num_edges(&self) -> u64 {
        self.degree_sum / 2
    }

    /// Degree of `v`.
    pub fn degree(&self, v: u32) -> u32 {
        self.adj[v as usize].len() as u32
    }

    /// Sorted neighbours of `v`.
    pub fn neighbors(&self, v: u32) -> &[u32] {
        &self.adj[v as usize]
    }

    /// True when `(u, v)` is an edge.
    pub fn has_edge(&self, u: u32, v: u32) -> bool {
        (u as usize) < self.adj.len() && self.adj[u as usize].binary_search(&v).is_ok()
    }

    fn check_pair(&self, u: u32, v: u32) -> Result<()> {
        let n = self.num_nodes();
        Error::check_node(u, n)?;
        Error::check_node(v, n)?;
        if u == v {
            return Err(Error::InvalidArgument(
                "self-loops are not supported".into(),
            ));
        }
        Ok(())
    }

    /// Insert edge `(u, v)`. Returns `false` (and changes nothing) when the
    /// edge already exists.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Result<bool> {
        self.check_pair(u, v)?;
        match self.adj[u as usize].binary_search(&v) {
            Ok(_) => Ok(false),
            Err(iu) => {
                let iv = match self.adj[v as usize].binary_search(&u) {
                    Err(iv) => iv,
                    Ok(_) => return Err(asymmetric(u, v)),
                };
                self.adj[u as usize].insert(iu, v);
                self.adj[v as usize].insert(iv, u);
                self.degree_sum += 2;
                Ok(true)
            }
        }
    }

    /// Delete edge `(u, v)`. Returns `false` when the edge was absent.
    pub fn delete_edge(&mut self, u: u32, v: u32) -> Result<bool> {
        self.check_pair(u, v)?;
        match self.adj[u as usize].binary_search(&v) {
            Err(_) => Ok(false),
            Ok(iu) => {
                let iv = match self.adj[v as usize].binary_search(&u) {
                    Ok(iv) => iv,
                    Err(_) => return Err(asymmetric(u, v)),
                };
                self.adj[u as usize].remove(iu);
                self.adj[v as usize].remove(iv);
                self.degree_sum -= 2;
                Ok(true)
            }
        }
    }

    /// Bytes resident in memory.
    pub fn resident_bytes(&self) -> u64 {
        let lists: u64 = self
            .adj
            .iter()
            .map(|l| (l.capacity() * std::mem::size_of::<u32>()) as u64)
            .sum();
        lists + (self.adj.len() * std::mem::size_of::<Vec<u32>>()) as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use testutil::{random_edges, Lcg};

    /// The sort-based normaliser `from_edges` replaced: symmetrise, drop
    /// self-loops, sort and dedup all `2m` pairs, then count offsets. The
    /// count-and-scatter build must equal it on every input.
    fn reference_from_edges(edges: &[(u32, u32)], min_nodes: u32) -> MemGraph {
        let mut n = min_nodes;
        let mut sym = Vec::with_capacity(edges.len() * 2);
        for &(u, v) in edges {
            if u == v {
                continue;
            }
            sym.push((u, v));
            sym.push((v, u));
            let hi = u.max(v);
            if hi >= n {
                n = hi + 1;
            }
        }
        sym.sort_unstable();
        sym.dedup();
        let mut offsets = vec![0u64; n as usize + 1];
        for &(u, _) in &sym {
            offsets[u as usize + 1] += 1;
        }
        for i in 0..n as usize {
            offsets[i + 1] += offsets[i];
        }
        let nbrs = sym.into_iter().map(|(_, v)| v).collect();
        MemGraph {
            offsets: std::sync::Arc::new(offsets),
            nbrs: std::sync::Arc::new(nbrs),
        }
    }

    /// `from_edges`, and the normaliser at every forced range count with
    /// the input cut into uneven parts, equal the sorting normaliser.
    fn assert_matches_reference(edges: &[(u32, u32)], min_nodes: u32) {
        let want = reference_from_edges(edges, min_nodes);
        let got = MemGraph::from_edges(edges.to_vec(), min_nodes);
        assert_eq!(got, want, "{} edges, min_nodes {min_nodes}", edges.len());
        got.validate().unwrap();
        let third = edges.len() / 3;
        let parts = vec![edges[..third].to_vec(), Vec::new(), edges[third..].to_vec()];
        for ranges in [1, 2, 3, 7] {
            assert_eq!(
                normalise(parts.clone(), min_nodes, ranges),
                want,
                "{} edges, min_nodes {min_nodes}, {ranges} ranges",
                edges.len()
            );
        }
    }

    #[test]
    fn from_edges_matches_the_sorting_normaliser() {
        let mut rng = Lcg::new(35);
        for case in 0..200u32 {
            let n = 1 + rng.below(60);
            let count = rng.below(4 * n + 1);
            // Duplicates, both orientations and self-loops come with the
            // draw; every fourth case also asks for isolated tail nodes.
            let mut edges = random_edges(&mut rng, n, count);
            let min_nodes = if case % 4 == 0 {
                n + rng.below(5)
            } else {
                rng.below(n)
            };
            assert_matches_reference(&edges, min_nodes);
            let flipped: Vec<_> = edges.iter().map(|&(u, v)| (v, u)).collect();
            assert_matches_reference(&flipped, min_nodes);
            edges.extend_from_within(..edges.len() / 2);
            assert_matches_reference(&edges, min_nodes);
        }
    }

    #[test]
    fn from_edges_edge_cases_match_the_sorting_normaliser() {
        assert_matches_reference(&[], 0);
        assert_matches_reference(&[], 7);
        // A self-loop above every other id, and above `min_nodes`, adds no
        // node; one below `min_nodes` changes nothing either.
        assert_matches_reference(&[(0, 1), (9, 9)], 0);
        assert_matches_reference(&[(0, 1), (9, 9)], 4);
        assert_matches_reference(&[(3, 3)], 2);
        assert_eq!(MemGraph::from_edges([(0, 1), (9, 9)], 4).num_nodes(), 4);
        // `min_nodes` above the largest id.
        assert_matches_reference(&[(2, 0), (1, 2)], 50);
        // A hub: every node joined to node 0, in descending order, twice,
        // half of them the other way round.
        let hub: Vec<_> = (1..500u32)
            .rev()
            .chain(1..500)
            .map(|v| if v % 2 == 0 { (0, v) } else { (v, 0) })
            .collect();
        assert_matches_reference(&hub, 0);
        let g = MemGraph::from_edges(hub, 0);
        assert_eq!(g.degree(0), 499);
        assert_eq!(g.num_edges(), 499);
        // A hub in the middle whose list is more than any range's share, so
        // it spans where an even cut by edge count would fall, and leaves
        // the ranges after it empty; then a sparse path with isolated nodes
        // between, so some ranges hold nodes but no edges.
        let mid_hub: Vec<_> = (0..40u32)
            .filter(|&v| v != 20)
            .map(|v| (20, v))
            .chain([(0, 1), (38, 39)])
            .collect();
        assert_matches_reference(&mid_hub, 60);
        assert_matches_reference(&[(0, 1), (50, 51), (99, 98)], 0);
    }

    #[test]
    fn small_inputs_are_one_range() {
        for items in [0, 1, ITEMS_PER_RANGE, 2 * ITEMS_PER_RANGE - 1] {
            assert_eq!(range_count(items), 1, "{items} items");
        }
        let cores = std::thread::available_parallelism().map_or(1, |c| c.get());
        assert_eq!(range_count(u64::MAX), cores);
        assert_eq!(range_count(3 * ITEMS_PER_RANGE), cores.min(3));
    }

    #[test]
    #[should_panic(expected = "node count must fit u32")]
    fn from_edges_refuses_the_id_u32_max() {
        MemGraph::from_edges([(0, u32::MAX)], 0);
    }

    fn triangle_plus_tail() -> MemGraph {
        // 0-1-2 triangle, 3 hanging off 2, node 4 isolated.
        MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3)], 5)
    }

    #[test]
    fn csr_basics() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.degree(4), 0);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert!(g.has_edge(3, 2));
        assert!(!g.has_edge(3, 0));
        g.validate().unwrap();
    }

    #[test]
    fn normalisation_drops_loops_and_duplicates() {
        let g = MemGraph::from_edges([(0, 1), (1, 0), (0, 1), (1, 1)], 0);
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 1);
        g.validate().unwrap();
    }

    #[test]
    fn edges_iterator_yields_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
    }

    #[test]
    fn degrees_vector_matches() {
        let g = triangle_plus_tail();
        assert_eq!(g.degrees(), vec![2, 2, 3, 1, 0]);
    }

    #[test]
    fn validate_catches_asymmetry() {
        let g = MemGraph::from_adjacency(vec![vec![1], vec![]]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn validate_catches_unsorted() {
        let g = MemGraph::from_adjacency(vec![vec![2, 1], vec![0], vec![0]]);
        assert!(g.validate().is_err());
    }

    #[test]
    fn dyn_graph_insert_delete_round_trip() {
        let base = triangle_plus_tail();
        let mut d = DynGraph::from_mem(&base);
        assert!(d.delete_edge(0, 1).unwrap());
        assert!(!d.delete_edge(0, 1).unwrap());
        assert!(d.insert_edge(0, 1).unwrap());
        assert!(!d.insert_edge(0, 1).unwrap());
        assert_eq!(d.to_mem(), base);
    }

    #[test]
    fn dyn_graph_rejects_bad_ids() {
        let mut d = DynGraph::empty(3);
        assert!(matches!(
            d.insert_edge(0, 7),
            Err(Error::NodeOutOfRange { node: 7, .. })
        ));
        assert!(d.insert_edge(1, 1).is_err());
    }

    #[test]
    fn dyn_graph_edge_count_tracks_updates() {
        let mut d = DynGraph::empty(4);
        d.insert_edge(0, 1).unwrap();
        d.insert_edge(2, 3).unwrap();
        assert_eq!(d.num_edges(), 2);
        d.delete_edge(0, 1).unwrap();
        assert_eq!(d.num_edges(), 1);
        assert_eq!(d.degree(0), 0);
    }

    #[test]
    fn mem_dyn_round_trip_preserves_structure() {
        let g = MemGraph::from_edges((0..50u32).map(|i| (i, (i * 7 + 1) % 50)), 50);
        let d = DynGraph::from_mem(&g);
        assert_eq!(d.to_mem(), g);
    }
}
