//! The access interface the core algorithms are written against.
//!
//! Decomposition and maintenance algorithms only ever need four things from
//! a graph: its size, its degree table, and `nbr(v)` lookups (sequential or
//! random). Abstracting those behind [`AdjacencyRead`] lets the *same*
//! algorithm code run against a [`DiskGraph`](crate::graph::DiskGraph) (charged block I/O), a
//! [`BufferedGraph`](crate::update_buffer::BufferedGraph) (disk + pending
//! updates) or a [`MemGraph`] (zero I/O — used for oracle comparisons and to
//! demonstrate the paper's observation that the semi-external algorithms beat
//! the in-memory one even without the I/O bottleneck).

use crate::error::Result;
use crate::io::IoSnapshot;
use crate::memgraph::MemGraph;

/// Read access to an undirected graph with I/O accounting.
pub trait AdjacencyRead {
    /// Number of nodes `n`; node ids are `0..n`.
    fn num_nodes(&self) -> u32;

    /// Sum of degrees (`2m`).
    fn degree_sum(&self) -> u64;

    /// All degrees, via one sequential pass over the node table.
    fn read_degrees(&mut self) -> Result<Vec<u32>>;

    /// Load `nbr(v)` into `buf` (cleared first), sorted ascending.
    fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()>;

    /// Visit `nbr(v)` as a borrowed slice — the copy-free path the hot
    /// loops use. In-memory backends hand out their internal slice
    /// directly; the disk backend decodes out of its block cache where
    /// alignment allows. The default implementation falls back to
    /// [`AdjacencyRead::adjacency`] through a temporary buffer.
    fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R>
    where
        Self: Sized,
    {
        let mut buf = Vec::new();
        self.adjacency(v, &mut buf)?;
        Ok(f(&buf))
    }

    /// Snapshot of I/O performed so far through this handle.
    fn io(&self) -> IoSnapshot;

    /// The block size `B` this handle's I/O is charged in; a backend that
    /// charges nothing reports the default.
    fn block_size(&self) -> usize {
        crate::io::DEFAULT_BLOCK_SIZE
    }
}

impl AdjacencyRead for crate::graph::DiskGraph {
    fn num_nodes(&self) -> u32 {
        crate::graph::DiskGraph::num_nodes(self)
    }

    fn degree_sum(&self) -> u64 {
        crate::graph::DiskGraph::degree_sum(self)
    }

    fn read_degrees(&mut self) -> Result<Vec<u32>> {
        crate::graph::DiskGraph::read_degrees(self)
    }

    fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()> {
        crate::graph::DiskGraph::adjacency(self, v, buf)
    }

    fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R> {
        crate::graph::DiskGraph::with_adjacency(self, v, f)
    }

    fn io(&self) -> IoSnapshot {
        crate::graph::DiskGraph::io(self)
    }

    fn block_size(&self) -> usize {
        self.counter().block_size()
    }
}

impl AdjacencyRead for MemGraph {
    fn num_nodes(&self) -> u32 {
        MemGraph::num_nodes(self)
    }

    fn degree_sum(&self) -> u64 {
        MemGraph::degree_sum(self)
    }

    fn read_degrees(&mut self) -> Result<Vec<u32>> {
        Ok(self.degrees())
    }

    fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()> {
        self.with_adjacency(v, |nbrs| {
            buf.clear();
            buf.extend_from_slice(nbrs)
        })
    }

    fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R> {
        crate::error::Error::check_node(v, MemGraph::num_nodes(self))?;
        Ok(f(self.neighbors(v)))
    }

    fn io(&self) -> IoSnapshot {
        IoSnapshot::default()
    }
}

impl AdjacencyRead for crate::memgraph::DynGraph {
    fn num_nodes(&self) -> u32 {
        crate::memgraph::DynGraph::num_nodes(self)
    }

    fn degree_sum(&self) -> u64 {
        self.num_edges() * 2
    }

    fn read_degrees(&mut self) -> Result<Vec<u32>> {
        Ok((0..crate::memgraph::DynGraph::num_nodes(self))
            .map(|v| self.degree(v))
            .collect())
    }

    fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()> {
        self.with_adjacency(v, |nbrs| {
            buf.clear();
            buf.extend_from_slice(nbrs)
        })
    }

    fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R> {
        crate::error::Error::check_node(v, crate::memgraph::DynGraph::num_nodes(self))?;
        Ok(f(self.neighbors(v)))
    }

    fn io(&self) -> IoSnapshot {
        IoSnapshot::default()
    }
}

/// A graph supporting edge insertion and deletion on top of read access.
///
/// Contract: `insert_edge` requires the edge to be absent; `delete_edge`
/// requires it to be present. Implementations may or may not verify this
/// (the disk-backed graph does not, to avoid paying verification I/O).
pub trait DynamicGraph: AdjacencyRead {
    /// Insert the (absent) undirected edge `(u, v)`.
    fn insert_edge(&mut self, u: u32, v: u32) -> Result<()>;

    /// Delete the (present) undirected edge `(u, v)`.
    fn delete_edge(&mut self, u: u32, v: u32) -> Result<()>;
}

impl DynamicGraph for crate::update_buffer::BufferedGraph {
    fn insert_edge(&mut self, u: u32, v: u32) -> Result<()> {
        crate::update_buffer::BufferedGraph::insert_edge(self, u, v)
    }

    fn delete_edge(&mut self, u: u32, v: u32) -> Result<()> {
        crate::update_buffer::BufferedGraph::delete_edge(self, u, v)
    }
}

impl DynamicGraph for crate::memgraph::DynGraph {
    fn insert_edge(&mut self, u: u32, v: u32) -> Result<()> {
        if !crate::memgraph::DynGraph::insert_edge(self, u, v)? {
            return Err(crate::error::Error::InvalidArgument(format!(
                "edge ({u}, {v}) already present"
            )));
        }
        Ok(())
    }

    fn delete_edge(&mut self, u: u32, v: u32) -> Result<()> {
        if !crate::memgraph::DynGraph::delete_edge(self, u, v)? {
            return Err(crate::error::Error::InvalidArgument(format!(
                "edge ({u}, {v}) not present"
            )));
        }
        Ok(())
    }
}

impl<G: DynamicGraph> DynamicGraph for &mut G {
    fn insert_edge(&mut self, u: u32, v: u32) -> Result<()> {
        (**self).insert_edge(u, v)
    }

    fn delete_edge(&mut self, u: u32, v: u32) -> Result<()> {
        (**self).delete_edge(u, v)
    }
}

impl<G: AdjacencyRead> AdjacencyRead for &mut G {
    fn num_nodes(&self) -> u32 {
        (**self).num_nodes()
    }

    fn degree_sum(&self) -> u64 {
        (**self).degree_sum()
    }

    fn read_degrees(&mut self) -> Result<Vec<u32>> {
        (**self).read_degrees()
    }

    fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()> {
        (**self).adjacency(v, buf)
    }

    fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R>
    where
        Self: Sized,
    {
        (**self).with_adjacency(v, f)
    }

    fn io(&self) -> IoSnapshot {
        (**self).io()
    }

    fn block_size(&self) -> usize {
        (**self).block_size()
    }
}

/// Materialise any graph access into an in-memory CSR snapshot (one full
/// sequential read). Handy for cross-checking maintained state against
/// recomputation from scratch.
pub fn snapshot_mem(g: &mut impl AdjacencyRead) -> Result<MemGraph> {
    let n = g.num_nodes();
    let mut adj = Vec::with_capacity(n as usize);
    let mut buf = Vec::new();
    for v in 0..n {
        g.adjacency(v, &mut buf)?;
        adj.push(buf.clone());
    }
    Ok(MemGraph::from_adjacency(adj))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memgraph_implements_trait_with_zero_io() {
        let mut g = MemGraph::from_edges([(0, 1), (1, 2)], 3);
        let mut buf = Vec::new();
        g.adjacency(1, &mut buf).unwrap();
        assert_eq!(buf, vec![0, 2]);
        assert_eq!(g.read_degrees().unwrap(), vec![1, 2, 1]);
        assert_eq!(g.io(), IoSnapshot::default());
    }

    #[test]
    fn memgraph_trait_rejects_out_of_range() {
        let mut g = MemGraph::from_edges([(0, 1)], 2);
        let mut buf = Vec::new();
        assert!(g.adjacency(5, &mut buf).is_err());
    }

    #[test]
    fn snapshot_round_trips() {
        let mut g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2)], 4);
        let snap = snapshot_mem(&mut g).unwrap();
        assert_eq!(snap, g);
    }

    #[test]
    fn mut_ref_blanket_impl_works() {
        fn total_degree(mut g: impl AdjacencyRead) -> u64 {
            let mut s = 0u64;
            let mut buf = Vec::new();
            for v in 0..g.num_nodes() {
                g.adjacency(v, &mut buf).unwrap();
                s += buf.len() as u64;
            }
            s
        }
        let mut g = MemGraph::from_edges([(0, 1), (1, 2)], 3);
        assert_eq!(total_degree(&mut g), 4);
        assert_eq!(total_degree(&mut g), 4);
    }
}
