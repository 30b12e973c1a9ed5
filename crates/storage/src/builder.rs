//! Writers that lay graphs out on disk, including a memory-bounded external
//! build path for edge lists that do not fit in memory.

use std::collections::BinaryHeap;
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::{Error, Result};
use crate::format::{self, FormatVersion, GraphPaths};
use crate::graph::DiskGraph;
use crate::io::{BlockWriter, IoCounter};
use crate::memgraph::MemGraph;
use crate::tempdir::TempDir;

/// Streaming writer producing the node-table/edge-table pair.
///
/// Adjacency lists must be appended in ascending node order; nodes skipped
/// over get degree zero. Node entries (12 bytes each) are accumulated in
/// memory — `O(n)`, which the semi-external model permits — and flushed as
/// the node table at [`DiskGraphWriter::finish`].
///
/// The edge-table encoding is chosen at creation
/// ([`DiskGraphWriter::create_with_format`]): raw `u32` runs (v1) or
/// stream-vbyte groups (v3, typically 3× smaller — see
/// [`FormatVersion`]). The appended lists and every reader-visible byte of
/// the node entries are identical either way.
pub struct DiskGraphWriter {
    paths: GraphPaths,
    counter: Arc<IoCounter>,
    version: FormatVersion,
    num_nodes: u32,
    node_entries: Vec<u8>,
    edge_writer: BlockWriter,
    next_node: u32,
    degree_sum: u64,
    /// Reusable encode buffer, so appends allocate nothing per list.
    encode_buf: Vec<u8>,
}

impl DiskGraphWriter {
    /// Begin writing a v1 graph with `num_nodes` nodes at
    /// `<base>.nodes/.edges`.
    pub fn create(base: &Path, num_nodes: u32, counter: Arc<IoCounter>) -> Result<Self> {
        Self::create_with_format(base, num_nodes, counter, FormatVersion::V1)
    }

    /// [`DiskGraphWriter::create`] with an explicit edge-table encoding.
    /// A read-only legacy encoding is refused with
    /// [`Error::InvalidArgument`].
    pub fn create_with_format(
        base: &Path,
        num_nodes: u32,
        counter: Arc<IoCounter>,
        version: FormatVersion,
    ) -> Result<Self> {
        check_writable(version)?;
        let paths = GraphPaths::from_base(base);
        if let Some(parent) = paths.nodes.parent() {
            std::fs::create_dir_all(parent)?;
        }
        let mut edge_writer = BlockWriter::create(&paths.edges, counter.clone())?;
        edge_writer.write_all(version.edge_magic())?;
        Ok(DiskGraphWriter {
            paths,
            counter,
            version,
            num_nodes,
            node_entries: Vec::with_capacity(num_nodes as usize * 12),
            edge_writer,
            next_node: 0,
            degree_sum: 0,
            encode_buf: Vec::new(),
        })
    }

    /// The edge-table encoding this writer produces.
    pub fn format_version(&self) -> FormatVersion {
        self.version
    }

    fn pad_to(&mut self, v: u32) {
        // Nodes without adjacency get (current offset, degree 0).
        let offset = self.edge_writer.position();
        while self.next_node < v {
            self.node_entries
                .extend_from_slice(&format::encode_node_entry(offset, 0));
            self.next_node += 1;
        }
    }

    /// Append `nbr(v)`; `v` must be ≥ every node appended so far and `nbrs`
    /// strictly sorted with ids in `0..num_nodes`, no self-loop.
    pub fn append_adjacency(&mut self, v: u32, nbrs: &[u32]) -> Result<()> {
        if v >= self.num_nodes {
            return Err(Error::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes,
            });
        }
        if v < self.next_node {
            return Err(Error::InvalidArgument(format!(
                "adjacency lists must be appended in ascending order (got {v} after {})",
                self.next_node
            )));
        }
        for (i, &u) in nbrs.iter().enumerate() {
            if u >= self.num_nodes {
                return Err(Error::NodeOutOfRange {
                    node: u,
                    num_nodes: self.num_nodes,
                });
            }
            if u == v {
                return Err(Error::InvalidArgument(format!("self-loop at node {v}")));
            }
            if i > 0 && nbrs[i - 1] >= u {
                return Err(Error::InvalidArgument(format!(
                    "adjacency of node {v} not strictly sorted"
                )));
            }
        }
        self.pad_to(v);
        let offset = self.edge_writer.position();
        self.encode_buf.clear();
        match self.version {
            FormatVersion::V1 => crate::codec::encode_u32_run(nbrs, &mut self.encode_buf),
            // `check_writable` admitted only v1 and the compressed format.
            _ => crate::codec::encode_group_run(nbrs, &mut self.encode_buf),
        }
        self.edge_writer.write_all(&self.encode_buf)?;
        self.node_entries
            .extend_from_slice(&format::encode_node_entry(offset, nbrs.len() as u32));
        self.next_node = v + 1;
        self.degree_sum += nbrs.len() as u64;
        Ok(())
    }

    /// Flush everything, fsync both tables (and their directory entries)
    /// and return the final file pair.
    ///
    /// The fsyncs matter: `flush` only drains userspace buffers into the
    /// page cache, so a power loss after "successful" build could lose the
    /// tables on a real filesystem — fatal now that checkpoints and the
    /// maintenance WAL assume the base tables they reference are durable.
    pub fn finish(mut self) -> Result<GraphPaths> {
        self.pad_to(self.num_nodes);
        let edge_bytes = self.edge_writer.position() - format::EDGE_HEADER_LEN;
        self.edge_writer.finish()?.sync_all()?;

        // For v1 the measured payload is `4 · degree_sum` by construction.
        let meta = format::GraphMeta {
            num_nodes: self.num_nodes,
            degree_sum: self.degree_sum,
            version: self.version,
            edge_bytes,
        };
        let mut w = BlockWriter::create(&self.paths.nodes, self.counter.clone())?;
        w.write_all(&format::encode_node_header(&meta))?;
        w.write_all(&self.node_entries)?;
        w.finish()?.sync_all()?;
        // Both files are durable; now make their directory entries so.
        crate::io::sync_parent_dir(self.counter.vfs().as_ref(), &self.paths.nodes)?;
        Ok(self.paths)
    }
}

/// The one write-path format rule ([`FormatVersion::write_format`]) as a
/// guard: a writer emits only formats that are their own write format.
fn check_writable(version: FormatVersion) -> Result<()> {
    let current = version.write_format();
    if current != version {
        return Err(Error::InvalidArgument(format!(
            "edge-table format {} is read-only; write {} instead",
            version.tag(),
            current.tag()
        )));
    }
    Ok(())
}

/// Write an in-memory graph to disk (format v1) and return the file pair.
pub fn write_mem_graph(base: &Path, g: &MemGraph, counter: Arc<IoCounter>) -> Result<GraphPaths> {
    write_mem_graph_with(base, g, counter, FormatVersion::V1)
}

/// [`write_mem_graph`] with an explicit edge-table encoding.
pub fn write_mem_graph_with(
    base: &Path,
    g: &MemGraph,
    counter: Arc<IoCounter>,
    version: FormatVersion,
) -> Result<GraphPaths> {
    let mut w = DiskGraphWriter::create_with_format(base, g.num_nodes(), counter, version)?;
    for v in 0..g.num_nodes() {
        w.append_adjacency(v, g.neighbors(v))?;
    }
    w.finish()
}

/// Convenience: write `g` at `base` (format v1) and open it as a
/// [`DiskGraph`].
pub fn mem_to_disk(base: &Path, g: &MemGraph, counter: Arc<IoCounter>) -> Result<DiskGraph> {
    write_mem_graph(base, g, counter.clone())?;
    DiskGraph::open(base, counter)
}

/// Load a disk graph fully into memory (used by in-memory baselines, which
/// the paper charges with reading the whole graph once).
pub fn disk_to_mem(g: &mut DiskGraph) -> Result<MemGraph> {
    let n = g.num_nodes();
    let mut adj = Vec::with_capacity(n as usize);
    let mut buf = Vec::new();
    for v in 0..n {
        g.adjacency(v, &mut buf)?;
        adj.push(buf.clone());
    }
    Ok(MemGraph::from_adjacency(adj))
}

/// Memory-bounded external graph builder.
///
/// Edges are accumulated into a bounded in-memory run; full runs are sorted
/// and spilled to disk; [`ExternalGraphBuilder::finish`] k-way-merges the
/// runs (deduplicating) and streams adjacency lists straight into a
/// [`DiskGraphWriter`]. Peak memory is `O(run_capacity)` regardless of `m`,
/// mirroring how a web-scale edge list would actually be ingested.
///
/// Scratch-run I/O is intentionally *not* charged to the graph's counter:
/// the paper measures algorithm I/O, not one-off ingest cost.
pub struct ExternalGraphBuilder {
    scratch: TempDir,
    runs: Vec<PathBuf>,
    buf: Vec<u64>,
    run_capacity: usize,
    max_node: u32,
    saw_edge: bool,
    version: FormatVersion,
}

/// Pack a directed edge into a sortable u64.
#[inline]
fn pack(u: u32, v: u32) -> u64 {
    ((u as u64) << 32) | v as u64
}

#[inline]
fn unpack(x: u64) -> (u32, u32) {
    ((x >> 32) as u32, x as u32)
}

impl ExternalGraphBuilder {
    /// Create a builder spilling runs of at most `run_capacity` directed
    /// edges (two per undirected input edge), producing a v1 graph.
    pub fn new(run_capacity: usize) -> Result<Self> {
        Self::new_with_format(run_capacity, FormatVersion::V1)
    }

    /// [`ExternalGraphBuilder::new`] with an explicit edge-table encoding
    /// for the final graph (refused up front when it is read-only, like
    /// [`DiskGraphWriter::create_with_format`]).
    pub fn new_with_format(run_capacity: usize, version: FormatVersion) -> Result<Self> {
        check_writable(version)?;
        if run_capacity < 2 {
            return Err(Error::InvalidArgument(
                "run capacity must hold at least one undirected edge".into(),
            ));
        }
        Ok(ExternalGraphBuilder {
            scratch: TempDir::new("kcore-build")?,
            runs: Vec::new(),
            buf: Vec::with_capacity(run_capacity),
            run_capacity,
            max_node: 0,
            saw_edge: false,
            version,
        })
    }

    /// Add one undirected edge. Self-loops are dropped silently.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<()> {
        if u == v {
            return Ok(());
        }
        self.max_node = self.max_node.max(u).max(v);
        self.saw_edge = true;
        self.buf.push(pack(u, v));
        self.buf.push(pack(v, u));
        if self.buf.len() >= self.run_capacity {
            self.spill()?;
        }
        Ok(())
    }

    fn spill(&mut self) -> Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        self.buf.sort_unstable();
        self.buf.dedup();
        let path = self
            .scratch
            .path()
            .join(format!("run{}.bin", self.runs.len()));
        let mut w = BufWriter::new(std::fs::File::create(&path)?);
        for &x in &self.buf {
            w.write_all(&x.to_le_bytes())?;
        }
        w.flush()?;
        self.runs.push(path);
        self.buf.clear();
        Ok(())
    }

    /// Merge all runs and write the final graph with at least `min_nodes`
    /// nodes at `base`, charging only the final graph writes to `counter`.
    pub fn finish(
        mut self,
        base: &Path,
        min_nodes: u32,
        counter: Arc<IoCounter>,
    ) -> Result<DiskGraph> {
        self.spill()?;
        let n = if self.saw_edge {
            (self.max_node + 1).max(min_nodes)
        } else {
            min_nodes
        };
        let mut writer =
            DiskGraphWriter::create_with_format(base, n, counter.clone(), self.version)?;

        // K-way merge with global dedup.
        let mut sources: Vec<RunReader> = Vec::with_capacity(self.runs.len());
        for p in &self.runs {
            sources.push(RunReader::open(p)?);
        }
        let mut heap: BinaryHeap<std::cmp::Reverse<(u64, usize)>> = BinaryHeap::new();
        for (i, s) in sources.iter_mut().enumerate() {
            if let Some(x) = s.next()? {
                heap.push(std::cmp::Reverse((x, i)));
            }
        }
        let mut cur_node: Option<u32> = None;
        let mut nbrs: Vec<u32> = Vec::new();
        let mut last: Option<u64> = None;
        while let Some(std::cmp::Reverse((x, i))) = heap.pop() {
            if let Some(nx) = sources[i].next()? {
                heap.push(std::cmp::Reverse((nx, i)));
            }
            if last == Some(x) {
                continue;
            }
            last = Some(x);
            let (u, v) = unpack(x);
            if cur_node != Some(u) {
                if let Some(c) = cur_node {
                    writer.append_adjacency(c, &nbrs)?;
                }
                cur_node = Some(u);
                nbrs.clear();
            }
            nbrs.push(v);
        }
        if let Some(c) = cur_node {
            writer.append_adjacency(c, &nbrs)?;
        }
        writer.finish()?;
        DiskGraph::open(base, counter)
    }
}

/// Buffered reader over one spilled run of packed edges.
struct RunReader {
    reader: BufReader<std::fs::File>,
}

impl RunReader {
    fn open(path: &Path) -> Result<Self> {
        Ok(RunReader {
            reader: BufReader::with_capacity(1 << 16, std::fs::File::open(path)?),
        })
    }

    fn next(&mut self) -> Result<Option<u64>> {
        let mut b = [0u8; 8];
        match self.reader.read_exact(&mut b) {
            Ok(()) => Ok(Some(u64::from_le_bytes(b))),
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DEFAULT_BLOCK_SIZE;

    fn counter() -> Arc<IoCounter> {
        IoCounter::new(DEFAULT_BLOCK_SIZE)
    }

    #[test]
    fn writer_round_trip_with_isolated_tail() {
        let dir = TempDir::new("buildtest").unwrap();
        let g = MemGraph::from_edges([(0, 1), (1, 2)], 5);
        let mut dg = mem_to_disk(&dir.path().join("g"), &g, counter()).unwrap();
        assert_eq!(dg.num_nodes(), 5);
        let back = disk_to_mem(&mut dg).unwrap();
        assert_eq!(back, g);
    }

    #[test]
    fn writer_rejects_unsorted_adjacency() {
        let dir = TempDir::new("buildtest").unwrap();
        let mut w = DiskGraphWriter::create(&dir.path().join("g"), 3, counter()).unwrap();
        assert!(w.append_adjacency(0, &[2, 1]).is_err());
    }

    #[test]
    fn writer_rejects_descending_nodes() {
        let dir = TempDir::new("buildtest").unwrap();
        let mut w = DiskGraphWriter::create(&dir.path().join("g"), 3, counter()).unwrap();
        w.append_adjacency(1, &[2]).unwrap();
        assert!(w.append_adjacency(0, &[1]).is_err());
    }

    #[test]
    fn writer_rejects_self_loop_and_out_of_range() {
        let dir = TempDir::new("buildtest").unwrap();
        let mut w = DiskGraphWriter::create(&dir.path().join("g"), 3, counter()).unwrap();
        assert!(w.append_adjacency(0, &[0]).is_err());
        assert!(w.append_adjacency(0, &[5]).is_err());
    }

    #[test]
    fn no_writer_emits_the_legacy_format() {
        let dir = TempDir::new("buildtest").unwrap();
        let base = dir.path().join("g");
        for err in [
            DiskGraphWriter::create_with_format(&base, 3, counter(), FormatVersion::V2).err(),
            ExternalGraphBuilder::new_with_format(8, FormatVersion::V2).err(),
        ] {
            let err = err.expect("v2 must be refused");
            assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
            assert!(err.to_string().contains("v3"), "{err}");
        }
        assert!(!GraphPaths::from_base(&base).edges.exists());
    }

    #[test]
    fn external_build_matches_in_memory_build() {
        // Small run capacity forces several spills and a real merge.
        let edges: Vec<(u32, u32)> = (0..500u32)
            .flat_map(|i| [(i, (i * 13 + 1) % 500), (i, (i * 29 + 7) % 500)])
            .collect();
        let expect = MemGraph::from_edges(edges.iter().copied(), 500);

        let dir = TempDir::new("buildtest").unwrap();
        let mut b = ExternalGraphBuilder::new(64).unwrap();
        for &(u, v) in &edges {
            b.add_edge(u, v).unwrap();
        }
        let mut dg = b.finish(&dir.path().join("g"), 500, counter()).unwrap();
        let got = disk_to_mem(&mut dg).unwrap();
        assert_eq!(got, expect);
    }

    #[test]
    fn external_build_dedups_across_runs() {
        let dir = TempDir::new("buildtest").unwrap();
        let mut b = ExternalGraphBuilder::new(4).unwrap();
        for _ in 0..10 {
            b.add_edge(0, 1).unwrap();
            b.add_edge(1, 2).unwrap();
        }
        let dg = b.finish(&dir.path().join("g"), 0, counter()).unwrap();
        assert_eq!(dg.num_edges(), 2);
    }

    #[test]
    fn external_build_empty_graph() {
        let dir = TempDir::new("buildtest").unwrap();
        let b = ExternalGraphBuilder::new(8).unwrap();
        let dg = b.finish(&dir.path().join("g"), 4, counter()).unwrap();
        assert_eq!(dg.num_nodes(), 4);
        assert_eq!(dg.num_edges(), 0);
    }
}
