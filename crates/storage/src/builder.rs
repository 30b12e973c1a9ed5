//! Writers that lay graphs out on disk, including a memory-bounded external
//! build path for edge lists that do not fit in memory.

use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::codec;
use crate::error::{Error, Result};
use crate::format::{self, FormatVersion, GraphPaths};
use crate::graph::DiskGraph;
use crate::io::{BlockWriter, IoCounter};
use crate::memgraph::MemGraph;
use crate::tempdir::TempDir;

/// Streaming writer producing the node-table/edge-table pair.
///
/// Adjacency lists must be appended in ascending node order; nodes skipped
/// over get degree zero. Each node's offset and degree (12 bytes) are
/// accumulated in memory — `O(n)`, which the semi-external model permits —
/// and packed into the node index at [`DiskGraphWriter::finish`], whose
/// widths they decide (see [`crate::format`]).
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
    /// Each appended node's edge-table offset and degree.
    offsets: Vec<u64>,
    degrees: Vec<u32>,
    edge_writer: BlockWriter,
    next_node: u32,
    degree_sum: u64,
    /// Reusable encode buffer, so appends allocate nothing per list.
    encode_buf: Vec<u8>,
}

impl DiskGraphWriter {
    /// Begin writing a graph with `num_nodes` nodes at
    /// `<base>.nodes/.edges` in the edge-table encoding `version`.
    pub fn create_with_format(
        base: &Path,
        num_nodes: u32,
        counter: Arc<IoCounter>,
        version: FormatVersion,
    ) -> Result<Self> {
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
            offsets: Vec::with_capacity(num_nodes as usize),
            degrees: Vec::with_capacity(num_nodes as usize),
            edge_writer,
            next_node: 0,
            degree_sum: 0,
            encode_buf: Vec::new(),
        })
    }

    fn pad_to(&mut self, v: u32) {
        // Nodes without adjacency get (current offset, degree 0).
        let offset = self.edge_writer.position();
        while self.next_node < v {
            self.offsets.push(offset);
            self.degrees.push(0);
            self.next_node += 1;
        }
    }

    /// Append `nbr(v)`; `v` must be ≥ every node appended so far and `nbrs`
    /// strictly sorted with ids in `0..num_nodes`, no self-loop.
    pub fn append_adjacency(&mut self, v: u32, nbrs: &[u32]) -> Result<()> {
        Error::check_node(v, self.num_nodes)?;
        if v < self.next_node {
            return Err(Error::InvalidArgument(format!(
                "adjacency lists must be appended in ascending order (got {v} after {})",
                self.next_node
            )));
        }
        for (i, &u) in nbrs.iter().enumerate() {
            Error::check_node(u, self.num_nodes)?;
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
            FormatVersion::V1 => codec::encode_u32_run(nbrs, &mut self.encode_buf),
            FormatVersion::V3 => codec::encode_group_run(nbrs, &mut self.encode_buf),
        }
        self.edge_writer.write_all(&self.encode_buf)?;
        self.offsets.push(offset);
        self.degrees.push(nbrs.len() as u32);
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
        let (dw, ow) = format::node_index_widths(&self.offsets, &self.degrees);
        let meta = format::GraphMeta {
            num_nodes: self.num_nodes,
            degree_sum: self.degree_sum,
            version: self.version,
            edge_bytes,
            layout: format::NodeLayout::Packed {
                degree_bits: dw,
                offset_bits: ow,
            },
        };
        let mut w = BlockWriter::create(&self.paths.nodes, self.counter.clone())?;
        w.write_all(&format::encode_node_header(&meta))?;
        let group = format::NODE_GROUP as usize;
        let mut packed = Vec::with_capacity(meta.node_record_len() as usize);
        for (offsets, degrees) in self.offsets.chunks(group).zip(self.degrees.chunks(group)) {
            packed.clear();
            format::encode_node_group(offsets, degrees, dw, ow, &mut packed);
            w.write_all(&packed)?;
        }
        w.finish()?.sync_all()?;
        // Both files are durable; now make their directory entries so.
        crate::io::sync_parent_dir(self.counter.vfs().as_ref(), &self.paths.nodes)?;
        Ok(self.paths)
    }
}

/// Write an in-memory graph to disk (format v3) and return the file pair.
pub fn write_mem_graph(base: &Path, g: &MemGraph, counter: Arc<IoCounter>) -> Result<GraphPaths> {
    write_mem_graph_with(base, g, counter, FormatVersion::V3)
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

/// Convenience: write `g` at `base` (format v3) and open it as a
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
/// Undirected edges are accumulated once each into a bounded in-memory run.
/// A full run becomes sorted adjacency lists by counting degrees into a
/// node-indexed array, scattering both directions of every edge, and
/// sorting only the lists that did not come out ascending (none, when the
/// input arrives grouped by source); it is spilled as `(node, len,
/// neighbours…)` records. [`ExternalGraphBuilder::finish`] keeps the last
/// run in memory and walks the nodes in ascending order, taking each node's
/// list from that run and from whichever spilled runs hold one (uniting
/// them when more than one does) straight into a [`DiskGraphWriter`].
///
/// # Memory
///
/// Peak live memory is `8 · run_capacity` bytes of run (4 B per directed
/// edge of buffered pairs plus 4 B per directed edge of scattered
/// neighbours) and 8 B per node of run index (offsets and list lengths),
/// whatever `m` is; `finish` adds the writer's 12 B per node of node
/// entries and one 64 KiB read buffer per spilled run. The node-indexed
/// terms are what the semi-external model grants — `O(n)` of memory, the
/// same budget the decomposition's `core[]` array draws on — while the
/// `O(m)` edge set only ever passes through the `run_capacity` window.
/// Every run costs a pass over that index, so a `run_capacity` far below
/// `n` spends its time there: give the run at least the `O(n)` the model
/// already allows.
///
/// Scratch runs live under [`std::env::temp_dir`]; where that is a tmpfs
/// they are held in RAM, so point `TMPDIR` at a disk for inputs beyond
/// memory. Scratch-run I/O is intentionally *not* charged to the graph's
/// counter: the paper measures algorithm I/O, not one-off ingest cost.
pub struct ExternalGraphBuilder {
    scratch: TempDir,
    runs: Vec<SpilledRun>,
    /// The current run: each undirected edge once, in arrival order.
    pairs: Vec<(u32, u32)>,
    /// Undirected edges per run.
    pair_capacity: usize,
    /// Largest id seen plus one.
    num_nodes: u32,
    version: FormatVersion,
}

/// Bytes moved per scratch-run write and read.
const RUN_CHUNK: usize = 64 << 10;

/// A run on disk with the length and checksum it was written with, which
/// is how its reader tells the run's end from a truncation and its words
/// from damage.
struct SpilledRun {
    path: PathBuf,
    bytes: u64,
    sum: RunSum,
}

/// Position-sensitive checksum over a run's `u32` words (Fletcher's two
/// running sums): any one word changed, or two swapped, changes it.
#[derive(Clone, Copy, Default, PartialEq)]
struct RunSum(u64, u64);

impl RunSum {
    fn add(&mut self, words: &[u32]) {
        for &w in words {
            self.0 = self.0.wrapping_add(w as u64);
            self.1 = self.1.wrapping_add(self.0);
        }
    }
}

/// One run as sorted, duplicate-free adjacency lists over nodes
/// `0..lens.len()`: node `v`'s list is the first `lens[v]` entries of
/// `nbrs` from `offsets[v]`.
struct CsrRun {
    offsets: Vec<u32>,
    lens: Vec<u32>,
    nbrs: Vec<u32>,
}

impl CsrRun {
    /// Node `v`'s list; empty for a node the run never saw.
    fn list(&self, v: u32) -> &[u32] {
        let at = self.offsets[v as usize] as usize;
        &self.nbrs[at..at + self.lens[v as usize] as usize]
    }
}

/// Make `list` strictly ascending in place — sorted, duplicates dropped —
/// and return how many entries remain. A list already so is only read.
pub(crate) fn sort_dedup(list: &mut [u32]) -> usize {
    if list.windows(2).all(|w| w[0] < w[1]) {
        return list.len();
    }
    list.sort_unstable();
    let mut kept = 1;
    for i in 1..list.len() {
        if list[i] != list[kept - 1] {
            list[kept] = list[i];
            kept += 1;
        }
    }
    kept
}

impl ExternalGraphBuilder {
    /// Create a builder spilling runs of at most `run_capacity` directed
    /// edges (two per undirected input edge), producing a v3 graph: ingest
    /// writes the compressed layout.
    pub fn new(run_capacity: usize) -> Result<Self> {
        Self::new_with_format(run_capacity, FormatVersion::V3)
    }

    /// [`ExternalGraphBuilder::new`] with an explicit edge-table encoding
    /// for the final graph.
    pub fn new_with_format(run_capacity: usize, version: FormatVersion) -> Result<Self> {
        if run_capacity < 2 {
            return Err(Error::InvalidArgument(
                "run capacity must hold at least one undirected edge".into(),
            ));
        }
        // A run's offsets are `u32`, so it holds at most `u32::MAX`
        // directed edges (32 GiB of run).
        let pair_capacity = (run_capacity / 2).min(u32::MAX as usize / 2);
        Ok(ExternalGraphBuilder {
            scratch: TempDir::new("kcore-build")?,
            runs: Vec::new(),
            pairs: Vec::with_capacity(pair_capacity),
            pair_capacity,
            num_nodes: 0,
            version,
        })
    }

    /// Add one undirected edge. Self-loops are dropped silently; the id
    /// `u32::MAX` is refused, because the node count must fit `u32`.
    pub fn add_edge(&mut self, u: u32, v: u32) -> Result<()> {
        let hi = u.max(v);
        Error::check_node_id(hi)?;
        if u == v {
            return Ok(());
        }
        self.num_nodes = self.num_nodes.max(hi + 1);
        self.pairs.push((u, v));
        if self.pairs.len() == self.pair_capacity {
            self.spill()?;
        }
        Ok(())
    }

    /// Turn the buffered pairs into a [`CsrRun`] and empty the buffer.
    fn take_run(&mut self) -> CsrRun {
        let n = self.num_nodes as usize;
        let mut offsets = vec![0u32; n + 1];
        for &(u, v) in &self.pairs {
            offsets[u as usize + 1] += 1;
            offsets[v as usize + 1] += 1;
        }
        for v in 0..n {
            offsets[v + 1] += offsets[v];
        }
        // `lens[v]` counts what the scatter has placed in `v`'s list so
        // far; once every pair is placed it is the list's length.
        let mut lens = vec![0u32; n];
        let mut nbrs = vec![0u32; 2 * self.pairs.len()];
        for &(u, v) in &self.pairs {
            for (a, b) in [(u, v), (v, u)] {
                nbrs[(offsets[a as usize] + lens[a as usize]) as usize] = b;
                lens[a as usize] += 1;
            }
        }
        self.pairs.clear();
        for (v, len) in lens.iter_mut().enumerate() {
            let at = offsets[v] as usize;
            *len = sort_dedup(&mut nbrs[at..at + *len as usize]) as u32;
        }
        CsrRun {
            offsets,
            lens,
            nbrs,
        }
    }

    /// Write the current run to the scratch directory as `(node, len,
    /// neighbours…)` records of little-endian `u32`s, one per node with a
    /// non-empty list, in ascending node order.
    fn spill(&mut self) -> Result<()> {
        let run = self.take_run();
        let path = self
            .scratch
            .path()
            .join(format!("run{}.bin", self.runs.len()));
        let mut file = std::fs::File::create(&path)?;
        // A list longer than a chunk goes out in pieces, so the write
        // buffer stays under two chunks however long the list.
        let mut chunk = Vec::with_capacity(2 * RUN_CHUNK + 8);
        let mut bytes = 0u64;
        let mut sum = RunSum::default();
        for v in 0..self.num_nodes {
            let list = run.list(v);
            if list.is_empty() {
                continue;
            }
            let head = [v, list.len() as u32];
            sum.add(&head);
            sum.add(list);
            codec::encode_u32_run(&head, &mut chunk);
            for piece in list.chunks(RUN_CHUNK / 4) {
                codec::encode_u32_run(piece, &mut chunk);
                if chunk.len() >= RUN_CHUNK {
                    bytes += chunk.len() as u64;
                    file.write_all(&chunk)?;
                    chunk.clear();
                }
            }
        }
        bytes += chunk.len() as u64;
        file.write_all(&chunk)?;
        self.runs.push(SpilledRun { path, bytes, sum });
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
        let n = self.num_nodes.max(min_nodes);
        // The last run is never spilled; "everything fitted in one run" is
        // the case below with no readers. Its pair buffer is given back
        // before the writer and the readers allocate theirs.
        let tail = self.take_run();
        self.pairs = Vec::new();
        let mut readers = Vec::with_capacity(self.runs.len());
        for run in &self.runs {
            readers.push(RunReader::open(run, self.num_nodes)?);
        }
        let mut writer =
            DiskGraphWriter::create_with_format(base, n, counter.clone(), self.version)?;
        let mut merged: Vec<u32> = Vec::new();
        for v in 0..self.num_nodes {
            merged.clear();
            let mut sources = 0;
            for r in readers.iter_mut().filter(|r| r.node == v) {
                r.take_list(&mut merged)?;
                sources += 1;
            }
            let mut list = tail.list(v);
            if sources > 0 {
                if !list.is_empty() {
                    merged.extend_from_slice(list);
                    sources += 1;
                }
                if sources > 1 {
                    let kept = sort_dedup(&mut merged);
                    merged.truncate(kept);
                }
                list = &merged;
            }
            if !list.is_empty() {
                writer.append_adjacency(v, list)?;
            }
        }
        // Every record names a node below `num_nodes`, in ascending order.
        debug_assert!(readers.iter().all(|r| r.node == RunReader::DONE));
        writer.finish()?;
        DiskGraph::open(base, counter)
    }
}

/// Chunked reader over one spilled run, standing at one record at a time.
struct RunReader {
    file: std::fs::File,
    chunk: Vec<u8>,
    /// Read position in `chunk`.
    at: usize,
    /// Bytes of the run not yet read into `chunk`.
    unread: u64,
    /// Nodes the records may name: `0..num_nodes`.
    num_nodes: u32,
    /// Checksum of the words read so far, and what the whole run's was
    /// when it was written.
    sum: RunSum,
    written_sum: RunSum,
    /// The current record's node, [`RunReader::DONE`] past the last.
    node: u32,
    /// The current record's neighbour count.
    len: u32,
}

impl RunReader {
    /// `node` of a reader past its last record; never a node id, since
    /// [`ExternalGraphBuilder::add_edge`] refuses `u32::MAX`.
    const DONE: u32 = u32::MAX;

    /// Open `run` and stand at its first record.
    fn open(run: &SpilledRun, num_nodes: u32) -> Result<Self> {
        let file = std::fs::File::open(&run.path)?;
        let on_disk = file.metadata()?.len();
        if on_disk != run.bytes {
            return Err(Error::corrupt(format!(
                "scratch run {} is {on_disk} bytes, written as {}",
                run.path.display(),
                run.bytes
            )));
        }
        let mut reader = RunReader {
            file,
            chunk: Vec::new(),
            at: 0,
            unread: run.bytes,
            num_nodes,
            sum: RunSum::default(),
            written_sum: run.sum,
            node: Self::DONE,
            len: 0,
        };
        reader.next_record(None)?;
        Ok(reader)
    }

    /// Bytes of the run after the read position.
    fn remaining(&self) -> u64 {
        self.unread + (self.chunk.len() - self.at) as u64
    }

    /// Read the next chunk. Runs and chunks are whole `u32`s, so a chunk
    /// never ends inside one.
    fn refill(&mut self) -> Result<()> {
        let want = self.unread.min(RUN_CHUNK as u64) as usize;
        self.chunk.resize(want, 0);
        self.file.read_exact(&mut self.chunk)?;
        self.unread -= want as u64;
        self.at = 0;
        Ok(())
    }

    fn word(&mut self) -> Result<u32> {
        if self.remaining() < 4 {
            return Err(Error::corrupt("scratch run ends inside a record"));
        }
        if self.at == self.chunk.len() {
            self.refill()?;
        }
        self.at += 4;
        Ok(codec::get_u32(&self.chunk, self.at - 4))
    }

    /// Stand at the record after `prev` (the node of the one just
    /// consumed), or at [`RunReader::DONE`] when the run is used up.
    fn next_record(&mut self, prev: Option<u32>) -> Result<()> {
        if self.remaining() == 0 {
            if self.sum != self.written_sum {
                return Err(Error::corrupt("scratch run fails its checksum"));
            }
            self.node = Self::DONE;
            return Ok(());
        }
        let (node, len) = (self.word()?, self.word()?);
        self.sum.add(&[node, len]);
        if node >= self.num_nodes || prev.is_some_and(|p| node <= p) {
            return Err(Error::corrupt(format!(
                "scratch run record for node {node} is out of order or range"
            )));
        }
        if len == 0 || 4 * len as u64 > self.remaining() {
            return Err(Error::corrupt(format!(
                "scratch run record for node {node} claims {len} neighbours"
            )));
        }
        (self.node, self.len) = (node, len);
        Ok(())
    }

    /// Append the current record's neighbours to `out` and stand at the
    /// next record.
    fn take_list(&mut self, out: &mut Vec<u32>) -> Result<()> {
        let mut left = self.len as usize;
        let first = out.len();
        while left > 0 {
            if self.at == self.chunk.len() {
                self.refill()?;
            }
            let take = left.min((self.chunk.len() - self.at) / 4);
            codec::decode_u32_run(&self.chunk[self.at..self.at + 4 * take], out)?;
            self.at += 4 * take;
            left -= take;
        }
        self.sum.add(&out[first..]);
        self.next_record(Some(self.node))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DEFAULT_BLOCK_SIZE;

    fn counter() -> Arc<IoCounter> {
        IoCounter::new(DEFAULT_BLOCK_SIZE)
    }

    fn writer(dir: &TempDir) -> DiskGraphWriter {
        DiskGraphWriter::create_with_format(&dir.path().join("g"), 3, counter(), FormatVersion::V3)
            .unwrap()
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
        let mut w = writer(&dir);
        assert!(w.append_adjacency(0, &[2, 1]).is_err());
    }

    #[test]
    fn writer_rejects_descending_nodes() {
        let dir = TempDir::new("buildtest").unwrap();
        let mut w = writer(&dir);
        w.append_adjacency(1, &[2]).unwrap();
        assert!(w.append_adjacency(0, &[1]).is_err());
    }

    #[test]
    fn writer_rejects_self_loop_and_out_of_range() {
        let dir = TempDir::new("buildtest").unwrap();
        let mut w = writer(&dir);
        assert!(w.append_adjacency(0, &[0]).is_err());
        assert!(w.append_adjacency(0, &[5]).is_err());
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
    fn external_build_refuses_the_id_whose_node_count_overflows() {
        let dir = TempDir::new("buildtest").unwrap();
        let mut b = ExternalGraphBuilder::new(8).unwrap();
        b.add_edge(0, 1).unwrap();
        for (u, v) in [(u32::MAX, 0), (0, u32::MAX), (u32::MAX, u32::MAX)] {
            let err = b.add_edge(u, v).unwrap_err();
            assert!(matches!(err, Error::InvalidArgument(_)), "{err}");
            assert!(err.to_string().contains("4294967295"), "{err}");
        }
        // Nothing of the refused edges was buffered.
        assert_eq!((b.pairs.len(), b.num_nodes), (1, 2));
        let dg = b.finish(&dir.path().join("g"), 0, counter()).unwrap();
        assert_eq!((dg.num_nodes(), dg.num_edges()), (2, 1));
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
