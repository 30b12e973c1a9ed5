//! Disk-resident graph: open, random access and sequential scans.

use std::path::Path;
use std::sync::{Arc, Mutex};

use crate::cache::{BlockCache, CacheStats};
use crate::error::{Error, Result};
use crate::format::{self, FormatVersion, GraphMeta, GraphPaths};
use crate::io::{BlockReader, IoCounter, IoSnapshot};
use crate::pool::{PoolLease, SharedPool};

/// File id of the node table within a graph-private cache (also the node
/// table's id inside a pooled graph's charge cache).
const NODE_FILE: u32 = 0;
/// File id of the edge table within a graph-private cache (also the edge
/// table's id inside a pooled graph's charge cache).
const EDGE_FILE: u32 = 1;

/// How a [`DiskGraph`]'s readers attach to a frame pool.
///
/// Private opens ([`DiskGraph::open_with_cache`]) use a cache of their own
/// under the fixed ids 0/1 and charge model I/O per pool miss. Pooled opens
/// ([`DiskGraph::open_pooled`]) read through a process-wide
/// [`SharedPool`] under leased ids, with a private deterministic *charge
/// cache* deciding the model I/O (see [`crate::pool`] for the contract).
#[derive(Debug)]
struct CacheBinding {
    /// The frame store actually serving bytes (private or process-wide).
    pool: Arc<Mutex<BlockCache>>,
    /// The node table's file id within `pool`.
    node_file: u32,
    /// The edge table's file id within `pool`.
    edge_file: u32,
    /// Deterministic per-graph charge cache (pooled opens only); its file
    /// ids are always `NODE_FILE`/`EDGE_FILE`.
    charge: Option<Arc<Mutex<BlockCache>>>,
    /// Keeps the pool's file ids reserved; dropping the graph drops it,
    /// which invalidates the graph's frames (pooled opens only).
    lease: Option<PoolLease>,
}

/// A read-only graph stored on disk as a node table + edge table pair.
///
/// All reads are charged to the [`IoCounter`] supplied at open time, so the
/// semi-external algorithms can report I/O exactly as the paper does. By
/// default the struct holds only O(1) memory (two block readers, each with
/// one frame and a read-ahead window); the node table is *not* cached in
/// memory — the semi-external model keeps node *state* (core numbers,
/// counts) in memory, not the node table itself, which is re-scanned from
/// disk every iteration (§IV-A).
///
/// [`DiskGraph::open_with_cache`] attaches a memory-budgeted buffer pool
/// shared by both tables, realising the model's `M` parameter: resident
/// blocks are re-read for free and `read_ios` counts blocks physically
/// fetched. With the budget at zero the behaviour (and every charged count)
/// is identical to [`DiskGraph::open`].
///
/// [`DiskGraph::open_pooled`] instead serves blocks from a process-wide
/// [`SharedPool`] arbitrating one byte budget across many graphs; charged
/// `read_ios` then follows the graph's private deterministic charge cache
/// while [`IoSnapshot::physical_reads`] tracks actual pool fetches (see
/// [`crate::pool`]).
#[derive(Debug)]
pub struct DiskGraph {
    paths: GraphPaths,
    meta: GraphMeta,
    counter: Arc<IoCounter>,
    node_reader: BlockReader,
    edge_reader: BlockReader,
    /// Frame pool attachment when opened with a cache budget or against a
    /// shared pool.
    binding: Option<CacheBinding>,
    /// Reusable decode buffer for the borrowed-adjacency path.
    adj_scratch: Vec<u32>,
}

impl DiskGraph {
    /// Open the graph stored at `<base>.nodes` / `<base>.edges`.
    pub fn open(base: &Path, counter: Arc<IoCounter>) -> Result<DiskGraph> {
        Self::open_with_binding(GraphPaths::from_base(base), counter, None)
    }

    /// Open with a block-cache budget of `cache_bytes` (the model's `M`),
    /// evicting by the scan-resistant policy tuned for the semi-external
    /// convergence loops (see [`crate::cache`]).
    ///
    /// A budget below one frame per table (two blocks) behaves exactly like
    /// [`DiskGraph::open`] — zero remains the semantics-preserving default
    /// everywhere else in the crate.
    ///
    /// ```
    /// use graphstore::{mem_to_disk, DiskGraph, IoCounter, MemGraph, TempDir};
    ///
    /// let dir = TempDir::new("doc").unwrap();
    /// let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2)], 3);
    /// mem_to_disk(&dir.path().join("g"), &g, IoCounter::new(4096)).unwrap();
    ///
    /// // Attach a 1 MiB buffer pool: re-reads of resident blocks are free.
    /// let counter = IoCounter::new(4096);
    /// let mut disk =
    ///     DiskGraph::open_with_cache(&dir.path().join("g"), counter, 1 << 20).unwrap();
    /// let mut nbrs = Vec::new();
    /// disk.adjacency(1, &mut nbrs).unwrap();
    /// let cold = disk.io().read_ios;
    /// disk.adjacency(0, &mut nbrs).unwrap(); // resident: charges nothing
    /// disk.adjacency(2, &mut nbrs).unwrap();
    /// assert_eq!(disk.io().read_ios, cold);
    /// ```
    pub fn open_with_cache(
        base: &Path,
        counter: Arc<IoCounter>,
        cache_bytes: u64,
    ) -> Result<DiskGraph> {
        // One pinned frame per table, so any attached cache dominates the
        // readers' own one-frame buffers request by request.
        let block = counter.block_size();
        let binding = BlockCache::shared(block, cache_bytes, 2).map(|pool| CacheBinding {
            pool,
            node_file: NODE_FILE,
            edge_file: EDGE_FILE,
            charge: None,
            lease: None,
        });
        Self::open_with_binding(GraphPaths::from_base(base), counter, binding)
    }

    /// Open against a process-wide [`SharedPool`]: bytes are served from
    /// the pool's globally budgeted frames (under freshly leased file ids,
    /// freed again when the last handle of this graph drops), while charged
    /// `read_ios` follows a private deterministic *charge cache* of
    /// `charge_bytes` — the graph's own model budget `M`. Physical fetches
    /// land in [`IoSnapshot::physical_reads`] and move with pool
    /// contention; the charge does not. See [`crate::pool`] for the full
    /// contract.
    ///
    /// A `charge_bytes` below two frames disables the charge cache: the
    /// graph then charges one read I/O per shared-pool miss, which is
    /// honest but dependent on the other graphs' traffic.
    ///
    /// Errors when `counter` and `pool` disagree on the block size.
    pub fn open_pooled(
        base: &Path,
        counter: Arc<IoCounter>,
        pool: &SharedPool,
        charge_bytes: u64,
    ) -> Result<DiskGraph> {
        if pool.block_size() != counter.block_size() {
            return Err(Error::InvalidArgument(format!(
                "pool block size {} does not match counter block size {}",
                pool.block_size(),
                counter.block_size()
            )));
        }
        let lease = pool.register(2)?;
        let charge = BlockCache::shared(counter.block_size(), charge_bytes, 2);
        let binding = CacheBinding {
            pool: pool.cache(),
            node_file: lease.file_id(0),
            edge_file: lease.file_id(1),
            charge,
            lease: Some(lease),
        };
        Self::open_with_binding(GraphPaths::from_base(base), counter, Some(binding))
    }

    fn open_with_binding(
        paths: GraphPaths,
        counter: Arc<IoCounter>,
        binding: Option<CacheBinding>,
    ) -> Result<DiskGraph> {
        let (mut node_reader, mut edge_reader) = Self::open_readers(&paths, &counter, &binding)?;

        let meta = read_meta(&mut node_reader)?;
        if node_reader.file_len() != meta.node_file_len() {
            return Err(Error::corrupt(format!(
                "node table length {} does not match header (expected {})",
                node_reader.file_len(),
                meta.node_file_len()
            )));
        }
        if edge_reader.file_len() != meta.edge_file_len() {
            return Err(Error::corrupt(format!(
                "edge table length {} does not match header (expected {})",
                edge_reader.file_len(),
                meta.edge_file_len()
            )));
        }
        // The edge table must carry the magic of the node header's version:
        // a mismatched pair (e.g. a v1 edge table renamed under a v3 node
        // table) would otherwise decode garbage.
        let mut edge_magic = [0u8; format::EDGE_HEADER_LEN as usize];
        edge_reader.read_exact_at(0, &mut edge_magic)?;
        if &edge_magic != meta.version.edge_magic() {
            return Err(Error::corrupt(format!(
                "edge table magic does not match format {}",
                meta.version.tag()
            )));
        }
        // Opening a graph is metadata work, not part of any measured run:
        // drop the buffered reader state (and cached frames) the header and
        // magic reads seeded, then zero the counters — otherwise the
        // current-block freebie would make the first measured request of
        // block 0 free, skewing every cold-run figure.
        node_reader.invalidate();
        edge_reader.invalidate();
        counter.reset();
        if let Some(b) = binding.as_ref() {
            // A graph-private cache starts its measurement fresh; a shared
            // pool's counters belong to every registered graph and must
            // survive another graph opening mid-measurement.
            if b.lease.is_none() {
                crate::io::lock_cache(&b.pool).reset_stats();
            }
            if let Some(ghost) = b.charge.as_ref() {
                crate::io::lock_cache(ghost).reset_stats();
            }
        }
        Ok(DiskGraph {
            paths,
            meta,
            counter,
            node_reader,
            edge_reader,
            binding,
            adj_scratch: Vec::new(),
        })
    }

    /// Construct the reader pair, cached when a binding is supplied.
    fn open_readers(
        paths: &GraphPaths,
        counter: &Arc<IoCounter>,
        binding: &Option<CacheBinding>,
    ) -> Result<(BlockReader, BlockReader)> {
        Ok(match binding {
            Some(b) => (
                BlockReader::open_cached_with_charge(
                    &paths.nodes,
                    counter.clone(),
                    b.pool.clone(),
                    b.node_file,
                    b.charge.as_ref().map(|g| (g.clone(), NODE_FILE)),
                )?,
                BlockReader::open_cached_with_charge(
                    &paths.edges,
                    counter.clone(),
                    b.pool.clone(),
                    b.edge_file,
                    b.charge.as_ref().map(|g| (g.clone(), EDGE_FILE)),
                )?,
            ),
            None => (
                BlockReader::open(&paths.nodes, counter.clone())?,
                BlockReader::open(&paths.edges, counter.clone())?,
            ),
        })
    }

    /// Hit/miss counters of the attached block cache (`None` when opened
    /// without one). For pooled opens these are the **shared pool's**
    /// counters — all registered graphs combined.
    pub fn cache_stats(&self) -> Option<CacheStats> {
        self.binding
            .as_ref()
            .map(|b| crate::io::lock_cache(&b.pool).stats())
    }

    /// Hit/miss counters of this graph's deterministic charge cache
    /// (`None` unless opened via [`DiskGraph::open_pooled`] with a charge
    /// budget of at least two frames). Misses here are exactly the charged
    /// `read_ios` of the cached paths.
    pub fn charge_stats(&self) -> Option<CacheStats> {
        self.binding
            .as_ref()
            .and_then(|b| b.charge.as_ref())
            .map(|g| crate::io::lock_cache(g).stats())
    }

    /// Memory budget realised by the attached cache, in bytes (0 uncached).
    /// For pooled opens this is the **shared pool's** global budget, not a
    /// per-graph reservation.
    pub fn cache_budget_bytes(&self) -> u64 {
        self.binding.as_ref().map_or(0, |b| {
            let pool = crate::io::lock_cache(&b.pool);
            (pool.capacity_frames() * pool.block_size()) as u64
        })
    }

    /// Graph metadata.
    pub fn meta(&self) -> GraphMeta {
        self.meta
    }

    /// Edge-table encoding of this graph (see [`FormatVersion`]).
    pub fn format_version(&self) -> FormatVersion {
        self.meta.version
    }

    /// Number of nodes `n`.
    pub fn num_nodes(&self) -> u32 {
        self.meta.num_nodes
    }

    /// Number of undirected edges `m`.
    pub fn num_edges(&self) -> u64 {
        self.meta.num_edges()
    }

    /// Sum of degrees (`2m`).
    pub fn degree_sum(&self) -> u64 {
        self.meta.degree_sum
    }

    /// The file pair backing this graph.
    pub fn paths(&self) -> &GraphPaths {
        &self.paths
    }

    /// The shared I/O counter.
    pub fn counter(&self) -> &Arc<IoCounter> {
        &self.counter
    }

    /// Current I/O counters.
    pub fn io(&self) -> IoSnapshot {
        self.counter.snapshot()
    }

    /// Read node `v`'s `(offset, degree)` entry from the node table (charged).
    pub fn node_entry(&mut self, v: u32) -> Result<(u64, u32)> {
        Error::check_node(v, self.meta.num_nodes)?;
        let e: [u8; format::NODE_ENTRY_LEN as usize] = self
            .node_reader
            .read_array_at(self.meta.node_entry_offset(v))?;
        let (offset, degree) = format::decode_node_entry(&e);
        // Lower bound of the run's extent: 4 bytes per id raw, at least the
        // control region for v3 groups. The v3 decoder enforces the exact
        // end itself.
        let min_bytes: u128 = match self.meta.version {
            FormatVersion::V1 => 4 * degree as u128,
            FormatVersion::V3 => (degree as u128).div_ceil(4),
        };
        let end = offset as u128 + min_bytes;
        if offset < format::EDGE_HEADER_LEN || end > self.meta.edge_file_len() as u128 {
            return Err(Error::corrupt(format!(
                "node {v} entry points outside the edge table (offset {offset}, degree {degree})"
            )));
        }
        Ok((offset, degree))
    }

    /// Load `nbr(v)` into `buf` (cleared first). One node-table access plus a
    /// contiguous edge-table read, both charged.
    pub fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()> {
        let (offset, degree) = self.node_entry(v)?;
        buf.clear();
        if degree == 0 {
            return Ok(());
        }
        match self.meta.version {
            FormatVersion::V1 => {
                buf.resize(degree as usize, 0);
                self.edge_reader.read_u32_run(offset, buf)?;
                validate_run(v, self.meta.num_nodes, buf)
            }
            FormatVersion::V3 => {
                self.edge_reader
                    .read_group_run(offset, degree as usize, buf)?;
                validate_sorted_run(v, self.meta.num_nodes, buf)
            }
        }
    }

    /// Visit `nbr(v)` as a borrowed slice, avoiding the caller-side copy.
    ///
    /// For v1 graphs, when the run sits inside a single resident cache frame
    /// (and the platform is little-endian, matching the on-disk encoding)
    /// the slice is decoded **in place from the frame** — no bytes are
    /// copied at all. The frame handle is taken with the pool lock released
    /// before `f` runs, so graphs sharing one [`SharedPool`] never serialize
    /// on each other's visit closures. Otherwise — and always for v3 graphs, whose encoded
    /// runs have no in-place representation — the run is decoded into an
    /// internal per-handle scratch buffer that is reused across calls (as
    /// is the reader's byte staging buffer behind it), so no hot loop
    /// allocates. Charged identically to [`DiskGraph::adjacency`].
    pub fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R> {
        let (offset, degree) = self.node_entry(v)?;
        if degree == 0 {
            return Ok(f(&[]));
        }
        let n = self.meta.num_nodes;
        if self.meta.version == FormatVersion::V3 {
            // Decode-into-scratch, straight from the frame holding the run
            // (runs that straddle are staged in the reader's reusable byte
            // buffer first).
            self.edge_reader
                .read_group_run(offset, degree as usize, &mut self.adj_scratch)?;
            validate_sorted_run(v, n, &self.adj_scratch)?;
            return Ok(f(&self.adj_scratch));
        }
        let len_bytes = degree as usize * 4;
        if let Some((frame, from)) = self.edge_reader.cached_run(offset, len_bytes)? {
            let run = borrow_or_decode(&frame[from..from + len_bytes], &mut self.adj_scratch);
            validate_run(v, self.meta.num_nodes, run)?;
            return Ok(f(run));
        }
        // Multi-block run: decode a copy.
        self.adj_scratch.clear();
        self.adj_scratch.resize(degree as usize, 0);
        self.edge_reader
            .read_u32_run(offset, &mut self.adj_scratch)?;
        validate_run(v, n, &self.adj_scratch)?;
        Ok(f(&self.adj_scratch))
    }

    /// Read all degrees with one sequential node-table scan (charged).
    ///
    /// This is how the semi-external algorithms initialise
    /// `core(v) := deg(v)` — a single pass over the node table.
    pub fn read_degrees(&mut self) -> Result<Vec<u32>> {
        let n = self.meta.num_nodes as usize;
        let mut degrees = Vec::with_capacity(n);
        // Read entries in chunks to keep syscalls low; accounting is
        // unaffected (sequential blocks are charged once either way).
        const CHUNK: usize = 4096;
        let mut raw = vec![0u8; CHUNK * format::NODE_ENTRY_LEN as usize];
        let mut v = 0usize;
        while v < n {
            let take = CHUNK.min(n - v);
            let bytes = take * format::NODE_ENTRY_LEN as usize;
            self.node_reader
                .read_exact_at(self.meta.node_entry_offset(v as u32), &mut raw[..bytes])?;
            for i in 0..take {
                let entry = &raw[i * format::NODE_ENTRY_LEN as usize..];
                let (_, degree) = format::decode_node_entry(entry);
                degrees.push(degree);
            }
            v += take;
        }
        Ok(degrees)
    }

    /// Drop buffered windows (and any cached frames), so subsequent reads
    /// are charged in full — e.g. to measure a fresh cold run. Note this
    /// does not re-open the files: after an on-disk replacement the graph
    /// must be re-opened (the update buffer's flush does both).
    pub fn invalidate_buffers(&mut self) {
        self.node_reader.invalidate();
        self.edge_reader.invalidate();
    }

    /// Enable (or disable) background readahead pipelining on both table
    /// readers: while a sequential scan decodes the current read-ahead
    /// window, a worker thread fetches the next one (see
    /// [`BlockReader::set_readahead`](crate::io::BlockReader::set_readahead)).
    /// Physical pipelining only — every charged counter is bit-identical
    /// with readahead on or off, which the format-v3 differential suite
    /// asserts. Off by default.
    pub fn set_readahead(&mut self, enabled: bool) -> Result<()> {
        self.node_reader.set_readahead(enabled)?;
        self.edge_reader.set_readahead(enabled)
    }

    /// Re-open the file pair in place (after a rewrite replaced the files).
    pub(crate) fn reopen(&mut self) -> Result<()> {
        if let Some(b) = self.binding.as_ref() {
            {
                let mut pool = crate::io::lock_cache(&b.pool);
                pool.invalidate_file(b.node_file);
                pool.invalidate_file(b.edge_file);
            }
            // The charge cache models the graph's own budget: a rewrite
            // makes its tracked blocks stale the same way, so the next
            // reads charge in full — identical to a private cache's reopen.
            if let Some(ghost) = b.charge.as_ref() {
                let mut ghost = crate::io::lock_cache(ghost);
                ghost.invalidate_file(NODE_FILE);
                ghost.invalidate_file(EDGE_FILE);
            }
        }
        let (mut node_reader, edge_reader) =
            Self::open_readers(&self.paths, &self.counter, &self.binding)?;
        self.meta = read_meta(&mut node_reader)?;
        self.node_reader = node_reader;
        self.edge_reader = edge_reader;
        Ok(())
    }
}

/// Read and decode the node-table header from `reader` (as many bytes as
/// the file offers up to the largest version's header).
fn read_meta(reader: &mut BlockReader) -> Result<GraphMeta> {
    let want = format::MAX_NODE_HEADER_LEN.min(reader.file_len()) as usize;
    let mut header = [0u8; format::MAX_NODE_HEADER_LEN as usize];
    reader.read_exact_at(0, &mut header[..want])?;
    format::decode_node_header(&header[..want])
}

/// Check a run the v3 decoder produced: the encoding enforces strict ascent
/// structurally (it stores `gap − 1`, making unsorted lists
/// unrepresentable), so only the range of the maximum — the last element —
/// needs checking. No re-walk of the run.
fn validate_sorted_run(v: u32, num_nodes: u32, run: &[u32]) -> Result<()> {
    if let Some(&last) = run.last() {
        if last >= num_nodes {
            return Err(Error::corrupt(format!(
                "neighbour {last} of node {v} out of range"
            )));
        }
    }
    Ok(())
}

/// Check a decoded adjacency run: ids in range, strictly sorted.
fn validate_run(v: u32, num_nodes: u32, run: &[u32]) -> Result<()> {
    for (i, &u) in run.iter().enumerate() {
        if u >= num_nodes {
            return Err(Error::corrupt(format!(
                "neighbour {u} of node {v} out of range"
            )));
        }
        if i > 0 && run[i - 1] >= u {
            return Err(Error::corrupt(format!(
                "adjacency list of node {v} not strictly sorted"
            )));
        }
    }
    Ok(())
}

/// Reinterpret raw little-endian frame bytes as a `u32` run without copying
/// when alignment allows, falling back to a decode into `scratch`.
fn borrow_or_decode<'a>(bytes: &'a [u8], scratch: &'a mut Vec<u32>) -> &'a [u32] {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: every bit pattern is a valid u32; align_to only yields a
        // non-empty prefix/suffix when the pointer or length is misaligned,
        // in which case we take the copy path below.
        let (prefix, mid, suffix) = unsafe { bytes.align_to::<u32>() };
        if prefix.is_empty() && suffix.is_empty() {
            return mid;
        }
    }
    scratch.clear();
    scratch.extend(bytes.chunks_exact(4).map(|c| {
        let mut b = [0u8; 4];
        b.copy_from_slice(c);
        u32::from_le_bytes(b)
    }));
    scratch
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::{write_mem_graph, write_mem_graph_with};
    use crate::io::DEFAULT_BLOCK_SIZE;
    use crate::memgraph::MemGraph;
    use crate::tempdir::TempDir;

    fn sample() -> MemGraph {
        MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], 6)
    }

    fn on_disk(g: &MemGraph) -> (TempDir, DiskGraph) {
        let dir = TempDir::new("graphtest").unwrap();
        let base = dir.path().join("g");
        let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
        write_mem_graph(&base, g, counter.clone()).unwrap();
        let dg = DiskGraph::open(&base, counter).unwrap();
        (dir, dg)
    }

    #[test]
    fn metadata_matches_source() {
        let g = sample();
        let (_dir, dg) = on_disk(&g);
        assert_eq!(dg.num_nodes(), 6);
        assert_eq!(dg.num_edges(), 5);
        assert_eq!(dg.degree_sum(), 10);
    }

    #[test]
    fn adjacency_round_trips() {
        let g = sample();
        let (_dir, mut dg) = on_disk(&g);
        let mut buf = Vec::new();
        for v in 0..g.num_nodes() {
            dg.adjacency(v, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), g.neighbors(v), "node {v}");
        }
    }

    #[test]
    fn degrees_round_trip() {
        let g = sample();
        let (_dir, mut dg) = on_disk(&g);
        assert_eq!(dg.read_degrees().unwrap(), g.degrees());
    }

    #[test]
    fn out_of_range_node_rejected() {
        let (_dir, mut dg) = on_disk(&sample());
        let mut buf = Vec::new();
        assert!(matches!(
            dg.adjacency(100, &mut buf),
            Err(Error::NodeOutOfRange { node: 100, .. })
        ));
    }

    #[test]
    fn truncated_edge_file_detected_at_open() {
        let g = sample();
        let dir = TempDir::new("graphtest").unwrap();
        let base = dir.path().join("g");
        let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
        write_mem_graph(&base, &g, counter.clone()).unwrap();
        let paths = GraphPaths::from_base(&base);
        let len = std::fs::metadata(&paths.edges).unwrap().len();
        let f = std::fs::OpenOptions::new()
            .write(true)
            .open(&paths.edges)
            .unwrap();
        f.set_len(len - 4).unwrap();
        let err = DiskGraph::open(&base, counter).unwrap_err();
        assert!(err.is_corrupt());
    }

    #[test]
    fn corrupted_entry_detected_on_access() {
        let g = sample();
        let dir = TempDir::new("graphtest").unwrap();
        let base = dir.path().join("g");
        let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
        write_mem_graph_with(&base, &g, counter.clone(), FormatVersion::V1).unwrap();
        let paths = GraphPaths::from_base(&base);
        // Stamp a bogus offset into node 1's entry.
        let mut bytes = std::fs::read(&paths.nodes).unwrap();
        let at = format::NODE_HEADER_LEN_V1 as usize + format::NODE_ENTRY_LEN as usize;
        crate::codec::put_u64(&mut bytes, at, 1 << 40);
        std::fs::write(&paths.nodes, &bytes).unwrap();
        let mut dg = DiskGraph::open(&base, counter).unwrap();
        let mut buf = Vec::new();
        assert!(dg.adjacency(1, &mut buf).unwrap_err().is_corrupt());
    }

    #[test]
    fn pooled_charge_is_contention_independent() {
        use crate::pool::SharedPool;

        // Two graphs spanning many 512 B blocks.
        let n = 2000u32;
        let g = MemGraph::from_edges((0..n).map(|i| (i, (i + 1) % n)), n);
        let h = MemGraph::from_edges((0..n).map(|i| (i, (i + 7) % n)), n);
        let dir = TempDir::new("pooledtest").unwrap();
        let block = 512usize;
        write_mem_graph(&dir.path().join("g"), &g, IoCounter::new(block)).unwrap();
        write_mem_graph(&dir.path().join("h"), &h, IoCounter::new(block)).unwrap();

        // The workload: two full ascending adjacency sweeps (the second is
        // re-read traffic a private budget would absorb).
        let sweep = |dg: &mut DiskGraph| {
            let mut buf = Vec::new();
            for _ in 0..2 {
                for v in 0..n {
                    dg.adjacency(v, &mut buf).unwrap();
                }
            }
        };
        let charge_budget = 1 << 20; // absorbs either graph's working set

        // Solo: g alone on a tight 8-frame pool.
        let pool = SharedPool::new(block, 8 * block as u64).unwrap();
        let counter = IoCounter::new(block);
        let mut dg =
            DiskGraph::open_pooled(&dir.path().join("g"), counter.clone(), &pool, charge_budget)
                .unwrap();
        sweep(&mut dg);
        let solo = counter.snapshot();

        // Contended: same tight pool, but h's sweep interleaves per node.
        let pool = SharedPool::new(block, 8 * block as u64).unwrap();
        let counter = IoCounter::new(block);
        let mut dg =
            DiskGraph::open_pooled(&dir.path().join("g"), counter.clone(), &pool, charge_budget)
                .unwrap();
        let mut dh = DiskGraph::open_pooled(
            &dir.path().join("h"),
            IoCounter::new(block),
            &pool,
            charge_budget,
        )
        .unwrap();
        let mut buf = Vec::new();
        for _ in 0..2 {
            for v in 0..n {
                dg.adjacency(v, &mut buf).unwrap();
                dh.adjacency(v, &mut buf).unwrap();
            }
        }
        let shared = counter.snapshot();

        assert_eq!(
            solo.read_ios, shared.read_ios,
            "charged reads must not see the neighbour's traffic"
        );
        assert!(
            shared.physical_reads > solo.physical_reads,
            "interleaved traffic on a thrashing pool must cost extra physical \
             fetches (solo {}, shared {})",
            solo.physical_reads,
            shared.physical_reads
        );
        // With a working-set charge budget, the second sweep charges
        // nothing: charged = distinct blocks touched.
        let distinct = (dg.meta().node_file_len().div_ceil(block as u64) + 1)
            + (dg.meta().edge_file_len().div_ceil(block as u64) + 1);
        assert!(
            solo.read_ios <= distinct,
            "charged {} exceeds distinct-block bound {}",
            solo.read_ios,
            distinct
        );
        // The pool itself never exceeded its 8-frame budget.
        assert!(pool.resident_bytes() <= pool.budget_bytes());
        assert!(pool.resident_frames() <= 8);
    }

    #[test]
    fn pooled_open_rejects_block_size_mismatch() {
        use crate::pool::SharedPool;
        let g = sample();
        let dir = TempDir::new("pooledtest").unwrap();
        let base = dir.path().join("g");
        write_mem_graph(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        let pool = SharedPool::new(1024, 64 * 1024).unwrap();
        let err = DiskGraph::open_pooled(&base, IoCounter::new(4096), &pool, 0).unwrap_err();
        assert!(matches!(err, Error::InvalidArgument(_)));
    }

    #[test]
    fn dropping_a_pooled_graph_frees_its_frames() {
        use crate::pool::SharedPool;
        let g = sample();
        let dir = TempDir::new("pooledtest").unwrap();
        let base = dir.path().join("g");
        write_mem_graph(&base, &g, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        let pool = SharedPool::new(DEFAULT_BLOCK_SIZE, 1 << 20).unwrap();
        let mut dg =
            DiskGraph::open_pooled(&base, IoCounter::new(DEFAULT_BLOCK_SIZE), &pool, 1 << 20)
                .unwrap();
        let mut buf = Vec::new();
        dg.adjacency(0, &mut buf).unwrap();
        assert!(pool.resident_frames() > 0);
        assert_eq!(pool.registered_graphs(), 1);
        drop(dg);
        assert_eq!(pool.resident_frames(), 0);
        assert_eq!(pool.registered_graphs(), 0);
    }

    #[test]
    fn sequential_scan_io_is_linear() {
        // A graph big enough to span many blocks.
        let n = 20_000u32;
        let g = MemGraph::from_edges((0..n).map(|i| (i, (i + 1) % n)), n);
        let dir = TempDir::new("graphtest").unwrap();
        let base = dir.path().join("g");
        let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
        write_mem_graph(&base, &g, counter.clone()).unwrap();
        let mut dg = DiskGraph::open(&base, counter.clone()).unwrap();
        let mut buf = Vec::new();
        for v in 0..n {
            dg.adjacency(v, &mut buf).unwrap();
        }
        let snap = counter.snapshot();
        let expected =
            (dg.meta().node_file_len() + dg.meta().edge_file_len()) / DEFAULT_BLOCK_SIZE as u64;
        // One full pass over both tables: within a couple of blocks of ideal.
        assert!(
            snap.read_ios <= expected + 4,
            "read_ios {} vs expected {}",
            snap.read_ios,
            expected
        );
    }
}
