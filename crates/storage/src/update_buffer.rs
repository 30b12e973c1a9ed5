//! Dynamic graph support: an in-memory edge update buffer over a disk graph.
//!
//! §V "Graph Maintenance" of the paper: *"we allow a memory buffer to
//! maintain the latest inserted / deleted edges. We also index the edges in
//! the memory buffer. When the buffer is full, we update the graph on disk
//! and clear the buffer. Each time when we load `nbr(v)` from disk, we also
//! need to obtain the inserted / deleted edges for `v` from the memory buffer
//! and use them to compute the updated `nbr(v)`."*
//!
//! [`UpdateBuffer`] is that buffer; [`BufferedGraph`] pairs it with a
//! [`DiskGraph`] and exposes the merged view through
//! [`AdjacencyRead`], so every maintenance algorithm sees the up-to-date
//! graph while paying disk I/O only for the base adjacency lists.

use std::collections::HashMap;
use std::path::{Path, PathBuf};

use crate::access::AdjacencyRead;
use crate::builder::DiskGraphWriter;
use crate::error::{Error, Result};
use crate::format::{FormatVersion, GraphPaths};
use crate::graph::DiskGraph;
use crate::io::IoSnapshot;

/// Pending edits for one node: sorted inserted and deleted neighbour ids.
#[derive(Debug, Default, Clone)]
struct NodeEdits {
    ins: Vec<u32>,
    del: Vec<u32>,
}

impl NodeEdits {
    fn is_empty(&self) -> bool {
        self.ins.is_empty() && self.del.is_empty()
    }

    fn len(&self) -> usize {
        self.ins.len() + self.del.len()
    }
}

/// Indexed buffer of not-yet-flushed edge insertions and deletions.
#[derive(Debug, Default)]
pub struct UpdateBuffer {
    per_node: HashMap<u32, NodeEdits>,
    entries: usize,
}

/// Insert `x` into the sorted vec if absent; returns true when inserted.
fn sorted_insert(v: &mut Vec<u32>, x: u32) -> bool {
    match v.binary_search(&x) {
        Ok(_) => false,
        Err(i) => {
            v.insert(i, x);
            true
        }
    }
}

/// Remove `x` from the sorted vec if present; returns true when removed.
fn sorted_remove(v: &mut Vec<u32>, x: u32) -> bool {
    match v.binary_search(&x) {
        Ok(i) => {
            v.remove(i);
            true
        }
        Err(_) => false,
    }
}

impl UpdateBuffer {
    /// An empty buffer.
    pub fn new() -> Self {
        UpdateBuffer::default()
    }

    /// A buffer holding exactly `edits` — undirected net edits `(u, v,
    /// inserted)` as [`UpdateBuffer::net_edits`] emits them.
    pub fn from_net_edits(edits: &[(u32, u32, bool)]) -> Self {
        let mut buffer = UpdateBuffer::new();
        for &(u, v, inserted) in edits {
            if inserted {
                buffer.record_insert(u, v);
            } else {
                buffer.record_delete(u, v);
            }
        }
        buffer
    }

    /// Net degree-sum change the buffer makes to its base tables.
    fn degree_sum_delta(&self) -> i64 {
        self.per_node.keys().map(|&v| self.degree_delta(v)).sum()
    }

    /// Number of (node, neighbour) edit entries held (each undirected edge
    /// contributes two).
    pub fn len(&self) -> usize {
        self.entries
    }

    /// True when no edits are pending.
    pub fn is_empty(&self) -> bool {
        self.entries == 0
    }

    fn edit_one(&mut self, node: u32, nbr: u32, insert: bool) {
        let edits = self.per_node.entry(node).or_default();
        let before = edits.len();
        if insert {
            // An insert cancels a pending delete of the same edge.
            if !sorted_remove(&mut edits.del, nbr) {
                sorted_insert(&mut edits.ins, nbr);
            }
        } else if !sorted_remove(&mut edits.ins, nbr) {
            sorted_insert(&mut edits.del, nbr);
        }
        let after = edits.len();
        if after >= before {
            self.entries += after - before;
        } else {
            self.entries -= before - after;
        }
        if edits.is_empty() {
            self.per_node.remove(&node);
        }
    }

    /// Record insertion of undirected edge `(u, v)`.
    ///
    /// The caller guarantees the edge is not already present in the merged
    /// view (checked variants live on [`BufferedGraph`]).
    pub fn record_insert(&mut self, u: u32, v: u32) {
        self.edit_one(u, v, true);
        self.edit_one(v, u, true);
    }

    /// Record deletion of undirected edge `(u, v)` (present in merged view).
    pub fn record_delete(&mut self, u: u32, v: u32) {
        self.edit_one(u, v, false);
        self.edit_one(v, u, false);
    }

    /// True when `v` has pending inserted or deleted neighbours.
    pub fn has_edits(&self, v: u32) -> bool {
        self.per_node.contains_key(&v)
    }

    /// Net degree change for `v` relative to the on-disk graph.
    pub fn degree_delta(&self, v: u32) -> i64 {
        match self.per_node.get(&v) {
            None => 0,
            Some(e) => e.ins.len() as i64 - e.del.len() as i64,
        }
    }

    /// Merge the base (sorted) adjacency of `v` with pending edits into
    /// `out` (cleared first), keeping sort order.
    pub fn apply(&self, v: u32, base: &[u32], out: &mut Vec<u32>) {
        out.clear();
        match self.per_node.get(&v) {
            None => out.extend_from_slice(base),
            Some(e) => {
                // Merge base \ del with ins; both inputs sorted.
                let mut bi = 0usize;
                let mut ii = 0usize;
                while bi < base.len() || ii < e.ins.len() {
                    let take_base = match (base.get(bi), e.ins.get(ii)) {
                        (Some(&b), Some(&i)) => b <= i,
                        (Some(_), None) => true,
                        (None, Some(_)) => false,
                        (None, None) => unreachable!(),
                    };
                    if take_base {
                        let b = base[bi];
                        bi += 1;
                        if e.del.binary_search(&b).is_err() {
                            // Defensive dedup: skip if equal to the pending
                            // insert about to be emitted.
                            if e.ins.get(ii) == Some(&b) {
                                ii += 1;
                            }
                            out.push(b);
                        }
                    } else {
                        out.push(e.ins[ii]);
                        ii += 1;
                    }
                }
            }
        }
    }

    /// The buffer's net content as undirected edge edits `(u, v, inserted)`
    /// with `u < v`, sorted — the canonical serialization checkpoints
    /// persist. Each undirected edit is stored twice internally (once per
    /// endpoint); this emits it once.
    pub fn net_edits(&self) -> Vec<(u32, u32, bool)> {
        let mut out = Vec::with_capacity(self.entries / 2);
        for (&u, edits) in &self.per_node {
            for &v in &edits.ins {
                if u < v {
                    out.push((u, v, true));
                }
            }
            for &v in &edits.del {
                if u < v {
                    out.push((u, v, false));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Drop all pending edits.
    pub fn clear(&mut self) {
        self.per_node.clear();
        self.entries = 0;
    }

    /// Approximate resident bytes (for memory reporting).
    pub fn resident_bytes(&self) -> u64 {
        let per_entry = std::mem::size_of::<u32>() as u64;
        let map_overhead = (self.per_node.len()
            * (std::mem::size_of::<u32>() + std::mem::size_of::<NodeEdits>() + 16))
            as u64;
        self.entries as u64 * per_entry + map_overhead
    }
}

/// A disk graph plus pending updates, presenting the merged view.
#[derive(Debug)]
pub struct BufferedGraph {
    disk: DiskGraph,
    buffer: UpdateBuffer,
    /// Flush once the buffer holds this many edit entries.
    capacity: usize,
    /// Net degree-sum change not yet flushed.
    degree_sum_delta: i64,
    /// Number of flushes performed (observable for tests/benches).
    flushes: u64,
    scratch: Vec<u32>,
    /// Second reusable buffer for the borrowed-visit merge path.
    merge_scratch: Vec<u32>,
}

/// Default edit-entry capacity of the in-memory buffer.
pub const DEFAULT_BUFFER_CAPACITY: usize = 1 << 20;

/// Write `source`'s tables with `edits` folded in — the merged view — into
/// a fresh, fully fsynced v3 table pair at `target_base`, whatever the
/// source's encoding (the merge works on decoded lists, so it reads
/// either). The source files are left untouched: the caller owns the
/// commit (a flush renames over the source; a generational compaction
/// publishes the new base through the catalog instead). `before_node`
/// runs ahead of each node's list. Returns the new pair's paths.
pub fn rewrite_tables(
    source: &mut DiskGraph,
    edits: &UpdateBuffer,
    target_base: &Path,
    mut before_node: impl FnMut(u32),
) -> Result<GraphPaths> {
    let n = source.num_nodes();
    let counter = source.counter().clone();
    let mut writer =
        DiskGraphWriter::create_with_format(target_base, n, counter, FormatVersion::V3)?;
    let mut base = Vec::new();
    let mut merged = Vec::new();
    for v in 0..n {
        before_node(v);
        source.adjacency(v, &mut base)?;
        edits.apply(v, &base, &mut merged);
        writer.append_adjacency(v, &merged)?;
    }
    writer.finish()
}

/// Rebase live net edits onto tables that already hold `folded`: the
/// edits a buffer over the new tables must hold so that its merged view
/// is the live one. Both inputs are net edits against the *same* old
/// tables, sorted as [`UpdateBuffer::net_edits`] emits them; so is the
/// output. A pair in both lists whose direction agrees is in the new
/// tables already and drops out; a pair only in `live` is kept as it is;
/// a pair only in `folded` was undone after the fold froze it, so it
/// comes back inverted. `O(|live| + |folded|)`, no I/O.
pub fn rebase_edits(
    live: &[(u32, u32, bool)],
    folded: &[(u32, u32, bool)],
) -> Vec<(u32, u32, bool)> {
    let mut out = Vec::with_capacity(live.len());
    let (mut i, mut j) = (0, 0);
    loop {
        match (live.get(i), folded.get(j)) {
            (Some(&a), Some(&b)) if (a.0, a.1) == (b.0, b.1) => {
                if a.2 != b.2 {
                    out.push(a);
                }
                i += 1;
                j += 1;
            }
            (Some(&a), Some(&b)) if (a.0, a.1) < (b.0, b.1) => {
                out.push(a);
                i += 1;
            }
            (Some(&a), None) => {
                out.push(a);
                i += 1;
            }
            (_, Some(&(u, v, inserted))) => {
                out.push((u, v, !inserted));
                j += 1;
            }
            (None, None) => return out,
        }
    }
}

/// The temp base path a flush rewrite of `paths` goes through before the
/// rename: the node table path with `.rewrite` appended. The writer then
/// materialises `<temp base>.nodes` / `<temp base>.edges` — see
/// [`rewrite_temp_paths`] for the concrete pair a crashed flush leaves
/// behind.
pub fn rewrite_temp_base(paths: &GraphPaths) -> PathBuf {
    let mut s = paths.nodes.as_os_str().to_owned();
    s.push(".rewrite");
    PathBuf::from(s)
}

/// The concrete temp file pair a flush of `paths` writes (and a crashed
/// flush strands): the [`rewrite_temp_base`] expanded to its node/edge
/// tables. `fsck` scans for these; [`BufferedGraph::clean_stale_temps`]
/// removes them.
pub fn rewrite_temp_paths(paths: &GraphPaths) -> GraphPaths {
    GraphPaths::from_base(&rewrite_temp_base(paths))
}

impl BufferedGraph {
    /// Wrap `disk` with an update buffer of the given capacity (edit entries).
    pub fn new(disk: DiskGraph, capacity: usize) -> Self {
        BufferedGraph {
            disk,
            buffer: UpdateBuffer::new(),
            capacity: capacity.max(2),
            degree_sum_delta: 0,
            flushes: 0,
            scratch: Vec::new(),
            merge_scratch: Vec::new(),
        }
    }

    /// Wrap with [`DEFAULT_BUFFER_CAPACITY`].
    pub fn with_default_capacity(disk: DiskGraph) -> Self {
        Self::new(disk, DEFAULT_BUFFER_CAPACITY)
    }

    /// The underlying disk graph.
    pub fn disk(&self) -> &DiskGraph {
        &self.disk
    }

    /// Number of buffer flushes performed so far.
    pub fn flushes(&self) -> u64 {
        self.flushes
    }

    /// Pending edit entries.
    pub fn pending_edits(&self) -> usize {
        self.buffer.len()
    }

    /// The buffer's net content as sorted undirected edits `(u, v,
    /// inserted)` with `u < v` — what a durability checkpoint persists and
    /// re-plays through [`BufferedGraph::insert_edge`] /
    /// [`BufferedGraph::delete_edge`] on recovery.
    pub fn pending_net_edits(&self) -> Vec<(u32, u32, bool)> {
        self.buffer.net_edits()
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

    /// True when `(u, v)` exists in the merged view (costs one adjacency read).
    pub fn has_edge(&mut self, u: u32, v: u32) -> Result<bool> {
        self.check_pair(u, v)?;
        let mut merged = Vec::new();
        self.adjacency(u, &mut merged)?;
        Ok(merged.binary_search(&v).is_ok())
    }

    /// Insert `(u, v)`, which must not already exist (unchecked for I/O
    /// economy — use [`BufferedGraph::has_edge`] first when unsure).
    /// Flushes to disk when the buffer is full.
    pub fn insert_edge(&mut self, u: u32, v: u32) -> Result<()> {
        self.check_pair(u, v)?;
        self.buffer.record_insert(u, v);
        self.degree_sum_delta += 2;
        self.maybe_flush()
    }

    /// Delete `(u, v)`, which must exist in the merged view.
    pub fn delete_edge(&mut self, u: u32, v: u32) -> Result<()> {
        self.check_pair(u, v)?;
        self.buffer.record_delete(u, v);
        self.degree_sum_delta -= 2;
        self.maybe_flush()
    }

    /// [`BufferedGraph::insert_edge`] with the precondition enforced:
    /// inserting an edge already present in the merged view is rejected
    /// with [`Error::InvalidArgument`] *before* any state changes, instead
    /// of silently double-counting `degree_sum_delta` the way the unchecked
    /// variant (documented as such) would. Costs one extra adjacency read —
    /// the price the durable serving path pays for never drifting.
    pub fn insert_edge_checked(&mut self, u: u32, v: u32) -> Result<()> {
        if self.has_edge(u, v)? {
            return Err(Error::InvalidArgument(format!(
                "edge ({u}, {v}) already exists"
            )));
        }
        self.insert_edge(u, v)
    }

    /// [`BufferedGraph::delete_edge`] with the precondition enforced:
    /// deleting an edge absent from the merged view is rejected with
    /// [`Error::InvalidArgument`] before any state changes (the unchecked
    /// variant would under-count `degree_sum_delta` and strand a phantom
    /// delete in the buffer). Costs one extra adjacency read.
    pub fn delete_edge_checked(&mut self, u: u32, v: u32) -> Result<()> {
        if !self.has_edge(u, v)? {
            return Err(Error::InvalidArgument(format!(
                "edge ({u}, {v}) does not exist"
            )));
        }
        self.delete_edge(u, v)
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.buffer.len() >= self.capacity {
            self.flush()?;
        }
        Ok(())
    }

    /// Apply all pending edits to the on-disk graph: sequentially rewrite the
    /// node and edge tables (as v3, charged as write I/Os — a v1 graph
    /// becomes v3 here), atomically replace the files, and clear the buffer.
    ///
    /// Any stale temp pair a crashed prior flush stranded at the
    /// [`rewrite_temp_paths`] location is removed first, so the rewrite
    /// never collides with (or is confused by) leftover bytes.
    pub fn flush(&mut self) -> Result<()> {
        if self.buffer.is_empty() {
            return Ok(());
        }
        self.clean_stale_temps()?;
        let paths = self.disk.paths().clone();
        let tmp_base = rewrite_temp_base(&paths);
        let new_paths = self.rewrite_to(&tmp_base)?;
        let vfs = self.disk.counter().vfs().clone();
        vfs.rename(&new_paths.nodes, &paths.nodes)?;
        vfs.rename(&new_paths.edges, &paths.edges)?;
        // The renamed entries must survive a crash just like the bytes.
        crate::io::sync_parent_dir(vfs.as_ref(), &paths.nodes)?;
        self.disk.reopen()?;
        self.disk.invalidate_buffers();
        self.buffer.clear();
        self.degree_sum_delta = 0;
        self.flushes += 1;
        Ok(())
    }

    /// [`rewrite_tables`] of this graph's tables and every pending edit:
    /// the merged view as a fresh v3 pair at `target_base`. The live graph
    /// and its buffer are left untouched. Returns the new pair's paths.
    pub fn rewrite_to(&mut self, target_base: &Path) -> Result<GraphPaths> {
        rewrite_tables(&mut self.disk, &self.buffer, target_base, |_| {})
    }

    /// Move onto `disk` — new tables of the same graph — behind a buffer
    /// holding exactly `pending`, net edits against `disk` (see
    /// [`rebase_edits`]). The capacity and flush count carry over.
    pub fn adopt(&mut self, disk: DiskGraph, pending: &[(u32, u32, bool)]) {
        self.buffer = UpdateBuffer::from_net_edits(pending);
        self.degree_sum_delta = self.buffer.degree_sum_delta();
        self.disk = disk;
    }

    /// Remove any stale flush temp files left at [`rewrite_temp_paths`] by
    /// a crash between a prior flush's writes and its renames. Returns how
    /// many files were removed. Removal is plain unlink work — no sync
    /// points — so calling this at open adds no crash windows.
    pub fn clean_stale_temps(&mut self) -> Result<usize> {
        let tmp = rewrite_temp_paths(self.disk.paths());
        let vfs = self.disk.counter().vfs().clone();
        let mut removed = 0;
        for p in [&tmp.nodes, &tmp.edges] {
            if p.exists() {
                vfs.remove_file(p)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Resident bytes of the buffer (the only O(updates) memory held).
    pub fn buffer_bytes(&self) -> u64 {
        self.buffer.resident_bytes()
    }
}

impl AdjacencyRead for BufferedGraph {
    fn num_nodes(&self) -> u32 {
        self.disk.num_nodes()
    }

    fn degree_sum(&self) -> u64 {
        (self.disk.degree_sum() as i64 + self.degree_sum_delta) as u64
    }

    fn read_degrees(&mut self) -> Result<Vec<u32>> {
        let mut degrees = self.disk.read_degrees()?;
        for (v, d) in degrees.iter_mut().enumerate() {
            let delta = self.buffer.degree_delta(v as u32);
            *d = (*d as i64 + delta).max(0) as u32;
        }
        Ok(degrees)
    }

    fn adjacency(&mut self, v: u32, buf: &mut Vec<u32>) -> Result<()> {
        let mut scratch = std::mem::take(&mut self.scratch);
        let res = self.disk.adjacency(v, &mut scratch);
        if res.is_ok() {
            self.buffer.apply(v, &scratch, buf);
        }
        self.scratch = scratch;
        res
    }

    fn with_adjacency<R>(&mut self, v: u32, f: impl FnOnce(&[u32]) -> R) -> Result<R> {
        if !self.buffer.has_edits(v) {
            // No pending edits: expose the disk adjacency without merging —
            // the common case pays zero extra copies.
            return self.disk.with_adjacency(v, f);
        }
        let mut base = std::mem::take(&mut self.scratch);
        let mut merged = std::mem::take(&mut self.merge_scratch);
        let res = self.disk.adjacency(v, &mut base);
        let out = res.map(|()| {
            self.buffer.apply(v, &base, &mut merged);
            f(&merged)
        });
        self.scratch = base;
        self.merge_scratch = merged;
        out
    }

    fn io(&self) -> IoSnapshot {
        self.disk.io()
    }

    fn block_size(&self) -> usize {
        self.disk.block_size()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::mem_to_disk;
    use crate::io::{IoCounter, DEFAULT_BLOCK_SIZE};
    use crate::memgraph::{DynGraph, MemGraph};
    use crate::tempdir::TempDir;

    fn setup(capacity: usize) -> (TempDir, BufferedGraph, DynGraph) {
        let g = MemGraph::from_edges([(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], 6);
        let dir = TempDir::new("buftest").unwrap();
        let disk = mem_to_disk(
            &dir.path().join("g"),
            &g,
            IoCounter::new(DEFAULT_BLOCK_SIZE),
        )
        .unwrap();
        let mirror = DynGraph::from_mem(&g);
        (dir, BufferedGraph::new(disk, capacity), mirror)
    }

    fn assert_same_view(bg: &mut BufferedGraph, mirror: &DynGraph) {
        let mut buf = Vec::new();
        for v in 0..bg.num_nodes() {
            bg.adjacency(v, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), mirror.neighbors(v), "node {v}");
        }
        assert_eq!(bg.degree_sum(), mirror.num_edges() * 2);
        assert_eq!(
            bg.read_degrees().unwrap(),
            (0..mirror.num_nodes())
                .map(|v| mirror.degree(v))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn buffer_merges_inserts_and_deletes() {
        let (_d, mut bg, mut mirror) = setup(1 << 20);
        bg.insert_edge(4, 5).unwrap();
        mirror.insert_edge(4, 5).unwrap();
        bg.delete_edge(0, 1).unwrap();
        mirror.delete_edge(0, 1).unwrap();
        bg.insert_edge(0, 5).unwrap();
        mirror.insert_edge(0, 5).unwrap();
        assert_eq!(bg.flushes(), 0);
        assert_same_view(&mut bg, &mirror);
    }

    #[test]
    fn delete_then_reinsert_cancels() {
        let (_d, mut bg, mirror) = setup(1 << 20);
        bg.delete_edge(0, 1).unwrap();
        bg.insert_edge(0, 1).unwrap();
        assert_eq!(bg.pending_edits(), 0);
        let mut bg = bg;
        assert_same_view(&mut bg, &mirror);
    }

    #[test]
    fn flush_rewrites_disk_and_preserves_view() {
        let (_d, mut bg, mut mirror) = setup(1 << 20);
        bg.insert_edge(4, 5).unwrap();
        mirror.insert_edge(4, 5).unwrap();
        bg.delete_edge(2, 3).unwrap();
        mirror.delete_edge(2, 3).unwrap();
        let writes_before = bg.io().write_ios;
        bg.flush().unwrap();
        assert!(
            bg.io().write_ios > writes_before,
            "flush must cost write I/Os"
        );
        assert_eq!(bg.pending_edits(), 0);
        assert_eq!(bg.flushes(), 1);
        assert_same_view(&mut bg, &mirror);
    }

    #[test]
    fn auto_flush_when_capacity_reached() {
        let (_d, mut bg, mut mirror) = setup(4);
        bg.insert_edge(0, 4).unwrap(); // 2 entries
        mirror.insert_edge(0, 4).unwrap();
        assert_eq!(bg.flushes(), 0);
        bg.insert_edge(1, 5).unwrap(); // 4 entries -> flush
        mirror.insert_edge(1, 5).unwrap();
        assert_eq!(bg.flushes(), 1);
        assert_same_view(&mut bg, &mirror);
    }

    #[test]
    fn has_edge_sees_merged_view() {
        let (_d, mut bg, _m) = setup(1 << 20);
        assert!(bg.has_edge(0, 1).unwrap());
        bg.delete_edge(0, 1).unwrap();
        assert!(!bg.has_edge(0, 1).unwrap());
        bg.insert_edge(4, 5).unwrap();
        assert!(bg.has_edge(5, 4).unwrap());
    }

    #[test]
    fn rejects_invalid_pairs() {
        let (_d, mut bg, _m) = setup(1 << 20);
        assert!(bg.insert_edge(0, 0).is_err());
        assert!(bg.insert_edge(0, 99).is_err());
        assert!(bg.delete_edge(99, 0).is_err());
    }

    #[test]
    fn randomised_update_stream_matches_mirror() {
        let (_d, mut bg, mut mirror) = setup(8);
        // Deterministic pseudo-random stream of toggles.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut next = || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state
        };
        for _ in 0..300 {
            let u = (next() % 6) as u32;
            let v = (next() % 6) as u32;
            if u == v {
                continue;
            }
            if mirror.has_edge(u, v) {
                mirror.delete_edge(u, v).unwrap();
                bg.delete_edge(u, v).unwrap();
            } else {
                mirror.insert_edge(u, v).unwrap();
                bg.insert_edge(u, v).unwrap();
            }
        }
        assert!(bg.flushes() > 0, "stream should have forced flushes");
        assert_same_view(&mut bg, &mirror);
    }

    #[test]
    fn checked_mutations_reject_instead_of_drifting() {
        let (_d, mut bg, _m) = setup(1 << 20);
        let before = bg.degree_sum();
        // (0, 1) exists on disk; (0, 3) does not.
        assert!(matches!(
            bg.insert_edge_checked(0, 1),
            Err(Error::InvalidArgument(_))
        ));
        assert!(matches!(
            bg.delete_edge_checked(0, 3),
            Err(Error::InvalidArgument(_))
        ));
        // Rejected ops leave no trace: no pending edits, no delta drift.
        assert_eq!(bg.pending_edits(), 0);
        assert_eq!(bg.degree_sum(), before);
        // The happy path still mutates.
        bg.insert_edge_checked(0, 3).unwrap();
        bg.delete_edge_checked(0, 1).unwrap();
        assert!(bg.has_edge(0, 3).unwrap());
        assert!(!bg.has_edge(0, 1).unwrap());
        assert_eq!(bg.degree_sum(), before);
    }

    #[test]
    fn stale_rewrite_temps_are_cleaned_before_flush() {
        let (_d, mut bg, mut mirror) = setup(1 << 20);
        // Strand a fake temp pair the way a crashed flush would.
        let tmp = rewrite_temp_paths(bg.disk().paths());
        std::fs::write(&tmp.nodes, b"stale").unwrap();
        std::fs::write(&tmp.edges, b"stale").unwrap();
        assert_eq!(bg.clean_stale_temps().unwrap(), 2);
        assert!(!tmp.nodes.exists() && !tmp.edges.exists());
        // And a flush over freshly stranded temps succeeds end to end.
        std::fs::write(&tmp.nodes, b"stale").unwrap();
        bg.insert_edge(4, 5).unwrap();
        mirror.insert_edge(4, 5).unwrap();
        bg.flush().unwrap();
        assert!(!tmp.nodes.exists(), "flush must consume the stale temp");
        assert_same_view(&mut bg, &mirror);
    }

    #[test]
    fn rewrite_to_writes_merged_view_and_leaves_source_untouched() {
        let (dir, mut bg, mut mirror) = setup(1 << 20);
        bg.insert_edge(4, 5).unwrap();
        mirror.insert_edge(4, 5).unwrap();
        bg.delete_edge(0, 1).unwrap();
        mirror.delete_edge(0, 1).unwrap();
        let target = dir.path().join("g.g1");
        let new_paths = bg.rewrite_to(&target).unwrap();
        // The source pair and the pending buffer are untouched.
        assert_eq!(bg.pending_edits(), 4);
        assert_same_view(&mut bg, &mirror);
        // The new pair holds the merged view, re-encoded as v3.
        let mut out =
            DiskGraph::open(&target, crate::io::IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        assert_eq!(out.format_version(), crate::format::FormatVersion::V3);
        assert_eq!(new_paths, GraphPaths::from_base(&target));
        let mut buf = Vec::new();
        for v in 0..out.num_nodes() {
            out.adjacency(v, &mut buf).unwrap();
            assert_eq!(buf.as_slice(), mirror.neighbors(v), "node {v}");
        }
    }

    #[test]
    fn rebase_keeps_the_live_view_over_the_folded_tables() {
        // Fold a frozen copy of the buffer into new tables while the live
        // buffer moves on, then adopt the new tables with the rebased
        // edits: the merged view must not change.
        let (dir, mut bg, mut mirror) = setup(1 << 20);
        let toggle = |bg: &mut BufferedGraph, mirror: &mut DynGraph, u: u32, v: u32| {
            if mirror.has_edge(u, v) {
                mirror.delete_edge(u, v).unwrap();
                bg.delete_edge(u, v).unwrap();
            } else {
                mirror.insert_edge(u, v).unwrap();
                bg.insert_edge(u, v).unwrap();
            }
        };
        // Edits the fold freezes: inserts and deletes, some undone later.
        for (u, v) in [(4, 5), (0, 1), (0, 5), (2, 3), (1, 4)] {
            toggle(&mut bg, &mut mirror, u, v);
        }
        let folded = bg.pending_net_edits();
        let target = dir.path().join("g.g1");
        let frozen = UpdateBuffer::from_net_edits(&folded);
        let mut source =
            DiskGraph::open(&dir.path().join("g"), bg.disk().counter().clone()).unwrap();
        let mut visited = 0;
        rewrite_tables(&mut source, &frozen, &target, |_| visited += 1).unwrap();
        assert_eq!(visited, bg.num_nodes());
        // Edits after the freeze: undo some folded ones, add fresh ones,
        // and redo one (a pair in both lists, same direction).
        for (u, v) in [(4, 5), (0, 1), (3, 5), (0, 1), (2, 4)] {
            toggle(&mut bg, &mut mirror, u, v);
        }
        let pending = rebase_edits(&bg.pending_net_edits(), &folded);
        let new_disk = DiskGraph::open(&target, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        bg.adopt(new_disk, &pending);
        assert_eq!(bg.pending_net_edits(), pending);
        assert_same_view(&mut bg, &mirror);
        // (0, 1) was deleted, restored, deleted again: folded, so gone.
        assert!(!pending.iter().any(|&(u, v, _)| (u, v) == (0, 1)));
        // (4, 5) was folded as an insert, then undone: a pending delete.
        assert!(pending.contains(&(4, 5, false)));
    }

    #[test]
    fn update_buffer_apply_handles_defensive_duplicate() {
        // Inserting an edge already on disk must not produce duplicates in
        // the merged view.
        let mut ub = UpdateBuffer::new();
        ub.record_insert(0, 2);
        let mut out = Vec::new();
        ub.apply(0, &[1, 2, 3], &mut out);
        assert_eq!(out, vec![1, 2, 3]);
    }
}
