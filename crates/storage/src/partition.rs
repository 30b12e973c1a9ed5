//! Partitioned disk storage — the substrate EMCore runs on.
//!
//! EMCore (Cheng et al., ICDE 2011; Algorithm 2 in the reproduced paper)
//! divides the graph into partitions on disk, loads whole partitions into
//! memory, removes finalised nodes and writes partitions back each round.
//! This module provides exactly that storage service: contiguous node-range
//! partitions, whole-partition loads (charged read I/Os) and rewrites
//! (charged write I/Os).
//!
//! Partition file format: `count: u32` then `count` records of
//! `v: u32, degree: u32, nbrs: u32 × degree`, all little-endian — the raw
//! layout the paper's EMCore measurements (Fig. 9) are priced in.

use std::path::PathBuf;
use std::sync::Arc;

use crate::access::AdjacencyRead;
use crate::codec;
use crate::error::{Error, Result};
use crate::io::{BlockReader, BlockWriter, IoCounter, IoSnapshot};
use crate::tempdir::TempDir;

/// Metadata of one partition (kept in memory; `O(#partitions)`).
#[derive(Debug, Clone)]
pub struct PartitionMeta {
    /// First node id in the partition's range.
    pub start: u32,
    /// One past the last node id.
    pub end: u32,
    /// Current file size in bytes (the load cost).
    pub bytes: u64,
    /// Nodes still stored (not yet removed).
    pub alive_nodes: u32,
    path: PathBuf,
}

/// A partition loaded into memory: the nodes it still stores with their
/// remaining adjacency lists.
#[derive(Debug, Clone)]
pub struct LoadedPartition {
    /// Index within the store.
    pub index: usize,
    /// `(node, neighbours)` records in ascending node order.
    pub entries: Vec<(u32, Vec<u32>)>,
}

impl LoadedPartition {
    /// Bytes this partition occupies in memory (EMCore's dominant memory
    /// cost, reported in the paper's Figure 9(c)/(d)).
    pub fn resident_bytes(&self) -> u64 {
        self.entries
            .iter()
            .map(|(_, l)| (l.len() * 4 + 8 + std::mem::size_of::<(u32, Vec<u32>)>()) as u64)
            .sum()
    }
}

/// A set of node-range partitions on disk.
#[derive(Debug)]
pub struct PartitionStore {
    _scratch: TempDir,
    counter: Arc<IoCounter>,
    parts: Vec<PartitionMeta>,
    num_nodes: u32,
}

impl PartitionStore {
    /// Partition `source` into ranges of roughly `target_bytes` each.
    ///
    /// The build pass reads `source` sequentially (charged to its counter)
    /// and writes every partition once (charged to `counter`).
    pub fn build(
        source: &mut impl AdjacencyRead,
        target_bytes: u64,
        counter: Arc<IoCounter>,
    ) -> Result<PartitionStore> {
        if target_bytes < 64 {
            return Err(Error::InvalidArgument(
                "partition target size must be at least 64 bytes".into(),
            ));
        }
        let scratch = TempDir::new("emcore-parts")?;
        let n = source.num_nodes();
        let mut parts = Vec::new();
        let mut buf = Vec::new();
        let mut cur: Vec<(u32, Vec<u32>)> = Vec::new();
        let mut cur_bytes = 0u64;
        let mut cur_start = 0u32;
        for v in 0..n {
            source.adjacency(v, &mut buf)?;
            let rec_bytes = 8 + 4 * buf.len() as u64;
            if cur_bytes + rec_bytes > target_bytes && !cur.is_empty() {
                let meta =
                    write_partition(scratch.path(), parts.len(), cur_start, v, &cur, &counter)?;
                parts.push(meta);
                cur.clear();
                cur_bytes = 0;
                cur_start = v;
            }
            cur.push((v, buf.clone()));
            cur_bytes += rec_bytes;
        }
        let meta = write_partition(scratch.path(), parts.len(), cur_start, n, &cur, &counter)?;
        parts.push(meta);
        Ok(PartitionStore {
            _scratch: scratch,
            counter,
            parts,
            num_nodes: n,
        })
    }

    /// Number of partitions.
    pub fn len(&self) -> usize {
        self.parts.len()
    }

    /// True when the store has no partitions (never happens after `build`).
    pub fn is_empty(&self) -> bool {
        self.parts.is_empty()
    }

    /// Number of nodes in the partitioned graph.
    pub fn num_nodes(&self) -> u32 {
        self.num_nodes
    }

    /// Metadata of partition `i`.
    pub fn meta(&self, i: usize) -> &PartitionMeta {
        &self.parts[i]
    }

    /// I/O snapshot of the store's counter.
    pub fn io(&self) -> IoSnapshot {
        self.counter.snapshot()
    }

    /// Load partition `i` entirely into memory (charged read I/Os).
    pub fn load(&self, i: usize) -> Result<LoadedPartition> {
        let meta = &self.parts[i];
        let mut reader = BlockReader::open(&meta.path, self.counter.clone())?;
        let len = reader.file_len();
        let mut bytes = vec![0u8; len as usize];
        reader.read_exact_at(0, &mut bytes)?;
        let count = codec::try_get_u32(&bytes, 0, "partition record count")? as usize;
        // Every record occupies at least 8 bytes; a larger count cannot come
        // from a well-formed file and must not drive an allocation.
        if count > bytes.len().saturating_sub(4) / 8 {
            return Err(Error::corrupt(format!(
                "partition record count {count} exceeds file size {}",
                bytes.len()
            )));
        }
        let mut entries = Vec::with_capacity(count);
        let mut at = 4usize;
        for _ in 0..count {
            let v = codec::try_get_u32(&bytes, at, "partition node id")?;
            let deg = codec::try_get_u32(&bytes, at + 4, "partition degree")? as usize;
            at += 8;
            let mut nbrs = Vec::with_capacity(deg);
            if bytes.len() < at + deg * 4 {
                return Err(Error::corrupt("partition record truncated"));
            }
            codec::decode_u32_run(&bytes[at..at + deg * 4], &mut nbrs)?;
            at += deg * 4;
            if v < meta.start || v >= meta.end {
                return Err(Error::corrupt(format!(
                    "partition {i} contains node {v} outside range [{}, {})",
                    meta.start, meta.end
                )));
            }
            entries.push((v, nbrs));
        }
        Ok(LoadedPartition { index: i, entries })
    }

    /// Replace partition `i`'s contents (charged write I/Os).
    pub fn rewrite(&mut self, i: usize, entries: &[(u32, Vec<u32>)]) -> Result<()> {
        let (start, end) = (self.parts[i].start, self.parts[i].end);
        for &(v, _) in entries {
            if v < start || v >= end {
                return Err(Error::InvalidArgument(format!(
                    "node {v} outside partition range [{start}, {end})"
                )));
            }
        }
        let dir = match self.parts[i].path.parent() {
            Some(d) => d,
            None => {
                return Err(Error::InvalidArgument(format!(
                    "partition path {:?} has no parent directory",
                    self.parts[i].path
                )))
            }
        };
        let tmp = dir.join(format!("part{i}.new"));
        let meta = write_partition_at(&tmp, start, end, entries, &self.counter)?;
        // The rename is only atomic-replace if the temp file's bytes are
        // durable first, and only durable itself once the directory entry
        // is synced — same protocol as `catalog::write_atomically` and
        // `update_buffer::flush` (this used to skip both fsyncs, so a
        // crash could tear or lose the freshly rewritten partition).
        let vfs = self.counter.vfs().clone();
        vfs.rename(&tmp, &self.parts[i].path)?;
        crate::io::sync_parent_dir(vfs.as_ref(), &self.parts[i].path)?;
        self.parts[i].bytes = meta.bytes;
        self.parts[i].alive_nodes = meta.alive_nodes;
        Ok(())
    }
}

fn write_partition(
    dir: &std::path::Path,
    index: usize,
    start: u32,
    end: u32,
    entries: &[(u32, Vec<u32>)],
    counter: &Arc<IoCounter>,
) -> Result<PartitionMeta> {
    let path = dir.join(format!("part{index}.bin"));
    write_partition_at(&path, start, end, entries, counter)
}

fn write_partition_at(
    path: &std::path::Path,
    start: u32,
    end: u32,
    entries: &[(u32, Vec<u32>)],
    counter: &Arc<IoCounter>,
) -> Result<PartitionMeta> {
    let mut w = BlockWriter::create(path, counter.clone())?;
    let mut head = [0u8; 4];
    codec::put_u32(&mut head, 0, entries.len() as u32);
    w.write_all(&head)?;
    let mut rec = Vec::new();
    for (v, nbrs) in entries {
        rec.clear();
        rec.resize(8, 0);
        codec::put_u32(&mut rec, 0, *v);
        codec::put_u32(&mut rec, 4, nbrs.len() as u32);
        codec::encode_u32_run(nbrs, &mut rec);
        w.write_all(&rec)?;
    }
    let bytes = w.position();
    // Fsync before any caller renames this file over live data: the rename
    // must never land ahead of the bytes it advertises.
    w.finish()?.sync_all()?;
    Ok(PartitionMeta {
        start,
        end,
        bytes,
        alive_nodes: entries.len() as u32,
        path: path.to_path_buf(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::DEFAULT_BLOCK_SIZE;
    use crate::memgraph::MemGraph;

    fn grid(n: u32) -> MemGraph {
        MemGraph::from_edges((0..n).map(|i| (i, (i + 1) % n)), n)
    }

    #[test]
    fn build_covers_all_nodes() {
        let mut g = grid(100);
        let store = PartitionStore::build(&mut g, 256, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        assert!(
            store.len() > 1,
            "small target must produce several partitions"
        );
        let mut covered = 0u32;
        for i in 0..store.len() {
            let m = store.meta(i);
            assert_eq!(m.start, covered);
            covered = m.end;
        }
        assert_eq!(covered, 100);
    }

    #[test]
    fn load_round_trips_adjacency() {
        let mut g = grid(50);
        let store = PartitionStore::build(&mut g, 300, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        for i in 0..store.len() {
            let p = store.load(i).unwrap();
            for (v, nbrs) in &p.entries {
                assert_eq!(nbrs.as_slice(), g.neighbors(*v), "node {v}");
            }
        }
    }

    #[test]
    fn rewrite_shrinks_partition() {
        let mut g = grid(40);
        let counter = IoCounter::new(DEFAULT_BLOCK_SIZE);
        let mut store = PartitionStore::build(&mut g, 250, counter.clone()).unwrap();
        let p = store.load(0).unwrap();
        let keep: Vec<_> = p.entries.into_iter().skip(2).collect();
        let writes_before = counter.snapshot().write_ios;
        store.rewrite(0, &keep).unwrap();
        assert!(counter.snapshot().write_ios > writes_before);
        let p2 = store.load(0).unwrap();
        assert_eq!(p2.entries.len(), keep.len());
        assert_eq!(store.meta(0).alive_nodes as usize, keep.len());
    }

    #[test]
    fn rewrite_rejects_foreign_nodes() {
        let mut g = grid(40);
        let mut store =
            PartitionStore::build(&mut g, 250, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        let end = store.meta(0).end;
        assert!(store.rewrite(0, &[(end, vec![])]).is_err());
    }

    #[test]
    fn load_charges_read_ios() {
        let mut g = grid(2000);
        let counter = IoCounter::new(512);
        let store = PartitionStore::build(&mut g, 4096, counter.clone()).unwrap();
        let before = counter.snapshot().read_ios;
        store.load(0).unwrap();
        let after = counter.snapshot().read_ios;
        assert!(after > before);
    }
}

#[cfg(test)]
mod corruption_tests {
    use super::*;
    use crate::io::DEFAULT_BLOCK_SIZE;
    use crate::memgraph::MemGraph;

    #[test]
    fn corrupted_partition_file_errors_not_panics() {
        let mut g = MemGraph::from_edges((0..40u32).map(|i| (i, (i + 1) % 40)), 40);
        let store = PartitionStore::build(&mut g, 300, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        // Overwrite partition 0's file with a bogus record count.
        let path = store.parts[0].path.clone();
        let mut bytes = std::fs::read(&path).unwrap();
        crate::codec::put_u32(&mut bytes, 0, u32::MAX);
        std::fs::write(&path, &bytes).unwrap();
        assert!(store.load(0).is_err());
    }

    #[test]
    fn truncated_partition_file_errors() {
        let mut g = MemGraph::from_edges((0..40u32).map(|i| (i, (i + 1) % 40)), 40);
        let store = PartitionStore::build(&mut g, 300, IoCounter::new(DEFAULT_BLOCK_SIZE)).unwrap();
        let path = store.parts[0].path.clone();
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len / 2).unwrap();
        drop(f);
        assert!(store.load(0).is_err());
    }
}
